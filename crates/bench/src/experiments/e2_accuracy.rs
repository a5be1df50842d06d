//! E2 — Theorem 17 / Theorem 1: the parallel-trials estimator reaches
//! `(1±ε)` accuracy, and its error decays like `1/√k` in the trial
//! count `k`. The last column (`err·√k`, which should be roughly
//! constant) exposes the decay rate; the paper-prescribed `k` for a
//! target `ε` is shown for reference.

use crate::table::{f, pct, Table};
use sgs_core::fgp::{estimate_stream, practical_trials};
use sgs_graph::{exact, gen, Pattern, StaticGraph};
use sgs_query::RouterMode;
use sgs_stream::hash::split_seed;
use sgs_stream::InsertionStream;

pub fn run(quick: bool) -> Table {
    let seeds: u64 = if quick { 3 } else { 8 };
    let g = gen::gnm(60, 500, 21);
    let m = g.num_edges();
    let exact_t = exact::triangles::count_triangles(&g);
    let stream = InsertionStream::from_graph(&g, 22);
    let plan = sgs_core::SamplerPlan::new(&Pattern::triangle()).unwrap();

    let mut t = Table::new(
        format!("E2 — accuracy vs trials (triangle, n=60 m={m}, #T={exact_t})"),
        &["trials k", "mean rel err", "err x sqrt(k)", "passes"],
    );
    let trial_counts: &[usize] = if quick {
        &[2_000, 8_000, 32_000]
    } else {
        &[2_000, 8_000, 32_000, 128_000]
    };
    for &k in trial_counts {
        let mut errs = Vec::new();
        let mut passes = 0;
        for s in 0..seeds {
            let est = estimate_stream(
                &Pattern::triangle(),
                RouterMode::Insertion,
                &stream,
                k,
                split_seed(0xe2, s),
            )
            .unwrap();
            errs.push(est.relative_error(exact_t));
            passes = est.report.passes;
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        t.row(vec![
            k.to_string(),
            pct(mean),
            f(mean * (k as f64).sqrt()),
            passes.to_string(),
        ]);
    }
    let eps = 0.1;
    let k_rec = practical_trials(m, plan.rho(), eps, exact_t as f64);
    t.note(format!(
        "paper-form budget for eps={eps}: k = c*(2m)^rho/(eps^2*#T) = {k_rec}"
    ));
    t.note("claim: err*sqrt(k) ~ constant (Chernoff), 3 passes at every k.");
    t
}
