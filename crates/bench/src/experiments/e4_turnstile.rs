//! E4 — Theorem 11 / Lemma 18: the turnstile estimator tracks the final
//! graph regardless of how much insert/delete churn the stream carries,
//! at the same (≤3) pass budget, and agrees with the insertion-only
//! estimator on the same final graph.

use crate::table::{f, pct, Table};
use sgs_core::fgp::estimate_stream;
use sgs_graph::{exact, gen, Pattern, StaticGraph};
use sgs_query::RouterMode;
use sgs_stream::hash::split_seed;
use sgs_stream::{EdgeStream, InsertionStream, TurnstileStream};

pub fn run(quick: bool) -> Table {
    let trials: usize = if quick { 8_000 } else { 15_000 };
    let seeds: u64 = if quick { 2 } else { 3 };
    let g = gen::gnm(40, 250, 31);
    let exact_t = exact::triangles::count_triangles(&g);
    let m = g.num_edges();

    let mut t = Table::new(
        format!("E4 — turnstile vs churn (triangle, m={m}, #T={exact_t})"),
        &[
            "stream",
            "updates",
            "deletions",
            "mean estimate",
            "rel err",
            "passes",
        ],
    );

    // Insertion-only reference.
    {
        let ins = InsertionStream::from_graph(&g, 32);
        let mut sum = 0.0;
        let mut passes = 0;
        for s in 0..seeds {
            let est = estimate_stream(
                &Pattern::triangle(),
                RouterMode::Insertion,
                &ins,
                trials,
                split_seed(0xe4, s),
            )
            .unwrap();
            sum += est.estimate;
            passes = est.report.passes;
        }
        let mean = sum / seeds as f64;
        t.row(vec![
            "insertion-only".into(),
            ins.len().to_string(),
            "0.0%".into(),
            f(mean),
            pct((mean - exact_t as f64).abs() / exact_t as f64),
            passes.to_string(),
        ]);
    }

    for churn in [0.0, 1.0, 3.0] {
        let tst = TurnstileStream::from_graph_with_churn(&g, churn, 33);
        let mut sum = 0.0;
        let mut passes = 0;
        for s in 0..seeds {
            let est = estimate_stream(
                &Pattern::triangle(),
                RouterMode::Turnstile,
                &tst,
                trials,
                split_seed(0xe4 + churn as u64 + 1, s),
            )
            .unwrap();
            sum += est.estimate;
            passes = est.report.passes;
        }
        let mean = sum / seeds as f64;
        t.row(vec![
            format!("turnstile x{churn}"),
            tst.len().to_string(),
            pct(tst.deletion_fraction()),
            f(mean),
            pct((mean - exact_t as f64).abs() / exact_t as f64),
            passes.to_string(),
        ]);
    }
    t.note("claim: every row estimates the same #T within noise; passes <= 3.");
    t
}
