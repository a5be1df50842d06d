//! E9 — baseline comparison (§1's related-work landscape): FGP vs
//! DOULION-style sparsification vs exact storage, across `#T` regimes.
//! DOULION's variance explodes when triangles are scarce; FGP's trial
//! budget grows instead — the crossover the paper's `m^ρ/#H` bound
//! formalizes. Space budgets are matched: DOULION keeps `p·m` edges
//! where FGP keeps `k` constant-size samplers.

use crate::table::{f, pct, Table};
use sgs_core::baselines::{doulion, exact_stream, triest};
use sgs_core::fgp::estimate_stream;
use sgs_graph::{exact, gen, Pattern, StaticGraph};
use sgs_query::RouterMode;
use sgs_stream::hash::split_seed;
use sgs_stream::InsertionStream;

pub fn run(quick: bool) -> Table {
    let runs: u64 = if quick { 4 } else { 10 };
    let mut t = Table::new(
        "E9 — FGP vs DOULION vs exact across #T regimes",
        &[
            "workload",
            "#T",
            "method",
            "mean rel err",
            "space KiB",
            "passes",
        ],
    );
    // Three regimes: triangle-rich, moderate, triangle-poor.
    let base = gen::gnm(120, 1400, 71);
    let rich = gen::plant_pattern(&base, &Pattern::triangle(), 250, 72);
    let poor = gen::gnm(400, 1400, 73);
    let cases: Vec<(&str, sgs_graph::AdjListGraph)> =
        vec![("rich", rich), ("moderate", base), ("poor", poor)];

    for (name, g) in &cases {
        let m = g.num_edges();
        let exact_t = exact::triangles::count_triangles(g).max(1);
        let stream = InsertionStream::from_graph(g, 74);
        let workload = format!("{name} (m={m})");

        // Exact baseline.
        let ex = exact_stream::count_exact(&Pattern::triangle(), &stream);
        t.row(vec![
            workload.clone(),
            exact_t.to_string(),
            "exact store-all".into(),
            "0%".into(),
            (ex.space_bytes / 1024).max(1).to_string(),
            ex.passes.to_string(),
        ]);

        // FGP with a moderate budget.
        let trials = if quick { 20_000 } else { 60_000 };
        let mut errs = Vec::new();
        let mut space = 0;
        for s in 0..runs {
            let est = estimate_stream(
                &Pattern::triangle(),
                RouterMode::Insertion,
                &stream,
                trials,
                split_seed(0xe9, s),
            )
            .unwrap();
            errs.push(est.relative_error(exact_t));
            space = est.report.total_space_bytes();
        }
        let fgp_err = errs.iter().sum::<f64>() / errs.len() as f64;
        t.row(vec![
            workload.clone(),
            exact_t.to_string(),
            format!("FGP (k={trials})"),
            pct(fgp_err),
            (space / 1024).to_string(),
            "3".into(),
        ]);

        // DOULION at p = 0.1 (keeps ~10% of edges).
        let p = 0.1;
        let mut errs = Vec::new();
        let mut space = 0;
        for s in 0..runs {
            let d =
                doulion::estimate_doulion(&Pattern::triangle(), &stream, p, split_seed(0xe9a, s));
            errs.push((d.estimate - exact_t as f64).abs() / exact_t as f64);
            space = d.space_bytes;
        }
        let dl_err = errs.iter().sum::<f64>() / errs.len() as f64;
        t.row(vec![
            workload.clone(),
            exact_t.to_string(),
            format!("DOULION (p={p})"),
            pct(dl_err),
            (space / 1024).max(1).to_string(),
            "1".into(),
        ]);

        // TRIEST-style adaptive reservoir at ~10% of the edges.
        let cap = m / 10;
        let mut errs = Vec::new();
        let mut space = 0;
        for s in 0..runs {
            let tr = triest::estimate_triest(&stream, cap, split_seed(0xe9b, s));
            errs.push((tr.estimate - exact_t as f64).abs() / exact_t as f64);
            space = tr.space_bytes;
        }
        let tr_err = errs.iter().sum::<f64>() / errs.len() as f64;
        t.row(vec![
            workload.clone(),
            exact_t.to_string(),
            format!("TRIEST (M={cap})"),
            pct(tr_err),
            (space / 1024).max(1).to_string(),
            "1".into(),
        ]);
        let _ = f(0.0);
    }
    t.note("claim: in the poor regime DOULION's error blows up (few sampled");
    t.note("triangles survive p^3 thinning) while FGP degrades gracefully;");
    t.note("exact is error-free but stores the entire graph.");
    t
}
