//! Cross-crate integration tests: the full pipeline from generator to
//! estimate, exercising every execution mode.

use subgraph_streams::prelude::*;

#[test]
fn fgp_triangle_insertion_end_to_end() {
    let g = sgs_graph::gen::gnm(60, 400, 1);
    let exact = sgs_graph::exact::triangles::count_triangles(&g);
    assert!(exact > 100);
    let stream = InsertionStream::from_graph(&g, 2);
    let est = estimate_stream(
        &Pattern::triangle(),
        RouterMode::Insertion,
        &stream,
        30_000,
        3,
    )
    .unwrap();
    assert_eq!(est.report.passes, 3);
    assert_eq!(est.m, 400);
    assert!(
        est.relative_error(exact) < 0.25,
        "estimate {} vs exact {exact}",
        est.estimate
    );
}

#[test]
fn fgp_turnstile_matches_final_graph_despite_churn() {
    let g = sgs_graph::gen::gnm(40, 200, 4);
    let exact = sgs_graph::exact::triangles::count_triangles(&g);
    assert!(exact > 20);
    let stream = TurnstileStream::from_graph_with_churn(&g, 2.0, 5);
    assert!(stream.deletion_fraction() > 0.3);
    let est = estimate_stream(
        &Pattern::triangle(),
        RouterMode::Turnstile,
        &stream,
        15_000,
        6,
    )
    .unwrap();
    assert!(est.report.passes <= 3);
    assert!(
        est.relative_error(exact) < 0.35,
        "estimate {} vs exact {exact}",
        est.estimate
    );
}

#[test]
fn fgp_handles_pattern_zoo() {
    let g = sgs_graph::gen::gnm(30, 140, 7);
    let stream = InsertionStream::from_graph(&g, 8);
    for (pattern, trials, tol) in [
        (Pattern::star(2), 20_000, 0.25),
        (Pattern::path(3), 40_000, 0.35),
        (Pattern::cycle(4), 40_000, 0.35),
    ] {
        let exact = sgs_graph::exact::count_pattern_auto(&g, &pattern);
        assert!(exact > 0, "{pattern:?} absent from workload");
        let est = estimate_stream(&pattern, RouterMode::Insertion, &stream, trials, 9).unwrap();
        assert!(est.report.passes <= 3);
        assert!(
            est.relative_error(exact) < tol,
            "{pattern:?}: estimate {} vs exact {exact}",
            est.estimate
        );
    }
}

#[test]
fn ers_end_to_end_on_low_degeneracy() {
    let g = sgs_graph::gen::barabasi_albert(100, 4, 10);
    let lambda = sgs_graph::degeneracy::degeneracy(&g);
    assert!(lambda <= 4);
    let exact = sgs_graph::exact::cliques::count_cliques(&g, 3);
    assert!(exact > 20);
    let stream = InsertionStream::from_graph(&g, 11);
    let params = ErsParams::practical(3, lambda, 0.3, exact as f64 * 0.5);
    let est = count_cliques_insertion(&params, &stream, 9, 12);
    assert!(est.report.passes <= 15, "{} passes > 5r", est.report.passes);
    assert!(
        est.relative_error(exact) < 0.35,
        "estimate {} vs exact {exact}",
        est.estimate
    );
}

#[test]
fn oracle_and_stream_estimates_agree_statistically() {
    // Theorem 9's "same output distribution": compare the two executions
    // of the same estimator at matched trial counts.
    let g = sgs_graph::gen::gnm(30, 150, 13);
    let exact = sgs_graph::exact::triangles::count_triangles(&g) as f64;
    let stream = InsertionStream::from_graph(&g, 14);
    let oracle_est = sgs_core::fgp::estimate_oracle(&Pattern::triangle(), &g, 25_000, 15).unwrap();
    let stream_est = estimate_stream(
        &Pattern::triangle(),
        RouterMode::Insertion,
        &stream,
        25_000,
        16,
    )
    .unwrap();
    let a = oracle_est.estimate / exact;
    let b = stream_est.estimate / exact;
    assert!((a - b).abs() < 0.25, "oracle {a:.3} vs stream {b:.3}");
}

#[test]
fn exact_baseline_agrees_everywhere() {
    let g = sgs_graph::gen::gnm(40, 250, 17);
    let exact = sgs_graph::exact::triangles::count_triangles(&g);
    let ins = InsertionStream::from_graph(&g, 18);
    let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 19);
    assert_eq!(
        sgs_core::baselines::exact_stream::count_exact(&Pattern::triangle(), &ins).count,
        exact
    );
    assert_eq!(
        sgs_core::baselines::exact_stream::count_exact(&Pattern::triangle(), &tst).count,
        exact
    );
}

#[test]
fn pass_counts_match_paper_claims() {
    let g = sgs_graph::gen::gnm(30, 120, 20);
    let ins = InsertionStream::from_graph(&g, 21);

    // FGP: 3 passes for cycle-bearing patterns, 2 for star-only.
    let tri = estimate_stream(&Pattern::triangle(), RouterMode::Insertion, &ins, 100, 22).unwrap();
    assert_eq!(tri.report.passes, 3);
    let star = estimate_stream(&Pattern::star(3), RouterMode::Insertion, &ins, 100, 23).unwrap();
    assert_eq!(star.report.passes, 2);

    // ERS for r: <= 5r passes (Theorem 2), and our construction uses
    // 4r - 5 in the worst case.
    let ba = sgs_graph::gen::barabasi_albert(60, 3, 24);
    let ba_stream = InsertionStream::from_graph(&ba, 25);
    for r in [3usize, 4] {
        let exact = sgs_graph::exact::cliques::count_cliques(&ba, r).max(1);
        let params = ErsParams::practical(r, 3, 0.4, exact as f64);
        let est = count_cliques_insertion(&params, &ba_stream, 3, 26);
        assert!(
            est.report.passes <= 5 * r,
            "r={r}: {} passes > 5r",
            est.report.passes
        );
        assert!(
            est.report.passes <= 4 * r - 5,
            "r={r}: {} passes > 4r-5",
            est.report.passes
        );
    }
}

#[test]
fn sampled_copies_are_always_real_subgraphs() {
    use sgs_core::{SamplerMode, SamplerPlan, SubgraphSampler};
    use sgs_query::exec::run_on_stream;
    // Small and dense so the K4 hit probability #K4/(2m)^2 is large
    // enough to observe within the trial budget.
    let g = sgs_graph::gen::plant_pattern(
        &sgs_graph::gen::gnm(12, 40, 27),
        &Pattern::clique(4),
        12,
        28,
    );
    let stream = InsertionStream::from_graph(&g, 29);
    let plan = SamplerPlan::new(&Pattern::clique(4)).unwrap();
    let mut found = 0;
    for t in 0..10_000u64 {
        let s = SubgraphSampler::new(plan.clone(), SamplerMode::Indexed, t);
        let (out, _) = run_on_stream(RouterMode::Insertion, s, &stream, 5000 + t);
        if let Some(c) = out.copy {
            found += 1;
            assert_eq!(c.vertices.len(), 4);
            assert_eq!(c.edges.len(), 6);
            for e in &c.edges {
                assert!(g.has_edge(e.u(), e.v()));
            }
        }
    }
    assert!(found > 0, "planted K4s should be findable");
}
