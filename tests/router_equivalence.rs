//! Seeded distribution-equivalence regression tests for the QueryRouter
//! executors.
//!
//! The QueryRouter refactor of `sgs_query::exec` is pure routing: it may
//! change *where* per-update work happens, but not a single coin of
//! algorithm or sketch randomness. These tests pin that down two ways:
//!
//! 1. **Byte-identity** — full `Parallel` sampler banks (triangle and
//!    5-cycle, the two piece shapes of Lemma 4) driven through the
//!    router-based executors must produce *identical* per-trial outcomes
//!    to the frozen pre-refactor executors in `sgs_query::reference`,
//!    for every seed tried.
//! 2. **Statistical accuracy** — the router executors' estimates must
//!    still converge to the exact subgraph counts (the end-to-end check
//!    that the equivalence above is measuring the right thing).

use sgs_core::fgp::estimate_stream;
use sgs_core::{SamplerMode, SamplerPlan, SubgraphSampler};
use sgs_query::exec::run_on_stream;
use sgs_query::reference::{run_insertion_reference, run_turnstile_reference};
use sgs_query::Parallel;
use sgs_stream::hash::split_seed;
use sgs_stream::{InsertionStream, TurnstileStream};
use subgraph_streams::prelude::*;

fn bank(
    pattern: &Pattern,
    mode: SamplerMode,
    trials: usize,
    seed: u64,
) -> Parallel<SubgraphSampler> {
    let plan = SamplerPlan::new(pattern).unwrap();
    Parallel::new(
        (0..trials)
            .map(|i| SubgraphSampler::new(plan.clone(), mode, split_seed(seed, i as u64)))
            .collect(),
    )
}

#[test]
fn insertion_byte_identical_triangle() {
    let g = sgs_graph::gen::gnm(30, 140, 42);
    let ins = InsertionStream::from_graph(&g, 7);
    for seed in 0..8u64 {
        let (a, ra) = run_on_stream(
            RouterMode::Insertion,
            bank(&Pattern::triangle(), SamplerMode::Indexed, 400, seed),
            &ins,
            seed ^ 0xaa,
        );
        let (b, rb) = run_insertion_reference(
            bank(&Pattern::triangle(), SamplerMode::Indexed, 400, seed),
            &ins,
            seed ^ 0xaa,
        );
        assert_eq!(a, b, "seed {seed}: outcome mismatch");
        assert_eq!(ra.passes, rb.passes);
        assert_eq!(ra.rounds, rb.rounds);
        assert_eq!(ra.queries, rb.queries);
    }
}

#[test]
fn insertion_byte_identical_five_cycle() {
    let g = sgs_graph::gen::gnm(24, 110, 5);
    let ins = InsertionStream::from_graph(&g, 6);
    for seed in 0..8u64 {
        let (a, _) = run_on_stream(
            RouterMode::Insertion,
            bank(&Pattern::cycle(5), SamplerMode::Indexed, 300, seed),
            &ins,
            seed ^ 0xc5,
        );
        let (b, _) = run_insertion_reference(
            bank(&Pattern::cycle(5), SamplerMode::Indexed, 300, seed),
            &ins,
            seed ^ 0xc5,
        );
        assert_eq!(a, b, "seed {seed}: outcome mismatch");
    }
}

#[test]
fn turnstile_byte_identical_triangle_and_five_cycle() {
    let g = sgs_graph::gen::gnm(22, 90, 9);
    let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 10);
    for (pattern, trials) in [(Pattern::triangle(), 150), (Pattern::cycle(5), 100)] {
        for seed in 0..4u64 {
            let (a, _) = run_on_stream(
                RouterMode::Turnstile,
                bank(&pattern, SamplerMode::Relaxed, trials, seed),
                &tst,
                seed ^ 0x7,
            );
            let (b, _) = run_turnstile_reference(
                bank(&pattern, SamplerMode::Relaxed, trials, seed),
                &tst,
                seed ^ 0x7,
            );
            assert_eq!(a, b, "{pattern:?} seed {seed}: outcome mismatch");
        }
    }
}

#[test]
fn router_estimates_stay_accurate_triangle() {
    let g = sgs_graph::gen::gnm(30, 150, 21);
    let exact = sgs_graph::exact::triangles::count_triangles(&g);
    assert!(exact > 20, "workload sanity: {exact}");
    let ins = InsertionStream::from_graph(&g, 22);
    let est = estimate_stream(
        &Pattern::triangle(),
        RouterMode::Insertion,
        &ins,
        40_000,
        23,
    )
    .unwrap();
    assert_eq!(est.report.passes, 3);
    assert!(
        est.relative_error(exact) < 0.2,
        "estimate {} vs exact {exact}",
        est.estimate
    );
}

#[test]
fn router_estimates_stay_accurate_five_cycle() {
    let g = sgs_graph::gen::gnm(16, 60, 31);
    let exact = sgs_graph::exact::count_pattern_auto(&g, &Pattern::cycle(5));
    assert!(exact > 0, "workload sanity");
    let ins = InsertionStream::from_graph(&g, 32);
    let est =
        estimate_stream(&Pattern::cycle(5), RouterMode::Insertion, &ins, 120_000, 33).unwrap();
    assert_eq!(est.report.passes, 3);
    assert!(
        est.relative_error(exact) < 0.35,
        "estimate {} vs exact {exact}",
        est.estimate
    );
}
