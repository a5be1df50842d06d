//! Multiplexer equivalence: every query in a shared-pass `QuerySet` run
//! must answer **byte-identically** to its solo run.
//!
//! The sweep covers shards 1/2/4 × mixed triangle+5-cycle query sets ×
//! insertion+turnstile models × blocked/scalar feed paths × reservoir
//! offer+skip modes. Solo runs go through the sharded executors, which
//! `tests/sharded_equivalence.rs` pins to the frozen reference chain —
//! so in offer mode the multiplexed answers are transitively pinned to
//! the pre-router reference executors (the frozen-reference chain), and
//! in skip mode to the solo skip-ahead coin sequence.
//!
//! Also asserted: N jobs sharing rounds cost `max_j rounds_j` logical
//! passes (the whole point), per-job `ExecReport` pass/round/query
//! counters match solo exactly, and the ring engine reproduces the
//! sharded engine.

use sgs_core::fgp::estimate;
use sgs_core::{MultiQuerySpec, SamplerMode};
use sgs_query::{BroadcastOpts, Engine, ExecPolicy, PassOpts, ReservoirMode, RouterArena};
use sgs_stream::{InsertionStream, ShardedFeed, TurnstileStream};
use subgraph_streams::prelude::*;

const SHARD_SWEEP: [usize; 3] = [1, 2, 4];

/// `spec` alone over `feed`: its solo run on the sharded engine.
fn solo(
    spec: &MultiQuerySpec,
    model: RouterMode,
    feed: &ShardedFeed,
    opts: PassOpts,
    policy: ExecPolicy,
) -> CountEstimate {
    let specs = std::slice::from_ref(spec);
    let engine = Engine::Sharded(policy);
    let (mut ests, _) =
        estimate(specs, model, feed, &mut RouterArena::new(), opts, engine).unwrap();
    ests.pop().unwrap()
}

/// A mixed admission batch: two patterns, different trial counts, seeds,
/// sampler modes, and both reservoir acceptance schemes.
fn mixed_specs() -> Vec<MultiQuerySpec> {
    vec![
        MultiQuerySpec {
            pattern: Pattern::triangle(),
            trials: 60,
            seed: 101,
            sampler: SamplerMode::Indexed,
            reservoir: ReservoirMode::Offer,
        },
        MultiQuerySpec {
            pattern: Pattern::cycle(5),
            trials: 35,
            seed: 202,
            sampler: SamplerMode::Relaxed,
            reservoir: ReservoirMode::Skip,
        },
        MultiQuerySpec {
            pattern: Pattern::triangle(),
            trials: 20,
            seed: 303,
            sampler: SamplerMode::Relaxed,
            reservoir: ReservoirMode::Offer,
        },
        MultiQuerySpec {
            pattern: Pattern::cycle(5),
            trials: 15,
            seed: 404,
            sampler: SamplerMode::Relaxed,
            reservoir: ReservoirMode::Skip,
        },
    ]
}

fn assert_estimates_equal(a: &sgs_core::CountEstimate, b: &sgs_core::CountEstimate, ctx: &str) {
    assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "estimate {ctx}");
    assert_eq!(a.hits, b.hits, "hits {ctx}");
    assert_eq!(a.trials, b.trials, "trials {ctx}");
    assert_eq!(a.m, b.m, "m {ctx}");
}

#[test]
fn insertion_mux_matches_solo_across_shards_and_blocks() {
    let g = sgs_graph::gen::gnm(48, 220, 42);
    let ins = InsertionStream::from_graph(&g, 7);
    let specs = mixed_specs();
    for &shards in &SHARD_SWEEP {
        let feed = ShardedFeed::partition(&ins, shards);
        for &block in &[0usize, 128] {
            let mut arena = RouterArena::new();
            let (ests, admission) = estimate(
                &specs,
                RouterMode::Insertion,
                &feed,
                &mut arena,
                PassOpts::with_block(block),
                Engine::Sharded(ExecPolicy::serial()),
            )
            .unwrap();
            // Every sampler is 3-round: 4 jobs share exactly 3 passes.
            assert_eq!(admission.rounds.len(), 3, "{shards} shards, block {block}");
            assert_eq!(feed.logical_passes() % 3, 0);
            for (j, spec) in specs.iter().enumerate() {
                let opts = PassOpts::with_block(block);
                let solo = solo(
                    spec,
                    RouterMode::Insertion,
                    &feed,
                    opts,
                    ExecPolicy::serial(),
                );
                let ctx = format!("job {j}, {shards} shards, block {block}");
                assert_estimates_equal(&ests[j], &solo, &ctx);
                assert_eq!(ests[j].report.passes, solo.report.passes, "{ctx}");
                assert_eq!(ests[j].report.rounds, solo.report.rounds, "{ctx}");
                assert_eq!(ests[j].report.queries, solo.report.queries, "{ctx}");
            }
        }
    }
}

#[test]
fn turnstile_mux_matches_solo_across_shards_and_blocks() {
    let g = sgs_graph::gen::gnm(48, 220, 43);
    let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 44);
    let specs = mixed_specs();
    for &shards in &SHARD_SWEEP {
        let feed = ShardedFeed::partition(&tst, shards);
        for &block in &[0usize, 128] {
            let mut arena = RouterArena::new();
            let (ests, admission) = estimate(
                &specs,
                RouterMode::Turnstile,
                &feed,
                &mut arena,
                PassOpts::with_block(block),
                Engine::Sharded(ExecPolicy::serial()),
            )
            .unwrap();
            assert_eq!(admission.rounds.len(), 3);
            for (j, spec) in specs.iter().enumerate() {
                let opts = PassOpts::with_block(block);
                let solo = solo(
                    spec,
                    RouterMode::Turnstile,
                    &feed,
                    opts,
                    ExecPolicy::serial(),
                );
                let ctx = format!("job {j}, {shards} shards, block {block}");
                assert_estimates_equal(&ests[j], &solo, &ctx);
            }
        }
    }
}

#[test]
fn threaded_policy_is_byte_identical_to_serial() {
    let g = sgs_graph::gen::gnm(48, 220, 45);
    let ins = InsertionStream::from_graph(&g, 46);
    let feed = ShardedFeed::partition(&ins, 4);
    let specs = mixed_specs();
    let mut arena = RouterArena::new();
    let (serial, _) = estimate(
        &specs,
        RouterMode::Insertion,
        &feed,
        &mut arena,
        PassOpts::with_block(128),
        Engine::Sharded(ExecPolicy::serial()),
    )
    .unwrap();
    let mut arena2 = RouterArena::new();
    let (threaded, _) = estimate(
        &specs,
        RouterMode::Insertion,
        &feed,
        &mut arena2,
        PassOpts::with_block(128),
        Engine::Sharded(ExecPolicy::threaded()),
    )
    .unwrap();
    for (j, (a, b)) in serial.iter().zip(&threaded).enumerate() {
        assert_estimates_equal(a, b, &format!("job {j}"));
    }
}

#[test]
fn threaded_policy_is_byte_identical_to_serial_on_turnstile_banks() {
    // Round 1 of the 200-trial triangle job asks 400 `f1` ℓ₀-samplers,
    // two per trial. The churned gnm(64, 500) stream has about
    // 2.5 × 500 = 1250 updates, so the one-shard round-1 sweep is about
    // 400 × 1250 = 500,000 sampler-updates, and each of two shards
    // sweeps the ~625 updates it owns: about 250,000. Both exceed the
    // 2 × 65,536 a two-way split needs, so under the threaded policy
    // (at least two bank threads) every round-1 sweep is split, while
    // the serial policy keeps it whole. The bound is asserted below.
    let g = sgs_graph::gen::gnm(64, 500, 49);
    let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 50);
    let spec = MultiQuerySpec {
        pattern: Pattern::triangle(),
        trials: 200,
        seed: 505,
        sampler: SamplerMode::Relaxed,
        reservoir: ReservoirMode::Skip,
    };
    let specs = vec![
        spec.clone(),
        MultiQuerySpec {
            pattern: Pattern::cycle(5),
            trials: 40,
            seed: 606,
            ..spec.clone()
        },
    ];
    let opts = PassOpts::with_block(128);
    for shards in [1usize, 2] {
        let feed = ShardedFeed::partition(&tst, shards);
        let min_owned = (0..shards)
            .map(|i| feed.shard(i).iter().filter(|u| u.owned).count())
            .min()
            .unwrap();
        assert!(
            2 * spec.trials * min_owned >= 2 * 65_536,
            "{shards} shards: round-1 sweeps too small to split"
        );
        let solo_at = |policy: ExecPolicy| solo(&spec, RouterMode::Turnstile, &feed, opts, policy);
        let serial = solo_at(ExecPolicy::serial());
        assert!(serial.hits > 0, "{shards} shards: a degenerate estimate");
        assert_estimates_equal(
            &serial,
            &solo_at(ExecPolicy::threaded()),
            &format!("solo, {shards} shards"),
        );
        let mux = |policy: ExecPolicy| {
            estimate(
                &specs,
                RouterMode::Turnstile,
                &feed,
                &mut RouterArena::new(),
                opts,
                Engine::Sharded(policy),
            )
            .unwrap()
            .0
        };
        let serial = mux(ExecPolicy::serial());
        for (j, (a, b)) in serial.iter().zip(&mux(ExecPolicy::threaded())).enumerate() {
            assert_estimates_equal(a, b, &format!("job {j}, {shards} shards"));
        }
    }
}

#[test]
fn ring_engine_matches_sharded_engine() {
    let g = sgs_graph::gen::gnm(48, 220, 47);
    let ins = InsertionStream::from_graph(&g, 48);
    let specs = mixed_specs();
    for &shards in &SHARD_SWEEP {
        let feed = ShardedFeed::partition(&ins, shards);
        let mut arena = RouterArena::new();
        let (sharded, _) = estimate(
            &specs,
            RouterMode::Insertion,
            &feed,
            &mut arena,
            PassOpts::with_block(64),
            Engine::Sharded(ExecPolicy::serial()),
        )
        .unwrap();
        for policy in [ExecPolicy::serial(), ExecPolicy::threaded()] {
            let mut ring_arena = RouterArena::new();
            let (ringed, _) = estimate(
                &specs,
                RouterMode::Insertion,
                &feed,
                &mut ring_arena,
                PassOpts::with_block(64),
                Engine::Ring(BroadcastOpts::with_policy(policy), &mut []),
            )
            .unwrap();
            for (j, (a, b)) in sharded.iter().zip(&ringed).enumerate() {
                assert_estimates_equal(a, b, &format!("job {j}, {shards} shards, {policy:?}"));
            }
        }
    }
}

#[test]
fn arena_reuse_across_mux_runs_is_stable() {
    let g = sgs_graph::gen::gnm(48, 220, 49);
    let ins = InsertionStream::from_graph(&g, 50);
    let feed = ShardedFeed::partition(&ins, 2);
    let specs = mixed_specs();
    let mut arena = RouterArena::new();
    let (first, _) = estimate(
        &specs,
        RouterMode::Insertion,
        &feed,
        &mut arena,
        PassOpts::with_block(64),
        Engine::Sharded(ExecPolicy::serial()),
    )
    .unwrap();
    let (second, _) = estimate(
        &specs,
        RouterMode::Insertion,
        &feed,
        &mut arena,
        PassOpts::with_block(64),
        Engine::Sharded(ExecPolicy::serial()),
    )
    .unwrap();
    for (j, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_estimates_equal(a, b, &format!("warm-arena job {j}"));
    }
    assert_eq!(
        arena.growth_events_after_warmup(),
        0,
        "warm mux runs must not grow the arena"
    );
}
