//! Broadcast-ingest conformance suite: every consumer drawing from the
//! shared ring must answer **byte-identically** to its single-stream
//! counterpart.
//!
//! One `Broadcast` ring fans the routed stream out to the per-shard
//! QueryRouter drivers, the TRIÈST baseline, the exact `CsrGraph`
//! oracle, and raw pass counters. This suite pins, for shard counts
//! 1/2/4, triangle and 5-cycle banks, insertion and turnstile models,
//! blocked and scalar feed paths, and both reservoir acceptance schemes:
//!
//! * **router consumers** — broadcast trial outcomes == the
//!   single-stream executors' (and, in per-offer mode, the frozen
//!   `sgs_query::reference` oracle's);
//! * **TRIÈST** — the ring-fed baseline == a private replay with the
//!   same seed, coin for coin;
//! * **exact oracle** — the ring-materialized CSR count == the
//!   store-everything baseline == the final graph's exact count;
//! * **raw counter** — exactly the stream length, once;
//! * **cached delivery flags** — the owner/other shard ids the ring
//!   carries (computed once at buffer-fill time) == freshly recomputed
//!   shard hashes, at every shard count (the fix that keeps broadcast
//!   cursor reads hash-free);
//! * ring geometry (capacity, transport block) never changes an answer,
//!   including a capacity-1 ring that forces maximal backpressure.

use sgs_core::baselines::exact_stream::count_exact;
use sgs_core::baselines::triest::estimate_triest;
use sgs_core::fgp::{estimate, estimate_broadcast, triest_seed, ConsumerSet, MultiQuerySpec};
use sgs_core::{SamplerMode, SamplerPlan, SubgraphSampler};
use sgs_query::reference::run_insertion_reference;
use sgs_query::{
    BroadcastOpts, Engine, ExecPolicy, Parallel, PassOpts, QuerySet, ReservoirMode, RouterArena,
    ShardRuntime,
};
use sgs_stream::hash::split_seed;
use sgs_stream::sharded::shard_of_vertex;
use sgs_stream::{InsertionStream, ShardMap, ShardedFeed, TurnstileStream};
use subgraph_streams::prelude::*;

const SHARD_SWEEP: [usize; 3] = [1, 2, 4];
/// Feed-path block sizes: scalar, an odd remainder-heavy size, default.
const BLOCK_SWEEP: [usize; 3] = [0, 17, 128];

/// A one-job run over `feed` on `engine`.
fn run_on<A: RoundAdaptive>(
    model: RouterMode,
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    engine: Engine<'_, '_>,
) -> (A::Output, ExecReport) {
    QuerySet::solo(alg, seed, opts.reservoir)
        .run(model, feed, arena, opts, engine)
        .into_solo()
}

/// The scoped ring with `bcast` and no side sinks.
fn ring(bcast: BroadcastOpts) -> Engine<'static, 'static> {
    Engine::Ring(bcast, &mut [])
}

/// `rt`'s persistent workers when given, else the scoped ring.
fn ring_or_runtime(rt: Option<&mut ShardRuntime>, bcast: BroadcastOpts) -> Engine<'_, 'static> {
    match rt {
        Some(rt) => Engine::Runtime(rt, bcast),
        None => ring(bcast),
    }
}

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
fn cached_delivery_flags_match_recomputed_hashes() {
    // The satellite fix this suite pins: owned-delivery routing is
    // cached at buffer-fill time, and the cache must agree with a fresh
    // hash at every shard count — broadcast consumers trust it blindly.
    let g = sgs_graph::gen::gnm(32, 150, 401);
    let tst = TurnstileStream::from_graph_with_churn(&g, 1.2, 402);
    for &shards in &SHARD_SWEEP {
        let feed = ShardedFeed::partition(&tst, shards);
        for r in feed.routed() {
            let (u, v) = r.update.edge.endpoints();
            assert_eq!(r.owner as usize, shard_of_vertex(u.0, shards), "{r:?}");
            assert_eq!(r.other as usize, shard_of_vertex(v.0, shards), "{r:?}");
        }
    }
}

#[test]
fn broadcast_insertion_matches_single_stream_all_modes_and_blocks() {
    // The full insertion conformance cross: shards × patterns × blocks ×
    // reservoir schemes, against the single-stream executor (which is
    // itself pinned to the frozen reference elsewhere).
    let g = sgs_graph::gen::gnm(26, 120, 411);
    let ins = InsertionStream::from_graph(&g, 412);
    for (pattern, trials) in [(Pattern::triangle(), 250), (Pattern::cycle(5), 150)] {
        for mode in [ReservoirMode::Offer, ReservoirMode::Skip] {
            for &block in &BLOCK_SWEEP {
                let opts = PassOpts::with_block(block).reservoir(mode);
                let sampler = SamplerMode::Relaxed; // exercises reservoirs
                let (want, want_rep) = run_on(
                    RouterMode::Insertion,
                    bank(&pattern, sampler, trials, 5),
                    &ShardedFeed::partition(&ins, 1),
                    0xb0,
                    &mut RouterArena::new(),
                    opts,
                    Engine::Sharded(ExecPolicy::default()),
                );
                for &shards in &SHARD_SWEEP {
                    let mut rt = ShardRuntime::new(shards, ExecPolicy::threaded());
                    for persistent in [false, true] {
                        let feed = ShardedFeed::partition(&ins, shards);
                        let mut arena = RouterArena::new();
                        let (got, got_rep) = run_on(
                            RouterMode::Insertion,
                            bank(&pattern, sampler, trials, 5),
                            &feed,
                            0xb0,
                            &mut arena,
                            opts,
                            ring_or_runtime(
                                persistent.then_some(&mut rt),
                                BroadcastOpts::default(),
                            ),
                        );
                        assert_eq!(
                            got, want,
                            "{pattern:?}, {mode:?}, block {block}, {shards} shards"
                        );
                        assert_eq!(got_rep.passes, want_rep.passes);
                        assert_eq!(feed.logical_passes() as usize, got_rep.passes);
                    }
                }
            }
        }
    }
}

#[test]
fn broadcast_offer_mode_matches_frozen_reference() {
    // Per-offer reservoirs are byte-identical to the pre-router frozen
    // executors; the broadcast path must inherit that chain end to end.
    let g = sgs_graph::gen::gnm(24, 100, 421);
    let ins = InsertionStream::from_graph(&g, 422);
    let (want, _) = run_insertion_reference(
        bank(&Pattern::triangle(), SamplerMode::Indexed, 300, 7),
        &ins,
        0xf0,
    );
    for &shards in &SHARD_SWEEP {
        let feed = ShardedFeed::partition(&ins, shards);
        let mut arena = RouterArena::new();
        let (got, _) = run_on(
            RouterMode::Insertion,
            bank(&Pattern::triangle(), SamplerMode::Indexed, 300, 7),
            &feed,
            0xf0,
            &mut arena,
            PassOpts::oracle(),
            ring(BroadcastOpts::default()),
        );
        assert_eq!(got, want, "{shards} shards vs frozen reference");
    }
}

#[test]
fn broadcast_turnstile_matches_single_stream_all_blocks() {
    let g = sgs_graph::gen::gnm(22, 90, 431);
    let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 432);
    for (pattern, trials) in [(Pattern::triangle(), 120), (Pattern::cycle(5), 80)] {
        for &block in &BLOCK_SWEEP {
            // Single-stream counterpart: the one-shard sharded driver
            // (== `run_on_stream` at the default block).
            let single_feed = ShardedFeed::partition(&tst, 1);
            let mut single_arena = RouterArena::new();
            let (want, _) = run_on(
                RouterMode::Turnstile,
                bank(&pattern, SamplerMode::Relaxed, trials, 3),
                &single_feed,
                0x71,
                &mut single_arena,
                PassOpts::with_block(block),
                Engine::Sharded(ExecPolicy::default()),
            );
            for &shards in &SHARD_SWEEP {
                let feed = ShardedFeed::partition(&tst, shards);
                let mut arena = RouterArena::new();
                let mut rt = ShardRuntime::new(shards, ExecPolicy::threaded());
                for persistent in [false, true] {
                    let (got, _) = run_on(
                        RouterMode::Turnstile,
                        bank(&pattern, SamplerMode::Relaxed, trials, 3),
                        &feed,
                        0x71,
                        &mut arena,
                        PassOpts::with_block(block),
                        ring_or_runtime(persistent.then_some(&mut rt), BroadcastOpts::default()),
                    );
                    assert_eq!(got, want, "{pattern:?}, block {block}, {shards} shards");
                }
            }
        }
    }
}

#[test]
fn ring_geometry_never_changes_answers() {
    // Transport knobs (capacity, block length) are pure backpressure /
    // granularity controls: a capacity-1 ring with 3-update blocks must
    // answer exactly like the default 8×256 ring.
    let g = sgs_graph::gen::gnm(20, 80, 441);
    let ins = InsertionStream::from_graph(&g, 442);
    let feed = ShardedFeed::partition(&ins, 3);
    let mut arena = RouterArena::new();
    let mk = || bank(&Pattern::triangle(), SamplerMode::Relaxed, 200, 11);
    let (want, _) = run_on(
        RouterMode::Insertion,
        mk(),
        &feed,
        0xaa,
        &mut arena,
        PassOpts::default(),
        ring(BroadcastOpts::default()),
    );
    for (capacity, block) in [(1usize, 3usize), (2, 1), (4, 1000), (1, 256)] {
        let (got, _) = run_on(
            RouterMode::Insertion,
            mk(),
            &feed,
            0xaa,
            &mut arena,
            PassOpts::default(),
            ring(BroadcastOpts {
                ring_capacity: capacity,
                ring_block: block,
                ..BroadcastOpts::default()
            }),
        );
        assert_eq!(got, want, "ring capacity {capacity}, block {block}");
    }
}

#[test]
fn insertion_bundle_consumers_match_their_private_counterparts() {
    // The headline serving-path claim: TRIÈST, the exact CSR oracle, and
    // the raw counter ride the estimator's ingest and still answer
    // byte-identically to private replays — at every shard count, in
    // both reservoir modes, blocked and scalar.
    let g = sgs_graph::gen::gnm(28, 130, 451);
    let ins = InsertionStream::from_graph(&g, 452);
    let exact_direct = sgs_graph::exact::count_pattern_auto(&g, &Pattern::triangle());
    let private_exact = count_exact(&Pattern::triangle(), &ins);
    assert_eq!(private_exact.count, exact_direct);
    let private_triest = estimate_triest(&ins, 64, triest_seed(91));
    for mode in [ReservoirMode::Offer, ReservoirMode::Skip] {
        for &block in &[0usize, 128] {
            let opts = PassOpts::with_block(block).reservoir(mode);
            for &shards in &SHARD_SWEEP {
                let feed = ShardedFeed::partition(&ins, shards);
                let mut arena = RouterArena::new();
                let spec = MultiQuerySpec {
                    sampler: SamplerMode::Relaxed,
                    reservoir: mode,
                    ..MultiQuerySpec::new(Pattern::triangle(), 800, 91)
                };
                let bundle = estimate_broadcast(
                    &spec,
                    RouterMode::Insertion,
                    &feed,
                    &mut arena,
                    opts,
                    ConsumerSet {
                        triest_capacity: Some(64),
                        exact: true,
                        extra_raw: 2,
                    },
                    BroadcastOpts::default(),
                )
                .unwrap();
                let tag = format!("{mode:?}, block {block}, {shards} shards");
                // TRIÈST: bitwise f64 equality — same coins, same order.
                let t = bundle.triest.as_ref().unwrap();
                assert_eq!(
                    t.estimate.to_bits(),
                    private_triest.estimate.to_bits(),
                    "{tag}"
                );
                assert_eq!(t.reservoir_edges, private_triest.reservoir_edges, "{tag}");
                // Exact CSR oracle: equals the store-everything baseline
                // and the direct count.
                assert_eq!(bundle.exact, Some(exact_direct), "{tag}");
                // Raw counters: the stream, once, each.
                assert_eq!(bundle.raw_updates, ins.len() as u64, "{tag}");
                assert_eq!(bundle.extra_raw, vec![ins.len() as u64; 2], "{tag}");
                // And the estimator itself is unchanged by the riders.
                let single_feed = ShardedFeed::partition(&ins, 1);
                let engine = Engine::Sharded(ExecPolicy::default());
                let model = RouterMode::Insertion;
                let mut single_arena = RouterArena::new();
                let (ests, _) = estimate(
                    std::slice::from_ref(&spec),
                    model,
                    &single_feed,
                    &mut single_arena,
                    opts,
                    engine,
                )
                .unwrap();
                let single = &ests[0];
                assert_eq!(bundle.estimate.hits, single.hits, "{tag}");
                assert_eq!(bundle.estimate.estimate, single.estimate, "{tag}");
            }
        }
    }
}

#[test]
fn turnstile_bundle_consumers_match_their_private_counterparts() {
    let g = sgs_graph::gen::gnm(24, 100, 461);
    let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 462);
    let exact_direct = sgs_graph::exact::count_pattern_auto(&g, &Pattern::triangle());
    assert_eq!(count_exact(&Pattern::triangle(), &tst).count, exact_direct);
    let single =
        sgs_core::fgp::estimate_stream(&Pattern::triangle(), RouterMode::Turnstile, &tst, 300, 93)
            .unwrap();
    for &block in &[0usize, 128] {
        for &shards in &SHARD_SWEEP {
            let feed = ShardedFeed::partition(&tst, shards);
            let mut arena = RouterArena::new();
            let bundle = estimate_broadcast(
                &MultiQuerySpec::new(Pattern::triangle(), 300, 93),
                RouterMode::Turnstile,
                &feed,
                &mut arena,
                PassOpts::with_block(block),
                ConsumerSet::default(),
                BroadcastOpts::default(),
            )
            .unwrap();
            let tag = format!("block {block}, {shards} shards");
            assert!(bundle.triest.is_none(), "{tag}: TRIÈST is insertion-only");
            assert_eq!(bundle.exact, Some(exact_direct), "{tag}");
            assert_eq!(bundle.raw_updates, tst.len() as u64, "{tag}");
            assert_eq!(bundle.estimate.hits, single.hits, "{tag}");
            assert_eq!(bundle.estimate.estimate, single.estimate, "{tag}");
        }
    }
}

#[test]
fn placement_and_policy_never_change_broadcast_answers() {
    // The load-aware ShardMap on the ring path: re-homing hot vertices
    // onto colder shards changes only *which* consumer does the work,
    // never an answer, and the injected ExecPolicy (serial vs persistent
    // threaded workers) is equally invisible. Baseline: the
    // uniform-placement broadcast run, which the rest of this suite pins
    // to the single-stream executors.
    let g = sgs_graph::gen::zipf_hub(100, 700, 1.0, 71);
    let ins = InsertionStream::from_graph(&g, 72);
    let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 73);
    let shards = 3;
    let uniform_ins = ShardedFeed::partition(&ins, shards);
    let uniform_tst = ShardedFeed::partition(&tst, shards);
    let map = ShardMap::balanced(shards, &uniform_ins.vertex_delivery_counts(), 8);
    assert!(!map.is_uniform(), "hub workload must produce overrides");
    let mut arena = RouterArena::new();
    let (want_i, _) = run_on(
        RouterMode::Insertion,
        bank(&Pattern::triangle(), SamplerMode::Relaxed, 200, 17),
        &uniform_ins,
        0x71,
        &mut arena,
        PassOpts::default(),
        ring(BroadcastOpts::default()),
    );
    let (want_t, _) = run_on(
        RouterMode::Turnstile,
        bank(&Pattern::triangle(), SamplerMode::Relaxed, 150, 18),
        &uniform_tst,
        0x72,
        &mut arena,
        PassOpts::with_block(64),
        ring(BroadcastOpts::default()),
    );
    let placed_ins = ShardedFeed::partition_with_map(&ins, map.clone());
    let placed_tst = ShardedFeed::partition_with_map(&tst, map);
    // Each policy on the scoped ring and on persistent workers (one pool
    // serving every run).
    let mut rt = ShardRuntime::new(shards, ExecPolicy::threaded());
    for policy in [ExecPolicy::serial(), ExecPolicy::threaded()] {
        let bcast = BroadcastOpts::with_policy(policy);
        for persistent in [false, true] {
            let (got, _) = run_on(
                RouterMode::Insertion,
                bank(&Pattern::triangle(), SamplerMode::Relaxed, 200, 17),
                &placed_ins,
                0x71,
                &mut arena,
                PassOpts::default(),
                ring_or_runtime(persistent.then_some(&mut rt), bcast),
            );
            assert_eq!(got, want_i, "insertion, {policy:?}");
            let (got, _) = run_on(
                RouterMode::Turnstile,
                bank(&Pattern::triangle(), SamplerMode::Relaxed, 150, 18),
                &placed_tst,
                0x72,
                &mut arena,
                PassOpts::with_block(64),
                ring_or_runtime(persistent.then_some(&mut rt), bcast),
            );
            assert_eq!(got, want_t, "turnstile, {policy:?}");
        }
    }
}
