//! Broadcast pass execution: one ingest feeds every consumer at once.
//!
//! The scoped-thread engine in [`crate::sharded`] gives each shard
//! machine a private replay of its buffer. The ring engines route the
//! same shard machines ([`crate::sharded::PassMachine`]) through a
//! bounded [`Broadcast`] ring instead: **one producer** pushes the feed's
//! routed buffer in blocks, and every consumer — the N shard machines
//! *plus* any number of side consumers (baselines, exact oracles, pass
//! counters) — walks the blocks through its own cursor. [`run_ring`] is
//! the one scoped ring driver behind [`crate::sharded::Engine::Ring`];
//! the persistent [`crate::runtime::ShardRuntime`] behind
//! [`crate::sharded::Engine::Runtime`] feeds its workers the same way.
//! This module holds the ring's options ([`BroadcastOpts`]), the side
//! sink type ([`SideSink`]) and the driver; the pass and run calls take
//! the engine as an argument.
//!
//! **Equivalence.** A shard consumer reconstructs exactly its scoped
//! buffer from the ring: every [`RoutedUpdate`] carries the owner/other
//! shard ids cached at partition (buffer-fill) time, so
//! `delivery_for(shard)` yields the same `ShardUpdate` sequence —
//! positions, owned flags, order — that `ShardedFeed::shard(i)` stores,
//! with zero hash recomputes at the cursor. Delivery chunking differs
//! (ring blocks vs one big slice) but chunk boundaries never change an
//! answer, so broadcast answers are **byte-identical** to the sharded
//! (and therefore frozen-reference) answers for every seed, shard
//! count, feed block size, and reservoir mode —
//! `tests/broadcast_equivalence.rs` pins all of it.
//!
//! **Pass accounting.** One broadcast session is one logical pass on the
//! feed, however many consumers ride it (side consumers included: that
//! is the whole point — the TRIÈST baseline, the exact oracle, and a
//! raw counter ride the estimator's first pass instead of replaying the
//! stream privately). Consumer loss does not change the count.
//!
//! **Scheduling.** When the injected [`ExecPolicy`] says to thread
//! (default: more than one core) the producer, shard workers, and side
//! consumers run on scoped threads against the blocking ring API;
//! otherwise a deterministic cooperative round-robin drives the same
//! ring through the try-APIs. Both schedules produce identical answers —
//! every consumer sees the whole stream in order either way. A caller
//! that wants the same workers pass after pass passes
//! [`crate::sharded::Engine::Runtime`] with its own pool.

use crate::arena::ShardSlot;
use crate::multiplex::StallEvent;
use crate::policy::ExecPolicy;
use crate::sharded::{PassMachine, PassSetup, ShardOutcome};
use sgs_stream::broadcast::{Broadcast, BroadcastConsumer, RoutedProducer, TryNext};
use sgs_stream::sharded::{RoutedUpdate, ShardUpdate, ShardedFeed};
use std::time::{Duration, Instant};

/// Producer stalls longer than this are recorded as [`StallEvent`]s on
/// the scoped ring — long enough to ignore scheduler jitter, short
/// enough to catch a consumer that is actually wedged.
const STALL_THRESHOLD: Duration = Duration::from_millis(10);

/// A side consumer of one broadcast pass: fed every ring block (the
/// whole routed stream, in order), independent of shard routing. The
/// executor layer does not interpret these — `sgs-core` plugs in the
/// TRIÈST baseline, the exact-oracle graph builder, and raw counters.
pub type SideSink<'a> = Box<dyn FnMut(&[RoutedUpdate]) + Send + 'a>;

/// Ring geometry and scheduling policy for a broadcast pass.
#[derive(Clone, Copy, Debug)]
pub struct BroadcastOpts {
    /// In-flight ring blocks (backpressure bound).
    pub ring_capacity: usize,
    /// Updates per ring block (transport granularity; answers are
    /// identical for any value).
    pub ring_block: usize,
    /// Injected thread/pinning policy (answers are identical under
    /// every policy).
    pub policy: ExecPolicy,
}

impl Default for BroadcastOpts {
    fn default() -> Self {
        BroadcastOpts {
            ring_capacity: sgs_stream::broadcast::DEFAULT_RING_CAPACITY,
            ring_block: sgs_stream::broadcast::DEFAULT_RING_BLOCK,
            policy: ExecPolicy::default(),
        }
    }
}

impl BroadcastOpts {
    /// Default geometry under an explicit [`ExecPolicy`].
    pub fn with_policy(policy: ExecPolicy) -> Self {
        BroadcastOpts {
            policy,
            ..BroadcastOpts::default()
        }
    }
}

/// Filter one ring block down to shard `sid`'s deliveries — the cached
/// owner/other fields make this two compares per update, no hashing.
pub(crate) fn filter_block(block: &[RoutedUpdate], sid: usize, scratch: &mut Vec<ShardUpdate>) {
    scratch.clear();
    for r in block {
        if let Some(su) = r.delivery_for(sid) {
            scratch.push(su);
        }
    }
}

/// Drive one pass over one scoped broadcast ring: producer + one shard
/// machine per slot + side sinks — threaded (blocking API, scoped
/// threads) or cooperative (try-API round-robin on this thread).
/// Identical answers either way; shard order is preserved in the
/// returned outcomes. Producer stalls past [`STALL_THRESHOLD`] are
/// appended to `stalls` (solo callers ignore them).
///
/// Each outcome carries its shard's feed time: under the threaded
/// schedule its drain wall time (ring waits included), under the
/// cooperative schedule only its own processing segments.
pub(crate) fn run_ring(
    feed: &ShardedFeed,
    slots: &mut [ShardSlot],
    setup: &PassSetup,
    bcast: BroadcastOpts,
    side: &mut [SideSink<'_>],
    stalls: &mut Vec<StallEvent>,
) -> Vec<ShardOutcome> {
    let shards = slots.len();
    let ring = Broadcast::with_stall_threshold(bcast.ring_capacity, STALL_THRESHOLD);
    let shard_consumers: Vec<BroadcastConsumer> = (0..shards).map(|_| ring.subscribe()).collect();
    let side_consumers: Vec<BroadcastConsumer> = side.iter().map(|_| ring.subscribe()).collect();
    let producer = RoutedProducer::new(feed, bcast.ring_block);
    // The producer is one extra party, so thread policy is decided by
    // the consumer count (>= 2 parties always; the injected policy rules).
    let outcomes = if bcast.policy.use_threads((shards + side.len()).max(2)) {
        let ring = &ring;
        std::thread::scope(|scope| {
            scope.spawn(move || producer.run(ring));
            let side_handles: Vec<_> = side
                .iter_mut()
                .zip(side_consumers)
                .map(|(sink, consumer)| {
                    scope.spawn(move || {
                        for block in consumer {
                            sink(&block);
                        }
                    })
                })
                .collect();
            let shard_handles: Vec<_> = slots
                .iter_mut()
                .zip(shard_consumers)
                .enumerate()
                .map(|(sid, (slot, consumer))| {
                    scope.spawn(move || {
                        let mut pass = PassMachine::new(slot, setup);
                        let t0 = Instant::now();
                        let mut scratch: Vec<ShardUpdate> = Vec::new();
                        for block in consumer {
                            filter_block(&block, sid, &mut scratch);
                            pass.feed(&scratch);
                        }
                        pass.finish(t0.elapsed().as_nanos() as u64)
                    })
                })
                .collect();
            for h in side_handles {
                h.join().unwrap();
            }
            shard_handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        })
    } else {
        let mut producer = producer;
        let mut workers: Vec<(PassMachine<'_>, BroadcastConsumer, bool, u64)> = slots
            .iter_mut()
            .zip(shard_consumers)
            .map(|(slot, c)| (PassMachine::new(slot, setup), c, false, 0u64))
            .collect();
        let mut side_workers: Vec<(&mut SideSink<'_>, BroadcastConsumer, bool)> = side
            .iter_mut()
            .zip(side_consumers)
            .map(|(s, c)| (s, c, false))
            .collect();
        let mut scratch: Vec<ShardUpdate> = Vec::new();
        loop {
            let produced = producer.pump(&ring);
            let mut all_ended = true;
            for (sid, (pass, c, ended, nanos)) in workers.iter_mut().enumerate() {
                let t0 = Instant::now();
                while !*ended {
                    match c.try_next() {
                        TryNext::Block(b) => {
                            filter_block(&b, sid, &mut scratch);
                            pass.feed(&scratch);
                        }
                        TryNext::Pending => break,
                        TryNext::Ended => *ended = true,
                    }
                }
                *nanos += t0.elapsed().as_nanos() as u64;
                all_ended &= *ended;
            }
            for (sink, c, ended) in side_workers.iter_mut() {
                while !*ended {
                    match c.try_next() {
                        TryNext::Block(b) => sink(&b),
                        TryNext::Pending => break,
                        TryNext::Ended => *ended = true,
                    }
                }
                all_ended &= *ended;
            }
            if produced && all_ended {
                break;
            }
        }
        workers
            .into_iter()
            .map(|(p, _, _, nanos)| p.finish(nanos))
            .collect()
    };
    stalls.extend(ring.stall_events());
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::RouterArena;
    use crate::exec::tests::one_shard_pass;
    use crate::exec::PassOpts;
    use crate::multiplex::QuerySet;
    use crate::query::{Answer, Query};
    use crate::round::RoundAdaptive;
    use crate::router::RouterMode;
    use crate::sharded::{answer_batch, Engine};
    use sgs_graph::{gen, VertexId};
    use sgs_stream::reservoir::ReservoirMode;
    use sgs_stream::{InsertionStream, TurnstileStream};

    /// One pass on a scoped ring with default feed options.
    fn ring_pass(
        model: RouterMode,
        batch: &[Query],
        feed: &ShardedFeed,
        pass_seed: u64,
        arena: &mut RouterArena,
        bcast: BroadcastOpts,
        side: &mut [SideSink<'_>],
    ) -> Vec<Answer> {
        let engine = Engine::Ring(bcast, side);
        answer_batch(
            model,
            batch,
            feed,
            pass_seed,
            arena,
            PassOpts::default(),
            engine,
        )
        .0
    }

    fn mixed_insertion_batch() -> Vec<Query> {
        let mut qs = vec![Query::EdgeCount, Query::RandomEdge];
        for v in 0..12u32 {
            qs.push(Query::Degree(VertexId(v % 7)));
            qs.push(Query::RandomNeighbor(VertexId(v)));
            qs.push(Query::Adjacent(VertexId(v), VertexId(v + 1)));
            qs.push(Query::IthNeighbor(VertexId(v), (v as u64 % 4) + 1));
            qs.push(Query::RandomEdge);
        }
        qs
    }

    #[test]
    fn broadcast_insertion_batch_matches_unsharded_all_shard_counts() {
        let g = gen::gnm(25, 90, 117);
        let ins = InsertionStream::from_graph(&g, 118);
        let batch = mixed_insertion_batch();
        for shards in [1usize, 2, 4] {
            let feed = ShardedFeed::partition(&ins, shards);
            let mut arena = RouterArena::new();
            for pass_seed in 0..8u64 {
                let opts = PassOpts::default();
                let a = one_shard_pass(RouterMode::Insertion, &batch, &ins, pass_seed, opts);
                let bcast = BroadcastOpts::default();
                let b = ring_pass(
                    RouterMode::Insertion,
                    &batch,
                    &feed,
                    pass_seed,
                    &mut arena,
                    bcast,
                    &mut [],
                );
                assert_eq!(a, b, "{shards} shards, pass seed {pass_seed}");
            }
        }
    }

    #[test]
    fn broadcast_turnstile_batch_matches_unsharded_all_shard_counts() {
        let g = gen::gnm(25, 90, 119);
        let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 120);
        let mut batch = mixed_insertion_batch();
        batch.retain(|q| !matches!(q, Query::IthNeighbor(..)));
        for shards in [1usize, 2, 4] {
            let feed = ShardedFeed::partition(&tst, shards);
            let mut arena = RouterArena::new();
            for pass_seed in 0..5u64 {
                let opts = PassOpts::default();
                let a = one_shard_pass(RouterMode::Turnstile, &batch, &tst, pass_seed, opts);
                let bcast = BroadcastOpts::default();
                let b = ring_pass(
                    RouterMode::Turnstile,
                    &batch,
                    &feed,
                    pass_seed,
                    &mut arena,
                    bcast,
                    &mut [],
                );
                assert_eq!(a, b, "{shards} shards, pass seed {pass_seed}");
            }
        }
    }

    #[test]
    fn threaded_and_cooperative_schedules_agree() {
        // Both ring schedules (blocking threads vs cooperative
        // round-robin) must produce identical answers; the injected
        // ExecPolicy forces each one directly — no env mutation.
        let g = gen::gnm(20, 70, 123);
        let ins = InsertionStream::from_graph(&g, 124);
        let batch = mixed_insertion_batch();
        let expected = one_shard_pass(RouterMode::Insertion, &batch, &ins, 5, PassOpts::default());
        let feed = ShardedFeed::partition(&ins, 3);
        let mut arena = RouterArena::new();
        for policy in [ExecPolicy::threaded(), ExecPolicy::serial()] {
            let bcast = BroadcastOpts::with_policy(policy);
            let got = ring_pass(
                RouterMode::Insertion,
                &batch,
                &feed,
                5,
                &mut arena,
                bcast,
                &mut [],
            );
            assert_eq!(got, expected, "{policy:?}");
        }
    }

    #[test]
    fn side_sinks_see_the_whole_stream_once_and_answers_are_unchanged() {
        let g = gen::gnm(22, 80, 125);
        let ins = InsertionStream::from_graph(&g, 126);
        let batch = mixed_insertion_batch();
        let feed = ShardedFeed::partition(&ins, 2);
        let mut arena = RouterArena::new();
        let expected = one_shard_pass(RouterMode::Insertion, &batch, &ins, 9, PassOpts::default());
        let mut seen: Vec<RoutedUpdate> = Vec::new();
        let mut count = 0u64;
        {
            let mut sinks: Vec<SideSink<'_>> = vec![
                Box::new(|b: &[RoutedUpdate]| seen.extend_from_slice(b)),
                Box::new(|b: &[RoutedUpdate]| count += b.len() as u64),
            ];
            let bcast = BroadcastOpts::default();
            let got = ring_pass(
                RouterMode::Insertion,
                &batch,
                &feed,
                9,
                &mut arena,
                bcast,
                &mut sinks,
            );
            assert_eq!(got, expected);
        }
        assert_eq!(seen, feed.routed());
        assert_eq!(count, feed.stream_len() as u64);
    }

    #[test]
    fn run_broadcast_counts_one_logical_pass_per_round_and_feeds_sides_once() {
        // A 2-round protocol: sides must see exactly one stream copy
        // (pass 1), and the feed must count one logical pass per round.
        struct TwoRounds {
            round: usize,
        }
        impl RoundAdaptive for TwoRounds {
            type Output = ();
            fn next_round(&mut self, _a: &[Answer]) -> Vec<Query> {
                self.round += 1;
                if self.round <= 2 {
                    vec![Query::EdgeCount]
                } else {
                    Vec::new()
                }
            }
            fn output(&mut self) {}
        }
        let g = gen::gnm(18, 60, 127);
        let ins = InsertionStream::from_graph(&g, 128);
        let feed = ShardedFeed::partition(&ins, 2);
        let mut arena = RouterArena::new();
        let mut sides_updates = 0u64;
        {
            let mut sinks: Vec<SideSink<'_>> = vec![Box::new(|b: &[RoutedUpdate]| {
                sides_updates += b.len() as u64
            })];
            let engine = Engine::Ring(BroadcastOpts::default(), &mut sinks);
            let (_, report) = QuerySet::solo(TwoRounds { round: 0 }, 7, ReservoirMode::default())
                .run(
                    RouterMode::Insertion,
                    &feed,
                    &mut arena,
                    PassOpts::default(),
                    engine,
                )
                .into_solo();
            assert_eq!(report.rounds, 2);
            assert_eq!(report.passes, 2);
        }
        assert_eq!(feed.logical_passes(), 2, "one logical pass per round");
        assert_eq!(
            sides_updates,
            feed.stream_len() as u64,
            "side consumers ride the first pass only"
        );
    }

    #[test]
    fn zero_shard_side_only_ring_is_fine_with_empty_stream() {
        // Degenerate but legal: an empty stream broadcast to consumers.
        let ins = InsertionStream::from_edge_order(4, vec![]);
        let feed = ShardedFeed::partition(&ins, 2);
        let mut arena = RouterArena::new();
        let batch = vec![Query::EdgeCount, Query::RandomEdge];
        let bcast = BroadcastOpts::default();
        let a = ring_pass(
            RouterMode::Insertion,
            &batch,
            &feed,
            3,
            &mut arena,
            bcast,
            &mut [],
        );
        assert_eq!(a[0], Answer::EdgeCount(0));
        assert_eq!(a[1], Answer::Edge(None));
    }
}
