//! Broadcast pass execution: one ingest feeds every consumer at once.
//!
//! The sharded executors in [`crate::sharded`] give each shard worker a
//! private replay of its buffer. This module routes the same per-shard
//! pass state machines ([`InsertionShardPass`] / [`TurnstileShardPass`])
//! through a bounded [`Broadcast`] ring instead: **one producer** pushes
//! the feed's routed buffer in blocks, and every consumer — the N shard
//! routers *plus* any number of side consumers (baselines, exact
//! oracles, pass counters) — walks the blocks through its own cursor.
//!
//! **Equivalence.** A shard consumer reconstructs exactly its scoped
//! buffer from the ring: every [`RoutedUpdate`] carries the owner/other
//! shard ids cached at partition (buffer-fill) time, so
//! `delivery_for(shard)` yields the same `ShardUpdate` sequence —
//! positions, owned flags, order — that `ShardedFeed::shard(i)` stores,
//! with zero hash recomputes at the cursor. Delivery chunking differs
//! (ring blocks vs one big slice) but chunk boundaries never change an
//! answer, so broadcast answers are **byte-identical** to the sharded
//! (and therefore single-stream, and therefore frozen-reference) answers
//! for every seed, shard count, feed block size, and reservoir mode —
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
//! ring through the try-APIs. The round-loop executors
//! ([`run_insertion_broadcast_with_opts`] and its turnstile sibling)
//! additionally keep a persistent [`crate::runtime::ShardRuntime`] pool
//! under the threaded policy, feeding the *same* workers pass after
//! pass instead of respawning scoped threads per round. All schedules
//! produce identical answers — every consumer sees the whole stream in
//! order either way.

use crate::accounting::ExecReport;
use crate::arena::{RouterArena, ShardSlot};
use crate::exec::{PassOpts, ANSWER_BYTES};
use crate::policy::ExecPolicy;
use crate::query::{Answer, Query};
use crate::round::RoundAdaptive;
use crate::router::RouterMode;
use crate::sharded::{
    draw_targets, merge_answers, split_batch, InsertionShardPass, ShardOutcome, TurnstileShardPass,
};
use sgs_stream::broadcast::{Broadcast, BroadcastConsumer, RoutedProducer, TryNext};
use sgs_stream::hash::split_seed;
use sgs_stream::sharded::{RoutedUpdate, ShardUpdate, ShardedFeed};
use std::time::Instant;

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

/// The shard-pass operations the generic ring driver needs; both
/// model-specific state machines expose exactly this surface.
trait RingPass: Send {
    fn feed(&mut self, deliveries: &[ShardUpdate]);
    fn record_pass_nanos(&mut self, nanos: u64);
    fn finish(self) -> ShardOutcome
    where
        Self: Sized;
}

impl RingPass for InsertionShardPass<'_> {
    fn feed(&mut self, deliveries: &[ShardUpdate]) {
        InsertionShardPass::feed(self, deliveries);
    }
    fn record_pass_nanos(&mut self, nanos: u64) {
        InsertionShardPass::record_pass_nanos(self, nanos);
    }
    fn finish(self) -> ShardOutcome {
        InsertionShardPass::finish(self)
    }
}

impl RingPass for TurnstileShardPass<'_> {
    fn feed(&mut self, deliveries: &[ShardUpdate]) {
        TurnstileShardPass::feed(self, deliveries);
    }
    fn record_pass_nanos(&mut self, nanos: u64) {
        TurnstileShardPass::record_pass_nanos(self, nanos);
    }
    fn finish(self) -> ShardOutcome {
        TurnstileShardPass::finish(self)
    }
}

/// Drive one broadcast pass: producer + per-shard pass machines + side
/// sinks over one ring — threaded (blocking API, scoped threads) or
/// cooperative (try-API round-robin on this thread). Identical answers
/// either way; shard order is preserved in the returned outcomes.
///
/// Per-shard feed durations land in the arena slots just like the
/// scoped-thread path records them (so `RouterArena::shard_pass_nanos`
/// keeps working on the serving path), with one caveat: under the
/// threaded schedule a shard's figure is its drain wall time (ring
/// waits included), under the cooperative schedule only its own
/// processing segments.
fn drive_ring<P: RingPass>(
    feed: &ShardedFeed,
    passes: Vec<P>,
    bcast: BroadcastOpts,
    side: &mut [SideSink<'_>],
) -> Vec<ShardOutcome> {
    let shards = passes.len();
    let ring = Broadcast::new(bcast.ring_capacity);
    let shard_consumers: Vec<BroadcastConsumer> = (0..shards).map(|_| ring.subscribe()).collect();
    let side_consumers: Vec<BroadcastConsumer> = side.iter().map(|_| ring.subscribe()).collect();
    let producer = RoutedProducer::new(feed, bcast.ring_block);
    // The producer is one extra party, so thread policy is decided by
    // the consumer count (>= 2 parties always; the injected policy rules).
    if bcast.policy.use_threads((shards + side.len()).max(2)) {
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
            let shard_handles: Vec<_> = passes
                .into_iter()
                .zip(shard_consumers)
                .enumerate()
                .map(|(sid, (mut pass, consumer))| {
                    scope.spawn(move || {
                        let t0 = Instant::now();
                        let mut scratch: Vec<ShardUpdate> = Vec::new();
                        for block in consumer {
                            filter_block(&block, sid, &mut scratch);
                            pass.feed(&scratch);
                        }
                        pass.record_pass_nanos(t0.elapsed().as_nanos() as u64);
                        pass.finish()
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
        let mut workers: Vec<(P, BroadcastConsumer, bool, u64)> = passes
            .into_iter()
            .zip(shard_consumers)
            .map(|(p, c)| (p, c, false, 0u64))
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
            .map(|(mut p, _, _, nanos)| {
                p.record_pass_nanos(nanos);
                p.finish()
            })
            .collect()
    }
}

/// One insertion-model broadcast pass through [`drive_ring`].
fn run_insertion_broadcast_pass(
    feed: &ShardedFeed,
    slots: &mut [ShardSlot],
    targets: &[(u64, u32)],
    pass_seed: u64,
    opts: PassOpts,
    bcast: BroadcastOpts,
    side: &mut [SideSink<'_>],
) -> Vec<ShardOutcome> {
    let passes: Vec<InsertionShardPass<'_>> = slots
        .iter_mut()
        .map(|slot| InsertionShardPass::new(slot, targets, pass_seed, opts))
        .collect();
    drive_ring(feed, passes, bcast, side)
}

/// One turnstile-model broadcast pass through [`drive_ring`].
fn run_turnstile_broadcast_pass(
    feed: &ShardedFeed,
    slots: &mut [ShardSlot],
    f1_slots: &[u32],
    pass_seed: u64,
    opts: PassOpts,
    bcast: BroadcastOpts,
    side: &mut [SideSink<'_>],
) -> Vec<ShardOutcome> {
    let n = feed.num_vertices();
    let bank_threads = bcast.policy.bank_threads(slots.len());
    let passes: Vec<TurnstileShardPass<'_>> = slots
        .iter_mut()
        .map(|slot| TurnstileShardPass::new(slot, n, f1_slots, pass_seed, opts, bank_threads))
        .collect();
    drive_ring(feed, passes, bcast, side)
}

/// Answer one round's batch with one **broadcast** insertion-only pass:
/// the fan-out generalization of
/// [`crate::sharded::answer_insertion_batch_sharded`], byte-identical to
/// it (and to the single-stream executors) for every shard count, with
/// optional side consumers riding the same ingest.
pub fn answer_insertion_batch_broadcast(
    batch: &[Query],
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
) -> (Vec<Answer>, usize) {
    answer_insertion_batch_broadcast_with_opts(
        batch,
        feed,
        pass_seed,
        arena,
        PassOpts::default(),
        BroadcastOpts::default(),
        &mut [],
    )
}

/// [`answer_insertion_batch_broadcast`] with explicit feed-path options,
/// ring geometry, and side consumers.
pub fn answer_insertion_batch_broadcast_with_opts(
    batch: &[Query],
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    bcast: BroadcastOpts,
    side: &mut [SideSink<'_>],
) -> (Vec<Answer>, usize) {
    let shards = feed.num_shards();
    split_batch(batch, RouterMode::Insertion, feed.shard_map(), arena);
    let mut targets = std::mem::take(&mut arena.scratch_targets);
    draw_targets(batch, feed.stream_len() as u64, pass_seed, &mut targets);
    let outcomes = {
        let slots = &mut arena.slots[..shards];
        let targets = &targets;
        run_insertion_broadcast_pass(feed, slots, targets, pass_seed, opts, bcast, side)
    };
    let space = outcomes.iter().map(|o| o.space_bytes).sum::<usize>() + targets.len() * 16;
    arena.scratch_targets = targets;
    let answers = merge_answers(batch.len(), feed, arena, shards, &outcomes);
    (answers, space)
}

/// Answer one round's batch with one **broadcast** turnstile pass.
pub fn answer_turnstile_batch_broadcast(
    batch: &[Query],
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
) -> (Vec<Answer>, usize) {
    answer_turnstile_batch_broadcast_with_opts(
        batch,
        feed,
        pass_seed,
        arena,
        PassOpts::default(),
        BroadcastOpts::default(),
        &mut [],
    )
}

/// [`answer_turnstile_batch_broadcast`] with explicit feed-path options
/// ([`PassOpts`]: block size + ℓ₀ feed path), ring geometry, and side
/// consumers.
pub fn answer_turnstile_batch_broadcast_with_opts(
    batch: &[Query],
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    bcast: BroadcastOpts,
    side: &mut [SideSink<'_>],
) -> (Vec<Answer>, usize) {
    let shards = feed.num_shards();
    split_batch(batch, RouterMode::Turnstile, feed.shard_map(), arena);
    let f1_slots = std::mem::take(&mut arena.scratch_edge);
    let mut outcomes = {
        let slots = &mut arena.slots[..shards];
        run_turnstile_broadcast_pass(feed, slots, &f1_slots, pass_seed, opts, bcast, side)
    };
    let space = outcomes.iter().map(|o| o.space_bytes).sum::<usize>();
    // Merge the per-shard f1 banks into shard 0's (linear sketches):
    // the result is the exact single-stream sketch state.
    let (head, rest) = outcomes.split_at_mut(1);
    for o in rest.iter() {
        for (a, b) in head[0].f1_bank.iter_mut().zip(&o.f1_bank) {
            a.merge(b);
        }
    }
    let mut answers = merge_answers(batch.len(), feed, arena, shards, &outcomes);
    for (&slot, s) in f1_slots.iter().zip(&outcomes[0].f1_bank) {
        answers[slot as usize] = Answer::Edge(s.sample().map(sgs_graph::Edge::from_key));
    }
    arena.scratch_edge = f1_slots;
    (answers, space)
}

/// Execute a round-adaptive algorithm over broadcast passes: one ring
/// session per round. Side consumers ride the **first** pass only (they
/// are single-pass algorithms and must see the stream exactly once —
/// the same one replay their single-stream counterparts get).
pub fn run_insertion_broadcast<A: RoundAdaptive>(
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    side: &mut [SideSink<'_>],
) -> (A::Output, ExecReport) {
    run_insertion_broadcast_with_opts(
        alg,
        feed,
        seed,
        arena,
        PassOpts::default(),
        BroadcastOpts::default(),
        side,
    )
}

/// [`run_insertion_broadcast`] with explicit feed-path options and ring
/// geometry.
pub fn run_insertion_broadcast_with_opts<A: RoundAdaptive>(
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    bcast: BroadcastOpts,
    side: &mut [SideSink<'_>],
) -> (A::Output, ExecReport) {
    let shards = feed.num_shards();
    // Threaded policy: stand up the persistent worker pool once and
    // feed it every round — no per-pass thread spawns on the hot path.
    let mut runtime = bcast
        .policy
        .use_threads((shards + side.len()).max(2))
        .then(|| crate::runtime::ShardRuntime::new(shards, bcast.policy));
    run_insertion_rounds(alg, feed, seed, arena, opts, bcast, side, runtime.as_mut())
}

/// [`run_insertion_broadcast_with_opts`] on a caller-owned persistent
/// [`ShardRuntime`] — the serving path, where one long-lived worker
/// pool answers every query instead of standing up threads per run.
/// Byte-identical to the internally-pooled run: both dispatch the same
/// `insertion_pass` per round. The runtime's shard count must match
/// the feed's.
#[allow(clippy::too_many_arguments)]
pub fn run_insertion_broadcast_on_runtime<A: RoundAdaptive>(
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    bcast: BroadcastOpts,
    side: &mut [SideSink<'_>],
    runtime: &mut crate::runtime::ShardRuntime,
) -> (A::Output, ExecReport) {
    assert_eq!(
        runtime.shards(),
        feed.num_shards(),
        "runtime pool and feed must agree on the shard count"
    );
    run_insertion_rounds(alg, feed, seed, arena, opts, bcast, side, Some(runtime))
}

#[allow(clippy::too_many_arguments)]
fn run_insertion_rounds<A: RoundAdaptive>(
    mut alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    bcast: BroadcastOpts,
    side: &mut [SideSink<'_>],
    mut runtime: Option<&mut crate::runtime::ShardRuntime>,
) -> (A::Output, ExecReport) {
    let mut report = ExecReport::default();
    arena.begin_run();
    let mut answers: Vec<Answer> = Vec::new();
    loop {
        let batch = alg.next_round(&answers);
        if batch.is_empty() {
            break;
        }
        report.rounds += 1;
        report.passes += 1;
        report.queries += batch.len();
        report.answer_bytes += batch.len() * ANSWER_BYTES;
        let pass_seed = split_seed(seed, report.passes as u64);
        let side_now: &mut [SideSink<'_>] = if report.passes == 1 { side } else { &mut [] };
        let (a, space) = match runtime.as_deref_mut() {
            Some(rt) => rt.insertion_pass(&batch, feed, pass_seed, arena, opts, bcast, side_now),
            None => answer_insertion_batch_broadcast_with_opts(
                &batch, feed, pass_seed, arena, opts, bcast, side_now,
            ),
        };
        report.max_pass_space_bytes = report.max_pass_space_bytes.max(space);
        answers = a;
        arena.note_round();
    }
    arena.end_run();
    (alg.output(), report)
}

/// Turnstile sibling of [`run_insertion_broadcast`].
pub fn run_turnstile_broadcast<A: RoundAdaptive>(
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    side: &mut [SideSink<'_>],
) -> (A::Output, ExecReport) {
    run_turnstile_broadcast_with_opts(
        alg,
        feed,
        seed,
        arena,
        PassOpts::default(),
        BroadcastOpts::default(),
        side,
    )
}

/// [`run_turnstile_broadcast`] with explicit feed-path options and ring
/// geometry.
pub fn run_turnstile_broadcast_with_opts<A: RoundAdaptive>(
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    bcast: BroadcastOpts,
    side: &mut [SideSink<'_>],
) -> (A::Output, ExecReport) {
    let shards = feed.num_shards();
    // See run_insertion_broadcast_with_opts: one persistent pool per run.
    let mut runtime = bcast
        .policy
        .use_threads((shards + side.len()).max(2))
        .then(|| crate::runtime::ShardRuntime::new(shards, bcast.policy));
    run_turnstile_rounds(alg, feed, seed, arena, opts, bcast, side, runtime.as_mut())
}

/// Turnstile sibling of [`run_insertion_broadcast_on_runtime`].
#[allow(clippy::too_many_arguments)]
pub fn run_turnstile_broadcast_on_runtime<A: RoundAdaptive>(
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    bcast: BroadcastOpts,
    side: &mut [SideSink<'_>],
    runtime: &mut crate::runtime::ShardRuntime,
) -> (A::Output, ExecReport) {
    assert_eq!(
        runtime.shards(),
        feed.num_shards(),
        "runtime pool and feed must agree on the shard count"
    );
    run_turnstile_rounds(alg, feed, seed, arena, opts, bcast, side, Some(runtime))
}

#[allow(clippy::too_many_arguments)]
fn run_turnstile_rounds<A: RoundAdaptive>(
    mut alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    bcast: BroadcastOpts,
    side: &mut [SideSink<'_>],
    mut runtime: Option<&mut crate::runtime::ShardRuntime>,
) -> (A::Output, ExecReport) {
    let mut report = ExecReport::default();
    arena.begin_run();
    let mut answers: Vec<Answer> = Vec::new();
    loop {
        let batch = alg.next_round(&answers);
        if batch.is_empty() {
            break;
        }
        report.rounds += 1;
        report.passes += 1;
        report.queries += batch.len();
        report.answer_bytes += batch.len() * ANSWER_BYTES;
        let pass_seed = split_seed(seed, report.passes as u64);
        let side_now: &mut [SideSink<'_>] = if report.passes == 1 { side } else { &mut [] };
        let (a, space) = match runtime.as_deref_mut() {
            Some(rt) => rt.turnstile_pass(&batch, feed, pass_seed, arena, opts, bcast, side_now),
            None => answer_turnstile_batch_broadcast_with_opts(
                &batch, feed, pass_seed, arena, opts, bcast, side_now,
            ),
        };
        report.max_pass_space_bytes = report.max_pass_space_bytes.max(space);
        answers = a;
        arena.note_round();
    }
    arena.end_run();
    (alg.output(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{answer_insertion_batch, answer_turnstile_batch};
    use sgs_graph::{gen, VertexId};
    use sgs_stream::{InsertionStream, TurnstileStream};

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
                let (a, _) = answer_insertion_batch(&batch, &ins, pass_seed);
                let (b, _) = answer_insertion_batch_broadcast(&batch, &feed, pass_seed, &mut arena);
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
                let (a, _) = answer_turnstile_batch(&batch, &tst, pass_seed);
                let (b, _) = answer_turnstile_batch_broadcast(&batch, &feed, pass_seed, &mut arena);
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
        let (expected, _) = answer_insertion_batch(&batch, &ins, 5);
        let feed = ShardedFeed::partition(&ins, 3);
        let mut arena = RouterArena::new();
        for policy in [ExecPolicy::threaded(), ExecPolicy::serial()] {
            let (got, _) = answer_insertion_batch_broadcast_with_opts(
                &batch,
                &feed,
                5,
                &mut arena,
                PassOpts::default(),
                BroadcastOpts::with_policy(policy),
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
        let (expected, _) = answer_insertion_batch(&batch, &ins, 9);
        let mut seen: Vec<RoutedUpdate> = Vec::new();
        let mut count = 0u64;
        {
            let mut sinks: Vec<SideSink<'_>> = vec![
                Box::new(|b: &[RoutedUpdate]| seen.extend_from_slice(b)),
                Box::new(|b: &[RoutedUpdate]| count += b.len() as u64),
            ];
            let (got, _) = answer_insertion_batch_broadcast_with_opts(
                &batch,
                &feed,
                9,
                &mut arena,
                PassOpts::default(),
                BroadcastOpts::default(),
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
            let (_, report) =
                run_insertion_broadcast(TwoRounds { round: 0 }, &feed, 7, &mut arena, &mut sinks);
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
        let (a, _) = answer_insertion_batch_broadcast(&batch, &feed, 3, &mut arena);
        assert_eq!(a[0], Answer::EdgeCount(0));
        assert_eq!(a[1], Answer::Edge(None));
    }
}
