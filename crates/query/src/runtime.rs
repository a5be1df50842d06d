//! The **ShardRuntime**: persistent, optionally core-pinned shard
//! workers fed pass after pass through the broadcast ring.
//!
//! The scoped engines in [`crate::sharded`] and [`crate::broadcast`]
//! spawn fresh worker threads for every pass. That is correct and
//! simple, but on the hot serving path a multi-round run pays thread
//! spawn/join, first-touch page faults, and cold per-shard state once
//! *per pass*. This module keeps one long-lived worker per shard for the
//! lifetime of a run:
//!
//! * **Workers own their slot.** Each worker thread owns a
//!   [`ShardSlot`] — router, sub-batch, scratch — so every rebuild and
//!   feed of a shard's state happens on the same thread (and, when
//!   [`ExecPolicy::pin`] is set, the same core) for arena/allocation
//!   affinity. The driver's [`RouterArena`] keeps only the split/merge
//!   scratch plus telemetry.
//! * **Ping-pong buffers, no per-pass allocation.** A pass sends each
//!   worker its `sub_batch`/`slot_map` vectors by value and gets them
//!   back (with the answers) in the reply, so the buffers shuttle
//!   between driver and worker without reallocating once warm. The
//!   pass's shared setup — the round plan's per-participant data and
//!   the drawn `f1` targets — rides one `Arc`.
//! * **The ring is the feed.** Every pass opens one
//!   [`Broadcast`] session: workers drain their cursors through the
//!   blocking iterator; the driver pumps the producer — and any
//!   non-`'static` side sinks, which cannot cross into the persistent
//!   workers — cooperatively through the try-APIs, so it never blocks
//!   while a sink still needs draining.
//! * **Byte-identical answers.** The workers run the *same* shard
//!   machines ([`PassMachine`]) over the same per-shard delivery
//!   sequences, through the same split → machines → merge step
//!   ([`run_pass`]); scheduling (and pinning) decides where the work
//!   runs, never what it computes. `tests/broadcast_equivalence.rs`
//!   pins the persistent path against the single-stream executors.
//!
//! [`crate::broadcast::run_insertion_broadcast_with_opts`] and its
//! turnstile sibling construct one runtime per run whenever the
//! injected policy threads, so round-adaptive algorithms reuse the same
//! workers across all their rounds; `sgs serve` keeps one per node.

use crate::arena::{RouterArena, ShardSlot};
use crate::broadcast::{filter_block, BroadcastOpts, SideSink};
use crate::exec::PassOpts;
use crate::policy::{host_cores, pin_current_thread, ExecPolicy};
use crate::query::{Answer, Query};
use crate::router::RouterMode;
use crate::sharded::{solo_pass, PassEngine, PassMachine, PassSetup, ShardOutcome};
use sgs_stream::broadcast::{Broadcast, BroadcastConsumer, RoutedProducer, TryNext};
use sgs_stream::sharded::{ShardUpdate, ShardedFeed};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// One pass's worth of work for a worker: the ring cursor to drain plus
/// the pass's shared setup. Buffers arrive by value and return in the
/// [`Reply`] (ping-pong reuse).
struct Task {
    consumer: BroadcastConsumer,
    sub_batch: Vec<Query>,
    slot_map: Vec<u32>,
    setup: Arc<PassSetup>,
}

/// A worker's pass result: the outcome for the merge step (its feed
/// time included) and the answer scatter buffers back for reuse.
struct Reply {
    outcome: ShardOutcome,
    answers: Vec<Answer>,
    sub_batch: Vec<Query>,
    slot_map: Vec<u32>,
}

/// The worker body: pin if asked, then serve passes until the runtime
/// drops its task sender.
fn worker_loop(sid: usize, pin_core: Option<usize>, tasks: Receiver<Task>, replies: Sender<Reply>) {
    if let Some(core) = pin_core {
        // Best-effort placement hint; refusal (non-Linux, restricted
        // containers) changes nothing about the computation.
        let _ = pin_current_thread(core);
    }
    let mut slot = ShardSlot::default();
    let mut scratch: Vec<ShardUpdate> = Vec::new();
    while let Ok(task) = tasks.recv() {
        slot.sub_batch = task.sub_batch;
        slot.slot_map = task.slot_map;
        let t0 = Instant::now();
        let mut pass = PassMachine::new(&mut slot, &task.setup);
        for block in task.consumer {
            filter_block(&block, sid, &mut scratch);
            pass.feed(&scratch);
        }
        let outcome = pass.finish(t0.elapsed().as_nanos() as u64);
        // Release the shared setup before replying, so the driver can
        // take its scratch back.
        drop(task.setup);
        let reply = Reply {
            outcome,
            answers: std::mem::take(&mut slot.answers),
            sub_batch: std::mem::take(&mut slot.sub_batch),
            slot_map: std::mem::take(&mut slot.slot_map),
        };
        if replies.send(reply).is_err() {
            break;
        }
    }
}

/// A persistent pool of per-shard broadcast workers: spawn once, run
/// any number of passes, drop to shut down. See the module docs.
pub struct ShardRuntime {
    shards: usize,
    tasks: Vec<Sender<Task>>,
    replies: Vec<Receiver<Reply>>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardRuntime {
    /// Spawn one worker per shard. With `policy.pin`, worker `i` binds
    /// itself to core `i mod host_cores()` (Linux, best-effort).
    pub fn new(shards: usize, policy: ExecPolicy) -> Self {
        let shards = shards.max(1);
        let cores = host_cores();
        let mut tasks = Vec::with_capacity(shards);
        let mut replies = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for sid in 0..shards {
            let (task_tx, task_rx) = channel::<Task>();
            let (reply_tx, reply_rx) = channel::<Reply>();
            let pin_core = policy.pin.then_some(sid % cores);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sgs-shard-{sid}"))
                    .spawn(move || worker_loop(sid, pin_core, task_rx, reply_tx))
                    .expect("spawn shard worker"),
            );
            tasks.push(task_tx);
            replies.push(reply_rx);
        }
        ShardRuntime {
            shards,
            tasks,
            replies,
            handles,
        }
    }

    /// Number of persistent workers.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Drive one ring session: the workers already hold their tasks
    /// (cursors included); the driver pushes the stream and drains the
    /// side sinks without ever blocking on the ring.
    fn drive(
        &self,
        feed: &ShardedFeed,
        ring: &Broadcast,
        block: usize,
        side: &mut [SideSink<'_>],
        side_consumers: Vec<BroadcastConsumer>,
    ) {
        let producer = RoutedProducer::new(feed, block);
        if side.is_empty() {
            // Nothing else to serve on this thread: the blocking
            // producer path parks politely under backpressure.
            producer.run(ring);
            return;
        }
        let mut producer = producer;
        let mut side_workers: Vec<(&mut SideSink<'_>, BroadcastConsumer, bool)> = side
            .iter_mut()
            .zip(side_consumers)
            .map(|(s, c)| (s, c, false))
            .collect();
        loop {
            let produced = producer.pump(ring);
            let mut all_ended = true;
            let mut progressed = false;
            for (sink, c, ended) in side_workers.iter_mut() {
                while !*ended {
                    match c.try_next() {
                        TryNext::Block(b) => {
                            sink(&b);
                            progressed = true;
                        }
                        TryNext::Pending => break,
                        TryNext::Ended => *ended = true,
                    }
                }
                all_ended &= *ended;
            }
            if produced && all_ended {
                break;
            }
            if !progressed {
                // Ring full and sinks starved: the shard workers hold
                // the slow cursors — give them the core.
                std::thread::yield_now();
            }
        }
    }

    /// Run one pass's shard machines on the workers: hand each its
    /// sub-batch and cursor, drive the ring, then collect the replies in
    /// shard order, re-installing the ping-pong buffers into the arena
    /// so the shared merge works unchanged. Returns the setup for the
    /// merge step.
    pub(crate) fn run(
        &mut self,
        feed: &ShardedFeed,
        arena: &mut RouterArena,
        setup: PassSetup,
        bcast: BroadcastOpts,
        side: &mut [SideSink<'_>],
    ) -> (Vec<ShardOutcome>, PassSetup) {
        assert_eq!(
            feed.num_shards(),
            self.shards,
            "runtime sized for a different shard count"
        );
        let setup = Arc::new(setup);
        let ring = Broadcast::new(bcast.ring_capacity);
        let shard_consumers: Vec<BroadcastConsumer> =
            (0..self.shards).map(|_| ring.subscribe()).collect();
        let side_consumers: Vec<BroadcastConsumer> =
            side.iter().map(|_| ring.subscribe()).collect();
        for (sid, consumer) in shard_consumers.into_iter().enumerate() {
            let slot = &mut arena.slots[sid];
            self.tasks[sid]
                .send(Task {
                    consumer,
                    sub_batch: std::mem::take(&mut slot.sub_batch),
                    slot_map: std::mem::take(&mut slot.slot_map),
                    setup: setup.clone(),
                })
                .expect("shard worker gone");
        }
        self.drive(feed, &ring, bcast.ring_block, side, side_consumers);
        let mut outcomes = Vec::with_capacity(self.shards);
        for (sid, rx) in self.replies.iter().enumerate() {
            let r = rx
                .recv()
                .unwrap_or_else(|_| panic!("shard worker {sid} died mid-pass"));
            let slot = &mut arena.slots[sid];
            slot.answers = r.answers;
            slot.sub_batch = r.sub_batch;
            slot.slot_map = r.slot_map;
            outcomes.push(r.outcome);
        }
        (outcomes, Arc::unwrap_or_clone(setup))
    }

    /// One insertion-model broadcast pass over the persistent workers —
    /// byte-identical to
    /// [`crate::broadcast::answer_insertion_batch_broadcast_with_opts`]
    /// (and therefore to the single-stream executors) for every shard
    /// count, ring geometry, and placement.
    #[allow(clippy::too_many_arguments)]
    pub fn insertion_pass(
        &mut self,
        batch: &[Query],
        feed: &ShardedFeed,
        pass_seed: u64,
        arena: &mut RouterArena,
        opts: PassOpts,
        bcast: BroadcastOpts,
        side: &mut [SideSink<'_>],
    ) -> (Vec<Answer>, usize) {
        let engine = PassEngine::Runtime {
            rt: self,
            bcast,
            side,
        };
        solo_pass(
            RouterMode::Insertion,
            batch,
            feed,
            pass_seed,
            arena,
            opts,
            engine,
        )
    }

    /// One turnstile-model broadcast pass over the persistent workers —
    /// byte-identical to
    /// [`crate::broadcast::answer_turnstile_batch_broadcast_with_opts`].
    #[allow(clippy::too_many_arguments)]
    pub fn turnstile_pass(
        &mut self,
        batch: &[Query],
        feed: &ShardedFeed,
        pass_seed: u64,
        arena: &mut RouterArena,
        opts: PassOpts,
        bcast: BroadcastOpts,
        side: &mut [SideSink<'_>],
    ) -> (Vec<Answer>, usize) {
        let engine = PassEngine::Runtime {
            rt: self,
            bcast,
            side,
        };
        solo_pass(
            RouterMode::Turnstile,
            batch,
            feed,
            pass_seed,
            arena,
            opts,
            engine,
        )
    }
}

impl Drop for ShardRuntime {
    fn drop(&mut self) {
        // Closing the task channels ends every worker loop.
        self.tasks.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{answer_insertion_batch, answer_turnstile_batch};
    use sgs_graph::{gen, VertexId};
    use sgs_stream::sharded::RoutedUpdate;
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
    fn persistent_insertion_passes_match_single_stream_across_rounds() {
        let g = gen::gnm(25, 90, 217);
        let ins = InsertionStream::from_graph(&g, 218);
        let batch = mixed_insertion_batch();
        for shards in [1usize, 2, 4] {
            let feed = ShardedFeed::partition(&ins, shards);
            let mut arena = RouterArena::new();
            // One runtime reused across every seed: the whole point.
            let mut rt = ShardRuntime::new(shards, ExecPolicy::threaded());
            for pass_seed in 0..8u64 {
                let (a, _) = answer_insertion_batch(&batch, &ins, pass_seed);
                let (b, _) = rt.insertion_pass(
                    &batch,
                    &feed,
                    pass_seed,
                    &mut arena,
                    PassOpts::default(),
                    BroadcastOpts::default(),
                    &mut [],
                );
                assert_eq!(a, b, "{shards} shards, pass seed {pass_seed}");
            }
        }
    }

    #[test]
    fn persistent_turnstile_passes_match_single_stream_across_rounds() {
        let g = gen::gnm(25, 90, 219);
        let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 220);
        let mut batch = mixed_insertion_batch();
        batch.retain(|q| !matches!(q, Query::IthNeighbor(..)));
        for shards in [1usize, 2, 4] {
            let feed = ShardedFeed::partition(&tst, shards);
            let mut arena = RouterArena::new();
            let mut rt = ShardRuntime::new(shards, ExecPolicy::threaded());
            for pass_seed in 0..5u64 {
                let (a, _) = answer_turnstile_batch(&batch, &tst, pass_seed);
                let (b, _) = rt.turnstile_pass(
                    &batch,
                    &feed,
                    pass_seed,
                    &mut arena,
                    PassOpts::default(),
                    BroadcastOpts::default(),
                    &mut [],
                );
                assert_eq!(a, b, "{shards} shards, pass seed {pass_seed}");
            }
        }
    }

    #[test]
    fn pinned_runtime_matches_unpinned() {
        let g = gen::gnm(22, 80, 221);
        let ins = InsertionStream::from_graph(&g, 222);
        let batch = mixed_insertion_batch();
        let feed = ShardedFeed::partition(&ins, 3);
        let (expected, _) = answer_insertion_batch(&batch, &ins, 9);
        for policy in [ExecPolicy::threaded(), ExecPolicy::threaded().with_pin()] {
            let mut arena = RouterArena::new();
            let mut rt = ShardRuntime::new(3, policy);
            let (got, _) = rt.insertion_pass(
                &batch,
                &feed,
                9,
                &mut arena,
                PassOpts::default(),
                BroadcastOpts::default(),
                &mut [],
            );
            assert_eq!(got, expected, "{policy:?}");
        }
    }

    #[test]
    fn side_sinks_ride_the_persistent_ring() {
        let g = gen::gnm(22, 80, 223);
        let ins = InsertionStream::from_graph(&g, 224);
        let batch = mixed_insertion_batch();
        let feed = ShardedFeed::partition(&ins, 2);
        let mut arena = RouterArena::new();
        let (expected, _) = answer_insertion_batch(&batch, &ins, 11);
        let mut rt = ShardRuntime::new(2, ExecPolicy::threaded());
        let mut seen: Vec<RoutedUpdate> = Vec::new();
        let mut count = 0u64;
        {
            let mut sinks: Vec<SideSink<'_>> = vec![
                Box::new(|b: &[RoutedUpdate]| seen.extend_from_slice(b)),
                Box::new(|b: &[RoutedUpdate]| count += b.len() as u64),
            ];
            let (got, _) = rt.insertion_pass(
                &batch,
                &feed,
                11,
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
    fn telemetry_lands_in_the_arena_per_pass() {
        let g = gen::gnm(18, 60, 225);
        let ins = InsertionStream::from_graph(&g, 226);
        let feed = ShardedFeed::partition(&ins, 2);
        let mut arena = RouterArena::new();
        let mut rt = ShardRuntime::new(2, ExecPolicy::threaded());
        let batch = mixed_insertion_batch();
        for pass_seed in 0..3u64 {
            let _ = rt.insertion_pass(
                &batch,
                &feed,
                pass_seed,
                &mut arena,
                PassOpts::default(),
                BroadcastOpts::default(),
                &mut [],
            );
        }
        let nanos = arena.shard_pass_nanos();
        assert_eq!(nanos.len(), 2);
        for shard in &nanos {
            assert_eq!(shard.len(), 3, "one telemetry sample per pass per shard");
        }
        assert_eq!(feed.logical_passes(), 3);
    }
}
