//! Sharded pass emulation: per-shard QueryRouters over a hash-partitioned
//! feed, merged back into single-stream answers — *exactly*.
//!
//! One round's merged batch is split by routing key with the same hash
//! the [`ShardedFeed`] partitions updates with: vertex-keyed queries
//! (`f2`, both `f3` forms) go to the shard of their vertex, `f4` goes to
//! the shard of the edge's canonical endpoint, and the two global kinds
//! stay with the driver (`EdgeCount` is answered from the feed's net
//! delta; `f1` position targets are drawn centrally and matched against
//! the global positions each delivery carries). Each shard then rebuilds
//! its pooled router from the [`crate::arena::RouterArena`] and replays
//! only its own buffer.
//!
//! **Equivalence, not approximation.** The sharded pass produces answers
//! byte-identical to the single-stream executors (and therefore to the
//! frozen `crate::reference` oracle) for every fixed seed and any shard
//! count, because nothing about a query's answer depends on updates its
//! shard doesn't see:
//!
//! * a shard receives every update incident to a vertex it owns, in
//!   stream order, so degree counts, watcher arrivals, and neighbor
//!   sampler offer sequences are unchanged;
//! * samplers are seeded by their **global** batch slot
//!   (`split_seed(pass_seed, slot)`), the same coins the single-stream
//!   executors hand out;
//! * `f1` targets are drawn from the pass rng in batch order before any
//!   shard runs — the same draw sequence as a single-stream pass — and
//!   matched by global position (duplicate deliveries record identical
//!   hits);
//! * turnstile `f1` ℓ₀-banks are linear sketches: every shard feeds an
//!   identically-seeded bank with its *owned* deliveries only, and
//!   [`L0Sampler::merge`] reassembles the exact single-stream state.
//!
//! `tests/sharded_equivalence.rs` pins all of this against
//! `sgs_query::reference` for shard counts 1, 2, 4, 7.
//!
//! Execution: one worker per shard under `std::thread::scope` when the
//! injected [`ExecPolicy`] says to thread (default: when the host has
//! more than one core; the `sgs` CLI maps `SGS_SHARD_THREADS=0|1` to a
//! policy at startup — the library never reads the environment);
//! per-shard feed durations are recorded in the arena either way, so
//! `benches/sharded.rs` can report the critical-path (max-shard) pass
//! latency a one-core-per-shard deployment would see.

use crate::accounting::ExecReport;
use crate::arena::{RouterArena, ShardSlot};
use crate::exec::{sort_targets, PassOpts, ANSWER_BYTES};
use crate::policy::ExecPolicy;
use crate::query::{Answer, Query};
use crate::round::RoundAdaptive;
use crate::router::RouterMode;
use sgs_graph::{Edge, VertexId};
use sgs_stream::hash::{split_seed, FastRng};
use sgs_stream::l0::{BankFeed, L0Sampler};
use sgs_stream::persist::{frame, read_frame_of, Decoder, Encoder, PersistResult, KIND_PASS_STATE};
use sgs_stream::reservoir::ReservoirBank;
use sgs_stream::sharded::{ShardMap, ShardUpdate, ShardedFeed};
use sgs_stream::EdgeUpdate;
use std::time::Instant;

/// What one shard reports back to the merge step.
pub(crate) struct ShardOutcome {
    /// `f1` position hits, keyed by **global** slot. Duplicated across
    /// shards when an update was delivered to both endpoints' shards —
    /// duplicates carry identical edges, so merge order is irrelevant.
    pub(crate) edge_hits: Vec<(u32, Edge)>,
    /// Turnstile only: the shard's identically-seeded `f1` ℓ₀-bank over
    /// its owned deliveries, to be merged across shards.
    pub(crate) f1_bank: Vec<L0Sampler>,
    /// Measured sketch/router footprint of this shard's pass state.
    pub(crate) space_bytes: usize,
}

/// Split a batch into per-shard sub-batches (vertex/edge-keyed kinds) and
/// the driver-kept global slot lists (`EdgeCount`, `RandomEdge`). Routing
/// goes through the feed's [`ShardMap`] — the same placement (uniform
/// hash plus any load-balancing overrides) the delivery buffers were
/// built with, which is exactly why placement never changes answers.
pub(crate) fn split_batch(
    batch: &[Query],
    mode: RouterMode,
    map: &ShardMap,
    arena: &mut RouterArena,
) {
    let shards = map.num_shards();
    arena.ensure_shards(shards);
    for slot in &mut arena.slots[..shards] {
        slot.sub_batch.clear();
        slot.slot_map.clear();
    }
    arena.scratch_count.clear();
    arena.scratch_edge.clear();
    for (i, q) in batch.iter().enumerate() {
        let shard = match *q {
            Query::EdgeCount => {
                arena.scratch_count.push(i as u32);
                continue;
            }
            Query::RandomEdge => {
                arena.scratch_edge.push(i as u32);
                continue;
            }
            Query::Degree(v) | Query::RandomNeighbor(v) => map.shard_of(v.0),
            Query::IthNeighbor(v, _) => {
                if mode == RouterMode::Turnstile {
                    panic!(
                        "IthNeighbor is not available in the turnstile model \
                         (Definition 10 replaces it with RandomNeighbor)"
                    );
                }
                map.shard_of(v.0)
            }
            // The canonical endpoint's shard sees every update of this
            // edge (it is an endpoint), so it can answer `f4` alone.
            Query::Adjacent(u, v) => map.shard_of(Edge::new(u, v).u().0),
        };
        let slot = &mut arena.slots[shard];
        slot.sub_batch.push(*q);
        slot.slot_map.push(i as u32);
    }
}

/// Draw the pass's `f1` position targets centrally, in batch order — the
/// exact coin sequence a single-stream pass consumes — then sort by
/// position for cursor matching.
pub(crate) fn draw_targets(
    batch: &[Query],
    stream_len: u64,
    pass_seed: u64,
    targets: &mut Vec<(u64, u32)>,
) {
    targets.clear();
    if stream_len == 0 {
        return;
    }
    let mut rng = FastRng::seed_from_u64(pass_seed);
    for (i, q) in batch.iter().enumerate() {
        if matches!(q, Query::RandomEdge) {
            targets.push((rng.gen_range(0..stream_len), i as u32));
        }
    }
    sort_targets(targets, stream_len);
}

/// One shard's insertion-model pass as a **resumable state machine**:
/// the per-delivery work, decoupled from where deliveries come from.
/// The scoped-thread path feeds it the shard buffer in one call; the
/// broadcast path feeds it ring blocks filtered down to this shard's
/// deliveries as they arrive at the cursor. Delivery *chunking* differs
/// between the two, but chunk boundaries never change an answer (the
/// block-equivalence property), so both paths stay byte-identical to
/// the single-stream executor.
pub(crate) struct InsertionShardPass<'a> {
    slot: &'a mut ShardSlot,
    targets: &'a [(u64, u32)],
    opts: PassOpts,
    reservoirs: ReservoirBank<Edge>,
    edge_hits: Vec<(u32, Edge)>,
    cursor: usize,
    buf: Vec<EdgeUpdate>,
}

impl<'a> InsertionShardPass<'a> {
    /// Rebuild the pooled router and seed the pass state. The
    /// relaxed-f3 reservoir bank is aligned with the shard router's
    /// pooled slots and seeded by *global* batch slot — the
    /// single-stream coins. A neighbor sampler's vertex lives entirely
    /// in this shard, so its offer (and therefore draw) sequence is
    /// exactly the single-stream one in either reservoir mode.
    pub(crate) fn new(
        slot: &'a mut ShardSlot,
        targets: &'a [(u64, u32)],
        pass_seed: u64,
        opts: PassOpts,
    ) -> Self {
        slot.router.rebuild(&slot.sub_batch, RouterMode::Insertion);
        let mut reservoirs: ReservoirBank<Edge> = ReservoirBank::from_seeds(
            slot.router
                .neighbor_slots()
                .iter()
                .map(|&ls| split_seed(pass_seed, slot.slot_map[ls as usize] as u64)),
            opts.reservoir,
        );
        reservoirs.bind_cohorts(slot.router.neighbor_group_ranges());
        InsertionShardPass {
            slot,
            targets,
            opts,
            reservoirs,
            edge_hits: Vec::new(),
            cursor: 0,
            buf: Vec::new(),
        }
    }

    /// Absorb the next run of deliveries (global stream order, possibly
    /// a partial prefix — callable repeatedly).
    pub(crate) fn feed(&mut self, deliveries: &[ShardUpdate]) {
        let block = self.opts.block;
        if block <= 1 {
            for su in deliveries {
                debug_assert!(su.update.is_insert(), "insertion executor fed a deletion");
                let pos = su.position as u64;
                // Skip targets whose position lives in another shard's
                // buffer, then record hits at this global position.
                while self.cursor < self.targets.len() && self.targets[self.cursor].0 < pos {
                    self.cursor += 1;
                }
                while self.cursor < self.targets.len() && self.targets[self.cursor].0 == pos {
                    self.edge_hits
                        .push((self.targets[self.cursor].1, su.update.edge));
                    self.cursor += 1;
                }
                let edge = su.update.edge;
                let res = &mut self.reservoirs;
                self.slot.router.feed(su.update, |s, e| {
                    res.offer_cohort(s as usize, e as usize, edge)
                });
            }
        } else {
            // Blocked path: position targets are matched per delivery
            // (they carry global positions), then each block goes
            // through the router's batched-probe drain.
            let mut buf = std::mem::take(&mut self.buf);
            for chunk in deliveries.chunks(block) {
                buf.clear();
                for su in chunk {
                    debug_assert!(su.update.is_insert(), "insertion executor fed a deletion");
                    let pos = su.position as u64;
                    while self.cursor < self.targets.len() && self.targets[self.cursor].0 < pos {
                        self.cursor += 1;
                    }
                    while self.cursor < self.targets.len() && self.targets[self.cursor].0 == pos {
                        self.edge_hits
                            .push((self.targets[self.cursor].1, su.update.edge));
                        self.cursor += 1;
                    }
                    buf.push(su.update);
                }
                let res = &mut self.reservoirs;
                self.slot.router.feed_block(&buf, |j, s, e| {
                    res.offer_cohort(s as usize, e as usize, buf[j].edge)
                });
            }
            self.buf = buf;
        }
    }

    /// Record this pass's feed duration into the arena slot (the same
    /// telemetry the scoped-thread wrappers record around their one
    /// `feed` call; the broadcast drivers call this before `finish`).
    pub(crate) fn record_pass_nanos(&mut self, nanos: u64) {
        self.slot.pass_nanos.push(nanos);
    }

    /// Serialize the mutable mid-pass state: the reservoir bank (RNG
    /// words included), the `f1` position hits recorded so far, and the
    /// target cursor. The router, targets, and batch are *not* included
    /// — they are rebuilt deterministically by [`InsertionShardPass::new`]
    /// from the round's batch and pass seed, so a restored pass resumes
    /// byte-identically from the snapshot's delivery boundary.
    pub(crate) fn snapshot_state(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u8(0); // model tag: insertion
        self.slot.router.encode_feed_state(&mut enc);
        enc.u64(self.cursor as u64);
        enc.u64(self.edge_hits.len() as u64);
        for &(slot, e) in &self.edge_hits {
            enc.u32(slot);
            enc.edge(e);
        }
        enc.blob(&self.reservoirs.to_persist_bytes());
        frame(KIND_PASS_STATE, &enc.into_bytes())
    }

    /// Restore mid-pass state captured by
    /// [`InsertionShardPass::snapshot_state`] into a freshly built pass
    /// over the same batch, targets, pass seed, and options.
    pub(crate) fn restore_state(&mut self, bytes: &[u8]) -> PersistResult<()> {
        let f = read_frame_of(bytes, 0, KIND_PASS_STATE)?;
        let mut dec = Decoder::new(f.payload);
        if dec.u8("pass model")? != 0 {
            return Err(dec.corrupt("pass state is not an insertion pass"));
        }
        self.slot.router.restore_feed_state(&mut dec)?;
        let cursor = dec.u64("target cursor")? as usize;
        if cursor > self.targets.len() {
            return Err(dec.corrupt(format!(
                "target cursor {cursor} exceeds {} targets",
                self.targets.len()
            )));
        }
        let hits = dec.count(12, "edge hits")?;
        let mut edge_hits = Vec::with_capacity(hits);
        for _ in 0..hits {
            let slot = dec.u32("hit slot")?;
            let e = dec.edge("hit edge")?;
            edge_hits.push((slot, e));
        }
        let res = dec.blob("reservoir bank")?;
        dec.finish()?;
        self.reservoirs.restore_from_persist_bytes(res)?;
        self.edge_hits = edge_hits;
        self.cursor = cursor;
        Ok(())
    }

    /// End of stream: fill shard-local answers and report the outcome.
    pub(crate) fn finish(self) -> ShardOutcome {
        let InsertionShardPass {
            slot,
            reservoirs,
            edge_hits,
            ..
        } = self;
        let space_bytes = slot.router.space_bytes() + reservoirs.space_bytes();
        slot.answers.clear();
        slot.answers
            .resize(slot.sub_batch.len(), Answer::Edge(None));
        for ((&ls, v), res) in slot
            .router
            .neighbor_slots()
            .iter()
            .zip(slot.router.neighbor_vertices())
            .zip(reservoirs.samples_iter())
        {
            slot.answers[ls as usize] = Answer::Neighbor(res.map(|e| e.other(v)));
        }
        slot.router.distribute(&mut slot.answers);
        ShardOutcome {
            edge_hits,
            f1_bank: Vec::new(),
            space_bytes,
        }
    }
}

/// One shard's insertion-model pass over its scoped-thread buffer.
fn run_insertion_shard(
    slot: &mut ShardSlot,
    feed: &ShardedFeed,
    shard_id: usize,
    targets: &[(u64, u32)],
    pass_seed: u64,
    opts: PassOpts,
) -> ShardOutcome {
    let t0 = Instant::now();
    let mut pass = InsertionShardPass::new(&mut *slot, targets, pass_seed, opts);
    pass.feed(feed.shard(shard_id));
    let out = pass.finish();
    slot.pass_nanos.push(t0.elapsed().as_nanos() as u64);
    out
}

/// One shard's turnstile-model pass as a resumable state machine (see
/// [`InsertionShardPass`]).
pub(crate) struct TurnstileShardPass<'a> {
    slot: &'a mut ShardSlot,
    opts: PassOpts,
    /// Threads each `f1` bank sweep may use ([`BankFeed::new`]).
    bank_threads: usize,
    f1_bank: Vec<L0Sampler>,
    nbr_samplers: Vec<L0Sampler>,
    nbr_verts: Vec<VertexId>,
    buf: Vec<EdgeUpdate>,
    owned_kd: Vec<(u64, i64)>,
}

impl<'a> TurnstileShardPass<'a> {
    /// Rebuild the pooled router and seed the sketch banks. Every shard
    /// keeps the full `f1` bank, identically seeded by global slot, and
    /// feeds it *owned* deliveries only: merging the banks across
    /// shards reassembles the exact single-stream sketch state
    /// (ℓ₀-samplers are linear). Each bank sweep may be split over up
    /// to `bank_threads` threads, with the same planes for every count.
    pub(crate) fn new(
        slot: &'a mut ShardSlot,
        num_vertices: usize,
        f1_slots: &[u32],
        pass_seed: u64,
        opts: PassOpts,
        bank_threads: usize,
    ) -> Self {
        slot.router.rebuild(&slot.sub_batch, RouterMode::Turnstile);
        let f1_bank: Vec<L0Sampler> = f1_slots
            .iter()
            .map(|&gs| L0Sampler::for_edge_domain(num_vertices, split_seed(pass_seed, gs as u64)))
            .collect();
        let nbr_samplers: Vec<L0Sampler> = slot
            .router
            .neighbor_slots()
            .iter()
            .map(|&ls| {
                L0Sampler::for_edge_domain(
                    num_vertices,
                    split_seed(pass_seed, slot.slot_map[ls as usize] as u64),
                )
            })
            .collect();
        let nbr_verts: Vec<VertexId> = slot.router.neighbor_vertices().collect();
        TurnstileShardPass {
            slot,
            opts,
            bank_threads,
            f1_bank,
            nbr_samplers,
            nbr_verts,
            buf: Vec::new(),
            owned_kd: Vec::new(),
        }
    }

    /// Absorb the next run of deliveries (callable repeatedly).
    pub(crate) fn feed(&mut self, deliveries: &[ShardUpdate]) {
        let l0 = self.opts.l0;
        if self.opts.block <= 1 {
            for su in deliveries {
                let d = su.update.delta as i64;
                if su.owned {
                    let key = su.update.edge.key();
                    for s in &mut self.f1_bank {
                        s.update_with(l0, key, d);
                    }
                }
                let edge = su.update.edge;
                let samplers = &mut self.nbr_samplers;
                let verts = &self.nbr_verts;
                self.slot.router.feed(su.update, |s, e| {
                    for i in s as usize..e as usize {
                        samplers[i].update_with(l0, edge.other(verts[i]).0 as u64, d);
                    }
                });
            }
        } else {
            // Blocked path: the f1 bank takes the call's *owned*
            // updates through one bank-wide feed, which sweeps it
            // samplers outer per super-block (ℓ₀ planes cache-hot per
            // bank; bit-identical because detector fields are
            // additive), and the router drains each block through its
            // batched probes.
            let mut buf = std::mem::take(&mut self.buf);
            let mut owned_kd = std::mem::take(&mut self.owned_kd);
            let mut f1 = BankFeed::new(&mut self.f1_bank, l0, self.bank_threads);
            for chunk in deliveries.chunks(self.opts.block) {
                buf.clear();
                owned_kd.clear();
                for su in chunk {
                    if su.owned {
                        owned_kd.push((su.update.edge.key(), su.update.delta as i64));
                    }
                    buf.push(su.update);
                }
                f1.push(&owned_kd);
                let samplers = &mut self.nbr_samplers;
                let verts = &self.nbr_verts;
                self.slot.router.feed_block(&buf, |j, s, e| {
                    let u = buf[j];
                    for i in s as usize..e as usize {
                        samplers[i].update_with(
                            l0,
                            u.edge.other(verts[i]).0 as u64,
                            u.delta as i64,
                        );
                    }
                });
            }
            f1.finish();
            self.buf = buf;
            self.owned_kd = owned_kd;
        }
    }

    /// See [`InsertionShardPass::record_pass_nanos`].
    pub(crate) fn record_pass_nanos(&mut self, nanos: u64) {
        self.slot.pass_nanos.push(nanos);
    }

    /// Serialize the mutable mid-pass state: every ℓ₀-sampler of the
    /// `f1` bank and the neighbor bank, counters and all. Router and
    /// vertex lists are rebuilt by [`TurnstileShardPass::new`].
    pub(crate) fn snapshot_state(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u8(1); // model tag: turnstile
        self.slot.router.encode_feed_state(&mut enc);
        enc.u64(self.f1_bank.len() as u64);
        for s in &self.f1_bank {
            enc.blob(&s.to_persist_bytes());
        }
        enc.u64(self.nbr_samplers.len() as u64);
        for s in &self.nbr_samplers {
            enc.blob(&s.to_persist_bytes());
        }
        frame(KIND_PASS_STATE, &enc.into_bytes())
    }

    /// Restore mid-pass state captured by
    /// [`TurnstileShardPass::snapshot_state`] into a freshly built pass
    /// over the same batch, `f1` slots, and pass seed.
    pub(crate) fn restore_state(&mut self, bytes: &[u8]) -> PersistResult<()> {
        let f = read_frame_of(bytes, 0, KIND_PASS_STATE)?;
        let mut dec = Decoder::new(f.payload);
        if dec.u8("pass model")? != 1 {
            return Err(dec.corrupt("pass state is not a turnstile pass"));
        }
        self.slot.router.restore_feed_state(&mut dec)?;
        let f1 = dec.count(8, "f1 bank")?;
        if f1 != self.f1_bank.len() {
            return Err(dec.corrupt(format!(
                "snapshot has {f1} f1 samplers, pass expects {}",
                self.f1_bank.len()
            )));
        }
        let mut f1_bank = Vec::with_capacity(f1);
        for _ in 0..f1 {
            f1_bank.push(L0Sampler::from_persist_bytes(dec.blob("f1 sampler")?)?);
        }
        let nbr = dec.count(8, "neighbor bank")?;
        if nbr != self.nbr_samplers.len() {
            return Err(dec.corrupt(format!(
                "snapshot has {nbr} neighbor samplers, pass expects {}",
                self.nbr_samplers.len()
            )));
        }
        let mut nbr_samplers = Vec::with_capacity(nbr);
        for _ in 0..nbr {
            nbr_samplers.push(L0Sampler::from_persist_bytes(
                dec.blob("neighbor sampler")?,
            )?);
        }
        dec.finish()?;
        self.f1_bank = f1_bank;
        self.nbr_samplers = nbr_samplers;
        Ok(())
    }

    /// End of stream: fill shard-local answers and report the outcome.
    pub(crate) fn finish(self) -> ShardOutcome {
        let TurnstileShardPass {
            slot,
            f1_bank,
            nbr_samplers,
            ..
        } = self;
        let space_bytes = slot.router.space_bytes()
            + f1_bank
                .iter()
                .chain(&nbr_samplers)
                .map(sgs_stream::SpaceUsage::space_bytes)
                .sum::<usize>();
        slot.answers.clear();
        slot.answers
            .resize(slot.sub_batch.len(), Answer::Edge(None));
        for (&ls, s) in slot.router.neighbor_slots().iter().zip(&nbr_samplers) {
            slot.answers[ls as usize] = Answer::Neighbor(s.sample().map(|k| VertexId(k as u32)));
        }
        slot.router.distribute(&mut slot.answers);
        ShardOutcome {
            edge_hits: Vec::new(),
            f1_bank,
            space_bytes,
        }
    }
}

/// One shard's turnstile-model pass over its scoped-thread buffer.
fn run_turnstile_shard(
    slot: &mut ShardSlot,
    feed: &ShardedFeed,
    shard_id: usize,
    f1_slots: &[u32],
    pass_seed: u64,
    opts: PassOpts,
    bank_threads: usize,
) -> ShardOutcome {
    let t0 = Instant::now();
    let mut pass = TurnstileShardPass::new(
        &mut *slot,
        feed.num_vertices(),
        f1_slots,
        pass_seed,
        opts,
        bank_threads,
    );
    pass.feed(feed.shard(shard_id));
    let out = pass.finish();
    slot.pass_nanos.push(t0.elapsed().as_nanos() as u64);
    out
}

/// Run every shard worker, threaded or inline per the injected
/// [`ExecPolicy`], collecting outcomes in shard order. Shared with the
/// multiplexer, whose shared-pass workers have the same shape.
pub(crate) fn run_shards<F>(
    slots: &mut [ShardSlot],
    policy: ExecPolicy,
    worker: F,
) -> Vec<ShardOutcome>
where
    F: Fn(usize, &mut ShardSlot) -> ShardOutcome + Sync,
{
    if policy.use_threads(slots.len()) {
        std::thread::scope(|scope| {
            let handles: Vec<_> = slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    let worker = &worker;
                    scope.spawn(move || worker(i, slot))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    } else {
        slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| worker(i, slot))
            .collect()
    }
}

/// Merge shard-local answers and driver-kept state into the batch-wide
/// answer vector.
pub(crate) fn merge_answers(
    batch_len: usize,
    feed: &ShardedFeed,
    arena: &RouterArena,
    shards: usize,
    outcomes: &[ShardOutcome],
) -> Vec<Answer> {
    let mut answers = vec![Answer::Edge(None); batch_len];
    let m = feed.final_edge_count().max(0) as usize;
    for &s in &arena.scratch_count {
        answers[s as usize] = Answer::EdgeCount(m);
    }
    for slot in &arena.slots[..shards] {
        for (local, &global) in slot.slot_map.iter().enumerate() {
            answers[global as usize] = slot.answers[local];
        }
    }
    for o in outcomes {
        for &(slot, e) in &o.edge_hits {
            answers[slot as usize] = Answer::Edge(Some(e));
        }
    }
    answers
}

/// Answer one round's batch with one **sharded** insertion-only pass:
/// the N-shard generalization of [`crate::exec::answer_insertion_batch`],
/// byte-identical to it (and to the reference executor) for every shard
/// count. Returns the merged answers and the measured pass footprint.
pub fn answer_insertion_batch_sharded(
    batch: &[Query],
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
) -> (Vec<Answer>, usize) {
    answer_insertion_batch_sharded_with_opts(batch, feed, pass_seed, arena, PassOpts::default())
}

/// [`answer_insertion_batch_sharded`] with an explicit feed block size
/// (`block <= 1` = scalar per-update path on every shard).
pub fn answer_insertion_batch_sharded_with_block(
    batch: &[Query],
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
    block: usize,
) -> (Vec<Answer>, usize) {
    answer_insertion_batch_sharded_with_opts(
        batch,
        feed,
        pass_seed,
        arena,
        PassOpts::with_block(block),
    )
}

/// [`answer_insertion_batch_sharded`] with full feed-path options
/// ([`PassOpts`]: block size + relaxed-`f3` reservoir mode). For a fixed
/// mode the sharded answers stay byte-identical to the single-stream
/// pass at any shard count — a neighbor sampler's vertex lives entirely
/// in one shard, so its offer/draw sequence is unchanged whichever
/// acceptance scheme runs it.
pub fn answer_insertion_batch_sharded_with_opts(
    batch: &[Query],
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
) -> (Vec<Answer>, usize) {
    answer_insertion_batch_sharded_with_exec(
        batch,
        feed,
        pass_seed,
        arena,
        opts,
        ExecPolicy::default(),
    )
}

/// [`answer_insertion_batch_sharded_with_opts`] with an injected
/// [`ExecPolicy`] (thread-or-not + pinning) instead of the default
/// host-adaptive one. Answers are identical under every policy.
pub fn answer_insertion_batch_sharded_with_exec(
    batch: &[Query],
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    policy: ExecPolicy,
) -> (Vec<Answer>, usize) {
    let shards = feed.num_shards();
    if shards == 1 {
        // Single shard: skip the split/scatter machinery and run the
        // direct pass emulation over the feed (its `EdgeStream` replay
        // reconstructs the source order and counts the logical pass) —
        // existing single-stream callers keep the PR-1 per-pass cost.
        arena.ensure_shards(1);
        let t0 = Instant::now();
        let out = crate::exec::answer_insertion_batch_with_opts(batch, feed, pass_seed, opts);
        arena.slots[0]
            .pass_nanos
            .push(t0.elapsed().as_nanos() as u64);
        return out;
    }
    feed.begin_pass();
    split_batch(batch, RouterMode::Insertion, feed.shard_map(), arena);
    let mut targets = std::mem::take(&mut arena.scratch_targets);
    draw_targets(batch, feed.stream_len() as u64, pass_seed, &mut targets);
    let outcomes = run_shards(&mut arena.slots[..shards], policy, |i, slot| {
        run_insertion_shard(slot, feed, i, &targets, pass_seed, opts)
    });
    let space = outcomes.iter().map(|o| o.space_bytes).sum::<usize>() + targets.len() * 16;
    arena.scratch_targets = targets;
    let answers = merge_answers(batch.len(), feed, arena, shards, &outcomes);
    (answers, space)
}

/// Answer one round's batch with one **sharded** turnstile pass: the
/// N-shard generalization of [`crate::exec::answer_turnstile_batch`],
/// byte-identical to it for every shard count.
pub fn answer_turnstile_batch_sharded(
    batch: &[Query],
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
) -> (Vec<Answer>, usize) {
    answer_turnstile_batch_sharded_with_opts(batch, feed, pass_seed, arena, PassOpts::default())
}

/// [`answer_turnstile_batch_sharded`] with an explicit feed block size
/// (`block <= 1` = scalar per-update path on every shard).
pub fn answer_turnstile_batch_sharded_with_block(
    batch: &[Query],
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
    block: usize,
) -> (Vec<Answer>, usize) {
    answer_turnstile_batch_sharded_with_opts(
        batch,
        feed,
        pass_seed,
        arena,
        PassOpts::with_block(block),
    )
}

/// [`answer_turnstile_batch_sharded`] with full feed-path options
/// ([`PassOpts`]: block size + ℓ₀ feed path). Both knobs are
/// byte-identity-preserving, so the sharded answers match the
/// single-stream pass at any shard count under every combination.
pub fn answer_turnstile_batch_sharded_with_opts(
    batch: &[Query],
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
) -> (Vec<Answer>, usize) {
    answer_turnstile_batch_sharded_with_exec(
        batch,
        feed,
        pass_seed,
        arena,
        opts,
        ExecPolicy::default(),
    )
}

/// [`answer_turnstile_batch_sharded_with_opts`] with an injected
/// [`ExecPolicy`]. Answers are identical under every policy.
pub fn answer_turnstile_batch_sharded_with_exec(
    batch: &[Query],
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    policy: ExecPolicy,
) -> (Vec<Answer>, usize) {
    let shards = feed.num_shards();
    let bank_threads = policy.bank_threads(shards);
    if shards == 1 {
        // See answer_insertion_batch_sharded: direct pass over the feed.
        arena.ensure_shards(1);
        let t0 = Instant::now();
        let out = crate::exec::turnstile_batch_pass(batch, feed, pass_seed, opts, bank_threads);
        arena.slots[0]
            .pass_nanos
            .push(t0.elapsed().as_nanos() as u64);
        return out;
    }
    feed.begin_pass();
    split_batch(batch, RouterMode::Turnstile, feed.shard_map(), arena);
    let f1_slots = std::mem::take(&mut arena.scratch_edge);
    let mut outcomes = run_shards(&mut arena.slots[..shards], policy, |i, slot| {
        run_turnstile_shard(slot, feed, i, &f1_slots, pass_seed, opts, bank_threads)
    });
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
        answers[slot as usize] = Answer::Edge(s.sample().map(Edge::from_key));
    }
    arena.scratch_edge = f1_slots;
    (answers, space)
}

/// Execute a round-adaptive algorithm as a sharded insertion-only
/// streaming algorithm: one *logical* pass per round, fanned out over
/// the feed's shards. With one shard this **is** the single-stream
/// executor ([`crate::exec::run_insertion`] is exactly this call).
pub fn run_insertion_sharded<A: RoundAdaptive>(
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
) -> (A::Output, ExecReport) {
    run_insertion_sharded_with_opts(alg, feed, seed, arena, PassOpts::default())
}

/// [`run_insertion_sharded`] with an explicit feed block size.
pub fn run_insertion_sharded_with_block<A: RoundAdaptive>(
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    block: usize,
) -> (A::Output, ExecReport) {
    run_insertion_sharded_with_opts(alg, feed, seed, arena, PassOpts::with_block(block))
}

/// [`run_insertion_sharded`] with full feed-path options ([`PassOpts`]).
pub fn run_insertion_sharded_with_opts<A: RoundAdaptive>(
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
) -> (A::Output, ExecReport) {
    run_insertion_sharded_with_exec(alg, feed, seed, arena, opts, ExecPolicy::default())
}

/// [`run_insertion_sharded_with_opts`] with an explicit execution policy
/// governing the shard workers (serial / threaded / auto, core pinning).
pub fn run_insertion_sharded_with_exec<A: RoundAdaptive>(
    mut alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    policy: ExecPolicy,
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
        let (a, space) = answer_insertion_batch_sharded_with_exec(
            &batch,
            feed,
            split_seed(seed, report.passes as u64),
            arena,
            opts,
            policy,
        );
        report.max_pass_space_bytes = report.max_pass_space_bytes.max(space);
        answers = a;
        arena.note_round();
    }
    arena.end_run();
    (alg.output(), report)
}

/// Execute a round-adaptive algorithm as a sharded turnstile streaming
/// algorithm: one logical pass per round over N shards. With one shard
/// this is [`crate::exec::run_turnstile`].
pub fn run_turnstile_sharded<A: RoundAdaptive>(
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
) -> (A::Output, ExecReport) {
    run_turnstile_sharded_with_opts(alg, feed, seed, arena, PassOpts::default())
}

/// [`run_turnstile_sharded`] with an explicit feed block size.
pub fn run_turnstile_sharded_with_block<A: RoundAdaptive>(
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    block: usize,
) -> (A::Output, ExecReport) {
    run_turnstile_sharded_with_opts(alg, feed, seed, arena, PassOpts::with_block(block))
}

/// [`run_turnstile_sharded`] with full feed-path options ([`PassOpts`]).
pub fn run_turnstile_sharded_with_opts<A: RoundAdaptive>(
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
) -> (A::Output, ExecReport) {
    run_turnstile_sharded_with_exec(alg, feed, seed, arena, opts, ExecPolicy::default())
}

/// [`run_turnstile_sharded_with_opts`] with an explicit execution
/// policy governing the shard workers.
pub fn run_turnstile_sharded_with_exec<A: RoundAdaptive>(
    mut alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    policy: ExecPolicy,
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
        let (a, space) = answer_turnstile_batch_sharded_with_exec(
            &batch,
            feed,
            split_seed(seed, report.passes as u64),
            arena,
            opts,
            policy,
        );
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
    use sgs_graph::gen;
    use sgs_stream::reservoir::ReservoirMode;
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
    fn sharded_insertion_batch_matches_unsharded_all_shard_counts() {
        // Swept over both reservoir modes: sharding must preserve the
        // exact coin sequence of whichever acceptance scheme is active.
        let g = gen::gnm(25, 90, 17);
        let ins = InsertionStream::from_graph(&g, 18);
        let batch = mixed_insertion_batch();
        for mode in [ReservoirMode::Offer, ReservoirMode::Skip] {
            let opts = PassOpts::with_reservoir(mode);
            for shards in [1usize, 2, 4, 7] {
                let feed = ShardedFeed::partition(&ins, shards);
                let mut arena = RouterArena::new();
                for pass_seed in 0..20u64 {
                    let (a, _) = crate::exec::answer_insertion_batch_with_opts(
                        &batch, &ins, pass_seed, opts,
                    );
                    let (b, _) = answer_insertion_batch_sharded_with_opts(
                        &batch, &feed, pass_seed, &mut arena, opts,
                    );
                    assert_eq!(a, b, "{mode:?}, {shards} shards, pass seed {pass_seed}");
                }
            }
        }
    }

    #[test]
    fn sharded_turnstile_batch_matches_unsharded_all_shard_counts() {
        let g = gen::gnm(25, 90, 19);
        let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 20);
        let mut batch = mixed_insertion_batch();
        batch.retain(|q| !matches!(q, Query::IthNeighbor(..)));
        for shards in [1usize, 2, 4, 7] {
            let feed = ShardedFeed::partition(&tst, shards);
            let mut arena = RouterArena::new();
            for pass_seed in 0..10u64 {
                let (a, _) = answer_turnstile_batch(&batch, &tst, pass_seed);
                let (b, _) = answer_turnstile_batch_sharded(&batch, &feed, pass_seed, &mut arena);
                assert_eq!(a, b, "{shards} shards, pass seed {pass_seed}");
            }
        }
    }

    #[test]
    fn threaded_path_matches_sequential() {
        // Both execution policies must produce identical answers; the
        // injected ExecPolicy forces each schedule directly (even on
        // single-core hosts), with no process-global env mutation.
        let g = gen::gnm(20, 70, 23);
        let ins = InsertionStream::from_graph(&g, 24);
        let batch = mixed_insertion_batch();
        let (expected, _) = answer_insertion_batch(&batch, &ins, 5);
        let feed = ShardedFeed::partition(&ins, 4);
        let mut arena = RouterArena::new();
        for policy in [ExecPolicy::threaded(), ExecPolicy::serial()] {
            let (got, _) = answer_insertion_batch_sharded_with_exec(
                &batch,
                &feed,
                5,
                &mut arena,
                PassOpts::default(),
                policy,
            );
            assert_eq!(got, expected, "{policy:?}");
        }
    }

    #[test]
    fn threaded_turnstile_path_matches_sequential() {
        let g = gen::gnm(20, 70, 25);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 26);
        let mut batch = mixed_insertion_batch();
        batch.retain(|q| !matches!(q, Query::IthNeighbor(..)));
        let (expected, _) = answer_turnstile_batch(&batch, &tst, 5);
        let feed = ShardedFeed::partition(&tst, 4);
        let mut arena = RouterArena::new();
        for policy in [ExecPolicy::threaded(), ExecPolicy::serial()] {
            let (got, _) = answer_turnstile_batch_sharded_with_exec(
                &batch,
                &feed,
                5,
                &mut arena,
                PassOpts::with_block(64),
                policy,
            );
            assert_eq!(got, expected, "{policy:?}");
        }
    }

    #[test]
    fn logical_passes_track_rounds_not_shards() {
        let g = gen::gnm(18, 60, 29);
        let ins = InsertionStream::from_graph(&g, 30);
        let feed = ShardedFeed::partition(&ins, 5);
        let mut arena = RouterArena::new();
        let batch = mixed_insertion_batch();
        for pass_seed in 0..3u64 {
            let _ = answer_insertion_batch_sharded(&batch, &feed, pass_seed, &mut arena);
        }
        assert_eq!(feed.logical_passes(), 3, "5 shards × 3 passes = 3 passes");
    }

    #[test]
    #[should_panic(expected = "IthNeighbor is not available")]
    fn sharded_turnstile_rejects_indexed_neighbors() {
        let g = gen::gnm(5, 5, 1);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.0, 2);
        let feed = ShardedFeed::partition(&tst, 2);
        let mut arena = RouterArena::new();
        let _ = answer_turnstile_batch_sharded(
            &[Query::IthNeighbor(VertexId(0), 1)],
            &feed,
            3,
            &mut arena,
        );
    }

    #[test]
    fn empty_stream_answers_defaults() {
        let ins = InsertionStream::from_edge_order(4, vec![]);
        let feed = ShardedFeed::partition(&ins, 3);
        let mut arena = RouterArena::new();
        let batch = vec![
            Query::EdgeCount,
            Query::RandomEdge,
            Query::Degree(VertexId(1)),
            Query::RandomNeighbor(VertexId(2)),
        ];
        let (a, _) = answer_insertion_batch_sharded(&batch, &feed, 7, &mut arena);
        let (b, _) = answer_insertion_batch(&batch, &ins, 7);
        assert_eq!(a, b);
        assert_eq!(a[0], Answer::EdgeCount(0));
        assert_eq!(a[1], Answer::Edge(None));
    }
}
