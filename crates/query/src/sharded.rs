//! Sharded pass emulation: the one family of per-shard pass machines,
//! and the one split → machines → merge step every engine runs.
//!
//! One round's merged batch is split by routing key with the same hash
//! the [`ShardedFeed`] partitions updates with: vertex-keyed queries
//! (`f2`, both `f3` forms) go to the shard of their vertex, `f4` goes to
//! the shard of the edge's canonical endpoint, and the two global kinds
//! stay with the driver (`EdgeCount` is answered from the feed's net
//! delta; `f1` position targets are drawn centrally and matched against
//! the global positions each delivery carries). Each shard then rebuilds
//! its pooled router from the [`crate::arena::RouterArena`] and runs one
//! pass machine — [`InsertionMachine`] or [`TurnstileMachine`] —
//! over its own deliveries.
//!
//! **A solo run is a one-job plan.** A machine serves a
//! [`RoundPlan`]: the round's participants, each with its start offset
//! in the merged batch, its private pass seed and its reservoir mode.
//! The multiplexer ([`crate::multiplex::QuerySet`]) plans many
//! participants; the pass call [`answer_batch`] plans one. With one
//! participant every lane seed is `split_seed(pass_seed, slot)` and
//! every `f1` target comes from `FastRng(pass_seed)` in batch order —
//! the solo coins — so there is no separate solo machine.
//!
//! **Engines.** [`run_pass`] is the step: split, draw targets (or take
//! the `f1` slots), run the machines on the caller's [`Engine`], and
//! finish ([`end_pass`]: merge the answers, merge the per-shard `f1`
//! ℓ₀ banks, fill the `f1` answers). The engines differ only in where
//! deliveries come from: scoped shard threads over the feed's buffers
//! ([`Engine::Sharded`], [`run_shards`]), one scoped broadcast ring
//! ([`Engine::Ring`], [`crate::broadcast::run_ring`]), or a caller-owned
//! persistent [`crate::runtime::ShardRuntime`] ([`Engine::Runtime`]). The
//! checkpoint driver keeps its own resumable chunk loop around
//! [`begin_pass`] / [`end_pass`].
//!
//! **Equivalence, not approximation.** The sharded pass produces answers
//! byte-identical to the frozen `crate::reference` oracle for every
//! fixed seed and any shard count, because nothing about a query's
//! answer depends on updates its shard doesn't see:
//!
//! * a shard receives every update incident to a vertex it owns, in
//!   stream order, so degree counts, watcher arrivals, and neighbor
//!   sampler offer sequences are unchanged;
//! * samplers are seeded by their owner's pass seed and **job-local**
//!   batch slot, the coins a one-shard pass hands out;
//! * `f1` targets are drawn from each owner's pass rng in batch order
//!   before any shard runs, and matched by global position (duplicate
//!   deliveries record identical hits);
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

use crate::arena::{RouterArena, ShardSlot};
use crate::broadcast::{run_ring, BroadcastOpts, SideSink};
use crate::exec::PassOpts;
use crate::multiplex::{RoundPlan, StallEvent};
use crate::policy::ExecPolicy;
use crate::query::{Answer, Query};
use crate::router::RouterMode;
use crate::runtime::ShardRuntime;
use sgs_graph::{Edge, VertexId};
use sgs_stream::l0::{BankFeed, L0Sampler};
use sgs_stream::persist::{frame, read_frame_of, Decoder, Encoder, PersistResult, KIND_PASS_STATE};
use sgs_stream::reservoir::ReservoirBank;
use sgs_stream::sharded::{ShardMap, ShardUpdate, ShardedFeed};
use sgs_stream::{EdgeUpdate, SpaceUsage};
use std::time::Instant;

/// What one shard reports back to the merge step.
pub(crate) struct ShardOutcome {
    /// `f1` position hits, keyed by **merged** slot. Duplicated across
    /// shards when an update was delivered to both endpoints' shards —
    /// duplicates carry identical edges, so merge order is irrelevant.
    pub(crate) edge_hits: Vec<(u32, Edge)>,
    /// Turnstile only: the shard's identically-seeded `f1` ℓ₀-bank over
    /// its owned deliveries, to be merged across shards.
    pub(crate) f1_bank: Vec<L0Sampler>,
    /// Measured sketch/router footprint of this shard's pass state.
    pub(crate) space_bytes: usize,
    /// The shard's feed time for this pass, recorded into its arena slot.
    pub(crate) nanos: u64,
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

/// What every shard machine of one pass shares: the model, the plan, the
/// feed options and the driver-drawn `f1` state.
#[derive(Clone)]
pub(crate) struct PassSetup {
    model: RouterMode,
    plan: RoundPlan,
    opts: PassOpts,
    num_vertices: usize,
    /// Threads each `f1` bank sweep may use ([`BankFeed::new`]).
    bank_threads: usize,
    /// Insertion: `(position, merged slot)` targets, sorted by position.
    targets: Vec<(u64, u32)>,
    /// The merged `RandomEdge` slots, ascending.
    f1_slots: Vec<u32>,
}

/// Start one pass: split the batch and draw the `f1` targets
/// (insertion) or keep the `f1` slot list (turnstile, whose every shard
/// holds the full `f1` ℓ₀-bank).
pub(crate) fn begin_pass(
    model: RouterMode,
    batch: &[Query],
    plan: &RoundPlan,
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    opts: PassOpts,
    bank_threads: usize,
) -> PassSetup {
    split_batch(batch, model, feed.shard_map(), arena);
    let f1_slots = std::mem::take(&mut arena.scratch_edge);
    let mut targets = std::mem::take(&mut arena.scratch_targets);
    targets.clear();
    if model == RouterMode::Insertion {
        plan.draw_targets(&f1_slots, feed.stream_len() as u64, &mut targets);
    }
    PassSetup {
        model,
        plan: plan.clone(),
        opts,
        num_vertices: feed.num_vertices(),
        bank_threads,
        targets,
        f1_slots,
    }
}

/// Finish one pass: record each shard's feed time, merge shard-local
/// answers, position hits and `EdgeCount`, and — turnstile — merge the
/// per-shard `f1` banks into shard 0's (linear sketches: the result is
/// the exact single-stream sketch state) and answer the `f1` slots from
/// it. Returns the merged answers and the pass footprint.
pub(crate) fn end_pass(
    setup: PassSetup,
    batch_len: usize,
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    mut outcomes: Vec<ShardOutcome>,
) -> (Vec<Answer>, usize) {
    let shards = outcomes.len();
    for (slot, o) in arena.slots.iter_mut().zip(&outcomes) {
        slot.pass_nanos.push(o.nanos);
    }
    let space = outcomes.iter().map(|o| o.space_bytes).sum::<usize>() + setup.targets.len() * 16;
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
    for o in &outcomes {
        for &(slot, e) in &o.edge_hits {
            answers[slot as usize] = Answer::Edge(Some(e));
        }
    }
    if setup.model == RouterMode::Turnstile {
        let (head, rest) = outcomes.split_at_mut(1);
        for o in rest.iter() {
            for (a, b) in head[0].f1_bank.iter_mut().zip(&o.f1_bank) {
                a.merge(b);
            }
        }
        for (&slot, s) in setup.f1_slots.iter().zip(&outcomes[0].f1_bank) {
            answers[slot as usize] = Answer::Edge(s.sample().map(Edge::from_key));
        }
    }
    arena.scratch_targets = setup.targets;
    arena.scratch_edge = setup.f1_slots;
    (answers, space)
}

/// Match `f1` position targets against one delivery: skip targets whose
/// position lives in another shard's buffer, then record every hit at
/// this global position.
#[inline]
fn match_targets(
    targets: &[(u64, u32)],
    cursor: &mut usize,
    hits: &mut Vec<(u32, Edge)>,
    su: &ShardUpdate,
) {
    let pos = su.position as u64;
    while *cursor < targets.len() && targets[*cursor].0 < pos {
        *cursor += 1;
    }
    while *cursor < targets.len() && targets[*cursor].0 == pos {
        hits.push((targets[*cursor].1, su.update.edge));
        *cursor += 1;
    }
}

/// One maximal run of same-participant sampler lanes inside one vertex
/// group: the fan-out unit. A delivery to the group offers its edge to
/// lanes `bank_start..bank_end` of participant `part`'s private
/// reservoir bank — one `offer_cohort` per segment, exactly the group
/// offer the participant's solo pass would make.
#[derive(Clone, Copy)]
struct Segment {
    part: u32,
    bank_start: u32,
    bank_end: u32,
}

/// One shard's insertion-model pass as a **resumable state machine**:
/// the per-delivery work, decoupled from where deliveries come from.
/// One router over the shard's sub-batch; one private reservoir bank per
/// participant (each in its job's own mode, lanes seeded with the job's
/// solo coins) fed through the segment table. Delivery *chunking*
/// differs between engines, but chunk boundaries never change an answer
/// (the block-equivalence property), so every engine is byte-identical.
pub(crate) struct InsertionMachine<'a> {
    slot: &'a mut ShardSlot,
    targets: &'a [(u64, u32)],
    block: usize,
    /// One private bank per participant (possibly zero lanes).
    banks: Vec<ReservoirBank<Edge>>,
    /// Flat segment table, grouped by vertex group.
    segments: Vec<Segment>,
    /// Group start lane → segment range in `segments`.
    group_segs: Vec<(u32, u32)>,
    /// Router lane → (participant, lane in that participant's bank).
    lane_owner: Vec<(u32, u32)>,
    nbr_verts: Vec<VertexId>,
    edge_hits: Vec<(u32, Edge)>,
    cursor: usize,
    buf: Vec<EdgeUpdate>,
}

impl<'a> InsertionMachine<'a> {
    /// Rebuild the pooled router and seed the banks. Within one vertex
    /// group, lanes ascend by local slot, local slots ascend by merged
    /// slot, and each participant's merged range is contiguous — so each
    /// participant's lanes in a group form exactly one contiguous run,
    /// and its bank ranges come out ascending and disjoint (what
    /// `bind_cohorts` requires). A neighbor sampler's vertex lives
    /// entirely in this shard, so its offer (and therefore draw)
    /// sequence is exactly the solo one in either reservoir mode.
    fn new(slot: &'a mut ShardSlot, setup: &'a PassSetup) -> Self {
        slot.router.rebuild(&slot.sub_batch, RouterMode::Insertion);
        let plan = &setup.plan;
        let nbr_slots = slot.router.neighbor_slots();
        let mut lane_seeds: Vec<Vec<u64>> = vec![Vec::new(); plan.participants()];
        let mut lane_owner: Vec<(u32, u32)> = Vec::with_capacity(nbr_slots.len());
        for &ls in nbr_slots {
            let gs = slot.slot_map[ls as usize] as usize;
            let p = plan.owner(gs);
            lane_owner.push((p as u32, lane_seeds[p].len() as u32));
            lane_seeds[p].push(plan.lane_seed(p, gs));
        }
        let mut segments: Vec<Segment> = Vec::new();
        let mut group_segs: Vec<(u32, u32)> = vec![(0, 0); nbr_slots.len()];
        for (s, e) in slot.router.neighbor_group_ranges() {
            let beg = segments.len() as u32;
            let mut li = s as usize;
            while li < e as usize {
                let (part, bank_start) = lane_owner[li];
                let mut lj = li + 1;
                while lj < e as usize && lane_owner[lj].0 == part {
                    lj += 1;
                }
                segments.push(Segment {
                    part,
                    bank_start,
                    bank_end: bank_start + (lj - li) as u32,
                });
                li = lj;
            }
            group_segs[s as usize] = (beg, segments.len() as u32);
        }
        let mut banks: Vec<ReservoirBank<Edge>> = lane_seeds
            .into_iter()
            .zip(&plan.modes)
            .map(|(seeds, &mode)| ReservoirBank::from_seeds(seeds, mode))
            .collect();
        // Each (group, participant) segment is a cohort: its lanes always
        // receive offers together, so a skip-mode delivery is one
        // clock-vs-min compare instead of a per-lane plane walk.
        for (pi, bank) in banks.iter_mut().enumerate() {
            bank.bind_cohorts(
                segments
                    .iter()
                    .filter(|sg| sg.part as usize == pi)
                    .map(|sg| (sg.bank_start, sg.bank_end)),
            );
        }
        let nbr_verts: Vec<VertexId> = slot.router.neighbor_vertices().collect();
        InsertionMachine {
            slot,
            targets: &setup.targets,
            block: setup.opts.block,
            banks,
            segments,
            group_segs,
            lane_owner,
            nbr_verts,
            edge_hits: Vec::new(),
            cursor: 0,
            buf: Vec::new(),
        }
    }

    /// Absorb the next run of deliveries (global stream order, possibly
    /// a partial prefix — callable repeatedly). `block <= 1` is the
    /// scalar per-update path; otherwise position targets are matched
    /// per delivery and each block goes through the router's
    /// batched-probe drain.
    fn feed(&mut self, deliveries: &[ShardUpdate]) {
        if self.block <= 1 {
            for su in deliveries {
                debug_assert!(su.update.is_insert(), "insertion executor fed a deletion");
                match_targets(self.targets, &mut self.cursor, &mut self.edge_hits, su);
                let edge = su.update.edge;
                let (banks, segments, group_segs) =
                    (&mut self.banks, &self.segments, &self.group_segs);
                self.slot.router.feed(su.update, |s, _e| {
                    offer_group(banks, segments, group_segs[s as usize], edge)
                });
            }
        } else {
            let mut buf = std::mem::take(&mut self.buf);
            for chunk in deliveries.chunks(self.block) {
                buf.clear();
                for su in chunk {
                    debug_assert!(su.update.is_insert(), "insertion executor fed a deletion");
                    match_targets(self.targets, &mut self.cursor, &mut self.edge_hits, su);
                    buf.push(su.update);
                }
                let (banks, segments, group_segs) =
                    (&mut self.banks, &self.segments, &self.group_segs);
                self.slot.router.feed_block(&buf, |j, s, _e| {
                    offer_group(banks, segments, group_segs[s as usize], buf[j].edge)
                });
            }
            self.buf = buf;
        }
    }

    /// Serialize the mutable mid-pass state: the router's feed state,
    /// the target cursor, the `f1` position hits recorded so far, and
    /// one reservoir-bank blob per participant in participant order (no
    /// count prefix). The router, targets, and segment tables are *not*
    /// included — they are rebuilt deterministically by
    /// [`InsertionMachine::new`] from the round's batch and plan, so a
    /// restored pass resumes byte-identically from the snapshot's
    /// delivery boundary.
    fn snapshot_state(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u8(0); // model tag: insertion
        self.slot.router.encode_feed_state(&mut enc);
        enc.u64(self.cursor as u64);
        enc.u64(self.edge_hits.len() as u64);
        for &(slot, e) in &self.edge_hits {
            enc.u32(slot);
            enc.edge(e);
        }
        for bank in &self.banks {
            enc.blob(&bank.to_persist_bytes());
        }
        frame(KIND_PASS_STATE, &enc.into_bytes())
    }

    /// Restore mid-pass state captured by
    /// [`InsertionMachine::snapshot_state`] into a freshly built pass
    /// over the same batch, plan, and options: one bank blob per
    /// participant of the rebuilt pass.
    fn restore_state(&mut self, bytes: &[u8]) -> PersistResult<()> {
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
        let blobs = (0..self.banks.len())
            .map(|_| dec.blob("reservoir bank"))
            .collect::<PersistResult<Vec<&[u8]>>>()?;
        dec.finish()?;
        for (bank, blob) in self.banks.iter_mut().zip(blobs) {
            bank.restore_from_persist_bytes(blob)?;
        }
        self.edge_hits = edge_hits;
        self.cursor = cursor;
        Ok(())
    }

    /// End of stream: fill shard-local answers and report the outcome.
    fn finish(self) -> ShardOutcome {
        let InsertionMachine {
            slot,
            banks,
            lane_owner,
            nbr_verts,
            edge_hits,
            ..
        } = self;
        let space_bytes =
            slot.router.space_bytes() + banks.iter().map(ReservoirBank::space_bytes).sum::<usize>();
        slot.answers.clear();
        slot.answers
            .resize(slot.sub_batch.len(), Answer::Edge(None));
        for (li, &ls) in slot.router.neighbor_slots().iter().enumerate() {
            let (p, lane) = lane_owner[li];
            let v = nbr_verts[li];
            slot.answers[ls as usize] =
                Answer::Neighbor(banks[p as usize].sample(lane as usize).map(|e| e.other(v)));
        }
        slot.router.distribute(&mut slot.answers);
        ShardOutcome {
            edge_hits,
            f1_bank: Vec::new(),
            space_bytes,
            nanos: 0,
        }
    }
}

/// Offer `edge` to every participant segment of one vertex group.
#[inline]
fn offer_group(
    banks: &mut [ReservoirBank<Edge>],
    segments: &[Segment],
    (b0, b1): (u32, u32),
    edge: Edge,
) {
    for sg in &segments[b0 as usize..b1 as usize] {
        banks[sg.part as usize].offer_cohort(sg.bank_start as usize, sg.bank_end as usize, edge);
    }
}

/// One shard's turnstile-model pass as a resumable state machine (see
/// [`InsertionMachine`]). ℓ₀-samplers are per-lane independent linear
/// sketches, so the pass needs no per-participant banks — one flat `f1`
/// bank aligned with the merged `RandomEdge` slot list and one flat
/// neighbor bank aligned with the router's lanes, every sampler seeded
/// with its owner's solo coins.
pub(crate) struct TurnstileMachine<'a> {
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

impl<'a> TurnstileMachine<'a> {
    /// Rebuild the pooled router and seed the sketch banks. Every shard
    /// keeps the full `f1` bank, identically seeded, and feeds it
    /// *owned* deliveries only: merging the banks across shards
    /// reassembles the exact single-stream sketch state (ℓ₀-samplers are
    /// linear). Each bank sweep may be split over up to `bank_threads`
    /// threads, with the same planes for every count.
    fn new(slot: &'a mut ShardSlot, setup: &PassSetup) -> Self {
        slot.router.rebuild(&slot.sub_batch, RouterMode::Turnstile);
        let plan = &setup.plan;
        let n = setup.num_vertices;
        let sampler = |gs: usize| L0Sampler::for_edge_domain(n, plan.lane_seed(plan.owner(gs), gs));
        let f1_bank: Vec<L0Sampler> = setup
            .f1_slots
            .iter()
            .map(|&gs| sampler(gs as usize))
            .collect();
        let nbr_samplers: Vec<L0Sampler> = slot
            .router
            .neighbor_slots()
            .iter()
            .map(|&ls| sampler(slot.slot_map[ls as usize] as usize))
            .collect();
        let nbr_verts: Vec<VertexId> = slot.router.neighbor_vertices().collect();
        TurnstileMachine {
            slot,
            opts: setup.opts,
            bank_threads: setup.bank_threads,
            f1_bank,
            nbr_samplers,
            nbr_verts,
            buf: Vec::new(),
            owned_kd: Vec::new(),
        }
    }

    /// Absorb the next run of deliveries (callable repeatedly).
    fn feed(&mut self, deliveries: &[ShardUpdate]) {
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
            // batched probes. A pass with no `f1` lanes queues nothing,
            // so it builds no chunk prologue.
            let mut buf = std::mem::take(&mut self.buf);
            let mut owned_kd = std::mem::take(&mut self.owned_kd);
            let has_f1 = !self.f1_bank.is_empty();
            let mut f1 = BankFeed::new(&mut self.f1_bank, l0, self.bank_threads);
            for chunk in deliveries.chunks(self.opts.block) {
                buf.clear();
                owned_kd.clear();
                for su in chunk {
                    if has_f1 && su.owned {
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

    /// Serialize the mutable mid-pass state: every ℓ₀-sampler of the
    /// `f1` bank and the neighbor bank, counters and all. Router and
    /// vertex lists are rebuilt by [`TurnstileMachine::new`].
    fn snapshot_state(&self) -> Vec<u8> {
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
    /// [`TurnstileMachine::snapshot_state`] into a freshly built pass
    /// over the same batch, `f1` slots, and plan.
    fn restore_state(&mut self, bytes: &[u8]) -> PersistResult<()> {
        let f = read_frame_of(bytes, 0, KIND_PASS_STATE)?;
        let mut dec = Decoder::new(f.payload);
        if dec.u8("pass model")? != 1 {
            return Err(dec.corrupt("pass state is not a turnstile pass"));
        }
        self.slot.router.restore_feed_state(&mut dec)?;
        let f1_bank = decode_bank(&mut dec, self.f1_bank.len(), "f1")?;
        let nbr_samplers = decode_bank(&mut dec, self.nbr_samplers.len(), "neighbor")?;
        dec.finish()?;
        self.f1_bank = f1_bank;
        self.nbr_samplers = nbr_samplers;
        Ok(())
    }

    /// End of stream: fill shard-local answers and report the outcome.
    fn finish(self) -> ShardOutcome {
        let TurnstileMachine {
            slot,
            f1_bank,
            nbr_samplers,
            ..
        } = self;
        let space_bytes = slot.router.space_bytes()
            + f1_bank
                .iter()
                .chain(&nbr_samplers)
                .map(SpaceUsage::space_bytes)
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
            nanos: 0,
        }
    }
}

/// Decode one counted ℓ₀ bank of a turnstile pass snapshot, checking its
/// length against the rebuilt pass.
fn decode_bank(dec: &mut Decoder, expect: usize, what: &str) -> PersistResult<Vec<L0Sampler>> {
    let n = dec.count(8, what)?;
    if n != expect {
        return Err(dec.corrupt(format!(
            "snapshot has {n} {what} samplers, pass expects {expect}"
        )));
    }
    (0..n)
        .map(|_| L0Sampler::from_persist_bytes(dec.blob(what)?))
        .collect()
}

/// One shard's pass machine, of either model: what every engine builds
/// per shard, feeds, and finishes.
pub(crate) enum PassMachine<'a> {
    Insertion(InsertionMachine<'a>),
    Turnstile(TurnstileMachine<'a>),
}

impl<'a> PassMachine<'a> {
    /// Build the machine `setup.model` asks for over one shard slot.
    pub(crate) fn new(slot: &'a mut ShardSlot, setup: &'a PassSetup) -> Self {
        match setup.model {
            RouterMode::Insertion => PassMachine::Insertion(InsertionMachine::new(slot, setup)),
            RouterMode::Turnstile => PassMachine::Turnstile(TurnstileMachine::new(slot, setup)),
        }
    }

    /// Absorb the next run of this shard's deliveries.
    pub(crate) fn feed(&mut self, deliveries: &[ShardUpdate]) {
        match self {
            PassMachine::Insertion(p) => p.feed(deliveries),
            PassMachine::Turnstile(p) => p.feed(deliveries),
        }
    }

    /// Serialize the mid-pass state (see the machines' docs).
    pub(crate) fn snapshot_state(&self) -> Vec<u8> {
        match self {
            PassMachine::Insertion(p) => p.snapshot_state(),
            PassMachine::Turnstile(p) => p.snapshot_state(),
        }
    }

    /// Restore mid-pass state into a freshly built machine.
    pub(crate) fn restore_state(&mut self, bytes: &[u8]) -> PersistResult<()> {
        match self {
            PassMachine::Insertion(p) => p.restore_state(bytes),
            PassMachine::Turnstile(p) => p.restore_state(bytes),
        }
    }

    /// RNG draws the relaxed-`f3` reservoir banks consumed (0 for a
    /// turnstile pass, which has none).
    pub(crate) fn reservoir_draws(&self) -> u64 {
        match self {
            PassMachine::Insertion(p) => p.banks.iter().map(ReservoirBank::rng_draws).sum(),
            PassMachine::Turnstile(_) => 0,
        }
    }

    /// End of stream: fill shard-local answers; `nanos` is the shard's
    /// feed time, recorded into its arena slot by [`end_pass`].
    pub(crate) fn finish(self, nanos: u64) -> ShardOutcome {
        let mut out = match self {
            PassMachine::Insertion(p) => p.finish(),
            PassMachine::Turnstile(p) => p.finish(),
        };
        out.nanos = nanos;
        out
    }
}

/// What delivers one pass's updates to the shard machines. The caller
/// picks the engine; answers are byte-identical on every engine, shard
/// count and policy.
pub enum Engine<'e, 's> {
    /// Scoped shard threads (or the inline loop, as the policy says) over
    /// the feed's own per-shard buffers.
    Sharded(ExecPolicy),
    /// One scoped broadcast ring per pass. The side sinks ride the first
    /// pass run on this engine and see the whole routed stream once.
    Ring(BroadcastOpts, &'e mut [SideSink<'s>]),
    /// A caller-owned persistent worker pool, fed through a fresh ring per
    /// pass. Its shard count must match the feed's.
    Runtime(&'e mut ShardRuntime, BroadcastOpts),
}

/// Answer one round's batch with one pass (the unit step of Theorems 9
/// and 11) on `engine`: `batch` is a one-participant plan with
/// `pass_seed` and `opts.reservoir`. Returns the answers and the pass
/// state's measured footprint.
pub fn answer_batch(
    model: RouterMode,
    batch: &[Query],
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    mut engine: Engine<'_, '_>,
) -> (Vec<Answer>, usize) {
    let plan = RoundPlan::solo(batch.len(), pass_seed, opts.reservoir);
    let stalls = &mut Vec::new();
    run_pass(model, batch, &plan, feed, arena, opts, &mut engine, stalls)
}

/// The step: answer one round's merged `batch` under `plan` with one
/// logical pass on `engine` — split, draw, run every shard's machine,
/// merge. Ring producer stalls past the threshold are appended to
/// `stalls`. Returns the answers and the pass footprint.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_pass(
    model: RouterMode,
    batch: &[Query],
    plan: &RoundPlan,
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    opts: PassOpts,
    engine: &mut Engine<'_, '_>,
    stalls: &mut Vec<StallEvent>,
) -> (Vec<Answer>, usize) {
    let shards = feed.num_shards();
    let policy = match engine {
        Engine::Sharded(policy) => *policy,
        Engine::Ring(bcast, _) | Engine::Runtime(_, bcast) => bcast.policy,
    };
    let setup = begin_pass(
        model,
        batch,
        plan,
        feed,
        arena,
        opts,
        policy.bank_threads(shards),
    );
    let (outcomes, setup) = match engine {
        Engine::Sharded(policy) => {
            feed.begin_pass();
            let outcomes = run_shards(&mut arena.slots[..shards], *policy, |i, slot| {
                let t0 = Instant::now();
                let mut pass = PassMachine::new(slot, &setup);
                pass.feed(feed.shard(i));
                pass.finish(t0.elapsed().as_nanos() as u64)
            });
            (outcomes, setup)
        }
        Engine::Ring(bcast, side) => {
            let side = std::mem::take(side);
            let slots = &mut arena.slots[..shards];
            let outcomes = run_ring(feed, slots, &setup, *bcast, side, stalls);
            (outcomes, setup)
        }
        Engine::Runtime(rt, bcast) => rt.run(feed, arena, setup, *bcast),
    };
    end_pass(setup, batch.len(), feed, arena, outcomes)
}

/// Run every shard worker, threaded or inline per the injected
/// [`ExecPolicy`], collecting outcomes in shard order.
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

/// [`answer_batch`] in the insertion model on [`Engine::Sharded`]. Kept
/// with this name and signature because the benchmark's traced replay
/// calls it.
pub fn answer_insertion_batch_sharded_with_exec(
    batch: &[Query],
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    policy: ExecPolicy,
) -> (Vec<Answer>, usize) {
    let engine = Engine::Sharded(policy);
    answer_batch(
        RouterMode::Insertion,
        batch,
        feed,
        pass_seed,
        arena,
        opts,
        engine,
    )
}

/// [`answer_batch`] in the turnstile model on [`Engine::Sharded`]. Kept
/// with this name and signature because the benchmark's traced replay
/// calls it.
pub fn answer_turnstile_batch_sharded_with_exec(
    batch: &[Query],
    feed: &ShardedFeed,
    pass_seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    policy: ExecPolicy,
) -> (Vec<Answer>, usize) {
    let engine = Engine::Sharded(policy);
    answer_batch(
        RouterMode::Turnstile,
        batch,
        feed,
        pass_seed,
        arena,
        opts,
        engine,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::one_shard_pass;
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
                    let a = one_shard_pass(RouterMode::Insertion, &batch, &ins, pass_seed, opts);
                    let (b, _) = answer_batch(
                        RouterMode::Insertion,
                        &batch,
                        &feed,
                        pass_seed,
                        &mut arena,
                        opts,
                        Engine::Sharded(ExecPolicy::default()),
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
                let opts = PassOpts::default();
                let a = one_shard_pass(RouterMode::Turnstile, &batch, &tst, pass_seed, opts);
                let (b, _) = answer_batch(
                    RouterMode::Turnstile,
                    &batch,
                    &feed,
                    pass_seed,
                    &mut arena,
                    opts,
                    Engine::Sharded(ExecPolicy::default()),
                );
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
        let opts = PassOpts::default();
        let expected = one_shard_pass(RouterMode::Insertion, &batch, &ins, 5, opts);
        let feed = ShardedFeed::partition(&ins, 4);
        let mut arena = RouterArena::new();
        for policy in [ExecPolicy::threaded(), ExecPolicy::serial()] {
            let (got, _) = answer_batch(
                RouterMode::Insertion,
                &batch,
                &feed,
                5,
                &mut arena,
                PassOpts::default(),
                Engine::Sharded(policy),
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
        let opts = PassOpts::default();
        let expected = one_shard_pass(RouterMode::Turnstile, &batch, &tst, 5, opts);
        let feed = ShardedFeed::partition(&tst, 4);
        let mut arena = RouterArena::new();
        for policy in [ExecPolicy::threaded(), ExecPolicy::serial()] {
            let (got, _) = answer_batch(
                RouterMode::Turnstile,
                &batch,
                &feed,
                5,
                &mut arena,
                PassOpts::with_block(64),
                Engine::Sharded(policy),
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
            let engine = Engine::Sharded(ExecPolicy::default());
            let opts = PassOpts::default();
            let _ = answer_batch(
                RouterMode::Insertion,
                &batch,
                &feed,
                pass_seed,
                &mut arena,
                opts,
                engine,
            );
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
        let _ = answer_batch(
            RouterMode::Turnstile,
            &[Query::IthNeighbor(VertexId(0), 1)],
            &feed,
            3,
            &mut arena,
            PassOpts::default(),
            Engine::Sharded(ExecPolicy::default()),
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
        let opts = PassOpts::default();
        let engine = Engine::Sharded(ExecPolicy::default());
        let (a, _) = answer_batch(
            RouterMode::Insertion,
            &batch,
            &feed,
            7,
            &mut arena,
            opts,
            engine,
        );
        let b = one_shard_pass(RouterMode::Insertion, &batch, &ins, 7, opts);
        assert_eq!(a, b);
        assert_eq!(a[0], Answer::EdgeCount(0));
        assert_eq!(a[1], Answer::Edge(None));
    }
}
