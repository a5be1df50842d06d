//! The three executors: query-access, insertion-only streaming
//! (Theorem 9), and turnstile streaming (Theorem 11).
//!
//! All three drive the *same* [`RoundAdaptive`] state machine; they differ
//! only in how each round's query batch is answered:
//!
//! * [`run_on_oracle`] forwards queries to a [`GraphOracle`];
//! * [`run_insertion`] answers each batch with **one pass**: uniform
//!   position sampling for `f1` (distributionally identical to a size-1
//!   reservoir over a fixed-length pass, but O(1) per update), per-vertex
//!   incident-edge reservoirs for relaxed `f3` (exactly uniform in a
//!   simple graph; an SoA [`ReservoirBank`] whose acceptance scheme —
//!   skip-ahead default vs the per-offer oracle — is picked by
//!   [`PassOpts::reservoir`]), arrival-order watchers for indexed `f3`,
//!   and counters/flags for `f2`/`f4` — the proof of Theorem 9;
//! * [`run_turnstile`] answers each batch with **one pass** using
//!   ℓ₀-samplers for `f1` and relaxed `f3`, and deletion-aware counters
//!   and flags for `f2`/`f4` — the proof of Theorem 11. Indexed `f3`
//!   queries are a protocol error in this model (Definition 10
//!   deliberately drops them) and panic.
//!
//! Both streaming executors dispatch each update through one shared
//! [`QueryRouter`]: the whole merged batch of a [`crate::Parallel`]
//! sampler bank is bucketed into per-vertex and per-edge flat indexes at
//! round start, so per-update work is O(1 + hits) regardless of how many
//! trials are pending. The pre-refactor executors survive verbatim in
//! [`crate::reference`]; seeded equivalence tests pin the two
//! byte-identical.
//!
//! `run_insertion`/`run_turnstile` are the **single-shard cases** of the
//! sharded pipeline in [`crate::sharded`]: they partition the stream into
//! one shard and run the same split/route/merge machinery an N-shard
//! execution uses. The per-batch entry points
//! [`answer_insertion_batch`] / [`answer_turnstile_batch`] keep the
//! direct single-stream implementation — they are the seam benchmarks
//! and sharded drivers merge through, and the baseline the sharded path
//! is measured against.
//!
//! Executors never contribute algorithm randomness: the per-pass sketch
//! seeds only decide *which* uniform sample each query receives, mirroring
//! the oracle's own sampling coins.

use crate::accounting::ExecReport;
use crate::arena::RouterArena;
use crate::oracle::GraphOracle;
use crate::query::{Answer, Query};
use crate::round::RoundAdaptive;
use crate::router::{QueryRouter, RouterMode};
use crate::sharded::run_turnstile_sharded;
use sgs_graph::{Edge, VertexId};
use sgs_stream::hash::{split_seed, FastRng};
use sgs_stream::l0::{BankFeed, L0Mode, L0Sampler, BANK_SUPER_BLOCK};
use sgs_stream::reservoir::{ReservoirBank, ReservoirMode};
use sgs_stream::{EdgeStream, ShardedFeed, SpaceUsage};

/// Bytes charged per retained answer (Theorem 9's `O(q log n)` term).
pub(crate) const ANSWER_BYTES: usize = 16;

/// Default feed block size for the blocked (batched-probe, lane-loop)
/// hot path. Big enough to amortize the per-block staging (two batched
/// index probes, one ℓ₀ base-hash chunk walk) and keep ~8-lane pipelines
/// full past remainder effects, small enough that per-block scratch
/// (3 keys + 3 group ids per update) stays L1-resident. `0` (or `1`)
/// selects the scalar per-update path — `BENCH_feedpath.json` records
/// both, and `sgs count --block N` exposes the knob end to end.
pub const DEFAULT_BLOCK: usize = 128;

/// Feed-path tuning knobs threaded through every insertion executor
/// entry point (`*_with_opts`), the sharded drivers, `sgs-core`'s
/// estimators, and `sgs count`.
///
/// `block` is the PR-3 feed block size (`<= 1` = scalar per-update
/// path; byte-identical either way). `reservoir` picks the relaxed-`f3`
/// sampler's acceptance scheme: [`ReservoirMode::Skip`] (default) does
/// one RNG draw per *acceptance* via the exact skip-ahead inverse
/// transform — `O(k + accepts)` per delivery block instead of one draw
/// per sampler per offer — while [`ReservoirMode::Offer`] replays the
/// per-offer scalar oracle (byte-identical to the frozen
/// `crate::reference` executors, kept as the distribution-equivalence
/// baseline). The two modes consume different coins, so they are
/// distribution-equivalent, not byte-identical; `seen()` accounting and
/// every non-sampler answer are exact in both.
///
/// `l0` picks the turnstile ℓ₀-bank feed path (insertion passes carry
/// no ℓ₀ state and ignore it): [`L0Mode::Dispatch`] (default) walks
/// only the survivor-level prefix of each repetition, with level-cohort
/// slicing on blocked feeds; [`L0Mode::Predicated`] is the PR-3
/// full-bank masked scan. The two paths are **byte-identical** — same
/// draws, same wrapping sums — at every shard count, block size,
/// engine, and under recovery.
#[derive(Clone, Copy, Debug)]
pub struct PassOpts {
    /// Feed block size; `<= 1` selects the scalar per-update path.
    pub block: usize,
    /// Relaxed-`f3` reservoir acceptance scheme (insertion model only —
    /// turnstile `f3` runs on ℓ₀-samplers and ignores this).
    pub reservoir: ReservoirMode,
    /// Turnstile ℓ₀-bank feed path (turnstile model only).
    pub l0: L0Mode,
}

impl Default for PassOpts {
    fn default() -> Self {
        PassOpts {
            block: DEFAULT_BLOCK,
            reservoir: ReservoirMode::default(),
            l0: L0Mode::default(),
        }
    }
}

impl PassOpts {
    /// Default opts with an explicit feed block size.
    pub fn with_block(block: usize) -> Self {
        PassOpts {
            block,
            ..Default::default()
        }
    }

    /// Default opts with an explicit reservoir mode.
    pub fn with_reservoir(reservoir: ReservoirMode) -> Self {
        PassOpts {
            reservoir,
            ..Default::default()
        }
    }

    /// Default opts with an explicit ℓ₀ feed path.
    pub fn with_l0(l0: L0Mode) -> Self {
        PassOpts {
            l0,
            ..Default::default()
        }
    }

    /// Builder-style override of the ℓ₀ feed path.
    pub fn l0(self, l0: L0Mode) -> Self {
        PassOpts { l0, ..self }
    }

    /// Builder-style override of the reservoir acceptance scheme.
    pub fn reservoir(self, reservoir: ReservoirMode) -> Self {
        PassOpts { reservoir, ..self }
    }

    /// The statistical-oracle configuration: scalar feed, per-offer
    /// reservoirs, predicated ℓ₀ scans — the exact instruction sequence
    /// of the frozen reference executors.
    pub fn oracle() -> Self {
        PassOpts {
            block: 0,
            reservoir: ReservoirMode::Offer,
            l0: L0Mode::Predicated,
        }
    }
}

/// A pass-emulation state that can absorb the stream either per update
/// (scalar) or per block (batched probes / lane loops) — the two
/// byte-identical feed paths [`replay_blocked`] switches between.
pub(crate) trait BlockFeed {
    fn feed(&mut self, u: sgs_stream::EdgeUpdate);
    fn feed_block(&mut self, block: &[sgs_stream::EdgeUpdate]);
}

/// Drive a replayable stream through a pass state in blocks of `block`
/// updates (remainder block included); `block <= 1` is the scalar path.
/// Sources that expose their update buffer are chunked in place (zero
/// copies); everything else is buffered through the replay callback.
pub(crate) fn replay_blocked(stream: &impl EdgeStream, block: usize, pass: &mut impl BlockFeed) {
    if block <= 1 {
        stream.replay(&mut |u| pass.feed(u));
        return;
    }
    if let Some(updates) = stream.as_updates() {
        for chunk in updates.chunks(block) {
            pass.feed_block(chunk);
        }
        return;
    }
    let mut buf: Vec<sgs_stream::EdgeUpdate> = Vec::with_capacity(block.min(stream.len()));
    stream.replay(&mut |u| {
        buf.push(u);
        if buf.len() == block {
            pass.feed_block(&buf);
            buf.clear();
        }
    });
    if !buf.is_empty() {
        pass.feed_block(&buf);
    }
}

/// Sort `f1` position targets by `(position, slot)`. Positions live in
/// `0..stream_len`, so when a counting table is affordable a two-pass
/// bucket sort beats the comparison sort that dominates round-1 setup at
/// large trial counts. Targets arrive slot-ascending, so bucketing is
/// stable in exactly the comparison order.
pub(crate) fn sort_targets(targets: &mut Vec<(u64, u32)>, stream_len: u64) {
    if targets.is_empty() {
        return;
    }
    if stream_len > 4 * targets.len() as u64 + 1024 {
        targets.sort_unstable();
        return;
    }
    let mut counts = vec![0u32; stream_len as usize + 1];
    for &(pos, _) in targets.iter() {
        counts[pos as usize + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let mut sorted = vec![(0u64, 0u32); targets.len()];
    for &(pos, slot) in targets.iter() {
        sorted[counts[pos as usize] as usize] = (pos, slot);
        counts[pos as usize] += 1;
    }
    *targets = sorted;
}

/// Execute against a query oracle; returns the output and the adaptivity
/// actually used.
pub fn run_on_oracle<A: RoundAdaptive>(
    mut alg: A,
    oracle: &mut impl GraphOracle,
) -> (A::Output, ExecReport) {
    let mut report = ExecReport::default();
    let mut answers: Vec<Answer> = Vec::new();
    loop {
        let batch = alg.next_round(&answers);
        if batch.is_empty() {
            break;
        }
        report.rounds += 1;
        report.queries += batch.len();
        report.answer_bytes += batch.len() * ANSWER_BYTES;
        answers = batch.into_iter().map(|q| oracle.answer(q)).collect();
    }
    (alg.output(), report)
}

/// Per-pass state for the insertion-only model: the shared router plus
/// the model-specific `f1` position cursor and `f3` reservoirs.
struct InsertionPass {
    router: QueryRouter,
    /// `f1`: (target stream position, query slot), sorted by position.
    /// Sampling a uniform position is exactly the distribution of a
    /// size-1 reservoir over a fixed-length pass.
    targets: Vec<(u64, u32)>,
    cursor: usize,
    update_idx: u64,
    edge_hits: Vec<(u32, Edge)>,
    /// Relaxed `f3`: an SoA reservoir bank, one lane per pooled neighbor
    /// slot, aligned with [`QueryRouter::neighbor_slots`]. Router
    /// deliveries hand the bank contiguous lane ranges, so skip mode
    /// pays a countdown compare per pooled sampler instead of an RNG
    /// draw per offer.
    reservoirs: ReservoirBank<Edge>,
}

impl InsertionPass {
    fn build(batch: &[Query], stream_len: u64, pass_seed: u64, reservoir: ReservoirMode) -> Self {
        let router = QueryRouter::build(batch, RouterMode::Insertion);
        // f1 position draws are consumed in batch order from the pass rng
        // (`edge_slots` preserves batch order), matching the reference
        // executor coin-for-coin.
        let mut rng = FastRng::seed_from_u64(pass_seed);
        let mut targets = Vec::with_capacity(router.edge_slots().len());
        if stream_len > 0 {
            for &slot in router.edge_slots() {
                targets.push((rng.gen_range(0..stream_len), slot));
            }
        }
        sort_targets(&mut targets, stream_len);
        let mut reservoirs = ReservoirBank::from_seeds(
            router
                .neighbor_slots()
                .iter()
                .map(|&slot| split_seed(pass_seed, slot as u64)),
            reservoir,
        );
        // Each pooled vertex group is a cohort: its lanes always receive
        // offers together, so a skip-mode delivery is one clock-vs-min
        // compare instead of a per-lane plane walk.
        reservoirs.bind_cohorts(router.neighbor_group_ranges());
        InsertionPass {
            router,
            targets,
            cursor: 0,
            update_idx: 0,
            edge_hits: Vec::new(),
            reservoirs,
        }
    }

    #[inline]
    fn feed(&mut self, u: sgs_stream::EdgeUpdate) {
        debug_assert!(u.is_insert(), "insertion executor fed a deletion");
        while self.cursor < self.targets.len() && self.targets[self.cursor].0 == self.update_idx {
            self.edge_hits.push((self.targets[self.cursor].1, u.edge));
            self.cursor += 1;
        }
        self.update_idx += 1;
        let edge = u.edge;
        let reservoirs = &mut self.reservoirs;
        self.router.feed(u, |s, e| {
            reservoirs.offer_cohort(s as usize, e as usize, edge)
        });
    }

    /// Blocked sibling of [`InsertionPass::feed`]: position targets are
    /// matched per update (they are position-keyed, not probe-keyed),
    /// then the whole block goes through the router's batched-probe
    /// path. Reservoir offer sequences are unchanged — the router drains
    /// blocks in stream order.
    fn feed_block(&mut self, block: &[sgs_stream::EdgeUpdate]) {
        for u in block {
            debug_assert!(u.is_insert(), "insertion executor fed a deletion");
            while self.cursor < self.targets.len() && self.targets[self.cursor].0 == self.update_idx
            {
                self.edge_hits.push((self.targets[self.cursor].1, u.edge));
                self.cursor += 1;
            }
            self.update_idx += 1;
        }
        let reservoirs = &mut self.reservoirs;
        self.router.feed_block(block, |j, s, e| {
            reservoirs.offer_cohort(s as usize, e as usize, block[j].edge)
        });
    }

    fn space_bytes(&self) -> usize {
        self.router.space_bytes() + self.targets.len() * 16 + self.reservoirs.space_bytes()
    }
}

impl BlockFeed for InsertionPass {
    fn feed(&mut self, u: sgs_stream::EdgeUpdate) {
        InsertionPass::feed(self, u);
    }

    fn feed_block(&mut self, block: &[sgs_stream::EdgeUpdate]) {
        InsertionPass::feed_block(self, block);
    }
}

impl InsertionPass {
    fn into_answers(self) -> Vec<Answer> {
        let mut answers = vec![Answer::Edge(None); self.router.batch_len()];
        for &(slot, e) in &self.edge_hits {
            answers[slot as usize] = Answer::Edge(Some(e));
        }
        for ((&slot, v), res) in self
            .router
            .neighbor_slots()
            .iter()
            .zip(self.router.neighbor_vertices())
            .zip(self.reservoirs.samples_iter())
        {
            answers[slot as usize] = Answer::Neighbor(res.map(|e| e.other(v)));
        }
        self.router.distribute(&mut answers);
        answers
    }
}

/// Answer one round's batch with one insertion-only pass (the unit step
/// of Theorem 9). Returns the answers and the pass state's measured
/// footprint. Exposed so benchmarks and sharded drivers can exercise the
/// pass emulation directly.
pub fn answer_insertion_batch(
    batch: &[Query],
    stream: &impl EdgeStream,
    pass_seed: u64,
) -> (Vec<Answer>, usize) {
    answer_insertion_batch_with_opts(batch, stream, pass_seed, PassOpts::default())
}

/// [`answer_insertion_batch`] with an explicit feed block size:
/// `block <= 1` replays the scalar per-update path, anything larger
/// feeds the pass in blocks of `block` updates (batched index probes,
/// remainder block included). Answers are byte-identical either way
/// (the reservoir mode stays the default for every block size).
pub fn answer_insertion_batch_with_block(
    batch: &[Query],
    stream: &impl EdgeStream,
    pass_seed: u64,
    block: usize,
) -> (Vec<Answer>, usize) {
    answer_insertion_batch_with_opts(batch, stream, pass_seed, PassOpts::with_block(block))
}

/// [`answer_insertion_batch`] with full feed-path options: block size
/// plus the relaxed-`f3` reservoir mode (see [`PassOpts`]).
pub fn answer_insertion_batch_with_opts(
    batch: &[Query],
    stream: &impl EdgeStream,
    pass_seed: u64,
    opts: PassOpts,
) -> (Vec<Answer>, usize) {
    let mut pass = InsertionPass::build(batch, stream.len() as u64, pass_seed, opts.reservoir);
    replay_blocked(stream, opts.block, &mut pass);
    let space = pass.space_bytes();
    (pass.into_answers(), space)
}

/// Diagnostic twin of [`answer_insertion_batch_with_opts`]: run the same
/// pass and report how many RNG draws the relaxed-`f3` reservoir bank
/// consumed. The acceptance criteria for the skip-ahead rework are
/// stated in *counted* draws per pass (`Θ(k·m)` per-offer vs
/// `O(k·log m)` skip-ahead); `benches/reservoir.rs` records both modes
/// through this seam.
pub fn insertion_pass_reservoir_draws(
    batch: &[Query],
    stream: &impl EdgeStream,
    pass_seed: u64,
    opts: PassOpts,
) -> u64 {
    let mut pass = InsertionPass::build(batch, stream.len() as u64, pass_seed, opts.reservoir);
    replay_blocked(stream, opts.block, &mut pass);
    pass.reservoirs.rng_draws()
}

/// Execute as an insertion-only streaming algorithm: one pass per round
/// (Theorem 9).
///
/// Since the sharded-pipeline refactor this is the thin single-shard case
/// of [`crate::sharded::run_insertion_sharded`]: the stream is
/// partitioned into one shard and each round is answered through the
/// sharded driver (which at one shard replays the feed straight through
/// [`answer_insertion_batch`], keeping the direct per-pass cost).
///
/// The partition buffers the stream's updates once (driver-side harness
/// state, like the replayable stream object itself — *not* counted in
/// `max_pass_space_bytes`, which keeps reporting only the Theorem-9
/// pass-emulation state) and stores positions as `u32`. Callers that run
/// many executions over one stream should partition once themselves and
/// call [`crate::sharded::run_insertion_sharded`] with a shared feed and
/// arena.
pub fn run_insertion<A: RoundAdaptive>(
    alg: A,
    stream: &impl EdgeStream,
    seed: u64,
) -> (A::Output, ExecReport) {
    run_insertion_with_opts(alg, stream, seed, PassOpts::default())
}

/// [`run_insertion`] with explicit feed-path options — the seam the
/// distribution-equivalence suite uses to replay the per-offer oracle
/// (`PassOpts::oracle()`) against the skip-ahead default.
pub fn run_insertion_with_opts<A: RoundAdaptive>(
    alg: A,
    stream: &impl EdgeStream,
    seed: u64,
    opts: PassOpts,
) -> (A::Output, ExecReport) {
    let feed = ShardedFeed::partition(stream, 1);
    let mut arena = RouterArena::new();
    crate::sharded::run_insertion_sharded_with_opts(alg, &feed, seed, &mut arena, opts)
}

/// Per-pass state for the turnstile model: the shared router plus one
/// ℓ₀-sampler per `f1` slot and per pooled neighbor slot.
struct TurnstilePass {
    router: QueryRouter,
    edge_samplers: Vec<L0Sampler>,
    nbr_samplers: Vec<L0Sampler>,
    /// The vertex each pooled neighbor sampler listens on.
    nbr_verts: Vec<VertexId>,
    /// Blocked-feed scratch: the current block as `(edge key, delta)`
    /// pairs, queued on the `f1` bank feed.
    kd_scratch: Vec<(u64, i64)>,
    /// ℓ₀-bank feed path; bit-identical either way ([`PassOpts::l0`]).
    l0: L0Mode,
    /// Router probe block size ([`PassOpts::block`]).
    block: usize,
    /// Threads each `f1` bank sweep may use ([`BankFeed::new`]).
    bank_threads: usize,
}

impl TurnstilePass {
    fn build(
        batch: &[Query],
        n: usize,
        pass_seed: u64,
        opts: PassOpts,
        bank_threads: usize,
    ) -> Self {
        let router = QueryRouter::build(batch, RouterMode::Turnstile);
        let edge_samplers = router
            .edge_slots()
            .iter()
            .map(|&slot| L0Sampler::for_edge_domain(n, split_seed(pass_seed, slot as u64)))
            .collect();
        let nbr_samplers = router
            .neighbor_slots()
            .iter()
            .map(|&slot| L0Sampler::for_edge_domain(n, split_seed(pass_seed, slot as u64)))
            .collect();
        let nbr_verts = router.neighbor_vertices().collect();
        TurnstilePass {
            router,
            edge_samplers,
            nbr_samplers,
            nbr_verts,
            kd_scratch: Vec::new(),
            l0: opts.l0,
            block: opts.block,
            bank_threads,
        }
    }

    #[inline]
    fn feed(&mut self, u: sgs_stream::EdgeUpdate) {
        let d = u.delta as i64;
        let key = u.edge.key();
        let l0 = self.l0;
        // Every f1 sampler summarizes the whole edge domain, so each one
        // absorbs every update — inherent to ℓ₀-sampling, not routing.
        for s in &mut self.edge_samplers {
            s.update_with(l0, key, d);
        }
        let edge = u.edge;
        let nbr_samplers = &mut self.nbr_samplers;
        let nbr_verts = &self.nbr_verts;
        self.router.feed(u, |s, e| {
            for i in s as usize..e as usize {
                nbr_samplers[i].update_with(l0, edge.other(nbr_verts[i]).0 as u64, d);
            }
        });
    }

    /// Blocked sibling of [`TurnstilePass::feed`], handed a run of whole
    /// blocks ([`bank_run`]). The `f1` bank takes the run through one
    /// bank-wide feed, which sweeps it *samplers outer, updates inner*
    /// per super-block — each ℓ₀-bank's SoA planes stay cache-hot
    /// instead of every bank cycling through cache per block. Detector
    /// fields are additive, so the reordering is bit-identical, not just
    /// distributionally so. The router drains the run block by block.
    fn feed_block(&mut self, run: &[sgs_stream::EdgeUpdate]) {
        let l0 = self.l0;
        let mut f1 = BankFeed::new(&mut self.edge_samplers, l0, self.bank_threads);
        let nbr_samplers = &mut self.nbr_samplers;
        let nbr_verts = &self.nbr_verts;
        for block in run.chunks(self.block) {
            self.kd_scratch.clear();
            self.kd_scratch
                .extend(block.iter().map(|u| (u.edge.key(), u.delta as i64)));
            f1.push(&self.kd_scratch);
            self.router.feed_block(block, |j, s, e| {
                let u = block[j];
                for i in s as usize..e as usize {
                    nbr_samplers[i].update_with(
                        l0,
                        u.edge.other(nbr_verts[i]).0 as u64,
                        u.delta as i64,
                    );
                }
            });
        }
        f1.finish();
    }

    fn space_bytes(&self) -> usize {
        self.router.space_bytes()
            + self
                .edge_samplers
                .iter()
                .chain(&self.nbr_samplers)
                .map(|s| s.space_bytes())
                .sum::<usize>()
            // Blocked-feed scratch is real pass state: one (key, delta)
            // pair per update of the current block.
            + self.kd_scratch.capacity() * std::mem::size_of::<(u64, i64)>()
    }
}

impl BlockFeed for TurnstilePass {
    fn feed(&mut self, u: sgs_stream::EdgeUpdate) {
        TurnstilePass::feed(self, u);
    }

    fn feed_block(&mut self, block: &[sgs_stream::EdgeUpdate]) {
        TurnstilePass::feed_block(self, block);
    }
}

impl TurnstilePass {
    fn into_answers(self) -> Vec<Answer> {
        let mut answers = vec![Answer::Edge(None); self.router.batch_len()];
        for (&slot, s) in self.router.edge_slots().iter().zip(&self.edge_samplers) {
            answers[slot as usize] = Answer::Edge(s.sample().map(Edge::from_key));
        }
        for (&slot, s) in self.router.neighbor_slots().iter().zip(&self.nbr_samplers) {
            answers[slot as usize] = Answer::Neighbor(s.sample().map(|k| VertexId(k as u32)));
        }
        self.router.distribute(&mut answers);
        answers
    }
}

/// The run length a blocked turnstile pass is replayed in: the most whole
/// `block`s that fit one ℓ₀ bank super-block, and at least one. The
/// router still probes `block` at a time; the `f1` bank sweeps once per
/// run instead of once per block. `block <= 1` stays the scalar path.
fn bank_run(block: usize) -> usize {
    if block <= 1 {
        return block;
    }
    (BANK_SUPER_BLOCK / block).max(1) * block
}

/// Answer one round's batch with one turnstile pass (the unit step of
/// Theorem 11). Returns the answers and the pass state's measured
/// footprint.
pub fn answer_turnstile_batch(
    batch: &[Query],
    stream: &impl EdgeStream,
    pass_seed: u64,
) -> (Vec<Answer>, usize) {
    answer_turnstile_batch_with_opts(batch, stream, pass_seed, PassOpts::default())
}

/// [`answer_turnstile_batch`] with an explicit feed block size; see
/// [`answer_insertion_batch_with_block`].
pub fn answer_turnstile_batch_with_block(
    batch: &[Query],
    stream: &impl EdgeStream,
    pass_seed: u64,
    block: usize,
) -> (Vec<Answer>, usize) {
    answer_turnstile_batch_with_opts(batch, stream, pass_seed, PassOpts::with_block(block))
}

/// [`answer_turnstile_batch`] with full feed-path options: block size
/// plus the ℓ₀-bank feed path ([`PassOpts::l0`]). Answers are
/// byte-identical across every option combination. The `f1` bank is
/// swept on the calling thread alone.
pub fn answer_turnstile_batch_with_opts(
    batch: &[Query],
    stream: &impl EdgeStream,
    pass_seed: u64,
    opts: PassOpts,
) -> (Vec<Answer>, usize) {
    turnstile_batch_pass(batch, stream, pass_seed, opts, 1)
}

/// [`answer_turnstile_batch_with_opts`] with each `f1` bank sweep split
/// over up to `bank_threads` threads; the answers and the footprint are
/// the same for every thread count.
pub(crate) fn turnstile_batch_pass(
    batch: &[Query],
    stream: &impl EdgeStream,
    pass_seed: u64,
    opts: PassOpts,
    bank_threads: usize,
) -> (Vec<Answer>, usize) {
    let mut pass =
        TurnstilePass::build(batch, stream.num_vertices(), pass_seed, opts, bank_threads);
    replay_blocked(stream, bank_run(opts.block), &mut pass);
    let space = pass.space_bytes();
    (pass.into_answers(), space)
}

/// Execute as a turnstile streaming algorithm: one pass per round
/// (Theorem 11).
///
/// The thin single-shard case of
/// [`crate::sharded::run_turnstile_sharded`]; see [`run_insertion`].
pub fn run_turnstile<A: RoundAdaptive>(
    alg: A,
    stream: &impl EdgeStream,
    seed: u64,
) -> (A::Output, ExecReport) {
    let feed = ShardedFeed::partition(stream, 1);
    let mut arena = RouterArena::new();
    run_turnstile_sharded(alg, &feed, seed, &mut arena)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactOracle;
    use crate::reference::{run_insertion_reference, run_turnstile_reference};
    use sgs_graph::{gen, StaticGraph};
    use sgs_stream::{InsertionStream, TurnstileStream};

    /// Asks a degree, then that many adjacency checks (2 rounds).
    struct DegreeThenProbe {
        v: VertexId,
        stage: u8,
        deg: usize,
        present: usize,
    }

    impl DegreeThenProbe {
        fn new(v: VertexId) -> Self {
            DegreeThenProbe {
                v,
                stage: 0,
                deg: 0,
                present: 0,
            }
        }
    }

    impl RoundAdaptive for DegreeThenProbe {
        type Output = (usize, usize);

        fn next_round(&mut self, answers: &[Answer]) -> Vec<Query> {
            match self.stage {
                0 => {
                    self.stage = 1;
                    vec![Query::Degree(self.v)]
                }
                1 => {
                    self.deg = answers[0].expect_degree();
                    self.stage = 2;
                    (0..self.deg as u32)
                        .filter(|&u| u != self.v.0)
                        .map(|u| Query::Adjacent(self.v, VertexId(u)))
                        .collect()
                }
                _ => {
                    if self.stage == 2 {
                        self.present = answers.iter().filter(|a| a.expect_adjacent()).count();
                        self.stage = 3;
                    }
                    Vec::new()
                }
            }
        }

        fn output(&mut self) -> (usize, usize) {
            (self.deg, self.present)
        }
    }

    #[test]
    fn oracle_and_streams_agree_on_deterministic_queries() {
        let g = gen::gnm(30, 120, 3);
        let ins = InsertionStream::from_graph(&g, 4);
        let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 5);
        let v = VertexId(7);

        let mut oracle = ExactOracle::new(&g, 1);
        let (o_out, o_rep) = run_on_oracle(DegreeThenProbe::new(v), &mut oracle);
        let (i_out, i_rep) = run_insertion(DegreeThenProbe::new(v), &ins, 2);
        let (t_out, t_rep) = run_turnstile(DegreeThenProbe::new(v), &tst, 3);

        assert_eq!(o_out, i_out);
        assert_eq!(o_out, t_out);
        assert_eq!(o_rep.rounds, 2);
        assert_eq!(i_rep.passes, 2);
        assert_eq!(t_rep.passes, 2);
        assert_eq!(o_rep.passes, 0);
    }

    /// One round, one random edge (plus the edge count).
    struct OneEdge {
        asked: bool,
        got: Option<Edge>,
        m: usize,
    }

    impl OneEdge {
        fn new() -> Self {
            OneEdge {
                asked: false,
                got: None,
                m: 0,
            }
        }
    }

    impl RoundAdaptive for OneEdge {
        type Output = (Option<Edge>, usize);

        fn next_round(&mut self, answers: &[Answer]) -> Vec<Query> {
            if self.asked {
                self.got = answers[0].expect_edge();
                self.m = answers[1].expect_edge_count();
                return Vec::new();
            }
            self.asked = true;
            vec![Query::RandomEdge, Query::EdgeCount]
        }

        fn output(&mut self) -> Self::Output {
            (self.got, self.m)
        }
    }

    fn edge_distribution<F: Fn(u64) -> Option<Edge>>(trials: u64, run: F) -> Vec<(u64, u32)> {
        let mut counts = std::collections::HashMap::new();
        for t in 0..trials {
            if let Some(e) = run(t) {
                *counts.entry(e.key()).or_insert(0u32) += 1;
            }
        }
        let mut v: Vec<(u64, u32)> = counts.into_iter().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn random_edge_uniform_across_executors() {
        let g = gen::gnm(12, 16, 8);
        let ins = InsertionStream::from_graph(&g, 9);
        let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 10);
        let trials = 8000u64;

        let ins_d = edge_distribution(trials, |t| run_insertion(OneEdge::new(), &ins, t).0 .0);
        let tst_d = edge_distribution(trials, |t| run_turnstile(OneEdge::new(), &tst, t).0 .0);

        assert_eq!(ins_d.len(), 16);
        for &(_, c) in &ins_d {
            let dev = (c as f64 - trials as f64 / 16.0).abs() / (trials as f64 / 16.0);
            assert!(dev < 0.2, "insertion deviation {dev}");
        }
        assert_eq!(tst_d.len(), 16);
        let total: u32 = tst_d.iter().map(|&(_, c)| c).sum();
        for &(k, c) in &tst_d {
            let e = Edge::from_key(k);
            assert!(g.has_edge(e.u(), e.v()), "sampled deleted edge {e:?}");
            let dev = (c as f64 - total as f64 / 16.0).abs() / (total as f64 / 16.0);
            assert!(dev < 0.25, "turnstile deviation {dev} for {e:?}");
        }
    }

    #[test]
    fn edge_count_correct_in_all_executors() {
        let g = gen::gnm(30, 77, 2);
        let ins = InsertionStream::from_graph(&g, 3);
        let tst = TurnstileStream::from_graph_with_churn(&g, 2.0, 4);
        let mut oracle = ExactOracle::new(&g, 5);
        assert_eq!(run_on_oracle(OneEdge::new(), &mut oracle).0 .1, 77);
        assert_eq!(run_insertion(OneEdge::new(), &ins, 6).0 .1, 77);
        assert_eq!(run_turnstile(OneEdge::new(), &tst, 7).0 .1, 77);
    }

    /// One round: random neighbor of v.
    struct OneNeighbor {
        v: VertexId,
        asked: bool,
        got: Option<VertexId>,
    }

    impl RoundAdaptive for OneNeighbor {
        type Output = Option<VertexId>;

        fn next_round(&mut self, answers: &[Answer]) -> Vec<Query> {
            if self.asked {
                self.got = answers[0].expect_neighbor();
                return Vec::new();
            }
            self.asked = true;
            vec![Query::RandomNeighbor(self.v)]
        }

        fn output(&mut self) -> Option<VertexId> {
            self.got
        }
    }

    #[test]
    fn random_neighbor_lands_on_true_neighbors() {
        let g = gen::gnm(20, 60, 11);
        let tst = TurnstileStream::from_graph_with_churn(&g, 1.5, 12);
        let v = VertexId(3);
        let mut seen = std::collections::HashSet::new();
        for t in 0..400u64 {
            let (out, _) = run_turnstile(
                OneNeighbor {
                    v,
                    asked: false,
                    got: None,
                },
                &tst,
                t,
            );
            if let Some(u) = out {
                assert!(g.has_edge(v, u), "{u:?} is not a neighbor of {v:?}");
                seen.insert(u);
            }
        }
        assert_eq!(seen.len(), g.degree(v));
    }

    #[test]
    fn insertion_random_neighbor_uniform() {
        let g = gen::star_graph(6); // center 0 with 6 petals
        let ins = InsertionStream::from_graph(&g, 13);
        let mut counts = std::collections::HashMap::new();
        let trials = 6000u64;
        for t in 0..trials {
            let (out, _) = run_insertion(
                OneNeighbor {
                    v: VertexId(0),
                    asked: false,
                    got: None,
                },
                &ins,
                t,
            );
            *counts.entry(out.unwrap().0).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 6);
        for (&u, &c) in &counts {
            let dev = (c as f64 - 1000.0).abs() / 1000.0;
            assert!(dev < 0.2, "petal {u}: {c}");
        }
    }

    #[test]
    #[should_panic(expected = "IthNeighbor is not available")]
    fn turnstile_rejects_indexed_neighbor_queries() {
        struct Bad;
        impl RoundAdaptive for Bad {
            type Output = ();
            fn next_round(&mut self, _: &[Answer]) -> Vec<Query> {
                vec![Query::IthNeighbor(VertexId(0), 1)]
            }
            fn output(&mut self) {}
        }
        let g = gen::gnm(5, 5, 1);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.0, 2);
        let _ = run_turnstile(Bad, &tst, 3);
    }

    #[test]
    fn space_reported() {
        let g = gen::gnm(30, 120, 3);
        let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 5);
        let (_, rep) = run_turnstile(OneEdge::new(), &tst, 2);
        assert!(rep.max_pass_space_bytes > 0);
        assert!(rep.answer_bytes > 0);
        assert_eq!(rep.queries, 2);
    }

    #[test]
    fn multiple_edge_queries_get_independent_samples() {
        struct ManyEdges {
            asked: bool,
            edges: Vec<Option<Edge>>,
        }
        impl RoundAdaptive for ManyEdges {
            type Output = Vec<Option<Edge>>;
            fn next_round(&mut self, answers: &[Answer]) -> Vec<Query> {
                if self.asked {
                    self.edges = answers.iter().map(|a| a.expect_edge()).collect();
                    return Vec::new();
                }
                self.asked = true;
                vec![Query::RandomEdge; 64]
            }
            fn output(&mut self) -> Self::Output {
                std::mem::take(&mut self.edges)
            }
        }
        let g = gen::gnm(40, 200, 14);
        let ins = InsertionStream::from_graph(&g, 15);
        let (edges, _) = run_insertion(
            ManyEdges {
                asked: false,
                edges: vec![],
            },
            &ins,
            16,
        );
        assert_eq!(edges.len(), 64);
        assert!(edges.iter().all(|e| e.is_some()));
        let distinct: std::collections::HashSet<u64> =
            edges.iter().map(|e| e.unwrap().key()).collect();
        assert!(distinct.len() > 16, "64 samples over 200 edges should vary");
    }

    /// A mixed-kind batch covering every query type the model allows,
    /// compared slot-for-slot against the reference executor.
    struct MixedBatch {
        indexed: bool,
        asked: bool,
        got: Vec<Answer>,
    }

    impl RoundAdaptive for MixedBatch {
        type Output = Vec<Answer>;

        fn next_round(&mut self, answers: &[Answer]) -> Vec<Query> {
            if self.asked {
                self.got = answers.to_vec();
                return Vec::new();
            }
            self.asked = true;
            let mut qs = vec![Query::EdgeCount, Query::RandomEdge];
            for v in 0..10u32 {
                qs.push(Query::Degree(VertexId(v % 5)));
                qs.push(Query::RandomNeighbor(VertexId(v)));
                qs.push(Query::Adjacent(VertexId(v), VertexId(v + 1)));
                if self.indexed {
                    qs.push(Query::IthNeighbor(VertexId(v), (v as u64 % 4) + 1));
                }
                qs.push(Query::RandomEdge);
            }
            qs
        }

        fn output(&mut self) -> Vec<Answer> {
            std::mem::take(&mut self.got)
        }
    }

    #[test]
    fn router_matches_reference_on_mixed_insertion_batches() {
        // Byte-identity vs the frozen reference requires the per-offer
        // reservoir oracle (skip mode consumes a different coin
        // sequence by design; its equivalence is distributional and
        // pinned in tests/reservoir_equivalence.rs). The blocked feed
        // path is byte-identical within a mode, so run it blocked.
        let g = gen::gnm(25, 90, 17);
        let ins = InsertionStream::from_graph(&g, 18);
        for seed in 0..30u64 {
            let new = MixedBatch {
                indexed: true,
                asked: false,
                got: vec![],
            };
            let old = MixedBatch {
                indexed: true,
                asked: false,
                got: vec![],
            };
            let (a, ra) = run_insertion_with_opts(
                new,
                &ins,
                seed,
                PassOpts::with_reservoir(ReservoirMode::Offer),
            );
            let (b, rb) = run_insertion_reference(old, &ins, seed);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(ra.queries, rb.queries);
            assert_eq!(ra.passes, rb.passes);
        }
    }

    #[test]
    fn router_matches_reference_on_mixed_turnstile_batches() {
        let g = gen::gnm(25, 90, 19);
        let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 20);
        for seed in 0..30u64 {
            let new = MixedBatch {
                indexed: false,
                asked: false,
                got: vec![],
            };
            let old = MixedBatch {
                indexed: false,
                asked: false,
                got: vec![],
            };
            let (a, _) = run_turnstile(new, &tst, seed);
            let (b, _) = run_turnstile_reference(old, &tst, seed);
            assert_eq!(a, b, "seed {seed}");
        }
    }
}
