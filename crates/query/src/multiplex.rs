//! Multi-query multiplexing: one shared pass serves many concurrent
//! queries.
//!
//! Every executor so far owns its passes — N concurrent round-adaptive
//! algorithms cost N full replays of the stream per round. But nothing a
//! pass computes couples one query to another: the router's FlatIndex is
//! query-agnostic, `f1` targets are drawn from per-pass coins, and every
//! sampler lane is seeded by its own batch slot. So a [`QuerySet`]
//! admission-batches arriving jobs (different patterns, trial counts,
//! reservoir modes, seeds) into **rounds**, concatenates each round's
//! per-job batches into one merged batch, builds ONE shared
//! QueryRouter/FlatIndex pass per round, and fans each delivery out to
//! every active job's sampler banks. N queries now cost `max_j rounds_j`
//! shared passes instead of `Σ_j rounds_j` private ones.
//!
//! **Per-job answers are byte-identical to solo runs** — at any shard
//! count, block size, and schedule — because the multiplexer replays
//! each job's private coin chain exactly:
//!
//! * a job's pass seed is `split_seed(job_seed, job_passes)` where
//!   `job_passes` counts only the rounds *this job* participates in —
//!   the same chain [`crate::sharded::run_insertion_sharded`] walks;
//! * `f1` targets are drawn per job from `FastRng(job_pass_seed)` in the
//!   job's own batch order — the exact coin sequence of its solo pass —
//!   then merged across jobs by position for cursor matching (hits
//!   scatter to disjoint slots, so merge order cannot leak between
//!   jobs);
//! * every sampler lane (reservoir or ℓ₀) is seeded by
//!   `split_seed(job_pass_seed, job_slot)` with `job_slot` the query's
//!   index in the **job's own** batch — solo seeding verbatim;
//! * each job owns a private [`ReservoirBank`] in its own
//!   [`ReservoirMode`]: per-lane reservoir state depends only on the
//!   lane seed and the lane's offer sequence (never on bank-global lane
//!   order — `reservoir.rs` pins this), and a job's lanes inside one
//!   shared vertex group form a contiguous run (job batches are
//!   contiguous in the merged batch), so one `offer_cohort` per
//!   (vertex, job) segment reproduces the solo offer sequence exactly;
//! * turnstile ℓ₀-samplers are per-lane independent linear sketches, so
//!   the shared pass keeps flat banks aligned with the merged slot lists
//!   and merges across shards exactly like the solo sharded pass.
//!
//! `tests/multiplex_equivalence.rs` pins all of this (shards 1/2/4 ×
//! mixed query sets × insertion/turnstile × blocked/scalar × reservoir
//! offer/skip) against solo runs, which are themselves pinned to the
//! frozen reference executors.
//!
//! **Diagnostics.** Shared passes make one slow query everyone's
//! problem, so every run returns an [`AdmissionReport`]: per-round
//! participant lists and critical-path pass nanos (via the
//! [`RouterArena`]'s existing per-shard timing), per-job accumulated
//! pass nanos / lane counts, and — on the ring engine — the broadcast
//! producer's [`StallEvent`]s, so a stalled round names the consumer it
//! was blocked on.

use crate::accounting::ExecReport;
use crate::arena::{RouterArena, ShardSlot};
use crate::broadcast::BroadcastOpts;
use crate::exec::{sort_targets, PassOpts, ANSWER_BYTES};
use crate::policy::ExecPolicy;
use crate::query::{Answer, Query};
use crate::round::RoundAdaptive;
use crate::router::RouterMode;
use crate::sharded::{merge_answers, run_shards, split_batch, ShardOutcome};
use sgs_graph::{Edge, VertexId};
use sgs_stream::broadcast::{Broadcast, BroadcastConsumer, RoutedProducer, TryNext};
use sgs_stream::hash::{split_seed, FastRng};
use sgs_stream::l0::{BankFeed, L0Mode, L0Sampler};
use sgs_stream::reservoir::{ReservoirBank, ReservoirMode};
use sgs_stream::sharded::{ShardUpdate, ShardedFeed};
use sgs_stream::EdgeUpdate;
use std::time::{Duration, Instant};

pub use sgs_stream::broadcast::StallEvent;

/// Producer stalls longer than this are recorded as [`StallEvent`]s on
/// the ring engine — long enough to ignore scheduler jitter, short
/// enough to catch a consumer that is actually wedged.
const MUX_STALL_THRESHOLD: Duration = Duration::from_millis(10);

/// One admitted job: a round-adaptive algorithm plus the private
/// execution knobs a solo run would have owned.
struct MuxJob<A: RoundAdaptive> {
    alg: A,
    seed: u64,
    reservoir: ReservoirMode,
    /// Passes *this job* has participated in (its private pass chain).
    passes: u64,
    /// Answers to the job's previous batch, awaiting its next round.
    answers: Vec<Answer>,
    done: bool,
    report: ExecReport,
}

/// Per-round multiplexing stats: who rode the shared pass and what it
/// cost on the critical path.
#[derive(Clone, Debug)]
pub struct MuxRoundStats {
    /// 1-based round number.
    pub round: usize,
    /// Job ids that contributed a batch to this round.
    pub participants: Vec<u32>,
    /// Merged batch length across all participants.
    pub batch_len: usize,
    /// Critical-path pass time: max over shards of the shard's feed
    /// nanos for this round (the arena's existing per-shard timing).
    pub pass_nanos: u64,
}

/// Per-job multiplexing stats — the "name the slow query" half of the
/// admission report.
#[derive(Clone, Debug, Default)]
pub struct MuxJobStats {
    /// The job id [`QuerySet::admit`] returned.
    pub job: u32,
    /// Rounds this job participated in.
    pub rounds: usize,
    /// Total queries the job asked.
    pub queries: usize,
    /// Sum of the critical-path nanos of every shared pass this job
    /// rode: the job's share of the serving bill. A job that keeps
    /// rounds alive after everyone else finished accumulates the
    /// difference here.
    pub pass_nanos: u64,
    /// `RandomNeighbor` sampler lanes the job asked for, summed over
    /// rounds.
    pub sampler_lanes: usize,
    /// `RandomEdge` position targets the job drew, summed over rounds.
    pub f1_targets: usize,
}

/// What one [`QuerySet`] run observed: per-round and per-job timing plus
/// any producer stalls the ring engine recorded.
#[derive(Clone, Debug, Default)]
pub struct AdmissionReport {
    /// One entry per shared round, in execution order.
    pub rounds: Vec<MuxRoundStats>,
    /// One entry per admitted job, indexed by job id.
    pub jobs: Vec<MuxJobStats>,
    /// Ring-engine producer stalls (empty on the sharded engine): each
    /// names the consumer the producer sat blocked on past the
    /// threshold.
    pub stalls: Vec<StallEvent>,
}

impl AdmissionReport {
    /// The job with the largest accumulated critical-path share — the
    /// query to evict (or re-batch) first when a shared round is slow.
    pub fn slowest_job(&self) -> Option<u32> {
        self.jobs.iter().max_by_key(|j| j.pass_nanos).map(|j| j.job)
    }
}

/// Everything a [`QuerySet`] run returns: per-job outputs and solo-shaped
/// execution reports (indexed by job id), plus the admission report.
pub struct MuxOutput<O> {
    /// Per-job algorithm outputs.
    pub outputs: Vec<O>,
    /// Per-job reports. `rounds`/`passes`/`queries`/`answer_bytes` match
    /// the job's solo run exactly; `max_pass_space_bytes` is the
    /// **shared** pass footprint of the rounds the job rode (the space
    /// actually in play while it was served), so it is not comparable to
    /// a solo figure.
    pub reports: Vec<ExecReport>,
    /// Multiplexing diagnostics for the whole run.
    pub admission: AdmissionReport,
}

/// An admission batch of concurrent round-adaptive jobs, executed with
/// one shared pass per round. See the module docs for the equivalence
/// argument; see [`MuxOutput`] for what comes back.
pub struct QuerySet<A: RoundAdaptive> {
    jobs: Vec<MuxJob<A>>,
}

impl<A: RoundAdaptive> Default for QuerySet<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: RoundAdaptive> QuerySet<A> {
    /// An empty admission batch.
    pub fn new() -> Self {
        QuerySet { jobs: Vec::new() }
    }

    /// Admit one job with its private seed and reservoir mode; returns
    /// the job id that indexes every per-job vector in [`MuxOutput`].
    /// The job's answers will be byte-identical to running `alg` alone
    /// through the solo executor with the same `seed` and mode.
    pub fn admit(&mut self, alg: A, seed: u64, reservoir: ReservoirMode) -> usize {
        self.jobs.push(MuxJob {
            alg,
            seed,
            reservoir,
            passes: 0,
            answers: Vec::new(),
            done: false,
            report: ExecReport::default(),
        });
        self.jobs.len() - 1
    }

    /// Number of admitted jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no jobs were admitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Run every job to completion over shared **insertion-model**
    /// passes on the scoped-thread sharded engine. `opts.block <= 1` is
    /// the scalar feed path; answers are identical for any block size
    /// and policy. `opts.reservoir` is ignored — each job's admitted
    /// reservoir mode governs its own lanes.
    pub fn run_insertion(
        self,
        feed: &ShardedFeed,
        arena: &mut RouterArena,
        opts: PassOpts,
        policy: ExecPolicy,
    ) -> MuxOutput<A::Output> {
        self.run_inner(
            feed,
            arena,
            opts,
            MuxModel::Insertion,
            Engine::Sharded(policy),
        )
    }

    /// Turnstile sibling of [`QuerySet::run_insertion`]; `opts.l0`
    /// selects the ℓ₀ bank feed path for every lane of the shared pass.
    pub fn run_turnstile(
        self,
        feed: &ShardedFeed,
        arena: &mut RouterArena,
        opts: PassOpts,
        policy: ExecPolicy,
    ) -> MuxOutput<A::Output> {
        self.run_inner(
            feed,
            arena,
            opts,
            MuxModel::Turnstile,
            Engine::Sharded(policy),
        )
    }

    /// [`QuerySet::run_insertion`] riding the broadcast ring: one
    /// producer pushes each round's routed stream once and every shard's
    /// shared-pass machine drains it through its own cursor. Producer
    /// stalls land in [`AdmissionReport::stalls`]. Answers are identical
    /// to the sharded engine's.
    pub fn run_insertion_broadcast(
        self,
        feed: &ShardedFeed,
        arena: &mut RouterArena,
        opts: PassOpts,
        bcast: BroadcastOpts,
    ) -> MuxOutput<A::Output> {
        self.run_inner(feed, arena, opts, MuxModel::Insertion, Engine::Ring(bcast))
    }

    /// Turnstile sibling of [`QuerySet::run_insertion_broadcast`].
    pub fn run_turnstile_broadcast(
        self,
        feed: &ShardedFeed,
        arena: &mut RouterArena,
        opts: PassOpts,
        bcast: BroadcastOpts,
    ) -> MuxOutput<A::Output> {
        self.run_inner(feed, arena, opts, MuxModel::Turnstile, Engine::Ring(bcast))
    }

    fn run_inner(
        mut self,
        feed: &ShardedFeed,
        arena: &mut RouterArena,
        opts: PassOpts,
        model: MuxModel,
        engine: Engine,
    ) -> MuxOutput<A::Output> {
        let shards = feed.num_shards();
        let mut admission = AdmissionReport {
            rounds: Vec::new(),
            jobs: (0..self.jobs.len())
                .map(|j| MuxJobStats {
                    job: j as u32,
                    ..MuxJobStats::default()
                })
                .collect(),
            stalls: Vec::new(),
        };
        arena.begin_run();
        let mut round_no = 0usize;
        loop {
            // Admission: collect each active job's next batch into one
            // merged batch, advancing only the participants' pass chains.
            let mut plan = RoundPlan::default();
            for (j, job) in self.jobs.iter_mut().enumerate() {
                if job.done {
                    continue;
                }
                let batch = job.alg.next_round(&job.answers);
                if batch.is_empty() {
                    job.done = true;
                    job.answers = Vec::new();
                    continue;
                }
                job.passes += 1;
                job.report.rounds += 1;
                job.report.passes += 1;
                job.report.queries += batch.len();
                job.report.answer_bytes += batch.len() * ANSWER_BYTES;
                let p = plan.participants.len();
                let pass_seed = split_seed(job.seed, job.passes);
                plan.participants.push(j as u32);
                plan.pass_seeds.push(pass_seed);
                plan.modes.push(job.reservoir);
                plan.starts.push(plan.concat.len());
                let js = &mut admission.jobs[j];
                for (k, q) in batch.iter().enumerate() {
                    plan.slot_seeds.push(split_seed(pass_seed, k as u64));
                    plan.slot_part.push(p as u32);
                    match q {
                        Query::RandomEdge => js.f1_targets += 1,
                        Query::RandomNeighbor(_) => js.sampler_lanes += 1,
                        _ => {}
                    }
                }
                plan.concat.extend(batch);
            }
            if plan.concat.is_empty() {
                break;
            }
            plan.starts.push(plan.concat.len());
            round_no += 1;
            let (answers, space) = match model {
                MuxModel::Insertion => {
                    mux_insertion_pass(&plan, feed, arena, opts, &engine, &mut admission.stalls)
                }
                MuxModel::Turnstile => {
                    mux_turnstile_pass(&plan, feed, arena, opts, &engine, &mut admission.stalls)
                }
            };
            // Critical-path pass time via the arena's per-shard timing.
            let round_nanos = arena.slots[..shards]
                .iter()
                .filter_map(|s| s.pass_nanos.last().copied())
                .max()
                .unwrap_or(0);
            for (p, &j) in plan.participants.iter().enumerate() {
                let (a, b) = (plan.starts[p], plan.starts[p + 1]);
                let job = &mut self.jobs[j as usize];
                job.answers.clear();
                job.answers.extend_from_slice(&answers[a..b]);
                job.report.max_pass_space_bytes = job.report.max_pass_space_bytes.max(space);
                let js = &mut admission.jobs[j as usize];
                js.rounds += 1;
                js.queries += b - a;
                js.pass_nanos += round_nanos;
            }
            admission.rounds.push(MuxRoundStats {
                round: round_no,
                participants: plan.participants,
                batch_len: plan.concat.len(),
                pass_nanos: round_nanos,
            });
            arena.note_round();
        }
        arena.end_run();
        let outputs = self.jobs.iter_mut().map(|j| j.alg.output()).collect();
        let reports = self.jobs.iter().map(|j| j.report).collect();
        MuxOutput {
            outputs,
            reports,
            admission,
        }
    }
}

/// Which transformation theorem's pass machinery a run uses.
#[derive(Clone, Copy)]
enum MuxModel {
    Insertion,
    Turnstile,
}

/// Which delivery engine drives the shared pass.
enum Engine {
    /// Scoped-thread shard workers over the feed's private buffers.
    Sharded(ExecPolicy),
    /// One broadcast ring: a single producer, one cursor per shard.
    Ring(BroadcastOpts),
}

/// One shared round, planned: the merged batch plus everything needed to
/// replay each participant's private coins.
#[derive(Default)]
struct RoundPlan {
    /// The concatenation of every participant's batch, in job order.
    concat: Vec<Query>,
    /// Participant index → job id.
    participants: Vec<u32>,
    /// Participant index → start offset in `concat`; one trailing entry
    /// holds `concat.len()`, so participant `p` owns `starts[p]..starts[p+1]`.
    starts: Vec<usize>,
    /// Participant index → the job's private pass seed for this round.
    pass_seeds: Vec<u64>,
    /// Participant index → the job's reservoir mode.
    modes: Vec<ReservoirMode>,
    /// Merged slot → `split_seed(owner's pass seed, job-local slot)` —
    /// the exact lane seed the owner's solo pass would use.
    slot_seeds: Vec<u64>,
    /// Merged slot → owning participant index.
    slot_part: Vec<u32>,
}

/// Draw every participant's `f1` targets from its own pass rng in its
/// own batch order (the solo coin sequences), keyed by merged slot, then
/// sort by position for cursor matching. Push order has ascending merged
/// slots (participants are planned in job order), matching what
/// `sort_targets` expects from the solo draw.
fn draw_mux_targets(plan: &RoundPlan, stream_len: u64, targets: &mut Vec<(u64, u32)>) {
    targets.clear();
    if stream_len == 0 {
        return;
    }
    for (p, &pass_seed) in plan.pass_seeds.iter().enumerate() {
        let mut rng = FastRng::seed_from_u64(pass_seed);
        for gs in plan.starts[p]..plan.starts[p + 1] {
            if matches!(plan.concat[gs], Query::RandomEdge) {
                targets.push((rng.gen_range(0..stream_len), gs as u32));
            }
        }
    }
    sort_targets(targets, stream_len);
}

/// One maximal run of same-job sampler lanes inside one shared vertex
/// group: the fan-out unit. A delivery to the group offers `item` to
/// bank lanes `bank_start..bank_end` of participant `part`'s private
/// reservoir bank — one `offer_cohort` per segment, exactly the solo
/// group offer the owner's own pass would make.
#[derive(Clone, Copy)]
struct MuxSegment {
    part: u32,
    bank_start: u32,
    bank_end: u32,
}

/// One shard's shared insertion-model pass: the multiplexed counterpart
/// of [`crate::sharded::InsertionShardPass`]. One router over the merged
/// sub-batch; per-participant reservoir banks (each in its job's own
/// mode, lanes seeded with the job's solo coins) fed through the segment
/// table.
struct MuxInsertionShardPass<'a> {
    slot: &'a mut ShardSlot,
    targets: &'a [(u64, u32)],
    block: usize,
    /// One private bank per participant (possibly zero lanes).
    banks: Vec<ReservoirBank<Edge>>,
    /// Flat segment table, grouped by shared vertex group.
    segments: Vec<MuxSegment>,
    /// Shared group start lane → segment range in `segments`.
    group_segs: Vec<(u32, u32)>,
    /// Shared lane → (participant, lane in that participant's bank).
    lane_owner: Vec<(u32, u32)>,
    nbr_verts: Vec<VertexId>,
    edge_hits: Vec<(u32, Edge)>,
    cursor: usize,
    buf: Vec<EdgeUpdate>,
}

/// Build the per-participant lane/segment structures over the shard's
/// rebuilt router. Within one shared vertex group, lanes ascend by local
/// slot, local slots ascend by merged slot, and each participant's
/// merged range is contiguous — so each participant's lanes in a group
/// form exactly one contiguous run, and its bank ranges come out
/// ascending and disjoint (what `bind_cohorts` requires).
#[allow(clippy::type_complexity)] // four parallel tables, consumed as locals right at the call site
fn build_lane_tables(
    slot: &ShardSlot,
    plan: &RoundPlan,
) -> (
    Vec<Vec<u64>>,
    Vec<(u32, u32)>,
    Vec<MuxSegment>,
    Vec<(u32, u32)>,
) {
    let nparts = plan.participants.len();
    let nbr_slots = slot.router.neighbor_slots();
    let mut lane_seeds: Vec<Vec<u64>> = vec![Vec::new(); nparts];
    let mut lane_owner: Vec<(u32, u32)> = Vec::with_capacity(nbr_slots.len());
    for &ls in nbr_slots {
        let gs = slot.slot_map[ls as usize] as usize;
        let p = plan.slot_part[gs] as usize;
        lane_owner.push((p as u32, lane_seeds[p].len() as u32));
        lane_seeds[p].push(plan.slot_seeds[gs]);
    }
    let mut segments: Vec<MuxSegment> = Vec::new();
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
            segments.push(MuxSegment {
                part,
                bank_start,
                bank_end: bank_start + (lj - li) as u32,
            });
            li = lj;
        }
        group_segs[s as usize] = (beg, segments.len() as u32);
    }
    (lane_seeds, lane_owner, segments, group_segs)
}

impl<'a> MuxInsertionShardPass<'a> {
    fn new(
        slot: &'a mut ShardSlot,
        targets: &'a [(u64, u32)],
        plan: &RoundPlan,
        opts: PassOpts,
    ) -> Self {
        slot.router.rebuild(&slot.sub_batch, RouterMode::Insertion);
        let (lane_seeds, lane_owner, segments, group_segs) = build_lane_tables(slot, plan);
        let mut banks: Vec<ReservoirBank<Edge>> = lane_seeds
            .into_iter()
            .zip(&plan.modes)
            .map(|(seeds, &mode)| ReservoirBank::from_seeds(seeds, mode))
            .collect();
        for (pi, bank) in banks.iter_mut().enumerate() {
            bank.bind_cohorts(
                segments
                    .iter()
                    .filter(|sg| sg.part as usize == pi)
                    .map(|sg| (sg.bank_start, sg.bank_end)),
            );
        }
        let nbr_verts: Vec<VertexId> = slot.router.neighbor_vertices().collect();
        MuxInsertionShardPass {
            slot,
            targets,
            block: opts.block,
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
    /// a partial prefix — callable repeatedly).
    fn feed(&mut self, deliveries: &[ShardUpdate]) {
        if self.block <= 1 {
            for su in deliveries {
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
                let edge = su.update.edge;
                let banks = &mut self.banks;
                let segments = &self.segments;
                let group_segs = &self.group_segs;
                self.slot.router.feed(su.update, |s, _e| {
                    let (b0, b1) = group_segs[s as usize];
                    for sg in &segments[b0 as usize..b1 as usize] {
                        banks[sg.part as usize].offer_cohort(
                            sg.bank_start as usize,
                            sg.bank_end as usize,
                            edge,
                        );
                    }
                });
            }
        } else {
            let mut buf = std::mem::take(&mut self.buf);
            for chunk in deliveries.chunks(self.block) {
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
                let banks = &mut self.banks;
                let segments = &self.segments;
                let group_segs = &self.group_segs;
                self.slot.router.feed_block(&buf, |j, s, _e| {
                    let (b0, b1) = group_segs[s as usize];
                    for sg in &segments[b0 as usize..b1 as usize] {
                        banks[sg.part as usize].offer_cohort(
                            sg.bank_start as usize,
                            sg.bank_end as usize,
                            buf[j].edge,
                        );
                    }
                });
            }
            self.buf = buf;
        }
    }

    fn record_pass_nanos(&mut self, nanos: u64) {
        self.slot.pass_nanos.push(nanos);
    }

    /// End of stream: fill shard-local answers and report the outcome.
    fn finish(self) -> ShardOutcome {
        let MuxInsertionShardPass {
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
        }
    }
}

/// One shard's shared turnstile pass: the multiplexed counterpart of
/// [`crate::sharded::TurnstileShardPass`]. ℓ₀-samplers are per-lane
/// independent linear sketches, so the shared pass needs no per-job
/// banks — one flat `f1` bank aligned with the merged `RandomEdge` slot
/// list and one flat neighbor bank aligned with the shared router's
/// lanes, every sampler seeded with its owner's solo coins.
struct MuxTurnstileShardPass<'a> {
    slot: &'a mut ShardSlot,
    block: usize,
    l0: L0Mode,
    /// Threads each `f1` bank sweep may use ([`BankFeed::new`]).
    bank_threads: usize,
    f1_bank: Vec<L0Sampler>,
    nbr_samplers: Vec<L0Sampler>,
    nbr_verts: Vec<VertexId>,
    buf: Vec<EdgeUpdate>,
    owned_kd: Vec<(u64, i64)>,
}

impl<'a> MuxTurnstileShardPass<'a> {
    fn new(
        slot: &'a mut ShardSlot,
        num_vertices: usize,
        f1_slots: &[u32],
        plan: &RoundPlan,
        opts: PassOpts,
        bank_threads: usize,
    ) -> Self {
        slot.router.rebuild(&slot.sub_batch, RouterMode::Turnstile);
        let f1_bank: Vec<L0Sampler> = f1_slots
            .iter()
            .map(|&gs| L0Sampler::for_edge_domain(num_vertices, plan.slot_seeds[gs as usize]))
            .collect();
        let nbr_samplers: Vec<L0Sampler> = slot
            .router
            .neighbor_slots()
            .iter()
            .map(|&ls| {
                L0Sampler::for_edge_domain(
                    num_vertices,
                    plan.slot_seeds[slot.slot_map[ls as usize] as usize],
                )
            })
            .collect();
        let nbr_verts: Vec<VertexId> = slot.router.neighbor_vertices().collect();
        MuxTurnstileShardPass {
            slot,
            block: opts.block,
            l0: opts.l0,
            bank_threads,
            f1_bank,
            nbr_samplers,
            nbr_verts,
            buf: Vec::new(),
            owned_kd: Vec::new(),
        }
    }

    /// Absorb the next run of deliveries (callable repeatedly) — the
    /// same delivery loop as the solo turnstile shard pass.
    fn feed(&mut self, deliveries: &[ShardUpdate]) {
        let l0 = self.l0;
        if self.block <= 1 {
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
            let mut buf = std::mem::take(&mut self.buf);
            let mut owned_kd = std::mem::take(&mut self.owned_kd);
            let mut f1 = BankFeed::new(&mut self.f1_bank, l0, self.bank_threads);
            for chunk in deliveries.chunks(self.block) {
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

    fn record_pass_nanos(&mut self, nanos: u64) {
        self.slot.pass_nanos.push(nanos);
    }

    /// End of stream: fill shard-local answers and report the outcome.
    fn finish(self) -> ShardOutcome {
        let MuxTurnstileShardPass {
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

/// One shared insertion pass over the whole merged batch: split, draw
/// merged targets, run every shard's mux machine on the chosen engine,
/// merge back.
fn mux_insertion_pass(
    plan: &RoundPlan,
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    opts: PassOpts,
    engine: &Engine,
    stalls: &mut Vec<StallEvent>,
) -> (Vec<Answer>, usize) {
    let shards = feed.num_shards();
    split_batch(&plan.concat, RouterMode::Insertion, feed.shard_map(), arena);
    let mut targets = std::mem::take(&mut arena.scratch_targets);
    draw_mux_targets(plan, feed.stream_len() as u64, &mut targets);
    let outcomes = match engine {
        Engine::Sharded(policy) => {
            feed.begin_pass();
            run_shards(&mut arena.slots[..shards], *policy, |i, slot| {
                let t0 = Instant::now();
                let mut pass = MuxInsertionShardPass::new(&mut *slot, &targets, plan, opts);
                pass.feed(feed.shard(i));
                let out = pass.finish();
                slot.pass_nanos.push(t0.elapsed().as_nanos() as u64);
                out
            })
        }
        Engine::Ring(bcast) => {
            let passes: Vec<MuxInsertionShardPass<'_>> = arena.slots[..shards]
                .iter_mut()
                .map(|slot| MuxInsertionShardPass::new(slot, &targets, plan, opts))
                .collect();
            drive_mux_ring(feed, passes, *bcast, stalls)
        }
    };
    let space = outcomes.iter().map(|o| o.space_bytes).sum::<usize>() + targets.len() * 16;
    arena.scratch_targets = targets;
    let answers = merge_answers(plan.concat.len(), feed, arena, shards, &outcomes);
    (answers, space)
}

/// Turnstile sibling of [`mux_insertion_pass`]: per-shard `f1` banks fed
/// owned deliveries, merged linearly across shards — solo sharded
/// semantics over the merged slot list.
fn mux_turnstile_pass(
    plan: &RoundPlan,
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    opts: PassOpts,
    engine: &Engine,
    stalls: &mut Vec<StallEvent>,
) -> (Vec<Answer>, usize) {
    let shards = feed.num_shards();
    split_batch(&plan.concat, RouterMode::Turnstile, feed.shard_map(), arena);
    let f1_slots = std::mem::take(&mut arena.scratch_edge);
    let n = feed.num_vertices();
    let mut outcomes = match engine {
        Engine::Sharded(policy) => {
            feed.begin_pass();
            let bank_threads = policy.bank_threads(shards);
            run_shards(&mut arena.slots[..shards], *policy, |i, slot| {
                let t0 = Instant::now();
                let mut pass =
                    MuxTurnstileShardPass::new(&mut *slot, n, &f1_slots, plan, opts, bank_threads);
                pass.feed(feed.shard(i));
                let out = pass.finish();
                slot.pass_nanos.push(t0.elapsed().as_nanos() as u64);
                out
            })
        }
        Engine::Ring(bcast) => {
            let bank_threads = bcast.policy.bank_threads(shards);
            let passes: Vec<MuxTurnstileShardPass<'_>> = arena.slots[..shards]
                .iter_mut()
                .map(|slot| {
                    MuxTurnstileShardPass::new(slot, n, &f1_slots, plan, opts, bank_threads)
                })
                .collect();
            drive_mux_ring(feed, passes, *bcast, stalls)
        }
    };
    let space = outcomes.iter().map(|o| o.space_bytes).sum::<usize>();
    let (head, rest) = outcomes.split_at_mut(1);
    for o in rest.iter() {
        for (a, b) in head[0].f1_bank.iter_mut().zip(&o.f1_bank) {
            a.merge(b);
        }
    }
    let mut answers = merge_answers(plan.concat.len(), feed, arena, shards, &outcomes);
    for (&slot, s) in f1_slots.iter().zip(&outcomes[0].f1_bank) {
        answers[slot as usize] = Answer::Edge(s.sample().map(Edge::from_key));
    }
    arena.scratch_edge = f1_slots;
    (answers, space)
}

/// The shard-pass surface the mux ring driver needs (the multiplexed
/// counterpart of the broadcast module's private RingPass).
trait MuxRingPass: Send {
    fn feed(&mut self, deliveries: &[ShardUpdate]);
    fn record_pass_nanos(&mut self, nanos: u64);
    fn finish(self) -> ShardOutcome
    where
        Self: Sized;
}

impl MuxRingPass for MuxInsertionShardPass<'_> {
    fn feed(&mut self, deliveries: &[ShardUpdate]) {
        MuxInsertionShardPass::feed(self, deliveries);
    }
    fn record_pass_nanos(&mut self, nanos: u64) {
        MuxInsertionShardPass::record_pass_nanos(self, nanos);
    }
    fn finish(self) -> ShardOutcome {
        MuxInsertionShardPass::finish(self)
    }
}

impl MuxRingPass for MuxTurnstileShardPass<'_> {
    fn feed(&mut self, deliveries: &[ShardUpdate]) {
        MuxTurnstileShardPass::feed(self, deliveries);
    }
    fn record_pass_nanos(&mut self, nanos: u64) {
        MuxTurnstileShardPass::record_pass_nanos(self, nanos);
    }
    fn finish(self) -> ShardOutcome {
        MuxTurnstileShardPass::finish(self)
    }
}

/// Drive one shared pass over the broadcast ring: one producer, one
/// cursor per shard machine — threaded (blocking API, scoped threads)
/// when the policy says so, else a deterministic cooperative round-robin
/// on this thread. Identical answers either way. The ring is built with
/// a stall threshold; recorded producer stalls are appended to `stalls`
/// so the admission report can name the consumer a slow round was
/// blocked on.
fn drive_mux_ring<P: MuxRingPass>(
    feed: &ShardedFeed,
    passes: Vec<P>,
    bcast: BroadcastOpts,
    stalls: &mut Vec<StallEvent>,
) -> Vec<ShardOutcome> {
    let shards = passes.len();
    let ring = Broadcast::with_stall_threshold(bcast.ring_capacity, MUX_STALL_THRESHOLD);
    let shard_consumers: Vec<BroadcastConsumer> = (0..shards).map(|_| ring.subscribe()).collect();
    let producer = RoutedProducer::new(feed, bcast.ring_block);
    let outcomes = if bcast.policy.use_threads(shards.max(2)) {
        let ring_ref = &ring;
        std::thread::scope(|scope| {
            scope.spawn(move || producer.run(ring_ref));
            let handles: Vec<_> = passes
                .into_iter()
                .zip(shard_consumers)
                .enumerate()
                .map(|(sid, (mut pass, consumer))| {
                    scope.spawn(move || {
                        let t0 = Instant::now();
                        let mut scratch: Vec<ShardUpdate> = Vec::new();
                        for block in consumer {
                            crate::broadcast::filter_block(&block, sid, &mut scratch);
                            pass.feed(&scratch);
                        }
                        pass.record_pass_nanos(t0.elapsed().as_nanos() as u64);
                        pass.finish()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    } else {
        let mut producer = producer;
        let mut workers: Vec<(P, BroadcastConsumer, bool, u64)> = passes
            .into_iter()
            .zip(shard_consumers)
            .map(|(p, c)| (p, c, false, 0u64))
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
                            crate::broadcast::filter_block(&b, sid, &mut scratch);
                            pass.feed(&scratch);
                        }
                        TryNext::Pending => break,
                        TryNext::Ended => *ended = true,
                    }
                }
                *nanos += t0.elapsed().as_nanos() as u64;
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
    };
    stalls.extend(ring.stall_events());
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::{run_insertion_sharded_with_exec, run_turnstile_sharded_with_exec};
    use crate::PassOpts;
    use sgs_graph::gen;
    use sgs_stream::{InsertionStream, TurnstileStream};

    /// A small round-adaptive fixture with data-dependent rounds: walks
    /// `depth` RandomNeighbor hops from a start vertex, asking a mixed
    /// batch each round, so different jobs genuinely have different
    /// round counts and query mixes.
    struct Walker {
        start: u32,
        depth: usize,
        round: usize,
        trace: Vec<Answer>,
    }

    impl Walker {
        fn new(start: u32, depth: usize) -> Self {
            Walker {
                start,
                depth,
                round: 0,
                trace: Vec::new(),
            }
        }
    }

    impl RoundAdaptive for Walker {
        type Output = Vec<Answer>;
        fn next_round(&mut self, answers: &[Answer]) -> Vec<Query> {
            self.trace.extend_from_slice(answers);
            if self.round >= self.depth {
                return Vec::new();
            }
            self.round += 1;
            let v = VertexId(self.start.wrapping_add(self.round as u32) % 16);
            vec![
                Query::EdgeCount,
                Query::RandomEdge,
                Query::Degree(v),
                Query::RandomNeighbor(v),
                Query::RandomEdge,
                Query::Adjacent(v, VertexId((v.0 + 1) % 16)),
            ]
        }
        fn output(&mut self) -> Vec<Answer> {
            std::mem::take(&mut self.trace)
        }
    }

    fn solo_insertion(
        feed: &ShardedFeed,
        start: u32,
        depth: usize,
        seed: u64,
        mode: ReservoirMode,
        block: usize,
    ) -> Vec<Answer> {
        let mut arena = RouterArena::new();
        let opts = PassOpts::with_block(block).reservoir(mode);
        let (out, _) = run_insertion_sharded_with_exec(
            Walker::new(start, depth),
            feed,
            seed,
            &mut arena,
            opts,
            ExecPolicy::serial(),
        );
        out
    }

    #[test]
    fn mux_insertion_matches_solo_runs() {
        let g = gen::gnm(16, 48, 41);
        let ins = InsertionStream::from_graph(&g, 42);
        for shards in [1usize, 3] {
            let feed = ShardedFeed::partition(&ins, shards);
            for block in [0usize, 64] {
                let mut set = QuerySet::new();
                let specs = [
                    (0u32, 2usize, 100u64, ReservoirMode::Offer),
                    (5, 4, 200, ReservoirMode::Skip),
                    (9, 1, 300, ReservoirMode::Skip),
                ];
                for &(start, depth, seed, mode) in &specs {
                    set.admit(Walker::new(start, depth), seed, mode);
                }
                let mut arena = RouterArena::new();
                let out = set.run_insertion(
                    &feed,
                    &mut arena,
                    PassOpts::with_block(block),
                    ExecPolicy::serial(),
                );
                for (j, &(start, depth, seed, mode)) in specs.iter().enumerate() {
                    let solo = solo_insertion(&feed, start, depth, seed, mode, block);
                    assert_eq!(
                        out.outputs[j], solo,
                        "job {j}, {shards} shards, block {block}"
                    );
                    assert_eq!(out.reports[j].rounds, depth);
                    assert_eq!(out.reports[j].passes, depth);
                }
                assert_eq!(out.admission.rounds.len(), 4, "max depth over jobs");
                assert_eq!(out.admission.rounds[0].participants, vec![0, 1, 2]);
                assert_eq!(out.admission.rounds[3].participants, vec![1]);
            }
        }
    }

    #[test]
    fn mux_turnstile_matches_solo_runs() {
        let g = gen::gnm(16, 48, 43);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 44);
        let feed = ShardedFeed::partition(&tst, 2);
        let specs = [(1u32, 3usize, 500u64), (7, 2, 600)];
        let mut set = QuerySet::new();
        for &(start, depth, seed) in &specs {
            set.admit(Walker::new(start, depth), seed, ReservoirMode::Offer);
        }
        let mut arena = RouterArena::new();
        let out = set.run_turnstile(
            &feed,
            &mut arena,
            PassOpts::with_block(32),
            ExecPolicy::serial(),
        );
        for (j, &(start, depth, seed)) in specs.iter().enumerate() {
            let mut solo_arena = RouterArena::new();
            let (solo, _) = run_turnstile_sharded_with_exec(
                Walker::new(start, depth),
                &feed,
                seed,
                &mut solo_arena,
                PassOpts::with_block(32),
                ExecPolicy::serial(),
            );
            assert_eq!(out.outputs[j], solo, "job {j}");
        }
    }

    #[test]
    fn ring_engine_matches_sharded_engine() {
        let g = gen::gnm(16, 48, 45);
        let ins = InsertionStream::from_graph(&g, 46);
        let feed = ShardedFeed::partition(&ins, 3);
        let build = |two_jobs: bool| {
            let mut set = QuerySet::new();
            set.admit(Walker::new(2, 3), 700, ReservoirMode::Skip);
            if two_jobs {
                set.admit(Walker::new(11, 2), 800, ReservoirMode::Offer);
            }
            set
        };
        let mut arena = RouterArena::new();
        let sharded = build(true).run_insertion(
            &feed,
            &mut arena,
            PassOpts::with_block(16),
            ExecPolicy::serial(),
        );
        for policy in [ExecPolicy::serial(), ExecPolicy::threaded()] {
            let mut ring_arena = RouterArena::new();
            let ringed = build(true).run_insertion_broadcast(
                &feed,
                &mut ring_arena,
                PassOpts::with_block(16),
                BroadcastOpts::with_policy(policy),
            );
            assert_eq!(ringed.outputs, sharded.outputs, "{policy:?}");
        }
    }

    #[test]
    fn admission_report_names_the_long_job() {
        let g = gen::gnm(16, 48, 47);
        let ins = InsertionStream::from_graph(&g, 48);
        let feed = ShardedFeed::partition(&ins, 2);
        let mut set = QuerySet::new();
        set.admit(Walker::new(0, 1), 900, ReservoirMode::Offer);
        let long = set.admit(Walker::new(3, 5), 901, ReservoirMode::Offer);
        let mut arena = RouterArena::new();
        let out = set.run_insertion(
            &feed,
            &mut arena,
            PassOpts::with_block(0),
            ExecPolicy::serial(),
        );
        assert_eq!(out.admission.slowest_job(), Some(long as u32));
        assert_eq!(out.admission.jobs[long].rounds, 5);
        assert_eq!(out.admission.jobs[0].rounds, 1);
        assert!(out.admission.jobs[long].pass_nanos >= out.admission.jobs[0].pass_nanos);
        assert_eq!(out.admission.jobs[long].f1_targets, 2 * 5);
        assert_eq!(out.admission.jobs[long].sampler_lanes, 5);
    }

    #[test]
    fn empty_query_set_is_fine() {
        let ins = InsertionStream::from_edge_order(4, vec![]);
        let feed = ShardedFeed::partition(&ins, 2);
        let mut arena = RouterArena::new();
        let set: QuerySet<Walker> = QuerySet::new();
        let out = set.run_insertion(
            &feed,
            &mut arena,
            PassOpts::with_block(0),
            ExecPolicy::serial(),
        );
        assert!(out.outputs.is_empty());
        assert!(out.admission.rounds.is_empty());
        assert_eq!(feed.logical_passes(), 0);
    }

    #[test]
    fn shared_rounds_count_one_logical_pass_each() {
        let g = gen::gnm(16, 48, 49);
        let ins = InsertionStream::from_graph(&g, 50);
        let feed = ShardedFeed::partition(&ins, 2);
        let mut set = QuerySet::new();
        for j in 0..10u64 {
            set.admit(Walker::new(j as u32, 3), 1000 + j, ReservoirMode::Skip);
        }
        let mut arena = RouterArena::new();
        let _ = set.run_insertion(
            &feed,
            &mut arena,
            PassOpts::with_block(64),
            ExecPolicy::serial(),
        );
        assert_eq!(
            feed.logical_passes(),
            3,
            "10 jobs × 3 rounds = 3 shared passes"
        );
    }
}
