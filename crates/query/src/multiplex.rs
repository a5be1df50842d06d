//! Multi-query multiplexing: one shared pass serves many concurrent
//! queries — and a solo run is the one-job case.
//!
//! Nothing a pass computes couples one query to another: the router's
//! FlatIndex is query-agnostic, `f1` targets are drawn from per-pass
//! coins, and every sampler lane is seeded by its own batch slot. So a
//! [`QuerySet`] admission-batches arriving jobs (different patterns,
//! trial counts, reservoir modes, seeds) into **rounds**, concatenates
//! each round's per-job batches into one merged batch, and answers it
//! with ONE logical pass through the shard machines of
//! [`crate::sharded`]. N queries cost `max_j rounds_j` shared passes
//! instead of `Σ_j rounds_j` private ones. [`QuerySet::run`] takes the
//! stream model and the [`Engine`] as arguments; a solo run is the
//! one-job set ([`QuerySet::solo`] … [`MuxOutput::into_solo`]).
//!
//! **Per-job answers are byte-identical to solo runs** — at any shard
//! count, block size, and schedule — because the [`RoundPlan`] replays
//! each job's private coin chain exactly:
//!
//! * a job's pass seed is `split_seed(job_seed, job_passes)` where
//!   `job_passes` counts only the rounds *this job* participates in;
//! * `f1` targets are drawn per job from `FastRng(job_pass_seed)` in the
//!   job's own batch order, then merged across jobs by position for
//!   cursor matching (hits scatter to disjoint slots, so merge order
//!   cannot leak between jobs);
//! * every sampler lane (reservoir or ℓ₀) is seeded by
//!   `split_seed(job_pass_seed, job_slot)` with `job_slot` the query's
//!   index in the **job's own** batch;
//! * each job owns a private reservoir bank in its own
//!   [`ReservoirMode`]: per-lane reservoir state depends only on the
//!   lane seed and the lane's offer sequence, and a job's lanes inside
//!   one shared vertex group form a contiguous run (job batches are
//!   contiguous in the merged batch), so one `offer_cohort` per
//!   (vertex, job) segment reproduces the solo offer sequence exactly;
//! * turnstile ℓ₀-samplers are per-lane independent linear sketches, so
//!   the shared pass keeps flat banks aligned with the merged slot lists
//!   and merges across shards.
//!
//! `tests/multiplex_equivalence.rs` pins all of this (shards 1/2/4 ×
//! mixed query sets × insertion/turnstile × blocked/scalar × reservoir
//! offer/skip) against solo runs, which `tests/sharded_equivalence.rs`
//! pins to the frozen reference executors.
//!
//! **Diagnostics.** Shared passes make one slow query everyone's
//! problem, so every run returns an [`AdmissionReport`]: per-round
//! participant lists and critical-path pass nanos (via the
//! [`RouterArena`]'s per-shard timing), per-job accumulated pass nanos /
//! lane counts, and — on the ring engine — the broadcast producer's
//! [`StallEvent`]s, so a stalled round names the consumer it was blocked
//! on.

use crate::accounting::ExecReport;
use crate::arena::RouterArena;
use crate::exec::{sort_targets, PassOpts, ANSWER_BYTES};
use crate::query::{Answer, Query};
use crate::round::RoundAdaptive;
use crate::router::RouterMode;
use crate::sharded::{run_pass, Engine};
use sgs_stream::hash::{split_seed, FastRng};
use sgs_stream::reservoir::ReservoirMode;
use sgs_stream::sharded::ShardedFeed;

pub use sgs_stream::broadcast::StallEvent;

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
    /// actually in play while it was served) — the solo footprint when
    /// the job ran alone.
    pub reports: Vec<ExecReport>,
    /// Multiplexing diagnostics for the whole run.
    pub admission: AdmissionReport,
}

impl<O> MuxOutput<O> {
    /// The output and report of a one-job run.
    pub fn into_solo(mut self) -> (O, ExecReport) {
        let report = self.reports[0];
        (self.outputs.pop().expect("a one-job run"), report)
    }
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

    /// The one-job set a solo run executes: `alg` with its seed and
    /// reservoir mode. Its [`QuerySet::run`] output's
    /// [`MuxOutput::into_solo`] is the solo run's output and report.
    pub fn solo(alg: A, seed: u64, reservoir: ReservoirMode) -> Self {
        let mut set = QuerySet::new();
        set.admit(alg, seed, reservoir);
        set
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

    /// Run every job to completion over shared passes in `model` on
    /// `engine`. Each round collects every active job's next batch into
    /// one merged batch (the first participant's batch moves in), answers
    /// it with one pass, and hands each job its slice (moved, not copied,
    /// when it rode alone). `opts.block <= 1` is the scalar feed path and
    /// `opts.l0` picks the turnstile ℓ₀ feed path; answers are identical
    /// for any block size, engine and policy. `opts.reservoir` is ignored
    /// — each job's admitted reservoir mode governs its own lanes. Side
    /// sinks of [`Engine::Ring`] ride the first round only — they are
    /// single-pass algorithms and must see the stream exactly once — and
    /// ring producer stalls land in [`AdmissionReport::stalls`].
    pub fn run(
        mut self,
        model: RouterMode,
        feed: &ShardedFeed,
        arena: &mut RouterArena,
        opts: PassOpts,
        mut engine: Engine<'_, '_>,
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
            let mut plan = RoundPlan::default();
            let mut participants: Vec<u32> = Vec::new();
            let mut concat: Vec<Query> = Vec::new();
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
                let js = &mut admission.jobs[j];
                for q in &batch {
                    match q {
                        Query::RandomEdge => js.f1_targets += 1,
                        Query::RandomNeighbor(_) => js.sampler_lanes += 1,
                        _ => {}
                    }
                }
                participants.push(j as u32);
                plan.starts.push(concat.len());
                plan.pass_seeds.push(split_seed(job.seed, job.passes));
                plan.modes.push(job.reservoir);
                if concat.is_empty() {
                    concat = batch;
                } else {
                    concat.extend(batch);
                }
            }
            if concat.is_empty() {
                break;
            }
            plan.starts.push(concat.len());
            round_no += 1;
            let stalls = &mut admission.stalls;
            let (mut answers, space) = run_pass(
                model,
                &concat,
                &plan,
                feed,
                arena,
                opts,
                &mut engine,
                stalls,
            );
            // Critical-path pass time via the arena's per-shard timing.
            let round_nanos = arena.slots[..shards]
                .iter()
                .filter_map(|s| s.pass_nanos.last().copied())
                .max()
                .unwrap_or(0);
            for (p, &j) in participants.iter().enumerate() {
                let (a, b) = (plan.starts[p], plan.starts[p + 1]);
                let job = &mut self.jobs[j as usize];
                if participants.len() == 1 {
                    job.answers = std::mem::take(&mut answers);
                } else {
                    job.answers.clear();
                    job.answers.extend_from_slice(&answers[a..b]);
                }
                job.report.max_pass_space_bytes = job.report.max_pass_space_bytes.max(space);
                let js = &mut admission.jobs[j as usize];
                js.rounds += 1;
                js.queries += b - a;
                js.pass_nanos += round_nanos;
            }
            admission.rounds.push(MuxRoundStats {
                round: round_no,
                participants,
                batch_len: concat.len(),
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

/// One shared round, planned: each participant's start offset in the
/// merged batch, private pass seed and reservoir mode — everything
/// needed to replay its solo coins. The merged batch itself stays with
/// the caller, and lane seeds are derived on demand.
#[derive(Clone, Default)]
pub(crate) struct RoundPlan {
    /// Participant → start offset in the merged batch; one trailing
    /// entry holds the batch length, so participant `p` owns
    /// `starts[p]..starts[p+1]`.
    pub(crate) starts: Vec<usize>,
    /// Participant → the job's private pass seed for this round.
    pub(crate) pass_seeds: Vec<u64>,
    /// Participant → the job's reservoir mode.
    pub(crate) modes: Vec<ReservoirMode>,
}

impl RoundPlan {
    /// The plan of a solo pass: one participant owning the whole batch.
    pub(crate) fn solo(len: usize, pass_seed: u64, mode: ReservoirMode) -> Self {
        RoundPlan {
            starts: vec![0, len],
            pass_seeds: vec![pass_seed],
            modes: vec![mode],
        }
    }

    /// Number of participants.
    pub(crate) fn participants(&self) -> usize {
        self.pass_seeds.len()
    }

    /// The participant owning merged slot `gs`.
    pub(crate) fn owner(&self, gs: usize) -> usize {
        self.starts.partition_point(|&s| s <= gs) - 1
    }

    /// The lane seed of merged slot `gs`, owned by participant `p`:
    /// `split_seed(pass seed, job-local slot)` — the exact seed the
    /// owner's solo pass would use.
    pub(crate) fn lane_seed(&self, p: usize, gs: usize) -> u64 {
        split_seed(self.pass_seeds[p], (gs - self.starts[p]) as u64)
    }

    /// Draw every participant's `f1` targets from its own pass rng in
    /// its own batch order (the solo coin sequences), keyed by merged
    /// slot, then sort by position for cursor matching. `f1_slots` is
    /// the ascending merged `RandomEdge` slot list, so push order has
    /// ascending slots, as `sort_targets` expects.
    pub(crate) fn draw_targets(
        &self,
        f1_slots: &[u32],
        stream_len: u64,
        targets: &mut Vec<(u64, u32)>,
    ) {
        targets.clear();
        if stream_len == 0 {
            return;
        }
        let mut slots = f1_slots.iter().peekable();
        for (p, &pass_seed) in self.pass_seeds.iter().enumerate() {
            let mut rng = FastRng::seed_from_u64(pass_seed);
            while let Some(&gs) = slots.next_if(|&&gs| (gs as usize) < self.starts[p + 1]) {
                targets.push((rng.gen_range(0..stream_len), gs));
            }
        }
        sort_targets(targets, stream_len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast::BroadcastOpts;
    use crate::policy::ExecPolicy;
    use crate::PassOpts;
    use sgs_graph::{gen, VertexId};
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
        let engine = Engine::Sharded(ExecPolicy::serial());
        let (out, _) = QuerySet::solo(Walker::new(start, depth), seed, mode)
            .run(RouterMode::Insertion, feed, &mut arena, opts, engine)
            .into_solo();
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
                let out = set.run(
                    RouterMode::Insertion,
                    &feed,
                    &mut arena,
                    PassOpts::with_block(block),
                    Engine::Sharded(ExecPolicy::serial()),
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
        let out = set.run(
            RouterMode::Turnstile,
            &feed,
            &mut arena,
            PassOpts::with_block(32),
            Engine::Sharded(ExecPolicy::serial()),
        );
        for (j, &(start, depth, seed)) in specs.iter().enumerate() {
            let mut solo_arena = RouterArena::new();
            let (solo, _) = QuerySet::solo(Walker::new(start, depth), seed, ReservoirMode::Offer)
                .run(
                    RouterMode::Turnstile,
                    &feed,
                    &mut solo_arena,
                    PassOpts::with_block(32),
                    Engine::Sharded(ExecPolicy::serial()),
                )
                .into_solo();
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
        let sharded = build(true).run(
            RouterMode::Insertion,
            &feed,
            &mut arena,
            PassOpts::with_block(16),
            Engine::Sharded(ExecPolicy::serial()),
        );
        for policy in [ExecPolicy::serial(), ExecPolicy::threaded()] {
            let mut ring_arena = RouterArena::new();
            let ringed = build(true).run(
                RouterMode::Insertion,
                &feed,
                &mut ring_arena,
                PassOpts::with_block(16),
                Engine::Ring(BroadcastOpts::with_policy(policy), &mut []),
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
        let out = set.run(
            RouterMode::Insertion,
            &feed,
            &mut arena,
            PassOpts::with_block(0),
            Engine::Sharded(ExecPolicy::serial()),
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
        let out = set.run(
            RouterMode::Insertion,
            &feed,
            &mut arena,
            PassOpts::with_block(0),
            Engine::Sharded(ExecPolicy::serial()),
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
        let _ = set.run(
            RouterMode::Insertion,
            &feed,
            &mut arena,
            PassOpts::with_block(64),
            Engine::Sharded(ExecPolicy::serial()),
        );
        assert_eq!(
            feed.logical_passes(),
            3,
            "10 jobs × 3 rounds = 3 shared passes"
        );
    }
}
