//! The executors' shared vocabulary and the two whole-run conveniences:
//! query access and a replayable stream.
//!
//! Every executor drives the *same* [`RoundAdaptive`] state machine; they
//! differ only in how each round's query batch is answered:
//!
//! * [`run_on_oracle`] forwards queries to a [`GraphOracle`];
//! * a streaming run answers each batch with **one pass** over a
//!   [`ShardedFeed`], in one of two models ([`RouterMode`]): the
//!   insertion-only model of Theorem 9 (uniform position sampling for
//!   `f1`, per-vertex reservoirs for relaxed `f3`, arrival-order watchers
//!   for indexed `f3`, counters and flags for `f2`/`f4`) or the turnstile
//!   model of Theorem 11 (ℓ₀-samplers for `f1` and relaxed `f3`,
//!   deletion-aware counters and flags; indexed `f3` is a protocol error
//!   there and panics). The pass is [`crate::sharded::answer_batch`], a
//!   whole run is [`crate::multiplex::QuerySet::run`], and the durable run
//!   is [`crate::checkpoint::run_checkpointed`]; each takes the model and
//!   the [`crate::sharded::Engine`] as arguments.
//!   [`run_on_stream`] is the one-shard run over a stream.
//!
//! Every pass dispatches each update through a shared
//! [`crate::router::QueryRouter`]: the whole merged batch of a
//! [`crate::Parallel`] sampler bank is bucketed into per-vertex and
//! per-edge flat indexes at round start, so per-update work is
//! O(1 + hits) regardless of how many trials are pending. The
//! pre-refactor executors survive verbatim in [`crate::reference`];
//! seeded equivalence tests pin the two byte-identical.
//!
//! Executors never contribute algorithm randomness: the per-pass sketch
//! seeds only decide *which* uniform sample each query receives, mirroring
//! the oracle's own sampling coins.

use crate::accounting::ExecReport;
use crate::arena::RouterArena;
use crate::multiplex::{QuerySet, RoundPlan};
use crate::oracle::GraphOracle;
use crate::policy::ExecPolicy;
use crate::query::{Answer, Query};
use crate::round::RoundAdaptive;
use crate::router::RouterMode;
use crate::sharded::{begin_pass, Engine, PassMachine};
use sgs_stream::l0::L0Mode;
use sgs_stream::reservoir::ReservoirMode;
use sgs_stream::{EdgeStream, ShardedFeed};

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

/// Feed-path tuning knobs of every pass: the executors, `sgs-core`'s
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

/// Diagnostic twin of an insertion-model [`crate::sharded::answer_batch`]
/// over one shard: run the same pass and report how many RNG draws the
/// relaxed-`f3` reservoir bank consumed. The acceptance criteria for the skip-ahead rework are
/// stated in *counted* draws per pass (`Θ(k·m)` per-offer vs
/// `O(k·log m)` skip-ahead); `benches/reservoir.rs` records both modes
/// through this seam.
pub fn insertion_pass_reservoir_draws(
    batch: &[Query],
    stream: &impl EdgeStream,
    pass_seed: u64,
    opts: PassOpts,
) -> u64 {
    let feed = ShardedFeed::partition(stream, 1);
    let mut arena = RouterArena::new();
    let plan = RoundPlan::solo(batch.len(), pass_seed, opts.reservoir);
    let setup = begin_pass(
        RouterMode::Insertion,
        batch,
        &plan,
        &feed,
        &mut arena,
        opts,
        1,
    );
    let mut pass = PassMachine::new(&mut arena.slots[0], &setup);
    pass.feed(feed.shard(0));
    pass.reservoir_draws()
}

/// Execute `alg` over a replayable stream in `model`: one pass per round
/// (Theorem 9 for [`RouterMode::Insertion`], Theorem 11 for
/// [`RouterMode::Turnstile`]). Round `r` rides pass seed
/// `split_seed(seed, r)`.
///
/// The convenience over one shard: the stream is partitioned into one
/// shard and run as a one-job [`QuerySet`] with the default options on
/// [`Engine::Sharded`]. The partition buffers the stream's updates once
/// (driver-side harness state, like the replayable stream object itself —
/// *not* counted in `max_pass_space_bytes`, which keeps reporting only
/// the pass-emulation state). Callers that run many executions over one
/// stream, or want shards, options or another engine, partition once
/// themselves and call [`QuerySet::run`].
pub fn run_on_stream<A: RoundAdaptive>(
    model: RouterMode,
    alg: A,
    stream: &impl EdgeStream,
    seed: u64,
) -> (A::Output, ExecReport) {
    let feed = ShardedFeed::partition(stream, 1);
    let opts = PassOpts::default();
    let engine = Engine::Sharded(ExecPolicy::default());
    QuerySet::solo(alg, seed, opts.reservoir)
        .run(model, &feed, &mut RouterArena::new(), opts, engine)
        .into_solo()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::oracle::ExactOracle;
    use crate::reference::{run_insertion_reference, run_turnstile_reference};
    use crate::sharded::answer_batch;
    use sgs_graph::{gen, StaticGraph};
    use sgs_graph::{Edge, VertexId};
    use sgs_stream::{InsertionStream, TurnstileStream};

    /// One serial pass over `stream` partitioned into one shard: the
    /// reference answers every other shard count and engine must equal.
    pub(crate) fn one_shard_pass(
        model: RouterMode,
        batch: &[Query],
        stream: &impl EdgeStream,
        pass_seed: u64,
        opts: PassOpts,
    ) -> Vec<Answer> {
        let feed = ShardedFeed::partition(stream, 1);
        let engine = Engine::Sharded(ExecPolicy::serial());
        answer_batch(
            model,
            batch,
            &feed,
            pass_seed,
            &mut RouterArena::new(),
            opts,
            engine,
        )
        .0
    }

    fn run_insertion<A: RoundAdaptive>(
        alg: A,
        s: &impl EdgeStream,
        seed: u64,
    ) -> (A::Output, ExecReport) {
        run_on_stream(RouterMode::Insertion, alg, s, seed)
    }

    fn run_turnstile<A: RoundAdaptive>(
        alg: A,
        s: &impl EdgeStream,
        seed: u64,
    ) -> (A::Output, ExecReport) {
        run_on_stream(RouterMode::Turnstile, alg, s, seed)
    }

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
            let opts = PassOpts::with_reservoir(ReservoirMode::Offer);
            let feed = ShardedFeed::partition(&ins, 1);
            let (a, ra) = QuerySet::solo(new, seed, opts.reservoir)
                .run(
                    RouterMode::Insertion,
                    &feed,
                    &mut RouterArena::new(),
                    opts,
                    Engine::Sharded(ExecPolicy::default()),
                )
                .into_solo();
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
