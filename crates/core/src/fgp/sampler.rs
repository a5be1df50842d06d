//! The FGP subgraph sampler as a 3-round adaptive algorithm.
//!
//! This is Algorithm 9 (`SampleSubgraph`) organized into the three query
//! rounds of Lemma 16, so that Theorem 9 / Theorem 11 turn it into the
//! 3-pass streaming Algorithms 1 and 5:
//!
//! * **Round 1** — learn `m` and sample the piece edges: for every odd
//!   cycle of length `2k+1`, one auxiliary edge (the heavy-case wedge
//!   source) plus the `k` path edges; for every `k`-petal star, `k` edges.
//! * **Round 2** — for every cycle, sample the wedge closer: in
//!   [`SamplerMode::Indexed`] the `j`-th neighbor of the path's first
//!   vertex with `j = ⌊t·√(2m)⌋ + 1`, `t ~ U[0,1)` (each specific
//!   neighbor is hit with probability exactly `1/√(2m)` — the paper's
//!   `j ∈ [√2m]` idealization made exact); in [`SamplerMode::Relaxed`]
//!   (turnstile) a uniformly random neighbor, later thinned by the
//!   `t ≤ dg(u)` acceptance test of Algorithm 5.
//! * **Round 3** — query all pairwise adjacencies and all degrees on the
//!   sampled vertex set.
//!
//! Postprocessing (no queries) checks each piece is canonical
//! (Definitions 13/14), applies the light/heavy wedge case split, and runs
//! the assembly/acceptance step so that every copy of `H` is returned with
//! probability exactly `1/(2m)^ρ(H)`.

use crate::fgp::assemble::{compatible_copies, ConcretePiece, FoundCopy};
use crate::fgp::plan::{piece_edge_queries, SamplerPlan};
use sgs_graph::decompose::Piece;
use sgs_graph::order::precedes_with_degrees;
use sgs_graph::{canonical, VertexId};
use sgs_query::{Answer, Query, RoundAdaptive};
use sgs_stream::hash::FastRng;
use std::sync::Arc;

/// How the round-2 wedge query is issued (which streaming model the
/// sampler is destined for).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SamplerMode {
    /// `f3(v, i)` with self-sampled index — augmented general model /
    /// insertion-only streams (Algorithm 1).
    Indexed,
    /// Relaxed `f3(v)` — turnstile streams (Algorithm 5).
    Relaxed,
}

/// Result of one sampler run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SamplerOutcome {
    /// The edge count observed in round 1.
    pub m: usize,
    /// The sampled copy, if the trial succeeded.
    pub copy: Option<FoundCopy>,
}

/// One trial's round-1 edges split into its pieces' runs, in plan
/// order: a cycle's run is its auxiliary edge then its path edges, a
/// star's run its petal edges.
fn piece_runs<'a>(
    plan: &'a SamplerPlan,
    edges: &'a [(VertexId, VertexId)],
) -> impl Iterator<Item = (usize, &'a Piece, &'a [(VertexId, VertexId)])> + 'a {
    let mut rest = edges;
    plan.pieces().iter().enumerate().map(move |(idx, p)| {
        let (run, tail) = rest.split_at(piece_edge_queries(p));
        rest = tail;
        (idx, p, run)
    })
}

/// Each cycle piece's oriented path edges (auxiliary edge dropped), in
/// plan order — one per wedge answer.
fn cycle_paths<'a>(
    plan: &'a SamplerPlan,
    edges: &'a [(VertexId, VertexId)],
) -> impl Iterator<Item = (usize, (VertexId, VertexId), &'a [(VertexId, VertexId)])> + 'a {
    piece_runs(plan, edges).filter_map(|(idx, p, run)| match p {
        Piece::OddCycle(_) => Some((idx, run[0], &run[1..])),
        Piece::Star { .. } => None,
    })
}

/// Orient a trial's round-1 edge answers (plan order) with its own coins
/// and append them to `edges`. Returns false at the first failed `f1`
/// answer: the trial is dead, and its coins are never drawn again.
pub(crate) fn orient_edges(
    rng: &mut FastRng,
    answers: &[Answer],
    edges: &mut Vec<(VertexId, VertexId)>,
) -> bool {
    for a in answers {
        let Some(e) = a.expect_edge() else {
            return false;
        };
        // Uniformly random orientation: the algorithm's own coin.
        edges.push(if rng.gen_bool(0.5) {
            (e.u(), e.v())
        } else {
            (e.v(), e.u())
        });
    }
    true
}

/// Append a trial's round-2 wedge queries, one per cycle piece: in
/// [`SamplerMode::Indexed`] the `j`-th neighbor of the path's first
/// vertex `u1` with `j = ⌊t·√(2m)⌋ + 1`, in [`SamplerMode::Relaxed`] a
/// random neighbor of `u1`.
pub(crate) fn push_wedge_queries(
    plan: &SamplerPlan,
    mode: SamplerMode,
    sqrt2m: f64,
    rng: &mut FastRng,
    edges: &[(VertexId, VertexId)],
    qs: &mut Vec<Query>,
) {
    for (_, _, path) in cycle_paths(plan, edges) {
        let u1 = path[0].0;
        qs.push(match mode {
            SamplerMode::Indexed => {
                // j = floor(t * sqrt(2m)) + 1: each j <= dg hit with
                // probability exactly 1/sqrt(2m).
                let t = rng.gen_f64();
                Query::IthNeighbor(u1, (t * sqrt2m).floor() as u64 + 1)
            }
            SamplerMode::Relaxed => Query::RandomNeighbor(u1),
        });
    }
}

/// Append a trial's round-3 batch, all degrees then all pairwise
/// adjacencies on its sampled vertex set `V'`, and append `V'` itself to
/// `verts`. `V'` lists first appearances in this order: each cycle's path
/// vertices, its auxiliary edge's first endpoint and its wedge answer,
/// then each star's edge endpoints.
pub(crate) fn push_round3(
    plan: &SamplerPlan,
    edges: &[(VertexId, VertexId)],
    wedges: &[Option<VertexId>],
    verts: &mut Vec<VertexId>,
    qs: &mut Vec<Query>,
) {
    // `V'` holds at most a handful of vertices (pattern-sized), so a
    // linear dedup over a flat vec beats any hashed set.
    let start = verts.len();
    let mut push = |v: VertexId| {
        if !verts[start..].contains(&v) {
            verts.push(v);
        }
    };
    for ((_, aux, path), w) in cycle_paths(plan, edges).zip(wedges) {
        for &(a, b) in path {
            push(a);
            push(b);
        }
        push(aux.0);
        if let Some(w) = *w {
            push(w);
        }
    }
    for (_, p, run) in piece_runs(plan, edges) {
        if let Piece::Star { .. } = p {
            for &(a, b) in run {
                push(a);
                push(b);
            }
        }
    }
    let vs = &verts[start..];
    qs.extend(vs.iter().map(|&v| Query::Degree(v)));
    for i in 0..vs.len() {
        for j in (i + 1)..vs.len() {
            qs.push(Query::Adjacent(vs[i], vs[j]));
        }
    }
}

/// The round-3 queries of a trial whose `V'` has `nv` vertices.
pub(crate) fn round3_len(nv: usize) -> usize {
    nv + nv * nv.saturating_sub(1) / 2
}

/// Whether a trial's outcome is already fixed at "no copy" after round 2,
/// whatever round 3 answers. In [`SamplerMode::Indexed`] a missing wedge
/// answer means `dg(u1) < j ≤ ⌊t·√(2m)⌋ + 1`, so `dg(u1) < √(2m)`: `u1`
/// is light, and the light case ends on a missing `w` before drawing a
/// coin. In [`SamplerMode::Relaxed`] a missing `w` can be a failed draw
/// at a heavy `u1`, so no relaxed trial is settled early.
pub(crate) fn settled_without_copy(mode: SamplerMode, wedges: &[Option<VertexId>]) -> bool {
    mode == SamplerMode::Indexed && wedges.contains(&None)
}

/// One trial's state as postprocessing reads it.
pub(crate) struct TrialDraws<'a> {
    /// Oriented round-1 edges, plan order.
    pub edges: &'a [(VertexId, VertexId)],
    /// Round-2 wedge answers, one per cycle piece.
    pub wedges: &'a [Option<VertexId>],
    /// `V'` in round-3 query order.
    pub verts: &'a [VertexId],
    /// Answers to the trial's round-3 queries.
    pub answers: &'a [Answer],
}

/// Postprocessing (no queries): canonicality, light/heavy split,
/// assembly, acceptance. `accept` is the `1/f_T(H)` acceptance coin,
/// off only in the ablation. Returns the sampled copy, if any.
pub(crate) fn postprocess(
    plan: &SamplerPlan,
    mode: SamplerMode,
    sqrt2m: f64,
    accept: bool,
    rng: &mut FastRng,
    t: TrialDraws<'_>,
) -> Option<FoundCopy> {
    // `V'` is pattern-sized (a handful of vertices, tens of pairs), so
    // the scratch is flat sorted vecs: linear degree lookup and a
    // binary-searched adjacency list beat hashed containers at this
    // scale — this runs once per trial, thousands of times per estimate.
    let verts = t.verts;
    let nv = verts.len();
    let deg_of = |v: VertexId| -> Option<usize> {
        verts
            .iter()
            .position(|&x| x == v)
            .map(|i| t.answers[i].expect_degree())
    };
    let mut adj: Vec<u64> = Vec::new();
    let mut k = nv;
    for i in 0..nv {
        for j in (i + 1)..nv {
            if t.answers[k].expect_adjacent() {
                adj.push(sgs_graph::Edge::new(verts[i], verts[j]).key());
            }
            k += 1;
        }
    }
    adj.sort_unstable();
    let has_edge = |a: VertexId, b: VertexId| -> bool {
        a != b && adj.binary_search(&sgs_graph::Edge::new(a, b).key()).is_ok()
    };
    let precedes = |a: VertexId, b: VertexId| -> bool {
        let da = deg_of(a).expect("round-3 vertex");
        let db = deg_of(b).expect("round-3 vertex");
        precedes_with_degrees(a, da, b, db)
    };

    // Cycles: light/heavy case split and canonical check.
    let mut concrete: Vec<(usize, ConcretePiece)> = Vec::new();
    for ((piece_idx, aux, path), w) in cycle_paths(plan, t.edges).zip(t.wedges) {
        let u1 = path[0].0;
        let du1 = deg_of(u1).expect("round-3 vertex") as f64;
        let mut seq: Vec<VertexId> = Vec::with_capacity(2 * path.len() + 1);
        for &(a, b) in path {
            seq.push(a);
            seq.push(b);
        }
        if du1 <= sqrt2m {
            // Light case: the wedge answer closes the cycle.
            let w = (*w)?;
            if mode == SamplerMode::Relaxed {
                // Thin 1/dg(u1) down to exactly 1/sqrt(2m)
                // (Algorithm 5, lines 21-22).
                let t: f64 = rng.gen_f64() * sqrt2m;
                if t > du1 {
                    return None;
                }
            }
            seq.push(w);
        } else {
            // Heavy case: the auxiliary edge's first endpoint is a
            // degree-proportional vertex sample; accept with
            // probability sqrt(2m)/dg (Algorithm 5, lines 26-27).
            let u0 = aux.0;
            let du0 = deg_of(u0)?;
            let t = rng.gen_f64();
            if t > (sqrt2m / du0 as f64).min(1.0) {
                return None;
            }
            seq.push(u0);
        }
        if !canonical::is_canonical_cycle(&seq, has_edge, precedes) {
            return None;
        }
        concrete.push((piece_idx, ConcretePiece::Cycle(seq)));
    }

    // Stars: shared center and canonical petal order.
    for (piece_idx, p, run) in piece_runs(plan, t.edges) {
        let Piece::Star { .. } = p else { continue };
        let x0 = run[0].0;
        if !run.iter().all(|&(x, _)| x == x0) {
            return None;
        }
        let mut seq = vec![x0];
        seq.extend(run.iter().map(|&(_, y)| y));
        if !canonical::is_canonical_star(&seq, has_edge, precedes) {
            return None;
        }
        concrete.push((
            piece_idx,
            ConcretePiece::Star {
                center: x0,
                petals: run.iter().map(|&(_, y)| y).collect(),
            },
        ));
    }

    // Restore plan piece order.
    concrete.sort_by_key(|&(idx, _)| idx);
    let pieces: Vec<ConcretePiece> = concrete.into_iter().map(|(_, p)| p).collect();

    let mut copies = compatible_copies(&plan.pattern, plan.pieces(), &pieces, &has_edge);
    if copies.is_empty() {
        return None;
    }
    let f_t = plan.tuple_multiplicity() as f64;
    debug_assert!(
        copies.len() as f64 <= f_t,
        "|C(S)| = {} exceeds f_T = {}",
        copies.len(),
        f_t
    );
    // Accept with probability |C(S)|/f_T, then pick uniformly: each
    // compatible copy is returned with probability exactly 1/f_T.
    if accept && rng.gen_f64() >= copies.len() as f64 / f_t {
        return None;
    }
    let idx = rng.gen_range(0..copies.len());
    Some(copies.swap_remove(idx))
}

/// The FGP sampler (one trial): the per-trial oracle that
/// [`crate::fgp::TrialBank`] is checked against. Run many in
/// [`sgs_query::Parallel`] to estimate `#H` (Theorem 17 / Theorem 1).
pub struct SubgraphSampler {
    plan: Arc<SamplerPlan>,
    mode: SamplerMode,
    rng: FastRng,
    stage: u8,
    sqrt2m: f64,
    edges: Vec<(VertexId, VertexId)>,
    wedges: Vec<Option<VertexId>>,
    verts: Vec<VertexId>,
    outcome: SamplerOutcome,
    ft_correction: bool,
}

impl SubgraphSampler {
    /// New sampler over a shared plan.
    pub fn new(plan: Arc<SamplerPlan>, mode: SamplerMode, seed: u64) -> Self {
        SubgraphSampler {
            plan,
            mode,
            rng: FastRng::seed_from_u64(seed),
            stage: 0,
            sqrt2m: 0.0,
            edges: Vec::new(),
            wedges: Vec::new(),
            verts: Vec::new(),
            outcome: SamplerOutcome::default(),
            ft_correction: true,
        }
    }

    /// **Ablation only**: disable the `1/f_T(H)` acceptance coin of
    /// Algorithm 9 line 15. Without it the per-copy probability becomes
    /// `f_T(H)/(2m)^ρ(H)` and the estimator overcounts by exactly
    /// `f_T(H)` — the ablation experiment demonstrates why the
    /// correction exists. Never use for real estimates.
    pub fn ablation_disable_acceptance(mut self) -> Self {
        self.ft_correction = false;
        self
    }

    fn die(&mut self) -> Vec<Query> {
        self.stage = 99;
        Vec::new()
    }

    /// Round-3 batch: all degrees and pairwise adjacencies on `V'`.
    fn round3(&mut self) -> Vec<Query> {
        let mut qs = Vec::new();
        push_round3(
            &self.plan,
            &self.edges,
            &self.wedges,
            &mut self.verts,
            &mut qs,
        );
        qs
    }
}

impl RoundAdaptive for SubgraphSampler {
    type Output = SamplerOutcome;

    fn next_round(&mut self, answers: &[Answer]) -> Vec<Query> {
        match self.stage {
            0 => {
                // Round 1: edge count plus all piece edges.
                self.stage = 1;
                let mut qs = vec![Query::EdgeCount];
                qs.resize(1 + self.plan.round1_edge_queries(), Query::RandomEdge);
                qs
            }
            1 => {
                let m = answers[0].expect_edge_count();
                self.outcome.m = m;
                if m == 0 {
                    return self.die();
                }
                self.sqrt2m = (2.0 * m as f64).sqrt();
                if !orient_edges(&mut self.rng, &answers[1..], &mut self.edges) {
                    return self.die();
                }
                if self.plan.cycle_pieces() == 0 {
                    // Star-only patterns skip the wedge round.
                    self.stage = 3;
                    self.round3()
                } else {
                    self.stage = 2;
                    let mut qs = Vec::new();
                    push_wedge_queries(
                        &self.plan,
                        self.mode,
                        self.sqrt2m,
                        &mut self.rng,
                        &self.edges,
                        &mut qs,
                    );
                    qs
                }
            }
            2 => {
                self.wedges = answers.iter().map(Answer::expect_neighbor).collect();
                self.stage = 3;
                self.round3()
            }
            3 => {
                let draws = TrialDraws {
                    edges: &self.edges,
                    wedges: &self.wedges,
                    verts: &self.verts,
                    answers,
                };
                let (plan, mode, sqrt2m) = (&self.plan, self.mode, self.sqrt2m);
                self.outcome.copy =
                    postprocess(plan, mode, sqrt2m, self.ft_correction, &mut self.rng, draws);
                self.stage = 99;
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn output(&mut self) -> SamplerOutcome {
        std::mem::take(&mut self.outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::{gen, Pattern, StaticGraph};
    use sgs_query::exec::{run_on_oracle, run_on_stream};
    use sgs_query::ExactOracle;
    use sgs_query::RouterMode;
    use sgs_stream::{InsertionStream, TurnstileStream};

    fn hit_rate_oracle(pattern: &Pattern, g: &sgs_graph::AdjListGraph, trials: u64) -> f64 {
        let plan = SamplerPlan::new(pattern).unwrap();
        let mut hits = 0u64;
        for t in 0..trials {
            let mut oracle = ExactOracle::new(g, 7_000_000 + t);
            let s = SubgraphSampler::new(plan.clone(), SamplerMode::Indexed, t);
            let (out, _) = run_on_oracle(s, &mut oracle);
            if out.copy.is_some() {
                hits += 1;
            }
        }
        hits as f64 / trials as f64
    }

    /// Lemma 15 check: hit rate x (2m)^rho should equal #H.
    fn check_unbiased(pattern: &Pattern, g: &sgs_graph::AdjListGraph, trials: u64, tol: f64) {
        let exact = sgs_graph::exact::count_pattern_auto(g, pattern) as f64;
        assert!(exact > 0.0, "workload must contain the pattern");
        let plan = SamplerPlan::new(pattern).unwrap();
        let p = hit_rate_oracle(pattern, g, trials);
        let est = p * plan.rho().pow(2.0 * g.num_edges() as f64);
        let rel = (est - exact).abs() / exact;
        assert!(
            rel < tol,
            "{pattern:?}: estimate {est:.1} vs exact {exact}, rel err {rel:.3}"
        );
    }

    #[test]
    fn triangle_sampler_unbiased() {
        let g = gen::gnm(30, 140, 42);
        check_unbiased(&Pattern::triangle(), &g, 60_000, 0.15);
    }

    #[test]
    fn star_sampler_unbiased() {
        let g = gen::gnm(25, 70, 7);
        check_unbiased(&Pattern::star(2), &g, 60_000, 0.15);
    }

    #[test]
    fn k4_sampler_unbiased() {
        // Dense small graph so #K4 is large relative to (2m)^2.
        let g = gen::gnm(12, 50, 9);
        check_unbiased(&Pattern::clique(4), &g, 80_000, 0.2);
    }

    #[test]
    fn returned_copies_are_real() {
        let g = gen::gnm(25, 100, 3);
        let plan = SamplerPlan::new(&Pattern::triangle()).unwrap();
        let ins = InsertionStream::from_graph(&g, 5);
        let mut found = 0;
        for t in 0..4000u64 {
            let s = SubgraphSampler::new(plan.clone(), SamplerMode::Indexed, t);
            let (out, rep) = run_on_stream(RouterMode::Insertion, s, &ins, 1_000_000 + t);
            assert!(rep.passes <= 3, "triangle sampler must use <= 3 passes");
            if let Some(c) = out.copy {
                found += 1;
                assert_eq!(c.vertices.len(), 3);
                for e in &c.edges {
                    assert!(g.has_edge(e.u(), e.v()), "fake edge {e:?}");
                }
            }
        }
        assert!(found > 0);
    }

    #[test]
    fn star_only_pattern_uses_two_passes() {
        let g = gen::gnm(20, 60, 4);
        let plan = SamplerPlan::new(&Pattern::star(2)).unwrap();
        let ins = InsertionStream::from_graph(&g, 6);
        let s = SubgraphSampler::new(plan, SamplerMode::Indexed, 1);
        let (_, rep) = run_on_stream(RouterMode::Insertion, s, &ins, 2);
        assert_eq!(rep.passes, 2);
    }

    #[test]
    fn turnstile_sampler_finds_real_copies() {
        let g = gen::gnm(20, 80, 11);
        let exact = sgs_graph::exact::triangles::count_triangles(&g);
        assert!(exact > 0);
        let plan = SamplerPlan::new(&Pattern::triangle()).unwrap();
        let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 12);
        let mut found = 0;
        for t in 0..3000u64 {
            let s = SubgraphSampler::new(plan.clone(), SamplerMode::Relaxed, t);
            let (out, rep) = run_on_stream(RouterMode::Turnstile, s, &tst, 2_000_000 + t);
            assert!(rep.passes <= 3);
            if let Some(c) = out.copy {
                found += 1;
                for e in &c.edges {
                    assert!(g.has_edge(e.u(), e.v()), "sampled deleted edge");
                }
            }
        }
        assert!(found > 0, "turnstile sampler should find triangles");
    }

    #[test]
    fn m_is_reported() {
        let g = gen::gnm(15, 30, 1);
        let plan = SamplerPlan::new(&Pattern::triangle()).unwrap();
        let ins = InsertionStream::from_graph(&g, 2);
        let s = SubgraphSampler::new(plan, SamplerMode::Indexed, 3);
        let (out, _) = run_on_stream(RouterMode::Insertion, s, &ins, 4);
        assert_eq!(out.m, 30);
    }

    #[test]
    fn empty_graph_yields_nothing() {
        let g = sgs_graph::AdjListGraph::new(5);
        let plan = SamplerPlan::new(&Pattern::triangle()).unwrap();
        let ins = InsertionStream::from_graph(&g, 1);
        let s = SubgraphSampler::new(plan, SamplerMode::Indexed, 2);
        let (out, _) = run_on_stream(RouterMode::Insertion, s, &ins, 3);
        assert!(out.copy.is_none());
        assert_eq!(out.m, 0);
    }
}
