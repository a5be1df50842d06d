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
use crate::fgp::plan::SamplerPlan;
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

/// Per-cycle-piece draw state.
#[derive(Clone, Debug)]
struct CycleDraw {
    piece_idx: usize,
    /// Oriented auxiliary edge (heavy-case candidate = first endpoint).
    aux: Option<(VertexId, VertexId)>,
    /// Oriented path edges `(u_i, v_i)`.
    path: Vec<(VertexId, VertexId)>,
    /// Round-2 wedge answer.
    w: Option<VertexId>,
}

/// Per-star-piece draw state.
#[derive(Clone, Debug)]
struct StarDraw {
    piece_idx: usize,
    /// Oriented sampled edges `(x_t, y_t)`.
    edges: Vec<(VertexId, VertexId)>,
}

/// The FGP sampler (one trial). Run many in [`sgs_query::Parallel`] to
/// estimate `#H` (Theorem 17 / Theorem 1).
pub struct SubgraphSampler {
    plan: Arc<SamplerPlan>,
    mode: SamplerMode,
    rng: FastRng,
    stage: u8,
    m: usize,
    sqrt2m: f64,
    cycles: Vec<CycleDraw>,
    stars: Vec<StarDraw>,
    verts: Vec<VertexId>,
    pairs: Vec<(VertexId, VertexId)>,
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
            m: 0,
            sqrt2m: 0.0,
            cycles: Vec::new(),
            stars: Vec::new(),
            verts: Vec::new(),
            pairs: Vec::new(),
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

    /// Round-1 batch: edge count plus all piece edges.
    fn round1(&mut self) -> Vec<Query> {
        let mut qs = vec![Query::EdgeCount];
        for p in self.plan.pieces() {
            match p {
                Piece::OddCycle(vs) => {
                    let k = (vs.len() - 1) / 2;
                    // aux + k path edges
                    for _ in 0..=k {
                        qs.push(Query::RandomEdge);
                    }
                }
                Piece::Star { petals, .. } => {
                    for _ in 0..petals.len() {
                        qs.push(Query::RandomEdge);
                    }
                }
            }
        }
        qs
    }

    /// Parse round-1 answers; returns false if the trial is dead.
    fn absorb_round1(&mut self, answers: &[Answer]) -> bool {
        self.m = answers[0].expect_edge_count();
        self.outcome.m = self.m;
        if self.m == 0 {
            return false;
        }
        self.sqrt2m = (2.0 * self.m as f64).sqrt();
        let mut cursor = 1usize;
        let orient = |rng: &mut FastRng, a: Answer| -> Option<(VertexId, VertexId)> {
            let e = a.expect_edge()?;
            // Uniformly random orientation: the algorithm's own coin.
            if rng.gen_bool(0.5) {
                Some((e.u(), e.v()))
            } else {
                Some((e.v(), e.u()))
            }
        };
        // Arc clone instead of cloning the piece list: `orient` needs
        // `&mut self.rng` while we iterate the plan, and this runs once
        // per trial (thousands of times per estimate).
        let plan = self.plan.clone();
        for (piece_idx, p) in plan.pieces().iter().enumerate() {
            match p {
                Piece::OddCycle(vs) => {
                    let k = (vs.len() - 1) / 2;
                    let aux = orient(&mut self.rng, answers[cursor]);
                    cursor += 1;
                    let mut path = Vec::with_capacity(k);
                    let mut ok = aux.is_some();
                    for _ in 0..k {
                        match orient(&mut self.rng, answers[cursor]) {
                            Some(e) => path.push(e),
                            None => ok = false,
                        }
                        cursor += 1;
                    }
                    if !ok {
                        return false;
                    }
                    self.cycles.push(CycleDraw {
                        piece_idx,
                        aux,
                        path,
                        w: None,
                    });
                }
                Piece::Star { petals, .. } => {
                    let mut edges = Vec::with_capacity(petals.len());
                    for _ in 0..petals.len() {
                        match orient(&mut self.rng, answers[cursor]) {
                            Some(e) => edges.push(e),
                            None => {
                                return false;
                            }
                        }
                        cursor += 1;
                    }
                    self.stars.push(StarDraw { piece_idx, edges });
                }
            }
        }
        true
    }

    /// Round-2 batch: one wedge query per cycle piece.
    fn round2(&mut self) -> Vec<Query> {
        let mut qs = Vec::with_capacity(self.cycles.len());
        for c in &self.cycles {
            let u1 = c.path[0].0;
            match self.mode {
                SamplerMode::Indexed => {
                    // j = floor(t * sqrt(2m)) + 1: each j <= dg hit with
                    // probability exactly 1/sqrt(2m).
                    let t = self.rng.gen_f64();
                    let j = (t * self.sqrt2m).floor() as u64 + 1;
                    qs.push(Query::IthNeighbor(u1, j));
                }
                SamplerMode::Relaxed => qs.push(Query::RandomNeighbor(u1)),
            }
        }
        qs
    }

    fn absorb_round2(&mut self, answers: &[Answer]) {
        for (c, a) in self.cycles.iter_mut().zip(answers) {
            c.w = a.expect_neighbor();
        }
    }

    /// Round-3 batch: all degrees and pairwise adjacencies on `V'`.
    fn round3(&mut self) -> Vec<Query> {
        // `V'` holds at most a handful of vertices (pattern-sized), so a
        // linear dedup over a flat vec beats any hashed set.
        let mut verts: Vec<VertexId> = Vec::new();
        let push = |v: VertexId, verts: &mut Vec<VertexId>| {
            if !verts.contains(&v) {
                verts.push(v);
            }
        };
        for c in &self.cycles {
            for &(a, b) in &c.path {
                push(a, &mut verts);
                push(b, &mut verts);
            }
            if let Some((a, _)) = c.aux {
                push(a, &mut verts);
            }
            if let Some(w) = c.w {
                push(w, &mut verts);
            }
        }
        for s in &self.stars {
            for &(a, b) in &s.edges {
                push(a, &mut verts);
                push(b, &mut verts);
            }
        }
        let n_pairs = verts.len() * verts.len().saturating_sub(1) / 2;
        let mut qs: Vec<Query> = Vec::with_capacity(verts.len() + n_pairs);
        qs.extend(verts.iter().map(|&v| Query::Degree(v)));
        let mut pairs = Vec::with_capacity(n_pairs);
        for i in 0..verts.len() {
            for j in (i + 1)..verts.len() {
                pairs.push((verts[i], verts[j]));
                qs.push(Query::Adjacent(verts[i], verts[j]));
            }
        }
        self.verts = verts;
        self.pairs = pairs;
        qs
    }

    /// Postprocessing: canonicality, light/heavy split, assembly,
    /// acceptance.
    fn postprocess(&mut self, answers: &[Answer]) {
        // `V'` is pattern-sized (a handful of vertices, tens of pairs),
        // so the scratch is flat sorted vecs: linear degree lookup and a
        // binary-searched adjacency list beat hashed containers at this
        // scale — this runs once per trial, thousands of times per
        // estimate.
        let nv = self.verts.len();
        let verts = &self.verts;
        let deg_of = |v: VertexId| -> Option<usize> {
            verts
                .iter()
                .position(|&x| x == v)
                .map(|i| answers[i].expect_degree())
        };
        let mut adj: Vec<u64> = Vec::with_capacity(self.pairs.len());
        for (k, &(a, b)) in self.pairs.iter().enumerate() {
            if answers[nv + k].expect_adjacent() {
                adj.push(sgs_graph::Edge::new(a, b).key());
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
        for c in &self.cycles {
            let u1 = c.path[0].0;
            let du1 = deg_of(u1).expect("round-3 vertex") as f64;
            let mut seq: Vec<VertexId> = Vec::with_capacity(2 * c.path.len() + 1);
            for &(a, b) in &c.path {
                seq.push(a);
                seq.push(b);
            }
            if du1 <= self.sqrt2m {
                // Light case: the wedge answer closes the cycle.
                let Some(w) = c.w else { return };
                if self.mode == SamplerMode::Relaxed {
                    // Thin 1/dg(u1) down to exactly 1/sqrt(2m)
                    // (Algorithm 5, lines 21-22).
                    let t: f64 = self.rng.gen_f64() * self.sqrt2m;
                    if t > du1 {
                        return;
                    }
                }
                seq.push(w);
            } else {
                // Heavy case: the auxiliary edge's first endpoint is a
                // degree-proportional vertex sample; accept with
                // probability sqrt(2m)/dg (Algorithm 5, lines 26-27).
                let (u0, _) = c.aux.expect("aux edge present for live cycle");
                let Some(du0) = deg_of(u0) else { return };
                let t = self.rng.gen_f64();
                if t > (self.sqrt2m / du0 as f64).min(1.0) {
                    return;
                }
                seq.push(u0);
            }
            if !canonical::is_canonical_cycle(&seq, has_edge, precedes) {
                return;
            }
            concrete.push((c.piece_idx, ConcretePiece::Cycle(seq)));
        }

        // Stars: shared center and canonical petal order.
        for s in &self.stars {
            let x0 = s.edges[0].0;
            if !s.edges.iter().all(|&(x, _)| x == x0) {
                return;
            }
            let mut seq = vec![x0];
            seq.extend(s.edges.iter().map(|&(_, y)| y));
            if !canonical::is_canonical_star(&seq, has_edge, precedes) {
                return;
            }
            concrete.push((
                s.piece_idx,
                ConcretePiece::Star {
                    center: x0,
                    petals: s.edges.iter().map(|&(_, y)| y).collect(),
                },
            ));
        }

        // Restore plan piece order.
        concrete.sort_by_key(|&(idx, _)| idx);
        let pieces: Vec<ConcretePiece> = concrete.into_iter().map(|(_, p)| p).collect();

        let copies = compatible_copies(&self.plan.pattern, self.plan.pieces(), &pieces, &has_edge);
        if copies.is_empty() {
            return;
        }
        let f_t = self.plan.tuple_multiplicity() as f64;
        debug_assert!(
            copies.len() as f64 <= f_t,
            "|C(S)| = {} exceeds f_T = {}",
            copies.len(),
            f_t
        );
        // Accept with probability |C(S)|/f_T, then pick uniformly: each
        // compatible copy is returned with probability exactly 1/f_T.
        if !self.ft_correction {
            let idx = self.rng.gen_range(0..copies.len());
            self.outcome.copy = Some(copies[idx].clone());
            return;
        }
        let t = self.rng.gen_f64();
        if t < copies.len() as f64 / f_t {
            let idx = self.rng.gen_range(0..copies.len());
            self.outcome.copy = Some(copies[idx].clone());
        }
    }
}

impl RoundAdaptive for SubgraphSampler {
    type Output = SamplerOutcome;

    fn next_round(&mut self, answers: &[Answer]) -> Vec<Query> {
        match self.stage {
            0 => {
                self.stage = 1;
                self.round1()
            }
            1 => {
                if !self.absorb_round1(answers) {
                    return self.die();
                }
                if self.cycles.is_empty() {
                    // Star-only patterns skip the wedge round.
                    self.stage = 3;
                    self.round3()
                } else {
                    self.stage = 2;
                    self.round2()
                }
            }
            2 => {
                self.absorb_round2(answers);
                self.stage = 3;
                self.round3()
            }
            3 => {
                self.postprocess(answers);
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
