//! `StreamApproxClique` (Algorithm 3) as a round-adaptive algorithm.
//!
//! Phases (each grow level costs 2 rounds = 2 passes, exactly Algorithm 4):
//!
//! 1. count `m` (pass 1);
//! 2. sample `s₂` uniformly random *oriented* edges → `R₂` (pass 2);
//! 3. collect `d[R₂]` (pass 3);
//! 4. for `t = 2 … r-1`: grow `R_t → R_{t+1}` via `StreamSet`
//!    (passes `2t` to `2t+1`);
//! 5. assignment: for every sampled ordered `r`-clique, decide
//!    `StrIsAssigned` by running `q` activity estimators for every
//!    distinct prefix (length `2 … r-1`) of every ordering of its vertex
//!    set — all in parallel, sharing rounds (Algorithms 17/18);
//! 6. output `n̂_r = (2m)/s₂ · Π_t dg(R_t)/s_{t+1} · Σ_{⃗C} IsAssigned(⃗C)`.
//!
//! Total passes: `3 + 2(r-2) + 2(r-2) = 4r - 5 ≤ 5r`, within Theorem 2's
//! budget (Theorem 20).
//!
//! `IsAssigned(⃗C)` is true iff `⃗C` is *fully active* (every prefix of
//! length `2 … r-1` is active) and no lexicographically smaller ordering
//! of the same vertex set is fully active — so each unordered clique has
//! at most one assigned ordering, and exactly one when at least one
//! ordering is fully active (the analysis' high-probability case).

use crate::ers::act::{majority_active, StrActRun};
use crate::ers::chain::{
    absorb_verify, draw_queries, set_weight, verify_queries, Candidate, GrowDraw, OrderedClique,
};
use crate::ers::params::ErsParams;
use sgs_graph::VertexId;
use sgs_query::{Answer, Parallel, Query, RoundAdaptive};
use sgs_stream::hash::split_seed;
use sgs_stream::hash::FastRng;
use std::collections::HashMap;
use std::sync::Arc;

/// Result of one `StreamApproxClique` run.
#[derive(Clone, Debug, Default)]
pub struct ErsOutcome {
    /// The estimate `n̂_r`.
    pub estimate: f64,
    /// Edge count observed in pass 1.
    pub m: usize,
    /// Whether a sample-size cap aborted the run (estimate forced to 0).
    pub aborted: bool,
    /// Sample-set sizes `s₂, s₃, …, s_r` actually used (the measured
    /// counterpart of the `m·λ^{r-2}/#K_r` space claim).
    pub sample_sizes: Vec<usize>,
    /// `|R_r|` (sampled ordered r-cliques) and how many were assigned.
    pub sampled_cliques: usize,
    /// Number of sampled cliques with `IsAssigned = 1`.
    pub assigned: usize,
}

enum Phase {
    Init,
    GotM,
    GotEdges,
    Grow,
    GrowVerify,
    Assign,
    Done,
}

/// The basic subroutine of Theorem 2 (median-amplified by
/// [`crate::ers::count_cliques_insertion`]).
pub struct ErsApproxClique {
    params: Arc<ErsParams>,
    rng: FastRng,
    seed: u64,
    phase: Phase,
    m: usize,
    s2: usize,
    deg: HashMap<VertexId, usize>,
    r_t: Vec<OrderedClique>,
    t: usize,
    omega: f64,
    prev_dg: u64,
    prev_s: usize,
    factor: f64,
    draws: Vec<GrowDraw>,
    cands: Vec<Candidate>,
    // Assignment state.
    acts: Option<Parallel<StrActRun>>,
    /// prefix -> (id, length); runs for prefix `id` occupy output slots
    /// `id*q .. (id+1)*q`.
    prefix_ids: HashMap<OrderedClique, usize>,
    prefix_lens: Vec<usize>,
    outcome: ErsOutcome,
}

impl ErsApproxClique {
    /// New run; `seed` drives all of its sampling decisions.
    pub fn new(params: Arc<ErsParams>, seed: u64) -> Self {
        ErsApproxClique {
            params,
            rng: FastRng::seed_from_u64(seed),
            seed,
            phase: Phase::Init,
            m: 0,
            s2: 0,
            deg: HashMap::new(),
            r_t: Vec::new(),
            t: 2,
            omega: 0.0,
            prev_dg: 0,
            prev_s: 0,
            factor: 0.0,
            draws: Vec::new(),
            cands: Vec::new(),
            acts: None,
            prefix_ids: HashMap::new(),
            prefix_lens: Vec::new(),
            outcome: ErsOutcome::default(),
        }
    }

    fn finish(&mut self, estimate: f64) -> Vec<Query> {
        self.outcome.estimate = estimate;
        self.phase = Phase::Done;
        Vec::new()
    }

    fn abort(&mut self) -> Vec<Query> {
        self.outcome.aborted = true;
        self.finish(0.0)
    }

    /// Start the grow level `t -> t+1`, or transition to assignment when
    /// `R_r` is complete.
    fn begin_grow(&mut self) -> Vec<Query> {
        let r = self.params.r;
        if self.t >= r {
            return self.begin_assignment();
        }
        let dg_rt = set_weight(&self.r_t, &self.deg);
        if dg_rt == 0 {
            return self.finish(0.0);
        }
        // ω̃_t = (1-γ)·ω̃_{t-1}·s_t/dg(R_{t-1})   (Algorithm 3, line 12)
        self.omega =
            self.params.omega_decay() * self.omega * self.prev_s as f64 / self.prev_dg as f64;
        let tau_next = if self.t + 1 < r {
            self.params.tau(self.t + 1)
        } else {
            1.0
        };
        let s_next =
            (dg_rt as f64 * tau_next / self.omega * self.params.confidence()).ceil() as usize;
        if let Some(cap) = self.params.sample_cap(self.m, self.t + 1) {
            if s_next as f64 > cap {
                return self.abort();
            }
        }
        if s_next == 0 {
            return self.finish(0.0);
        }
        self.outcome.sample_sizes.push(s_next);
        self.factor *= dg_rt as f64 / s_next as f64;
        self.prev_dg = dg_rt;
        self.prev_s = s_next;
        let (draws, queries) = draw_queries(&self.r_t, &self.deg, s_next, &mut self.rng);
        self.draws = draws;
        self.phase = Phase::GrowVerify;
        queries
    }

    /// Register the activity estimators for every distinct prefix of
    /// every ordering of every sampled clique.
    fn begin_assignment(&mut self) -> Vec<Query> {
        self.outcome.sampled_cliques = self.r_t.len();
        if self.r_t.is_empty() {
            return self.finish(0.0);
        }
        let r = self.params.r;
        let q = self.params.q_act;
        let mut runs: Vec<StrActRun> = Vec::new();
        for cq in &self.r_t {
            let mut sorted = cq.clone();
            sorted.sort_unstable();
            for perm in permutations(&sorted) {
                for t in 2..r {
                    let prefix: OrderedClique = perm[..t].to_vec();
                    if self.prefix_ids.contains_key(&prefix) {
                        continue;
                    }
                    let id = self.prefix_lens.len();
                    self.prefix_ids.insert(prefix.clone(), id);
                    self.prefix_lens.push(t);
                    for ell in 0..q {
                        runs.push(StrActRun::new(
                            self.params.clone(),
                            prefix.clone(),
                            &self.deg,
                            self.m,
                            split_seed(self.seed, (id * q + ell) as u64 + 1_000_000),
                        ));
                    }
                }
            }
        }
        let mut acts = Parallel::new(runs);
        let first = acts.next_round(&[]);
        self.acts = Some(acts);
        self.phase = Phase::Assign;
        if first.is_empty() {
            return self.finalize_assignment();
        }
        first
    }

    /// All activity runs finished: evaluate `IsAssigned` per sampled
    /// clique and produce the estimate.
    fn finalize_assignment(&mut self) -> Vec<Query> {
        let q = self.params.q_act;
        let results = self.acts.as_mut().expect("assignment running").output();
        let active: Vec<bool> = self
            .prefix_lens
            .iter()
            .enumerate()
            .map(|(id, &len)| majority_active(&self.params, len, &results[id * q..(id + 1) * q]))
            .collect();
        let fully_active = |ordering: &[VertexId]| -> bool {
            (2..self.params.r).all(|t| {
                let prefix: OrderedClique = ordering[..t].to_vec();
                active[self.prefix_ids[&prefix]]
            })
        };
        let mut assigned = 0usize;
        for cq in &self.r_t {
            if !fully_active(cq) {
                continue;
            }
            let mut sorted = cq.clone();
            sorted.sort_unstable();
            let mut is_min = true;
            for perm in permutations(&sorted) {
                if perm.as_slice() < cq.as_slice() && fully_active(&perm) {
                    is_min = false;
                    break;
                }
            }
            if is_min {
                assigned += 1;
            }
        }
        self.outcome.assigned = assigned;
        let estimate = self.factor * assigned as f64;
        self.finish(estimate)
    }
}

/// All permutations of a slice (r! of them; `r` is a small constant).
fn permutations(items: &[VertexId]) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(items.len());
    let mut used = vec![false; items.len()];
    fn rec(
        items: &[VertexId],
        cur: &mut Vec<VertexId>,
        used: &mut [bool],
        out: &mut Vec<Vec<VertexId>>,
    ) {
        if cur.len() == items.len() {
            out.push(cur.clone());
            return;
        }
        for j in 0..items.len() {
            if !used[j] {
                used[j] = true;
                cur.push(items[j]);
                rec(items, cur, used, out);
                cur.pop();
                used[j] = false;
            }
        }
    }
    rec(items, &mut cur, &mut used, &mut out);
    out
}

impl RoundAdaptive for ErsApproxClique {
    type Output = ErsOutcome;

    fn next_round(&mut self, answers: &[Answer]) -> Vec<Query> {
        match self.phase {
            Phase::Init => {
                self.phase = Phase::GotM;
                vec![Query::EdgeCount]
            }
            Phase::GotM => {
                self.m = answers[0].expect_edge_count();
                self.outcome.m = self.m;
                if self.m == 0 {
                    return self.finish(0.0);
                }
                self.omega = self.params.omega_init();
                self.s2 = ((self.m as f64) * self.params.tau(2) / self.omega
                    * self.params.confidence())
                .ceil()
                .max(1.0) as usize;
                self.outcome.sample_sizes.push(self.s2);
                self.phase = Phase::GotEdges;
                vec![Query::RandomEdge; self.s2]
            }
            Phase::GotEdges => {
                for a in answers {
                    if let Some(e) = a.expect_edge() {
                        // Uniformly random orientation (own coin): each
                        // ordered edge is drawn w.p. 1/(2m).
                        let (x, y) = if self.rng.gen_bool(0.5) {
                            (e.u(), e.v())
                        } else {
                            (e.v(), e.u())
                        };
                        self.r_t.push(vec![x, y]);
                    }
                }
                if self.r_t.is_empty() {
                    return self.finish(0.0);
                }
                // Pass 3: degrees of all R2 vertices.
                let mut distinct: Vec<VertexId> = self.r_t.iter().flatten().copied().collect();
                distinct.sort_unstable();
                distinct.dedup();
                self.deg = distinct.iter().map(|&v| (v, 0)).collect();
                self.phase = Phase::Grow;
                distinct.into_iter().map(Query::Degree).collect()
            }
            Phase::Grow => {
                if self.t == 2 && self.prev_s == 0 {
                    // Absorb the R2 degree answers.
                    let mut keys: Vec<VertexId> = self.deg.keys().copied().collect();
                    keys.sort_unstable();
                    for (k, a) in keys.into_iter().zip(answers) {
                        self.deg.insert(k, a.expect_degree());
                    }
                    self.prev_dg = self.m as u64; // dg(R_1) := m (Alg. 3 l.5)
                    self.prev_s = self.s2;
                    self.factor = 2.0 * self.m as f64 / self.s2 as f64;
                } else {
                    // Absorb a verification round: R_{t+1} complete.
                    let r_next = absorb_verify(&self.cands, answers, &mut self.deg);
                    self.cands.clear();
                    self.r_t = r_next;
                    self.t += 1;
                }
                self.begin_grow()
            }
            Phase::GrowVerify => {
                let (cands, queries) = verify_queries(&self.draws, answers);
                self.draws.clear();
                self.cands = cands;
                self.phase = Phase::Grow;
                if queries.is_empty() {
                    self.r_t.clear();
                    self.t += 1;
                    return self.begin_grow();
                }
                queries
            }
            Phase::Assign => {
                let acts = self.acts.as_mut().expect("assignment running");
                let batch = acts.next_round(answers);
                if batch.is_empty() {
                    return self.finalize_assignment();
                }
                batch
            }
            Phase::Done => Vec::new(),
        }
    }

    fn output(&mut self) -> ErsOutcome {
        std::mem::take(&mut self.outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::exact::cliques::count_cliques;
    use sgs_graph::{degeneracy::degeneracy, gen};
    use sgs_query::exec::{run_on_oracle, run_on_stream};
    use sgs_query::ExactOracle;
    use sgs_query::RouterMode;
    use sgs_stream::InsertionStream;

    fn mean_estimate(g: &sgs_graph::AdjListGraph, r: usize, runs: u64, lower_bound: f64) -> f64 {
        let lam = degeneracy(g);
        let params = Arc::new(ErsParams::practical(r, lam.max(1), 0.3, lower_bound));
        let mut sum = 0.0;
        for seed in 0..runs {
            let alg = ErsApproxClique::new(params.clone(), seed);
            let mut oracle = ExactOracle::new(g, 50_000 + seed);
            let (out, _) = run_on_oracle(alg, &mut oracle);
            assert!(!out.aborted);
            sum += out.estimate;
        }
        sum / runs as f64
    }

    #[test]
    fn triangle_estimate_on_ba_graph() {
        let g = gen::barabasi_albert(120, 4, 3);
        let exact = count_cliques(&g, 3) as f64;
        assert!(exact > 30.0);
        let mean = mean_estimate(&g, 3, 30, exact * 0.5);
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.25, "mean {mean} vs exact {exact} (rel {rel:.3})");
    }

    #[test]
    fn k4_estimate_on_dense_seed_graph() {
        // BA with larger attachment so K4s exist.
        let g = gen::barabasi_albert(60, 6, 9);
        let exact = count_cliques(&g, 4) as f64;
        assert!(exact > 10.0, "exact {exact}");
        let mean = mean_estimate(&g, 4, 25, exact * 0.5);
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.35, "mean {mean} vs exact {exact} (rel {rel:.3})");
    }

    #[test]
    fn pass_count_within_theorem_budget() {
        let g = gen::barabasi_albert(80, 4, 5);
        let exact = count_cliques(&g, 3) as f64;
        let params = Arc::new(ErsParams::practical(3, degeneracy(&g), 0.3, exact.max(1.0)));
        let ins = InsertionStream::from_graph(&g, 6);
        let alg = ErsApproxClique::new(params, 7);
        let (out, rep) = run_on_stream(RouterMode::Insertion, alg, &ins, 8);
        assert!(rep.passes <= 5 * 3, "passes {} > 5r", rep.passes);
        assert!(out.estimate >= 0.0);
    }

    #[test]
    fn no_cliques_means_zero() {
        let g = gen::complete_bipartite(6, 6); // triangle-free
        let params = Arc::new(ErsParams::practical(3, 2, 0.3, 1.0));
        let ins = InsertionStream::from_graph(&g, 1);
        let alg = ErsApproxClique::new(params, 2);
        let (out, _) = run_on_stream(RouterMode::Insertion, alg, &ins, 3);
        assert_eq!(out.estimate, 0.0);
        assert_eq!(out.assigned, 0);
    }

    #[test]
    fn empty_graph() {
        let g = sgs_graph::AdjListGraph::new(4);
        let params = Arc::new(ErsParams::practical(3, 1, 0.3, 1.0));
        let ins = InsertionStream::from_graph(&g, 1);
        let alg = ErsApproxClique::new(params, 2);
        let (out, _) = run_on_stream(RouterMode::Insertion, alg, &ins, 3);
        assert_eq!(out.estimate, 0.0);
        assert_eq!(out.m, 0);
    }

    #[test]
    fn sample_sizes_scale_with_m_over_lowerbound() {
        // Halving the lower bound should roughly double s2.
        let g = gen::barabasi_albert(100, 4, 11);
        let lam = degeneracy(&g);
        let run_s2 = |lb: f64| {
            let params = Arc::new(ErsParams::practical(3, lam, 0.3, lb));
            let mut oracle = ExactOracle::new(&g, 1);
            let alg = ErsApproxClique::new(params, 2);
            let (out, _) = run_on_oracle(alg, &mut oracle);
            out.sample_sizes[0]
        };
        let s_hi = run_s2(400.0);
        let s_lo = run_s2(200.0);
        let ratio = s_lo as f64 / s_hi as f64;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }
}
