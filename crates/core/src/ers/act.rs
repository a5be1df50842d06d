//! `StrAct` (Algorithm 18): estimate how many cliques hang off a prefix.
//!
//! One *run* warm-starts the sampling chain from `R_i = {⃗I}` and grows it
//! to `R_r` through `2(r-i)` rounds, yielding the estimate
//! `ĉ_r(⃗I) = dg(R_i)···dg(R_{r-1}) / (s_{i+1}···s_r) · |R_r|`.
//! A prefix is **active** when the majority of `q` independent runs
//! report `ĉ_r(⃗I) ≤ τ_i/4` (Algorithm 18, lines 14–15); aborted runs
//! (sample-size cap exceeded) vote non-active.

use crate::ers::chain::{
    absorb_verify, draw_queries, set_weight, verify_queries, Candidate, GrowDraw, OrderedClique,
};
use crate::ers::params::ErsParams;
use sgs_graph::VertexId;
use sgs_query::{Answer, Query, RoundAdaptive};
use sgs_stream::hash::FastRng;
use std::collections::HashMap;
use std::sync::Arc;

/// One independent run of the activity estimator for one prefix.
pub struct StrActRun {
    params: Arc<ErsParams>,
    rng: FastRng,
    /// Prefix length `i`.
    i: usize,
    /// Edge count of the graph (from the outer algorithm's pass 1).
    m: usize,
    deg: HashMap<VertexId, usize>,
    r_t: Vec<OrderedClique>,
    t: usize,
    omega: f64,
    prev_dg: u64,
    prev_s: usize,
    factor: f64,
    draws: Vec<GrowDraw>,
    cands: Vec<Candidate>,
    stage: Stage,
    /// `Some(ĉ)` on completion; `None` after a cap abort.
    result: Option<f64>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    Draw,
    Verify,
    Done,
}

impl StrActRun {
    /// Start a run for `prefix` (length `>= 2`) whose vertex degrees are
    /// already known.
    pub fn new(
        params: Arc<ErsParams>,
        prefix: OrderedClique,
        prefix_degrees: &HashMap<VertexId, usize>,
        m: usize,
        seed: u64,
    ) -> Self {
        let i = prefix.len();
        debug_assert!(i >= 2 && i < params.r);
        let deg: HashMap<VertexId, usize> =
            prefix.iter().map(|v| (*v, prefix_degrees[v])).collect();
        let omega = (1.0 - params.epsilon / 2.0) * params.tau(i);
        StrActRun {
            params,
            rng: FastRng::seed_from_u64(seed),
            i,
            m,
            deg,
            r_t: vec![prefix],
            t: i,
            omega,
            prev_dg: 0,
            prev_s: 0,
            factor: 1.0,
            draws: Vec::new(),
            cands: Vec::new(),
            stage: Stage::Draw,
            result: None,
        }
    }

    /// `i`: the prefix length this run serves.
    pub fn prefix_len(&self) -> usize {
        self.i
    }

    fn finish(&mut self, c_hat: Option<f64>) -> Vec<Query> {
        self.result = c_hat;
        self.stage = Stage::Done;
        Vec::new()
    }

    /// Begin level `t -> t+1`: compute `s_{t+1}` and emit draw queries.
    fn begin_level(&mut self) -> Vec<Query> {
        let r = self.params.r;
        if self.t >= r {
            let c_hat = self.factor * self.r_t.len() as f64;
            return self.finish(Some(c_hat));
        }
        let dg_rt = set_weight(&self.r_t, &self.deg);
        if dg_rt == 0 {
            // Chain died: no extensions exist; ĉ = 0.
            return self.finish(Some(0.0));
        }
        if self.t > self.i {
            // ω̃_t = (1-γ)·ω̃_{t-1}·s_t / dg(R_{t-1})  (Algorithm 18 l.8)
            self.omega =
                self.params.omega_decay() * self.omega * self.prev_s as f64 / self.prev_dg as f64;
        }
        let tau_next = if self.t + 1 < r {
            self.params.tau(self.t + 1)
        } else {
            1.0 // τ_r = 1 (Algorithm 2)
        };
        let s_next =
            (dg_rt as f64 * tau_next / self.omega * self.params.confidence()).ceil() as usize;
        if let Some(cap) = self.params.sample_cap(self.m, self.t + 1) {
            if s_next as f64 > cap {
                return self.finish(None); // abort: non-active vote
            }
        }
        if s_next == 0 {
            return self.finish(Some(0.0));
        }
        self.factor *= dg_rt as f64 / s_next as f64;
        self.prev_dg = dg_rt;
        self.prev_s = s_next;
        let (draws, queries) = draw_queries(&self.r_t, &self.deg, s_next, &mut self.rng);
        self.draws = draws;
        self.stage = Stage::Verify;
        queries
    }
}

impl RoundAdaptive for StrActRun {
    /// `Some(ĉ_r(⃗I))`, or `None` after a cap abort.
    type Output = Option<f64>;

    fn next_round(&mut self, answers: &[Answer]) -> Vec<Query> {
        match self.stage {
            Stage::Draw => {
                if self.t > self.i || !answers.is_empty() || !self.cands.is_empty() {
                    // Absorb the previous level's verification answers.
                    let r_next = absorb_verify(&self.cands, answers, &mut self.deg);
                    self.cands.clear();
                    self.r_t = r_next;
                    self.t += 1;
                }
                self.begin_level()
            }
            Stage::Verify => {
                let (cands, queries) = verify_queries(&self.draws, answers);
                self.draws.clear();
                self.cands = cands;
                self.stage = Stage::Draw;
                if queries.is_empty() {
                    // No viable candidates: next level starts with R empty.
                    self.r_t.clear();
                    self.t += 1;
                    return self.begin_level();
                }
                queries
            }
            Stage::Done => Vec::new(),
        }
    }

    fn output(&mut self) -> Option<f64> {
        self.result
    }
}

/// Majority activity vote over `q` run results for a prefix of length `i`
/// (Algorithm 18, lines 14–15).
pub fn majority_active(params: &ErsParams, i: usize, results: &[Option<f64>]) -> bool {
    let threshold = params.activity_threshold(i);
    let votes = results
        .iter()
        .filter(|r| matches!(r, Some(c) if *c <= threshold))
        .count();
    2 * votes >= results.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::{gen, StaticGraph};
    use sgs_query::exec::{run_on_oracle, run_on_stream};
    use sgs_query::ExactOracle;
    use sgs_query::RouterMode;
    use sgs_stream::InsertionStream;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    fn run_act(
        g: &sgs_graph::AdjListGraph,
        prefix: Vec<VertexId>,
        r: usize,
        seed: u64,
    ) -> (Option<f64>, usize) {
        let params = Arc::new(ErsParams::practical(r, 3, 0.3, 1.0));
        let degs: HashMap<VertexId, usize> = prefix.iter().map(|&p| (p, g.degree(p))).collect();
        let m = g.num_edges();
        let run = StrActRun::new(params, prefix, &degs, m, seed);
        let mut oracle = ExactOracle::new(g, 1000 + seed);
        let (out, rep) = run_on_oracle(run, &mut oracle);
        (out, rep.rounds)
    }

    #[test]
    fn chat_estimates_extension_count_triangles() {
        // K5: prefix (0,1) extends to 3 ordered triangles (w in {2,3,4}).
        let g = gen::complete_graph(5);
        let mut ests = Vec::new();
        for seed in 0..200 {
            if let (Some(c), _) = run_act(&g, vec![v(0), v(1)], 3, seed) {
                ests.push(c);
            }
        }
        let avg: f64 = ests.iter().sum::<f64>() / ests.len() as f64;
        assert!(
            (avg - 3.0).abs() < 0.5,
            "mean ĉ = {avg}, want ~3 (w ∈ {{2,3,4}})"
        );
    }

    #[test]
    fn chat_zero_when_no_extensions() {
        // Path graph: edge (0,1) is in no triangle.
        let g = gen::path_graph(5);
        let (c, _) = run_act(&g, vec![v(0), v(1)], 3, 7);
        assert_eq!(c, Some(0.0));
    }

    #[test]
    fn rounds_bounded_by_2_r_minus_i() {
        let g = gen::complete_graph(6);
        let (_, rounds) = run_act(&g, vec![v(0), v(1)], 4, 3);
        assert!(rounds <= 2 * (4 - 2), "rounds {rounds}");
    }

    #[test]
    fn majority_vote_semantics() {
        let p = ErsParams::practical(3, 2, 0.3, 1.0);
        let thr = p.activity_threshold(2);
        assert!(majority_active(
            &p,
            2,
            &[Some(0.0), Some(thr), Some(thr * 2.0)]
        ));
        assert!(!majority_active(&p, 2, &[None, Some(thr * 2.0), Some(0.0)]));
        // Aborts vote non-active.
        assert!(!majority_active(&p, 2, &[None, None, Some(0.0)]));
    }

    #[test]
    fn works_through_stream_executor() {
        let g = gen::complete_graph(5);
        let params = Arc::new(ErsParams::practical(3, 3, 0.3, 1.0));
        let degs: HashMap<VertexId, usize> = [(v(0), 4), (v(1), 4)].into_iter().collect();
        let run = StrActRun::new(params, vec![v(0), v(1)], &degs, g.num_edges(), 5);
        let ins = InsertionStream::from_graph(&g, 6);
        let (out, rep) = run_on_stream(RouterMode::Insertion, run, &ins, 7);
        assert!(out.is_some());
        assert!(rep.passes <= 2);
    }
}
