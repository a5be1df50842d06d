//! The paper's §3 worked example: a 4-round adaptive triangle finder.
//!
//! > 1. Sample one edge `e = (u, v)` uniformly at random,
//! > 2. query the degrees of `u, v` and let `u` be the endpoint whose
//! >    degree is no larger than the other's,
//! > 3. sample a random neighbor `w` of `u`, and
//! > 4. query whether `{v, w} ∈ E`.
//!
//! Rounds: `Q1 = (f1)`, `Q2 = (f2(u), f2(v))`, `Q3 = (f3(u, i))` with `i`
//! uniform in `[dg(u)]`, `Q4 = (f4(v, w))`. Per Theorem 9 this becomes a
//! 4-pass insertion-only streaming algorithm; with the relaxed `f3` it
//! becomes a 4-pass turnstile algorithm (Theorem 11). Experiment E10
//! verifies that all three executions find triangles at statistically
//! indistinguishable rates.

use crate::query::{Answer, Query};
use crate::round::RoundAdaptive;
use sgs_graph::VertexId;
use sgs_stream::hash::FastRng;

/// How the third-round neighbor sample is issued.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NeighborMode {
    /// `f3(u, i)` with self-sampled `i ∈ [dg(u)]` (augmented general
    /// model; insertion-only streams).
    Indexed,
    /// Relaxed `f3(u)` (Definition 10; turnstile streams).
    Relaxed,
}

/// The 4-round triangle finder.
pub struct TriangleFinder {
    rng: FastRng,
    mode: NeighborMode,
    stage: u8,
    u: Option<VertexId>,
    v: Option<VertexId>,
    w: Option<VertexId>,
    found: Option<(VertexId, VertexId, VertexId)>,
}

impl TriangleFinder {
    /// New finder; `seed` drives its internal coins (edge orientation and
    /// the neighbor index).
    pub fn new(seed: u64, mode: NeighborMode) -> Self {
        TriangleFinder {
            rng: FastRng::seed_from_u64(seed),
            mode,
            stage: 0,
            u: None,
            v: None,
            w: None,
            found: None,
        }
    }
}

impl RoundAdaptive for TriangleFinder {
    /// The triangle `(u, v, w)` if one was found.
    type Output = Option<(VertexId, VertexId, VertexId)>;

    fn next_round(&mut self, answers: &[Answer]) -> Vec<Query> {
        match self.stage {
            0 => {
                self.stage = 1;
                vec![Query::RandomEdge]
            }
            1 => {
                let Some(e) = answers[0].expect_edge() else {
                    self.stage = 99;
                    return Vec::new();
                };
                // Random orientation (the algorithm's own coin).
                let (a, b) = if self.rng.gen_bool(0.5) {
                    (e.u(), e.v())
                } else {
                    (e.v(), e.u())
                };
                self.u = Some(a);
                self.v = Some(b);
                self.stage = 2;
                vec![Query::Degree(a), Query::Degree(b)]
            }
            2 => {
                let du = answers[0].expect_degree();
                let dv = answers[1].expect_degree();
                // u becomes the endpoint with the smaller degree.
                if du > dv {
                    std::mem::swap(self.u.as_mut().unwrap(), self.v.as_mut().unwrap());
                }
                let u = self.u.unwrap();
                let d = du.min(dv);
                if d == 0 {
                    self.stage = 99;
                    return Vec::new();
                }
                self.stage = 3;
                match self.mode {
                    NeighborMode::Indexed => {
                        let i = self.rng.gen_range(1..=d as u64);
                        vec![Query::IthNeighbor(u, i)]
                    }
                    NeighborMode::Relaxed => vec![Query::RandomNeighbor(u)],
                }
            }
            3 => {
                let Some(w) = answers[0].expect_neighbor() else {
                    self.stage = 99;
                    return Vec::new();
                };
                let v = self.v.unwrap();
                if w == v {
                    // Sampled the edge partner itself: no third vertex.
                    self.stage = 99;
                    return Vec::new();
                }
                self.w = Some(w);
                self.stage = 4;
                vec![Query::Adjacent(v, w)]
            }
            4 => {
                if answers[0].expect_adjacent() {
                    self.found = Some((self.u.unwrap(), self.v.unwrap(), self.w.unwrap()));
                }
                self.stage = 99;
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn output(&mut self) -> Self::Output {
        self.found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_on_oracle, run_on_stream};
    use crate::oracle::ExactOracle;
    use crate::router::RouterMode;
    use sgs_graph::{gen, StaticGraph};
    use sgs_stream::{InsertionStream, TurnstileStream};

    #[test]
    fn uses_exactly_four_rounds() {
        let g = gen::complete_graph(6);
        let mut o = ExactOracle::new(&g, 1);
        let (out, rep) = run_on_oracle(TriangleFinder::new(0, NeighborMode::Indexed), &mut o);
        assert_eq!(rep.rounds, 4);
        assert_eq!(rep.queries, 5); // 1 + 2 + 1 + 1
        assert!(out.is_some(), "K6: any (e, w) completes a triangle");
    }

    #[test]
    fn four_passes_in_streams() {
        let g = gen::complete_graph(6);
        let ins = InsertionStream::from_graph(&g, 3);
        let (out, rep) = run_on_stream(
            RouterMode::Insertion,
            TriangleFinder::new(4, NeighborMode::Indexed),
            &ins,
            5,
        );
        assert_eq!(rep.passes, 4);
        assert!(out.is_some());

        let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 6);
        let (out, rep) = run_on_stream(
            RouterMode::Turnstile,
            TriangleFinder::new(7, NeighborMode::Relaxed),
            &tst,
            8,
        );
        assert_eq!(rep.passes, 4);
        assert!(out.is_some());
    }

    #[test]
    fn found_triangles_are_real() {
        let g = gen::gnm(25, 110, 9);
        let ins = InsertionStream::from_graph(&g, 10);
        let mut found = 0;
        for t in 0..300u64 {
            let (out, _) = run_on_stream(
                RouterMode::Insertion,
                TriangleFinder::new(t, NeighborMode::Indexed),
                &ins,
                1000 + t,
            );
            if let Some((a, b, c)) = out {
                found += 1;
                assert!(g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c));
            }
        }
        assert!(found > 0, "should find at least one triangle in 300 trials");
    }

    #[test]
    fn triangle_free_graph_never_finds() {
        let g = gen::complete_bipartite(6, 6);
        let ins = InsertionStream::from_graph(&g, 11);
        for t in 0..100u64 {
            let (out, _) = run_on_stream(
                RouterMode::Insertion,
                TriangleFinder::new(t, NeighborMode::Indexed),
                &ins,
                t,
            );
            assert!(out.is_none());
        }
    }

    #[test]
    fn oracle_and_stream_success_rates_match() {
        // Theorem 9: same output distribution. Compare success frequencies.
        let g = gen::gnm(20, 80, 12);
        let ins = InsertionStream::from_graph(&g, 13);
        let trials = 2500u64;
        let mut oracle_hits = 0u32;
        let mut stream_hits = 0u32;
        for t in 0..trials {
            let mut o = ExactOracle::new(&g, 50_000 + t);
            if run_on_oracle(TriangleFinder::new(t, NeighborMode::Indexed), &mut o)
                .0
                .is_some()
            {
                oracle_hits += 1;
            }
            if run_on_stream(
                RouterMode::Insertion,
                TriangleFinder::new(t, NeighborMode::Indexed),
                &ins,
                90_000 + t,
            )
            .0
            .is_some()
            {
                stream_hits += 1;
            }
        }
        let (p, q) = (
            oracle_hits as f64 / trials as f64,
            stream_hits as f64 / trials as f64,
        );
        assert!(
            (p - q).abs() < 0.05,
            "success rates diverge: oracle {p:.3} vs stream {q:.3}"
        );
    }
}
