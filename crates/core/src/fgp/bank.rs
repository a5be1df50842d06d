//! The production trial bank: `k` FGP trials (Theorem 17) in columns.
//!
//! [`TrialBank`] runs the same per-trial algorithm as `k`
//! [`crate::fgp::SubgraphSampler`]s inside [`sgs_query::Parallel`], with
//! the same coins and the same queries in rounds 1 and 2, but keeps every
//! trial's state in flat columns whose shape the [`SamplerPlan`] fixes:
//! one coin generator per trial, the oriented round-1 edges and the wedge
//! answers of each live trial, and a live-trial list per round. Each
//! round is written into one batch. The per-trial steps (orientation,
//! wedge queries, the round-3 vertex order, postprocessing) are the
//! functions the oracle sampler calls too; this module owns only the
//! layout and its bookkeeping.
//!
//! **Round 3 asks only what can still matter.** An indexed-mode trial
//! with a missing wedge answer is already lost (see
//! `sampler::settled_without_copy`), so the bank asks nothing for it in
//! round 3 and records no copy. Round 3 asks only `Degree` and `Adjacent`
//! queries, which draw no coins, so dropping some of them moves no other
//! answer: every outcome equals the oracle's. Rounds 1 and 2 are never
//! thinned — their `f1` targets and sampler lanes follow batch order. If
//! no trial is left to ask, the bank ends after two passes; the estimate
//! is the same (no trial hits either way).

use crate::fgp::assemble::FoundCopy;
use crate::fgp::plan::SamplerPlan;
use crate::fgp::sampler::{
    orient_edges, postprocess, push_round3, push_wedge_queries, round3_len, settled_without_copy,
    SamplerMode, SamplerOutcome, TrialDraws,
};
use sgs_graph::VertexId;
use sgs_query::{Answer, Query, RoundAdaptive};
use sgs_stream::hash::{split_seed, FastRng};
use std::sync::Arc;

/// Where the bank is in the 3-round protocol: the round whose answers
/// the next [`RoundAdaptive::next_round`] call receives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    Start,
    Edges,
    Wedges,
    Induced,
    Done,
}

/// `k` independent FGP trials sharing 3 rounds, in columns. Trial `i`
/// draws from `FastRng(split_seed(seed, i))`, exactly as the `i`-th
/// [`crate::fgp::SubgraphSampler`] of a `Parallel` bank does, and its
/// outcome is the same.
pub struct TrialBank {
    plan: Arc<SamplerPlan>,
    mode: SamplerMode,
    /// Round-1 edges per trial.
    width: usize,
    /// Wedge answers per trial (cycle pieces).
    cycles: usize,
    stage: Stage,
    /// The edge count every trial saw in round 1.
    m: usize,
    sqrt2m: f64,
    /// Per trial: its coin generator.
    rngs: Vec<FastRng>,
    /// Trials alive after round 1, ascending.
    live: Vec<u32>,
    /// `width` oriented round-1 edges per live trial, in `live` order.
    edges: Vec<(VertexId, VertexId)>,
    /// `cycles` wedge answers per live trial, in `live` order.
    wedges: Vec<Option<VertexId>>,
    /// Positions in `live` of the trials asked round 3, ascending.
    asked: Vec<u32>,
    /// Each asked trial's `V'`, concatenated; `vert_ends[k]` ends the
    /// `k`-th asked trial's run.
    verts: Vec<VertexId>,
    vert_ends: Vec<u32>,
    /// Hits: trial id and its copy, ascending by trial.
    copies: Vec<(u32, FoundCopy)>,
}

impl TrialBank {
    /// A bank of `trials` trials over `plan` in `mode`, trial `i` seeded
    /// `split_seed(seed, i)`.
    pub fn new(plan: &Arc<SamplerPlan>, mode: SamplerMode, trials: usize, seed: u64) -> Self {
        assert!(
            u32::try_from(trials).is_ok(),
            "{trials} trials do not fit the bank's 32-bit trial ids"
        );
        TrialBank {
            width: plan.round1_edge_queries(),
            cycles: plan.cycle_pieces(),
            plan: plan.clone(),
            mode,
            stage: Stage::Start,
            m: 0,
            sqrt2m: 0.0,
            rngs: (0..trials as u64)
                .map(|i| FastRng::seed_from_u64(split_seed(seed, i)))
                .collect(),
            live: Vec::new(),
            edges: Vec::new(),
            wedges: Vec::new(),
            asked: Vec::new(),
            verts: Vec::new(),
            vert_ends: Vec::new(),
            copies: Vec::new(),
        }
    }

    /// Number of trials.
    fn len(&self) -> usize {
        self.rngs.len()
    }

    /// Trials that were alive after round 2 but asked nothing in round 3,
    /// because their outcome was already "no copy". Empty until round 3
    /// has been emitted.
    pub fn skipped_round3(&self) -> Vec<usize> {
        if !matches!(self.stage, Stage::Induced | Stage::Done) {
            return Vec::new();
        }
        let mut asked = self.asked.iter().peekable();
        (0..self.live.len())
            .filter(|&k| asked.next_if(|&&a| a as usize == k).is_none())
            .map(|k| self.live[k] as usize)
            .collect()
    }

    /// Heap bytes the trial-state columns hold (their capacity). The
    /// copies found in round 3 are the output, one per hit, and are not
    /// counted.
    pub fn state_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.rngs)
            + bytes(&self.live)
            + bytes(&self.edges)
            + bytes(&self.wedges)
            + bytes(&self.asked)
            + bytes(&self.verts)
            + bytes(&self.vert_ends)
    }

    /// Round 1: per trial, the edge count and its pieces' edges.
    fn round1(&mut self) -> Vec<Query> {
        let mut qs = Vec::with_capacity(self.len() * (1 + self.width));
        for _ in 0..self.len() {
            qs.push(Query::EdgeCount);
            qs.extend(std::iter::repeat_n(Query::RandomEdge, self.width));
        }
        qs
    }

    /// Absorb round 1: learn `m`, orient every trial's edges and keep the
    /// trials whose `f1` queries all succeeded.
    fn absorb_edges(&mut self, answers: &[Answer]) {
        let per = 1 + self.width;
        assert_eq!(answers.len(), self.len() * per, "round-1 answer count");
        self.m = answers[0].expect_edge_count();
        self.sqrt2m = (2.0 * self.m as f64).sqrt();
        self.live.reserve_exact(self.len());
        self.edges.reserve_exact(self.len() * self.width);
        for (i, (trial, rng)) in answers.chunks_exact(per).zip(&mut self.rngs).enumerate() {
            // Every executor answers all `EdgeCount`s of a batch alike.
            assert_eq!(
                trial[0].expect_edge_count(),
                self.m,
                "trial {i} saw another m"
            );
            if self.m == 0 {
                continue;
            }
            let start = self.edges.len();
            if orient_edges(rng, &trial[1..], &mut self.edges) {
                self.live.push(i as u32);
            } else {
                self.edges.truncate(start);
            }
        }
    }

    /// Round 2: each live trial's wedge queries.
    fn round2(&mut self) -> Vec<Query> {
        let mut qs = Vec::with_capacity(self.live.len() * self.cycles);
        for (&i, edges) in self.live.iter().zip(self.edges.chunks_exact(self.width)) {
            let rng = &mut self.rngs[i as usize];
            push_wedge_queries(&self.plan, self.mode, self.sqrt2m, rng, edges, &mut qs);
        }
        qs
    }

    /// Round 3: degrees and adjacencies on `V'` for each live trial whose
    /// outcome is still open.
    fn round3(&mut self) -> Vec<Query> {
        let cycles = self.cycles;
        let wedges_of = |k: usize| &self.wedges[k * cycles..(k + 1) * cycles];
        let open: Vec<u32> = (0..self.live.len())
            .filter(|&k| !settled_without_copy(self.mode, wedges_of(k)))
            .map(|k| k as u32)
            .collect();
        // `V'` has at most two vertices per round-1 edge.
        let max_v = 2 * self.width;
        let mut qs = Vec::with_capacity(open.len() * round3_len(max_v));
        self.verts.reserve_exact(open.len() * max_v);
        self.vert_ends.reserve_exact(open.len());
        for &k in &open {
            let k = k as usize;
            let edges = &self.edges[k * self.width..(k + 1) * self.width];
            push_round3(&self.plan, edges, wedges_of(k), &mut self.verts, &mut qs);
            let end = u32::try_from(self.verts.len()).expect("V' columns fit 32-bit offsets");
            self.vert_ends.push(end);
        }
        self.asked = open;
        qs
    }

    /// Postprocess every trial asked round 3 from its slice of `answers`.
    fn absorb_induced(&mut self, answers: &[Answer]) {
        let mut at = 0usize;
        let mut vert_start = 0usize;
        for (&k, &vert_end) in self.asked.iter().zip(&self.vert_ends) {
            let (k, vert_end) = (k as usize, vert_end as usize);
            let verts = &self.verts[vert_start..vert_end];
            let len = round3_len(verts.len());
            let trial = self.live[k];
            let draws = TrialDraws {
                edges: &self.edges[k * self.width..(k + 1) * self.width],
                wedges: &self.wedges[k * self.cycles..(k + 1) * self.cycles],
                verts,
                answers: &answers[at..at + len],
            };
            let rng = &mut self.rngs[trial as usize];
            if let Some(c) = postprocess(&self.plan, self.mode, self.sqrt2m, true, rng, draws) {
                self.copies.push((trial, c));
            }
            at += len;
            vert_start = vert_end;
        }
        assert_eq!(at, answers.len(), "round-3 answer count");
    }

    /// Emit round 3, or finish when no trial is left to ask.
    fn round3_or_done(&mut self) -> Vec<Query> {
        let qs = self.round3();
        self.stage = if qs.is_empty() {
            Stage::Done
        } else {
            Stage::Induced
        };
        qs
    }
}

impl RoundAdaptive for TrialBank {
    type Output = Vec<SamplerOutcome>;

    fn next_round(&mut self, answers: &[Answer]) -> Vec<Query> {
        match self.stage {
            Stage::Start => {
                let qs = self.round1();
                self.stage = if qs.is_empty() {
                    Stage::Done
                } else {
                    Stage::Edges
                };
                qs
            }
            Stage::Edges => {
                self.absorb_edges(answers);
                if self.live.is_empty() {
                    self.stage = Stage::Done;
                    return Vec::new();
                }
                if self.cycles == 0 {
                    // Star-only patterns skip the wedge round.
                    return self.round3_or_done();
                }
                self.stage = Stage::Wedges;
                self.round2()
            }
            Stage::Wedges => {
                assert_eq!(
                    answers.len(),
                    self.live.len() * self.cycles,
                    "round-2 answer count"
                );
                self.wedges = answers.iter().map(Answer::expect_neighbor).collect();
                self.round3_or_done()
            }
            Stage::Induced => {
                self.absorb_induced(answers);
                self.stage = Stage::Done;
                Vec::new()
            }
            Stage::Done => Vec::new(),
        }
    }

    fn output(&mut self) -> Vec<SamplerOutcome> {
        let mut out = vec![
            SamplerOutcome {
                m: self.m,
                copy: None,
            };
            self.len()
        ];
        for (trial, copy) in self.copies.drain(..) {
            out[trial as usize].copy = Some(copy);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::Pattern;

    #[test]
    fn empty_bank_asks_nothing() {
        let plan = SamplerPlan::new(&Pattern::triangle()).unwrap();
        let mut bank = TrialBank::new(&plan, SamplerMode::Indexed, 0, 1);
        assert!(bank.next_round(&[]).is_empty());
        assert!(bank.output().is_empty());
    }

    /// A relaxed trial whose wedge query failed is still asked round 3
    /// (at a heavy `u1` it may yet hit); an indexed one is not.
    #[test]
    fn only_indexed_trials_with_a_missing_wedge_skip_round3() {
        let plan = SamplerPlan::new(&Pattern::triangle()).unwrap();
        let edge = |u, v| Answer::Edge(Some(sgs_graph::Edge::new(VertexId(u), VertexId(v))));
        // Both trials draw the auxiliary edge {3,4} and the path edge {1,2}.
        let round1 = [Answer::EdgeCount(3), edge(3, 4), edge(1, 2)].repeat(2);
        let wedges = [Answer::Neighbor(Some(VertexId(5))), Answer::Neighbor(None)];
        // `V'` is 4 vertices with the wedge answer (4 degrees, 6 pairs)
        // and 3 without (3 degrees, 3 pairs).
        for (mode, skipped, round3) in [
            (SamplerMode::Indexed, vec![1], 10),
            (SamplerMode::Relaxed, vec![], 16),
        ] {
            let mut bank = TrialBank::new(&plan, mode, 2, 9);
            assert_eq!(bank.next_round(&[]).len(), round1.len());
            assert_eq!(bank.next_round(&round1).len(), 2);
            assert_eq!(bank.next_round(&wedges).len(), round3, "{mode:?}");
            assert_eq!(bank.skipped_round3(), skipped, "{mode:?}");
        }
    }
}
