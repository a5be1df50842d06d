//! The shared, immutable sampling plan for one target pattern.
//!
//! A plan bundles everything the FGP sampler precomputes *before* touching
//! the input: the Lemma 4 decomposition of `H` into odd cycles and stars,
//! `ρ(H)`, and the tuple multiplicity `f_T(H)` used by the acceptance coin
//! (Algorithm 9, line 15). Thousands of parallel sampler instances
//! (Theorem 17) share one plan through an [`std::sync::Arc`].

use sgs_graph::decompose::{decompose, CycleStarDecomposition, Piece};
use sgs_graph::{Pattern, Rho};
use std::sync::Arc;

/// Precomputed sampling plan for a pattern.
#[derive(Clone, Debug)]
pub struct SamplerPlan {
    /// The target pattern `H`.
    pub pattern: Pattern,
    /// Its optimal odd-cycle/star decomposition.
    pub decomp: CycleStarDecomposition,
}

impl SamplerPlan {
    /// Build a plan. Fails (returns `None`) only for patterns with
    /// isolated vertices, which admit no edge cover.
    pub fn new(pattern: &Pattern) -> Option<Arc<SamplerPlan>> {
        let decomp = decompose(pattern)?;
        Some(Arc::new(SamplerPlan {
            pattern: pattern.clone(),
            decomp,
        }))
    }

    /// `ρ(H)`.
    pub fn rho(&self) -> Rho {
        self.decomp.rho
    }

    /// `f_T(H)`: the number of ordered canonical piece-tuples per copy.
    pub fn tuple_multiplicity(&self) -> u64 {
        self.decomp.tuple_multiplicity
    }

    /// The pieces in tuple order.
    pub fn pieces(&self) -> &[Piece] {
        &self.decomp.pieces
    }

    /// Number of `f1` queries the sampler issues in round 1 (one per star
    /// petal edge, plus path edges and one auxiliary edge per cycle).
    pub fn round1_edge_queries(&self) -> usize {
        self.pieces().iter().map(piece_edge_queries).sum()
    }

    /// Number of odd-cycle pieces: the wedge queries one trial asks in
    /// round 2.
    pub fn cycle_pieces(&self) -> usize {
        self.pieces()
            .iter()
            .filter(|p| matches!(p, Piece::OddCycle(_)))
            .count()
    }

    /// The words one trial's state holds between rounds (Lemma 16: O(1)
    /// per trial): its 4-word coin generator, one word per oriented
    /// round-1 edge (two 32-bit endpoints) and one per wedge answer.
    pub fn trial_words(&self) -> usize {
        4 + self.round1_edge_queries() + self.cycle_pieces()
    }
}

/// The `f1` queries one piece asks in round 1: for a `2k+1`-cycle its `k`
/// path edges plus one auxiliary edge, for a star one per petal.
pub(crate) fn piece_edge_queries(p: &Piece) -> usize {
    match p {
        Piece::OddCycle(vs) => (vs.len() - 1) / 2 + 1,
        Piece::Star { petals, .. } => petals.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_plan() {
        let plan = SamplerPlan::new(&Pattern::triangle()).unwrap();
        assert_eq!(plan.rho().as_f64(), 1.5);
        assert_eq!(plan.tuple_multiplicity(), 1);
        // 3-cycle: k=1 path edge + 1 aux = 2 edge queries.
        assert_eq!(plan.round1_edge_queries(), 2);
    }

    #[test]
    fn k4_plan() {
        let plan = SamplerPlan::new(&Pattern::clique(4)).unwrap();
        assert_eq!(plan.rho().as_f64(), 2.0);
        assert_eq!(plan.tuple_multiplicity(), 24);
        assert_eq!(plan.round1_edge_queries(), 2); // two S_1 pieces
    }

    #[test]
    fn c5_plan() {
        let plan = SamplerPlan::new(&Pattern::cycle(5)).unwrap();
        assert_eq!(plan.rho().as_f64(), 2.5);
        assert_eq!(plan.round1_edge_queries(), 3); // 2 path + 1 aux
    }

    #[test]
    fn star_plan() {
        let plan = SamplerPlan::new(&Pattern::star(3)).unwrap();
        assert_eq!(plan.rho().as_f64(), 3.0);
        assert_eq!(plan.round1_edge_queries(), 3);
    }

    #[test]
    fn isolated_vertex_pattern_rejected() {
        let p = Pattern::from_edges(3, [(0, 1)]);
        assert!(SamplerPlan::new(&p).is_none());
    }
}
