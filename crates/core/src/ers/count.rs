//! `StreamCountClique` (Algorithm 2): median amplification of the basic
//! subroutine, and the public entry points for Theorem 2.

use crate::ers::approx::{ErsApproxClique, ErsOutcome};
use crate::ers::params::ErsParams;
use sgs_query::exec::{run_on_oracle, run_on_stream};
use sgs_query::RouterMode;
use sgs_query::{ExactOracle, ExecReport, Parallel};
use sgs_stream::hash::split_seed;
use sgs_stream::EdgeStream;
use std::sync::Arc;

/// Result of a full ERS counting run.
#[derive(Clone, Debug)]
pub struct ErsEstimate {
    /// Median estimate `n̂_r`.
    pub estimate: f64,
    /// Per-run outcomes (diagnostics: sample sizes, abort flags).
    pub runs: Vec<ErsOutcome>,
    /// Rounds/passes/queries/space of the whole (parallel) execution.
    pub report: ExecReport,
}

impl ErsEstimate {
    fn from_runs(runs: Vec<ErsOutcome>, report: ExecReport) -> Self {
        let mut vals: Vec<f64> = runs.iter().map(|o| o.estimate).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let estimate = if vals.is_empty() {
            0.0
        } else {
            vals[vals.len() / 2]
        };
        ErsEstimate {
            estimate,
            runs,
            report,
        }
    }

    /// Relative error against a known ground truth.
    pub fn relative_error(&self, exact: u64) -> f64 {
        if exact == 0 {
            return if self.estimate == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        (self.estimate - exact as f64).abs() / exact as f64
    }

    /// Largest `s_{t+1}` any run used — the measured space driver.
    pub fn max_sample_size(&self) -> usize {
        self.runs
            .iter()
            .flat_map(|r| r.sample_sizes.iter().copied())
            .max()
            .unwrap_or(0)
    }
}

/// Estimate `#K_r` from an insertion-only stream with `instances`
/// median-amplified copies of the basic subroutine sharing every pass
/// (Theorem 2; the paper's `q = Θ(log n)`).
pub fn count_cliques_insertion(
    params: &ErsParams,
    stream: &impl EdgeStream,
    instances: usize,
    seed: u64,
) -> ErsEstimate {
    let shared = Arc::new(params.clone());
    let par = Parallel::new(
        (0..instances)
            .map(|i| ErsApproxClique::new(shared.clone(), split_seed(seed, i as u64)))
            .collect(),
    );
    let (runs, report) = run_on_stream(
        RouterMode::Insertion,
        par,
        stream,
        split_seed(seed, u64::MAX),
    );
    ErsEstimate::from_runs(runs, report)
}

/// Estimate `#K_r` via direct query access (the ERS sublinear-time mode).
pub fn count_cliques_oracle(
    params: &ErsParams,
    g: &sgs_graph::AdjListGraph,
    instances: usize,
    seed: u64,
) -> ErsEstimate {
    let shared = Arc::new(params.clone());
    let par = Parallel::new(
        (0..instances)
            .map(|i| ErsApproxClique::new(shared.clone(), split_seed(seed, i as u64)))
            .collect(),
    );
    let mut oracle = ExactOracle::new(g, split_seed(seed, u64::MAX));
    let (runs, report) = run_on_oracle(par, &mut oracle);
    ErsEstimate::from_runs(runs, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::degeneracy::degeneracy;
    use sgs_graph::exact::cliques::count_cliques;
    use sgs_graph::gen;
    use sgs_stream::InsertionStream;

    #[test]
    fn median_estimate_triangles_ba() {
        let g = gen::barabasi_albert(150, 4, 17);
        let exact = count_cliques(&g, 3);
        assert!(exact > 50);
        let params = ErsParams::practical(3, degeneracy(&g), 0.3, exact as f64 * 0.4);
        let ins = InsertionStream::from_graph(&g, 18);
        let est = count_cliques_insertion(&params, &ins, 9, 19);
        assert!(est.report.passes <= 15, "passes {}", est.report.passes);
        assert!(
            est.relative_error(exact) < 0.3,
            "estimate {} vs exact {exact}",
            est.estimate
        );
    }

    #[test]
    fn parallel_instances_share_passes() {
        let g = gen::barabasi_albert(60, 3, 5);
        let exact = count_cliques(&g, 3).max(1);
        let params = ErsParams::practical(3, 3, 0.4, exact as f64);
        let ins = InsertionStream::from_graph(&g, 6);
        let one = count_cliques_insertion(&params, &ins, 1, 7);
        let many = count_cliques_insertion(&params, &ins, 7, 8);
        assert!(many.report.passes <= one.report.passes + 2);
        assert_eq!(many.runs.len(), 7);
    }

    #[test]
    fn zero_on_triangle_free() {
        let g = gen::complete_bipartite(7, 7);
        let params = ErsParams::practical(3, 2, 0.3, 1.0);
        let ins = InsertionStream::from_graph(&g, 1);
        let est = count_cliques_insertion(&params, &ins, 5, 2);
        assert_eq!(est.estimate, 0.0);
    }

    #[test]
    fn max_sample_size_reported() {
        let g = gen::barabasi_albert(80, 3, 9);
        let exact = count_cliques(&g, 3).max(1);
        let params = ErsParams::practical(3, 3, 0.3, exact as f64);
        let ins = InsertionStream::from_graph(&g, 10);
        let est = count_cliques_insertion(&params, &ins, 3, 11);
        assert!(est.max_sample_size() > 0);
    }
}
