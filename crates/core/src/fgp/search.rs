//! Removing the known-`#H` assumption: geometric search and the gap
//! distinguisher.
//!
//! The paper parameterizes its algorithms by a promised lower bound
//! `L ≤ #H` and notes (§1.1) that one can instead (a) phrase the problem
//! as *distinguishing* `#H ≤ L` from `#H ≥ (1+ε)L`, or (b) run a
//! geometric search over `L` (as Lemma 21 does for the ERS counter).
//! Both are implemented here for the FGP estimator:
//!
//! * [`distinguish_insertion`] — one 3-pass run sized for gap `ε` at
//!   threshold `L`;
//! * [`search_count_insertion`] — start from the AGM-bound-backed guess
//!   `L₀ = (2m)^ρ(H)` (no graph has more copies, §1 [AGM08]) and halve
//!   until the estimate validates the guess. Each halving doubles the
//!   trial budget, so the total work is within 2× of the final round's,
//!   and each round costs 3 passes.

use crate::fgp::counter::{estimate_stream, practical_trials, CountEstimate};
use crate::fgp::multi_exec::{estimate, MultiQuerySpec};
use sgs_graph::Pattern;
use sgs_query::{Engine, ExecPolicy, PassOpts, RouterArena, RouterMode};
use sgs_stream::hash::split_seed;
use sgs_stream::{EdgeStream, ShardedFeed};

/// Outcome of the gap distinguisher.
#[derive(Clone, Debug)]
pub struct GapDecision {
    /// `true` means "at least (1+ε)·L", `false` means "at most L".
    pub above: bool,
    /// The underlying estimate.
    pub estimate: CountEstimate,
}

/// Decide `#H ≤ L` vs `#H ≥ (1+ε)L` in 3 passes (correct with
/// probability controlled by the trial constant when the truth is
/// outside the gap).
pub fn distinguish_insertion(
    pattern: &Pattern,
    stream: &impl EdgeStream,
    threshold: f64,
    epsilon: f64,
    seed: u64,
) -> Option<GapDecision> {
    assert!(threshold >= 1.0 && epsilon > 0.0);
    let plan = crate::fgp::plan::SamplerPlan::new(pattern)?;
    // Size for the gap: need relative error < eps/2 at count ~ L.
    let m_guess = stream.len(); // upper bound on m (exact for insertion-only)
    let trials = practical_trials(m_guess, plan.rho(), epsilon / 2.0, threshold);
    let estimate = estimate_stream(pattern, RouterMode::Insertion, stream, trials, seed)?;
    let above = estimate.estimate >= (1.0 + epsilon / 2.0) * threshold;
    Some(GapDecision { above, estimate })
}

/// Outcome of the geometric search.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The final estimate of `#H`.
    pub estimate: f64,
    /// The lower-bound guess the search stopped at.
    pub accepted_lower_bound: f64,
    /// Search rounds executed (each costs 3 passes).
    pub rounds: usize,
    /// Total passes over the stream (3 per round).
    pub total_passes: usize,
    /// Total sampler trials across all rounds.
    pub total_trials: usize,
    /// Per-round estimates (diagnostics).
    pub trace: Vec<CountEstimate>,
}

/// Estimate `#H` with *no prior knowledge of a lower bound*, by geometric
/// search over `L` (cf. Lemma 21). `max_trials_per_round` caps the cost
/// of the final rounds (reached only when `#H` is tiny).
pub fn search_count_insertion(
    pattern: &Pattern,
    stream: &impl EdgeStream,
    epsilon: f64,
    seed: u64,
    max_trials_per_round: usize,
) -> Option<SearchResult> {
    assert!(epsilon > 0.0);
    let plan = crate::fgp::plan::SamplerPlan::new(pattern)?;
    let m = stream.len(); // insertion-only: stream length = m
    if m == 0 {
        return Some(SearchResult {
            estimate: 0.0,
            accepted_lower_bound: 0.0,
            rounds: 0,
            total_passes: 0,
            total_trials: 0,
            trace: Vec::new(),
        });
    }
    // AGM bound: #H <= m^rho(H); (2m)^rho is a comfortable ceiling.
    let mut guess = plan.rho().pow(2.0 * m as f64);
    let mut rounds = 0usize;
    let mut total_trials = 0usize;
    let mut trace = Vec::new();
    // Partition once and keep one arena across all search rounds: every
    // per-round estimate reuses the warmed routers instead of paying the
    // partition copy and the router build allocations again. Answers are
    // unchanged (the sharded path is byte-identical to estimate_stream
    // at any shard count, including 1).
    let feed = ShardedFeed::partition(stream, 1);
    let mut arena = RouterArena::new();
    loop {
        rounds += 1;
        let trials = practical_trials(m, plan.rho(), epsilon, guess).min(max_trials_per_round);
        total_trials += trials;
        let spec = MultiQuerySpec::new(pattern.clone(), trials, split_seed(seed, rounds as u64));
        let engine = Engine::Sharded(ExecPolicy::default());
        let (mut ests, _) = estimate(
            &[spec],
            RouterMode::Insertion,
            &feed,
            &mut arena,
            PassOpts::default(),
            engine,
        )?;
        let est = ests.pop()?;
        let accept = est.estimate >= guess;
        trace.push(est.clone());
        if accept || guess < 1.0 || trials >= max_trials_per_round {
            return Some(SearchResult {
                estimate: est.estimate,
                accepted_lower_bound: guess,
                rounds,
                total_passes: rounds * est.report.passes,
                total_trials,
                trace,
            });
        }
        guess /= 2.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::{exact, gen};
    use sgs_stream::InsertionStream;

    #[test]
    fn search_finds_count_without_prior() {
        let g = gen::gnm(40, 220, 1);
        let exact_t = exact::triangles::count_triangles(&g);
        assert!(exact_t > 50);
        let stream = InsertionStream::from_graph(&g, 2);
        let res = search_count_insertion(&Pattern::triangle(), &stream, 0.25, 3, 200_000).unwrap();
        let rel = (res.estimate - exact_t as f64).abs() / exact_t as f64;
        assert!(rel < 0.3, "estimate {} vs exact {exact_t}", res.estimate);
        assert!(res.rounds >= 2, "search should need several halvings");
        assert_eq!(res.total_passes, 3 * res.rounds);
    }

    #[test]
    fn search_on_empty_graph() {
        let g = sgs_graph::AdjListGraph::new(5);
        let stream = InsertionStream::from_graph(&g, 1);
        let res = search_count_insertion(&Pattern::triangle(), &stream, 0.3, 2, 1000).unwrap();
        assert_eq!(res.estimate, 0.0);
        assert_eq!(res.total_passes, 0);
    }

    #[test]
    fn search_total_work_dominated_by_last_round() {
        let g = gen::gnm(30, 150, 4);
        let stream = InsertionStream::from_graph(&g, 5);
        let res = search_count_insertion(&Pattern::triangle(), &stream, 0.3, 6, 300_000).unwrap();
        let last = res.trace.last().unwrap().trials;
        assert!(
            res.total_trials <= 3 * last,
            "geometric sum: total {} vs last {last}",
            res.total_trials
        );
    }

    #[test]
    fn distinguisher_separates_clear_cases() {
        let g = gen::gnm(40, 220, 7);
        let exact_t = exact::triangles::count_triangles(&g) as f64;
        assert!(exact_t > 50.0);
        let stream = InsertionStream::from_graph(&g, 8);
        // Threshold far below the truth: must say "above".
        let d =
            distinguish_insertion(&Pattern::triangle(), &stream, exact_t / 4.0, 0.5, 9).unwrap();
        assert!(d.above);
        // Threshold far above the truth: must say "below".
        let d =
            distinguish_insertion(&Pattern::triangle(), &stream, exact_t * 4.0, 0.5, 10).unwrap();
        assert!(!d.above);
    }

    #[test]
    fn distinguisher_on_pattern_free_graph() {
        let g = gen::complete_bipartite(6, 6);
        let stream = InsertionStream::from_graph(&g, 11);
        let d = distinguish_insertion(&Pattern::triangle(), &stream, 10.0, 0.5, 12).unwrap();
        assert!(!d.above);
        assert_eq!(d.estimate.hits, 0);
    }
}
