//! `SampleSubgraphUniformly` (Algorithm 10): an exactly-uniform copy
//! sampler.
//!
//! Because every copy of `H` is returned by one sampler trial with the
//! *same* probability `1/(2m)^ρ(H)` (Lemma 15), the first successful
//! trial among many is a uniformly random copy. The paper prescribes
//! `q = 10·(2m)^ρ(H)/T` trials for success probability `≈ 1 - e^{-10}`
//! given `T ≤ #H`; all trials share the same 3 passes via
//! [`sgs_query::Parallel`].

use crate::fgp::assemble::FoundCopy;
use crate::fgp::plan::SamplerPlan;
use crate::fgp::sampler::{SamplerMode, SubgraphSampler};
use sgs_graph::Pattern;
use sgs_query::exec::{run_on_oracle, run_on_stream};
use sgs_query::RouterMode;
use sgs_query::{ExactOracle, ExecReport, Parallel};
use sgs_stream::hash::split_seed;
use sgs_stream::EdgeStream;

/// Result of a uniform-sampling run.
#[derive(Clone, Debug)]
pub struct UniformSample {
    /// The sampled copy — uniform over all copies of `H` — or `None`
    /// when every trial failed.
    pub copy: Option<FoundCopy>,
    /// Trials executed.
    pub trials: usize,
    /// Execution report (3 passes for streaming runs).
    pub report: ExecReport,
}

/// The paper's trial budget: `q = 10·(2m)^ρ(H)/T` with `T ≤ #H`.
pub fn uniform_trials(m: usize, pattern: &Pattern, count_lower_bound: f64) -> Option<usize> {
    let plan = SamplerPlan::new(pattern)?;
    let q = 10.0 * plan.rho().pow(2.0 * m as f64) / count_lower_bound.max(1.0);
    Some((q.ceil() as usize).max(1))
}

fn first_success(
    outcomes: Vec<crate::fgp::sampler::SamplerOutcome>,
    report: ExecReport,
) -> UniformSample {
    let trials = outcomes.len();
    // Trials are i.i.d., so taking the first success preserves
    // uniformity over copies.
    let copy = outcomes.into_iter().find_map(|o| o.copy);
    UniformSample {
        copy,
        trials,
        report,
    }
}

/// Sample a uniformly random copy of `H` from an insertion-only stream
/// in 3 passes. `None` if the pattern has an isolated vertex.
pub fn sample_uniform_insertion(
    pattern: &Pattern,
    stream: &impl EdgeStream,
    trials: usize,
    seed: u64,
) -> Option<UniformSample> {
    let plan = SamplerPlan::new(pattern)?;
    let par = Parallel::new(
        (0..trials)
            .map(|i| {
                SubgraphSampler::new(
                    plan.clone(),
                    SamplerMode::Indexed,
                    split_seed(seed, i as u64),
                )
            })
            .collect(),
    );
    let (outcomes, report) = run_on_stream(
        RouterMode::Insertion,
        par,
        stream,
        split_seed(seed, u64::MAX),
    );
    Some(first_success(outcomes, report))
}

/// Sample a uniformly random copy from a turnstile stream.
pub fn sample_uniform_turnstile(
    pattern: &Pattern,
    stream: &impl EdgeStream,
    trials: usize,
    seed: u64,
) -> Option<UniformSample> {
    let plan = SamplerPlan::new(pattern)?;
    let par = Parallel::new(
        (0..trials)
            .map(|i| {
                SubgraphSampler::new(
                    plan.clone(),
                    SamplerMode::Relaxed,
                    split_seed(seed, i as u64),
                )
            })
            .collect(),
    );
    let (outcomes, report) = run_on_stream(
        RouterMode::Turnstile,
        par,
        stream,
        split_seed(seed, u64::MAX),
    );
    Some(first_success(outcomes, report))
}

/// Sample via direct query access.
pub fn sample_uniform_oracle(
    pattern: &Pattern,
    g: &sgs_graph::AdjListGraph,
    trials: usize,
    seed: u64,
) -> Option<UniformSample> {
    let plan = SamplerPlan::new(pattern)?;
    let par = Parallel::new(
        (0..trials)
            .map(|i| {
                SubgraphSampler::new(
                    plan.clone(),
                    SamplerMode::Indexed,
                    split_seed(seed, i as u64),
                )
            })
            .collect(),
    );
    let mut oracle = ExactOracle::new(g, split_seed(seed, u64::MAX));
    let (outcomes, report) = run_on_oracle(par, &mut oracle);
    Some(first_success(outcomes, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::{gen, StaticGraph};
    use sgs_stream::InsertionStream;
    use std::collections::HashMap;

    #[test]
    fn finds_a_copy_with_prescribed_budget() {
        let g = gen::gnm(25, 120, 1);
        let exact = sgs_graph::exact::triangles::count_triangles(&g);
        assert!(exact > 10);
        let trials = uniform_trials(120, &Pattern::triangle(), exact as f64).unwrap();
        let stream = InsertionStream::from_graph(&g, 2);
        let s = sample_uniform_insertion(&Pattern::triangle(), &stream, trials, 3).unwrap();
        assert!(s.copy.is_some(), "budget {trials} should almost surely hit");
        assert_eq!(s.report.passes, 3);
    }

    #[test]
    fn copies_are_roughly_uniform() {
        // Small graph with few triangles: check each copy is sampled at
        // a comparable rate.
        let g: sgs_graph::AdjListGraph = "0 1\n1 2\n2 0\n2 3\n3 4\n4 2\n4 5\n5 0\n0 4"
            .parse()
            .unwrap();
        let exact = sgs_graph::exact::triangles::count_triangles(&g);
        assert!(exact >= 3);
        let mut counts: HashMap<Vec<u32>, u32> = HashMap::new();
        let runs = 3000;
        for seed in 0..runs {
            let s = sample_uniform_oracle(&Pattern::triangle(), &g, 40, seed).unwrap();
            if let Some(c) = s.copy {
                let key: Vec<u32> = c.vertices.iter().map(|v| v.0).collect();
                *counts.entry(key).or_default() += 1;
            }
        }
        assert_eq!(counts.len() as u64, exact, "all copies eventually seen");
        let total: u32 = counts.values().sum();
        let expect = total as f64 / exact as f64;
        for (k, &c) in &counts {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.2, "copy {k:?} sampled {c} times vs {expect:.0}");
        }
    }

    #[test]
    fn returns_none_on_pattern_free_graph() {
        let g = gen::complete_bipartite(5, 5);
        let stream = InsertionStream::from_graph(&g, 4);
        let s = sample_uniform_insertion(&Pattern::triangle(), &stream, 500, 5).unwrap();
        assert!(s.copy.is_none());
    }

    #[test]
    fn turnstile_uniform_sampling_works() {
        use sgs_stream::TurnstileStream;
        let g = gen::gnm(20, 90, 6);
        assert!(sgs_graph::exact::triangles::count_triangles(&g) > 5);
        let stream = TurnstileStream::from_graph_with_churn(&g, 1.0, 7);
        let trials = uniform_trials(90, &Pattern::triangle(), 5.0).unwrap();
        let s =
            sample_uniform_turnstile(&Pattern::triangle(), &stream, trials.min(20_000), 8).unwrap();
        if let Some(c) = &s.copy {
            for e in &c.edges {
                assert!(g.has_edge(e.u(), e.v()));
            }
        }
    }

    #[test]
    fn budget_formula() {
        let t = uniform_trials(100, &Pattern::triangle(), 10.0).unwrap();
        // 10 * (200)^1.5 / 10 = 2828.
        assert!((2700..2900).contains(&t), "{t}");
        assert!(uniform_trials(100, &Pattern::from_edges(3, [(0, 1)]), 1.0).is_none());
    }
}
