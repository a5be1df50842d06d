//! The `(1 ± ε)` subgraph-count estimator (Theorems 1 and 17).
//!
//! The FGP sampler returns any fixed copy of `H` with probability
//! `1/(2m)^ρ(H)`, so the total success probability of one trial is
//! `p = #H/(2m)^ρ(H)`. Running `k` independent trials **in parallel**
//! (they share the same 3 rounds, hence the same 3 passes) and counting
//! successes `X` gives the estimator `#Ĥ = (2m)^ρ(H) · X/k`, concentrated
//! by Chernoff bounds once `k ≳ (2m)^ρ/(ε²·#H)`.

use crate::fgp::multi_exec::{estimate, MultiQuerySpec};
use crate::fgp::plan::SamplerPlan;
use crate::fgp::sampler::{SamplerMode, SamplerOutcome, SubgraphSampler};
use sgs_graph::{AdjListGraph, Pattern, Rho};
use sgs_query::exec::run_on_oracle;
use sgs_query::{
    Engine, ExactOracle, ExecPolicy, ExecReport, Parallel, PassOpts, RouterArena, RouterMode,
};
use sgs_stream::hash::split_seed;
use sgs_stream::{EdgeStream, ShardedFeed};
use std::sync::Arc;

/// The result of a counting run.
#[derive(Clone, Debug)]
pub struct CountEstimate {
    /// The `(2m)^ρ · X/k` estimate of `#H`.
    pub estimate: f64,
    /// Successful trials `X`.
    pub hits: u64,
    /// Total trials `k`.
    pub trials: usize,
    /// Edge count observed in pass/round 1.
    pub m: usize,
    /// `ρ(H)`.
    pub rho: Rho,
    /// Rounds/passes/queries/space actually used.
    pub report: ExecReport,
}

impl CountEstimate {
    pub(crate) fn from_outcomes(
        outcomes: Vec<SamplerOutcome>,
        rho: Rho,
        report: ExecReport,
    ) -> Self {
        let trials = outcomes.len();
        let m = outcomes.iter().map(|o| o.m).max().unwrap_or(0);
        let hits = outcomes.iter().filter(|o| o.copy.is_some()).count() as u64;
        let estimate = if trials == 0 {
            0.0
        } else {
            rho.pow(2.0 * m as f64) * hits as f64 / trials as f64
        };
        CountEstimate {
            estimate,
            hits,
            trials,
            m,
            rho,
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
}

pub(crate) fn build_parallel(
    plan: &Arc<SamplerPlan>,
    mode: SamplerMode,
    trials: usize,
    seed: u64,
) -> Parallel<SubgraphSampler> {
    Parallel::new(
        (0..trials)
            .map(|i| SubgraphSampler::new(plan.clone(), mode, split_seed(seed, i as u64)))
            .collect(),
    )
}

/// Estimate `#H` from a replayable stream in `model` with `trials`
/// parallel sampler copies: 3 passes (Theorem 17 for
/// [`RouterMode::Insertion`] with the indexed sampler, Theorem 1 for
/// [`RouterMode::Turnstile`] with the relaxed one). Returns `None` for
/// patterns with isolated vertices.
///
/// The convenience over one shard with the default options: the stream
/// is partitioned into one shard and estimated with [`estimate`] on
/// [`Engine::Sharded`]. Partition once and call [`estimate`] for shards,
/// options, other engines or many queries.
pub fn estimate_stream(
    pattern: &Pattern,
    model: RouterMode,
    stream: &impl EdgeStream,
    trials: usize,
    seed: u64,
) -> Option<CountEstimate> {
    let feed = ShardedFeed::partition(stream, 1);
    let spec = MultiQuerySpec::new(pattern.clone(), trials, seed);
    let engine = Engine::Sharded(ExecPolicy::default());
    let mut arena = RouterArena::new();
    let opts = PassOpts::default();
    let (mut ests, _) = estimate(&[spec], model, &feed, &mut arena, opts, engine)?;
    ests.pop()
}

/// Estimate `#H` via direct query access (the sublinear-time mode).
pub fn estimate_oracle(
    pattern: &Pattern,
    g: &AdjListGraph,
    trials: usize,
    seed: u64,
) -> Option<CountEstimate> {
    let plan = SamplerPlan::new(pattern)?;
    let par = build_parallel(&plan, SamplerMode::Indexed, trials, seed);
    let mut oracle = ExactOracle::new(g, split_seed(seed, u64::MAX));
    let (outcomes, report) = run_on_oracle(par, &mut oracle);
    Some(CountEstimate::from_outcomes(outcomes, plan.rho(), report))
}

/// The paper's trial count (proof of Theorem 17):
/// `k = 30·(2m)^ρ·ln(n) / (ε²·L)`, where `L ≤ #H` is the promised lower
/// bound. Astronomically conservative; use [`practical_trials`] for
/// experiments and keep this for the record.
pub fn theory_trials(n: usize, m: usize, rho: Rho, epsilon: f64, lower_bound: f64) -> usize {
    assert!(epsilon > 0.0 && lower_bound > 0.0);
    let k =
        30.0 * rho.pow(2.0 * m as f64) * (n.max(2) as f64).ln() / (epsilon * epsilon * lower_bound);
    k.ceil() as usize
}

/// A calibrated trial count with the same functional form,
/// `k = c·(2m)^ρ / (ε²·L)` with `c = 8`: enough for the success-count
/// concentration at the confidence levels the experiments report.
pub fn practical_trials(m: usize, rho: Rho, epsilon: f64, lower_bound: f64) -> usize {
    assert!(epsilon > 0.0 && lower_bound > 0.0);
    let k = 8.0 * rho.pow(2.0 * m as f64) / (epsilon * epsilon * lower_bound);
    (k.ceil() as usize).max(1)
}

/// Peak resident bytes one insertion-model trial costs: the sampler, its
/// queries and answers, and its share of the pass state. Measured with
/// `sgs count --pattern triangle --shards 2` on a 1M-edge stream over
/// 50k vertices: 459.5 MB peak RSS at 300k trials against 78.7 MB at
/// one trial, (459.5 − 78.7) MiB / 300k ≈ 1,331 B.
pub const INSERTION_TRIAL_BYTES: u64 = 1_331;

/// Peak resident bytes one turnstile-model trial costs, dominated by its
/// `f1` ℓ₀-sampler (whose size grows with `log n`, so larger graphs cost
/// more). Measured with `sgs count --pattern triangle --turnstile
/// --shards 1` on gnm(200, 8000): 401.3 MB peak RSS at 30k trials
/// against 13.8 MB at one trial, (401.3 − 13.8) MiB / 30k ≈ 13,544 B.
pub const TURNSTILE_TRIAL_BYTES: u64 = 13_544;

/// Admit `trials` concurrently resident trials before anything is
/// allocated: their estimated footprint (`trials` times the model's
/// per-trial bytes, in checked arithmetic) must fit in `available`
/// bytes. `available` is the host's free memory
/// (`sgs_query::available_memory()`); with `None` only an overflowing
/// product refuses. Returns the estimated bytes, or the reason for
/// refusing, which names the trial count.
pub fn admit_trials(trials: u64, turnstile: bool, available: Option<u64>) -> Result<u64, String> {
    let per_trial = if turnstile {
        TURNSTILE_TRIAL_BYTES
    } else {
        INSERTION_TRIAL_BYTES
    };
    let Some(bytes) = trials.checked_mul(per_trial) else {
        return Err(format!(
            "{trials} trials: the memory estimate overflows ({per_trial} bytes per trial)"
        ));
    };
    match available {
        Some(avail) if bytes > avail => Err(format!(
            "{trials} trials need about {} MB ({per_trial} bytes per trial), more than the {} MB \
             of memory available",
            bytes / 1_000_000,
            avail / 1_000_000
        )),
        _ => Ok(bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::exact;
    use sgs_graph::gen;
    use sgs_stream::{InsertionStream, TurnstileStream};

    #[test]
    fn insertion_estimate_converges_triangle() {
        let g = gen::gnm(30, 150, 21);
        let exact = exact::triangles::count_triangles(&g);
        assert!(exact > 50);
        let ins = InsertionStream::from_graph(&g, 22);
        let est = estimate_stream(
            &Pattern::triangle(),
            RouterMode::Insertion,
            &ins,
            40_000,
            23,
        )
        .unwrap();
        assert_eq!(est.report.passes, 3);
        assert!(
            est.relative_error(exact) < 0.2,
            "estimate {} vs exact {exact}",
            est.estimate
        );
    }

    #[test]
    fn turnstile_estimate_converges_triangle() {
        let g = gen::gnm(24, 100, 31);
        let exact = exact::triangles::count_triangles(&g);
        assert!(exact > 20);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 32);
        let est = estimate_stream(
            &Pattern::triangle(),
            RouterMode::Turnstile,
            &tst,
            20_000,
            33,
        )
        .unwrap();
        assert!(est.report.passes <= 3);
        assert!(
            est.relative_error(exact) < 0.3,
            "estimate {} vs exact {exact}",
            est.estimate
        );
    }

    #[test]
    fn oracle_estimate_wedges() {
        let g = gen::gnm(25, 80, 41);
        let exact = exact::stars::count_wedges(&g);
        let est = estimate_oracle(&Pattern::star(2), &g, 30_000, 42).unwrap();
        assert!(
            est.relative_error(exact) < 0.2,
            "estimate {} vs exact {exact}",
            est.estimate
        );
        assert_eq!(est.m, 80);
    }

    #[test]
    fn zero_copies_estimates_zero_ish() {
        // Bipartite graph: no triangles; the estimator should say ~0.
        let g = gen::complete_bipartite(8, 8);
        let ins = InsertionStream::from_graph(&g, 1);
        let est =
            estimate_stream(&Pattern::triangle(), RouterMode::Insertion, &ins, 5_000, 2).unwrap();
        assert_eq!(est.hits, 0);
        assert_eq!(est.estimate, 0.0);
    }

    #[test]
    fn trial_formulas() {
        let rho = Rho::from_halves(3); // 3/2
        let t = theory_trials(1000, 500, rho, 0.1, 100.0);
        let p = practical_trials(500, rho, 0.1, 100.0);
        assert!(t > p, "theory constant should dominate: {t} vs {p}");
        assert!(p >= 1);
        // Scaling: doubling m multiplies trials by ~2^1.5.
        let p2 = practical_trials(1000, rho, 0.1, 100.0);
        let ratio = p2 as f64 / p as f64;
        assert!((2.6..3.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn trial_admission_multiplies_and_compares_with_the_budget() {
        let budget = Some(INSERTION_TRIAL_BYTES * 1_000);
        assert_eq!(
            admit_trials(1_000, false, budget),
            budget.ok_or(String::new())
        );
        let err = admit_trials(1_001, false, budget).unwrap_err();
        assert!(err.contains("1001 trials"), "{err}");
        let budget = Some(TURNSTILE_TRIAL_BYTES * 100);
        assert_eq!(admit_trials(100, true, budget), budget.ok_or(String::new()));
        assert!(admit_trials(101, true, budget).is_err());
        // Without a budget only overflow refuses.
        let big = 1u64 << 40;
        assert_eq!(
            admit_trials(big, true, None),
            Ok(big * TURNSTILE_TRIAL_BYTES)
        );
        let err = admit_trials(u64::MAX, false, None).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn isolated_vertex_pattern_returns_none() {
        let p = Pattern::from_edges(3, [(0, 1)]);
        let g = gen::gnm(10, 20, 1);
        let ins = InsertionStream::from_graph(&g, 2);
        assert!(estimate_stream(&p, RouterMode::Insertion, &ins, 10, 3).is_none());
    }
}
