//! The estimator's one call: `#H` estimates for one or many query specs
//! from ONE shared pass per round, in either stream model, on any engine.
//!
//! [`estimate`] admits every spec's trial bank into one
//! [`sgs_query::QuerySet`] and runs it with [`sgs_query::QuerySet::run`],
//! which takes the stream model and the [`Engine`] as arguments. A solo
//! estimate is the one-spec call; N estimates (different patterns, trial
//! counts, seeds, reservoir modes) cost exactly **3 shared passes** in
//! total instead of `3·N`, because every trial bank rides the same merged
//! router. Each estimate is **byte-identical** to its solo run with the
//! same spec, for any shard count, block size, engine and policy — the
//! multiplexer replays each job's private coin chain exactly. `sgs count`
//! (solo and `--queries`) and `sgs serve` (lone and batched COUNTs) all
//! make this call.

use crate::fgp::counter::{build_parallel, CountEstimate};
use crate::fgp::plan::SamplerPlan;
use crate::fgp::sampler::SamplerMode;
use sgs_graph::Pattern;
use sgs_query::multiplex::{AdmissionReport, QuerySet};
use sgs_query::{Engine, ExecPolicy, PassOpts, RouterArena, RouterMode};
use sgs_stream::hash::split_seed;
use sgs_stream::reservoir::ReservoirMode;
use sgs_stream::ShardedFeed;

/// One estimate's request: the pattern, its trial count and seed, and
/// the sampler and reservoir choices of an insertion-model run.
#[derive(Clone, Debug)]
pub struct MultiQuerySpec {
    /// The pattern `H` to count.
    pub pattern: Pattern,
    /// Parallel sampler trials `k` for this query.
    pub trials: usize,
    /// The query's private seed — the same value a solo run would take.
    pub seed: u64,
    /// Which Theorem-9 query mix the trials ask (insertion model only;
    /// turnstile always runs relaxed).
    pub sampler: SamplerMode,
    /// Relaxed-`f3` reservoir acceptance scheme for this query.
    pub reservoir: ReservoirMode,
}

impl MultiQuerySpec {
    /// A spec with the library defaults: indexed sampler, default
    /// reservoir mode.
    pub fn new(pattern: Pattern, trials: usize, seed: u64) -> Self {
        MultiQuerySpec {
            pattern,
            trials,
            seed,
            sampler: SamplerMode::Indexed,
            reservoir: ReservoirMode::default(),
        }
    }
}

/// Estimate every spec's `#H` from one shared pass per round in `model`
/// on `engine`. Returns per-spec estimates (spec order) plus the
/// multiplexer's admission report; `None` if any pattern has no sampler
/// plan. Under [`RouterMode::Turnstile`] every spec runs the relaxed
/// sampler (Definition 10 has no arrival-order watchers). Each job runs
/// in its spec's reservoir mode; `opts.reservoir` is ignored.
pub fn estimate(
    specs: &[MultiQuerySpec],
    model: RouterMode,
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    opts: PassOpts,
    engine: Engine<'_, '_>,
) -> Option<(Vec<CountEstimate>, AdmissionReport)> {
    let mut set = QuerySet::new();
    let mut rhos = Vec::with_capacity(specs.len());
    for spec in specs {
        let plan = SamplerPlan::new(&spec.pattern)?;
        let sampler = match model {
            RouterMode::Insertion => spec.sampler,
            RouterMode::Turnstile => SamplerMode::Relaxed,
        };
        let par = build_parallel(&plan, sampler, spec.trials, spec.seed);
        set.admit(par, split_seed(spec.seed, u64::MAX), spec.reservoir);
        rhos.push(plan.rho());
    }
    let out = set.run(model, feed, arena, opts, engine);
    let ests = out
        .outputs
        .into_iter()
        .zip(out.reports)
        .zip(rhos)
        .map(|((outcomes, report), rho)| CountEstimate::from_outcomes(outcomes, rho, report))
        .collect();
    Some((ests, out.admission))
}

/// [`estimate`] in the insertion model on [`Engine::Sharded`]. Kept with
/// this name and signature because the benchmark's traced replay calls
/// it.
pub fn estimate_multi_insertion(
    specs: &[MultiQuerySpec],
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    opts: PassOpts,
    policy: ExecPolicy,
) -> Option<(Vec<CountEstimate>, AdmissionReport)> {
    let engine = Engine::Sharded(policy);
    estimate(specs, RouterMode::Insertion, feed, arena, opts, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::gen;
    use sgs_query::BroadcastOpts;
    use sgs_stream::{InsertionStream, TurnstileStream};

    /// `spec` alone on a fresh arena: its solo run.
    fn solo(
        spec: &MultiQuerySpec,
        model: RouterMode,
        feed: &ShardedFeed,
        opts: PassOpts,
    ) -> CountEstimate {
        let engine = Engine::Sharded(ExecPolicy::serial());
        let specs = std::slice::from_ref(spec);
        let (mut ests, _) = estimate(specs, model, feed, &mut RouterArena::new(), opts, engine)
            .expect("valid pattern");
        ests.pop().expect("one estimate")
    }

    fn specs() -> Vec<MultiQuerySpec> {
        vec![
            MultiQuerySpec::new(Pattern::clique(3), 40, 11),
            MultiQuerySpec {
                pattern: Pattern::cycle(5),
                trials: 25,
                seed: 22,
                sampler: SamplerMode::Relaxed,
                reservoir: ReservoirMode::Skip,
            },
            MultiQuerySpec {
                pattern: Pattern::clique(3),
                trials: 10,
                seed: 33,
                sampler: SamplerMode::Relaxed,
                reservoir: ReservoirMode::Offer,
            },
        ]
    }

    #[test]
    fn multi_insertion_matches_solo_estimates() {
        let g = gen::gnm(40, 160, 7);
        let ins = InsertionStream::from_graph(&g, 8);
        let feed = ShardedFeed::partition(&ins, 2);
        let mut arena = RouterArena::new();
        let (ests, admission) = estimate_multi_insertion(
            &specs(),
            &feed,
            &mut arena,
            PassOpts::with_block(64),
            ExecPolicy::serial(),
        )
        .unwrap();
        assert_eq!(ests.len(), 3);
        assert_eq!(admission.rounds.len(), 3, "3-round samplers share 3 passes");
        for (spec, est) in specs().iter().zip(&ests) {
            let solo = solo(spec, RouterMode::Insertion, &feed, PassOpts::with_block(64));
            assert_eq!(est.estimate.to_bits(), solo.estimate.to_bits());
            assert_eq!(est.hits, solo.hits);
            assert_eq!(est.trials, solo.trials);
            assert_eq!(est.report.passes, solo.report.passes);
        }
    }

    #[test]
    fn multi_turnstile_matches_solo_estimates() {
        let g = gen::gnm(40, 160, 9);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.4, 10);
        let feed = ShardedFeed::partition(&tst, 2);
        let mut arena = RouterArena::new();
        let (ests, _) = estimate(
            &specs(),
            RouterMode::Turnstile,
            &feed,
            &mut arena,
            PassOpts::with_block(64),
            Engine::Sharded(ExecPolicy::serial()),
        )
        .unwrap();
        for (spec, est) in specs().iter().zip(&ests) {
            let solo = solo(spec, RouterMode::Turnstile, &feed, PassOpts::with_block(64));
            assert_eq!(est.estimate.to_bits(), solo.estimate.to_bits());
            assert_eq!(est.hits, solo.hits);
        }
    }

    #[test]
    fn multi_broadcast_matches_sharded_engine() {
        let g = gen::gnm(40, 160, 12);
        let ins = InsertionStream::from_graph(&g, 13);
        let feed = ShardedFeed::partition(&ins, 3);
        let mut arena = RouterArena::new();
        let (sharded, _) = estimate_multi_insertion(
            &specs(),
            &feed,
            &mut arena,
            PassOpts::with_block(64),
            ExecPolicy::serial(),
        )
        .unwrap();
        let mut ring_arena = RouterArena::new();
        let (ringed, _) = estimate(
            &specs(),
            RouterMode::Insertion,
            &feed,
            &mut ring_arena,
            PassOpts::with_block(64),
            Engine::Ring(BroadcastOpts::with_policy(ExecPolicy::serial()), &mut []),
        )
        .unwrap();
        for (a, b) in sharded.iter().zip(&ringed) {
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
            assert_eq!(a.hits, b.hits);
        }
    }

    #[test]
    fn bad_pattern_returns_none() {
        let ins = InsertionStream::from_edge_order(4, vec![]);
        let feed = ShardedFeed::partition(&ins, 1);
        let mut arena = RouterArena::new();
        // An isolated vertex has no cycle-star decomposition.
        let bad = vec![MultiQuerySpec::new(Pattern::from_edges(3, [(0, 1)]), 4, 1)];
        assert!(estimate_multi_insertion(
            &bad,
            &feed,
            &mut arena,
            PassOpts::with_block(0),
            ExecPolicy::serial()
        )
        .is_none());
    }
}
