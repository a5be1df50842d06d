//! Serving-side estimator entry points: solo `#H` estimates on a
//! caller-owned persistent [`sgs_query::ShardRuntime`].
//!
//! A long-lived node ([`sgs_query::ServerNode`]) keeps one worker pool
//! alive across every query; these drivers run one COUNT on it through
//! the broadcast ring ([`sgs_query::run_insertion_broadcast_on_runtime`])
//! instead of standing up threads per estimate. Each estimate is
//! **byte-identical** to the batch
//! [`crate::fgp::parallel_exec::estimate_insertion_on_feed_with_exec`]
//! run with the same spec over the same feed — the broadcast engine's
//! equivalence to the sharded engine is the load-bearing invariant
//! (`tests/broadcast_equivalence.rs`), and the runtime runs the same
//! one-job plan through the same shard machines as the internally-pooled
//! path.

use crate::fgp::counter::{build_parallel, CountEstimate};
use crate::fgp::plan::SamplerPlan;
use crate::fgp::sampler::SamplerMode;
use sgs_graph::Pattern;
use sgs_query::{
    run_insertion_broadcast_on_runtime, run_turnstile_broadcast_on_runtime, BroadcastOpts,
    PassOpts, RouterArena, ShardRuntime,
};
use sgs_stream::hash::split_seed;
use sgs_stream::ShardedFeed;

/// Estimate `#H` from an insertion-only feed on a persistent runtime.
/// Byte-identical to
/// [`crate::fgp::parallel_exec::estimate_insertion_on_feed_with_exec`]
/// with the same spec. `None` if the pattern has no sampler plan.
#[allow(clippy::too_many_arguments)]
pub fn estimate_insertion_on_runtime(
    pattern: &Pattern,
    feed: &ShardedFeed,
    trials: usize,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    sampler: SamplerMode,
    bcast: BroadcastOpts,
    runtime: &mut ShardRuntime,
) -> Option<CountEstimate> {
    let plan = SamplerPlan::new(pattern)?;
    let par = build_parallel(&plan, sampler, trials, seed);
    let (outcomes, report) = run_insertion_broadcast_on_runtime(
        par,
        feed,
        split_seed(seed, u64::MAX),
        arena,
        opts,
        bcast,
        &mut [],
        runtime,
    );
    Some(CountEstimate::from_outcomes(outcomes, plan.rho(), report))
}

/// Turnstile sibling of [`estimate_insertion_on_runtime`]; the sampler
/// always runs relaxed (Definition 10 has no arrival-order watchers).
#[allow(clippy::too_many_arguments)]
pub fn estimate_turnstile_on_runtime(
    pattern: &Pattern,
    feed: &ShardedFeed,
    trials: usize,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    bcast: BroadcastOpts,
    runtime: &mut ShardRuntime,
) -> Option<CountEstimate> {
    let plan = SamplerPlan::new(pattern)?;
    let par = build_parallel(&plan, SamplerMode::Relaxed, trials, seed);
    let (outcomes, report) = run_turnstile_broadcast_on_runtime(
        par,
        feed,
        split_seed(seed, u64::MAX),
        arena,
        opts,
        bcast,
        &mut [],
        runtime,
    );
    Some(CountEstimate::from_outcomes(outcomes, plan.rho(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgp::parallel_exec::{
        estimate_insertion_on_feed_with_exec, estimate_turnstile_on_feed_with_exec,
    };
    use sgs_graph::gen;
    use sgs_query::ExecPolicy;
    use sgs_stream::reservoir::ReservoirMode;
    use sgs_stream::{InsertionStream, TurnstileStream};

    #[test]
    fn runtime_insertion_estimate_matches_batch_bits() {
        let g = gen::gnm(40, 160, 21);
        let ins = InsertionStream::from_graph(&g, 22);
        for shards in [1usize, 2, 4] {
            let feed = ShardedFeed::partition(&ins, shards);
            let policy = ExecPolicy::serial();
            let mut rt = ShardRuntime::new(shards, policy);
            for (mode, reservoir) in [
                (SamplerMode::Indexed, ReservoirMode::Skip),
                (SamplerMode::Relaxed, ReservoirMode::Offer),
            ] {
                let opts = PassOpts::with_block(64).reservoir(reservoir);
                let mut arena = RouterArena::new();
                let live = estimate_insertion_on_runtime(
                    &Pattern::clique(3),
                    &feed,
                    60,
                    9,
                    &mut arena,
                    opts,
                    mode,
                    BroadcastOpts::with_policy(policy),
                    &mut rt,
                )
                .unwrap();
                let mut batch_arena = RouterArena::new();
                let batch = estimate_insertion_on_feed_with_exec(
                    &Pattern::clique(3),
                    &feed,
                    60,
                    9,
                    &mut batch_arena,
                    opts,
                    mode,
                    policy,
                )
                .unwrap();
                assert_eq!(live.estimate.to_bits(), batch.estimate.to_bits());
                assert_eq!(live.hits, batch.hits);
                assert_eq!(live.report.passes, batch.report.passes);
            }
        }
    }

    #[test]
    fn runtime_turnstile_estimate_matches_batch_bits() {
        let g = gen::gnm(40, 160, 23);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 24);
        for shards in [1usize, 2, 4] {
            let feed = ShardedFeed::partition(&tst, shards);
            let policy = ExecPolicy::serial();
            let mut rt = ShardRuntime::new(shards, policy);
            let mut arena = RouterArena::new();
            let live = estimate_turnstile_on_runtime(
                &Pattern::clique(3),
                &feed,
                40,
                11,
                &mut arena,
                PassOpts::with_block(64),
                BroadcastOpts::with_policy(policy),
                &mut rt,
            )
            .unwrap();
            let mut batch_arena = RouterArena::new();
            let batch = estimate_turnstile_on_feed_with_exec(
                &Pattern::clique(3),
                &feed,
                40,
                11,
                &mut batch_arena,
                PassOpts::with_block(64),
                policy,
            )
            .unwrap();
            assert_eq!(live.estimate.to_bits(), batch.estimate.to_bits());
            assert_eq!(live.hits, batch.hits);
        }
    }

    #[test]
    fn one_runtime_serves_many_estimates() {
        // The serving shape: one pool, many sequential queries — each
        // still byte-identical to its solo batch run.
        let g = gen::gnm(30, 120, 31);
        let ins = InsertionStream::from_graph(&g, 32);
        let feed = ShardedFeed::partition(&ins, 2);
        let policy = ExecPolicy::serial();
        let mut rt = ShardRuntime::new(2, policy);
        let mut arena = RouterArena::new();
        for seed in [1u64, 2, 3] {
            let live = estimate_insertion_on_runtime(
                &Pattern::clique(3),
                &feed,
                30,
                seed,
                &mut arena,
                PassOpts::with_block(32),
                SamplerMode::Indexed,
                BroadcastOpts::with_policy(policy),
                &mut rt,
            )
            .unwrap();
            let mut batch_arena = RouterArena::new();
            let batch = estimate_insertion_on_feed_with_exec(
                &Pattern::clique(3),
                &feed,
                30,
                seed,
                &mut batch_arena,
                PassOpts::with_block(32),
                SamplerMode::Indexed,
                policy,
            )
            .unwrap();
            assert_eq!(live.estimate.to_bits(), batch.estimate.to_bits());
        }
    }
}
