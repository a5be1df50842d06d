//! A solo estimate on a caller-owned persistent [`ShardRuntime`]: the
//! shape of a lone `sgs serve` COUNT.
//!
//! A long-lived node ([`sgs_query::ServerNode`]) keeps one worker pool
//! alive across every query and runs a lone COUNT on it by passing
//! [`Engine::Runtime`] to [`crate::fgp::estimate`]. Each estimate is
//! **byte-identical** to the same spec on [`Engine::Sharded`] over the
//! same feed — the runtime runs the same one-job plan through the same
//! shard machines (`tests/broadcast_equivalence.rs` pins the engines
//! against each other).

use crate::fgp::counter::CountEstimate;
use crate::fgp::multi_exec::{estimate, MultiQuerySpec};
use crate::fgp::sampler::SamplerMode;
use sgs_graph::Pattern;
use sgs_query::{BroadcastOpts, Engine, PassOpts, RouterArena, RouterMode, ShardRuntime};
use sgs_stream::ShardedFeed;

/// [`estimate`] of one insertion-model spec on [`Engine::Runtime`], with
/// the reservoir mode taken from `opts`. Kept with this name and
/// signature because the benchmark's traced replay calls it. `None` if
/// the pattern has no sampler plan.
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
    let spec = MultiQuerySpec {
        pattern: pattern.clone(),
        trials,
        seed,
        sampler,
        reservoir: opts.reservoir,
    };
    let engine = Engine::Runtime(runtime, bcast);
    let (mut ests, _) = estimate(&[spec], RouterMode::Insertion, feed, arena, opts, engine)?;
    ests.pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::gen;
    use sgs_query::ExecPolicy;
    use sgs_stream::reservoir::ReservoirMode;
    use sgs_stream::{InsertionStream, TurnstileStream};

    /// One spec on a fresh arena and `engine`.
    fn solo(
        spec: MultiQuerySpec,
        model: RouterMode,
        feed: &ShardedFeed,
        opts: PassOpts,
        engine: Engine<'_, '_>,
    ) -> CountEstimate {
        let mut arena = RouterArena::new();
        let (mut ests, _) = estimate(&[spec], model, feed, &mut arena, opts, engine).unwrap();
        ests.pop().unwrap()
    }

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
                let spec = MultiQuerySpec {
                    sampler: mode,
                    reservoir,
                    ..MultiQuerySpec::new(Pattern::clique(3), 60, 9)
                };
                let batch = solo(
                    spec,
                    RouterMode::Insertion,
                    &feed,
                    opts,
                    Engine::Sharded(policy),
                );
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
            let spec = MultiQuerySpec::new(Pattern::clique(3), 40, 11);
            let opts = PassOpts::with_block(64);
            let engine = Engine::Runtime(&mut rt, BroadcastOpts::with_policy(policy));
            let live = solo(spec.clone(), RouterMode::Turnstile, &feed, opts, engine);
            let batch = solo(
                spec,
                RouterMode::Turnstile,
                &feed,
                opts,
                Engine::Sharded(policy),
            );
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
            let spec = MultiQuerySpec::new(Pattern::clique(3), 30, seed);
            let opts = PassOpts::with_block(32);
            let batch = solo(
                spec,
                RouterMode::Insertion,
                &feed,
                opts,
                Engine::Sharded(policy),
            );
            assert_eq!(live.estimate.to_bits(), batch.estimate.to_bits());
        }
    }
}
