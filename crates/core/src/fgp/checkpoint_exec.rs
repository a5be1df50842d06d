//! The durable estimator: [`estimate_checkpointed`].
//!
//! It runs the FGP trial bank (the same [`sgs_query::Parallel`] bank every
//! other engine drives) through `sgs-query`'s checkpointed driver
//! ([`run_checkpointed`]): the input stream is made durable in a
//! write-ahead log before estimation starts, estimator state is
//! snapshotted at delivery-block boundaries, and a crashed run resumes
//! from the latest snapshot to the **byte-identical** estimate the
//! uninterrupted run produces — same estimate bits, hits, `m`, and
//! report, at any shard count, in both stream models.
//! `tests/crash_recovery.rs` sweeps every crash point.

use crate::fgp::counter::{build_parallel, CountEstimate};
use crate::fgp::multi_exec::MultiQuerySpec;
use crate::fgp::plan::SamplerPlan;
use crate::fgp::sampler::SamplerMode;
use sgs_graph::Pattern;
use sgs_query::{run_checkpointed, CheckpointSession, PassOpts, RouterArena, RouterMode};
use sgs_stream::hash::split_seed;
use sgs_stream::persist::PersistResult;
use sgs_stream::ShardedFeed;

/// Estimate `spec`'s `#H` in `model` under a checkpoint session, on this
/// thread. Returns `Ok(None)` when the pattern has no sampler plan or
/// when the session's simulated crash point fires; otherwise the same
/// [`CountEstimate`] [`crate::fgp::estimate`] produces for the spec.
/// Resumes transparently when the session carries snapshot state. The
/// run takes the spec's reservoir mode, which the snapshots record;
/// under [`RouterMode::Turnstile`] the sampler runs relaxed.
pub fn estimate_checkpointed(
    spec: &MultiQuerySpec,
    model: RouterMode,
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    opts: PassOpts,
    session: &mut CheckpointSession,
) -> PersistResult<Option<CountEstimate>> {
    let Some(plan) = SamplerPlan::new(&spec.pattern) else {
        return Ok(None);
    };
    let sampler = match model {
        RouterMode::Insertion => spec.sampler,
        RouterMode::Turnstile => SamplerMode::Relaxed,
    };
    let par = build_parallel(&plan, sampler, spec.trials, spec.seed);
    let seed = split_seed(spec.seed, u64::MAX);
    let opts = opts.reservoir(spec.reservoir);
    let run = run_checkpointed(model, par, feed, seed, arena, opts, session)?;
    Ok(run.map(|(outcomes, report)| CountEstimate::from_outcomes(outcomes, plan.rho(), report)))
}

/// [`estimate_checkpointed`] in the insertion model, with the reservoir
/// mode taken from `opts`. Kept with this name and signature because the
/// benchmark's traced replay calls it.
#[allow(clippy::too_many_arguments)]
pub fn estimate_insertion_checkpointed(
    pattern: &Pattern,
    feed: &ShardedFeed,
    trials: usize,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    sampler: SamplerMode,
    session: &mut CheckpointSession,
) -> PersistResult<Option<CountEstimate>> {
    let spec = MultiQuerySpec {
        pattern: pattern.clone(),
        trials,
        seed,
        sampler,
        reservoir: opts.reservoir,
    };
    estimate_checkpointed(&spec, RouterMode::Insertion, feed, arena, opts, session)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgp::multi_exec::estimate;
    use sgs_graph::gen;
    use sgs_query::{Engine, ExecPolicy};
    use sgs_stream::{InsertionStream, TurnstileStream};

    /// The same spec estimated without checkpoints.
    fn plain(spec: &MultiQuerySpec, model: RouterMode, feed: &ShardedFeed) -> CountEstimate {
        let engine = Engine::Sharded(ExecPolicy::default());
        let specs = std::slice::from_ref(spec);
        let opts = PassOpts::default();
        let (mut ests, _) = estimate(specs, model, feed, &mut RouterArena::new(), opts, engine)
            .expect("valid pattern");
        ests.pop().expect("one estimate")
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("sgs-core-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn checkpointed_estimate_matches_plain_insertion() {
        let g = gen::gnm(30, 140, 51);
        let stream = InsertionStream::from_graph(&g, 52);
        for shards in [1usize, 2] {
            let feed = ShardedFeed::partition(&stream, shards);
            let dir = tmp_dir(&format!("ins-{shards}"));
            let mut session = CheckpointSession::create(&dir, &feed, 4, 32).unwrap();
            let mut arena = RouterArena::new();
            let ckpt = estimate_insertion_checkpointed(
                &Pattern::triangle(),
                &feed,
                300,
                53,
                &mut arena,
                PassOpts::default(),
                SamplerMode::Indexed,
                &mut session,
            )
            .unwrap()
            .unwrap();
            let spec = MultiQuerySpec::new(Pattern::triangle(), 300, 53);
            let plain = plain(&spec, RouterMode::Insertion, &feed);
            assert_eq!(ckpt.estimate.to_bits(), plain.estimate.to_bits());
            assert_eq!(ckpt.hits, plain.hits);
            assert_eq!(ckpt.m, plain.m);
            assert_eq!(ckpt.trials, plain.trials);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn checkpointed_estimate_matches_plain_turnstile() {
        let g = gen::gnm(24, 100, 55);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.7, 56);
        let feed = ShardedFeed::partition(&tst, 2);
        let dir = tmp_dir("tst");
        let mut session = CheckpointSession::create(&dir, &feed, 4, 32).unwrap();
        let mut arena = RouterArena::new();
        let spec = MultiQuerySpec::new(Pattern::triangle(), 200, 57);
        let ckpt = estimate_checkpointed(
            &spec,
            RouterMode::Turnstile,
            &feed,
            &mut arena,
            PassOpts::default(),
            &mut session,
        )
        .unwrap()
        .unwrap();
        let plain = plain(&spec, RouterMode::Turnstile, &feed);
        assert_eq!(ckpt.estimate.to_bits(), plain.estimate.to_bits());
        assert_eq!(ckpt.hits, plain.hits);
        assert_eq!(ckpt.m, plain.m);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
