//! Sharded-stream equivalence of the estimator.
//!
//! [`crate::fgp::estimate`] shards the *stream*, not the trial bank:
//! **one** `Parallel` bank of all `k` trials drives the passes, which
//! hash-partition the stream across a [`ShardedFeed`], run one private
//! `QueryRouter` per shard (pooled in a [`RouterArena`]), and merge
//! per-shard answers back into the exact single-stream batch answers.
//! Because the merge is exact, the sharded estimate is **byte-identical**
//! to [`crate::fgp::estimate_stream`] with the same seed, for any shard
//! count — the logical pass count (3) and the estimate distribution are
//! unchanged by construction, not just in expectation. These tests pin
//! that, and the arena reuse of the serving loop.

mod tests {
    use crate::fgp::{estimate, estimate_stream, CountEstimate, MultiQuerySpec};
    use sgs_graph::{exact, gen, Pattern};
    use sgs_query::{Engine, ExecPolicy, PassOpts, RouterArena, RouterMode};
    use sgs_stream::{EdgeStream, InsertionStream, ShardedFeed, TurnstileStream};

    /// A triangle estimate over `feed` on a caller-owned arena.
    fn on_feed(
        model: RouterMode,
        feed: &ShardedFeed,
        trials: usize,
        seed: u64,
        arena: &mut RouterArena,
    ) -> CountEstimate {
        let specs = [MultiQuerySpec::new(Pattern::triangle(), trials, seed)];
        let engine = Engine::Sharded(ExecPolicy::default());
        let (mut ests, _) =
            estimate(&specs, model, feed, arena, PassOpts::default(), engine).unwrap();
        ests.pop().unwrap()
    }

    /// A triangle estimate over `stream` partitioned into `shards` shards.
    fn sharded(
        model: RouterMode,
        stream: &impl EdgeStream,
        trials: usize,
        shards: usize,
        seed: u64,
    ) -> CountEstimate {
        let feed = ShardedFeed::partition(stream, shards);
        on_feed(model, &feed, trials, seed, &mut RouterArena::new())
    }

    #[test]
    fn threaded_is_byte_identical_to_single_stream() {
        // Stronger than the old statistical check: sharding the stream
        // merges back to the exact single-stream answers, so the whole
        // estimate must match bit for bit at every shard count.
        let g = gen::gnm(40, 220, 1);
        let stream = InsertionStream::from_graph(&g, 2);
        let single = estimate_stream(
            &Pattern::triangle(),
            RouterMode::Insertion,
            &stream,
            4_000,
            4,
        )
        .unwrap();
        for threads in [1usize, 2, 4, 7] {
            let multi = sharded(RouterMode::Insertion, &stream, 4_000, threads, 4);
            assert_eq!(multi.hits, single.hits, "{threads} shards");
            assert_eq!(multi.estimate, single.estimate, "{threads} shards");
            assert_eq!(multi.m, single.m);
            assert_eq!(multi.trials, 4_000);
            assert_eq!(multi.report.passes, 3, "logical passes, not per-shard");
        }
    }

    #[test]
    fn turnstile_threaded_is_byte_identical_to_single_stream() {
        let g = gen::gnm(24, 100, 31);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 32);
        let single =
            estimate_stream(&Pattern::triangle(), RouterMode::Turnstile, &tst, 800, 33).unwrap();
        for threads in [1usize, 2, 4] {
            let multi = sharded(RouterMode::Turnstile, &tst, 800, threads, 33);
            assert_eq!(multi.hits, single.hits, "{threads} shards");
            assert_eq!(multi.estimate, single.estimate, "{threads} shards");
            assert!(multi.report.passes <= 3);
        }
    }

    #[test]
    fn threaded_matches_single_threaded_statistically() {
        let g = gen::gnm(40, 220, 1);
        let exact_t = exact::triangles::count_triangles(&g);
        let stream = InsertionStream::from_graph(&g, 2);
        let multi = sharded(RouterMode::Insertion, &stream, 24_000, 4, 4);
        assert_eq!(multi.trials, 24_000);
        assert_eq!(multi.report.passes, 3);
        let err = multi.relative_error(exact_t);
        assert!(err < 0.25, "error {err:.3}");
    }

    #[test]
    fn one_thread_is_fine() {
        let g = gen::gnm(20, 80, 4);
        let stream = InsertionStream::from_graph(&g, 5);
        let est = sharded(RouterMode::Insertion, &stream, 2_000, 1, 6);
        assert_eq!(est.trials, 2_000);
    }

    #[test]
    fn more_threads_than_trials() {
        let g = gen::gnm(20, 80, 7);
        let stream = InsertionStream::from_graph(&g, 8);
        let est = sharded(RouterMode::Insertion, &stream, 3, 8, 9);
        assert_eq!(est.trials, 3);
    }

    #[test]
    fn feed_and_arena_reuse_across_estimates() {
        // The serving-loop shape: partition once, estimate repeatedly on
        // a warm arena; results stay identical run over run and the
        // arena stops allocating after the first.
        let g = gen::gnm(30, 140, 11);
        let stream = InsertionStream::from_graph(&g, 12);
        let feed = ShardedFeed::partition(&stream, 4);
        let mut arena = RouterArena::new();
        let first = on_feed(RouterMode::Insertion, &feed, 2_000, 13, &mut arena);
        assert!(arena.is_warm());
        for _ in 0..2 {
            let again = on_feed(RouterMode::Insertion, &feed, 2_000, 13, &mut arena);
            assert_eq!(again.hits, first.hits);
            assert_eq!(again.estimate, first.estimate);
        }
        assert_eq!(
            arena.growth_events_after_warmup(),
            0,
            "warm arena must not allocate per round"
        );
        assert_eq!(feed.logical_passes(), 9, "3 estimates × 3 logical passes");
    }
}
