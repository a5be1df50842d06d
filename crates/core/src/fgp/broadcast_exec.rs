//! Broadcast estimator bundles: estimator + baseline + exact oracle +
//! raw counters from **one** ingest.
//!
//! [`crate::fgp::estimate`] dedicates every logical pass to the FGP
//! estimator; any baseline or ground-truth consumer would replay the
//! stream privately on top. [`estimate_broadcast`] attaches those
//! consumers to the **first pass's scoped broadcast ring** instead
//! ([`Engine::Ring`] with side sinks):
//!
//! * the FGP trial bank (the paper's 3-round estimator) drives the
//!   per-shard routers exactly as before — its estimate is
//!   **byte-identical** to [`crate::fgp::estimate`] with the same spec;
//! * the TRIÈST baseline ([`TriestStream`], insertion-only) consumes the
//!   same ring, byte-identical to [`crate::baselines::triest::estimate_triest`]
//!   on a private replay with seed [`triest_seed`]`(seed)`;
//! * the exact oracle materializes the final graph from the ring and
//!   counts `#H` through a [`CsrGraph`] — identical to
//!   [`crate::baselines::exact_stream::count_exact`];
//! * raw pass counters tally updates (`--consumers N` on the CLI adds
//!   more, to demonstrate that fan-out width costs no extra passes).
//!
//! Total pass bill: the estimator's 3 logical passes — not 3 + 1 per
//! extra consumer. That is the serving-path claim this module exists to
//! make concrete, and `tests/broadcast_equivalence.rs` holds every
//! consumer to its single-stream answers.

use crate::baselines::triest::{TriestEstimate, TriestStream};
use crate::fgp::counter::CountEstimate;
use crate::fgp::multi_exec::{estimate, MultiQuerySpec};
use sgs_graph::{exact, AdjListGraph, CsrGraph, Pattern};
use sgs_query::{BroadcastOpts, Engine, PassOpts, RouterArena, RouterMode, SideSink};
use sgs_stream::hash::split_seed;
use sgs_stream::sharded::RoutedUpdate;
use sgs_stream::ShardedFeed;

/// Which consumers to attach to the estimator's first-pass ring.
#[derive(Clone, Copy, Debug)]
pub struct ConsumerSet {
    /// TRIÈST edge budget; `None` skips the baseline. Ignored (forced
    /// off) on turnstile runs — TRIÈST is insertion-only.
    pub triest_capacity: Option<usize>,
    /// Materialize the final graph and count `#H` exactly via CSR.
    pub exact: bool,
    /// Additional raw pass-counter consumers beyond the standard one.
    pub extra_raw: usize,
}

impl Default for ConsumerSet {
    fn default() -> Self {
        ConsumerSet {
            triest_capacity: Some(1024),
            exact: true,
            extra_raw: 0,
        }
    }
}

/// Everything one broadcast ingest produced.
#[derive(Clone, Debug)]
pub struct BroadcastEstimate {
    /// The FGP estimate — byte-identical to the non-broadcast run.
    pub estimate: CountEstimate,
    /// TRIÈST baseline (insertion runs with a configured capacity only).
    pub triest: Option<TriestEstimate>,
    /// Exact `#H` of the final graph, from the CSR oracle consumer.
    pub exact: Option<u64>,
    /// Updates tallied by the standard raw pass-counter consumer
    /// (= stream length: the raw consumer sees the whole stream once).
    pub raw_updates: u64,
    /// Tallies of the extra raw consumers (each equals `raw_updates`).
    pub extra_raw: Vec<u64>,
}

/// The seed the bundled TRIÈST consumer runs with — exposed so a
/// private-replay counterpart can be run with the very same coins (the
/// conformance suite's byte-identity check).
pub fn triest_seed(seed: u64) -> u64 {
    split_seed(seed, 0x7215_e57a)
}

/// Build the side-sink set over caller-owned consumer state. Every sink
/// sees the whole routed stream, in order, exactly once (pass 1).
fn build_sinks<'a>(
    triest: &'a mut Option<TriestStream>,
    graph: &'a mut Option<AdjListGraph>,
    raw: &'a mut u64,
    extra: &'a mut [u64],
    insertion: bool,
) -> Vec<SideSink<'a>> {
    let mut sinks: Vec<SideSink<'a>> = Vec::new();
    if let Some(ts) = triest.as_mut() {
        sinks.push(Box::new(move |b: &[RoutedUpdate]| {
            for r in b {
                debug_assert!(r.update.is_insert(), "TRIÈST consumer on a turnstile ring");
                ts.push(r.update.edge);
            }
        }));
    }
    if let Some(g) = graph.as_mut() {
        sinks.push(Box::new(move |b: &[RoutedUpdate]| {
            for r in b {
                if r.update.is_insert() {
                    g.add_edge(r.update.edge);
                } else {
                    debug_assert!(!insertion, "deletion on an insertion ring");
                    g.remove_edge(r.update.edge);
                }
            }
        }));
    }
    sinks.push(Box::new(move |b: &[RoutedUpdate]| *raw += b.len() as u64));
    for slot in extra.iter_mut() {
        sinks.push(Box::new(move |b: &[RoutedUpdate]| *slot += b.len() as u64));
    }
    sinks
}

/// Count `#H` in the materialized final graph through the CSR oracle.
fn csr_count(pattern: &Pattern, g: &AdjListGraph) -> u64 {
    let csr = CsrGraph::from_graph(g);
    exact::count_pattern_auto(&csr, pattern)
}

/// Estimate `spec`'s `#H` in `model` on the scoped broadcast ring, with
/// `consumers` riding the estimator's first pass (see [`ConsumerSet`];
/// TRIÈST is forced off under [`RouterMode::Turnstile`], where the
/// sampler runs relaxed). The estimate is byte-identical to [`estimate`]
/// with the same spec; every consumer's answer is byte-identical for any
/// ring geometry and policy. `None` if the pattern has no sampler plan.
pub fn estimate_broadcast(
    spec: &MultiQuerySpec,
    model: RouterMode,
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    opts: PassOpts,
    consumers: ConsumerSet,
    bcast: BroadcastOpts,
) -> Option<BroadcastEstimate> {
    let insertion = model == RouterMode::Insertion;
    let mut triest = consumers
        .triest_capacity
        .filter(|_| insertion)
        .map(|cap| TriestStream::new(cap, triest_seed(spec.seed)));
    let mut graph = consumers
        .exact
        .then(|| AdjListGraph::new(feed.num_vertices()));
    let mut raw = 0u64;
    let mut extra = vec![0u64; consumers.extra_raw];
    let estimate = {
        let mut sinks = build_sinks(&mut triest, &mut graph, &mut raw, &mut extra, insertion);
        let engine = Engine::Ring(bcast, &mut sinks);
        let specs = std::slice::from_ref(spec);
        let (mut ests, _) = estimate(specs, model, feed, arena, opts, engine)?;
        let est = ests.pop().expect("one spec, one estimate");
        if est.report.passes == 0 {
            // Zero-round estimator (e.g. zero trials): the side
            // consumers still deserve their one stream view — a
            // dedicated side-only logical pass.
            feed.begin_pass();
            for sink in sinks.iter_mut() {
                sink(feed.routed());
            }
        }
        est
    };
    Some(BroadcastEstimate {
        estimate,
        triest: triest.map(TriestStream::finish),
        exact: graph.map(|g| csr_count(&spec.pattern, &g)),
        raw_updates: raw,
        extra_raw: extra,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::exact_stream::count_exact;
    use crate::baselines::triest::estimate_triest;
    use sgs_graph::gen;
    use sgs_query::ExecPolicy;
    use sgs_stream::{EdgeStream, InsertionStream, TurnstileStream};

    /// The default-consumer bundle with default options.
    fn bundle_of(
        model: RouterMode,
        feed: &ShardedFeed,
        trials: usize,
        seed: u64,
        arena: &mut RouterArena,
    ) -> BroadcastEstimate {
        let spec = MultiQuerySpec::new(Pattern::triangle(), trials, seed);
        let (opts, bcast) = (PassOpts::default(), BroadcastOpts::default());
        estimate_broadcast(
            &spec,
            model,
            feed,
            arena,
            opts,
            ConsumerSet::default(),
            bcast,
        )
        .unwrap()
    }

    /// The plain estimate of the same spec on the sharded engine.
    fn plain(
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

    #[test]
    fn bundle_estimator_is_byte_identical_and_consumers_match_private_runs() {
        let g = gen::gnm(30, 140, 51);
        let stream = InsertionStream::from_graph(&g, 52);
        for shards in [1usize, 2, 4] {
            let feed = ShardedFeed::partition(&stream, shards);
            let mut arena = RouterArena::new();
            let single = plain(RouterMode::Insertion, &feed, 2_000, 53, &mut arena);
            let bundle = bundle_of(RouterMode::Insertion, &feed, 2_000, 53, &mut arena);
            assert_eq!(bundle.estimate.hits, single.hits, "{shards} shards");
            assert_eq!(bundle.estimate.estimate, single.estimate);
            assert_eq!(bundle.estimate.report.passes, 3);
            // Consumers vs their private-replay counterparts.
            let private_triest = estimate_triest(&stream, 1024, triest_seed(53));
            assert_eq!(
                bundle.triest.as_ref().unwrap().estimate,
                private_triest.estimate
            );
            let private_exact = count_exact(&Pattern::triangle(), &stream);
            assert_eq!(bundle.exact, Some(private_exact.count));
            assert_eq!(bundle.raw_updates, stream.len() as u64);
        }
    }

    #[test]
    fn turnstile_bundle_matches_and_skips_triest() {
        let g = gen::gnm(24, 100, 61);
        let tst = TurnstileStream::from_graph_with_churn(&g, 0.6, 62);
        let feed = ShardedFeed::partition(&tst, 3);
        let mut arena = RouterArena::new();
        let single = plain(RouterMode::Turnstile, &feed, 600, 63, &mut arena);
        let bundle = bundle_of(RouterMode::Turnstile, &feed, 600, 63, &mut arena);
        assert_eq!(bundle.estimate.hits, single.hits);
        assert_eq!(bundle.estimate.estimate, single.estimate);
        assert!(bundle.triest.is_none(), "TRIÈST is insertion-only");
        let private_exact = count_exact(&Pattern::triangle(), &tst);
        assert_eq!(bundle.exact, Some(private_exact.count));
        assert_eq!(bundle.raw_updates, tst.len() as u64);
    }

    #[test]
    fn extra_raw_consumers_each_see_the_stream_once() {
        let g = gen::gnm(20, 80, 71);
        let stream = InsertionStream::from_graph(&g, 72);
        let feed = ShardedFeed::partition(&stream, 2);
        let mut arena = RouterArena::new();
        let bundle = estimate_broadcast(
            &MultiQuerySpec::new(Pattern::triangle(), 500, 73),
            RouterMode::Insertion,
            &feed,
            &mut arena,
            PassOpts::default(),
            ConsumerSet {
                extra_raw: 3,
                ..ConsumerSet::default()
            },
            BroadcastOpts::default(),
        )
        .unwrap();
        assert_eq!(bundle.extra_raw, vec![80u64; 3]);
        assert_eq!(
            feed.logical_passes(),
            3,
            "fan-out width adds zero logical passes"
        );
    }

    #[test]
    fn zero_trials_still_feeds_side_consumers_in_one_pass() {
        let g = gen::gnm(16, 50, 81);
        let stream = InsertionStream::from_graph(&g, 82);
        let feed = ShardedFeed::partition(&stream, 2);
        let mut arena = RouterArena::new();
        let bundle = bundle_of(RouterMode::Insertion, &feed, 0, 83, &mut arena);
        assert_eq!(bundle.estimate.trials, 0);
        assert_eq!(bundle.raw_updates, 50);
        assert_eq!(
            bundle.exact,
            Some(count_exact(&Pattern::triangle(), &stream).count)
        );
        assert_eq!(feed.logical_passes(), 1, "the dedicated side-only pass");
    }
}
