//! Property-based tests on the core invariants, spanning crates.
//!
//! The build environment has no crates.io access, so instead of proptest
//! these run each property over a seeded sweep of randomized cases drawn
//! from the workspace's own [`FastRng`] — fully deterministic, and the
//! failing case is identified by its case index.

use sgs_prng::FastRng;
use subgraph_streams::prelude::*;

const CASES: u64 = 48;

fn case_rng(test_tag: u64, case: u64) -> FastRng {
    FastRng::seed_from_u64(sgs_prng::split_seed(test_tag, case))
}

/// The degeneracy never exceeds the maximum degree and every graph has a
/// peeling order witnessing it.
#[test]
fn degeneracy_bounded() {
    for case in 0..CASES {
        let mut rng = case_rng(0xd11, case);
        let n = rng.gen_range(2usize..40);
        let mdiv = rng.gen_range(1usize..4);
        let seed = rng.next_u64();
        let max_m = n * (n - 1) / 2;
        let m = max_m / mdiv;
        let g = sgs_graph::gen::gnm(n, m, seed);
        let cd = sgs_graph::degeneracy::CoreDecomposition::compute(&g);
        assert!(cd.degeneracy <= g.max_degree(), "case {case}");
        for v in g.vertices() {
            assert!(
                cd.later_neighbors(&g, v).len() <= cd.degeneracy,
                "case {case}, vertex {v:?}"
            );
        }
    }
}

/// rho(H) is sandwiched by n(H)/2 and |E(H)| for connected patterns.
#[test]
fn rho_bounds() {
    for kind in 0usize..4 {
        for size in 3usize..8 {
            let p = match kind {
                0 => Pattern::clique(size),
                1 => Pattern::cycle(size),
                2 => Pattern::star(size - 1),
                _ => Pattern::path(size - 1),
            };
            let rho = sgs_graph::decompose::rho(&p).unwrap();
            assert!(rho.as_f64() * 2.0 >= p.num_vertices() as f64, "{p:?}");
            assert!(rho.as_f64() <= p.num_edges() as f64, "{p:?}");
        }
    }
}

/// Turnstile streams always converge to the source graph, whatever the
/// churn, and every prefix is a simple graph.
#[test]
fn turnstile_strict_and_convergent() {
    for case in 0..CASES {
        let mut rng = case_rng(0x7ab, case);
        let n = rng.gen_range(5usize..30);
        let mdiv = rng.gen_range(2usize..5);
        let churn = rng.gen_f64() * 3.0;
        let seed = rng.next_u64();
        let m = (n * (n - 1) / 2) / mdiv;
        let g = sgs_graph::gen::gnm(n, m, seed);
        let s = TurnstileStream::from_graph_with_churn(&g, churn, seed ^ 0xabc);
        assert!(s.is_strict(), "case {case}");
        assert_eq!(s.final_graph().edge_vec(), g.edge_vec(), "case {case}");
    }
}

/// The l0-sampler never returns a deleted or absent key.
#[test]
fn l0_returns_live_keys() {
    use sgs_stream::l0::L0Sampler;
    for case in 0..CASES {
        let mut rng = case_rng(0x1_0, case);
        let n_keys = rng.gen_range(1usize..60);
        let mut keys: Vec<u64> = Vec::new();
        while keys.len() < n_keys {
            let k = rng.gen_range(0u64..500);
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let dead_frac = rng.gen_f64() * 0.9;
        let seed = rng.next_u64();
        let dead = ((keys.len() as f64) * dead_frac) as usize;
        let mut s = L0Sampler::new(30, 6, seed);
        for &k in &keys {
            s.update(k, 1);
        }
        for &k in keys.iter().take(dead) {
            s.update(k, -1);
        }
        let live: std::collections::HashSet<u64> = keys[dead..].iter().copied().collect();
        if let Some(k) = s.sample() {
            assert!(live.contains(&k), "case {case}: returned dead key {k}");
        } else if live.is_empty() {
            // Failure allowed, but empty support must report as empty.
            assert!(s.support_is_empty(), "case {case}");
        }
    }
}

/// Exact counters agree with the generic embedding counter.
#[test]
fn exact_counters_cross_check() {
    for case in 0..CASES {
        let mut rng = case_rng(0xecc, case);
        let n = rng.gen_range(6usize..18);
        let mdiv = rng.gen_range(1usize..3);
        let seed = rng.next_u64();
        let max_m = n * (n - 1) / 2;
        let g = sgs_graph::gen::gnm(n, max_m / (mdiv + 1), seed);
        for p in [
            Pattern::triangle(),
            Pattern::cycle(4),
            Pattern::star(3),
            Pattern::clique(4),
        ] {
            let fast = sgs_graph::exact::count_pattern_auto(&g, &p);
            let slow = sgs_graph::exact::generic::count_pattern(&g, &p);
            assert_eq!(fast, slow, "case {case}, {p:?}");
        }
    }
}

/// A sampled copy, when produced, is a genuine subgraph isomorphic to
/// the pattern (here: its edge count matches and all edges exist).
#[test]
fn sampler_soundness() {
    use sgs_core::{SamplerMode, SamplerPlan, SubgraphSampler};
    use sgs_query::exec::run_on_stream;
    let g = sgs_graph::gen::gnm(20, 80, 3);
    let stream = InsertionStream::from_graph(&g, 4);
    let plan = SamplerPlan::new(&Pattern::triangle()).unwrap();
    for seed in 0..150u64 {
        let s = SubgraphSampler::new(plan.clone(), SamplerMode::Indexed, seed);
        let (out, rep) = run_on_stream(RouterMode::Insertion, s, &stream, seed ^ 0x5555);
        assert!(rep.passes <= 3, "seed {seed}");
        if let Some(c) = out.copy {
            assert_eq!(c.edges.len(), 3, "seed {seed}");
            for e in &c.edges {
                assert!(g.has_edge(e.u(), e.v()), "seed {seed}, edge {e:?}");
            }
        }
    }
}

/// Skip-ahead reservoir bank vs the per-offer oracle over randomized
/// offer patterns: `seen()` identical at every prefix, samples always
/// drawn from the offered set, and single-offer lanes always keep their
/// one item — in both modes, including duplicate-heavy patterns.
#[test]
fn reservoir_modes_agree_on_accounting_and_support() {
    use sgs_stream::reservoir::{ReservoirBank, ReservoirMode};
    for case in 0..CASES {
        let mut rng = case_rng(0x5e5, case);
        let lanes = rng.gen_range(1usize..24);
        let n_offers = rng.gen_range(1usize..400);
        let dup_mod = rng.gen_range(1u32..8); // small modulus = duplicate-heavy
        let seed = rng.next_u64();
        let mut offer: ReservoirBank<u32> =
            ReservoirBank::with_mode(lanes, seed, ReservoirMode::Offer);
        let mut skip: ReservoirBank<u32> =
            ReservoirBank::with_mode(lanes, seed, ReservoirMode::Skip);
        let mut offered: Vec<std::collections::HashSet<u32>> =
            vec![std::collections::HashSet::new(); lanes];
        for i in 0..n_offers {
            let item = (i as u32) % dup_mod;
            let a = rng.gen_range(0usize..lanes);
            let b = rng.gen_range(a..lanes) + 1;
            offer.offer_range(a, b, item);
            skip.offer_range(a, b, item);
            for set in offered[a..b].iter_mut() {
                set.insert(item);
            }
            assert_eq!(
                offer.seen_counts(),
                skip.seen_counts(),
                "case {case} step {i}"
            );
        }
        for (lane, offered_set) in offered.iter().enumerate() {
            for bank in [&offer, &skip] {
                match bank.sample(lane) {
                    Some(s) => assert!(offered_set.contains(&s), "case {case} lane {lane}"),
                    None => assert_eq!(bank.seen(lane), 0, "case {case} lane {lane}"),
                }
            }
            if offer.seen(lane) == 1 {
                // Single-offer lane: deterministically kept in both modes.
                assert_eq!(offer.sample(lane), skip.sample(lane), "case {case}");
            }
        }
        // Draw accounting: the oracle draws exactly once per offer; skip
        // never draws more than the oracle.
        assert_eq!(offer.rng_draws(), offer.seen_counts().iter().sum::<u64>());
        assert!(skip.rng_draws() <= offer.rng_draws(), "case {case}");
    }
}

/// Reservoir + position sampling: a random edge from the insertion
/// executor is always a real edge of the final graph.
#[test]
fn executor_random_edge_sound() {
    use sgs_query::{Answer, Query, RoundAdaptive};
    struct One {
        asked: bool,
        got: Option<Edge>,
    }
    impl RoundAdaptive for One {
        type Output = Option<Edge>;
        fn next_round(&mut self, a: &[Answer]) -> Vec<Query> {
            if self.asked {
                self.got = a[0].expect_edge();
                return Vec::new();
            }
            self.asked = true;
            vec![Query::RandomEdge]
        }
        fn output(&mut self) -> Option<Edge> {
            self.got
        }
    }
    for case in 0..CASES * 4 {
        let mut rng = case_rng(0xe5e, case);
        let n = rng.gen_range(5usize..25);
        let seed = rng.next_u64();
        let m = (n * (n - 1) / 2) / 2;
        let g = sgs_graph::gen::gnm(n, m, seed);
        let stream = InsertionStream::from_graph(&g, seed ^ 1);
        let (out, _) = sgs_query::exec::run_on_stream(
            RouterMode::Insertion,
            One {
                asked: false,
                got: None,
            },
            &stream,
            seed ^ 2,
        );
        if m > 0 {
            let e = out.expect("non-empty stream yields an edge");
            assert!(g.has_edge(e.u(), e.v()), "case {case}");
        }
    }
}

/// Broadcast-ring cursor invariants under randomized cooperative
/// interleavings: each consumer's cursor is monotone (one block at a
/// time), never ahead of what was produced, and the blocks it consumed,
/// concatenated in cursor order, reconstruct the exact routed update
/// sequence — for random ring capacities, block lengths, shard counts,
/// and consumer counts (including zero).
#[test]
fn broadcast_cursor_monotone_bounded_and_lossless() {
    use sgs_stream::broadcast::{Broadcast, RoutedProducer, TryNext};
    use sgs_stream::sharded::RoutedUpdate;
    use sgs_stream::ShardedFeed;
    for case in 0..CASES {
        let mut rng = case_rng(0xbca5, case);
        let n = rng.gen_range(5usize..25);
        let mdiv = rng.gen_range(2usize..5);
        let m = (n * (n - 1) / 2) / mdiv;
        let g = sgs_graph::gen::gnm(n, m, rng.next_u64());
        let shards = rng.gen_range(1usize..5);
        let stream = InsertionStream::from_graph(&g, rng.next_u64());
        let feed = ShardedFeed::partition(&stream, shards);
        let capacity = rng.gen_range(1usize..5);
        let block = rng.gen_range(1usize..9);
        let n_consumers = rng.gen_range(0usize..4);

        let ring = Broadcast::new(capacity);
        let mut consumers: Vec<_> = (0..n_consumers)
            .map(|_| (ring.subscribe(), Vec::<RoutedUpdate>::new(), false))
            .collect();
        let mut producer = RoutedProducer::new(&feed, block);
        let mut produced_done = false;
        let mut steps = 0usize;
        loop {
            steps += 1;
            assert!(
                steps < 200_000,
                "case {case}: interleaving failed to make progress"
            );
            // Randomized schedule: each step one actor moves once.
            let actor = rng.gen_range(0..(n_consumers as u64) + 1) as usize;
            if actor == n_consumers {
                produced_done = producer.pump(&ring);
            } else {
                let (c, seen, ended) = &mut consumers[actor];
                let before = c.blocks_consumed();
                match c.try_next() {
                    TryNext::Block(b) => {
                        seen.extend_from_slice(&b);
                        // Monotone: exactly one block per successful read.
                        assert_eq!(c.blocks_consumed(), before + 1, "case {case}");
                    }
                    TryNext::Pending => assert!(!*ended, "case {case}"),
                    TryNext::Ended => *ended = true,
                }
                // Bounded: a cursor never runs ahead of production.
                assert!(
                    c.blocks_consumed() <= ring.produced_blocks(),
                    "case {case}: cursor ahead of producer"
                );
                assert!(
                    c.updates_consumed() <= ring.produced_updates(),
                    "case {case}"
                );
            }
            if produced_done && consumers.iter().all(|(_, _, ended)| *ended) {
                break;
            }
        }
        // Lossless: every consumer's concatenated blocks are exactly the
        // routed source sequence (order, positions, routing, deltas).
        for (i, (c, seen, _)) in consumers.iter().enumerate() {
            assert_eq!(seen.as_slice(), feed.routed(), "case {case}, consumer {i}");
            assert_eq!(c.updates_consumed(), feed.stream_len() as u64);
            assert_eq!(c.blocks_consumed(), ring.produced_blocks());
        }
        assert_eq!(ring.produced_updates(), feed.stream_len() as u64);
        assert_eq!(feed.logical_passes(), 1, "case {case}");
    }
}
