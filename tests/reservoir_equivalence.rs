//! Distribution-equivalence suite for the skip-ahead reservoir rework.
//!
//! The skip-ahead sampler (`ReservoirMode::Skip`) consumes a different
//! RNG sequence than the per-offer oracle (`ReservoirMode::Offer`), so —
//! like the PR-2 ℓ₀ base-hash rework — correctness is re-established
//! *distributionally*, not by byte-identity:
//!
//! 1. **Winner uniformity** — chi-square tests on the winning index of
//!    skip-mode reservoirs, on direct banks and on router-fed
//!    (predicate-filtered) banks driven through the full insertion
//!    executors at shard counts 1, 2 and 4.
//! 2. **Acceptance-count distribution** — the number of acceptances over
//!    `m` offers matches the per-offer oracle's empirical distribution
//!    (mean and spread), not just its mean.
//! 3. **`seen()` accounting** — exactly identical between the two modes
//!    at every stream prefix, including duplicate-heavy and
//!    single-update streams, through the router's predicate-filtered
//!    delivery.
//!
//! Byte-identity *within* a mode (scalar vs blocked vs sharded) is pinned
//! in `tests/block_equivalence.rs` / `tests/sharded_equivalence.rs` and
//! the `sgs_query::sharded` unit tests.

use sgs_graph::{Edge, StaticGraph, VertexId};
use sgs_query::exec::{insertion_pass_reservoir_draws, PassOpts};
use sgs_query::{
    answer_batch, Answer, Engine, ExecPolicy, Query, QueryRouter, ReservoirMode, RouterArena,
    RouterMode,
};
use sgs_stream::hash::split_seed;
use sgs_stream::reservoir::ReservoirBank;
use sgs_stream::{EdgeStream, EdgeUpdate, InsertionStream, ShardedFeed};

/// One serial pass over `stream` partitioned into one shard.
fn one_shard_pass(
    model: RouterMode,
    batch: &[Query],
    stream: &impl EdgeStream,
    pass_seed: u64,
    opts: PassOpts,
) -> (Vec<Answer>, usize) {
    let feed = ShardedFeed::partition(stream, 1);
    let engine = Engine::Sharded(ExecPolicy::serial());
    answer_batch(
        model,
        batch,
        &feed,
        pass_seed,
        &mut RouterArena::new(),
        opts,
        engine,
    )
}

/// Chi-square statistic of observed counts against a uniform expectation.
fn chi_square(counts: &[u64], total: u64) -> f64 {
    let expect = total as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expect;
            d * d / expect
        })
        .sum()
}

/// Loose 99.9th-percentile bound for a chi-square variable with `df`
/// degrees of freedom (Wilson–Hilferty cube approximation plus slack) —
/// enough to make the gates fail loudly on a real bias without flaking.
fn chi2_bound(df: usize) -> f64 {
    let df = df as f64;
    let z = 3.1; // ~99.9th percentile of N(0,1)
    let cube = 1.0 - 2.0 / (9.0 * df) + z * (2.0 / (9.0 * df)).sqrt();
    df * cube.powi(3) * 1.15
}

#[test]
fn direct_bank_skip_winners_uniform_chi_square() {
    // One skip bank of 4000 lanes, every lane offered the same 25 items:
    // winners must be uniform over the items.
    let n_items = 25usize;
    let lanes = 4000usize;
    let items: Vec<u32> = (0..n_items as u32).collect();
    let mut bank: ReservoirBank<u32> = ReservoirBank::with_mode(lanes, 0xe41, ReservoirMode::Skip);
    bank.offer_batch(&items);
    let mut wins = vec![0u64; n_items];
    for s in bank.samples_iter() {
        wins[s.unwrap() as usize] += 1;
    }
    let chi2 = chi_square(&wins, lanes as u64);
    let bound = chi2_bound(n_items - 1);
    assert!(chi2 < bound, "chi2 {chi2:.1} >= bound {bound:.1}: {wins:?}");
}

#[test]
fn acceptance_count_distribution_matches_oracle_mean_and_spread() {
    // Acceptances over m offers: compare the skip bank's empirical mean
    // AND standard deviation against the per-offer oracle's (same law:
    // sum of independent Bernoulli(1/t)). Acceptances are counted from
    // the draw counter (skip mode: draws == acceptances by construction;
    // offer mode: re-derived per lane by replaying the per-offer coins).
    let m = 3_000u32;
    let lanes = 600usize;
    let items: Vec<u32> = (0..m).collect();

    // Skip: per-lane acceptance counts via per-lane banks (draws of a
    // 1-lane bank == that lane's acceptances).
    let mut skip_counts = Vec::with_capacity(lanes);
    for lane in 0..lanes {
        let mut b: ReservoirBank<u32> =
            ReservoirBank::from_seeds([split_seed(0xe42, lane as u64)], ReservoirMode::Skip);
        b.offer_batch(&items);
        skip_counts.push(b.rng_draws() as f64);
    }
    // Oracle: count acceptances by watching the kept item change (items
    // are distinct, so every acceptance changes it).
    let mut offer_counts = Vec::with_capacity(lanes);
    for lane in 0..lanes {
        let mut r = sgs_stream::reservoir::ReservoirSampler::with_mode(
            split_seed(0xe42, lane as u64),
            ReservoirMode::Offer,
        );
        let mut n = 0u64;
        let mut last = None;
        for &it in &items {
            r.offer(it);
            if r.sample() != last {
                n += 1;
                last = r.sample();
            }
        }
        offer_counts.push(n as f64);
    }
    let stats = |xs: &[f64]| {
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        (mean, var.sqrt())
    };
    let (sm, ss) = stats(&skip_counts);
    let (om, os) = stats(&offer_counts);
    let h_m: f64 = (1..=m as u64).map(|i| 1.0 / i as f64).sum();
    // Mean of 600 lanes has std ~ sqrt(H_m)/sqrt(600) ≈ 0.12; 5σ gates.
    assert!((sm - h_m).abs() < 0.6, "skip mean {sm:.2} vs H_m {h_m:.2}");
    assert!((om - h_m).abs() < 0.6, "offer mean {om:.2} vs H_m {h_m:.2}");
    assert!((sm - om).abs() < 0.8, "means diverged: {sm:.2} vs {om:.2}");
    // Spread: std ≈ sqrt(H_m - pi^2/6) ≈ 2.6; allow ±25%.
    assert!(
        (ss / os - 1.0).abs() < 0.25,
        "stds diverged: {ss:.2} vs {os:.2}"
    );
}

/// Build a router over RandomNeighbor queries and drive both reservoir
/// modes through the *same* predicate-filtered delivery, checking
/// `seen()` equality at every prefix.
#[test]
fn router_fed_seen_accounting_identical_at_every_prefix() {
    // Duplicate-heavy adversarial order: every edge delivered several
    // times, plus vertices with no registered queries (the predicate
    // filter), plus a single-update tail vertex.
    let batch: Vec<Query> = (0..40u32)
        .map(|i| Query::RandomNeighbor(VertexId(i % 7)))
        .chain([Query::RandomNeighbor(VertexId(99))])
        .collect();
    let updates: Vec<EdgeUpdate> = (0..300u32)
        .map(|i| EdgeUpdate::insert(Edge::from((i % 9, 9 + i % 4))))
        .chain([EdgeUpdate::insert(Edge::from((99, 100)))])
        .collect();
    let mut router_a = QueryRouter::build(&batch, RouterMode::Insertion);
    let mut router_b = QueryRouter::build(&batch, RouterMode::Insertion);
    let seeds: Vec<u64> = router_a
        .neighbor_slots()
        .iter()
        .map(|&s| split_seed(0xe43, s as u64))
        .collect();
    let mut offer: ReservoirBank<Edge> =
        ReservoirBank::from_seeds(seeds.iter().copied(), ReservoirMode::Offer);
    let mut skip: ReservoirBank<Edge> =
        ReservoirBank::from_seeds(seeds.iter().copied(), ReservoirMode::Skip);
    for (i, &u) in updates.iter().enumerate() {
        let edge = u.edge;
        router_a.feed(u, |s, e| offer.offer_range(s as usize, e as usize, edge));
        router_b.feed(u, |s, e| skip.offer_range(s as usize, e as usize, edge));
        assert_eq!(offer.seen_counts(), skip.seen_counts(), "prefix {i}");
    }
    // The single-update vertex: exactly one offer, kept in both modes.
    let last = offer.len() - 1;
    assert_eq!(offer.seen(last), 1);
    assert_eq!(offer.sample(last), skip.sample(last));
    // Skip drew far fewer coins on the duplicate-heavy lanes.
    assert!(skip.rng_draws() < offer.rng_draws());
}

/// End-to-end winner uniformity through the full (sharded) insertion
/// executors: a RandomNeighbor answer on a star center must be uniform
/// over the petals in skip mode at shard counts 1, 2 and 4, and the
/// sharded answers must stay byte-identical to the single-stream pass.
#[test]
fn router_fed_skip_winners_uniform_at_shards_1_2_4() {
    let petals = 12u32;
    let g = sgs_graph::gen::star_graph(petals as usize);
    let ins = InsertionStream::from_graph(&g, 21);
    let batch = vec![
        Query::RandomNeighbor(VertexId(0)),
        Query::Degree(VertexId(0)),
    ];
    let trials = 4000u64;
    let opts = PassOpts::default();
    for shards in [1usize, 2, 4] {
        let feed = ShardedFeed::partition(&ins, shards);
        let mut arena = RouterArena::new();
        let mut wins = vec![0u64; petals as usize];
        for pass_seed in 0..trials {
            let (a, _) = answer_batch(
                RouterMode::Insertion,
                &batch,
                &feed,
                pass_seed,
                &mut arena,
                opts,
                Engine::Sharded(ExecPolicy::default()),
            );
            let (b, _) = one_shard_pass(RouterMode::Insertion, &batch, &ins, pass_seed, opts);
            assert_eq!(a, b, "shards {shards}, pass seed {pass_seed}");
            let Answer::Neighbor(Some(v)) = a[0] else {
                panic!("star center must always have a neighbor");
            };
            wins[v.0 as usize - 1] += 1;
            assert_eq!(a[1], Answer::Degree(petals as usize));
        }
        let chi2 = chi_square(&wins, trials);
        let bound = chi2_bound(petals as usize - 1);
        assert!(
            chi2 < bound,
            "shards {shards}: chi2 {chi2:.1} >= {bound:.1}: {wins:?}"
        );
    }
}

#[test]
fn skip_mode_sampled_neighbors_match_offer_mode_distribution() {
    // Same executor pass, general graph: per-vertex winner histograms of
    // the two modes must agree (two-sample chi-square against the
    // pooled expectation, all RandomNeighbor slots of a mixed batch).
    let g = sgs_graph::gen::gnm(16, 48, 31);
    let ins = InsertionStream::from_graph(&g, 32);
    let vs: Vec<VertexId> = (0..6u32).map(VertexId).collect();
    let batch: Vec<Query> = vs.iter().map(|&v| Query::RandomNeighbor(v)).collect();
    let trials = 2500u64;
    let mut hist: std::collections::HashMap<(usize, u32, ReservoirMode), u64> =
        std::collections::HashMap::new();
    for mode in [ReservoirMode::Offer, ReservoirMode::Skip] {
        let opts = PassOpts::with_reservoir(mode);
        for pass_seed in 0..trials {
            let (a, _) = one_shard_pass(RouterMode::Insertion, &batch, &ins, pass_seed, opts);
            for (qi, ans) in a.iter().enumerate() {
                if let Answer::Neighbor(Some(u)) = ans {
                    *hist.entry((qi, u.0, mode)).or_insert(0) += 1;
                }
            }
        }
    }
    for (qi, &v) in vs.iter().enumerate() {
        let deg = g.degree(v);
        if deg == 0 {
            continue;
        }
        // Two-sample chi-square over this vertex's neighbor histogram.
        let mut chi2 = 0.0;
        let mut cells = 0usize;
        for u in g.vertices() {
            if !g.has_edge(v, u) {
                continue;
            }
            let a = *hist.get(&(qi, u.0, ReservoirMode::Offer)).unwrap_or(&0) as f64;
            let b = *hist.get(&(qi, u.0, ReservoirMode::Skip)).unwrap_or(&0) as f64;
            let e = (a + b) / 2.0;
            assert!(e > 0.0, "neighbor {u:?} of {v:?} never sampled");
            chi2 += (a - e).powi(2) / e + (b - e).powi(2) / e;
            cells += 1;
        }
        let bound = chi2_bound(cells.max(2) - 1);
        assert!(chi2 < bound, "vertex {v:?}: chi2 {chi2:.1} >= {bound:.1}");
    }
}

#[test]
fn skip_draw_count_logarithmic_through_the_executor() {
    // Counted (not estimated) RNG draws of the full relaxed-f3 pass:
    // per-offer must be exactly the total number of offers; skip must be
    // within a small factor of k·H(offers per sampler).
    let g = sgs_graph::gen::gnm(30, 400, 41);
    let ins = InsertionStream::from_graph(&g, 42);
    let k = 64usize;
    let batch: Vec<Query> = (0..k as u32)
        .map(|i| Query::RandomNeighbor(VertexId(i % 30)))
        .collect();
    let offer_draws = insertion_pass_reservoir_draws(
        &batch,
        &ins,
        7,
        PassOpts::with_reservoir(ReservoirMode::Offer),
    );
    let skip_draws = insertion_pass_reservoir_draws(
        &batch,
        &ins,
        7,
        PassOpts::with_reservoir(ReservoirMode::Skip),
    );
    // Total offers = sum over queried vertices of degree (each incident
    // update offers once per registered sampler).
    let offers: u64 = (0..k as u32)
        .map(|i| g.degree(VertexId(i % 30)) as u64)
        .sum();
    assert_eq!(offer_draws, offers, "oracle draws == total offers");
    // Expected skip draws: sum of H_deg over samplers; gate at 3×.
    let expect: f64 = (0..k as u32)
        .map(|i| {
            let d = g.degree(VertexId(i % 30)) as u64;
            (1..=d).map(|t| 1.0 / t as f64).sum::<f64>()
        })
        .sum();
    assert!(
        (skip_draws as f64) < 3.0 * expect + k as f64,
        "skip draws {skip_draws} vs expected ~{expect:.0}"
    );
    assert!(
        skip_draws * 4 < offer_draws,
        "skip draws should be far fewer"
    );
}
