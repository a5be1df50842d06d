//! Arbitrary-order model: guarantees must hold for *every* stream order,
//! not just random ones. These tests feed adversarially structured
//! orders — sorted, reverse-sorted, degree-clustered, motif-batched —
//! and check the estimator stays unbiased.

use sgs_graph::StaticGraph;
use sgs_query::{answer_batch, Answer, Engine, ExecPolicy, PassOpts, Query, RouterArena};
use sgs_stream::ShardedFeed;
use subgraph_streams::prelude::*;

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

fn orders(g: &AdjListGraph) -> Vec<(&'static str, InsertionStream)> {
    let n = g.num_vertices();
    let mut sorted = g.edge_vec();
    sorted.sort_unstable();
    let mut reversed = sorted.clone();
    reversed.reverse();
    // Cluster by lower endpoint degree (low-degree edges first): an
    // adversary that front-loads the sparse part of the graph.
    let mut by_degree = sorted.clone();
    by_degree.sort_by_key(|e| g.degree(e.u()).min(g.degree(e.v())));
    // Interleave first and second half.
    let mut interleaved = Vec::with_capacity(sorted.len());
    let half = sorted.len() / 2;
    for i in 0..half {
        interleaved.push(sorted[i]);
        interleaved.push(sorted[half + i]);
    }
    interleaved.extend_from_slice(&sorted[2 * half..]);

    vec![
        ("sorted", InsertionStream::from_edge_order(n, sorted)),
        ("reversed", InsertionStream::from_edge_order(n, reversed)),
        ("by-degree", InsertionStream::from_edge_order(n, by_degree)),
        (
            "interleaved",
            InsertionStream::from_edge_order(n, interleaved),
        ),
    ]
}

#[test]
fn triangle_estimates_order_independent() {
    let g = sgs_graph::gen::gnm(40, 240, 1);
    let exact = sgs_graph::exact::triangles::count_triangles(&g);
    assert!(exact > 50);
    for (name, stream) in orders(&g) {
        let est = sgs_core::fgp::estimate_stream(
            &Pattern::triangle(),
            RouterMode::Insertion,
            &stream,
            25_000,
            2,
        )
        .unwrap();
        assert!(
            est.relative_error(exact) < 0.25,
            "{name}: estimate {} vs exact {exact}",
            est.estimate
        );
    }
}

#[test]
fn wedge_estimates_order_independent() {
    let g = sgs_graph::gen::gnm(30, 120, 3);
    let exact = sgs_graph::exact::stars::count_wedges(&g);
    for (name, stream) in orders(&g) {
        let est = sgs_core::fgp::estimate_stream(
            &Pattern::star(2),
            RouterMode::Insertion,
            &stream,
            15_000,
            4,
        )
        .unwrap();
        assert!(
            est.relative_error(exact) < 0.25,
            "{name}: estimate {} vs exact {exact}",
            est.estimate
        );
    }
}

#[test]
fn ers_order_independent() {
    let g = sgs_graph::gen::barabasi_albert(100, 4, 5);
    let exact = sgs_graph::exact::cliques::count_cliques(&g, 3);
    assert!(exact > 20);
    let lambda = sgs_graph::degeneracy::degeneracy(&g);
    let params = ErsParams::practical(3, lambda, 0.3, exact as f64 * 0.5);
    for (name, stream) in orders(&g) {
        let est = count_cliques_insertion(&params, &stream, 7, 6);
        assert!(
            est.relative_error(exact) < 0.4,
            "{name}: estimate {} vs exact {exact}",
            est.estimate
        );
    }
}

#[test]
fn pass_counts_unaffected_by_order() {
    let g = sgs_graph::gen::gnm(25, 100, 7);
    for (_, stream) in orders(&g) {
        let est = sgs_core::fgp::estimate_stream(
            &Pattern::triangle(),
            RouterMode::Insertion,
            &stream,
            100,
            8,
        )
        .unwrap();
        assert_eq!(est.report.passes, 3);
    }
}

/// Skip-ahead reservoirs under adversarial orders: the relaxed query mix
/// (RandomNeighbor, answered by the reservoir bank) must stay unbiased
/// for every stream order, in both acceptance schemes — the skip rework
/// changes *when* coins are drawn, never which prefix a sampler is
/// uniform over.
#[test]
fn relaxed_estimates_order_independent_in_both_reservoir_modes() {
    use sgs_core::fgp::{estimate, MultiQuerySpec};
    use sgs_query::ReservoirMode;
    let g = sgs_graph::gen::gnm(40, 240, 1);
    let exact = sgs_graph::exact::triangles::count_triangles(&g);
    assert!(exact > 50);
    for mode in [ReservoirMode::Offer, ReservoirMode::Skip] {
        for (name, stream) in orders(&g) {
            let spec = MultiQuerySpec {
                sampler: SamplerMode::Relaxed,
                reservoir: mode,
                ..MultiQuerySpec::new(Pattern::triangle(), 25_000, 2)
            };
            let feed = ShardedFeed::partition(&stream, 1);
            let (opts, engine) = (PassOpts::default(), Engine::Sharded(ExecPolicy::default()));
            let mut arena = RouterArena::new();
            let (ests, _) = estimate(
                &[spec],
                RouterMode::Insertion,
                &feed,
                &mut arena,
                opts,
                engine,
            )
            .unwrap();
            let est = &ests[0];
            assert_eq!(est.report.passes, 3);
            assert!(
                est.relative_error(exact) < 0.3,
                "{name}/{mode:?}: estimate {} vs exact {exact}",
                est.estimate
            );
        }
    }
}

/// Duplicate-heavy adversarial order: every edge arrives several times.
/// Degrees count arrivals (not distinct neighbors) in this model, and
/// the skip reservoir's `seen()` clock must agree with the per-offer
/// oracle's on every prefix — checked here end to end via the degree
/// answers and a skip-mode neighbor answer that must be a true neighbor.
#[test]
fn duplicate_heavy_streams_keep_reservoir_accounting_exact() {
    use sgs_query::ReservoirMode;
    let g = sgs_graph::gen::gnm(12, 30, 9);
    let mut edges = g.edge_vec();
    let copy = edges.clone();
    edges.extend(copy.iter().rev());
    edges.extend(copy.iter());
    let n = g.num_vertices();
    let stream = InsertionStream::from_edge_order(n, edges);
    let batch: Vec<Query> = (0..n as u32)
        .flat_map(|v| {
            [
                Query::Degree(VertexId(v)),
                Query::RandomNeighbor(VertexId(v)),
            ]
        })
        .collect();
    for seed in 0..40u64 {
        let (offer, _) = one_shard_pass(
            RouterMode::Insertion,
            &batch,
            &stream,
            seed,
            PassOpts::with_reservoir(ReservoirMode::Offer),
        );
        let (skip, _) = one_shard_pass(
            RouterMode::Insertion,
            &batch,
            &stream,
            seed,
            PassOpts::with_reservoir(ReservoirMode::Skip),
        );
        for (qi, (a, b)) in offer.iter().zip(&skip).enumerate() {
            match (a, b) {
                // Deterministic answers must be identical across modes.
                (Answer::Degree(x), Answer::Degree(y)) => {
                    assert_eq!(x, y, "seed {seed} slot {qi}");
                    assert_eq!(x % 3, 0, "triplicated stream: degree divisible by 3");
                }
                // Sampled answers: both must be true neighbors.
                (Answer::Neighbor(x), Answer::Neighbor(y)) => {
                    let v = VertexId(qi as u32 / 2);
                    for u in [x, y].into_iter().flatten() {
                        assert!(g.has_edge(v, *u), "seed {seed}: {u:?} not adj {v:?}");
                    }
                    assert_eq!(x.is_some(), y.is_some(), "seed {seed} slot {qi}");
                }
                other => panic!("unexpected answer pair {other:?}"),
            }
        }
    }
}

/// Survivor-level dispatch under adversarial orders: duplicate-heavy
/// turnstile streams (the same edge arriving several times inside one
/// block, including insert/delete pairs that cancel to zero) and
/// clamp-stressing ℓ₀ banks must answer bit-identically to the
/// predicated oracle — the dispatch rework changes which rows are
/// *touched*, never what any row accumulates.
#[test]
fn dispatch_feed_is_duplicate_and_cancellation_independent() {
    use sgs_query::L0Mode;
    use sgs_stream::update::EdgeUpdate;

    let g = sgs_graph::gen::gnm(14, 40, 41);
    // Every edge arrives five times back to back (insert, delete,
    // insert, delete, insert — weight bouncing inside the strict {0,1}
    // band): net weight one, but a blocked feed sees heavy in-block
    // duplication with cancelling pairs. Every third edge then gets a
    // final delete, cancelling its whole detector traffic to zero.
    let mut updates = Vec::new();
    for (i, e) in g.edge_vec().into_iter().enumerate() {
        for _ in 0..2 {
            updates.push(EdgeUpdate::insert(e));
            updates.push(EdgeUpdate::delete(e));
        }
        updates.push(EdgeUpdate::insert(e));
        if i % 3 == 0 {
            updates.push(EdgeUpdate::delete(e));
        }
    }
    let stream = TurnstileStream::from_updates(g.num_vertices(), updates);
    let batch: Vec<Query> = (0..g.num_vertices() as u32)
        .flat_map(|v| {
            [
                Query::Degree(VertexId(v)),
                Query::RandomNeighbor(VertexId(v)),
            ]
        })
        .chain([Query::EdgeCount, Query::RandomEdge])
        .collect();
    for seed in 0..10u64 {
        let (oracle, _) = one_shard_pass(
            RouterMode::Turnstile,
            &batch,
            &stream,
            seed,
            PassOpts::oracle(),
        );
        for block in [0usize, 1, 13, 16, 64] {
            for mode in [L0Mode::Predicated, L0Mode::Dispatch] {
                let opts = PassOpts::with_block(block).l0(mode);
                let (got, _) = one_shard_pass(RouterMode::Turnstile, &batch, &stream, seed, opts);
                assert_eq!(got, oracle, "seed {seed} block {block} {mode:?}");
            }
        }
    }
}

/// Dispatch with a shallow bank: `max_level + 1 = 2` rows means roughly
/// half of all survivor draws clamp to ℓ = L-1, the geometry where an
/// off-by-one in the prefix walk or the cohort drain would corrupt the
/// deepest row. Feed duplicate-heavy key sequences in adversarial
/// orders (sorted, reversed, interleaved) plus literal zero-delta
/// updates through every path and demand identical planes.
#[test]
fn dispatch_survives_level_clamp_under_adversarial_key_orders() {
    use sgs_stream::hash::FastRng;
    use sgs_stream::l0::{L0Mode, L0Sampler};
    use sgs_stream::SpaceUsage;

    let mut rng = FastRng::seed_from_u64(43);
    let mut sorted: Vec<(u64, i64)> = (0..500)
        .map(|i| (rng.gen_range(1..64u64), if i % 3 == 2 { -1 } else { 1 }))
        .collect();
    sorted.extend((0..20).map(|i| (i + 1, 0i64))); // zero-delta updates
    sorted.sort_unstable();
    let mut reversed = sorted.clone();
    reversed.reverse();
    let half = sorted.len() / 2;
    let mut interleaved = Vec::with_capacity(sorted.len());
    for i in 0..half {
        interleaved.push(sorted[i]);
        interleaved.push(sorted[half + i]);
    }
    interleaved.extend_from_slice(&sorted[2 * half..]);
    for (name, updates) in [
        ("sorted", &sorted),
        ("reversed", &reversed),
        ("interleaved", &interleaved),
    ] {
        let mut oracle = L0Sampler::new(1, 6, 44);
        for &(k, d) in updates {
            oracle.update_with(L0Mode::Predicated, k, d);
        }
        let expect = oracle.sample();
        for block in [1usize, 7, 16, 64] {
            let mut s = L0Sampler::new(1, 6, 44);
            for chunk in updates.chunks(block) {
                s.update_batch_with(L0Mode::Dispatch, chunk);
            }
            assert_eq!(s.sample(), expect, "{name} block {block}");
            assert_eq!(
                s.space_bytes(),
                oracle.space_bytes(),
                "{name} block {block}"
            );
        }
        let mut s = L0Sampler::new(1, 6, 44);
        for &(k, d) in updates {
            s.update_with(L0Mode::Dispatch, k, d);
        }
        assert_eq!(s.sample(), expect, "{name} scalar dispatch");
    }
}
