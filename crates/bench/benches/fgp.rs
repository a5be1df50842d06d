//! Benchmarks for the FGP pipeline: edges/second through the 3-pass
//! estimator at varying trial counts, per pattern.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sgs_core::fgp::estimate_stream;
use sgs_graph::{gen, Pattern, StaticGraph};
use sgs_query::RouterMode;
use sgs_stream::{EdgeStream, InsertionStream};
use std::hint::black_box;

fn bench_estimator_trials(c: &mut Criterion) {
    let g = gen::gnm(300, 2400, 3);
    let stream = InsertionStream::from_graph(&g, 4);
    let mut group = c.benchmark_group("fgp_triangle_trials");
    group.sample_size(10);
    for &k in &[1_000usize, 10_000, 50_000] {
        // 3 passes over the stream per run.
        group.throughput(Throughput::Elements(3 * stream.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                black_box(
                    estimate_stream(&Pattern::triangle(), RouterMode::Insertion, &stream, k, 5)
                        .unwrap(),
                )
            });
        });
    }
    group.finish();
}

fn bench_estimator_patterns(c: &mut Criterion) {
    let g = gen::gnm(200, 1200, 7);
    let stream = InsertionStream::from_graph(&g, 8);
    let mut group = c.benchmark_group("fgp_patterns_10k_trials");
    group.sample_size(10);
    for p in [
        Pattern::triangle(),
        Pattern::cycle(5),
        Pattern::star(3),
        Pattern::clique(4),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(p.name().to_string()),
            &p,
            |b, p| {
                b.iter(|| {
                    black_box(
                        estimate_stream(p, RouterMode::Insertion, &stream, 10_000, 9).unwrap(),
                    )
                });
            },
        );
    }
    group.finish();
}

fn bench_turnstile_pass_cost(c: &mut Criterion) {
    use sgs_stream::TurnstileStream;
    let g = gen::gnm(150, 900, 11);
    let stream = TurnstileStream::from_graph_with_churn(&g, 1.0, 12);
    let mut group = c.benchmark_group("fgp_turnstile");
    group.sample_size(10);
    for &k in &[200usize, 1_000] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                black_box(
                    estimate_stream(&Pattern::triangle(), RouterMode::Turnstile, &stream, k, 13)
                        .unwrap(),
                )
            });
        });
    }
    group.finish();
    let _ = g.num_edges();
}

criterion_group!(
    benches,
    bench_estimator_trials,
    bench_estimator_patterns,
    bench_turnstile_pass_cost
);
criterion_main!(benches);
