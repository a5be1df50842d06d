//! Multi-query multiplexing bench: ONE shared pass per round serving N
//! concurrent estimates vs N independent estimator runs.
//!
//! The serving-side question: N `#H` queries (mixed patterns, trial
//! counts, seeds, sampler and reservoir modes) arrive together. Solo
//! they cost `3·N` passes — every FGP sampler is 3-round — each pass
//! walking the whole stream through its own router. Through
//! `sgs_query::QuerySet` they cost exactly **3 shared passes** total:
//! one merged router per round fans each delivery out to every query's
//! sampler banks, so the per-update feed cost is paid once per round,
//! not once per query per round.
//!
//! Measured at N = 10 / 100 / 1000 concurrent queries, single shard,
//! serial policy on both sides (pure pass-cost comparison — shard
//! threading multiplies both sides alike). The headline number is
//! aggregate answers/sec. Every multiplexed estimate is asserted
//! **byte-identical** to its solo run in-bench before any timing.
//!
//! Run with `cargo bench -p sgs-bench --bench multiplex` (add `smoke`
//! for CI size); `SGS_BENCH_JSON=<path>` writes the record committed as
//! `BENCH_multiplex.json`.

use sgs_core::fgp::{estimate, MultiQuerySpec};
use sgs_core::{CountEstimate, SamplerMode};
use sgs_graph::{gen, Pattern};
use sgs_query::exec::PassOpts;
use sgs_query::{Engine, ExecPolicy, ReservoirMode, RouterArena, RouterMode};
use sgs_stream::{InsertionStream, ShardedFeed};
use std::hint::black_box;
use std::time::Instant;

fn best(ns: Vec<u64>) -> u64 {
    ns.into_iter().min().unwrap_or(0)
}

fn human(ns: u64) -> String {
    if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{:.2} ms", ns as f64 / 1e6)
    }
}

fn time<R>(samples: usize, mut f: impl FnMut() -> R) -> u64 {
    // Warm-up.
    black_box(f());
    let mut ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        black_box(f());
        ns.push(t0.elapsed().as_nanos() as u64);
    }
    best(ns)
}

/// A mixed admission batch of `n` queries: alternating triangle/5-cycle
/// patterns, indexed/relaxed samplers, offer/skip reservoirs, varied
/// trial counts, distinct seeds — the traffic shape the QuerySet exists
/// to serve.
fn mixed_specs(n: usize, trials: usize) -> Vec<MultiQuerySpec> {
    (0..n)
        .map(|i| {
            let (pattern, sampler) = if i % 2 == 0 {
                (Pattern::triangle(), SamplerMode::Indexed)
            } else {
                (Pattern::cycle(5), SamplerMode::Relaxed)
            };
            MultiQuerySpec {
                pattern,
                trials: trials + (i % 4) * (trials / 4).max(1),
                seed: 1_000 + i as u64,
                sampler,
                reservoir: if i % 4 == 3 {
                    ReservoirMode::Skip
                } else {
                    ReservoirMode::Offer
                },
            }
        })
        .collect()
}

/// N independent estimator runs — the pre-multiplexer serving cost.
fn solo_estimates(
    specs: &[MultiQuerySpec],
    feed: &ShardedFeed,
    arena: &mut RouterArena,
    block: usize,
) -> Vec<CountEstimate> {
    specs
        .iter()
        .map(|spec| {
            let engine = Engine::Sharded(ExecPolicy::serial());
            let specs = std::slice::from_ref(spec);
            let opts = PassOpts::with_block(block);
            let (mut ests, _) =
                estimate(specs, RouterMode::Insertion, feed, arena, opts, engine).unwrap();
            ests.pop().unwrap()
        })
        .collect()
}

struct Row {
    queries: usize,
    solo_ns: u64,
    mux_ns: u64,
    rounds: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a.contains("smoke"));
    let (n_v, m, trials, block) = if smoke {
        (120, 900, 4, 128)
    } else {
        (400, 6_000, 16, 128)
    };
    let counts = [10usize, 100, 1_000];
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let g = gen::gnm(n_v, m, 3);
    let stream = InsertionStream::from_graph(&g, 4);
    let feed = ShardedFeed::partition(&stream, 1);
    println!(
        "multiplex bench: gnm({n_v}, {m}), {} updates, base trials {trials}, block {block}, host cores {cores}",
        feed.stream_len()
    );

    let mut rows = Vec::new();
    for &n in &counts {
        let samples = if smoke {
            1
        } else {
            match n {
                10 => 7,
                100 => 5,
                _ => 3,
            }
        };
        let specs = mixed_specs(n, trials);

        // Byte-identity guard BEFORE timing: every multiplexed estimate
        // equals its solo run bit for bit.
        let mut mux_arena = RouterArena::new();
        let (mux_ests, admission) = estimate(
            &specs,
            RouterMode::Insertion,
            &feed,
            &mut mux_arena,
            PassOpts::with_block(block),
            Engine::Sharded(ExecPolicy::serial()),
        )
        .unwrap();
        let mut solo_arena = RouterArena::new();
        let solos = solo_estimates(&specs, &feed, &mut solo_arena, block);
        for (j, (a, b)) in mux_ests.iter().zip(&solos).enumerate() {
            assert_eq!(
                a.estimate.to_bits(),
                b.estimate.to_bits(),
                "estimate mismatch, query {j} of {n}"
            );
            assert_eq!(a.hits, b.hits, "hits mismatch, query {j} of {n}");
            assert_eq!(a.trials, b.trials, "trials mismatch, query {j} of {n}");
        }
        let rounds = admission.rounds.len();
        println!(
            "x{n}: byte-identity vs {n} solo runs ✓  ({rounds} shared passes vs {})",
            3 * n
        );

        let solo_ns = time(samples, || {
            solo_estimates(&specs, &feed, &mut solo_arena, block)
        });
        let mux_ns = time(samples, || {
            estimate(
                &specs,
                RouterMode::Insertion,
                &feed,
                &mut mux_arena,
                PassOpts::with_block(block),
                Engine::Sharded(ExecPolicy::serial()),
            )
            .unwrap()
        });
        let speedup = solo_ns as f64 / mux_ns as f64;
        let aps = n as f64 / (mux_ns as f64 / 1e9);
        println!(
            "x{n:<5}: solo {:>10}  mux {:>10}  ({speedup:.2}x)  {aps:.0} answers/sec",
            human(solo_ns),
            human(mux_ns),
        );
        rows.push(Row {
            queries: n,
            solo_ns,
            mux_ns,
            rounds,
        });
    }

    if let Ok(path) = std::env::var("SGS_BENCH_JSON") {
        let mut body = String::new();
        for r in &rows {
            body.push_str(&format!(
                "    {{\"queries\": {}, \"solo_total_ns\": {}, \"mux_total_ns\": {}, \"speedup_mux_vs_solo\": {:.2}, \"mux_answers_per_sec\": {:.0}, \"shared_passes\": {}, \"solo_passes\": {}}},\n",
                r.queries,
                r.solo_ns,
                r.mux_ns,
                r.solo_ns as f64 / r.mux_ns as f64,
                r.queries as f64 / (r.mux_ns as f64 / 1e9),
                r.rounds,
                3 * r.queries,
            ));
        }
        body.pop();
        body.pop();
        let json = format!(
            "{{\n  \"description\": \"Multi-query multiplexing (sgs_query::QuerySet: one shared QueryRouter pass per round fanning deliveries out to every query's sampler banks) vs N independent estimator runs, byte-identical per-query estimates asserted in-bench before timing. Mixed traffic: alternating triangle/5-cycle patterns, indexed/relaxed samplers, offer/skip reservoirs, varied trial counts, distinct seeds. Single shard, serial policy on both sides (pure pass-cost comparison). Regenerate: SGS_BENCH_JSON=<path> cargo bench -p sgs-bench --bench multiplex\",\n  \"workload\": \"gnm({n_v}, {m}), {updates} updates, base trials {trials} (varied per query), feed block {block}\",\n  \"host_cores\": {cores},\n  \"statistic\": \"min over samples (7/5/3 at N=10/100/1000)\",\n  \"multiplex\": [\n{body}\n  ]\n}}\n",
            n_v = n_v,
            m = m,
            updates = feed.stream_len(),
            trials = trials,
            block = block,
            cores = cores,
            body = body,
        );
        std::fs::write(&path, json).expect("write bench json");
        println!("wrote {path}");
    }
}
