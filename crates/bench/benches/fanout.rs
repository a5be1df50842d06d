//! Broadcast fan-out bench: ONE ingest feeding N consumers vs N private
//! replays of the same stream.
//!
//! The pre-broadcast serving reality: every pass consumer (baseline,
//! exact oracle, raw counter, …) replays the stream privately through
//! `EdgeStream::replay` — N consumers, N full feed passes, each paying
//! the per-update dynamic-dispatch callback and its own walk over the
//! update buffer. The broadcast ring pays the ingest once: one producer
//! chunks the routed buffer into shared blocks and every consumer walks
//! the blocks as tight slice loops through its own cursor.
//!
//! Two consumer weights are measured at N = 1 / 2 / 4:
//!
//! * **counter** — a cheap ingest-bound consumer (key-sum + tally):
//!   exposes pure feed cost, the number the acceptance criterion cares
//!   about ("one broadcast ingest beats N ≥ 2 private replays on total
//!   feed cost");
//! * **triest** — the TRIÈST baseline (hash-indexed reservoir): a
//!   realistic heavyweight consumer, where per-consumer work dilutes
//!   the transport saving.
//!
//! Plus one end-to-end row: the `estimate_broadcast` bundle
//! (estimator + TRIÈST + exact CSR oracle + raw counter from one
//! ingest) vs the same four answers computed the private way (estimator
//! run + 3 private replays).
//!
//! The broadcast side runs the deterministic cooperative schedule (the
//! single-core execution policy); on a multi-core host the scoped-thread
//! schedule overlaps consumers on top of this saving. Run with
//! `cargo bench -p sgs-bench --bench fanout` (add `smoke` for CI size);
//! `SGS_BENCH_JSON=<path>` writes the record committed as
//! `BENCH_fanout.json`.

use sgs_core::baselines::exact_stream::count_exact;
use sgs_core::baselines::triest::{estimate_triest, TriestStream};
use sgs_core::fgp::{estimate, estimate_broadcast, triest_seed, ConsumerSet, MultiQuerySpec};
use sgs_graph::{gen, Pattern};
use sgs_query::exec::PassOpts;
use sgs_query::{BroadcastOpts, Engine, ExecPolicy, RouterArena, RouterMode};
use sgs_stream::broadcast::{Broadcast, RoutedProducer, TryNext};
use sgs_stream::{EdgeStream, InsertionStream, ShardedFeed};
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

/// Cheap consumer state: tally + key checksum (ingest-bound).
#[derive(Default, Clone, Copy, PartialEq, Debug)]
struct Counter {
    updates: u64,
    key_sum: u64,
}

impl Counter {
    #[inline]
    fn absorb(&mut self, key: u64) {
        self.updates += 1;
        self.key_sum = self.key_sum.wrapping_add(key);
    }
}

/// N private replays, each through the dyn-callback replay path.
fn private_counters(feed: &ShardedFeed, n: usize) -> Vec<Counter> {
    (0..n)
        .map(|_| {
            let mut c = Counter::default();
            feed.replay(&mut |u| c.absorb(u.edge.key()));
            c
        })
        .collect()
}

/// One broadcast ingest, N counter consumers, cooperative schedule.
fn broadcast_counters(feed: &ShardedFeed, n: usize, ring_block: usize) -> Vec<Counter> {
    let ring = Broadcast::new(8);
    let mut consumers: Vec<_> = (0..n)
        .map(|_| (ring.subscribe(), Counter::default(), false))
        .collect();
    let mut producer = RoutedProducer::new(feed, ring_block);
    loop {
        let done = producer.pump(&ring);
        let mut all = true;
        for (c, state, ended) in consumers.iter_mut() {
            while !*ended {
                match c.try_next() {
                    TryNext::Block(b) => {
                        for r in b.iter() {
                            state.absorb(r.update.edge.key());
                        }
                    }
                    TryNext::Pending => break,
                    TryNext::Ended => *ended = true,
                }
            }
            all &= *ended;
        }
        if done && all {
            break;
        }
    }
    consumers.into_iter().map(|(_, s, _)| s).collect()
}

/// N private TRIÈST replays.
fn private_triests(feed: &ShardedFeed, n: usize, cap: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| estimate_triest(feed, cap, seed + i as u64).estimate)
        .collect()
}

/// One broadcast ingest, N TRIÈST consumers, cooperative schedule.
fn broadcast_triests(
    feed: &ShardedFeed,
    n: usize,
    cap: usize,
    seed: u64,
    ring_block: usize,
) -> Vec<f64> {
    let ring = Broadcast::new(8);
    let mut consumers: Vec<_> = (0..n)
        .map(|i| {
            (
                ring.subscribe(),
                Some(TriestStream::new(cap, seed + i as u64)),
                false,
            )
        })
        .collect();
    let mut producer = RoutedProducer::new(feed, ring_block);
    loop {
        let done = producer.pump(&ring);
        let mut all = true;
        for (c, ts, ended) in consumers.iter_mut() {
            while !*ended {
                match c.try_next() {
                    TryNext::Block(b) => {
                        let t = ts.as_mut().unwrap();
                        for r in b.iter() {
                            t.push(r.update.edge);
                        }
                    }
                    TryNext::Pending => break,
                    TryNext::Ended => *ended = true,
                }
            }
            all &= *ended;
        }
        if done && all {
            break;
        }
    }
    consumers
        .into_iter()
        .map(|(_, ts, _)| ts.unwrap().finish().estimate)
        .collect()
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

struct Row {
    group: &'static str,
    consumers: usize,
    private_ns: u64,
    broadcast_ns: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a.contains("smoke"));
    let (n_v, m, samples, trials) = if smoke {
        (400, 6_000, 5, 500)
    } else {
        (1_000, 60_000, 11, 4_000)
    };
    let consumer_counts = [1usize, 2, 4];
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let g = gen::gnm(n_v, m, 3);
    let stream = InsertionStream::from_graph(&g, 4);
    let feed = ShardedFeed::partition(&stream, 1);
    let ring_block = sgs_stream::broadcast::DEFAULT_RING_BLOCK;
    println!(
        "fanout bench: gnm({n_v}, {m}), {} updates, ring block {ring_block}, host cores {cores}",
        feed.stream_len()
    );

    // Equivalence guards: broadcast consumers compute the exact same
    // answers as the private replays.
    assert_eq!(
        private_counters(&feed, 2),
        broadcast_counters(&feed, 2, ring_block)
    );
    assert_eq!(
        private_triests(&feed, 2, 256, 77),
        broadcast_triests(&feed, 2, 256, 77, ring_block)
    );
    println!("equivalence check: broadcast consumers identical to private replays ✓");

    let mut rows = Vec::new();
    for &n in &consumer_counts {
        let private_ns = time(samples, || private_counters(&feed, n));
        let broadcast_ns = time(samples, || broadcast_counters(&feed, n, ring_block));
        println!(
            "counter  x{n}: private {:>10}  broadcast {:>10}  ({:.2}x)",
            human(private_ns),
            human(broadcast_ns),
            private_ns as f64 / broadcast_ns as f64
        );
        rows.push(Row {
            group: "counter",
            consumers: n,
            private_ns,
            broadcast_ns,
        });
    }
    for &n in &consumer_counts {
        let private_ns = time(samples, || private_triests(&feed, n, 256, 77));
        let broadcast_ns = time(samples, || broadcast_triests(&feed, n, 256, 77, ring_block));
        println!(
            "triest   x{n}: private {:>10}  broadcast {:>10}  ({:.2}x)",
            human(private_ns),
            human(broadcast_ns),
            private_ns as f64 / broadcast_ns as f64
        );
        rows.push(Row {
            group: "triest",
            consumers: n,
            private_ns,
            broadcast_ns,
        });
    }

    // End-to-end bundle: estimator + TRIÈST + exact + raw from one
    // ingest vs the private pipeline (estimator run, then 3 replays).
    let pattern = Pattern::triangle();
    let bundle_private_ns = time(samples.min(7), || {
        let mut arena = RouterArena::new();
        let specs = [MultiQuerySpec::new(pattern.clone(), trials, 9)];
        let engine = Engine::Sharded(ExecPolicy::default());
        let model = RouterMode::Insertion;
        let (ests, _) = estimate(
            &specs,
            model,
            &feed,
            &mut arena,
            PassOpts::default(),
            engine,
        )
        .unwrap();
        let est = &ests[0];
        let t = estimate_triest(&feed, 256, triest_seed(9));
        let x = count_exact(&pattern, &feed);
        let mut raw = 0u64;
        feed.replay(&mut |_| raw += 1);
        (est.hits, t.estimate.to_bits(), x.count, raw)
    });
    let bundle_broadcast_ns = time(samples.min(7), || {
        let mut arena = RouterArena::new();
        let b = estimate_broadcast(
            &MultiQuerySpec::new(pattern.clone(), trials, 9),
            RouterMode::Insertion,
            &feed,
            &mut arena,
            PassOpts::default(),
            ConsumerSet {
                triest_capacity: Some(256),
                exact: true,
                extra_raw: 0,
            },
            BroadcastOpts::default(),
        )
        .unwrap();
        (
            b.estimate.hits,
            b.triest.unwrap().estimate.to_bits(),
            b.exact.unwrap(),
            b.raw_updates,
        )
    });
    println!(
        "bundle     : private {:>10}  broadcast {:>10}  ({:.2}x)  [estimator+triest+exact+raw]",
        human(bundle_private_ns),
        human(bundle_broadcast_ns),
        bundle_private_ns as f64 / bundle_broadcast_ns as f64
    );
    rows.push(Row {
        group: "bundle",
        consumers: 4,
        private_ns: bundle_private_ns,
        broadcast_ns: bundle_broadcast_ns,
    });

    if let Ok(path) = std::env::var("SGS_BENCH_JSON") {
        let mut body = String::new();
        for r in &rows {
            body.push_str(&format!(
                "    {{\"group\": \"{}\", \"consumers\": {}, \"private_total_ns\": {}, \"broadcast_total_ns\": {}, \"speedup_broadcast_vs_private\": {:.2}}},\n",
                r.group,
                r.consumers,
                r.private_ns,
                r.broadcast_ns,
                r.private_ns as f64 / r.broadcast_ns as f64,
            ));
        }
        body.pop();
        body.pop();
        let json = format!(
            "{{\n  \"description\": \"Broadcast fan-out (one RoutedProducer ingest over a bounded Broadcast ring, cooperative single-core schedule) vs N private EdgeStream::replay passes, identical consumer answers asserted in-bench. groups: counter = ingest-bound tally consumer (the total-feed-cost criterion), triest = heavyweight TRIEST baseline consumer, bundle = estimate_broadcast (estimator + TRIEST + exact CSR + raw counter from one ingest) vs the private pipeline. Regenerate: SGS_BENCH_JSON=<path> cargo bench -p sgs-bench --bench fanout\",\n  \"workload\": \"gnm({n_v}, {m}), {updates} updates, ring capacity 8, ring block {ring_block}, triest capacity 256, bundle trials {trials}\",\n  \"host_cores\": {cores},\n  \"samples\": {samples}, \"statistic\": \"min over samples\",\n  \"fanout\": [\n{body}\n  ]\n}}\n",
            n_v = n_v,
            m = m,
            updates = feed.stream_len(),
            ring_block = ring_block,
            trials = trials,
            cores = cores,
            samples = samples,
            body = body,
        );
        std::fs::write(&path, json).expect("write bench json");
        println!("wrote {path}");
    }
}
