//! Durability bench: what checkpointing costs and what recovery buys.
//!
//! Three numbers per (model, shards) row, on one workload:
//!
//! * **checkpoint overhead** — the full durable run (WAL ingest +
//!   block-boundary snapshots + estimation) vs the plain in-memory
//!   executor producing the identical estimate;
//! * **recovery time** — crash the run at its halfway block, then time
//!   `CheckpointSession::resume` + rerun to completion (WAL decode,
//!   snapshot decode, round-history replay, remaining blocks);
//! * **on-disk footprint** — total WAL bytes and the (largest) snapshot
//!   record, plus how many snapshots the cadence published.
//!
//! Recovered estimates are asserted bit-identical to the plain run
//! in-bench, so the timings can't drift away from correctness. Run with
//! `cargo bench -p sgs-bench --bench persist` (add `smoke` for CI
//! size); `SGS_BENCH_JSON=<path>` writes the record committed as
//! `BENCH_persist.json`.

use sgs_core::fgp::{estimate, estimate_checkpointed, MultiQuerySpec};
use sgs_core::CountEstimate;
use sgs_graph::{gen, Pattern};
use sgs_query::exec::PassOpts;
use sgs_query::{CheckpointSession, Engine, ExecPolicy, RouterArena, RouterMode};
use sgs_stream::{InsertionStream, ShardedFeed, TurnstileStream};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

const SNAP_EVERY: u64 = 4;
const SEED: u64 = 9;

fn human(ns: u64) -> String {
    if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{:.2} ms", ns as f64 / 1e6)
    }
}

fn human_bytes(b: u64) -> String {
    if b < 16 * 1024 {
        format!("{b} B")
    } else {
        format!("{:.1} KiB", b as f64 / 1024.0)
    }
}

fn bench_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sgs-bench-persist-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// (total WAL bytes, largest snapshot bytes, snapshot count).
fn footprint(dir: &Path) -> (u64, u64, u64) {
    let (mut wal, mut snap_max, mut snaps) = (0u64, 0u64, 0u64);
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        let len = entry.metadata().unwrap().len();
        if name.starts_with("wal-") && name.ends_with(".seg") {
            wal += len;
        } else if name.starts_with("snap-") && name.ends_with(".bin") {
            snap_max = snap_max.max(len);
            snaps += 1;
        }
    }
    (wal, snap_max, snaps)
}

#[derive(Clone, Copy)]
struct Cfg {
    model: &'static str,
    shards: usize,
    trials: usize,
    chunk: usize,
}

fn make_feed(cfg: Cfg, n_v: usize, m: usize) -> ShardedFeed {
    let g = gen::gnm(n_v, m, 3);
    if cfg.model == "turnstile" {
        let s = TurnstileStream::from_graph_with_churn(&g, 0.5, 4);
        ShardedFeed::partition(&s, cfg.shards)
    } else {
        let s = InsertionStream::from_graph(&g, 4);
        ShardedFeed::partition(&s, cfg.shards)
    }
}

fn model_of(cfg: Cfg) -> RouterMode {
    if cfg.model == "turnstile" {
        RouterMode::Turnstile
    } else {
        RouterMode::Insertion
    }
}

fn spec(cfg: Cfg) -> MultiQuerySpec {
    MultiQuerySpec::new(Pattern::triangle(), cfg.trials, SEED)
}

fn run_plain(cfg: Cfg, feed: &ShardedFeed) -> CountEstimate {
    let mut arena = RouterArena::new();
    let engine = Engine::Sharded(ExecPolicy::default());
    let specs = [spec(cfg)];
    let (mut ests, _) = estimate(
        &specs,
        model_of(cfg),
        feed,
        &mut arena,
        PassOpts::default(),
        engine,
    )
    .unwrap();
    ests.pop().unwrap()
}

fn run_checkpointed(
    cfg: Cfg,
    feed: &ShardedFeed,
    dir: &Path,
    crash_after: Option<u64>,
) -> (Option<CountEstimate>, u64) {
    let mut session = CheckpointSession::create(dir, feed, SNAP_EVERY, cfg.chunk).unwrap();
    if let Some(c) = crash_after {
        session.set_crash_after(c);
    }
    let mut arena = RouterArena::new();
    let opts = PassOpts::default();
    let est = estimate_checkpointed(
        &spec(cfg),
        model_of(cfg),
        feed,
        &mut arena,
        opts,
        &mut session,
    )
    .unwrap();
    (est, session.blocks_processed())
}

fn resume_run(cfg: Cfg, dir: &Path) -> CountEstimate {
    let (mut session, feed) = CheckpointSession::resume(dir, SNAP_EVERY).unwrap();
    let mut arena = RouterArena::new();
    let opts = PassOpts::default();
    let est = estimate_checkpointed(
        &spec(cfg),
        model_of(cfg),
        &feed,
        &mut arena,
        opts,
        &mut session,
    )
    .unwrap();
    est.expect("recovered run completes")
}

fn time<R>(samples: usize, mut f: impl FnMut() -> R) -> u64 {
    black_box(f()); // warm-up
    let mut best = u64::MAX;
    for _ in 0..samples {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

struct Row {
    cfg: Cfg,
    plain_ns: u64,
    checkpointed_ns: u64,
    recover_ns: u64,
    wal_bytes: u64,
    snapshot_bytes: u64,
    snapshots: u64,
    total_blocks: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a.contains("smoke"));
    let (n_v, m, samples, ins_trials, tst_trials) = if smoke {
        (100, 800, 3, 400, 200)
    } else {
        (300, 3_000, 7, 3_000, 1_000)
    };
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "persist bench: gnm({n_v}, {m}), snapshot every {SNAP_EVERY} blocks, host cores {cores}"
    );

    let mut rows = Vec::new();
    for model in ["insertion", "turnstile"] {
        for shards in [1usize, 4] {
            let cfg = Cfg {
                model,
                shards,
                trials: if model == "turnstile" {
                    tst_trials
                } else {
                    ins_trials
                },
                chunk: 256,
            };
            let feed = make_feed(cfg, n_v, m);
            let plain = run_plain(cfg, &feed);

            // One probe run: total block count, on-disk footprint, and
            // the bit-identity guard for the uninterrupted durable run.
            let dir = bench_dir(&format!("{model}-{shards}-probe"));
            let (est, total_blocks) = run_checkpointed(cfg, &feed, &dir, None);
            assert_eq!(
                est.unwrap().estimate.to_bits(),
                plain.estimate.to_bits(),
                "checkpointed run must match the plain executor"
            );
            let (wal_bytes, snapshot_bytes, snapshots) = footprint(&dir);
            std::fs::remove_dir_all(&dir).unwrap();

            let plain_ns = time(samples, || run_plain(cfg, &feed));
            let checkpointed_ns = time(samples, || {
                let dir = bench_dir(&format!("{model}-{shards}-full"));
                let r = run_checkpointed(cfg, &feed, &dir, None);
                std::fs::remove_dir_all(&dir).unwrap();
                r.1
            });

            // Recovery: crash at the halfway block, resume to the end.
            // The crashed directory is prepared outside the clock; the
            // timed region is resume + rerun, and the recovered answer
            // is checked against the plain run every sample.
            let crash_at = (total_blocks / 2).max(1);
            let mut recover_ns = u64::MAX;
            for i in 0..=samples {
                let dir = bench_dir(&format!("{model}-{shards}-rec"));
                let (none, _) = run_checkpointed(cfg, &feed, &dir, Some(crash_at));
                assert!(none.is_none());
                let t0 = Instant::now();
                let rec = black_box(resume_run(cfg, &dir));
                let ns = t0.elapsed().as_nanos() as u64;
                if i > 0 {
                    recover_ns = recover_ns.min(ns);
                }
                assert_eq!(rec.estimate.to_bits(), plain.estimate.to_bits());
                std::fs::remove_dir_all(&dir).unwrap();
            }

            println!(
                "{model:<9} x{shards}: plain {:>10}  checkpointed {:>10} ({:.2}x)  \
                 recover-from-half {:>10}  wal {:>9}  snapshot {:>9} (x{snapshots})",
                human(plain_ns),
                human(checkpointed_ns),
                checkpointed_ns as f64 / plain_ns as f64,
                human(recover_ns),
                human_bytes(wal_bytes),
                human_bytes(snapshot_bytes),
            );
            rows.push(Row {
                cfg,
                plain_ns,
                checkpointed_ns,
                recover_ns,
                wal_bytes,
                snapshot_bytes,
                snapshots,
                total_blocks,
            });
        }
    }

    if let Ok(path) = std::env::var("SGS_BENCH_JSON") {
        let mut body = String::new();
        for r in &rows {
            body.push_str(&format!(
                "    {{\"model\": \"{}\", \"shards\": {}, \"trials\": {}, \"plain_ns\": {}, \"checkpointed_ns\": {}, \"overhead_checkpointed_vs_plain\": {:.2}, \"recover_from_half_ns\": {}, \"wal_bytes\": {}, \"snapshot_bytes\": {}, \"snapshots\": {}, \"total_blocks\": {}}},\n",
                r.cfg.model,
                r.cfg.shards,
                r.cfg.trials,
                r.plain_ns,
                r.checkpointed_ns,
                r.checkpointed_ns as f64 / r.plain_ns as f64,
                r.recover_ns,
                r.wal_bytes,
                r.snapshot_bytes,
                r.snapshots,
                r.total_blocks,
            ));
        }
        body.pop();
        body.pop();
        let json = format!(
            "{{\n  \"description\": \"Durability costs: full checkpointed run (WAL ingest + snapshots every {SNAP_EVERY} delivery blocks + estimation) vs the plain in-memory executor, and recovery time (CheckpointSession::resume + rerun) after a crash at the halfway block. Recovered estimates asserted bit-identical to the plain run in-bench. wal_bytes = sealed log of the routed stream; snapshot_bytes = largest published snapshot record. Regenerate: SGS_BENCH_JSON=<path> cargo bench -p sgs-bench --bench persist\",\n  \"workload\": \"gnm({n_v}, {m}), triangle, chunk 256 updates/block, snapshot every {SNAP_EVERY} blocks, crash at total_blocks/2\",\n  \"host_cores\": {cores},\n  \"samples\": {samples}, \"statistic\": \"min over samples\",\n  \"persist\": [\n{body}\n  ]\n}}\n",
        );
        std::fs::write(&path, json).expect("write bench json");
        println!("wrote {path}");
    }
}
