//! The traced run: each workload replayed in-process through the public
//! calls the CLI and the node make, one span around each call.
//!
//! Spans (name, start, end, parent, op id) stay in memory and are
//! written to `.perfbench-out/` when the run ends. A span's self time is
//! its length minus its children's; the replay's root span keeps what
//! no layer claims as `unattributed`, so the self times of all spans sum
//! to the traced wall time by construction — the run checks it.
//!
//! Every replay runs three times: untraced (which also warms the
//! allocator and page cache), traced, and untraced again, whose wall
//! time the tracing overhead is measured against. The work counters of
//! all three must be equal, and each must reproduce the estimate bits
//! the untraced binary printed.

use crate::count::{self, CountInputs, CountShapes, GraphInput};
use crate::report::{json_num, json_str, median, Outcome};
use crate::serve::{self, Traffic};
use crate::Ctx;
use sgs_core::fgp::{
    estimate_insertion_checkpointed, estimate_insertion_on_runtime, estimate_multi_insertion,
    SamplerPlan,
};
use sgs_core::{MultiQuerySpec, SamplerMode, SubgraphSampler};
use sgs_graph::{AdjListGraph, Pattern};
use sgs_query::sharded::{
    answer_insertion_batch_sharded_with_exec, answer_turnstile_batch_sharded_with_exec,
};
use sgs_query::{
    BroadcastOpts, CheckpointSession, ExecPolicy, L0Mode, Parallel, PassOpts, Query, QueryRouter,
    ReservoirMode, RoundAdaptive, RouterArena, RouterMode, ServeConfig, ServerNode,
};
use sgs_stream::hash::split_seed;
use sgs_stream::{InsertionStream, ShardedFeed, TurnstileStream};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit. A run reports all of them; a
/// layer the workload does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.io.parse_ms", "ms"),
    ("stream.source.build_ms", "ms"),
    ("stream.sharded.partition_ms", "ms"),
    ("stream.sharded.max_shard_updates", "count"),
    ("stream.sharded.mean_shard_updates", "count"),
    ("core.fgp.bank_build_ms", "ms"),
    ("core.fgp.next_round_ms", "ms"),
    ("core.fgp.queries.r1", "count"),
    ("core.fgp.queries.r2", "count"),
    ("core.fgp.queries.r3", "count"),
    ("query.router.build_ms.r1", "ms"),
    ("query.router.build_ms.r2", "ms"),
    ("query.router.build_ms.r3", "ms"),
    ("query.pass.ms.r1", "ms"),
    ("query.pass.ms.r2", "ms"),
    ("query.pass.ms.r3", "ms"),
    ("query.pass.shard_max_ms.r1", "ms"),
    ("query.pass.shard_max_ms.r2", "ms"),
    ("query.pass.shard_max_ms.r3", "ms"),
    ("query.pass.space_bytes.r1", "bytes"),
    ("query.pass.space_bytes.r2", "bytes"),
    ("query.pass.space_bytes.r3", "bytes"),
    ("stream.l0.f1_sampler_updates", "count"),
    ("stream.l0.ns_per_f1_update", "ns"),
    ("query.multiplex.pass_ms.r1", "ms"),
    ("query.multiplex.pass_ms.r2", "ms"),
    ("query.multiplex.pass_ms.r3", "ms"),
    ("query.multiplex.batch_len.r1", "count"),
    ("query.multiplex.batch_len.r2", "count"),
    ("query.multiplex.batch_len.r3", "count"),
    ("query.checkpoint.bytes_persisted", "bytes"),
    ("query.checkpoint.snapshots", "count"),
    ("query.serve.ingest_us.p50", "us"),
    ("query.serve.ingest_us.p99", "us"),
    ("query.serve.cut_ms", "ms"),
    ("query.serve.cut_updates", "count"),
    ("stream.persist.wal_bytes", "bytes"),
    ("stream.persist.files", "count"),
    ("core.fgp.count_ms", "ms"),
    ("core.serve.transport_ingest_ms", "ms"),
    ("core.serve.transport_count_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.max_backlog", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Relative tolerance on "self times plus unattributed equal the wall".
const SUM_TOLERANCE: f64 = 1e-6;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: u32,
}

/// In-memory span recorder; a disabled tracer records nothing.
struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Operation id stamped on new spans (the shape or request).
    op: u32,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        if self.enabled {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.stack.last().copied(),
                op: self.op,
            });
            self.stack.push(id);
        }
    }

    fn end(&mut self) {
        if self.enabled {
            let id = self.stack.pop().expect("end matches a begin") as usize;
            self.spans[id].end_ns = self.now_ns();
        }
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Duration of the `k`-th span (in start order) named `name`
    /// under the subtree rooted at `root`, in ms.
    fn nth_ms(&self, root: usize, name: &str, k: usize) -> f64 {
        self.subtree(root)
            .filter(|&i| self.spans[i].name == name)
            .nth(k)
            .map(|i| self.dur(i) as f64 / 1e6)
            .unwrap_or(0.0)
    }

    fn dur(&self, i: usize) -> u64 {
        self.spans[i].end_ns.saturating_sub(self.spans[i].start_ns)
    }

    fn is_under(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p as usize,
                None => return false,
            }
        }
    }

    fn subtree(&self, root: usize) -> impl Iterator<Item = usize> + '_ {
        (root..self.spans.len()).filter(move |&i| self.is_under(i, root))
    }

    /// Self time per span name within `root`'s subtree, in ns.
    fn self_times(&self, root: usize) -> BTreeMap<&'static str, i64> {
        let mut children = vec![0u64; self.spans.len()];
        for i in self.subtree(root) {
            if let Some(p) = self.spans[i].parent {
                children[p as usize] += self.dur(i);
            }
        }
        let mut out = BTreeMap::new();
        for i in self.subtree(root) {
            *out.entry(self.spans[i].name).or_insert(0i64) +=
                self.dur(i) as i64 - children[i] as i64;
        }
        out
    }

    /// Sum of self times of every span named `name` under `root`, ms.
    fn self_ms(&self, root: usize, name: &str) -> f64 {
        self.self_times(root).get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
                json_str(sp.name),
                sp.start_ns,
                sp.end_ns,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.op
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// Named per-layer values of one replay; work counters are kept apart so
/// the two replays can be compared exactly.
#[derive(Default)]
struct Layers {
    values: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
}

impl Layers {
    fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    fn count(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_string(), v);
    }
}

fn policy() -> ExecPolicy {
    ExecPolicy::from_env()
}

/// The pass options `sgs count` and `sgs serve` use by default.
fn pass_opts() -> PassOpts {
    PassOpts::with_block(sgs_query::exec::DEFAULT_BLOCK)
        .reservoir(ReservoirMode::Skip)
        .l0(L0Mode::Dispatch)
}

fn read_graph(path: &Path) -> Result<AdjListGraph, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    sgs_graph::io::read_edge_list(std::io::BufReader::new(file))
}

fn bits_of(estimate: f64) -> String {
    format!("{:016x}", estimate.to_bits())
}

/// The bank of `trials` sampler copies `sgs_core` builds for a solo
/// estimate.
fn bank(
    plan: &std::sync::Arc<SamplerPlan>,
    mode: SamplerMode,
    trials: usize,
    seed: u64,
) -> Parallel<SubgraphSampler> {
    Parallel::new(
        (0..trials)
            .map(|i| SubgraphSampler::new(plan.clone(), mode, split_seed(seed, i as u64)))
            .collect(),
    )
}

#[derive(Clone, Copy, PartialEq)]
enum Model {
    Insertion,
    Turnstile,
}

/// One solo estimate, round by round: the calls behind
/// `estimate_{insertion,turnstile}_threaded_with_exec`, with the
/// round's router build timed as a separate call on its batch.
fn solo_rounds(
    tr: &mut Tracer,
    lay: &mut Layers,
    feed: &ShardedFeed,
    model: Model,
    trials: usize,
    seed: u64,
) -> String {
    let plan = SamplerPlan::new(&Pattern::triangle()).expect("triangle has a plan");
    let mode = match model {
        Model::Insertion => SamplerMode::Indexed,
        Model::Turnstile => SamplerMode::Relaxed,
    };
    let mut par = tr.time("core.fgp.bank_build", || bank(&plan, mode, trials, seed));
    let mut arena = RouterArena::new();
    let exec_seed = split_seed(seed, u64::MAX);
    let mut answers = Vec::new();
    let mut round = 0u64;
    loop {
        let batch: Vec<Query> = tr.time("core.fgp.next_round", || par.next_round(&answers));
        if batch.is_empty() {
            break;
        }
        round += 1;
        lay.count(&format!("core.fgp.queries.r{round}"), batch.len() as u64);
        if model == Model::Turnstile && round == 1 {
            let f1 = batch
                .iter()
                .filter(|q| matches!(q, Query::RandomEdge))
                .count();
            lay.count(
                "stream.l0.f1_sampler_updates",
                (f1 * feed.stream_len()) as u64,
            );
        }
        if tr.enabled {
            let rmode = match model {
                Model::Insertion => RouterMode::Insertion,
                Model::Turnstile => RouterMode::Turnstile,
            };
            tr.time("query.router.build", || {
                black_box(QueryRouter::build(black_box(&batch), rmode));
            });
        }
        let pass_seed = split_seed(exec_seed, round);
        let (a, space) = tr.time("query.pass", || match model {
            Model::Insertion => answer_insertion_batch_sharded_with_exec(
                &batch,
                feed,
                pass_seed,
                &mut arena,
                pass_opts(),
                policy(),
            ),
            Model::Turnstile => answer_turnstile_batch_sharded_with_exec(
                &batch,
                feed,
                pass_seed,
                &mut arena,
                pass_opts(),
                policy(),
            ),
        });
        lay.count(&format!("query.pass.space_bytes.r{round}"), space as u64);
        let shard_max = arena
            .take_shard_pass_nanos()
            .iter()
            .filter_map(|v| v.last().copied())
            .max()
            .unwrap_or(0);
        lay.set(
            &format!("query.pass.shard_max_ms.r{round}"),
            shard_max as f64 / 1e6,
        );
        answers = a;
    }
    let outcomes = tr.time("core.fgp.next_round", || par.output());
    let m = outcomes.iter().map(|o| o.m).max().unwrap_or(0);
    let hits = outcomes.iter().filter(|o| o.copy.is_some()).count();
    let estimate = if outcomes.is_empty() {
        0.0
    } else {
        plan.rho().pow(2.0 * m as f64) * hits as f64 / outcomes.len() as f64
    };
    bits_of(estimate)
}

/// Shard sizes of a feed as counters.
fn shard_counters(lay: &mut Layers, feed: &ShardedFeed) {
    let sizes: Vec<u64> = (0..feed.num_shards())
        .map(|i| feed.shard(i).len() as u64)
        .collect();
    lay.count(
        "stream.sharded.max_shard_updates",
        sizes.iter().copied().max().unwrap_or(0),
    );
    lay.count(
        "stream.sharded.mean_shard_updates",
        sizes.iter().sum::<u64>() / sizes.len().max(1) as u64,
    );
}

/// Parse → stream → partition, as `sgs count --edges` does.
fn load_feed(
    tr: &mut Tracer,
    path: &Path,
    model: Model,
    shards: usize,
    seed: u64,
) -> Result<ShardedFeed, String> {
    let g = tr.time("graph.io.parse", || read_graph(path))?;
    Ok(match model {
        Model::Insertion => {
            let s = tr.time("stream.source.build", || {
                InsertionStream::from_graph(&g, seed ^ 0x77)
            });
            tr.time("stream.sharded.partition", || {
                ShardedFeed::partition(&s, shards)
            })
        }
        Model::Turnstile => {
            let s = tr.time("stream.source.build", || {
                TurnstileStream::from_graph_with_churn(&g, 1.0, seed ^ 0x77)
            });
            tr.time("stream.sharded.partition", || {
                ShardedFeed::partition(&s, shards)
            })
        }
    })
}

/// Bits of every shape of one replay.
#[derive(Default)]
struct Bits {
    solo: String,
    queries: Vec<String>,
    durable: String,
}

/// One replay of the three `count-insert` shapes.
fn replay_insert(
    tr: &mut Tracer,
    lay: &mut Layers,
    ctx: &Ctx,
    inputs: &CountInputs,
) -> Result<Bits, String> {
    let shards: usize = count::INSERT_SHARDS.parse().expect("constant");
    let mut bits = Bits::default();
    tr.begin("replay");

    tr.op = 1;
    tr.begin("shape.solo");
    let feed = load_feed(tr, &inputs.graph.path, Model::Insertion, shards, ctx.seed)?;
    shard_counters(lay, &feed);
    let trials = count::SOLO_TRIALS.parse().expect("constant");
    bits.solo = solo_rounds(tr, lay, &feed, Model::Insertion, trials, ctx.seed);
    drop(feed);
    tr.end();

    tr.op = 2;
    tr.begin("shape.queries");
    let feed = load_feed(tr, &inputs.graph.path, Model::Insertion, shards, ctx.seed)?;
    let specs: Vec<MultiQuerySpec> = inputs
        .queries
        .iter()
        .map(|q| MultiQuerySpec {
            pattern: sgs_graph::zoo::parse_pattern(q.pattern).expect("benchmark pattern"),
            trials: q.trials as usize,
            seed: q.seed,
            sampler: if q.relaxed {
                SamplerMode::Relaxed
            } else {
                SamplerMode::Indexed
            },
            reservoir: ReservoirMode::Skip,
        })
        .collect();
    let mut arena = RouterArena::new();
    let (ests, admission) = tr
        .time("query.multiplex", || {
            estimate_multi_insertion(
                &specs,
                &feed,
                &mut arena,
                PassOpts::with_block(sgs_query::exec::DEFAULT_BLOCK).l0(L0Mode::Dispatch),
                policy(),
            )
        })
        .ok_or("a query pattern has no plan")?;
    for (r, round) in admission.rounds.iter().enumerate().take(3) {
        lay.set(
            &format!("query.multiplex.pass_ms.r{}", r + 1),
            round.pass_nanos as f64 / 1e6,
        );
        lay.count(
            &format!("query.multiplex.batch_len.r{}", r + 1),
            round.batch_len as u64,
        );
    }
    bits.queries = ests.iter().map(|e| bits_of(e.estimate)).collect();
    drop(feed);
    tr.end();

    tr.op = 3;
    tr.begin("shape.durable");
    let feed = load_feed(tr, &inputs.graph.path, Model::Insertion, shards, ctx.seed)?;
    let dir = ctx.work.join("replay-checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    let trials = count::DURABLE_TRIALS.parse().expect("constant");
    let (est, snapshots) = tr.time("query.checkpoint", || -> Result<_, String> {
        let mut session = CheckpointSession::create(
            &dir,
            &feed,
            sgs_query::DEFAULT_SNAPSHOT_EVERY,
            sgs_query::DEFAULT_CHECKPOINT_CHUNK,
        )
        .map_err(|e| e.to_string())?;
        let mut arena = RouterArena::new();
        let est = estimate_insertion_checkpointed(
            &Pattern::triangle(),
            &feed,
            trials,
            ctx.seed,
            &mut arena,
            pass_opts(),
            SamplerMode::Indexed,
            &mut session,
        )
        .map_err(|e| e.to_string())?
        .ok_or("triangle has a plan")?;
        Ok((est, session.snapshots_written()))
    })?;
    lay.count(
        "query.checkpoint.bytes_persisted",
        dir_bytes(&dir, |_| true).0,
    );
    lay.count("query.checkpoint.snapshots", snapshots);
    let _ = std::fs::remove_dir_all(&dir);
    bits.durable = bits_of(est.estimate);
    drop(feed);
    tr.end();

    tr.end();
    Ok(bits)
}

/// (total bytes, file count) of the files in `dir` whose name passes
/// `keep`.
fn dir_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if keep(&e.file_name().to_string_lossy()) {
                if let Ok(md) = e.metadata() {
                    if md.is_file() {
                        bytes += md.len();
                        files += 1;
                    }
                }
            }
        }
    }
    (bytes, files)
}

/// Per-layer values every replay derives from its spans.
fn span_layers(tr: &Tracer, lay: &mut Layers, solo_root: usize) {
    lay.set("graph.io.parse_ms", tr.self_ms(solo_root, "graph.io.parse"));
    lay.set(
        "stream.source.build_ms",
        tr.self_ms(solo_root, "stream.source.build"),
    );
    lay.set(
        "stream.sharded.partition_ms",
        tr.self_ms(solo_root, "stream.sharded.partition"),
    );
    lay.set(
        "core.fgp.bank_build_ms",
        tr.self_ms(solo_root, "core.fgp.bank_build"),
    );
    lay.set(
        "core.fgp.next_round_ms",
        tr.self_ms(solo_root, "core.fgp.next_round"),
    );
    for r in 0..3 {
        lay.set(
            &format!("query.router.build_ms.r{}", r + 1),
            tr.nth_ms(solo_root, "query.router.build", r),
        );
        lay.set(
            &format!("query.pass.ms.r{}", r + 1),
            tr.nth_ms(solo_root, "query.pass", r),
        );
    }
}

/// Check the span bookkeeping and add the wall/unattributed values.
fn close_trace(tr: &Tracer, lay: &mut Layers, untraced: Duration, out: &mut Outcome) {
    let wall_ns = tr.dur(0) as f64;
    let selfs = tr.self_times(0);
    let sum: i64 = selfs.values().sum();
    out.check("trace self times sum to wall time", {
        let err = (sum as f64 - wall_ns).abs() / wall_ns.max(1.0);
        let negative: Vec<_> = selfs.iter().filter(|(_, v)| **v < 0).collect();
        if err <= SUM_TOLERANCE && negative.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "self times sum to {sum} ns of {wall_ns} ns; negative: {negative:?}"
            ))
        }
    });
    // Glue between layer calls: the root's and the shapes' own time.
    let unattributed = selfs
        .iter()
        .filter(|(name, _)| **name == "replay" || name.starts_with("shape."))
        .map(|(_, ns)| *ns)
        .sum::<i64>() as f64
        / 1e6;
    lay.set("trace.wall_ms", wall_ns / 1e6);
    lay.set("trace.unattributed_ms", unattributed);
    let untraced_ns = untraced.as_nanos() as f64;
    lay.set(
        "trace.overhead_pct",
        (wall_ns - untraced_ns) / untraced_ns * 100.0,
    );
    let mut shares = String::from("{\"self_ms\": {");
    for (i, (name, ns)) in selfs.iter().enumerate() {
        if i > 0 {
            shares.push_str(", ");
        }
        let _ = write!(shares, "{}: {}", json_str(name), json_num(*ns as f64 / 1e6));
    }
    let _ = write!(shares, "}}, \"wall_ms\": {}}}", json_num(wall_ns / 1e6));
    out.notes.push(shares);
}

/// The three replays of one workload: untraced (it also warms the
/// allocator and page cache), traced, and untraced again, whose wall time
/// the tracing overhead is measured against.
struct Replays<R> {
    tr: Tracer,
    lay: Layers,
    results: Vec<R>,
    untraced: Duration,
}

fn replays<R>(
    out: &mut Outcome,
    mut replay: impl FnMut(&mut Tracer, &mut Layers, &mut Outcome) -> Result<R, String>,
) -> Result<Replays<R>, String> {
    let mut results = Vec::new();
    let mut quiet = Vec::new();
    let mut run =
        |enabled: bool, out: &mut Outcome| -> Result<(Tracer, Layers, Duration), String> {
            let mut tr = Tracer::new(enabled);
            let mut lay = Layers::default();
            let t = Instant::now();
            results.push(replay(&mut tr, &mut lay, out)?);
            Ok((tr, lay, t.elapsed()))
        };
    let (_, first, _) = run(false, out)?;
    quiet.push(first);
    let (tr, lay, _) = run(true, out)?;
    let (_, last, untraced) = run(false, out)?;
    quiet.push(last);
    out.check("work counters repeat exactly", {
        match quiet.iter().find(|q| q.counters != lay.counters) {
            None => Ok(()),
            Some(q) => Err(format!(
                "traced {:?} untraced {:?}",
                lay.counters, q.counters
            )),
        }
    });
    Ok(Replays {
        tr,
        lay,
        results,
        untraced,
    })
}

fn emit(ctx: &Ctx, name: &str, tr: &Tracer, lay: &Layers, out: &mut Outcome) {
    for (metric, unit) in PER_LAYER {
        let v = lay
            .counters
            .get(*metric)
            .map(|&c| c as f64)
            .or_else(|| lay.values.get(*metric).copied())
            .unwrap_or(0.0);
        out.metric(metric, v, unit);
    }
    let path = ctx.out.join(format!("{name}-seed{}.spans.jsonl", ctx.seed));
    if let Err(e) = tr.write_jsonl(&path) {
        eprintln!("warning: writing {}: {e}", path.display());
    } else {
        out.notes.push(format!(
            "{{\"spans\": {}}}",
            json_str(&path.to_string_lossy())
        ));
    }
}

/// Share of the largest layer in a subtree, as a note.
fn purpose_note(tr: &Tracer, root: usize, what: &str) -> String {
    let (name, ns) = tr
        .self_times(root)
        .into_iter()
        .max_by_key(|(_, v)| *v)
        .unwrap_or(("none", 0));
    format!(
        "{{\"purpose\": {}, \"largest_layer\": {}, \"share\": {}}}",
        json_str(what),
        json_str(name),
        json_num(ns as f64 / (tr.dur(root) as f64).max(1.0))
    )
}

fn check_bits(what: &str, got: &str, want: &str, out: &mut Outcome) {
    out.check(&format!("traced replay reproduces {what} bits"), {
        if got == want {
            Ok(())
        } else {
            Err(format!("replay bits={got}, sgs printed {want}"))
        }
    });
}

pub fn count_insert(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut inputs = count::insert_inputs(ctx).map_err(|e| format!("writing inputs: {e}"))?;
    count::exact_triangles(&mut inputs.graph);
    out.notes.push(inputs.graph.note("count-insert powerlaw"));
    let shapes = CountShapes::insert(ctx, &inputs);
    // The untraced binary, once per shape: the bits to reproduce.
    let (_, solo) = count::solo(ctx, &count::refs(&shapes.solo))?;
    let queries = count::sgs(ctx, &count::refs(&shapes.queries)).map(|r| {
        count::estimates(&r)
            .into_iter()
            .map(|e| e.bits)
            .collect::<Vec<_>>()
    })?;
    let durable_dir = ctx.work.join("checkpoint");
    let _ = std::fs::remove_dir_all(&durable_dir);
    let durable = count::solo(ctx, &count::refs(&shapes.durable(&durable_dir)));
    let _ = std::fs::remove_dir_all(&durable_dir);
    let (_, durable) = durable?;
    let want = Bits {
        solo: ctx.expected_bits(&solo.bits),
        queries: queries.iter().map(|b| ctx.expected_bits(b)).collect(),
        durable: ctx.expected_bits(&durable.bits),
    };

    let Replays {
        tr,
        mut lay,
        results,
        untraced,
    } = replays(out, |tr, lay, _| replay_insert(tr, lay, ctx, &inputs))?;
    for b in &results {
        check_bits("solo", &b.solo, &want.solo, out);
        check_bits("durable", &b.durable, &want.durable, out);
        check_bits(
            "queries",
            &b.queries.join(","),
            &want.queries.join(","),
            out,
        );
    }
    let solo_root = root_of(&tr, "shape.solo");
    span_layers(&tr, &mut lay, solo_root);
    close_trace(&tr, &mut lay, untraced, out);
    out.notes.push(purpose_note(
        &tr,
        solo_root,
        "count-insert solo: no layer above 50%",
    ));
    emit(ctx, "count-insert", &tr, &lay, out);
    Ok(())
}

fn root_of(tr: &Tracer, name: &str) -> usize {
    tr.spans
        .iter()
        .position(|s| s.name == name)
        .expect("replay opened this span")
}

fn replay_turnstile(
    tr: &mut Tracer,
    lay: &mut Layers,
    ctx: &Ctx,
    graph: &GraphInput,
) -> Result<String, String> {
    tr.begin("replay");
    tr.op = 1;
    tr.begin("shape.solo");
    let feed = load_feed(tr, &graph.path, Model::Turnstile, 1, ctx.seed)?;
    shard_counters(lay, &feed);
    let trials = count::TURNSTILE_TRIALS.parse().expect("constant");
    let bits = solo_rounds(tr, lay, &feed, Model::Turnstile, trials, ctx.seed);
    drop(feed);
    tr.end();
    tr.end();
    Ok(bits)
}

pub fn count_turnstile(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut inputs = count::turnstile_inputs(ctx).map_err(|e| format!("writing inputs: {e}"))?;
    count::exact_triangles(&mut inputs.graph);
    out.notes.push(inputs.graph.note("count-turnstile gnm"));
    let shapes = CountShapes::turnstile(ctx, &inputs);
    let (_, printed) = count::solo(ctx, &count::refs(&shapes.solo))?;
    let want = ctx.expected_bits(&printed.bits);

    let Replays {
        tr,
        mut lay,
        results,
        untraced,
    } = replays(out, |tr, lay, _| {
        replay_turnstile(tr, lay, ctx, &inputs.graph)
    })?;
    for b in &results {
        check_bits("turnstile", b, &want, out);
    }
    let solo_root = root_of(&tr, "shape.solo");
    span_layers(&tr, &mut lay, solo_root);
    let r1 = tr.nth_ms(solo_root, "query.pass", 0);
    let f1 = lay
        .counters
        .get("stream.l0.f1_sampler_updates")
        .copied()
        .unwrap_or(0);
    lay.set("stream.l0.ns_per_f1_update", r1 * 1e6 / (f1.max(1) as f64));
    close_trace(&tr, &mut lay, untraced, out);
    out.notes.push(format!(
        "{{\"purpose\": \"count-turnstile: round-1 pass at least 80%\", \"share\": {}}}",
        json_num(r1 * 1e6 / tr.dur(0) as f64)
    ));
    emit(ctx, "count-turnstile", &tr, &lay, out);
    Ok(())
}

/// Node-side costs of one replay of the recorded serve traffic.
#[derive(Default)]
struct NodeCosts {
    ingest: Vec<Duration>,
    cut: Vec<Duration>,
    count: Vec<Duration>,
}

/// Ingest the recorded updates `*next..upto`, each as one span.
fn ingest_to(
    node: &mut ServerNode,
    tr: &mut Tracer,
    costs: &mut NodeCosts,
    traffic: &Traffic,
    next: &mut usize,
    upto: usize,
) -> Result<(), String> {
    while *next < upto {
        let (u, v) = traffic.updates[*next];
        let t = Instant::now();
        let pos = tr.time("query.serve.ingest", || node.ingest(u, v, 1));
        costs.ingest.push(t.elapsed());
        match pos {
            Ok(p) if p == *next as u64 => {}
            other => return Err(format!("replay ingest #{next}: {other:?}")),
        }
        *next += 1;
    }
    Ok(())
}

fn replay_serve(
    tr: &mut Tracer,
    lay: &mut Layers,
    ctx: &Ctx,
    traffic: &Traffic,
    out: &mut Outcome,
) -> Result<NodeCosts, String> {
    let dir = ctx.work.join("replay-node");
    let _ = std::fs::remove_dir_all(&dir);
    let mut costs = NodeCosts::default();
    tr.begin("replay");
    let cfg = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let mut node = tr
        .time("query.serve.create", || {
            ServerNode::create(&dir, cfg, policy())
        })
        .map_err(|e| e.to_string())?;
    let mut arena = RouterArena::new();
    let mut next = 0usize;
    let mut cut_updates = 0u64;
    let mut mismatched = Vec::new();
    for (k, rec) in traffic.counts.iter().enumerate() {
        tr.op = k as u32 + 1;
        let prefix = usize::try_from(rec.prefix).map_err(|e| e.to_string())?;
        if prefix > traffic.updates.len() || prefix < next {
            return Err(format!("COUNT #{k} prefix {prefix} out of order"));
        }
        ingest_to(&mut node, tr, &mut costs, traffic, &mut next, prefix)?;
        let t = Instant::now();
        let feed = tr
            .time("query.serve.cut", || node.cut())
            .map_err(|e| e.to_string())?;
        costs.cut.push(t.elapsed());
        cut_updates += node.ingested();
        let t = Instant::now();
        let est = tr
            .time("core.fgp.count", || {
                estimate_insertion_on_runtime(
                    &Pattern::triangle(),
                    &feed,
                    serve::COUNT_TRIALS as usize,
                    rec.seed,
                    &mut arena,
                    pass_opts(),
                    SamplerMode::Indexed,
                    BroadcastOpts::with_policy(policy()),
                    node.runtime_mut(),
                )
            })
            .ok_or("triangle has a plan")?;
        costs.count.push(t.elapsed());
        node.note_served();
        drop(feed);
        if bits_of(est.estimate) != ctx.expected_bits(&rec.bits) && mismatched.len() < 3 {
            mismatched.push(format!(
                "COUNT #{k}: replay bits={} served bits={}",
                bits_of(est.estimate),
                rec.bits
            ));
        }
    }
    tr.op = 0;
    ingest_to(
        &mut node,
        tr,
        &mut costs,
        traffic,
        &mut next,
        traffic.updates.len(),
    )?;
    tr.time("query.serve.shutdown", || node.shutdown())
        .map_err(|e| e.to_string())?;
    tr.end();
    out.check("traced replay reproduces served COUNT bits", {
        if mismatched.is_empty() {
            Ok(())
        } else {
            Err(mismatched.join("; "))
        }
    });
    let (wal_bytes, _) = dir_bytes(&dir, |n| n.starts_with("wal-") && n.ends_with(".seg"));
    let (_, files) = dir_bytes(&dir, |_| true);
    lay.count("stream.persist.wal_bytes", wal_bytes);
    lay.count("stream.persist.files", files);
    lay.count("query.serve.cut_updates", cut_updates);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(costs)
}

fn p_ms(d: &[Duration], q: f64) -> f64 {
    if d.is_empty() {
        0.0
    } else {
        serve::ms(d, q)
    }
}

pub fn serve_mixed(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let traffic = serve::run(ctx, out)?;

    let Replays {
        tr,
        mut lay,
        results,
        untraced,
    } = replays(out, |tr, lay, out| {
        replay_serve(tr, lay, ctx, &traffic, out)
    })?;
    let costs = &results[1];
    lay.set("query.serve.ingest_us.p50", p_ms(&costs.ingest, 0.5) * 1e3);
    lay.set("query.serve.ingest_us.p99", p_ms(&costs.ingest, 0.99) * 1e3);
    let cut = p_ms(&costs.cut, 0.5);
    let count = p_ms(&costs.count, 0.5);
    lay.set("query.serve.cut_ms", cut);
    lay.set("core.fgp.count_ms", count);
    let wire_count: Vec<Duration> = traffic.timed_counts().iter().map(|c| c.wire).collect();
    let node_count: Vec<f64> = costs
        .cut
        .iter()
        .zip(&costs.count)
        .skip(traffic.timed.start)
        .take(traffic.timed.len())
        .map(|(a, b)| (*a + *b).as_secs_f64() * 1e3)
        .collect();
    lay.set(
        "core.serve.transport_ingest_ms",
        p_ms(&traffic.ingest_wire, 0.5) - p_ms(&costs.ingest, 0.5),
    );
    lay.set(
        "core.serve.transport_count_ms",
        p_ms(&wire_count, 0.5)
            - if node_count.is_empty() {
                0.0
            } else {
                median(&node_count)
            },
    );
    lay.set("loadgen.late_p99_ms", p_ms(&traffic.late, 0.99));
    lay.count("loadgen.max_backlog", traffic.max_backlog as u64);
    close_trace(&tr, &mut lay, untraced, out);
    // Over the open-loop phase's COUNTs, as they interleave with ingest.
    let timed = |d: &[Duration]| -> f64 {
        d[traffic.timed.clone()]
            .iter()
            .map(Duration::as_secs_f64)
            .sum()
    };
    let (cut_total, count_total) = (timed(&costs.cut), timed(&costs.count));
    out.notes.push(format!(
        "{{\"purpose\": \"serve-mixed: cut at least 10% of node-side COUNT time\", \"share\": {}}}",
        json_num(cut_total / (cut_total + count_total).max(1e-12))
    ));
    emit(ctx, "serve-mixed", &tr, &lay, out);
    Ok(())
}
