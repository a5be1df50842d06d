//! `sgs` — command-line streaming subgraph counter.
//!
//! ```text
//! sgs count   --edges FILE --pattern triangle [--trials N] [--eps E] [--seed S] [--turnstile] [--shards N] [--block B] [--pin] [--reservoir offer|skip] [--relaxed] [--broadcast] [--consumers N] [--checkpoint-dir D [--snapshot-every N] [--wal-block W]] [--bits]
//! sgs count   --updates FILE ...      (raw update order instead of a shuffled graph)
//! sgs count   --edges FILE --queries FILE [--seed S] [--turnstile] [--shards N] [--block B] [--pin] [--broadcast] [--bits]
//! sgs serve   DIR [--listen ADDR] [--unix PATH] [--shards N] [--wal-block W] [--snapshot-every N] [--seed S] [--block B] [--l0 M] [--pin] [--eps E]
//! sgs recover DIR
//! sgs search  --edges FILE --pattern K4 [--eps E] [--seed S]
//! sgs cliques --edges FILE -r 4 [--eps E] [--instances Q] [--seed S]
//! sgs info    --edges FILE
//! sgs rho     --pattern C7
//! ```
//!
//! Patterns: `triangle`, `K<r>`, `C<k>`, `S<k>`, `P<k>`, `paw`, `diamond`,
//! `bull`, `bowtie`, `house`.

use sgs_graph::zoo::parse_pattern;
use sgs_stream::persist::{read_config, read_wal, write_config, Decoder, Encoder, PersistError};
use sgs_stream::EdgeUpdate;
use std::path::{Path, PathBuf};
use std::process::exit;
use subgraph_streams::prelude::*;

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// A numeric flag: `Ok(None)` when absent, an error naming the flag
    /// and its value when present but unparsable (an empty value too).
    fn try_num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(v) = self.get(name) else {
            return Ok(None);
        };
        v.parse()
            .map(Some)
            .map_err(|_| format!("{}: invalid value '{v}'", flag_label(name)))
    }

    /// [`Args::try_num`] with a default; a bad value exits 2.
    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.try_num(name)
            .unwrap_or_else(|e| fail_usage(&e))
            .unwrap_or(default)
    }

    /// A count or size flag that must be at least 1: `--trials` (zero
    /// trials has no estimate), `--shards` and `--wal-block`. Zero is an
    /// error naming the flag, never a silent 1.
    fn try_at_least_one(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.try_num(name)?.unwrap_or(default) {
            0 => Err(format!(
                "{}: invalid value '0' (must be at least 1)",
                flag_label(name)
            )),
            n => Ok(n),
        }
    }

    /// [`Args::try_at_least_one`]; a bad value exits 2.
    fn at_least_one(&self, name: &str, default: usize) -> usize {
        self.try_at_least_one(name, default)
            .unwrap_or_else(|e| fail_usage(&e))
    }

    /// `--eps`: a finite accuracy target above zero (trial counts divide
    /// by `eps²`).
    fn try_eps(&self, default: f64) -> Result<f64, String> {
        let eps = self.try_num("eps")?.unwrap_or(default);
        if eps.is_finite() && eps > 0.0 {
            Ok(eps)
        } else {
            Err(format!(
                "--eps: invalid value '{}' (must be finite and above 0)",
                self.get("eps").unwrap_or_default()
            ))
        }
    }

    /// [`Args::try_eps`]; a bad value exits 2.
    fn eps(&self, default: f64) -> f64 {
        self.try_eps(default).unwrap_or_else(|e| fail_usage(&e))
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == name)
    }
}

fn parse_args(argv: &[String]) -> Args {
    let mut flags = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        if let Some(name) = a.strip_prefix("--") {
            let value = if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                i += 1;
                argv[i].clone()
            } else {
                String::new()
            };
            flags.push((name.to_string(), value));
        } else if let Some(name) = a.strip_prefix('-') {
            let value = if i + 1 < argv.len() && !argv[i + 1].starts_with('-') {
                i += 1;
                argv[i].clone()
            } else {
                String::new()
            };
            flags.push((name.to_string(), value));
        }
        i += 1;
    }
    Args { flags }
}

/// How a parsed flag name was spelled on the command line.
fn flag_label(name: &str) -> String {
    if name.chars().count() == 1 {
        format!("-{name}")
    } else {
        format!("--{name}")
    }
}

fn fail_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(2);
}

fn fail_persist(e: PersistError) -> ! {
    eprintln!("error: {e}");
    exit(2);
}

/// Pull the 1-based `line N` position out of an edge-list parse message
/// so the structured error can carry it as an offset. `None` when the
/// message names no line — never a fabricated "line 0".
fn parse_error_line(msg: &str) -> Option<u64> {
    msg.split("line ").nth(1).and_then(|rest| {
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse().ok()
    })
}

/// Wrap an edge-list parse message as a structured error: the offset is
/// the offending 1-based line when the message names one, otherwise the
/// message is tagged `(unknown line)` instead of claiming line 0.
fn graph_parse_error(path: &Path, msg: String) -> PersistError {
    match parse_error_line(&msg) {
        Some(line) => PersistError::corrupt(line, msg),
        None => PersistError::corrupt(0, format!("{msg} (unknown line)")),
    }
    .located(path)
}

/// Open the `--edges` file and parse it with `read`, routing open
/// failures and malformed lines through [`PersistError`] so every message
/// carries the file path (and for parse errors the offending line as the
/// offset) instead of an opaque bare string. Exits 2 on any error.
fn load_edges<T>(args: &Args, read: impl FnOnce(std::fs::File) -> Result<T, String>) -> T {
    let Some(path) = args.get("edges") else {
        eprintln!("error: --edges FILE is required");
        exit(2);
    };
    let path = Path::new(path);
    let file =
        std::fs::File::open(path).unwrap_or_else(|e| fail_persist(PersistError::io(path, e)));
    read(file).unwrap_or_else(|msg| fail_persist(graph_parse_error(path, msg)))
}

fn load_graph(args: &Args) -> AdjListGraph {
    load_edges(args, |file| {
        sgs_graph::io::read_edge_list(std::io::BufReader::new(file))
    })
}

/// Where a `count` run's stream comes from.
///
/// `--edges FILE` shuffles the file's distinct edges into a stream
/// (seeded with `seed ^ 0x77`, the historical CLI behavior); no
/// adjacency graph is built for it. `--updates FILE` replays a raw update
/// sequence (`u v ±1` per line) in file order — the exact order a serve
/// node ingests, so a batch run over the same file is byte-comparable to
/// the live node's answers.
enum SourceSpec {
    /// `n` and the distinct edges in `sgs_graph::io::read_edges` order,
    /// which is the `edges()` order of the graph `read_edge_list` builds.
    Graph {
        n: usize,
        edges: Vec<Edge>,
    },
    Updates {
        n: usize,
        updates: Vec<EdgeUpdate>,
    },
}

impl SourceSpec {
    /// Edge count the default trial budget is sized from: live edges
    /// (inserts minus deletes) for an update log, `m` for a graph.
    fn live_edges(&self) -> usize {
        match self {
            SourceSpec::Graph { edges, .. } => edges.len(),
            SourceSpec::Updates { updates, .. } => {
                updates.iter().map(|u| u.delta as i64).sum::<i64>().max(0) as usize
            }
        }
    }

    fn insertion_stream(self, seed: u64) -> InsertionStream {
        match self {
            SourceSpec::Graph { n, edges } => InsertionStream::shuffled(n, edges, seed ^ 0x77),
            SourceSpec::Updates { n, updates } => {
                if updates.iter().any(|u| u.delta < 0) {
                    eprintln!(
                        "error: --updates file contains deletions; insertion-model runs \
                         need --turnstile"
                    );
                    exit(2);
                }
                InsertionStream::from_edge_order(n, updates.into_iter().map(|u| u.edge).collect())
            }
        }
    }

    fn turnstile_stream(self, seed: u64) -> TurnstileStream {
        match self {
            // The churn sampler needs `has_edge`, so this builds a graph.
            // Its `edges()` list `edges` in order, as the graph
            // `read_edge_list` builds would, so the stream is unchanged.
            SourceSpec::Graph { n, edges } => TurnstileStream::from_graph_with_churn(
                &AdjListGraph::from_edges(n, edges),
                1.0,
                seed ^ 0x77,
            ),
            SourceSpec::Updates { n, updates } => TurnstileStream::from_updates(n, updates),
        }
    }

    /// The run's feed: the source as a stream in `model`, hash-partitioned
    /// into `shards` shards.
    fn feed(self, model: RouterMode, seed: u64, shards: usize) -> sgs_stream::ShardedFeed {
        match model {
            RouterMode::Insertion => {
                sgs_stream::ShardedFeed::partition(&self.insertion_stream(seed), shards)
            }
            RouterMode::Turnstile => {
                sgs_stream::ShardedFeed::partition(&self.turnstile_stream(seed), shards)
            }
        }
    }
}

/// Parse a `--updates` file: one `u v delta` triple per line (delta `+1`
/// or `-1`), blank lines and `#` comments skipped. Malformed lines are
/// structured errors carrying the 1-based line number.
fn read_updates_file(path: &Path) -> Result<(usize, Vec<EdgeUpdate>), PersistError> {
    let text = std::fs::read_to_string(path).map_err(|e| PersistError::io(path, e))?;
    let mut updates = Vec::new();
    let mut n = 0usize;
    // INGEST's rules: an insertion needs an absent edge, a deletion a
    // live one.
    let mut live: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = (i + 1) as u64;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = |what: &str| {
            PersistError::corrupt(line_no, format!("updates line {line_no}: {what}: '{raw}'"))
                .located(path)
        };
        let mut toks = line.split_whitespace();
        let u: u32 = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("bad vertex id for u"))?;
        let v: u32 = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("bad vertex id for v"))?;
        let delta: i8 = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("delta must be +1 or -1"))?;
        if toks.next().is_some() {
            return Err(bad("expected exactly 'u v delta'"));
        }
        if u == v {
            return Err(bad("self-loop"));
        }
        if delta != 1 && delta != -1 {
            return Err(bad("delta must be +1 or -1"));
        }
        let edge = Edge::new(VertexId(u), VertexId(v));
        let applied = if delta == 1 {
            live.insert(edge.key())
        } else {
            live.remove(&edge.key())
        };
        if !applied {
            let state = if delta == 1 {
                "already present"
            } else {
                "not present"
            };
            return Err(PersistError::corrupt(
                line_no,
                format!("updates line {line_no}: edge {u} {v} {state}"),
            )
            .located(path));
        }
        n = n.max(u.max(v) as usize + 1);
        updates.push(EdgeUpdate { edge, delta });
    }
    Ok((n.max(1), updates))
}

/// Resolve `--edges` / `--updates` into a stream source (exactly one of
/// the two is required).
fn load_source(args: &Args) -> SourceSpec {
    match (args.get("updates"), args.get("edges")) {
        (Some(_), Some(_)) => {
            eprintln!("error: --edges and --updates are mutually exclusive");
            exit(2);
        }
        (Some(path), None) => match read_updates_file(Path::new(path)) {
            Ok((n, updates)) => SourceSpec::Updates { n, updates },
            Err(e) => fail_persist(e),
        },
        (None, _) => {
            let (n, edges) = load_edges(args, sgs_graph::io::read_edges);
            SourceSpec::Graph { n, edges }
        }
    }
}

/// Parameters a checkpointed `count` run persists in the directory's
/// CONFIG blob, so `sgs recover` can rebuild the identical run without
/// re-reading the input graph (the WAL already holds the routed stream).
struct CliConfig {
    /// 0 = insertion, 1 = turnstile.
    model: u8,
    pattern: String,
    trials: u64,
    seed: u64,
    shards: u64,
    block: u64,
    /// 0 = offer, 1 = skip.
    reservoir: u8,
    /// 1 when insertion trials run the relaxed query mix.
    relaxed: u8,
    snapshot_every: u64,
}

fn encode_cli_config(c: &CliConfig) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u8(c.model);
    enc.str(&c.pattern);
    enc.u64(c.trials);
    enc.u64(c.seed);
    enc.u64(c.shards);
    enc.u64(c.block);
    enc.u8(c.reservoir);
    enc.u8(c.relaxed);
    enc.u64(c.snapshot_every);
    enc.into_bytes()
}

fn decode_cli_config(bytes: &[u8]) -> Result<CliConfig, PersistError> {
    let mut dec = Decoder::new(bytes);
    let model = dec.u8("config model")?;
    if model > 1 {
        return Err(dec.corrupt(format!("config model tag {model} is not 0/1")));
    }
    let pattern = dec.str("config pattern")?;
    let trials = dec.u64("config trials")?;
    let seed = dec.u64("config seed")?;
    let shards = dec.u64("config shards")?;
    let block = dec.u64("config block")?;
    let reservoir = dec.u8("config reservoir")?;
    if reservoir > 1 {
        return Err(dec.corrupt(format!("config reservoir tag {reservoir} is not 0/1")));
    }
    let relaxed = dec.u8("config relaxed")?;
    if relaxed > 1 {
        return Err(dec.corrupt(format!("config relaxed flag {relaxed} is not 0/1")));
    }
    let snapshot_every = dec.u64("config snapshot cadence")?;
    dec.finish()?;
    Ok(CliConfig {
        model,
        pattern,
        trials,
        seed,
        shards,
        block,
        reservoir,
        relaxed,
        snapshot_every,
    })
}

/// Strip an inline `#` comment and surrounding whitespace from one
/// `--queries` file line. `None` means the line carries no query at all
/// (blank, or whitespace-only once the comment is gone) and must be
/// skipped — it is NOT an error and NOT a panic.
fn effective_query_line(raw: &str) -> Option<&str> {
    let line = raw.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        None
    } else {
        Some(line)
    }
}

/// Parse one effective `--queries` file line: `PATTERN [trials=N]
/// [seed=S] [reservoir=offer|skip] [relaxed]`. `line_no` is 1-based.
/// Malformed lines come back as structured errors (the caller routes
/// them through the exit-2 [`fail_persist`] path with the file path
/// attached) — never a panic, even for key=value-only lines. In a
/// `turnstile` run `relaxed` and `reservoir=` are refused, as the solo
/// flags are.
fn parse_query_line(
    line: &str,
    line_no: usize,
    base_seed: u64,
    turnstile: bool,
) -> Result<sgs_core::MultiQuerySpec, PersistError> {
    let bad = |what: String| PersistError::corrupt(line_no as u64, what);
    let mut toks = line.split_whitespace();
    let Some(pat_tok) = toks.next() else {
        return Err(bad(format!("queries line {line_no}: no pattern name")));
    };
    let Some(pattern) = parse_pattern(pat_tok) else {
        if pat_tok.contains('=') {
            return Err(bad(format!(
                "queries line {line_no}: line starts with '{pat_tok}' — the first token \
                 must be a pattern name, options come after it"
            )));
        }
        return Err(bad(format!(
            "queries line {line_no}: unknown pattern '{pat_tok}'"
        )));
    };
    let mut spec = sgs_core::MultiQuerySpec {
        pattern,
        trials: 0,
        seed: base_seed.wrapping_add(line_no as u64),
        sampler: SamplerMode::Indexed,
        reservoir: sgs_query::ReservoirMode::Skip,
    };
    for tok in toks {
        if turnstile && (tok == "relaxed" || tok.starts_with("reservoir=")) {
            let why = if tok == "relaxed" {
                "relaxed only applies to insertion runs \
                 (turnstile trials are always relaxed, on ℓ₀-samplers)"
            } else {
                "reservoir= only applies to insertion runs \
                 (turnstile f3 is answered by ℓ₀-samplers, not reservoirs)"
            };
            return Err(bad(format!("queries line {line_no}: {why}")));
        }
        if tok == "relaxed" {
            spec.sampler = SamplerMode::Relaxed;
        } else if let Some(v) = tok.strip_prefix("trials=") {
            spec.trials = v
                .parse()
                .map_err(|_| bad(format!("queries line {line_no}: bad trials '{v}'")))?;
        } else if let Some(v) = tok.strip_prefix("seed=") {
            spec.seed = v
                .parse()
                .map_err(|_| bad(format!("queries line {line_no}: bad seed '{v}'")))?;
        } else if let Some(v) = tok.strip_prefix("reservoir=") {
            spec.reservoir = match v {
                "offer" => sgs_query::ReservoirMode::Offer,
                "skip" => sgs_query::ReservoirMode::Skip,
                other => {
                    return Err(bad(format!(
                        "queries line {line_no}: reservoir must be offer|skip, got '{other}'"
                    )));
                }
            };
        } else {
            return Err(bad(format!(
                "queries line {line_no}: unknown token '{tok}'"
            )));
        }
    }
    Ok(spec)
}

/// Parse `--l0 {dispatch,predicated}`: which ℓ₀-bank feed path
/// turnstile passes run. Bit-identical either way — `dispatch` walks
/// only the survivor-level row prefix, `predicated` replays the
/// full-bank masked scan (the original oracle instruction sequence).
fn parse_l0(args: &Args) -> sgs_query::L0Mode {
    let s = args.get("l0").unwrap_or("dispatch");
    match sgs_query::L0Mode::parse(if s.is_empty() { "dispatch" } else { s }) {
        Some(mode) => mode,
        None => {
            eprintln!("error: --l0 must be 'dispatch' or 'predicated', got '{s}'");
            exit(2);
        }
    }
}

/// The stream model `--turnstile` selects.
fn model_of(args: &Args) -> RouterMode {
    if args.has("turnstile") {
        RouterMode::Turnstile
    } else {
        RouterMode::Insertion
    }
}

/// `sgs count --queries FILE`: serve every query in the list from one
/// shared pass per round, reporting per-query estimates plus aggregate
/// throughput and the admission report's slow-query diagnosis.
fn run_multi_count(args: &Args, queries_path: &str, seed: u64) {
    let src = load_source(args);
    let m = src.live_edges();
    let eps: f64 = args.eps(0.2);
    let shards = args.at_least_one("shards", 1);
    let block: usize = args.num("block", sgs_query::exec::DEFAULT_BLOCK);
    let opts = sgs_query::PassOpts::with_block(block).l0(parse_l0(args));
    let model = model_of(args);
    let turnstile = model == RouterMode::Turnstile;
    let text = std::fs::read_to_string(queries_path)
        .unwrap_or_else(|e| fail_persist(PersistError::io(Path::new(queries_path), e)));
    let mut specs: Vec<sgs_core::MultiQuerySpec> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let Some(line) = effective_query_line(raw) else {
            continue;
        };
        match parse_query_line(line, i + 1, seed, turnstile) {
            Ok(spec) => specs.push(spec),
            Err(e) => fail_persist(e.located(Path::new(queries_path))),
        }
    }
    if specs.is_empty() {
        eprintln!("error: {queries_path}: no queries (every line blank or comment)");
        exit(2);
    }
    for spec in &mut specs {
        let Some(plan) = SamplerPlan::new(&spec.pattern) else {
            eprintln!(
                "error: pattern '{}' has an isolated vertex (no edge cover)",
                spec.pattern.name()
            );
            exit(2);
        };
        if spec.trials == 0 {
            spec.trials = sgs_core::fgp::practical_trials(m, plan.rho(), eps, 1.0).min(2_000_000);
        }
    }
    // Every query's trials are resident at once in the shared passes.
    let total = specs
        .iter()
        .try_fold(0u64, |acc, s| acc.checked_add(s.trials as u64))
        .unwrap_or(u64::MAX);
    if let Err(e) = sgs_core::fgp::admit_trials(total, turnstile, sgs_query::available_memory()) {
        fail_usage(&format!("{queries_path}: {e}"));
    }
    let policy = {
        let p = sgs_query::ExecPolicy::from_env();
        if args.has("pin") {
            p.with_pin()
        } else {
            p
        }
    };
    let engine = if args.has("broadcast") {
        sgs_query::Engine::Ring(sgs_query::BroadcastOpts::with_policy(policy), &mut [])
    } else {
        sgs_query::Engine::Sharded(policy)
    };
    let mut arena = sgs_query::RouterArena::new();
    let t0 = std::time::Instant::now();
    let feed = src.feed(model, seed, shards);
    let (ests, admission) = sgs_core::fgp::estimate(&specs, model, &feed, &mut arena, opts, engine)
        .expect("plans validated above");
    let elapsed = t0.elapsed();
    // --bits appends the exact f64 so answers can be compared byte-for-
    // byte against a live `sgs serve` node's COUNT replies.
    let bits = args.has("bits");
    for (spec, est) in specs.iter().zip(&ests) {
        println!(
            "#{} ≈ {:.1}   (hits {}/{}, seed {}){}",
            spec.pattern.name(),
            est.estimate,
            est.hits,
            est.trials,
            spec.seed,
            bits_suffix(bits, est.estimate),
        );
    }
    let n = specs.len();
    let qps = n as f64 / elapsed.as_secs_f64();
    println!(
        "served {n} quer{} in {:.1} ms over {} shared pass{} ({} shard{}): {qps:.0} answers/sec",
        if n == 1 { "y" } else { "ies" },
        elapsed.as_secs_f64() * 1e3,
        admission.rounds.len(),
        if admission.rounds.len() == 1 {
            ""
        } else {
            "es"
        },
        shards,
        if shards == 1 { "" } else { "s" },
    );
    if let Some(slow) = admission.slowest_job() {
        let js = &admission.jobs[slow as usize];
        println!(
            "  slowest query: #{} ({}, {} rounds, {:.1} ms critical-path share)",
            slow,
            specs[slow as usize].pattern.name(),
            js.rounds,
            js.pass_nanos as f64 / 1e6,
        );
    }
    if !admission.stalls.is_empty() {
        println!(
            "  {} ring stall{} recorded (slowest consumer {})",
            admission.stalls.len(),
            if admission.stalls.len() == 1 { "" } else { "s" },
            admission
                .stalls
                .iter()
                .max_by_key(|s| s.blocked_ns)
                .map(|s| s.consumer)
                .unwrap_or(0),
        );
    }
}

/// The ` bits=<hex>` suffix `--bits` appends to estimate lines: the
/// exact IEEE-754 bit pattern, for byte-identity checks against a live
/// `sgs serve` node.
fn bits_suffix(enabled: bool, estimate: f64) -> String {
    if enabled {
        format!(" bits={:016x}", estimate.to_bits())
    } else {
        String::new()
    }
}

fn need_pattern(args: &Args) -> Pattern {
    let Some(ps) = args.get("pattern") else {
        eprintln!("error: --pattern NAME is required");
        exit(2);
    };
    match parse_pattern(ps) {
        Some(p) => p,
        None => {
            eprintln!("error: unknown pattern '{ps}'");
            exit(2);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        eprintln!("usage: sgs <count|serve|recover|search|cliques|info|rho> [flags]");
        exit(2);
    };
    let args = parse_args(&argv[1..]);
    let seed: u64 = args.num("seed", 1);

    match cmd.as_str() {
        "count" => {
            // --queries FILE serves a whole query list (one query per
            // line: PATTERN [trials=N] [seed=S] [reservoir=offer|skip]
            // [relaxed]) from ONE shared pass per round — the
            // multiplexed serving path. Each answer is byte-identical
            // to the equivalent solo `sgs count` invocation.
            // Durable runs are solo sharded runs: refuse the shapes that
            // would drop the directory before reading any input.
            if args.has("checkpoint-dir") {
                for other in ["queries", "broadcast"] {
                    if args.has(other) {
                        fail_usage(&format!(
                            "--checkpoint-dir does not combine with --{other} \
                             (checkpoint a solo run without it)"
                        ));
                    }
                }
            }
            if let Some(qpath) = args.get("queries") {
                let qpath = qpath.to_string();
                run_multi_count(&args, &qpath, seed);
                return;
            }
            let pattern = need_pattern(&args);
            let src = load_source(&args);
            let m = src.live_edges();
            let eps: f64 = args.eps(0.2);
            let plan = match SamplerPlan::new(&pattern) {
                Some(p) => p,
                None => {
                    eprintln!("error: pattern has an isolated vertex (no edge cover)");
                    exit(2);
                }
            };
            let default_trials =
                sgs_core::fgp::practical_trials(m, plan.rho(), eps, 1.0).min(2_000_000);
            let trials = args.at_least_one("trials", default_trials);
            // --shards N fans the stream out over N hash-partitioned
            // feed shards (one router + worker per shard); answers are
            // merged exactly, so the estimate is bit-identical to the
            // single-stream run with the same seed.
            let shards = args.at_least_one("shards", 1);
            // --block B feeds each pass in blocks of B updates (batched
            // index probes, ℓ₀ lane loops); 0 forces the scalar
            // per-update path. Bit-identical either way — the knob only
            // changes throughput. Default: sgs_query::exec::DEFAULT_BLOCK.
            let block: usize = args.num("block", sgs_query::exec::DEFAULT_BLOCK);
            // --reservoir {offer,skip} picks the relaxed-f3 reservoir
            // acceptance scheme on insertion passes: `skip` (default)
            // draws one coin per acceptance via the exact skip-ahead
            // inverse transform, `offer` replays the per-offer scalar
            // oracle. Distribution-equivalent, not byte-identical.
            let reservoir = match args.get("reservoir").unwrap_or("skip") {
                "offer" => sgs_query::ReservoirMode::Offer,
                "skip" | "" => sgs_query::ReservoirMode::Skip,
                other => {
                    eprintln!("error: --reservoir must be 'offer' or 'skip', got '{other}'");
                    exit(2);
                }
            };
            // --relaxed runs the insertion trials on the relaxed query
            // mix (RandomNeighbor instead of arrival-order watchers) —
            // the workload whose passes the reservoir knob accelerates.
            let sampler = if args.has("relaxed") {
                SamplerMode::Relaxed
            } else {
                SamplerMode::Indexed
            };
            let opts = sgs_query::PassOpts::with_block(block)
                .reservoir(reservoir)
                .l0(parse_l0(&args));
            // SGS_SHARD_THREADS=0|1 forces shard workers serial or
            // threaded (unset = auto: threads when the host has >1
            // core); --pin additionally asks for one-core-per-worker
            // affinity (Linux, best-effort). Neither changes answers —
            // the env var is parsed only here, at the CLI boundary, and
            // handed down as an explicit ExecPolicy.
            let policy = {
                let p = sgs_query::ExecPolicy::from_env();
                if args.has("pin") {
                    p.with_pin()
                } else {
                    p
                }
            };
            let model = model_of(&args);
            let turnstile = model == RouterMode::Turnstile;
            // Every trial's bank is resident at once: refuse a count the
            // host cannot hold before anything is allocated.
            if let Err(e) =
                sgs_core::fgp::admit_trials(trials as u64, turnstile, sgs_query::available_memory())
            {
                fail_usage(&format!("--trials: {e}"));
            }
            // The one estimate every surface below makes.
            let spec = sgs_core::MultiQuerySpec {
                pattern: pattern.clone(),
                trials,
                seed,
                sampler,
                reservoir,
            };
            let mut arena = sgs_query::RouterArena::new();
            // --broadcast runs the serving path: ONE ingest per logical
            // pass fans out over a bounded ring to the shard routers
            // plus side consumers (TRIÈST baseline, exact CSR oracle, a
            // raw pass counter, and --consumers N extra raw counters),
            // all riding the estimator's first pass — no private
            // replays. The estimate stays bit-identical.
            if args.has("broadcast") {
                let extra_raw: usize = args.num("consumers", 0);
                if turnstile && (args.has("relaxed") || args.has("reservoir")) {
                    eprintln!(
                        "error: --relaxed/--reservoir only apply to insertion runs \
                         (turnstile trials are always relaxed, on ℓ₀-samplers)"
                    );
                    exit(2);
                }
                let consumers = sgs_core::fgp::ConsumerSet {
                    triest_capacity: if turnstile {
                        None
                    } else {
                        Some(1024.min(m.max(2)))
                    },
                    exact: true,
                    extra_raw,
                };
                let bcast = sgs_query::BroadcastOpts::with_policy(policy);
                let feed = src.feed(model, seed, shards);
                let bundle = sgs_core::fgp::estimate_broadcast(
                    &spec, model, &feed, &mut arena, opts, consumers, bcast,
                )
                .expect("plan validated above");
                let est = &bundle.estimate;
                println!(
                    "#{} ≈ {:.1}   (hits {}/{}, rho={}, {} passes, m={}, {} shard{}, broadcast){}",
                    pattern.name(),
                    est.estimate,
                    est.hits,
                    est.trials,
                    plan.rho(),
                    est.report.passes,
                    m,
                    shards,
                    if shards == 1 { "" } else { "s" },
                    bits_suffix(args.has("bits"), est.estimate),
                );
                if let Some(t) = &bundle.triest {
                    println!("  triest baseline ≈ {:.1} (same ingest)", t.estimate);
                }
                if let Some(x) = bundle.exact {
                    println!("  exact (CSR oracle, same ingest) = {x}");
                }
                println!(
                    "  raw counter: {} updates; {} extra consumer{} attached",
                    bundle.raw_updates,
                    extra_raw,
                    if extra_raw == 1 { "" } else { "s" },
                );
                return;
            }
            // --checkpoint-dir D makes the run durable: the routed
            // stream is sealed into a write-ahead log in D before
            // estimation starts, and estimator state is snapshotted
            // every --snapshot-every delivery blocks (0 = WAL only).
            // A killed run resumes with `sgs recover D` to the
            // byte-identical estimate the uninterrupted run produces.
            if let Some(dirs) = args.get("checkpoint-dir") {
                if turnstile && (args.has("relaxed") || args.has("reservoir")) {
                    eprintln!(
                        "error: --relaxed/--reservoir only apply to insertion runs \
                         (turnstile trials are always relaxed, on ℓ₀-samplers)"
                    );
                    exit(2);
                }
                let dir = PathBuf::from(dirs);
                let snapshot_every: u64 =
                    args.num("snapshot-every", sgs_query::DEFAULT_SNAPSHOT_EVERY);
                // --wal-block W sets the WAL record granularity (updates
                // per delivery block); snapshots land every
                // `snapshot_every` such blocks, so small streams want a
                // small W to see any snapshot at all.
                let wal_block = args.at_least_one("wal-block", sgs_query::DEFAULT_CHECKPOINT_CHUNK);
                let feed = src.feed(model, seed, shards);
                let cfg = CliConfig {
                    model: turnstile as u8,
                    pattern: args.get("pattern").unwrap_or_default().to_string(),
                    trials: trials as u64,
                    seed,
                    shards: shards as u64,
                    block: block as u64,
                    reservoir: match reservoir {
                        sgs_query::ReservoirMode::Offer => 0,
                        sgs_query::ReservoirMode::Skip => 1,
                    },
                    relaxed: args.has("relaxed") as u8,
                    snapshot_every,
                };
                let run: Result<_, PersistError> = (|| {
                    let mut session = sgs_query::CheckpointSession::create(
                        &dir,
                        &feed,
                        snapshot_every,
                        wal_block,
                    )?;
                    write_config(&dir, &encode_cli_config(&cfg))?;
                    let est = sgs_core::fgp::estimate_checkpointed(
                        &spec,
                        model,
                        &feed,
                        &mut arena,
                        opts,
                        &mut session,
                    )?;
                    Ok((est, session.snapshots_written()))
                })();
                let (est, snapshots) = match run {
                    Ok((e, s)) => (e.expect("plan validated above"), s),
                    Err(e) => fail_persist(e),
                };
                println!(
                    "#{} ≈ {:.1}   (hits {}/{}, rho={}, {} passes, m={}, {} shard{}){}",
                    pattern.name(),
                    est.estimate,
                    est.hits,
                    est.trials,
                    plan.rho(),
                    est.report.passes,
                    m,
                    shards,
                    if shards == 1 { "" } else { "s" },
                    bits_suffix(args.has("bits"), est.estimate),
                );
                println!(
                    "  checkpointed: WAL + {snapshots} snapshot{} in {} \
                     (recover with `sgs recover {}`)",
                    if snapshots == 1 { "" } else { "s" },
                    dir.display(),
                    dir.display(),
                );
                return;
            }
            if turnstile {
                // Turnstile trials always run the relaxed query mix on
                // ℓ₀-samplers (Definition 10 has no indexed f3 and no
                // reservoirs), so --relaxed and --reservoir would
                // silently change nothing the flags promise: reject
                // them loudly rather than drop them.
                if args.has("relaxed") {
                    eprintln!(
                        "error: --relaxed only applies to insertion runs \
                         (turnstile trials are always relaxed, on ℓ₀-samplers)"
                    );
                    exit(2);
                }
                if args.has("reservoir") {
                    eprintln!(
                        "error: --reservoir only applies to insertion runs \
                         (turnstile f3 is answered by ℓ₀-samplers, not reservoirs)"
                    );
                    exit(2);
                }
            }
            let feed = src.feed(model, seed, shards);
            let engine = sgs_query::Engine::Sharded(policy);
            let (mut ests, _) =
                sgs_core::fgp::estimate(&[spec], model, &feed, &mut arena, opts, engine)
                    .expect("plan validated above");
            let est = ests.pop().expect("one spec, one estimate");
            println!(
                "#{} ≈ {:.1}   (hits {}/{}, rho={}, {} passes, m={}, {} shard{}, block {}, reservoir {}){}",
                pattern.name(),
                est.estimate,
                est.hits,
                est.trials,
                plan.rho(),
                est.report.passes,
                m,
                shards,
                if shards == 1 { "" } else { "s" },
                if block <= 1 {
                    "scalar".to_string()
                } else {
                    block.to_string()
                },
                if turnstile {
                    "l0".to_string()
                } else {
                    format!("{reservoir:?}").to_lowercase()
                },
                bits_suffix(args.has("bits"), est.estimate),
            );
        }
        "serve" => {
            // `sgs serve DIR` — a long-lived node: WAL-backed ingest
            // through an open broadcast ring, a persistent shard worker
            // pool, and a line protocol (INGEST/COUNT/SNAPSHOT/STAT/
            // QUIT) over TCP and/or a Unix socket. If DIR already holds
            // a serve log the node resumes from it (its persisted
            // CONFIG wins over flags); QUIT shuts down gracefully and
            // a later `sgs serve DIR` continues where it left off.
            let Some(dirs) = argv
                .get(1)
                .filter(|a| !a.starts_with('-'))
                .cloned()
                .or_else(|| args.get("dir").map(str::to_string))
            else {
                eprintln!("usage: sgs serve DIR [--listen ADDR] [--unix PATH] [flags]");
                exit(2);
            };
            let dir = PathBuf::from(&dirs);
            // Query options are checked before the directory is opened,
            // so a bad value exits 2 without leaving a node behind.
            let pass =
                sgs_query::PassOpts::with_block(args.num("block", sgs_query::exec::DEFAULT_BLOCK))
                    .l0(parse_l0(&args));
            let eps = args.eps(0.2);
            let defaults = sgs_query::ServeConfig::default();
            let flag_cfg = sgs_query::ServeConfig {
                shards: args.at_least_one("shards", 1),
                wal_block: args.at_least_one("wal-block", sgs_query::DEFAULT_SERVE_BLOCK),
                snapshot_every: args.num("snapshot-every", defaults.snapshot_every),
                segment_bytes: defaults.segment_bytes,
                seed,
            };
            let cfg = match read_config(&dir) {
                Ok(Some(bytes)) if bytes.first() == Some(&sgs_query::SERVE_CONFIG_TAG) => {
                    let persisted = sgs_query::decode_serve_config(&bytes)
                        .unwrap_or_else(|e| fail_persist(e.located(dir.join("CONFIG"))));
                    println!(
                        "resuming with persisted config: {} shard{}, wal-block {}",
                        persisted.shards,
                        if persisted.shards == 1 { "" } else { "s" },
                        persisted.wal_block,
                    );
                    persisted
                }
                Ok(Some(_)) => {
                    eprintln!(
                        "error: {} holds a `sgs count --checkpoint-dir` log, not a serve \
                         directory (recover it with `sgs recover {}`)",
                        dir.display(),
                        dir.display(),
                    );
                    exit(2);
                }
                Ok(None) => flag_cfg,
                Err(e) => fail_persist(e),
            };
            let policy = {
                let p = sgs_query::ExecPolicy::from_env();
                if args.has("pin") {
                    p.with_pin()
                } else {
                    p
                }
            };
            let node =
                sgs_query::ServerNode::open(&dir, cfg, policy).unwrap_or_else(|e| fail_persist(e));
            if let Some(t) = node.truncation() {
                eprintln!("warning: {t}");
            }
            if node.recovered_blocks() > 0 {
                println!(
                    "recovered {} update{} in {} block{} from {}",
                    node.ingested(),
                    if node.ingested() == 1 { "" } else { "s" },
                    node.recovered_blocks(),
                    if node.recovered_blocks() == 1 {
                        ""
                    } else {
                        "s"
                    },
                    dir.display(),
                );
            }
            let mut listeners = sgs_core::Listeners::default();
            #[cfg(unix)]
            if let Some(path) = args.get("unix").filter(|p| !p.is_empty()) {
                let path = Path::new(path);
                // A stale socket file (kill -9) would make bind fail.
                let _ = std::fs::remove_file(path);
                let l = std::os::unix::net::UnixListener::bind(path)
                    .unwrap_or_else(|e| fail_persist(PersistError::io(path, e)));
                println!("LISTENING unix:{}", path.display());
                listeners.unix = Some(l);
            }
            #[cfg(unix)]
            let unix_only = listeners.unix.is_some() && !args.has("listen");
            #[cfg(not(unix))]
            let unix_only = false;
            if !unix_only {
                let addr = args
                    .get("listen")
                    .filter(|a| !a.is_empty())
                    .unwrap_or("127.0.0.1:0");
                let l = std::net::TcpListener::bind(addr).unwrap_or_else(|e| {
                    eprintln!("error: cannot listen on {addr}: {e}");
                    exit(2);
                });
                let local = l.local_addr().expect("bound TCP socket has an address");
                println!("LISTENING {local}");
                listeners.tcp = Some(l);
            }
            // Flush so a parent process waiting on the LISTENING line
            // (the protocol tests, the CI smoke) can proceed.
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            let serve_opts = sgs_core::ServeOptions { policy, pass, eps };
            let snap = sgs_core::run_server(node, listeners, serve_opts)
                .unwrap_or_else(|e| fail_persist(e));
            println!(
                "shutdown: {} update{} in {} block{}, {} quer{} served, {} snapshot{} \
                 (resume with `sgs serve {}`)",
                snap.updates,
                if snap.updates == 1 { "" } else { "s" },
                snap.blocks,
                if snap.blocks == 1 { "" } else { "s" },
                snap.served,
                if snap.served == 1 { "y" } else { "ies" },
                snap.snapshots,
                if snap.snapshots == 1 { "" } else { "s" },
                dir.display(),
            );
        }
        "recover" => {
            // `sgs recover DIR` — resume a killed checkpointed run.
            // The WAL already holds the routed stream and CONFIG holds
            // the run parameters, so no --edges / --pattern is needed;
            // the answer is byte-identical to the uninterrupted run.
            let Some(dirs) = argv
                .get(1)
                .filter(|a| !a.starts_with('-'))
                .cloned()
                .or_else(|| args.get("dir").map(str::to_string))
            else {
                eprintln!("usage: sgs recover DIR");
                exit(2);
            };
            let dir = PathBuf::from(&dirs);
            let cfg_bytes = match read_config(&dir) {
                Ok(Some(b)) => b,
                Ok(None) => {
                    eprintln!(
                        "error: {}: no CONFIG found (was this directory created by \
                         `sgs count --checkpoint-dir`?)",
                        dir.display()
                    );
                    exit(2);
                }
                Err(e) => fail_persist(e),
            };
            // A serve directory (CONFIG leads with the serve tag) is
            // inspected, not re-run: report what survives and point at
            // `sgs serve DIR`, which resumes ingest and serving.
            if cfg_bytes.first() == Some(&sgs_query::SERVE_CONFIG_TAG) {
                let scfg = sgs_query::decode_serve_config(&cfg_bytes)
                    .unwrap_or_else(|e| fail_persist(e.located(dir.join("CONFIG"))));
                let recovered = read_wal(&dir).unwrap_or_else(|e| fail_persist(e));
                if let Some(t) = &recovered.truncation {
                    eprintln!("warning: {t}");
                }
                let updates: usize = recovered.blocks.iter().map(Vec::len).sum();
                println!(
                    "serve log: {} update{} in {} block{} ({} shard{}, {})",
                    updates,
                    if updates == 1 { "" } else { "s" },
                    recovered.blocks.len(),
                    if recovered.blocks.len() == 1 { "" } else { "s" },
                    scfg.shards,
                    if scfg.shards == 1 { "" } else { "s" },
                    if recovered.meta.is_some() {
                        "sealed by graceful shutdown"
                    } else {
                        "unsealed: the node was killed mid-ingest"
                    },
                );
                match sgs_query::read_serve_snapshot(&dir) {
                    Ok(Some((seq, snap))) => println!(
                        "latest snapshot at block {seq}: {} blocks, \
                         {} quer{} served, {} deletion{}",
                        snap.blocks,
                        snap.served,
                        if snap.served == 1 { "y" } else { "ies" },
                        snap.deletions,
                        if snap.deletions == 1 { "" } else { "s" },
                    ),
                    Ok(None) => println!("no snapshot yet (WAL-only recovery)"),
                    Err(e) => fail_persist(e),
                }
                println!(
                    "restart with `sgs serve {}` to resume serving",
                    dir.display()
                );
                return;
            }
            let cfg = decode_cli_config(&cfg_bytes)
                .unwrap_or_else(|e| fail_persist(e.located(dir.join("CONFIG"))));
            let Some(pattern) = parse_pattern(&cfg.pattern) else {
                eprintln!("error: CONFIG names unknown pattern '{}'", cfg.pattern);
                exit(2);
            };
            let plan = match SamplerPlan::new(&pattern) {
                Some(p) => p,
                None => {
                    eprintln!("error: pattern has an isolated vertex (no edge cover)");
                    exit(2);
                }
            };
            let (mut session, feed) =
                sgs_query::CheckpointSession::resume(&dir, cfg.snapshot_every)
                    .unwrap_or_else(|e| fail_persist(e));
            if let Some(t) = session.truncation_report() {
                eprintln!("warning: {t}");
            }
            if session.has_resume_state() {
                println!(
                    "resuming from snapshot: {} delivery blocks already done",
                    session.blocks_processed()
                );
            } else {
                println!("no snapshot found; replaying the run from the sealed WAL");
            }
            let opts = sgs_query::PassOpts::with_block(cfg.block as usize).reservoir(
                if cfg.reservoir == 0 {
                    sgs_query::ReservoirMode::Offer
                } else {
                    sgs_query::ReservoirMode::Skip
                },
            );
            let spec = sgs_core::MultiQuerySpec {
                pattern: pattern.clone(),
                trials: cfg.trials as usize,
                seed: cfg.seed,
                sampler: if cfg.relaxed == 1 {
                    SamplerMode::Relaxed
                } else {
                    SamplerMode::Indexed
                },
                reservoir: opts.reservoir,
            };
            let model = if cfg.model == 1 {
                RouterMode::Turnstile
            } else {
                RouterMode::Insertion
            };
            let mut arena = sgs_query::RouterArena::new();
            let est = sgs_core::fgp::estimate_checkpointed(
                &spec,
                model,
                &feed,
                &mut arena,
                opts,
                &mut session,
            )
            .unwrap_or_else(|e| fail_persist(e))
            .expect("plan validated above");
            println!(
                "#{} ≈ {:.1}   (hits {}/{}, rho={}, {} passes, m={}, {} shard{}, recovered){}",
                pattern.name(),
                est.estimate,
                est.hits,
                est.trials,
                plan.rho(),
                est.report.passes,
                est.m,
                feed.num_shards(),
                if feed.num_shards() == 1 { "" } else { "s" },
                bits_suffix(args.has("bits"), est.estimate),
            );
        }
        "search" => {
            let pattern = need_pattern(&args);
            let g = load_graph(&args);
            let eps: f64 = args.eps(0.25);
            let cap: usize = args.num("max-trials", 1_000_000);
            let s = InsertionStream::from_graph(&g, seed ^ 0x77);
            let res = sgs_core::fgp::search_count_insertion(&pattern, &s, eps, seed, cap)
                .expect("coverable pattern");
            println!(
                "#{} ≈ {:.1}   ({} search rounds, {} total passes, {} total trials)",
                pattern.name(),
                res.estimate,
                res.rounds,
                res.total_passes,
                res.total_trials
            );
        }
        "cliques" => {
            let g = load_graph(&args);
            let r: usize = args.num("r", 3);
            let eps: f64 = args.eps(0.3);
            let instances: usize = args.num("instances", 5);
            let lambda = sgs_graph::degeneracy::degeneracy(&g);
            let s = InsertionStream::from_graph(&g, seed ^ 0x77);
            let template = ErsParams::practical(r, lambda.max(1), eps, 1.0);
            let res = sgs_core::ers::search_count_cliques_insertion(&template, &s, instances, seed);
            println!(
                "#K{r} ≈ {:.1}   (lambda={lambda}, {} rounds, {} total passes)",
                res.estimate, res.rounds, res.total_passes
            );
        }
        "info" => {
            let g = load_graph(&args);
            let cd = sgs_graph::degeneracy::CoreDecomposition::compute(&g);
            println!("n = {}", g.num_vertices());
            println!("m = {}", g.num_edges());
            println!("max degree = {}", g.max_degree());
            println!("degeneracy = {}", cd.degeneracy);
            println!(
                "triangles (exact) = {}",
                sgs_graph::exact::triangles::count_triangles(&g)
            );
        }
        "rho" => {
            let pattern = need_pattern(&args);
            match sgs_graph::decompose::decompose(&pattern) {
                Some(d) => {
                    println!("pattern: {}", pattern.name());
                    println!("rho(H) = {}", d.rho);
                    println!("f_T(H) = {}", d.tuple_multiplicity);
                    println!("decomposition pieces: {:?}", d.pieces);
                }
                None => println!("no edge cover (isolated vertex): rho = infinity"),
            }
        }
        other => {
            eprintln!("unknown command '{other}'");
            exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_line_reports_one_based_or_none() {
        assert_eq!(parse_error_line("bad token at line 17: 'x'"), Some(17));
        assert_eq!(parse_error_line("line 1: not an integer"), Some(1));
        // A malformed message naming no line must NOT become "line 0".
        assert_eq!(parse_error_line("completely malformed message"), None);
        assert_eq!(parse_error_line("line without digits"), None);
    }

    #[test]
    fn graph_parse_error_marks_unknown_lines_explicitly() {
        let with_line = graph_parse_error(Path::new("edges.txt"), "junk at line 3".into());
        assert!(with_line.to_string().contains('3'), "{with_line}");
        let without = graph_parse_error(Path::new("edges.txt"), "truncated file".into());
        let msg = without.to_string();
        assert!(msg.contains("unknown line"), "{msg}");
        assert!(!msg.contains("line 0"), "{msg}");
    }

    #[test]
    fn effective_query_line_skips_comment_only_lines() {
        // Whitespace-only after an inline comment: skipped, never parsed
        // (this input used to reach the parser's blank-line panic path).
        assert_eq!(effective_query_line("   # just a comment"), None);
        assert_eq!(effective_query_line(""), None);
        assert_eq!(effective_query_line("   \t "), None);
        assert_eq!(
            effective_query_line("triangle # trailing note"),
            Some("triangle")
        );
        assert_eq!(effective_query_line("K4 trials=5#x"), Some("K4 trials=5"));
    }

    #[test]
    fn parse_query_line_returns_structured_errors_not_panics() {
        // Key=value-only line: a structured error pointing at the line.
        let err = parse_query_line("trials=5", 4, 1, false).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 4"), "{msg}");
        assert!(msg.contains("pattern"), "{msg}");
        // Defensive: an empty effective line is an error, not a panic.
        assert!(parse_query_line("", 2, 1, false).is_err());
        assert!(parse_query_line("nosuchpattern", 1, 1, false).is_err());
        assert!(parse_query_line("triangle trials=abc", 1, 1, false).is_err());
        assert!(parse_query_line("triangle reservoir=bogus", 1, 1, false).is_err());
        // And the happy path still parses.
        let spec =
            parse_query_line("K4 trials=7 seed=3 reservoir=offer relaxed", 2, 10, false).unwrap();
        assert_eq!(spec.trials, 7);
        assert_eq!(spec.seed, 3);
        assert!(matches!(spec.reservoir, sgs_query::ReservoirMode::Offer));
        assert!(matches!(spec.sampler, SamplerMode::Relaxed));
        // Default seed derives from the 1-based line number.
        let spec = parse_query_line("triangle", 5, 100, false).unwrap();
        assert_eq!(spec.seed, 105);
        // A turnstile run refuses the insertion-only options by line.
        for line in ["triangle relaxed", "triangle reservoir=skip"] {
            let msg = parse_query_line(line, 3, 1, true).unwrap_err().to_string();
            assert!(
                msg.contains("line 3") && msg.contains("insertion runs"),
                "{msg}"
            );
        }
        assert!(parse_query_line("triangle trials=9", 3, 1, true).is_ok());
    }

    #[test]
    fn updates_file_round_trips_and_rejects_malformed_lines() {
        let dir = std::env::temp_dir().join("sgs_cli_updates_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("updates.txt");
        std::fs::write(&path, "# header\n0 1 +1\n1 2 +1  # inline\n0 1 -1\n\n").unwrap();
        let (n, updates) = read_updates_file(&path).unwrap();
        assert_eq!(n, 3);
        assert_eq!(updates.len(), 3);
        assert_eq!(updates[2].delta, -1);
        std::fs::write(&path, "0 1 +1\n0 0 +1\n").unwrap();
        assert!(read_updates_file(&path)
            .unwrap_err()
            .to_string()
            .contains("self-loop"));
        std::fs::write(&path, "0 1 2\n").unwrap();
        assert!(read_updates_file(&path).is_err());
        std::fs::write(&path, "0 1\n").unwrap();
        assert!(read_updates_file(&path).is_err());
        // INGEST's rules: no second insertion of a live edge (either
        // orientation), no deletion of an absent one.
        std::fs::write(&path, "0 1 1\n0 1 1\n1 2 1\n0 2 1\n").unwrap();
        let err = read_updates_file(&path).unwrap_err().to_string();
        assert!(
            err.contains("updates line 2: edge 0 1 already present"),
            "{err}"
        );
        std::fs::write(&path, "0 1 1\n1 2 1\n0 2 1\n3 4 -1\n").unwrap();
        let err = read_updates_file(&path).unwrap_err().to_string();
        assert!(
            err.contains("updates line 4: edge 3 4 not present"),
            "{err}"
        );
        std::fs::write(&path, "0 1 1\n1 0 -1\n0 1 1\n").unwrap();
        assert_eq!(read_updates_file(&path).unwrap().1.len(), 3);
    }

    fn args_of(argv: &[&str]) -> Args {
        parse_args(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn numeric_flags_reject_unparsable_values_by_name() {
        let args = args_of(&["--trials", "abc", "--shards", "two", "--seed", "7"]);
        assert_eq!(
            args.try_num::<usize>("trials"),
            Err("--trials: invalid value 'abc'".to_string())
        );
        assert_eq!(
            args.try_num::<usize>("shards"),
            Err("--shards: invalid value 'two'".to_string())
        );
        assert_eq!(args.try_num::<u64>("seed"), Ok(Some(7)));
        assert_eq!(args.try_num::<usize>("block"), Ok(None));
        // A flag given without its value is an error, not the default.
        let args = args_of(&["--trials", "--bits"]);
        assert_eq!(
            args.try_num::<usize>("trials"),
            Err("--trials: invalid value ''".to_string())
        );
        assert_eq!(
            args_of(&["-r", "x"]).try_num::<usize>("r"),
            Err("-r: invalid value 'x'".to_string())
        );
        assert_eq!(
            args_of(&["--seed", "-5"]).try_num::<u64>("seed"),
            Err("--seed: invalid value '-5'".to_string())
        );
    }

    #[test]
    fn trials_must_be_at_least_one() {
        let trials = |argv: &[&str]| args_of(argv).try_at_least_one("trials", 40);
        assert_eq!(trials(&[]), Ok(40));
        assert_eq!(trials(&["--trials", "600"]), Ok(600));
        let err = trials(&["--trials", "0"]).unwrap_err();
        assert!(err.starts_with("--trials: invalid value '0'"), "{err}");
        let err = trials(&["--trials", "abc"]).unwrap_err();
        assert_eq!(err, "--trials: invalid value 'abc'");
    }

    #[test]
    fn size_flags_refuse_zero_by_name() {
        for flag in ["shards", "wal-block"] {
            let dash = format!("--{flag}");
            assert_eq!(args_of(&[]).try_at_least_one(flag, 7), Ok(7), "{flag}");
            assert_eq!(
                args_of(&[&dash, "3"]).try_at_least_one(flag, 7),
                Ok(3),
                "{flag}"
            );
            assert_eq!(
                args_of(&[&dash, "0"]).try_at_least_one(flag, 7),
                Err(format!("--{flag}: invalid value '0' (must be at least 1)"))
            );
            assert_eq!(
                args_of(&[&dash, "-1"]).try_at_least_one(flag, 7),
                Err(format!("--{flag}: invalid value '-1'"))
            );
        }
    }

    #[test]
    fn eps_must_be_finite_and_positive() {
        assert_eq!(args_of(&[]).try_eps(0.2), Ok(0.2));
        assert_eq!(args_of(&["--eps", "0.05"]).try_eps(0.2), Ok(0.05));
        assert_eq!(args_of(&["--eps", "3"]).try_eps(0.2), Ok(3.0));
        for bad in ["0", "-0", "-0.1", "NaN", "inf", "-inf", "abc", ""] {
            let err = args_of(&["--eps", bad]).try_eps(0.2).unwrap_err();
            assert!(
                err.starts_with(&format!("--eps: invalid value '{bad}'")),
                "{bad}: {err}"
            );
        }
    }
}
