//! The `sgs serve` line protocol: a long-lived node behind a socket.
//!
//! One [`ServerNode`] (WAL-backed ingest, a persistent
//! shard worker pool) serves many concurrent client sessions over TCP
//! and/or a Unix socket. Each connection speaks a line protocol:
//!
//! ```text
//! INGEST u v delta          -> OK <position> | ERR <reason>
//! COUNT <pattern> [trials=N] [seed=S] [reservoir=offer|skip]
//!       [relaxed] [turnstile]
//!                           -> OK #<name> ≈ <est> (hits H/T, seed S)
//!                                prefix=<updates> bits=<hex f64>
//! SNAPSHOT                  -> OK snapshot seq=<blocks>
//! STAT                      -> OK updates=... blocks=... ...
//! QUIT                      -> BYE  (graceful node shutdown)
//! ```
//!
//! Client threads parse lines into [`Request`]s and forward them with a
//! private reply channel to the single node loop, which drains the queue
//! in arrival order. Consecutive COUNTs in one drained batch share one
//! feed cut and one [`crate::fgp::estimate`] call per model: a lone
//! query runs on the node's persistent runtime
//! ([`sgs_query::Engine::Runtime`]), a batch is admission-multiplexed
//! through one shared pass per round on scoped shard threads
//! ([`sgs_query::Engine::Sharded`]). Both are byte-identical to the
//! equivalent solo batch `sgs count` over the same ingested prefix — the
//! reply's `bits=` field is the exact `f64` so clients can check.
//!
//! `QUIT` shuts the node down gracefully: remaining queued requests are
//! refused, the WAL seals, and a final snapshot lands, so a later
//! `sgs serve` (or `sgs recover`) resumes from the directory. The node
//! leaves its loop only after the quitting session has written `BYE` (or
//! failed to, waiting at most a second), so the process never exits
//! under that reply.

use crate::fgp::{
    admit_trials, estimate, practical_trials, CountEstimate, MultiQuerySpec, SamplerPlan,
};
use crate::SamplerMode;
use sgs_graph::zoo::parse_pattern;
use sgs_graph::Pattern;
use sgs_query::{
    available_memory, BroadcastOpts, Engine, ExecPolicy, PassOpts, ReservoirMode, RouterArena,
    RouterMode, ServeError, ServeSnapshot, ServerNode,
};
use sgs_stream::persist::PersistResult;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// Execution knobs shared by every query the node answers.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Worker policy for the persistent pool and multiplexed passes.
    pub policy: ExecPolicy,
    /// Pass feeding options (block size, ℓ₀ path); the per-query
    /// reservoir choice overrides the reservoir field per COUNT.
    pub pass: PassOpts,
    /// Accuracy target for defaulted trial counts
    /// (`practical_trials(live_edges, rho, eps, 1.0)`).
    pub eps: f64,
}

impl ServeOptions {
    /// Defaults: the given policy, the executor's default block size,
    /// `eps = 0.2` (the CLI's count default).
    pub fn new(policy: ExecPolicy) -> Self {
        ServeOptions {
            policy,
            pass: PassOpts::with_block(sgs_query::exec::DEFAULT_BLOCK),
            eps: 0.2,
        }
    }
}

/// The sockets a node accepts sessions on. Either may be absent; a node
/// with neither exits immediately (nothing can ever reach it).
#[derive(Default)]
pub struct Listeners {
    pub tcp: Option<TcpListener>,
    #[cfg(unix)]
    pub unix: Option<UnixListener>,
}

/// One COUNT request, parsed but not yet resolved against node state
/// (default trials and seed depend on the live edge count and config).
#[derive(Clone, Debug)]
struct CountSpec {
    pattern: Pattern,
    /// 0 = derive from `practical_trials` at answer time.
    trials: usize,
    /// `None` = the node config's seed.
    seed: Option<u64>,
    reservoir: ReservoirMode,
    /// True when `reservoir=` was given explicitly (rejected with
    /// `turnstile`, where reservoirs don't exist).
    reservoir_set: bool,
    relaxed: bool,
    turnstile: bool,
}

/// A parsed protocol line.
#[derive(Clone, Debug)]
enum Request {
    Ingest { u: u32, v: u32, delta: i8 },
    Count(Box<CountSpec>),
    Snapshot,
    Stat,
    Quit,
}

/// A parsed request and the channel its reply goes back on. A QUIT also
/// carries a receiver whose sender its session drops once it has written
/// the reply (or failed to), so the node can wait for that before it
/// exits.
type Job = (Request, Sender<String>, Option<Receiver<()>>);

/// How long a QUIT waits for its session to write `BYE` before the node
/// shuts down anyway (a client that never reads cannot hold shutdown).
const QUIT_REPLY_WAIT: Duration = Duration::from_secs(1);

fn parse_count(mut toks: std::str::SplitWhitespace<'_>) -> Result<Request, String> {
    let pat_tok = toks.next().ok_or("COUNT needs a pattern name")?;
    let pattern = parse_pattern(pat_tok).ok_or_else(|| format!("unknown pattern '{pat_tok}'"))?;
    let mut spec = CountSpec {
        pattern,
        trials: 0,
        seed: None,
        reservoir: ReservoirMode::Skip,
        reservoir_set: false,
        relaxed: false,
        turnstile: false,
    };
    for tok in toks {
        if tok == "relaxed" {
            spec.relaxed = true;
        } else if tok == "turnstile" {
            spec.turnstile = true;
        } else if let Some(v) = tok.strip_prefix("trials=") {
            spec.trials = v.parse().map_err(|_| format!("bad trials '{v}'"))?;
        } else if let Some(v) = tok.strip_prefix("seed=") {
            spec.seed = Some(v.parse().map_err(|_| format!("bad seed '{v}'"))?);
        } else if let Some(v) = tok.strip_prefix("reservoir=") {
            spec.reservoir = match v {
                "offer" => ReservoirMode::Offer,
                "skip" => ReservoirMode::Skip,
                other => return Err(format!("reservoir must be offer|skip, got '{other}'")),
            };
            spec.reservoir_set = true;
        } else {
            return Err(format!("unknown COUNT token '{tok}'"));
        }
    }
    if spec.turnstile && (spec.relaxed || spec.reservoir_set) {
        return Err(
            "relaxed/reservoir only apply to insertion COUNTs (turnstile trials are always \
             relaxed, on ℓ₀-samplers)"
                .to_string(),
        );
    }
    Ok(Request::Count(Box::new(spec)))
}

/// Parse one protocol line (already known non-blank). `Err` is the text
/// after `ERR ` in the refusal; the connection continues either way.
fn parse_request(line: &str) -> Result<Request, String> {
    let mut toks = line.split_whitespace();
    let verb = toks.next().expect("caller skips blank lines");
    match verb.to_ascii_uppercase().as_str() {
        "INGEST" => {
            let mut field = |name: &str| {
                toks.next()
                    .ok_or_else(|| format!("INGEST needs u v delta (missing {name})"))
            };
            let u: u32 = field("u")?
                .parse()
                .map_err(|_| "bad vertex id for u".to_string())?;
            let v: u32 = field("v")?
                .parse()
                .map_err(|_| "bad vertex id for v".to_string())?;
            let delta: i8 = field("delta")?
                .parse()
                .map_err(|_| "delta must be +1 or -1".to_string())?;
            if toks.next().is_some() {
                return Err("INGEST takes exactly u v delta".to_string());
            }
            Ok(Request::Ingest { u, v, delta })
        }
        "COUNT" => parse_count(toks),
        "SNAPSHOT" => Ok(Request::Snapshot),
        "STAT" => Ok(Request::Stat),
        "QUIT" => Ok(Request::Quit),
        other => Err(format!(
            "unknown command '{other}' (INGEST|COUNT|SNAPSHOT|STAT|QUIT)"
        )),
    }
}

/// One client session: read lines, forward parsed requests to the node
/// loop, relay replies. Returns on EOF, after QUIT, or when the node is
/// gone.
fn session<R: BufRead, W: Write>(mut lines: R, mut out: W, jobs: Sender<Job>) {
    let (reply_tx, reply_rx) = mpsc::channel::<String>();
    // `_written` lives until this session returns; a QUIT hands the node
    // its receiver, which then disconnects only after `BYE` is written.
    let (_written, written_rx) = mpsc::channel::<()>();
    let mut written_rx = Some(written_rx);
    let mut line = String::new();
    loop {
        line.clear();
        match lines.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let req = match parse_request(trimmed) {
            Ok(r) => r,
            Err(msg) => {
                if writeln!(out, "ERR {msg}").is_err() || out.flush().is_err() {
                    return;
                }
                continue;
            }
        };
        let quitting = matches!(req, Request::Quit);
        let written = if quitting { written_rx.take() } else { None };
        if jobs.send((req, reply_tx.clone(), written)).is_err() {
            let _ = writeln!(out, "ERR node is shutting down");
            let _ = out.flush();
            return;
        }
        match reply_rx.recv() {
            Ok(reply) => {
                if writeln!(out, "{reply}").is_err() || out.flush().is_err() {
                    return;
                }
            }
            Err(_) => {
                // The node loop dropped this job (shutdown raced us).
                let _ = writeln!(out, "ERR node is shutting down");
                let _ = out.flush();
                return;
            }
        }
        if quitting {
            return;
        }
    }
}

fn count_reply(spec: &MultiQuerySpec, est: &CountEstimate, prefix: u64) -> String {
    format!(
        "OK #{} ≈ {:.1} (hits {}/{}, seed {}) prefix={} bits={:016x}",
        spec.pattern.name(),
        est.estimate,
        est.hits,
        est.trials,
        spec.seed,
        prefix,
        est.estimate.to_bits(),
    )
}

/// Answer one model's share of a consecutive COUNT run over one cut.
#[allow(clippy::too_many_arguments)]
fn answer_group(
    node: &mut ServerNode,
    arena: &mut RouterArena,
    jobs: &[Job],
    group: &[usize],
    turnstile: bool,
    feed: &sgs_stream::ShardedFeed,
    prefix: u64,
    opts: &ServeOptions,
) {
    if group.is_empty() {
        return;
    }
    if !turnstile && node.has_deletions() {
        for &k in group {
            let _ = jobs[k].1.send(
                "ERR stream has deletions; insertion-model COUNT is unavailable (add 'turnstile')"
                    .to_string(),
            );
        }
        return;
    }
    let m = node.live_edges();
    let base_seed = node.config().seed;
    // Resolve defaults; refuse uncoverable patterns without touching the
    // rest of the group.
    let mut resolved: Vec<(usize, MultiQuerySpec)> = Vec::with_capacity(group.len());
    for &k in group {
        let Request::Count(spec) = &jobs[k].0 else {
            unreachable!("answer_group is only handed COUNT jobs");
        };
        let Some(plan) = SamplerPlan::new(&spec.pattern) else {
            let _ = jobs[k].1.send(format!(
                "ERR pattern '{}' has an isolated vertex (no edge cover)",
                spec.pattern.name()
            ));
            continue;
        };
        let trials = if spec.trials == 0 {
            practical_trials(m, plan.rho(), opts.eps, 1.0).clamp(1, 2_000_000)
        } else {
            spec.trials
        };
        // Refuse a trial count the host cannot hold before anything is
        // allocated; the node keeps serving.
        if let Err(e) = admit_trials(trials as u64, turnstile, available_memory()) {
            let _ = jobs[k].1.send(format!("ERR {e}"));
            continue;
        }
        let sampler = if turnstile || spec.relaxed {
            SamplerMode::Relaxed
        } else {
            SamplerMode::Indexed
        };
        resolved.push((
            k,
            MultiQuerySpec {
                pattern: spec.pattern.clone(),
                trials,
                seed: spec.seed.unwrap_or(base_seed),
                sampler,
                reservoir: spec.reservoir,
            },
        ));
    }
    if resolved.is_empty() {
        return;
    }
    // A lone query runs on the node's persistent worker pool; a batch is
    // admission-multiplexed on scoped shard threads. Either way one shared
    // pass per round serves every query, each answer byte-identical to
    // its solo run.
    let engine = if resolved.len() == 1 {
        Engine::Runtime(node.runtime_mut(), BroadcastOpts::with_policy(opts.policy))
    } else {
        Engine::Sharded(opts.policy)
    };
    let model = if turnstile {
        RouterMode::Turnstile
    } else {
        RouterMode::Insertion
    };
    let specs: Vec<MultiQuerySpec> = resolved.iter().map(|(_, s)| s.clone()).collect();
    let (ests, _admission) =
        estimate(&specs, model, feed, arena, opts.pass, engine).expect("plans validated above");
    for ((k, spec), est) in resolved.iter().zip(&ests) {
        let _ = jobs[*k].1.send(count_reply(spec, est, prefix));
        node.note_served();
    }
}

/// Answer a maximal run of consecutive COUNT jobs over ONE feed cut.
fn answer_counts(
    node: &mut ServerNode,
    arena: &mut RouterArena,
    jobs: &[Job],
    opts: &ServeOptions,
) -> PersistResult<()> {
    let feed = match node.cut() {
        Ok(f) => f,
        Err(e) => {
            for (_, reply, _) in jobs {
                let _ = reply.send(format!("ERR fatal: {e}"));
            }
            return Err(e);
        }
    };
    let prefix = node.ingested();
    let mut insertion: Vec<usize> = Vec::new();
    let mut turnstile: Vec<usize> = Vec::new();
    for (k, (req, _, _)) in jobs.iter().enumerate() {
        let Request::Count(spec) = req else {
            unreachable!("answer_counts is only handed COUNT jobs");
        };
        if spec.turnstile {
            turnstile.push(k);
        } else {
            insertion.push(k);
        }
    }
    answer_group(node, arena, jobs, &insertion, false, &feed, prefix, opts);
    answer_group(node, arena, jobs, &turnstile, true, &feed, prefix, opts);
    Ok(())
}

fn stat_reply(node: &ServerNode) -> String {
    let s = node.stats();
    format!(
        "OK updates={} blocks={} pending={} vertices={} edges={} deletions={} served={} \
         snapshots={} shards={}",
        s.updates,
        s.blocks,
        s.pending,
        s.num_vertices,
        s.edges,
        s.deletions,
        s.served,
        s.snapshots,
        s.shards,
    )
}

/// The single-threaded node loop: drain requests in arrival order,
/// batching consecutive COUNTs onto one cut. Returns after QUIT (graceful
/// shutdown: seal + final snapshot) or on a durability failure.
fn node_loop(
    mut node: ServerNode,
    rx: Receiver<Job>,
    opts: &ServeOptions,
) -> PersistResult<ServeSnapshot> {
    let mut arena = RouterArena::new();
    'serve: loop {
        let Ok(first) = rx.recv() else {
            // Every listener and client is gone; nothing can reach the
            // node any more, so shut down as if QUIT had arrived.
            break;
        };
        let mut batch = vec![first];
        while let Ok(job) = rx.try_recv() {
            batch.push(job);
        }
        let mut i = 0;
        while i < batch.len() {
            if matches!(batch[i].0, Request::Count(_)) {
                let mut j = i;
                while j < batch.len() && matches!(batch[j].0, Request::Count(_)) {
                    j += 1;
                }
                answer_counts(&mut node, &mut arena, &batch[i..j], opts)?;
                i = j;
                continue;
            }
            let (req, reply, written) = &batch[i];
            i += 1;
            match req {
                Request::Ingest { u, v, delta } => match node.ingest(*u, *v, *delta) {
                    Ok(pos) => {
                        let _ = reply.send(format!("OK {pos}"));
                    }
                    Err(ServeError::Reject(msg)) => {
                        let _ = reply.send(format!("ERR {msg}"));
                    }
                    Err(ServeError::Persist(e)) => {
                        let _ = reply.send(format!("ERR fatal: {e}"));
                        return Err(e);
                    }
                },
                Request::Stat => {
                    let _ = reply.send(stat_reply(&node));
                }
                Request::Snapshot => match node.snapshot() {
                    Ok(snap) => {
                        let _ = reply.send(format!("OK snapshot seq={}", snap.blocks));
                    }
                    Err(e) => {
                        let _ = reply.send(format!("ERR fatal: {e}"));
                        return Err(e);
                    }
                },
                Request::Quit => {
                    let _ = reply.send("BYE".to_string());
                    // Leave only once the session has written BYE (or its
                    // write failed): once this loop returns, the process
                    // may exit under the session thread.
                    if let Some(written) = written {
                        let _ = written.recv_timeout(QUIT_REPLY_WAIT);
                    }
                    // Jobs still queued behind QUIT are dropped; their
                    // sessions observe the hung-up reply channel.
                    break 'serve;
                }
                Request::Count(_) => unreachable!("handled by the batch scan above"),
            }
        }
    }
    node.shutdown()
}

/// Run the node behind the given sockets until a client sends QUIT (or
/// every listener is gone). Consumes the node; on success the WAL is
/// sealed, a final snapshot is published, and the returned
/// [`ServeSnapshot`] describes the durable state a restart resumes from.
pub fn run_server(
    node: ServerNode,
    listeners: Listeners,
    opts: ServeOptions,
) -> PersistResult<ServeSnapshot> {
    let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
    let stop = Arc::new(AtomicBool::new(false));
    let mut acceptors = Vec::new();
    let tcp_wake = listeners.tcp.as_ref().and_then(|l| l.local_addr().ok());
    if let Some(listener) = listeners.tcp {
        let jobs = jobs_tx.clone();
        let stop = Arc::clone(&stop);
        acceptors.push(thread::spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let jobs = jobs.clone();
                thread::spawn(move || {
                    let Ok(read_half) = stream.try_clone() else {
                        return;
                    };
                    session(BufReader::new(read_half), stream, jobs);
                });
            }
        }));
    }
    #[cfg(unix)]
    let unix_wake: Option<PathBuf> = listeners
        .unix
        .as_ref()
        .and_then(|l| l.local_addr().ok())
        .and_then(|a| a.as_pathname().map(PathBuf::from));
    #[cfg(unix)]
    if let Some(listener) = listeners.unix {
        let jobs = jobs_tx.clone();
        let stop = Arc::clone(&stop);
        acceptors.push(thread::spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let jobs = jobs.clone();
                thread::spawn(move || {
                    let Ok(read_half) = stream.try_clone() else {
                        return;
                    };
                    session(BufReader::new(read_half), stream, jobs);
                });
            }
        }));
    }
    // The node loop holds the only other sender clone sites; dropping
    // ours means `recv` hangs up once the acceptors are gone too.
    drop(jobs_tx);
    let outcome = node_loop(node, jobs_rx, &opts);
    // Wake each acceptor out of its blocking accept so it observes stop.
    stop.store(true, Ordering::Release);
    if let Some(addr) = tcp_wake {
        let _ = TcpStream::connect(addr);
    }
    #[cfg(unix)]
    if let Some(path) = unix_wake {
        let _ = UnixStream::connect(path);
    }
    for acceptor in acceptors {
        let _ = acceptor.join();
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_query::{ServeConfig, ServerNode};
    use sgs_stream::{ShardedFeed, TurnstileStream};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::path::PathBuf;
    use std::sync::Mutex;

    /// The batch estimate a serve COUNT must match: one indexed
    /// insertion spec on the serial sharded engine with serve's options.
    fn batch_estimate(feed: &ShardedFeed, trials: usize, seed: u64) -> CountEstimate {
        let specs = [MultiQuerySpec::new(Pattern::triangle(), trials, seed)];
        let opts = ServeOptions::new(ExecPolicy::serial()).pass;
        let engine = Engine::Sharded(ExecPolicy::serial());
        let mut arena = RouterArena::new();
        let (mut ests, _) = estimate(
            &specs,
            RouterMode::Insertion,
            feed,
            &mut arena,
            opts,
            engine,
        )
        .unwrap();
        ests.pop().unwrap()
    }

    /// A session writer that takes its time: every write sleeps before
    /// it records its bytes.
    struct SlowWriter(Arc<Mutex<Vec<u8>>>);

    impl Write for SlowWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            thread::sleep(Duration::from_millis(150));
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn node_loop_returns_only_after_the_quit_session_wrote_bye() {
        let dir = tmp("quit_bye");
        let node = ServerNode::create(&dir, ServeConfig::default(), ExecPolicy::serial()).unwrap();
        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
        let written = Arc::new(Mutex::new(Vec::new()));
        let out = SlowWriter(Arc::clone(&written));
        let client = thread::spawn(move || session(&b"QUIT\n"[..], out, jobs_tx));
        node_loop(node, jobs_rx, &ServeOptions::new(ExecPolicy::serial())).unwrap();
        assert_eq!(written.lock().unwrap().as_slice(), b"BYE\n");
        client.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sgs_core_serve_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parse_request_grammar() {
        assert!(matches!(
            parse_request("INGEST 3 7 +1"),
            Ok(Request::Ingest {
                u: 3,
                v: 7,
                delta: 1
            })
        ));
        assert!(matches!(
            parse_request("ingest 3 7 -1"),
            Ok(Request::Ingest { delta: -1, .. })
        ));
        assert!(parse_request("INGEST 3 7").is_err());
        assert!(parse_request("INGEST 3 7 1 junk").is_err());
        assert!(parse_request("INGEST a b 1").is_err());
        assert!(matches!(parse_request("STAT"), Ok(Request::Stat)));
        assert!(matches!(parse_request("SNAPSHOT"), Ok(Request::Snapshot)));
        assert!(matches!(parse_request("QUIT"), Ok(Request::Quit)));
        assert!(parse_request("NONSENSE").is_err());

        let Ok(Request::Count(spec)) =
            parse_request("COUNT triangle trials=60 seed=9 reservoir=offer relaxed")
        else {
            panic!("COUNT should parse");
        };
        assert_eq!(spec.trials, 60);
        assert_eq!(spec.seed, Some(9));
        assert!(matches!(spec.reservoir, ReservoirMode::Offer));
        assert!(spec.relaxed && !spec.turnstile);

        assert!(parse_request("COUNT").is_err());
        assert!(parse_request("COUNT nosuch").is_err());
        assert!(parse_request("COUNT triangle trials=x").is_err());
        // Reservoirs and relaxed make no sense under turnstile.
        assert!(parse_request("COUNT triangle turnstile relaxed").is_err());
        assert!(parse_request("COUNT triangle turnstile reservoir=skip").is_err());
        assert!(parse_request("COUNT triangle turnstile trials=5").is_ok());
    }

    fn send(r: &mut BufReader<TcpStream>, w: &mut TcpStream, line: &str) -> String {
        writeln!(w, "{line}").unwrap();
        w.flush().unwrap();
        let mut reply = String::new();
        r.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }

    #[test]
    fn tcp_session_answers_match_batch_bits() {
        let dir = tmp("tcp_session");
        let cfg = ServeConfig {
            shards: 2,
            wal_block: 8,
            ..ServeConfig::default()
        };
        let node = ServerNode::create(&dir, cfg, ExecPolicy::serial()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            run_server(
                node,
                Listeners {
                    tcp: Some(listener),
                    #[cfg(unix)]
                    unix: None,
                },
                ServeOptions::new(ExecPolicy::serial()),
            )
        });

        let mut w = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(w.try_clone().unwrap());
        // A deterministic little turnstile script over 12 vertices.
        let mut updates: Vec<(u32, u32, i8)> = Vec::new();
        let mut x = 5u64;
        let mut live = std::collections::HashSet::new();
        while updates.len() < 40 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 33) as u32 % 12;
            let v = (x >> 17) as u32 % 12;
            if u == v {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if live.insert(key) {
                updates.push((u, v, 1));
            }
        }
        for (k, &(u, v, d)) in updates.iter().enumerate() {
            let reply = send(&mut r, &mut w, &format!("INGEST {u} {v} {d:+}"));
            assert_eq!(reply, format!("OK {k}"), "position echo for update {k}");
        }
        assert_eq!(
            send(&mut r, &mut w, "INGEST 0 0 +1"),
            "ERR self-loop on vertex 0"
        );
        let stat = send(&mut r, &mut w, "STAT");
        assert!(stat.starts_with("OK updates="), "{stat}");
        assert!(stat.contains("edges=40"), "{stat}");
        assert!(stat.contains("shards=2"), "{stat}");

        let reply = send(&mut r, &mut w, "COUNT triangle trials=50 seed=9");
        assert!(reply.starts_with("OK #triangle ≈ "), "{reply}");
        let bits_hex = reply.split("bits=").nth(1).expect("bits field");
        let live_bits = u64::from_str_radix(bits_hex.trim(), 16).unwrap();
        assert!(reply.contains("prefix=40"), "{reply}");

        // The same estimate computed batch-side over the same prefix.
        // The node's vertex bound is max endpoint + 1; match it exactly.
        let n = updates.iter().map(|&(u, v, _)| u.max(v) + 1).max().unwrap() as usize;
        let stream = TurnstileStream::from_updates(
            n,
            updates
                .iter()
                .map(|&(u, v, d)| sgs_stream::EdgeUpdate {
                    edge: sgs_graph::Edge::new(sgs_graph::VertexId(u), sgs_graph::VertexId(v)),
                    delta: d,
                })
                .collect::<Vec<_>>(),
        );
        let feed = ShardedFeed::partition(&stream, 2);
        let batch = batch_estimate(&feed, 50, 9);
        assert_eq!(live_bits, batch.estimate.to_bits());

        // A turnstile COUNT over the same prefix also answers.
        let t = send(&mut r, &mut w, "COUNT triangle trials=30 seed=4 turnstile");
        assert!(t.starts_with("OK #triangle ≈ "), "{t}");

        let snap = send(&mut r, &mut w, "SNAPSHOT");
        assert!(snap.starts_with("OK snapshot seq="), "{snap}");
        assert_eq!(send(&mut r, &mut w, "QUIT"), "BYE");
        let summary = server.join().unwrap().unwrap();
        assert_eq!(summary.updates, 40);
        assert_eq!(summary.served, 2);
    }

    #[test]
    fn concurrent_counts_multiplex_and_still_match_solo() {
        let dir = tmp("mux");
        let cfg = ServeConfig {
            shards: 1,
            wal_block: 8,
            ..ServeConfig::default()
        };
        let node = ServerNode::create(&dir, cfg, ExecPolicy::serial()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            run_server(
                node,
                Listeners {
                    tcp: Some(listener),
                    #[cfg(unix)]
                    unix: None,
                },
                ServeOptions::new(ExecPolicy::serial()),
            )
        });

        let mut w = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(w.try_clone().unwrap());
        for i in 0..10u32 {
            for j in (i + 1)..10 {
                let reply = send(&mut r, &mut w, &format!("INGEST {i} {j} +1"));
                assert!(reply.starts_with("OK "), "{reply}");
            }
        }
        // Several clients COUNT concurrently; every answer must match the
        // byte-exact solo estimate regardless of how the node batched.
        let clients: Vec<_> = (0..4u64)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut w = TcpStream::connect(addr).unwrap();
                    let mut r = BufReader::new(w.try_clone().unwrap());
                    send(
                        &mut r,
                        &mut w,
                        &format!("COUNT triangle trials=40 seed={}", 100 + c),
                    )
                })
            })
            .collect();
        let replies: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();

        let edges: Vec<sgs_graph::Edge> = (0..10u32)
            .flat_map(|i| {
                ((i + 1)..10).map(move |j| {
                    sgs_graph::Edge::new(sgs_graph::VertexId(i), sgs_graph::VertexId(j))
                })
            })
            .collect();
        let ins = sgs_stream::InsertionStream::from_edge_order(10, edges);
        let feed = ShardedFeed::partition(&ins, 1);
        for (c, reply) in replies.iter().enumerate() {
            let bits_hex = reply.split("bits=").nth(1).unwrap_or_else(|| {
                panic!("client {c} got no bits field: {reply}");
            });
            let live_bits = u64::from_str_radix(bits_hex.trim(), 16).unwrap();
            let solo = batch_estimate(&feed, 40, 100 + c as u64);
            assert_eq!(live_bits, solo.estimate.to_bits(), "client {c}");
        }

        let mut w = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(w.try_clone().unwrap());
        assert_eq!(send(&mut r, &mut w, "QUIT"), "BYE");
        server.join().unwrap().unwrap();
    }
}
