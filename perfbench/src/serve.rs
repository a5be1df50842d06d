//! The `serve-mixed` workload: socket bytes → reply through `sgs serve`.
//!
//! Load generator rules: two connections and two threads (the host may
//! have two cores, shared with the node); each request leaves in one
//! write on a `TCP_NODELAY` socket, so the generator adds no Nagle or
//! delayed-ACK stalls of its own; it sleeps, never spins, between sends.
//!
//! 1. Connection A bulk-loads `BULK_EDGES` insert-only gnm edges,
//!    pipelined in whole-line chunks.
//! 2. A then sends one INGEST every `1/INGEST_RATE` s, open loop, while
//!    connection B sends `COUNT triangle trials=1000 seed=<k>` closed
//!    loop: one is due every `COUNT_EVERY`, or at once when the previous
//!    reply came after its successor's due time. Latencies run from
//!    each request's due time, so a stall also charges the requests
//!    queued behind it.
//! 3. Once the ingest has stopped, B sends `BURSTS` bursts of
//!    `BURST_LEN` pipelined COUNTs, each burst in one write, and waits
//!    for every reply: the node answers consecutive COUNTs as one
//!    multiplexed batch.

use crate::gen::{self, Rng};
use crate::proc;
use crate::report::{median, more_setups, quantile, Outcome};
use crate::Ctx;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const VERTICES: u32 = 3_000;
pub const BULK_EDGES: usize = 150_000;
pub const INGEST_RATE: f64 = 2_000.0;
pub const COUNT_EVERY: Duration = Duration::from_millis(300);
pub const COUNT_TRIALS: u64 = 1_000;
/// A run is invalid when the generator sent its 99th-percentile INGEST
/// later than this after its due time.
pub const LATE_BOUND_MS: f64 = 20.0;
/// Served COUNTs whose bits are re-derived with `sgs count --updates`.
pub const BITS_SAMPLES: usize = 2;
/// Untimed COUNTs between the two phases, so the node's first-query
/// allocations are not charged to the timed ones.
pub const WARMUP_COUNTS: usize = 3;
/// The COUNT reply latency is taken per window of this many seconds of
/// the schedule and reported as the lower quartile of the windows'
/// medians; the burst rate is the upper quartile of the bursts' rates.
/// CPU steal on a shared host comes in bursts that disturb some windows
/// of a run; a slowdown of the node itself moves them all.
pub const WINDOW_SECONDS: f64 = 1.5;
/// Pipelined COUNT bursts after the open-loop phase, and COUNTs per
/// burst.
pub const BURSTS: usize = 12;
pub const BURST_LEN: usize = 8;
const POLL: Duration = Duration::from_millis(1);

/// One COUNT as the socket run saw it.
#[derive(Clone, Debug)]
pub struct CountRecord {
    pub seed: u64,
    /// Updates the node had ingested when it cut the stream.
    pub prefix: u64,
    pub bits: String,
    /// Due time → reply.
    pub latency: Duration,
    /// Send → reply (excludes waiting for the previous reply).
    pub wire: Duration,
}

/// Everything the socket run recorded, for the metrics, the gates and
/// the traced replay.
pub struct Traffic {
    /// Every ingested edge, in ingest order.
    pub updates: Vec<(u32, u32)>,
    /// Every COUNT in order: warm-up, open-loop phase, bursts.
    pub counts: Vec<CountRecord>,
    /// Indices in `counts` of the open-loop phase's COUNTs.
    pub timed: Range<usize>,
    /// Wall time of each burst, first write → last reply.
    pub bursts: Vec<Duration>,
    /// Open-loop INGESTs: send → OK.
    pub ingest_wire: Vec<Duration>,
    /// Open-loop INGESTs: due → send.
    pub late: Vec<Duration>,
    pub max_backlog: usize,
    pub peak_rss_kib: u64,
    pub setup: Duration,
}

fn edges(ctx: &Ctx) -> Vec<(u32, u32)> {
    let open = (INGEST_RATE * ctx.seconds).ceil() as usize;
    gen::gnm(
        VERTICES,
        BULK_EDGES + open,
        &mut Rng::new(ctx.seed ^ 0x5e7e),
    )
}

pub fn count_seed(ctx: &Ctx, i: usize) -> u64 {
    ctx.seed.wrapping_mul(1_000_003).wrapping_add(i as u64) >> 1
}

/// A running `sgs serve` node.
struct Node {
    child: Child,
    /// Held open so the node's shutdown summary has a reader.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    /// Set once the process has been waited for.
    reaped: bool,
}

impl Drop for Node {
    /// A node abandoned on an error path is killed and waited for, so no
    /// run leaves a process behind.
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = proc::reap(self.child.id());
        }
    }
}

impl Node {
    fn spawn(sgs: &Path, dir: &Path) -> Result<Node, String> {
        let _ = std::fs::remove_dir_all(dir);
        let mut child = Command::new(sgs)
            .args(["serve", &dir.to_string_lossy(), "--shards", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn sgs serve: {e}"))?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if lines.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = proc::reap(child.id());
                return Err("sgs serve exited before LISTENING".into());
            }
            if let Some(addr) = line.trim().strip_prefix("LISTENING ") {
                return Ok(Node {
                    addr: addr.to_string(),
                    child,
                    _stdout: lines,
                    reaped: false,
                });
            }
        }
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(s)
    }

    /// QUIT over `via` (or a fresh connection) and wait for the node to
    /// exit.
    fn quit(mut self, via: Option<TcpStream>) -> Result<(), String> {
        let mut s = match via {
            Some(s) => s,
            None => self.connect()?,
        };
        s.set_nonblocking(false).map_err(|e| e.to_string())?;
        s.write_all(b"QUIT\n").map_err(|e| e.to_string())?;
        let mut reply = String::new();
        BufReader::new(&s)
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        let (code, _) = proc::reap(self.child.id()).map_err(|e| e.to_string())?;
        self.reaped = true;
        if reply.trim() != "BYE" {
            return Err(format!("QUIT answered {reply:?}"));
        }
        if code != Some(0) {
            return Err(format!("sgs serve exited {code:?}"));
        }
        Ok(())
    }
}

/// What connection A's reader saw.
struct Acks {
    at: Vec<Instant>,
    bad: Vec<String>,
}

/// Read A's replies until `expected` have arrived, timestamping each and
/// checking it is `OK <its stream position>`. During the bulk load the
/// reader wakes at most once per `POLL` and takes every reply that
/// arrived meanwhile, so it does not compete with the node for the CPU
/// once per reply.
fn read_acks(stream: TcpStream, expected: usize, acked: Arc<AtomicUsize>) -> Acks {
    let mut acks = Acks {
        at: Vec::with_capacity(expected),
        bad: Vec::new(),
    };
    let mut r = BufReader::with_capacity(1 << 16, stream);
    let mut line = String::new();
    while acks.at.len() < expected {
        if acks.at.len() < BULK_EDGES && r.buffer().is_empty() {
            std::thread::sleep(POLL);
        }
        line.clear();
        match r.read_line(&mut line) {
            Ok(0) | Err(_) => {
                acks.bad
                    .push(format!("connection A closed after {} acks", acks.at.len()));
                break;
            }
            Ok(_) => {}
        }
        let pos = acks.at.len();
        acks.at.push(Instant::now());
        if line.trim_end() != format!("OK {pos}") && acks.bad.len() < 5 {
            acks.bad
                .push(format!("INGEST #{pos} answered {:?}", line.trim_end()));
        }
        acked.store(acks.at.len(), Ordering::Release);
    }
    acks
}

/// Connection B: the COUNT client, driven from the sender's ticks. The
/// socket is non-blocking; a reply is timestamped at the first tick (or
/// poll) after it arrives (ticks are `1/INGEST_RATE` apart).
struct Counter {
    stream: TcpStream,
    buf: Vec<u8>,
    /// (index, due, sent) of each COUNT awaiting its reply, in order.
    pending: VecDeque<(usize, Instant, Instant)>,
    next: usize,
    /// Index of the first scheduled (timed) COUNT.
    first: usize,
    /// Reads block (bursts) rather than return at once (open loop).
    blocking: bool,
    records: Vec<CountRecord>,
    errors: Vec<String>,
}

impl Counter {
    fn poll(&mut self, ctx: &Ctx) {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.errors.push("connection B closed".into());
                    self.pending.clear();
                    return;
                }
                Ok(k) => {
                    self.buf.extend_from_slice(&chunk[..k]);
                    if self.blocking {
                        break;
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.errors.push(format!("connection B: {e}"));
                    self.pending.clear();
                    return;
                }
            }
        }
        let now = Instant::now();
        while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line).trim_end().to_string();
            let Some((i, due, sent)) = self.pending.pop_front() else {
                self.errors.push(format!("unexpected reply {line:?}"));
                continue;
            };
            let field = |k: &str| line.split(k).nth(1).map(|s| s.split_whitespace().next());
            match (
                line.starts_with("OK #triangle"),
                field("prefix="),
                field("bits="),
            ) {
                (true, Some(Some(p)), Some(Some(b))) if p.parse::<u64>().is_ok() => {
                    self.records.push(CountRecord {
                        seed: count_seed(ctx, i),
                        prefix: p.parse().expect("checked above"),
                        bits: b.to_string(),
                        latency: now - due,
                        wire: now - sent,
                    })
                }
                _ => self.errors.push(format!("COUNT #{i} answered {line:?}")),
            }
        }
    }

    /// Send the next COUNT if none is outstanding and it is due.
    fn maybe_send(&mut self, ctx: &Ctx, start: Instant) {
        if self.pending.is_empty() {
            let due = start + COUNT_EVERY * (self.next - self.first) as u32;
            if Instant::now() >= due {
                self.send(ctx, due);
            }
        }
    }

    fn send(&mut self, ctx: &Ctx, due: Instant) {
        self.send_many(ctx, due, 1);
    }

    /// Send `k` COUNTs in one write.
    fn send_many(&mut self, ctx: &Ctx, due: Instant, k: usize) {
        let lines: String = (self.next..self.next + k)
            .map(|i| {
                format!(
                    "COUNT triangle trials={COUNT_TRIALS} seed={}\n",
                    count_seed(ctx, i)
                )
            })
            .collect();
        if let Err(e) = self.stream.write_all(lines.as_bytes()) {
            self.errors.push(format!("COUNT send: {e}"));
            return;
        }
        let sent = Instant::now();
        for i in self.next..self.next + k {
            self.pending.push_back((i, due, sent));
        }
        self.next += k;
    }

    /// Poll until no COUNT is outstanding, an error, or `deadline`.
    fn drain(&mut self, ctx: &Ctx, every: Duration, deadline: Instant) {
        while !self.pending.is_empty() && self.errors.is_empty() && Instant::now() < deadline {
            if !every.is_zero() {
                std::thread::sleep(every);
            }
            self.poll(ctx);
        }
    }

    /// One burst of `BURST_LEN` pipelined COUNTs; returns its wall time,
    /// first write → last reply. Reads block (with a timeout) so the
    /// client sleeps until each reply arrives.
    fn burst(&mut self, ctx: &Ctx) -> Option<Duration> {
        if !self.blocking {
            let timeout = Some(Duration::from_secs(30));
            if let Err(e) = (self.stream.set_nonblocking(false))
                .and_then(|()| self.stream.set_read_timeout(timeout))
            {
                self.errors.push(format!("connection B: {e}"));
                return None;
            }
            self.blocking = true;
        }
        let t = Instant::now();
        self.send_many(ctx, t, BURST_LEN);
        self.drain(ctx, Duration::ZERO, t + Duration::from_secs(30));
        if self.pending.is_empty() && self.errors.is_empty() {
            self.records.last().map(|r| r.latency)
        } else {
            None
        }
    }
}

fn line(u: u32, v: u32) -> String {
    format!("INGEST {u} {v} 1\n")
}

/// The generated updates, a listening node, and how long that took.
type SetUp = (Vec<(u32, u32)>, Node, Duration);

/// Generate the updates and spawn a fresh node, timed until it listens.
fn set_up(ctx: &Ctx, dir: &Path) -> Result<SetUp, String> {
    let t = Instant::now();
    let updates = edges(ctx);
    let node = Node::spawn(&ctx.sgs, dir)?;
    Ok((updates, node, t.elapsed()))
}

/// Run the socket workload and record its traffic.
pub fn drive(ctx: &Ctx, out: &mut Outcome) -> Result<Traffic, String> {
    let dir = ctx.work.join("node");
    let mut setups = Vec::new();
    let (updates, node) = loop {
        let (updates, node, took) = set_up(ctx, &dir)?;
        setups.push(took.as_secs_f64());
        if !more_setups(&setups) {
            break (updates, node);
        }
        node.quit(None)?;
    };
    let setup = Duration::from_secs_f64(median(&setups));

    let a = node.connect()?;
    let b = node.connect()?;
    b.set_nonblocking(true).map_err(|e| e.to_string())?;
    let total = updates.len();
    let acked = Arc::new(AtomicUsize::new(0));
    let reader = {
        let a_read = a.try_clone().map_err(|e| e.to_string())?;
        let acked = Arc::clone(&acked);
        std::thread::spawn(move || read_acks(a_read, total, acked))
    };
    let mut a = a;

    // Phase 1: pipelined bulk load in whole-line chunks.
    let mut chunk = String::with_capacity(1 << 16);
    for &(u, v) in &updates[..BULK_EDGES] {
        chunk.push_str(&line(u, v));
        if chunk.len() > (1 << 16) - 32 {
            a.write_all(chunk.as_bytes()).map_err(|e| e.to_string())?;
            chunk.clear();
        }
    }
    a.write_all(chunk.as_bytes()).map_err(|e| e.to_string())?;
    while acked.load(Ordering::Acquire) < BULK_EDGES && !reader.is_finished() {
        std::thread::sleep(Duration::from_micros(200));
    }

    let tick = Duration::from_secs_f64(1.0 / INGEST_RATE);
    let mut counter = Counter {
        stream: b,
        buf: Vec::new(),
        pending: VecDeque::new(),
        next: 0,
        first: WARMUP_COUNTS,
        blocking: false,
        records: Vec::new(),
        errors: Vec::new(),
    };
    let warm_deadline = Instant::now() + Duration::from_secs(30);
    while counter.records.len() < WARMUP_COUNTS
        && counter.errors.is_empty()
        && Instant::now() < warm_deadline
    {
        if counter.pending.is_empty() {
            counter.send(ctx, Instant::now());
        }
        std::thread::sleep(tick);
        counter.poll(ctx);
    }
    counter.first = counter.next;
    let timed_from = counter.records.len();
    // The node's footprint with its bulk history and one COUNT served.
    // Taken here because what the open-loop phase adds on top (1–4 MB)
    // depends on allocator timing from run to run.
    let peak_rss_kib = proc::peak_rss_kib(node.child.id()).unwrap_or(0);

    // Phase 2: open-loop INGESTs on A, closed-loop COUNTs on B.
    let open = &updates[BULK_EDGES..];
    let start = Instant::now() + Duration::from_millis(5);
    let mut sent_at = Vec::with_capacity(open.len());
    let mut max_backlog = 0usize;
    for (j, &(u, v)) in open.iter().enumerate() {
        let due = start + tick * j as u32;
        loop {
            counter.poll(ctx);
            counter.maybe_send(ctx, start);
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep(due - now);
        }
        a.write_all(line(u, v).as_bytes())
            .map_err(|e| e.to_string())?;
        sent_at.push(Instant::now());
        max_backlog =
            max_backlog.max((BULK_EDGES + j + 1).saturating_sub(acked.load(Ordering::Acquire)));
    }
    let end = start + tick * open.len() as u32;
    // Let the last COUNT finish; no new COUNT is sent past the end.
    counter.drain(ctx, tick, Instant::now() + Duration::from_secs(20));
    let acks = reader.join().map_err(|_| "ack reader panicked")?;
    let timed = timed_from..counter.records.len();

    // Phase 3: pipelined COUNT bursts on B.
    let mut bursts = Vec::with_capacity(BURSTS);
    for _ in 0..BURSTS {
        match counter.burst(ctx) {
            Some(wall) => bursts.push(wall),
            None => break,
        }
    }
    let quit = node.quit(Some(counter.stream));
    let _ = std::fs::remove_dir_all(&dir);

    out.check("every INGEST acknowledged at its position", {
        if acks.bad.is_empty() {
            Ok(())
        } else {
            Err(acks.bad.join("; "))
        }
    });
    out.check("node shut down cleanly", quit);
    if acks.at.len() < total {
        return Err("missing INGEST replies".into());
    }
    let expected_timed = ((end - start).as_secs_f64() / COUNT_EVERY.as_secs_f64()).floor() as usize;
    out.check("every COUNT answered", {
        if !counter.errors.is_empty() {
            Err(counter.errors.join("; "))
        } else if !counter.pending.is_empty()
            || timed.len() + 1 < expected_timed
            || bursts.len() < BURSTS
        {
            Err(format!(
                "{} open-loop COUNT replies of about {expected_timed} due, {} of {BURSTS} bursts",
                timed.len(),
                bursts.len()
            ))
        } else {
            Ok(())
        }
    });

    let mut ingest_wire = Vec::with_capacity(open.len());
    let mut late = Vec::with_capacity(open.len());
    for (j, sent) in sent_at.iter().enumerate() {
        let due = start + tick * j as u32;
        let ack = acks.at[BULK_EDGES + j];
        ingest_wire.push(ack.saturating_duration_since(*sent));
        late.push(sent.saturating_duration_since(due));
    }
    Ok(Traffic {
        updates,
        counts: counter.records,
        timed,
        bursts,
        ingest_wire,
        late,
        max_backlog,
        peak_rss_kib,
        setup,
    })
}

/// Lower quartile over windows of `per` consecutive samples of each
/// window's `q` quantile, in ms.
pub fn windowed_ms(d: &[Duration], per: usize, q: f64) -> f64 {
    let windows: Vec<f64> = d
        .chunks(per)
        .filter(|w| w.len() == per)
        .map(|w| ms(w, q))
        .collect();
    if windows.is_empty() {
        ms(d, q)
    } else {
        quantile(&windows, 0.25)
    }
}

impl Traffic {
    /// The COUNTs of the open-loop phase.
    pub fn timed_counts(&self) -> &[CountRecord] {
        &self.counts[self.timed.clone()]
    }
}

pub fn ms(d: &[Duration], q: f64) -> f64 {
    let v: Vec<f64> = d.iter().map(|x| x.as_secs_f64() * 1e3).collect();
    quantile(&v, q)
}

/// The load generator's own lateness check.
pub fn check_schedule(traffic: &Traffic, out: &mut Outcome) {
    let late_p99 = ms(&traffic.late, 0.99);
    out.check("load generator kept its schedule", {
        if late_p99 <= LATE_BOUND_MS {
            Ok(())
        } else {
            Err(format!(
                "p99 send lateness {late_p99:.2} ms > {LATE_BOUND_MS} ms"
            ))
        }
    });
}

/// Re-derive sampled COUNT replies with the batch CLI over the same
/// update prefix: the bits must be identical.
pub fn check_bits(ctx: &Ctx, traffic: &Traffic, out: &mut Outcome) {
    let n = traffic.counts.len();
    if n == 0 {
        return;
    }
    let mut rng = Rng::new(ctx.seed ^ 0xb175);
    let mut picks: Vec<usize> = vec![n - 1];
    while picks.len() < BITS_SAMPLES.min(n) {
        let k = rng.below(n as u64) as usize;
        if !picks.contains(&k) {
            picks.push(k);
        }
    }
    for k in picks {
        let rec = &traffic.counts[k];
        out.check(
            &format!("COUNT #{k} bits equal sgs count --updates"),
            batch_bits(ctx, &traffic.updates, rec).and_then(|bits| {
                if rec.bits == ctx.expected_bits(&bits) {
                    Ok(())
                } else {
                    Err(format!("served bits={} batch bits={bits}", rec.bits))
                }
            }),
        );
    }
}

fn batch_bits(ctx: &Ctx, updates: &[(u32, u32)], rec: &CountRecord) -> Result<String, String> {
    let prefix = usize::try_from(rec.prefix)
        .ok()
        .filter(|&p| p <= updates.len())
        .ok_or_else(|| format!("prefix {} beyond {} updates", rec.prefix, updates.len()))?;
    let path: PathBuf = ctx.work.join("prefix.upd");
    let text: String = updates[..prefix]
        .iter()
        .map(|(u, v)| format!("{u} {v} +1\n"))
        .collect();
    std::fs::write(&path, text).map_err(|e| e.to_string())?;
    let run = proc::run(
        &ctx.sgs,
        &[
            "count",
            "--updates",
            &path.to_string_lossy(),
            "--pattern",
            "triangle",
            "--trials",
            &COUNT_TRIALS.to_string(),
            "--seed",
            &rec.seed.to_string(),
            "--shards",
            "1",
            "--bits",
        ],
        &ctx.work,
    )
    .map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&path);
    if !run.ok() {
        return Err(format!("sgs count --updates exited {:?}", run.code));
    }
    run.stdout
        .split("bits=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .map(str::to_string)
        .ok_or_else(|| "no bits= in sgs count output".into())
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<Traffic, String> {
    let traffic = drive(ctx, out)?;
    check_schedule(&traffic, out);
    check_bits(ctx, &traffic, out);
    let bytes: usize = traffic.updates.iter().map(|&(u, v)| line(u, v).len()).sum();
    out.notes.push(format!(
        "{{\"input\": \"serve-mixed gnm\", \"n\": {VERTICES}, \"m\": {}, \"bytes\": {bytes}, \
         \"triangles\": {}, \"bulk\": {BULK_EDGES}, \"counts\": {}, \"max_backlog\": {}}}",
        traffic.updates.len(),
        gen::triangles(VERTICES as usize, &traffic.updates),
        traffic.counts.len(),
        traffic.max_backlog
    ));
    Ok(traffic)
}

pub fn metrics(traffic: &Traffic, out: &mut Outcome) -> Result<(), String> {
    let counts: Vec<Duration> = traffic.timed_counts().iter().map(|c| c.latency).collect();
    if counts.is_empty() || traffic.bursts.is_empty() {
        return Err("no timed COUNT replies".into());
    }
    let replies = (WINDOW_SECONDS / COUNT_EVERY.as_secs_f64()).round() as usize;
    let rates: Vec<f64> = traffic
        .bursts
        .iter()
        .map(|d| BURST_LEN as f64 / d.as_secs_f64())
        .collect();
    out.metric("setup_s", traffic.setup.as_secs_f64(), "s");
    out.metric("answer_ms", windowed_ms(&counts, replies, 0.5), "ms");
    out.metric("answers_per_s", quantile(&rates, 0.75), "1/s");
    out.metric("peak_rss_mb", traffic.peak_rss_kib as f64 / 1024.0, "MB");
    Ok(())
}
