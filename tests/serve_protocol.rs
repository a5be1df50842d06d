//! Protocol-level integration tests for `sgs serve` — the real binary
//! behind a real TCP socket.
//!
//! Pinned guarantees:
//! * every COUNT a live node answers is **byte-identical** (`bits=` hex
//!   of the exact f64) to batch `sgs count --updates` over the same
//!   ingested prefix — both models, shards 1/2/4, offer+skip reservoirs;
//! * concurrent client sessions interleave ingest and queries without
//!   torn replies or lost updates;
//! * kill -9 mid-ingest loses only the unflushed tail: a restarted node
//!   reports the durable prefix, resumes ingest at the echoed position,
//!   and answers byte-identically to a batch run over the same updates.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_sgs");

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sgs_serve_protocol_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic strict-turnstile script: distinct inserts, and (when
/// `churn`) every third insert later retracted.
fn script(n: u32, len: usize, churn: bool) -> Vec<(u32, u32, i8)> {
    let mut updates = Vec::new();
    let mut live: Vec<(u32, u32)> = Vec::new();
    let mut x = 77u64;
    while updates.len() < len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (x >> 33) as u32 % n;
        let v = (x >> 17) as u32 % n;
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if churn && updates.len() % 3 == 2 && !live.is_empty() {
            let victim = live.remove((x >> 7) as usize % live.len());
            updates.push((victim.0, victim.1, -1));
            continue;
        }
        if live.contains(&key) {
            continue;
        }
        live.push(key);
        updates.push((key.0, key.1, 1));
    }
    updates
}

fn write_updates_file(path: &Path, updates: &[(u32, u32, i8)]) {
    let mut text = String::new();
    for &(u, v, d) in updates {
        text.push_str(&format!("{u} {v} {d:+}\n"));
    }
    std::fs::write(path, text).unwrap();
}

struct ServeProc {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    addr: String,
}

/// Spawn `sgs serve DIR <extra...>` and wait for its LISTENING line.
fn spawn_serve(dir: &Path, extra: &[&str]) -> ServeProc {
    let mut child = Command::new(BIN)
        .arg("serve")
        .arg(dir)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sgs serve");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let read = stdout.read_line(&mut line).expect("read serve stdout");
        assert_ne!(read, 0, "serve exited before LISTENING");
        if let Some(rest) = line.trim().strip_prefix("LISTENING ") {
            break rest.to_string();
        }
    };
    ServeProc {
        child,
        stdout,
        addr,
    }
}

struct Session {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Session {
    fn connect(addr: &str) -> Session {
        let writer = TcpStream::connect(addr).expect("connect to serve node");
        let reader = BufReader::new(writer.try_clone().unwrap());
        Session { reader, writer }
    }

    fn send(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }
}

fn bits_of(reply: &str) -> u64 {
    let hex = reply
        .split("bits=")
        .nth(1)
        .unwrap_or_else(|| panic!("no bits field in: {reply}"))
        .split_whitespace()
        .next()
        .unwrap();
    u64::from_str_radix(hex, 16).unwrap()
}

/// Run batch `sgs count --updates FILE --bits <extra...>` and pull the
/// estimate's bit pattern from the output.
fn batch_bits(updates_file: &Path, extra: &[&str]) -> u64 {
    let out = Command::new(BIN)
        .arg("count")
        .arg("--updates")
        .arg(updates_file)
        .arg("--bits")
        .args(extra)
        .output()
        .expect("run sgs count");
    assert!(
        out.status.success(),
        "sgs count failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    bits_of(std::str::from_utf8(&out.stdout).unwrap())
}

fn ingest_all(session: &mut Session, updates: &[(u32, u32, i8)], expect_from: usize) {
    for (k, &(u, v, d)) in updates.iter().enumerate() {
        let reply = session.send(&format!("INGEST {u} {v} {d:+}"));
        assert_eq!(
            reply,
            format!("OK {}", expect_from + k),
            "position echo for update {}",
            expect_from + k
        );
    }
}

fn wait_shutdown(mut proc: ServeProc) {
    let mut rest = String::new();
    proc.stdout.read_to_string(&mut rest).unwrap();
    let status = proc.child.wait().unwrap();
    assert!(status.success(), "serve exited nonzero; stdout: {rest}");
    assert!(rest.contains("shutdown:"), "no shutdown summary: {rest}");
}

#[test]
fn live_counts_match_batch_cli_across_shards_models_reservoirs() {
    let updates = script(12, 40, false);
    for shards in [1usize, 2, 4] {
        let dir = tmp(&format!("match_{shards}"));
        let updates_file = dir.join("updates.txt");
        write_updates_file(&updates_file, &updates);
        let node_dir = dir.join("node");
        let shards_s = shards.to_string();
        let proc = spawn_serve(
            &node_dir,
            &["--shards", &shards_s, "--wal-block", "8", "--seed", "1"],
        );
        let mut s = Session::connect(&proc.addr);
        ingest_all(&mut s, &updates, 0);

        // Insertion model, both reservoir acceptance schemes.
        for reservoir in ["skip", "offer"] {
            let live = bits_of(&s.send(&format!(
                "COUNT triangle trials=60 seed=9 reservoir={reservoir}"
            )));
            let batch = batch_bits(
                &updates_file,
                &[
                    "--pattern",
                    "triangle",
                    "--trials",
                    "60",
                    "--seed",
                    "9",
                    "--shards",
                    &shards_s,
                    "--reservoir",
                    reservoir,
                ],
            );
            assert_eq!(
                live, batch,
                "insertion/{reservoir} at {shards} shard(s) diverged from batch"
            );
        }

        // Turnstile model over the same prefix.
        let live = bits_of(&s.send("COUNT triangle trials=40 seed=5 turnstile"));
        let batch = batch_bits(
            &updates_file,
            &[
                "--pattern",
                "triangle",
                "--trials",
                "40",
                "--seed",
                "5",
                "--shards",
                &shards_s,
                "--turnstile",
            ],
        );
        assert_eq!(live, batch, "turnstile at {shards} shard(s) diverged");

        assert_eq!(s.send("QUIT"), "BYE");
        wait_shutdown(proc);
    }
}

#[test]
fn concurrent_clients_interleave_ingest_and_queries() {
    let dir = tmp("concurrent");
    let node_dir = dir.join("node");
    let updates = script(14, 60, false);
    let updates_file = dir.join("updates.txt");
    write_updates_file(&updates_file, &updates);
    let proc = spawn_serve(&node_dir, &["--wal-block", "8", "--seed", "1"]);

    // One session ingests the first half so queries have substance.
    let mut feeder = Session::connect(&proc.addr);
    ingest_all(&mut feeder, &updates[..30], 0);

    // Concurrent sessions: more ingest interleaved with COUNTs and STATs
    // from other clients. Every reply must be well-formed for ITS request
    // (no torn or misrouted replies).
    let addr = proc.addr.clone();
    let tail: Vec<(u32, u32, i8)> = updates[30..].to_vec();
    let ingester = std::thread::spawn(move || {
        let mut s = Session::connect(&addr);
        ingest_all(&mut s, &tail, 30);
    });
    let queriers: Vec<_> = (0..3u64)
        .map(|c| {
            let addr = proc.addr.clone();
            std::thread::spawn(move || {
                let mut s = Session::connect(&addr);
                for round in 0..4u64 {
                    let reply = s.send(&format!(
                        "COUNT triangle trials=30 seed={}",
                        50 + 10 * c + round
                    ));
                    assert!(
                        reply.starts_with("OK #triangle ≈ "),
                        "client {c} round {round}: {reply}"
                    );
                    assert!(reply.contains("bits="), "{reply}");
                    let stat = s.send("STAT");
                    assert!(stat.starts_with("OK updates="), "{stat}");
                }
            })
        })
        .collect();
    ingester.join().unwrap();
    for q in queriers {
        q.join().unwrap();
    }

    // With all 60 updates in, a COUNT matches the batch run exactly.
    let stat = feeder.send("STAT");
    assert!(stat.contains("edges=60"), "all updates must land: {stat}");
    let live = bits_of(&feeder.send("COUNT triangle trials=50 seed=7"));
    let batch = batch_bits(
        &updates_file,
        &["--pattern", "triangle", "--trials", "50", "--seed", "7"],
    );
    assert_eq!(live, batch);
    assert_eq!(feeder.send("QUIT"), "BYE");
    wait_shutdown(proc);
}

#[test]
fn kill_nine_mid_ingest_then_restart_resumes_byte_identical() {
    let dir = tmp("kill9");
    let node_dir = dir.join("node");
    // A churny strict-turnstile script: deletions force the turnstile
    // model, the interesting recovery case.
    let updates = script(10, 41, true);
    let args = ["--wal-block", "4", "--snapshot-every", "2", "--seed", "1"];

    let mut proc = spawn_serve(&node_dir, &args);
    let mut s = Session::connect(&proc.addr);
    ingest_all(&mut s, &updates[..37], 0);
    // kill -9 mid-ingest: 36 updates are in sealed WAL blocks (wal-block
    // 4), the 37th is pending and MUST be lost.
    proc.child.kill().unwrap();
    proc.child.wait().unwrap();

    // Restart over the same directory: the persisted config wins and the
    // node reports the durable prefix.
    let proc = spawn_serve(&node_dir, &[]);
    let mut s = Session::connect(&proc.addr);
    let stat = s.send("STAT");
    assert!(
        stat.contains("updates=36") && stat.contains("pending=0"),
        "durable prefix after kill -9: {stat}"
    );

    // A COUNT over the recovered 36-update prefix is byte-identical to a
    // batch run over that exact prefix.
    let prefix_file = dir.join("prefix.txt");
    write_updates_file(&prefix_file, &updates[..36]);
    let live = bits_of(&s.send("COUNT triangle trials=40 seed=3 turnstile"));
    assert_eq!(
        live,
        batch_bits(
            &prefix_file,
            &[
                "--pattern",
                "triangle",
                "--trials",
                "40",
                "--seed",
                "3",
                "--turnstile"
            ],
        ),
        "recovered prefix diverged from batch"
    );

    // Ingest resumes at the echoed position (36), replaying the lost
    // tail and the rest of the script.
    ingest_all(&mut s, &updates[36..], 36);
    let full_file = dir.join("full.txt");
    write_updates_file(&full_file, &updates);
    let live = bits_of(&s.send("COUNT triangle trials=40 seed=3 turnstile"));
    assert_eq!(
        live,
        batch_bits(
            &full_file,
            &[
                "--pattern",
                "triangle",
                "--trials",
                "40",
                "--seed",
                "3",
                "--turnstile"
            ],
        ),
        "post-recovery stream diverged from batch"
    );

    // Graceful shutdown this time; a second restart then serves the
    // sealed log and still answers identically.
    assert_eq!(s.send("QUIT"), "BYE");
    wait_shutdown(proc);
    let proc = spawn_serve(&node_dir, &[]);
    let mut s = Session::connect(&proc.addr);
    let live = bits_of(&s.send("COUNT triangle trials=40 seed=3 turnstile"));
    assert_eq!(
        live,
        batch_bits(
            &full_file,
            &[
                "--pattern",
                "triangle",
                "--trials",
                "40",
                "--seed",
                "3",
                "--turnstile"
            ],
        ),
        "answers must survive a graceful restart cycle"
    );
    assert_eq!(s.send("QUIT"), "BYE");
    wait_shutdown(proc);
}

/// `--eps` sizes every COUNT that omits `trials=`, so a node must never
/// run with a zero, negative, NaN or infinite value: such a node would
/// start normally and then panic on its first defaulted COUNT. The CLI
/// refuses the value before the directory is opened — exit 2 naming the
/// flag and value, no LISTENING, nothing written — and batch
/// `sgs count` refuses it the same way. A valid `--eps` on the same
/// directory then serves a defaulted COUNT byte-identical to batch.
#[test]
fn zero_size_flags_are_refused_before_the_node_opens() {
    // `--shards 0`, `--wal-block 0` and `--ring-capacity 0` used to be
    // clamped to 1 silently; now each exits 2 naming the flag, before
    // serve opens DIR and before count writes a checkpoint directory.
    let dir = tmp("zero_sizes");
    let updates_file = dir.join("updates.txt");
    write_updates_file(&updates_file, &script(12, 40, true));
    let node_dir = dir.join("node");
    for flag in ["--shards", "--wal-block", "--ring-capacity"] {
        let out = Command::new(BIN)
            .arg("serve")
            .arg(&node_dir)
            .args([flag, "0"])
            .output()
            .expect("run sgs serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "serve {flag} 0: {stderr}");
        assert!(
            stderr.contains(&format!("{flag}: invalid value '0'")),
            "serve {flag} 0: {stderr}"
        );
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("LISTENING"),
            "serve {flag} 0 started listening"
        );
        assert!(!node_dir.exists(), "serve {flag} 0 opened the node");
    }
    let ckpt_dir = dir.join("ckpt");
    let count = |extra: &[&str]| {
        Command::new(BIN)
            .arg("count")
            .arg("--updates")
            .arg(&updates_file)
            .args(["--pattern", "triangle", "--turnstile"])
            .args(extra)
            .output()
            .expect("run sgs count")
    };
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "triangle trials=20\n").unwrap();
    let q = queries.to_str().unwrap();
    let c = ckpt_dir.to_str().unwrap();
    for (flag, extra) in [
        ("--shards", vec!["--shards", "0"]),
        ("--shards", vec!["--queries", q, "--shards", "0"]),
        (
            "--wal-block",
            vec!["--checkpoint-dir", c, "--wal-block", "0"],
        ),
        ("--trials", vec!["--trials", "0"]),
    ] {
        let out = count(&extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "count {extra:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag}: invalid value '0'")),
            "count {extra:?}: {stderr}"
        );
    }
    assert!(!ckpt_dir.exists(), "count --wal-block 0 wrote a checkpoint");
    // `--block 0` keeps its meaning: the scalar feed path, same bits.
    let bits = |block: &str| {
        let out = count(&["--trials", "40", "--seed", "3", "--bits", "--block", block]);
        assert!(out.status.success(), "count --block {block}");
        String::from_utf8_lossy(&out.stdout)
            .split("bits=")
            .nth(1)
            .expect("--bits output")
            .trim()
            .to_string()
    };
    assert_eq!(bits("0"), bits("128"));
}

/// `sgs count --edges` through the binary: a dirty copy of a clean edge
/// list (header comments, blank lines, CRLF endings, reversed duplicates
/// with a trailing weight, self-loops) holds the same edges in the same
/// first-appearance order, so every shape prints the clean file's bits.
/// A malformed line and ids too sparse for the edge count exit 2 naming
/// the line, from `count` and `info` alike.
#[test]
fn dirty_edge_lists_count_like_clean_ones_and_bad_ones_exit_2() {
    let dir = tmp("edge_lists");
    let edges: Vec<(u32, u32)> = script(30, 160, false)
        .into_iter()
        .map(|(u, v, _)| (u, v))
        .collect();
    let clean_file = dir.join("clean.txt");
    let mut clean = String::new();
    for &(u, v) in &edges {
        clean.push_str(&format!("{u} {v}\n"));
    }
    std::fs::write(&clean_file, &clean).unwrap();
    let dirty_file = dir.join("dirty.txt");
    let mut dirty = String::from("# SNAP-style header\r\n% 160 edges\r\n\r\n");
    for (i, &(u, v)) in edges.iter().enumerate() {
        dirty.push_str(&format!("{u}\t{v}\r\n"));
        if i % 3 == 0 {
            dirty.push_str(&format!("{v} {u} 1.5\r\n"));
        }
        if i % 5 == 0 {
            // 999 would raise n if a self-loop counted toward it.
            dirty.push_str(&format!("{u} {u}\r\n  \r\n999 999\r\n"));
        }
    }
    std::fs::write(&dirty_file, &dirty).unwrap();
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "triangle trials=300\nC4 trials=200 relaxed\n").unwrap();
    let q = queries.to_str().unwrap();

    let bits = |file: &Path, shape: &[&str]| {
        let out = Command::new(BIN)
            .arg("count")
            .arg("--edges")
            .arg(file)
            .args(["--bits", "--seed", "5"])
            .args(shape)
            .output()
            .expect("run sgs count");
        assert!(
            out.status.success(),
            "count {shape:?} on {}: {}",
            file.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let all: Vec<u64> = stdout
            .lines()
            .filter(|l| l.contains("bits="))
            .map(bits_of)
            .collect();
        assert!(!all.is_empty(), "no bits in: {stdout}");
        all
    };
    for shape in [
        &["--pattern", "triangle", "--trials", "2000"][..],
        &["--pattern", "triangle", "--trials", "2000", "--shards", "2"],
        &["--queries", q, "--shards", "2"],
        &["--pattern", "triangle", "--trials", "300", "--turnstile"],
    ] {
        assert_eq!(
            bits(&dirty_file, shape),
            bits(&clean_file, shape),
            "{shape:?}"
        );
    }

    let bad_file = dir.join("bad.txt");
    std::fs::write(&bad_file, format!("{clean}3 x\n")).unwrap();
    let sparse = dir.join("sparse.txt");
    std::fs::write(&sparse, "0 300000000\n").unwrap();
    let widest = dir.join("widest.txt");
    std::fs::write(&widest, "0 4294967295\n").unwrap();
    let bad_line = format!("line {}: bad target", edges.len() + 1);
    for (file, want) in [
        (&bad_file, bad_line.as_str()),
        (
            &sparse,
            "line 1: vertex id 300000000 is too sparse for 1 edge",
        ),
        (
            &widest,
            "line 1: vertex id 4294967295 is too sparse for 1 edge",
        ),
    ] {
        for cmd in ["count", "info"] {
            let out = Command::new(BIN)
                .arg(cmd)
                .arg("--edges")
                .arg(file)
                .args(["--pattern", "triangle"])
                .output()
                .expect("run sgs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{cmd} {}: {stderr}",
                file.display()
            );
            assert!(stderr.contains(want), "{cmd} {}: {stderr}", file.display());
        }
    }
}

#[test]
fn invalid_eps_is_refused_before_the_node_opens() {
    let dir = tmp("bad_eps");
    let updates = script(12, 40, false);
    let updates_file = dir.join("updates.txt");
    write_updates_file(&updates_file, &updates);
    let node_dir = dir.join("node");
    for bad in ["0", "-0.5", "NaN", "inf", "abc"] {
        let out = Command::new(BIN)
            .arg("serve")
            .arg(&node_dir)
            .args(["--eps", bad])
            .output()
            .expect("run sgs serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "serve --eps {bad}: {stderr}");
        assert!(
            stderr.contains(&format!("--eps: invalid value '{bad}'")),
            "serve --eps {bad}: {stderr}"
        );
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("LISTENING"),
            "serve --eps {bad} started listening"
        );
        assert!(!node_dir.exists(), "serve --eps {bad} opened the node");

        let out = Command::new(BIN)
            .arg("count")
            .arg("--updates")
            .arg(&updates_file)
            .args(["--pattern", "triangle", "--eps", bad])
            .output()
            .expect("run sgs count");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "count --eps {bad}: {stderr}");
        assert!(
            stderr.contains(&format!("--eps: invalid value '{bad}'")),
            "count --eps {bad}: {stderr}"
        );
    }

    let proc = spawn_serve(&node_dir, &["--eps", "2", "--seed", "1"]);
    let mut s = Session::connect(&proc.addr);
    ingest_all(&mut s, &updates, 0);
    let live = bits_of(&s.send("COUNT triangle"));
    let batch = batch_bits(
        &updates_file,
        &["--pattern", "triangle", "--eps", "2", "--seed", "1"],
    );
    assert_eq!(live, batch, "defaulted COUNT diverged from batch");
    assert_eq!(s.send("QUIT"), "BYE");
    wait_shutdown(proc);
}

/// A solo `sgs count` is a one-job multiplexed run: it prints the bits of
/// a one-line `--queries` file asking the same pattern, trials and seed,
/// in both models, at 1 and 2 shards, on the scoped and broadcast
/// engines.
#[test]
fn solo_count_prints_the_bits_of_a_one_line_queries_file() {
    let dir = tmp("solo_is_one_job");
    let edges_file = dir.join("edges.txt");
    let mut text = String::new();
    for (u, v, _) in script(30, 200, false) {
        text.push_str(&format!("{u} {v}\n"));
    }
    std::fs::write(&edges_file, text).unwrap();
    let queries = dir.join("queries.txt");
    let run = |args: &[&str]| {
        let out = Command::new(BIN)
            .arg("count")
            .arg("--edges")
            .arg(&edges_file)
            .args(["--bits", "--seed", "9"])
            .args(args)
            .output()
            .expect("run sgs count");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        bits_of(std::str::from_utf8(&out.stdout).unwrap())
    };
    for (model, trials) in [(None, "800"), (Some("--turnstile"), "300")] {
        std::fs::write(&queries, format!("triangle trials={trials} seed=9\n")).unwrap();
        for shards in ["1", "2"] {
            for engine in [None, Some("--broadcast")] {
                let extra: Vec<&str> = model.into_iter().chain(engine).collect();
                let mut solo = vec![
                    "--pattern",
                    "triangle",
                    "--trials",
                    trials,
                    "--shards",
                    shards,
                ];
                solo.extend(&extra);
                let mut one_line = vec!["--queries", queries.to_str().unwrap(), "--shards", shards];
                one_line.extend(&extra);
                assert_eq!(run(&solo), run(&one_line), "{extra:?} at {shards} shard(s)");
            }
        }
    }
}

/// A trial count the host cannot hold is refused before anything is
/// allocated: `sgs count` exits 2 naming the flag or file, and a serve
/// node answers `ERR` and keeps serving.
#[test]
fn oversized_trial_counts_are_refused_and_the_node_keeps_serving() {
    let dir = tmp("trial_admission");
    let edges_file = dir.join("edges.txt");
    let mut text = String::new();
    for (u, v, _) in script(30, 200, false) {
        text.push_str(&format!("{u} {v}\n"));
    }
    std::fs::write(&edges_file, text).unwrap();
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "triangle trials=1000000000000\n").unwrap();
    let q = queries.to_str().unwrap();
    // Without a readable MemAvailable only an overflowing estimate
    // refuses, so the memory-bounded cases need it.
    let bounded = sgs_query::available_memory().is_some();
    let mut cases: Vec<(Vec<&str>, &str)> = vec![(
        vec!["--pattern", "triangle", "--trials", "18446744073709551615"],
        "--trials",
    )];
    if bounded {
        cases.push((
            vec!["--pattern", "triangle", "--trials", "100000000000"],
            "--trials",
        ));
        cases.push((vec!["--queries", q], q));
    }
    for (args, named) in cases {
        let out = Command::new(BIN)
            .arg("count")
            .arg("--edges")
            .arg(&edges_file)
            .arg("--turnstile")
            .args(&args)
            .output()
            .expect("run sgs count");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(named) && stderr.contains("trials"),
            "{args:?}: {stderr}"
        );
    }
    if !bounded {
        return;
    }
    let node_dir = dir.join("node");
    let proc = spawn_serve(&node_dir, &[]);
    let mut s = Session::connect(&proc.addr);
    let updates = script(12, 40, false);
    ingest_all(&mut s, &updates, 0);
    let refused = s.send("COUNT triangle trials=1000000000000 turnstile");
    assert!(
        refused.starts_with("ERR ") && refused.contains("1000000000000 trials"),
        "{refused}"
    );
    let ok = s.send("COUNT triangle trials=50 seed=3 turnstile");
    assert!(ok.starts_with("OK #triangle"), "{ok}");
    let stat = s.send("STAT");
    assert!(stat.starts_with("OK updates=40"), "{stat}");
    assert_eq!(s.send("QUIT"), "BYE");
    wait_shutdown(proc);
}
