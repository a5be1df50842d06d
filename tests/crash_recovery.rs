//! Kill-and-restore crash-recovery harness — the durability subsystem's
//! headline guarantee, pinned end to end:
//!
//! For EVERY delivery-block boundary a checkpointed run can crash at,
//! `CheckpointSession::resume` + rerun produces an estimate
//! **byte-identical** to the uninterrupted run — same estimate bits,
//! hits, `m`, trials, and full [`ExecReport`] — at shards 1/2/4, in both
//! stream models, with both reservoir acceptance schemes. The sweep
//! enumerates crash points exhaustively rather than sampling them: the
//! recovery path has per-block state (snapshot cadence, mid-pass
//! offsets, round-history replay) where an off-by-one only shows at
//! specific boundaries.
//!
//! The failure edges ride along: a damaged WAL tail (truncation or bit
//! rot) and a version-bumped or bit-flipped snapshot must produce clean
//! structured errors — never a panic, never a silently wrong answer.

use sgs_core::fgp::{estimate, estimate_checkpointed, MultiQuerySpec};
use sgs_query::{CheckpointSession, Engine, ExecPolicy, PassOpts, RouterArena};
use sgs_stream::persist::PersistError;
use sgs_stream::reservoir::ReservoirMode;
use sgs_stream::{ShardMap, ShardedFeed};
use subgraph_streams::prelude::*;

const SEED: u64 = 41;
const CHUNK: usize = 32;
const SNAP_EVERY: u64 = 2;

#[derive(Clone, Copy)]
enum Cfg {
    InsertionOffer,
    InsertionSkip,
    Turnstile,
}

impl Cfg {
    fn trials(self) -> usize {
        match self {
            Cfg::Turnstile => 120,
            _ => 200,
        }
    }

    fn opts(self) -> PassOpts {
        PassOpts::with_block(16).reservoir(match self {
            Cfg::InsertionOffer => ReservoirMode::Offer,
            _ => ReservoirMode::Skip,
        })
    }

    fn model(self) -> RouterMode {
        match self {
            Cfg::Turnstile => RouterMode::Turnstile,
            _ => RouterMode::Insertion,
        }
    }

    /// The triangle estimate every run of this configuration makes.
    fn spec(self) -> MultiQuerySpec {
        MultiQuerySpec {
            reservoir: self.opts().reservoir,
            ..MultiQuerySpec::new(Pattern::triangle(), self.trials(), SEED)
        }
    }

    /// The same estimate without checkpoints.
    fn plain(self, feed: &ShardedFeed) -> CountEstimate {
        let mut arena = RouterArena::new();
        let engine = Engine::Sharded(ExecPolicy::default());
        let specs = [self.spec()];
        let (mut ests, _) =
            estimate(&specs, self.model(), feed, &mut arena, self.opts(), engine).unwrap();
        ests.pop().unwrap()
    }
}

fn feed_for(cfg: Cfg, shards: usize) -> ShardedFeed {
    let g = sgs_graph::gen::gnm(30, 140, 41);
    match cfg {
        Cfg::Turnstile => {
            let s = TurnstileStream::from_graph_with_churn(&g, 0.5, 42);
            ShardedFeed::partition(&s, shards)
        }
        _ => {
            let s = InsertionStream::from_graph(&g, 42);
            ShardedFeed::partition(&s, shards)
        }
    }
}

/// One checkpointed estimation attempt; `None` means the session's
/// simulated crash point fired.
fn drive(cfg: Cfg, feed: &ShardedFeed, session: &mut CheckpointSession) -> Option<CountEstimate> {
    let mut arena = RouterArena::new();
    estimate_checkpointed(
        &cfg.spec(),
        cfg.model(),
        feed,
        &mut arena,
        cfg.opts(),
        session,
    )
    .expect("checkpointed run must not error")
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("sgs-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn assert_identical(rec: &CountEstimate, base: &CountEstimate, ctx: &str) {
    assert_eq!(
        rec.estimate.to_bits(),
        base.estimate.to_bits(),
        "estimate bits differ: {ctx}"
    );
    assert_eq!(rec.hits, base.hits, "hits differ: {ctx}");
    assert_eq!(rec.m, base.m, "m differs: {ctx}");
    assert_eq!(rec.trials, base.trials, "trials differ: {ctx}");
    assert_eq!(rec.report, base.report, "exec report differs: {ctx}");
}

/// Crash after every block 1..=total, recover, demand bytewise equality.
fn sweep(cfg: Cfg, tag: &str) {
    for shards in [1usize, 2, 4] {
        let feed = feed_for(cfg, shards);
        let dir = tmp_dir(&format!("{tag}-base-{shards}"));
        let mut session = CheckpointSession::create(&dir, &feed, SNAP_EVERY, CHUNK).unwrap();
        let base = drive(cfg, &feed, &mut session).expect("uninterrupted run completes");
        let total_blocks = session.blocks_processed();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(total_blocks >= 4, "workload too small to crash anywhere");
        for crash_at in 1..=total_blocks {
            let dir = tmp_dir(&format!("{tag}-{shards}-{crash_at}"));
            let mut session = CheckpointSession::create(&dir, &feed, SNAP_EVERY, CHUNK).unwrap();
            session.set_crash_after(crash_at);
            assert!(
                drive(cfg, &feed, &mut session).is_none(),
                "crash point {crash_at} did not fire"
            );
            drop(session);
            let (mut session, wal_feed) = CheckpointSession::resume(&dir, SNAP_EVERY).unwrap();
            assert!(session.truncation_report().is_none());
            let rec = drive(cfg, &wal_feed, &mut session).expect("recovered run completes");
            assert_identical(
                &rec,
                &base,
                &format!("{tag}, {shards} shards, crash after block {crash_at}/{total_blocks}"),
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn insertion_offer_recovers_byte_identical_at_every_crash_point() {
    sweep(Cfg::InsertionOffer, "ins-offer");
}

#[test]
fn insertion_skip_recovers_byte_identical_at_every_crash_point() {
    sweep(Cfg::InsertionSkip, "ins-skip");
}

#[test]
fn turnstile_recovers_byte_identical_at_every_crash_point() {
    sweep(Cfg::Turnstile, "tst");
}

/// The checkpointed baseline is not its own universe: it must agree with
/// the plain (non-durable) executors on the estimate itself, so the
/// crash sweep above transitively pins recovery to the ordinary answer.
#[test]
fn checkpointed_baseline_matches_plain_executors() {
    for shards in [1usize, 2, 4] {
        let feed = feed_for(Cfg::InsertionSkip, shards);
        let dir = tmp_dir(&format!("plain-ins-{shards}"));
        let mut session = CheckpointSession::create(&dir, &feed, SNAP_EVERY, CHUNK).unwrap();
        let ckpt = drive(Cfg::InsertionSkip, &feed, &mut session).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let plain = Cfg::InsertionSkip.plain(&feed);
        assert_eq!(ckpt.estimate.to_bits(), plain.estimate.to_bits());
        assert_eq!(ckpt.hits, plain.hits);
        assert_eq!(ckpt.m, plain.m);
        assert_eq!(ckpt.trials, plain.trials);

        let feed = feed_for(Cfg::Turnstile, shards);
        let dir = tmp_dir(&format!("plain-tst-{shards}"));
        let mut session = CheckpointSession::create(&dir, &feed, SNAP_EVERY, CHUNK).unwrap();
        let ckpt = drive(Cfg::Turnstile, &feed, &mut session).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let plain = Cfg::Turnstile.plain(&feed);
        assert_eq!(ckpt.estimate.to_bits(), plain.estimate.to_bits());
        assert_eq!(ckpt.hits, plain.hits);
        assert_eq!(ckpt.m, plain.m);
    }
}

// ---------------------------------------------------------------------
// Failure edges: damaged directories must error cleanly, never panic,
// never return a wrong answer.
// ---------------------------------------------------------------------

/// Crash a run so the directory holds a sealed WAL plus a snapshot, and
/// hand the paths back for mutilation.
fn crashed_dir(tag: &str) -> (std::path::PathBuf, ShardedFeed) {
    let feed = feed_for(Cfg::InsertionSkip, 2);
    let dir = tmp_dir(tag);
    let mut session = CheckpointSession::create(&dir, &feed, SNAP_EVERY, CHUNK).unwrap();
    session.set_crash_after(3);
    assert!(drive(Cfg::InsertionSkip, &feed, &mut session).is_none());
    assert!(
        session.snapshots_written() >= 1,
        "need a snapshot to damage"
    );
    (dir, feed)
}

fn wal_segments(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut v: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let n = p.file_name().unwrap().to_string_lossy().into_owned();
            n.starts_with("wal-") && n.ends_with(".seg")
        })
        .collect();
    v.sort();
    v
}

fn snapshot_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut v: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let n = p.file_name().unwrap().to_string_lossy().into_owned();
            n.starts_with("snap-") && n.ends_with(".bin")
        })
        .collect();
    v.sort();
    v
}

#[test]
fn damaged_wal_tail_errors_cleanly_never_panics() {
    let (dir, _feed) = crashed_dir("torn-wal");
    let seg = wal_segments(&dir).pop().expect("a WAL segment exists");
    let good = std::fs::read(&seg).unwrap();
    // Torn tails of every severity: losing any suffix loses the seal
    // record, so recovery must refuse — the ingest can no longer be
    // proven complete — with a structured error naming the cause.
    for cut in [1usize, 7, 64, good.len() / 2] {
        std::fs::write(&seg, &good[..good.len() - cut]).unwrap();
        let err = CheckpointSession::resume(&dir, SNAP_EVERY)
            .err()
            .expect("a torn WAL tail must not recover silently");
        let msg = err.to_string();
        assert!(msg.contains("unsealed"), "unexpected error: {msg}");
    }
    // Bit rot anywhere in the segment: the per-record checksum catches
    // every single-bit flip, so resume errors (or truncates to the last
    // good record and then refuses for the missing seal) — and never
    // panics or succeeds with different data.
    for pos in (0..good.len()).step_by(97) {
        let mut b = good.clone();
        b[pos] ^= 0x40;
        std::fs::write(&seg, &b).unwrap();
        assert!(
            CheckpointSession::resume(&dir, SNAP_EVERY).is_err(),
            "bit flip at byte {pos} went undetected"
        );
    }
    // Restoring the original bytes recovers again: the checks above
    // rejected the damage, not the directory.
    std::fs::write(&seg, &good).unwrap();
    CheckpointSession::resume(&dir, SNAP_EVERY).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn version_bumped_or_corrupt_snapshot_is_rejected_cleanly() {
    let (dir, _feed) = crashed_dir("bad-snap");
    let snap = snapshot_files(&dir).pop().expect("a snapshot exists");
    let good = std::fs::read(&snap).unwrap();
    // A snapshot from a future format version: explicit VersionMismatch
    // (checked before the checksum, so the error names the version).
    let mut bumped = good.clone();
    bumped[4] = bumped[4].wrapping_add(1);
    std::fs::write(&snap, &bumped).unwrap();
    let err = CheckpointSession::resume(&dir, SNAP_EVERY)
        .err()
        .expect("a version-bumped snapshot must be rejected");
    match err {
        PersistError::VersionMismatch {
            found, supported, ..
        } => {
            assert_eq!(found, sgs_stream::persist::PERSIST_VERSION + 1);
            assert_eq!(supported, sgs_stream::persist::PERSIST_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other}"),
    }
    // Bit rot inside the snapshot payload: checksum mismatch, clean error.
    for pos in (6..good.len()).step_by(131) {
        let mut b = good.clone();
        b[pos] ^= 0x01;
        std::fs::write(&snap, &b).unwrap();
        assert!(
            CheckpointSession::resume(&dir, SNAP_EVERY).is_err(),
            "snapshot bit flip at byte {pos} went undetected"
        );
    }
    std::fs::write(&snap, &good).unwrap();
    CheckpointSession::resume(&dir, SNAP_EVERY).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Directory-entry loss, benign flavor: the `MANIFEST` vanishes (its
/// rename was never made durable because the directory itself was not
/// fsynced — the failure mode the post-rename `fsync_dir` calls close).
/// Recovery must fall back to full WAL replay and still produce the
/// byte-identical answer: the manifest is an accelerator, not a source
/// of truth.
#[test]
fn lost_manifest_entry_recovers_via_full_wal_replay() {
    let feed = feed_for(Cfg::InsertionSkip, 2);
    let base_dir = tmp_dir("lost-manifest-base");
    let mut session = CheckpointSession::create(&base_dir, &feed, SNAP_EVERY, CHUNK).unwrap();
    let base = drive(Cfg::InsertionSkip, &feed, &mut session).expect("uninterrupted run completes");
    std::fs::remove_dir_all(&base_dir).unwrap();

    let (dir, _feed) = crashed_dir("lost-manifest");
    assert!(
        !snapshot_files(&dir).is_empty(),
        "a snapshot exists for the manifest to have pointed at"
    );
    std::fs::remove_file(dir.join("MANIFEST")).unwrap();
    let (mut session, wal_feed) =
        CheckpointSession::resume(&dir, SNAP_EVERY).expect("resume survives a lost MANIFEST");
    assert_eq!(
        session.blocks_processed(),
        0,
        "without a manifest there is no snapshot to restore; replay starts from block 0"
    );
    let rec = drive(Cfg::InsertionSkip, &wal_feed, &mut session).expect("recovered run completes");
    assert_identical(&rec, &base, "lost MANIFEST, full WAL replay");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Directory-entry loss, fatal flavor: the `MANIFEST` survived but the
/// snapshot file it points at is gone. The manifest is the authority
/// here — recovery must refuse with a structured error naming the
/// missing snapshot, never panic, and never silently replay as if no
/// snapshot had been published (that answer could differ from what a
/// concurrent reader already saw).
#[test]
fn manifest_pointing_at_missing_snapshot_errors_cleanly() {
    let (dir, _feed) = crashed_dir("lost-snap");
    let snap = snapshot_files(&dir).pop().expect("a snapshot exists");
    std::fs::remove_file(&snap).unwrap();
    let err = CheckpointSession::resume(&dir, SNAP_EVERY)
        .err()
        .expect("a dangling MANIFEST pointer must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("missing snapshot") && msg.contains("directory entry lost?"),
        "unexpected error: {msg}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Placement-aware recovery: a feed partitioned under a *non-uniform*
/// [`ShardMap`] (load-balancing overrides) must checkpoint and resume
/// into the **same** placement — the v2 WAL seal carries the override
/// table — and the recovered run must stay byte-identical to the
/// uninterrupted one. Before the map travelled in the seal, resume
/// rebuilt the feed under the uniform hash and rejected every override
/// loudly; the uniform-only constructor still does, which this test
/// pins as the guard against silently mis-homed recoveries.
#[test]
fn placement_overrides_survive_checkpoint_recovery() {
    let g = sgs_graph::gen::gnm(30, 140, 41);
    let s = InsertionStream::from_graph(&g, 42);
    // Derive a skewed-but-real placement from the measured delivery
    // counts, exactly as a load-balancing caller would.
    let probe = ShardedFeed::partition(&s, 4);
    let counts = probe.vertex_delivery_counts();
    let map = ShardMap::balanced(4, &counts, 8);
    assert!(
        !map.is_uniform(),
        "balanced map produced no overrides; workload too flat to test"
    );
    let feed = ShardedFeed::partition_with_map(&s, map.clone());

    let cfg = Cfg::InsertionOffer;
    let dir = tmp_dir("placement-base");
    let mut session = CheckpointSession::create(&dir, &feed, SNAP_EVERY, CHUNK).unwrap();
    let base = drive(cfg, &feed, &mut session).expect("uninterrupted run completes");
    let total_blocks = session.blocks_processed();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(total_blocks >= 4, "workload too small to crash anywhere");

    for crash_at in [1, total_blocks / 2, total_blocks] {
        let dir = tmp_dir(&format!("placement-{crash_at}"));
        let mut session = CheckpointSession::create(&dir, &feed, SNAP_EVERY, CHUNK).unwrap();
        session.set_crash_after(crash_at);
        assert!(drive(cfg, &feed, &mut session).is_none());
        drop(session);
        let (mut session, wal_feed) = CheckpointSession::resume(&dir, SNAP_EVERY).unwrap();
        assert_eq!(
            wal_feed.shard_map(),
            feed.shard_map(),
            "recovered feed lost its placement overrides"
        );
        let rec = drive(cfg, &wal_feed, &mut session).expect("recovered run completes");
        assert_identical(
            &rec,
            &base,
            &format!("placement-aware recovery, crash after block {crash_at}/{total_blocks}"),
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Checkpoint directories written by an earlier `sgs` (see
/// `tests/fixtures/checkpoints/README.md`) still recover to the bits of
/// their plain runs: the snapshot layout did not change. Each snapshot
/// sits mid-pass, so recovery restores shard pass state — reservoir
/// banks for the relaxed insertion run, ℓ₀ banks for the turnstile run.
#[test]
fn checked_in_checkpoints_recover_to_their_plain_run_bits() {
    for (name, resumed_at, bits) in [
        ("insertion-relaxed", 10, "404c2ca92ea8ee22"),
        ("turnstile", 8, "4053a4c99b6c6988"),
    ] {
        let (out, dir) = recover_fixture(name);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{name}: {stdout} {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains(&format!(
                "resuming from snapshot: {resumed_at} delivery blocks"
            )),
            "{name}: {stdout}"
        );
        assert!(stdout.contains(&format!("bits={bits}")), "{name}: {stdout}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The `insertion-indexed` fixture snapshots mid-pass 3 under the old
/// per-trial sampler bank, which asked round 3 of every trial; the trial
/// bank asks fewer, so the snapshot's router state does not fit the
/// rebuilt batch. Recovery refuses it as incompatible (exit 2, naming the
/// round and both batch lengths), not as corrupt.
#[test]
fn a_checkpoint_of_the_old_round_3_batch_is_refused_as_incompatible() {
    let (out, dir) = recover_fixture("insertion-indexed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    for want in [
        "snapshot predates this trial bank",
        "round 3 asked 2408 queries",
        "this build asks 1820",
    ] {
        assert!(stderr.contains(want), "{stderr}");
    }
    assert!(!stderr.contains("corrupt"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Copy a checked-in checkpoint fixture to a temporary directory and run
/// `sgs recover DIR --bits` on the copy.
fn recover_fixture(name: &str) -> (std::process::Output, std::path::PathBuf) {
    let fixtures =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoints");
    let dir = std::env::temp_dir().join(format!("sgs-fixture-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(fixtures.join(name)).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sgs"))
        .arg("recover")
        .arg(&dir)
        .arg("--bits")
        .output()
        .expect("run sgs recover");
    (out, dir)
}
