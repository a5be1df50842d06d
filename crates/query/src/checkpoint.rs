//! Durable executor state: checkpointed drivers over a WAL + snapshots.
//!
//! The sharded/broadcast executors in this crate are deterministic: one
//! seed fixes every answer bit. That makes crash recovery a *replay*
//! problem, not a consensus problem, and this module solves it with two
//! on-disk artifacts in one checkpoint directory:
//!
//! * a **write-ahead log** of the routed stream, written (and fsynced)
//!   in full by [`CheckpointSession::create`] before any estimation
//!   work runs — the durable copy of the input, chunked into the same
//!   delivery blocks the driver later feeds; and
//! * periodic **snapshots** of the estimator mid-run: the completed
//!   rounds' answer history (enough to replay the round-adaptive
//!   algorithm itself, deterministically), the [`ExecReport`] counters,
//!   and every shard pass machine's mutable state (reservoir RNG words,
//!   position hits, ℓ₀ planes) at a delivery-block boundary of the
//!   in-flight pass.
//!
//! The driver runs the same shard machines ([`crate::sharded::PassMachine`])
//! through the same split → machines → merge step as every other engine,
//! each round a one-job plan; only its delivery loop is its own — it walks
//! the routed stream one WAL block at a time, so it can snapshot and stop
//! between blocks. A pass machine's snapshot is its router feed state plus
//! its banks: for an insertion machine the `f1` cursor and hits and one
//! reservoir-bank blob per plan participant, for a turnstile machine its
//! `f1` and neighbour ℓ₀ banks.
//!
//! Chunk boundaries never change an answer (the block-equivalence
//! property the broadcast ring relies on), so snapshotting *between*
//! blocks is answer-neutral: restore + resume is **byte-identical** to
//! the uninterrupted run — same estimate bits, same report — at every
//! crash point, shard count, model, and reservoir mode.
//! `tests/crash_recovery.rs` sweeps exactly that.
//!
//! Durability points: the WAL is fsynced at each segment roll and at
//! seal; each snapshot file is fsynced before the `MANIFEST` pointer is
//! atomically swung to it (write-to-temp + rename). A crash between
//! those points loses at most the un-pointed snapshot; recovery falls
//! back to the previous one (or a clean restart) and replays forward.
//! Torn WAL tails are detected by checksum and truncated at the last
//! good record boundary by [`sgs_stream::persist::read_wal`].

use crate::accounting::ExecReport;
use crate::arena::RouterArena;
use crate::exec::{PassOpts, ANSWER_BYTES};
use crate::multiplex::RoundPlan;
use crate::query::Answer;
use crate::round::RoundAdaptive;
use crate::router::RouterMode;
use crate::sharded::{begin_pass, end_pass, PassMachine, ShardOutcome};
use sgs_graph::VertexId;
use sgs_stream::hash::split_seed;
use sgs_stream::persist::{
    frame, publish_snapshot, read_frame_of, read_latest_snapshot, read_wal, Decoder, Encoder,
    PersistError, PersistResult, WalWriter, DEFAULT_SEGMENT_BYTES, KIND_SNAPSHOT,
};
use sgs_stream::reservoir::ReservoirMode;
use sgs_stream::sharded::{ShardUpdate, ShardedFeed};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Default delivery-block size (updates) for checkpointed runs: the WAL
/// block granularity and therefore the snapshot/crash-point resolution.
pub const DEFAULT_CHECKPOINT_CHUNK: usize = 1024;

/// Default snapshot cadence, in delivery blocks.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 8;

// ---------------------------------------------------------------------------
// Answer codec
// ---------------------------------------------------------------------------

fn encode_answer(enc: &mut Encoder, a: &Answer) {
    match *a {
        Answer::EdgeCount(m) => {
            enc.u8(0);
            enc.u64(m as u64);
        }
        Answer::Edge(e) => {
            enc.u8(1);
            match e {
                Some(e) => {
                    enc.u8(1);
                    enc.edge(e);
                }
                None => enc.u8(0),
            }
        }
        Answer::Degree(d) => {
            enc.u8(2);
            enc.u64(d as u64);
        }
        Answer::Neighbor(v) => {
            enc.u8(3);
            match v {
                Some(v) => {
                    enc.u8(1);
                    enc.u32(v.0);
                }
                None => enc.u8(0),
            }
        }
        Answer::Adjacent(b) => {
            enc.u8(4);
            enc.u8(b as u8);
        }
    }
}

fn decode_answer(dec: &mut Decoder) -> PersistResult<Answer> {
    Ok(match dec.u8("answer tag")? {
        0 => Answer::EdgeCount(dec.u64("edge count")? as usize),
        1 => Answer::Edge(match dec.u8("edge presence")? {
            0 => None,
            1 => Some(dec.edge("answer edge")?),
            _ => return Err(dec.corrupt("edge presence byte is not 0/1")),
        }),
        2 => Answer::Degree(dec.u64("degree")? as usize),
        3 => Answer::Neighbor(match dec.u8("neighbor presence")? {
            0 => None,
            1 => Some(VertexId(dec.u32("neighbor vertex")?)),
            _ => return Err(dec.corrupt("neighbor presence byte is not 0/1")),
        }),
        4 => Answer::Adjacent(match dec.u8("adjacency")? {
            0 => false,
            1 => true,
            _ => return Err(dec.corrupt("adjacency byte is not 0/1")),
        }),
        t => return Err(dec.corrupt(format!("unknown answer tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Snapshot payload
// ---------------------------------------------------------------------------

/// A decoded estimator snapshot: everything needed to resume the run
/// from one delivery-block boundary of one in-flight pass.
struct SnapshotState {
    /// 0 = insertion, 1 = turnstile — must match the resuming driver.
    model: u8,
    shards: u64,
    chunk: u64,
    block: u64,
    reservoir: u8,
    seed: u64,
    report: ExecReport,
    /// Answers of every *completed* round, in order — replayed through
    /// `RoundAdaptive::next_round` to rebuild the algorithm state.
    history: Vec<Vec<Answer>>,
    /// Global delivery blocks processed when the snapshot was taken.
    blocks_done: u64,
    /// Delivery blocks already fed into the in-flight pass.
    pass_offset: u64,
    /// One serialized pass-state blob per shard.
    shard_blobs: Vec<Vec<u8>>,
}

fn reservoir_tag(mode: ReservoirMode) -> u8 {
    match mode {
        ReservoirMode::Offer => 0,
        ReservoirMode::Skip => 1,
    }
}

#[allow(clippy::too_many_arguments)]
fn encode_snapshot(
    model: u8,
    shards: usize,
    chunk: usize,
    opts: PassOpts,
    seed: u64,
    report: &ExecReport,
    history: &[Vec<Answer>],
    blocks_done: u64,
    pass_offset: u64,
    shard_blobs: &[Vec<u8>],
) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u8(model);
    enc.u64(shards as u64);
    enc.u64(chunk as u64);
    enc.u64(opts.block as u64);
    enc.u8(reservoir_tag(opts.reservoir));
    enc.u64(seed);
    enc.u64(report.rounds as u64);
    enc.u64(report.passes as u64);
    enc.u64(report.queries as u64);
    enc.u64(report.max_pass_space_bytes as u64);
    enc.u64(report.answer_bytes as u64);
    enc.u64(history.len() as u64);
    for round in history {
        enc.u64(round.len() as u64);
        for a in round {
            encode_answer(&mut enc, a);
        }
    }
    enc.u64(blocks_done);
    enc.u64(pass_offset);
    enc.u64(shard_blobs.len() as u64);
    for b in shard_blobs {
        enc.blob(b);
    }
    frame(KIND_SNAPSHOT, &enc.into_bytes())
}

fn decode_snapshot(bytes: &[u8]) -> PersistResult<SnapshotState> {
    let f = read_frame_of(bytes, 0, KIND_SNAPSHOT)?;
    let mut dec = Decoder::new(f.payload);
    let model = dec.u8("snapshot model")?;
    if model > 1 {
        return Err(dec.corrupt(format!("unknown snapshot model {model}")));
    }
    let shards = dec.u64("shard count")?;
    let chunk = dec.u64("chunk size")?;
    let block = dec.u64("feed block size")?;
    let reservoir = dec.u8("reservoir mode")?;
    if reservoir > 1 {
        return Err(dec.corrupt("reservoir mode byte is not 0/1"));
    }
    let seed = dec.u64("run seed")?;
    let report = ExecReport {
        rounds: dec.u64("rounds")? as usize,
        passes: dec.u64("passes")? as usize,
        queries: dec.u64("queries")? as usize,
        max_pass_space_bytes: dec.u64("max pass space")? as usize,
        answer_bytes: dec.u64("answer bytes")? as usize,
    };
    let rounds = dec.count(8, "answer history")?;
    let mut history = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let len = dec.count(2, "round answers")?;
        let mut round = Vec::with_capacity(len);
        for _ in 0..len {
            round.push(decode_answer(&mut dec)?);
        }
        history.push(round);
    }
    let blocks_done = dec.u64("blocks done")?;
    let pass_offset = dec.u64("pass offset")?;
    let nblobs = dec.count(8, "shard states")?;
    if nblobs as u64 != shards {
        return Err(dec.corrupt(format!(
            "snapshot has {nblobs} shard states for {shards} shards"
        )));
    }
    let mut shard_blobs = Vec::with_capacity(nblobs);
    for _ in 0..nblobs {
        shard_blobs.push(dec.blob("shard state")?.to_vec());
    }
    dec.finish()?;
    Ok(SnapshotState {
        model,
        shards,
        chunk,
        block,
        reservoir,
        seed,
        report,
        history,
        blocks_done,
        pass_offset,
        shard_blobs,
    })
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// One durable run: a checkpoint directory holding the sealed WAL of
/// the routed stream plus zero or more snapshots, and the in-memory
/// cadence/progress counters the checkpointed drivers consult.
///
/// Lifecycle: [`CheckpointSession::create`] ingests a feed into the WAL
/// (the durable copy of the stream) and starts fresh;
/// [`CheckpointSession::resume`] rebuilds the feed from the WAL and
/// loads the latest snapshot, if any. Either way the session is then
/// passed to [`run_checkpointed`].
pub struct CheckpointSession {
    dir: PathBuf,
    snapshot_every: u64,
    chunk: usize,
    crash_after: Option<u64>,
    blocks_processed: u64,
    snapshots_written: u64,
    next_snapshot_seq: u64,
    resume: Option<SnapshotState>,
    truncation: Option<String>,
}

impl CheckpointSession {
    /// Start a fresh durable run: clear `dir` of any previous run's
    /// files, write the feed's routed stream to the WAL in
    /// `chunk`-update blocks, and seal it. After this returns, the
    /// input is durable — a crashed run can be resumed from `dir`
    /// alone. `snapshot_every` is the snapshot cadence in delivery
    /// blocks (`0` = WAL only, no snapshots).
    pub fn create(
        dir: &Path,
        feed: &ShardedFeed,
        snapshot_every: u64,
        chunk: usize,
    ) -> PersistResult<Self> {
        let chunk = chunk.max(1);
        let mut wal = WalWriter::create(dir, DEFAULT_SEGMENT_BYTES)?;
        for block in feed.routed().chunks(chunk) {
            wal.append_block(block)?;
        }
        wal.seal_with_map(feed.num_vertices(), feed.shard_map(), chunk)?;
        Ok(CheckpointSession {
            dir: dir.to_path_buf(),
            snapshot_every,
            chunk,
            crash_after: None,
            blocks_processed: 0,
            snapshots_written: 0,
            next_snapshot_seq: 0,
            resume: None,
            truncation: None,
        })
    }

    /// Resume a durable run from its checkpoint directory: scan the WAL
    /// (truncating a torn tail if one is found), rebuild the routed
    /// feed, and load the latest published snapshot. An unsealed WAL is
    /// an error — the ingest phase never completed, so there is no
    /// consistent stream to resume.
    pub fn resume(dir: &Path, snapshot_every: u64) -> PersistResult<(Self, ShardedFeed)> {
        let wal = read_wal(dir)?;
        let meta = wal.meta.ok_or_else(|| {
            PersistError::corrupt(0, "WAL is unsealed: the ingest phase never completed")
                .located(dir)
        })?;
        let routed = wal.blocks.concat();
        // The seal carries the placement (uniform hash + overrides) the
        // stream was routed with; recovery validates the routed buffer
        // against it, so a load-balanced run resumes into its placement.
        let feed = ShardedFeed::from_routed_with_map(
            meta.num_vertices as usize,
            meta.shard_map(),
            routed,
        )?;
        let snap = match read_latest_snapshot(dir)? {
            Some((seq, payload)) => {
                let snap = decode_snapshot(&payload)
                    .map_err(|e| e.located(dir.join(format!("snap-{seq:08}.bin"))))?;
                Some((seq, snap))
            }
            None => None,
        };
        let (next_seq, resume, blocks_processed) = match snap {
            Some((seq, snap)) => {
                let blocks = snap.blocks_done;
                (seq + 1, Some(snap), blocks)
            }
            None => (0, None, 0),
        };
        Ok((
            CheckpointSession {
                dir: dir.to_path_buf(),
                snapshot_every,
                chunk: meta.block_len.max(1) as usize,
                crash_after: None,
                blocks_processed,
                snapshots_written: 0,
                next_snapshot_seq: next_seq,
                resume,
                truncation: wal.truncation,
            },
            feed,
        ))
    }

    /// Simulate a crash: the driver returns `Ok(None)` immediately
    /// after processing global delivery block number `blocks` (1-based,
    /// counted across passes). Test-harness hook; a real crash at the
    /// same point is indistinguishable to recovery.
    pub fn set_crash_after(&mut self, blocks: u64) {
        self.crash_after = Some(blocks);
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Delivery-block size of this session (WAL block granularity).
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Global delivery blocks processed so far (across passes).
    pub fn blocks_processed(&self) -> u64 {
        self.blocks_processed
    }

    /// Snapshots published by this process (not counting ones a
    /// resumed-from directory already held).
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots_written
    }

    /// Human-readable report if resuming truncated a torn WAL tail.
    pub fn truncation_report(&self) -> Option<&str> {
        self.truncation.as_deref()
    }

    /// Whether this session loaded a snapshot to resume from.
    pub fn has_resume_state(&self) -> bool {
        self.resume.is_some()
    }

    #[allow(clippy::too_many_arguments)]
    fn publish(
        &mut self,
        model: u8,
        shards: usize,
        opts: PassOpts,
        seed: u64,
        report: &ExecReport,
        history: &[Vec<Answer>],
        pass_offset: u64,
        shard_blobs: &[Vec<u8>],
    ) -> PersistResult<()> {
        let payload = encode_snapshot(
            model,
            shards,
            self.chunk,
            opts,
            seed,
            report,
            history,
            self.blocks_processed,
            pass_offset,
            shard_blobs,
        );
        publish_snapshot(&self.dir, self.next_snapshot_seq, &payload)?;
        self.next_snapshot_seq += 1;
        self.snapshots_written += 1;
        Ok(())
    }

    /// Validate a loaded snapshot against the resuming driver's
    /// configuration and hand it over.
    fn take_resume(
        &mut self,
        model: u8,
        shards: usize,
        opts: PassOpts,
        seed: u64,
    ) -> PersistResult<Option<SnapshotState>> {
        let Some(snap) = self.resume.take() else {
            return Ok(None);
        };
        let mismatch = |what: &str, found: u64, expected: u64| {
            Err(PersistError::corrupt(
                0,
                format!("snapshot {what} is {found}, resuming run expects {expected}"),
            )
            .located(&self.dir))
        };
        if snap.model != model {
            return mismatch("model", snap.model as u64, model as u64);
        }
        if snap.shards != shards as u64 {
            return mismatch("shard count", snap.shards, shards as u64);
        }
        if snap.chunk != self.chunk as u64 {
            return mismatch("chunk size", snap.chunk, self.chunk as u64);
        }
        if snap.block != opts.block as u64 {
            return mismatch("feed block size", snap.block, opts.block as u64);
        }
        if snap.reservoir != reservoir_tag(opts.reservoir) {
            return mismatch(
                "reservoir mode",
                snap.reservoir as u64,
                reservoir_tag(opts.reservoir) as u64,
            );
        }
        if snap.seed != seed {
            return mismatch("run seed", snap.seed, seed);
        }
        Ok(Some(snap))
    }
}

// ---------------------------------------------------------------------------
// Checkpointed drivers
// ---------------------------------------------------------------------------

/// Replay a snapshot's completed-round answers through the algorithm to
/// rebuild its internal state. Returns the last round's answers — the
/// input to the next `next_round` call (the in-flight round).
fn replay_history<A: RoundAdaptive>(
    alg: &mut A,
    history: &[Vec<Answer>],
) -> PersistResult<Vec<Answer>> {
    let mut answers: Vec<Answer> = Vec::new();
    for round in history {
        let batch = alg.next_round(&answers);
        if batch.is_empty() {
            return Err(PersistError::corrupt(
                0,
                "snapshot history is longer than the algorithm's round count",
            ));
        }
        if batch.len() != round.len() {
            return Err(PersistError::corrupt(
                0,
                format!(
                    "snapshot round has {} answers for a batch of {} queries",
                    round.len(),
                    batch.len()
                ),
            ));
        }
        answers = round.clone();
    }
    Ok(answers)
}

/// Execute a round-adaptive algorithm as a checkpointed streaming run in
/// `model`: byte-identical to the same one-job [`crate::QuerySet::run`],
/// feeding every shard pass machine one WAL block at a time on this
/// thread so estimator state can be snapshotted at delivery-block
/// boundaries. Each round is a one-job plan through the same
/// [`begin_pass`] → [`PassMachine`] → [`end_pass`] step every engine
/// runs; only the delivery loop is this driver's own. `opts.reservoir` is
/// the run's reservoir mode (turnstile passes have no reservoirs).
///
/// Returns `Ok(None)` iff the session's simulated crash point was hit;
/// otherwise the same `(output, report)` the uninterrupted executors
/// produce. If the session carries resume state (from
/// [`CheckpointSession::resume`]), the run fast-forwards through the
/// snapshot's answer history and picks the in-flight pass up at its
/// recorded block offset.
pub fn run_checkpointed<A: RoundAdaptive>(
    model: RouterMode,
    mut alg: A,
    feed: &ShardedFeed,
    seed: u64,
    arena: &mut RouterArena,
    opts: PassOpts,
    session: &mut CheckpointSession,
) -> PersistResult<Option<(A::Output, ExecReport)>> {
    let shards = feed.num_shards();
    let chunk = session.chunk;
    // The snapshot's model byte: 0 = insertion, 1 = turnstile.
    let model_tag = match model {
        RouterMode::Insertion => 0u8,
        RouterMode::Turnstile => 1,
    };
    let mut report = ExecReport::default();
    let mut answers: Vec<Answer> = Vec::new();
    let mut history: Vec<Vec<Answer>> = Vec::new();
    let mut resume_offset = 0u64;
    let mut resume_blobs: Option<Vec<Vec<u8>>> = None;
    let mut resuming = false;
    // The in-flight round's batch length as the snapshotting run counted
    // it: every query the report counts minus the finished rounds'.
    let mut in_flight: Option<usize> = None;

    if let Some(snap) = session.take_resume(model_tag, shards, opts, seed)? {
        answers = replay_history(&mut alg, &snap.history)?;
        let finished: usize = snap.history.iter().map(Vec::len).sum();
        in_flight = Some(snap.report.queries.checked_sub(finished).ok_or_else(|| {
            PersistError::corrupt(
                0,
                format!(
                    "snapshot counts {} queries but its finished rounds hold {finished} answers",
                    snap.report.queries
                ),
            )
            .located(&session.dir)
        })?);
        history = snap.history;
        report = snap.report;
        session.blocks_processed = snap.blocks_done;
        resume_offset = snap.pass_offset;
        resume_blobs = Some(snap.shard_blobs);
        resuming = true;
    }

    arena.begin_run();
    loop {
        let batch = alg.next_round(&answers);
        // The machines' snapshot state is laid out by the batch, so a
        // rebuilt batch of another length cannot take it.
        if let Some(stored) = in_flight.take() {
            if stored != batch.len() {
                return Err(PersistError::incompatible(format!(
                    "snapshot predates this trial bank: its in-flight round {} asked {stored} \
                     queries, this build asks {}",
                    history.len() + 1,
                    batch.len()
                ))
                .located(&session.dir));
            }
        }
        if batch.is_empty() {
            break;
        }
        if !resuming {
            // A resumed in-flight round was already counted when the
            // snapshotting run entered it.
            report.rounds += 1;
            report.passes += 1;
            report.queries += batch.len();
            report.answer_bytes += batch.len() * ANSWER_BYTES;
        }
        let plan = RoundPlan::solo(
            batch.len(),
            split_seed(seed, report.passes as u64),
            opts.reservoir,
        );
        feed.begin_pass();
        // Checkpointed runs take no policy: one thread per bank sweep.
        let setup = begin_pass(model, &batch, &plan, feed, arena, opts, 1);
        let mut passes: Vec<PassMachine<'_>> = arena.slots[..shards]
            .iter_mut()
            .map(|slot| PassMachine::new(slot, &setup))
            .collect();
        let mut start_block = 0usize;
        if resuming {
            if let Some(blobs) = resume_blobs.take() {
                for (p, b) in passes.iter_mut().zip(&blobs) {
                    p.restore_state(b)?;
                }
            }
            start_block = resume_offset as usize;
        }

        let routed = feed.routed();
        let pass_blocks = routed.len().div_ceil(chunk);
        let mut scratch: Vec<ShardUpdate> = Vec::new();
        let mut nanos = vec![0u64; shards];
        for bi in start_block..pass_blocks {
            let lo = bi * chunk;
            let hi = (lo + chunk).min(routed.len());
            for (sid, pass) in passes.iter_mut().enumerate() {
                let t0 = Instant::now();
                scratch.clear();
                scratch.extend(routed[lo..hi].iter().filter_map(|r| r.delivery_for(sid)));
                pass.feed(&scratch);
                nanos[sid] += t0.elapsed().as_nanos() as u64;
            }
            session.blocks_processed += 1;
            if session.snapshot_every > 0
                && session
                    .blocks_processed
                    .is_multiple_of(session.snapshot_every)
            {
                let blobs: Vec<Vec<u8>> = passes.iter().map(PassMachine::snapshot_state).collect();
                session.publish(
                    model_tag,
                    shards,
                    opts,
                    seed,
                    &report,
                    &history,
                    (bi + 1) as u64,
                    &blobs,
                )?;
            }
            if session.crash_after == Some(session.blocks_processed) {
                return Ok(None);
            }
        }
        resuming = false;

        let outcomes: Vec<ShardOutcome> = passes
            .into_iter()
            .zip(nanos)
            .map(|(p, n)| p.finish(n))
            .collect();
        let (merged, space) = end_pass(setup, batch.len(), feed, arena, outcomes);
        report.max_pass_space_bytes = report.max_pass_space_bytes.max(space);
        answers = merged;
        history.push(answers.clone());
        arena.note_round();
    }
    arena.end_run();
    Ok(Some((alg.output(), report)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplex::QuerySet;
    use crate::policy::ExecPolicy;
    use crate::query::Query;
    use crate::sharded::Engine;
    use sgs_graph::gen;
    use sgs_graph::Edge;
    use sgs_stream::{InsertionStream, TurnstileStream};

    /// A 2-round protocol exercising every insertion answer kind.
    struct TwoRoundProbe {
        round: usize,
        got: Vec<Vec<Answer>>,
        turnstile: bool,
    }

    impl RoundAdaptive for TwoRoundProbe {
        type Output = Vec<Vec<Answer>>;
        fn next_round(&mut self, answers: &[Answer]) -> Vec<Query> {
            if !answers.is_empty() {
                self.got.push(answers.to_vec());
            }
            self.round += 1;
            match self.round {
                1 => vec![Query::EdgeCount, Query::RandomEdge],
                2 => {
                    let mut qs = vec![Query::RandomEdge];
                    for v in 0..10u32 {
                        qs.push(Query::Degree(VertexId(v)));
                        qs.push(Query::RandomNeighbor(VertexId(v)));
                        qs.push(Query::Adjacent(VertexId(v), VertexId(v + 1)));
                        if !self.turnstile {
                            qs.push(Query::IthNeighbor(VertexId(v), 1 + (v as u64 % 3)));
                        }
                    }
                    qs
                }
                _ => Vec::new(),
            }
        }
        fn output(&mut self) -> Vec<Vec<Answer>> {
            std::mem::take(&mut self.got)
        }
    }

    fn probe(turnstile: bool) -> TwoRoundProbe {
        TwoRoundProbe {
            round: 0,
            got: Vec::new(),
            turnstile,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sgs-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn answer_codec_round_trips_every_variant() {
        let e = Edge::new(VertexId(3), VertexId(9));
        let all = vec![
            Answer::EdgeCount(42),
            Answer::Edge(Some(e)),
            Answer::Edge(None),
            Answer::Degree(7),
            Answer::Neighbor(Some(VertexId(5))),
            Answer::Neighbor(None),
            Answer::Adjacent(true),
            Answer::Adjacent(false),
        ];
        let mut enc = Encoder::new();
        for a in &all {
            encode_answer(&mut enc, a);
        }
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        for a in &all {
            assert_eq!(decode_answer(&mut dec).unwrap(), *a);
        }
        dec.finish().unwrap();
    }

    #[test]
    fn checkpointed_insertion_matches_sharded_driver() {
        let g = gen::gnm(24, 90, 41);
        let ins = InsertionStream::from_graph(&g, 42);
        for shards in [1usize, 3] {
            let feed = ShardedFeed::partition(&ins, shards);
            let dir = tmp_dir(&format!("ins-eq-{shards}"));
            let mut session = CheckpointSession::create(&dir, &feed, 0, 16).unwrap();
            let mut arena = RouterArena::new();
            let got = run_checkpointed(
                RouterMode::Insertion,
                probe(false),
                &feed,
                7,
                &mut arena,
                PassOpts::default(),
                &mut session,
            )
            .unwrap()
            .expect("no crash requested");
            let mut arena2 = RouterArena::new();
            let engine = Engine::Sharded(ExecPolicy::default());
            let want = QuerySet::solo(probe(false), 7, ReservoirMode::default())
                .run(
                    RouterMode::Insertion,
                    &feed,
                    &mut arena2,
                    PassOpts::default(),
                    engine,
                )
                .into_solo();
            assert_eq!(got.0, want.0, "{shards} shards");
            assert_eq!(got.1.rounds, want.1.rounds);
            assert_eq!(got.1.queries, want.1.queries);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn checkpointed_turnstile_matches_sharded_driver() {
        let g = gen::gnm(24, 90, 43);
        let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 44);
        for shards in [1usize, 3] {
            let feed = ShardedFeed::partition(&tst, shards);
            let dir = tmp_dir(&format!("tst-eq-{shards}"));
            let mut session = CheckpointSession::create(&dir, &feed, 0, 16).unwrap();
            let mut arena = RouterArena::new();
            let got = run_checkpointed(
                RouterMode::Turnstile,
                probe(true),
                &feed,
                9,
                &mut arena,
                PassOpts::default(),
                &mut session,
            )
            .unwrap()
            .expect("no crash requested");
            let mut arena2 = RouterArena::new();
            let engine = Engine::Sharded(ExecPolicy::default());
            let want = QuerySet::solo(probe(true), 9, ReservoirMode::default())
                .run(
                    RouterMode::Turnstile,
                    &feed,
                    &mut arena2,
                    PassOpts::default(),
                    engine,
                )
                .into_solo();
            assert_eq!(got.0, want.0, "{shards} shards");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn crash_and_resume_is_byte_identical_at_every_block() {
        let g = gen::gnm(20, 70, 45);
        let ins = InsertionStream::from_graph(&g, 46);
        let feed = ShardedFeed::partition(&ins, 2);
        let dir = tmp_dir("ins-crash");
        let chunk = 16usize;
        let mut session = CheckpointSession::create(&dir, &feed, 2, chunk).unwrap();
        let mut arena = RouterArena::new();
        let baseline = run_checkpointed(
            RouterMode::Insertion,
            probe(false),
            &feed,
            11,
            &mut arena,
            PassOpts::default(),
            &mut session,
        )
        .unwrap()
        .unwrap();
        let total_blocks = session.blocks_processed();
        assert!(total_blocks >= 4, "want a multi-block run");
        for crash_at in 1..=total_blocks {
            let mut session = CheckpointSession::create(&dir, &feed, 2, chunk).unwrap();
            session.set_crash_after(crash_at);
            let mut arena = RouterArena::new();
            let crashed = run_checkpointed(
                RouterMode::Insertion,
                probe(false),
                &feed,
                11,
                &mut arena,
                PassOpts::default(),
                &mut session,
            )
            .unwrap();
            assert!(crashed.is_none(), "crash at block {crash_at} did not fire");
            let (mut resumed, feed2) = CheckpointSession::resume(&dir, 2).unwrap();
            let mut arena = RouterArena::new();
            let got = run_checkpointed(
                RouterMode::Insertion,
                probe(false),
                &feed2,
                11,
                &mut arena,
                PassOpts::default(),
                &mut resumed,
            )
            .unwrap()
            .expect("resumed run must complete");
            assert_eq!(got.0, baseline.0, "crash at block {crash_at}");
            assert_eq!(got.1, baseline.1, "report after crash at block {crash_at}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_without_snapshot_restarts_cleanly() {
        let g = gen::gnm(18, 60, 47);
        let ins = InsertionStream::from_graph(&g, 48);
        let feed = ShardedFeed::partition(&ins, 2);
        let dir = tmp_dir("ins-nosnap");
        // snapshot_every = 0: WAL only. Crash mid-run, then resume —
        // recovery replays from the start of the WAL.
        let mut session = CheckpointSession::create(&dir, &feed, 0, 16).unwrap();
        let mut arena = RouterArena::new();
        let baseline = run_checkpointed(
            RouterMode::Insertion,
            probe(false),
            &feed,
            13,
            &mut arena,
            PassOpts::default(),
            &mut session,
        )
        .unwrap()
        .unwrap();
        let mut session = CheckpointSession::create(&dir, &feed, 0, 16).unwrap();
        session.set_crash_after(1);
        let mut arena = RouterArena::new();
        assert!(run_checkpointed(
            RouterMode::Insertion,
            probe(false),
            &feed,
            13,
            &mut arena,
            PassOpts::default(),
            &mut session,
        )
        .unwrap()
        .is_none());
        let (mut resumed, feed2) = CheckpointSession::resume(&dir, 0).unwrap();
        assert!(!resumed.has_resume_state());
        let mut arena = RouterArena::new();
        let got = run_checkpointed(
            RouterMode::Insertion,
            probe(false),
            &feed2,
            13,
            &mut arena,
            PassOpts::default(),
            &mut resumed,
        )
        .unwrap()
        .unwrap();
        assert_eq!(got.0, baseline.0);
        assert_eq!(got.1, baseline.1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_seed_snapshot_is_rejected() {
        let g = gen::gnm(18, 60, 49);
        let ins = InsertionStream::from_graph(&g, 50);
        let feed = ShardedFeed::partition(&ins, 2);
        let dir = tmp_dir("ins-mismatch");
        let mut session = CheckpointSession::create(&dir, &feed, 1, 16).unwrap();
        session.set_crash_after(3);
        let mut arena = RouterArena::new();
        let _ = run_checkpointed(
            RouterMode::Insertion,
            probe(false),
            &feed,
            15,
            &mut arena,
            PassOpts::default(),
            &mut session,
        )
        .unwrap();
        let (mut resumed, feed2) = CheckpointSession::resume(&dir, 1).unwrap();
        assert!(resumed.has_resume_state());
        let mut arena = RouterArena::new();
        let err = run_checkpointed(
            RouterMode::Insertion,
            probe(false),
            &feed2,
            16, // wrong seed
            &mut arena,
            PassOpts::default(),
            &mut resumed,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("run seed"),
            "unhelpful error: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
