//! The serving node: continuous ingest + durable state behind `sgs serve`.
//!
//! Everything before this module runs as a batch — build a feed, run
//! passes, print one answer, exit. [`ServerNode`] is the long-lived
//! composition of the same pieces:
//!
//! * the **WAL** ([`sgs_stream::persist::WalWriter`]) written block by
//!   block as updates arrive — the node's durable history, reopened
//!   (not recreated) across restarts so the block sequence is one
//!   unbroken log;
//! * periodic **snapshots** checkpointing the WAL position and the
//!   serving counters, published through the same `MANIFEST` protocol
//!   the batch checkpoints use;
//! * a persistent [`ShardRuntime`] worker pool that answers lone COUNTs.
//!
//! Answers stay **byte-identical** to batch runs: a query cuts the
//! ingested history at a block boundary, rebuilds the exact
//! [`ShardedFeed`] that `sgs count` would build over the same prefix
//! (same routing, same positions), and runs the same deterministic
//! passes. A kill -9 loses at most the un-flushed partial block, and
//! every answer over the recovered prefix matches the pre-crash node bit
//! for bit.

use crate::policy::ExecPolicy;
use crate::runtime::ShardRuntime;
use sgs_graph::{Edge, VertexId};
use sgs_stream::broadcast::DEFAULT_RING_CAPACITY;
use sgs_stream::persist::{
    fsync_dir, publish_snapshot, read_latest_snapshot, write_config, Decoder, Encoder,
    PersistError, PersistResult, WalWriter, DEFAULT_SEGMENT_BYTES,
};
use sgs_stream::sharded::{RoutedUpdate, ShardMap, ShardedFeed};
use sgs_stream::update::EdgeUpdate;
use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Default updates per WAL block for a serving node — the
/// durability granularity: a kill -9 loses at most this many un-flushed
/// updates (they were never acknowledged as durable).
pub const DEFAULT_SERVE_BLOCK: usize = 256;

/// Leading tag byte of a serve-mode CONFIG blob, distinct from the batch
/// CLI's model bytes (0 = insertion, 1 = turnstile) so `sgs recover` can
/// tell a serve directory from a batch checkpoint.
pub const SERVE_CONFIG_TAG: u8 = 2;

/// Geometry + identity of a serving node, persisted in the directory's
/// CONFIG blob so a restart (or `sgs recover`) rebuilds the same node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Shard count every feed cut is routed for.
    pub shards: usize,
    /// Updates per WAL block (the durability granularity).
    pub wal_block: usize,
    /// Snapshot cadence in flushed blocks.
    pub snapshot_every: u64,
    /// WAL segment roll threshold in bytes.
    pub segment_bytes: usize,
    /// Default seed for COUNT queries that do not pass their own.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 1,
            wal_block: DEFAULT_SERVE_BLOCK,
            snapshot_every: 8,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            seed: 1,
        }
    }
}

/// Encode a [`ServeConfig`] as the CONFIG blob payload. The fifth word
/// once held a ring capacity that sized nothing; it is still written, as
/// the default capacity, so the layout (and a directory's readability by
/// older binaries) does not change, and it is ignored on read.
pub fn encode_serve_config(cfg: &ServeConfig) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u8(SERVE_CONFIG_TAG);
    enc.u64(cfg.shards as u64);
    enc.u64(cfg.wal_block as u64);
    enc.u64(cfg.snapshot_every);
    enc.u64(DEFAULT_RING_CAPACITY as u64);
    enc.u64(cfg.segment_bytes as u64);
    enc.u64(cfg.seed);
    enc.into_bytes()
}

/// Decode a serve-mode CONFIG blob (the inverse of
/// [`encode_serve_config`]); rejects blobs that are not serve-tagged.
pub fn decode_serve_config(payload: &[u8]) -> PersistResult<ServeConfig> {
    let mut dec = Decoder::new(payload);
    let tag = dec.u8("config tag")?;
    if tag != SERVE_CONFIG_TAG {
        return Err(dec.corrupt(format!(
            "CONFIG tag {tag} is not a serve node (expected {SERVE_CONFIG_TAG})"
        )));
    }
    let shards = dec.u64("shards")? as usize;
    let wal_block = dec.u64("wal_block")? as usize;
    let snapshot_every = dec.u64("snapshot_every")?;
    dec.u64("retired ring capacity")?;
    let segment_bytes = dec.u64("segment_bytes")? as usize;
    let seed = dec.u64("seed")?;
    dec.finish()?;
    if shards == 0 || shards > u16::MAX as usize {
        return Err(PersistError::corrupt(
            0,
            format!("implausible shard count {shards}"),
        ));
    }
    if wal_block == 0 {
        return Err(PersistError::corrupt(0, "zero wal_block in serve CONFIG"));
    }
    Ok(ServeConfig {
        shards,
        wal_block,
        snapshot_every,
        segment_bytes,
        seed,
    })
}

/// What a serve snapshot records: the WAL position and the serving
/// counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSnapshot {
    /// Updates flushed to the WAL.
    pub updates: u64,
    /// Blocks flushed to the WAL.
    pub blocks: u64,
    /// COUNT queries answered over the node's lifetime.
    pub served: u64,
    /// Snapshots published over the node's lifetime (including this one).
    pub snapshots: u64,
    /// Deletions ingested (> 0 forces the turnstile model).
    pub deletions: u64,
    /// Vertex bound: max endpoint + 1 over the ingested history.
    pub num_vertices: u64,
}

/// The serve snapshot layout this node writes. Layout 1 also carried
/// two ring-cursor words after `blocks`; they are skipped on read.
const SERVE_SNAPSHOT_LAYOUT: u8 = 2;

fn encode_serve_snapshot(s: &ServeSnapshot) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u8(SERVE_SNAPSHOT_LAYOUT);
    enc.u64(s.updates);
    enc.u64(s.blocks);
    enc.u64(s.served);
    enc.u64(s.snapshots);
    enc.u64(s.deletions);
    enc.u64(s.num_vertices);
    enc.into_bytes()
}

fn decode_serve_snapshot(payload: &[u8]) -> PersistResult<ServeSnapshot> {
    let mut dec = Decoder::new(payload);
    let ver = dec.u8("serve snapshot version")?;
    if ver != 1 && ver != SERVE_SNAPSHOT_LAYOUT {
        return Err(dec.corrupt(format!("unknown serve snapshot layout {ver}")));
    }
    let updates = dec.u64("updates")?;
    let blocks = dec.u64("blocks")?;
    if ver == 1 {
        dec.u64("ring cursor blocks")?;
        dec.u64("ring cursor updates")?;
    }
    let s = ServeSnapshot {
        updates,
        blocks,
        served: dec.u64("served")?,
        snapshots: dec.u64("snapshots")?,
        deletions: dec.u64("deletions")?,
        num_vertices: dec.u64("num_vertices")?,
    };
    dec.finish()?;
    Ok(s)
}

/// Read a serve directory's latest snapshot, if any — the recovery-side
/// counterpart of the node's periodic checkpoints.
pub fn read_serve_snapshot(dir: &Path) -> PersistResult<Option<(u64, ServeSnapshot)>> {
    match read_latest_snapshot(dir)? {
        None => Ok(None),
        Some((seq, payload)) => {
            let snap = decode_serve_snapshot(&payload)
                .map_err(|e| e.located(dir.join(format!("snap-{seq:08}.bin"))))?;
            Ok(Some((seq, snap)))
        }
    }
}

/// Errors a serving node reports per request: durability failures
/// (fatal) vs. stream-invariant rejections (the client's problem; the
/// connection and the node continue).
#[derive(Debug)]
pub enum ServeError {
    /// A durability-layer failure.
    Persist(PersistError),
    /// The update violates the strict turnstile contract (self-loop,
    /// non-±1 delta, duplicate insert, absent delete).
    Reject(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Persist(e) => write!(f, "{e}"),
            ServeError::Reject(m) => write!(f, "{m}"),
        }
    }
}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> Self {
        ServeError::Persist(e)
    }
}

/// A point-in-time view of the node for the STAT reply.
#[derive(Clone, Copy, Debug)]
pub struct ServeStats {
    /// Updates flushed to the WAL (durable).
    pub updates: u64,
    /// Blocks flushed to the WAL.
    pub blocks: u64,
    /// Ingested updates not yet flushed (lost on kill -9).
    pub pending: usize,
    /// Vertex bound over the ingested history.
    pub num_vertices: usize,
    /// Live edges (inserts minus deletes).
    pub edges: usize,
    /// Deletions ingested.
    pub deletions: u64,
    /// COUNT queries answered over the node's lifetime.
    pub served: u64,
    /// Snapshots published over the node's lifetime.
    pub snapshots: u64,
    /// Shard count of every feed cut.
    pub shards: usize,
}

/// The long-lived serving node: continuous WAL-backed ingest, a
/// persistent [`ShardRuntime`] worker pool, and periodic snapshots. See
/// the module docs for the layout.
pub struct ServerNode {
    dir: PathBuf,
    cfg: ServeConfig,
    map: ShardMap,
    wal: WalWriter,
    /// Every flushed routed update, in order — the in-memory mirror of
    /// the WAL that feed cuts are built from.
    history: Vec<RoutedUpdate>,
    /// Ingested but not yet flushed updates (under one block).
    pending: Vec<RoutedUpdate>,
    /// Live edge keys, for strict-turnstile admission.
    live: HashSet<u64>,
    num_vertices: usize,
    deletions: u64,
    served: u64,
    snapshots: u64,
    last_snapshot_block: u64,
    truncation: Option<String>,
    recovered_blocks: u64,
    runtime: ShardRuntime,
}

impl ServerNode {
    /// Stand up a fresh node in `dir` (created if needed; any previous
    /// run's files are cleared) and persist its CONFIG.
    pub fn create(dir: &Path, cfg: ServeConfig, policy: ExecPolicy) -> PersistResult<Self> {
        let wal = WalWriter::create(dir, cfg.segment_bytes)?;
        write_config(dir, &encode_serve_config(&cfg))?;
        Ok(ServerNode {
            dir: dir.to_path_buf(),
            cfg,
            map: ShardMap::uniform(cfg.shards),
            wal,
            history: Vec::new(),
            pending: Vec::new(),
            live: HashSet::new(),
            num_vertices: 0,
            deletions: 0,
            served: 0,
            snapshots: 0,
            last_snapshot_block: 0,
            truncation: None,
            recovered_blocks: 0,
            runtime: ShardRuntime::new(cfg.shards, policy),
        })
    }

    /// Reopen a node from `dir`'s WAL — the restart path, graceful or
    /// not. Replays every intact block (re-validating the strict
    /// turnstile invariants), truncates any torn tail in place, and
    /// restores the lifetime counters from the latest snapshot.
    pub fn resume(dir: &Path, cfg: ServeConfig, policy: ExecPolicy) -> PersistResult<Self> {
        let (wal, recovered) = WalWriter::reopen(dir, cfg.segment_bytes)?;
        if let Some(meta) = &recovered.meta {
            if meta.num_shards != cfg.shards as u64 {
                return Err(PersistError::corrupt(
                    0,
                    format!(
                        "WAL sealed for {} shards, node configured for {}",
                        meta.num_shards, cfg.shards
                    ),
                ));
            }
        }
        let map = ShardMap::uniform(cfg.shards);
        let mut history = Vec::new();
        let mut live = HashSet::new();
        let mut num_vertices = 0usize;
        let mut deletions = 0u64;
        let blocks = recovered.blocks.len() as u64;
        for (bi, block) in recovered.blocks.into_iter().enumerate() {
            for r in block {
                let (u, v) = r.update.edge.endpoints();
                if map.shard_of(u.0) != r.owner as usize || map.shard_of(v.0) != r.other as usize {
                    return Err(PersistError::corrupt(
                        bi as u64,
                        format!("block {bi} routed for a different placement"),
                    ));
                }
                if r.position as usize != history.len() {
                    return Err(PersistError::corrupt(
                        bi as u64,
                        format!(
                            "block {bi} update carries position {}, expected {}",
                            r.position,
                            history.len()
                        ),
                    ));
                }
                let key = r.update.edge.key();
                let ok = if r.update.delta > 0 {
                    live.insert(key)
                } else {
                    deletions += 1;
                    live.remove(&key)
                };
                if !ok {
                    return Err(PersistError::corrupt(
                        bi as u64,
                        format!("block {bi} breaks the strict turnstile invariant"),
                    ));
                }
                num_vertices = num_vertices.max(v.0 as usize + 1);
                history.push(r);
            }
        }
        let mut served = 0;
        let mut snapshots = 0;
        if let Some((_, snap)) = read_serve_snapshot(dir)? {
            if snap.blocks > blocks {
                return Err(PersistError::corrupt(
                    0,
                    format!(
                        "snapshot claims {} blocks but only {blocks} survive in the WAL",
                        snap.blocks
                    ),
                ));
            }
            served = snap.served;
            snapshots = snap.snapshots;
        }
        Ok(ServerNode {
            dir: dir.to_path_buf(),
            cfg,
            map,
            wal,
            history,
            pending: Vec::new(),
            live,
            num_vertices,
            deletions,
            served,
            snapshots,
            last_snapshot_block: blocks,
            truncation: recovered.truncation,
            recovered_blocks: blocks,
            runtime: ShardRuntime::new(cfg.shards, policy),
        })
    }

    /// [`ServerNode::resume`] when the directory holds a WAL, otherwise
    /// [`ServerNode::create`].
    pub fn open(dir: &Path, cfg: ServeConfig, policy: ExecPolicy) -> PersistResult<Self> {
        let has_wal = dir.is_dir()
            && std::fs::read_dir(dir)
                .map_err(|e| PersistError::io(dir, e))?
                .filter_map(|e| e.ok())
                .any(|e| {
                    let n = e.file_name().to_string_lossy().into_owned();
                    n.starts_with("wal-") && n.ends_with(".seg")
                });
        if has_wal {
            Self::resume(dir, cfg, policy)
        } else {
            Self::create(dir, cfg, policy)
        }
    }

    /// Ingest one edge update. Routes it exactly as
    /// [`ShardedFeed::partition_with_map`] would (same owner/other, same
    /// position), so every later feed cut is field-identical to a batch
    /// partition of the same update sequence. Flushes a full WAL block
    /// automatically. Returns the update's stream position.
    pub fn ingest(&mut self, u: u32, v: u32, delta: i8) -> Result<u64, ServeError> {
        if u == v {
            return Err(ServeError::Reject(format!("self-loop on vertex {u}")));
        }
        if delta != 1 && delta != -1 {
            return Err(ServeError::Reject(format!(
                "delta {delta} outside the strict turnstile (must be +1/-1)"
            )));
        }
        let edge = Edge::new(VertexId(u), VertexId(v));
        let key = edge.key();
        if delta > 0 && self.live.contains(&key) {
            return Err(ServeError::Reject(format!("edge {u} {v} already present")));
        }
        if delta < 0 && !self.live.contains(&key) {
            return Err(ServeError::Reject(format!("edge {u} {v} not present")));
        }
        let position = self.history.len() + self.pending.len();
        if position >= u32::MAX as usize {
            return Err(ServeError::Reject(
                "stream positions are stored as u32".into(),
            ));
        }
        let (lo, hi) = edge.endpoints();
        self.pending.push(RoutedUpdate {
            position: position as u32,
            owner: self.map.shard_of(lo.0) as u16,
            other: self.map.shard_of(hi.0) as u16,
            update: EdgeUpdate { edge, delta },
        });
        if delta > 0 {
            self.live.insert(key);
        } else {
            self.live.remove(&key);
            self.deletions += 1;
        }
        self.num_vertices = self.num_vertices.max(hi.0 as usize + 1);
        if self.pending.len() >= self.cfg.wal_block {
            self.flush_block()?;
        }
        Ok(position as u64)
    }

    /// Flush the pending updates as one WAL block and auto-snapshot on
    /// cadence. No-op when nothing is pending.
    pub fn flush_block(&mut self) -> PersistResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let block = std::mem::take(&mut self.pending);
        self.wal.append_block(&block)?;
        self.history.extend_from_slice(&block);
        if self.wal.blocks() - self.last_snapshot_block >= self.cfg.snapshot_every {
            self.snapshot()?;
        }
        Ok(())
    }

    /// Cut the stream for a query: flush any partial block (a cut is a
    /// block boundary covering *every* acknowledged update) and rebuild
    /// the exact [`ShardedFeed`] a batch partition of the same prefix
    /// would produce.
    pub fn cut(&mut self) -> PersistResult<ShardedFeed> {
        self.flush_block()?;
        ShardedFeed::from_routed_with_map(
            self.num_vertices.max(1),
            self.map.clone(),
            self.history.clone(),
        )
    }

    /// Publish a snapshot now: WAL position and lifetime counters, swung
    /// through `MANIFEST` atomically.
    pub fn snapshot(&mut self) -> PersistResult<ServeSnapshot> {
        self.snapshots += 1;
        let snap = ServeSnapshot {
            updates: self.wal.updates(),
            blocks: self.wal.blocks(),
            served: self.served,
            snapshots: self.snapshots,
            deletions: self.deletions,
            num_vertices: self.num_vertices as u64,
        };
        publish_snapshot(&self.dir, snap.blocks, &encode_serve_snapshot(&snap))?;
        self.last_snapshot_block = snap.blocks;
        Ok(snap)
    }

    /// Graceful shutdown: flush the partial block, publish a final
    /// snapshot, seal the WAL (whole-history totals + placement), and
    /// fsync the directory. The sealed directory recovers through
    /// `sgs recover` and reopens with [`ServerNode::resume`] (the seal
    /// is stripped for new ingest).
    pub fn shutdown(mut self) -> PersistResult<ServeSnapshot> {
        self.flush_block()?;
        let snap = self.snapshot()?;
        let ServerNode {
            dir,
            cfg,
            map,
            wal,
            runtime,
            num_vertices,
            ..
        } = self;
        wal.seal_with_map(num_vertices.max(1), &map, cfg.wal_block)?;
        fsync_dir(&dir)?;
        drop(runtime); // joins the worker pool
        Ok(snap)
    }

    /// Record one served COUNT (reported by STAT and checkpointed).
    pub fn note_served(&mut self) {
        self.served += 1;
    }

    /// Current stats for the STAT reply.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            updates: self.wal.updates(),
            blocks: self.wal.blocks(),
            pending: self.pending.len(),
            num_vertices: self.num_vertices,
            edges: self.live.len(),
            deletions: self.deletions,
            served: self.served,
            snapshots: self.snapshots,
            shards: self.cfg.shards,
        }
    }

    /// The node's configuration.
    pub fn config(&self) -> &ServeConfig {
        self.cfg()
    }

    fn cfg(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Whether any deletion was ingested (insertion-model COUNTs are
    /// invalid once true).
    pub fn has_deletions(&self) -> bool {
        self.deletions > 0
    }

    /// Updates ingested (flushed + pending).
    pub fn ingested(&self) -> u64 {
        self.wal.updates() + self.pending.len() as u64
    }

    /// Live edge count.
    pub fn live_edges(&self) -> usize {
        self.live.len()
    }

    /// Blocks replayed from the WAL at resume time (0 for a fresh node).
    pub fn recovered_blocks(&self) -> u64 {
        self.recovered_blocks
    }

    /// The torn-tail truncation report from resume, if any.
    pub fn truncation(&self) -> Option<&str> {
        self.truncation.as_deref()
    }

    /// The persistent worker pool for solo COUNT passes.
    pub fn runtime_mut(&mut self) -> &mut ShardRuntime {
        &mut self.runtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_stream::source::TurnstileStream;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sgs_serve_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A deterministic little strict-turnstile update script.
    fn script(n: u32, len: usize) -> Vec<(u32, u32, i8)> {
        let mut live: Vec<(u32, u32)> = Vec::new();
        let mut out = Vec::new();
        let mut x = 9u64;
        while out.len() < len {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 33) as u32 % n;
            let v = (x >> 13) as u32 % n;
            if u == v {
                continue;
            }
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            if let Some(i) = live.iter().position(|&e| e == (a, b)) {
                if x.is_multiple_of(3) {
                    live.swap_remove(i);
                    out.push((a, b, -1));
                }
            } else {
                live.push((a, b));
                out.push((a, b, 1));
            }
        }
        out
    }

    fn node(dir: &Path, shards: usize, wal_block: usize) -> ServerNode {
        let cfg = ServeConfig {
            shards,
            wal_block,
            ..ServeConfig::default()
        };
        ServerNode::create(dir, cfg, ExecPolicy::serial()).unwrap()
    }

    #[test]
    fn serve_config_round_trips() {
        let cfg = ServeConfig {
            shards: 4,
            wal_block: 32,
            snapshot_every: 2,
            segment_bytes: 4096,
            seed: 77,
        };
        assert_eq!(
            decode_serve_config(&encode_serve_config(&cfg)).unwrap(),
            cfg
        );
        // A batch CLI config (model byte 0/1) is rejected loudly.
        assert!(decode_serve_config(&[0u8, 1, 2, 3]).is_err());
    }

    #[test]
    fn config_written_with_a_ring_capacity_still_decodes() {
        // The CONFIG file of `sgs serve DIR --shards 2 --wal-block 8
        // --snapshot-every 3 --ring-capacity 5 --seed 9`, written by a
        // binary that still had the ring-capacity flag. Its fifth word
        // (5) is ignored.
        let file: [u8; 73] = [
            0x53, 0x47, 0x53, 0x50, 0x02, 0x00, 0x08, 0x00, 0x31, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x02, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xca, 0xa8, 0x3b, 0xc9, 0x9f,
            0xa7, 0xa5, 0x12,
        ];
        let dir = tmp("old_config");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("CONFIG"), file).unwrap();
        let payload = sgs_stream::persist::read_config(&dir).unwrap().unwrap();
        let cfg = decode_serve_config(&payload).unwrap();
        assert_eq!(
            cfg,
            ServeConfig {
                shards: 2,
                wal_block: 8,
                snapshot_every: 3,
                segment_bytes: 1 << 20,
                seed: 9,
            }
        );
        // Re-encoding keeps the layout: only the retired word differs.
        let again = encode_serve_config(&cfg);
        assert_eq!(again.len(), payload.len());
        assert_eq!(again[..25], payload[..25]);
        assert_eq!(again[33..], payload[33..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cut_feed_matches_batch_partition_at_every_shard_count() {
        let updates = script(24, 120);
        for shards in [1usize, 2, 4] {
            let dir = tmp(&format!("cut_{shards}"));
            let mut node = node(&dir, shards, 16);
            for &(u, v, d) in &updates {
                node.ingest(u, v, d).unwrap();
            }
            let feed = node.cut().unwrap();
            // The batch counterpart: the same updates in raw order.
            let n = node.num_vertices;
            let stream = TurnstileStream::from_updates(
                n,
                updates
                    .iter()
                    .map(|&(u, v, d)| EdgeUpdate {
                        edge: Edge::new(VertexId(u), VertexId(v)),
                        delta: d,
                    })
                    .collect(),
            );
            let batch = ShardedFeed::partition(&stream, shards);
            assert_eq!(feed.routed(), batch.routed(), "{shards} shards");
            assert_eq!(feed.num_vertices(), batch.num_vertices());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn ingest_rejects_invariant_breakers_without_state_damage() {
        let dir = tmp("rejects");
        let mut node = node(&dir, 2, 8);
        node.ingest(0, 1, 1).unwrap();
        assert!(matches!(node.ingest(3, 3, 1), Err(ServeError::Reject(_))));
        assert!(matches!(node.ingest(0, 1, 1), Err(ServeError::Reject(_))));
        assert!(matches!(node.ingest(0, 2, -1), Err(ServeError::Reject(_))));
        assert!(matches!(node.ingest(0, 1, 2), Err(ServeError::Reject(_))));
        node.ingest(1, 0, -1).unwrap(); // normalized endpoints still match
        assert_eq!(node.ingested(), 2);
        assert_eq!(node.live_edges(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_and_resume_recovers_flushed_prefix_and_ring_cursor() {
        let dir = tmp("kill");
        let updates = script(20, 100);
        let cfg = ServeConfig {
            shards: 2,
            wal_block: 16,
            snapshot_every: 2,
            ..ServeConfig::default()
        };
        let mut a = ServerNode::create(&dir, cfg, ExecPolicy::serial()).unwrap();
        for &(u, v, d) in &updates[..90] {
            a.ingest(u, v, d).unwrap();
        }
        let flushed = a.stats().updates; // 80: five full blocks, 10 pending
        assert_eq!(flushed, 80);
        let pre_cut: Vec<RoutedUpdate> = a.history[..flushed as usize].to_vec();
        drop(a); // kill -9: no shutdown, pending updates lost
        let mut b = ServerNode::resume(&dir, cfg, ExecPolicy::serial()).unwrap();
        assert_eq!(b.stats().updates, flushed, "flushed prefix survives");
        assert_eq!(b.recovered_blocks(), 5);
        assert_eq!(b.history, pre_cut, "byte-identical routed history");
        // Ingest continues; positions carry on from the recovered prefix.
        let pos = b.ingest(100, 101, 1).unwrap();
        assert_eq!(pos, flushed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graceful_shutdown_seals_and_resume_continues() {
        let dir = tmp("graceful");
        let updates = script(20, 50);
        let cfg = ServeConfig {
            shards: 1,
            wal_block: 8,
            ..ServeConfig::default()
        };
        let mut a = ServerNode::create(&dir, cfg, ExecPolicy::serial()).unwrap();
        for &(u, v, d) in &updates {
            a.ingest(u, v, d).unwrap();
        }
        a.note_served();
        let snap = a.shutdown().unwrap();
        assert_eq!(snap.updates, 50, "partial block flushed at shutdown");
        assert_eq!(snap.served, 1);
        // The sealed WAL is a consistent batch checkpoint...
        let rec = sgs_stream::persist::read_wal(&dir).unwrap();
        assert!(rec.meta.is_some());
        // ...and the node reopens for more ingest, counters intact.
        let mut b = ServerNode::resume(&dir, cfg, ExecPolicy::serial()).unwrap();
        assert_eq!(b.stats().updates, 50);
        assert_eq!(b.stats().served, 1, "lifetime counter restored");
        b.ingest(100, 101, 1).unwrap();
        let snap2 = b.shutdown().unwrap();
        assert_eq!(snap2.updates, 51);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn layout_1_snapshot_decodes_without_its_ring_cursor_words() {
        let mut enc = Encoder::new();
        enc.u8(1);
        for w in [80u64, 5, 5, 80, 3, 2, 1, 21] {
            enc.u64(w); // updates, blocks, 2 cursor words, served, snapshots, deletions, n
        }
        let snap = decode_serve_snapshot(&enc.into_bytes()).unwrap();
        let want = ServeSnapshot {
            updates: 80,
            blocks: 5,
            served: 3,
            snapshots: 2,
            deletions: 1,
            num_vertices: 21,
        };
        assert_eq!(snap, want);
        // Layout 2 round-trips without the cursor words.
        let bytes = encode_serve_snapshot(&want);
        assert_eq!(bytes.len(), 1 + 6 * 8);
        assert_eq!(decode_serve_snapshot(&bytes).unwrap(), want);
    }
}
