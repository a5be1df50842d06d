//! Durable estimator state: versioned, checksummed binary codecs plus a
//! segment-based write-ahead log and snapshot manifest.
//!
//! Everything here is hand-rolled on `std` only (like `sgs-prng`): a
//! little-endian [`Encoder`]/[`Decoder`] pair, an FNV-1a-64 checksum, and
//! a fixed frame format shared by every on-disk record:
//!
//! ```text
//! +-------+---------+------+----------+-------------+----------+----------+
//! | magic | version | kind | reserved | payload len |  payload | checksum |
//! | SGSP  |   u16   |  u8  |    u8    |     u64     |  (bytes) | FNV-1a64 |
//! +-------+---------+------+----------+-------------+----------+----------+
//! ```
//!
//! The checksum covers every byte before it, so a torn write or a flipped
//! bit anywhere in a record is detected before one field is interpreted.
//! Decoders validate semantic invariants, too (edge endpoints ordered,
//! RNG state non-zero, table sizes powers of two), so corrupt input
//! *errors* — it never panics and never builds an inconsistent sketch.
//!
//! ## WAL + snapshot layout of a checkpoint directory
//!
//! ```text
//! D/
//!   CONFIG            caller-owned run configuration (one framed record)
//!   wal-000000.seg    framed RoutedUpdate blocks, then one seal record
//!   wal-000001.seg    ... (segments roll at a size threshold)
//!   snap-00000007.bin the snapshot with sequence number 7
//!   MANIFEST          points at the latest *complete* snapshot
//! ```
//!
//! The WAL is written during the ingest phase (the feed is durable before
//! estimation starts); snapshots are published with write-to-temp +
//! atomic rename, and `MANIFEST` is only swung after the snapshot file is
//! on disk — a crash mid-publish leaves the previous snapshot authoritative.
//!
//! **fsync points** (documented contract): the current WAL segment is
//! synced when it rolls and again at seal; a snapshot file is synced
//! before its rename; `MANIFEST` is synced before its rename; and the
//! checkpoint *directory* is synced after every entry change (segment
//! create, seal, atomic rename) — file-level fsync alone leaves the
//! directory entry itself volatile. Everything else is replayable from
//! those.
//!
//! Recovery of a torn WAL tail: [`read_wal`] scans records in order and,
//! at the first bad checksum or short record, truncates that segment at
//! the last good record boundary and drops any later segments (record
//! boundaries after a corrupt record cannot be trusted). A WAL without
//! its seal record is reported as unsealed — the ingest phase never
//! completed, so there is nothing consistent to resume.

use crate::sharded::{RoutedUpdate, ShardMap};
use crate::update::EdgeUpdate;
use sgs_graph::{Edge, VertexId};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// On-disk format version. Bumped on any layout change; decoders reject
/// other versions with [`PersistError::VersionMismatch`].
///
/// v2: the WAL seal record carries the [`crate::ShardMap`] placement
/// overrides, so a load-balanced deployment recovers into its placement.
/// v1 logs (pre-placement) are rejected at the frame level — the loud
/// rejection for version-mismatched maps.
pub const PERSIST_VERSION: u16 = 2;

/// Frame magic: every persisted record starts with these four bytes.
pub const MAGIC: [u8; 4] = *b"SGSP";

/// Frame kinds (one per record type; a decoder checks the kind it expects).
pub const KIND_WAL_BLOCK: u8 = 1;
/// WAL seal record: ingest completed, totals recorded.
pub const KIND_WAL_SEAL: u8 = 2;
/// A full run snapshot (payload owned by `sgs-query`).
pub const KIND_SNAPSHOT: u8 = 3;
/// The manifest record naming the latest complete snapshot.
pub const KIND_MANIFEST: u8 = 4;
/// An [`crate::L0Sampler`] state record.
pub const KIND_L0: u8 = 5;
/// A [`crate::ReservoirBank`] state record.
pub const KIND_RESERVOIR: u8 = 6;
/// A [`crate::FlatIndex`] state record.
pub const KIND_FLAT: u8 = 7;
/// Caller-owned run configuration (the CLI's pattern/trials/seed blob).
pub const KIND_CONFIG: u8 = 8;
/// A shard-pass state record (payload owned by `sgs-query`).
pub const KIND_PASS_STATE: u8 = 9;

const FRAME_HEADER: usize = 4 + 2 + 1 + 1 + 8;
const CHECKSUM_LEN: usize = 8;

/// Errors from every durability path — and from the CLI's input loading,
/// which shares this type so file/offset context is reported uniformly.
#[derive(Debug)]
pub enum PersistError {
    /// An OS-level I/O failure, with the path that failed.
    Io {
        /// Path of the file or directory the operation touched.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// Bytes were read but fail validation (checksum, magic, semantic
    /// invariants, malformed text input).
    Corrupt {
        /// Path of the offending file (empty until located).
        path: String,
        /// Byte offset (or line number for text input) of the failure.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// A record ends before its declared extent — the torn-write shape.
    Truncated {
        /// Path of the offending file (empty until located).
        path: String,
        /// Byte offset where the record started or broke off.
        offset: u64,
        /// What was being read.
        detail: String,
    },
    /// The record was written by a different format version.
    VersionMismatch {
        /// Path of the offending file (empty until located).
        path: String,
        /// Version found in the record header.
        found: u16,
        /// The version this build reads.
        supported: u16,
    },
    /// Well-formed state that this build cannot resume: it was written
    /// by a build whose algorithm asked different queries.
    Incompatible {
        /// Path of the offending file or directory (empty until located).
        path: String,
        /// What does not match.
        detail: String,
    },
}

impl PersistError {
    /// An I/O error tagged with its path.
    pub fn io(path: impl AsRef<Path>, source: std::io::Error) -> Self {
        PersistError::Io {
            path: path.as_ref().display().to_string(),
            source,
        }
    }

    /// A corruption error (path filled in by the file layer).
    pub fn corrupt(offset: u64, detail: impl Into<String>) -> Self {
        PersistError::Corrupt {
            path: String::new(),
            offset,
            detail: detail.into(),
        }
    }

    /// An incompatible-state error (path filled in by the caller).
    pub fn incompatible(detail: impl Into<String>) -> Self {
        PersistError::Incompatible {
            path: String::new(),
            detail: detail.into(),
        }
    }

    /// Attach a file path to a buffer-level error that lacks one.
    pub fn located(mut self, at: impl AsRef<Path>) -> Self {
        let p = at.as_ref().display().to_string();
        match &mut self {
            PersistError::Io { path, .. }
            | PersistError::Corrupt { path, .. }
            | PersistError::Truncated { path, .. }
            | PersistError::VersionMismatch { path, .. }
            | PersistError::Incompatible { path, .. } => {
                if path.is_empty() {
                    *path = p;
                }
            }
        }
        self
    }

    /// Whether this is the torn-tail shape ([`PersistError::Truncated`]
    /// or [`PersistError::Corrupt`]) that WAL recovery handles by
    /// truncation, as opposed to a hard error.
    pub fn is_tail_damage(&self) -> bool {
        matches!(
            self,
            PersistError::Corrupt { .. } | PersistError::Truncated { .. }
        )
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let loc = |p: &str| {
            if p.is_empty() {
                "<memory>".to_string()
            } else {
                p.to_string()
            }
        };
        match self {
            PersistError::Io { path, source } => write!(f, "{}: {source}", loc(path)),
            PersistError::Corrupt {
                path,
                offset,
                detail,
            } => write!(f, "{}: corrupt at byte {offset}: {detail}", loc(path)),
            PersistError::Truncated {
                path,
                offset,
                detail,
            } => write!(f, "{}: truncated at byte {offset}: {detail}", loc(path)),
            PersistError::VersionMismatch {
                path,
                found,
                supported,
            } => write!(
                f,
                "{}: format version {found} not supported (this build reads version {supported})",
                loc(path)
            ),
            PersistError::Incompatible { path, detail } => write!(f, "{}: {detail}", loc(path)),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Result alias for every durability path.
pub type PersistResult<T> = Result<T, PersistError>;

/// FNV-1a 64-bit checksum over `bytes` — small, dependency-free, and
/// plenty for torn-write detection (this is an integrity check against
/// accidents, not an adversary).
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian append-only byte sink for record payloads.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64` (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes (no length prefix).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Append a length-prefixed byte string.
    pub fn blob(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.bytes(b);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.blob(s.as_bytes());
    }

    /// Append a normalized edge as its packed key.
    pub fn edge(&mut self, e: Edge) {
        self.u64(e.key());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The accumulated payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Offset-tracked reader over a payload; every read is bounds-checked and
/// failures carry the byte offset. Corrupt input errors — it never
/// panics and never over-allocates (collection lengths are validated
/// against the bytes actually present before any allocation).
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> u64 {
        self.pos as u64
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn short(&self, what: &str) -> PersistError {
        PersistError::Truncated {
            path: String::new(),
            offset: self.pos as u64,
            detail: format!("payload ends inside {what}"),
        }
    }

    /// A [`PersistError::Corrupt`] anchored at the current offset.
    pub fn corrupt(&self, detail: impl Into<String>) -> PersistError {
        PersistError::corrupt(self.pos as u64, detail)
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &str) -> PersistResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.short(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self, what: &str) -> PersistResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self, what: &str) -> PersistResult<u16> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes(b.try_into().expect("len checked")))
    }

    /// Read a `u32`.
    pub fn u32(&mut self, what: &str) -> PersistResult<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("len checked")))
    }

    /// Read a `u64`.
    pub fn u64(&mut self, what: &str) -> PersistResult<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("len checked")))
    }

    /// Read an `i64`.
    pub fn i64(&mut self, what: &str) -> PersistResult<i64> {
        let b = self.take(8, what)?;
        Ok(i64::from_le_bytes(b.try_into().expect("len checked")))
    }

    /// Read a `u64` and validate it fits a `usize` count of `elem_bytes`
    /// items within the remaining payload — the guard that keeps a
    /// bit-flipped length from driving a huge allocation.
    pub fn count(&mut self, elem_bytes: usize, what: &str) -> PersistResult<usize> {
        let n = self.u64(what)?;
        let fits = usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(elem_bytes.max(1)))
            .is_some_and(|total| total <= self.remaining());
        if !fits {
            return Err(self.corrupt(format!("{what} count {n} exceeds payload")));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed byte string.
    pub fn blob(&mut self, what: &str) -> PersistResult<&'a [u8]> {
        let n = self.count(1, what)?;
        self.take(n, what)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> PersistResult<String> {
        let b = self.blob(what)?;
        String::from_utf8(b.to_vec()).map_err(|_| self.corrupt(format!("{what} is not UTF-8")))
    }

    /// Read a normalized edge, validating the endpoint order invariant.
    pub fn edge(&mut self, what: &str) -> PersistResult<Edge> {
        let key = self.u64(what)?;
        let (lo, hi) = ((key >> 32) as u32, key as u32);
        if lo >= hi {
            return Err(self.corrupt(format!("{what}: edge key {key:#x} is not normalized")));
        }
        Ok(Edge::new(VertexId(lo), VertexId(hi)))
    }

    /// Assert the payload was consumed exactly.
    pub fn finish(self) -> PersistResult<()> {
        if self.pos != self.buf.len() {
            return Err(self.corrupt(format!("{} trailing bytes", self.buf.len() - self.pos)));
        }
        Ok(())
    }
}

/// Items a [`crate::ReservoirBank`] can persist.
pub trait PersistItem: Copy {
    /// Append this item to `enc`.
    fn encode_item(&self, enc: &mut Encoder);
    /// Read one item, validating invariants.
    fn decode_item(dec: &mut Decoder) -> PersistResult<Self>;
}

impl PersistItem for Edge {
    fn encode_item(&self, enc: &mut Encoder) {
        enc.edge(*self);
    }
    fn decode_item(dec: &mut Decoder) -> PersistResult<Self> {
        dec.edge("reservoir item")
    }
}

impl PersistItem for u64 {
    fn encode_item(&self, enc: &mut Encoder) {
        enc.u64(*self);
    }
    fn decode_item(dec: &mut Decoder) -> PersistResult<Self> {
        dec.u64("reservoir item")
    }
}

/// Wrap `payload` in the standard frame: magic, version, kind, length,
/// payload, FNV-1a-64 checksum over everything before the checksum.
pub fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&PERSIST_VERSION.to_le_bytes());
    out.push(kind);
    out.push(0); // reserved
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = checksum64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// One decoded frame: its kind, payload, and total on-disk length.
#[derive(Debug)]
pub struct Frame<'a> {
    /// Record kind byte.
    pub kind: u8,
    /// Validated payload bytes.
    pub payload: &'a [u8],
    /// Total frame length including header and checksum.
    pub len: usize,
}

/// Decode the frame starting at `buf[at..]`. `at` is only used to report
/// absolute offsets in errors. Checks, in order: header present, magic,
/// version, declared extent within `buf`, checksum.
pub fn read_frame(buf: &[u8], at: u64) -> PersistResult<Frame<'_>> {
    if buf.len() < FRAME_HEADER {
        return Err(PersistError::Truncated {
            path: String::new(),
            offset: at,
            detail: format!(
                "frame header needs {FRAME_HEADER} bytes, {} left",
                buf.len()
            ),
        });
    }
    if buf[..4] != MAGIC {
        return Err(PersistError::corrupt(at, "bad frame magic"));
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != PERSIST_VERSION {
        return Err(PersistError::VersionMismatch {
            path: String::new(),
            found: version,
            supported: PERSIST_VERSION,
        });
    }
    let kind = buf[6];
    let payload_len = u64::from_le_bytes(buf[8..16].try_into().expect("len checked"));
    let total = (payload_len as u128) + (FRAME_HEADER + CHECKSUM_LEN) as u128;
    if total > buf.len() as u128 {
        return Err(PersistError::Truncated {
            path: String::new(),
            offset: at,
            detail: format!(
                "frame declares {payload_len}-byte payload, {} bytes left",
                buf.len()
            ),
        });
    }
    let total = total as usize;
    let body = &buf[..total - CHECKSUM_LEN];
    let stored = u64::from_le_bytes(buf[total - CHECKSUM_LEN..total].try_into().expect("len ok"));
    if checksum64(body) != stored {
        return Err(PersistError::corrupt(at, "frame checksum mismatch"));
    }
    Ok(Frame {
        kind,
        payload: &buf[FRAME_HEADER..total - CHECKSUM_LEN],
        len: total,
    })
}

/// Decode a frame and require a specific kind.
pub fn read_frame_of(buf: &[u8], at: u64, kind: u8) -> PersistResult<Frame<'_>> {
    let f = read_frame(buf, at)?;
    if f.kind != kind {
        return Err(PersistError::corrupt(
            at,
            format!("expected record kind {kind}, found {}", f.kind),
        ));
    }
    Ok(f)
}

fn read_file(path: &Path) -> PersistResult<Vec<u8>> {
    let mut f = File::open(path).map_err(|e| PersistError::io(path, e))?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)
        .map_err(|e| PersistError::io(path, e))?;
    Ok(buf)
}

/// Fsync a directory so creates/renames/removals of its entries are
/// durable — the complement of the file-level fsync points. A file's
/// `sync_all` makes its *contents* durable, but the directory entry
/// naming it lives in the parent directory's data: a crash after an
/// atomic rename can lose the rename itself unless the directory is
/// synced too.
pub fn fsync_dir(dir: &Path) -> PersistResult<()> {
    let d = File::open(dir).map_err(|e| PersistError::io(dir, e))?;
    d.sync_all().map_err(|e| PersistError::io(dir, e))
}

fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Write `bytes` to `path` via a temporary file + atomic rename, syncing
/// the temporary before the rename and the parent directory after it
/// (two of the documented fsync points — without the latter, a crash
/// after the rename can lose the directory-entry swing entirely).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> PersistResult<()> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp).map_err(|e| PersistError::io(&tmp, e))?;
    f.write_all(bytes).map_err(|e| PersistError::io(&tmp, e))?;
    f.sync_all().map_err(|e| PersistError::io(&tmp, e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| PersistError::io(path, e))?;
    fsync_dir(parent_dir(path))
}

// ---------------------------------------------------------------------------
// RoutedUpdate block codec (the WAL's record payload)
// ---------------------------------------------------------------------------

const ROUTED_BYTES: usize = 4 + 2 + 2 + 8 + 1;

/// Encode one WAL block of routed updates.
pub fn encode_routed_block(block: &[RoutedUpdate]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u64(block.len() as u64);
    for r in block {
        enc.u32(r.position);
        enc.u16(r.owner);
        enc.u16(r.other);
        enc.edge(r.update.edge);
        enc.u8(r.update.delta as u8);
    }
    enc.into_bytes()
}

/// Decode one WAL block, validating every update (normalized edge,
/// strict ±1 delta).
pub fn decode_routed_block(payload: &[u8]) -> PersistResult<Vec<RoutedUpdate>> {
    let mut dec = Decoder::new(payload);
    let n = dec.count(ROUTED_BYTES, "routed block")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let position = dec.u32("update position")?;
        let owner = dec.u16("owner shard")?;
        let other = dec.u16("other shard")?;
        let edge = dec.edge("update edge")?;
        let delta = dec.u8("update delta")? as i8;
        if delta != 1 && delta != -1 {
            return Err(dec.corrupt(format!("update delta {delta} outside strict turnstile")));
        }
        out.push(RoutedUpdate {
            position,
            owner,
            other,
            update: EdgeUpdate { edge, delta },
        });
    }
    dec.finish()?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Write-ahead log
// ---------------------------------------------------------------------------

/// Totals recorded by the WAL seal record — the proof that the ingest
/// phase completed and the log holds the whole stream. Since format v2
/// the seal also records the placement the stream was routed with
/// (uniform hash + [`ShardMap`] overrides), so recovery rebuilds a
/// load-balanced deployment into its placement instead of assuming
/// uniform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalMeta {
    /// Vertex count `n` of the underlying graph.
    pub num_vertices: u64,
    /// Source stream length (positions are `0..stream_len`).
    pub stream_len: u64,
    /// Shard count the stream was routed for.
    pub num_shards: u64,
    /// WAL blocks written before the seal.
    pub total_blocks: u64,
    /// Updates across all blocks (== `stream_len`).
    pub total_updates: u64,
    /// Nominal updates per block (the last block may be short).
    pub block_len: u64,
    /// Per-vertex placement overrides on top of the uniform hash
    /// (empty = uniform placement).
    pub overrides: Vec<(u32, u16)>,
}

impl WalMeta {
    /// The placement the log's routed buffer was produced under —
    /// thread this through [`crate::ShardedFeed::from_routed_with_map`]
    /// on recovery.
    pub fn shard_map(&self) -> ShardMap {
        ShardMap::with_overrides(self.num_shards as usize, self.overrides.clone())
    }

    fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u64(self.num_vertices);
        enc.u64(self.stream_len);
        enc.u64(self.num_shards);
        enc.u64(self.total_blocks);
        enc.u64(self.total_updates);
        enc.u64(self.block_len);
        enc.u64(self.overrides.len() as u64);
        for &(v, s) in &self.overrides {
            enc.u32(v);
            enc.u16(s);
        }
        enc.into_bytes()
    }

    fn decode(payload: &[u8]) -> PersistResult<Self> {
        let mut dec = Decoder::new(payload);
        let mut meta = WalMeta {
            num_vertices: dec.u64("num_vertices")?,
            stream_len: dec.u64("stream_len")?,
            num_shards: dec.u64("num_shards")?,
            total_blocks: dec.u64("total_blocks")?,
            total_updates: dec.u64("total_updates")?,
            block_len: dec.u64("block_len")?,
            overrides: Vec::new(),
        };
        let n_over = dec.count(6, "override count")?;
        for _ in 0..n_over {
            let v = dec.u32("override vertex")?;
            let s = dec.u16("override shard")?;
            if (s as u64) >= meta.num_shards {
                return Err(dec.corrupt(format!(
                    "override sends vertex {v} to shard {s}, only {} shards",
                    meta.num_shards
                )));
            }
            meta.overrides.push((v, s));
        }
        dec.finish()?;
        Ok(meta)
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.seg"))
}

fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:08}.bin"))
}

/// Default WAL segment roll threshold (bytes).
pub const DEFAULT_SEGMENT_BYTES: usize = 1 << 20;

/// Appends framed [`RoutedUpdate`] blocks to rolling segment files and
/// finishes with a seal record. Created fresh per run — any files from a
/// previous run in the directory (`wal-*.seg`, `snap-*.bin`, `MANIFEST`,
/// `CONFIG`) are removed first.
pub struct WalWriter {
    dir: PathBuf,
    segment_bytes: usize,
    seg_index: u64,
    file: File,
    path: PathBuf,
    written: usize,
    blocks: u64,
    updates: u64,
}

impl WalWriter {
    /// Start a fresh WAL in `dir` (created if absent), rolling segments
    /// at roughly `segment_bytes`.
    pub fn create(dir: &Path, segment_bytes: usize) -> PersistResult<Self> {
        fs::create_dir_all(dir).map_err(|e| PersistError::io(dir, e))?;
        clear_run_files(dir)?;
        let path = segment_path(dir, 0);
        let file = File::create(&path).map_err(|e| PersistError::io(&path, e))?;
        // Make the removals above and the new segment's entry durable.
        fsync_dir(dir)?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            segment_bytes: segment_bytes.max(1),
            seg_index: 0,
            file,
            path,
            written: 0,
            blocks: 0,
            updates: 0,
        })
    }

    /// Append one block of routed updates.
    pub fn append_block(&mut self, block: &[RoutedUpdate]) -> PersistResult<()> {
        if self.written >= self.segment_bytes {
            // fsync point: a segment is durable before its successor opens.
            self.file
                .sync_all()
                .map_err(|e| PersistError::io(&self.path, e))?;
            self.seg_index += 1;
            self.path = segment_path(&self.dir, self.seg_index);
            self.file = File::create(&self.path).map_err(|e| PersistError::io(&self.path, e))?;
            fsync_dir(&self.dir)?;
            self.written = 0;
        }
        let rec = frame(KIND_WAL_BLOCK, &encode_routed_block(block));
        self.file
            .write_all(&rec)
            .map_err(|e| PersistError::io(&self.path, e))?;
        self.written += rec.len();
        self.blocks += 1;
        self.updates += block.len() as u64;
        Ok(())
    }

    /// Blocks appended so far (including blocks recovered by
    /// [`WalWriter::reopen`]).
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Updates appended so far (including updates recovered by
    /// [`WalWriter::reopen`]).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Write the seal record and fsync: after this returns, the whole
    /// stream is durable and recovery can rebuild the feed from disk.
    /// Records uniform placement — a feed routed under a non-trivial
    /// [`ShardMap`] must seal through [`WalWriter::seal_with_map`] or
    /// recovery will reject the log's routing.
    pub fn seal(
        self,
        num_vertices: usize,
        num_shards: usize,
        block_len: usize,
    ) -> PersistResult<WalMeta> {
        self.seal_with_map(num_vertices, &ShardMap::uniform(num_shards), block_len)
    }

    /// [`WalWriter::seal`] recording an explicit placement: the map's
    /// overrides ride the seal record, so `sgs recover` rebuilds the
    /// load-balanced feed with the routing it was written under.
    pub fn seal_with_map(
        mut self,
        num_vertices: usize,
        map: &ShardMap,
        block_len: usize,
    ) -> PersistResult<WalMeta> {
        let meta = WalMeta {
            num_vertices: num_vertices as u64,
            stream_len: self.updates,
            num_shards: map.num_shards() as u64,
            total_blocks: self.blocks,
            total_updates: self.updates,
            block_len: block_len as u64,
            overrides: map.overrides().to_vec(),
        };
        let rec = frame(KIND_WAL_SEAL, &meta.encode());
        self.file
            .write_all(&rec)
            .map_err(|e| PersistError::io(&self.path, e))?;
        // fsync point: seal + every record before it hit the platter,
        // and the directory so every segment's entry survives with it.
        self.file
            .sync_all()
            .map_err(|e| PersistError::io(&self.path, e))?;
        fsync_dir(&self.dir)?;
        Ok(meta)
    }

    /// Reopen an existing WAL for continued appends — the serve restart
    /// path. Scans the log first ([`read_wal`], truncating any torn
    /// tail in place), strips the seal record if present (a gracefully
    /// stopped server reopens its log unsealed and keeps ingesting),
    /// and resumes appending to the last surviving segment. The
    /// returned [`RecoveredWal`] holds every intact block; the writer's
    /// block/update counters continue from those totals, so a later
    /// seal records whole-history totals.
    pub fn reopen(dir: &Path, segment_bytes: usize) -> PersistResult<(Self, RecoveredWal)> {
        let recovered = read_wal(dir)?;
        let mut seg_paths = Vec::new();
        for entry in fs::read_dir(dir).map_err(|e| PersistError::io(dir, e))? {
            let entry = entry.map_err(|e| PersistError::io(dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("wal-") && name.ends_with(".seg") {
                seg_paths.push(entry.path());
            }
        }
        seg_paths.sort();
        let path = seg_paths.last().cloned().expect("read_wal saw segments");
        if recovered.meta.is_some() {
            // The seal is the last record of the last segment; cut the
            // segment back to just before it so appends continue the
            // block sequence.
            let buf = read_file(&path)?;
            let mut off = 0usize;
            let mut seal_at = None;
            while off < buf.len() {
                let f = read_frame(&buf[off..], off as u64).map_err(|e| e.located(&path))?;
                if f.kind == KIND_WAL_SEAL {
                    seal_at = Some(off);
                }
                off += f.len;
            }
            let seal_at = seal_at.ok_or_else(|| {
                PersistError::corrupt(0, "sealed WAL lost its seal record").located(&path)
            })?;
            let f = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| PersistError::io(&path, e))?;
            f.set_len(seal_at as u64)
                .map_err(|e| PersistError::io(&path, e))?;
            f.sync_all().map_err(|e| PersistError::io(&path, e))?;
        }
        let mut file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| PersistError::io(&path, e))?;
        let written = file
            .seek(SeekFrom::End(0))
            .map_err(|e| PersistError::io(&path, e))? as usize;
        let seg_index = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("wal-"))
            .and_then(|n| n.strip_suffix(".seg"))
            .and_then(|n| n.parse::<u64>().ok())
            .expect("segment names are wal-NNNNNN.seg");
        Ok((
            WalWriter {
                dir: dir.to_path_buf(),
                segment_bytes: segment_bytes.max(1),
                seg_index,
                file,
                path,
                written,
                blocks: recovered.blocks.len() as u64,
                updates: recovered.blocks.iter().map(|b| b.len() as u64).sum(),
            },
            recovered,
        ))
    }
}

fn clear_run_files(dir: &Path) -> PersistResult<()> {
    for entry in fs::read_dir(dir).map_err(|e| PersistError::io(dir, e))? {
        let entry = entry.map_err(|e| PersistError::io(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let ours = (name.starts_with("wal-") && name.ends_with(".seg"))
            || (name.starts_with("snap-") && name.ends_with(".bin"))
            || name == "MANIFEST"
            || name == "CONFIG";
        if ours {
            fs::remove_file(entry.path()).map_err(|e| PersistError::io(entry.path(), e))?;
        }
    }
    Ok(())
}

/// The outcome of scanning a WAL directory.
pub struct RecoveredWal {
    /// Every intact block, in order.
    pub blocks: Vec<Vec<RoutedUpdate>>,
    /// The seal record, if the ingest phase completed and the tail is
    /// intact. `None` means the log is unsealed — there is nothing
    /// consistent to resume from it.
    pub meta: Option<WalMeta>,
    /// Human-readable report when a torn/corrupt tail was truncated.
    pub truncation: Option<String>,
}

/// Scan `dir`'s WAL segments in order. On the first bad record the
/// damaged segment is truncated at the last good record boundary, later
/// segments are deleted (their boundaries can't be trusted), and the
/// report is returned in [`RecoveredWal::truncation`]. Version-mismatch
/// records are a hard error (a future format, not tail damage).
pub fn read_wal(dir: &Path) -> PersistResult<RecoveredWal> {
    let mut seg_paths = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| PersistError::io(dir, e))? {
        let entry = entry.map_err(|e| PersistError::io(dir, e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("wal-") && name.ends_with(".seg") {
            seg_paths.push(entry.path());
        }
    }
    seg_paths.sort();
    if seg_paths.is_empty() {
        return Err(PersistError::Io {
            path: dir.display().to_string(),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "no WAL segments"),
        });
    }
    let mut blocks = Vec::new();
    let mut meta = None;
    let mut truncation = None;
    'segments: for (si, path) in seg_paths.iter().enumerate() {
        let buf = read_file(path)?;
        let mut off = 0usize;
        while off < buf.len() {
            if meta.is_some() {
                return Err(
                    PersistError::corrupt(off as u64, "records found after the WAL seal")
                        .located(path),
                );
            }
            match read_frame(&buf[off..], off as u64) {
                Ok(f) => {
                    match f.kind {
                        KIND_WAL_BLOCK => blocks
                            .push(decode_routed_block(f.payload).map_err(|e| e.located(path))?),
                        KIND_WAL_SEAL => {
                            meta = Some(WalMeta::decode(f.payload).map_err(|e| e.located(path))?)
                        }
                        k => {
                            return Err(PersistError::corrupt(
                                off as u64,
                                format!("unexpected record kind {k} in WAL"),
                            )
                            .located(path))
                        }
                    }
                    off += f.len;
                }
                Err(e) if e.is_tail_damage() => {
                    // Torn or corrupt tail: cut the segment back to the
                    // last good record and drop everything after it.
                    let report = format!(
                        "WAL tail damaged ({}); truncated {} to {off} bytes, dropped {} later segment(s)",
                        e.located(path),
                        path.display(),
                        seg_paths.len() - si - 1,
                    );
                    let f = OpenOptions::new()
                        .write(true)
                        .open(path)
                        .map_err(|er| PersistError::io(path, er))?;
                    f.set_len(off as u64)
                        .map_err(|er| PersistError::io(path, er))?;
                    f.sync_all().map_err(|er| PersistError::io(path, er))?;
                    for later in &seg_paths[si + 1..] {
                        fs::remove_file(later).map_err(|er| PersistError::io(later, er))?;
                    }
                    truncation = Some(report);
                    break 'segments;
                }
                Err(e) => return Err(e.located(path)),
            }
        }
    }
    if let Some(m) = &meta {
        if m.total_blocks != blocks.len() as u64
            || m.total_updates != blocks.iter().map(|b| b.len() as u64).sum::<u64>()
        {
            return Err(PersistError::corrupt(
                0,
                format!(
                    "WAL seal records {} blocks / {} updates but {} blocks survived",
                    m.total_blocks,
                    m.total_updates,
                    blocks.len()
                ),
            )
            .located(&seg_paths[0]));
        }
    }
    Ok(RecoveredWal {
        blocks,
        meta,
        truncation,
    })
}

// ---------------------------------------------------------------------------
// Snapshots + manifest + config blob
// ---------------------------------------------------------------------------

/// Publish snapshot `seq`: write `snap-<seq>.bin` (temp + fsync +
/// rename), then swing `MANIFEST` at it the same way. A crash anywhere
/// in between leaves the previous manifest/snapshot pair authoritative.
pub fn publish_snapshot(dir: &Path, seq: u64, payload: &[u8]) -> PersistResult<PathBuf> {
    let path = snapshot_path(dir, seq);
    write_atomic(&path, &frame(KIND_SNAPSHOT, payload))?;
    let mut enc = Encoder::new();
    enc.u64(seq);
    write_atomic(
        &dir.join("MANIFEST"),
        &frame(KIND_MANIFEST, &enc.into_bytes()),
    )?;
    Ok(path)
}

/// Load the snapshot the manifest points at: `Ok(None)` when no snapshot
/// was ever published.
pub fn read_latest_snapshot(dir: &Path) -> PersistResult<Option<(u64, Vec<u8>)>> {
    let manifest = dir.join("MANIFEST");
    if !manifest.exists() {
        return Ok(None);
    }
    let buf = read_file(&manifest)?;
    let f = read_frame_of(&buf, 0, KIND_MANIFEST).map_err(|e| e.located(&manifest))?;
    let mut dec = Decoder::new(f.payload);
    let seq = dec.u64("snapshot seq").map_err(|e| e.located(&manifest))?;
    dec.finish().map_err(|e| e.located(&manifest))?;
    let spath = snapshot_path(dir, seq);
    if !spath.exists() {
        // A structured error, not a raw NotFound: the manifest is the
        // authority and it names a snapshot that is gone.
        return Err(PersistError::corrupt(
            0,
            format!(
                "MANIFEST points at missing snapshot {} (directory entry lost?)",
                spath.display()
            ),
        )
        .located(&manifest));
    }
    let sbuf = read_file(&spath)?;
    let sf = read_frame_of(&sbuf, 0, KIND_SNAPSHOT).map_err(|e| e.located(&spath))?;
    Ok(Some((seq, sf.payload.to_vec())))
}

/// Write the caller-owned run configuration blob (atomic).
pub fn write_config(dir: &Path, payload: &[u8]) -> PersistResult<()> {
    write_atomic(&dir.join("CONFIG"), &frame(KIND_CONFIG, payload))
}

/// Read the run configuration blob, if present.
pub fn read_config(dir: &Path) -> PersistResult<Option<Vec<u8>>> {
    let path = dir.join("CONFIG");
    if !path.exists() {
        return Ok(None);
    }
    let buf = read_file(&path)?;
    let f = read_frame_of(&buf, 0, KIND_CONFIG).map_err(|e| e.located(&path))?;
    Ok(Some(f.payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::InsertionStream;
    use crate::ShardedFeed;
    use sgs_graph::gen;

    fn routed(shards: usize) -> Vec<RoutedUpdate> {
        let g = gen::gnm(20, 60, 7);
        let s = InsertionStream::from_graph(&g, 8);
        ShardedFeed::partition(&s, shards).routed().to_vec()
    }

    #[test]
    fn frame_round_trips() {
        let payload = b"hello persistence".to_vec();
        let rec = frame(KIND_CONFIG, &payload);
        let f = read_frame(&rec, 0).unwrap();
        assert_eq!(f.kind, KIND_CONFIG);
        assert_eq!(f.payload, &payload[..]);
        assert_eq!(f.len, rec.len());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let rec = frame(KIND_WAL_BLOCK, &encode_routed_block(&routed(3)[..7]));
        for byte in 0..rec.len() {
            for bit in 0..8 {
                let mut bad = rec.clone();
                bad[byte] ^= 1 << bit;
                let res =
                    read_frame(&bad, 0).and_then(|f| decode_routed_block(f.payload).map(|_| ()));
                assert!(
                    res.is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn short_buffer_is_truncated_not_panic() {
        let rec = frame(KIND_SNAPSHOT, b"0123456789");
        for cut in 0..rec.len() {
            let res = read_frame(&rec[..cut], 0);
            assert!(res.is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn version_mismatch_is_reported_with_both_versions() {
        let mut rec = frame(KIND_SNAPSHOT, b"x");
        rec[4] = 0x7f; // bump the version field
        match read_frame(&rec, 0) {
            Err(PersistError::VersionMismatch {
                found, supported, ..
            }) => {
                assert_eq!(found, 0x7f);
                assert_eq!(supported, PERSIST_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn routed_block_round_trips_exactly() {
        let block = routed(4);
        let back = decode_routed_block(&encode_routed_block(&block)).unwrap();
        assert_eq!(back, block);
        assert!(decode_routed_block(&encode_routed_block(&[]))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn wal_write_read_round_trip() {
        let dir = std::env::temp_dir().join("sgs_persist_wal_rt");
        let all = routed(2);
        let mut w = WalWriter::create(&dir, 256).unwrap(); // tiny segments to force rolls
        for chunk in all.chunks(9) {
            w.append_block(chunk).unwrap();
        }
        let sealed = w.seal(20, 2, 9).unwrap();
        let rec = read_wal(&dir).unwrap();
        assert_eq!(rec.meta, Some(sealed));
        assert!(rec.truncation.is_none());
        let flat: Vec<RoutedUpdate> = rec.blocks.into_iter().flatten().collect();
        assert_eq!(flat, all);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_truncated_cleanly() {
        let dir = std::env::temp_dir().join("sgs_persist_wal_torn");
        let all = routed(2);
        let mut w = WalWriter::create(&dir, usize::MAX).unwrap();
        for chunk in all.chunks(10) {
            w.append_block(chunk).unwrap();
        }
        w.seal(20, 2, 10).unwrap();
        // Flip a byte near the end of the single segment (inside the seal
        // or the last block): recovery must truncate, not panic.
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0xff;
        std::fs::write(&seg, &bytes).unwrap();
        let rec = read_wal(&dir).unwrap();
        assert!(rec.truncation.is_some());
        assert!(rec.meta.is_none(), "seal must not survive a damaged tail");
        let flat: Vec<RoutedUpdate> = rec.blocks.iter().flatten().copied().collect();
        assert_eq!(flat[..], all[..flat.len()], "surviving prefix is intact");
        // A second scan of the truncated log is clean.
        let again = read_wal(&dir).unwrap();
        assert!(again.truncation.is_none());
        assert_eq!(again.blocks.len(), rec.blocks.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_reopen_unsealed_continues_the_block_sequence() {
        let dir = std::env::temp_dir().join("sgs_persist_wal_reopen");
        let all = routed(2);
        let mut w = WalWriter::create(&dir, 256).unwrap();
        for chunk in all[..30].chunks(10) {
            w.append_block(chunk).unwrap();
        }
        drop(w); // a killed server: no seal
        let (mut w2, recovered) = WalWriter::reopen(&dir, 256).unwrap();
        assert!(recovered.meta.is_none());
        assert_eq!(w2.blocks(), 3);
        assert_eq!(w2.updates(), 30);
        for chunk in all[30..].chunks(10) {
            w2.append_block(chunk).unwrap();
        }
        let sealed = w2.seal(20, 2, 10).unwrap();
        assert_eq!(sealed.total_updates, all.len() as u64);
        let rec = read_wal(&dir).unwrap();
        assert_eq!(rec.meta, Some(sealed));
        let flat: Vec<RoutedUpdate> = rec.blocks.into_iter().flatten().collect();
        assert_eq!(flat, all);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_reopen_after_seal_strips_the_seal_and_continues() {
        let dir = std::env::temp_dir().join("sgs_persist_wal_reseal");
        let all = routed(2);
        let mut w = WalWriter::create(&dir, usize::MAX).unwrap();
        for chunk in all[..20].chunks(10) {
            w.append_block(chunk).unwrap();
        }
        w.seal(20, 2, 10).unwrap(); // graceful shutdown
        let (mut w2, recovered) = WalWriter::reopen(&dir, usize::MAX).unwrap();
        assert!(recovered.meta.is_some(), "the sealed log was consistent");
        assert_eq!(w2.blocks(), 2);
        for chunk in all[20..].chunks(10) {
            w2.append_block(chunk).unwrap();
        }
        let resealed = w2.seal(20, 2, 10).unwrap();
        let rec = read_wal(&dir).unwrap();
        assert_eq!(rec.meta, Some(resealed));
        let flat: Vec<RoutedUpdate> = rec.blocks.into_iter().flatten().collect();
        assert_eq!(flat, all, "whole history survives a seal/reopen cycle");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_pointing_at_missing_snapshot_is_a_structured_error() {
        let dir = std::env::temp_dir().join("sgs_persist_snap_gone");
        std::fs::create_dir_all(&dir).unwrap();
        clear_run_files(&dir).unwrap();
        publish_snapshot(&dir, 3, b"payload").unwrap();
        std::fs::remove_file(snapshot_path(&dir, 3)).unwrap();
        match read_latest_snapshot(&dir) {
            Err(PersistError::Corrupt { path, detail, .. }) => {
                assert!(path.ends_with("MANIFEST"));
                assert!(detail.contains("missing snapshot"), "got: {detail}");
            }
            other => panic!("expected a structured Corrupt error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_publish_and_manifest_point_at_latest() {
        let dir = std::env::temp_dir().join("sgs_persist_snap");
        std::fs::create_dir_all(&dir).unwrap();
        clear_run_files(&dir).unwrap();
        assert!(read_latest_snapshot(&dir).unwrap().is_none());
        publish_snapshot(&dir, 1, b"first").unwrap();
        publish_snapshot(&dir, 2, b"second").unwrap();
        let (seq, payload) = read_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(seq, 2);
        assert_eq!(payload, b"second");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_blob_round_trips() {
        let dir = std::env::temp_dir().join("sgs_persist_cfg");
        std::fs::create_dir_all(&dir).unwrap();
        clear_run_files(&dir).unwrap();
        assert!(read_config(&dir).unwrap().is_none());
        write_config(&dir, b"pattern=triangle").unwrap();
        assert_eq!(read_config(&dir).unwrap().unwrap(), b"pattern=triangle");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decoder_count_guard_rejects_huge_lengths() {
        let mut enc = Encoder::new();
        enc.u64(u64::MAX); // absurd element count
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(dec.count(8, "elems").is_err());
    }
}
