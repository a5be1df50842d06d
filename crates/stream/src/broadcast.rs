//! Broadcast ingest: one bounded feed fans out to many pass consumers,
//! over a **lock-free seqlock SPMC ring**.
//!
//! The paper's estimators, the TRIÈST baseline, the exact oracle, and
//! plain pass counters are all *consumers of the same update sequence*.
//! A serving deployment wants to pay the ingest once: one producer pushes
//! the stream through a bounded single-producer/multi-consumer ring of
//! update blocks, and every registered consumer walks the blocks through
//! its own cursor. No external deps, and — since PR 7 — no lock on the
//! hot path either:
//!
//! * **Slot array + per-slot sequence numbers (seqlock publish).** The
//!   ring is a fixed array of `capacity` slots. Block `s` lives in slot
//!   `s % capacity`; the producer writes the block, then release-stores
//!   `s + 1` into the slot's atomic sequence word. A consumer at cursor
//!   `c` acquire-loads slot `c % capacity`'s sequence and reads the
//!   block only on an exact `c + 1` match — any other value means "not
//!   yet published" (an older generation is proof the new block has not
//!   landed, never a torn read, because of the reclamation rule below).
//! * **Atomic per-consumer cursors.** Each consumer owns an atomic
//!   cursor (its next sequence number), bumped with a release store
//!   *after* the block `Arc` is cloned out of the slot. The producer may
//!   overwrite slot `s % capacity` with block `s + capacity` only once
//!   every active cursor has passed `s` — and a consumer mid-read still
//!   sits *at* `s` — so a published slot is immutable for exactly as
//!   long as anyone may read it. That protocol is what lets readers skip
//!   the classic seqlock re-check loop: the single sequence load is
//!   already conclusive.
//! * **Cached-minimum producer fast path.** The space check compares the
//!   next sequence against a cached lower bound of the minimum active
//!   cursor; only when the bound says "full" does the producer rescan
//!   the (fixed, subscribe-before-produce) consumer set and refresh the
//!   cache. Fast-moving consumers therefore cost the producer one
//!   relaxed load per block, not a scan.
//! * **Bounded spin-then-park blocking.** The blocking APIs spin briefly
//!   (`spin_loop` then `yield_now`), then park on a doorbell — a
//!   `Mutex`+`Condvar` pair touched *only* by parked threads; wakers pay
//!   a single atomic load when nobody is parked. Parks use short timed
//!   waits, which is also how a producer stuck behind a stalled cursor
//!   keeps its [`StallEvent`] duration current while still blocked.
//!
//! Semantics are unchanged from the mutex ring (preserved verbatim in
//! [`crate::broadcast_mutex`] as bench baseline and stress-test oracle):
//!
//! * **Blocks, not updates.** The ring holds up to `capacity` blocks of
//!   [`RoutedUpdate`]s; memory is bounded by `capacity × block_len`
//!   regardless of stream length.
//! * **Per-consumer cursors.** Every consumer sees every block, in
//!   order, exactly once. Consumers subscribe before production starts
//!   (the ring seals on the first push), so each one observes the whole
//!   stream — that is what makes a broadcast pass *equivalent* to a
//!   private replay, not just similar.
//! * **Backpressure.** The producer can run at most `capacity` blocks
//!   ahead of the slowest **active** consumer; past that it blocks (or
//!   reports no-space through [`Broadcast::try_push`]).
//! * **Consumer loss is not producer loss.** Dropping a
//!   [`BroadcastConsumer`] mid-pass deregisters its cursor: the producer
//!   and the remaining consumers finish normally, and pass accounting is
//!   untouched.
//!
//! Both a blocking schedule (producer + consumers on threads) and a
//! cooperative single-threaded schedule (`try_push`/`try_next`
//! round-robin) drive the same ring; the executors in `sgs-query` pick
//! per [`ExecPolicy`], and `tests/ring_stress.rs` drives randomized
//! interleavings through both APIs against the mutex oracle.

use crate::sharded::{RoutedUpdate, ShardedFeed};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Default number of in-flight ring blocks.
pub const DEFAULT_RING_CAPACITY: usize = 8;
/// Default updates per ring block (transport granularity — independent
/// of, and equivalent under, any executor feed-block size).
pub const DEFAULT_RING_BLOCK: usize = 256;

/// Spin iterations before yielding in the blocking APIs.
const SPIN_LIMIT: u32 = 64;
/// Yield iterations before parking in the blocking APIs.
const YIELD_LIMIT: u32 = 16;
/// Park slice for blocked threads: long enough to keep a parked thread
/// cheap, short enough that a missed wakeup (impossible by protocol, but
/// belt-and-braces) or an in-progress stall stays observable.
const PARK_SLICE: Duration = Duration::from_micros(500);

/// One ring block: a shared, immutable chunk of the routed stream.
pub type Block = Arc<[RoutedUpdate]>;

/// Outcome of a non-blocking cursor read.
#[derive(Clone, Debug)]
pub enum TryNext {
    /// The next block, cursor advanced.
    Block(Block),
    /// Nothing available yet; the producer is still running.
    Pending,
    /// The stream is finished and this cursor consumed all of it.
    Ended,
}

/// One recorded producer stall: [`Broadcast::push`] sat blocked on the
/// slowest active cursor for longer than the configured threshold.
/// Queryable from the feed via [`Broadcast::stall_events`], this turns a
/// silent backpressure deadlock-in-waiting into observable state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallEvent {
    /// The consumer the producer was blocked on when the threshold fired
    /// (the slowest active cursor — minimum cursor — at that moment).
    pub consumer: usize,
    /// Total nanoseconds the producer spent blocked in that push. The
    /// event is recorded at the first threshold crossing and its
    /// duration updated until the push unblocks, so a still-stalled
    /// producer is visible *while* it is stuck.
    pub blocked_ns: u64,
}

/// One ring slot: the seqlock word plus the block cell it guards.
///
/// `seq == s + 1` publishes block `s` (always an exact match test — see
/// the module docs for why a single acquire load is conclusive). The
/// cell is written by the producer only while no published-and-unread
/// generation can still be referenced, so consumers read it without any
/// versioned retry loop.
struct Slot {
    seq: AtomicU64,
    block: UnsafeCell<Option<Block>>,
}

// SAFETY: the `UnsafeCell` is coordinated by the seqlock protocol — the
// producer has exclusive write access to a slot until it release-stores
// the publish sequence, after which the slot is read-only until every
// active cursor has moved past it (the producer's space check), which
// re-grants exclusive write access for the next generation.
unsafe impl Sync for Slot {}
unsafe impl Send for Slot {}

/// One consumer's shared registration: an atomic cursor (next sequence
/// to read), a consumed-updates counter, and the active flag the
/// producer's minimum scan honors.
struct ConsumerSlot {
    cursor: AtomicU64,
    updates: AtomicU64,
    active: AtomicBool,
}

/// A park point: `Mutex` + `Condvar` touched only by threads that have
/// exhausted their spin budget. `waiters` is maintained under the lock;
/// wakers skip the lock entirely while it reads zero.
struct Doorbell {
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Doorbell {
    fn new() -> Self {
        Doorbell {
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Park for at most `slice` unless `ready()` already holds. The
    /// re-check runs under the lock, and wakers notify under the same
    /// lock, so a wakeup between the caller's last check and the park
    /// cannot be lost; the timed slice bounds the cost of any scenario
    /// the protocol has not imagined.
    fn park<F: Fn() -> bool>(&self, ready: F, slice: Duration) {
        let guard = self.lock.lock().unwrap();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        if !ready() {
            let (guard, _) = self.cv.wait_timeout(guard, slice).unwrap();
            drop(guard);
        } else {
            drop(guard);
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wake every parked thread. One atomic load when nobody is parked.
    fn ring(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap();
            self.cv.notify_all();
        }
    }
}

struct Shared {
    slots: Box<[Slot]>,
    capacity: usize,
    /// Next sequence number a producer will claim (= blocks pushed or
    /// being pushed). Claimed by CAS so even a misused multi-producer
    /// ring stays memory-safe; the intended schedule is single-producer.
    claim: AtomicU64,
    /// Blocks fully published (the counter behind
    /// [`Broadcast::produced_blocks`]; consumers gate on per-slot
    /// sequences, not on this).
    produced_seq: AtomicU64,
    produced_updates: AtomicU64,
    finished: AtomicBool,
    /// Set on the first push (under the registry lock): no further
    /// subscriptions.
    sealed: AtomicBool,
    /// Cached lower bound on the minimum active cursor — the producer's
    /// fast-path space check. Refreshed by a full scan only when the
    /// bound reports the ring full.
    cached_min: AtomicU64,
    /// Subscription registry (cold path: subscribe / active_consumers /
    /// seal snapshot).
    registry: Mutex<Vec<Arc<ConsumerSlot>>>,
    /// The consumer set frozen at seal time, scanned lock-free by the
    /// producer's minimum refresh and the stall diagnostics.
    frozen: OnceLock<Box<[Arc<ConsumerSlot>]>>,
    /// Producer parks here for ring space.
    space: Doorbell,
    /// Consumers park here for new blocks (or finish).
    data: Doorbell,
    /// Record a [`StallEvent`] when a blocking push waits longer than
    /// this. `None` disables the diagnostics.
    stall_threshold: Option<Duration>,
    /// Cold path: only written by a blocked producer past its threshold.
    stall_events: Mutex<Vec<StallEvent>>,
}

impl Shared {
    /// The consumer set the producer races against: frozen at seal time.
    /// Empty before the first push — but nothing scans it before then.
    fn consumers(&self) -> &[Arc<ConsumerSlot>] {
        self.frozen.get().map(|b| &b[..]).unwrap_or(&[])
    }

    /// Recompute the minimum active cursor (acquire loads — a cursor
    /// bump must order the consumer's slot read before our overwrite).
    /// With no active consumers everything is reclaimable: the bound is
    /// `at_least`, so production never blocks.
    fn refresh_min(&self, at_least: u64) -> u64 {
        let min = self
            .consumers()
            .iter()
            .filter(|c| c.active.load(Ordering::Acquire))
            .map(|c| c.cursor.load(Ordering::Acquire))
            .min()
            .unwrap_or(at_least);
        self.cached_min.store(min, Ordering::Relaxed);
        min
    }

    /// Whether sequence `seq` has a free slot right now. Fast path: one
    /// relaxed load of the cached minimum; slow path: rescan.
    fn has_space(&self, seq: u64) -> bool {
        if seq - self.cached_min.load(Ordering::Relaxed) < self.capacity as u64 {
            return true;
        }
        seq - self.refresh_min(seq) < self.capacity as u64
    }

    /// The consumer the producer is blocked on: the slowest active
    /// cursor (minimum cursor; lowest id breaks ties).
    fn slowest_active(&self) -> Option<usize> {
        self.consumers()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.active.load(Ordering::Acquire))
            .min_by_key(|(_, c)| c.cursor.load(Ordering::Acquire))
            .map(|(i, _)| i)
    }

    /// Seal the ring on the first push: freeze the consumer set. Runs
    /// under the registry lock so it cannot race a subscribe.
    fn seal(&self) {
        if !self.sealed.load(Ordering::Acquire) {
            let reg = self.registry.lock().unwrap();
            if !self.sealed.swap(true, Ordering::AcqRel) {
                let _ = self.frozen.set(reg.clone().into_boxed_slice());
            }
        }
    }

    /// Publish `block` as sequence `seq` (the slot must be reclaimed —
    /// guaranteed by a `has_space(seq)` check that held since `seq` was
    /// claimed, because cursors only move forward).
    fn publish(&self, seq: u64, block: &[RoutedUpdate]) {
        let slot = &self.slots[(seq % self.capacity as u64) as usize];
        debug_assert_ne!(slot.seq.load(Ordering::Relaxed), seq + 1);
        // SAFETY: `seq` was claimed by this producer via CAS and every
        // active cursor has passed `seq - capacity` (space check), so no
        // reader can hold a reference into this slot and no other writer
        // can claim it.
        unsafe {
            *slot.block.get() = Some(Arc::from(block));
        }
        slot.seq.store(seq + 1, Ordering::Release);
        self.produced_updates
            .fetch_add(block.len() as u64, Ordering::Relaxed);
        self.produced_seq.fetch_max(seq + 1, Ordering::AcqRel);
        self.data.ring();
    }
}

/// The producer handle of a bounded, lock-free SPMC broadcast ring.
pub struct Broadcast {
    shared: Arc<Shared>,
}

impl Broadcast {
    /// A ring holding at most `capacity` blocks in flight (`>= 1`).
    pub fn new(capacity: usize) -> Self {
        Self::build(capacity, None)
    }

    /// A ring that additionally records a [`StallEvent`] whenever a
    /// blocking [`Broadcast::push`] waits on the slowest cursor for
    /// longer than `threshold`.
    pub fn with_stall_threshold(capacity: usize, threshold: Duration) -> Self {
        Self::build(capacity, Some(threshold))
    }

    fn build(capacity: usize, stall_threshold: Option<Duration>) -> Self {
        assert!(capacity >= 1, "ring needs at least one block slot");
        let slots: Box<[Slot]> = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                block: UnsafeCell::new(None),
            })
            .collect();
        Broadcast {
            shared: Arc::new(Shared {
                slots,
                capacity,
                claim: AtomicU64::new(0),
                produced_seq: AtomicU64::new(0),
                produced_updates: AtomicU64::new(0),
                finished: AtomicBool::new(false),
                sealed: AtomicBool::new(false),
                cached_min: AtomicU64::new(0),
                registry: Mutex::new(Vec::new()),
                frozen: OnceLock::new(),
                space: Doorbell::new(),
                data: Doorbell::new(),
                stall_threshold,
                stall_events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Register a consumer cursor. The cursor starts at the head of the
    /// (not yet started) stream; subscribing panics once production has
    /// begun — a late subscriber could not see the whole stream, which
    /// would silently break the equivalence contract.
    pub fn subscribe(&self) -> BroadcastConsumer {
        let mut reg = self.shared.registry.lock().unwrap();
        assert!(
            !self.shared.sealed.load(Ordering::Acquire),
            "broadcast consumers must subscribe before production starts"
        );
        let slot = Arc::new(ConsumerSlot {
            cursor: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            active: AtomicBool::new(true),
        });
        reg.push(slot.clone());
        BroadcastConsumer {
            shared: self.shared.clone(),
            slot,
        }
    }

    /// Push one block, blocking (bounded spin, then park) while the ring
    /// is full with respect to the slowest active consumer. Copies
    /// `block` into a shared allocation (the ring owns its blocks; the
    /// producer's buffer can be transient).
    pub fn push(&self, block: &[RoutedUpdate]) {
        let sh = &*self.shared;
        assert!(!sh.finished.load(Ordering::Acquire), "push after finish");
        sh.seal();
        let seq = self.claim_next();
        if !sh.has_space(seq) {
            self.wait_for_space(seq);
        }
        sh.publish(seq, block);
    }

    /// Claim the next sequence number (uncontended single CAS for the
    /// intended single producer; a retry loop keeps accidental
    /// multi-producer use memory-safe).
    fn claim_next(&self) -> u64 {
        let sh = &*self.shared;
        loop {
            let seq = sh.claim.load(Ordering::Acquire);
            if sh
                .claim
                .compare_exchange(seq, seq + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return seq;
            }
        }
    }

    /// The blocking slow path of [`Broadcast::push`]: spin, yield, then
    /// park on the space doorbell in short slices, keeping the stall
    /// diagnostics current the whole time.
    fn wait_for_space(&self, seq: u64) {
        let sh = &*self.shared;
        for _ in 0..SPIN_LIMIT {
            std::hint::spin_loop();
            if sh.has_space(seq) {
                return;
            }
        }
        for _ in 0..YIELD_LIMIT {
            std::thread::yield_now();
            if sh.has_space(seq) {
                return;
            }
        }
        let wait_start = Instant::now();
        let mut event: Option<usize> = None;
        loop {
            sh.space.park(|| sh.has_space(seq), PARK_SLICE);
            if let Some(threshold) = sh.stall_threshold {
                let blocked = wait_start.elapsed();
                if blocked >= threshold {
                    // Recorded at the first threshold crossing, duration
                    // kept current on every slice until the push
                    // unblocks — a still-stalled producer is visible
                    // *while* it is stuck.
                    let blocked_ns = blocked.as_nanos() as u64;
                    let mut events = sh.stall_events.lock().unwrap();
                    match event {
                        Some(i) => events[i].blocked_ns = blocked_ns,
                        None => {
                            let consumer = sh.slowest_active().unwrap_or(usize::MAX);
                            event = Some(events.len());
                            events.push(StallEvent {
                                consumer,
                                blocked_ns,
                            });
                        }
                    }
                }
            }
            if sh.has_space(seq) {
                break;
            }
        }
        if let Some(i) = event {
            let mut events = sh.stall_events.lock().unwrap();
            events[i].blocked_ns = wait_start.elapsed().as_nanos() as u64;
        }
    }

    /// Non-blocking [`Broadcast::push`]: `false` (and no cursor or ring
    /// change) when the ring is full. The cooperative single-threaded
    /// schedule is built on this.
    pub fn try_push(&self, block: &[RoutedUpdate]) -> bool {
        let sh = &*self.shared;
        assert!(!sh.finished.load(Ordering::Acquire), "push after finish");
        sh.seal();
        // Check-then-claim is exact for the intended single producer
        // (nobody else advances `claim`); a racing second producer can
        // only make the check conservative, never unsafe, because the
        // claimed sequence is re-verified before publishing.
        let seq = sh.claim.load(Ordering::Acquire);
        if !sh.has_space(seq) {
            return false;
        }
        if sh
            .claim
            .compare_exchange(seq, seq + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        if !sh.has_space(seq) {
            // Unreachable single-producer (space cannot shrink while we
            // hold the claim: cursors only advance); if a misused second
            // producer raced us here, fall back to the blocking wait so
            // the claimed sequence is never abandoned.
            self.wait_for_space(seq);
        }
        sh.publish(seq, block);
        true
    }

    /// Seal the stream: consumers that drain past the last block see the
    /// end instead of waiting.
    pub fn finish(&self) {
        self.shared.seal();
        self.shared.finished.store(true, Ordering::Release);
        self.shared.data.ring();
    }

    /// Whether [`Broadcast::finish`] was called.
    pub fn is_finished(&self) -> bool {
        self.shared.finished.load(Ordering::Acquire)
    }

    /// Blocks produced so far.
    pub fn produced_blocks(&self) -> u64 {
        self.shared.produced_seq.load(Ordering::Acquire)
    }

    /// Updates produced so far (sum of block lengths).
    pub fn produced_updates(&self) -> u64 {
        self.shared.produced_updates.load(Ordering::Acquire)
    }

    /// Consumers still attached (not dropped).
    pub fn active_consumers(&self) -> usize {
        self.shared
            .registry
            .lock()
            .unwrap()
            .iter()
            .filter(|c| c.active.load(Ordering::Acquire))
            .count()
    }

    /// Ring capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Recorded producer stalls (pushes blocked past the threshold set
    /// by [`Broadcast::with_stall_threshold`]), in record order. An
    /// in-progress stall is already visible here with its
    /// duration-so-far.
    pub fn stall_events(&self) -> Vec<StallEvent> {
        self.shared.stall_events.lock().unwrap().clone()
    }
}

/// One consumer's cursor into a [`Broadcast`] ring. Dropping it
/// deregisters the cursor (the producer stops waiting on it).
pub struct BroadcastConsumer {
    shared: Arc<Shared>,
    slot: Arc<ConsumerSlot>,
}

impl BroadcastConsumer {
    /// Non-blocking [`Iterator::next`].
    pub fn try_next(&mut self) -> TryNext {
        let cur = self.slot.cursor.load(Ordering::Relaxed);
        if let Some(block) = self.read_at(cur) {
            return TryNext::Block(block);
        }
        if self.shared.finished.load(Ordering::Acquire) {
            // `finish` happens after every publish in the producer, so
            // seeing it means a still-unpublished slot will stay that
            // way — but re-check once: the publish of `cur` may have
            // landed between our slot load and the finished load.
            match self.read_at(cur) {
                Some(block) => TryNext::Block(block),
                None => TryNext::Ended,
            }
        } else {
            TryNext::Pending
        }
    }

    /// Read (and consume) the block at sequence `cur` if published.
    fn read_at(&mut self, cur: u64) -> Option<Block> {
        let sh = &*self.shared;
        let slot = &sh.slots[(cur % sh.capacity as u64) as usize];
        if slot.seq.load(Ordering::Acquire) != cur + 1 {
            return None;
        }
        // SAFETY: exact sequence match means block `cur` is published in
        // this slot, and the producer cannot start overwriting it until
        // our cursor (still at `cur`) moves past it — which happens only
        // in the release store below, after the clone completes.
        let block = unsafe { (*slot.block.get()).clone() }.expect("published slot holds a block");
        self.slot
            .updates
            .fetch_add(block.len() as u64, Ordering::Relaxed);
        self.slot.cursor.store(cur + 1, Ordering::Release);
        // The slowest cursor may just have moved: wake a parked producer
        // (one atomic load when none is parked).
        sh.space.ring();
        Some(block)
    }

    /// Blocks consumed so far — the cursor position. Monotone, and never
    /// ahead of [`Broadcast::produced_blocks`].
    pub fn blocks_consumed(&self) -> u64 {
        self.slot.cursor.load(Ordering::Acquire)
    }

    /// Updates consumed so far.
    pub fn updates_consumed(&self) -> u64 {
        self.slot.updates.load(Ordering::Acquire)
    }
}

/// Blocking cursor walk: `next()` spins briefly, then parks for the next
/// block, and yields `None` once the stream is finished and fully
/// consumed.
impl Iterator for BroadcastConsumer {
    type Item = Block;

    fn next(&mut self) -> Option<Block> {
        let mut spins = 0u32;
        let mut yields = 0u32;
        loop {
            match self.try_next() {
                TryNext::Block(b) => return Some(b),
                TryNext::Ended => return None,
                TryNext::Pending => {
                    if spins < SPIN_LIMIT {
                        spins += 1;
                        std::hint::spin_loop();
                    } else if yields < YIELD_LIMIT {
                        yields += 1;
                        std::thread::yield_now();
                    } else {
                        let cur = self.slot.cursor.load(Ordering::Relaxed);
                        let sh = &*self.shared;
                        let slot = &sh.slots[(cur % sh.capacity as u64) as usize];
                        sh.data.park(
                            || {
                                slot.seq.load(Ordering::SeqCst) == cur + 1
                                    || sh.finished.load(Ordering::SeqCst)
                            },
                            PARK_SLICE,
                        );
                    }
                }
            }
        }
    }
}

impl Drop for BroadcastConsumer {
    fn drop(&mut self) {
        self.slot.active.store(false, Ordering::Release);
        // The producer may have been parked on this cursor.
        self.shared.space.ring();
    }
}

/// The canonical producer: replays a [`ShardedFeed`]'s routed buffer
/// into a ring in blocks. Creating one records **one logical pass** on
/// the feed — however many consumers (including zero) draw from the
/// ring, and whether or not all of them survive it.
pub struct RoutedProducer<'f> {
    feed: &'f ShardedFeed,
    block: usize,
    offset: usize,
    done: bool,
}

impl<'f> RoutedProducer<'f> {
    /// Start a broadcast pass over `feed` with the given transport block
    /// length (`0` is clamped to 1). Counts the logical pass immediately.
    pub fn new(feed: &'f ShardedFeed, block: usize) -> Self {
        feed.begin_pass();
        RoutedProducer {
            feed,
            block: block.max(1),
            offset: 0,
            done: false,
        }
    }

    /// Whether every block (and the finish marker) has been pushed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Blocking schedule: push the whole stream, then finish the ring.
    /// Run this on its own thread next to blocking consumers.
    pub fn run(mut self, ring: &Broadcast) {
        let routed = self.feed.routed();
        while self.offset < routed.len() {
            let end = (self.offset + self.block).min(routed.len());
            ring.push(&routed[self.offset..end]);
            self.offset = end;
        }
        ring.finish();
        self.done = true;
    }

    /// Cooperative schedule: push as many blocks as fit right now
    /// without blocking; finishes the ring when the stream is exhausted.
    /// Returns `true` once done (idempotent afterwards).
    pub fn pump(&mut self, ring: &Broadcast) -> bool {
        let routed = self.feed.routed();
        while !self.done {
            if self.offset >= routed.len() {
                ring.finish();
                self.done = true;
                break;
            }
            let end = (self.offset + self.block).min(routed.len());
            if !ring.try_push(&routed[self.offset..end]) {
                return false;
            }
            self.offset = end;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::InsertionStream;
    use sgs_graph::gen;

    fn feed(shards: usize) -> ShardedFeed {
        let g = gen::gnm(30, 150, 41);
        let s = InsertionStream::from_graph(&g, 42);
        ShardedFeed::partition(&s, shards)
    }

    fn drain(c: BroadcastConsumer) -> Vec<RoutedUpdate> {
        let mut out = Vec::new();
        for b in c {
            out.extend_from_slice(&b);
        }
        out
    }

    #[test]
    fn every_consumer_sees_the_whole_stream_in_order() {
        let f = feed(3);
        let ring = Broadcast::new(4);
        let consumers: Vec<_> = (0..3).map(|_| ring.subscribe()).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = consumers
                .into_iter()
                .map(|c| s.spawn(move || drain(c)))
                .collect();
            RoutedProducer::new(&f, 16).run(&ring);
            for h in handles {
                assert_eq!(h.join().unwrap(), f.routed());
            }
        });
        assert_eq!(f.logical_passes(), 1);
        assert_eq!(ring.produced_updates(), f.routed().len() as u64);
    }

    #[test]
    fn zero_consumer_feed_completes() {
        let f = feed(2);
        let ring = Broadcast::new(2);
        // Nothing subscribed: production must run to completion without
        // blocking on ring space.
        RoutedProducer::new(&f, 8).run(&ring);
        assert!(ring.is_finished());
        assert_eq!(ring.produced_updates(), f.routed().len() as u64);
        assert_eq!(f.logical_passes(), 1);
    }

    #[test]
    fn cooperative_schedule_matches_blocking() {
        let f = feed(4);
        let ring = Broadcast::new(2);
        let mut a = ring.subscribe();
        let mut b = ring.subscribe();
        let mut producer = RoutedProducer::new(&f, 7);
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        let (mut done_a, mut done_b) = (false, false);
        loop {
            let produced = producer.pump(&ring);
            for (c, got, done) in [
                (&mut a, &mut got_a, &mut done_a),
                (&mut b, &mut got_b, &mut done_b),
            ] {
                loop {
                    match c.try_next() {
                        TryNext::Block(bl) => got.extend_from_slice(&bl),
                        TryNext::Pending => break,
                        TryNext::Ended => {
                            *done = true;
                            break;
                        }
                    }
                }
            }
            if produced && done_a && done_b {
                break;
            }
        }
        assert_eq!(got_a, f.routed());
        assert_eq!(got_b, f.routed());
    }

    #[test]
    fn backpressure_caps_producer_at_capacity_ahead_of_stalled_consumer() {
        let f = feed(1);
        let capacity = 2;
        let ring = Broadcast::new(capacity);
        let mut stalled = ring.subscribe();
        let mut producer = RoutedProducer::new(&f, 4);
        // Cooperative pump with a consumer that never reads: the ring
        // fills to capacity and production stops advancing — bounded
        // memory, no deadlock (try_push just reports no space).
        assert!(!producer.pump(&ring));
        assert_eq!(ring.produced_blocks(), capacity as u64);
        assert!(!producer.pump(&ring), "stalled consumer keeps the cap");
        assert_eq!(ring.produced_blocks(), capacity as u64);
        // The consumer wakes up: every read frees one slot.
        let _ = stalled.try_next();
        assert!(!producer.pump(&ring));
        assert_eq!(ring.produced_blocks(), capacity as u64 + 1);
        // Drain fully: production completes.
        while !producer.pump(&ring) {
            match stalled.try_next() {
                TryNext::Block(_) => {}
                TryNext::Pending => {}
                TryNext::Ended => break,
            }
        }
        assert!(ring.is_finished() || producer.is_done());
    }

    #[test]
    fn blocking_producer_survives_a_stalled_then_dropped_consumer() {
        let f = feed(2);
        let ring = Broadcast::new(2);
        let stalled = ring.subscribe();
        let live = ring.subscribe();
        std::thread::scope(|s| {
            let h = s.spawn(|| drain(live));
            let p = s.spawn(|| RoutedProducer::new(&f, 8).run(&ring));
            // Give the producer time to hit the backpressure cap, then
            // drop the stalled cursor: the producer must resume and both
            // remaining parties finish.
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(!ring.is_finished(), "stalled consumer caps the producer");
            drop(stalled);
            p.join().unwrap();
            assert_eq!(h.join().unwrap(), f.routed());
        });
        assert_eq!(f.logical_passes(), 1, "one pass despite the lost consumer");
        // Both cursors are gone by now: one dropped mid-pass, one
        // deregistered when `drain` consumed it.
        assert_eq!(ring.active_consumers(), 0);
    }

    #[test]
    #[should_panic(expected = "subscribe before production")]
    fn late_subscription_is_rejected() {
        let f = feed(1);
        let ring = Broadcast::new(2);
        ring.push(&f.routed()[..1]);
        let _ = ring.subscribe();
    }

    #[test]
    fn slot_generations_wrap_cleanly_at_capacity_one() {
        // Capacity 1 maximizes slot reuse: every block recycles the same
        // slot, so any seqlock generation bug shows immediately.
        let f = feed(2);
        let ring = Broadcast::new(1);
        let c = ring.subscribe();
        std::thread::scope(|s| {
            let h = s.spawn(move || drain(c));
            RoutedProducer::new(&f, 3).run(&ring);
            assert_eq!(h.join().unwrap(), f.routed());
        });
    }

    #[test]
    fn stall_event_records_blocked_producer() {
        let f = feed(1);
        let ring = Broadcast::with_stall_threshold(1, Duration::from_millis(5));
        let stalled = ring.subscribe();
        let live = ring.subscribe();
        std::thread::scope(|s| {
            let h = s.spawn(|| drain(live));
            let p = s.spawn(|| RoutedProducer::new(&f, 4).run(&ring));
            std::thread::sleep(Duration::from_millis(40));
            let events = ring.stall_events();
            assert!(
                !events.is_empty(),
                "blocked producer past threshold must be visible"
            );
            assert!(events[0].blocked_ns >= 5_000_000);
            drop(stalled);
            p.join().unwrap();
            assert_eq!(h.join().unwrap(), f.routed());
        });
    }
}
