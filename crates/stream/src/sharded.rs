//! Hash-partitioned stream sharding: one logical pass, N feed shards.
//!
//! The pass emulators replay the same update sequence past thousands of
//! independent sampler queries, and every per-update consumer is keyed by
//! a vertex or an edge (degree counters, neighbor watchers and samplers,
//! adjacency flags, position targets). [`ShardedFeed`] exploits that: it
//! partitions the stream **once** by a stable vertex hash into per-shard
//! buffers, so N workers can each drive the consumers registered on their
//! own key range from one logical pass over the data.
//!
//! Delivery contract (what makes sharded execution *exactly* equivalent
//! to a single-stream pass, not just statistically so):
//!
//! * an update on edge `{u, v}` is delivered to `shard_of(u)` and
//!   `shard_of(v)` (once if they coincide), so a shard sees **every**
//!   update incident to a vertex it owns, in stream order;
//! * exactly one delivery — the one to `shard_of(e.u())`, the canonical
//!   endpoint's shard — is flagged [`ShardUpdate::owned`]. Edge-keyed
//!   state that must count each update once globally (the edge counter
//!   `m`, merged ℓ₀-sketch banks) consumes only owned deliveries;
//! * every delivery carries the update's **global stream position**, so
//!   position-keyed `f1` sampling keeps its single-stream semantics.
//!
//! Pass accounting: replaying all N shard buffers is **one** logical pass
//! over the stream, not N. A [`crate::PassCounter`] wrapped around the
//! *source* observes exactly one replay (at partition time); afterwards
//! the feed tracks [`ShardedFeed::logical_passes`] itself, incremented
//! once per [`ShardedFeed::begin_pass`] regardless of shard count.

use crate::source::EdgeStream;
use crate::update::EdgeUpdate;
use sgs_prng::splitmix64;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Salt for the shard hash, fixed so shard assignment is stable across
/// passes, processes, and the query-side routing in `sgs-query`.
const SHARD_SALT: u64 = 0x5ead_ed5e_ed5e_a11a;

/// The shard that owns vertex `v` under uniform `num_shards`-way hash
/// partitioning.
///
/// Both the feed (update delivery) and the query router (query
/// assignment) must agree on the placement; a feed built with a
/// non-uniform [`ShardMap`] couples the two sides through
/// [`ShardedFeed::shard_map`] instead of this bare hash.
#[inline]
pub fn shard_of_vertex(v: u32, num_shards: usize) -> usize {
    debug_assert!(num_shards >= 1);
    (splitmix64(v as u64 ^ SHARD_SALT) % num_shards as u64) as usize
}

/// A vertex → shard placement: the uniform stable hash
/// ([`shard_of_vertex`]) plus a sparse, sorted list of per-vertex
/// overrides. The overrides are the load-balancing lever: placement
/// never changes *answers* (a shard sees every update incident to every
/// vertex it owns, in stream order, whichever shard that is — the
/// equivalence argument in `sgs-query::sharded` is placement-agnostic),
/// only how evenly delivery work spreads across workers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
    /// `(vertex, shard)` overrides, sorted by vertex, deduplicated.
    overrides: Vec<(u32, u16)>,
}

impl ShardMap {
    /// The uniform hash placement — what [`ShardedFeed::partition`]
    /// uses, and the only placement checkpoint recovery accepts.
    pub fn uniform(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(shards <= u16::MAX as usize, "shard ids are cached as u16");
        ShardMap {
            shards,
            overrides: Vec::new(),
        }
    }

    /// Uniform placement with explicit `(vertex, shard)` overrides.
    /// Later entries for the same vertex win; every target shard must be
    /// in range.
    pub fn with_overrides(shards: usize, mut overrides: Vec<(u32, u16)>) -> Self {
        let mut map = ShardMap::uniform(shards);
        assert!(
            overrides.iter().all(|&(_, s)| (s as usize) < shards),
            "override targets a shard outside 0..{shards}"
        );
        // Stable sort so the *last* entry for a vertex survives dedup.
        overrides.sort_by_key(|&(v, _)| v);
        overrides.reverse();
        overrides.dedup_by_key(|&mut (v, _)| v);
        overrides.reverse();
        // Drop overrides that restate the uniform hash — keeps
        // `is_uniform` meaningful and the lookup list minimal.
        overrides.retain(|&(v, s)| shard_of_vertex(v, shards) != s as usize);
        map.overrides = overrides;
        map
    }

    /// Greedy hot-vertex rebalancing over observed per-vertex delivery
    /// counts (see [`ShardedFeed::vertex_delivery_counts`]): the
    /// `max_overrides` hottest vertices are lifted out of their hash
    /// shards and re-placed one by one, heaviest first, each onto the
    /// currently lightest shard (classic LPT). Everything else keeps the
    /// uniform hash, so the override list stays sparse and lookups stay
    /// O(log overrides).
    pub fn balanced(shards: usize, counts: &[u64], max_overrides: usize) -> Self {
        let map = ShardMap::uniform(shards);
        if shards <= 1 || max_overrides == 0 {
            return map;
        }
        // Base load: every vertex's deliveries on its uniform shard.
        let mut load = vec![0u64; shards];
        for (v, &c) in counts.iter().enumerate() {
            load[shard_of_vertex(v as u32, shards)] += c;
        }
        // Hottest vertices first; vertex id breaks ties so the result is
        // deterministic for a fixed count vector.
        let mut hot: Vec<u32> = (0..counts.len() as u32)
            .filter(|&v| counts[v as usize] > 0)
            .collect();
        hot.sort_by_key(|&v| (std::cmp::Reverse(counts[v as usize]), v));
        hot.truncate(max_overrides);
        let mut overrides = Vec::with_capacity(hot.len());
        for &v in &hot {
            load[shard_of_vertex(v, shards)] -= counts[v as usize];
        }
        for &v in &hot {
            let target = (0..shards).min_by_key(|&s| (load[s], s)).unwrap();
            load[target] += counts[v as usize];
            overrides.push((v, target as u16));
        }
        ShardMap::with_overrides(shards, overrides)
    }

    /// Number of shards this map places onto.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// Whether this is the pure uniform hash (no effective overrides).
    #[inline]
    pub fn is_uniform(&self) -> bool {
        self.overrides.is_empty()
    }

    /// The effective `(vertex, shard)` overrides, sorted by vertex.
    #[inline]
    pub fn overrides(&self) -> &[(u32, u16)] {
        &self.overrides
    }

    /// The shard that owns vertex `v` under this placement.
    #[inline]
    pub fn shard_of(&self, v: u32) -> usize {
        match self.overrides.binary_search_by_key(&v, |&(x, _)| x) {
            Ok(i) => self.overrides[i].1 as usize,
            Err(_) => shard_of_vertex(v, self.shards),
        }
    }
}

/// One source-stream update with its shard routing resolved **once, at
/// buffer-fill time**: the global position, the owner shard (the
/// canonical endpoint's), and the other endpoint's shard. This is the
/// element type of [`ShardedFeed::routed`] — the global-order buffer the
/// broadcast fan-out produces from — so a consumer deciding relevance or
/// ownedness reads two cached fields instead of redoing the shard hash
/// per cursor read. `owner == other` when both endpoints hash to the
/// same shard (always, with one shard).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutedUpdate {
    /// Global position in the source stream (`0..stream_len`).
    pub position: u32,
    /// Shard of the canonical endpoint `e.u()` — the owned delivery.
    pub owner: u16,
    /// Shard of the other endpoint `e.v()`.
    pub other: u16,
    /// The update itself.
    pub update: EdgeUpdate,
}

impl RoutedUpdate {
    /// Whether shard `s` receives this update at all.
    #[inline]
    pub fn delivers_to(&self, s: usize) -> bool {
        self.owner as usize == s || self.other as usize == s
    }

    /// The delivery shard `s` would see, if any: the same
    /// [`ShardUpdate`] the scoped-thread path reads from its per-shard
    /// buffer (owned iff `s` is the canonical endpoint's shard).
    #[inline]
    pub fn delivery_for(&self, s: usize) -> Option<ShardUpdate> {
        if self.delivers_to(s) {
            Some(ShardUpdate {
                position: self.position,
                update: self.update,
                owned: self.owner as usize == s,
            })
        } else {
            None
        }
    }
}

/// One delivered stream element: the update, its global position in the
/// source stream, and whether this shard is the canonical owner.
#[derive(Clone, Copy, Debug)]
pub struct ShardUpdate {
    /// Global position in the source stream (`0..stream_len`).
    pub position: u32,
    /// The update itself.
    pub update: EdgeUpdate,
    /// Whether this delivery is the canonical one (the shard of the
    /// update's smaller endpoint). Exactly one delivery per update is
    /// owned; consume it for globally-once state (edge counts, merged
    /// ℓ₀ banks, position targets can ignore it — duplicate position
    /// hits produce identical answers).
    pub owned: bool,
}

/// A stream partitioned into per-shard buffers, built once and replayed
/// shard-parallel on every logical pass. Shared by reference across the
/// worker threads of a sharded executor (the pass counter is atomic).
#[derive(Debug)]
pub struct ShardedFeed {
    n: usize,
    stream_len: usize,
    total_delta: i64,
    shards: Vec<Vec<ShardUpdate>>,
    /// The whole source stream in global order with shard routing cached
    /// at partition time — the broadcast producer's buffer.
    routed: Vec<RoutedUpdate>,
    /// The placement the buffers were routed with; the query side splits
    /// batches through this same map.
    map: ShardMap,
    logical_passes: AtomicUsize,
}

impl ShardedFeed {
    /// Partition `stream` into `num_shards` buffers under the uniform
    /// hash placement (one replay of the source — the only time the
    /// source stream is read).
    pub fn partition(stream: &impl EdgeStream, num_shards: usize) -> Self {
        ShardedFeed::partition_with_map(stream, ShardMap::uniform(num_shards))
    }

    /// [`ShardedFeed::partition`] under an explicit [`ShardMap`]
    /// placement — the load-aware entry point. Any placement yields
    /// byte-identical answers; only per-shard delivery balance changes.
    pub fn partition_with_map(stream: &impl EdgeStream, map: ShardMap) -> Self {
        let num_shards = map.num_shards();
        assert!(
            stream.len() < u32::MAX as usize,
            "stream positions are stored as u32"
        );
        let mut shards: Vec<Vec<ShardUpdate>> = vec![Vec::new(); num_shards];
        // Pre-size: each shard receives ~len/N owned plus ~len/N foreign
        // deliveries.
        let expect = if num_shards == 1 {
            stream.len()
        } else {
            2 * stream.len() / num_shards + 16
        };
        for buf in &mut shards {
            buf.reserve(expect);
        }
        let mut routed: Vec<RoutedUpdate> = Vec::with_capacity(stream.len());
        let mut total_delta = 0i64;
        let mut position = 0u32;
        stream.replay(&mut |update| {
            let (u, v) = update.edge.endpoints();
            let owner = map.shard_of(u.0);
            let other = map.shard_of(v.0);
            shards[owner].push(ShardUpdate {
                position,
                update,
                owned: true,
            });
            if other != owner {
                shards[other].push(ShardUpdate {
                    position,
                    update,
                    owned: false,
                });
            }
            routed.push(RoutedUpdate {
                position,
                owner: owner as u16,
                other: other as u16,
                update,
            });
            total_delta += update.delta as i64;
            position += 1;
        });
        ShardedFeed {
            n: stream.num_vertices(),
            stream_len: position as usize,
            total_delta,
            shards,
            routed,
            map,
            logical_passes: AtomicUsize::new(0),
        }
    }

    /// Rebuild a feed from a WAL-recovered routed buffer — the recovery
    /// half of [`ShardedFeed::partition`]. Validates every entry against
    /// the partition invariants (sequential positions, owner/other
    /// matching the stable **uniform** shard hash) so a log that decodes
    /// but lies about its routing is rejected instead of silently
    /// skewing shard delivery. A feed routed with a non-uniform
    /// [`ShardMap`] is rejected here loudly rather than recovered with
    /// the wrong routing — placement-aware recovery must go through
    /// [`ShardedFeed::from_routed_with_map`] with the persisted map.
    /// The rebuilt feed is field-identical to the original (pass counter
    /// reset to zero).
    pub fn from_routed(
        n: usize,
        num_shards: usize,
        routed: Vec<RoutedUpdate>,
    ) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::PersistError;
        if num_shards < 1 || num_shards > u16::MAX as usize {
            return Err(PersistError::corrupt(
                0,
                format!("implausible shard count {num_shards}"),
            ));
        }
        ShardedFeed::from_routed_with_map(n, ShardMap::uniform(num_shards), routed)
    }

    /// [`ShardedFeed::from_routed`] under an explicit [`ShardMap`] —
    /// the placement-aware recovery path. Every entry's owner/other is
    /// validated against `map.shard_of`, so a routed buffer recovered
    /// with the wrong placement (or a map from a different deployment)
    /// is rejected loudly at the first mismatching update instead of
    /// silently skewing shard delivery. The checkpoint layer persists
    /// the map (uniform hash + overrides) in the WAL seal and threads it
    /// back through here on resume.
    pub fn from_routed_with_map(
        n: usize,
        map: ShardMap,
        routed: Vec<RoutedUpdate>,
    ) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::PersistError;
        let num_shards = map.num_shards();
        if num_shards < 1 || num_shards > u16::MAX as usize {
            return Err(PersistError::corrupt(
                0,
                format!("implausible shard count {num_shards}"),
            ));
        }
        if routed.len() >= u32::MAX as usize {
            return Err(PersistError::corrupt(
                0,
                format!("implausible stream length {}", routed.len()),
            ));
        }
        let mut shards: Vec<Vec<ShardUpdate>> = vec![Vec::new(); num_shards];
        let mut total_delta = 0i64;
        for (i, r) in routed.iter().enumerate() {
            if r.position as usize != i {
                return Err(PersistError::corrupt(
                    i as u64,
                    format!("update {i} carries position {}", r.position),
                ));
            }
            let (u, v) = r.update.edge.endpoints();
            let owner = map.shard_of(u.0);
            let other = map.shard_of(v.0);
            if r.owner as usize != owner || r.other as usize != other {
                return Err(PersistError::corrupt(
                    i as u64,
                    format!(
                        "update {i} routed to shards {}/{}, placement says {owner}/{other}",
                        r.owner, r.other
                    ),
                ));
            }
            if u.0 as usize >= n || v.0 as usize >= n {
                return Err(PersistError::corrupt(
                    i as u64,
                    format!("update {i} touches vertex outside 0..{n}"),
                ));
            }
            shards[owner].push(ShardUpdate {
                position: r.position,
                update: r.update,
                owned: true,
            });
            if other != owner {
                shards[other].push(ShardUpdate {
                    position: r.position,
                    update: r.update,
                    owned: false,
                });
            }
            total_delta += r.update.delta as i64;
        }
        Ok(ShardedFeed {
            n,
            stream_len: routed.len(),
            total_delta,
            shards,
            routed,
            map,
            logical_passes: AtomicUsize::new(0),
        })
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The vertex → shard placement this feed was routed with. The query
    /// side must split batches through this map (not the bare hash) for
    /// the placement-agnostic equivalence to hold.
    #[inline]
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Per-vertex delivery counts observed in the routed buffer: entry
    /// `v` is the number of stream updates incident to vertex `v`, i.e.
    /// the deliveries `v`'s owner shard performs on `v`'s behalf every
    /// pass. This is the real-load input [`ShardMap::balanced`] consumes
    /// — no re-hash, no replay, one linear scan of the cached buffer.
    pub fn vertex_delivery_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.n];
        for r in &self.routed {
            let (u, v) = r.update.edge.endpoints();
            counts[u.0 as usize] += 1;
            counts[v.0 as usize] += 1;
        }
        counts
    }

    /// Number of vertices `n` of the underlying graph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Length of the *source* stream (global positions are `0..len`).
    #[inline]
    pub fn stream_len(&self) -> usize {
        self.stream_len
    }

    /// Net edge count after all updates (`Σ delta`): what a single-stream
    /// pass's edge counter reads at end of stream.
    #[inline]
    pub fn final_edge_count(&self) -> i64 {
        self.total_delta
    }

    /// The delivery buffer of shard `i`, in global stream order.
    #[inline]
    pub fn shard(&self, i: usize) -> &[ShardUpdate] {
        &self.shards[i]
    }

    /// The whole source stream in global order, each update carrying its
    /// shard routing (owner/other) cached at partition time. This is the
    /// buffer a broadcast producer chunks into ring blocks; a shard
    /// consumer reconstructs exactly [`ShardedFeed::shard`]`(i)` from it
    /// via [`RoutedUpdate::delivery_for`] with **zero** hash recomputes.
    #[inline]
    pub fn routed(&self) -> &[RoutedUpdate] {
        &self.routed
    }

    /// Record the start of one logical pass. Replaying all N shard
    /// buffers after this call is *one* pass over the data — callers
    /// drive every shard exactly once per `begin_pass`.
    pub fn begin_pass(&self) {
        self.logical_passes.fetch_add(1, Ordering::Relaxed);
    }

    /// Logical passes performed so far (see [`ShardedFeed::begin_pass`]).
    pub fn logical_passes(&self) -> usize {
        self.logical_passes.load(Ordering::Relaxed)
    }
}

/// A `ShardedFeed` is itself a replayable stream: replay walks the
/// routed global-order buffer cached at partition time, reconstructing
/// the source stream exactly (it used to k-way-merge the per-shard
/// buffers' owned deliveries; the routed cache makes the merge a linear
/// scan). Each such replay is one logical pass. This is what lets a
/// one-shard feed stand in for a single stream (`sgs_query::run_on_stream`
/// is the one-shard case of the sharded path), and lets sharded and
/// unsharded consumers be driven from the same feed.
impl EdgeStream for ShardedFeed {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn replay(&self, sink: &mut dyn FnMut(EdgeUpdate)) {
        self.begin_pass();
        for r in &self.routed {
            sink(r.update);
        }
    }

    fn len(&self) -> usize {
        self.stream_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{InsertionStream, PassCounter, TurnstileStream};
    use sgs_graph::gen;

    fn collect(stream: &impl EdgeStream) -> Vec<EdgeUpdate> {
        let mut v = Vec::new();
        stream.replay(&mut |u| v.push(u));
        v
    }

    #[test]
    fn every_position_owned_exactly_once() {
        let g = gen::gnm(40, 200, 1);
        let s = InsertionStream::from_graph(&g, 2);
        for shards in [1usize, 2, 4, 7] {
            let feed = ShardedFeed::partition(&s, shards);
            let mut seen = vec![0u32; s.len()];
            for i in 0..shards {
                for su in feed.shard(i) {
                    if su.owned {
                        seen[su.position as usize] += 1;
                    }
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{shards} shards: {seen:?}");
        }
    }

    #[test]
    fn shards_see_every_incident_update_in_order() {
        let g = gen::gnm(30, 150, 3);
        let s = TurnstileStream::from_graph_with_churn(&g, 1.0, 4);
        let source = collect(&s);
        let shards = 4;
        let feed = ShardedFeed::partition(&s, shards);
        for i in 0..shards {
            // Expected: the subsequence of source updates with an
            // endpoint hashing to shard i.
            let expected: Vec<EdgeUpdate> = source
                .iter()
                .copied()
                .filter(|u| {
                    let (a, b) = u.edge.endpoints();
                    shard_of_vertex(a.0, shards) == i || shard_of_vertex(b.0, shards) == i
                })
                .collect();
            let got: Vec<EdgeUpdate> = feed.shard(i).iter().map(|su| su.update).collect();
            assert_eq!(got, expected, "shard {i}");
            // Positions strictly increase (global order preserved).
            assert!(feed
                .shard(i)
                .windows(2)
                .all(|w| w[0].position < w[1].position));
        }
    }

    #[test]
    fn owner_is_canonical_endpoint_shard() {
        let g = gen::gnm(25, 100, 5);
        let s = InsertionStream::from_graph(&g, 6);
        let shards = 3;
        let feed = ShardedFeed::partition(&s, shards);
        for i in 0..shards {
            for su in feed.shard(i) {
                let owner = shard_of_vertex(su.update.edge.u().0, shards);
                assert_eq!(su.owned, owner == i, "{su:?} in shard {i}");
            }
        }
    }

    #[test]
    fn logical_pass_over_n_shards_counts_once() {
        // The PassCounter-semantics contract under sharding: partitioning
        // reads the source once; after that, driving all N shard buffers
        // is one logical pass — never N.
        let g = gen::gnm(20, 80, 7);
        let s = InsertionStream::from_graph(&g, 8);
        let pc = PassCounter::new(&s);
        let feed = ShardedFeed::partition(&pc, 7);
        assert_eq!(pc.passes(), 1, "partitioning is the only source read");
        assert_eq!(feed.logical_passes(), 0);
        for _ in 0..3 {
            feed.begin_pass();
            for i in 0..feed.num_shards() {
                // Touch every shard: this is what an executor's worker
                // threads do, and it must not bump any pass counter.
                let _ = feed.shard(i).len();
            }
        }
        assert_eq!(feed.logical_passes(), 3, "3 logical passes, not 21");
        assert_eq!(pc.passes(), 1, "shard replays never re-read the source");
    }

    #[test]
    fn replay_reconstructs_source_order_and_counts_a_pass() {
        let g = gen::gnm(35, 160, 9);
        for shards in [1usize, 2, 5] {
            let s = TurnstileStream::from_graph_with_churn(&g, 0.7, 10);
            let feed = ShardedFeed::partition(&s, shards);
            assert_eq!(collect(&feed), collect(&s), "{shards} shards");
            assert_eq!(feed.logical_passes(), 1);
            assert_eq!(feed.len(), s.len());
            assert_eq!(feed.num_vertices(), s.num_vertices());
        }
    }

    #[test]
    fn final_edge_count_matches_stream() {
        let g = gen::gnm(30, 120, 11);
        let tst = TurnstileStream::from_graph_with_churn(&g, 2.0, 12);
        let feed = ShardedFeed::partition(&tst, 4);
        assert_eq!(feed.final_edge_count(), 120);
        let ins = InsertionStream::from_graph(&g, 13);
        let feed = ShardedFeed::partition(&ins, 4);
        assert_eq!(feed.final_edge_count(), 120);
    }

    #[test]
    fn routed_cache_matches_recomputed_hashes_and_shard_buffers() {
        // The owned-delivery/owner-shard flags are computed once, at
        // buffer-fill time; consumers must be able to trust the cache
        // instead of redoing the shard hash per cursor read.
        let g = gen::gnm(30, 140, 21);
        let s = TurnstileStream::from_graph_with_churn(&g, 0.8, 22);
        for shards in [1usize, 2, 4, 7] {
            let feed = ShardedFeed::partition(&s, shards);
            assert_eq!(feed.routed().len(), s.len());
            for (i, r) in feed.routed().iter().enumerate() {
                assert_eq!(r.position as usize, i);
                let (u, v) = r.update.edge.endpoints();
                assert_eq!(r.owner as usize, shard_of_vertex(u.0, shards));
                assert_eq!(r.other as usize, shard_of_vertex(v.0, shards));
            }
            // Reconstructing each shard's deliveries from the routed
            // buffer reproduces the per-shard buffers exactly.
            for i in 0..shards {
                let rebuilt: Vec<ShardUpdate> = feed
                    .routed()
                    .iter()
                    .filter_map(|r| r.delivery_for(i))
                    .collect();
                let direct = feed.shard(i);
                assert_eq!(rebuilt.len(), direct.len(), "shard {i}");
                for (a, b) in rebuilt.iter().zip(direct) {
                    assert_eq!(a.position, b.position, "shard {i}");
                    assert_eq!(a.update, b.update, "shard {i}");
                    assert_eq!(a.owned, b.owned, "shard {i}");
                }
            }
        }
    }

    #[test]
    fn shard_map_overrides_win_and_rest_stay_uniform() {
        let shards = 4;
        let map = ShardMap::with_overrides(shards, vec![(7, 2), (7, 3), (100, 1)]);
        // Later entry for vertex 7 wins.
        assert_eq!(map.shard_of(7), 3);
        assert_eq!(map.shard_of(100), 1);
        for v in 0..64u32 {
            if v != 7 {
                assert_eq!(map.shard_of(v), shard_of_vertex(v, shards));
            }
        }
        // Overrides restating the hash are dropped.
        let hash_home = shard_of_vertex(9, shards) as u16;
        let map = ShardMap::with_overrides(shards, vec![(9, hash_home)]);
        assert!(map.is_uniform());
    }

    #[test]
    fn balanced_map_improves_skewed_load() {
        let shards = 4;
        // One scorching vertex plus a flat background.
        let mut counts = vec![4u64; 256];
        counts[3] = 10_000;
        counts[17] = 6_000;
        let spread = |map: &ShardMap| -> (u64, u64) {
            let mut load = vec![0u64; shards];
            for (v, &c) in counts.iter().enumerate() {
                load[map.shard_of(v as u32)] += c;
            }
            (*load.iter().max().unwrap(), *load.iter().min().unwrap())
        };
        let uniform = ShardMap::uniform(shards);
        let balanced = ShardMap::balanced(shards, &counts, 8);
        let (umax, _) = spread(&uniform);
        let (bmax, bmin) = spread(&balanced);
        assert!(
            bmax <= umax,
            "rebalance made the hottest shard hotter: {bmax} > {umax}"
        );
        // The two hubs must land on different shards.
        assert_ne!(balanced.shard_of(3), balanced.shard_of(17));
        assert!(bmax - bmin <= 10_000, "still pathological: {bmax}-{bmin}");
        // Deterministic for a fixed count vector.
        assert_eq!(balanced, ShardMap::balanced(shards, &counts, 8));
    }

    #[test]
    fn vertex_delivery_counts_match_incidence() {
        let g = gen::gnm(30, 140, 41);
        let s = TurnstileStream::from_graph_with_churn(&g, 0.5, 42);
        let feed = ShardedFeed::partition(&s, 3);
        let counts = feed.vertex_delivery_counts();
        let mut expect = vec![0u64; s.num_vertices()];
        s.replay(&mut |u| {
            let (a, b) = u.edge.endpoints();
            expect[a.0 as usize] += 1;
            expect[b.0 as usize] += 1;
        });
        assert_eq!(counts, expect);
    }

    #[test]
    fn placed_feed_delivers_every_incident_update_in_order() {
        // The delivery contract under a non-uniform map — the feed-side
        // half of the placement-equivalence argument.
        let g = gen::gnm(40, 200, 43);
        let s = InsertionStream::from_graph(&g, 44);
        let source = collect(&s);
        let shards = 4;
        let map = ShardMap::balanced(
            shards,
            &{
                let feed = ShardedFeed::partition(&s, shards);
                feed.vertex_delivery_counts()
            },
            16,
        );
        let feed = ShardedFeed::partition_with_map(&s, map.clone());
        assert_eq!(feed.shard_map(), &map);
        let mut owned_seen = vec![0u32; s.len()];
        for i in 0..shards {
            let expected: Vec<EdgeUpdate> = source
                .iter()
                .copied()
                .filter(|u| {
                    let (a, b) = u.edge.endpoints();
                    map.shard_of(a.0) == i || map.shard_of(b.0) == i
                })
                .collect();
            let got: Vec<EdgeUpdate> = feed.shard(i).iter().map(|su| su.update).collect();
            assert_eq!(got, expected, "shard {i}");
            assert!(feed
                .shard(i)
                .windows(2)
                .all(|w| w[0].position < w[1].position));
            for su in feed.shard(i) {
                assert_eq!(su.owned, map.shard_of(su.update.edge.u().0) == i);
                if su.owned {
                    owned_seen[su.position as usize] += 1;
                }
            }
        }
        assert!(owned_seen.iter().all(|&c| c == 1));
        // Routed cache agrees with the map.
        for r in feed.routed() {
            let (u, v) = r.update.edge.endpoints();
            assert_eq!(r.owner as usize, map.shard_of(u.0));
            assert_eq!(r.other as usize, map.shard_of(v.0));
        }
    }

    #[test]
    fn from_routed_rejects_non_uniform_placement() {
        // Checkpoint recovery only accepts the uniform hash; a routed
        // buffer written under a placement map must be rejected loudly,
        // not silently re-routed.
        let g = gen::gnm(20, 80, 45);
        let s = InsertionStream::from_graph(&g, 46);
        let counts = ShardedFeed::partition(&s, 3).vertex_delivery_counts();
        let map = ShardMap::balanced(3, &counts, 8);
        assert!(!map.is_uniform(), "need a real override to test with");
        let feed = ShardedFeed::partition_with_map(&s, map);
        let err = ShardedFeed::from_routed(20, 3, feed.routed().to_vec());
        assert!(err.is_err(), "non-uniform routing must not recover");
    }

    #[test]
    fn shard_assignment_is_stable_and_spread() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for v in 0..4096u32 {
            let s = shard_of_vertex(v, shards);
            assert_eq!(s, shard_of_vertex(v, shards));
            counts[s] += 1;
        }
        for &c in &counts {
            assert!(
                (300..=800).contains(&c),
                "shard badly unbalanced: {counts:?}"
            );
        }
    }
}
