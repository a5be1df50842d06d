//! The **QueryRouter**: shared batch→stream routing for the pass
//! emulators.
//!
//! One round of a sampler bank (`sgs-core`'s FGP trial bank, or a
//! [`crate::round::Parallel`] of instances) holds the queries of
//! thousands of independent trials (Theorem 17's "parallel for"), so the per-*update* work of a streaming pass must not
//! scale with the number of pending queries. The router ingests a whole
//! batch once and builds flat hash-bucket indexes over it:
//!
//! * a **per-vertex index** unifying every vertex-keyed query kind —
//!   `f2` degree counts, indexed `f3` watchers, relaxed `f3` neighbor
//!   samplers — so each stream update probes *one* table per endpoint and
//!   then touches only the queries actually registered on that vertex;
//! * a **per-edge index** for `f4` adjacency flags (one probe per
//!   update);
//! * **sorted position cursors** for insertion-model `f1` (uniform
//!   position sampling: O(1) amortized per update, O(hits) when targets
//!   fire);
//! * dense slot lists for `f1`/`EdgeCount` so executors can keep their
//!   model-specific sampler state (reservoirs, ℓ₀-sketches) in flat
//!   arrays aligned with the router's pooled ordering.
//!
//! Every stream update therefore costs O(1 + hits) independent of batch
//! size — previously each update paid two SipHash probes per tracked
//! structure plus a linear scan over all pending neighbor samplers. The
//! routing layer contributes **no algorithm randomness**: it only decides
//! *where* each update is delivered; which uniform sample each query
//! receives is still determined by the executors' per-query seeds, which
//! is what keeps the router-based executors distribution-identical to the
//! reference executors (see `crate::reference` and the
//! `router_equivalence` integration tests).

use crate::query::{Answer, Query};
use sgs_graph::{Edge, VertexId};
use sgs_stream::flat::{FlatIndex, ABSENT};
use sgs_stream::persist::{Decoder, Encoder, PersistResult};
use sgs_stream::EdgeUpdate;

/// Which streaming model the batch is routed for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouterMode {
    /// Insertion-only pass (Theorem 9): indexed `f3` allowed.
    Insertion,
    /// Turnstile pass (Theorem 11): indexed `f3` is a protocol error.
    Turnstile,
}

/// Per-vertex-group hot state: everything the feed path needs after one
/// index probe, packed together so an endpoint match costs one record
/// access instead of four scattered array reads.
#[derive(Clone, Copy, Debug, Default)]
struct VertexGroup {
    /// Running degree (`f2`).
    deg: i64,
    /// Stream arrivals seen on this vertex (watcher clock).
    seen: u64,
    /// Live watcher range into `watch_entries`: `watch_start..watch_live`,
    /// shrinking from the top as entries are consumed.
    watch_start: u32,
    watch_live: u32,
    /// Pooled neighbor-sampler range into `nbr_slots`.
    nbr_start: u32,
    nbr_end: u32,
}

/// Per-pass routing state for one query batch.
///
/// The router owns the deterministic per-key state (degree counts,
/// watcher progress, adjacency flags, the edge counter); executors own
/// the per-query *sampler* state (reservoirs / ℓ₀-sketches) in arrays
/// aligned with [`QueryRouter::neighbor_slots`] / the `f1` slot list,
/// because that state differs per model.
pub struct QueryRouter {
    batch_len: usize,
    /// Slots asking `EdgeCount`, in batch order.
    count_slots: Vec<u32>,
    /// Slots asking `RandomEdge` (`f1`), in batch order.
    edge_slots: Vec<u32>,

    /// Vertex id → vertex group.
    vertices: FlatIndex,
    /// Group → vertex id (answer-time reconstruction).
    group_vertex: Vec<u32>,

    /// Hot per-vertex-group state, one cache-line-friendly record per
    /// group: the running `f2` degree, the watcher arrival counter and
    /// live range, and the pooled neighbor-sampler range. The feed path
    /// touches exactly one record per matched endpoint.
    groups: Vec<VertexGroup>,
    /// Flat `(group, slot)` pairs for `f2` answer distribution (no
    /// pooling needed: distribution order is irrelevant).
    deg_pairs: Vec<(u32, u32)>,

    /// Relaxed `f3`: pooled sampler slots, grouped by vertex; entry `i`
    /// of the pool is sampler index `i` for the owning executor.
    nbr_slots: Vec<u32>,

    /// Indexed `f3`: pooled `(awaited arrival, slot)` per vertex group,
    /// each group sorted descending so the live tail is next due.
    watch_entries: Vec<(u64, u32)>,
    watch_hits: Vec<(u32, VertexId)>,

    /// `f4`: edge key → pair group; last-update-wins presence per group,
    /// plus flat `(group, slot)` pairs for answer distribution.
    pairs: FlatIndex,
    flag_present: Vec<bool>,
    flag_pairs: Vec<(u32, u32)>,

    /// Running edge count `m`.
    m: i64,

    /// Rebuild scratch (grouping intermediates), retained across
    /// [`QueryRouter::rebuild`] calls so an arena-pooled router reaches
    /// zero per-round allocations after warm-up.
    scratch_nbr: Vec<(u32, u32)>,
    scratch_watch: Vec<(u32, (u64, u32))>,
    scratch_sizes: Vec<u32>,
}

impl Default for QueryRouter {
    fn default() -> Self {
        Self::empty()
    }
}

impl QueryRouter {
    /// An empty router holding no batch — the pooled starting point; fill
    /// it with [`QueryRouter::rebuild`].
    pub fn empty() -> Self {
        QueryRouter {
            batch_len: 0,
            count_slots: Vec::new(),
            edge_slots: Vec::new(),
            vertices: FlatIndex::default(),
            group_vertex: Vec::new(),
            groups: Vec::new(),
            deg_pairs: Vec::new(),
            nbr_slots: Vec::new(),
            watch_entries: Vec::new(),
            watch_hits: Vec::new(),
            pairs: FlatIndex::default(),
            flag_present: Vec::new(),
            flag_pairs: Vec::new(),
            m: 0,
            scratch_nbr: Vec::new(),
            scratch_watch: Vec::new(),
            scratch_sizes: Vec::new(),
        }
    }

    /// Ingest a batch and build the routing indexes.
    pub fn build(batch: &[Query], mode: RouterMode) -> Self {
        let mut r = Self::empty();
        r.rebuild(batch, mode);
        r
    }

    /// Re-ingest a batch **in place**, reusing every allocation from the
    /// previous round: the arena contract (ROADMAP "Indexed-pass build
    /// cost"). After one warm-up round per batch shape, rebuilding
    /// touches no heap — [`crate::arena::RouterArena`] counts growth
    /// events to prove it.
    pub fn rebuild(&mut self, batch: &[Query], mode: RouterMode) {
        // Counting prescan: exact capacities, no re-growth while
        // classifying tens of thousands of merged queries.
        let (mut n_count, mut n_edge, mut n_deg, mut n_nbr, mut n_watch, mut n_flag) =
            (0usize, 0usize, 0usize, 0usize, 0usize, 0usize);
        for q in batch {
            match q {
                Query::EdgeCount => n_count += 1,
                Query::RandomEdge => n_edge += 1,
                Query::Degree(_) => n_deg += 1,
                Query::RandomNeighbor(_) => n_nbr += 1,
                Query::IthNeighbor(..) => n_watch += 1,
                Query::Adjacent(..) => n_flag += 1,
            }
        }
        self.batch_len = batch.len();
        self.m = 0;
        self.count_slots.clear();
        self.count_slots.reserve(n_count);
        self.edge_slots.clear();
        self.edge_slots.reserve(n_edge);

        // One shared vertex index across all vertex-keyed kinds: per
        // update, a single probe routes to degree counts, watchers, and
        // neighbor samplers at once. Distinct vertices are bounded by
        // `n`, which is typically far below the raw query count
        // (thousands of trials ask about the same few hundred vertices),
        // so start small and let the index grow: a compact table stays
        // cache-resident on the per-update probe path.
        self.vertices.clear();
        self.vertices.reserve((n_deg + n_nbr + n_watch).min(2048));
        self.group_vertex.clear();
        self.deg_pairs.clear();
        self.deg_pairs.reserve(n_deg);
        let mut nbr_grouped = std::mem::take(&mut self.scratch_nbr);
        nbr_grouped.clear();
        nbr_grouped.reserve(n_nbr);
        let mut watch_grouped = std::mem::take(&mut self.scratch_watch);
        watch_grouped.clear();
        watch_grouped.reserve(n_watch);
        // Per-edge index for f4; distinct pairs are usually close to the
        // raw count (each trial probes its own sampled vertex set).
        self.pairs.clear();
        self.pairs.reserve(n_flag);
        self.flag_pairs.clear();
        self.flag_pairs.reserve(n_flag);
        self.watch_hits.clear();

        // Single classification pass: group keys as we see them.
        let vertices = &mut self.vertices;
        let group_vertex = &mut self.group_vertex;
        let vertex_group =
            |vertices: &mut FlatIndex, group_vertex: &mut Vec<u32>, v: VertexId| -> u32 {
                let g = vertices.insert_or_get(v.0 as u64);
                if g as usize == group_vertex.len() {
                    group_vertex.push(v.0);
                }
                g
            };
        for (i, q) in batch.iter().enumerate() {
            let slot = i as u32;
            match *q {
                Query::EdgeCount => self.count_slots.push(slot),
                Query::RandomEdge => self.edge_slots.push(slot),
                Query::Degree(v) => {
                    let g = vertex_group(vertices, group_vertex, v);
                    self.deg_pairs.push((g, slot));
                }
                Query::RandomNeighbor(v) => {
                    let g = vertex_group(vertices, group_vertex, v);
                    nbr_grouped.push((g, slot));
                }
                Query::IthNeighbor(v, idx) => {
                    if mode == RouterMode::Turnstile {
                        panic!(
                            "IthNeighbor is not available in the turnstile model \
                             (Definition 10 replaces it with RandomNeighbor)"
                        );
                    }
                    let g = vertex_group(vertices, group_vertex, v);
                    watch_grouped.push((g, (idx, slot)));
                }
                Query::Adjacent(u, v) => {
                    let g = self.pairs.insert_or_get(Edge::new(u, v).key());
                    self.flag_pairs.push((g, slot));
                }
            }
        }
        let n_groups = self.group_vertex.len();
        let pair_groups = self.pairs.len();

        self.groups.clear();
        self.groups.resize(n_groups, VertexGroup::default());

        // Relaxed-f3 sampler slots need CSR pooling: feed dispatches by
        // vertex group range.
        {
            let sizes = &mut self.scratch_sizes;
            sizes.clear();
            sizes.resize(n_groups, 0);
            for &(g, _) in &nbr_grouped {
                sizes[g as usize] += 1;
            }
            let mut acc = 0u32;
            for (st, &c) in self.groups.iter_mut().zip(sizes.iter()) {
                st.nbr_start = acc;
                acc += c;
                st.nbr_end = st.nbr_start;
            }
            self.nbr_slots.clear();
            self.nbr_slots.resize(nbr_grouped.len(), 0);
            for &(g, s) in &nbr_grouped {
                let st = &mut self.groups[g as usize];
                self.nbr_slots[st.nbr_end as usize] = s;
                st.nbr_end += 1;
            }
        }

        // Watchers carry payloads; pool then sort each group descending
        // so the live tail is the next-due entry.
        {
            let sizes = &mut self.scratch_sizes;
            sizes.clear();
            sizes.resize(n_groups, 0);
            for &(g, _) in &watch_grouped {
                sizes[g as usize] += 1;
            }
            let mut acc = 0u32;
            for (st, &c) in self.groups.iter_mut().zip(sizes.iter()) {
                st.watch_start = acc;
                acc += c;
                st.watch_live = st.watch_start;
            }
            self.watch_entries.clear();
            self.watch_entries.resize(watch_grouped.len(), (0, 0));
            for &(g, p) in &watch_grouped {
                let st = &mut self.groups[g as usize];
                self.watch_entries[st.watch_live as usize] = p;
                st.watch_live += 1;
            }
            for st in &self.groups {
                self.watch_entries[st.watch_start as usize..st.watch_live as usize]
                    .sort_unstable_by(|a, b| b.cmp(a));
            }
        }

        self.flag_present.clear();
        self.flag_present.resize(pair_groups, false);

        self.scratch_nbr = nbr_grouped;
        self.scratch_watch = watch_grouped;
    }

    /// Bytes of backing storage currently allocated across every pooled
    /// buffer (capacities, not lengths): what the arena's
    /// no-growth-after-warm-up accounting watches. Distinct from
    /// [`QueryRouter::space_bytes`], which reports the *semantic*
    /// footprint of Theorems 9/11.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.count_slots.capacity() * size_of::<u32>()
            + self.edge_slots.capacity() * size_of::<u32>()
            + self.vertices.heap_bytes()
            + self.group_vertex.capacity() * size_of::<u32>()
            + self.groups.capacity() * size_of::<VertexGroup>()
            + self.deg_pairs.capacity() * size_of::<(u32, u32)>()
            + self.nbr_slots.capacity() * size_of::<u32>()
            + self.watch_entries.capacity() * size_of::<(u64, u32)>()
            + self.watch_hits.capacity() * size_of::<(u32, VertexId)>()
            + self.pairs.heap_bytes()
            + self.flag_present.capacity()
            + self.flag_pairs.capacity() * size_of::<(u32, u32)>()
            + self.scratch_nbr.capacity() * size_of::<(u32, u32)>()
            + self.scratch_watch.capacity() * size_of::<(u32, (u64, u32))>()
            + self.scratch_sizes.capacity() * size_of::<u32>()
    }

    /// Number of queries in the routed batch.
    pub fn batch_len(&self) -> usize {
        self.batch_len
    }

    /// Slots asking `RandomEdge`, in batch order: the executor keeps one
    /// sampler per entry, aligned with this list.
    pub fn edge_slots(&self) -> &[u32] {
        &self.edge_slots
    }

    /// Pooled `RandomNeighbor` slots (grouped by vertex): the executor
    /// keeps one sampler per entry, aligned with this list.
    pub fn neighbor_slots(&self) -> &[u32] {
        &self.nbr_slots
    }

    /// The pooled neighbor-sampler range of every vertex group that has
    /// one, in ascending lane order — the cohort map for a skip-ahead
    /// reservoir bank (`ReservoirBank::bind_cohorts`): each range is
    /// exactly the lane set a feed delivery hands to `on_neighbor_range`,
    /// so all lanes of a range always advance together.
    pub fn neighbor_group_ranges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.groups
            .iter()
            .filter(|st| st.nbr_end > st.nbr_start)
            .map(|st| (st.nbr_start, st.nbr_end))
    }

    /// The vertex each pooled neighbor-sampler entry listens on.
    pub fn neighbor_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.groups
            .iter()
            .zip(&self.group_vertex)
            .flat_map(|(st, &v)| {
                std::iter::repeat_n(VertexId(v), (st.nbr_end - st.nbr_start) as usize)
            })
    }

    /// Deliver one matched endpoint to its vertex group: degree, watcher
    /// clock, and pooled neighbor-sampler hits. Shared verbatim by the
    /// scalar [`QueryRouter::feed`] and the blocked
    /// [`QueryRouter::feed_block`] so the two paths cannot drift.
    #[inline]
    fn deliver_endpoint(
        groups: &mut [VertexGroup],
        watch_entries: &[(u64, u32)],
        watch_hits: &mut Vec<(u32, VertexId)>,
        g: u32,
        other: VertexId,
        delta: i64,
        mut on_neighbor_range: impl FnMut(u32, u32),
    ) {
        let st = &mut groups[g as usize];
        st.deg += delta;
        // Indexed f3 watchers (insertion mode only populates them).
        st.seen += 1;
        while st.watch_live > st.watch_start {
            let (idx, slot) = watch_entries[st.watch_live as usize - 1];
            if idx == st.seen {
                watch_hits.push((slot, other));
                st.watch_live -= 1;
            } else if idx < st.seen {
                // Index 0 or duplicates already consumed.
                st.watch_live -= 1;
            } else {
                break;
            }
        }
        // Relaxed f3 samplers owned by the executor: delivered as the
        // pooled range, not lane by lane, so a skip-ahead reservoir bank
        // can run its countdown compares over the contiguous lanes in one
        // call (and an ℓ₀ consumer just loops the range — same order the
        // old per-lane callback walked).
        if st.nbr_end > st.nbr_start {
            on_neighbor_range(st.nbr_start, st.nbr_end);
        }
    }

    /// Deliver one stream update to every routed structure except the
    /// model-specific `f1`/`f3` samplers; for those, `on_neighbor_range`
    /// receives the contiguous pooled sampler range `start..end`
    /// (aligned with [`QueryRouter::neighbor_slots`]) registered on an
    /// endpoint of the update.
    #[inline]
    pub fn feed(&mut self, u: EdgeUpdate, mut on_neighbor_range: impl FnMut(u32, u32)) {
        let delta = u.delta as i64;
        let (a, b) = u.edge.endpoints();
        for (endpoint, other) in [(a, b), (b, a)] {
            if let Some(g) = self.vertices.get(endpoint.0 as u64) {
                Self::deliver_endpoint(
                    &mut self.groups,
                    &self.watch_entries,
                    &mut self.watch_hits,
                    g,
                    other,
                    delta,
                    &mut on_neighbor_range,
                );
            }
        }
        if let Some(g) = self.pairs.get(u.edge.key()) {
            self.flag_present[g as usize] = u.is_insert();
        }
        self.m += delta;
    }

    /// Deliver a block of stream updates: for each chunk of 8 updates,
    /// resolve all 16 endpoint probes and 8 edge-key probes through the
    /// software-pipelined [`FlatIndex::probe_array`] (keys staged in
    /// registers, hash-ahead loads), then drain the chunk in stream
    /// order against the resolved groups. Byte-identical to feeding each
    /// update through [`QueryRouter::feed`] — the pipelining changes
    /// *when* keys are hashed, never what is delivered or in which
    /// order. `on_neighbor_range(j, start, end)` receives the update's
    /// index within the block alongside the pooled sampler range, so
    /// executors can recover the offered edge and hand the whole
    /// contiguous lane range to their sampler bank.
    pub fn feed_block(
        &mut self,
        block: &[EdgeUpdate],
        mut on_neighbor_range: impl FnMut(usize, u32, u32),
    ) {
        const B: usize = 8;
        let mut vkeys = [0u64; 2 * B];
        let mut ekeys = [0u64; B];
        let mut vgroups = [ABSENT; 2 * B];
        let mut egroups = [ABSENT; B];
        for (c, chunk) in block.chunks(B).enumerate() {
            for (t, u) in chunk.iter().enumerate() {
                let (a, b) = u.edge.endpoints();
                vkeys[2 * t] = a.0 as u64;
                vkeys[2 * t + 1] = b.0 as u64;
                ekeys[t] = u.edge.key();
            }
            // Remainder chunks probe a few stale lanes; the results are
            // never read, and a wasted probe is cheaper than a second
            // remainder code path.
            self.vertices.probe_array(&vkeys, &mut vgroups);
            self.pairs.probe_array(&ekeys, &mut egroups);
            for (t, u) in chunk.iter().enumerate() {
                let j = c * B + t;
                let delta = u.delta as i64;
                let (a, b) = u.edge.endpoints();
                for (key_idx, other) in [(2 * t, b), (2 * t + 1, a)] {
                    let g = vgroups[key_idx];
                    if g != ABSENT {
                        Self::deliver_endpoint(
                            &mut self.groups,
                            &self.watch_entries,
                            &mut self.watch_hits,
                            g,
                            other,
                            delta,
                            |s, e| on_neighbor_range(j, s, e),
                        );
                    }
                }
                let ge = egroups[t];
                if ge != ABSENT {
                    self.flag_present[ge as usize] = u.is_insert();
                }
                self.m += delta;
            }
        }
    }

    /// Serialize the mutable feed state — per-group degree counters,
    /// watcher clocks and live ranges, recorded watcher hits, adjacency
    /// flags, and the running edge count — into `enc`. The routing
    /// *geometry* (indexes, slot lists, pooled ranges) is not included:
    /// it is a deterministic function of the batch, rebuilt by
    /// [`QueryRouter::rebuild`], so a checkpoint restores feed state
    /// into an identically rebuilt router.
    pub(crate) fn encode_feed_state(&self, enc: &mut Encoder) {
        enc.u64(self.groups.len() as u64);
        for st in &self.groups {
            enc.i64(st.deg);
            enc.u64(st.seen);
            enc.u32(st.watch_live);
        }
        enc.u64(self.watch_hits.len() as u64);
        for &(slot, v) in &self.watch_hits {
            enc.u32(slot);
            enc.u32(v.0);
        }
        enc.u64(self.flag_present.len() as u64);
        for &p in &self.flag_present {
            enc.u8(p as u8);
        }
        enc.i64(self.m);
    }

    /// Restore feed state captured by [`QueryRouter::encode_feed_state`]
    /// into a router freshly rebuilt over the same batch. Validates that
    /// the recorded shape matches this router's geometry.
    pub(crate) fn restore_feed_state(&mut self, dec: &mut Decoder) -> PersistResult<()> {
        let groups = dec.count(20, "router groups")?;
        if groups != self.groups.len() {
            return Err(dec.corrupt(format!(
                "snapshot has {groups} vertex groups, router has {}",
                self.groups.len()
            )));
        }
        for (i, st) in self.groups.iter_mut().enumerate() {
            let deg = dec.i64("group degree")?;
            let seen = dec.u64("group arrivals")?;
            let watch_live = dec.u32("group watch cursor")?;
            // Feed only shrinks the live range from its rebuilt top.
            if watch_live < st.watch_start || watch_live > st.watch_live {
                return Err(dec.corrupt(format!(
                    "group {i} watch cursor {watch_live} outside {}..={}",
                    st.watch_start, st.watch_live
                )));
            }
            st.deg = deg;
            st.seen = seen;
            st.watch_live = watch_live;
        }
        let hits = dec.count(8, "watcher hits")?;
        let mut watch_hits = Vec::with_capacity(hits);
        for _ in 0..hits {
            let slot = dec.u32("watcher slot")?;
            if slot as usize >= self.batch_len {
                return Err(dec.corrupt(format!(
                    "watcher slot {slot} exceeds batch of {}",
                    self.batch_len
                )));
            }
            watch_hits.push((slot, VertexId(dec.u32("watcher vertex")?)));
        }
        let flags = dec.count(1, "adjacency flags")?;
        if flags != self.flag_present.len() {
            return Err(dec.corrupt(format!(
                "snapshot has {flags} adjacency flags, router has {}",
                self.flag_present.len()
            )));
        }
        for p in self.flag_present.iter_mut() {
            *p = match dec.u8("adjacency flag")? {
                0 => false,
                1 => true,
                _ => return Err(dec.corrupt("adjacency flag byte is not 0/1")),
            };
        }
        let m = dec.i64("edge count")?;
        self.watch_hits = watch_hits;
        self.m = m;
        Ok(())
    }

    /// Distribute the router-owned answers (`EdgeCount`, `f2`, indexed
    /// `f3`, `f4`) into a batch-wide answer vector. The executor fills
    /// `f1` and relaxed `f3` slots from its own samplers.
    pub fn distribute(&self, answers: &mut [Answer]) {
        debug_assert_eq!(answers.len(), self.batch_len);
        let m = self.m.max(0) as usize;
        for &s in &self.count_slots {
            answers[s as usize] = Answer::EdgeCount(m);
        }
        for &(g, s) in &self.deg_pairs {
            answers[s as usize] = Answer::Degree(self.groups[g as usize].deg.max(0) as usize);
        }
        // Watchers: default None, then apply recorded hits.
        for &(_, slot) in &self.watch_entries {
            answers[slot as usize] = Answer::Neighbor(None);
        }
        for &(slot, v) in &self.watch_hits {
            answers[slot as usize] = Answer::Neighbor(Some(v));
        }
        for &(g, s) in &self.flag_pairs {
            answers[s as usize] = Answer::Adjacent(self.flag_present[g as usize]);
        }
    }

    /// Semantic bytes of router state (the `O(q log n)` term of
    /// Theorems 9/11 for the non-sampler kinds; executors add their
    /// sampler footprints).
    pub fn space_bytes(&self) -> usize {
        self.count_slots.len() * 4
            + self.edge_slots.len() * 4
            + self.group_vertex.len() * (4 + 8) // vertex + degree counter
            + self.deg_pairs.len() * 8
            + self.nbr_slots.len() * 4
            + self.watch_entries.len() * 12
            + self.flag_present.len() * 9
            + self.flag_pairs.len() * 8
            + 8 // edge counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    #[test]
    fn routes_mixed_batch_and_distributes_answers() {
        let batch = vec![
            Query::EdgeCount,
            Query::Degree(v(1)),
            Query::Degree(v(2)),
            Query::Degree(v(1)), // duplicate vertex: same group
            Query::Adjacent(v(1), v(2)),
            Query::Adjacent(v(2), v(3)),
            Query::IthNeighbor(v(1), 1),
            Query::RandomNeighbor(v(2)),
            Query::RandomEdge,
        ];
        let mut r = QueryRouter::build(&batch, RouterMode::Insertion);
        assert_eq!(r.edge_slots(), &[8]);
        assert_eq!(r.neighbor_slots(), &[7]);
        let nbr_verts: Vec<VertexId> = r.neighbor_vertices().collect();
        assert_eq!(nbr_verts, vec![v(2)]);

        let mut nbr_hits = Vec::new();
        let collect = |hits: &mut Vec<usize>, r: &mut QueryRouter, u: EdgeUpdate| {
            let mut local = Vec::new();
            r.feed(u, |s, e| local.extend(s as usize..e as usize));
            hits.extend(local);
        };
        collect(
            &mut nbr_hits,
            &mut r,
            EdgeUpdate::insert(Edge::from((1, 2))),
        );
        collect(
            &mut nbr_hits,
            &mut r,
            EdgeUpdate::insert(Edge::from((2, 3))),
        );
        collect(
            &mut nbr_hits,
            &mut r,
            EdgeUpdate::insert(Edge::from((4, 5))),
        );
        assert_eq!(nbr_hits, vec![0, 0]); // vertex 2 touched twice

        let mut answers = vec![Answer::Edge(None); batch.len()];
        r.distribute(&mut answers);
        assert_eq!(answers[0], Answer::EdgeCount(3));
        assert_eq!(answers[1], Answer::Degree(1));
        assert_eq!(answers[2], Answer::Degree(2));
        assert_eq!(answers[3], Answer::Degree(1));
        assert_eq!(answers[4], Answer::Adjacent(true));
        assert_eq!(answers[5], Answer::Adjacent(true));
        assert_eq!(answers[6], Answer::Neighbor(Some(v(2))));
        // Executor-owned slots untouched by distribute.
        assert_eq!(answers[7], Answer::Edge(None));
        assert_eq!(answers[8], Answer::Edge(None));
    }

    #[test]
    fn deletions_clear_flags_and_degrees() {
        let batch = vec![Query::Degree(v(0)), Query::Adjacent(v(0), v(1))];
        let mut r = QueryRouter::build(&batch, RouterMode::Turnstile);
        let e = Edge::from((0, 1));
        r.feed(EdgeUpdate::insert(e), |_, _| {});
        r.feed(EdgeUpdate::delete(e), |_, _| {});
        let mut answers = vec![Answer::Edge(None); 2];
        r.distribute(&mut answers);
        assert_eq!(answers[0], Answer::Degree(0));
        assert_eq!(answers[1], Answer::Adjacent(false));
    }

    #[test]
    #[should_panic(expected = "IthNeighbor is not available")]
    fn turnstile_mode_rejects_indexed_neighbors() {
        let _ = QueryRouter::build(&[Query::IthNeighbor(v(0), 1)], RouterMode::Turnstile);
    }

    #[test]
    fn watcher_duplicate_indices_both_answered() {
        let batch = vec![
            Query::IthNeighbor(v(0), 2),
            Query::IthNeighbor(v(0), 2),
            Query::IthNeighbor(v(0), 9),
        ];
        let mut r = QueryRouter::build(&batch, RouterMode::Insertion);
        r.feed(EdgeUpdate::insert(Edge::from((0, 5))), |_, _| {});
        r.feed(EdgeUpdate::insert(Edge::from((0, 6))), |_, _| {});
        let mut answers = vec![Answer::Edge(None); 3];
        r.distribute(&mut answers);
        assert_eq!(answers[0], Answer::Neighbor(Some(v(6))));
        assert_eq!(answers[1], Answer::Neighbor(Some(v(6))));
        assert_eq!(answers[2], Answer::Neighbor(None));
    }

    #[test]
    fn rebuild_reuses_allocations_and_matches_fresh_build() {
        let big: Vec<Query> = (0..400u32)
            .flat_map(|i| {
                [
                    Query::Degree(v(i % 40)),
                    Query::RandomNeighbor(v(i % 37)),
                    Query::Adjacent(v(i % 23), v(100 + i % 29)),
                    Query::IthNeighbor(v(i % 31), (i as u64 % 5) + 1),
                    Query::RandomEdge,
                ]
            })
            .collect();
        let small = vec![Query::EdgeCount, Query::Degree(v(3))];
        // Warm-up cycle: one rebuild per shape the run will see.
        let mut pooled = QueryRouter::build(&big, RouterMode::Insertion);
        pooled.rebuild(&small, RouterMode::Insertion);
        let warm = pooled.heap_bytes();
        // Every later round over known shapes is allocation-stable.
        for _ in 0..3 {
            pooled.rebuild(&big, RouterMode::Insertion);
            assert_eq!(pooled.heap_bytes(), warm, "big rebuild reallocated");
            pooled.rebuild(&small, RouterMode::Insertion);
            assert_eq!(pooled.heap_bytes(), warm, "small rebuild reallocated");
        }
        pooled.rebuild(&big, RouterMode::Insertion);

        // The rebuilt router must behave exactly like a fresh build.
        let mut fresh = QueryRouter::build(&big, RouterMode::Insertion);
        let updates = [
            EdgeUpdate::insert(Edge::from((3, 14))),
            EdgeUpdate::insert(Edge::from((14, 23))),
            EdgeUpdate::insert(Edge::from((2, 108))),
            EdgeUpdate::delete(Edge::from((14, 23))),
        ];
        let (mut ha, mut hb) = (Vec::new(), Vec::new());
        for u in updates {
            pooled.feed(u, |s, e| ha.extend(s..e));
            fresh.feed(u, |s, e| hb.extend(s..e));
        }
        assert_eq!(ha, hb);
        let mut aa = vec![Answer::Edge(None); big.len()];
        let mut ab = vec![Answer::Edge(None); big.len()];
        pooled.distribute(&mut aa);
        fresh.distribute(&mut ab);
        assert_eq!(aa, ab);
    }

    #[test]
    fn feed_block_matches_scalar_feed_at_every_block_size() {
        // Mixed batch, turnstile-style update sequence with deletions and
        // unmatched endpoints; the blocked path must produce identical
        // router state, identical neighbor-hit sequences (per update, in
        // order), and identical answers for every block size including
        // remainder blocks and the empty block.
        let batch: Vec<Query> = (0..60u32)
            .flat_map(|i| {
                [
                    Query::Degree(v(i % 9)),
                    Query::RandomNeighbor(v(i % 11)),
                    Query::Adjacent(v(i % 5), v(20 + i % 7)),
                    Query::IthNeighbor(v(i % 6), (i as u64 % 3) + 1),
                ]
            })
            .chain([Query::EdgeCount])
            .collect();
        let updates: Vec<EdgeUpdate> = (0..97u32)
            .map(|i| {
                let e = Edge::from((i % 13, 13 + i % 17));
                if i % 5 == 4 {
                    EdgeUpdate::delete(e)
                } else {
                    EdgeUpdate::insert(e)
                }
            })
            .collect();
        let mut scalar = QueryRouter::build(&batch, RouterMode::Insertion);
        let mut scalar_hits = Vec::new();
        for (j, &u) in updates.iter().enumerate() {
            scalar.feed(u, |s, e| scalar_hits.extend((s..e).map(|i| (j, i))));
        }
        let mut scalar_answers = vec![Answer::Edge(None); batch.len()];
        scalar.distribute(&mut scalar_answers);

        for block in [1usize, 2, 7, 16, 64, 97, 200] {
            let mut blocked = QueryRouter::build(&batch, RouterMode::Insertion);
            let mut blocked_hits = Vec::new();
            for (c, chunk) in updates.chunks(block).enumerate() {
                blocked.feed_block(chunk, |j, s, e| {
                    blocked_hits.extend((s..e).map(|i| (c * block + j, i)))
                });
            }
            blocked.feed_block(&[], |_, _, _| panic!("empty block delivered a hit"));
            assert_eq!(blocked_hits, scalar_hits, "block {block}");
            let mut answers = vec![Answer::Edge(None); batch.len()];
            blocked.distribute(&mut answers);
            assert_eq!(answers, scalar_answers, "block {block}");
        }
    }

    #[test]
    fn space_reported_scales_with_batch() {
        let small = QueryRouter::build(&[Query::EdgeCount], RouterMode::Insertion);
        let big_batch: Vec<Query> = (0..100).map(|i| Query::Degree(v(i))).collect();
        let big = QueryRouter::build(&big_batch, RouterMode::Insertion);
        assert!(big.space_bytes() > small.space_bytes());
    }
}
