//! Stream sources and pass accounting.
//!
//! A multi-pass streaming algorithm sees the *same* update sequence on
//! every pass (the arbitrary-order model: the order is fixed but
//! adversarial, not random). [`EdgeStream`] abstracts a replayable
//! sequence; [`PassCounter`] wraps one and counts how many passes an
//! algorithm actually performed, which is how the experiment harness
//! verifies the paper's pass-complexity claims (3 passes for Theorem 1,
//! `5r` for Theorem 2).

use crate::hash::FastRng;
use crate::update::EdgeUpdate;
use sgs_graph::{AdjListGraph, Edge, StaticGraph};
use std::cell::Cell;

/// A replayable edge stream over a graph on `num_vertices()` vertices.
pub trait EdgeStream {
    /// Number of vertices `n` of the underlying graph (ids `0..n`), known
    /// to the algorithm up front as in the paper's model.
    fn num_vertices(&self) -> usize;

    /// Replay the whole stream once, feeding every update to `sink` in
    /// stream order.
    fn replay(&self, sink: &mut dyn FnMut(EdgeUpdate));

    /// Number of updates in the stream (stream length, not `m`).
    fn len(&self) -> usize;

    /// The whole stream as one contiguous slice, when the source
    /// materializes it that way. Blocked consumers chunk this directly
    /// (zero copies, no per-update callback); sources that synthesize
    /// updates on the fly, count passes on replay, or merge buffers
    /// (`PassCounter`, `ShardedFeed`) return `None` and are buffered by
    /// the caller through [`EdgeStream::replay`].
    fn as_updates(&self) -> Option<&[EdgeUpdate]> {
        None
    }

    /// Whether the stream carries no updates.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize the final graph (applying all updates). Ground-truth
    /// helper for tests and experiments — *not* available to streaming
    /// algorithms.
    fn final_graph(&self) -> AdjListGraph {
        let mut g = AdjListGraph::new(self.num_vertices());
        self.replay(&mut |u| {
            if u.is_insert() {
                g.add_edge(u.edge);
            } else {
                g.remove_edge(u.edge);
            }
        });
        g
    }
}

/// An insertion-only stream: a fixed, arbitrarily ordered list of edge
/// insertions.
#[derive(Clone, Debug)]
pub struct InsertionStream {
    n: usize,
    updates: Vec<EdgeUpdate>,
}

impl InsertionStream {
    /// Stream the edges of `g` in a seeded pseudo-random order
    /// ("arbitrary order": deterministic given the seed, unknown to the
    /// algorithm).
    pub fn from_graph(g: &impl StaticGraph, order_seed: u64) -> Self {
        Self::shuffled(g.num_vertices(), g.edges(), order_seed)
    }

    /// Stream `edges` in the seeded order [`Self::from_graph`] gives a
    /// graph whose `edges()` equal them.
    pub fn shuffled(n: usize, mut edges: Vec<Edge>, order_seed: u64) -> Self {
        let mut rng = FastRng::seed_from_u64(order_seed);
        rng.shuffle(&mut edges);
        Self::from_edge_order(n, edges)
    }

    /// Stream edges in the exact order given (adversarial-order tests).
    pub fn from_edge_order(n: usize, edges: Vec<Edge>) -> Self {
        InsertionStream {
            n,
            updates: edges.into_iter().map(EdgeUpdate::insert).collect(),
        }
    }
}

impl EdgeStream for InsertionStream {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn replay(&self, sink: &mut dyn FnMut(EdgeUpdate)) {
        for &u in &self.updates {
            sink(u);
        }
    }

    fn len(&self) -> usize {
        self.updates.len()
    }

    fn as_updates(&self) -> Option<&[EdgeUpdate]> {
        Some(&self.updates)
    }
}

/// A strict turnstile stream: insertions and deletions whose final effect
/// is a given graph, with every prefix describing a simple graph.
#[derive(Clone, Debug)]
pub struct TurnstileStream {
    n: usize,
    updates: Vec<EdgeUpdate>,
}

impl TurnstileStream {
    /// Build a turnstile stream whose final graph is `g`, with churn:
    /// roughly `churn_factor · m` *extra* non-final edges are inserted and
    /// later deleted, and final edges may also be deleted and re-inserted.
    ///
    /// Construction: each final edge gets one surviving insertion (possibly
    /// preceded by insert/delete cycles); each churn edge gets an
    /// insert-then-delete pair. Events are ordered by random timestamps
    /// that respect per-edge causality, so every prefix is a simple graph.
    pub fn from_graph_with_churn(g: &impl StaticGraph, churn_factor: f64, seed: u64) -> Self {
        assert!(churn_factor >= 0.0);
        let mut rng = FastRng::seed_from_u64(seed);
        let n = g.num_vertices();
        let m = g.num_edges();
        // (timestamp, tiebreak, update)
        let mut events: Vec<(f64, u64, EdgeUpdate)> = Vec::new();

        for e in g.edges() {
            // Optionally one insert/delete cycle before the surviving insert.
            if rng.gen_bool(0.25) {
                let a = rng.gen_f64() * 0.5;
                let b = a + rng.gen_f64() * (0.75 - a).max(1e-9);
                let c = b + rng.gen_f64() * (1.0 - b).max(1e-9);
                events.push((a, rng.next_u64(), EdgeUpdate::insert(e)));
                events.push((b, rng.next_u64(), EdgeUpdate::delete(e)));
                events.push((c, rng.next_u64(), EdgeUpdate::insert(e)));
            } else {
                let t = rng.gen_f64();
                events.push((t, rng.next_u64(), EdgeUpdate::insert(e)));
            }
        }

        // Churn edges: sample distinct non-edges of g, insert then delete.
        let churn_target = (churn_factor * m as f64).round() as usize;
        let mut churned = std::collections::HashSet::new();
        let mut added = 0usize;
        let mut guard = 0usize;
        while added < churn_target && guard < churn_target * 20 + 100 {
            guard += 1;
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            if a == b {
                continue;
            }
            let e = Edge::from((a, b));
            if g.has_edge(e.u(), e.v()) || !churned.insert(e.key()) {
                continue;
            }
            let t0 = rng.gen_f64() * 0.9;
            let t1 = t0 + rng.gen_f64() * (1.0 - t0);
            events.push((t0, rng.next_u64(), EdgeUpdate::insert(e)));
            events.push((t1, rng.next_u64(), EdgeUpdate::delete(e)));
            added += 1;
        }

        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let updates: Vec<EdgeUpdate> = events.into_iter().map(|(_, _, u)| u).collect();
        let s = TurnstileStream { n, updates };
        debug_assert!(s.is_strict());
        s
    }

    /// A turnstile stream from an explicit update list (caller guarantees
    /// strictness; checked in debug builds).
    pub fn from_updates(n: usize, updates: Vec<EdgeUpdate>) -> Self {
        let s = TurnstileStream { n, updates };
        debug_assert!(s.is_strict(), "stream violates strict turnstile");
        s
    }

    /// Verify the strict-turnstile invariant: every prefix keeps all edge
    /// multiplicities in `{0, 1}`.
    pub fn is_strict(&self) -> bool {
        let mut present = std::collections::HashSet::new();
        for u in &self.updates {
            if u.is_insert() {
                if !present.insert(u.edge.key()) {
                    return false;
                }
            } else if !present.remove(&u.edge.key()) {
                return false;
            }
        }
        true
    }

    /// Fraction of updates that are deletions.
    pub fn deletion_fraction(&self) -> f64 {
        if self.updates.is_empty() {
            return 0.0;
        }
        self.updates.iter().filter(|u| !u.is_insert()).count() as f64 / self.updates.len() as f64
    }
}

impl EdgeStream for TurnstileStream {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn replay(&self, sink: &mut dyn FnMut(EdgeUpdate)) {
        for &u in &self.updates {
            sink(u);
        }
    }

    fn len(&self) -> usize {
        self.updates.len()
    }

    fn as_updates(&self) -> Option<&[EdgeUpdate]> {
        Some(&self.updates)
    }
}

/// Wraps a stream and counts passes (replays). The paper's pass-complexity
/// claims are asserted against this counter in tests and reported in the
/// experiment tables.
pub struct PassCounter<'s, S: EdgeStream + ?Sized> {
    inner: &'s S,
    passes: Cell<usize>,
}

impl<'s, S: EdgeStream + ?Sized> PassCounter<'s, S> {
    /// Wrap a stream.
    pub fn new(inner: &'s S) -> Self {
        PassCounter {
            inner,
            passes: Cell::new(0),
        }
    }

    /// Number of passes performed so far.
    pub fn passes(&self) -> usize {
        self.passes.get()
    }
}

impl<S: EdgeStream + ?Sized> EdgeStream for PassCounter<'_, S> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn replay(&self, sink: &mut dyn FnMut(EdgeUpdate)) {
        self.passes.set(self.passes.get() + 1);
        self.inner.replay(sink);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::gen;

    #[test]
    fn insertion_stream_replays_all_edges() {
        let g = gen::gnm(30, 100, 1);
        let s = InsertionStream::from_graph(&g, 99);
        assert_eq!(s.len(), 100);
        let mut count = 0;
        s.replay(&mut |u| {
            assert!(u.is_insert());
            count += 1;
        });
        assert_eq!(count, 100);
    }

    #[test]
    fn insertion_stream_order_is_seeded() {
        let g = gen::gnm(30, 100, 1);
        let collect = |seed| {
            let s = InsertionStream::from_graph(&g, seed);
            let mut v = Vec::new();
            s.replay(&mut |u| v.push(u.edge));
            v
        };
        assert_eq!(collect(5), collect(5));
        assert_ne!(collect(5), collect(6));
    }

    #[test]
    fn final_graph_matches_source() {
        let g = gen::gnm(25, 80, 2);
        let s = InsertionStream::from_graph(&g, 3);
        assert_eq!(s.final_graph().edge_vec(), g.edge_vec());
    }

    #[test]
    fn turnstile_is_strict_and_converges() {
        let g = gen::gnm(40, 150, 4);
        for churn in [0.0, 0.5, 2.0] {
            let s = TurnstileStream::from_graph_with_churn(&g, churn, 17);
            assert!(s.is_strict());
            assert_eq!(s.final_graph().edge_vec(), g.edge_vec(), "churn {churn}");
        }
    }

    #[test]
    fn turnstile_churn_adds_deletions() {
        let g = gen::gnm(40, 150, 4);
        let s = TurnstileStream::from_graph_with_churn(&g, 1.0, 9);
        assert!(s.deletion_fraction() > 0.2, "{}", s.deletion_fraction());
        assert!(s.len() > 2 * 150);
    }

    #[test]
    fn pass_counter_counts() {
        let g = gen::gnm(10, 20, 5);
        let s = InsertionStream::from_graph(&g, 0);
        let pc = PassCounter::new(&s);
        assert_eq!(pc.passes(), 0);
        pc.replay(&mut |_| {});
        pc.replay(&mut |_| {});
        assert_eq!(pc.passes(), 2);
        assert_eq!(pc.num_vertices(), 10);
    }

    #[test]
    fn strictness_detector() {
        use sgs_graph::VertexId;
        let e = Edge::new(VertexId(0), VertexId(1));
        let bad = TurnstileStream {
            n: 2,
            updates: vec![EdgeUpdate::delete(e)],
        };
        assert!(!bad.is_strict());
        let bad2 = TurnstileStream {
            n: 2,
            updates: vec![EdgeUpdate::insert(e), EdgeUpdate::insert(e)],
        };
        assert!(!bad2.is_strict());
    }
}
