//! Mutable adjacency-list graph.

use crate::ids::{Edge, VertexId};
use crate::StaticGraph;
use std::collections::HashSet;

/// An undirected graph stored as per-vertex adjacency lists plus an edge
/// set for O(1) adjacency queries.
///
/// This is the workhorse representation: generators build it, the
/// query-model oracles answer from it, and exact counters either use it
/// directly or convert to [`crate::CsrGraph`] first.
///
/// Neighbor lists record *insertion order*, which doubles as the
/// adjacency-list order used by `f3` (i-th neighbor) queries.
#[derive(Clone, Debug, Default)]
pub struct AdjListGraph {
    adj: Vec<Vec<VertexId>>,
    edge_set: HashSet<u64>,
    m: usize,
}

impl AdjListGraph {
    /// Empty graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        AdjListGraph {
            adj: vec![Vec::new(); n],
            edge_set: HashSet::new(),
            m: 0,
        }
    }

    /// Build from an iterator of edges; duplicate edges are ignored.
    /// The vertex count is `n`; edges referencing ids `>= n` panic.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut g = AdjListGraph::new(n);
        for e in edges {
            g.add_edge(e);
        }
        g
    }

    /// Build from distinct edges whose degrees `degree[v]` are known up
    /// front, so every list and the edge set get their exact capacity.
    /// Neighbor lists follow the order of `edges`, as [`Self::from_edges`]
    /// would give.
    pub(crate) fn from_distinct_edges(degree: &[usize], edges: impl Iterator<Item = Edge>) -> Self {
        let m = degree.iter().sum::<usize>() / 2;
        let mut adj: Vec<Vec<VertexId>> = degree.iter().map(|&d| Vec::with_capacity(d)).collect();
        let mut edge_set = HashSet::with_capacity(m);
        for e in edges {
            let fresh = edge_set.insert(e.key());
            debug_assert!(fresh, "edge {e:?} listed twice");
            adj[e.u().index()].push(e.v());
            adj[e.v().index()].push(e.u());
        }
        debug_assert_eq!(edge_set.len(), m, "degrees disagree with the edges");
        AdjListGraph { adj, edge_set, m }
    }

    /// Convenience constructor from `(u32, u32)` pairs.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (u32, u32)>) -> Self {
        Self::from_edges(n, pairs.into_iter().map(Edge::from))
    }

    /// Insert an undirected edge. Returns `true` if the edge was new.
    pub fn add_edge(&mut self, e: Edge) -> bool {
        assert!(
            e.v().index() < self.adj.len(),
            "edge {e:?} out of range for n={}",
            self.adj.len()
        );
        if !self.edge_set.insert(e.key()) {
            return false;
        }
        self.adj[e.u().index()].push(e.v());
        self.adj[e.v().index()].push(e.u());
        self.m += 1;
        true
    }

    /// Remove an undirected edge. Returns `true` if it was present.
    ///
    /// Removal is O(deg); it exists to materialize the *final* graph of a
    /// turnstile stream, not for hot paths.
    pub fn remove_edge(&mut self, e: Edge) -> bool {
        if !self.edge_set.remove(&e.key()) {
            return false;
        }
        let (u, v) = e.endpoints();
        self.adj[u.index()].retain(|&w| w != v);
        self.adj[v.index()].retain(|&w| w != u);
        self.m -= 1;
        true
    }

    /// All edges in an unspecified but deterministic order.
    pub fn edge_vec(&self) -> Vec<Edge> {
        let mut v: Vec<Edge> = self.edge_set.iter().map(|&k| Edge::from_key(k)).collect();
        v.sort_unstable();
        v
    }

    /// Iterate vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.adj.len() as u32).map(VertexId)
    }
}

impl StaticGraph for AdjListGraph {
    fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    fn num_edges(&self) -> usize {
        self.m
    }

    fn degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].len()
    }

    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[v.index()]
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        self.edge_set.contains(&Edge::new(u, v).key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> AdjListGraph {
        // 0-1, 1-2, 2-0 triangle, 2-3 pendant
        AdjListGraph::from_pairs(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(VertexId(2)), 3);
        assert_eq!(g.degree(VertexId(3)), 1);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn adjacency_queries() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(g.has_edge(VertexId(1), VertexId(0)));
        assert!(!g.has_edge(VertexId(0), VertexId(3)));
        assert!(!g.has_edge(VertexId(1), VertexId(1)));
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = triangle_plus_pendant();
        assert!(!g.add_edge(Edge::from((0, 1))));
        assert!(!g.add_edge(Edge::from((1, 0))));
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn remove_edge_updates_all_views() {
        let mut g = triangle_plus_pendant();
        assert!(g.remove_edge(Edge::from((2, 0))));
        assert!(!g.remove_edge(Edge::from((2, 0))));
        assert_eq!(g.num_edges(), 3);
        assert!(!g.has_edge(VertexId(0), VertexId(2)));
        assert_eq!(g.degree(VertexId(2)), 2);
        assert!(!g.neighbors(VertexId(0)).contains(&VertexId(2)));
    }

    #[test]
    fn ith_neighbor_follows_insertion_order() {
        let g = triangle_plus_pendant();
        // vertex 2 saw edges (1,2), (2,0), (2,3) in that order
        assert_eq!(g.ith_neighbor(VertexId(2), 0), Some(VertexId(1)));
        assert_eq!(g.ith_neighbor(VertexId(2), 1), Some(VertexId(0)));
        assert_eq!(g.ith_neighbor(VertexId(2), 2), Some(VertexId(3)));
        assert_eq!(g.ith_neighbor(VertexId(2), 3), None);
    }

    #[test]
    fn edges_listed_once() {
        let g = triangle_plus_pendant();
        let es = g.edges();
        assert_eq!(es.len(), 4);
        let vs = g.edge_vec();
        assert_eq!(vs.len(), 4);
    }
}
