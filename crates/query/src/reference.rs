//! Reference executors: the pre-QueryRouter pass emulation, frozen.
//!
//! These are the straightforward, obviously-correct implementations of
//! the Theorem 9 / Theorem 11 pass emulators that `exec.rs` shipped
//! before the [`crate::router::QueryRouter`] refactor: the per-kind
//! HashMap trackers from [`sgs_stream::counters`] probed independently
//! per update, plus a per-update linear scan over all pending neighbor
//! samplers. They are kept for two jobs:
//!
//! 1. **Equivalence oracle** — the router-based executors must produce
//!    *byte-identical* outputs to these for every fixed seed (the
//!    `router_equivalence` integration tests); the routing refactor is
//!    pure plumbing and may not move a single coin.
//! 2. **Perf baseline** — `benches/executor.rs` measures router vs
//!    reference on the same workloads; `BENCH_executor.json` records the
//!    before/after. Do not optimize this module: its slowness is the
//!    point.
//!
//! Randomness contract shared with the optimized executors (this is what
//! makes byte-identity possible): per pass, a [`FastRng`] seeded with
//! `split_seed(seed, pass_index)` is consumed in batch order for `f1`
//! position draws; each `RandomNeighbor`/`RandomEdge` sampler is seeded
//! with `split_seed(pass_seed, query_index)`.

use crate::accounting::ExecReport;
use crate::query::{Answer, Query};
use crate::round::RoundAdaptive;
use sgs_graph::{Edge, VertexId};
use sgs_stream::counters::{AdjacencyFlags, DegreeCounters, EdgeCounter, NeighborWatchers};
use sgs_stream::hash::{split_seed, FastRng};
use sgs_stream::l0::L0Sampler;
use sgs_stream::reservoir::ReservoirSampler;
use sgs_stream::{EdgeStream, SpaceUsage};
use std::collections::HashMap;

/// Bytes charged per retained answer (Theorem 9's `O(q log n)` term).
const ANSWER_BYTES: usize = 16;

/// Per-pass emulation state for the insertion-only model (pre-refactor
/// layout: independent structures, linear neighbor-sampler scan).
struct RefInsertionPass {
    edge_targets: Vec<(u64, usize)>,
    edge_hits: Vec<(usize, Edge)>,
    edge_cursor: usize,
    update_idx: u64,
    nbr_samplers: Vec<(usize, VertexId, ReservoirSampler<Edge>)>,
    degree_counters: DegreeCounters,
    degree_queries: Vec<(usize, VertexId)>,
    watchers: NeighborWatchers,
    watcher_queries: Vec<usize>,
    flags: AdjacencyFlags,
    flag_queries: Vec<(usize, Edge)>,
    edge_counter: EdgeCounter,
    count_queries: Vec<usize>,
}

impl RefInsertionPass {
    fn build(batch: &[Query], stream_len: u64, pass_seed: u64) -> Self {
        let mut rng = FastRng::seed_from_u64(pass_seed);
        let mut edge_targets = Vec::new();
        let mut nbr_samplers = Vec::new();
        let mut degree_vertices = Vec::new();
        let mut degree_queries = Vec::new();
        let mut watch_list = Vec::new();
        let mut watcher_queries = Vec::new();
        let mut flag_edges = Vec::new();
        let mut flag_queries = Vec::new();
        let mut count_queries = Vec::new();
        for (i, q) in batch.iter().enumerate() {
            match *q {
                Query::EdgeCount => count_queries.push(i),
                Query::RandomEdge => {
                    if stream_len > 0 {
                        edge_targets.push((rng.gen_range(0..stream_len), i));
                    }
                }
                Query::RandomNeighbor(v) => {
                    nbr_samplers.push((
                        i,
                        v,
                        ReservoirSampler::new(split_seed(pass_seed, i as u64)),
                    ));
                }
                Query::Degree(v) => {
                    degree_vertices.push(v);
                    degree_queries.push((i, v));
                }
                Query::IthNeighbor(v, idx) => {
                    watch_list.push((v, idx));
                    watcher_queries.push(i);
                }
                Query::Adjacent(u, v) => {
                    let e = Edge::new(u, v);
                    flag_edges.push(e);
                    flag_queries.push((i, e));
                }
            }
        }
        edge_targets.sort_unstable();
        RefInsertionPass {
            edge_targets,
            edge_hits: Vec::new(),
            edge_cursor: 0,
            update_idx: 0,
            nbr_samplers,
            degree_counters: DegreeCounters::new(degree_vertices),
            degree_queries,
            watchers: NeighborWatchers::new(watch_list),
            watcher_queries,
            flags: AdjacencyFlags::new(flag_edges),
            flag_queries,
            edge_counter: EdgeCounter::new(),
            count_queries,
        }
    }

    fn space_bytes(&self) -> usize {
        self.edge_targets.len() * 16
            + self.nbr_samplers.len() * 24
            + self.degree_counters.space_bytes()
            + self.watchers.space_bytes()
            + self.flags.space_bytes()
            + self.edge_counter.space_bytes()
    }

    fn answers(self, batch_len: usize) -> Vec<Answer> {
        let mut answers = vec![Answer::Edge(None); batch_len];
        for (i, e) in &self.edge_hits {
            answers[*i] = Answer::Edge(Some(*e));
        }
        for (i, v, s) in &self.nbr_samplers {
            answers[*i] = Answer::Neighbor(s.sample().map(|e| e.other(*v)));
        }
        for (i, v) in &self.degree_queries {
            answers[*i] = Answer::Degree(self.degree_counters.degree(*v).unwrap_or(0));
        }
        for (k, i) in self.watcher_queries.iter().enumerate() {
            answers[*i] = Answer::Neighbor(self.watchers.answer(k));
        }
        for (i, e) in &self.flag_queries {
            answers[*i] = Answer::Adjacent(self.flags.present(*e).unwrap_or(false));
        }
        for i in &self.count_queries {
            answers[*i] = Answer::EdgeCount(self.edge_counter.count());
        }
        answers
    }
}

/// Answer one round's batch with one insertion-only pass, pre-refactor
/// architecture (the baseline counterpart of an insertion-model
/// [`crate::sharded::answer_batch`] over one shard).
pub fn answer_insertion_batch_reference(
    batch: &[Query],
    stream: &impl EdgeStream,
    pass_seed: u64,
) -> (Vec<Answer>, usize) {
    let mut pass = RefInsertionPass::build(batch, stream.len() as u64, pass_seed);
    stream.replay(&mut |u| {
        debug_assert!(u.is_insert(), "insertion executor fed a deletion");
        while pass.edge_cursor < pass.edge_targets.len()
            && pass.edge_targets[pass.edge_cursor].0 == pass.update_idx
        {
            let (_, qi) = pass.edge_targets[pass.edge_cursor];
            pass.edge_hits.push((qi, u.edge));
            pass.edge_cursor += 1;
        }
        pass.update_idx += 1;
        // The pre-refactor linear scan: every pending neighbor
        // sampler is visited on every update.
        for (_, v, s) in &mut pass.nbr_samplers {
            if u.edge.contains(*v) {
                s.offer(u.edge);
            }
        }
        pass.degree_counters.feed(u);
        pass.watchers.feed(u);
        pass.flags.feed(u);
        pass.edge_counter.feed(u);
    });
    let space = pass.space_bytes();
    (pass.answers(batch.len()), space)
}

/// Insertion-only streaming execution, pre-refactor architecture.
pub fn run_insertion_reference<A: RoundAdaptive>(
    mut alg: A,
    stream: &impl EdgeStream,
    seed: u64,
) -> (A::Output, ExecReport) {
    let mut report = ExecReport::default();
    let mut answers: Vec<Answer> = Vec::new();
    loop {
        let batch = alg.next_round(&answers);
        if batch.is_empty() {
            break;
        }
        report.rounds += 1;
        report.passes += 1;
        report.queries += batch.len();
        report.answer_bytes += batch.len() * ANSWER_BYTES;

        let (a, space) = answer_insertion_batch_reference(
            &batch,
            stream,
            split_seed(seed, report.passes as u64),
        );
        report.max_pass_space_bytes = report.max_pass_space_bytes.max(space);
        answers = a;
    }
    (alg.output(), report)
}

/// Per-pass emulation state for the turnstile model (pre-refactor layout).
struct RefTurnstilePass {
    edge_samplers: Vec<(usize, L0Sampler)>,
    nbr_samplers: Vec<(usize, VertexId, L0Sampler)>,
    degree_counters: DegreeCounters,
    degree_queries: Vec<(usize, VertexId)>,
    flags: AdjacencyFlags,
    flag_queries: Vec<(usize, Edge)>,
    edge_counter: EdgeCounter,
    count_queries: Vec<usize>,
    nbr_by_vertex: HashMap<VertexId, Vec<usize>>,
}

impl RefTurnstilePass {
    fn build(batch: &[Query], n: usize, pass_seed: u64) -> Self {
        let mut edge_samplers = Vec::new();
        let mut nbr_samplers: Vec<(usize, VertexId, L0Sampler)> = Vec::new();
        let mut degree_vertices = Vec::new();
        let mut degree_queries = Vec::new();
        let mut flag_edges = Vec::new();
        let mut flag_queries = Vec::new();
        let mut count_queries = Vec::new();
        let mut nbr_by_vertex: HashMap<VertexId, Vec<usize>> = HashMap::new();
        for (i, q) in batch.iter().enumerate() {
            match *q {
                Query::EdgeCount => count_queries.push(i),
                Query::RandomEdge => {
                    edge_samplers.push((
                        i,
                        L0Sampler::for_edge_domain(n, split_seed(pass_seed, i as u64)),
                    ));
                }
                Query::RandomNeighbor(v) => {
                    nbr_by_vertex.entry(v).or_default().push(nbr_samplers.len());
                    nbr_samplers.push((
                        i,
                        v,
                        L0Sampler::for_edge_domain(n, split_seed(pass_seed, i as u64)),
                    ));
                }
                Query::Degree(v) => {
                    degree_vertices.push(v);
                    degree_queries.push((i, v));
                }
                Query::IthNeighbor(..) => {
                    panic!(
                        "IthNeighbor is not available in the turnstile model \
                         (Definition 10 replaces it with RandomNeighbor)"
                    );
                }
                Query::Adjacent(u, v) => {
                    let e = Edge::new(u, v);
                    flag_edges.push(e);
                    flag_queries.push((i, e));
                }
            }
        }
        RefTurnstilePass {
            edge_samplers,
            nbr_samplers,
            degree_counters: DegreeCounters::new(degree_vertices),
            degree_queries,
            flags: AdjacencyFlags::new(flag_edges),
            flag_queries,
            edge_counter: EdgeCounter::new(),
            count_queries,
            nbr_by_vertex,
        }
    }

    fn space_bytes(&self) -> usize {
        self.edge_samplers
            .iter()
            .map(|(_, s)| s.space_bytes())
            .sum::<usize>()
            + self
                .nbr_samplers
                .iter()
                .map(|(_, _, s)| s.space_bytes())
                .sum::<usize>()
            + self.degree_counters.space_bytes()
            + self.flags.space_bytes()
            + self.edge_counter.space_bytes()
    }

    fn answers(self, batch_len: usize) -> Vec<Answer> {
        let mut answers = vec![Answer::Edge(None); batch_len];
        for (i, s) in &self.edge_samplers {
            answers[*i] = Answer::Edge(s.sample().map(Edge::from_key));
        }
        for (i, _, s) in &self.nbr_samplers {
            answers[*i] = Answer::Neighbor(s.sample().map(|k| VertexId(k as u32)));
        }
        for (i, v) in &self.degree_queries {
            answers[*i] = Answer::Degree(self.degree_counters.degree(*v).unwrap_or(0));
        }
        for (i, e) in &self.flag_queries {
            answers[*i] = Answer::Adjacent(self.flags.present(*e).unwrap_or(false));
        }
        for i in &self.count_queries {
            answers[*i] = Answer::EdgeCount(self.edge_counter.count());
        }
        answers
    }
}

/// Answer one round's batch with one turnstile pass, pre-refactor
/// architecture.
pub fn answer_turnstile_batch_reference(
    batch: &[Query],
    stream: &impl EdgeStream,
    pass_seed: u64,
) -> (Vec<Answer>, usize) {
    let mut pass = RefTurnstilePass::build(batch, stream.num_vertices(), pass_seed);
    stream.replay(&mut |u| {
        let d = u.delta as i64;
        for (_, s) in &mut pass.edge_samplers {
            s.update(u.edge.key(), d);
        }
        for endpoint in [u.edge.u(), u.edge.v()] {
            if let Some(ids) = pass.nbr_by_vertex.get(&endpoint) {
                let other = u.edge.other(endpoint).0 as u64;
                for &si in ids {
                    pass.nbr_samplers[si].2.update(other, d);
                }
            }
        }
        pass.degree_counters.feed(u);
        pass.flags.feed(u);
        pass.edge_counter.feed(u);
    });
    let space = pass.space_bytes();
    (pass.answers(batch.len()), space)
}

/// Turnstile streaming execution, pre-refactor architecture.
pub fn run_turnstile_reference<A: RoundAdaptive>(
    mut alg: A,
    stream: &impl EdgeStream,
    seed: u64,
) -> (A::Output, ExecReport) {
    let mut report = ExecReport::default();
    let mut answers: Vec<Answer> = Vec::new();
    loop {
        let batch = alg.next_round(&answers);
        if batch.is_empty() {
            break;
        }
        report.rounds += 1;
        report.passes += 1;
        report.queries += batch.len();
        report.answer_bytes += batch.len() * ANSWER_BYTES;

        let (a, space) = answer_turnstile_batch_reference(
            &batch,
            stream,
            split_seed(seed, report.passes as u64),
        );
        report.max_pass_space_bytes = report.max_pass_space_bytes.max(space);
        answers = a;
    }
    (alg.output(), report)
}
