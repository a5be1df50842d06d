//! # subgraph-streams
//!
//! A streaming subgraph-counting library reproducing **Fichtenberger &
//! Peng, “Approximately Counting Subgraphs in Data Streams” (PODS 2022,
//! arXiv:2203.14225)**.
//!
//! The crate is a facade over the workspace:
//!
//! * [`graph`] — graphs, patterns, fractional edge covers `ρ(H)`, exact
//!   counters, generators ([`sgs_graph`]),
//! * [`stream`] — insertion-only/turnstile streams, reservoir and
//!   ℓ₀-samplers, space accounting ([`sgs_stream`]),
//! * [`query`] — the augmented general graph model, round-adaptive
//!   algorithms, and the query→streaming transformation of Theorems 9/11
//!   ([`sgs_query`]),
//! * [`core`] — the FGP 3-pass subgraph counter (Theorem 1) and the ERS
//!   `≤5r`-pass low-degeneracy clique counter (Theorem 2)
//!   ([`sgs_core`]).
//!
//! ## Counting triangles in three passes
//!
//! ```
//! use subgraph_streams::prelude::*;
//!
//! let graph = sgs_graph::gen::gnm(100, 600, 7);
//! let stream = InsertionStream::from_graph(&graph, 8);
//! let est = estimate_stream(
//!     &Pattern::triangle(), RouterMode::Insertion, &stream, 20_000, 9,
//! ).unwrap();
//! assert_eq!(est.report.passes, 3);
//! ```

pub use sgs_core as core;
pub use sgs_graph as graph;
pub use sgs_query as query;
pub use sgs_stream as stream;

/// Everything most users need.
pub mod prelude {
    pub use sgs_core::ers::{count_cliques_insertion, ErsParams};
    pub use sgs_core::fgp::{estimate_stream, practical_trials};
    pub use sgs_core::{CountEstimate, SamplerMode, SamplerPlan};
    pub use sgs_graph::{AdjListGraph, Edge, Pattern, StaticGraph, VertexId};
    pub use sgs_query::{ExecReport, RoundAdaptive, RouterMode};
    pub use sgs_stream::{EdgeStream, InsertionStream, TurnstileStream};
}
