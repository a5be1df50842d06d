//! # sgs-core — the paper's algorithms
//!
//! Streaming subgraph counting from Fichtenberger & Peng, *Approximately
//! Counting Subgraphs in Data Streams* (PODS 2022):
//!
//! * [`fgp`] — the 3-pass sampler/counter for arbitrary subgraphs
//!   (Theorem 1 for turnstile streams, Theorem 17 for insertion-only),
//! * [`ers`] — the `O(r)`-pass clique counter for low-degeneracy graphs
//!   (Theorem 2, resolving the Bera–Seshadhri conjecture),
//! * [`baselines`] — comparison baselines from the related-work
//!   discussion (exact-from-stream, DOULION-style sparsification).
//!
//! ## Quick start
//!
//! ```
//! use sgs_core::fgp;
//! use sgs_graph::{gen, Pattern};
//! use sgs_query::RouterMode;
//! use sgs_stream::InsertionStream;
//!
//! let graph = gen::gnm(100, 600, 7);
//! let stream = InsertionStream::from_graph(&graph, 8);
//! let model = RouterMode::Insertion;
//! let est = fgp::estimate_stream(&Pattern::triangle(), model, &stream, 20_000, 9).unwrap();
//! println!("~{} triangles in 3 passes", est.estimate.round());
//! assert_eq!(est.report.passes, 3);
//! ```

pub mod baselines;
pub mod ers;
pub mod fgp;
pub mod serve;

pub use fgp::{CountEstimate, MultiQuerySpec, SamplerMode, SamplerPlan, SubgraphSampler};
pub use serve::{run_server, Listeners, ServeOptions};
