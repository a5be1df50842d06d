//! The FGP subgraph sampler and counter (§4 of the paper).
//!
//! * [`plan`] — per-pattern precomputation (decomposition, `ρ`, `f_T`),
//! * [`sampler`] — the 3-round-adaptive `SampleSubgraph` (Algorithms 1, 5,
//!   and 9),
//! * [`assemble`] — the piece-to-copy assembly and acceptance machinery,
//! * [`counter`] — the parallel-trials estimate (Theorems 1 and 17), its
//!   trial formulas and admission, and the two whole-input conveniences:
//!   [`estimate_stream`] (a stream in either model, over one shard) and
//!   [`estimate_oracle`] (query access),
//! * [`multi_exec`] — the estimator's one call, [`estimate`]: one or many
//!   [`MultiQuerySpec`]s from one shared pass per round, with the stream
//!   model and the engine as arguments,
//! * [`broadcast_exec`] — [`estimate_broadcast`]: one spec on the scoped
//!   ring with a baseline, an exact oracle and raw counters riding its
//!   first pass,
//! * [`checkpoint_exec`] — [`estimate_checkpointed`]: one spec under a
//!   write-ahead log and snapshots, resumable to the same bits,
//! * [`serve_exec`] — a solo estimate on a persistent worker pool, the
//!   shape of a lone `sgs serve` COUNT,
//! * [`search`] and [`uniform`] — the gap search and uniform sampling
//!   built on the counter.
//!
//! `estimate_multi_insertion`, `estimate_insertion_on_runtime` and
//! `estimate_insertion_checkpointed` are the insertion-model calls of
//! [`estimate`] on the sharded engine, of [`estimate`] on a runtime and of
//! [`estimate_checkpointed`]; they keep their names and signatures for the
//! benchmark's traced replay.

pub mod assemble;
pub mod broadcast_exec;
pub mod checkpoint_exec;
pub mod counter;
pub mod multi_exec;
#[cfg(test)]
mod parallel_exec;
pub mod plan;
pub mod sampler;
pub mod search;
pub mod serve_exec;
pub mod uniform;

pub use assemble::FoundCopy;
pub use broadcast_exec::{estimate_broadcast, triest_seed, BroadcastEstimate, ConsumerSet};
pub use checkpoint_exec::{estimate_checkpointed, estimate_insertion_checkpointed};
pub use counter::{
    admit_trials, estimate_oracle, estimate_stream, practical_trials, theory_trials, CountEstimate,
    INSERTION_TRIAL_BYTES, TURNSTILE_TRIAL_BYTES,
};
pub use multi_exec::{estimate, estimate_multi_insertion, MultiQuerySpec};
pub use plan::SamplerPlan;
pub use sampler::{SamplerMode, SamplerOutcome, SubgraphSampler};
pub use search::{distinguish_insertion, search_count_insertion, GapDecision, SearchResult};
pub use serve_exec::estimate_insertion_on_runtime;
pub use uniform::{sample_uniform_insertion, sample_uniform_turnstile, uniform_trials};
