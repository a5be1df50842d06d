//! The FGP subgraph sampler and counter (§4 of the paper).
//!
//! * [`plan`] — per-pattern precomputation (decomposition, `ρ`, `f_T`),
//! * [`sampler`] — the 3-round-adaptive `SampleSubgraph` (Algorithms 1, 5,
//!   and 9),
//! * [`assemble`] — the piece-to-copy assembly and acceptance machinery,
//! * [`counter`] — the parallel-trials estimator (Theorems 1 and 17).

pub mod assemble;
pub mod broadcast_exec;
pub mod checkpoint_exec;
pub mod counter;
pub mod multi_exec;
pub mod parallel_exec;
pub mod plan;
pub mod sampler;
pub mod search;
pub mod serve_exec;
pub mod uniform;

pub use assemble::FoundCopy;
pub use broadcast_exec::{
    estimate_insertion_broadcast, estimate_insertion_broadcast_with_exec,
    estimate_insertion_broadcast_with_opts, estimate_turnstile_broadcast,
    estimate_turnstile_broadcast_with_exec, estimate_turnstile_broadcast_with_opts, triest_seed,
    BroadcastEstimate, ConsumerSet,
};
pub use checkpoint_exec::{estimate_insertion_checkpointed, estimate_turnstile_checkpointed};
pub use counter::{
    admit_trials, estimate_insertion, estimate_oracle, estimate_turnstile, practical_trials,
    theory_trials, CountEstimate, INSERTION_TRIAL_BYTES, TURNSTILE_TRIAL_BYTES,
};
pub use multi_exec::{
    estimate_multi_insertion, estimate_multi_insertion_broadcast, estimate_multi_turnstile,
    estimate_multi_turnstile_broadcast, MultiQuerySpec,
};
pub use parallel_exec::{
    estimate_insertion_on_feed, estimate_insertion_on_feed_with_block,
    estimate_insertion_on_feed_with_exec, estimate_insertion_on_feed_with_opts,
    estimate_insertion_threaded, estimate_insertion_threaded_with_block,
    estimate_insertion_threaded_with_exec, estimate_insertion_threaded_with_opts,
    estimate_turnstile_on_feed, estimate_turnstile_on_feed_with_block,
    estimate_turnstile_on_feed_with_exec, estimate_turnstile_on_feed_with_opts,
    estimate_turnstile_threaded, estimate_turnstile_threaded_with_block,
    estimate_turnstile_threaded_with_exec, estimate_turnstile_threaded_with_opts,
};
pub use plan::SamplerPlan;
pub use sampler::{SamplerMode, SamplerOutcome, SubgraphSampler};
pub use search::{distinguish_insertion, search_count_insertion, GapDecision, SearchResult};
pub use serve_exec::{estimate_insertion_on_runtime, estimate_turnstile_on_runtime};
pub use uniform::{sample_uniform_insertion, sample_uniform_turnstile, uniform_trials};
