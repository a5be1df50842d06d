//! # sgs-query — the query-access substrate and the generic transformation
//!
//! This crate implements the paper's central contribution (§3): a generic
//! transformation from *round-adaptive* sublinear-time graph query
//! algorithms to multi-pass streaming algorithms.
//!
//! * [`query`] — the query/answer vocabulary of the augmented general
//!   graph model (Definition 6) and its relaxed variant (Definition 10),
//! * [`oracle`] — direct oracles over materialized graphs,
//! * [`round`] — the [`round::RoundAdaptive`] state-machine trait
//!   (Definition 8) and the [`round::Parallel`] combinator that lets many
//!   instances share each round (and therefore each pass),
//! * [`router`] — the [`router::QueryRouter`]: per-vertex / per-edge
//!   flat hash-bucket indexes plus sorted position cursors over one
//!   round's merged batch, so each stream update costs O(1 + hits)
//!   regardless of how many parallel trials are pending,
//! * [`arena`] — the [`arena::RouterArena`]: pooled per-shard routers and
//!   batch scratch, built once and reset per pass (no per-round heap
//!   growth after warm-up),
//! * [`sharded`] — the one family of per-shard pass machines
//!   ([`sharded::PassMachine`]) and the one split → machines → merge step
//!   every engine runs, over a hash-partitioned [`sgs_stream::ShardedFeed`]
//!   and merged back into byte-identical single-stream answers; a solo
//!   run is a one-job plan,
//! * [`broadcast`] — broadcast ingest: the same shard machines drawing
//!   from the cursors of one bounded [`sgs_stream::Broadcast`] ring (one
//!   scoped ring driver), with side consumers (baselines, exact oracles,
//!   pass counters) riding the same single ingest,
//! * [`runtime`] — the [`runtime::ShardRuntime`]: persistent, optionally
//!   pinned shard workers that run the same machines pass after pass,
//! * [`multiplex`] — multi-query serving: a [`multiplex::QuerySet`]
//!   admission-batches many concurrent round-adaptive jobs and serves
//!   every round with ONE shared pass (sharded, ring or persistent
//!   runtime), each job's answers byte-identical to its solo run; every
//!   solo round loop is a one-job `QuerySet` run,
//! * [`checkpoint`] — durable executor state: a write-ahead log of the
//!   routed stream plus block-boundary snapshots of the shard machines'
//!   mid-pass state, with byte-identical crash recovery,
//! * [`serve`] — the [`serve::ServerNode`] behind `sgs serve`: WAL-backed
//!   ingest, snapshots and a persistent worker pool,
//! * [`exec`] — the three executors:
//!   [`exec::run_on_oracle`] (query-access),
//!   [`exec::run_insertion`] (Theorem 9: one pass per round, reservoir
//!   samplers + counters), and
//!   [`exec::run_turnstile`] (Theorem 11: ℓ₀-samplers) — the streaming
//!   two are the one-shard case of [`sharded`],
//! * [`reference`] — the pre-router executors, frozen as the equivalence
//!   oracle and perf baseline,
//! * [`accounting`] — rounds / passes / queries / measured-space reports,
//! * [`triangle_finder`] — the paper's §3 worked example (the 4-round
//!   triangle finder), used by tests and experiment E10.

pub mod accounting;
pub mod arena;
pub mod broadcast;
pub mod checkpoint;
pub mod exec;
pub mod multiplex;
pub mod oracle;
pub mod policy;
pub mod query;
pub mod reference;
pub mod relaxed;
pub mod round;
pub mod router;
pub mod runtime;
pub mod serve;
pub mod sharded;
pub mod triangle_finder;

pub use accounting::ExecReport;
pub use arena::RouterArena;
pub use broadcast::{
    answer_insertion_batch_broadcast, answer_insertion_batch_broadcast_with_opts,
    answer_turnstile_batch_broadcast, answer_turnstile_batch_broadcast_with_opts,
    run_insertion_broadcast, run_insertion_broadcast_on_runtime, run_insertion_broadcast_with_opts,
    run_turnstile_broadcast, run_turnstile_broadcast_on_runtime, run_turnstile_broadcast_with_opts,
    BroadcastOpts, SideSink,
};
pub use checkpoint::{
    run_insertion_checkpointed, run_turnstile_checkpointed, CheckpointSession,
    DEFAULT_CHECKPOINT_CHUNK, DEFAULT_SNAPSHOT_EVERY,
};
pub use exec::PassOpts;
pub use multiplex::{AdmissionReport, MuxJobStats, MuxOutput, MuxRoundStats, QuerySet};
pub use oracle::{ExactOracle, GraphOracle};
pub use policy::{available_memory, host_cores, pin_current_thread, ExecPolicy, ThreadMode};
pub use query::{Answer, Query};
pub use relaxed::RelaxedOracle;
pub use round::{Parallel, RoundAdaptive};
pub use router::{QueryRouter, RouterMode};
pub use runtime::ShardRuntime;
pub use serve::{
    decode_serve_config, encode_serve_config, read_serve_snapshot, ServeConfig, ServeError,
    ServeSnapshot, ServeStats, ServerNode, DEFAULT_SERVE_BLOCK, SERVE_CONFIG_TAG,
};
pub use sgs_stream::l0::L0Mode;
pub use sgs_stream::reservoir::ReservoirMode;
pub use sharded::{
    answer_insertion_batch_sharded, answer_insertion_batch_sharded_with_block,
    answer_insertion_batch_sharded_with_exec, answer_insertion_batch_sharded_with_opts,
    answer_turnstile_batch_sharded, answer_turnstile_batch_sharded_with_block,
    answer_turnstile_batch_sharded_with_exec, run_insertion_sharded,
    run_insertion_sharded_with_block, run_insertion_sharded_with_exec,
    run_insertion_sharded_with_opts, run_turnstile_sharded, run_turnstile_sharded_with_block,
    run_turnstile_sharded_with_exec,
};
