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
//!   ([`sharded::PassMachine`]), the one split → machines → merge step
//!   every engine runs, over a hash-partitioned
//!   [`sgs_stream::ShardedFeed`] and merged back into byte-identical
//!   single-stream answers, and the pass call [`answer_batch`], which
//!   takes the stream model ([`RouterMode`]) and the [`Engine`] as
//!   arguments,
//! * [`broadcast`] — broadcast ingest: the same shard machines drawing
//!   from the cursors of one bounded [`sgs_stream::Broadcast`] ring (one
//!   scoped ring driver, [`Engine::Ring`]), with side consumers
//!   (baselines, exact oracles, pass counters) riding the same single
//!   ingest,
//! * [`runtime`] — the [`runtime::ShardRuntime`]: persistent, optionally
//!   pinned shard workers that run the same machines pass after pass
//!   ([`Engine::Runtime`]),
//! * [`multiplex`] — multi-query serving: a [`multiplex::QuerySet`]
//!   admission-batches many concurrent round-adaptive jobs and serves
//!   every round with ONE shared pass on the given engine
//!   ([`QuerySet::run`]), each job's answers byte-identical to its solo
//!   run; a solo run is the one-job set,
//! * [`checkpoint`] — durable executor state: a write-ahead log of the
//!   routed stream plus block-boundary snapshots of the shard machines'
//!   mid-pass state, with byte-identical crash recovery
//!   ([`run_checkpointed`]),
//! * [`serve`] — the [`serve::ServerNode`] behind `sgs serve`: WAL-backed
//!   ingest, snapshots and a persistent worker pool,
//! * [`exec`] — the feed options ([`PassOpts`]) and the two whole-run
//!   conveniences: [`exec::run_on_oracle`] (query access) and
//!   [`run_on_stream`] (a stream in either model, over one shard),
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
pub use broadcast::{BroadcastOpts, SideSink};
pub use checkpoint::{
    run_checkpointed, CheckpointSession, DEFAULT_CHECKPOINT_CHUNK, DEFAULT_SNAPSHOT_EVERY,
};
pub use exec::{run_on_stream, PassOpts};
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
pub use sharded::{answer_batch, Engine};
