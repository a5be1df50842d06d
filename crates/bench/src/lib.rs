//! # sgs-bench — experiment harness
//!
//! Regenerates every experiment table of the reproduction (E1–E10 in
//! DESIGN.md §4). The paper is a theory paper without an empirical
//! evaluation section, so these tables validate each theorem's
//! quantitative claim empirically; EXPERIMENTS.md records claim vs
//! measurement.
//!
//! Run with:
//!
//! ```sh
//! cargo run -p sgs-bench --release --bin experiments           # full
//! cargo run -p sgs-bench --release --bin experiments -- --quick
//! cargo run -p sgs-bench --release --bin experiments -- e3 e7  # subset
//! ```

pub mod experiments;
pub mod table;

pub use table::Table;

use sgs_query::{
    answer_batch, Answer, Engine, ExecPolicy, PassOpts, Query, RouterArena, RouterMode,
};
use sgs_stream::{EdgeStream, ShardedFeed};

/// One serial pass over `stream` partitioned into one shard, on a fresh
/// arena: the single-stream pass the benches time and hold every other
/// engine and shard count to. Returns the answers and the pass footprint.
pub fn one_shard_pass(
    model: RouterMode,
    batch: &[Query],
    stream: &impl EdgeStream,
    pass_seed: u64,
    opts: PassOpts,
) -> (Vec<Answer>, usize) {
    let feed = ShardedFeed::partition(stream, 1);
    let engine = Engine::Sharded(ExecPolicy::serial());
    answer_batch(
        model,
        batch,
        &feed,
        pass_seed,
        &mut RouterArena::new(),
        opts,
        engine,
    )
}

/// An experiment: id, one-line claim, and a runner producing a table.
pub struct Experiment {
    /// Identifier, e.g. `"e1"`.
    pub id: &'static str,
    /// The paper claim it validates.
    pub claim: &'static str,
    /// Runner; `quick` trades precision for speed.
    pub run: fn(quick: bool) -> Table,
}

/// The experiment registry, in presentation order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e1",
            claim: "Lemma 16: each copy of H is sampled w.p. 1/(2m)^rho(H)",
            run: experiments::e1_sampler_prob::run,
        },
        Experiment {
            id: "e2",
            claim: "Thm 17/1: (1+-eps) estimate, error ~ 1/sqrt(trials)",
            run: experiments::e2_accuracy::run,
        },
        Experiment {
            id: "e3",
            claim: "Lemma 7: l0-sampler uniformity, failure rate, space",
            run: experiments::e3_l0::run,
        },
        Experiment {
            id: "e4",
            claim: "Thm 11/Lemma 18: turnstile sampler unaffected by churn",
            run: experiments::e4_turnstile::run,
        },
        Experiment {
            id: "e5",
            claim: "Thm 9/20: pass complexity (3 for FGP, <=5r for ERS)",
            run: experiments::e5_passes::run,
        },
        Experiment {
            id: "e6",
            claim: "Thm 1: space/trials scale as m^rho(H)/#H",
            run: experiments::e6_space::run,
        },
        Experiment {
            id: "e7",
            claim: "Thm 2: ERS space ~ m*lambda^(r-2)/#Kr on low-degeneracy graphs",
            run: experiments::e7_ers::run,
        },
        Experiment {
            id: "e8",
            claim: "Lemma 4/Def 3: rho closed forms for cliques/cycles/stars/paths",
            run: experiments::e8_rho::run,
        },
        Experiment {
            id: "e9",
            claim: "Sec 1: FGP vs DOULION vs exact — who wins per #H regime",
            run: experiments::e9_baselines::run,
        },
        Experiment {
            id: "e10",
            claim: "Sec 3 example: 4-round triangle finder across executors",
            run: experiments::e10_example::run,
        },
        Experiment {
            id: "e11",
            claim: "Ablation: the 1/f_T acceptance coin (Alg 9 l.15)",
            run: experiments::e11_ablation_ft::run,
        },
        Experiment {
            id: "e12",
            claim: "Ablation: l0-sampler repetitions vs failure rate",
            run: experiments::e12_ablation_l0::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn registry_ids_unique_and_ordered() {
        let reg = super::registry();
        assert_eq!(reg.len(), 12);
        for (i, e) in reg.iter().enumerate() {
            assert_eq!(e.id, format!("e{}", i + 1));
        }
    }
}
