//! The production trial bank against the one-trial oracle.
//!
//! Every estimate runs its `k` trials in one [`TrialBank`]; the
//! [`SubgraphSampler`] is the one-trial oracle it must reproduce. Run in
//! [`Parallel`], `k` samplers seeded `split_seed(seed, i)` must give,
//! trial for trial, the outcome the bank gives, for every zoo pattern
//! (plus the cycle, star and clique families), for the indexed and
//! relaxed samplers in the insertion model and the relaxed sampler in
//! the turnstile model, on an exact oracle and on sharded streams.
//!
//! The bank asks no round-3 queries for an indexed trial whose wedge
//! answer is missing; these tests also check that every such trial is a
//! miss in the oracle run, that a run where every trial is dropped ends
//! after two passes with the oracle's estimate, and that the bank's
//! state stays within a constant number of bytes per plan word.

use sgs_core::fgp::{estimate, MultiQuerySpec, SamplerOutcome, TrialBank};
use sgs_core::{SamplerMode, SamplerPlan, SubgraphSampler};
use sgs_graph::{gen, zoo, AdjListGraph, Pattern};
use sgs_query::exec::run_on_oracle;
use sgs_query::{
    Answer, Engine, ExactOracle, ExecPolicy, ExecReport, Parallel, PassOpts, Query, QuerySet,
    RoundAdaptive, RouterArena, RouterMode,
};
use sgs_stream::hash::split_seed;
use sgs_stream::{InsertionStream, ShardedFeed, TurnstileStream};
use std::sync::Arc;

const SEEDS: [u64; 3] = [3, 17, 40];
const TRIALS: [usize; 3] = [1, 7, 500];
const SHARDS: [usize; 2] = [1, 3];

/// Heap bytes the bank's state may hold per plan word per trial. Each
/// round-1 edge is held once oriented (one word) and again as up to two
/// `V'` vertices (one word); the coin generator and the wedge answers
/// are one word per word, and the live lists add a few 32-bit indices.
const STATE_BYTES_PER_WORD: usize = 16;

/// Zoo patterns whose samples can break the `|C(S)| ≤ f_T` acceptance
/// bound that `postprocess` checks with a `debug_assert!` (the parent's
/// sampler trips it the same way): a sampled triangle plus an edge can
/// extend to more copies than `f_T` counts. Debug builds panic on them
/// in the oracle and the bank alike, so they are swept only where debug
/// assertions are off (the release CI step), and must agree there.
const OVER_F_T: [&str; 2] = ["house", "tadpole3+2"];

fn patterns() -> Vec<Pattern> {
    let mut ps: Vec<Pattern> = zoo::all_zoo()
        .into_iter()
        .filter(|p| !(cfg!(debug_assertions) && OVER_F_T.contains(&p.name())))
        .collect();
    ps.extend([
        Pattern::triangle(),
        Pattern::cycle(5),
        Pattern::star(3),
        Pattern::clique(4),
    ]);
    ps
}

/// A graph with both light and heavy vertices (hubs above `√(2m)`), so
/// both wedge cases run.
fn hub_graph(seed: u64) -> AdjListGraph {
    gen::zipf_hub(30, 110, 1.0, seed)
}

/// What a bank run leaves besides its outcomes.
struct Seen {
    outcomes: Vec<SamplerOutcome>,
    skipped: Vec<usize>,
    state_bytes: usize,
}

/// The bank, read after its last round.
struct Observed(TrialBank);

impl RoundAdaptive for Observed {
    type Output = Seen;

    fn next_round(&mut self, answers: &[Answer]) -> Vec<Query> {
        self.0.next_round(answers)
    }

    fn output(&mut self) -> Seen {
        Seen {
            skipped: self.0.skipped_round3(),
            state_bytes: self.0.state_bytes(),
            outcomes: self.0.output(),
        }
    }
}

fn oracle_bank(
    plan: &Arc<SamplerPlan>,
    mode: SamplerMode,
    trials: usize,
    seed: u64,
) -> Parallel<SubgraphSampler> {
    Parallel::new(
        (0..trials)
            .map(|i| SubgraphSampler::new(plan.clone(), mode, split_seed(seed, i as u64)))
            .collect(),
    )
}

fn bank(plan: &Arc<SamplerPlan>, mode: SamplerMode, trials: usize, seed: u64) -> Observed {
    Observed(TrialBank::new(plan, mode, trials, seed))
}

/// One bank run against its oracle run.
fn check(
    ctx: &str,
    plan: &SamplerPlan,
    mode: SamplerMode,
    (got, got_rep): (Seen, ExecReport),
    (want, want_rep): (Vec<SamplerOutcome>, ExecReport),
) {
    assert_eq!(got.outcomes, want, "{ctx}: outcomes differ");
    if mode == SamplerMode::Relaxed {
        assert!(got.skipped.is_empty(), "{ctx}: a relaxed trial was dropped");
    }
    for &i in &got.skipped {
        assert!(want[i].copy.is_none(), "{ctx}: dropped trial {i} hits");
    }
    // Only round-3 queries of dropped trials may go.
    assert!(got_rep.queries <= want_rep.queries, "{ctx}");
    if got.skipped.is_empty() {
        assert_eq!(got_rep.queries, want_rep.queries, "{ctx}");
    }
    if got_rep.passes != want_rep.passes {
        assert!(
            got_rep.passes == 2 && want_rep.passes == 3 && !got.skipped.is_empty(),
            "{ctx}: {} passes against the oracle's {}",
            got_rep.passes,
            want_rep.passes
        );
    }
    let bound = STATE_BYTES_PER_WORD * plan.trial_words() * want.len();
    assert!(
        got.state_bytes <= bound,
        "{ctx}: {} state bytes over {} trials, bound {bound}",
        got.state_bytes,
        want.len()
    );
}

/// A one-job run on the sharded engine.
fn run_feed<A: RoundAdaptive>(
    model: RouterMode,
    alg: A,
    feed: &ShardedFeed,
    seed: u64,
) -> (A::Output, ExecReport) {
    let opts = PassOpts::default();
    QuerySet::solo(alg, seed, opts.reservoir)
        .run(
            model,
            feed,
            &mut RouterArena::new(),
            opts,
            Engine::Sharded(ExecPolicy::default()),
        )
        .into_solo()
}

#[test]
fn bank_matches_the_oracle_samplers_on_an_exact_oracle() {
    let g = hub_graph(11);
    for pattern in patterns() {
        let plan = SamplerPlan::new(&pattern).expect("zoo patterns have plans");
        for mode in [SamplerMode::Indexed, SamplerMode::Relaxed] {
            for seed in SEEDS {
                for trials in TRIALS {
                    let ctx = format!("{pattern:?} {mode:?} oracle seed {seed} trials {trials}");
                    let got = run_on_oracle(
                        bank(&plan, mode, trials, seed),
                        &mut ExactOracle::new(&g, seed),
                    );
                    let want = run_on_oracle(
                        oracle_bank(&plan, mode, trials, seed),
                        &mut ExactOracle::new(&g, seed),
                    );
                    check(&ctx, &plan, mode, got, want);
                }
            }
        }
    }
}

#[test]
fn bank_matches_the_oracle_samplers_on_sharded_insertion_streams() {
    let g = hub_graph(12);
    let ins = InsertionStream::from_graph(&g, 13);
    for shards in SHARDS {
        let feed = ShardedFeed::partition(&ins, shards);
        for pattern in patterns() {
            let plan = SamplerPlan::new(&pattern).expect("zoo patterns have plans");
            for mode in [SamplerMode::Indexed, SamplerMode::Relaxed] {
                for seed in SEEDS {
                    for trials in TRIALS {
                        let ctx = format!(
                            "{pattern:?} {mode:?} {shards} shards seed {seed} trials {trials}"
                        );
                        let model = RouterMode::Insertion;
                        let got = run_feed(model, bank(&plan, mode, trials, seed), &feed, seed);
                        let want =
                            run_feed(model, oracle_bank(&plan, mode, trials, seed), &feed, seed);
                        check(&ctx, &plan, mode, got, want);
                    }
                }
            }
        }
    }
}

#[test]
fn bank_matches_the_oracle_samplers_on_sharded_turnstile_streams() {
    let g = gen::zipf_hub(18, 45, 1.0, 14);
    let tst = TurnstileStream::from_graph_with_churn(&g, 0.5, 15);
    let mode = SamplerMode::Relaxed;
    for shards in SHARDS {
        let feed = ShardedFeed::partition(&tst, shards);
        for pattern in patterns() {
            let plan = SamplerPlan::new(&pattern).expect("zoo patterns have plans");
            for seed in SEEDS {
                for trials in TRIALS {
                    let ctx = format!(
                        "{pattern:?} turnstile {shards} shards seed {seed} trials {trials}"
                    );
                    let model = RouterMode::Turnstile;
                    let got = run_feed(model, bank(&plan, mode, trials, seed), &feed, seed);
                    let want = run_feed(model, oracle_bank(&plan, mode, trials, seed), &feed, seed);
                    check(&ctx, &plan, mode, got, want);
                }
            }
        }
    }
}

/// On a perfect matching every vertex has degree 1, so an indexed wedge
/// query `IthNeighbor(u1, j)` answers only when `j = 1`, which a trial
/// draws with probability `1/⌊√(2m)⌋`-ish. With few trials on a large
/// matching, no trial that reaches round 2 gets an answer: the bank asks
/// no round 3 and stops after two passes, with the oracle's estimate.
#[test]
fn a_run_whose_indexed_trials_are_all_dropped_ends_after_two_passes() {
    let pairs = 20_000u32;
    let mut g = AdjListGraph::new(2 * pairs as usize);
    for i in 0..pairs {
        g.add_edge(sgs_graph::Edge::from((2 * i, 2 * i + 1)));
    }
    let ins = InsertionStream::from_graph(&g, 21);
    let (trials, seed) = (7, 5);
    let plan = SamplerPlan::new(&Pattern::triangle()).unwrap();
    for shards in SHARDS {
        let feed = ShardedFeed::partition(&ins, shards);
        let ctx = format!("matching, {shards} shards");
        let model = RouterMode::Insertion;
        let mode = SamplerMode::Indexed;
        let (got, got_rep) = run_feed(model, bank(&plan, mode, trials, seed), &feed, seed);
        let (want, want_rep) = run_feed(model, oracle_bank(&plan, mode, trials, seed), &feed, seed);
        assert_eq!(got.skipped.len(), trials, "{ctx}: every trial is dropped");
        assert_eq!(got_rep.passes, 2, "{ctx}");
        assert_eq!(want_rep.passes, 3, "{ctx}");
        check(&ctx, &plan, mode, (got, got_rep), (want.clone(), want_rep));

        // The production estimate reads the same: no hit, two passes, and
        // the oracle's estimate bits.
        let spec = MultiQuerySpec::new(Pattern::triangle(), trials, seed);
        let (ests, _) = estimate(
            &[spec],
            model,
            &feed,
            &mut RouterArena::new(),
            PassOpts::default(),
            Engine::Sharded(ExecPolicy::default()),
        )
        .expect("the triangle has a plan");
        let hits = want.iter().filter(|o| o.copy.is_some()).count() as f64;
        let m = want.iter().map(|o| o.m).max().unwrap_or(0);
        let oracle_estimate = plan.rho().pow(2.0 * m as f64) * hits / trials as f64;
        assert_eq!(
            ests[0].estimate.to_bits(),
            oracle_estimate.to_bits(),
            "{ctx}"
        );
        assert_eq!((ests[0].hits, ests[0].report.passes), (0, 2), "{ctx}");
    }
}
