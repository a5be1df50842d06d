//! E10 — the paper's §3 worked example: the 4-round adaptive triangle
//! finder, executed (a) against the query oracle, (b) as a 4-pass
//! insertion-only stream algorithm (Theorem 9), (c) as a 4-pass
//! turnstile algorithm (Theorem 11). The success probabilities must
//! coincide — that is the "same output distribution" guarantee.

use crate::table::{pct, Table};
use sgs_graph::{exact, gen, StaticGraph};
use sgs_query::exec::{run_on_oracle, run_on_stream};
use sgs_query::triangle_finder::{NeighborMode, TriangleFinder};
use sgs_query::ExactOracle;
use sgs_query::RouterMode;
use sgs_stream::hash::split_seed;
use sgs_stream::{InsertionStream, TurnstileStream};

pub fn run(quick: bool) -> Table {
    let trials: u64 = if quick { 3_000 } else { 12_000 };
    let g = gen::gnm(40, 220, 81);
    let m = g.num_edges();
    let exact_t = exact::triangles::count_triangles(&g);
    let ins = InsertionStream::from_graph(&g, 82);
    let tst = TurnstileStream::from_graph_with_churn(&g, 1.0, 83);

    let mut t = Table::new(
        format!("E10 — 4-round triangle finder (m={m}, #T={exact_t})"),
        &[
            "executor",
            "success rate",
            "rounds",
            "passes",
            "queries/run",
        ],
    );

    let mut oracle_hits = 0u64;
    let mut rounds = 0;
    let mut queries = 0;
    for s in 0..trials {
        let mut o = ExactOracle::new(&g, split_seed(0xa10, s));
        let (out, rep) = run_on_oracle(
            TriangleFinder::new(split_seed(0xb10, s), NeighborMode::Indexed),
            &mut o,
        );
        if out.is_some() {
            oracle_hits += 1;
        }
        rounds = rep.rounds;
        queries = rep.queries;
    }
    t.row(vec![
        "oracle (query model)".into(),
        pct(oracle_hits as f64 / trials as f64),
        rounds.to_string(),
        "0".into(),
        queries.to_string(),
    ]);

    let mut ins_hits = 0u64;
    let mut passes = 0;
    for s in 0..trials {
        let (out, rep) = run_on_stream(
            RouterMode::Insertion,
            TriangleFinder::new(split_seed(0xb10, s), NeighborMode::Indexed),
            &ins,
            split_seed(0xc10, s),
        );
        if out.is_some() {
            ins_hits += 1;
        }
        passes = rep.passes;
    }
    t.row(vec![
        "insertion stream (Thm 9)".into(),
        pct(ins_hits as f64 / trials as f64),
        "4".into(),
        passes.to_string(),
        queries.to_string(),
    ]);

    let mut tst_hits = 0u64;
    for s in 0..trials {
        let (out, rep) = run_on_stream(
            RouterMode::Turnstile,
            TriangleFinder::new(split_seed(0xb10, s), NeighborMode::Relaxed),
            &tst,
            split_seed(0xd10, s),
        );
        if out.is_some() {
            tst_hits += 1;
        }
        passes = rep.passes;
    }
    t.row(vec![
        "turnstile stream (Thm 11)".into(),
        pct(tst_hits as f64 / trials as f64),
        "4".into(),
        passes.to_string(),
        queries.to_string(),
    ]);

    t.note("claim: the three success rates agree within sampling noise, with");
    t.note("4 rounds = 4 passes and 5 queries per run (1+2+1+1).");
    t
}
