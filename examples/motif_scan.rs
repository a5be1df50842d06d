//! Motif scanning: estimate several small-pattern counts on one graph.
//!
//! The paper's introduction cites motif detection in biological networks
//! [GK07]: over/under-represented small subgraphs hint at function. This
//! example estimates a panel of motifs — triangle, 4-cycle, 5-cycle,
//! 3-star, K4 — on a planted-motif workload, and prints the `ρ(H)` and
//! decomposition the sampler derived for each.
//!
//! ```sh
//! cargo run --release --example motif_scan
//! ```

use subgraph_streams::prelude::*;

fn main() {
    // A sparse "interaction network" with extra planted motifs.
    let base = sgs_graph::gen::gnm(120, 360, 5);
    let with_c5 = sgs_graph::gen::plant_pattern(&base, &Pattern::cycle(5), 30, 6);
    let graph = sgs_graph::gen::plant_pattern(&with_c5, &Pattern::clique(4), 40, 7);
    let m = graph.num_edges();
    println!("interaction network: n={}, m={m}\n", graph.num_vertices());
    println!(
        "{:<10} {:>6} {:>5} {:>12} {:>12} {:>8} {:>7}",
        "motif", "rho", "f_T", "exact", "estimate", "err%", "passes"
    );

    let motifs = [
        Pattern::triangle(),
        Pattern::cycle(4),
        Pattern::cycle(5),
        Pattern::star(3),
        Pattern::clique(4),
    ];
    let stream = InsertionStream::from_graph(&graph, 11);

    for (i, motif) in motifs.iter().enumerate() {
        let plan = SamplerPlan::new(motif).expect("all motifs coverable");
        let exact = sgs_graph::exact::count_pattern_auto(&graph, motif);
        // Budget: the paper's k ~ (2m)^rho/(eps^2 #H), capped for the demo.
        let trials =
            practical_trials(m, plan.rho(), 0.25, (exact as f64).max(1.0)).clamp(20_000, 600_000);
        let est = estimate_stream(
            motif,
            RouterMode::Insertion,
            &stream,
            trials,
            100 + i as u64,
        )
        .unwrap();
        let err = if exact > 0 {
            est.relative_error(exact) * 100.0
        } else {
            0.0
        };
        println!(
            "{:<10} {:>6} {:>5} {:>12} {:>12.0} {:>7.1}% {:>7}",
            motif.name(),
            plan.rho().to_string(),
            plan.tuple_multiplicity(),
            exact,
            est.estimate,
            err,
            est.report.passes
        );
    }

    println!("\nNote: rarer motifs need more trials at equal error — exactly");
    println!("the (2m)^rho/#H dependence of Theorem 1.");
}
