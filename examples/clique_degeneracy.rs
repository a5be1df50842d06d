//! Clique counting in low-degeneracy graphs (Theorem 2).
//!
//! Real-world graphs — planar graphs, preferential-attachment networks —
//! have small degeneracy λ, and the ERS streaming algorithm counts
//! `#K_r` with `m·λ^{r-2}/#K_r`-type space in `≤ 5r` passes, beating the
//! worst-case `m^{r/2}/#K_r` bound the FGP estimator pays on the same
//! input. This example runs both on a preferential-attachment graph.
//!
//! ```sh
//! cargo run --release --example clique_degeneracy
//! ```

use subgraph_streams::prelude::*;

fn main() {
    let n = 800;
    let graph = sgs_graph::gen::barabasi_albert(n, 6, 77);
    let m = graph.num_edges();
    let lambda = sgs_graph::degeneracy::degeneracy(&graph);
    println!("preferential-attachment graph: n={n}, m={m}, degeneracy λ={lambda}\n");

    let stream = InsertionStream::from_graph(&graph, 78);

    for r in [3usize, 4] {
        let exact = sgs_graph::exact::cliques::count_cliques(&graph, r);
        println!("#K{r}: exact = {exact}");

        // ERS (Theorem 2): space ~ m·λ^{r-2}/#K_r.
        let params = ErsParams::practical(r, lambda, 0.3, (exact as f64 * 0.5).max(1.0));
        let ers = count_cliques_insertion(&params, &stream, 7, 80 + r as u64);
        println!(
            "  ERS : estimate {:>9.1}  ({} passes <= 5r={}, max level sample {} cliques)",
            ers.estimate,
            ers.report.passes,
            5 * r,
            ers.max_sample_size(),
        );

        // FGP (Theorem 1): trials ~ (2m)^{r/2}/#K_r — fine for r=3,
        // painful for r=4 on the same budget.
        let pattern = Pattern::clique(r);
        let plan = SamplerPlan::new(&pattern).unwrap();
        let trials =
            practical_trials(m, plan.rho(), 0.3, (exact as f64).max(1.0)).clamp(10_000, 250_000);
        let fgp = estimate_stream(
            &pattern,
            RouterMode::Insertion,
            &stream,
            trials,
            90 + r as u64,
        )
        .unwrap();
        println!(
            "  FGP : estimate {:>9.1}  ({} passes, {} trials needed at rho={})",
            fgp.estimate,
            fgp.report.passes,
            fgp.trials,
            plan.rho(),
        );
        println!();
    }

    println!("On low-degeneracy graphs ERS wins for r >= 4: its sample sizes");
    println!("grow like m·λ^(r-2)/#K_r while FGP's trial budget grows like m^(r/2)/#K_r.");
}
