//! Quickstart: count triangles in an edge stream with three passes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use subgraph_streams::prelude::*;

fn main() {
    // A random graph we pretend is too big to store... except we also
    // compute the exact count to show the estimate is close.
    let n = 400;
    let m = 3_000;
    let graph = sgs_graph::gen::gnm(n, m, 42);
    let exact = sgs_graph::exact::triangles::count_triangles(&graph);

    // The stream arrives in arbitrary (here: seeded-shuffled) order.
    let stream = InsertionStream::from_graph(&graph, 7);

    // Pick the trial budget from the paper's formula k ~ (2m)^rho / (eps^2 L),
    // using a rough lower bound on the triangle count.
    let pattern = Pattern::triangle();
    let plan = SamplerPlan::new(&pattern).expect("triangle has an edge cover");
    let epsilon = 0.2;
    let lower_bound = (exact as f64 * 0.5).max(1.0);
    let trials = practical_trials(m, plan.rho(), epsilon, lower_bound).min(400_000);

    println!("graph: n={n}, m={m}, exact #T = {exact}");
    println!(
        "FGP estimator: rho(T) = {}, f_T = {}, trials = {trials}",
        plan.rho(),
        plan.tuple_multiplicity()
    );

    let est = estimate_stream(&pattern, RouterMode::Insertion, &stream, trials, 1)
        .expect("valid pattern");
    let rel = est.relative_error(exact);
    println!(
        "estimate = {:.1}  (hits {}/{} trials, {} passes, {} KiB sketch state)",
        est.estimate,
        est.hits,
        est.trials,
        est.report.passes,
        est.report.total_space_bytes() / 1024,
    );
    println!("relative error = {:.1}%", rel * 100.0);
    assert_eq!(est.report.passes, 3, "Theorem 17: exactly 3 passes");
}
