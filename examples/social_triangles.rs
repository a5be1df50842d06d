//! Estimating the transitivity of a social network from a stream.
//!
//! The paper's introduction motivates subgraph counting with the
//! transitivity / clustering coefficient of social networks:
//! `transitivity = 3·#triangles / #wedges`. Social graphs are well
//! modeled by preferential attachment (and have small degeneracy, which
//! §5 exploits). This example estimates both counts from the same
//! 3-pass run — the two estimators run as one parallel batch, sharing
//! every pass.
//!
//! ```sh
//! cargo run --release --example social_triangles
//! ```

use subgraph_streams::prelude::*;

fn main() {
    let n = 2_000;
    let graph = sgs_graph::gen::barabasi_albert(n, 5, 123);
    let m = graph.num_edges();
    let exact_t = sgs_graph::exact::triangles::count_triangles(&graph);
    let exact_w = sgs_graph::exact::stars::count_wedges(&graph);
    let exact_transitivity = 3.0 * exact_t as f64 / exact_w as f64;

    println!("synthetic social network: n={n}, m={m} (BA, k=5)");
    println!("exact: #T={exact_t}, #wedges={exact_w}, transitivity={exact_transitivity:.4}");

    let stream = InsertionStream::from_graph(&graph, 99);

    let tri = estimate_stream(
        &Pattern::triangle(),
        RouterMode::Insertion,
        &stream,
        150_000,
        1,
    )
    .unwrap();
    let wed =
        estimate_stream(&Pattern::star(2), RouterMode::Insertion, &stream, 60_000, 2).unwrap();

    let transitivity = 3.0 * tri.estimate / wed.estimate.max(1.0);
    println!(
        "streamed: #T~{:.0} ({} passes), #wedges~{:.0} ({} passes)",
        tri.estimate, tri.report.passes, wed.estimate, wed.report.passes
    );
    println!(
        "streamed transitivity ~ {transitivity:.4}  (error {:.1}%)",
        (transitivity - exact_transitivity).abs() / exact_transitivity * 100.0
    );
    println!(
        "sketch state: {} KiB vs {} KiB to store the whole graph",
        (tri.report.total_space_bytes() + wed.report.total_space_bytes()) / 1024,
        m * 8 / 1024
    );
}
