//! Exact-counter validation on the Petersen graph, whose small-subgraph
//! census is known in closed form — a strong cross-check that the exact
//! ground truth used by every experiment is itself correct.

use sgs_graph::{exact, gen, zoo, Pattern, StaticGraph};

#[test]
fn petersen_basic_facts() {
    let g = gen::petersen();
    assert_eq!(g.num_vertices(), 10);
    assert_eq!(g.num_edges(), 15);
    for v in g.vertices() {
        assert_eq!(g.degree(v), 3, "Petersen is cubic");
    }
    assert_eq!(sgs_graph::degeneracy::degeneracy(&g), 3);
}

#[test]
fn petersen_cycle_census() {
    let g = gen::petersen();
    assert_eq!(exact::cycles::count_cycles(&g, 3), 0, "girth 5");
    assert_eq!(exact::cycles::count_cycles(&g, 4), 0, "girth 5");
    assert_eq!(exact::cycles::count_cycles(&g, 5), 12);
    assert_eq!(exact::cycles::count_cycles(&g, 6), 10);
    assert_eq!(exact::cycles::count_cycles(&g, 8), 15);
    // No Hamiltonian cycle, famously.
    assert_eq!(exact::cycles::count_cycles(&g, 10), 0);
}

#[test]
fn petersen_star_and_path_census() {
    let g = gen::petersen();
    // 3-regular: wedges = 10 * C(3,2) = 30; claws = 10 * C(3,3) = 10.
    assert_eq!(exact::stars::count_wedges(&g), 30);
    assert_eq!(exact::stars::count_stars(&g, 3), 10);
    // P2 copies = wedges; P3 = via generic counter vs formula:
    // paths of length 3 = sum over edges (d(u)-1)(d(v)-1) - 3*#T = 15*4 = 60.
    assert_eq!(exact::generic::count_pattern(&g, &Pattern::path(3)), 60);
}

#[test]
fn petersen_zoo_patterns_absent() {
    let g = gen::petersen();
    // Everything containing a triangle or C4 is absent.
    for p in [
        zoo::paw(),
        zoo::diamond(),
        zoo::bull(),
        zoo::bowtie(),
        zoo::house(),
    ] {
        assert_eq!(
            exact::generic::count_pattern(&g, &p),
            0,
            "{p:?} requires a 3- or 4-cycle"
        );
    }
    assert_eq!(exact::cliques::count_cliques(&g, 4), 0);
}

#[test]
fn fgp_estimates_match_petersen_census() {
    use sgs_query::RouterMode;
    use sgs_stream::InsertionStream;
    let g = gen::petersen();
    let stream = InsertionStream::from_graph(&g, 1);
    // No triangles: estimator must report 0.
    let t = sgs_core::fgp::estimate_stream(
        &Pattern::triangle(),
        RouterMode::Insertion,
        &stream,
        3_000,
        2,
    )
    .unwrap();
    assert_eq!(t.hits, 0);
    // Twelve 5-cycles: (2m)^2.5 = 30^2.5 ~ 4930, hit rate 12/4930.
    let c5 = sgs_core::fgp::estimate_stream(
        &Pattern::cycle(5),
        RouterMode::Insertion,
        &stream,
        60_000,
        3,
    )
    .unwrap();
    let rel = c5.relative_error(12);
    assert!(rel < 0.3, "C5 estimate {} vs 12", c5.estimate);
}
