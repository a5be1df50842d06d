//! E6 — Theorem 1's space scaling: the trial budget needed for fixed
//! relative error grows like `(2m)^ρ(H)/#H`. The workload keeps the
//! triangle count proportional to `n` (a sparse base graph at constant
//! average degree — whose intrinsic `#T ≈ d³/6` is constant — plus `n/2`
//! planted triangles), so the predicted budget is
//! `k ∝ m^{3/2}/#T ∝ m^{1/2}`: the fitted log-log slope should be ≈ 0.5.

use crate::table::{f, Table};
use sgs_core::fgp::{estimate_stream, practical_trials};
use sgs_graph::{exact, gen, Pattern, Rho, StaticGraph};
use sgs_query::RouterMode;
use sgs_stream::InsertionStream;

pub fn run(quick: bool) -> Table {
    let mut t = Table::new(
        "E6 — trial/space scaling with m (triangle; #T ~ n by planting)",
        &[
            "n",
            "m",
            "#T",
            "k for eps=0.2",
            "(2m)^1.5/#T",
            "measured err",
            "sketch KiB",
        ],
    );
    let sizes: &[usize] = if quick {
        &[300, 600, 1200]
    } else {
        &[300, 600, 1200, 2400]
    };
    let rho = Rho::from_halves(3);
    let mut log_m = Vec::new();
    let mut log_k = Vec::new();
    let mut log_t = Vec::new();
    for &n in sizes {
        let base = gen::gnm(n, 6 * n, 51);
        // Plant enough triangles that they dominate the base graph's
        // intrinsic ~d^3/6 (constant) triangle count.
        let g = gen::plant_pattern(&base, &Pattern::triangle(), 2 * n, 52);
        let m = g.num_edges();
        let exact_t = exact::triangles::count_triangles(&g).max(1);
        let k = practical_trials(m, rho, 0.2, exact_t as f64);
        let stream = InsertionStream::from_graph(&g, 53);
        let est =
            estimate_stream(&Pattern::triangle(), RouterMode::Insertion, &stream, k, 54).unwrap();
        let theory = (2.0 * m as f64).powf(1.5) / exact_t as f64;
        t.row(vec![
            n.to_string(),
            m.to_string(),
            exact_t.to_string(),
            k.to_string(),
            f(theory),
            f(est.relative_error(exact_t)),
            (est.report.total_space_bytes() / 1024).to_string(),
        ]);
        log_m.push((m as f64).ln());
        log_k.push((k as f64).ln());
        log_t.push((exact_t as f64).ln());
    }
    // Least-squares slope of ln k vs ln m.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mx, my) = (mean(&log_m), mean(&log_k));
    let var_m: f64 = log_m.iter().map(|x| (x - mx) * (x - mx)).sum();
    let slope = log_m
        .iter()
        .zip(&log_k)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>()
        / var_m;
    // k = c*(2m)^1.5/#T, so slope(k) must equal 1.5 - slope(#T).
    let mt = mean(&log_t);
    let slope_t = log_m
        .iter()
        .zip(&log_t)
        .map(|(x, y)| (x - mx) * (y - mt))
        .sum::<f64>()
        / var_m;
    t.note(format!(
        "fitted d(ln k)/d(ln m) = {slope:.2}; prediction 1.5 - d(ln #T)/d(ln m) \
         = 1.5 - {slope_t:.2} = {:.2}.",
        1.5 - slope_t
    ));
    t.note("claim: trials track (2m)^rho/#T, errors stay near the eps target.");
    t
}
