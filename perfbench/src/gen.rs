//! The benchmark's own seeded input generators and exact oracle.
//!
//! Inputs are generated here rather than with `sgs_graph::gen`, so no
//! change to the program can change what the benchmark feeds it. The
//! triangle oracle is likewise independent of the estimator and of
//! `sgs_graph::exact`.

use std::collections::HashSet;

/// SplitMix64: small, seedable, and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005e_ed0f_be9c_5b17)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn key(u: u32, v: u32) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

/// Draw endpoint pairs until `m` distinct non-loop edges exist, in draw
/// order (the order they are written and ingested).
fn distinct_edges(m: usize, mut draw: impl FnMut() -> (u32, u32)) -> Vec<(u32, u32)> {
    let mut seen = HashSet::with_capacity(m * 2);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let (u, v) = draw();
        if u != v && seen.insert(key(u, v)) {
            edges.push((u, v));
        }
    }
    edges
}

/// G(n, m): `m` distinct edges chosen uniformly.
pub fn gnm(n: u32, m: usize, rng: &mut Rng) -> Vec<(u32, u32)> {
    assert!(
        (m as u64) <= n as u64 * (n as u64 - 1) / 2 / 2,
        "gnm too dense"
    );
    distinct_edges(m, || {
        (rng.below(n as u64) as u32, rng.below(n as u64) as u32)
    })
}

/// Chung–Lu power-law graph with exactly `m` distinct edges: endpoints
/// are drawn independently with probability proportional to
/// `w_i = (i + offset)^(-1/(gamma-1))`, so degrees follow a power law
/// with exponent `gamma`. The offset caps the top expected degree near
/// `max_degree`.
pub fn chung_lu(n: u32, m: usize, gamma: f64, max_degree: f64, rng: &mut Rng) -> Vec<(u32, u32)> {
    let alpha = 1.0 / (gamma - 1.0);
    let weights =
        |offset: f64| -> Vec<f64> { (0..n).map(|i| (i as f64 + offset).powf(-alpha)).collect() };
    // Bisect the offset so the heaviest vertex's expected degree
    // 2m * w_0 / sum(w) lands on `max_degree`.
    let top = |offset: f64| {
        let w = weights(offset);
        2.0 * m as f64 * w[0] / w.iter().sum::<f64>()
    };
    let (mut lo, mut hi) = (0.0f64, n as f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if top(mid) > max_degree {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let w = weights(hi);
    let mut cdf = Vec::with_capacity(w.len());
    let mut acc = 0.0;
    for x in &w {
        acc += x;
        cdf.push(acc);
    }
    let total = acc;
    let mut pick = move || {
        let r = rng.unit() * total;
        cdf.partition_point(|&c| c <= r).min(n as usize - 1) as u32
    };
    distinct_edges(m, || (pick(), pick()))
}

/// Exact triangle count: orient each edge from lower to higher
/// (degree, id) rank and intersect out-neighborhoods with a marker.
pub fn triangles(n: usize, edges: &[(u32, u32)]) -> u64 {
    let mut deg = vec![0u32; n];
    for &(u, v) in edges {
        deg[u as usize] += 1;
        deg[v as usize] += 1;
    }
    let rank = |x: u32| (deg[x as usize], x);
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(u, v) in edges {
        if rank(u) < rank(v) {
            out[u as usize].push(v);
        } else {
            out[v as usize].push(u);
        }
    }
    let mut mark = vec![u32::MAX; n];
    let mut count = 0u64;
    for u in 0..n {
        for &v in &out[u] {
            mark[v as usize] = u as u32;
        }
        for &v in &out[u] {
            for &w in &out[v as usize] {
                if mark[w as usize] == u as u32 {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Render an edge list in the `u v` per-line format `sgs` reads.
pub fn edge_list_text(edges: &[(u32, u32)]) -> String {
    let mut s = String::with_capacity(edges.len() * 14);
    for &(u, v) in edges {
        s.push_str(&u.to_string());
        s.push(' ');
        s.push_str(&v.to_string());
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seeded_and_simple() {
        let a = gnm(50, 300, &mut Rng::new(3));
        assert_eq!(a, gnm(50, 300, &mut Rng::new(3)));
        assert_ne!(a, gnm(50, 300, &mut Rng::new(4)));
        let c = chung_lu(500, 2000, 2.3, 100.0, &mut Rng::new(5));
        let keys: HashSet<u64> = c.iter().map(|&(u, v)| key(u, v)).collect();
        assert_eq!(keys.len(), 2000);
        assert!(c.iter().all(|&(u, v)| u != v && u < 500 && v < 500));
    }

    #[test]
    fn triangle_oracle_counts_cliques() {
        // K5 has C(5,3) = 10 triangles.
        let k5: Vec<(u32, u32)> = (0..5u32)
            .flat_map(|a| (a + 1..5).map(move |b| (a, b)))
            .collect();
        assert_eq!(triangles(5, &k5), 10);
    }
}
