//! Random-graph generators.
//!
//! These serve two purposes in the reproduction:
//!
//! * **Baselines / sanity models** — Erdős–Rényi graphs are the model in which Nissim et al.
//!   analyse the smooth sensitivity of the triangle count, so the ablation experiments compare
//!   the SKG behaviour against `G(n, p)`.
//! * **Dataset stand-ins** — the SNAP datasets used in the paper are not redistributable inside
//!   this repository, so `kronpriv-datasets` composes these generators (mainly the
//!   preferential-attachment and Chung–Lu models, which produce the heavy-tailed degree
//!   distributions the paper's networks have) with the SKG sampler to build statistically
//!   similar substitutes. The substitution rationale lives in `DESIGN.md`.

use crate::graph::{Graph, GraphBuilder};
use rand::seq::SliceRandom;
use rand::Rng;

/// Samples an Erdős–Rényi graph `G(n, p)`: every unordered pair becomes an edge independently
/// with probability `p`.
///
/// # Panics
/// Panics if `p` is not in `[0, 1]`.
pub fn erdos_renyi_gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    let mut builder = GraphBuilder::new(n);
    if p > 0.0 {
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen::<f64>() < p {
                    builder.add_edge(u, v);
                }
            }
        }
    }
    builder.build()
}

/// Samples an Erdős–Rényi graph `G(n, m)` with exactly `m` distinct edges chosen uniformly at
/// random (or all possible edges if `m` exceeds `C(n, 2)`).
pub fn erdos_renyi_gnm<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    let max_edges = n * n.saturating_sub(1) / 2;
    let m = m.min(max_edges);
    // Rejection sampling without an attempt cap: draw node pairs until `m` are distinct. The
    // first `m` draws can never overshoot, so they are made up front as the bulk round.
    let mut draw = || (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
    let bulk = (0..m).map(|_| draw()).collect();
    Graph::from_distinct_draws(n, m, usize::MAX, bulk, draw)
}

/// Samples a Barabási–Albert style preferential-attachment graph: nodes arrive one at a time and
/// attach `edges_per_node` edges to existing nodes chosen with probability proportional to their
/// current degree. Produces the heavy-tailed degree distributions typical of the co-authorship
/// and autonomous-system networks in the paper's evaluation.
///
/// # Panics
/// Panics if `edges_per_node == 0` or `n < 2`.
pub fn preferential_attachment<R: Rng + ?Sized>(
    n: usize,
    edges_per_node: usize,
    rng: &mut R,
) -> Graph {
    assert!(edges_per_node > 0, "edges_per_node must be positive");
    assert!(n >= 2, "need at least two nodes");
    let mut builder = GraphBuilder::new(n);
    // Repeated-endpoint list: node u appears once per incident edge endpoint, which makes
    // degree-proportional sampling a uniform draw from the list.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * edges_per_node);
    builder.add_edge(0, 1);
    endpoints.push(0);
    endpoints.push(1);
    for u in 2..n as u32 {
        let attach = edges_per_node.min(u as usize);
        let mut chosen: Vec<u32> = Vec::with_capacity(attach);
        while chosen.len() < attach {
            let target = *endpoints.choose(rng).expect("endpoint list is never empty");
            if target != u && !chosen.contains(&target) {
                chosen.push(target);
            }
        }
        for &v in &chosen {
            builder.add_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    builder.build()
}

/// Samples a Chung–Lu random graph with the given expected degree sequence `w`: the edge
/// `{u, v}` is present independently with probability `min(1, w_u w_v / Σ w)`.
///
/// This generator reproduces an arbitrary target degree profile in expectation, which is how the
/// dataset stand-ins match the published degree statistics of the original SNAP networks.
pub fn chung_lu<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> Graph {
    let n = weights.len();
    let total: f64 = weights.iter().sum();
    let mut builder = GraphBuilder::new(n);
    if total <= 0.0 {
        return builder.build();
    }
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            let p = (weights[u as usize] * weights[v as usize] / total).min(1.0);
            if p > 0.0 && rng.gen::<f64>() < p {
                builder.add_edge(u, v);
            }
        }
    }
    builder.build()
}

/// Deterministic ring lattice where every node connects to its `k` nearest neighbours on each
/// side — the starting point of a Watts–Strogatz construction and a useful high-clustering test
/// fixture.
pub fn ring_lattice(n: usize, k: usize) -> Graph {
    let mut builder = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for step in 1..=k as u32 {
            let v = (u + step) % n as u32;
            if u != v {
                builder.add_edge(u, v);
            }
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::collections::BTreeSet;

    #[test]
    fn gnp_with_zero_probability_is_empty() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi_gnp(20, 0.0, &mut rng);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn gnp_with_probability_one_is_complete() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = erdos_renyi_gnp(10, 1.0, &mut rng);
        assert_eq!(g.edge_count(), 45);
    }

    #[test]
    fn gnp_edge_count_is_near_expectation() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200;
        let p = 0.05;
        let g = erdos_renyi_gnp(n, p, &mut rng);
        let expected = p * (n * (n - 1) / 2) as f64;
        let observed = g.edge_count() as f64;
        // 5 standard deviations of slack.
        let sd = (expected * (1.0 - p)).sqrt();
        assert!((observed - expected).abs() < 5.0 * sd, "observed {observed}, expected {expected}");
    }

    #[test]
    #[should_panic(expected = "p must be in [0,1]")]
    fn gnp_rejects_invalid_probability() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = erdos_renyi_gnp(5, 1.5, &mut rng);
    }

    #[test]
    fn gnm_produces_exactly_m_edges() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = erdos_renyi_gnm(50, 100, &mut rng);
        assert_eq!(g.edge_count(), 100);
        assert_eq!(g.node_count(), 50);
    }

    #[test]
    fn gnm_matches_the_sequential_reference_byte_for_byte() {
        // The pre-bulk loop: one BTreeSet insertion per non-loop draw until `m` are distinct.
        let reference = |n: usize, m: usize, rng: &mut StdRng| {
            let m = m.min(n * n.saturating_sub(1) / 2);
            let mut edges = BTreeSet::new();
            while edges.len() < m {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u != v {
                    edges.insert((u.min(v), u.max(v)));
                }
            }
            Graph::from_edges(n, edges)
        };
        for seed in 0..40 {
            for (n, m) in [(0, 5), (1, 5), (2, 1), (10, 45), (12, 60), (50, 100), (300, 2_000)] {
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let g = erdos_renyi_gnm(n, m, &mut a);
                assert_eq!(g, reference(n, m, &mut b), "n={n} m={m} seed={seed}");
                assert_eq!(a.next_u64(), b.next_u64(), "rng differs: n={n} m={m} seed={seed}");
            }
        }
    }

    #[test]
    fn gnm_caps_at_complete_graph() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = erdos_renyi_gnm(5, 1000, &mut rng);
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    fn preferential_attachment_has_expected_edge_count() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 300;
        let m = 3;
        let g = preferential_attachment(n, m, &mut rng);
        assert_eq!(g.node_count(), n);
        // 1 seed edge + ~m per subsequent node (first few nodes attach fewer).
        assert!(g.edge_count() > (n - 10) * m / 2);
        assert!(g.edge_count() <= 1 + (n - 2) * m);
    }

    #[test]
    fn preferential_attachment_is_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = preferential_attachment(500, 2, &mut rng);
        let max_d = g.max_degree() as f64;
        let avg_d = g.average_degree();
        // Hubs should be far above the average degree; a loose but meaningful check.
        assert!(max_d > 5.0 * avg_d, "max {max_d} avg {avg_d}");
    }

    #[test]
    fn preferential_attachment_is_connected() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = preferential_attachment(100, 2, &mut rng);
        assert_eq!(crate::traversal::component_count(&g), 1);
    }

    #[test]
    fn chung_lu_matches_expected_degrees_roughly() {
        let mut rng = StdRng::seed_from_u64(10);
        let weights = vec![20.0; 200];
        let g = chung_lu(&weights, &mut rng);
        let avg = g.average_degree();
        // Expected degree of every node is ~20 (self-pair excluded), so the average should be
        // within a few units.
        assert!((avg - 20.0).abs() < 3.0, "avg degree {avg}");
    }

    #[test]
    fn chung_lu_with_zero_weights_is_empty() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = chung_lu(&[0.0; 10], &mut rng);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn ring_lattice_is_regular() {
        let g = ring_lattice(12, 2);
        assert!(g.degrees().iter().all(|&d| d == 4));
        assert_eq!(g.edge_count(), 24);
    }

    #[test]
    fn ring_lattice_with_k1_is_a_cycle() {
        let g = ring_lattice(8, 1);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(crate::traversal::effective_diameter_exact(&g), 4);
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let g1 = erdos_renyi_gnp(40, 0.1, &mut StdRng::seed_from_u64(42));
        let g2 = erdos_renyi_gnp(40, 0.1, &mut StdRng::seed_from_u64(42));
        assert_eq!(g1, g2);
        let p1 = preferential_attachment(60, 2, &mut StdRng::seed_from_u64(7));
        let p2 = preferential_attachment(60, 2, &mut StdRng::seed_from_u64(7));
        assert_eq!(p1, p2);
    }
}
