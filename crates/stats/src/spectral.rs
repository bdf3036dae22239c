//! Spectral statistics: the scree plot (Figures 1–4(c)) and the network-value plot
//! (Figures 1–4(d)).
//!
//! The scree plot shows the singular values of the adjacency matrix against their rank; for a
//! symmetric adjacency matrix the singular values are the magnitudes of the eigenvalues, which
//! Lanczos recovers. The network values are the components of the principal eigenvector sorted
//! in decreasing order of magnitude — Leskovec et al. interpret the component of node `i` as its
//! "network value".
//!
//! Both solvers take the adjacency matrix as its product, which runs on the graph's own sorted
//! neighbour lists: no second copy of the matrix is built.

use kronpriv_graph::Graph;
use kronpriv_linalg::{lanczos_eigenvalues, principal_eigenpair};
use rand::Rng;

/// `y = A·x` for the 0/1 adjacency matrix `A` of `g`: `y[u]` is the sum of `x[v]` over the
/// neighbours `v` of `u`, in ascending order, starting from `0.0`.
fn adjacency_product(g: &Graph, x: &[f64], y: &mut [f64]) {
    for (u, out) in g.nodes().zip(y.iter_mut()) {
        let mut acc = 0.0;
        for &v in g.neighbors(u) {
            acc += x[v as usize];
        }
        *out = acc;
    }
}

/// The scree plot: the `count` largest singular values of the adjacency matrix, in decreasing
/// order, from a Lanczos run of `2 · count + 20` steps.
pub fn scree_plot<R: Rng + ?Sized>(g: &Graph, count: usize, rng: &mut R) -> Vec<f64> {
    if g.node_count() == 0 || g.edge_count() == 0 {
        return Vec::new();
    }
    let k = count.min(g.node_count());
    let product = |x: &[f64], y: &mut [f64]| adjacency_product(g, x, y);
    let mut values = lanczos_eigenvalues(g.node_count(), product, k, 2 * k + 20, rng)
        .into_iter()
        .map(f64::abs)
        .collect::<Vec<_>>();
    values.sort_by(|a, b| b.total_cmp(a));
    values
}

/// The network values: components (absolute values) of the principal eigenvector of the
/// adjacency matrix, sorted in decreasing order. If `count > 0` only that many leading
/// components are returned.
pub fn network_values<R: Rng + ?Sized>(g: &Graph, count: usize, rng: &mut R) -> Vec<f64> {
    if g.node_count() == 0 || g.edge_count() == 0 {
        return Vec::new();
    }
    // The infinity norm of a 0/1 adjacency matrix is its largest row sum: the maximum degree.
    let product = |x: &[f64], y: &mut [f64]| adjacency_product(g, x, y);
    let pair = match principal_eigenpair(g.node_count(), product, g.max_degree() as f64, rng) {
        Some(p) => p,
        None => return Vec::new(),
    };
    let mut components: Vec<f64> = pair.vector.iter().map(|x| x.abs()).collect();
    components.sort_by(|a, b| b.total_cmp(a));
    if count > 0 {
        components.truncate(count);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use kronpriv_graph::generators::preferential_attachment;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn complete_graph(n: usize) -> Graph {
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                edges.push((u, v));
            }
        }
        Graph::from_edges(n, edges)
    }

    #[test]
    fn scree_plot_of_complete_graph() {
        // K_n: eigenvalues n-1 (once) and -1 (n-1 times); singular values n-1, then 1s. A
        // single-vector Lanczos run only resolves *distinct* eigenvalues, so the returned list
        // may be shorter than requested on such degenerate spectra (real networks have
        // essentially distinct leading singular values, so this does not affect the figures).
        let mut rng = StdRng::seed_from_u64(1);
        let values = scree_plot(&complete_graph(8), 4, &mut rng);
        assert!(values.len() >= 2 && values.len() <= 4, "{values:?}");
        assert!((values[0] - 7.0).abs() < 1e-6);
        for v in &values[1..] {
            assert!((v - 1.0).abs() < 1e-5, "{values:?}");
        }
    }

    #[test]
    fn scree_plot_is_sorted_decreasing() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = preferential_attachment(300, 3, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(3);
        let values = scree_plot(&g, 20, &mut rng2);
        assert_eq!(values.len(), 20);
        assert!(values.windows(2).all(|w| w[0] >= w[1] - 1e-9));
        assert!(values[0] > 0.0);
    }

    #[test]
    fn scree_plot_of_star_matches_sqrt_leaves() {
        let leaves = 25u32;
        let g = Graph::from_edges(26, (1..=leaves).map(|v| (0, v)));
        let mut rng = StdRng::seed_from_u64(4);
        let values = scree_plot(&g, 3, &mut rng);
        assert!((values[0] - 5.0).abs() < 1e-6);
        assert!((values[1] - 5.0).abs() < 1e-6);
        assert!(values[2] < 1e-6);
    }

    #[test]
    fn empty_graph_has_empty_spectra() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(scree_plot(&Graph::empty(5), 50, &mut rng).is_empty());
        assert!(network_values(&Graph::empty(5), 0, &mut rng).is_empty());
    }

    #[test]
    fn network_values_of_star_have_one_dominant_component() {
        let leaves = 16u32;
        let g = Graph::from_edges(17, (1..=leaves).map(|v| (0, v)));
        let mut rng = StdRng::seed_from_u64(6);
        let values = network_values(&g, 0, &mut rng);
        assert_eq!(values.len(), 17);
        // Hub component 1/sqrt(2), each leaf 1/sqrt(2*16) = 0.1768.
        assert!((values[0] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-5);
        assert!((values[1] - 0.176_776_7).abs() < 1e-4);
        // Sorted decreasing, unit norm.
        assert!(values.windows(2).all(|w| w[0] >= w[1] - 1e-12));
        let norm: f64 = values.iter().map(|v| v * v).sum::<f64>();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn network_values_truncation_is_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = preferential_attachment(100, 2, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(8);
        let values = network_values(&g, 10, &mut rng2);
        assert_eq!(values.len(), 10);
    }

    /// The product on the neighbour lists is bit-equal to the dense 0/1 matrix product, summed
    /// over columns in ascending order: both directions of every edge, a hub row, and a zero
    /// row for the isolated node.
    #[test]
    fn adjacency_product_matches_a_dense_product() {
        let n = 8;
        let edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (3, 4), (5, 6)];
        let g = Graph::from_edges(n, edges);
        assert_eq!(g.degree(7), 0);
        let mut dense = vec![vec![0.0; n]; n];
        for (u, v) in edges {
            dense[u as usize][v as usize] = 1.0;
            dense[v as usize][u as usize] = 1.0;
        }
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..32 {
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut y = vec![f64::NAN; n];
            adjacency_product(&g, &x, &mut y);
            for (row, &got) in dense.iter().zip(&y) {
                let mut want = 0.0;
                for (a, xv) in row.iter().zip(&x) {
                    want += a * xv;
                }
                assert_eq!(got.to_bits(), want.to_bits(), "{x:?}");
            }
            assert_eq!(y[0], x[1..7].iter().fold(0.0, |acc, v| acc + v));
            assert_eq!(y[7].to_bits(), 0.0f64.to_bits());
        }
    }

    /// The scree and network values keep their exact bits: both are hard-coded from a run of
    /// the same seeds, so a product or solver change that moves any float operation fails here.
    #[test]
    fn spectra_keep_their_bits() {
        let g = preferential_attachment(300, 3, &mut StdRng::seed_from_u64(2));
        let scree = scree_plot(&g, 10, &mut StdRng::seed_from_u64(3));
        let network = network_values(&g, 10, &mut StdRng::seed_from_u64(4));
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&scree),
            [
                0x4029_4ec5_23e9_59e1,
                0x401f_d618_ec47_395b,
                0x401d_a69a_37bd_0c56,
                0x401b_60b0_d9ce_8618,
                0x401a_40e9_acd0_cae6,
                0x4019_f955_64a2_fa51,
                0x4018_e933_1617_e1bb,
                0x4017_f448_780a_508b,
                0x4017_15c4_382c_da15,
                0x4016_6184_ab0f_0249,
            ]
        );
        assert_eq!(
            bits(&network),
            [
                0x3fd9_c6e1_5894_a2cd,
                0x3fd6_50b9_8f37_dac4,
                0x3fd3_bc94_a60e_9406,
                0x3fc9_77a7_34bc_02bb,
                0x3fc6_f38b_cf9a_4ba6,
                0x3fc3_43b6_9229_0413,
                0x3fc2_6053_de81_c0d5,
                0x3fc0_96dc_216e_766e,
                0x3fbf_726b_7840_960c,
                0x3fbc_af2a_9642_dedb,
            ]
        );
    }

    #[test]
    fn heavy_tailed_graph_has_skewed_network_values() {
        // For a preferential-attachment graph the hub components dominate: the largest
        // network value should far exceed the median one (this is what makes the log-log
        // network-value plot of the paper interesting).
        let mut rng = StdRng::seed_from_u64(9);
        let g = preferential_attachment(400, 2, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(10);
        let values = network_values(&g, 0, &mut rng2);
        let median = values[values.len() / 2];
        assert!(values[0] > 5.0 * median.max(1e-12), "{} vs {}", values[0], median);
    }
}
