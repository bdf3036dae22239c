//! Spectral statistics: the scree plot (Figures 1–4(c)) and the network-value plot
//! (Figures 1–4(d)).
//!
//! The scree plot shows the singular values of the adjacency matrix against their rank; for a
//! symmetric adjacency matrix the singular values are the magnitudes of the eigenvalues, which
//! Lanczos recovers. The network values are the components of the principal eigenvector sorted
//! in decreasing order of magnitude — Leskovec et al. interpret the component of node `i` as its
//! "network value".

use kronpriv_graph::Graph;
use kronpriv_linalg::{lanczos_eigenvalues, principal_eigenpair, CsrMatrix};
use rand::Rng;

fn adjacency(g: &Graph) -> CsrMatrix {
    CsrMatrix::symmetric_adjacency(g.node_count(), g.edges())
}

/// The scree plot: the `count` largest singular values of the adjacency matrix, in decreasing
/// order, from a Lanczos run of `2 · count + 20` steps.
pub fn scree_plot<R: Rng + ?Sized>(g: &Graph, count: usize, rng: &mut R) -> Vec<f64> {
    if g.node_count() == 0 || g.edge_count() == 0 {
        return Vec::new();
    }
    let k = count.min(g.node_count());
    let mut values = lanczos_eigenvalues(&adjacency(g), k, 2 * k + 20, rng)
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
    let pair = match principal_eigenpair(&adjacency(g), rng) {
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
    use rand::SeedableRng;

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
