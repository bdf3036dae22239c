//! Graph profiles: all five statistic families of the paper's figures bundled into one
//! serialisable record, plus a quantitative comparison between two profiles.
//!
//! The figure harness computes one [`GraphProfile`] per graph (original, KronFit synthetic,
//! KronMom synthetic, Private synthetic, and optionally the expectation over many synthetic
//! realizations) and writes them to disk; EXPERIMENTS.md summarises the resulting
//! [`ProfileComparison`]s.

use crate::clustering::{average_clustering_by_degree, global_clustering, ClusteringPoint};
use crate::degree::{degree_distribution, degree_distribution_distance, DegreePoint};
use crate::spectral::{network_values, scree_plot};
use kronpriv_graph::traversal::reachable_pairs_by_hops;
use kronpriv_graph::{Graph, MatchingStatistics};
use kronpriv_json::impl_json_struct;
use kronpriv_par::Executor;
use rand::Rng;

/// The resolution of a profile's spectral statistics.
#[derive(Debug, Clone, Copy)]
pub struct ProfileOptions {
    /// Number of singular values for the scree plot.
    pub scree_values: usize,
    /// Number of leading network-value components to keep (0 = all).
    pub network_values: usize,
}

impl_json_struct!(ProfileOptions { scree_values, network_values });

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions { scree_values: 50, network_values: 1000 }
    }
}

/// The five statistic families of Figures 1–4 for one graph, plus the scalar summary counts.
#[derive(Debug, Clone)]
pub struct GraphProfile {
    /// A label for plots and reports ("Original", "KronMom", "Private", ...).
    pub label: String,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// The four matching statistics `(E, H, T, Δ)`.
    pub matching: MatchingStatistics,
    /// Degree distribution (count per positive degree).
    pub degree_distribution: Vec<DegreePoint>,
    /// Hop plot: reachable ordered pairs within `h` hops (empty for a graph with no nodes).
    pub hop_plot: Vec<u64>,
    /// Scree plot: leading singular values, decreasing.
    pub scree: Vec<f64>,
    /// Network values: leading principal-eigenvector components, decreasing.
    pub network_values: Vec<f64>,
    /// Average clustering coefficient per degree.
    pub clustering_by_degree: Vec<ClusteringPoint>,
    /// Global average clustering coefficient.
    pub global_clustering: f64,
}

impl_json_struct!(GraphProfile {
    label,
    nodes,
    edges,
    matching,
    degree_distribution,
    hop_plot,
    scree,
    network_values,
    clustering_by_degree,
    global_clustering,
});

impl GraphProfile {
    /// Computes the full profile of `g`.
    pub fn compute<R: Rng + ?Sized>(
        label: impl Into<String>,
        g: &Graph,
        options: &ProfileOptions,
        rng: &mut R,
    ) -> Self {
        GraphProfile {
            label: label.into(),
            nodes: g.node_count(),
            edges: g.edge_count(),
            matching: MatchingStatistics::of_graph(g),
            degree_distribution: degree_distribution(g),
            hop_plot: reachable_pairs_by_hops(g, &Executor::sequential()),
            scree: scree_plot(g, options.scree_values, rng),
            network_values: network_values(g, options.network_values, rng),
            clustering_by_degree: average_clustering_by_degree(g),
            global_clustering: global_clustering(g),
        }
    }

    /// The maximum hop count present in the hop plot (0 if it is empty).
    pub fn effective_diameter(&self) -> usize {
        self.hop_plot.len().saturating_sub(1)
    }
}

/// A quantitative comparison of a synthetic graph's profile against a reference (original)
/// profile — the numbers EXPERIMENTS.md reports per figure.
#[derive(Debug, Clone)]
pub struct ProfileComparison {
    /// Label of the reference profile.
    pub reference: String,
    /// Label of the candidate profile.
    pub candidate: String,
    /// Relative error of the edge count.
    pub edge_count_relative_error: f64,
    /// Relative error of the triangle count.
    pub triangle_count_relative_error: f64,
    /// Kolmogorov–Smirnov distance between the degree CCDFs.
    pub degree_distribution_distance: f64,
    /// Relative error of the largest singular value.
    pub leading_singular_value_relative_error: f64,
    /// Absolute difference of the effective diameters (hop-plot lengths).
    pub diameter_difference: usize,
    /// Absolute difference of the global clustering coefficients.
    pub clustering_difference: f64,
}

impl_json_struct!(ProfileComparison {
    reference,
    candidate,
    edge_count_relative_error,
    triangle_count_relative_error,
    degree_distribution_distance,
    leading_singular_value_relative_error,
    diameter_difference,
    clustering_difference,
});

impl ProfileComparison {
    /// Compares `candidate` against `reference`. Both graphs are needed (for the degree-CCDF
    /// distance); the profiles supply everything else.
    pub fn between(
        reference: &GraphProfile,
        reference_graph: &Graph,
        candidate: &GraphProfile,
        candidate_graph: &Graph,
    ) -> Self {
        let rel = |est: f64, truth: f64| (est - truth).abs() / truth.abs().max(1.0);
        ProfileComparison {
            reference: reference.label.clone(),
            candidate: candidate.label.clone(),
            edge_count_relative_error: rel(candidate.edges as f64, reference.edges as f64),
            triangle_count_relative_error: rel(
                candidate.matching.triangles,
                reference.matching.triangles,
            ),
            degree_distribution_distance: degree_distribution_distance(
                reference_graph,
                candidate_graph,
            ),
            leading_singular_value_relative_error: rel(
                candidate.scree.first().copied().unwrap_or(0.0),
                reference.scree.first().copied().unwrap_or(0.0),
            ),
            diameter_difference: reference
                .effective_diameter()
                .abs_diff(candidate.effective_diameter()),
            clustering_difference: (reference.global_clustering - candidate.global_clustering)
                .abs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kronpriv_graph::generators::{erdos_renyi_gnp, preferential_attachment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn profile_of_a_small_graph_is_complete() {
        let g = Graph::from_edges(5, vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let mut rng = StdRng::seed_from_u64(1);
        let p = GraphProfile::compute("test", &g, &ProfileOptions::default(), &mut rng);
        assert_eq!(p.nodes, 5);
        assert_eq!(p.edges, 5);
        assert_eq!(p.matching.triangles, 1.0);
        assert!(!p.degree_distribution.is_empty());
        assert!(!p.hop_plot.is_empty());
        assert!(!p.scree.is_empty());
        assert!(!p.network_values.is_empty());
        assert!(p.global_clustering > 0.0);
        assert_eq!(p.effective_diameter(), 3);
    }

    #[test]
    fn profile_serialises_to_json_and_back() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let mut rng = StdRng::seed_from_u64(3);
        let p = GraphProfile::compute("roundtrip", &g, &ProfileOptions::default(), &mut rng);
        let json = kronpriv_json::to_string(&p);
        let back: GraphProfile = kronpriv_json::from_str(&json).unwrap();
        assert_eq!(back.label, "roundtrip");
        assert_eq!(back.edges, p.edges);
        assert_eq!(back.hop_plot, p.hop_plot);
    }

    #[test]
    fn comparison_of_identical_graphs_is_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = preferential_attachment(120, 2, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(5);
        let p = GraphProfile::compute("a", &g, &ProfileOptions::default(), &mut rng2);
        let q = GraphProfile::compute("b", &g, &ProfileOptions::default(), &mut rng2);
        let cmp = ProfileComparison::between(&p, &g, &q, &g);
        assert_eq!(cmp.edge_count_relative_error, 0.0);
        assert_eq!(cmp.degree_distribution_distance, 0.0);
        assert_eq!(cmp.diameter_difference, 0);
        assert!(cmp.leading_singular_value_relative_error < 1e-6);
    }

    #[test]
    fn comparison_detects_structural_differences() {
        let mut rng = StdRng::seed_from_u64(6);
        let heavy = preferential_attachment(200, 3, &mut rng);
        let uniform =
            erdos_renyi_gnp(200, heavy.edge_count() as f64 / (200.0 * 199.0 / 2.0), &mut rng);
        let mut rng2 = StdRng::seed_from_u64(7);
        let p = GraphProfile::compute("pa", &heavy, &ProfileOptions::default(), &mut rng2);
        let q = GraphProfile::compute("er", &uniform, &ProfileOptions::default(), &mut rng2);
        let cmp = ProfileComparison::between(&p, &heavy, &q, &uniform);
        // Same edge budget, very different degree shape and spectrum.
        assert!(cmp.edge_count_relative_error < 0.15);
        assert!(cmp.degree_distribution_distance > 0.1);
        assert!(cmp.leading_singular_value_relative_error > 0.1);
    }

    #[test]
    fn comparison_serialises() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let mut rng = StdRng::seed_from_u64(8);
        let p = GraphProfile::compute("x", &g, &ProfileOptions::default(), &mut rng);
        let cmp = ProfileComparison::between(&p, &g, &p, &g);
        let json = kronpriv_json::to_string(&cmp);
        assert!(json.contains("degree_distribution_distance"));
    }
}
