//! Clustering coefficients (Figures 1–4(e)): the average local clustering coefficient as a
//! function of node degree.
//!
//! The local clustering coefficient of node `i` with degree `d_i ≥ 2` is
//! `c_i = 2·Δ_i / (d_i (d_i − 1))`, the fraction of its neighbour pairs that are themselves
//! connected; nodes of degree < 2 have coefficient 0 by convention. The paper plots the average
//! of `c_i` over all nodes of each degree, on log–log axes.

use kronpriv_graph::counts::per_node_triangles;
use kronpriv_graph::Graph;
use kronpriv_json::impl_json_struct;
use kronpriv_par::Executor;
use std::collections::BTreeMap;

/// One point of the clustering-by-degree curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteringPoint {
    /// Node degree.
    pub degree: usize,
    /// Average local clustering coefficient over nodes of this degree.
    pub average_clustering: f64,
    /// Number of nodes of this degree.
    pub count: usize,
}

impl_json_struct!(ClusteringPoint { degree, average_clustering, count });

/// Local clustering coefficient of every node, with the per-node triangle counts computed on
/// `exec`'s worker pool (see `per_node_triangles`); the coefficient of each node is then a pure
/// per-node function, so the result is identical for any thread count.
pub fn clustering_coefficients(g: &Graph, exec: &Executor) -> Vec<f64> {
    let triangles = per_node_triangles(g, exec);
    g.degrees()
        .iter()
        .zip(&triangles)
        .map(|(&d, &t)| if d < 2 { 0.0 } else { 2.0 * t as f64 / (d as f64 * (d as f64 - 1.0)) })
        .collect()
}

/// The average clustering coefficient per degree, restricted to degrees ≥ 2 (degree-0/1 nodes
/// have no defined clustering and cannot appear on the paper's log–log axes).
pub fn average_clustering_by_degree(g: &Graph) -> Vec<ClusteringPoint> {
    let coefficients = clustering_coefficients(g, &Executor::sequential());
    let mut sums: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
    for (node, &d) in g.degrees().iter().enumerate() {
        if d >= 2 {
            let entry = sums.entry(d).or_insert((0.0, 0));
            entry.0 += coefficients[node];
            entry.1 += 1;
        }
    }
    sums.into_iter()
        .map(|(degree, (sum, count))| ClusteringPoint {
            degree,
            average_clustering: sum / count as f64,
            count,
        })
        .collect()
}

/// The global (average) clustering coefficient: the mean of the local coefficients over all
/// nodes, the scalar the paper quotes when comparing how well the SKG model captures clustering.
pub fn global_clustering(g: &Graph) -> f64 {
    let c = clustering_coefficients(g, &Executor::sequential());
    if c.is_empty() {
        0.0
    } else {
        c.iter().sum::<f64>() / c.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn complete_graph_has_clustering_one() {
        let g = complete_graph(6);
        assert!(clustering_coefficients(&g, &Executor::sequential())
            .iter()
            .all(|&c| (c - 1.0).abs() < 1e-12));
        assert!((global_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_has_clustering_zero() {
        let g = Graph::from_edges(6, (1..6u32).map(|v| (0, v)));
        assert!(clustering_coefficients(&g, &Executor::sequential()).iter().all(|&c| c == 0.0));
        assert_eq!(global_clustering(&g), 0.0);
    }

    #[test]
    fn triangle_with_tail_has_mixed_coefficients() {
        // Triangle 0-1-2 plus edge 2-3: nodes 0,1 have c=1; node 2 has degree 3 and one
        // triangle: c = 2*1/(3*2) = 1/3; node 3 has degree 1: c=0.
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)]);
        let c = clustering_coefficients(&g, &Executor::sequential());
        assert!((c[0] - 1.0).abs() < 1e-12);
        assert!((c[1] - 1.0).abs() < 1e-12);
        assert!((c[2] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c[3], 0.0);
        assert!((global_clustering(&g) - (1.0 + 1.0 + 1.0 / 3.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn average_by_degree_groups_nodes() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)]);
        let curve = average_clustering_by_degree(&g);
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0].degree, 2);
        assert_eq!(curve[0].count, 2);
        assert!((curve[0].average_clustering - 1.0).abs() < 1e-12);
        assert_eq!(curve[1].degree, 3);
        assert!((curve[1].average_clustering - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degree_one_nodes_are_excluded_from_the_curve() {
        let g = Graph::from_edges(3, vec![(0, 1)]);
        assert!(average_clustering_by_degree(&g).is_empty());
    }

    #[test]
    fn empty_graph_has_zero_global_clustering() {
        assert_eq!(global_clustering(&Graph::empty(0)), 0.0);
        assert_eq!(global_clustering(&Graph::empty(4)), 0.0);
    }

    #[test]
    fn coefficients_are_between_zero_and_one() {
        let g = Graph::from_edges(
            8,
            vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 5), (5, 6), (6, 4), (6, 7)],
        );
        for c in clustering_coefficients(&g, &Executor::sequential()) {
            assert!((0.0..=1.0).contains(&c));
        }
    }
}
