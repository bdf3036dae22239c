//! Hop plots (Figures 1–4(a)): the number of reachable ordered node pairs within `h` hops, as a
//! function of `h`.
//!
//! The hop plot is the exact all-sources BFS of the graph crate, quadratic in nodes × edges,
//! which is fine for the paper's graph sizes. It is re-exported here so the statistic families
//! of this crate sit side by side.

pub use kronpriv_graph::traversal::reachable_pairs_by_hops;

#[cfg(test)]
mod tests {
    use super::*;
    use kronpriv_graph::Graph;
    use kronpriv_par::Executor;

    #[test]
    fn exact_hop_plot_of_a_path() {
        let g = Graph::from_edges(4, (0..3u32).map(|i| (i, i + 1)));
        assert_eq!(reachable_pairs_by_hops(&g, &Executor::sequential()), vec![4, 10, 14, 16]);
    }

    #[test]
    fn exact_hop_plot_saturates_at_n_squared_for_connected_graphs() {
        let g = Graph::from_edges(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert_eq!(*reachable_pairs_by_hops(&g, &Executor::sequential()).last().unwrap(), 36);
    }
}
