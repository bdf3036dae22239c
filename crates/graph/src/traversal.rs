//! Breadth-first traversal utilities: single-source distances, connected components and the
//! reachable-pair counts behind the paper's hop plot.

use crate::graph::Graph;
use kronpriv_par::{Executor, Work};
use std::collections::VecDeque;

/// BFS sources per work chunk for [`reachable_pairs_by_hops`]. Fixed (independent of the
/// thread count) so the per-chunk histograms — and their exact integer merge — are identical
/// for any [`Executor`].
const SOURCE_CHUNK: usize = 32;

/// Cost hint for one BFS source: a full `O(nodes + edges)` traversal, estimated from the graph
/// shape alone so the executor's sequential cutoff stays a pure function of the input.
fn bfs_work(g: &Graph) -> Work {
    Work::per_item_ns(2 * (g.node_count() as u64 + 2 * g.edge_count() as u64))
}

/// BFS distances (in hops) from `source` to every node; unreachable nodes get `None`.
pub fn bfs_distances(g: &Graph, source: u32) -> Vec<Option<u32>> {
    let n = g.node_count();
    let mut dist: Vec<Option<u32>> = vec![None; n];
    if (source as usize) >= n {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source as usize] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize].expect("queued nodes always carry a distance");
        for &v in g.neighbors(u) {
            if dist[v as usize].is_none() {
                dist[v as usize] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Connected components as a label per node (labels are `0..component_count`, assigned in
/// order of discovery by node id).
pub fn connected_components(g: &Graph) -> Vec<usize> {
    let n = g.node_count();
    let mut label = vec![usize::MAX; n];
    let mut next = 0usize;
    for start in 0..n as u32 {
        if label[start as usize] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        label[start as usize] = next;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if label[v as usize] == usize::MAX {
                    label[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    label
}

/// Number of connected components.
pub fn component_count(g: &Graph) -> usize {
    connected_components(g).iter().copied().max().map_or(0, |m| m + 1)
}

/// Node ids of the largest connected component (ties broken towards the component containing
/// the smallest node id).
pub fn largest_component(g: &Graph) -> Vec<u32> {
    let labels = connected_components(g);
    let k = component_count(g);
    if k == 0 {
        return Vec::new();
    }
    let mut sizes = vec![0usize; k];
    for &l in &labels {
        sizes[l] += 1;
    }
    let best = (0..k)
        .max_by_key(|&l| (sizes[l], std::cmp::Reverse(l)))
        .expect("k >= 1: the empty-graph case returned above");
    (0..g.node_count() as u32).filter(|&u| labels[u as usize] == best).collect()
}

/// Eccentricity-style diameter of the graph restricted to reachable pairs: the maximum finite
/// BFS distance over all source nodes. Returns 0 for graphs with no edges.
///
/// This is exact (all-sources BFS), which is affordable for the graph sizes in the paper.
pub fn effective_diameter_exact(g: &Graph) -> u32 {
    let mut best = 0u32;
    for u in 0..g.node_count() as u32 {
        for d in bfs_distances(g, u).into_iter().flatten() {
            best = best.max(d);
        }
    }
    best
}

/// Counts, for each hop count `h = 0, 1, 2, …`, the number of *ordered* pairs of nodes `(u, v)`
/// with `dist(u, v) ≤ h` (the quantity plotted on the y-axis of the paper's hop plots). Index 0
/// therefore equals the number of nodes. The vector stops growing once all reachable pairs are
/// covered.
///
/// Runs on `exec`'s compute threads, source-partitioned: each fixed chunk of BFS sources builds
/// its own per-distance histogram and the histograms are summed element-wise (exact integer
/// addition), so the curve is identical for any thread count.
pub fn reachable_pairs_by_hops(g: &Graph, exec: &Executor) -> Vec<u64> {
    let n = g.node_count();
    let per_hop = exec.fold_reduce(
        n,
        SOURCE_CHUNK,
        bfs_work(g),
        Vec::<u64>::new,
        |histogram, sources| {
            for u in sources {
                for d in bfs_distances(g, u as u32).into_iter().flatten() {
                    let d = d as usize;
                    if histogram.len() <= d {
                        histogram.resize(d + 1, 0);
                    }
                    histogram[d] += 1;
                }
            }
        },
        |mut a, b| {
            if a.len() < b.len() {
                a.resize(b.len(), 0);
            }
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        },
    );
    // Convert the per-distance histogram into a cumulative count.
    let mut cumulative = 0u64;
    per_hop
        .into_iter()
        .map(|c| {
            cumulative += c;
            cumulative
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::rand_edges;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn bfs_distances_on_a_path() {
        let g = path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn bfs_marks_unreachable_nodes_none() {
        let g = Graph::from_edges(4, vec![(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }

    #[test]
    fn bfs_from_out_of_range_source_is_all_none() {
        let g = path(3);
        assert!(bfs_distances(&g, 9).iter().all(Option::is_none));
    }

    #[test]
    fn connected_components_of_two_cliques() {
        let g = Graph::from_edges(6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]);
        let labels = connected_components(&g);
        assert_eq!(component_count(&g), 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn isolated_nodes_are_their_own_components() {
        let g = Graph::empty(3);
        assert_eq!(component_count(&g), 3);
    }

    #[test]
    fn largest_component_returns_biggest_piece() {
        let g = Graph::from_edges(7, vec![(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)]);
        assert_eq!(largest_component(&g), vec![2, 3, 4]);
    }

    #[test]
    fn diameter_of_path_is_length() {
        assert_eq!(effective_diameter_exact(&path(6)), 5);
    }

    #[test]
    fn diameter_of_disconnected_graph_ignores_unreachable_pairs() {
        let g = Graph::from_edges(5, vec![(0, 1), (2, 3)]);
        assert_eq!(effective_diameter_exact(&g), 1);
    }

    #[test]
    fn hop_plot_of_triangle() {
        // Triangle: 3 pairs at distance 0 (self), 6 ordered pairs at distance 1.
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        assert_eq!(reachable_pairs_by_hops(&g, &Executor::sequential()), vec![3, 9]);
    }

    #[test]
    fn hop_plot_of_path_is_cumulative_and_saturates() {
        let g = path(4);
        let hops = reachable_pairs_by_hops(&g, &Executor::sequential());
        // h=0: 4, h=1: +6 ordered adjacent pairs = 10, h=2: +4 = 14, h=3: +2 = 16 = n^2.
        assert_eq!(hops, vec![4, 10, 14, 16]);
        assert_eq!(*hops.last().unwrap(), 16);
    }

    #[test]
    fn hop_plot_of_two_paths_saturates_below_n_squared() {
        // Two components of 3 nodes: saturates at 2 · 3² = 18, not 6² = 36.
        let g = Graph::from_edges(6, vec![(0, 1), (1, 2), (3, 4), (4, 5)]);
        assert_eq!(reachable_pairs_by_hops(&g, &Executor::sequential()), vec![6, 14, 18]);
    }

    #[test]
    fn hop_plot_is_monotone_non_decreasing() {
        let g = Graph::from_edges(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let hops = reachable_pairs_by_hops(&g, &Executor::sequential());
        assert!(hops.windows(2).all(|w| w[0] <= w[1]));
        // Each node of the 6-cycle reaches 2 more nodes per hop until the antipode at h = 3.
        assert_eq!(hops, vec![6, 18, 30, 36]);
    }

    // Former proptest properties, now deterministic seeded loops.
    #[test]
    fn hop_plot_saturates_at_sum_of_squared_component_sizes() {
        let mut rng = StdRng::seed_from_u64(0x7A_7001);
        for _ in 0..128 {
            let edges = rand_edges(&mut rng, 12, 40);
            let g = Graph::from_edges(12, edges);
            let hops = reachable_pairs_by_hops(&g, &Executor::sequential());
            let labels = connected_components(&g);
            let k = component_count(&g);
            let mut sizes = vec![0u64; k];
            for &l in &labels {
                sizes[l] += 1;
            }
            let expected: u64 = sizes.iter().map(|s| s * s).sum();
            assert_eq!(*hops.last().unwrap(), expected);
        }
    }

    #[test]
    fn bfs_distance_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(0x7A_7002);
        for _ in 0..64 {
            let mut edges = rand_edges(&mut rng, 10, 40);
            if edges.is_empty() {
                edges.push((rng.gen_range(0..10), rng.gen_range(0..10)));
            }
            let g = Graph::from_edges(10, edges);
            let d0 = bfs_distances(&g, 0);
            for v in 1..10u32 {
                let dv = bfs_distances(&g, v);
                assert_eq!(d0[v as usize], dv[0]);
            }
        }
    }

    #[test]
    fn component_labels_are_consistent_with_reachability() {
        let mut rng = StdRng::seed_from_u64(0x7A_7003);
        for _ in 0..128 {
            let edges = rand_edges(&mut rng, 10, 30);
            let g = Graph::from_edges(10, edges);
            let labels = connected_components(&g);
            let d0 = bfs_distances(&g, 0);
            for v in 0..10usize {
                assert_eq!(labels[v] == labels[0], d0[v].is_some());
            }
        }
    }
}
