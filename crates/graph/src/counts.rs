//! The subgraph counts matched by the moment-based estimator.
//!
//! Gleich & Owen's estimator (and therefore the paper's private estimator) matches four observed
//! statistics of the graph against their expectations under the stochastic Kronecker model
//! (Section 3.4):
//!
//! * `E` — the number of edges,
//! * `H` — the number of *hairpins* (2-stars / wedges): unordered pairs of distinct edges
//!   sharing an endpoint, `Σ_i C(d_i, 2)`,
//! * `T` — the number of *tripins* (3-stars): `Σ_i C(d_i, 3)`,
//! * `Δ` — the number of triangles.
//!
//! `E`, `H` and `T` are functions of the degree sequence, which is why the paper can derive
//! their private approximations from a private degree sequence (Fact 4.6). The triangle count is
//! not, which is why it gets the smooth-sensitivity treatment; the per-pair common-neighbour
//! counts exposed here are exactly what that computation needs.
//!
//! Both integers the triangle release needs — the exact count `Δ` and the local sensitivity
//! `max_ij a_ij` — are computed on [`DegreeOrdered`], one relabelling of the graph in which
//! node ids ascend with degree.

use crate::graph::Graph;
use kronpriv_json::impl_json_struct;
use kronpriv_par::{Executor, Work};

/// Edges per work chunk for the edge-partitioned kernels. Fixed (never derived from the thread
/// count) so chunk boundaries — and therefore results — are identical for any [`Executor`];
/// sized so one chunk (~a thousand sorted-list intersections) amortizes a pool handoff.
const EDGE_CHUNK: usize = 1024;

/// Cost hint for the edge-partitioned triangle kernels: one sorted-neighbour intersection per
/// edge, a short data-dependent scan.
const EDGE_WORK: Work = Work::MODERATE;

/// Nodes per work chunk for the forward triangle count on a [`DegreeOrdered`] graph. Fixed,
/// like [`EDGE_CHUNK`]; the degree ordering bounds every above-`v` list by `√(2m)`, so
/// per-node cost is nearly uniform and a chunk this size amortizes a pool handoff.
const FORWARD_CHUNK: usize = 1024;

/// Left endpoints per work chunk for the pruned local-sensitivity scan. Small, because the
/// scan visits the highest degrees first: the first chunks carry nearly all the work, and
/// small chunks let every participant share it. Pruned chunks cost one degree check each.
const SCAN_CHUNK: usize = 32;

/// The four observed statistics `(E, H, T, Δ)` used for moment matching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchingStatistics {
    /// Number of undirected edges.
    pub edges: f64,
    /// Number of hairpins (wedges / 2-stars).
    pub hairpins: f64,
    /// Number of tripins (3-stars).
    pub tripins: f64,
    /// Number of triangles.
    pub triangles: f64,
}

impl_json_struct!(MatchingStatistics { edges, hairpins, tripins, triangles });

impl MatchingStatistics {
    /// Computes all four statistics of `g` exactly.
    pub fn of_graph(g: &Graph) -> Self {
        let degrees = g.degrees();
        MatchingStatistics {
            edges: g.edge_count() as f64,
            hairpins: hairpin_count(&degrees),
            tripins: tripin_count(&degrees),
            triangles: triangle_count(g) as f64,
        }
    }

    /// Derives the three degree-based statistics `(E, H, T)` from a (possibly noisy, possibly
    /// non-integral) degree sequence, exactly as the paper does from the private degree sequence:
    /// `E = ½ Σ d_i`, `H = ½ Σ d_i (d_i − 1)`, `T = ⅙ Σ d_i (d_i − 1)(d_i − 2)`.
    ///
    /// The triangle count cannot be derived from degrees; the caller must supply it (here it is
    /// set to `triangles`).
    pub fn from_degree_sequence(degrees: &[f64], triangles: f64) -> Self {
        let edges = 0.5 * degrees.iter().sum::<f64>();
        let hairpins = 0.5 * degrees.iter().map(|d| d * (d - 1.0)).sum::<f64>();
        let tripins = degrees.iter().map(|d| d * (d - 1.0) * (d - 2.0)).sum::<f64>() / 6.0;
        MatchingStatistics { edges, hairpins, tripins, triangles }
    }

    /// Returns the statistics as an `[E, H, Δ, T]` array (the order used by the fitting code).
    pub fn as_array(&self) -> [f64; 4] {
        [self.edges, self.hairpins, self.triangles, self.tripins]
    }
}

/// Number of hairpins (wedges) from a degree sequence: `Σ C(d_i, 2)`.
///
/// Each term is accumulated in `f64` from the start: the integer product `d·(d−1)` overflows
/// `usize` for hub degrees ≳ 2³² on 64-bit targets and already at `d ≈ 65'000` on 32-bit ones,
/// whereas `f64` represents the binomials of any realistic degree to full relative precision.
pub fn hairpin_count(degrees: &[usize]) -> f64 {
    degrees
        .iter()
        .map(|&d| {
            let d = d as f64;
            d * (d - 1.0) / 2.0
        })
        .sum()
}

/// Number of tripins (3-stars) from a degree sequence: `Σ C(d_i, 3)`.
///
/// Accumulated in `f64` like [`hairpin_count`]: the integer product `d·(d−1)·(d−2)` overflows
/// `usize` for hub degrees ≳ 2.6 million (and on 32-bit targets at `d ≈ 1'626`). Degrees 0–2
/// contribute exactly 0.0 because one factor is exactly zero.
pub fn tripin_count(degrees: &[usize]) -> f64 {
    degrees
        .iter()
        .map(|&d| {
            let d = d as f64;
            d * (d - 1.0) * (d - 2.0) / 6.0
        })
        .sum()
}

/// Exact number of triangles in `g`: the forward count of [`DegreeOrdered::triangle_count`].
// lint:source(sensitive)
pub fn triangle_count(g: &Graph) -> u64 {
    triangle_count_par(g, &Executor::sequential())
}

/// [`triangle_count`] on `exec`'s compute threads: relabels `g` by degree and runs the forward
/// count. The partial counts are integers, so the result is identical for any thread count.
// lint:source(sensitive)
pub fn triangle_count_par(g: &Graph, exec: &Executor) -> u64 {
    DegreeOrdered::new(g).triangle_count(exec)
}

/// A graph relabelled so that node ids ascend in `(degree, old id)`, stored as CSR with every
/// neighbour list sorted.
///
/// Labels do not change the triangle count or any common-neighbour count, so the two integers
/// of the triangle release can be computed here instead of on the input graph. The ordering
/// makes both cheaper:
///
/// * In the forward count ([`DegreeOrdered::triangle_count`]) each node only meets neighbours
///   of higher degree, so every list it merges has at most `√(2m)` entries.
/// * The local-sensitivity scan ([`DegreeOrdered::max_common_neighbors`]) visits the highest
///   degrees first and stops as soon as no degree can beat the maximum found so far.
///
/// Building it costs `O(n + m)` time and one extra CSR of memory. The old ids are not kept.
#[derive(Debug)]
pub struct DegreeOrdered {
    /// CSR offsets into `adjacency`, length `node_count() + 1`.
    offsets: Vec<usize>,
    /// Concatenated neighbour lists in new ids, each sorted ascending.
    adjacency: Vec<u32>,
}

impl DegreeOrdered {
    /// Relabels `g` in `O(n + m)`: a stable counting sort by degree assigns the new ids, then
    /// one scatter visits the nodes in new-id order and appends each one to its neighbours'
    /// lists. The appends arrive in ascending new id, so every list comes out sorted. While
    /// filling, `offsets[x + 1]` holds the next free slot of node `x`'s list; it ends at the
    /// list's end, which is exactly its final CSR value, so no separate cursor array is needed.
    pub fn new(g: &Graph) -> Self {
        let n = g.node_count();
        // first_id[d] becomes the first new id of degree d, then the next unused one.
        let mut first_id = vec![0u32; g.max_degree() + 2];
        for v in g.nodes() {
            first_id[g.degree(v) + 1] += 1;
        }
        for d in 1..first_id.len() {
            first_id[d] += first_id[d - 1];
        }
        let mut new_id = vec![0u32; n];
        let mut old_id = vec![0u32; n];
        for v in g.nodes() {
            let slot = &mut first_id[g.degree(v)];
            new_id[v as usize] = *slot;
            old_id[*slot as usize] = v;
            *slot += 1;
        }

        let mut offsets = vec![0usize; n + 1];
        let mut start = 0usize;
        for (x, &v) in old_id.iter().enumerate() {
            offsets[x + 1] = start;
            start += g.degree(v);
        }
        let mut adjacency = vec![0u32; start];
        for (x, &v) in old_id.iter().enumerate() {
            for &u in g.neighbors(v) {
                let cursor = &mut offsets[new_id[u as usize] as usize + 1];
                adjacency[*cursor] = x as u32;
                *cursor += 1;
            }
        }
        DegreeOrdered { offsets, adjacency }
    }

    fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Sorted neighbour list of new id `v`.
    fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.adjacency[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of new id `v`. Degrees never decrease as the id grows.
    fn degree(&self, v: u32) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The neighbours of `v` with a larger id: a suffix of its sorted list.
    fn above(&self, v: u32) -> &[u32] {
        let list = self.neighbors(v);
        &list[list.partition_point(|&u| u < v)..]
    }

    /// Exact number of triangles, by the forward algorithm (Schank & Wagner 2005). A triangle
    /// `v < u < w` is counted once, at its lowest edge `(v, u)`, by merging the part of
    /// `above(v)` past `u` with `above(u)`. Nodes are split into fixed chunks whose integer
    /// counts are summed, so the result is identical for any thread count.
    // lint:source(sensitive)
    pub fn triangle_count(&self, exec: &Executor) -> u64 {
        exec.map_reduce(
            self.node_count(),
            FORWARD_CHUNK,
            self.forward_work(),
            |nodes| {
                let mut count = 0u64;
                for v in nodes {
                    let above_v = self.above(v as u32);
                    for (k, &u) in above_v.iter().enumerate() {
                        count += intersect_sorted(&above_v[k + 1..], self.above(u)) as u64;
                    }
                }
                count
            },
            |acc: u64, partial| acc + partial,
            0,
        )
    }

    /// The largest common-neighbour count `max_ij a_ij` over all node pairs: the local
    /// sensitivity of the triangle count.
    ///
    /// Left endpoints `i` are scanned from the highest degree down. For each one, the
    /// `i — v — j` wedges are counted into `j > i` only, so each pair is counted once, from its
    /// lower-degree end. Because `a_ij ≤ d_i`, an `i` whose degree is at most the running
    /// maximum cannot raise it. Every later `i` in the chunk has no larger degree, so the chunk
    /// stops there. Each participant keeps its own running maximum and one `O(n)` counter
    /// array. Skipping only ever drops pairs that cannot beat a maximum already found, and the
    /// merge is an integer `max`, so the result is identical for any thread count.
    pub fn max_common_neighbors(&self, exec: &Executor) -> usize {
        let n = self.node_count();
        let (best, _, _) = exec.fold_reduce(
            n,
            SCAN_CHUNK,
            self.scan_work(),
            // (running max, common-neighbour counters indexed by j, touched-j list for reset).
            || (0usize, vec![0u32; n], Vec::<u32>::new()),
            |(best, counts, touched), positions| {
                for t in positions {
                    let i = (n - 1 - t) as u32;
                    if self.degree(i) <= *best {
                        break;
                    }
                    for &v in self.neighbors(i) {
                        let two_hop = self.neighbors(v);
                        for &j in &two_hop[two_hop.partition_point(|&j| j <= i)..] {
                            if counts[j as usize] == 0 {
                                touched.push(j);
                            }
                            counts[j as usize] += 1;
                        }
                    }
                    for &j in touched.iter() {
                        *best = (*best).max(counts[j as usize] as usize);
                        counts[j as usize] = 0;
                    }
                    touched.clear();
                }
            },
            |a, b| if a.0 >= b.0 { a } else { b },
        );
        best
    }

    /// Cost hint per node of [`DegreeOrdered::triangle_count`]: `6·⌈d̄⌉²` ns for average
    /// degree `d̄`. Measured single-threaded (release build, 2-core x86-64 host) at 73 and
    /// 124 ns per node on 2^14- and 2^17-node SKGs (`⌈d̄⌉` = 3, 4), and 269 and 3664 ns on
    /// 20'000-node preferential-attachment graphs (`⌈d̄⌉` = 8, 32); the formula is within 2× of
    /// all four. A pure function of the graph shape, as the executor's cutoff requires.
    fn forward_work(&self) -> Work {
        let d = self.average_degree_ceil();
        Work::per_item_ns(6 * d * d)
    }

    /// Cost hint per left endpoint of [`DegreeOrdered::max_common_neighbors`]: `18·⌈d̄⌉` ns.
    /// Pruning leaves the cost growing roughly linearly in the average degree. Measured on the
    /// same four graphs and host as [`DegreeOrdered::forward_work`] at 56, 129, 77 and 729 ns
    /// per left endpoint, pruned ones included; the formula is within 2× of all four.
    fn scan_work(&self) -> Work {
        Work::per_item_ns(18 * self.average_degree_ceil())
    }

    /// `⌈2m / n⌉`, the average degree rounded up (0 for an empty graph).
    fn average_degree_ceil(&self) -> u64 {
        (self.adjacency.len() as u64).div_ceil(self.node_count().max(1) as u64)
    }
}

/// Number of triangles incident to each node.
pub fn per_node_triangles(g: &Graph) -> Vec<u64> {
    per_node_triangles_par(g, &Executor::sequential())
}

/// [`per_node_triangles`] on `exec`'s compute threads. Edge-partitioned with one `O(n)`
/// counter array per participant; the per-participant arrays are merged element-wise, which is
/// exact (integer sums), so the result is identical for any thread count.
pub fn per_node_triangles_par(g: &Graph, exec: &Executor) -> Vec<u64> {
    let edges = g.edges();
    let n = g.node_count();
    exec.fold_reduce(
        edges.len(),
        EDGE_CHUNK,
        EDGE_WORK,
        || vec![0u64; n],
        |counts, range| {
            for &(u, v) in &edges[range] {
                let (mut i, mut j) = (0usize, 0usize);
                let (nu, nv) = (g.neighbors(u), g.neighbors(v));
                while i < nu.len() && j < nv.len() {
                    match nu[i].cmp(&nv[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            let w = nu[i];
                            if w > v {
                                counts[u as usize] += 1;
                                counts[v as usize] += 1;
                                counts[w as usize] += 1;
                            }
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        },
        |mut a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        },
    )
}

/// Number of common neighbours of `u` and `v` (the quantity `a_{ij}` in the smooth-sensitivity
/// analysis of the triangle count: adding or removing the edge `{u, v}` changes `Δ` by exactly
/// this amount).
pub fn common_neighbor_count(g: &Graph, u: u32, v: u32) -> usize {
    intersect_sorted(g.neighbors(u), g.neighbors(v))
}

/// Number of nodes adjacent to exactly one of `u`, `v`, excluding `u` and `v` themselves (the
/// quantity `b_{ij}` in the smooth-sensitivity analysis).
pub fn exclusive_neighbor_count(g: &Graph, u: u32, v: u32) -> usize {
    let nu = g.neighbors(u);
    let nv = g.neighbors(v);
    let common = intersect_sorted(nu, nv);
    let mut only = nu.len() + nv.len() - 2 * common;
    // Do not count u or v themselves: if {u,v} is an edge, v appears in N(u) and u in N(v) and
    // both belong to the symmetric difference.
    if nu.contains(&v) {
        only -= 1;
    }
    if nv.contains(&u) {
        only -= 1;
    }
    only
}

/// The largest common-neighbour count over all (ordered once) node pairs. This is the local
/// sensitivity of the triangle count (Definition 4.3 instantiated for `Δ`).
pub fn max_common_neighbors(g: &Graph) -> usize {
    let n = g.node_count() as u32;
    let mut best = 0usize;
    for u in 0..n {
        for v in (u + 1)..n {
            best = best.max(common_neighbor_count(g, u, v));
        }
    }
    best
}

fn intersect_sorted(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::rand_edges;
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

    fn star_graph(leaves: usize) -> Graph {
        Graph::from_edges(leaves + 1, (1..=leaves as u32).map(|v| (0, v)))
    }

    /// A hub adjacent to `mids` mid-tier nodes and to all of their `leaves` leaves each.
    fn star_of_stars(mids: u32, leaves: u32) -> Graph {
        let mut edges = Vec::new();
        let mut next = mids + 1;
        for mid in 1..=mids {
            edges.push((0, mid));
            for _ in 0..leaves {
                edges.push((mid, next));
                edges.push((0, next));
                next += 1;
            }
        }
        Graph::from_edges(next as usize, edges)
    }

    /// The edge-merge count that the forward count replaced: for every canonical edge
    /// `(u, v)`, the common neighbours above `v`.
    fn edge_merge_triangle_count(g: &Graph) -> u64 {
        let above = |x: u32, floor: u32| {
            let list = g.neighbors(x);
            &list[list.partition_point(|&w| w <= floor)..]
        };
        g.edges().iter().map(|&(u, v)| intersect_sorted(above(u, v), above(v, v)) as u64).sum()
    }

    /// The shapes the degree-ordered kernels are checked on: every `n` in `0..=3`, complete
    /// graphs, cycles (all degrees tied), stars, stars of stars, and 72 seeded random inputs
    /// from sparse (mostly isolated nodes) to dense (many degree ties).
    fn kernel_zoo() -> Vec<Graph> {
        let mut graphs: Vec<Graph> = (0..=3).map(Graph::empty).collect();
        graphs.push(Graph::from_edges(2, [(0, 1)]));
        graphs.push(Graph::from_edges(3, [(0, 1), (1, 2)]));
        graphs.extend((3..=8).map(complete_graph));
        graphs.extend(
            (3..=8u32).map(|n| Graph::from_edges(n as usize, (0..n).map(|i| (i, (i + 1) % n)))),
        );
        graphs.extend([star_graph(1), star_graph(7), star_of_stars(5, 4), star_of_stars(12, 8)]);
        let mut rng = StdRng::seed_from_u64(0xC0_7005);
        for round in 0..72 {
            let n = 1 + round % 40;
            let max_len = [n, 4 * n, 12 * n][round % 3];
            graphs.push(Graph::from_edges(n, rand_edges(&mut rng, n as u32, max_len)));
        }
        graphs
    }

    #[test]
    fn degree_order_relabels_by_degree_then_id_with_sorted_lists() {
        for (index, g) in kernel_zoo().iter().enumerate() {
            let n = g.node_count();
            let ordered = DegreeOrdered::new(g);
            // The expected relabelling: old ids sorted by (degree, old id).
            let mut old_id: Vec<u32> = g.nodes().collect();
            old_id.sort_by_key(|&v| (g.degree(v), v));
            let mut new_id = vec![0u32; n];
            for (x, &v) in old_id.iter().enumerate() {
                new_id[v as usize] = x as u32;
            }
            assert_eq!(ordered.node_count(), n, "graph {index}");
            assert_eq!(ordered.adjacency.len(), 2 * g.edge_count(), "graph {index}");
            for (x, &v) in old_id.iter().enumerate() {
                let list = ordered.neighbors(x as u32);
                assert!(list.windows(2).all(|w| w[0] < w[1]), "graph {index}: list {x} unsorted");
                let mut expected: Vec<u32> =
                    g.neighbors(v).iter().map(|&u| new_id[u as usize]).collect();
                expected.sort_unstable();
                assert_eq!(list, expected.as_slice(), "graph {index}: list {x}");
            }
            let degrees: Vec<usize> = (0..n as u32).map(|x| ordered.degree(x)).collect();
            let mut old_degrees = g.degrees();
            old_degrees.sort_unstable();
            assert_eq!(degrees, old_degrees, "graph {index}: degree multiset or order");
        }
    }

    #[test]
    fn degree_ordered_kernels_match_the_references() {
        let execs = [Executor::sequential(), Executor::new(2), Executor::new(8)];
        let zoo = kernel_zoo();
        assert!(zoo.len() >= 64);
        for (index, g) in zoo.iter().enumerate() {
            let ordered = DegreeOrdered::new(g);
            let count = edge_merge_triangle_count(g);
            let local_sensitivity = max_common_neighbors(g);
            for exec in &execs {
                let threads = exec.threads();
                assert_eq!(ordered.triangle_count(exec), count, "graph {index}, threads {threads}");
                assert_eq!(
                    ordered.max_common_neighbors(exec),
                    local_sensitivity,
                    "graph {index}, threads {threads}"
                );
            }
            assert_eq!(triangle_count(g), count, "graph {index}");
        }
        assert_eq!(max_common_neighbors(&star_of_stars(12, 8)), 8);
    }

    #[test]
    fn triangle_count_of_complete_graphs() {
        // K_n has C(n,3) triangles.
        assert_eq!(triangle_count(&complete_graph(3)), 1);
        assert_eq!(triangle_count(&complete_graph(4)), 4);
        assert_eq!(triangle_count(&complete_graph(5)), 10);
        assert_eq!(triangle_count(&complete_graph(6)), 20);
    }

    #[test]
    fn triangle_count_of_triangle_free_graphs() {
        assert_eq!(triangle_count(&star_graph(10)), 0);
        let path = Graph::from_edges(5, (0..4u32).map(|i| (i, i + 1)));
        assert_eq!(triangle_count(&path), 0);
    }

    #[test]
    fn hairpin_count_of_star_is_choose_two() {
        // Star with c leaves: hub degree c, so C(c,2) wedges.
        let g = star_graph(6);
        let stats = MatchingStatistics::of_graph(&g);
        assert_eq!(stats.hairpins, 15.0);
        assert_eq!(stats.tripins, 20.0);
        assert_eq!(stats.edges, 6.0);
        assert_eq!(stats.triangles, 0.0);
    }

    #[test]
    fn statistics_of_complete_graph_match_binomials() {
        let n = 7usize;
        let g = complete_graph(n);
        let stats = MatchingStatistics::of_graph(&g);
        let c2 = (n * (n - 1) / 2) as f64;
        assert_eq!(stats.edges, c2);
        // Each node has degree n-1: H = n * C(n-1, 2), T = n * C(n-1, 3).
        assert_eq!(stats.hairpins, (n * (n - 1) * (n - 2) / 2) as f64);
        assert_eq!(stats.tripins, (n * (n - 1) * (n - 2) * (n - 3) / 6) as f64);
        assert_eq!(stats.triangles, (n * (n - 1) * (n - 2) / 6) as f64);
    }

    #[test]
    fn from_degree_sequence_matches_of_graph_for_degree_statistics() {
        let g = complete_graph(6);
        let degrees: Vec<f64> = g.degrees().iter().map(|&d| d as f64).collect();
        let exact = MatchingStatistics::of_graph(&g);
        let derived = MatchingStatistics::from_degree_sequence(&degrees, exact.triangles);
        assert!((derived.edges - exact.edges).abs() < 1e-9);
        assert!((derived.hairpins - exact.hairpins).abs() < 1e-9);
        assert!((derived.tripins - exact.tripins).abs() < 1e-9);
    }

    #[test]
    fn per_node_triangles_sum_to_three_times_total() {
        let g = complete_graph(5);
        let per_node = per_node_triangles(&g);
        let total: u64 = per_node.iter().sum();
        assert_eq!(total, 3 * triangle_count(&g));
        // In K_5 every node participates in C(4,2) = 6 triangles.
        assert!(per_node.iter().all(|&c| c == 6));
    }

    #[test]
    fn common_neighbors_of_triangle_edge() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)]);
        assert_eq!(common_neighbor_count(&g, 0, 1), 1);
        assert_eq!(common_neighbor_count(&g, 0, 3), 1);
        assert_eq!(common_neighbor_count(&g, 1, 3), 1);
        assert_eq!(common_neighbor_count(&g, 0, 2), 1);
    }

    #[test]
    fn exclusive_neighbors_exclude_the_pair_itself() {
        // Path 0-1-2: N(0)={1}, N(2)={1}: common=1, exclusive=0.
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        assert_eq!(exclusive_neighbor_count(&g, 0, 2), 0);
        // Pair (0,1): N(0)={1}, N(1)={0,2}. Excluding u,v themselves leaves just node 2.
        assert_eq!(exclusive_neighbor_count(&g, 0, 1), 1);
    }

    #[test]
    fn max_common_neighbors_of_complete_graph() {
        // Any pair in K_n has n-2 common neighbours.
        assert_eq!(max_common_neighbors(&complete_graph(6)), 4);
        assert_eq!(max_common_neighbors(&star_graph(5)), 1);
    }

    #[test]
    fn empty_graph_has_zero_counts() {
        let g = Graph::empty(4);
        let stats = MatchingStatistics::of_graph(&g);
        assert_eq!(stats.as_array(), [0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn adding_an_edge_increases_triangles_by_common_neighbors() {
        // This is the identity the local sensitivity argument relies on.
        let g = complete_graph(5).with_edge_removed(0, 1);
        let common = common_neighbor_count(&g, 0, 1);
        let before = triangle_count(&g);
        let after = triangle_count(&g.with_edge_added(0, 1));
        assert_eq!(after - before, common as u64);
    }

    #[test]
    fn hairpin_and_tripin_counts_survive_hub_degrees_past_the_usize_product_range() {
        // d·(d−1)·(d−2) overflows u64 (and wraps/panics in usize) for d ≳ 2.6M; the f64
        // accumulation must instead return the exact binomial. 3·10⁶ is a plausible hub degree
        // for the "millions of users" graphs the roadmap targets.
        let d = 3_000_000usize;
        let df = d as f64;
        assert_eq!(hairpin_count(&[d]), df * (df - 1.0) / 2.0);
        assert_eq!(tripin_count(&[d]), df * (df - 1.0) * (df - 2.0) / 6.0);
        assert!(tripin_count(&[d]) > 4.4e18, "must exceed u64::MAX/4 territory");
        // Small degrees keep their exact closed forms (and degrees 0–2 contribute nothing).
        assert_eq!(hairpin_count(&[0, 1, 2, 3]), 1.0 + 3.0);
        assert_eq!(tripin_count(&[0, 1, 2, 3, 4]), 1.0 + 4.0);
    }

    #[test]
    fn parallel_triangle_kernels_match_sequential_for_any_thread_count() {
        let mut rng = StdRng::seed_from_u64(0xC0_7004);
        for _ in 0..8 {
            let edges = rand_edges(&mut rng, 60, 600);
            let g = Graph::from_edges(60, edges);
            let count = triangle_count(&g);
            let per_node = per_node_triangles(&g);
            for threads in [1usize, 2, 8] {
                let exec = Executor::new(threads);
                assert_eq!(triangle_count_par(&g, &exec), count, "threads {threads}");
                assert_eq!(per_node_triangles_par(&g, &exec), per_node, "threads {threads}");
            }
        }
    }

    // Former proptest properties, now deterministic seeded loops.
    #[test]
    fn handshake_and_wedge_identities() {
        let mut rng = StdRng::seed_from_u64(0xC0_7001);
        for _ in 0..128 {
            let edges = rand_edges(&mut rng, 25, 150);
            let g = Graph::from_edges(25, edges);
            let stats = MatchingStatistics::of_graph(&g);
            let degrees = g.degrees();
            let degree_sum: usize = degrees.iter().sum();
            assert_eq!(degree_sum as f64, 2.0 * stats.edges);
            // Triangles can never exceed wedges / 3 is not an identity, but Δ ≤ H/3 *is*
            // (every triangle contains exactly 3 wedges).
            assert!(3.0 * stats.triangles <= stats.hairpins + 1e-9);
        }
    }

    #[test]
    fn edge_removal_changes_triangles_by_common_neighbors() {
        let mut rng = StdRng::seed_from_u64(0xC0_7002);
        for _ in 0..128 {
            let mut edges = rand_edges(&mut rng, 12, 60);
            if edges.is_empty() {
                edges.push((rng.gen_range(0..12), rng.gen_range(0..12)));
            }
            let g = Graph::from_edges(12, edges);
            if let Some(&(u, v)) = g.edges().first() {
                let expected_drop = common_neighbor_count(&g, u, v) as i64;
                let before = triangle_count(&g) as i64;
                let after = triangle_count(&g.with_edge_removed(u, v)) as i64;
                assert_eq!(before - after, expected_drop);
            }
        }
    }

    #[test]
    fn per_node_triangle_sum_is_three_times_count() {
        let mut rng = StdRng::seed_from_u64(0xC0_7003);
        for _ in 0..128 {
            let edges = rand_edges(&mut rng, 15, 80);
            let g = Graph::from_edges(15, edges);
            let total: u64 = per_node_triangles(&g).iter().sum();
            assert_eq!(total, 3 * triangle_count(&g));
        }
    }
}
