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
            triangles: triangle_count(g, &Executor::sequential()) as f64,
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

/// Exact number of triangles in `g` on `exec`'s compute threads: relabels `g` by degree and
/// runs the forward count of [`DegreeOrdered::triangle_count`]. The partial counts are
/// integers, so the result is identical for any thread count.
// lint:source(sensitive)
pub fn triangle_count(g: &Graph, exec: &Executor) -> u64 {
    DegreeOrdered::new(g).triangle_count(exec)
}

/// A graph relabelled so that node ids ascend in `(degree, old id)`, stored as CSR with every
/// neighbour list sorted and split at its own node: the neighbours below `v` come first, and
/// `below[v]` records where the ones above `v` start.
///
/// Labels do not change the triangle count or any common-neighbour count, so the two integers
/// of the triangle release can be computed here instead of on the input graph. The ordering
/// makes both cheaper:
///
/// * In the forward count ([`DegreeOrdered::triangle_count`]) each node only meets neighbours
///   of higher degree, so every list it walks has at most `√(2m)` entries.
/// * The local-sensitivity scan ([`DegreeOrdered::max_common_neighbors`]) visits the highest
///   degrees first and stops as soon as no degree can beat the maximum found so far.
///
/// Neither kernel searches a list: the forward count reads the split as a slice bound, and the
/// scan walks each two-hop list from its end while the ids stay above its left endpoint.
///
/// Building it costs `O(n + m)` time, one extra CSR and one `u32` per node of memory. The old
/// ids are not kept.
#[derive(Debug)]
pub struct DegreeOrdered {
    /// CSR offsets into `adjacency`, length `node_count() + 1`.
    offsets: Vec<usize>,
    /// Per node, how many of its neighbours have a smaller id: the length of the list's prefix
    /// that `above` skips.
    below: Vec<u32>,
    /// Concatenated neighbour lists in new ids, each sorted ascending.
    adjacency: Vec<u32>,
}

impl DegreeOrdered {
    /// Relabels `g` in `O(n + m)`: a stable counting sort by degree assigns the new ids, then
    /// one scatter visits the nodes in new-id order and appends each one to its neighbours'
    /// lists. The appends arrive in ascending new id, so every list comes out sorted. While
    /// filling, `offsets[x + 1]` holds the next free slot of node `x`'s list; it ends at the
    /// list's end, which is exactly its final CSR value, so no separate cursor array is needed.
    /// When the scatter reaches `x`, every id already appended to `x`'s list is smaller than
    /// `x`, so that cursor's distance from the list's start is `below[x]`.
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
        let mut below = vec![0u32; n];
        let mut list_start = 0usize;
        for (x, &v) in old_id.iter().enumerate() {
            below[x] = (offsets[x + 1] - list_start) as u32;
            let list = g.neighbors(v);
            list_start += list.len();
            for &u in list {
                let cursor = &mut offsets[new_id[u as usize] as usize + 1];
                adjacency[*cursor] = x as u32;
                *cursor += 1;
            }
        }
        DegreeOrdered { offsets, below, adjacency }
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

    /// The neighbours of `v` with a larger id: the suffix of its sorted list past `below[v]`.
    fn above(&self, v: u32) -> &[u32] {
        &self.neighbors(v)[self.below[v as usize] as usize..]
    }

    /// Exact number of triangles, by the forward algorithm (Schank & Wagner 2005). A triangle
    /// `v < u < w` is counted once, at its lowest vertex `v`: `above(v)` is marked with the
    /// stamp `v + 1`, and every `w ∈ above(u)` of every `u ∈ above(v)` whose mark carries that
    /// stamp closes one. Each participant keeps one zero-initialised `O(n)` mark array, which
    /// is never reset: a mark left by an earlier `v` holds another stamp. No stamp is 0, the
    /// initial mark, except `n` truncated to `u32` at `n = 2³²`, and that stamp belongs to the
    /// last node, which has no `above`. Nodes are split into fixed chunks whose integer counts
    /// are summed, so the result is identical for any thread count.
    // lint:source(sensitive)
    pub fn triangle_count(&self, exec: &Executor) -> u64 {
        let n = self.node_count();
        let (count, _) = exec.fold_reduce(
            n,
            FORWARD_CHUNK,
            self.forward_work(),
            // (triangles found, the stamp of the last `v` whose above-list holds each node).
            || (0u64, vec![0u32; n]),
            |(count, marks), nodes| {
                for v in nodes {
                    let stamp = (v + 1) as u32;
                    let above_v = self.above(v as u32);
                    for &u in above_v {
                        marks[u as usize] = stamp;
                    }
                    for &u in above_v {
                        for &w in self.above(u) {
                            *count += u64::from(marks[w as usize] == stamp);
                        }
                    }
                }
            },
            |a, b| (a.0 + b.0, a.1),
        );
        count
    }

    /// The largest common-neighbour count `max_ij a_ij` over all node pairs: the local
    /// sensitivity of the triangle count.
    ///
    /// Left endpoints `i` are scanned from the highest degree down. For each one, the
    /// `i — v — j` wedges are counted into `j > i` only, so each pair is counted once, from its
    /// lower-degree end; each two-hop list is walked from its end while `j > i`. Because
    /// `a_ij ≤ d_i`, an `i` whose degree is at most the running maximum cannot raise it. Every
    /// later `i` in the chunk has no larger degree, so the chunk stops there.
    ///
    /// Each participant keeps its own running maximum and one zero-initialised `O(n)` array of
    /// `u64` cells, holding `((i + 1) << 32) | a_ij` for the last `i` that reached `j`. A cell
    /// whose stamp is not the current `i + 1` is stale and counts as zero, so the cells are
    /// never reset. No stamp is 0 except `n << 32` overflowing at `n = 2³²`, and that stamp
    /// belongs to the last node, which has no `j > i`. Skipping only ever drops pairs that
    /// cannot beat a maximum already found, and the merge is an integer `max`, so the result
    /// is identical for any thread count.
    pub fn max_common_neighbors(&self, exec: &Executor) -> usize {
        const COUNT: u64 = u32::MAX as u64;
        let n = self.node_count();
        let (best, _) = exec.fold_reduce(
            n,
            SCAN_CHUNK,
            self.scan_work(),
            // (running max, stamped common-neighbour counts indexed by j).
            || (0usize, vec![0u64; n]),
            |(best, cells), positions| {
                for t in positions {
                    let i = (n - 1 - t) as u32;
                    if self.degree(i) <= *best {
                        break;
                    }
                    let stamp = (u64::from(i) + 1) << 32;
                    let mut top = 0u64;
                    for &v in self.neighbors(i) {
                        for &j in self.neighbors(v).iter().rev() {
                            if j <= i {
                                break;
                            }
                            let cell = &mut cells[j as usize];
                            let current = if *cell & !COUNT == stamp { *cell } else { stamp };
                            *cell = current + 1;
                            top = top.max(*cell & COUNT);
                        }
                    }
                    *best = (*best).max(top as usize);
                }
            },
            |a, b| if a.0 >= b.0 { a } else { b },
        );
        best
    }

    /// Cost hint per node of [`DegreeOrdered::triangle_count`]: `⌈d̄⌉·(⌈d̄⌉ + 12)` ns for
    /// average degree `d̄`. Measured single-threaded (release build, 2-core x86-64 host; median
    /// of 31 runs) at 43 and 78 ns per node on 2^14- and 2^17-node SKGs (`⌈d̄⌉` = 3, 4), and 122
    /// and 960 ns on 20'000-node preferential-attachment graphs (`⌈d̄⌉` = 8, 32); the formula is
    /// within 2× of all four. A pure function of the graph shape, as the executor's cutoff
    /// requires.
    fn forward_work(&self) -> Work {
        let d = self.average_degree_ceil();
        Work::per_item_ns(d * (d + 12))
    }

    /// Cost hint per left endpoint of [`DegreeOrdered::max_common_neighbors`]:
    /// `5·max(⌈d̄⌉, 8)` ns. On sparse graphs the cost depends less on the average degree than on
    /// how soon the running maximum prunes the scan. Measured on the same four graphs and host
    /// as [`DegreeOrdered::forward_work`] at 27, 71, 23 and 224 ns per left endpoint, pruned
    /// ones included; the formula is within 2× of all four.
    fn scan_work(&self) -> Work {
        Work::per_item_ns(5 * self.average_degree_ceil().max(8))
    }

    /// `⌈2m / n⌉`, the average degree rounded up (0 for an empty graph).
    fn average_degree_ceil(&self) -> u64 {
        (self.adjacency.len() as u64).div_ceil(self.node_count().max(1) as u64)
    }
}

/// Number of triangles incident to each node, on `exec`'s compute threads. Edge-partitioned
/// with one `O(n)` counter array per participant; the per-participant arrays are merged
/// element-wise, which is exact (integer sums), so the result is identical for any thread
/// count.
pub fn per_node_triangles(g: &Graph, exec: &Executor) -> Vec<u64> {
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

    fn seq() -> Executor {
        Executor::sequential()
    }

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

    /// A graph whose largest common-neighbour count lies past the scan's first chunk. Degrees,
    /// high to low: a hub (2080) and 39 more star centres (2000); `p` and `q` (500), adjacent
    /// and sharing 60 connectors; a block of 65 nodes of degree 100, whose first and last each
    /// share 40 connectors with the hub and whose others hold only leaves; then connectors and
    /// leaves. The maximum, `a_pq = 60`, is found at `p`, the 42nd left endpoint, after star
    /// centres that take long enough for another participant to claim `p`'s chunk. The block's
    /// ends are 64 ids apart, so a stamp that repeated with a period dividing 64 would add
    /// their two counts of 40.
    fn stars_ahead_of_the_maximum() -> Graph {
        const STARS: u32 = 40;
        const BLOCK: u32 = 65;
        assert!(STARS as usize > SCAN_CHUNK);
        let mut edges = Vec::new();
        let mut next = STARS + 2 + BLOCK;
        // Adds `count` new nodes, each adjacent to every node of `ends`.
        let mut attach = |edges: &mut Vec<(u32, u32)>, ends: &[u32], count: u32| {
            for _ in 0..count {
                edges.extend(ends.iter().map(|&end| (end, next)));
                next += 1;
            }
        };
        for centre in 0..STARS {
            attach(&mut edges, &[centre], 2000);
        }
        let (hub, p, q) = (0, STARS, STARS + 1);
        edges.push((p, q));
        attach(&mut edges, &[p, q], 60);
        attach(&mut edges, &[p], 439);
        attach(&mut edges, &[q], 439);
        let block = STARS + 2..STARS + 2 + BLOCK;
        for node in block.clone() {
            if node == block.start || node == block.end - 1 {
                attach(&mut edges, &[node, hub], 40);
                attach(&mut edges, &[node], 60);
            } else {
                attach(&mut edges, &[node], 100);
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

    /// The scan that stamping replaced: each two-hop list is binary-searched for its part past
    /// `i`, and the counters are reset through a list of the `j` touched.
    fn searching_max_common_neighbors(ordered: &DegreeOrdered, exec: &Executor) -> usize {
        let n = ordered.node_count();
        let (best, _, _) = exec.fold_reduce(
            n,
            SCAN_CHUNK,
            ordered.scan_work(),
            || (0usize, vec![0u32; n], Vec::<u32>::new()),
            |(best, counts, touched), positions| {
                for t in positions {
                    let i = (n - 1 - t) as u32;
                    if ordered.degree(i) <= *best {
                        break;
                    }
                    for &v in ordered.neighbors(i) {
                        let two_hop = ordered.neighbors(v);
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

    /// A stochastic Kronecker graph on `2^k` nodes by ball dropping: each of `draws` edges
    /// descends `k` levels, picking the initiator cell `(0,0)`, `(0,1)`, `(1,0)` or `(1,1)` with
    /// weight `a`, `b`, `b` or `c`. Duplicates and self-loops collapse in `Graph::from_edges`.
    fn ball_dropping_skg(theta: [f64; 3], k: u32, draws: usize, rng: &mut StdRng) -> Graph {
        let [a, b, c] = theta;
        let edges: Vec<(u32, u32)> = (0..draws)
            .map(|_| {
                (0..k).fold((0u32, 0u32), |(u, v), _| {
                    let r = rng.gen::<f64>() * (a + 2.0 * b + c);
                    let (du, dv) = if r < a {
                        (0, 0)
                    } else if r < a + b {
                        (0, 1)
                    } else if r < a + 2.0 * b {
                        (1, 0)
                    } else {
                        (1, 1)
                    };
                    (2 * u + du, 2 * v + dv)
                })
            })
            .collect();
        Graph::from_edges(1 << k, edges)
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
            assert_eq!(triangle_count(g, &execs[0]), count, "graph {index}");
        }
        assert_eq!(max_common_neighbors(&star_of_stars(12, 8)), 8);
    }

    #[test]
    fn above_is_the_suffix_of_each_list_past_its_own_node() {
        for (index, g) in kernel_zoo().iter().enumerate() {
            let ordered = DegreeOrdered::new(g);
            for x in 0..ordered.node_count() as u32 {
                let list = ordered.neighbors(x);
                let past: Vec<u32> = list.iter().copied().filter(|&u| u > x).collect();
                assert_eq!(ordered.above(x), past.as_slice(), "graph {index}: node {x}");
                assert_eq!(
                    ordered.below[x as usize] as usize + past.len(),
                    list.len(),
                    "graph {index}: node {x}"
                );
            }
        }
    }

    #[test]
    fn degree_ordered_kernels_match_the_references_past_one_chunk() {
        // Inputs of several forward chunks whose scans outlast several scan chunks, so marks and
        // stamps are reused across chunks and the per-participant results are merged.
        let mut rng = StdRng::seed_from_u64(0xC0_7006);
        let inputs = [
            ("skg k=12", ball_dropping_skg([0.9, 0.6, 0.2], 12, 12_000, &mut rng)),
            (
                "preferential attachment",
                crate::generators::preferential_attachment(5_000, 4, &mut rng),
            ),
            ("stars ahead of the maximum", stars_ahead_of_the_maximum()),
        ];
        for (name, g) in &inputs {
            let ordered = DegreeOrdered::new(g);
            let n = ordered.node_count();
            let count = edge_merge_triangle_count(g);
            let local_sensitivity = searching_max_common_neighbors(&ordered, &seq());
            assert!(n > 3 * FORWARD_CHUNK, "{name}: {n} nodes");
            assert!(count > 0, "{name}");
            let scanned = (0..n as u32).filter(|&i| ordered.degree(i) > local_sensitivity).count();
            assert!(scanned > 3 * SCAN_CHUNK, "{name}: {scanned} left endpoints scanned");
            for threads in [1usize, 2, 8] {
                let exec = Executor::new(threads);
                // Chunks are claimed dynamically, so repeat to vary which participant scans which.
                for round in 0..4 {
                    let context = format!("{name}, threads {threads}, round {round}");
                    assert_eq!(ordered.triangle_count(&exec), count, "{context}");
                    assert_eq!(ordered.max_common_neighbors(&exec), local_sensitivity, "{context}");
                }
            }
        }
    }

    #[test]
    fn triangle_count_of_complete_graphs() {
        // K_n has C(n,3) triangles.
        assert_eq!(triangle_count(&complete_graph(3), &seq()), 1);
        assert_eq!(triangle_count(&complete_graph(4), &seq()), 4);
        assert_eq!(triangle_count(&complete_graph(5), &seq()), 10);
        assert_eq!(triangle_count(&complete_graph(6), &seq()), 20);
    }

    #[test]
    fn triangle_count_of_triangle_free_graphs() {
        assert_eq!(triangle_count(&star_graph(10), &seq()), 0);
        let path = Graph::from_edges(5, (0..4u32).map(|i| (i, i + 1)));
        assert_eq!(triangle_count(&path, &seq()), 0);
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
        let per_node = per_node_triangles(&g, &seq());
        let total: u64 = per_node.iter().sum();
        assert_eq!(total, 3 * triangle_count(&g, &seq()));
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
        let before = triangle_count(&g, &seq());
        let after = triangle_count(&g.with_edge_added(0, 1), &seq());
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
            let count = triangle_count(&g, &seq());
            let per_node = per_node_triangles(&g, &seq());
            for threads in [1usize, 2, 8] {
                let exec = Executor::new(threads);
                assert_eq!(triangle_count(&g, &exec), count, "threads {threads}");
                assert_eq!(per_node_triangles(&g, &exec), per_node, "threads {threads}");
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
                let before = triangle_count(&g, &seq()) as i64;
                let after = triangle_count(&g.with_edge_removed(u, v), &seq()) as i64;
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
            let total: u64 = per_node_triangles(&g, &seq()).iter().sum();
            assert_eq!(total, 3 * triangle_count(&g, &seq()));
        }
    }
}
