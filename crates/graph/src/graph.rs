//! The simple undirected graph type and its builder.
//!
//! Section 3.2 of the paper defines how a (possibly directed, possibly loopy) realization of a
//! stochastic Kronecker matrix is turned into the undirected simple graph that is actually
//! modelled: self-loops are dropped and the adjacency is symmetrised. [`Graph::from_edges`]
//! performs exactly those cleaning steps for arbitrary edge input, and every other constructor
//! ([`GraphBuilder`], [`Graph::from_distinct_draws`], the edge-list parser) goes through the same
//! private `O(n + m)` bucket sort-dedup, so every graph in the workspace is a simple undirected
//! graph by construction.

use std::collections::BTreeSet;

/// An immutable simple undirected graph.
///
/// Nodes are `0..node_count()`. Neighbour lists are sorted, contain no duplicates and no
/// self-loops. Each undirected edge `{u, v}` is stored once in [`Graph::edges`] (with `u < v`)
/// and appears in both adjacency lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR offsets into `adjacency`, length `node_count() + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbour lists.
    adjacency: Vec<u32>,
    /// Canonical edge list with `u < v`.
    edges: Vec<(u32, u32)>,
}

impl Graph {
    /// Creates an empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph { offsets: vec![0; n + 1], adjacency: Vec::new(), edges: Vec::new() }
    }

    /// Builds a graph from an iterator of undirected edges on `n` nodes — the one construction
    /// path. Each pair is canonicalised to `(min, max)` and self-loops are dropped, then one
    /// linear-time bucket pass (`sorted_distinct`) sorts and dedups the pairs, so duplicates
    /// and reversed pairs collapse to one edge. The CSR is then filled straight from the sorted
    /// list.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        Graph::from_sorted_edges(n, sorted_distinct(n, edges.into_iter().collect()))
    }

    /// Builds the graph of the first `target` distinct non-loop pairs of a stream of draws,
    /// making at most `max_attempts` draws — byte-identical (graph and number of draws) to the
    /// sequential rejection loop
    ///
    /// ```text
    /// while distinct < target && attempts < max_attempts { attempts += 1; insert(draw()) }
    /// ```
    ///
    /// but without a per-attempt set insertion. `bulk` holds the stream's first
    /// `min(target, max_attempts)` draws, made by the caller however it likes (the SKG sampler
    /// makes them in parallel): each draw adds at most one distinct edge, so the loop above
    /// could not have stopped earlier and the bulk round can never overshoot `target`. A
    /// sequential top-up then continues the stream through `draw`, one draw at a time, checking
    /// each pair against the bulk edges (`binary_search`) and the few top-up edges (a
    /// `BTreeSet`), and stops on exactly the draw where the loop stops. The two sorted runs
    /// merge once at the end, so near-complete targets stay `O(log E)` per draw.
    ///
    /// # Panics
    /// Panics if `bulk` does not hold exactly `min(target, max_attempts)` draws, or if a drawn
    /// endpoint is `>= n`.
    pub fn from_distinct_draws(
        n: usize,
        target: usize,
        max_attempts: usize,
        bulk: Vec<(u32, u32)>,
        mut draw: impl FnMut() -> (u32, u32),
    ) -> Self {
        let bulk_attempts = target.min(max_attempts);
        assert_eq!(bulk.len(), bulk_attempts, "the bulk round is min(target, max_attempts) draws");
        let mut edges = sorted_distinct(n, bulk);

        let mut top_up = BTreeSet::new();
        let mut attempts = bulk_attempts;
        while edges.len() + top_up.len() < target && attempts < max_attempts {
            attempts += 1;
            let (u, v) = draw();
            if let Some(edge) = canonical_edge(n, u, v) {
                if edges.binary_search(&edge).is_err() {
                    top_up.insert(edge);
                }
            }
        }
        if !top_up.is_empty() {
            // One linear merge of the two sorted, disjoint runs.
            let mut top_up = top_up.into_iter().peekable();
            let mut merged = Vec::with_capacity(edges.len() + top_up.len());
            for edge in edges {
                while let Some(extra) = top_up.next_if(|&extra| extra < edge) {
                    merged.push(extra);
                }
                merged.push(edge);
            }
            merged.extend(top_up);
            edges = merged;
        }
        Graph::from_sorted_edges(n, edges)
    }

    /// Fills the CSR from a strictly increasing list of canonical `(u, v)`, `u < v`, edges.
    ///
    /// Scanning in `(u, v)` order appends each node's smaller neighbours (as the `v` of edges
    /// `(w, x)`, in ascending `w`) before its larger ones (as the `u` of edges `(x, w)`, in
    /// ascending `w`), so every neighbour list comes out sorted without a per-node sort.
    ///
    /// `offsets[x + 1]` first counts node `x`'s degree, then holds the start of its list, then,
    /// while filling, the next free slot of that list. It ends at the list's end, which is
    /// exactly its final CSR value, so no separate cursor array is needed.
    fn from_sorted_edges(n: usize, edges: Vec<(u32, u32)>) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must be sorted and distinct");
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        let mut start = 0usize;
        for slot in &mut offsets[1..] {
            let degree = *slot;
            *slot = start;
            start += degree;
        }
        let mut adjacency = vec![0u32; start];
        for &(u, v) in &edges {
            for (x, neighbor) in [(u, v), (v, u)] {
                let cursor = &mut offsets[x as usize + 1];
                adjacency[*cursor] = neighbor;
                *cursor += 1;
            }
        }
        Graph { offsets, adjacency, edges }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The canonical edge list (each edge once, endpoints ordered `u < v`).
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Sorted neighbour list of `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let u = u as usize;
        &self.adjacency[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Degree of node `u`.
    pub fn degree(&self, u: u32) -> usize {
        self.neighbors(u).len()
    }

    /// Degree of every node, indexed by node id.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.node_count() as u32).map(|u| self.degree(u)).collect()
    }

    /// Whether the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if u as usize >= self.node_count() || v as usize >= self.node_count() {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Maximum degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.node_count() as u32).map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Average degree `2E / N` (0.0 for a graph with no nodes).
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count() as f64
        }
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = u32> {
        0..self.node_count() as u32
    }

    /// Returns the subgraph induced on `nodes` (relabelled `0..nodes.len()` in the given order),
    /// together with the mapping from new ids to old ids.
    pub fn induced_subgraph(&self, nodes: &[u32]) -> (Graph, Vec<u32>) {
        let mut new_id = vec![u32::MAX; self.node_count()];
        for (new, &old) in nodes.iter().enumerate() {
            new_id[old as usize] = new as u32;
        }
        let mut builder = GraphBuilder::new(nodes.len());
        for &(u, v) in &self.edges {
            let (nu, nv) = (new_id[u as usize], new_id[v as usize]);
            if nu != u32::MAX && nv != u32::MAX {
                builder.add_edge(nu, nv);
            }
        }
        (builder.build(), nodes.to_vec())
    }

    /// Returns a copy of the graph with the undirected edge `{u, v}` added (no-op if present or
    /// if `u == v`). Used by sensitivity analyses that explore edge-neighbouring graphs
    /// (Definition 4.1).
    pub fn with_edge_added(&self, u: u32, v: u32) -> Graph {
        let mut edges = self.edges.clone();
        edges.push((u.min(v), u.max(v)));
        Graph::from_edges(self.node_count(), edges)
    }

    /// Returns a copy of the graph with the undirected edge `{u, v}` removed (no-op if absent).
    pub fn with_edge_removed(&self, u: u32, v: u32) -> Graph {
        let key = (u.min(v), u.max(v));
        let edges: Vec<(u32, u32)> = self.edges.iter().copied().filter(|&e| e != key).collect();
        Graph::from_edges(self.node_count(), edges)
    }
}

/// The canonical `(min, max)` form of the undirected pair `{u, v}`, or `None` for a self-loop.
///
/// # Panics
/// Panics if an endpoint is `>= n`.
fn canonical_edge(n: usize, u: u32, v: u32) -> Option<(u32, u32)> {
    assert!((u as usize) < n && (v as usize) < n, "edge ({u},{v}) out of bounds for {n} nodes");
    (u != v).then(|| (u.min(v), u.max(v)))
}

/// Turns raw pairs on `n` nodes into the strictly increasing list of their distinct canonical
/// `(u, v)`, `u < v`, edges, in `O(n + m)` and in place — the sort behind every [`Graph`].
///
/// One pass canonicalises the pairs, drops self-loops and counts the pairs per smaller
/// endpoint `u`; a second scatters each larger endpoint `v` into its `u` bucket (one `u32` per
/// pair); then each bucket, which mostly holds a few entries, is sorted and deduped and written
/// back as `(u, v)` pairs in bucket order. A set of distinct pairs has exactly one sorted
/// order, so this agrees byte for byte with a comparison sort plus `dedup`.
///
/// # Panics
/// Panics if an endpoint is `>= n`.
fn sorted_distinct(n: usize, mut pairs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    // `bucket_end[u + 1]` counts bucket `u`, then holds its start, then — while scattering —
    // its next free slot, which ends as the bucket's end. `usize`, so no edge count overflows.
    let mut bucket_end = vec![0usize; n + 1];
    pairs.retain_mut(|pair| match canonical_edge(n, pair.0, pair.1) {
        Some(edge) => {
            *pair = edge;
            bucket_end[edge.0 as usize + 1] += 1;
            true
        }
        None => false,
    });
    let mut start = 0usize;
    for slot in &mut bucket_end[1..] {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut larger = vec![0u32; pairs.len()];
    for &(u, v) in &pairs {
        let cursor = &mut bucket_end[u as usize + 1];
        larger[*cursor] = v;
        *cursor += 1;
    }
    pairs.clear();
    for u in 0..n {
        let bucket = &mut larger[bucket_end[u]..bucket_end[u + 1]];
        bucket.sort_unstable();
        let mut previous = None;
        for &v in bucket.iter() {
            if previous != Some(v) {
                pairs.push((u as u32, v));
                previous = Some(v);
            }
        }
    }
    pairs
}

/// Accumulates edges for [`Graph::from_edges`]: a thin `Vec` wrapper for generators that add
/// edges one at a time.
///
/// Cleaning mirrors Section 3.2 of the paper: direction is ignored, self-loops are dropped, and
/// parallel edges collapse to one — all by the bucket sort-dedup in [`Graph::from_edges`] at
/// [`GraphBuilder::build`] time.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::new() }
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are dropped; duplicates collapse at build
    /// time.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn add_edge(&mut self, u: u32, v: u32) {
        self.edges.extend(canonical_edge(self.n, u, v));
    }

    /// Finalises the builder into an immutable [`Graph`].
    pub fn build(self) -> Graph {
        Graph::from_edges(self.n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::rand_edges;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn triangle_plus_tail() -> Graph {
        // 0-1, 1-2, 2-0 triangle with a tail 2-3.
        Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(g.neighbors(3).is_empty());
    }

    #[test]
    fn node_and_edge_counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn neighbors_are_sorted_and_symmetric() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbors(3), &[2]);
        for &(u, v) in g.edges() {
            assert!(g.has_edge(u, v));
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn self_loops_are_dropped() {
        let g = Graph::from_edges(3, vec![(0, 0), (1, 1), (0, 1)]);
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn duplicate_and_reversed_edges_collapse() {
        let g = Graph::from_edges(3, vec![(0, 1), (1, 0), (0, 1), (2, 1), (1, 2)]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn degrees_match_adjacency() {
        let g = triangle_plus_tail();
        assert_eq!(g.degrees(), vec![2, 2, 3, 1]);
        assert_eq!(g.max_degree(), 3);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn has_edge_is_false_for_out_of_range_nodes() {
        let g = triangle_plus_tail();
        assert!(!g.has_edge(0, 17));
        assert!(!g.has_edge(17, 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn builder_rejects_out_of_range_edge() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn builder_drops_duplicates_reversals_and_loops() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        b.add_edge(2, 2);
        b.add_edge(1, 2);
        let g = b.build();
        assert_eq!(g.edges(), &[(0, 1), (1, 2)]);
        assert_eq!(g, Graph::from_edges(3, vec![(0, 1), (1, 2)]));
    }

    #[test]
    fn edges_are_canonical_and_unique() {
        let g = triangle_plus_tail();
        for &(u, v) in g.edges() {
            assert!(u < v);
        }
        let set: BTreeSet<_> = g.edges().iter().collect();
        assert_eq!(set.len(), g.edge_count());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = triangle_plus_tail();
        let (sub, map) = g.induced_subgraph(&[0, 1, 2]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 3);
        assert_eq!(map, vec![0, 1, 2]);
        let (sub2, _) = g.induced_subgraph(&[2, 3]);
        assert_eq!(sub2.edge_count(), 1);
    }

    #[test]
    fn with_edge_added_and_removed_are_inverse_operations() {
        let g = triangle_plus_tail();
        let g2 = g.with_edge_added(0, 3);
        assert_eq!(g2.edge_count(), g.edge_count() + 1);
        assert!(g2.has_edge(0, 3));
        let g3 = g2.with_edge_removed(3, 0);
        assert_eq!(g3, g);
    }

    #[test]
    fn with_edge_added_is_noop_for_existing_edge_or_loop() {
        let g = triangle_plus_tail();
        assert_eq!(g.with_edge_added(0, 1), g);
        assert_eq!(g.with_edge_added(2, 2), g);
    }

    #[test]
    fn sum_of_degrees_is_twice_edges() {
        let g = triangle_plus_tail();
        let sum: usize = g.degrees().iter().sum();
        assert_eq!(sum, 2 * g.edge_count());
    }

    // Former proptest properties, now deterministic seeded loops.
    #[test]
    fn builder_always_produces_simple_symmetric_graph() {
        let mut rng = StdRng::seed_from_u64(0x62_7001);
        for _ in 0..128 {
            let edges = rand_edges(&mut rng, 30, 200);
            let g = Graph::from_edges(30, edges.clone());
            // No self loops, all neighbour lists sorted and duplicate-free, symmetry holds.
            for u in g.nodes() {
                let nbrs = g.neighbors(u);
                assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
                assert!(!nbrs.contains(&u));
                for &v in nbrs {
                    assert!(g.neighbors(v).contains(&u));
                }
                // The CSR fill does no per-node sort: each list must be exactly the smaller
                // neighbours ascending, then the larger ones ascending.
                let (smaller, larger) = nbrs.split_at(nbrs.partition_point(|&v| v < u));
                let mut expect_smaller: Vec<u32> =
                    edges.iter().filter(|&&(a, b)| b == u && a < u).map(|&(a, _)| a).collect();
                expect_smaller
                    .extend(edges.iter().filter(|&&(a, b)| a == u && b < u).map(|&(_, b)| b));
                expect_smaller.sort_unstable();
                expect_smaller.dedup();
                assert_eq!(smaller, expect_smaller.as_slice());
                assert!(larger.iter().all(|&v| v > u));
            }
            let degree_sum: usize = g.degrees().iter().sum();
            assert_eq!(degree_sum, 2 * g.edge_count());
        }
    }

    /// The pre-sort-dedup construction: a `BTreeSet` of canonical pairs and per-node sorted
    /// neighbour lists.
    fn btreeset_reference(n: usize, edges: &[(u32, u32)]) -> (Vec<(u32, u32)>, Vec<Vec<u32>>) {
        let set: BTreeSet<(u32, u32)> =
            edges.iter().filter(|&&(u, v)| u != v).map(|&(u, v)| (u.min(v), u.max(v))).collect();
        let mut adjacency = vec![Vec::new(); n];
        for &(u, v) in &set {
            adjacency[u as usize].push(v);
            adjacency[v as usize].push(u);
        }
        for list in &mut adjacency {
            list.sort_unstable();
        }
        (set.into_iter().collect(), adjacency)
    }

    #[test]
    fn from_edges_matches_btreeset_reference() {
        let check = |n: usize, edges: &[(u32, u32)], case: &str| {
            let g = Graph::from_edges(n, edges.iter().copied());
            let (canonical, adjacency) = btreeset_reference(n, edges);
            assert_eq!(g.node_count(), n, "{case}");
            assert_eq!(g.edges(), canonical.as_slice(), "{case}");
            for u in g.nodes() {
                assert_eq!(g.neighbors(u), adjacency[u as usize].as_slice(), "{case}: node {u}");
            }
        };
        let mut rng = StdRng::seed_from_u64(0x62_7003);
        for round in 0..256 {
            let n = 1 + round % 40;
            // Random lists with loops, duplicates and both orientations of the same pair.
            let mut edges = rand_edges(&mut rng, n as u32, 300);
            let reversed: Vec<(u32, u32)> = edges.iter().take(20).map(|&(u, v)| (v, u)).collect();
            edges.extend(reversed);
            check(n, &edges, &format!("round {round}"));
        }
        // Shapes that stress the bucket pass. A star: every pair lands in node 0's bucket, in
        // both orientations, with repeats and in scrambled order.
        let mut star: Vec<(u32, u32)> = (1..500u32).flat_map(|v| [(0, v), (v, 0)]).collect();
        star.extend((1..500u32).step_by(7).map(|v| (v, 0)));
        star.shuffle(&mut rng);
        check(500, &star, "star");
        // All duplicates of one pair, including its reversal and a loop.
        let mut duplicates = vec![(3, 7); 200];
        duplicates.extend([(7, 3), (5, 5), (7, 3)]);
        check(10, &duplicates, "all duplicates");
        // Only reversed pairs: every larger endpoint comes first.
        let reversed: Vec<(u32, u32)> = rand_edges(&mut rng, 60, 400)
            .into_iter()
            .filter(|&(u, v)| u != v)
            .map(|(u, v)| (u.max(v), u.min(v)))
            .collect();
        check(60, &reversed, "only reversed pairs");
        // n ≫ m: nearly every bucket is empty.
        let sparse: Vec<(u32, u32)> =
            (0..40).map(|_| (rng.gen_range(0..100_000u32), rng.gen_range(0..100_000u32))).collect();
        check(100_000, &sparse, "n >> m");
        // Empty input, with and without nodes.
        check(0, &[], "empty, no nodes");
        check(7, &[], "empty, 7 nodes");
    }

    #[test]
    fn from_distinct_draws_matches_the_sequential_loop() {
        // The reference: one BTreeSet insertion per draw until `target` distinct edges or
        // `max_attempts` draws. Both must make the same draws and yield the same graph.
        let mut rng = StdRng::seed_from_u64(0x62_7004);
        for round in 0..200 {
            let n: usize = 2 + round % 12;
            let max_edges = n * (n - 1) / 2;
            let target = rng.gen_range(0..max_edges + 3).min(max_edges);
            let max_attempts: usize = rng.gen_range(0..4 * target + 2);
            let stream: Vec<(u32, u32)> = (0..max_attempts + 1)
                .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
                .collect();

            let mut set = BTreeSet::new();
            let mut attempts = 0;
            while set.len() < target && attempts < max_attempts {
                let (u, v) = stream[attempts];
                attempts += 1;
                if u != v {
                    set.insert((u.min(v), u.max(v)));
                }
            }

            let bulk = target.min(max_attempts);
            let mut used = bulk;
            let g = Graph::from_distinct_draws(
                n,
                target,
                max_attempts,
                stream[..bulk].to_vec(),
                || {
                    used += 1;
                    stream[used - 1]
                },
            );
            assert_eq!(used, attempts, "round {round}: draw count differs");
            assert_eq!(g, Graph::from_edges(n, set), "round {round}: graph differs");
        }
    }

    #[test]
    fn edge_addition_increases_count_by_at_most_one() {
        let mut rng = StdRng::seed_from_u64(0x62_7002);
        for _ in 0..128 {
            let edges = rand_edges(&mut rng, 15, 60);
            let extra = (rng.gen_range(0..15u32), rng.gen_range(0..15u32));
            let g = Graph::from_edges(15, edges);
            let g2 = g.with_edge_added(extra.0, extra.1);
            assert!(g2.edge_count() >= g.edge_count());
            assert!(g2.edge_count() <= g.edge_count() + 1);
        }
    }
}
