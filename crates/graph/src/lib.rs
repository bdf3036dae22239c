//! `kronpriv-graph` — the graph substrate for the `kronpriv` workspace.
//!
//! The paper treats an observed network as a simple, undirected, unweighted graph (Section 3.2:
//! self-loops removed, adjacency symmetrised). This crate provides:
//!
//! * [`Graph`]: an immutable simple undirected graph stored as sorted adjacency lists (CSR),
//!   built through [`Graph::from_edges`], whose linear-time bucket sort-dedup performs the
//!   paper's cleaning steps,
//! * [`counts`]: the four matching statistics the Gleich–Owen estimator equates
//!   (edges `E`, hairpins/wedges `H`, tripins/3-stars `T`, triangles `Δ`), per-node triangle
//!   counts, and common-neighbour queries needed by the smooth-sensitivity computation,
//! * [`traversal`]: BFS distances, connected components and reachable-pair counting used for the
//!   hop plot,
//! * [`generators`]: Erdős–Rényi, preferential-attachment and Chung–Lu random graphs used as
//!   baselines and as synthetic stand-ins for unavailable datasets,
//! * [`io`]: SNAP-style edge-list parsing and writing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counts;
pub mod generators;
pub mod graph;
pub mod io;
pub mod traversal;

pub use counts::MatchingStatistics;
pub use graph::{Graph, GraphBuilder};

#[cfg(test)]
pub(crate) mod test_support {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Draws a random multigraph edge list (with possible duplicates and self-loops) on `n`
    /// nodes — the adversarial input shape shared by this crate's seeded property tests.
    pub(crate) fn rand_edges(rng: &mut StdRng, n: u32, max_len: usize) -> Vec<(u32, u32)> {
        let len = rng.gen_range(0..max_len);
        (0..len).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect()
    }
}
