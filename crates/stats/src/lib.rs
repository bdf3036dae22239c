//! `kronpriv-stats` — the graph statistics plotted in the paper's evaluation (Figures 1–4).
//!
//! Section 4.2 compares the original networks against synthetic Kronecker graphs generated from
//! the KronFit, KronMom and Private estimates using five statistic families:
//!
//! 1. the **degree distribution** ([`degree`]),
//! 2. the **hop plot** — reachable pairs of nodes within `h` hops, the exact all-sources BFS
//!    [`reachable_pairs_by_hops`](hops::reachable_pairs_by_hops) ([`hops`]),
//! 3. the **scree plot** — singular values of the adjacency matrix versus rank ([`spectral`]),
//! 4. the **network value** — the components of the principal eigenvector versus rank
//!    ([`spectral`]),
//! 5. the **average clustering coefficient** as a function of node degree ([`clustering`]).
//!
//! [`profile::GraphProfile`] bundles all five into one serialisable record so the figure
//! harness can compute them once per graph and write them out for plotting, and
//! [`profile::ProfileComparison`] quantifies how closely two profiles agree (the "shape"
//! comparison used in EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clustering;
pub mod degree;
pub mod hops;
pub mod profile;
pub mod spectral;

pub use clustering::{average_clustering_by_degree, clustering_coefficients, global_clustering};
pub use degree::{degree_distribution, degree_histogram, DegreePoint};
pub use profile::{GraphProfile, ProfileComparison, ProfileOptions};
pub use spectral::{network_values, scree_plot};
