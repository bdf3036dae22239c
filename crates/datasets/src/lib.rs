//! `kronpriv-datasets` — the evaluation datasets of the paper, as reproducible stand-ins.
//!
//! The paper evaluates on three SNAP networks (CA-GrQc, CA-HepTh, AS20) and one synthetic
//! stochastic Kronecker graph. The SNAP files are not redistributable inside this repository,
//! so each real network is replaced by a *stand-in*: a stochastic Kronecker graph realized from
//! the KronFit parameters the paper itself reports for that network in Table 1. The paper's own
//! argument (Section 4.2 and Leskovec et al.) is that such a graph reproduces the degree
//! distribution, hop plot, scree plot and network values of the original; it therefore exercises
//! the same code paths (heavy-tailed degrees, sparse adjacency, large-but-bounded triangle
//! sensitivity) and preserves the shape of every comparison in the evaluation. The substitution
//! table in `DESIGN.md` records this decision.
//!
//! If the actual SNAP edge-list files are available locally, [`Dataset::load_or_generate`]
//! prefers them, so the experiments can also be run against the real data without code changes.
//! A file that is present but does not parse is an error, never a silent stand-in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod table1;

pub use dataset::{Dataset, DatasetMetadata};
pub use table1::{paper_table1, Table1Row};
