//! `kronpriv-skg` — the stochastic Kronecker graph (SKG) model of Leskovec et al., as used by
//! the paper (Section 3).
//!
//! The model is parametrised by a small *initiator* probability matrix `Θ` (the paper and this
//! reproduction use the symmetric 2×2 case `Θ = [a b; b c]` with `0 ≤ c ≤ a ≤ 1`, `b ∈ [0, 1]`).
//! Its `k`-th Kronecker power `P = Θ^[k]` assigns every ordered node pair `(u, v)` of a
//! `2^k`-node graph a probability, and a graph is *realized* by flipping an independent coin per
//! pair. Self-loops are removed and the adjacency is symmetrised (Section 3.2), giving the
//! simple undirected graphs that the estimators consume.
//!
//! This crate provides:
//!
//! * [`initiator`] — the 2×2 initiator, per-pair edge probabilities, dense Kronecker powers,
//! * [`moments`] — the closed-form expected counts of edges, hairpins, triangles and tripins
//!   under the model (Gleich & Owen's Equation 1, reproduced as Equation (1) in the paper),
//!   which the moment-matching estimators equate with observed counts,
//! * [`sample`] — graph realization, both the exact per-pair Bernoulli sampler and the fast
//!   recursive edge-placement sampler used for large graphs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod initiator;
pub mod moments;
pub mod sample;

pub use initiator::{Initiator2, InitiatorError};
pub use moments::ExpectedMoments;
pub use sample::{sample_exact, sample_fast};
