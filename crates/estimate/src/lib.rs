//! `kronpriv-estimate` — the three estimators compared in the paper, one fallible function each.
//!
//! * **KronMom** ([`try_kronmom_estimate`]) — Gleich & Owen's moment-based estimator: choose
//!   the initiator whose expected counts of edges, hairpins, triangles and tripins best match
//!   the observed counts, under a configurable distance/normalisation (Equation 2). This is the
//!   "KronMom" column of Table 1. Its minimiser, [`fit_objective`], also fits any other
//!   [`MomentObjective`].
//! * **KronFit** ([`try_kronfit_estimate`]) — Leskovec & Faloutsos's approximate
//!   maximum-likelihood estimator: stochastic gradient ascent on the permutation-marginalised
//!   likelihood, with Metropolis sampling over node-to-Kronecker-index assignments. This is the
//!   "KronFit" column of Table 1 and the paper's non-moment baseline.
//! * **Private** ([`try_private_estimate`]) — the paper's contribution (Algorithm 1): feed
//!   differentially private approximations of the four matching statistics into the KronMom
//!   objective. This is the "Private" column of Table 1.
//!
//! Each returns a [`PipelineError`] for an input it cannot estimate from, instead of
//! panicking, so callers such as the HTTP server can map a bad request to a 4xx response.
//! Every rule on option values lives in one `validate` per option type, which each function
//! calls before it draws anything and the server calls before it debits a budget. The shared
//! moment-matching objective lives in [`objective`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kronfit;
pub mod kronmom;
pub mod objective;
pub mod private;

pub use kronfit::{try_kronfit_estimate, KronFitOptions};
pub use kronmom::{fit_objective, try_kronmom_estimate, KronMomOptions};
pub use objective::{DistanceKind, MomentObjective, NormalizationKind};
pub use private::{try_private_estimate, PrivateEstimate, PrivateEstimatorOptions};

use kronpriv_graph::Graph;
use kronpriv_json::impl_json_struct;
use kronpriv_skg::Initiator2;

/// An input an estimator refuses, reported instead of a worker-thread panic.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The input graph has no nodes or no edges, so no model can be estimated from it.
    EmptyGraph,
    /// An option value or budget the estimator cannot honour; the message names the field, the
    /// rule it breaks and the rejected value.
    InvalidOption(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::EmptyGraph => {
                write!(f, "the input graph is empty (no nodes or no edges)")
            }
            PipelineError::InvalidOption(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Refuses a graph with no edges (a graph with no nodes has none either): every estimator
/// needs at least one edge, which also guarantees a Kronecker order `k ≥ 1`.
fn require_edges(g: &Graph) -> Result<(), PipelineError> {
    if g.edge_count() == 0 {
        return Err(PipelineError::EmptyGraph);
    }
    Ok(())
}

/// The refusal of one option rule.
fn refuse<T>(message: String) -> Result<T, PipelineError> {
    Err(PipelineError::InvalidOption(message))
}

/// A fitted initiator matrix together with fit diagnostics, returned by every estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedInitiator {
    /// The estimated initiator (canonicalised so that `a ≥ c`).
    pub theta: Initiator2,
    /// The Kronecker order `k` the fit assumed (`2^k ≥` node count).
    pub k: u32,
    /// Final objective value (moment discrepancy for KronMom/Private, negative approximate
    /// log-likelihood for KronFit).
    pub objective_value: f64,
    /// Number of objective/likelihood evaluations or gradient steps spent.
    pub evaluations: usize,
}

impl_json_struct!(FittedInitiator { theta, k, objective_value, evaluations });

/// Chooses the Kronecker order for a graph with `node_count` nodes: the smallest `k` with
/// `2^k ≥ node_count`. The paper's graphs are padded up to the next power of two, exactly as the
/// SNAP tooling does.
pub fn kronecker_order_for(node_count: usize) -> u32 {
    let mut k = 0u32;
    while (1usize << k) < node_count {
        k += 1;
        assert!(k < 63, "graph too large for a Kronecker order");
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kronecker_order_is_ceil_log2() {
        assert_eq!(kronecker_order_for(1), 0);
        assert_eq!(kronecker_order_for(2), 1);
        assert_eq!(kronecker_order_for(3), 2);
        assert_eq!(kronecker_order_for(1024), 10);
        assert_eq!(kronecker_order_for(1025), 11);
        assert_eq!(kronecker_order_for(5242), 13);
        assert_eq!(kronecker_order_for(9877), 14);
        assert_eq!(kronecker_order_for(6474), 13);
    }

    #[test]
    fn fitted_initiator_serialises() {
        let fit = FittedInitiator {
            theta: Initiator2::new(0.99, 0.45, 0.25),
            k: 14,
            objective_value: 0.001,
            evaluations: 123,
        };
        let json = kronpriv_json::to_string(&fit);
        let back: FittedInitiator = kronpriv_json::from_str(&json).unwrap();
        assert_eq!(fit, back);
    }
}
