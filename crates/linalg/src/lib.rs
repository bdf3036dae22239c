//! `kronpriv-linalg` — the numerical substrate for the `kronpriv` workspace.
//!
//! The differentially private stochastic Kronecker graph estimator needs a small amount of
//! numerical machinery that is deliberately implemented from scratch here rather than pulled in
//! from external linear-algebra crates:
//!
//! * dense vector helpers ([`vector`]),
//! * compressed sparse row (CSR) symmetric matrices and matrix–vector products ([`csr`]),
//! * iterative eigen-solvers for the scree-plot and network-value statistics
//!   ([`power`], [`lanczos`], [`tridiag`]),
//! * isotonic regression via the pool-adjacent-violators algorithm, used by the Hay et al.
//!   degree-sequence post-processing step ([`isotonic`]),
//! * small statistical utilities shared across the workspace ([`util`]).
//!
//! Everything operates on `f64` and plain `Vec`s: the graphs the paper evaluates on are in the
//! 5k–20k node range, so clarity and testability win over micro-optimisation, while the CSR
//! kernels keep the asymptotics right (O(|E|) per matrix–vector product).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod isotonic;
pub mod lanczos;
pub mod power;
pub mod tridiag;
pub mod util;
pub mod vector;

pub use csr::CsrMatrix;
pub use isotonic::{isotonic_decreasing, isotonic_increasing, IsotonicBlocks};
pub use lanczos::lanczos_eigenvalues;
pub use power::{principal_eigenpair, top_eigenpairs};
pub use tridiag::symmetric_tridiagonal_eigenvalues;
pub use vector::{axpy, dot, norm2, normalize, scale};

#[cfg(test)]
pub(crate) mod test_support {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Draws a uniform random vector — the input generator shared by this crate's seeded
    /// property tests.
    pub(crate) fn rand_vec(rng: &mut StdRng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..len).map(|_| rng.gen_range(lo..hi)).collect()
    }
}
