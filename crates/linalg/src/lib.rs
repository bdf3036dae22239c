//! `kronpriv-linalg` — the numerical substrate for the `kronpriv` workspace.
//!
//! The differentially private stochastic Kronecker graph estimator needs a small amount of
//! numerical machinery that is deliberately implemented from scratch here rather than pulled in
//! from external linear-algebra crates:
//!
//! * dense vector helpers ([`vector`]),
//! * iterative eigen-solvers for the scree-plot and network-value statistics
//!   ([`power`], [`lanczos`], [`tridiag`]), which take a symmetric matrix as its product
//!   `y = A·x`,
//! * isotonic regression via the pool-adjacent-violators algorithm, used by the Hay et al.
//!   degree-sequence post-processing step ([`isotonic`]),
//! * small statistical utilities shared across the workspace ([`util`]).
//!
//! Everything operates on `f64` and plain `Vec`s: the graphs the paper evaluates on are in the
//! 5k–20k node range, so clarity and testability win over micro-optimisation. The solvers never
//! see a matrix type: the caller's product keeps the asymptotics right (O(|E|) per
//! matrix–vector product on a graph's own neighbour lists).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod isotonic;
pub mod lanczos;
pub mod power;
pub mod tridiag;
pub mod util;
pub mod vector;

pub use isotonic::{isotonic_increasing, IsotonicBlocks};
pub use lanczos::lanczos_eigenvalues;
pub use power::principal_eigenpair;
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

    /// The product `y = D·x` of the diagonal matrix `D = diag(values)`.
    pub(crate) fn diag(values: &[f64]) -> impl Fn(&[f64], &mut [f64]) + '_ {
        move |x, y| {
            for ((yi, xi), d) in y.iter_mut().zip(x).zip(values) {
                *yi = d * xi;
            }
        }
    }

    /// The product `y = A·x` of the 0/1 adjacency matrix of the undirected `edges` on `n`
    /// nodes, summing each row over its neighbours in ascending order.
    pub(crate) fn adjacency(n: usize, edges: &[(u32, u32)]) -> impl Fn(&[f64], &mut [f64]) {
        let mut neighbors = vec![Vec::new(); n];
        for &(u, v) in edges {
            neighbors[u as usize].push(v as usize);
            neighbors[v as usize].push(u as usize);
        }
        neighbors.iter_mut().for_each(|list| list.sort_unstable());
        move |x, y| {
            for (yi, list) in y.iter_mut().zip(&neighbors) {
                *yi = list.iter().map(|&v| x[v]).sum();
            }
        }
    }
}
