//! Shifted power iteration for the principal eigenpair of a symmetric matrix.
//!
//! The network-value plot in the paper needs the principal eigenvector of the adjacency matrix
//! (the eigenvector of the algebraically largest eigenvalue — for a non-negative adjacency
//! matrix this is the Perron eigenvector). Plain power iteration stalls on bipartite-like graphs
//! where the extreme eigenvalues come in a `±λ` pair, so the iteration here runs on the shifted
//! operator `A + σI` with `σ` one more than a bound on the infinity norm of `A`. The shift makes
//! every eigenvalue positive and the algebraically largest strictly dominant, without changing
//! the eigenvectors.
//!
//! The matrix enters only through its product `y = A·x`, so a caller that already stores `A`
//! (a graph's neighbour lists) passes that product instead of copying `A` into a matrix type.
//!
//! Use [`crate::lanczos`] when eigenvalues of largest *magnitude* (singular values of the
//! adjacency matrix, i.e. the scree plot) are wanted.

use crate::vector::{dot, normalize};
use rand::Rng;

/// Maximum number of power iterations.
const MAX_ITERATIONS: usize = 2000;

/// Convergence tolerance on the change of the Rayleigh quotient between iterations, relative to
/// `|λ| + σ`.
const TOLERANCE: f64 = 1e-12;

/// One converged eigenpair of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct EigenPair {
    /// The eigenvalue of the original (unshifted) matrix.
    pub value: f64,
    /// The unit-norm eigenvector.
    pub vector: Vec<f64>,
    /// Number of iterations the power method used.
    pub iterations: usize,
}

/// The principal (algebraically largest) eigenpair of the symmetric `n × n` matrix `A`.
///
/// `apply(x, y)` overwrites every entry of `y` with `(A·x)`, and `norm` bounds the infinity norm
/// (maximum absolute row sum) of `A`; the iteration runs on `A + (norm + 1)·I`. For a
/// non-negative adjacency matrix this is the Perron eigenpair, whose eigenvector components are
/// the "network values" plotted in the paper's Figures 1–4(d).
///
/// Returns `None` for an empty matrix, for a start vector that normalises to zero and for a
/// non-finite eigenvalue.
pub fn principal_eigenpair<R: Rng + ?Sized>(
    n: usize,
    apply: impl Fn(&[f64], &mut [f64]),
    norm: f64,
    rng: &mut R,
) -> Option<EigenPair> {
    if n == 0 {
        return None;
    }
    let shift = norm + 1.0;
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    if normalize(&mut x) == 0.0 {
        return None;
    }
    let mut prev_lambda = f64::INFINITY;
    let mut lambda = 0.0;
    let mut iterations = 0;
    let mut y = vec![0.0; n];
    for it in 0..MAX_ITERATIONS {
        iterations = it + 1;
        // y = (A + shift I) x
        apply(&x, &mut y);
        for (yi, xi) in y.iter_mut().zip(&x) {
            *yi += shift * xi;
        }
        // Rayleigh quotient of the *unshifted* matrix: xᵀ(A+σI)x − σ = xᵀAx for unit x.
        lambda = dot(&x, &y) - shift;
        if normalize(&mut y) == 0.0 {
            // The iterate is (numerically) null relative to the shift.
            break;
        }
        std::mem::swap(&mut x, &mut y);
        if (lambda - prev_lambda).abs() <= TOLERANCE * (lambda.abs() + shift) {
            break;
        }
        prev_lambda = lambda;
    }
    lambda.is_finite().then_some(EigenPair { value: lambda, vector: x, iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{adjacency, diag};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn principal_eigenvalue_of_diagonal_matrix() {
        let mut rng = StdRng::seed_from_u64(1);
        let pair = principal_eigenpair(3, diag(&[1.0, 5.0, 3.0]), 5.0, &mut rng).unwrap();
        assert!((pair.value - 5.0).abs() < 1e-8, "got {}", pair.value);
        // Eigenvector should be concentrated on index 1.
        assert!(pair.vector[1].abs() > 0.999);
    }

    #[test]
    fn principal_eigenvalue_is_the_algebraically_largest() {
        // The largest magnitude is -7; the shift makes the algebraically largest, 5, dominant.
        let mut rng = StdRng::seed_from_u64(2);
        let pair = principal_eigenpair(4, diag(&[1.0, -7.0, 3.0, 5.0]), 7.0, &mut rng).unwrap();
        assert!((pair.value - 5.0).abs() < 1e-7, "got {}", pair.value);
        assert!(pair.vector[3].abs() > 0.999);
    }

    #[test]
    fn path_graph_adjacency_eigenvalue_matches_closed_form() {
        // Path on n nodes: eigenvalues are 2 cos(pi i / (n+1)); the largest is 2 cos(pi/(n+1)).
        // The path graph is bipartite (±λ extremes), which is exactly the case the spectral
        // shift exists for.
        let n = 10;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let pair = principal_eigenpair(n, adjacency(n, &edges), 2.0, &mut rng).unwrap();
        let expected = 2.0 * (std::f64::consts::PI / (n as f64 + 1.0)).cos();
        assert!((pair.value - expected).abs() < 1e-6, "got {} want {}", pair.value, expected);
    }

    #[test]
    fn complete_graph_principal_eigenvalue_is_n_minus_one() {
        let n = 6usize;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                edges.push((u, v));
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        let pair = principal_eigenpair(n, adjacency(n, &edges), 5.0, &mut rng).unwrap();
        assert!((pair.value - (n as f64 - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn star_graph_perron_vector_has_hub_dominance() {
        // Star with c leaves: principal eigenvalue sqrt(c); the hub component is 1/sqrt(2) and
        // each leaf component is 1/sqrt(2c).
        let leaves = 16u32;
        let edges: Vec<(u32, u32)> = (1..=leaves).map(|v| (0, v)).collect();
        let n = leaves as usize + 1;
        let mut rng = StdRng::seed_from_u64(8);
        let pair = principal_eigenpair(n, adjacency(n, &edges), 16.0, &mut rng).unwrap();
        assert!((pair.value - 4.0).abs() < 1e-7);
        let hub = pair.vector[0].abs();
        let leaf = pair.vector[1].abs();
        assert!((hub - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-5);
        assert!((leaf - 1.0 / (2.0 * leaves as f64).sqrt()).abs() < 1e-5);
    }

    #[test]
    fn perron_vector_of_connected_graph_has_constant_sign() {
        let edges = vec![(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)];
        let mut rng = StdRng::seed_from_u64(9);
        let pair = principal_eigenpair(4, adjacency(4, &edges), 3.0, &mut rng).unwrap();
        let signs: Vec<bool> = pair.vector.iter().map(|&x| x > 0.0).collect();
        assert!(signs.iter().all(|&s| s) || signs.iter().all(|&s| !s), "{:?}", pair.vector);
    }

    #[test]
    fn zero_matrix_returns_zero_eigenvalues() {
        let mut rng = StdRng::seed_from_u64(7);
        let pair = principal_eigenpair(3, adjacency(3, &[]), 0.0, &mut rng).unwrap();
        assert!(pair.value.abs() < 1e-9);
        // A 0 × 0 matrix has no eigenpair at all.
        assert!(principal_eigenpair(0, adjacency(0, &[]), 0.0, &mut rng).is_none());
    }
}
