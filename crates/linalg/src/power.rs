//! Shifted power iteration with deflation for the leading eigenpairs of a symmetric matrix.
//!
//! The network-value plot in the paper needs the principal eigenvector of the adjacency matrix
//! (the eigenvector of the algebraically largest eigenvalue — for a non-negative adjacency
//! matrix this is the Perron eigenvector). Plain power iteration stalls on bipartite-like graphs
//! where the extreme eigenvalues come in a `±λ` pair, so the iteration here runs on the shifted
//! operator `A + σI` with `σ` equal to the infinity norm of `A`. The shift makes every
//! eigenvalue non-negative and the algebraically largest strictly dominant, without changing the
//! eigenvectors. Deflation (projecting out converged eigenvectors) then exposes the next
//! algebraically largest eigenvalue, and so on.
//!
//! Use [`crate::lanczos`] when eigenvalues of largest *magnitude* (singular values of the
//! adjacency matrix, i.e. the scree plot) are wanted.

use crate::csr::CsrMatrix;
use crate::vector::{dot, normalize, orthogonalize_against};
use rand::Rng;

/// Maximum number of power iterations per eigenpair.
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

/// Infinity norm (maximum absolute row sum) of `a`, used as the spectral shift.
fn infinity_norm(a: &CsrMatrix) -> f64 {
    (0..a.rows()).map(|r| a.row(r).map(|(_, v)| v.abs()).sum::<f64>()).fold(0.0_f64, f64::max)
}

/// Computes the `k` algebraically largest eigenpairs of the symmetric matrix `a`, sorted by
/// decreasing eigenvalue.
///
/// Eigenvectors are mutually orthogonal (they are re-orthogonalised against all previously
/// converged vectors on every iteration). The returned list may be shorter than `k` if iterates
/// vanish (e.g. the matrix dimension is smaller than `k`).
pub fn top_eigenpairs<R: Rng + ?Sized>(a: &CsrMatrix, k: usize, rng: &mut R) -> Vec<EigenPair> {
    assert_eq!(a.rows(), a.cols(), "top_eigenpairs requires a square matrix");
    let n = a.rows();
    let k = k.min(n);
    let shift = infinity_norm(a) + 1.0;
    let mut converged: Vec<EigenPair> = Vec::with_capacity(k);
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(k);

    for _ in 0..k {
        let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        orthogonalize_against(&mut x, &basis);
        if normalize(&mut x) == 0.0 {
            break;
        }
        let mut prev_lambda = f64::INFINITY;
        let mut lambda = 0.0;
        let mut iterations = 0;
        let mut y = vec![0.0; n];
        for it in 0..MAX_ITERATIONS {
            iterations = it + 1;
            // y = (A + shift I) x
            a.mul_vec_into(&x, &mut y);
            for (yi, xi) in y.iter_mut().zip(&x) {
                *yi += shift * xi;
            }
            // Deflation: keep the iterate orthogonal to converged eigenvectors. Re-projecting on
            // every step prevents converged directions re-entering through rounding noise.
            orthogonalize_against(&mut y, &basis);
            orthogonalize_against(&mut y, &basis);
            // Rayleigh quotient of the *unshifted* matrix: xᵀ(A+σI)x − σ = xᵀAx for unit x.
            lambda = dot(&x, &y) - shift;
            if normalize(&mut y) == 0.0 {
                // The remaining invariant subspace is (numerically) null relative to the shift.
                break;
            }
            std::mem::swap(&mut x, &mut y);
            if (lambda - prev_lambda).abs() <= TOLERANCE * (lambda.abs() + shift) {
                break;
            }
            prev_lambda = lambda;
        }
        if !lambda.is_finite() {
            break;
        }
        basis.push(x.clone());
        converged.push(EigenPair { value: lambda, vector: x, iterations });
    }
    converged.sort_by(|p, q| q.value.total_cmp(&p.value));
    converged
}

/// Convenience wrapper returning only the principal (algebraically largest) eigenpair.
///
/// For a non-negative adjacency matrix this is the Perron eigenpair, whose eigenvector
/// components are the "network values" plotted in the paper's Figures 1–4(d).
///
/// Returns `None` for an empty matrix.
pub fn principal_eigenpair<R: Rng + ?Sized>(a: &CsrMatrix, rng: &mut R) -> Option<EigenPair> {
    top_eigenpairs(a, 1, rng).into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn diag(values: &[f64]) -> CsrMatrix {
        let triplets: Vec<(usize, usize, f64)> =
            values.iter().enumerate().map(|(i, &v)| (i, i, v)).collect();
        CsrMatrix::from_triplets(values.len(), values.len(), &triplets)
    }

    #[test]
    fn principal_eigenvalue_of_diagonal_matrix() {
        let a = diag(&[1.0, 5.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let pair = principal_eigenpair(&a, &mut rng).unwrap();
        assert!((pair.value - 5.0).abs() < 1e-8, "got {}", pair.value);
        // Eigenvector should be concentrated on index 1.
        assert!(pair.vector[1].abs() > 0.999);
    }

    #[test]
    fn top_eigenpairs_of_diagonal_matrix_sorted_algebraically() {
        let a = diag(&[1.0, -7.0, 3.0, 5.0]);
        let mut rng = StdRng::seed_from_u64(2);
        let pairs = top_eigenpairs(&a, 3, &mut rng);
        assert_eq!(pairs.len(), 3);
        let vals: Vec<f64> = pairs.iter().map(|p| p.value).collect();
        assert!((vals[0] - 5.0).abs() < 1e-7, "{vals:?}");
        assert!((vals[1] - 3.0).abs() < 1e-7, "{vals:?}");
        assert!((vals[2] - 1.0).abs() < 1e-7, "{vals:?}");
    }

    #[test]
    fn eigenvectors_are_orthogonal() {
        let a = diag(&[4.0, 2.0, 9.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let pairs = top_eigenpairs(&a, 3, &mut rng);
        for i in 0..pairs.len() {
            for j in (i + 1)..pairs.len() {
                assert!(dot(&pairs[i].vector, &pairs[j].vector).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn path_graph_adjacency_eigenvalue_matches_closed_form() {
        // Path on n nodes: eigenvalues are 2 cos(pi i / (n+1)); the largest is 2 cos(pi/(n+1)).
        // The path graph is bipartite (±λ extremes), which is exactly the case the spectral
        // shift exists for.
        let n = 10;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let a = CsrMatrix::symmetric_adjacency(n, &edges);
        let mut rng = StdRng::seed_from_u64(4);
        let pair = principal_eigenpair(&a, &mut rng).unwrap();
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
        let a = CsrMatrix::symmetric_adjacency(n, &edges);
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = top_eigenpairs(&a, 2, &mut rng);
        assert!((pairs[0].value - (n as f64 - 1.0)).abs() < 1e-6);
        // Second eigenvalue of K_n is -1.
        assert!((pairs[1].value + 1.0).abs() < 1e-5);
    }

    #[test]
    fn star_graph_perron_vector_has_hub_dominance() {
        // Star with c leaves: principal eigenvalue sqrt(c); the hub component is 1/sqrt(2) and
        // each leaf component is 1/sqrt(2c).
        let leaves = 16u32;
        let edges: Vec<(u32, u32)> = (1..=leaves).map(|v| (0, v)).collect();
        let a = CsrMatrix::symmetric_adjacency(leaves as usize + 1, &edges);
        let mut rng = StdRng::seed_from_u64(8);
        let pair = principal_eigenpair(&a, &mut rng).unwrap();
        assert!((pair.value - 4.0).abs() < 1e-7);
        let hub = pair.vector[0].abs();
        let leaf = pair.vector[1].abs();
        assert!((hub - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-5);
        assert!((leaf - 1.0 / (2.0 * leaves as f64).sqrt()).abs() < 1e-5);
    }

    #[test]
    fn perron_vector_of_connected_graph_has_constant_sign() {
        let edges = vec![(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)];
        let a = CsrMatrix::symmetric_adjacency(4, &edges);
        let mut rng = StdRng::seed_from_u64(9);
        let pair = principal_eigenpair(&a, &mut rng).unwrap();
        let signs: Vec<bool> = pair.vector.iter().map(|&x| x > 0.0).collect();
        assert!(signs.iter().all(|&s| s) || signs.iter().all(|&s| !s), "{:?}", pair.vector);
    }

    #[test]
    fn requesting_more_pairs_than_dimension_truncates() {
        let a = diag(&[2.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(6);
        let pairs = top_eigenpairs(&a, 5, &mut rng);
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn zero_matrix_returns_zero_eigenvalues() {
        let a = CsrMatrix::from_triplets(3, 3, &[]);
        let mut rng = StdRng::seed_from_u64(7);
        let pairs = top_eigenpairs(&a, 2, &mut rng);
        for p in pairs {
            assert!(p.value.abs() < 1e-9);
        }
    }
}
