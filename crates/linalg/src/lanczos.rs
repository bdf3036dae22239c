//! Lanczos iteration for approximating the extreme eigenvalues of a large sparse symmetric
//! matrix.
//!
//! The scree plot in the paper's evaluation shows the top ~100 singular values of the adjacency
//! matrix versus rank. For the 5k–20k node graphs involved, a Lanczos run with full
//! re-orthogonalisation and a few hundred iterations recovers those leading values accurately
//! and far faster than deflated power iteration would. For a symmetric matrix, singular values
//! are the magnitudes of the eigenvalues, which is how [`crate::power`] / this module get used
//! by `kronpriv-stats`.

use crate::tridiag::symmetric_tridiagonal_eigenvalues;
use crate::vector::{axpy, dot, normalize, orthogonalize_against};
use rand::Rng;

/// Runs Lanczos with full re-orthogonalisation on the symmetric `n × n` matrix `A` and returns
/// the `k` Ritz values of largest magnitude, sorted by decreasing magnitude.
///
/// The matrix enters only through its product: `apply(x, y)` overwrites every entry of `y` with
/// `(A·x)`.
///
/// `steps` is the size of the Krylov subspace to build (raised to `k`, capped at the matrix
/// dimension): more steps give more converged Ritz values, and `2 * k + 20` is a good choice
/// when `k` leading eigenvalues are wanted. The result length may be smaller than `k` if the
/// Krylov space is exhausted early (for example on low-rank matrices).
pub fn lanczos_eigenvalues<R: Rng + ?Sized>(
    n: usize,
    apply: impl Fn(&[f64], &mut [f64]),
    k: usize,
    steps: usize,
    rng: &mut R,
) -> Vec<f64> {
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let steps = steps.max(k).min(n);

    let mut alphas: Vec<f64> = Vec::with_capacity(steps);
    let mut betas: Vec<f64> = Vec::with_capacity(steps.saturating_sub(1));
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(steps);

    let mut q: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    if normalize(&mut q) == 0.0 {
        return Vec::new();
    }

    for step in 0..steps {
        let mut w = vec![0.0; n];
        apply(&q, &mut w);
        let alpha = dot(&q, &w);
        alphas.push(alpha);
        axpy(-alpha, &q, &mut w);
        if step > 0 {
            let beta_prev = betas[step - 1];
            axpy(-beta_prev, &basis[step - 1], &mut w);
        }
        // Full re-orthogonalisation (twice) keeps the Ritz values from producing spurious
        // duplicate copies of already-converged eigenvalues.
        orthogonalize_against(&mut w, &basis);
        orthogonalize_against(&mut w, &basis);
        basis.push(q.clone());
        let beta = normalize(&mut w);
        if step + 1 < steps {
            if beta <= 1e-14 {
                break;
            }
            betas.push(beta);
            q = w;
        }
    }

    let mut ritz = symmetric_tridiagonal_eigenvalues(&alphas, &betas[..alphas.len() - 1]);
    sort_by_magnitude_positive_first(&mut ritz);
    ritz.truncate(k);
    ritz
}

/// Sorts eigenvalues by decreasing magnitude, then reorders runs of near-tied magnitudes
/// (pure round-off differences, e.g. the ±sqrt(c) pair of a star graph) by value descending, so
/// the ordering is deterministic and the positive member of a symmetric pair comes first.
///
/// This is done as a total-order sort followed by a grouping pass rather than a single
/// tolerance-aware comparator: a "compare by value when magnitudes are within ε" comparator is
/// not transitive (a ≈ b and b ≈ c do not imply a ≈ c), which makes `sort_by` output
/// input-dependent and can trip std's total-order debug check.
fn sort_by_magnitude_positive_first(values: &mut [f64]) {
    values.sort_by(|x, y| y.abs().total_cmp(&x.abs()));
    let mut start = 0;
    while start < values.len() {
        // Grow the near-tie run by chaining adjacent comparisons.
        let mut end = start + 1;
        while end < values.len() {
            let (prev, next) = (values[end - 1].abs(), values[end].abs());
            if (prev - next).abs() > 1e-9 * prev.max(next).max(1.0) {
                break;
            }
            end += 1;
        }
        values[start..end].sort_by(|a, b| b.total_cmp(a));
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{adjacency, diag};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recovers_leading_diagonal_entries() {
        let a = diag(&[10.0, -8.0, 6.0, 1.0, 0.5, 0.1, 3.0, -2.0]);
        let mut rng = StdRng::seed_from_u64(11);
        let ev = lanczos_eigenvalues(8, a, 3, 8, &mut rng);
        assert_eq!(ev.len(), 3);
        assert!((ev[0] - 10.0).abs() < 1e-6, "{ev:?}");
        assert!((ev[1] + 8.0).abs() < 1e-6, "{ev:?}");
        assert!((ev[2] - 6.0).abs() < 1e-6, "{ev:?}");
    }

    #[test]
    fn complete_graph_spectrum() {
        // K_n has eigenvalues n-1 (once) and -1 (n-1 times).
        let n = 12usize;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                edges.push((u, v));
            }
        }
        let mut rng = StdRng::seed_from_u64(12);
        let ev = lanczos_eigenvalues(n, adjacency(n, &edges), 4, 12, &mut rng);
        assert!((ev[0] - (n as f64 - 1.0)).abs() < 1e-6);
        for v in &ev[1..] {
            assert!((v + 1.0).abs() < 1e-5, "{ev:?}");
        }
    }

    #[test]
    fn star_graph_spectrum_matches_sqrt_formula() {
        // Star with c leaves: eigenvalues ±sqrt(c) plus zeros.
        let leaves = 9u32;
        let edges: Vec<(u32, u32)> = (1..=leaves).map(|v| (0, v)).collect();
        let n = leaves as usize + 1;
        let mut rng = StdRng::seed_from_u64(13);
        let ev = lanczos_eigenvalues(n, adjacency(n, &edges), 2, 10, &mut rng);
        assert!((ev[0] - 3.0).abs() < 1e-6);
        assert!((ev[1] + 3.0).abs() < 1e-6);
    }

    #[test]
    fn agrees_with_power_iteration_on_random_like_graph() {
        // Deterministic pseudo-random sparse graph; compare leading eigenvalue from both solvers.
        let n = 60usize;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for step in 1..=3u32 {
                let v = (u * 7 + step * 13) % n as u32;
                if v != u {
                    edges.push((u.min(v), u.max(v)));
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(14);
        let lz = lanczos_eigenvalues(n, adjacency(n, &edges), 1, 60, &mut rng);
        // Every row has at most 6 entries: 3 of its own and at most 3 from other rows.
        let mut rng2 = StdRng::seed_from_u64(15);
        let pw =
            crate::power::principal_eigenpair(n, adjacency(n, &edges), 6.0, &mut rng2).unwrap();
        assert!((lz[0].abs() - pw.value.abs()).abs() < 1e-5, "{} vs {}", lz[0], pw.value);
    }

    #[test]
    fn empty_matrix_returns_empty() {
        let mut rng = StdRng::seed_from_u64(16);
        assert!(lanczos_eigenvalues(0, adjacency(0, &[]), 3, 120, &mut rng).is_empty());
    }

    #[test]
    fn requesting_zero_values_returns_empty() {
        let mut rng = StdRng::seed_from_u64(17);
        assert!(lanczos_eigenvalues(2, diag(&[1.0, 2.0]), 0, 120, &mut rng).is_empty());
    }
}

#[cfg(test)]
mod regression_tests {
    use super::*;
    use crate::test_support::adjacency;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Regression for the star-graph ordering bug: the ±sqrt(c) eigenvalue pair differs only by
    /// round-off in magnitude, so the old pure-|λ| sort ordered them by noise (sometimes
    /// returning [-3, +3]). The tie-break must put the positive member first, for every seed.
    #[test]
    fn symmetric_pair_orders_positive_first_for_any_seed() {
        let leaves = 9u32;
        let edges: Vec<(u32, u32)> = (1..=leaves).map(|v| (0, v)).collect();
        let n = leaves as usize + 1;
        let a = adjacency(n, &edges);
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let ev = lanczos_eigenvalues(n, &a, 2, 10, &mut rng);
            assert!((ev[0] - 3.0).abs() < 1e-6, "seed {seed}: {ev:?}");
            assert!((ev[1] + 3.0).abs() < 1e-6, "seed {seed}: {ev:?}");
        }
    }

    /// Regression for the intransitive-comparator bug: a single tolerance-aware comparator is
    /// not a total order (a ≈ b, b ≈ c but a ≉ c forms a cycle), which made the sorted order
    /// input-dependent and could trip std sort's total-order check. The grouped two-pass sort
    /// must order this adversarial chain deterministically, positives first within each tie run.
    #[test]
    fn near_tie_chains_sort_deterministically_and_positive_first() {
        let mut values = vec![-1.0, -(1.0 + 0.9e-9), 1.0 - 0.9e-9, 2.0, -2.0, 0.5];
        sort_by_magnitude_positive_first(&mut values);
        assert_eq!(values, vec![2.0, -2.0, 1.0 - 0.9e-9, -1.0, -(1.0 + 0.9e-9), 0.5]);
        // Longer chain where every adjacent pair is within tolerance: one run, value-descending.
        let mut chain: Vec<f64> = (0..200)
            .map(|i| (1.0 + i as f64 * 1e-10) * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        sort_by_magnitude_positive_first(&mut chain);
        assert!(chain.windows(2).all(|w| w[0] >= w[1]), "run must be value-descending");
    }
}
