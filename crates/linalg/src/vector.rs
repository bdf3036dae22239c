//! Dense vector helpers used by the iterative eigen-solvers.
//!
//! All routines operate on `&[f64]` / `&mut [f64]` slices so they compose with both owned
//! vectors and borrowed work buffers.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x` (the classic BLAS `axpy`).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch {} vs {}", x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha` in place.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Normalises `x` to unit Euclidean norm in place and returns the original norm.
///
/// If the norm is zero (or not finite) the vector is left untouched and `0.0` is returned, so
/// callers can detect a degenerate iterate.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 && n.is_finite() {
        scale(1.0 / n, x);
        n
    } else {
        0.0
    }
}

/// Removes from `x` its components along each (assumed orthonormal) vector in `basis`.
///
/// This is one pass of classical Gram–Schmidt; the Lanczos iteration calls it twice per step,
/// which is the standard "twice is enough" re-orthogonalisation.
pub fn orthogonalize_against(x: &mut [f64], basis: &[Vec<f64>]) {
    for q in basis {
        let c = dot(x, q);
        axpy(-c, q, x);
    }
}

/// Maximum absolute difference between two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0_f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::rand_vec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn dot_matches_hand_computation() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_length_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm2_of_unit_axis_vector() {
        assert_eq!(norm2(&[0.0, 1.0, 0.0]), 1.0);
    }

    #[test]
    fn norm2_of_345_triangle() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn scale_multiplies_every_entry() {
        let mut x = vec![1.0, -2.0, 0.5];
        scale(-2.0, &mut x);
        assert_eq!(x, vec![-2.0, 4.0, -1.0]);
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x);
        assert!((n - 5.0).abs() < 1e-12);
        assert!((norm2(&x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_leaves_zero_vector_untouched() {
        let mut x = vec![0.0, 0.0];
        let n = normalize(&mut x);
        assert_eq!(n, 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn orthogonalize_removes_component() {
        let basis = vec![vec![1.0, 0.0, 0.0]];
        let mut x = vec![2.0, 3.0, 4.0];
        orthogonalize_against(&mut x, &basis);
        assert_eq!(x, vec![0.0, 3.0, 4.0]);
    }

    #[test]
    fn max_abs_diff_finds_largest_gap() {
        assert_eq!(max_abs_diff(&[1.0, 2.0, 3.0], &[1.0, 5.0, 2.5]), 3.0);
    }

    // Former proptest properties, now driven by a seeded RNG for deterministic offline runs.
    #[test]
    fn dot_is_commutative() {
        let mut rng = StdRng::seed_from_u64(0x7EC_7001);
        for _ in 0..128 {
            let len = rng.gen_range(1..32usize);
            let a = rand_vec(&mut rng, len, -100.0, 100.0);
            let b: Vec<f64> = a.iter().rev().cloned().collect();
            assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-9);
        }
    }

    #[test]
    fn cauchy_schwarz_holds() {
        let mut rng = StdRng::seed_from_u64(0x7EC_7002);
        for _ in 0..128 {
            let len = rng.gen_range(1..16usize);
            let a = rand_vec(&mut rng, len, -10.0, 10.0);
            let seed = rng.gen_range(0..1000u64);
            // Build b deterministically from a and the seed so lengths always match.
            let b: Vec<f64> = a
                .iter()
                .enumerate()
                .map(|(i, x)| x * ((seed as f64) * 0.01 + i as f64 * 0.1) - 1.0)
                .collect();
            assert!(dot(&a, &b).abs() <= norm2(&a) * norm2(&b) + 1e-9);
        }
    }

    #[test]
    fn normalize_is_idempotent_up_to_tolerance() {
        let mut rng = StdRng::seed_from_u64(0x7EC_7003);
        for _ in 0..128 {
            let len = rng.gen_range(1..32usize);
            let a = rand_vec(&mut rng, len, -100.0, 100.0);
            let mut x = a.clone();
            let n = normalize(&mut x);
            if n > 1e-9 {
                let mut y = x.clone();
                normalize(&mut y);
                assert!(max_abs_diff(&x, &y) < 1e-9);
            }
        }
    }
}
