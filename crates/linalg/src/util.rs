//! Small statistical helpers shared across the workspace: means, variances and quantiles.

/// Arithmetic mean; returns 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Unbiased sample variance; returns 0.0 for slices with fewer than two elements.
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64
}

/// Median (average of the two middle values for even lengths); returns 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Empirical quantile using linear interpolation between order statistics.
/// `q` is clamped to `[0, 1]`. Returns 0.0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::rand_vec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn mean_of_empty_slice_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_matches_hand_computation() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn variance_of_constant_sequence_is_zero() {
        assert_eq!(variance(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn variance_matches_known_value() {
        // Sample variance of [2, 4, 4, 4, 5, 5, 7, 9] is 32/7.
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&v) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantile_endpoints_are_min_and_max() {
        let v = [10.0, -1.0, 4.0];
        assert_eq!(quantile(&v, 0.0), -1.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
    }

    #[test]
    fn quantile_is_clamped() {
        let v = [1.0, 2.0];
        assert_eq!(quantile(&v, -3.0), 1.0);
        assert_eq!(quantile(&v, 7.0), 2.0);
    }

    // Former proptest properties, now driven by a seeded RNG for deterministic offline runs.
    #[test]
    fn variance_is_non_negative() {
        let mut rng = StdRng::seed_from_u64(0x071_7001);
        for _ in 0..128 {
            let len = rng.gen_range(0..50usize);
            let v = rand_vec(&mut rng, len, -100.0, 100.0);
            assert!(variance(&v) >= 0.0);
        }
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let mut rng = StdRng::seed_from_u64(0x071_7002);
        for _ in 0..128 {
            let len = rng.gen_range(1..50usize);
            let v = rand_vec(&mut rng, len, -100.0, 100.0);
            let q1 = rng.gen_range(0.0..1.0);
            let q2 = rng.gen_range(0.0..1.0);
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            assert!(quantile(&v, lo) <= quantile(&v, hi) + 1e-12);
        }
    }
}
