//! Small statistical helpers shared across the workspace: means, variances, quantiles and
//! logarithmic binning used when summarising heavy-tailed distributions (degree distributions,
//! network values, clustering-coefficient curves).

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

/// Relative error `|estimate - truth| / max(|truth|, floor)`, with a floor to avoid division by
/// zero when the true value is tiny.
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    (estimate - truth).abs() / truth.abs().max(1e-12)
}

/// One logarithmic bin produced by [`log_bin`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogBin {
    /// Geometric centre of the bin (x-coordinate for plotting).
    pub center: f64,
    /// Lower edge (inclusive).
    pub lower: f64,
    /// Upper edge (exclusive).
    pub upper: f64,
    /// Number of points that fell in the bin.
    pub count: usize,
    /// Mean of the y-values that fell in the bin (0.0 if empty).
    pub mean_y: f64,
}

/// Bins `(x, y)` points into `bins_per_decade`-per-decade logarithmic bins over the positive `x`
/// values. Non-positive `x` values are skipped. Empty bins are omitted from the output.
///
/// This is how the paper's log–log plots (clustering coefficient vs. degree, network value vs.
/// rank) are summarised into comparable series.
pub fn log_bin(points: &[(f64, f64)], bins_per_decade: usize) -> Vec<LogBin> {
    let positive: Vec<(f64, f64)> = points.iter().copied().filter(|&(x, _)| x > 0.0).collect();
    if positive.is_empty() || bins_per_decade == 0 {
        return Vec::new();
    }
    let min_x = positive.iter().map(|&(x, _)| x).fold(f64::INFINITY, f64::min);
    let max_x = positive.iter().map(|&(x, _)| x).fold(0.0_f64, f64::max);
    let log_min = min_x.log10().floor();
    let log_max = max_x.log10().ceil();
    let width = 1.0 / bins_per_decade as f64;
    let n_bins = (((log_max - log_min) / width).ceil() as usize).max(1);

    let mut sums = vec![0.0; n_bins];
    let mut counts = vec![0usize; n_bins];
    for &(x, y) in &positive {
        let idx = (((x.log10() - log_min) / width).floor() as usize).min(n_bins - 1);
        sums[idx] += y;
        counts[idx] += 1;
    }

    (0..n_bins)
        .filter(|&i| counts[i] > 0)
        .map(|i| {
            let lower = 10f64.powf(log_min + i as f64 * width);
            let upper = 10f64.powf(log_min + (i as f64 + 1.0) * width);
            LogBin {
                center: (lower * upper).sqrt(),
                lower,
                upper,
                count: counts[i],
                mean_y: sums[i] / counts[i] as f64,
            }
        })
        .collect()
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

    #[test]
    fn relative_error_handles_zero_truth() {
        assert!(relative_error(1.0, 0.0).is_finite());
        assert_eq!(relative_error(5.0, 5.0), 0.0);
    }

    #[test]
    fn log_bin_groups_points_by_decade() {
        let points = [(1.0, 1.0), (2.0, 3.0), (15.0, 10.0), (150.0, 5.0)];
        let bins = log_bin(&points, 1);
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[0].count, 2);
        assert!((bins[0].mean_y - 2.0).abs() < 1e-12);
        assert_eq!(bins[1].count, 1);
        assert_eq!(bins[2].count, 1);
    }

    #[test]
    fn log_bin_skips_non_positive_x() {
        let bins = log_bin(&[(0.0, 1.0), (-2.0, 1.0)], 2);
        assert!(bins.is_empty());
    }

    #[test]
    fn log_bin_counts_sum_to_number_of_positive_points() {
        let points: Vec<(f64, f64)> = (1..=100).map(|i| (i as f64, 1.0)).collect();
        let bins = log_bin(&points, 5);
        let total: usize = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, 100);
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

    #[test]
    fn log_bins_are_ordered_and_disjoint() {
        let mut rng = StdRng::seed_from_u64(0x071_7003);
        for _ in 0..128 {
            let len = rng.gen_range(1..60usize);
            let xs = rand_vec(&mut rng, len, 0.1, 1e4);
            let points: Vec<(f64, f64)> = xs.iter().map(|&x| (x, x)).collect();
            let bins = log_bin(&points, 3);
            for w in bins.windows(2) {
                assert!(w[0].upper <= w[1].lower + 1e-9);
            }
        }
    }
}
