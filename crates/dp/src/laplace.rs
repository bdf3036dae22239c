//! The Laplace distribution and the global-sensitivity Laplace mechanism.
//!
//! Theorem 4.5 (Dwork, McSherry, Nissim, Smith 2006): releasing `Q(G) + Lap(GS_Q / ε)^ℓ`
//! satisfies `(ε, 0)`-differential privacy for a length-`ℓ` query `Q` with global sensitivity
//! `GS_Q`. Laplace sampling is implemented by inverse-CDF transform so that only the uniform
//! primitives of `rand` are needed.

use rand::Rng;

/// A zero-mean Laplace distribution with the given scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceNoise {
    scale: f64,
}

impl LaplaceNoise {
    /// Creates a Laplace distribution with mean zero and scale `scale`.
    ///
    /// # Panics
    /// Panics if the scale is negative or not finite. A zero scale is permitted and produces a
    /// point mass at zero, which is convenient for "no-noise" baselines in ablations.
    pub fn new(scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale >= 0.0,
            "Laplace scale must be non-negative, got {scale}"
        );
        LaplaceNoise { scale }
    }

    /// The scale parameter `b` (variance is `2b²`).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Draws one sample via the inverse CDF: for `u ~ Uniform(-½, ½)`,
    /// `x = -b·sign(u)·ln(1 - 2|u|)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.scale == 0.0 {
            return 0.0;
        }
        let u: f64 = rng.gen::<f64>() - 0.5;
        -self.scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }

    /// Draws a vector of `n` independent samples.
    pub fn sample_vec<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Probability density function at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        if self.scale == 0.0 {
            return if x == 0.0 { f64::INFINITY } else { 0.0 };
        }
        (-(x.abs()) / self.scale).exp() / (2.0 * self.scale)
    }
}

/// The Laplace mechanism of Theorem 4.5: perturbs each answer of the query vector `answers`
/// (whose global sensitivity is `global_sensitivity`) with independent `Lap(GS/ε)` noise.
///
/// # Panics
/// Panics if `epsilon <= 0` or `global_sensitivity < 0`.
// lint:sanitizer
pub fn laplace_mechanism<R: Rng + ?Sized>(
    answers: &[f64],
    global_sensitivity: f64,
    epsilon: f64,
    rng: &mut R,
) -> Vec<f64> {
    assert!(epsilon > 0.0, "epsilon must be positive, got {epsilon}");
    assert!(global_sensitivity >= 0.0, "global sensitivity must be non-negative");
    let noise = LaplaceNoise::new(global_sensitivity / epsilon);
    answers.iter().map(|&a| a + noise.sample(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_scale_is_a_point_mass() {
        let mut rng = StdRng::seed_from_u64(1);
        let noise = LaplaceNoise::new(0.0);
        for _ in 0..100 {
            assert_eq!(noise.sample(&mut rng), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_scale_is_rejected() {
        let _ = LaplaceNoise::new(-1.0);
    }

    #[test]
    fn sample_mean_is_near_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        let noise = LaplaceNoise::new(2.0);
        let n = 50_000;
        let mean: f64 = noise.sample_vec(n, &mut rng).iter().sum::<f64>() / n as f64;
        // Standard error of the mean is sqrt(2)*scale/sqrt(n) ≈ 0.0126; allow 5 sigma.
        assert!(mean.abs() < 0.07, "mean {mean}");
    }

    #[test]
    fn sample_variance_matches_two_b_squared() {
        let mut rng = StdRng::seed_from_u64(3);
        let scale = 1.5;
        let noise = LaplaceNoise::new(scale);
        let n = 50_000;
        let samples = noise.sample_vec(n, &mut rng);
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let expected = 2.0 * scale * scale;
        assert!((var - expected).abs() / expected < 0.1, "var {var} expected {expected}");
    }

    #[test]
    fn samples_are_symmetric_about_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let noise = LaplaceNoise::new(1.0);
        let n = 50_000;
        let positives = noise.sample_vec(n, &mut rng).iter().filter(|&&x| x > 0.0).count();
        let frac = positives as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "positive fraction {frac}");
    }

    #[test]
    fn tail_mass_decays_exponentially() {
        // P(|X| > t) = exp(-t / b); check the empirical fraction at t = 3b.
        let mut rng = StdRng::seed_from_u64(5);
        let noise = LaplaceNoise::new(1.0);
        let n = 100_000;
        let beyond = noise.sample_vec(n, &mut rng).iter().filter(|&&x| x.abs() > 3.0).count();
        let frac = beyond as f64 / n as f64;
        let expected = (-3.0f64).exp();
        assert!((frac - expected).abs() < 0.01, "tail fraction {frac} expected {expected}");
    }

    #[test]
    fn pdf_integrates_to_one_numerically() {
        let noise = LaplaceNoise::new(0.7);
        let dx = 0.001;
        let total: f64 = (-20_000..20_000).map(|i| noise.pdf(i as f64 * dx) * dx).sum();
        assert!((total - 1.0).abs() < 1e-3, "integral {total}");
    }

    #[test]
    fn pdf_is_maximal_at_zero_and_symmetric() {
        let noise = LaplaceNoise::new(1.3);
        assert!(noise.pdf(0.0) >= noise.pdf(0.5));
        assert!((noise.pdf(2.0) - noise.pdf(-2.0)).abs() < 1e-15);
    }

    #[test]
    fn mechanism_adds_noise_with_the_right_scale() {
        let mut rng = StdRng::seed_from_u64(6);
        let answers = vec![100.0; 20_000];
        let noisy = laplace_mechanism(&answers, 2.0, 0.5, &mut rng);
        // Noise scale should be 4.0, so variance 32.
        let residuals: Vec<f64> = noisy.iter().map(|x| x - 100.0).collect();
        let var: f64 = residuals.iter().map(|x| x * x).sum::<f64>() / residuals.len() as f64;
        assert!((var - 32.0).abs() / 32.0 < 0.1, "var {var}");
    }

    #[test]
    fn mechanism_preserves_query_length() {
        let mut rng = StdRng::seed_from_u64(7);
        let noisy = laplace_mechanism(&[1.0, 2.0, 3.0], 1.0, 1.0, &mut rng);
        assert_eq!(noisy.len(), 3);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn mechanism_rejects_non_positive_epsilon() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = laplace_mechanism(&[1.0], 1.0, 0.0, &mut rng);
    }

    #[test]
    fn mechanism_is_reproducible_with_a_seeded_rng() {
        let a = laplace_mechanism(&[5.0, 6.0], 1.0, 0.1, &mut StdRng::seed_from_u64(9));
        let b = laplace_mechanism(&[5.0, 6.0], 1.0, 0.1, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn empirical_privacy_ratio_is_bounded_for_counting_query() {
        // A crude but meaningful check of the DP guarantee itself: for a counting query with
        // sensitivity 1 and neighbouring answers 10 and 11, the histogram of mechanism outputs
        // over bins should have likelihood ratios bounded by exp(epsilon) (up to sampling error).
        let epsilon = 0.8;
        let n = 200_000;
        let mut rng = StdRng::seed_from_u64(10);
        let noise = LaplaceNoise::new(1.0 / epsilon);
        let mut hist_a = vec![0usize; 40];
        let mut hist_b = vec![0usize; 40];
        for _ in 0..n {
            let xa = 10.0 + noise.sample(&mut rng);
            let xb = 11.0 + noise.sample(&mut rng);
            let bin_a = ((xa - 0.0).clamp(0.0, 19.9) * 2.0) as usize;
            let bin_b = ((xb - 0.0).clamp(0.0, 19.9) * 2.0) as usize;
            hist_a[bin_a] += 1;
            hist_b[bin_b] += 1;
        }
        let bound = (epsilon.exp()) * 1.25; // generous slack for sampling error
        for bin in 0..40 {
            let (pa, pb) = (hist_a[bin] as f64 / n as f64, hist_b[bin] as f64 / n as f64);
            if pa > 0.005 && pb > 0.005 {
                assert!(pa / pb < bound && pb / pa < bound, "bin {bin}: {pa} vs {pb}");
            }
        }
    }
}
