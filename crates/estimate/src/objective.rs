//! The moment-matching objective of Equation (2).
//!
//! Given observed (or privately perturbed) feature counts `F` and a candidate initiator with
//! expected counts `E_{a,b,c}(F)`, the estimator minimises
//!
//! ```text
//!     Σ_F  Dist(F, E_{a,b,c}(F)) / Norm(F, E_{a,b,c}(F))
//! ```
//!
//! over `0 ≤ c ≤ a ≤ 1`, `0 ≤ b ≤ 1`, where `Dist` is either the squared or absolute difference
//! and `Norm` is one of `F`, `F²`, `E`, `E²`. Gleich & Owen report that the combination
//! `DistSq / NormF²` is the most robust and it is the default here (and the one the paper uses
//! for its experiments); the other combinations are retained for the objective-grid ablation.

use kronpriv_graph::MatchingStatistics;
use kronpriv_json::{impl_json_enum, impl_json_struct};
use kronpriv_skg::{ExpectedMoments, Initiator2};

/// The distance function `Dist` of Equation (2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceKind {
    /// `Dist(x, y) = (x − y)²`.
    Squared,
    /// `Dist(x, y) = |x − y|`.
    Absolute,
}

impl_json_enum!(DistanceKind { Squared, Absolute });

/// The normalisation function `Norm` of Equation (2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormalizationKind {
    /// Normalise by the observed count `F`.
    Observed,
    /// Normalise by the squared observed count `F²` (the paper's default, "NormF²").
    ObservedSquared,
    /// Normalise by the expected count `E`.
    Expected,
    /// Normalise by the squared expected count `E²`.
    ExpectedSquared,
}

impl_json_enum!(NormalizationKind { Observed, ObservedSquared, Expected, ExpectedSquared });

/// Which of the four features participate in the matching. The paper (following Gleich & Owen)
/// sums over "three or four" of them; the default uses all four.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureSelection {
    /// Include the edge count `E`.
    pub edges: bool,
    /// Include the hairpin (wedge) count `H`.
    pub hairpins: bool,
    /// Include the triangle count `Δ`.
    pub triangles: bool,
    /// Include the tripin (3-star) count `T`.
    pub tripins: bool,
}

impl_json_struct!(FeatureSelection { edges, hairpins, triangles, tripins });

impl Default for FeatureSelection {
    fn default() -> Self {
        FeatureSelection { edges: true, hairpins: true, triangles: true, tripins: true }
    }
}

impl FeatureSelection {
    /// All four features (the default).
    pub fn all() -> Self {
        Self::default()
    }

    /// The degree-derived features only (`E`, `H`, `T`), excluding the triangle count. Used by
    /// the ablation that asks how much the (expensive, separately privatised) triangle count
    /// actually contributes.
    pub fn without_triangles() -> Self {
        FeatureSelection { edges: true, hairpins: true, triangles: false, tripins: true }
    }

    fn as_mask(&self) -> [bool; 4] {
        [self.edges, self.hairpins, self.triangles, self.tripins]
    }

    /// Number of selected features.
    pub fn count(&self) -> usize {
        self.as_mask().iter().filter(|&&b| b).count()
    }
}

/// The fully-configured moment-matching objective for one observed graph.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentObjective {
    /// Observed feature counts `[E, H, Δ, T]` (possibly privately perturbed).
    pub observed: [f64; 4],
    /// Kronecker order of the candidate models.
    pub k: u32,
    /// Distance function.
    pub distance: DistanceKind,
    /// Normalisation function.
    pub normalization: NormalizationKind,
    /// Which features participate.
    pub features: FeatureSelection,
}

impl_json_struct!(MomentObjective { observed, k, distance, normalization, features });

impl MomentObjective {
    /// Builds the paper's default objective (`DistSq`, `NormF²`, all four features) for the
    /// observed statistics of a graph of Kronecker order `k`.
    pub fn standard(observed: &MatchingStatistics, k: u32) -> Self {
        MomentObjective {
            observed: observed.as_array(),
            k,
            distance: DistanceKind::Squared,
            normalization: NormalizationKind::ObservedSquared,
            features: FeatureSelection::all(),
        }
    }

    /// Builds the objective from a raw `[E, H, Δ, T]` array (used by the private estimator,
    /// whose inputs are not the statistics of any actual graph).
    pub fn from_counts(observed: [f64; 4], k: u32) -> Self {
        MomentObjective {
            observed,
            k,
            distance: DistanceKind::Squared,
            normalization: NormalizationKind::ObservedSquared,
            features: FeatureSelection::all(),
        }
    }

    /// Replaces the distance function.
    pub fn with_distance(mut self, distance: DistanceKind) -> Self {
        self.distance = distance;
        self
    }

    /// Replaces the normalisation function.
    pub fn with_normalization(mut self, normalization: NormalizationKind) -> Self {
        self.normalization = normalization;
        self
    }

    /// Replaces the feature selection.
    pub fn with_features(mut self, features: FeatureSelection) -> Self {
        self.features = features;
        self
    }

    /// Evaluates the discrepancy for the candidate initiator `theta`.
    pub fn evaluate(&self, theta: &Initiator2) -> f64 {
        let expected = ExpectedMoments::of(theta, self.k).as_array();
        let mask = self.features.as_mask();
        let mut total = 0.0;
        for i in 0..4 {
            if !mask[i] {
                continue;
            }
            let f = self.observed[i];
            let e = expected[i];
            let dist = match self.distance {
                DistanceKind::Squared => (f - e) * (f - e),
                DistanceKind::Absolute => (f - e).abs(),
            };
            let norm = match self.normalization {
                NormalizationKind::Observed => f.abs(),
                NormalizationKind::ObservedSquared => f * f,
                NormalizationKind::Expected => e.abs(),
                NormalizationKind::ExpectedSquared => e * e,
            };
            // Guard against degenerate normalisations: the counts are ≥ 0 and a healthy count
            // is ≥ 1, so flooring the normalisation at 1 keeps the term finite and correctly
            // scaled when an observed (possibly noise-clamped) count is zero or tiny, without
            // letting a single degenerate feature blow up the whole objective.
            total += dist / norm.max(1.0);
        }
        total
    }

    /// Evaluates the discrepancy at a raw `[a, b, c]` parameter vector (clamped into range), the
    /// form consumed by the optimiser.
    pub fn evaluate_params(&self, params: &[f64]) -> f64 {
        let theta = Initiator2::clamped(params[0], params[1], params[2]);
        self.evaluate(&theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kronpriv_skg::moments::ExpectedMoments;

    fn observed_from(theta: &Initiator2, k: u32) -> [f64; 4] {
        ExpectedMoments::of(theta, k).as_array()
    }

    #[test]
    fn objective_is_zero_at_the_generating_parameters() {
        let theta = Initiator2::new(0.99, 0.45, 0.25);
        let k = 10;
        let obj = MomentObjective::from_counts(observed_from(&theta, k), k);
        assert!(obj.evaluate(&theta) < 1e-18);
    }

    #[test]
    fn objective_is_positive_away_from_the_generating_parameters() {
        let theta = Initiator2::new(0.99, 0.45, 0.25);
        let k = 10;
        let obj = MomentObjective::from_counts(observed_from(&theta, k), k);
        let off = Initiator2::new(0.8, 0.45, 0.25);
        assert!(obj.evaluate(&off) > 1e-6);
    }

    #[test]
    fn squared_distance_penalises_large_errors_more_than_absolute() {
        let theta = Initiator2::new(0.9, 0.5, 0.3);
        let k = 8;
        let observed = observed_from(&theta, k);
        // Perturb observed counts by a factor of 2 so the relative error per feature is 1.
        let doubled: [f64; 4] = std::array::from_fn(|i| observed[i] * 2.0);
        let sq = MomentObjective::from_counts(doubled, k)
            .with_distance(DistanceKind::Squared)
            .with_normalization(NormalizationKind::ObservedSquared)
            .evaluate(&theta);
        let abs = MomentObjective::from_counts(doubled, k)
            .with_distance(DistanceKind::Absolute)
            .with_normalization(NormalizationKind::Observed)
            .evaluate(&theta);
        // With F = 2E: DistSq/NormF² gives (E/F)² = 0.25 per feature; DistAbs/NormF gives 0.5.
        assert!((sq - 4.0 * 0.25).abs() < 1e-9, "sq {sq}");
        assert!(abs > sq);
    }

    #[test]
    fn all_normalisations_vanish_at_the_truth_and_are_positive_elsewhere() {
        let theta = Initiator2::new(0.95, 0.4, 0.2);
        let k = 9;
        let observed = observed_from(&theta, k);
        let off = Initiator2::new(0.7, 0.6, 0.1);
        for norm in [
            NormalizationKind::Observed,
            NormalizationKind::ObservedSquared,
            NormalizationKind::Expected,
            NormalizationKind::ExpectedSquared,
        ] {
            for dist in [DistanceKind::Squared, DistanceKind::Absolute] {
                let obj = MomentObjective::from_counts(observed, k)
                    .with_distance(dist)
                    .with_normalization(norm);
                assert!(obj.evaluate(&theta) < 1e-12, "{dist:?}/{norm:?} at truth");
                assert!(obj.evaluate(&off) > 0.0, "{dist:?}/{norm:?} away from truth");
            }
        }
    }

    #[test]
    fn feature_selection_drops_terms() {
        let theta = Initiator2::new(0.9, 0.5, 0.3);
        let k = 8;
        let mut observed = observed_from(&theta, k);
        // Corrupt only the triangle count; the triangle-free objective must remain zero.
        observed[2] *= 10.0;
        let with_triangles = MomentObjective::from_counts(observed, k).evaluate(&theta);
        let without = MomentObjective::from_counts(observed, k)
            .with_features(FeatureSelection::without_triangles())
            .evaluate(&theta);
        // With F = 10·E on the triangle term, DistSq/NormF² contributes (9/10)² = 0.81.
        assert!(with_triangles > 0.5);
        assert!(without < 1e-12);
        assert_eq!(FeatureSelection::without_triangles().count(), 3);
    }

    #[test]
    fn zero_observed_counts_do_not_produce_nan() {
        let obj = MomentObjective::from_counts([0.0, 0.0, 0.0, 0.0], 6);
        let value = obj.evaluate(&Initiator2::new(0.5, 0.5, 0.5));
        assert!(value.is_finite());
        assert!(value > 0.0);
    }

    #[test]
    fn evaluate_params_clamps_out_of_range_proposals() {
        let theta = Initiator2::new(0.9, 0.5, 0.3);
        let k = 7;
        let obj = MomentObjective::from_counts(observed_from(&theta, k), k);
        let inside = obj.evaluate_params(&[1.0, 0.5, 0.3]);
        let outside = obj.evaluate_params(&[1.7, 0.5, 0.3]);
        assert_eq!(inside, outside);
    }

    #[test]
    fn standard_constructor_uses_paper_defaults() {
        let stats =
            MatchingStatistics { edges: 100.0, hairpins: 300.0, tripins: 150.0, triangles: 40.0 };
        let obj = MomentObjective::standard(&stats, 10);
        assert_eq!(obj.distance, DistanceKind::Squared);
        assert_eq!(obj.normalization, NormalizationKind::ObservedSquared);
        assert_eq!(obj.observed, [100.0, 300.0, 40.0, 150.0]);
        assert_eq!(obj.features.count(), 4);
    }
}
