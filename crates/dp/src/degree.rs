//! Differentially private degree sequences (Hay, Li, Miklau, Jensen, ICDM 2009) and the
//! degree-derived statistics used by Algorithm 1.
//!
//! The pipeline is exactly the one the paper describes in Section 4.1:
//!
//! 1. sort the degree sequence of the graph (`dS`),
//! 2. add a vector of independent `Lap(GS/ε)` noise — the global sensitivity of the *sorted*
//!    degree sequence under single-edge change is `GS = 2` (one edge changes two degrees by one
//!    each),
//! 3. post-process the noisy sequence with *constrained inference*: project it back onto the
//!    cone of non-decreasing sequences (isotonic regression / PAVA), which removes much of the
//!    noise without consuming any additional privacy budget (post-processing is free),
//! 4. derive `Ẽ = ½ Σ d̃ᵢ`, `H̃ = ½ Σ d̃ᵢ(d̃ᵢ − 1)`, `T̃ = ⅙ Σ d̃ᵢ(d̃ᵢ − 1)(d̃ᵢ − 2)`
//!    (Fact 4.6: these are functions of the released sequence only).

use crate::budget::PrivacyParams;
use crate::laplace::laplace_mechanism;
use kronpriv_graph::Graph;
use kronpriv_json::impl_json_struct_redacted;
use kronpriv_linalg::IsotonicBlocks;
use kronpriv_obs::{stage, NullSink};
use kronpriv_par::{Executor, Work};
use rand::Rng;

/// Global sensitivity of the sorted degree sequence under addition/removal of one edge.
pub const DEGREE_SEQUENCE_SENSITIVITY: f64 = 2.0;

/// Fixed block length of the parallel PAVA pass. Like every `kronpriv-par` kernel the chunk
/// boundaries depend only on the input length — never on the thread count — so the projection
/// is byte-identical for 1 thread and for 64.
const ISOTONIC_CHUNK: usize = 1024;

/// The output of the private degree-sequence mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivateDegreeSequence {
    /// The released non-decreasing degree sequence `d̃` (after post-processing). Entries are
    /// real-valued and may be slightly negative around degree 0; the derived statistics clamp
    /// where appropriate.
    pub degrees: Vec<f64>,
    /// The raw noisy sequence before isotonic post-processing — **never serialized** (redacted
    /// block below); kept in memory for diagnostics/ablations only. Parsed values are empty.
    pub noisy_degrees: Vec<f64>,
    /// The privacy guarantee spent producing this release.
    pub params: PrivacyParams,
}

impl_json_struct_redacted!(PrivateDegreeSequence {
    released: { degrees, params },
    redacted: { noisy_degrees: Vec::new() },
});

impl PrivateDegreeSequence {
    /// `Ẽ`: the private estimate of the number of edges, `½ Σ d̃ᵢ`.
    pub fn edge_count(&self) -> f64 {
        0.5 * self.degrees.iter().sum::<f64>()
    }

    /// `H̃`: the private estimate of the number of hairpins (wedges), `½ Σ d̃ᵢ(d̃ᵢ − 1)`.
    pub fn hairpin_count(&self) -> f64 {
        0.5 * self.degrees.iter().map(|d| d * (d - 1.0)).sum::<f64>()
    }

    /// `T̃`: the private estimate of the number of tripins (3-stars),
    /// `⅙ Σ d̃ᵢ(d̃ᵢ − 1)(d̃ᵢ − 2)`.
    pub fn tripin_count(&self) -> f64 {
        self.degrees.iter().map(|d| d * (d - 1.0) * (d - 2.0)).sum::<f64>() / 6.0
    }

    /// L2 error of the released sequence against a reference (sorted) degree sequence; used by
    /// the accuracy experiments.
    pub fn l2_error(&self, reference: &[f64]) -> f64 {
        assert_eq!(self.degrees.len(), reference.len(), "length mismatch");
        self.degrees.iter().zip(reference).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt()
    }
}

/// Releases an `(ε, 0)`-differentially private approximation of the sorted degree sequence of
/// `g` (Hay et al.), spending the full `params.epsilon` on it. The isotonic post-processing
/// runs on `exec` via [`isotonic_increasing_par`], so the release is a pure function of
/// `(graph, params, rng)`: the thread count never changes the output. This is the form
/// Algorithm 1's estimator calls.
///
/// # Panics
/// Panics if `params.epsilon` is not positive (enforced by [`PrivacyParams`]).
// lint:sanitizer
pub fn private_degree_sequence<R: Rng + ?Sized>(
    g: &Graph,
    params: PrivacyParams,
    rng: &mut R,
    exec: &Executor,
) -> PrivateDegreeSequence {
    let mut sorted: Vec<f64> = g.degrees().iter().map(|&d| d as f64).collect();
    sorted.sort_by(|a, b| a.total_cmp(b));
    private_degree_sequence_from_sorted(&sorted, params, rng, exec)
}

/// Same as [`private_degree_sequence`] but starting from an already-sorted degree vector. Useful
/// for testing the mechanism in isolation and for ablation studies on synthetic sequences. The
/// noise is the Laplace mechanism of Theorem 4.5, [`laplace_mechanism`], with
/// `GS =` [`DEGREE_SEQUENCE_SENSITIVITY`].
// lint:sanitizer
pub fn private_degree_sequence_from_sorted<R: Rng + ?Sized>(
    sorted_degrees: &[f64],
    params: PrivacyParams,
    rng: &mut R,
    exec: &Executor,
) -> PrivateDegreeSequence {
    let noisy = stage("degree_release/laplace", &NullSink, || {
        laplace_mechanism(sorted_degrees, DEGREE_SEQUENCE_SENSITIVITY, params.epsilon, rng)
    });
    let fitted =
        stage("degree_release/isotonic", &NullSink, || isotonic_increasing_par(&noisy, exec));
    PrivateDegreeSequence { degrees: fitted, noisy_degrees: noisy, params }
}

/// The block-parallel constrained-inference pass: the same L2 projection onto the monotone cone
/// as [`kronpriv_linalg::isotonic_increasing`], decomposed over fixed `ISOTONIC_CHUNK`-length
/// blocks. Each block's PAVA solution is computed independently (the independent descending
/// runs inside a block never interact with other blocks until the merge) and the per-block
/// [`IsotonicBlocks`] stacks are merged **in index order** on the calling thread, pooling only
/// at the seams.
///
/// Byte-identical for every thread count (fixed chunk boundaries, chunk-order merge). Against
/// the element-at-a-time reference pass the result can differ by float associativity in the
/// pooled means (last ulp) — the regression tests pin the two to an `1e-9` band — because
/// pooling across a seam adds pre-pooled block sums instead of summing the elements one at a
/// time.
pub fn isotonic_increasing_par(values: &[f64], exec: &Executor) -> Vec<f64> {
    exec.map_reduce(
        values.len(),
        ISOTONIC_CHUNK,
        Work::LIGHT,
        |range| IsotonicBlocks::of(&values[range]),
        |acc: IsotonicBlocks, blocks| acc.merge(blocks),
        IsotonicBlocks::new(),
    )
    .expand()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplace::LaplaceNoise;
    use kronpriv_graph::counts::{hairpin_count, tripin_count};
    use kronpriv_graph::generators::preferential_attachment;
    use kronpriv_linalg::isotonic_increasing;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn star(leaves: usize) -> Graph {
        Graph::from_edges(leaves + 1, (1..=leaves as u32).map(|v| (0, v)))
    }

    #[test]
    fn release_has_the_same_length_as_the_degree_sequence() {
        let g = star(9);
        let mut rng = StdRng::seed_from_u64(1);
        let rel = private_degree_sequence(
            &g,
            PrivacyParams::pure(1.0),
            &mut rng,
            &Executor::sequential(),
        );
        assert_eq!(rel.degrees.len(), 10);
        assert_eq!(rel.noisy_degrees.len(), 10);
    }

    #[test]
    fn released_sequence_is_non_decreasing() {
        let g = preferential_attachment(300, 3, &mut StdRng::seed_from_u64(2));
        let mut rng = StdRng::seed_from_u64(3);
        let rel = private_degree_sequence(
            &g,
            PrivacyParams::pure(0.1),
            &mut rng,
            &Executor::sequential(),
        );
        assert!(rel.degrees.windows(2).all(|w| w[0] <= w[1] + 1e-12));
    }

    #[test]
    fn post_processing_never_hurts_l2_accuracy() {
        // The isotonic projection onto the monotone cone (which contains the true sorted
        // sequence) cannot increase the L2 distance to it — this is the core accuracy claim of
        // Hay et al.'s constrained inference.
        let g = preferential_attachment(500, 3, &mut StdRng::seed_from_u64(4));
        let mut truth: Vec<f64> = g.degrees().iter().map(|&d| d as f64).collect();
        truth.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let rel = private_degree_sequence(
                &g,
                PrivacyParams::pure(0.1),
                &mut rng,
                &Executor::sequential(),
            );
            let noisy_err: f64 = rel
                .noisy_degrees
                .iter()
                .zip(&truth)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            let fitted_err = rel.l2_error(&truth);
            assert!(
                fitted_err <= noisy_err + 1e-9,
                "seed {seed}: fitted {fitted_err} > noisy {noisy_err}"
            );
        }
    }

    #[test]
    fn large_epsilon_recovers_the_exact_statistics() {
        // With a huge budget the noise is negligible and the derived statistics must match the
        // exact degree-based counts.
        let g = preferential_attachment(200, 2, &mut StdRng::seed_from_u64(5));
        let mut rng = StdRng::seed_from_u64(6);
        let rel = private_degree_sequence(
            &g,
            PrivacyParams::pure(1e9),
            &mut rng,
            &Executor::sequential(),
        );
        let degrees = g.degrees();
        assert!((rel.edge_count() - g.edge_count() as f64).abs() < 1e-3);
        assert!((rel.hairpin_count() - hairpin_count(&degrees)).abs() < 1e-2);
        assert!((rel.tripin_count() - tripin_count(&degrees)).abs() < 1e-1);
    }

    #[test]
    fn moderate_epsilon_keeps_edge_count_error_within_the_analytic_noise_level() {
        // ε = 0.1 on a 1000-node heavy-tailed graph. The edge-count estimate is half the sum of
        // n independent Lap(2/ε) perturbations (the isotonic projection preserves the sum), so
        // its standard deviation is √(2n)·(2/ε)/2; check the observed error stays within 4σ.
        let g = preferential_attachment(1000, 3, &mut StdRng::seed_from_u64(7));
        let truth = g.edge_count() as f64;
        let epsilon = 0.1;
        let sigma = (2.0 * g.node_count() as f64).sqrt() * (2.0 / epsilon) / 2.0;
        let mut rng = StdRng::seed_from_u64(8);
        let rel = private_degree_sequence(
            &g,
            PrivacyParams::pure(epsilon),
            &mut rng,
            &Executor::sequential(),
        );
        let err = (rel.edge_count() - truth).abs();
        assert!(err < 4.0 * sigma, "error {err} exceeds 4 sigma ({})", 4.0 * sigma);
        // And the isotonic projection indeed preserves the degree sum.
        let noisy_sum: f64 = rel.noisy_degrees.iter().sum();
        let fitted_sum: f64 = rel.degrees.iter().sum();
        assert!((noisy_sum - fitted_sum).abs() < 1e-6);
    }

    #[test]
    fn statistics_are_exact_for_noiseless_sequences() {
        // Feeding an already-sorted integer degree sequence with enormous epsilon reproduces the
        // deterministic formulas of Fact 4.6.
        let sorted = vec![1.0, 1.0, 2.0, 3.0, 5.0];
        let mut rng = StdRng::seed_from_u64(9);
        let rel = private_degree_sequence_from_sorted(
            &sorted,
            PrivacyParams::pure(1e12),
            &mut rng,
            &Executor::sequential(),
        );
        assert!((rel.edge_count() - 6.0).abs() < 1e-6);
        // H = 0.5 * (0 + 0 + 2 + 6 + 20) = 14, T = (0 + 0 + 0 + 6 + 60)/6 = 11.
        assert!((rel.hairpin_count() - 14.0).abs() < 1e-6);
        assert!((rel.tripin_count() - 11.0).abs() < 1e-6);
    }

    #[test]
    fn smaller_epsilon_means_noisier_release() {
        let g = star(50);
        let mut truth: Vec<f64> = g.degrees().iter().map(|&d| d as f64).collect();
        truth.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let reps = 30;
        let mut err_tight = 0.0;
        let mut err_loose = 0.0;
        for seed in 0..reps {
            let mut rng1 = StdRng::seed_from_u64(1000 + seed);
            let mut rng2 = StdRng::seed_from_u64(2000 + seed);
            err_tight += private_degree_sequence(
                &g,
                PrivacyParams::pure(10.0),
                &mut rng1,
                &Executor::sequential(),
            )
            .l2_error(&truth);
            err_loose += private_degree_sequence(
                &g,
                PrivacyParams::pure(0.05),
                &mut rng2,
                &Executor::sequential(),
            )
            .l2_error(&truth);
        }
        assert!(
            err_loose > err_tight,
            "expected more error at small epsilon: tight {err_tight} loose {err_loose}"
        );
    }

    #[test]
    fn release_is_reproducible_given_a_seed() {
        let g = star(20);
        let a = private_degree_sequence(
            &g,
            PrivacyParams::pure(0.5),
            &mut StdRng::seed_from_u64(42),
            &Executor::sequential(),
        );
        let b = private_degree_sequence(
            &g,
            PrivacyParams::pure(0.5),
            &mut StdRng::seed_from_u64(42),
            &Executor::sequential(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_isotonic_matches_the_sequential_reference() {
        // The block-parallel pass must reproduce the element-at-a-time projection up to float
        // associativity, on inputs long enough to span several chunks with pooled runs crossing
        // the chunk seams.
        let mut rng = StdRng::seed_from_u64(11);
        let noise = LaplaceNoise::new(20.0);
        let noisy: Vec<f64> = (0..5 * ISOTONIC_CHUNK + 37)
            .map(|i| (i as f64).sqrt() + noise.sample(&mut rng))
            .collect();
        let reference = isotonic_increasing(&noisy);
        let par = isotonic_increasing_par(&noisy, &Executor::new(4));
        assert_eq!(par.len(), reference.len());
        assert!(par.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        for (i, (a, b)) in par.iter().zip(&reference).enumerate() {
            assert!((a - b).abs() < 1e-9, "index {i}: parallel {a} vs sequential {b}");
        }
        // The projection preserves the sum whichever way it is computed.
        assert!((par.iter().sum::<f64>() - noisy.iter().sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn parallel_isotonic_is_bit_identical_for_all_thread_counts() {
        let mut rng = StdRng::seed_from_u64(12);
        let noise = LaplaceNoise::new(5.0);
        let noisy: Vec<f64> =
            (0..6000).map(|i| (i as f64) * 0.01 + noise.sample(&mut rng)).collect();
        let reference = isotonic_increasing_par(&noisy, &Executor::sequential());
        for threads in [2usize, 8] {
            let got = isotonic_increasing_par(&noisy, &Executor::new(threads));
            assert_eq!(got.len(), reference.len());
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_release_is_invariant_under_the_thread_knob() {
        let g = preferential_attachment(3000, 3, &mut StdRng::seed_from_u64(13));
        let release = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(14);
            private_degree_sequence(&g, PrivacyParams::pure(0.1), &mut rng, &Executor::new(threads))
        };
        let reference = release(1);
        assert!(reference.degrees.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        for threads in [2usize, 8] {
            assert_eq!(release(threads), reference, "threads {threads}");
        }
    }

    #[test]
    fn empty_graph_release_is_near_zero() {
        let g = Graph::empty(5);
        let mut rng = StdRng::seed_from_u64(10);
        let rel = private_degree_sequence(
            &g,
            PrivacyParams::pure(1e6),
            &mut rng,
            &Executor::sequential(),
        );
        assert!(rel.edge_count().abs() < 1e-3);
    }
}
