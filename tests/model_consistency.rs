//! Integration tests for the consistency between the model's closed-form expectations, the
//! samplers, the observed-count machinery, and the estimators — the chain every experiment in
//! the paper relies on.

use kronpriv::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn monte_carlo_moments_of_the_fast_sampler_match_the_closed_forms() {
    // The closed forms (Equation 1) were validated against the exact sampler inside
    // `kronpriv-skg`; here we close the loop on the fast sampler used by every experiment.
    let theta = Initiator2::new(0.95, 0.5, 0.2);
    let k = 10;
    let reps = 30;
    let mut rng = StdRng::seed_from_u64(1);
    let mut sums = [0.0f64; 4];
    for _ in 0..reps {
        let g = sample_fast(&theta, k, &SamplerOptions::default(), &mut rng);
        let s = MatchingStatistics::of_graph(&g).as_array();
        for i in 0..4 {
            sums[i] += s[i] / reps as f64;
        }
    }
    let expected = ExpectedMoments::of(&theta, k).as_array();
    // Edges should match tightly; higher-order counts inherit the fast sampler's approximation
    // and sampling variance, so the bands widen.
    let tolerance = [0.05, 0.15, 0.35, 0.25];
    for i in 0..4 {
        let rel = (sums[i] - expected[i]).abs() / expected[i].max(1.0);
        assert!(
            rel < tolerance[i],
            "moment {i}: sampled {} vs expected {} (rel {rel})",
            sums[i],
            expected[i]
        );
    }
}

#[test]
fn estimation_then_resampling_preserves_the_matching_statistics() {
    // Fit -> sample -> recount: the resampled graph's statistics should look like the original's
    // (this is the "synthetic graph mimics the original" claim in operational form).
    let truth = Initiator2::new(0.99, 0.45, 0.25);
    let mut rng = StdRng::seed_from_u64(2);
    let original = sample_fast(&truth, 12, &SamplerOptions::default(), &mut rng);
    let fit = KronMomEstimator::default().fit_graph(&original, &Executor::new(0));
    let resampled = sample_fast(&fit.theta, fit.k, &SamplerOptions::default(), &mut rng);
    let a = MatchingStatistics::of_graph(&original);
    let b = MatchingStatistics::of_graph(&resampled);
    assert!((a.edges - b.edges).abs() / a.edges < 0.15, "edges {} vs {}", a.edges, b.edges);
    assert!(
        (a.hairpins - b.hairpins).abs() / a.hairpins < 0.4,
        "hairpins {} vs {}",
        a.hairpins,
        b.hairpins
    );
}

#[test]
fn degree_derived_counts_agree_with_direct_counts_on_every_generator() {
    // Fact 4.6's formulas, applied to exact (noise-free) degree sequences, must agree with the
    // direct subgraph counters for any graph, whichever generator produced it.
    let mut rng = StdRng::seed_from_u64(3);
    let graphs = vec![
        kronpriv_graph::generators::erdos_renyi_gnp(300, 0.02, &mut rng),
        kronpriv_graph::generators::preferential_attachment(300, 3, &mut rng),
        Dataset::CaGrQc.generate(4),
    ];
    for g in graphs {
        let stats = MatchingStatistics::of_graph(&g);
        let degrees: Vec<f64> = g.degrees().iter().map(|&d| d as f64).collect();
        let derived = MatchingStatistics::from_degree_sequence(&degrees, stats.triangles);
        assert!((stats.edges - derived.edges).abs() < 1e-6);
        assert!((stats.hairpins - derived.hairpins).abs() < 1e-6);
        assert!((stats.tripins - derived.tripins).abs() < 1e-6);
    }
}

// Former proptest properties (12 cases each), now deterministic seeded loops.
#[test]
fn kronmom_recovers_arbitrary_initiators_from_their_own_expectations() {
    let mut rng = StdRng::seed_from_u64(0x3C_7001);
    for _ in 0..12 {
        let a = rng.gen_range(0.55..1.0);
        let b = rng.gen_range(0.2..0.8);
        let c = rng.gen_range(0.05..0.5);
        // For any initiator in the realistic region, feeding its exact expected moments into the
        // KronMom objective recovers it (up to the a/c canonical ordering).
        let truth = Initiator2::new(a, b, c).canonicalized();
        let k = 12;
        let m = ExpectedMoments::of(&truth, k);
        let stats = MatchingStatistics {
            edges: m.edges,
            hairpins: m.hairpins,
            tripins: m.tripins,
            triangles: m.triangles,
        };
        let fit = KronMomEstimator::default().fit_statistics(&stats, k, &Executor::new(0));
        assert!(fit.theta.distance(&truth) < 0.05, "recovered {:?} from {truth:?}", fit.theta);
    }
}

#[test]
fn private_statistics_are_always_finite_and_non_negative() {
    let mut outer = StdRng::seed_from_u64(0x3C_7002);
    for _ in 0..12 {
        let seed = outer.gen_range(0..50u64);
        let epsilon = outer.gen_range(0.05..2.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let g =
            sample_fast(&Initiator2::new(0.9, 0.5, 0.2), 9, &SamplerOptions::default(), &mut rng);
        let est = PrivateEstimator::default().fit(
            &g,
            PrivacyParams::new(epsilon, 0.01),
            &mut rng,
            &Executor::new(0),
            &NullSink,
        );
        for v in est.private_statistics {
            assert!(v.is_finite());
            assert!(v >= 0.0);
        }
        for p in est.fit.theta.as_array() {
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
