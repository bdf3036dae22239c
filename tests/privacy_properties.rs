//! Integration tests focused on the privacy-relevant properties of the released artefacts:
//! sensitivity bookkeeping, composition accounting, and an empirical indistinguishability check
//! of the end-to-end release on neighbouring graphs.

use kronpriv::prelude::*;
use kronpriv_dp::{
    private_degree_sequence, smooth_sensitivity_triangles, triangle_local_sensitivity,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn base_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    sample_fast(&Initiator2::new(0.95, 0.5, 0.2), 10, &mut rng, &Executor::sequential())
}

#[test]
fn budget_accounting_of_algorithm_one_composes_to_the_requested_guarantee() {
    // Sequential composition (Theorem 4.9) of the two releases a real run made, at an uneven
    // split: the degree release is pure DP, the triangle release carries all of δ, and their
    // epsilons add up to the requested ε.
    let graph = base_graph(5);
    let params = PrivacyParams::paper_default();
    let options = PrivateEstimatorOptions { degree_budget_fraction: 0.3, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(6);
    let est =
        try_private_estimate(&graph, params, &options, &mut rng, &Executor::new(0), &NullSink)
            .unwrap();
    let degree = est.degree_release.params;
    let triangle = est.triangle_release.expect("triangle release present by default").params;
    assert!((degree.epsilon + triangle.epsilon - params.epsilon).abs() < 1e-12);
    assert!((degree.epsilon - 0.3 * params.epsilon).abs() < 1e-12);
    assert_eq!(degree.delta, 0.0);
    assert_eq!(triangle.delta, params.delta);
}

#[test]
fn private_estimate_reports_exactly_the_budget_it_was_given() {
    let graph = base_graph(1);
    let mut rng = StdRng::seed_from_u64(2);
    let params = PrivacyParams::new(0.3, 0.005);
    let options = PrivateEstimatorOptions::default();
    let est =
        try_private_estimate(&graph, params, &options, &mut rng, &Executor::new(0), &NullSink)
            .unwrap();
    assert_eq!(est.params, params);
    // The two sub-releases carry the split budgets.
    assert!((est.degree_release.params.epsilon - 0.15).abs() < 1e-12);
    let tri = est.triangle_release.expect("triangle release present by default");
    assert!((tri.params.epsilon - 0.15).abs() < 1e-12);
    assert!((tri.params.delta - 0.005).abs() < 1e-12);
}

#[test]
fn smooth_sensitivity_changes_slowly_across_edge_neighbours() {
    // The defining property that makes the triangle release private: the noise magnitude itself
    // cannot change abruptly between neighbouring graphs.
    let graph = base_graph(3);
    let beta = 0.05;
    let base = smooth_sensitivity_triangles(&graph, beta, &Executor::sequential());
    for &(u, v) in graph.edges().iter().take(10) {
        let neighbour = graph.with_edge_removed(u, v);
        let other = smooth_sensitivity_triangles(&neighbour, beta, &Executor::sequential());
        assert!(base <= beta.exp() * other + 1e-9, "{base} vs {other}");
        assert!(other <= beta.exp() * base + 1e-9, "{other} vs {base}");
    }
}

#[test]
fn degree_sequence_noise_scale_matches_the_sensitivity_bound() {
    // Removing one edge changes the sorted degree sequence by at most 2 in L1; the release's
    // accuracy must therefore be governed by Lap(2/ε) noise. We check the empirical spread of
    // the released edge count across repetitions is consistent with that scale (and would fail
    // if the implementation under-noised, i.e. broke the privacy guarantee).
    let graph = base_graph(4);
    let epsilon = 0.5;
    let n = graph.node_count() as f64;
    let reps = 40;
    let mut errors = Vec::new();
    for seed in 0..reps {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let release = private_degree_sequence(
            &graph,
            PrivacyParams::pure(epsilon),
            &mut rng,
            &Executor::sequential(),
        );
        errors.push(release.edge_count() - graph.edge_count() as f64);
    }
    let variance: f64 = errors.iter().map(|e| e * e).sum::<f64>() / reps as f64;
    // Analytic variance of the edge-count estimator: n · 2·(2/ε)² / 4.
    let expected = n * 2.0 * (2.0 / epsilon).powi(2) / 4.0;
    assert!(
        variance > 0.3 * expected && variance < 3.0 * expected,
        "observed variance {variance}, expected ≈ {expected}"
    );
}

#[test]
fn releases_on_neighbouring_graphs_are_statistically_close() {
    // A coarse end-to-end indistinguishability check: the distribution of the released edge
    // statistic on neighbouring graphs (differing in one edge) should overlap heavily at
    // moderate ε. This does not prove DP, but it would catch gross violations such as forgetting
    // the noise or mis-scaling the sensitivity.
    let graph = base_graph(5);
    let &(u, v) = graph.edges().first().expect("non-empty graph");
    let neighbour = graph.with_edge_removed(u, v);
    let epsilon = 0.5;
    let reps = 60;
    let seq = Executor::sequential();
    let released = |g: &Graph, offset: u64| -> Vec<f64> {
        (0..reps)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(offset + seed);
                private_degree_sequence(g, PrivacyParams::pure(epsilon), &mut rng, &seq)
                    .edge_count()
            })
            .collect()
    };
    let a = released(&graph, 10_000);
    let b = released(&neighbour, 20_000);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let sd = |v: &[f64]| {
        let m = mean(v);
        (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
    };
    // The means differ by exactly one edge in expectation, which must be far smaller than the
    // noise spread — otherwise an observer could tell the two graphs apart from one release.
    let gap = (mean(&a) - mean(&b)).abs();
    let spread = sd(&a).max(sd(&b));
    assert!(gap < 0.5 * spread, "gap {gap} vs spread {spread}");
}

#[test]
fn local_sensitivity_is_bounded_by_max_degree() {
    // Sanity relation used throughout the smooth-sensitivity analysis: a common neighbour of any
    // pair is a neighbour of both, so the count is at most the maximum degree.
    let graph = base_graph(6);
    assert!(triangle_local_sensitivity(&graph, &Executor::sequential()) <= graph.max_degree());
}
