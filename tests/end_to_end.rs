//! Cross-crate integration tests: the full Algorithm 1 pipeline from a sensitive graph to a
//! published synthetic graph, exercised through the public facade exactly as a downstream user
//! would.

use kronpriv::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The default-options release on an auto-sized pool.
fn release(g: &Graph, params: PrivacyParams, rng: &mut StdRng) -> SyntheticRelease {
    let options = PrivateEstimatorOptions::default();
    try_release_synthetic_graph(g, params, &options, rng, &Executor::new(0), &NullSink)
        .expect("a valid release")
}

fn sensitive_graph(k: u32, seed: u64) -> (Initiator2, Graph) {
    let truth = Initiator2::new(0.99, 0.45, 0.25);
    let mut rng = StdRng::seed_from_u64(seed);
    (truth, sample_fast(&truth, k, &SamplerOptions::default(), &mut rng))
}

#[test]
fn private_release_pipeline_produces_a_plausible_synthetic_graph() {
    let (_, graph) = sensitive_graph(12, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let release = release(&graph, PrivacyParams::new(0.5, 0.01), &mut rng);

    // The synthetic graph has the padded node count and a comparable edge budget.
    assert_eq!(release.synthetic.node_count(), 4096);
    let edge_ratio = release.synthetic.edge_count() as f64 / graph.edge_count() as f64;
    assert!((0.4..=2.0).contains(&edge_ratio), "edge ratio {edge_ratio}");

    // The published estimate is canonical and inside the parameter box.
    let theta = release.estimate.fit.theta;
    assert!(theta.a >= theta.c);
    for p in theta.as_array() {
        assert!((0.0..=1.0).contains(&p));
    }
}

#[test]
fn private_estimate_tracks_kronmom_at_the_papers_budget() {
    // The paper's central empirical claim (Table 1): at ε = 0.2, δ = 0.01 the private estimator
    // lands close to the non-private moment estimator. On an SKG-generated graph the triangle
    // count is tiny (the model's clustering deficit), so the released Δ̃ carries no signal and
    // the degree-derived moments pin down only the initiator *row sums* (a + b) and (b + c) —
    // the quantities that determine the degree distribution. The reproducible claim at this
    // budget is therefore row-sum agreement; EXPERIMENTS.md discusses the full-parameter gap and
    // how it closes on triangle-rich (real) networks or larger budgets.
    let (_, graph) = sensitive_graph(13, 3);
    let kronmom = KronMomEstimator::default().fit_graph(&graph, &Executor::new(0));
    // The gap is a random variable of the Laplace noise draw; at this tight budget its tail
    // reaches ~0.08 on unlucky seeds. Assert the *typical* (median over five seeds) agreement
    // tightly and every individual draw loosely, so the test checks the claim rather than one
    // noise realization.
    let mut gaps = Vec::new();
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let private = PrivateEstimator::default().fit(
            &graph,
            PrivacyParams::paper_default(),
            &mut rng,
            &Executor::new(0),
            &NullSink,
        );
        let theta = private.fit.theta;
        let row_sum_gap = ((theta.a + theta.b) - (kronmom.theta.a + kronmom.theta.b))
            .abs()
            .max(((theta.b + theta.c) - (kronmom.theta.b + kronmom.theta.c)).abs());
        assert!(
            row_sum_gap < 0.12,
            "seed {seed}: row-sum gap {row_sum_gap:.3}; private {:?} vs kronmom {:?}",
            theta,
            kronmom.theta
        );
        gaps.push(row_sum_gap);
    }
    gaps.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!(gaps[gaps.len() / 2] < 0.06, "median row-sum gap too large: {gaps:?}");
    // With a more generous budget the full parameter vector is pinned down as well.
    let mut rng = StdRng::seed_from_u64(500);
    let generous = PrivateEstimator::default().fit(
        &graph,
        PrivacyParams::new(1.0, 0.01),
        &mut rng,
        &Executor::new(0),
        &NullSink,
    );
    assert!(
        generous.fit.theta.distance(&kronmom.theta) < 0.1,
        "ε=1 estimate {:?} vs kronmom {:?}",
        generous.fit.theta,
        kronmom.theta
    );
}

#[test]
fn larger_budgets_never_hurt_utility_substantially() {
    let (_, graph) = sensitive_graph(12, 4);
    let kronmom = KronMomEstimator::default().fit_graph(&graph, &Executor::new(0));
    let distance_at = |epsilon: f64| {
        let reps = 3;
        let mut total = 0.0;
        for seed in 0..reps {
            let mut rng = StdRng::seed_from_u64(200 + seed);
            let est = PrivateEstimator::default().fit(
                &graph,
                PrivacyParams::new(epsilon, 0.01),
                &mut rng,
                &Executor::new(0),
                &NullSink,
            );
            total += est.fit.theta.distance(&kronmom.theta);
        }
        total / reps as f64
    };
    let tight = distance_at(0.05);
    let generous = distance_at(5.0);
    assert!(
        generous <= tight + 0.02,
        "utility should not degrade with more budget: ε=5 gives {generous}, ε=0.05 gives {tight}"
    );
}

#[test]
fn degree_statistics_of_the_synthetic_graph_mimic_the_original() {
    let (_, graph) = sensitive_graph(12, 5);
    let mut rng = StdRng::seed_from_u64(6);
    let release = release(&graph, PrivacyParams::new(1.0, 0.01), &mut rng);

    let options = ProfileOptions { scree_values: 10, network_values: 50, skip_hop_plot: true };
    let original = GraphProfile::compute("original", &graph, &options, &mut rng);
    let synthetic = GraphProfile::compute("synthetic", &release.synthetic, &options, &mut rng);
    let cmp = ProfileComparison::between(&original, &graph, &synthetic, &release.synthetic);

    assert!(cmp.edge_count_relative_error < 0.5, "{cmp:?}");
    assert!(cmp.degree_distribution_distance < 0.25, "{cmp:?}");
    assert!(cmp.leading_singular_value_relative_error < 0.5, "{cmp:?}");
}

#[test]
fn all_three_estimators_agree_on_a_well_specified_model() {
    // On data actually generated by the model, all three estimators should land in the same
    // region of parameter space (Table 1's synthetic row).
    let (truth, graph) = sensitive_graph(12, 7);
    let mut rng = StdRng::seed_from_u64(8);
    let suite = estimate_with_all_estimators(
        &graph,
        PrivacyParams::new(1.0, 0.01),
        &KronFitOptions {
            gradient_steps: 30,
            warmup_swaps: 5_000,
            samples_per_step: 2,
            swaps_between_samples: 1_000,
            ..Default::default()
        },
        &KronMomOptions::default(),
        &PrivateEstimatorOptions::default(),
        &mut rng,
        &Executor::new(0),
    );
    assert!(suite.kronmom.theta.distance(&truth) < 0.1, "kronmom {:?}", suite.kronmom.theta);
    assert!(
        suite.private.fit.theta.distance(&truth) < 0.15,
        "private {:?}",
        suite.private.fit.theta
    );
    assert!(suite.kronfit.theta.distance(&truth) < 0.25, "kronfit {:?}", suite.kronfit.theta);
}

#[test]
fn dataset_standins_flow_through_the_full_pipeline() {
    // Smallest real-network stand-in through the whole pipeline, as the bench harness does.
    let graph = Dataset::CaGrQc.generate(9);
    let mut rng = StdRng::seed_from_u64(10);
    let est = PrivateEstimator::default().fit(
        &graph,
        PrivacyParams::paper_default(),
        &mut rng,
        &Executor::new(0),
        &NullSink,
    );
    // The paper's fits for CA-GrQc sit at a ≈ 1.0, b ≈ 0.46, c ≈ 0.28-0.29 and the stand-in was
    // generated from exactly that region. At ε = 0.2 on the (triangle-poor) stand-in the
    // identifiable quantities are the row sums — see EXPERIMENTS.md — so that is what the
    // estimate must come back to.
    let paper = Dataset::CaGrQc.table1_row().private;
    let theta = est.fit.theta;
    let row_sum_gap = ((theta.a + theta.b) - (paper.a + paper.b))
        .abs()
        .max(((theta.b + theta.c) - (paper.b + paper.c)).abs());
    assert!(
        row_sum_gap < 0.08,
        "estimate {:?} vs paper {:?} (row-sum gap {row_sum_gap:.3})",
        theta,
        paper
    );
}
