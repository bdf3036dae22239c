//! The full private synthetic-graph release of the paper's introduction: estimate privately,
//! then sample.

use kronpriv_dp::PrivacyParams;
use kronpriv_estimate::{
    try_private_estimate, PipelineError, PrivateEstimate, PrivateEstimatorOptions,
};
use kronpriv_graph::Graph;
use kronpriv_obs::{stage, ProgressSink};
use kronpriv_par::Executor;
use kronpriv_skg::sample::sample_fast;
use rand::rngs::StdRng;

/// The full pipeline of the paper's introduction: runs [`try_private_estimate`] and samples one
/// synthetic graph from the released initiator, with the sampler's bulk placement round on
/// `exec` (the graph is the same for every thread count). The estimate's stage events plus a
/// final `sample` stage pair flow into `sink`.
pub fn try_release_synthetic_graph(
    g: &Graph,
    params: PrivacyParams,
    options: &PrivateEstimatorOptions,
    rng: &mut StdRng,
    exec: &Executor,
    sink: &dyn ProgressSink,
) -> Result<SyntheticRelease, PipelineError> {
    let estimate = try_private_estimate(g, params, options, rng, exec, sink)?;
    let synthetic =
        stage("sample", sink, || sample_fast(&estimate.fit.theta, estimate.fit.k, rng, exec));
    Ok(SyntheticRelease { estimate, synthetic })
}

/// The output of the end-to-end private release: the published estimate plus one synthetic graph
/// sampled from it.
#[derive(Debug, Clone)]
pub struct SyntheticRelease {
    /// The `(ε, δ)`-private estimate (safe to publish).
    pub estimate: PrivateEstimate,
    /// A synthetic graph sampled from the published initiator. Sampling uses only released
    /// values, so it costs no additional privacy budget.
    pub synthetic: Graph,
}

#[cfg(test)]
mod tests {
    use super::*;
    use kronpriv_estimate::{
        try_kronfit_estimate, try_kronmom_estimate, FittedInitiator, KronFitOptions, KronMomOptions,
    };
    use kronpriv_obs::NullSink;
    use kronpriv_skg::Initiator2;
    use rand::SeedableRng;

    /// The default-options release on an auto-sized pool.
    fn release(g: &Graph, params: PrivacyParams, rng: &mut StdRng) -> SyntheticRelease {
        let options = PrivateEstimatorOptions::default();
        try_release_synthetic_graph(g, params, &options, rng, &Executor::new(0), &NullSink).unwrap()
    }

    fn small_graph(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        sample_fast(&Initiator2::new(0.95, 0.55, 0.2), 9, &mut rng, &Executor::sequential())
    }

    fn quick_kronfit() -> KronFitOptions {
        KronFitOptions {
            gradient_steps: 15,
            warmup_swaps: 2_000,
            samples_per_step: 2,
            swaps_between_samples: 500,
            ..Default::default()
        }
    }

    /// One Table 1 row on `g`: KronFit, KronMom and the private estimate, in that order, on one
    /// RNG (the permutation sampling and the privacy noise) and one executor.
    fn three_fits(
        g: &Graph,
        params: PrivacyParams,
        rng: &mut StdRng,
    ) -> (FittedInitiator, FittedInitiator, PrivateEstimate) {
        let exec = Executor::new(0);
        let kronfit = try_kronfit_estimate(g, &quick_kronfit(), rng, &exec, &NullSink).unwrap();
        let kronmom =
            try_kronmom_estimate(g, &KronMomOptions::default(), &exec, &NullSink).unwrap();
        let options = PrivateEstimatorOptions::default();
        let private = try_private_estimate(g, params, &options, rng, &exec, &NullSink).unwrap();
        (kronfit, kronmom, private)
    }

    #[test]
    fn estimator_suite_produces_three_consistent_fits() {
        let g = small_graph(1);
        let mut rng = StdRng::seed_from_u64(2);
        let (kronfit, kronmom, private) = three_fits(&g, PrivacyParams::new(1.0, 0.01), &mut rng);
        assert_eq!(kronfit.k, kronmom.k);
        assert_eq!(kronmom.k, private.fit.k);
        for fit in [&kronfit, &kronmom, &private.fit] {
            assert!(fit.theta.a >= fit.theta.c, "canonical form violated: {:?}", fit.theta);
            for p in fit.theta.as_array() {
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn suite_is_reproducible_from_a_seed() {
        let g = small_graph(3);
        let run =
            |seed| three_fits(&g, PrivacyParams::paper_default(), &mut StdRng::seed_from_u64(seed));
        let a = run(42);
        let b = run(42);
        assert_eq!(a.0.theta, b.0.theta);
        assert_eq!(a.2.fit.theta, b.2.fit.theta);
    }

    #[test]
    fn synthetic_release_produces_a_graph_of_matching_order() {
        let g = small_graph(4);
        let mut rng = StdRng::seed_from_u64(5);
        let release = release(&g, PrivacyParams::new(1.0, 0.01), &mut rng);
        assert_eq!(release.synthetic.node_count(), 1 << release.estimate.fit.k);
        assert!(release.synthetic.edge_count() > 0);
    }

    #[test]
    fn try_pipeline_rejects_bad_preconditions_without_panicking() {
        let exec = Executor::new(0);
        let mut rng = StdRng::seed_from_u64(20);
        let options = PrivateEstimatorOptions::default();
        let empty = Graph::from_edges(4, Vec::new());
        assert_eq!(
            try_private_estimate(
                &empty,
                PrivacyParams::new(1.0, 0.01),
                &options,
                &mut rng,
                &exec,
                &NullSink
            )
            .unwrap_err(),
            PipelineError::EmptyGraph
        );
        let g = small_graph(21);
        assert_eq!(
            try_private_estimate(
                &g,
                PrivacyParams::pure(1.0),
                &options,
                &mut rng,
                &exec,
                &NullSink
            )
            .unwrap_err(),
            PipelineError::InvalidOption(
                "the triangle release requires delta > 0 (or use degrees_only)".to_string()
            )
        );
        let bad = PrivateEstimatorOptions { degree_budget_fraction: 1.5, ..Default::default() };
        assert_eq!(
            try_private_estimate(
                &g,
                PrivacyParams::new(1.0, 0.01),
                &bad,
                &mut rng,
                &exec,
                &NullSink
            )
            .unwrap_err(),
            PipelineError::InvalidOption(
                "degree_budget_fraction must be in (0,1), got 1.5".to_string()
            )
        );
    }

    #[test]
    fn one_node_edge_lists_are_rejected_cleanly_by_every_estimator() {
        // Regression: a SNAP upload like "0 0" parses to a single node with no edges (self-
        // loops are dropped), i.e. `kronecker_order_for(1) == 0`. Every estimator must reject
        // it as EmptyGraph instead of reaching the k = 0 gradient path.
        let g = kronpriv_graph::io::parse_edge_list_reader("0 0\n".as_bytes()).unwrap();
        assert_eq!((g.node_count(), g.edge_count()), (1, 0));
        let exec = Executor::new(0);
        let mut rng = StdRng::seed_from_u64(30);
        assert_eq!(
            try_private_estimate(
                &g,
                PrivacyParams::new(1.0, 0.01),
                &PrivateEstimatorOptions::default(),
                &mut rng,
                &exec,
                &NullSink,
            )
            .unwrap_err(),
            PipelineError::EmptyGraph
        );
        assert_eq!(
            try_kronfit_estimate(&g, &KronFitOptions::default(), &mut rng, &exec, &NullSink)
                .unwrap_err(),
            PipelineError::EmptyGraph
        );
        assert_eq!(
            try_kronmom_estimate(&g, &KronMomOptions::default(), &exec, &NullSink).unwrap_err(),
            PipelineError::EmptyGraph
        );
    }

    #[test]
    fn baseline_estimates_run_through_the_fallible_entry_points() {
        let g = small_graph(31);
        let mut rng = StdRng::seed_from_u64(32);
        let quick = quick_kronfit();
        let exec = Executor::new(0);
        let fit = try_kronfit_estimate(&g, &quick, &mut rng, &exec, &NullSink).unwrap();
        assert!(fit.theta.a >= fit.theta.c);
        let fit = try_kronmom_estimate(&g, &KronMomOptions::default(), &exec, &NullSink).unwrap();
        assert!(fit.theta.a >= fit.theta.c);
    }

    #[test]
    fn try_pipeline_accepts_valid_input_and_matches_its_two_steps() {
        let g = small_graph(22);
        let options = PrivateEstimatorOptions::default();
        let params = PrivacyParams::new(1.0, 0.01);
        let mut rng = StdRng::seed_from_u64(23);
        let released = release(&g, params, &mut rng);
        // The release is the estimate followed by one sample, on the same RNG.
        let exec = Executor::new(0);
        let mut rng = StdRng::seed_from_u64(23);
        let estimate = try_private_estimate(&g, params, &options, &mut rng, &exec, &NullSink);
        let estimate = estimate.unwrap();
        let synthetic = sample_fast(&estimate.fit.theta, estimate.fit.k, &mut rng, &exec);
        assert_eq!(released.estimate.fit.theta, estimate.fit.theta);
        assert_eq!(released.synthetic.edges(), synthetic.edges());
        // Degrees-only runs are allowed with δ = 0.
        let mut rng = StdRng::seed_from_u64(24);
        let ablation = PrivateEstimatorOptions { degrees_only: true, ..Default::default() };
        let est = try_private_estimate(
            &g,
            PrivacyParams::pure(0.5),
            &ablation,
            &mut rng,
            &exec,
            &NullSink,
        )
        .unwrap();
        assert!(est.triangle_release.is_none());
    }

    #[test]
    fn generous_budget_release_matches_the_original_edge_count_roughly() {
        let g = small_graph(6);
        let mut rng = StdRng::seed_from_u64(7);
        let release = release(&g, PrivacyParams::new(1e6, 0.01), &mut rng);
        let ratio = release.synthetic.edge_count() as f64 / g.edge_count() as f64;
        assert!((0.6..=1.6).contains(&ratio), "edge ratio {ratio}");
    }
}
