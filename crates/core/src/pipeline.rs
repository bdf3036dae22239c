//! High-level pipelines: run all three estimators on one graph, or perform the full private
//! synthetic-graph release of the paper's introduction (estimate privately, then sample).

use kronpriv_dp::PrivacyParams;
use kronpriv_estimate::{
    FittedInitiator, KronFitEstimator, KronFitOptions, KronMomEstimator, KronMomOptions,
    PrivateEstimate, PrivateEstimator, PrivateEstimatorOptions,
};
use kronpriv_graph::Graph;
use kronpriv_json::impl_json_struct;
use kronpriv_obs::{stage, NullSink, ProgressSink};
use kronpriv_par::Executor;
use kronpriv_skg::sample::sample_fast;
use rand::rngs::StdRng;
use rand::Rng;

/// A pipeline precondition violation, reported instead of a worker-thread panic.
///
/// The panicking estimator ([`PrivateEstimator::fit`]) asserts these conditions; the `try_`
/// forms ([`try_private_estimate`], [`try_release_synthetic_graph`]) check them up front and
/// return this error so callers such as the HTTP server can map bad requests to 4xx responses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PipelineError {
    /// The input graph has no nodes or no edges, so no model can be estimated from it.
    EmptyGraph,
    /// `δ = 0` was supplied but the smooth-sensitivity triangle release requires `δ > 0`
    /// (select the degrees-only ablation to run with pure DP).
    DeltaRequired,
    /// The configured degree-budget fraction lies outside the open interval `(0, 1)`.
    InvalidBudgetFraction(
        /// The rejected fraction.
        f64,
    ),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::EmptyGraph => {
                write!(f, "the input graph is empty (no nodes or no edges)")
            }
            PipelineError::DeltaRequired => {
                write!(f, "the triangle release requires delta > 0 (or use degrees_only)")
            }
            PipelineError::InvalidBudgetFraction(frac) => {
                write!(f, "degree_budget_fraction must be in (0,1), got {frac}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Checks the graph-independent preconditions of Algorithm 1 — the single source of truth
/// shared by [`try_private_estimate`] and request validation in the HTTP server (which wants to
/// reject bad budgets/options with a 400 before a graph is ever materialised).
pub fn validate_estimator_inputs(
    params: PrivacyParams,
    options: &PrivateEstimatorOptions,
) -> Result<(), PipelineError> {
    let frac = options.degree_budget_fraction;
    if !(frac > 0.0 && frac < 1.0) {
        return Err(PipelineError::InvalidBudgetFraction(frac));
    }
    if params.delta == 0.0 && !options.degrees_only {
        return Err(PipelineError::DeltaRequired);
    }
    Ok(())
}

/// Fallible form of [`PrivateEstimator::fit`]: validates the pipeline preconditions and returns
/// an error instead of panicking. Every parallel stage borrows `exec`, so hosts that serve many
/// jobs — the HTTP server in particular — build one executor at startup and pass it here. Stage
/// boundary events flow into `sink` (pass [`NullSink`] to ignore them); the sink never changes
/// the estimate.
pub fn try_private_estimate<R: Rng + ?Sized>(
    g: &Graph,
    params: PrivacyParams,
    options: &PrivateEstimatorOptions,
    rng: &mut R,
    exec: &Executor,
    sink: &dyn ProgressSink,
) -> Result<PrivateEstimate, PipelineError> {
    if g.node_count() == 0 || g.edge_count() == 0 {
        return Err(PipelineError::EmptyGraph);
    }
    validate_estimator_inputs(params, options)?;
    Ok(PrivateEstimator::new(*options).fit(g, params, rng, exec, sink))
}

/// Fallible KronFit baseline: checks the graph is non-empty and runs the multi-chain
/// approximate-MLE fit on `exec`. The `kronfit` stage pair plus one `ChainStep` per chain per
/// ascent step flow into `sink` (see [`KronFitEstimator::fit_graph`]); the sink never changes
/// the fit. This is the entry point the server uses for `/api/estimate` with
/// `"estimator": "kronfit"`. **Not differentially private** — it touches the exact graph; it
/// exists so the service can serve the paper's baseline columns for comparison.
pub fn try_kronfit_estimate<R: Rng + ?Sized>(
    g: &Graph,
    options: &KronFitOptions,
    rng: &mut R,
    exec: &Executor,
    sink: &dyn ProgressSink,
) -> Result<FittedInitiator, PipelineError> {
    if g.node_count() == 0 || g.edge_count() == 0 {
        return Err(PipelineError::EmptyGraph);
    }
    Ok(KronFitEstimator::new(*options).fit_graph(g, rng, exec, sink))
}

/// Fallible KronMom baseline: checks the graph is non-empty and runs the exact moment-matching
/// fit on `exec` as the `fit` stage reported to `sink`. This is the entry point the server uses
/// for `/api/estimate` with `"estimator": "kronmom"`. **Not differentially private** — it
/// matches the exact counts.
pub fn try_kronmom_estimate(
    g: &Graph,
    options: &KronMomOptions,
    exec: &Executor,
    sink: &dyn ProgressSink,
) -> Result<FittedInitiator, PipelineError> {
    if g.node_count() == 0 || g.edge_count() == 0 {
        return Err(PipelineError::EmptyGraph);
    }
    Ok(stage("fit", sink, || KronMomEstimator::new(*options).fit_graph(g, exec)))
}

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

/// The result of running all three estimators of Table 1 on one graph.
#[derive(Debug, Clone)]
pub struct EstimatorSuite {
    /// The KronFit (approximate MLE) estimate.
    pub kronfit: FittedInitiator,
    /// The KronMom (moment matching) estimate.
    pub kronmom: FittedInitiator,
    /// The private estimate (Algorithm 1) and its released intermediates.
    pub private: PrivateEstimate,
}

impl_json_struct!(EstimatorSuite { kronfit, kronmom, private });

/// Runs KronFit, KronMom and the private estimator (with budget `params`) on `g`, mirroring one
/// row of Table 1. The same RNG drives the KronFit permutation sampling and the privacy noise so
/// the whole row is reproducible from one seed, and one executor is shared by all three fits.
pub fn estimate_with_all_estimators<R: Rng + ?Sized>(
    g: &Graph,
    params: PrivacyParams,
    kronfit_options: &KronFitOptions,
    kronmom_options: &KronMomOptions,
    private_options: &PrivateEstimatorOptions,
    rng: &mut R,
    exec: &Executor,
) -> EstimatorSuite {
    let kronfit = KronFitEstimator::new(*kronfit_options).fit_graph(g, rng, exec, &NullSink);
    let kronmom = KronMomEstimator::new(*kronmom_options).fit_graph(g, exec);
    let private = PrivateEstimator::new(*private_options).fit(g, params, rng, exec, &NullSink);
    EstimatorSuite { kronfit, kronmom, private }
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
    use kronpriv_skg::Initiator2;
    use rand::rngs::StdRng;
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

    #[test]
    fn estimator_suite_produces_three_consistent_fits() {
        let g = small_graph(1);
        let mut rng = StdRng::seed_from_u64(2);
        let suite = estimate_with_all_estimators(
            &g,
            PrivacyParams::new(1.0, 0.01),
            &quick_kronfit(),
            &KronMomOptions::default(),
            &PrivateEstimatorOptions::default(),
            &mut rng,
            &Executor::new(0),
        );
        assert_eq!(suite.kronfit.k, suite.kronmom.k);
        assert_eq!(suite.kronmom.k, suite.private.fit.k);
        for fit in [&suite.kronfit, &suite.kronmom, &suite.private.fit] {
            assert!(fit.theta.a >= fit.theta.c, "canonical form violated: {:?}", fit.theta);
            for p in fit.theta.as_array() {
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn suite_is_reproducible_from_a_seed() {
        let g = small_graph(3);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            estimate_with_all_estimators(
                &g,
                PrivacyParams::paper_default(),
                &quick_kronfit(),
                &KronMomOptions::default(),
                &PrivateEstimatorOptions::default(),
                &mut rng,
                &Executor::new(0),
            )
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.kronfit.theta, b.kronfit.theta);
        assert_eq!(a.private.fit.theta, b.private.fit.theta);
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
            PipelineError::DeltaRequired
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
            PipelineError::InvalidBudgetFraction(1.5)
        );
    }

    #[test]
    fn one_node_edge_lists_are_rejected_cleanly_by_every_estimator() {
        // Regression: a SNAP upload like "0 0" parses to a single node with no edges (self-
        // loops are dropped), i.e. `kronecker_order_for(1) == 0`. Every fallible entry point
        // must reject it as EmptyGraph instead of reaching the k = 0 gradient path.
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
        // The library-level fit itself degenerates cleanly for direct callers.
        let fit = KronFitEstimator::default().fit_graph(&g, &mut rng, &exec, &NullSink);
        assert_eq!(fit.k, 0);
        assert!(fit.theta.as_array().iter().all(|p| p.is_finite()));
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
    fn try_pipeline_accepts_valid_input_and_matches_the_panicking_form() {
        let g = small_graph(22);
        let options = PrivateEstimatorOptions::default();
        let params = PrivacyParams::new(1.0, 0.01);
        let mut rng = StdRng::seed_from_u64(23);
        let fallible = release(&g, params, &mut rng);
        let mut rng = StdRng::seed_from_u64(23);
        let panicking =
            PrivateEstimator::new(options).fit(&g, params, &mut rng, &Executor::new(0), &NullSink);
        let synthetic =
            sample_fast(&panicking.fit.theta, panicking.fit.k, &mut rng, &Executor::new(0));
        assert_eq!(fallible.estimate.fit.theta, panicking.fit.theta);
        assert_eq!(fallible.synthetic.edge_count(), synthetic.edge_count());
        // Degrees-only runs are allowed with δ = 0 through the fallible path too.
        let exec = Executor::new(0);
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
