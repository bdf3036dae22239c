//! The paper's contribution: Algorithm 1, the differentially private SKG estimator.
//!
//! Given a graph `G` and a budget `(ε, δ)`:
//!
//! 1. release an `(ε/2, 0)`-DP sorted degree sequence `d̃` (Hay et al.),
//! 2. derive `Ẽ`, `H̃`, `T̃` from `d̃` (Fact 4.6 — free post-processing),
//! 3. release an `(ε/2, δ)`-DP triangle count `Δ̃` via the smooth-sensitivity mechanism
//!    (Nissim et al.),
//! 4. minimise the KronMom objective with `{Ẽ, H̃, Δ̃, T̃}` in place of the exact counts.
//!
//! By sequential composition (Theorems 4.9 / 4.10 and Corollary 4.11) the released initiator
//! `Θ̃` is `(ε, δ)`-differentially private; the subsequent optimisation touches only released
//! values, so it costs no additional privacy.

use crate::kronmom::{fit_objective, KronMomOptions};
use crate::objective::{FeatureSelection, MomentObjective};
use crate::{kronecker_order_for, refuse, require_edges, FittedInitiator, PipelineError};
use kronpriv_dp::{
    private_degree_sequence, private_triangle_count, smoothing_beta, PrivacyParams,
    PrivateDegreeSequence, PrivateTriangleCount,
};
use kronpriv_graph::Graph;
use kronpriv_json::impl_json_struct;
use kronpriv_obs::{stage, ProgressSink};
use kronpriv_par::Executor;
use rand::Rng;

/// Options for the private estimator.
#[derive(Debug, Clone, Copy)]
pub struct PrivateEstimatorOptions {
    /// Fraction of the ε budget spent on the degree sequence (the remainder goes to the
    /// triangle count). Algorithm 1 uses an even split.
    pub degree_budget_fraction: f64,
    /// Use the exact (cubic) smooth sensitivity instead of the scalable upper bound.
    /// Only sensible for graphs with at most about a thousand nodes.
    pub exact_smooth_sensitivity: bool,
    /// If true, skip the smooth-sensitivity triangle release and instead drop the triangle count
    /// from the matching objective, spending the whole budget on the degree sequence. This is
    /// the "degrees-only" ablation discussed in DESIGN.md.
    pub degrees_only: bool,
    /// Signal-to-noise threshold for keeping the triangle feature in the matching objective: the
    /// released `Δ̃` participates only if it exceeds `threshold × (2·SS_β/ε)`, the Laplace scale
    /// the mechanism used. Equation (2) normalises by the observed count, so matching a count
    /// that is indistinguishable from noise (the synthetic Kronecker graphs of Table 1 have only
    /// a few hundred triangles) drives the fit towards triangle-free degenerate models; dropping
    /// the feature is the standard "use three of the four features" fallback the paper inherits
    /// from Gleich & Owen. Note the check compares two already-computed data-dependent values;
    /// deployments that need the feature-selection *decision* itself to be data-independent can
    /// set the threshold to `0.0` (always keep a positive `Δ̃`) or use `degrees_only`.
    pub triangle_signal_threshold: f64,
    /// Options forwarded to the KronMom minimisation.
    pub kronmom: KronMomOptions,
}

// Unknown keys are ignored, so documents from older clients that still carry the removed
// `compute_threads` field parse unchanged.
impl_json_struct!(PrivateEstimatorOptions {
    degree_budget_fraction,
    exact_smooth_sensitivity,
    degrees_only,
    triangle_signal_threshold,
    kronmom,
});

impl Default for PrivateEstimatorOptions {
    fn default() -> Self {
        PrivateEstimatorOptions {
            degree_budget_fraction: 0.5,
            exact_smooth_sensitivity: false,
            degrees_only: false,
            triangle_signal_threshold: 2.0,
            kronmom: KronMomOptions::default(),
        }
    }
}

/// The output of Algorithm 1: the private initiator estimate plus the intermediate private
/// statistics (everything here is safe to publish — it is all derived from released values).
#[derive(Debug, Clone)]
pub struct PrivateEstimate {
    /// The fitted initiator and diagnostics.
    pub fit: FittedInitiator,
    /// The total privacy budget consumed.
    pub params: PrivacyParams,
    /// The private matching statistics `[Ẽ, H̃, Δ̃, T̃]` fed to the objective.
    pub private_statistics: [f64; 4],
    /// The private degree-sequence release (step 2).
    pub degree_release: PrivateDegreeSequence,
    /// The private triangle-count release (step 5); absent in the degrees-only ablation.
    pub triangle_release: Option<PrivateTriangleCount>,
}

impl_json_struct!(PrivateEstimate {
    fit,
    params,
    private_statistics,
    degree_release,
    triangle_release,
});

/// Smallest `ε` either stage may run with. The degree stage adds Laplace noise of scale `2/ε` to
/// each degree and sums their cubes: at `ε = 1e-300` that overflows and the fit has no
/// objective value; at `1e-9` it stays finite for `u32` node ids. No program here goes below 0.05.
const MIN_STAGE_EPSILON: f64 = 1e-9;

impl PrivateEstimatorOptions {
    /// Checks these options against the total budget `params`. Returns the stage budgets that
    /// [`try_private_estimate`] spends, `(ε·frac, 0)` and `(ε·(1 − frac), δ)`, or `(ε, 0)` and
    /// `None` with `degrees_only`. The rules, in order: `frac` lies in `(0, 1)`; `δ > 0` unless
    /// `degrees_only`; [`KronMomOptions::validate`]; each stage `ε` is at least `1e-9`; the
    /// triangle stage's [`smoothing_beta`] is positive.
    pub fn validate(
        &self,
        params: PrivacyParams,
    ) -> Result<(PrivacyParams, Option<PrivacyParams>), PipelineError> {
        let frac = self.degree_budget_fraction;
        if !(frac > 0.0 && frac < 1.0) {
            return refuse(format!("degree_budget_fraction must be in (0,1), got {frac}"));
        }
        if params.delta == 0.0 && !self.degrees_only {
            return refuse("the triangle release requires delta > 0 (or use degrees_only)".into());
        }
        self.kronmom.validate()?;
        if self.degrees_only {
            return Ok((stage_budget("degree release", params.epsilon, 0.0)?, None));
        }
        let degree = stage_budget("degree release", params.epsilon * frac, 0.0)?;
        let triangle =
            stage_budget("triangle release", params.epsilon * (1.0 - frac), params.delta)?;
        if smoothing_beta(triangle) <= 0.0 {
            let delta = params.delta;
            return refuse(format!("delta {delta:e} gives the triangle release a beta of 0"));
        }
        Ok((degree, Some(triangle)))
    }
}

/// One stage's budget: valid for [`PrivacyParams::try_new`], with `ε ≥` [`MIN_STAGE_EPSILON`].
fn stage_budget(stage: &str, epsilon: f64, delta: f64) -> Result<PrivacyParams, PipelineError> {
    let floor = MIN_STAGE_EPSILON;
    match PrivacyParams::try_new(epsilon, delta) {
        Ok(budget) if epsilon >= floor => Ok(budget),
        Ok(_) => refuse(format!("the {stage} gets epsilon {epsilon:e}, below {floor:e}")),
        Err(e) => refuse(format!("the {stage} budget is invalid: {e}")),
    }
}

/// Runs Algorithm 1 on `g` with total budget `params`, using `rng` for all noise.
///
/// Every parallel stage borrows `exec`; the estimate is byte-identical for any pool size, so
/// hosts that serve many jobs — the HTTP server in particular — build one executor at startup
/// and pass it here. The `degree_release`, `triangle_release` (skipped in the degrees-only
/// ablation) and `fit` stages each run through [`kronpriv_obs::stage`], so their
/// started/finished events flow into `sink` (pass [`kronpriv_obs::NullSink`] to ignore them).
/// The sink is strictly an observer — the estimate is byte-identical whatever the sink does
/// (the no-feedback invariant of `kronpriv-obs`, pinned by `tests/observability_determinism.rs`).
///
/// Returns [`PipelineError::EmptyGraph`] for a graph without edges, and the error of
/// [`PrivateEstimatorOptions::validate`] for a budget or options it refuses; nothing is drawn
/// from `rng` then.
pub fn try_private_estimate<R: Rng + ?Sized>(
    g: &Graph,
    params: PrivacyParams,
    options: &PrivateEstimatorOptions,
    rng: &mut R,
    exec: &Executor,
    sink: &dyn ProgressSink,
) -> Result<PrivateEstimate, PipelineError> {
    require_edges(g)?;
    let (degree_budget, triangle_budget) = options.validate(params)?;
    let k = kronecker_order_for(g.node_count());

    // Step 2: (ε·frac, 0)-DP degree sequence ((ε, 0) in the degrees-only ablation), with the
    // isotonic post-processing on the parallel executor (thread-count-deterministic).
    let degree_release =
        stage("degree_release", sink, || private_degree_sequence(g, degree_budget, rng, exec));

    let Some(triangle_budget) = triangle_budget else {
        // Degrees-only: the whole budget went to the degree sequence, and Δ leaves the objective.
        let observed = [
            degree_release.edge_count(),
            degree_release.hairpin_count(),
            0.0,
            degree_release.tripin_count(),
        ];
        let objective = MomentObjective::from_counts(observed, k)
            .with_features(FeatureSelection::without_triangles());
        let fit = stage("fit", sink, || fit_objective(&objective, &options.kronmom, exec));
        return Ok(PrivateEstimate {
            fit,
            params,
            private_statistics: observed,
            degree_release,
            triangle_release: None,
        });
    };

    // Step 5: (ε·(1-frac), δ)-DP triangle count. The parallel kernels are deterministic for any
    // thread count, so the release is a pure function of (graph, budget, rng).
    let triangle_release = stage("triangle_release", sink, || {
        private_triangle_count(g, triangle_budget, options.exact_smooth_sensitivity, rng, exec)
    });

    // Step 6: moment matching on the private statistics. Negative noisy counts are clamped to
    // zero — a postprocessing step that costs no privacy and keeps the objective sane.
    let observed = [
        degree_release.edge_count().max(0.0),
        degree_release.hairpin_count().max(0.0),
        triangle_release.value.max(0.0),
        degree_release.tripin_count().max(0.0),
    ];
    // Keep Δ̃ in the objective only when it rises above its own noise floor (see the option
    // docs); otherwise match the three degree-derived features, as Equation (2) permits.
    let noise_scale = 2.0 * triangle_release.smooth_sensitivity / triangle_budget.epsilon;
    let keep_triangles = triangle_release.value > options.triangle_signal_threshold * noise_scale;
    let features = if keep_triangles {
        FeatureSelection::all()
    } else {
        FeatureSelection::without_triangles()
    };
    let objective = MomentObjective::from_counts(observed, k).with_features(features);
    let fit = stage("fit", sink, || fit_objective(&objective, &options.kronmom, exec));

    Ok(PrivateEstimate {
        fit,
        params,
        private_statistics: observed,
        degree_release,
        triangle_release: Some(triangle_release),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kronpriv_graph::MatchingStatistics;
    use kronpriv_obs::{NullSink, ProgressEvent};
    use kronpriv_skg::sample::sample_fast;
    use kronpriv_skg::Initiator2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn synthetic_graph(k: u32, seed: u64) -> (Initiator2, Graph) {
        let truth = Initiator2::new(0.99, 0.45, 0.25);
        let mut rng = StdRng::seed_from_u64(seed);
        (truth, sample_fast(&truth, k, &mut rng, &Executor::sequential()))
    }

    /// Algorithm 1 with the default options.
    fn estimate(
        g: &Graph,
        params: PrivacyParams,
        rng: &mut StdRng,
        exec: &Executor,
        sink: &dyn ProgressSink,
    ) -> PrivateEstimate {
        let options = PrivateEstimatorOptions::default();
        try_private_estimate(g, params, &options, rng, exec, sink).unwrap()
    }

    /// The non-private KronMom fit of `g`.
    fn kronmom(g: &Graph) -> FittedInitiator {
        crate::try_kronmom_estimate(g, &KronMomOptions::default(), &Executor::new(0), &NullSink)
            .unwrap()
    }

    #[test]
    fn private_estimate_reports_budget_and_statistics() {
        let (_, g) = synthetic_graph(10, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let params = PrivacyParams::paper_default();
        let est = estimate(&g, params, &mut rng, &Executor::new(0), &NullSink);
        assert_eq!(est.params, params);
        assert_eq!(est.private_statistics.len(), 4);
        assert!(est.triangle_release.is_some());
        assert!(est.private_statistics.iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn generous_budget_matches_the_non_private_fit() {
        // With a huge ε the private statistics are essentially exact, so the private fit should
        // coincide with KronMom on the same graph.
        let (_, g) = synthetic_graph(11, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let private =
            estimate(&g, PrivacyParams::new(1e6, 0.01), &mut rng, &Executor::new(0), &NullSink);
        let non_private = kronmom(&g);
        assert!(
            private.fit.theta.distance(&non_private.theta) < 0.02,
            "private {:?} vs non-private {:?}",
            private.fit.theta,
            non_private.theta
        );
    }

    #[test]
    fn paper_epsilon_recovers_synthetic_parameters_approximately() {
        // The Table 1 synthetic row at near-paper scale: ε = 0.2, δ = 0.01 on a 2^13-node
        // synthetic Kronecker graph (the paper uses 2^14; one order smaller keeps the test
        // fast). The private estimate should stay within a few hundredths of the non-private
        // one — the paper's central claim. Graph size matters here: the degree-derived
        // statistics only become accurate once the degree sequence has thousands of entries
        // for the isotonic post-processing to average over, which is why the paper evaluates
        // on 5k-16k-node networks.
        let (truth, g) = synthetic_graph(13, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let est =
            estimate(&g, PrivacyParams::paper_default(), &mut rng, &Executor::new(0), &NullSink);
        let non_private = kronmom(&g);
        assert!(
            est.fit.theta.distance(&non_private.theta) < 0.1,
            "private {:?} vs kronmom {:?}",
            est.fit.theta,
            non_private.theta
        );
        assert!(
            est.fit.theta.distance(&truth) < 0.15,
            "private {:?} vs truth {:?}",
            est.fit.theta,
            truth
        );
    }

    #[test]
    fn private_statistics_track_exact_statistics_at_moderate_epsilon() {
        let (_, g) = synthetic_graph(13, 7);
        let exact = MatchingStatistics::of_graph(&g).as_array();
        let mut rng = StdRng::seed_from_u64(8);
        let est =
            estimate(&g, PrivacyParams::new(0.5, 0.01), &mut rng, &Executor::new(0), &NullSink);
        // Edges and hairpins are dominated by the degree sums and should be close in relative
        // terms; the triangle count carries smooth-sensitivity noise so allow a wider band.
        let rel = |i: usize| (est.private_statistics[i] - exact[i]).abs() / exact[i].max(1.0);
        assert!(rel(0) < 0.1, "edges rel err {}", rel(0));
        assert!(rel(1) < 0.2, "hairpins rel err {}", rel(1));
        assert!(rel(3) < 0.4, "tripins rel err {}", rel(3));
    }

    #[test]
    fn degrees_only_ablation_spends_no_delta_and_omits_triangles() {
        let (_, g) = synthetic_graph(10, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let options = PrivateEstimatorOptions { degrees_only: true, ..Default::default() };
        // δ = 0 is allowed here because no smooth-sensitivity release happens.
        let est = try_private_estimate(
            &g,
            PrivacyParams::pure(0.2),
            &options,
            &mut rng,
            &Executor::new(0),
            &NullSink,
        )
        .unwrap();
        assert!(est.triangle_release.is_none());
        assert_eq!(est.private_statistics[2], 0.0);
        assert!(est.fit.theta.a >= est.fit.theta.c);
    }

    #[test]
    fn uneven_budget_split_is_respected() {
        let (_, g) = synthetic_graph(10, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let options = PrivateEstimatorOptions { degree_budget_fraction: 0.8, ..Default::default() };
        let est = try_private_estimate(
            &g,
            PrivacyParams::new(1.0, 0.01),
            &options,
            &mut rng,
            &Executor::new(0),
            &NullSink,
        )
        .unwrap();
        assert!((est.degree_release.params.epsilon - 0.8).abs() < 1e-12);
        let tri = est.triangle_release.unwrap();
        assert!((tri.params.epsilon - 0.2).abs() < 1e-12);
        assert!((tri.params.delta - 0.01).abs() < 1e-12);
    }

    #[test]
    fn validate_returns_the_stage_budgets_the_release_spends() {
        let params = PrivacyParams::new(0.2, 0.01);
        let options = PrivateEstimatorOptions { degree_budget_fraction: 0.3, ..Default::default() };
        let (degree, triangle) = options.validate(params).unwrap();
        assert_eq!(degree, PrivacyParams { epsilon: 0.2 * 0.3, delta: 0.0 });
        assert_eq!(triangle, Some(PrivacyParams { epsilon: 0.2 * (1.0 - 0.3), delta: 0.01 }));
        let degrees_only = PrivateEstimatorOptions { degrees_only: true, ..options };
        assert_eq!(
            degrees_only.validate(PrivacyParams::pure(0.2)),
            Ok((PrivacyParams::pure(0.2), None))
        );
    }

    #[test]
    fn budgets_no_release_can_honour_are_refused_before_any_draw() {
        use rand::RngCore;
        let (_, g) = synthetic_graph(7, 16);
        let mut rng = StdRng::seed_from_u64(17);
        let before = rng.clone().next_u64();
        let half = PrivateEstimatorOptions::default();
        let cases = [
            // ε·frac rounds to 0, below the floor, and a β that vanishes with 2/δ = +inf.
            (PrivacyParams::new(0.2, 0.01), 5e-324, "the degree release budget is invalid"),
            (PrivacyParams::new(0.2, 0.01), 1e-300, "the degree release gets epsilon"),
            (PrivacyParams::new(0.2, 0.01), 1.0 - f64::EPSILON / 2.0, "the triangle release gets"),
            (PrivacyParams::new(1e-300, 0.01), 0.5, "below 1e-9"),
            (PrivacyParams::new(0.2, 5e-324), 0.5, "a beta of 0"),
        ];
        for (params, frac, needle) in cases {
            let options = PrivateEstimatorOptions { degree_budget_fraction: frac, ..half };
            let err = try_private_estimate(
                &g,
                params,
                &options,
                &mut rng,
                &Executor::sequential(),
                &NullSink,
            )
            .unwrap_err();
            assert!(err.to_string().contains(needle), "{params:?} at {frac}: {err}");
        }
        // The KronMom block is checked too: a one-point grid used to panic inside the fit.
        let options = PrivateEstimatorOptions {
            kronmom: KronMomOptions { grid_points_per_axis: 1, ..Default::default() },
            ..half
        };
        let err = options.validate(PrivacyParams::paper_default()).unwrap_err();
        assert!(err.to_string().contains("grid_points_per_axis"), "{err}");
        assert_eq!(rng.next_u64(), before, "a refused release must not consume randomness");
        // At the floor itself the release runs and every released value is finite.
        let floor = PrivacyParams::new(2.0 * MIN_STAGE_EPSILON, 0.01);
        let est =
            try_private_estimate(&g, floor, &half, &mut rng, &Executor::sequential(), &NullSink)
                .unwrap();
        assert!(est.private_statistics.iter().all(|v| v.is_finite()), "{est:?}");
        assert!(est.fit.objective_value.is_finite());
    }

    #[test]
    fn invalid_budget_fraction_is_rejected() {
        let (_, g) = synthetic_graph(8, 13);
        let mut rng = StdRng::seed_from_u64(14);
        for frac in [0.0, 1.0, 1.5] {
            let options =
                PrivateEstimatorOptions { degree_budget_fraction: frac, ..Default::default() };
            let err = try_private_estimate(
                &g,
                PrivacyParams::paper_default(),
                &options,
                &mut rng,
                &Executor::new(0),
                &NullSink,
            )
            .unwrap_err();
            let message = format!("degree_budget_fraction must be in (0,1), got {frac}");
            assert_eq!(err, PipelineError::InvalidOption(message));
            assert!(err.to_string().contains("degree_budget_fraction"), "{err}");
        }
    }

    #[test]
    fn options_json_defaults_compute_threads_when_omitted() {
        // Round trip: the options serialize without any thread knob and come back.
        let options = PrivateEstimatorOptions { degree_budget_fraction: 0.3, ..Default::default() };
        let text = kronpriv_json::to_string(&options);
        assert!(!text.contains("compute_threads"), "{text}");
        let back: PrivateEstimatorOptions = kronpriv_json::from_str(&text).unwrap();
        assert_eq!(back.degree_budget_fraction, 0.3);
        // Back-compat: a document from an older client that still carries `compute_threads`
        // (top level and inside `kronmom`) parses, and the field is ignored.
        let legacy = text
            .replace("\"kronmom\":{", "\"kronmom\":{\"compute_threads\":5,")
            .replace("\"degrees_only\":false,", "\"degrees_only\":false,\"compute_threads\":3,");
        assert!(legacy.matches("compute_threads").count() == 2, "{legacy}");
        let back: PrivateEstimatorOptions = kronpriv_json::from_str(&legacy).unwrap();
        assert_eq!(kronpriv_json::to_string(&back), text);
        // Required fields are still required.
        let missing = text.replace("\"degrees_only\":false,", "");
        assert!(kronpriv_json::from_str::<PrivateEstimatorOptions>(&missing).is_err());
    }

    #[test]
    fn compute_thread_count_never_changes_the_estimate() {
        let (_, g) = synthetic_graph(9, 30);
        let fit_with = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(31);
            estimate(
                &g,
                PrivacyParams::paper_default(),
                &mut rng,
                &Executor::new(threads),
                &NullSink,
            )
        };
        let reference = fit_with(1);
        for threads in [2usize, 8] {
            let est = fit_with(threads);
            assert_eq!(est.fit.theta, reference.fit.theta, "threads {threads}");
            assert_eq!(est.private_statistics, reference.private_statistics);
            let (a, b) =
                (est.triangle_release.unwrap(), reference.triangle_release.clone().unwrap());
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "threads {threads}");
            assert_eq!(a.smooth_sensitivity.to_bits(), b.smooth_sensitivity.to_bits());
        }
    }

    #[test]
    fn observed_fit_reports_stage_pairs_and_matches_the_plain_fit() {
        use kronpriv_obs::CollectingSink;
        let (_, g) = synthetic_graph(9, 40);
        let exec = Executor::sequential();
        let params = PrivacyParams::paper_default();
        let plain = estimate(&g, params, &mut StdRng::seed_from_u64(41), &exec, &NullSink);
        let sink = CollectingSink::new();
        let observed = estimate(&g, params, &mut StdRng::seed_from_u64(41), &exec, &sink);
        assert_eq!(plain.fit.theta, observed.fit.theta, "the sink must not steer the fit");
        assert_eq!(plain.private_statistics, observed.private_statistics);
        // Stage events arrive as ordered started/finished pairs covering the three stages.
        let stages: Vec<(&str, bool)> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                ProgressEvent::StageStarted { stage } => Some((*stage, true)),
                ProgressEvent::StageFinished { stage } => Some((*stage, false)),
                _ => None,
            })
            .collect();
        assert_eq!(
            stages,
            vec![
                ("degree_release", true),
                ("degree_release", false),
                ("triangle_release", true),
                ("triangle_release", false),
                ("fit", true),
                ("fit", false),
            ]
        );
    }

    #[test]
    fn degrees_only_observed_fit_skips_the_triangle_stage() {
        use kronpriv_obs::CollectingSink;
        let (_, g) = synthetic_graph(8, 42);
        let exec = Executor::sequential();
        let options = PrivateEstimatorOptions { degrees_only: true, ..Default::default() };
        let sink = CollectingSink::new();
        try_private_estimate(
            &g,
            PrivacyParams::pure(0.5),
            &options,
            &mut StdRng::seed_from_u64(43),
            &exec,
            &sink,
        )
        .unwrap();
        let started: Vec<&str> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                ProgressEvent::StageStarted { stage } => Some(*stage),
                _ => None,
            })
            .collect();
        assert_eq!(started, vec!["degree_release", "fit"]);
    }

    #[test]
    fn estimate_is_reproducible_given_a_seed() {
        let (_, g) = synthetic_graph(9, 15);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            estimate(&g, PrivacyParams::paper_default(), &mut rng, &Executor::new(0), &NullSink)
                .fit
                .theta
        };
        assert_eq!(run(77), run(77));
    }
}
