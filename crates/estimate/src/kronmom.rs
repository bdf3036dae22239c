//! The KronMom estimator (Gleich & Owen): moment matching via the objective of Equation (2).
//!
//! Fitting is a three-dimensional box-constrained minimisation of [`MomentObjective`] over
//! `(a, b, c) ∈ [0, 1]³`; the `a ≥ c` convention is restored afterwards by canonicalising the
//! initiator (the objective is symmetric under swapping `a` and `c`, so this loses nothing).
//! The optimiser is the grid-seeded multistart Nelder–Mead of `kronpriv-optim`, which mirrors
//! the `fminsearch`-based reference implementation.

use crate::objective::MomentObjective;
use crate::{kronecker_order_for, FittedInitiator};
use kronpriv_graph::{Graph, MatchingStatistics};
use kronpriv_json::impl_json_struct;
use kronpriv_optim::{multistart_minimize, Bounds, MultistartOptions, NelderMeadOptions};
use kronpriv_par::Executor;
use kronpriv_skg::Initiator2;

/// Options for the KronMom fit.
#[derive(Debug, Clone, Copy)]
pub struct KronMomOptions {
    /// Grid resolution per axis for the multistart seeding.
    pub grid_points_per_axis: usize,
    /// How many grid cells to refine with Nelder–Mead.
    pub refine_top: usize,
    /// Maximum objective evaluations per Nelder–Mead run.
    pub max_evaluations: usize,
}

// Unknown keys are ignored, so documents from older clients that still carry the removed
// `compute_threads` field parse unchanged.
impl_json_struct!(KronMomOptions { grid_points_per_axis, refine_top, max_evaluations });

impl Default for KronMomOptions {
    fn default() -> Self {
        KronMomOptions { grid_points_per_axis: 7, refine_top: 5, max_evaluations: 4000 }
    }
}

/// The KronMom estimator.
#[derive(Debug, Clone, Default)]
pub struct KronMomEstimator {
    options: KronMomOptions,
}

impl KronMomEstimator {
    /// Creates an estimator with the given options.
    pub fn new(options: KronMomOptions) -> Self {
        KronMomEstimator { options }
    }

    /// Fits an initiator to the observed graph: computes the exact matching statistics and
    /// minimises the standard objective on `exec`.
    pub fn fit_graph(&self, g: &Graph, exec: &Executor) -> FittedInitiator {
        let stats = MatchingStatistics::of_graph(g);
        let k = kronecker_order_for(g.node_count());
        self.fit_statistics(&stats, k, exec)
    }

    /// Fits an initiator to pre-computed matching statistics for a graph of Kronecker order `k`.
    pub fn fit_statistics(
        &self,
        stats: &MatchingStatistics,
        k: u32,
        exec: &Executor,
    ) -> FittedInitiator {
        self.fit_objective(&MomentObjective::standard(stats, k), exec)
    }

    /// Fits an initiator by minimising an arbitrary (possibly non-default) moment objective on
    /// `exec`. This is the entry point the private estimator and the objective-grid ablation
    /// use. The optimiser is bit-identical for every pool size.
    pub fn fit_objective(&self, objective: &MomentObjective, exec: &Executor) -> FittedInitiator {
        let bounds = Bounds::unit(3);
        let nm = NelderMeadOptions {
            max_evaluations: self.options.max_evaluations,
            ..NelderMeadOptions::default()
        };
        let opts = MultistartOptions {
            grid_points_per_axis: self.options.grid_points_per_axis,
            refine_top: self.options.refine_top,
            nelder_mead: nm,
        };
        // Extra start: a "typical" real-network corner (high a, moderate b, low c), which is
        // where all of the paper's fits land; cheap insurance against a coarse grid.
        let extra = vec![vec![0.99, 0.5, 0.2]];
        // The objective moves behind an `Arc` so the per-restart workers of the parallel
        // multistart share the observed statistics without copying or locking; the optimiser
        // is bit-identical for every thread count, so the pool size never changes the fit.
        let shared = objective.clone().into_shared();
        let result =
            multistart_minimize(move |p| shared.evaluate_params(p), &bounds, &extra, &opts, exec);
        let theta =
            Initiator2::clamped(result.point[0], result.point[1], result.point[2]).canonicalized();
        FittedInitiator {
            theta,
            k: objective.k,
            objective_value: result.value,
            evaluations: result.evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{DistanceKind, NormalizationKind};
    use kronpriv_skg::moments::ExpectedMoments;
    use kronpriv_skg::sample::{sample_fast, SamplerOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stats_from_moments(theta: &Initiator2, k: u32) -> MatchingStatistics {
        let m = ExpectedMoments::of(theta, k);
        MatchingStatistics {
            edges: m.edges,
            hairpins: m.hairpins,
            tripins: m.tripins,
            triangles: m.triangles,
        }
    }

    #[test]
    fn recovers_parameters_from_noiseless_moments() {
        // Feeding the exact expected moments back into the fit must recover the generating
        // parameters: the objective has a zero at the truth.
        let truth = Initiator2::new(0.99, 0.45, 0.25);
        let k = 14;
        let fit = KronMomEstimator::default().fit_statistics(
            &stats_from_moments(&truth, k),
            k,
            &Executor::new(0),
        );
        assert!(fit.objective_value < 1e-8, "objective {}", fit.objective_value);
        assert!((fit.theta.a - truth.a).abs() < 0.02, "{:?}", fit.theta);
        assert!((fit.theta.b - truth.b).abs() < 0.02, "{:?}", fit.theta);
        assert!((fit.theta.c - truth.c).abs() < 0.02, "{:?}", fit.theta);
    }

    #[test]
    fn recovers_parameters_from_a_sampled_graph() {
        // Sample a synthetic Kronecker graph and recover its parameters from the observed
        // counts — the Table 1 "Synthetic" row in miniature (k = 11 to keep the test quick).
        let truth = Initiator2::new(0.99, 0.45, 0.25);
        let k = 11;
        let mut rng = StdRng::seed_from_u64(1);
        let g = sample_fast(&truth, k, &SamplerOptions::default(), &mut rng);
        let fit = KronMomEstimator::default().fit_graph(&g, &Executor::new(0));
        assert_eq!(fit.k, k);
        // Sampling noise at this size keeps the estimates within a few hundredths, matching the
        // spread the paper reports between the three estimators.
        assert!((fit.theta.a - truth.a).abs() < 0.08, "{:?}", fit.theta);
        assert!((fit.theta.b - truth.b).abs() < 0.08, "{:?}", fit.theta);
        assert!((fit.theta.c - truth.c).abs() < 0.08, "{:?}", fit.theta);
    }

    #[test]
    fn canonicalisation_keeps_a_above_c() {
        let truth = Initiator2::new(0.3, 0.5, 0.9); // deliberately reversed
        let k = 10;
        let fit = KronMomEstimator::default().fit_statistics(
            &stats_from_moments(&truth, k),
            k,
            &Executor::new(0),
        );
        assert!(fit.theta.a >= fit.theta.c);
    }

    #[test]
    fn alternative_objectives_still_recover_the_truth() {
        let truth = Initiator2::new(0.9, 0.55, 0.15);
        let k = 12;
        let stats = stats_from_moments(&truth, k);
        // The Absolute/ExpectedSquared combination is intentionally omitted: its objective
        // decays like 1/E as the candidate model grows, so the all-ones corner forms a broad
        // spurious basin — exactly the fragility that leads Gleich & Owen to recommend
        // DistSq/NormF². The objective-grid ablation in the bench harness quantifies this.
        for (dist, norm) in [
            (DistanceKind::Squared, NormalizationKind::Expected),
            (DistanceKind::Absolute, NormalizationKind::Observed),
        ] {
            let objective =
                MomentObjective::standard(&stats, k).with_distance(dist).with_normalization(norm);
            let fit = KronMomEstimator::default().fit_objective(&objective, &Executor::new(0));
            assert!(fit.theta.distance(&truth) < 0.05, "{dist:?}/{norm:?} -> {:?}", fit.theta);
        }
    }

    #[test]
    fn degenerate_empty_graph_fits_a_near_zero_model() {
        let g = Graph::empty(64);
        let fit = KronMomEstimator::default().fit_graph(&g, &Executor::new(0));
        let m = ExpectedMoments::of(&fit.theta, fit.k);
        assert!(m.edges < 5.0, "expected nearly edge-free model, got {m:?}");
    }

    #[test]
    fn evaluations_are_reported() {
        let truth = Initiator2::new(0.9, 0.4, 0.2);
        let fit = KronMomEstimator::default().fit_statistics(
            &stats_from_moments(&truth, 10),
            10,
            &Executor::new(0),
        );
        assert!(fit.evaluations > 7 * 7 * 7, "at least the seeding grid must be counted");
    }

    #[test]
    fn fit_is_bit_identical_for_all_thread_counts() {
        // The fitting stage must honour the same contract as the counting kernels: the thread
        // knob is purely a performance control.
        let truth = Initiator2::new(0.99, 0.45, 0.25);
        let stats = stats_from_moments(&truth, 12);
        let fit_with = |threads: usize| {
            KronMomEstimator::default().fit_statistics(&stats, 12, &Executor::new(threads))
        };
        let reference = fit_with(1);
        for threads in [2usize, 8] {
            let fit = fit_with(threads);
            assert_eq!(fit.theta.a.to_bits(), reference.theta.a.to_bits(), "threads {threads}");
            assert_eq!(fit.theta.b.to_bits(), reference.theta.b.to_bits(), "threads {threads}");
            assert_eq!(fit.theta.c.to_bits(), reference.theta.c.to_bits(), "threads {threads}");
            assert_eq!(
                fit.objective_value.to_bits(),
                reference.objective_value.to_bits(),
                "threads {threads}"
            );
            assert_eq!(fit.evaluations, reference.evaluations, "threads {threads}");
        }
    }

    #[test]
    fn options_json_defaults_compute_threads_when_omitted() {
        let options = KronMomOptions { refine_top: 3, ..Default::default() };
        let text = kronpriv_json::to_string(&options);
        assert_eq!(text, "{\"grid_points_per_axis\":7,\"refine_top\":3,\"max_evaluations\":4000}");
        // Back-compat: a document from an older client that still carries `compute_threads`
        // parses, and the field is ignored.
        let legacy = text.replace("}", ",\"compute_threads\":5}");
        let back: KronMomOptions = kronpriv_json::from_str(&legacy).unwrap();
        assert_eq!(kronpriv_json::to_string(&back), text);
        // The fields remain required.
        let missing = legacy.replace("\"refine_top\":3,", "");
        assert!(kronpriv_json::from_str::<KronMomOptions>(&missing).is_err());
    }
}
