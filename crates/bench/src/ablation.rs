//! Ablation studies listed in DESIGN.md:
//!
//! * **A1 — smooth sensitivity vs graph size**: the paper's Section 5 asks how the smooth
//!   sensitivity of the triangle count grows with the size of an SKG graph ("preliminary
//!   experiments indicate that in the SKG model, SS_Δ might grow slowly"). We measure it.
//! * **A2 — ε sweep**: utility (distance of the private estimate from the non-private KronMom
//!   estimate) as a function of the privacy budget.
//! * **A3 — objective grid**: the Dist × Norm combinations of Equation (2), quantifying the
//!   robustness claim that leads Gleich & Owen (and therefore the paper) to DistSq/NormF².

use kronpriv::experiment::write_json;
use kronpriv::prelude::*;
use kronpriv_dp::smooth_sensitivity_triangles;
use kronpriv_estimate::{DistanceKind, MomentObjective, NormalizationKind};
use kronpriv_json::impl_json_struct;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One point of the smooth-sensitivity growth study.
#[derive(Debug, Clone)]
pub struct SmoothSensitivityPoint {
    /// Kronecker order of the graph.
    pub k: u32,
    /// Number of nodes (`2^k`).
    pub nodes: usize,
    /// Number of edges of the realization.
    pub edges: usize,
    /// Exact triangle count.
    pub triangles: f64,
    /// Local sensitivity (max common-neighbour count).
    pub local_sensitivity: usize,
    /// Smooth sensitivity at the paper's β (ε = 0.1 share, δ = 0.01).
    pub smooth_sensitivity: f64,
}

impl_json_struct!(SmoothSensitivityPoint {
    k,
    nodes,
    edges,
    triangles,
    local_sensitivity,
    smooth_sensitivity,
});

/// A1: smooth sensitivity of the triangle count as a function of SKG size, for the paper's
/// synthetic initiator.
pub fn smooth_sensitivity_growth(
    k_range: std::ops::RangeInclusive<u32>,
    seed: u64,
) -> Vec<SmoothSensitivityPoint> {
    let theta = Initiator2::new(0.99, 0.45, 0.25);
    let epsilon_share = 0.1;
    let delta = 0.01;
    let beta = epsilon_share / (2.0 * (2.0f64 / delta).ln());
    let seq = Executor::sequential();
    let mut out = Vec::new();
    for k in k_range {
        let mut rng = StdRng::seed_from_u64(seed + k as u64);
        let g = sample_fast(&theta, k, &mut rng, &seq);
        let stats = MatchingStatistics::of_graph(&g);
        out.push(SmoothSensitivityPoint {
            k,
            nodes: g.node_count(),
            edges: g.edge_count(),
            triangles: stats.triangles,
            local_sensitivity: kronpriv_dp::triangle_local_sensitivity(&g, &seq),
            smooth_sensitivity: smooth_sensitivity_triangles(&g, beta, &seq),
        });
    }
    let _ = write_json("ablation", "smooth_sensitivity_growth", &out);
    out
}

/// One point of the ε sweep.
#[derive(Debug, Clone)]
pub struct EpsilonSweepPoint {
    /// The privacy budget ε (δ fixed at 0.01).
    pub epsilon: f64,
    /// Mean distance of the private estimate from the non-private KronMom estimate.
    pub mean_distance_to_kronmom: f64,
    /// Worst-case distance across the repetitions.
    pub max_distance_to_kronmom: f64,
    /// Number of repetitions.
    pub repetitions: usize,
}

impl_json_struct!(EpsilonSweepPoint {
    epsilon,
    mean_distance_to_kronmom,
    max_distance_to_kronmom,
    repetitions,
});

/// A2: the privacy/utility trade-off on a dataset stand-in.
pub fn epsilon_sweep(
    dataset: Dataset,
    epsilons: &[f64],
    repetitions: usize,
    seed: u64,
) -> Vec<EpsilonSweepPoint> {
    let graph = dataset.generate(seed);
    let exec = Executor::new(0);
    let kronmom = try_kronmom_estimate(&graph, &KronMomOptions::default(), &exec, &NullSink)
        .expect("a dataset stand-in has edges");
    let mut out = Vec::new();
    for &epsilon in epsilons {
        let mut distances = Vec::new();
        for rep in 0..repetitions.max(1) {
            let mut rng = StdRng::seed_from_u64(seed + 1000 * rep as u64 + 1);
            let est = try_private_estimate(
                &graph,
                PrivacyParams::new(epsilon, 0.01),
                &PrivateEstimatorOptions::default(),
                &mut rng,
                &exec,
                &NullSink,
            )
            .expect("a dataset stand-in has edges and the budget has delta > 0");
            distances.push(est.fit.theta.distance(&kronmom.theta));
        }
        out.push(EpsilonSweepPoint {
            epsilon,
            mean_distance_to_kronmom: distances.iter().sum::<f64>() / distances.len() as f64,
            max_distance_to_kronmom: distances.iter().cloned().fold(0.0, f64::max),
            repetitions: distances.len(),
        });
    }
    let _ = write_json("ablation", "epsilon_sweep", &out);
    out
}

/// One cell of the objective grid.
#[derive(Debug, Clone)]
pub struct ObjectiveGridCell {
    /// Distance function name.
    pub distance: String,
    /// Normalisation function name.
    pub normalization: String,
    /// Distance of the recovered parameters from the generating parameters.
    pub recovery_error: f64,
    /// The recovered parameters.
    pub recovered: Initiator2,
}

impl_json_struct!(ObjectiveGridCell { distance, normalization, recovery_error, recovered });

/// A3: fits a synthetic Kronecker graph with every Dist × Norm combination of Equation (2) and
/// reports how well each recovers the generating parameters.
pub fn objective_grid(k: u32, seed: u64) -> Vec<ObjectiveGridCell> {
    let truth = Initiator2::new(0.99, 0.45, 0.25);
    let mut rng = StdRng::seed_from_u64(seed);
    let exec = Executor::new(0);
    let graph = sample_fast(&truth, k, &mut rng, &exec);
    let stats = MatchingStatistics::of_graph(&graph);
    let kk = kronpriv_estimate::kronecker_order_for(graph.node_count());

    let mut out = Vec::new();
    for (dist, dist_name) in
        [(DistanceKind::Squared, "DistSq"), (DistanceKind::Absolute, "DistAbs")]
    {
        for (norm, norm_name) in [
            (NormalizationKind::Observed, "NormF"),
            (NormalizationKind::ObservedSquared, "NormF2"),
            (NormalizationKind::Expected, "NormE"),
            (NormalizationKind::ExpectedSquared, "NormE2"),
        ] {
            let objective =
                MomentObjective::standard(&stats, kk).with_distance(dist).with_normalization(norm);
            let fit = fit_objective(&objective, &KronMomOptions::default(), &exec);
            out.push(ObjectiveGridCell {
                distance: dist_name.to_string(),
                normalization: norm_name.to_string(),
                recovery_error: fit.theta.distance(&truth),
                recovered: fit.theta,
            });
        }
    }
    let _ = write_json("ablation", "objective_grid", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smooth_sensitivity_grows_slowly_with_graph_size() {
        // The paper's Section 5 conjecture: SS_Δ grows slowly in the SKG model. Between k = 8
        // and k = 11 the node count grows 8x; the smooth sensitivity should grow far less.
        let points = smooth_sensitivity_growth(8..=11, 1);
        assert_eq!(points.len(), 4);
        let first = &points[0];
        let last = &points[points.len() - 1];
        let node_growth = last.nodes as f64 / first.nodes as f64;
        let ss_growth = last.smooth_sensitivity / first.smooth_sensitivity.max(1e-9);
        assert!(node_growth >= 8.0);
        assert!(
            ss_growth < node_growth / 2.0,
            "smooth sensitivity grew {ss_growth:.1}x while nodes grew {node_growth:.1}x"
        );
        for p in &points {
            assert!(p.smooth_sensitivity >= p.local_sensitivity as f64);
        }
    }

    #[test]
    fn epsilon_sweep_shows_monotone_utility_trend() {
        let points = epsilon_sweep(Dataset::As20, &[0.05, 0.5, 5.0], 2, 3);
        assert_eq!(points.len(), 3);
        // Utility at the generous budget should be at least as good as at the tight budget.
        assert!(
            points[2].mean_distance_to_kronmom <= points[0].mean_distance_to_kronmom + 0.02,
            "{points:?}"
        );
        assert!(points[2].mean_distance_to_kronmom < 0.05, "{points:?}");
    }

    #[test]
    fn objective_grid_confirms_the_papers_default_choice() {
        // k = 12 (4096 nodes): large enough that one realization's sampling noise in the
        // observed moments stays well inside the 0.1 recovery band for every seed (smaller k
        // makes this a coin flip — the triangle count of an SKG realization is tiny and noisy).
        let cells = objective_grid(12, 4);
        assert_eq!(cells.len(), 8);
        let default_cell =
            cells.iter().find(|c| c.distance == "DistSq" && c.normalization == "NormF2").unwrap();
        // The paper's default combination recovers the truth well...
        assert!(default_cell.recovery_error < 0.1, "{default_cell:?}");
        // ...and is no worse than the worst combination by a wide margin (the robustness claim).
        let worst = cells.iter().map(|c| c.recovery_error).fold(0.0f64, f64::max);
        assert!(worst >= default_cell.recovery_error);
    }
}
