//! The figure experiments: for each evaluation graph, compute the five statistic families of
//! Figures 1–4 for the original and for synthetic graphs generated from the KronFit, KronMom and
//! Private estimates, plus (optionally) the expectation over many synthetic realizations — the
//! "Expected" series of Figure 1.

use crate::{kronfit_options, load_dataset, paper_budget, profile_options};
use kronpriv::experiment::{write_json, write_series};
use kronpriv::prelude::*;
use kronpriv_json::impl_json_struct;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Options for one figure run.
#[derive(Debug, Clone)]
pub struct FigureOptions {
    /// Use shortened KronFit chains and smaller spectral computations.
    pub quick: bool,
    /// Number of synthetic realizations to average for the "Expected" series (0 disables the
    /// expected series, which is how Figures 2–4 are drawn).
    pub expected_realizations: usize,
    /// Random seed.
    pub seed: u64,
    /// Directory with the real SNAP files, if available.
    pub data_dir: Option<PathBuf>,
}

impl Default for FigureOptions {
    fn default() -> Self {
        FigureOptions { quick: false, expected_realizations: 0, seed: 2012, data_dir: None }
    }
}

/// Which figure a dataset corresponds to.
pub fn figure_number(dataset: Dataset) -> u32 {
    match dataset {
        Dataset::CaGrQc => 1,
        Dataset::As20 => 2,
        Dataset::CaHepTh => 3,
        Dataset::SyntheticKronecker => 4,
    }
}

/// The dataset plotted in the given figure (1–4).
pub fn dataset_for_figure(figure: u32) -> Option<Dataset> {
    match figure {
        1 => Some(Dataset::CaGrQc),
        2 => Some(Dataset::As20),
        3 => Some(Dataset::CaHepTh),
        4 => Some(Dataset::SyntheticKronecker),
        _ => None,
    }
}

/// Summary statistics of the "Expected" series: the mean matching statistics over many
/// realizations of one estimator's model.
#[derive(Debug, Clone)]
pub struct ExpectedSeries {
    /// Estimator label.
    pub estimator: String,
    /// Number of realizations averaged.
    pub realizations: usize,
    /// Mean `[E, H, Δ, T]` over the realizations.
    pub mean_statistics: [f64; 4],
    /// Mean global clustering coefficient.
    pub mean_clustering: f64,
}

impl_json_struct!(ExpectedSeries { estimator, realizations, mean_statistics, mean_clustering });

/// The full result of one figure run.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Figure number in the paper (1–4).
    pub figure: u32,
    /// Dataset name.
    pub network: String,
    /// Whether real SNAP data was used.
    pub real_data: bool,
    /// The three fitted initiators (KronFit, KronMom, Private) in that order.
    pub estimates: Vec<(String, Initiator2)>,
    /// Profiles of the original graph and of one synthetic realization per estimator.
    pub profiles: Vec<GraphProfile>,
    /// Comparisons of each synthetic profile against the original.
    pub comparisons: Vec<ProfileComparison>,
    /// Expected (multi-realization) series, when requested.
    pub expected: Vec<ExpectedSeries>,
}

impl_json_struct!(FigureResult {
    figure,
    network,
    real_data,
    estimates,
    profiles,
    comparisons,
    expected,
});

/// Runs the experiment behind one of Figures 1–4, or returns the error of a SNAP file that is
/// present under `data_dir` but cannot be read or parsed, or that an estimator refuses (one
/// without edges).
pub fn run_figure(figure: u32, options: &FigureOptions) -> Result<FigureResult, String> {
    let dataset = dataset_for_figure(figure)
        .unwrap_or_else(|| panic!("figure number must be 1-4, got {figure}"));
    let (original, real_data) = load_dataset(dataset, options.data_dir.as_deref(), options.seed)?;
    let mut rng = StdRng::seed_from_u64(options.seed ^ (figure as u64) << 8);

    // Fit the three estimators on one executor.
    let exec = Executor::new(0);
    let refused = |e: PipelineError| format!("{}: {e}", dataset.metadata().name);
    let kronfit = try_kronfit_estimate(
        &original,
        &kronfit_options(options.quick),
        &mut rng,
        &exec,
        &NullSink,
    )
    .map_err(refused)?;
    let kronmom = try_kronmom_estimate(&original, &KronMomOptions::default(), &exec, &NullSink)
        .map_err(refused)?;
    let private = try_private_estimate(
        &original,
        paper_budget(),
        &PrivateEstimatorOptions::default(),
        &mut rng,
        &exec,
        &NullSink,
    )
    .map_err(refused)?;
    let estimates: Vec<(String, Initiator2)> = vec![
        ("KronFit".to_string(), kronfit.theta),
        ("KronMom".to_string(), kronmom.theta),
        ("Private".to_string(), private.fit.theta),
    ];
    let k = kronmom.k;

    // Profile the original and one synthetic realization per estimator.
    let popts = profile_options(options.quick);
    let original_profile = GraphProfile::compute("Original", &original, &popts, &mut rng);
    let mut profiles = vec![original_profile.clone()];
    let mut comparisons = Vec::new();
    for (label, theta) in &estimates {
        let synthetic = sample_fast(theta, k, &mut rng, &exec);
        let profile = GraphProfile::compute(label.clone(), &synthetic, &popts, &mut rng);
        comparisons.push(ProfileComparison::between(
            &original_profile,
            &original,
            &profile,
            &synthetic,
        ));
        profiles.push(profile);
    }

    // The "Expected" series: average scalar statistics over many realizations (Figure 1).
    let mut expected = Vec::new();
    if options.expected_realizations > 0 {
        for (label, theta) in &estimates {
            let reps = options.expected_realizations;
            let mut sums = [0.0f64; 4];
            let mut clustering = 0.0;
            for _ in 0..reps {
                let g = sample_fast(theta, k, &mut rng, &exec);
                let s = MatchingStatistics::of_graph(&g).as_array();
                for i in 0..4 {
                    sums[i] += s[i] / reps as f64;
                }
                clustering += kronpriv_stats::global_clustering(&g) / reps as f64;
            }
            expected.push(ExpectedSeries {
                estimator: label.clone(),
                realizations: reps,
                mean_statistics: sums,
                mean_clustering: clustering,
            });
        }
    }

    let result = FigureResult {
        figure,
        network: dataset.metadata().name.to_string(),
        real_data,
        estimates,
        profiles,
        comparisons,
        expected,
    };
    write_figure_outputs(&result);
    Ok(result)
}

/// Writes the JSON result and the gnuplot-ready TSV series for every panel of the figure.
fn write_figure_outputs(result: &FigureResult) {
    let experiment = format!("figure{}", result.figure);
    let _ = write_json(&experiment, "result", result);
    for profile in &result.profiles {
        let tag = profile.label.to_lowercase();
        // (a) hop plot
        let hop: Vec<(f64, f64)> = profile
            .hop_plot
            .iter()
            .enumerate()
            .map(|(h, &pairs)| (h as f64, pairs as f64))
            .collect();
        let _ = write_series(&experiment, &format!("{tag}_hopplot"), "hops\tpairs", &hop);
        // (b) degree distribution
        let deg: Vec<(f64, f64)> =
            profile.degree_distribution.iter().map(|p| (p.degree as f64, p.count as f64)).collect();
        let _ = write_series(&experiment, &format!("{tag}_degree"), "degree\tcount", &deg);
        // (c) scree plot
        let scree: Vec<(f64, f64)> =
            profile.scree.iter().enumerate().map(|(rank, &sv)| ((rank + 1) as f64, sv)).collect();
        let _ = write_series(&experiment, &format!("{tag}_scree"), "rank\tsingular value", &scree);
        // (d) network value
        let nv: Vec<(f64, f64)> = profile
            .network_values
            .iter()
            .enumerate()
            .map(|(rank, &v)| ((rank + 1) as f64, v))
            .collect();
        let _ = write_series(&experiment, &format!("{tag}_netvalue"), "rank\tcomponent", &nv);
        // (e) clustering coefficient vs degree
        let cc: Vec<(f64, f64)> = profile
            .clustering_by_degree
            .iter()
            .map(|p| (p.degree as f64, p.average_clustering))
            .collect();
        let _ =
            write_series(&experiment, &format!("{tag}_clustering"), "degree\tavg clustering", &cc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_and_dataset_mappings_are_inverse() {
        for figure in 1..=4u32 {
            let ds = dataset_for_figure(figure).unwrap();
            assert_eq!(figure_number(ds), figure);
        }
        assert!(dataset_for_figure(5).is_none());
    }

    #[test]
    fn quick_figure_two_produces_all_panels() {
        // AS20 is the smallest stand-in; run the full figure pipeline in quick mode and check
        // every series exists and the private synthetic tracks the original's shape.
        let options =
            FigureOptions { quick: true, expected_realizations: 2, seed: 5, data_dir: None };
        let result = run_figure(2, &options).unwrap();
        assert_eq!(result.network, "AS20");
        assert_eq!(result.profiles.len(), 4);
        assert_eq!(result.comparisons.len(), 3);
        assert_eq!(result.expected.len(), 3);
        for profile in &result.profiles {
            assert!(!profile.degree_distribution.is_empty(), "{}", profile.label);
            assert!(!profile.hop_plot.is_empty(), "{}", profile.label);
            assert!(!profile.scree.is_empty(), "{}", profile.label);
            assert!(!profile.network_values.is_empty(), "{}", profile.label);
        }
        // The private synthetic graph's degree distribution should stay close to the original's
        // (the paper's Figure 2(b) claim).
        let private_cmp = result.comparisons.iter().find(|c| c.candidate == "Private").unwrap();
        assert!(
            private_cmp.degree_distribution_distance < 0.3,
            "degree KS distance {}",
            private_cmp.degree_distribution_distance
        );
        assert!(private_cmp.edge_count_relative_error < 0.5);
        // Expected series carry plausible averages.
        for series in &result.expected {
            assert!(series.mean_statistics[0] > 0.0);
            assert_eq!(series.realizations, 2);
        }
    }
}
