//! The Table 1 experiment: parameter estimates of KronFit, KronMom and the private estimator on
//! all four evaluation graphs, side by side with the values printed in the paper.

use crate::{format_theta, kronfit_options, load_dataset, paper_budget};
use kronpriv::experiment::{render_table, write_json};
use kronpriv::prelude::*;
use kronpriv_datasets::Table1Row;
use kronpriv_json::impl_to_json_struct;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Options for the Table 1 run.
#[derive(Debug, Clone)]
pub struct Table1Options {
    /// Use shortened KronFit chains (development mode).
    pub quick: bool,
    /// Number of independent private runs to average (the paper reports a single run; averaging
    /// a few runs makes the comparison less dependent on one noise draw).
    pub private_repetitions: usize,
    /// Random seed for dataset generation, KronFit sampling and privacy noise.
    pub seed: u64,
    /// Directory with the real SNAP files, if available.
    pub data_dir: Option<PathBuf>,
}

impl Default for Table1Options {
    fn default() -> Self {
        Table1Options { quick: false, private_repetitions: 3, seed: 2012, data_dir: None }
    }
}

/// The measured counterpart of one row of Table 1.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    /// Dataset name.
    pub network: String,
    /// Whether the real SNAP data was used (false = documented stand-in).
    pub real_data: bool,
    /// Node and edge counts of the graph the estimators actually saw.
    pub nodes: usize,
    /// Edge count of the graph the estimators actually saw.
    pub edges: usize,
    /// Measured KronFit estimate.
    pub kronfit: Initiator2,
    /// Measured KronMom estimate.
    pub kronmom: Initiator2,
    /// Measured private estimate (averaged over `private_repetitions` runs).
    pub private: Initiator2,
    /// Distance between the measured private and measured KronMom estimates — the paper's
    /// headline "the private estimator tracks the non-private one" number.
    pub private_to_kronmom_distance: f64,
    /// The paper's published row, for the report.
    pub paper: Table1Row,
}

impl_to_json_struct!(MeasuredRow {
    network,
    real_data,
    nodes,
    edges,
    kronfit,
    kronmom,
    private,
    private_to_kronmom_distance,
    paper,
});

/// Runs the Table 1 experiment and returns one measured row per dataset, or the error of a
/// SNAP file that is present under `data_dir` but cannot be read or parsed, or that an
/// estimator refuses (one without edges).
pub fn run_table1(options: &Table1Options) -> Result<Vec<MeasuredRow>, String> {
    let exec = Executor::new(0);
    let mut rows = Vec::new();
    for dataset in Dataset::all() {
        let (graph, real_data) = load_dataset(dataset, options.data_dir.as_deref(), options.seed)?;
        let mut rng = StdRng::seed_from_u64(options.seed ^ dataset.metadata().k as u64);

        let refused = |e: PipelineError| format!("{}: {e}", dataset.metadata().name);
        let kronfit = try_kronfit_estimate(
            &graph,
            &kronfit_options(options.quick),
            &mut rng,
            &exec,
            &NullSink,
        )
        .map_err(refused)?;
        let kronmom = try_kronmom_estimate(&graph, &KronMomOptions::default(), &exec, &NullSink)
            .map_err(refused)?;

        // Average the private estimate over a few independent noise draws.
        let reps = options.private_repetitions.max(1);
        let mut sum = [0.0f64; 3];
        for rep in 0..reps {
            let mut noise_rng = StdRng::seed_from_u64(options.seed + 7 * rep as u64 + 1);
            let est = try_private_estimate(
                &graph,
                paper_budget(),
                &PrivateEstimatorOptions::default(),
                &mut noise_rng,
                &exec,
                &NullSink,
            )
            .map_err(refused)?;
            let arr = est.fit.theta.as_array();
            for i in 0..3 {
                sum[i] += arr[i] / reps as f64;
            }
        }
        let private = Initiator2::clamped(sum[0], sum[1], sum[2]).canonicalized();

        rows.push(MeasuredRow {
            network: dataset.metadata().name.to_string(),
            real_data,
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            kronfit: kronfit.theta,
            kronmom: kronmom.theta,
            private,
            private_to_kronmom_distance: private.distance(&kronmom.theta),
            paper: dataset.table1_row(),
        });
    }
    Ok(rows)
}

/// Renders the measured rows as the side-by-side text table the `table1` binary prints, and
/// writes the structured results under `target/experiments/table1/`.
pub fn report_table1(rows: &[MeasuredRow]) -> String {
    let header = [
        "network",
        "graph (N / E)",
        "KronFit (a/b/c)",
        "KronMom (a/b/c)",
        "Private (a/b/c)",
        "|Priv-Mom|",
        "paper KronMom",
        "paper Private",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}{}", r.network, if r.real_data { "" } else { "*" }),
                format!("{} / {}", r.nodes, r.edges),
                format_theta(&r.kronfit),
                format_theta(&r.kronmom),
                format_theta(&r.private),
                format!("{:.3}", r.private_to_kronmom_distance),
                format_theta(&r.paper.kronmom),
                format_theta(&r.paper.private),
            ]
        })
        .collect();
    let mut out = render_table(&header, &body);
    out.push_str(
        "\n(*) documented stand-in generated from the paper's Table 1 parameters; see DESIGN.md.\n",
    );
    if let Ok(path) = write_json("table1", "measured", &rows.to_vec()) {
        out.push_str(&format!("structured results written to {}\n", path.display()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table1_runs_and_reproduces_the_papers_shape() {
        // One quick end-to-end run over all four datasets. This is the repository's strongest
        // single test: it exercises datasets, all three estimators and the DP stack together,
        // and asserts the paper's qualitative findings.
        let options = Table1Options { quick: true, private_repetitions: 4, ..Default::default() };
        let rows = run_table1(&options).unwrap();
        assert_eq!(rows.len(), 4);
        // Shape check 1: the private estimate tracks the non-private KronMom estimate. The
        // paper's Table 1 shows agreement within ~0.02 per entry on the real SNAP networks; on
        // the SKG *stand-ins* the triangle count is tiny (an acknowledged limitation of the SKG
        // model for co-authorship networks), so the private fit has to drop the triangle term
        // and the remaining degree-derived moments constrain the parameters less tightly.
        // EXPERIMENTS.md records the measured gap; the bands here assert the qualitative claim
        // (same basin, same ordering of parameters) rather than the paper's exact tightness.
        // On the stand-ins the released triangle count carries no signal, so what the degree-
        // derived moments identify are the initiator *row sums* (a + b) and (b + c) — the
        // quantities that determine the degree distribution of an SKG. The private estimator
        // must agree with KronMom on those; the full (a, b, c) distance is reported in
        // EXPERIMENTS.md and asserted only as a loose sanity band (the third direction is close
        // to unidentifiable without triangles, which is precisely why Algorithm 1 releases Δ̃).
        for row in &rows {
            let row_sum_gap = ((row.private.a + row.private.b) - (row.kronmom.a + row.kronmom.b))
                .abs()
                .max(((row.private.b + row.private.c) - (row.kronmom.b + row.kronmom.c)).abs());
            assert!(
                row_sum_gap < 0.06,
                "{}: row-sum gap {row_sum_gap:.3}; private {:?} vs kronmom {:?}",
                row.network,
                row.private,
                row.kronmom
            );
            assert!(
                row.private_to_kronmom_distance < 0.5,
                "{}: private {:?} vs kronmom {:?}",
                row.network,
                row.private,
                row.kronmom
            );
            // Shape check 2: all estimates live in the canonical box.
            for theta in [&row.kronfit, &row.kronmom, &row.private] {
                assert!(theta.a >= theta.c);
                for p in theta.as_array() {
                    assert!((0.0..=1.0).contains(&p));
                }
            }
        }
        // Shape check 3: on the stand-ins (generated from the paper's KronMom parameters) the
        // measured KronMom estimate comes back close to the published values.
        for row in rows.iter().filter(|r| r.network != "Synthetic") {
            assert!(
                row.kronmom.distance(&row.paper.kronmom) < 0.15,
                "{}: measured {:?} vs paper {:?}",
                row.network,
                row.kronmom,
                row.paper.kronmom
            );
        }
        // Shape check 4: the synthetic row recovers its generating parameters.
        let synthetic = rows.iter().find(|r| r.network == "Synthetic").unwrap();
        let truth = Initiator2::new(0.99, 0.45, 0.25);
        assert!(synthetic.kronmom.distance(&truth) < 0.1, "{:?}", synthetic.kronmom);
        let truth_row_sum_gap = ((synthetic.private.a + synthetic.private.b) - (truth.a + truth.b))
            .abs()
            .max(((synthetic.private.b + synthetic.private.c) - (truth.b + truth.c)).abs());
        assert!(truth_row_sum_gap < 0.06, "{:?}", synthetic.private);
    }

    #[test]
    fn report_renders_every_network_row() {
        let options = Table1Options { quick: true, private_repetitions: 1, ..Default::default() };
        let rows = run_table1(&options).unwrap();
        let report = report_table1(&rows);
        for name in ["CA-GrQc", "CA-HepTh", "AS20", "Synthetic"] {
            assert!(report.contains(name), "missing {name} in report:\n{report}");
        }
    }
}
