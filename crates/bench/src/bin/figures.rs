//! Regenerates the data behind Figures 1–4: the hop plot, degree distribution, scree plot,
//! network values and clustering curves of the original graph and of synthetic graphs generated
//! from each estimator, written as JSON + TSV under `target/experiments/figureN/`.
//!
//! ```text
//! cargo run --release -p kronpriv-bench --bin figures -- --figure 1 [--expected 100] [--quick]
//! cargo run --release -p kronpriv-bench --bin figures -- --all [--quick]
//! ```

use kronpriv_bench::figures::{run_figure, FigureOptions};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1));
    let quick = args.iter().any(|a| a == "--quick");
    let all = args.iter().any(|a| a == "--all");
    let figure: u32 = get("--figure").and_then(|v| v.parse().ok()).unwrap_or(1);
    // Figure 1 overlays the "Expected" series averaged over 100 realizations in the paper.
    let default_expected = if figure == 1 || all { 100 } else { 0 };
    let expected: usize =
        get("--expected").and_then(|v| v.parse().ok()).unwrap_or(default_expected);
    let data_dir = get("--data-dir").map(PathBuf::from);

    let figures: Vec<u32> = if all { vec![1, 2, 3, 4] } else { vec![figure] };
    for figure in figures {
        let options = FigureOptions {
            quick,
            expected_realizations: if figure == 1 { expected } else { 0 },
            seed: 2012,
            data_dir: data_dir.clone(),
        };
        println!("=== Figure {figure} ===");
        let result = run_figure(figure, &options).unwrap_or_else(|e| {
            eprintln!("figures: {e}");
            std::process::exit(1)
        });
        println!(
            "network {} ({}): estimates {:?}",
            result.network,
            if result.real_data { "real data" } else { "stand-in" },
            result.estimates.iter().map(|(l, t)| format!("{l}: {t}")).collect::<Vec<_>>()
        );
        println!("panel comparisons against the original:");
        for cmp in &result.comparisons {
            println!(
                "  {:<8} edges {:+.1}%  triangles {:+.1}%  degree-KS {:.3}  λ₁ {:+.1}%  \
                 diameter Δ {}  clustering Δ {:.4}",
                cmp.candidate,
                100.0 * cmp.edge_count_relative_error,
                100.0 * cmp.triangle_count_relative_error,
                cmp.degree_distribution_distance,
                100.0 * cmp.leading_singular_value_relative_error,
                cmp.diameter_difference,
                cmp.clustering_difference,
            );
        }
        for series in &result.expected {
            println!(
                "  expected[{}] over {} realizations: E={:.0} H={:.0} Δ={:.0} T={:.0} cc={:.4}",
                series.estimator,
                series.realizations,
                series.mean_statistics[0],
                series.mean_statistics[1],
                series.mean_statistics[2],
                series.mean_statistics[3],
                series.mean_clustering,
            );
        }
        println!("series written under target/experiments/figure{figure}/\n");
    }
}
