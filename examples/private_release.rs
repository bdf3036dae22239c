//! Private release workflow on a "real" network: run all three estimators of Table 1 on the
//! CA-GrQc stand-in (or the real SNAP file if you point `KRONPRIV_DATA_DIR` at a directory
//! containing `ca-GrQc.txt`) and compare the statistical profiles of the synthetic graphs each
//! estimator produces.
//!
//! Run with:
//! ```text
//! cargo run --release --example private_release
//! ```

use kronpriv::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn main() -> Result<(), PipelineError> {
    let data_dir = std::env::var_os("KRONPRIV_DATA_DIR").map(PathBuf::from);
    let (original, is_real) =
        Dataset::CaGrQc.load_or_generate(data_dir.as_deref(), 1).unwrap_or_else(|e| {
            let path = Dataset::CaGrQc.snap_path(data_dir.as_deref()).unwrap_or_default();
            eprintln!("private_release: {}: {e}", path.display());
            std::process::exit(1)
        });
    println!(
        "CA-GrQc {}: {} nodes, {} edges",
        if is_real { "(real SNAP data)" } else { "(documented stand-in)" },
        original.node_count(),
        original.edge_count()
    );

    // The three estimators of Table 1 on one executor, KronFit's permutation sampling and the
    // privacy noise drawing from the same RNG, in this order.
    let mut rng = StdRng::seed_from_u64(11);
    let exec = Executor::new(0);
    let kronfit_options = KronFitOptions { gradient_steps: 40, ..Default::default() };
    let kronfit = try_kronfit_estimate(&original, &kronfit_options, &mut rng, &exec, &NullSink)?;
    let kronmom = try_kronmom_estimate(&original, &KronMomOptions::default(), &exec, &NullSink)?;
    let private = try_private_estimate(
        &original,
        PrivacyParams::paper_default(),
        &PrivateEstimatorOptions::default(),
        &mut rng,
        &exec,
        &NullSink,
    )?;
    println!("\nestimates (a, b, c):");
    println!("  KronFit  {}", kronfit.theta);
    println!("  KronMom  {}", kronmom.theta);
    println!("  Private  {}   (ε = 0.2, δ = 0.01)", private.fit.theta);

    // Sample one synthetic graph per estimator and profile it the way Figures 1-3 do.
    let options = ProfileOptions { scree_values: 25, network_values: 100 };
    let original_profile = GraphProfile::compute("Original", &original, &options, &mut rng);
    println!("\nprofile comparison against the original (lower is better):");
    println!("  estimator  edge err  triangle err  degree KS  λ₁ err  clustering diff");
    for (label, fit) in [("KronFit", &kronfit), ("KronMom", &kronmom), ("Private", &private.fit)] {
        let synthetic = sample_fast(&fit.theta, fit.k, &mut rng, &Executor::sequential());
        let profile = GraphProfile::compute(label, &synthetic, &options, &mut rng);
        let cmp = ProfileComparison::between(&original_profile, &original, &profile, &synthetic);
        println!(
            "  {label:<9} {:>8.3} {:>13.3} {:>10.3} {:>7.3} {:>16.4}",
            cmp.edge_count_relative_error,
            cmp.triangle_count_relative_error,
            cmp.degree_distribution_distance,
            cmp.leading_singular_value_relative_error,
            cmp.clustering_difference,
        );
    }

    println!("\nThe private column should track the KronMom column closely — that is the");
    println!("paper's headline claim (its Table 1 and Figures 1-3).");
    Ok(())
}
