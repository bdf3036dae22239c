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
use kronpriv_estimate::KronFitOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn main() {
    let data_dir = std::env::var_os("KRONPRIV_DATA_DIR").map(PathBuf::from);
    let (original, is_real) = Dataset::CaGrQc.load_or_generate(data_dir.as_deref(), 1);
    println!(
        "CA-GrQc {}: {} nodes, {} edges",
        if is_real { "(real SNAP data)" } else { "(documented stand-in)" },
        original.node_count(),
        original.edge_count()
    );

    let mut rng = StdRng::seed_from_u64(11);
    let suite = estimate_with_all_estimators(
        &original,
        PrivacyParams::paper_default(),
        &KronFitOptions { gradient_steps: 40, ..Default::default() },
        &KronMomOptions::default(),
        &PrivateEstimatorOptions::default(),
        &mut rng,
        &Executor::new(0),
    );
    println!("\nestimates (a, b, c):");
    println!("  KronFit  {}", suite.kronfit.theta);
    println!("  KronMom  {}", suite.kronmom.theta);
    println!("  Private  {}   (ε = 0.2, δ = 0.01)", suite.private.fit.theta);

    // Sample one synthetic graph per estimator and profile it the way Figures 1-3 do.
    let options = ProfileOptions { scree_values: 25, network_values: 100, skip_hop_plot: false };
    let original_profile = GraphProfile::compute("Original", &original, &options, &mut rng);
    println!("\nprofile comparison against the original (lower is better):");
    println!("  estimator  edge err  triangle err  degree KS  λ₁ err  clustering diff");
    for (label, fit) in
        [("KronFit", &suite.kronfit), ("KronMom", &suite.kronmom), ("Private", &suite.private.fit)]
    {
        let synthetic = sample_fast(&fit.theta, fit.k, &SamplerOptions::default(), &mut rng);
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
}
