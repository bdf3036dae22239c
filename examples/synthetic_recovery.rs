//! Parameter recovery on a synthetic Kronecker graph (the last row of Table 1): generate a graph
//! from known parameters and check that all three estimators recover them.
//!
//! Run with:
//! ```text
//! cargo run --release --example synthetic_recovery
//! ```

use kronpriv::prelude::*;
use kronpriv_estimate::KronFitOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // The paper's synthetic source: Θ = [0.99 0.45; 0.45 0.25], k = 14 (16,384 nodes).
    let truth = Initiator2::new(0.99, 0.45, 0.25);
    let k = 14;
    let mut rng = StdRng::seed_from_u64(99);
    let graph = sample_fast(&truth, k, &SamplerOptions::default(), &mut rng);
    println!(
        "synthetic Kronecker graph: {} nodes, {} edges, generated from Θ = {truth}",
        graph.node_count(),
        graph.edge_count()
    );

    let suite = estimate_with_all_estimators(
        &graph,
        PrivacyParams::paper_default(),
        &KronFitOptions { gradient_steps: 50, ..Default::default() },
        &KronMomOptions::default(),
        &PrivateEstimatorOptions::default(),
        &mut rng,
        &Executor::new(0),
    );

    println!("\n               a        b        c     |Θ̂ − Θ|");
    let report = |label: &str, theta: &Initiator2| {
        println!(
            "  {label:<10} {:.4}   {:.4}   {:.4}   {:.4}",
            theta.a,
            theta.b,
            theta.c,
            theta.distance(&truth)
        );
    };
    report("truth", &truth);
    report("KronFit", &suite.kronfit.theta);
    report("KronMom", &suite.kronmom.theta);
    report("Private", &suite.private.fit.theta);

    println!("\npaper's Table 1 values for the same experiment (their own random realization):");
    let row = Dataset::SyntheticKronecker.table1_row();
    report("KronFit*", &row.kronfit);
    report("KronMom*", &row.kronmom);
    report("Private*", &row.private);
    println!("\n(*) as printed in the paper; agreement is expected in shape, not digit-for-digit,");
    println!("because the realized graph and the privacy noise differ.");
}
