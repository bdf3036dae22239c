//! Quickstart: privately estimate a stochastic Kronecker model of a sensitive graph and sample
//! a synthetic graph that can be shared.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use kronpriv::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // In a real deployment this would be the sensitive graph (e.g. a social network loaded with
    // `kronpriv_graph::io::read_edge_list`). Here a synthetic Kronecker graph plays the part so
    // the example is self-contained and we know the ground truth.
    let truth = Initiator2::new(0.99, 0.45, 0.25);
    let exec = Executor::new(0);
    let mut rng = StdRng::seed_from_u64(2012);
    let sensitive = sample_fast(&truth, 12, &mut rng, &exec);
    println!(
        "sensitive graph: {} nodes, {} edges (generated from Θ = {truth})",
        sensitive.node_count(),
        sensitive.edge_count()
    );

    // Release an (ε, δ)-differentially private estimate of the initiator (Algorithm 1) and a
    // synthetic graph sampled from it. Only `release.estimate.fit.theta` (and things derived
    // from it, like the synthetic graph) should ever leave the data curator's machine.
    // Every parallel stage runs on one executor; `NullSink` ignores the progress events.
    let budget = PrivacyParams::paper_default(); // ε = 0.2, δ = 0.01, as in the paper
    let options = PrivateEstimatorOptions::default();
    let release =
        try_release_synthetic_graph(&sensitive, budget, &options, &mut rng, &exec, &NullSink)
            .expect("a non-empty graph and δ > 0 satisfy the release preconditions");
    println!("\nprivate estimate at {budget}: Θ̃ = {}", release.estimate.fit.theta);
    println!(
        "private matching statistics [E, H, Δ, T] = {:?}",
        release.estimate.private_statistics.map(|v| v.round())
    );

    // How good is the synthetic graph? Compare the statistics the paper's figures look at.
    let exact = MatchingStatistics::of_graph(&sensitive);
    let synthetic_stats = MatchingStatistics::of_graph(&release.synthetic);
    println!("\n                original   synthetic");
    println!("edges        {:>10.0}  {:>10.0}", exact.edges, synthetic_stats.edges);
    println!("hairpins     {:>10.0}  {:>10.0}", exact.hairpins, synthetic_stats.hairpins);
    println!("triangles    {:>10.0}  {:>10.0}", exact.triangles, synthetic_stats.triangles);
    println!("tripins      {:>10.0}  {:>10.0}", exact.tripins, synthetic_stats.tripins);

    println!(
        "\nrecovered vs generating parameters: |Θ̃ − Θ| = {:.4}",
        release.estimate.fit.theta.distance(&truth)
    );
}
