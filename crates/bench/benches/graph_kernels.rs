//! Micro-benchmarks of the graph kernels: subgraph counting (the observed side of the moment
//! matching), smooth sensitivity, the private degree-sequence release, and the evaluation
//! statistics, all at the scale of the paper's datasets.
//!
//! Run with `cargo bench -p kronpriv-bench --bench graph_kernels` (add `-- --quick` for a
//! smoke run). Uses the in-workspace harness instead of criterion so the build stays offline.

use kronpriv::prelude::*;
use kronpriv_bench::harness::Harness;
use kronpriv_dp::{private_degree_sequence, smooth_sensitivity_triangles};
use kronpriv_graph::counts::triangle_count;
use kronpriv_graph::traversal::reachable_pairs_by_hops;
use kronpriv_stats::scree_plot;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn main() {
    let mut h = Harness::from_args("graph_kernels");
    let g = Dataset::CaGrQc.generate(1);
    // The single-threaded kernels.
    let seq = Executor::sequential();

    h.bench_function("matching_statistics_ca_grqc", |b| {
        b.iter(|| black_box(MatchingStatistics::of_graph(black_box(&g))))
    });

    h.bench_function("triangle_count_ca_grqc", |b| {
        b.iter(|| black_box(triangle_count(black_box(&g), &seq)))
    });

    h.bench_function("smooth_sensitivity_ca_grqc", |b| {
        b.iter(|| black_box(smooth_sensitivity_triangles(black_box(&g), 0.01, &seq)))
    });

    {
        let mut rng = StdRng::seed_from_u64(7);
        h.bench_function("private_degree_sequence_ca_grqc", |b| {
            b.iter(|| {
                black_box(private_degree_sequence(&g, PrivacyParams::pure(0.1), &mut rng, &seq))
            })
        });
    }

    {
        let mut rng = StdRng::seed_from_u64(8);
        h.bench_function("scree_plot_25_ca_grqc", |b| {
            b.iter(|| black_box(scree_plot(&g, 25, &mut rng)))
        });
    }

    // The exact all-sources BFS is the slowest figure kernel; benchmark it on the smaller AS20
    // stand-in to keep the suite quick.
    let as20 = Dataset::As20.generate(2);
    h.bench_function("exact_hop_plot_as20", |b| {
        b.iter(|| black_box(reachable_pairs_by_hops(&as20, &seq)))
    });

    h.report();
}
