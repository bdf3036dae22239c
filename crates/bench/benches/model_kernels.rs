//! Micro-benchmarks of the model kernels every experiment leans on: the closed-form expected
//! moments (Equation 1), per-pair edge probabilities, the moment objective, and SKG sampling at
//! the paper's graph sizes.
//!
//! Run with `cargo bench -p kronpriv-bench --bench model_kernels` (add `-- --quick` for a
//! smoke run). Uses the in-workspace harness instead of criterion so the build stays offline.

use kronpriv::prelude::*;
use kronpriv_bench::harness::Harness;
use kronpriv_estimate::MomentObjective;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn main() {
    let mut h = Harness::from_args("model_kernels");
    let theta = Initiator2::new(0.99, 0.45, 0.25);

    h.bench_function("expected_moments_k14", |b| {
        b.iter(|| black_box(ExpectedMoments::of(black_box(&theta), 14)))
    });

    h.bench_function("edge_probability_k14", |b| {
        b.iter(|| black_box(theta.edge_probability(14, black_box(12345), black_box(4321))))
    });

    {
        let observed = ExpectedMoments::of(&theta, 14).as_array();
        let objective = MomentObjective::from_counts(observed, 14);
        let candidate = Initiator2::new(0.95, 0.5, 0.3);
        h.bench_function("moment_objective_evaluation", |b| {
            b.iter(|| black_box(objective.evaluate(black_box(&candidate))))
        });
    }

    let seq = Executor::sequential();
    for k in [10u32, 12, 14] {
        let mut rng = StdRng::seed_from_u64(k as u64);
        h.bench_function(&format!("skg_sample_fast/{k}"), |b| {
            b.iter(|| black_box(sample_fast(&theta, k, &mut rng, &seq).edge_count()))
        });
    }

    {
        let mut rng = StdRng::seed_from_u64(9);
        h.bench_function("skg_sample_exact_k9", |b| {
            b.iter(|| black_box(sample_exact(&theta, 9, &mut rng).edge_count()))
        });
    }

    h.report();
}
