//! Benchmarks of the three estimators themselves — the end-to-end cost a data curator pays per
//! release. KronFit is benchmarked with a reduced chain length (its full configuration is
//! minutes-scale by design, like the original SNAP implementation).
//!
//! Run with `cargo bench -p kronpriv-bench --bench estimators` (add `-- --quick` for a smoke
//! run). Uses the in-workspace harness instead of criterion so the build stays offline.

use kronpriv::prelude::*;
use kronpriv_bench::harness::Harness;
use kronpriv_estimate::KronFitOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn synthetic_graph(k: u32) -> Graph {
    let mut rng = StdRng::seed_from_u64(k as u64);
    sample_fast(&Initiator2::new(0.99, 0.45, 0.25), k, &SamplerOptions::default(), &mut rng)
}

fn main() {
    let mut h = Harness::from_args("estimators");
    // One auto-sized executor serves every benchmark.
    let exec = Executor::new(0);

    {
        let g = synthetic_graph(13);
        h.bench_function("kronmom_fit_k13", |b| {
            b.iter(|| black_box(KronMomEstimator::default().fit_graph(black_box(&g), &exec)))
        });

        let mut rng = StdRng::seed_from_u64(11);
        h.bench_function("private_fit_k13_eps0.2", |b| {
            b.iter(|| {
                black_box(PrivateEstimator::default().fit(
                    &g,
                    PrivacyParams::paper_default(),
                    &mut rng,
                    &exec,
                    &NullSink,
                ))
            })
        });
    }

    {
        let g = synthetic_graph(11);
        let options = KronFitOptions {
            gradient_steps: 10,
            warmup_swaps: 2_000,
            samples_per_step: 2,
            swaps_between_samples: 500,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(12);
        h.bench_function("kronfit_10steps_k11", |b| {
            b.iter(|| {
                black_box(KronFitEstimator::new(options).fit_graph(&g, &mut rng, &exec, &NullSink))
            })
        });
    }

    h.report();
}
