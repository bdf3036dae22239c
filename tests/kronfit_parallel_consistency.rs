//! The determinism contract of the multi-chain parallel KronFit, enforced end to end: at a
//! fixed chain count the fit must be **byte-identical** for 1, 2 and 8 compute threads on
//! seeded stochastic Kronecker inputs, because the thread knob only decides which worker runs
//! which chain/edge-chunk — chunk-order reduction puts the pieces back together in a fixed
//! order. The chain count, by contrast, is an algorithm parameter: it selects how many
//! [`StdRng::split`] streams drive the Metropolis sampling, so changing it is *supposed* to
//! change the fit.
//!
//! Also pinned here: the `StdRng::split` stream-derivation contract itself (pairwise
//! non-overlapping prefixes, position independence), which the multi-chain estimator rests on.
//!
//! Together with `tests/parallel_consistency.rs` (counting kernels) and
//! `tests/fit_parallel_consistency.rs` (moment fitting + isotonic pass), this completes the
//! thread-count-invariance coverage of all three Table-1 estimators.

use kronpriv::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A seeded SKG realization at the scale of the paper's smaller networks.
fn skg_graph(k: u32, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    sample_fast(&Initiator2::new(0.99, 0.45, 0.25), k, &SamplerOptions::default(), &mut rng)
}

/// A short but real fit configuration: multi-chunk edge sums would need a bigger graph, so the
/// chain fan-out is the parallel path this options set exercises; the edge-partitioned sums
/// have their own multi-chunk bit-identity test in the `kronpriv-estimate` unit suite.
fn quick_options(chains: usize) -> KronFitOptions {
    KronFitOptions {
        gradient_steps: 8,
        warmup_swaps: 1_000,
        samples_per_step: 2,
        swaps_between_samples: 200,
        chains,
        ..Default::default()
    }
}

/// The KronFit fit with `chains` chains on a `threads`-participant pool.
fn pooled_fit(g: &Graph, chains: usize, threads: usize, rng: &mut StdRng) -> FittedInitiator {
    KronFitEstimator::new(quick_options(chains)).fit_graph(
        g,
        rng,
        &Executor::new(threads),
        &NullSink,
    )
}

#[test]
fn multi_chain_fit_is_bit_identical_for_all_thread_counts() {
    let g = skg_graph(9, 0xF17_1000);
    let fit_with = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(0xF17_1001);
        pooled_fit(&g, 4, threads, &mut rng)
    };
    let reference = fit_with(1);
    for threads in THREAD_COUNTS {
        let fit = fit_with(threads);
        assert_eq!(fit.theta.a.to_bits(), reference.theta.a.to_bits(), "threads {threads}: a");
        assert_eq!(fit.theta.b.to_bits(), reference.theta.b.to_bits(), "threads {threads}: b");
        assert_eq!(fit.theta.c.to_bits(), reference.theta.c.to_bits(), "threads {threads}: c");
        assert_eq!(
            fit.objective_value.to_bits(),
            reference.objective_value.to_bits(),
            "threads {threads}: objective"
        );
        assert_eq!(fit.evaluations, reference.evaluations, "threads {threads}: evaluations");
        assert_eq!(fit.k, reference.k, "threads {threads}: order");
    }
}

/// Golden fits `(k, chains, θ bits, objective bits, evaluations)`, captured before the edge
/// terms were looked up per digit-count class instead of evaluated per edge. The lookup sums
/// the same values in the same order, so every bit must survive it.
const GOLDEN: [(u32, usize, [u64; 3], u64, usize); 4] = [
    (6, 1, [0x3fedd1c1f3aadbf6, 0x3fde6b267a895913, 0x3fd2f096cbf79041], 0x40696e6d2f9ca079, 16),
    (6, 4, [0x3fec56183c2938b4, 0x3fe22c5509a14513, 0x3fcee11f01b26194], 0x40699969bc86c8be, 64),
    (10, 1, [0x3fedb07a363df844, 0x3fe1385a2d8f6b60, 0x3fcd21306aa3a019], 0x40b8c778edd421d3, 16),
    (10, 4, [0x3fedb32029417568, 0x3fe15173a31b0330, 0x3fcbffca9ae7cba1], 0x40b89f0ba396c84d, 64),
];

#[test]
fn fits_reproduce_the_golden_values_bit_for_bit() {
    for (k, chains, theta_bits, objective_bits, evaluations) in GOLDEN {
        let g = skg_graph(k, 0xF17_2000 + k as u64);
        let mut rng = StdRng::seed_from_u64(0xF17_2001);
        let fit = pooled_fit(&g, chains, 2, &mut rng);
        let got = [fit.theta.a.to_bits(), fit.theta.b.to_bits(), fit.theta.c.to_bits()];
        assert_eq!(got, theta_bits, "k {k}, {chains} chain(s): theta");
        assert_eq!(fit.objective_value.to_bits(), objective_bits, "k {k}, {chains}: objective");
        assert_eq!(fit.evaluations, evaluations, "k {k}, {chains} chain(s): evaluations");
    }
}

#[test]
fn chain_count_changes_the_fit_thread_count_does_not() {
    // The contract stated in ISSUE/API terms: `chains` is part of the result's definition,
    // the pool size never is.
    let g = skg_graph(8, 0xF17_1002);
    let run = |chains: usize, threads: usize| {
        let mut rng = StdRng::seed_from_u64(0xF17_1003);
        pooled_fit(&g, chains, threads, &mut rng).theta
    };
    assert_eq!(run(3, 1), run(3, 8), "threads must not matter at fixed chains");
    assert_ne!(run(1, 1), run(4, 1), "chain count is an algorithm parameter");
}

#[test]
fn split_streams_are_pairwise_non_overlapping_on_a_prefix() {
    // The multi-chain fit assigns stream i to chain i. Pin that the first 512 outputs of 8
    // sibling streams (and the parent) are pairwise disjoint as sets — 4608 draws from a
    // 2^64 space collide with probability ~5e-13, so a single shared value indicates a
    // derivation bug, not chance.
    let parent = StdRng::seed_from_u64(0xF17_1004);
    let prefix = |mut rng: StdRng| -> Vec<u64> { (0..512).map(|_| rng.gen()).collect() };
    let mut streams: Vec<Vec<u64>> = vec![prefix(parent.clone())];
    streams.extend((0..8).map(|i| prefix(parent.split(i))));
    let mut seen: HashSet<u64> = HashSet::new();
    for (index, stream) in streams.iter().enumerate() {
        for &value in stream {
            assert!(seen.insert(value), "stream {index} overlaps an earlier stream at {value}");
        }
    }
}

#[test]
fn split_streams_are_independent_of_position_and_thread_count() {
    // Position independence is what makes the chain seeding thread-count-independent: every
    // chain derives its stream from the construction seed alone, no matter which worker (or
    // how many) asked first.
    let parent = StdRng::seed_from_u64(0xF17_1005);
    let mut advanced = parent.clone();
    for _ in 0..1_000 {
        advanced.gen::<u64>();
    }
    for stream in [0u64, 1, 7, 63] {
        let mut fresh = parent.split(stream);
        let mut after = advanced.split(stream);
        for draw in 0..128 {
            assert_eq!(fresh.gen::<u64>(), after.gen::<u64>(), "stream {stream}, draw {draw}");
        }
    }
}

#[test]
fn kronfit_baseline_is_invariant_under_the_thread_knob_end_to_end() {
    // Through the fallible pipeline entry point the server uses for
    // `/api/estimate` + `"estimator": "kronfit"`.
    let g = skg_graph(8, 0xF17_1006);
    let fit = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(0xF17_1007);
        let exec = Executor::new(threads);
        try_kronfit_estimate(&g, &quick_options(2), &mut rng, &exec, &NullSink).unwrap()
    };
    let reference = fit(1);
    for threads in [2usize, 8] {
        let got = fit(threads);
        assert_eq!(got.theta, reference.theta, "threads {threads}");
        assert_eq!(got.objective_value.to_bits(), reference.objective_value.to_bits());
        assert_eq!(got.evaluations, reference.evaluations, "threads {threads}");
    }
}
