//! The determinism contract of the parallel *fitting* layer, enforced end to end: the
//! multistart optimiser, the grid scan and the isotonic degree post-processing must return
//! **byte-identical** results for 1, 2 and 8 compute threads on seeded stochastic Kronecker
//! inputs — including when restarts tie on the final objective value — and the parallel
//! isotonic pass must agree with the plain sequential PAVA reference up to float associativity.
//!
//! Together with `tests/parallel_consistency.rs` (the counting kernels) this pins the whole of
//! Algorithm 1: the executor's pool size is a pure performance knob at every stage.

use kronpriv::prelude::*;
use kronpriv_dp::{isotonic_increasing_par, private_degree_sequence};
use kronpriv_estimate::MomentObjective;
use kronpriv_linalg::isotonic_increasing;
use kronpriv_optim::{
    grid_search, multistart_minimize, Bounds, MultistartOptions, NelderMeadOptions,
};
use kronpriv_par::Executor;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A seeded SKG realization at the scale of the paper's smaller networks.
fn skg_graph(k: u32, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    sample_fast(&Initiator2::new(0.99, 0.45, 0.25), k, &SamplerOptions::default(), &mut rng)
}

fn assert_same_result(
    a: &kronpriv_optim::OptimizationResult,
    b: &kronpriv_optim::OptimizationResult,
    context: &str,
) {
    assert_eq!(a.value.to_bits(), b.value.to_bits(), "{context}: objective value");
    assert_eq!(a.evaluations, b.evaluations, "{context}: evaluation count");
    assert_eq!(a.converged, b.converged, "{context}: convergence flag");
    assert_eq!(a.point.len(), b.point.len(), "{context}: dimension");
    for (x, y) in a.point.iter().zip(&b.point) {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: point coordinate");
    }
}

#[test]
fn multistart_on_an_skg_objective_is_bit_identical_for_all_thread_counts() {
    // The real fitting problem: the paper's moment objective on the observed statistics of a
    // seeded SKG realization. The driver must match its sequential run bit for bit at every
    // thread count.
    let g = skg_graph(10, 0xF17_0001);
    let stats = MatchingStatistics::of_graph(&g);
    let objective = MomentObjective::standard(&stats, 10);
    let bounds = Bounds::unit(3);
    let extra = vec![vec![0.99, 0.5, 0.2]];
    let opts = MultistartOptions::default();

    let sequential = multistart_minimize(
        |p| objective.evaluate_params(p),
        &bounds,
        &extra,
        &opts,
        &Executor::sequential(),
    );
    for threads in THREAD_COUNTS {
        let par = multistart_minimize(
            |p| objective.evaluate_params(p),
            &bounds,
            &extra,
            &opts,
            &Executor::new(threads),
        );
        assert_same_result(&par, &sequential, &format!("threads {threads}"));
    }
}

#[test]
fn grid_scan_on_an_skg_objective_is_bit_identical_for_all_thread_counts() {
    let g = skg_graph(9, 0xF17_0002);
    let stats = MatchingStatistics::of_graph(&g);
    let objective = MomentObjective::standard(&stats, 9);
    let bounds = Bounds::unit(3);
    let reference =
        grid_search(|p| objective.evaluate_params(p), &bounds, 7, &Executor::sequential());
    for threads in THREAD_COUNTS {
        let got =
            grid_search(|p| objective.evaluate_params(p), &bounds, 7, &Executor::new(threads));
        assert_eq!(got.len(), reference.len(), "threads {threads}");
        for (a, b) in got.iter().zip(&reference) {
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "threads {threads}");
            for (x, y) in a.point.iter().zip(&b.point) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads {threads}");
            }
        }
    }
}

#[test]
fn equal_objective_restarts_tie_break_deterministically() {
    // Two flat-bottomed wells both reaching exactly 0.0: two restarts finish at the *same*
    // objective value, so only the lowest-objective / lowest-start-index rule decides the
    // winner. Every thread count (and the sequential run) must agree on it.
    let f = |x: &[f64]| {
        let d = (x[0] - 0.25).abs().min((x[0] - 0.75).abs());
        (d - 0.1).max(0.0)
    };
    let bounds = Bounds::unit(1);
    let opts = MultistartOptions {
        grid_points_per_axis: 5, // lattice {0, 0.25, 0.5, 0.75, 1}: one seed in each well
        refine_top: 2,
        nelder_mead: NelderMeadOptions::default(),
    };
    let sequential = multistart_minimize(f, &bounds, &[], &opts, &Executor::sequential());
    assert_eq!(sequential.value, 0.0, "both wells bottom out at exactly zero");
    assert!(sequential.point[0] < 0.5, "stable grid order seeds the left well first");
    for threads in THREAD_COUNTS {
        let par = multistart_minimize(f, &bounds, &[], &opts, &Executor::new(threads));
        assert_same_result(&par, &sequential, &format!("threads {threads}"));
    }
}

#[test]
fn parallel_isotonic_pass_is_bit_identical_and_tracks_the_sequential_reference() {
    // The constrained-inference pass on a realistic input: the noisy sorted degree sequence of
    // a seeded SKG graph, long enough to span several parallel blocks.
    let g = skg_graph(13, 0xF17_0003);
    let release = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(0xF17_0004);
        private_degree_sequence(&g, PrivacyParams::pure(0.1), &mut rng, &Executor::new(threads))
    };
    let reference = release(1);
    assert!(reference.degrees.len() >= 8192, "want a multi-block sequence");
    assert!(reference.degrees.windows(2).all(|w| w[0] <= w[1] + 1e-12));
    for threads in THREAD_COUNTS {
        let got = release(threads);
        assert_eq!(got.noisy_degrees, reference.noisy_degrees, "threads {threads}: noise");
        assert_eq!(got.degrees.len(), reference.degrees.len());
        for (a, b) in got.degrees.iter().zip(&reference.degrees) {
            assert_eq!(a.to_bits(), b.to_bits(), "threads {threads}: fitted degrees");
        }
    }
    // Regression against the element-at-a-time PAVA: identical up to float associativity.
    let sequential = isotonic_increasing(&reference.noisy_degrees);
    let parallel = isotonic_increasing_par(&reference.noisy_degrees, &Executor::new(8));
    for (i, (a, b)) in parallel.iter().zip(&sequential).enumerate() {
        assert!((a - b).abs() < 1e-9, "index {i}: parallel {a} vs sequential {b}");
    }
}

#[test]
fn full_private_fit_is_invariant_under_the_thread_knob() {
    // End to end through the parallel fitting stage: Algorithm 1's released initiator must
    // not depend on the size of the pool every stage borrows.
    let g = skg_graph(10, 0xF17_0005);
    let fit = |threads: usize| {
        let options = PrivateEstimatorOptions::default();
        let mut rng = StdRng::seed_from_u64(0xF17_0006);
        let exec = Executor::new(threads);
        try_private_estimate(
            &g,
            PrivacyParams::paper_default(),
            &options,
            &mut rng,
            &exec,
            &NullSink,
        )
        .unwrap()
    };
    let reference = fit(1);
    for threads in [2usize, 8] {
        let est = fit(threads);
        assert_eq!(est.fit.theta, reference.fit.theta, "threads {threads}");
        assert_eq!(est.fit.objective_value.to_bits(), reference.fit.objective_value.to_bits());
        assert_eq!(est.fit.evaluations, reference.fit.evaluations, "threads {threads}");
        assert_eq!(est.private_statistics, reference.private_statistics, "threads {threads}");
        assert_eq!(est.degree_release, reference.degree_release, "threads {threads}");
    }
}
