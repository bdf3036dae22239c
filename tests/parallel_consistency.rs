//! The determinism contract of the parallel compute layer, enforced end to end: every
//! parallelized kernel must return **byte-identical** results for 1, 2 and 8 compute threads on
//! realistic graphs (seeded stochastic Kronecker realizations and preferential-attachment
//! graphs), and the O(n)-memory local-sensitivity kernel must agree with the quadratic
//! reference on the hub-heavy shapes that used to blow up the wedge-pair HashMap.

use kronpriv::prelude::*;
use kronpriv_dp::{smooth_sensitivity_triangles, triangle_local_sensitivity};
use kronpriv_graph::counts::{max_common_neighbors, per_node_triangles, triangle_count};
use kronpriv_graph::generators::preferential_attachment;
use kronpriv_graph::traversal::reachable_pairs_by_hops;
use kronpriv_par::Executor;
use kronpriv_stats::{approximate_hop_plot, HopPlotOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The two graph families the paper models: a seeded SKG realization (core–periphery, heavy
/// tail) and a preferential-attachment graph (power-law hubs).
fn test_graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(0xDE_7001);
    let skg =
        sample_fast(&Initiator2::new(0.99, 0.45, 0.25), 10, &SamplerOptions::default(), &mut rng);
    let mut rng = StdRng::seed_from_u64(0xDE_7002);
    let pa = preferential_attachment(1200, 4, &mut rng);
    vec![("skg_k10", skg), ("pref_attach_1200", pa)]
}

#[test]
fn triangle_counts_are_identical_for_all_thread_counts() {
    for (name, g) in test_graphs() {
        let count = triangle_count(&g, &Executor::sequential());
        let per_node = per_node_triangles(&g, &Executor::sequential());
        assert!(count > 0, "{name}: want a non-trivial graph");
        for threads in THREAD_COUNTS {
            let exec = Executor::new(threads);
            assert_eq!(triangle_count(&g, &exec), count, "{name} threads {threads}");
            assert_eq!(per_node_triangles(&g, &exec), per_node, "{name} threads {threads}");
        }
    }
}

#[test]
fn smooth_sensitivity_is_bit_identical_for_all_thread_counts() {
    for (name, g) in test_graphs() {
        for beta in [0.01, 0.2] {
            let reference = smooth_sensitivity_triangles(&g, beta, &Executor::sequential());
            assert!(reference > 0.0, "{name}: smooth sensitivity must be positive");
            for threads in THREAD_COUNTS {
                let exec = Executor::new(threads);
                assert_eq!(
                    smooth_sensitivity_triangles(&g, beta, &exec).to_bits(),
                    reference.to_bits(),
                    "{name} beta {beta} threads {threads}"
                );
            }
        }
    }
}

#[test]
fn hop_plots_are_identical_for_all_thread_counts() {
    for (name, g) in test_graphs() {
        let seq = Executor::sequential();
        let exact = reachable_pairs_by_hops(&g, &seq);
        let options = HopPlotOptions { sketches: 16, max_hops: 24 };
        let approx = approximate_hop_plot(&g, &options, &mut StdRng::seed_from_u64(7), &seq);
        for threads in THREAD_COUNTS {
            let exec = Executor::new(threads);
            assert_eq!(reachable_pairs_by_hops(&g, &exec), exact, "{name} threads {threads}");
            let approx_par =
                approximate_hop_plot(&g, &options, &mut StdRng::seed_from_u64(7), &exec);
            assert_eq!(approx_par.len(), approx.len(), "{name} threads {threads}");
            for (a, b) in approx_par.iter().zip(&approx) {
                assert_eq!(a.to_bits(), b.to_bits(), "{name} threads {threads}");
            }
        }
    }
}

#[test]
fn full_private_estimate_is_invariant_under_the_thread_knob() {
    // End to end: the estimate the server publishes must not depend on the pool size.
    let (_, g) = &test_graphs()[0];
    let fit = |threads: usize| {
        let options = PrivateEstimatorOptions::default();
        let mut rng = StdRng::seed_from_u64(0xDE_7003);
        let exec = Executor::new(threads);
        try_private_estimate(
            g,
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
        assert_eq!(est.private_statistics, reference.private_statistics, "threads {threads}");
    }
}

/// A hub of degree `mids · (leaves + 1)`: the old wedge-pair HashMap needed one entry per pair
/// of hub neighbours — `O(d_hub²)` ≈ 7.5M entries here — where the counter/marker kernel needs
/// `threads × O(n)` with `n` < 4000. The value is pinned both against the closed form and, on a
/// smaller instance, against the quadratic all-pairs reference.
#[test]
fn hub_heavy_local_sensitivity_runs_in_linear_memory_and_matches_the_reference() {
    let star_of_stars = |mids: u32, leaves: u32| {
        let n = 1 + mids as usize + (mids * leaves) as usize;
        let mut edges = Vec::new();
        let mut next = mids + 1;
        for mid in 1..=mids {
            edges.push((0, mid));
            for _ in 0..leaves {
                edges.push((mid, next));
                edges.push((0, next));
                next += 1;
            }
        }
        Graph::from_edges(n, edges)
    };

    // Small instance: the quadratic reference is affordable, pin exact agreement.
    let small = star_of_stars(12, 8);
    let seq = Executor::sequential();
    assert_eq!(triangle_local_sensitivity(&small, &seq), max_common_neighbors(&small));
    assert_eq!(triangle_local_sensitivity(&small, &seq), 8);

    // Hub-heavy instance: hub degree 3'875 ⇒ ~7.5M wedge pairs through the hub alone. The
    // O(n) kernel must handle it instantly at every thread count with the closed-form answer.
    let big = star_of_stars(125, 30);
    assert_eq!(big.degree(0), 3875);
    for threads in THREAD_COUNTS {
        let exec = Executor::new(threads);
        assert_eq!(triangle_local_sensitivity(&big, &exec), 30, "threads {threads}");
    }
}
