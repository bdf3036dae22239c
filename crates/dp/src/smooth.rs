//! Smooth sensitivity of the triangle count and the `(ε, δ)` triangle release
//! (Nissim, Raskhodnikova, Smith, STOC 2007; Section 4.1 of the paper).
//!
//! Adding or removing the edge `{i, j}` changes the number of triangles by exactly `a_ij`, the
//! number of common neighbours of `i` and `j`, so the *local sensitivity* of `Δ` is
//! `LS_Δ(G) = max_{ij} a_ij` (Definition 4.3). The global sensitivity is `n − 2`, far too large
//! to add as Laplace noise, which is why the paper uses the smooth-sensitivity framework:
//!
//! * the local sensitivity at distance `s` is
//!   `A(s)(G) = max_{ij} c_ij(s)` with `c_ij(s) = min(a_ij + ⌊(s + min(s, b_ij)) / 2⌋, n − 2)`,
//!   where `b_ij` counts nodes adjacent to exactly one of `i`, `j` (converting such a node into
//!   a common neighbour costs one edge change; creating a fresh common neighbour costs two),
//! * the `β`-smooth sensitivity is `SS_β(G) = max_{s ≥ 0} e^{−βs} A(s)(G)` (Definition 4.7),
//! * Theorem 4.8: releasing `Δ + (2·S/ε)·Lap(1)` is `(ε, δ)`-DP whenever `S` is a `β`-smooth
//!   upper bound on `LS_Δ` and `β ≤ ε / (2 ln(2/δ))`.
//!
//! Two computations are provided. [`smooth_sensitivity_triangles_exact`] evaluates the NRS
//! formula over all node pairs — exact but cubic (each of the `n²/2` pairs scans up to
//! `2(n − 2 − a_ij)` distances), used on small graphs and in tests.
//! [`smooth_sensitivity_triangles`] uses the relaxation `c_ij(s) ≤ min(a_ij + s, n − 2)`, whose
//! pair-maximum depends only on `max_{ij} a_ij`; the result is still a valid `β`-smooth upper
//! bound on the local sensitivity (so the privacy guarantee is intact) but is computable by a
//! pruned wedge scan, which is what makes the 2^14-node experiments feasible. The
//! relaxation can only make the released value *noisier*, never less private, and the tests
//! quantify how close the two are on realistic graphs.

use crate::budget::PrivacyParams;
use crate::laplace::LaplaceNoise;
use kronpriv_graph::counts::{common_neighbor_count, exclusive_neighbor_count, DegreeOrdered};
use kronpriv_graph::Graph;
use kronpriv_json::impl_json_struct_redacted;
use kronpriv_par::{Executor, Work};
use rand::Rng;

/// Left endpoints per chunk for the cubic exact kernel, whose per-endpoint cost (up to `n` pair
/// evaluations, each scanning the distance-`s` curve) is orders of magnitude higher than the
/// local-sensitivity scan's — so much smaller chunks keep the dynamic claiming balanced.
const EXACT_PAIR_CHUNK: usize = 64;

/// Cost hint for one left endpoint of the cubic exact kernel: up to `n` pair evaluations, each
/// a neighbour intersection plus a scan of up to `2(n − 2 − a_ij)` distances with one `exp`
/// each. Measured at ~18 ms per left endpoint (~17·n² ns) on a 1024-node SKG, single-threaded
/// in a release build on a 2-core x86-64 host. A pure function of the graph shape, as the
/// executor's sequential cutoff requires.
fn exact_pair_work(g: &Graph) -> Work {
    let n = g.node_count() as u64;
    Work::per_item_ns(n.saturating_mul(n).saturating_mul(16))
}

/// Local sensitivity of the triangle count: the largest number of common neighbours over all
/// node pairs, computed by the pruned wedge scan of [`DegreeOrdered::max_common_neighbors`] in
/// `O(n + m)` memory on `exec`'s compute threads. The merge is an integer `max`, so the result
/// is identical for any thread count.
pub fn triangle_local_sensitivity(g: &Graph, exec: &Executor) -> usize {
    DegreeOrdered::new(g).max_common_neighbors(exec)
}

/// The exact local sensitivity of `Δ` at distance `s` (the quantity `A(s)(G)` above), evaluated
/// by scanning all node pairs. Quadratic in the node count — intended for small graphs and for
/// validating the fast upper bound.
pub fn local_sensitivity_at_distance(g: &Graph, s: usize) -> usize {
    let n = g.node_count();
    if n < 2 {
        return 0;
    }
    let cap = n - 2;
    let mut best = 0usize;
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            let a = common_neighbor_count(g, i, j);
            let b = exclusive_neighbor_count(g, i, j);
            let c = (a + (s + s.min(b)) / 2).min(cap);
            best = best.max(c);
        }
    }
    best
}

/// Exact `β`-smooth sensitivity of the triangle count (maximum of `e^{−βs} A(s)` over `s`).
/// Cubic in the node count: each of the `n²/2` pairs scans up to `2(n − 2 − a_ij)` distances.
/// A 1024-node graph takes ~20 s single-threaded in a release build, and the cost grows with
/// `n³`. See [`smooth_sensitivity_triangles`] for the scalable variant.
///
/// Runs on `exec`'s compute threads, partitioned over the smaller pair endpoint. The merge is
/// an exact `f64::max`, so the result is bit-identical for any thread count.
///
/// # Panics
/// Panics if `beta <= 0`.
pub fn smooth_sensitivity_triangles_exact(g: &Graph, beta: f64, exec: &Executor) -> f64 {
    assert!(beta > 0.0, "beta must be positive");
    let n = g.node_count();
    if n < 3 {
        return 0.0;
    }
    let cap = (n - 2) as f64;
    exec.map_reduce(
        n,
        EXACT_PAIR_CHUNK,
        exact_pair_work(g),
        |left_endpoints| {
            let mut best = 0.0f64;
            for i in left_endpoints {
                let i = i as u32;
                for j in (i + 1)..n as u32 {
                    let a = common_neighbor_count(g, i, j) as f64;
                    let b = exclusive_neighbor_count(g, i, j) as f64;
                    best = best.max(pair_smooth_contribution(a, b, cap, beta));
                }
            }
            best
        },
        |acc: f64, chunk_best| acc.max(chunk_best),
        0.0,
    )
}

/// `max_s e^{−βs} c_ij(s)` for one pair with common count `a` and exclusive count `b`.
fn pair_smooth_contribution(a: f64, b: f64, cap: f64, beta: f64) -> f64 {
    // c(s) saturates at the cap once a + (s + min(s, b))/2 >= cap; beyond that the exponential
    // decay only shrinks the product, so it is enough to scan s up to that point.
    let saturation = if cap <= a { 0 } else { (2.0 * (cap - a)).ceil() as usize + 2 };
    let mut best = 0.0f64;
    for s in 0..=saturation {
        let sf = s as f64;
        let c = (a + (sf + sf.min(b)) / 2.0).floor().min(cap);
        best = best.max((-beta * sf).exp() * c);
        if c >= cap {
            break;
        }
    }
    best
}

/// Scalable `β`-smooth **upper bound** on the local sensitivity of the triangle count, based on
/// the relaxation `c_ij(s) ≤ min(LS_Δ(G) + s, n − 2)`.
///
/// The returned value `S` satisfies both requirements of Theorem 4.8 — `S ≥ LS_Δ(G)` and
/// `S(G) ≤ e^β S(G')` for edge-neighbouring graphs — so using it in place of the exact smooth
/// sensitivity preserves `(ε, δ)`-differential privacy and only costs some extra noise.
///
/// The local-sensitivity kernel runs on `exec`'s compute threads (see
/// [`triangle_local_sensitivity`]); the closed-form maximisation over `s` happens once on the
/// calling thread. Identical for any thread count.
///
/// # Panics
/// Panics if `beta <= 0`.
pub fn smooth_sensitivity_triangles(g: &Graph, beta: f64, exec: &Executor) -> f64 {
    smooth_upper_bound(triangle_local_sensitivity(g, exec), g.node_count(), beta)
}

/// The scalable bound `max_{s ≥ 0} e^{−βs} min(ls + s, n − 2)` for local sensitivity `ls` on
/// `n` nodes, in closed form; 0 for graphs with fewer than 3 nodes.
///
/// # Panics
/// Panics if `beta <= 0`.
fn smooth_upper_bound(ls: usize, n: usize, beta: f64) -> f64 {
    assert!(beta > 0.0, "beta must be positive");
    if n < 3 {
        return 0.0;
    }
    let cap = (n - 2) as f64;
    let ls = ls as f64;
    // Maximise e^{-beta s} * min(ls + s, cap) over integer s >= 0. The unconstrained maximiser
    // of e^{-beta s}(ls + s) is s* = 1/beta - ls; check the integers around it and the
    // saturation point.
    let mut candidates = vec![0.0f64, (cap - ls).max(0.0)];
    let unconstrained = (1.0 / beta - ls).max(0.0);
    candidates.push(unconstrained.floor());
    candidates.push(unconstrained.ceil());
    let mut best = 0.0f64;
    for s in candidates {
        let c = (ls + s).min(cap);
        best = best.max((-beta * s).exp() * c);
    }
    best
}

/// The output of the `(ε, δ)` private triangle-count mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivateTriangleCount {
    /// The released (noisy) triangle count. May be negative for very small graphs/budgets;
    /// consumers that need a non-negative count should clamp.
    pub value: f64,
    /// The exact triangle count — **never serialized** (redacted block below); retained in
    /// memory for experiment bookkeeping only. Parsed values hold `NAN` here.
    pub exact: f64,
    /// The smooth-sensitivity value used to scale the noise.
    pub smooth_sensitivity: f64,
    /// The smoothing parameter `β = ε / (2 ln(2/δ))`.
    pub beta: f64,
    /// The privacy guarantee spent producing this release.
    pub params: PrivacyParams,
}

impl_json_struct_redacted!(PrivateTriangleCount {
    released: { value, smooth_sensitivity, beta, params },
    redacted: { exact: f64::NAN },
});

/// Releases an `(ε, δ)`-differentially private triangle count of `g` using the smooth-sensitivity
/// mechanism (Theorem 4.8): `Δ̃ = Δ + (2·SS_β/ε)·Lap(1)` with `β = ε / (2 ln(2/δ))`.
///
/// When `exact` is true the exact (cubic) smooth sensitivity is used; otherwise the scalable
/// upper bound is used (the default in Algorithm 1 runs on graphs with thousands of nodes).
///
/// The triangle-count and sensitivity kernels run on `exec`'s compute threads. The graph is
/// relabelled by degree once ([`DegreeOrdered`]), and that one relabelling feeds both the
/// local-sensitivity scan and the exact count. All parallel reductions are exact, and the
/// single Laplace draw happens on the calling thread, so the release is byte-identical for any
/// thread count given the same RNG state. A graph with fewer than 3 nodes has no triangles and
/// releases smooth sensitivity 0 and count 0.
///
/// # Panics
/// Panics if `params.delta == 0` (pure DP is impossible for smooth-sensitivity noise with
/// Laplace tails).
// lint:sanitizer
pub fn private_triangle_count<R: Rng + ?Sized>(
    g: &Graph,
    params: PrivacyParams,
    exact: bool,
    rng: &mut R,
    exec: &Executor,
) -> PrivateTriangleCount {
    assert!(params.delta > 0.0, "the smooth-sensitivity triangle release requires delta > 0");
    let beta = params.epsilon / (2.0 * (2.0 / params.delta).ln());
    let (ss, ordered) = {
        let _span = kronpriv_obs::stage_span("smooth_sensitivity");
        let ordered = DegreeOrdered::new(g);
        let ss = if exact {
            smooth_sensitivity_triangles_exact(g, beta, exec)
        } else {
            smooth_upper_bound(ordered.max_common_neighbors(exec), g.node_count(), beta)
        };
        (ss, ordered)
    };
    let exact_count = {
        let _span = kronpriv_obs::stage_span("triangle_count");
        ordered.triangle_count(exec) as f64
    };
    let noise = LaplaceNoise::new(1.0);
    let value = exact_count + 2.0 * ss / params.epsilon * noise.sample(rng);
    PrivateTriangleCount { value, exact: exact_count, smooth_sensitivity: ss, beta, params }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kronpriv_graph::counts::max_common_neighbors;
    use kronpriv_graph::generators::{erdos_renyi_gnp, preferential_attachment};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn seq() -> Executor {
        Executor::sequential()
    }

    fn complete_graph(n: usize) -> Graph {
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                edges.push((u, v));
            }
        }
        Graph::from_edges(n, edges)
    }

    #[test]
    fn local_sensitivity_of_complete_graph_is_n_minus_two() {
        assert_eq!(triangle_local_sensitivity(&complete_graph(7), &seq()), 5);
    }

    #[test]
    fn local_sensitivity_of_triangle_free_graph() {
        // A star has exactly one common neighbour (the hub) for every pair of leaves.
        let star = Graph::from_edges(6, (1..6u32).map(|v| (0, v)));
        assert_eq!(triangle_local_sensitivity(&star, &seq()), 1);
        // A single edge has no common neighbours anywhere.
        let edge = Graph::from_edges(2, vec![(0, 1)]);
        assert_eq!(triangle_local_sensitivity(&edge, &seq()), 0);
    }

    #[test]
    fn fast_local_sensitivity_matches_quadratic_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        for seed in 0..5 {
            let g = erdos_renyi_gnp(40, 0.1 + 0.05 * seed as f64, &mut rng);
            assert_eq!(
                triangle_local_sensitivity(&g, &seq()),
                max_common_neighbors(&g),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn star_of_stars_matches_quadratic_reference() {
        // A hub adjacent to 15 mid-tier nodes and all of their leaves (6 each): the pair
        // (hub, mid_i) shares mid_i's leaves, so the local sensitivity is exactly 6. Small
        // enough (hub degree 105) for the O(n²) reference; the hub-heavy scale regression —
        // where the old wedge-pair HashMap blew up quadratically — is pinned end to end in
        // tests/parallel_consistency.rs.
        let (mids, leaves) = (15u32, 6u32);
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
        let g = Graph::from_edges(1 + mids as usize + (mids * leaves) as usize, edges);
        assert_eq!(triangle_local_sensitivity(&g, &seq()), leaves as usize);
        assert_eq!(triangle_local_sensitivity(&g, &seq()), max_common_neighbors(&g));
    }

    #[test]
    fn parallel_sensitivity_kernels_are_bit_identical_across_thread_counts() {
        // 400 nodes ⇒ 7 exact-kernel chunks: enough that the exact kernel genuinely spawns
        // threads (the local-sensitivity scan's parallel path is exercised at scale in
        // tests/parallel_consistency.rs) while the O(n²·n) exact scan stays debug-build fast.
        let mut rng = StdRng::seed_from_u64(0x9A_7001);
        let g = preferential_attachment(400, 4, &mut rng);
        let beta = 0.05;
        let ls = triangle_local_sensitivity(&g, &seq());
        let ss = smooth_sensitivity_triangles(&g, beta, &seq());
        let ss_exact = smooth_sensitivity_triangles_exact(&g, beta, &seq());
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            assert_eq!(triangle_local_sensitivity(&g, &exec), ls, "threads {threads}");
            assert_eq!(
                smooth_sensitivity_triangles(&g, beta, &exec).to_bits(),
                ss.to_bits(),
                "threads {threads}"
            );
            assert_eq!(
                smooth_sensitivity_triangles_exact(&g, beta, &exec).to_bits(),
                ss_exact.to_bits(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn local_sensitivity_at_distance_zero_is_plain_local_sensitivity() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = erdos_renyi_gnp(30, 0.15, &mut rng);
        assert_eq!(local_sensitivity_at_distance(&g, 0), triangle_local_sensitivity(&g, &seq()));
    }

    #[test]
    fn local_sensitivity_at_distance_is_monotone_and_capped() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = erdos_renyi_gnp(25, 0.2, &mut rng);
        let n = g.node_count();
        let mut prev = 0;
        for s in 0..60 {
            let a = local_sensitivity_at_distance(&g, s);
            assert!(a >= prev, "A(s) must be non-decreasing");
            assert!(a <= n - 2);
            prev = a;
        }
        assert_eq!(local_sensitivity_at_distance(&g, 10 * n), n - 2);
    }

    #[test]
    fn smooth_sensitivity_is_at_least_local_sensitivity() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = erdos_renyi_gnp(30, 0.2, &mut rng);
        let ls = triangle_local_sensitivity(&g, &seq()) as f64;
        for beta in [0.01, 0.05, 0.2, 1.0] {
            assert!(smooth_sensitivity_triangles_exact(&g, beta, &seq()) >= ls);
            assert!(smooth_sensitivity_triangles(&g, beta, &seq()) >= ls);
        }
    }

    #[test]
    fn fast_bound_dominates_exact_smooth_sensitivity() {
        let mut rng = StdRng::seed_from_u64(5);
        for seed in 0..4 {
            let g = erdos_renyi_gnp(35, 0.1 + 0.05 * seed as f64, &mut rng);
            for beta in [0.02, 0.1, 0.5] {
                let exact = smooth_sensitivity_triangles_exact(&g, beta, &seq());
                let fast = smooth_sensitivity_triangles(&g, beta, &seq());
                assert!(
                    fast >= exact - 1e-9,
                    "fast bound {fast} must dominate exact {exact} (beta {beta})"
                );
                // And it should not be wildly loose on these graphs (within the distance-s cap
                // the two differ only by the floor and the b_ij term).
                assert!(fast <= 2.5 * exact + 2.0, "fast {fast} vs exact {exact}");
            }
        }
    }

    #[test]
    fn exact_smooth_sensitivity_is_beta_smooth_across_neighbors() {
        // Definition 4.7's key property: SS(G) <= e^beta * SS(G') for any edge-neighbour G'.
        let mut rng = StdRng::seed_from_u64(6);
        let g = erdos_renyi_gnp(18, 0.25, &mut rng);
        let beta = 0.3;
        let base = smooth_sensitivity_triangles_exact(&g, beta, &seq());
        // Check a handful of neighbours in both directions.
        for &(u, v) in g.edges().iter().take(5) {
            let neighbor = g.with_edge_removed(u, v);
            let other = smooth_sensitivity_triangles_exact(&neighbor, beta, &seq());
            assert!(base <= beta.exp() * other + 1e-9);
            assert!(other <= beta.exp() * base + 1e-9);
        }
        let added = g.with_edge_added(0, 1).with_edge_added(2, 3);
        // Two edges away: allow e^{2 beta}.
        let other = smooth_sensitivity_triangles_exact(&added, beta, &seq());
        assert!(other <= (2.0 * beta).exp() * base + 1e-9);
    }

    #[test]
    fn fast_bound_is_beta_smooth_across_neighbors() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = preferential_attachment(60, 3, &mut rng);
        let beta = 0.2;
        let base = smooth_sensitivity_triangles(&g, beta, &seq());
        for &(u, v) in g.edges().iter().take(8) {
            let neighbor = g.with_edge_removed(u, v);
            let other = smooth_sensitivity_triangles(&neighbor, beta, &seq());
            assert!(base <= beta.exp() * other + 1e-9, "{base} vs {other}");
            assert!(other <= beta.exp() * base + 1e-9, "{other} vs {base}");
        }
    }

    #[test]
    fn smooth_sensitivity_grows_as_beta_shrinks() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = erdos_renyi_gnp(30, 0.2, &mut rng);
        let tight = smooth_sensitivity_triangles_exact(&g, 1.0, &seq());
        let loose = smooth_sensitivity_triangles_exact(&g, 0.01, &seq());
        assert!(loose >= tight);
    }

    #[test]
    fn empty_and_tiny_graphs_have_zero_smooth_sensitivity() {
        assert_eq!(smooth_sensitivity_triangles(&Graph::empty(2), 0.1, &seq()), 0.0);
        assert_eq!(smooth_sensitivity_triangles_exact(&Graph::empty(1), 0.1, &seq()), 0.0);
    }

    #[test]
    fn private_triangle_count_on_fewer_than_three_nodes_releases_zero() {
        // No triangles are possible, so both paths release sensitivity 0 and count 0 (the
        // zero-scaled Laplace draw adds nothing) instead of panicking.
        let tiny =
            [Graph::empty(0), Graph::empty(1), Graph::empty(2), Graph::from_edges(2, [(0, 1)])];
        for g in &tiny {
            for exact in [false, true] {
                let mut rng = StdRng::seed_from_u64(14);
                let rel = private_triangle_count(
                    g,
                    PrivacyParams::new(0.5, 0.01),
                    exact,
                    &mut rng,
                    &seq(),
                );
                let n = g.node_count();
                assert_eq!(rel.smooth_sensitivity, 0.0, "n {n}, exact {exact}");
                assert_eq!(rel.exact, 0.0, "n {n}, exact {exact}");
                assert_eq!(rel.value, 0.0, "n {n}, exact {exact}");
            }
        }
    }

    #[test]
    fn private_triangle_count_records_budget_and_beta() {
        let g = complete_graph(10);
        let mut rng = StdRng::seed_from_u64(9);
        let params = PrivacyParams::new(0.1, 0.01);
        let rel = private_triangle_count(&g, params, true, &mut rng, &seq());
        assert_eq!(rel.params, params);
        let expected_beta = 0.1 / (2.0 * (2.0 / 0.01f64).ln());
        assert!((rel.beta - expected_beta).abs() < 1e-12);
        assert_eq!(rel.exact, 120.0);
    }

    #[test]
    fn private_triangle_count_is_accurate_with_large_budget() {
        let g = complete_graph(12);
        let mut rng = StdRng::seed_from_u64(10);
        let rel =
            private_triangle_count(&g, PrivacyParams::new(100.0, 0.01), true, &mut rng, &seq());
        assert!((rel.value - 220.0).abs() < 5.0, "value {}", rel.value);
    }

    #[test]
    fn private_triangle_count_noise_scales_with_smooth_sensitivity() {
        // Empirically compare the spread of the release on a high-sensitivity graph (complete)
        // versus a low-sensitivity graph (star) under the same budget.
        let dense = complete_graph(20);
        let sparse = Graph::from_edges(20, (1..20u32).map(|v| (0, v)));
        let params = PrivacyParams::new(0.5, 0.01);
        let reps = 200;
        let spread = |g: &Graph, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let vals: Vec<f64> = (0..reps)
                .map(|_| {
                    let r = private_triangle_count(g, params, true, &mut rng, &seq());
                    r.value - r.exact
                })
                .collect();
            vals.iter().map(|v| v.abs()).sum::<f64>() / reps as f64
        };
        assert!(spread(&dense, 11) > spread(&sparse, 12));
    }

    #[test]
    #[should_panic(expected = "delta > 0")]
    fn pure_dp_budget_is_rejected() {
        let g = complete_graph(5);
        let mut rng = StdRng::seed_from_u64(13);
        let _ = private_triangle_count(&g, PrivacyParams::pure(0.5), true, &mut rng, &seq());
    }

    // Former proptest property (16 cases), now a deterministic seeded loop.
    #[test]
    fn smooth_sensitivity_invariants_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(0x53_7001);
        for _ in 0..16 {
            let len = rng.gen_range(0..60usize);
            let edges: Vec<(u32, u32)> =
                (0..len).map(|_| (rng.gen_range(0..15u32), rng.gen_range(0..15u32))).collect();
            let beta = rng.gen_range(0.05..1.0);
            let g = Graph::from_edges(15, edges);
            let ls = triangle_local_sensitivity(&g, &seq()) as f64;
            let exact = smooth_sensitivity_triangles_exact(&g, beta, &seq());
            let fast = smooth_sensitivity_triangles(&g, beta, &seq());
            assert!(exact + 1e-9 >= ls);
            assert!(fast + 1e-9 >= exact);
            assert!(exact <= 13.0 + 1e-9); // never exceeds n - 2
        }
    }
}
