//! Realizing graphs from the stochastic Kronecker model.
//!
//! Definition 3.4: the order-`k` probability matrix `P = Θ^[k]` is realized by including each
//! edge independently with its probability; Section 3.2 then removes self-loops and symmetrises.
//! For a *symmetric* initiator the symmetrisation rule of the paper (keep the lower-triangular
//! directed entries) is equivalent to flipping one coin per unordered pair `{u, v}` with bias
//! `P_{uv}`, which is what both samplers here do.
//!
//! Two samplers are provided:
//!
//! * [`sample_exact`] — visits all `C(2^k, 2)` pairs. Exact but `O(4^k)`; used for small `k`
//!   (tests, Monte-Carlo validation of the closed-form moments).
//! * [`sample_fast`] — the standard "edge placement" generator used by Leskovec et al.'s
//!   `krongen`: it draws an edge count around the expectation (a normal approximation to
//!   Poisson) and places each edge by descending the `k` levels of Kronecker recursion,
//!   choosing a quadrant at each level with probability proportional to the initiator
//!   entries. Duplicates and self-loops are rejected.
//!   Runtime is `O(E · k)`, which is what makes the `2^14`-node experiments practical. The
//!   per-pair marginals are approximately — not exactly — Bernoulli(`P_{uv}`); tests check that
//!   its aggregate statistics agree with the exact sampler and the closed-form moments.
//!
//! `sample_fast` is specified as a sequential rejection loop — place one edge, keep it if it is
//! new, stop at the target count or after `20 · max(target, 16)` attempts — but runs as a bulk
//! placement round plus a sequential top-up ([`Graph::from_distinct_draws`]). The bulk round
//! places exactly `target` edges (the loop can never stop sooner, since each placement adds at
//! most one distinct edge) and sort-dedups them; the top-up then continues one placement at a
//! time until the loop's own stopping point.
//!
//! The bulk round runs on the executor in fixed chunks of `PLACE_CHUNK` placements. Every
//! placement consumes exactly `k` draws, so chunk `c` starts exactly `c · PLACE_CHUNK · k` draws
//! after the round's entry state: it clones the entry generator and jumps the clone there with
//! [`StdRng::advance`], an exact jump-ahead. The chunks' pairs, concatenated in chunk order, are
//! then the very list the one-at-a-time loop would place, and the caller's generator is jumped
//! past the whole round before the top-up continues from it. So the graph, and the caller's
//! next draw, are the sequential loop's byte for byte for every thread count; a test pins this
//! against the sequential `BTreeSet` reference on executors of 1, 2 and 8 threads.

use crate::initiator::Initiator2;
use crate::moments::expected_edges;
use kronpriv_graph::{Graph, GraphBuilder};
use kronpriv_par::{Executor, Work};
use rand::rngs::StdRng;
use rand::Rng;

/// Placements per chunk of the bulk round: a constant, so the chunk boundaries — and the draws
/// each chunk consumes — never depend on the thread count.
const PLACE_CHUNK: usize = 16_384;

/// Estimated nanoseconds per recursion level of one placement (a draw, three compares, two
/// shifts); a placement costs `k` of them. Steers only the executor's sequential cutoff.
const PLACE_LEVEL_NS: u64 = 5;

/// Exact realization of the order-`k` stochastic Kronecker graph: one independent coin per
/// unordered node pair.
///
/// # Panics
/// Panics if `k > 13` (the pair loop would exceed ~33M iterations; use [`sample_fast`]).
pub fn sample_exact<R: Rng + ?Sized>(theta: &Initiator2, k: u32, rng: &mut R) -> Graph {
    assert!(k <= 13, "sample_exact is quadratic in node count; use sample_fast for k > 13");
    let n = theta.node_count(k);
    let mut builder = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let p = theta.edge_probability(k, u, v);
            if p > 0.0 && rng.gen::<f64>() < p {
                builder.add_edge(u as u32, v as u32);
            }
        }
    }
    builder.build()
}

/// Fast realization of the order-`k` stochastic Kronecker graph by recursive edge placement.
/// The bulk placement round runs on `exec` (see the module docs); the graph and the state `rng`
/// is left in are the same for every thread count.
pub fn sample_fast(theta: &Initiator2, k: u32, rng: &mut StdRng, exec: &Executor) -> Graph {
    let n = theta.node_count(k);
    let expected = expected_edges(theta, k).max(0.0);
    // Normal approximation to Poisson(expected); adequate for the graph sizes involved.
    let target = (expected + expected.sqrt() * standard_normal(rng)).round().max(0.0) as usize;
    let target = target.min(n * n.saturating_sub(1) / 2);

    let thresholds = quadrant_thresholds(theta);
    // Cap the total number of attempts so adversarial parameters (e.g. all mass on the
    // diagonal, which only produces rejected self-loops) cannot loop forever.
    let max_attempts = target.max(16) * 20;
    let place = |rng: &mut StdRng| {
        let (u, v) = place_edge(&thresholds, k, rng);
        (u as u32, v as u32)
    };

    let draws_per_placement = u64::from(k);
    let entry = rng.clone();
    let pairs = exec.map_reduce(
        target,
        PLACE_CHUNK,
        Work::per_item_ns(PLACE_LEVEL_NS * draws_per_placement),
        |placements| {
            let mut chunk_rng = entry.clone();
            chunk_rng.advance(placements.start as u64 * draws_per_placement);
            placements.map(|_| place(&mut chunk_rng)).collect::<Vec<_>>()
        },
        |mut pairs: Vec<(u32, u32)>, chunk| {
            pairs.extend(chunk);
            pairs
        },
        Vec::with_capacity(target),
    );
    rng.advance(target as u64 * draws_per_placement);
    Graph::from_distinct_draws(n, target, max_attempts, pairs, || place(rng))
}

/// Cumulative quadrant thresholds `[a, a+b, a+2b] / (a+2b+c)` used for the recursive descent.
fn quadrant_thresholds(theta: &Initiator2) -> [f64; 3] {
    let total = theta.entry_sum();
    if total <= 0.0 {
        // Degenerate all-zero initiator: thresholds never get used because the expected edge
        // count is zero, but keep them well-formed.
        return [0.25, 0.5, 0.75];
    }
    [theta.a / total, (theta.a + theta.b) / total, (theta.a + 2.0 * theta.b) / total]
}

/// Descends `k` levels of the Kronecker recursion, picking one of the four initiator quadrants
/// at each level, and returns the resulting ordered pair `(u, v)`.
///
/// Quadrants in row-major order are `(0,0) = a`, `(0,1) = b`, `(1,0) = b`, `(1,1) = c`, chosen
/// by the first threshold `r` falls below. With the threshold bits `g_i = (r >= t_i)` — monotone,
/// so `g0 >= g1 >= g2` — that choice is branch-free: `du = g1` and `dv = g0 ^ g1 ^ g2`
/// (`000 → (0,0)`, `100 → (0,1)`, `110 → (1,0)`, `111 → (1,1)`), including `r` equal to a
/// threshold and coinciding thresholds when `b = 0`.
fn place_edge<R: Rng + ?Sized>(thresholds: &[f64; 3], k: u32, rng: &mut R) -> (usize, usize) {
    let mut u = 0usize;
    let mut v = 0usize;
    for _ in 0..k {
        let (du, dv) = quadrant(thresholds, rng.gen());
        u = (u << 1) | du;
        v = (v << 1) | dv;
    }
    (u, v)
}

/// The quadrant `(du, dv)` one level of [`place_edge`] picks for the uniform draw `r`.
fn quadrant(thresholds: &[f64; 3], r: f64) -> (usize, usize) {
    let g0 = usize::from(r >= thresholds[0]);
    let g1 = usize::from(r >= thresholds[1]);
    let g2 = usize::from(r >= thresholds[2]);
    (g1, g0 ^ g1 ^ g2)
}

/// Samples a standard normal via Box–Muller. Kept private: only the edge-count jitter needs it.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moments::ExpectedMoments;
    use kronpriv_graph::MatchingStatistics;
    use rand::{RngCore, SeedableRng};
    use std::collections::BTreeSet;

    #[test]
    fn exact_sampler_respects_node_count() {
        let theta = Initiator2::new(0.9, 0.5, 0.3);
        let mut rng = StdRng::seed_from_u64(1);
        let g = sample_exact(&theta, 6, &mut rng);
        assert_eq!(g.node_count(), 64);
    }

    #[test]
    fn exact_sampler_with_all_ones_gives_complete_graph() {
        let theta = Initiator2::new(1.0, 1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let g = sample_exact(&theta, 4, &mut rng);
        assert_eq!(g.edge_count(), 16 * 15 / 2);
    }

    #[test]
    fn exact_sampler_with_identity_initiator_gives_empty_graph() {
        let theta = Initiator2::new(1.0, 0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let g = sample_exact(&theta, 6, &mut rng);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn exact_sampler_edge_count_tracks_expectation() {
        let theta = Initiator2::new(0.99, 0.45, 0.25);
        let k = 9;
        let expected = expected_edges(&theta, k);
        let mut rng = StdRng::seed_from_u64(4);
        let mut total = 0.0;
        let reps = 5;
        for _ in 0..reps {
            total += sample_exact(&theta, k, &mut rng).edge_count() as f64;
        }
        let mean = total / reps as f64;
        // Edge count is a sum of independent Bernoullis; 5 reps keep the standard error below
        // ~sqrt(expected/5), allow 6 sigma.
        let sigma = (expected / reps as f64).sqrt();
        assert!((mean - expected).abs() < 6.0 * sigma, "mean {mean} expected {expected}");
    }

    #[test]
    fn monte_carlo_moments_match_closed_forms() {
        // The strongest validation of Equation (1): average the observed (E, H, Δ, T) over many
        // exact realizations of a small graph and compare against the closed forms.
        let theta = Initiator2::new(0.8, 0.5, 0.3);
        let k = 5;
        let reps = 300;
        let mut rng = StdRng::seed_from_u64(5);
        let mut sums = [0.0f64; 4];
        for _ in 0..reps {
            let g = sample_exact(&theta, k, &mut rng);
            let s = MatchingStatistics::of_graph(&g).as_array();
            for i in 0..4 {
                sums[i] += s[i];
            }
        }
        let means: Vec<f64> = sums.iter().map(|s| s / reps as f64).collect();
        let expected = ExpectedMoments::of(&theta, k).as_array();
        for i in 0..4 {
            let rel = (means[i] - expected[i]).abs() / expected[i].max(1.0);
            assert!(
                rel < 0.1,
                "moment {i}: monte-carlo {} vs closed form {} (rel {rel})",
                means[i],
                expected[i]
            );
        }
    }

    #[test]
    fn fast_sampler_produces_requested_size() {
        let theta = Initiator2::new(0.99, 0.45, 0.25);
        let mut rng = StdRng::seed_from_u64(6);
        let g = sample_fast(&theta, 12, &mut rng, &Executor::sequential());
        assert_eq!(g.node_count(), 4096);
        let expected = expected_edges(&theta, 12);
        let observed = g.edge_count() as f64;
        // Duplicate rejections make the fast sampler land slightly under the target; allow 15%.
        assert!(
            (observed - expected).abs() / expected < 0.15,
            "observed {observed} expected {expected}"
        );
    }

    #[test]
    fn fast_sampler_is_reproducible_with_a_seed() {
        let theta = Initiator2::new(0.9, 0.6, 0.2);
        let g1 = sample_fast(&theta, 10, &mut StdRng::seed_from_u64(7), &Executor::sequential());
        let g2 = sample_fast(&theta, 10, &mut StdRng::seed_from_u64(7), &Executor::sequential());
        assert_eq!(g1, g2);
    }

    #[test]
    fn fast_sampler_handles_zero_initiator() {
        let theta = Initiator2::new(0.0, 0.0, 0.0);
        let mut rng = StdRng::seed_from_u64(8);
        let g = sample_fast(&theta, 8, &mut rng, &Executor::sequential());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn fast_sampler_handles_diagonal_only_initiator_without_hanging() {
        // All probability mass on loops: every placement is rejected; the attempt cap must stop
        // the loop and return a (nearly) empty graph.
        let theta = Initiator2::new(1.0, 0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(9);
        let g = sample_fast(&theta, 8, &mut rng, &Executor::sequential());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn fast_and_exact_samplers_agree_on_degree_statistics() {
        // Compare average degree and wedge counts of the two samplers on a mid-sized graph.
        let theta = Initiator2::new(0.95, 0.55, 0.25);
        let k = 9;
        let reps = 4;
        let mut rng = StdRng::seed_from_u64(10);
        let mut exact_edges = 0.0;
        let mut fast_edges = 0.0;
        let mut exact_wedges = 0.0;
        let mut fast_wedges = 0.0;
        for _ in 0..reps {
            let ge = sample_exact(&theta, k, &mut rng);
            let gf = sample_fast(&theta, k, &mut rng, &Executor::sequential());
            let se = MatchingStatistics::of_graph(&ge);
            let sf = MatchingStatistics::of_graph(&gf);
            exact_edges += se.edges;
            fast_edges += sf.edges;
            exact_wedges += se.hairpins;
            fast_wedges += sf.hairpins;
        }
        assert!(
            (exact_edges - fast_edges).abs() / exact_edges < 0.2,
            "edges: exact {exact_edges} fast {fast_edges}"
        );
        assert!(
            (exact_wedges - fast_wedges).abs() / exact_wedges < 0.35,
            "wedges: exact {exact_wedges} fast {fast_wedges}"
        );
    }

    #[test]
    fn sampled_graphs_are_simple() {
        let theta = Initiator2::new(0.99, 0.45, 0.25);
        let mut rng = StdRng::seed_from_u64(11);
        let g = sample_fast(&theta, 11, &mut rng, &Executor::sequential());
        for u in g.nodes() {
            assert!(!g.neighbors(u).contains(&u), "self loop at {u}");
        }
        let degree_sum: usize = g.degrees().iter().sum();
        assert_eq!(degree_sum, 2 * g.edge_count());
    }

    /// The pre-bulk `sample_fast`: a sequential rejection loop with one `BTreeSet` insertion per
    /// placement and the four-way branch descent. `sample_fast` must match it byte for byte.
    fn reference_sample_fast<R: Rng + ?Sized>(theta: &Initiator2, k: u32, rng: &mut R) -> Graph {
        let n = theta.node_count(k);
        let expected = expected_edges(theta, k).max(0.0);
        let std = expected.sqrt();
        let target = (expected + std * standard_normal(rng)).round().max(0.0) as usize;
        let target = target.min(n * n.saturating_sub(1) / 2);
        let weights = reference_weights(theta);
        let mut edges = BTreeSet::new();
        let max_attempts = target.max(16) * 20;
        let mut attempts = 0usize;
        while edges.len() < target && attempts < max_attempts {
            attempts += 1;
            let (mut u, mut v) = (0usize, 0usize);
            for _ in 0..k {
                let (du, dv) = reference_quadrant(&weights, rng.gen());
                u = (u << 1) | du;
                v = (v << 1) | dv;
            }
            if u != v {
                edges.insert((u.min(v) as u32, u.max(v) as u32));
            }
        }
        Graph::from_edges(n, edges)
    }

    fn reference_weights(theta: &Initiator2) -> [f64; 4] {
        let total = theta.entry_sum();
        if total <= 0.0 {
            return [0.25, 0.5, 0.75, 1.0];
        }
        [theta.a / total, (theta.a + theta.b) / total, (theta.a + 2.0 * theta.b) / total, 1.0]
    }

    fn reference_quadrant(cumulative: &[f64; 4], r: f64) -> (usize, usize) {
        if r < cumulative[0] {
            (0, 0)
        } else if r < cumulative[1] {
            (0, 1)
        } else if r < cumulative[2] {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    #[test]
    fn fast_sampler_matches_the_sequential_reference_byte_for_byte() {
        // Each case runs on 1, 2 and 8 threads: the graph and the generator's next draw must
        // equal the reference's whichever executor places the bulk round.
        let executors = [Executor::new(1), Executor::new(2), Executor::new(8)];
        let check = |theta: &Initiator2, k: u32, seed: u64| {
            let mut ref_rng = StdRng::seed_from_u64(seed);
            let reference = reference_sample_fast(theta, k, &mut ref_rng);
            let next = ref_rng.next_u64();
            for exec in &executors {
                let mut fast_rng = StdRng::seed_from_u64(seed);
                let fast = sample_fast(theta, k, &mut fast_rng, exec);
                let case = format!("{theta:?} k={k} seed={seed} threads={}", exec.threads());
                assert_eq!(fast, reference, "graph differs: {case}");
                assert_eq!(fast_rng.next_u64(), next, "rng differs: {case}");
            }
            reference
        };
        let initiators = [
            Initiator2::new(0.99, 0.45, 0.25),
            Initiator2::new(0.9, 0.6, 0.2),
            Initiator2::new(0.8, 0.0, 0.3), // b = 0: every placement is a loop
            Initiator2::new(0.8, 1e-3, 0.3),
            Initiator2::new(1.0, 0.5, 0.2), // a = 1
            Initiator2::new(1.0, 0.0, 1.0), // diagonal only
            Initiator2::new(0.0, 0.0, 0.0),
            Initiator2::new(1.0, 1.0, 1.0), // complete graph: a top-up-heavy target
        ];
        for k in [1, 6, 10, 14] {
            let seeds = if k >= 14 { 0..2 } else { 0..12 };
            for theta in &initiators {
                if theta.b == 1.0 && k > 6 {
                    continue; // C(2^k, 2) edges: keep the complete graph small
                }
                for seed in seeds.clone() {
                    check(theta, k, seed);
                }
            }
        }
        // k = 16: a bulk round of at least six chunks, so chunks jump past the second one.
        let reference = check(&initiators[0], 16, 3);
        assert!(reference.edge_count() > 5 * PLACE_CHUNK, "{} edges", reference.edge_count());
    }

    #[test]
    fn branch_free_descent_matches_the_four_way_branch() {
        let initiators = [
            Initiator2::new(0.99, 0.45, 0.25),
            Initiator2::new(0.8, 0.0, 0.3),
            Initiator2::new(1.0, 0.5, 0.2),
            Initiator2::new(1.0, 1.0, 1.0),
            Initiator2::new(0.0, 0.3, 0.0),
            Initiator2::new(0.0, 0.0, 0.0),
        ];
        let mut rng = StdRng::seed_from_u64(0x5a_3f1e);
        for theta in &initiators {
            let thresholds = quadrant_thresholds(theta);
            let weights = reference_weights(theta);
            // 10^5 uniform draws per initiator.
            for _ in 0..100_000 {
                let r: f64 = rng.gen();
                assert_eq!(quadrant(&thresholds, r), reference_quadrant(&weights, r), "r={r}");
            }
            // The exact threshold values and their neighbours, plus the ends of [0, 1).
            let mut probes = vec![0.0, 1.0 - f64::EPSILON / 2.0];
            for t in thresholds {
                probes.extend([t, t.next_down(), t.next_up()]);
            }
            for r in probes {
                assert_eq!(quadrant(&thresholds, r), reference_quadrant(&weights, r), "r={r}");
            }
            // Whole descents consume the same draws.
            let (mut a, mut b) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
            for _ in 0..1_000 {
                let mut reference = (0usize, 0usize);
                for _ in 0..17 {
                    let (du, dv) = reference_quadrant(&weights, b.gen());
                    reference = ((reference.0 << 1) | du, (reference.1 << 1) | dv);
                }
                assert_eq!(place_edge(&thresholds, 17, &mut a), reference);
            }
        }
    }

    #[test]
    #[should_panic(expected = "sample_exact is quadratic")]
    fn exact_sampler_rejects_large_k() {
        let theta = Initiator2::new(0.9, 0.5, 0.1);
        let mut rng = StdRng::seed_from_u64(12);
        let _ = sample_exact(&theta, 14, &mut rng);
    }
}
