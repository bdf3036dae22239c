//! Hop plots (Figures 1–4(a)): the number of reachable ordered node pairs within `h` hops, as a
//! function of `h`.
//!
//! Two estimators are available: the exact all-sources BFS
//! ([`reachable_pairs_by_hops`](kronpriv_graph::traversal::reachable_pairs_by_hops), quadratic
//! in nodes × edges, fine for the paper's graph sizes) and the approximate neighbourhood
//! function (ANF) of Palmer et al., which uses Flajolet–Martin-style bit-string sketches and
//! runs in `O((N + E)·h·r)` for `r` sketch repetitions. The approximate variant exists so the
//! library remains usable on graphs well beyond the paper's scale; tests check it tracks the
//! exact curve.

use kronpriv_graph::Graph;
use kronpriv_json::impl_json_struct;
use kronpriv_par::{Executor, Work};
use rand::Rng;

/// Cost hint for propagating one FM sketch layer by one hop: an `O(nodes + edges)` pass of
/// cheap bitwise ORs, estimated from the graph shape alone.
fn sketch_work(g: &Graph) -> Work {
    Work::per_item_ns(g.node_count() as u64 + 2 * g.edge_count() as u64)
}

/// Options for [`approximate_hop_plot`].
#[derive(Debug, Clone, Copy)]
pub struct HopPlotOptions {
    /// Number of independent Flajolet–Martin sketches to average (more = less variance).
    pub sketches: usize,
    /// Maximum number of hops to expand (the curve is truncated once it saturates anyway).
    pub max_hops: usize,
}

impl_json_struct!(HopPlotOptions { sketches, max_hops });

impl Default for HopPlotOptions {
    fn default() -> Self {
        HopPlotOptions { sketches: 32, max_hops: 32 }
    }
}

/// Approximate hop plot using Flajolet–Martin neighbourhood sketches.
///
/// Each node keeps a bitmask per sketch; the position of the lowest zero bit estimates the
/// neighbourhood size as in the classic ANF algorithm. Estimates are averaged over
/// `options.sketches` independent sketches.
///
/// The per-hop mask propagation runs on `exec`'s worker pool, sketch-parallel: each sketch's
/// bitmask layer propagates independently (a pure function of the previous hop's layers), and
/// the layers are collected in sketch order. Mask initialisation consumes the RNG in the same
/// sequential order regardless of the thread count, so the curve is byte-identical for any
/// [`Executor`].
pub fn approximate_hop_plot<R: Rng + ?Sized>(
    g: &Graph,
    options: &HopPlotOptions,
    rng: &mut R,
    exec: &Executor,
) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let sketches = options.sketches.max(1);
    const BITS: usize = 64;
    // masks[s][v]: the FM bitmask of node v in sketch s.
    let mut masks: Vec<Vec<u64>> = Vec::with_capacity(sketches);
    for _ in 0..sketches {
        let mut layer = Vec::with_capacity(n);
        for _ in 0..n {
            layer.push(1u64 << geometric_bit(rng, BITS));
        }
        masks.push(layer);
    }

    // Correction constant of the Flajolet–Martin estimator.
    const PHI: f64 = 0.77351;
    let estimate_total = |masks: &Vec<Vec<u64>>| -> f64 {
        // Sum over nodes of the per-node neighbourhood-size estimate, averaging the lowest zero
        // bit position across sketches before exponentiating (the standard ANF averaging).
        (0..n)
            .map(|v| {
                let mean_bit: f64 =
                    masks.iter().map(|layer| lowest_zero_bit(layer[v]) as f64).sum::<f64>()
                        / sketches as f64;
                2f64.powf(mean_bit) / PHI
            })
            .sum()
    };

    let mut curve = vec![n as f64];
    let mut previous_total = n as f64;
    for _hop in 1..=options.max_hops {
        // Propagate: every node ORs in its neighbours' masks. Each sketch layer is a pure
        // function of the previous hop's layer, so the sketches fan out across threads; the
        // chunk-order reduction reassembles them in sketch order.
        masks = exec.map_reduce(
            sketches,
            1,
            sketch_work(g),
            |sketch_range| {
                sketch_range
                    .map(|s| {
                        let previous = &masks[s];
                        (0..n)
                            .map(|v| {
                                let mut acc = previous[v];
                                for &w in g.neighbors(v as u32) {
                                    acc |= previous[w as usize];
                                }
                                acc
                            })
                            .collect::<Vec<u64>>()
                    })
                    .collect::<Vec<Vec<u64>>>()
            },
            |mut acc: Vec<Vec<u64>>, chunk| {
                acc.extend(chunk);
                acc
            },
            Vec::with_capacity(sketches),
        );
        let total = estimate_total(&masks).max(previous_total);
        curve.push(total);
        // Stop once the curve has saturated (no growth beyond numerical noise).
        if (total - previous_total) / previous_total.max(1.0) < 1e-4 {
            break;
        }
        previous_total = total;
    }
    curve
}

/// Samples a geometric "first one bit" position as in Flajolet–Martin: bit `i` with probability
/// `2^-(i+1)`, capped at `max_bits - 1`.
fn geometric_bit<R: Rng + ?Sized>(rng: &mut R, max_bits: usize) -> u32 {
    let mut bit = 0u32;
    while bit + 1 < max_bits as u32 && rng.gen::<bool>() {
        bit += 1;
    }
    bit
}

/// Position of the lowest zero bit of the mask (the FM size statistic).
fn lowest_zero_bit(mask: u64) -> u32 {
    (!mask).trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kronpriv_graph::generators::erdos_renyi_gnp;
    use kronpriv_graph::traversal::reachable_pairs_by_hops;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_hop_plot_of_a_path() {
        let g = Graph::from_edges(4, (0..3u32).map(|i| (i, i + 1)));
        assert_eq!(reachable_pairs_by_hops(&g, &Executor::sequential()), vec![4, 10, 14, 16]);
    }

    #[test]
    fn exact_hop_plot_saturates_at_n_squared_for_connected_graphs() {
        let g = Graph::from_edges(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert_eq!(*reachable_pairs_by_hops(&g, &Executor::sequential()).last().unwrap(), 36);
    }

    #[test]
    fn fm_bit_helpers_behave() {
        assert_eq!(lowest_zero_bit(0b0), 0);
        assert_eq!(lowest_zero_bit(0b1), 1);
        assert_eq!(lowest_zero_bit(0b1011), 2);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(geometric_bit(&mut rng, 8) < 8);
        }
    }

    #[test]
    fn approximate_curve_starts_at_node_count_and_is_monotone() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = erdos_renyi_gnp(200, 0.03, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(3);
        let curve = approximate_hop_plot(
            &g,
            &HopPlotOptions::default(),
            &mut rng2,
            &Executor::sequential(),
        );
        assert_eq!(curve[0], 200.0);
        assert!(curve.windows(2).all(|w| w[0] <= w[1] + 1e-9));
    }

    #[test]
    fn approximate_tracks_exact_on_a_random_graph() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = erdos_renyi_gnp(300, 0.02, &mut rng);
        let exact = reachable_pairs_by_hops(&g, &Executor::sequential());
        let mut rng2 = StdRng::seed_from_u64(5);
        let approx = approximate_hop_plot(
            &g,
            &HopPlotOptions { sketches: 64, max_hops: 32 },
            &mut rng2,
            &Executor::sequential(),
        );
        // Compare the saturation levels (total reachable pairs): the FM estimate should land
        // within ~25% of the truth with 64 sketches.
        let exact_total = *exact.last().unwrap() as f64;
        let approx_total = *approx.last().unwrap();
        let rel = (approx_total - exact_total).abs() / exact_total;
        assert!(rel < 0.25, "approx {approx_total} vs exact {exact_total} (rel {rel})");
        // And the hop at which the curve reaches 90% of saturation should agree to within 1.
        let hop90 = |curve: &[f64], total: f64| {
            curve.iter().position(|&v| v >= 0.9 * total).unwrap_or(curve.len()) as i64
        };
        let exact_f: Vec<f64> = exact.iter().map(|&v| v as f64).collect();
        let gap = (hop90(&exact_f, exact_total) - hop90(&approx, approx_total)).abs();
        assert!(gap <= 1, "90% hop differs by {gap}");
    }

    #[test]
    fn empty_graph_produces_empty_curve() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!(approximate_hop_plot(
            &Graph::empty(0),
            &HopPlotOptions::default(),
            &mut rng,
            &Executor::sequential()
        )
        .is_empty());
    }

    #[test]
    fn disconnected_graph_saturates_below_n_squared() {
        let g = Graph::from_edges(6, vec![(0, 1), (1, 2), (3, 4), (4, 5)]);
        let exact = reachable_pairs_by_hops(&g, &Executor::sequential());
        assert_eq!(*exact.last().unwrap(), 18); // two components of 3 nodes: 2 * 9
    }

    #[test]
    fn approximate_is_reproducible_with_a_seed() {
        let g = Graph::from_edges(10, (0..9u32).map(|i| (i, i + 1)));
        let a = approximate_hop_plot(
            &g,
            &HopPlotOptions::default(),
            &mut StdRng::seed_from_u64(7),
            &Executor::sequential(),
        );
        let b = approximate_hop_plot(
            &g,
            &HopPlotOptions::default(),
            &mut StdRng::seed_from_u64(7),
            &Executor::sequential(),
        );
        assert_eq!(a, b);
    }
}
