//! Self-contained workload inputs.
//!
//! The edge lists come from a generator that owns its RNG (SplitMix64), its Kronecker edge
//! placement and its sort-dedup, instead of `sample_fast`, `GraphBuilder` or the `rand` shim:
//! a change to the program's sampler or RNG must never change what the benchmark feeds it.

use crate::{object, THETA};
use kronpriv_json::Json;
use std::fmt::Write as _;

/// SplitMix64 (Steele, Lea & Flood 2014): a tiny, fixed-stream generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The request seed of op `index` of `client` in a run seeded by `run_seed`. Kept below 2^53
/// so it survives the JSON wire format (numbers are `f64`) exactly.
pub fn op_seed(run_seed: u64, client: u64, index: u64) -> u64 {
    let mut rng = SplitMix64::new(run_seed ^ client.rotate_left(40) ^ index.rotate_left(8));
    rng.next_u64() & ((1u64 << 53) - 1)
}

/// 64-bit FNV-1a, the content hash recorded for every input.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3))
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// One generated edge-list text and the facts recorded about it.
#[derive(Debug)]
pub struct EdgeListInput {
    /// SNAP-style text: one `u\tv` line per undirected edge, sorted, no duplicates or loops.
    pub text: String,
    /// Nodes that carry at least one edge (isolated nodes do not appear in an edge list).
    pub nodes: usize,
    /// Distinct undirected edges.
    pub edges: usize,
    /// FNV-1a of `text`.
    pub hash: u64,
}

impl EdgeListInput {
    /// The facts recorded about this input, for a graph the estimators fit at order `k`.
    pub fn record(&self, k: u32) -> Json {
        object(&[
            ("theta", Json::Array(THETA.iter().map(|&p| Json::Number(p)).collect())),
            ("order", Json::Number(k as f64)),
            ("nodes", Json::Number(self.nodes as f64)),
            ("edges", Json::Number(self.edges as f64)),
            ("bytes", Json::Number(self.text.len() as f64)),
            ("hash", Json::String(format!("{:016x}", self.hash))),
        ])
    }
}

/// A stochastic Kronecker graph of order `k` for the initiator [`THETA`] = `[[a, b], [b, c]]`,
/// placed edge by edge: each edge descends the `k` levels choosing a quadrant with probability
/// proportional to its initiator entry. Batches of the missing edge count are placed, then
/// sorted and deduplicated, until the expected number of undirected edges is reached.
pub fn skg_edge_list(k: u32, seed: u64) -> EdgeListInput {
    let [a, b, c] = THETA;
    let total = a + 2.0 * b + c;
    let target = ((total.powi(k as i32) - (a + c).powi(k as i32)) / 2.0).round() as usize;
    let cumulative = [a / total, (a + b) / total, (a + 2.0 * b) / total];
    let mut rng = SplitMix64::new(seed);
    let mut packed: Vec<u64> = Vec::with_capacity(target + target / 8);
    // Every round places as many edges as are still missing; the cap only guards against an
    // initiator that places nothing but self-loops.
    for _ in 0..64 {
        if packed.len() >= target {
            break;
        }
        for _ in 0..target - packed.len() {
            let (mut u, mut v) = (0u64, 0u64);
            for _ in 0..k {
                let r = rng.next_f64();
                let (du, dv) = if r < cumulative[0] {
                    (0, 0)
                } else if r < cumulative[1] {
                    (0, 1)
                } else if r < cumulative[2] {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = (u << 1) | du;
                v = (v << 1) | dv;
            }
            if u != v {
                packed.push((u.min(v) << 32) | u.max(v));
            }
        }
        packed.sort_unstable();
        packed.dedup();
    }
    packed.truncate(target);

    let mut seen = vec![false; 1usize << k];
    let mut text = String::with_capacity(packed.len() * 13);
    for &edge in &packed {
        let (u, v) = (edge >> 32, edge & 0xFFFF_FFFF);
        seen[u as usize] = true;
        seen[v as usize] = true;
        let _ = writeln!(text, "{u}\t{v}");
    }
    EdgeListInput {
        nodes: seen.iter().filter(|&&s| s).count(),
        edges: packed.len(),
        hash: fnv1a(FNV_OFFSET, text.as_bytes()),
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_stream() {
        // First outputs of SplitMix64 seeded with 0 (the published reference values).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn the_same_seed_gives_the_same_text_and_another_seed_does_not() {
        let a = skg_edge_list(10, 3);
        assert_eq!(a.hash, skg_edge_list(10, 3).hash);
        assert_ne!(a.hash, skg_edge_list(10, 4).hash);
        // The expected edge count of the model, reached exactly.
        let expected = ((2.14f64.powi(10) - 1.24f64.powi(10)) / 2.0).round() as usize;
        assert_eq!(a.edges, expected);
        assert_eq!(a.text.lines().count(), a.edges);
        for line in a.text.lines() {
            let (u, v) = line.split_once('\t').unwrap();
            assert!(u.parse::<u32>().unwrap() < v.parse::<u32>().unwrap());
        }
    }

    #[test]
    fn op_seeds_fit_in_a_json_number() {
        for i in 0..1000 {
            assert!(op_seed(u64::MAX, 1, i) < 1 << 53);
        }
        assert_ne!(op_seed(1, 0, 0), op_seed(1, 1, 0));
        assert_ne!(op_seed(1, 0, 0), op_seed(1, 0, 1));
    }
}
