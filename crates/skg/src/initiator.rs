//! Initiator matrices and Kronecker powers.
//!
//! Definition 3.4 of the paper: an `N1 × N1` probability matrix `Θ` whose `k`-th Kronecker power
//! `P = Θ^[k]` encodes a distribution over graphs on `N1^k` nodes, with `P_{uv}` the probability
//! of the edge `(u, v)`. For `N1 = 2`, node indices decompose into `k` base-2 digits and the
//! entry probability is the product of initiator entries selected by the digit pairs — which is
//! how [`Initiator2::edge_probability`] evaluates `P_{uv}` in `O(k)` without materialising the
//! `2^k × 2^k` matrix.

use kronpriv_json::impl_json_struct;

/// A symmetric 2×2 stochastic Kronecker initiator `[a b; b c]`.
///
/// The paper (following Gleich & Owen) restricts attention to `0 ≤ c ≤ a ≤ 1` and `b ∈ [0, 1]`;
/// [`Initiator2::new`] enforces the range constraints and [`Initiator2::canonicalized`] reorders
/// `a` and `c` so that `a ≥ c` (the two orderings describe isomorphic models).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Initiator2 {
    /// Probability of an edge inside the "core" block.
    pub a: f64,
    /// Probability of an edge between the two blocks.
    pub b: f64,
    /// Probability of an edge inside the "periphery" block.
    pub c: f64,
}

impl_json_struct!(Initiator2 { a, b, c });

/// An initiator entry outside `[0, 1]` (or not finite), returned by [`Initiator2::try_new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InitiatorError {
    /// The entry's name: `"a"`, `"b"` or `"c"`.
    pub parameter: &'static str,
    /// The rejected value.
    pub value: f64,
}

impl std::fmt::Display for InitiatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "initiator parameter {}={} must lie in [0,1]", self.parameter, self.value)
    }
}

impl std::error::Error for InitiatorError {}

impl Initiator2 {
    /// Creates an initiator, validating that every entry lies in `[0, 1]`.
    ///
    /// # Panics
    /// Panics if any parameter is outside `[0, 1]` or not finite; see [`Initiator2::try_new`].
    pub fn new(a: f64, b: f64, c: f64) -> Self {
        Self::try_new(a, b, c).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor, for untrusted input: reports the first entry outside `[0, 1]`.
    pub fn try_new(a: f64, b: f64, c: f64) -> Result<Self, InitiatorError> {
        for (parameter, value) in [("a", a), ("b", b), ("c", c)] {
            if !(value.is_finite() && (0.0..=1.0).contains(&value)) {
                return Err(InitiatorError { parameter, value });
            }
        }
        Ok(Initiator2 { a, b, c })
    }

    /// Creates an initiator after clamping each entry into `[0, 1]`. Useful when an optimizer
    /// proposes slightly out-of-range iterates.
    pub fn clamped(a: f64, b: f64, c: f64) -> Self {
        Initiator2 { a: a.clamp(0.0, 1.0), b: b.clamp(0.0, 1.0), c: c.clamp(0.0, 1.0) }
    }

    /// Returns the same model with `a ≥ c` (swapping `a` and `c` if needed), the canonical form
    /// used when reporting estimates (Table 1 lists parameters with `a ≥ c`).
    pub fn canonicalized(&self) -> Self {
        if self.a >= self.c {
            *self
        } else {
            Initiator2 { a: self.c, b: self.b, c: self.a }
        }
    }

    /// The parameters as an `[a, b, c]` array.
    pub fn as_array(&self) -> [f64; 3] {
        [self.a, self.b, self.c]
    }

    /// Builds an initiator from an `[a, b, c]` array (clamping into range).
    pub fn from_array(p: [f64; 3]) -> Self {
        Self::clamped(p[0], p[1], p[2])
    }

    /// Number of nodes of the order-`k` Kronecker graph: `2^k`.
    pub fn node_count(&self, k: u32) -> usize {
        1usize << k
    }

    /// Probability `P_{uv}` of the ordered pair `(u, v)` under `Θ^[k]`, evaluated digit by digit
    /// in `O(k)`.
    ///
    /// # Panics
    /// Panics if `u` or `v` is not a valid node index for order `k`.
    pub fn edge_probability(&self, k: u32, u: usize, v: usize) -> f64 {
        let n = self.node_count(k);
        assert!(u < n && v < n, "node index out of range for k={k}");
        let m = [[self.a, self.b], [self.b, self.c]];
        let mut p = 1.0;
        for bit in 0..k {
            let ui = (u >> bit) & 1;
            let vi = (v >> bit) & 1;
            p *= m[ui][vi];
        }
        p
    }

    /// Sum of all entries of `Θ`, i.e. `a + 2b + c`. The sum of all entries of `Θ^[k]` is this
    /// value raised to the `k`-th power — the expected number of directed edges (loops included).
    pub fn entry_sum(&self) -> f64 {
        self.a + 2.0 * self.b + self.c
    }

    /// Sum of the diagonal entries, `a + c`; its `k`-th power is the expected number of
    /// self-loops of the directed realization.
    pub fn diagonal_sum(&self) -> f64 {
        self.a + self.c
    }

    /// Materialises the dense `k`-th Kronecker power as a row-major `2^k × 2^k` matrix of edge
    /// probabilities. Only sensible for small `k` (testing and tiny examples).
    ///
    /// # Panics
    /// Panics if `k > 12` (the dense matrix would exceed 16M entries).
    pub fn dense_power(&self, k: u32) -> Vec<Vec<f64>> {
        assert!(k <= 12, "dense_power is only supported for k <= 12");
        let n = self.node_count(k);
        (0..n).map(|u| (0..n).map(|v| self.edge_probability(k, u, v)).collect()).collect()
    }

    /// Euclidean distance between two parameter vectors, used to compare estimates against the
    /// generating parameters in the synthetic-recovery experiments.
    pub fn distance(&self, other: &Initiator2) -> f64 {
        let d = [self.a - other.a, self.b - other.b, self.c - other.c];
        (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt()
    }
}

impl std::fmt::Display for Initiator2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:.4} {:.4}; {:.4} {:.4}]", self.a, self.b, self.b, self.c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn new_accepts_valid_parameters() {
        let t = Initiator2::new(0.99, 0.45, 0.25);
        assert_eq!(t.as_array(), [0.99, 0.45, 0.25]);
    }

    #[test]
    fn try_new_reports_the_first_entry_outside_the_unit_interval() {
        assert_eq!(Initiator2::try_new(0.0, 1.0, 0.5), Ok(Initiator2 { a: 0.0, b: 1.0, c: 0.5 }));
        let err = Initiator2::try_new(0.5, f64::NAN, 2.0).unwrap_err();
        assert_eq!(err.parameter, "b");
        assert!(err.value.is_nan());
        let err = Initiator2::try_new(0.5, 0.5, -0.25).unwrap_err();
        assert_eq!(err.to_string(), "initiator parameter c=-0.25 must lie in [0,1]");
    }

    #[test]
    #[should_panic(expected = "must lie in [0,1]")]
    fn new_rejects_out_of_range_parameters() {
        let _ = Initiator2::new(1.2, 0.5, 0.3);
    }

    #[test]
    fn clamped_pulls_parameters_into_range() {
        let t = Initiator2::clamped(1.7, -0.3, 0.5);
        assert_eq!(t.as_array(), [1.0, 0.0, 0.5]);
    }

    #[test]
    fn canonicalized_orders_a_above_c() {
        let t = Initiator2::new(0.2, 0.5, 0.9).canonicalized();
        assert_eq!(t.as_array(), [0.9, 0.5, 0.2]);
        // Already canonical stays untouched.
        let u = Initiator2::new(0.9, 0.5, 0.2).canonicalized();
        assert_eq!(u.as_array(), [0.9, 0.5, 0.2]);
    }

    #[test]
    fn node_count_is_power_of_two() {
        let t = Initiator2::new(0.5, 0.5, 0.5);
        assert_eq!(t.node_count(0), 1);
        assert_eq!(t.node_count(3), 8);
        assert_eq!(t.node_count(14), 16384);
    }

    #[test]
    fn edge_probability_at_k1_is_the_initiator_entry() {
        let t = Initiator2::new(0.9, 0.4, 0.2);
        assert_eq!(t.edge_probability(1, 0, 0), 0.9);
        assert_eq!(t.edge_probability(1, 0, 1), 0.4);
        assert_eq!(t.edge_probability(1, 1, 0), 0.4);
        assert_eq!(t.edge_probability(1, 1, 1), 0.2);
    }

    #[test]
    fn edge_probability_is_product_over_digits() {
        let t = Initiator2::new(0.9, 0.4, 0.2);
        // u = 0b10, v = 0b01: digits (0,1) and (1,0) -> b * b.
        assert!((t.edge_probability(2, 0b10, 0b01) - 0.16).abs() < 1e-12);
        // u = v = 0b11: c * c.
        assert!((t.edge_probability(2, 3, 3) - 0.04).abs() < 1e-12);
        // u = 0, v = 0: a * a.
        assert!((t.edge_probability(2, 0, 0) - 0.81).abs() < 1e-12);
    }

    #[test]
    fn edge_probability_is_symmetric_for_symmetric_initiator() {
        let t = Initiator2::new(0.99, 0.45, 0.25);
        for u in 0..8 {
            for v in 0..8 {
                let p = t.edge_probability(3, u, v);
                let q = t.edge_probability(3, v, u);
                assert!((p - q).abs() < 1e-15);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_probability_rejects_out_of_range_nodes() {
        let t = Initiator2::new(0.5, 0.5, 0.5);
        let _ = t.edge_probability(2, 4, 0);
    }

    #[test]
    fn dense_power_entries_sum_to_entry_sum_power() {
        let t = Initiator2::new(0.9, 0.4, 0.2);
        let k = 4;
        let dense = t.dense_power(k);
        let total: f64 = dense.iter().flatten().sum();
        assert!((total - t.entry_sum().powi(k as i32)).abs() < 1e-9);
        let diag: f64 = (0..t.node_count(k)).map(|i| dense[i][i]).sum();
        assert!((diag - t.diagonal_sum().powi(k as i32)).abs() < 1e-9);
    }

    #[test]
    fn dense_power_agrees_with_explicit_kronecker_product() {
        // Check Θ^[2] against the textbook Kronecker product of Θ with itself.
        let t = Initiator2::new(0.8, 0.3, 0.1);
        let m = [[0.8, 0.3], [0.3, 0.1]];
        let dense = t.dense_power(2);
        for u in 0..4 {
            for v in 0..4 {
                // Definition 3.1: C[i*n+p][j*m+q] = A[i][j] * B[p][q].
                let expected = m[u / 2][v / 2] * m[u % 2][v % 2];
                // Our digit order is little-endian; the resulting matrices are equal up to a
                // permutation that maps (hi,lo) -> (lo,hi), which is an isomorphism of the model.
                let permuted_u = (u % 2) * 2 + u / 2;
                let permuted_v = (v % 2) * 2 + v / 2;
                assert!((dense[permuted_u][permuted_v] - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn distance_is_a_metric_on_examples() {
        let x = Initiator2::new(0.9, 0.5, 0.1);
        let y = Initiator2::new(0.8, 0.4, 0.3);
        assert_eq!(x.distance(&x), 0.0);
        assert!((x.distance(&y) - y.distance(&x)).abs() < 1e-15);
        assert!(x.distance(&y) > 0.0);
    }

    #[test]
    fn display_renders_matrix_form() {
        let t = Initiator2::new(0.99, 0.45, 0.25);
        assert_eq!(format!("{t}"), "[0.9900 0.4500; 0.4500 0.2500]");
    }

    #[test]
    fn json_round_trip() {
        let t = Initiator2::new(0.99, 0.45, 0.25);
        let json = kronpriv_json::to_string(&t);
        let back: Initiator2 = kronpriv_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    // Former proptest properties, now deterministic seeded loops.
    #[test]
    fn probabilities_are_valid_and_symmetric() {
        let mut rng = StdRng::seed_from_u64(0x1417_7001);
        for _ in 0..256 {
            let (a, b, c) =
                (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let (u, v) = (rng.gen_range(0..16usize), rng.gen_range(0..16usize));
            let t = Initiator2::new(a, b, c);
            let p = t.edge_probability(4, u, v);
            assert!((0.0..=1.0).contains(&p));
            assert!((p - t.edge_probability(4, v, u)).abs() < 1e-15);
        }
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let mut rng = StdRng::seed_from_u64(0x1417_7002);
        for _ in 0..256 {
            let (a, b, c) =
                (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let t = Initiator2::new(a, b, c).canonicalized();
            assert!(t.a >= t.c);
            assert_eq!(t.canonicalized(), t);
        }
    }
}
