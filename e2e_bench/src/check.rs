//! Output checks. Every op and every verification is judged here, and each failure counts
//! against the run's `error_rate`. Nothing pins sampled bytes across commits: the checks are
//! invariants of any correct release, plus reproducibility within one binary.

use kronpriv::kronpriv_graph::Graph;
use kronpriv_json::Json;

/// Counts of judged ops and failed ones, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops and verifications judged.
    pub attempted: u64,
    /// Those that failed, were refused or failed a check.
    pub failed: u64,
    /// The first failure messages, for the record.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one judged op.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(message) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(message);
                }
                None
            }
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 5usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A released initiator `[a, b, c]` must be finite, lie in `[0, 1]` and be canonical (`a ≥ c`).
pub fn check_theta(theta: [f64; 3]) -> Result<[f64; 3], String> {
    let [a, _, c] = theta;
    if theta.iter().all(|p| p.is_finite() && (0.0..=1.0).contains(p)) && a >= c {
        Ok(theta)
    } else {
        Err(format!("initiator {theta:?} is not finite, in [0,1] and canonical"))
    }
}

/// A synthetic graph must have `2^k` nodes and be simple: sorted neighbour lists without
/// duplicates or self-loops, each edge stored once as `u < v`.
pub fn check_synthetic(k: u32, g: &Graph) -> Result<(), String> {
    let n = 1usize << k;
    if g.node_count() != n {
        return Err(format!("synthetic graph has {} nodes, not 2^{k}", g.node_count()));
    }
    if !g.edges().iter().all(|&(u, v)| u < v && (v as usize) < n) {
        return Err("synthetic edge list is not canonical".to_string());
    }
    let mut degree_sum = 0;
    for u in g.nodes() {
        let nbrs = g.neighbors(u);
        if nbrs.windows(2).any(|w| w[0] >= w[1]) || nbrs.contains(&u) {
            return Err(format!("node {u} has a duplicate neighbour or a self-loop"));
        }
        degree_sum += nbrs.len();
    }
    if degree_sum != 2 * g.edge_count() {
        return Err("adjacency and edge list disagree".to_string());
    }
    Ok(())
}

/// Judges the terminal `/events` line of a job: it must be `done`, and its result must carry
/// the request seed, the expected Kronecker order and a valid initiator, which is returned.
pub fn judge_terminal(line: &str, seed: u64, k: u32) -> Result<[f64; 3], String> {
    let doc = Json::parse(line).map_err(|e| format!("terminal event is not JSON: {e}"))?;
    if doc.get("event").and_then(Json::as_str) != Some("done") {
        return Err(format!("job did not finish: {}", truncate(line)));
    }
    let result = doc.get("result").ok_or("done event without a result")?;
    let number = |v: Option<&Json>| v.and_then(Json::as_f64);
    if number(result.get("seed")) != Some(seed as f64) {
        return Err(format!("result seed differs from the request seed {seed}"));
    }
    if number(result.get("k")) != Some(k as f64) {
        return Err(format!("result order differs from the input order {k}"));
    }
    let theta = result.get("theta");
    let entry = |name| number(theta.and_then(|t| t.get(name))).ok_or("result without an initiator");
    check_theta([entry("a")?, entry("b")?, entry("c")?])
}

/// Two initiators must agree bit for bit.
pub fn same_bits(what: &str, got: [f64; 3], want: [f64; 3]) -> Result<(), String> {
    if got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()) {
        Ok(())
    } else {
        Err(format!("{what}: {got:?} differs from {want:?}"))
    }
}

fn truncate(text: &str) -> &str {
    text.get(..200).unwrap_or(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_checks_reject_out_of_range_and_non_canonical_initiators() {
        assert!(check_theta([0.9, 0.5, 0.2]).is_ok());
        assert!(check_theta([0.2, 0.5, 0.9]).is_err());
        assert!(check_theta([1.2, 0.5, 0.2]).is_err());
        assert!(check_theta([f64::NAN, 0.5, 0.2]).is_err());
    }

    #[test]
    fn synthetic_checks_need_two_to_the_k_nodes() {
        let g = Graph::from_edges(8, [(0, 1), (1, 2), (5, 7)]);
        assert!(check_synthetic(3, &g).is_ok());
        assert!(check_synthetic(4, &g).is_err());
        assert!(check_synthetic(3, &Graph::from_edges(7, [(0, 1)])).is_err());
    }

    #[test]
    fn terminal_lines_are_judged_on_seed_order_and_initiator() {
        let done =
            r#"{"event":"done","result":{"seed":5,"theta":{"a":0.9,"b":0.5,"c":0.2},"k":8}}"#;
        assert_eq!(judge_terminal(done, 5, 8), Ok([0.9, 0.5, 0.2]));
        assert!(judge_terminal(done, 6, 8).is_err());
        assert!(judge_terminal(done, 5, 9).is_err());
        assert!(judge_terminal(r#"{"event":"failed","error":"x"}"#, 5, 8).is_err());
        assert!(same_bits("t", [0.9, 0.5, 0.2], [0.9, 0.5, 0.2]).is_ok());
        assert!(same_bits("t", [0.9, 0.5, 0.2], [0.9, 0.5, f64::from_bits(0.2f64.to_bits() + 1)])
            .is_err());
    }
}
