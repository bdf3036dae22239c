//! KronFit: the approximate maximum-likelihood estimator of Leskovec & Faloutsos (ICML 2007),
//! the paper's first baseline (the "KronFit" column of Table 1).
//!
//! The likelihood of an observed graph under a stochastic Kronecker model involves an unknown
//! correspondence between graph nodes and Kronecker indices. KronFit handles it the way the
//! original algorithm does:
//!
//! * the node-to-index assignment `σ` is sampled with a Metropolis chain over transpositions
//!   (swapping the indices of two nodes), using the likelihood itself as the stationary
//!   distribution,
//! * the log-likelihood over the quadratically many non-edges is approximated by the second-
//!   order Taylor expansion `ln(1 − p) ≈ −p − p²/2`, whose sum over *all* pairs has a closed
//!   form under the Kronecker structure; the exact edge terms are then corrected in,
//! * the initiator parameters follow the averaged stochastic gradient of that approximate
//!   log-likelihood, normalised to an infinity-norm trust region and projected into `[θmin, 1]`.
//!
//! Nodes beyond the observed node count (the padding up to `2^k`) participate in the assignment
//! but carry no edges, exactly as in the reference implementation.
//!
//! # Parallelism
//!
//! This estimator runs [`KronFitOptions::chains`] **independent Metropolis chains**, each
//! driven by its own RNG stream derived from the caller's generator via [`StdRng::split`], and
//! averages their gradients in fixed chain order at every ascent step. The chains fan out over
//! one shared [`Executor`] with the `kronpriv-par` chunk-order-reduction contract, and each
//! chain's per-edge likelihood/gradient sums are themselves edge-partitioned over fixed chunk
//! boundaries on the **same** executor (nested calls participate inline, so no thread budget
//! has to be split between the two levels). The consequence is the workspace's standard
//! determinism guarantee: the fit depends on the **chain count** (an algorithm parameter, part
//! of the result's definition) but is byte-identical for every **pool size** (a pure
//! performance knob).

use crate::{kronecker_order_for, refuse, require_edges, FittedInitiator, PipelineError};
use kronpriv_graph::Graph;
use kronpriv_json::impl_json_struct_with_defaults;
use kronpriv_obs::{stage, ProgressEvent, ProgressSink};
use kronpriv_par::{Executor, Work};
use kronpriv_skg::Initiator2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Fixed edge-chunk size for the per-edge likelihood/gradient sums. A pure function of the
/// edge count — never of the thread count — so chunk-order reduction keeps the sums
/// byte-identical for any number of workers.
const EDGE_CHUNK: usize = 2_048;

/// Cost hint for one edge term: two popcounts and one [`ClassTable`] load, measured at ~8 ns
/// per edge on a 2-core Intel Xeon host. A whole edge sum of the bench's 2^14-node,
/// ~21k-edge input is then under the pool's amortization budget and runs inline.
const EDGE_WORK: Work = Work::per_item_ns(8);

/// Cost hint for one Metropolis chain step: thousands of swap proposals plus a few edge sums,
/// measured at ~0.85 ms at 1T on the same host for the bench's 2^14-node configuration (2000
/// warm-up swaps, two samples 500 swaps apart) — worth a worker of its own.
const CHAIN_WORK: Work = Work::per_item_ns(850_000);

/// Options for the KronFit estimator.
#[derive(Debug, Clone, Copy)]
pub struct KronFitOptions {
    /// Number of gradient-ascent steps.
    pub gradient_steps: usize,
    /// Metropolis swap proposals executed before the first gradient sample of each step.
    pub warmup_swaps: usize,
    /// Number of permutation samples averaged per gradient step (per chain).
    pub samples_per_step: usize,
    /// Metropolis swap proposals between consecutive samples.
    pub swaps_between_samples: usize,
    /// Initial trust-region radius (infinity norm of the per-step parameter update).
    pub learning_rate: f64,
    /// Lower clamp applied to every parameter (keeps `ln θ` finite).
    pub min_parameter: f64,
    /// Starting initiator.
    pub initial: Initiator2,
    /// Number of independent Metropolis permutation chains whose gradients are averaged each
    /// ascent step, from 1 to 64. This is an **algorithm parameter**: changing it changes the
    /// fit (each chain consumes its own [`StdRng::split`] stream), unlike the executor's pool
    /// size, which never does.
    pub chains: usize,
}

// `chains` may be *omitted* by older clients — absent means the pre-multi-chain default of 4
// chains — while the pre-existing fields stay required. Unknown keys are ignored, so documents
// that still carry the removed `compute_threads` field parse unchanged.
impl_json_struct_with_defaults!(KronFitOptions {
    required: {
        gradient_steps,
        warmup_swaps,
        samples_per_step,
        swaps_between_samples,
        learning_rate,
        min_parameter,
        initial,
    },
    defaults: { chains: 4 },
});

impl Default for KronFitOptions {
    fn default() -> Self {
        KronFitOptions {
            gradient_steps: 60,
            warmup_swaps: 20_000,
            samples_per_step: 4,
            swaps_between_samples: 2_000,
            learning_rate: 0.06,
            min_parameter: 1e-3,
            initial: Initiator2::new(0.9, 0.6, 0.2),
            chains: 4,
        }
    }
}

/// Most Metropolis proposals one fit may run (`gradient_steps × chains × per-step swaps`):
/// per-knob caps alone multiply into weeks of CPU. 10⁹ is minutes, ~150× the default.
const MAX_TOTAL_SWAPS: u128 = 1_000_000_000;

/// Most [`ProgressEvent::ChainStep`] events one fit may emit (`gradient_steps × chains`), 17× the
/// default: the HTTP server keeps ~100 bytes per event for 1024 jobs, so ≤ 430 MB in all.
const MAX_CHAIN_STEP_EVENTS: u128 = 4096;

/// Smallest `min_parameter`: an edge probability multiplies `k ≤ 32` entries (node ids are
/// `u32`) of at least `min_parameter` and takes the log, and `(1e-9)^32` is still normal.
const MIN_PARAMETER_FLOOR: f64 = 1e-9;

impl KronFitOptions {
    /// Checks every rule on these options, so that a fit neither pins a worker nor ends without
    /// a finite likelihood: `chains` and `samples_per_step` in `1..=64`; at most 10⁶ gradient
    /// evaluations (each O(edges)), 10⁹ Metropolis proposals and 4096 chain-step events; a
    /// `min_parameter` of at least `1e-9`; a positive `learning_rate`; `initial` in `[0, 1]`.
    pub fn validate(&self) -> Result<(), PipelineError> {
        for (name, got) in [("chains", self.chains), ("samples_per_step", self.samples_per_step)] {
            if !(1..=64).contains(&got) {
                return refuse(format!("kronfit.{name} must be in 1..=64, got {got}"));
            }
        }
        let chain_steps = self.gradient_steps as u128 * self.chains as u128;
        let evaluations = chain_steps * self.samples_per_step as u128;
        if evaluations > 1_000_000 {
            return refuse(format!(
                "kronfit gradient budget too large: gradient_steps x chains x samples_per_step \
                 = {evaluations} evaluations exceeds the limit of 1000000"
            ));
        }
        let per_step_swaps = self.warmup_swaps as u128
            + (self.samples_per_step as u128 - 1) * self.swaps_between_samples as u128;
        let total_swaps = chain_steps * per_step_swaps;
        if total_swaps > MAX_TOTAL_SWAPS {
            return refuse(format!(
                "kronfit iteration budget too large: gradient_steps x chains x per-step swaps \
                 = {total_swaps} proposals exceeds the limit of {MAX_TOTAL_SWAPS}"
            ));
        }
        if chain_steps > MAX_CHAIN_STEP_EVENTS {
            return refuse(format!(
                "kronfit progress log too large: gradient_steps x chains = {chain_steps} \
                 chain-step events exceeds the limit of {MAX_CHAIN_STEP_EVENTS}"
            ));
        }
        for (name, got) in
            [("min_parameter", self.min_parameter), ("learning_rate", self.learning_rate)]
        {
            if !(got.is_finite() && got > 0.0) {
                return refuse(format!("kronfit.{name} must be a positive number, got {got}"));
            }
        }
        if self.min_parameter < MIN_PARAMETER_FLOOR {
            let (got, floor) = (self.min_parameter, MIN_PARAMETER_FLOOR);
            return refuse(format!("kronfit.min_parameter must be >= {floor:e}, got {got:e}"));
        }
        if let Err(e) = Initiator2::try_new(self.initial.a, self.initial.b, self.initial.c) {
            let (name, got) = (e.parameter, e.value);
            return refuse(format!("kronfit.initial.{name}={got} must lie in [0,1]"));
        }
        Ok(())
    }
}

/// Internal fitting state: the node-to-Kronecker-index assignment.
struct Assignment {
    /// `sigma[node] = kronecker index` (padding nodes included).
    sigma: Vec<u32>,
}

impl Assignment {
    fn identity(n_padded: usize) -> Self {
        let sigma = (0..n_padded)
            .map(|i| u32::try_from(i).expect("Kronecker indices must fit in u32"))
            .collect();
        Assignment { sigma }
    }

    fn swap_nodes(&mut self, u: usize, v: usize) {
        self.sigma.swap(u, v);
    }
}

/// One independent Metropolis chain: its permutation state plus its private RNG stream.
struct Chain {
    assignment: Assignment,
    rng: StdRng,
}

fn edge_probability(theta: &Initiator2, counts: (u32, u32, u32)) -> f64 {
    theta.a.powi(counts.0 as i32) * theta.b.powi(counts.1 as i32) * theta.c.powi(counts.2 as i32)
}

/// Per-edge contribution to the corrected log-likelihood: `ln p + p + p²/2`.
fn edge_term(theta: &Initiator2, counts: (u32, u32, u32)) -> f64 {
    let p = edge_probability(theta, counts);
    p.ln() + p + 0.5 * p * p
}

/// The permutation-independent closed-form part: `−½(S − S_diag) − ¼(S₂ − S₂_diag)` where `S`
/// and `S₂` are the sums of `p` and `p²` over all ordered pairs (including loops).
fn closed_form_part(theta: &Initiator2, k: u32) -> f64 {
    let (a, b, c) = (theta.a, theta.b, theta.c);
    let s_all = (a + 2.0 * b + c).powi(k as i32);
    let s_diag = (a + c).powi(k as i32);
    let s2_all = (a * a + 2.0 * b * b + c * c).powi(k as i32);
    let s2_diag = (a * a + c * c).powi(k as i32);
    -0.5 * (s_all - s_diag) - 0.25 * (s2_all - s2_diag)
}

/// Gradient of [`closed_form_part`] with respect to `(a, b, c)`, for the fit's `k ≥ 1`.
fn closed_form_gradient(theta: &Initiator2, k: u32) -> [f64; 3] {
    let (a, b, c) = (theta.a, theta.b, theta.c);
    let kf = k as f64;
    let s_all = (a + 2.0 * b + c).powi(k as i32 - 1);
    let s_diag = (a + c).powi(k as i32 - 1);
    let s2_all = (a * a + 2.0 * b * b + c * c).powi(k as i32 - 1);
    let s2_diag = (a * a + c * c).powi(k as i32 - 1);
    [
        -0.5 * kf * (s_all - s_diag) - 0.25 * kf * (2.0 * a * s2_all - 2.0 * a * s2_diag),
        -0.5 * kf * 2.0 * s_all - 0.25 * kf * 4.0 * b * s2_all,
        -0.5 * kf * (s_all - s_diag) - 0.25 * kf * (2.0 * c * s2_all - 2.0 * c * s2_diag),
    ]
}

/// Everything the likelihood, its gradient and the swap deltas need from one `θ`, built once
/// per ascent step. An edge term depends on its index pair `(x, y)` only through the
/// digit-count class: `na = k − popcount(x | y)` positions fall in the `a` cell and
/// `nc = popcount(x & y)` in the `c` cell (the rest in `b`). So the table holds one entry per
/// class, computed with exactly the per-edge expressions it replaces; sums look the same
/// values up in the same order, which keeps every fit bit-identical.
struct ClassTable {
    /// Row width of the class index `popcount(x | y) · (k + 1) + popcount(x & y)`.
    width: usize,
    /// Per-class edge term `ln p + p + p²/2`.
    term: Vec<f64>,
    /// Per-class gradient contribution `(na/a · w, nb/b · w, nc/c · w)`, `w = 1 + p + p²`.
    grad: Vec<[f64; 3]>,
    /// [`closed_form_part`] at `θ`.
    closed_form: f64,
    /// [`closed_form_gradient`] at `θ`.
    closed_form_gradient: [f64; 3],
}

impl ClassTable {
    fn new(theta: &Initiator2, k: u32) -> Self {
        let width = k as usize + 1;
        let mut term = vec![0.0; width * width];
        let mut grad = vec![[0.0; 3]; width * width];
        for either in 0..=k {
            for both in 0..=either {
                let counts = (k - either, either - both, both);
                let p = edge_probability(theta, counts);
                let weight = 1.0 + p + p * p;
                let class = either as usize * width + both as usize;
                term[class] = edge_term(theta, counts);
                grad[class] = [
                    counts.0 as f64 / theta.a * weight,
                    counts.1 as f64 / theta.b * weight,
                    counts.2 as f64 / theta.c * weight,
                ];
            }
        }
        ClassTable {
            width,
            term,
            grad,
            closed_form: closed_form_part(theta, k),
            closed_form_gradient: closed_form_gradient(theta, k),
        }
    }

    /// The class of the index pair `(x, y)`.
    fn class(&self, x: u32, y: u32) -> usize {
        (x | y).count_ones() as usize * self.width + (x & y).count_ones() as usize
    }
}

/// The KronFit baseline: fits an initiator to `g` by multi-chain stochastic gradient ascent on
/// the approximate log-likelihood. This is the entry point the server uses for `/api/estimate`
/// with `"estimator": "kronfit"`. **Not differentially private** — it touches the exact graph;
/// it exists so the service can serve the paper's baseline columns for comparison.
///
/// Exactly one `u64` is drawn from `rng` to seed the chain family; every chain then runs on
/// its own [`StdRng::split`] stream. Both the chain fan-out and the nested edge-partitioned
/// sums borrow `exec`. The fit is a pure function of `(g, options, that draw)` — in
/// particular it is byte-identical for every pool size.
///
/// Progress flows into `sink` (pass [`kronpriv_obs::NullSink`] to ignore it): the whole fit
/// runs as the `kronfit` stage of [`kronpriv_obs::stage`], with one
/// [`ProgressEvent::ChainStep`] per chain per ascent step in between (emitted from
/// whichever worker ran the chain, so events from different chains may interleave; within
/// one chain the step order is monotone).
///
/// `ChainStep::log_likelihood` is `NaN` unless the sink opts in via
/// [`ProgressSink::wants_chain_likelihood`] — the extra per-step likelihood evaluation
/// consumes no randomness, so opting in (or not) never changes the fit: the sink is
/// strictly an observer (the `kronpriv-obs` no-feedback invariant).
///
/// Returns [`PipelineError::EmptyGraph`] for a graph without edges, and the error of
/// [`KronFitOptions::validate`] for options it refuses; nothing is drawn from `rng` then.
pub fn try_kronfit_estimate<R: Rng + ?Sized>(
    g: &Graph,
    options: &KronFitOptions,
    rng: &mut R,
    exec: &Executor,
    sink: &dyn ProgressSink,
) -> Result<FittedInitiator, PipelineError> {
    require_edges(g)?;
    options.validate()?;
    Ok(stage("kronfit", sink, || fit_chains(g, options, rng, exec, sink)))
}

/// The multi-chain ascent loop behind [`try_kronfit_estimate`], for a graph with at least one
/// edge (so `k ≥ 1`) and validated options.
fn fit_chains<R: Rng + ?Sized>(
    g: &Graph,
    options: &KronFitOptions,
    rng: &mut R,
    exec: &Executor,
    sink: &dyn ProgressSink,
) -> FittedInitiator {
    let k = kronecker_order_for(g.node_count());
    let mut theta = clamp_theta(&options.initial, options.min_parameter);
    let n_padded = 1usize << k;
    let chains = options.chains;

    // One draw from the caller's RNG seeds the whole chain family; each chain's stream is then
    // derived by `StdRng::split`, so the fit depends on the chain count but never on the
    // thread count.
    let root = StdRng::seed_from_u64(rng.next_u64());
    let states: Vec<Mutex<Chain>> = (0..chains)
        .map(|i| {
            Mutex::new(Chain {
                assignment: Assignment::identity(n_padded),
                rng: root.split(i as u64),
            })
        })
        .collect();

    let mut evaluations = 0usize;
    for step in 0..options.gradient_steps {
        let table = ClassTable::new(&theta, k);
        // Fan the chains out over the workers: chunk size 1 makes chunk index == chain index,
        // and the chunk-order fold below averages the per-chain gradients in fixed chain order
        // whatever thread ran which chain.
        let (gradient, step_evaluations) = exec.map_reduce(
            chains,
            1,
            CHAIN_WORK,
            |range| {
                let chain_index = range.start;
                let mut chain =
                    states[chain_index].lock().expect("a chain worker panicked earlier");
                let chain = &mut *chain;
                let result = chain_gradient(g, options, &table, chain, exec);
                // Reporting only: the optional likelihood probe reads the chain state but
                // consumes no randomness, so the fit is identical whatever the sink asks for.
                let log_likelihood = if sink.wants_chain_likelihood() {
                    log_likelihood(g, &table, &chain.assignment, exec)
                } else {
                    f64::NAN
                };
                sink.emit(&ProgressEvent::ChainStep {
                    chain: chain_index,
                    step,
                    total_steps: options.gradient_steps,
                    log_likelihood,
                });
                result
            },
            |(mut acc, evals): ([f64; 3], usize), (grad, chain_evals)| {
                for i in 0..3 {
                    acc[i] += grad[i] / chains as f64;
                }
                (acc, evals + chain_evals)
            },
            ([0.0f64; 3], 0usize),
        );
        evaluations += step_evaluations;

        // Trust-region ascent step: normalise to infinity norm, decay the radius.
        let max_component = gradient.iter().map(|g| g.abs()).fold(0.0_f64, f64::max);
        if max_component <= 1e-15 {
            break;
        }
        let radius = options.learning_rate / (1.0 + step as f64 / 20.0);
        let mut params = theta.as_array();
        for i in 0..3 {
            params[i] += radius * gradient[i] / max_component;
        }
        theta = clamp_theta(
            &Initiator2::clamped(params[0], params[1], params[2]),
            options.min_parameter,
        );
    }

    // Final likelihood: averaged over the chains' terminal assignments, in chain order.
    let table = ClassTable::new(&theta, k);
    let final_ll = exec.map_reduce(
        chains,
        1,
        CHAIN_WORK,
        |range| {
            let chain = states[range.start].lock().expect("a chain worker panicked earlier");
            log_likelihood(g, &table, &chain.assignment, exec)
        },
        |acc: f64, ll| acc + ll / chains as f64,
        0.0,
    );
    FittedInitiator { theta: theta.canonicalized(), k, objective_value: -final_ll, evaluations }
}

/// One ascent step of a single chain: warm-up swaps, then `samples_per_step` spaced-out
/// permutation samples whose gradients are averaged. Returns the chain's averaged gradient and
/// the number of gradient evaluations spent.
fn chain_gradient(
    g: &Graph,
    options: &KronFitOptions,
    table: &ClassTable,
    chain: &mut Chain,
    exec: &Executor,
) -> ([f64; 3], usize) {
    let asg = &mut chain.assignment;
    run_swaps(g, table, asg, options.warmup_swaps, &mut chain.rng);
    let mut averaged = [0.0f64; 3];
    let samples = options.samples_per_step;
    for sample in 0..samples {
        if sample > 0 {
            run_swaps(g, table, asg, options.swaps_between_samples, &mut chain.rng);
        }
        let grad = gradient(g, table, asg, exec);
        for i in 0..3 {
            averaged[i] += grad[i] / samples as f64;
        }
    }
    (averaged, samples)
}

/// Approximate log-likelihood of `g` at the table's `θ` for the given assignment, with the
/// per-edge sum partitioned over fixed [`EDGE_CHUNK`]-sized chunks.
fn log_likelihood(g: &Graph, table: &ClassTable, asg: &Assignment, exec: &Executor) -> f64 {
    let edges = g.edges();
    let edge_sum = exec.map_reduce(
        edges.len(),
        EDGE_CHUNK,
        EDGE_WORK,
        |range| {
            edges[range]
                .iter()
                .map(|&(u, v)| {
                    table.term[table.class(asg.sigma[u as usize], asg.sigma[v as usize])]
                })
                .sum::<f64>()
        },
        |acc: f64, m| acc + m,
        0.0,
    );
    table.closed_form + edge_sum
}

/// Gradient of the approximate log-likelihood with respect to `(a, b, c)`, edge-partitioned
/// exactly like [`log_likelihood`].
fn gradient(g: &Graph, table: &ClassTable, asg: &Assignment, exec: &Executor) -> [f64; 3] {
    let edges = g.edges();
    exec.map_reduce(
        edges.len(),
        EDGE_CHUNK,
        EDGE_WORK,
        |range| {
            let mut grad = [0.0f64; 3];
            for &(u, v) in &edges[range] {
                let terms = table.grad[table.class(asg.sigma[u as usize], asg.sigma[v as usize])];
                for i in 0..3 {
                    grad[i] += terms[i];
                }
            }
            grad
        },
        |mut acc: [f64; 3], m| {
            for i in 0..3 {
                acc[i] += m[i];
            }
            acc
        },
        table.closed_form_gradient,
    )
}

/// Runs `swaps` Metropolis proposals, each swapping the Kronecker indices of two uniformly
/// chosen nodes (padding nodes included) and accepting with the likelihood ratio.
fn run_swaps<R: Rng + ?Sized>(
    g: &Graph,
    table: &ClassTable,
    asg: &mut Assignment,
    swaps: usize,
    rng: &mut R,
) {
    let n_padded = asg.sigma.len();
    for _ in 0..swaps {
        let u = rng.gen_range(0..n_padded);
        let v = rng.gen_range(0..n_padded);
        if u == v {
            continue;
        }
        let delta = swap_delta(g, table, asg, u, v);
        if delta >= 0.0 || rng.gen::<f64>() < delta.exp() {
            asg.swap_nodes(u, v);
        }
    }
}

/// Change in the edge part of the log-likelihood if nodes `u` and `v` exchanged Kronecker
/// indices. Only edges incident to `u` or `v` are affected; the closed-form part is
/// permutation-invariant.
fn swap_delta(g: &Graph, table: &ClassTable, asg: &Assignment, u: usize, v: usize) -> f64 {
    let n = g.node_count();
    let (iu, iv) = (asg.sigma[u], asg.sigma[v]);
    let term = |x: u32, y: u32| table.term[table.class(x, y)];
    let mut delta = 0.0;
    // Contributions of edges incident to u.
    if u < n {
        for &w in g.neighbors(u as u32) {
            let w = w as usize;
            if w == v {
                continue; // handled below to avoid double counting
            }
            let iw = asg.sigma[w];
            delta += term(iv, iw) - term(iu, iw);
        }
    }
    if v < n {
        for &w in g.neighbors(v as u32) {
            let w = w as usize;
            if w == u {
                continue;
            }
            let iw = asg.sigma[w];
            delta += term(iu, iw) - term(iv, iw);
        }
    }
    // The edge {u, v} itself keeps the same (unordered) index pair, so it contributes no
    // change — p is symmetric in its arguments for a symmetric initiator.
    delta
}

fn clamp_theta(theta: &Initiator2, min_parameter: f64) -> Initiator2 {
    Initiator2::clamped(
        theta.a.max(min_parameter),
        theta.b.max(min_parameter),
        theta.c.max(min_parameter),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kronpriv_obs::NullSink;
    use kronpriv_skg::moments::expected_edges;
    use kronpriv_skg::sample::sample_fast;

    fn quick_options() -> KronFitOptions {
        KronFitOptions {
            gradient_steps: 40,
            warmup_swaps: 4_000,
            samples_per_step: 2,
            swaps_between_samples: 500,
            ..Default::default()
        }
    }

    fn seq() -> Executor {
        Executor::sequential()
    }

    /// Digit-pair counts of an index pair, bit by bit: how many positions fall in the `a`,
    /// `b`, `c` cells of the initiator. The reference the class table is checked against.
    fn digit_counts(x: u32, y: u32, k: u32) -> (u32, u32, u32) {
        let mut na = 0;
        let mut nb = 0;
        let mut nc = 0;
        for bit in 0..k {
            match ((x >> bit) & 1, (y >> bit) & 1) {
                (0, 0) => na += 1,
                (1, 1) => nc += 1,
                _ => nb += 1,
            }
        }
        (na, nb, nc)
    }

    fn ll(g: &Graph, theta: &Initiator2, k: u32, asg: &Assignment, exec: &Executor) -> f64 {
        log_likelihood(g, &ClassTable::new(theta, k), asg, exec)
    }

    #[test]
    fn digit_counts_partition_the_bits() {
        assert_eq!(digit_counts(0b0000, 0b0000, 4), (4, 0, 0));
        assert_eq!(digit_counts(0b1111, 0b1111, 4), (0, 0, 4));
        assert_eq!(digit_counts(0b1010, 0b0101, 4), (0, 4, 0));
        assert_eq!(digit_counts(0b1100, 0b1010, 4), (1, 2, 1));
    }

    #[test]
    fn edge_probability_matches_initiator_api() {
        let theta = Initiator2::new(0.9, 0.5, 0.2);
        for (x, y) in [(0u32, 0u32), (3, 5), (7, 2), (6, 6)] {
            let counts = digit_counts(x, y, 3);
            let api = theta.edge_probability(3, x as usize, y as usize);
            assert!((edge_probability(&theta, counts) - api).abs() < 1e-12);
        }
    }

    #[test]
    fn class_table_matches_the_per_edge_expressions_bit_for_bit() {
        // Exhaustive over every index pair up to k = 6: each table entry must be exactly the
        // per-edge term and gradient contribution the bit-by-bit evaluation produced.
        for theta in [Initiator2::new(0.9, 0.6, 0.2), Initiator2::new(0.999, 0.45, 0.001)] {
            for k in 0..=6u32 {
                let table = ClassTable::new(&theta, k);
                for x in 0..1u32 << k {
                    for y in 0..1u32 << k {
                        let counts = digit_counts(x, y, k);
                        let class = table.class(x, y);
                        let term = edge_term(&theta, counts);
                        assert_eq!(table.term[class].to_bits(), term.to_bits(), "k {k} ({x},{y})");
                        let p = edge_probability(&theta, counts);
                        let weight = 1.0 + p + p * p;
                        let grad = [
                            counts.0 as f64 / theta.a * weight,
                            counts.1 as f64 / theta.b * weight,
                            counts.2 as f64 / theta.c * weight,
                        ];
                        let bits = |g: [f64; 3]| g.map(f64::to_bits);
                        assert_eq!(bits(table.grad[class]), bits(grad), "k {k} ({x},{y})");
                    }
                }
                assert_eq!(table.closed_form.to_bits(), closed_form_part(&theta, k).to_bits());
                assert_eq!(table.closed_form_gradient, closed_form_gradient(&theta, k));
            }
        }
    }

    #[test]
    fn closed_form_gradient_matches_finite_differences() {
        let theta = Initiator2::new(0.8, 0.5, 0.3);
        let k = 9;
        let grad = closed_form_gradient(&theta, k);
        let h = 1e-6;
        let numerical = [
            (closed_form_part(&Initiator2::new(0.8 + h, 0.5, 0.3), k)
                - closed_form_part(&Initiator2::new(0.8 - h, 0.5, 0.3), k))
                / (2.0 * h),
            (closed_form_part(&Initiator2::new(0.8, 0.5 + h, 0.3), k)
                - closed_form_part(&Initiator2::new(0.8, 0.5 - h, 0.3), k))
                / (2.0 * h),
            (closed_form_part(&Initiator2::new(0.8, 0.5, 0.3 + h), k)
                - closed_form_part(&Initiator2::new(0.8, 0.5, 0.3 - h), k))
                / (2.0 * h),
        ];
        for i in 0..3 {
            let rel = (grad[i] - numerical[i]).abs() / numerical[i].abs().max(1.0);
            assert!(rel < 1e-4, "component {i}: analytic {} numeric {}", grad[i], numerical[i]);
        }
    }

    #[test]
    fn the_min_parameter_floor_keeps_every_class_finite_up_to_order_32() {
        // Node ids are u32, so k <= 32: at the floor every edge term and gradient entry must
        // stay finite, and the smallest edge probability a normal f64.
        let floor = Initiator2::new(MIN_PARAMETER_FLOOR, MIN_PARAMETER_FLOOR, MIN_PARAMETER_FLOOR);
        let table = ClassTable::new(&floor, 32);
        assert!(table.term.iter().all(|t| t.is_finite()));
        assert!(table.grad.iter().flatten().all(|g| g.is_finite()));
        assert!(edge_probability(&floor, (32, 0, 0)).is_normal());
    }

    #[test]
    fn options_the_fit_cannot_honour_are_refused_before_any_randomness() {
        use rand::RngCore;
        let g =
            sample_fast(&Initiator2::new(0.9, 0.5, 0.2), 6, &mut StdRng::seed_from_u64(1), &seq());
        let mut rng = StdRng::seed_from_u64(2);
        let before = rng.clone().next_u64();
        let base = quick_options();
        for (options, needle) in [
            (KronFitOptions { chains: 0, ..base }, "kronfit.chains must be in 1..=64, got 0"),
            (KronFitOptions { samples_per_step: 0, ..base }, "kronfit.samples_per_step"),
            (KronFitOptions { min_parameter: 5e-324, ..base }, ">= 1e-9, got 5e-324"),
            (KronFitOptions { learning_rate: f64::INFINITY, ..base }, "learning_rate"),
            (
                KronFitOptions { initial: Initiator2 { a: 1.5, b: 0.5, c: 0.2 }, ..base },
                "kronfit.initial.a=1.5 must lie in [0,1]",
            ),
        ] {
            let err = try_kronfit_estimate(&g, &options, &mut rng, &seq(), &NullSink).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
        assert_eq!(rng.next_u64(), before, "a refused fit must not consume randomness");
    }

    #[test]
    fn order_zero_graphs_are_rejected_as_empty() {
        use rand::RngCore;
        // A single-node graph (k = 0) has no edge, so there is nothing to fit: it is refused
        // before any randomness is drawn.
        let g = Graph::empty(1);
        let mut rng = StdRng::seed_from_u64(1);
        let before = rng.clone().next_u64();
        let fit = try_kronfit_estimate(
            &g,
            &KronFitOptions::default(),
            &mut rng,
            &Executor::new(0),
            &NullSink,
        );
        assert_eq!(fit.unwrap_err(), PipelineError::EmptyGraph);
        assert_eq!(rng.next_u64(), before, "a refused fit must not consume randomness");
    }

    #[test]
    fn full_gradient_matches_finite_differences_of_log_likelihood() {
        let truth = Initiator2::new(0.9, 0.55, 0.25);
        let mut rng = StdRng::seed_from_u64(1);
        let g = sample_fast(&truth, 7, &mut rng, &Executor::sequential());
        let asg = Assignment::identity(1 << 7);
        let theta = Initiator2::new(0.8, 0.5, 0.3);
        let grad = gradient(&g, &ClassTable::new(&theta, 7), &asg, &seq());
        let h = 1e-6;
        for i in 0..3 {
            let mut plus = theta.as_array();
            let mut minus = theta.as_array();
            plus[i] += h;
            minus[i] -= h;
            let ll_plus = ll(&g, &Initiator2::from_array(plus), 7, &asg, &seq());
            let ll_minus = ll(&g, &Initiator2::from_array(minus), 7, &asg, &seq());
            let numerical = (ll_plus - ll_minus) / (2.0 * h);
            let rel = (grad[i] - numerical).abs() / numerical.abs().max(1.0);
            assert!(rel < 1e-3, "component {i}: analytic {} numeric {numerical}", grad[i]);
        }
    }

    #[test]
    fn edge_partitioned_sums_are_bit_identical_for_any_thread_count() {
        let truth = Initiator2::new(0.95, 0.5, 0.2);
        let mut rng = StdRng::seed_from_u64(8);
        let g = sample_fast(&truth, 13, &mut rng, &Executor::sequential());
        assert!(g.edge_count() > 4 * EDGE_CHUNK, "want a multi-chunk edge sum");
        let asg = Assignment::identity(1 << 13);
        let table = ClassTable::new(&Initiator2::new(0.85, 0.45, 0.3), 13);
        let ll_ref = log_likelihood(&g, &table, &asg, &seq());
        let grad_ref = gradient(&g, &table, &asg, &seq());
        for threads in [2usize, 8] {
            let exec = Executor::new(threads);
            let ll = log_likelihood(&g, &table, &asg, &exec);
            assert_eq!(ll.to_bits(), ll_ref.to_bits(), "threads {threads}: log-likelihood");
            let grad = gradient(&g, &table, &asg, &exec);
            for i in 0..3 {
                assert_eq!(grad[i].to_bits(), grad_ref[i].to_bits(), "threads {threads}: grad");
            }
        }
    }

    #[test]
    fn swap_delta_matches_full_log_likelihood_difference() {
        let truth = Initiator2::new(0.95, 0.5, 0.2);
        let mut rng = StdRng::seed_from_u64(2);
        let g = sample_fast(&truth, 6, &mut rng, &Executor::sequential());
        let table = ClassTable::new(&Initiator2::new(0.85, 0.45, 0.3), 6);
        let mut asg = Assignment::identity(1 << 6);
        let before = log_likelihood(&g, &table, &asg, &seq());
        for &(u, v) in [(0usize, 5usize), (3, 60), (10, 11), (7, 63)].iter() {
            let predicted = swap_delta(&g, &table, &asg, u, v);
            asg.swap_nodes(u, v);
            let after = log_likelihood(&g, &table, &asg, &seq());
            assert!(
                (after - before - predicted).abs() < 1e-9,
                "swap ({u},{v}): predicted {predicted}, actual {}",
                after - before
            );
            asg.swap_nodes(u, v); // restore
        }
    }

    #[test]
    fn metropolis_swaps_recover_likelihood_from_a_scrambled_assignment() {
        // Scramble the node-to-index assignment, then let the Metropolis chain run: because the
        // chain targets the likelihood, it should recover most of the likelihood gap between the
        // scrambled and the generating (identity) assignment.
        let truth = Initiator2::new(0.95, 0.5, 0.15);
        let mut rng = StdRng::seed_from_u64(3);
        let g = sample_fast(&truth, 8, &mut rng, &Executor::sequential());
        let table = ClassTable::new(&Initiator2::new(0.9, 0.5, 0.2), 8);
        let n_padded = 1 << 8;
        let identity_ll = log_likelihood(&g, &table, &Assignment::identity(n_padded), &seq());
        let mut asg = Assignment::identity(n_padded);
        // Scramble with a fixed pseudo-random pass of transpositions.
        for i in 0..n_padded {
            let j = (i * 97 + 31) % n_padded;
            asg.swap_nodes(i, j);
        }
        let scrambled_ll = log_likelihood(&g, &table, &asg, &seq());
        assert!(scrambled_ll < identity_ll - 50.0, "scrambling should hurt the likelihood");
        run_swaps(&g, &table, &mut asg, 60_000, &mut rng);
        let recovered_ll = log_likelihood(&g, &table, &asg, &seq());
        let recovered_fraction = (recovered_ll - scrambled_ll) / (identity_ll - scrambled_ll);
        assert!(
            recovered_fraction > 0.5,
            "chain recovered only {recovered_fraction:.2} of the likelihood gap \
             (scrambled {scrambled_ll:.1}, recovered {recovered_ll:.1}, identity {identity_ll:.1})"
        );
    }

    #[test]
    fn fit_improves_the_likelihood_over_the_initial_guess() {
        let truth = Initiator2::new(0.99, 0.45, 0.25);
        let mut rng = StdRng::seed_from_u64(4);
        let g = sample_fast(&truth, 9, &mut rng, &Executor::sequential());
        let k = kronecker_order_for(g.node_count());
        let initial_ll = ll(&g, &quick_options().initial, k, &Assignment::identity(1 << k), &seq());
        let fit =
            try_kronfit_estimate(&g, &quick_options(), &mut rng, &Executor::new(0), &NullSink)
                .unwrap();
        assert!(
            -fit.objective_value > initial_ll,
            "final LL {} should exceed initial {initial_ll}",
            -fit.objective_value
        );
    }

    #[test]
    fn fit_recovers_synthetic_parameters_roughly() {
        // KronFit on a 2^10-node synthetic graph: the paper's Table 1 shows KronFit estimates
        // differing from the truth by up to ~0.05 in each entry; allow a somewhat wider band at
        // this reduced size and step budget. Runs under the multi-chain default (4 chains).
        let truth = Initiator2::new(0.99, 0.45, 0.25);
        let mut rng = StdRng::seed_from_u64(5);
        let g = sample_fast(&truth, 10, &mut rng, &Executor::sequential());
        let fit =
            try_kronfit_estimate(&g, &quick_options(), &mut rng, &Executor::new(0), &NullSink)
                .unwrap();
        assert!((fit.theta.a - truth.a).abs() < 0.15, "{:?}", fit.theta);
        assert!((fit.theta.b - truth.b).abs() < 0.15, "{:?}", fit.theta);
        assert!((fit.theta.c - truth.c).abs() < 0.20, "{:?}", fit.theta);
        // The fitted model should reproduce the observed edge count to the same rough order;
        // KronFit maximises (approximate) likelihood rather than matching moments, so its edge
        // count can be off by tens of percent — Table 1 of Gleich & Owen documents exactly this
        // behaviour, and it is the motivation for the moment-based estimator.
        let expected = expected_edges(&fit.theta, fit.k);
        let observed = g.edge_count() as f64;
        assert!(
            (expected - observed).abs() / observed < 0.45,
            "expected edges {expected} vs observed {observed}"
        );
    }

    #[test]
    fn parameters_stay_inside_the_unit_box() {
        let truth = Initiator2::new(0.7, 0.3, 0.1);
        let mut rng = StdRng::seed_from_u64(6);
        let g = sample_fast(&truth, 8, &mut rng, &Executor::sequential());
        let fit =
            try_kronfit_estimate(&g, &quick_options(), &mut rng, &Executor::new(0), &NullSink)
                .unwrap();
        for p in fit.theta.as_array() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn fit_is_reproducible_given_a_seed() {
        let truth = Initiator2::new(0.9, 0.5, 0.2);
        let g = sample_fast(&truth, 8, &mut StdRng::seed_from_u64(7), &Executor::sequential());
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            try_kronfit_estimate(&g, &quick_options(), &mut rng, &Executor::new(0), &NullSink)
                .unwrap()
                .theta
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn observed_fit_is_byte_identical_and_reports_every_chain_step() {
        use kronpriv_obs::CollectingSink;
        let truth = Initiator2::new(0.9, 0.5, 0.2);
        let g = sample_fast(&truth, 7, &mut StdRng::seed_from_u64(20), &Executor::sequential());
        let options = KronFitOptions {
            gradient_steps: 3,
            warmup_swaps: 200,
            samples_per_step: 1,
            swaps_between_samples: 50,
            chains: 2,
            ..Default::default()
        };
        let fit = |sink: &dyn ProgressSink| {
            try_kronfit_estimate(&g, &options, &mut StdRng::seed_from_u64(21), &seq(), sink)
                .unwrap()
        };
        let plain = fit(&NullSink);
        // The likelihood probe is the expensive sink option, so exercise the opted-in path:
        // the fit must still be byte-identical (the probe consumes no randomness).
        let sink = CollectingSink::with_chain_likelihood();
        let observed = fit(&sink);
        assert_eq!(plain.theta, observed.theta);
        assert_eq!(plain.objective_value.to_bits(), observed.objective_value.to_bits());
        assert_eq!(plain.evaluations, observed.evaluations);
        let events = sink.events();
        assert_eq!(events.first(), Some(&ProgressEvent::StageStarted { stage: "kronfit" }));
        assert_eq!(events.last(), Some(&ProgressEvent::StageFinished { stage: "kronfit" }));
        for chain in 0..2usize {
            let steps: Vec<usize> = events
                .iter()
                .filter_map(|e| match e {
                    ProgressEvent::ChainStep { chain: c, step, total_steps, log_likelihood }
                        if *c == chain =>
                    {
                        assert_eq!(*total_steps, 3);
                        assert!(log_likelihood.is_finite(), "sink opted into likelihoods");
                        Some(*step)
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(steps, vec![0, 1, 2], "chain {chain} must report every step in order");
        }
    }

    #[test]
    fn silent_sink_skips_the_likelihood_probe() {
        use kronpriv_obs::CollectingSink;
        let truth = Initiator2::new(0.9, 0.5, 0.2);
        let g = sample_fast(&truth, 6, &mut StdRng::seed_from_u64(22), &Executor::sequential());
        let options = KronFitOptions {
            gradient_steps: 2,
            warmup_swaps: 100,
            samples_per_step: 1,
            swaps_between_samples: 50,
            chains: 1,
            ..Default::default()
        };
        let sink = CollectingSink::new();
        try_kronfit_estimate(&g, &options, &mut StdRng::seed_from_u64(23), &seq(), &sink).unwrap();
        let lls: Vec<f64> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                ProgressEvent::ChainStep { log_likelihood, .. } => Some(*log_likelihood),
                _ => None,
            })
            .collect();
        assert_eq!(lls.len(), 2);
        assert!(lls.iter().all(|ll| ll.is_nan()), "no probe unless the sink asks");
    }

    #[test]
    fn chain_count_is_an_algorithm_parameter() {
        // Unlike the thread knob, changing the chain count changes which split streams drive
        // the fit, so the result is allowed — indeed expected — to differ.
        let truth = Initiator2::new(0.95, 0.5, 0.2);
        let g = sample_fast(&truth, 8, &mut StdRng::seed_from_u64(9), &Executor::sequential());
        let run = |chains: usize| {
            let options = KronFitOptions { chains, ..quick_options() };
            let mut rng = StdRng::seed_from_u64(10);
            try_kronfit_estimate(&g, &options, &mut rng, &Executor::new(0), &NullSink)
                .unwrap()
                .theta
        };
        assert_ne!(run(1), run(4));
    }

    #[test]
    fn options_json_defaults_chains_and_compute_threads_when_omitted() {
        let options = KronFitOptions { chains: 3, ..Default::default() };
        let text = kronpriv_json::to_string(&options);
        assert!(text.ends_with(",\"chains\":3}"), "{text}");
        assert!(!text.contains("compute_threads"), "{text}");
        let back: KronFitOptions = kronpriv_json::from_str(&text).unwrap();
        assert_eq!(back.chains, 3);
        // Back-compat: a document from an older client that still carries `compute_threads`
        // parses and ignores it; one without `chains` gets the default of 4.
        let legacy = text.replace(",\"chains\":3", ",\"compute_threads\":5");
        let back: KronFitOptions = kronpriv_json::from_str(&legacy).unwrap();
        assert_eq!(back.chains, 4);
        assert_eq!(kronpriv_json::to_string(&back), text.replace("\"chains\":3", "\"chains\":4"));
        // The pre-existing fields remain required.
        let missing = legacy.replace("\"warmup_swaps\":20000,", "");
        assert!(kronpriv_json::from_str::<KronFitOptions>(&missing).is_err());
    }
}
