//! Box-constrained Nelder–Mead simplex minimisation.
//!
//! The implementation follows the standard Nelder–Mead moves (reflection, expansion,
//! contraction, shrink) with the conventional coefficients. Box constraints are handled the way
//! MATLAB's widely used `fminsearchbnd` wrapper does (the strategy behind the reference
//! Gleich–Owen fitting code): each bounded coordinate is re-parametrised as
//! `x = lower + (upper − lower)·sin²(z)` and the simplex runs unconstrained in `z`-space.
//! Unlike naive projection this cannot collapse the simplex onto a boundary face, so boundary
//! optima (`c = 0` estimates like AS20 in Table 1 are exactly such a case) are reached reliably.
//! The public entry point [`nelder_mead`] additionally wraps the core iteration in a small
//! number of *restarts* from the incumbent best point, the standard practical remedy for
//! premature convergence of Nelder–Mead.

/// Lower and upper bounds describing an axis-aligned box.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    /// Per-coordinate lower bounds.
    pub lower: Vec<f64>,
    /// Per-coordinate upper bounds.
    pub upper: Vec<f64>,
}

impl Bounds {
    /// Creates bounds, validating that the two vectors have equal length and `lower ≤ upper`
    /// component-wise.
    ///
    /// # Panics
    /// Panics on length mismatch or inverted bounds.
    pub fn new(lower: Vec<f64>, upper: Vec<f64>) -> Self {
        assert_eq!(lower.len(), upper.len(), "bounds length mismatch");
        for (l, u) in lower.iter().zip(&upper) {
            assert!(l <= u, "lower bound {l} exceeds upper bound {u}");
        }
        Bounds { lower, upper }
    }

    /// The unit box `[0, 1]^dim`.
    pub fn unit(dim: usize) -> Self {
        Bounds { lower: vec![0.0; dim], upper: vec![1.0; dim] }
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.lower.len()
    }

    /// Projects `x` into the box in place.
    pub fn project(&self, x: &mut [f64]) {
        for (i, xi) in x.iter_mut().enumerate() {
            *xi = xi.clamp(self.lower[i], self.upper[i]);
        }
    }

    /// Returns true if `x` lies inside the box (within a small tolerance).
    pub fn contains(&self, x: &[f64]) -> bool {
        x.iter()
            .zip(self.lower.iter().zip(&self.upper))
            .all(|(xi, (l, u))| *xi >= l - 1e-12 && *xi <= u + 1e-12)
    }
}

/// A run terminates when the spread of objective values across the simplex falls below this
/// (and the simplex diameter below [`X_TOLERANCE`]).
const F_TOLERANCE: f64 = 1e-10;

/// A run terminates when the simplex diameter falls below this (and the objective spread below
/// [`F_TOLERANCE`]).
const X_TOLERANCE: f64 = 1e-8;

/// Relative size of the first run's initial simplex (fraction of each coordinate's box width);
/// each restart halves it.
const INITIAL_STEP: f64 = 0.1;

/// Maximum number of restarts after the first run.
const MAX_RESTARTS: usize = 4;

/// The outcome of a minimisation run.
#[derive(Debug, Clone)]
pub struct OptimizationResult {
    /// The best point found.
    pub point: Vec<f64>,
    /// Objective value at [`OptimizationResult::point`].
    pub value: f64,
    /// Number of objective evaluations performed.
    pub evaluations: usize,
    /// Whether a tolerance-based convergence criterion was met (as opposed to running out of
    /// evaluations).
    pub converged: bool,
}

/// The sin² change of variables mapping unconstrained `z`-space into the box.
struct BoxTransform {
    lower: Vec<f64>,
    width: Vec<f64>,
}

impl BoxTransform {
    fn new(bounds: &Bounds) -> Self {
        let width: Vec<f64> = bounds.upper.iter().zip(&bounds.lower).map(|(u, l)| u - l).collect();
        BoxTransform { lower: bounds.lower.clone(), width }
    }

    /// `x_i = lower_i + width_i · sin²(z_i)`; degenerate coordinates stay fixed at the bound.
    fn to_x(&self, z: &[f64]) -> Vec<f64> {
        z.iter()
            .enumerate()
            .map(|(i, &zi)| {
                if self.width[i] <= 0.0 {
                    self.lower[i]
                } else {
                    self.lower[i] + self.width[i] * zi.sin().powi(2)
                }
            })
            .collect()
    }

    /// Inverse mapping for an in-box point: `z_i = asin(sqrt((x_i − lower_i) / width_i))`.
    fn to_z(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .enumerate()
            .map(|(i, &xi)| {
                if self.width[i] <= 0.0 {
                    0.0
                } else {
                    let t = ((xi - self.lower[i]) / self.width[i]).clamp(0.0, 1.0);
                    t.sqrt().asin()
                }
            })
            .collect()
    }
}

/// Minimises `f` over the box `bounds` starting from `start` using restarted Nelder–Mead in the
/// sin²-transformed coordinates, spending at most `max_evaluations` objective evaluations
/// across all restarts (a shrink step may overshoot by the simplex size).
///
/// # Panics
/// Panics if `start` has a different dimension than `bounds` or the dimension is zero.
pub fn nelder_mead<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    start: &[f64],
    bounds: &Bounds,
    max_evaluations: usize,
) -> OptimizationResult {
    let dim = bounds.dim();
    assert_eq!(start.len(), dim, "start point dimension mismatch");
    assert!(dim > 0, "cannot optimise a zero-dimensional problem");

    let transform = BoxTransform::new(bounds);
    let mut evaluations = 0usize;
    let mut best_x = start.to_vec();
    bounds.project(&mut best_x);
    let mut best_value = f64::INFINITY;
    let mut converged = false;

    // Objective in z-space.
    let mut g = |z: &[f64]| f(&transform.to_x(z));

    let mut step = INITIAL_STEP;
    for restart in 0..=MAX_RESTARTS {
        if evaluations >= max_evaluations {
            break;
        }
        let start_z = transform.to_z(&best_x);
        let run = run_simplex(&mut g, &start_z, max_evaluations, step, &mut evaluations);
        let improved = run.1 < best_value - F_TOLERANCE;
        if run.1 < best_value {
            best_x = transform.to_x(&run.0);
            best_value = run.1;
        }
        converged = run.2;
        // A restart that converged without improving means the incumbent is (locally) as good
        // as this strategy will get; stop early.
        if restart > 0 && !improved && run.2 {
            break;
        }
        step *= 0.5;
    }

    bounds.project(&mut best_x);
    OptimizationResult { point: best_x, value: best_value, evaluations, converged }
}

/// One unconstrained Nelder–Mead run in `z`-space from `start`. Returns
/// `(best_point, best_value, converged)` and charges objective evaluations against the shared
/// counter, respecting the global budget.
fn run_simplex<F: FnMut(&[f64]) -> f64>(
    f: &mut F,
    start: &[f64],
    max_evaluations: usize,
    initial_step: f64,
    evaluations: &mut usize,
) -> (Vec<f64>, f64, bool) {
    let dim = start.len();
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(x);
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };

    // Build the initial simplex: the start plus one perturbed vertex per axis. In z-space the
    // box width corresponds to a half-period (pi/2) of the sin² transform.
    let mut simplex: Vec<Vec<f64>> = vec![start.to_vec()];
    for i in 0..dim {
        let mut v = start.to_vec();
        let step = (initial_step * std::f64::consts::FRAC_PI_2).max(1e-10);
        v[i] += step;
        simplex.push(v);
    }
    let mut values: Vec<f64> = simplex.iter().map(|v| eval(v, evaluations)).collect();

    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
    let mut converged = false;

    while *evaluations < max_evaluations {
        // Order the simplex by objective value.
        let mut order: Vec<usize> = (0..simplex.len()).collect();
        order.sort_by(|&i, &j| values[i].total_cmp(&values[j]));
        simplex = order.iter().map(|&i| simplex[i].clone()).collect();
        values = order.iter().map(|&i| values[i]).collect();

        // Convergence checks.
        let f_spread = values[dim] - values[0];
        let x_spread = simplex[1..]
            .iter()
            .map(|v| v.iter().zip(&simplex[0]).map(|(a, b)| (a - b).abs()).fold(0.0_f64, f64::max))
            .fold(0.0_f64, f64::max);
        if f_spread.abs() <= F_TOLERANCE && x_spread <= X_TOLERANCE {
            converged = true;
            break;
        }

        // Centroid of all but the worst vertex.
        let mut centroid = vec![0.0; dim];
        for v in &simplex[..dim] {
            for i in 0..dim {
                centroid[i] += v[i] / dim as f64;
            }
        }

        let worst = simplex[dim].clone();
        let reflected: Vec<f64> =
            centroid.iter().zip(&worst).map(|(c, w)| c + alpha * (c - w)).collect();
        let f_reflected = eval(&reflected, evaluations);

        if f_reflected < values[0] {
            // Try to expand further in the same direction.
            let expanded: Vec<f64> =
                centroid.iter().zip(&reflected).map(|(c, r)| c + gamma * (r - c)).collect();
            let f_expanded = eval(&expanded, evaluations);
            if f_expanded < f_reflected {
                simplex[dim] = expanded;
                values[dim] = f_expanded;
            } else {
                simplex[dim] = reflected;
                values[dim] = f_reflected;
            }
        } else if f_reflected < values[dim - 1] {
            simplex[dim] = reflected;
            values[dim] = f_reflected;
        } else {
            // Contract towards the centroid.
            let contracted: Vec<f64> =
                centroid.iter().zip(&worst).map(|(c, w)| c + rho * (w - c)).collect();
            let f_contracted = eval(&contracted, evaluations);
            if f_contracted < values[dim] {
                simplex[dim] = contracted;
                values[dim] = f_contracted;
            } else {
                // Shrink the whole simplex towards the best vertex.
                let best = simplex[0].clone();
                for idx in 1..=dim {
                    for i in 0..dim {
                        simplex[idx][i] = best[i] + sigma * (simplex[idx][i] - best[i]);
                    }
                    values[idx] = eval(&simplex[idx], evaluations);
                }
            }
        }
    }

    let best_idx = (0..values.len())
        .min_by(|&i, &j| values[i].total_cmp(&values[j]))
        .expect("the simplex always holds dim + 1 points");
    (simplex[best_idx].clone(), values[best_idx], converged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bounds_project_clamps_each_coordinate() {
        let b = Bounds::new(vec![0.0, -1.0], vec![1.0, 1.0]);
        let mut x = vec![2.0, -3.0];
        b.project(&mut x);
        assert_eq!(x, vec![1.0, -1.0]);
        assert!(b.contains(&x));
    }

    #[test]
    #[should_panic(expected = "exceeds upper bound")]
    fn bounds_reject_inverted_ranges() {
        let _ = Bounds::new(vec![1.0], vec![0.0]);
    }

    #[test]
    fn minimizes_a_quadratic_bowl() {
        let target = [0.3, 0.7];
        let result = nelder_mead(
            |x| (x[0] - target[0]).powi(2) + (x[1] - target[1]).powi(2),
            &[0.9, 0.1],
            &Bounds::unit(2),
            4000,
        );
        assert!(result.converged);
        assert!((result.point[0] - target[0]).abs() < 1e-4, "{:?}", result.point);
        assert!((result.point[1] - target[1]).abs() < 1e-4, "{:?}", result.point);
        assert!(result.value < 1e-7);
    }

    #[test]
    fn minimizes_rosenbrock_inside_box() {
        // The banana function restricted to [0, 2]^2 has its global minimum at (1, 1).
        let result = nelder_mead(
            |x| 100.0 * (x[1] - x[0] * x[0]).powi(2) + (1.0 - x[0]).powi(2),
            &[0.2, 1.8],
            &Bounds::new(vec![0.0, 0.0], vec![2.0, 2.0]),
            8000,
        );
        assert!((result.point[0] - 1.0).abs() < 1e-3, "{:?}", result.point);
        assert!((result.point[1] - 1.0).abs() < 1e-3, "{:?}", result.point);
    }

    #[test]
    fn respects_active_box_constraints() {
        // Unconstrained minimum at (-1, -1) is outside the unit box; the constrained minimum is
        // the origin corner.
        let result = nelder_mead(
            |x| (x[0] + 1.0).powi(2) + (x[1] + 1.0).powi(2),
            &[0.5, 0.5],
            &Bounds::unit(2),
            4000,
        );
        assert!(result.point[0] < 1e-5, "{:?}", result.point);
        assert!(result.point[1] < 1e-5, "{:?}", result.point);
        assert!(Bounds::unit(2).contains(&result.point));
    }

    #[test]
    fn recovers_from_boundary_collapse_via_restarts() {
        // Start at a corner far from the minimum with a strongly anisotropic objective. A single
        // projected run tends to collapse onto the boundary; restarts must recover.
        let (tx, ty) = (0.0, 0.13);
        let result = nelder_mead(
            |x| (x[0] - tx).powi(2) + 3.0 * (x[1] - ty).powi(2),
            &[0.86, 0.84],
            &Bounds::unit(2),
            4000,
        );
        assert!((result.point[0] - tx).abs() < 1e-3, "{:?}", result.point);
        assert!((result.point[1] - ty).abs() < 1e-3, "{:?}", result.point);
    }

    #[test]
    fn one_dimensional_problems_work() {
        let result = nelder_mead(|x| (x[0] - 0.25).powi(2), &[0.9], &Bounds::unit(1), 4000);
        assert!((result.point[0] - 0.25).abs() < 1e-5);
    }

    #[test]
    fn nan_objective_values_are_treated_as_infinite() {
        // The objective is NaN on half the box; the optimiser should still find the minimum of
        // the valid half instead of propagating NaN.
        let result = nelder_mead(
            |x| if x[0] < 0.5 { f64::NAN } else { (x[0] - 0.75).powi(2) },
            &[0.9],
            &Bounds::unit(1),
            4000,
        );
        assert!((result.point[0] - 0.75).abs() < 1e-4, "{:?}", result.point);
        assert!(result.value.is_finite());
    }

    #[test]
    fn respects_evaluation_budget() {
        let mut count = 0usize;
        let _ = nelder_mead(
            |x| {
                count += 1;
                x.iter().map(|v| v * v).sum()
            },
            &[0.5, 0.5, 0.5],
            &Bounds::unit(3),
            50,
        );
        // The shrink step may overshoot the budget by at most the simplex size per restart.
        assert!(count <= 50 + 8, "used {count} evaluations");
    }

    #[test]
    fn start_on_upper_boundary_still_builds_a_valid_simplex() {
        let result = nelder_mead(
            |x| (x[0] - 0.4).powi(2) + (x[1] - 0.6).powi(2),
            &[1.0, 1.0],
            &Bounds::unit(2),
            4000,
        );
        assert!((result.point[0] - 0.4).abs() < 1e-4);
        assert!((result.point[1] - 0.6).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn start_dimension_must_match_bounds() {
        let _ = nelder_mead(|x| x[0], &[0.1, 0.2], &Bounds::unit(1), 4000);
    }

    // Former proptest property, now a deterministic seeded loop.
    #[test]
    fn result_is_always_inside_the_box_and_no_worse_than_start() {
        let mut rng = StdRng::seed_from_u64(0x0E7_7001);
        for _ in 0..32 {
            let (sx, sy) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let (tx, ty) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let bounds = Bounds::unit(2);
            let objective = |x: &[f64]| (x[0] - tx).powi(2) + 3.0 * (x[1] - ty).powi(2);
            let start = [sx, sy];
            let start_value = objective(&start);
            let result = nelder_mead(objective, &start, &bounds, 4000);
            assert!(bounds.contains(&result.point));
            assert!(result.value <= start_value + 1e-12);
            // For a convex quadratic the restarted optimiser should find the target accurately.
            assert!((result.point[0] - tx).abs() < 1e-3, "{:?} vs ({tx}, {ty})", result.point);
            assert!((result.point[1] - ty).abs() < 1e-3, "{:?} vs ({tx}, {ty})", result.point);
        }
    }
}
