//! Multi-start minimisation: coarse grid scan followed by Nelder–Mead refinement of the most
//! promising starting points. This is the driver the KronMom and private estimators call.
//!
//! [`multistart_minimize`] runs the grid scan and every Nelder–Mead restart as independent
//! chunked tasks on an [`Executor`]; because each restart is a deterministic function of its
//! start point and the per-restart outcomes are reduced in start-index order with a
//! lowest-objective / lowest-index tie-break, it returns **bit-identical** results for every
//! thread count.

use crate::grid::grid_search;
use crate::nelder_mead::{nelder_mead, Bounds, NelderMeadOptions, OptimizationResult};
use kronpriv_par::{Executor, Work};

/// Cost hint for one Nelder–Mead restart: each restart runs up to hundreds of objective
/// evaluations, so a restart always dwarfs the spawn overhead.
const RESTART_WORK: Work = Work::per_item_ns(1_000_000);

/// Options for [`multistart_minimize`].
#[derive(Debug, Clone, Copy)]
pub struct MultistartOptions {
    /// Points per axis of the seeding grid.
    pub grid_points_per_axis: usize,
    /// How many of the best grid points to refine with Nelder–Mead.
    pub refine_top: usize,
    /// Options forwarded to each Nelder–Mead run.
    pub nelder_mead: NelderMeadOptions,
}

impl Default for MultistartOptions {
    fn default() -> Self {
        MultistartOptions {
            grid_points_per_axis: 7,
            refine_top: 5,
            nelder_mead: NelderMeadOptions::default(),
        }
    }
}

/// Minimises `f` over `bounds`: evaluates a coarse grid, refines the `refine_top` best grid
/// points with Nelder–Mead (plus any caller-provided extra starting points, projected into the
/// box) and returns the best result found.
///
/// The seeding grid is scanned with [`grid_search`] and every Nelder–Mead restart runs as an
/// independent chunked task on `exec`. Each restart is a pure function of its start point, the
/// per-restart outcomes are reduced in start-index order, and ties in the final objective value
/// are broken towards the lowest start index — so the result (point, value and evaluation
/// count) is **bit-identical** for every thread count. Requires a `Fn + Sync` objective:
/// workers share `f` by reference and need no locking.
pub fn multistart_minimize(
    f: impl Fn(&[f64]) -> f64 + Sync,
    bounds: &Bounds,
    extra_starts: &[Vec<f64>],
    options: &MultistartOptions,
    exec: &Executor,
) -> OptimizationResult {
    let grid = grid_search(&f, bounds, options.grid_points_per_axis, exec);
    let mut starts: Vec<Vec<f64>> =
        grid.iter().take(options.refine_top.max(1)).map(|p| p.point.clone()).collect();
    for s in extra_starts {
        let mut s = s.clone();
        bounds.project(&mut s);
        starts.push(s);
    }
    // One restart per chunk: restarts are few (single digits) and each is orders of magnitude
    // heavier than the chunk bookkeeping, so the finest decomposition gives the best balance.
    let outcomes = exec.map_reduce(
        starts.len(),
        1,
        RESTART_WORK,
        |range| {
            range
                .map(|i| nelder_mead(&f, &starts[i], bounds, &options.nelder_mead))
                .collect::<Vec<_>>()
        },
        |mut acc: Vec<OptimizationResult>, chunk| {
            acc.extend(chunk);
            acc
        },
        Vec::with_capacity(starts.len()),
    );
    // Keep the strictly-better result in start-index order: the lowest objective value, with
    // ties broken towards the lowest start index.
    let mut total_evaluations = grid.len();
    let mut best: Option<OptimizationResult> = None;
    for result in outcomes {
        total_evaluations += result.evaluations;
        if best.as_ref().is_none_or(|b| result.value < b.value) {
            best = Some(result);
        }
    }
    let mut best = best.expect("at least one start point is always refined");
    best.evaluations = total_evaluations;
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_global_minimum_of_a_two_well_function() {
        // Local minimum near (0.2, 0.2) with value ~0.05; global minimum near (0.8, 0.8) with
        // value ~0. Plain Nelder-Mead from a bad start can land in the shallow well; the grid
        // seeding should find the deep one.
        let f = |x: &[f64]| {
            let local = (x[0] - 0.2).powi(2) + (x[1] - 0.2).powi(2) + 0.05;
            let global = (x[0] - 0.8).powi(2) + (x[1] - 0.8).powi(2);
            local.min(global)
        };
        let result = multistart_minimize(
            f,
            &Bounds::unit(2),
            &[],
            &MultistartOptions::default(),
            &Executor::sequential(),
        );
        assert!((result.point[0] - 0.8).abs() < 1e-3, "{:?}", result.point);
        assert!((result.point[1] - 0.8).abs() < 1e-3, "{:?}", result.point);
        assert!(result.value < 1e-6);
    }

    #[test]
    fn extra_starts_are_used() {
        // Narrow spike minimum that a 3-point grid misses entirely; the caller-provided start is
        // right next to it.
        let f = |x: &[f64]| {
            let d = (x[0] - 0.33).abs();
            if d < 0.02 {
                d - 1.0
            } else {
                d
            }
        };
        let opts = MultistartOptions {
            grid_points_per_axis: 3,
            refine_top: 1,
            nelder_mead: NelderMeadOptions { initial_step: 0.01, ..Default::default() },
        };
        let result = multistart_minimize(
            f,
            &Bounds::unit(1),
            &[vec![0.335]],
            &opts,
            &Executor::sequential(),
        );
        assert!(result.value < -0.9, "value {}", result.value);
    }

    #[test]
    fn evaluation_count_includes_grid_and_refinements() {
        let opts = MultistartOptions {
            grid_points_per_axis: 4,
            refine_top: 2,
            nelder_mead: NelderMeadOptions { max_evaluations: 30, ..Default::default() },
        };
        let result = multistart_minimize(
            |x| x[0] * x[0],
            &Bounds::unit(1),
            &[],
            &opts,
            &Executor::sequential(),
        );
        assert!(result.evaluations >= 4, "grid evaluations should be counted");
        assert!(result.evaluations <= 4 + 2 * 40, "refinements are budget-limited");
    }

    #[test]
    fn result_stays_inside_the_box() {
        let bounds = Bounds::new(vec![0.2, 0.3], vec![0.8, 0.9]);
        let result = multistart_minimize(
            |x| (x[0] + 2.0).powi(2) + (x[1] + 2.0).powi(2),
            &bounds,
            &[],
            &MultistartOptions::default(),
            &Executor::sequential(),
        );
        assert!(bounds.contains(&result.point));
        assert!((result.point[0] - 0.2).abs() < 1e-6);
        assert!((result.point[1] - 0.3).abs() < 1e-6);
    }

    #[test]
    fn parallel_driver_is_bit_identical_to_sequential_for_all_thread_counts() {
        let f = |x: &[f64]| {
            let local = (x[0] - 0.2).powi(2) + (x[1] - 0.2).powi(2) + 0.05;
            let global = (x[0] - 0.8).powi(2) + (x[1] - 0.8).powi(2);
            local.min(global)
        };
        let bounds = Bounds::unit(2);
        let opts = MultistartOptions::default();
        let reference =
            multistart_minimize(f, &bounds, &[vec![0.5, 0.1]], &opts, &Executor::sequential());
        for threads in [1usize, 2, 8] {
            let got =
                multistart_minimize(f, &bounds, &[vec![0.5, 0.1]], &opts, &Executor::new(threads));
            assert_eq!(got.value.to_bits(), reference.value.to_bits(), "threads {threads}");
            assert_eq!(got.evaluations, reference.evaluations, "threads {threads}");
            for (a, b) in got.point.iter().zip(&reference.point) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads {threads}");
            }
        }
    }

    #[test]
    fn equal_objective_ties_break_towards_the_lowest_index_start() {
        // Two flat-bottomed wells that both reach exactly 0.0, so several restarts tie on the
        // final objective value. The deterministic rule — lowest objective, then lowest start
        // index — must pick the same well for every thread count (and for the sequential
        // driver on one thread): the left well, because the stable grid sort puts its seed first.
        let f = |x: &[f64]| {
            let d = (x[0] - 0.25).abs().min((x[0] - 0.75).abs());
            (d - 0.1).max(0.0)
        };
        let bounds = Bounds::unit(1);
        let opts = MultistartOptions {
            grid_points_per_axis: 5, // lattice {0, 0.25, 0.5, 0.75, 1}: seeds in both wells
            refine_top: 2,
            nelder_mead: NelderMeadOptions::default(),
        };
        let reference = multistart_minimize(f, &bounds, &[], &opts, &Executor::sequential());
        assert_eq!(reference.value, 0.0);
        assert!(reference.point[0] < 0.5, "tie must resolve to the left well: {reference:?}");
        for threads in [1usize, 2, 8] {
            let got = multistart_minimize(f, &bounds, &[], &opts, &Executor::new(threads));
            assert_eq!(got.value, 0.0, "threads {threads}");
            assert_eq!(
                got.point[0].to_bits(),
                reference.point[0].to_bits(),
                "threads {threads}: {got:?}"
            );
        }
    }

    #[test]
    fn three_dimensional_recovery_matches_target() {
        // Structured like the (a, b, c) fitting problem: recover a known triple from a smooth
        // discrepancy function.
        let target = [0.99, 0.45, 0.25];
        let f =
            |x: &[f64]| x.iter().zip(&target).map(|(xi, ti)| (xi - ti) * (xi - ti)).sum::<f64>();
        let result = multistart_minimize(
            f,
            &Bounds::unit(3),
            &[],
            &MultistartOptions::default(),
            &Executor::sequential(),
        );
        for (p, t) in result.point.iter().zip(&target) {
            assert!((p - t).abs() < 1e-3, "{:?}", result.point);
        }
    }
}
