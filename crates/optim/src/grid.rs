//! Coarse grid evaluation over a box.
//!
//! The moment-matching objective can have several local minima (especially when the triangle
//! count is noisy), so the fitting code first scans a coarse lattice over the parameter box and
//! then refines the most promising cells with Nelder–Mead. This module provides the scan.

use crate::nelder_mead::Bounds;
use kronpriv_par::{Executor, Work};

/// Lattice indices per chunk of the parallel scan. Fixed (thread-count-independent) so the
/// evaluation set decomposes identically for every `Executor`.
const GRID_CHUNK: usize = 32;

/// Cost hint for one lattice evaluation: the objectives scanned here (moment discrepancies,
/// likelihoods) are far heavier than the per-point bookkeeping.
const GRID_WORK: Work = Work::HEAVY;

/// One evaluated grid point.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Coordinates of the grid point.
    pub point: Vec<f64>,
    /// Objective value at the point.
    pub value: f64,
}

/// The coordinates of lattice point `index` (row-major with the first axis fastest).
fn lattice_point(index: usize, bounds: &Bounds, points_per_axis: usize) -> Vec<f64> {
    let mut rest = index;
    (0..bounds.dim())
        .map(|i| {
            let digit = rest % points_per_axis;
            rest /= points_per_axis;
            let t = digit as f64 / (points_per_axis - 1) as f64;
            bounds.lower[i] + t * (bounds.upper[i] - bounds.lower[i])
        })
        .collect()
}

/// Evaluates `f` on a regular lattice with `points_per_axis` points per axis (endpoints
/// included) and returns all evaluated points sorted by increasing objective value. NaN
/// objective values are treated as `+∞`.
///
/// The lattice has `points_per_axis ^ dim` points, so this is intended for low-dimensional
/// problems (the estimators use `dim = 3`). It is split into fixed `GRID_CHUNK`-sized index
/// chunks evaluated concurrently on `exec` and concatenated in chunk order, so the output —
/// including the stable-sort order of equal-valued points — is **bit-identical** for every
/// thread count. `f` is shared by the workers, so it must be a pure function of the point.
///
/// # Panics
/// Panics if `points_per_axis < 2` or the dimension is zero.
pub fn grid_search(
    f: impl Fn(&[f64]) -> f64 + Sync,
    bounds: &Bounds,
    points_per_axis: usize,
    exec: &Executor,
) -> Vec<GridPoint> {
    assert!(bounds.dim() > 0, "cannot grid-search a zero-dimensional problem");
    assert!(points_per_axis >= 2, "need at least two points per axis");
    let total = points_per_axis.pow(bounds.dim() as u32);
    let mut results = exec.map_reduce(
        total,
        GRID_CHUNK,
        GRID_WORK,
        |range| {
            range
                .map(|index| {
                    let point = lattice_point(index, bounds, points_per_axis);
                    let raw = f(&point);
                    let value = if raw.is_nan() { f64::INFINITY } else { raw };
                    GridPoint { point, value }
                })
                .collect::<Vec<_>>()
        },
        |mut acc: Vec<GridPoint>, chunk| {
            acc.extend(chunk);
            acc
        },
        Vec::with_capacity(total),
    );
    // The sort is stable, so equal-valued points stay in lattice-enumeration order (the
    // tie-break the multistart seeding relies on).
    results.sort_by(|a, b| a.value.total_cmp(&b.value));
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_the_expected_number_of_points() {
        let pts = grid_search(|x| x.iter().sum(), &Bounds::unit(2), 5, &Executor::sequential());
        assert_eq!(pts.len(), 25);
    }

    #[test]
    fn results_are_sorted_by_value() {
        let pts =
            grid_search(|x| (x[0] - 0.5).abs(), &Bounds::unit(1), 11, &Executor::sequential());
        assert!(pts.windows(2).all(|w| w[0].value <= w[1].value));
        assert!((pts[0].point[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn endpoints_are_included() {
        let pts =
            grid_search(|x| x[0], &Bounds::new(vec![-1.0], vec![3.0]), 3, &Executor::sequential());
        let coords: Vec<f64> = pts.iter().map(|p| p.point[0]).collect();
        assert!(coords.contains(&-1.0));
        assert!(coords.contains(&1.0));
        assert!(coords.contains(&3.0));
    }

    #[test]
    fn finds_the_best_cell_of_a_multimodal_function() {
        // Two wells at x=0.1 and x=0.9; the deeper one is at 0.9.
        let f = |x: &[f64]| {
            let w1 = (x[0] - 0.1).powi(2);
            let w2 = (x[0] - 0.9).powi(2) - 0.5;
            w1.min(w2)
        };
        let pts = grid_search(f, &Bounds::unit(1), 21, &Executor::sequential());
        assert!((pts[0].point[0] - 0.9).abs() < 0.06);
    }

    #[test]
    fn nan_values_sort_last() {
        let pts = grid_search(
            |x| if x[0] < 0.5 { f64::NAN } else { x[0] },
            &Bounds::unit(1),
            5,
            &Executor::sequential(),
        );
        assert!(pts.first().unwrap().value.is_finite());
        assert!(pts.last().unwrap().value.is_infinite());
    }

    #[test]
    fn three_dimensional_grid_has_cubic_size() {
        let pts = grid_search(|x| x.iter().sum(), &Bounds::unit(3), 4, &Executor::sequential());
        assert_eq!(pts.len(), 64);
        // Best point of a sum objective on the unit box is the origin.
        assert!(pts[0].point.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn rejects_degenerate_grids() {
        let _ = grid_search(|x| x[0], &Bounds::unit(1), 1, &Executor::sequential());
    }

    #[test]
    fn parallel_scan_is_bit_identical_to_sequential_for_all_thread_counts() {
        // A non-trivial multimodal objective over a 3D lattice large enough to span many
        // chunks; includes exact value ties (the objective only depends on two coordinates) so
        // the stable tie-break order is exercised.
        let f =
            |x: &[f64]| ((x[0] - 0.3).abs() * 10.0).round() + ((x[1] - 0.7).abs() * 10.0).round();
        let bounds = Bounds::unit(3);
        let reference = grid_search(f, &bounds, 9, &Executor::sequential());
        for threads in [1usize, 2, 8] {
            let got = grid_search(f, &bounds, 9, &Executor::new(threads));
            assert_eq!(got.len(), reference.len(), "threads {threads}");
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "threads {threads}");
                assert_eq!(a.point.len(), b.point.len());
                for (pa, pb) in a.point.iter().zip(&b.point) {
                    assert_eq!(pa.to_bits(), pb.to_bits(), "threads {threads}");
                }
            }
        }
    }

    #[test]
    fn parallel_scan_handles_nan_like_sequential() {
        let f = |x: &[f64]| if x[0] < 0.5 { f64::NAN } else { x[0] };
        let seq = grid_search(f, &Bounds::unit(1), 129, &Executor::sequential());
        let par = grid_search(f, &Bounds::unit(1), 129, &Executor::new(4));
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        assert!(par.last().unwrap().value.is_infinite());
    }
}
