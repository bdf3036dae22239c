//! `kronpriv-optim` — derivative-free box-constrained minimisation.
//!
//! The moment-matching objective of Equation (2) is a smooth but non-convex function of the
//! three initiator parameters over the box `0 ≤ c ≤ a ≤ 1`, `0 ≤ b ≤ 1`. Gleich & Owen's
//! reference MATLAB code minimises it with `fminsearch` (Nelder–Mead) from a handful of starting
//! points; this crate reproduces that strategy from scratch:
//!
//! * [`nelder_mead`] — a projection-based box-constrained Nelder–Mead simplex method,
//! * [`grid`] — coarse grid evaluation used to seed the simplex,
//! * [`multistart`] — the driver that combines the two and returns the best local minimum.
//!
//! The code is written against a plain `Fn(&[f64]) -> f64` objective so the estimators stay
//! decoupled from the optimiser. The grid scan and the multistart restarts run on the
//! deterministic `kronpriv-par` executor: for a pure (`Fn + Sync`) objective they return
//! bit-identical results for every thread count, so the pool size is purely a performance
//! control — the same contract the counting kernels already honour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod multistart;
pub mod nelder_mead;

pub use grid::grid_search;
pub use multistart::{multistart_minimize, MultistartOptions};
pub use nelder_mead::{nelder_mead, Bounds, NelderMeadOptions, OptimizationResult};
