//! `kronpriv-dp` — the differential-privacy toolkit used by the private SKG estimator.
//!
//! The paper's Algorithm 1 needs four private quantities: the edge count `Ẽ`, hairpin count `H̃`
//! and tripin count `T̃` (all derived from a private degree sequence, Fact 4.6) and the triangle
//! count `Δ̃` (released through the smooth-sensitivity mechanism of Nissim et al., Theorem 4.8).
//! This crate implements the building blocks:
//!
//! * [`laplace`] — the Laplace distribution and the global-sensitivity Laplace mechanism of
//!   Dwork et al. (Theorem 4.5),
//! * [`budget`] — `(ε, δ)` privacy parameters, splitting, and sequential composition
//!   (Theorem 4.9),
//! * [`degree`] — Hay et al.'s differentially private sorted degree sequence: Laplace noise with
//!   global sensitivity 2, followed by constrained-inference post-processing (isotonic
//!   regression), plus the `Ẽ/H̃/T̃` derivation,
//! * [`smooth`] — local sensitivity, `β`-smooth sensitivity of the triangle count, and the
//!   `(ε, δ)` triangle-count release.
//!
//! Everything is deterministic given the caller-supplied RNG, so experiments are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod degree;
pub mod laplace;
pub mod smooth;

pub use budget::{ParamError, PrivacyParams};
pub use degree::{isotonic_increasing_par, private_degree_sequence, PrivateDegreeSequence};
pub use laplace::{laplace_mechanism, sample_laplace, LaplaceNoise};
pub use smooth::{
    private_triangle_count, smooth_sensitivity_triangles, triangle_local_sensitivity,
    PrivateTriangleCount,
};
