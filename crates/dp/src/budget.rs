//! Privacy parameters.
//!
//! Definition 4.2 of the paper is `(ε, δ)`-edge differential privacy; Theorem 4.9 (sequential
//! composition) says that running mechanisms that are `(ε₁, δ₁)`- and `(ε₂, δ₂)`-DP on the same
//! graph is `(ε₁ + ε₂, δ₁ + δ₂)`-DP. Algorithm 1 splits its total budget by its degree-budget
//! fraction `f` (one half in the paper): `(f·ε, 0)` for the degree sequence and
//! `((1 − f)·ε, δ)` for the triangle count, so the whole estimator is `(ε, δ)`-DP by
//! composition (Theorem 4.10 states the even split as `(2·(ε/2), δ)`).

use kronpriv_json::impl_json_struct;

/// A rejected `(ε, δ)` parameter pair, carrying the offending value.
///
/// Returned by [`PrivacyParams::try_new`]; the `Display` rendering is the exact message the
/// panicking [`PrivacyParams::new`] uses, so callers that migrate from `new` to `try_new` keep
/// their diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamError {
    /// `ε` was not a finite positive number.
    NonPositiveEpsilon(
        /// The rejected `ε` value.
        f64,
    ),
    /// `δ` was outside `[0, 1)` (or not finite).
    DeltaOutOfRange(
        /// The rejected `δ` value.
        f64,
    ),
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::NonPositiveEpsilon(e) => {
                write!(f, "epsilon must be positive, got {e}")
            }
            ParamError::DeltaOutOfRange(d) => write!(f, "delta must be in [0,1), got {d}"),
        }
    }
}

impl std::error::Error for ParamError {}

/// An `(ε, δ)` differential-privacy guarantee (or budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyParams {
    /// The multiplicative privacy-loss bound `ε`.
    pub epsilon: f64,
    /// The additive slack `δ` (0 for pure DP).
    pub delta: f64,
}

impl_json_struct!(PrivacyParams { epsilon, delta });

impl PrivacyParams {
    /// Creates a parameter pair, validating `ε > 0` and `δ ∈ [0, 1)`.
    ///
    /// # Panics
    /// Panics on invalid parameters. Use [`PrivacyParams::try_new`] to handle untrusted input
    /// (e.g. network requests) without panicking.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        match Self::try_new(epsilon, delta) {
            Ok(params) => params,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: validates `ε > 0` (finite) and `δ ∈ [0, 1)` and reports which
    /// parameter was rejected instead of panicking. This is the entry point for untrusted
    /// parameters — the HTTP server turns the error into a 400 response.
    pub fn try_new(epsilon: f64, delta: f64) -> Result<Self, ParamError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(ParamError::NonPositiveEpsilon(epsilon));
        }
        if !(0.0..1.0).contains(&delta) {
            return Err(ParamError::DeltaOutOfRange(delta));
        }
        Ok(PrivacyParams { epsilon, delta })
    }

    /// Pure `ε`-differential privacy (`δ = 0`).
    pub fn pure(epsilon: f64) -> Self {
        Self::new(epsilon, 0.0)
    }

    /// The paper's experimental setting: `ε = 0.2`, `δ = 0.01` (Table 1 caption).
    pub fn paper_default() -> Self {
        Self::new(0.2, 0.01)
    }
}

impl std::fmt::Display for PrivacyParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.delta == 0.0 {
            write!(f, "ε={}", self.epsilon)
        } else {
            write!(f, "(ε={}, δ={})", self.epsilon, self.delta)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_the_paper_setting() {
        let p = PrivacyParams::paper_default();
        assert_eq!(p.epsilon, 0.2);
        assert_eq!(p.delta, 0.01);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_is_rejected() {
        let _ = PrivacyParams::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "delta must be in [0,1)")]
    fn delta_of_one_is_rejected() {
        let _ = PrivacyParams::new(1.0, 1.0);
    }

    #[test]
    fn try_new_reports_the_offending_parameter() {
        assert_eq!(PrivacyParams::try_new(0.2, 0.01), Ok(PrivacyParams::paper_default()));
        assert_eq!(PrivacyParams::try_new(0.0, 0.01), Err(ParamError::NonPositiveEpsilon(0.0)));
        // NaN payloads are never equal to themselves, so match on the variant instead.
        assert!(matches!(
            PrivacyParams::try_new(f64::NAN, 0.0),
            Err(ParamError::NonPositiveEpsilon(e)) if e.is_nan()
        ));
        assert!(matches!(
            PrivacyParams::try_new(1.0, f64::NAN),
            Err(ParamError::DeltaOutOfRange(d)) if d.is_nan()
        ));
        assert_eq!(PrivacyParams::try_new(1.0, 1.0), Err(ParamError::DeltaOutOfRange(1.0)));
        assert_eq!(PrivacyParams::try_new(1.0, -0.1), Err(ParamError::DeltaOutOfRange(-0.1)));
        assert_eq!(
            PrivacyParams::try_new(-3.0, 0.0).unwrap_err().to_string(),
            "epsilon must be positive, got -3"
        );
        assert_eq!(
            PrivacyParams::try_new(1.0, 2.0).unwrap_err().to_string(),
            "delta must be in [0,1), got 2"
        );
    }

    #[test]
    fn pure_has_zero_delta() {
        assert_eq!(PrivacyParams::pure(0.5).delta, 0.0);
    }

    #[test]
    fn display_renders_pure_and_approximate_forms() {
        assert_eq!(format!("{}", PrivacyParams::pure(0.5)), "ε=0.5");
        assert_eq!(format!("{}", PrivacyParams::new(0.2, 0.01)), "(ε=0.2, δ=0.01)");
    }
}
