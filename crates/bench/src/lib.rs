//! `kronpriv-bench` — the experiment harness that regenerates every table and figure of the
//! paper, plus the hand-rolled timing harness ([`harness`]) behind the micro-benchmarks.
//!
//! Three binaries are built from this crate:
//!
//! * `table1` — re-runs the three estimators on all four evaluation graphs and prints the
//!   measured (a, b, c) next to the values published in Table 1,
//! * `figures` — computes the five statistic families of Figures 1–4 for the original graph and
//!   for synthetic graphs generated from each estimate (optionally averaged over many
//!   realizations, the paper's "Expected" series), writing JSON + TSV under
//!   `target/experiments/`,
//! * `ablation` — the additional studies listed in DESIGN.md: smooth sensitivity versus graph
//!   size, the ε sweep, and the Dist × Norm objective grid.
//!
//! All entry points are ordinary library functions so the integration tests can exercise them
//! at reduced scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod figures;
pub mod harness;
pub mod table1;

use kronpriv::prelude::*;
use kronpriv_estimate::KronFitOptions;
use std::path::Path;

/// Default privacy budget used by all experiments: the paper's ε = 0.2, δ = 0.01.
pub fn paper_budget() -> PrivacyParams {
    PrivacyParams::paper_default()
}

/// KronFit options used by the harness. The defaults in `kronpriv-estimate` are tuned for
/// accuracy; experiments override the chain lengths downwards when `quick` is set so the full
/// table can be regenerated in seconds during development.
pub fn kronfit_options(quick: bool) -> KronFitOptions {
    if quick {
        KronFitOptions {
            gradient_steps: 25,
            warmup_swaps: 8_000,
            samples_per_step: 2,
            swaps_between_samples: 1_000,
            ..Default::default()
        }
    } else {
        KronFitOptions::default()
    }
}

/// Profile options used by the figure harness.
pub fn profile_options(quick: bool) -> ProfileOptions {
    ProfileOptions {
        scree_values: if quick { 20 } else { 100 },
        network_values: if quick { 200 } else { 1000 },
    }
}

/// [`Dataset::load_or_generate`], with an error message that names the SNAP file that exists
/// but could not be read or parsed.
pub fn load_dataset(
    dataset: Dataset,
    data_dir: Option<&Path>,
    seed: u64,
) -> Result<(Graph, bool), String> {
    dataset.load_or_generate(data_dir, seed).map_err(|e| {
        let path = dataset.snap_path(data_dir).unwrap_or_default();
        format!("{dataset}: {}: {e}", path.display())
    })
}

/// Formats an initiator as the three-decimal triple used in the printed tables.
pub fn format_theta(theta: &Initiator2) -> String {
    format!("{:.3} / {:.3} / {:.3}", theta.a, theta.b, theta.c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_budget_matches_table_one_caption() {
        let b = paper_budget();
        assert_eq!(b.epsilon, 0.2);
        assert_eq!(b.delta, 0.01);
    }

    #[test]
    fn quick_options_are_cheaper_than_full_options() {
        assert!(kronfit_options(true).gradient_steps < kronfit_options(false).gradient_steps);
        assert!(profile_options(true).scree_values < profile_options(false).scree_values);
    }

    #[test]
    fn theta_formatting_is_stable() {
        let t = Initiator2::new(1.0, 0.4674, 0.279);
        assert_eq!(format_theta(&t), "1.000 / 0.467 / 0.279");
    }
}
