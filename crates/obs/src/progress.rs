//! Typed progress events and the sink trait the estimator loops emit into.
//!
//! The compute crates (`kronpriv-estimate`, `kronpriv`) take a `&dyn ProgressSink` in every
//! entry point that reports progress and call [`ProgressSink::emit`] at
//! stage boundaries and per-chain KronFit steps. What a sink *does* with an event — append it
//! to a job log, stream it over HTTP, drop it — is entirely the caller's business; nothing a
//! sink returns can alter the computation (emit returns `()`), preserving the crate-level
//! no-feedback invariant.

use std::sync::Mutex;

/// One typed progress observation from inside a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// A named pipeline stage began (e.g. `degree_release`, `isotonic`, `triangle_release`,
    /// `fit`).
    StageStarted {
        /// Stable stage identifier.
        stage: &'static str,
    },
    /// The named pipeline stage finished.
    StageFinished {
        /// Stable stage identifier.
        stage: &'static str,
    },
    /// One KronFit gradient-ascent step finished on one MCMC chain.
    ChainStep {
        /// Chain index in `0..chains`.
        chain: usize,
        /// Gradient step index in `0..total_steps` (zero-based).
        step: usize,
        /// Configured number of gradient steps.
        total_steps: usize,
        /// Log-likelihood of the chain's current state, when the sink asked for it via
        /// [`ProgressSink::wants_chain_likelihood`]; `NaN` otherwise. The extra likelihood
        /// evaluation consumes no randomness, so requesting it never changes results.
        log_likelihood: f64,
    },
}

/// Receiver of [`ProgressEvent`]s. Implementations must be cheap and non-blocking-ish: events
/// are emitted from inside parallel estimator loops.
pub trait ProgressSink: Sync {
    /// Receives one event. The return type is `()` by design — sinks cannot steer compute.
    fn emit(&self, event: &ProgressEvent);

    /// Whether [`ProgressEvent::ChainStep`] events should carry a freshly evaluated
    /// log-likelihood. Defaults to `false` so un-observed runs skip the extra evaluation.
    fn wants_chain_likelihood(&self) -> bool {
        false
    }
}

/// Discards every event — what a caller passes when it does not want progress reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ProgressSink for NullSink {
    fn emit(&self, _event: &ProgressEvent) {}
}

/// Collects every event in order — for tests and the determinism pin.
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Mutex<Vec<ProgressEvent>>,
    want_likelihood: bool,
}

impl CollectingSink {
    /// A collector that does not request chain likelihoods.
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }

    /// A collector that requests per-step chain log-likelihoods.
    pub fn with_chain_likelihood() -> CollectingSink {
        CollectingSink { events: Mutex::new(Vec::new()), want_likelihood: true }
    }

    /// Everything emitted so far, in emission order.
    pub fn events(&self) -> Vec<ProgressEvent> {
        self.events.lock().expect("collecting sink poisoned").clone()
    }
}

impl ProgressSink for CollectingSink {
    fn emit(&self, event: &ProgressEvent) {
        self.events.lock().expect("collecting sink poisoned").push(event.clone());
    }

    fn wants_chain_likelihood(&self) -> bool {
        self.want_likelihood
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_sink_preserves_order_and_contents() {
        let sink = CollectingSink::new();
        sink.emit(&ProgressEvent::StageStarted { stage: "degree_release" });
        sink.emit(&ProgressEvent::ChainStep {
            chain: 1,
            step: 0,
            total_steps: 5,
            log_likelihood: -12.5,
        });
        sink.emit(&ProgressEvent::StageFinished { stage: "degree_release" });
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0], ProgressEvent::StageStarted { stage: "degree_release" });
        assert!(matches!(events[1], ProgressEvent::ChainStep { chain: 1, .. }));
        assert!(!sink.wants_chain_likelihood());
        assert!(CollectingSink::with_chain_likelihood().wants_chain_likelihood());
    }

    #[test]
    fn null_sink_is_object_safe_and_silent() {
        let sink: &dyn ProgressSink = &NullSink;
        sink.emit(&ProgressEvent::StageStarted { stage: "fit" });
        assert!(!sink.wants_chain_likelihood());
    }
}
