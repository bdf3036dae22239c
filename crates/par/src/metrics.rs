//! Executor instrumentation: pre-resolved handles into the process-global
//! [`kronpriv_obs::Registry`], so the hot dispatch path pays only relaxed atomic adds. The one
//! lookup left is each spawned helper's busy counter, made on the helper's own thread.
//!
//! Series (all under the `kronpriv_par_` prefix):
//!
//! * `kronpriv_par_calls_total{mode, work}` — map/fold-reduce calls, by cutoff decision
//!   (`inline` / `pooled`) and [`crate::Work`] class (`light` / `moderate` / `heavy` /
//!   `custom`).
//! * `kronpriv_par_chunks_total{mode}` — planned chunks, by cutoff decision.
//! * `kronpriv_par_helpers_engaged_total` — helper threads spawned across pooled calls.
//! * `kronpriv_par_call_ns{mode}` — whole-call wall time histogram.
//! * `kronpriv_par_queue_wait_ns` — latency histogram from a helper's spawn to its start.
//! * `kronpriv_par_worker_busy_ns_total{worker}` — nanoseconds helpers spent running their
//!   calls' chunks, labelled by the helper's ordinal within its call (`0` is each call's first
//!   helper).
//!
//! Everything here is reporting-only: the executor never reads these values back.

use kronpriv_obs::{Counter, Histogram, Registry};
use std::sync::{Arc, OnceLock};

/// Index of the inline mode in the per-mode instrument arrays.
pub(crate) const INLINE: usize = 0;
/// Index of the pooled mode in the per-mode instrument arrays.
pub(crate) const POOLED: usize = 1;

const MODES: [&str; 2] = ["inline", "pooled"];
const WORK_CLASSES: [&str; 4] = ["light", "moderate", "heavy", "custom"];

/// The executor's resolved instrument handles.
pub(crate) struct ExecMetrics {
    /// `[mode][work class]` call counts.
    pub(crate) calls: [[Arc<Counter>; 4]; 2],
    /// `[mode]` planned chunk counts.
    pub(crate) chunks: [Arc<Counter>; 2],
    /// Helper threads spawned across all pooled calls.
    pub(crate) helpers_engaged: Arc<Counter>,
    /// `[mode]` whole-call wall time.
    pub(crate) call_ns: [Arc<Histogram>; 2],
    /// Spawn-to-start latency, recorded once per helper.
    pub(crate) queue_wait_ns: Arc<Histogram>,
}

/// The process-global executor metrics, resolved on first use.
pub(crate) fn exec_metrics() -> &'static ExecMetrics {
    static METRICS: OnceLock<ExecMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = Registry::global();
        ExecMetrics {
            calls: MODES.map(|mode| {
                WORK_CLASSES.map(|work| {
                    registry.counter("kronpriv_par_calls_total", &[("mode", mode), ("work", work)])
                })
            }),
            chunks: MODES
                .map(|mode| registry.counter("kronpriv_par_chunks_total", &[("mode", mode)])),
            helpers_engaged: registry.counter("kronpriv_par_helpers_engaged_total", &[]),
            call_ns: MODES
                .map(|mode| registry.histogram("kronpriv_par_call_ns", &[("mode", mode)])),
            queue_wait_ns: registry.histogram("kronpriv_par_queue_wait_ns", &[]),
        }
    })
}

/// The busy-time counter for the helper with ordinal `ordinal` within its call, resolved once
/// per helper.
pub(crate) fn worker_busy_counter(ordinal: usize) -> Arc<Counter> {
    Registry::global()
        .counter("kronpriv_par_worker_busy_ns_total", &[("worker", &ordinal.to_string())])
}
