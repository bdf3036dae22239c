//! `kronpriv-obs` — the workspace's std-only observability core.
//!
//! Three small layers, shared by every crate from the executor up to the HTTP server:
//!
//! * [`Counter`], [`Gauge`] and [`Histogram`] — lock-free atomic instruments. Histograms use
//!   fixed power-of-two nanosecond buckets so recording is a shift and two atomic adds.
//! * [`Registry`] — a process-global, get-or-create instrument registry keyed by
//!   `(name, sorted labels)`, with a deterministic Prometheus-style text dump ([`Registry::render`]).
//! * [`ProgressEvent`] / [`ProgressSink`] — typed progress hooks the estimator loops emit into
//!   (stage boundaries, per-chain KronFit steps) so callers such as the HTTP job store can
//!   stream live progress without the compute code knowing about HTTP or JSON.
//! * [`stage`] — the one stage vocabulary: a named stage is reported as a start/finish event
//!   pair and as the `kronpriv_stage_ns{stage=...}` histogram under the same name.
//!
//! # The no-feedback invariant
//!
//! Instrumentation must never change what is computed. Code in this crate reads clocks and
//! bumps atomics strictly for *reporting*: no instrument value ever flows back into a branch,
//! a chunk size, a scheduling decision or an RNG. Consequently a run with every span recorded
//! and the registry scraped mid-flight is byte-identical to the same seed with the
//! instrumentation left cold — pinned by `tests/observability_determinism.rs` at the
//! workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod progress;
mod registry;

pub use metrics::{Counter, Gauge, Histogram, Span, HISTOGRAM_BUCKETS};
pub use progress::{CollectingSink, NullSink, ProgressEvent, ProgressSink};
pub use registry::{stage, well_formed_exposition_line, Registry};
