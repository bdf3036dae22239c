//! End-to-end benchmark of the kronpriv system.
//!
//! Three closed-loop workloads, each run in its own process:
//!
//! * `release-k17` — the whole Algorithm 1 release in-process, one op at a time on
//!   `Executor::new(2)`: parse a 2^17-node SKG edge list, then
//!   `try_release_synthetic_graph_observed` at ε = 0.2, δ = 0.01. Graph construction and
//!   sampling dominate; no server code runs.
//! * `dataset-k14` — the metered service at the paper's Table 1 scale: an in-process
//!   `kronpriv_server::serve` on a fresh data dir, a 2^14 dataset uploaded at set-up, and two
//!   clients that each submit `POST /api/v1/datasets/{name}/estimate` and follow `/events` to
//!   the terminal event. Short jobs, so HTTP, JSON, the ledger, the durable store and the
//!   per-job re-parse carry the time.
//! * `kronfit-k14` — the same server, two clients posting inline-SKG KronFit baseline jobs:
//!   the only workload where `estimate::kronfit` runs; long jobs, few requests.
//!
//! Every layer is measured from outside: calls into public functions and HTTP routes are
//! timed, progress events are timestamped as they reach a bench-owned sink or the client, and
//! counter deltas come from the metrics registry. With `--trace 0` a run reports the
//! end-to-end metrics; with `--trace 1` it alternates traced and untraced ops and reports the
//! per-layer split.

pub mod check;
pub mod input;
pub mod measure;
pub mod release;
pub mod service;
pub mod trace;

use check::Tally;
use kronpriv_json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::Layers;

/// The initiator every workload's input is drawn from.
pub const THETA: [f64; 3] = [0.99, 0.45, 0.25];

/// Client threads (and so concurrent connections) of the server workloads, and compute
/// threads everywhere. Fixed, so the workloads do not change with the host; the workloads
/// were sized on a two-thread host, and each run records `host_threads`.
pub const THREADS: usize = 2;

/// The end-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics (`--trace 1`): name and unit. A layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("graph.parse_ms", "ms"),
    ("graph.materialize_ms", "ms"),
    ("skg.sample_ms", "ms"),
    ("skg.synthetic_edges", "count"),
    ("skg.realize_ms", "ms"),
    ("dp.degree_release_ms", "ms"),
    ("dp.triangle_release_ms", "ms"),
    ("estimate.fit_ms", "ms"),
    ("estimate.kronfit_ms", "ms"),
    ("estimate.kronfit_step_ms", "ms"),
    ("estimate.chain_steps", "count"),
    ("http.submit_ms", "ms"),
    ("jobs.start_ms", "ms"),
    ("jobs.finish_ms", "ms"),
    ("http.result_bytes", "bytes"),
    ("store.records_per_op", "count/op"),
    ("store.snapshots_per_op", "count/op"),
    ("ledger.debits_per_op", "count/op"),
    ("par.pooled_calls", "count/op"),
    ("par.inline_calls", "count/op"),
    ("par.worker_busy_ms", "ms/op"),
    ("par.queue_wait_ms", "ms/op"),
    ("trace.op_ms_p50", "ms"),
    ("trace.coverage_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process Algorithm 1 release at 2^17 nodes.
    ReleaseK17,
    /// Metered dataset estimate jobs over HTTP at 2^14 nodes.
    DatasetK14,
    /// Inline-SKG KronFit baseline jobs over HTTP at 2^14 nodes.
    KronfitK14,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::ReleaseK17, Workload::DatasetK14, Workload::KronfitK14];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReleaseK17 => "release-k17",
            Workload::DatasetK14 => "dataset-k14",
            Workload::KronfitK14 => "kronfit-k14",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run needs. [`RunConfig::new`] gives the benchmark's settings; the smoke
/// tests shrink the sizes.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seeds the input graph and every op's request seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Alternate traced and untraced ops and report the per-layer metrics.
    pub trace: bool,
    /// Kronecker order of the input graph.
    pub order: u32,
    /// The timed phase runs on past `seconds` until this many ops have completed, so that ten
    /// lie beyond p90.
    pub min_ops: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Untimed ops between set-up and the timed phase.
    pub warmup_ops: usize,
}

impl RunConfig {
    /// The benchmark's settings for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> RunConfig {
        let (order, warmup_ops) = match workload {
            Workload::ReleaseK17 => (17, 0),
            // Past the server's 1024-job retention cap: from there on every snapshot embeds a
            // full table of retained results, as in a long-running service.
            Workload::DatasetK14 => (14, 1100),
            Workload::KronfitK14 => (14, 4),
        };
        RunConfig { workload, seed, seconds, trace, order, min_ops: 100, setup_reps: 5, warmup_ops }
    }

    /// When a timed phase that began at `started` stops even short of `min_ops`, so that a
    /// run always ends within the time allowed for it.
    pub fn hard_stop(&self, started: Instant) -> Instant {
        started + Duration::from_secs_f64(self.seconds * 2.0 + 30.0)
    }
}

/// One timed op.
#[derive(Debug)]
pub struct OpSample {
    /// Wall time of the op.
    pub ms: f64,
    /// Whether the op was traced (its `layers` filled in).
    pub traced: bool,
    /// Per-layer values of a traced op.
    pub layers: Layers,
}

/// The timed phase of a run.
#[derive(Debug, Default)]
pub struct Phase {
    /// Completed ops.
    pub ops: Vec<OpSample>,
    /// Wall time of the phase.
    pub wall_s: f64,
    /// Process CPU time spent during the phase.
    pub cpu_ms: f64,
    /// Registry counter deltas over the phase (traced runs only).
    pub counters: Vec<(&'static str, f64)>,
}

impl Phase {
    /// The per-layer metrics of a traced run, the end-to-end metrics otherwise.
    pub fn metrics(&self, cfg: &RunConfig, setup_s: &[f64]) -> Result<Vec<Metric>, String> {
        if self.ops.is_empty() {
            return Err("no op of the timed phase completed".to_string());
        }
        Ok(if cfg.trace { per_layer(self) } else { end_to_end(setup_s, self) })
    }
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
}

/// What a run produced: the tally of judged ops, the metrics and the context record.
#[derive(Debug)]
pub struct Outcome {
    /// Judged ops and failures.
    pub tally: Tally,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Facts about the run: inputs, thread and connection counts, code identity.
    pub context: Vec<(&'static str, Json)>,
}

/// Runs one workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::ReleaseK17 => release::run(cfg),
        Workload::DatasetK14 | Workload::KronfitK14 => service::run(cfg),
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(setup_s: &[f64], phase: &Phase) -> Vec<Metric> {
    let times: Vec<f64> = phase.ops.iter().map(|op| op.ms).collect();
    let ops = times.len();
    let values = [
        (measure::median(setup_s), setup_s.len()),
        (measure::quantile(&times, 0.5), ops),
        (measure::quantile(&times, 0.9), ops),
        (ops as f64 / phase.wall_s, ops),
        (phase.cpu_ms / ops as f64, ops),
        (measure::peak_rss_mb(), 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric { name, unit, value, samples })
        .collect()
}

/// The per-layer metrics of a traced run: the median of each layer over the traced ops,
/// counter deltas per op, and the traced against the untraced op time.
fn per_layer(phase: &Phase) -> Vec<Metric> {
    let mut by_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for op in phase.ops.iter().filter(|op| op.traced) {
        for (&name, &value) in &op.layers {
            by_layer.entry(name).or_default().push(value);
        }
    }
    let times = |traced: bool| -> Vec<f64> {
        phase.ops.iter().filter(|op| op.traced == traced).map(|op| op.ms).collect()
    };
    let (traced, untraced) = (times(true), times(false));
    let ops = phase.ops.len().max(1);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = if let Some(&(_, delta)) =
                phase.counters.iter().find(|(counter, _)| *counter == name)
            {
                (delta / ops as f64, ops)
            } else if name == "trace.op_ms_p50" {
                (measure::median(&traced), traced.len())
            } else if name == "trace.overhead_frac" {
                (measure::median(&traced) / measure::median(&untraced) - 1.0, phase.ops.len())
            } else {
                let values = by_layer.get(name).map_or(&[][..], Vec::as_slice);
                (if values.is_empty() { 0.0 } else { measure::median(values) }, values.len())
            };
            Metric { name, unit, value, samples }
        })
        .collect()
}

/// The last line of a run's output: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome.metrics.iter().map(|m| {
        let value =
            object(&[("value", Json::Number(m.value)), ("unit", Json::String(m.unit.to_string()))]);
        (m.name.to_string(), value)
    });
    let tally = &outcome.tally;
    object(&[
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Number(tally.attempted as f64)),
        ("failed", Json::Number(tally.failed as f64)),
        ("metrics", Json::Object(metrics.collect())),
    ])
    .to_compact_string()
}

/// The record line printed before the result: the run's context, its error rate and failure
/// messages, and the sample count behind every metric.
pub fn record_line(cfg: &RunConfig, outcome: &Outcome) -> String {
    // The checkout this binary was built from: its program is the code under test.
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let string_or_null = |s: Option<String>| s.map_or(Json::Null, Json::String);
    let failures = outcome.tally.failures.iter().cloned().map(Json::String).collect();
    let mut fields = vec![
        ("workload", Json::String(cfg.workload.name().to_string())),
        ("seed", Json::Number(cfg.seed as f64)),
        ("seconds", Json::Number(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("host_threads", Json::Number(measure::host_threads() as f64)),
        ("git_commit", string_or_null(measure::git_commit(root))),
        ("source_hash", string_or_null(measure::source_hash(root))),
        ("error_rate", Json::Number(outcome.tally.error_rate())),
        ("failures", Json::Array(failures)),
    ];
    fields.extend(outcome.context.iter().cloned());
    let samples =
        outcome.metrics.iter().map(|m| (m.name.to_string(), Json::Number(m.samples as f64)));
    fields.push(("samples", Json::Object(samples.collect())));
    object(&fields).to_compact_string()
}

/// A JSON object from string keys.
pub fn object(fields: &[(&str, Json)]) -> Json {
    Json::Object(fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
}
