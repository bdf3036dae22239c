//! Request routing: maps `(method, path)` onto handlers and untrusted bodies onto validated
//! pipeline calls. Every response body is JSON; every client error is a 4xx with an
//! [`ErrorBody`], never a worker panic.
//!
//! The route table is versioned and resource-scoped under `/api/v1/`; the pre-versioning
//! paths (`/api/estimate`, `/api/jobs/{id}`, `/api/sample`) are aliases onto their v1
//! equivalents via [`canonical_path`] — same handlers, byte-identical bodies, plus a
//! `Deprecation: true` response header.

use crate::api::BudgetDoc;
use crate::api::{
    BaselineResult, DatasetCreateRequest, DatasetDeleteResponse, DatasetDoc,
    DatasetEstimateRequest, DatasetListResponse, ErrorBody, EstimateRequest, EstimateResult,
    EstimatorKind, HealthResponse, JobResponse, JobSpec, SampleRequest, SampleResponse,
    SubmitResponse,
};
use crate::datasets::{valid_name, CreateError, DatasetStore, DebitError};
use crate::http::{Request, Response};
use crate::jobs::{JobEventSink, JobStatus, JobStore};
use crate::ledger::{BudgetLedger, BudgetRefusal};
use crate::store::{self, PendingJob, Persistence};
use kronpriv::pipeline::{
    try_kronfit_estimate, try_kronmom_estimate, try_private_estimate, validate_estimator_inputs,
};
use kronpriv_estimate::{KronFitOptions, KronMomOptions};
use kronpriv_graph::io::{parse_edge_list_reader, to_edge_list_string};
use kronpriv_graph::Graph;
use kronpriv_json::{from_str, to_string, FromJson, Json, ToJson};
use kronpriv_obs::{ProgressEvent, ProgressSink, Registry};
use kronpriv_par::Executor;
use kronpriv_skg::moments::expected_edges;
use kronpriv_skg::sample::{sample_fast, SamplerOptions};
use kronpriv_skg::Initiator2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Shared state the handlers operate on.
pub struct AppState {
    /// The estimation job store (owns the estimation worker pool).
    pub jobs: JobStore,
    /// The named datasets with their privacy-budget ledgers.
    pub datasets: DatasetStore,
    /// Largest Kronecker order `/api/sample` and sampled-SKG inputs accept (`2^k` nodes each).
    pub max_order: u32,
    /// The compute executor, built **once** at startup and shared by every estimation job:
    /// each job borrows this pool for its parallel stages instead of spawning threads per
    /// call. Its size is a deployment setting; the kernels are pool-size-deterministic, so it
    /// never changes a result.
    pub executor: Arc<Executor>,
    /// When the state was built; `/healthz` reports the elapsed whole seconds as uptime.
    pub started: Instant,
    /// The durable store, or `None` when running in-memory (budget enforcement still applies;
    /// it just does not survive a restart).
    pub persist: Option<Arc<Persistence>>,
    /// Display form of the data dir, reported by `/healthz` (`None` when in-memory).
    pub data_dir: Option<String>,
}

impl AppState {
    /// Creates in-memory state with `job_workers` estimation threads and one shared compute
    /// pool of `compute_threads` workers (`0` = one per hardware thread) that every job's
    /// kernels borrow.
    pub fn new(job_workers: usize, max_order: u32, compute_threads: usize) -> Self {
        AppState {
            jobs: JobStore::new(job_workers),
            datasets: DatasetStore::new(),
            max_order,
            executor: Arc::new(Executor::new(compute_threads)),
            started: Instant::now(),
            persist: None,
            data_dir: None,
        }
    }

    /// Creates durable state backed by `data_dir`: opens (or initialises) the record log,
    /// restores datasets and finished jobs, and installs the job-completion write-behind.
    /// Returns the jobs that were still pending at shutdown — pass them to [`replay_pending`]
    /// once the state is in place, so they re-run (byte-identically, by seed determinism).
    pub fn with_persistence(
        job_workers: usize,
        max_order: u32,
        compute_threads: usize,
        data_dir: &Path,
        snapshot_every: u64,
    ) -> io::Result<(Self, Vec<PendingJob>)> {
        let (persist, replay) = Persistence::open(data_dir, snapshot_every)?;
        let mut state = AppState::new(job_workers, max_order, compute_threads);
        state.data_dir = Some(data_dir.display().to_string());
        for image in replay.datasets {
            state.datasets.restore(image);
        }
        for job in replay.finished {
            state.jobs.restore_finished(job.id, job.outcome);
        }
        state.jobs.seed_next_id(replay.next_job_id);
        let persist = Arc::new(persist);
        let hook_persist = Arc::clone(&persist);
        let hook_datasets = state.datasets.clone();
        let hook_imager = state.jobs.imager();
        state.jobs.set_completion_hook(Arc::new(move |id, outcome| {
            let mut fields = vec![("job_id", Json::Number(id as f64))];
            match outcome {
                Ok(result) => fields.push(("result", result.clone())),
                Err(message) => fields.push(("error", Json::String(message.clone()))),
            }
            hook_persist.record("job_finished", fields, || {
                store::state_image(&hook_datasets, &hook_imager)
            });
        }));
        state.persist = Some(persist);
        Ok((state, replay.pending))
    }

    /// Appends one record to the durable store, if there is one. `fields` is only evaluated
    /// in durable mode. Must not be called while holding the dataset or job-table locks (the
    /// snapshot hook takes both).
    fn persist_record(&self, kind: &str, fields: impl FnOnce() -> Vec<(&'static str, Json)>) {
        if let Some(persist) = &self.persist {
            let imager = self.jobs.imager();
            persist.record(kind, fields(), || store::state_image(&self.datasets, &imager));
        }
    }
}

/// Maps a request path onto its canonical v1 route. Returns the canonical path and whether
/// the original spelling is a deprecated alias (answered with `Deprecation: true`). This is
/// the **single** route table: legacy paths never get their own handlers.
pub(crate) fn canonical_path(path: &str) -> (String, bool) {
    if path == "/api/estimate" || path == "/api/sample" {
        return (format!("/api/v1{}", path.trim_start_matches("/api")), true);
    }
    if let Some(rest) = path.strip_prefix("/api/jobs/") {
        return (format!("/api/v1/jobs/{rest}"), true);
    }
    (path.to_string(), false)
}

/// Dispatches one request to its handler, answering deprecated alias spellings with the byte-
/// identical v1 body plus a `Deprecation: true` header.
pub fn route(state: &AppState, request: &Request) -> Response {
    let path = request.path.split('?').next().unwrap_or("");
    let (canonical, deprecated) = canonical_path(path);
    let response = dispatch(state, request, &canonical);
    if deprecated {
        response.with_header("Deprecation", "true")
    } else {
        response
    }
}

fn dispatch(state: &AppState, request: &Request, path: &str) -> Response {
    match path {
        "/healthz" => match request.method.as_str() {
            "GET" => health(state),
            _ => method_not_allowed("GET"),
        },
        "/metrics" => match request.method.as_str() {
            "GET" => metrics(),
            _ => method_not_allowed("GET"),
        },
        "/api/v1/estimate" => match request.method.as_str() {
            "POST" => estimate(state, request),
            _ => method_not_allowed("POST"),
        },
        "/api/v1/sample" => match request.method.as_str() {
            "POST" => sample(state, request),
            _ => method_not_allowed("POST"),
        },
        "/api/v1/datasets" => match request.method.as_str() {
            "GET" => list_datasets(state),
            "POST" => create_dataset(state, request),
            _ => method_not_allowed("GET, POST"),
        },
        _ => {
            if let Some(rest) = path.strip_prefix("/api/v1/jobs/") {
                if let Some(raw_id) = rest.strip_suffix("/events") {
                    // The chunked event stream is written by the connection layer, which
                    // intercepts this path before routing (it needs the raw socket). The
                    // router still owns the validation, and answers for transports that
                    // cannot stream.
                    return match events_target(state, request.method.as_str(), raw_id) {
                        Ok(_) => error(
                            400,
                            "bad_request",
                            "the event stream requires a direct connection",
                        ),
                        Err(response) => response,
                    };
                }
                match request.method.as_str() {
                    "GET" => job(state, rest),
                    _ => method_not_allowed("GET"),
                }
            } else if let Some(rest) = path.strip_prefix("/api/v1/datasets/") {
                dataset_route(state, request, rest)
            } else {
                error(404, "not_found", format!("no route for {path}"))
            }
        }
    }
}

/// Routes `/api/v1/datasets/{name}` and its `/estimate` / `/budget` sub-resources.
fn dataset_route(state: &AppState, request: &Request, rest: &str) -> Response {
    let (name, action) = match rest.split_once('/') {
        None => (rest, None),
        Some((name, action)) => (name, Some(action)),
    };
    if !valid_name(name) {
        return error(400, "bad_request", format!("invalid dataset name {name:?}"));
    }
    match (action, request.method.as_str()) {
        (None, "GET") => match state.datasets.meta(name) {
            Some(meta) => ok_json(200, &DatasetDoc::of(&meta)),
            None => no_such_dataset(name),
        },
        (None, "DELETE") => delete_dataset(state, name),
        (None, _) => method_not_allowed("GET, DELETE"),
        (Some("estimate"), "POST") => dataset_estimate(state, request, name),
        (Some("estimate"), _) => method_not_allowed("POST"),
        (Some("budget"), "GET") => match state.datasets.meta(name) {
            Some(meta) => ok_json(200, &BudgetDoc::of(name, &meta.ledger)),
            None => no_such_dataset(name),
        },
        (Some("budget"), _) => method_not_allowed("GET"),
        (Some(other), _) => error(404, "not_found", format!("no dataset sub-resource {other:?}")),
    }
}

/// Validates a `GET /api/v1/jobs/{id}/events` target: the method, the id syntax, and that the
/// job exists right now. `Ok(id)` means the caller may stream; `Err` is the response to send
/// instead. Shared by [`route`] and the connection layer's streaming intercept.
pub(crate) fn events_target(state: &AppState, method: &str, raw_id: &str) -> Result<u64, Response> {
    if method != "GET" {
        return Err(method_not_allowed("GET"));
    }
    let id: u64 = raw_id.parse().map_err(|_| {
        error(400, "bad_request", format!("job id must be an integer, got {raw_id:?}"))
    })?;
    if state.jobs.get(id).is_none() {
        return Err(error(404, "not_found", format!("no such job: {id}")));
    }
    Ok(id)
}

/// Builds a JSON error response with the unified [`ErrorBody`] document: a human-readable
/// `error` plus a stable machine `code` (documented in `API.md`).
pub fn error(status: u16, code: impl Into<String>, message: impl Into<String>) -> Response {
    Response::json(
        status,
        to_string(&ErrorBody {
            error: message.into(),
            code: code.into(),
            detail: None,
            remaining_epsilon: None,
            remaining_delta: None,
        }),
    )
}

/// The `429` budget refusal: `budget_exhausted` plus the remaining budget, so a client can
/// size a smaller draw without another round-trip.
fn budget_refused(name: &str, refusal: &BudgetRefusal) -> Response {
    Response::json(
        429,
        to_string(&ErrorBody {
            error: format!(
                "privacy budget exhausted for dataset {name:?}: the requested draw exceeds the \
                 remaining budget"
            ),
            code: "budget_exhausted".to_string(),
            detail: Some(format!(
                "remaining epsilon {:.6}, remaining delta {:.6}",
                refusal.remaining_epsilon, refusal.remaining_delta
            )),
            remaining_epsilon: Some(refusal.remaining_epsilon),
            remaining_delta: Some(refusal.remaining_delta),
        }),
    )
}

fn no_such_dataset(name: &str) -> Response {
    error(404, "no_such_dataset", format!("no such dataset: {name:?}"))
}

fn method_not_allowed(allowed: &str) -> Response {
    error(405, "method_not_allowed", format!("method not allowed; use {allowed}"))
}

fn ok_json<T: ToJson>(status: u16, body: &T) -> Response {
    Response::json(status, to_string(body))
}

fn health(state: &AppState) -> Response {
    let counts = state.jobs.counts();
    ok_json(
        200,
        &HealthResponse {
            status: "ok".to_string(),
            service: "kronpriv-server".to_string(),
            jobs_submitted: state.jobs.submitted(),
            uptime_seconds: state.started.elapsed().as_secs(),
            compute_threads: state.executor.threads() as u64,
            jobs_queued: counts.queued,
            jobs_running: counts.running,
            jobs_done: counts.done,
            jobs_failed: counts.failed,
            datasets: state.datasets.count(),
            data_dir: state.data_dir.clone(),
        },
    )
}

/// `GET /metrics`: the process-global registry in Prometheus text exposition format. Label
/// sets are bounded (fixed stage/mode names, normalized HTTP paths), so the scrape size is
/// O(instrument count), not O(traffic).
fn metrics() -> Response {
    Response::metrics_text(200, Registry::global().render())
}

/// Parses a request body as UTF-8 JSON into `T`, or produces the 400 response.
fn parse_body<T: FromJson>(request: &Request) -> Result<T, Response> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| error(400, "bad_request", "request body is not valid UTF-8"))?;
    from_str::<T>(text).map_err(|e| error(400, "bad_request", format!("invalid request body: {e}")))
}

/// Upper bound on the *total* Metropolis proposals one KronFit request may run
/// (`gradient_steps × chains × per-step swaps`). Per-knob caps alone compose multiplicatively
/// into weeks of CPU; bounding the product is what actually protects the estimation workers.
/// 10⁹ proposals is minutes of work — ~150× the default configuration — so real fits pass.
const MAX_KRONFIT_TOTAL_SWAPS: u128 = 1_000_000_000;

/// Basic sanity bounds on wire-supplied KronFit options: reject parameter values that would
/// make the ascent numerically meaningless (non-positive clamps) or let one request hog an
/// estimation worker with an absurd iteration budget.
fn validate_kronfit_options(options: &KronFitOptions) -> Result<(), String> {
    if options.chains == 0 || options.chains > 64 {
        return Err(format!("kronfit.chains must be in 1..=64, got {}", options.chains));
    }
    if options.samples_per_step == 0 || options.samples_per_step > 64 {
        return Err(format!(
            "kronfit.samples_per_step must be in 1..=64, got {}",
            options.samples_per_step
        ));
    }
    // Swap-free configurations are still bounded by their O(edges) gradient evaluations.
    let evaluations =
        options.gradient_steps as u128 * options.chains as u128 * options.samples_per_step as u128;
    if evaluations > 1_000_000 {
        return Err(format!(
            "kronfit gradient budget too large: gradient_steps x chains x samples_per_step \
             = {evaluations} evaluations exceeds the limit of 1000000"
        ));
    }
    let per_step_swaps = options.warmup_swaps as u128
        + (options.samples_per_step as u128 - 1) * options.swaps_between_samples as u128;
    let total_swaps = options.gradient_steps as u128 * options.chains as u128 * per_step_swaps;
    if total_swaps > MAX_KRONFIT_TOTAL_SWAPS {
        return Err(format!(
            "kronfit iteration budget too large: gradient_steps x chains x per-step swaps \
             = {total_swaps} proposals exceeds the limit of {MAX_KRONFIT_TOTAL_SWAPS}"
        ));
    }
    if !(options.min_parameter.is_finite() && options.min_parameter > 0.0) {
        return Err(format!(
            "kronfit.min_parameter must be a positive number, got {}",
            options.min_parameter
        ));
    }
    if !(options.learning_rate.is_finite() && options.learning_rate > 0.0) {
        return Err(format!(
            "kronfit.learning_rate must be a positive number, got {}",
            options.learning_rate
        ));
    }
    for (name, v) in [("a", options.initial.a), ("b", options.initial.b), ("c", options.initial.c)]
    {
        if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
            return Err(format!("kronfit.initial.{name}={v} must lie in [0,1]"));
        }
    }
    Ok(())
}

/// Sanity bounds on wire-supplied KronMom options (reached both via the `"kronmom"` baseline
/// and as the fitting stage of the private pipeline): the multistart grid is **cubic** in
/// `grid_points_per_axis`, so an absurd value would pin an estimation worker or exhaust memory
/// before a single objective evaluation finishes.
fn validate_kronmom_options(options: &KronMomOptions) -> Result<(), String> {
    if options.grid_points_per_axis == 0 || options.grid_points_per_axis > 64 {
        return Err(format!(
            "kronmom.grid_points_per_axis must be in 1..=64, got {}",
            options.grid_points_per_axis
        ));
    }
    if options.refine_top > 64 {
        return Err(format!("kronmom.refine_top must be at most 64, got {}", options.refine_top));
    }
    if options.max_evaluations > 1_000_000 {
        return Err(format!(
            "kronmom.max_evaluations must be at most 1000000, got {}",
            options.max_evaluations
        ));
    }
    Ok(())
}

/// Largest expected edge count, `expected_edges(theta, k)`, of an SKG the server samples — on
/// `POST /api/v1/sample` and for inline `graph.skg` specs. 2^24 (about 16.8M) edges is far above
/// the 2^20-node nightly scale (about 2M edges), yet refuses requests such as θ = (1, 1, 1) at
/// k = 16 (about 2^31 edges), whose sampling would reserve gigabytes and pin a worker for hours.
const MAX_SAMPLE_EDGES: f64 = 16_777_216.0;

/// Refuses an SKG whose expected edge count exceeds [`MAX_SAMPLE_EDGES`].
fn check_sample_size(theta: &Initiator2, k: u32) -> Result<(), String> {
    let expected = expected_edges(theta, k);
    if expected > MAX_SAMPLE_EDGES {
        return Err(format!(
            "sampling theta=({}, {}, {}) at k={k} would realize about {expected:.0} edges, over \
             the limit of {MAX_SAMPLE_EDGES:.0}",
            theta.a, theta.b, theta.c
        ));
    }
    Ok(())
}

/// Largest input graph, in nodes, the exact smooth sensitivity may run on. That kernel is cubic:
/// 1024 nodes take about 20 s single-threaded (see `smooth_sensitivity_triangles_exact`), and
/// the cost grows with `n³`, so a larger input would pin an estimation worker for hours.
const MAX_EXACT_SMOOTH_NODES: u64 = 1024;

/// Refuses `options.exact_smooth_sensitivity` on an input of more than
/// [`MAX_EXACT_SMOOTH_NODES`] nodes.
fn check_exact_smooth_nodes(nodes: u64) -> Result<(), String> {
    if nodes > MAX_EXACT_SMOOTH_NODES {
        return Err(format!(
            "options.exact_smooth_sensitivity is limited to inputs of at most \
             {MAX_EXACT_SMOOTH_NODES} nodes (its cost grows with n^3); this input has {nodes}"
        ));
    }
    Ok(())
}

/// Realizes the job's input graph: parses the uploaded edge list, or samples the SKG spec from
/// the job RNG. Exactly one of the two is present (validated before submission).
fn materialize_graph<R: Rng + ?Sized>(
    edge_list: &Option<String>,
    skg: Option<(Initiator2, u32)>,
    rng: &mut R,
) -> Result<Graph, String> {
    match (edge_list, skg) {
        (Some(text), None) => {
            parse_edge_list_reader(text.as_bytes()).map_err(|e| format!("edge list rejected: {e}"))
        }
        (None, Some((theta, k))) => Ok(sample_fast(&theta, k, &SamplerOptions::default(), rng)),
        _ => unreachable!("graph spec validated before submission"),
    }
}

/// Why a job spec failed validation, mapped onto the response (or a replay failure message).
enum SpecError {
    /// A malformed or out-of-bounds field: `400 bad_request`.
    Bad(String),
    /// An inline SKG over [`MAX_SAMPLE_EDGES`]: `400 too_large`.
    TooLarge(String),
    /// The named dataset does not exist: `404 no_such_dataset`.
    NoSuchDataset(String),
    /// A non-private estimator was requested on a dataset: `403 estimator_not_allowed` —
    /// baselines fit the sensitive input graph directly, which would void the ledger's
    /// cumulative `(ε, δ)` guarantee.
    NonPrivate(String),
}

impl SpecError {
    fn message(&self) -> String {
        match self {
            SpecError::Bad(message) | SpecError::TooLarge(message) => message.clone(),
            SpecError::NoSuchDataset(name) => format!("no such dataset: {name:?}"),
            SpecError::NonPrivate(kind) => format!(
                "estimator {kind:?} is not allowed on datasets: baselines fit the sensitive \
                 input graph directly and are not differentially private; use the private \
                 estimator, or an inline graph for baseline comparisons"
            ),
        }
    }

    fn response(&self) -> Response {
        match self {
            SpecError::Bad(message) => error(400, "bad_request", message.clone()),
            SpecError::TooLarge(message) => error(400, "too_large", message.clone()),
            SpecError::NoSuchDataset(name) => no_such_dataset(name),
            SpecError::NonPrivate(_) => error(403, "estimator_not_allowed", self.message()),
        }
    }
}

/// The job body handed to [`JobStore::run`]: runs on an estimation worker, emitting progress
/// to the job's event sink.
type JobWork = Box<dyn FnOnce(&JobEventSink) -> Result<Json, String> + Send + 'static>;

/// A fully validated job, ready to debit (dataset jobs) and launch.
struct PreparedJob {
    /// The `(ε, δ)` the job draws — present exactly for the private estimator; what dataset
    /// jobs debit from their ledger.
    draw: Option<(f64, f64)>,
    /// The job body, to hand to [`JobStore::run`].
    work: JobWork,
}

/// Validates a normalized [`JobSpec`] into a runnable job, without spending anything: no
/// budget is debited and no record is persisted here. Shared verbatim by live submissions
/// (both the inline and the dataset-scoped estimate routes) and boot replay — which is what
/// guarantees a replayed job re-runs under exactly the rules it was admitted under.
fn prepare_job(state: &AppState, spec: &JobSpec) -> Result<PreparedJob, SpecError> {
    // Validate everything that does not require touching the (possibly large) graph, so bad
    // requests are rejected on the connection thread with a 400 instead of failing as jobs.
    let kind = EstimatorKind::parse(spec.estimator.as_deref()).map_err(SpecError::Bad)?;
    // The input's node count, where it is known before the graph is materialized.
    let (edge_list, skg, known_nodes) = match (&spec.dataset, &spec.edge_list, &spec.skg) {
        (Some(name), None, None) => {
            if kind != EstimatorKind::Private {
                return Err(SpecError::NonPrivate(kind.as_str().to_string()));
            }
            match (state.datasets.meta(name), state.datasets.edge_text(name)) {
                (Some(meta), Some(text)) => (Some(text), None, Some(meta.nodes)),
                _ => return Err(SpecError::NoSuchDataset(name.clone())),
            }
        }
        (None, Some(text), None) => (Some(text.clone()), None, None),
        (None, None, Some(skg)) => {
            if skg.k == 0 || skg.k > state.max_order {
                return Err(SpecError::Bad(format!(
                    "graph.skg.k must be in 1..={}, got {}",
                    state.max_order, skg.k
                )));
            }
            let theta = skg.theta.validate().map_err(SpecError::Bad)?;
            check_sample_size(&theta, skg.k).map_err(SpecError::TooLarge)?;
            (None, Some((theta, skg.k)), Some(1u64 << skg.k))
        }
        (None, _, _) => {
            return Err(SpecError::Bad(
                "graph must specify exactly one of edge_list or skg".to_string(),
            ));
        }
        _ => {
            return Err(SpecError::Bad(
                "specify exactly one input graph: the dataset in the path, an inline edge_list, \
                 or an skg"
                    .to_string(),
            ));
        }
    };

    let seed = spec.seed;
    // Every estimator runs on the startup-built shared executor.
    let exec = Arc::clone(&state.executor);
    match kind {
        EstimatorKind::Private => {
            let params = match spec.params {
                Some(budget) => budget.validate().map_err(|e| SpecError::Bad(e.to_string()))?,
                None => {
                    return Err(SpecError::Bad(
                        "params is required for the private estimator".to_string(),
                    ))
                }
            };
            let options = spec.options.unwrap_or_default();
            validate_estimator_inputs(params, &options)
                .map_err(|e| SpecError::Bad(e.to_string()))?;
            validate_kronmom_options(&options.kronmom).map_err(SpecError::Bad)?;
            let cubic = options.exact_smooth_sensitivity;
            if let (true, Some(nodes)) = (cubic, known_nodes) {
                check_exact_smooth_nodes(nodes).map_err(SpecError::Bad)?;
            }
            let include_degrees = spec.include_degree_sequence.unwrap_or(false);
            Ok(PreparedJob {
                draw: Some((params.epsilon, params.delta)),
                work: Box::new(move |sink| {
                    // One seeded RNG drives both the optional SKG realization and the privacy
                    // noise, so the whole job is a pure function of the request document.
                    let mut rng = StdRng::seed_from_u64(seed);
                    let graph = materialize_graph(&edge_list, skg, &mut rng)?;
                    if cubic {
                        // An inline edge list's node count is only known once parsed.
                        check_exact_smooth_nodes(graph.node_count() as u64)?;
                    }
                    let estimate =
                        try_private_estimate(&graph, params, &options, &mut rng, &exec, sink)
                            .map_err(|e| format!("estimation rejected: {e}"))?;
                    Ok(EstimateResult::from_estimate(&estimate, seed, include_degrees).to_json())
                }),
            })
        }
        EstimatorKind::KronMom => {
            let options = spec.options.unwrap_or_default().kronmom;
            validate_kronmom_options(&options).map_err(SpecError::Bad)?;
            Ok(PreparedJob {
                draw: None,
                work: Box::new(move |sink| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let graph = materialize_graph(&edge_list, skg, &mut rng)?;
                    sink.emit(&ProgressEvent::StageStarted { stage: "fit" });
                    let fit = try_kronmom_estimate(&graph, &options, &exec)
                        .map_err(|e| format!("estimation rejected: {e}"))?;
                    sink.emit(&ProgressEvent::StageFinished { stage: "fit" });
                    Ok(BaselineResult::from_fit(EstimatorKind::KronMom, &fit, seed).to_json())
                }),
            })
        }
        EstimatorKind::KronFit => {
            let options = spec.kronfit.unwrap_or_default();
            validate_kronfit_options(&options).map_err(SpecError::Bad)?;
            Ok(PreparedJob {
                draw: None,
                work: Box::new(move |sink| {
                    // The same seeded RNG realizes the optional SKG input and then seeds the
                    // multi-chain permutation sampling, so the fit is a pure function of the
                    // request document (and independent of --compute-threads).
                    let mut rng = StdRng::seed_from_u64(seed);
                    let graph = materialize_graph(&edge_list, skg, &mut rng)?;
                    let fit = try_kronfit_estimate(&graph, &options, &mut rng, &exec, sink)
                        .map_err(|e| format!("estimation rejected: {e}"))?;
                    Ok(BaselineResult::from_fit(EstimatorKind::KronFit, &fit, seed).to_json())
                }),
            })
        }
    }
}

/// Validates, debits (dataset jobs only), persists, and launches one normalized job spec.
/// The ordering is the accountant's contract: validation first (a rejected request spends
/// nothing), then the atomic ledger debit, then the durable `job_submitted` record, then
/// execution.
fn submit_spec(state: &AppState, spec: JobSpec) -> Response {
    let prepared = match prepare_job(state, &spec) {
        Ok(prepared) => prepared,
        Err(e) => return e.response(),
    };
    if let Some(name) = &spec.dataset {
        let (epsilon, delta) = prepared.draw.expect("dataset jobs are private and carry a draw");
        match state.datasets.try_debit(name, epsilon, delta) {
            Ok(()) => state.persist_record("debit", || {
                vec![
                    ("name", Json::String(name.clone())),
                    ("epsilon", Json::Number(epsilon)), // lint:allow(privacy-taint, reason = "epsilon and delta are the request's declared budget draw, not data-derived values; they reach here through PreparedJob, which the taint analysis over-approximates as sensitive because its work closure computes the release")
                    ("delta", Json::Number(delta)),
                ]
            }),
            // The dataset was deleted between validation and the debit.
            Err(DebitError::NoSuchDataset) => return no_such_dataset(name),
            Err(DebitError::Refused(refusal)) => return budget_refused(name, &refusal),
        }
    }
    let spec_json = spec.to_json();
    let job_id = state.jobs.create(None, Some(spec_json.clone()));
    state.persist_record("job_submitted", || {
        vec![("job_id", Json::Number(job_id as f64)), ("spec", spec_json)]
    });
    state.jobs.run(job_id, prepared.work);
    ok_json(202, &SubmitResponse { job_id, status: JobStatus::Queued })
}

fn estimate(state: &AppState, request: &Request) -> Response {
    let req: EstimateRequest = match parse_body(request) {
        Ok(req) => req,
        Err(resp) => return resp,
    };
    submit_spec(state, JobSpec::from_estimate_request(req))
}

fn dataset_estimate(state: &AppState, request: &Request, name: &str) -> Response {
    let req: DatasetEstimateRequest = match parse_body(request) {
        Ok(req) => req,
        Err(resp) => return resp,
    };
    submit_spec(state, JobSpec::from_dataset_request(name, req))
}

fn create_dataset(state: &AppState, request: &Request) -> Response {
    let req: DatasetCreateRequest = match parse_body(request) {
        Ok(req) => req,
        Err(resp) => return resp,
    };
    if !valid_name(&req.name) {
        return error(
            400,
            "bad_request",
            format!(
                "invalid dataset name {:?}: use 1-64 characters of [A-Za-z0-9._-], starting \
                 with a letter or digit",
                req.name
            ),
        );
    }
    let budget = match req.budget.validate() {
        Ok(params) => params,
        Err(e) => return error(400, "bad_request", format!("budget rejected: {e}")),
    };
    // Parse the edge list up front: a dataset that can never be estimated should be rejected
    // at upload time, and the node/edge counts are part of the created resource.
    let graph = match parse_edge_list_reader(req.edge_list.as_bytes()) {
        Ok(graph) => graph,
        Err(e) => return error(400, "bad_request", format!("edge list rejected: {e}")),
    };
    let ledger = BudgetLedger::new(budget.epsilon, budget.delta);
    let (nodes, edges) = (graph.node_count() as u64, graph.edge_count() as u64);
    match state.datasets.create(&req.name, req.edge_list.clone(), nodes, edges, ledger) {
        Ok(()) => {
            state.persist_record("dataset_put", || {
                vec![
                    ("name", Json::String(req.name.clone())),
                    ("edge_list", Json::String(req.edge_list.clone())),
                    ("nodes", Json::Number(nodes as f64)),
                    ("edges", Json::Number(edges as f64)),
                    ("epsilon_limit", Json::Number(ledger.epsilon_limit)),
                    ("delta_limit", Json::Number(ledger.delta_limit)),
                ]
            });
            let meta = state.datasets.meta(&req.name).expect("dataset just created");
            ok_json(201, &DatasetDoc::of(&meta))
        }
        Err(CreateError::Exists) => error(
            409,
            "dataset_exists",
            format!(
                "dataset {:?} already exists; its ledger would be reset by replacement — \
                 delete it first or pick a new name",
                req.name
            ),
        ),
    }
}

fn list_datasets(state: &AppState) -> Response {
    let datasets: Vec<DatasetDoc> = state.datasets.list().iter().map(DatasetDoc::of).collect();
    let count = datasets.len() as u64;
    ok_json(200, &DatasetListResponse { datasets, count })
}

fn delete_dataset(state: &AppState, name: &str) -> Response {
    if !state.datasets.remove(name) {
        return no_such_dataset(name);
    }
    state.persist_record("dataset_delete", || vec![("name", Json::String(name.to_string()))]);
    ok_json(200, &DatasetDeleteResponse { deleted: name.to_string() })
}

/// Re-launches the jobs that were pending when the previous process stopped. Each persisted
/// spec passes through the same [`prepare_job`] validation as a live request, and its job id
/// is re-used so clients' poll URLs stay valid; seed determinism makes the re-run produce the
/// byte-identical result document. The budget is **not** debited again — the original debit
/// record replayed with the log. A spec that no longer validates (e.g. its dataset was
/// deleted later in the log) is restored as a `Failed` record instead of crashing the boot.
pub fn replay_pending(state: &AppState, pending: Vec<PendingJob>) {
    for job in pending {
        let spec = match JobSpec::from_json(&job.spec) {
            Ok(spec) => spec,
            Err(e) => {
                state.jobs.restore_finished(
                    job.id,
                    Err(format!("replay rejected: invalid persisted spec: {e}")),
                );
                continue;
            }
        };
        match prepare_job(state, &spec) {
            Ok(prepared) => {
                state.jobs.create(Some(job.id), Some(job.spec));
                // lint:allow(debit-before-enqueue, reason = "boot replay: the original debit record was already replayed from the durable log before any pending job re-runs, so debiting again here would double-charge the dataset")
                state.jobs.run(job.id, prepared.work);
            }
            Err(e) => state
                .jobs
                .restore_finished(job.id, Err(format!("replay rejected: {}", e.message()))),
        }
    }
}

fn job(state: &AppState, raw_id: &str) -> Response {
    let id: u64 = match raw_id.parse() {
        Ok(id) => id,
        Err(_) => {
            return error(400, "bad_request", format!("job id must be an integer, got {raw_id:?}"))
        }
    };
    match state.jobs.get(id) {
        Some(snapshot) => ok_json(
            200,
            &JobResponse {
                job_id: snapshot.id,
                status: snapshot.status,
                result: snapshot.result,
                error: snapshot.error,
            },
        ),
        None => error(404, "not_found", format!("no such job: {id}")),
    }
}

fn sample(state: &AppState, request: &Request) -> Response {
    let req: SampleRequest = match parse_body(request) {
        Ok(req) => req,
        Err(resp) => return resp,
    };
    let theta = match req.theta.validate() {
        Ok(theta) => theta,
        Err(e) => return error(400, "bad_request", e),
    };
    if req.k == 0 || req.k > state.max_order {
        return error(
            400,
            "bad_request",
            format!("k must be in 1..={}, got {}", state.max_order, req.k),
        );
    }
    if let Err(message) = check_sample_size(&theta, req.k) {
        return error(400, "too_large", message);
    }
    let mut rng = StdRng::seed_from_u64(req.seed);
    let graph = sample_fast(&theta, req.k, &SamplerOptions::default(), &mut rng);
    ok_json(
        200,
        &SampleResponse {
            nodes: graph.node_count() as u64,
            edges: graph.edge_count() as u64,
            edge_list: to_edge_list_string(&graph),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kronpriv_json::Json;
    use std::time::{Duration, Instant};

    fn state() -> AppState {
        AppState::new(2, 16, 0)
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn body_json(response: &Response) -> Json {
        Json::parse(&response.body).expect("response body must be JSON")
    }

    fn wait_for_job(state: &AppState, id: u64) -> crate::jobs::JobSnapshot {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let snap = state.jobs.get(id).expect("job vanished");
            if matches!(snap.status, JobStatus::Done | JobStatus::Failed) {
                return snap;
            }
            assert!(Instant::now() < deadline, "job {id} never finished");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    const SKG_BODY: &str = r#"{
        "graph": {"skg": {"theta": {"a": 0.95, "b": 0.55, "c": 0.2}, "k": 8}},
        "params": {"epsilon": 1.0, "delta": 0.01},
        "seed": 11
    }"#;

    #[test]
    fn health_reports_ok_and_counts_jobs() {
        let state = state();
        let response = route(&state, &request("GET", "/healthz", ""));
        assert_eq!(response.status, 200);
        let body = body_json(&response);
        assert_eq!(body.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(body.get("jobs_submitted").unwrap().as_f64(), Some(0.0));
        // The status document: uptime, pool size, and job lifecycle counts.
        assert!(body.get("uptime_seconds").unwrap().as_f64().unwrap() >= 0.0);
        assert!(body.get("compute_threads").unwrap().as_f64().unwrap() >= 1.0);
        for counter in ["jobs_queued", "jobs_running", "jobs_done", "jobs_failed"] {
            assert_eq!(body.get(counter).unwrap().as_f64(), Some(0.0), "{counter}");
        }
    }

    #[test]
    fn metrics_serves_the_prometheus_exposition() {
        let state = state();
        // Run one job so job counters exist in the registry.
        let response = route(&state, &request("POST", "/api/estimate", SKG_BODY));
        assert_eq!(response.status, 202, "{}", response.body);
        let id = body_json(&response).get("job_id").unwrap().as_f64().unwrap() as u64;
        wait_for_job(&state, id);
        let scrape = route(&state, &request("GET", "/metrics", ""));
        assert_eq!(scrape.status, 200);
        assert_eq!(scrape.content_type, crate::http::METRICS_CONTENT_TYPE);
        assert!(scrape.body.contains("# TYPE kronpriv_jobs_submitted_total counter"));
        assert!(scrape.body.contains("kronpriv_jobs_completed_total{outcome=\"done\"}"));
        assert!(scrape.body.contains("kronpriv_stage_ns_bucket{"), "stage spans missing");
        for line in scrape.body.lines() {
            assert!(
                kronpriv_obs::well_formed_exposition_line(line),
                "malformed exposition line: {line:?}"
            );
        }
        assert_eq!(route(&state, &request("POST", "/metrics", "")).status, 405);
    }

    /// A ring on `n` nodes as an edge-list text.
    fn ring(n: usize) -> String {
        (0..n).map(|i| format!("{i} {}\n", (i + 1) % n)).collect()
    }

    /// An estimate body on `graph` with the exact smooth sensitivity switched on.
    fn exact_body(graph: &str) -> String {
        let options = kronpriv_estimate::PrivateEstimatorOptions {
            exact_smooth_sensitivity: true,
            ..Default::default()
        };
        format!(
            r#"{{{graph} "params": {{"epsilon": 1.0, "delta": 0.01}}, "seed": 4,
                "options": {}}}"#,
            kronpriv_json::to_string(&options)
        )
    }

    #[test]
    fn exact_smooth_sensitivity_is_refused_past_the_node_bound() {
        let state = state();
        let skg = |k: u32| {
            exact_body(&format!(
                r#""graph": {{"skg": {{"theta": {{"a": 0.95, "b": 0.55, "c": 0.2}}, "k": {k}}}}},"#
            ))
        };
        // An SKG's 2^k nodes are known at admission: k = 11 (2048 nodes) is a 400 ...
        let response = route(&state, &request("POST", "/api/estimate", &skg(11)));
        assert_eq!(response.status, 400, "{}", response.body);
        assert!(response.body.contains("at most 1024 nodes"), "{}", response.body);
        // ... while k <= 10 is still admitted. Validated without running, since the cubic
        // kernel takes seconds at 1024 nodes.
        for k in [4, 10] {
            let spec: JobSpec = from_str(&skg(k)).map(JobSpec::from_estimate_request).unwrap();
            assert!(prepare_job(&state, &spec).is_ok(), "k = {k}");
        }

        // A dataset's node count is known too: refused before any debit.
        let upload = format!(
            r#"{{"name": "big", "edge_list": {}, "budget": {{"epsilon": 5.0, "delta": 0.5}}}}"#,
            kronpriv_json::to_string(&ring(1100))
        );
        assert_eq!(route(&state, &request("POST", "/api/v1/datasets", &upload)).status, 201);
        let body = exact_body("");
        let response = route(&state, &request("POST", "/api/v1/datasets/big/estimate", &body));
        assert_eq!(response.status, 400, "{}", response.body);
        let ledger = state.datasets.meta("big").unwrap().ledger;
        assert_eq!((ledger.epsilon_spent, ledger.delta_spent), (0.0, 0.0));

        // An inline edge list is only counted once parsed, so it fails as a job instead.
        let graph =
            format!(r#""graph": {{"edge_list": {}}},"#, kronpriv_json::to_string(&ring(1100)));
        let response = route(&state, &request("POST", "/api/estimate", &exact_body(&graph)));
        assert_eq!(response.status, 202, "{}", response.body);
        let id = body_json(&response).get("job_id").unwrap().as_f64().unwrap() as u64;
        let snap = wait_for_job(&state, id);
        assert_eq!(snap.status, JobStatus::Failed);
        assert!(snap.error.unwrap().contains("this input has 1100"));
    }

    #[test]
    fn events_targets_are_validated_by_the_router() {
        let state = state();
        // Unknown job and bad id syntax answer like the poll endpoint.
        assert_eq!(route(&state, &request("GET", "/api/jobs/999/events", "")).status, 404);
        assert_eq!(route(&state, &request("GET", "/api/jobs/abc/events", "")).status, 400);
        assert_eq!(route(&state, &request("POST", "/api/jobs/1/events", "")).status, 405);
        // A live job is a valid stream target; the plain router cannot stream it.
        let response = route(&state, &request("POST", "/api/estimate", SKG_BODY));
        let id = body_json(&response).get("job_id").unwrap().as_f64().unwrap() as u64;
        assert_eq!(events_target(&state, "GET", &id.to_string()), Ok(id));
        let plain = route(&state, &request("GET", &format!("/api/jobs/{id}/events"), ""));
        assert_eq!(plain.status, 400);
        assert!(plain.body.contains("direct connection"), "{}", plain.body);
        wait_for_job(&state, id);
    }

    #[test]
    fn estimate_job_runs_to_done_via_polling() {
        let state = state();
        let response = route(&state, &request("POST", "/api/estimate", SKG_BODY));
        assert_eq!(response.status, 202, "{}", response.body);
        let id = body_json(&response).get("job_id").unwrap().as_f64().unwrap() as u64;
        let snap = wait_for_job(&state, id);
        assert_eq!(snap.status, JobStatus::Done, "{:?}", snap.error);
        let result = snap.result.unwrap();
        let theta = result.get("theta").unwrap();
        let a = theta.get("a").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&a));
        // Poll endpoint renders the same record.
        let poll = route(&state, &request("GET", &format!("/api/jobs/{id}"), ""));
        assert_eq!(poll.status, 200);
        assert_eq!(body_json(&poll).get("status").unwrap().as_str(), Some("Done"));
    }

    #[test]
    fn compute_thread_config_never_changes_job_results() {
        // The same request against a 1-thread server and a 4-thread server must produce the
        // exact same result document — the determinism contract of the parallel layer.
        let run = |compute_threads: usize| {
            let state = AppState::new(1, 16, compute_threads);
            let response = route(&state, &request("POST", "/api/estimate", SKG_BODY));
            assert_eq!(response.status, 202, "{}", response.body);
            let id = body_json(&response).get("job_id").unwrap().as_f64().unwrap() as u64;
            let snap = wait_for_job(&state, id);
            assert_eq!(snap.status, JobStatus::Done, "{:?}", snap.error);
            kronpriv_json::to_string(&snap.result.unwrap())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn estimate_accepts_inline_edge_lists() {
        let state = state();
        // A small but non-trivial graph: a ring plus chords.
        let mut edges = String::new();
        for i in 0..64 {
            edges.push_str(&format!("{} {}\n", i, (i + 1) % 64));
            edges.push_str(&format!("{} {}\n", i, (i + 7) % 64));
        }
        let body = format!(
            r#"{{"graph": {{"edge_list": {}}}, "params": {{"epsilon": 2.0, "delta": 0.05}}, "seed": 3}}"#,
            kronpriv_json::to_string(&edges)
        );
        let response = route(&state, &request("POST", "/api/estimate", &body));
        assert_eq!(response.status, 202, "{}", response.body);
        let id = body_json(&response).get("job_id").unwrap().as_f64().unwrap() as u64;
        let snap = wait_for_job(&state, id);
        assert_eq!(snap.status, JobStatus::Done, "{:?}", snap.error);
    }

    #[test]
    fn bad_requests_are_400_not_jobs() {
        let state = state();
        for (body, needle) in [
            ("{", "invalid request body"),
            // `params` became optional with the estimator selector, so a bare seed now gets
            // past parsing and fails on the graph spec instead.
            ("{\"seed\": 1}", "exactly one of"),
            (
                r#"{"graph": {"skg": {"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 8}},
                   "seed": 1}"#,
                "params is required",
            ),
            (
                r#"{"graph": {"skg": {"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 8}},
                   "estimator": "mle",
                   "params": {"epsilon": 1.0, "delta": 0.01}, "seed": 1}"#,
                "unknown estimator",
            ),
            (
                r#"{"graph": {"skg": {"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 8}},
                   "estimator": "kronfit", "seed": 1,
                   "kronfit": {"gradient_steps": 5, "warmup_swaps": 100,
                               "samples_per_step": 2, "swaps_between_samples": 50,
                               "learning_rate": 0.06, "min_parameter": 0.001,
                               "initial": {"a": 0.9, "b": 0.6, "c": 0.2}, "chains": 0}}"#,
                "kronfit.chains",
            ),
            // Per-knob values can be individually sane while multiplying into an absurd total
            // budget; the product caps must catch that.
            (
                r#"{"graph": {"skg": {"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 8}},
                   "estimator": "kronfit", "seed": 1,
                   "kronfit": {"gradient_steps": 10000, "warmup_swaps": 10000000,
                               "samples_per_step": 64, "swaps_between_samples": 10000000,
                               "learning_rate": 0.06, "min_parameter": 0.001,
                               "initial": {"a": 0.9, "b": 0.6, "c": 0.2}, "chains": 64}}"#,
                "kronfit gradient budget too large",
            ),
            (
                r#"{"graph": {"skg": {"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 8}},
                   "estimator": "kronfit", "seed": 1,
                   "kronfit": {"gradient_steps": 1000, "warmup_swaps": 10000000,
                               "samples_per_step": 2, "swaps_between_samples": 10000000,
                               "learning_rate": 0.06, "min_parameter": 0.001,
                               "initial": {"a": 0.9, "b": 0.6, "c": 0.2}, "chains": 64}}"#,
                "kronfit iteration budget too large",
            ),
            // KronMom options are bounded too — via the baseline selector and equally via the
            // private pipeline that embeds them (the grid is cubic in grid_points_per_axis).
            (
                r#"{"graph": {"skg": {"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 8}},
                   "estimator": "kronmom", "seed": 1,
                   "options": {"degree_budget_fraction": 0.5,
                               "exact_smooth_sensitivity": false, "degrees_only": false,
                               "triangle_signal_threshold": 2.0,
                               "kronmom": {"grid_points_per_axis": 100000, "refine_top": 5,
                                           "max_evaluations": 4000}}}"#,
                "kronmom.grid_points_per_axis",
            ),
            (
                r#"{"graph": {"skg": {"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 8}},
                   "params": {"epsilon": 1.0, "delta": 0.01}, "seed": 1,
                   "options": {"degree_budget_fraction": 0.5,
                               "exact_smooth_sensitivity": false, "degrees_only": false,
                               "triangle_signal_threshold": 2.0,
                               "kronmom": {"grid_points_per_axis": 7, "refine_top": 5,
                                           "max_evaluations": 99000000}}}"#,
                "kronmom.max_evaluations",
            ),
            (
                r#"{"graph": {}, "params": {"epsilon": 1.0, "delta": 0.01}, "seed": 1}"#,
                "exactly one of",
            ),
            (
                r#"{"graph": {"skg": {"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 8},
                    "edge_list": "0 1"},
                   "params": {"epsilon": 1.0, "delta": 0.01}, "seed": 1}"#,
                "exactly one of",
            ),
            (
                r#"{"graph": {"skg": {"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 8}},
                   "params": {"epsilon": -1.0, "delta": 0.01}, "seed": 1}"#,
                "epsilon must be positive",
            ),
            (
                r#"{"graph": {"skg": {"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 8}},
                   "params": {"epsilon": 1.0, "delta": 0.0}, "seed": 1}"#,
                "requires delta > 0",
            ),
            (
                r#"{"graph": {"skg": {"theta": {"a": 1.9, "b": 0.5, "c": 0.2}, "k": 8}},
                   "params": {"epsilon": 1.0, "delta": 0.01}, "seed": 1}"#,
                "must lie in [0,1]",
            ),
            (
                r#"{"graph": {"skg": {"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 40}},
                   "params": {"epsilon": 1.0, "delta": 0.01}, "seed": 1}"#,
                "graph.skg.k must be in",
            ),
        ] {
            let response = route(&state, &request("POST", "/api/estimate", body));
            assert_eq!(response.status, 400, "body {body} gave {}", response.body);
            assert!(response.body.contains(needle), "{} lacks {needle}", response.body);
        }
        assert_eq!(state.jobs.submitted(), 0, "a rejected request must not enqueue a job");
    }

    #[test]
    fn baseline_estimators_produce_marked_non_private_documents() {
        let state = state();
        let kf = KronFitOptions {
            gradient_steps: 6,
            warmup_swaps: 400,
            samples_per_step: 2,
            swaps_between_samples: 100,
            chains: 2,
            ..Default::default()
        };
        for estimator in ["kronfit", "kronmom"] {
            // Baselines need no privacy budget; the kronfit block is ignored by kronmom.
            let body = format!(
                r#"{{"graph": {{"skg": {{"theta": {{"a": 0.95, "b": 0.55, "c": 0.2}}, "k": 7}}}},
                    "estimator": "{estimator}", "seed": 5, "kronfit": {}}}"#,
                kronpriv_json::to_string(&kf)
            );
            let response = route(&state, &request("POST", "/api/estimate", &body));
            assert_eq!(response.status, 202, "{estimator}: {}", response.body);
            let id = body_json(&response).get("job_id").unwrap().as_f64().unwrap() as u64;
            let snap = wait_for_job(&state, id);
            assert_eq!(snap.status, JobStatus::Done, "{estimator}: {:?}", snap.error);
            let result = snap.result.unwrap();
            assert_eq!(result.get("estimator").unwrap().as_str(), Some(estimator));
            let theta = result.get("theta").unwrap();
            let a = theta.get("a").unwrap().as_f64().unwrap();
            let c = theta.get("c").unwrap().as_f64().unwrap();
            assert!((0.0..=1.0).contains(&a) && a >= c);
            // A baseline document must never look like a private release.
            for absent in ["params", "private_statistics", "triangle_release"] {
                assert!(result.get(absent).is_none(), "{estimator} result leaked {absent}");
            }
        }
    }

    #[test]
    fn omitting_the_estimator_field_matches_explicit_private_byte_for_byte() {
        let state = state();
        let run = |body: &str| {
            let response = route(&state, &request("POST", "/api/estimate", body));
            assert_eq!(response.status, 202, "{}", response.body);
            let id = body_json(&response).get("job_id").unwrap().as_f64().unwrap() as u64;
            let snap = wait_for_job(&state, id);
            assert_eq!(snap.status, JobStatus::Done, "{:?}", snap.error);
            kronpriv_json::to_string(&snap.result.unwrap())
        };
        let explicit = SKG_BODY.replace("\"seed\": 11", "\"estimator\": \"private\", \"seed\": 11");
        assert_eq!(run(SKG_BODY), run(&explicit));
    }

    #[test]
    fn one_node_edge_lists_fail_cleanly_for_every_estimator() {
        // Regression: "0 0" parses to a single node (self-loops are dropped), the k = 0 corner
        // that used to reach the reciprocal `powi(-1)` gradient. Every estimator must fail the
        // job with the empty-graph message instead.
        let state = state();
        for estimator in ["private", "kronmom", "kronfit"] {
            let body = format!(
                r#"{{"graph": {{"edge_list": "0 0\n"}}, "estimator": "{estimator}",
                    "params": {{"epsilon": 1.0, "delta": 0.01}}, "seed": 1}}"#
            );
            let response = route(&state, &request("POST", "/api/estimate", &body));
            assert_eq!(response.status, 202, "{estimator}: {}", response.body);
            let id = body_json(&response).get("job_id").unwrap().as_f64().unwrap() as u64;
            let snap = wait_for_job(&state, id);
            assert_eq!(snap.status, JobStatus::Failed, "{estimator}");
            let message = snap.error.unwrap();
            assert!(message.contains("empty"), "{estimator}: {message}");
        }
    }

    #[test]
    fn unparseable_edge_lists_fail_as_jobs_with_a_message() {
        let state = state();
        let body = r#"{"graph": {"edge_list": "0 1\nnot numbers\n"},
                       "params": {"epsilon": 1.0, "delta": 0.01}, "seed": 1}"#;
        let response = route(&state, &request("POST", "/api/estimate", body));
        assert_eq!(response.status, 202);
        let id = body_json(&response).get("job_id").unwrap().as_f64().unwrap() as u64;
        let snap = wait_for_job(&state, id);
        assert_eq!(snap.status, JobStatus::Failed);
        assert!(snap.error.unwrap().contains("edge list rejected"));
    }

    #[test]
    fn sample_returns_an_edge_list_synchronously() {
        let state = state();
        let body = r#"{"theta": {"a": 0.95, "b": 0.55, "c": 0.2}, "k": 7, "seed": 5}"#;
        let response = route(&state, &request("POST", "/api/sample", body));
        assert_eq!(response.status, 200, "{}", response.body);
        let doc = body_json(&response);
        assert_eq!(doc.get("nodes").unwrap().as_f64(), Some(128.0));
        assert!(doc.get("edges").unwrap().as_f64().unwrap() > 0.0);
        let edge_list = doc.get("edge_list").unwrap().as_str().unwrap();
        assert!(edge_list.lines().any(|l| !l.starts_with('#')));
        // Deterministic: the same request gives the same body, byte for byte.
        let again = route(&state, &request("POST", "/api/sample", body));
        assert_eq!(again.body, response.body);
    }

    #[test]
    fn sample_rejects_bad_theta_and_oversized_k() {
        let state = state();
        let bad_theta = r#"{"theta": {"a": 2.0, "b": 0.5, "c": 0.2}, "k": 7, "seed": 5}"#;
        assert_eq!(route(&state, &request("POST", "/api/sample", bad_theta)).status, 400);
        let big_k = r#"{"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 31, "seed": 5}"#;
        assert_eq!(route(&state, &request("POST", "/api/sample", big_k)).status, 400);
    }

    #[test]
    fn unknown_routes_ids_and_methods() {
        let state = state();
        assert_eq!(route(&state, &request("GET", "/nope", "")).status, 404);
        assert_eq!(route(&state, &request("GET", "/api/jobs/999", "")).status, 404);
        assert_eq!(route(&state, &request("GET", "/api/jobs/abc", "")).status, 400);
        assert_eq!(route(&state, &request("DELETE", "/healthz", "")).status, 405);
        assert_eq!(route(&state, &request("GET", "/api/estimate", "")).status, 405);
        assert_eq!(route(&state, &request("PUT", "/api/sample", "")).status, 405);
        // Query strings are ignored for routing.
        assert_eq!(route(&state, &request("GET", "/healthz?verbose=1", "")).status, 200);
    }
}
