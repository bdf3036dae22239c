//! Request routing: parses each request target once into a `Route`, maps `(route, method)`
//! onto handlers and untrusted bodies onto validated pipeline calls. Every response body is
//! JSON; every client error is a 4xx with an [`ErrorBody`], never a worker panic.
//!
//! `Route` is the single route table: it alone knows the URL space, and it also names each
//! route for the metrics. The table is versioned and resource-scoped under `/api/v1/`; the
//! pre-versioning paths (`/api/estimate`, `/api/jobs/{id}[/events]`, `/api/sample`) parse onto
//! their v1 routes — same handlers, byte-identical bodies, plus a `Deprecation: true` response
//! header.

use crate::api::{
    BaselineResult, BudgetDoc, DatasetCreateRequest, DatasetDeleteResponse, DatasetDoc,
    DatasetEstimateRequest, DatasetListResponse, ErrorBody, EstimateRequest, EstimateResult,
    EstimatorKind, HealthResponse, InitiatorSpec, JobSpec, SampleRequest, SampleResponse,
    SubmitResponse,
};
use crate::datasets::{valid_name, CreateError, DatasetStore, DebitError};
use crate::http::{Request, Response};
use crate::jobs::{JobEventSink, JobSnapshot, JobStatus, JobStore};
use crate::ledger::{BudgetLedger, BudgetRefusal};
use crate::store::{self, PendingJob, Persistence};
use kronpriv::{try_kronfit_estimate, try_kronmom_estimate, try_private_estimate};
use kronpriv_graph::io::{parse_edge_list_reader, to_edge_list_string};
use kronpriv_graph::Graph;
use kronpriv_json::{
    from_str, push_json, push_json_number, push_json_str, to_string, FromJson, Json, ToJson,
};
use kronpriv_obs::Registry;
use kronpriv_par::Executor;
use kronpriv_skg::moments::expected_edges;
use kronpriv_skg::sample::sample_fast;
use kronpriv_skg::Initiator2;
use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// One request target, parsed once by [`Route::parse`]: the service's whole URL space. The
/// router dispatches on it, [`Route::label`] names it for the metrics, and the connection layer
/// intercepts [`Route::JobEvents`]. Both matches are exhaustive, so a new route cannot get a
/// handler without a label, or the reverse. Legacy spellings never get routes of their own:
/// they parse onto their v1 equivalent.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Route<'a> {
    Health,
    Metrics,
    Estimate,
    Sample,
    Datasets,
    /// `/api/v1/datasets/{name}`; [`dispatch`] validates the name of every dataset route.
    Dataset(&'a str),
    DatasetEstimate(&'a str),
    DatasetBudget(&'a str),
    /// `/api/v1/datasets/{name}/{part}` for any other `part`: an unknown sub-resource.
    DatasetPart(&'a str, &'a str),
    /// `/api/v1/jobs/{id}`; [`job_id`] parses the id, for the event stream too.
    Job(&'a str),
    JobEvents(&'a str),
    /// Any other path.
    Unknown(&'a str),
}

impl<'a> Route<'a> {
    /// Parses a request target, ignoring its `?query`, into its route and whether it was
    /// spelled as a deprecated alias (answered with `Deprecation: true`).
    pub(crate) fn parse(target: &'a str) -> (Route<'a>, bool) {
        let path = path_of(target);
        let job = |rest: &'a str| match rest.strip_suffix("/events") {
            Some(id) => Route::JobEvents(id),
            None => Route::Job(rest),
        };
        match path {
            "/healthz" => (Route::Health, false),
            "/metrics" => (Route::Metrics, false),
            "/api/v1/estimate" => (Route::Estimate, false),
            "/api/estimate" => (Route::Estimate, true),
            "/api/v1/sample" => (Route::Sample, false),
            "/api/sample" => (Route::Sample, true),
            "/api/v1/datasets" => (Route::Datasets, false),
            _ => {
                if let Some(rest) = path.strip_prefix("/api/v1/jobs/") {
                    (job(rest), false)
                } else if let Some(rest) = path.strip_prefix("/api/jobs/") {
                    (job(rest), true)
                } else if let Some(rest) = path.strip_prefix("/api/v1/datasets/") {
                    let route = match rest.split_once('/') {
                        None => Route::Dataset(rest),
                        Some((name, "estimate")) => Route::DatasetEstimate(name),
                        Some((name, "budget")) => Route::DatasetBudget(name),
                        Some((name, part)) => Route::DatasetPart(name, part),
                    };
                    (route, false)
                } else {
                    (Route::Unknown(path), false)
                }
            }
        }
    }

    /// The metrics `path` label: the route's skeleton in the spelling it was requested in, so
    /// legacy aliases keep their own, and `other` for an unknown path. The label set is thus
    /// bounded whatever clients send. A path under a known prefix keeps that prefix's skeleton
    /// even when it answers 404; an unknown dataset sub-resource is labelled by its last
    /// segment, as `estimate`, `budget` or the dataset document.
    pub(crate) fn label(self, deprecated: bool) -> &'static str {
        match (self, deprecated) {
            (Route::Health, _) => "/healthz",
            (Route::Metrics, _) => "/metrics",
            (Route::Estimate, false) => "/api/v1/estimate",
            (Route::Estimate, true) => "/api/estimate",
            (Route::Sample, false) => "/api/v1/sample",
            (Route::Sample, true) => "/api/sample",
            (Route::Datasets, _) => "/api/v1/datasets",
            (Route::Dataset(_), _) => "/api/v1/datasets/{name}",
            (Route::DatasetEstimate(_), _) => "/api/v1/datasets/{name}/estimate",
            (Route::DatasetBudget(_), _) => "/api/v1/datasets/{name}/budget",
            (Route::DatasetPart(_, part), _) => match part.rsplit_once('/') {
                Some((_, "estimate")) => "/api/v1/datasets/{name}/estimate",
                Some((_, "budget")) => "/api/v1/datasets/{name}/budget",
                _ => "/api/v1/datasets/{name}",
            },
            (Route::Job(_), false) => "/api/v1/jobs/{id}",
            (Route::Job(_), true) => "/api/jobs/{id}",
            (Route::JobEvents(_), false) => "/api/v1/jobs/{id}/events",
            (Route::JobEvents(_), true) => "/api/jobs/{id}/events",
            (Route::Unknown(_), _) => "other",
        }
    }
}

/// The path of a request target: the target without its `?query`.
pub(crate) fn path_of(target: &str) -> &str {
    target.split_once('?').map_or(target, |(path, _)| path)
}

/// Answers one request: parses its target into a `Route` and hands it to `dispatch`.
pub fn route(state: &AppState, request: &Request) -> Response {
    let (route, deprecated) = Route::parse(&request.path);
    dispatch(state, request, route, deprecated)
}

/// Answers a parsed request: the one match of route and method. A deprecated alias spelling
/// gets the byte-identical v1 response plus `Deprecation: true`, added here and nowhere else.
/// `HEAD` is answered as `GET` (RFC 9110 §9.3.2): same status, headers and `Content-Length`;
/// the connection layer then writes no content.
pub(crate) fn dispatch(
    state: &AppState,
    request: &Request,
    route: Route,
    deprecated: bool,
) -> Response {
    let method = match request.method.as_str() {
        "HEAD" => "GET",
        method => method,
    };
    let response = match (route, method) {
        (Route::Health, "GET") => health(state),
        (Route::Metrics, "GET") => metrics(),
        (Route::Health | Route::Metrics, _) => method_not_allowed("GET, HEAD"),
        (Route::Estimate, "POST") => estimate(state, request),
        (Route::Sample, "POST") => sample(state, request),
        (Route::Estimate | Route::Sample, _) => method_not_allowed("POST"),
        (Route::Datasets, "GET") => list_datasets(state),
        (Route::Datasets, "POST") => create_dataset(state, request),
        (Route::Datasets, _) => method_not_allowed("GET, HEAD, POST"),
        (
            Route::Dataset(name)
            | Route::DatasetEstimate(name)
            | Route::DatasetBudget(name)
            | Route::DatasetPart(name, _),
            _,
        ) if !valid_name(name) => {
            error(400, "bad_request", format!("invalid dataset name {name:?}"))
        }
        (Route::Dataset(name), "GET") => match state.datasets.meta(name) {
            Some(meta) => ok_json(200, &DatasetDoc::of(&meta)),
            None => no_such_dataset(name),
        },
        (Route::Dataset(name), "DELETE") => delete_dataset(state, name),
        (Route::Dataset(_), _) => method_not_allowed("GET, HEAD, DELETE"),
        (Route::DatasetEstimate(name), "POST") => dataset_estimate(state, request, name),
        (Route::DatasetEstimate(_), _) => method_not_allowed("POST"),
        (Route::DatasetBudget(name), "GET") => match state.datasets.meta(name) {
            Some(meta) => ok_json(200, &BudgetDoc::of(name, &meta.ledger)),
            None => no_such_dataset(name),
        },
        (Route::DatasetBudget(_), _) => method_not_allowed("GET, HEAD"),
        (Route::DatasetPart(_, part), _) => {
            error(404, "not_found", format!("no dataset sub-resource {part:?}"))
        }
        (Route::Job(raw_id), "GET") => {
            match job_id(raw_id).and_then(|id| state.jobs.get(id).ok_or_else(|| no_such_job(id))) {
                Ok(job) => Response::json(200, poll_body(&job)),
                Err(response) => response,
            }
        }
        (Route::Job(_), _) => method_not_allowed("GET, HEAD"),
        // The chunked event stream is written by the connection layer, which intercepts a valid
        // target before dispatch (it needs the raw socket). The router still owns the
        // validation, and answers for callers that cannot stream.
        (Route::JobEvents(raw_id), method) => match events_target(state, method, raw_id) {
            Ok(_) => error(400, "bad_request", "the event stream requires a direct connection"),
            Err(response) => response,
        },
        (Route::Unknown(path), _) => error(404, "not_found", format!("no route for {path}")),
    };
    if deprecated {
        response.with_header("Deprecation", "true")
    } else {
        response
    }
}

/// Parses the job id a path names, or gives the `400` response (the id is not an integer).
fn job_id(raw_id: &str) -> Result<u64, Response> {
    raw_id.parse().map_err(|_| {
        error(400, "bad_request", format!("job id must be an integer, got {raw_id:?}"))
    })
}

fn no_such_job(id: u64) -> Response {
    error(404, "not_found", format!("no such job: {id}"))
}

/// Validates a [`Route::JobEvents`] target: the method (`GET`, or `HEAD` answered as `GET`),
/// and that the job exists right now — checked without touching its result. `Ok(id)` means
/// the caller may stream; `Err` is the response to send instead. Shared by [`dispatch`] and
/// the connection layer's streaming intercept.
pub(crate) fn events_target(state: &AppState, method: &str, raw_id: &str) -> Result<u64, Response> {
    if !matches!(method, "GET" | "HEAD") {
        return Err(method_not_allowed("GET, HEAD"));
    }
    let id = job_id(raw_id)?;
    if state.jobs.contains(id) {
        Ok(id)
    } else {
        Err(no_such_job(id))
    }
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

/// The `405` answer for a known route: the `Allow` header (RFC 9110 §15.5.6) and the message
/// both name the route's methods, `HEAD` wherever `GET` is served, since [`dispatch`] answers
/// `HEAD` as `GET`.
fn method_not_allowed(allow: &'static str) -> Response {
    error(405, "method_not_allowed", format!("method not allowed; use {allow}"))
        .with_header("Allow", allow)
}

fn ok_json<T: ToJson>(status: u16, body: &T) -> Response {
    Response::json(status, to_string(body))
}

/// The `GET /api/v1/jobs/{id}` body, `{"job_id":…,"status":…,"result":…,"error":…}`: the
/// stored result text goes in verbatim, so a poll renders nothing but the envelope.
fn poll_body(job: &JobSnapshot) -> String {
    let result = job.result.as_deref().unwrap_or("null");
    let mut body = String::with_capacity(64 + result.len());
    body.push_str("{\"job_id\":");
    push_json_number(&mut body, job.id as f64);
    body.push_str(",\"status\":");
    push_json(&mut body, &job.status.to_json());
    body.push_str(",\"result\":");
    body.push_str(result);
    body.push_str(",\"error\":");
    match &job.error {
        Some(message) => push_json_str(&mut body, message),
        None => body.push_str("null"),
    }
    body.push('}');
    body
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
/// sets are bounded (fixed stage/mode names, [`Route::label`] skeletons), so the scrape size
/// is O(instrument count), not O(traffic).
fn metrics() -> Response {
    Response::metrics_text(200, Registry::global().render())
}

/// Parses a request body as UTF-8 JSON into `T`, or produces the 400 response.
fn parse_body<T: FromJson>(request: &Request) -> Result<T, Response> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| error(400, "bad_request", "request body is not valid UTF-8"))?;
    from_str::<T>(text).map_err(|e| error(400, "bad_request", format!("invalid request body: {e}")))
}

/// Largest expected edge count, `expected_edges(theta, k)`, of an SKG the server samples — on
/// `POST /api/v1/sample` and for inline `graph.skg` specs. 2^24 (about 16.8M) edges is far above
/// the 2^20-node nightly scale (about 2M edges), yet refuses requests such as θ = (1, 1, 1) at
/// k = 16 (about 2^31 edges), whose sampling would reserve gigabytes and pin a worker for hours.
const MAX_SAMPLE_EDGES: f64 = 16_777_216.0;

/// Validates an SKG the server is asked to sample: the order `k` (`name` on the wire) within the
/// deployment's `max` order, θ, and an expected edge count within [`MAX_SAMPLE_EDGES`].
fn check_skg(theta: &InitiatorSpec, k: u32, name: &str, max: u32) -> Result<Initiator2, SpecError> {
    if k == 0 || k > max {
        return Err(SpecError::Bad(format!("{name} must be in 1..={max}, got {k}")));
    }
    let theta = theta.validate().map_err(SpecError::Bad)?;
    let expected = expected_edges(&theta, k);
    if expected > MAX_SAMPLE_EDGES {
        return Err(SpecError::TooLarge(format!(
            "sampling theta=({}, {}, {}) at k={k} would realize about {expected:.0} edges, over \
             the limit of {MAX_SAMPLE_EDGES:.0}",
            theta.a, theta.b, theta.c
        )));
    }
    Ok(theta)
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
/// the job RNG on the shared executor. Exactly one of the two is present (validated before
/// submission).
fn materialize_graph(
    edge_list: &Option<String>,
    skg: Option<(Initiator2, u32)>,
    rng: &mut StdRng,
    exec: &Executor,
) -> Result<Graph, String> {
    match (edge_list, skg) {
        (Some(text), None) => {
            parse_edge_list_reader(text.as_bytes()).map_err(|e| format!("edge list rejected: {e}"))
        }
        (None, Some((theta, k))) => Ok(sample_fast(&theta, k, rng, exec)),
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
/// (both the inline and the dataset-scoped estimate routes) and boot replay, so a replayed job
/// passes the same rules as a live one. Option values are checked by the estimators' own
/// `validate` methods, which the job's estimator runs again; the router adds only the bounds
/// that need the input graph or the deployment.
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
            let theta = check_skg(&skg.theta, skg.k, "graph.skg.k", state.max_order)?;
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
            let budget = spec.params.ok_or_else(|| {
                SpecError::Bad("params is required for the private estimator".to_string())
            })?;
            let params = budget.validate().map_err(|e| SpecError::Bad(e.to_string()))?;
            let options = spec.options.unwrap_or_default();
            options.validate(params).map_err(|e| SpecError::Bad(e.to_string()))?;
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
                    let graph = materialize_graph(&edge_list, skg, &mut rng, &exec)?;
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
            options.validate().map_err(|e| SpecError::Bad(e.to_string()))?;
            Ok(PreparedJob {
                draw: None,
                work: Box::new(move |sink| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let graph = materialize_graph(&edge_list, skg, &mut rng, &exec)?;
                    let fit = try_kronmom_estimate(&graph, &options, &exec, sink)
                        .map_err(|e| format!("estimation rejected: {e}"))?;
                    Ok(BaselineResult::from_fit(EstimatorKind::KronMom, &fit, seed).to_json())
                }),
            })
        }
        EstimatorKind::KronFit => {
            let options = spec.kronfit.unwrap_or_default();
            options.validate().map_err(|e| SpecError::Bad(e.to_string()))?;
            Ok(PreparedJob {
                draw: None,
                work: Box::new(move |sink| {
                    // The same seeded RNG realizes the optional SKG input and then seeds the
                    // multi-chain permutation sampling, so the fit is a pure function of the
                    // request document (and independent of --compute-threads).
                    let mut rng = StdRng::seed_from_u64(seed);
                    let graph = materialize_graph(&edge_list, skg, &mut rng, &exec)?;
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
/// spec passes through the same `prepare_job` validation as a live request, and its job id
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

fn sample(state: &AppState, request: &Request) -> Response {
    let req: SampleRequest = match parse_body(request) {
        Ok(req) => req,
        Err(resp) => return resp,
    };
    let theta = match check_skg(&req.theta, req.k, "k", state.max_order) {
        Ok(theta) => theta,
        Err(e) => return e.response(),
    };
    let mut rng = StdRng::seed_from_u64(req.seed);
    let graph = sample_fast(&theta, req.k, &mut rng, &state.executor);
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
    use kronpriv_estimate::{KronFitOptions, KronMomOptions, PrivateEstimatorOptions};
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
    fn a_one_point_kronmom_grid_is_refused_before_any_debit() {
        // Regression: the seeding grid needs two points per axis (`grid_search` asserts it),
        // but one used to pass validation, so a dataset job was debited and then panicked.
        let state = state();
        let upload = format!(
            r#"{{"name": "g", "edge_list": {}, "budget": {{"epsilon": 5.0, "delta": 0.5}}}}"#,
            kronpriv_json::to_string(&ring(16))
        );
        assert_eq!(route(&state, &request("POST", "/api/v1/datasets", &upload)).status, 201);
        let options = |grid_points_per_axis| {
            kronpriv_json::to_string(&kronpriv_estimate::PrivateEstimatorOptions {
                kronmom: KronMomOptions { grid_points_per_axis, ..Default::default() },
                ..Default::default()
            })
        };
        let body = format!(
            r#"{{"params": {{"epsilon": 0.2, "delta": 0.01}}, "seed": 3, "options": {}}}"#,
            options(1)
        );
        let response = route(&state, &request("POST", "/api/v1/datasets/g/estimate", &body));
        assert_eq!(response.status, 400, "{}", response.body);
        assert!(response.body.contains("\"bad_request\""), "{}", response.body);
        assert!(
            response.body.contains("grid_points_per_axis must be in 2..=64"),
            "{}",
            response.body
        );
        let ledger = state.datasets.meta("g").unwrap().ledger;
        assert_eq!((ledger.epsilon_spent, ledger.delta_spent), (0.0, 0.0));
        // The KronMom baseline refuses it the same way.
        let graph = kronpriv_json::to_string(&ring(16));
        let baseline = |grid_points_per_axis| {
            format!(
                r#"{{"graph": {{"edge_list": {graph}}}, "estimator": "kronmom", "seed": 1,
                    "options": {}}}"#,
                options(grid_points_per_axis)
            )
        };
        let response = route(&state, &request("POST", "/api/estimate", &baseline(1)));
        assert_eq!(response.status, 400, "{}", response.body);
        assert_eq!(state.jobs.submitted(), 0, "a refused request must not enqueue a job");
        // Two points per axis, the smallest grid, is admitted (validated without running).
        let spec: JobSpec = from_str(&baseline(2)).map(JobSpec::from_estimate_request).unwrap();
        assert!(prepare_job(&state, &spec).is_ok());
    }

    /// The 128-node SKG the option-boundary tests run on: θ = (0.95, 0.55, 0.2), k = 7, seed 1.
    fn skg128() -> String {
        let theta = Initiator2::new(0.95, 0.55, 0.2);
        let graph = sample_fast(&theta, 7, &mut StdRng::seed_from_u64(1), &Executor::sequential());
        to_edge_list_string(&graph)
    }

    /// Uploads `edges` as dataset `name`, with a budget that any single valid draw fits in.
    fn upload(state: &AppState, name: &str, edges: &str) {
        let body = format!(
            r#"{{"name": "{name}", "edge_list": {},
                 "budget": {{"epsilon": 1.7976931348623157e308, "delta": 0.9999999999999999}}}}"#,
            kronpriv_json::to_string(edges)
        );
        assert_eq!(route(state, &request("POST", "/api/v1/datasets", &body)).status, 201);
    }

    /// `doc`, a compact JSON document, with the value of its key `field` replaced by the JSON
    /// text `value`. Every key the option-boundary tests vary is unique in its document.
    fn with_field(doc: &str, field: &str, value: &str) -> String {
        let key = format!("\"{field}\":");
        let start = doc.find(&key).unwrap_or_else(|| panic!("{doc} lacks {field}")) + key.len();
        let end = start + doc[start..].find([',', '}']).unwrap();
        format!("{}{value}{}", &doc[..start], &doc[end..])
    }

    /// The default private options with `field` set to the JSON text `value`.
    fn options_with(field: &str, value: &str) -> String {
        let options = kronpriv_json::to_string(&PrivateEstimatorOptions::default());
        with_field(&options, field, value)
    }

    /// Posts the draw `body` against the 128-node SKG dataset and asserts a `400 bad_request`
    /// that created no job and left the ledger untouched.
    fn assert_refused_before_any_debit(body: &str) {
        let state = state();
        upload(&state, "g", &skg128());
        let response = route(&state, &request("POST", "/api/v1/datasets/g/estimate", body));
        assert_eq!(response.status, 400, "{}", response.body);
        assert!(response.body.contains("\"bad_request\""), "{}", response.body);
        let ledger = state.datasets.meta("g").unwrap().ledger;
        assert_eq!((ledger.epsilon_spent, ledger.delta_spent), (0.0, 0.0));
        assert_eq!(state.jobs.submitted(), 0, "a refused draw must not enqueue a job");
    }

    /// A `(0.2, 0.01)` draw with the default options but `fraction` as the degree budget.
    fn paper_draw_with_fraction(fraction: &str) -> String {
        let options = options_with("degree_budget_fraction", fraction);
        format!(
            r#"{{"params": {{"epsilon": 0.2, "delta": 0.01}}, "seed": 1, "options": {options}}}"#
        )
    }

    #[test]
    fn a_degree_budget_fraction_that_underflows_is_refused_before_any_debit() {
        // ε·frac rounds to 0: the degree stage used to panic building its budget.
        assert_refused_before_any_debit(&paper_draw_with_fraction("5e-324"));
    }

    #[test]
    fn a_degree_budget_fraction_below_the_stage_floor_is_refused_before_any_debit() {
        // ε·frac = 2e-301: the noisy statistics used to overflow, leaving no objective value.
        assert_refused_before_any_debit(&paper_draw_with_fraction("1e-300"));
    }

    #[test]
    fn an_epsilon_that_underflows_in_the_split_is_refused_before_any_debit() {
        assert_refused_before_any_debit(
            r#"{"params": {"epsilon": 5e-324, "delta": 0.01}, "seed": 1}"#,
        );
    }

    #[test]
    fn an_epsilon_below_the_stage_floor_is_refused_before_any_debit() {
        assert_refused_before_any_debit(
            r#"{"params": {"epsilon": 1e-300, "delta": 0.01}, "seed": 1}"#,
        );
    }

    #[test]
    fn a_delta_whose_smoothing_parameter_vanishes_is_refused_before_any_debit() {
        // 2/δ overflows, so β = ε / (2 ln(2/δ)) is 0 and the triangle release used to panic.
        assert_refused_before_any_debit(
            r#"{"params": {"epsilon": 0.2, "delta": 5e-324}, "seed": 1}"#,
        );
    }

    /// Submits one request and checks the option-boundary property on it: a `4xx` that created
    /// no job and spent nothing, or a job that ends `Done` with a finite θ and objective value.
    /// A document `at_cap` is only validated: running it is the cost its cap bounds.
    fn check_document(
        state: &AppState,
        path: &str,
        body: &str,
        dataset: Option<&str>,
        at_cap: bool,
    ) -> Result<(), String> {
        if at_cap {
            let spec = match dataset {
                Some(name) => from_str(body).map(|req| JobSpec::from_dataset_request(name, req)),
                None => from_str(body).map(JobSpec::from_estimate_request),
            };
            let spec = spec.map_err(|e| e.to_string())?;
            return prepare_job(state, &spec).map(|_| ()).map_err(|e| e.message());
        }
        let spent = || {
            dataset.map(|name| {
                let ledger = state.datasets.meta(name).unwrap().ledger;
                (ledger.epsilon_spent, ledger.delta_spent)
            })
        };
        let (submitted, ledger) = (state.jobs.submitted(), spent());
        let response = route(state, &request("POST", path, body));
        match response.status {
            202 => {
                let id = body_json(&response).get("job_id").unwrap().as_f64().unwrap() as u64;
                let snap = wait_for_job(state, id);
                let result =
                    snap.result.ok_or(format!("admitted, then failed: {:?}", snap.error))?;
                let doc = Json::parse(&result).unwrap();
                let finite =
                    |v: Option<&Json>| v.and_then(Json::as_f64).is_some_and(f64::is_finite);
                let theta = doc.get("theta").unwrap();
                match ["a", "b", "c"].into_iter().all(|p| finite(theta.get(p)))
                    && finite(doc.get("objective_value"))
                {
                    true => Ok(()),
                    false => Err(format!("admitted, then released {result}")),
                }
            }
            400..=499 if state.jobs.submitted() != submitted => Err("a refusal made a job".into()),
            400..=499 if spent() != ledger => Err("a refusal spent budget".into()),
            400..=499 => Ok(()),
            status => Err(format!("answered {status}: {}", response.body)),
        }
    }

    /// The option-boundary property over generated documents. Each case varies one field of a
    /// base document through its boundary values (integers 0, 1, 2, the cap and one past it;
    /// floats from -1e308 to `1e999`, which parses to +∞, plus the values next to each bound)
    /// on the 128-node SKG, as a dataset and inline; three multi-field cases follow. Every
    /// document must be refused with nothing spent or release finite values.
    #[test]
    fn option_documents_are_refused_unspent_or_release_finite_values() {
        let state = state();
        let skg = skg128();
        let inline = format!(r#""graph": {{"edge_list": {}}},"#, kronpriv_json::to_string(&skg));
        let options = kronpriv_json::to_string(&PrivateEstimatorOptions::default());
        // KronFit's default runs 6.24M swaps a job; this base keeps a debug build quick.
        let kronfit = kronpriv_json::to_string(&KronFitOptions {
            gradient_steps: 5,
            warmup_swaps: 200,
            samples_per_step: 2,
            swaps_between_samples: 50,
            chains: 2,
            ..Default::default()
        });
        let params = r#"{"epsilon":0.2,"delta":0.01}"#;
        // The largest float below `bound`, as JSON text.
        let below = |bound: f64| format!("{:e}", f64::from_bits(bound.to_bits() - 1));
        let floats = |extra: &[String]| {
            let values = ["-1e308", "0", "5e-324", "1e-300", "1", "1e308", "1e999"];
            values.map(String::from).into_iter().chain(extra.iter().cloned()).collect::<Vec<_>>()
        };
        let ints = |cap: usize| [0, 1, 2, cap, cap + 1].map(|v| (v.to_string(), v == cap)).to_vec();
        let uncapped = |values: Vec<String>| values.into_iter().map(|v| (v, false)).collect();

        // One draw of `params` with `options`: on a fresh dataset, then inline.
        let mut datasets = 0;
        let mut private = |params: &str, options: &str| {
            datasets += 1;
            let name = format!("d{datasets}");
            upload(&state, &name, &skg);
            let tail = format!(r#""params": {params}, "seed": 3, "options": {options}}}"#);
            vec![
                (format!("/api/v1/datasets/{name}/estimate"), format!("{{{tail}"), Some(name)),
                ("/api/v1/estimate".to_string(), format!("{{{inline} {tail}"), None),
            ]
        };
        let baseline = |graph: &str, estimator: &str, field: &str, doc: &str| {
            let body = format!(
                r#"{{"graph": {{"edge_list": {graph}}}, "estimator": "{estimator}", "seed": 3,
                    "{field}": {doc}}}"#
            );
            vec![("/api/v1/estimate".to_string(), body, None)]
        };
        let graph = kronpriv_json::to_string(&skg);

        let mut cases = Vec::new();
        let option_fields: Vec<(&str, Vec<(String, bool)>)> = vec![
            ("degree_budget_fraction", uncapped(floats(&[below(1.0), "1e-8".into()]))),
            ("triangle_signal_threshold", uncapped(floats(&[]))),
            ("exact_smooth_sensitivity", uncapped(vec!["true".into()])),
            ("degrees_only", uncapped(vec!["true".into()])),
            ("grid_points_per_axis", ints(64)),
            ("refine_top", ints(64)),
            ("max_evaluations", ints(1_000_000)),
        ];
        for (field, values) in option_fields {
            let kronmom =
                ["grid_points_per_axis", "refine_top", "max_evaluations"].contains(&field);
            for (value, at_cap) in values {
                let doc = with_field(&options, field, &value);
                cases.push((format!("options.{field} = {value}"), private(params, &doc), at_cap));
                if kronmom {
                    let runs = baseline(&graph, "kronmom", "options", &doc);
                    cases.push((format!("kronmom baseline {field} = {value}"), runs, at_cap));
                }
            }
        }
        for (field, extra) in
            [("epsilon", vec![below(2e-9), "2e-9".into()]), ("delta", vec![below(1.0)])]
        {
            for value in floats(&extra) {
                let runs = private(&with_field(params, field, &value), &options);
                cases.push((format!("params.{field} = {value}"), runs, false));
            }
        }
        let kronfit_fields: Vec<(&str, Vec<(String, bool)>)> = vec![
            // Caps for the base document: 4096 chain-step events over 2 chains, and 10⁹
            // proposals over 5 steps × 2 chains × (warm-up + one spaced sample).
            ("gradient_steps", ints(2048)),
            ("warmup_swaps", ints(99_999_950)),
            ("samples_per_step", ints(64)),
            ("swaps_between_samples", ints(99_999_800)),
            ("chains", ints(64)),
            ("learning_rate", uncapped(floats(&[]))),
            ("min_parameter", uncapped(floats(&[below(1e-9), "1e-9".into()]))),
        ];
        for (field, values) in kronfit_fields {
            for (value, at_cap) in values {
                let runs =
                    baseline(&graph, "kronfit", "kronfit", &with_field(&kronfit, field, &value));
                cases.push((format!("kronfit.{field} = {value}"), runs, at_cap));
            }
        }
        for corner in 0..8 {
            let [a, b, c] = [4, 2, 1].map(|bit| if corner & bit == 0 { "0" } else { "1" });
            let doc = with_field(&with_field(&with_field(&kronfit, "a", a), "b", b), "c", c);
            let runs = baseline(&graph, "kronfit", "kronfit", &doc);
            cases.push((format!("kronfit.initial = ({a}, {b}, {c})"), runs, false));
        }

        // Multi-field cases. The probe's affordable draw with an unevaluated fit:
        let runs =
            private(r#"{"epsilon":0.1,"delta":0.01}"#, &options_with("max_evaluations", "0"));
        cases.push(("the probe's max_evaluations = 0 draw".to_string(), runs, false));
        // The degrees-only ablation spends all of ε on the degree stage, at δ = 0:
        let degrees_only = options_with("degrees_only", "true");
        for epsilon in ["1e-300", "1e-9"] {
            let runs = private(&format!(r#"{{"epsilon":{epsilon},"delta":0}}"#), &degrees_only);
            cases.push((format!("degrees-only at epsilon = {epsilon}"), runs, false));
        }
        // KronFit driven onto its clamp: c starts at 0 and a long step pushes it down, on a
        // 64-node ring with chords.
        let ring: String =
            (0..64).map(|i| format!("{i} {}\n{i} {}\n", (i + 1) % 64, (i + 7) % 64)).collect();
        let steep = with_field(
            &with_field(&with_field(&kronfit, "c", "0"), "learning_rate", "0.5"),
            "gradient_steps",
            "20",
        );
        for floor in ["5e-324", "1e-9"] {
            let doc = with_field(&steep, "min_parameter", floor);
            let runs = baseline(&kronpriv_json::to_string(&ring), "kronfit", "kronfit", &doc);
            cases.push((format!("kronfit clamped at min_parameter = {floor}"), runs, false));
        }

        let mut violations = Vec::new();
        for (label, runs, at_cap) in cases {
            for (path, body, dataset) in runs {
                if let Err(why) = check_document(&state, &path, &body, dataset.as_deref(), at_cap) {
                    violations.push(format!("{label} on {path}: {why}"));
                }
            }
        }
        assert!(
            violations.is_empty(),
            "{} violations:\n{}",
            violations.len(),
            violations.join("\n")
        );
    }

    #[test]
    fn a_pending_job_whose_options_are_now_refused_replays_as_failed_and_keeps_its_debit() {
        // An older binary admitted `max_evaluations: 0`, debited the draw and logged the job.
        // Replay re-validates the spec under today's rules: the job is restored as failed, and
        // the debit, already replayed from the log, stays spent.
        let state = state();
        upload(&state, "g", &skg128());
        state.datasets.try_debit("g", 0.2, 0.01).unwrap();
        let options = options_with("max_evaluations", "0");
        let body = format!(
            r#"{{"params": {{"epsilon": 0.2, "delta": 0.01}}, "seed": 1, "options": {options}}}"#
        );
        let spec = JobSpec::from_dataset_request("g", from_str(&body).unwrap());
        replay_pending(&state, vec![PendingJob { id: 7, spec: spec.to_json() }]);
        let snap = state.jobs.get(7).expect("the pending job is restored");
        assert_eq!(snap.status, JobStatus::Failed);
        let error = snap.error.unwrap();
        assert!(error.starts_with("replay rejected: kronmom.max_evaluations"), "{error}");
        let ledger = state.datasets.meta("g").unwrap().ledger;
        assert_eq!((ledger.epsilon_spent, ledger.delta_spent), (0.2, 0.01));
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
        let result = Json::parse(&snap.result.unwrap()).unwrap();
        let theta = result.get("theta").unwrap();
        let a = theta.get("a").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&a));
        // Poll endpoint renders the same record.
        let poll = route(&state, &request("GET", &format!("/api/jobs/{id}"), ""));
        assert_eq!(poll.status, 200);
        assert_eq!(body_json(&poll).get("status").unwrap().as_str(), Some("Done"));
    }

    #[test]
    fn poll_bodies_wrap_the_terminal_event_bytes() {
        let state = state();
        // The last line of a finished job's event log, with its `{"event":"<kind>","<field>":`
        // head and closing brace stripped: the bytes the poll body must embed.
        let terminal = |id: u64, head: &str| {
            let (log, finished) = state.jobs.wait_events(id, 0, Duration::from_secs(5)).unwrap();
            assert!(finished);
            let last = log.lines().last().unwrap().to_string();
            last.strip_prefix(head).and_then(|rest| rest.strip_suffix('}')).unwrap().to_string()
        };
        let poll = |id: u64| {
            let poll = route(&state, &request("GET", &format!("/api/jobs/{id}"), ""));
            assert_eq!(poll.status, 200);
            poll.body
        };

        let response = route(&state, &request("POST", "/api/estimate", SKG_BODY));
        let id = body_json(&response).get("job_id").unwrap().as_f64().unwrap() as u64;
        assert_eq!(wait_for_job(&state, id).status, JobStatus::Done);
        let result = terminal(id, "{\"event\":\"done\",\"result\":");
        assert_eq!(
            poll(id),
            format!("{{\"job_id\":{id},\"status\":\"Done\",\"result\":{result},\"error\":null}}")
        );

        let body = r#"{"graph": {"edge_list": "0 1\n\"2\" 3\n"},
                       "params": {"epsilon": 1.0, "delta": 0.01}, "seed": 1}"#;
        let response = route(&state, &request("POST", "/api/estimate", body));
        let id = body_json(&response).get("job_id").unwrap().as_f64().unwrap() as u64;
        assert_eq!(wait_for_job(&state, id).status, JobStatus::Failed);
        let error = terminal(id, "{\"event\":\"failed\",\"error\":");
        assert_eq!(
            poll(id),
            format!("{{\"job_id\":{id},\"status\":\"Failed\",\"result\":null,\"error\":{error}}}")
        );
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
            snap.result.unwrap()
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
            // Within both product caps, yet 10^6 chain-step events would pin a ~100 MB log.
            (
                r#"{"graph": {"edge_list": "0 1\n1 2\n2 3\n3 0\n"},
                   "estimator": "kronfit", "seed": 1,
                   "kronfit": {"gradient_steps": 15625, "warmup_swaps": 0,
                               "samples_per_step": 1, "swaps_between_samples": 0,
                               "learning_rate": 0.06, "min_parameter": 0.001,
                               "initial": {"a": 0.9, "b": 0.6, "c": 0.2}, "chains": 64}}"#,
                "kronfit progress log too large",
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
            let result = Json::parse(&snap.result.unwrap()).unwrap();
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
            snap.result.unwrap()
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

    /// The URL space as a method × path grid through [`route`]: the status, the error `code`
    /// and the extra headers of every answer, with one dataset (`g`) and one finished job (1)
    /// in the state. Every `405` carries the row's `Allow` list. POSTs carry an empty body, so
    /// none of them creates anything; the dataset document row comes last because its DELETE
    /// removes `g`.
    #[test]
    fn every_method_and_path_answers_as_pinned() {
        let state = state();
        let upload = r#"{"name": "g", "edge_list": "0 1\n1 2\n",
                         "budget": {"epsilon": 1.0, "delta": 0.1}}"#;
        assert_eq!(route(&state, &request("POST", "/api/v1/datasets", upload)).status, 201);
        state.jobs.restore_finished(1, Ok(Json::Null));
        const BAD: &str = "400 bad_request";
        const MISSING: &str = "404 not_found";
        const NO_DATASET: &str = "404 no_such_dataset";
        const METHOD: &str = "405 method_not_allowed";
        const METHODS: [&str; 5] = ["GET", "HEAD", "POST", "PUT", "DELETE"];
        // The `Allow` list of each route's `405`s; `NONE` marks a row that never answers 405.
        const GET_HEAD: &str = "GET, HEAD";
        const POST: &str = "POST";
        const GET_HEAD_POST: &str = "GET, HEAD, POST";
        const GET_HEAD_DELETE: &str = "GET, HEAD, DELETE";
        const NONE: &str = "";
        // (target, deprecated alias?, Allow on a 405, the answer to each of METHODS)
        let grid: &[(&str, bool, &str, [&str; 5])] = &[
            ("/healthz", false, GET_HEAD, ["200", "200", METHOD, METHOD, METHOD]),
            ("/healthz?verbose=1", false, GET_HEAD, ["200", "200", METHOD, METHOD, METHOD]),
            ("/metrics", false, GET_HEAD, ["200", "200", METHOD, METHOD, METHOD]),
            ("/api/v1/estimate", false, POST, [METHOD, METHOD, BAD, METHOD, METHOD]),
            ("/api/estimate", true, POST, [METHOD, METHOD, BAD, METHOD, METHOD]),
            ("/api/v1/sample", false, POST, [METHOD, METHOD, BAD, METHOD, METHOD]),
            ("/api/sample", true, POST, [METHOD, METHOD, BAD, METHOD, METHOD]),
            ("/api/v1/datasets", false, GET_HEAD_POST, ["200", "200", BAD, METHOD, METHOD]),
            ("/api/v1/jobs/1", false, GET_HEAD, ["200", "200", METHOD, METHOD, METHOD]),
            ("/api/jobs/1", true, GET_HEAD, ["200", "200", METHOD, METHOD, METHOD]),
            ("/api/jobs/1?verbose=1", true, GET_HEAD, ["200", "200", METHOD, METHOD, METHOD]),
            ("/api/v1/jobs/2", false, GET_HEAD, [MISSING, MISSING, METHOD, METHOD, METHOD]),
            ("/api/jobs/abc", true, GET_HEAD, [BAD, BAD, METHOD, METHOD, METHOD]),
            // A live stream target: the plain router cannot stream it.
            ("/api/v1/jobs/1/events", false, GET_HEAD, [BAD, BAD, METHOD, METHOD, METHOD]),
            ("/api/jobs/1/events", true, GET_HEAD, [BAD, BAD, METHOD, METHOD, METHOD]),
            ("/api/v1/jobs/2/events", false, GET_HEAD, [MISSING, MISSING, METHOD, METHOD, METHOD]),
            ("/api/jobs/2/events", true, GET_HEAD, [MISSING, MISSING, METHOD, METHOD, METHOD]),
            ("/api/v1/jobs/abc/events", false, GET_HEAD, [BAD, BAD, METHOD, METHOD, METHOD]),
            ("/api/v1/jobs/1/2/events", false, GET_HEAD, [BAD, BAD, METHOD, METHOD, METHOD]),
            ("/api/v1/jobs//events", false, GET_HEAD, [BAD, BAD, METHOD, METHOD, METHOD]),
            ("/api/v1/jobs/7/events/", false, GET_HEAD, [BAD, BAD, METHOD, METHOD, METHOD]),
            ("/api/jobs/", true, GET_HEAD, [BAD, BAD, METHOD, METHOD, METHOD]),
            ("/api/v1/jobs", false, NONE, [MISSING; 5]),
            ("/api/v1/datasets/g/budget", false, GET_HEAD, ["200", "200", METHOD, METHOD, METHOD]),
            (
                "/api/v1/datasets/nope/budget",
                false,
                GET_HEAD,
                [NO_DATASET, NO_DATASET, METHOD, METHOD, METHOD],
            ),
            ("/api/v1/datasets/g/estimate", false, POST, [METHOD, METHOD, BAD, METHOD, METHOD]),
            ("/api/v1/datasets/nope/estimate", false, POST, [METHOD, METHOD, BAD, METHOD, METHOD]),
            ("/api/v1/datasets/g/foo", false, NONE, [MISSING; 5]),
            ("/api/v1/datasets/g/x/estimate", false, NONE, [MISSING; 5]),
            (
                "/api/v1/datasets/estimate",
                false,
                GET_HEAD_DELETE,
                [NO_DATASET, NO_DATASET, METHOD, METHOD, NO_DATASET],
            ),
            ("/api/v1/datasets/", false, NONE, [BAD; 5]),
            ("/api/v1/datasets/bad%20name/budget", false, NONE, [BAD; 5]),
            ("/api/datasets", false, NONE, [MISSING; 5]),
            ("/api/v1/estimate/", false, NONE, [MISSING; 5]),
            ("/nope", false, NONE, [MISSING; 5]),
            ("", false, NONE, [MISSING; 5]),
            ("/api/v1/datasets/g", false, GET_HEAD_DELETE, ["200", "200", METHOD, METHOD, "200"]),
        ];
        for &(target, deprecated, allow, answers) in grid {
            for (method, want) in METHODS.into_iter().zip(answers) {
                let response = route(&state, &request(method, target, ""));
                let got = match response.status {
                    status @ 400.. => {
                        let body = body_json(&response);
                        format!("{status} {}", body.get("code").unwrap().as_str().unwrap())
                    }
                    status => status.to_string(),
                };
                assert_eq!(got, want, "{method} {target:?}: {}", response.body);
                let mut headers = Vec::new();
                if response.status == 405 {
                    headers.push(("Allow", allow));
                }
                if deprecated {
                    headers.push(("Deprecation", "true"));
                }
                assert_eq!(response.headers, headers, "{method} {target:?}");
            }
        }
    }
}
