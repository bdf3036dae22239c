//! The wire types of the HTTP/JSON API, defined with the `kronpriv-json` derive-style macros.
//!
//! Request types deliberately do not reuse the library structs (`PrivacyParams`, `Initiator2`):
//! deserializing through `impl_json_struct!` skips the library's validating constructors, so an
//! untrusted budget or initiator arrives in a `*Spec` type here, and estimator options in their
//! library types; each passes its `validate()` before it touches the pipeline. Response types are
//! likewise separate from the library structs so that only *released* values cross the wire — in
//! particular the exact triangle count, which [`kronpriv_dp::PrivateTriangleCount`] retains for
//! experiment bookkeeping, is never serialized by the server.

use crate::datasets::DatasetMeta;
use crate::jobs::JobStatus;
use crate::ledger::BudgetLedger;
use kronpriv_dp::{ParamError, PrivacyParams};
use kronpriv_estimate::{
    FittedInitiator, KronFitOptions, PrivateEstimate, PrivateEstimatorOptions,
};
use kronpriv_json::{impl_json_struct, impl_json_struct_lenient};
use kronpriv_skg::Initiator2;

/// An `(ε, δ)` privacy budget as it appears on the wire (untrusted until validated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetSpec {
    /// The requested `ε`.
    pub epsilon: f64,
    /// The requested `δ`.
    pub delta: f64,
}

impl_json_struct!(BudgetSpec { epsilon, delta });

impl BudgetSpec {
    /// Validates the pair into a [`PrivacyParams`] via [`PrivacyParams::try_new`].
    pub fn validate(&self) -> Result<PrivacyParams, ParamError> {
        PrivacyParams::try_new(self.epsilon, self.delta)
    }

    /// The wire form of an already-validated budget.
    pub fn of(params: PrivacyParams) -> Self {
        BudgetSpec { epsilon: params.epsilon, delta: params.delta }
    }
}

/// A 2×2 initiator matrix `[a b; b c]` as it appears on the wire (untrusted until validated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InitiatorSpec {
    /// Core-block probability.
    pub a: f64,
    /// Cross-block probability.
    pub b: f64,
    /// Periphery-block probability.
    pub c: f64,
}

impl_json_struct!(InitiatorSpec { a, b, c });

impl InitiatorSpec {
    /// Validates the entries into an [`Initiator2`] via [`Initiator2::try_new`].
    pub fn validate(&self) -> Result<Initiator2, String> {
        Initiator2::try_new(self.a, self.b, self.c).map_err(|e| e.to_string())
    }

    /// The wire form of a released initiator.
    pub fn of(theta: &Initiator2) -> Self {
        InitiatorSpec { a: theta.a, b: theta.b, c: theta.c }
    }
}

/// A sampled-SKG input graph specification: the server realizes an order-`k` stochastic
/// Kronecker graph from `theta` and treats it as the sensitive input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkgSpec {
    /// The generating initiator.
    pub theta: InitiatorSpec,
    /// The Kronecker order (`2^k` nodes).
    pub k: u32,
}

impl_json_struct!(SkgSpec { theta, k });

/// The input graph of an estimation request: exactly one of the two fields must be present.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSpec {
    /// A SNAP-format edge list uploaded inline (whitespace-separated pairs, `#` comments).
    pub edge_list: Option<String>,
    /// A sampled-SKG specification realized server-side from the request seed.
    pub skg: Option<SkgSpec>,
}

impl_json_struct_lenient!(GraphSpec { edge_list, skg });

/// Which Table-1 column an `/api/estimate` job should produce.
///
/// Parsed from the request's optional `estimator` field; absent means [`EstimatorKind::Private`]
/// so existing clients keep today's wire behaviour. The two baselines are **not differentially
/// private** — they fit the exact uploaded graph and exist for side-by-side comparison with the
/// private release, exactly as in the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Algorithm 1, the paper's `(ε, δ)`-DP estimator (the default).
    Private,
    /// Gleich & Owen's moment-matching baseline (non-private).
    KronMom,
    /// Leskovec & Faloutsos's approximate-MLE baseline (non-private).
    KronFit,
}

impl EstimatorKind {
    /// Parses the wire spelling (`"private"`, `"kronmom"`, `"kronfit"`; `None` ⇒ private).
    pub fn parse(raw: Option<&str>) -> Result<Self, String> {
        match raw {
            None | Some("private") => Ok(EstimatorKind::Private),
            Some("kronmom") => Ok(EstimatorKind::KronMom),
            Some("kronfit") => Ok(EstimatorKind::KronFit),
            Some(other) => Err(format!(
                "unknown estimator {other:?}; use \"private\", \"kronmom\" or \"kronfit\""
            )),
        }
    }

    /// The wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            EstimatorKind::Private => "private",
            EstimatorKind::KronMom => "kronmom",
            EstimatorKind::KronFit => "kronfit",
        }
    }
}

/// `POST /api/estimate`: run an estimation job — by default the full Algorithm 1 private
/// release, or one of the non-private Table-1 baselines when `estimator` says so.
#[derive(Debug, Clone)]
pub struct EstimateRequest {
    /// The sensitive input graph.
    pub graph: GraphSpec,
    /// The total privacy budget to spend. Required for the private estimator; ignored by the
    /// non-private baselines (which may omit it).
    pub params: Option<BudgetSpec>,
    /// Seed for all server-side randomness (graph realization, privacy noise, KronFit chains).
    /// Identical requests with identical seeds produce byte-identical result documents.
    pub seed: u64,
    /// Which estimator to run: `"private"` (default), `"kronmom"` or `"kronfit"`.
    pub estimator: Option<String>,
    /// Estimator options for the private pipeline (its `kronmom` block also configures the
    /// KronMom baseline); defaults to [`PrivateEstimatorOptions::default`] when omitted.
    pub options: Option<PrivateEstimatorOptions>,
    /// Options for the KronFit baseline; defaults to [`KronFitOptions::default`] when omitted.
    /// Only consulted when `estimator` is `"kronfit"`.
    pub kronfit: Option<KronFitOptions>,
    /// When true, the result document includes the released private degree sequence (it can be
    /// large — one number per node — so it is opt-in). Private estimator only.
    pub include_degree_sequence: Option<bool>,
}

impl_json_struct_lenient!(EstimateRequest {
    graph,
    params,
    seed,
    estimator,
    options,
    kronfit,
    include_degree_sequence,
});

/// The normalized form every estimate submission reduces to — both `POST /api/v1/estimate`
/// (inline graph) and `POST /api/v1/datasets/{name}/estimate` (named dataset) build one, and
/// it is what the durable store persists so a pending job can be re-validated and re-run
/// byte-identically after a restart. Exactly one of `dataset`, `edge_list`, `skg` names the
/// input graph.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Named dataset to estimate (its stored edge list is resolved server-side).
    pub dataset: Option<String>,
    /// A SNAP-format edge list uploaded inline with the request.
    pub edge_list: Option<String>,
    /// A sampled-SKG specification realized server-side from the request seed.
    pub skg: Option<SkgSpec>,
    /// The `(ε, δ)` draw. Required for the private estimator.
    pub params: Option<BudgetSpec>,
    /// Seed for all server-side randomness; identical specs with identical seeds produce
    /// byte-identical result documents (this is what makes crash replay exact).
    pub seed: u64,
    /// Which estimator to run: `"private"` (default), `"kronmom"` or `"kronfit"`.
    pub estimator: Option<String>,
    /// Options for the private pipeline / KronMom baseline.
    pub options: Option<PrivateEstimatorOptions>,
    /// Options for the KronFit baseline.
    pub kronfit: Option<KronFitOptions>,
    /// Opt-in for the released private degree sequence on the result document.
    pub include_degree_sequence: Option<bool>,
}

impl_json_struct_lenient!(JobSpec {
    dataset,
    edge_list,
    skg,
    params,
    seed,
    estimator,
    options,
    kronfit,
    include_degree_sequence,
});

impl JobSpec {
    /// Normalizes a legacy/v1 inline estimate request.
    pub fn from_estimate_request(req: EstimateRequest) -> Self {
        JobSpec {
            dataset: None,
            edge_list: req.graph.edge_list,
            skg: req.graph.skg,
            params: req.params,
            seed: req.seed,
            estimator: req.estimator,
            options: req.options,
            kronfit: req.kronfit,
            include_degree_sequence: req.include_degree_sequence,
        }
    }

    /// Normalizes a dataset-scoped estimate request against the named dataset.
    pub fn from_dataset_request(name: &str, req: DatasetEstimateRequest) -> Self {
        JobSpec {
            dataset: Some(name.to_string()),
            edge_list: None,
            skg: None,
            params: req.params,
            seed: req.seed,
            estimator: req.estimator,
            options: req.options,
            kronfit: None,
            include_degree_sequence: req.include_degree_sequence,
        }
    }
}

/// The published part of the smooth-sensitivity triangle release.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriangleReleaseDoc {
    /// The released (noisy) triangle count `Δ̃`.
    pub value: f64,
    /// The smoothing parameter `β = ε / (2 ln(2/δ))` (a function of public parameters only).
    pub beta: f64,
    /// The budget spent on this release.
    pub params: BudgetSpec,
}

impl_json_struct!(TriangleReleaseDoc { value, beta, params });

/// The result document of a finished estimation job — only released values, ready to publish.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateResult {
    /// The seed the job ran with (echoed for reproducibility).
    pub seed: u64,
    /// The total `(ε, δ)` budget spent.
    pub params: BudgetSpec,
    /// The released initiator estimate `Θ̃` (canonical form, `a ≥ c`).
    pub theta: InitiatorSpec,
    /// The Kronecker order of the fit.
    pub k: u32,
    /// Final moment-matching objective value.
    pub objective_value: f64,
    /// Objective evaluations spent by the optimizer.
    pub evaluations: u64,
    /// The private matching statistics `[Ẽ, H̃, Δ̃, T̃]` fed to the objective.
    pub private_statistics: [f64; 4],
    /// The published triangle release; absent for degrees-only runs.
    pub triangle_release: Option<TriangleReleaseDoc>,
    /// The released private degree sequence, when the request opted in.
    pub degree_sequence: Option<Vec<f64>>,
}

impl_json_struct_lenient!(EstimateResult {
    seed,
    params,
    theta,
    k,
    objective_value,
    evaluations,
    private_statistics,
    triangle_release,
    degree_sequence,
});

impl EstimateResult {
    /// Projects a library [`PrivateEstimate`] onto the publishable wire document.
    pub fn from_estimate(estimate: &PrivateEstimate, seed: u64, include_degrees: bool) -> Self {
        EstimateResult {
            seed,
            params: BudgetSpec::of(estimate.params),
            theta: InitiatorSpec::of(&estimate.fit.theta),
            k: estimate.fit.k,
            objective_value: estimate.fit.objective_value,
            evaluations: estimate.fit.evaluations as u64,
            private_statistics: estimate.private_statistics,
            triangle_release: estimate.triangle_release.as_ref().map(|t| TriangleReleaseDoc {
                value: t.value,
                beta: t.beta,
                params: BudgetSpec::of(t.params),
            }),
            degree_sequence: include_degrees.then(|| estimate.degree_release.degrees.clone()),
        }
    }
}

/// The result document of a finished **baseline** (non-private) estimation job: the KronFit or
/// KronMom column of Table 1. Deliberately a separate document type from [`EstimateResult`]:
/// it carries no privacy fields at all, so a client can never mistake a baseline fit for a
/// released `(ε, δ)`-private estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineResult {
    /// The seed the job ran with (echoed for reproducibility).
    pub seed: u64,
    /// Which baseline produced the fit: `"kronfit"` or `"kronmom"`.
    pub estimator: String,
    /// The fitted initiator (canonical form, `a ≥ c`). **Not differentially private.**
    pub theta: InitiatorSpec,
    /// The Kronecker order of the fit.
    pub k: u32,
    /// Final objective value (moment discrepancy for KronMom, negative approximate
    /// log-likelihood for KronFit).
    pub objective_value: f64,
    /// Objective/likelihood evaluations spent.
    pub evaluations: u64,
}

impl_json_struct!(BaselineResult { seed, estimator, theta, k, objective_value, evaluations });

impl BaselineResult {
    /// Projects a library [`FittedInitiator`] onto the baseline wire document.
    pub fn from_fit(kind: EstimatorKind, fit: &FittedInitiator, seed: u64) -> Self {
        BaselineResult {
            seed,
            estimator: kind.as_str().to_string(),
            theta: InitiatorSpec::of(&fit.theta),
            k: fit.k,
            objective_value: fit.objective_value,
            evaluations: fit.evaluations as u64,
        }
    }
}

/// `202 Accepted` body of a submitted estimation job.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitResponse {
    /// The id to poll at `GET /api/jobs/{id}`.
    pub job_id: u64,
    /// The status at submission time (always `Queued`).
    pub status: JobStatus,
}

impl_json_struct!(SubmitResponse { job_id, status });

/// `POST /api/sample`: synchronously sample a synthetic graph from a (public) fitted initiator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRequest {
    /// The published initiator to sample from.
    pub theta: InitiatorSpec,
    /// The Kronecker order (`2^k` nodes); bounded by the server's configured maximum.
    pub k: u32,
    /// Seed for the sampler.
    pub seed: u64,
}

impl_json_struct!(SampleRequest { theta, k, seed });

/// `200 OK` body of a sampling request.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleResponse {
    /// Node count of the sampled graph (`2^k`).
    pub nodes: u64,
    /// Undirected edge count of the sampled graph.
    pub edges: u64,
    /// The sampled graph as a SNAP-format edge list.
    pub edge_list: String,
}

impl_json_struct!(SampleResponse { nodes, edges, edge_list });

/// `POST /api/v1/datasets`: upload a named dataset once, with its lifetime `(ε, δ)` budget.
/// The edge list is stored server-side and **never served back**; every later estimate on the
/// dataset draws from the declared budget.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetCreateRequest {
    /// The dataset name: 1–64 chars of `[A-Za-z0-9._-]`, starting alphanumeric.
    pub name: String,
    /// The sensitive graph as a SNAP-format edge list.
    pub edge_list: String,
    /// The cumulative `(ε, δ)` the dataset may ever spend across all estimates.
    pub budget: BudgetSpec,
}

impl_json_struct!(DatasetCreateRequest { name, edge_list, budget });

/// `GET /api/v1/datasets/{name}/budget` body (also embedded in every dataset document): the
/// ledger state plus the derived remainders, so clients never re-derive float arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetDoc {
    /// The dataset name.
    pub name: String,
    /// The total `ε` the dataset may ever spend.
    pub epsilon_limit: f64,
    /// The total `δ` the dataset may ever spend.
    pub delta_limit: f64,
    /// `ε` debited so far across all admitted estimates.
    pub epsilon_spent: f64,
    /// `δ` debited so far.
    pub delta_spent: f64,
    /// `ε` still available (clamped to zero).
    pub remaining_epsilon: f64,
    /// `δ` still available (clamped to zero).
    pub remaining_delta: f64,
    /// Whether no meaningfully positive `ε` draw can ever be admitted again.
    pub exhausted: bool,
}

impl_json_struct!(BudgetDoc {
    name,
    epsilon_limit,
    delta_limit,
    epsilon_spent,
    delta_spent,
    remaining_epsilon,
    remaining_delta,
    exhausted,
});

impl BudgetDoc {
    /// The wire form of one dataset's ledger.
    pub fn of(name: &str, ledger: &BudgetLedger) -> Self {
        BudgetDoc {
            name: name.to_string(),
            epsilon_limit: ledger.epsilon_limit,
            delta_limit: ledger.delta_limit,
            epsilon_spent: ledger.epsilon_spent,
            delta_spent: ledger.delta_spent,
            remaining_epsilon: ledger.remaining_epsilon(),
            remaining_delta: ledger.remaining_delta(),
            exhausted: ledger.exhausted(),
        }
    }
}

/// One dataset as served by `GET /api/v1/datasets[/{name}]` — released metadata only, never
/// the edge list.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetDoc {
    /// The dataset name.
    pub name: String,
    /// Node count of the uploaded graph.
    pub nodes: u64,
    /// Undirected edge count of the uploaded graph.
    pub edges: u64,
    /// The budget ledger state.
    pub budget: BudgetDoc,
}

impl_json_struct!(DatasetDoc { name, nodes, edges, budget });

impl DatasetDoc {
    /// The wire form of one dataset's released metadata.
    pub fn of(meta: &DatasetMeta) -> Self {
        DatasetDoc {
            name: meta.name.clone(),
            nodes: meta.nodes,
            edges: meta.edges,
            budget: BudgetDoc::of(&meta.name, &meta.ledger),
        }
    }
}

/// `GET /api/v1/datasets` body: every dataset, in name order.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetListResponse {
    /// The datasets, in name order.
    pub datasets: Vec<DatasetDoc>,
    /// Convenience count (`datasets.len()`).
    pub count: u64,
}

impl_json_struct!(DatasetListResponse { datasets, count });

/// `DELETE /api/v1/datasets/{name}` body.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetDeleteResponse {
    /// The name of the dataset that was deleted.
    pub deleted: String,
}

impl_json_struct!(DatasetDeleteResponse { deleted });

/// `POST /api/v1/datasets/{name}/estimate`: run a **private** estimate against a stored
/// dataset, drawing `params` from its ledger. Baselines (`kronmom`/`kronfit`) are refused on
/// datasets — they fit the exact graph and would void the ledger's guarantee.
#[derive(Debug, Clone)]
pub struct DatasetEstimateRequest {
    /// The `(ε, δ)` this estimate draws from the dataset's budget.
    pub params: Option<BudgetSpec>,
    /// Seed for all server-side randomness.
    pub seed: u64,
    /// Estimator selector; only `"private"` (or absent) is accepted on datasets.
    pub estimator: Option<String>,
    /// Estimator options for the private pipeline.
    pub options: Option<PrivateEstimatorOptions>,
    /// Opt-in for the released private degree sequence.
    pub include_degree_sequence: Option<bool>,
}

impl_json_struct_lenient!(DatasetEstimateRequest {
    params,
    seed,
    estimator,
    options,
    include_degree_sequence,
});

/// `GET /healthz` body: a status document, not just a bare 200.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthResponse {
    /// Always `"ok"` when the server can respond at all.
    pub status: String,
    /// The serving crate name.
    pub service: String,
    /// Total estimation jobs submitted since startup.
    pub jobs_submitted: u64,
    /// Whole seconds since the server started.
    pub uptime_seconds: u64,
    /// Participant count of the shared compute executor (calling thread + pooled helpers).
    pub compute_threads: u64,
    /// Jobs currently waiting for an estimation worker.
    pub jobs_queued: u64,
    /// Jobs currently executing.
    pub jobs_running: u64,
    /// Jobs finished successfully since startup.
    pub jobs_done: u64,
    /// Jobs finished with an error since startup.
    pub jobs_failed: u64,
    /// Number of named datasets currently stored.
    pub datasets: u64,
    /// The durable data directory, or `null` when running in-memory.
    pub data_dir: Option<String>,
}

impl_json_struct!(HealthResponse {
    status,
    service,
    jobs_submitted,
    uptime_seconds,
    compute_threads,
    jobs_queued,
    jobs_running,
    jobs_done,
    jobs_failed,
    datasets,
    data_dir,
});

/// The one typed body of every non-2xx response: a human-readable `error`, a stable machine
/// `code` (the full code table lives in `API.md`), and optional extras — `detail` for
/// free-form context, and the remaining budget on `429 budget_exhausted` refusals.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBody {
    /// Human-readable description of what was wrong with the request.
    pub error: String,
    /// Stable machine-readable error code (e.g. `"bad_request"`, `"budget_exhausted"`).
    pub code: String,
    /// Optional free-form context.
    pub detail: Option<String>,
    /// `ε` still available, on budget refusals only.
    pub remaining_epsilon: Option<f64>,
    /// `δ` still available, on budget refusals only.
    pub remaining_delta: Option<f64>,
}

impl_json_struct_lenient!(ErrorBody { error, code, detail, remaining_epsilon, remaining_delta });

#[cfg(test)]
mod tests {
    use super::*;
    use kronpriv_json::{from_str, to_string};

    #[test]
    fn budget_spec_validation_delegates_to_try_new() {
        assert!(BudgetSpec { epsilon: 0.2, delta: 0.01 }.validate().is_ok());
        assert!(BudgetSpec { epsilon: -1.0, delta: 0.01 }.validate().is_err());
        assert!(BudgetSpec { epsilon: 0.2, delta: 1.0 }.validate().is_err());
    }

    #[test]
    fn initiator_spec_validation_checks_ranges() {
        assert!(InitiatorSpec { a: 0.9, b: 0.5, c: 0.1 }.validate().is_ok());
        assert!(InitiatorSpec { a: 1.1, b: 0.5, c: 0.1 }.validate().is_err());
        assert!(InitiatorSpec { a: 0.9, b: f64::NAN, c: 0.1 }.validate().is_err());
        assert!(InitiatorSpec { a: 0.9, b: 0.5, c: -0.01 }.validate().is_err());
    }

    #[test]
    fn estimate_request_parses_with_omitted_optionals() {
        let body = r#"{
            "graph": {"skg": {"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 8}},
            "params": {"epsilon": 1.0, "delta": 0.01},
            "seed": 7
        }"#;
        let req: EstimateRequest = from_str(body).unwrap();
        assert_eq!(req.seed, 7);
        assert!(req.estimator.is_none());
        assert!(req.options.is_none());
        assert!(req.kronfit.is_none());
        assert!(req.include_degree_sequence.is_none());
        assert!(req.graph.edge_list.is_none());
        assert_eq!(req.graph.skg.unwrap().k, 8);
        assert_eq!(req.params.unwrap().epsilon, 1.0);
    }

    #[test]
    fn estimator_kind_parses_the_wire_spellings() {
        assert_eq!(EstimatorKind::parse(None), Ok(EstimatorKind::Private));
        assert_eq!(EstimatorKind::parse(Some("private")), Ok(EstimatorKind::Private));
        assert_eq!(EstimatorKind::parse(Some("kronmom")), Ok(EstimatorKind::KronMom));
        assert_eq!(EstimatorKind::parse(Some("kronfit")), Ok(EstimatorKind::KronFit));
        assert!(EstimatorKind::parse(Some("Private")).is_err(), "spellings are case-sensitive");
        assert!(EstimatorKind::parse(Some("mle")).is_err());
    }

    #[test]
    fn baseline_requests_may_omit_the_privacy_budget() {
        let body = r#"{
            "graph": {"skg": {"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 8}},
            "estimator": "kronfit",
            "seed": 7
        }"#;
        let req: EstimateRequest = from_str(body).unwrap();
        assert!(req.params.is_none());
        assert_eq!(req.estimator.as_deref(), Some("kronfit"));
    }

    #[test]
    fn baseline_result_carries_no_privacy_fields() {
        let fit = FittedInitiator {
            theta: Initiator2::new(0.9, 0.5, 0.2),
            k: 8,
            objective_value: -123.4,
            evaluations: 320,
        };
        let doc = BaselineResult::from_fit(EstimatorKind::KronFit, &fit, 9);
        let text = to_string(&doc);
        assert!(text.contains("\"estimator\":\"kronfit\""), "{text}");
        for leaked in ["params", "epsilon", "private_statistics", "triangle_release"] {
            assert!(!text.contains(leaked), "baseline doc must not mention {leaked}: {text}");
        }
        let back: BaselineResult = from_str(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn estimate_result_never_carries_the_exact_triangle_count() {
        // Build a tiny real estimate and check the wire document's key set directly.
        use kronpriv::prelude::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let g = sample_fast(&Initiator2::new(0.9, 0.6, 0.3), 7, &mut rng, &Executor::sequential());
        let est = try_private_estimate(
            &g,
            PrivacyParams::new(1.0, 0.01),
            &PrivateEstimatorOptions::default(),
            &mut rng,
            &Executor::new(0),
            &NullSink,
        )
        .unwrap();
        let doc = EstimateResult::from_estimate(&est, 1, false);
        let text = to_string(&doc);
        // One shared deny list: the same const kronpriv-lint enforces statically.
        for ident in kronpriv_lint::SENSITIVE_IDENTS {
            assert!(!text.contains(&format!("\"{ident}\"")), "`{ident}` leaked: {text}");
        }
        let back: EstimateResult = from_str(&text).unwrap();
        assert_eq!(back, doc);
        // Opting into the degree sequence includes exactly the released (post-processed) one.
        let with_degrees = EstimateResult::from_estimate(&est, 1, true);
        assert_eq!(with_degrees.degree_sequence.as_ref().unwrap().len(), g.node_count());
    }
}
