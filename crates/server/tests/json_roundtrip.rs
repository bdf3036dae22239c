//! Round-trip coverage for the wire types of the HTTP API: every request/response struct must
//! survive `to_string` → `from_str` unchanged, tolerate unknown fields (clients may send more
//! than we know), and render error payloads the way the API.md documents them.

use kronpriv_json::{from_str, to_string, Json};
use kronpriv_server::api::{
    BudgetSpec, ErrorBody, EstimateRequest, EstimateResult, GraphSpec, HealthResponse,
    InitiatorSpec, JobResponse, SampleRequest, SampleResponse, SkgSpec, SubmitResponse,
    TriangleReleaseDoc,
};
use kronpriv_server::JobStatus;

#[test]
fn estimate_request_round_trips_and_tolerates_unknowns() {
    let req = EstimateRequest {
        graph: GraphSpec {
            edge_list: None,
            skg: Some(SkgSpec { theta: InitiatorSpec { a: 0.9, b: 0.5, c: 0.2 }, k: 8 }),
        },
        params: Some(BudgetSpec { epsilon: 0.2, delta: 0.01 }),
        seed: 7,
        estimator: None,
        options: None,
        kronfit: None,
        include_degree_sequence: Some(true),
    };
    let text = to_string(&req);
    let back: EstimateRequest = from_str(&text).unwrap();
    assert_eq!(back.seed, req.seed);
    assert_eq!(back.params, req.params);
    assert_eq!(back.graph, req.graph);
    assert_eq!(back.include_degree_sequence, Some(true));

    // Unknown fields anywhere in the document are ignored, not rejected.
    let with_extras = r#"{
        "graph": {"skg": {"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 8}, "format": "snap"},
        "params": {"epsilon": 0.2, "delta": 0.01},
        "seed": 7,
        "client_version": "2.3",
        "tags": ["nightly", "ci"]
    }"#;
    let back: EstimateRequest = from_str(with_extras).unwrap();
    assert_eq!(back.seed, 7);
    assert_eq!(back.graph.skg.unwrap().k, 8);
}

#[test]
fn estimate_request_reports_missing_required_fields() {
    // `params` became optional with the estimator selector (the baselines need no budget);
    // whether it is required is now the router's per-estimator decision.
    let req = from_str::<EstimateRequest>(r#"{"graph": {}, "seed": 1}"#).unwrap();
    assert!(req.params.is_none());
    // `seed` is required (null is not a u64).
    let err =
        from_str::<EstimateRequest>(r#"{"graph": {}, "params": {"epsilon": 1.0, "delta": 0.01}}"#)
            .unwrap_err();
    assert!(err.to_string().contains("number"), "{err}");
}

#[test]
fn estimate_result_round_trips_with_and_without_optionals() {
    let full = EstimateResult {
        seed: 42,
        params: BudgetSpec { epsilon: 1.0, delta: 0.01 },
        theta: InitiatorSpec { a: 0.99, b: 0.45, c: 0.25 },
        k: 14,
        objective_value: 1.25e-3,
        evaluations: 321,
        private_statistics: [14000.5, 250000.0, 420.25, 310000.0],
        triangle_release: Some(TriangleReleaseDoc {
            value: 420.25,
            beta: 0.09,
            params: BudgetSpec { epsilon: 0.5, delta: 0.01 },
        }),
        degree_sequence: Some(vec![0.5, 1.0, 2.25]),
    };
    let back: EstimateResult = from_str(&to_string(&full)).unwrap();
    assert_eq!(back, full);

    let lean = EstimateResult { triangle_release: None, degree_sequence: None, ..full };
    let text = to_string(&lean);
    let back: EstimateResult = from_str(&text).unwrap();
    assert_eq!(back, lean);
    // Optionals serialize as null (and absent keys parse the same way).
    assert!(text.contains("\"triangle_release\":null"), "{text}");
}

#[test]
fn job_and_submit_responses_round_trip() {
    for status in [JobStatus::Queued, JobStatus::Running, JobStatus::Done, JobStatus::Failed] {
        let submit = SubmitResponse { job_id: 9, status };
        let back: SubmitResponse = from_str(&to_string(&submit)).unwrap();
        assert_eq!(back, submit);
    }
    let done = JobResponse {
        job_id: 3,
        status: JobStatus::Done,
        result: Some(Json::Object(vec![("theta".into(), Json::Number(0.5))])),
        error: None,
    };
    let back: JobResponse = from_str(&to_string(&done)).unwrap();
    assert_eq!(back, done);
    let failed = JobResponse {
        job_id: 4,
        status: JobStatus::Failed,
        result: None,
        error: Some("edge list rejected: cannot parse edge list line 2".into()),
    };
    let back: JobResponse = from_str(&to_string(&failed)).unwrap();
    assert_eq!(back, failed);
}

#[test]
fn sample_and_health_round_trip() {
    let sample_req =
        SampleRequest { theta: InitiatorSpec { a: 0.9, b: 0.5, c: 0.2 }, k: 10, seed: 77 };
    let back: SampleRequest = from_str(&to_string(&sample_req)).unwrap();
    assert_eq!(back, sample_req);

    let sample_resp =
        SampleResponse { nodes: 1024, edges: 2981, edge_list: "# 1024 nodes\n0\t1\n".to_string() };
    let back: SampleResponse = from_str(&to_string(&sample_resp)).unwrap();
    assert_eq!(back, sample_resp);

    let health = HealthResponse {
        status: "ok".to_string(),
        service: "kronpriv-server".to_string(),
        jobs_submitted: 12,
        uptime_seconds: 3600,
        compute_threads: 4,
        jobs_queued: 1,
        jobs_running: 2,
        jobs_done: 8,
        jobs_failed: 1,
        datasets: 3,
        data_dir: Some("/var/lib/kronpriv".to_string()),
    };
    let back: HealthResponse = from_str(&to_string(&health)).unwrap();
    assert_eq!(back, health);
    // An in-memory server reports no data directory; the field stays present as null.
    let in_memory = HealthResponse { data_dir: None, ..health };
    let text = to_string(&in_memory);
    assert!(text.contains("\"data_dir\":null"), "{text}");
    let back: HealthResponse = from_str(&text).unwrap();
    assert_eq!(back, in_memory);
}

#[test]
fn error_payloads_have_the_documented_shape() {
    let body = ErrorBody {
        error: "epsilon must be positive, got -1".to_string(),
        code: "bad_request".to_string(),
        detail: None,
        remaining_epsilon: None,
        remaining_delta: None,
    };
    let text = to_string(&body);
    assert_eq!(
        text,
        "{\"error\":\"epsilon must be positive, got -1\",\"code\":\"bad_request\",\
         \"detail\":null,\"remaining_epsilon\":null,\"remaining_delta\":null}"
    );
    let back: ErrorBody = from_str(&text).unwrap();
    assert_eq!(back, body);
    // A budget refusal carries the remaining budget so clients can plan their next draw.
    let refused = ErrorBody {
        error: "privacy budget exhausted for dataset \"ca-hepph\"".to_string(),
        code: "budget_exhausted".to_string(),
        detail: Some("remaining epsilon 0.100000, remaining delta 0.000000".to_string()),
        remaining_epsilon: Some(0.1),
        remaining_delta: Some(0.0),
    };
    let back: ErrorBody = from_str(&to_string(&refused)).unwrap();
    assert_eq!(back, refused);
    // Unknown fields in an error payload are tolerated by clients using these types too.
    let back: ErrorBody =
        from_str("{\"error\": \"x\", \"code\": \"bad_request\", \"trace_id\": \"abc\"}").unwrap();
    assert_eq!(back.error, "x");
}

#[test]
fn wire_documents_are_deterministic() {
    // The writer emits object keys in declaration order with shortest-round-trip floats, so the
    // same value always renders to the same bytes — the property the reproducibility guarantee
    // of /api/estimate rests on.
    let doc = EstimateResult {
        seed: 1,
        params: BudgetSpec { epsilon: 0.1, delta: 0.001 },
        theta: InitiatorSpec { a: 0.9999999999999999, b: 0.1, c: 0.1 },
        k: 3,
        objective_value: f64::MIN_POSITIVE,
        evaluations: 0,
        private_statistics: [0.1 + 0.2, 0.0, -0.0, 1e300],
        triangle_release: None,
        degree_sequence: None,
    };
    let first = to_string(&doc);
    let second = to_string(&doc);
    assert_eq!(first, second);
    let reparsed: EstimateResult = from_str(&first).unwrap();
    assert_eq!(to_string(&reparsed), first);
}
