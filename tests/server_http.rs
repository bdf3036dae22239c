//! End-to-end test of `kronpriv-server` over live HTTP on localhost: concurrent clients submit
//! private-release jobs against a small worker pool, poll them to completion, and verify both
//! the DP results and the byte-level reproducibility guarantee — fully offline.

use kronpriv_json::Json;
use kronpriv_server::{client, serve, ServerConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn start_server() -> kronpriv_server::ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        job_workers: 2,
        ..ServerConfig::default()
    })
    .expect("server must bind an ephemeral localhost port")
}

fn estimate_body(seed: u64, epsilon: f64) -> String {
    format!(
        r#"{{"graph": {{"skg": {{"theta": {{"a": 0.95, "b": 0.55, "c": 0.2}}, "k": 8}}}},
            "params": {{"epsilon": {epsilon}, "delta": 0.01}},
            "seed": {seed}}}"#
    )
}

/// Submits an estimate job and polls it until it is `Done`, returning the raw poll body (for
/// byte-level comparisons) and its parsed form.
fn run_job_to_done(addr: SocketAddr, body: &str) -> (String, Json) {
    let (status, submit_body) =
        client::post_json(addr, "/api/estimate", body).expect("submit must succeed");
    assert_eq!(status, 202, "submit response: {submit_body}");
    let submit = Json::parse(&submit_body).expect("submit body is JSON");
    assert_eq!(submit.get("status").expect("submit has status").as_str(), Some("Queued"));
    let job_id =
        submit.get("job_id").expect("submit has job_id").as_f64().expect("job_id is a number")
            as u64;

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, poll_body) =
            client::get(addr, &format!("/api/jobs/{job_id}")).expect("poll must succeed");
        assert_eq!(status, 200, "poll response: {poll_body}");
        let poll = Json::parse(&poll_body).expect("poll body is JSON");
        match poll.get("status").and_then(|s| s.as_str()).expect("poll has a status string") {
            "Done" => return (poll_body, poll),
            "Failed" => panic!("job {job_id} failed: {poll_body}"),
            _ => {
                assert!(Instant::now() < deadline, "job {job_id} never finished");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn assert_valid_release(result: &Json, expected_epsilon: f64) {
    let params = result.get("params").expect("result has params");
    assert_eq!(params.get("epsilon").expect("params has epsilon").as_f64(), Some(expected_epsilon));
    assert_eq!(params.get("delta").expect("params has delta").as_f64(), Some(0.01));
    let theta = result.get("theta").expect("result has theta");
    let entry =
        |name: &str| theta.get(name).and_then(|v| v.as_f64()).expect("theta entries are numbers");
    let (a, b, c) = (entry("a"), entry("b"), entry("c"));
    for p in [a, b, c] {
        assert!((0.0..=1.0).contains(&p), "initiator entry {p} out of range");
    }
    assert!(a >= c, "canonical form violated: a={a} c={c}");
    let stats = result
        .get("private_statistics")
        .and_then(|s| s.as_array())
        .expect("result has the private-statistics array");
    assert_eq!(stats.len(), 4);
    for s in stats {
        let v = s.as_f64().expect("private statistics are numbers");
        assert!(v.is_finite() && v >= 0.0, "private statistic {v}");
    }
    // The privacy boundary: no deny-listed field (the same shared const kronpriv-lint
    // enforces statically) may appear on the wire.
    let triangle = result.get("triangle_release").expect("result has triangle_release");
    for ident in kronpriv_lint::SENSITIVE_IDENTS {
        assert!(triangle.get(ident).is_none(), "sensitive field `{ident}` leaked");
        assert!(result.get(ident).is_none(), "sensitive field `{ident}` leaked");
    }
    assert!(triangle.get("value").expect("release has value").as_f64().is_some());
}

/// The acceptance scenario: 4 concurrent clients against an HTTP pool of 2 (and 2 estimation
/// workers), each submitting its own private-release job over a live socket. All four must
/// receive valid `(ε, δ)`-DP estimates.
#[test]
fn four_concurrent_clients_get_valid_releases_from_a_pool_of_two() {
    let handle = start_server();
    let addr = handle.addr();
    let clients: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let epsilon = 0.5 + 0.5 * i as f64;
                let (_, poll) = run_job_to_done(addr, &estimate_body(1000 + i, epsilon));
                (poll, epsilon)
            })
        })
        .collect();
    for client_thread in clients {
        let (poll, epsilon) = client_thread.join().expect("client thread must not panic");
        let result = poll.get("result").expect("done job carries its result");
        assert_valid_release(result, epsilon);
    }
    // All four jobs went through the one shared store.
    let (_, health) = client::get(addr, "/healthz").unwrap();
    let health = Json::parse(&health).unwrap();
    assert_eq!(health.get("jobs_submitted").unwrap().as_f64(), Some(4.0));
    handle.shutdown();
}

/// Identical seeds must yield byte-identical JSON result documents over the wire — the paper's
/// reproducibility, preserved through the network layer.
#[test]
fn identical_seeds_give_byte_identical_results_over_http() {
    let handle = start_server();
    let addr = handle.addr();
    let body = estimate_body(42, 1.0);
    let (_, first_poll) = run_job_to_done(addr, &body);
    let (_, second_poll) = run_job_to_done(addr, &body);
    let first = first_poll.get("result").unwrap().to_compact_string();
    let second = second_poll.get("result").unwrap().to_compact_string();
    assert_eq!(first, second, "same seed must reproduce the same release byte for byte");

    // A different seed produces different noise (overwhelmingly likely to change the bytes).
    let (_, other_poll) = run_job_to_done(addr, &estimate_body(43, 1.0));
    let other = other_poll.get("result").unwrap().to_compact_string();
    assert_ne!(first, other, "different seeds should not collide");
    handle.shutdown();
}

/// An uploaded SNAP edge list goes through the streaming parser and comes back as a release.
#[test]
fn edge_list_upload_round_trips_through_the_pipeline() {
    let handle = start_server();
    let addr = handle.addr();
    // Build a two-community graph with plenty of wedges and triangles.
    let mut edges = String::from("# two communities\n");
    for i in 0u32..60 {
        edges.push_str(&format!("{} {}\n", i, (i + 1) % 60));
        edges.push_str(&format!("{} {}\n", i, (i + 2) % 60));
        if i % 3 == 0 {
            edges.push_str(&format!("{} {}\n", i, (i + 30) % 60));
        }
    }
    let body = format!(
        r#"{{"graph": {{"edge_list": {}}},
            "params": {{"epsilon": 2.0, "delta": 0.05}},
            "seed": 7, "include_degree_sequence": true}}"#,
        kronpriv_json::to_string(&edges)
    );
    let (_, poll) = run_job_to_done(addr, &body);
    let result = poll.get("result").unwrap();
    let degrees = result.get("degree_sequence").unwrap().as_array().unwrap();
    assert_eq!(degrees.len(), 60, "one released degree per node");
    // The raw noisy (pre-postprocessing) sequence stays server-side, along with every other
    // deny-listed field.
    for ident in kronpriv_lint::SENSITIVE_IDENTS {
        assert!(result.get(ident).is_none(), "sensitive field `{ident}` leaked");
    }
    handle.shutdown();
}

/// Malformed bodies and bad parameters are 400s; unknown jobs and routes are 404s.
#[test]
fn protocol_errors_map_to_4xx_over_live_http() {
    let handle = start_server();
    let addr = handle.addr();
    let (status, body) = client::post_json(addr, "/api/estimate", "{not json").unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(Json::parse(&body).unwrap().get("error").is_some());

    let (status, body) = client::post_json(
        addr,
        "/api/estimate",
        r#"{"graph": {"skg": {"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 8}},
            "params": {"epsilon": 0.0, "delta": 0.01}, "seed": 1}"#,
    )
    .unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("epsilon must be positive"), "{body}");

    let (status, _) = client::get(addr, "/api/jobs/123456").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::get(addr, "/api/estimate").unwrap();
    assert_eq!(status, 405);
    let (status, _) = client::get(addr, "/no/such/route").unwrap();
    assert_eq!(status, 404);
    handle.shutdown();
}

/// The estimator selector over live HTTP: `"kronfit"` and `"kronmom"` return baseline (non-
/// private) documents, and omitting the field keeps today's private wire behaviour byte for
/// byte.
#[test]
fn estimator_selector_serves_all_three_table1_columns() {
    let handle = start_server();
    let addr = handle.addr();
    let baseline_body = |estimator: &str| {
        format!(
            r#"{{"graph": {{"skg": {{"theta": {{"a": 0.95, "b": 0.55, "c": 0.2}}, "k": 7}}}},
                "estimator": "{estimator}", "seed": 21,
                "kronfit": {{"gradient_steps": 6, "warmup_swaps": 400, "samples_per_step": 2,
                             "swaps_between_samples": 100, "learning_rate": 0.06,
                             "min_parameter": 0.001,
                             "initial": {{"a": 0.9, "b": 0.6, "c": 0.2}}, "chains": 2}}}}"#
        )
    };
    for estimator in ["kronfit", "kronmom"] {
        let (_, poll) = run_job_to_done(addr, &baseline_body(estimator));
        let result = poll.get("result").expect("done job carries its result");
        assert_eq!(result.get("estimator").unwrap().as_str(), Some(estimator));
        let theta = result.get("theta").unwrap();
        let a = theta.get("a").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&a));
        // Baseline documents carry no privacy fields a client could mistake for a release.
        assert!(result.get("params").is_none(), "{estimator} leaked params");
        assert!(result.get("private_statistics").is_none());
        assert!(result.get("triangle_release").is_none());
    }

    // Omitted vs explicit `"estimator": "private"`: byte-identical result documents.
    let implicit = estimate_body(42, 1.0);
    let explicit = implicit.replace("\"seed\": 42", "\"estimator\": \"private\", \"seed\": 42");
    let (_, implicit_poll) = run_job_to_done(addr, &implicit);
    let (_, explicit_poll) = run_job_to_done(addr, &explicit);
    assert_eq!(
        implicit_poll.get("result").unwrap().to_compact_string(),
        explicit_poll.get("result").unwrap().to_compact_string(),
        "the estimator default must preserve the pre-selector wire behaviour"
    );

    // Unknown estimators are 400s, not jobs.
    let bad = implicit.replace("\"seed\": 42", "\"estimator\": \"mle\", \"seed\": 42");
    let (status, body) = client::post_json(addr, "/api/estimate", &bad).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown estimator"), "{body}");
    handle.shutdown();
}

/// `/api/sample` serves synthetic graphs synchronously and deterministically.
#[test]
fn sampling_is_synchronous_and_seed_deterministic() {
    let handle = start_server();
    let addr = handle.addr();
    let body = r#"{"theta": {"a": 0.95, "b": 0.55, "c": 0.2}, "k": 8, "seed": 9}"#;
    let (status, first) = client::post_json(addr, "/api/sample", body).unwrap();
    assert_eq!(status, 200, "{first}");
    let doc = Json::parse(&first).unwrap();
    assert_eq!(doc.get("nodes").unwrap().as_f64(), Some(256.0));
    assert!(doc.get("edges").unwrap().as_f64().unwrap() > 0.0);
    let (_, second) = client::post_json(addr, "/api/sample", body).unwrap();
    assert_eq!(first, second, "sampling must be a pure function of the request");
    handle.shutdown();
}

/// Sampling requests whose expected edge count exceeds the server's cap — here θ = (1, 1, 1)
/// at k = 16, about 2^31 edges — are refused up front with `400 too_large`, on `/api/v1/sample`
/// and as inline `graph.skg` specs alike: no job is enqueued and no dataset ledger moves.
#[test]
fn oversized_sampling_requests_are_refused_as_too_large() {
    let handle = start_server();
    let addr = handle.addr();
    let (status, body) = client::post_json(
        addr,
        "/api/v1/datasets",
        r#"{"name": "held", "edge_list": "0 1\n1 2\n2 0\n", "budget": {"epsilon": 1.0, "delta": 0.1}}"#,
    )
    .unwrap();
    assert_eq!(status, 201, "{body}");
    let (_, budget_before) = client::get(addr, "/api/v1/datasets/held/budget").unwrap();

    let complete = r#"{"a": 1.0, "b": 1.0, "c": 1.0}"#;
    let sample = format!(r#"{{"theta": {complete}, "k": 16, "seed": 5}}"#);
    let inline = format!(
        r#"{{"graph": {{"skg": {{"theta": {complete}, "k": 16}}}},
            "params": {{"epsilon": 0.5, "delta": 0.01}}, "seed": 5}}"#
    );
    let kronfit = format!(
        r#"{{"graph": {{"skg": {{"theta": {complete}, "k": 16}}}},
            "estimator": "kronfit", "seed": 5}}"#
    );
    for (path, body) in
        [("/api/v1/sample", &sample), ("/api/v1/estimate", &inline), ("/api/v1/estimate", &kronfit)]
    {
        let (status, response) = client::post_json(addr, path, body).unwrap();
        assert_eq!(status, 400, "{path}: {response}");
        let doc = Json::parse(&response).unwrap();
        assert_eq!(doc.get("code").unwrap().as_str(), Some("too_large"), "{path}: {response}");
    }

    let (_, health) = client::get(addr, "/healthz").unwrap();
    let health = Json::parse(&health).unwrap();
    assert_eq!(health.get("jobs_submitted").unwrap().as_f64(), Some(0.0), "no job was enqueued");
    let (_, budget_after) = client::get(addr, "/api/v1/datasets/held/budget").unwrap();
    assert_eq!(budget_before, budget_after, "a refused request spends no budget");

    // A sparse initiator at the same order is well under the cap and still samples.
    let sparse = r#"{"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 12, "seed": 5}"#;
    let (status, body) = client::post_json(addr, "/api/v1/sample", sparse).unwrap();
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
}
