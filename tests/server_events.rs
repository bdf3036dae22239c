//! Live-socket coverage of the observability surface: a slow KronFit job followed over the
//! chunked `/api/jobs/{id}/events` stream, the quiet acceptance of an old client's
//! `compute_threads` fields, and the `/healthz` status document — all over real localhost HTTP,
//! fully offline.

use kronpriv_json::Json;
use kronpriv_server::{client, serve, ServerConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn start_server() -> kronpriv_server::ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        job_workers: 1,
        ..ServerConfig::default()
    })
    .expect("server must bind an ephemeral localhost port")
}

/// A KronFit request sized to run for a noticeable moment on the single estimation worker —
/// long enough that the event stream demonstrably attaches while the job is still running.
/// Its 4M Metropolis proposals take a few hundred ms: a swap costs tens of ns once edge
/// terms are looked up per digit-count class.
fn slow_kronfit_body(seed: u64) -> String {
    format!(
        r#"{{"graph": {{"skg": {{"theta": {{"a": 0.95, "b": 0.55, "c": 0.2}}, "k": 8}}}},
            "estimator": "kronfit", "seed": {seed},
            "kronfit": {{"gradient_steps": 8, "warmup_swaps": 200000, "samples_per_step": 2,
                         "swaps_between_samples": 50000, "learning_rate": 0.06,
                         "min_parameter": 0.001, "initial": {{"a": 0.9, "b": 0.6, "c": 0.2}},
                         "chains": 2}}}}"#
    )
}

fn poll_to_done(addr: SocketAddr, job_id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, body) =
            client::get(addr, &format!("/api/jobs/{job_id}")).expect("poll must succeed");
        assert_eq!(status, 200, "{body}");
        let poll = Json::parse(&body).expect("poll body is JSON");
        match poll.get("status").and_then(|s| s.as_str()).expect("poll has a status string") {
            "Done" => return poll,
            "Failed" => panic!("job {job_id} failed: {body}"),
            _ => {
                assert!(Instant::now() < deadline, "job {job_id} never finished");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// The tentpole scenario: submit a slow KronFit job, attach to its event stream over a live
/// socket while it runs, and verify the typed document sequence — `queued` first, monotone
/// per-chain progress with finite log-likelihoods in between, and a terminal `done` whose
/// embedded result matches the poll endpoint byte for byte.
#[test]
fn kronfit_event_stream_follows_the_job_from_queued_to_done() {
    let handle = start_server();
    let addr = handle.addr();
    let (status, submitted) =
        client::post_json(addr, "/api/estimate", &slow_kronfit_body(17)).unwrap();
    assert_eq!(status, 202, "{submitted}");
    let job_id = Json::parse(&submitted).unwrap().get("job_id").unwrap().as_f64().unwrap() as u64;

    // Attach immediately: the single estimation worker is still on (or has barely started)
    // the job, so the stream follows it live rather than replaying a finished log.
    let attach = Instant::now();
    let (status, head, stream) =
        client::get_stream(addr, &format!("/api/jobs/{job_id}/events")).unwrap();
    assert_eq!(status, 200, "{head}");
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    assert!(head.contains("Content-Type: application/x-ndjson"), "{head}");
    let followed_for = attach.elapsed();

    let events: Vec<Json> = stream
        .lines()
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("bad NDJSON line {line:?}: {e}")))
        .collect();
    let kinds: Vec<&str> =
        events.iter().map(|e| e.get("event").unwrap().as_str().unwrap()).collect();
    assert_eq!(kinds.first(), Some(&"queued"), "{kinds:?}");
    assert_eq!(kinds.last(), Some(&"done"), "{kinds:?}");
    assert!(kinds.contains(&"running"), "{kinds:?}");

    // The kronfit stage brackets all chain progress.
    let started = kinds.iter().position(|k| *k == "stage_started").expect("stage_started");
    assert_eq!(events[started].get("stage").unwrap().as_str(), Some("kronfit"));
    let finished = kinds.iter().rposition(|k| *k == "stage_finished").expect("stage_finished");
    let steps: Vec<usize> =
        kinds.iter().enumerate().filter(|(_, k)| **k == "chain_step").map(|(i, _)| i).collect();
    assert!(!steps.is_empty(), "no chain progress streamed: {kinds:?}");
    assert!(started < steps[0] && *steps.last().unwrap() < finished, "{kinds:?}");

    // Per chain: steps 0..total_steps in order, each with a finite log-likelihood (the
    // streaming sink opts into the likelihood probe).
    let mut per_chain: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for index in steps {
        let event = &events[index];
        assert_eq!(event.get("total_steps").unwrap().as_f64(), Some(8.0));
        let ll = event.get("log_likelihood").unwrap().as_f64().expect("finite log-likelihood");
        assert!(ll.is_finite(), "{event:?}");
        per_chain
            .entry(event.get("chain").unwrap().as_f64().unwrap() as u64)
            .or_default()
            .push(event.get("step").unwrap().as_f64().unwrap() as u64);
    }
    assert_eq!(per_chain.len(), 2, "both chains must report");
    for (chain, steps) in &per_chain {
        assert_eq!(steps, &(0..8).collect::<Vec<u64>>(), "chain {chain} progress {steps:?}");
    }

    // The terminal event embeds the same result document the poll endpoint serves.
    let done = events.last().unwrap();
    let poll = poll_to_done(addr, job_id);
    assert_eq!(
        done.get("result").unwrap().to_compact_string(),
        poll.get("result").unwrap().to_compact_string(),
        "streamed terminal result must match the fetched one"
    );

    // Sanity that this was a follow, not an instant replay: the job takes real time, and the
    // stream stayed open for (at least most of) it.
    assert!(
        followed_for > Duration::from_millis(50),
        "stream closed after {followed_for:?} — job too fast to demonstrate following?"
    );
    handle.shutdown();
}

/// Failed jobs stream a terminal `failed` document carrying the poll endpoint's error, for every
/// estimator, and never leave a stage open: each stage that started also finished.
#[test]
fn failed_jobs_stream_a_terminal_failed_event() {
    let handle = start_server();
    let addr = handle.addr();
    for estimator in ["private", "kronfit", "kronmom"] {
        let body = format!(
            r#"{{"graph": {{"edge_list": "0 0\n"}}, "estimator": "{estimator}",
                 "params": {{"epsilon": 1.0, "delta": 0.01}}, "seed": 1}}"#
        );
        let (status, submitted) = client::post_json(addr, "/api/estimate", &body).unwrap();
        assert_eq!(status, 202, "{estimator}: {submitted}");
        let job_id =
            Json::parse(&submitted).unwrap().get("job_id").unwrap().as_f64().unwrap() as u64;
        let (status, _, stream) =
            client::get_stream(addr, &format!("/api/jobs/{job_id}/events")).unwrap();
        assert_eq!(status, 200);
        let events: Vec<Json> = stream.lines().map(|line| Json::parse(line).unwrap()).collect();
        let last = events.last().unwrap();
        assert_eq!(last.get("event").unwrap().as_str(), Some("failed"), "{estimator}: {stream}");
        let message = last.get("error").unwrap().as_str().unwrap();
        assert!(message.contains("empty"), "{estimator}: {message}");
        // Per stage name: (started, finished) counts, which must match.
        let mut stages: std::collections::BTreeMap<&str, (usize, usize)> = Default::default();
        for event in &events {
            let kind = event.get("event").and_then(Json::as_str);
            match (kind, event.get("stage").and_then(Json::as_str)) {
                (Some("stage_started"), Some(stage)) => stages.entry(stage).or_default().0 += 1,
                (Some("stage_finished"), Some(stage)) => stages.entry(stage).or_default().1 += 1,
                _ => {}
            }
        }
        for (stage, (started, finished)) in &stages {
            assert_eq!(started, finished, "{estimator}: stage {stage} left open: {stream}");
        }
    }
    handle.shutdown();
}

/// Submits `body` and polls it to `Done`, asserting that neither the submit nor the poll
/// document carries a `warnings` key. Returns the result document as compact text.
fn quiet_result(addr: SocketAddr, body: &str) -> String {
    let (status, submitted) =
        client::post_json(addr, "/api/estimate", body).expect("submit must succeed");
    assert_eq!(status, 202, "{submitted}");
    let submit = Json::parse(&submitted).expect("submit body is JSON");
    assert!(submit.get("warnings").is_none(), "{submitted}");
    let job_id = submit.get("job_id").and_then(Json::as_f64).expect("submit has a job_id");
    let poll = poll_to_done(addr, job_id as u64);
    assert!(poll.get("warnings").is_none(), "{poll:?}");
    poll.get("result").expect("a done job has a result").to_compact_string()
}

/// An old client's `compute_threads` — in `options`, `options.kronmom` or `kronfit` — is
/// accepted and ignored quietly: the job is admitted, no `warnings` key appears on submit or
/// poll, and the result bytes equal those of the same request without the field. The pool
/// stays sized by the deployment's `--compute-threads`.
#[test]
fn compute_threads_from_old_clients_is_accepted_and_ignored_quietly() {
    let handle = start_server();
    let addr = handle.addr();
    let graph = r#""graph": {"skg": {"theta": {"a": 0.95, "b": 0.55, "c": 0.2}, "k": 8}}"#;
    let kronmom = r#"{"grid_points_per_axis": 7, "refine_top": 5, "max_evaluations": 4000}"#;
    let options = format!(
        r#"{{"degree_budget_fraction": 0.5, "exact_smooth_sensitivity": false,
            "degrees_only": false, "triangle_signal_threshold": 2.0, "kronmom": {kronmom}}}"#
    );
    let kronfit = r#"{"gradient_steps": 4, "warmup_swaps": 500, "samples_per_step": 2,
                      "swaps_between_samples": 100, "learning_rate": 0.06,
                      "min_parameter": 0.001, "initial": {"a": 0.9, "b": 0.6, "c": 0.2},
                      "chains": 2}"#;
    let cases = [
        (
            format!(
                r#"{{{graph}, "seed": 21, "params": {{"epsilon": 1.0, "delta": 0.01}},
                    "options": {options}}}"#
            ),
            ("\"degrees_only\": false,", "\"degrees_only\": false, \"compute_threads\": 5,"),
        ),
        (
            format!(r#"{{{graph}, "seed": 22, "estimator": "kronmom", "options": {options}}}"#),
            ("\"max_evaluations\": 4000", "\"max_evaluations\": 4000, \"compute_threads\": 7"),
        ),
        (
            format!(r#"{{{graph}, "seed": 23, "estimator": "kronfit", "kronfit": {kronfit}}}"#),
            ("\"chains\": 2", "\"chains\": 2, \"compute_threads\": 3"),
        ),
    ];
    for (plain, (anchor, with_field)) in &cases {
        let old_client = plain.replacen(anchor, with_field, 1);
        assert_eq!(old_client.matches("compute_threads").count(), 1, "{old_client}");
        assert_eq!(quiet_result(addr, &old_client), quiet_result(addr, plain), "{old_client}");
    }
    let (_, body) = client::get(addr, "/healthz").unwrap();
    let health = Json::parse(&body).unwrap();
    assert!(health.get("compute_threads").unwrap().as_f64().unwrap() >= 1.0, "{body}");
    handle.shutdown();
}

/// `/healthz` stays a 200 (the bare liveness contract) while carrying the status document:
/// uptime, compute pool size, and job lifecycle counts that actually move.
#[test]
fn healthz_serves_the_status_document() {
    let handle = start_server();
    let addr = handle.addr();
    let (status, body) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200, "{body}");
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert!(health.get("uptime_seconds").unwrap().as_f64().unwrap() >= 0.0);
    assert!(health.get("compute_threads").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(health.get("jobs_done").unwrap().as_f64(), Some(0.0));

    let (status, submitted) =
        client::post_json(addr, "/api/estimate", &slow_kronfit_body(5)).unwrap();
    assert_eq!(status, 202, "{submitted}");
    let job_id = Json::parse(&submitted).unwrap().get("job_id").unwrap().as_f64().unwrap() as u64;
    poll_to_done(addr, job_id);
    let (_, body) = client::get(addr, "/healthz").unwrap();
    let health = Json::parse(&body).unwrap();
    assert_eq!(health.get("jobs_submitted").unwrap().as_f64(), Some(1.0), "{body}");
    assert_eq!(health.get("jobs_done").unwrap().as_f64(), Some(1.0), "{body}");
    assert_eq!(health.get("jobs_failed").unwrap().as_f64(), Some(0.0), "{body}");
    handle.shutdown();
}

/// `/metrics` over a live socket is well-formed Prometheus text and reflects served traffic.
#[test]
fn metrics_scrape_is_well_formed_and_reflects_traffic() {
    let handle = start_server();
    let addr = handle.addr();
    client::get(addr, "/healthz").unwrap();
    let (status, body) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(
        body.contains(
            "kronpriv_http_requests_total{method=\"GET\",path=\"/healthz\",status=\"200\"}"
        ),
        "{body}"
    );
    for line in body.lines() {
        assert!(
            kronpriv::kronpriv_obs::well_formed_exposition_line(line),
            "malformed exposition line: {line:?}"
        );
    }
    handle.shutdown();
}
