//! Live-socket tests for the durable job store and the per-dataset privacy-budget ledger:
//! kill-and-restart replay on a temporary `--data-dir`, budget exhaustion over HTTP (a refused
//! draw spends nothing), log-corruption tolerance, and the legacy alias contract
//! (`Deprecation: true` header, byte-identical bodies).

use kronpriv_json::Json;
use kronpriv_server::store::Persistence;
use kronpriv_server::{client, serve, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("kronpriv-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_durable(dir: &Path) -> ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        job_workers: 2,
        data_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .expect("durable server must start")
}

fn start_in_memory() -> ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        job_workers: 2,
        ..ServerConfig::default()
    })
    .expect("in-memory server must start")
}

/// A small deterministic edge list (ring + chords), JSON-escaped for request bodies.
fn edge_list_json() -> String {
    let mut text = String::new();
    for i in 0..60 {
        text.push_str(&format!("{} {}\\n{} {}\\n", i, (i + 1) % 60, i, (i + 2) % 60));
    }
    format!("\"{text}\"")
}

fn create_dataset(addr: SocketAddr, name: &str, epsilon: f64, delta: f64) -> (u16, String) {
    let body = format!(
        r#"{{"name": "{name}", "edge_list": {}, "budget": {{"epsilon": {epsilon}, "delta": {delta}}}}}"#,
        edge_list_json()
    );
    client::post_json(addr, "/api/v1/datasets", &body).expect("dataset create request")
}

fn poll_to_done(addr: SocketAddr, job_id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) =
            client::get(addr, &format!("/api/v1/jobs/{job_id}")).expect("poll must succeed");
        assert_eq!(status, 200, "{body}");
        if body.contains("\"Done\"") {
            return body;
        }
        assert!(!body.contains("\"Failed\""), "job {job_id} failed: {body}");
        assert!(Instant::now() < deadline, "job {job_id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn submitted_job_id(body: &str) -> u64 {
    Json::parse(body)
        .expect("submit body is JSON")
        .get("job_id")
        .expect("submit has job_id")
        .as_f64()
        .expect("job_id is a number") as u64
}

fn result_bytes(poll_body: &str) -> String {
    let doc = Json::parse(poll_body).expect("poll body is JSON");
    kronpriv_json::to_string(doc.get("result").expect("poll has a result"))
}

#[test]
fn restart_replays_datasets_ledgers_and_finished_jobs_byte_identically() {
    let dir = temp_dir("restart");
    let estimate = r#"{"params": {"epsilon": 0.7, "delta": 0.02}, "seed": 21}"#;
    let (first_poll, first_result) = {
        let handle = start_durable(&dir);
        let addr = handle.addr();
        let (status, body) = create_dataset(addr, "persisted", 2.0, 0.1);
        assert_eq!(status, 201, "{body}");
        let (status, body) =
            client::post_json(addr, "/api/v1/datasets/persisted/estimate", estimate).unwrap();
        assert_eq!(status, 202, "{body}");
        let id = submitted_job_id(&body);
        let poll = poll_to_done(addr, id);
        let result = result_bytes(&poll);
        handle.shutdown();
        (poll, result)
    };

    // Reboot on the same directory: the dataset, its spent ledger and the finished job must
    // all be back — the job byte-for-byte.
    let handle = start_durable(&dir);
    let addr = handle.addr();
    let (status, body) = client::get(addr, "/api/v1/jobs/1").unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, first_poll, "replayed job document must be byte-identical");

    let (status, body) = client::get(addr, "/api/v1/datasets/persisted/budget").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"epsilon_spent\":0.7"), "{body}");
    let (status, body) = client::get(addr, "/api/v1/datasets").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"persisted\""), "{body}");

    // The determinism contract across the restart: the same declared draw and seed against the
    // replayed dataset reproduces the same release bytes.
    let (status, body) =
        client::post_json(addr, "/api/v1/datasets/persisted/estimate", estimate).unwrap();
    assert_eq!(status, 202, "{body}");
    let rerun = poll_to_done(addr, submitted_job_id(&body));
    assert_eq!(result_bytes(&rerun), first_result, "same seed must reproduce the same bytes");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pending_jobs_left_in_the_log_rerun_to_completion_on_boot() {
    let dir = temp_dir("pending");
    // Simulate a crash after a job was accepted but before it finished: a `job_submitted`
    // record with no matching `job_finished`. The booting server must re-run it. The data dir
    // is one an older binary wrote: its records carry a `warnings` array and its persisted
    // options a `compute_threads` field, neither of which the server reads any more.
    let options = r#"{"degree_budget_fraction": 0.5, "exact_smooth_sensitivity": false,
                      "degrees_only": false, "triangle_signal_threshold": 2.0,
                      "kronmom": {"grid_points_per_axis": 7, "refine_top": 5,
                                  "max_evaluations": 4000}}"#;
    let old_options = options.replacen('{', r#"{"compute_threads": 3, "#, 1);
    let spec = format!(
        r#"{{"skg": {{"theta": {{"a": 0.95, "b": 0.55, "c": 0.2}}, "k": 7}},
            "params": {{"epsilon": 1.0, "delta": 0.01}}, "seed": 5, "options": {old_options}}}"#
    );
    let warning = "options.compute_threads=3 is ignored: jobs run on the server's shared pool";
    // A finished job as the older binary's snapshot file stored it, warnings included.
    let finished = r#"{"seed":1,"theta":{"a":0.9,"b":0.5,"c":0.2}}"#;
    let snapshot = format!(
        r#"{{"version":1,"last_seq":0,"next_job_id":3,"datasets":[],"jobs":[{{"job_id":3,
            "status":"done","result":{finished},"warnings":["{warning}"]}}]}}"#
    );
    {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("snapshot.json"), snapshot).unwrap();
        let (store, _) = Persistence::open(&dir, 1000).unwrap();
        store.record(
            "job_submitted",
            vec![
                ("job_id", Json::Number(7.0)),
                ("warnings", Json::Array(vec![Json::String(warning.to_string())])),
                ("spec", Json::parse(&spec).unwrap()),
            ],
            || "{}".to_string(),
        );
    }
    let handle = start_durable(&dir);
    let addr = handle.addr();
    let replayed = poll_to_done(addr, 7);
    assert!(replayed.contains("\"theta\""), "{replayed}");
    assert!(!replayed.contains("warnings"), "{replayed}");

    // The re-run is the same pure function of the spec: a fresh submit of the identical
    // request, without the fields the older binary wrote, produces byte-identical result bytes.
    let body = format!(
        r#"{{"graph": {{"skg": {{"theta": {{"a": 0.95, "b": 0.55, "c": 0.2}}, "k": 7}}}},
            "params": {{"epsilon": 1.0, "delta": 0.01}}, "seed": 5, "options": {options}}}"#
    );
    let (status, submit) = client::post_json(addr, "/api/v1/estimate", &body).unwrap();
    assert_eq!(status, 202, "{submit}");
    let fresh = poll_to_done(addr, submitted_job_id(&submit));
    assert_eq!(result_bytes(&fresh), result_bytes(&replayed));

    // The finished job from the old snapshot is served, without its warnings.
    let restored = poll_to_done(addr, 3);
    assert_eq!(result_bytes(&restored), Json::parse(finished).unwrap().to_compact_string());
    assert!(!restored.contains("warnings"), "{restored}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_exhaustion_answers_429_and_a_refused_draw_spends_nothing() {
    let handle = start_in_memory();
    let addr = handle.addr();
    let (status, body) = create_dataset(addr, "metered", 1.0, 0.05);
    assert_eq!(status, 201, "{body}");

    let (status, body) = client::post_json(
        addr,
        "/api/v1/datasets/metered/estimate",
        r#"{"params": {"epsilon": 0.6, "delta": 0.02}, "seed": 1}"#,
    )
    .unwrap();
    assert_eq!(status, 202, "{body}");
    poll_to_done(addr, submitted_job_id(&body));

    // A draw the remaining (0.4, 0.03) cannot afford is refused with the typed document...
    let (status, body) = client::post_json(
        addr,
        "/api/v1/datasets/metered/estimate",
        r#"{"params": {"epsilon": 0.6, "delta": 0.02}, "seed": 2}"#,
    )
    .unwrap();
    assert_eq!(status, 429, "{body}");
    let refusal = Json::parse(&body).unwrap();
    assert_eq!(refusal.get("code").unwrap().as_str(), Some("budget_exhausted"));
    assert!(refusal.get("remaining_epsilon").unwrap().as_f64().is_some(), "{body}");
    assert!(refusal.get("remaining_delta").unwrap().as_f64().is_some(), "{body}");

    // ...and spends nothing: the ledger still shows only the first debit, and a draw that
    // exactly fits the remainder is accepted.
    let (status, body) = client::get(addr, "/api/v1/datasets/metered/budget").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"epsilon_spent\":0.6"), "{body}");
    let (status, body) = client::post_json(
        addr,
        "/api/v1/datasets/metered/estimate",
        r#"{"params": {"epsilon": 0.4, "delta": 0.02}, "seed": 3}"#,
    )
    .unwrap();
    assert_eq!(status, 202, "a draw equal to the remaining budget must fit: {body}");
    poll_to_done(addr, submitted_job_id(&body));
    handle.shutdown();
}

#[test]
fn a_corrupted_log_tail_is_dropped_on_boot_not_a_crash() {
    use std::io::Write;
    let dir = temp_dir("torn");
    {
        let handle = start_durable(&dir);
        let (status, body) = create_dataset(handle.addr(), "survivor", 1.0, 0.05);
        assert_eq!(status, 201, "{body}");
        handle.shutdown();
    }
    // A torn final record, as a crash mid-append would leave it.
    let mut log = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("records.log"))
        .expect("the record log exists");
    log.write_all(b"{\"record\":\"debit\",\"seq\":9999,\"name\":\"survivor\",\"eps").unwrap();
    drop(log);

    let handle = start_durable(&dir);
    let addr = handle.addr();
    let (status, body) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = client::get(addr, "/api/v1/datasets/survivor/budget").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"epsilon_spent\":0"), "the torn debit must not apply: {body}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_aliases_answer_byte_identically_and_carry_the_deprecation_header() {
    let handle = start_in_memory();
    let addr = handle.addr();
    let body = r#"{"graph": {"skg": {"theta": {"a": 0.95, "b": 0.55, "c": 0.2}, "k": 7}},
                   "params": {"epsilon": 1.0, "delta": 0.01}, "seed": 11}"#;
    let (status, head, legacy_submit) =
        client::request_with_head(addr, "POST", "/api/estimate", Some(body)).unwrap();
    assert_eq!(status, 202, "{legacy_submit}");
    assert!(head.contains("Deprecation: true"), "{head}");
    let id = submitted_job_id(&legacy_submit);
    poll_to_done(addr, id);

    // The same job answers on both spellings with byte-identical bodies; only the legacy
    // spelling is marked deprecated.
    let (status, legacy_head, legacy_poll) =
        client::request_with_head(addr, "GET", &format!("/api/jobs/{id}"), None).unwrap();
    assert_eq!(status, 200, "{legacy_poll}");
    assert!(legacy_head.contains("Deprecation: true"), "{legacy_head}");
    let (status, v1_head, v1_poll) =
        client::request_with_head(addr, "GET", &format!("/api/v1/jobs/{id}"), None).unwrap();
    assert_eq!(status, 200, "{v1_poll}");
    assert!(!v1_head.contains("Deprecation"), "{v1_head}");
    assert_eq!(legacy_poll, v1_poll, "alias bodies must be byte-identical");

    // The alias contract holds on the streaming endpoint too.
    let (status, stream_head, _) =
        client::get_stream(addr, &format!("/api/jobs/{id}/events")).unwrap();
    assert_eq!(status, 200, "{stream_head}");
    assert!(stream_head.contains("Deprecation: true"), "{stream_head}");
    let (status, stream_head, _) =
        client::get_stream(addr, &format!("/api/v1/jobs/{id}/events")).unwrap();
    assert_eq!(status, 200, "{stream_head}");
    assert!(!stream_head.contains("Deprecation"), "{stream_head}");

    // healthz reports the dataset count and, in-memory, a null data_dir — while staying a
    // plain 200 for bare liveness checks.
    let (status, health) = client::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"datasets\":0"), "{health}");
    assert!(health.contains("\"data_dir\":null"), "{health}");
    handle.shutdown();
}
