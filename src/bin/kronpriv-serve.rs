//! `kronpriv-serve` — launch the kronpriv HTTP/JSON service, or probe a running one.
//!
//! ```sh
//! kronpriv-serve [--addr 127.0.0.1:8080] [--workers 4] [--job-workers 2] \
//!                [--compute-threads 0] [--max-order 16] [--request-deadline 30] \
//!                [--data-dir PATH] [--snapshot-every N]
//! kronpriv-serve --probe 127.0.0.1:8080         # end-to-end smoke: estimates, datasets,
//!                                               # budget ledger (a deliberate 429 and 400)
//! kronpriv-serve --probe-replay 127.0.0.1:8080  # after a restart on the same --data-dir:
//!                                               # assert datasets/ledgers/jobs survived
//! kronpriv-serve --metrics 127.0.0.1:8080       # scrape /metrics, validate every line, exit
//! ```
//!
//! `--data-dir PATH` makes the server durable: datasets (with their privacy-budget ledgers)
//! and jobs are appended to a record log under `PATH` and replayed on the next boot, so a
//! crash or restart loses nothing. Without the flag all state is in-memory, as before.
//!
//! `--compute-threads N` sizes the shared compute executor, built once at startup and
//! borrowed by every estimation job for its parallel stages — the counting kernels (triangle
//! count, smooth sensitivity), the isotonic degree post-processing and the fitting stage (the
//! moment-matching fit and the multi-chain KronFit baseline). All jobs together never run more
//! than `N - 1` helper threads at once; `0` (the default) means one participant per available
//! hardware thread. Every stage is deterministic for any thread count, so the flag never
//! changes results.
//!
//! `--request-deadline SECS` bounds the wall-clock time a client may take to deliver one full
//! request (the slowloris guard); the per-read socket timeout alone cannot stop a client
//! dripping one byte per interval.
//!
//! With `--addr 127.0.0.1:0` the OS picks an ephemeral port; the first stdout line always
//! reports the bound address (`listening on http://<addr>`), which is what
//! `scripts/verify.sh --quick` scrapes before probing.

use kronpriv::kronpriv_obs::well_formed_exposition_line;
use kronpriv_server::{client, serve, ServerConfig};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::Serve(config)) => run_server(config),
        Ok(Mode::Probe(addr)) => report("probe", probe(addr).map(|()| String::new())),
        Ok(Mode::ProbeReplay(addr)) => {
            report("probe-replay", probe_replay(addr).map(|()| String::new()))
        }
        Ok(Mode::Metrics(addr)) => report(
            "metrics",
            metrics_check(addr)
                .map(|text| format!(" ({} well-formed lines)", text.lines().count())),
        ),
        Err(message) => {
            eprintln!("kronpriv-serve: {message}");
            eprintln!(
                "usage: kronpriv-serve [--addr HOST:PORT] [--workers N] [--job-workers N] \
                 [--compute-threads N] [--max-order K] [--request-deadline SECS] \
                 [--data-dir PATH] [--snapshot-every N] \
                 | --probe HOST:PORT | --probe-replay HOST:PORT | --metrics HOST:PORT"
            );
            ExitCode::from(2)
        }
    }
}

enum Mode {
    Serve(ServerConfig),
    Probe(SocketAddr),
    ProbeReplay(SocketAddr),
    Metrics(SocketAddr),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:8080".to_string(),
        access_log: true,
        ..ServerConfig::default()
    };
    let mut probe: Option<SocketAddr> = None;
    let mut probe_replay: Option<SocketAddr> = None;
    let mut metrics: Option<SocketAddr> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?.to_string(),
            "--workers" => {
                config.workers = parse_positive(value("--workers")?, "--workers")?;
            }
            "--job-workers" => {
                config.job_workers = parse_positive(value("--job-workers")?, "--job-workers")?;
            }
            "--compute-threads" => {
                // 0 is meaningful here ("auto"), unlike the worker-count flags.
                let raw = value("--compute-threads")?;
                config.compute_threads = raw.parse::<usize>().map_err(|_| {
                    format!("--compute-threads: expected a non-negative integer, got {raw:?}")
                })?;
            }
            "--max-order" => {
                let raw = value("--max-order")?;
                config.max_order = match raw.parse::<u32>() {
                    Ok(n) if n > 0 => n,
                    _ => return Err(format!("--max-order: expected a positive u32, got {raw:?}")),
                };
            }
            "--request-deadline" => {
                let raw = value("--request-deadline")?;
                config.request_deadline = match raw.parse::<u64>() {
                    Ok(secs) if secs > 0 => std::time::Duration::from_secs(secs),
                    _ => {
                        return Err(format!(
                            "--request-deadline: expected a positive number of seconds, got {raw:?}"
                        ))
                    }
                };
            }
            "--data-dir" => {
                config.data_dir = Some(std::path::PathBuf::from(value("--data-dir")?));
            }
            "--snapshot-every" => {
                config.snapshot_every =
                    parse_positive(value("--snapshot-every")?, "--snapshot-every")? as u64;
            }
            "--probe" => {
                let raw = value("--probe")?;
                probe = Some(raw.parse().map_err(|_| format!("--probe: bad address {raw:?}"))?);
            }
            "--probe-replay" => {
                let raw = value("--probe-replay")?;
                probe_replay =
                    Some(raw.parse().map_err(|_| format!("--probe-replay: bad address {raw:?}"))?);
            }
            "--metrics" => {
                let raw = value("--metrics")?;
                metrics = Some(raw.parse().map_err(|_| format!("--metrics: bad address {raw:?}"))?);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let modes = probe.is_some() as u8 + probe_replay.is_some() as u8 + metrics.is_some() as u8;
    if modes > 1 {
        return Err("--probe, --probe-replay and --metrics are mutually exclusive".into());
    }
    Ok(match (probe, probe_replay, metrics) {
        (Some(addr), _, _) => Mode::Probe(addr),
        (_, Some(addr), _) => Mode::ProbeReplay(addr),
        (_, _, Some(addr)) => Mode::Metrics(addr),
        (None, None, None) => Mode::Serve(config),
    })
}

fn parse_positive(raw: &str, flag: &str) -> Result<usize, String> {
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag}: expected a positive integer, got {raw:?}")),
    }
}

fn run_server(config: ServerConfig) -> ExitCode {
    let workers = config.workers;
    let job_workers = config.job_workers;
    let compute_threads = config.compute_threads;
    let durability = match &config.data_dir {
        Some(dir) => format!("data-dir={} (durable)", dir.display()),
        None => "data-dir=none (in-memory)".to_string(),
    };
    match serve(config) {
        Ok(handle) => {
            println!("listening on http://{}", handle.addr());
            println!(
                "workers={workers} job-workers={job_workers} compute-threads={compute_threads} \
                 (0=auto) {durability}; endpoints: GET /healthz, GET /metrics, \
                 POST /api/v1/estimate, GET /api/v1/jobs/{{id}}[/events], POST /api/v1/sample, \
                 /api/v1/datasets[/{{name}}[/estimate|/budget]] (see API.md); \
                 access log: one JSON line per request on stdout"
            );
            handle.wait();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("kronpriv-serve: cannot start: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a check's outcome as `{mode}: OK{detail}` on stdout, or `{mode}: {message}` on
/// stderr, and exits non-zero on failure, so `scripts/verify.sh --quick` can gate on it.
fn report(mode: &str, outcome: Result<String, String>) -> ExitCode {
    match outcome {
        Ok(detail) => {
            println!("{mode}: OK{detail}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{mode}: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Scrapes `/metrics` from a live server and validates every line of the exposition against
/// [`well_formed_exposition_line`] — the same validator the in-process tests and the CI gate
/// use — returning the exposition.
fn metrics_check(addr: SocketAddr) -> Result<String, String> {
    let (status, body) =
        client::get(addr, "/metrics").map_err(|e| format!("scrape failed: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics returned {status}: {body}"));
    }
    if let Some(line) = body.lines().find(|line| !well_formed_exposition_line(line)) {
        return Err(format!("malformed exposition line: {line:?}"));
    }
    if body.is_empty() {
        return Err("empty exposition".to_string());
    }
    Ok(body)
}

/// Drives a live server end to end: `/healthz` by GET, by HEAD and by DELETE (a `405` that must
/// carry `Allow: GET, HEAD`), then a tiny sampled-SKG estimate job polled to completion, then
/// `/api/sample`, a `/metrics` scrape and a job event stream, both checked for the one stage
/// vocabulary — the verify-script smoke test.
fn probe(addr: SocketAddr) -> Result<(), String> {
    let (status, body) =
        client::get(addr, "/healthz").map_err(|e| format!("healthz request failed: {e}"))?;
    if status != 200 || !body.contains("\"ok\"") {
        return Err(format!("healthz returned {status}: {body}"));
    }
    // HEAD is answered as GET, without content: the same 200 and Content-Length, no body.
    let (status, head, body) = client::request_with_head(addr, "HEAD", "/healthz", None)
        .map_err(|e| format!("HEAD /healthz request failed: {e}"))?;
    if status != 200
        || !head.to_ascii_lowercase().contains("\r\ncontent-length: ")
        || !body.is_empty()
    {
        return Err(format!(
            "HEAD /healthz returned {status} and {} body bytes: {head}",
            body.len()
        ));
    }
    // A known route with a method it does not serve: 405 plus the route's `Allow` list.
    let (status, head, _) = client::request_with_head(addr, "DELETE", "/healthz", None)
        .map_err(|e| format!("DELETE /healthz request failed: {e}"))?;
    if status != 405 || !head.lines().any(|line| line.eq_ignore_ascii_case("allow: GET, HEAD")) {
        return Err(format!("DELETE /healthz returned {status} without Allow: GET, HEAD: {head}"));
    }

    let request = r#"{
        "graph": {"skg": {"theta": {"a": 0.95, "b": 0.55, "c": 0.2}, "k": 7}},
        "params": {"epsilon": 1.0, "delta": 0.01},
        "seed": 42
    }"#;
    let (status, body) = client::post_json(addr, "/api/estimate", request)
        .map_err(|e| format!("estimate request failed: {e}"))?;
    if status != 202 {
        return Err(format!("estimate returned {status}: {body}"));
    }
    let job_id = extract_number(&body, "job_id").ok_or(format!("no job_id in {body}"))?;
    let done = wait_for_done(addr, job_id)?;
    if !done.contains("\"theta\"") {
        return Err(format!("job result has no theta: {done}"));
    }

    // The baseline selector: a tiny KronFit job must come back marked as such. It is sent the
    // way an older client would, with a `compute_threads` the server accepts and ignores.
    let kronfit_request = r#"{
        "graph": {"skg": {"theta": {"a": 0.95, "b": 0.55, "c": 0.2}, "k": 6}},
        "estimator": "kronfit",
        "seed": 42,
        "kronfit": {"gradient_steps": 5, "warmup_swaps": 500, "samples_per_step": 2,
                    "swaps_between_samples": 100, "learning_rate": 0.06,
                    "min_parameter": 0.001, "initial": {"a": 0.9, "b": 0.6, "c": 0.2},
                    "chains": 2, "compute_threads": 3}
    }"#;
    let (status, body) = client::post_json(addr, "/api/estimate", kronfit_request)
        .map_err(|e| format!("kronfit estimate request failed: {e}"))?;
    if status != 202 {
        return Err(format!("kronfit estimate returned {status}: {body}"));
    }
    let job_id = extract_number(&body, "job_id").ok_or(format!("no job_id in {body}"))?;
    let done = wait_for_done(addr, job_id).map_err(|e| format!("kronfit {e}"))?;
    if !done.contains("\"estimator\":\"kronfit\"") {
        return Err(format!("kronfit job result is not marked as kronfit: {done}"));
    }

    let sample = r#"{"theta": {"a": 0.9, "b": 0.5, "c": 0.2}, "k": 6, "seed": 1}"#;
    let (status, body) = client::post_json(addr, "/api/sample", sample)
        .map_err(|e| format!("sample request failed: {e}"))?;
    if status != 200 || !body.contains("\"edge_list\"") {
        return Err(format!("sample returned {status}: {body}"));
    }

    // The observability surface: the finished job's event stream replays queued → done, and the
    // traffic just driven must scrape back as well-formed Prometheus text.
    let (status, head, stream) = client::get_stream(addr, &format!("/api/jobs/{job_id}/events"))
        .map_err(|e| format!("event stream failed: {e}"))?;
    if status != 200 || !head.contains("Content-Type: application/x-ndjson") {
        return Err(format!("event stream returned {status}: {head}"));
    }
    let first = stream.lines().next().unwrap_or_default();
    let last = stream.lines().last().unwrap_or_default();
    if !first.contains("\"queued\"") || !last.contains("\"done\"") {
        return Err(format!("event stream did not replay queued → done: {stream}"));
    }
    for event in ["stage_started", "stage_finished"] {
        let line = format!(r#"{{"event":"{event}","stage":"kronfit"}}"#);
        if !stream.lines().any(|l| l == line) {
            return Err(format!("event stream has no {line}: {stream}"));
        }
    }

    // Legacy alias contract: the pre-versioning spelling answers byte-identically but is
    // marked deprecated; the canonical spelling is not.
    let (status, head, legacy_body) =
        client::request_with_head(addr, "GET", &format!("/api/jobs/{job_id}"), None)
            .map_err(|e| format!("legacy job poll failed: {e}"))?;
    if status != 200 || !head.contains("Deprecation: true") {
        return Err(format!("legacy alias is not marked deprecated ({status}): {head}"));
    }
    let (status, head, v1_body) =
        client::request_with_head(addr, "GET", &format!("/api/v1/jobs/{job_id}"), None)
            .map_err(|e| format!("v1 job poll failed: {e}"))?;
    if status != 200 || head.contains("Deprecation") {
        return Err(format!("v1 spelling must not be deprecated ({status}): {head}"));
    }
    if legacy_body != v1_body {
        return Err("legacy alias body differs from the v1 body".to_string());
    }

    probe_datasets(addr)?;

    let exposition = metrics_check(addr)?;
    let lines = exposition.lines().count();
    if lines < 3 {
        return Err(format!("suspiciously small exposition after a full probe: {lines} lines"));
    }
    stage_vocabulary_check(&exposition)
}

/// The one stage vocabulary, checked on a live server after the probe's private and KronFit
/// jobs: each stage they stream as events has a `kronpriv_stage_ns` series under the same
/// name, and the retired `kronpriv_stage_total` counter is gone.
fn stage_vocabulary_check(exposition: &str) -> Result<(), String> {
    for stage in ["degree_release", "triangle_release", "fit", "kronfit"] {
        let series = format!("kronpriv_stage_ns_count{{stage=\"{stage}\"}} ");
        if !exposition.lines().any(|line| line.starts_with(&series)) {
            return Err(format!("no {series:?} series in /metrics"));
        }
    }
    if exposition.contains("kronpriv_stage_total") {
        return Err("/metrics still serves the retired kronpriv_stage_total".to_string());
    }
    Ok(())
}

/// The probe dataset: uploaded with an ε-budget that affords exactly two of the probe's
/// estimate draws, so the third is a deliberate `429 budget_exhausted`. `--probe-replay`
/// asserts the same ledger state after a restart.
const PROBE_DATASET: &str = "probe-ds";

/// One deterministic 60-node edge list (ring + chords), JSON-escaped for embedding in a
/// request body — the same graph shape the integration tests push through the pipeline.
fn probe_edge_list_json() -> String {
    let mut text = String::new();
    for i in 0..60 {
        text.push_str(&format!("{} {}\\n{} {}\\n", i, (i + 1) % 60, i, (i + 2) % 60));
        if i < 30 {
            text.push_str(&format!("{} {}\\n", i, i + 30));
        }
    }
    format!("\"{text}\"")
}

/// Drives the dataset lifecycle end to end: upload with a budget, two private estimates that
/// debit it, the budget document, a deliberate refusal once the budget is exhausted, and
/// delete on a second throwaway dataset.
fn probe_datasets(addr: SocketAddr) -> Result<(), String> {
    let create = format!(
        r#"{{"name": "{PROBE_DATASET}", "edge_list": {}, "budget": {{"epsilon": 2.0, "delta": 0.1}}}}"#,
        probe_edge_list_json()
    );
    let (status, body) = client::post_json(addr, "/api/v1/datasets", &create)
        .map_err(|e| format!("dataset create failed: {e}"))?;
    if status != 201 || !body.contains("\"budget\"") {
        return Err(format!("dataset create returned {status}: {body}"));
    }

    // Two estimates of (0.9, 0.04) fit the (2.0, 0.1) budget; each must debit the ledger.
    for seed in [7u64, 8] {
        let request = format!(r#"{{"params": {{"epsilon": 0.9, "delta": 0.04}}, "seed": {seed}}}"#);
        let (status, body) = client::post_json(
            addr,
            &format!("/api/v1/datasets/{PROBE_DATASET}/estimate"),
            &request,
        )
        .map_err(|e| format!("dataset estimate failed: {e}"))?;
        if status != 202 {
            return Err(format!("dataset estimate returned {status}: {body}"));
        }
        let job_id = extract_number(&body, "job_id").ok_or(format!("no job_id in {body}"))?;
        wait_for_done(addr, job_id)?;
    }

    let (status, body) = client::get(addr, &format!("/api/v1/datasets/{PROBE_DATASET}/budget"))
        .map_err(|e| format!("budget doc failed: {e}"))?;
    if status != 200 || !body.contains("\"epsilon_spent\":1.8") {
        return Err(format!("budget doc after two debits returned {status}: {body}"));
    }

    // Refusals spend nothing: a third draw over budget (429), an affordable unfit one (400).
    let third = r#"{"params": {"epsilon": 0.9, "delta": 0.04}, "seed": 9}"#;
    let unfit = r#"{"params": {"epsilon": 0.1, "delta": 0.01}, "seed": 9, "options":
        {"degree_budget_fraction": 0.5, "exact_smooth_sensitivity": false, "degrees_only": false,
         "triangle_signal_threshold": 2.0,
         "kronmom": {"grid_points_per_axis": 7, "refine_top": 5, "max_evaluations": 0}}}"#;
    let over_budget = ["\"budget_exhausted\"", "remaining_epsilon"];
    for (draw, want, needles) in
        [(third, 429, &over_budget[..]), (unfit, 400, &["\"bad_request\""])]
    {
        let (status, body) =
            client::post_json(addr, &format!("/api/v1/datasets/{PROBE_DATASET}/estimate"), draw)
                .map_err(|e| format!("refused estimate failed: {e}"))?;
        if status != want || !needles.iter().all(|needle| body.contains(needle)) {
            return Err(format!("estimate returned {status}, want {want}: {body}"));
        }
    }
    let (status, body) = client::get(addr, &format!("/api/v1/datasets/{PROBE_DATASET}/budget"))
        .map_err(|e| format!("budget doc failed: {e}"))?;
    if status != 200 || !body.contains("\"epsilon_spent\":1.8") {
        return Err(format!("a refused draw must not spend budget ({status}): {body}"));
    }

    // Delete semantics on a throwaway dataset: gone from the collection afterwards.
    let create = format!(
        r#"{{"name": "probe-tmp", "edge_list": {}, "budget": {{"epsilon": 0.5, "delta": 0.01}}}}"#,
        probe_edge_list_json()
    );
    let (status, body) = client::post_json(addr, "/api/v1/datasets", &create)
        .map_err(|e| format!("throwaway dataset create failed: {e}"))?;
    if status != 201 {
        return Err(format!("throwaway dataset create returned {status}: {body}"));
    }
    let (status, body) = client::delete(addr, "/api/v1/datasets/probe-tmp")
        .map_err(|e| format!("dataset delete failed: {e}"))?;
    if status != 200 {
        return Err(format!("dataset delete returned {status}: {body}"));
    }
    let (status, _) = client::get(addr, "/api/v1/datasets/probe-tmp")
        .map_err(|e| format!("deleted dataset lookup failed: {e}"))?;
    if status != 404 {
        return Err(format!("deleted dataset still answers {status}"));
    }
    Ok(())
}

/// Polls one job until `Done` (error on `Failed` or timeout).
fn wait_for_done(addr: SocketAddr, job_id: u64) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = client::get(addr, &format!("/api/v1/jobs/{job_id}"))
            .map_err(|e| format!("job poll failed: {e}"))?;
        if status != 200 {
            return Err(format!("job poll returned {status}: {body}"));
        }
        if body.contains("\"Done\"") {
            return Ok(body);
        }
        if body.contains("\"Failed\"") {
            return Err(format!("job failed: {body}"));
        }
        if Instant::now() > deadline {
            return Err(format!("job {job_id} did not finish in time"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Asserts that a server restarted on the same `--data-dir` replayed what `--probe` left
/// behind: the dataset with its spent ledger (still refusing over-budget draws), the deletion
/// of the throwaway dataset, and the finished jobs with their results.
fn probe_replay(addr: SocketAddr) -> Result<(), String> {
    let (status, body) =
        client::get(addr, "/healthz").map_err(|e| format!("healthz request failed: {e}"))?;
    if status != 200 {
        return Err(format!("healthz returned {status}: {body}"));
    }
    if body.contains("\"data_dir\":null") || !body.contains("\"data_dir\":") {
        return Err(format!("healthz does not report a data_dir: {body}"));
    }

    // The ledger must have survived the restart with its spend intact...
    let (status, body) = client::get(addr, &format!("/api/v1/datasets/{PROBE_DATASET}/budget"))
        .map_err(|e| format!("budget doc failed: {e}"))?;
    if status != 200 || !body.contains("\"epsilon_spent\":1.8") {
        return Err(format!("replayed budget doc returned {status}: {body}"));
    }
    // ...and must still refuse a draw the remaining budget cannot afford.
    let request = r#"{"params": {"epsilon": 0.9, "delta": 0.04}, "seed": 10}"#;
    let (status, body) =
        client::post_json(addr, &format!("/api/v1/datasets/{PROBE_DATASET}/estimate"), request)
            .map_err(|e| format!("over-budget estimate failed: {e}"))?;
    if status != 429 || !body.contains("\"budget_exhausted\"") {
        return Err(format!("replayed ledger accepted an over-budget draw ({status}): {body}"));
    }

    // The deletion was replayed too.
    let (status, _) = client::get(addr, "/api/v1/datasets/probe-tmp")
        .map_err(|e| format!("deleted dataset lookup failed: {e}"))?;
    if status != 404 {
        return Err(format!("deleted dataset reappeared after replay ({status})"));
    }

    // Job 1 is the probe's first estimate, polled to completion before the restart; its
    // persisted result must come back verbatim.
    let (status, body) =
        client::get(addr, "/api/v1/jobs/1").map_err(|e| format!("job 1 poll failed: {e}"))?;
    if status != 200 || !body.contains("\"Done\"") || !body.contains("\"theta\"") {
        return Err(format!("replayed job 1 returned {status}: {body}"));
    }
    Ok(())
}

/// Pulls `"key": <integer>` out of a compact JSON body without a full parse (the probe only
/// needs the job id, and the binary deliberately leans on the client, not the JSON crate).
fn extract_number(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = &body[body.find(&needle)? + needle.len()..];
    let digits: String = rest.trim_start().chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}
