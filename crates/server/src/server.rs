//! The TCP accept loop, connection handling and graceful shutdown.

use crate::http::{
    finish_chunked, read_request, write_chunk, write_chunked_head, HttpError, STATUS_TABLE,
};
use crate::pool::ThreadPool;
use crate::router::{self, error, events_target, path_of, AppState, Route};
use crate::store;
use kronpriv_json::Json;
use kronpriv_obs::Registry;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port (the bound address is reported by
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// HTTP connection workers (request parsing, routing, synchronous endpoints).
    pub workers: usize,
    /// Estimation workers executing `/api/estimate` jobs.
    pub job_workers: usize,
    /// Size of the shared compute worker pool, built **once** at startup and borrowed by every
    /// estimation job for its parallel stages — the counting kernels (triangle count, smooth
    /// sensitivity), the isotonic degree post-processing and the moment-matching fit; `0`
    /// means one worker per available hardware thread. Every stage is deterministic for any
    /// pool size, so this knob never changes a job's result — it is server-side resource
    /// control only. Requests carry no thread count (an old client's `compute_threads` field
    /// is accepted and ignored).
    pub compute_threads: usize,
    /// Largest Kronecker order accepted by `/api/sample` and sampled-SKG inputs.
    pub max_order: u32,
    /// Per-connection socket read/write timeout (per `read(2)`/`write(2)` call).
    pub io_timeout: Duration,
    /// Overall wall-clock budget for *reading one request*. The per-call `io_timeout` resets on
    /// every byte, so a slowloris client dripping one byte per interval could hold an HTTP
    /// worker indefinitely while staying inside the head-size limit; this deadline cuts such a
    /// connection off with a `408 Request Timeout` instead (worst-case overshoot: one
    /// `io_timeout`).
    pub request_deadline: Duration,
    /// When true, every handled request is logged to stdout as one structured JSON line
    /// (`{"log":"access","method":...,"path":...,"status":...,"duration_us":...}`). Off by
    /// default so embedded servers (tests, `serve_ephemeral`) stay quiet; the `kronpriv-serve`
    /// binary turns it on. Metrics are recorded regardless — only the log line is gated.
    pub access_log: bool,
    /// Directory for the durable record log and snapshots. `None` (the default) keeps all
    /// state in memory, exactly as before durability existed; `Some(dir)` replays the
    /// directory on boot (datasets, ledgers, finished jobs, and pending jobs — which re-run
    /// deterministically from their persisted specs) and appends every mutation to it.
    pub data_dir: Option<PathBuf>,
    /// Appends between snapshot compactions of the record log (only meaningful with
    /// `data_dir`). Low values bound replay work; high values reduce snapshot churn.
    pub snapshot_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            job_workers: 2,
            compute_threads: 0,
            max_order: 16,
            io_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_secs(30),
            access_log: false,
            data_dir: None,
            snapshot_every: store::DEFAULT_SNAPSHOT_EVERY,
        }
    }
}

/// A handle to a running server: its bound address plus shutdown control.
///
/// Dropping the handle shuts the server down gracefully (stop accepting, finish in-flight
/// connections and estimation jobs, join every thread).
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful shutdown and waits for all threads to exit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the accept loop exits (it only exits on shutdown, so for the standalone
    /// binary this means "serve forever").
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    fn stop(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.shutdown.store(true, Ordering::SeqCst);
            // The accept loop blocks in `accept(2)`; a throwaway connection wakes it so it can
            // observe the flag and exit.
            let _ = TcpStream::connect(self.addr);
            let _ = accept.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds the listener and spawns the accept loop; returns once the server is ready to accept
/// connections.
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let (state, pending) = match &config.data_dir {
        Some(dir) => AppState::with_persistence(
            config.job_workers,
            config.max_order,
            config.compute_threads,
            dir,
            config.snapshot_every.max(1),
        )?,
        None => (
            AppState::new(config.job_workers, config.max_order, config.compute_threads),
            Vec::new(),
        ),
    };
    let state = Arc::new(state);
    // Pending jobs replay *after* the completion hook is installed (inside
    // `with_persistence`), so their re-run results are persisted like any live job's.
    router::replay_pending(&state, pending);
    let pool = ThreadPool::new(config.workers, "kronpriv-http");
    let flag = Arc::clone(&shutdown);
    let io_timeout = config.io_timeout;
    let request_deadline = config.request_deadline;
    let access_log = config.access_log;
    // lint:allow(determinism-thread, reason = "the listener accept loop: dispatches connections to the HTTP pool and never touches compute state")
    let accept = thread::Builder::new().name("kronpriv-accept".to_string()).spawn(move || {
        for stream in listener.incoming() {
            if flag.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(_) => {
                    // Persistent accept errors (e.g. fd exhaustion) would otherwise busy-spin
                    // this thread; back off briefly before retrying.
                    thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            let state = Arc::clone(&state);
            pool.execute(move || {
                handle_connection(stream, &state, io_timeout, request_deadline, access_log)
            });
        }
        // `pool` and `state` drop here: workers drain in-flight connections, then the job
        // store's estimation pool drains in-flight jobs.
    })?;
    Ok(ServerHandle { addr, shutdown, accept: Some(accept) })
}

/// How long one [`Route::JobEvents`] connection may follow a job before the server closes
/// the (well-terminated) stream anyway. Jobs themselves are bounded far below this by the
/// router's iteration-budget caps; the limit only protects an HTTP worker from a job that
/// somehow never completes.
const MAX_EVENT_STREAM: Duration = Duration::from_secs(15 * 60);

/// Serves one connection: read a request, route it, write the response, close. A valid
/// [`Route::JobEvents`] target is intercepted before dispatch — it needs the raw socket to
/// write a chunked stream that follows the job, which the request → response router cannot
/// express. A `HEAD` request gets the head its `GET` would, and no content.
fn handle_connection(
    stream: TcpStream,
    state: &AppState,
    io_timeout: Duration,
    request_deadline: Duration,
    access_log: bool,
) {
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    let started = Instant::now();
    let deadline = started + request_deadline;
    let mut reader = BufReader::new(stream);
    let request = read_request(&mut reader, deadline);
    // A request that could not be read logs an empty method and path, labelled `other`.
    let (method, target) = match &request {
        Ok(request) => (request.method.as_str(), request.path.as_str()),
        Err(_) => ("", ""),
    };
    let (route, deprecated) = Route::parse(target);
    let (path, label) = (path_of(target), route.label(deprecated));
    let head_only = method == "HEAD";
    let response = match &request {
        Ok(request) => {
            if let Route::JobEvents(raw_id) = route {
                if let Ok(id) = events_target(state, method, raw_id) {
                    // Status and latency are observed at stream start (time to first byte);
                    // folding multi-minute job runtimes into the request histogram would
                    // drown the signal.
                    observe_request(method, path, label, 200, started, access_log);
                    let _ = stream_events(reader.into_inner(), state, id, deprecated, head_only);
                    return;
                }
            }
            // Everything else, an invalid stream target included, is answered by dispatch.
            router::dispatch(state, request, route, deprecated)
        }
        // The shutdown wake-up connection lands here as an immediate EOF; answering a 408/400
        // into a closed socket is harmless.
        Err(HttpError::Io(e)) => error(400, "bad_request", format!("could not read request: {e}")),
        Err(HttpError::TooLarge) => error(413, "too_large", "request exceeds the size limits"),
        Err(e @ HttpError::Malformed(_)) => error(400, "bad_request", e.to_string()),
        Err(e @ HttpError::Timeout) => error(408, "timeout", e.to_string()),
    };
    observe_request(method, path, label, response.status, started, access_log);
    let stream = reader.into_inner();
    let _ = if head_only { response.write_head(stream) } else { response.write_to(stream) };
}

/// Follows one job's event log onto the socket as a chunked `application/x-ndjson` stream:
/// one JSON document per line, the log's new tail written as-is per batch, terminated by the
/// zero-length chunk once the job's terminal event has been written (or the job was evicted,
/// or the client went away, or [`MAX_EVENT_STREAM`] elapsed). With `head_only` (a `HEAD`
/// request) it writes the stream's head and no chunks.
fn stream_events(
    stream: TcpStream,
    state: &AppState,
    id: u64,
    deprecated: bool,
    head_only: bool,
) -> io::Result<()> {
    let mut writer = stream;
    let extra: &[(&str, &str)] = if deprecated { &[("Deprecation", "true")] } else { &[] };
    write_chunked_head(&mut writer, 200, "application/x-ndjson", extra)?;
    if head_only {
        return Ok(());
    }
    let cutoff = Instant::now() + MAX_EVENT_STREAM;
    let mut cursor = 0usize;
    while Instant::now() < cutoff {
        // Short waits keep the loop responsive to the cutoff; the condvar inside wakes the
        // wait immediately when an event lands, so streaming latency is not 500 ms.
        match state.jobs.wait_events(id, cursor, Duration::from_millis(500)) {
            None => break, // evicted mid-stream: terminate cleanly with what was sent
            Some((tail, terminal)) => {
                cursor += tail.len();
                write_chunk(&mut writer, tail.as_bytes())?;
                if terminal {
                    break;
                }
            }
        }
    }
    finish_chunked(&mut writer)
}

fn method_label(method: &str) -> &'static str {
    match method {
        "GET" => "GET",
        "POST" => "POST",
        "PUT" => "PUT",
        "DELETE" => "DELETE",
        "HEAD" => "HEAD",
        _ => "other",
    }
}

/// The `status` label: the code itself when the status table lists it, `other` for the rest.
fn status_label(status: u16) -> String {
    if STATUS_TABLE.iter().any(|&(code, _)| code == status) {
        status.to_string()
    } else {
        "other".to_string()
    }
}

/// Records one handled request into the global registry under the route's `label` and, when
/// enabled, emits the structured access-log line with the request's `path` (its target
/// without the query).
fn observe_request(
    method: &str,
    path: &str,
    label: &str,
    status: u16,
    started: Instant,
    access_log: bool,
) {
    let elapsed = started.elapsed();
    let registry = Registry::global();
    registry
        .counter(
            "kronpriv_http_requests_total",
            &[("method", method_label(method)), ("path", label), ("status", &status_label(status))],
        )
        .inc();
    registry
        .histogram("kronpriv_http_request_ns", &[("path", label)])
        .record_ns(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    if access_log {
        let epoch_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as f64)
            .unwrap_or(0.0);
        let line = Json::Object(vec![
            ("log".to_string(), Json::String("access".to_string())),
            ("ts_ms".to_string(), Json::Number(epoch_ms)),
            ("method".to_string(), Json::String(method.to_string())),
            ("path".to_string(), Json::String(path.to_string())),
            ("status".to_string(), Json::Number(status as f64)),
            ("duration_us".to_string(), Json::Number(elapsed.as_micros() as f64)),
        ]);
        println!("{}", kronpriv_json::to_string(&line));
    }
}

/// One-call convenience used by unit tests and docs: serve on an ephemeral localhost port.
pub fn serve_ephemeral(workers: usize, job_workers: usize) -> io::Result<ServerHandle> {
    serve(ServerConfig { workers, job_workers, ..ServerConfig::default() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    #[test]
    fn serves_health_and_shuts_down_gracefully() {
        let handle = serve_ephemeral(2, 1).unwrap();
        let addr = handle.addr();
        let (status, body) = client::get(addr, "/healthz").unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"ok\""));
        handle.shutdown();
        // After shutdown the port no longer accepts requests.
        assert!(
            client::get(addr, "/healthz").is_err() || {
                // A race can let one last connect through while the OS recycles the socket; but a
                // fresh bind on the same port must now succeed, proving the listener is gone.
                TcpListener::bind(addr).is_ok()
            }
        );
    }

    #[test]
    fn slowloris_drip_feed_is_cut_off_with_408() {
        use std::io::{Read, Write};
        // Regression: with only the per-read io_timeout, a client dripping one byte per
        // interval (well under the timeout) held an HTTP worker indefinitely. The overall
        // request deadline must cut it off with a 408 long before the drip would finish.
        let handle = serve(ServerConfig {
            workers: 1,
            job_workers: 1,
            request_deadline: Duration::from_millis(250),
            io_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        })
        .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let started = std::time::Instant::now();
        // Drip a never-completed request line, one byte every 20 ms, for up to ~4 s.
        let dripper = std::thread::spawn(move || {
            for _ in 0..200 {
                if writer.write_all(b"G").is_err() {
                    break; // the server already cut the connection
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        let elapsed = started.elapsed();
        dripper.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 408 "), "{response}");
        assert!(
            elapsed < Duration::from_secs(5),
            "drip-fed request held the worker for {elapsed:?}"
        );
        handle.shutdown();
    }

    #[test]
    fn slow_but_complete_requests_inside_the_deadline_still_succeed() {
        use std::io::{Read, Write};
        let handle = serve(ServerConfig {
            workers: 1,
            job_workers: 1,
            request_deadline: Duration::from_secs(10),
            ..ServerConfig::default()
        })
        .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Send a valid request in two instalments with a pause in between: slower than one
        // buffer refill, but well inside the overall deadline.
        stream.write_all(b"GET /health").unwrap();
        std::thread::sleep(Duration::from_millis(100));
        stream.write_all(b"z HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
        handle.shutdown();
    }

    #[test]
    fn malformed_and_oversized_requests_get_4xx() {
        use std::io::{Read, Write};
        let handle = serve_ephemeral(2, 1).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(b"BOGUS\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400 "), "{response}");

        let (status, _) = client::post_json(
            handle.addr(),
            "/api/estimate",
            "{\"this is\": \"not an estimate request\"}",
        )
        .unwrap();
        assert_eq!(status, 400);
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text_over_the_socket() {
        let handle = serve_ephemeral(2, 1).unwrap();
        // A prior request guarantees the HTTP counters exist before the scrape renders.
        client::get(handle.addr(), "/healthz").unwrap();
        let (status, body) = client::get(handle.addr(), "/metrics").unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(
            body.contains(
                "kronpriv_http_requests_total{method=\"GET\",path=\"/healthz\",status=\"200\"}"
            ),
            "{body}"
        );
        assert!(body.contains("kronpriv_http_request_ns_bucket{"), "{body}");
        for line in body.lines() {
            assert!(
                kronpriv_obs::well_formed_exposition_line(line),
                "malformed exposition line: {line:?}"
            );
        }
        handle.shutdown();
    }

    #[test]
    fn events_stream_is_chunked_ndjson_from_queued_to_done() {
        let handle = serve_ephemeral(2, 1).unwrap();
        let body = r#"{"graph": {"skg": {"theta": {"a": 0.95, "b": 0.55, "c": 0.2}, "k": 7}},
                       "params": {"epsilon": 1.0, "delta": 0.01}, "seed": 3}"#;
        let (status, submitted) = client::post_json(handle.addr(), "/api/estimate", body).unwrap();
        assert_eq!(status, 202, "{submitted}");
        let id = Json::parse(&submitted).unwrap().get("job_id").unwrap().as_f64().unwrap() as u64;
        let (status, head, stream) =
            client::get_stream(handle.addr(), &format!("/api/jobs/{id}/events")).unwrap();
        assert_eq!(status, 200, "{head}");
        assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
        assert!(head.contains("Content-Type: application/x-ndjson"), "{head}");
        let kinds: Vec<String> = stream
            .lines()
            .map(|line| {
                let doc = Json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
                doc.get("event").unwrap().as_str().unwrap().to_string()
            })
            .collect();
        assert_eq!(kinds.first().map(String::as_str), Some("queued"), "{kinds:?}");
        assert_eq!(kinds.last().map(String::as_str), Some("done"), "{kinds:?}");
        assert!(kinds.iter().any(|k| k == "stage_started"), "{kinds:?}");
        // Unknown jobs and wrong methods answer as plain (non-chunked) errors, marked deprecated
        // exactly on the legacy spelling.
        for (prefix, deprecated) in [("/api/jobs", true), ("/api/v1/jobs", false)] {
            for (method, target, body, want) in [
                ("GET", format!("{prefix}/424242/events"), None, 404),
                ("POST", format!("{prefix}/1/events"), Some("{}"), 405),
            ] {
                let (status, head, _) =
                    client::request_with_head(handle.addr(), method, &target, body).unwrap();
                assert_eq!(status, want, "{method} {target}: {head}");
                let marks: Vec<&str> =
                    head.lines().filter(|line| line.contains("Deprecation")).collect();
                let want_marks = if deprecated { vec!["Deprecation: true"] } else { vec![] };
                assert_eq!(marks, want_marks, "{method} {target}: {head}");
            }
        }
        // Each spelling keeps its own metrics label.
        let (status, scrape) = client::get(handle.addr(), "/metrics").unwrap();
        assert_eq!(status, 200, "{scrape}");
        for path in ["/api/jobs/{id}/events", "/api/v1/jobs/{id}/events"] {
            let series = format!(
                "kronpriv_http_requests_total{{method=\"GET\",path=\"{path}\",status=\"404\"}}"
            );
            assert!(scrape.contains(&series), "no {series} in {scrape}");
        }
        handle.shutdown();
    }

    #[test]
    fn head_answers_as_get_without_content() {
        let handle = serve_ephemeral(2, 1).unwrap();
        let addr = handle.addr();
        let (status, head, body) =
            client::request_with_head(addr, "HEAD", "/healthz", None).unwrap();
        assert_eq!(status, 200, "{head}");
        assert!(head.contains("Content-Length: "), "{head}");
        assert_eq!(body, "", "HEAD /healthz carried content");
        let (_, get_body) = client::get(addr, "/nope").unwrap();
        let (status, head, body) = client::request_with_head(addr, "HEAD", "/nope", None).unwrap();
        assert_eq!(status, 404, "{head}");
        assert!(head.contains(&format!("Content-Length: {}\r\n", get_body.len())), "{head}");
        assert_eq!(body, "", "HEAD /nope carried content");
        // A live event stream: the stream's chunked head, and no chunks.
        let job = r#"{"graph": {"skg": {"theta": {"a": 0.95, "b": 0.55, "c": 0.2}, "k": 5}},
                      "params": {"epsilon": 1.0, "delta": 0.01}, "seed": 3}"#;
        let (status, submitted) = client::post_json(addr, "/api/v1/estimate", job).unwrap();
        assert_eq!(status, 202, "{submitted}");
        let id = Json::parse(&submitted).unwrap().get("job_id").unwrap().as_f64().unwrap() as u64;
        let target = format!("/api/v1/jobs/{id}/events");
        let (status, head, body) = client::request_with_head(addr, "HEAD", &target, None).unwrap();
        assert_eq!(status, 200, "{head}");
        assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
        assert_eq!(body, "", "HEAD {target} carried chunks");
        handle.shutdown();
    }

    /// Every route in both spellings, and the corner cases around them, with its metrics
    /// `path` label. A path under a known prefix keeps that prefix's skeleton even when it
    /// answers 404; only a path under no known prefix is `other`.
    const PATH_LABELS: &[(&str, &str)] = &[
        ("/healthz", "/healthz"),
        ("/healthz?verbose=1", "/healthz"),
        ("/metrics", "/metrics"),
        ("/api/v1/estimate", "/api/v1/estimate"),
        ("/api/estimate", "/api/estimate"),
        ("/api/v1/sample", "/api/v1/sample"),
        ("/api/sample", "/api/sample"),
        ("/api/v1/datasets", "/api/v1/datasets"),
        ("/api/v1/datasets/g", "/api/v1/datasets/{name}"),
        ("/api/v1/datasets/g/estimate", "/api/v1/datasets/{name}/estimate"),
        ("/api/v1/datasets/g/budget", "/api/v1/datasets/{name}/budget"),
        ("/api/v1/jobs/7", "/api/v1/jobs/{id}"),
        ("/api/jobs/7", "/api/jobs/{id}"),
        ("/api/jobs/7?verbose=1", "/api/jobs/{id}"),
        ("/api/v1/jobs/7/events", "/api/v1/jobs/{id}/events"),
        ("/api/jobs/7/events", "/api/jobs/{id}/events"),
        ("/api/v1/jobs/1/2/events", "/api/v1/jobs/{id}/events"),
        ("/api/v1/jobs//events", "/api/v1/jobs/{id}/events"),
        ("/api/v1/jobs/7/events/", "/api/v1/jobs/{id}"),
        ("/api/jobs/", "/api/jobs/{id}"),
        ("/api/v1/datasets/g/foo", "/api/v1/datasets/{name}"),
        ("/api/v1/datasets/g/x/estimate", "/api/v1/datasets/{name}/estimate"),
        ("/api/v1/datasets/g/x/budget", "/api/v1/datasets/{name}/budget"),
        ("/api/v1/datasets/estimate", "/api/v1/datasets/{name}"),
        ("/api/v1/datasets/", "/api/v1/datasets/{name}"),
        ("/api/v1/jobs", "other"),
        ("/api/jobs", "other"),
        ("/api/datasets", "other"),
        ("/api/v1/estimate/", "other"),
        ("/nope", "other"),
        ("", "other"),
    ];

    #[test]
    fn every_path_keeps_its_metrics_label() {
        for &(target, label) in PATH_LABELS {
            let (route, deprecated) = Route::parse(target);
            assert_eq!(route.label(deprecated), label, "{target:?}");
        }
    }
}
