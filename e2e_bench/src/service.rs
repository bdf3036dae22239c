//! `dataset-k14` and `kronfit-k14`: closed-loop clients against an in-process server.
//!
//! One op is `POST` (submit) until the `202`, then `GET /api/v1/jobs/{id}/events` followed to
//! the terminal event. Each event line is timestamped when it reaches the client, so a
//! segment includes its delivery; events the job emitted before the stream attached arrive
//! together, and their gaps fold into `jobs.start_ms`.

use crate::check::{self, Tally};
use crate::input::{op_seed, skg_edge_list, EdgeListInput};
use crate::trace::{ms, stage_layers, Layers, Mark};
use crate::{measure, object, OpSample, Outcome, Phase, RunConfig};
use crate::{Workload, THETA, THREADS};
use kronpriv::kronpriv_dp::PrivacyParams;
use kronpriv::kronpriv_estimate::{kronecker_order_for, KronFitOptions, PrivateEstimatorOptions};
use kronpriv::kronpriv_graph::io::parse_edge_list_reader;
use kronpriv::kronpriv_graph::Graph;
use kronpriv::kronpriv_par::Executor;
use kronpriv::try_private_estimate_on;
use kronpriv_json::{Json, ToJson};
use kronpriv_server::{client, serve, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The dataset every `dataset-k14` job draws from.
const DATASET: &str = "k14";
/// One dataset draw: ε as in the paper, δ below 1/n.
const DRAW: (f64, f64) = (0.2, 1e-6);
/// The dataset's lifetime budget: room for every draw of a run, so no job is refused.
const LIMIT: (f64, f64) = (1e9, 0.9);
/// Dataset jobs whose result is compared bit for bit with an in-process estimate.
const BIT_EQUAL_OPS: u64 = 3;

/// The KronFit baseline configuration of `kronfit-k14`.
fn kronfit_options() -> KronFitOptions {
    KronFitOptions {
        chains: 4,
        gradient_steps: 5,
        warmup_swaps: 2000,
        samples_per_step: 2,
        swaps_between_samples: 500,
        ..KronFitOptions::default()
    }
}

/// A fresh directory for one run's server data dirs, inside the build directory of the
/// checkout (unique per process and call, so concurrent tests never share one).
pub fn data_root() -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let call = CALLS.fetch_add(1, Ordering::SeqCst);
    target.join("e2e-data").join(format!("{}-{call}", std::process::id()))
}

/// Boots the server on `dir`: 2 HTTP workers, 2 job workers and a 2-thread compute pool.
pub fn boot(dir: &Path) -> io::Result<ServerHandle> {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: THREADS,
        job_workers: THREADS,
        compute_threads: THREADS,
        data_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
}

/// Uploads the dataset with its budget.
pub fn upload(addr: SocketAddr, input: &EdgeListInput) -> Result<(), String> {
    let budget = object(&[("epsilon", Json::Number(LIMIT.0)), ("delta", Json::Number(LIMIT.1))]);
    let body = object(&[
        ("name", Json::String(DATASET.to_string())),
        ("edge_list", Json::String(input.text.clone())),
        ("budget", budget),
    ]);
    match client::post_json(addr, "/api/v1/datasets", &body.to_compact_string()) {
        Ok((201, _)) => Ok(()),
        Ok((status, text)) => Err(format!("dataset upload answered {status}: {text}")),
        Err(e) => Err(format!("dataset upload failed: {e}")),
    }
}

/// The route and request body of one job.
pub fn request(workload: Workload, order: u32, seed: u64) -> (String, String) {
    let seed_json = Json::Number(seed as f64);
    match workload {
        Workload::KronfitK14 => {
            let theta = object(&[
                ("a", Json::Number(THETA[0])),
                ("b", Json::Number(THETA[1])),
                ("c", Json::Number(THETA[2])),
            ]);
            let skg = object(&[("theta", theta), ("k", Json::Number(order as f64))]);
            let body = object(&[
                ("graph", object(&[("skg", skg)])),
                ("estimator", Json::String("kronfit".to_string())),
                ("seed", seed_json),
                ("kronfit", kronfit_options().to_json()),
            ]);
            ("/api/v1/estimate".to_string(), body.to_compact_string())
        }
        _ => {
            let params =
                object(&[("epsilon", Json::Number(DRAW.0)), ("delta", Json::Number(DRAW.1))]);
            let body = object(&[("params", params), ("seed", seed_json)]);
            (format!("/api/v1/datasets/{DATASET}/estimate"), body.to_compact_string())
        }
    }
}

/// The initiator the library releases for a dataset job: the same input, seed, draw and
/// options as the server's job, through `try_private_estimate_on`.
pub fn library_theta(graph: &Graph, seed: u64, exec: &Executor) -> Result<[f64; 3], String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = PrivacyParams::new(DRAW.0, DRAW.1);
    try_private_estimate_on(graph, params, &PrivateEstimatorOptions::default(), &mut rng, exec)
        .map(|estimate| estimate.fit.theta.as_array())
        .map_err(|e| e.to_string())
}

/// A finished job: its timing sample, its terminal line and the initiator it released.
pub struct JobDone {
    /// Submit-to-terminal time and, when traced, the per-layer split.
    pub sample: OpSample,
    /// The terminal `/events` line, carrying the result document.
    pub terminal: String,
    /// The result initiator.
    pub theta: [f64; 3],
}

/// Submits one job, follows it to its terminal event and judges the result.
pub fn job_op(
    addr: SocketAddr,
    workload: Workload,
    k: u32,
    seed: u64,
    traced: bool,
) -> Result<JobDone, String> {
    let (path, body) = request(workload, k, seed);
    let started = Instant::now();
    let (status, reply) = client::post_json(addr, &path, &body).map_err(|e| e.to_string())?;
    let accepted = Instant::now();
    if status != 202 {
        return Err(format!("submit answered {status}: {reply}"));
    }
    let id = Json::parse(&reply)
        .ok()
        .and_then(|doc| doc.get("job_id").and_then(Json::as_f64))
        .ok_or_else(|| format!("submit reply without a job id: {reply}"))?;
    let lines = follow_events(addr, id as u64).map_err(|e| format!("event stream: {e}"))?;
    let (ended, terminal) = lines.last().cloned().ok_or("empty event stream")?;
    let theta = check::judge_terminal(&terminal, seed, k)?;
    let total = ms(started, ended);

    let mut layers = Layers::new();
    if traced {
        let marks: Vec<(Instant, Mark)> = lines
            .iter()
            .map(|(at, line)| (*at, Json::parse(line).map_or(Mark::Other, |d| Mark::of_event(&d))))
            .collect();
        let running = marks.iter().find(|(_, m)| *m == Mark::Running).map_or(accepted, |m| m.0);
        let submit = ms(started, accepted);
        let start = ms(accepted, running);
        layers.insert("http.submit_ms", submit);
        layers.insert("jobs.start_ms", start);
        layers.insert("http.result_bytes", terminal.len() as f64);
        let mut covered = submit + start;
        if let Some((stages, first, last)) = stage_layers(&marks, &mut layers) {
            let before_stages = match workload {
                Workload::KronfitK14 => "skg.realize_ms",
                _ => "graph.materialize_ms",
            };
            layers.insert(before_stages, ms(running, first));
            layers.insert("jobs.finish_ms", ms(last, ended));
            covered += ms(running, first) + stages + ms(last, ended);
        }
        layers.insert("trace.coverage_frac", covered / total);
    }
    Ok(JobDone { sample: OpSample { ms: total, traced, layers }, terminal, theta })
}

/// Follows `/api/v1/jobs/{id}/events` to the end of the stream, returning every NDJSON line
/// with the time the read that completed it returned.
fn follow_events(addr: SocketAddr, id: u64) -> io::Result<Vec<(Instant, String)>> {
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    write!(
        stream,
        "GET /api/v1/jobs/{id}/events HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw: Vec<u8> = Vec::new();
    let mut in_body = false;
    let mut cursor = 0;
    let mut line = Vec::new();
    let mut lines = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(invalid("the stream closed before its last chunk"));
        }
        let now = Instant::now();
        raw.extend_from_slice(&buf[..n]);
        if !in_body {
            let Some(end) = raw.windows(4).position(|w| w == b"\r\n\r\n") else { continue };
            if !raw.starts_with(b"HTTP/1.1 200 ") {
                return Err(invalid(&String::from_utf8_lossy(&raw[..end])));
            }
            in_body = true;
            cursor = end + 4;
        }
        // Decode every complete chunk: a hex size line, the payload, CRLF.
        while let Some(eol) = raw[cursor..].windows(2).position(|w| w == b"\r\n") {
            let size_line = std::str::from_utf8(&raw[cursor..cursor + eol]).unwrap_or("");
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| invalid("malformed chunk size"))?;
            if size == 0 {
                return Ok(lines);
            }
            let payload = cursor + eol + 2;
            if raw.len() < payload + size + 2 {
                break;
            }
            for &byte in &raw[payload..payload + size] {
                if byte == b'\n' {
                    lines.push((now, String::from_utf8_lossy(&line).into_owned()));
                    line.clear();
                } else {
                    line.push(byte);
                }
            }
            cursor = payload + size + 2;
        }
    }
}

/// When a group of clients stops starting ops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After this many ops in total.
    Count(usize),
    /// At the deadline once `min_ops` have completed (and at `hard` regardless).
    Time { deadline: Instant, min_ops: usize, hard: Instant },
}

/// A completed op with the seed it ran under.
struct Record {
    client: u64,
    index: u64,
    seed: u64,
    done: JobDone,
}

/// Runs [`THREADS`] closed-loop clients until `stop`; client `c` uses the seeds of
/// `(seed_base + c, i)`. Traced runs trace every second op of each client.
fn drive(
    addr: SocketAddr,
    cfg: &RunConfig,
    k: u32,
    seed_base: u64,
    stop: Stop,
    trace: bool,
) -> (Vec<Record>, Tally) {
    let started = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let tally = Mutex::new(Tally::default());
    let records = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client in 0..THREADS as u64 {
            let (started, completed, tally, records) = (&started, &completed, &tally, &records);
            scope.spawn(move || {
                for index in 0u64.. {
                    let go = match stop {
                        Stop::Count(n) => started.fetch_add(1, Ordering::SeqCst) < n,
                        Stop::Time { deadline, min_ops, hard } => {
                            let now = Instant::now();
                            now < hard
                                && (now < deadline || completed.load(Ordering::SeqCst) < min_ops)
                        }
                    };
                    if !go {
                        break;
                    }
                    let seed = op_seed(cfg.seed, seed_base + client, index);
                    let traced = trace && index % 2 == 1;
                    let outcome = job_op(addr, cfg.workload, k, seed, traced);
                    let done = tally.lock().expect("tally poisoned").record(outcome);
                    if let Some(done) = done {
                        completed.fetch_add(1, Ordering::SeqCst);
                        let record = Record { client: seed_base + client, index, seed, done };
                        records.lock().expect("records poisoned").push(record);
                    }
                }
            });
        }
    });
    let records = records.into_inner().expect("records poisoned");
    (records, tally.into_inner().expect("tally poisoned"))
}

/// Runs a server workload: `setup_reps` set-ups (a server booted on an empty data dir, the
/// dataset upload, the first job), an untimed warm-up, the timed phase, then the checks that
/// need the server (a repeated seed reproduces its result bytes) and the in-process
/// bit-equality checks.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    // Only the dataset workload has an edge-list input; KronFit jobs carry an SKG spec that
    // the server realizes.
    let input = (cfg.workload == Workload::DatasetK14).then(|| skg_edge_list(cfg.order, cfg.seed));
    let k = input.as_ref().map_or(cfg.order, |input| kronecker_order_for(input.nodes));
    let root = data_root();
    let outcome = run_in(cfg, input.as_ref(), k, &root);
    let _ = std::fs::remove_dir_all(&root);
    outcome
}

fn run_in(
    cfg: &RunConfig,
    input: Option<&EdgeListInput>,
    k: u32,
    root: &Path,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut server = None;
    for rep in 0..cfg.setup_reps as u64 {
        let dir = root.join(format!("setup-{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("data dir {}: {e}", dir.display()))?;
        let started = Instant::now();
        let handle = boot(&dir).map_err(|e| format!("server boot: {e}"))?;
        if let Some(input) = input {
            upload(handle.addr(), input)?;
        }
        tally.record(job_op(
            handle.addr(),
            cfg.workload,
            k,
            op_seed(cfg.seed, 1000 + rep, 0),
            false,
        ));
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some((old, old_dir)) = server.replace((handle, dir)) {
            old.shutdown();
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    let (handle, _) = server.ok_or("at least one set-up is required")?;
    let addr = handle.addr();

    let (_, warmup) = drive(addr, cfg, k, 2000, Stop::Count(cfg.warmup_ops), false);
    tally.absorb(warmup);

    let before = cfg.trace.then(measure::counters);
    let cpu_before = measure::process_cpu_ms();
    let started = Instant::now();
    let stop = Stop::Time {
        deadline: started + Duration::from_secs_f64(cfg.seconds),
        min_ops: cfg.min_ops,
        hard: cfg.hard_stop(started),
    };
    let (mut records, timed) = drive(addr, cfg, k, 0, stop, cfg.trace);
    let mut phase = Phase {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_ms: measure::process_cpu_ms() - cpu_before,
        ..Phase::default()
    };
    if let Some(before) = before {
        phase.counters = measure::delta(&before, &measure::counters());
    }
    tally.absorb(timed);
    records.sort_by_key(|r| (r.client, r.index));

    // A repeated seed must reproduce the result document byte for byte.
    if let Some(first) = records.first() {
        tally.record(job_op(addr, cfg.workload, k, first.seed, false).and_then(|again| {
            (again.terminal == first.done.terminal)
                .then_some(())
                .ok_or_else(|| format!("seed {} gave another result document", first.seed))
        }));
    }
    handle.shutdown();

    // The service's release must be bit-equal to the library's on the same input and seed.
    if let Some(input) = input {
        let graph = parse_edge_list_reader(input.text.as_bytes()).map_err(|e| e.to_string())?;
        let exec = Executor::new(THREADS);
        for record in records.iter().filter(|r| r.client == 0 && r.index < BIT_EQUAL_OPS) {
            tally.record(library_theta(&graph, record.seed, &exec).and_then(|local| {
                check::same_bits("service vs library", record.done.theta, local)
            }));
        }
    }

    phase.ops = records.into_iter().map(|r| r.done.sample).collect();
    let metrics = phase.metrics(cfg, &setup_s)?;
    let threads = object(&[
        ("client_threads", Json::Number(THREADS as f64)),
        ("connections", Json::Number(THREADS as f64)),
        ("http_workers", Json::Number(THREADS as f64)),
        ("job_workers", Json::Number(THREADS as f64)),
        ("compute_threads", Json::Number(THREADS as f64)),
    ]);
    let input = match input {
        Some(input) => input.record(k),
        None => {
            let (_, body) = request(cfg.workload, k, 0);
            let hash = crate::input::fnv1a(crate::input::FNV_OFFSET, body.as_bytes());
            object(&[
                ("request_seed_0", Json::String(body)),
                ("hash", Json::String(format!("{hash:016x}"))),
            ])
        }
    };
    let context = vec![
        ("input", input),
        ("threads", threads),
        ("warmup_ops", Json::Number(cfg.warmup_ops as f64)),
        ("timed_ops", Json::Number(phase.ops.len() as f64)),
    ];
    Ok(Outcome { tally, metrics, context })
}
