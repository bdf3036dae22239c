//! Paired end-to-end comparison of a parent commit against the working tree, appended to
//! `BENCH_e2e.json` as one row per workload.
//!
//! ```text
//! cargo run --release -p kronpriv-bench --bin e2e_pairs -- --parent <commit>
//!     [--workloads release-k17,dataset-k14,kronfit-k14] [--out BENCH_e2e.json]
//! ```
//!
//! Run from the repository root. The parent is checked out as a detached `git worktree` under
//! `target/e2e-pairs/parent`, and the unmodified `e2e-bench` binary is built from it and from
//! the working tree into two separate target dirs under `target/e2e-pairs/`. Building rewrites
//! `e2e_bench/Cargo.lock` whenever a workspace crate's path dependencies changed, and the bench
//! directory is frozen, so the working tree's lockfile is put back afterwards, on failure too.
//!
//! Then, per workload, it makes 10 pairs of untraced runs on seed 7, alternating which side runs
//! first, so that a slow drift of the host's speed hits both sides alike. Unpaired numbers do
//! not compare on a host whose speed drifts by tens of percent between runs hours apart. The
//! run length, the end-to-end metrics and their directions, and the default workloads are read
//! from `BENCHMARK.json`.
//!
//! A row holds both commits and the `source_hash` each binary reports, the host's CPU model and
//! `available_parallelism`, the seed, seconds and pair count, per end-to-end metric the number
//! of pairs the change won, and the median and interquartile range of each side's runs. When
//! the working tree differs from `HEAD`, the change's commit is a snapshot of its tracked files
//! on top of `HEAD` (`git stash create`, which moves no ref and no file), marked `dirty`, so the
//! row still names the code that ran. A run that fails, or that reports a failed op, stops
//! `e2e_pairs` before it writes a row.

use kronpriv::kronpriv_linalg::util::{median, quantile};
use kronpriv_json::Json;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Where the parent's worktree and both target dirs live.
const WORK_DIR: &str = "target/e2e-pairs";
/// The lockfile that building the bench may rewrite.
const LOCKFILE: &str = "e2e_bench/Cargo.lock";
/// Pairs per workload: the number a speed claim is judged on.
const PAIRS: usize = 10;
/// The seed of every run.
const SEED: u64 = 7;

struct Options {
    parent: String,
    workloads: Vec<String>,
    out: PathBuf,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        parent: String::new(),
        workloads: Vec::new(),
        out: PathBuf::from("BENCH_e2e.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--parent" => options.parent = value,
            "--workloads" => options.workloads = value.split(',').map(String::from).collect(),
            "--out" => options.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if options.parent.is_empty() {
        return Err("--parent <commit> is required".to_string());
    }
    Ok(options)
}

/// Runs `git` with `args` and returns its trimmed stdout.
fn git(args: &[&str]) -> Result<String, String> {
    let output = Command::new("git").args(args).output().map_err(|e| format!("git: {e}"))?;
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!("git {} failed: {}", args.join(" "), stderr.trim()));
    }
    Ok(String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// The parent's worktree and the working tree's lockfile, both restored when dropped: the
/// worktree is removed and the lockfile bytes are written back.
struct Checkouts {
    worktree: PathBuf,
    lockfile: Vec<u8>,
}

impl Drop for Checkouts {
    fn drop(&mut self) {
        if let Err(e) = fs::write(LOCKFILE, &self.lockfile) {
            eprintln!("e2e_pairs: could not restore {LOCKFILE}: {e}");
        }
        let worktree = self.worktree.to_string_lossy();
        if let Err(e) = git(&["worktree", "remove", "--force", &worktree]) {
            eprintln!("e2e_pairs: {e}");
        }
    }
}

/// Builds the `e2e-bench` binary of the checkout at `root` into `target` and returns its path.
fn build(root: &Path, target: &Path) -> Result<PathBuf, String> {
    let manifest = root.join("e2e_bench/Cargo.toml");
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--manifest-path"])
        .arg(&manifest)
        .env("CARGO_TARGET_DIR", target)
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {} failed", manifest.display()));
    }
    Ok(target.join("release/e2e-bench"))
}

/// One run's outcome: the end-to-end metric values, in `metrics` order, and the source hash
/// and host thread count (`available_parallelism`) its record line reports.
struct Run {
    values: Vec<f64>,
    source_hash: String,
    host_threads: f64,
}

fn run(binary: &Path, workload: &str, manifest: &Manifest) -> Result<Run, String> {
    let output = Command::new(binary)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &SEED.to_string(), "--seconds", &manifest.seconds.to_string()])
        .output()
        .map_err(|e| format!("{}: {e}", binary.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().filter(|line| !line.trim().is_empty()).collect();
    let (Some(record), Some(result), true) = (lines.first(), lines.last(), output.status.success())
    else {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!("{} {workload} failed: {}", binary.display(), stderr.trim()));
    };
    let parse = |line: &str| Json::parse(line).map_err(|e| format!("unparsable line: {e}"));
    let (record, result) = (parse(record)?, parse(result)?);
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{} {workload} reported failed ops: {result}", binary.display()));
    }
    let values = manifest
        .metrics
        .iter()
        .map(|m| {
            let value = result.get("metrics").and_then(|all| all.get(&m.name));
            value
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{} {workload}: no metric {}", binary.display(), m.name))
        })
        .collect::<Result<_, _>>()?;
    let source_hash = record.get("source_hash").and_then(Json::as_str).unwrap_or("").to_string();
    let host_threads = record.get("host_threads").and_then(Json::as_f64).unwrap_or(0.0);
    Ok(Run { values, source_hash, host_threads })
}

/// An end-to-end metric of `BENCHMARK.json`.
struct Metric {
    name: String,
    lower_is_better: bool,
}

/// What `BENCHMARK.json` fixes for every run.
struct Manifest {
    metrics: Vec<Metric>,
    workloads: Vec<String>,
    /// `run_seconds`, the length of one run.
    seconds: f64,
}

fn manifest() -> Result<Manifest, String> {
    let text = fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let manifest = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| manifest.get(key).and_then(Json::as_array).unwrap_or_default();
    let metrics: Vec<Metric> = list("end_to_end")
        .iter()
        .filter_map(|m| {
            Some(Metric {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
            })
        })
        .collect();
    if metrics.is_empty() {
        return Err("BENCHMARK.json lists no end_to_end metrics".to_string());
    }
    let seconds = manifest.get("run_seconds").and_then(Json::as_f64).filter(|&s| s > 0.0);
    let workloads = list("workloads").iter();
    Ok(Manifest {
        metrics,
        workloads: workloads.filter_map(|w| w.get("name")?.as_str().map(String::from)).collect(),
        seconds: seconds.ok_or("BENCHMARK.json has no positive run_seconds")?,
    })
}

/// The first `model name` of `/proc/cpuinfo`, or `unknown`.
fn cpu_model() -> String {
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = info.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    });
    model.unwrap_or_else(|| "unknown".to_string())
}

fn object(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// One side's metric summaries: `{metric: {median, iqr}}` over its runs.
fn summaries(metrics: &[Metric], runs: &[Run]) -> Json {
    let fields = metrics.iter().enumerate().map(|(i, m)| {
        let values: Vec<f64> = runs.iter().map(|r| r.values[i]).collect();
        let iqr = quantile(&values, 0.75) - quantile(&values, 0.25);
        let summary =
            object(vec![("median", Json::Number(median(&values))), ("iqr", Json::Number(iqr))]);
        (m.name.clone(), summary)
    });
    Json::Object(fields.collect())
}

fn main() -> ExitCode {
    match drive() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e_pairs: {e}");
            ExitCode::FAILURE
        }
    }
}

fn drive() -> Result<(), String> {
    let mut options = parse_args()?;
    let manifest = manifest()?;
    let metrics = &manifest.metrics;
    if options.workloads.is_empty() {
        options.workloads = manifest.workloads.clone();
    }
    // The rows already recorded, read first so that a bad file costs no runs.
    let out = options.out.display();
    let mut all = match fs::read_to_string(&options.out) {
        Ok(text) => match Json::parse(&text) {
            Ok(Json::Array(rows)) => rows,
            _ => return Err(format!("{out} is not a JSON array")),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{out}: {e}")),
    };
    let parent = git(&["rev-parse", "--verify", &format!("{}^{{commit}}", options.parent)])?;
    let snapshot = git(&["stash", "create"])?;
    let dirty = !snapshot.is_empty();
    let change = if dirty { snapshot } else { git(&["rev-parse", "HEAD"])? };

    let work = std::env::current_dir().map_err(|e| e.to_string())?.join(WORK_DIR);
    let worktree = work.join("parent");
    if worktree.exists() {
        // Left behind by an interrupted run.
        let _ = git(&["worktree", "remove", "--force", &worktree.to_string_lossy()]);
        let _ = fs::remove_dir_all(&worktree);
        git(&["worktree", "prune"])?;
    }
    let lockfile = fs::read(LOCKFILE).map_err(|e| format!("{LOCKFILE}: {e}"))?;
    git(&["worktree", "add", "--detach", &worktree.to_string_lossy(), &parent])?;
    let checkouts = Checkouts { worktree, lockfile };
    let binaries = [
        build(&checkouts.worktree, &work.join("parent-target"))?,
        build(Path::new("."), &work.join("change-target"))?,
    ];
    fs::write(LOCKFILE, &checkouts.lockfile).map_err(|e| format!("{LOCKFILE}: {e}"))?;

    // The metric each pair's progress line shows.
    let shown = metrics.iter().position(|m| m.name == "op_ms_p50").unwrap_or(0);
    let mut rows = Vec::new();
    for workload in &options.workloads {
        // runs[0] are the parent's, runs[1] the change's, in pair order.
        let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
        for pair in 0..PAIRS {
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                runs[side].push(run(&binaries[side], workload, &manifest)?);
            }
            eprintln!(
                "{workload} pair {}/{}: {} parent {:.3}, change {:.3}",
                pair + 1,
                PAIRS,
                metrics[shown].name,
                runs[0][pair].values[shown],
                runs[1][pair].values[shown]
            );
        }
        let wins = metrics.iter().enumerate().map(|(i, m)| {
            let won = runs[0].iter().zip(&runs[1]).filter(|(p, c)| match m.lower_is_better {
                true => c.values[i] < p.values[i],
                false => c.values[i] > p.values[i],
            });
            (m.name.clone(), Json::Number(won.count() as f64))
        });
        let side = |commit: &str, index: usize, extra: Vec<(&str, Json)>| {
            let mut fields = vec![("commit", Json::String(commit.to_string()))];
            fields.extend(extra);
            fields.push(("source_hash", Json::String(runs[index][0].source_hash.clone())));
            fields.push(("metrics", summaries(metrics, &runs[index])));
            object(fields)
        };
        let row = object(vec![
            ("workload", Json::String(workload.clone())),
            ("cpu_model", Json::String(cpu_model())),
            ("available_parallelism", Json::Number(runs[1][0].host_threads)),
            ("seed", Json::Number(SEED as f64)),
            ("seconds", Json::Number(manifest.seconds)),
            ("pairs", Json::Number(PAIRS as f64)),
            ("parent", side(&parent, 0, Vec::new())),
            ("change", side(&change, 1, vec![("dirty", Json::Bool(dirty))])),
            ("change_wins", Json::Object(wins.collect())),
        ]);
        println!("{row}");
        rows.push(row);
    }
    drop(checkouts);

    all.extend(rows);
    let text = Json::Array(all).to_pretty_string() + "\n";
    fs::write(&options.out, text).map_err(|e| format!("{out}: {e}"))
}
