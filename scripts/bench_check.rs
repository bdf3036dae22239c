//! CI bench-regression guard: compares a fresh `BENCH_kernels.json` against the committed
//! `BENCH_baseline.json` and fails (exit 1) when any kernel's ns/op regressed by more than the
//! allowed ratio, then prints a one-line 1T-vs-4T scaling summary and — on hosts with at least
//! 4 hardware threads — enforces the scaling contract of the executor: no kernel
//! may be slower at 4 threads than at 1 by more than 10%, and the node-partitioned counting
//! kernels (`smooth_sensitivity`, `per_node_triangles`) at the ~10^5-node scale must reach at
//! least a 1.5× speedup at 4 threads. On smaller hosts (CI runners with 1–2 cores) the
//! scaling gates are skipped with a note — 4 threads time-slicing fewer cores measure OS
//! scheduling, not the executor.
//!
//! Invoked as `cargo run -p kronpriv-bench --bin bench_check` (the source lives in `scripts/`,
//! next to `verify.sh`, which wires it into the `--quick` CI job right after the kernel bench
//! writes the fresh records). Records are matched on `(kernel, nodes, threads)`; fresh records
//! with no baseline entry pass with a note (refresh the baseline to start guarding them), and
//! baseline entries that disappeared are reported so stale baselines are visible.
//!
//! Beyond the per-kernel regression ratio, the guard enforces the **instrumentation-overhead
//! gate**: the committed baseline was captured before the `kronpriv-obs` spans and counters
//! were threaded through the kernels, so the *median* ratio of fresh-to-baseline ns/op across
//! all single-threaded records bounds what observability costs the compute path. The median
//! (not the max) is gated because individual micro-bench cells jitter by more than the 5%
//! budget on shared CI hosts; a systematic cost shows up in the median, noise does not.
//! On top of that, the gate is **load-normalized**: the matrix brackets its run with two
//! `calibration`/`calibration_end` cells — a fixed pure-CPU workload with no kernel code and
//! no instrumentation — whose fresh-vs-baseline ratios measure only how fast the host is
//! running right now relative to when the baseline was captured. Dividing every 1-thread
//! ratio by the larger of the two cancels host-load drift (shared runners wander ±10% over
//! minutes, which would otherwise swamp a 5% budget) while leaving a real instrumentation
//! cost fully visible.
//!
//! Usage:
//!
//! ```text
//! bench_check [--baseline PATH] [--fresh PATH] [--max-ratio R] [--overhead-ratio R]
//! ```
//!
//! Defaults: `BENCH_baseline.json`, `BENCH_kernels.json`, ratio 2.0, overhead ratio 1.05
//! (override the latter default with the `BENCH_OVERHEAD_RATIO` environment variable). To
//! refresh the baseline after an intentional change, run the quick kernel bench and copy the
//! fresh records: `cp BENCH_kernels.json BENCH_baseline.json`.

use kronpriv_json::impl_json_struct;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One measurement row of `BENCH_kernels.json` / `BENCH_baseline.json`.
#[derive(Debug, Clone, PartialEq)]
struct BenchRecord {
    kernel: String,
    nodes: f64,
    threads: f64,
    ns_per_op: f64,
}

impl_json_struct!(BenchRecord { kernel, nodes, threads, ns_per_op });

/// The match key: a kernel measured at a given input size and thread count.
fn key(r: &BenchRecord) -> (String, u64, u64) {
    (r.kernel.clone(), r.nodes as u64, r.threads as u64)
}

fn load(path: &str) -> Result<Vec<BenchRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    kronpriv_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let flag =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let baseline_path = flag("--baseline").unwrap_or_else(|| "BENCH_baseline.json".to_string());
    let fresh_path = flag("--fresh").unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let max_ratio: f64 = match flag("--max-ratio").map(|r| r.parse()) {
        None => 2.0,
        Some(Ok(r)) if r > 1.0 => r,
        Some(_) => {
            eprintln!("--max-ratio: expected a number > 1");
            return ExitCode::FAILURE;
        }
    };
    let overhead_default = std::env::var("BENCH_OVERHEAD_RATIO")
        .ok()
        .and_then(|r| r.parse::<f64>().ok())
        .filter(|r| *r > 1.0)
        .unwrap_or(1.05);
    let overhead_ratio: f64 = match flag("--overhead-ratio").map(|r| r.parse()) {
        None => overhead_default,
        Some(Ok(r)) if r > 1.0 => r,
        Some(_) => {
            eprintln!("--overhead-ratio: expected a number > 1");
            return ExitCode::FAILURE;
        }
    };

    let (baseline, fresh) = match (load(&baseline_path), load(&fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for err in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("bench_check: {err}");
            }
            return ExitCode::FAILURE;
        }
    };
    let baseline_by_key: BTreeMap<_, f64> =
        baseline.iter().map(|r| (key(r), r.ns_per_op)).collect();
    let fresh_keys: Vec<_> = fresh.iter().map(key).collect();

    println!(
        "{:<24} {:>8} {:>8} {:>14} {:>14} {:>7}  status",
        "kernel", "nodes", "threads", "baseline ns", "fresh ns", "ratio"
    );
    let mut regressions = 0usize;
    let mut unguarded = 0usize;
    for r in &fresh {
        match baseline_by_key.get(&key(r)) {
            Some(&base) => {
                // A baseline of 0 ns would make every ratio infinite; treat sub-ns baselines
                // as 1 ns (the harness never reports 0 for real kernels). The calibration
                // cell measures the host, not a kernel — report it, never gate on it.
                let ratio = r.ns_per_op / base.max(1.0);
                let regressed = ratio > max_ratio && !r.kernel.starts_with("calibration");
                if regressed {
                    regressions += 1;
                }
                println!(
                    "{:<24} {:>8} {:>8} {:>14.0} {:>14.0} {:>6.2}x  {}",
                    r.kernel,
                    r.nodes as u64,
                    r.threads as u64,
                    base,
                    r.ns_per_op,
                    ratio,
                    if regressed { "REGRESSED" } else { "ok" }
                );
            }
            None => {
                unguarded += 1;
                println!(
                    "{:<24} {:>8} {:>8} {:>14} {:>14.0} {:>7}  new (no baseline)",
                    r.kernel, r.nodes as u64, r.threads as u64, "-", r.ns_per_op, "-"
                );
            }
        }
    }
    let stale: Vec<_> =
        baseline.iter().filter(|r| !fresh_keys.contains(&key(r))).map(key).collect();
    for (kernel, nodes, threads) in &stale {
        println!("{kernel:<24} {nodes:>8} {threads:>8} — in baseline but not measured (stale)");
    }

    if unguarded > 0 {
        println!(
            "note: {unguarded} record(s) have no baseline; refresh BENCH_baseline.json \
             (cp BENCH_kernels.json BENCH_baseline.json) to start guarding them"
        );
    }

    // Instrumentation-overhead gate: the median fresh/baseline ratio across the 1-thread
    // records, divided by the calibration cell's ratio (pure host-speed drift), bounds what
    // the always-on spans and counters cost the serial compute path.
    // Two calibration cells bracket the matrix (first and last); normalizing by the *larger*
    // of their fresh/baseline ratios means load arriving at any point during the run is
    // caught by whichever sample saw it. Instrumentation cannot hide behind this: the
    // calibration loop carries none, so its ratio moves only with the host.
    let calibration_ratio = |cell: &str| {
        let ns = |records: &[BenchRecord]| {
            records
                .iter()
                .find(|r| r.kernel == cell && r.threads as u64 == 1)
                .map(|r| r.ns_per_op.max(1.0))
        };
        match (ns(&fresh), ns(&baseline)) {
            (Some(f), Some(b)) => Some(f / b),
            _ => None,
        }
    };
    let load_scale = ["calibration", "calibration_end"]
        .iter()
        .filter_map(|cell| calibration_ratio(cell))
        .fold(f64::NAN, f64::max);
    let load_scale = if load_scale.is_finite() {
        load_scale
    } else {
        println!("note: no shared calibration cell — overhead gate is not load-normalized");
        1.0
    };
    let mut one_thread_ratios: Vec<f64> = fresh
        .iter()
        .filter(|r| r.threads as u64 == 1 && !r.kernel.starts_with("calibration"))
        .filter_map(|r| {
            baseline_by_key.get(&key(r)).map(|&base| r.ns_per_op / base.max(1.0) / load_scale)
        })
        .collect();
    let mut overhead_failure = false;
    if one_thread_ratios.is_empty() {
        println!("note: overhead gate skipped — no 1-thread records shared with the baseline");
    } else {
        one_thread_ratios.sort_by(|a, b| a.total_cmp(b));
        let median = one_thread_ratios[one_thread_ratios.len() / 2];
        println!(
            "instrumentation overhead: median 1T ratio {median:.3}x over {} record(s), \
             load-normalized by {load_scale:.3}x (limit {overhead_ratio:.2}x)",
            one_thread_ratios.len()
        );
        if median > overhead_ratio {
            overhead_failure = true;
            eprintln!(
                "bench_check: single-threaded kernels run a median {:.1}% slower than the \
                 pre-instrumentation baseline after load normalization (budget: {:.1}%) — \
                 observability must stay off the hot path",
                (median - 1.0) * 100.0,
                (overhead_ratio - 1.0) * 100.0
            );
        }
    }

    // 1T-vs-4T scaling: summary line always, hard gates only where 4 workers can actually run
    // in parallel.
    let mut t1: BTreeMap<(String, u64), f64> = BTreeMap::new();
    let mut t4: BTreeMap<(String, u64), f64> = BTreeMap::new();
    for r in &fresh {
        let cell = (r.kernel.clone(), r.nodes as u64);
        match r.threads as u64 {
            1 => {
                t1.insert(cell, r.ns_per_op);
            }
            4 => {
                t4.insert(cell, r.ns_per_op);
            }
            _ => {}
        }
    }
    let speedups: Vec<((String, u64), f64)> = t1
        .iter()
        .filter_map(|(cell, &one)| t4.get(cell).map(|&four| (cell.clone(), one / four.max(1.0))))
        .collect();
    let summary: Vec<String> =
        speedups.iter().map(|((kernel, nodes), s)| format!("{kernel}@{nodes} {s:.2}x")).collect();
    println!("scaling 1T->4T: {}", summary.join(", "));

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut scaling_failures = 0usize;
    if cores >= 4 {
        for ((kernel, nodes), speedup) in &speedups {
            if *speedup < 1.0 / 1.10 {
                scaling_failures += 1;
                eprintln!(
                    "bench_check: {kernel}@{nodes} is {:.0}% slower at 4T than 1T \
                     (limit: 10%)",
                    (1.0 / speedup - 1.0) * 100.0
                );
            }
            let gated_kernel = kernel == "smooth_sensitivity" || kernel == "per_node_triangles";
            if gated_kernel && *nodes >= 100_000 && *speedup < 1.5 {
                scaling_failures += 1;
                eprintln!(
                    "bench_check: {kernel}@{nodes} reaches only {speedup:.2}x at 4T vs 1T \
                     (required: >=1.5x at the ~10^5-node scale)"
                );
            }
        }
    } else if !speedups.is_empty() {
        println!(
            "note: scaling gates skipped — host has {cores} hardware thread(s), \
             4 threads cannot run in parallel here"
        );
    }

    if scaling_failures > 0 {
        eprintln!("bench_check: {scaling_failures} scaling gate(s) failed on a {cores}-core host");
        return ExitCode::FAILURE;
    }
    if regressions > 0 {
        eprintln!(
            "bench_check: {regressions} kernel(s) regressed by more than {max_ratio}x vs \
             {baseline_path}; if intentional, refresh the baseline and commit it"
        );
        return ExitCode::FAILURE;
    }
    if overhead_failure {
        return ExitCode::FAILURE;
    }
    println!(
        "bench_check: ok ({} records within {max_ratio}x of baseline, \
         median 1T overhead within {overhead_ratio:.2}x)",
        fresh.len()
    );
    ExitCode::SUCCESS
}
