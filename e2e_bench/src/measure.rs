//! Measurement helpers: order statistics, process counters from `/proc/self`, counter deltas
//! from the metrics registry, and the identity of the code under test.

use crate::input::{fnv1a, FNV_OFFSET};
use kronpriv::kronpriv_obs::Registry;
use std::fs;
use std::path::Path;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation between order
/// statistics; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// User plus system CPU time of the whole process so far, in milliseconds, from the `utime`
/// and `stime` fields of `/proc/self/stat` (clock ticks of 10 ms on Linux).
pub fn process_cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; the fields after its closing parenthesis start at
    // field 3 (`state`), so `utime` (field 14) and `stime` (field 15) are at offsets 11 and 12.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) * 10.0
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads of the host, as the standard library reports them.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The registry series each counter-derived per-layer metric is read from:
/// `(metric, series, required label, scale)`. Every matching sample is summed.
const COUNTER_SERIES: [(&str, &str, &str, f64); 7] = [
    ("par.pooled_calls", "kronpriv_par_calls_total", "mode=\"pooled\"", 1.0),
    ("par.inline_calls", "kronpriv_par_calls_total", "mode=\"inline\"", 1.0),
    ("par.worker_busy_ms", "kronpriv_par_worker_busy_ns_total", "", 1e-6),
    ("par.queue_wait_ms", "kronpriv_par_queue_wait_ns_sum", "", 1e-6),
    ("store.records_per_op", "kronpriv_store_records_total", "", 1.0),
    ("store.snapshots_per_op", "kronpriv_store_snapshots_total", "", 1.0),
    ("ledger.debits_per_op", "kronpriv_ledger_debits_total", "", 1.0),
];

/// The counter-derived per-layer metrics, read from a Prometheus text exposition.
pub fn counters_from(exposition: &str) -> Vec<(&'static str, f64)> {
    COUNTER_SERIES
        .iter()
        .map(|&(metric, series, label, scale)| {
            let total: f64 = exposition
                .lines()
                .filter(|line| !line.starts_with('#'))
                .filter_map(|line| line.rsplit_once(' '))
                .filter(|(key, _)| {
                    let (name, labels) = key.split_once('{').unwrap_or((key, ""));
                    name == series && labels.contains(label)
                })
                .filter_map(|(_, value)| value.parse::<f64>().ok())
                .sum();
            (metric, total * scale)
        })
        .collect()
}

/// The counter-derived per-layer metrics of this process right now.
pub fn counters() -> Vec<(&'static str, f64)> {
    counters_from(&Registry::global().render())
}

/// `after − before`, counter by counter.
pub fn delta(
    before: &[(&'static str, f64)],
    after: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    after.iter().zip(before).map(|(&(name, a), &(_, b))| (name, a - b)).collect()
}

/// The commit checked out at `root`, read from `.git` without running `git`; `None` outside a
/// git checkout.
pub fn git_commit(root: &Path) -> Option<String> {
    let head = fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(root.join(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(root.join(".git/packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        line.strip_suffix(reference).map(|id| id.trim().to_string()).filter(|id| !id.is_empty())
    })
}

/// FNV-1a over the relative paths and contents of every `.rs` and `.toml` file under
/// `root/crates`, in sorted path order: identifies the program even where there is no git
/// metadata. `None` when the directory is missing.
pub fn source_hash(root: &Path) -> Option<String> {
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).ok()? {
            let path = entry.ok()?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut hash = FNV_OFFSET;
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        hash = fnv1a(hash, rel.to_string_lossy().as_bytes());
        hash = fnv1a(hash, &fs::read(path).ok()?);
    }
    Some(format!("{hash:016x}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&values), 3.0);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 5.0);
        assert!((quantile(&values, 0.9) - 4.6).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn counters_sum_matching_series_only() {
        let text = "# TYPE kronpriv_par_calls_total counter\n\
                    kronpriv_par_calls_total{mode=\"inline\",work=\"light\"} 3\n\
                    kronpriv_par_calls_total{mode=\"pooled\",work=\"heavy\"} 2\n\
                    kronpriv_par_calls_total{mode=\"pooled\",work=\"light\"} 5\n\
                    kronpriv_par_queue_wait_ns_sum 2500000\n\
                    kronpriv_par_queue_wait_ns_count 9\n\
                    kronpriv_store_records_total 12\n";
        let got = counters_from(text);
        let get = |name: &str| got.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("par.pooled_calls"), 7.0);
        assert_eq!(get("par.inline_calls"), 3.0);
        assert_eq!(get("par.queue_wait_ms"), 2.5);
        assert_eq!(get("store.records_per_op"), 12.0);
        assert_eq!(get("ledger.debits_per_op"), 0.0);
    }

    #[test]
    fn process_counters_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_ms() >= 0.0);
        assert!(host_threads() >= 1);
    }
}
