//! The process-global instrument registry and its Prometheus-style text dump.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::progress::{ProgressEvent, ProgressSink};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A registered instrument: one name plus a sorted label set maps to exactly one of these.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// `(metric name, labels sorted by key)` — the identity of one time series.
type Key = (String, Vec<(String, String)>);

/// A get-or-create registry of named instruments with a deterministic text dump.
///
/// Hot paths resolve their handles once (e.g. into a `OnceLock`) and never touch the registry
/// mutex again; the mutex only guards registration and scraping. The dump order is fully
/// determined by the registered names and labels (a `BTreeMap` walk), so two scrapes of the
/// same set of series differ only in the sampled values.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<Key, Instrument>>,
}

impl Registry {
    /// A fresh, empty registry (tests; production code uses [`Registry::global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-global registry every subsystem records into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// A shared handle to the counter `name{labels}`, creating it on first use.
    ///
    /// # Panics
    /// On malformed names/labels or if the series was already registered as another kind —
    /// both are programmer errors, caught by the first scrape in any test run.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.instrument(name, labels, || Instrument::Counter(Arc::new(Counter::new()))) {
            Instrument::Counter(c) => c,
            other => panic!("{name} is registered as a {}, not a counter", other.kind()),
        }
    }

    /// A shared handle to the gauge `name{labels}`, creating it on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.instrument(name, labels, || Instrument::Gauge(Arc::new(Gauge::new()))) {
            Instrument::Gauge(g) => g,
            other => panic!("{name} is registered as a {}, not a gauge", other.kind()),
        }
    }

    /// A shared handle to the histogram `name{labels}`, creating it on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.instrument(name, labels, || Instrument::Histogram(Arc::new(Histogram::new()))) {
            Instrument::Histogram(h) => h,
            other => panic!("{name} is registered as a {}, not a histogram", other.kind()),
        }
    }

    fn instrument(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        create: impl FnOnce() -> Instrument,
    ) -> Instrument {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?} on metric {name}");
        }
        let mut sorted: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        sorted.sort();
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        inner.entry((name.to_string(), sorted)).or_insert_with(create).clone()
    }

    /// Renders every registered series in the Prometheus text exposition format.
    ///
    /// Output is stable: series appear sorted by name then label set, each name introduced by
    /// a single `# TYPE` line, histograms expanded into cumulative `_bucket{le=...}` lines
    /// plus `_sum` and `_count`.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("obs registry poisoned");
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for ((name, labels), instrument) in inner.iter() {
            if last_name != Some(name.as_str()) {
                out.push_str(&format!("# TYPE {name} {}\n", instrument.kind()));
                last_name = Some(name.as_str());
            }
            match instrument {
                Instrument::Counter(c) => {
                    out.push_str(&format!("{name}{} {}\n", render_labels(labels, None), c.get()));
                }
                Instrument::Gauge(g) => {
                    out.push_str(&format!("{name}{} {}\n", render_labels(labels, None), g.get()));
                }
                Instrument::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (i, bucket) in counts.iter().enumerate() {
                        cumulative += bucket;
                        let le = match Histogram::bucket_bound(i) {
                            Some(bound) => bound.to_string(),
                            None => "+Inf".to_string(),
                        };
                        out.push_str(&format!(
                            "{name}_bucket{} {cumulative}\n",
                            render_labels(labels, Some(&le)),
                        ));
                    }
                    out.push_str(&format!(
                        "{name}_sum{} {}\n",
                        render_labels(labels, None),
                        h.sum_ns()
                    ));
                    out.push_str(&format!(
                        "{name}_count{} {}\n",
                        render_labels(labels, None),
                        h.count()
                    ));
                }
            }
        }
        out
    }
}

/// Runs `body` as the pipeline stage `name`: emits [`ProgressEvent::StageStarted`] to `sink`,
/// times `body` into the global `kronpriv_stage_ns{stage=name}` histogram, then emits
/// [`ProgressEvent::StageFinished`] and returns the body's value. Stages without a sink of their
/// own pass [`crate::NullSink`] and are named `parent/child`. A panicking body still records its
/// span while unwinding, but emits no `StageFinished`.
pub fn stage<T>(name: &'static str, sink: &dyn ProgressSink, body: impl FnOnce() -> T) -> T {
    sink.emit(&ProgressEvent::StageStarted { stage: name });
    let value = {
        let _span = Registry::global().histogram("kronpriv_stage_ns", &[("stage", name)]).span();
        body()
    };
    sink.emit(&ProgressEvent::StageFinished { stage: name });
    value
}

/// Renders `{k="v",...}` (empty string for no labels), appending `le` when given.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v))).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Prometheus label-value escaping: backslash, double quote and newline.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*` — the Prometheus metric-name grammar.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `[a-zA-Z_][a-zA-Z0-9_]*` — the Prometheus label-name grammar.
fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Whether one line of a text exposition is well-formed: a `# TYPE`/`# HELP` comment, or
/// `name{labels} value` with a valid metric name and a parseable (or `+Inf`) value.
///
/// This is the shape every scrape validator in the workspace enforces — the server's own
/// tests, `kronpriv-serve --metrics`, and the CI gate that scrapes a live server — so it
/// lives here rather than being re-derived per consumer.
pub fn well_formed_exposition_line(line: &str) -> bool {
    if line.starts_with('#') {
        return line.starts_with("# TYPE ") || line.starts_with("# HELP ");
    }
    let (series, value) = match line.rsplit_once(' ') {
        Some(parts) => parts,
        None => return false,
    };
    let name = series.split('{').next().unwrap_or("");
    valid_metric_name(name) && (value.parse::<f64>().is_ok() || value == "+Inf")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_instrument() {
        let r = Registry::new();
        r.counter("requests_total", &[("path", "/x")]).add(2);
        r.counter("requests_total", &[("path", "/x")]).inc();
        assert_eq!(r.counter("requests_total", &[("path", "/x")]).get(), 3);
        // A different label set is a different series.
        assert_eq!(r.counter("requests_total", &[("path", "/y")]).get(), 0);
        // Label order does not matter: the key is sorted.
        r.counter("pairs_total", &[("a", "1"), ("b", "2")]).inc();
        assert_eq!(r.counter("pairs_total", &[("b", "2"), ("a", "1")]).get(), 1);
    }

    #[test]
    fn render_is_stable_and_well_formed() {
        let r = Registry::new();
        r.counter("beta_total", &[("work", "light")]).add(7);
        r.counter("beta_total", &[("work", "heavy")]).add(1);
        r.gauge("alpha_size", &[]).set(4);
        r.histogram("gamma_ns", &[]).record_ns(1000);
        let text = r.render();
        assert_eq!(text, r.render(), "scrapes of unchanged values must be identical");
        assert!(text.contains("# TYPE alpha_size gauge\nalpha_size 4\n"));
        // Sorted: heavy before light; exactly one TYPE line for the family.
        let beta = "# TYPE beta_total counter\nbeta_total{work=\"heavy\"} 1\nbeta_total{work=\"light\"} 7\n";
        assert!(text.contains(beta), "{text}");
        assert_eq!(text.matches("# TYPE beta_total").count(), 1);
        // Histogram family: cumulative buckets, +Inf, sum and count.
        assert!(text.contains("gamma_ns_bucket{le=\"1024\"} 1\n"));
        assert!(text.contains("gamma_ns_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("gamma_ns_sum 1000\n"));
        assert!(text.contains("gamma_ns_count 1\n"));
        // Every line is a comment or `name{...} value` — the verify-script contract.
        for line in text.lines() {
            assert!(well_formed_exposition_line(line), "malformed: {line}");
        }
    }

    #[test]
    fn exposition_line_validator_rejects_garbage() {
        for good in ["# TYPE x counter", "# HELP x help", "x_total 1", "x{a=\"b\"} 1.5e3"] {
            assert!(well_formed_exposition_line(good), "{good}");
        }
        for bad in ["# COMMENT", "bare-words here no", "x_total", "1x_total 2", "x_total one"] {
            assert!(!well_formed_exposition_line(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "registered as a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("thing", &[]);
        r.gauge("thing", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_panic() {
        Registry::new().counter("bad name", &[]);
    }

    #[test]
    fn stage_brackets_its_body_with_events_and_records_one_span() {
        // Stage names of this test's own, so tests running in parallel cannot move the counts.
        let count =
            |name| Registry::global().histogram("kronpriv_stage_ns", &[("stage", name)]).count();
        let sink = crate::CollectingSink::new();
        let before = count("obs_test/ok");
        let value = stage("obs_test/ok", &sink, || {
            let step = ProgressEvent::ChainStep {
                chain: 0,
                step: 0,
                total_steps: 1,
                log_likelihood: f64::NAN,
            };
            sink.emit(&step);
            42
        });
        assert_eq!(value, 42, "the body's value is returned");
        assert_eq!(count("obs_test/ok"), before + 1);
        let events = sink.events();
        assert_eq!(events.len(), 3, "{events:?}");
        assert_eq!(events[0], ProgressEvent::StageStarted { stage: "obs_test/ok" });
        assert!(matches!(events[1], ProgressEvent::ChainStep { chain: 0, .. }));
        assert_eq!(events[2], ProgressEvent::StageFinished { stage: "obs_test/ok" });

        // A panicking body still records its span while unwinding, but never finishes.
        let sink = crate::CollectingSink::new();
        let before = count("obs_test/panics");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stage("obs_test/panics", &sink, || -> u32 { panic!("stage body failed") })
        }));
        assert!(outcome.is_err());
        assert_eq!(count("obs_test/panics"), before + 1);
        assert_eq!(sink.events(), [ProgressEvent::StageStarted { stage: "obs_test/panics" }]);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = Registry::global();
        let b = Registry::global();
        assert!(std::ptr::eq(a, b));
    }
}
