//! The benchmark's own tests: a short run of every workload in both modes, the manifest at
//! the repository root against the metrics the runs emit, and a corrupted result that the
//! checks must catch.

use kronpriv::kronpriv_estimate::kronecker_order_for;
use kronpriv::kronpriv_graph::io::parse_edge_list_reader;
use kronpriv::kronpriv_par::Executor;
use kronpriv_e2e_bench::check::{self, Tally};
use kronpriv_e2e_bench::{input, result_line, run, service, Outcome, RunConfig, Workload};
use kronpriv_e2e_bench::{END_TO_END, PER_LAYER};
use kronpriv_json::Json;

/// A run of `workload` shrunk to a few small ops.
fn short(workload: Workload, trace: bool) -> RunConfig {
    let order = if workload == Workload::ReleaseK17 { 10 } else { 8 };
    RunConfig {
        order,
        min_ops: 6,
        setup_reps: 2,
        warmup_ops: 4,
        ..RunConfig::new(workload, 7, 0.2, trace)
    }
}

/// Layers each workload must actually reach in a traced run.
fn reached(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::ReleaseK17 => {
            &["graph.parse_ms", "skg.sample_ms", "skg.synthetic_edges", "estimate.fit_ms"]
        }
        Workload::DatasetK14 => &[
            "http.submit_ms",
            "jobs.start_ms",
            "http.result_bytes",
            "store.records_per_op",
            "ledger.debits_per_op",
        ],
        Workload::KronfitK14 => {
            &["estimate.kronfit_ms", "estimate.chain_steps", "http.result_bytes"]
        }
    }
}

#[test]
fn every_workload_reports_every_named_metric_finite_and_with_a_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(&short(workload, trace)).unwrap();
            let tally = &outcome.tally;
            assert_eq!(tally.failed, 0, "{} failed: {:?}", workload.name(), tally.failures);
            assert!(tally.attempted >= 6);
            let expected = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
            let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, expected, "{} trace={trace}", workload.name());
            for metric in &outcome.metrics {
                assert!(
                    metric.value.is_finite(),
                    "{} {}: {}",
                    workload.name(),
                    metric.name,
                    metric.value
                );
                assert!(!metric.unit.is_empty());
            }
            if trace {
                for name in reached(workload) {
                    let metric = outcome.metrics.iter().find(|m| m.name == *name).unwrap();
                    assert!(metric.value > 0.0, "{} never reached {name}", workload.name());
                }
            } else {
                assert!(outcome.metrics.iter().all(|m| m.value > 0.0), "{:?}", outcome.metrics);
            }

            let line = Json::parse(&result_line(&outcome)).unwrap();
            let Json::Object(fields) = &line else { panic!("result is not an object") };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        }
    }
}

#[test]
fn the_manifest_names_the_workloads_and_metrics_the_runs_emit() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let manifest = Json::parse(&text).unwrap();
    let list = |key: &str| manifest.get(key).and_then(Json::as_array).unwrap().to_vec();
    let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();

    let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    for (key, metrics) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        let named: Vec<(String, String)> =
            list(key).iter().map(|m| (field(m, "name"), field(m, "unit"))).collect();
        let emitted: Vec<(String, String)> =
            metrics.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(named, emitted, "{key}");
    }
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).unwrap();
    let end_to_end = list("end_to_end");
    let setup = end_to_end.iter().find(|m| field(m, "name") == "setup_s").unwrap();
    assert!(end_to_end.iter().all(|m| bound(m) > 0.0 && bound(m) <= bound(setup)));
    assert!(bound(setup) <= 0.25);
}

#[test]
fn a_corrupted_result_raises_the_error_rate() {
    let input = input::skg_edge_list(8, 3);
    let k = kronecker_order_for(input.nodes);
    let root = service::data_root();
    std::fs::create_dir_all(&root).unwrap();
    let server = service::boot(&root).unwrap();
    service::upload(server.addr(), &input).unwrap();
    let done = service::job_op(server.addr(), Workload::DatasetK14, k, 41, false).unwrap();
    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
    let graph = parse_edge_list_reader(input.text.as_bytes()).unwrap();
    let library = service::library_theta(&graph, 41, &Executor::new(2)).unwrap();

    let mut tally = Tally::default();
    tally.record(check::judge_terminal(&done.terminal, 41, k));
    tally.record(check::same_bits("service vs library", done.theta, library));
    assert_eq!((tally.attempted, tally.failed), (2, 0), "{:?}", tally.failures);

    // One ulp off: still a valid initiator, but no longer the library's release.
    let nudged = [f64::from_bits(done.theta[0].to_bits() ^ 1), done.theta[1], done.theta[2]];
    tally.record(check::same_bits("service vs library", nudged, library));
    // A leading digit pushes `a` out of [0, 1].
    let corrupted = done.terminal.replacen("\"theta\":{\"a\":", "\"theta\":{\"a\":1", 1);
    assert_ne!(corrupted, done.terminal);
    tally.record(check::judge_terminal(&corrupted, 41, k));
    assert_eq!(tally.failed, 2);
    assert_eq!(tally.error_rate(), 0.5);

    let outcome = Outcome { tally, metrics: Vec::new(), context: Vec::new() };
    let line = Json::parse(&result_line(&outcome)).unwrap();
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(2.0));
}
