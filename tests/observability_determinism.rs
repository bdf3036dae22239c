//! The no-feedback invariant, pinned end to end: a fully observed pipeline run — every stage
//! span recorded, per-chain progress events emitted with the optional likelihood probe on, and
//! the global metrics registry scraped *between events, mid-flight* — must be byte-identical
//! to the same seed run cold, with no sink and no scrapes. Instrumentation is write-only from
//! the compute code's perspective; this test is the workspace-level proof.

use kronpriv::kronpriv_graph::io::to_edge_list_string;
use kronpriv::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A sink that scrapes the global registry on every event before recording it — the most
/// adversarial observer: concurrent rendering while the pipeline is mid-stage.
struct ScrapingSink {
    inner: CollectingSink,
    scrapes: AtomicUsize,
}

impl ScrapingSink {
    fn new() -> Self {
        ScrapingSink {
            inner: CollectingSink::with_chain_likelihood(),
            scrapes: AtomicUsize::new(0),
        }
    }
}

impl ProgressSink for ScrapingSink {
    fn emit(&self, event: &ProgressEvent) {
        let exposition = MetricsRegistry::global().render();
        assert!(!exposition.is_empty(), "mid-flight scrape must render");
        self.scrapes.fetch_add(1, Ordering::Relaxed);
        self.inner.emit(event);
    }

    fn wants_chain_likelihood(&self) -> bool {
        true
    }
}

/// Fingerprints a release exactly: every float by its bits, the graph by its edge list.
fn fingerprint(release: &SyntheticRelease) -> String {
    let fit = &release.estimate.fit;
    format!(
        "theta={:x}/{:x}/{:x} k={} obj={:x} evals={} stats={:?} edges={}",
        fit.theta.a.to_bits(),
        fit.theta.b.to_bits(),
        fit.theta.c.to_bits(),
        fit.k,
        fit.objective_value.to_bits(),
        fit.evaluations,
        release.estimate.private_statistics.map(f64::to_bits),
        to_edge_list_string(&release.synthetic)
    )
}

fn secret_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(99);
    sample_fast(&Initiator2::new(0.95, 0.55, 0.2), 8, &mut rng, &Executor::sequential())
}

#[test]
fn observed_and_scraped_release_is_byte_identical_to_a_cold_run() {
    let secret = secret_graph();
    let params = PrivacyParams::new(1.0, 0.01);
    let options = PrivateEstimatorOptions::default();
    let exec = Executor::new(2);

    let cold = {
        let mut rng = StdRng::seed_from_u64(7);
        try_release_synthetic_graph(&secret, params, &options, &mut rng, &exec, &NullSink).unwrap()
    };
    let observed = {
        let sink = ScrapingSink::new();
        let mut rng = StdRng::seed_from_u64(7);
        let release =
            try_release_synthetic_graph(&secret, params, &options, &mut rng, &exec, &sink).unwrap();
        assert!(sink.scrapes.load(Ordering::Relaxed) > 0, "the observer must have observed");
        // The stage sequence the pipeline reports: the release stages plus the final sample.
        let stages: Vec<&str> = sink
            .inner
            .events()
            .iter()
            .filter_map(|e| match e {
                ProgressEvent::StageStarted { stage } => Some(*stage),
                _ => None,
            })
            .collect();
        assert_eq!(stages, ["degree_release", "triangle_release", "fit", "sample"], "{stages:?}");
        release
    };
    assert_eq!(
        fingerprint(&cold),
        fingerprint(&observed),
        "instrumentation fed back into the release"
    );
}

#[test]
fn observed_and_scraped_kronfit_is_byte_identical_to_a_cold_run() {
    let secret = secret_graph();
    let options = KronFitOptions {
        gradient_steps: 4,
        warmup_swaps: 300,
        samples_per_step: 2,
        swaps_between_samples: 100,
        chains: 2,
        ..Default::default()
    };
    let exec = Executor::new(2);

    let cold = {
        let mut rng = StdRng::seed_from_u64(13);
        try_kronfit_estimate(&secret, &options, &mut rng, &exec, &NullSink).unwrap()
    };
    // The scraping sink additionally turns on the per-step likelihood probe — the probe must
    // consume no randomness, so even with it the fit cannot move.
    let sink = ScrapingSink::new();
    let observed = {
        let mut rng = StdRng::seed_from_u64(13);
        try_kronfit_estimate(&secret, &options, &mut rng, &exec, &sink).unwrap()
    };
    assert_eq!(cold.theta.a.to_bits(), observed.theta.a.to_bits());
    assert_eq!(cold.theta.b.to_bits(), observed.theta.b.to_bits());
    assert_eq!(cold.theta.c.to_bits(), observed.theta.c.to_bits());
    assert_eq!(cold.objective_value.to_bits(), observed.objective_value.to_bits());
    assert_eq!(cold.evaluations, observed.evaluations);
    // And the observer did see every chain step, with the probe delivering finite values.
    let steps =
        sink.inner.events().iter().filter(|e| matches!(e, ProgressEvent::ChainStep { .. })).count();
    assert_eq!(steps, 2 * 4, "2 chains x 4 steps");
}

/// The `stage` label of one `kronpriv_stage_ns` exposition line, if the line is one.
fn stage_label(line: &str) -> Option<&str> {
    let labels = line.strip_prefix("kronpriv_stage_ns")?.split_once("{stage=\"")?.1;
    Some(labels.split_once('"')?.0)
}

#[test]
fn the_exposition_scraped_mid_run_is_well_formed() {
    // Drive a release, a KronFit run and a KronMom run into one sink, then pin the one stage
    // vocabulary: every stage the events name has a histogram series under the same name, every
    // histogram series is such a stage or one of its `parent/child` sub-stages, and the retired
    // counter is gone. Every line must also pass the validator the CI scrape gate uses.
    let secret = secret_graph();
    let exec = Executor::new(2);
    let sink = CollectingSink::new();
    let mut rng = StdRng::seed_from_u64(5);
    let params = PrivacyParams::new(1.0, 0.01);
    let options = PrivateEstimatorOptions::default();
    try_release_synthetic_graph(&secret, params, &options, &mut rng, &exec, &sink).unwrap();
    let kronfit = KronFitOptions {
        gradient_steps: 2,
        warmup_swaps: 100,
        samples_per_step: 1,
        chains: 1,
        ..Default::default()
    };
    try_kronfit_estimate(&secret, &kronfit, &mut rng, &exec, &sink).unwrap();
    try_kronmom_estimate(&secret, &KronMomOptions::default(), &exec, &sink).unwrap();
    let exposition = MetricsRegistry::global().render();

    let event_stages: BTreeSet<&str> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            ProgressEvent::StageStarted { stage } | ProgressEvent::StageFinished { stage } => {
                Some(*stage)
            }
            ProgressEvent::ChainStep { .. } => None,
        })
        .collect();
    assert_eq!(
        event_stages,
        BTreeSet::from(["degree_release", "fit", "kronfit", "sample", "triangle_release"])
    );
    for stage in &event_stages {
        let count = format!("kronpriv_stage_ns_count{{stage=\"{stage}\"}} ");
        assert!(exposition.contains(&count), "no {count:?} series:\n{exposition}");
    }
    let metric_stages: BTreeSet<&str> = exposition.lines().filter_map(stage_label).collect();
    for stage in &metric_stages {
        let parent = stage.split_once('/').map_or(*stage, |(parent, _)| parent);
        assert!(event_stages.contains(parent), "stage metric {stage:?} names no event stage");
    }
    for sub_stage in [
        "degree_release/laplace",
        "degree_release/isotonic",
        "triangle_release/smooth_sensitivity",
        "triangle_release/count",
    ] {
        let count = format!("kronpriv_stage_ns_count{{stage=\"{sub_stage}\"}} ");
        assert!(exposition.contains(&count), "no {count:?} series:\n{exposition}");
    }
    assert_eq!(metric_stages.len(), event_stages.len() + 4, "{metric_stages:?}");
    assert!(!exposition.contains("kronpriv_stage_total"), "{exposition}");
    assert!(exposition.contains("kronpriv_par_calls_total{"), "{exposition}");
    for line in exposition.lines() {
        assert!(
            kronpriv::kronpriv_obs::well_formed_exposition_line(line),
            "malformed exposition line: {line:?}"
        );
    }
}
