//! `release-k17`: the whole Algorithm 1 release, in-process and one op at a time.

use crate::check::{self, Tally};
use crate::input::{op_seed, skg_edge_list, EdgeListInput, FNV_OFFSET};
use crate::trace::{ms, stage_layers, Layers, TimingSink};
use crate::{measure, object, OpSample, Outcome, Phase, RunConfig};
use kronpriv::kronpriv_dp::PrivacyParams;
use kronpriv::kronpriv_estimate::{kronecker_order_for, PrivateEstimatorOptions};
use kronpriv::kronpriv_graph::io::parse_edge_list_reader;
use kronpriv::kronpriv_obs::{NullSink, ProgressSink};
use kronpriv::kronpriv_par::Executor;
use kronpriv::try_release_synthetic_graph_observed;
use kronpriv_json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The budget of one release.
const PARAMS: (f64, f64) = (0.2, 0.01);

/// What a completed release op leaves behind for the checks.
struct Released {
    sample: OpSample,
    theta: [f64; 3],
    synthetic_hash: u64,
}

/// Parses the input and releases a private initiator plus a synthetic graph, then checks the
/// output. A traced op timestamps the pipeline's progress events through a [`TimingSink`].
fn release_op(
    input: &EdgeListInput,
    k: u32,
    exec: &Executor,
    seed: u64,
    traced: bool,
) -> Result<Released, String> {
    let sink = TimingSink::default();
    let observer: &dyn ProgressSink = if traced { &sink } else { &NullSink };
    let started = Instant::now();
    let graph = parse_edge_list_reader(input.text.as_bytes()).map_err(|e| e.to_string())?;
    let parsed = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let release = try_release_synthetic_graph_observed(
        &graph,
        PrivacyParams::new(PARAMS.0, PARAMS.1),
        &PrivateEstimatorOptions::default(),
        &mut rng,
        exec,
        observer,
    )
    .map_err(|e| format!("release refused: {e}"))?;
    let finished = Instant::now();

    let fit = &release.estimate.fit;
    if fit.k != k {
        return Err(format!("release assumed order {}, the input has order {k}", fit.k));
    }
    let theta = check::check_theta(fit.theta.as_array())?;
    check::check_synthetic(k, &release.synthetic)?;
    let total = ms(started, finished);
    let mut layers = Layers::new();
    if traced {
        let parse = ms(started, parsed);
        layers.insert("graph.parse_ms", parse);
        layers.insert("skg.synthetic_edges", release.synthetic.edge_count() as f64);
        let stages = stage_layers(&sink.into_marks(), &mut layers).map_or(0.0, |(sum, ..)| sum);
        layers.insert("trace.coverage_frac", (parse + stages) / total);
    }
    let synthetic_hash = release.synthetic.edges().iter().fold(FNV_OFFSET, |h, &(u, v)| {
        crate::input::fnv1a(h, &((u as u64) << 32 | v as u64).to_le_bytes())
    });
    Ok(Released { sample: OpSample { ms: total, traced, layers }, theta, synthetic_hash })
}

/// Runs the workload: `setup_reps` set-ups (a fresh executor plus its first release), then
/// the timed closed loop, then a repeat of the first timed seed that must reproduce its bytes.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let input = skg_edge_list(cfg.order, cfg.seed);
    let k = kronecker_order_for(input.nodes);
    let mut tally = Tally::default();

    let mut setup_s = Vec::new();
    let mut exec = None;
    for rep in 0..cfg.setup_reps as u64 {
        let started = Instant::now();
        let fresh = Executor::new(crate::THREADS);
        tally.record(release_op(&input, k, &fresh, op_seed(cfg.seed, 1000 + rep, 0), false));
        setup_s.push(started.elapsed().as_secs_f64());
        exec = Some(fresh);
    }
    let exec = exec.ok_or("at least one set-up is required")?;

    let mut phase = Phase::default();
    let before = cfg.trace.then(measure::counters);
    let cpu_before = measure::process_cpu_ms();
    let started = Instant::now();
    let hard_stop = cfg.hard_stop(started);
    let mut first = None;
    let mut index = 0u64;
    while (started.elapsed().as_secs_f64() < cfg.seconds || phase.ops.len() < cfg.min_ops)
        && Instant::now() < hard_stop
    {
        let seed = op_seed(cfg.seed, 0, index);
        let traced = cfg.trace && index % 2 == 1;
        if let Some(done) = tally.record(release_op(&input, k, &exec, seed, traced)) {
            first.get_or_insert((seed, done.theta, done.synthetic_hash));
            phase.ops.push(done.sample);
        }
        index += 1;
    }
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.cpu_ms = measure::process_cpu_ms() - cpu_before;
    if let Some(before) = before {
        phase.counters = measure::delta(&before, &measure::counters());
    }

    // A repeated seed must reproduce the released initiator and the synthetic graph exactly.
    if let Some((seed, theta, hash)) = first {
        tally.record(release_op(&input, k, &exec, seed, false).and_then(|again| {
            check::same_bits("repeated release", again.theta, theta)?;
            (again.synthetic_hash == hash)
                .then_some(())
                .ok_or_else(|| "repeated release sampled another graph".to_string())
        }));
    }

    let metrics = phase.metrics(cfg, &setup_s)?;
    let context = vec![
        ("input", input.record(k)),
        (
            "threads",
            object(&[
                ("client_threads", Json::Number(1.0)),
                ("compute_threads", Json::Number(exec.threads() as f64)),
            ]),
        ),
        (
            "params",
            object(&[("epsilon", Json::Number(PARAMS.0)), ("delta", Json::Number(PARAMS.1))]),
        ),
        ("timed_ops", Json::Number(phase.ops.len() as f64)),
    ];
    Ok(Outcome { tally, metrics, context })
}
