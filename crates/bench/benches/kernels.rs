//! The kernel × thread-count micro-benchmark matrix behind `BENCH_kernels.json`.
//!
//! Measures the parallelized Algorithm 1 hot paths — triangle counting, the smooth-sensitivity
//! bound (dominated by the pruned local-sensitivity scan), the exact hop plot, the
//! multistart moment-matching fit, one multi-chain KronFit ascent step and the isotonic degree
//! post-processing — at thread counts {1, 2, 4} on a seeded 2^14-node stochastic Kronecker graph
//! (2^10 under `--quick`), plus the three counting kernels at ~10^5 nodes (2^17), so the
//! speedup of the parallel layer is measured rather than assumed. Four rows at 2^17 cover graph
//! construction: three sequential 1-thread ones, `graph_build` (SNAP edge-list text → `Graph`),
//! `graph_build_keyed` (the same edges with every id + 10^9, so the parser remaps ids through
//! its keyed map instead of its dense table) and `degree_order` (the degree relabelling that
//! both triangle kernels run on, which does not scale with threads), plus `sample_fast` (one
//! SKG realization, whose bulk placement round runs on the executor) at every thread count.
//!
//! Each matrix cell builds its [`Executor`] once, outside the timed loop, and building one
//! spawns nothing. Every pooled call spawns and joins its own helper threads, so each
//! multi-thread row includes that cost: about 40 µs per call with one helper on a 2-vCPU VM,
//! which shows most in the rows whose calls are short (`exact_hop_plot`, `fit_multistart`,
//! `isotonic_postprocess` at the quick sizes).
//!
//! Run with `cargo bench -p kronpriv-bench --bench kernels` (add `-- --quick` for a smoke run).
//! With `-- --json PATH` the results are also written as machine-readable JSON — one record
//! `{kernel, nodes, threads, ns_per_op}` per measurement — which is how
//! `scripts/verify.sh --quick` tracks the perf trajectory across PRs (and what
//! `bench_check` guards against a committed `BENCH_baseline.json`).
//!
//! With `-- --metrics PATH` the run additionally dumps the process-global `kronpriv-obs`
//! registry (Prometheus text) after the matrix finishes — the executor's own view of the same
//! workload (`kronpriv_par_*`: inline-vs-pooled cutoff decisions, helper spawn-to-start wait
//! and per-helper busy time), alongside the harness's external ns/op timings.

use kronpriv_bench::harness::Harness;
use kronpriv_dp::{isotonic_increasing_par, smooth_sensitivity_triangles, LaplaceNoise};
use kronpriv_estimate::{try_kronfit_estimate, KronFitOptions, KronMomOptions, MomentObjective};
use kronpriv_graph::counts::{per_node_triangles, triangle_count, DegreeOrdered};
use kronpriv_graph::io::{parse_edge_list, to_edge_list_string};
use kronpriv_graph::traversal::reachable_pairs_by_hops;
use kronpriv_graph::MatchingStatistics;
use kronpriv_json::Json;
use kronpriv_obs::NullSink;
use kronpriv_optim::{multistart_minimize, Bounds};
use kronpriv_par::Executor;
use kronpriv_skg::sample::sample_fast;
use kronpriv_skg::Initiator2;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::hint::black_box;

/// Pool sizes measured for every kernel.
const THREADS: [usize; 3] = [1, 2, 4];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1)).cloned();
    let metrics_path =
        args.iter().position(|a| a == "--metrics").and_then(|i| args.get(i + 1)).cloned();

    let mut h = Harness::from_args("kernels");
    // The paper's headline scale is 2^14 nodes; --quick drops to 2^10 so the verify-script
    // smoke run stays fast.
    let k = if quick { 10 } else { 14 };
    let mut rng = StdRng::seed_from_u64(14);
    let theta = Initiator2::new(0.99, 0.45, 0.25);
    let g = sample_fast(&theta, k, &mut rng, &Executor::sequential());
    let nodes = g.node_count();
    println!("kernel matrix on a 2^{k}-node SKG ({nodes} nodes, {} edges)", g.edge_count());

    let mut records: Vec<Json> = Vec::new();
    let run = |h: &mut Harness,
               records: &mut Vec<Json>,
               kernel: &str,
               graph_nodes: usize,
               threads: usize,
               routine: &dyn Fn(&Executor)| {
        // One executor per matrix cell, built before the timed region: the workers are spawned
        // and parked exactly once, so `b.iter` measures pool reuse (the steady state of the
        // server and the fitting loops), not thread spawn cost.
        let exec = Executor::new(threads);
        h.bench_function(&format!("{kernel}/t{threads}"), |b| b.iter(|| routine(&exec)));
        let measured = h.results().last().expect("bench_function just pushed a result");
        records.push(Json::Object(vec![
            ("kernel".to_string(), Json::String(kernel.to_string())),
            ("nodes".to_string(), Json::Number(graph_nodes as f64)),
            ("threads".to_string(), Json::Number(threads as f64)),
            // The min (not median/mean) of the samples: background load on a shared host only
            // ever inflates a sample, so the min is the robust estimator of true kernel cost —
            // what the regression and overhead gates in bench_check need to compare.
            ("ns_per_op".to_string(), Json::Number(measured.min.as_nanos() as f64)),
        ]));
    };

    // The calibration cells: a fixed pure-CPU workload that touches no kernel, no executor
    // and no instrumentation. Its fresh-vs-baseline ratio measures only how fast this host is
    // running *right now* relative to when the baseline was captured, which is what lets
    // `bench_check` normalize host-load drift out of the instrumentation-overhead gate on
    // shared runners. It runs twice — first and last cell of the matrix — so load arriving
    // mid-run is caught by at least one of the two samples.
    let calibration = |_exec: &Executor| {
        let mut acc: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in 0..(1u64 << 16) {
            acc = acc.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (acc >> 31).wrapping_add(i);
        }
        black_box(acc);
    };
    run(&mut h, &mut records, "calibration", 1 << 16, 1, &calibration);

    for threads in THREADS {
        run(&mut h, &mut records, "triangle_count", nodes, threads, &|exec| {
            black_box(triangle_count(black_box(&g), exec));
        });
    }
    for threads in THREADS {
        run(&mut h, &mut records, "smooth_sensitivity", nodes, threads, &|exec| {
            black_box(smooth_sensitivity_triangles(black_box(&g), 0.01, exec));
        });
    }
    for threads in THREADS {
        run(&mut h, &mut records, "per_node_triangles", nodes, threads, &|exec| {
            black_box(per_node_triangles(black_box(&g), exec));
        });
    }

    // The ~10^5-node rows: the three counting kernels on a 2^17-node SKG (131'072 nodes),
    // large enough that per-node work dominates scheduling. These run even under --quick —
    // they are the inputs to the 4T-vs-1T scaling gates in bench_check, so the committed
    // baseline must always carry them.
    let mut rng = StdRng::seed_from_u64(18);
    let large = sample_fast(&theta, 17, &mut rng, &Executor::sequential());
    let large_nodes = large.node_count();
    println!(
        "large-kernel rows on a 2^17-node SKG ({large_nodes} nodes, {} edges)",
        large.edge_count()
    );
    for threads in THREADS {
        run(&mut h, &mut records, "triangle_count", large_nodes, threads, &|exec| {
            black_box(triangle_count(black_box(&large), exec));
        });
    }
    for threads in THREADS {
        run(&mut h, &mut records, "smooth_sensitivity", large_nodes, threads, &|exec| {
            black_box(smooth_sensitivity_triangles(black_box(&large), 0.01, exec));
        });
    }
    for threads in THREADS {
        run(&mut h, &mut records, "per_node_triangles", large_nodes, threads, &|exec| {
            black_box(per_node_triangles(black_box(&large), exec));
        });
    }

    // Graph construction at the same 2^17 scale: the edge-list parse behind every upload and
    // the degree relabelling inside the `triangle_count` and `smooth_sensitivity` rows above,
    // both sequential by design (1 thread only), and the SKG sampler behind every release at
    // every pool size.
    let large_text = to_edge_list_string(&large);
    run(&mut h, &mut records, "graph_build", large_nodes, 1, &|_exec| {
        black_box(parse_edge_list(black_box(&large_text)).expect("a serialized graph parses"));
    });
    // The same edges with every id + 10^9: too sparse for the parser's dense id table, so they
    // go through its keyed (SipHash) remap, which no end-to-end workload exercises.
    let shift = |id: u32| u64::from(id) + 1_000_000_000;
    let mut keyed_text = String::new();
    for &(u, v) in large.edges() {
        let _ = writeln!(keyed_text, "{}\t{}", shift(u), shift(v));
    }
    run(&mut h, &mut records, "graph_build_keyed", large_nodes, 1, &|_exec| {
        black_box(parse_edge_list(black_box(&keyed_text)).expect("a shifted edge list parses"));
    });
    for threads in THREADS {
        run(&mut h, &mut records, "sample_fast", large_nodes, threads, &|exec| {
            let mut rng = StdRng::seed_from_u64(18);
            black_box(sample_fast(&theta, 17, &mut rng, exec));
        });
    }
    run(&mut h, &mut records, "degree_order", large_nodes, 1, &|_exec| {
        black_box(DegreeOrdered::new(black_box(&large)));
    });

    // The exact all-sources BFS is quadratic; measure it on a 4× smaller graph so the full
    // suite stays within its time budget.
    let mut rng = StdRng::seed_from_u64(15);
    let small = sample_fast(&theta, k.saturating_sub(2), &mut rng, &Executor::sequential());
    for threads in THREADS {
        run(&mut h, &mut records, "exact_hop_plot", small.node_count(), threads, &|exec| {
            black_box(reachable_pairs_by_hops(black_box(&small), exec));
        });
    }

    // The fitting-stage hot paths (this is where the end-to-end runtime of Algorithm 1 now
    // goes, the counting kernels being parallel since PR 3). `fit_multistart` is the full
    // grid-seeded multistart Nelder–Mead on the graph's observed moments.
    let stats = MatchingStatistics::of_graph(&g);
    let objective = MomentObjective::standard(&stats, k);
    let fit_opts = KronMomOptions::default();
    let fit_bounds = Bounds::unit(3);
    let extra_starts = vec![vec![0.99, 0.5, 0.2]];
    for threads in THREADS {
        run(&mut h, &mut records, "fit_multistart", nodes, threads, &|exec| {
            black_box(multistart_minimize(
                |p| objective.evaluate_params(p),
                &fit_bounds,
                &extra_starts,
                fit_opts.grid_points_per_axis,
                fit_opts.refine_top,
                fit_opts.max_evaluations,
                exec,
            ));
        });
    }

    // One multi-chain KronFit ascent step (4 chains, a couple of permutation samples each):
    // the hot path of the parallel KronFit baseline. The fit is byte-identical for every
    // pool size, so the matrix measures pure scheduling overhead/speedup.
    let kronfit_opts = KronFitOptions {
        gradient_steps: 1,
        warmup_swaps: 2_000,
        samples_per_step: 2,
        swaps_between_samples: 200,
        chains: 4,
        ..Default::default()
    };
    for threads in THREADS {
        run(&mut h, &mut records, "kronfit_step", nodes, threads, &|exec| {
            let mut rng = StdRng::seed_from_u64(17);
            let fit = try_kronfit_estimate(black_box(&g), &kronfit_opts, &mut rng, exec, &NullSink);
            black_box(fit.expect("the bench graph has edges"));
        });
    }

    // The isotonic (PAVA) constrained-inference pass of the private degree release, on a
    // synthetic noisy sorted sequence long enough to span many parallel blocks.
    let iso_len = if quick { 1 << 13 } else { 1 << 16 };
    let mut rng = StdRng::seed_from_u64(16);
    let noise = LaplaceNoise::new(20.0);
    let noisy: Vec<f64> =
        (0..iso_len).map(|i| (i as f64).sqrt() + noise.sample(&mut rng)).collect();
    for threads in THREADS {
        run(&mut h, &mut records, "isotonic_postprocess", iso_len, threads, &|exec| {
            black_box(isotonic_increasing_par(black_box(&noisy), exec));
        });
    }

    run(&mut h, &mut records, "calibration_end", 1 << 16, 1, &calibration);

    h.report();
    if let Some(path) = json_path {
        let doc = Json::Array(records);
        std::fs::write(&path, doc.to_compact_string())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }
    if let Some(path) = metrics_path {
        std::fs::write(&path, kronpriv_obs::Registry::global().render())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path} (kronpriv-obs registry after the matrix)");
    }
}
