#!/usr/bin/env bash
# Tier-1 verification for the kronpriv workspace, run fully offline (no crates.io access: every
# dependency is an in-workspace path dependency — see README.md).
#
#   scripts/verify.sh          # fmt --check + build (release) + tests + clippy -D warnings
#                              # + rustdoc -D warnings + kronpriv-lint
#   scripts/verify.sh --quick  # additionally runs the rand/graph/skg/dp/par tests optimized, the e2e
#                              # bench's own tests, quickstart and the server probe, then
#                              # smoke-runs the bench harness with the bench_check regression
#                              # guard
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> cargo clippy --offline --all-targets -- -D warnings"
cargo clippy --offline --all-targets -- -D warnings

echo "==> cargo doc --no-deps --offline --workspace (rustdoc warnings are errors)"
# A doc link to a deleted, renamed or private item, or an ambiguous one, is only a rustdoc
# warning; this gate turns it into a failure so the API docs cannot rot silently (~5 s).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "==> kronpriv-lint (static privacy/determinism/no-feedback gate)"
# The invariant checker (crates/lint): zero unwaived findings or the build fails. Waivers
# (`// lint:allow(<rule>, reason = "...")`) are printed with their reasons for the record.
# The scan itself runs under a wall-clock budget: the v2 analyzer does whole-workspace taint
# propagation and a call-graph fixpoint, and this guard keeps that work from quietly growing
# into a multi-minute gate (the parallel file scan should keep it well under the bound).
lint_budget_s="${LINT_BUDGET_S:-30}"
lint_started="$(date +%s)"
cargo run -q --release --offline -p kronpriv-lint -- --workspace-root .
lint_elapsed="$(( $(date +%s) - lint_started ))"
echo "kronpriv-lint scan took ${lint_elapsed}s (budget: ${lint_budget_s}s)"
if (( lint_elapsed > lint_budget_s )); then
    echo "kronpriv-lint exceeded its ${lint_budget_s}s wall-clock budget" >&2
    exit 1
fi

if [[ "${1:-}" == "--quick" ]]; then
    echo "==> rand, graph, skg, dp and par tests in a release build"
    # The xoshiro jump-ahead's bit arithmetic, the sampler's and graph builder's byte-identity
    # pins and the triangle release's thread-count pins run once more optimized, where
    # overflow checks are off and the compiler reorders the most: an optimizer-dependent
    # divergence must fail here, not in production. The executor's own tests (panic payloads,
    # nesting, reuse and the helper bound under concurrent callers) run here too, where thread
    # timing differs from a debug build.
    cargo test -q --release --offline -p rand -p kronpriv-graph -p kronpriv-skg -p kronpriv-dp \
        -p kronpriv-par

    echo "==> end-to-end benchmark smoke tests"
    # The e2e bench is a workspace of its own (e2e_bench/Cargo.toml) that builds the program
    # from source; its tests run every workload shrunk to a few small ops, check the
    # BENCHMARK.json manifest against the metrics the runs emit, and corrupt a result that the
    # checks must catch (about 6 s once built). Building it rewrites e2e_bench/Cargo.lock
    # whenever a workspace crate's path dependencies changed since the lockfile was committed;
    # the bench directory stays as committed, so the lockfile is put back afterwards, on
    # failure too.
    e2e_lock="$(mktemp)"
    cp e2e_bench/Cargo.lock "$e2e_lock"
    trap 'cp "$e2e_lock" e2e_bench/Cargo.lock; rm -f "$e2e_lock"' EXIT
    CARGO_TARGET_DIR="$PWD/target/e2e-bench" \
        cargo test -q --release --offline --manifest-path e2e_bench/Cargo.toml
    cp "$e2e_lock" e2e_bench/Cargo.lock
    rm -f "$e2e_lock"
    trap - EXIT

    echo "==> example smoke run"
    cargo run -q --release --offline --example quickstart

    echo "==> server smoke run (durable --data-dir: --probe end to end incl. the budget ledger,"
    echo "    a /metrics scrape gate, then a restart on the same dir gated by --probe-replay)"
    server_log="$(mktemp)"
    server_data="$(mktemp -d)"
    trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$server_log" "$server_data"' EXIT
    start_server() {
        target/release/kronpriv-serve --addr 127.0.0.1:0 --workers 2 --job-workers 2 \
            --data-dir "$server_data" > "$server_log" 2>&1 &
        server_pid=$!
        for _ in $(seq 1 100); do
            grep -q "^listening on " "$server_log" && break
            # A server that crashed during startup will never log its address; without this
            # check the loop used to spin its full 10 s and then fail with an empty log
            # excerpt. Detect the early exit, stop immediately and dump the log so CI
            # failures are diagnosable.
            if ! kill -0 "$server_pid" 2>/dev/null; then
                echo "kronpriv-serve exited during startup; log follows:" >&2
                cat "$server_log" >&2
                exit 1
            fi
            sleep 0.1
        done
        server_addr="$(sed -n 's#^listening on http://##p' "$server_log" | head -1)"
        if [[ -z "$server_addr" ]]; then
            echo "server never reported its address:" >&2
            cat "$server_log" >&2
            exit 1
        fi
    }
    start_server
    target/release/kronpriv-serve --probe "$server_addr"
    # The scrape gate: after real traffic, every line of the live /metrics exposition must
    # validate (the binary exits non-zero on the first malformed line).
    target/release/kronpriv-serve --metrics "$server_addr"
    # The access log must have logged the traffic just driven, as structured JSON lines.
    grep -q '"log":"access".*"path":"/metrics"' "$server_log" || {
        echo "no structured access-log line for the /metrics scrape; log follows:" >&2
        cat "$server_log" >&2
        exit 1
    }
    kill "$server_pid"
    wait "$server_pid" 2>/dev/null || true
    # Restart-replay gate: a fresh process on the same --data-dir must replay the datasets,
    # their spent privacy ledgers (still refusing over-budget draws) and the finished jobs.
    start_server
    target/release/kronpriv-serve --probe-replay "$server_addr"
    kill "$server_pid"
    wait "$server_pid" 2>/dev/null || true
    trap - EXIT
    rm -rf "$server_log" "$server_data"

    # The kernel bench gate runs last: it measures absolute ns/op against a baseline recorded
    # on another machine, so on a host of a different class it can fail on code nobody
    # touched, and the functional gates above must not depend on it. It still fails the run.
    echo "==> bench harness smoke run"
    cargo bench -q --offline -p kronpriv-bench --bench model_kernels -- --quick

    echo "==> kernel micro-benchmark matrix + regression guard (BENCH_kernels.json vs baseline)"
    # Machine-readable perf trajectory: one {kernel, nodes, threads, ns_per_op} record per
    # measurement (the min over samples — robust to background load, which only ever inflates
    # a sample), so kernel regressions across PRs show up in the checked JSON. The matrix
    # covers the counting kernels, the fitting stage (fit_multistart, isotonic_postprocess)
    # and one multi-chain KronFit ascent step (kronfit_step) at 1/2/4 threads.
    #
    # bench_check fails on >2x (override: BENCH_MAX_RATIO) per-kernel ns/op regressions
    # against the committed baseline; refresh with `cp BENCH_kernels.json BENCH_baseline.json`
    # after an intentional perf change — or after moving to a slower machine class, since the
    # baseline records absolute ns/op of whatever machine produced it. It also prints the
    # one-line "scaling 1T->4T" summary and, on hosts with >=4 hardware threads, enforces the
    # executor's scaling gates (no kernel >10% slower at 4T; smooth_sensitivity/
    # per_node_triangles >=1.5x at the ~10^5-node rows). The committed baseline predates the
    # kronpriv-obs instrumentation, so the guard's overhead gate (median 1T fresh/baseline
    # ratio <= 1.05, override: BENCH_OVERHEAD_RATIO) bounds what the always-on spans and
    # counters cost the serial compute path.
    #
    # The measure-then-check pair is retried up to 3 times: on a small shared runner a load
    # spike can inflate a whole bench run, and re-measuring filters that out — a *systematic*
    # regression (real code cost, not transient load) fails all three attempts identically.
    bench_ok=""
    for attempt in 1 2 3; do
        cargo bench -q --offline -p kronpriv-bench --bench kernels -- --quick \
            --json "$PWD/BENCH_kernels.json"
        test -s BENCH_kernels.json || { echo "BENCH_kernels.json was not written" >&2; exit 1; }
        if cargo run -q --release --offline -p kronpriv-bench --bin bench_check -- \
            --max-ratio "${BENCH_MAX_RATIO:-2.0}" \
            --overhead-ratio "${BENCH_OVERHEAD_RATIO:-1.05}"; then
            bench_ok=1
            break
        fi
        echo "bench gate attempt ${attempt}/3 failed; re-measuring" >&2
    done
    if [[ -z "$bench_ok" ]]; then
        echo "bench gate failed on 3 independent measurements — treating as a real regression" >&2
        exit 1
    fi
fi

echo "verify: OK"
