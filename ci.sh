#!/usr/bin/env bash
# Tier-1 verification pipeline. Everything here must pass before merging:
#
#   ./ci.sh          # fmt + clippy + rustdoc + release build + full test
#                    # suite + the bit-identity pins under --release + the
#                    # benchmark's own lint, tests and smoke runs
#   ./ci.sh quick    # skip the release build and the release-profile pins
#                    # (test-profile tests only)
#
# The workspace builds fully offline: crates.io dependencies are replaced by
# the API-subset shims under shims/ (see Cargo.toml [workspace.dependencies]).
set -euo pipefail
cd "$(dirname "$0")"

quick="${1:-}"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Broken or private intra-doc links fail the build like any other warning.
echo "==> cargo doc --workspace --no-deps (rustdoc -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

if [[ "$quick" != "quick" ]]; then
    echo "==> cargo build --release"
    cargo build --release
fi

echo "==> cargo test"
cargo test -q

# The bit-identity pins on the code the benchmark measures: the row-kernel
# proptests (span-aware kernels vs the dense reference), the
# counting-allocator tests and both golden pin sets, built with the release
# profile (no debug assertions, full optimization) instead of the test
# profile above.
if [[ "$quick" != "quick" ]]; then
    echo "==> cargo test --release (linalg, cvx, core golden pins)"
    cargo test --release -q -p protemp-linalg -p protemp-cvx
    cargo test --release -q -p protemp --test golden
fi

# Perf-telemetry smoke test: a reduced-grid tab_solver_runtime run must
# still emit parseable JSON with the sweep-breakdown fields, so the perf
# trajectory in results/ can't silently rot. The quick run also rebuilds
# the quick grid *incrementally* against the checked-in prior quick table
# (results/quick_prior.{table,certs}) and asserts inside the binary that
# the incremental table is bit-identical to the cold one. (Runs the
# release binary in full mode, a debug build in quick mode; the quick grid
# is seconds-cheap either way and writes to a separate _quick.json.)
echo "==> tab_solver_runtime --quick (telemetry + incremental check)"
if [[ "$quick" != "quick" ]]; then
    cargo run --release -q -p protemp-bench --bin tab_solver_runtime -- --quick
else
    cargo run -q -p protemp-bench --bin tab_solver_runtime -- --quick
fi
python3 - <<'EOF'
import json
with open("results/tab_solver_runtime_quick.json") as f:
    data = json.load(f)
for section in ("screened", "unscreened", "incremental", "unpruned",
                "cold", "unpruned_cold", "modal_sweep"):
    for field in ("newton_steps", "phase1_solves", "certificate_screens",
                  "seed_reuses", "incremental_screens",
                  "rows_pruned", "polish_mints", "chain_reentries",
                  "amortized_column_s",
                  "reduce_s", "family_build_s",
                  "rows_full", "rows_reduced", "modal_build_s"):
        assert field in data[section], f"missing {section}.{field}"
        assert data[section][field] >= 0, f"negative {section}.{field}"
assert data["tables_identical"] is True
assert data["incremental_identical"] is True
assert data["pruning_verdicts_identical"] is True
assert data["screened"]["newton_steps"] > 0
# The default-config quick grid must actually exercise the reduction pass
# (the unpruned ablation section, by construction, must not).
assert data["screened"]["rows_pruned"] > 0
assert data["unpruned"]["rows_pruned"] == 0
# Wall-clock honesty: pruning must never again cost more clock than it
# saves (the binary also asserts this before writing the JSON; checking
# the persisted number keeps the telemetry itself trustworthy).
assert data["pruning_cold_wall_ratio"] <= 1.10, data["pruning_cold_wall_ratio"]
# The sweep-shared family structure is built once per context and its
# cost is reported, not hidden inside the first cell.
assert data["family_build_s"] >= 0
# The pruned default run spends real (reported) time in the per-cell
# reduction pass; the unpruned ablation spends none.
assert data["unpruned"]["reduce_s"] == 0
# Screened-window latency telemetry (the controller-ablation numbers).
for field in ("screened_window_s", "bisection_window_s"):
    assert field in data, f"missing {field}"
    assert data[field] >= 0, f"negative {field}"
assert data["screened_windows"] >= 1
# The quick prior shares the quick grid's coolest row across 3 columns,
# so verbatim replay must actually fire (the binary regenerates a
# stale-fingerprint prior itself, so this cannot trip on drift alone).
assert data["incremental"]["seed_reuses"] >= 1
# The per-column amortized time must be a sane measurement.
assert data["screened"]["amortized_column_s"] >= 0
# Modal truncation: the reduced sweep must be conservative (the binary
# asserts the cell-by-cell contract before writing this flag), actually
# shrink the thermal row count, and report its one-time build cost. The
# default (non-modal) sections must report the full count on both sides.
assert data["modal"]["conservative_ok"] is True
assert data["modal"]["rows_reduced"] * 2 < data["modal"]["rows_full"]
assert data["modal"]["modal_build_s"] >= 0
assert data["modal"]["coverage_lost"] >= 0
assert data["modal_sweep"]["rows_reduced"] == data["modal"]["rows_reduced"]
assert data["screened"]["rows_reduced"] == data["screened"]["rows_full"]
assert data["screened"]["modal_build_s"] == 0
# Serving tier: the lock-free read path must sustain at least 1M
# lookups/s aggregate on the quick grid (the paper's runtime does one
# lookup per DFS window; the serving tier answers for a fleet), the
# sampled tail latency must be a sane measurement, and the mid-flight
# incremental republish must have held every refine-while-serving
# guarantee (the binary asserts the linearizability check before
# writing the flag).
assert data["serve_threads"] >= 2
assert data["serve_lookups"] > 0
assert data["serve_lookups_per_s"] >= 1e6, data["serve_lookups_per_s"]
assert 0 < data["serve_p50_us"] <= data["serve_p99_us"] < 1e4, (
    data["serve_p50_us"], data["serve_p99_us"])
assert data["refine_while_serving_ok"] is True
# Scenario substrate: every built-in platform must build a table end to
# end (feasible cells exist) and the convex controller must meet or beat
# the integral baseline on limit violations — including the capped memory
# dies of the 3D stack — at equal-or-better throughput. The binary
# asserts the same bounds before writing; checking the persisted numbers
# keeps the published telemetry trustworthy.
for scenario in ("niagara8", "biglittle8", "stacked3d"):
    s = data["scenarios"][scenario]
    for field in ("rows", "cols", "feasible_cells", "table_build_s",
                  "mean_point_s", "max_point_s", "baseline_violations",
                  "convex_violations", "baseline_throughput",
                  "convex_throughput"):
        assert field in s, f"missing scenarios.{scenario}.{field}"
        assert s[field] >= 0, f"negative scenarios.{scenario}.{field}"
    assert s["rows"] > 0 and s["cols"] > 0, f"{scenario}: empty grid"
    assert s["feasible_cells"] > 0, f"{scenario}: table build found no feasible cells"
    assert s["convex_violations"] <= s["baseline_violations"] + 1e-9, (
        f"{scenario}: convex {s['convex_violations']} vs "
        f"baseline {s['baseline_violations']}")
    assert s["convex_throughput"] >= s["baseline_throughput"] * 0.999, (
        f"{scenario}: convex {s['convex_throughput']} vs "
        f"baseline {s['baseline_throughput']} work-s/s")
# Degraded-mode robustness: the seeded fault campaign must complete with
# zero temperature-cap violations, every tick inside the fixed Newton
# deadline (the deterministic worst-case-latency bound), and the ladder
# back at full MPC for the majority of the run. The binary asserts the
# same contract before writing; checking the persisted numbers keeps the
# published robustness telemetry trustworthy.
assert data["cap_violations_under_faults"] == 0, data["cap_violations_under_faults"]
occ = data["ladder_occupancy"]
assert len(occ) == 5 and abs(sum(occ) - 1.0) < 1e-3, occ
assert occ[0] > 0.5, occ
assert data["fault_recovery_ticks_p99"] >= 0
fc = data["fault_campaign"]
assert fc["episodes"] > 0 and fc["windows"] > 0
assert fc["budget_overruns"] == 0, fc
assert 0 < fc["max_tick_newton"] <= fc["tick_budget"], fc
print(f"fault campaign: {fc['episodes']} episodes over {fc['windows']} windows, "
      f"occupancy {occ}, recovery p99 {data['fault_recovery_ticks_p99']:.0f} ticks, "
      f"worst tick {fc['max_tick_newton']}/{fc['tick_budget']} newton steps, "
      f"cap violations {data['cap_violations_under_faults']}")
print(f"serving tier: {data['serve_lookups_per_s']/1e6:.2f}M lookups/s "
      f"({data['serve_threads']} threads, {data['serve_lookups']} lookups, "
      f"p50 {data['serve_p50_us']:.2f} us, p99 {data['serve_p99_us']:.2f} us, "
      f"refine-while-serving ok)")
print("telemetry check: ok "
      f"(screened {data['screened']['newton_steps']} newton steps, "
      f"{data['screened']['certificate_screens']} screens, "
      f"{data['screened']['rows_pruned']} rows pruned, "
      f"{data['screened']['chain_reentries']} chain re-entries; "
      f"unpruned {data['unpruned']['newton_steps']} newton steps; "
      f"cold wall ratio {data['pruning_cold_wall_ratio']:.2f}, "
      f"family build {data['family_build_s']:.2f} s; "
      f"incremental {data['incremental']['newton_steps']} newton steps, "
      f"{data['incremental']['seed_reuses']} reused cells, "
      f"{data['incremental']['incremental_screens']} inherited screens; "
      f"modal {data['modal']['rows_full']} -> {data['modal']['rows_reduced']} "
      f"thermal rows, {data['modal']['coverage_lost']} cells lost; "
      f"screened window {data['screened_window_s']*1e3:.1f} ms vs "
      f"bisection {data['bisection_window_s']*1e3:.1f} ms)")
for scenario in ("niagara8", "biglittle8", "stacked3d"):
    s = data["scenarios"][scenario]
    print(f"scenario {scenario}: {s['feasible_cells']} feasible cells, "
          f"table {s['table_build_s']:.2f} s "
          f"({s['mean_point_s']:.4f} s/pt mean, {s['max_point_s']:.4f} max), "
          f"violations {s['baseline_violations']:.5f} -> "
          f"{s['convex_violations']:.5f}, "
          f"throughput {s['baseline_throughput']:.3f} -> "
          f"{s['convex_throughput']:.3f} work-s/s")
EOF

# Publish the quick-run telemetry at the repo root so the perf headline is
# one `cat` away (and diffs show up in review next to the code that moved
# them). This is a verbatim copy of the checked quick JSON above.
cp results/tab_solver_runtime_quick.json BENCH_tab_solver_runtime.json
echo "==> BENCH_tab_solver_runtime.json refreshed from quick run"

# The published copy must carry the serving-tier telemetry too (both
# bench JSONs, per the serving-tier contract): a drifted or truncated
# copy would publish a perf headline with the read-path numbers missing.
python3 - <<'EOF'
import json
with open("BENCH_tab_solver_runtime.json") as f:
    data = json.load(f)
assert data["serve_lookups_per_s"] >= 1e6, data["serve_lookups_per_s"]
assert 0 < data["serve_p50_us"] <= data["serve_p99_us"] < 1e4
assert data["refine_while_serving_ok"] is True
assert data["cap_violations_under_faults"] == 0, data["cap_violations_under_faults"]
assert data["ladder_occupancy"][0] > 0.5, data["ladder_occupancy"]
assert data["fault_recovery_ticks_p99"] >= 0
print("published bench JSON: serving-tier and fault-campaign telemetry ok")
EOF

# The benchmark (perfbench/) is a workspace of its own that builds against
# crates/* as path dependencies, so nothing above compiles it. Build and
# test it here, then smoke-run every workload for one second (each runs at
# least one iteration: one 80-cell paper-grid sweep, one closed MPC loop,
# one stacked3d table loop): an API change in crates/* that breaks the
# benchmark, or a workload that stops passing its own output checks —
# design_sweep compares the paper-grid feasibility map with its stored
# reference — fails CI instead of the next benchmark run. Only correctness
# is asserted; the smoke runs' timings are not. The benchmark's code is
# held to the same fmt and clippy bar as the code it measures.
echo "==> perfbench: fmt + clippy + cargo test + one-second smoke run of every workload"
cargo fmt --check --manifest-path perfbench/Cargo.toml
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
cargo test --release --offline --manifest-path perfbench/Cargo.toml
for workload in design_sweep mpc_loop table_loop_3d; do
    smoke="$(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 | tail -n 1)"
    python3 - "$workload" "$smoke" <<'EOF'
import json
import sys
workload = sys.argv[1]
result = json.loads(sys.argv[2])
assert result["correct"] is True, (workload, result)
assert result["failed"] == 0, (workload, result)
assert result["attempted"] > 0, (workload, result)
print(f"perfbench smoke: {workload} correct, "
      f"{result['attempted']} operations, 0 failed")
EOF
done

echo "ci.sh: all green"
