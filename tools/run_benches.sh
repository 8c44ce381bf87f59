#!/usr/bin/env bash
# Perf-trajectory runner: executes the repo's measured benches and records
# their BENCH_*.json results at the repository root. Each bench writes via a
# temp file + rename, so an aborted run never leaves a torn record.
#
# CI diffs the freshly recorded files against the committed baselines with
# tools/check_bench.py and fails on regressions of the gated ratios.
#
# Every bench runs even when an earlier one fails (a bench exits 1 when one
# of its claims prints [DEVIATION]), so every record is re-measured; the
# script then exits 1 if any bench failed.
#
# Usage: tools/run_benches.sh [build-dir]   (default: build)
set -uo pipefail

build_dir="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"

failed=()
run() {
    "$build_dir/$1" --json "$repo_root/$2" || failed+=("$1")
}
run micro_sim_throughput BENCH_sim.json
run micro_dse_parallel BENCH_dse.json
run micro_format_search BENCH_fixed.json

if ((${#failed[@]})); then
    echo "run_benches: failed: ${failed[*]}" >&2
    exit 1
fi
