#!/usr/bin/env bash
# Records one run of the repository benchmark into BENCH.json and gates
# it; no arguments. The run is `benchmark/run.sh --seconds 10` (all five
# workloads, traced; 10 is BENCHMARK.json's run_seconds). Its result line
# becomes the entry, with the date, commit, host_cores, parallel_ratio
# and speedup_reliable added; `bench_check check` then exits 1 if the
# entry fails the gate (crates/bench/src/history.rs).
#
# Parallel-capacity probe: before and after the run, one fixed awk kernel
# runs alone, then two copies at once. parallel_ratio is the larger
# pair/solo wall ratio; the entry is speedup_reliable only with two or
# more cores and a ratio of at most 1.15.
set -euo pipefail
cd "$(dirname "$0")/.."

kernel() {
    awk 'BEGIN { x = 1; for (i = 0; i < 2000000; i++) x = (x * 48271) % 2147483647; print x }' >/dev/null
}

# Prints the pair/solo wall ratio of one probe.
probe() {
    local t0 t1 t2
    t0=$EPOCHREALTIME
    kernel
    t1=$EPOCHREALTIME
    kernel &
    kernel &
    wait
    t2=$EPOCHREALTIME
    awk -v a="$t0" -v b="$t1" -v c="$t2" 'BEGIN { printf "%.3f", (c - b) / (b - a) }'
}

cargo build --release --offline --quiet -p abr-bench --bin bench_check >&2
cores=$(nproc)
before=$(probe)
# A failed run still prints its result line: record it, and let the gate
# say what failed.
result=$(bash benchmark/run.sh --seconds 10 | tee /dev/stderr | tail -n 1) || true
after=$(probe)
ratio=$(awk -v a="$before" -v b="$after" 'BEGIN { print (a > b ? a : b) }')
reliable=$(awk -v c="$cores" -v r="$ratio" 'BEGIN { print (c >= 2 && r <= 1.15 ? "true" : "false") }')
echo "parallel-capacity probe: $before before, $after after, $cores cores" >&2

printf '{"recorded": "%s", "commit": "%s", "host_cores": %s, "parallel_ratio": %s, "speedup_reliable": %s, %s\n' \
    "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$(git rev-parse --short HEAD)" "$cores" "$ratio" "$reliable" "${result#\{}" |
    "${CARGO_TARGET_DIR:-target}/release/bench_check" append --file BENCH.json --entry -
"${CARGO_TARGET_DIR:-target}/release/bench_check" check --file BENCH.json
