#!/usr/bin/env bash
# Builds the benchmark (release, offline, into $CARGO_TARGET_DIR or
# benchmark/target) and runs it; every argument passes through:
#
#   benchmark/run.sh --workload mc --seed 7 --seconds 10 --trace 1
#   benchmark/run.sh --smoke            # all five workloads at tiny sizes
#
# Build output goes to stderr, so the last stdout line is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/abr-benchmark" "$@"
