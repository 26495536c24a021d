#!/usr/bin/env bash
# Preflight for the determinism contract: what the CI lint job runs, plus
# the rustdoc, example, serde-feature and benchmark workspace steps from
# the check job, bundled so a contributor can check a change before
# pushing.
#
#  1. abr-lint      — the workspace determinism + concurrency linter
#                     (DESIGN.md §12, §17);
#  2. sync_model    — the exhaustive concurrency model check in release
#                     mode (DESIGN.md §17): every bounded interleaving
#                     of the window-barrier and chunked-claim protocols;
#  3. cargo fmt     — formatting, check-only;
#  4. cargo clippy  — the workspace lint set, warnings denied;
#  5. cargo doc     — rustdoc with warnings denied, so an intra-doc link
#                     left pointing at a deleted item fails here;
#  6. examples     — every example run in release, then `results/` must
#                     match the checked-in copy (trace_session rewrites
#                     results/f4b.trace.jsonl);
#  7. serde feature — `abr-player`'s tests with `--features serde`, the
#                     only build of its serde impls;
#  8. cargo test    — the full suite with `debug-invariants` on, so the
#                     runtime invariant checks in Link/EventQueue/
#                     FlightBoard/WindowBoard/claim ledger run under
#                     every golden and differential test;
#  9. duplicates    — no test binary registers a test name twice
#                     (scripts/duplicate_tests.sh), so no test runs or
#                     counts twice;
# 10. benchmark     — the frozen `benchmark/` workspace's own tests, so a
#                     change to the public API it calls fails here, not
#                     only in CI's check job.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== abr-lint (determinism + concurrency contract) =="
cargo run -q -p abr-lint

echo "== sync_model (exhaustive concurrency model check) =="
cargo test -q -p abr-event --release --test sync_model

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== every example (release), then git diff --exit-code results/ =="
for ex in examples/*.rs; do
    cargo run -q --release --example "$(basename "$ex" .rs)" > /dev/null
done
git diff --exit-code results/

echo "== cargo test (serde feature) =="
cargo test -q -p abr-player --features serde

echo "== cargo test (debug-invariants) =="
cargo test --workspace -q --features abr-unmuxed/debug-invariants

echo "== duplicate test registrations =="
bash scripts/duplicate_tests.sh

echo "== benchmark workspace tests =="
cargo test -q --manifest-path benchmark/Cargo.toml

echo "lint.sh: all clean"
