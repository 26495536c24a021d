#!/usr/bin/env bash
# Fails when one test binary registers a test name more than once.
#
# A doubly registered test runs twice and counts twice in the suite's
# totals (the way a macro that adds its own `#[test]` on top of the
# caller's does). Lists every test of every workspace binary with
# `cargo test --workspace -- --list` and prints each name that appears
# twice within one binary, under the binary it came from.
#
# Usage: scripts/duplicate_tests.sh [extra cargo test args...]
set -euo pipefail
cd "$(dirname "$0")/.."

# cargo announces each binary on stderr ("Running ..." / "Doc-tests ...")
# just before the binary prints its list on stdout; one merged stream
# keeps every name under its binary.
cargo test --workspace "$@" -- --list --format terse 2>&1 | awk '
    /^ *(Running|Doc-tests) / { bin = $0; sub(/^ +/, "", bin); delete seen; next }
    / *: (test|bench)$/ {
        if (seen[$0]++ == 1) { print "duplicate in " bin ": " $0; dup = 1 }
    }
    END { exit dup }
' && echo "duplicate_tests.sh: every test name is registered once per binary"
