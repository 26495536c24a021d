//! Golden-artifact regression tests: the checked-in `results/` artifacts
//! must match what the code regenerates, on every `cargo test`.
//!
//! Pinned artifacts:
//! * `results/f4b.trace.jsonl` — the full event trace of the F4b session
//!   (deterministic stamping: `wall_ns` is 0, see DESIGN.md §10), exactly
//!   what `exp --id f4b --trace results/f4b.trace.jsonl` writes.
//! * `results/<id>.json` for every experiment id (the structured
//!   summaries, exactly what `exp --id <id> --json results` writes) and
//!   `results/all_experiments.txt` (what `exp --all --json results`
//!   prints).
//! * `results/fleet_small.txt` / `results/fleet_small.json` — the full
//!   report of a 16-session shared-fate fleet (DESIGN.md §14), exactly
//!   what `exp fleet --sessions 16 --arrival-secs 30` emits; since the
//!   fleet is byte-identical at every `--jobs` and shard count
//!   (`tests/fleet_determinism.rs`), one golden pins them all.
//! * `results/fleet_comparison.txt` — the demuxed-vs-muxed head-to-head
//!   over the same topology (`exp fleet … --delivery both`), the fleet
//!   engine's headline artifact. Its compact JSON has no checked-in
//!   golden; the test pins its length and FNV-1a digest instead, as
//!   `tests/mc_pins.rs` does for `exp mc`.
//! * `results/fleet_evict.txt` — the same head-to-head with 64 sessions
//!   behind a 16 MB per-domain cache, so thousands of LRU evictions per
//!   domain reach the artifact (the goldens above never evict): pins the
//!   cache's victim order end to end.
//!
//! After an *intentional* behavior change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden_artifacts
//! ```
//!
//! then review the diff with `git diff results/` before committing — the
//! update path writes whatever the code now produces, so the review is
//! the only check that the change was really intended.

mod common;

use abr_bench::experiments::{all_ids, run_jobs, traced_sessions};
use abr_obs::export::to_jsonl;
use std::fmt::Write as _;
use std::path::PathBuf;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn update_goldens() -> bool {
    std::env::var("UPDATE_GOLDENS")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Compares `actual` against the checked-in golden at `rel`, naming the
/// first diverging line; with `UPDATE_GOLDENS=1`, rewrites the golden
/// instead.
fn check_golden(rel: &str, actual: &str) {
    let path = repo_path(rel);
    if update_goldens() {
        std::fs::write(&path, actual).expect("rewrite golden");
        eprintln!("[golden `{rel}` regenerated]");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden `{rel}`: {e}"));
    if expected == actual {
        return;
    }
    for (n, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        if want != got {
            panic!(
                "golden `{rel}` diverges at line {}:\n  golden: {want}\n  actual: {got}\n\
                 if this change is intentional, regenerate with \
                 `UPDATE_GOLDENS=1 cargo test --test golden_artifacts` and review `git diff results/`",
                n + 1
            );
        }
    }
    panic!(
        "golden `{rel}`: line count {} (golden) vs {} (actual), common prefix identical\n\
         if this change is intentional, regenerate with \
         `UPDATE_GOLDENS=1 cargo test --test golden_artifacts` and review `git diff results/`",
        expected.lines().count(),
        actual.lines().count()
    );
}

#[test]
fn f4b_trace_matches_golden() {
    let outcomes = traced_sessions("f4b", 1).expect("f4b is traceable");
    assert_eq!(outcomes.len(), 1, "f4b is a single-session experiment");
    check_golden("results/f4b.trace.jsonl", &to_jsonl(&outcomes[0].events));
}

/// Every experiment's JSON, and the `--all` stdout that names where each
/// one was written.
#[test]
fn every_experiment_matches_its_goldens() {
    let mut all = String::new();
    for id in all_ids() {
        let result = run_jobs(id, 1).expect("listed id exists");
        let actual = serde_json::to_string_pretty(&result.json).expect("serialize");
        check_golden(&format!("results/{id}.json"), &actual);
        let _ = write!(
            all,
            "=== {} — {} ===\n{}\n[json written to results/{id}.json]\n\n",
            result.id, result.title, result.text
        );
    }
    check_golden("results/all_experiments.txt", &all);
}

#[test]
fn fleet_small_matches_goldens() {
    let spec = abr_bench::fleet::FleetSpec {
        arrival_secs: 30,
        ..abr_bench::fleet::FleetSpec::small(16)
    };
    let result = abr_bench::fleet::run_fleet(&spec, 1);
    check_golden("results/fleet_small.txt", &result.text);
    let actual = serde_json::to_string_pretty(&result.json).expect("serialize");
    check_golden("results/fleet_small.json", &actual);
}

#[test]
fn fleet_comparison_matches_golden() {
    let spec = abr_bench::fleet::FleetSpec {
        arrival_secs: 30,
        ..abr_bench::fleet::FleetSpec::small(16)
    };
    let result = abr_bench::fleet::run_fleet_comparison(&spec, 1);
    check_golden("results/fleet_comparison.txt", &result.text);
    let json = serde_json::to_string(&result.json).expect("serialize");
    assert_eq!(
        (json.len(), common::fnv1a(&json)),
        (4560, 0xa835_a6fa_05f3_19f0)
    );
}

#[test]
fn fleet_evict_matches_golden() {
    let spec = abr_bench::fleet::FleetSpec {
        arrival_secs: 30,
        cache_mb: 16,
        ..abr_bench::fleet::FleetSpec::small(64)
    };
    let result = abr_bench::fleet::run_fleet_comparison(&spec, 1);
    check_golden("results/fleet_evict.txt", &result.text);
}
