//! Profiling never perturbs artifacts (DESIGN.md §13).
//!
//! The span profiler reads the host clock and writes into its own arena;
//! nothing it does may leak into simulation outputs. These tests pin the
//! contract end to end:
//!
//! * `exp mc --profile` produces an [`abr_bench::mc::McResult`] whose
//!   text table and JSON report are **byte-identical** to the unprofiled
//!   sweep, at every `jobs` value; `exp fleet --profile` likewise for the
//!   fleet report, with a consistent per-worker ledger.
//! * A single traced session returns an identical log and event stream
//!   with and without a profiler attached, and so does every session of
//!   `exp --id <id> --profile` at any `jobs` value.
//! * The profile itself is useful: it names the hot dispatch/fetch/link
//!   spans and attributes ≥ 95% of measured session wall time to named
//!   spans (the ISSUE acceptance bar).

use std::rc::Rc;

use abr_bench::experiments::{run_sessions, traced_sessions};
use abr_bench::fleet::{run_fleet, run_fleet_with, FleetOptions, FleetResult, FleetSpec};
use abr_bench::mc::{run_mc, run_mc_with, McResult};
use abr_bench::profiling::WorkloadProfile;
use abr_bench::setup::{drama, run_traced, PlayerKind, SessionSpec};
use abr_core::bestpractice::BestPracticePolicy;
use abr_event::time::Duration;
use abr_net::trace::Trace;
use abr_obs::Profiler;

fn run_mc_profiled(seeds: u64, jobs: usize) -> (McResult, WorkloadProfile) {
    let (result, profile) = run_mc_with(seeds, jobs, true);
    (result, profile.expect("profiled run returns a profile"))
}

fn run_fleet_profiled(spec: &FleetSpec, jobs: usize) -> (FleetResult, WorkloadProfile) {
    let options = FleetOptions {
        profile: true,
        ..FleetOptions::default()
    };
    let (result, profile) = run_fleet_with(spec, jobs, options);
    (result, profile.expect("profiled run returns a profile"))
}

#[test]
fn mc_sweep_is_byte_identical_with_profiling_on() {
    let plain = run_mc(2, 1);
    for jobs in [1usize, 2, 8] {
        let (profiled, profile) = run_mc_profiled(2, jobs);
        assert_eq!(
            plain.text, profiled.text,
            "mc table changed with --profile at jobs={jobs}"
        );
        assert_eq!(
            serde_json::to_string_pretty(&plain.json).unwrap(),
            serde_json::to_string_pretty(&profiled.json).unwrap(),
            "mc JSON report changed with --profile at jobs={jobs}"
        );
        assert_eq!(plain.sessions, profiled.sessions);
        assert_eq!(profile.sessions, plain.sessions as u64);
    }
}

/// Under chunked claiming the claim stopwatch covers only the per-chunk
/// fetch-add rounds and item execution is timed separately, so the
/// per-worker ledger must stay consistent: every session is claimed by
/// exactly one worker, and a worker's claim + busy time never exceeds
/// its lifetime.
#[test]
fn worker_accounting_holds_under_chunked_claiming() {
    for jobs in [1usize, 2, 8] {
        let (result, profile) = run_mc_profiled(2, jobs);
        let claimed: u64 = profile.workers.iter().map(|w| w.items).sum();
        assert_eq!(
            claimed, result.sessions as u64,
            "workers claimed {claimed} items for {} sessions at jobs={jobs}",
            result.sessions
        );
        for w in &profile.workers {
            assert!(
                w.claim_ns + w.busy_ns <= w.alive_ns,
                "worker {}: claim {}ns + busy {}ns exceeds alive {}ns at jobs={jobs}",
                w.worker,
                w.claim_ns,
                w.busy_ns,
                w.alive_ns
            );
        }
    }
}

/// The fleet's worker rows: every session finishes in exactly one
/// worker, drain + fold (busy) and barrier wait (claim) never exceed a
/// worker's lifetime, and the profiled report is byte-identical to the
/// unprofiled one. Jobs 8 clamps to the spec's 4 shards, which
/// oversubscribes a host with fewer cores (the barrier's park path).
#[test]
fn fleet_profile_accounts_workers_and_keeps_the_artifact() {
    let spec = FleetSpec::small(24);
    let plain = run_fleet(&spec, 1);
    for jobs in [1usize, 2, 8] {
        let (profiled, profile) = run_fleet_profiled(&spec, jobs);
        assert_eq!(
            plain.text, profiled.text,
            "fleet report changed with --profile at jobs={jobs}"
        );
        assert_eq!(
            serde_json::to_string_pretty(&plain.json).unwrap(),
            serde_json::to_string_pretty(&profiled.json).unwrap(),
            "fleet JSON report changed with --profile at jobs={jobs}"
        );
        assert_eq!(profile.workers.len(), jobs.min(spec.shards));
        let finished: u64 = profile.workers.iter().map(|w| w.items).sum();
        assert_eq!(finished, spec.sessions as u64, "jobs={jobs}");
        for w in &profile.workers {
            assert!(
                w.claim_ns + w.busy_ns <= w.alive_ns,
                "worker {}: wait {}ns + busy {}ns exceeds alive {}ns at jobs={jobs}",
                w.worker,
                w.claim_ns,
                w.busy_ns,
                w.alive_ns
            );
        }
    }
}

#[test]
fn traced_session_is_identical_with_profiler_attached() {
    let content = drama();
    let make_policy = || {
        let view = abr_bench::setup::hls_sub_view(&content, &[0, 1, 2]);
        Box::new(BestPracticePolicy::from_hls(&view))
    };
    let session = || {
        let trace = Trace::fig4b_varying_600k(Duration::from_secs(600));
        SessionSpec::new(&content, PlayerKind::BestPractice, make_policy(), trace).build()
    };
    let (log_a, events_a) = run_traced(session(), None);
    let profiler = Rc::new(Profiler::new());
    let (log_b, events_b) = run_traced(session(), Some(&profiler));
    assert_eq!(format!("{log_a:?}"), format!("{log_b:?}"));
    assert_eq!(events_a, events_b, "traced event stream diverged");
    // And the profiler actually saw the session.
    let report = profiler.report();
    assert!(!report.roots.is_empty(), "profiler recorded nothing");
}

/// `exp --id <id> --profile` runs the same sessions as the plain path:
/// for a three-arm sweep, a 24-session grid and a single session, at
/// every worker count, the profiled outcomes match the serial unprofiled
/// ones and the pool's worker rows account for every spec. M3's header
/// counts its four sessions and the two edge items they ran in.
#[test]
fn profiled_sessions_match_traced_sessions() {
    for id in ["f3fix", "bp1", "f4b"] {
        let plain = traced_sessions(id, 1).expect("traceable experiment");
        for jobs in [1usize, 2, 8] {
            let (outcomes, profile) = run_sessions(id, jobs, true).expect("traceable experiment");
            let profile = profile.expect("profiled run returns a profile");
            assert_eq!(plain.len(), outcomes.len(), "{id} at jobs={jobs}");
            for (a, b) in plain.iter().zip(&outcomes) {
                assert_eq!(a.label, b.label, "{id}: session order at jobs={jobs}");
                assert!(
                    a.log == b.log,
                    "{}: log changed with --profile at jobs={jobs}",
                    a.label
                );
                assert!(
                    a.events == b.events,
                    "{}: events changed with --profile at jobs={jobs}",
                    a.label
                );
            }
            let items: u64 = profile.workers.iter().map(|w| w.items).sum();
            assert_eq!(items, plain.len() as u64, "{id} at jobs={jobs}");
            assert_eq!(profile.sessions, plain.len() as u64, "{id} at jobs={jobs}");
        }
    }
    // An edge experiment runs the viewers of one edge as one work item;
    // the header counts both, and the wall quantiles are per item.
    let (_, profile) = run_sessions("m3", 1, true).expect("m3 runs sessions");
    let text = profile.expect("profiled run returns a profile").text();
    assert!(
        text.starts_with("profile: m3 (4 sessions in 2 items, 1 jobs)\n"),
        "{text}"
    );
    assert!(
        text.contains("item wall: p50") && text.contains("(n = 2)"),
        "{text}"
    );
}

#[test]
fn profile_names_hot_spans_and_attributes_wall_time() {
    let (_, profile) = run_mc_profiled(2, 2);
    let flat = profile.spans.flatten();
    let names: Vec<&str> = flat.iter().map(|(_, _, node)| node.name.as_str()).collect();
    for expected in [
        "session.setup",
        "session.run",
        "session.summarize",
        "dispatch.transfer_complete",
        "fetch.round",
        "policy.select",
        "engine.arm_wakes",
        "link.advance_to",
        "link.next_completion",
        "transfer.on_completions",
    ] {
        assert!(
            names.contains(&expected),
            "span {expected} missing from profile (have: {names:?})"
        );
    }
    assert!(
        profile.attributed() >= 0.95,
        "named spans attribute only {:.1}% of measured wall time",
        100.0 * profile.attributed()
    );
    let text = profile.text();
    assert!(text.contains("attributed:"));
    assert!(text.contains("hot spans by self time:"));
    let json = profile.json();
    assert_eq!(json["format"], "abr-profile-v1");
    assert!(json["attributed"].as_f64().unwrap() >= 0.95);
}
