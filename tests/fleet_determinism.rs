//! Differential harness for the shared-fate fleet engine
//! (`abr_bench::fleet`).
//!
//! The fleet's contract (DESIGN.md §14): the spec is the *only* input —
//! the rendered report, the structured JSON artifact and every
//! per-session `SessionLog` are **bit-identical** at every `--jobs`
//! value and every shard count. Shards are a scheduling choice, not a
//! semantic one: domain `d` lives on shard `d % shards`, workers own
//! whole shards, and cross-domain state moves only at window barriers
//! folded in domain order, so no interleaving can reach the artifact.
//!
//! These tests run the same fleet at `--jobs 1/2/8` and at shard counts
//! 1/2/4 and compare field-by-field; a failure names the first diverging
//! session and field (e.g. `log.transfers[12].duration`), not just
//! "something differed". The fleet-of-1 lockstep test pins the whole
//! composition layer — plan realization, the shared edge, the windowed
//! stepper loop — to the plain single-session engine.

use std::collections::BTreeSet;

use abr_bench::fleet::{
    run_fleet, run_fleet_with, run_fleet_with_logs, standalone_log, FleetOptions, FleetResult,
    FleetSchedKnobs, FleetSpec,
};
use abr_player::session::DeliveryMode;
use abr_player::SessionLog;
use proptest::prelude::*;
use serde::{Serialize, Value};

/// The parallel worker counts every differential case runs at (serial
/// `--jobs 1` is the reference). Worker counts above the host's core
/// count are honored so this exercises real interleavings on 1-core CI.
const PARALLEL_JOBS: [usize; 2] = [2, 8];

/// A fleet big enough to exercise every domain, cache contention and the
/// window-sync throttle, small enough for debug-mode CI.
fn spec() -> FleetSpec {
    FleetSpec {
        arrival_secs: 30,
        ..FleetSpec::small(16)
    }
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "<unrenderable>".into())
}

/// Walks two JSON trees in lockstep and returns the path of the first
/// divergence (with both sides shown), or `None` when identical.
fn first_divergence(path: &str, a: &Value, b: &Value) -> Option<String> {
    match (a, b) {
        (Value::Object(ma), Value::Object(mb)) => {
            let keys: BTreeSet<&String> = ma.keys().chain(mb.keys()).collect();
            keys.into_iter().find_map(|k| {
                first_divergence(
                    &format!("{path}.{k}"),
                    ma.get(k).unwrap_or(&Value::Null),
                    mb.get(k).unwrap_or(&Value::Null),
                )
            })
        }
        (Value::Array(va), Value::Array(vb)) => {
            if va.len() != vb.len() {
                return Some(format!(
                    "{path}: array length {} (reference) vs {} (candidate)",
                    va.len(),
                    vb.len()
                ));
            }
            va.iter()
                .zip(vb)
                .enumerate()
                .find_map(|(i, (x, y))| first_divergence(&format!("{path}[{i}]"), x, y))
        }
        _ => {
            let (ra, rb) = (render(a), render(b));
            (ra != rb).then(|| format!("{path}: reference={ra} candidate={rb}"))
        }
    }
}

/// Field-by-field `SessionLog` comparison through the serde view; the
/// panic message names the first diverging session and field path.
fn assert_logs_identical(what: &str, reference: &[SessionLog], candidate: &[SessionLog]) {
    assert_eq!(
        reference.len(),
        candidate.len(),
        "session count diverges under {what}"
    );
    for (i, (a, b)) in reference.iter().zip(candidate).enumerate() {
        if let Some(d) = first_divergence("log", &a.to_value(), &b.to_value()) {
            panic!("session #{i} diverges under {what}:\n  {d}");
        }
    }
}

/// Every artifact of `candidate` must equal the serial reference:
/// rendered text, JSON tree, and all per-session logs.
fn assert_fleets_identical(what: &str, reference: &FleetResult, candidate: &FleetResult) {
    assert_eq!(
        reference.text, candidate.text,
        "rendered fleet report diverges under {what}"
    );
    if let Some(d) = first_divergence("json", &reference.json, &candidate.json) {
        panic!("fleet JSON artifact diverges under {what}:\n  {d}");
    }
    assert_logs_identical(
        what,
        reference.logs.as_deref().expect("reference keeps logs"),
        candidate.logs.as_deref().expect("candidate keeps logs"),
    );
}

/// The tentpole property: one fleet spec, swept across worker counts —
/// every artifact byte-identical to the serial run.
#[test]
fn fleet_artifacts_are_identical_across_jobs() {
    let spec = spec();
    let serial = run_fleet_with_logs(&spec, 1);
    for jobs in PARALLEL_JOBS {
        let parallel = run_fleet_with_logs(&spec, jobs);
        assert_fleets_identical(&format!("--jobs 1 vs --jobs {jobs}"), &serial, &parallel);
    }
}

/// Shard count is a scheduling choice: sweeping it must not move any
/// substantive output. The spec echo (header line 1 and `json.spec.shards`)
/// is the *only* place the shard count may appear.
#[test]
fn fleet_artifacts_are_identical_across_shard_counts() {
    let reference = run_fleet_with_logs(&spec(), 2);
    for shards in [1, 2] {
        let candidate = run_fleet_with_logs(&FleetSpec { shards, ..spec() }, 2);
        let what = format!("shards 4 vs shards {shards}");

        // Text: identical except the header line that echoes the spec.
        let strip = |r: &FleetResult| {
            let mut lines = r.text.lines();
            let header = lines.next().expect("report has a header");
            assert!(header.contains("shards"), "line 1 is the spec echo");
            lines.collect::<Vec<_>>().join("\n")
        };
        assert_eq!(
            strip(&reference),
            strip(&candidate),
            "rendered fleet report diverges under {what}"
        );

        // JSON: identical except `spec.shards`.
        let (a, b) = (&reference.json, &candidate.json);
        if let (Value::Object(ma), Value::Object(mb)) = (a, b) {
            let keys: BTreeSet<&String> = ma.keys().chain(mb.keys()).collect();
            for k in keys {
                if k == "spec" {
                    continue;
                }
                if let Some(d) = first_divergence(
                    &format!("json.{k}"),
                    ma.get(k).unwrap_or(&Value::Null),
                    mb.get(k).unwrap_or(&Value::Null),
                ) {
                    panic!("fleet JSON artifact diverges under {what}:\n  {d}");
                }
            }
        } else {
            panic!("fleet JSON artifact is not an object");
        }
        if let (Value::Object(sa), Value::Object(sb)) = (&a["spec"], &b["spec"]) {
            let keys: BTreeSet<&String> = sa.keys().chain(sb.keys()).collect();
            for k in keys {
                if k == "shards" {
                    continue;
                }
                if let Some(d) = first_divergence(
                    &format!("json.spec.{k}"),
                    sa.get(k).unwrap_or(&Value::Null),
                    sb.get(k).unwrap_or(&Value::Null),
                ) {
                    panic!("fleet spec echo diverges under {what}:\n  {d}");
                }
            }
        } else {
            panic!("fleet JSON artifact carries no spec echo");
        }

        // Logs: full byte identity — sessions never see the shard layout.
        assert_logs_identical(
            &what,
            reference.logs.as_deref().expect("reference keeps logs"),
            candidate.logs.as_deref().expect("candidate keeps logs"),
        );
    }
}

/// The no-log path is the artifact: `exp fleet` and the benchmark run
/// `run_fleet`, whose sessions stream into a QoE digest instead of
/// growing a log. Its rendered report and JSON must equal the log-keeping
/// run's, which summarizes each kept log replayed into the same digest —
/// across worker counts, shard counts, both deliveries and a sparse fleet.
#[test]
fn digest_path_matches_the_log_path() {
    let mut specs = Vec::new();
    for delivery in [DeliveryMode::Demuxed, DeliveryMode::Muxed] {
        for shards in [1, 4] {
            specs.push(FleetSpec {
                delivery,
                shards,
                ..spec()
            });
        }
    }
    specs.push(sparse_spec());
    for spec in &specs {
        for jobs in [1, 2] {
            let what = format!(
                "digest vs log path ({:?}, shards {}, {} sessions, --jobs {jobs})",
                spec.delivery, spec.shards, spec.sessions
            );
            let logged = run_fleet_with_logs(spec, jobs);
            let digested = run_fleet(spec, jobs);
            assert!(digested.logs.is_none(), "run_fleet keeps no logs");
            assert_eq!(
                logged.text, digested.text,
                "rendered fleet report diverges under {what}"
            );
            if let Some(d) = first_divergence("json", &logged.json, &digested.json) {
                panic!("fleet JSON artifact diverges under {what}:\n  {d}");
            }
        }
    }
}

/// Fleet-of-1 lockstep parity: a one-session fleet (with the origin
/// throttle disengaged, since a standalone session has no window-sync)
/// must produce a `SessionLog` byte-identical to the same session built
/// the same way but driven by plain `Session::run`. This pins the
/// externally-clocked stepper loop, the arrival-offset time translation
/// and the shared-edge path to the single-session engine.
#[test]
fn fleet_of_one_matches_the_standalone_session() {
    let spec = FleetSpec {
        // High enough that fleet-wide demand never exceeds it: the
        // window-sync rule is the one fleet mechanism with no standalone
        // counterpart, so it must stay disengaged for exact parity.
        origin_kbps: 1_000_000_000,
        ..FleetSpec::small(1)
    };
    let standalone = standalone_log(&spec, 0);
    for jobs in [1, 2] {
        let fleet = run_fleet_with_logs(&spec, jobs);
        let logs = fleet.logs.as_deref().expect("logs kept");
        assert_logs_identical(
            &format!("fleet-of-1 (--jobs {jobs}) vs standalone Session::run"),
            std::slice::from_ref(&standalone),
            logs,
        );
    }
}

/// [`run_fleet_with`] keeping logs, under explicit scheduling knobs.
fn run_fleet_sched(spec: &FleetSpec, jobs: usize, knobs: FleetSchedKnobs) -> FleetResult {
    let options = FleetOptions {
        keep_logs: true,
        knobs,
        profile: false,
    };
    run_fleet_with(spec, jobs, options).0
}

/// A sparse fleet: two sessions spread over ~7 minutes of fleet time, so
/// long quiescent stretches separate arrival from arrival and the
/// fast-forward path has real windows to skip (the first arrival alone
/// leaves hundreds of empty 250 ms windows ahead of it).
fn sparse_spec() -> FleetSpec {
    FleetSpec {
        arrival_secs: 400,
        ..FleetSpec::small(2)
    }
}

/// Quiescent-window fast-forward is a scheduling knob (DESIGN.md §16):
/// skipping provably empty windows must leave every artifact — rendered
/// report, JSON (including the `windows` and `throttled_windows`
/// counters) and all session logs — byte-identical to the stepwise run
/// that grinds through each window.
#[test]
fn fast_forward_matches_the_stepwise_reference() {
    let stepwise = run_fleet_sched(&sparse_spec(), 1, FleetSchedKnobs { ff_horizon: 0 });
    for (jobs, horizon) in [(1, 1), (2, 1), (2, 4), (8, 16)] {
        let ff = run_fleet_sched(
            &sparse_spec(),
            jobs,
            FleetSchedKnobs {
                ff_horizon: horizon,
            },
        );
        assert_fleets_identical(
            &format!("stepwise vs ff_horizon {horizon} at --jobs {jobs}"),
            &stepwise,
            &ff,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random (worker count, fast-forward horizon) pairs against the
    /// stepwise run at the same worker count: the horizon may decide
    /// *when* the window clock jumps, never *what* the fleet produces.
    #[test]
    fn fast_forward_horizon_is_schedule_blind(
        jobs in 1usize..7,
        horizon in 1u64..32,
    ) {
        let stepwise = run_fleet_sched(&sparse_spec(), jobs, FleetSchedKnobs { ff_horizon: 0 });
        let ff = run_fleet_sched(&sparse_spec(), jobs, FleetSchedKnobs { ff_horizon: horizon });
        assert_fleets_identical(
            &format!("stepwise vs ff_horizon {horizon} at --jobs {jobs}"),
            &stepwise,
            &ff,
        );
    }
}
