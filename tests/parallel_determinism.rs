//! Differential harness for the deterministic parallel sweep engine
//! (`abr_bench::runner`).
//!
//! The runner's contract (DESIGN.md §10): every experiment artifact —
//! rendered table text, structured JSON, per-session `SessionLog`s and
//! exported event traces — is **bit-identical**
//! between a serial run (`--jobs 1`) and a parallel run at any worker
//! count. These tests run representative experiments at `--jobs 1/2/8`
//! and compare field-by-field; a failure names the first diverging
//! field or event, not just "something differed".
//!
//! Worker counts above the host's core count are honored by the runner
//! precisely so this suite exercises real thread interleavings even on
//! single-core CI machines.

use std::collections::BTreeSet;
use std::rc::Rc;

use abr_bench::experiments::{run_jobs, traced_sessions};
use abr_bench::runner::{run_pool, SessionOutcome};
use abr_event::rng::SplitMix64;
use abr_obs::export::to_jsonl;
use abr_obs::Profiler;
use abr_player::SessionLog;
use proptest::prelude::*;
use serde::{Serialize, Value};

/// The parallel worker counts every differential case runs at (serial
/// `--jobs 1` is the reference).
const PARALLEL_JOBS: [usize; 2] = [2, 8];

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
                    "{path}: array length {} (serial) vs {} (parallel)",
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
            (ra != rb).then(|| format!("{path}: serial={ra} parallel={rb}"))
        }
    }
}

/// Field-by-field `SessionLog` comparison through its serde view; the
/// panic message carries the first diverging field path (e.g.
/// `log.transfers[12].duration`).
fn assert_logs_identical(label: &str, jobs: usize, serial: &SessionLog, parallel: &SessionLog) {
    if let Some(d) = first_divergence("log", &serial.to_value(), &parallel.to_value()) {
        panic!("session `{label}` diverges between --jobs 1 and --jobs {jobs}:\n  {d}");
    }
}

/// Line-by-line comparison of the exported JSONL event streams; names
/// the first diverging event.
fn assert_events_identical(label: &str, jobs: usize, serial: &SessionOutcome, p: &SessionOutcome) {
    let (a, b) = (to_jsonl(&serial.events), to_jsonl(&p.events));
    if a == b {
        return;
    }
    for (n, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            panic!(
                "session `{label}`: first diverging event #{n} between --jobs 1 and \
                 --jobs {jobs}:\n  serial:   {la}\n  parallel: {lb}"
            );
        }
    }
    panic!(
        "session `{label}`: event count {} (--jobs 1) vs {} (--jobs {jobs}), \
         common prefix identical",
        serial.events.len(),
        p.events.len()
    );
}

/// Runs experiment `id` serially and at each parallel worker count, and
/// asserts every artifact matches the serial reference.
fn assert_serial_parallel_identical(id: &str) {
    let serial_result = run_jobs(id, 1).expect("known experiment id");
    let serial = traced_sessions(id, 1).expect("experiment has traceable sessions");
    for jobs in PARALLEL_JOBS {
        let result = run_jobs(id, jobs).expect("known experiment id");
        assert_eq!(
            serial_result.text, result.text,
            "`{id}` rendered table diverges at --jobs {jobs}"
        );
        if let Some(d) = first_divergence("json", &serial_result.json, &result.json) {
            panic!("`{id}` JSON artifact diverges at --jobs {jobs}:\n  {d}");
        }
        let outcomes = traced_sessions(id, jobs).expect("experiment has traceable sessions");
        assert_eq!(
            serial.len(),
            outcomes.len(),
            "`{id}` session count diverges at --jobs {jobs}"
        );
        for (s, p) in serial.iter().zip(&outcomes) {
            assert_eq!(
                s.label, p.label,
                "`{id}` session order diverges at --jobs {jobs}"
            );
            assert_logs_identical(&s.label, jobs, &s.log, &p.log);
            assert_events_identical(&s.label, jobs, s, p);
        }
    }
}

/// F2a (single session): the degenerate one-spec sweep still round-trips
/// through the pool unchanged.
#[test]
fn f2a_serial_vs_parallel() {
    assert_serial_parallel_identical("f2a");
}

/// F4b (single session, varying trace): the golden-artifact experiment.
#[test]
fn f4b_serial_vs_parallel() {
    assert_serial_parallel_identical("f4b");
}

/// BP1 (24-session grid): the main sweep — four traces × six players
/// sharded across workers in arbitrary claim order.
#[test]
fn bp1_sweep_serial_vs_parallel() {
    assert_serial_parallel_identical("bp1");
}

/// F3fix (3-arm sweep with distinct policies per arm).
#[test]
fn f3fix_sweep_serial_vs_parallel() {
    assert_serial_parallel_identical("f3fix");
}

/// The sweep experiments that parallelize internally but have no traced
/// form still render identical tables under parallelism.
#[test]
fn table_sweeps_serial_vs_parallel() {
    for id in ["bp2", "bp4", "bp5", "m2"] {
        let serial = run_jobs(id, 1).expect("known experiment id");
        for jobs in PARALLEL_JOBS {
            let result = run_jobs(id, jobs).expect("known experiment id");
            assert_eq!(
                serial.text, result.text,
                "`{id}` rendered table diverges at --jobs {jobs}"
            );
            if let Some(d) = first_divergence("json", &serial.json, &result.json) {
                panic!("`{id}` JSON artifact diverges at --jobs {jobs}:\n  {d}");
            }
        }
    }
}

/// A pure per-index workload for the scheduling proptests: a few RNG
/// draws, so each item costs enough that workers genuinely interleave.
fn item_value(i: usize) -> u64 {
    let mut rng = SplitMix64::for_stream(0x5eed_cafe, i as u64);
    (0..8).fold(0u64, |acc, _| acc.wrapping_add(rng.next_u64()))
}

/// Fisher–Yates permutation of `0..n` from a seed — an arbitrary claim
/// order hint.
fn random_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.range_u64(0, i as u64) as usize;
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chunk size, worker count, claim-order hint and profiling are
    /// scheduling knobs, not semantics (DESIGN.md §16): for any `(n,
    /// jobs, chunk)` and any permutation hint, the pool returns exactly
    /// the serial map, in index order. Profiled, it also accounts for every item: worker
    /// rows sum to `n`, each worker's claim and busy time fit in its
    /// lifetime, and the merged spans and item histogram count `n` items.
    #[test]
    fn chunked_claiming_is_schedule_blind(
        n in 0usize..97,
        jobs in 1usize..9,
        chunk in 1usize..33,
        hint_seed in any::<u64>(),
    ) {
        let reference: Vec<u64> = (0..n).map(item_value).collect();
        let item = |i: usize, prof: Option<&Rc<Profiler>>| {
            let _span = prof.map(|p| p.span("item"));
            item_value(i)
        };
        let (unhinted, pool) = run_pool(n, jobs, chunk, None, false, item);
        prop_assert_eq!(&reference, &unhinted);
        prop_assert!(pool.is_none());
        let order = random_permutation(n, hint_seed);
        let (hinted, _) = run_pool(n, jobs, chunk, Some(&order), false, item);
        prop_assert_eq!(&reference, &hinted);
        let (profiled, pool) = run_pool(n, jobs, chunk, Some(&order), true, item);
        prop_assert_eq!(&reference, &profiled);
        let pool = pool.expect("profiled run returns a profile");
        prop_assert_eq!(pool.items, n as u64);
        prop_assert_eq!(pool.jobs, jobs.min(n.max(1)));
        prop_assert_eq!(pool.workers.iter().map(|w| w.items).sum::<u64>(), n as u64);
        for w in &pool.workers {
            prop_assert!(
                w.claim_ns + w.busy_ns <= w.alive_ns,
                "worker {}: claim {}ns + busy {}ns exceeds alive {}ns",
                w.worker,
                w.claim_ns,
                w.busy_ns,
                w.alive_ns
            );
        }
        prop_assert_eq!(pool.spans.roots.iter().map(|r| r.count).sum::<u64>(), n as u64);
        prop_assert_eq!(pool.item_wall.count, n as u64);
        prop_assert!(pool.wall_ns >= pool.run_ns);
    }
}
