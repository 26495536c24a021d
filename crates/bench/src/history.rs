//! Append-only bench history and the regression gate behind
//! `bench_check` (DESIGN.md §13).
//!
//! `BENCH.json` (format [`FORMAT`]) holds one entry per run of
//! `scripts/bench_record.sh`: the result line of `benchmark/run.sh`
//! (`correct`, `attempted`, `failed` and the `<workload>/<metric>` map)
//! plus `recorded`, `commit`, `host_cores`, `parallel_ratio` and
//! `speedup_reliable`. [`check`] judges the latest entry against the most
//! recent prior entry with the same `host_cores`, with the end-to-end
//! metric names, directions and bounds of `BENCHMARK.json`; a
//! `speedup_reliable` entry must also clear the jobs-2 scaling floors.

use serde_json::{Map, Value};
use std::fmt::Write as _;

/// Version tag every history document carries.
pub const FORMAT: &str = "abr-bench-history-v2";

/// Scaling floor on a `speedup_reliable` entry: the mc sweep at jobs 2
/// must run at least this much faster than at jobs 1.
pub const MIN_JOBS2_SPEEDUP: f64 = 1.5;

/// Parses the checked-in `BENCHMARK.json`.
pub fn benchmark() -> Result<Value, String> {
    serde_json::from_str(include_str!("../../../BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// `(name, higher_is_better, bound)` for every end-to-end metric of a
/// benchmark description; the bound is the share of the baseline by
/// which the metric may worsen.
fn bounds(benchmark: &Value) -> Result<Vec<(&str, bool, f64)>, String> {
    let list = benchmark["end_to_end"]
        .as_array()
        .ok_or("benchmark description has no end_to_end list")?;
    list.iter()
        .enumerate()
        .map(|(i, m)| {
            let bound = m["bound"].as_f64().filter(|b| *b >= 0.0);
            match (m["name"].as_str(), m["better"].as_str(), bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => {
                    Ok((name, better == "higher", bound))
                }
                _ => Err(format!(
                    "end_to_end[{i}] needs a name, better (lower|higher) and a bound >= 0"
                )),
            }
        })
        .collect()
}

/// The fields of one entry the gate reads.
struct Entry<'a> {
    host_cores: u64,
    parallel_ratio: f64,
    speedup_reliable: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &'a Map,
}

impl<'a> Entry<'a> {
    fn parse(entry: &'a Value) -> Result<Self, String> {
        if !entry.is_object() {
            return Err("entry must be a JSON object".to_string());
        }
        let bad = |key: &str, what: &str| format!("entry {key} must be {what}");
        let uint = |key: &str| {
            entry[key]
                .as_u64()
                .ok_or_else(|| bad(key, "an integer >= 0"))
        };
        let flag = |key: &str| {
            entry[key]
                .as_bool()
                .ok_or_else(|| bad(key, "true or false"))
        };
        Ok(Entry {
            host_cores: uint("host_cores")?,
            parallel_ratio: entry["parallel_ratio"]
                .as_f64()
                .ok_or_else(|| bad("parallel_ratio", "a number"))?,
            speedup_reliable: flag("speedup_reliable")?,
            correct: flag("correct")?,
            attempted: uint("attempted")?,
            failed: uint("failed")?,
            metrics: entry["metrics"]
                .as_object()
                .ok_or_else(|| bad("metrics", "an object"))?,
        })
    }

    fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn value(&self, key: &str) -> Option<f64> {
        self.metrics.get(key)?.get("value")?.as_f64()
    }
}

/// The result of gating one history document.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    /// Metrics compared against a baseline or a floor.
    pub checked: usize,
    /// End-to-end metrics recorded without a baseline value to compare with.
    pub skipped: usize,
    /// Every reason the latest entry fails, one line each.
    pub failures: Vec<String>,
    /// Human-readable observations (skips, unreliable speedups, …).
    pub notes: Vec<String>,
}

impl CheckOutcome {
    /// True when the latest entry failed no rule.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line-per-fact rendering for CI logs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.failures {
            let _ = writeln!(out, "FAIL {f}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        let _ = writeln!(
            out,
            "bench_check: {} checked, {} skipped, {} failure(s)",
            self.checked,
            self.skipped,
            self.failures.len()
        );
        out
    }
}

fn entries(doc: &Value) -> Result<&Vec<Value>, String> {
    if doc.get("format").and_then(Value::as_str) != Some(FORMAT) {
        return Err(format!("not an {FORMAT} document"));
    }
    doc.get("entries")
        .and_then(Value::as_array)
        .ok_or_else(|| "document has no entries array".to_string())
}

/// Appends a measurement entry to a history document after checking the
/// format tag and the entry's shape. Entries are append-only by
/// construction — this is the only mutation `bench_check` performs.
pub fn append_entry(doc: &mut Value, entry: Value) -> Result<(), String> {
    entries(doc)?;
    Entry::parse(&entry)?;
    if let Value::Object(map) = doc {
        if let Some(Value::Array(list)) = map.get_mut("entries") {
            list.push(entry);
            return Ok(());
        }
    }
    unreachable!("entries() validated the document shape")
}

/// Renders a history document with one compact entry per line, so an
/// append adds one line to the file.
pub fn render(doc: &Value) -> Result<String, String> {
    entries(doc)?;
    let Value::Object(map) = doc else {
        unreachable!("entries() validated the document shape")
    };
    let mut out = String::from("{");
    for (i, (key, value)) in map.iter().enumerate() {
        out.push_str(if i == 0 { "\n  " } else { ",\n  " });
        serde_json::to_string_into(key, &mut out);
        out.push_str(": ");
        match value {
            Value::Array(list) if key == "entries" && !list.is_empty() => {
                for (j, entry) in list.iter().enumerate() {
                    out.push_str(if j == 0 { "[\n    " } else { ",\n    " });
                    serde_json::to_string_into(entry, &mut out);
                }
                out.push_str("\n  ]");
            }
            other => serde_json::to_string_into(other, &mut out),
        }
    }
    out.push_str("\n}\n");
    Ok(out)
}

/// Gates the latest entry of a history document with the end-to-end
/// bounds of `benchmark` (a parsed `BENCHMARK.json`). It fails when the
/// run is not correct, when its failed share rose, when a workload's
/// end-to-end metric is worse than the baseline's by more than its bound,
/// or when a `speedup_reliable` entry misses a scaling floor.
pub fn check(doc: &Value, benchmark: &Value) -> Result<CheckOutcome, String> {
    let bounds = bounds(benchmark)?;
    let entries = entries(doc)?
        .iter()
        .enumerate()
        .map(|(i, e)| Entry::parse(e).map_err(|err| format!("entries[{i}]: {err}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut outcome = CheckOutcome::default();
    let Some((latest, prior)) = entries.split_last() else {
        outcome
            .notes
            .push("history is empty; nothing to gate".into());
        return Ok(outcome);
    };
    if !latest.correct {
        outcome
            .failures
            .push("correct is false: an output check of the run failed".into());
    }
    let cores = latest.host_cores;
    let baseline = prior.iter().rev().find(|e| e.host_cores == cores);
    if let Some(base) = baseline.filter(|b| latest.failed_share() > b.failed_share()) {
        outcome.failures.push(format!(
            "failed share {}/{} is above the baseline's {}/{}",
            latest.failed, latest.attempted, base.failed, base.attempted
        ));
    }
    for key in latest.metrics.keys() {
        let Some(&(_, higher_is_better, bound)) = key
            .split_once('/')
            .and_then(|(_, name)| bounds.iter().find(|b| b.0 == name))
        else {
            continue;
        };
        let current = latest.value(key);
        let base = baseline.and_then(|b| b.value(key)).filter(|b| *b > 0.0);
        let (Some(current), Some(base)) = (current, base) else {
            outcome.skipped += 1;
            continue;
        };
        outcome.checked += 1;
        let delta = if higher_is_better {
            base - current
        } else {
            current - base
        };
        if delta / base > bound {
            outcome.failures.push(format!(
                "{key}: {current} vs baseline {base} is {:.1}% worse (bound {:.0}%)",
                100.0 * delta / base,
                100.0 * bound
            ));
        }
    }
    if outcome.skipped > 0 {
        outcome.notes.push(format!(
            "{} end-to-end metric(s) have no value in a prior {cores}-core entry; \
             recorded, not gated",
            outcome.skipped
        ));
    }
    scaling_gate(latest, &mut outcome);
    Ok(outcome)
}

/// The scaling floors (DESIGN.md §16), judged only on an entry whose
/// parallel-capacity probe passed.
fn scaling_gate(latest: &Entry, outcome: &mut CheckOutcome) {
    let (cores, ratio) = (latest.host_cores, latest.parallel_ratio);
    if !latest.speedup_reliable {
        outcome.notes.push(format!(
            "SCALING GATE SKIPPED: speedup_reliable is false (host_cores = {cores}, \
             parallel_ratio = {ratio}); runner.speedup_j2 is recorded, not judged"
        ));
        return;
    }
    let floors = [
        ("mc/runner.speedup_j2", ">=", MIN_JOBS2_SPEEDUP),
        ("fleet_dense/runner.speedup_j2", ">", 1.0),
    ];
    for (key, rule, floor) in floors {
        let Some(speedup) = latest.value(key) else {
            outcome
                .notes
                .push(format!("{key} not recorded; scaling floor not gated"));
            continue;
        };
        outcome.checked += 1;
        if speedup < floor || (rule == ">" && speedup <= floor) {
            outcome.failures.push(format!(
                "SCALING {key} {speedup:.2}x, needs {rule} {floor:.2}x \
                 ({cores} cores, parallel_ratio = {ratio})"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn bench() -> Value {
        json!({ "end_to_end": vec![
            json!({ "name": "wall_s", "better": "lower", "bound": 0.25 }),
            json!({ "name": "ops_per_s", "better": "higher", "bound": 0.25 }),
        ] })
    }

    fn doc(entries: Vec<Value>) -> Value {
        json!({ "format": FORMAT, "entries": entries })
    }

    /// A correct, unreliable entry with `mc` wall and throughput.
    fn entry(cores: u64, wall: f64, ops: f64) -> Value {
        json!({
            "host_cores": cores,
            "parallel_ratio": 1.9,
            "speedup_reliable": false,
            "correct": true,
            "attempted": 100u64,
            "failed": 0u64,
            "metrics": json!({
                "mc/wall_s": json!({ "value": wall, "unit": "s" }),
                "mc/ops_per_s": json!({ "value": ops, "unit": "1/s" }),
            }),
        })
    }

    fn set(mut e: Value, key: &str, value: Value) -> Value {
        if let Value::Object(map) = &mut e {
            map.insert(key.into(), value);
        }
        e
    }

    /// A reliable 2-core entry with the given jobs-2 speedups.
    fn scaling(mc: f64, fleet: f64) -> Value {
        let metrics = json!({
            "mc/runner.speedup_j2": json!({ "value": mc }),
            "fleet_dense/runner.speedup_j2": json!({ "value": fleet }),
        });
        let e = set(entry(2, 1.0, 100.0), "metrics", metrics);
        let e = set(e, "parallel_ratio", json!(1.05));
        set(e, "speedup_reliable", json!(true))
    }

    fn gate(entries: Vec<Value>) -> CheckOutcome {
        check(&doc(entries), &bench()).unwrap()
    }

    #[test]
    fn rejects_wrong_format_and_bad_bounds() {
        let mut v1 = json!({ "format": "abr-bench-history-v1", "entries": Vec::<Value>::new() });
        assert!(check(&v1, &bench()).unwrap_err().contains(FORMAT));
        assert!(append_entry(&mut v1, entry(1, 1.0, 1.0)).is_err());
        let bad = json!({ "end_to_end": vec![json!({ "name": "wall_s", "better": "up" })] });
        assert!(check(&doc(vec![]), &bad)
            .unwrap_err()
            .contains("end_to_end[0]"));
        assert!(check(&doc(vec![]), &json!({})).is_err());
    }

    #[test]
    fn empty_and_first_entry_pass() {
        let outcome = gate(vec![]);
        assert!(outcome.passed() && outcome.notes[0].contains("empty"));
        // A lone entry has no baseline: skipped visibly, not failed.
        let outcome = gate(vec![entry(1, 1.0, 100.0)]);
        assert!(outcome.passed(), "{}", outcome.render());
        assert_eq!((outcome.checked, outcome.skipped), (0, 2));
        assert!(outcome.notes[0].starts_with("2 end-to-end metric(s) have no value"));
    }

    #[test]
    fn seeded_wall_regression_fails_and_names_the_metric() {
        // 1.3x the baseline wall: 30% worse than a 25% bound.
        let outcome = gate(vec![entry(1, 1.0, 100.0), entry(1, 1.3, 100.0)]);
        assert_eq!(outcome.failures.len(), 1);
        assert!(outcome.failures[0].starts_with("mc/wall_s: 1.3 vs baseline 1 is 30.0% worse"));
        assert!(outcome.render().contains("FAIL mc/wall_s"));
    }

    #[test]
    fn seeded_throughput_regression_fails() {
        // Higher is better: 70 against 100 is 30% worse.
        let outcome = gate(vec![entry(1, 1.0, 100.0), entry(1, 1.0, 70.0)]);
        assert_eq!(outcome.failures.len(), 1, "{}", outcome.render());
        assert!(outcome.failures[0].starts_with("mc/ops_per_s"));
    }

    #[test]
    fn within_bound_and_improvements_pass() {
        let outcome = gate(vec![entry(1, 1.0, 100.0), entry(1, 1.2, 80.0)]);
        assert!(outcome.passed(), "{}", outcome.render());
        assert_eq!(outcome.checked, 2);
        assert!(gate(vec![entry(1, 1.0, 100.0), entry(1, 0.5, 200.0)]).passed());
    }

    #[test]
    fn baseline_is_the_most_recent_same_core_entry() {
        // Against the oldest entry 1.3 s would fail; the baseline is the
        // 1.2 s entry, and 1.3 / 1.2 is within the bound.
        let e = |wall| entry(1, wall, 100.0);
        let outcome = gate(vec![e(1.0), e(1.2), entry(4, 0.1, 900.0), e(1.3)]);
        assert!(outcome.passed(), "{}", outcome.render());
        assert_eq!(outcome.checked, 2);
    }

    #[test]
    fn other_core_counts_are_skipped_not_gated() {
        let outcome = gate(vec![entry(16, 0.1, 1000.0), entry(1, 1.0, 100.0)]);
        assert!(outcome.passed());
        assert_eq!((outcome.checked, outcome.skipped), (0, 2));
        assert!(outcome
            .notes
            .iter()
            .any(|n| n.contains("prior 1-core entry")));
        // A baseline without the metric skips just that metric.
        let old = set(entry(1, 1.0, 100.0), "metrics", json!({}));
        assert_eq!(gate(vec![old, entry(1, 9.0, 1.0)]).skipped, 2);
    }

    #[test]
    fn incorrect_run_and_rising_failed_share_fail() {
        let outcome = gate(vec![set(entry(1, 1.0, 100.0), "correct", json!(false))]);
        assert!(outcome.failures[0].contains("correct is false"));
        let failing = set(entry(1, 1.0, 100.0), "failed", json!(3u64));
        let outcome = gate(vec![entry(1, 1.0, 100.0), failing.clone()]);
        assert_eq!(outcome.failures.len(), 1, "{}", outcome.render());
        assert!(outcome.failures[0].contains("failed share 3/100"));
        // The same share as the baseline is no rise.
        assert!(gate(vec![failing.clone(), failing]).passed());
    }

    #[test]
    fn unreliable_entry_skips_the_scaling_floor_visibly() {
        let flat = set(scaling(1.0, 0.8), "speedup_reliable", json!(false));
        let outcome = gate(vec![flat]);
        assert!(outcome.passed());
        assert!(outcome.render().contains(
            "SCALING GATE SKIPPED: speedup_reliable is false (host_cores = 2, \
             parallel_ratio = 1.05)"
        ));
    }

    #[test]
    fn reliable_speedups_are_gated() {
        let outcome = gate(vec![scaling(1.8, 1.3)]);
        assert!(outcome.passed(), "{}", outcome.render());
        assert_eq!(outcome.checked, 2);
        assert!(!outcome.render().contains("SCALING"));
        let reliable = set(entry(2, 1.0, 100.0), "speedup_reliable", json!(true));
        let outcome = gate(vec![reliable]);
        assert!(outcome.passed() && outcome.notes[1].contains("floor not gated"));
    }

    #[test]
    fn reliable_flat_mc_speedup_fails() {
        let outcome = gate(vec![scaling(1.33, 1.3)]);
        assert_eq!(outcome.failures.len(), 1);
        assert!(outcome.failures[0].starts_with("SCALING mc/runner.speedup_j2 1.33x, needs >="));
    }

    #[test]
    fn reliable_fleet_that_never_beats_serial_fails() {
        let outcome = gate(vec![scaling(1.8, 1.0)]);
        assert_eq!(outcome.failures.len(), 1);
        assert!(outcome.failures[0].contains("fleet_dense/runner.speedup_j2 1.00x, needs > 1.00x"));
    }

    #[test]
    fn append_keeps_order_and_checks_the_entry() {
        let mut d = doc(vec![entry(1, 1.0, 100.0)]);
        append_entry(&mut d, entry(1, 1.1, 100.0)).unwrap();
        append_entry(&mut d, entry(1, 1.2, 100.0)).unwrap();
        let walls: Vec<f64> = (d["entries"].as_array().unwrap().iter())
            .map(|e| e["metrics"]["mc/wall_s"]["value"].as_f64().unwrap())
            .collect();
        assert_eq!(walls, [1.0, 1.1, 1.2]);
        let err = append_entry(&mut d, json!("not an object")).unwrap_err();
        assert!(err.contains("JSON object"));
        assert!(append_entry(&mut d, set(entry(1, 1.0, 1.0), "metrics", json!(7u64))).is_err());
        assert_eq!(d["entries"].as_array().unwrap().len(), 3);
        // A hand-edited prior entry is an error, not a silent skip.
        let d = doc(vec![json!({ "host_cores": 1u64 }), entry(1, 1.0, 1.0)]);
        let err = check(&d, &bench()).unwrap_err();
        assert!(
            err.starts_with("entries[0]: entry parallel_ratio must be a number"),
            "{err}"
        );
    }

    #[test]
    fn render_puts_one_entry_per_line_and_round_trips() {
        let mut d = doc(vec![]);
        let empty = format!("{{\n  \"entries\": [],\n  \"format\": \"{FORMAT}\"\n}}\n");
        assert_eq!(render(&d).unwrap(), empty);
        append_entry(&mut d, entry(1, 1.0, 100.0)).unwrap();
        append_entry(&mut d, entry(1, 0.1 + 0.2, 100.0)).unwrap();
        let text = render(&d).unwrap();
        assert_eq!(text.lines().count(), 7, "{text}");
        assert_eq!(serde_json::from_str(&text).unwrap(), d);
        assert!(render(&json!({ "entries": Vec::<Value>::new() })).is_err());
    }

    /// The checked-in benchmark description and history parse, and the
    /// latest recorded entry passes its own gate.
    #[test]
    fn checked_in_history_passes_the_checked_in_bounds() {
        let benchmark = benchmark().unwrap();
        assert!(bounds(&benchmark)
            .unwrap()
            .contains(&("wall_s", false, 0.25)));
        let history: Value = serde_json::from_str(include_str!("../../../BENCH.json")).unwrap();
        assert!(!history["entries"].as_array().unwrap().is_empty());
        let outcome = check(&history, &benchmark).unwrap();
        assert!(outcome.passed(), "{}", outcome.render());
    }
}
