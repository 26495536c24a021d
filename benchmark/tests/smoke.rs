//! Runs the benchmark binary at smoke sizes and checks its output
//! contract against `BENCHMARK.json`: every workload, every metric, each
//! with its unit, and nothing else.

use serde_json::Value;
use std::collections::BTreeSet;
use std::process::{Command, Output};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(spec: &'a Value, key: &str) -> &'a [Value] {
    spec[key].as_array().expect("array in BENCHMARK.json")
}

fn name(entry: &Value) -> &str {
    entry["name"].as_str().expect("entry has a name")
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_abr-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

/// The result object on the last stdout line of a successful run, after
/// checking that it reports a correct run with no failed ops.
fn result(output: &Output) -> Value {
    assert!(
        output.status.success(),
        "benchmark exited with {}",
        output.status
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("benchmark printed a result");
    let result: Value = serde_json::from_str(last).expect("result line is JSON");
    assert_eq!(result["correct"], Value::Bool(true), "{last}");
    assert!(result["attempted"].as_u64().expect("attempted") >= 1);
    assert_eq!(result["failed"].as_u64(), Some(0));
    result
}

/// Checks that `metrics` holds exactly the `expected` names, each with
/// the unit of its `BENCHMARK.json` entry and a finite value.
fn assert_exact(metrics: &Value, expected: &[(String, &Value)]) {
    let metrics = metrics.as_object().expect("metrics object");
    for (key, entry) in expected {
        let got = metrics.get(key).unwrap_or_else(|| panic!("{key} missing"));
        assert_eq!(got["unit"], entry["unit"], "{key} unit");
        let value = got["value"].as_f64().unwrap_or(f64::NAN);
        assert!(value.is_finite(), "{key} = {value}");
    }
    assert_eq!(
        metrics.len(),
        expected.len(),
        "metrics beyond BENCHMARK.json"
    );
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let spec = benchmark_json();
    let workloads = entries(&spec, "workloads");
    assert_eq!(workloads.len(), 5);
    let metrics: Vec<&Value> = entries(&spec, "end_to_end")
        .iter()
        .chain(entries(&spec, "per_layer"))
        .collect();
    let expected: Vec<(String, &Value)> = workloads
        .iter()
        .flat_map(|w| {
            metrics
                .iter()
                .map(move |m| (format!("{}/{}", name(w), name(m)), *m))
        })
        .collect();
    assert_exact(&result(&run(&["--smoke"]))["metrics"], &expected);
}

#[test]
fn trace_flag_selects_end_to_end_or_per_layer_metrics() {
    let spec = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected: Vec<(String, &Value)> = entries(&spec, key)
            .iter()
            .map(|m| (name(m).to_string(), m))
            .collect();
        let args = [
            "--workload",
            "mc",
            "--seed",
            "3",
            "--smoke",
            "--trace",
            trace,
        ];
        assert_exact(&result(&run(&args))["metrics"], &expected);
    }
}

#[test]
fn benchmark_json_names_are_unique_and_bounds_sound() {
    let spec = benchmark_json();
    let mut seen = BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for entry in entries(&spec, key) {
            let n = name(entry);
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(seen.insert(n), "{n} used twice");
        }
    }
    let bound = |m: &Value| m["bound"].as_f64().expect("bound");
    let end_to_end = entries(&spec, "end_to_end");
    let setup = end_to_end
        .iter()
        .find(|m| name(m) == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert!(end_to_end
        .iter()
        .all(|m| bound(m) <= bound(setup) && bound(m) <= 0.25));
}

#[test]
fn bad_arguments_exit_with_usage_and_no_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "-1"],
        &["--seed"],
        &["--frobnicate"],
    ] {
        let output = run(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
