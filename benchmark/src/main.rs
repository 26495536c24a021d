//! The abr-unmuxed benchmark.
//!
//! ```text
//! benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark/run.sh [--seed N] [--seconds S] [--smoke]     # all five, one child each
//! ```
//!
//! One workload run: time the world-building call, run one untimed
//! jobs-1 reference iteration, then closed-loop jobs-2 iterations for
//! `--seconds`, with nothing attached (the end-to-end metrics); with
//! `--trace 1`, then the traced pass (the per-layer metrics, see
//! `layers`). The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`, both with
//! `--all-metrics`. The exit code is 1 when any output check failed.
//!
//! Without `--workload`, the binary re-runs itself once per workload
//! (`--trace 1 --all-metrics`), so each workload's peak RSS is its own.

mod layers;
mod measure;
mod procfs;
mod replay;
mod sessions;
mod stats;
mod timed_policy;
mod workloads;

use layers::Metric;
use serde_json::{json, Map, Value};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Config, Workload};

const USAGE: &str =
    "usage: abr-benchmark [--workload paper_all|mc|fleet_dense|fleet_sparse|fleet_muxed] \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--all-metrics]";

/// Parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    all_metrics: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: abr_bench::setup::SEED,
        seconds: None,
        trace: false,
        smoke: false,
        all_metrics: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("bad --seconds".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--all-metrics" => parsed.all_metrics = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let correct = match args.workload {
        Some(workload) => run_one(&args, workload),
        None => run_all(&args),
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `{name: {"value", "unit"}}` for the result line.
fn metric_map(metrics: &[Metric]) -> Map {
    metrics
        .iter()
        .map(|(name, unit, value)| (name.clone(), json!({ "value": *value, "unit": *unit })))
        .collect()
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Map) -> String {
    let line = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    serde_json::to_string(&line).expect("JSON renders")
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for (name, unit, value) in metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
}

/// Runs one workload in this process; returns whether every check held.
fn run_one(args: &Args, workload: Workload) -> bool {
    let cfg = Config {
        workload,
        seed: args.seed,
        smoke: args.smoke,
    };
    let seconds = args.seconds.unwrap_or(cfg.size(10.0, 0.2));
    let reps = cfg.size(21, 3);
    println!(
        "workload {} | seed {} | {} cores | jobs {} | {seconds} s",
        workload.name(),
        cfg.seed,
        abr_bench::runner::available_cores(),
        measure::JOBS,
    );
    let timed = measure::run_timed(&cfg, reps, seconds, args.trace);
    let (q1, _, q3) = stats::quartiles(&timed.walls);
    println!(
        "{} iterations of {} {}s: raw wall median {:.4} s [q1 {q1:.4}, q3 {q3:.4}], \
         jobs-1 {:.4} s (recording host); host probe {:.2} ms (recording host {:.2} ms)",
        timed.walls.len(),
        timed.ops,
        cfg.op_name(),
        timed.wall_raw_s,
        timed.reference_s,
        timed.probe_s * 1e3,
        measure::PROBE_REF_S * 1e3,
    );
    let end_to_end: Vec<Metric> = vec![
        ("setup_s".into(), "s", timed.setup_s),
        ("wall_s".into(), "s", timed.wall_s),
        ("ops_per_s".into(), "1/s", timed.ops as f64 / timed.wall_s),
        ("cpu_s".into(), "s", timed.cpu_s),
        ("peak_rss_mb".into(), "MB", timed.peak_rss_mb),
    ];
    print_metrics("end-to-end (recording-host seconds):", &end_to_end);

    let mut correct = timed.failed == 0;
    let mut reported = Vec::new();
    if !args.trace || args.all_metrics {
        reported.extend(end_to_end.iter().cloned());
    }
    if args.trace {
        let traced = layers::traced_pass(&cfg, &timed, reps);
        for note in &traced.notes {
            println!("note: {note}");
        }
        print_metrics("per-layer:", &traced.metrics);
        for failure in &traced.failures {
            println!("CHECK FAILED: {failure}");
        }
        correct &= traced.failures.is_empty();
        reported.extend(traced.metrics);
    }
    println!(
        "{}",
        result_line(
            correct,
            timed.attempted,
            timed.failed,
            metric_map(&reported)
        )
    );
    correct
}

/// Runs every workload in its own child process and prints a combined
/// result with metrics named `<workload>/<metric>`.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut combined = Map::new();
    for workload in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--trace", "1", "--all-metrics"])
        .stdout(Stdio::piped());
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        let output = cmd.output().expect("child benchmark runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        let Ok(result) = serde_json::from_str(last) else {
            println!(
                "workload {} printed no result ({})",
                workload.name(),
                output.status
            );
            correct = false;
            continue;
        };
        correct &= output.status.success() && result["correct"] == json!(true);
        attempted += result["attempted"].as_u64().unwrap_or(0);
        failed += result["failed"].as_u64().unwrap_or(0);
        for (name, metric) in result["metrics"].as_object().into_iter().flatten() {
            combined.insert(format!("{}/{name}", workload.name()), metric.clone());
        }
        println!();
    }
    println!("{}", result_line(correct, attempted, failed, combined));
    correct
}
