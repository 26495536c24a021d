//! CLI-level coverage of `bench_check`: hostile files, entries and flags
//! get an exit code of 1 or 2 and a message, never a panic; a regression
//! seeded into a copy of a history fails the gate and names the metric.

use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Output, Stdio};

fn tmp(name: &str, contents: &str) -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_check_cli");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write tmp file");
    path.to_str().expect("utf-8 path").to_string()
}

fn bench_check(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bench_check"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run bench_check");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("bench_check exits")
}

const EMPTY_V2: &str = r#"{"format": "abr-bench-history-v2", "entries": []}"#;

fn entry(wall_s: f64) -> String {
    format!(
        r#"{{"recorded": "2026-10-17T00:00:00Z", "commit": "abc1234", "host_cores": 2,
            "parallel_ratio": 1.4, "speedup_reliable": false, "correct": true,
            "attempted": 40, "failed": 0,
            "metrics": {{"mc/wall_s": {{"value": {wall_s}, "unit": "s"}}}}}}"#
    )
}

/// Runs `bench_check` and asserts its exit code, a message on stderr and
/// no panic.
fn assert_fails(args: &[&str], stdin: &str, code: i32, message: &str) {
    let out = bench_check(args, stdin);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(code),
        "bench_check {args:?} must exit {code}, stderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "bench_check {args:?} panicked: {stderr}"
    );
    assert!(
        stderr.contains(message),
        "bench_check {args:?} must say {message:?}: {stderr}"
    );
}

/// Unreadable files and malformed entries exit 1, bad command lines
/// exit 2 with the usage text.
#[test]
fn hostile_input_exits_1_or_2_with_a_message() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_check_cli");
    let missing = dir.join("no_such_history.json");
    let missing = missing.to_str().expect("utf-8 path");
    let not_json = tmp("not_json.json", "this is not JSON");
    let v1 = tmp(
        "v1.json",
        r#"{"format": "abr-bench-history-v1", "entries": []}"#,
    );
    let history = tmp("empty_v2.json", EMPTY_V2);
    assert_fails(&["check", "--file", missing], "", 1, "no_such_history.json");
    assert_fails(&["check", "--file", &not_json], "", 1, "not_json.json");
    assert_fails(
        &["check", "--file", &v1],
        "",
        1,
        "not an abr-bench-history-v2",
    );
    let append = ["append", "--file", &history, "--entry", "-"];
    assert_fails(&append, "[1, 2]", 1, "entry must be a JSON object");
    let partial = r#"{"host_cores": 2}"#;
    assert_fails(&append, partial, 1, "entry parallel_ratio must be a number");
    let usage_errors: &[&[&str]] = &[
        &["check", "--file"],
        &["check"],
        &["check", "--file", &history, "--file", &v1],
        &["check", "--file", &history, "--entry", "-"],
        &["append", "--file", &history],
        &["bogus", "--file", &history],
        &["check", "--bogus"],
        &[],
    ];
    for args in usage_errors {
        assert_fails(args, "", 2, "usage:");
    }
    assert_eq!(
        std::fs::read_to_string(&history).expect("read history"),
        EMPTY_V2,
        "a rejected entry must leave the history untouched"
    );
}

/// Appending two entries, the second with 1.3x the first's `mc/wall_s`,
/// makes `check` exit 1 and name the metric; the first alone passes.
#[test]
fn seeded_wall_regression_fails_the_gate() {
    let history = tmp("regression.json", EMPTY_V2);
    let append = |wall_s: f64| {
        let out = bench_check(
            &["append", "--file", &history, "--entry", "-"],
            &entry(wall_s),
        );
        assert!(out.status.success(), "{out:?}");
        let check = bench_check(&["check", "--file", &history], "");
        (
            check.status.code(),
            String::from_utf8_lossy(&check.stdout).into_owned(),
        )
    };
    let (code, stdout) = append(1.0);
    assert_eq!(code, Some(0), "a lone entry must pass: {stdout}");
    assert!(stdout.contains("SCALING GATE SKIPPED"), "{stdout}");
    let (code, stdout) = append(1.3);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains("FAIL mc/wall_s: 1.3 vs baseline 1"),
        "{stdout}"
    );
}
