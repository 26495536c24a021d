//! CLI-level coverage of `exp --trace/--chrome` on sweep
//! experiments: sweeps used to be an error; they now write one artifact
//! per session (`<stem>.<n>.<ext>`), identically at any `--jobs` value.
//! Also: `exp fleet` rejects impossible topologies, and every subcommand
//! rejects hostile flags, with exit code 2.

use std::path::Path;
use std::process::Command;

fn exp() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp"));
    // The test asserts explicit --jobs behavior; shield it from the
    // environment default.
    cmd.env_remove("ABR_JOBS");
    cmd
}

fn tmp(name: &str) -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_trace");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir.join(name).to_str().expect("utf-8 path").to_string()
}

#[test]
fn sweep_trace_writes_per_session_files() {
    let base = tmp("f3fix.trace.jsonl");
    let out = exp()
        .args(["--id", "f3fix", "--trace", &base, "--jobs", "8"])
        .output()
        .expect("run exp");
    assert!(
        out.status.success(),
        "exp failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Three arms → three per-session files; the bare path is not written.
    assert!(!Path::new(&base).exists(), "sweep must not write {base}");
    for n in 0..3 {
        let path = tmp(&format!("f3fix.{n}.trace.jsonl"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing per-session trace {path}: {e}"));
        let first = text.lines().next().expect("non-empty trace");
        assert!(
            first.contains("\"name\":\"session_start\""),
            "trace {path} must start with session_start, got: {first}"
        );
        assert!(
            !text.contains("\"wall_ns\":1")
                && !text.contains("\"wall_ns\":2")
                && !text.contains("\"wall_ns\":3"),
            "deterministic stamping: wall_ns must be 0 in {path}"
        );
    }
    assert!(
        !Path::new(&tmp("f3fix.3.trace.jsonl")).exists(),
        "only one file per session"
    );
}

#[test]
fn sweep_trace_is_jobs_invariant() {
    for (jobs, prefix) in [("1", "serial"), ("8", "parallel")] {
        let base = tmp(&format!("{prefix}.trace.jsonl"));
        let out = exp()
            .args(["--id", "f3fix", "--trace", &base, "--jobs", jobs])
            .output()
            .expect("run exp");
        assert!(out.status.success());
    }
    for n in 0..3 {
        let serial = std::fs::read_to_string(tmp(&format!("serial.{n}.trace.jsonl"))).unwrap();
        let parallel = std::fs::read_to_string(tmp(&format!("parallel.{n}.trace.jsonl"))).unwrap();
        assert_eq!(
            serial, parallel,
            "per-session trace {n} differs between --jobs 1 and --jobs 8"
        );
    }
}

#[test]
fn single_session_trace_keeps_exact_path() {
    let path = tmp("f4a.trace.jsonl");
    let out = exp()
        .args(["--id", "f4a", "--trace", &path])
        .output()
        .expect("run exp");
    assert!(out.status.success());
    assert!(
        Path::new(&path).exists(),
        "single-session experiments write the path as given"
    );
    assert!(!Path::new(&tmp("f4a.0.trace.jsonl")).exists());
}

#[test]
fn sweep_chrome_writes_per_session_files() {
    let chrome = tmp("bp5.chrome.json");
    let out = exp()
        .args(["--id", "bp5", "--chrome", &chrome, "--jobs", "4"])
        .output()
        .expect("run exp");
    assert!(
        out.status.success(),
        "exp failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let first = std::fs::read_to_string(tmp("bp5.0.chrome.json")).expect("per-session chrome");
    assert!(first.starts_with("{") || first.starts_with("["));
}

#[test]
fn untraceable_experiment_still_errors() {
    let out = exp()
        .args(["--id", "t1", "--trace", &tmp("t1.trace.jsonl")])
        .output()
        .expect("run exp");
    assert_eq!(out.status.code(), Some(2), "t1 has no sessions to trace");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("runs no session"), "stderr: {stderr}");
}

/// m3's viewers share one edge per delivery mode: `--trace` writes their
/// four traces in viewer order, and demuxed viewer B's trace shows the
/// table's 75 "B hits" as `cache_lookup` hits, one per video chunk.
#[test]
fn edge_experiment_traces_each_viewer() {
    let base = tmp("m3.trace.jsonl");
    let out = exp()
        .args(["--id", "m3", "--trace", &base, "--jobs", "2"])
        .output()
        .expect("run exp");
    assert!(
        out.status.success(),
        "exp failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("| demuxed  | 75     |"), "table: {stdout}");
    let viewers = [
        ("demuxed/viewer-a", 0),
        ("demuxed/viewer-b", 75),
        ("muxed/viewer-a", 0),
        ("muxed/viewer-b", 0),
    ];
    for (n, (viewer, hits)) in viewers.into_iter().enumerate() {
        let path = tmp(&format!("m3.{n}.trace.jsonl"));
        let line = format!("(m3/{viewer}) written to {path}]");
        assert!(stdout.contains(&line), "{viewer} is not file {n}: {stdout}");
        let text = std::fs::read_to_string(&path).expect("per-viewer trace");
        let hit = |l: &&str| l.contains("\"name\":\"cache_lookup\"") && l.contains("\"hit\":true");
        assert_eq!(
            text.lines().filter(hit).count(),
            hits,
            "{viewer}: cache hits"
        );
    }
    assert!(!Path::new(&tmp("m3.4.trace.jsonl")).exists());
}

/// Runs `exp` with `args` and asserts a usage error: exit 2, an
/// `error:` line plus the usage text on stderr, and no panic.
fn assert_usage_error(args: &[&str]) {
    let out = exp().args(args).output().expect("run exp");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "exp {args:?} must exit 2, stderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "exp {args:?} panicked: {stderr}"
    );
    assert!(
        stderr.contains("error:") && stderr.contains("usage:"),
        "exp {args:?} must print an error and the usage: {stderr}"
    );
}

#[test]
fn fleet_rejects_impossible_specs_with_usage() {
    for (flag, value) in [
        ("--sessions", "0"),
        ("--domains", "0"),
        ("--shards", "0"),
        ("--titles", "0"),
        ("--window-ms", "0"),
        ("--cache-mb", "0"),
        ("--uplink-kbps", "0"),
        ("--origin-kbps", "0"),
        ("--alpha", "nan"),
        ("--alpha", "-1"),
    ] {
        assert_usage_error(&["fleet", flag, value]);
    }
}

/// The flags of `exp --id` and `exp mc` answer hostile values, missing
/// values, unknown flags and impossible combinations with a usage error.
#[test]
fn hostile_flags_exit_2_with_usage() {
    let cases: &[&[&str]] = &[
        &["mc", "--seeds", "0"],
        &["mc", "--seeds", "-1"],
        &["mc", "--seeds", "abc"],
        &["--id", "f4a", "--jobs", "0"],
        &["--id", "f4a", "--jobs", "-3"],
        &["--id", "f4a", "--jobs", "x"],
        &["mc", "--jobs", "0"],
        &["mc", "--jobs", "-3"],
        &["mc", "--jobs", "x"],
        &["--id"],
        &["mc", "--seeds"],
        &["--id", "f4a", "--profile-json"],
        &["mc", "--profile-json"],
        &["--bogus"],
        &["--id", "f4a", "--bogus"],
        &["mc", "--bogus"],
        &["fleet", "--bogus"],
        &["--all", "--profile"],
        &["--id", "f4b", "--metrics"],
        &["--all", "--metrics"],
    ];
    for args in cases {
        assert_usage_error(args);
    }
}

/// An unwritable output path is a user error: every JSON output flag
/// exits 1 with an `error:` line, never a panic. The paths sit under a
/// regular file, so no user (root included) can create them.
#[test]
fn unwritable_output_paths_exit_1_without_panicking() {
    let blocker = tmp("not_a_dir");
    std::fs::write(&blocker, "a regular file").expect("create blocker file");
    let under = |name: &str| format!("{blocker}/{name}");
    let cases = [
        vec!["mc", "--seeds", "1", "--json", &under("mc.json")],
        vec![
            "mc",
            "--seeds",
            "1",
            "--profile-json",
            &under("mc.profile.json"),
        ],
        vec!["fleet", "--sessions", "4", "--json", &under("fleet.json")],
        vec!["--id", "t1", "--json", &under("json")],
    ]
    .map(|args| args.into_iter().map(str::to_owned).collect::<Vec<_>>());
    for args in cases {
        let out = exp().args(&args).output().expect("run exp");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "exp {args:?} must exit 1, stderr: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "exp {args:?} panicked: {stderr}"
        );
        assert!(
            stderr.contains("error: cannot"),
            "exp {args:?} must say what it could not write: {stderr}"
        );
    }
}
