//! Experiment runner CLI.
//!
//! ```text
//! exp --list                     list experiment ids
//! exp --id f4a                   run one experiment, print the figure
//! exp --all [--json D]           run everything; optionally write JSON to D
//! exp --all --jobs 4             ... sharded over 4 workers (same bytes)
//! exp mc --seeds 25 --jobs 4     Monte Carlo fleet sweep (corpus x policies
//!                                x seeds); --json F writes the aggregate
//!
//! Observability (with --id):
//! exp --id f4b --trace out.jsonl    write the event trace as JSONL
//! exp --id f4b --chrome out.json    write a Chrome trace_event document
//! exp --id f4b --metrics            print the metrics registry summary
//!
//! Self-profiling (--id or mc; DESIGN.md §13):
//! exp --id bp1 --profile            print the span self/total-time table
//! exp mc --profile --profile-json p.json
//!                                   ... and write the JSON profile artifact
//!     Profiling measures host time only; the table goes to stderr and
//!     stdout stays byte-identical with or without it (CI diffs this).
//! exp --id bp1 --trace bp1.trace.jsonl --jobs 4
//!     sweeps write one file per session: bp1.0.trace.jsonl, bp1.1... —
//!     identical at every --jobs value (runner determinism contract)
//! ```
//!
//! `--jobs N` shards work across `min(N, cores)` workers. The default
//! comes from the `ABR_JOBS` environment variable (else 1, fully serial).
//! Output is byte-identical regardless of the worker count; the
//! `parallel_determinism` integration suite holds that contract.

use abr_bench::experiments::{all_ids, run_jobs, run_sessions, ExperimentResult};
use abr_bench::profiling::WorkloadProfile;
use abr_bench::report::table;
use abr_bench::runner;
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("mc") {
        return run_mc_cli(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("fleet") {
        return run_fleet_cli(&args[1..]);
    }
    let mut id: Option<String> = None;
    let mut run_all = false;
    let mut list = false;
    let mut json_dir: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut chrome_path: Option<String> = None;
    let mut metrics = false;
    let mut profile = false;
    let mut profile_json: Option<String> = None;
    let mut jobs = runner::jobs_from_env();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => list = true,
            "--all" => run_all = true,
            "--id" => id = Some(value(&args, &mut i)),
            "--json" => json_dir = Some(value(&args, &mut i)),
            "--trace" => trace_path = Some(value(&args, &mut i)),
            "--chrome" => chrome_path = Some(value(&args, &mut i)),
            "--metrics" => metrics = true,
            "--profile" => profile = true,
            "--profile-json" => profile_json = Some(value(&args, &mut i)),
            "--jobs" => jobs = parse_jobs_flag(&value(&args, &mut i)),
            other => usage(&format!("unknown flag `{other}`")),
        }
        i += 1;
    }

    if list {
        for id in all_ids() {
            println!("{id}");
        }
        return;
    }

    let wants_obs = trace_path.is_some() || chrome_path.is_some() || metrics;
    if wants_obs && (run_all || id.is_none()) {
        usage("--trace/--chrome/--metrics need a single experiment (--id)");
    }
    let wants_profile = profile || profile_json.is_some();
    if wants_profile && (run_all || id.is_none()) {
        usage("--profile/--profile-json need a single experiment (--id) or the mc subcommand");
    }

    let ids: Vec<&str> = if run_all {
        all_ids()
    } else if let Some(ref id) = id {
        vec![id.as_str()]
    } else {
        usage("pass --id <id>, --all or --list");
    };

    if let Some(dir) = &json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create json directory `{dir}`: {e}");
            std::process::exit(1);
        }
    }

    // `--all` shards across experiment ids (each internally serial, to
    // avoid nested pools); `--id` shards within the experiment's own
    // sweep. Results come back in id order either way.
    let results: Vec<Option<ExperimentResult>> = if run_all {
        runner::run_indexed(ids.len(), jobs, |i| run_jobs(ids[i], 1))
    } else {
        ids.iter().map(|id| run_jobs(id, jobs)).collect()
    };

    for (id, result) in ids.iter().zip(results) {
        let Some(result) = result else {
            eprintln!("unknown experiment `{id}`; try --list");
            std::process::exit(2);
        };
        println!("=== {} — {} ===", result.id, result.title);
        println!("{}", result.text);
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/{}.json", result.id);
            write_json(&path, &result.json, "json");
            println!("[json written to {path}]\n");
        }
        if wants_obs || wants_profile {
            // Profiled runs reuse the profiled outcomes for --trace/
            // --chrome/--metrics too: the artifacts are byte-identical
            // (profile_determinism suite), so the sessions run once.
            let Some((outcomes, workload)) = run_sessions(id, jobs, wants_profile) else {
                eprintln!(
                    "experiment `{id}` is a pure table or shares state across \
                     sessions; nothing to trace or profile"
                );
                std::process::exit(2);
            };
            emit_profile(workload.as_ref(), profile, profile_json.as_deref());
            let multi = outcomes.len() > 1;
            for (n, outcome) in outcomes.iter().enumerate() {
                if let Some(path) = &trace_path {
                    let path = session_path(path, n, multi);
                    if let Err(e) =
                        write_streamed(&path, |w| abr_obs::export::write_jsonl(&outcome.events, w))
                    {
                        eprintln!("error: cannot write trace to `{path}`: {e}");
                        std::process::exit(1);
                    }
                    println!(
                        "[{} events ({}) written to {path}]",
                        outcome.events.len(),
                        outcome.label
                    );
                }
                if let Some(path) = &chrome_path {
                    let path = session_path(path, n, multi);
                    if let Err(e) = write_streamed(&path, |w| {
                        abr_obs::export::write_chrome_trace(&outcome.events, w)
                    }) {
                        eprintln!("error: cannot write chrome trace to `{path}`: {e}");
                        std::process::exit(1);
                    }
                    println!("[chrome trace ({}) written to {path}]", outcome.label);
                }
            }
            if metrics {
                let merged = runner::merged_metrics(&outcomes);
                let rows: Vec<Vec<String>> =
                    merged.rows().into_iter().map(|(k, v)| vec![k, v]).collect();
                println!("{}", table(&["Metric", "Value"], &rows));
            }
        }
    }
}

/// `exp mc [--seeds N] [--jobs J] [--json FILE]` — the Monte Carlo fleet
/// sweep: full trace corpus × every policy × N seeds on the deterministic
/// runner. The default seed count yields a four-digit session total; the
/// aggregate is byte-identical at every `--jobs` value.
fn run_mc_cli(args: &[String]) {
    let mut seeds: u64 = 25;
    let mut jobs = runner::jobs_from_env();
    let mut json_path: Option<String> = None;
    let mut profile = false;
    let mut profile_json: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--profile" => profile = true,
            "--profile-json" => profile_json = Some(value(args, &mut i)),
            "--seeds" => {
                seeds = value(args, &mut i)
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--seeds needs a positive integer"));
            }
            "--jobs" => jobs = parse_jobs_flag(&value(args, &mut i)),
            "--json" => json_path = Some(value(args, &mut i)),
            other => usage(&format!("unknown `mc` flag `{other}`")),
        }
        i += 1;
    }
    let wants_profile = profile || profile_json.is_some();
    let (result, workload) = abr_bench::mc::run_mc_with(seeds, jobs, wants_profile);
    println!("=== mc — Monte Carlo fleet sweep ===");
    println!("{}", result.text);
    emit_profile(workload.as_ref(), profile, profile_json.as_deref());
    if let Some(path) = json_path {
        write_json(&path, &result.json, "mc json");
        println!("[json written to {path}]");
    }
}

/// `exp fleet [--sessions N] [--domains D] [--shards S] [--jobs J] ...` —
/// the shared-fate fleet engine (DESIGN.md §14): N sessions over D
/// contended link domains (shared title-namespaced CDN cache + FIFO
/// origin uplink each), Zipf arrivals over a title catalog, window-synced
/// origin throttling. `--delivery both` runs the demuxed-vs-muxed
/// head-to-head. Stdout is the deterministic artifact: byte-identical at
/// every `--jobs` value and shard count.
fn run_fleet_cli(args: &[String]) {
    use abr_bench::fleet::{run_fleet_comparison, run_fleet_with, FleetOptions, FleetSpec};
    use abr_player::session::DeliveryMode;

    let mut spec = FleetSpec::small(500);
    let mut both = false;
    let mut jobs = runner::jobs_from_env();
    let mut json_path: Option<String> = None;
    let mut profile = false;
    let mut profile_json: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        fn parse<T: std::str::FromStr>(name: &str, raw: &str) -> T {
            raw.parse::<T>()
                .unwrap_or_else(|_| usage(&format!("{name} got unparsable value `{raw}`")))
        }
        match flag {
            "--sessions" => spec.sessions = parse(flag, &value(args, &mut i)),
            "--domains" => spec.domains = parse(flag, &value(args, &mut i)),
            "--shards" => spec.shards = parse(flag, &value(args, &mut i)),
            "--titles" => spec.titles = parse(flag, &value(args, &mut i)),
            "--alpha" => spec.zipf_alpha = parse(flag, &value(args, &mut i)),
            "--arrival-secs" => spec.arrival_secs = parse(flag, &value(args, &mut i)),
            "--uplink-kbps" => spec.uplink_kbps = parse(flag, &value(args, &mut i)),
            "--origin-kbps" => spec.origin_kbps = parse(flag, &value(args, &mut i)),
            "--cache-mb" => spec.cache_mb = parse(flag, &value(args, &mut i)),
            "--window-ms" => spec.window_ms = parse(flag, &value(args, &mut i)),
            "--seed" => spec.seed = parse(flag, &value(args, &mut i)),
            "--jobs" => jobs = parse_jobs_flag(&value(args, &mut i)),
            "--delivery" => match value(args, &mut i).as_str() {
                "demuxed" => spec.delivery = DeliveryMode::Demuxed,
                "muxed" => spec.delivery = DeliveryMode::Muxed,
                "both" => both = true,
                other => usage(&format!(
                    "--delivery must be demuxed|muxed|both, got `{other}`"
                )),
            },
            "--json" => json_path = Some(value(args, &mut i)),
            "--profile" => profile = true,
            "--profile-json" => profile_json = Some(value(args, &mut i)),
            other => usage(&format!("unknown `fleet` flag `{other}`")),
        }
        i += 1;
    }
    if let Err(msg) = spec.check() {
        usage(&msg);
    }
    let wants_profile = profile || profile_json.is_some();
    if both && wants_profile {
        usage("--profile needs a single delivery mode, not --delivery both");
    }
    let (result, workload) = if both {
        (run_fleet_comparison(&spec, jobs), None)
    } else {
        let options = FleetOptions {
            profile: wants_profile,
            ..FleetOptions::default()
        };
        run_fleet_with(&spec, jobs, options)
    };
    println!("=== fleet — shared-fate fleet engine ===");
    println!("{}", result.text);
    emit_profile(workload.as_ref(), profile, profile_json.as_deref());
    if let Some(path) = json_path {
        write_json(&path, &result.json, "fleet json");
        println!("[json written to {path}]");
    }
}

/// Prints the profile table (with `--profile`, or when no JSON path was
/// given) and/or writes the JSON profile artifact; no-op when unprofiled.
///
/// Both go to stderr/file, never stdout: stdout carries the experiment
/// artifact, which must stay byte-identical with and without `--profile`
/// (the CI profile matrix diffs it).
fn emit_profile(workload: Option<&WorkloadProfile>, table: bool, json_path: Option<&str>) {
    let Some(workload) = workload else {
        return;
    };
    if table || json_path.is_none() {
        eprintln!("{}", workload.text());
    }
    if let Some(path) = json_path {
        write_json(path, &workload.json(), "profile json");
        eprintln!("[profile json written to {path}]");
    }
}

/// Writes `value` as pretty JSON to `path`; an unwritable path is a user
/// error, reported like `--trace`'s (exit 1), not a panic.
fn write_json(path: &str, value: &serde_json::Value, what: &str) {
    let text = serde_json::to_string_pretty(value).expect("serialize");
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("error: cannot write {what} to `{path}`: {e}");
        std::process::exit(1);
    }
}

/// Streams an exporter into a buffered file writer and flushes it, so
/// large traces never materialize a second in-memory copy.
fn write_streamed(
    path: &str,
    emit: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    emit(&mut w)?;
    w.flush()
}

/// Per-session artifact path for sweeps: inserts the session index after
/// the file stem, `results/bp1.trace.jsonl` → `results/bp1.0.trace.jsonl`.
/// Single-session experiments keep the path exactly as given.
fn session_path(path: &str, n: usize, multi: bool) -> String {
    if !multi {
        return path.to_string();
    }
    let (dir, file) = match path.rfind('/') {
        Some(cut) => (&path[..=cut], &path[cut + 1..]),
        None => ("", path),
    };
    match file.find('.') {
        Some(dot) => format!("{dir}{}.{n}{}", &file[..dot], &file[dot..]),
        None => format!("{dir}{file}.{n}"),
    }
}

/// The value after the flag at `args[*i]`, advancing `i` onto it; a
/// missing value is a usage error.
fn value(args: &[String], i: &mut usize) -> String {
    let flag = &args[*i];
    *i += 1;
    args.get(*i)
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        .clone()
}

/// Parses a `--jobs` value: a positive integer, or `auto` for the host
/// core count ([`runner::parse_jobs`]). The resolution is echoed on the
/// profile channel (stderr) only — stdout artifacts must stay
/// jobs-invariant, and "how many workers" is host state, not artifact.
fn parse_jobs_flag(raw: &str) -> usize {
    let jobs = runner::parse_jobs(raw)
        .unwrap_or_else(|| usage("--jobs needs a positive integer or `auto`"));
    if raw == "auto" {
        eprintln!("[jobs auto -> {jobs} (host cores)]");
    }
    jobs
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: exp (--list | --id <experiment> | --all) [--json <dir>] [--jobs <n|auto>]\n\
         \x20      [--trace <file.jsonl>] [--chrome <file.json>] [--metrics]\n\
         \x20      [--profile] [--profile-json <file>]             (with --id)\n\
         \x20  exp mc [--seeds <n>] [--jobs <n|auto>] [--json <file>]\n\
         \x20      [--profile] [--profile-json <file>]   Monte Carlo fleet sweep\n\
         \x20  exp fleet [--sessions <n>] [--domains <n>] [--shards <n>] [--titles <n>]\n\
         \x20      [--alpha <f>] [--arrival-secs <n>] [--delivery demuxed|muxed|both]\n\
         \x20      [--uplink-kbps <n>] [--origin-kbps <n>] [--cache-mb <n>] [--window-ms <n>]\n\
         \x20      [--seed <n>] [--jobs <n|auto>] [--json <file>] [--profile] [--profile-json <file>]\n\
         \x20                                             shared-fate fleet engine"
    );
    std::process::exit(2);
}
