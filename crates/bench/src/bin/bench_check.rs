//! Bench-history regression gate CLI (see `abr_bench::history`).
//!
//! ```text
//! bench_check check --file BENCH.json
//!     Gate the latest entry; exit 1 if it fails a rule.
//! bench_check append --file BENCH.json --entry new_entry.json|-
//!     Append one entry (`-` reads it from stdin); nothing is rewritten.
//! ```
//!
//! Exit 2 on a usage error, 1 on an unreadable or malformed file or entry.

use std::io::Read as _;
use std::process::ExitCode;

use abr_bench::history;
use serde_json::Value;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_check check --file F\n       bench_check append --file F --entry E.json|-"
    );
    ExitCode::from(2)
}

/// Parses `text`, read from `source`, naming the source in any error.
fn parse(source: &str, text: std::io::Result<String>) -> Result<Value, String> {
    let text = text.map_err(|e| format!("{source}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{source}: {e}"))
}

fn read_json(path: &str) -> Result<Value, String> {
    parse(path, std::fs::read_to_string(path))
}

fn cmd_check(file: &str) -> Result<bool, String> {
    let outcome = history::check(&read_json(file)?, &history::benchmark()?)
        .map_err(|e| format!("{file}: {e}"))?;
    print!("{file}:\n{}", outcome.render());
    Ok(outcome.passed())
}

fn cmd_append(file: &str, entry: &str) -> Result<bool, String> {
    let entry = if entry == "-" {
        let mut buf = String::new();
        let read = std::io::stdin().read_to_string(&mut buf).map(|_| buf);
        parse("stdin", read)?
    } else {
        read_json(entry)?
    };
    let mut doc = read_json(file)?;
    history::append_entry(&mut doc, entry).map_err(|e| format!("{file}: {e}"))?;
    let rendered = history::render(&doc).map_err(|e| format!("{file}: {e}"))?;
    std::fs::write(file, rendered).map_err(|e| format!("write {file}: {e}"))?;
    println!("bench_check: appended entry to {file}");
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file: Option<&str> = None;
    let mut entry: Option<&str> = None;
    let mut flags = args.iter().skip(1);
    while let Some(flag) = flags.next() {
        let slot = match flag.as_str() {
            "--file" => &mut file,
            "--entry" => &mut entry,
            _ => return usage(),
        };
        match flags.next() {
            Some(value) if slot.is_none() => *slot = Some(value),
            _ => return usage(),
        }
    }
    let result = match (args.first().map(String::as_str), file, entry) {
        (Some("check"), Some(file), None) => cmd_check(file),
        (Some("append"), Some(file), Some(entry)) => cmd_append(file, entry),
        _ => return usage(),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_check: {e}");
            ExitCode::FAILURE
        }
    }
}
