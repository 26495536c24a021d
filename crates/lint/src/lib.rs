//! # abr-lint — workspace determinism & invariant linter
//!
//! The workspace's bit-reproducibility contract (DESIGN.md §10) is load
//! bearing: the parallel sweep runner, the allocation-free link and every
//! golden artifact rest on simulations being pure functions of their
//! specs. Differential tests (`parallel_determinism`,
//! `link_differential`) catch violations *after the fact*; this crate
//! catches them at the source, before a single session runs, by enforcing
//! the contract as named static rules (DESIGN.md §12):
//!
//! | id | name | bans |
//! |----|------|------|
//! | `ABR-L001` | hash-collections | `HashMap`/`HashSet` in simulation code |
//! | `ABR-L002` | host-clock | `std::time`/`Instant::now`/`SystemTime` outside obs host timing |
//! | `ABR-L003` | external-rng | any RNG other than `abr_event::rng` |
//! | `ABR-L004` | float-time-arith | `f32`/`f64` in integer time/byte core modules |
//! | `ABR-L005` | unkeyed-map-iter | values-only map iteration in event dispatch |
//! | `ABR-L006` | truncating-cast | `as` integer casts in `abr_event::time` |
//! | `ABR-L007` | weak-ordering | sub-`SeqCst` atomics without a justified happens-before edge |
//! | `ABR-L008` | concurrency-primitives | threading outside the designated concurrency modules |
//! | `ABR-L009` | raw-board-access | `WindowBoard` slot access outside its protocol API |
//!
//! `ABR-L007`–`L009` enforce the concurrency contract (DESIGN.md §17):
//! the two thread-sharing protocols are model-checked by
//! `abr_event::sync_model`, and every `ABR-L007` exemption must name the
//! happens-before edge the model proved sufficient.
//!
//! Exemptions live in `lint.toml` at the workspace root; every entry
//! carries a mandatory justification and fails the run when it no longer
//! suppresses anything ([`allowlist`]). Run `cargo run -p abr-lint` from
//! the workspace root; CI runs it on every push.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod allowlist;
pub mod lexer;
pub mod rules;

use allowlist::Allowlist;
use lexer::CleanFile;
use rules::Violation;
use std::path::{Path, PathBuf};

/// Outcome of linting a set of files.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations not covered by any allowlist entry, sorted by
    /// `(path, line, col, rule)`.
    pub violations: Vec<Violation>,
    /// Violations suppressed by the allowlist (kept for auditing).
    pub suppressed: Vec<Violation>,
    /// Allowlist entries (by `lint.toml` position) that suppressed
    /// nothing: stale exemptions that must be deleted.
    pub stale: Vec<usize>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when the workspace is clean: no unallowlisted violations and
    /// no stale allowlist entries.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty()
    }
}

/// Lints one in-memory source file under its workspace-relative `path`,
/// splitting hits into (violations, suppressed) against `allow` and
/// recording which entries fired into `used` (indexed like
/// `allow.entries`).
pub fn lint_source(
    path: &str,
    src: &str,
    allow: &Allowlist,
    used: &mut [bool],
    report: &mut LintReport,
) {
    let lines = lexer::clean_source(src);
    let in_test = lexer::mark_test_regions(&lines);
    let file = CleanFile { lines, in_test };
    let mut hits = Vec::new();
    rules::scan_file(path, &file, &mut hits);
    for v in hits {
        let line_text = &file.lines[v.line - 1];
        match allow.matches(&v, line_text) {
            Some(idx) => {
                used[idx] = true;
                report.suppressed.push(v);
            }
            None => report.violations.push(v),
        }
    }
    report.files_scanned += 1;
}

/// The source files the determinism contract governs: `src/` trees of the
/// workspace root and of every crate under `crates/` — not `vendor/`
/// (offline stand-ins for external crates), and not `tests/`, `benches/`
/// or `examples/` (test code may use order-free collections for
/// assertions; `#[cfg(test)]` modules inside `src/` are skipped by the
/// lexer for the same reason).
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut roots = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let p = entry?.path();
            if p.is_dir() {
                roots.push(p.join("src"));
            }
        }
    }
    for r in roots {
        if r.is_dir() {
            collect_rs(&r, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root` against `allow`.
pub fn lint_workspace(root: &Path, allow: &Allowlist) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut used = vec![false; allow.entries.len()];
    for file in workspace_sources(root)? {
        let rel = file
            .strip_prefix(root)
            .expect("file under root")
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&file)?;
        lint_source(&rel, &src, allow, &mut used, &mut report);
    }
    report.stale = used
        .iter()
        .enumerate()
        .filter_map(|(i, &u)| (!u).then_some(i))
        .collect();
    let key = |v: &Violation| (v.path.clone(), v.line, v.col, v.rule);
    report.violations.sort_by_key(key);
    report.suppressed.sort_by_key(key);
    Ok(report)
}

/// Loads `lint.toml` from the workspace root (an absent file is an empty
/// allowlist).
pub fn load_allowlist(root: &Path) -> Result<Allowlist, String> {
    let path = root.join("lint.toml");
    if !path.exists() {
        return Ok(Allowlist::default());
    }
    let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Allowlist::parse(&src).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh scratch directory under the system temp dir, named after
    /// the calling test so parallel tests never share one.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("abr-lint-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn write(path: &Path, text: &str) {
        std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
        std::fs::write(path, text).expect("write source");
    }

    #[test]
    fn stale_entries_alone_make_a_report_unclean() {
        let mut report = LintReport::default();
        assert!(report.is_clean());
        report.stale.push(0);
        assert!(!report.is_clean());
    }

    #[test]
    fn lint_source_splits_hits_between_violations_and_suppressions() {
        let allow = Allowlist::parse(
            "[[allow]]\n\
             rule = \"ABR-L001\"\n\
             path = \"crates/net/src/a.rs\"\n\
             pattern = \"HashMap\"\n\
             justification = \"test entry\"\n",
        )
        .expect("allowlist parses");
        let mut used = vec![false; allow.entries.len()];
        let mut report = LintReport::default();
        let src = "use std::collections::HashMap;\nuse std::collections::HashSet;\n";
        lint_source("crates/net/src/a.rs", src, &allow, &mut used, &mut report);
        lint_source("crates/net/src/b.rs", src, &allow, &mut used, &mut report);
        assert_eq!(report.files_scanned, 2);
        assert_eq!(used, [true], "the entry suppressed a hit");
        let lines = |vs: &[Violation]| -> Vec<(String, usize)> {
            vs.iter().map(|v| (v.path.clone(), v.line)).collect()
        };
        assert_eq!(
            lines(&report.suppressed),
            [("crates/net/src/a.rs".into(), 1)]
        );
        assert_eq!(
            lines(&report.violations),
            [
                ("crates/net/src/a.rs".into(), 2),
                ("crates/net/src/b.rs".into(), 1),
                ("crates/net/src/b.rs".into(), 2)
            ]
        );
    }

    #[test]
    fn workspace_sources_are_every_rs_file_under_a_src_dir_sorted() {
        let root = scratch_dir("sources");
        write(&root.join("src/lib.rs"), "");
        write(&root.join("crates/b/src/deep/mod.rs"), "");
        write(&root.join("crates/a/src/lib.rs"), "");
        write(&root.join("crates/a/src/notes.txt"), "");
        write(&root.join("crates/a/tests/it.rs"), "");
        let found: Vec<String> = workspace_sources(&root)
            .expect("walk")
            .iter()
            .map(|p| {
                p.strip_prefix(&root)
                    .unwrap()
                    .to_string_lossy()
                    .replace('\\', "/")
            })
            .collect();
        std::fs::remove_dir_all(&root).expect("clean up");
        assert_eq!(
            found,
            [
                "crates/a/src/lib.rs",
                "crates/b/src/deep/mod.rs",
                "src/lib.rs"
            ]
        );
    }

    #[test]
    fn a_missing_allowlist_is_empty_and_a_malformed_one_is_an_error() {
        let root = scratch_dir("allowlist");
        let empty = load_allowlist(&root).expect("no lint.toml is fine");
        assert!(empty.entries.is_empty());
        write(&root.join("lint.toml"), "[[allow]]\nrule = \"ABR-L001\"\n");
        let err = load_allowlist(&root);
        std::fs::remove_dir_all(&root).expect("clean up");
        assert!(
            err.is_err(),
            "an entry without path or justification is rejected"
        );
    }
}
