//! The determinism-contract rule catalog (DESIGN.md §12).
//!
//! Each rule is a named, span-reporting check over the cleaned source of
//! [`crate::lexer`]. Rules are deliberately *syntactic*: the determinism
//! contract bans whole construct families (hashed collections, host
//! clocks, external RNGs, float time arithmetic, unkeyed map iteration,
//! truncating casts in the time core) rather than specific call graphs, so
//! token-level matching over comment/string-blanked code is exact for the
//! properties enforced — and it keeps the linter dependency-free in this
//! vendored workspace (a full `syn` pass would flag the identical spans).

use crate::lexer::CleanFile;

/// One rule violation at a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (`ABR-L00x`).
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column of the match.
    pub col: usize,
    /// The matched token (for messages and allowlist auditing).
    pub excerpt: String,
}

/// What part of the workspace a rule adjudicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every scanned simulation source file.
    AllSources,
    /// Only the listed files (workspace-relative paths).
    Files(&'static [&'static str]),
    /// Every scanned file except the listed ones (the rule's approved
    /// home module).
    AllExcept(&'static [&'static str]),
}

impl Scope {
    /// Whether `path` (workspace-relative, forward slashes) is covered.
    pub fn covers(&self, path: &str) -> bool {
        match self {
            Scope::AllSources => true,
            Scope::Files(fs) => fs.contains(&path),
            Scope::AllExcept(fs) => !fs.contains(&path),
        }
    }
}

/// How a rule finds its violations on one cleaned line.
#[derive(Debug, Clone, Copy)]
pub enum Matcher {
    /// Identifier-boundary occurrences of any of these needles. Needles
    /// may contain `::` / `.` / `(`; the characters immediately around the
    /// match must not extend an identifier.
    Words(&'static [&'static str]),
    /// `as <ty>` casts where `<ty>` is one of these target types.
    CastTo(&'static [&'static str]),
}

/// A named rule of the determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable identifier, `ABR-L001` … — what allowlist entries cite.
    pub id: &'static str,
    /// Short name used in docs and `--list-rules`.
    pub name: &'static str,
    /// One-line rationale shown with each violation.
    pub rationale: &'static str,
    /// Which files the rule adjudicates.
    pub scope: Scope,
    /// The syntactic pattern.
    pub matcher: Matcher,
}

/// Files that form the integer time/byte arithmetic core: the modules
/// where a stray `f64` would silently break bit-reproducibility.
/// `crates/event/src/time.rs` itself is the *approved* float boundary
/// (`from_secs_f64`/`as_secs_f64` are the documented entry/exit points)
/// and is deliberately not listed here — it is governed by `ABR-L006`
/// instead.
const TIME_BYTE_CORE: &[&str] = &[
    "crates/event/src/queue.rs",
    "crates/net/src/link.rs",
    "crates/net/src/trace.rs",
    "crates/net/src/uplink.rs",
    "crates/media/src/units.rs",
    "crates/player/src/buffer.rs",
    "crates/player/src/playback.rs",
    "crates/player/src/transfer.rs",
];

/// Event-dispatch modules, where iteration order over a map *is* the
/// event order: values-only iteration hides whether that order is keyed.
/// The shared-corpus builder (`bench/corpus.rs`) feeds every session, so
/// an unkeyed sweep there would be just as order-sensitive.
const DISPATCH_MODULES: &[&str] = &[
    "crates/event/src/queue.rs",
    "crates/player/src/engine.rs",
    "crates/player/src/transfer.rs",
    "crates/player/src/fetch.rs",
    "crates/bench/src/corpus.rs",
    "crates/bench/src/fleet/driver.rs",
];

/// The designated concurrency modules: the only files allowed to use
/// threading primitives (`ABR-L008`). `runner.rs` owns the chunked-claim
/// worker pool, `fleet/driver.rs` owns the window-barrier protocol (both
/// model-checked by `abr_event::sync_model` — DESIGN.md §17), and
/// `obs/tracer.rs` is the host-timing boundary where observation
/// plumbing may touch host-side synchronization. Everywhere else,
/// threading in a deterministic simulation is a contract hazard by
/// default and must be argued in here (by joining this list) rather
/// than slipped in piecemeal.
const CONCURRENCY_MODULES: &[&str] = &[
    "crates/bench/src/runner.rs",
    "crates/bench/src/fleet/driver.rs",
    "crates/obs/src/tracer.rs",
];

/// The rule catalog, in rule-id order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "ABR-L001",
        name: "hash-collections",
        rationale: "std HashMap/HashSet iteration order varies per process; \
                    simulation state must live in ordered containers",
        scope: Scope::AllSources,
        matcher: Matcher::Words(&["HashMap", "HashSet", "hash_map", "hash_set"]),
    },
    Rule {
        id: "ABR-L002",
        name: "host-clock",
        rationale: "host clocks leak wall time into simulation output; only \
                    the obs host-timing module may read them",
        scope: Scope::AllSources,
        matcher: Matcher::Words(&["std::time", "Instant::now", "SystemTime"]),
    },
    Rule {
        id: "ABR-L003",
        name: "external-rng",
        rationale: "randomness must come from abr_event::rng::SplitMix64 \
                    seeded per spec; external RNGs break replay",
        scope: Scope::AllExcept(&["crates/event/src/rng.rs"]),
        matcher: Matcher::Words(&[
            "rand::",
            "thread_rng",
            "from_entropy",
            "getrandom",
            "StdRng",
            "SmallRng",
        ]),
    },
    Rule {
        id: "ABR-L004",
        name: "float-time-arith",
        rationale: "time/byte bookkeeping is integer microseconds/bytes; \
                    float accumulation rounds differently across platforms",
        scope: Scope::Files(TIME_BYTE_CORE),
        matcher: Matcher::Words(&["f32", "f64"]),
    },
    Rule {
        id: "ABR-L005",
        name: "unkeyed-map-iter",
        rationale: "event dispatch must iterate maps with their keys so the \
                    dispatch order is visibly deterministic",
        scope: Scope::Files(DISPATCH_MODULES),
        matcher: Matcher::Words(&[".values()", ".values_mut()", ".into_values()"]),
    },
    Rule {
        id: "ABR-L006",
        name: "truncating-cast",
        rationale: "`as` casts in the time core truncate silently on \
                    overflow; use checked conversions",
        scope: Scope::Files(&["crates/event/src/time.rs"]),
        matcher: Matcher::CastTo(&[
            "u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize",
        ]),
    },
    Rule {
        id: "ABR-L007",
        name: "weak-ordering",
        rationale: "memory orderings weaker than SeqCst need a lint.toml \
                    justification naming the happens-before edge that \
                    makes them safe (model evidence: sync_model tests)",
        scope: Scope::AllSources,
        matcher: Matcher::Words(&[
            "Ordering::Relaxed",
            "Ordering::Acquire",
            "Ordering::Release",
            "Ordering::AcqRel",
        ]),
    },
    Rule {
        id: "ABR-L008",
        name: "concurrency-primitives",
        rationale: "threading primitives live only in the designated \
                    concurrency modules (runner, fleet driver, obs \
                    host-timing boundary); determinism everywhere else \
                    rests on single-threaded execution",
        scope: Scope::AllExcept(CONCURRENCY_MODULES),
        matcher: Matcher::Words(&[
            "sync::atomic",
            "AtomicBool",
            "AtomicU32",
            "AtomicU64",
            "AtomicUsize",
            "Barrier",
            "Mutex",
            "RwLock",
            "Condvar",
            "thread::scope",
            "thread::spawn",
            "thread::park",
            "unpark",
            "OnceLock",
            "mpsc",
        ]),
    },
    Rule {
        id: "ABR-L009",
        name: "raw-board-access",
        rationale: "WindowBoard slots are sound only through the \
                    publish/read protocol API the model checker proves; \
                    raw slot indexing outside the driver bypasses the \
                    parity-epoch discipline",
        scope: Scope::AllExcept(&["crates/bench/src/fleet/driver.rs"]),
        matcher: Matcher::Words(&["WindowBoard", ".demand[", ".alive[", ".next_at["]),
    },
];

/// Looks up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Runs every applicable rule over one cleaned file, appending violations.
pub fn scan_file(path: &str, file: &CleanFile, out: &mut Vec<Violation>) {
    for rule in RULES {
        if !rule.scope.covers(path) {
            continue;
        }
        for (i, line) in file.lines.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            match rule.matcher {
                Matcher::Words(needles) => {
                    for needle in needles {
                        for col in find_word_occurrences(line, needle) {
                            out.push(Violation {
                                rule: rule.id,
                                path: path.to_owned(),
                                line: i + 1,
                                col: col + 1,
                                excerpt: (*needle).to_owned(),
                            });
                        }
                    }
                }
                Matcher::CastTo(types) => {
                    for (col, ty) in find_casts(line, types) {
                        out.push(Violation {
                            rule: rule.id,
                            path: path.to_owned(),
                            line: i + 1,
                            col: col + 1,
                            excerpt: format!("as {ty}"),
                        });
                    }
                }
            }
        }
    }
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Byte columns of identifier-boundary occurrences of `needle` in `line`.
fn find_word_occurrences(line: &str, needle: &str) -> Vec<usize> {
    let mut cols = Vec::new();
    let bytes = line.as_bytes();
    let nb = needle.as_bytes();
    let mut from = 0;
    while let Some(rel) = line[from..].find(needle) {
        let at = from + rel;
        let pre_ok = at == 0 || !is_ident_char(bytes[at - 1]) || !is_ident_char(nb[0]);
        let end = at + needle.len();
        let post_ok =
            end >= bytes.len() || !is_ident_char(bytes[end]) || !is_ident_char(nb[nb.len() - 1]);
        if pre_ok && post_ok {
            cols.push(at);
        }
        from = at + needle.len();
    }
    cols
}

/// `(column, target type)` of every `as <ty>` cast on `line` whose target
/// is in `types`.
fn find_casts(line: &str, types: &[&'static str]) -> Vec<(usize, &'static str)> {
    let mut found = Vec::new();
    for col in find_word_occurrences(line, "as") {
        let rest = &line[col + 2..];
        let ty_off = rest.len() - rest.trim_start().len();
        if ty_off == 0 {
            continue; // `as` glued to something: not a cast keyword
        }
        let ty_str = rest.trim_start();
        for ty in types {
            if ty_str.starts_with(ty) {
                let after = ty_str.as_bytes().get(ty.len());
                if after.is_none_or(|&c| !is_ident_char(c)) {
                    found.push((col, *ty));
                    break;
                }
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{clean_source, mark_test_regions};

    fn scan(path: &str, src: &str) -> Vec<Violation> {
        let lines = clean_source(src);
        let in_test = mark_test_regions(&lines);
        let file = CleanFile { lines, in_test };
        let mut out = Vec::new();
        scan_file(path, &file, &mut out);
        out
    }

    #[test]
    fn word_boundaries_respected() {
        // `MyHashMapLike` must not match `HashMap`.
        let v = scan("crates/net/src/x.rs", "type MyHashMapLike = ();\n");
        assert!(v.is_empty(), "{v:?}");
        let v = scan("crates/net/src/x.rs", "use std::collections::HashMap;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "ABR-L001");
        assert_eq!((v[0].line, v[0].col), (1, 23));
    }

    #[test]
    fn cast_matcher_finds_truncations_only() {
        let v = scan(
            "crates/event/src/time.rs",
            "let a = x as u64;\nlet wide = x as u128;\nlet f = x as f64;\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].excerpt, "as u64");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn scope_gates_rules() {
        // f64 outside the time/byte core is not ABR-L004's business.
        assert!(scan("crates/core/src/mpc.rs", "let x: f64 = 0.75;\n").is_empty());
        let v = scan("crates/net/src/link.rs", "let x: f64 = 0.75;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "ABR-L004");
    }

    #[test]
    fn rng_home_module_is_exempt() {
        assert!(scan("crates/event/src/rng.rs", "fn thread_rng() {}\n").is_empty());
        let v = scan("crates/core/src/bba.rs", "let r = thread_rng();\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "ABR-L003");
    }
}
