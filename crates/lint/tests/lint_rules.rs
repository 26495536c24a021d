//! Rule-by-rule fixture tests: every rule both fires (exact ids + spans)
//! and is suppressed when the allowlist or its scope says so.

use abr_lint::allowlist::Allowlist;
use abr_lint::{lint_source, LintReport};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn fixture_allowlist() -> Allowlist {
    Allowlist::parse(&fixture("allow.toml")).expect("fixture allow.toml parses")
}

/// Lints one fixture under a virtual workspace path with an empty
/// allowlist, returning `(rule, line, col)` triples.
fn spans_of(virtual_path: &str, name: &str) -> Vec<(&'static str, usize, usize)> {
    let allow = Allowlist::default();
    let mut report = LintReport::default();
    lint_source(virtual_path, &fixture(name), &allow, &mut [], &mut report);
    report.violations.sort_by_key(|v| (v.line, v.col, v.rule));
    report
        .violations
        .iter()
        .map(|v| (v.rule, v.line, v.col))
        .collect()
}

#[test]
fn l001_hash_collections_fires_with_exact_spans() {
    assert_eq!(
        spans_of("crates/net/src/fixture.rs", "hash_collections.rs"),
        vec![("ABR-L001", 3, 23), ("ABR-L001", 7, 12)],
        "cfg(test) HashSet and string-literal HashSet must not fire"
    );
}

#[test]
fn l002_host_clock_fires_with_exact_spans() {
    assert_eq!(
        spans_of("crates/player/src/fixture.rs", "host_clock.rs"),
        vec![
            ("ABR-L002", 8, 14),  // std::time
            ("ABR-L002", 8, 25),  // Instant::now
            ("ABR-L002", 12, 14), // std::time
            ("ABR-L002", 12, 25), // SystemTime
            ("ABR-L002", 13, 5),  // std::time
            ("ABR-L002", 13, 16), // SystemTime
        ]
    );
}

#[test]
fn l002_host_timing_module_is_allowlisted() {
    // The same source under the obs host-timing module path, with the
    // allowlist: every site suppressed, nothing stale about that entry.
    let allow = fixture_allowlist();
    let mut used = vec![false; allow.entries.len()];
    let mut report = LintReport::default();
    lint_source(
        "crates/obs/src/tracer.rs",
        &fixture("host_clock.rs"),
        &allow,
        &mut used,
        &mut report,
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.suppressed.len(), 6);
    assert!(used[0], "the tracer.rs entry must be marked used");
}

#[test]
fn l002_profiler_outside_host_timing_module_still_fires() {
    // The span profiler lives one file over from the allowlisted
    // host-timing module. A profiler that read std::time itself under
    // `crates/obs/src/profile.rs` must still trip L002 even with the
    // allowlist loaded — clock confinement ends at tracer.rs.
    let allow = fixture_allowlist();
    let mut used = vec![false; allow.entries.len()];
    let mut report = LintReport::default();
    lint_source(
        "crates/obs/src/profile.rs",
        &fixture("profiler_clock.rs"),
        &allow,
        &mut used,
        &mut report,
    );
    assert!(
        !report.violations.is_empty(),
        "a host clock outside tracer.rs must fire L002"
    );
    assert!(report.violations.iter().all(|v| v.rule == "ABR-L002"));
    assert!(
        report.suppressed.is_empty(),
        "the tracer.rs allowlist entry must not reach profile.rs"
    );
    assert!(!used[0], "entry must stay unused under profile.rs");
}

#[test]
fn l003_external_rng_fires_and_home_module_is_exempt() {
    assert_eq!(
        spans_of("crates/core/src/fixture.rs", "external_rng.rs"),
        vec![
            ("ABR-L003", 7, 17),  // rand::
            ("ABR-L003", 7, 23),  // thread_rng
            ("ABR-L003", 12, 13), // StdRng
            ("ABR-L003", 12, 21), // from_entropy
        ]
    );
    // The identical tokens inside the rule's home module are exempt.
    assert_eq!(
        spans_of("crates/event/src/rng.rs", "external_rng.rs"),
        vec![]
    );
}

#[test]
fn l004_float_time_fires_in_core_and_not_in_policy_code() {
    assert_eq!(
        spans_of("crates/net/src/link.rs", "float_time.rs"),
        vec![
            ("ABR-L004", 4, 28),
            ("ABR-L004", 6, 20),
            ("ABR-L004", 8, 24),
        ]
    );
    // Policy math is float by the paper's definition: out of scope.
    assert_eq!(
        spans_of("crates/core/src/fixture.rs", "float_time.rs"),
        vec![]
    );
}

#[test]
fn l005_unkeyed_iteration_fires_in_dispatch_modules_only() {
    assert_eq!(
        spans_of("crates/player/src/engine.rs", "unkeyed_iter.rs"),
        vec![("ABR-L005", 6, 21), ("ABR-L005", 9, 21)],
        "keyed .iter() must not fire"
    );
    assert_eq!(
        spans_of("crates/media/src/combo.rs", "unkeyed_iter.rs"),
        vec![]
    );
}

#[test]
fn l005_arena_iteration_in_dispatch_paths_must_be_keyed() {
    // Draining slot storage by `.values()` in the fleet driver would
    // hide whether the visit order is the slot order. The driver is a
    // dispatch module, so the rule fires; the keyed `.iter()` loop and
    // the cfg(test) sweep stay silent.
    assert_eq!(
        spans_of("crates/bench/src/fleet/driver.rs", "slotmap_unkeyed.rs"),
        vec![("ABR-L005", 10, 26), ("ABR-L005", 13, 26)],
    );
    // The same code outside a dispatch module is out of scope.
    assert_eq!(
        spans_of("crates/media/src/combo.rs", "slotmap_unkeyed.rs"),
        vec![]
    );
}

#[test]
fn l006_truncating_cast_fires_in_time_core_only() {
    assert_eq!(
        spans_of("crates/event/src/time.rs", "truncating_cast.rs"),
        vec![("ABR-L006", 4, 7), ("ABR-L006", 16, 34)],
        "widening as u128 and u64::try_from must not fire"
    );
    // Under link.rs the cast rule is out of scope (L004 still sees the
    // fixture's f64 parameter, which is the float rule doing its job).
    let elsewhere = spans_of("crates/net/src/link.rs", "truncating_cast.rs");
    assert!(
        elsewhere.iter().all(|(rule, _, _)| *rule != "ABR-L006"),
        "the cast rule only governs abr_event::time: {elsewhere:?}"
    );
}

#[test]
fn l006_rounding_boundary_is_allowlisted_by_pattern() {
    let allow = fixture_allowlist();
    let mut used = vec![false; allow.entries.len()];
    let mut report = LintReport::default();
    lint_source(
        "crates/event/src/time.rs",
        &fixture("truncating_cast.rs"),
        &allow,
        &mut used,
        &mut report,
    );
    // Line 16 (`.round() as u64`) suppressed; line 4 still fires.
    assert_eq!(report.violations.len(), 1);
    assert_eq!(
        (report.violations[0].line, report.violations[0].col),
        (4, 7)
    );
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].line, 16);
    assert!(used[1], "the time.rs rounding entry must be marked used");
}

#[test]
fn l007_weak_ordering_fires_with_exact_spans() {
    assert_eq!(
        spans_of("crates/bench/src/runner.rs", "weak_ordering.rs"),
        vec![
            ("ABR-L007", 8, 27),  // Ordering::Relaxed
            ("ABR-L007", 12, 19), // Ordering::Release
            ("ABR-L007", 13, 23), // Ordering::Acquire
            ("ABR-L007", 14, 26), // Ordering::AcqRel
        ],
        "SeqCst and cfg(test) Relaxed must not fire"
    );
}

#[test]
fn l007_justified_edge_is_suppressed_by_pattern() {
    // A lint.toml entry naming the happens-before edge covers exactly the
    // ordering it cites; the other weak orderings in the file still fire.
    let allow = Allowlist::parse(
        r#"
[[allow]]
rule = "ABR-L007"
path = "crates/bench/src/runner.rs"
pattern = "Ordering::Relaxed"
justification = "claim counter RMW: total modification order hands out unique chunks; results synchronize via mpsc send/recv and the thread::scope join"
"#,
    )
    .expect("inline allowlist parses");
    let mut used = vec![false; allow.entries.len()];
    let mut report = LintReport::default();
    lint_source(
        "crates/bench/src/runner.rs",
        &fixture("weak_ordering.rs"),
        &allow,
        &mut used,
        &mut report,
    );
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].line, 8);
    assert_eq!(
        report.violations.len(),
        3,
        "Release/Acquire/AcqRel stay unjustified: {:?}",
        report.violations
    );
    assert!(used[0], "the Relaxed entry must be marked used");
}

#[test]
fn l008_concurrency_primitives_fire_outside_designated_modules() {
    assert_eq!(
        spans_of("crates/core/src/fixture.rs", "concurrency_outside.rs"),
        vec![
            ("ABR-L008", 5, 10),  // sync::atomic
            ("ABR-L008", 5, 24),  // AtomicU64
            ("ABR-L008", 6, 16),  // Barrier
            ("ABR-L008", 7, 16),  // Mutex
            ("ABR-L008", 10, 17), // AtomicU64::new
            ("ABR-L008", 11, 10), // thread::scope
            ("ABR-L008", 14, 13), // Mutex::new
            ("ABR-L008", 25, 40), // OnceLock
            ("ABR-L008", 26, 10), // thread::park
            ("ABR-L008", 27, 42), // unpark
        ],
        "Arc and cfg(test) Mutex must not fire"
    );
}

#[test]
fn l008_designated_modules_are_exempt() {
    // The same primitives inside any designated concurrency module are
    // that module's business (and ABR-L007 audits its orderings).
    for module in [
        "crates/bench/src/runner.rs",
        "crates/bench/src/fleet/driver.rs",
        "crates/obs/src/tracer.rs",
    ] {
        let spans = spans_of(module, "concurrency_outside.rs");
        assert!(
            spans.iter().all(|(rule, _, _)| *rule != "ABR-L008"),
            "under {module}: {spans:?}"
        );
    }
}

#[test]
fn l009_raw_board_access_fires_outside_the_driver() {
    assert_eq!(
        spans_of("crates/bench/src/fixture.rs", "raw_board_access.rs"),
        vec![
            ("ABR-L009", 5, 27),  // WindowBoard (use)
            ("ABR-L009", 7, 17),  // WindowBoard (type)
            ("ABR-L009", 8, 18),  // .demand[
            ("ABR-L009", 9, 18),  // .alive[
            ("ABR-L009", 10, 18), // .next_at[
        ],
        "a plain `demand` variable must not fire"
    );
    // Inside the driver the board implements its own protocol API.
    let home = spans_of("crates/bench/src/fleet/driver.rs", "raw_board_access.rs");
    assert!(
        home.iter().all(|(rule, _, _)| *rule != "ABR-L009"),
        "{home:?}"
    );
}

#[test]
fn stale_allowlist_entries_are_detected() {
    // Run the two fixture scans that use the allowlist; the third entry
    // (qoe/nonexistent.rs) never matches and must surface as stale.
    let allow = fixture_allowlist();
    let mut used = vec![false; allow.entries.len()];
    let mut report = LintReport::default();
    lint_source(
        "crates/obs/src/tracer.rs",
        &fixture("host_clock.rs"),
        &allow,
        &mut used,
        &mut report,
    );
    lint_source(
        "crates/event/src/time.rs",
        &fixture("truncating_cast.rs"),
        &allow,
        &mut used,
        &mut report,
    );
    let stale: Vec<usize> = used
        .iter()
        .enumerate()
        .filter_map(|(i, &u)| (!u).then_some(i))
        .collect();
    assert_eq!(stale, vec![2], "exactly the planted stale entry");
    assert_eq!(allow.entries[2].path, "crates/qoe/src/nonexistent.rs");
}
