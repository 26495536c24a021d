//! Deterministic parallel sweep engine.
//!
//! Every multi-session artifact in this repo (the `exp --all` set, the
//! BP sweeps, the scan binaries, the Criterion groups) is a pure function
//! of its session specs: content synthesis, traces and policies all seed
//! their own RNG streams, and the simulated clock never observes the host.
//! That makes wall-clock parallelism safe *if and only if* two rules hold,
//! and this module is the one place they are enforced (DESIGN.md §10):
//!
//! 1. **Seed derivation is scheduling-blind.** A session's random stream
//!    is [`SplitMix64::for_stream`]`(spec.seed, spec.stream)` — a pure
//!    function of the spec, never of worker identity, pool size or the
//!    order in which workers claim work.
//! 2. **Results merge in spec order.** Workers return `(index, outcome)`
//!    through a channel; the pool re-assembles the output vector by index,
//!    so downstream tables, JSON artifacts and merged metrics are
//!    byte-identical at any `--jobs` value.
//!
//! The pool is `std::thread::scope` over `min(jobs, n)` workers claiming
//! *chunks* of indices from an atomic counter — no dependencies, no work
//! stealing, no ordering hazards. Chunk size and claim order are
//! scheduling knobs **outside** the artifact contract (DESIGN.md §16):
//! callers may pass an LPT-style longest-first hint
//! ([`run_indexed_sched`]) and the pool may batch claims however it
//! likes, because results are always re-assembled in index order. The
//! merge itself is streamed: the main thread places batches into a
//! pre-sized slot vector *while workers run*, so merge cost no longer
//! grows with session count after the pool drains.
//! `tests/parallel_determinism.rs` holds the contract: representative
//! experiments run at `--jobs 1/2/8` (and random chunk sizes / claim
//! orders) must produce identical `SessionLog`s, JSON artifacts and
//! merged metrics.

use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use abr_event::rng::SplitMix64;
use abr_event::sync_model::claim_range;
use abr_obs::metrics::{Histogram, HistogramSnapshot};
use abr_obs::profile::SPAN_BOUNDS_NS;
use abr_obs::{HostStopwatch, MetricsSnapshot, ProfileReport, Profiler, TracedEvent};
use abr_player::SessionLog;

/// Number of cores the host exposes (at least 1).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1)
}

/// Clamps a requested worker count to `min(jobs, cores)`, floor 1. Use
/// this when *defaulting* a jobs value; [`run_indexed`] honors an
/// explicit request above the core count (the OS time-slices, and by the
/// determinism contract the output cannot depend on worker count — that
/// is also what lets the differential suite exercise real thread
/// interleavings on single-core CI runners).
pub fn effective_jobs(requested: usize) -> usize {
    requested.clamp(1, available_cores())
}

/// The default worker count: the `ABR_JOBS` environment variable when set
/// to a positive integer, else 1 (serial). This is how CI runs the whole
/// existing test suite under parallelism without every call site growing
/// a flag.
pub fn jobs_from_env() -> usize {
    std::env::var("ABR_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Parses a `--jobs` value: a positive integer, or the literal `auto`
/// which resolves to [`available_cores`]. Returns `None` for anything
/// else (zero, negatives, junk) so callers can fall through to their
/// default. This is the one place "auto" is defined; `exp`, `exp mc` and
/// `exp fleet` all route through it.
pub fn parse_jobs(value: &str) -> Option<usize> {
    if value == "auto" {
        return Some(available_cores());
    }
    value.parse::<usize>().ok().filter(|&n| n > 0)
}

/// Jobs for the small calibration binaries: a `--jobs N` argument when
/// present (including `--jobs auto`), else [`jobs_from_env`]. (The `exp`
/// CLI does its own argument parsing and only uses the env fallback.)
pub fn jobs_from_args_or_env() -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.windows(2) {
        if pair[0] == "--jobs" {
            if let Some(n) = parse_jobs(&pair[1]) {
                return n;
            }
        }
    }
    jobs_from_env()
}

/// Chunk size used when the caller does not fix one: aim for roughly
/// eight claim rounds per worker — enough that the shared counter and
/// channel are off the per-item path, few enough that a heavy tail can't
/// strand more than a sliver of the sweep on one worker — capped at 64
/// items per claim. Like claim order, the chunk size is outside the
/// artifact contract (DESIGN.md §16).
pub fn adaptive_chunk(n: usize, jobs: usize) -> usize {
    (n / (jobs.max(1) * 8)).clamp(1, 64)
}

/// Debug-mode check that a claim-order hint is a permutation of `0..n`.
fn debug_check_permutation(order: &[usize], n: usize) {
    debug_assert_eq!(order.len(), n, "claim hint length must equal item count");
    #[cfg(debug_assertions)]
    {
        let mut seen = vec![false; n];
        for &i in order {
            assert!(
                i < n && !seen[i],
                "claim hint must be a permutation of 0..n"
            );
            seen[i] = true;
        }
    }
}

/// Runs `f(0..n)` across `min(jobs, n)` scoped workers and returns the
/// results **in index order**, regardless of completion order. With
/// `jobs <= 1` (or a single item) it degenerates to the serial loop, so
/// the serial path and the parallel path are the same code shape and any
/// divergence between them is a bug in `f`, not in scheduling.
///
/// `f` must be a pure function of its index (plus captured immutable
/// state); the differential suite exists to catch violations. A panic in
/// any worker propagates out of the scope — a sweep never silently drops
/// a session.
pub fn run_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_chunked(n, jobs, adaptive_chunk(n, jobs), None, || (), |(), i| f(i))
}

/// [`run_indexed`] with every scheduling knob exposed: a fixed claim
/// chunk size and an optional claim-order hint (a permutation of `0..n`;
/// pass the heaviest items first for LPT-style scheduling). Both knobs
/// are outside the artifact contract — the result vector is index-ordered
/// and byte-identical for *any* `(jobs, chunk, order)` combination, which
/// the determinism proptests sweep directly through this entry point.
pub fn run_indexed_sched<T, F>(
    n: usize,
    jobs: usize,
    chunk: usize,
    order: Option<&[usize]>,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_chunked(n, jobs, chunk, order, || (), |(), i| f(i))
}

/// [`run_indexed`] with per-worker scratch state: each worker (or the
/// serial loop) builds one `S` via `init` and threads it mutably through
/// every item it claims. The state is *scratch only* — reusable
/// allocations like [`abr_player::SessionScratch`] — and must never
/// influence an item's result: outputs remain a pure function of the
/// index, which the determinism suite checks by comparing jobs values.
pub fn run_indexed_with<S, T, I, F>(n: usize, jobs: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    run_chunked(n, jobs, adaptive_chunk(n, jobs), None, init, f)
}

/// [`run_indexed_with`] plus a claim-order hint (see
/// [`run_indexed_sched`]). This is the entry point for heavy-tailed
/// sweeps with per-worker scratch — `exp mc` passes its MPC-first order
/// here.
pub fn run_indexed_with_hinted<S, T, I, F>(
    n: usize,
    jobs: usize,
    order: &[usize],
    init: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    run_chunked(n, jobs, adaptive_chunk(n, jobs), Some(order), init, f)
}

/// The shared pool core: `min(jobs, n)` scoped workers claim chunks of
/// claim *positions* from an atomic counter, map each position through
/// the optional claim-order hint, and send completed batches back over a
/// channel. The main thread streams batches into a pre-sized slot vector
/// while workers are still running (the "streamed merge"), so the only
/// post-scope work is the index-ordered unwrap walk.
///
/// With `jobs <= 1` (or a single item) this degenerates to the serial
/// loop in natural index order — the hint is a scheduling concern and
/// scheduling is the identity when there is one lane.
fn run_chunked<S, T, I, F>(
    n: usize,
    jobs: usize,
    chunk: usize,
    order: Option<&[usize]>,
    init: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if let Some(order) = order {
        debug_check_permutation(order, n);
    }
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let chunk = chunk.max(1);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<Vec<(usize, T)>>();
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    // Dynamic half of the model checker's partition invariant: record
    // every claimed range and assert they tile `0..n` exactly once.
    #[cfg(feature = "debug-invariants")]
    let claim_ledger = std::sync::Mutex::new(Vec::<(usize, usize)>::new());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let init = &init;
            let f = &f;
            #[cfg(feature = "debug-invariants")]
            let claim_ledger = &claim_ledger;
            scope.spawn(move || {
                let mut state = init();
                loop {
                    // `Relaxed` claim: RMWs on one location have a total
                    // modification order even at `Relaxed`, so every
                    // counter value — hence every `claim_range` — is
                    // handed out exactly once; results synchronize via
                    // the mpsc channel. Model-checked as
                    // `sync_model::ClaimModel` (see `lint.toml`).
                    let claimed = claim_range(next.fetch_add(chunk, Ordering::Relaxed), chunk, n);
                    let Some((p0, p1)) = claimed else {
                        break;
                    };
                    #[cfg(feature = "debug-invariants")]
                    claim_ledger.lock().expect("claim ledger").push((p0, p1));
                    let batch: Vec<(usize, T)> = (p0..p1)
                        .map(|p| {
                            let i = order.map_or(p, |o| o[p]);
                            (i, f(&mut state, i))
                        })
                        .collect();
                    if tx.send(batch).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Streamed merge: place batches while workers run. The loop ends
        // when every worker has dropped its sender; a worker panic also
        // drops its sender, and the scope re-raises the panic before the
        // unwrap walk below can observe the hole.
        for batch in rx {
            for (i, value) in batch {
                debug_assert!(slots[i].is_none(), "index {i} produced twice");
                slots[i] = Some(value);
            }
        }
    });
    #[cfg(feature = "debug-invariants")]
    {
        let mut ranges = claim_ledger.into_inner().expect("claim ledger");
        debug_assert!(
            abr_event::sync_model::ranges_partition(&mut ranges, n),
            "claimed ranges must partition 0..{n}"
        );
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.unwrap_or_else(|| panic!("worker dropped index {i}")))
        .collect()
}

/// Host-time accounting for one pool worker (or the serial pseudo-worker
/// with `jobs <= 1`): how many items it ran, how long it spent claiming
/// indices vs. running jobs, and its total lifetime. `busy_ns /
/// alive_ns` is the worker's utilization — the signal that distinguishes
/// "the pool starves on work" from "the work itself is slow".
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Worker index within the pool (0-based spawn order).
    pub worker: usize,
    /// Items this worker claimed and ran (fleet workers: the sessions
    /// that finished in the worker's domains).
    pub items: u64,
    /// Host time spent in the claim phase. Under chunked claiming this is
    /// the per-*chunk* fetch-add rounds only — item execution is timed
    /// separately in `busy_ns`, so `claim_ns + busy_ns <= alive_ns` holds
    /// per worker (asserted in `profile_determinism`). Fleet workers
    /// claim no work; for them this is the time spent waiting at the
    /// per-window barrier.
    pub claim_ns: u64,
    /// Host time spent inside job closures (fleet workers: draining
    /// their domains and folding the window).
    pub busy_ns: u64,
    /// Worker lifetime from spawn-side entry to loop exit.
    pub alive_ns: u64,
}

/// Where a profiled sweep's host time went: pool phases (spawn / run /
/// merge), per-worker utilization, per-item wall-time distribution, and
/// the merged span tree from the items themselves (in spec order, per the
/// determinism contract).
#[derive(Debug, Clone, Default)]
pub struct RunnerProfile {
    /// Workers the pool actually used (1 = serial path).
    pub jobs: usize,
    /// Items dispatched.
    pub items: u64,
    /// End-to-end host time of the profiled call.
    pub wall_ns: u64,
    /// Time to set up the pool and spawn workers.
    pub spawn_ns: u64,
    /// Time inside the worker scope (claim + run + the streamed placement
    /// of result batches, bounded by the slowest worker).
    pub run_ns: u64,
    /// Post-scope merge remainder. Placement and the index-ordered span
    /// merge are streamed while workers run, so this is only the final
    /// unwrap walk plus whatever span merging the stream had not yet
    /// caught up on — it no longer grows with session count.
    pub merge_ns: u64,
    /// Per-worker accounting, in worker order.
    pub workers: Vec<WorkerStats>,
    /// Per-item host wall time (ns, [`SPAN_BOUNDS_NS`] buckets).
    pub item_wall: HistogramSnapshot,
    /// Per-item span trees merged in index (= spec) order.
    pub spans: ProfileReport,
}

/// [`run_indexed`] with host-time accounting: `f` additionally returns
/// the item's [`ProfileReport`], and the pool reports where its own time
/// went. Ordering semantics are identical to [`run_indexed`] — results
/// and span merges happen in index order, so profiled artifacts stay
/// byte-identical at any `jobs` value. Only the `RunnerProfile` (which
/// never feeds artifacts) varies run to run.
pub fn run_indexed_profiled<T, F>(n: usize, jobs: usize, f: F) -> (Vec<T>, RunnerProfile)
where
    T: Send,
    F: Fn(usize) -> (T, ProfileReport) + Sync,
{
    run_profiled_sched(n, jobs, adaptive_chunk(n, jobs), None, f)
}

/// [`run_indexed_profiled`] with the scheduling knobs exposed (fixed
/// chunk size, optional claim-order hint) — the profiled twin of
/// [`run_indexed_sched`]. `exp mc --profile` routes here with its
/// MPC-first hint so profiled and unprofiled runs schedule identically.
pub fn run_profiled_sched<T, F>(
    n: usize,
    jobs: usize,
    chunk: usize,
    order: Option<&[usize]>,
    f: F,
) -> (Vec<T>, RunnerProfile)
where
    T: Send,
    F: Fn(usize) -> (T, ProfileReport) + Sync,
{
    if let Some(order) = order {
        debug_check_permutation(order, n);
    }
    let wall = HostStopwatch::start();
    let jobs = jobs.max(1).min(n.max(1));
    let mut profile = RunnerProfile {
        jobs,
        items: n as u64,
        ..RunnerProfile::default()
    };
    let mut item_wall = Histogram::with_bounds(SPAN_BOUNDS_NS);
    if jobs <= 1 {
        let mut out = Vec::with_capacity(n);
        let mut reports = Vec::with_capacity(n);
        let mut stats = WorkerStats::default();
        let run = HostStopwatch::start();
        for i in 0..n {
            let item = HostStopwatch::start();
            let (value, report) = f(i);
            stats.items += 1;
            stats.busy_ns += item.elapsed_ns();
            out.push(value);
            reports.push(report);
        }
        profile.run_ns = run.elapsed_ns();
        stats.alive_ns = profile.run_ns;
        profile.workers.push(stats);
        let merge = HostStopwatch::start();
        for report in &reports {
            item_wall.observe(report.wall_ns as f64);
            profile.spans.merge(report);
        }
        profile.merge_ns = merge.elapsed_ns();
        profile.item_wall = item_wall.snapshot();
        profile.wall_ns = wall.elapsed_ns();
        return (out, profile);
    }
    let chunk = chunk.max(1);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<Vec<(usize, T, ProfileReport)>>();
    let (stx, srx) = mpsc::channel::<WorkerStats>();
    // Dynamic half of the model checker's partition invariant, as in
    // `run_chunked`.
    #[cfg(feature = "debug-invariants")]
    let claim_ledger = std::sync::Mutex::new(Vec::<(usize, usize)>::new());
    let spawn = HostStopwatch::start();
    let run = HostStopwatch::start();
    let mut slots: Vec<Option<(T, ProfileReport)>> = (0..n).map(|_| None).collect();
    // Index of the first slot whose span report has not been merged yet.
    // The stream loop advances it in index order while workers run, so
    // span merging (which must be index-ordered — the merged tree is
    // reported to the user) overlaps execution instead of trailing it.
    let mut frontier = 0usize;
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let tx = tx.clone();
            let stx = stx.clone();
            let next = &next;
            let f = &f;
            #[cfg(feature = "debug-invariants")]
            let claim_ledger = &claim_ledger;
            scope.spawn(move || {
                let alive = HostStopwatch::start();
                let mut stats = WorkerStats {
                    worker: w,
                    ..WorkerStats::default()
                };
                loop {
                    let claim = HostStopwatch::start();
                    // `Relaxed` claim — same protocol and model evidence
                    // as `run_chunked` (see `lint.toml`).
                    let claimed = claim_range(next.fetch_add(chunk, Ordering::Relaxed), chunk, n);
                    stats.claim_ns += claim.elapsed_ns();
                    let Some((p0, p1)) = claimed else {
                        break;
                    };
                    #[cfg(feature = "debug-invariants")]
                    claim_ledger.lock().expect("claim ledger").push((p0, p1));
                    let mut batch = Vec::with_capacity(p1 - p0);
                    for p in p0..p1 {
                        let i = order.map_or(p, |o| o[p]);
                        let item = HostStopwatch::start();
                        let (value, report) = f(i);
                        stats.items += 1;
                        stats.busy_ns += item.elapsed_ns();
                        batch.push((i, value, report));
                    }
                    if tx.send(batch).is_err() {
                        break;
                    }
                }
                stats.alive_ns = alive.elapsed_ns();
                let _ = stx.send(stats);
            });
        }
        profile.spawn_ns = spawn.elapsed_ns();
        drop(tx);
        for batch in rx {
            for (i, value, report) in batch {
                debug_assert!(slots[i].is_none(), "index {i} produced twice");
                slots[i] = Some((value, report));
            }
            while let Some(Some((_, report))) = slots.get(frontier) {
                item_wall.observe(report.wall_ns as f64);
                profile.spans.merge(report);
                frontier += 1;
            }
        }
    });
    #[cfg(feature = "debug-invariants")]
    {
        let mut ranges = claim_ledger.into_inner().expect("claim ledger");
        debug_assert!(
            abr_event::sync_model::ranges_partition(&mut ranges, n),
            "claimed ranges must partition 0..{n}"
        );
    }
    profile.run_ns = run.elapsed_ns();
    drop(stx);
    let merge = HostStopwatch::start();
    let mut out = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        let (value, report) = slot.unwrap_or_else(|| panic!("worker dropped index {i}"));
        if i >= frontier {
            item_wall.observe(report.wall_ns as f64);
            profile.spans.merge(&report);
        }
        out.push(value);
    }
    profile.workers = srx.iter().collect();
    profile.workers.sort_by_key(|s| s.worker);
    profile.merge_ns = merge.elapsed_ns();
    profile.item_wall = item_wall.snapshot();
    profile.wall_ns = wall.elapsed_ns();
    (out, profile)
}

/// Everything a session run sends back across the worker boundary. All
/// fields are plain owned data (`Send`); nothing here aliases worker
/// state.
pub struct SessionOutcome {
    /// The spec's label, `<experiment>/<session>` by convention.
    pub label: String,
    /// The session's directly-recorded log.
    pub log: SessionLog,
    /// The captured event trace (deterministic stamping — `wall_ns` 0).
    pub events: Vec<TracedEvent>,
    /// The session's private metrics registry, snapshotted.
    pub metrics: MetricsSnapshot,
}

impl SessionOutcome {
    /// Wraps the `(log, events, metrics)` triple a
    /// `run_session_obs`-style runner returns. The label is left empty;
    /// [`SessionSpec::run`] stamps the spec's own label on, so a job
    /// closure never has to repeat its spec's identity.
    pub fn from_obs(parts: (SessionLog, Vec<TracedEvent>, MetricsSnapshot)) -> SessionOutcome {
        SessionOutcome {
            label: String::new(),
            log: parts.0,
            events: parts.1,
            metrics: parts.2,
        }
    }
}

/// One session of a sweep: a stable identity (label, seed, stream) plus
/// the job that realises it. The job receives the spec's derived RNG —
/// [`SplitMix64::for_stream`]`(seed, stream)` — as its only source of
/// randomness, so the stream a session sees is fixed at spec-construction
/// time, not at scheduling time.
pub struct SessionSpec {
    /// Human-readable identity, `<experiment>/<session>` by convention.
    pub label: String,
    /// Base seed (usually the experiment-wide content seed).
    pub seed: u64,
    /// Stable stream index within the sweep (position in the spec list at
    /// construction time — *not* any runtime ordering).
    pub stream: u64,
    /// The job takes the derived RNG plus an optional span profiler. The
    /// profiler argument is `None` on unprofiled runs and must never
    /// influence the outcome — profiling observes, artifacts stay
    /// byte-identical (`tests/profile_determinism.rs`).
    job: SessionJob,
}

/// The boxed closure a [`SessionSpec`] realises: derived RNG in, session
/// outcome out, with an optional span profiler to observe (never steer)
/// the run.
type SessionJob =
    Box<dyn Fn(&mut SplitMix64, Option<&Rc<Profiler>>) -> SessionOutcome + Send + Sync>;

impl SessionSpec {
    /// A new spec. `stream` must be stable across runs (use the spec's
    /// position in the authored sweep, or any other value derived from
    /// the sweep definition alone).
    pub fn new<F>(label: impl Into<String>, seed: u64, stream: u64, job: F) -> SessionSpec
    where
        F: Fn(&mut SplitMix64) -> SessionOutcome + Send + Sync + 'static,
    {
        SessionSpec {
            label: label.into(),
            seed,
            stream,
            job: Box::new(move |rng, _prof| job(rng)),
        }
    }

    /// A new spec whose job is profiler-aware: under `--profile` it
    /// receives the per-session span profiler to wire into its
    /// `ObsHandle`, otherwise `None`.
    pub fn new_profiled<F>(label: impl Into<String>, seed: u64, stream: u64, job: F) -> SessionSpec
    where
        F: Fn(&mut SplitMix64, Option<&Rc<Profiler>>) -> SessionOutcome + Send + Sync + 'static,
    {
        SessionSpec {
            label: label.into(),
            seed,
            stream,
            job: Box::new(job),
        }
    }

    /// The spec's derived RNG stream (order-independent; see
    /// `crates/event/tests/proptests.rs`).
    pub fn rng(&self) -> SplitMix64 {
        SplitMix64::for_stream(self.seed, self.stream)
    }

    /// Runs the session serially, in the calling thread. The outcome's
    /// label is stamped from the spec.
    pub fn run(&self) -> SessionOutcome {
        let mut outcome = (self.job)(&mut self.rng(), None);
        outcome.label = self.label.clone();
        outcome
    }

    /// Runs the session with a span profiler attached. Must produce the
    /// exact same outcome as [`SessionSpec::run`].
    pub fn run_profiled(&self, profiler: &Rc<Profiler>) -> SessionOutcome {
        let mut outcome = (self.job)(&mut self.rng(), Some(profiler));
        outcome.label = self.label.clone();
        outcome
    }
}

impl std::fmt::Debug for SessionSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionSpec")
            .field("label", &self.label)
            .field("seed", &self.seed)
            .field("stream", &self.stream)
            .finish_non_exhaustive()
    }
}

/// Shards `specs` across `min(jobs, cores)` workers and returns outcomes
/// **in spec order**.
pub fn run_specs(specs: &[SessionSpec], jobs: usize) -> Vec<SessionOutcome> {
    run_indexed(specs.len(), jobs, |i| specs[i].run())
}

/// [`run_specs`] with profiling: each worker builds a session-private
/// [`Profiler`] (profilers are `Rc`-shared and never cross threads —
/// only the owned [`ProfileReport`] does), and the pool merges the
/// per-session span trees in spec order.
pub fn run_specs_profiled(
    specs: &[SessionSpec],
    jobs: usize,
) -> (Vec<SessionOutcome>, RunnerProfile) {
    run_indexed_profiled(specs.len(), jobs, |i| {
        let profiler = Rc::new(Profiler::new());
        let outcome = specs[i].run_profiled(&profiler);
        (outcome, profiler.report())
    })
}

/// Merges per-session metrics snapshots in spec order (the deterministic
/// ordered merge behind `exp --metrics` on sweeps).
pub fn merged_metrics(outcomes: &[SessionOutcome]) -> MetricsSnapshot {
    MetricsSnapshot::merge_ordered(outcomes.iter().map(|o| &o.metrics))
}

/// Compile-time proof that everything crossing the worker boundary is
/// `Send`, and that the shared inputs job closures capture by reference
/// are `Sync` — the "no hidden shared state" half of the determinism
/// contract. If a future change threads an `Rc` or raw pointer through
/// any of these types, this module stops compiling instead of the pool
/// going racy.
#[allow(dead_code)]
fn static_send_sync_assertions() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    // Crosses the channel:
    send::<SessionOutcome>();
    send::<SessionLog>();
    send::<Vec<TracedEvent>>();
    send::<MetricsSnapshot>();
    // Captured by job closures:
    sync::<abr_media::content::Content>();
    sync::<abr_net::trace::Trace>();
    sync::<abr_manifest::view::BoundDash>();
    sync::<abr_manifest::view::BoundHls>();
    sync::<abr_player::config::PlayerConfig>();
    // NOT asserted Send: Origin, Link, Session, ObsHandle — they hold
    // session-private `Rc` state and are constructed inside the worker
    // that runs them, never transported across threads.
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn run_indexed_preserves_index_order() {
        for jobs in [1, 2, 8] {
            let out = run_indexed(37, jobs, |i| i * i);
            assert_eq!(
                out,
                (0..37).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
        assert!(run_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn run_indexed_runs_every_index_exactly_once() {
        let seen = Mutex::new(Vec::new());
        let out = run_indexed(100, 8, |i| {
            seen.lock().unwrap().push(i);
            i
        });
        assert_eq!(out.len(), 100);
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 100);
        assert_eq!(seen.iter().copied().collect::<HashSet<_>>().len(), 100);
    }

    #[test]
    fn run_indexed_with_matches_run_indexed() {
        for jobs in [1, 2, 8] {
            let out = run_indexed_with(37, jobs, Vec::<usize>::new, |scratch, i| {
                scratch.push(i); // worker-local scratch, result ignores it
                i * i
            });
            assert_eq!(
                out,
                (0..37).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
        assert!(run_indexed_with(0, 4, || (), |_, i| i).is_empty());
    }

    #[test]
    fn effective_jobs_clamps() {
        assert_eq!(effective_jobs(0), 1);
        assert!(effective_jobs(usize::MAX) <= available_cores());
        assert!(available_cores() >= 1);
    }

    #[test]
    fn run_indexed_profiled_matches_plain_results() {
        for jobs in [1, 2, 8] {
            let (out, profile) = run_indexed_profiled(23, jobs, |i| {
                let prof = Rc::new(Profiler::new());
                {
                    let _g = prof.span("item");
                }
                (i * 3, prof.report())
            });
            assert_eq!(
                out,
                (0..23).map(|i| i * 3).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
            assert_eq!(profile.items, 23);
            assert_eq!(profile.jobs, jobs);
            assert_eq!(
                profile.workers.iter().map(|w| w.items).sum::<u64>(),
                23,
                "jobs={jobs}"
            );
            // 23 per-item reports each closed one "item" span.
            assert_eq!(profile.spans.roots.len(), 1);
            assert_eq!(profile.spans.roots[0].count, 23);
            assert_eq!(profile.item_wall.count, 23);
            assert!(profile.wall_ns >= profile.run_ns);
        }
        let (out, profile) = run_indexed_profiled(0, 4, |_| unreachable!());
        let _: Vec<usize> = out;
        assert_eq!(profile.items, 0);
    }

    #[test]
    fn spec_run_profiled_equals_run() {
        fn empty_log(policy: String) -> SessionLog {
            SessionLog {
                policy,
                selections: Vec::new(),
                transfers: Vec::new(),
                buffer_samples: Vec::new(),
                stalls: Vec::new(),
                playlist_fetches: Vec::new(),
                seeks: Vec::new(),
                startup_at: None,
                ended_at: None,
                finished_at: abr_event::time::Instant::ZERO,
                chunk_duration: abr_event::time::Duration::from_secs(4),
                num_chunks: 0,
            }
        }
        let spec = SessionSpec::new_profiled("p/x", 2019, 3, |rng, prof| {
            if let Some(p) = prof {
                let _g = p.span("job");
            }
            SessionOutcome::from_obs((
                empty_log(format!("rng:{}", rng.next_u64())),
                Vec::new(),
                MetricsSnapshot::default(),
            ))
        });
        let plain = spec.run();
        let profiler = Rc::new(Profiler::new());
        let profiled = spec.run_profiled(&profiler);
        // Same derived RNG, same outcome, profiler only observed.
        assert_eq!(plain.log.policy, profiled.log.policy);
        assert_eq!(plain.label, profiled.label);
        assert_eq!(profiler.report().roots[0].name, "job");
    }

    #[test]
    fn spec_rng_ignores_execution_order() {
        let mk = |stream: u64| {
            SessionSpec::new(format!("s{stream}"), 2019, stream, |_rng| unreachable!())
        };
        let forward: Vec<u64> = (0..8).map(|s| mk(s).rng().next_u64()).collect();
        let backward: Vec<u64> = (0..8).rev().map(|s| mk(s).rng().next_u64()).collect();
        let reversed: Vec<u64> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
        // Sibling streams are distinct.
        assert_eq!(forward.iter().collect::<HashSet<_>>().len(), forward.len());
    }
}
