//! Deterministic parallel sweep engine.
//!
//! Every multi-session artifact in this repo (the `exp --all` set, the
//! BP sweeps, `exp mc`) is a pure function of its authored item list:
//! content synthesis, traces and policies all seed their own RNG
//! streams, and the simulated clock never observes the host.
//! That makes wall-clock parallelism safe *if and only if* two rules hold
//! (DESIGN.md §10); the first is kept where items are authored, the
//! second is enforced here:
//!
//! 1. **Seed derivation is scheduling-blind.** Every random stream is
//!    derived from the item's authored identity — an mc realization's
//!    seed `SEED + r`, a fleet session's
//!    [`SplitMix64::for_stream`](abr_event::rng::SplitMix64::for_stream)`(seed, i)`
//!    — never from worker identity, pool size or the order in which
//!    workers claim work.
//! 2. **Results merge in index order.** Workers return `(index, outcome)`
//!    through a channel; the pool re-assembles the output vector by index,
//!    so downstream tables, JSON artifacts and event traces are
//!    byte-identical at any `--jobs` value.
//!
//! The pool ([`run_pool`]) is `std::thread::scope` over `min(jobs, n)`
//! workers claiming *chunks* of indices from an atomic counter — no
//! dependencies, no work stealing, no ordering hazards. Chunk size, claim
//! order and profiling are knobs **outside** the artifact contract
//! (DESIGN.md §16): callers may pass an LPT-style longest-first hint, and
//! a profiled sweep runs the same claim loop as a plain one, because
//! results are always re-assembled in index order. The merge itself is
//! streamed: the main thread places batches into a pre-sized slot vector
//! *while workers run*, so merge cost does not grow with session count
//! after the pool drains. `tests/parallel_determinism.rs` holds the
//! contract: representative experiments run at `--jobs 1/2/8` (and random
//! chunk sizes / claim orders, profiled or not) must produce identical
//! `SessionLog`s, event traces and JSON artifacts.

use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use abr_event::sync_model::claim_range;
use abr_obs::histogram::{Histogram, HistogramSnapshot};
use abr_obs::profile::SPAN_BOUNDS_NS;
use abr_obs::{HostStopwatch, ProfileReport, Profiler, TracedEvent};
use abr_player::SessionLog;

/// Number of cores the host exposes (at least 1).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1)
}

/// The default worker count: the `ABR_JOBS` environment variable when it
/// holds a value [`parse_jobs`] accepts (a positive integer or `auto`,
/// exactly like `--jobs`), else 1 (serial). This is how CI runs the whole
/// existing test suite under parallelism without every call site growing
/// a flag.
pub fn jobs_from_env() -> usize {
    jobs_or_serial(std::env::var("ABR_JOBS").ok().as_deref())
}

/// [`jobs_from_env`]'s resolution of an optional `ABR_JOBS` value: unset
/// or rejected by [`parse_jobs`] falls back to 1.
fn jobs_or_serial(value: Option<&str>) -> usize {
    value.and_then(parse_jobs).unwrap_or(1)
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

/// A host stopwatch that runs only while profiling: switched off, it
/// reads no clock and every lap is 0 ns.
pub(crate) struct Lap(Option<HostStopwatch>);

impl Lap {
    /// Starts now when `on`, else never.
    pub(crate) fn start(on: bool) -> Lap {
        Lap(on.then(HostStopwatch::start))
    }

    /// Nanoseconds since [`Lap::start`], or 0 when switched off.
    pub(crate) fn ns(&self) -> u64 {
        self.0.as_ref().map_or(0, HostStopwatch::elapsed_ns)
    }
}

/// Runs `f(0..n)` across `min(jobs, n)` scoped workers and returns the
/// results **in index order**, regardless of completion order. With
/// `jobs <= 1` (or a single item) the same claim loop runs inline on the
/// calling thread, so the serial path and the parallel path are the same
/// code and any divergence between them is a bug in `f`, not in
/// scheduling.
///
/// `f` must be a pure function of its index (plus captured immutable
/// state); the differential suite exists to catch violations. A panic in
/// any worker propagates out of the pool — a sweep never silently drops
/// a session.
pub fn run_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let chunk = adaptive_chunk(n, jobs);
    run_pool(n, jobs, chunk, None, false, |i, _| f(i)).0
}

/// The sweep pool. `min(jobs, n)` scoped workers claim chunks of claim
/// *positions* from an atomic counter, map each position through the
/// optional claim-order hint (a permutation of `0..n`; pass the heaviest
/// items first for LPT-style scheduling) and send finished batches back
/// over a channel. The calling thread places batches into a pre-sized
/// slot vector while workers still run (the streamed merge), so the only
/// post-scope work is the index-ordered unwrap walk. With `jobs <= 1`
/// (or a single item) the claim loop runs inline on the calling thread in
/// natural index order: the hint is a scheduling concern, and scheduling
/// is the identity when there is one lane.
///
/// With `profile` on, each item gets a private [`Profiler`] (profilers
/// are `Rc`-shared and never cross threads; only the owned
/// [`ProfileReport`] does), the pool times every claim and item, merges
/// the item reports in index order and returns its own accounting. With
/// it off, `f` gets `None` and the pool reads no clock and allocates
/// nothing per item. Chunk size, claim order, worker count and `profile`
/// are all outside the artifact contract (DESIGN.md §16): the result
/// vector is identical for any combination, which the determinism
/// proptests sweep through this entry point.
pub fn run_pool<T, F>(
    n: usize,
    jobs: usize,
    chunk: usize,
    order: Option<&[usize]>,
    profile: bool,
    f: F,
) -> (Vec<T>, Option<RunnerProfile>)
where
    T: Send,
    F: Fn(usize, Option<&Rc<Profiler>>) -> T + Sync,
{
    if let Some(order) = order {
        debug_check_permutation(order, n);
    }
    let wall = Lap::start(profile);
    let jobs = jobs.max(1).min(n.max(1));
    let claim = Claim {
        next: AtomicUsize::new(0),
        chunk: chunk.max(1),
        order: order.filter(|_| jobs > 1),
        n,
        profile,
        #[cfg(feature = "debug-invariants")]
        ledger: std::sync::Mutex::new(Vec::new()),
    };
    let mut merge = Merge::new(n, profile);
    let mut spawn_ns = 0;
    let run = Lap::start(profile);
    let workers: Vec<WorkerStats> = if jobs <= 1 {
        vec![claim.work(0, &f, |batch| {
            merge.place(batch);
            true
        })]
    } else {
        let (tx, rx) = mpsc::channel::<Batch<T>>();
        std::thread::scope(|scope| {
            let spawn = Lap::start(profile);
            let handles: Vec<_> = (0..jobs)
                .map(|w| {
                    let tx = tx.clone();
                    let (claim, f) = (&claim, &f);
                    scope.spawn(move || claim.work(w, f, |batch| tx.send(batch).is_ok()))
                })
                .collect();
            spawn_ns = spawn.ns();
            drop(tx);
            // The loop ends when every worker has dropped its sender; a
            // worker panic also drops its sender, and the join below
            // re-raises it before the unwrap walk can observe the hole.
            for batch in rx {
                merge.place(batch);
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    };
    let run_ns = run.ns();
    // Dynamic half of the model checker's partition invariant: every
    // claimed range, from every lane, tiles `0..n` exactly once.
    #[cfg(feature = "debug-invariants")]
    {
        let mut ranges = claim.ledger.into_inner().expect("claim ledger");
        debug_assert!(
            abr_event::sync_model::ranges_partition(&mut ranges, n),
            "claimed ranges must partition 0..{n}"
        );
    }
    let unwrap = Lap::start(profile);
    let out = merge
        .slots
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.unwrap_or_else(|| panic!("worker dropped index {i}")))
        .collect();
    let pool = merge.profile.map(|(item_wall, spans)| RunnerProfile {
        jobs,
        items: n as u64,
        spawn_ns,
        run_ns,
        merge_ns: unwrap.ns(),
        wall_ns: wall.ns(),
        workers,
        item_wall: item_wall.snapshot(),
        spans,
    });
    (out, pool)
}

/// One claimed chunk's results: `(index, value, report)`, the report
/// `Some` only when profiling.
type Batch<T> = Vec<(usize, T, Option<ProfileReport>)>;

/// The claim state every lane shares.
struct Claim<'a> {
    /// Next unclaimed claim position.
    next: AtomicUsize,
    chunk: usize,
    order: Option<&'a [usize]>,
    n: usize,
    profile: bool,
    /// Every claimed `(p0, p1)` range, checked to partition `0..n`.
    #[cfg(feature = "debug-invariants")]
    ledger: std::sync::Mutex<Vec<(usize, usize)>>,
}

impl Claim<'_> {
    /// One lane's claim loop: claim a chunk, run its items, hand the
    /// batch to `emit` (which returns `false` once nobody is listening),
    /// until the positions run out. Returns the lane's host-time ledger;
    /// claim laps and item runs are disjoint, so `claim_ns + busy_ns <=
    /// alive_ns` holds by construction.
    fn work<T>(
        &self,
        worker: usize,
        f: &impl Fn(usize, Option<&Rc<Profiler>>) -> T,
        mut emit: impl FnMut(Batch<T>) -> bool,
    ) -> WorkerStats {
        let alive = Lap::start(self.profile);
        let mut stats = WorkerStats {
            worker,
            ..WorkerStats::default()
        };
        loop {
            let claim = Lap::start(self.profile);
            // `Relaxed` claim: RMWs on one location have a total
            // modification order even at `Relaxed`, so every counter
            // value — hence every `claim_range` — is handed out exactly
            // once; results synchronize via the mpsc channel. Model-checked
            // as `sync_model::ClaimModel` (see `lint.toml`).
            let claimed = claim_range(
                self.next.fetch_add(self.chunk, Ordering::Relaxed),
                self.chunk,
                self.n,
            );
            stats.claim_ns += claim.ns();
            let Some((p0, p1)) = claimed else {
                break;
            };
            #[cfg(feature = "debug-invariants")]
            self.ledger.lock().expect("claim ledger").push((p0, p1));
            let batch: Batch<T> = (p0..p1)
                .map(|p| {
                    let i = self.order.map_or(p, |o| o[p]);
                    if !self.profile {
                        return (i, f(i, None), None);
                    }
                    let profiler = Rc::new(Profiler::new());
                    let item = HostStopwatch::start();
                    let value = f(i, Some(&profiler));
                    stats.busy_ns += item.elapsed_ns();
                    (i, value, Some(profiler.report()))
                })
                .collect();
            stats.items += batch.len() as u64;
            if !emit(batch) {
                break;
            }
        }
        stats.alive_ns = alive.ns();
        stats
    }
}

/// The calling thread's half of the pool: index-addressed result slots
/// and, when profiling, the item reports awaiting the span merge.
struct Merge<T> {
    slots: Vec<Option<T>>,
    /// Per-item reports not merged yet (empty unless profiling).
    reports: Vec<Option<ProfileReport>>,
    /// Index of the first report not merged yet.
    frontier: usize,
    /// Per-item wall histogram and merged span tree, when profiling.
    profile: Option<(Histogram, ProfileReport)>,
}

impl<T> Merge<T> {
    fn new(n: usize, profile: bool) -> Merge<T> {
        Merge {
            slots: (0..n).map(|_| None).collect(),
            reports: if profile { vec![None; n] } else { Vec::new() },
            frontier: 0,
            profile: profile.then(|| {
                (
                    Histogram::with_bounds(SPAN_BOUNDS_NS),
                    ProfileReport::default(),
                )
            }),
        }
    }

    /// Places a batch, then merges reports along the filled prefix. The
    /// merged tree is reported to the user, so the span merge must run in
    /// index order; advancing a frontier lets it overlap execution
    /// instead of trailing it.
    fn place(&mut self, batch: Batch<T>) {
        for (i, value, report) in batch {
            debug_assert!(self.slots[i].is_none(), "index {i} produced twice");
            self.slots[i] = Some(value);
            if report.is_some() {
                self.reports[i] = report;
            }
        }
        if let Some((item_wall, spans)) = &mut self.profile {
            while let Some(report) = self.reports.get_mut(self.frontier).and_then(Option::take) {
                item_wall.observe(report.wall_ns as f64);
                spans.merge(&report);
                self.frontier += 1;
            }
        }
    }
}

/// Host-time accounting for one pool worker (or the serial lane with
/// `jobs <= 1`): how many items it ran, how long it spent claiming
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
/// the merged span tree from the items themselves (in index order, per the
/// determinism contract).
#[derive(Debug, Clone, Default)]
pub struct RunnerProfile {
    /// Workers the pool actually used (1 = serial path).
    pub jobs: usize,
    /// Items dispatched.
    pub items: u64,
    /// End-to-end host time of the profiled call.
    pub wall_ns: u64,
    /// Time to spawn workers (0 on the serial path).
    pub spawn_ns: u64,
    /// Time inside the pool (claim + run + the streamed placement of
    /// result batches, bounded by the slowest worker).
    pub run_ns: u64,
    /// Post-pool merge remainder. Placement and the index-ordered span
    /// merge are streamed while workers run, so this is only the final
    /// unwrap walk — it does not grow with session count.
    pub merge_ns: u64,
    /// Per-worker accounting, in worker order.
    pub workers: Vec<WorkerStats>,
    /// Per-item host wall time (ns, [`SPAN_BOUNDS_NS`] buckets).
    pub item_wall: HistogramSnapshot,
    /// Per-item span trees merged in index order.
    pub spans: ProfileReport,
}

/// Everything a session run sends back across the worker boundary. All
/// fields are plain owned data (`Send`); nothing here aliases worker
/// state.
pub struct SessionOutcome {
    /// The session's label, `<experiment>/<session>` by convention.
    pub label: String,
    /// The session's directly-recorded log.
    pub log: SessionLog,
    /// The captured event trace (deterministic stamping — `wall_ns` 0).
    pub events: Vec<TracedEvent>,
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
    fn abr_jobs_values_resolve_like_the_jobs_flag() {
        assert_eq!(jobs_or_serial(Some("auto")), available_cores());
        assert_eq!(jobs_or_serial(Some("3")), 3);
        assert_eq!(jobs_or_serial(Some("0")), 1);
        assert_eq!(jobs_or_serial(Some("-2")), 1);
        assert_eq!(jobs_or_serial(Some("four")), 1);
        assert_eq!(jobs_or_serial(None), 1);
    }

    #[test]
    fn parse_jobs_takes_positive_integers_and_auto_only() {
        assert_eq!(parse_jobs("1"), Some(1));
        assert_eq!(parse_jobs("12"), Some(12));
        assert_eq!(parse_jobs("auto"), Some(available_cores()));
        for junk in ["0", "-1", "", " 2", "2.5", "AUTO"] {
            assert_eq!(parse_jobs(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn adaptive_chunk_aims_for_eight_rounds_per_worker_within_bounds() {
        assert_eq!(adaptive_chunk(0, 4), 1, "never a zero-size claim");
        assert_eq!(adaptive_chunk(10, 0), 1, "zero jobs counts as one worker");
        assert_eq!(adaptive_chunk(320, 4), 10);
        assert_eq!(adaptive_chunk(1_000_000, 2), 64, "capped");
    }

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
            let chunk = adaptive_chunk(37, jobs);
            let (out, pool) = run_pool(37, jobs, chunk, None, false, |i, _| i * i);
            assert_eq!(
                out,
                (0..37).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
            assert!(pool.is_none());
        }
        assert!(run_pool(0, 4, 1, None, false, |i, _| i).0.is_empty());
    }

    #[test]
    fn run_indexed_profiled_matches_plain_results() {
        for jobs in [1, 2, 8] {
            let chunk = adaptive_chunk(23, jobs);
            let (out, profile) = run_pool(23, jobs, chunk, None, true, |i, prof| {
                let _g = prof.expect("profiling is on").span("item");
                i * 3
            });
            let profile = profile.expect("profiled");
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
        let (out, profile) = run_pool(0, 4, 1, None, true, |_, _| -> usize { unreachable!() });
        assert!(out.is_empty());
        assert_eq!(profile.expect("profiled").items, 0);
    }
}
