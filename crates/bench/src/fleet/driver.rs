//! The windowed, sharded fleet driver.
//!
//! Topology and schedule (DESIGN.md §14):
//!
//! * **Domains are atomic.** Each link domain owns one
//!   [`FleetHub`] (shared cache + origin uplink) and one
//!   [`EventQueue`] interleaving its sessions' arrivals and wakes on the
//!   fleet clock. Everything inside a domain is single-threaded.
//! * **Shards group domains; workers own shards.** Domain `d` lives in
//!   shard `d % shards`; shard `s` is driven by worker `s % workers`,
//!   where `workers` is `jobs` clamped to the shard count *and* the
//!   live-domain count ([`effective_workers`]) — a worker with nothing
//!   but empty domains would only pad the barriers. Sessions are `!Send`,
//!   so each worker *constructs* its sessions at arrival time and owns
//!   them until they finish; only `Send` results cross threads, merged in
//!   index order.
//! * **A live session lives in its one pending wake.** Every live session
//!   has exactly one entry on its domain's queue, so the entry owns the
//!   boxed session: popping it hands the session to the driver by value,
//!   and the driver pushes the same box back or finalizes the session.
//! * **Cross-domain coupling happens only at window barriers.** Workers
//!   drain their domains strictly below each window boundary
//!   ([`EventQueue::pop_before`]), pre-sum their own domains' uplink
//!   demand, publish it to a per-worker slot, and meet at **one**
//!   [`WindowBarrier`] per window. After it every worker redundantly folds the
//!   slots in fixed worker order and reaches the same decision: when
//!   fleet demand exceeds the origin's egress capacity, every uplink is
//!   throttled by the same `origin/demand` factor (the window-sync rule —
//!   conservative, one window of lag, identical at every worker count by
//!   construction). Slots are double-buffered by round parity, which is
//!   what makes a single barrier sound (see [`WindowBoard`]).
//! * **Quiescent windows are skipped in one step.** Workers also publish
//!   their earliest pending event time; when the global minimum lands
//!   beyond the next window, every intervening window is provably empty —
//!   zero demand, throttle disengaged, no state change anywhere — so the
//!   drivers jump the window clock straight to the first non-empty window
//!   ([`FleetSchedKnobs::ff_horizon`]). The skip is a scheduling decision
//!   computed identically by every worker from barrier-published data.
//!
//! Byte-stability at any `jobs`/`shards` value follows: per-domain event
//! order is a pure function of the domain's own queue, the demand fold
//! reads fixed per-worker slots in a fixed order (integer addition is
//! order-blind anyway), and the only shared mutable signal (the uplink
//! rate) changes exclusively between windows.

use super::{FleetSpec, PlanSource, SessionPlan};
use crate::corpus::{TitleCorpus, TitleScenario};
use crate::setup::{dash_policy_over, SessionSpec};
use abr_event::sync_model::{fold_slots, is_last_arrival, next_window, parity_of_round, spins};
use abr_event::time::{Duration, Instant};
use abr_event::{EventQueue, WindowClock};
use abr_httpsim::cache::{CacheStats, CdnCache};
use abr_httpsim::shared::{FleetHub, SharedEdge};
use abr_media::units::Bytes;
use abr_net::corpus::{reads_seed, Corpus};
use abr_net::trace::Trace;
use abr_net::uplink::{UplinkQueue, UplinkStats};
use abr_obs::HostStopwatch;
use abr_player::{Session, SessionDigest, SessionLog, SessionStepper};
use abr_qoe::{ContentProfile, QoeSummary, QoeWeights};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;

use crate::runner::WorkerStats;

/// Scheduling knobs for the fleet driver. Everything here is *outside*
/// the artifact contract (DESIGN.md §16): every knob setting produces
/// byte-identical artifacts, which the fast-forward differential
/// proptest in `tests/fleet_determinism.rs` sweeps directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSchedKnobs {
    /// Minimum run of globally-empty windows required before the driver
    /// fast-forwards the window clock over them in one step. `0`
    /// disables fast-forward entirely (the stepwise reference path the
    /// differential tests compare against).
    pub ff_horizon: u64,
}

impl Default for FleetSchedKnobs {
    fn default() -> Self {
        FleetSchedKnobs { ff_horizon: 1 }
    }
}

/// What one session sends back across the worker boundary.
pub(super) struct SessionOutput {
    /// QoE summary of the finished session.
    pub summary: QoeSummary,
    /// Deterministic estimate of the session's QoE digest footprint
    /// (feeds the `--profile` memory note, never the artifact).
    pub digest_bytes: u64,
    /// Deterministic estimate of the access-link trace points the
    /// session owns (the same note): a seeded draw's, or zero for a
    /// handle to a shared fixed trace.
    pub trace_bytes: u64,
    /// The raw log, kept only when the caller asked for it.
    pub log: Option<SessionLog>,
}

/// Per-domain shared-infrastructure counters at end of run.
pub(super) struct DomainReport {
    /// Domain index.
    pub domain: usize,
    /// Sessions that ran in this domain.
    pub sessions: usize,
    /// Peak concurrently-active sessions.
    pub peak_active: usize,
    /// Shared-cache counters.
    pub cache: CacheStats,
    /// Origin-uplink counters.
    pub uplink: UplinkStats,
}

/// Everything the driver hands to the report layer.
pub(super) struct DriverOutput {
    /// Per-session outputs in session-index order.
    pub outputs: Vec<SessionOutput>,
    /// Per-domain reports in domain-index order.
    pub domains: Vec<DomainReport>,
    /// Sync windows elapsed.
    pub windows: u64,
    /// Windows in which the origin throttle engaged.
    pub throttled_windows: u64,
    /// Shared title-corpus footprint, shared traces included
    /// (deterministic estimate, bytes).
    pub corpus_bytes: u64,
    /// Summed per-session digest footprints (deterministic estimate,
    /// bytes).
    pub digest_bytes: u64,
    /// Summed per-session trace footprints (deterministic estimate,
    /// bytes).
    pub trace_bytes: u64,
    /// Largest single-session digest + trace footprint (deterministic
    /// estimate).
    pub session_bytes_max: u64,
    /// Per-worker host-time accounting in worker order; empty unless the
    /// run was profiled.
    pub workers: Vec<WorkerStats>,
}

/// What one worker returns: its sessions' outputs (keyed by session
/// index), the end-of-run reports of the domains it owned, the run
/// counters of its fold, and its host-time ledger when profiling.
struct WorkerResult {
    outputs: Vec<(usize, SessionOutput)>,
    domains: Vec<DomainReport>,
    /// Sync windows elapsed. Every worker folds the same slots, so every
    /// worker counts the same windows.
    windows: u64,
    /// Windows in which the origin throttle engaged (same at every
    /// worker).
    throttled: u64,
    stats: Option<WorkerStats>,
}

/// One entry on a domain's fleet-time queue.
enum Slot {
    /// Construct and start session `i` (pops at its arrival instant).
    Arrival(usize),
    /// Dispatch the next engine event of this live session. The entry
    /// owns the session between its wakes; queue order is `(time, seq)`
    /// and never reads the payload (DESIGN.md §15).
    Live(Box<ActiveSession>),
}

/// A live session: its stepper, its fleet-wide index (the result merge
/// key), the arrival offset translating its local clock onto fleet time,
/// and the trace bytes it owns, for the memory note.
struct ActiveSession {
    index: usize,
    stepper: SessionStepper,
    offset: Duration,
    trace_bytes: u64,
}

/// One link domain owned by a worker. Its live sessions sit in their
/// [`Slot::Live`] queue entries; `live` counts them.
struct Domain {
    index: usize,
    queue: EventQueue<Slot>,
    hub: Rc<RefCell<FleetHub>>,
    live: usize,
    peak_active: usize,
    finished: usize,
}

/// Builds a domain's shared hub from the spec.
pub(super) fn build_hub(spec: &FleetSpec) -> FleetHub {
    FleetHub::new(
        CdnCache::new(Bytes(spec.cache_mb * 1_000_000)),
        UplinkQueue::new(spec.uplink_kbps),
        Duration::from_millis(spec.miss_rtt_ms),
    )
}

/// The access-link trace a plan draws from the fleet's trace corpus: a
/// fresh draw for a seeded profile, a handle to the corpus's one copy
/// for a fixed one.
pub(super) fn session_trace(traces: &Corpus, plan: &SessionPlan) -> Trace {
    traces.nth(plan.trace_seed, plan.trace_index).1
}

/// Builds the session a plan describes over its [`session_trace`], wired
/// onto `hub`. Shared by the fleet driver and the fleet-of-1 parity
/// comparator so that "the same session" means the same construction
/// code, not a re-implementation.
pub(super) fn build_session(
    spec: &FleetSpec,
    plan: &SessionPlan,
    scenario: &TitleScenario,
    trace: Trace,
    hub: Rc<RefCell<FleetHub>>,
) -> Session {
    let policy = dash_policy_over(plan.kind, &scenario.content, &scenario.dash);
    SessionSpec {
        delivery: spec.delivery,
        ..SessionSpec::new(&scenario.content, plan.kind, policy, trace)
    }
    .build()
    .with_deadline(Instant::from_secs(spec.deadline_secs))
    .with_transfer_path(Box::new(SharedEdge::new(
        hub,
        plan.title as u64,
        plan.arrival,
    )))
}

/// Workers the driver actually spawns: `jobs`, clamped to the shard
/// count and to the number of *live* domains. Sessions land in domain
/// `i % domains`, so exactly `min(sessions, domains)` domains ever see
/// an arrival; spinning more workers than that would march idle threads
/// through every per-window barrier for nothing. Because live domains
/// are the contiguous prefix `0..live`, every spawned worker owns at
/// least one live domain.
pub(super) fn effective_workers(spec: &FleetSpec, jobs: usize, sessions: usize) -> usize {
    let live_domains = spec.domains.min(sessions.max(1));
    jobs.max(1).min(spec.shards).min(live_domains)
}

/// Double-buffered per-worker barrier slots. Processed round `r` writes
/// and reads parity `r & 1` ([`parity_of_round`] — the *round* counter,
/// not the window index: fast-forward can jump the window index by an
/// odd amount): a worker can only *reuse* a parity after passing the
/// next round's barrier, which requires every reader of that parity to
/// have arrived there — i.e. to have finished reading. That
/// sense-reversing scheme is what lets one barrier per window replace
/// the old publish/fold/apply pair of waits.
///
/// The protocol is model-checked: `abr_event::sync_model::WindowModel`
/// exhausts every bounded interleaving of publish → barrier → fold →
/// parity flip over the same decision functions this driver calls
/// ([`parity_of_round`], [`fold_slots`], [`next_window`]), and the
/// window-index parity it replaces is pinned as a rediscovered
/// counterexample (`crates/event/tests/sync_model.rs`). All access goes
/// through [`WindowBoard::publish`] / [`WindowBoard::read`] — raw slot
/// indexing outside this module is flagged by lint rule `ABR-L009`.
struct WindowBoard {
    /// Bytes each worker's domains offered their uplinks this window,
    /// pre-summed by the owning worker so the fold is off the barrier's
    /// critical section. (Integer addition is order-blind, so the
    /// per-worker grouping cannot perturb the fleet total.)
    demand: [Vec<AtomicU64>; 2],
    /// Pending events per worker (the stop signal's input).
    alive: [Vec<AtomicU64>; 2],
    /// Earliest pending event time per worker, in microseconds
    /// (`u64::MAX` when the worker's domains are drained dry) — the
    /// quiescent fast-forward's input.
    next_at: [Vec<AtomicU64>; 2],
    /// The round each slot was last published for — the dynamic half of
    /// the model checker's parity-freshness invariant, stamped last on
    /// publish and checked on every read.
    #[cfg(feature = "debug-invariants")]
    epoch: [Vec<AtomicU64>; 2],
}

impl WindowBoard {
    fn new(workers: usize) -> WindowBoard {
        let mk = || (0..workers).map(|_| AtomicU64::new(0)).collect();
        WindowBoard {
            demand: [mk(), mk()],
            alive: [mk(), mk()],
            next_at: [mk(), mk()],
            #[cfg(feature = "debug-invariants")]
            epoch: [
                (0..workers).map(|_| AtomicU64::new(u64::MAX)).collect(),
                (0..workers).map(|_| AtomicU64::new(u64::MAX)).collect(),
            ],
        }
    }

    /// Publishes worker `w`'s pre-summed window data into its parity
    /// slot. `Release` suffices here (downgraded from `SeqCst`, with the
    /// model as evidence — see `lint.toml`): the stores only need to be
    /// visible to the post-barrier folds, and the [`WindowBarrier`]'s
    /// `AcqRel` count RMW and `Release`/`Acquire` generation edge already
    /// order them, so even `Relaxed` publishes pass the model
    /// (`relaxed_publish_with_flushing_rendezvous_is_safe`); `Release`
    /// keeps the slots' own publish edge independent of that barrier
    /// detail.
    fn publish(&self, parity: usize, w: usize, round: u64, demand: u64, alive: u64, next_at: u64) {
        self.demand[parity][w].store(demand, Ordering::Release);
        self.alive[parity][w].store(alive, Ordering::Release);
        self.next_at[parity][w].store(next_at, Ordering::Release);
        #[cfg(feature = "debug-invariants")]
        self.epoch[parity][w].store(round, Ordering::Release);
        #[cfg(not(feature = "debug-invariants"))]
        let _ = round;
    }

    /// Reads worker `ww`'s parity slot for the fold. `Acquire` pairs
    /// with the `Release` publish; under `debug-invariants` the read
    /// also asserts the slot was published for exactly the round being
    /// folded — the parity-epoch freshness invariant the model checker
    /// proves statically, cross-checked dynamically.
    fn read(&self, parity: usize, ww: usize, round: u64) -> (u64, u64, u64) {
        #[cfg(feature = "debug-invariants")]
        debug_assert_eq!(
            self.epoch[parity][ww].load(Ordering::Acquire),
            round,
            "worker {ww}'s parity-{parity} slot is stale for round {round}"
        );
        #[cfg(not(feature = "debug-invariants"))]
        let _ = round;
        (
            self.demand[parity][ww].load(Ordering::Acquire),
            self.alive[parity][ww].load(Ordering::Acquire),
            self.next_at[parity][ww].load(Ordering::Acquire),
        )
    }
}

/// How long a worker that is not the last to arrive spins on the
/// generation counter before it parks. On a 2-core x86-64 host the
/// sparse benchmark fleet waits ~8 µs per round behind a condvar
/// barrier, so most of its rounds release inside the budget without a
/// futex sleep; there, 10 µs and 5 µs budgets gave back part of the
/// sparse-fleet gain and did not lower the dense fleets' CPU time. A
/// scheduling constant outside the artifact contract (DESIGN.md §16),
/// deliberately not a knob.
const SPIN_BUDGET_NS: u64 = 20_000;

/// Spins between stopwatch reads while spinning: the clock read costs
/// about as much as a few dozen `spin_loop` hints.
const SPINS_PER_CLOCK_READ: u32 = 32;

/// The per-window rendezvous: a generation-counter barrier that spins
/// briefly, then parks.
///
/// `std::sync::Barrier` (a mutex plus condvar) put every worker but the
/// last to sleep in a futex each round and woke it with `notify_all`;
/// on sparse fleets that round trip cost more than the window's work.
/// Here the last arriver releases everyone by bumping `gen`, and waiters
/// see the bump while still spinning. The happens-before edge the
/// [`WindowBoard`] folds rely on: slot publish (`Release`) → the
/// `count` RMW chain (`AcqRel`) → the `gen` bump (`Release`) → the
/// waiter's `gen` load (`Acquire`) → fold reads. The barrier's operation
/// order is model-checked as it executes here
/// (`abr_event::sync_model::WindowModel`, DESIGN.md §17).
struct WindowBarrier {
    /// Completed rounds; the last arriver of each round bumps it.
    gen: AtomicU64,
    /// Arrivals in the current round.
    count: AtomicUsize,
    /// Each worker's thread, for the last arriver's unparks.
    threads: Vec<OnceLock<Thread>>,
    /// Whether waiters spin before parking: only when every worker can
    /// hold a core ([`spins`]); oversubscribed, spinning steals the core
    /// the last arriver needs.
    spin: bool,
}

impl WindowBarrier {
    fn new(workers: usize) -> WindowBarrier {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        WindowBarrier {
            gen: AtomicU64::new(0),
            count: AtomicUsize::new(0),
            threads: (0..workers).map(|_| OnceLock::new()).collect(),
            spin: spins(workers, cores),
        }
    }

    /// Records the calling thread as worker `w`. Must precede the
    /// worker's first [`WindowBarrier::wait`]: its `count` RMW then
    /// orders the registration before the last arriver's unparks.
    fn register(&self, w: usize) {
        self.threads[w]
            .set(std::thread::current())
            .expect("each worker registers once");
    }

    /// Blocks worker `w` until all workers have called `wait` for this
    /// round. Park tokens make an unpark that lands before the park (or
    /// after the waiter already saw the bump) harmless: `park` then
    /// returns at once and the loop re-checks `gen`.
    fn wait(&self, w: usize) {
        // Read the generation *before* arriving: once this worker's RMW
        // lands, the last arriver may bump `gen` at any moment.
        let g = self.gen.load(Ordering::Acquire);
        let prev = self.count.fetch_add(1, Ordering::AcqRel);
        if is_last_arrival(prev, self.threads.len()) {
            // Reset before the bump: a released waiter may arrive for the
            // next round immediately, and its RMW must count from zero.
            self.count.store(0, Ordering::Relaxed);
            self.gen.store(g + 1, Ordering::Release);
            for (i, thread) in self.threads.iter().enumerate() {
                if i != w {
                    thread
                        .get()
                        .expect("every worker registers before its first arrival")
                        .unpark();
                }
            }
            return;
        }
        if self.spin {
            let clock = HostStopwatch::start();
            let mut spun = 0u32;
            while self.gen.load(Ordering::Acquire) == g {
                std::hint::spin_loop();
                spun = spun.wrapping_add(1);
                if spun.is_multiple_of(SPINS_PER_CLOCK_READ) && clock.elapsed_ns() >= SPIN_BUDGET_NS
                {
                    break;
                }
            }
        }
        while self.gen.load(Ordering::Acquire) == g {
            std::thread::park();
        }
    }
}

/// Everything the workers share: the barrier and the slot board.
struct Shared {
    barrier: WindowBarrier,
    board: WindowBoard,
}

/// A profiled worker's host-time ledger (`exp fleet --profile`):
/// consecutive laps off one stopwatch, each charged to busy (drain and
/// fold) or barrier wait, so `busy + wait <= alive` by construction.
struct Ledger {
    alive: HostStopwatch,
    lap: HostStopwatch,
    busy_ns: u64,
    wait_ns: u64,
}

impl Ledger {
    fn start() -> Ledger {
        Ledger {
            alive: HostStopwatch::start(),
            lap: HostStopwatch::start(),
            busy_ns: 0,
            wait_ns: 0,
        }
    }

    fn lap(&mut self) -> u64 {
        let ns = self.lap.elapsed_ns();
        self.lap = HostStopwatch::start();
        ns
    }
}

/// Runs the fleet. Returns per-session outputs in index order and
/// per-domain reports in domain order — byte-identical at every `jobs`
/// value, shard count and knob setting (differential tests sweep the
/// fast-forward horizon through here). With `profile` each worker also
/// keeps a host-time ledger ([`DriverOutput::workers`]); the stopwatches
/// only observe, so the outputs do not change.
pub(super) fn run(
    spec: &FleetSpec,
    source: &PlanSource,
    jobs: usize,
    keep_logs: bool,
    knobs: FleetSchedKnobs,
    profile: bool,
) -> DriverOutput {
    let workers = effective_workers(spec, jobs, source.len());
    // The shared title catalog: every content cut and manifest view is
    // built exactly once here and read by reference from every worker —
    // the per-worker lazily-filled caches this replaces built each title
    // up to `workers` times over.
    let corpus = TitleCorpus::build(spec.seed, spec.titles);
    let shared = Shared {
        barrier: WindowBarrier::new(workers),
        board: WindowBoard::new(workers),
    };

    let mut worker_results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let corpus = &corpus;
                let shared = &shared;
                scope.spawn(move || {
                    run_worker(
                        spec, source, corpus, w, workers, keep_logs, knobs, shared, profile,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect()
    });

    // Merge in index order: session outputs by session index, domain
    // reports by domain index. Sort keys are unique, so the merged order
    // is independent of which worker produced what.
    let mut outputs: Vec<(usize, SessionOutput)> = Vec::with_capacity(source.len());
    let mut domains: Vec<DomainReport> = Vec::with_capacity(spec.domains);
    let mut worker_stats = Vec::new();
    let (windows, throttled_windows) = (worker_results[0].windows, worker_results[0].throttled);
    for result in &mut worker_results {
        debug_assert_eq!(
            (result.windows, result.throttled),
            (windows, throttled_windows),
            "every worker folds the same windows"
        );
        outputs.append(&mut result.outputs);
        domains.append(&mut result.domains);
        worker_stats.extend(result.stats.take());
    }
    outputs.sort_by_key(|(i, _)| *i);
    domains.sort_by_key(|d| d.domain);
    assert_eq!(outputs.len(), source.len(), "every session must finish");
    assert_eq!(domains.len(), spec.domains, "every domain must report");

    let digest_bytes = outputs.iter().map(|(_, o)| o.digest_bytes).sum();
    let trace_bytes = outputs.iter().map(|(_, o)| o.trace_bytes).sum();
    let session_bytes_max = outputs
        .iter()
        .map(|(_, o)| o.digest_bytes + o.trace_bytes)
        .max()
        .unwrap_or(0);
    DriverOutput {
        outputs: outputs.into_iter().map(|(_, o)| o).collect(),
        domains,
        windows,
        throttled_windows,
        corpus_bytes: corpus.approx_bytes() + corpus.traces().shared_bytes(),
        digest_bytes,
        trace_bytes,
        session_bytes_max,
        workers: worker_stats,
    }
}

/// The window-sync fold: fleet-wide demand (bytes over one window) versus
/// the origin's egress capacity. Exact integer arithmetic: bytes × 8 over
/// a window of `window_ms` milliseconds is bits-per-millisecond, which
/// *is* Kbps.
fn throttle_rate(spec: &FleetSpec, total_bytes: u128) -> (u64, bool) {
    let demand_kbps = total_bytes * 8 / u128::from(spec.window_ms);
    if demand_kbps > u128::from(spec.origin_kbps) {
        let scaled = u128::from(spec.uplink_kbps) * u128::from(spec.origin_kbps) / demand_kbps;
        (u64::try_from(scaled.max(1)).expect("rate fits"), true)
    } else {
        (spec.uplink_kbps, false)
    }
}

#[allow(clippy::too_many_arguments)]
fn run_worker(
    spec: &FleetSpec,
    source: &PlanSource,
    corpus: &TitleCorpus,
    w: usize,
    workers: usize,
    keep_logs: bool,
    knobs: FleetSchedKnobs,
    shared: &Shared,
    profile: bool,
) -> WorkerResult {
    let mut ledger = profile.then(Ledger::start);
    shared.barrier.register(w);
    // This worker's domains, ascending: domain d → shard d % shards →
    // worker (d % shards) % workers.
    let mut domains: Vec<Domain> = (0..spec.domains)
        .filter(|d| (d % spec.shards) % workers == w)
        .map(|index| Domain {
            index,
            queue: EventQueue::new(),
            hub: Rc::new(RefCell::new(build_hub(spec))),
            live: 0,
            peak_active: 0,
            finished: 0,
        })
        .collect();

    // Pre-schedule arrivals in plan-index order, streamed straight off
    // the plan source: within each domain's queue the schedule order is
    // still ascending in session index, so FIFO tie-breaking makes
    // same-instant arrivals pop in index order, a pure function of the
    // plan. Domain membership (`i % domains`) is positional, so plans of
    // other workers' domains are never even computed.
    let mut owned_pos = vec![usize::MAX; spec.domains];
    for (pos, domain) in domains.iter().enumerate() {
        owned_pos[domain.index] = pos;
    }
    for i in 0..source.len() {
        let pos = owned_pos[i % spec.domains];
        if pos == usize::MAX {
            continue;
        }
        let arrival = source.plan(i).arrival;
        domains[pos]
            .queue
            .schedule(Instant::ZERO + arrival, Slot::Arrival(i));
    }

    let mut outputs: Vec<(usize, SessionOutput)> = Vec::new();
    let clock = WindowClock::new(Duration::from_millis(spec.window_ms));

    let mut k = 0u64;
    let (mut windows, mut throttled) = (0u64, 0u64);
    // Board parity counts *processed* rounds (one per barrier), not the
    // window index — see [`WindowBoard`] and `sync_model::ParityRule`.
    let mut round = 0u64;
    loop {
        let parity = parity_of_round(round);
        let end = clock.end_of(k);
        let mut my_demand: u64 = 0;
        let mut my_alive: u64 = 0;
        let mut my_next = u64::MAX;
        for domain in &mut domains {
            drain_window(spec, source, corpus, domain, end, keep_logs, &mut outputs);
            my_demand += domain.hub.borrow_mut().uplink_mut().take_window_bytes();
            my_alive += domain.queue.len() as u64;
            if let Some(t) = domain.queue.next_time() {
                my_next = my_next.min(t.as_micros());
            }
        }
        shared
            .board
            .publish(parity, w, round, my_demand, my_alive, my_next);
        if let Some(ledger) = &mut ledger {
            ledger.busy_ns += ledger.lap();
        }

        shared.barrier.wait(w);
        if let Some(ledger) = &mut ledger {
            ledger.wait_ns += ledger.lap();
        }

        // Redundant deterministic fold: every worker reads the same
        // parity slots in the same fixed order and reaches the same
        // rate / stop / fast-forward decision — no second barrier needed
        // to publish a leader's verdict. `fold_slots` is the model
        // checker's fold, which proves the totals identical across
        // workers under every bounded interleaving.
        let fold = fold_slots((0..workers).map(|ww| shared.board.read(parity, ww, round)));
        let (next_rate, engaged) = throttle_rate(spec, fold.demand);

        // Quiescent-window fast-forward: everything before the fold's
        // `min_next_us` is drained, so every window strictly between `k`
        // and the window containing it is globally empty — zero demand,
        // throttle disengaged, no uplink traffic, no state change of any
        // kind. The stepwise run would grind through them only to count
        // windows and reset the rate to full; `next_window` (the
        // model-checked jump rule) does both in one step instead.
        let next_k = next_window(k, knobs.ff_horizon, &fold, &clock);
        let skipped = next_k - (k + 1);
        windows += 1 + skipped;
        throttled += u64::from(engaged);
        // The rate entering window `next_k`: this window's fold when
        // stepping; when windows were skipped, the last fold before
        // `next_k` is an empty window's — full uplink, throttle off.
        let applied = if skipped > 0 {
            spec.uplink_kbps
        } else {
            next_rate
        };
        for domain in &mut domains {
            domain.hub.borrow_mut().uplink_mut().set_rate_kbps(applied);
        }
        if let Some(ledger) = &mut ledger {
            ledger.busy_ns += ledger.lap();
        }
        if fold.alive == 0 {
            break;
        }
        k = next_k;
        round += 1;
    }

    let reports = domains
        .into_iter()
        .map(|domain| {
            assert!(domain.queue.is_empty(), "domain queue drained");
            assert_eq!(domain.live, 0, "all sessions finished");
            let hub = domain.hub.borrow();
            let cache = hub.cache_stats().expect("fleet domains have caches");
            let uplink = hub.uplink().stats();
            // Cross-session byte conservation (DESIGN.md §12): every byte
            // the cache pulled from the origin was serialized through the
            // uplink, and nothing else was.
            #[cfg(feature = "debug-invariants")]
            debug_assert_eq!(
                cache.bytes_from_origin.get(),
                uplink.bytes,
                "domain {} origin bytes must equal uplink bytes",
                domain.index
            );
            DomainReport {
                domain: domain.index,
                sessions: domain.finished,
                peak_active: domain.peak_active,
                cache,
                uplink,
            }
        })
        .collect();
    let stats = ledger.map(|ledger| WorkerStats {
        worker: w,
        items: outputs.len() as u64,
        claim_ns: ledger.wait_ns,
        busy_ns: ledger.busy_ns,
        alive_ns: ledger.alive.elapsed_ns(),
    });
    WorkerResult {
        outputs,
        domains: reports,
        windows,
        throttled,
        stats,
    }
}

/// Drains one domain strictly below the window boundary: arrivals
/// construct their session and schedule its first wake; wakes dispatch
/// one engine event and re-schedule (or finalize). New events landing
/// inside the current window are popped in the same drain, so a window
/// is fully settled before the barrier.
fn drain_window(
    spec: &FleetSpec,
    source: &PlanSource,
    corpus: &TitleCorpus,
    domain: &mut Domain,
    end: Instant,
    keep_logs: bool,
    outputs: &mut Vec<(usize, SessionOutput)>,
) {
    while let Some((_, slot)) = domain.queue.pop_before(end) {
        match slot {
            Slot::Arrival(i) => {
                let plan = source.plan(i);
                let trace = session_trace(corpus.traces(), &plan);
                // A fixed profile's points belong to the corpus and are
                // counted once there; the session owns only a seeded draw.
                let trace_bytes = if reads_seed(plan.trace_index) {
                    trace.approx_bytes()
                } else {
                    0
                };
                let session = build_session(
                    spec,
                    &plan,
                    corpus.title(plan.title),
                    trace,
                    Rc::clone(&domain.hub),
                );
                let mut session = ActiveSession {
                    index: i,
                    stepper: if keep_logs {
                        session.into_stepper()
                    } else {
                        session.into_digest_stepper()
                    },
                    offset: plan.arrival,
                    trace_bytes,
                };
                match session.stepper.next_wake() {
                    Some(local) => {
                        domain.live += 1;
                        domain.peak_active = domain.peak_active.max(domain.live);
                        domain
                            .queue
                            .schedule(local + plan.arrival, Slot::Live(Box::new(session)));
                    }
                    None => finalize(domain, session, keep_logs, outputs),
                }
            }
            Slot::Live(mut session) => {
                let more = session.stepper.dispatch_next();
                let next = if more {
                    session.stepper.next_wake()
                } else {
                    None
                };
                match next {
                    Some(local) => {
                        let at = local + session.offset;
                        domain.queue.schedule(at, Slot::Live(session));
                    }
                    None => {
                        domain.live -= 1;
                        finalize(domain, *session, keep_logs, outputs);
                    }
                }
            }
        }
    }
}

/// Finishes a session and summarizes its digest: the streamed one, or
/// the kept log replayed into one (the same summary code either way).
fn finalize(
    domain: &mut Domain,
    session: ActiveSession,
    keep_logs: bool,
    outputs: &mut Vec<(usize, SessionOutput)>,
) {
    let (digest, log) = if keep_logs {
        let log = session.stepper.finish();
        (SessionDigest::from_log(&log), Some(log))
    } else {
        (session.stepper.finish_digest(), None)
    };
    let summary =
        abr_qoe::summarize_digest(&digest, QoeWeights::default(), ContentProfile::NEUTRAL);
    domain.finished += 1;
    outputs.push((
        session.index,
        SessionOutput {
            summary,
            digest_bytes: digest.approx_bytes(),
            trace_bytes: session.trace_bytes,
            log,
        },
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throttle_engages_only_above_origin_capacity() {
        let spec = FleetSpec::small(1); // uplink 40 Mbps, origin 100 Mbps, 250 ms windows
                                        // 1 MB over 250 ms = 32 Mbps of demand: below origin capacity.
        assert_eq!(throttle_rate(&spec, 1_000_000), (spec.uplink_kbps, false));
        // 10 MB over 250 ms = 320 Mbps: throttle scales by origin/demand.
        let (rate, engaged) = throttle_rate(&spec, 10_000_000);
        assert!(engaged);
        assert_eq!(rate, 40_000 * 100_000 / 320_000);
    }

    #[test]
    fn throttle_never_drops_to_zero() {
        let spec = FleetSpec::small(1);
        let (rate, engaged) = throttle_rate(&spec, u64::MAX as u128);
        assert!(engaged);
        assert!(rate >= 1);
    }

    #[test]
    fn effective_workers_clamps_to_live_domains() {
        let spec = FleetSpec::small(100); // 4 domains, 4 shards
        assert_eq!(effective_workers(&spec, 8, 100), 4, "shards cap");
        assert_eq!(effective_workers(&spec, 2, 100), 2, "jobs respected");
        assert_eq!(effective_workers(&spec, 0, 100), 1, "floor of one");
        // Fewer sessions than domains: only the contiguous prefix of
        // domains ever sees an arrival, so workers clamp to it.
        assert_eq!(effective_workers(&spec, 8, 2), 2);
        assert_eq!(effective_workers(&spec, 8, 1), 1);
        assert_eq!(effective_workers(&spec, 8, 0), 1, "degenerate fleet");
    }

    /// 20k rounds at 1, 2, 3 and 8 workers: the spin path wherever the
    /// worker count fits the host's cores, the park path above it (8
    /// workers oversubscribe any host with fewer than 8 cores). The
    /// per-round counters are bumped `Relaxed`, so seeing all `n`
    /// arrivals after `wait` rests on the barrier's own happens-before
    /// edge.
    #[test]
    fn window_barrier_releases_only_after_every_arrival() {
        const ROUNDS: usize = 20_000;
        for n in [1usize, 2, 3, 8] {
            let barrier = WindowBarrier::new(n);
            let arrivals: Vec<AtomicUsize> = (0..ROUNDS).map(|_| AtomicUsize::new(0)).collect();
            std::thread::scope(|scope| {
                for w in 0..n {
                    let (barrier, arrivals) = (&barrier, &arrivals);
                    scope.spawn(move || {
                        barrier.register(w);
                        for (r, round) in arrivals.iter().enumerate() {
                            round.fetch_add(1, Ordering::Relaxed);
                            barrier.wait(w);
                            let seen = round.load(Ordering::Relaxed);
                            assert_eq!(seen, n, "worker {w} saw {seen}/{n} arrivals in round {r}");
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn sched_knobs_default_enables_fast_forward() {
        assert_eq!(FleetSchedKnobs::default().ff_horizon, 1);
    }

    #[test]
    fn domain_to_worker_assignment_partitions_domains() {
        // Every domain is owned by exactly one worker at any (shards,
        // workers) combination — the invariant the merge asserts.
        for shards in 1..=5usize {
            for workers in 1..=4usize {
                let mut owned = [0u32; 12];
                for w in 0..workers {
                    for (d, count) in owned.iter_mut().enumerate() {
                        if (d % shards) % workers == w {
                            *count += 1;
                        }
                    }
                }
                assert!(
                    owned.iter().all(|&c| c == 1),
                    "shards={shards} workers={workers}"
                );
            }
        }
    }
}
