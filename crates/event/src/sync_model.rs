//! Loom-lite model checking of the workspace's two concurrency protocols
//! (DESIGN.md §17).
//!
//! The parallel sweep runner and the fleet driver are the only two places
//! in the workspace where threads share mutable state, and both rest on
//! hand-argued memory-ordering reasoning: the runner's chunked claimer
//! hands out disjoint position ranges through a `Relaxed` `fetch_add`,
//! and the fleet driver's `WindowBoard` reuses per-worker slots by round
//! parity behind a single spin-then-park barrier per window. An earlier
//! parity scheme (indexing by *window* instead of *processed round*) was
//! a real race, caught only dynamically as a deadlock. This module pins
//! both protocols mechanically:
//!
//! 1. **A shared protocol core.** [`parity_of_round`], [`fold_slots`],
//!    [`next_window`], [`is_last_arrival`], [`spins`], [`claim_range`]
//!    and [`ranges_partition`] are the pure decision functions of the two
//!    protocols. The production runner and fleet driver call them
//!    directly — so the logic the model checker exhausts is the *same
//!    code* the threads execute, not a transcription that can drift.
//!
//! 2. **A bounded model checker.** [`WindowModel`] and [`ClaimModel`]
//!    re-express the protocols' *memory access sequences* — for the
//!    window barrier, its generation load, count RMW, reset, generation
//!    bump, unparks and park loop — as small-step state machines over a
//!    modeled weak memory ([store buffers for `Relaxed`
//!    stores](MemOrder)), and [`explore`] enumerates every bounded thread
//!    interleaving up to reordering of independent steps (DFS over
//!    [`Choice`] sequences with sleep sets, including nondeterministic
//!    store-buffer flushes), asserting the protocol invariants:
//!
//!    * no slot is read in a parity epoch other than the one it was
//!      written for ([`Violation::StaleSlot`]),
//!    * every worker folds identical totals
//!      ([`Violation::FoldDivergence`]),
//!    * fast-forward never skips a window with pending events
//!      ([`Violation::SkippedPending`]),
//!    * claimed position ranges partition `0..n` exactly once
//!      ([`Violation::DoubleClaim`] / [`Violation::NotPartition`]),
//!    * the protocol terminates with no worker stranded at the
//!      rendezvous ([`Violation::Deadlock`]).
//!
//! Seeded-bug modes keep the checker honest: [`ParityRule::WindowIndex`]
//! reverts the round-parity fix, [`ClaimStyle::LoadThenStore`] splits
//! the claim RMW, `barrier_order: Relaxed` strips the barrier of its
//! acquire-release edge, `ff_overshoot` jumps one window too far, and
//! the three [`BarrierRule`] reorderings (reset after bump, generation
//! read after the RMW, unpark before bump) each strand a worker. Each
//! must be *found* by the exhaustive search
//! (`crates/event/tests/sync_model.rs` pins all seven), which is the
//! evidence the `ABR-L007` allowlist entries in `lint.toml` cite.
//!
//! What the model does **not** cover (DESIGN.md §17): real non-x86 weak
//! memory (the store-buffer model is TSO-shaped; `Acquire`/`Relaxed`
//! loads read the same value here), compiler reorderings, the OS futex
//! behind `park` (parking is modeled by its token semantics), and
//! unbounded thread/window counts — random-schedule runs
//! ([`run_random`]) probe beyond the exhaustive bound but do not prove
//! it.

use std::rc::Rc;

use crate::rng::SplitMix64;
use crate::time::Instant;
use crate::window::WindowClock;

// ---------------------------------------------------------------------------
// Shared protocol core — the pure functions the production runner and fleet
// driver execute, and the model checker exhausts.
// ---------------------------------------------------------------------------

/// The redundant deterministic fold every fleet worker computes after the
/// window barrier: fleet-wide uplink demand, pending-event count, and the
/// earliest pending event time (µs; `u64::MAX` when fully drained).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowFold {
    /// Total bytes offered to the uplinks this window.
    pub demand: u128,
    /// Total pending events across all workers (the stop signal).
    pub alive: u64,
    /// Earliest pending event time in microseconds (`u64::MAX` = none).
    pub min_next_us: u64,
}

/// The parity slot a processed round writes and reads. Parity counts
/// *processed rounds* (one per barrier), not the window index —
/// fast-forward can jump the window index by an odd amount, and window
/// parity would then reuse a slot with only one barrier in between
/// (the round-parity race; [`ParityRule::WindowIndex`] re-creates it in
/// the model, where the exhaustive search finds it).
#[must_use]
pub fn parity_of_round(round: u64) -> usize {
    (round & 1) as usize
}

/// Folds per-worker `(demand, alive, next_at_us)` slots in the order the
/// iterator yields them. Integer addition and `min` are order-blind, so
/// every worker folding the same slots reaches the bit-identical
/// [`WindowFold`] regardless of grouping — the property that lets the
/// fold be computed redundantly at every worker instead of broadcast by
/// a leader over a second barrier.
pub fn fold_slots(slots: impl IntoIterator<Item = (u64, u64, u64)>) -> WindowFold {
    let mut fold = WindowFold {
        demand: 0,
        alive: 0,
        min_next_us: u64::MAX,
    };
    for (demand, alive, next_at) in slots {
        fold.demand += u128::from(demand);
        fold.alive += alive;
        fold.min_next_us = fold.min_next_us.min(next_at);
    }
    fold
}

/// The window the driver processes after window `k`, given the folded
/// barrier data: `k + 1` normally, or a quiescent fast-forward jump to
/// the window containing the globally earliest pending event when at
/// least `ff_horizon` windows in between are provably empty
/// (`ff_horizon == 0` disables the jump — the stepwise reference).
#[must_use]
pub fn next_window(k: u64, ff_horizon: u64, fold: &WindowFold, clock: &WindowClock) -> u64 {
    if ff_horizon > 0 && fold.alive > 0 {
        let m = clock.window_of(Instant::from_micros(fold.min_next_us));
        debug_assert!(m > k, "pending event inside a drained window");
        if m - (k + 1) >= ff_horizon {
            m
        } else {
            k + 1
        }
    } else {
        k + 1
    }
}

/// Whether the arrival whose `count` RMW returned `prev` is the last of
/// `n` workers at the window barrier — the one that resets the count,
/// bumps the generation and unparks the others.
#[must_use]
pub fn is_last_arrival(prev: usize, n: usize) -> bool {
    prev + 1 == n
}

/// Whether window-barrier waiters spin before parking: only when every
/// one of `workers` threads can hold one of the host's `cores`.
/// Oversubscribed, a spinning waiter steals the core the last arriver
/// needs to finish its window, so waiters park at once. (The model needs
/// no spin steps: a spin iteration that sees the old generation changes
/// no state.)
#[must_use]
pub fn spins(workers: usize, cores: usize) -> bool {
    workers <= cores
}

/// The half-open position range `[p0, min(p0 + chunk, n))` a claimed
/// counter value covers, or `None` when the counter has run past the
/// work list. Every claimer maps its `fetch_add` result through this one
/// function, so the model's partition proof is about the production
/// arithmetic.
#[must_use]
pub fn claim_range(p0: usize, chunk: usize, n: usize) -> Option<(usize, usize)> {
    if p0 >= n {
        None
    } else {
        Some((p0, p0.saturating_add(chunk).min(n)))
    }
}

/// Whether `ranges` (half-open, unordered) partition `0..n` exactly:
/// non-empty, pairwise disjoint, and jointly covering. Sorts in place.
/// Shared by the model checker's final claimer invariant and the
/// `debug-invariants` claim ledger in the production runner.
#[must_use]
pub fn ranges_partition(ranges: &mut [(usize, usize)], n: usize) -> bool {
    ranges.sort_unstable();
    let mut at = 0usize;
    for &(s, e) in ranges.iter() {
        if s != at || e <= s {
            return false;
        }
        at = e;
    }
    at == n
}

// ---------------------------------------------------------------------------
// Modeled weak memory.
// ---------------------------------------------------------------------------

/// Memory orderings the model distinguishes. `Relaxed` stores enter a
/// per-thread FIFO store buffer and become globally visible only when
/// flushed (by a nondeterministic [`Choice::Flush`] step, a stronger
/// store, or a releasing RMW); `Release`/`AcqRel`/`SeqCst` stores drain
/// the buffer and commit immediately. Read-modify-writes always act on
/// the committed value; a releasing one drains the buffer first, a
/// `Relaxed` one drains only what it must to see the thread's own
/// pending stores to its location — the thread's other buffered stores
/// may stay invisible past it. Loads read the thread's own buffer first
/// (store-to-load forwarding), then committed memory — `Acquire` and
/// `Relaxed` loads return the same value in this model (happens-before
/// *edges* are modeled by who flushed when, not by load annotations),
/// which is the TSO-shaped approximation DESIGN.md §17 documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOrder {
    /// Buffered store / plain load / non-draining RMW.
    Relaxed,
    /// Flushing store (pairs with `Acquire` across a committed value).
    Release,
    /// Plain load (value-equal to `Relaxed` here; see above).
    Acquire,
    /// Flushing store or RMW (the barrier's `count` RMW).
    AcqRel,
    /// Flushing store and plain load.
    SeqCst,
}

impl MemOrder {
    /// Whether a store or RMW at this ordering drains the thread's store
    /// buffer first (its release half).
    fn releases(self) -> bool {
        matches!(
            self,
            MemOrder::Release | MemOrder::AcqRel | MemOrder::SeqCst
        )
    }
}

/// One modeled memory cell: a value stamped with the protocol epoch
/// (round) it was written for. The stamp is the checker's oracle for the
/// parity-freshness invariant; `u64::MAX` marks a never-written cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ModCell {
    value: u64,
    epoch: u64,
}

const UNWRITTEN: u64 = u64::MAX;

/// The modeled shared memory: committed cells plus one FIFO store buffer
/// per thread.
#[derive(Debug, Clone)]
struct ModelMem {
    cells: Vec<ModCell>,
    buffers: Vec<Vec<(usize, ModCell)>>,
}

impl ModelMem {
    fn new(threads: usize, cells: usize) -> ModelMem {
        ModelMem {
            cells: vec![
                ModCell {
                    value: 0,
                    epoch: UNWRITTEN
                };
                cells
            ],
            buffers: vec![Vec::new(); threads],
        }
    }

    fn store(&mut self, t: usize, cell: usize, value: u64, epoch: u64, order: MemOrder) {
        let write = ModCell { value, epoch };
        if order.releases() {
            self.flush_all(t);
            self.cells[cell] = write;
        } else {
            self.buffers[t].push((cell, write));
        }
    }

    fn load(&self, t: usize, cell: usize) -> ModCell {
        self.buffers[t]
            .iter()
            .rev()
            .find(|(c, _)| *c == cell)
            .map_or(self.cells[cell], |(_, v)| *v)
    }

    /// Atomic read-modify-write. RMWs on one location always act on the
    /// latest value in its modification order — even at `Relaxed` — which
    /// is exactly what makes the chunked claimer sound; the model
    /// realizes that by committing through main memory in one step. A
    /// releasing RMW first drains the whole buffer; a `Relaxed` one
    /// drains (in FIFO order, like a run of flush steps) only through the
    /// thread's last pending store to `cell`.
    fn fetch_add(&mut self, t: usize, cell: usize, delta: u64, order: MemOrder) -> u64 {
        if order.releases() {
            self.flush_all(t);
        } else if let Some(last) = self.buffers[t].iter().rposition(|(c, _)| *c == cell) {
            for _ in 0..=last {
                self.flush_one(t);
            }
        }
        let old = self.cells[cell].value;
        self.cells[cell].value += delta;
        self.cells[cell].epoch = 0;
        old
    }

    fn flush_one(&mut self, t: usize) {
        if !self.buffers[t].is_empty() {
            let (cell, write) = self.buffers[t].remove(0);
            self.cells[cell] = write;
        }
    }

    fn flush_all(&mut self, t: usize) {
        while !self.buffers[t].is_empty() {
            self.flush_one(t);
        }
    }

    fn has_pending(&self, t: usize) -> bool {
        !self.buffers[t].is_empty()
    }
}

// ---------------------------------------------------------------------------
// Schedules, violations, and the explorer.
// ---------------------------------------------------------------------------

/// One scheduler decision: run thread `t`'s next program step, or flush
/// the oldest entry of thread `t`'s store buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Execute the next program step of thread `t`.
    Step(usize),
    /// Commit the oldest buffered store of thread `t` to shared memory.
    Flush(usize),
}

/// A protocol invariant breach (or a scheduling dead end) found by the
/// checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A worker read a parity slot stamped with a different round than
    /// the one it is folding — the slot was rewritten (or never written)
    /// in the same parity epoch it was read.
    StaleSlot {
        /// The reading worker.
        reader: usize,
        /// The worker whose slot was read.
        slot_of: usize,
        /// The round the reader is folding.
        round: u64,
        /// The epoch stamped on the value actually read
        /// (`u64::MAX` = never written).
        found_epoch: u64,
    },
    /// Two workers folded different totals for the same round.
    FoldDivergence {
        /// The diverging round.
        round: u64,
        /// The diverging worker.
        worker: usize,
    },
    /// An event was consumed in a later window than the one containing
    /// it — fast-forward skipped a window with pending events.
    SkippedPending {
        /// The worker owning the event.
        worker: usize,
        /// The event's timestamp (µs).
        event_us: u64,
        /// The window the event belongs to.
        expected_window: u64,
        /// The window it was actually consumed in.
        processed_window: u64,
    },
    /// A work position was claimed by more than one claimer.
    DoubleClaim {
        /// The doubly-claimed position.
        position: usize,
    },
    /// The claimed ranges do not partition `0..n`.
    NotPartition,
    /// No thread can take a step but the protocol has not finished —
    /// some worker is stranded at the rendezvous (how the PR 9 race
    /// surfaced dynamically).
    Deadlock,
    /// A worker finished the protocol with events still pending.
    Unfinished {
        /// The worker left with unconsumed events.
        worker: usize,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::StaleSlot {
                reader,
                slot_of,
                round,
                found_epoch,
            } => write!(
                f,
                "worker {reader} folding round {round} read worker {slot_of}'s slot \
                 stamped epoch {found_epoch}"
            ),
            Violation::FoldDivergence { round, worker } => {
                write!(
                    f,
                    "worker {worker} folded a different total for round {round}"
                )
            }
            Violation::SkippedPending {
                worker,
                event_us,
                expected_window,
                processed_window,
            } => write!(
                f,
                "worker {worker}'s event at {event_us}us (window {expected_window}) \
                 was consumed in window {processed_window}"
            ),
            Violation::DoubleClaim { position } => {
                write!(f, "position {position} claimed twice")
            }
            Violation::NotPartition => write!(f, "claimed ranges do not partition 0..n"),
            Violation::Deadlock => write!(f, "no runnable thread but the protocol is unfinished"),
            Violation::Unfinished { worker } => {
                write!(f, "worker {worker} finished with events pending")
            }
        }
    }
}

/// A schedule that breaches an invariant: the exact [`Choice`] sequence
/// plus what it broke.
#[derive(Debug, Clone)]
pub struct CounterExample {
    /// The scheduler decisions, in order, that reach the violation.
    pub schedule: Vec<Choice>,
    /// What broke.
    pub violation: Violation,
}

impl std::fmt::Display for CounterExample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (after {} scheduler steps: {:?})",
            self.violation,
            self.schedule.len(),
            self.schedule
        )
    }
}

/// What an exhaustive exploration visited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Complete schedules (maximal interleavings) enumerated.
    pub schedules: u64,
    /// Scheduler steps applied across all schedules.
    pub steps: u64,
}

/// A schedule-driven protocol state machine the explorer can drive.
///
/// `choices` must list every enabled scheduler decision (it is the
/// deadlock oracle: an empty list with [`Model::done`] false is a
/// deadlock); `apply` advances the state by one decision, failing with
/// the violated invariant.
pub trait Model: Clone {
    /// Appends every currently-enabled scheduler decision to `out`.
    fn choices(&self, out: &mut Vec<Choice>);
    /// Applies one decision, checking invariants on the way.
    fn apply(&mut self, choice: Choice) -> Result<(), Violation>;
    /// Whether two decisions enabled in this state are independent: they
    /// touch no common location unless both only read it, so they
    /// commute and neither enables or disables the other. [`explore`]'s
    /// sleep sets skip the reorderings of independent decisions. The
    /// default, never, disables that reduction.
    fn independent(&self, a: Choice, b: Choice) -> bool {
        let _ = (a, b);
        false
    }
    /// Whether every thread has run its program to completion.
    fn done(&self) -> bool;
    /// End-of-run invariants (partition checks, liveness).
    fn finalize(&self) -> Result<(), Violation>;
}

struct Frame<M> {
    state: M,
    lead: Option<Choice>,
    choices: Vec<Choice>,
    next: usize,
    /// Decisions whose subtrees an equivalent schedule already covers:
    /// explored siblings, plus inherited entries independent of every
    /// decision taken since (Godefroid's sleep sets).
    sleep: Vec<Choice>,
}

/// Exhaustively enumerates every schedule of `initial` up to reordering
/// of independent decisions (DFS over [`Choice`] sequences with sleep
/// sets over [`Model::independent`]), checking invariants at every step
/// and at every terminal state. Sleep sets explore at least one
/// interleaving of every equivalence class of schedules, so every
/// reachable deadlock and every invariant breach is still found. Returns
/// the visit counts, or the first counterexample. Panics if the state
/// space exceeds `max_schedules` complete schedules — the bound is the
/// test's explicit budget, and blowing it means the model (not the
/// protocol) needs shrinking.
pub fn explore<M: Model>(
    initial: &M,
    max_schedules: u64,
) -> Result<ExploreStats, Box<CounterExample>> {
    let mut stats = ExploreStats::default();
    let mut path: Vec<Choice> = Vec::new();
    let root_choices = {
        let mut c = Vec::new();
        initial.choices(&mut c);
        c
    };
    let mut stack = vec![Frame {
        state: initial.clone(),
        lead: None,
        choices: root_choices,
        next: 0,
        sleep: Vec::new(),
    }];
    while let Some(top) = stack.last_mut() {
        if top.choices.is_empty() {
            // Terminal state: a complete schedule.
            stats.schedules += 1;
            assert!(
                stats.schedules <= max_schedules,
                "state space exceeds the {max_schedules}-schedule budget; shrink the model bounds"
            );
            let outcome = if top.state.done() {
                top.state.finalize()
            } else {
                Err(Violation::Deadlock)
            };
            if let Err(violation) = outcome {
                return Err(Box::new(CounterExample {
                    schedule: path.clone(),
                    violation,
                }));
            }
            if stack.pop().expect("top exists").lead.is_some() {
                path.pop();
            }
            continue;
        }
        if top.next >= top.choices.len() {
            if stack.pop().expect("top exists").lead.is_some() {
                path.pop();
            }
            continue;
        }
        let choice = top.choices[top.next];
        top.next += 1;
        if top.sleep.contains(&choice) {
            continue;
        }
        let child_sleep: Vec<Choice> = top
            .sleep
            .iter()
            .copied()
            .filter(|&asleep| top.state.independent(choice, asleep))
            .collect();
        top.sleep.push(choice);
        let mut child = top.state.clone();
        stats.steps += 1;
        path.push(choice);
        if let Err(violation) = child.apply(choice) {
            return Err(Box::new(CounterExample {
                schedule: path,
                violation,
            }));
        }
        let mut child_choices = Vec::new();
        child.choices(&mut child_choices);
        stack.push(Frame {
            state: child,
            lead: Some(choice),
            choices: child_choices,
            next: 0,
            sleep: child_sleep,
        });
    }
    Ok(stats)
}

/// Drives `initial` through one uniformly random schedule drawn from
/// `rng` — the probe for thread/window counts beyond the exhaustive
/// bound. `max_steps` is a liveness budget: a correct protocol at sane
/// bounds terminates far below it.
pub fn run_random<M: Model>(
    initial: &M,
    rng: &mut SplitMix64,
    max_steps: usize,
) -> Result<(), Box<CounterExample>> {
    let mut state = initial.clone();
    let mut path = Vec::new();
    let mut choices = Vec::new();
    for _ in 0..max_steps {
        choices.clear();
        state.choices(&mut choices);
        if choices.is_empty() {
            break;
        }
        #[allow(clippy::cast_possible_truncation)]
        let pick = (rng.next_u64() % choices.len() as u64) as usize;
        let choice = choices[pick];
        path.push(choice);
        if let Err(violation) = state.apply(choice) {
            return Err(Box::new(CounterExample {
                schedule: path,
                violation,
            }));
        }
    }
    let outcome = if state.done() {
        state.finalize()
    } else {
        Err(Violation::Deadlock)
    };
    outcome.map_err(|violation| {
        Box::new(CounterExample {
            schedule: path,
            violation,
        })
    })
}

// ---------------------------------------------------------------------------
// The WindowBoard protocol model.
// ---------------------------------------------------------------------------

/// Which parity indexes the double-buffered slots: the shipped protocol
/// ([`ParityRule::Round`]) or the reverted PR 9 bug
/// ([`ParityRule::WindowIndex`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParityRule {
    /// Parity of the processed-round counter — one flip per barrier, so a
    /// parity can only be reused after every reader passed the next
    /// barrier. The shipped protocol.
    Round,
    /// Parity of the window index — a fast-forward jump by an even Δk
    /// reuses a parity with only one barrier in between, racing readers
    /// of the previous round's slots. The PR 9 bug, kept as a seeded
    /// regression the exhaustive search must rediscover.
    WindowIndex,
}

/// The order in which the modeled window barrier runs its operations:
/// the shipped order ([`BarrierRule::Shipped`], the order
/// `fleet/driver.rs::WindowBarrier::wait` executes), or one of three
/// seeded reorderings the exhaustive search must rediscover as a
/// [`Violation::Deadlock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierRule {
    /// Waiters load `gen`, then RMW `count`; the last arriver resets
    /// `count`, bumps `gen`, then unparks the others.
    Shipped,
    /// Seeded bug: the last arriver bumps `gen` before resetting
    /// `count`, so a released waiter's next-round arrival can be erased
    /// by the late reset.
    ResetAfterBump,
    /// Seeded bug: waiters load `gen` after their `count` RMW, so the
    /// last arriver can bump first and the waiter then waits for a
    /// generation that never comes.
    GenLoadAfterRmw,
    /// Seeded bug: the last arriver unparks before bumping, so a waiter
    /// can consume its token, still see the old `gen`, and park again
    /// with nobody left to unpark it.
    UnparkBeforeBump,
}

/// One of the last arriver's release operations; `Unparks` is the run
/// of one unpark per other worker, in worker order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReleaseOp {
    Reset,
    Bump,
    Unparks,
}

impl BarrierRule {
    /// The order in which the last arriver runs its release operations.
    fn release_order(self) -> [ReleaseOp; 3] {
        match self {
            BarrierRule::Shipped | BarrierRule::GenLoadAfterRmw => {
                [ReleaseOp::Reset, ReleaseOp::Bump, ReleaseOp::Unparks]
            }
            BarrierRule::ResetAfterBump => [ReleaseOp::Bump, ReleaseOp::Reset, ReleaseOp::Unparks],
            BarrierRule::UnparkBeforeBump => {
                [ReleaseOp::Reset, ReleaseOp::Unparks, ReleaseOp::Bump]
            }
        }
    }
}

/// Bounds and seeded-bug switches for one [`WindowModel`] run.
#[derive(Debug, Clone)]
pub struct WindowModelCfg {
    /// Per-worker ascending event times (µs). Each event contributes a
    /// deterministic demand weight when drained.
    pub events: Vec<Vec<u64>>,
    /// Window width (µs).
    pub window_us: u64,
    /// Fast-forward horizon (`0` = stepwise).
    pub ff_horizon: u64,
    /// Slot-parity rule (seeded bug: [`ParityRule::WindowIndex`]).
    pub parity: ParityRule,
    /// Ordering of the slot publish stores.
    pub store_order: MemOrder,
    /// Ordering of the slot fold loads.
    pub load_order: MemOrder,
    /// Ordering of the barrier's `count` RMW and `gen` bump. The shipped
    /// barrier uses `AcqRel` (the bump then stores at `Release`); the
    /// seeded bug `Relaxed` strips the rendezvous of its memory
    /// semantics, so `Relaxed` publishes stay buffered past it.
    pub barrier_order: MemOrder,
    /// Barrier operation order (seeded bugs: see [`BarrierRule`]).
    pub barrier: BarrierRule,
    /// Seeded bug: jump one window past the fast-forward target, which
    /// must trip the skipped-pending invariant.
    pub ff_overshoot: bool,
}

impl WindowModelCfg {
    /// The shipped protocol at the production orderings (`Release`
    /// publishes, `Acquire` folds, the `AcqRel`/`Release` barrier), over
    /// the given per-worker event times.
    #[must_use]
    pub fn shipped(events: Vec<Vec<u64>>, window_us: u64, ff_horizon: u64) -> WindowModelCfg {
        WindowModelCfg {
            events,
            window_us,
            ff_horizon,
            parity: ParityRule::Round,
            store_order: MemOrder::Release,
            load_order: MemOrder::Acquire,
            barrier_order: MemOrder::AcqRel,
            barrier: BarrierRule::Shipped,
            ff_overshoot: false,
        }
    }
}

/// Per-worker program position within one round of the window protocol,
/// mirroring `fleet/driver.rs::run_worker`'s loop body and
/// `WindowBarrier::wait` step for step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WPhase {
    /// Drain events below the window boundary, pre-sum, publish the slot.
    DrainPublish,
    /// Barrier: load `gen` (kept in [`WWorker::gen_seen`]).
    GenLoad,
    /// Barrier: `count.fetch_add(1)`; [`is_last_arrival`] decides who
    /// releases the round.
    Arrive,
    /// Last arriver: `count = 0`.
    Reset,
    /// Last arriver: `gen = gen_seen + 1`.
    Bump,
    /// Last arriver: unpark worker `i`.
    Unpark(usize),
    /// Waiter: load `gen`; leave the barrier once it moved, else park.
    /// (The driver's spin phase is a run of these loads that saw the old
    /// value — stutter steps that change no state — so it needs no
    /// modeling of its own.)
    Check,
    /// Waiter: blocked until its park token is set; consumes it.
    Park,
    /// Fold: read worker `ww`'s parity slot.
    Read(usize),
    /// Fold complete: decide rate/stop/fast-forward.
    Decide,
    /// Left the loop.
    Done,
}

#[derive(Debug, Clone)]
struct WWorker {
    phase: WPhase,
    k: u64,
    round: u64,
    next_event: usize,
    /// The `gen` value this worker's current arrival loaded.
    gen_seen: u64,
    /// Whether this worker's `count` RMW made it the last arriver.
    last: bool,
    /// Slots read so far this round, in worker order.
    acc: Vec<(u64, u64, u64)>,
}

/// The locations a scheduler decision reads and writes, as bitmasks over
/// the model's cells, park tokens and store buffers.
#[derive(Debug, Clone, Copy, Default)]
struct Footprint {
    reads: u128,
    writes: u128,
}

impl Footprint {
    fn conflicts(self, other: Footprint) -> bool {
        self.writes & (other.reads | other.writes) != 0 || other.writes & self.reads != 0
    }
}

/// The fleet driver's window protocol as a schedule-driven state
/// machine: W workers × (drain → publish → barrier → redundant fold →
/// decide/fast-forward), over the modeled memory, with every protocol
/// decision delegated to the shared [`fold_slots`]/[`next_window`]/
/// [`parity_of_round`]/[`is_last_arrival`] core the production driver
/// executes. The barrier is modeled as the driver runs it: a `gen` load,
/// a `count` RMW, and for the last arriver a reset, a `gen` bump and one
/// unpark per other worker, while the others loop on a `gen` load and a
/// park that blocks until their token is set.
#[derive(Debug, Clone)]
pub struct WindowModel {
    cfg: Rc<WindowModelCfg>,
    clock: WindowClock,
    mem: ModelMem,
    workers: Vec<WWorker>,
    /// Park tokens, one per worker (`std::thread::park` semantics: set by
    /// unpark, consumed by park).
    tokens: Vec<bool>,
    /// First fold recorded per round — later deciders must match it.
    round_folds: Vec<(u64, WindowFold)>,
}

/// The demand weight one drained event contributes (deterministic, and
/// distinct across nearby timestamps so folds of different event sets
/// cannot collide).
fn event_demand(t: u64) -> u64 {
    t % 997 + 1
}

impl WindowModel {
    /// Builds the model; `cfg.events` length fixes the worker count.
    #[must_use]
    pub fn new(cfg: WindowModelCfg) -> WindowModel {
        let workers = cfg.events.len();
        assert!(workers >= 1, "window model needs at least one worker");
        assert!(
            8 * workers + 2 <= 128,
            "footprint masks cover at most 15 workers"
        );
        for evs in &cfg.events {
            assert!(
                evs.windows(2).all(|w| w[0] <= w[1]),
                "per-worker events must ascend"
            );
        }
        let clock = WindowClock::new(crate::time::Duration::from_micros(cfg.window_us));
        WindowModel {
            cfg: Rc::new(cfg),
            clock,
            mem: ModelMem::new(workers, workers * 2 * 3 + 2),
            workers: (0..workers)
                .map(|_| WWorker {
                    phase: WPhase::DrainPublish,
                    k: 0,
                    round: 0,
                    next_event: 0,
                    gen_seen: 0,
                    last: false,
                    acc: Vec::new(),
                })
                .collect(),
            tokens: vec![false; workers],
            round_folds: Vec::new(),
        }
    }

    fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Cell index of `(parity, worker, field)` — fields 0/1/2 are
    /// demand/alive/next_at, matching `WindowBoard`'s three slot arrays.
    fn cell(&self, parity: usize, w: usize, field: usize) -> usize {
        (parity * self.worker_count() + w) * 3 + field
    }

    /// The barrier's generation counter.
    fn gen_cell(&self) -> usize {
        self.worker_count() * 6
    }

    /// The barrier's arrival counter.
    fn count_cell(&self) -> usize {
        self.worker_count() * 6 + 1
    }

    fn parity_of(&self, worker: &WWorker) -> usize {
        match self.cfg.parity {
            ParityRule::Round => parity_of_round(worker.round),
            ParityRule::WindowIndex => (worker.k & 1) as usize,
        }
    }

    /// The phase after `w`'s arrival is complete (both its `gen` load and
    /// its `count` RMW): release the round when the RMW made it the last
    /// arriver, else wait.
    fn after_arrival(&self, w: usize) -> WPhase {
        if self.workers[w].last {
            self.release_phase(w, 0)
        } else {
            WPhase::Check
        }
    }

    /// The last arriver's phase for the first release operation at or
    /// after position `pos` of the rule's order; `Read(0)` once done.
    fn release_phase(&self, w: usize, pos: usize) -> WPhase {
        for op in &self.cfg.barrier.release_order()[pos..] {
            match op {
                ReleaseOp::Reset => return WPhase::Reset,
                ReleaseOp::Bump => return WPhase::Bump,
                ReleaseOp::Unparks => {
                    if let Some(i) = self.next_other(w, 0) {
                        return WPhase::Unpark(i);
                    }
                }
            }
        }
        WPhase::Read(0)
    }

    /// The first worker other than `w` at or after `from`.
    fn next_other(&self, w: usize, from: usize) -> Option<usize> {
        (from..self.worker_count()).find(|&i| i != w)
    }

    /// The last arriver's phase after finishing release operation `op`.
    fn after_release(&self, w: usize, op: ReleaseOp) -> WPhase {
        let pos = self
            .cfg
            .barrier
            .release_order()
            .iter()
            .position(|o| *o == op);
        self.release_phase(w, pos.expect("every rule runs every operation") + 1)
    }

    fn step_worker(&mut self, w: usize) -> Result<(), Violation> {
        let phase = self.workers[w].phase;
        let barrier_order = self.cfg.barrier_order;
        match phase {
            WPhase::DrainPublish => {
                let (k, round) = (self.workers[w].k, self.workers[w].round);
                let parity = self.parity_of(&self.workers[w]);
                let end = self.clock.end_of(k).as_micros();
                let events = &self.cfg.events[w];
                let mut demand = 0u64;
                let mut idx = self.workers[w].next_event;
                while idx < events.len() && events[idx] < end {
                    let t = events[idx];
                    let expected = self.clock.window_of(Instant::from_micros(t));
                    if expected != k {
                        return Err(Violation::SkippedPending {
                            worker: w,
                            event_us: t,
                            expected_window: expected,
                            processed_window: k,
                        });
                    }
                    demand += event_demand(t);
                    idx += 1;
                }
                self.workers[w].next_event = idx;
                let alive = (events.len() - idx) as u64;
                let next = events.get(idx).copied().unwrap_or(u64::MAX);
                let order = self.cfg.store_order;
                for (field, value) in [(0, demand), (1, alive), (2, next)] {
                    let cell = self.cell(parity, w, field);
                    self.mem.store(w, cell, value, round, order);
                }
                self.workers[w].phase = if self.cfg.barrier == BarrierRule::GenLoadAfterRmw {
                    WPhase::Arrive
                } else {
                    WPhase::GenLoad
                };
            }
            WPhase::GenLoad => {
                self.workers[w].gen_seen = self.mem.load(w, self.gen_cell()).value;
                self.workers[w].phase = if self.cfg.barrier == BarrierRule::GenLoadAfterRmw {
                    self.after_arrival(w)
                } else {
                    WPhase::Arrive
                };
            }
            WPhase::Arrive => {
                let count = self.count_cell();
                #[allow(clippy::cast_possible_truncation)]
                let prev = self.mem.fetch_add(w, count, 1, barrier_order) as usize;
                self.workers[w].last = is_last_arrival(prev, self.worker_count());
                self.workers[w].phase = if self.cfg.barrier == BarrierRule::GenLoadAfterRmw {
                    WPhase::GenLoad
                } else {
                    self.after_arrival(w)
                };
            }
            WPhase::Reset => {
                let count = self.count_cell();
                self.mem.store(w, count, 0, 0, MemOrder::Relaxed);
                self.workers[w].phase = self.after_release(w, ReleaseOp::Reset);
            }
            WPhase::Bump => {
                let (gen, next) = (self.gen_cell(), self.workers[w].gen_seen + 1);
                self.mem.store(w, gen, next, 0, barrier_order);
                self.workers[w].phase = self.after_release(w, ReleaseOp::Bump);
            }
            WPhase::Unpark(i) => {
                // `unpark` synchronizes-with the `park` that consumes the
                // token (std's token swap is a release store): everything
                // the unparker stored before it is visible first.
                self.mem.flush_all(w);
                self.tokens[i] = true;
                self.workers[w].phase = match self.next_other(w, i + 1) {
                    Some(j) => WPhase::Unpark(j),
                    None => self.after_release(w, ReleaseOp::Unparks),
                };
            }
            WPhase::Check => {
                let gen = self.mem.load(w, self.gen_cell()).value;
                self.workers[w].phase = if gen == self.workers[w].gen_seen {
                    WPhase::Park
                } else {
                    WPhase::Read(0)
                };
            }
            WPhase::Park => {
                debug_assert!(self.tokens[w], "park is scheduled only with its token set");
                self.tokens[w] = false;
                self.workers[w].phase = WPhase::Check;
            }
            WPhase::Read(ww) => {
                let round = self.workers[w].round;
                let parity = self.parity_of(&self.workers[w]);
                let mut triple = [0u64; 3];
                for (field, slot) in triple.iter_mut().enumerate() {
                    let got = self.mem.load(w, self.cell(parity, ww, field));
                    if got.epoch != round {
                        return Err(Violation::StaleSlot {
                            reader: w,
                            slot_of: ww,
                            round,
                            found_epoch: got.epoch,
                        });
                    }
                    *slot = got.value;
                }
                self.workers[w].acc.push((triple[0], triple[1], triple[2]));
                self.workers[w].phase = if ww + 1 < self.worker_count() {
                    WPhase::Read(ww + 1)
                } else {
                    WPhase::Decide
                };
            }
            WPhase::Decide => {
                let round = self.workers[w].round;
                let fold = fold_slots(self.workers[w].acc.drain(..));
                match self.round_folds.iter().find(|(r, _)| *r == round) {
                    Some((_, first)) if *first != fold => {
                        return Err(Violation::FoldDivergence { round, worker: w });
                    }
                    Some(_) => {}
                    None => self.round_folds.push((round, fold)),
                }
                if fold.alive == 0 {
                    self.workers[w].phase = WPhase::Done;
                    return Ok(());
                }
                let k = self.workers[w].k;
                let mut nk = next_window(k, self.cfg.ff_horizon, &fold, &self.clock);
                if self.cfg.ff_overshoot {
                    nk += 1;
                }
                self.workers[w].k = nk;
                self.workers[w].round = round + 1;
                self.workers[w].phase = WPhase::DrainPublish;
            }
            WPhase::Done => unreachable!("done workers are never scheduled"),
        }
        Ok(())
    }

    /// Bit of park token `i` in a [`Footprint`] mask (cells come first).
    fn token_bit(&self, i: usize) -> u128 {
        1 << (self.mem.cells.len() + i)
    }

    /// Bit of thread `t`'s store buffer in a [`Footprint`] mask.
    fn buffer_bit(&self, t: usize) -> u128 {
        1 << (self.mem.cells.len() + self.worker_count() + t)
    }

    /// What a store or RMW to `cell` by thread `t` writes: its own buffer
    /// when it only enqueues; otherwise also every cell its drain
    /// commits (conservatively the whole buffer, even for a `Relaxed`
    /// RMW's partial drain) and `cell` itself.
    fn write_footprint(&self, t: usize, cell: usize, commits: bool) -> Footprint {
        let writes = if commits {
            self.drain_mask(t) | 1 << cell
        } else {
            self.buffer_bit(t)
        };
        Footprint { reads: 0, writes }
    }

    /// What draining thread `t`'s store buffer writes: the buffer and
    /// every cell pending in it.
    fn drain_mask(&self, t: usize) -> u128 {
        self.mem.buffers[t]
            .iter()
            .fold(self.buffer_bit(t), |mask, (pending, _)| mask | 1 << pending)
    }

    fn footprint(&self, choice: Choice) -> Footprint {
        let w = match choice {
            Choice::Flush(t) => {
                let (cell, _) = self.mem.buffers[t][0];
                return Footprint {
                    reads: 0,
                    writes: self.buffer_bit(t) | 1 << cell,
                };
            }
            Choice::Step(w) => w,
        };
        // Loads need no buffer bit: a flush of the loader's own oldest
        // entry never changes the value store-to-load forwarding returns.
        let reads = |cells: &[usize]| Footprint {
            reads: cells.iter().fold(0, |m, c| m | 1 << c),
            writes: 0,
        };
        let worker = &self.workers[w];
        match worker.phase {
            WPhase::DrainPublish => {
                let parity = self.parity_of(worker);
                let mut fp = Footprint::default();
                for field in 0..3 {
                    let cell = self.cell(parity, w, field);
                    fp.writes |= self
                        .write_footprint(w, cell, self.cfg.store_order.releases())
                        .writes;
                }
                fp
            }
            WPhase::GenLoad | WPhase::Check => reads(&[self.gen_cell()]),
            WPhase::Arrive => self.write_footprint(w, self.count_cell(), true),
            WPhase::Reset => self.write_footprint(w, self.count_cell(), false),
            WPhase::Bump => {
                self.write_footprint(w, self.gen_cell(), self.cfg.barrier_order.releases())
            }
            WPhase::Unpark(i) => Footprint {
                reads: 0,
                writes: self.drain_mask(w) | self.token_bit(i),
            },
            WPhase::Park => Footprint {
                reads: 0,
                writes: self.token_bit(w),
            },
            WPhase::Read(ww) => {
                let parity = self.parity_of(worker);
                reads(&[0, 1, 2].map(|field| self.cell(parity, ww, field)))
            }
            // Local: the fold reads `acc`, and the cross-worker fold
            // comparison is an order-insensitive oracle.
            WPhase::Decide | WPhase::Done => Footprint::default(),
        }
    }
}

impl Model for WindowModel {
    fn choices(&self, out: &mut Vec<Choice>) {
        // Sound partial-order reduction, part one: a `Decide` step
        // touches no modeled shared memory (the fold reads local `acc`;
        // the cross-worker fold comparison is an order-insensitive
        // oracle), so it commutes with every other step, now and later.
        // The explorer schedules the first such step deterministically
        // instead of branching. Part two, the sleep sets over
        // `independent`, prunes reorderings of steps with disjoint
        // footprints.
        if let Some(w) = self
            .workers
            .iter()
            .position(|worker| worker.phase == WPhase::Decide)
        {
            out.push(Choice::Step(w));
            return;
        }
        for (w, worker) in self.workers.iter().enumerate() {
            let runnable = match worker.phase {
                WPhase::Done => false,
                // A parked worker runs only once its token is set.
                WPhase::Park => self.tokens[w],
                _ => true,
            };
            if runnable {
                out.push(Choice::Step(w));
            }
            if self.mem.has_pending(w) {
                out.push(Choice::Flush(w));
            }
        }
    }

    fn apply(&mut self, choice: Choice) -> Result<(), Violation> {
        match choice {
            Choice::Step(w) => self.step_worker(w),
            Choice::Flush(w) => {
                self.mem.flush_one(w);
                Ok(())
            }
        }
    }

    fn independent(&self, a: Choice, b: Choice) -> bool {
        !self.footprint(a).conflicts(self.footprint(b))
    }

    fn done(&self) -> bool {
        self.workers.iter().all(|w| w.phase == WPhase::Done)
    }

    fn finalize(&self) -> Result<(), Violation> {
        for (w, worker) in self.workers.iter().enumerate() {
            if worker.next_event != self.cfg.events[w].len() {
                return Err(Violation::Unfinished { worker: w });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The chunked-claimer model.
// ---------------------------------------------------------------------------

/// How the model claims the shared position counter: the shipped
/// one-step RMW, or the seeded racy split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimStyle {
    /// `fetch_add(chunk)` — one atomic RMW per claim, the shipped
    /// protocol (`runner.rs`'s `Relaxed` claim counter).
    FetchAdd,
    /// Load the counter, then store `counter + chunk` as two separate
    /// steps — a seeded atomicity bug (two claimers can read the same
    /// `p0`) the exhaustive search must find. Note this is racy at
    /// *any* ordering: the defect is lost atomicity, not weakness.
    LoadThenStore,
}

/// Bounds for one [`ClaimModel`] run.
#[derive(Debug, Clone, Copy)]
pub struct ClaimModelCfg {
    /// Claimer threads.
    pub threads: usize,
    /// Work items (positions `0..n`).
    pub n: usize,
    /// Positions per claim.
    pub chunk: usize,
    /// Shipped RMW vs seeded split (see [`ClaimStyle`]).
    pub style: ClaimStyle,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CPhase {
    Claim,
    /// `LoadThenStore` only: the loaded counter value awaiting write-back.
    StoreBack(usize),
    Done,
}

/// The runner's chunked claiming protocol as a schedule-driven state
/// machine: T claimers looping `fetch_add(chunk)` →
/// [`claim_range`] → mark positions, with per-position claim counts as
/// the double-claim oracle and [`ranges_partition`] as the terminal
/// invariant — the same two functions the production runner's
/// `debug-invariants` ledger asserts.
#[derive(Debug, Clone)]
pub struct ClaimModel {
    cfg: ClaimModelCfg,
    mem: ModelMem,
    phases: Vec<CPhase>,
    claimed: Vec<u8>,
    ranges: Vec<(usize, usize)>,
}

impl ClaimModel {
    /// Builds the model.
    #[must_use]
    pub fn new(cfg: ClaimModelCfg) -> ClaimModel {
        assert!(cfg.threads >= 1 && cfg.chunk >= 1, "degenerate claim model");
        ClaimModel {
            cfg,
            mem: ModelMem::new(cfg.threads, 1),
            phases: vec![CPhase::Claim; cfg.threads],
            claimed: vec![0; cfg.n],
            ranges: Vec::new(),
        }
    }

    fn take(&mut self, t: usize, p0: usize) -> Result<(), Violation> {
        match claim_range(p0, self.cfg.chunk, self.cfg.n) {
            None => self.phases[t] = CPhase::Done,
            Some((s, e)) => {
                for p in s..e {
                    self.claimed[p] += 1;
                    if self.claimed[p] > 1 {
                        return Err(Violation::DoubleClaim { position: p });
                    }
                }
                self.ranges.push((s, e));
            }
        }
        Ok(())
    }
}

impl Model for ClaimModel {
    fn choices(&self, out: &mut Vec<Choice>) {
        for (t, phase) in self.phases.iter().enumerate() {
            if *phase != CPhase::Done {
                out.push(Choice::Step(t));
            }
            if self.mem.has_pending(t) {
                out.push(Choice::Flush(t));
            }
        }
    }

    fn apply(&mut self, choice: Choice) -> Result<(), Violation> {
        let Choice::Step(t) = choice else {
            let Choice::Flush(t) = choice else {
                unreachable!()
            };
            self.mem.flush_one(t);
            return Ok(());
        };
        match self.phases[t] {
            CPhase::Claim => match self.cfg.style {
                ClaimStyle::FetchAdd => {
                    #[allow(clippy::cast_possible_truncation)]
                    let p0 = self
                        .mem
                        .fetch_add(t, 0, self.cfg.chunk as u64, MemOrder::Relaxed)
                        as usize;
                    self.take(t, p0)
                }
                ClaimStyle::LoadThenStore => {
                    #[allow(clippy::cast_possible_truncation)]
                    let p0 = self.mem.load(t, 0).value as usize;
                    self.phases[t] = CPhase::StoreBack(p0);
                    Ok(())
                }
            },
            CPhase::StoreBack(p0) => {
                self.mem
                    .store(t, 0, (p0 + self.cfg.chunk) as u64, 0, MemOrder::SeqCst);
                self.phases[t] = CPhase::Claim;
                self.take(t, p0)
            }
            CPhase::Done => unreachable!("done claimers are never scheduled"),
        }
    }

    fn done(&self) -> bool {
        self.phases.iter().all(|p| *p == CPhase::Done)
    }

    fn finalize(&self) -> Result<(), Violation> {
        let mut ranges = self.ranges.clone();
        if ranges_partition(&mut ranges, self.cfg.n) {
            Ok(())
        } else {
            Err(Violation::NotPartition)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn fold_is_grouping_blind() {
        let slots = [(5, 1, 30), (7, 0, u64::MAX), (11, 2, 12)];
        let all = fold_slots(slots);
        let regrouped = fold_slots([(5 + 7, 1, 30), (11, 2, 12), (0, 0, u64::MAX)]);
        assert_eq!(all, regrouped);
        assert_eq!(all.demand, 23);
        assert_eq!(all.alive, 3);
        assert_eq!(all.min_next_us, 12);
    }

    #[test]
    fn next_window_matches_the_driver_rule() {
        let clock = WindowClock::new(Duration::from_millis(250));
        let fold = |alive, min_next_us| WindowFold {
            demand: 0,
            alive,
            min_next_us,
        };
        // Stepwise when disabled, when drained, and under the horizon.
        assert_eq!(next_window(4, 0, &fold(3, 2_000_000), &clock), 5);
        assert_eq!(next_window(4, 1, &fold(0, u64::MAX), &clock), 5);
        assert_eq!(next_window(4, 1, &fold(3, 1_300_000), &clock), 5);
        // Jumps to the window containing the earliest pending event.
        assert_eq!(next_window(4, 1, &fold(3, 2_100_000), &clock), 8);
        assert_eq!(next_window(4, 4, &fold(3, 2_100_000), &clock), 5);
    }

    #[test]
    fn last_arrival_is_the_nth() {
        assert!(is_last_arrival(0, 1), "a lone worker always releases");
        assert!(!is_last_arrival(0, 3));
        assert!(!is_last_arrival(1, 3));
        assert!(is_last_arrival(2, 3));
        assert!(
            !is_last_arrival(3, 3),
            "an arrival past the count never releases"
        );
    }

    #[test]
    fn waiters_spin_only_without_oversubscription() {
        assert!(spins(1, 1));
        assert!(spins(2, 2));
        assert!(spins(2, 8));
        assert!(!spins(3, 2), "oversubscribed: park at once");
        assert!(!spins(8, 2));
    }

    #[test]
    fn claim_range_clips_and_ends() {
        assert_eq!(claim_range(0, 4, 10), Some((0, 4)));
        assert_eq!(claim_range(8, 4, 10), Some((8, 10)));
        assert_eq!(claim_range(10, 4, 10), None);
        assert_eq!(
            claim_range(usize::MAX - 1, 4, usize::MAX),
            Some((usize::MAX - 1, usize::MAX))
        );
    }

    #[test]
    fn ranges_partition_checks_disjoint_cover() {
        assert!(ranges_partition(&mut [(4, 10), (0, 4)], 10));
        assert!(ranges_partition(&mut [], 0));
        assert!(!ranges_partition(&mut [(0, 4), (4, 9)], 10), "gap at end");
        assert!(!ranges_partition(&mut [(0, 5), (4, 10)], 10), "overlap");
        assert!(!ranges_partition(&mut [(1, 10)], 10), "gap at start");
        assert!(
            !ranges_partition(&mut [(0, 10), (10, 10)], 10),
            "empty range"
        );
    }

    /// A model with the sleep-set reduction switched off.
    #[derive(Clone)]
    struct Unreduced(WindowModel);

    impl Model for Unreduced {
        fn choices(&self, out: &mut Vec<Choice>) {
            self.0.choices(out);
        }
        fn apply(&mut self, choice: Choice) -> Result<(), Violation> {
            self.0.apply(choice)
        }
        fn done(&self) -> bool {
            self.0.done()
        }
        fn finalize(&self) -> Result<(), Violation> {
            self.0.finalize()
        }
    }

    /// The sleep sets prune only reorderings: on a single window, the
    /// reduced and the full search agree on the verdict for the shipped
    /// barrier and for every seeded barrier bug, and the reduced search
    /// visits far fewer schedules.
    #[test]
    fn sleep_sets_keep_every_verdict() {
        let base = || WindowModelCfg::shipped(vec![vec![100_000], vec![150_000]], 1_000_000, 0);
        let verdict = |r: Result<ExploreStats, Box<CounterExample>>| {
            r.map(|_| ())
                .map_err(|cex| std::mem::discriminant(&cex.violation))
        };
        let mut configs = vec![base()];
        for barrier in [
            BarrierRule::ResetAfterBump,
            BarrierRule::GenLoadAfterRmw,
            BarrierRule::UnparkBeforeBump,
        ] {
            configs.push(WindowModelCfg { barrier, ..base() });
        }
        configs.push(WindowModelCfg {
            store_order: MemOrder::Relaxed,
            barrier_order: MemOrder::Relaxed,
            ..base()
        });
        for cfg in configs {
            let model = WindowModel::new(cfg.clone());
            let reduced = explore(&model, 1_000_000);
            let full = explore(&Unreduced(model), 1_000_000);
            if let (Ok(r), Ok(f)) = (&reduced, &full) {
                assert!(r.schedules < f.schedules, "{r:?} vs {f:?}");
            }
            assert_eq!(verdict(reduced), verdict(full), "{cfg:?}");
        }
    }

    #[test]
    fn store_buffer_forwards_to_owner_only() {
        let mut mem = ModelMem::new(2, 1);
        mem.store(0, 0, 42, 7, MemOrder::Relaxed);
        assert_eq!(mem.load(0, 0).value, 42, "owner sees its buffered store");
        assert_eq!(mem.load(1, 0).epoch, UNWRITTEN, "other thread does not");
        mem.flush_one(0);
        assert_eq!(mem.load(1, 0).value, 42, "visible after flush");
        assert_eq!(mem.load(1, 0).epoch, 7);
    }

    #[test]
    fn release_store_commits_immediately() {
        let mut mem = ModelMem::new(2, 2);
        mem.store(0, 0, 1, 0, MemOrder::Relaxed);
        mem.store(0, 1, 2, 0, MemOrder::Release);
        assert_eq!(mem.load(1, 0).value, 1, "release drains earlier stores");
        assert_eq!(mem.load(1, 1).value, 2);
    }
}
