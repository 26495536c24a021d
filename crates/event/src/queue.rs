//! Deterministic event queue.
//!
//! A thin wrapper over `BinaryHeap` that orders events by `(time, seq)`,
//! where `seq` is a monotonically increasing insertion counter. Two events
//! scheduled for the same instant therefore always pop in the order they
//! were pushed — the property that keeps multi-flow simulations (several
//! downloads completing at the same microsecond) reproducible.
//!
//! # Tie-break semantics
//!
//! The queue is a strict priority queue over `(at, seq)`:
//!
//! 1. **Earlier timestamps pop first.** Time never runs backwards: popping
//!    advances [`EventQueue::now`], and scheduling before `now` panics.
//! 2. **Within one timestamp, insertion order wins (FIFO).** The `seq`
//!    counter is assigned at [`EventQueue::schedule`] time and never reused,
//!    including across cancellations — cancelling an entry does not renumber
//!    or reorder anything else.
//! 3. **Cancellation is exact.** [`EventQueue::cancel`] removes exactly the
//!    entry whose [`EventKey`] it is handed; a key is invalidated once its
//!    entry pops or is cancelled, and cancelling it again is a no-op that
//!    returns `false`.
//!
//! These three rules make a simulation's event order a pure function of the
//! schedule/cancel call sequence — the foundation of the workspace's
//! bit-reproducibility contract (DESIGN.md §10).

use crate::time::Instant;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry: reversed ordering so the `BinaryHeap` max-heap pops
/// the *earliest* event first.
struct Entry<E> {
    at: Instant,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: earliest time (then lowest seq) is the "greatest" entry.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// Handle to one scheduled entry, returned by [`EventQueue::schedule`] and
/// consumed by [`EventQueue::cancel`]. Keys are unique for the lifetime of
/// the queue (never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey(u64);

/// A priority queue of timestamped events with deterministic tie-breaking
/// (see the module docs for the exact semantics).
///
/// Cancellation is lazy and `O(1)`: every issued seq owns one "dead" bit,
/// set when its entry pops or is cancelled. A heap entry whose bit is set
/// is a tombstone, skipped (and dropped) when it reaches the head, so
/// `schedule` and `pop` stay `O(log n)` with no per-entry set lookups.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// One bit per issued seq (bit `seq % 64` of word `seq / 64`): set
    /// once the entry has popped or been cancelled.
    dead: Vec<u64>,
    /// Number of live (scheduled, not popped, not cancelled) entries.
    live: usize,
    next_seq: u64,
    now: Instant,
    /// `(at, seq)` of the most recent pop — the FIFO tie-break witness
    /// (runtime invariant checking; see DESIGN.md §12).
    #[cfg(feature = "debug-invariants")]
    last_popped: Option<(Instant, u64)>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            dead: Vec::new(),
            live: 0,
            next_seq: 0,
            now: Instant::ZERO,
            #[cfg(feature = "debug-invariants")]
            last_popped: None,
        }
    }

    /// Structural invariants, checked after every mutation when built with
    /// `debug-invariants`: the heap entries with their dead bit set are
    /// exactly the tombstones (`heap.len() - live` of them), and every
    /// heap seq was actually handed out.
    fn debug_check(&self) {
        #[cfg(feature = "debug-invariants")]
        {
            let tombstones = self.heap.iter().filter(|e| self.is_dead(e.seq)).count();
            debug_assert_eq!(
                Some(tombstones),
                self.heap.len().checked_sub(self.live),
                "dead heap entries must be exactly the tombstones"
            );
            debug_assert!(
                self.heap.iter().all(|e| e.seq < self.next_seq),
                "heap seq beyond the allocation counter"
            );
        }
    }

    /// True once the entry behind `seq` (an issued seq) popped or was
    /// cancelled.
    fn is_dead(&self, seq: u64) -> bool {
        self.dead[(seq / 64) as usize] >> (seq % 64) & 1 == 1
    }

    /// Retires a live entry: sets its dead bit and drops it from the live
    /// count.
    fn mark_dead(&mut self, seq: u64) {
        self.dead[(seq / 64) as usize] |= 1 << (seq % 64);
        self.live -= 1;
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event (or zero before any pop).
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Schedules `event` to fire at `at` and returns a key that can later
    /// [`cancel`](EventQueue::cancel) it. Panics if `at` is in the past —
    /// scheduling backwards in time is always a logic error.
    pub fn schedule(&mut self, at: Instant, event: E) -> EventKey {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if seq.is_multiple_of(64) {
            self.dead.push(0);
        }
        self.heap.push(Entry { at, seq, event });
        self.live += 1;
        self.debug_check();
        EventKey(seq)
    }

    /// Cancels the entry behind `key`. Returns `true` if the entry was
    /// still pending; `false` if it already popped, was already
    /// cancelled, or was never issued. Cancellation never disturbs the
    /// ordering of other entries.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if !self.is_pending(key) {
            return false;
        }
        self.mark_dead(key.0);
        self.debug_check();
        true
    }

    /// True while the entry behind `key` is scheduled: not yet popped,
    /// not cancelled.
    pub fn is_pending(&self, key: EventKey) -> bool {
        key.0 < self.next_seq && !self.is_dead(key.0)
    }

    /// Removes and returns the earliest live event, advancing the clock to
    /// its timestamp. Cancelled entries are skipped (and dropped). Returns
    /// `None` when no live events remain.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        self.live_head()?;
        let entry = self.heap.pop().expect("live head present");
        debug_assert!(entry.at >= self.now);
        // FIFO tie-break stability: pops must strictly ascend in
        // `(at, seq)` — equal-time events leave in insertion order.
        #[cfg(feature = "debug-invariants")]
        {
            if let Some(last) = self.last_popped {
                debug_assert!(
                    (entry.at, entry.seq) > last,
                    "pop order regressed: {:?} after {last:?}",
                    (entry.at, entry.seq)
                );
            }
            self.last_popped = Some((entry.at, entry.seq));
        }
        self.now = entry.at;
        self.mark_dead(entry.seq);
        self.debug_check();
        Some((entry.at, entry.event))
    }

    /// Removes and returns the earliest live event **strictly before**
    /// `limit`, advancing the clock to its timestamp. When the next live
    /// event is at or after `limit` (or the queue is empty) the clock is
    /// left untouched and `None` is returned; tombstones ahead of the
    /// boundary are discarded along the way.
    ///
    /// This is the primitive behind conservative time-window sharding
    /// (DESIGN.md §14): a shard drains its queue up to the window boundary,
    /// synchronises with its peers, and resumes — events at exactly the
    /// boundary belong to the *next* window so that boundary-time state
    /// exchanged at the barrier is complete.
    pub fn pop_before(&mut self, limit: Instant) -> Option<(Instant, E)> {
        if self.live_head()?.at >= limit {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the next live event, pruning any leading tombstones.
    ///
    /// Takes `&mut self` so cancelled entries at the head of the heap are
    /// discarded instead of filtered around. Each tombstone is removed at
    /// most once, so the cost is amortized `O(log n)` — cheap enough for
    /// a session's per-event wake query and the fleet driver's per-window
    /// quiescence checks (DESIGN.md §16).
    pub fn next_time(&mut self) -> Option<Instant> {
        self.live_head().map(|e| e.at)
    }

    /// Discards tombstones from the top of the heap and returns the
    /// earliest live entry, if any.
    fn live_head(&mut self) -> Option<&Entry<E>> {
        while self.is_dead(self.heap.peek()?.seq) {
            self.heap.pop();
            self.debug_check();
        }
        self.heap.peek()
    }

    /// Number of pending (live) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of keys handed out so far: every [`schedule`] call ever
    /// made, whether its entry is still pending, popped or cancelled.
    ///
    /// [`schedule`]: EventQueue::schedule
    pub fn issued(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_secs(3), "c");
        q.schedule(Instant::from_secs(1), "a");
        q.schedule(Instant::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Instant::from_secs(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_secs(2), ());
        q.schedule(Instant::from_secs(7), ());
        assert_eq!(q.now(), Instant::ZERO);
        q.pop();
        assert_eq!(q.now(), Instant::from_secs(2));
        q.pop();
        assert_eq!(q.now(), Instant::from_secs(7));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_schedule() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_secs(5), ());
        q.pop();
        q.schedule(Instant::from_secs(4), ());
    }

    #[test]
    fn next_time_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_time(), None);
        q.schedule(Instant::from_millis(10), 1);
        q.schedule(Instant::from_millis(5), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_time(), Some(Instant::from_millis(5)));
        assert_eq!(q.len(), 2, "peeking does not consume");
        assert_eq!(q.issued(), 2);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_secs(1), "first");
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (Instant::from_secs(1), "first"));
        // Scheduling relative to the advanced clock works.
        q.schedule(q.now() + Duration::from_secs(1), "second");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn cancelled_events_never_pop() {
        let mut q = EventQueue::new();
        let _a = q.schedule(Instant::from_secs(1), "a");
        let b = q.schedule(Instant::from_secs(2), "b");
        let _c = q.schedule(Instant::from_secs(3), "c");
        assert!(q.cancel(b));
        assert_eq!(q.len(), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "c"]);
    }

    #[test]
    fn cancel_is_exact_and_idempotent() {
        let mut q = EventQueue::new();
        let a = q.schedule(Instant::from_secs(1), "a");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "second cancel is a no-op");
        assert!(q.pop().is_none());
        // A popped key can no longer be cancelled.
        let b = q.schedule(Instant::from_secs(2), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(!q.cancel(b));
    }

    #[test]
    fn cancelling_one_tie_preserves_fifo_of_the_rest() {
        let mut q = EventQueue::new();
        let t = Instant::from_secs(4);
        let keys: Vec<EventKey> = (0..5).map(|i| q.schedule(t, i)).collect();
        assert!(q.cancel(keys[2]));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 3, 4]);
    }

    #[test]
    fn next_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(Instant::from_secs(1), "a");
        q.schedule(Instant::from_secs(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.next_time(), Some(Instant::from_secs(2)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_before_respects_the_boundary() {
        let mut q = EventQueue::new();
        q.schedule(Instant::from_secs(1), "a");
        q.schedule(Instant::from_secs(2), "b");
        q.schedule(Instant::from_secs(3), "c");
        // Boundary events belong to the next window: `b` at t=2 is NOT
        // popped by a limit of 2.
        assert_eq!(q.pop_before(Instant::from_secs(2)).unwrap().1, "a");
        assert_eq!(q.pop_before(Instant::from_secs(2)), None);
        assert_eq!(q.now(), Instant::from_secs(1), "clock untouched by refusal");
        assert_eq!(q.pop_before(Instant::from_secs(10)).unwrap().1, "b");
        assert_eq!(q.pop_before(Instant::from_secs(10)).unwrap().1, "c");
        assert_eq!(q.pop_before(Instant::from_secs(10)), None);
    }

    #[test]
    fn pop_before_discards_tombstones_past_the_boundary() {
        let mut q = EventQueue::new();
        let a = q.schedule(Instant::from_secs(1), "a");
        q.schedule(Instant::from_secs(5), "b");
        assert!(q.cancel(a));
        // The cancelled head is discarded even though the live head is
        // beyond the limit.
        assert_eq!(q.pop_before(Instant::from_secs(2)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(Instant::from_secs(6)).unwrap().1, "b");
    }

    #[test]
    fn pop_before_matches_pop_order() {
        let mut q1 = EventQueue::new();
        let mut q2 = EventQueue::new();
        let t = Instant::from_secs(4);
        for i in 0..6 {
            q1.schedule(t, i);
            q2.schedule(t, i);
        }
        let via_pop: Vec<_> = std::iter::from_fn(|| q1.pop()).map(|(_, e)| e).collect();
        let via_window: Vec<_> = std::iter::from_fn(|| q2.pop_before(Instant::from_secs(5)))
            .map(|(_, e)| e)
            .collect();
        assert_eq!(via_pop, via_window);
    }

    #[test]
    fn next_time_agrees_with_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None::<Instant>);
        q.schedule(Instant::from_millis(10), 1);
        q.schedule(Instant::from_millis(5), 2);
        assert_eq!(q.next_time(), Some(Instant::from_millis(5)));
        assert_eq!(q.next_time(), q.pop().map(|(t, _)| t));
        assert_eq!(q.next_time(), Some(Instant::from_millis(10)));
        assert_eq!(q.next_time(), q.pop().map(|(t, _)| t));
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn next_time_prunes_cancelled_heads_without_losing_live_entries() {
        let mut q = EventQueue::new();
        let a = q.schedule(Instant::from_secs(1), "a");
        let b = q.schedule(Instant::from_secs(2), "b");
        q.schedule(Instant::from_secs(3), "c");
        assert!(q.cancel(a));
        assert!(q.cancel(b));
        assert_eq!(q.next_time(), Some(Instant::from_secs(3)));
        assert_eq!(q.len(), 1);
        // The pruned tombstones are gone for good; popping still yields
        // exactly the live entries in order.
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn cancel_rejects_unknown_key() {
        let mut q: EventQueue<()> = EventQueue::new();
        // A key that was never handed out (seq beyond next_seq).
        assert!(!q.is_pending(EventKey(42)));
        assert!(!q.cancel(EventKey(42)));
    }

    #[test]
    fn is_pending_until_popped_or_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(Instant::from_secs(1), "a");
        let b = q.schedule(Instant::from_secs(2), "b");
        assert!(q.is_pending(a) && q.is_pending(b));
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(!q.is_pending(a), "popped");
        assert!(q.cancel(b));
        assert!(!q.is_pending(b), "cancelled");
    }
}
