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
//!    counter is assigned at [`EventQueue::schedule`] time and never reused.
//!
//! These two rules make a simulation's event order a pure function of the
//! schedule call sequence — the foundation of the workspace's
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

/// A priority queue of timestamped events with deterministic tie-breaking
/// (see the module docs for the exact semantics).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
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
            next_seq: 0,
            now: Instant::ZERO,
            #[cfg(feature = "debug-invariants")]
            last_popped: None,
        }
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event (or zero before any pop).
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Schedules `event` to fire at `at`. Panics if `at` is in the past —
    /// scheduling backwards in time is always a logic error.
    pub fn schedule(&mut self, at: Instant, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        let entry = self.heap.pop()?;
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
        Some((entry.at, entry.event))
    }

    /// Removes and returns the earliest event **strictly before** `limit`,
    /// advancing the clock to its timestamp. When the next event is at or
    /// after `limit` (or the queue is empty) the clock is left untouched
    /// and `None` is returned.
    ///
    /// This is the primitive behind conservative time-window sharding
    /// (DESIGN.md §14): a shard drains its queue up to the window boundary,
    /// synchronises with its peers, and resumes — events at exactly the
    /// boundary belong to the *next* window so that boundary-time state
    /// exchanged at the barrier is complete.
    pub fn pop_before(&mut self, limit: Instant) -> Option<(Instant, E)> {
        if self.next_time()? >= limit {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the next event, if any.
    pub fn next_time(&self) -> Option<Instant> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
}
