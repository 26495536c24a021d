//! The session engine's clock: one pending slot per event class.
//!
//! A session never has more than one live event per [`SessionEvent`]
//! class, so instead of a heap the clock is a fixed six-slot table. Each
//! slot holds the `(at, seq)` of its class's pending event, where `seq`
//! is a counter bumped on every schedule. The head is the minimum
//! `(at, seq)` over the slots: earlier times first, and within one
//! instant the event scheduled first — the `(time, FIFO)` order of
//! [`abr_event::EventQueue`]. Writing a live slot is a cancel plus a
//! schedule. The clock never allocates and a pop leaves no tombstone.

use abr_event::time::Instant;

/// The typed event vocabulary of the session engine. Every way virtual
/// time can advance is one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionEvent {
    /// The link's earliest in-flight transfer finishes.
    TransferComplete,
    /// Playback reaches the instant the scarcer buffer runs dry (or the
    /// presentation ends).
    PlaybackBoundary,
    /// An idle pipeline's buffer drains back below the target and may
    /// fetch again.
    BufferRefill,
    /// A scheduled user seek comes due.
    SeekDue,
    /// The simulation deadline sentinel (scheduled once, never re-armed).
    Deadline,
    /// A live playlist-refresh timer fires (only with
    /// [`crate::session::Session::with_playlist_refresh`]).
    PlaylistRefresh,
}

impl SessionEvent {
    /// Every class, in declaration (= slot index) order.
    const ALL: [SessionEvent; 6] = [
        SessionEvent::TransferComplete,
        SessionEvent::PlaybackBoundary,
        SessionEvent::BufferRefill,
        SessionEvent::SeekDue,
        SessionEvent::Deadline,
        SessionEvent::PlaylistRefresh,
    ];

    /// This class's slot in the [`Clock`] table.
    fn slot(self) -> usize {
        self as usize
    }

    /// Profiler span name for dispatching one event of this class
    /// (DESIGN.md §13: per-event-class cost attribution).
    pub(crate) fn span_name(self) -> &'static str {
        match self {
            SessionEvent::TransferComplete => "dispatch.transfer_complete",
            SessionEvent::PlaybackBoundary => "dispatch.playback_boundary",
            SessionEvent::BufferRefill => "dispatch.buffer_refill",
            SessionEvent::SeekDue => "dispatch.seek_due",
            SessionEvent::Deadline => "dispatch.deadline",
            SessionEvent::PlaylistRefresh => "dispatch.playlist_refresh",
        }
    }
}

/// The per-class event table behind a session's virtual time.
#[derive(Debug, Default)]
pub(crate) struct Clock {
    /// `(at, seq)` of each class's pending event, indexed by
    /// [`SessionEvent::slot`].
    slots: [Option<(Instant, u64)>; 6],
    /// Seqs handed out so far: one per [`Clock::schedule`].
    issued: u64,
    /// Timestamp of the most recent pop (zero before any).
    now: Instant,
    /// `(at, seq)` of the most recent pop — the FIFO tie-break witness
    /// (runtime invariant checking; see DESIGN.md §12).
    #[cfg(feature = "debug-invariants")]
    last_popped: Option<(Instant, u64)>,
}

impl Clock {
    /// Sets `ev`'s pending event to `at` with the next seq, replacing any
    /// pending one. Panics if `at` is before the last pop — scheduling
    /// backwards in time is always a logic error.
    pub(crate) fn schedule(&mut self, at: Instant, ev: SessionEvent) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.slots[ev.slot()] = Some((at, self.issued));
        self.issued += 1;
    }

    /// Points a wake class's slot at `at` (`None` clears it). The pending
    /// event stays when its time is unchanged and it is newer than the
    /// pending refresh tick; otherwise a fresh one is scheduled.
    ///
    /// A kept event has an older seq than a fresh one would get, but the
    /// set of pending times is the same. Ties among the four wake classes
    /// do not matter (each runs the same step), the deadline sentinel
    /// (seq 0) still wins every tie, and the tick condition keeps the one
    /// order that could change: a refresh tick still pops before a wake at
    /// the same instant, as it did when every wake was re-scheduled after
    /// it.
    pub(crate) fn rearm(&mut self, ev: SessionEvent, at: Option<Instant>) {
        let tick = self.slots[SessionEvent::PlaylistRefresh.slot()].map(|(_, seq)| seq);
        if let (Some((armed_at, seq)), Some(t)) = (self.slots[ev.slot()], at) {
            if armed_at == t && tick.is_none_or(|tick| seq > tick) {
                return;
            }
        }
        match at {
            Some(t) => self.schedule(t, ev),
            None => self.slots[ev.slot()] = None,
        }
    }

    /// `(at, seq, slot)` of the earliest pending event.
    fn head(&self) -> Option<(Instant, u64, usize)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|(at, seq)| (at, seq, i)))
            .min()
    }

    /// Timestamp of the earliest pending event.
    pub(crate) fn next_time(&self) -> Option<Instant> {
        self.head().map(|(at, _, _)| at)
    }

    /// Removes and returns the earliest pending event; `None` when no
    /// class has one.
    pub(crate) fn pop(&mut self) -> Option<(Instant, SessionEvent)> {
        let (at, _seq, slot) = self.head()?;
        self.slots[slot] = None;
        // FIFO tie-break stability: pops must strictly ascend in
        // `(at, seq)` — equal-time events leave in schedule order.
        #[cfg(feature = "debug-invariants")]
        {
            if let Some(last) = self.last_popped {
                debug_assert!(
                    (at, _seq) > last,
                    "pop order regressed: {:?} after {last:?}",
                    (at, _seq)
                );
            }
            self.last_popped = Some((at, _seq));
        }
        self.now = at;
        Some((at, SessionEvent::ALL[slot]))
    }

    /// Number of seqs handed out so far: every schedule ever made, whether
    /// its event is still pending, popped or overwritten.
    #[cfg(test)]
    pub(crate) fn issued(&self) -> u64 {
        self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_event::time::Duration;
    use proptest::prelude::*;

    #[test]
    fn slots_follow_declaration_order() {
        for (i, ev) in SessionEvent::ALL.into_iter().enumerate() {
            assert_eq!(ev.slot(), i);
        }
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_before_the_last_pop_panics() {
        let mut clock = Clock::default();
        clock.schedule(Instant::from_micros(10), SessionEvent::BufferRefill);
        assert_eq!(clock.pop().map(|(t, _)| t), Some(Instant::from_micros(10)));
        clock.schedule(Instant::from_micros(9), SessionEvent::SeekDue);
    }

    #[test]
    fn equal_times_pop_in_schedule_order() {
        let mut clock = Clock::default();
        let t = Instant::from_micros(5);
        clock.schedule(t, SessionEvent::SeekDue);
        clock.schedule(t, SessionEvent::TransferComplete);
        clock.schedule(t, SessionEvent::BufferRefill);
        let order: Vec<SessionEvent> =
            std::iter::from_fn(|| clock.pop().map(|(_, ev)| ev)).collect();
        assert_eq!(
            order,
            [
                SessionEvent::SeekDue,
                SessionEvent::TransferComplete,
                SessionEvent::BufferRefill
            ]
        );
        assert_eq!(clock.pop(), None, "every slot is empty after the pops");
    }

    #[test]
    fn rescheduling_a_class_replaces_its_pending_event() {
        let mut clock = Clock::default();
        clock.schedule(Instant::from_micros(3), SessionEvent::PlaybackBoundary);
        clock.schedule(Instant::from_micros(8), SessionEvent::PlaybackBoundary);
        assert_eq!(clock.next_time(), Some(Instant::from_micros(8)));
        assert_eq!(
            clock.pop(),
            Some((Instant::from_micros(8), SessionEvent::PlaybackBoundary))
        );
        assert_eq!(clock.pop(), None, "the replaced event left no tombstone");
    }

    #[test]
    fn rearm_at_an_unchanged_time_keeps_the_pending_event() {
        let mut clock = Clock::default();
        let t = Instant::from_micros(4);
        clock.rearm(SessionEvent::BufferRefill, Some(t));
        assert_eq!(clock.issued(), 1);
        clock.rearm(SessionEvent::BufferRefill, Some(t));
        assert_eq!(clock.issued(), 1, "an unchanged wake is not re-scheduled");
        clock.rearm(SessionEvent::BufferRefill, Some(Instant::from_micros(6)));
        assert_eq!(clock.issued(), 2, "a moved wake is");
        assert_eq!(clock.next_time(), Some(Instant::from_micros(6)));
    }

    #[test]
    fn rearm_to_none_clears_the_slot() {
        let mut clock = Clock::default();
        clock.schedule(Instant::from_micros(20), SessionEvent::Deadline);
        clock.rearm(SessionEvent::SeekDue, Some(Instant::from_micros(2)));
        clock.rearm(SessionEvent::SeekDue, None);
        assert_eq!(clock.next_time(), Some(Instant::from_micros(20)));
        assert_eq!(
            clock.pop(),
            Some((Instant::from_micros(20), SessionEvent::Deadline))
        );
    }

    #[test]
    fn a_refresh_tick_newer_than_a_wake_still_pops_first() {
        let mut clock = Clock::default();
        let t = Instant::from_micros(7);
        clock.schedule(t, SessionEvent::TransferComplete);
        clock.schedule(t, SessionEvent::PlaylistRefresh);
        // The wake is older than the tick, so re-arming it at the same
        // instant schedules it afresh, behind the tick.
        clock.rearm(SessionEvent::TransferComplete, Some(t));
        assert_eq!(clock.pop(), Some((t, SessionEvent::PlaylistRefresh)));
        assert_eq!(clock.pop(), Some((t, SessionEvent::TransferComplete)));
    }

    #[test]
    fn span_names_are_distinct_dispatch_spans() {
        let names: Vec<&str> = SessionEvent::ALL.iter().map(|ev| ev.span_name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(names.iter().all(|n| n.starts_with("dispatch.")));
    }

    /// The four re-armable wake classes.
    const WAKES: [SessionEvent; 4] = [
        SessionEvent::TransferComplete,
        SessionEvent::PlaybackBoundary,
        SessionEvent::BufferRefill,
        SessionEvent::SeekDue,
    ];

    /// A linear-scan reference: every schedule ever made as
    /// `(at, seq, class, live)`, the pending entry of a class being its
    /// one live row.
    #[derive(Default)]
    struct Model {
        rows: Vec<(Instant, u64, SessionEvent, bool)>,
    }

    impl Model {
        fn live(&self, ev: SessionEvent) -> Option<usize> {
            self.rows.iter().position(|r| r.3 && r.2 == ev)
        }

        fn clear(&mut self, ev: SessionEvent) {
            if let Some(i) = self.live(ev) {
                self.rows[i].3 = false;
            }
        }

        fn schedule(&mut self, at: Instant, ev: SessionEvent) {
            self.clear(ev);
            self.rows.push((at, self.rows.len() as u64, ev, true));
        }

        /// The re-arm rule, stated over rows: keep a live row whose time
        /// is unchanged and whose seq beats the latest refresh tick's.
        fn rearm(&mut self, ev: SessionEvent, at: Option<Instant>) {
            let tick = self
                .rows
                .iter()
                .rev()
                .find(|r| r.2 == SessionEvent::PlaylistRefresh)
                .map(|r| r.1);
            if let (Some(i), Some(t)) = (self.live(ev), at) {
                if self.rows[i].0 == t && tick.is_none_or(|tick| self.rows[i].1 > tick) {
                    return;
                }
            }
            match at {
                Some(t) => self.schedule(t, ev),
                None => self.clear(ev),
            }
        }

        fn head(&self) -> Option<usize> {
            (0..self.rows.len())
                .filter(|&i| self.rows[i].3)
                .min_by_key(|&i| (self.rows[i].0, self.rows[i].1))
        }

        fn pop(&mut self) -> Option<(Instant, SessionEvent)> {
            let i = self.head()?;
            self.rows[i].3 = false;
            Some((self.rows[i].0, self.rows[i].2))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random re-arms, overwrites, clears and pops drive the clock and
        /// the linear-scan model in lockstep, the way the engine does: a
        /// deadline sentinel first, an optional refresh tick re-scheduled
        /// whenever it pops, and times drawn from a few microseconds so
        /// ticks, wakes and the deadline tie often.
        #[test]
        fn clock_matches_linear_scan_model(
            deadline in 0u64..40,
            period in 0u64..6,
            ops in proptest::collection::vec((0u8..6, 0usize..4, 0u64..8), 1..200),
        ) {
            let mut clock = Clock::default();
            let mut model = Model::default();
            let mut now = Instant::ZERO;
            let deadline = Instant::from_micros(deadline);
            clock.schedule(deadline, SessionEvent::Deadline);
            model.schedule(deadline, SessionEvent::Deadline);
            // A zero period means no refresh ticks.
            let period = (period > 0).then(|| Duration::from_micros(period));
            if let Some(p) = period {
                clock.schedule(now + p, SessionEvent::PlaylistRefresh);
                model.schedule(now + p, SessionEvent::PlaylistRefresh);
            }
            for &(op, class, delta) in &ops {
                let ev = WAKES[class];
                let at = now + Duration::from_micros(delta);
                match op {
                    0 | 1 => {
                        clock.rearm(ev, Some(at));
                        model.rearm(ev, Some(at));
                    }
                    2 => {
                        clock.rearm(ev, None);
                        model.rearm(ev, None);
                    }
                    3 => {
                        clock.schedule(at, ev);
                        model.schedule(at, ev);
                    }
                    _ => {
                        let popped = clock.pop();
                        prop_assert_eq!(popped, model.pop());
                        let Some((t, ev)) = popped else { break };
                        now = t;
                        match ev {
                            SessionEvent::Deadline => break,
                            SessionEvent::PlaylistRefresh => {
                                let next = t + period.expect("ticks only with a period");
                                clock.schedule(next, ev);
                                model.schedule(next, ev);
                            }
                            _ => {}
                        }
                    }
                }
                prop_assert_eq!(clock.next_time(), model.head().map(|i| model.rows[i].0));
                prop_assert_eq!(clock.issued(), model.rows.len() as u64);
            }
        }
    }
}
