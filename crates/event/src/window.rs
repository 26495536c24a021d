//! Conservative time-window bookkeeping for sharded simulations.
//!
//! A fleet simulation shards its sessions into independently-clocked event
//! queues (one per link domain). Shards only exchange state at fixed window
//! boundaries: every shard drains its queue up to the boundary with
//! [`EventQueue::pop_before`](crate::queue::EventQueue::pop_before), all
//! shards rendezvous at a barrier, shared state (origin demand, cache
//! pressure) is folded **in a fixed shard order**, and the next window
//! begins. Because no event inside a window can observe another shard's
//! state until the barrier, the result is independent of how shards are
//! assigned to worker threads — the foundation of the fleet determinism
//! contract (DESIGN.md §14).
//!
//! [`WindowClock`] is the pure arithmetic half of that protocol: mapping
//! window indices to boundary instants and instants back to window indices,
//! in exact integer microseconds.

use crate::time::{Duration, Instant};

/// Maps between window indices and boundary instants for a fixed window
/// width. Window `k` covers the half-open interval
/// `[k * width, (k + 1) * width)`: an event stamped exactly on a boundary
/// belongs to the *later* window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowClock {
    width_us: u64,
}

impl WindowClock {
    /// Creates a clock with the given window width. Panics when the width
    /// is zero — a zero-width window would make every event a boundary
    /// event and the sync protocol vacuous.
    #[must_use]
    pub fn new(width: Duration) -> Self {
        assert!(width > Duration::ZERO, "window width must be positive");
        WindowClock {
            width_us: width.as_micros(),
        }
    }

    /// The configured window width.
    #[must_use]
    pub fn width(&self) -> Duration {
        Duration::from_micros(self.width_us)
    }

    /// The exclusive end boundary of window `idx`, i.e. `(idx + 1) * width`.
    /// Panics on `u64` overflow — a simulation never runs that long.
    #[must_use]
    pub fn end_of(&self, idx: u64) -> Instant {
        let end = idx
            .checked_add(1)
            .and_then(|n| n.checked_mul(self.width_us))
            .expect("window boundary overflows u64 microseconds");
        Instant::from_micros(end)
    }

    /// The window index containing instant `t`.
    #[must_use]
    pub fn window_of(&self, t: Instant) -> u64 {
        t.as_micros() / self.width_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_are_half_open() {
        let w = WindowClock::new(Duration::from_millis(250));
        assert_eq!(w.end_of(0), Instant::from_millis(250));
        assert_eq!(w.end_of(3), Instant::from_millis(1000));
        // An instant exactly on a boundary belongs to the later window.
        assert_eq!(w.window_of(Instant::from_millis(249)), 0);
        assert_eq!(w.window_of(Instant::from_millis(250)), 1);
        assert_eq!(w.window_of(Instant::ZERO), 0);
    }

    #[test]
    fn window_of_inverts_end_of() {
        let w = WindowClock::new(Duration::from_micros(7));
        for idx in [0u64, 1, 5, 1000] {
            // The boundary instant is the first microsecond of window idx+1.
            assert_eq!(w.window_of(w.end_of(idx)), idx + 1);
        }
    }

    #[test]
    #[should_panic(expected = "window width must be positive")]
    fn rejects_zero_width() {
        let _ = WindowClock::new(Duration::ZERO);
    }

    #[test]
    fn width_round_trips() {
        let w = WindowClock::new(Duration::from_micros(1_234));
        assert_eq!(w.width(), Duration::from_micros(1_234));
        assert_eq!(w.end_of(0), Instant::from_micros(1_234));
    }

    #[test]
    #[should_panic(expected = "overflows u64 microseconds")]
    fn end_of_panics_on_overflow() {
        let _ = WindowClock::new(Duration::from_secs(1)).end_of(u64::MAX / 2);
    }
}
