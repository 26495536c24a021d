//! Shared origin/CDN uplink: a FIFO store-and-forward queue.
//!
//! In the fleet topology (DESIGN.md §14) every session owns a private
//! access [`Link`](crate::link::Link), but cache misses within one link
//! domain all funnel through a single origin uplink. Unlike the fluid
//! access link, the uplink is modelled as a FIFO serialization queue: one
//! object transfers at a time at the configured rate, later arrivals wait
//! behind earlier ones. This is the standard first-order model for an
//! origin shield / CDN fill path, and it is exactly what makes cache
//! misses *load-dependent*: the more concurrent misses a domain produces,
//! the longer each miss's first-byte delay grows.
//!
//! All arithmetic is exact integer microseconds (`u128` intermediates), so
//! the uplink participates in the workspace bit-reproducibility contract.

use abr_event::time::{div_ceil_wide, Duration, Instant};

/// Microseconds-per-second times bits-per-byte over one kilobit — the
/// factor that converts `bytes / kbps` into microseconds: a transfer of
/// `b` bytes at `r` Kbps serializes in `b * 8000 / r` µs.
const US_PER_BYTE_KBPS: u128 = 8_000;

/// Aggregate counters for one uplink, reported per domain by `exp fleet`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UplinkStats {
    /// Total bytes serialized through the uplink.
    pub bytes: u64,
    /// Number of transfers enqueued.
    pub transfers: u64,
    /// Total busy (serialization) time granted, in microseconds.
    pub busy_us: u64,
    /// Largest single queueing + serialization delay observed.
    pub max_delay: Duration,
}

/// A FIFO store-and-forward queue in front of the origin.
///
/// [`UplinkQueue::enqueue`] is the only mutator on the data path: it
/// charges a transfer of `bytes` arriving at `at` and returns the delay
/// until its last byte clears the uplink. Arrival times must be
/// non-decreasing — the fleet driver pops domain events in time order, so
/// this holds by construction and is asserted.
#[derive(Debug, Clone)]
pub struct UplinkQueue {
    rate_kbps: u64,
    busy_until: Instant,
    last_arrival: Instant,
    stats: UplinkStats,
    /// Bytes enqueued since the last [`UplinkQueue::take_window_bytes`] —
    /// the per-window demand signal the fleet's window-sync rule folds at
    /// each barrier.
    window_bytes: u64,
}

impl UplinkQueue {
    /// Creates an idle uplink serving at `rate_kbps`. Panics when the rate
    /// is zero: a dead uplink would make every miss wait forever, which is
    /// a topology configuration error, not a simulation state.
    #[must_use]
    pub fn new(rate_kbps: u64) -> Self {
        assert!(rate_kbps > 0, "uplink rate must be positive");
        UplinkQueue {
            rate_kbps,
            busy_until: Instant::ZERO,
            last_arrival: Instant::ZERO,
            stats: UplinkStats::default(),
            window_bytes: 0,
        }
    }

    /// The current service rate in Kbps.
    #[must_use]
    pub fn rate_kbps(&self) -> u64 {
        self.rate_kbps
    }

    /// Adjusts the service rate (window-sync origin throttling). Rates are
    /// clamped to at least 1 Kbps so in-flight accounting stays finite.
    pub fn set_rate_kbps(&mut self, rate_kbps: u64) {
        self.rate_kbps = rate_kbps.max(1);
    }

    /// Enqueues a transfer of `bytes` arriving at `at` and returns the
    /// total delay (queueing + serialization) until its last byte clears
    /// the uplink.
    pub fn enqueue(&mut self, at: Instant, bytes: u64) -> Duration {
        assert!(
            at >= self.last_arrival,
            "uplink arrivals must be non-decreasing: {at} < {}",
            self.last_arrival
        );
        self.last_arrival = at;

        let ser_us_wide = div_ceil_wide(u128::from(bytes) * US_PER_BYTE_KBPS, self.rate_kbps);
        let ser_us = u64::try_from(ser_us_wide).expect("uplink serialization time overflows u64");
        let start = at.max(self.busy_until);
        let finish = start + Duration::from_micros(ser_us);
        self.busy_until = finish;

        let delay = finish.duration_since(at);
        self.stats.bytes += bytes;
        self.stats.transfers += 1;
        self.stats.busy_us += ser_us;
        self.stats.max_delay = self.stats.max_delay.max(delay);
        self.window_bytes += bytes;

        // Share conservation across sessions (DESIGN.md §12): the bits the
        // uplink has delivered can never exceed its capacity integrated
        // over the busy time it was granted — ceil rounding only ever
        // grants *more* time than the fluid ideal, never less.
        #[cfg(feature = "debug-invariants")]
        {
            debug_assert!(
                u128::from(ser_us) * u128::from(self.rate_kbps)
                    >= u128::from(bytes) * US_PER_BYTE_KBPS,
                "uplink served {bytes} bytes in {ser_us} us at {} Kbps",
                self.rate_kbps
            );
            debug_assert!(self.busy_until >= start, "uplink busy horizon regressed");
        }

        delay
    }

    /// The instant the uplink next falls idle.
    #[must_use]
    pub fn busy_until(&self) -> Instant {
        self.busy_until
    }

    /// Aggregate counters since construction.
    #[must_use]
    pub fn stats(&self) -> UplinkStats {
        self.stats
    }

    /// Returns the bytes enqueued since the previous call and resets the
    /// window counter — read by the fleet driver at each window barrier.
    pub fn take_window_bytes(&mut self) -> u64 {
        std::mem::take(&mut self.window_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_at_the_configured_rate() {
        let mut u = UplinkQueue::new(8_000); // 8 Mbps => 1000 bytes/ms
        let d = u.enqueue(Instant::ZERO, 1_000);
        assert_eq!(d, Duration::from_millis(1));
        assert_eq!(u.busy_until(), Instant::from_millis(1));
    }

    #[test]
    fn later_arrivals_queue_fifo() {
        let mut u = UplinkQueue::new(8_000);
        // Two back-to-back 1000-byte objects at t=0: the second waits a
        // full serialization time behind the first.
        assert_eq!(u.enqueue(Instant::ZERO, 1_000), Duration::from_millis(1));
        assert_eq!(u.enqueue(Instant::ZERO, 1_000), Duration::from_millis(2));
        // An arrival after the queue drains sees no queueing delay.
        assert_eq!(
            u.enqueue(Instant::from_millis(5), 1_000),
            Duration::from_millis(1)
        );
    }

    #[test]
    fn rounds_serialization_up() {
        let mut u = UplinkQueue::new(3); // 3 Kbps: 1 byte = 8000/3 us
        let d = u.enqueue(Instant::ZERO, 1);
        assert_eq!(d, Duration::from_micros(2_667));
        // Byte conservation: granted time * rate covers the bits.
        assert!(u128::from(d.as_micros()) * 3 >= 8_000);
    }

    #[test]
    fn rate_changes_apply_to_later_arrivals() {
        let mut u = UplinkQueue::new(8_000);
        assert_eq!(u.enqueue(Instant::ZERO, 1_000), Duration::from_millis(1));
        u.set_rate_kbps(4_000);
        // Half the rate, double the serialization time (plus the residual
        // busy period of the first transfer).
        assert_eq!(u.enqueue(Instant::ZERO, 1_000), Duration::from_millis(3));
    }

    #[test]
    fn window_bytes_reset_on_take() {
        let mut u = UplinkQueue::new(1_000);
        u.enqueue(Instant::ZERO, 10);
        u.enqueue(Instant::ZERO, 20);
        assert_eq!(u.take_window_bytes(), 30);
        assert_eq!(u.take_window_bytes(), 0);
        let s = u.stats();
        assert_eq!(s.bytes, 30);
        assert_eq!(s.transfers, 2);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_travel() {
        let mut u = UplinkQueue::new(1_000);
        u.enqueue(Instant::from_secs(2), 1);
        u.enqueue(Instant::from_secs(1), 1);
    }
}
