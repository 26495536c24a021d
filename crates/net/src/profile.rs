//! Per-flow delivery records.
//!
//! The fluid link appends a [`Segment`] to a flow's [`DeliveryProfile`]
//! every time the flow's share changes (trace changepoint, another flow
//! joining/leaving) and when the flow completes. Bandwidth estimators read
//! these profiles instead of raw packet timings:
//!
//! * ExoPlayer-style estimators use whole-transfer `total_bytes` /
//!   `transfer_duration`;
//! * Shaka-style estimators iterate fixed δ windows via [`DeliveryProfile::
//!   windows`] and apply the ≥ 16 KB validity filter per window.

use abr_event::time::{Duration, Instant};
use abr_media::units::{BitsPerSec, Bytes};

/// A span of constant delivery rate for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Span start.
    pub start: Instant,
    /// Span end (exclusive).
    pub end: Instant,
    /// Delivery rate over the span.
    pub rate: BitsPerSec,
}

impl Segment {
    /// Bytes delivered in the overlap of this segment with `[t0, t1)`.
    pub fn bytes_between(&self, t0: Instant, t1: Instant) -> Bytes {
        let lo = self.start.max(t0);
        let hi = self.end.min(t1);
        if lo >= hi {
            return Bytes::ZERO;
        }
        self.rate.bytes_in_micros((hi - lo).as_micros())
    }
}

/// The complete delivery history of one flow.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliveryProfile {
    segments: Vec<Segment>,
}

impl DeliveryProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty profile with room for `segments` spans before the first
    /// reallocation. The link pre-sizes every flow's profile with this so
    /// the common case (a handful of share changes per transfer) never
    /// grows mid-delivery.
    pub fn with_capacity(segments: usize) -> Self {
        DeliveryProfile {
            segments: Vec::with_capacity(segments),
        }
    }

    /// Appends a span. Panics if it overlaps or precedes the previous span
    /// (gaps are allowed: they represent stalled delivery, e.g. request
    /// latency or a zero-capacity trace segment).
    pub fn push(&mut self, seg: Segment) {
        assert!(seg.start < seg.end, "empty or inverted segment");
        if let Some(last) = self.segments.last() {
            assert!(seg.start >= last.end, "segments must not overlap");
        }
        // Merge with the previous span when contiguous at the same rate, so
        // profiles stay compact across no-op boundaries.
        if let Some(last) = self.segments.last_mut() {
            if last.end == seg.start && last.rate == seg.rate {
                last.end = seg.end;
                return;
            }
        }
        self.segments.push(seg);
    }

    /// Drops every span, keeping the allocation (profile recycling).
    pub(crate) fn clear(&mut self) {
        self.segments.clear();
    }

    /// The recorded spans.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// True if nothing has been delivered yet.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// First instant bytes flowed, if any.
    pub fn start(&self) -> Option<Instant> {
        self.segments.first().map(|s| s.start)
    }

    /// Last instant bytes flowed, if any.
    pub fn end(&self) -> Option<Instant> {
        self.segments.last().map(|s| s.end)
    }

    /// Total bytes delivered.
    pub fn total_bytes(&self) -> Bytes {
        self.segments
            .iter()
            .map(|s| s.rate.bytes_in_micros((s.end - s.start).as_micros()))
            .sum()
    }

    /// Wall-clock span from first to last byte (including internal gaps) —
    /// what a whole-transfer throughput estimator divides by.
    pub fn transfer_duration(&self) -> Duration {
        match (self.start(), self.end()) {
            (Some(s), Some(e)) => e - s,
            _ => Duration::ZERO,
        }
    }

    /// Mean throughput over the transfer duration; `None` if empty or
    /// instantaneous.
    pub fn mean_throughput(&self) -> Option<BitsPerSec> {
        let d = self.transfer_duration();
        if d.is_zero() {
            return None;
        }
        Some(self.total_bytes().rate_over_micros(d.as_micros()))
    }

    /// Bytes delivered within `[t0, t1)`.
    pub fn bytes_between(&self, t0: Instant, t1: Instant) -> Bytes {
        self.segments.iter().map(|s| s.bytes_between(t0, t1)).sum()
    }

    /// Splits the transfer into consecutive `width` windows starting at the
    /// first delivered byte and yields `(window_start, bytes_in_window)`
    /// for each *complete* window. A trailing partial window is dropped —
    /// matching Shaka, which only scores full sampling intervals.
    ///
    /// Each window's bytes equal `bytes_between(t, t + width)`: the same
    /// per-segment overlaps summed in segment order. One forward sweep
    /// finds them, skipping the segments that end before the window, so
    /// the cost is O(windows + segments), not their product.
    pub fn windows(&self, width: Duration) -> impl Iterator<Item = (Instant, Bytes)> + '_ {
        assert!(!width.is_zero(), "zero window");
        // An empty profile yields nothing: `ZERO + width > ZERO`.
        let start = self.start().unwrap_or(Instant::ZERO);
        let end = self.end().unwrap_or(Instant::ZERO);
        // The first segment that ends after the current window's start.
        let mut first = 0;
        std::iter::successors(Some(start), move |&t| Some(t + width))
            .take_while(move |&t| t + width <= end)
            .map(move |t| {
                let t1 = t + width;
                while self.segments[first].end <= t {
                    first += 1;
                }
                let bytes = self.segments[first..]
                    .iter()
                    .take_while(|s| s.start < t1)
                    .map(|s| s.bytes_between(t, t1))
                    .sum();
                (t, bytes)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(s: u64, e: u64, kbps: u64) -> Segment {
        Segment {
            start: Instant::from_secs(s),
            end: Instant::from_secs(e),
            rate: BitsPerSec::from_kbps(kbps),
        }
    }

    #[test]
    fn push_and_totals() {
        let mut p = DeliveryProfile::new();
        p.push(seg(0, 2, 800)); // 200 KB
        p.push(seg(2, 4, 400)); // 100 KB
        assert_eq!(p.total_bytes(), Bytes(300_000));
        assert_eq!(p.transfer_duration(), Duration::from_secs(4));
        assert_eq!(p.mean_throughput(), Some(BitsPerSec::from_kbps(600)));
    }

    #[test]
    fn contiguous_same_rate_merges() {
        let mut p = DeliveryProfile::new();
        p.push(seg(0, 1, 500));
        p.push(seg(1, 2, 500));
        assert_eq!(p.segments().len(), 1);
        assert_eq!(p.end(), Some(Instant::from_secs(2)));
    }

    #[test]
    fn gaps_are_allowed_and_counted_in_duration() {
        let mut p = DeliveryProfile::new();
        p.push(seg(0, 1, 800)); // 100 KB
        p.push(seg(3, 4, 800)); // 100 KB after a 2 s gap
        assert_eq!(p.total_bytes(), Bytes(200_000));
        assert_eq!(p.transfer_duration(), Duration::from_secs(4));
        // Mean over 4 s wall clock = 400 Kbps.
        assert_eq!(p.mean_throughput(), Some(BitsPerSec::from_kbps(400)));
        // No bytes inside the gap.
        assert_eq!(
            p.bytes_between(Instant::from_secs(1), Instant::from_secs(3)),
            Bytes::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_push_panics() {
        let mut p = DeliveryProfile::new();
        p.push(seg(0, 2, 100));
        p.push(seg(1, 3, 100));
    }

    #[test]
    fn bytes_between_partial_overlap() {
        let mut p = DeliveryProfile::new();
        p.push(seg(0, 10, 800)); // 100 KB/s
        assert_eq!(
            p.bytes_between(Instant::from_secs(2), Instant::from_secs(5)),
            Bytes(300_000)
        );
        // Window entirely outside.
        assert_eq!(
            p.bytes_between(Instant::from_secs(10), Instant::from_secs(12)),
            Bytes::ZERO
        );
    }

    #[test]
    fn windows_shaka_boundary_case() {
        // 1 Mbps for 1 s: each 125 ms window carries 15625 B — one byte
        // short of Shaka's 16 KiB filter (Fig 4a's root cause).
        let mut p = DeliveryProfile::new();
        p.push(Segment {
            start: Instant::ZERO,
            end: Instant::from_secs(1),
            rate: BitsPerSec::from_kbps(1000),
        });
        let w: Vec<_> = p.windows(Duration::from_millis(125)).collect();
        assert_eq!(w.len(), 8);
        for (_, bytes) in &w {
            assert_eq!(*bytes, Bytes(15_625));
            assert!(*bytes < Bytes::from_kib(16));
        }
    }

    #[test]
    fn windows_drop_trailing_partial() {
        let mut p = DeliveryProfile::new();
        p.push(Segment {
            start: Instant::ZERO,
            end: Instant::from_millis(300),
            rate: BitsPerSec::from_kbps(1000),
        });
        // 300 ms / 125 ms → 2 complete windows.
        assert_eq!(p.windows(Duration::from_millis(125)).count(), 2);
    }

    #[test]
    fn windows_span_rate_changes() {
        let mut p = DeliveryProfile::new();
        p.push(Segment {
            start: Instant::ZERO,
            end: Instant::from_millis(100),
            rate: BitsPerSec::from_kbps(2000),
        });
        p.push(Segment {
            start: Instant::from_millis(100),
            end: Instant::from_millis(250),
            rate: BitsPerSec::from_kbps(1000),
        });
        let w: Vec<_> = p.windows(Duration::from_millis(125)).collect();
        // Window 0: 100 ms @ 2 Mbps (25000 B) + 25 ms @ 1 Mbps (3125 B).
        assert_eq!(w[0].1, Bytes(28_125));
        // Window 1: 125 ms @ 1 Mbps.
        assert_eq!(w[1].1, Bytes(15_625));
    }

    #[test]
    fn empty_profile_queries() {
        let p = DeliveryProfile::new();
        assert!(p.is_empty());
        assert_eq!(p.total_bytes(), Bytes::ZERO);
        assert_eq!(p.mean_throughput(), None);
        assert_eq!(p.windows(Duration::from_millis(125)).count(), 0);
    }
}
