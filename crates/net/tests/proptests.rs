//! Property-based tests: conservation and consistency of the fluid link,
//! and hostile edits of trace text.

#[path = "../../manifest/tests/support/mutate.rs"]
mod mutate;

use abr_event::time::{Duration, Instant};
use abr_media::units::{BitsPerSec, Bytes};
use abr_net::link::Link;
use abr_net::packet::{PacketLink, DEFAULT_MTU};
use abr_net::profile::{DeliveryProfile, Segment};
use abr_net::trace::Trace;
use abr_net::UplinkQueue;
use mutate::mutate;
use proptest::prelude::*;

/// An arbitrary piecewise-constant trace (rates may include zero).
fn arb_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec((1u64..30, 0u64..5_000), 1..12).prop_map(|steps| {
        let steps: Vec<(Duration, BitsPerSec)> = steps
            .into_iter()
            .map(|(secs, kbps)| (Duration::from_secs(secs), BitsPerSec::from_kbps(kbps)))
            .collect();
        // Guarantee completion is possible: end on a nonzero rate.
        let mut steps = steps;
        steps.push((Duration::from_secs(5), BitsPerSec::from_kbps(1_000)));
        Trace::steps(&steps)
    })
}

proptest! {
    /// Delivered bytes never exceed the capacity integral, and every flow's
    /// recorded profile total matches its size within per-segment rounding.
    #[test]
    fn conservation(
        trace in arb_trace(),
        sizes in proptest::collection::vec(1u64..2_000_000, 1..8),
        stagger_ms in proptest::collection::vec(0u64..10_000, 1..8),
    ) {
        let mut link = Link::new(trace.clone());
        let mut opened = Vec::new();
        let mut t = Instant::ZERO;
        for (size, delay) in sizes.iter().zip(stagger_ms.iter().cycle()) {
            t += Duration::from_millis(*delay);
            // advance_to processes deliveries up to the open instant.
            let done = link.advance_to(t);
            opened.extend(done);
            let _ = link.open_flow(Bytes(*size));
        }
        let end = t + Duration::from_secs(3_600 * 24);
        opened.extend(link.advance_to(end));
        prop_assert_eq!(opened.len(), sizes.len(), "everything completes on a live tail");

        let mut total_sizes: u64 = 0;
        for c in &opened {
            let segs = c.profile.segments().len() as i64;
            let recorded = c.profile.total_bytes().get() as i64;
            prop_assert!(
                (recorded - c.size.get() as i64).abs() <= segs,
                "profile total {} vs size {} ({} segments)", recorded, c.size.get(), segs
            );
            total_sizes += c.size.get();
            // No delivery outside [opened_at, completed_at].
            prop_assert!(c.profile.start().unwrap() >= c.opened_at);
            prop_assert!(c.profile.end().unwrap() == c.at);
        }
        // Aggregate conservation: bytes ≤ capacity integral over the run.
        let horizon = opened.iter().map(|c| c.at).max().unwrap();
        let cap_bits: u128 = {
            let mean = trace.mean_over(Instant::ZERO, horizon);
            mean.bps() as u128 * (horizon - Instant::ZERO).as_micros() as u128 / 1_000_000
        };
        prop_assert!(
            (total_sizes as u128) * 8 <= cap_bits + 8 * sizes.len() as u128 + 1_000_000,
            "{} bytes delivered vs {} bit capacity", total_sizes, cap_bits
        );
    }

    /// `next_completion` exactly predicts the first completion that
    /// `advance_to` then produces.
    #[test]
    fn prediction_matches_execution(
        trace in arb_trace(),
        sizes in proptest::collection::vec(1u64..1_000_000, 1..6),
    ) {
        let mut link = Link::new(trace);
        for size in &sizes {
            let _ = link.open_flow(Bytes(*size));
        }
        let mut remaining = sizes.len();
        while remaining > 0 {
            let predicted = link.next_completion().expect("live tail guarantees completion");
            let done = link.advance_to(predicted);
            prop_assert!(!done.is_empty(), "a completion must land at the predicted instant");
            for c in &done {
                prop_assert_eq!(c.at, predicted);
            }
            remaining -= done.len();
        }
        prop_assert_eq!(link.pending_count(), 0);
    }

    /// Advancing in arbitrary small steps produces identical completions to
    /// one big advance (the solver is step-size independent).
    #[test]
    fn step_size_independence(
        trace in arb_trace(),
        sizes in proptest::collection::vec(1u64..500_000, 1..5),
        steps_ms in proptest::collection::vec(1u64..4_000, 1..40),
    ) {
        let mut big = Link::new(trace.clone());
        let mut small = Link::new(trace);
        for size in &sizes {
            let _ = big.open_flow(Bytes(*size));
            let _ = small.open_flow(Bytes(*size));
        }
        let horizon = Instant::from_secs(3_600);
        let big_done = big.advance_to(horizon);

        let mut small_done = Vec::new();
        let mut t = Instant::ZERO;
        for ms in steps_ms.iter().cycle() {
            t += Duration::from_millis(*ms);
            if t >= horizon {
                break;
            }
            small_done.extend(small.advance_to(t));
        }
        small_done.extend(small.advance_to(horizon));

        prop_assert_eq!(big_done.len(), small_done.len());
        for (a, b) in big_done.iter().zip(small_done.iter()) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.at, b.at);
        }
    }

    /// The packet-granularity link's completion times agree with the fluid
    /// model to within a few packet service times — for arbitrary traces
    /// and flow sets (the fluid model's validation property).
    #[test]
    fn fluid_matches_packet_granularity(
        trace in arb_trace(),
        sizes in proptest::collection::vec(10_000u64..800_000, 1..4),
    ) {
        let mut fluid = Link::new(trace.clone());
        let mut packet = PacketLink::new(trace.clone());
        for size in &sizes {
            let _ = fluid.open_flow(Bytes(*size));
            let _ = packet.open_flow(Bytes(*size));
        }
        let horizon = Instant::from_secs(3_600 * 24);
        let f = fluid.advance_to(horizon);
        let p = packet.advance_to(horizon);
        prop_assert_eq!(f.len(), sizes.len());
        prop_assert_eq!(p.len(), sizes.len());
        // Error bound: each completion may shift by one packet service
        // time per active peer per changepoint crossed; bound generously
        // by (flows + changepoints + 2) packets at the slowest nonzero
        // rate the trace uses.
        let slowest = trace
            .points()
            .iter()
            .map(|(_, r)| r.bps())
            .filter(|&b| b > 0)
            .min()
            .expect("live tail");
        let pkt = Duration::from_micros(
            abr_media::units::BitsPerSec(slowest).micros_for_bytes(DEFAULT_MTU).expect("nonzero"),
        );
        let budget_pkts = (sizes.len() + trace.points().len() + 2) as u64;
        let mut f_sorted = f;
        f_sorted.sort_by_key(|c| c.id);
        let mut p_sorted = p;
        p_sorted.sort_by_key(|c| c.id);
        for (fc, pc) in f_sorted.iter().zip(p_sorted.iter()) {
            prop_assert_eq!(fc.id, pc.id);
            let delta = fc.at.saturating_duration_since(pc.at)
                + pc.at.saturating_duration_since(fc.at);
            prop_assert!(
                delta <= pkt * budget_pkts,
                "flow {:?}: fluid {} vs packet {} (budget {} pkts of {})",
                fc.id, fc.at, pc.at, budget_pkts, pkt
            );
        }
    }

    /// Shared-uplink byte conservation: for any FIFO arrival sequence at a
    /// fixed rate, the bits delivered never exceed the rate integrated over
    /// the busy time granted — and ceil rounding overshoots by less than
    /// one microsecond-tick per transfer, so the bound is tight both ways.
    /// Completions are FIFO (non-decreasing finish instants).
    #[test]
    fn uplink_byte_conservation(
        rate_kbps in 1u64..100_000,
        arrivals in proptest::collection::vec((0u64..5_000, 1u64..5_000_000), 1..40),
    ) {
        let mut uplink = UplinkQueue::new(rate_kbps);
        let mut t = Instant::ZERO;
        let mut prev_finish = Instant::ZERO;
        for (gap_ms, bytes) in &arrivals {
            t += Duration::from_millis(*gap_ms);
            let delay = uplink.enqueue(t, *bytes);
            let finish = t + delay;
            prop_assert!(finish >= prev_finish, "FIFO finish order violated");
            prev_finish = finish;
        }
        let s = uplink.stats();
        prop_assert_eq!(s.transfers, arrivals.len() as u64);
        let bits = u128::from(s.bytes) * 8_000;
        let capacity = u128::from(s.busy_us) * u128::from(rate_kbps);
        prop_assert!(
            bits <= capacity,
            "delivered {} bit-units exceed capacity x busy time {}", bits, capacity
        );
        prop_assert!(
            capacity < bits + u128::from(s.transfers) * u128::from(rate_kbps),
            "busy time granted more than one rounding tick per transfer"
        );
        prop_assert!(uplink.busy_until() >= t, "busy horizon behind last arrival's finish");
    }

    /// The conservation sandwich holds per transfer even while the
    /// window-sync throttle retunes the rate between arrivals.
    #[test]
    fn uplink_conservation_under_rate_changes(
        arrivals in proptest::collection::vec(
            (0u64..2_000, 1u64..2_000_000, 1u64..50_000), 1..40),
    ) {
        let mut uplink = UplinkQueue::new(1_000);
        let mut t = Instant::ZERO;
        for (gap_ms, bytes, rate_kbps) in &arrivals {
            uplink.set_rate_kbps(*rate_kbps);
            t += Duration::from_millis(*gap_ms);
            let before = uplink.stats().busy_us;
            uplink.enqueue(t, *bytes);
            let granted = u128::from(uplink.stats().busy_us - before) * u128::from(*rate_kbps);
            let bits = u128::from(*bytes) * 8_000;
            prop_assert!(granted >= bits, "busy time does not cover the bytes");
            prop_assert!(
                granted < bits + u128::from(*rate_kbps),
                "serialization over-rounded at {} Kbps", rate_kbps
            );
        }
    }

    /// Trace text serialization round-trips arbitrary step schedules.
    #[test]
    fn trace_text_roundtrip(steps in proptest::collection::vec((1u64..1000, 0u64..100_000), 1..30)) {
        let steps: Vec<(Duration, BitsPerSec)> = steps
            .into_iter()
            .map(|(s, k)| (Duration::from_secs(s), BitsPerSec::from_kbps(k)))
            .collect();
        let trace = Trace::steps(&steps);
        let back = Trace::parse(&trace.to_text()).unwrap();
        prop_assert_eq!(trace, back);
    }

    /// The one-pass window sweep equals `bytes_between` over each window
    /// on profiles with gaps, rate changes and segments shorter than a
    /// window; it yields exactly the complete windows.
    #[test]
    fn windows_match_bytes_between(
        start_us in 0u64..1_000_000,
        spans in proptest::collection::vec((0u64..3, 0u64..400_000, 1u64..600_000, 0u64..5_000), 1..20),
        width_us in 1_000u64..400_000,
    ) {
        let mut profile = DeliveryProfile::new();
        let mut t = Instant::from_micros(start_us);
        for &(gap_kind, gap_us, len_us, kbps) in &spans {
            // One span in three follows a gap; the others are contiguous.
            if gap_kind == 0 {
                t += Duration::from_micros(gap_us);
            }
            let end = t + Duration::from_micros(len_us);
            profile.push(Segment { start: t, end, rate: BitsPerSec::from_kbps(kbps) });
            t = end;
        }
        let width = Duration::from_micros(width_us);
        let (first, last) = (profile.start().unwrap(), profile.end().unwrap());
        let mut expect = Vec::new();
        let mut w = first;
        while w + width <= last {
            expect.push((w, profile.bytes_between(w, w + width)));
            w += width;
        }
        let got: Vec<(Instant, Bytes)> = profile.windows(width).collect();
        prop_assert_eq!(got, expect);
    }

    /// Hostile edits of a well-formed trace file — truncation, byte flips,
    /// duplicated or dropped lines, hostile numbers, stray quotes and
    /// commas — make `Trace::parse` answer with an error or a trace, never
    /// a panic, and a parsed trace answers rate queries.
    #[test]
    fn hostile_trace_text_never_panics(
        trace in arb_trace(),
        edits in proptest::collection::vec((0u8..6, any::<usize>()), 1..4),
    ) {
        let text = edits
            .iter()
            .fold(trace.to_text(), |t, &(kind, pick)| mutate(&t, kind, pick));
        if let Ok(parsed) = Trace::parse(&text) {
            let _ = parsed.rate_at(Instant::ZERO);
            let _ = parsed.next_change_after(Instant::ZERO);
            let _ = parsed.mean_over(Instant::ZERO, Instant::from_secs(1));
            let _ = Trace::parse(&parsed.to_text());
        }
    }
}
