//! Differential coverage for the optimized `Link` hot path.
//!
//! `legacy` below is a verbatim copy of the pre-optimization fluid-link
//! solver (the simple re-simulate-from-scratch implementation, with the
//! observability calls stripped). The property tests drive both solvers
//! through identical schedules of flow arrivals and rate traces, and
//! require field-by-field equality of every `Completion` — id, instant,
//! size, open time and the full `DeliveryProfile` — plus matching
//! `next_completion` predictions at every step. Schedules include bursts
//! of flows sharing one activation instant. A third link
//! runs the engine's allocation-free path: `advance_into` a reused,
//! non-empty buffer, with every completion's profile recycled.

use abr_event::time::{Duration, Instant};
use abr_media::units::{BitsPerSec, Bytes};
use abr_net::link::{Completion, FlowId, Link};
use abr_net::profile::DeliveryProfile;
use abr_net::trace::Trace;
use proptest::prelude::*;

/// The fluid link exactly as it shipped before the allocation-free
/// rewrite: fresh `Vec`s per call, binary-search trace lookups, full
/// re-simulation in `next_completion`.
mod legacy {
    use abr_event::time::{Duration, Instant};
    use abr_media::units::{BitsPerSec, Bytes};
    use abr_net::link::FlowId;
    use abr_net::profile::{DeliveryProfile, Segment};
    use abr_net::trace::Trace;
    use std::collections::BTreeMap;

    const BITMICROS_PER_BYTE: u128 = 8 * 1_000_000;

    #[derive(Debug, Clone)]
    struct Flow {
        remaining_bm: u128,
        size: Bytes,
        opened_at: Instant,
        activate_at: Instant,
        profile: DeliveryProfile,
    }

    #[derive(Debug, Clone)]
    pub struct Completion {
        pub id: FlowId,
        pub at: Instant,
        pub size: Bytes,
        pub opened_at: Instant,
        pub profile: DeliveryProfile,
    }

    #[derive(Debug, Clone)]
    pub struct Link {
        trace: Trace,
        latency: Duration,
        now: Instant,
        flows: BTreeMap<FlowId, Flow>,
        next_id: u64,
    }

    impl Link {
        #[allow(dead_code)]
        pub fn new(trace: Trace) -> Self {
            Link::with_latency(trace, Duration::ZERO)
        }

        pub fn with_latency(trace: Trace, latency: Duration) -> Self {
            Link {
                trace,
                latency,
                now: Instant::ZERO,
                flows: BTreeMap::new(),
                next_id: 0,
            }
        }

        pub fn open_flow_after(&mut self, size: Bytes, extra: Duration) -> FlowId {
            assert!(size.get() > 0, "zero-byte flow");
            let id = FlowId(self.next_id);
            self.next_id += 1;
            self.flows.insert(
                id,
                Flow {
                    remaining_bm: size.get() as u128 * BITMICROS_PER_BYTE,
                    size,
                    opened_at: self.now,
                    activate_at: self.now + self.latency + extra,
                    profile: DeliveryProfile::new(),
                },
            );
            id
        }

        pub fn flow_remaining(&self, id: FlowId) -> Option<Bytes> {
            self.flows
                .get(&id)
                .map(|f| Bytes(f.remaining_bm.div_ceil(BITMICROS_PER_BYTE) as u64))
        }

        fn share_at(&self, t: Instant, n: usize) -> BitsPerSec {
            if n == 0 {
                return BitsPerSec::ZERO;
            }
            BitsPerSec(self.trace.rate_at(t).bps() / n as u64)
        }

        pub fn next_completion(&self) -> Option<Instant> {
            let mut flows: Vec<(u128, Instant)> = self
                .flows
                .values()
                .map(|f| (f.remaining_bm, f.activate_at))
                .collect();
            if flows.is_empty() {
                return None;
            }
            let mut t = self.now;
            loop {
                let active = flows.iter().filter(|(r, a)| *r > 0 && *a <= t).count();
                let share = self.share_at(t, active);
                let mut boundary: Option<Instant> = None;
                let mut fold = |c: Instant| {
                    boundary = Some(boundary.map_or(c, |b: Instant| b.min(c)));
                };
                for (r, a) in &flows {
                    if *r > 0 && *a > t {
                        fold(*a);
                    }
                }
                if let Some(c) = self.trace.next_change_after(t) {
                    fold(c);
                }
                if active > 0 && share.bps() > 0 {
                    let min_remaining = flows
                        .iter()
                        .filter(|(r, a)| *r > 0 && *a <= t)
                        .map(|(r, _)| *r)
                        .min()
                        .expect("active flows exist");
                    let done = t + Duration::from_micros(
                        min_remaining.div_ceil(share.bps() as u128) as u64,
                    );
                    if boundary.is_none_or(|b| done <= b) {
                        return Some(done);
                    }
                }
                let b = boundary?;
                if active > 0 && share.bps() > 0 {
                    let d = share.bps() as u128 * (b - t).as_micros() as u128;
                    for (r, a) in &mut flows {
                        if *r > 0 && *a <= t {
                            *r = r.saturating_sub(d);
                        }
                    }
                }
                t = b;
            }
        }

        pub fn advance_to(&mut self, t: Instant) -> Vec<Completion> {
            assert!(t >= self.now, "advance into the past: {t} < {}", self.now);
            let mut done = Vec::new();
            while self.now < t {
                let now = self.now;
                let active_ids: Vec<FlowId> = self
                    .flows
                    .iter()
                    .filter(|(_, f)| f.remaining_bm > 0 && f.activate_at <= now)
                    .map(|(id, _)| *id)
                    .collect();
                let share = self.share_at(now, active_ids.len());

                let mut boundary = t;
                for f in self.flows.values() {
                    if f.remaining_bm > 0 && f.activate_at > now {
                        boundary = boundary.min(f.activate_at);
                    }
                }
                if let Some(c) = self.trace.next_change_after(now) {
                    boundary = boundary.min(c);
                }
                if share.bps() > 0 {
                    for id in &active_ids {
                        let rem = self.flows[id].remaining_bm;
                        let fin =
                            now + Duration::from_micros(rem.div_ceil(share.bps() as u128) as u64);
                        boundary = boundary.min(fin);
                    }
                }

                if share.bps() > 0 && !active_ids.is_empty() && boundary > now {
                    let span = (boundary - now).as_micros() as u128;
                    for id in &active_ids {
                        let f = self.flows.get_mut(id).expect("active flow exists");
                        let delivered = share.bps() as u128 * span;
                        if delivered >= f.remaining_bm {
                            let fin = now
                                + Duration::from_micros(
                                    f.remaining_bm.div_ceil(share.bps() as u128) as u64,
                                );
                            debug_assert!(fin <= boundary);
                            f.profile.push(Segment {
                                start: now,
                                end: fin,
                                rate: share,
                            });
                            f.remaining_bm = 0;
                            let f = self.flows.remove(id).expect("present");
                            done.push(Completion {
                                id: *id,
                                at: fin,
                                size: f.size,
                                opened_at: f.opened_at,
                                profile: f.profile,
                            });
                        } else {
                            f.remaining_bm -= delivered;
                            f.profile.push(Segment {
                                start: now,
                                end: boundary,
                                rate: share,
                            });
                        }
                    }
                }
                self.now = boundary;
            }
            done.sort_by_key(|c| (c.at, c.id));
            done
        }
    }
}

/// An arbitrary piecewise-constant trace (rates may include zero), ending
/// on a nonzero rate so every flow eventually completes.
fn arb_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec((1u64..20, 0u64..4_000), 1..10).prop_map(|steps| {
        let mut steps: Vec<(Duration, BitsPerSec)> = steps
            .into_iter()
            .map(|(secs, kbps)| (Duration::from_secs(secs), BitsPerSec::from_kbps(kbps)))
            .collect();
        steps.push((Duration::from_secs(5), BitsPerSec::from_kbps(800)));
        Trace::steps(&steps)
    })
}

/// One scripted action against both links.
#[derive(Debug, Clone)]
enum Op {
    /// Advance both clocks by this many milliseconds.
    Advance(u64),
    /// Open this many flows of this size with this extra activation
    /// delay (ms); a burst of several activates at one instant.
    Open(usize, u64, u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..6, 1u64..1_500_000, 0u64..3_000, 0usize..3), 2..40).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(kind, size, ms, k)| match kind {
                    0 | 1 => Op::Advance(ms),
                    2 => Op::Open(2 + k, size, ms % 200),
                    _ => Op::Open(1, size, ms % 200),
                })
                .collect()
        },
    )
}

fn assert_completions_match(new: &[Completion], old: &[legacy::Completion]) {
    assert_eq!(new.len(), old.len(), "completion count diverged");
    for (n, o) in new.iter().zip(old.iter()) {
        assert_eq!(n.id, o.id, "flow id diverged");
        assert_eq!(n.at, o.at, "completion instant diverged for {:?}", n.id);
        assert_eq!(n.size, o.size, "size diverged for {:?}", n.id);
        assert_eq!(
            n.opened_at, o.opened_at,
            "opened_at diverged for {:?}",
            n.id
        );
        assert_eq!(
            n.profile.segments(),
            o.profile.segments(),
            "delivery profile diverged for {:?}",
            n.id
        );
    }
}

/// A completion the reused buffer carries ahead of every batch. Its
/// instant is far in the future, so sorting more than the appended part
/// would move it and fail the check.
fn sentinel() -> Completion {
    Completion {
        id: FlowId(u64::MAX),
        at: Instant::from_secs(u64::from(u32::MAX)),
        size: Bytes(1),
        opened_at: Instant::ZERO,
        profile: DeliveryProfile::new(),
    }
}

/// Advances `link` to `t` through `advance_into` on the reused buffer
/// `buf` (which holds only the sentinel on entry and exit), checks the
/// appended batch against the legacy solver's, and recycles every
/// completion's profile.
fn advance_reused(
    link: &mut Link,
    buf: &mut Vec<Completion>,
    t: Instant,
    old: &[legacy::Completion],
) {
    link.advance_into(t, buf);
    assert_eq!(buf[0].id, FlowId(u64::MAX), "buffer prefix must stay first");
    assert_eq!(buf[0].at, sentinel().at, "buffer prefix must be untouched");
    assert_completions_match(&buf[1..], old);
    for c in buf.drain(1..) {
        link.recycle_profile(c.profile);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary arrival/advance schedules over arbitrary traces
    /// produce identical completions, predictions and remaining-byte
    /// queries from the optimized and the legacy solver.
    #[test]
    fn optimized_link_matches_legacy(
        trace in arb_trace(),
        latency_ms in 0u64..100,
        ops in arb_ops(),
    ) {
        let latency = Duration::from_millis(latency_ms);
        let mut new = Link::with_latency(trace.clone(), latency);
        let mut reused = Link::with_latency(trace.clone(), latency);
        let mut old = legacy::Link::with_latency(trace, latency);
        let mut buf = vec![sentinel()];
        let mut t = Instant::ZERO;
        // Flows opened and not yet completed.
        let mut live: Vec<FlowId> = Vec::new();
        for op in &ops {
            match *op {
                Op::Advance(ms) => {
                    t += Duration::from_millis(ms);
                    prop_assert_eq!(new.next_completion(), old.next_completion());
                    prop_assert_eq!(reused.next_completion(), old.next_completion());
                    let dn = new.advance_to(t);
                    let dold = old.advance_to(t);
                    assert_completions_match(&dn, &dold);
                    advance_reused(&mut reused, &mut buf, t, &dold);
                    live.retain(|id| !dn.iter().any(|c| c.id == *id));
                }
                Op::Open(n, size, extra_ms) => {
                    let extra = Duration::from_millis(extra_ms);
                    for _ in 0..n {
                        let a = new.open_flow_after(Bytes(size), extra);
                        let b = old.open_flow_after(Bytes(size), extra);
                        prop_assert_eq!(a, b, "flow ids must stay in lockstep");
                        prop_assert_eq!(reused.open_flow_after(Bytes(size), extra), a);
                        live.push(a);
                    }
                }
            }
            for &id in &live {
                prop_assert_eq!(new.flow_remaining(id), old.flow_remaining(id));
                prop_assert_eq!(reused.flow_remaining(id), old.flow_remaining(id));
            }
        }
        // Drain: everything completes on the live tail, identically.
        prop_assert_eq!(new.next_completion(), old.next_completion());
        let horizon = t + Duration::from_secs(3_600 * 24);
        let dold = old.advance_to(horizon);
        assert_completions_match(&new.advance_to(horizon), &dold);
        advance_reused(&mut reused, &mut buf, horizon, &dold);
        prop_assert_eq!(new.pending_count(), 0);
        prop_assert_eq!(reused.pending_count(), 0);
    }

    /// `next_completion` lookahead never perturbs subsequent behaviour
    /// (the trace cursor must tolerate time regressions): interleaving
    /// many predictions between fine advances changes nothing.
    #[test]
    fn lookahead_is_pure(
        trace in arb_trace(),
        sizes in proptest::collection::vec(1u64..800_000, 1..6),
        steps_ms in proptest::collection::vec(1u64..2_500, 1..30),
    ) {
        let mut probed = Link::new(trace.clone());
        let mut plain = Link::new(trace);
        for size in &sizes {
            let _ = probed.open_flow(Bytes(*size));
            let _ = plain.open_flow(Bytes(*size));
        }
        let mut t = Instant::ZERO;
        let mut probed_done = Vec::new();
        let mut plain_done = Vec::new();
        for ms in steps_ms.iter().cycle().take(60) {
            t += Duration::from_millis(*ms);
            // Hammer the prediction path between steps on one link only.
            let _ = probed.next_completion();
            let _ = probed.next_completion();
            probed_done.extend(probed.advance_to(t));
            plain_done.extend(plain.advance_to(t));
        }
        let horizon = t + Duration::from_secs(3_600 * 24);
        probed_done.extend(probed.advance_to(horizon));
        plain_done.extend(plain.advance_to(horizon));
        prop_assert_eq!(probed_done.len(), plain_done.len());
        for (a, b) in probed_done.iter().zip(plain_done.iter()) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.at, b.at);
            prop_assert_eq!(a.profile.segments(), b.profile.segments());
        }
    }
}
