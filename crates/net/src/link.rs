//! The fluid bottleneck link.
//!
//! Concurrent flows (chunk downloads) share the link's instantaneous
//! capacity equally — processor sharing, the standard fluid approximation
//! of TCP fair share on a single bottleneck. This is the mechanism behind
//! two of the paper's findings:
//!
//! * Shaka's per-flow throughput sampling sees only *its own* share, so two
//!   concurrent audio+video downloads each measure ≈ half the link (Fig 4a);
//! * sequential chunk-synchronized downloading (ExoPlayer) measures the
//!   full link per transfer.
//!
//! Delivery is integrated exactly in integer microseconds across trace
//! changepoints, flow activations (request latency) and flow completions.
//! A flow's completion instant is computed with ceiling division — the
//! transfer finishes when its *last byte* lands.

use crate::profile::{DeliveryProfile, Segment};
use crate::trace::{Trace, TraceCursor};
use abr_event::time::{Duration, Instant};
use abr_media::units::{BitsPerSec, Bytes};
use abr_obs::{Event, ObsHandle};

/// Segment capacity every new flow's [`DeliveryProfile`] is pre-sized to:
/// most transfers see only a handful of share changes, so the common case
/// never reallocates mid-delivery.
const PROFILE_SEGMENT_HINT: usize = 4;

/// Identifies a flow on one link. Ids ascend in open order and are never
/// reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// Bit-microseconds per byte: tracking a flow's remaining work in
/// `bits × µs` keeps delivery integration exact across arbitrary segment
/// boundaries (no per-segment rounding), which makes completion instants
/// independent of how the caller steps the clock.
const BITMICROS_PER_BYTE: u128 = 8 * 1_000_000;

#[derive(Debug, Clone)]
struct Flow {
    id: FlowId,
    /// False while the flow awaits activation (request latency). A flow
    /// whose activation instant equals `now` may still be inactive until
    /// the next `advance_into`; it has drained nothing either way.
    active: bool,
    /// While inactive: the flow's total work in bit-microseconds
    /// (`bytes × 8 × 10⁶`). Once active: its *finish key* — the link's
    /// cumulative drain counter at activation plus the work, so that
    /// `remaining = work_bm - Link::drained` at any later instant. Every
    /// active flow drains at the same rate (equal share), which is what
    /// makes one global counter exact per flow.
    work_bm: u128,
    size: Bytes,
    opened_at: Instant,
    activate_at: Instant,
    profile: DeliveryProfile,
}

impl Flow {
    /// Remaining work in bit-microseconds, given the link's drain counter.
    fn remaining_bm(&self, drained: u128) -> u128 {
        if self.active {
            self.work_bm - drained
        } else {
            self.work_bm
        }
    }
}

/// A completed transfer, as reported by [`Link::advance_into`].
#[derive(Debug, Clone)]
pub struct Completion {
    /// Which flow finished.
    pub id: FlowId,
    /// Exact instant the last byte arrived.
    pub at: Instant,
    /// Requested transfer size.
    pub size: Bytes,
    /// Instant the request was opened (before request latency).
    pub opened_at: Instant,
    /// Full delivery history of the transfer.
    pub profile: DeliveryProfile,
}

/// A shared bottleneck link with a piecewise-constant capacity schedule.
///
/// The solver is allocation-free per event: the pending flows live in
/// one vector in ascending id order (a session has a handful in flight,
/// so the earliest finish key, the active count and the next activation
/// are short scans), a global drain counter stands in for per-flow
/// subtraction, and a monotone [`TraceCursor`] replaces the binary search
/// per rate lookup. Completions land in a caller-owned buffer
/// ([`Link::advance_into`]) and delivery profiles are recycled through a
/// spare list ([`Link::recycle_profile`]), so a caller that reuses both
/// allocates nothing per flow in steady state. See DESIGN.md §11 for the
/// invariants.
#[derive(Debug, Clone)]
pub struct Link {
    trace: Trace,
    latency: Duration,
    now: Instant,
    /// Every pending flow, active or awaiting activation, in ascending id
    /// order — the delivery iteration order, which also fixes the
    /// emission order of `TransferProgress` events.
    flows: Vec<Flow>,
    next_id: u64,
    obs: ObsHandle,
    /// Cumulative per-flow drain (bit-µs) applied to every active flow
    /// since the link was created. An active flow's remaining work is
    /// `flow.work_bm - drained` (see [`Flow::work_bm`]).
    drained: u128,
    /// Monotone rate-schedule cursor for `advance_into`; `next_completion`
    /// lookaheads copy it so predictions never perturb its position.
    cursor: TraceCursor,
    /// Cleared profiles handed back by [`Link::recycle_profile`]; new
    /// flows take one before allocating.
    spare: Vec<DeliveryProfile>,
}

impl Link {
    /// A link with the given capacity schedule and zero request latency.
    pub fn new(trace: Trace) -> Self {
        Link::with_latency(trace, Duration::ZERO)
    }

    /// A link whose flows start delivering `latency` after being opened
    /// (models request RTT + server think time).
    pub fn with_latency(trace: Trace, latency: Duration) -> Self {
        Link {
            trace,
            latency,
            now: Instant::ZERO,
            flows: Vec::new(),
            next_id: 0,
            obs: ObsHandle::disabled(),
            drained: 0,
            cursor: TraceCursor::new(),
            spare: Vec::new(),
        }
    }

    /// Attaches an observability handle: `transfer_progress` events while
    /// tracing, `link.*` spans while profiling.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Current link time (advanced by [`Link::advance_into`]).
    pub fn now(&self) -> Instant {
        self.now
    }

    /// The capacity schedule.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Opens a transfer of `size` bytes at the current time. Panics on a
    /// zero-size transfer (no such HTTP response exists in this model; use
    /// latency for header-only exchanges).
    pub fn open_flow(&mut self, size: Bytes) -> FlowId {
        self.open_flow_after(size, Duration::ZERO)
    }

    /// Opens a transfer whose first byte is delayed by the link latency
    /// *plus* `extra` — e.g. an origin round trip behind a CDN miss.
    pub fn open_flow_after(&mut self, size: Bytes, extra: Duration) -> FlowId {
        assert!(size.get() > 0, "zero-byte flow");
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let work = size.get() as u128 * BITMICROS_PER_BYTE;
        let activate_at = self.now + self.latency + extra;
        let active = activate_at <= self.now;
        let profile = self
            .spare
            .pop()
            .unwrap_or_else(|| DeliveryProfile::with_capacity(PROFILE_SEGMENT_HINT));
        // Ids ascend, so the new flow always sorts last.
        self.flows.push(Flow {
            id,
            active,
            work_bm: if active { self.drained + work } else { work },
            size,
            opened_at: self.now,
            activate_at,
            profile,
        });
        self.debug_check();
        id
    }

    /// Hands a finished flow's profile back for reuse: it is cleared and
    /// the next [`Link::open_flow_after`] records into it instead of
    /// allocating a fresh one.
    pub fn recycle_profile(&mut self, mut profile: DeliveryProfile) {
        profile.clear();
        self.spare.push(profile);
    }

    /// Number of flows currently transferring or awaiting activation.
    pub fn pending_count(&self) -> usize {
        self.flows.len()
    }

    /// The pending flow behind `id`, if any.
    fn flow(&self, id: FlowId) -> Option<&Flow> {
        let at = self.flows.binary_search_by_key(&id, |f| f.id).ok()?;
        Some(&self.flows[at])
    }

    /// Delivery history so far of an in-progress flow.
    pub fn flow_profile(&self, id: FlowId) -> Option<&DeliveryProfile> {
        self.flow(id).map(|f| &f.profile)
    }

    /// Structural invariants of the finish-key solver, checked after every
    /// mutation when built with `debug-invariants` (DESIGN.md §12): flow
    /// ids strictly ascend, and no active finish key has drained past zero
    /// remaining.
    fn debug_check(&self) {
        #[cfg(feature = "debug-invariants")]
        {
            debug_assert!(
                self.flows.windows(2).all(|w| w[0].id < w[1].id),
                "flow ids must strictly ascend"
            );
            for f in self.flows.iter().filter(|f| f.active) {
                debug_assert!(
                    f.work_bm >= self.drained,
                    "flow {:?} finish key {} drained past empty ({})",
                    f.id,
                    f.work_bm,
                    self.drained
                );
            }
        }
    }

    /// Bytes still owed to an in-progress flow (rounded up).
    pub fn flow_remaining(&self, id: FlowId) -> Option<Bytes> {
        self.flow(id)
            .map(|f| Bytes(f.remaining_bm(self.drained).div_ceil(BITMICROS_PER_BYTE) as u64))
    }

    /// Count and minimum remaining work of the flows `pick` selects.
    fn delivering(&self, pick: impl Fn(&Flow) -> bool) -> (usize, Option<u128>) {
        let mut n = 0;
        let mut min_rem = None;
        for f in self.flows.iter().filter(|f| pick(f)) {
            let r = f.remaining_bm(self.drained);
            min_rem = Some(min_rem.map_or(r, |m: u128| m.min(r)));
            n += 1;
        }
        (n, min_rem)
    }

    /// Earliest activation instant of an inactive flow after `t`.
    fn next_activation_after(&self, t: Instant) -> Option<Instant> {
        self.flows
            .iter()
            .filter(|f| !f.active && f.activate_at > t)
            .map(|f| f.activate_at)
            .min()
    }

    /// Exact instant of the earliest future completion, or `None` if no
    /// pending flow can ever complete (no flows, or the schedule's final
    /// rate is zero with work outstanding).
    ///
    /// Allocation-free lookahead: because every active flow drains at the
    /// same rate, only the *minimum* remaining work matters, and it only
    /// shrinks by the shared drain or drops when a waiting flow activates
    /// — a short scan per activation crossed instead of a re-simulation
    /// of every flow. No flow other than the eventual answer can complete during
    /// the lookahead (the minimum completes first), so the active *set*
    /// never shrinks before the function returns.
    pub fn next_completion(&self) -> Option<Instant> {
        let _g = self.obs.span("link.next_completion");
        if self.flows.is_empty() {
            return None;
        }
        let mut t = self.now;
        let mut cursor = self.cursor;
        // Every flow delivering at `now`: active ones with what they have
        // left, and inactive ones whose activation instant has arrived
        // (they have drained nothing, so their full work is exact).
        let (mut n_active, mut min_rem) = self.delivering(|f| f.active || f.activate_at <= t);
        let mut next_activation = self.next_activation_after(t);
        loop {
            // Candidate boundaries: next activation, next trace change,
            // earliest completion under current share. While nothing
            // delivers, a rate change moves no byte, so the lookahead
            // jumps straight to the next activation.
            let mut boundary = next_activation;
            let mut share = 0;
            if n_active > 0 {
                share = cursor.rate_at(&self.trace, t).bps() / n_active as u64;
                if let Some(c) = cursor.next_change_after(&self.trace, t) {
                    boundary = Some(boundary.map_or(c, |b: Instant| b.min(c)));
                }
            }
            if share > 0 {
                if let Some(mr) = min_rem {
                    let done = t + Duration::from_micros(mr.div_ceil(share as u128) as u64);
                    if boundary.is_none_or(|b| done <= b) {
                        return Some(done);
                    }
                }
            }
            let Some(b) = boundary else {
                // No rate changes, no activations, nothing deliverable.
                return None;
            };
            if share > 0 {
                if let Some(mr) = min_rem.as_mut() {
                    // `done > b` above guarantees the drain cannot reach
                    // the minimum inside this span.
                    *mr -= share as u128 * (b - t).as_micros() as u128;
                }
            }
            if next_activation == Some(b) {
                // Fold in the flows that activate at the new boundary
                // (none activates inside the span: the next activation
                // bounds it).
                let (n, m) = self.delivering(|f| !f.active && f.activate_at == b);
                n_active += n;
                min_rem = min_rem.into_iter().chain(m).min();
                next_activation = self.next_activation_after(b);
            }
            t = b;
        }
    }

    /// Advances link time to `t`, integrating deliveries, and returns the
    /// flows that completed at or before `t`, ordered by completion time
    /// then flow id. Panics if `t` is in the past. A convenience wrapper
    /// over [`Link::advance_into`] with a fresh buffer.
    pub fn advance_to(&mut self, t: Instant) -> Vec<Completion> {
        let mut done = Vec::new();
        self.advance_into(t, &mut done);
        done
    }

    /// [`Link::advance_to`] into a caller-owned buffer: appends the flows
    /// that completed at or before `t`, ordered by completion time then
    /// flow id, after whatever `done` already holds (only the appended
    /// part is sorted). Panics if `t` is in the past.
    ///
    /// Allocation-free per span: one pass over the flow vector promotes
    /// due activations and finds the active count, the earliest finish
    /// key and the next activation; rate lookups ride the monotone trace
    /// cursor.
    pub fn advance_into(&mut self, t: Instant, done: &mut Vec<Completion>) {
        let _g = self.obs.span("link.advance_to");
        assert!(t >= self.now, "advance into the past: {t} < {}", self.now);
        #[cfg(feature = "debug-invariants")]
        let drained_at_entry = self.drained;
        let first_new = done.len();
        while self.now < t {
            let now = self.now;
            // Promote flows whose activation instant has arrived (spans
            // always break at activation instants, so promotion at the top
            // of each span is exhaustive), and scan the rest.
            let mut n = 0usize;
            let mut min_key: Option<u128> = None;
            let mut next_activation: Option<Instant> = None;
            for f in &mut self.flows {
                if !f.active && f.activate_at <= now {
                    f.active = true;
                    f.work_bm += self.drained;
                }
                if f.active {
                    n += 1;
                    min_key = Some(min_key.map_or(f.work_bm, |k| k.min(f.work_bm)));
                } else {
                    next_activation =
                        Some(next_activation.map_or(f.activate_at, |a| a.min(f.activate_at)));
                }
            }
            // Boundary: min of t, next activation, next trace change, and
            // the earliest completion at the current share. While nothing
            // delivers, the span runs idle to `t` or the next activation
            // whatever the rate does.
            let mut boundary = t;
            if let Some(a) = next_activation {
                boundary = boundary.min(a);
            }
            let mut rate = 0;
            if n > 0 {
                rate = self.cursor.rate_at(&self.trace, now).bps();
                if let Some(c) = self.cursor.next_change_after(&self.trace, now) {
                    boundary = boundary.min(c);
                }
            }
            let share = rate.checked_div(n as u64).unwrap_or(0);
            if share > 0 {
                if let Some(key) = min_key {
                    let min_rem = key - self.drained;
                    let fin = now + Duration::from_micros(min_rem.div_ceil(share as u128) as u64);
                    boundary = boundary.min(fin);
                }
            }

            // Deliver over [now, boundary] to every active flow, in flow
            // id order (the event-emission order contract).
            if share > 0 && n > 0 && boundary > now {
                let span = (boundary - now).as_micros() as u128;
                let delivered = share as u128 * span;
                // Share conservation: the per-flow shares never hand out
                // more than the schedule's rate, and the undistributed
                // remainder of the integer division stays below one share
                // per flow.
                #[cfg(feature = "debug-invariants")]
                {
                    debug_assert!(
                        share as u128 * n as u128 <= rate as u128,
                        "shares exceed link rate: {share} x {n} > {rate}"
                    );
                    let remainder = rate - share * (n as u64);
                    debug_assert!(
                        remainder < n as u64,
                        "share remainder {remainder} not < flow count {n}"
                    );
                }
                let share_rate = BitsPerSec(share);
                let mut i = 0;
                while i < self.flows.len() {
                    let f = &mut self.flows[i];
                    if !f.active {
                        i += 1;
                        continue;
                    }
                    let rem = f.work_bm - self.drained;
                    if delivered >= rem {
                        let fin = now + Duration::from_micros(rem.div_ceil(share as u128) as u64);
                        debug_assert!(fin <= boundary);
                        f.profile.push(Segment {
                            start: now,
                            end: fin,
                            rate: share_rate,
                        });
                        let f = self.flows.remove(i);
                        done.push(Completion {
                            id: f.id,
                            at: fin,
                            size: f.size,
                            opened_at: f.opened_at,
                            profile: f.profile,
                        });
                    } else {
                        f.profile.push(Segment {
                            start: now,
                            end: boundary,
                            rate: share_rate,
                        });
                        let (id, size, remaining_bm) = (f.id, f.size, rem - delivered);
                        self.obs.emit(boundary, || {
                            let remaining = Bytes(remaining_bm.div_ceil(BITMICROS_PER_BYTE) as u64);
                            Event::TransferProgress {
                                flow: id.0,
                                delivered: size.saturating_sub(remaining),
                                remaining,
                                rate: share_rate,
                            }
                        });
                        i += 1;
                    }
                }
                self.drained += delivered;
            }
            self.now = boundary;
        }
        // The global drain counter is monotone: advancing time can only
        // add delivered work, never retract it.
        #[cfg(feature = "debug-invariants")]
        debug_assert!(
            self.drained >= drained_at_entry,
            "drain counter regressed: {} < {drained_at_entry}",
            self.drained
        );
        self.debug_check();
        done[first_new..].sort_by_key(|c| (c.at, c.id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kbps(k: u64) -> BitsPerSec {
        BitsPerSec::from_kbps(k)
    }

    #[test]
    fn solo_flow_exact_completion() {
        // 1 MB at 8 Mbps = exactly 1 s.
        let mut link = Link::new(Trace::constant(BitsPerSec(8_000_000)));
        let id = link.open_flow(Bytes(1_000_000));
        assert_eq!(link.next_completion(), Some(Instant::from_secs(1)));
        let done = link.advance_to(Instant::from_secs(2));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].at, Instant::from_secs(1));
        assert_eq!(
            done[0].profile.mean_throughput(),
            Some(BitsPerSec(8_000_000))
        );
    }

    #[test]
    fn two_flows_split_capacity() {
        // Two equal flows at 1 Mbps: each sees 500 Kbps — the Fig 4(a)
        // concurrency-underestimation mechanism.
        let mut link = Link::new(Trace::constant(kbps(1000)));
        let a = link.open_flow(Bytes(62_500)); // 0.5 Mb at 500 Kbps = 1 s
        let b = link.open_flow(Bytes(62_500));
        let done = link.advance_to(Instant::from_secs(5));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].at, Instant::from_secs(1));
        assert_eq!(done[1].at, Instant::from_secs(1));
        assert_eq!(done[0].id, a);
        assert_eq!(done[1].id, b);
        for c in &done {
            assert_eq!(c.profile.mean_throughput(), Some(kbps(500)));
        }
    }

    #[test]
    fn share_grows_when_peer_finishes() {
        // Flow A is smaller; after it completes, B gets the whole link.
        let mut link = Link::new(Trace::constant(kbps(1000)));
        let _a = link.open_flow(Bytes(62_500)); // at 500 Kbps: done at 1 s
        let b = link.open_flow(Bytes(187_500));
        // B delivers 62500 B in the first second (shared), then 125000 B
        // solo at 1 Mbps in a further 1 s: done at 2 s.
        let done = link.advance_to(Instant::from_secs(10));
        assert_eq!(done.len(), 2);
        let bc = done.iter().find(|c| c.id == b).unwrap();
        assert_eq!(bc.at, Instant::from_secs(2));
        let segs = bc.profile.segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].rate, kbps(500));
        assert_eq!(segs[1].rate, kbps(1000));
    }

    #[test]
    fn trace_change_mid_flow() {
        // 500 Kbps for 1 s then 1500 Kbps: 187500 B = 62500 + 125000 →
        // 1 s + ~0.667 s.
        let trace = Trace::steps(&[
            (Duration::from_secs(1), kbps(500)),
            (Duration::from_secs(100), kbps(1500)),
        ]);
        let mut link = Link::new(trace);
        let _ = link.open_flow(Bytes(187_500));
        let expect = Instant::from_micros(1_000_000 + 666_667);
        assert_eq!(link.next_completion(), Some(expect));
        let done = link.advance_to(Instant::from_secs(5));
        assert_eq!(done[0].at, expect);
    }

    #[test]
    fn zero_capacity_interval_pauses_delivery() {
        let trace = Trace::steps(&[
            (Duration::from_secs(1), kbps(800)), // 100 KB
            (Duration::from_secs(2), kbps(0)),   // stalled
            (Duration::from_secs(100), kbps(800)),
        ]);
        let mut link = Link::new(trace);
        let _ = link.open_flow(Bytes(200_000));
        // 100 KB in the first second, 2 s of nothing, 100 KB more by t=4.
        assert_eq!(link.next_completion(), Some(Instant::from_secs(4)));
        let done = link.advance_to(Instant::from_secs(10));
        assert_eq!(done[0].at, Instant::from_secs(4));
        // The profile records the gap.
        assert_eq!(done[0].profile.segments().len(), 2);
    }

    #[test]
    fn never_completes_on_dead_link() {
        let mut link = Link::new(Trace::constant(BitsPerSec::ZERO));
        let _ = link.open_flow(Bytes(1));
        assert_eq!(link.next_completion(), None);
        assert!(link.advance_to(Instant::from_secs(100)).is_empty());
        assert_eq!(link.pending_count(), 1);
    }

    #[test]
    fn request_latency_delays_first_byte() {
        let mut link = Link::with_latency(Trace::constant(kbps(800)), Duration::from_millis(50));
        let id = link.open_flow(Bytes(100_000)); // 1 s of delivery
        assert_eq!(link.next_completion(), Some(Instant::from_millis(1_050)));
        let done = link.advance_to(Instant::from_secs(2));
        assert_eq!(done[0].at, Instant::from_millis(1_050));
        assert_eq!(done[0].opened_at, Instant::ZERO);
        assert_eq!(done[0].profile.start(), Some(Instant::from_millis(50)));
        let _ = id;
    }

    #[test]
    fn extra_flow_delay_stacks_on_link_latency() {
        let mut link = Link::with_latency(Trace::constant(kbps(800)), Duration::from_millis(50));
        let _ = link.open_flow_after(Bytes(100_000), Duration::from_millis(150));
        // 50 ms link latency + 150 ms extra + 1 s of delivery.
        assert_eq!(link.next_completion(), Some(Instant::from_millis(1_200)));
    }

    #[test]
    fn staggered_opens_reshare() {
        let mut link = Link::new(Trace::constant(kbps(1000)));
        let a = link.open_flow(Bytes(250_000)); // solo: 2 s
                                                // Let 1 s pass, then a second flow joins.
        let none = link.advance_to(Instant::from_secs(1));
        assert!(none.is_empty());
        let b = link.open_flow(Bytes(125_000));
        // A has 125000 B left, now at 500 Kbps → 2 s more (done t=3).
        // B needs 125000 B at 500 Kbps → done t=3 too.
        let done = link.advance_to(Instant::from_secs(10));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].at, Instant::from_secs(3));
        assert_eq!(done[1].at, Instant::from_secs(3));
        assert_eq!(done[0].id, a);
        assert_eq!(done[1].id, b);
    }

    #[test]
    fn advance_in_small_steps_equals_one_big_step() {
        let trace = Trace::square_wave(
            kbps(900),
            kbps(300),
            Duration::from_secs(3),
            Duration::from_secs(60),
        );
        let mut a = Link::new(trace.clone());
        let mut b = Link::new(trace);
        let _ = a.open_flow(Bytes(777_777));
        let _ = b.open_flow(Bytes(777_777));
        let big = a.advance_to(Instant::from_secs(30));
        let mut small = Vec::new();
        for ms in (0..30_000).step_by(250) {
            small.extend(b.advance_to(Instant::from_millis(ms as u64 + 250)));
        }
        assert_eq!(big.len(), 1);
        assert_eq!(small.len(), 1);
        assert_eq!(big[0].at, small[0].at);
        assert_eq!(big[0].profile.total_bytes(), small[0].profile.total_bytes());
    }

    #[test]
    fn profile_total_matches_size() {
        let mut link = Link::new(Trace::square_wave(
            kbps(731),
            kbps(293),
            Duration::from_millis(700),
            Duration::from_secs(600),
        ));
        let _ = link.open_flow(Bytes(123_457));
        let done = link.advance_to(Instant::from_secs(600));
        assert_eq!(done.len(), 1);
        let total = done[0].profile.total_bytes().get() as i64;
        // Per-segment rounding can drift by at most 1 byte per segment.
        let segs = done[0].profile.segments().len() as i64;
        assert!(
            (total - 123_457).abs() <= segs,
            "profile total {total} vs size 123457 ({segs} segments)"
        );
    }

    #[test]
    fn flow_queries_mid_transfer() {
        let mut link = Link::new(Trace::constant(kbps(800)));
        let id = link.open_flow(Bytes(200_000));
        link.advance_to(Instant::from_secs(1));
        assert_eq!(link.flow_remaining(id), Some(Bytes(100_000)));
        assert!(!link.flow_profile(id).unwrap().is_empty());
        assert_eq!(link.pending_count(), 1);
    }

    #[test]
    #[should_panic(expected = "zero-byte flow")]
    fn zero_byte_flow_rejected() {
        Link::new(Trace::constant(kbps(1))).open_flow(Bytes::ZERO);
    }

    /// Time a solo flow spent delivering: the summed spans of its
    /// delivery profile (a flow records no segment while its share is 0).
    fn busy(done: &Completion) -> Duration {
        done.profile
            .segments()
            .iter()
            .map(|s| s.end - s.start)
            .sum()
    }

    #[test]
    fn obs_counts_busy_idle_and_flow_bytes() {
        let (obs, tracer) = ObsHandle::recording();
        let mut link = Link::new(Trace::constant(kbps(800)));
        link.set_obs(obs);
        let _ = link.open_flow(Bytes(100_000)); // exactly 1 s of delivery
        let done = link.advance_to(Instant::from_secs(3)); // then 2 s idle
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].at, Instant::from_secs(1));
        assert_eq!(busy(&done[0]), Duration::from_secs(1));
        assert_eq!(done[0].size, Bytes(100_000));
        assert_eq!(link.next_completion(), None, "idle after the flow");
        // No boundaries interrupt a constant-rate solo flow, so no
        // progress events.
        assert!(tracer.snapshot().is_empty());
    }

    #[test]
    fn busy_idle_exact_sub_spans() {
        // Multi-phase schedule: 50 ms request latency (idle), delivery at
        // 800 Kbps, a 2 s zero-rate stall mid-flow, delivery again, then
        // an idle tail — the profile must hold exactly the delivering
        // spans.
        let (obs, _) = ObsHandle::recording();
        let trace = Trace::steps(&[
            (Duration::from_secs(1), kbps(800)),   // 100 KB deliverable
            (Duration::from_secs(2), kbps(0)),     // stall
            (Duration::from_secs(100), kbps(800)), // rest
        ]);
        let mut link = Link::with_latency(trace, Duration::from_millis(50));
        link.set_obs(obs);
        // 150 KB: 95 KB in [0.05, 1.0], stall to 3.0, 55 KB in 0.55 s.
        let _ = link.open_flow(Bytes(150_000));
        let done = link.advance_to(Instant::from_secs(5));
        assert_eq!(done[0].at, Instant::from_micros(3_550_000));
        // Busy: [0.05, 1.0] + [3.0, 3.55] = 1.5 s exactly, so idle is
        // [0, 0.05] latency + [1, 3] stall + [3.55, 5] tail = 3.5 s.
        assert_eq!(done[0].profile.start(), Some(Instant::from_millis(50)));
        assert_eq!(busy(&done[0]), Duration::from_millis(1_500));
    }

    #[test]
    fn saturated_link_completes_once_the_share_rises_above_zero() {
        // 10 flows on a 5 bps link: the integer per-flow share is zero,
        // so nothing delivers in that second. Once the rate rises every
        // flow finishes quickly.
        let (obs, _) = ObsHandle::recording();
        let trace = Trace::steps(&[
            (Duration::from_secs(1), BitsPerSec(5)),
            (Duration::from_secs(100), BitsPerSec(8_000_000)),
        ]);
        let mut link = Link::new(trace);
        link.set_obs(obs);
        for _ in 0..10 {
            let _ = link.open_flow(Bytes(1));
        }
        // Each flow: 8 bits at a 800 Kbps share = 10 µs past the rise.
        let done = link.advance_to(Instant::from_secs(2));
        assert_eq!(done.len(), 10);
        assert_eq!(done[0].at, Instant::from_micros(1_000_010));
        assert!(done.iter().all(|c| c.at == done[0].at));
        assert_eq!(done[0].profile.start(), Some(Instant::from_secs(1)));
    }

    #[test]
    fn idle_waits_skip_trace_changepoints() {
        // Rates alternate every second: 800 Kbps on even seconds, 1.6 Mbps
        // on odd ones. The flow's first byte waits 30 s, across 30
        // changepoints while nothing delivers: 100 KB in [30, 31], the
        // last 50 KB at 1.6 Mbps in 0.25 s.
        let points = (0..100)
            .map(|s| {
                (
                    Instant::from_secs(s),
                    kbps(if s % 2 == 0 { 800 } else { 1600 }),
                )
            })
            .collect();
        let (obs, tracer) = ObsHandle::recording();
        let mut link = Link::new(Trace::new(points));
        link.set_obs(obs);
        link.advance_to(Instant::from_millis(2_500)); // no flow at all
        let _ = link.open_flow_after(Bytes(150_000), Duration::from_millis(27_500));
        let finish = Instant::from_micros(31_250_000);
        assert_eq!(link.next_completion(), Some(finish));
        let done = link.advance_to(Instant::from_secs(40));
        assert_eq!(done[0].at, finish);
        // Busy: [30, 31.25]; idle: [0, 30] before the first byte plus
        // [31.25, 40].
        assert_eq!(done[0].profile.start(), Some(Instant::from_secs(30)));
        assert_eq!(busy(&done[0]), Duration::from_millis(1_250));
        // One progress event, at the one changepoint inside the delivery.
        assert_eq!(tracer.snapshot().len(), 1);
    }

    #[test]
    fn obs_emits_progress_at_boundaries() {
        let (obs, tracer) = ObsHandle::recording();
        let trace = Trace::steps(&[
            (Duration::from_secs(1), kbps(800)),
            (Duration::from_secs(100), kbps(400)),
        ]);
        let mut link = Link::new(trace);
        link.set_obs(obs);
        let id = link.open_flow(Bytes(150_000));
        // 100 KB in second 1, then 50 KB at 400 Kbps takes 1 more second.
        let done = link.advance_to(Instant::from_secs(5));
        assert_eq!(done[0].at, Instant::from_secs(2));
        let events = tracer.snapshot();
        assert_eq!(events.len(), 1, "one trace changepoint mid-flow");
        match &events[0].event {
            abr_obs::Event::TransferProgress {
                flow,
                delivered,
                remaining,
                rate,
            } => {
                assert_eq!(*flow, id.0);
                assert_eq!(*delivered, Bytes(100_000));
                assert_eq!(*remaining, Bytes(50_000));
                assert_eq!(*rate, kbps(800));
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(events[0].at, Instant::from_secs(1));
    }
}
