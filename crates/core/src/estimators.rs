//! Bandwidth-estimator toolbox.
//!
//! Each player's estimator is a different answer to "what did the network
//! just do?", and §3 of the paper traces several failure modes directly to
//! these choices:
//!
//! * [`ExoMeter`] — ExoPlayer's aggregate meter: samples total bytes over
//!   *busy time across all concurrent transfers* at each transfer end,
//!   weighted-median (sliding percentile) smoothing. Concurrency-correct.
//! * [`ShakaEstimator`] — Shaka's per-δ interval sampler: a 0.125 s window
//!   is valid only if it carried ≥ 16 KB; valid windows feed two EWMAs
//!   (half-lives 2 s and 5 s) and the estimate is their minimum, with a
//!   500 Kbps default until 128 KB have been sampled. Per-flow, so
//!   concurrent audio+video each see ≈ half the link (Fig 4a), and the
//!   validity filter discards entire rate regimes (Fig 4a/4b).
//! * [`HarmonicMean`] — dash.js-style last-N harmonic mean over one media
//!   type's transfers only.
//! * [`JointEwma`] — the best-practice estimator: aggregate window samples
//!   (like ExoPlayer's meter) smoothed by a zero-bias-corrected EWMA.
//!
//! [`record_update`] is how every estimating policy records one update.

use abr_event::time::Duration;
use abr_media::units::{BitsPerSec, Bytes};
use abr_obs::{Event, ObsHandle};
use abr_player::policy::TransferRecord;
use std::collections::VecDeque;

/// Records one estimator update driven by `record`: emits
/// `EstimateUpdated` when the estimate moved from `old` to a value `new`.
pub fn record_update(
    obs: &ObsHandle,
    record: &TransferRecord,
    old: Option<BitsPerSec>,
    new: Option<BitsPerSec>,
) {
    if let Some(new) = new.filter(|&new| Some(new) != old) {
        obs.emit(record.completed_at, || Event::EstimateUpdated {
            old,
            new,
            window_bytes: record.window_bytes,
        });
    }
}

/// Exponentially weighted moving average with half-life semantics and
/// zero-bias correction (Shaka's `Ewma` class).
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    estimate: f64,
    total_weight: f64,
    /// The last sample weight and `alpha^weight` for it: Shaka's windows
    /// all weigh δ, so the power is computed once, not per window.
    last_weight: f64,
    last_adj: f64,
}

impl Ewma {
    /// An EWMA whose samples decay to half influence after `half_life`
    /// seconds of sample weight.
    pub fn with_half_life(half_life_secs: f64) -> Ewma {
        assert!(half_life_secs > 0.0);
        Ewma {
            alpha: 0.5f64.powf(1.0 / half_life_secs),
            estimate: 0.0,
            total_weight: 0.0,
            last_weight: 0.0,
            last_adj: 1.0,
        }
    }

    /// Feeds one sample of `value` with `weight` (seconds).
    pub fn sample(&mut self, weight_secs: f64, value: f64) {
        assert!(weight_secs > 0.0 && value.is_finite());
        if weight_secs != self.last_weight {
            self.last_weight = weight_secs;
            self.last_adj = self.alpha.powf(weight_secs);
        }
        let adj = self.last_adj;
        self.estimate = adj * self.estimate + (1.0 - adj) * value;
        self.total_weight += weight_secs;
    }

    /// Zero-bias-corrected estimate; `None` before any sample.
    pub fn estimate(&self) -> Option<f64> {
        if self.total_weight == 0.0 {
            return None;
        }
        let zero_factor = 1.0 - self.alpha.powf(self.total_weight);
        Some(self.estimate / zero_factor)
    }
}

/// ExoPlayer's sliding percentile: weighted median over recent samples,
/// with sample weight `sqrt(bytes)` and a total-weight cap.
///
/// The median only changes when a sample is added, so `add` recomputes it
/// once (into a reusable sort buffer) and `median` reads the cached value.
#[derive(Debug, Clone)]
pub struct SlidingPercentile {
    max_weight: f64,
    /// Samples in insertion order: (weight, value-bps).
    samples: VecDeque<(f64, f64)>,
    total_weight: f64,
    /// Scratch for the value-sorted copy of `samples`.
    sorted: Vec<(f64, f64)>,
    /// The weighted median as of the last `add`.
    median: Option<f64>,
}

impl SlidingPercentile {
    /// ExoPlayer's default max weight (2000 in `sqrt(bytes)` units).
    pub fn new(max_weight: f64) -> SlidingPercentile {
        assert!(max_weight > 0.0);
        SlidingPercentile {
            max_weight,
            samples: VecDeque::new(),
            total_weight: 0.0,
            sorted: Vec::new(),
            median: None,
        }
    }

    /// Adds a sample, evicting the oldest beyond the weight cap.
    pub fn add(&mut self, weight: f64, value: f64) {
        assert!(weight > 0.0 && value.is_finite());
        self.samples.push_back((weight, value));
        self.total_weight += weight;
        while self.total_weight > self.max_weight && self.samples.len() > 1 {
            let (w, _) = self.samples.pop_front().expect("non-empty");
            self.total_weight -= w;
        }
        self.sorted.clear();
        self.sorted.extend(self.samples.iter().copied());
        // Stable sort: equal values keep insertion order, which fixes
        // where the weight accumulation crosses the half.
        self.sorted
            .sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite values"));
        let half = self.total_weight / 2.0;
        let mut acc = 0.0;
        let crossing = self.sorted.iter().find(|(w, _)| {
            acc += w;
            acc >= half
        });
        self.median = crossing.or(self.sorted.last()).map(|&(_, v)| v);
    }

    /// The weighted median; `None` before any sample.
    pub fn median(&self) -> Option<f64> {
        self.median
    }
}

/// ExoPlayer's `DefaultBandwidthMeter`: aggregate busy-window samples into
/// a sliding percentile.
#[derive(Debug, Clone)]
pub struct ExoMeter {
    percentile: SlidingPercentile,
    initial: BitsPerSec,
}

impl ExoMeter {
    /// ExoPlayer defaults: 1 Mbps initial estimate, weight cap 2000.
    pub fn new() -> ExoMeter {
        ExoMeter {
            percentile: SlidingPercentile::new(2000.0),
            initial: BitsPerSec::from_kbps(1000),
        }
    }

    /// Feeds a completed transfer (uses the aggregate window fields).
    pub fn on_transfer(&mut self, rec: &TransferRecord) {
        if rec.window_bytes.get() == 0 || rec.window_busy.is_zero() {
            return;
        }
        let value = rec
            .window_bytes
            .rate_over_micros(rec.window_busy.as_micros())
            .bps() as f64;
        let weight = (rec.window_bytes.get() as f64).sqrt();
        self.percentile.add(weight, value);
    }

    /// Current estimate (initial value until the first sample).
    pub fn estimate(&self) -> BitsPerSec {
        match self.percentile.median() {
            Some(v) => BitsPerSec(v.round() as u64),
            None => self.initial,
        }
    }
}

impl Default for ExoMeter {
    fn default() -> Self {
        ExoMeter::new()
    }
}

/// Shaka Player's bandwidth estimator (§3.3).
#[derive(Debug, Clone)]
pub struct ShakaEstimator {
    delta: Duration,
    min_bytes: Bytes,
    min_total_bytes: Bytes,
    default: BitsPerSec,
    fast: Ewma,
    slow: Ewma,
    total_sampled: Bytes,
    /// The estimate as of the last sampled window.
    estimate: BitsPerSec,
}

impl ShakaEstimator {
    /// Shaka v2.5.1 defaults: δ = 0.125 s, 16 KB validity filter, 500 Kbps
    /// default, 128 KB before the measured estimate is trusted, EWMA
    /// half-lives 2 s (fast) and 5 s (slow).
    pub fn new() -> ShakaEstimator {
        let default = BitsPerSec::from_kbps(500);
        ShakaEstimator {
            delta: Duration::from_millis(125),
            min_bytes: Bytes::from_kib(16),
            min_total_bytes: Bytes(128_000),
            default,
            fast: Ewma::with_half_life(2.0),
            slow: Ewma::with_half_life(5.0),
            total_sampled: Bytes::ZERO,
            estimate: default,
        }
    }

    /// Feeds a completed transfer: the flow's own delivery profile is cut
    /// into δ windows; only windows carrying at least the filter bytes
    /// become samples. The estimate is recomputed once, after the last
    /// window, and only if a window passed the filter.
    pub fn on_transfer(&mut self, rec: &TransferRecord) {
        let w = self.delta.as_secs_f64();
        let mut sampled = false;
        for (_, bytes) in rec.profile.windows(self.delta) {
            if bytes >= self.min_bytes {
                let rate = bytes.rate_over_micros(self.delta.as_micros()).bps() as f64;
                self.fast.sample(w, rate);
                self.slow.sample(w, rate);
                self.total_sampled += bytes;
                sampled = true;
            }
        }
        if sampled && self.total_sampled >= self.min_total_bytes {
            self.estimate = match (self.fast.estimate(), self.slow.estimate()) {
                (Some(f), Some(s)) => BitsPerSec(f.min(s).round() as u64),
                _ => self.default,
            };
        }
    }

    /// min(fast, slow) once enough bytes were sampled; the 500 Kbps default
    /// before that — forever, if the filter never passes (Fig 4a).
    pub fn estimate(&self) -> BitsPerSec {
        self.estimate
    }

    /// Total bytes accepted by the validity filter (diagnostics).
    pub fn sampled_bytes(&self) -> Bytes {
        self.total_sampled
    }
}

impl Default for ShakaEstimator {
    fn default() -> Self {
        ShakaEstimator::new()
    }
}

/// dash.js-style harmonic mean of the last `window` per-transfer
/// throughputs (one instance per media type — the §3.4 "audio estimate from
/// audio downloads only" separation).
#[derive(Debug, Clone)]
pub struct HarmonicMean {
    window: usize,
    samples: VecDeque<f64>,
    /// The harmonic mean as of the last `add`.
    estimate: Option<BitsPerSec>,
}

impl HarmonicMean {
    /// dash.js VOD default: last 4 samples.
    pub fn new(window: usize) -> HarmonicMean {
        assert!(window > 0);
        HarmonicMean {
            window,
            samples: VecDeque::new(),
            estimate: None,
        }
    }

    /// Adds a throughput sample in bps and recomputes the mean.
    pub fn add(&mut self, value_bps: f64) {
        assert!(value_bps > 0.0 && value_bps.is_finite());
        self.samples.push_back(value_bps);
        while self.samples.len() > self.window {
            self.samples.pop_front();
        }
        let recip: f64 = self.samples.iter().map(|v| 1.0 / v).sum();
        self.estimate = Some(BitsPerSec(
            (self.samples.len() as f64 / recip).round() as u64
        ));
    }

    /// Harmonic mean of the stored samples; `None` before any sample.
    pub fn estimate(&self) -> Option<BitsPerSec> {
        self.estimate
    }
}

/// The best-practice estimator: aggregate busy-window samples (concurrency-
/// correct like [`ExoMeter`]) smoothed with a single EWMA.
#[derive(Debug, Clone)]
pub struct JointEwma {
    ewma: Ewma,
    /// The rounded EWMA estimate as of the last sample.
    estimate: Option<BitsPerSec>,
}

impl JointEwma {
    /// A joint estimator with the given half-life in seconds of busy time.
    pub fn new(half_life_secs: f64) -> JointEwma {
        JointEwma {
            ewma: Ewma::with_half_life(half_life_secs),
            estimate: None,
        }
    }

    /// Feeds a completed transfer (uses the aggregate window fields).
    pub fn on_transfer(&mut self, rec: &TransferRecord) {
        if rec.window_bytes.get() == 0 || rec.window_busy.is_zero() {
            return;
        }
        let value = rec
            .window_bytes
            .rate_over_micros(rec.window_busy.as_micros())
            .bps() as f64;
        self.ewma.sample(rec.window_busy.as_secs_f64(), value);
        self.estimate = self.ewma.estimate().map(|v| BitsPerSec(v.round() as u64));
    }

    /// Current estimate; `None` before any sample.
    pub fn estimate(&self) -> Option<BitsPerSec> {
        self.estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_event::time::Instant;
    use abr_media::track::{MediaType, TrackId};
    use abr_net::profile::{DeliveryProfile, Segment};

    fn record_with_profile(rate_kbps: u64, secs: u64) -> TransferRecord {
        let mut profile = DeliveryProfile::new();
        profile.push(Segment {
            start: Instant::ZERO,
            end: Instant::from_secs(secs),
            rate: BitsPerSec::from_kbps(rate_kbps),
        });
        let bytes = BitsPerSec::from_kbps(rate_kbps).bytes_in_micros(secs * 1_000_000);
        TransferRecord {
            media: MediaType::Video,
            track: TrackId::video(0),
            chunk: 0,
            size: bytes,
            opened_at: Instant::ZERO,
            completed_at: Instant::from_secs(secs),
            profile,
            window_bytes: bytes,
            window_busy: Duration::from_secs(secs),
        }
    }

    #[test]
    fn ewma_converges_and_corrects_zero_bias() {
        let mut e = Ewma::with_half_life(2.0);
        assert_eq!(e.estimate(), None);
        e.sample(0.125, 1000.0);
        // One sample: zero-bias correction makes the estimate exactly it.
        assert!((e.estimate().unwrap() - 1000.0).abs() < 1e-9);
        for _ in 0..200 {
            e.sample(0.125, 500.0);
        }
        assert!((e.estimate().unwrap() - 500.0).abs() < 1.0);
    }

    #[test]
    fn sliding_percentile_weighted_median() {
        let mut p = SlidingPercentile::new(1000.0);
        assert_eq!(p.median(), None);
        p.add(1.0, 100.0);
        p.add(1.0, 300.0);
        p.add(2.0, 200.0);
        // Weights: 100→1, 200→2, 300→1; half = 2 → cumulative reaches 2 at
        // value 200.
        assert_eq!(p.median(), Some(200.0));
    }

    #[test]
    fn sliding_percentile_evicts_oldest() {
        let mut p = SlidingPercentile::new(2.0);
        p.add(1.0, 100.0);
        p.add(1.0, 200.0);
        p.add(1.0, 300.0); // evicts the 100
        assert_eq!(p.median(), Some(200.0));
        p.add(2.0, 900.0); // evicts everything else
        assert_eq!(p.median(), Some(900.0));
    }

    #[test]
    fn exo_meter_uses_aggregate_window() {
        let mut m = ExoMeter::new();
        assert_eq!(m.estimate(), BitsPerSec::from_kbps(1000), "initial");
        // Two concurrent 450 Kbps flows: each record's own profile shows
        // 450, but the aggregate window says 900 — the meter must see 900.
        let mut rec = record_with_profile(450, 4);
        rec.window_bytes = BitsPerSec::from_kbps(900).bytes_in_micros(4_000_000);
        rec.window_busy = Duration::from_secs(4);
        m.on_transfer(&rec);
        assert_eq!(m.estimate(), BitsPerSec::from_kbps(900));
    }

    #[test]
    fn exo_meter_skips_empty_windows() {
        let mut m = ExoMeter::new();
        let mut rec = record_with_profile(450, 4);
        rec.window_bytes = Bytes::ZERO;
        rec.window_busy = Duration::ZERO;
        m.on_transfer(&rec);
        assert_eq!(m.estimate(), BitsPerSec::from_kbps(1000), "still initial");
    }

    #[test]
    fn shaka_filter_rejects_1mbps_solo_flow() {
        // Fig 4(a): at 1 Mbps a δ window carries 15625 B < 16 KiB, so the
        // estimate never leaves the 500 Kbps default.
        let mut s = ShakaEstimator::new();
        for _ in 0..50 {
            s.on_transfer(&record_with_profile(1000, 4));
        }
        assert_eq!(s.sampled_bytes(), Bytes::ZERO);
        assert_eq!(s.estimate(), BitsPerSec::from_kbps(500));
    }

    #[test]
    fn shaka_accepts_fast_flows() {
        // 1800 Kbps → 28125 B per window: valid; estimate converges there.
        let mut s = ShakaEstimator::new();
        for _ in 0..20 {
            s.on_transfer(&record_with_profile(1800, 4));
        }
        assert!(s.sampled_bytes() > Bytes(128_000));
        let est = s.estimate().kbps();
        assert!((est as i64 - 1800).abs() < 50, "estimate {est}");
    }

    #[test]
    fn shaka_overestimates_bursty_links() {
        // Fig 4(b) mechanism: slow periods are filtered out entirely, so a
        // 300/1800 Kbps link (mean 600) is estimated near 1800.
        let mut s = ShakaEstimator::new();
        for _ in 0..10 {
            s.on_transfer(&record_with_profile(300, 4)); // all filtered
            s.on_transfer(&record_with_profile(1800, 2));
        }
        let est = s.estimate().kbps();
        assert!(est > 1500, "estimate {est} should be near the burst rate");
    }

    #[test]
    fn shaka_needs_min_total_bytes() {
        let mut s = ShakaEstimator::new();
        // One 2-s transfer at 1800 Kbps samples ~16 windows × 28 KB ≈
        // 450 KB — enough. A single 0.25 s transfer is not.
        s.on_transfer(&record_with_profile(1800, 1));
        // 8 windows × 28125 = 225 KB ≥ 128 KB → measured.
        assert!(s.estimate().kbps() > 1000);
    }

    #[test]
    fn harmonic_mean_window() {
        let mut h = HarmonicMean::new(4);
        assert_eq!(h.estimate(), None);
        for v in [1000.0, 1000.0, 1000.0, 1000.0, 500.0] {
            h.add(v * 1000.0);
        }
        // Window holds 1000,1000,1000,500 → harmonic mean = 4/(3/1000+2/1000)
        let est = h.estimate().unwrap().kbps();
        assert_eq!(est, 800);
    }

    #[test]
    fn harmonic_mean_is_below_arithmetic() {
        let mut h = HarmonicMean::new(4);
        h.add(100_000.0);
        h.add(900_000.0);
        let est = h.estimate().unwrap().bps();
        assert!(est < 500_000, "harmonic {est} < arithmetic 500000");
        assert_eq!(est, 180_000);
    }

    #[test]
    fn joint_ewma_tracks_aggregate() {
        let mut j = JointEwma::new(3.0);
        assert_eq!(j.estimate(), None);
        let mut rec = record_with_profile(450, 4);
        rec.window_bytes = BitsPerSec::from_kbps(900).bytes_in_micros(4_000_000);
        j.on_transfer(&rec);
        assert_eq!(j.estimate().unwrap().kbps(), 900);
    }
}
