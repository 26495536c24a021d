//! Property-based tests for estimators and policy decision rules.

use abr_core::bba::{BbaConfig, BbaPolicy};
use abr_core::estimators::{Ewma, HarmonicMean, ShakaEstimator, SlidingPercentile};
use abr_core::{BestPracticePolicy, ExoPlayerPolicy, ShakaPolicy};
use abr_event::time::{Duration, Instant};
use abr_media::combo::Combo;
use abr_media::track::{MediaType, TrackId};
use abr_media::units::{BitsPerSec, Bytes};
use abr_net::profile::{DeliveryProfile, Segment};
use abr_player::policy::{AbrPolicy, SelectionContext, TransferRecord};
use proptest::prelude::*;

fn record(rate_kbps: u64, secs: u64, start_secs: u64) -> TransferRecord {
    let start = Instant::from_secs(start_secs);
    let end = start + Duration::from_secs(secs);
    let mut profile = DeliveryProfile::new();
    profile.push(Segment {
        start,
        end,
        rate: BitsPerSec::from_kbps(rate_kbps),
    });
    let size = BitsPerSec::from_kbps(rate_kbps).bytes_in_micros(secs * 1_000_000);
    TransferRecord {
        media: MediaType::Video,
        track: TrackId::video(0),
        chunk: 0,
        size,
        opened_at: start,
        completed_at: end,
        profile,
        window_bytes: size,
        window_busy: Duration::from_secs(secs),
    }
}

/// A plausible combination ladder from arbitrary bandwidths.
fn arb_pairs() -> impl Strategy<Value = Vec<(Combo, BitsPerSec)>> {
    proptest::collection::vec(10u64..5000, 1..12).prop_map(|mut kbps| {
        kbps.sort_unstable();
        kbps.dedup();
        kbps.iter()
            .enumerate()
            .map(|(i, &k)| (Combo::new(i, 0), BitsPerSec::from_kbps(k)))
            .collect()
    })
}

/// Reference sliding percentile: the copy-and-sort median computed on
/// every query, as `SlidingPercentile` did before it cached the result.
struct ScanPercentile {
    max_weight: f64,
    samples: std::collections::VecDeque<(f64, f64)>,
    total_weight: f64,
}

impl ScanPercentile {
    fn add(&mut self, weight: f64, value: f64) {
        self.samples.push_back((weight, value));
        self.total_weight += weight;
        while self.total_weight > self.max_weight && self.samples.len() > 1 {
            let (w, _) = self.samples.pop_front().unwrap();
            self.total_weight -= w;
        }
    }

    fn median(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<(f64, f64)> = self.samples.iter().copied().collect();
        sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let half = self.total_weight / 2.0;
        let mut acc = 0.0;
        for (w, v) in &sorted {
            acc += w;
            if acc >= half {
                return Some(*v);
            }
        }
        sorted.last().map(|(_, v)| *v)
    }
}

proptest! {
    /// Differential: after every `add`, the cached median is bit-identical
    /// to the reference copy-and-sort median. Values come from a small
    /// set so ties (where sort stability matters) are common.
    #[test]
    fn cached_median_matches_scan_reference(
        max_weight in 20.0f64..600.0,
        samples in proptest::collection::vec((0.5f64..150.0, 0u64..6), 1..80),
    ) {
        let mut p = SlidingPercentile::new(max_weight);
        let mut reference = ScanPercentile {
            max_weight,
            samples: std::collections::VecDeque::new(),
            total_weight: 0.0,
        };
        prop_assert_eq!(p.median(), None);
        for &(w, k) in &samples {
            let value = 250_000.0 * k as f64 + 0.5;
            p.add(w, value);
            reference.add(w, value);
            prop_assert_eq!(
                p.median().map(f64::to_bits),
                reference.median().map(f64::to_bits)
            );
        }
    }

    /// An EWMA estimate always lies within [min, max] of its samples.
    #[test]
    fn ewma_bounded_by_samples(
        half_life in 1u32..20,
        samples in proptest::collection::vec(1.0f64..1e7, 1..100),
    ) {
        let mut e = Ewma::with_half_life(half_life as f64);
        for &s in &samples {
            e.sample(0.125, s);
        }
        let est = e.estimate().unwrap();
        let lo = samples.iter().copied().fold(f64::MAX, f64::min);
        let hi = samples.iter().copied().fold(f64::MIN, f64::max);
        prop_assert!(est >= lo - 1e-6 && est <= hi + 1e-6, "{est} outside [{lo}, {hi}]");
    }

    /// The sliding-percentile median is always one of the sample values,
    /// and total weight never exceeds the cap by more than one sample.
    #[test]
    fn sliding_percentile_median_is_a_sample(
        samples in proptest::collection::vec((1.0f64..100.0, 1.0f64..1e7), 1..60),
    ) {
        let mut p = SlidingPercentile::new(500.0);
        for &(w, v) in &samples {
            p.add(w, v);
        }
        let m = p.median().unwrap();
        prop_assert!(samples.iter().any(|&(_, v)| (v - m).abs() < 1e-9));
    }

    /// The harmonic mean is never above the arithmetic mean and always
    /// within the sample range.
    #[test]
    fn harmonic_mean_bounds(samples in proptest::collection::vec(1_000.0f64..1e7, 1..30)) {
        let mut h = HarmonicMean::new(samples.len());
        for &s in &samples {
            h.add(s);
        }
        let est = h.estimate().unwrap().bps() as f64;
        let lo = samples.iter().copied().fold(f64::MAX, f64::min);
        let arith = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!(est >= lo - 1.0, "{est} < min {lo}");
        prop_assert!(est <= arith + 1.0, "harmonic {est} > arithmetic {arith}");
    }

    /// Shaka's filter is a threshold in disguise: rates strictly below
    /// ~1.049 Mbps (16 KiB per 0.125 s) never produce samples, rates above
    /// always do.
    #[test]
    fn shaka_filter_threshold(kbps in 100u64..4_000) {
        let mut s = ShakaEstimator::new();
        s.on_transfer(&record(kbps, 4, 0));
        let threshold_bps = (Bytes::from_kib(16).bits() as f64 / 0.125) as u64; // 1_048_576 bps
        if kbps * 1000 < threshold_bps {
            prop_assert_eq!(s.sampled_bytes(), Bytes::ZERO);
            prop_assert_eq!(s.estimate().kbps(), 500);
        } else {
            prop_assert!(s.sampled_bytes() > Bytes::ZERO);
        }
    }

    /// Shaka's selection is monotone in the estimate and always within the
    /// candidate set.
    #[test]
    fn shaka_choice_monotone(estimates in proptest::collection::vec(50u64..6_000, 2..40)) {
        let content = abr_media::content::Content::drama_show(1);
        let view = abr_manifest::view::BoundDash::from_mpd(
            &abr_manifest::build::build_mpd(&content),
        ).unwrap();
        let p = ShakaPolicy::dash(&view);
        let mut sorted = estimates.clone();
        sorted.sort_unstable();
        let picks: Vec<Combo> = sorted
            .iter()
            .map(|&k| p.choice_for_estimate(BitsPerSec::from_kbps(k)))
            .collect();
        // Higher estimate never selects a *cheaper* combination.
        let bw = |c: Combo| {
            view.video_declared[c.video].bps() + view.audio_declared[c.audio].bps()
        };
        for w in picks.windows(2) {
            prop_assert!(bw(w[1]) >= bw(w[0]));
        }
    }

    /// The ExoPlayer staircase never selects outside the ladder and its
    /// chosen index is monotone in the budget.
    #[test]
    fn exoplayer_ideal_monotone(budgets in proptest::collection::vec(50u64..8_000, 2..30)) {
        let content = abr_media::content::Content::drama_show(1);
        let view = abr_manifest::view::BoundDash::from_mpd(
            &abr_manifest::build::build_mpd(&content),
        ).unwrap();
        let mut sorted = budgets.clone();
        sorted.sort_unstable();
        let mut last_idx = 0usize;
        for &k in &sorted {
            // Fresh policy per budget: feed one dominating estimate, then
            // select with a deep buffer (no hysteresis interference).
            let mut p = ExoPlayerPolicy::dash(&view);
            let size = BitsPerSec::from_kbps(k * 4 / 3).bytes_in_micros(8_000_000);
            for _ in 0..8 {
                p.on_transfer(&TransferRecord {
                    media: MediaType::Video,
                    track: TrackId::video(0),
                    chunk: 0,
                    size,
                    opened_at: Instant::ZERO,
                    completed_at: Instant::from_secs(8),
                    profile: DeliveryProfile::new(),
                    window_bytes: size,
                    window_busy: Duration::from_secs(8),
                });
            }
            let ctx = SelectionContext {
                now: Instant::from_secs(1),
                media: MediaType::Video,
                chunk: 0,
                audio_level: Duration::from_secs(20),
                video_level: Duration::from_secs(20),
                chunk_duration: Duration::from_secs(4),
                current_audio: None,
                current_video: None,
                playing: true,
            };
            let v = p.select(&ctx);
            prop_assert!(v.index < 6);
            let idx = p
                .combinations()
                .iter()
                .position(|c| c.video == v.index)
                .expect("selected combo exists");
            prop_assert!(idx >= last_idx || idx == 0);
            last_idx = idx.max(last_idx);
        }
    }

    /// BBA's map is monotone in the buffer level for arbitrary regions and
    /// ladder sizes, pinned to the ends outside [reservoir, cushion].
    #[test]
    fn bba_map_monotone(
        pairs in arb_pairs(),
        reservoir_s in 1u64..20,
        cushion_s in 1u64..60,
        levels in proptest::collection::vec(0u64..120, 2..40),
    ) {
        let n = pairs.len();
        let p = BbaPolicy::from_combos(pairs).with_config(BbaConfig {
            reservoir: Duration::from_secs(reservoir_s),
            cushion: Duration::from_secs(cushion_s),
        });
        let mut sorted = levels.clone();
        sorted.sort_unstable();
        let mut last = 0usize;
        for &l in &sorted {
            let level = Duration::from_secs(l);
            // map_index is private; drive through select on a fresh clone
            // so stickiness doesn't interfere.
            let mut fresh = p.clone();
            let ctx = SelectionContext {
                now: Instant::ZERO,
                media: MediaType::Video,
                chunk: l as usize, // distinct position per probe
                audio_level: level,
                video_level: level,
                chunk_duration: Duration::from_secs(4),
                current_audio: None,
                current_video: None,
                playing: true,
            };
            let v = fresh.select(&ctx).index;
            prop_assert!(v < n.max(1) * 100, "sane index");
            // For fresh policies the first decision equals the raw map.
            prop_assert!(v >= last || l <= reservoir_s, "monotone-ish from zero state");
            last = v.max(last);
            if l <= reservoir_s {
                prop_assert_eq!(fresh.select(&SelectionContext { chunk: 9999, ..ctx }).index,
                    fresh_lowest(&p));
            }
        }
    }

    /// The best-practice policy never returns an out-of-set combination
    /// for any estimate/buffer sequence.
    #[test]
    fn bestpractice_stays_in_set(
        pairs in arb_pairs(),
        steps in proptest::collection::vec((50u64..6_000, 0u64..40), 1..40),
    ) {
        let combos: Vec<Combo> = pairs.iter().map(|&(c, _)| c).collect();
        let mut p = BestPracticePolicy::from_combos(pairs);
        for (i, &(kbps, buf)) in steps.iter().enumerate() {
            let size = BitsPerSec::from_kbps(kbps).bytes_in_micros(2_000_000);
            p.on_transfer(&TransferRecord {
                media: MediaType::Video,
                track: TrackId::video(0),
                chunk: 0,
                size,
                opened_at: Instant::ZERO,
                completed_at: Instant::from_secs(2),
                profile: DeliveryProfile::new(),
                window_bytes: size,
                window_busy: Duration::from_secs(2),
            });
            let ctx = SelectionContext {
                now: Instant::from_secs(i as u64 * 4),
                media: MediaType::Video,
                chunk: i,
                audio_level: Duration::from_secs(buf),
                video_level: Duration::from_secs(buf),
                chunk_duration: Duration::from_secs(4),
                current_audio: None,
                current_video: None,
                playing: true,
            };
            let v = p.select(&ctx);
            let a = p.select(&SelectionContext { media: MediaType::Audio, ..ctx });
            prop_assert!(combos.contains(&Combo::new(v.index, a.index)));
        }
    }
}

/// The lowest rung's video index for a BBA policy built from `arb_pairs`
/// (always combo index 0, which `arb_pairs` builds with ascending video).
fn fresh_lowest(_p: &BbaPolicy) -> usize {
    0
}
