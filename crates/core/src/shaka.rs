//! Shaka Player v2.5.1 emulation (§3.3).
//!
//! * **Estimation** — [`crate::estimators::ShakaEstimator`]: per-flow δ
//!   interval samples, 16 KB validity filter, 500 Kbps default, min of two
//!   EWMAs. The three failure modes the paper demonstrates all live here:
//!   concurrent flows each sample their own share (≈ halving the estimate),
//!   a 1 Mbps link never passes the filter at all (Fig 4a), and bursty
//!   links pass it only during bursts (Fig 4b overestimation).
//! * **Selection** — purely rate-based: the highest combination whose
//!   aggregate bandwidth does not exceed the estimate, re-evaluated every
//!   chunk with no hysteresis — hence the fluctuation among combinations
//!   with nearby bandwidths (§3.3's 300–700 Kbps example).
//! * **DASH** — the manifest names no combinations, so Shaka synthesizes
//!   the full M×N cross product when parsing (paper: "the player creates
//!   all the combinations of video and audio tracks").

use crate::combos::ComboLadder;
use crate::estimators::{record_update, ShakaEstimator};
use abr_manifest::view::{BoundDash, BoundHls};
use abr_media::combo::Combo;
use abr_media::track::TrackId;
use abr_media::units::BitsPerSec;
use abr_obs::ObsHandle;
use abr_player::policy::{AbrPolicy, SelectionContext, TransferRecord};

/// The Shaka policy (same adaptation code for HLS and DASH, §3.3).
#[derive(Debug, Clone)]
pub struct ShakaPolicy {
    name: String,
    /// Candidate combinations in ascending aggregate bandwidth.
    ladder: ComboLadder,
    est: ShakaEstimator,
    obs: ObsHandle,
}

impl ShakaPolicy {
    /// HLS mode: candidates are exactly the master playlist's variants,
    /// with their declared aggregate `BANDWIDTH`.
    pub fn hls(view: &BoundHls) -> ShakaPolicy {
        ShakaPolicy::over("shaka-hls".to_string(), ComboLadder::from_hls(view))
    }

    /// DASH mode: synthesize all M×N combinations; aggregate bandwidth is
    /// the sum of the per-track declared bitrates.
    pub fn dash(view: &BoundDash) -> ShakaPolicy {
        ShakaPolicy::over("shaka-dash".to_string(), ComboLadder::cross_product(view))
    }

    /// `name` is allocated before the ladder: where this long-lived string
    /// lands moves the fleet's peak RSS under glibc's per-thread arenas
    /// (on a 2-vCPU Linux host the benchmark's `fleet_muxed` peak RSS read
    /// 16% higher with it allocated after).
    fn over(name: String, ladder: ComboLadder) -> ShakaPolicy {
        ShakaPolicy {
            name,
            ladder,
            est: ShakaEstimator::new(),
            obs: ObsHandle::disabled(),
        }
    }

    /// The candidate combinations, ascending bandwidth.
    pub fn combinations(&self) -> &[Combo] {
        self.ladder.combos()
    }

    /// The combination a given estimate selects (public so the fluctuation
    /// experiment F4x can sweep estimates directly).
    pub fn choice_for_estimate(&self, estimate: BitsPerSec) -> Combo {
        self.ladder.combos()[self.ladder.highest_within(estimate)]
    }
}

impl AbrPolicy for ShakaPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_transfer(&mut self, record: &TransferRecord) {
        let old = self.est.estimate();
        self.est.on_transfer(record);
        record_update(&self.obs, record, Some(old), Some(self.est.estimate()));
    }

    fn select(&mut self, ctx: &SelectionContext) -> TrackId {
        let est = self.est.estimate();
        let idx = self.ladder.highest_within(est);
        self.ladder.record(&self.obs, ctx, idx, || {
            let combo = self.ladder.combos()[idx];
            format!("highest combination within estimate {est}: {combo}")
        })
    }

    fn debug_estimate(&self) -> Option<BitsPerSec> {
        Some(self.est.estimate())
    }

    fn set_obs(&mut self, obs: &ObsHandle) {
        self.obs = obs.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_event::time::{Duration, Instant};
    use abr_manifest::build::{build_master_playlist, build_mpd};
    use abr_media::combo::all_combos;
    use abr_media::content::Content;
    use abr_media::track::MediaType;
    use abr_net::profile::{DeliveryProfile, Segment};

    fn h_all_policy() -> ShakaPolicy {
        let content = Content::drama_show(1);
        let combos = all_combos(content.video(), content.audio());
        let master = build_master_playlist(&content, &combos, &[0, 1, 2]);
        ShakaPolicy::hls(&abr_manifest::view::BoundHls::from_master(&master).unwrap())
    }

    fn ctx(media: MediaType) -> SelectionContext {
        SelectionContext {
            now: Instant::from_secs(5),
            media,
            chunk: 1,
            audio_level: Duration::from_secs(8),
            video_level: Duration::from_secs(8),
            chunk_duration: Duration::from_secs(4),
            current_audio: None,
            current_video: None,
            playing: true,
        }
    }

    fn transfer_at_rate(kbps: u64, secs: u64) -> TransferRecord {
        let mut profile = DeliveryProfile::new();
        profile.push(Segment {
            start: Instant::ZERO,
            end: Instant::from_secs(secs),
            rate: BitsPerSec::from_kbps(kbps),
        });
        let size = BitsPerSec::from_kbps(kbps).bytes_in_micros(secs * 1_000_000);
        TransferRecord {
            media: MediaType::Video,
            track: TrackId::video(0),
            chunk: 0,
            size,
            opened_at: Instant::ZERO,
            completed_at: Instant::from_secs(secs),
            profile,
            window_bytes: size,
            window_busy: Duration::from_secs(secs),
        }
    }

    #[test]
    fn default_estimate_selects_v2_a2() {
        // Fig 4(a): the estimate is stuck at 500 Kbps; the highest variant
        // with BANDWIDTH ≤ 500 is V2+A2 (460).
        let mut p = h_all_policy();
        // Feed 1 Mbps transfers — every window fails the 16 KB filter.
        for _ in 0..30 {
            p.on_transfer(&transfer_at_rate(1000, 4));
        }
        assert_eq!(p.debug_estimate().unwrap().kbps(), 500);
        let v = p.select(&ctx(MediaType::Video));
        let a = p.select(&ctx(MediaType::Audio));
        assert_eq!((v.index, a.index), (1, 1), "V2+A2");
    }

    #[test]
    fn burst_sampling_overestimates_and_picks_v3_a3_or_higher() {
        // Fig 4(b): only 1800 Kbps bursts pass the filter on a mean-600
        // link; the estimate overshoots and selection jumps to V3+A3-class
        // combinations.
        let mut p = h_all_policy();
        for _ in 0..10 {
            p.on_transfer(&transfer_at_rate(300, 4));
            p.on_transfer(&transfer_at_rate(1800, 2));
        }
        let est = p.debug_estimate().unwrap();
        assert!(est.kbps() > 1000, "overestimate, got {est}");
        let choice = p.choice_for_estimate(est);
        assert!(
            choice.video >= 2 && choice.audio >= 1,
            "picked an overly high combination, got {choice}"
        );
    }

    #[test]
    fn fluctuation_across_nearby_bandwidths() {
        // §3.3: estimates between 300 and 700 Kbps flip among five
        // combinations with close bandwidth requirements.
        let p = h_all_policy();
        let picks: Vec<String> = [300u64, 400, 500, 550, 700]
            .iter()
            .map(|&k| p.choice_for_estimate(BitsPerSec::from_kbps(k)).to_string())
            .collect();
        assert_eq!(picks, vec!["V1+A1", "V2+A1", "V2+A2", "V1+A3", "V2+A3"]);
    }

    #[test]
    fn dash_synthesizes_all_combinations() {
        let content = Content::drama_show(1);
        let view = abr_manifest::view::BoundDash::from_mpd(&build_mpd(&content)).unwrap();
        let p = ShakaPolicy::dash(&view);
        assert_eq!(p.combinations().len(), 18);
        // Declared sums reorder the ladder vs the HLS peak sums: the
        // highest combination ≤ 500 Kbps is V1+A3 (111+384 = 495).
        assert_eq!(
            p.choice_for_estimate(BitsPerSec::from_kbps(500))
                .to_string(),
            "V1+A3"
        );
    }

    #[test]
    fn no_hysteresis_reselects_every_chunk() {
        let mut p = h_all_policy();
        // Strong samples at 2500 Kbps: estimate rises; selection follows
        // immediately with no buffer gate.
        for _ in 0..10 {
            p.on_transfer(&transfer_at_rate(2500, 4));
        }
        let hi = p.select(&ctx(MediaType::Video));
        // Crash the estimate with slow-but-valid samples? Slow samples are
        // filtered; instead verify the pure function directly.
        let lo = p.choice_for_estimate(BitsPerSec::from_kbps(300));
        assert!(
            hi.index > lo.video,
            "selection tracks the estimate verbatim"
        );
    }
}
