//! ExoPlayer v2.10.2 emulation (§3.2).
//!
//! **DASH mode.** The DASH manifest restricts nothing, so ExoPlayer
//! *predetermines* a combination subset from the per-track declared
//! bitrates: the log-staircase of DESIGN.md §4 (validated against the
//! paper's three worked examples). Adaptation then runs only over that
//! subset: the aggregate bandwidth meter's estimate × 0.75 picks the
//! highest fitting combination, gated by buffer hysteresis (up-switches
//! need ≥ 10 s buffered; down-switches are skipped while ≥ 25 s is
//! buffered).
//!
//! **HLS mode.** The same adaptation code runs, but the top-level playlist
//! lacks per-track bitrates, so (paper-documented behaviour):
//!
//! * all audio renditions are assumed equal quality → the **first-listed**
//!   rendition is pinned for the whole session, and
//! * each video track's bitrate is taken as the aggregate `BANDWIDTH` of
//!   the **first variant containing it** — an overestimate that worsens
//!   when the variant pairs it with a high-bitrate audio.
//!
//! The resulting selections can leave the manifest's allowed set (e.g.
//! V1+A3 under `H_sub`), exactly as Fig 3 shows.

use crate::combos::ComboLadder;
use crate::estimators::{record_update, ExoMeter};
use abr_event::time::Duration;
use abr_manifest::view::{BoundDash, BoundHls};
use abr_media::combo::Combo;
use abr_media::track::TrackId;
use abr_media::units::BitsPerSec;
use abr_obs::ObsHandle;
use abr_player::policy::{AbrPolicy, SelectionContext, TransferRecord};

/// ExoPlayer `AdaptiveTrackSelection` constants (v2.10.2 defaults).
#[derive(Debug, Clone, Copy)]
pub struct ExoConfig {
    /// `DEFAULT_BANDWIDTH_FRACTION`: the usable share of the estimate.
    pub bandwidth_fraction: (u64, u64),
    /// `DEFAULT_MIN_DURATION_FOR_QUALITY_INCREASE_MS`: buffered time needed
    /// before switching up.
    pub min_buffer_for_up: Duration,
    /// `DEFAULT_MAX_DURATION_FOR_QUALITY_DECREASE_MS`: above this buffered
    /// time, down-switches are skipped.
    pub max_buffer_for_down: Duration,
}

impl Default for ExoConfig {
    fn default() -> Self {
        ExoConfig {
            bandwidth_fraction: (3, 4), // 0.75
            min_buffer_for_up: Duration::from_secs(10),
            max_buffer_for_down: Duration::from_secs(25),
        }
    }
}

/// The ExoPlayer policy, in DASH or HLS mode.
#[derive(Debug, Clone)]
pub struct ExoPlayerPolicy {
    name: String,
    /// The combinations adaptation runs over, with the "bandwidth
    /// requirement" ExoPlayer believes each has.
    ladder: ComboLadder,
    meter: ExoMeter,
    cfg: ExoConfig,
    current: Option<usize>,
    obs: ObsHandle,
}

impl ExoPlayerPolicy {
    /// DASH mode: predetermine the combination staircase from per-track
    /// declared bitrates; combination bandwidth = sum of declared bitrates.
    pub fn dash(view: &BoundDash) -> ExoPlayerPolicy {
        ExoPlayerPolicy::over(
            "exoplayer-dash",
            ComboLadder::staircase(&view.video_declared, &view.audio_declared),
        )
    }

    /// HLS mode: pin the first-listed audio rendition; video bitrates come
    /// from the first variant containing each video track (aggregate
    /// `BANDWIDTH`, i.e. overestimated). Adaptation iterates tracks in
    /// ascending assumed bitrate.
    pub fn hls(view: &BoundHls) -> ExoPlayerPolicy {
        let pinned_audio = *view
            .audio_listing
            .first()
            .expect("HLS manifest lists audio");
        let pairs = (0..view.video_count())
            .filter_map(|v| {
                let bw = view.first_variant_bandwidth_for_video(v)?;
                Some((Combo::new(v, pinned_audio), bw))
            })
            .collect();
        ExoPlayerPolicy::over("exoplayer-hls", ComboLadder::new(pairs))
    }

    /// The §4.1-repaired HLS mode: per-track bitrates recovered — either
    /// from the proposed master-playlist extension
    /// (`VIDEO-BANDWIDTH`/`AUDIO-BANDWIDTH`) or from previously attached
    /// second-level playlist derivations — so the same staircase logic as
    /// DASH runs and **audio adapts again**. Fails when the manifest
    /// provides no per-track information (i.e. on today's stock HLS, where
    /// only [`ExoPlayerPolicy::hls`]'s degraded behaviour is possible).
    ///
    /// Note this repairs only the §4.1 *information* gap; obeying the
    /// manifest's combination restrictions is the separate §4.2 fix
    /// implemented by `BestPracticePolicy`.
    pub fn hls_fixed(view: &BoundHls) -> Result<ExoPlayerPolicy, String> {
        let (video, audio) = view
            .extension_track_bitrates()
            .or_else(|| match (&view.video_bitrates, &view.audio_bitrates) {
                (Some(v), Some(a)) => Some((
                    v.iter().map(|d| d.peak).collect(),
                    a.iter().map(|d| d.peak).collect(),
                )),
                _ => None,
            })
            .ok_or_else(|| {
                "no per-track bitrate information: master playlist lacks the §4.1 \
                 extension and no second-level playlists were attached"
                    .to_string()
            })?;
        Ok(ExoPlayerPolicy::over(
            "exoplayer-hls-fixed",
            ComboLadder::staircase(&video, &audio),
        ))
    }

    fn over(name: &str, ladder: ComboLadder) -> ExoPlayerPolicy {
        ExoPlayerPolicy {
            name: name.to_string(),
            ladder,
            meter: ExoMeter::new(),
            cfg: ExoConfig::default(),
            current: None,
            obs: ObsHandle::disabled(),
        }
    }

    /// The predetermined combinations (DASH) or synthesized pinned-audio
    /// pairs (HLS), ascending bandwidth.
    pub fn combinations(&self) -> &[Combo] {
        self.ladder.combos()
    }

    /// The bandwidth requirements the policy believes the combinations
    /// have.
    pub fn combination_bandwidths(&self) -> &[BitsPerSec] {
        self.ladder.bandwidths()
    }
}

impl AbrPolicy for ExoPlayerPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_transfer(&mut self, record: &TransferRecord) {
        let old = self.meter.estimate();
        self.meter.on_transfer(record);
        record_update(&self.obs, record, Some(old), Some(self.meter.estimate()));
    }

    fn select(&mut self, ctx: &SelectionContext) -> TrackId {
        let (num, den) = self.cfg.bandwidth_fraction;
        let budget = self.meter.estimate().mul_ratio(num, den);
        let ideal = self.ladder.highest_within(budget);
        let (next, reason) = match self.current {
            None => (ideal, "initial pick at the budgeted ideal"),
            Some(cur) => {
                let buffered = ctx.audio_level.min(ctx.video_level);
                if ideal > cur {
                    if buffered >= self.cfg.min_buffer_for_up {
                        (ideal, "up-switch: buffer cleared the increase gate")
                    } else {
                        (cur, "up-switch held: buffer below the increase gate")
                    }
                } else if ideal < cur {
                    if buffered < self.cfg.max_buffer_for_down {
                        (ideal, "down-switch to the budgeted ideal")
                    } else {
                        (cur, "down-switch skipped: deep buffer rides it out")
                    }
                } else {
                    (cur, "holding the current combination")
                }
            }
        };
        self.current = Some(next);
        self.ladder.record(&self.obs, ctx, next, || {
            format!("{reason} (budget {budget})")
        })
    }

    fn debug_estimate(&self) -> Option<BitsPerSec> {
        Some(self.meter.estimate())
    }

    fn set_obs(&mut self, obs: &ObsHandle) {
        self.obs = obs.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_event::time::Instant;
    use abr_manifest::build::{build_master_playlist, build_mpd};
    use abr_media::combo::curated_subset;
    use abr_media::content::Content;
    use abr_media::track::MediaType;

    fn dash_view(content: &Content) -> BoundDash {
        BoundDash::from_mpd(&build_mpd(content)).unwrap()
    }

    fn ctx(media: MediaType, audio_secs: u64, video_secs: u64) -> SelectionContext {
        SelectionContext {
            now: Instant::from_secs(10),
            media,
            chunk: 1,
            audio_level: Duration::from_secs(audio_secs),
            video_level: Duration::from_secs(video_secs),
            chunk_duration: Duration::from_secs(4),
            current_audio: None,
            current_video: None,
            playing: true,
        }
    }

    fn feed_estimate(p: &mut ExoPlayerPolicy, kbps: u64) {
        // A large aggregate sample dominates the initial estimate.
        let bytes = BitsPerSec::from_kbps(kbps).bytes_in_micros(8_000_000);
        let rec = TransferRecord {
            media: MediaType::Video,
            track: TrackId::video(0),
            chunk: 0,
            size: bytes,
            opened_at: Instant::ZERO,
            completed_at: Instant::from_secs(8),
            profile: abr_net::profile::DeliveryProfile::new(),
            window_bytes: bytes,
            window_busy: Duration::from_secs(8),
        };
        for _ in 0..8 {
            p.on_transfer(&rec);
        }
    }

    #[test]
    fn dash_staircase_matches_paper_for_table1() {
        let content = Content::drama_show(1);
        let p = ExoPlayerPolicy::dash(&dash_view(&content));
        let names: Vec<String> = p
            .combinations()
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert_eq!(
            names,
            vec!["V1+A1", "V2+A1", "V2+A2", "V3+A2", "V4+A2", "V4+A3", "V5+A3", "V6+A3"]
        );
        // Bandwidth requirements are declared sums.
        assert_eq!(p.combination_bandwidths()[3].kbps(), 473 + 196);
    }

    #[test]
    fn dash_selects_v3_b2_at_900kbps() {
        // Fig 2(a): audio set B, 900 Kbps → 0.75 × 900 = 675 → V3+B2 (537).
        let content = Content::drama_show_low_audio(1);
        let mut p = ExoPlayerPolicy::dash(&dash_view(&content));
        feed_estimate(&mut p, 900);
        let v = p.select(&ctx(MediaType::Video, 20, 20));
        let a = p.select(&ctx(MediaType::Audio, 20, 20));
        assert_eq!((v, a), (TrackId::video(2), TrackId::audio(1)), "V3+B2");
    }

    #[test]
    fn dash_selects_v2_c2_at_900kbps() {
        // Fig 2(b): audio set C → V2+C2 (630 ≤ 675 < V3+C2 857).
        let content = Content::drama_show_high_audio(1);
        let mut p = ExoPlayerPolicy::dash(&dash_view(&content));
        feed_estimate(&mut p, 900);
        let v = p.select(&ctx(MediaType::Video, 20, 20));
        let a = p.select(&ctx(MediaType::Audio, 20, 20));
        assert_eq!((v, a), (TrackId::video(1), TrackId::audio(1)), "V2+C2");
    }

    #[test]
    fn up_switch_needs_buffer() {
        let content = Content::drama_show(1);
        let mut p = ExoPlayerPolicy::dash(&dash_view(&content));
        feed_estimate(&mut p, 300);
        let _ = p.select(&ctx(MediaType::Video, 2, 2)); // settle at V1+A1
        feed_estimate(&mut p, 5000);
        // Thin buffer: no up-switch yet.
        let v = p.select(&ctx(MediaType::Video, 2, 2));
        assert_eq!(v, TrackId::video(0), "held down by hysteresis");
        // Deep buffer: up-switch happens.
        let v = p.select(&ctx(MediaType::Video, 12, 12));
        assert!(v.index >= 4, "switched up, got {v}");
    }

    #[test]
    fn down_switch_skipped_with_deep_buffer() {
        let content = Content::drama_show(1);
        let mut p = ExoPlayerPolicy::dash(&dash_view(&content));
        feed_estimate(&mut p, 5000);
        let v0 = p.select(&ctx(MediaType::Video, 26, 26));
        feed_estimate(&mut p, 300);
        feed_estimate(&mut p, 300);
        // 26 s buffered ≥ 25 s: ride it out, no down-switch.
        let v1 = p.select(&ctx(MediaType::Video, 26, 26));
        assert_eq!(v0, v1);
        // Below 25 s: drop.
        let v2 = p.select(&ctx(MediaType::Video, 10, 10));
        assert!(v2.index < v1.index);
    }

    #[test]
    fn hls_pins_first_listed_audio() {
        let content = Content::drama_show(1);
        let combos = curated_subset(content.video(), content.audio());
        // A3 listed first (Fig 3 experiment 1).
        let master = build_master_playlist(&content, &combos, &[2, 0, 1]);
        let view = BoundHls::from_master(&master).unwrap();
        let mut p = ExoPlayerPolicy::hls(&view);
        feed_estimate(&mut p, 600);
        for _ in 0..5 {
            let a = p.select(&ctx(MediaType::Audio, 8, 8));
            assert_eq!(a, TrackId::audio(2), "audio pinned at A3");
        }
        // And with A1 first (experiment 2), pinned at A1 despite 5 Mbps.
        let master = build_master_playlist(&content, &combos, &[0, 1, 2]);
        let mut p = ExoPlayerPolicy::hls(&BoundHls::from_master(&master).unwrap());
        feed_estimate(&mut p, 5000);
        let a = p.select(&ctx(MediaType::Audio, 20, 20));
        assert_eq!(a, TrackId::audio(0), "audio pinned at A1 despite headroom");
    }

    #[test]
    fn hls_video_bitrates_overestimated() {
        let content = Content::drama_show(1);
        let combos = curated_subset(content.video(), content.audio());
        let master = build_master_playlist(&content, &combos, &[2, 0, 1]);
        let p = ExoPlayerPolicy::hls(&BoundHls::from_master(&master).unwrap());
        // V5's believed bitrate is the V5+A3 aggregate (2773), not 1852.
        let idx = p.combinations().iter().position(|c| c.video == 4).unwrap();
        assert_eq!(p.combination_bandwidths()[idx].kbps(), 2773);
    }

    #[test]
    fn hls_fixed_restores_audio_adaptation() {
        // With the §4.1 per-track bitrate extension, the HLS path runs the
        // same staircase as DASH — no pinned audio.
        let content = Content::drama_show(1);
        let combos = curated_subset(content.video(), content.audio());
        let master = abr_manifest::build::build_master_playlist_ext(&content, &combos, &[2, 0, 1]);
        let view = BoundHls::from_master(&master).unwrap();
        let mut p = ExoPlayerPolicy::hls_fixed(&view).expect("extension present");
        assert_eq!(p.name(), "exoplayer-hls-fixed");
        assert!(p.combinations().len() > 6, "staircase, not pinned pairs");
        // Low bandwidth → low audio; high bandwidth + buffer → higher audio.
        feed_estimate(&mut p, 350);
        let a_low = p.select(&ctx(MediaType::Audio, 12, 12));
        feed_estimate(&mut p, 5000);
        let a_high = p.select(&ctx(MediaType::Audio, 20, 20));
        assert!(
            a_high.index > a_low.index,
            "audio adapts: {a_low} → {a_high}"
        );
    }

    #[test]
    fn hls_fixed_requires_information() {
        // Stock manifest (no extension, no second-level attach): the fix
        // cannot engage — exactly the §4.1 point.
        let content = Content::drama_show(1);
        let combos = curated_subset(content.video(), content.audio());
        let master = build_master_playlist(&content, &combos, &[0, 1, 2]);
        let view = BoundHls::from_master(&master).unwrap();
        assert!(ExoPlayerPolicy::hls_fixed(&view).is_err());
    }

    #[test]
    fn hls_fixed_works_from_second_level_playlists() {
        // The short-term workaround: derive per-track bitrates by reading
        // the second-level playlists before adapting.
        let content = Content::drama_show(1);
        let combos = curated_subset(content.video(), content.audio());
        let master = build_master_playlist(&content, &combos, &[0, 1, 2]);
        let mut view = BoundHls::from_master(&master).unwrap();
        let vids: Vec<_> = (0..6)
            .map(|i| {
                abr_manifest::build::build_media_playlist(
                    &content,
                    TrackId::video(i),
                    abr_manifest::build::Packaging::SingleFile,
                )
            })
            .collect();
        let auds: Vec<_> = (0..3)
            .map(|i| {
                abr_manifest::build::build_media_playlist(
                    &content,
                    TrackId::audio(i),
                    abr_manifest::build::Packaging::SingleFile,
                )
            })
            .collect();
        view.attach_derived_bitrates(&vids, &auds).unwrap();
        let p = ExoPlayerPolicy::hls_fixed(&view).expect("derived bitrates suffice");
        assert!(p.combinations().len() > 6);
    }

    #[test]
    fn hls_can_select_off_manifest_combos() {
        // H_sub allows V1 only with A1; with A3 pinned, ExoPlayer's V1
        // selection yields V1+A3 — off-manifest, as the paper observes.
        let content = Content::drama_show(1);
        let combos = curated_subset(content.video(), content.audio());
        let master = build_master_playlist(&content, &combos, &[2, 0, 1]);
        let view = BoundHls::from_master(&master).unwrap();
        let allowed = view.allowed_combos();
        let mut p = ExoPlayerPolicy::hls(&view);
        feed_estimate(&mut p, 400);
        let v = p.select(&ctx(MediaType::Video, 4, 4));
        let a = p.select(&ctx(MediaType::Audio, 4, 4));
        let chosen = Combo::new(v.index, a.index);
        assert_eq!(a, TrackId::audio(2));
        assert!(!allowed.contains(&chosen), "{chosen} violates the manifest");
    }
}
