//! The §4 best-practice policy.
//!
//! Implements every player-side recommendation of the paper jointly:
//!
//! * **Adopt audio rate adaptation** — audio and video both adapt (§4.2).
//! * **Select only allowed combinations** — the candidate set is exactly
//!   what the server curated (HLS variants, or server-provided
//!   combinations for DASH via the §4.1 out-of-band workaround).
//! * **Joint adaptation** — one decision over combinations, never two
//!   independent per-media decisions.
//! * **Careful switching** — a hysteresis band (up-switches need headroom
//!   *and* buffer; down-switches only when the current combination is
//!   genuinely unsustainable or the buffer is draining) plus single-rung
//!   climbing to avoid the Shaka-style fluctuation.
//! * **Balanced prefetching** is the session's `SyncMode::ChunkLevel`,
//!   which this policy is designed to pair with.

use crate::combos::{select_joint, ComboLadder, JointFrame, JointPolicy};
use crate::estimators::{record_update, JointEwma};
use abr_event::time::Duration;
use abr_manifest::view::{BoundDash, BoundHls};
use abr_media::combo::Combo;
use abr_media::track::TrackId;
use abr_media::units::BitsPerSec;
use abr_obs::ObsHandle;
use abr_player::policy::{AbrPolicy, SelectionContext, TransferRecord};

/// Tunables for the best-practice policy.
#[derive(Debug, Clone, Copy)]
pub struct BestPracticeConfig {
    /// Fraction of the estimate considered spendable for up-switches.
    pub up_safety: (u64, u64),
    /// Buffer required (min of audio/video) before switching up.
    pub up_buffer: Duration,
    /// Below this buffer the policy drops straight to a sustainable rung.
    pub down_buffer: Duration,
    /// Minimum chunks between voluntary (upward) switches — §4.2's "avoid
    /// frequent changes in either audio or video tracks". Emergency drops
    /// ignore the hold.
    pub min_hold_chunks: usize,
}

impl Default for BestPracticeConfig {
    fn default() -> Self {
        BestPracticeConfig {
            up_safety: (9, 10), // 0.9 up-threshold; down only above 1.0×
            up_buffer: Duration::from_secs(10),
            down_buffer: Duration::from_secs(6),
            min_hold_chunks: 4,
        }
    }
}

/// The best-practice joint audio+video policy.
#[derive(Debug, Clone)]
pub struct BestPracticePolicy {
    /// The allowed combinations and the per-position lock (§4.2): the
    /// audio and video decisions for the same position always agree even
    /// when the estimate moves between the two requests.
    joint: JointFrame,
    est: JointEwma,
    cfg: BestPracticeConfig,
    current: Option<usize>,
    /// Chunk index of the last voluntary switch (for the hold timer).
    last_switch: Option<usize>,
}

impl BestPracticePolicy {
    /// From explicit server-curated combinations with their aggregate
    /// bandwidth requirements (the §4.1 DASH out-of-band workaround).
    pub fn from_combos(pairs: Vec<(Combo, BitsPerSec)>) -> BestPracticePolicy {
        BestPracticePolicy::over(ComboLadder::new(pairs))
    }

    /// From an HLS master playlist: the allowed set is the variant list.
    pub fn from_hls(view: &BoundHls) -> BestPracticePolicy {
        BestPracticePolicy::over(ComboLadder::from_hls(view))
    }

    /// From a DASH manifest plus server-curated combinations (fetched
    /// out-of-band per §4.1); bandwidths are per-track declared sums.
    pub fn from_dash(view: &BoundDash, allowed: &[Combo]) -> BestPracticePolicy {
        BestPracticePolicy::over(ComboLadder::from_dash(view, allowed))
    }

    /// From a DASH manifest carrying the §4.1 allowed-combinations
    /// extension itself (the "longer term" proposal) — no out-of-band
    /// channel needed. Fails on a standard MPD without the extension.
    pub fn from_dash_extension(view: &BoundDash) -> Result<BestPracticePolicy, String> {
        let allowed = view
            .allowed_combos
            .as_ref()
            .ok_or("MPD carries no allowed-combinations extension")?;
        Ok(BestPracticePolicy::from_dash(view, allowed))
    }

    fn over(ladder: ComboLadder) -> BestPracticePolicy {
        BestPracticePolicy {
            joint: JointFrame::new(ladder),
            est: JointEwma::new(3.0),
            cfg: BestPracticeConfig::default(),
            current: None,
            last_switch: None,
        }
    }

    /// The allowed combinations, ascending bandwidth.
    pub fn combinations(&self) -> &[Combo] {
        self.joint.ladder.combos()
    }

    /// Overrides the tunables.
    pub fn with_config(mut self, cfg: BestPracticeConfig) -> BestPracticePolicy {
        self.cfg = cfg;
        self
    }
}

impl JointPolicy for BestPracticePolicy {
    fn frame(&mut self) -> &mut JointFrame {
        &mut self.joint
    }

    fn decide(&mut self, ctx: &SelectionContext) -> (usize, &'static str) {
        let (next, reason) = match self.est.estimate() {
            // No measurement yet: start at the bottom for fast, safe
            // startup.
            None => (0, "no measurement yet: lowest combination"),
            Some(est) => {
                let ladder = &self.joint.ladder;
                let (n, d) = self.cfg.up_safety;
                let up_ideal = ladder.highest_within(est.mul_ratio(n, d));
                let cur = self.current.unwrap_or(0);
                let buffered = ctx.audio_level.min(ctx.video_level);
                let sustainable = ladder.bandwidths()[cur] <= est;
                let held = self
                    .last_switch
                    .is_some_and(|at| ctx.chunk < at + self.cfg.min_hold_chunks);
                if !sustainable || buffered < self.cfg.down_buffer {
                    // Emergency drop to something affordable — ignores the
                    // hold timer. The band between up_safety×est and est
                    // gives switch hysteresis.
                    (
                        cur.min(up_ideal),
                        "emergency drop to a sustainable combination",
                    )
                } else if up_ideal > cur && buffered >= self.cfg.up_buffer && !held {
                    // Climb one rung at a time to keep switches small.
                    (
                        cur + 1,
                        "single-rung climb: headroom, buffer, hold all clear",
                    )
                } else {
                    (cur, "holding the current combination")
                }
            }
        };
        if self.current.is_some_and(|cur| cur != next) {
            self.last_switch = Some(ctx.chunk);
        }
        self.current = Some(next);
        (next, reason)
    }
}

impl AbrPolicy for BestPracticePolicy {
    fn name(&self) -> &str {
        "bestpractice"
    }

    fn on_transfer(&mut self, record: &TransferRecord) {
        let old = self.est.estimate();
        self.est.on_transfer(record);
        record_update(&self.joint.obs, record, old, self.est.estimate());
    }

    fn select(&mut self, ctx: &SelectionContext) -> TrackId {
        select_joint(self, ctx)
    }

    fn debug_estimate(&self) -> Option<BitsPerSec> {
        self.est.estimate()
    }

    fn set_obs(&mut self, obs: &ObsHandle) {
        self.joint.obs = obs.clone();
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
    use abr_net::profile::DeliveryProfile;

    fn policy() -> BestPracticePolicy {
        let content = Content::drama_show(1);
        let combos = curated_subset(content.video(), content.audio());
        let master = build_master_playlist(&content, &combos, &[0, 1, 2]);
        BestPracticePolicy::from_hls(&abr_manifest::view::BoundHls::from_master(&master).unwrap())
    }

    fn feed(p: &mut BestPracticePolicy, kbps: u64, reps: usize) {
        let size = BitsPerSec::from_kbps(kbps).bytes_in_micros(4_000_000);
        for _ in 0..reps {
            p.on_transfer(&TransferRecord {
                media: MediaType::Video,
                track: TrackId::video(0),
                chunk: 0,
                size,
                opened_at: Instant::ZERO,
                completed_at: Instant::from_secs(4),
                profile: DeliveryProfile::new(),
                window_bytes: size,
                window_busy: Duration::from_secs(4),
            });
        }
    }

    fn ctx_at(media: MediaType, buf_secs: u64, chunk: usize) -> SelectionContext {
        SelectionContext {
            now: Instant::from_secs(20),
            media,
            chunk,
            audio_level: Duration::from_secs(buf_secs),
            video_level: Duration::from_secs(buf_secs),
            chunk_duration: Duration::from_secs(4),
            current_audio: None,
            current_video: None,
            playing: true,
        }
    }

    fn ctx(media: MediaType, buf_secs: u64) -> SelectionContext {
        ctx_at(media, buf_secs, 2)
    }

    #[test]
    fn starts_at_lowest_combo() {
        let mut p = policy();
        let v = p.select(&ctx(MediaType::Video, 0));
        let a = p.select(&ctx(MediaType::Audio, 0));
        assert_eq!((v, a), (TrackId::video(0), TrackId::audio(0)), "V1+A1");
    }

    #[test]
    fn chunk_position_locks_the_combination() {
        // Even if the estimate collapses between the video and audio
        // requests for the same position, both come from one combination.
        let mut p = policy();
        feed(&mut p, 5000, 10);
        for c in 0..12 {
            let _ = p.select(&ctx_at(MediaType::Video, 20, c));
        }
        let v = p.select(&ctx_at(MediaType::Video, 20, 12));
        feed(&mut p, 100, 30); // estimate collapses mid-position
        let a = p.select(&ctx_at(MediaType::Audio, 20, 12));
        let combo = p
            .combinations()
            .iter()
            .find(|c| c.video == v.index)
            .unwrap();
        assert_eq!(a.index, combo.audio, "locked combination for position 12");
        // The next position reflects the collapse.
        let v2 = p.select(&ctx_at(MediaType::Video, 20, 13));
        assert!(v2.index < v.index);
    }

    #[test]
    fn min_hold_limits_switch_rate() {
        let mut p = policy();
        feed(&mut p, 8000, 10);
        // 20 consecutive positions with a sky-high estimate: at most one
        // upward switch per min_hold_chunks (4) positions.
        let picks: Vec<usize> = (0..20)
            .map(|c| p.select(&ctx_at(MediaType::Video, 30, c)).index)
            .collect();
        let switches = picks.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            switches <= 5,
            "held to ≤5 switches over 20 chunks, got {switches}"
        );
        assert!(picks.windows(2).all(|w| w[1] >= w[0]), "monotone climb");
    }

    #[test]
    fn always_inside_allowed_set() {
        let mut p = policy();
        let allowed = p.combinations().to_vec();
        let mut chunk = 0usize;
        for kbps in [300u64, 900, 2000, 5000, 400, 100] {
            feed(&mut p, kbps, 5);
            for buf in [2u64, 8, 20] {
                let v = p.select(&ctx_at(MediaType::Video, buf, chunk));
                let a = p.select(&ctx_at(MediaType::Audio, buf, chunk));
                chunk += 1;
                let combo = Combo::new(v.index, a.index);
                assert!(allowed.contains(&combo), "{combo} not allowed");
            }
        }
    }

    #[test]
    fn climbs_one_rung_at_a_time() {
        let mut p = policy();
        feed(&mut p, 5000, 10);
        let hold = 4; // min_hold_chunks default
        let first = p.select(&ctx_at(MediaType::Video, 20, 0)).index;
        let second = p.select(&ctx_at(MediaType::Video, 20, hold)).index;
        let third = p.select(&ctx_at(MediaType::Video, 20, 2 * hold)).index;
        assert!(first < second && second < third, "{first} {second} {third}");
        assert_eq!(second - first, 1, "single-rung steps");
    }

    #[test]
    fn no_up_switch_on_thin_buffer() {
        let mut p = policy();
        feed(&mut p, 5000, 10);
        let _ = p.select(&ctx_at(MediaType::Video, 20, 0)); // climb to rung 1
        let before = p.current.unwrap();
        let after = p.select(&ctx_at(MediaType::Video, 7, 10)).index; // 7 s < 10 s gate
                                                                      // Stays (sustainable, but no headroom for climbing).
        assert_eq!(p.current.unwrap(), before);
        let _ = after;
    }

    #[test]
    fn drops_fast_when_unsustainable() {
        let mut p = policy();
        feed(&mut p, 5000, 10);
        for i in 0..4 {
            let _ = p.select(&ctx_at(MediaType::Video, 20, i * 4));
        }
        let high = p.current.unwrap();
        assert!(high >= 3);
        feed(&mut p, 300, 20); // estimate collapses
        let _ = p.select(&ctx_at(MediaType::Video, 20, 17));
        let low = p.current.unwrap();
        assert!(low < high, "dropped from {high} to {low}");
        // At 300 Kbps the sustainable curated combo is V1+A1 (253).
        assert_eq!(low, 0);
    }

    #[test]
    fn hysteresis_band_prevents_flapping() {
        // Estimate right between up_safety×bw and bw of the current rung:
        // neither up nor down fires.
        let mut p = policy();
        feed(&mut p, 500, 10); // up_ideal at 450 → V2+A1 (395)
        let _ = p.select(&ctx_at(MediaType::Video, 20, 0));
        let _ = p.select(&ctx_at(MediaType::Video, 20, 5));
        let settled = p.current.unwrap();
        assert_eq!(p.combinations()[settled].to_string(), "V2+A1");
        // 30 more decisions at the same estimate: no movement.
        for i in 0..30 {
            let _ = p.select(&ctx_at(MediaType::Video, 20, 10 + i));
            assert_eq!(p.current.unwrap(), settled);
        }
    }

    #[test]
    fn dash_extension_constructor() {
        let content = Content::drama_show(1);
        let combos = curated_subset(content.video(), content.audio());
        let mpd = abr_manifest::build::build_mpd_with_combos(&content, &combos);
        let view = abr_manifest::view::BoundDash::from_mpd(&mpd).unwrap();
        let p = BestPracticePolicy::from_dash_extension(&view).expect("extension present");
        assert_eq!(p.combinations().len(), 6);
        // Without the extension, the constructor refuses.
        let plain = abr_manifest::view::BoundDash::from_mpd(&build_mpd(&content)).unwrap();
        assert!(BestPracticePolicy::from_dash_extension(&plain).is_err());
    }

    #[test]
    fn dash_constructor_uses_declared_sums() {
        let content = Content::drama_show(1);
        let view = abr_manifest::view::BoundDash::from_mpd(&build_mpd(&content)).unwrap();
        let allowed = curated_subset(content.video(), content.audio());
        let p = BestPracticePolicy::from_dash(&view, &allowed);
        assert_eq!(p.combinations().len(), 6);
        // V3+A2 declared sum = 473 + 196 = 669.
        let i = p
            .combinations()
            .iter()
            .position(|c| c.to_string() == "V3+A2")
            .unwrap();
        assert_eq!(p.joint.ladder.bandwidths()[i].kbps(), 669);
    }
}
