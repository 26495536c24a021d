//! BBA — the buffer-based baseline (Huang et al., SIGCOMM 2014; the
//! paper's reference \[12\]), adapted to demuxed audio+video.
//!
//! BBA ignores bandwidth estimates entirely: the buffer level *is* the
//! signal. Between a reservoir `r` and a cushion `r + c`, the selected
//! rate rises linearly from the lowest to the highest rung. The original
//! algorithm is video-only; this adaptation runs the same map over a
//! *combination* ladder (so audio and video stay jointly consistent — a
//! courtesy the §3.4 players don't extend), making it a useful
//! buffer-only baseline next to the rate-based and hybrid policies.

use crate::combos::{select_joint, ComboLadder, JointFrame, JointPolicy};
use abr_event::time::{div_wide, Duration};
use abr_manifest::view::{BoundDash, BoundHls};
use abr_media::combo::Combo;
use abr_media::track::TrackId;
use abr_media::units::BitsPerSec;
use abr_obs::ObsHandle;
use abr_player::policy::{AbrPolicy, SelectionContext, TransferRecord};

/// BBA parameters.
#[derive(Debug, Clone, Copy)]
pub struct BbaConfig {
    /// The reservoir: below this buffer level, always the lowest rung.
    pub reservoir: Duration,
    /// The cushion: the linear ramp spans `[reservoir, reservoir+cushion]`.
    pub cushion: Duration,
}

impl Default for BbaConfig {
    fn default() -> Self {
        // Scaled to this workspace's 30 s buffer target (the original used
        // a 240 s TV-style buffer with proportionally larger regions).
        BbaConfig {
            reservoir: Duration::from_secs(8),
            cushion: Duration::from_secs(16),
        }
    }
}

/// The BBA joint-combination policy.
#[derive(Debug, Clone)]
pub struct BbaPolicy {
    /// The combination ladder (BBA uses bandwidth only for its order — it
    /// never estimates throughput) and the per-position lock (§4.2).
    joint: JointFrame,
    cfg: BbaConfig,
    /// Last chosen index, for the BBA-0 stickiness rule.
    current: Option<usize>,
}

impl BbaPolicy {
    /// Over explicit combinations.
    pub fn from_combos(pairs: Vec<(Combo, BitsPerSec)>) -> BbaPolicy {
        BbaPolicy::over(ComboLadder::new(pairs))
    }

    /// Over an HLS manifest's variants.
    pub fn from_hls(view: &BoundHls) -> BbaPolicy {
        BbaPolicy::over(ComboLadder::from_hls(view))
    }

    /// Over a DASH manifest with server-curated combinations.
    pub fn from_dash(view: &BoundDash, allowed: &[Combo]) -> BbaPolicy {
        BbaPolicy::over(ComboLadder::from_dash(view, allowed))
    }

    fn over(ladder: ComboLadder) -> BbaPolicy {
        BbaPolicy {
            joint: JointFrame::new(ladder),
            cfg: BbaConfig::default(),
            current: None,
        }
    }

    /// Overrides the regions.
    pub fn with_config(mut self, cfg: BbaConfig) -> BbaPolicy {
        self.cfg = cfg;
        self
    }

    /// The rate-map: buffer level → ladder index.
    fn map_index(&self, level: Duration) -> usize {
        let n = self.joint.ladder.combos().len();
        if level <= self.cfg.reservoir {
            return 0;
        }
        let above = level - self.cfg.reservoir;
        if above >= self.cfg.cushion {
            return n - 1;
        }
        // Linear in the cushion, exactly BBA's f(B).
        div_wide(
            above.as_micros() as u128 * n as u128,
            self.cfg.cushion.as_micros(),
        )
        .min(n as u128 - 1) as usize
    }
}

impl JointPolicy for BbaPolicy {
    fn frame(&mut self) -> &mut JointFrame {
        &mut self.joint
    }

    /// The rate map, with BBA-0's stickiness: only move when the map
    /// crosses the *next* rung's boundary (prevents oscillation at region
    /// edges).
    fn decide(&mut self, ctx: &SelectionContext) -> (usize, &'static str) {
        let mapped = self.map_index(ctx.audio_level.min(ctx.video_level));
        let next = match self.current {
            // Ratchet upward one rung per decision; drops follow the map.
            Some(cur) if mapped > cur => cur + 1,
            _ => mapped,
        };
        self.current = Some(next);
        (next, "buffer-based rate map over the combination ladder")
    }
}

impl AbrPolicy for BbaPolicy {
    fn name(&self) -> &str {
        "bba"
    }

    fn on_transfer(&mut self, _record: &TransferRecord) {
        // Buffer-based: deliberately ignores throughput observations.
    }

    fn select(&mut self, ctx: &SelectionContext) -> TrackId {
        select_joint(self, ctx)
    }

    fn set_obs(&mut self, obs: &ObsHandle) {
        self.joint.obs = obs.clone();
    }

    /// BBA reads buffer levels, no throughput sample.
    fn reads_meter(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_event::time::Instant;
    use abr_manifest::build::build_master_playlist;
    use abr_media::combo::curated_subset;
    use abr_media::content::Content;
    use abr_media::track::MediaType;

    fn policy() -> BbaPolicy {
        let content = Content::drama_show(1);
        let combos = curated_subset(content.video(), content.audio());
        let master = build_master_playlist(&content, &combos, &[0, 1, 2]);
        BbaPolicy::from_hls(&abr_manifest::view::BoundHls::from_master(&master).unwrap())
    }

    fn ctx_at(buf_secs: u64, chunk: usize) -> SelectionContext {
        SelectionContext {
            now: Instant::from_secs(10),
            media: MediaType::Video,
            chunk,
            audio_level: Duration::from_secs(buf_secs),
            video_level: Duration::from_secs(buf_secs),
            chunk_duration: Duration::from_secs(4),
            current_audio: None,
            current_video: None,
            playing: true,
        }
    }

    #[test]
    fn reservoir_pins_lowest() {
        let p = policy();
        assert_eq!(p.map_index(Duration::ZERO), 0);
        assert_eq!(p.map_index(Duration::from_secs(8)), 0);
    }

    #[test]
    fn cushion_is_monotone_and_tops_out() {
        let p = policy();
        let mut last = 0;
        for secs in 8..=24 {
            let idx = p.map_index(Duration::from_secs(secs));
            assert!(idx >= last, "monotone map");
            last = idx;
        }
        assert_eq!(p.map_index(Duration::from_secs(24)), 5);
        assert_eq!(p.map_index(Duration::from_secs(60)), 5);
    }

    #[test]
    fn never_estimates() {
        // No transfers at all: selection still works (buffer-only).
        let mut p = policy();
        assert_eq!(p.select(&ctx_at(0, 0)), TrackId::video(0));
        assert!(p.select(&ctx_at(30, 1)).index <= 5);
    }

    #[test]
    fn ratchets_up_one_rung_at_a_time() {
        let mut p = policy();
        let _ = p.select(&ctx_at(0, 0)); // settle at 0
        let a = p.select(&ctx_at(30, 1)); // map says top, ratchet allows +1
        assert_eq!(a.index, 1, "curated combo i pairs video rung i");
        let b = p.select(&ctx_at(30, 2));
        assert_eq!(b.index, 2);
    }

    #[test]
    fn drops_follow_the_map_immediately() {
        let mut p = policy();
        for chunk in 0..10 {
            let _ = p.select(&ctx_at(30, chunk));
        }
        assert_eq!(p.current, Some(5));
        let v = p.select(&ctx_at(2, 10)); // reservoir → straight to the bottom
        assert_eq!(v, TrackId::video(0));
    }

    #[test]
    fn joint_selection_stays_on_one_combo() {
        let mut p = policy();
        for chunk in 0..6 {
            let _ = p.select(&ctx_at(20, chunk));
        }
        let v = p.select(&ctx_at(20, 6));
        let a = p.select(&SelectionContext {
            media: MediaType::Audio,
            ..ctx_at(20, 6)
        });
        let combo = p
            .joint
            .ladder
            .combos()
            .iter()
            .find(|c| c.video == v.index)
            .unwrap();
        assert_eq!(
            a.index, combo.audio,
            "audio and video from the same combination"
        );
    }

    #[test]
    fn lock_survives_a_buffer_collapse_mid_position() {
        let mut p = policy();
        for chunk in 0..8 {
            let _ = p.select(&ctx_at(30, chunk));
        }
        let v = p.select(&ctx_at(30, 8));
        // Buffer collapses before the audio request for position 8.
        let a = p.select(&SelectionContext {
            media: MediaType::Audio,
            ..ctx_at(1, 8)
        });
        let combo = p
            .joint
            .ladder
            .combos()
            .iter()
            .find(|c| c.video == v.index)
            .unwrap();
        assert_eq!(a.index, combo.audio, "locked combination for the position");
        // Position 9 reflects the collapse.
        let v9 = p.select(&ctx_at(1, 9));
        assert_eq!(v9, TrackId::video(0));
    }
}
