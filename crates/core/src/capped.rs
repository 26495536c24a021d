//! A data-saver wrapper: caps any inner policy's selections.
//!
//! Services expose "data saver" / "max quality on cellular" toggles; in
//! the demuxed setting a naive per-track cap re-creates the §3.4
//! coordination bug (capping video and audio independently). This wrapper
//! instead caps the *combination*: the inner policy decides, and if the
//! decided pairing exceeds the cap, the selection is clamped to the most
//! expensive allowed combination under the cap — jointly.

use crate::combos::{select_joint, ComboLadder, JointFrame, JointPolicy};
use abr_media::combo::Combo;
use abr_media::track::{MediaType, TrackId};
use abr_media::units::BitsPerSec;
use abr_obs::ObsHandle;
use abr_player::policy::{AbrPolicy, SelectionContext, TransferRecord};

/// Caps an inner policy to combinations whose aggregate bandwidth does not
/// exceed a budget.
pub struct CappedPolicy {
    inner: Box<dyn AbrPolicy>,
    /// The allowed combinations under the cap, ascending bandwidth: the
    /// top is the clamp target.
    joint: JointFrame,
    name: String,
}

impl CappedPolicy {
    /// Wraps `inner`, clamping to the most expensive combination in
    /// `combos` whose aggregate bandwidth is ≤ `cap`. Panics if no
    /// combination fits the cap (a cap below the whole ladder is a
    /// configuration error, not a runtime condition).
    pub fn new(
        inner: Box<dyn AbrPolicy>,
        combos: Vec<(Combo, BitsPerSec)>,
        cap: BitsPerSec,
    ) -> CappedPolicy {
        let ladder = ComboLadder::new(combos)
            .under(cap)
            .unwrap_or_else(|| panic!("cap {cap} below the cheapest combination"));
        let name = format!("{}+cap{}", inner.name(), cap.kbps());
        CappedPolicy {
            inner,
            joint: JointFrame::new(ladder),
            name,
        }
    }
}

impl JointPolicy for CappedPolicy {
    fn frame(&mut self) -> &mut JointFrame {
        &mut self.joint
    }

    /// Lets the inner policy decide both components for this position,
    /// and clamps a pairing outside the cap to the ceiling.
    fn decide(&mut self, ctx: &SelectionContext) -> (usize, &'static str) {
        let inner_pick = self.inner.select(ctx);
        let other = self.inner.select(&SelectionContext {
            media: ctx.media.other(),
            ..*ctx
        });
        let decided = match ctx.media {
            MediaType::Video => Combo::new(inner_pick.index, other.index),
            MediaType::Audio => Combo::new(other.index, inner_pick.index),
        };
        match self.joint.ladder.position(decided) {
            Some(idx) => (idx, "inner decision within the cap"),
            None => (
                self.joint.ladder.combos().len() - 1,
                "inner decision clamped to the cap ceiling",
            ),
        }
    }
}

impl AbrPolicy for CappedPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_transfer(&mut self, record: &TransferRecord) {
        self.inner.on_transfer(record);
    }

    fn select(&mut self, ctx: &SelectionContext) -> TrackId {
        select_joint(self, ctx)
    }

    fn debug_estimate(&self) -> Option<BitsPerSec> {
        self.inner.debug_estimate()
    }

    fn set_obs(&mut self, obs: &ObsHandle) {
        // The wrapper and the wrapped policy both see the handle: the inner
        // policy keeps emitting its estimate/decision events, and the
        // wrapper adds the clamp decisions on top.
        self.joint.obs = obs.clone();
        self.inner.set_obs(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BestPracticePolicy;
    use abr_event::time::{Duration, Instant};
    use abr_manifest::build::build_master_playlist;
    use abr_manifest::view::BoundHls;
    use abr_media::combo::curated_subset;
    use abr_media::content::Content;
    use abr_net::profile::DeliveryProfile;

    fn capped(cap_kbps: u64) -> CappedPolicy {
        let content = Content::drama_show(1);
        let combos = curated_subset(content.video(), content.audio());
        let master = build_master_playlist(&content, &combos, &[0, 1, 2]);
        let view = BoundHls::from_master(&master).unwrap();
        let pairs: Vec<(Combo, BitsPerSec)> = view
            .variants
            .iter()
            .map(|v| (v.combo, v.bandwidth))
            .collect();
        CappedPolicy::new(
            Box::new(BestPracticePolicy::from_hls(&view)),
            pairs,
            BitsPerSec::from_kbps(cap_kbps),
        )
    }

    fn feed(p: &mut CappedPolicy, kbps: u64) {
        let size = BitsPerSec::from_kbps(kbps).bytes_in_micros(4_000_000);
        for _ in 0..10 {
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

    fn ctx_at(media: MediaType, chunk: usize) -> SelectionContext {
        SelectionContext {
            now: Instant::from_secs(chunk as u64 * 4),
            media,
            chunk,
            audio_level: Duration::from_secs(20),
            video_level: Duration::from_secs(20),
            chunk_duration: Duration::from_secs(4),
            current_audio: None,
            current_video: None,
            playing: true,
        }
    }

    #[test]
    fn cap_clamps_rich_conditions() {
        // 8 Mbps estimate, cap at 900 Kbps aggregate: the clamp target is
        // V3+A2 (840 peak ≤ 900 < V4+A2 1389).
        let mut p = capped(900);
        feed(&mut p, 8_000);
        for chunk in 0..30 {
            let v = p.select(&ctx_at(MediaType::Video, chunk));
            let a = p.select(&ctx_at(MediaType::Audio, chunk));
            assert!(v.index <= 2, "video capped, got {v}");
            assert!(a.index <= 1, "audio capped, got {a}");
        }
        let v = p.select(&ctx_at(MediaType::Video, 31));
        let a = p.select(&ctx_at(MediaType::Audio, 31));
        assert_eq!(
            (v.index, a.index),
            (2, 1),
            "settles at the cap ceiling V3+A2"
        );
    }

    #[test]
    fn cap_is_inert_under_poor_conditions() {
        // A 400 Kbps estimate picks under the cap anyway: the wrapper must
        // not distort the inner decision.
        let mut p = capped(900);
        feed(&mut p, 400);
        let v = p.select(&ctx_at(MediaType::Video, 0));
        let a = p.select(&ctx_at(MediaType::Audio, 0));
        assert!(
            v.index <= 1 && a.index == 0,
            "inner decision passes through: {v}+{a}"
        );
    }

    #[test]
    fn joint_clamp_keeps_combination_allowed() {
        let mut p = capped(900);
        feed(&mut p, 8_000);
        let content = Content::drama_show(1);
        let allowed = curated_subset(content.video(), content.audio());
        for chunk in 0..40 {
            let v = p.select(&ctx_at(MediaType::Video, chunk));
            let a = p.select(&ctx_at(MediaType::Audio, chunk));
            assert!(allowed.contains(&Combo::new(v.index, a.index)));
        }
    }

    #[test]
    fn name_encodes_cap() {
        assert_eq!(capped(900).name(), "bestpractice+cap900");
    }

    #[test]
    #[should_panic(expected = "below the cheapest")]
    fn impossible_cap_rejected() {
        capped(100);
    }
}
