//! One combination ladder for every policy.
//!
//! The policies differ only in their rule (Exo's buffer gates, Shaka's fit
//! rule, BBA's rate map, best-practice's hysteresis, MPC's horizon search,
//! the data-saver clamp). The combinations they choose from are built,
//! ordered, searched and recorded by [`ComboLadder`]; the joint policies
//! (BBA, best-practice, MPC, the data saver) decide one combination per
//! chunk position through one frame, `select_joint`.

use abr_manifest::view::{BoundDash, BoundHls};
use abr_media::combo::{log_staircase_rates, Combo};
use abr_media::track::TrackId;
use abr_media::units::BitsPerSec;
use abr_obs::{Event, ObsHandle};
use abr_player::policy::SelectionContext;
use std::collections::BTreeMap;

/// A policy's candidate combinations and their aggregate bandwidths.
#[derive(Debug, Clone)]
pub struct ComboLadder {
    combos: Vec<Combo>,
    bandwidths: Vec<BitsPerSec>,
}

impl ComboLadder {
    /// The ladder over `pairs`, sorted by (bandwidth, video, audio).
    /// Panics on an empty list.
    pub fn new(mut pairs: Vec<(Combo, BitsPerSec)>) -> ComboLadder {
        assert!(!pairs.is_empty(), "no candidate combinations");
        pairs.sort_by_key(|&(c, bw)| (bw, c.video, c.audio));
        let (combos, bandwidths) = pairs.into_iter().unzip();
        ComboLadder { combos, bandwidths }
    }

    /// An HLS master playlist's variants, at their declared aggregate
    /// `BANDWIDTH`.
    pub fn from_hls(view: &BoundHls) -> ComboLadder {
        ComboLadder::new(
            view.variants
                .iter()
                .map(|v| (v.combo, v.bandwidth))
                .collect(),
        )
    }

    /// Server-curated combinations over a DASH manifest (the §4.1
    /// out-of-band list or extension); bandwidths are per-track declared
    /// sums.
    pub fn from_dash(view: &BoundDash, allowed: &[Combo]) -> ComboLadder {
        ComboLadder::new(
            allowed
                .iter()
                .map(|&c| (c, declared_sum(view, c)))
                .collect(),
        )
    }

    /// All M×N combinations of a DASH manifest — what Shaka synthesizes
    /// when the manifest names none (§3.3).
    pub fn cross_product(view: &BoundDash) -> ComboLadder {
        let audio = 0..view.audio_declared.len();
        ComboLadder::new(
            (0..view.video_declared.len())
                .flat_map(|v| audio.clone().map(move |a| Combo::new(v, a)))
                .map(|c| (c, declared_sum(view, c)))
                .collect(),
        )
    }

    /// ExoPlayer's log staircase over per-track rates (DESIGN.md §4), in
    /// staircase order: not re-sorted, since the staircase order is the
    /// policy's own.
    pub fn staircase(video: &[BitsPerSec], audio: &[BitsPerSec]) -> ComboLadder {
        let combos = log_staircase_rates(video, audio);
        let bandwidths = combos
            .iter()
            .map(|c| video[c.video] + audio[c.audio])
            .collect();
        ComboLadder { combos, bandwidths }
    }

    /// The combinations whose bandwidth is at most `cap`, or `None` when
    /// none is. On a sorted ladder they are a prefix, so indices agree.
    pub fn under(&self, cap: BitsPerSec) -> Option<ComboLadder> {
        let n = self.bandwidths.iter().take_while(|&&bw| bw <= cap).count();
        (n > 0).then(|| ComboLadder {
            combos: self.combos[..n].to_vec(),
            bandwidths: self.bandwidths[..n].to_vec(),
        })
    }

    /// The combinations, in ladder order.
    pub fn combos(&self) -> &[Combo] {
        &self.combos
    }

    /// Each combination's aggregate bandwidth.
    pub fn bandwidths(&self) -> &[BitsPerSec] {
        &self.bandwidths
    }

    /// Index of `combo` on the ladder.
    pub fn position(&self, combo: Combo) -> Option<usize> {
        self.combos.iter().position(|&c| c == combo)
    }

    /// The highest index whose bandwidth fits `budget`, or 0 when none
    /// does.
    pub fn highest_within(&self, budget: BitsPerSec) -> usize {
        highest_within(&self.bandwidths, budget)
    }

    /// Records the `PolicyDecision` of choosing combination `idx` for
    /// `ctx.media`, and returns the chosen track. The candidate labels and
    /// the reason are built only when tracing is on.
    pub fn record(
        &self,
        obs: &ObsHandle,
        ctx: &SelectionContext,
        idx: usize,
        reason: impl FnOnce() -> String,
    ) -> TrackId {
        let chosen = self.combos[idx].id_for(ctx.media);
        emit_decision(
            obs,
            ctx,
            chosen,
            || self.combos.iter().map(ToString::to_string).collect(),
            reason,
        );
        chosen
    }
}

fn declared_sum(view: &BoundDash, c: Combo) -> BitsPerSec {
    view.video_declared[c.video] + view.audio_declared[c.audio]
}

/// The highest index of `rates` whose rate fits `budget`, or 0 when none
/// does.
pub(crate) fn highest_within(rates: &[BitsPerSec], budget: BitsPerSec) -> usize {
    rates.iter().rposition(|&bw| bw <= budget).unwrap_or(0)
}

/// Records the `PolicyDecision` of a per-media policy choosing `rung` of
/// `ctx.media`'s `tracks`, and returns the chosen track; the reason is
/// built only when tracing is on.
pub(crate) fn record_track_decision(
    obs: &ObsHandle,
    ctx: &SelectionContext,
    tracks: usize,
    rung: usize,
    reason: impl FnOnce() -> String,
) -> TrackId {
    let chosen = TrackId {
        media: ctx.media,
        index: rung,
    };
    let candidates = || (0..tracks).map(|index| TrackId { index, ..chosen }.to_string());
    emit_decision(obs, ctx, chosen, || candidates().collect(), reason);
    chosen
}

fn emit_decision(
    obs: &ObsHandle,
    ctx: &SelectionContext,
    chosen: TrackId,
    candidates: impl FnOnce() -> Vec<String>,
    reason: impl FnOnce() -> String,
) {
    obs.emit(ctx.now, || Event::PolicyDecision {
        media: ctx.media,
        chunk: ctx.chunk,
        candidates: candidates(),
        chosen,
        reason: reason(),
    });
}

/// How many recent chunk positions a [`JointFrame`] keeps locked.
const LOCKED_POSITIONS: usize = 8;

/// A joint policy's ladder, its decision locked per recent chunk position,
/// and the handle its events go to. The session asks for audio and video
/// separately and the estimate or buffer may move in between; the lock
/// keeps both in one combination (§4.2).
#[derive(Debug, Clone)]
pub(crate) struct JointFrame {
    /// The combinations the policy decides over.
    pub ladder: ComboLadder,
    /// Where the policy's decisions and estimates are recorded.
    pub obs: ObsHandle,
    locked: BTreeMap<usize, usize>,
}

impl JointFrame {
    /// A frame over `ladder` with nothing locked and tracing off.
    pub(crate) fn new(ladder: ComboLadder) -> JointFrame {
        JointFrame {
            ladder,
            obs: ObsHandle::disabled(),
            locked: BTreeMap::new(),
        }
    }

    /// Locks `idx` for `chunk`, then forgets the smallest other positions
    /// beyond [`LOCKED_POSITIONS`]; `chunk` stays even after a backward seek.
    fn lock(&mut self, chunk: usize, idx: usize) {
        self.locked.insert(chunk, idx);
        while self.locked.len() > LOCKED_POSITIONS {
            let oldest = *self
                .locked
                .keys()
                .find(|&&c| c != chunk)
                .expect("more than one position locked");
            self.locked.remove(&oldest);
        }
    }
}

/// A policy that decides one combination per chunk position over a
/// [`JointFrame`]; [`select_joint`] is its `AbrPolicy::select`.
pub(crate) trait JointPolicy {
    /// The policy's frame.
    fn frame(&mut self) -> &mut JointFrame;

    /// The policy's own rule: the ladder index for a position not yet
    /// locked, and why.
    fn decide(&mut self, ctx: &SelectionContext) -> (usize, &'static str);
}

/// Selects `ctx.media`'s track for `ctx.chunk`: the combination locked for
/// the position if the other media's request decided it, else the
/// policy's decision, locked. Records the `PolicyDecision` once.
pub(crate) fn select_joint(policy: &mut impl JointPolicy, ctx: &SelectionContext) -> TrackId {
    let (idx, reason) = match policy.frame().locked.get(&ctx.chunk) {
        Some(&idx) => (idx, "combination locked for this chunk position"),
        None => {
            let (idx, reason) = policy.decide(ctx);
            policy.frame().lock(ctx.chunk, idx);
            (idx, reason)
        }
    };
    let frame = policy.frame();
    frame
        .ladder
        .record(&frame.obs, ctx, idx, || reason.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_media::track::MediaType;

    fn ladder(kbps: &[(usize, usize, u64)]) -> ComboLadder {
        ComboLadder::new(
            kbps.iter()
                .map(|&(v, a, k)| (Combo::new(v, a), BitsPerSec::from_kbps(k)))
                .collect(),
        )
    }

    #[test]
    fn one_ordering_rule_breaks_ties_by_video_then_audio() {
        let l = ladder(&[(2, 0, 500), (1, 1, 300), (1, 0, 500), (0, 2, 500)]);
        let labels: Vec<String> = l.combos().iter().map(ToString::to_string).collect();
        assert_eq!(labels, ["V2+A2", "V1+A3", "V2+A1", "V3+A1"]);
    }

    #[test]
    fn highest_within_falls_back_to_the_bottom() {
        let l = ladder(&[(0, 0, 200), (1, 0, 400), (2, 0, 800)]);
        assert_eq!(l.highest_within(BitsPerSec::from_kbps(100)), 0);
        assert_eq!(l.highest_within(BitsPerSec::from_kbps(400)), 1);
        assert_eq!(l.highest_within(BitsPerSec::from_kbps(5000)), 2);
    }

    #[test]
    fn lock_keeps_the_last_positions_and_the_one_being_decided() {
        let mut f = JointFrame::new(ladder(&[(0, 0, 200)]));
        for chunk in 10..20 {
            f.lock(chunk, 0);
        }
        let kept: Vec<usize> = f.locked.keys().copied().collect();
        assert_eq!(kept, (12..20).collect::<Vec<_>>(), "smallest dropped first");
        // A backward seek locks a position below every kept one: it stays,
        // and the smallest other position goes.
        f.lock(3, 0);
        let kept: Vec<usize> = f.locked.keys().copied().collect();
        assert_eq!(kept, [3, 13, 14, 15, 16, 17, 18, 19]);
    }

    fn kbps(k: &[u64]) -> Vec<BitsPerSec> {
        k.iter().map(|&k| BitsPerSec::from_kbps(k)).collect()
    }

    fn view() -> BoundDash {
        BoundDash {
            video_declared: kbps(&[300, 900, 2_000]),
            audio_declared: kbps(&[64, 128]),
            allowed_combos: None,
        }
    }

    fn ctx(media: MediaType, chunk: usize) -> SelectionContext {
        SelectionContext {
            now: abr_event::time::Instant::ZERO,
            media,
            chunk,
            audio_level: abr_event::time::Duration::ZERO,
            video_level: abr_event::time::Duration::ZERO,
            chunk_duration: abr_event::time::Duration::from_secs(4),
            current_audio: None,
            current_video: None,
            playing: false,
        }
    }

    #[test]
    #[should_panic(expected = "no candidate combinations")]
    fn rejects_an_empty_ladder() {
        let _ = ComboLadder::new(Vec::new());
    }

    #[test]
    fn under_keeps_the_affordable_prefix() {
        let l = ladder(&[(0, 0, 200), (1, 0, 400), (2, 0, 800)]);
        let capped = l.under(BitsPerSec::from_kbps(400)).expect("two fit");
        assert_eq!(capped.combos(), &l.combos()[..2]);
        assert_eq!(capped.bandwidths(), &l.bandwidths()[..2]);
        assert!(l.under(BitsPerSec::from_kbps(199)).is_none());
        assert_eq!(
            l.under(BitsPerSec::from_kbps(800)).unwrap().combos().len(),
            3
        );
    }

    #[test]
    fn position_finds_only_listed_combinations() {
        let l = ladder(&[(1, 0, 400), (0, 0, 200)]);
        assert_eq!(l.position(Combo::new(0, 0)), Some(0));
        assert_eq!(l.position(Combo::new(1, 0)), Some(1));
        assert_eq!(l.position(Combo::new(1, 1)), None);
    }

    #[test]
    fn cross_product_sums_declared_rates_of_every_pair() {
        let l = ComboLadder::cross_product(&view());
        assert_eq!(l.combos().len(), 6);
        for (&c, &bw) in l.combos().iter().zip(l.bandwidths()) {
            assert_eq!(
                bw,
                view().video_declared[c.video] + view().audio_declared[c.audio]
            );
        }
        assert!(l.bandwidths().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(l.combos()[0], Combo::new(0, 0));
        assert_eq!(l.combos()[5], Combo::new(2, 1));
    }

    #[test]
    fn from_dash_lists_only_the_allowed_combinations() {
        let allowed = [Combo::new(2, 1), Combo::new(0, 0)];
        let l = ComboLadder::from_dash(&view(), &allowed);
        assert_eq!(l.combos(), [Combo::new(0, 0), Combo::new(2, 1)]);
        assert_eq!(l.bandwidths(), kbps(&[364, 2_128]));
    }

    #[test]
    fn staircase_keeps_its_own_order() {
        let (video, audio) = (kbps(&[300, 900, 2_000]), kbps(&[64, 128]));
        let l = ComboLadder::staircase(&video, &audio);
        assert_eq!(l.combos(), log_staircase_rates(&video, &audio));
        for (&c, &bw) in l.combos().iter().zip(l.bandwidths()) {
            assert_eq!(bw, video[c.video] + audio[c.audio]);
        }
    }

    /// A joint policy that counts its decisions and always picks the top.
    struct CountingPolicy {
        frame: JointFrame,
        decisions: usize,
    }

    impl JointPolicy for CountingPolicy {
        fn frame(&mut self) -> &mut JointFrame {
            &mut self.frame
        }

        fn decide(&mut self, _ctx: &SelectionContext) -> (usize, &'static str) {
            self.decisions += 1;
            (self.frame.ladder.combos().len() - 1, "top")
        }
    }

    #[test]
    fn select_joint_decides_once_per_chunk_position() {
        let mut p = CountingPolicy {
            frame: JointFrame::new(ComboLadder::cross_product(&view())),
            decisions: 0,
        };
        assert_eq!(
            select_joint(&mut p, &ctx(MediaType::Video, 0)),
            TrackId::video(2)
        );
        assert_eq!(
            select_joint(&mut p, &ctx(MediaType::Audio, 0)),
            TrackId::audio(1)
        );
        assert_eq!(
            p.decisions, 1,
            "the audio request reads the locked combination"
        );
        let _ = select_joint(&mut p, &ctx(MediaType::Audio, 1));
        assert_eq!(p.decisions, 2, "a new position is decided afresh");
    }

    #[test]
    fn record_emits_one_decision_only_when_tracing() {
        let l = ladder(&[(0, 0, 200), (1, 1, 500)]);
        let (obs, tracer, _) = ObsHandle::recording();
        let chosen = l.record(&obs, &ctx(MediaType::Audio, 3), 1, || "why".into());
        assert_eq!(chosen, TrackId::audio(1));
        let events = tracer.snapshot();
        assert_eq!(events.len(), 1);
        let Event::PolicyDecision {
            media,
            chunk,
            candidates,
            chosen,
            reason,
        } = &events[0].event
        else {
            panic!("expected a policy decision, got {:?}", events[0].event);
        };
        assert_eq!(
            (*media, *chunk, *chosen),
            (MediaType::Audio, 3, TrackId::audio(1))
        );
        assert_eq!(candidates, &["V1+A1", "V2+A2"]);
        assert_eq!(reason, "why");
        // Switched off, neither the labels nor the reason are built.
        let chosen = l.record(&ObsHandle::disabled(), &ctx(MediaType::Video, 3), 0, || {
            panic!("reason built with tracing off")
        });
        assert_eq!(chosen, TrackId::video(0));
    }
}
