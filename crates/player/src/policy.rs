//! The ABR policy interface.
//!
//! A policy sees exactly what a real client-side rate-adaptation module
//! sees: completed-transfer records (with full delivery profiles, so any
//! real estimator — whole-transfer, interval-sampled, per-media — can be
//! built on top) and a selection context (buffer levels, playback state,
//! chunk position). It returns the track to fetch for the next chunk of
//! the requested media type.

use abr_event::time::{Duration, Instant};
use abr_media::track::{MediaType, TrackId};
use abr_media::units::{BitsPerSec, Bytes};
use abr_net::profile::DeliveryProfile;

/// A completed chunk transfer, as observed by the client.
#[derive(Debug, Clone)]
pub struct TransferRecord {
    /// Media type of the chunk.
    pub media: MediaType,
    /// Track the chunk came from.
    pub track: TrackId,
    /// Playback-order chunk index.
    pub chunk: usize,
    /// On-the-wire bytes transferred (body + headers).
    pub size: Bytes,
    /// When the request was issued.
    pub opened_at: Instant,
    /// When the last byte arrived.
    pub completed_at: Instant,
    /// Full delivery history.
    pub profile: DeliveryProfile,
    /// Bytes delivered across **all** of the client's flows since the last
    /// completion event (ExoPlayer's aggregate `BandwidthMeter` samples at
    /// transfer boundaries over all concurrent transfers; per-stream
    /// estimators ignore this). Zero for the second and later completions
    /// of a same-instant batch, and zero throughout a session whose policy
    /// does not read the meter ([`AbrPolicy::reads_meter`]) unless the
    /// session is traced.
    pub window_bytes: Bytes,
    /// Busy time (some flow actively delivering) in the same window; zero
    /// in the same cases as `window_bytes`.
    pub window_busy: Duration,
}

impl TransferRecord {
    /// Whole-transfer throughput: size over request-to-last-byte wall time.
    /// `None` for an instantaneous transfer.
    pub fn throughput(&self) -> Option<BitsPerSec> {
        let d = self.completed_at.saturating_duration_since(self.opened_at);
        if d.is_zero() {
            return None;
        }
        Some(self.size.rate_over_micros(d.as_micros()))
    }
}

/// Everything a policy may consult when choosing the next track.
#[derive(Debug, Clone, Copy)]
pub struct SelectionContext {
    /// Current virtual time.
    pub now: Instant,
    /// The media type a decision is needed for.
    pub media: MediaType,
    /// The chunk index about to be fetched.
    pub chunk: usize,
    /// Audio buffer level, seconds.
    pub audio_level: Duration,
    /// Video buffer level, seconds.
    pub video_level: Duration,
    /// Duration of every chunk.
    pub chunk_duration: Duration,
    /// Ladder index of the most recently selected audio track, if any.
    pub current_audio: Option<usize>,
    /// Ladder index of the most recently selected video track, if any.
    pub current_video: Option<usize>,
    /// True once playback has started and is not stalled.
    pub playing: bool,
}

/// A rate-adaptation policy.
pub trait AbrPolicy {
    /// Human-readable policy name for logs and reports.
    fn name(&self) -> &str;

    /// Observes a completed transfer (both media types flow through here,
    /// matching what a client's network stack can see).
    fn on_transfer(&mut self, record: &TransferRecord);

    /// Chooses the track for the next chunk of `ctx.media`.
    fn select(&mut self, ctx: &SelectionContext) -> TrackId;

    /// The policy's current bandwidth estimate, for logging; `None` when
    /// the policy has no meaningful single estimate.
    fn debug_estimate(&self) -> Option<BitsPerSec> {
        None
    }

    /// Hands the policy an observability handle. Instrumented policies
    /// store it and emit `estimate_updated` / `policy_decision` events;
    /// the default implementation ignores it.
    fn set_obs(&mut self, obs: &abr_obs::ObsHandle) {
        let _ = obs;
    }

    /// True when the policy reads [`TransferRecord::window_bytes`] and
    /// [`TransferRecord::window_busy`]. An untraced session computes the
    /// aggregate meter window only for such a policy; for any other, both
    /// fields are zero. The default is `true`, so a wrapper that does not
    /// forward this method still hands its inner policy the real window.
    fn reads_meter(&self) -> bool {
        true
    }
}

/// A trivial fixed-track policy, useful for tests and as a baseline: always
/// the given rungs.
#[derive(Debug, Clone)]
pub struct FixedPolicy {
    /// Video ladder index to always select.
    pub video: usize,
    /// Audio ladder index to always select.
    pub audio: usize,
}

impl AbrPolicy for FixedPolicy {
    fn name(&self) -> &str {
        "fixed"
    }

    fn on_transfer(&mut self, _record: &TransferRecord) {}

    fn select(&mut self, ctx: &SelectionContext) -> TrackId {
        match ctx.media {
            MediaType::Audio => TrackId::audio(self.audio),
            MediaType::Video => TrackId::video(self.video),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_throughput() {
        let rec = TransferRecord {
            media: MediaType::Video,
            track: TrackId::video(0),
            chunk: 0,
            size: Bytes(125_000),
            opened_at: Instant::from_secs(10),
            completed_at: Instant::from_secs(11),
            profile: DeliveryProfile::new(),
            window_bytes: Bytes(125_000),
            window_busy: Duration::from_secs(1),
        };
        assert_eq!(rec.throughput(), Some(BitsPerSec::from_kbps(1000)));
        let instant = TransferRecord {
            completed_at: Instant::from_secs(10),
            ..rec
        };
        assert_eq!(instant.throughput(), None);
    }

    #[test]
    fn fixed_policy_selects_constant_tracks() {
        let mut p = FixedPolicy { video: 2, audio: 1 };
        let ctx = SelectionContext {
            now: Instant::ZERO,
            media: MediaType::Video,
            chunk: 0,
            audio_level: Duration::ZERO,
            video_level: Duration::ZERO,
            chunk_duration: Duration::from_secs(4),
            current_audio: None,
            current_video: None,
            playing: false,
        };
        assert_eq!(p.select(&ctx), TrackId::video(2));
        let actx = SelectionContext {
            media: MediaType::Audio,
            ..ctx
        };
        assert_eq!(p.select(&actx), TrackId::audio(1));
        assert_eq!(p.name(), "fixed");
        assert_eq!(p.debug_estimate(), None);
    }
}
