//! The structured event vocabulary.
//!
//! Every observable state change in the simulator maps to one [`Event`]
//! variant. Events are *facts about the simulation*, stamped with the
//! simulated clock by the emitter — so a trace reconstructs a
//! `SessionLog` exactly and is a pure function of the session.

use abr_event::time::{Duration, Instant};
use abr_media::track::{MediaType, TrackId};
use abr_media::units::{BitsPerSec, Bytes};

/// One structured observation from the simulator.
///
/// Variant granularity follows the qlog philosophy: each is a typed record
/// of a single protocol- or player-level happening, carrying enough payload
/// to reconstruct the session history without replaying the simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A session begins: identifies the policy and content shape.
    SessionStart {
        /// Name of the ABR policy driving the session.
        policy: String,
        /// Duration of one chunk.
        chunk_duration: Duration,
        /// Number of chunks per track.
        num_chunks: usize,
    },
    /// An HTTP-level request was handed to the link.
    RequestIssued {
        /// Link flow carrying the response body.
        flow: u64,
        /// Track the request is for (`None` for muxed/playlist bookkeeping
        /// where a single track does not apply).
        track: Option<TrackId>,
        /// Chunk index (`None` for playlist fetches).
        chunk: Option<usize>,
        /// Response body size.
        size: Bytes,
    },
    /// Periodic progress of an in-flight transfer (emitted at simulation
    /// boundaries while a flow is active).
    TransferProgress {
        /// The flow making progress.
        flow: u64,
        /// Bytes delivered so far.
        delivered: Bytes,
        /// Bytes still outstanding.
        remaining: Bytes,
        /// The per-flow share rate over the elapsed interval.
        rate: BitsPerSec,
    },
    /// A chunk transfer finished and was pushed into a buffer.
    TransferCompleted {
        /// The flow that completed.
        flow: u64,
        /// Track the chunk belongs to (video track for muxed segments).
        track: TrackId,
        /// Chunk index.
        chunk: usize,
        /// Transferred size.
        size: Bytes,
        /// When the request was issued.
        opened_at: Instant,
        /// The policy's bandwidth estimate after ingesting this transfer.
        estimate_after: Option<BitsPerSec>,
    },
    /// An edge-cache lookup was served.
    CacheLookup {
        /// Human-readable object key.
        object: String,
        /// Whether the object was already cached.
        hit: bool,
        /// Object size.
        size: Bytes,
    },
    /// A bandwidth estimator revised its estimate.
    EstimateUpdated {
        /// Estimate before the update (`None` if the estimator had no
        /// measured value yet).
        old: Option<BitsPerSec>,
        /// Estimate after the update.
        new: BitsPerSec,
        /// Aggregate bytes in the measurement window that drove the update.
        window_bytes: Bytes,
    },
    /// An ABR policy made a selection decision.
    PolicyDecision {
        /// Media type being decided.
        media: MediaType,
        /// Chunk index being decided.
        chunk: usize,
        /// Labels of the candidates the policy considered.
        candidates: Vec<String>,
        /// The track it chose.
        chosen: TrackId,
        /// Short human-readable rationale.
        reason: String,
    },
    /// The session committed a track selection for a chunk (one per media
    /// type; authoritative for log reconstruction).
    TrackSelected {
        /// Chunk index.
        chunk: usize,
        /// Selected track.
        track: TrackId,
        /// Declared (manifest) bitrate of that track.
        declared: BitsPerSec,
        /// True average bitrate of that track.
        avg_bitrate: BitsPerSec,
    },
    /// Buffer levels were sampled after a scheduling round.
    BufferStateChange {
        /// Audio buffer level.
        audio: Duration,
        /// Video buffer level.
        video: Duration,
    },
    /// Playback entered a rebuffering stall.
    StallBegin,
    /// Playback recovered from a stall.
    StallEnd,
    /// Startup completed; playback began.
    PlaybackStarted,
    /// The presentation played to its end.
    PlaybackEnded,
    /// The user seeked; playback stops until the buffer refills.
    SeekStarted {
        /// Playback position the seek left.
        from: Duration,
        /// Target position.
        to: Duration,
    },
    /// Playback resumed after a seek.
    SeekResumed,
    /// A media-playlist fetch completed.
    PlaylistFetch {
        /// Track whose playlist was fetched.
        track: TrackId,
        /// When the playlist request was issued.
        requested_at: Instant,
    },
    /// A live playlist-refresh timer fired and the session re-requested its
    /// media playlists (emitted by the engine's refresh-tick handler).
    PlaylistRefreshTick {
        /// Number of playlist refetches issued by this tick.
        refetched: usize,
    },
    /// The session ended (deadline, starvation, or playback end).
    SessionEnd,
}

impl Event {
    /// Stable snake_case name of this event (the `"name"` field in JSONL
    /// output and the event name in Chrome traces).
    pub fn name(&self) -> &'static str {
        match self {
            Event::SessionStart { .. } => "session_start",
            Event::RequestIssued { .. } => "request_issued",
            Event::TransferProgress { .. } => "transfer_progress",
            Event::TransferCompleted { .. } => "transfer_completed",
            Event::CacheLookup { .. } => "cache_lookup",
            Event::EstimateUpdated { .. } => "estimate_updated",
            Event::PolicyDecision { .. } => "policy_decision",
            Event::TrackSelected { .. } => "track_selected",
            Event::BufferStateChange { .. } => "buffer_state",
            Event::StallBegin => "stall_begin",
            Event::StallEnd => "stall_end",
            Event::PlaybackStarted => "playback_started",
            Event::PlaybackEnded => "playback_ended",
            Event::SeekStarted { .. } => "seek_started",
            Event::SeekResumed => "seek_resumed",
            Event::PlaylistFetch { .. } => "playlist_fetch",
            Event::PlaylistRefreshTick { .. } => "playlist_refresh_tick",
            Event::SessionEnd => "session_end",
        }
    }
}

/// An [`Event`] as captured by a recording tracer: stamped with a
/// monotonic sequence number and the simulated clock.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedEvent {
    /// Monotonic per-tracer sequence number (total order of emission).
    pub seq: u64,
    /// Simulated time the event happened at.
    pub at: Instant,
    /// Always 0 from the recording tracer, which reads no host clock; the
    /// field keeps the JSONL `wall_ns` key, and so every existing trace,
    /// byte-identical.
    pub wall_ns: u64,
    /// The event payload.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_snake_case_and_distinct() {
        let events = [
            Event::StallBegin,
            Event::StallEnd,
            Event::PlaybackStarted,
            Event::PlaybackEnded,
            Event::SeekResumed,
            Event::SessionEnd,
        ];
        let names: Vec<&str> = events.iter().map(Event::name).collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn every_variant_has_its_own_name() {
        let track = TrackId::video(0);
        let (b, r) = (Bytes(1), BitsPerSec::from_kbps(1));
        let events = [
            Event::SessionStart {
                policy: String::new(),
                chunk_duration: Duration::ZERO,
                num_chunks: 0,
            },
            Event::RequestIssued {
                flow: 0,
                track: None,
                chunk: None,
                size: b,
            },
            Event::TransferProgress {
                flow: 0,
                delivered: b,
                remaining: b,
                rate: r,
            },
            Event::TransferCompleted {
                flow: 0,
                track,
                chunk: 0,
                size: b,
                opened_at: Instant::ZERO,
                estimate_after: None,
            },
            Event::CacheLookup {
                object: String::new(),
                hit: false,
                size: b,
            },
            Event::EstimateUpdated {
                old: None,
                new: r,
                window_bytes: b,
            },
            Event::PolicyDecision {
                media: MediaType::Video,
                chunk: 0,
                candidates: Vec::new(),
                chosen: track,
                reason: String::new(),
            },
            Event::TrackSelected {
                chunk: 0,
                track,
                declared: r,
                avg_bitrate: r,
            },
            Event::BufferStateChange {
                audio: Duration::ZERO,
                video: Duration::ZERO,
            },
            Event::StallBegin,
            Event::StallEnd,
            Event::PlaybackStarted,
            Event::PlaybackEnded,
            Event::SeekStarted {
                from: Duration::ZERO,
                to: Duration::ZERO,
            },
            Event::SeekResumed,
            Event::PlaylistFetch {
                track,
                requested_at: Instant::ZERO,
            },
            Event::PlaylistRefreshTick { refetched: 0 },
            Event::SessionEnd,
        ];
        let mut names: Vec<&str> = events.iter().map(Event::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), events.len());
    }
}
