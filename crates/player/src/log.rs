//! Session records — the raw material for every figure.
//!
//! A session, and a recorded trace of one, fold each event into a row per
//! selection, transfer, playlist fetch, buffer sample, stall and seek;
//! the experiment harness turns these into the paper's time-series plots
//! and QoE summaries.

use crate::digest::{BufferStats, ChunkPicks};
use crate::playback::{Seek, Stall};
use abr_event::time::{Duration, Instant};
use abr_media::track::{MediaType, TrackId};
use abr_media::units::{BitsPerSec, Bytes};
use abr_obs::{Event, TracedEvent};

/// One track-selection decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionEvent {
    /// When the decision was made (request issue time).
    pub at: Instant,
    /// Chunk index the decision applies to.
    pub chunk: usize,
    /// The chosen track.
    pub track: TrackId,
    /// The chosen track's declared bitrate (for plotting Fig 2/3/5-style
    /// selection timelines).
    pub declared: BitsPerSec,
    /// The chosen track's average bitrate (Fig 2 plots average bitrates).
    pub avg_bitrate: BitsPerSec,
}

/// One completed transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferEvent {
    /// Completion time.
    pub at: Instant,
    /// Chunk index.
    pub chunk: usize,
    /// Track downloaded from.
    pub track: TrackId,
    /// On-the-wire bytes.
    pub size: Bytes,
    /// Request-to-completion wall time.
    pub duration: Duration,
    /// The policy's bandwidth estimate right after this transfer, if the
    /// policy exposes one (Fig 4 plots the estimate trajectory).
    pub estimate_after: Option<BitsPerSec>,
}

/// One second-level playlist fetch (when the session models them; §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaylistFetchEvent {
    /// Whose playlist.
    pub track: TrackId,
    /// When the playlist request was issued.
    pub requested_at: Instant,
    /// When it arrived (chunk requests for this track wait until then
    /// under lazy fetching).
    pub completed_at: Instant,
}

/// One buffer-level sample (taken at every simulation event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferSample {
    /// Sample time.
    pub at: Instant,
    /// Audio buffer level.
    pub audio: Duration,
    /// Video buffer level.
    pub video: Duration,
}

/// A chunk that was selected more than once for the same media type —
/// returned by [`SessionLog::try_selected_tracks`] on logs a session
/// would never produce on its own (sessions never re-fetch a chunk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateSelection {
    /// Media type with the duplicate.
    pub media: MediaType,
    /// Chunk index selected twice.
    pub chunk: usize,
    /// Ladder index of the earlier selection.
    pub first: usize,
    /// Ladder index of the later selection.
    pub second: usize,
}

impl std::fmt::Display for DuplicateSelection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "duplicate {} selection for chunk {}: index {} then {}",
            self.media, self.chunk, self.first, self.second
        )
    }
}

impl std::error::Error for DuplicateSelection {}

/// The complete record of one streaming session.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionLog {
    /// Policy name that produced this session.
    pub policy: String,
    /// Selection decisions in decision order.
    pub selections: Vec<SelectionEvent>,
    /// Completed transfers in completion order.
    pub transfers: Vec<TransferEvent>,
    /// Buffer levels over time (piecewise-linear between samples while
    /// playing; constant while stalled).
    pub buffer_samples: Vec<BufferSample>,
    /// Stall events.
    pub stalls: Vec<Stall>,
    /// Second-level playlist fetches (empty when playlists are preloaded).
    pub playlist_fetches: Vec<PlaylistFetchEvent>,
    /// User seeks applied during the session.
    pub seeks: Vec<Seek>,
    /// When playback started.
    pub startup_at: Option<Instant>,
    /// When playback finished all content.
    pub ended_at: Option<Instant>,
    /// When the simulation loop exited.
    pub finished_at: Instant,
    /// Chunk duration of the content.
    pub chunk_duration: Duration,
    /// Number of chunks in the content.
    pub num_chunks: usize,
}

impl SessionLog {
    /// Selections filtered to one media type.
    pub fn selections_for(&self, media: MediaType) -> impl Iterator<Item = &SelectionEvent> {
        self.selections
            .iter()
            .filter(move |s| s.track.media == media)
    }

    /// Ladder index selected for each chunk of `media`, in chunk order.
    /// If a chunk appears twice (hand-built or merged logs — a session
    /// never re-fetches), the later selection wins.
    pub fn selected_tracks(&self, media: MediaType) -> Vec<usize> {
        self.picks().tracks(media).collect()
    }

    /// The log's selections folded into per-chunk picks — the same
    /// accumulator a streamed [`crate::digest::SessionDigest`] keeps.
    pub fn picks(&self) -> ChunkPicks {
        ChunkPicks::from_selections(self.num_chunks, &self.selections)
    }

    /// Like [`SessionLog::selected_tracks`] but strict: reports the first
    /// chunk selected twice instead of resolving it last-write-wins.
    pub fn try_selected_tracks(&self, media: MediaType) -> Result<Vec<usize>, DuplicateSelection> {
        let mut out: Vec<Option<usize>> = vec![None; self.num_chunks];
        for s in self.selections_for(media) {
            if let Some(first) = out[s.chunk].replace(s.track.index) {
                return Err(DuplicateSelection {
                    media,
                    chunk: s.chunk,
                    first,
                    second: s.track.index,
                });
            }
        }
        Ok(out.into_iter().flatten().collect())
    }

    /// Distinct ladder indices selected for `media`.
    pub fn distinct_tracks(&self, media: MediaType) -> Vec<usize> {
        let mut v = self.selected_tracks(media);
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of track switches (consecutive chunks on different rungs).
    pub fn switch_count(&self, media: MediaType) -> usize {
        self.picks().switch_count(media)
    }

    /// Total rebuffering time (open stalls measured to session end).
    pub fn total_stall(&self) -> Duration {
        Stall::total(&self.stalls, self.finished_at)
    }

    /// Number of stall events.
    pub fn stall_count(&self) -> usize {
        self.stalls.len()
    }

    /// Mean of the selected tracks' average bitrates over played chunks of
    /// one media type (the paper's Fig 2 y-axis).
    pub fn mean_selected_avg_bitrate(&self, media: MediaType) -> Option<BitsPerSec> {
        self.picks().mean_avg_bitrate(media)
    }

    /// Time integral of |audio level − video level| divided by session
    /// length: the buffer-imbalance measure for Fig 5(b) and the §4.2
    /// balance recommendation.
    pub fn mean_buffer_imbalance(&self) -> Duration {
        BufferStats::from_samples(&self.buffer_samples).mean_imbalance()
    }

    /// The maximum buffer imbalance observed at any sample.
    pub fn max_buffer_imbalance(&self) -> Duration {
        BufferStats::from_samples(&self.buffer_samples).max_imbalance()
    }

    /// True when every chunk of both media types was selected and the
    /// content played to the end.
    pub fn completed(&self) -> bool {
        let picks = self.picks();
        self.ended_at.is_some()
            && picks.filled(MediaType::Audio) == self.num_chunks
            && picks.filled(MediaType::Video) == self.num_chunks
    }

    /// Reconstructs a session log from a recorded event trace (the events
    /// captured by `abr_obs::RecordingTracer` during a traced run, or
    /// parsed back from JSONL with `abr_obs::export::from_jsonl`): seed
    /// the log from the leading `session_start`, then fold every later
    /// event with the same fold a running session records through.
    ///
    /// A trace from a traced session reconstructs the directly-recorded
    /// log exactly — the integration test in `abr-bench` holds this
    /// equality over a full replay.
    pub fn from_trace(events: &[TracedEvent]) -> Result<SessionLog, FromTraceError> {
        let (first, rest) = events
            .split_first()
            .ok_or_else(|| FromTraceError::new(0, "trace has no session_start"))?;
        let Event::SessionStart {
            policy,
            chunk_duration,
            num_chunks,
        } = &first.event
        else {
            return Err(FromTraceError::new(first.seq, "event before session_start"));
        };
        let mut log = SessionLog {
            policy: policy.clone(),
            finished_at: first.at,
            chunk_duration: *chunk_duration,
            num_chunks: *num_chunks,
            ..SessionLog::default()
        };
        for ev in rest {
            log.fold(ev.at, &ev.event)
                .map_err(|message| FromTraceError::new(ev.seq, message))?;
        }
        Ok(log)
    }

    /// Folds one session event stamped `at` into the log: the one place an
    /// [`Event`] becomes a log row or a lifecycle field, for a running
    /// session and a replayed trace alike. Network, cache and policy
    /// detail events carry no row. A `session_start` is an error here (it
    /// seeds a log, see [`SessionLog::from_trace`]), and so is an event no
    /// session could produce.
    pub(crate) fn fold(&mut self, at: Instant, event: &Event) -> Result<(), &'static str> {
        match *event {
            Event::TrackSelected {
                chunk,
                track,
                declared,
                avg_bitrate,
            } => {
                if chunk >= self.num_chunks {
                    return Err("track_selected chunk out of range");
                }
                self.selections.push(SelectionEvent {
                    at,
                    chunk,
                    track,
                    declared,
                    avg_bitrate,
                });
            }
            Event::TransferCompleted {
                track,
                chunk,
                size,
                opened_at,
                estimate_after,
                ..
            } => {
                if opened_at > at {
                    return Err("transfer_completed opened after it completed");
                }
                self.transfers.push(TransferEvent {
                    at,
                    chunk,
                    track,
                    size,
                    duration: at - opened_at,
                    estimate_after,
                });
            }
            Event::BufferStateChange { audio, video } => {
                self.buffer_samples.push(BufferSample { at, audio, video });
            }
            Event::StallBegin => self.stalls.push(Stall {
                start: at,
                end: None,
            }),
            Event::StallEnd => {
                let stall = self
                    .stalls
                    .last_mut()
                    .filter(|s| s.end.is_none())
                    .ok_or("stall_end without open stall")?;
                stall.end = Some(at);
            }
            Event::SeekStarted { from, to } => self.seeks.push(Seek {
                at,
                from,
                to,
                resumed: None,
            }),
            Event::SeekResumed => {
                let seek = self
                    .seeks
                    .last_mut()
                    .filter(|s| s.resumed.is_none())
                    .ok_or("seek_resumed without open seek")?;
                seek.resumed = Some(at);
            }
            Event::PlaylistFetch {
                track,
                requested_at,
            } => self.playlist_fetches.push(PlaylistFetchEvent {
                track,
                requested_at,
                completed_at: at,
            }),
            Event::PlaybackStarted => self.startup_at = Some(at),
            Event::PlaybackEnded => self.ended_at = Some(at),
            Event::SessionEnd => self.finished_at = at,
            Event::SessionStart { .. } => return Err("second session_start"),
            Event::RequestIssued { .. }
            | Event::TransferProgress { .. }
            | Event::CacheLookup { .. }
            | Event::EstimateUpdated { .. }
            | Event::PolicyDecision { .. }
            | Event::PlaylistRefreshTick { .. } => {}
        }
        Ok(())
    }
}

/// Error from [`SessionLog::from_trace`]: the trace is not a well-formed
/// session history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FromTraceError {
    /// Sequence number of the offending event (0 for an empty trace).
    pub seq: u64,
    /// What was wrong.
    pub message: String,
}

impl FromTraceError {
    fn new(seq: u64, message: &str) -> FromTraceError {
        FromTraceError {
            seq,
            message: message.to_string(),
        }
    }
}

impl std::fmt::Display for FromTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace event {}: {}", self.seq, self.message)
    }
}

impl std::error::Error for FromTraceError {}

/// Serialization of session records (enabled by the `serde` feature):
/// each event row becomes a JSON object, a [`SessionLog`] an object of
/// arrays plus the scalar session fields.
#[cfg(feature = "serde")]
mod serde_impls {
    use super::*;
    use serde::{Map, Serialize, Value};

    macro_rules! impl_struct_serialize {
        ($ty:ty { $($field:ident),+ $(,)? }) => {
            impl Serialize for $ty {
                fn to_value(&self) -> Value {
                    let mut map = Map::new();
                    $( map.insert(stringify!($field).to_string(), self.$field.to_value()); )+
                    Value::Object(map)
                }
            }
        };
    }

    impl_struct_serialize!(SelectionEvent {
        at,
        chunk,
        track,
        declared,
        avg_bitrate
    });
    impl_struct_serialize!(TransferEvent {
        at,
        chunk,
        track,
        size,
        duration,
        estimate_after
    });
    impl_struct_serialize!(PlaylistFetchEvent {
        track,
        requested_at,
        completed_at
    });
    impl_struct_serialize!(BufferSample { at, audio, video });
    impl_struct_serialize!(Stall { start, end });
    impl_struct_serialize!(Seek {
        at,
        from,
        to,
        resumed
    });
    impl_struct_serialize!(SessionLog {
        policy,
        selections,
        transfers,
        buffer_samples,
        stalls,
        playlist_fetches,
        seeks,
        startup_at,
        ended_at,
        finished_at,
        chunk_duration,
        num_chunks,
    });
}
