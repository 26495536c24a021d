//! The fetch layer: deciding *what* to request next.
//!
//! One scheduling round per simulation step: ask the scheduler which media
//! pipelines are due (§4.2 pipeline coordination), ask the policy which
//! track each should fetch, and hand the resulting requests to the
//! transfer layer. Under muxed delivery the two selections collapse into
//! one pre-combined request; under lazy playlist fetching a first-use
//! track detours through a playlist round trip first.

use crate::engine::Engine;
use crate::log::SelectionEvent;
use crate::playback::PlayState;
use crate::policy::SelectionContext;
use crate::scheduler::{due_fetches, DueFetches, PipelineState};
use crate::session::{DeliveryMode, PlaylistFetch};
use crate::transfer::{ChunkFetch, Pending};
use abr_media::track::{MediaType, TrackId};
use abr_obs::Event;

impl Engine {
    /// Issues every due fetch at the current instant: one scheduling round
    /// of scheduler → policy → transfer layer.
    pub(crate) fn schedule_fetches(&mut self) {
        let _g = self.obs.span("fetch.round");
        // Under eager fetching, adaptation waits for every playlist.
        let gated = self.playlist_fetch == PlaylistFetch::Eager
            && self.playlists_ready.len() < self.total_tracks;
        let mut due = if gated {
            DueFetches::default()
        } else {
            due_fetches(
                &self.config,
                self.pipeline(MediaType::Audio),
                self.pipeline(MediaType::Video),
                self.num_chunks,
            )
        };
        if self.delivery == DeliveryMode::Muxed {
            // One pipeline: each muxed transfer fills both buffers,
            // so only the video pipeline issues requests.
            due.retain(|m| m == MediaType::Video);
        }
        for media in due {
            let buf = match media {
                MediaType::Audio => &self.audio_buf,
                MediaType::Video => &self.video_buf,
            };
            let chunk = buf.next_download_index();
            let ctx = SelectionContext {
                now: self.now,
                media,
                chunk,
                audio_level: self.audio_buf.level(),
                video_level: self.video_buf.level(),
                chunk_duration: self.chunk_duration,
                current_audio: self.current_audio,
                current_video: self.current_video,
                playing: self.playback.state() == PlayState::Playing,
            };
            let track = self.select(&ctx);
            if self.delivery == DeliveryMode::Muxed {
                // Ask the policy for the paired audio component too
                // (joint policies return the same combination).
                let actx = SelectionContext {
                    media: MediaType::Audio,
                    ..ctx
                };
                let audio_track = self.select(&actx);
                let combo = abr_media::combo::Combo::new(track.index, audio_track.index);
                let req = abr_httpsim::request::Request::whole(
                    abr_httpsim::request::ObjectId::MuxedSegment { combo, chunk },
                );
                self.open_transfer(
                    &req,
                    self.now,
                    None,
                    Some(chunk),
                    Pending::Muxed {
                        video: track,
                        audio: audio_track,
                        chunk,
                        opened_at: self.now,
                    },
                );
                continue;
            }
            let fetch = ChunkFetch {
                media,
                track,
                chunk,
                opened_at: self.now,
            };
            if self.playlist_fetch == PlaylistFetch::Lazy && !self.playlists_ready.contains(track) {
                // §4.1's warned-against practice: the chunk request
                // must wait for this track's playlist round trip.
                self.open_playlist_fetch(track, self.now, Some(fetch));
            } else {
                let req = self.chunk_request(track, chunk);
                self.open_transfer(
                    &req,
                    self.now,
                    Some(track),
                    Some(chunk),
                    Pending::Chunk(fetch),
                );
            }
        }
        self.obs
            .gauge("session.pending_requests", self.flights.len() as f64);
    }

    /// The scheduler's view of one media pipeline.
    fn pipeline(&self, media: MediaType) -> PipelineState {
        let buf = match media {
            MediaType::Audio => &self.audio_buf,
            MediaType::Video => &self.video_buf,
        };
        PipelineState {
            in_flight: self.flights.in_flight(media),
            next_chunk: buf.next_download_index(),
            level: buf.level(),
        }
    }

    /// Runs (and profiles) one policy selection, validates it, records it
    /// as the current track for its media, and logs + traces it.
    fn select(&mut self, ctx: &SelectionContext) -> TrackId {
        let track = {
            let _g = self.obs.span("policy.select");
            self.policy.select(ctx)
        };
        assert_eq!(track.media, ctx.media, "policy returned wrong media type");
        assert!(
            track.index < self.content.ladder(ctx.media).len(),
            "policy selected out-of-ladder track {track}"
        );
        match ctx.media {
            MediaType::Audio => self.current_audio = Some(track.index),
            MediaType::Video => self.current_video = Some(track.index),
        }
        let info = self.content.track(track);
        let chunk = ctx.chunk;
        self.record.selection(SelectionEvent {
            at: self.now,
            chunk,
            track,
            declared: info.declared,
            avg_bitrate: info.avg,
        });
        self.obs.emit(self.now, || Event::TrackSelected {
            chunk,
            track,
            declared: info.declared,
            avg_bitrate: info.avg,
        });
        track
    }
}
