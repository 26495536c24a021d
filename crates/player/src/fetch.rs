//! The fetch layer: deciding *what* to request next.
//!
//! One scheduling round per simulation step: ask the scheduler which media
//! pipelines are due (§4.2 pipeline coordination), ask the policy which
//! track each should fetch, and hand the resulting requests to the
//! transfer layer. Under muxed delivery the two selections collapse into
//! one pre-combined chunk request; under lazy playlist fetching a
//! first-use track detours through a playlist round trip first.

use crate::engine::Engine;
use crate::playback::PlayState;
use crate::policy::SelectionContext;
use crate::scheduler::{due_fetches, DueFetches, PipelineState};
use crate::session::{DeliveryMode, PlaylistFetch};
use crate::transfer::ChunkFetch;
use abr_media::track::{MediaType, TrackId};
use abr_obs::Event;

impl Engine {
    /// Issues every due fetch at the current instant: one scheduling round
    /// of scheduler → policy → transfer layer.
    pub(crate) fn schedule_fetches(&mut self) {
        let _g = self.obs.span("fetch.round");
        // Under eager fetching, adaptation waits for every playlist.
        let gated = self.playlist_fetch == PlaylistFetch::Eager
            && self.playlists_ready.len() < self.playlist_sizes.len();
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
            // Under muxed delivery, ask the policy for the paired audio
            // component too (joint policies return the same combination).
            let muxed_audio = (self.delivery == DeliveryMode::Muxed).then(|| {
                self.select(&SelectionContext {
                    media: MediaType::Audio,
                    ..ctx
                })
            });
            if self.playlist_fetch == PlaylistFetch::Lazy && !self.playlists_ready.contains(track) {
                // §4.1's warned-against practice: the chunk request
                // must wait for this track's playlist round trip.
                self.open_playlist_fetch(track, self.now, Some(chunk));
            } else {
                self.open_chunk(ChunkFetch {
                    track,
                    chunk,
                    opened_at: self.now,
                    muxed_audio,
                });
            }
        }
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

    /// Runs (and profiles) one policy selection, validates it, makes it
    /// the current track for its media, and records it.
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
        let event = Event::TrackSelected {
            chunk: ctx.chunk,
            track,
            declared: info.declared,
            avg_bitrate: info.avg,
        };
        self.record(self.now, event);
        track
    }
}
