//! The streaming session: public configuration facade over the
//! discrete-event engine.
//!
//! One session streams one piece of content through one policy over one
//! link and produces a [`SessionLog`]. [`Session`] itself is only the
//! builder: `run` hands the configured parts to the engine (`engine.rs`),
//! which advances virtual time exclusively by popping a typed per-class
//! event clock — transfer completions, playback boundaries,
//! buffer refills and the deadline are all events. All state
//! transitions happen at exact instants; nothing is polled.
//!
//! Playlists are modelled as §4.1 describes them for VoD: preloaded, or
//! fetched once per track, eagerly or lazily, under demuxed delivery.
//! Muxed delivery runs only with preloaded playlists (DESIGN.md §7).

use crate::clock::Clock;
use crate::config::PlayerConfig;
use crate::digest::{Recorder, SessionDigest};
use crate::engine::Engine;
use crate::log::SessionLog;
use crate::playback::PlaybackEngine;
use crate::policy::AbrPolicy;
use crate::scratch::SessionScratch;
use crate::transfer::FlightBoard;
use abr_event::time::{Duration, Instant};
use abr_httpsim::origin::Origin;
use abr_httpsim::request::{ObjectId, Request};
use abr_manifest::build::{build_media_playlist, playlist_uri, Packaging};
use abr_media::track::{MediaType, TrackSet, TrackTable};
use abr_net::link::Link;
use abr_obs::ObsHandle;

/// How content is packaged for delivery (§1's muxed-vs-demuxed axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Separate audio and video tracks: two pipelines, per-media chunks —
    /// the paper's subject. The default.
    Demuxed,
    /// Pre-combined audio+video variants: one download per chunk position
    /// carrying both components. There is no pipeline-coordination problem
    /// by construction — the trade-off §1 describes is that the origin
    /// must store (and the CDN cache) every M×N pairing.
    Muxed,
}

/// When the player fetches second-level media playlists (§4.1, footnote 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaylistFetch {
    /// Playlists are already known (out-of-band / cached): no extra
    /// transfers. The default.
    Preloaded,
    /// All playlists are fetched up front, before the first chunk — §4.1's
    /// recommendation ("the player should download these files and read
    /// the information before making rate adaptation decisions").
    Eager,
    /// A track's playlist is fetched only when a chunk from that track is
    /// first selected — the practice §4.1 recommends *avoiding*: every
    /// first use of a track stalls the pipeline for a playlist round trip.
    Lazy,
}

/// A configured streaming session, ready to run.
pub struct Session {
    origin: Origin,
    link: Link,
    policy: Box<dyn AbrPolicy>,
    config: PlayerConfig,
    deadline: Instant,
    playlist_fetch: PlaylistFetch,
    packaging: Packaging,
    delivery: DeliveryMode,
    path: Option<Box<dyn abr_httpsim::edge::TransferPath>>,
    obs: ObsHandle,
}

impl Session {
    /// Builds a session. The default simulation deadline is 20× the content
    /// duration plus two minutes — hit only by pathologically starved runs.
    pub fn new(
        origin: Origin,
        link: Link,
        policy: Box<dyn AbrPolicy>,
        config: PlayerConfig,
    ) -> Session {
        config.validate();
        let deadline = Instant::ZERO + origin.content().duration() * 20 + Duration::from_secs(120);
        Session {
            origin,
            link,
            policy,
            config,
            deadline,
            playlist_fetch: PlaylistFetch::Preloaded,
            packaging: Packaging::SegmentFiles {
                with_bitrate_tags: false,
            },
            delivery: DeliveryMode::Demuxed,
            path: None,
            obs: ObsHandle::disabled(),
        }
    }

    /// Attaches an observability handle. The session distributes it to the
    /// link, the transfer path, and the policy, and emits the full
    /// lifecycle event stream ([`abr_obs::Event::SessionStart`] through
    /// [`abr_obs::Event::SessionEnd`]) while it runs. A trace recorded this
    /// way reconstructs the [`SessionLog`] exactly via
    /// [`SessionLog::from_trace`].
    pub fn with_obs(mut self, obs: ObsHandle) -> Session {
        self.obs = obs;
        self
    }

    /// Routes requests through a [`TransferPath`]: an
    /// [`EdgeCache`](abr_httpsim::edge::EdgeCache), whose misses pay an
    /// extra origin round trip and warm the cache, or a fleet's
    /// [`abr_httpsim::shared::SharedEdge`] onto a shared per-domain cache
    /// and origin uplink. The path decides the whole extra first-byte
    /// delay. To read a cache back after the run, pass a clone of an
    /// `Rc<RefCell<_>>` holding it and keep the original.
    ///
    /// [`TransferPath`]: abr_httpsim::edge::TransferPath
    pub fn with_transfer_path(mut self, path: Box<dyn abr_httpsim::edge::TransferPath>) -> Session {
        self.path = Some(path);
        self
    }

    /// Switches to muxed delivery (§1): one transfer per chunk position
    /// carrying both components; the policy's video and audio selections
    /// for a position are fetched as a single pre-combined variant.
    pub fn with_delivery(mut self, delivery: DeliveryMode) -> Session {
        self.delivery = delivery;
        self
    }

    /// Selects the server packaging: whole segment files (default) or byte
    /// ranges into one file per track (§4.1's `EXT-X-BYTERANGE` mode).
    /// Chunk requests and second-level playlists both follow it. Transfer
    /// sizes of chunks are identical; only the request shape differs.
    pub fn with_packaging(mut self, packaging: Packaging) -> Session {
        self.packaging = packaging;
        self
    }

    /// Overrides the simulation deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Session {
        self.deadline = deadline;
        self
    }

    /// Enables second-level playlist fetching (§4.1, footnote 2): the
    /// session builds every track's media playlist for its packaging,
    /// publishes it at the origin when it starts, and the player pays real
    /// transfers for them — up front (`Eager`) or on first use of each
    /// track (`Lazy`).
    pub fn with_playlist_fetch(mut self, mode: PlaylistFetch) -> Session {
        self.playlist_fetch = mode;
        self
    }

    /// Runs to completion (content fully played, starvation, or deadline)
    /// and returns the session log.
    pub fn run(self) -> SessionLog {
        self.run_with_scratch(&mut SessionScratch::default())
    }

    /// Runs to completion keeping only the online QoE digest: the
    /// run-to-completion twin of [`Session::into_digest_stepper`], for
    /// callers that only summarize the session (`exp mc`).
    pub fn run_digest(self) -> SessionDigest {
        let recorder = self.digest_recorder();
        self.into_engine(recorder).run().into_digest()
    }

    /// Like [`Session::run`], but builds the log's event vectors out of a
    /// caller-owned [`SessionScratch`]'s pooled capacity, so back-to-back
    /// log sessions on one thread stop paying per-session vector growth
    /// (DESIGN.md §15). Hand the finished log back to
    /// [`SessionScratch::reclaim`] once it has been summarized.
    pub fn run_with_scratch(self, scratch: &mut SessionScratch) -> SessionLog {
        let recorder = self.log_recorder(std::mem::take(scratch));
        self.into_engine(recorder).run().into_log()
    }

    /// Consumes the builder into an externally-clocked
    /// [`SessionStepper`](crate::stepper::SessionStepper): the session's
    /// `t = 0` round runs immediately, and the caller then advances it one
    /// event at a time — the fleet driver's entry point (DESIGN.md §14).
    pub fn into_stepper(self) -> crate::stepper::SessionStepper {
        let recorder = self.log_recorder(SessionScratch::default());
        crate::stepper::SessionStepper::new(self.into_engine(recorder))
    }

    /// [`Session::into_stepper`] keeping only the online QoE digest
    /// (DESIGN.md §14): what a fleet session that keeps no log runs. Read
    /// it back with [`SessionStepper::finish_digest`].
    ///
    /// [`SessionStepper::finish_digest`]: crate::stepper::SessionStepper::finish_digest
    pub fn into_digest_stepper(self) -> crate::stepper::SessionStepper {
        let recorder = self.digest_recorder();
        crate::stepper::SessionStepper::new(self.into_engine(recorder))
    }

    /// A recorder keeping the full log, its event vectors built out of a
    /// donated scratch's pooled capacity (DESIGN.md §15). `Engine::finish`
    /// hands the vectors back inside the log;
    /// [`SessionScratch::reclaim`] recovers them.
    fn log_recorder(&self, scratch: SessionScratch) -> Recorder {
        let content = self.origin.content();
        Recorder::Log(SessionLog {
            policy: self.policy.name().to_string(),
            selections: scratch.selections,
            transfers: scratch.transfers,
            buffer_samples: scratch.buffer_samples,
            playlist_fetches: scratch.playlist_fetches,
            chunk_duration: content.chunk_duration(),
            num_chunks: content.num_chunks(),
            ..SessionLog::default()
        })
    }

    /// A recorder keeping only the online QoE digest.
    fn digest_recorder(&self) -> Recorder {
        let digest = SessionDigest::new(self.policy.name(), self.origin.content().num_chunks());
        Recorder::Digest(digest, None)
    }

    /// Consumes the builder into a ready-to-run engine recording into
    /// `recorder`. A session that fetches playlists builds every track's
    /// media playlist for its packaging here and publishes it at the
    /// origin, recording its transfer size.
    ///
    /// Panics on muxed delivery with `Eager` or `Lazy` playlist fetching:
    /// a muxed variant has no per-track media playlists to fetch.
    fn into_engine(mut self, recorder: Recorder) -> Engine {
        assert!(
            self.delivery == DeliveryMode::Demuxed
                || self.playlist_fetch == PlaylistFetch::Preloaded,
            "muxed delivery with {:?} playlist fetching is not modelled; \
             muxed sessions run with preloaded playlists",
            self.playlist_fetch
        );
        let content = self.origin.shared_content();
        let mut playlist_sizes = TrackTable::new();
        if self.playlist_fetch != PlaylistFetch::Preloaded {
            for &id in content.track_ids() {
                let body = build_media_playlist(&content, id, self.packaging).to_text();
                let path = playlist_uri(id);
                self.origin.publish_document(&path, &body);
                let req = Request::whole(ObjectId::Document { path });
                let size = self.origin.transfer_size(&req).expect("published above");
                playlist_sizes.insert(id, size);
            }
        }
        let chunk_duration = content.chunk_duration();
        let num_chunks = content.num_chunks();
        let duration = content.duration();
        Engine {
            content,
            chunk_duration,
            num_chunks,
            deadline: self.deadline,
            delivery: self.delivery,
            packaging: self.packaging,
            playlist_fetch: self.playlist_fetch,
            playlist_sizes,
            origin: self.origin,
            link: self.link,
            policy: self.policy,
            path: self.path,
            audio_buf: crate::buffer::ChunkBuffer::new(MediaType::Audio, chunk_duration),
            video_buf: crate::buffer::ChunkBuffer::new(MediaType::Video, chunk_duration),
            playback: PlaybackEngine::new(
                duration,
                self.config.startup_threshold,
                self.config.resume_threshold,
            ),
            config: self.config,
            flights: FlightBoard::default(),
            current_audio: None,
            current_video: None,
            playlists_ready: TrackSet::new(),
            clock: Clock::default(),
            now: Instant::ZERO,
            recorder,
            obs: self.obs,
        }
    }
}
