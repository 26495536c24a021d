//! The streaming session: public configuration facade over the
//! discrete-event engine.
//!
//! One session streams one piece of content through one policy over one
//! link and produces a [`SessionLog`]. [`Session`] itself is only the
//! builder: `run` hands the configured parts to the engine (`engine.rs`),
//! which advances virtual time exclusively by popping a typed per-class
//! event clock — transfer completions, playback boundaries,
//! buffer refills, seeks, playlist-refresh ticks and the deadline are all
//! events. All state transitions happen at exact instants; nothing is
//! polled.

use crate::clock::Clock;
use crate::config::PlayerConfig;
use crate::digest::{Recorder, SessionDigest};
use crate::engine::Engine;
use crate::log::SessionLog;
use crate::playback::PlaybackEngine;
use crate::policy::AbrPolicy;
use crate::transfer::FlightBoard;
use abr_event::time::{Duration, Instant};
use abr_httpsim::origin::Origin;
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
    playlist_sizes: TrackTable<abr_media::units::Bytes>,
    packaging: abr_manifest::build::Packaging,
    delivery: DeliveryMode,
    path: Option<Box<dyn abr_httpsim::edge::TransferPath>>,
    refresh_period: Option<Duration>,
    /// Scheduled user seeks: (wall time, target media position), sorted.
    seeks: Vec<(Instant, Duration)>,
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
            playlist_sizes: TrackTable::new(),
            packaging: abr_manifest::build::Packaging::SegmentFiles {
                with_bitrate_tags: false,
            },
            delivery: DeliveryMode::Demuxed,
            path: None,
            refresh_period: None,
            seeks: Vec::new(),
            obs: ObsHandle::disabled(),
        }
    }

    /// Attaches an observability handle. The session distributes it to the
    /// link, the origin, the transfer path, and the policy, and emits the full
    /// lifecycle event stream ([`abr_obs::Event::SessionStart`] through
    /// [`abr_obs::Event::SessionEnd`]) plus live metrics while it runs. A
    /// trace recorded this way reconstructs the [`SessionLog`] exactly via
    /// [`SessionLog::from_trace`].
    pub fn with_obs(mut self, obs: ObsHandle) -> Session {
        self.obs = obs;
        self
    }

    /// Schedules forward user seeks: at each wall-clock instant, jump the
    /// playhead to the given media position (rounded down to a chunk
    /// boundary). Seeks that land before startup, after content end, or
    /// behind the playhead are skipped.
    pub fn with_seeks(mut self, mut seeks: Vec<(Instant, Duration)>) -> Session {
        seeks.sort_by_key(|&(at, _)| at);
        self.seeks = seeks;
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
    /// Transfer sizes are identical; only the request shape differs.
    pub fn with_packaging(mut self, packaging: abr_manifest::build::Packaging) -> Session {
        self.packaging = packaging;
        self
    }

    /// Overrides the simulation deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Session {
        self.deadline = deadline;
        self
    }

    /// Enables second-level playlist fetching (§4.1, footnote 2): the
    /// session builds every track's media playlist, publishes it at the
    /// origin, and the player pays real transfers for them — up front
    /// (`Eager`) or on first use of each track (`Lazy`).
    pub fn with_playlist_fetch(
        mut self,
        mode: PlaylistFetch,
        packaging: abr_manifest::build::Packaging,
    ) -> Session {
        self.playlist_fetch = mode;
        if mode != PlaylistFetch::Preloaded {
            self.publish_playlists(packaging);
        }
        self
    }

    /// Enables live-style playlist refresh: every `period`, the player
    /// re-fetches the media playlists of its currently selected audio and
    /// video tracks (the polling a live HLS client performs to discover
    /// new segments). Poll transfers share the per-media request pipelines
    /// with chunk fetches, so slow polls measurably delay chunks — each
    /// tick is traced as [`abr_obs::Event::PlaylistRefreshTick`]. Off by
    /// default; VoD sessions are unaffected unless this is called.
    pub fn with_playlist_refresh(
        mut self,
        period: Duration,
        packaging: abr_manifest::build::Packaging,
    ) -> Session {
        assert!(period > Duration::ZERO, "refresh period must be positive");
        self.refresh_period = Some(period);
        if self.playlist_sizes.is_empty() {
            self.publish_playlists(packaging);
        }
        self
    }

    /// Builds and publishes every track's media playlist at the origin and
    /// records its transfer size (idempotent in effect: sizes are simply
    /// overwritten with identical values if already published).
    fn publish_playlists(&mut self, packaging: abr_manifest::build::Packaging) {
        let content = self.origin.shared_content();
        for &id in content.track_ids() {
            let playlist = abr_manifest::build::build_media_playlist(&content, id, packaging);
            let path = abr_manifest::build::playlist_uri(id);
            let body = playlist.to_text();
            self.origin.publish_document(&path, &body);
            let req =
                abr_httpsim::request::Request::whole(abr_httpsim::request::ObjectId::Document {
                    path,
                });
            let size = self
                .origin
                .transfer_size(&req)
                .expect("published just above");
            self.playlist_sizes.insert(id, size);
        }
    }

    /// Runs to completion (content fully played, starvation, or deadline)
    /// and returns the session log.
    pub fn run(self) -> SessionLog {
        self.into_engine().run().into_log()
    }

    /// Runs to completion keeping only the online QoE digest: the
    /// run-to-completion twin of [`Session::into_digest_stepper`], for
    /// callers that only summarize the session (`exp mc`).
    pub fn run_digest(self) -> SessionDigest {
        self.into_digest_engine().run().into_digest()
    }

    /// Like [`Session::run`], but builds the log's event vectors out of a
    /// caller-owned [`SessionScratch`]'s pooled capacity, so back-to-back
    /// log sessions on one thread stop paying per-session vector growth
    /// (DESIGN.md §15). Hand the finished log back to
    /// [`SessionScratch::reclaim`] once it has been summarized.
    ///
    /// [`SessionScratch`]: crate::scratch::SessionScratch
    /// [`SessionScratch::reclaim`]: crate::scratch::SessionScratch::reclaim
    pub fn run_with_scratch(self, scratch: &mut crate::scratch::SessionScratch) -> SessionLog {
        let donated = std::mem::take(scratch);
        self.into_engine_with(donated).run().into_log()
    }

    /// Consumes the builder into an externally-clocked
    /// [`SessionStepper`](crate::stepper::SessionStepper): the session's
    /// `t = 0` round runs immediately, and the caller then advances it one
    /// event at a time — the fleet driver's entry point (DESIGN.md §14).
    pub fn into_stepper(self) -> crate::stepper::SessionStepper {
        crate::stepper::SessionStepper::new(self.into_engine())
    }

    /// [`Session::into_stepper`] keeping only the online QoE digest
    /// (DESIGN.md §14): what a fleet session that keeps no log runs. Read
    /// it back with [`SessionStepper::finish_digest`].
    ///
    /// [`SessionStepper::finish_digest`]: crate::stepper::SessionStepper::finish_digest
    pub fn into_digest_stepper(self) -> crate::stepper::SessionStepper {
        crate::stepper::SessionStepper::new(self.into_digest_engine())
    }

    /// Consumes the builder into a ready-to-run engine.
    pub(crate) fn into_engine(self) -> Engine {
        self.into_engine_with(crate::scratch::SessionScratch::default())
    }

    /// Consumes the builder into a ready-to-run engine, building the log's
    /// event vectors out of a donated `SessionScratch`'s pooled capacity
    /// (DESIGN.md §15). `Engine::finish` hands the vectors back inside the
    /// log; [`crate::scratch::SessionScratch::reclaim`] recovers them.
    pub(crate) fn into_engine_with(self, scratch: crate::scratch::SessionScratch) -> Engine {
        let content = self.origin.content();
        let log = SessionLog {
            policy: self.policy.name().to_string(),
            selections: scratch.selections,
            transfers: scratch.transfers,
            buffer_samples: scratch.buffer_samples,
            playlist_fetches: scratch.playlist_fetches,
            chunk_duration: content.chunk_duration(),
            num_chunks: content.num_chunks(),
            ..SessionLog::default()
        };
        self.into_engine_recording(Recorder::Log(log))
    }

    /// Consumes the builder into a ready-to-run engine that records only
    /// the online QoE digest.
    fn into_digest_engine(self) -> Engine {
        let digest = SessionDigest::new(self.policy.name(), self.origin.content().num_chunks());
        self.into_engine_recording(Recorder::Digest(digest, None))
    }

    /// Consumes the builder into a ready-to-run engine recording into
    /// `recorder`.
    fn into_engine_recording(self, recorder: Recorder) -> Engine {
        let content = self.origin.shared_content();
        let chunk_duration = content.chunk_duration();
        let num_chunks = content.num_chunks();
        let total_tracks = content.track_ids().len();
        let duration = content.duration();
        Engine {
            content,
            chunk_duration,
            num_chunks,
            total_tracks,
            deadline: self.deadline,
            delivery: self.delivery,
            packaging: self.packaging,
            playlist_fetch: self.playlist_fetch,
            playlist_sizes: self.playlist_sizes,
            refresh_period: self.refresh_period,
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
            seek_queue: self.seeks.into_iter().collect(),
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
