//! Differential test: the event-queue engine versus the loop it replaced.
//!
//! `legacy_run` is a faithful port of the session loop as it existed
//! before the engine rewrite — virtual time advanced by taking the `min`
//! of the candidate instants (transfer completion, playback boundary,
//! refill wake, due seek) each iteration, with the deadline checked
//! inline. The engine instead arms those candidates as typed events on an
//! `abr_event::EventQueue` and pops the earliest. The two must produce
//! **identical** [`SessionLog`]s — every selection, transfer, buffer
//! sample, stall and timestamp — across every session feature.

use abr_event::time::{busy_union, Duration, Instant};
use abr_httpsim::edge::{EdgeCache, TransferPath};
use abr_httpsim::origin::Origin;
use abr_httpsim::request::{ObjectId, Request};
use abr_manifest::build::Packaging;
use abr_media::combo::Combo;
use abr_media::content::Content;
use abr_media::track::{MediaType, TrackId};
use abr_media::units::{BitsPerSec, Bytes};
use abr_net::link::{FlowId, Link};
use abr_net::trace::Trace;
use abr_player::buffer::ChunkBuffer;
use abr_player::config::PlayerConfig;
use abr_player::log::{
    BufferSample, PlaylistFetchEvent, SelectionEvent, SessionLog, TransferEvent,
};
use abr_player::playback::{PlayState, PlaybackEngine};
use abr_player::policy::{AbrPolicy, FixedPolicy, SelectionContext, TransferRecord};
use abr_player::scheduler::{due_fetches, DueFetches, PipelineState};
use abr_player::session::{DeliveryMode, PlaylistFetch, Session};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Everything a session run is parameterized by, for both implementations.
struct Scenario {
    content: Content,
    trace: Trace,
    latency: Duration,
    overhead: Bytes,
    config_of: fn(&Content) -> PlayerConfig,
    policy: fn() -> Box<dyn AbrPolicy>,
    packaging: Packaging,
    playlist_fetch: PlaylistFetch,
    delivery: DeliveryMode,
    edge: Option<(Bytes, Duration)>,
    seeks: Vec<(Instant, Duration)>,
    deadline: Option<Instant>,
}

impl Scenario {
    fn origin(&self) -> Origin {
        Origin::with_overhead(self.content.clone(), self.overhead)
    }

    fn link(&self) -> Link {
        Link::with_latency(self.trace.clone(), self.latency)
    }

    fn edge_cache(&self) -> Option<EdgeCache> {
        self.edge.map(|(capacity, penalty)| EdgeCache {
            cache: abr_httpsim::cache::CdnCache::new(capacity),
            miss_penalty: penalty,
        })
    }

    /// The new implementation: the public facade over the event engine.
    fn run_engine(&self) -> SessionLog {
        let config = (self.config_of)(&self.content);
        let mut s = Session::new(self.origin(), self.link(), (self.policy)(), config)
            .with_packaging(self.packaging)
            .with_delivery(self.delivery)
            .with_seeks(self.seeks.clone());
        if self.playlist_fetch != PlaylistFetch::Preloaded {
            s = s.with_playlist_fetch(self.playlist_fetch, self.packaging);
        }
        if let Some(e) = self.edge_cache() {
            s = s.with_transfer_path(Box::new(e));
        }
        if let Some(d) = self.deadline {
            s = s.with_deadline(d);
        }
        s.run()
    }

    /// The old implementation, ported verbatim (minus obs, which never
    /// fed the log): min-of-candidates time stepping.
    fn run_legacy(&self) -> SessionLog {
        let config = (self.config_of)(&self.content);
        config.validate();
        let mut origin = self.origin();
        let mut link = self.link();
        let mut policy = (self.policy)();
        let mut edge = self.edge_cache();
        let deadline = self
            .deadline
            .unwrap_or(Instant::ZERO + self.content.duration() * 20 + Duration::from_secs(120));

        // Playlist publication, as Session::with_playlist_fetch did it.
        let mut playlist_sizes: BTreeMap<TrackId, Bytes> = BTreeMap::new();
        if self.playlist_fetch != PlaylistFetch::Preloaded {
            for &id in self.content.track_ids() {
                let playlist =
                    abr_manifest::build::build_media_playlist(&self.content, id, self.packaging);
                let path = abr_manifest::build::playlist_uri(id);
                origin.publish_document(&path, &playlist.to_text());
                let req = Request::whole(ObjectId::Document { path });
                let size = origin.transfer_size(&req).expect("published just above");
                playlist_sizes.insert(id, size);
            }
        }

        let content = self.content.clone();
        let chunk_duration = content.chunk_duration();
        let num_chunks = content.num_chunks();
        let mut audio_buf = ChunkBuffer::new(MediaType::Audio, chunk_duration);
        let mut video_buf = ChunkBuffer::new(MediaType::Video, chunk_duration);
        let mut playback = PlaybackEngine::new(
            content.duration(),
            config.startup_threshold,
            config.resume_threshold,
        );
        let mut pending: BTreeMap<FlowId, Pending> = BTreeMap::new();
        let mut playlists_ready: BTreeSet<TrackId> = BTreeSet::new();
        let total_tracks = content.track_ids().len();
        let mut current_audio: Option<usize> = None;
        let mut current_video: Option<usize> = None;
        let mut log = SessionLog {
            policy: policy.name().to_string(),
            selections: Vec::new(),
            transfers: Vec::new(),
            buffer_samples: Vec::new(),
            stalls: Vec::new(),
            playlist_fetches: Vec::new(),
            seeks: Vec::new(),
            startup_at: None,
            ended_at: None,
            finished_at: Instant::ZERO,
            chunk_duration,
            num_chunks,
        };
        let mut now = Instant::ZERO;
        let mut meter_last = Instant::ZERO;

        macro_rules! schedule {
            () => {{
                let gated = self.playlist_fetch == PlaylistFetch::Eager
                    && playlists_ready.len() < total_tracks;
                let in_flight = |media: MediaType| pending.values().any(|p| p.media() == media);
                let pipes = |buf: &ChunkBuffer, media: MediaType| PipelineState {
                    in_flight: in_flight(media),
                    next_chunk: buf.next_download_index(),
                    level: buf.level(),
                };
                let mut due = if gated {
                    DueFetches::default()
                } else {
                    due_fetches(
                        &config,
                        pipes(&audio_buf, MediaType::Audio),
                        pipes(&video_buf, MediaType::Video),
                        num_chunks,
                    )
                };
                if self.delivery == DeliveryMode::Muxed {
                    due.retain(|m| m == MediaType::Video);
                }
                for media in due {
                    let buf = match media {
                        MediaType::Audio => &audio_buf,
                        MediaType::Video => &video_buf,
                    };
                    let chunk = buf.next_download_index();
                    let ctx = SelectionContext {
                        now,
                        media,
                        chunk,
                        audio_level: audio_buf.level(),
                        video_level: video_buf.level(),
                        chunk_duration,
                        current_audio,
                        current_video,
                        playing: playback.state() == PlayState::Playing,
                    };
                    let track = policy.select(&ctx);
                    match media {
                        MediaType::Audio => current_audio = Some(track.index),
                        MediaType::Video => current_video = Some(track.index),
                    }
                    let info = content.track(track);
                    log.selections.push(SelectionEvent {
                        at: now,
                        chunk,
                        track,
                        declared: info.declared,
                        avg_bitrate: info.avg,
                    });
                    if self.delivery == DeliveryMode::Muxed {
                        let actx = SelectionContext {
                            media: MediaType::Audio,
                            ..ctx
                        };
                        let audio_track = policy.select(&actx);
                        current_audio = Some(audio_track.index);
                        let ainfo = content.track(audio_track);
                        log.selections.push(SelectionEvent {
                            at: now,
                            chunk,
                            track: audio_track,
                            declared: ainfo.declared,
                            avg_bitrate: ainfo.avg,
                        });
                        let combo = Combo::new(track.index, audio_track.index);
                        let req = Request::whole(ObjectId::MuxedSegment { combo, chunk });
                        let size = origin.transfer_size(&req).expect("valid muxed chunk");
                        let extra = edge.first_byte_delay(&origin, &req, now);
                        let flow = link.open_flow_after(size, extra);
                        pending.insert(
                            flow,
                            Pending::Muxed {
                                video: track,
                                audio: audio_track,
                                chunk,
                                opened_at: now,
                            },
                        );
                        continue;
                    }
                    let fetch = ChunkFetch {
                        media,
                        track,
                        chunk,
                        opened_at: now,
                    };
                    if self.playlist_fetch == PlaylistFetch::Lazy
                        && !playlists_ready.contains(&track)
                    {
                        let size = playlist_sizes[&track];
                        let flow = link.open_flow(size);
                        pending.insert(
                            flow,
                            Pending::Playlist {
                                track,
                                requested_at: now,
                                then: Some(fetch),
                            },
                        );
                    } else {
                        let req = chunk_request(&origin, self.packaging, track, chunk);
                        let size = origin.transfer_size(&req).expect("valid chunk request");
                        let extra = edge.first_byte_delay(&origin, &req, now);
                        let flow = link.open_flow_after(size, extra);
                        pending.insert(flow, Pending::Chunk(fetch));
                    }
                }
            }};
        }

        macro_rules! sample {
            () => {
                log.buffer_samples.push(BufferSample {
                    at: now,
                    audio: audio_buf.level(),
                    video: video_buf.level(),
                });
            };
        }

        let mut seek_queue: VecDeque<(Instant, Duration)> = {
            let mut s = self.seeks.clone();
            s.sort_by_key(|&(at, _)| at);
            s.into_iter().collect()
        };
        if self.playlist_fetch == PlaylistFetch::Eager {
            for &track in content.track_ids() {
                let size = playlist_sizes[&track];
                let flow = link.open_flow(size);
                pending.insert(
                    flow,
                    Pending::Playlist {
                        track,
                        requested_at: now,
                        then: None,
                    },
                );
            }
        }
        schedule!();
        sample!();

        loop {
            if playback.state() == PlayState::Ended {
                break;
            }
            let completion = link.next_completion();
            let boundary = playback.next_boundary(now, &audio_buf, &video_buf);
            let refill = if playback.state() == PlayState::Playing {
                [
                    (&audio_buf, MediaType::Audio),
                    (&video_buf, MediaType::Video),
                ]
                .into_iter()
                .filter(|(buf, media)| {
                    !pending.values().any(|p| p.media() == *media)
                        && buf.next_download_index() < num_chunks
                        && buf.level() >= config.max_buffer
                })
                .map(|(buf, _)| now + (buf.level() - config.max_buffer) + Duration::from_millis(1))
                .min()
            } else {
                None
            };
            let seek_at = if playback.startup_at().is_some() {
                seek_queue.front().map(|&(at, _)| at.max(now))
            } else {
                None
            };
            let t = match [completion, boundary, refill, seek_at]
                .into_iter()
                .flatten()
                .min()
            {
                Some(t) => t,
                None => break, // starved: stalled with a dead link
            };
            if t > deadline {
                break;
            }

            let completions = link.advance_to(t);
            playback.advance(now, t, &mut audio_buf, &mut video_buf);
            now = t;

            let (window_bytes, window_busy) = if completions.is_empty() {
                (Bytes::ZERO, Duration::ZERO)
            } else {
                let mut bytes = Bytes::ZERO;
                let mut intervals: Vec<(Instant, Instant)> = Vec::new();
                {
                    let mut take = |profile: &abr_net::profile::DeliveryProfile| {
                        bytes += profile.bytes_between(meter_last, now);
                        for s in profile.segments() {
                            let lo = s.start.max(meter_last);
                            let hi = s.end.min(now);
                            if lo < hi {
                                intervals.push((lo, hi));
                            }
                        }
                    };
                    for c in &completions {
                        take(&c.profile);
                    }
                    for id in pending.keys() {
                        if let Some(p) = link.flow_profile(*id) {
                            take(p);
                        }
                    }
                }
                meter_last = now;
                (bytes, busy_union(intervals))
            };
            let mut first_completion = true;

            for c in completions {
                let p = match pending.remove(&c.id).expect("completion for unknown flow") {
                    Pending::Muxed {
                        video,
                        audio,
                        chunk,
                        opened_at,
                    } => {
                        audio_buf.push(audio, chunk);
                        video_buf.push(video, chunk);
                        let record = TransferRecord {
                            media: MediaType::Video,
                            track: video,
                            chunk,
                            size: c.size,
                            opened_at,
                            completed_at: c.at,
                            profile: c.profile,
                            window_bytes: if first_completion {
                                window_bytes
                            } else {
                                Bytes::ZERO
                            },
                            window_busy: if first_completion {
                                window_busy
                            } else {
                                Duration::ZERO
                            },
                        };
                        first_completion = false;
                        policy.on_transfer(&record);
                        log.transfers.push(TransferEvent {
                            at: c.at,
                            chunk,
                            track: video,
                            size: c.size,
                            duration: c.at.saturating_duration_since(opened_at),
                            estimate_after: policy.debug_estimate(),
                        });
                        continue;
                    }
                    Pending::Playlist {
                        track,
                        requested_at,
                        then,
                    } => {
                        playlists_ready.insert(track);
                        log.playlist_fetches.push(PlaylistFetchEvent {
                            track,
                            requested_at,
                            completed_at: c.at,
                        });
                        if let Some(fetch) = then {
                            let buf = match fetch.media {
                                MediaType::Audio => &audio_buf,
                                MediaType::Video => &video_buf,
                            };
                            if fetch.chunk != buf.next_download_index() {
                                continue;
                            }
                            let req =
                                chunk_request(&origin, self.packaging, fetch.track, fetch.chunk);
                            let size = origin.transfer_size(&req).expect("valid chunk request");
                            let extra = edge.first_byte_delay(&origin, &req, c.at);
                            let flow = link.open_flow_after(size, extra);
                            pending.insert(
                                flow,
                                Pending::Chunk(ChunkFetch {
                                    opened_at: c.at,
                                    ..fetch
                                }),
                            );
                        }
                        continue;
                    }
                    Pending::Chunk(f) => f,
                };
                let buf = match p.media {
                    MediaType::Audio => &mut audio_buf,
                    MediaType::Video => &mut video_buf,
                };
                buf.push(p.track, p.chunk);
                let (wb, wd) = if first_completion {
                    (window_bytes, window_busy)
                } else {
                    (Bytes::ZERO, Duration::ZERO)
                };
                first_completion = false;
                let record = TransferRecord {
                    media: p.media,
                    track: p.track,
                    chunk: p.chunk,
                    size: c.size,
                    opened_at: p.opened_at,
                    completed_at: c.at,
                    profile: c.profile,
                    window_bytes: wb,
                    window_busy: wd,
                };
                policy.on_transfer(&record);
                log.transfers.push(TransferEvent {
                    at: c.at,
                    chunk: p.chunk,
                    track: p.track,
                    size: c.size,
                    duration: c.at.saturating_duration_since(p.opened_at),
                    estimate_after: policy.debug_estimate(),
                });
            }

            while let Some(&(at, target)) = seek_queue.front() {
                if at > now || playback.startup_at().is_none() {
                    break;
                }
                seek_queue.pop_front();
                let chunk_idx = (target.as_micros() / chunk_duration.as_micros()) as usize;
                let aligned = chunk_duration * chunk_idx as u64;
                if playback.state() == PlayState::Ended
                    || chunk_idx >= num_chunks
                    || aligned <= playback.position()
                {
                    continue;
                }
                let stale: Vec<FlowId> = pending
                    .iter()
                    .filter(|(_, p)| !matches!(p, Pending::Playlist { .. }))
                    .map(|(id, _)| *id)
                    .collect();
                for id in stale {
                    pending.remove(&id);
                    link.cancel_flow(id);
                }
                audio_buf.flush_to(chunk_idx);
                video_buf.flush_to(chunk_idx);
                playback.seek(now, aligned);
            }

            playback.try_start(now, &audio_buf, &video_buf);
            schedule!();
            sample!();
        }

        log.startup_at = playback.startup_at();
        log.ended_at = playback.ended_at();
        log.stalls = playback.stalls().to_vec();
        log.seeks = playback.seeks().to_vec();
        log.finished_at = now;
        log
    }
}

#[derive(Debug, Clone, Copy)]
struct ChunkFetch {
    media: MediaType,
    track: TrackId,
    chunk: usize,
    opened_at: Instant,
}

#[derive(Debug, Clone, Copy)]
enum Pending {
    Chunk(ChunkFetch),
    Playlist {
        track: TrackId,
        requested_at: Instant,
        then: Option<ChunkFetch>,
    },
    Muxed {
        video: TrackId,
        audio: TrackId,
        chunk: usize,
        opened_at: Instant,
    },
}

impl Pending {
    fn media(&self) -> MediaType {
        match self {
            Pending::Chunk(c) => c.media,
            Pending::Playlist { track, .. } => track.media,
            Pending::Muxed { .. } => MediaType::Video,
        }
    }
}

fn chunk_request(origin: &Origin, packaging: Packaging, track: TrackId, chunk: usize) -> Request {
    match packaging {
        Packaging::SingleFile => origin
            .range_request(track, chunk)
            .expect("valid chunk range"),
        Packaging::SegmentFiles { .. } => Origin::segment_request(track, chunk),
    }
}

fn kbps(k: u64) -> BitsPerSec {
    BitsPerSec::from_kbps(k)
}

fn base(trace: Trace, policy_video: usize, policy_audio: usize) -> Scenario {
    Scenario {
        content: Content::drama_show(1),
        trace,
        latency: Duration::ZERO,
        overhead: Bytes::ZERO,
        config_of: |c| PlayerConfig::default_chunked(c.chunk_duration()),
        policy: || Box::new(FixedPolicy { video: 0, audio: 0 }),
        packaging: Packaging::SegmentFiles {
            with_bitrate_tags: false,
        },
        playlist_fetch: PlaylistFetch::Preloaded,
        delivery: DeliveryMode::Demuxed,
        edge: None,
        seeks: Vec::new(),
        deadline: None,
    }
    .with_policy(policy_video, policy_audio)
}

impl Scenario {
    fn with_policy(mut self, _video: usize, _audio: usize) -> Scenario {
        // FixedPolicy is Copy-constructed in the closure; encode the choice
        // via dedicated closures below instead (fn pointers can't capture).
        self.policy = match (_video, _audio) {
            (0, 0) => || Box::new(FixedPolicy { video: 0, audio: 0 }),
            (1, 0) => || Box::new(FixedPolicy { video: 1, audio: 0 }),
            (2, 1) => || Box::new(FixedPolicy { video: 2, audio: 1 }),
            (4, 1) => || Box::new(FixedPolicy { video: 4, audio: 1 }),
            (5, 2) => || Box::new(FixedPolicy { video: 5, audio: 2 }),
            _ => unreachable!("add a closure arm for this track pair"),
        };
        self
    }

    fn check(self) {
        let engine = self.run_engine();
        let legacy = self.run_legacy();
        assert_eq!(engine, legacy);
    }
}

#[test]
fn parity_ample_constant_link() {
    base(Trace::constant(kbps(5_000)), 0, 0).check();
}

#[test]
fn parity_starved_link_with_stalls() {
    base(Trace::constant(kbps(500)), 5, 2).check();
}

#[test]
fn parity_variable_link() {
    let mut s = base(
        Trace::random_walk(
            kbps(900),
            kbps(200),
            kbps(2_000),
            0.4,
            Duration::from_secs(3),
            Duration::from_secs(3600),
            5,
        ),
        2,
        1,
    );
    s.content = Content::drama_show(99);
    s.latency = Duration::from_millis(20);
    s.overhead = Bytes(320);
    s.check();
}

#[test]
fn parity_lazy_playlists() {
    let mut s = base(Trace::constant(kbps(2_000)), 2, 1);
    s.latency = Duration::from_millis(40);
    s.overhead = Bytes(320);
    s.playlist_fetch = PlaylistFetch::Lazy;
    s.packaging = Packaging::SingleFile;
    s.check();
}

#[test]
fn parity_eager_playlists() {
    let mut s = base(Trace::constant(kbps(2_000)), 1, 0);
    s.latency = Duration::from_millis(40);
    s.overhead = Bytes(320);
    s.playlist_fetch = PlaylistFetch::Eager;
    s.packaging = Packaging::SingleFile;
    s.check();
}

#[test]
fn parity_muxed_delivery() {
    base(Trace::constant(kbps(2_000)), 1, 0)
        .tap(|s| s.delivery = DeliveryMode::Muxed)
        .check();
}

#[test]
fn parity_edge_cache() {
    base(Trace::constant(kbps(2_000)), 1, 0)
        .tap(|s| {
            s.latency = Duration::from_millis(10);
            s.edge = Some((Bytes(1 << 32), Duration::from_millis(80)));
        })
        .check();
}

#[test]
fn parity_seeks() {
    base(Trace::constant(kbps(2_000)), 1, 0)
        .tap(|s| {
            s.latency = Duration::from_millis(20);
            s.seeks = vec![
                (Instant::from_secs(30), Duration::from_secs(200)),
                (Instant::from_secs(100), Duration::from_secs(4)),
            ];
        })
        .check();
}

#[test]
fn parity_deadline_cutoff() {
    base(Trace::constant(kbps(1)), 0, 0)
        .tap(|s| s.deadline = Some(Instant::from_secs(600)))
        .check();
}

#[test]
fn parity_byte_range_packaging() {
    base(Trace::constant(kbps(1_500)), 1, 0)
        .tap(|s| {
            s.latency = Duration::from_millis(20);
            s.overhead = Bytes(320);
            s.packaging = Packaging::SingleFile;
        })
        .check();
}

impl Scenario {
    fn tap(mut self, f: impl FnOnce(&mut Scenario)) -> Scenario {
        f(&mut self);
        self
    }
}
