//! End-to-end session behavior through the public facade: startup, stalls,
//! pipeline balance, playlists, seeks, edge caching, muxed delivery,
//! packaging equivalence, live refresh, and bit-reproducibility.

use abr_event::time::{Duration, Instant};
use abr_httpsim::edge::EdgeCache;
use abr_httpsim::origin::Origin;
use abr_media::content::Content;
use abr_media::track::{MediaType, TrackId};
use abr_media::units::{BitsPerSec, Bytes};
use abr_net::link::Link;
use abr_net::trace::Trace;
use abr_player::config::{PlayerConfig, SyncMode};
use abr_player::log::SessionLog;
use abr_player::policy::FixedPolicy;
use abr_player::session::{DeliveryMode, PlaylistFetch, Session};
use std::cell::RefCell;
use std::rc::Rc;

fn kbps(k: u64) -> BitsPerSec {
    BitsPerSec::from_kbps(k)
}

fn run_fixed(rate_kbps: u64, video: usize, audio: usize, sync: SyncMode) -> SessionLog {
    let content = Content::drama_show(1);
    let origin = Origin::with_overhead(content.clone(), Bytes::ZERO);
    let link = Link::new(Trace::constant(kbps(rate_kbps)));
    let config = PlayerConfig {
        sync,
        ..PlayerConfig::default_chunked(content.chunk_duration())
    };
    Session::new(origin, link, Box::new(FixedPolicy { video, audio }), config).run()
}

const CHUNKED: SyncMode = SyncMode::ChunkLevel {
    tolerance: Duration::from_secs(4),
};

#[test]
fn ample_bandwidth_plays_clean() {
    // V1+A1 needs ~239 Kbps average; 5 Mbps is overkill.
    let log = run_fixed(5_000, 0, 0, CHUNKED);
    assert!(log.completed(), "must play to the end");
    assert_eq!(log.stall_count(), 0);
    assert_eq!(log.selected_tracks(MediaType::Video), vec![0; 75]);
    assert_eq!(log.selected_tracks(MediaType::Audio), vec![0; 75]);
    assert!(log.startup_at.unwrap() < Instant::from_secs(2));
    assert_eq!(log.ended_at, Some(log.finished_at));
}

#[test]
fn starved_session_stalls() {
    // V6+A3 averages ~3.1 Mbps; a 500 Kbps link must rebuffer heavily.
    let log = run_fixed(500, 5, 2, CHUNKED);
    assert!(log.stall_count() > 0, "starved run must stall");
    assert!(log.total_stall() > Duration::from_secs(60));
}

#[test]
fn buffers_stay_balanced_with_chunk_sync() {
    let log = run_fixed(2_000, 2, 1, CHUNKED);
    assert!(log.completed());
    // With one-chunk tolerance the imbalance can never exceed ~2 chunks.
    assert!(
        log.max_buffer_imbalance() <= Duration::from_secs(9),
        "imbalance {}",
        log.max_buffer_imbalance()
    );
}

#[test]
fn independent_mode_unbalances_buffers() {
    // Audio (A2, 196 Kbps) downloads far faster than video (V5,
    // 1421 Kbps) on a tight link: without sync, audio races ahead.
    let log = run_fixed(2_000, 4, 1, SyncMode::Independent);
    assert!(
        log.max_buffer_imbalance() > Duration::from_secs(12),
        "imbalance {}",
        log.max_buffer_imbalance()
    );
}

#[test]
fn every_chunk_transferred_exactly_once() {
    let log = run_fixed(3_000, 1, 0, CHUNKED);
    assert_eq!(log.transfers.len(), 150);
    let mut audio_chunks: Vec<usize> = log
        .transfers
        .iter()
        .filter(|t| t.track.media == MediaType::Audio)
        .map(|t| t.chunk)
        .collect();
    audio_chunks.sort_unstable();
    assert_eq!(audio_chunks, (0..75).collect::<Vec<_>>());
}

#[test]
fn deadline_cuts_off_starved_runs() {
    let content = Content::drama_show(1);
    let origin = Origin::with_overhead(content.clone(), Bytes::ZERO);
    // 1 Kbps: nothing meaningful ever downloads.
    let link = Link::new(Trace::constant(kbps(1)));
    let config = PlayerConfig::default_chunked(content.chunk_duration());
    let log = Session::new(
        origin,
        link,
        Box::new(FixedPolicy { video: 0, audio: 0 }),
        config,
    )
    .with_deadline(Instant::from_secs(600))
    .run();
    assert!(!log.completed());
    assert!(log.finished_at <= Instant::from_secs(600));
}

#[test]
fn preloaded_playlists_cost_nothing() {
    let log = run_fixed(2_000, 1, 0, CHUNKED);
    assert!(log.playlist_fetches.is_empty());
}

fn run_with_playlists(mode: PlaylistFetch, video: usize, audio: usize) -> SessionLog {
    let content = Content::drama_show(1);
    let origin = Origin::with_overhead(content.clone(), Bytes(320));
    let link = Link::with_latency(Trace::constant(kbps(2_000)), Duration::from_millis(40));
    let config = PlayerConfig::default_chunked(content.chunk_duration());
    Session::new(origin, link, Box::new(FixedPolicy { video, audio }), config)
        .with_playlist_fetch(mode, abr_manifest::build::Packaging::SingleFile)
        .run()
}

#[test]
fn eager_fetches_every_playlist_before_startup() {
    let log = run_with_playlists(PlaylistFetch::Eager, 1, 0);
    assert!(log.completed());
    // 6 video + 3 audio playlists, all before the first chunk arrives.
    assert_eq!(log.playlist_fetches.len(), 9);
    let last_playlist = log
        .playlist_fetches
        .iter()
        .map(|p| p.completed_at)
        .max()
        .unwrap();
    let first_chunk = log.transfers.first().unwrap().at;
    assert!(last_playlist <= first_chunk, "playlists land before chunks");
    // And startup is later than a preloaded run's.
    let preloaded = run_with_playlists(PlaylistFetch::Preloaded, 1, 0);
    assert!(log.startup_at.unwrap() > preloaded.startup_at.unwrap());
}

#[test]
fn lazy_fetches_only_used_tracks_and_delays_their_first_chunk() {
    let log = run_with_playlists(PlaylistFetch::Lazy, 2, 1);
    assert!(log.completed());
    // A fixed policy touches exactly one video + one audio track.
    assert_eq!(log.playlist_fetches.len(), 2);
    let tracks: Vec<TrackId> = log.playlist_fetches.iter().map(|p| p.track).collect();
    assert!(tracks.contains(&TrackId::video(2)));
    assert!(tracks.contains(&TrackId::audio(1)));
    // The first chunk request was deferred behind the playlist
    // round trip: first transfer completes after the playlist did.
    let first_chunk = log.transfers.first().unwrap().at;
    let first_playlist = log
        .playlist_fetches
        .iter()
        .map(|p| p.completed_at)
        .min()
        .unwrap();
    assert!(first_chunk > first_playlist);
    // Startup also trails the preloaded run.
    let preloaded = run_with_playlists(PlaylistFetch::Preloaded, 2, 1);
    assert!(log.startup_at.unwrap() > preloaded.startup_at.unwrap());
}

#[test]
fn forward_seek_skips_content_and_resumes() {
    let content = Content::drama_show(1);
    let origin = Origin::with_overhead(content.clone(), Bytes::ZERO);
    let link = Link::with_latency(Trace::constant(kbps(2_000)), Duration::from_millis(20));
    let config = PlayerConfig::default_chunked(content.chunk_duration());
    // At t=30 s, jump to media position 200 s (chunk 50).
    let log = Session::new(
        origin,
        link,
        Box::new(FixedPolicy { video: 1, audio: 0 }),
        config,
    )
    .with_seeks(vec![(Instant::from_secs(30), Duration::from_secs(200))])
    .run();
    assert_eq!(log.seeks.len(), 1);
    let seek = log.seeks[0];
    assert_eq!(seek.at, Instant::from_secs(30));
    assert_eq!(seek.to, Duration::from_secs(200));
    assert!(seek.resumed.is_some(), "playback resumed after the seek");
    // Playback reached the end even though the middle was skipped.
    assert!(log.ended_at.is_some());
    // Chunks in the skipped region were never selected.
    let video_chunks: std::collections::BTreeSet<usize> = log
        .selections
        .iter()
        .filter(|s| s.track.media == MediaType::Video)
        .map(|s| s.chunk)
        .collect();
    assert!(video_chunks.contains(&0));
    assert!(video_chunks.contains(&50));
    assert!(video_chunks.contains(&74));
    // The deep-skip region (selected-before-seek prefix aside) has a
    // hole: chunk 45 was neither buffered nor fetched after the flush.
    assert!(!video_chunks.contains(&45) || seek.at > Instant::from_secs(170));
    // Wall time saved: the session ends well before a full watch.
    assert!(log.finished_at < Instant::from_secs(240));
}

#[test]
fn stale_seeks_are_ignored() {
    let content = Content::drama_show(1);
    let origin = Origin::with_overhead(content.clone(), Bytes::ZERO);
    let link = Link::new(Trace::constant(kbps(2_000)));
    let config = PlayerConfig::default_chunked(content.chunk_duration());
    // Backward / past-the-end seeks are dropped.
    let log = Session::new(
        origin,
        link,
        Box::new(FixedPolicy { video: 0, audio: 0 }),
        config,
    )
    .with_seeks(vec![
        (Instant::from_secs(100), Duration::from_secs(4)), // behind the playhead
        (Instant::from_secs(120), Duration::from_secs(400)), // past the end
    ])
    .run();
    assert!(log.seeks.is_empty());
    assert!(log.completed());
}

/// A fixed V2 session over audio rung `audio` at 2 Mbps with 10 ms
/// latency, optionally routed through a shared edge cache.
fn edge_session(content: &Content, audio: usize, edge: Option<&Rc<RefCell<EdgeCache>>>) -> Session {
    let origin = Origin::with_overhead(content.clone(), Bytes::ZERO);
    let link = Link::with_latency(Trace::constant(kbps(2_000)), Duration::from_millis(10));
    let config = PlayerConfig::default_chunked(content.chunk_duration());
    let s = Session::new(
        origin,
        link,
        Box::new(FixedPolicy { video: 1, audio }),
        config,
    );
    match edge {
        Some(e) => s.with_transfer_path(Box::new(Rc::clone(e))),
        None => s,
    }
}

/// An empty edge cache whose misses pay `penalty_ms` to the origin.
fn cold_edge(penalty_ms: u64) -> Rc<RefCell<EdgeCache>> {
    Rc::new(RefCell::new(EdgeCache {
        cache: abr_httpsim::cache::CdnCache::new(Bytes(1 << 32)),
        miss_penalty: Duration::from_millis(penalty_ms),
    }))
}

#[test]
fn edge_cache_misses_slow_the_cold_session() {
    let content = Content::drama_show(1);
    // Cold edge: every request misses and pays 80 ms to the origin.
    let edge = cold_edge(80);
    let cold = edge_session(&content, 0, Some(&edge)).run();
    assert_eq!(
        edge.borrow().cache.stats().misses,
        150,
        "every chunk missed"
    );
    // Warm edge (second viewer, same tracks): every request hits.
    let warm = edge_session(&content, 0, Some(&edge)).run();
    assert_eq!(edge.borrow().cache.stats().hits, 150);
    // And a no-edge control.
    let control = edge_session(&content, 0, None).run();
    // Miss penalties delay startup and finish.
    assert!(cold.startup_at.unwrap() > warm.startup_at.unwrap());
    assert_eq!(
        warm.startup_at, control.startup_at,
        "hits cost nothing extra"
    );
    assert!(cold.finished_at >= warm.finished_at);
}

/// A session has one transfer path: a later `with_transfer_path` replaces
/// the earlier one, so only the last edge sees the session's requests.
#[test]
fn a_later_transfer_path_replaces_the_earlier_one() {
    let content = Content::drama_show(1);
    let (first, last) = (cold_edge(80), cold_edge(80));
    let session = edge_session(&content, 0, Some(&first))
        .with_transfer_path(Box::new(Rc::clone(&last)))
        .run();
    assert!(session.completed());
    let unused = first.borrow().cache.stats();
    assert_eq!((unused.hits, unused.misses), (0, 0), "replaced path unused");
    assert_eq!(
        last.borrow().cache.stats().misses,
        150,
        "every chunk missed"
    );
}

/// The session's obs handle reaches an edge cache behind a shared `Rc`:
/// every lookup is traced as a `cache_lookup` event, and the events'
/// hits and misses are exactly the cache's own counters. Viewer B shares
/// viewer A's video but not its audio, so its lookups both hit and miss.
#[test]
fn traced_edge_session_records_every_cache_lookup() {
    use abr_obs::{Event, ObsHandle};
    let content = Content::drama_show(1);
    let edge = cold_edge(80);
    edge_session(&content, 0, Some(&edge)).run(); // viewer A: V2+A1
    let (obs, tracer, _metrics) = ObsHandle::recording();
    let before = edge.borrow().cache.stats();
    edge_session(&content, 1, Some(&edge)).with_obs(obs).run(); // viewer B: V2+A2
    let after = edge.borrow().cache.stats();
    let lookups: Vec<bool> = tracer
        .snapshot()
        .iter()
        .filter_map(|e| match e.event {
            Event::CacheLookup { hit, .. } => Some(hit),
            _ => None,
        })
        .collect();
    assert_eq!(lookups.len(), 150, "one lookup per chunk request");
    let hits = lookups.iter().filter(|&&hit| hit).count() as u64;
    assert_eq!(hits, 75, "every video chunk hits, every audio chunk misses");
    assert_eq!(hits, after.hits - before.hits);
    assert_eq!(lookups.len() as u64 - hits, after.misses - before.misses);
}

#[test]
fn muxed_delivery_fills_both_buffers_in_lockstep() {
    let content = Content::drama_show(1);
    let origin = Origin::with_overhead(content.clone(), Bytes::ZERO);
    let link = Link::new(Trace::constant(kbps(2_000)));
    let config = PlayerConfig::default_chunked(content.chunk_duration());
    let log = Session::new(
        origin,
        link,
        Box::new(FixedPolicy { video: 1, audio: 0 }),
        config,
    )
    .with_delivery(DeliveryMode::Muxed)
    .run();
    assert!(log.completed());
    // One transfer per chunk position, not two.
    assert_eq!(log.transfers.len(), 75);
    // Both selections logged per position.
    assert_eq!(log.selections.len(), 150);
    // Perfectly balanced buffers by construction.
    assert_eq!(log.max_buffer_imbalance(), Duration::ZERO);
    // Transfer sizes are the sum of both components.
    for t in &log.transfers {
        let expect = content.chunk_size(TrackId::video(1), t.chunk)
            + content.chunk_size(TrackId::audio(0), t.chunk);
        assert_eq!(t.size, expect);
    }
}

#[test]
fn byte_range_packaging_is_timing_identical() {
    // §4.1: the two packaging modes carry the same bytes; the session
    // timeline must be identical to the microsecond.
    let content = Content::drama_show(1);
    let mk = |packaging| {
        let origin = Origin::with_overhead(content.clone(), Bytes(320));
        let link = Link::with_latency(Trace::constant(kbps(1_500)), Duration::from_millis(20));
        let config = PlayerConfig::default_chunked(content.chunk_duration());
        Session::new(
            origin,
            link,
            Box::new(FixedPolicy { video: 1, audio: 0 }),
            config,
        )
        .with_packaging(packaging)
        .run()
    };
    let seg = mk(abr_manifest::build::Packaging::SegmentFiles {
        with_bitrate_tags: false,
    });
    let rng = mk(abr_manifest::build::Packaging::SingleFile);
    assert_eq!(seg.transfers.len(), rng.transfers.len());
    for (a, b) in seg.transfers.iter().zip(rng.transfers.iter()) {
        assert_eq!(a.at, b.at);
        assert_eq!(a.size, b.size);
    }
    assert_eq!(seg.startup_at, rng.startup_at);
    assert_eq!(seg.ended_at, rng.ended_at);
}

#[test]
fn sessions_are_bit_reproducible() {
    // The determinism claim, end to end: identical inputs produce
    // identical logs, selection by selection and stall by stall.
    let run_once = || {
        let content = Content::drama_show(99);
        let origin = Origin::with_overhead(content.clone(), Bytes(320));
        let link = Link::with_latency(
            Trace::random_walk(
                kbps(900),
                kbps(200),
                kbps(2_000),
                0.4,
                Duration::from_secs(3),
                Duration::from_secs(3600),
                5,
            ),
            Duration::from_millis(20),
        );
        let config = PlayerConfig::default_chunked(content.chunk_duration());
        Session::new(
            origin,
            link,
            Box::new(FixedPolicy { video: 2, audio: 1 }),
            config,
        )
        .run()
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.selections, b.selections);
    assert_eq!(a.transfers, b.transfers);
    assert_eq!(a.stalls, b.stalls);
    assert_eq!(a.buffer_samples, b.buffer_samples);
    assert_eq!(a.startup_at, b.startup_at);
    assert_eq!(a.finished_at, b.finished_at);
}

#[test]
fn buffer_samples_monotone_in_time() {
    let log = run_fixed(1_500, 2, 0, CHUNKED);
    assert!(log.buffer_samples.windows(2).all(|w| w[0].at <= w[1].at));
    assert!(
        log.buffer_samples.len() > 150,
        "a sample per event at least"
    );
}

fn run_with_refresh(period: Option<Duration>) -> SessionLog {
    let content = Content::drama_show(1);
    let origin = Origin::with_overhead(content.clone(), Bytes(320));
    let link = Link::with_latency(Trace::constant(kbps(2_000)), Duration::from_millis(40));
    let config = PlayerConfig::default_chunked(content.chunk_duration());
    let mut s = Session::new(
        origin,
        link,
        Box::new(FixedPolicy { video: 1, audio: 0 }),
        config,
    );
    if let Some(p) = period {
        s = s.with_playlist_refresh(p, abr_manifest::build::Packaging::SingleFile);
    }
    s.run()
}

#[test]
fn playlist_refresh_polls_selected_tracks_periodically() {
    let log = run_with_refresh(Some(Duration::from_secs(4)));
    assert!(log.completed());
    // Every tick polls the two selected tracks (one audio, one video),
    // and only those — a fixed policy never touches other tracks.
    assert!(!log.playlist_fetches.is_empty(), "ticks produced polls");
    let tracks: std::collections::BTreeSet<TrackId> =
        log.playlist_fetches.iter().map(|p| p.track).collect();
    assert_eq!(
        tracks,
        [TrackId::video(1), TrackId::audio(0)].into_iter().collect()
    );
    // Roughly one audio + one video poll per 4 s of wall time.
    let secs = log.finished_at.as_micros() / 1_000_000;
    let expected = (secs / 4) * 2;
    let got = log.playlist_fetches.len() as u64;
    assert!(
        got >= expected.saturating_sub(4) && got <= expected + 4,
        "expected ~{expected} polls, got {got}"
    );
    // Polls are timestamped at tick boundaries.
    for p in &log.playlist_fetches {
        assert_eq!(p.requested_at.as_micros() % 4_000_000, 0);
    }
}

#[test]
fn playlist_refresh_does_not_disrupt_playback() {
    // Poll transfers share the link and the per-media pipelines with
    // chunk fetches; on an ample link they ride in the pipelines' idle
    // time, so the session still plays every chunk exactly once, cleanly,
    // and finishes no earlier than the poll-free run.
    let vod = run_with_refresh(None);
    let live = run_with_refresh(Some(Duration::from_secs(4)));
    assert!(vod.playlist_fetches.is_empty());
    assert!(live.completed());
    assert_eq!(live.stall_count(), 0);
    assert!(live.finished_at >= vod.finished_at);
    // Both still play every chunk exactly once.
    assert_eq!(vod.transfers.len(), live.transfers.len());
}

#[test]
fn playlist_refresh_off_is_byte_identical_to_before() {
    // The refresh feature is strictly opt-in: a default session must not
    // change in any observable way.
    let a = run_with_refresh(None);
    let b = run_with_refresh(None);
    assert_eq!(a.transfers, b.transfers);
    assert_eq!(a.buffer_samples, b.buffer_samples);
}

/// A policy that answers every request with a fixed track, whatever the
/// media asked for.
struct RoguePolicy(TrackId);

impl abr_player::policy::AbrPolicy for RoguePolicy {
    fn name(&self) -> &str {
        "rogue"
    }

    fn on_transfer(&mut self, _record: &abr_player::policy::TransferRecord) {}

    fn select(&mut self, _ctx: &abr_player::policy::SelectionContext) -> TrackId {
        self.0
    }
}

fn run_rogue(track: TrackId) -> SessionLog {
    let content = Content::drama_show(1);
    let chunk = content.chunk_duration();
    Session::new(
        Origin::with_overhead(content, Bytes::ZERO),
        Link::new(Trace::constant(kbps(2_000))),
        Box::new(RoguePolicy(track)),
        PlayerConfig::default_chunked(chunk),
    )
    .run()
}

#[test]
#[should_panic(expected = "policy returned wrong media type")]
fn a_policy_answering_for_the_wrong_media_is_rejected() {
    let _ = run_rogue(TrackId::video(0));
}

#[test]
#[should_panic(expected = "policy selected out-of-ladder track")]
fn a_policy_selecting_off_the_ladder_is_rejected() {
    let _ = run_fixed(5_000, 6, 0, CHUNKED);
}

#[test]
#[should_panic(expected = "zero startup threshold")]
fn a_session_validates_its_config() {
    let content = Content::drama_show(1);
    let config = PlayerConfig {
        startup_threshold: Duration::ZERO,
        ..PlayerConfig::default_chunked(content.chunk_duration())
    };
    let _ = Session::new(
        Origin::with_overhead(content, Bytes::ZERO),
        Link::new(Trace::constant(kbps(2_000))),
        Box::new(FixedPolicy { video: 0, audio: 0 }),
        config,
    );
}
