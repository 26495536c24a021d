//! End-to-end session behavior through the public facade: startup, stalls,
//! pipeline balance, playlists, edge caching, muxed delivery,
//! packaging equivalence, and bit-reproducibility.

use abr_event::time::{Duration, Instant};
use abr_httpsim::edge::EdgeCache;
use abr_httpsim::origin::Origin;
use abr_manifest::build::Packaging;
use abr_media::content::Content;
use abr_media::track::{MediaType, TrackId};
use abr_media::units::{BitsPerSec, Bytes};
use abr_net::link::Link;
use abr_net::trace::Trace;
use abr_player::config::{PlayerConfig, SyncMode};
use abr_player::log::{BufferSample, SessionLog};
use abr_player::policy::{AbrPolicy, FixedPolicy, SelectionContext, TransferRecord};
use abr_player::session::{DeliveryMode, PlaylistFetch, Session};
use std::cell::{Cell, RefCell};
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
    // Each stall row runs from the instant either buffer empties to the
    // chunk arrival that brings both back to the resume threshold.
    let resume = PlayerConfig::default_chunked(Duration::from_secs(4)).resume_threshold;
    for stall in &log.stalls {
        let at_start = sample_at(&log, stall.start);
        assert!(
            at_start.audio.is_zero() || at_start.video.is_zero(),
            "{stall:?} opens when either buffer empties"
        );
        let end = stall.end.expect("the session plays to the end");
        assert!(
            log.transfers.iter().any(|t| t.at == end),
            "{stall:?} ends on a chunk arrival"
        );
        let at_end = sample_at(&log, end);
        assert!(at_end.audio >= resume && at_end.video >= resume);
        // One step earlier both buffers were not yet back.
        let before = log.buffer_samples.iter().rfind(|s| s.at < end).unwrap();
        assert!(before.audio < resume || before.video < resume);
    }
}

/// The last buffer sample taken at `at`.
fn sample_at(log: &SessionLog, at: Instant) -> BufferSample {
    *log.buffer_samples
        .iter()
        .rfind(|s| s.at == at)
        .expect("every step samples the buffers")
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
        .with_packaging(Packaging::SingleFile)
        .with_playlist_fetch(mode)
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
    let (obs, tracer) = ObsHandle::recording();
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

/// The fixed V2+A1 policy over a constant 2 Mbps link: the base of the
/// muxed-delivery checks below.
fn fixed_2mbps_session(content: &Content) -> Session {
    let origin = Origin::with_overhead(content.clone(), Bytes::ZERO);
    let link = Link::new(Trace::constant(kbps(2_000)));
    let config = PlayerConfig::default_chunked(content.chunk_duration());
    Session::new(
        origin,
        link,
        Box::new(FixedPolicy { video: 1, audio: 0 }),
        config,
    )
}

#[test]
fn muxed_delivery_fills_both_buffers_in_lockstep() {
    let content = Content::drama_show(1);
    let log = fixed_2mbps_session(&content)
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

/// A muxed variant has no per-track media playlist, so muxed delivery runs
/// only with preloaded playlists: every entry point rejects `Eager` and
/// `Lazy`, whichever builder call comes first, and names the combination.
#[test]
fn muxed_delivery_runs_only_with_preloaded_playlists() {
    let content = Content::drama_show(1);
    let orders: [fn(Session, PlaylistFetch) -> Session; 2] = [
        |s, mode| {
            s.with_delivery(DeliveryMode::Muxed)
                .with_playlist_fetch(mode)
        },
        |s, mode| {
            s.with_playlist_fetch(mode)
                .with_delivery(DeliveryMode::Muxed)
        },
    ];
    let entry_points: [fn(Session); 4] = [
        |s| drop(s.run()),
        |s| drop(s.run_digest()),
        |s| drop(s.into_stepper()),
        |s| drop(s.into_digest_stepper()),
    ];
    for mode in [PlaylistFetch::Eager, PlaylistFetch::Lazy] {
        for (i, order) in orders.into_iter().enumerate() {
            for (j, enter) in entry_points.into_iter().enumerate() {
                let session = order(fixed_2mbps_session(&content), mode);
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| enter(session)))
                    .expect_err("muxed delivery with playlist fetching is rejected");
                let msg = err.downcast_ref::<String>().map_or("", String::as_str);
                assert!(
                    msg.starts_with(&format!("muxed delivery with {mode:?} playlist fetching")),
                    "{mode:?}, order {i}, entry point {j}: {msg:?}"
                );
            }
        }
    }
    // Preloaded is the one mode muxed delivery runs with.
    for order in orders {
        let log = order(fixed_2mbps_session(&content), PlaylistFetch::Preloaded).run();
        assert!(log.completed());
        assert!(log.playlist_fetches.is_empty());
    }
}

/// A fixed-policy session over a random-walk link: the base of the
/// packaging checks below.
fn packaging_session(content: &Content) -> Session {
    let origin = Origin::with_overhead(content.clone(), Bytes(320));
    let trace = Trace::random_walk(
        kbps(1_200),
        kbps(300),
        kbps(3_000),
        0.4,
        Duration::from_secs(3),
        Duration::from_secs(3600),
        7,
    );
    let link = Link::with_latency(trace, Duration::from_millis(40));
    let config = PlayerConfig::default_chunked(content.chunk_duration());
    Session::new(
        origin,
        link,
        Box::new(FixedPolicy { video: 2, audio: 1 }),
        config,
    )
}

/// Runs `session` traced: its log and its JSONL trace.
fn run_traced(session: Session) -> (SessionLog, String) {
    let (obs, tracer) = abr_obs::ObsHandle::recording();
    let log = session.with_obs(obs).run();
    (log, abr_obs::export::to_jsonl(&tracer.take()))
}

#[test]
fn byte_range_packaging_is_timing_identical() {
    // §4.1: the two packaging modes carry the same bytes. With the same
    // (preloaded) playlists, the whole record and the whole trace agree,
    // event for event.
    let content = Content::drama_show(1);
    let (seg_log, seg_trace) = run_traced(packaging_session(&content));
    let (rng_log, rng_trace) =
        run_traced(packaging_session(&content).with_packaging(Packaging::SingleFile));
    assert!(seg_log.completed());
    assert_eq!(seg_log, rng_log);
    assert_eq!(seg_trace, rng_trace);
}

#[test]
fn packaging_reaches_playlists_whatever_the_builder_order() {
    let content = Content::drama_show(1);
    let playlists: [fn(Session) -> Session; 2] = [
        |s| s.with_playlist_fetch(PlaylistFetch::Eager),
        |s| s.with_playlist_fetch(PlaylistFetch::Lazy),
    ];
    for (i, with_playlists) in playlists.into_iter().enumerate() {
        let first =
            with_playlists(packaging_session(&content).with_packaging(Packaging::SingleFile));
        let last =
            with_playlists(packaging_session(&content)).with_packaging(Packaging::SingleFile);
        let (first, last) = (first.run(), last.run());
        assert!(
            !first.playlist_fetches.is_empty(),
            "case {i} fetches playlists"
        );
        assert_eq!(
            first, last,
            "case {i}: packaging before or after the playlists"
        );
        // Byte-range playlists carry a range per segment, so they are
        // larger than segment-file ones and land later.
        let segment_files = with_playlists(packaging_session(&content)).run();
        assert_ne!(
            first.playlist_fetches, segment_files.playlist_fetches,
            "case {i}: the playlists follow the packaging"
        );
    }
}

/// The fixed V2+A1 policy, counting how often the session asks for its
/// estimate.
struct CountedEstimate(Rc<Cell<usize>>);

impl AbrPolicy for CountedEstimate {
    fn name(&self) -> &str {
        "counted-estimate"
    }

    fn on_transfer(&mut self, _record: &TransferRecord) {}

    fn select(&mut self, ctx: &SelectionContext) -> TrackId {
        FixedPolicy { video: 1, audio: 0 }.select(ctx)
    }

    fn debug_estimate(&self) -> Option<BitsPerSec> {
        self.0.set(self.0.get() + 1);
        Some(kbps(900))
    }
}

#[test]
fn only_a_log_or_a_trace_asks_for_the_estimate() {
    let content = Content::drama_show(1);
    let calls = Rc::new(Cell::new(0));
    let session = || {
        let origin = Origin::with_overhead(content.clone(), Bytes::ZERO);
        let link = Link::new(Trace::constant(kbps(2_000)));
        let config = PlayerConfig::default_chunked(content.chunk_duration());
        let policy = Box::new(CountedEstimate(Rc::clone(&calls)));
        Session::new(origin, link, policy, config)
    };
    let digest = session().run_digest();
    assert_eq!(calls.get(), 0, "an untraced digest never reads it");
    let log = session().run();
    assert_eq!(calls.get() as u64, digest.transfers);
    assert!(log
        .transfers
        .iter()
        .all(|t| t.estimate_after == Some(kbps(900))));
    let (obs, tracer) = abr_obs::ObsHandle::recording();
    session().with_obs(obs).run_digest();
    assert_eq!(
        calls.get() as u64,
        2 * digest.transfers,
        "a traced digest reads it"
    );
    assert!(!tracer.take().is_empty());
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
