//! Integration: the session-surface features (edge cache, muxed
//! delivery) compose with real policies end to end.

use abr_bench::setup::{drama, hls_all_view, hls_sub_view, PlayerKind, SessionSpec};
use abr_unmuxed::core::{BestPracticePolicy, ShakaPolicy};
use abr_unmuxed::event::time::{Duration, Instant};
use abr_unmuxed::httpsim::cache::CdnCache;
use abr_unmuxed::httpsim::edge::EdgeCache;
use abr_unmuxed::media::content::{Content, SharedContent};
use abr_unmuxed::media::units::{BitsPerSec, Bytes};
use abr_unmuxed::net::trace::Trace;
use abr_unmuxed::player::session::DeliveryMode;
use abr_unmuxed::player::{PlayerConfig, Session};
use std::cell::RefCell;
use std::rc::Rc;

/// The best-practice policy over `H_sub` (A1 first) on a constant
/// `kbps` link, with 320-byte response headers and the default chunked
/// player.
fn session(content: &SharedContent, kbps: u64) -> Session {
    let view = hls_sub_view(content, &[0, 1, 2]);
    let policy = Box::new(BestPracticePolicy::from_hls(&view));
    let trace = Trace::constant(BitsPerSec::from_kbps(kbps));
    SessionSpec {
        overhead: Bytes(320),
        config: PlayerConfig::default_chunked(content.chunk_duration()),
        ..SessionSpec::new(content, PlayerKind::BestPractice, policy, trace)
    }
    .build()
}

/// The edge cache composes with an adaptive policy: a second viewer on the
/// same manifest sees mostly hits for whatever rungs overlap.
#[test]
fn edge_cache_with_adaptive_policy() {
    let content = drama();
    let edge = Rc::new(RefCell::new(EdgeCache {
        cache: CdnCache::new(Bytes(1 << 32)),
        miss_penalty: Duration::from_millis(100),
    }));
    let first = session(&content, 2_000)
        .with_transfer_path(Box::new(Rc::clone(&edge)))
        .run();
    let cold_misses = edge.borrow().cache.stats().misses;
    assert!(first.completed());
    assert_eq!(edge.borrow().cache.stats().hits, 0, "cold cache");
    let second = session(&content, 2_000)
        .with_transfer_path(Box::new(Rc::clone(&edge)))
        .run();
    assert!(second.completed());
    let stats = edge.borrow().cache.stats();
    // Deterministic simulator + same settings → identical request streams:
    // the second viewer hits on everything.
    assert_eq!(
        stats.hits, cold_misses,
        "second viewer fully served from the edge"
    );
}

/// Muxed delivery with Shaka over H_all: zero imbalance even for a player
/// whose demuxed pipelines are independent.
#[test]
fn muxed_delivery_with_shaka() {
    let content = drama();
    let policy = Box::new(ShakaPolicy::hls(&hls_all_view(&content)));
    let trace = Trace::constant(BitsPerSec::from_kbps(1_500));
    let log = SessionSpec {
        delivery: DeliveryMode::Muxed,
        ..SessionSpec::new(&content, PlayerKind::Shaka, policy, trace)
    }
    .build()
    .run();
    assert!(log.completed());
    assert_eq!(log.max_buffer_imbalance(), Duration::ZERO);
    assert_eq!(
        log.transfers.len(),
        content.num_chunks(),
        "one flow per position"
    );
}

/// Scale guard: a two-hour movie (1800 chunks) streams through the full
/// pipeline without superlinear blowup — the whole session must simulate
/// in well under a second of wall time.
#[test]
fn two_hour_movie_simulates_fast() {
    use abr_unmuxed::media::ladder::Ladder;
    let content: SharedContent = Content::new(
        Ladder::table1_video(),
        Ladder::table1_audio(),
        Duration::from_secs(4),
        1800,
        2019,
    )
    .into();
    let log = session(&content, 2_500)
        .with_deadline(Instant::from_secs(30_000))
        .run();
    assert!(log.completed());
    assert_eq!(log.transfers.len(), 3600);
    assert_eq!(log.stall_count(), 0);
}
