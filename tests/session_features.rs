//! Integration: the session-surface features (edge cache, muxed
//! delivery) compose with real policies end to end.

use abr_unmuxed::core::{BestPracticePolicy, ShakaPolicy};
use abr_unmuxed::event::time::Duration;
use abr_unmuxed::httpsim::cache::CdnCache;
use abr_unmuxed::httpsim::edge::EdgeCache;
use abr_unmuxed::httpsim::origin::Origin;
use abr_unmuxed::manifest::build::build_master_playlist;
use abr_unmuxed::manifest::view::BoundHls;
use abr_unmuxed::manifest::MasterPlaylist;
use abr_unmuxed::media::combo::{all_combos, curated_subset};
use abr_unmuxed::media::content::Content;
use abr_unmuxed::media::units::{BitsPerSec, Bytes};
use abr_unmuxed::net::link::Link;
use abr_unmuxed::net::trace::Trace;
use abr_unmuxed::player::session::DeliveryMode;
use abr_unmuxed::player::{PlayerConfig, Session};
use std::cell::RefCell;
use std::rc::Rc;

const SEED: u64 = 2019;

fn sub_view(content: &Content) -> BoundHls {
    let combos = curated_subset(content.video(), content.audio());
    let master = build_master_playlist(content, &combos, &[0, 1, 2]);
    BoundHls::from_master(&MasterPlaylist::parse(&master.to_text()).unwrap()).unwrap()
}

fn session(content: &Content, view: &BoundHls, kbps: u64) -> Session {
    let origin = Origin::with_overhead(content.clone(), Bytes(320));
    let link = Link::with_latency(
        Trace::constant(BitsPerSec::from_kbps(kbps)),
        Duration::from_millis(20),
    );
    let config = PlayerConfig::default_chunked(content.chunk_duration());
    Session::new(
        origin,
        link,
        Box::new(BestPracticePolicy::from_hls(view)),
        config,
    )
}

/// The edge cache composes with an adaptive policy: a second viewer on the
/// same manifest sees mostly hits for whatever rungs overlap.
#[test]
fn edge_cache_with_adaptive_policy() {
    let content = Content::drama_show(SEED);
    let view = sub_view(&content);
    let edge = Rc::new(RefCell::new(EdgeCache {
        cache: CdnCache::new(Bytes(1 << 32)),
        miss_penalty: Duration::from_millis(100),
    }));
    let first = session(&content, &view, 2_000)
        .with_transfer_path(Box::new(Rc::clone(&edge)))
        .run();
    let cold_misses = edge.borrow().cache.stats().misses;
    assert!(first.completed());
    assert_eq!(edge.borrow().cache.stats().hits, 0, "cold cache");
    let second = session(&content, &view, 2_000)
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
    let content = Content::drama_show(SEED);
    let combos = all_combos(content.video(), content.audio());
    let master = build_master_playlist(&content, &combos, &[0, 1, 2]);
    let view = BoundHls::from_master(&MasterPlaylist::parse(&master.to_text()).unwrap()).unwrap();
    let origin = Origin::with_overhead(content.clone(), Bytes::ZERO);
    let link = Link::with_latency(
        Trace::constant(BitsPerSec::from_kbps(1_500)),
        Duration::from_millis(20),
    );
    let config = PlayerConfig {
        max_buffer: Duration::from_secs(10),
        sync: abr_unmuxed::player::config::SyncMode::Independent,
        ..PlayerConfig::default_chunked(content.chunk_duration())
    };
    let log = Session::new(origin, link, Box::new(ShakaPolicy::hls(&view)), config)
        .with_delivery(DeliveryMode::Muxed)
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
    let content = Content::new(
        Ladder::table1_video(),
        Ladder::table1_audio(),
        Duration::from_secs(4),
        1800,
        SEED,
    );
    let view = {
        let combos = curated_subset(content.video(), content.audio());
        let master = build_master_playlist(&content, &combos, &[0, 1, 2]);
        BoundHls::from_master(&MasterPlaylist::parse(&master.to_text()).unwrap()).unwrap()
    };
    let origin = Origin::with_overhead(content.clone(), Bytes(320));
    let link = Link::with_latency(
        Trace::constant(BitsPerSec::from_kbps(2_500)),
        Duration::from_millis(20),
    );
    let config = PlayerConfig::default_chunked(content.chunk_duration());
    let log = Session::new(
        origin,
        link,
        Box::new(BestPracticePolicy::from_hls(&view)),
        config,
    )
    .with_deadline(abr_unmuxed::event::time::Instant::from_secs(30_000))
    .run();
    assert!(log.completed());
    assert_eq!(log.transfers.len(), 3600);
    assert_eq!(log.stall_count(), 0);
}
