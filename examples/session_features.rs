//! Tour of the session-level features beyond plain streaming: an edge
//! cache in the path, lazy playlist fetching, and muxed delivery — all
//! over the same content and policy.
//!
//! ```sh
//! cargo run --example session_features
//! ```

use abr_unmuxed::core::BestPracticePolicy;
use abr_unmuxed::event::time::Duration;
use abr_unmuxed::httpsim::cache::CdnCache;
use abr_unmuxed::httpsim::edge::EdgeCache;
use abr_unmuxed::httpsim::origin::Origin;
use abr_unmuxed::manifest::build::{build_master_playlist, Packaging};
use abr_unmuxed::manifest::view::BoundHls;
use abr_unmuxed::manifest::MasterPlaylist;
use abr_unmuxed::media::combo::curated_subset;
use abr_unmuxed::media::content::Content;
use abr_unmuxed::media::units::{BitsPerSec, Bytes};
use abr_unmuxed::net::link::Link;
use abr_unmuxed::net::trace::Trace;
use abr_unmuxed::player::session::{DeliveryMode, PlaylistFetch};
use abr_unmuxed::player::{PlayerConfig, Session};
use abr_unmuxed::qoe;
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let content = Content::drama_show(2019);
    let combos = curated_subset(content.video(), content.audio());
    let master = build_master_playlist(&content, &combos, &[0, 1, 2]);
    let view = BoundHls::from_master(&MasterPlaylist::parse(&master.to_text()).unwrap()).unwrap();

    let base = |kbps: u64| {
        let origin = Origin::with_overhead(content.clone(), Bytes(320));
        let link = Link::with_latency(
            Trace::constant(BitsPerSec::from_kbps(kbps)),
            Duration::from_millis(40),
        );
        let config = PlayerConfig::default_chunked(content.chunk_duration());
        Session::new(
            origin,
            link,
            Box::new(BestPracticePolicy::from_hls(&view)),
            config,
        )
    };

    // 1. An edge cache: first viewer cold, second viewer warm.
    // The session borrows the cache through an `Rc` clone, so the
    // warmed cache stays here for the second viewer.
    let edge = Rc::new(RefCell::new(EdgeCache {
        cache: CdnCache::new(Bytes(1 << 32)),
        miss_penalty: Duration::from_millis(150),
    }));
    let viewer = || {
        base(2_000)
            .with_transfer_path(Box::new(Rc::clone(&edge)))
            .run()
    };
    let (first, second) = (viewer(), viewer());
    let stats = edge.borrow().cache.stats();
    println!(
        "edge:      viewer 1 startup {:.2}s (all misses), viewer 2 startup {:.2}s; edge hit ratio {:.0}%",
        first.startup_at.unwrap().as_secs_f64(),
        second.startup_at.unwrap().as_secs_f64(),
        stats.hit_ratio() * 100.0,
    );

    // 2. Lazy playlist fetching: watch the per-track round trips. The
    //    playlists follow the session's packaging: byte ranges here.
    let log = base(2_000)
        .with_packaging(Packaging::SingleFile)
        .with_playlist_fetch(PlaylistFetch::Lazy)
        .run();
    println!(
        "playlists: {} lazy fetches; first at t={:.2}s, last at t={:.2}s (each first use of a track)",
        log.playlist_fetches.len(),
        log.playlist_fetches.first().map(|p| p.completed_at.as_secs_f64()).unwrap_or(f64::NAN),
        log.playlist_fetches.last().map(|p| p.completed_at.as_secs_f64()).unwrap_or(f64::NAN),
    );

    // 3. Muxed delivery: identical content, zero buffer imbalance, 3.3×
    //    the origin storage (see `cargo run --example cdn_cache`).
    let muxed = base(2_000).with_delivery(DeliveryMode::Muxed).run();
    let demuxed = base(2_000).run();
    println!(
        "delivery:  demuxed max buffer imbalance {:.1}s; muxed {:.1}s ({} vs {} transfers)",
        demuxed.max_buffer_imbalance().as_secs_f64(),
        muxed.max_buffer_imbalance().as_secs_f64(),
        demuxed.transfers.len(),
        muxed.transfers.len(),
    );

    let q = qoe::summarize(&demuxed);
    println!(
        "baseline:  {} completed={} stalls={} mean video {} Kbps audio {} Kbps",
        q.policy, q.completed, q.stall_count, q.mean_video_kbps, q.mean_audio_kbps
    );
}
