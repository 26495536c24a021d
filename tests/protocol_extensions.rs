//! Integration: the §4.1 protocol/server-side proposals, end to end —
//! the DASH allowed-combinations extension, the HLS per-track bitrate
//! extension, the second-level-playlist workaround, and lazy-vs-eager
//! playlist fetching.

use abr_unmuxed::core::{BbaPolicy, BestPracticePolicy, ExoPlayerPolicy};
use abr_unmuxed::event::time::Duration;
use abr_unmuxed::httpsim::origin::Origin;
use abr_unmuxed::manifest::build::{
    build_master_playlist, build_master_playlist_ext, build_media_playlist, build_mpd_with_combos,
    Packaging,
};
use abr_unmuxed::manifest::view::{BoundDash, BoundHls};
use abr_unmuxed::manifest::{MasterPlaylist, Mpd};
use abr_unmuxed::media::combo::curated_subset;
use abr_unmuxed::media::content::Content;
use abr_unmuxed::media::track::{MediaType, TrackId};
use abr_unmuxed::media::units::{BitsPerSec, Bytes};
use abr_unmuxed::net::link::Link;
use abr_unmuxed::net::trace::Trace;
use abr_unmuxed::player::policy::AbrPolicy;
use abr_unmuxed::player::session::PlaylistFetch;
use abr_unmuxed::player::{PlayerConfig, Session};
use abr_unmuxed::qoe;

const SEED: u64 = 2019;

fn run(
    content: &Content,
    policy: Box<dyn AbrPolicy>,
    trace: Trace,
) -> abr_unmuxed::player::SessionLog {
    let origin = Origin::with_overhead(content.clone(), Bytes(320));
    let link = Link::with_latency(trace, Duration::from_millis(20));
    let config = PlayerConfig::default_chunked(content.chunk_duration());
    Session::new(origin, link, policy, config).run()
}

/// The DASH combinations extension survives the full text round trip and
/// drives the best-practice player with zero off-manifest chunks.
#[test]
fn dash_combinations_extension_end_to_end() {
    let content = Content::drama_show(SEED);
    let combos = curated_subset(content.video(), content.audio());
    let text = build_mpd_with_combos(&content, &combos).to_text();
    assert!(text.contains("urn:abr-unmuxed:allowed-combinations:2019"));
    let view = BoundDash::from_mpd(&Mpd::parse(&text).unwrap()).unwrap();
    assert_eq!(view.allowed_combos.as_deref(), Some(combos.as_slice()));

    let policy = BestPracticePolicy::from_dash_extension(&view).unwrap();
    let log = run(
        &content,
        Box::new(policy),
        Trace::fig3_varying_600k(Duration::from_secs(3600)),
    );
    assert!(log.completed());
    assert_eq!(qoe::off_manifest_chunks(&log, &combos), 0);
}

/// An allowed-combinations extension that lists nothing (`value=","`)
/// is a malformed manifest: it is refused with an error, never handed to
/// the best-practice player as an empty candidate set.
#[test]
fn empty_combinations_extension_is_an_error() {
    let content = Content::drama_show(SEED);
    let combos = curated_subset(content.video(), content.audio());
    let text = build_mpd_with_combos(&content, &combos[..1])
        .to_text()
        .replace("value=\"V1+A1\"", "value=\",\"");
    let mpd = Mpd::parse(&text).unwrap();
    assert_eq!(mpd.allowed_combinations, Some(Vec::new()));
    let err = BoundDash::from_mpd(&mpd)
        .and_then(|view| BestPracticePolicy::from_dash_extension(&view).map(drop))
        .expect_err("an empty allowed set is refused");
    assert!(err.contains("no combination"), "{err}");
}

/// The HLS per-track bitrate extension repairs ExoPlayer's HLS path on the
/// exact Fig 3 setup: audio adapts, rebuffering (almost) vanishes.
#[test]
fn hls_bitrate_extension_fixes_fig3() {
    let content = Content::drama_show(SEED);
    let combos = curated_subset(content.video(), content.audio());
    let trace = Trace::fig3_varying_600k(Duration::from_secs(3600));

    // Stock: pinned A3, heavy rebuffering (asserted in paper_figures.rs).
    let stock_view = BoundHls::from_master(
        &MasterPlaylist::parse(&build_master_playlist(&content, &combos, &[2, 0, 1]).to_text())
            .unwrap(),
    )
    .unwrap();
    let stock = run(
        &content,
        Box::new(ExoPlayerPolicy::hls(&stock_view)),
        trace.clone(),
    );

    // Extended: same listing order, plus per-track bitrates.
    let ext_view = BoundHls::from_master(
        &MasterPlaylist::parse(&build_master_playlist_ext(&content, &combos, &[2, 0, 1]).to_text())
            .unwrap(),
    )
    .unwrap();
    let (v, a) = ext_view
        .extension_track_bitrates()
        .expect("extension present");
    assert_eq!(v.len(), 6);
    assert_eq!(a[2].kbps(), 391, "A3 peak");
    let fixed = run(
        &content,
        Box::new(ExoPlayerPolicy::hls_fixed(&ext_view).unwrap()),
        trace,
    );

    assert!(fixed.completed());
    assert!(
        fixed.distinct_tracks(MediaType::Audio).len() > 1,
        "audio adapts with the extension"
    );
    assert!(
        fixed.total_stall() * 5 < stock.total_stall(),
        "fixed rebuffering {} vs stock {}",
        fixed.total_stall(),
        stock.total_stall()
    );
}

/// The second-level-playlist workaround (the §4.1 short-term client fix)
/// provides the same repair without any manifest extension.
#[test]
fn second_level_playlist_workaround_equivalent() {
    let content = Content::drama_show(SEED);
    let combos = curated_subset(content.video(), content.audio());
    let master = build_master_playlist(&content, &combos, &[2, 0, 1]);
    let mut view =
        BoundHls::from_master(&MasterPlaylist::parse(&master.to_text()).unwrap()).unwrap();
    let vids: Vec<_> = (0..6)
        .map(|i| build_media_playlist(&content, TrackId::video(i), Packaging::SingleFile))
        .collect();
    let auds: Vec<_> = (0..3)
        .map(|i| build_media_playlist(&content, TrackId::audio(i), Packaging::SingleFile))
        .collect();
    view.attach_derived_bitrates(&vids, &auds).unwrap();
    let log = run(
        &content,
        Box::new(ExoPlayerPolicy::hls_fixed(&view).unwrap()),
        Trace::fig3_varying_600k(Duration::from_secs(3600)),
    );
    assert!(log.completed());
    assert!(log.distinct_tracks(MediaType::Audio).len() > 1);
}

/// Lazy playlist fetching (the practice §4.1 warns against) measurably
/// delays startup relative to preloading, and pays a fetch per used track.
#[test]
fn lazy_playlist_fetching_costs_startup() {
    let content = Content::drama_show(SEED);
    let combos = curated_subset(content.video(), content.audio());
    let view = BoundHls::from_master(
        &MasterPlaylist::parse(&build_master_playlist(&content, &combos, &[0, 1, 2]).to_text())
            .unwrap(),
    )
    .unwrap();
    let mk = |mode| {
        let origin = Origin::with_overhead(content.clone(), Bytes(320));
        let link = Link::with_latency(
            Trace::constant(BitsPerSec::from_kbps(2000)),
            Duration::from_millis(100),
        );
        let config = PlayerConfig::default_chunked(content.chunk_duration());
        Session::new(
            origin,
            link,
            Box::new(BestPracticePolicy::from_hls(&view)),
            config,
        )
        .with_packaging(Packaging::SingleFile)
        .with_playlist_fetch(mode)
        .run()
    };
    let preloaded = mk(PlaylistFetch::Preloaded);
    let lazy = mk(PlaylistFetch::Lazy);
    let eager = mk(PlaylistFetch::Eager);
    assert!(preloaded.playlist_fetches.is_empty());
    assert!(!lazy.playlist_fetches.is_empty());
    assert_eq!(eager.playlist_fetches.len(), 9, "all tracks prefetched");
    assert!(lazy.startup_at.unwrap() > preloaded.startup_at.unwrap());
    assert!(
        eager.startup_at.unwrap() > lazy.startup_at.unwrap(),
        "eager front-loads more"
    );
    // All complete regardless.
    assert!(preloaded.completed() && lazy.completed() && eager.completed());
}

/// The BBA baseline respects the curated set and finishes without an
/// estimator; with ample bandwidth it climbs the whole ladder.
#[test]
fn bba_baseline_plays_within_curation() {
    let content = Content::drama_show(SEED);
    let combos = curated_subset(content.video(), content.audio());
    let view = BoundHls::from_master(
        &MasterPlaylist::parse(&build_master_playlist(&content, &combos, &[0, 1, 2]).to_text())
            .unwrap(),
    )
    .unwrap();
    let log = run(
        &content,
        Box::new(BbaPolicy::from_hls(&view)),
        Trace::constant(BitsPerSec::from_kbps(8000)),
    );
    assert!(log.completed());
    assert_eq!(qoe::off_manifest_chunks(&log, &combos), 0);
    assert_eq!(
        *log.selected_tracks(MediaType::Video).last().unwrap(),
        5,
        "climbs to V6"
    );
    // And on a starving link, BBA camps in the reservoir at the bottom.
    let low = run(
        &content,
        Box::new(BbaPolicy::from_hls(&view)),
        Trace::constant(BitsPerSec::from_kbps(300)),
    );
    let video = low.selected_tracks(MediaType::Video);
    // BBA oscillates across the reservoir boundary on a barely-sufficient
    // link, but stays confined to the bottom rungs, with V1 the mode.
    assert!(
        video.iter().all(|&v| v <= 2),
        "confined to the bottom rungs: {video:?}"
    );
    let v1_count = video.iter().filter(|&&v| v == 0).count();
    for rung in 1..=5usize {
        let c = video.iter().filter(|&&v| v == rung).count();
        assert!(v1_count >= c, "V1 is the most common rung");
    }
}
