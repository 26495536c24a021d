//! Property-based integration tests: conservation and ordering invariants
//! that must hold for *any* session, policy, seed and trace.

use abr_unmuxed::core::{BestPracticePolicy, DashJsPolicy, ExoPlayerPolicy, ShakaPolicy};
use abr_unmuxed::event::time::Duration;
use abr_unmuxed::httpsim::origin::Origin;
use abr_unmuxed::manifest::build::{build_master_playlist, build_mpd};
use abr_unmuxed::manifest::view::{BoundDash, BoundHls};
use abr_unmuxed::media::combo::curated_subset;
use abr_unmuxed::media::content::Content;
use abr_unmuxed::media::track::MediaType;
use abr_unmuxed::media::units::{BitsPerSec, Bytes};
use abr_unmuxed::net::link::Link;
use abr_unmuxed::net::trace::Trace;
use abr_unmuxed::player::config::{PlayerConfig, SyncMode};
use abr_unmuxed::player::policy::AbrPolicy;
use abr_unmuxed::player::session::{DeliveryMode, PlaylistFetch};
use abr_unmuxed::player::Session;
use abr_unmuxed::player::SessionLog;
use proptest::prelude::*;

fn any_policy(which: u8, content: &Content) -> Box<dyn AbrPolicy> {
    let dview = BoundDash::from_mpd(&build_mpd(content)).unwrap();
    match which % 4 {
        0 => Box::new(ExoPlayerPolicy::dash(&dview)),
        1 => Box::new(ShakaPolicy::dash(&dview)),
        2 => Box::new(DashJsPolicy::new(&dview)),
        _ => {
            let combos = curated_subset(content.video(), content.audio());
            let master = build_master_playlist(content, &combos, &[0, 1, 2]);
            let hview = BoundHls::from_master(&master).unwrap();
            Box::new(BestPracticePolicy::from_hls(&hview))
        }
    }
}

fn check_invariants(log: &SessionLog, content: &Content) {
    check_invariants_modal(log, content, false);
}

fn check_invariants_modal(log: &SessionLog, content: &Content, muxed: bool) {
    // 1. No chunk is fetched twice, and fetches are in order per media.
    for media in [MediaType::Audio, MediaType::Video] {
        let mut chunks: Vec<usize> = log.selections_for(media).map(|s| s.chunk).collect();
        let sorted = {
            let mut c = chunks.clone();
            c.sort_unstable();
            c
        };
        assert_eq!(chunks, sorted, "{media} chunks fetched in order");
        chunks.dedup();
        assert_eq!(
            chunks.len(),
            log.selections_for(media).count(),
            "no duplicate fetches"
        );
    }
    // 2. Transfer sizes match the content model exactly (chunk body plus
    //    the 320-byte header overhead these sessions configure). Muxed
    //    transfers carry both components; the log records the video track
    //    and the paired audio appears in the selections.
    if muxed {
        let audio = {
            let mut by_chunk = vec![None; log.num_chunks];
            for s in log.selections_for(MediaType::Audio) {
                by_chunk[s.chunk] = Some(s.track);
            }
            by_chunk
        };
        for t in &log.transfers {
            let a = audio[t.chunk].expect("audio selected for the position");
            assert_eq!(
                t.size,
                content.chunk_size(t.track, t.chunk) + content.chunk_size(a, t.chunk) + Bytes(320),
                "muxed size conservation"
            );
        }
    } else {
        for t in &log.transfers {
            assert_eq!(
                t.size,
                content.chunk_size(t.track, t.chunk) + Bytes(320),
                "size conservation"
            );
        }
    }
    // 3. Buffer samples are time-ordered and non-negative by construction;
    //    stalls are disjoint and ordered.
    assert!(log.buffer_samples.windows(2).all(|w| w[0].at <= w[1].at));
    for w in log.stalls.windows(2) {
        let end = w[0].end.expect("only the last stall may be open");
        assert!(end <= w[1].start, "stalls disjoint");
    }
    // 4. If the session completed, every chunk of both media was fetched
    //    and playback ended exactly at the content duration.
    if let Some(ended) = log.ended_at {
        assert!(log.completed());
        assert!(ended <= log.finished_at);
        assert_eq!(
            log.selections_for(MediaType::Audio).count(),
            content.num_chunks()
        );
        assert_eq!(
            log.selections_for(MediaType::Video).count(),
            content.num_chunks()
        );
    }
    // 5. Startup precedes every stall.
    if let (Some(start), Some(stall)) = (log.startup_at, log.stalls.first()) {
        assert!(start <= stall.start);
    }
}

/// One session over a constant-rate link, checked against the
/// conservation invariants. `playlist_mode` 0, 1 and 2 select preloaded,
/// eager and lazy playlists; it only applies to demuxed delivery.
fn constant_rate_session_holds_invariants(
    which: u8,
    kbps: u64,
    seed: u64,
    sync_independent: bool,
    muxed: bool,
    playlist_mode: u8,
) {
    let content = Content::drama_show(seed);
    let policy = any_policy(which, &content);
    let origin = Origin::with_overhead(content.clone(), Bytes(320));
    let link = Link::with_latency(
        Trace::constant(BitsPerSec::from_kbps(kbps)),
        Duration::from_millis(20),
    );
    let config = PlayerConfig {
        startup_threshold: content.chunk_duration(),
        resume_threshold: content.chunk_duration(),
        max_buffer: Duration::from_secs(30),
        sync: if sync_independent {
            SyncMode::Independent
        } else {
            SyncMode::ChunkLevel {
                tolerance: content.chunk_duration(),
            }
        },
    };
    let mut session = Session::new(origin, link, policy, config)
        .with_deadline(abr_unmuxed::event::time::Instant::from_secs(4000));
    if muxed {
        session = session.with_delivery(DeliveryMode::Muxed);
    } else {
        // Playlist fetching only applies to demuxed sessions here.
        let mode = match playlist_mode {
            0 => PlaylistFetch::Preloaded,
            1 => PlaylistFetch::Eager,
            _ => PlaylistFetch::Lazy,
        };
        session = session
            .with_packaging(abr_unmuxed::manifest::build::Packaging::SingleFile)
            .with_playlist_fetch(mode);
    }
    let log = session.run();
    check_invariants_modal(&log, &content, muxed);
}

/// A case proptest once shrank to: ExoPlayer starved at 150 Kbps on the
/// seed-0 content with chunk-level sync, in both delivery modes and all
/// three playlist modes.
#[test]
fn starved_exoplayer_at_150_kbps_holds_invariants() {
    constant_rate_session_holds_invariants(0, 150, 0, false, true, 0);
    for playlist_mode in 0..3 {
        constant_rate_session_holds_invariants(0, 150, 0, false, false, playlist_mode);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (policy, bandwidth, seed, delivery, playlist-fetch) combination
    /// upholds the conservation invariants — including starved links that
    /// never complete.
    #[test]
    fn session_invariants_hold(
        which in 0u8..4,
        kbps in 150u64..6000,
        seed in 0u64..50,
        sync_independent in any::<bool>(),
        muxed in any::<bool>(),
        playlist_mode in 0u8..3,
    ) {
        constant_rate_session_holds_invariants(
            which,
            kbps,
            seed,
            sync_independent,
            muxed,
            playlist_mode,
        );
    }

    /// Random-walk traces: same invariants under fluctuating bandwidth.
    #[test]
    fn session_invariants_hold_on_random_walks(
        which in 0u8..4,
        trace_seed in 0u64..30,
    ) {
        let content = Content::drama_show(7);
        let policy = any_policy(which, &content);
        let trace = Trace::random_walk(
            BitsPerSec::from_kbps(800),
            BitsPerSec::from_kbps(150),
            BitsPerSec::from_kbps(3000),
            0.4,
            Duration::from_secs(3),
            Duration::from_secs(3600),
            trace_seed,
        );
        let origin = Origin::with_overhead(content.clone(), Bytes(320));
        let link = Link::with_latency(trace, Duration::from_millis(20));
        let config = PlayerConfig {
            startup_threshold: content.chunk_duration(),
            resume_threshold: content.chunk_duration(),
            max_buffer: Duration::from_secs(30),
            sync: SyncMode::ChunkLevel { tolerance: content.chunk_duration() },
        };
        let log = Session::new(origin, link, policy, config)
            .with_deadline(abr_unmuxed::event::time::Instant::from_secs(4000))
            .run();
        check_invariants(&log, &content);
        // 800 Kbps average comfortably exceeds the lowest combination:
        // every policy must finish the clip.
        prop_assert!(log.completed(), "policy {} failed to complete", log.policy);
    }
}
