//! Every policy's decision trace, pinned.
//!
//! One traced session per policy constructor — every `exp mc` arm over
//! DASH (the data-saver arm included, which records both the inner
//! policy's decisions and its own clamp decisions) plus the HLS
//! constructors — of the drama show over the Fig 3 varying ~600 Kbps
//! trace. Each session's JSONL trace is pinned by an FNV-1a digest, so a
//! change to any `policy_decision` (candidates, choice, reason) or
//! `estimate_updated` event of any policy fails here, naming the policy.
//!
//! Three more sessions pin the request paths the policy sessions leave
//! alone: muxed delivery through an edge cache, byte-range packaging with
//! eager playlists, and lazy playlists.
//!
//! After an *intentional* change to a policy's decisions or reasons,
//! run with `--nocapture` and copy the printed digests into `PINS`.

mod common;

use abr_bench::mc::mc_policies;
use abr_bench::setup::{
    dash_view, drama, hls_all_view, hls_sub_view, run_traced, PlayerKind, SessionSpec,
};
use abr_core::{BbaPolicy, BestPracticePolicy, ExoPlayerPolicy, MpcPolicy, ShakaPolicy};
use abr_event::time::Duration;
use abr_httpsim::cache::CdnCache;
use abr_httpsim::edge::EdgeCache;
use abr_manifest::build::{build_master_playlist_ext, Packaging};
use abr_manifest::view::BoundHls;
use abr_manifest::MasterPlaylist;
use abr_media::combo::curated_subset;
use abr_media::units::Bytes;
use abr_net::trace::Trace;
use abr_obs::export::to_jsonl;
use abr_obs::Event;
use abr_player::policy::AbrPolicy;
use abr_player::session::{DeliveryMode, PlaylistFetch, Session};
use common::fnv1a;

/// `(session label, FNV-1a digest of its JSONL trace)`.
const PINS: &[(&str, u64)] = &[
    ("dash/ExoPlayer", 0x72ead2b26b983647),
    ("dash/Shaka", 0x64db4e71ebc355f1),
    ("dash/DashJs", 0x159440ed0233f01d),
    ("dash/Bba", 0x8120596b23fb1b34),
    ("dash/Mpc", 0x56ce326a1b8443ef),
    ("dash/BestPractice", 0xa8352949beca43e0),
    ("dash/Capped2500", 0x377fa6874c0cb14f),
    ("hls/exoplayer", 0x0376e2f811f3d798),
    ("hls/exoplayer-fixed", 0xb4c82e8f7ee282c1),
    ("hls/shaka", 0x8c5498c83f41f8d5),
    ("hls/bestpractice", 0xfc913b5484b67353),
    ("hls/bba", 0xb7b915624bfa3f6c),
    ("hls/mpc", 0xd3fea65c18d6eed3),
];

/// The pinned sessions, in `PINS` order.
fn sessions() -> Vec<(String, PlayerKind, Box<dyn AbrPolicy>)> {
    let content = drama();
    let dash = dash_view(&content);
    let mut out: Vec<(String, PlayerKind, Box<dyn AbrPolicy>)> = mc_policies()
        .into_iter()
        .map(|arm| {
            (
                format!("dash/{}", arm.label()),
                arm.player_kind(),
                arm.policy(&content, &dash),
            )
        })
        .collect();
    let all = hls_all_view(&content);
    let sub = hls_sub_view(&content, &[2, 0, 1]);
    let ext = BoundHls::from_master(
        &MasterPlaylist::parse(
            &build_master_playlist_ext(
                &content,
                &curated_subset(content.video(), content.audio()),
                &[2, 0, 1],
            )
            .to_text(),
        )
        .expect("parses"),
    )
    .expect("binds");
    out.push((
        "hls/exoplayer".into(),
        PlayerKind::ExoPlayer,
        Box::new(ExoPlayerPolicy::hls(&sub)),
    ));
    out.push((
        "hls/exoplayer-fixed".into(),
        PlayerKind::ExoPlayer,
        Box::new(ExoPlayerPolicy::hls_fixed(&ext).expect("extension present")),
    ));
    out.push((
        "hls/shaka".into(),
        PlayerKind::Shaka,
        Box::new(ShakaPolicy::hls(&all)),
    ));
    out.push((
        "hls/bestpractice".into(),
        PlayerKind::BestPractice,
        Box::new(BestPracticePolicy::from_hls(&sub)),
    ));
    out.push((
        "hls/bba".into(),
        PlayerKind::Bba,
        Box::new(BbaPolicy::from_hls(&all)),
    ));
    out.push((
        "hls/mpc".into(),
        PlayerKind::Mpc,
        Box::new(MpcPolicy::from_hls(&all)),
    ));
    out
}

#[test]
fn every_policy_trace_matches_its_pin() {
    let content = drama();
    let mut actual = Vec::new();
    for (label, kind, policy) in sessions() {
        let trace = Trace::fig3_varying_600k(Duration::from_secs(3600));
        let (_, events) = run_traced(
            SessionSpec::new(&content, kind, policy, trace).build(),
            None,
        );
        let decisions = events
            .iter()
            .filter(|e| matches!(e.event, Event::PolicyDecision { .. }))
            .count();
        assert!(decisions > 0, "{label}: no policy_decision events");
        // BBA never estimates; Shaka over H_all on this trace never passes
        // its 16 KB validity filter (the Fig 4a failure mode), so its
        // estimate stays at the default (`results/f4b.trace.jsonl` pins its
        // updates on the Fig 4b trace).
        if kind != PlayerKind::Bba && label != "hls/shaka" {
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e.event, Event::EstimateUpdated { .. })),
                "{label}: no estimate_updated events"
            );
        }
        let digest = fnv1a(&to_jsonl(&events));
        println!("    (\"{label}\", 0x{digest:016x}),");
        actual.push((label, digest));
    }
    let mismatched: Vec<String> = actual
        .iter()
        .zip(PINS)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((label, got), (_, want))| format!("{label}: 0x{got:016x}, pinned 0x{want:016x}"))
        .collect();
    assert!(
        mismatched.is_empty() && actual.len() == PINS.len(),
        "{} of {} policy traces differ from their pins ({} pinned):\n{}",
        mismatched.len(),
        actual.len(),
        PINS.len(),
        mismatched.join("\n")
    );
    let labels: Vec<&str> = actual.iter().map(|(l, _)| l.as_str()).collect();
    let pinned: Vec<&str> = PINS.iter().map(|&(l, _)| l).collect();
    assert_eq!(labels, pinned, "pinned session order");
}

/// `(session label, FNV-1a digest of its JSONL trace)` for the sessions
/// off the default request path, in [`delivery_sessions`] order.
const DELIVERY_PINS: &[(&str, u64)] = &[
    ("dash/ExoPlayer muxed edge", 0x7c1f216b78e90734),
    ("hls/bestpractice single-file eager", 0x880d20679fb2a3d5),
    ("hls/mpc lazy", 0x3f8beccf27455fe0),
];

/// The sessions behind [`DELIVERY_PINS`]: the Fig 3 varying trace on a
/// 100 ms link with 320-byte headers, so playlist round trips and request
/// sizes both show in the trace.
fn delivery_sessions() -> Vec<(&'static str, Session)> {
    let content = drama();
    let dash = dash_view(&content);
    let sub = hls_sub_view(&content, &[2, 0, 1]);
    let all = hls_all_view(&content);
    let spec = |kind, policy: Box<dyn AbrPolicy>| SessionSpec {
        overhead: Bytes(320),
        latency: Duration::from_millis(100),
        ..SessionSpec::new(
            &content,
            kind,
            policy,
            Trace::fig3_varying_600k(Duration::from_secs(3600)),
        )
    };
    let tagged = Packaging::SegmentFiles {
        with_bitrate_tags: true,
    };
    vec![
        (
            "dash/ExoPlayer muxed edge",
            SessionSpec {
                delivery: DeliveryMode::Muxed,
                ..spec(
                    PlayerKind::ExoPlayer,
                    Box::new(ExoPlayerPolicy::dash(&dash)),
                )
            }
            .build()
            .with_transfer_path(Box::new(EdgeCache {
                cache: CdnCache::new(Bytes(1 << 32)),
                miss_penalty: Duration::from_millis(30),
            })),
        ),
        (
            "hls/bestpractice single-file eager",
            SessionSpec {
                packaging: Packaging::SingleFile,
                playlist_fetch: PlaylistFetch::Eager,
                ..spec(
                    PlayerKind::BestPractice,
                    Box::new(BestPracticePolicy::from_hls(&sub)),
                )
            }
            .build(),
        ),
        (
            "hls/mpc lazy",
            SessionSpec {
                packaging: tagged,
                playlist_fetch: PlaylistFetch::Lazy,
                ..spec(PlayerKind::Mpc, Box::new(MpcPolicy::from_hls(&all)))
            }
            .build(),
        ),
    ]
}

#[test]
fn every_delivery_path_trace_matches_its_pin() {
    let mut actual = Vec::new();
    for (label, session) in delivery_sessions() {
        let (log, events) = run_traced(session, None);
        assert!(log.completed(), "{label}: the session plays to the end");
        let digest = fnv1a(&to_jsonl(&events));
        println!("    (\"{label}\", 0x{digest:016x}),");
        actual.push((label, digest));
    }
    assert_eq!(
        actual, DELIVERY_PINS,
        "delivery-path traces differ from their pins"
    );
}
