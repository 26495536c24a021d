//! The session engine's output on ten fixed sessions, pinned.
//!
//! The engine steps virtual time by popping typed wakes off one clock.
//! The loop it replaced took the minimum of the candidate instants
//! (transfer completion, playback boundary, refill wake) each
//! iteration and checked the deadline inline. A port of that loop ran
//! these sessions beside the engine and required equal [`SessionLog`]s.
//! The digests below were recorded while it still passed, so they hold
//! the engine to the same output without keeping the old loop.
//!
//! The first nine sessions are the port's own. The tenth stops at a
//! deadline placed on a stall end: a deadline that outranks the events at
//! its own instant misses that stall end, which no other session shows.
//!
//! Each session pins two FNV-1a digests: the `Debug` text of its
//! [`SessionLog`] and its JSONL trace. The trace also carries the
//! request, progress and cache events a log does not keep.
//!
//! After an *intentional* change to session behavior, run with
//! `--nocapture` and copy the printed digests into `PINS`.

mod common;

use abr_bench::setup::{run_traced, PlayerKind, SessionSpec};
use abr_event::time::{Duration, Instant};
use abr_httpsim::cache::CdnCache;
use abr_httpsim::edge::EdgeCache;
use abr_manifest::build::Packaging;
use abr_media::content::{Content, SharedContent};
use abr_media::units::{BitsPerSec, Bytes};
use abr_net::trace::Trace;
use abr_obs::export::to_jsonl;
use abr_player::config::PlayerConfig;
use abr_player::policy::FixedPolicy;
use abr_player::session::{DeliveryMode, PlaylistFetch, Session};
use common::fnv1a;

/// `(session label, FNV-1a of its SessionLog's Debug text, FNV-1a of its
/// JSONL trace)`.
const PINS: &[(&str, u64, u64)] = &[
    ("ample", 0x07f7b27ce2774f4d, 0x6d8c158cd8f09ed7),
    ("starved", 0xd77dc39a3459ef03, 0xd8002153ebcc1a7a),
    ("variable", 0x74285e8f0a3ed7d9, 0x717a8d003d9db486),
    ("lazy playlists", 0xde8c30436a60970d, 0xb0df0127e857cdd3),
    ("eager playlists", 0x697f34450367e4d3, 0xd8bd178a8339c78e),
    ("muxed", 0xdebc46213d707ed9, 0xd129cb33111a54e9),
    ("edge cache", 0xc2f81fc05033ee01, 0x1995b37649fe8955),
    ("deadline", 0x5fa51f89af96fa62, 0xe181f0026bb7109f),
    ("byte ranges", 0xded560563473f315, 0xb3c35ca3593d510a),
    ("deadline stall", 0x7236ca58cbecfe40, 0x250bebd29707b0d0),
];

/// The pinned sessions' common recipe: the drama show (seed 1) playing
/// the fixed `(video, audio)` ladder indices over `trace`, on a link
/// with no latency, under the default chunk-synchronized player.
fn base(trace: Trace, video: usize, audio: usize) -> SessionSpec {
    let content: SharedContent = Content::drama_show(1).into();
    let policy = Box::new(FixedPolicy { video, audio });
    SessionSpec {
        latency: Duration::ZERO,
        config: PlayerConfig::default_chunked(content.chunk_duration()),
        ..SessionSpec::new(&content, PlayerKind::BestPractice, policy, trace)
    }
}

/// Runs `session()` untraced and traced, and checks both digests
/// against `label`'s pin.
fn check(label: &str, session: impl Fn() -> Session) {
    let log = session().run();
    let (traced, events) = run_traced(session(), None);
    assert_eq!(traced, log, "{label}: tracing changed the log");
    let log_digest = fnv1a(&format!("{log:?}"));
    let trace_digest = fnv1a(&to_jsonl(&events));
    println!("    (\"{label}\", 0x{log_digest:016x}, 0x{trace_digest:016x}),");
    let &(_, log_pin, trace_pin) = PINS
        .iter()
        .find(|(l, ..)| *l == label)
        .unwrap_or_else(|| panic!("{label}: no pin"));
    assert_eq!(
        (log_digest, trace_digest),
        (log_pin, trace_pin),
        "{label}: (log, trace) digests differ from the pin"
    );
}

fn kbps(k: u64) -> BitsPerSec {
    BitsPerSec::from_kbps(k)
}

#[test]
fn pin_ample_constant_link() {
    check("ample", || base(Trace::constant(kbps(5_000)), 0, 0).build());
}

#[test]
fn pin_starved_link_with_stalls() {
    check("starved", || base(Trace::constant(kbps(500)), 5, 2).build());
}

#[test]
fn pin_variable_link() {
    let trace = Trace::random_walk(
        kbps(900),
        kbps(200),
        kbps(2_000),
        0.4,
        Duration::from_secs(3),
        Duration::from_secs(3600),
        5,
    );
    check("variable", || {
        let spec = SessionSpec {
            content: Content::drama_show(99).into(),
            latency: Duration::from_millis(20),
            overhead: Bytes(320),
            ..base(trace.clone(), 2, 1)
        };
        spec.build()
    });
}

/// A 2 Mbps, 40 ms link to a single-file origin with 320-byte headers,
/// fetching playlists `mode`.
fn playlists(mode: PlaylistFetch, video: usize, audio: usize) -> Session {
    let spec = SessionSpec {
        latency: Duration::from_millis(40),
        overhead: Bytes(320),
        playlist_fetch: mode,
        packaging: Packaging::SingleFile,
        ..base(Trace::constant(kbps(2_000)), video, audio)
    };
    spec.build()
}

#[test]
fn pin_lazy_playlists() {
    check("lazy playlists", || playlists(PlaylistFetch::Lazy, 2, 1));
}

#[test]
fn pin_eager_playlists() {
    check("eager playlists", || playlists(PlaylistFetch::Eager, 1, 0));
}

#[test]
fn pin_muxed_delivery() {
    check("muxed", || {
        let spec = SessionSpec {
            delivery: DeliveryMode::Muxed,
            ..base(Trace::constant(kbps(2_000)), 1, 0)
        };
        spec.build()
    });
}

#[test]
fn pin_edge_cache() {
    check("edge cache", || {
        let spec = SessionSpec {
            latency: Duration::from_millis(10),
            ..base(Trace::constant(kbps(2_000)), 1, 0)
        };
        spec.build().with_transfer_path(Box::new(EdgeCache {
            cache: CdnCache::new(Bytes(1 << 32)),
            miss_penalty: Duration::from_millis(80),
        }))
    });
}

#[test]
fn pin_deadline_cutoff() {
    check("deadline", || {
        let spec = base(Trace::constant(kbps(1)), 0, 0);
        spec.build().with_deadline(Instant::from_secs(600))
    });
}

#[test]
fn pin_byte_range_packaging() {
    check("byte ranges", || {
        let spec = SessionSpec {
            latency: Duration::from_millis(20),
            overhead: Bytes(320),
            packaging: Packaging::SingleFile,
            ..base(Trace::constant(kbps(1_500)), 1, 0)
        };
        spec.build()
    });
}

/// The starved session cut off at its first stall end, 50.922016 s, the
/// instant a chunk arrival resumes playback.
#[test]
fn pin_deadline_at_a_stall_end() {
    check("deadline stall", || {
        let spec = base(Trace::constant(kbps(500)), 5, 2);
        spec.build().with_deadline(Instant::from_micros(50_922_016))
    });
}
