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

use abr_event::time::{Duration, Instant};
use abr_httpsim::cache::CdnCache;
use abr_httpsim::edge::EdgeCache;
use abr_httpsim::origin::Origin;
use abr_manifest::build::Packaging;
use abr_media::content::Content;
use abr_media::units::{BitsPerSec, Bytes};
use abr_net::link::Link;
use abr_net::trace::Trace;
use abr_obs::export::to_jsonl;
use abr_obs::ObsHandle;
use abr_player::config::PlayerConfig;
use abr_player::log::SessionLog;
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

/// One pinned session's inputs; every field but the trace has a default
/// in [`base`].
struct Scenario {
    content: Content,
    trace: Trace,
    latency: Duration,
    overhead: Bytes,
    /// The fixed `(video, audio)` ladder indices the session plays.
    tracks: (usize, usize),
    packaging: Packaging,
    playlist_fetch: PlaylistFetch,
    delivery: DeliveryMode,
    /// Edge cache `(capacity, miss penalty)`, if the session has one.
    edge: Option<(Bytes, Duration)>,
    deadline: Option<Instant>,
}

impl Scenario {
    fn session(&self) -> Session {
        let (video, audio) = self.tracks;
        let mut s = Session::new(
            Origin::with_overhead(self.content.clone(), self.overhead),
            Link::with_latency(self.trace.clone(), self.latency),
            Box::new(FixedPolicy { video, audio }),
            PlayerConfig::default_chunked(self.content.chunk_duration()),
        )
        .with_packaging(self.packaging)
        .with_delivery(self.delivery);
        if self.playlist_fetch != PlaylistFetch::Preloaded {
            s = s.with_playlist_fetch(self.playlist_fetch);
        }
        if let Some((capacity, miss_penalty)) = self.edge {
            s = s.with_transfer_path(Box::new(EdgeCache {
                cache: CdnCache::new(capacity),
                miss_penalty,
            }));
        }
        if let Some(d) = self.deadline {
            s = s.with_deadline(d);
        }
        s
    }

    fn tap(mut self, f: impl FnOnce(&mut Scenario)) -> Scenario {
        f(&mut self);
        self
    }

    /// Runs the session untraced and traced, and checks both digests
    /// against `label`'s pin.
    fn check(&self, label: &str) {
        let log: SessionLog = self.session().run();
        let (obs, tracer) = ObsHandle::recording();
        let traced = self.session().with_obs(obs).run();
        assert_eq!(traced, log, "{label}: tracing changed the log");
        let log_digest = fnv1a(&format!("{log:?}"));
        let trace_digest = fnv1a(&to_jsonl(&tracer.take()));
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
}

fn kbps(k: u64) -> BitsPerSec {
    BitsPerSec::from_kbps(k)
}

fn base(trace: Trace, video: usize, audio: usize) -> Scenario {
    Scenario {
        content: Content::drama_show(1),
        trace,
        latency: Duration::ZERO,
        overhead: Bytes::ZERO,
        tracks: (video, audio),
        packaging: Packaging::SegmentFiles {
            with_bitrate_tags: false,
        },
        playlist_fetch: PlaylistFetch::Preloaded,
        delivery: DeliveryMode::Demuxed,
        edge: None,
        deadline: None,
    }
}

#[test]
fn pin_ample_constant_link() {
    base(Trace::constant(kbps(5_000)), 0, 0).check("ample");
}

#[test]
fn pin_starved_link_with_stalls() {
    base(Trace::constant(kbps(500)), 5, 2).check("starved");
}

#[test]
fn pin_variable_link() {
    base(
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
    )
    .tap(|s| {
        s.content = Content::drama_show(99);
        s.latency = Duration::from_millis(20);
        s.overhead = Bytes(320);
    })
    .check("variable");
}

#[test]
fn pin_lazy_playlists() {
    base(Trace::constant(kbps(2_000)), 2, 1)
        .tap(|s| {
            s.latency = Duration::from_millis(40);
            s.overhead = Bytes(320);
            s.playlist_fetch = PlaylistFetch::Lazy;
            s.packaging = Packaging::SingleFile;
        })
        .check("lazy playlists");
}

#[test]
fn pin_eager_playlists() {
    base(Trace::constant(kbps(2_000)), 1, 0)
        .tap(|s| {
            s.latency = Duration::from_millis(40);
            s.overhead = Bytes(320);
            s.playlist_fetch = PlaylistFetch::Eager;
            s.packaging = Packaging::SingleFile;
        })
        .check("eager playlists");
}

#[test]
fn pin_muxed_delivery() {
    base(Trace::constant(kbps(2_000)), 1, 0)
        .tap(|s| s.delivery = DeliveryMode::Muxed)
        .check("muxed");
}

#[test]
fn pin_edge_cache() {
    base(Trace::constant(kbps(2_000)), 1, 0)
        .tap(|s| {
            s.latency = Duration::from_millis(10);
            s.edge = Some((Bytes(1 << 32), Duration::from_millis(80)));
        })
        .check("edge cache");
}

#[test]
fn pin_deadline_cutoff() {
    base(Trace::constant(kbps(1)), 0, 0)
        .tap(|s| s.deadline = Some(Instant::from_secs(600)))
        .check("deadline");
}

#[test]
fn pin_byte_range_packaging() {
    base(Trace::constant(kbps(1_500)), 1, 0)
        .tap(|s| {
            s.latency = Duration::from_millis(20);
            s.overhead = Bytes(320);
            s.packaging = Packaging::SingleFile;
        })
        .check("byte ranges");
}

/// The starved session cut off at its first stall end, 50.922016 s, the
/// instant a chunk arrival resumes playback.
#[test]
fn pin_deadline_at_a_stall_end() {
    base(Trace::constant(kbps(500)), 5, 2)
        .tap(|s| s.deadline = Some(Instant::from_micros(50_922_016)))
        .check("deadline stall");
}
