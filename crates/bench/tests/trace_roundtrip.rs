//! Integration: a traced session's event stream, serialized to JSONL and
//! parsed back, reconstructs the directly-recorded `SessionLog` exactly.
//! This is the end-to-end contract the observability layer makes: the
//! trace is not a lossy narration of the session — it *is* the session.

use abr_bench::experiments::traced_sessions;
use abr_bench::setup::{drama, hls_all_view, player_config, run_session_obs, PlayerKind};
use abr_core::ShakaPolicy;
use abr_event::time::{Duration, Instant};
use abr_httpsim::origin::Origin;
use abr_manifest::build::Packaging;
use abr_media::units::{BitsPerSec, Bytes};
use abr_net::link::Link;
use abr_net::trace::Trace;
use abr_obs::export::{from_jsonl, to_jsonl};
use abr_obs::{Event, ObsHandle};
use abr_player::session::PlaylistFetch;
use abr_player::{Session, SessionLog};

/// The Fig 4(b) Shaka session — dynamic trace, stalls, estimate movement —
/// traced, exported, re-parsed, reconstructed, compared field for field.
#[test]
fn traced_f4b_replay_equals_direct_log() {
    let content = drama();
    let view = hls_all_view(&content);
    let policy = ShakaPolicy::hls(&view);
    let (direct, events, _metrics) = run_session_obs(
        &content,
        PlayerKind::Shaka,
        Box::new(policy),
        Trace::fig4b_varying_600k(Duration::from_secs(3600)),
        None,
    );

    // The session must actually have exercised the interesting machinery,
    // or the equality below proves nothing.
    assert!(!events.is_empty(), "trace captured no events");
    assert!(direct.stall_count() > 0, "f4b should stall");
    assert!(!direct.transfers.is_empty() && !direct.selections.is_empty());

    let text = to_jsonl(&events);
    let parsed = from_jsonl(&text).expect("jsonl parses back");
    assert_eq!(parsed, events, "jsonl round trip is lossless");

    let replayed = SessionLog::from_trace(&parsed).expect("trace reconstructs");
    assert_eq!(
        replayed, direct,
        "replayed log equals the directly-recorded log"
    );
}

/// The same equality through the `exp` runner's hook, for the dash.js
/// session (independent audio/video pipelines — a different event
/// interleaving than Shaka's).
#[test]
fn traced_session_hook_replay_equals_direct_log() {
    let outcomes = traced_sessions("f5a", 1).expect("f5a is traceable");
    assert_eq!(outcomes.len(), 1, "f5a has one session");
    let outcome = &outcomes[0];
    let replayed = SessionLog::from_trace(&from_jsonl(&to_jsonl(&outcome.events)).unwrap())
        .expect("reconstructs");
    assert_eq!(replayed, outcome.log);
}

/// The fold arms the figure sessions never reach: a Shaka session on the
/// Fig 4(b) trace that fetches its playlists lazily, refreshes them live,
/// and seeks in the middle of a stall. Its trace, round-tripped through
/// JSONL, reconstructs the directly-recorded log.
#[test]
fn traced_seek_while_stalled_with_live_playlists_replays_exactly() {
    let content = drama();
    let packaging = Packaging::SegmentFiles {
        with_bitrate_tags: false,
    };
    let session = || {
        let view = hls_all_view(&content);
        Session::new(
            Origin::with_overhead(content.clone(), Bytes::ZERO),
            Link::with_latency(
                Trace::fig4b_varying_600k(Duration::from_secs(3600)),
                Duration::from_millis(20),
            ),
            Box::new(ShakaPolicy::hls(&view)),
            player_config(PlayerKind::Shaka, content.chunk_duration()),
        )
        .with_playlist_fetch(PlaylistFetch::Lazy, packaging)
        .with_playlist_refresh(Duration::from_secs(10), packaging)
    };
    // Seek halfway into the first stall of the unseeked run, to 60 s past
    // the wall clock (so past the playhead): nothing before the seek
    // changes, so the stall is still open when it lands.
    let unseeked = session().run();
    let stall = unseeked.stalls[0];
    let stall_end = stall.end.expect("the first stall resolves");
    let at = stall.start + (stall_end - stall.start) / 2;
    let to = (at - Instant::ZERO) + Duration::from_secs(60);

    let (obs, tracer, _metrics) = ObsHandle::recording();
    let direct = session().with_seeks(vec![(at, to)]).with_obs(obs).run();
    let events = tracer.take();
    for name in [
        "stall_end",
        "seek_started",
        "seek_resumed",
        "playlist_fetch",
    ] {
        assert!(
            events.iter().any(|e| e.event.name() == name),
            "trace has no {name}"
        );
    }
    let seek_at = direct.seeks[0].at;
    assert!(
        direct.stalls.iter().any(|s| s.end == Some(seek_at)),
        "the seek closes an open stall"
    );
    assert!(
        direct.playlist_fetches.len() > 2,
        "lazy and refresh fetches"
    );

    let parsed = from_jsonl(&to_jsonl(&events)).expect("jsonl parses back");
    assert_eq!(parsed, events, "jsonl round trip is lossless");
    let replayed = SessionLog::from_trace(&parsed).expect("trace reconstructs");
    assert_eq!(replayed, direct);
}

/// Sweep experiments have no single canonical session to trace: pure
/// tables and stateful sweeps trace nothing, and a session sweep traces
/// one session per arm (BP1: four traces times six players).
#[test]
fn sweeps_have_no_traced_session() {
    for id in ["t1", "m1", "nope"] {
        assert!(traced_sessions(id, 1).is_none(), "{id} should not trace");
    }
    let bp1 = traced_sessions("bp1", 1).expect("bp1 traces its arms");
    assert_eq!(bp1.len(), 24, "one traced session per (trace, player) arm");
}

/// The metrics registry riding along with the trace carries the link and
/// policy counters the session actually exercised.
#[test]
fn metrics_ride_along_with_the_trace() {
    let content = drama();
    let view = hls_all_view(&content);
    let (log, events, metrics) = run_session_obs(
        &content,
        PlayerKind::Shaka,
        Box::new(ShakaPolicy::hls(&view)),
        Trace::constant(BitsPerSec::from_kbps(1000)),
        None,
    );
    let completed = *metrics
        .counters
        .get("link.flows_completed")
        .expect("link counter present");
    assert_eq!(
        completed as usize,
        log.transfers.len(),
        "one completed flow per transfer"
    );
    let decisions = events
        .iter()
        .filter(|e| matches!(e.event, Event::PolicyDecision { .. }))
        .count();
    assert!(decisions > 0, "policy decisions traced");
}
