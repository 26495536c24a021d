//! Integration: a traced session's event stream, serialized to JSONL and
//! parsed back, reconstructs the directly-recorded `SessionLog` exactly.
//! This is the end-to-end contract the observability layer makes: the
//! trace is not a lossy narration of the session — it *is* the session.

use abr_bench::experiments::traced_sessions;
use abr_bench::setup::{drama, hls_all_view, player_config, run_session_obs, PlayerKind};
use abr_core::ShakaPolicy;
use abr_event::time::Duration;
use abr_httpsim::origin::Origin;
use abr_media::track::{MediaType, TrackId};
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
    let (direct, events) = run_session_obs(
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
/// Fig 4(b) trace that fetches its playlists lazily, so playlist fetches
/// interleave with its stalls. Its trace, round-tripped through JSONL,
/// reconstructs the directly-recorded log.
#[test]
fn traced_lazy_playlist_f4b_session_replays_exactly() {
    let content = drama();
    let view = hls_all_view(&content);
    let (obs, tracer) = ObsHandle::recording();
    let direct = Session::new(
        Origin::with_overhead(content.clone(), Bytes::ZERO),
        Link::with_latency(
            Trace::fig4b_varying_600k(Duration::from_secs(3600)),
            Duration::from_millis(20),
        ),
        Box::new(ShakaPolicy::hls(&view)),
        player_config(PlayerKind::Shaka, content.chunk_duration()),
    )
    .with_playlist_fetch(PlaylistFetch::Lazy)
    .with_obs(obs)
    .run();
    let events = tracer.take();
    for name in ["stall_end", "playlist_fetch"] {
        assert!(
            events.iter().any(|e| e.event.name() == name),
            "trace has no {name}"
        );
    }
    // Lazy: one fetch per track the policy used, issued with the track's
    // first selection, for both media.
    for fetch in &direct.playlist_fetches {
        let first = direct.selections.iter().find(|s| s.track == fetch.track);
        assert_eq!(
            first.map(|s| s.at),
            Some(fetch.requested_at),
            "{:?} is fetched on first use",
            fetch.track
        );
    }
    let fetched: Vec<TrackId> = direct.playlist_fetches.iter().map(|f| f.track).collect();
    assert!(fetched.iter().any(|t| t.media == MediaType::Audio));
    assert!(fetched.iter().any(|t| t.media == MediaType::Video));

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

/// The trace carries every transfer the log records, one
/// `transfer_completed` event each, in log order, plus the policy's
/// decisions.
#[test]
fn one_transfer_completed_event_per_logged_transfer() {
    let content = drama();
    let view = hls_all_view(&content);
    let (log, events) = run_session_obs(
        &content,
        PlayerKind::Shaka,
        Box::new(ShakaPolicy::hls(&view)),
        Trace::constant(BitsPerSec::from_kbps(1000)),
        None,
    );
    let completed: Vec<_> = events
        .iter()
        .filter_map(|e| match e.event {
            Event::TransferCompleted {
                track, chunk, size, ..
            } => Some((e.at, track, chunk, size)),
            _ => None,
        })
        .collect();
    let logged: Vec<_> = log
        .transfers
        .iter()
        .map(|t| (t.at, t.track, t.chunk, t.size))
        .collect();
    assert!(!logged.is_empty(), "the session transferred chunks");
    assert_eq!(completed, logged, "one completed event per transfer");
    let decisions = events
        .iter()
        .filter(|e| matches!(e.event, Event::PolicyDecision { .. }))
        .count();
    assert!(decisions > 0, "policy decisions traced");
}
