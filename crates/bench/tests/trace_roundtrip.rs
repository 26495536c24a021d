//! Integration: a traced session's event stream, serialized to JSONL and
//! parsed back, reconstructs the directly-recorded `SessionLog` exactly.
//! This is the end-to-end contract the observability layer makes: the
//! trace is not a lossy narration of the session — it *is* the session.

use abr_bench::experiments::{all_ids, traced_sessions};
use abr_bench::setup::{drama, hls_all_view, run_traced, PlayerKind, SessionSpec};
use abr_core::ShakaPolicy;
use abr_event::time::Duration;
use abr_media::track::{MediaType, TrackId};
use abr_media::units::BitsPerSec;
use abr_net::trace::Trace;
use abr_obs::export::{from_jsonl, to_jsonl};
use abr_obs::Event;
use abr_player::session::PlaylistFetch;
use abr_player::SessionLog;

/// The Fig 4(b) Shaka session — dynamic trace, stalls, estimate movement —
/// traced, exported, re-parsed, reconstructed, compared field for field.
#[test]
fn traced_f4b_replay_equals_direct_log() {
    let content = drama();
    let view = hls_all_view(&content);
    let policy = ShakaPolicy::hls(&view);
    let (direct, events) = run_traced(
        SessionSpec::new(
            &content,
            PlayerKind::Shaka,
            Box::new(policy),
            Trace::fig4b_varying_600k(Duration::from_secs(3600)),
        )
        .build(),
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
    let spec = SessionSpec {
        playlist_fetch: PlaylistFetch::Lazy,
        ..SessionSpec::new(
            &content,
            PlayerKind::Shaka,
            Box::new(ShakaPolicy::hls(&view)),
            Trace::fig4b_varying_600k(Duration::from_secs(3600)),
        )
    };
    let (direct, events) = run_traced(spec.build(), None);
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

/// Exactly the experiments that run no session trace nothing (as does
/// an unknown id); a session sweep traces one session per arm (BP1: four
/// traces times six players).
#[test]
fn sweeps_have_no_traced_session() {
    let untraced: Vec<&str> = all_ids()
        .into_iter()
        .filter(|id| traced_sessions(id, 1).is_none())
        .collect();
    assert_eq!(untraced, ["t1", "t2", "t3", "f4x", "m1"]);
    assert!(traced_sessions("nope", 1).is_none());
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
    let (log, events) = run_traced(
        SessionSpec::new(
            &content,
            PlayerKind::Shaka,
            Box::new(ShakaPolicy::hls(&view)),
            Trace::constant(BitsPerSec::from_kbps(1000)),
        )
        .build(),
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
