//! Unit tests for the session-log accessors and trace reconstruction.

use abr_event::time::{Duration, Instant};
use abr_media::track::{MediaType, TrackId};
use abr_media::units::{BitsPerSec, Bytes};
use abr_obs::{Event, TracedEvent};
use abr_player::log::{BufferSample, SelectionEvent, SessionLog};
use abr_player::playback::Stall;

fn sel(at: u64, chunk: usize, track: TrackId, kbps: u64) -> SelectionEvent {
    SelectionEvent {
        at: Instant::from_secs(at),
        chunk,
        track,
        declared: BitsPerSec::from_kbps(kbps),
        avg_bitrate: BitsPerSec::from_kbps(kbps),
    }
}

fn empty_log() -> SessionLog {
    SessionLog {
        policy: "test".into(),
        selections: vec![],
        transfers: vec![],
        buffer_samples: vec![],
        stalls: vec![],
        playlist_fetches: vec![],
        seeks: vec![],
        startup_at: None,
        ended_at: None,
        finished_at: Instant::from_secs(100),
        chunk_duration: Duration::from_secs(4),
        num_chunks: 3,
    }
}

#[test]
fn selected_tracks_and_switches() {
    let mut log = empty_log();
    log.selections = vec![
        sel(0, 0, TrackId::video(1), 246),
        sel(0, 0, TrackId::audio(0), 128),
        sel(4, 1, TrackId::video(2), 473),
        sel(4, 1, TrackId::audio(0), 128),
        sel(8, 2, TrackId::video(2), 473),
        sel(8, 2, TrackId::audio(1), 196),
    ];
    assert_eq!(log.selected_tracks(MediaType::Video), vec![1, 2, 2]);
    assert_eq!(log.selected_tracks(MediaType::Audio), vec![0, 0, 1]);
    assert_eq!(log.switch_count(MediaType::Video), 1);
    assert_eq!(log.switch_count(MediaType::Audio), 1);
    assert_eq!(log.distinct_tracks(MediaType::Video), vec![1, 2]);
}

#[test]
fn mean_selected_bitrate() {
    let mut log = empty_log();
    log.selections = vec![
        sel(0, 0, TrackId::video(0), 100),
        sel(4, 1, TrackId::video(1), 300),
    ];
    assert_eq!(
        log.mean_selected_avg_bitrate(MediaType::Video),
        Some(BitsPerSec::from_kbps(200))
    );
    assert_eq!(log.mean_selected_avg_bitrate(MediaType::Audio), None);
}

#[test]
fn stall_totals_count_open_stalls() {
    let mut log = empty_log();
    log.stalls = vec![
        Stall {
            start: Instant::from_secs(10),
            end: Some(Instant::from_secs(13)),
        },
        Stall {
            start: Instant::from_secs(90),
            end: None,
        },
    ];
    assert_eq!(log.stall_count(), 2);
    // 3 s closed + 10 s open (to finished_at = 100).
    assert_eq!(log.total_stall(), Duration::from_secs(13));
}

#[test]
fn imbalance_integral() {
    let mut log = empty_log();
    log.buffer_samples = vec![
        BufferSample {
            at: Instant::ZERO,
            audio: Duration::from_secs(10),
            video: Duration::from_secs(10),
        },
        BufferSample {
            at: Instant::from_secs(10),
            audio: Duration::from_secs(30),
            video: Duration::from_secs(10),
        },
    ];
    // Imbalance ramps 0 → 20 s over 10 s: mean 10 s, max 20 s.
    assert_eq!(log.mean_buffer_imbalance(), Duration::from_secs(10));
    assert_eq!(log.max_buffer_imbalance(), Duration::from_secs(20));
}

#[test]
fn completed_requires_full_coverage_and_end() {
    let mut log = empty_log();
    log.num_chunks = 1;
    log.selections = vec![
        sel(0, 0, TrackId::video(0), 100),
        sel(0, 0, TrackId::audio(0), 100),
    ];
    assert!(!log.completed(), "no ended_at yet");
    log.ended_at = Some(Instant::from_secs(4));
    assert!(log.completed());
}

#[test]
fn duplicate_selection_resolves_last_write_wins() {
    let mut log = empty_log();
    log.selections = vec![
        sel(0, 0, TrackId::video(0), 100),
        sel(1, 0, TrackId::video(1), 100),
    ];
    assert_eq!(log.selected_tracks(MediaType::Video), vec![1]);
    let err = log.try_selected_tracks(MediaType::Video).unwrap_err();
    assert_eq!(err.chunk, 0);
    assert_eq!((err.first, err.second), (0, 1));
    assert!(err
        .to_string()
        .contains("duplicate video selection for chunk 0"));
    // Clean logs agree between the strict and lenient accessors.
    log.selections.pop();
    assert_eq!(
        log.try_selected_tracks(MediaType::Video).unwrap(),
        log.selected_tracks(MediaType::Video)
    );
}

#[test]
fn from_trace_reconstructs_rows() {
    use Instant as I;
    let mk = |seq, at, event| TracedEvent {
        seq,
        at,
        wall_ns: 0,
        event,
    };
    let events = vec![
        mk(
            0,
            I::ZERO,
            Event::SessionStart {
                policy: "test".into(),
                chunk_duration: Duration::from_secs(4),
                num_chunks: 3,
            },
        ),
        mk(
            1,
            I::ZERO,
            Event::TrackSelected {
                chunk: 0,
                track: TrackId::video(1),
                declared: BitsPerSec::from_kbps(246),
                avg_bitrate: BitsPerSec::from_kbps(240),
            },
        ),
        mk(
            2,
            I::from_secs(1),
            Event::TransferCompleted {
                flow: 0,
                track: TrackId::video(1),
                chunk: 0,
                size: Bytes(120_000),
                opened_at: I::ZERO,
                estimate_after: Some(BitsPerSec::from_kbps(960)),
            },
        ),
        mk(
            3,
            I::from_secs(1),
            Event::BufferStateChange {
                audio: Duration::from_secs(4),
                video: Duration::from_secs(4),
            },
        ),
        mk(4, I::from_secs(2), Event::PlaybackStarted),
        mk(5, I::from_secs(6), Event::StallBegin),
        mk(6, I::from_secs(8), Event::StallEnd),
        mk(
            7,
            I::from_secs(9),
            Event::PlaylistFetch {
                track: TrackId::audio(0),
                requested_at: I::from_secs(8),
            },
        ),
        mk(8, I::from_secs(12), Event::PlaybackEnded),
        mk(9, I::from_secs(12), Event::SessionEnd),
    ];
    let log = SessionLog::from_trace(&events).unwrap();
    assert_eq!(log.policy, "test");
    assert_eq!(log.selections.len(), 1);
    assert_eq!(log.transfers[0].duration, Duration::from_secs(1));
    assert_eq!(
        log.transfers[0].estimate_after,
        Some(BitsPerSec::from_kbps(960))
    );
    assert_eq!(log.buffer_samples.len(), 1);
    assert_eq!(
        log.stalls,
        vec![Stall {
            start: I::from_secs(6),
            end: Some(I::from_secs(8))
        }]
    );
    assert_eq!(log.playlist_fetches[0].completed_at, I::from_secs(9));
    assert_eq!(log.startup_at, Some(I::from_secs(2)));
    assert_eq!(log.ended_at, Some(I::from_secs(12)));
    assert_eq!(log.finished_at, I::from_secs(12));
    assert_eq!(log.total_stall(), Duration::from_secs(2));
}

#[test]
fn from_trace_rejects_malformed_traces() {
    let mk = |seq, event| TracedEvent {
        seq,
        at: Instant::ZERO,
        wall_ns: 0,
        event,
    };
    assert!(SessionLog::from_trace(&[]).is_err());
    let err = SessionLog::from_trace(&[mk(0, Event::StallBegin)]).unwrap_err();
    assert!(err.message.contains("before session_start"));
    let start = Event::SessionStart {
        policy: "t".into(),
        chunk_duration: Duration::from_secs(4),
        num_chunks: 1,
    };
    let err = SessionLog::from_trace(&[mk(0, start.clone()), mk(1, Event::StallEnd)]).unwrap_err();
    assert!(err.message.contains("stall_end without open stall"));
    let err = SessionLog::from_trace(&[mk(0, start.clone()), mk(1, start.clone())]).unwrap_err();
    assert!(err.message.contains("second session_start"));

    // A transfer that completes before it was opened.
    let transfer = TracedEvent {
        seq: 1,
        at: Instant::from_secs(1),
        wall_ns: 0,
        event: Event::TransferCompleted {
            flow: 0,
            track: TrackId::video(0),
            chunk: 0,
            size: Bytes(1000),
            opened_at: Instant::from_secs(2),
            estimate_after: None,
        },
    };
    let err = SessionLog::from_trace(&[mk(0, start.clone()), transfer]).unwrap_err();
    assert_eq!(err.seq, 1);
    assert!(err.message.contains("opened after it completed"));

    // A selection past the last chunk (`num_chunks` is 1).
    let selection = Event::TrackSelected {
        chunk: 1,
        track: TrackId::video(0),
        declared: BitsPerSec::from_kbps(100),
        avg_bitrate: BitsPerSec::from_kbps(100),
    };
    let err = SessionLog::from_trace(&[mk(0, start), mk(1, selection)]).unwrap_err();
    assert!(err.message.contains("chunk out of range"));
}
