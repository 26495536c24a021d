//! Property-based tests: buffer arithmetic (including the O(1) level
//! against its O(n) definition), playback drain accounting and scheduler
//! gating.

use abr_event::time::{Duration, Instant};
use abr_media::track::{MediaType, TrackId};
use abr_player::buffer::ChunkBuffer;
use abr_player::config::{PlayerConfig, SyncMode};
use abr_player::playback::{PlayState, PlaybackEngine};
use abr_player::scheduler::{due_fetches, PipelineState};
use proptest::prelude::*;

/// `try_start`, closing the last interval of `stalls` when it resumes a
/// stall.
fn start(
    engine: &mut PlaybackEngine,
    now: Instant,
    audio: &ChunkBuffer,
    video: &ChunkBuffer,
    stalls: &mut [(Instant, Option<Instant>)],
) {
    let before = engine.state();
    engine.try_start(now, audio, video);
    if before == PlayState::Stalled && engine.state() == PlayState::Playing {
        stalls.last_mut().expect("a stall is open").1 = Some(now);
    }
}

/// `advance`, opening an interval in `stalls` when playout stalls.
fn advance(
    engine: &mut PlaybackEngine,
    from: Instant,
    to: Instant,
    audio: &mut ChunkBuffer,
    video: &mut ChunkBuffer,
    stalls: &mut Vec<(Instant, Option<Instant>)>,
) {
    let before = engine.state();
    engine.advance(from, to, audio, video);
    if before == PlayState::Playing && engine.state() == PlayState::Stalled {
        stalls.push((to, None));
    }
}

proptest! {
    /// Differential: the O(1) counter level equals the O(n) definition —
    /// the sum over the queued chunks minus the played part of the head
    /// chunk — after every step of a random `push`/`drain` sequence. The
    /// queue and the played part come from a test-local model of the FIFO
    /// the buffer replaced.
    #[test]
    fn level_matches_chunk_sum(
        chunk_ms in 1u64..8_000,
        ops in proptest::collection::vec((any::<bool>(), 0u64..=100), 1..80),
    ) {
        let mut buf = ChunkBuffer::new(MediaType::Video, Duration::from_millis(chunk_ms));
        // Model: queued chunk durations (ms) and the head's played part.
        let mut model: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
        let mut head_played = 0u64;
        for (push, pct) in ops {
            if push {
                buf.push(TrackId::video(0), buf.next_download_index());
                model.push_back(chunk_ms);
            } else {
                let mut left = buf.level().as_millis() * pct / 100;
                buf.drain(Duration::from_millis(left));
                while left > 0 {
                    let head_left = model[0] - head_played;
                    if left < head_left {
                        head_played += left;
                        left = 0;
                    } else {
                        left -= head_left;
                        model.pop_front();
                        head_played = 0;
                    }
                }
            }
            let durations: Vec<u64> = buf.chunks().map(|_| chunk_ms).collect();
            prop_assert_eq!(&durations, &model.iter().copied().collect::<Vec<_>>());
            let sum: u64 = durations.iter().sum();
            prop_assert_eq!(buf.level().as_millis(), sum - head_played);
        }
    }

    /// Pushing then draining in arbitrary interleavings conserves content:
    /// level == pushed − drained at every step, and drains never exceed
    /// the level.
    #[test]
    fn buffer_conservation(
        chunk_ms in 1u64..8_000,
        drains in proptest::collection::vec(0u64..100, 1..60),
    ) {
        let mut buf = ChunkBuffer::new(MediaType::Video, Duration::from_millis(chunk_ms));
        let mut pushed = 0u64;
        let mut drained = 0u64;
        for (next_index, drain_pct) in drains.into_iter().enumerate() {
            buf.push(TrackId::video(0), next_index);
            pushed += chunk_ms;
            let level_ms = buf.level().as_millis();
            let want = level_ms * drain_pct / 100;
            buf.drain(Duration::from_millis(want));
            drained += want;
            prop_assert_eq!(buf.level().as_millis(), pushed - drained);
        }
    }

    /// The playback engine's position plus remaining runway always equals
    /// played content; stalls never overlap and the engine never plays
    /// more than was buffered.
    #[test]
    fn playback_accounting(
        chunk_ms in 100u64..6_000,
        gaps in proptest::collection::vec(0u64..2_000, 2..40),
    ) {
        let total_ms = chunk_ms * gaps.len() as u64;
        let chunk = Duration::from_millis(chunk_ms);
        let mut audio = ChunkBuffer::new(MediaType::Audio, chunk);
        let mut video = ChunkBuffer::new(MediaType::Video, chunk);
        let mut engine = PlaybackEngine::new(
            Duration::from_millis(total_ms),
            Duration::from_millis(100),
            Duration::from_millis(100),
        );
        let mut now = Instant::ZERO;
        // Stall intervals, read off the Playing → Stalled → Playing
        // transitions.
        let mut stalls = Vec::new();
        for (i, &gap_ms) in gaps.iter().enumerate() {
            // Chunks arrive `gap_ms` apart (forcing stalls whenever a
            // chunk is shorter than the gap after it).
            audio.push(TrackId::audio(0), i);
            video.push(TrackId::video(0), i);
            start(&mut engine, now, &audio, &video, &mut stalls);
            // Advance up to the gap or the next boundary.
            let target = now + Duration::from_millis(gap_ms);
            let step_to = match engine.next_boundary(now, &audio, &video) {
                Some(b) => b.min(target),
                None => target,
            };
            advance(&mut engine, now, step_to, &mut audio, &mut video, &mut stalls);
            now = target;
        }
        // Drain out the rest.
        loop {
            start(&mut engine, now, &audio, &video, &mut stalls);
            match engine.next_boundary(now, &audio, &video) {
                Some(b) if engine.state() == PlayState::Playing => {
                    advance(&mut engine, now, b, &mut audio, &mut video, &mut stalls);
                    now = b;
                }
                _ => break,
            }
        }
        // Accounting: played position never exceeds total, equals total
        // when ended, and stalls are disjoint & within the session.
        prop_assert!(engine.position() <= Duration::from_millis(total_ms));
        if engine.state() == PlayState::Ended {
            prop_assert_eq!(engine.position(), Duration::from_millis(total_ms));
        }
        prop_assert_eq!(stalls.len(), engine.stall_count());
        for w in stalls.windows(2) {
            prop_assert!(w[0].1.expect("inner stalls closed") <= w[1].0);
        }
        for &(begin, end) in &stalls {
            prop_assert!(begin <= end.unwrap_or(now) && end.unwrap_or(now) <= now);
        }
    }

    /// Scheduler gating invariants for arbitrary pipeline states: never
    /// schedules an in-flight or exhausted pipeline; never exceeds the
    /// buffer target; chunk-level sync never lets the leader extend its
    /// lead past tolerance while the peer is active.
    #[test]
    fn scheduler_gates(
        a_inflight in any::<bool>(),
        v_inflight in any::<bool>(),
        a_next in 0usize..80,
        v_next in 0usize..80,
        a_level_s in 0u64..40,
        v_level_s in 0u64..40,
        tolerance_s in 1u64..10,
        independent in any::<bool>(),
    ) {
        let num_chunks = 75;
        let cfg = PlayerConfig {
            startup_threshold: Duration::from_secs(4),
            resume_threshold: Duration::from_secs(4),
            max_buffer: Duration::from_secs(30),
            sync: if independent {
                SyncMode::Independent
            } else {
                SyncMode::ChunkLevel { tolerance: Duration::from_secs(tolerance_s) }
            },
        };
        let audio = PipelineState {
            in_flight: a_inflight,
            next_chunk: a_next,
            level: Duration::from_secs(a_level_s),
        };
        let video = PipelineState {
            in_flight: v_inflight,
            next_chunk: v_next,
            level: Duration::from_secs(v_level_s),
        };
        let due = due_fetches(&cfg, audio, video, num_chunks);
        for media in due {
            let (me, other) = match media {
                MediaType::Audio => (audio, video),
                MediaType::Video => (video, audio),
            };
            prop_assert!(!me.in_flight, "never double-schedules");
            prop_assert!(me.next_chunk < num_chunks, "never past the end");
            prop_assert!(me.level < cfg.max_buffer, "never above target");
            if let SyncMode::ChunkLevel { tolerance } = cfg.sync {
                if other.next_chunk < num_chunks {
                    prop_assert!(
                        me.level < other.level + tolerance,
                        "leader halted at the tolerance"
                    );
                }
            }
        }
    }
}
