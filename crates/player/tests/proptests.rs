//! Property-based tests: buffer arithmetic (including the O(1) level
//! against its O(n) definition), playback drain accounting and scheduler
//! gating.

use abr_event::time::{Duration, Instant};
use abr_media::track::{MediaType, TrackId};
use abr_player::buffer::{BufferedChunk, ChunkBuffer};
use abr_player::config::{PlayerConfig, SyncMode};
use abr_player::playback::{PlayState, PlaybackEngine};
use abr_player::scheduler::{due_fetches, PipelineState};
use proptest::prelude::*;

fn chunk(index: usize, millis: u64) -> BufferedChunk {
    BufferedChunk {
        index,
        track: TrackId::video(0),
        duration: Duration::from_millis(millis),
    }
}

proptest! {
    /// Differential: the O(1) running level equals the O(n) definition —
    /// the sum over `chunks()` minus the played part of the head chunk —
    /// after every step of a random `push`/`drain`/`flush_to` sequence.
    /// The played part comes from a test-local model of the queue.
    #[test]
    fn level_matches_chunk_sum(
        ops in proptest::collection::vec((0u8..5, 1u64..8_000, 0u64..=100), 1..80),
    ) {
        let mut buf = ChunkBuffer::new(MediaType::Video);
        // Model: queued chunk durations (ms) and the head's played part.
        let mut model: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
        let mut head_played = 0u64;
        for (kind, ms, pct) in ops {
            match kind {
                0 | 1 => {
                    buf.push(chunk(buf.next_download_index(), ms));
                    model.push_back(ms);
                }
                2 | 3 => {
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
                _ => {
                    buf.flush_to(ms as usize);
                    model.clear();
                    head_played = 0;
                }
            }
            let durations: Vec<u64> = buf.chunks().map(|c| c.duration.as_millis()).collect();
            prop_assert_eq!(&durations, &model.iter().copied().collect::<Vec<_>>());
            let sum: u64 = durations.iter().sum();
            prop_assert_eq!(buf.level().as_millis(), sum - head_played);
        }
    }

    /// Pushing then draining in arbitrary interleavings conserves content:
    /// level == pushed − drained at every step, and drains never exceed
    /// the level.
    #[test]
    fn buffer_conservation(ops in proptest::collection::vec((1u64..8_000, 0u64..100), 1..60)) {
        let mut buf = ChunkBuffer::new(MediaType::Video);
        let mut pushed = 0u64;
        let mut drained = 0u64;
        for (next_index, (push_ms, drain_pct)) in ops.into_iter().enumerate() {
            buf.push(chunk(next_index, push_ms));
            pushed += push_ms;
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
        arrivals in proptest::collection::vec(100u64..6_000, 2..40),
    ) {
        let total_ms: u64 = arrivals.iter().sum();
        let mut audio = ChunkBuffer::new(MediaType::Audio);
        let mut video = ChunkBuffer::new(MediaType::Video);
        let mut engine = PlaybackEngine::new(
            Duration::from_millis(total_ms),
            Duration::from_millis(100),
            Duration::from_millis(100),
        );
        let mut now = Instant::ZERO;
        for (i, &ms) in arrivals.iter().enumerate() {
            // Chunks arrive with one-second gaps (forcing stalls whenever
            // a chunk is shorter than the gap).
            audio.push(BufferedChunk {
                index: i,
                track: TrackId::audio(0),
                duration: Duration::from_millis(ms),
            });
            video.push(BufferedChunk {
                index: i,
                track: TrackId::video(0),
                duration: Duration::from_millis(ms),
            });
            engine.try_start(now, &audio, &video);
            // Advance up to one second or the next boundary.
            let target = now + Duration::from_secs(1);
            let step_to = match engine.next_boundary(now, &audio, &video) {
                Some(b) => b.min(target),
                None => target,
            };
            engine.advance(now, step_to, &mut audio, &mut video);
            now = target;
        }
        // Drain out the rest.
        loop {
            engine.try_start(now, &audio, &video);
            match engine.next_boundary(now, &audio, &video) {
                Some(b) if engine.state() == PlayState::Playing => {
                    engine.advance(now, b, &mut audio, &mut video);
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
        for w in engine.stalls().windows(2) {
            prop_assert!(w[0].end.expect("inner stalls closed") <= w[1].start);
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
