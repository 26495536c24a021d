//! The playout state machine.
//!
//! Playback consumes the audio and video buffers in lockstep (both drain at
//! one content-second per wall-second). The machine:
//!
//! * starts once **both** buffers reach the startup threshold,
//! * stalls the instant **either** buffer empties (§2.1: "either empty
//!   audio or video buffer leads to stalls"),
//! * resumes once both buffers recover to the rebuffer threshold,
//! * ends when the full content duration has played out.
//!
//! The machine keeps its state, not a history: the session engine records
//! each stall as an event, and the recorder folds those into the
//! [`crate::log::Stall`] rows.

use crate::buffer::ChunkBuffer;
use abr_event::time::{Duration, Instant};

/// Current playout state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayState {
    /// Waiting for the initial buffers.
    Startup,
    /// Playing content.
    Playing,
    /// Stalled mid-stream waiting for a buffer to recover.
    Stalled,
    /// All content played.
    Ended,
}

/// The playout engine.
#[derive(Debug, Clone)]
pub struct PlaybackEngine {
    state: PlayState,
    /// Media time played so far.
    position: Duration,
    /// Total content duration.
    total: Duration,
    startup_threshold: Duration,
    resume_threshold: Duration,
    startup_at: Option<Instant>,
    ended_at: Option<Instant>,
    /// Stalls begun so far.
    stall_count: usize,
}

impl PlaybackEngine {
    /// A new engine for content of length `total`.
    pub fn new(total: Duration, startup_threshold: Duration, resume_threshold: Duration) -> Self {
        assert!(!total.is_zero(), "zero-length content");
        PlaybackEngine {
            state: PlayState::Startup,
            position: Duration::ZERO,
            total,
            startup_threshold,
            resume_threshold,
            startup_at: None,
            ended_at: None,
            stall_count: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> PlayState {
        self.state
    }

    /// Media time played so far.
    pub fn position(&self) -> Duration {
        self.position
    }

    /// When playback first started, if it has.
    pub fn startup_at(&self) -> Option<Instant> {
        self.startup_at
    }

    /// When playback finished, if it has.
    pub fn ended_at(&self) -> Option<Instant> {
        self.ended_at
    }

    /// Number of stalls begun so far.
    pub fn stall_count(&self) -> usize {
        self.stall_count
    }

    /// The next instant at which this engine changes state on its own: the
    /// moment the scarcer buffer runs dry (stall or end of content).
    /// `None` unless playing — startup/resume transitions are driven by
    /// chunk arrivals, not by time.
    pub fn next_boundary(
        &self,
        now: Instant,
        audio: &ChunkBuffer,
        video: &ChunkBuffer,
    ) -> Option<Instant> {
        if self.state != PlayState::Playing {
            return None;
        }
        let runway = audio
            .level()
            .min(video.level())
            .min(self.total - self.position);
        Some(now + runway)
    }

    /// Advances playout from `from` to `to`, draining both buffers. The
    /// caller must not advance past [`PlaybackEngine::next_boundary`]; at
    /// the boundary the state transition (stall or end) is taken exactly.
    pub fn advance(
        &mut self,
        from: Instant,
        to: Instant,
        audio: &mut ChunkBuffer,
        video: &mut ChunkBuffer,
    ) {
        assert!(to >= from, "time reversal");
        if self.state != PlayState::Playing {
            return;
        }
        let dt = to - from;
        let runway = audio
            .level()
            .min(video.level())
            .min(self.total - self.position);
        assert!(
            dt <= runway,
            "advance {dt} past playback boundary (runway {runway}); caller must step to next_boundary"
        );
        audio.drain(dt);
        video.drain(dt);
        self.position += dt;
        if self.position == self.total {
            self.state = PlayState::Ended;
            self.ended_at = Some(to);
        } else if audio.is_empty() || video.is_empty() {
            self.state = PlayState::Stalled;
            self.stall_count += 1;
        }
    }

    /// Checks whether buffered levels allow starting or resuming playback;
    /// call after every chunk arrival.
    pub fn try_start(&mut self, now: Instant, audio: &ChunkBuffer, video: &ChunkBuffer) {
        let threshold = match self.state {
            PlayState::Startup => self.startup_threshold,
            PlayState::Stalled => self.resume_threshold,
            _ => return,
        };
        // The tail of the clip may legitimately be shorter than the
        // threshold: start when the remaining content is fully buffered.
        let remaining = self.total - self.position;
        let needed = threshold.min(remaining);
        if audio.level() >= needed && video.level() >= needed {
            if self.state == PlayState::Startup {
                self.startup_at = Some(now);
            }
            self.state = PlayState::Playing;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_media::track::{MediaType, TrackId};

    const CHUNK: Duration = Duration::from_secs(4);

    fn buffers() -> (ChunkBuffer, ChunkBuffer) {
        (
            ChunkBuffer::new(MediaType::Audio, CHUNK),
            ChunkBuffer::new(MediaType::Video, CHUNK),
        )
    }

    fn push(b: &mut ChunkBuffer, index: usize) {
        let track = match b.media() {
            MediaType::Audio => TrackId::audio(0),
            MediaType::Video => TrackId::video(0),
        };
        b.push(track, index);
    }

    fn engine() -> PlaybackEngine {
        PlaybackEngine::new(Duration::from_secs(20), CHUNK, CHUNK)
    }

    #[test]
    fn starts_only_when_both_buffers_ready() {
        let (mut a, mut v) = buffers();
        let mut p = engine();
        push(&mut a, 0);
        p.try_start(Instant::from_secs(1), &a, &v);
        assert_eq!(p.state(), PlayState::Startup, "video still empty");
        push(&mut v, 0);
        p.try_start(Instant::from_secs(2), &a, &v);
        assert_eq!(p.state(), PlayState::Playing);
        assert_eq!(p.startup_at(), Some(Instant::from_secs(2)));
    }

    #[test]
    fn stalls_when_either_buffer_empties() {
        let (mut a, mut v) = buffers();
        let mut p = engine();
        push(&mut a, 0);
        push(&mut a, 1);
        push(&mut v, 0);
        p.try_start(Instant::from_secs(0), &a, &v);
        // Video has 4 s, audio 8 s: boundary at t=4 (video dry).
        let boundary = p.next_boundary(Instant::ZERO, &a, &v).unwrap();
        assert_eq!(boundary, Instant::from_secs(4));
        p.advance(Instant::ZERO, boundary, &mut a, &mut v);
        assert_eq!(p.state(), PlayState::Stalled);
        assert_eq!(p.stall_count(), 1);
        assert_eq!(p.position(), Duration::from_secs(4));
        assert_eq!(
            a.level(),
            Duration::from_secs(4),
            "audio retains content while stalled"
        );
    }

    #[test]
    fn resume_closes_the_stall() {
        let (mut a, mut v) = buffers();
        let mut p = engine();
        push(&mut a, 0);
        push(&mut v, 0);
        p.try_start(Instant::ZERO, &a, &v);
        p.advance(Instant::ZERO, Instant::from_secs(4), &mut a, &mut v);
        assert_eq!(p.state(), PlayState::Stalled);
        push(&mut a, 1);
        push(&mut v, 1);
        p.try_start(Instant::from_secs(7), &a, &v);
        assert_eq!(p.state(), PlayState::Playing);
        assert_eq!(p.stall_count(), 1, "a resume begins no stall");
        assert_eq!(p.startup_at(), Some(Instant::ZERO), "nor a startup");
        assert_eq!(
            p.next_boundary(Instant::from_secs(7), &a, &v),
            Some(Instant::from_secs(11)),
            "playout continues from the resume"
        );
    }

    #[test]
    fn ends_exactly_at_content_end() {
        let (mut a, mut v) = buffers();
        let mut p = PlaybackEngine::new(Duration::from_secs(8), CHUNK, CHUNK);
        for i in 0..2 {
            push(&mut a, i);
            push(&mut v, i);
        }
        p.try_start(Instant::ZERO, &a, &v);
        let b = p.next_boundary(Instant::ZERO, &a, &v).unwrap();
        assert_eq!(b, Instant::from_secs(8));
        p.advance(Instant::ZERO, b, &mut a, &mut v);
        assert_eq!(p.state(), PlayState::Ended);
        assert_eq!(p.ended_at(), Some(Instant::from_secs(8)));
        assert_eq!(p.stall_count(), 0, "clean end is not a stall");
    }

    #[test]
    fn short_tail_starts_below_threshold() {
        // 20 s content, 18 s played, only 2 s remain (< 4 s threshold):
        // playback must restart once the remaining 2 s are buffered.
        let (mut a, mut v) = buffers();
        let mut p = PlaybackEngine::new(Duration::from_secs(6), CHUNK, Duration::from_secs(8));
        push(&mut a, 0);
        push(&mut v, 0);
        p.try_start(Instant::ZERO, &a, &v);
        p.advance(Instant::ZERO, Instant::from_secs(4), &mut a, &mut v);
        assert_eq!(p.state(), PlayState::Stalled);
        // Remaining content is 2 s; resume threshold 8 s would never be met.
        push(&mut a, 1);
        push(&mut v, 1);
        p.try_start(Instant::from_secs(5), &a, &v);
        assert_eq!(p.state(), PlayState::Playing);
    }

    #[test]
    fn mid_run_advance_keeps_playing() {
        let (mut a, mut v) = buffers();
        let mut p = engine();
        for i in 0..2 {
            push(&mut a, i);
            push(&mut v, i);
        }
        p.try_start(Instant::ZERO, &a, &v);
        p.advance(Instant::ZERO, Instant::from_secs(3), &mut a, &mut v);
        assert_eq!(p.state(), PlayState::Playing);
        assert_eq!(p.position(), Duration::from_secs(3));
        assert_eq!(
            p.next_boundary(Instant::from_secs(3), &a, &v),
            Some(Instant::from_secs(8))
        );
    }

    #[test]
    #[should_panic(expected = "past playback boundary")]
    fn advancing_past_boundary_panics() {
        let (mut a, mut v) = buffers();
        let mut p = engine();
        push(&mut a, 0);
        push(&mut v, 0);
        p.try_start(Instant::ZERO, &a, &v);
        p.advance(Instant::ZERO, Instant::from_secs(5), &mut a, &mut v);
    }

    #[test]
    fn no_drain_while_stalled_or_startup() {
        let (mut a, mut v) = buffers();
        let mut p = engine();
        push(&mut a, 0);
        // Not started: advance is a no-op.
        p.advance(Instant::ZERO, Instant::from_secs(10), &mut a, &mut v);
        assert_eq!(a.level(), CHUNK);
        assert_eq!(p.position(), Duration::ZERO);
    }
}
