//! The discrete-event engine behind a [`crate::session::Session`].
//!
//! All virtual-time advancement goes through one typed [`Clock`]: a
//! fixed table with one pending-event slot per [`SessionEvent`] class.
//! Each loop iteration is two halves: `next_wake` (re-)arms the slot of
//! each wake class — transfer completion, playback boundary, buffer
//! refill — and reads the clock head; `pump` pops that earliest event and
//! runs a uniform simulation step at its timestamp. A wake whose time
//! changed overwrites its slot with a fresh seq; one whose time did not
//! change stays armed. Each event costs at most one re-arm
//! per changed wake class, whether [`Engine::run`] or an external driver
//! ([`crate::stepper::SessionStepper`]) turns the loop.
//!
//! The deadline is a sentinel event scheduled once at `deadline + 1 µs`:
//! any event at or before the deadline outranks it, and when it does pop
//! the engine stops without advancing session time — reproducing both the
//! "ran past the deadline" and the "starved with a dead link" exits of a
//! plain two-instant loop, byte for byte.

use crate::buffer::ChunkBuffer;
use crate::clock::{Clock, SessionEvent};
use crate::config::PlayerConfig;
use crate::digest::Recorder;
use crate::playback::{PlayState, PlaybackEngine};
use crate::policy::AbrPolicy;
use crate::session::{DeliveryMode, PlaylistFetch};
use crate::transfer::FlightBoard;
use abr_event::time::{Duration, Instant};
use abr_httpsim::edge::TransferPath;
use abr_httpsim::origin::Origin;
use abr_media::content::SharedContent;
use abr_media::track::{MediaType, TrackSet, TrackTable};
use abr_media::units::Bytes;
use abr_net::link::Link;
use abr_obs::{Event, ObsHandle};

/// A running session: every piece of mutable state behind
/// [`crate::session::Session::run`], advanced exclusively by popping the
/// clock. Construction happens in `session.rs`
/// (`Session::into_engine`); behavior is split by layer — event dispatch
/// here, transfer bookkeeping in `transfer.rs`, fetch scheduling in
/// `fetch.rs`.
pub(crate) struct Engine {
    // Immutable session shape.
    pub(crate) content: SharedContent,
    pub(crate) chunk_duration: Duration,
    pub(crate) num_chunks: usize,
    pub(crate) config: PlayerConfig,
    pub(crate) deadline: Instant,
    pub(crate) delivery: DeliveryMode,
    pub(crate) packaging: abr_manifest::build::Packaging,
    pub(crate) playlist_fetch: PlaylistFetch,
    pub(crate) playlist_sizes: TrackTable<Bytes>,
    // Components.
    pub(crate) origin: Origin,
    pub(crate) link: Link,
    pub(crate) policy: Box<dyn AbrPolicy>,
    /// What sits between the player and the origin (an edge cache, a
    /// fleet's shared cache + uplink handle); `None` is the direct path.
    pub(crate) path: Option<Box<dyn TransferPath>>,
    pub(crate) audio_buf: ChunkBuffer,
    pub(crate) video_buf: ChunkBuffer,
    pub(crate) playback: PlaybackEngine,
    pub(crate) flights: FlightBoard,
    pub(crate) current_audio: Option<usize>,
    pub(crate) current_video: Option<usize>,
    pub(crate) playlists_ready: TrackSet,
    // The clock.
    pub(crate) clock: Clock,
    pub(crate) now: Instant,
    // Outputs.
    pub(crate) recorder: Recorder,
    pub(crate) obs: ObsHandle,
}

impl Engine {
    /// Runs the session to completion (content fully played, starvation,
    /// or deadline) and returns its record.
    pub(crate) fn run(mut self) -> Recorder {
        let run_span = self.obs.span("session.run");
        self.start();
        while self.next_wake().is_some() && self.pump() {}
        drop(run_span);
        self.finish()
    }

    /// The dispatch half of one engine iteration: pop the event the
    /// preceding [`Engine::next_wake`] armed and reported, and dispatch
    /// it. Returns `false` when the session is over — the clock ran dry
    /// (starved with a dead link) or the deadline sentinel popped. Must
    /// follow a `next_wake` that returned `Some`: the wakes armed before
    /// the previous dispatch may be stale. `run` is exactly
    /// `start(); while next_wake().is_some() && pump() {}; finish()`; an
    /// external driver (the fleet's [`crate::stepper::SessionStepper`])
    /// interleaves the same iterations with other sessions.
    pub(crate) fn pump(&mut self) -> bool {
        let Some((t, ev)) = self.clock.pop() else {
            return false; // nothing left, not even the deadline sentinel
        };
        let _dispatch = self.obs.span(ev.span_name());
        if ev == SessionEvent::Deadline {
            return false;
        }
        self.step(t);
        true
    }

    /// The arm half of one engine iteration: re-arm the wake classes
    /// against current state and return the session-local timestamp of
    /// the event the following [`Engine::pump`] dispatches; `None` when
    /// the session is over (playback ended, or nothing is left to pop).
    /// This is the only place wakes are armed, so each dispatched event
    /// costs at most one re-arm per wake class whose time changed.
    pub(crate) fn next_wake(&mut self) -> Option<Instant> {
        if self.playback.state() == PlayState::Ended {
            return None;
        }
        self.arm_wakes();
        self.clock.next_time()
    }

    /// Emits the session-start lifecycle, distributes the obs handle,
    /// plants the deadline sentinel, issues eager playlist prefetches, and
    /// runs the t = 0 scheduling round.
    pub(crate) fn start(&mut self) {
        let obs = self.obs.clone();
        self.link.set_obs(obs.clone());
        if let Some(path) = &mut self.path {
            path.set_obs(&obs);
        }
        self.policy.set_obs(&obs);
        obs.emit(Instant::ZERO, || Event::SessionStart {
            policy: self.policy.name().to_string(),
            chunk_duration: self.chunk_duration,
            num_chunks: self.num_chunks,
        });
        // The sentinel is scheduled first, so its seq breaks any tie at
        // `deadline + 1 µs` in its favor: events *at* the deadline still
        // process, anything later never does.
        self.clock.schedule(
            self.deadline + Duration::from_micros(1),
            SessionEvent::Deadline,
        );
        if self.playlist_fetch == PlaylistFetch::Eager {
            for i in 0..self.content.track_ids().len() {
                let track = self.content.track_ids()[i];
                self.open_playlist_fetch(track, Instant::ZERO, None);
            }
        }
        self.schedule_fetches();
        self.sample();
        self.debug_check_flights();
    }

    /// Re-arms the three wake classes against current state. A class whose
    /// time changed overwrites its slot, so a stale wake can never fire.
    fn arm_wakes(&mut self) {
        let _g = self.obs.span("engine.arm_wakes");
        let completion = self.link.next_completion();
        let boundary = self
            .playback
            .next_boundary(self.now, &self.audio_buf, &self.video_buf);
        // When a pipeline is idle only because its buffer is at the
        // target, wake up the moment playout drains it back below the
        // target (plus 1 ms so the strict `level < max_buffer` gate in
        // the scheduler passes).
        let refill = if self.playback.state() == PlayState::Playing {
            [
                (&self.audio_buf, MediaType::Audio),
                (&self.video_buf, MediaType::Video),
            ]
            .into_iter()
            .filter(|(buf, media)| {
                !self.flights.in_flight(*media)
                    && buf.next_download_index() < self.num_chunks
                    && buf.level() >= self.config.max_buffer
            })
            .map(|(buf, _)| {
                self.now + (buf.level() - self.config.max_buffer) + Duration::from_millis(1)
            })
            .min()
        } else {
            None
        };
        self.clock.rearm(SessionEvent::TransferComplete, completion);
        self.clock.rearm(SessionEvent::PlaybackBoundary, boundary);
        self.clock.rearm(SessionEvent::BufferRefill, refill);
    }

    /// One simulation step at `t`: advance the link and playout, fold in
    /// completions, (re)start playback, schedule fetches,
    /// sample buffers. Every popped wake — whichever class won the clock —
    /// runs this same step, which is what makes the engine equivalent to
    /// the min-of-candidates loop it replaced.
    fn step(&mut self, t: Instant) {
        // Playout first (consumes pre-existing buffer content over
        // [now, t]); completions arriving at t are usable from t on.
        let mut completions = std::mem::take(&mut self.flights.completions);
        self.link.advance_into(t, &mut completions);
        let state_before_advance = self.playback.state();
        self.playback
            .advance(self.now, t, &mut self.audio_buf, &mut self.video_buf);
        self.now = t;
        if state_before_advance == PlayState::Playing {
            match self.playback.state() {
                PlayState::Stalled => self.record(t, Event::StallBegin),
                PlayState::Ended => self.record(t, Event::PlaybackEnded),
                _ => {}
            }
        }
        self.on_completions(&mut completions);
        self.flights.completions = completions;
        let state_before_start = self.playback.state();
        self.playback
            .try_start(self.now, &self.audio_buf, &self.video_buf);
        if self.playback.state() == PlayState::Playing {
            match state_before_start {
                PlayState::Startup => self.record(self.now, Event::PlaybackStarted),
                PlayState::Stalled => self.record(self.now, Event::StallEnd),
                _ => {}
            }
        }
        self.schedule_fetches();
        self.sample();
        self.debug_check_flights();
    }

    /// Flow/meter agreement between the [`FlightBoard`] and the link,
    /// checked after every step when built with `debug-invariants`
    /// (DESIGN.md §12): the pending map and the link's flow table track
    /// exactly the same transfers, and the bandwidth-meter edge never
    /// outruns session time.
    fn debug_check_flights(&self) {
        #[cfg(feature = "debug-invariants")]
        {
            debug_assert_eq!(
                self.flights.len(),
                self.link.pending_count(),
                "flight board and link disagree on in-flight transfers"
            );
            for (id, _) in self.flights.iter() {
                debug_assert!(
                    self.link.flow_profile(id).is_some(),
                    "pending flow {id:?} unknown to the link"
                );
            }
            debug_assert!(
                self.flights.meter_last <= self.now,
                "meter edge {} ahead of session time {}",
                self.flights.meter_last,
                self.now
            );
        }
    }

    /// Records the current buffer levels.
    fn sample(&mut self) {
        let (audio, video) = (self.audio_buf.level(), self.video_buf.level());
        self.record(self.now, Event::BufferStateChange { audio, video });
    }

    /// Records one session fact: folds the event into the recorder and
    /// moves it into the trace, so the record and the trace cannot differ.
    pub(crate) fn record(&mut self, at: Instant, event: Event) {
        self.recorder.record(at, &event);
        self.obs.emit(at, || event);
    }

    /// Records the session end and hands back the record.
    pub(crate) fn finish(mut self) -> Recorder {
        self.record(self.now, Event::SessionEnd);
        self.debug_check_record();
        self.recorder
    }

    /// With `debug-invariants` (DESIGN.md §12): the event-built record
    /// agrees with the playback engine's own lifecycle bookkeeping.
    fn debug_check_record(&self) {
        #[cfg(feature = "debug-invariants")]
        {
            let p = &self.playback;
            let engine = (p.stall_count(), p.startup_at(), p.ended_at());
            debug_assert_eq!(
                self.recorder.lifecycle(),
                engine,
                "record and playback disagree"
            );
        }
    }
}
