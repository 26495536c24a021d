//! Externally-clocked session driving for fleet simulations.
//!
//! [`crate::session::Session::run`] owns its clock: it pops its private
//! per-class event table until the session ends. A fleet interleaves *many*
//! sessions in one global timeline, so it needs the same engine with the
//! clock turned inside out: "when is your next event?" / "dispatch it".
//! [`SessionStepper`] is that inversion — a thin public shell over the
//! engine's `pump` loop, exposing exactly the two operations the fleet
//! driver schedules against its per-domain queue (DESIGN.md §14).
//!
//! The equivalence contract: for any session configuration,
//!
//! ```text
//! let mut s = session.into_stepper();
//! while let Some(_) = s.next_wake() {
//!     if !s.dispatch_next() { break; }
//! }
//! s.finish()
//! ```
//!
//! produces a byte-identical [`SessionLog`] to `session.run()`, because
//! it *is* `run`'s loop: `run` is
//! `start(); while next_wake().is_some() && pump() {}; finish()` over the
//! same engine, and the stepper merely hands the two halves of each
//! iteration to the caller. `tests/fleet_determinism.rs` pins this down
//! wholesale.

use crate::digest::SessionDigest;
use crate::engine::Engine;
use crate::log::SessionLog;
use abr_event::time::Instant;

/// A session advanced by an external driver, one event at a time.
///
/// Created by [`crate::session::Session::into_stepper`]; the session's
/// `t = 0` startup round (deadline sentinel, eager playlist prefetch,
/// first fetch schedule) has already run by the time the stepper is
/// handed out.
pub struct SessionStepper {
    engine: Engine,
}

impl SessionStepper {
    /// Wraps a started engine. (Crate-internal: sessions arrive here via
    /// [`crate::session::Session::into_stepper`].)
    pub(crate) fn new(mut engine: Engine) -> SessionStepper {
        engine.start();
        SessionStepper { engine }
    }

    /// The session-local time of the next event to dispatch, re-arming
    /// the engine's wake classes against current state first. `None`
    /// means the session is over (playback ended or the clock ran dry) —
    /// call [`SessionStepper::finish`].
    pub fn next_wake(&mut self) -> Option<Instant> {
        self.engine.next_wake()
    }

    /// Dispatches the next event (the one [`SessionStepper::next_wake`]
    /// reported). Call it only after a `next_wake` that returned `Some`.
    /// Returns `false` when the session is over — starved or past its
    /// deadline.
    pub fn dispatch_next(&mut self) -> bool {
        self.engine.pump()
    }

    /// Finalizes the session and returns its log (summary fields filled,
    /// end-of-session lifecycle emitted). Panics for a stepper built by
    /// [`crate::session::Session::into_digest_stepper`], which keeps no
    /// log.
    #[must_use]
    pub fn finish(self) -> SessionLog {
        self.engine.finish().into_log()
    }

    /// Finalizes the session and returns its QoE digest: the streamed one
    /// for a digest stepper, the log replayed into one otherwise.
    #[must_use]
    pub fn finish_digest(self) -> SessionDigest {
        self.engine.finish().into_digest()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{PlayerConfig, SyncMode};
    use crate::policy::FixedPolicy;
    use crate::session::Session;
    use abr_event::time::{Duration, Instant};
    use abr_httpsim::origin::Origin;
    use abr_media::content::Content;
    use abr_media::units::Bytes;
    use abr_net::link::Link;
    use abr_net::trace::Trace;

    /// The Fig 4(b) setup — drama show, dynamic mean-600 Kbps trace with
    /// 20 ms latency, Shaka's shallow independent pipelines — under a
    /// fixed mid-ladder policy that this trace starves into stalls.
    fn f4b_session() -> Session {
        let content = Content::drama_show(2019);
        let chunk = content.chunk_duration();
        let link = Link::with_latency(
            Trace::fig4b_varying_600k(Duration::from_secs(3600)),
            Duration::from_millis(20),
        );
        let config = PlayerConfig {
            startup_threshold: chunk,
            resume_threshold: chunk,
            max_buffer: Duration::from_secs(10),
            sync: SyncMode::Independent,
        };
        Session::new(
            Origin::with_overhead(content, Bytes::ZERO),
            link,
            Box::new(FixedPolicy { video: 2, audio: 1 }),
            config,
        )
    }

    /// Pins the clock work of one session: the exact number of event
    /// seqs its engine issued. A wake whose time did not change stays
    /// armed, so re-scheduling unchanged wakes (or any other extra clock
    /// traffic) changes this count.
    #[test]
    fn only_changed_wakes_are_rearmed() {
        let mut stepper = f4b_session().into_stepper();
        let mut dispatched = 0u64;
        while stepper.next_wake().is_some() {
            dispatched += 1;
            if !stepper.dispatch_next() {
                break;
            }
        }
        let issued = stepper.engine.clock.issued();
        let log = stepper.finish();
        assert_eq!(log, f4b_session().run(), "stepped and run sessions agree");
        assert!(log.stall_count() > 0, "the f4b trace starves this session");
        assert_eq!((dispatched, issued), (236, 350));
    }

    #[test]
    fn wake_times_never_go_backwards() {
        let mut stepper = f4b_session().into_stepper();
        let mut last = Instant::ZERO;
        while let Some(wake) = stepper.next_wake() {
            assert!(wake >= last, "wake {wake} after {last}");
            last = wake;
            if !stepper.dispatch_next() {
                break;
            }
        }
        assert_eq!(stepper.finish().finished_at, last);
    }

    #[test]
    fn a_digest_stepper_matches_the_run_digest() {
        let mut stepper = f4b_session().into_digest_stepper();
        while stepper.next_wake().is_some() && stepper.dispatch_next() {}
        assert_eq!(stepper.finish_digest(), f4b_session().run_digest());
    }
}
