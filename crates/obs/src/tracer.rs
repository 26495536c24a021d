//! The recording tracer, the shared observability handle and the host
//! stopwatch.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use abr_event::time::Instant;

use crate::event::{Event, TracedEvent};
use crate::profile::{Profiler, SpanGuard};

/// A monotonic host-clock stopwatch: nanoseconds elapsed since
/// [`HostStopwatch::start`].
///
/// This file is the workspace's **designated host-timing module**
/// (DESIGN.md §13): every wall-clock reader — the span profiler
/// ([`crate::profile`]), the sweep runner's per-worker utilization meter
/// and the fleet driver's barrier-wait and window ledger — goes through
/// this type, so the `ABR-L002` host-clock lint allowlist stays a single
/// file and no other module ever names `std::time`. Host time measured
/// here is *observation only*; it never feeds back into simulated time,
/// and nothing in this module stamps it into a trace.
#[derive(Debug, Clone, Copy)]
pub struct HostStopwatch {
    started: std::time::Instant,
}

impl HostStopwatch {
    /// Starts the stopwatch now.
    #[must_use]
    pub fn start() -> HostStopwatch {
        HostStopwatch {
            started: std::time::Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the stopwatch started (saturating at
    /// `u64::MAX` — ~584 years).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A tracer that captures every event in memory, stamped with a sequence
/// number and the simulated clock.
///
/// Captures are a pure function of the simulation: `wall_ns` is always 0
/// (the field stays in [`TracedEvent`] and the JSONL format), so two runs
/// of the same session record byte-identical traces. Host time never
/// enters a capture; it lives on the profile channel ([`crate::profile`]).
#[derive(Debug, Default)]
pub struct RecordingTracer {
    seq: Cell<u64>,
    events: RefCell<Vec<TracedEvent>>,
}

impl RecordingTracer {
    /// A fresh, empty tracer.
    pub fn new() -> RecordingTracer {
        RecordingTracer::default()
    }

    /// Records one event stamped with the simulated clock.
    pub(crate) fn record(&self, at: Instant, event: Event) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        self.events.borrow_mut().push(TracedEvent {
            seq,
            at,
            wall_ns: 0,
            event,
        });
    }

    /// Number of events captured so far.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// A copy of everything captured so far, in emission order.
    pub fn snapshot(&self) -> Vec<TracedEvent> {
        self.events.borrow().clone()
    }

    /// Drains the captured events, leaving the tracer empty (the sequence
    /// counter keeps running).
    pub fn take(&self) -> Vec<TracedEvent> {
        std::mem::take(&mut *self.events.borrow_mut())
    }
}

/// The handle instrumented code holds: an optional recording tracer and
/// span profiler, cheaply cloneable so one configuration fans out to the
/// link, caches, policies and the session driver.
///
/// The default handle is fully disabled; every hook degrades to a branch
/// on `Option::None`.
#[derive(Clone, Default)]
pub struct ObsHandle {
    tracer: Option<Rc<RecordingTracer>>,
    profiler: Option<Rc<Profiler>>,
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHandle")
            .field("tracer", &self.tracer.is_some())
            .field("profiler", &self.profiler.is_some())
            .finish()
    }
}

impl ObsHandle {
    /// The disabled handle (no tracer, no profiler).
    pub fn disabled() -> ObsHandle {
        ObsHandle::default()
    }

    /// Attaches a span profiler ([`crate::profile::Profiler`]). Profiling
    /// measures host-clock cost only — it writes nothing into traces or
    /// logs, so artifacts stay byte-identical with it on.
    pub fn with_profiler(mut self, profiler: Rc<Profiler>) -> ObsHandle {
        self.profiler = Some(profiler);
        self
    }

    /// A handle wired to a fresh [`RecordingTracer`]; returns the handle
    /// plus a direct reference for reading the capture. Everything
    /// captured is a pure function of the simulation, so two identical
    /// sessions observed through this handle yield byte-identical traces
    /// (DESIGN.md §10).
    pub fn recording() -> (ObsHandle, Rc<RecordingTracer>) {
        let tracer = Rc::new(RecordingTracer::new());
        let handle = ObsHandle {
            tracer: Some(Rc::clone(&tracer)),
            profiler: None,
        };
        (handle, tracer)
    }

    /// True when a span profiler is attached.
    #[inline]
    pub fn profiling(&self) -> bool {
        self.profiler.is_some()
    }

    /// True when a tracer is attached, i.e. when [`ObsHandle::emit`]
    /// builds and records its events.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Opens a profiling span named `name`; the span closes when the
    /// returned guard drops. Without an attached profiler this is one
    /// branch and an inert guard — the same zero-cost-when-off contract
    /// as [`ObsHandle::emit`] (pinned by the `obs_overhead` ablation).
    #[inline]
    #[must_use = "the span closes when the guard drops; bind it to a scope"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.profiler {
            Some(p) => p.span(name),
            None => SpanGuard::inert(),
        }
    }

    /// Emits an event. The closure only runs when a tracer is attached,
    /// so payload construction (strings, vectors) is free on the disabled
    /// path.
    #[inline]
    pub fn emit<F: FnOnce() -> Event>(&self, at: Instant, build: F) {
        if let Some(t) = &self.tracer {
            t.record(at, build());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracing_reports_an_attached_tracer() {
        assert!(!ObsHandle::disabled().tracing());
        let profiled = ObsHandle::disabled().with_profiler(Rc::new(Profiler::new()));
        assert!(!profiled.tracing(), "a profiler is not a tracer");
        let (obs, _) = ObsHandle::recording();
        assert!(obs.tracing());
        assert!(obs.with_profiler(Rc::new(Profiler::new())).tracing());
    }

    #[test]
    fn disabled_handle_never_builds_events() {
        let obs = ObsHandle::disabled();
        let mut built = false;
        obs.emit(Instant::ZERO, || {
            built = true;
            Event::StallBegin
        });
        assert!(!built);
    }

    #[test]
    fn recording_tracer_stamps_seq_and_sim_time() {
        let (obs, tracer) = ObsHandle::recording();
        obs.emit(Instant::from_secs(1), || Event::StallBegin);
        obs.emit(Instant::from_secs(2), || Event::StallEnd);
        let events = tracer.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[0].at, Instant::from_secs(1));
        assert_eq!(events[0].event, Event::StallBegin);
        assert!(events.iter().all(|e| e.wall_ns == 0), "no host time");
    }

    #[test]
    fn take_drains_but_keeps_counting() {
        let (obs, tracer) = ObsHandle::recording();
        obs.emit(Instant::ZERO, || Event::StallBegin);
        assert_eq!(tracer.take().len(), 1);
        assert!(tracer.is_empty());
        obs.emit(Instant::ZERO, || Event::StallEnd);
        assert_eq!(tracer.snapshot()[0].seq, 1, "sequence continues after take");
    }

    #[test]
    fn deterministic_recording_is_wall_clock_free() {
        // Two recordings of the same events, made at different host
        // moments, capture identical traces.
        let record = || {
            let (obs, tracer) = ObsHandle::recording();
            obs.emit(Instant::from_secs(1), || Event::StallBegin);
            obs.emit(Instant::from_secs(2), || Event::StallEnd);
            tracer.snapshot()
        };
        let first_events = record();
        let second_events = record();
        assert!(
            first_events.iter().all(|e| e.wall_ns == 0),
            "wall_ns must be 0"
        );
        assert_eq!((first_events[0].seq, first_events[1].seq), (0, 1));
        assert_eq!(first_events, second_events);
    }

    #[test]
    fn profiler_only_handle_never_builds_events() {
        let obs = ObsHandle::disabled().with_profiler(Rc::new(Profiler::new()));
        let mut built = false;
        obs.emit(Instant::ZERO, || {
            built = true;
            Event::StallBegin
        });
        assert!(!built, "a profiler alone must keep the closure unevaluated");
    }
}
