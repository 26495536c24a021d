//! # abr-obs — structured observability for the abr-unmuxed simulator
//!
//! Three layers, all optional at run time and free when disabled:
//!
//! * **Events** ([`event`]) — a typed vocabulary of simulator happenings
//!   (requests, transfers, cache lookups, estimate updates, policy
//!   decisions, buffer/stall lifecycle), stamped with the simulated
//!   clock.
//! * **Tracing** ([`tracer`]) — the in-memory [`RecordingTracer`] and the
//!   [`ObsHandle`] that instrumented code holds. A disabled handle costs
//!   one branch per site; event payloads are built lazily.
//! * **Profiling** ([`profile`]) — a hierarchical span profiler measuring
//!   where *host* time goes (engine dispatch per event class, policy
//!   evaluation, link advance, sweep-runner phases). RAII guards, a call
//!   tree keyed by `(parent, name)`, and mergeable [`ProfileReport`]
//!   snapshots; like the tracer, one branch per site when disabled.
//!   This is the only layer that reads the host clock: traces are a pure
//!   function of the simulation.
//!
//! [`export`] renders recorded traces as JSONL (one event per line,
//! qlog-flavoured; parse it back with [`export::from_jsonl`]) or as a
//! Chrome `trace_event` document that Perfetto opens directly.
//! [`histogram`] holds the fixed-bucket histograms in which the profiler
//! and the sweep runner keep host-time durations.

#![deny(missing_docs)]

pub mod event;
pub mod export;
pub mod histogram;
pub mod profile;
pub mod tracer;

pub use event::{Event, TracedEvent};
pub use profile::{ProfileReport, Profiler, SpanGuard, SpanNode};
pub use tracer::{HostStopwatch, ObsHandle, RecordingTracer};
