//! # abr-player — the streaming client harness
//!
//! A policy-pluggable ABR player driven by the discrete-event network
//! simulation. Everything the three emulated players (and the §4
//! best-practice player) share lives here; everything they *differ* in —
//! bandwidth estimation and track selection — is injected via the
//! [`policy::AbrPolicy`] trait from `abr-core`.
//!
//! * [`config`] — startup/rebuffer thresholds, buffer targets, and the
//!   download-synchronization mode (chunk-level vs independent pipelines —
//!   the §3.4/§4.2 distinction).
//! * [`buffer`] — per-media chunk buffers measured in seconds of content.
//! * [`playback`] — the playout state machine: playback consumes audio and
//!   video *in lockstep*, so a stall occurs whenever **either** buffer
//!   empties (§2.1).
//! * [`policy`] — the `AbrPolicy` trait and the transfer records fed to it.
//! * [`scheduler`] — which media to fetch next, and when.
//! * [`session`] — the public facade: builds a session and runs it.
//! * [`stepper`] — the same engine driven by an external clock, one event
//!   at a time, for fleet simulations (DESIGN.md §14).
//! * [`log`] — selection/transfer/buffer/stall records for the figures.
//! * [`digest`] — the online QoE digest a session keeps instead of a log
//!   when only its summary is wanted (fleet sessions).
//!
//! Behind the facade, the run itself is a typed discrete-event engine
//! split by layer across four private modules: `engine` (the dispatch
//! loop and time advancement), `clock` (its per-class event table),
//! `transfer` (in-flight requests, transfer-path delay, bandwidth meter) and
//! `fetch` (scheduler/policy interaction). See DESIGN.md §3.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod buffer;
mod clock;
pub mod config;
pub mod digest;
mod engine;
mod fetch;
pub mod log;
pub mod playback;
pub mod policy;
pub mod scheduler;
pub mod scratch;
pub mod session;
pub mod stepper;
mod transfer;

pub use config::{PlayerConfig, SyncMode};
pub use digest::SessionDigest;
pub use log::SessionLog;
pub use policy::{AbrPolicy, SelectionContext, TransferRecord};
pub use scratch::SessionScratch;
pub use session::Session;
pub use stepper::SessionStepper;
