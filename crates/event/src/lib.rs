//! # abr-event — deterministic discrete-event simulation foundation
//!
//! This crate provides the time base, pseudo-random number generator and
//! event queue used by every other crate in the `abr-unmuxed` workspace.
//!
//! Design follows the smoltcp school of simulation-friendly networking code:
//!
//! * **Integer time.** [`Instant`] and [`Duration`] are `u64` microsecond
//!   newtypes. The simulation clock never touches floating point, so runs
//!   are bit-reproducible across platforms and optimization levels.
//! * **Owned randomness.** [`rng::SplitMix64`] is a tiny, well-known PRNG
//!   embedded here so that simulation results do not depend on the major
//!   version of an external `rand` crate.
//! * **Deterministic ordering.** [`queue::EventQueue`] breaks timestamp ties
//!   by insertion sequence number, so two events scheduled for the same
//!   instant always fire in the order they were scheduled.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod queue;
pub mod rng;
pub mod sync_model;
pub mod time;
pub mod window;

pub use queue::EventQueue;
pub use rng::SplitMix64;
pub use time::{Duration, Instant};
pub use window::WindowClock;
