//! # abr-core — bandwidth estimators and ABR policies
//!
//! The paper's primary subject matter: how real players mesh (or fail to
//! mesh) audio and video rate adaptation. This crate implements, behind the
//! [`abr_player::AbrPolicy`] trait:
//!
//! * [`exoplayer`] — ExoPlayer v2.10.2's joint adaptation: the DASH
//!   combination staircase (reverse-engineered; DESIGN.md §4), the
//!   aggregate bandwidth meter with sliding-percentile median and the 0.75
//!   safety fraction, and the HLS degradation (pinned first-listed audio,
//!   per-video bitrates overestimated from variant aggregates) — §3.2.
//! * [`shaka`] — Shaka Player v2.5.1: interval-sampled EWMA with the
//!   16 KB/0.125 s validity filter and 500 Kbps default, plus the purely
//!   rate-based pick-highest-fitting-combination rule — §3.3.
//! * [`dashjs`] — dash.js v2.9.3: fully independent per-media DYNAMIC
//!   adaptation (THROUGHPUT ↔ BOLA switching at the 12 s / 6 s buffer
//!   thresholds), per-media-type throughput history — §3.4.
//! * [`bestpractice`] — the §4 recommendations in one policy: joint
//!   selection restricted to server-allowed combinations, concurrency-aware
//!   estimation, hysteresis against flapping, and (at the session level)
//!   chunk-synchronized prefetching.
//! * [`bba`] — the buffer-based BBA baseline (the paper's reference \[12\])
//!   adapted to joint combination selection.
//! * [`mpc`] — the RobustMPC baseline (the paper's reference \[25\]) over
//!   joint combinations: horizon search with conservative prediction.
//! * [`capped`] — a data-saver wrapper that clamps any inner policy to a
//!   combination-bandwidth budget *jointly* (per-track caps would re-create
//!   the §3.4 coordination bug).
//! * [`combos`] — the one combination ladder the policies select from,
//!   and the per-chunk-position frame of the joint ones.
//! * [`estimators`] — the estimator toolbox the above share.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bba;
pub mod bestpractice;
pub mod capped;
pub mod combos;
pub mod dashjs;
pub mod estimators;
pub mod exoplayer;
pub mod mpc;
pub mod shaka;

pub use bba::BbaPolicy;
pub use bestpractice::BestPracticePolicy;
pub use capped::CappedPolicy;
pub use dashjs::DashJsPolicy;
pub use exoplayer::ExoPlayerPolicy;
pub use mpc::MpcPolicy;
pub use shaka::ShakaPolicy;
