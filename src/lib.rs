//! # abr-unmuxed — facade crate
//!
//! Reproduction of *"ABR Streaming with Separate Audio and Video Tracks:
//! Measurements and Best Practices"* (Qin, Sen & Wang, CoNEXT 2019).
//!
//! This crate re-exports the workspace's building blocks under one roof and
//! hosts the runnable examples (`examples/`) and cross-crate integration
//! tests (`tests/`). See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`media`] | `abr-media` | tracks, ladders, Table-1 content, combinations |
//! | [`manifest`] | `abr-manifest` | DASH MPD + HLS playlist models and text formats |
//! | [`event`] | `abr-event` | virtual time, event queue, deterministic RNG |
//! | [`net`] | `abr-net` | bandwidth traces and the fluid bottleneck link |
//! | [`httpsim`] | `abr-httpsim` | origin server, byte ranges, CDN cache model |
//! | [`player`] | `abr-player` | buffers, playback engine, streaming session |
//! | [`core`] | `abr-core` | bandwidth estimators and ABR policies |
//! | [`qoe`] | `abr-qoe` | QoE metrics and session scoring |
//! | [`obs`] | `abr-obs` | event tracing, span profiling, JSONL/Chrome exporters |

#![forbid(unsafe_code)]

pub use abr_core as core;
pub use abr_event as event;
pub use abr_httpsim as httpsim;
pub use abr_manifest as manifest;
pub use abr_media as media;
pub use abr_net as net;
pub use abr_obs as obs;
pub use abr_player as player;
pub use abr_qoe as qoe;
