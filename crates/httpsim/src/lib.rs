//! # abr-httpsim — origin server, byte ranges and CDN cache model
//!
//! The HTTP layer between the player and the fluid link:
//!
//! * [`request`] — chunk requests under both packaging modes (one file per
//!   segment, or byte ranges into a single track file) with configurable
//!   per-request header overhead.
//! * [`origin`] — the origin server: resolves requests against a
//!   [`abr_media::Content`] and yields exact transfer sizes.
//! * [`cache`] — an LRU CDN cache keyed by `(namespace, object, range)`,
//!   with hit/miss and byte accounting. Reproduces the §1 motivation: demuxed tracks give
//!   cross-user cache hits that muxed M×N packaging cannot.
//! * [`edge`] — the [`edge::TransferPath`] trait (what sits between player
//!   and origin) and the miss-penalty [`edge::EdgeCache`] path built on the
//!   CDN cache.
//! * [`shared`] — the fleet-shared delivery path: a per-domain
//!   [`shared::FleetHub`] (title-namespaced cache + FIFO origin uplink)
//!   and the per-session [`shared::SharedEdge`] handle that makes cache
//!   misses load-dependent across sessions.
//! * [`storage`] — origin storage accounting for muxed (M×N) versus demuxed
//!   (M+N) packaging.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod edge;
pub mod origin;
pub mod request;
pub mod shared;
pub mod storage;

pub use cache::{CacheStats, CdnCache};
pub use edge::{EdgeCache, TransferPath};
pub use origin::Origin;
pub use request::{ObjectId, Request};
pub use shared::{FleetHub, SharedEdge};
