//! Shared-fate delivery path for fleet simulations.
//!
//! One link domain = many sessions behind a common CDN point of presence.
//! [`FleetHub`] bundles the domain's shared state — an LRU [`CdnCache`]
//! (namespaced by catalog title) and a FIFO origin [`UplinkQueue`] — and
//! [`SharedEdge`] is the per-session handle implementing [`TransferPath`]:
//! it translates session-local time to fleet time via the session's
//! arrival offset and charges each request against the hub.
//!
//! The charging rule is where shared fate appears:
//!
//! * **cache hit** → zero extra first-byte delay (served at the PoP);
//! * **cache miss** → the origin round-trip `miss_rtt` **plus** the
//!   uplink's queueing + serialization delay for the object's bytes.
//!
//! Because the uplink is FIFO, a burst of misses from *other* sessions
//! directly lengthens this session's first-byte delay — the contention
//! effect that a fleet of independent sessions structurally cannot show.

use crate::cache::{CacheStats, CdnCache};
use crate::edge::TransferPath;
use crate::origin::Origin;
use crate::request::Request;
use abr_event::time::{Duration, Instant};
use abr_net::uplink::UplinkQueue;
use std::cell::RefCell;
use std::rc::Rc;

/// Shared per-domain delivery state: one cache and one origin uplink for
/// every session in the domain.
///
/// A hub built with [`FleetHub::passthrough`] has no cache and charges
/// nothing — the degenerate topology under which a fleet-of-1 must be
/// byte-identical to a standalone [`Session`](../../abr_player) run.
#[derive(Debug)]
pub struct FleetHub {
    cache: Option<CdnCache>,
    uplink: UplinkQueue,
    miss_rtt: Duration,
}

impl FleetHub {
    /// A hub with a shared cache in front of a FIFO origin uplink; cache
    /// misses pay `miss_rtt` plus the uplink delay for the object bytes.
    #[must_use]
    pub fn new(cache: CdnCache, uplink: UplinkQueue, miss_rtt: Duration) -> Self {
        FleetHub {
            cache: Some(cache),
            uplink,
            miss_rtt,
        }
    }

    /// The degenerate hub: no cache, no uplink charging, zero delay for
    /// every request. Exactly equivalent to the player's direct-origin
    /// path (`edge = None`).
    #[must_use]
    pub fn passthrough() -> Self {
        FleetHub {
            cache: None,
            uplink: UplinkQueue::new(1),
            miss_rtt: Duration::ZERO,
        }
    }

    /// Charges one request issued at fleet time `at` under namespace
    /// `namespace` (the requesting session's catalog title) and returns
    /// the extra first-byte delay.
    pub fn request(
        &mut self,
        origin: &Origin,
        req: &Request,
        namespace: u64,
        at: Instant,
    ) -> Duration {
        let Some(cache) = &mut self.cache else {
            return Duration::ZERO;
        };
        let (hit, size) = cache
            .fetch_keyed(origin, req, namespace, at)
            .expect("request already validated");
        if hit {
            Duration::ZERO
        } else {
            self.miss_rtt + self.uplink.enqueue(at, size.get())
        }
    }

    /// Cache counters, when this hub has a cache.
    #[must_use]
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(CdnCache::stats)
    }

    /// The origin uplink (stats, window-byte drain).
    #[must_use]
    pub fn uplink(&self) -> &UplinkQueue {
        &self.uplink
    }

    /// Mutable uplink access for the window-sync rule (rate throttling,
    /// per-window demand drain).
    pub fn uplink_mut(&mut self) -> &mut UplinkQueue {
        &mut self.uplink
    }
}

/// A per-session handle onto a domain's [`FleetHub`].
///
/// Sessions run on local clocks starting at their own `t = 0`; the handle
/// carries the session's fleet arrival offset and translates every request
/// timestamp before charging the hub, so the hub only ever sees fleet
/// time. Handles of one domain share the hub via `Rc<RefCell<…>>` —
/// domains are single-threaded by construction (DESIGN.md §14).
#[derive(Debug)]
pub struct SharedEdge {
    hub: Rc<RefCell<FleetHub>>,
    namespace: u64,
    offset: Duration,
}

impl SharedEdge {
    /// A handle for the session with catalog-title namespace `namespace`
    /// arriving at fleet time `offset`.
    #[must_use]
    pub fn new(hub: Rc<RefCell<FleetHub>>, namespace: u64, offset: Duration) -> Self {
        SharedEdge {
            hub,
            namespace,
            offset,
        }
    }
}

impl TransferPath for SharedEdge {
    /// Translates the session-local `now` to fleet time and charges the
    /// shared hub.
    fn first_byte_delay(&mut self, origin: &Origin, req: &Request, now: Instant) -> Duration {
        self.hub
            .borrow_mut()
            .request(origin, req, self.namespace, now + self.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_media::content::Content;
    use abr_media::track::TrackId;
    use abr_media::units::Bytes;

    fn origin() -> Origin {
        Origin::with_overhead(Content::drama_show(1), Bytes::ZERO)
    }

    fn contended_hub(uplink_kbps: u64) -> Rc<RefCell<FleetHub>> {
        Rc::new(RefCell::new(FleetHub::new(
            CdnCache::new(Bytes(1 << 30)),
            UplinkQueue::new(uplink_kbps),
            Duration::from_millis(50),
        )))
    }

    #[test]
    fn passthrough_charges_nothing() {
        let o = origin();
        let hub = Rc::new(RefCell::new(FleetHub::passthrough()));
        let mut edge = SharedEdge::new(Rc::clone(&hub), 3, Duration::from_secs(9));
        let req = Origin::segment_request(TrackId::video(0), 0);
        for t in 0..4 {
            assert_eq!(
                edge.first_byte_delay(&o, &req, Instant::from_secs(t)),
                Duration::ZERO
            );
        }
        assert_eq!(hub.borrow().cache_stats(), None);
    }

    #[test]
    fn misses_pay_rtt_plus_uplink_and_hits_are_free() {
        let o = origin();
        let hub = contended_hub(8_000); // 1000 bytes/ms
        let req = Origin::segment_request(TrackId::video(0), 0);
        let size = o.body_size(&req).unwrap().get();
        let mut a = SharedEdge::new(Rc::clone(&hub), 0, Duration::ZERO);
        let mut b = SharedEdge::new(Rc::clone(&hub), 0, Duration::ZERO);
        let d = a.first_byte_delay(&o, &req, Instant::ZERO);
        let expected_ser = Duration::from_micros((size * 8_000).div_ceil(8_000));
        assert_eq!(d, Duration::from_millis(50) + expected_ser);
        // Second session, same title: hit, free, regardless of its offset.
        assert_eq!(
            b.first_byte_delay(&o, &req, Instant::from_secs(1)),
            Duration::ZERO
        );
        let stats = hub.borrow().cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn concurrent_misses_contend_on_the_uplink() {
        let o = origin();
        let hub = contended_hub(8_000);
        // Different titles: both miss; the second waits behind the first
        // on the FIFO uplink, so its delay is strictly larger.
        let req = Origin::segment_request(TrackId::video(0), 0);
        let mut a = SharedEdge::new(Rc::clone(&hub), 0, Duration::ZERO);
        let mut b = SharedEdge::new(Rc::clone(&hub), 1, Duration::ZERO);
        let da = a.first_byte_delay(&o, &req, Instant::ZERO);
        let db = b.first_byte_delay(&o, &req, Instant::ZERO);
        assert!(db > da, "queued miss must wait longer: {db} vs {da}");
    }

    #[test]
    fn offsets_map_local_time_to_fleet_time() {
        let o = origin();
        let hub = contended_hub(8_000);
        let req = Origin::segment_request(TrackId::audio(0), 0);
        let mut late = SharedEdge::new(Rc::clone(&hub), 0, Duration::from_secs(100));
        late.first_byte_delay(&o, &req, Instant::from_secs(2));
        // The uplink saw fleet time 102 s, not local time 2 s.
        assert!(hub.borrow().uplink().busy_until() > Instant::from_secs(100));
    }

    #[test]
    fn only_misses_load_the_origin_uplink() {
        let o = origin();
        let hub = contended_hub(8_000);
        let req = Origin::segment_request(TrackId::video(1), 0);
        let size = o.body_size(&req).unwrap().get();
        let mut edge = SharedEdge::new(Rc::clone(&hub), 0, Duration::ZERO);
        for t in 0..3 {
            edge.first_byte_delay(&o, &req, Instant::from_secs(t));
        }
        let stats = hub.borrow().uplink().stats();
        assert_eq!(
            (stats.transfers, stats.bytes),
            (1, size),
            "two hits fetched nothing"
        );
        assert_eq!(hub.borrow_mut().uplink_mut().take_window_bytes(), size);
    }

    #[test]
    fn titles_are_cached_apart() {
        let o = origin();
        let hub = contended_hub(8_000);
        let req = Origin::segment_request(TrackId::video(0), 1);
        for title in [4, 5, 4] {
            SharedEdge::new(Rc::clone(&hub), title, Duration::ZERO).first_byte_delay(
                &o,
                &req,
                Instant::ZERO,
            );
        }
        let stats = hub.borrow().cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }
}
