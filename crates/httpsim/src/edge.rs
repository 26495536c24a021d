//! The transfer path between player and origin: pluggable first-byte delay.
//!
//! A request does not always go straight to the origin — it may be served
//! through an edge cache (CDN PoP) that answers hits locally and pays an
//! extra origin round trip on misses. [`TransferPath`] abstracts "what
//! happens between issuing a request and its first byte" so the player's
//! transfer layer can model direct origin access, an edge cache, or any
//! future path (request faults, retries, multi-CDN switching) behind one
//! trait.

use crate::cache::CdnCache;
use crate::origin::Origin;
use crate::request::Request;
use abr_event::time::{Duration, Instant};
use abr_obs::ObsHandle;
use std::cell::RefCell;
use std::rc::Rc;

/// A delivery path between the player and the origin: decides the extra
/// first-byte delay a request pays beyond the link's base latency, and may
/// mutate path state (warm a cache) while doing so.
///
/// The trivial path is "none": [`Option<EdgeCache>`] implements the trait
/// with `None` adding zero delay. A caller that needs a path's state back
/// after the session (a warmed edge cache for a second viewer) hands the
/// session a clone of an `Rc<RefCell<P>>` and keeps the original.
pub trait TransferPath {
    /// Extra first-byte delay for `req` issued at `now`. Called once per
    /// request, in request-issue order — implementations may keep state
    /// (e.g. cache contents) keyed on that order.
    fn first_byte_delay(&mut self, origin: &Origin, req: &Request, now: Instant) -> Duration;

    /// Attaches the session's observability handle; called once when the
    /// session starts. Paths with nothing to observe ignore it.
    fn set_obs(&mut self, _obs: &ObsHandle) {}
}

/// An edge cache between the player and the origin: cache misses pay an
/// extra origin round trip before the first byte (the mechanism behind the
/// §1 claim that demuxing improves CDN effectiveness).
#[derive(Debug)]
pub struct EdgeCache {
    /// The cache (persisting across sessions lets experiments model a
    /// second viewer hitting a warmed edge).
    pub cache: CdnCache,
    /// Extra first-byte delay on a cache miss (edge → origin round trip).
    pub miss_penalty: Duration,
}

impl TransferPath for EdgeCache {
    /// Zero on a hit; the miss penalty on a miss (which warms the cache).
    fn first_byte_delay(&mut self, origin: &Origin, req: &Request, now: Instant) -> Duration {
        let (hit, _) = self
            .cache
            .fetch_at(origin, req, now)
            .expect("request already validated");
        if hit {
            Duration::ZERO
        } else {
            self.miss_penalty
        }
    }

    /// Hands the handle to the cache, which traces `cache_lookup` events.
    fn set_obs(&mut self, obs: &ObsHandle) {
        self.cache.set_obs(obs.clone());
    }
}

impl<P: TransferPath> TransferPath for Option<P> {
    /// `None` is the direct path: no extra delay.
    fn first_byte_delay(&mut self, origin: &Origin, req: &Request, now: Instant) -> Duration {
        match self {
            None => Duration::ZERO,
            Some(p) => p.first_byte_delay(origin, req, now),
        }
    }
}

impl<P: TransferPath> TransferPath for Rc<RefCell<P>> {
    /// The shared path, borrowed for the one call.
    fn first_byte_delay(&mut self, origin: &Origin, req: &Request, now: Instant) -> Duration {
        self.borrow_mut().first_byte_delay(origin, req, now)
    }

    fn set_obs(&mut self, obs: &ObsHandle) {
        self.borrow_mut().set_obs(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ObjectId;
    use abr_media::content::Content;
    use abr_media::units::Bytes;

    fn setup() -> (Origin, Request) {
        let content = Content::drama_show(1);
        let origin = Origin::with_overhead(content, Bytes::ZERO);
        let req = Request::whole(ObjectId::Segment {
            track: abr_media::track::TrackId::video(0),
            chunk: 0,
        });
        (origin, req)
    }

    #[test]
    fn none_path_is_free() {
        let (origin, req) = setup();
        let mut path: Option<EdgeCache> = None;
        assert_eq!(
            path.first_byte_delay(&origin, &req, Instant::ZERO),
            Duration::ZERO
        );
    }

    #[test]
    fn edge_charges_misses_then_serves_hits() {
        let (origin, req) = setup();
        let penalty = Duration::from_millis(80);
        let mut path = Some(EdgeCache {
            cache: CdnCache::new(Bytes(1 << 30)),
            miss_penalty: penalty,
        });
        // Cold: miss pays the penalty and warms the cache.
        assert_eq!(path.first_byte_delay(&origin, &req, Instant::ZERO), penalty);
        // Warm: the same object now hits for free.
        assert_eq!(
            path.first_byte_delay(&origin, &req, Instant::from_secs(1)),
            Duration::ZERO
        );
        let edge = path.unwrap();
        assert_eq!(edge.cache.stats().misses, 1);
        assert_eq!(edge.cache.stats().hits, 1);
    }

    #[test]
    fn distinct_objects_miss_independently() {
        let (origin, req) = setup();
        let other = Request::whole(ObjectId::Segment {
            track: abr_media::track::TrackId::video(0),
            chunk: 1,
        });
        let mut path = EdgeCache {
            cache: CdnCache::new(Bytes(1 << 30)),
            miss_penalty: Duration::from_millis(40),
        };
        assert_eq!(
            path.first_byte_delay(&origin, &req, Instant::ZERO),
            Duration::from_millis(40)
        );
        assert_eq!(
            path.first_byte_delay(&origin, &other, Instant::ZERO),
            Duration::from_millis(40),
            "a different chunk is a separate cache object"
        );
    }

    #[test]
    fn a_shared_path_leaves_its_warm_cache_with_the_caller() {
        let (origin, req) = setup();
        let shared = Rc::new(RefCell::new(EdgeCache {
            cache: CdnCache::new(Bytes(1 << 30)),
            miss_penalty: Duration::from_millis(30),
        }));
        let mut session_path = Rc::clone(&shared);
        assert_eq!(
            session_path.first_byte_delay(&origin, &req, Instant::ZERO),
            Duration::from_millis(30)
        );
        drop(session_path);
        // A second viewer through the caller's handle hits the warm edge.
        let mut second = Rc::clone(&shared);
        assert_eq!(
            second.first_byte_delay(&origin, &req, Instant::from_secs(2)),
            Duration::ZERO
        );
        assert_eq!(shared.borrow().cache.stats().hits, 1);
        assert_eq!(shared.borrow().cache.stats().misses, 1);
    }
}
