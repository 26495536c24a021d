//! LRU CDN cache.
//!
//! Models an edge cache between clients and the origin, keyed by
//! `(object, exact range)`. Used by the §1 motivation experiment: with
//! demuxed tracks, user B's request for video variant V1 hits the cache
//! warmed by user A even though their audio choices differ; with muxed
//! packaging every (V, A) pairing is a distinct object and misses.

use crate::origin::{HttpError, Origin};
use crate::request::{ObjectId, Request};
use abr_event::time::Instant;
use abr_media::units::Bytes;
use abr_obs::{Event, ObsHandle};
use std::collections::BTreeMap;

/// Aggregate cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from cache.
    pub hits: u64,
    /// Requests that went to the origin.
    pub misses: u64,
    /// Body bytes served out of cache.
    pub bytes_from_cache: Bytes,
    /// Body bytes fetched from the origin.
    pub bytes_from_origin: Bytes,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio over all requests (0 when no requests yet).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cached entry in the LRU order bookkeeping.
#[derive(Debug, Clone)]
struct Entry {
    size: Bytes,
    last_used: u64,
}

/// Full cache key: `(namespace, object, exact range)`. The namespace
/// disambiguates identical `ObjectId`s from different catalog titles when
/// one cache fronts a whole fleet (every title numbers its segments from
/// chunk 0); single-title callers use namespace 0 throughout.
type CacheKey = (u64, ObjectId, Option<(u64, u64)>);

/// An LRU cache with a byte-capacity bound.
///
/// Every lookup takes a fresh, unique `clock` stamp, so recency is a
/// total order: the LRU victim is the entry with the smallest
/// `last_used`, found in `O(log n)` through a stamp-ordered index.
#[derive(Debug)]
pub struct CdnCache {
    capacity: Bytes,
    used: Bytes,
    clock: u64,
    /// Keyed by `(namespace, object, exact range)`. Ordered maps rather
    /// than hash maps keep every walk key-ordered, so the cache's
    /// observable behavior is a pure function of the request sequence
    /// (ABR-L001).
    entries: BTreeMap<CacheKey, Entry>,
    /// Recency index: each entry's `last_used` stamp → its key. Its first
    /// element is the LRU victim.
    by_stamp: BTreeMap<u64, CacheKey>,
    stats: CacheStats,
    obs: ObsHandle,
}

impl CdnCache {
    /// A cache holding at most `capacity` body bytes.
    pub fn new(capacity: Bytes) -> CdnCache {
        assert!(capacity.get() > 0, "zero-capacity cache");
        CdnCache {
            capacity,
            used: Bytes::ZERO,
            clock: 0,
            entries: BTreeMap::new(),
            by_stamp: BTreeMap::new(),
            stats: CacheStats::default(),
            obs: ObsHandle::disabled(),
        }
    }

    /// Attaches an observability handle: hit/miss/eviction counters, a
    /// live hit-ratio gauge, and `cache_lookup` events while tracing.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Serves `req` through the cache: returns `(was_hit, body_size)`.
    /// Misses fetch from `origin` and insert (evicting LRU entries if
    /// needed; objects larger than the whole cache are served but not
    /// stored).
    pub fn fetch(&mut self, origin: &Origin, req: &Request) -> Result<(bool, Bytes), HttpError> {
        self.fetch_at(origin, req, Instant::ZERO)
    }

    /// [`CdnCache::fetch`] stamped with the simulated time of the lookup,
    /// so traced `cache_lookup` events land on the session clock.
    pub fn fetch_at(
        &mut self,
        origin: &Origin,
        req: &Request,
        now: Instant,
    ) -> Result<(bool, Bytes), HttpError> {
        self.fetch_keyed(origin, req, 0, now)
    }

    /// [`CdnCache::fetch_at`] under an explicit namespace. A fleet-shared
    /// cache serves many catalog titles whose `ObjectId`s collide (each
    /// title has its own "video track 0, chunk 3"); the namespace — the
    /// title index — keeps their entries distinct while still letting
    /// same-title sessions share bytes.
    pub fn fetch_keyed(
        &mut self,
        origin: &Origin,
        req: &Request,
        namespace: u64,
        now: Instant,
    ) -> Result<(bool, Bytes), HttpError> {
        self.clock += 1;
        let (object, range) = req.cache_key();
        let key = (namespace, object, range);
        if let Some(e) = self.entries.get_mut(&key) {
            let indexed = self.by_stamp.remove(&e.last_used).expect("indexed");
            e.last_used = self.clock;
            self.by_stamp.insert(self.clock, indexed);
            self.stats.hits += 1;
            let size = e.size;
            self.stats.bytes_from_cache += size;
            self.debug_check();
            self.record_lookup(req, now, true, size);
            return Ok((true, size));
        }
        let size = origin.body_size(req)?;
        self.stats.misses += 1;
        self.stats.bytes_from_origin += size;
        if size <= self.capacity {
            while self.used + size > self.capacity {
                self.evict_lru();
            }
            self.used += size;
            self.by_stamp.insert(self.clock, key.clone());
            self.entries.insert(
                key,
                Entry {
                    size,
                    last_used: self.clock,
                },
            );
        }
        self.debug_check();
        self.record_lookup(req, now, false, size);
        Ok((false, size))
    }

    fn record_lookup(&self, req: &Request, now: Instant, hit: bool, size: Bytes) {
        self.obs
            .count(if hit { "cache.hits" } else { "cache.misses" }, 1);
        self.obs.gauge("cache.hit_ratio", self.stats.hit_ratio());
        self.obs.gauge("cache.used_bytes", self.used.get() as f64);
        self.obs.emit(now, || Event::CacheLookup {
            object: req.to_string(),
            hit,
            size,
        });
    }

    fn evict_lru(&mut self) {
        let (_, victim) = self.by_stamp.pop_first().expect("evict on non-empty cache");
        let e = self.entries.remove(&victim).expect("indexed entry present");
        self.used -= e.size;
        self.stats.evictions += 1;
        self.obs.count("cache.evictions", 1);
    }

    /// Structural invariants, checked after every lookup when built with
    /// `debug-invariants`: the recency index and the entry map hold the
    /// same keys (each entry's stamp maps back to it), and the stored
    /// sizes sum to `used`.
    fn debug_check(&self) {
        #[cfg(feature = "debug-invariants")]
        {
            debug_assert_eq!(
                self.by_stamp.len(),
                self.entries.len(),
                "recency index and entry map must have equal length"
            );
            debug_assert!(
                self.entries
                    .iter()
                    .all(|(k, e)| self.by_stamp.get(&e.last_used) == Some(k)),
                "an entry's stamp must map back to its key"
            );
            debug_assert_eq!(
                self.entries.values().map(|e| e.size.get()).sum::<u64>(),
                self.used.get(),
                "entry sizes must sum to used bytes"
            );
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Bytes currently stored.
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_media::combo::Combo;
    use abr_media::content::Content;
    use abr_media::track::TrackId;

    fn setup() -> (Origin, CdnCache) {
        let origin = Origin::with_overhead(Content::drama_show(1), Bytes::ZERO);
        let cache = CdnCache::new(Bytes(1_000_000_000));
        (origin, cache)
    }

    #[test]
    fn miss_then_hit() {
        let (o, mut c) = setup();
        let req = Origin::segment_request(TrackId::video(0), 0);
        let (hit1, s1) = c.fetch(&o, &req).unwrap();
        let (hit2, s2) = c.fetch(&o, &req).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(s1, s2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hit_ratio(), 0.5);
    }

    #[test]
    fn demuxed_cross_user_hit_muxed_miss() {
        // §1 scenario: A watches V1+A2, then B watches V1+A1.
        let (o, mut c_demux) = setup();
        for chunk in 0..5 {
            // User A.
            c_demux
                .fetch(&o, &Origin::segment_request(TrackId::video(0), chunk))
                .unwrap();
            c_demux
                .fetch(&o, &Origin::segment_request(TrackId::audio(1), chunk))
                .unwrap();
        }
        let before = c_demux.stats();
        for chunk in 0..5 {
            // User B: video hits, audio misses.
            let (vh, _) = c_demux
                .fetch(&o, &Origin::segment_request(TrackId::video(0), chunk))
                .unwrap();
            let (ah, _) = c_demux
                .fetch(&o, &Origin::segment_request(TrackId::audio(0), chunk))
                .unwrap();
            assert!(vh, "video chunk should hit");
            assert!(!ah, "different audio misses");
        }
        assert_eq!(c_demux.stats().hits - before.hits, 5);

        // Muxed: same scenario, every request misses for user B too.
        let (o2, mut c_mux) = setup();
        for chunk in 0..5 {
            c_mux
                .fetch(
                    &o2,
                    &Request::whole(ObjectId::MuxedSegment {
                        combo: Combo::new(0, 1),
                        chunk,
                    }),
                )
                .unwrap();
        }
        for chunk in 0..5 {
            let (hit, _) = c_mux
                .fetch(
                    &o2,
                    &Request::whole(ObjectId::MuxedSegment {
                        combo: Combo::new(0, 0),
                        chunk,
                    }),
                )
                .unwrap();
            assert!(!hit, "muxed variants never share cache entries");
        }
    }

    #[test]
    fn lru_eviction_order() {
        let (o, _) = setup();
        // Capacity fits ~two audio chunks only.
        let a0 = Origin::segment_request(TrackId::audio(0), 0);
        let a1 = Origin::segment_request(TrackId::audio(0), 1);
        let a2 = Origin::segment_request(TrackId::audio(0), 2);
        let s0 = o.body_size(&a0).unwrap();
        let s1 = o.body_size(&a1).unwrap();
        let mut c = CdnCache::new(s0 + s1);
        c.fetch(&o, &a0).unwrap();
        c.fetch(&o, &a1).unwrap();
        c.fetch(&o, &a0).unwrap(); // refresh a0 → a1 becomes LRU
        c.fetch(&o, &a2).unwrap(); // evicts a1
        assert_eq!(c.stats().evictions, 1);
        let (hit_a0, _) = c.fetch(&o, &a0).unwrap();
        assert!(hit_a0, "refreshed entry survived");
        let (hit_a1, _) = c.fetch(&o, &a1).unwrap();
        assert!(!hit_a1, "LRU entry evicted");
    }

    #[test]
    fn oversized_objects_pass_through() {
        let (o, _) = setup();
        let mut c = CdnCache::new(Bytes(10));
        let req = Origin::segment_request(TrackId::video(5), 0);
        let (hit, size) = c.fetch(&o, &req).unwrap();
        assert!(!hit);
        assert!(size.get() > 10);
        assert!(c.is_empty(), "not stored");
        assert_eq!(c.used(), Bytes::ZERO);
    }

    #[test]
    fn ranged_requests_key_separately() {
        let (o, mut c) = setup();
        let r0 = o.range_request(TrackId::video(0), 0).unwrap();
        let r1 = o.range_request(TrackId::video(0), 1).unwrap();
        c.fetch(&o, &r0).unwrap();
        let (hit, _) = c.fetch(&o, &r1).unwrap();
        assert!(!hit);
        let (hit, _) = c.fetch(&o, &r0).unwrap();
        assert!(hit);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn namespaces_partition_the_cache() {
        let (o, mut c) = setup();
        let req = Origin::segment_request(TrackId::video(0), 0);
        // Title 7 warms its entry; title 8's identical ObjectId still
        // misses, while a second title-7 viewer hits.
        let (h, _) = c.fetch_keyed(&o, &req, 7, Instant::ZERO).unwrap();
        assert!(!h);
        let (h, _) = c.fetch_keyed(&o, &req, 8, Instant::ZERO).unwrap();
        assert!(!h, "other namespace must not share bytes");
        let (h, _) = c.fetch_keyed(&o, &req, 7, Instant::ZERO).unwrap();
        assert!(h, "same namespace shares");
        assert_eq!(c.len(), 2);
        // The legacy single-title entry points are namespace 0.
        let (h, _) = c.fetch(&o, &req).unwrap();
        assert!(!h);
        let (h, _) = c.fetch(&o, &req).unwrap();
        assert!(h);
    }

    #[test]
    fn errors_propagate_without_counting_entries() {
        let (o, mut c) = setup();
        let bad = Origin::segment_request(TrackId::video(0), 999);
        assert!(c.fetch(&o, &bad).is_err());
        assert!(c.is_empty());
    }

    #[test]
    fn obs_records_lookups_and_hit_ratio() {
        use abr_event::time::Instant;
        use abr_obs::{Event, ObsHandle};
        let (o, mut c) = setup();
        let (obs, tracer, metrics) = ObsHandle::recording();
        c.set_obs(obs);
        let req = Origin::segment_request(TrackId::video(0), 0);
        c.fetch_at(&o, &req, Instant::from_secs(1)).unwrap();
        c.fetch_at(&o, &req, Instant::from_secs(2)).unwrap();
        assert_eq!(metrics.counter_value("cache.misses"), 1);
        assert_eq!(metrics.counter_value("cache.hits"), 1);
        assert_eq!(metrics.gauge_value("cache.hit_ratio"), Some(0.5));
        let events = tracer.snapshot();
        assert_eq!(events.len(), 2);
        match (&events[0].event, &events[1].event) {
            (
                Event::CacheLookup {
                    hit: h1, object, ..
                },
                Event::CacheLookup { hit: h2, .. },
            ) => {
                assert!(!*h1 && *h2);
                assert!(
                    object.contains("V1"),
                    "object key names the track: {object}"
                );
            }
            other => panic!("unexpected events {other:?}"),
        }
        assert_eq!(events[1].at, Instant::from_secs(2));
    }
}
