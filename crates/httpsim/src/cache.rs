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

/// Full cache key: `(namespace, object, exact range)`. The namespace
/// disambiguates identical `ObjectId`s from different catalog titles when
/// one cache fronts a whole fleet (every title numbers its segments from
/// chunk 0); single-title callers use namespace 0 throughout.
type CacheKey = (u64, ObjectId, Option<(u64, u64)>);

/// End-of-list marker for the recency links.
const NIL: u32 = u32::MAX;

/// One stored entry, threaded on the recency list.
#[derive(Debug, Clone)]
struct Slot {
    key: CacheKey,
    size: Bytes,
    /// Neighbor toward the most recently used end (`NIL` at the head).
    newer: u32,
    /// Neighbor toward the least recently used end (`NIL` at the tail).
    older: u32,
}

/// An LRU cache with a byte-capacity bound.
///
/// Entries live in a slot vector threaded on an intrusive doubly linked
/// recency list: every lookup moves its entry to the most recently used
/// end, so recency is a total order and the LRU victim is the list's
/// tail. A hit is one tree lookup plus an O(1) relink; an eviction is an
/// O(1) unlink plus one tree removal.
#[derive(Debug)]
pub struct CdnCache {
    capacity: Bytes,
    used: Bytes,
    /// `(namespace, object, exact range)` → slot. Ordered maps rather
    /// than hash maps keep every walk key-ordered, so the cache's
    /// observable behavior is a pure function of the request sequence
    /// (ABR-L001).
    index: BTreeMap<CacheKey, u32>,
    /// Entry storage; vacated slots are listed in `free`.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Most recently used slot (list head), or `NIL` when empty.
    mru: u32,
    /// Least recently used slot (list tail, the next victim), or `NIL`.
    lru: u32,
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
            index: BTreeMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            mru: NIL,
            lru: NIL,
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
        let (object, range) = req.cache_key();
        let key = (namespace, object, range);
        if let Some(&slot) = self.index.get(&key) {
            self.unlink(slot);
            self.push_mru(slot);
            self.stats.hits += 1;
            let size = self.slots[slot as usize].size;
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
            let entry = Slot {
                key: key.clone(),
                size,
                newer: NIL,
                older: NIL,
            };
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.slots[slot as usize] = entry;
                    slot
                }
                None => {
                    self.slots.push(entry);
                    u32::try_from(self.slots.len() - 1).expect("slot count fits u32")
                }
            };
            self.push_mru(slot);
            self.index.insert(key, slot);
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
        let victim = self.lru;
        assert_ne!(victim, NIL, "evict on non-empty cache");
        self.unlink(victim);
        let slot = &self.slots[victim as usize];
        self.index.remove(&slot.key).expect("listed entry indexed");
        self.used -= slot.size;
        self.free.push(victim);
        self.stats.evictions += 1;
        self.obs.count("cache.evictions", 1);
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: u32) {
        let Slot { newer, older, .. } = self.slots[slot as usize];
        match newer {
            NIL => self.mru = older,
            n => self.slots[n as usize].older = older,
        }
        match older {
            NIL => self.lru = newer,
            o => self.slots[o as usize].newer = newer,
        }
    }

    /// Attaches a detached `slot` at the most recently used end.
    fn push_mru(&mut self, slot: u32) {
        let old_head = self.mru;
        let s = &mut self.slots[slot as usize];
        s.newer = NIL;
        s.older = old_head;
        match old_head {
            NIL => self.lru = slot,
            h => self.slots[h as usize].newer = slot,
        }
        self.mru = slot;
    }

    /// Structural invariants, checked after every lookup when built with
    /// `debug-invariants`: the recency list, walked from the MRU end,
    /// visits exactly the indexed slots; its `newer`/`older` links agree;
    /// every listed slot's key maps back to that slot; and the listed
    /// sizes sum to `used`.
    fn debug_check(&self) {
        #[cfg(feature = "debug-invariants")]
        {
            let mut visited = 0usize;
            let mut bytes = 0u64;
            let mut prev = NIL;
            let mut at = self.mru;
            while at != NIL {
                debug_assert!(
                    visited < self.index.len(),
                    "recency list longer than the index (cycle?)"
                );
                let s = &self.slots[at as usize];
                debug_assert_eq!(s.newer, prev, "newer link disagrees with the walk");
                debug_assert_eq!(
                    self.index.get(&s.key),
                    Some(&at),
                    "a listed slot's key must map back to it"
                );
                bytes += s.size.get();
                visited += 1;
                prev = at;
                at = s.older;
            }
            debug_assert_eq!(self.lru, prev, "list tail must be the LRU slot");
            debug_assert_eq!(
                visited,
                self.index.len(),
                "recency list must visit every indexed slot"
            );
            debug_assert_eq!(bytes, self.used.get(), "entry sizes must sum to used bytes");
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
        self.index.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
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
