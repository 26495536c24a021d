//! LRU CDN cache.
//!
//! Models an edge cache between clients and the origin, keyed by
//! `(namespace, object, exact range)`. Used by the §1 motivation
//! experiment: with demuxed tracks, user B's request for video variant
//! V1 hits the cache warmed by user A even though their audio choices
//! differ; with muxed packaging every (V, A) pairing is a distinct object
//! and misses.

use crate::origin::{HttpError, Origin};
use crate::request::{ObjectId, Request};
use abr_event::time::Instant;
use abr_media::track::{MediaType, TrackId};
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
/// chunk 0); single-title callers use namespace 0 throughout. Only keys
/// without dense coordinates (byte ranges and documents) are stored in
/// this form.
type CacheKey = (u64, ObjectId, Option<(u64, u64)>);

/// End-of-list marker for the recency links, the empty cell of the
/// dense table, and the `title` of a slot indexed by the side map.
const NIL: u32 = u32::MAX;

/// Where a request's entry lives in the index.
enum Addr {
    /// An unranged segment, muxed segment or track file: cell
    /// `[stream][position]` of namespace `namespace`'s table.
    Dense {
        namespace: u64,
        stream: u32,
        position: u32,
    },
    /// Anything else: an exact key in the side map.
    Keyed(CacheKey),
}

impl Addr {
    /// The address of `req` under `namespace`. Dense coordinates are pure
    /// arithmetic on the object's ladder indices and chunk, never on the
    /// content: `stream` is `3·s + kind`, where `s` is `2·index + media`
    /// for a track (kind 0 a segment, kind 1 the whole track file) and
    /// the Szudzik pairing of `(video, audio)` for a muxed combo (kind 2),
    /// and `position` is the chunk. Coordinates that overflow `u32` fall
    /// back to the side map.
    fn of(req: &Request, namespace: u64) -> Addr {
        let dense = match (&req.object, req.range) {
            (ObjectId::Segment { track, chunk }, None) => {
                coordinates(track_stream(*track), 0, *chunk)
            }
            (ObjectId::TrackFile { track }, None) => coordinates(track_stream(*track), 1, 0),
            (ObjectId::MuxedSegment { combo, chunk }, None) => {
                coordinates(pair(combo.video, combo.audio), 2, *chunk)
            }
            _ => None,
        };
        match dense {
            Some((stream, position)) => Addr::Dense {
                namespace,
                stream,
                position,
            },
            None => {
                let (object, range) = req.cache_key();
                Addr::Keyed((namespace, object, range))
            }
        }
    }
}

/// `2·index + media`: the per-track stream number (audio even, video odd).
fn track_stream(track: TrackId) -> Option<usize> {
    let media = usize::from(track.media == MediaType::Video);
    track.index.checked_mul(2)?.checked_add(media)
}

/// Szudzik's pairing: a bijection from `(a, b)` onto the naturals that
/// stays compact while both indices are small.
fn pair(a: usize, b: usize) -> Option<usize> {
    if a >= b {
        a.checked_mul(a)?.checked_add(a)?.checked_add(b)
    } else {
        b.checked_mul(b)?.checked_add(a)
    }
}

/// `(3·s + kind, position)` as table coordinates, if both fit `u32`.
fn coordinates(s: Option<usize>, kind: usize, position: usize) -> Option<(u32, u32)> {
    let stream = s?.checked_mul(3)?.checked_add(kind)?;
    Some((u32::try_from(stream).ok()?, u32::try_from(position).ok()?))
}

/// One stored entry, threaded on the recency list. It carries only its
/// compact table coordinates; an entry of the side map has `title ==
/// NIL`, and its full key is found by the side map's slot value.
#[derive(Debug, Clone, Copy)]
struct Slot {
    size: Bytes,
    /// Neighbor toward the most recently used end (`NIL` at the head).
    newer: u32,
    /// Neighbor toward the least recently used end (`NIL` at the tail).
    older: u32,
    /// Index into `tables`, or `NIL` for a side-map entry.
    title: u32,
    stream: u32,
    position: u32,
}

/// An LRU cache with a byte-capacity bound.
///
/// Entries live in a slot vector threaded on an intrusive doubly linked
/// recency list: every lookup moves its entry to the most recently used
/// end, so recency is a total order and the LRU victim is the list's
/// tail. An unranged segment, muxed segment or track file finds its slot
/// through a dense per-title table indexed by arithmetic on the object's
/// coordinates (see `Addr::of`), so a hit is one small namespace lookup,
/// two vector indexings and an O(1) relink; an eviction is an O(1)
/// unlink and one cell reset. Once the tables have grown to the request
/// mix, nothing allocates. Byte ranges (single-file packaging) and
/// documents take an exact-key side map instead; no workload sends them
/// through a cache.
#[derive(Debug)]
pub struct CdnCache {
    capacity: Bytes,
    used: Bytes,
    /// Namespace (catalog title) → index into `tables`: one entry per
    /// title ever stored.
    titles: BTreeMap<u64, u32>,
    /// Per title, `[stream][position]` → slot, `NIL` where nothing is
    /// stored. Streams and positions grow on first insert and never
    /// shrink.
    tables: Vec<Vec<Vec<u32>>>,
    /// `(namespace, object, exact range)` → slot for the requests without
    /// dense coordinates: byte ranges and documents. Ordered, so any walk
    /// is key-ordered (ABR-L001).
    side: BTreeMap<CacheKey, u32>,
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
            titles: BTreeMap::new(),
            tables: Vec::new(),
            side: BTreeMap::new(),
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
        let addr = Addr::of(req, namespace);
        if let Some(slot) = self.find(&addr) {
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
            let slot = match self.free.pop() {
                Some(slot) => slot,
                None => u32::try_from(self.slots.len()).expect("slot count fits u32"),
            };
            let (title, stream, position) = self.bind(addr, slot);
            let entry = Slot {
                size,
                newer: NIL,
                older: NIL,
                title,
                stream,
                position,
            };
            match self.slots.get_mut(slot as usize) {
                Some(vacated) => *vacated = entry,
                None => self.slots.push(entry),
            }
            self.push_mru(slot);
        }
        self.debug_check();
        self.record_lookup(req, now, false, size);
        Ok((false, size))
    }

    /// The slot stored at `addr`, if any. Searches nothing but the
    /// one-entry-per-title namespace map on the dense path.
    fn find(&self, addr: &Addr) -> Option<u32> {
        match addr {
            Addr::Dense {
                namespace,
                stream,
                position,
            } => {
                let title = *self.titles.get(namespace)?;
                let cell = *self.tables[title as usize]
                    .get(*stream as usize)?
                    .get(*position as usize)?;
                #[cfg(feature = "debug-invariants")]
                if cell != NIL {
                    let s = &self.slots[cell as usize];
                    debug_assert_eq!(
                        (s.title, s.stream, s.position),
                        (title, *stream, *position),
                        "a table cell must point at the slot stored there"
                    );
                }
                (cell != NIL).then_some(cell)
            }
            Addr::Keyed(key) => self.side.get(key).copied(),
        }
    }

    /// Records `slot` at the (absent) `addr`, growing the namespace's
    /// table as needed, and returns the slot's `(title, stream,
    /// position)`.
    fn bind(&mut self, addr: Addr, slot: u32) -> (u32, u32, u32) {
        match addr {
            Addr::Dense {
                namespace,
                stream,
                position,
            } => {
                let fresh = u32::try_from(self.tables.len()).expect("title count fits u32");
                let title = *self.titles.entry(namespace).or_insert(fresh);
                if title == fresh {
                    self.tables.push(Vec::new());
                }
                let streams = &mut self.tables[title as usize];
                if streams.len() <= stream as usize {
                    streams.resize_with(stream as usize + 1, Vec::new);
                }
                let cells = &mut streams[stream as usize];
                if cells.len() <= position as usize {
                    cells.resize(position as usize + 1, NIL);
                }
                cells[position as usize] = slot;
                (title, stream, position)
            }
            Addr::Keyed(key) => {
                self.side.insert(key, slot);
                (NIL, 0, 0)
            }
        }
    }

    fn record_lookup(&self, req: &Request, now: Instant, hit: bool, size: Bytes) {
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
        let slot = self.slots[victim as usize];
        if slot.title == NIL {
            // No workload sends ranges or documents through a cache, so
            // a walk of the side map is cheap enough.
            self.side.retain(|_, &mut s| s != victim);
        } else {
            self.tables[slot.title as usize][slot.stream as usize][slot.position as usize] = NIL;
        }
        self.used -= slot.size;
        self.free.push(victim);
        self.stats.evictions += 1;
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
    /// visits every stored slot; its `newer`/`older` links agree; every
    /// listed slot's coordinates, or a side-map key, map back to that
    /// slot; the side map holds as many keys as there are listed side
    /// entries (so its keys and those entries correspond one to one); and
    /// the listed sizes sum to `used`. The check allocates nothing, so it
    /// leaves allocation counts unchanged.
    fn debug_check(&self) {
        #[cfg(feature = "debug-invariants")]
        {
            let mut visited = 0usize;
            let mut keyed = 0usize;
            let mut bytes = 0u64;
            let mut prev = NIL;
            let mut at = self.mru;
            while at != NIL {
                debug_assert!(
                    visited < self.len(),
                    "recency list longer than the entry count (cycle?)"
                );
                let s = &self.slots[at as usize];
                debug_assert_eq!(s.newer, prev, "newer link disagrees with the walk");
                if s.title == NIL {
                    keyed += 1;
                    debug_assert!(
                        self.side.values().any(|&v| v == at),
                        "a listed side entry must have a side key"
                    );
                } else {
                    debug_assert_eq!(
                        self.tables[s.title as usize][s.stream as usize][s.position as usize], at,
                        "a listed slot's coordinates must map back to it"
                    );
                }
                bytes += s.size.get();
                visited += 1;
                prev = at;
                at = s.older;
            }
            debug_assert_eq!(self.lru, prev, "list tail must be the LRU slot");
            debug_assert_eq!(
                visited,
                self.len(),
                "recency list must visit every stored slot"
            );
            debug_assert_eq!(
                keyed,
                self.side.len(),
                "side map must hold one key per listed side entry"
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
        self.slots.len() - self.free.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        let (obs, tracer) = ObsHandle::recording();
        c.set_obs(obs);
        let req = Origin::segment_request(TrackId::video(0), 0);
        c.fetch_at(&o, &req, Instant::from_secs(1)).unwrap();
        c.fetch_at(&o, &req, Instant::from_secs(2)).unwrap();
        assert_eq!((c.stats().misses, c.stats().hits), (1, 1));
        assert_eq!(c.stats().hit_ratio(), 0.5);
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
