//! Property-based tests: cache capacity/accounting invariants, the
//! recency-list LRU against a scan-based reference, and origin byte-range
//! consistency.

use abr_event::time::{Duration, Instant};
use abr_httpsim::cache::{CacheStats, CdnCache};
use abr_httpsim::origin::Origin;
use abr_httpsim::request::{ObjectId, Request};
use abr_media::combo::Combo;
use abr_media::content::Content;
use abr_media::ladder::Ladder;
use abr_media::track::{MediaType, TrackId};
use abr_media::units::Bytes;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The one document every test origin publishes.
const DOCUMENT: &str = "manifest.mpd";

/// The drama show (6 video + 3 audio tracks, 75 chunks) with a published
/// manifest.
fn origin() -> Origin {
    let mut origin = Origin::with_overhead(Content::drama_show(3), Bytes::ZERO);
    origin.publish_document(DOCUMENT, "<MPD/>");
    origin
}

/// A smaller title than [`origin`]: 4 video + 2 audio tracks and 40
/// chunks, with a manifest of a different size. Its requests share
/// `ObjectId`s with the drama show's, so under one namespace the two
/// collide exactly as the cache's key says they must.
fn small_origin() -> Origin {
    let video = Ladder::new(
        MediaType::Video,
        Ladder::table1_video().iter().take(4).cloned().collect(),
    );
    let audio = Ladder::new(
        MediaType::Audio,
        Ladder::table1_audio().iter().take(2).cloned().collect(),
    );
    let content = Content::new(video, audio, Duration::from_secs(4), 40, 11);
    let mut origin = Origin::with_overhead(content, Bytes::ZERO);
    origin.publish_document(DOCUMENT, "<MPD type=\"static\"/>");
    origin
}

/// Raw draws for one request: a shape selector and four numbers that
/// [`request_on`] reduces into the bounds of a given origin.
type Draw = (u8, usize, usize, u64, u64);

fn arb_draw() -> impl Strategy<Value = Draw> {
    (
        0u8..6,
        any::<usize>(),
        any::<usize>(),
        any::<u64>(),
        any::<u64>(),
    )
}

/// An in-bounds request on `origin`, of any key shape the cache sees:
/// segments, whole track files and muxed segments (the dense index), and
/// chunk byte ranges, other byte ranges into a track file and a document
/// (the side map). The other ranges sit on a coarse grid so that some of
/// them repeat.
fn request_on(origin: &Origin, (shape, t, chunk, x, y): Draw) -> Request {
    let content = origin.content();
    let (videos, audios) = (content.video().len(), content.audio().len());
    let t = t % (videos + audios);
    let track = if t < videos {
        TrackId::video(t)
    } else {
        TrackId::audio(t - videos)
    };
    let chunk = chunk % content.num_chunks();
    match shape {
        0 => Origin::segment_request(track, chunk),
        1 => Request::whole(ObjectId::TrackFile { track }),
        2 => Request::whole(ObjectId::MuxedSegment {
            combo: Combo::new(t % videos, usize::try_from(x).unwrap() % audios),
            chunk,
        }),
        3 => origin.range_request(track, chunk).unwrap(),
        4 => {
            let size = content.track_bytes(track).get();
            let offset = x % 4 * (size / 4);
            let len = 1 + y % 4 * ((size - offset) / 4);
            Request::ranged(ObjectId::TrackFile { track }, offset, Bytes(len))
        }
        _ => Request::whole(ObjectId::Document {
            path: DOCUMENT.into(),
        }),
    }
}

/// A random request against the drama show.
fn arb_request() -> impl Strategy<Value = Request> {
    let origin = origin();
    arb_draw().prop_map(move |draw| request_on(&origin, draw))
}

/// A title namespace: three small ones and the largest.
fn arb_namespace() -> impl Strategy<Value = u64> {
    (0u64..4).prop_map(|ns| if ns == 3 { u64::MAX } else { ns })
}

/// `(namespace, object, exact range)`, as `CdnCache` keys its entries.
type Key = (u64, ObjectId, Option<(u64, u64)>);

/// Reference LRU cache: the straightforward implementation that finds
/// each victim by scanning every entry for the smallest `last_used`
/// stamp. The list-ordered [`CdnCache`] must agree with it request for
/// request.
struct ScanCache {
    capacity: Bytes,
    used: Bytes,
    clock: u64,
    /// Key → (size, last-used stamp).
    entries: BTreeMap<Key, (Bytes, u64)>,
    stats: CacheStats,
}

impl ScanCache {
    fn new(capacity: Bytes) -> ScanCache {
        ScanCache {
            capacity,
            used: Bytes::ZERO,
            clock: 0,
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn fetch_keyed(&mut self, origin: &Origin, req: &Request, namespace: u64) -> (bool, Bytes) {
        self.clock += 1;
        let (object, range) = req.cache_key();
        let key = (namespace, object, range);
        if let Some((size, last_used)) = self.entries.get_mut(&key) {
            *last_used = self.clock;
            self.stats.hits += 1;
            self.stats.bytes_from_cache += *size;
            return (true, *size);
        }
        let size = origin.body_size(req).unwrap();
        self.stats.misses += 1;
        self.stats.bytes_from_origin += size;
        if size <= self.capacity {
            while self.used + size > self.capacity {
                let victim = self
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, last_used))| *last_used)
                    .map(|(k, _)| k.clone())
                    .unwrap();
                let (evicted, _) = self.entries.remove(&victim).unwrap();
                self.used -= evicted;
                self.stats.evictions += 1;
            }
            self.used += size;
            self.entries.insert(key, (size, self.clock));
        }
        (false, size)
    }
}

proptest! {
    /// The cache never stores more than its capacity, hit+miss equals
    /// request count, and repeated identical requests after a miss are
    /// hits as long as nothing was evicted in between.
    #[test]
    fn cache_accounting_invariants(
        requests in proptest::collection::vec(arb_request(), 1..120),
        capacity_kb in 8u64..4_096,
    ) {
        let origin = origin();
        let mut cache = CdnCache::new(Bytes(capacity_kb * 1024));
        let mut count = 0u64;
        for req in &requests {
            let (_hit, size) = cache.fetch(&origin, req).unwrap();
            count += 1;
            prop_assert!(cache.used() <= Bytes(capacity_kb * 1024), "capacity respected");
            prop_assert_eq!(size, origin.body_size(req).unwrap());
            let stats = cache.stats();
            prop_assert_eq!(stats.hits + stats.misses, count);
        }
        // Totals are consistent with per-request sizes.
        let stats = cache.stats();
        let total: u64 = stats.bytes_from_cache.get() + stats.bytes_from_origin.get();
        let expect: u64 = requests.iter().map(|r| origin.body_size(r).unwrap().get()).sum();
        prop_assert_eq!(total, expect);
    }

    /// Immediately repeating any request is a hit iff the object fits the
    /// cache at all.
    #[test]
    fn immediate_repeat_hits(req in arb_request(), capacity_kb in 1u64..100_000) {
        let origin = origin();
        let mut cache = CdnCache::new(Bytes(capacity_kb * 1024));
        let size = origin.body_size(&req).unwrap();
        let (first, _) = cache.fetch(&origin, &req).unwrap();
        prop_assert!(!first, "cold cache always misses");
        let (second, _) = cache.fetch(&origin, &req).unwrap();
        prop_assert_eq!(second, size <= Bytes(capacity_kb * 1024));
    }

    /// Byte-range requests for consecutive chunks cover the whole track
    /// file with no gaps or overlaps, for every track.
    #[test]
    fn ranges_partition_track_files(seed in any::<u64>()) {
        let origin = Origin::with_overhead(Content::drama_show(seed), Bytes::ZERO);
        for &id in origin.content().track_ids() {
            let mut next_offset = 0u64;
            for chunk in 0..origin.content().num_chunks() {
                let req = origin.range_request(id, chunk).unwrap();
                let (off, len) = match req.range {
                    Some((o, l)) => (o, l),
                    None => unreachable!("range requests carry ranges"),
                };
                prop_assert_eq!(off, next_offset);
                next_offset = off + len.get();
            }
            prop_assert_eq!(next_offset, origin.content().track_bytes(id).get());
        }
    }

    /// Hits never serve stale or foreign bytes: under arbitrary request
    /// sequences over multiple title namespaces with a small (eviction-
    /// heavy) capacity, every served size equals what the origin reports,
    /// and a hit only ever follows an earlier fetch of the *same* key in
    /// the *same* namespace — an evicted or never-fetched entry must go
    /// back to the origin, never to another title's bytes.
    #[test]
    fn hits_never_serve_stale_or_foreign_bytes(
        requests in proptest::collection::vec((arb_request(), arb_namespace()), 1..150),
        capacity_kb in 8u64..512,
    ) {
        let origin = origin();
        let capacity = Bytes(capacity_kb * 1024);
        let mut cache = CdnCache::new(capacity);
        let mut seen: BTreeMap<_, Bytes> = BTreeMap::new();
        for (req, ns) in &requests {
            let (object, range) = req.cache_key();
            let key = (*ns, object, range);
            let truth = origin.body_size(req).unwrap();
            let (hit, size) = cache.fetch_keyed(&origin, req, *ns, Instant::ZERO).unwrap();
            prop_assert_eq!(size, truth, "served size must match the origin");
            if hit {
                prop_assert_eq!(
                    seen.get(&key), Some(&truth),
                    "hit without a prior same-namespace fetch of the same key"
                );
            }
            seen.insert(key, truth);
            prop_assert!(cache.used() <= capacity, "capacity respected under eviction");
        }
    }

    /// Differential: the recency-list LRU evicts exactly the entries the
    /// scan-based reference evicts. Multi-namespace request streams at
    /// small capacities force evictions on most misses; after every
    /// request both caches report the same hit and size, counters, bytes
    /// stored and entry count.
    #[test]
    fn indexed_lru_matches_scan_reference(
        requests in proptest::collection::vec((arb_request(), arb_namespace()), 1..200),
        capacity_kb in 8u64..512,
    ) {
        let origin = origin();
        let mut cache = CdnCache::new(Bytes(capacity_kb * 1024));
        let mut reference = ScanCache::new(Bytes(capacity_kb * 1024));
        for (req, ns) in &requests {
            let got = cache.fetch_keyed(&origin, req, *ns, Instant::ZERO).unwrap();
            prop_assert_eq!(got, reference.fetch_keyed(&origin, req, *ns));
            prop_assert_eq!(cache.stats(), reference.stats);
            prop_assert_eq!(cache.used(), reference.used);
            prop_assert_eq!(cache.len(), reference.entries.len());
        }
    }

    /// Differential, content-blind coordinates: two titles of different
    /// ladder sizes and chunk counts share namespace 0, so a request of
    /// one title may hit the other's entry exactly when their keys are
    /// equal. The cache must still agree with the reference request for
    /// request, which it cannot if its index depended on the content.
    #[test]
    fn coordinates_do_not_depend_on_the_content(
        requests in proptest::collection::vec((any::<bool>(), arb_draw()), 1..200),
        capacity_kb in 8u64..2_048,
    ) {
        let origins = [origin(), small_origin()];
        let mut cache = CdnCache::new(Bytes(capacity_kb * 1024));
        let mut reference = ScanCache::new(Bytes(capacity_kb * 1024));
        for &(small, draw) in &requests {
            let origin = &origins[usize::from(small)];
            let req = request_on(origin, draw);
            let got = cache.fetch_keyed(origin, &req, 0, Instant::ZERO).unwrap();
            prop_assert_eq!(got, reference.fetch_keyed(origin, &req, 0));
            prop_assert_eq!(cache.stats(), reference.stats);
            prop_assert_eq!(cache.used(), reference.used);
            prop_assert_eq!(cache.len(), reference.entries.len());
        }
    }

    /// Muxed segment sizes equal the sum of their components, for every
    /// combination and chunk.
    #[test]
    fn muxed_segments_are_sums(v in 0usize..6, a in 0usize..3, chunk in 0usize..75) {
        let origin = origin();
        let combo = Combo::new(v, a);
        let muxed = origin
            .body_size(&Request::whole(ObjectId::MuxedSegment { combo, chunk }))
            .unwrap();
        let video = origin.body_size(&Origin::segment_request(TrackId::video(v), chunk)).unwrap();
        let audio = origin.body_size(&Origin::segment_request(TrackId::audio(a), chunk)).unwrap();
        prop_assert_eq!(muxed, video + audio);
    }
}
