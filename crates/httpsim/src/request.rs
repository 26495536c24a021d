//! HTTP object identities and requests.

use abr_media::combo::Combo;
use abr_media::track::TrackId;
use abr_media::units::Bytes;
use core::fmt;

/// A server object: an addressable file at the origin.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjectId {
    /// One segment file of one demuxed track (per-file packaging).
    Segment {
        /// The track.
        track: TrackId,
        /// 0-based chunk index.
        chunk: usize,
    },
    /// The single file holding all of one demuxed track (byte-range
    /// packaging).
    TrackFile {
        /// The track.
        track: TrackId,
    },
    /// One segment of a *muxed* variant: video rung + audio rung combined
    /// in one file (used by the storage/cache motivation experiments).
    MuxedSegment {
        /// The combination.
        combo: Combo,
        /// 0-based chunk index.
        chunk: usize,
    },
    /// A manifest or playlist document.
    Document {
        /// Path-like name.
        path: String,
    },
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectId::Segment { track, chunk } => {
                write!(f, "{}/{}/seg-{}.m4s", track.media, track, chunk + 1)
            }
            ObjectId::TrackFile { track } => write!(f, "{}/{}/track.mp4", track.media, track),
            ObjectId::MuxedSegment { combo, chunk } => {
                write!(f, "muxed/{}/seg-{}.m4s", combo, chunk + 1)
            }
            ObjectId::Document { path } => write!(f, "{path}"),
        }
    }
}

/// An HTTP GET, optionally with a byte range.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    /// What to fetch.
    pub object: ObjectId,
    /// `Range: bytes=offset..offset+len` when present.
    pub range: Option<(u64, Bytes)>,
}

impl Request {
    /// A whole-object GET.
    pub fn whole(object: ObjectId) -> Request {
        Request {
            object,
            range: None,
        }
    }

    /// A ranged GET.
    pub fn ranged(object: ObjectId, offset: u64, len: Bytes) -> Request {
        assert!(len.get() > 0, "empty range");
        Request {
            object,
            range: Some((offset, len)),
        }
    }

    /// The cache key: object plus exact range. CDNs commonly cache ranged
    /// responses per-range (or slice them); exact-range keying models the
    /// per-chunk granularity the paper's CDN argument needs.
    pub fn cache_key(&self) -> (ObjectId, Option<(u64, u64)>) {
        (self.object.clone(), self.range.map(|(o, l)| (o, l.get())))
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.range {
            Some((off, len)) => write!(f, "GET {} [{}+{}]", self.object, off, len.get()),
            None => write!(f, "GET {}", self.object),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_paths() {
        let seg = ObjectId::Segment {
            track: TrackId::video(2),
            chunk: 4,
        };
        assert_eq!(seg.to_string(), "video/V3/seg-5.m4s");
        let tf = ObjectId::TrackFile {
            track: TrackId::audio(0),
        };
        assert_eq!(tf.to_string(), "audio/A1/track.mp4");
        let mx = ObjectId::MuxedSegment {
            combo: Combo::new(1, 2),
            chunk: 0,
        };
        assert_eq!(mx.to_string(), "muxed/V2+A3/seg-1.m4s");
        assert_eq!(
            Request::ranged(tf, 100, Bytes(50)).to_string(),
            "GET audio/A1/track.mp4 [100+50]"
        );
    }

    #[test]
    fn cache_keys_distinguish_ranges() {
        let obj = ObjectId::TrackFile {
            track: TrackId::video(0),
        };
        let a = Request::ranged(obj.clone(), 0, Bytes(100));
        let b = Request::ranged(obj.clone(), 100, Bytes(100));
        let c = Request::whole(obj);
        assert_ne!(a.cache_key(), b.cache_key());
        assert_ne!(a.cache_key(), c.cache_key());
        assert_eq!(a.cache_key(), a.clone().cache_key());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_rejected() {
        Request::ranged(ObjectId::Document { path: "x".into() }, 0, Bytes::ZERO);
    }

    #[test]
    fn whole_requests_display_and_key_without_a_range() {
        let doc = ObjectId::Document {
            path: "manifest.mpd".into(),
        };
        assert_eq!(doc.to_string(), "manifest.mpd");
        let req = Request::whole(doc.clone());
        assert_eq!(req.to_string(), "GET manifest.mpd");
        assert_eq!(req.cache_key(), (doc, None));
    }

    #[test]
    fn segments_of_different_tracks_are_different_objects() {
        let key = |track| Request::whole(ObjectId::Segment { track, chunk: 0 }).cache_key();
        assert_ne!(key(TrackId::video(0)), key(TrackId::audio(0)));
        assert_ne!(key(TrackId::video(0)), key(TrackId::video(1)));
    }
}
