//! The origin server.
//!
//! Resolves [`Request`]s against a [`Content`] and reports exact response
//! sizes (body plus configurable header overhead). The origin is
//! packaging-agnostic: it serves whole segment files, byte ranges into
//! track files, and muxed variant segments, so the same instance backs the
//! player experiments and the storage/cache motivation experiments.

use crate::request::{ObjectId, Request};
use abr_media::content::{Content, SharedContent};
use abr_media::track::TrackId;
use abr_media::units::Bytes;

/// Default per-response header overhead (status line + typical headers).
pub const DEFAULT_HEADER_OVERHEAD: Bytes = Bytes(320);

/// Errors the origin can return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Unknown object.
    NotFound(String),
    /// Range outside the object.
    RangeNotSatisfiable {
        /// Requested range.
        requested: (u64, u64),
        /// Actual object size.
        object_size: u64,
    },
}

impl core::fmt::Display for HttpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HttpError::NotFound(p) => write!(f, "404 Not Found: {p}"),
            HttpError::RangeNotSatisfiable {
                requested,
                object_size,
            } => write!(
                f,
                "416 Range Not Satisfiable: [{}+{}] of {} B",
                requested.0, requested.1, object_size
            ),
        }
    }
}

impl std::error::Error for HttpError {}

/// The origin server for one piece of content.
///
/// The content itself is held behind a [`SharedContent`] handle: a fleet
/// of origins serving the same title shares one immutable realization
/// instead of cloning per-chunk size tables per session (DESIGN.md §15).
/// Constructors accept either an owned [`Content`] or an existing handle.
#[derive(Debug, Clone)]
pub struct Origin {
    content: SharedContent,
    header_overhead: Bytes,
    /// Documents (manifests/playlists) by path, storing body size.
    documents: std::collections::BTreeMap<String, Bytes>,
}

impl Origin {
    /// An origin serving `content` with the default header overhead.
    pub fn new(content: impl Into<SharedContent>) -> Origin {
        Origin::with_overhead(content, DEFAULT_HEADER_OVERHEAD)
    }

    /// An origin with explicit header overhead (use `Bytes::ZERO` for
    /// byte-exact analytical experiments).
    pub fn with_overhead(content: impl Into<SharedContent>, header_overhead: Bytes) -> Origin {
        Origin {
            content: content.into(),
            header_overhead,
            documents: std::collections::BTreeMap::new(),
        }
    }

    /// The content being served.
    pub fn content(&self) -> &Content {
        &self.content
    }

    /// A cheap shared handle to the content being served.
    pub fn shared_content(&self) -> SharedContent {
        SharedContent::clone(&self.content)
    }

    /// Publishes a document (manifest/playlist) body.
    pub fn publish_document(&mut self, path: &str, body: &str) {
        self.documents
            .insert(path.to_string(), Bytes(body.len() as u64));
    }

    /// Size of the stored object (before ranging / overhead).
    pub fn object_size(&self, object: &ObjectId) -> Result<Bytes, HttpError> {
        match object {
            ObjectId::Segment { track, chunk } => {
                self.check_track(*track, *chunk)?;
                Ok(self.content.chunk_size(*track, *chunk))
            }
            ObjectId::TrackFile { track } => {
                self.check_track(*track, 0)?;
                Ok(self.content.track_bytes(*track))
            }
            ObjectId::MuxedSegment { combo, chunk } => {
                self.check_track(combo.video_id(), *chunk)?;
                self.check_track(combo.audio_id(), *chunk)?;
                Ok(self.content.chunk_size(combo.video_id(), *chunk)
                    + self.content.chunk_size(combo.audio_id(), *chunk))
            }
            ObjectId::Document { path } => self
                .documents
                .get(path)
                .copied()
                .ok_or_else(|| HttpError::NotFound(path.clone())),
        }
    }

    fn check_track(&self, track: TrackId, chunk: usize) -> Result<(), HttpError> {
        let ladder = self.content.ladder(track.media);
        if track.index >= ladder.len() || chunk >= self.content.num_chunks() {
            return Err(HttpError::NotFound(format!("{track} chunk {chunk}")));
        }
        Ok(())
    }

    /// Response *body* size for a request (range applied).
    pub fn body_size(&self, req: &Request) -> Result<Bytes, HttpError> {
        let size = self.object_size(&req.object)?;
        let body = match req.range {
            None => size,
            Some((offset, len)) => {
                if offset + len.get() > size.get() {
                    return Err(HttpError::RangeNotSatisfiable {
                        requested: (offset, len.get()),
                        object_size: size.get(),
                    });
                }
                len
            }
        };
        Ok(body)
    }

    /// Total on-the-wire transfer size: body plus header overhead. This is
    /// the number of bytes the fluid link must deliver.
    pub fn transfer_size(&self, req: &Request) -> Result<Bytes, HttpError> {
        Ok(self.body_size(req)? + self.header_overhead)
    }

    /// Convenience: the whole-segment request for a chunk (per-file
    /// packaging).
    pub fn segment_request(track: TrackId, chunk: usize) -> Request {
        Request::whole(ObjectId::Segment { track, chunk })
    }

    /// Convenience: the byte-range request for a chunk out of a single
    /// track file (byte-range packaging).
    pub fn range_request(&self, track: TrackId, chunk: usize) -> Result<Request, HttpError> {
        self.check_track(track, chunk)?;
        let offset: u64 = (0..chunk)
            .map(|i| self.content.chunk_size(track, i).get())
            .sum();
        Ok(Request::ranged(
            ObjectId::TrackFile { track },
            offset,
            self.content.chunk_size(track, chunk),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_media::combo::Combo;

    fn origin() -> Origin {
        Origin::with_overhead(Content::drama_show(1), Bytes::ZERO)
    }

    #[test]
    fn segment_sizes_match_content() {
        let o = origin();
        let req = Origin::segment_request(TrackId::video(3), 7);
        assert_eq!(
            o.transfer_size(&req).unwrap(),
            o.content().chunk_size(TrackId::video(3), 7)
        );
    }

    #[test]
    fn header_overhead_added() {
        let o = Origin::new(Content::drama_show(1));
        let req = Origin::segment_request(TrackId::audio(0), 0);
        let body = o.body_size(&req).unwrap();
        assert_eq!(
            o.transfer_size(&req).unwrap(),
            body + DEFAULT_HEADER_OVERHEAD
        );
    }

    #[test]
    fn range_requests_tile_the_track_file() {
        let o = origin();
        let track = TrackId::video(2);
        let mut total = Bytes::ZERO;
        for chunk in 0..o.content().num_chunks() {
            let req = o.range_request(track, chunk).unwrap();
            total += o.body_size(&req).unwrap();
        }
        assert_eq!(total, o.content().track_bytes(track));
        // Ranges are consistent with the whole-file size.
        let whole = Request::whole(ObjectId::TrackFile { track });
        assert_eq!(o.body_size(&whole).unwrap(), total);
    }

    #[test]
    fn muxed_segment_is_sum_of_components() {
        let o = origin();
        let combo = Combo::new(4, 2);
        let req = Request::whole(ObjectId::MuxedSegment { combo, chunk: 3 });
        assert_eq!(
            o.body_size(&req).unwrap(),
            o.content().chunk_size(TrackId::video(4), 3)
                + o.content().chunk_size(TrackId::audio(2), 3)
        );
    }

    #[test]
    fn documents_publish_and_resolve() {
        let mut o = origin();
        o.publish_document("manifest.mpd", "<MPD/>");
        let req = Request::whole(ObjectId::Document {
            path: "manifest.mpd".into(),
        });
        assert_eq!(o.body_size(&req).unwrap(), Bytes(6));
        let missing = Request::whole(ObjectId::Document {
            path: "nope".into(),
        });
        assert!(matches!(o.body_size(&missing), Err(HttpError::NotFound(_))));
    }

    #[test]
    fn not_found_cases() {
        let o = origin();
        assert!(o
            .body_size(&Origin::segment_request(TrackId::video(9), 0))
            .is_err());
        assert!(o
            .body_size(&Origin::segment_request(TrackId::video(0), 99))
            .is_err());
    }

    #[test]
    fn unsatisfiable_range() {
        let o = origin();
        let track = TrackId::audio(0);
        let size = o.content().track_bytes(track);
        let req = Request::ranged(ObjectId::TrackFile { track }, size.get() - 10, Bytes(100));
        assert!(matches!(
            o.body_size(&req),
            Err(HttpError::RangeNotSatisfiable { .. })
        ));
    }
}
