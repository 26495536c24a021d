//! The transfer layer: in-flight requests, flow bookkeeping, transfer-path
//! delay and the aggregate bandwidth meter.
//!
//! Everything between "the policy picked a track" and "a chunk landed in a
//! buffer" lives here: building the HTTP request for the session's
//! packaging and delivery mode, charging the transfer path's first-byte
//! delay (via [`abr_httpsim::edge::TransferPath`]), opening the link flow,
//! tracking what each flow carries, and folding completions back into
//! buffers, policy estimator feed and the session record. A muxed chunk
//! takes the same path as a demuxed one; it only carries its audio
//! component along.

use crate::digest::Recorder;
use crate::engine::Engine;
use crate::policy::TransferRecord;
use abr_event::time::{busy_union_in_place, Duration, Instant};
use abr_httpsim::origin::Origin;
use abr_httpsim::request::{ObjectId, Request};
use abr_manifest::build::Packaging;
use abr_media::combo::Combo;
use abr_media::track::{MediaType, TrackId};
use abr_media::units::Bytes;
use abr_net::link::{Completion, FlowId};
use abr_obs::Event;

/// A chunk request: one track's chunk, or under muxed delivery (§1) one
/// pre-combined variant carrying a video track's chunk and its audio
/// companion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkFetch {
    /// The track whose pipeline the request drives (video for a muxed
    /// chunk).
    pub(crate) track: TrackId,
    pub(crate) chunk: usize,
    pub(crate) opened_at: Instant,
    /// The audio track a muxed chunk carries along; `None` when demuxed.
    pub(crate) muxed_audio: Option<TrackId>,
}

/// A request in flight: a media chunk, or a second-level playlist that
/// must land before a chunk request can be issued (§4.1 lazy fetching) or
/// before adaptation starts (eager prefetch).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pending {
    Chunk(ChunkFetch),
    Playlist {
        track: TrackId,
        requested_at: Instant,
        /// The chunk of `track` to request once the playlist arrives
        /// (`None` for eager prefetches, which are not tied to a chunk).
        then: Option<usize>,
    },
}

impl Pending {
    pub(crate) fn media(&self) -> MediaType {
        match self {
            Pending::Chunk(c) => c.track.media,
            Pending::Playlist { track, .. } => track.media,
        }
    }
}

/// In-flight transfer bookkeeping: which flow carries what, plus the
/// aggregate bandwidth-meter state.
///
/// The pending table is a flat vector kept sorted by ascending [`FlowId`]
/// (ids ascend in open order, so inserts are pushes). A session has at
/// most a handful of requests in flight, and a sorted `Vec` reproduces
/// the `BTreeMap` it replaced *exactly* — iteration and removal
/// semantics are both by ascending flow id (DESIGN.md §15).
#[derive(Debug, Default)]
pub(crate) struct FlightBoard {
    /// Requests currently on the link, sorted by ascending flow id.
    pending: Vec<(FlowId, Pending)>,
    /// Left edge of the next bandwidth-meter window (the time of the
    /// previous completion event).
    pub(crate) meter_last: Instant,
    /// Reusable interval scratch for [`Engine::meter_window`] — cleared and
    /// refilled each round so the meter never allocates in steady state.
    meter_scratch: Vec<(Instant, Instant)>,
    /// Reusable completion buffer: the link appends into it each step and
    /// [`Engine::on_completions`] drains it.
    pub(crate) completions: Vec<Completion>,
}

impl FlightBoard {
    /// True if any pending request drives the given media pipeline.
    pub(crate) fn in_flight(&self, media: MediaType) -> bool {
        self.pending.iter().any(|(_, p)| p.media() == media)
    }

    /// Number of in-flight requests (read by the flight/link agreement
    /// check).
    #[cfg(feature = "debug-invariants")]
    pub(crate) fn len(&self) -> usize {
        self.pending.len()
    }

    /// Records a newly opened flow. Links allocate flow ids in ascending
    /// open order, which keeps the table sorted by construction.
    pub(crate) fn insert(&mut self, id: FlowId, pending: Pending) {
        debug_assert!(
            self.pending.last().is_none_or(|&(last, _)| last < id),
            "flow ids must ascend in open order"
        );
        self.pending.push((id, pending));
    }

    /// Removes and returns the pending request carried by `id`.
    pub(crate) fn remove(&mut self, id: FlowId) -> Option<Pending> {
        let i = self.pending.binary_search_by_key(&id, |&(k, _)| k).ok()?;
        Some(self.pending.remove(i).1)
    }

    /// Keyed iteration over in-flight requests, by ascending flow id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (FlowId, &Pending)> {
        self.pending.iter().map(|&(id, ref p)| (id, p))
    }
}

impl Engine {
    /// Opens a chunk request at `fetch.opened_at`: builds it for the
    /// session's packaging (a segment file or a byte range) or as a muxed
    /// segment, charges the transfer path's first-byte delay (edge-cache
    /// hit/miss), opens the link flow and records it as pending. A muxed
    /// request is traced without a track: it carries two.
    pub(crate) fn open_chunk(&mut self, fetch: ChunkFetch) {
        let (track, chunk, at) = (fetch.track, fetch.chunk, fetch.opened_at);
        let req = match (fetch.muxed_audio, self.packaging) {
            (Some(audio), _) => Request::whole(ObjectId::MuxedSegment {
                combo: Combo::new(track.index, audio.index),
                chunk,
            }),
            (None, Packaging::SingleFile) => self
                .origin
                .range_request(track, chunk)
                .expect("valid chunk range"),
            (None, Packaging::SegmentFiles { .. }) => Origin::segment_request(track, chunk),
        };
        let size = self
            .origin
            .transfer_size(&req)
            .expect("valid transfer request");
        let extra = match &mut self.path {
            Some(p) => p.first_byte_delay(&self.origin, &req, at),
            None => Duration::ZERO,
        };
        let flow = self.link.open_flow_after(size, extra);
        self.obs.emit(at, || Event::RequestIssued {
            flow: flow.0,
            track: fetch.muxed_audio.is_none().then_some(track),
            chunk: Some(chunk),
            size,
        });
        self.flights.insert(flow, Pending::Chunk(fetch));
    }

    /// Opens a playlist fetch for `track` at `at`. Playlist requests skip
    /// the edge cache (master/media playlists are served from the CDN shell
    /// in this model) and may carry the chunk of `track` to request once
    /// it lands (`then`).
    pub(crate) fn open_playlist_fetch(&mut self, track: TrackId, at: Instant, then: Option<usize>) {
        let size = *self.playlist_sizes.get(track).expect("playlist published");
        let flow = self.link.open_flow(size);
        self.obs.emit(at, || Event::RequestIssued {
            flow: flow.0,
            track: Some(track),
            chunk: None,
            size,
        });
        self.flights.insert(
            flow,
            Pending::Playlist {
                track,
                requested_at: at,
                then,
            },
        );
    }

    /// Aggregate bandwidth-meter window (all flows, completed and still in
    /// flight) since the previous completion event — ExoPlayer-style global
    /// accounting. Advances the meter edge only when completions arrived.
    /// The window is computed only for its readers: a policy that reads
    /// the meter, or the trace (`EstimateUpdated` carries the window's
    /// bytes); otherwise it is zero.
    pub(crate) fn meter_window(&mut self, completions: &[Completion]) -> (Bytes, Duration) {
        if completions.is_empty() || !(self.policy.reads_meter() || self.obs.tracing()) {
            return (Bytes::ZERO, Duration::ZERO);
        }
        let meter_last = self.flights.meter_last;
        let now = self.now;
        let mut bytes = Bytes::ZERO;
        let mut intervals = std::mem::take(&mut self.flights.meter_scratch);
        intervals.clear();
        {
            let mut take = |profile: &abr_net::profile::DeliveryProfile| {
                bytes += profile.bytes_between(meter_last, now);
                for s in profile.segments() {
                    let lo = s.start.max(meter_last);
                    let hi = s.end.min(now);
                    if lo < hi {
                        intervals.push((lo, hi));
                    }
                }
            };
            for c in completions {
                take(&c.profile);
            }
            for (id, _) in self.flights.iter() {
                if let Some(p) = self.link.flow_profile(id) {
                    take(p);
                }
            }
        }
        self.flights.meter_last = now;
        let busy = busy_union_in_place(&mut intervals);
        self.flights.meter_scratch = intervals;
        (bytes, busy)
    }

    /// Folds a batch of link completions into buffers, the policy's
    /// estimator feed and the session record, draining `completions`.
    /// The first *chunk* completion of the batch carries the whole meter
    /// window; playlist completions re-issue their deferred chunk requests
    /// instead. Every delivery profile goes back to the link once the
    /// policy has seen it.
    pub(crate) fn on_completions(&mut self, completions: &mut Vec<Completion>) {
        let _g = self.obs.span("transfer.on_completions");
        let mut window = self.meter_window(completions);
        for c in completions.drain(..) {
            let fetch = match self
                .flights
                .remove(c.id)
                .expect("completion for unknown flow")
            {
                Pending::Chunk(fetch) => fetch,
                Pending::Playlist {
                    track,
                    requested_at,
                    then,
                } => {
                    self.link.recycle_profile(c.profile);
                    self.on_playlist_arrival(track, requested_at, c.at, then);
                    continue;
                }
            };
            let (track, chunk) = (fetch.track, fetch.chunk);
            if let Some(audio) = fetch.muxed_audio {
                self.audio_buf.push(audio, chunk);
            }
            match track.media {
                MediaType::Audio => self.audio_buf.push(track, chunk),
                MediaType::Video => self.video_buf.push(track, chunk),
            }
            let (window_bytes, window_busy) = std::mem::take(&mut window);
            let record = TransferRecord {
                media: track.media,
                track,
                chunk,
                size: c.size,
                opened_at: fetch.opened_at,
                completed_at: c.at,
                profile: c.profile,
                window_bytes,
                window_busy,
            };
            self.policy.on_transfer(&record);
            self.link.recycle_profile(record.profile);
            // Only a log or a trace reads the estimate; a digest does not.
            let estimate_after = if matches!(self.recorder, Recorder::Log(_)) || self.obs.tracing()
            {
                self.policy.debug_estimate()
            } else {
                None
            };
            let event = Event::TransferCompleted {
                flow: c.id.0,
                track,
                chunk,
                size: c.size,
                opened_at: fetch.opened_at,
                estimate_after,
            };
            self.record(c.at, event);
        }
    }

    /// A playlist landed: mark the track ready, record the fetch, and
    /// issue the deferred chunk request (if any).
    fn on_playlist_arrival(
        &mut self,
        track: TrackId,
        requested_at: Instant,
        at: Instant,
        then: Option<usize>,
    ) {
        self.playlists_ready.insert(track);
        self.record(
            at,
            Event::PlaylistFetch {
                track,
                requested_at,
            },
        );
        if let Some(chunk) = then {
            // The pipeline stays busy while its playlist is in flight, so
            // no other fetch can have taken this position.
            #[cfg(feature = "debug-invariants")]
            {
                let buf = match track.media {
                    MediaType::Audio => &self.audio_buf,
                    MediaType::Video => &self.video_buf,
                };
                debug_assert_eq!(
                    chunk,
                    buf.next_download_index(),
                    "deferred chunk of {track} is no longer its pipeline's next download"
                );
            }
            self.open_chunk(ChunkFetch {
                track,
                chunk,
                opened_at: at,
                muxed_audio: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pending_request_fits_in_48_bytes() {
        // The board moves these on every open and completion; a
        // muxed chunk's audio companion must not grow them.
        assert!(std::mem::size_of::<Pending>() <= 48);
    }
}
