//! The transfer layer: in-flight requests, flow bookkeeping, transfer-path
//! delay and the aggregate bandwidth meter.
//!
//! Everything between "the policy picked a track" and "a chunk landed in a
//! buffer" lives here: building the HTTP request for the configured
//! packaging, charging the transfer path's first-byte delay (via
//! [`abr_httpsim::edge::TransferPath`]), opening the link flow, tracking
//! what each flow carries, and folding completions back into buffers,
//! policy estimator feed and the session record.

use crate::engine::Engine;
use crate::policy::TransferRecord;
use abr_event::time::{busy_union_in_place, Duration, Instant};
use abr_httpsim::origin::Origin;
use abr_httpsim::request::Request;
use abr_media::track::{MediaType, TrackId};
use abr_media::units::Bytes;
use abr_net::link::{Completion, FlowId};
use abr_obs::Event;

/// A chunk request in flight.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkFetch {
    pub(crate) media: MediaType,
    pub(crate) track: TrackId,
    pub(crate) chunk: usize,
    pub(crate) opened_at: Instant,
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
        /// The chunk request to issue once the playlist arrives (`None`
        /// for eager prefetches and live refresh polls, which are not tied
        /// to a chunk).
        then: Option<ChunkFetch>,
    },
    /// A pre-combined audio+video chunk (muxed delivery, §1).
    Muxed {
        video: TrackId,
        audio: TrackId,
        chunk: usize,
        opened_at: Instant,
    },
}

impl Pending {
    pub(crate) fn media(&self) -> MediaType {
        match self {
            Pending::Chunk(c) => c.media,
            Pending::Playlist { track, .. } => track.media,
            // The muxed pipeline is driven through the video lane.
            Pending::Muxed { .. } => MediaType::Video,
        }
    }
}

/// In-flight transfer bookkeeping: which flow carries what, plus the
/// aggregate bandwidth-meter state.
///
/// The pending table is a flat vector kept sorted by ascending [`FlowId`]
/// (ids ascend in open order, so inserts are pushes). A session has at
/// most a handful of requests in flight, and a sorted `Vec` reproduces
/// the `BTreeMap` it replaced *exactly* — iteration, `retain` walk order
/// (the seek-cancel path is order-sensitive, see
/// `Engine::apply_due_seeks`) and removal semantics are all by ascending
/// flow id (DESIGN.md §15).
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

    /// Number of in-flight requests.
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

    /// Retains only the requests `keep` approves, walking (and therefore
    /// cancelling) in ascending flow-id order — the same order the
    /// `BTreeMap::retain` it replaced used.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(FlowId, &Pending) -> bool) {
        self.pending.retain(|&(id, ref p)| keep(id, p));
    }
}

impl Engine {
    /// Builds the origin request for a chunk under the configured packaging.
    pub(crate) fn chunk_request(&self, track: TrackId, chunk: usize) -> Request {
        match self.packaging {
            abr_manifest::build::Packaging::SingleFile => self
                .origin
                .range_request(track, chunk)
                .expect("valid chunk range"),
            abr_manifest::build::Packaging::SegmentFiles { .. } => {
                Origin::segment_request(track, chunk)
            }
        }
    }

    /// Opens a link flow for `req` at `at`, charging the transfer path's
    /// first-byte delay (edge-cache hit/miss), and records it as pending.
    pub(crate) fn open_transfer(
        &mut self,
        req: &Request,
        at: Instant,
        obs_track: Option<TrackId>,
        obs_chunk: Option<usize>,
        pending: Pending,
    ) {
        let size = self
            .origin
            .transfer_size(req)
            .expect("valid transfer request");
        let extra = match &mut self.path {
            Some(p) => p.first_byte_delay(&self.origin, req, at),
            None => Duration::ZERO,
        };
        let flow = self.link.open_flow_after(size, extra);
        self.obs.emit(at, || Event::RequestIssued {
            flow: flow.0,
            track: obs_track,
            chunk: obs_chunk,
            size,
        });
        self.flights.insert(flow, pending);
    }

    /// Opens a playlist fetch for `track` at `at`. Playlist requests skip
    /// the edge cache (master/media playlists are served from the CDN shell
    /// in this model) and may carry a deferred chunk request (`then`).
    pub(crate) fn open_playlist_fetch(
        &mut self,
        track: TrackId,
        at: Instant,
        then: Option<ChunkFetch>,
    ) {
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
        let (window_bytes, window_busy) = self.meter_window(completions);
        let mut first_completion = true;
        for c in completions.drain(..) {
            let p = match self
                .flights
                .remove(c.id)
                .expect("completion for unknown flow")
            {
                Pending::Muxed {
                    video,
                    audio,
                    chunk,
                    opened_at,
                } => {
                    self.audio_buf.push(audio, chunk);
                    self.video_buf.push(video, chunk);
                    let record = TransferRecord {
                        media: MediaType::Video,
                        track: video,
                        chunk,
                        size: c.size,
                        opened_at,
                        completed_at: c.at,
                        profile: c.profile,
                        window_bytes: if first_completion {
                            window_bytes
                        } else {
                            Bytes::ZERO
                        },
                        window_busy: if first_completion {
                            window_busy
                        } else {
                            Duration::ZERO
                        },
                    };
                    first_completion = false;
                    self.ingest_transfer(record, c.id, c.at);
                    continue;
                }
                Pending::Playlist {
                    track,
                    requested_at,
                    then,
                } => {
                    self.link.recycle_profile(c.profile);
                    self.on_playlist_arrival(track, requested_at, c.at, then);
                    continue;
                }
                Pending::Chunk(f) => f,
            };
            let buf = match p.media {
                MediaType::Audio => &mut self.audio_buf,
                MediaType::Video => &mut self.video_buf,
            };
            buf.push(p.track, p.chunk);
            let (wb, wd) = if first_completion {
                (window_bytes, window_busy)
            } else {
                (Bytes::ZERO, Duration::ZERO)
            };
            first_completion = false;
            let record = TransferRecord {
                media: p.media,
                track: p.track,
                chunk: p.chunk,
                size: c.size,
                opened_at: p.opened_at,
                completed_at: c.at,
                profile: c.profile,
                window_bytes: wb,
                window_busy: wd,
            };
            self.ingest_transfer(record, c.id, c.at);
        }
    }

    /// Feeds one completed chunk transfer to the policy, recycles its
    /// profile, and records the completion.
    fn ingest_transfer(&mut self, record: TransferRecord, flow: FlowId, at: Instant) {
        let (track, chunk, size, opened_at) =
            (record.track, record.chunk, record.size, record.opened_at);
        self.policy.on_transfer(&record);
        self.link.recycle_profile(record.profile);
        let event = Event::TransferCompleted {
            flow: flow.0,
            track,
            chunk,
            size,
            opened_at,
            estimate_after: self.policy.debug_estimate(),
        };
        self.record(at, event);
    }

    /// A playlist landed: mark the track ready, record the fetch, and
    /// issue the deferred chunk request (if any, and still wanted — a seek
    /// may have flushed past its position).
    fn on_playlist_arrival(
        &mut self,
        track: TrackId,
        requested_at: Instant,
        at: Instant,
        then: Option<ChunkFetch>,
    ) {
        self.playlists_ready.insert(track);
        self.record(
            at,
            Event::PlaylistFetch {
                track,
                requested_at,
            },
        );
        if let Some(fetch) = then {
            // A seek may have flushed past this position.
            let buf = match fetch.media {
                MediaType::Audio => &self.audio_buf,
                MediaType::Video => &self.video_buf,
            };
            if fetch.chunk != buf.next_download_index() {
                return;
            }
            // Issue the deferred chunk request now.
            let req = self.chunk_request(fetch.track, fetch.chunk);
            self.open_transfer(
                &req,
                at,
                Some(fetch.track),
                Some(fetch.chunk),
                Pending::Chunk(ChunkFetch {
                    opened_at: at,
                    ..fetch
                }),
            );
        }
    }
}
