//! Replays of logged sessions into fresh link and hub instances: the
//! outside-in view of the `net.link`, `httpsim.cache` and `net.uplink`
//! layers. Each replay both times the layer's public calls and checks
//! that the layer reproduces what the logged run saw.

use crate::measure::HostClock;
use abr_bench::corpus::TitleCorpus;
use abr_bench::fleet::{FleetSpec, PlanSource};
use abr_event::time::{Duration, Instant};
use abr_httpsim::cache::CdnCache;
use abr_httpsim::origin::Origin;
use abr_httpsim::request::{ObjectId, Request};
use abr_httpsim::shared::FleetHub;
use abr_media::combo::Combo;
use abr_media::content::SharedContent;
use abr_media::track::MediaType;
use abr_media::units::Bytes;
use abr_net::link::Link;
use abr_net::trace::Trace;
use abr_net::uplink::UplinkQueue;
use abr_player::session::DeliveryMode;
use abr_player::SessionLog;
use std::hint::black_box;

/// Request latency of every session link (`abr_bench::setup` and the
/// fleet driver both build `Link::with_latency(trace, 20 ms)`).
pub const LINK_LATENCY: Duration = Duration::from_millis(20);

/// One request a session issued, rebuilt from its selection log.
pub struct Issued {
    /// Session-local issue time.
    pub at: Instant,
    /// The pipeline it fills (video for a muxed request).
    pub media: MediaType,
    /// Chunk position.
    pub chunk: usize,
    /// The origin request.
    pub req: Request,
    /// Bytes on the wire.
    pub size: Bytes,
    /// First-byte delay the transfer path added (see [`charge_hub`]).
    pub extra: Duration,
}

/// A session's requests in issue order. Every selection opens one
/// request in the same scheduling round, so the selection log is the
/// request log: per-track segment files under demuxed delivery; under
/// muxed delivery each position's back-to-back video and audio picks form
/// one combined object.
pub fn issued_requests(log: &SessionLog, origin: &Origin, delivery: DeliveryMode) -> Vec<Issued> {
    let build = |at, media, chunk, req: Request| {
        let size = origin.transfer_size(&req).expect("logged request is valid");
        Issued {
            at,
            media,
            chunk,
            req,
            size,
            extra: Duration::ZERO,
        }
    };
    match delivery {
        DeliveryMode::Demuxed => log
            .selections
            .iter()
            .map(|s| {
                let req = Origin::segment_request(s.track, s.chunk);
                build(s.at, s.track.media, s.chunk, req)
            })
            .collect(),
        DeliveryMode::Muxed => log
            .selections
            .chunks_exact(2)
            .map(|pair| {
                let (video, audio) = (pair[0], pair[1]);
                assert!(
                    video.track.media == MediaType::Video
                        && audio.track.media == MediaType::Audio
                        && video.chunk == audio.chunk,
                    "muxed selections come in video/audio pairs"
                );
                let combo = Combo::new(video.track.index, audio.track.index);
                let req = Request::whole(ObjectId::MuxedSegment {
                    combo,
                    chunk: video.chunk,
                });
                build(video.at, MediaType::Video, video.chunk, req)
            })
            .collect(),
    }
}

/// A fresh domain hub built exactly as the fleet driver builds one.
pub fn fresh_hub(spec: &FleetSpec) -> FleetHub {
    FleetHub::new(
        CdnCache::new(Bytes(spec.cache_mb * 1_000_000)),
        UplinkQueue::new(spec.uplink_kbps),
        Duration::from_millis(spec.miss_rtt_ms),
    )
}

/// Charges a standalone fleet session's requests, in issue order, to a
/// fresh hub as its `SharedEdge` did (fleet time = local time + `offset`,
/// cache namespace = title), recording each first-byte delay.
pub fn charge_hub(
    issued: &mut [Issued],
    spec: &FleetSpec,
    origin: &Origin,
    title: u64,
    offset: Duration,
) {
    let mut hub = fresh_hub(spec);
    for r in issued {
        r.extra = hub.request(origin, &r.req, title, r.at + offset);
    }
}

/// What link replays measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct LinkTally {
    /// Ns inside link calls.
    pub link_ns: f64,
    /// Ns of the replayed sessions' own runs.
    pub session_ns: f64,
    /// Logged transfers.
    pub flows: u64,
    /// Logged transfers whose replayed completion instant is identical.
    pub exact: u64,
}

impl LinkTally {
    /// Adds a replay measured in raw host ns, scaled by `scale`, of a
    /// session that ran for `session_ns`.
    pub fn add(&mut self, other: LinkTally, scale: f64, session_ns: f64) {
        self.link_ns += other.link_ns * scale;
        self.session_ns += session_ns;
        self.flows += other.flows;
        self.exact += other.exact;
    }
}

/// Replays one session's requests into a fresh `Link` on the session's
/// own step schedule: each logged buffer sample is one engine step, and
/// a step makes the calls the engine makes — `next_completion` when
/// re-arming, `advance_to` the step instant, then `open_flow_after` for
/// every request issued at that instant. Returns the raw host ns of the
/// link calls and how many logged completion instants the replay
/// reproduced.
pub fn replay_link(log: &SessionLog, issued: &[Issued], trace: Trace) -> LinkTally {
    let mut link = Link::with_latency(trace, LINK_LATENCY);
    let mut carried: Vec<(MediaType, usize)> = Vec::with_capacity(issued.len());
    let mut completed: Vec<(usize, Instant)> = Vec::with_capacity(issued.len());
    let mut next = 0;
    let start = std::time::Instant::now();
    for (step, sample) in log.buffer_samples.iter().enumerate() {
        let now = sample.at;
        if step > 0 {
            black_box(link.next_completion());
            completed.extend(
                link.advance_to(now)
                    .into_iter()
                    .map(|c| (c.id.0 as usize, c.at)),
            );
        }
        while let Some(r) = issued.get(next).filter(|r| r.at <= now) {
            link.open_flow_after(r.size, r.extra);
            carried.push((r.media, r.chunk));
            next += 1;
        }
    }
    let link_ns = start.elapsed().as_nanos() as f64;

    let mut logged = [vec![None; log.num_chunks], vec![None; log.num_chunks]];
    for t in &log.transfers {
        logged[media_slot(t.track.media)][t.chunk] = Some(t.at);
    }
    let exact = completed
        .iter()
        .filter(|&&(flow, at)| {
            let (media, chunk) = carried[flow];
            logged[media_slot(media)][chunk] == Some(at)
        })
        .count();
    LinkTally {
        link_ns,
        session_ns: 0.0,
        flows: log.transfers.len() as u64,
        exact: exact as u64,
    }
}

fn media_slot(media: MediaType) -> usize {
    match media {
        MediaType::Audio => 0,
        MediaType::Video => 1,
    }
}

/// What a fleet-wide hub replay measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct HubTally {
    /// Requests replayed.
    pub requests: u64,
    /// Replayed cache hits.
    pub hits: u64,
    /// Replayed cache misses.
    pub misses: u64,
    /// Recording-host ns inside `FleetHub::request`.
    pub ns: f64,
}

/// Rebuilds a fleet's request stream from its session logs (arrivals and
/// titles from `PlanSource::plan`) and replays it, domain by domain in
/// fleet-time order, into fresh hubs. Same-instant requests replay in
/// session-index order, each session's in issue order.
pub fn replay_hubs(
    spec: &FleetSpec,
    source: &PlanSource,
    titles: &TitleCorpus,
    logs: &[SessionLog],
) -> HubTally {
    let origins: Vec<Origin> = (0..spec.titles)
        .map(|t| Origin::with_overhead(SharedContent::clone(&titles.title(t).content), Bytes::ZERO))
        .collect();
    let mut domains: Vec<Vec<(Instant, usize, usize, Request)>> = vec![Vec::new(); spec.domains];
    for (i, log) in logs.iter().enumerate() {
        let plan = source.plan(i);
        for r in issued_requests(log, &origins[plan.title], spec.delivery) {
            domains[plan.domain].push((r.at + plan.arrival, i, plan.title, r.req));
        }
    }
    let mut tally = HubTally::default();
    let mut host = HostClock::new();
    for mut requests in domains {
        requests.sort_by_key(|&(at, session, ..)| (at, session));
        let mut hub = fresh_hub(spec);
        let scale = host.scale();
        let start = std::time::Instant::now();
        for (at, _, title, req) in &requests {
            black_box(hub.request(&origins[*title], req, *title as u64, *at));
        }
        tally.ns += start.elapsed().as_nanos() as f64 * scale;
        let stats = hub.cache_stats().expect("replay hubs have caches");
        tally.requests += requests.len() as u64;
        tally.hits += stats.hits;
        tally.misses += stats.misses;
    }
    tally
}
