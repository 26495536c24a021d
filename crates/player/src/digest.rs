//! The online QoE digest: what a session summary needs, kept as the
//! session runs.
//!
//! A [`SessionLog`] keeps every selection, transfer and buffer sample so
//! the figures can plot them. A QoE summary needs far less: the last pick
//! per chunk, per-media bitrate totals, the buffer-imbalance integral,
//! and a few counters and instants. A [`SessionDigest`] holds exactly
//! that. A session that keeps no log (a fleet session) feeds the digest
//! directly, and [`SessionDigest::from_log`] replays a finished log into
//! the same accumulators. Each aggregate therefore has one
//! implementation: [`ChunkPicks`] and [`BufferStats`] here, which the
//! `SessionLog` aggregate methods and `abr_qoe` both read.

use crate::log::{BufferSample, PlaylistFetchEvent, SelectionEvent, SessionLog, TransferEvent};
use crate::playback::{PlaybackEngine, Stall};
use abr_event::time::{Duration, Instant};
use abr_media::track::MediaType;
use abr_media::units::BitsPerSec;

/// The latest pick for one (chunk, media) slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pick {
    /// Ladder index, or [`Pick::NONE`] for a slot never selected.
    index: u32,
    /// The picked track's average bitrate.
    avg: BitsPerSec,
}

impl Pick {
    const NONE: u32 = u32::MAX;
    const EMPTY: Pick = Pick {
        index: Pick::NONE,
        avg: BitsPerSec(0),
    };

    fn get(self) -> Option<(usize, BitsPerSec)> {
        (self.index != Pick::NONE).then_some((self.index as usize, self.avg))
    }
}

/// Slot of a media type in the per-media arrays.
fn slot(media: MediaType) -> usize {
    match media {
        MediaType::Audio => 0,
        MediaType::Video => 1,
    }
}

/// The track picked for each chunk position of both media types (the
/// later selection wins if a chunk is selected twice), plus per-media
/// totals over every selection, duplicates included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPicks {
    /// `[audio, video]` per chunk position.
    picks: Vec<[Pick; 2]>,
    /// Chunk positions with a pick, per media.
    filled: [usize; 2],
    /// Selections recorded, per media.
    selections: [u64; 2],
    /// Sum of the selected average bitrates in bps, per media.
    bps_sum: [u64; 2],
}

impl ChunkPicks {
    /// No picks yet for a `num_chunks`-chunk content.
    pub fn new(num_chunks: usize) -> ChunkPicks {
        ChunkPicks {
            picks: vec![[Pick::EMPTY; 2]; num_chunks],
            filled: [0; 2],
            selections: [0; 2],
            bps_sum: [0; 2],
        }
    }

    /// Replays `selections` in order.
    pub fn from_selections(num_chunks: usize, selections: &[SelectionEvent]) -> ChunkPicks {
        let mut picks = ChunkPicks::new(num_chunks);
        for s in selections {
            picks.record(s);
        }
        picks
    }

    /// Records one selection. Panics if its chunk is out of range.
    pub fn record(&mut self, s: &SelectionEvent) {
        let m = slot(s.track.media);
        let pick = Pick {
            index: u32::try_from(s.track.index).expect("ladder index fits in u32"),
            avg: s.avg_bitrate,
        };
        if std::mem::replace(&mut self.picks[s.chunk][m], pick).index == Pick::NONE {
            self.filled[m] += 1;
        }
        self.selections[m] += 1;
        self.bps_sum[m] += s.avg_bitrate.bps();
    }

    /// Ladder index picked for each chunk of `media`, in chunk order,
    /// skipping chunks never selected.
    pub fn tracks(&self, media: MediaType) -> impl Iterator<Item = usize> + '_ {
        let m = slot(media);
        self.picks.iter().filter_map(move |p| Some(p[m].get()?.0))
    }

    /// Number of chunk positions of `media` with a pick.
    pub fn filled(&self, media: MediaType) -> usize {
        self.filled[slot(media)]
    }

    /// Track switches of `media`: consecutive picked chunks on different
    /// rungs.
    pub fn switch_count(&self, media: MediaType) -> usize {
        self.tracks(media)
            .zip(self.tracks(media).skip(1))
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Mean average bitrate over every selection of `media`; `None`
    /// before the first.
    pub fn mean_avg_bitrate(&self, media: MediaType) -> Option<BitsPerSec> {
        let m = slot(media);
        (self.selections[m] > 0).then(|| BitsPerSec(self.bps_sum[m] / self.selections[m]))
    }

    /// `(audio, video)` average bitrates of each chunk position both media
    /// types picked, in chunk order.
    pub fn pairs(&self) -> impl Iterator<Item = (BitsPerSec, BitsPerSec)> + '_ {
        self.picks
            .iter()
            .filter_map(|[a, v]| Some((a.get()?.1, v.get()?.1)))
    }

    fn heap_bytes(&self) -> usize {
        self.picks.capacity() * core::mem::size_of::<[Pick; 2]>()
    }
}

/// Buffer-imbalance statistics over a stream of buffer samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Time of the first sample.
    first_at: Instant,
    /// The most recent sample.
    last: Option<BufferSample>,
    /// Trapezoid integral of |audio − video| over time, in µs², each
    /// inter-sample window rounded down on its own.
    weighted: u128,
    /// Largest |audio − video| seen at any sample.
    max: Duration,
    /// Samples recorded.
    samples: u64,
}

impl BufferStats {
    /// Replays `samples` in order.
    pub fn from_samples(samples: &[BufferSample]) -> BufferStats {
        let mut stats = BufferStats::default();
        for &s in samples {
            stats.record(s);
        }
        stats
    }

    /// Records one sample. Samples must arrive in time order.
    pub fn record(&mut self, s: BufferSample) {
        let d = imbalance(&s);
        match self.last {
            Some(prev) => {
                let dt = (s.at - prev.at).as_micros() as u128;
                let d0 = imbalance(&prev).as_micros() as u128;
                self.weighted += dt * (d0 + d.as_micros() as u128) / 2;
            }
            None => self.first_at = s.at,
        }
        self.max = self.max.max(d);
        self.last = Some(s);
        self.samples += 1;
    }

    /// Time integral of |audio level − video level| divided by the
    /// sampled span: the buffer-imbalance measure for Fig 5(b) and the
    /// §4.2 balance recommendation. Zero over an empty span.
    pub fn mean_imbalance(&self) -> Duration {
        let span = self
            .last
            .map_or(0, |last| (last.at - self.first_at).as_micros() as u128);
        if span == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros((self.weighted / span) as u64)
    }

    /// The largest imbalance observed at any sample.
    pub fn max_imbalance(&self) -> Duration {
        self.max
    }

    /// Samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

fn imbalance(s: &BufferSample) -> Duration {
    if s.audio >= s.video {
        s.audio - s.video
    } else {
        s.video - s.audio
    }
}

/// Everything a QoE summary reads about one session, accumulated online.
///
/// A digest streamed by a running session equals
/// [`SessionDigest::from_log`] of the same session's log, field for field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionDigest {
    /// Policy that produced the session.
    pub policy: String,
    /// Number of chunks in the content.
    pub num_chunks: usize,
    /// Per-chunk picks and per-media selection totals.
    pub picks: ChunkPicks,
    /// Buffer-imbalance statistics over every buffer sample.
    pub buffer: BufferStats,
    /// Completed chunk transfers.
    pub transfers: u64,
    /// Completed second-level playlist fetches.
    pub playlist_fetches: u64,
    /// Number of stall events.
    pub stall_count: usize,
    /// Total rebuffering time (an open stall measured to session end).
    pub total_stall: Duration,
    /// User seeks applied.
    pub seeks: usize,
    /// When playback started.
    pub startup_at: Option<Instant>,
    /// When playback finished all content.
    pub ended_at: Option<Instant>,
    /// When the simulation loop exited.
    pub finished_at: Instant,
}

impl SessionDigest {
    /// An empty digest for a session of `policy` over `num_chunks` chunks.
    pub fn new(policy: &str, num_chunks: usize) -> SessionDigest {
        SessionDigest {
            policy: policy.to_string(),
            num_chunks,
            picks: ChunkPicks::new(num_chunks),
            buffer: BufferStats::default(),
            transfers: 0,
            playlist_fetches: 0,
            stall_count: 0,
            total_stall: Duration::ZERO,
            seeks: 0,
            startup_at: None,
            ended_at: None,
            finished_at: Instant::ZERO,
        }
    }

    /// Replays a finished log into a digest.
    pub fn from_log(log: &SessionLog) -> SessionDigest {
        let mut d = SessionDigest::new(&log.policy, log.num_chunks);
        for s in &log.selections {
            d.picks.record(s);
        }
        for &s in &log.buffer_samples {
            d.buffer.record(s);
        }
        d.transfers = log.transfers.len() as u64;
        d.playlist_fetches = log.playlist_fetches.len() as u64;
        d.close(
            log.startup_at,
            log.ended_at,
            &log.stalls,
            log.seeks.len(),
            log.finished_at,
        );
        d
    }

    /// Fills the end-of-session fields.
    fn close(
        &mut self,
        startup_at: Option<Instant>,
        ended_at: Option<Instant>,
        stalls: &[Stall],
        seeks: usize,
        finished_at: Instant,
    ) {
        self.startup_at = startup_at;
        self.ended_at = ended_at;
        self.stall_count = stalls.len();
        self.total_stall = Stall::total(stalls, finished_at);
        self.seeks = seeks;
        self.finished_at = finished_at;
    }

    /// True when every chunk of both media types was selected and the
    /// content played to the end.
    pub fn completed(&self) -> bool {
        self.ended_at.is_some()
            && self.picks.filled(MediaType::Audio) == self.num_chunks
            && self.picks.filled(MediaType::Video) == self.num_chunks
    }

    /// Deterministic estimate of the digest's memory footprint: the
    /// struct, its per-chunk picks and the policy name. A pure function
    /// of the session, never of the allocator.
    pub fn approx_bytes(&self) -> u64 {
        (core::mem::size_of::<SessionDigest>() + self.picks.heap_bytes() + self.policy.len()) as u64
    }
}

/// Where a running session records what happens: the full log, or only
/// the digest. Each engine record site is one call here, so a session
/// pays for exactly one of the two.
pub(crate) enum Recorder {
    /// Keep every event row.
    Log(SessionLog),
    /// Keep only the QoE digest.
    Digest(SessionDigest),
}

impl Recorder {
    /// The policy name the session was built with.
    pub(crate) fn policy(&self) -> &str {
        match self {
            Recorder::Log(log) => &log.policy,
            Recorder::Digest(d) => &d.policy,
        }
    }

    pub(crate) fn selection(&mut self, s: SelectionEvent) {
        match self {
            Recorder::Log(log) => log.selections.push(s),
            Recorder::Digest(d) => d.picks.record(&s),
        }
    }

    pub(crate) fn transfer(&mut self, t: TransferEvent) {
        match self {
            Recorder::Log(log) => log.transfers.push(t),
            Recorder::Digest(d) => d.transfers += 1,
        }
    }

    pub(crate) fn playlist_fetch(&mut self, p: PlaylistFetchEvent) {
        match self {
            Recorder::Log(log) => log.playlist_fetches.push(p),
            Recorder::Digest(d) => d.playlist_fetches += 1,
        }
    }

    pub(crate) fn sample(&mut self, s: BufferSample) {
        match self {
            Recorder::Log(log) => log.buffer_samples.push(s),
            Recorder::Digest(d) => d.buffer.record(s),
        }
    }

    /// Fills the end-of-session fields from the playback engine.
    pub(crate) fn finish(&mut self, playback: &PlaybackEngine, now: Instant) {
        match self {
            Recorder::Log(log) => {
                log.startup_at = playback.startup_at();
                log.ended_at = playback.ended_at();
                log.stalls = playback.stalls().to_vec();
                log.seeks = playback.seeks().to_vec();
                log.finished_at = now;
            }
            Recorder::Digest(d) => d.close(
                playback.startup_at(),
                playback.ended_at(),
                playback.stalls(),
                playback.seeks().len(),
                now,
            ),
        }
    }

    /// The recorded log. Panics for a digest-only session: only the
    /// log-recording constructors hand their engine to a caller of this.
    pub(crate) fn into_log(self) -> SessionLog {
        match self {
            Recorder::Log(log) => log,
            Recorder::Digest(_) => panic!("a digest-only session keeps no log"),
        }
    }

    /// The session's digest, replayed from the log when one was kept.
    pub(crate) fn into_digest(self) -> SessionDigest {
        match self {
            Recorder::Log(log) => SessionDigest::from_log(&log),
            Recorder::Digest(d) => d,
        }
    }
}
