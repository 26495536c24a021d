//! The online QoE digest: what a session summary needs, kept as the
//! session runs.
//!
//! A [`SessionLog`] keeps every selection, transfer and buffer sample so
//! the figures can plot them. A QoE summary needs far less: the last pick
//! per chunk, per-media bitrate totals, the buffer-imbalance integral,
//! and a few counters and instants. A [`SessionDigest`] holds exactly
//! that. A session that keeps no log (a fleet or `exp mc` session) folds
//! the same events its log would fold into the digest directly, and
//! [`SessionDigest::from_log`] replays a finished log into the same
//! accumulators. Each aggregate therefore has one
//! implementation: [`ChunkPicks`] and [`BufferStats`] here, which the
//! `SessionLog` aggregate methods and `abr_qoe` both read.

use crate::log::{BufferSample, SelectionEvent, SessionLog};
use abr_event::time::{Duration, Instant};
use abr_media::track::{MediaType, TrackId};
use abr_media::units::BitsPerSec;
use abr_obs::Event;

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
            picks.record(s.chunk, s.track, s.avg_bitrate);
        }
        picks
    }

    /// Records the selection of `track`, of average bitrate `avg`, for
    /// `chunk`. Panics if the chunk is out of range.
    pub fn record(&mut self, chunk: usize, track: TrackId, avg: BitsPerSec) {
        let m = slot(track.media);
        let pick = Pick {
            index: u32::try_from(track.index).expect("ladder index fits in u32"),
            avg,
        };
        if std::mem::replace(&mut self.picks[chunk][m], pick).index == Pick::NONE {
            self.filled[m] += 1;
        }
        self.selections[m] += 1;
        self.bps_sum[m] += avg.bps();
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
        SessionDigest {
            policy: log.policy.clone(),
            num_chunks: log.num_chunks,
            picks: log.picks(),
            buffer: BufferStats::from_samples(&log.buffer_samples),
            transfers: log.transfers.len() as u64,
            playlist_fetches: log.playlist_fetches.len() as u64,
            stall_count: log.stall_count(),
            total_stall: log.total_stall(),
            seeks: log.seeks.len(),
            startup_at: log.startup_at,
            ended_at: log.ended_at,
            finished_at: log.finished_at,
        }
    }

    /// Folds one session event stamped `at` into the digest. `open_stall`
    /// holds the start of the stall still open: the digest keeps closed
    /// stall time only, and the session end closes an open stall.
    fn fold(&mut self, at: Instant, event: &Event, open_stall: &mut Option<Instant>) {
        match *event {
            Event::TrackSelected {
                chunk,
                track,
                avg_bitrate,
                ..
            } => self.picks.record(chunk, track, avg_bitrate),
            Event::TransferCompleted { .. } => self.transfers += 1,
            Event::PlaylistFetch { .. } => self.playlist_fetches += 1,
            Event::BufferStateChange { audio, video } => {
                self.buffer.record(BufferSample { at, audio, video });
            }
            Event::StallBegin => {
                self.stall_count += 1;
                *open_stall = Some(at);
            }
            Event::StallEnd | Event::SessionEnd => {
                if let Some(start) = open_stall.take() {
                    self.total_stall += at.saturating_duration_since(start);
                }
                if matches!(event, Event::SessionEnd) {
                    self.finished_at = at;
                }
            }
            Event::SeekStarted { .. } => self.seeks += 1,
            Event::PlaybackStarted => self.startup_at = Some(at),
            Event::PlaybackEnded => self.ended_at = Some(at),
            _ => {}
        }
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
/// the digest. Every session fact reaches it as one [`Event`] through
/// [`Recorder::record`], so a session pays for exactly one of the two.
pub(crate) enum Recorder {
    /// Keep every event row.
    Log(SessionLog),
    /// Keep only the QoE digest, plus the start of the stall still open.
    Digest(SessionDigest, Option<Instant>),
}

impl Recorder {
    /// Folds one session event into the record. A log fold error means
    /// the engine emitted an event no session can produce, so it panics.
    pub(crate) fn record(&mut self, at: Instant, event: &Event) {
        match self {
            Recorder::Log(log) => {
                if let Err(e) = log.fold(at, event) {
                    panic!("engine recorded a malformed {} at {at}: {e}", event.name());
                }
            }
            Recorder::Digest(d, open_stall) => d.fold(at, event, open_stall),
        }
    }

    /// `(stall count, seek count, startup_at, ended_at)` as recorded, for
    /// the end-of-session cross-check against the playback engine.
    #[cfg(feature = "debug-invariants")]
    pub(crate) fn lifecycle(&self) -> (usize, usize, Option<Instant>, Option<Instant>) {
        match self {
            Recorder::Log(log) => (
                log.stalls.len(),
                log.seeks.len(),
                log.startup_at,
                log.ended_at,
            ),
            Recorder::Digest(d, _) => (d.stall_count, d.seeks, d.startup_at, d.ended_at),
        }
    }

    /// The recorded log. Panics for a digest-only session: only the
    /// log-recording constructors hand their engine to a caller of this.
    pub(crate) fn into_log(self) -> SessionLog {
        match self {
            Recorder::Log(log) => log,
            Recorder::Digest(..) => panic!("a digest-only session keeps no log"),
        }
    }

    /// The session's digest, replayed from the log when one was kept.
    pub(crate) fn into_digest(self) -> SessionDigest {
        match self {
            Recorder::Log(log) => SessionDigest::from_log(&log),
            Recorder::Digest(d, _) => d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kbps(k: u64) -> BitsPerSec {
        BitsPerSec::from_kbps(k)
    }

    fn sample(secs: u64, audio: u64, video: u64) -> BufferSample {
        BufferSample {
            at: Instant::from_secs(secs),
            audio: Duration::from_secs(audio),
            video: Duration::from_secs(video),
        }
    }

    #[test]
    fn empty_picks_report_nothing() {
        let picks = ChunkPicks::new(4);
        for media in [MediaType::Audio, MediaType::Video] {
            assert_eq!(picks.filled(media), 0);
            assert_eq!(picks.tracks(media).count(), 0);
            assert_eq!(picks.switch_count(media), 0);
            assert_eq!(picks.mean_avg_bitrate(media), None);
        }
        assert_eq!(picks.pairs().count(), 0);
    }

    #[test]
    fn a_repicked_chunk_fills_once_and_counts_twice_in_the_mean() {
        let mut picks = ChunkPicks::new(2);
        picks.record(0, TrackId::video(1), kbps(400));
        picks.record(0, TrackId::video(3), kbps(800));
        assert_eq!(picks.filled(MediaType::Video), 1);
        assert_eq!(picks.tracks(MediaType::Video).collect::<Vec<_>>(), [3]);
        assert_eq!(picks.mean_avg_bitrate(MediaType::Video), Some(kbps(600)));
        assert_eq!(picks.filled(MediaType::Audio), 0);
    }

    #[test]
    fn switches_compare_neighbouring_picked_chunks() {
        let mut picks = ChunkPicks::new(6);
        for (chunk, rung) in [(0, 0), (1, 0), (3, 2), (4, 2), (5, 1)] {
            picks.record(chunk, TrackId::audio(rung), kbps(64));
        }
        assert_eq!(
            picks.tracks(MediaType::Audio).collect::<Vec<_>>(),
            [0, 0, 2, 2, 1],
            "the unpicked chunk 2 is skipped"
        );
        assert_eq!(picks.switch_count(MediaType::Audio), 2);
    }

    #[test]
    fn pairs_need_both_media_at_a_position() {
        let mut picks = ChunkPicks::new(3);
        picks.record(0, TrackId::audio(0), kbps(64));
        picks.record(0, TrackId::video(0), kbps(300));
        picks.record(1, TrackId::video(1), kbps(900));
        picks.record(2, TrackId::audio(1), kbps(128));
        picks.record(2, TrackId::video(2), kbps(2_000));
        assert_eq!(
            picks.pairs().collect::<Vec<_>>(),
            [(kbps(64), kbps(300)), (kbps(128), kbps(2_000))]
        );
    }

    #[test]
    fn from_selections_replays_in_order() {
        let sel = |chunk, track, k| SelectionEvent {
            at: Instant::ZERO,
            chunk,
            track,
            declared: kbps(k),
            avg_bitrate: kbps(k),
        };
        let selections = [
            sel(0, TrackId::video(0), 300),
            sel(0, TrackId::video(2), 2_000),
            sel(1, TrackId::audio(1), 128),
        ];
        let mut by_hand = ChunkPicks::new(2);
        by_hand.record(0, TrackId::video(0), kbps(300));
        by_hand.record(0, TrackId::video(2), kbps(2_000));
        by_hand.record(1, TrackId::audio(1), kbps(128));
        assert_eq!(ChunkPicks::from_selections(2, &selections), by_hand);
    }

    #[test]
    fn buffer_imbalance_integrates_by_trapezoid() {
        // |a - v| goes 4 s -> 0 s over 2 s, then stays 0 for 2 s: the
        // integral is 4 s², the span 4 s, the mean 1 s.
        let stats =
            BufferStats::from_samples(&[sample(10, 4, 0), sample(12, 3, 3), sample(14, 5, 5)]);
        assert_eq!(stats.samples(), 3);
        assert_eq!(stats.mean_imbalance(), Duration::from_secs(1));
        assert_eq!(stats.max_imbalance(), Duration::from_secs(4));
    }

    #[test]
    fn imbalance_is_symmetric_in_the_media() {
        let audio_ahead = BufferStats::from_samples(&[sample(0, 6, 2), sample(1, 6, 2)]);
        let video_ahead = BufferStats::from_samples(&[sample(0, 2, 6), sample(1, 2, 6)]);
        for stats in [audio_ahead, video_ahead] {
            assert_eq!(stats.mean_imbalance(), Duration::from_secs(4));
            assert_eq!(stats.max_imbalance(), Duration::from_secs(4));
        }
    }

    #[test]
    fn a_single_sample_spans_no_time() {
        let stats = BufferStats::from_samples(&[sample(3, 8, 0)]);
        assert_eq!(stats.mean_imbalance(), Duration::ZERO);
        assert_eq!(stats.max_imbalance(), Duration::from_secs(8));
        assert_eq!(BufferStats::default().mean_imbalance(), Duration::ZERO);
    }

    #[test]
    fn session_end_closes_an_open_stall() {
        let mut d = SessionDigest::new("p", 1);
        let mut open = None;
        d.fold(Instant::from_secs(5), &Event::StallBegin, &mut open);
        d.fold(Instant::from_secs(7), &Event::StallEnd, &mut open);
        d.fold(Instant::from_secs(9), &Event::StallBegin, &mut open);
        assert_eq!(
            d.total_stall,
            Duration::from_secs(2),
            "only closed stall time"
        );
        d.fold(Instant::from_secs(12), &Event::SessionEnd, &mut open);
        assert_eq!(d.stall_count, 2);
        assert_eq!(d.total_stall, Duration::from_secs(5));
        assert_eq!(d.finished_at, Instant::from_secs(12));
        assert_eq!(open, None);
    }

    #[test]
    fn completed_needs_every_chunk_of_both_media_and_an_end() {
        let mut d = SessionDigest::new("p", 2);
        let mut open = None;
        let select = |chunk, track| Event::TrackSelected {
            chunk,
            track,
            declared: kbps(100),
            avg_bitrate: kbps(100),
        };
        for chunk in 0..2 {
            d.fold(Instant::ZERO, &select(chunk, TrackId::video(0)), &mut open);
        }
        d.fold(Instant::ZERO, &select(0, TrackId::audio(0)), &mut open);
        d.fold(Instant::from_secs(8), &Event::PlaybackEnded, &mut open);
        assert!(!d.completed(), "audio chunk 1 was never selected");
        d.fold(Instant::ZERO, &select(1, TrackId::audio(0)), &mut open);
        assert!(d.completed());
        assert!(
            !SessionDigest::new("p", 0).completed(),
            "no end, no completion"
        );
    }
}
