//! # abr-qoe — quality-of-experience metrics
//!
//! Turns a session's [`abr_player::SessionDigest`] (streamed by the
//! session, or replayed from its [`abr_player::SessionLog`]) into the
//! quantities the paper argues about: rebuffering, selected quality,
//! track switching, audio/video buffer imbalance, and adherence to the
//! manifest's allowed combinations.
//! Also provides a composite linear QoE score in the style of Yin et al.
//! (the paper's reference \[25\]) extended with the audio component.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use abr_event::time::Duration;
use abr_media::combo::Combo;
use abr_media::track::MediaType;
use abr_media::units::BitsPerSec;
use abr_player::{SessionDigest, SessionLog};

/// Content-type weighting for the quality term (§2.1: "for music shows,
/// the sound quality may be relatively more important than video quality
/// ... for an action movie, the desirable combinations may be the
/// opposite"). Weights scale each component's bitrate before they are
/// summed into per-chunk quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentProfile {
    /// Multiplier on the video component (Mbps).
    pub video_weight: f64,
    /// Multiplier on the audio component (Mbps).
    pub audio_weight: f64,
}

impl ContentProfile {
    /// Equal weighting — the default, used when nothing is known about the
    /// content.
    pub const NEUTRAL: ContentProfile = ContentProfile {
        video_weight: 1.0,
        audio_weight: 1.0,
    };
    /// A concert or music show: audio bits count double.
    pub const MUSIC_SHOW: ContentProfile = ContentProfile {
        video_weight: 1.0,
        audio_weight: 2.0,
    };
    /// An action movie: video bits count double.
    pub const ACTION_MOVIE: ContentProfile = ContentProfile {
        video_weight: 2.0,
        audio_weight: 1.0,
    };
}

/// Composite QoE model weights, after Yin et al. \[25\]: per-chunk quality is
/// the combined audio+video average bitrate in Mbps; switches and stalls
/// subtract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QoeWeights {
    /// Penalty per Mbps of per-chunk quality change (λ).
    pub switch_penalty: f64,
    /// Penalty per second of rebuffering (μ). 4.3 in \[25\] for quality in
    /// Mbps.
    pub stall_penalty: f64,
    /// Penalty per second of startup delay (μ_s in \[25\], usually smaller).
    pub startup_penalty: f64,
}

impl Default for QoeWeights {
    fn default() -> Self {
        QoeWeights {
            switch_penalty: 1.0,
            stall_penalty: 4.3,
            startup_penalty: 1.0,
        }
    }
}

/// Everything QoE-relevant about one session.
#[derive(Debug, Clone, PartialEq)]
pub struct QoeSummary {
    /// Policy that produced the session.
    pub policy: String,
    /// Content played to the end with every chunk fetched.
    pub completed: bool,
    /// Request-to-first-frame delay.
    pub startup_delay: Option<Duration>,
    /// Number of rebuffering events.
    pub stall_count: usize,
    /// Total rebuffering time.
    pub total_stall: Duration,
    /// Stall time over total session wall time.
    pub rebuffer_ratio: f64,
    /// Mean selected video average-bitrate, Kbps.
    pub mean_video_kbps: u64,
    /// Mean selected audio average-bitrate, Kbps.
    pub mean_audio_kbps: u64,
    /// Video track switches.
    pub video_switches: usize,
    /// Audio track switches.
    pub audio_switches: usize,
    /// Time-averaged |audio − video| buffer difference.
    pub mean_imbalance: Duration,
    /// Maximum |audio − video| buffer difference.
    pub max_imbalance: Duration,
    /// Composite linear QoE score (higher is better).
    pub score: f64,
}

/// Computes the summary with default weights and neutral content.
pub fn summarize(log: &SessionLog) -> QoeSummary {
    summarize_weighted(log, QoeWeights::default())
}

/// Computes the summary with explicit weights and neutral content.
pub fn summarize_weighted(log: &SessionLog, w: QoeWeights) -> QoeSummary {
    summarize_for_content(log, w, ContentProfile::NEUTRAL)
}

/// Computes the summary with a §2.1 content-type profile weighting the
/// audio and video components of the quality term: the log replayed into
/// a [`SessionDigest`], then [`summarize_digest`].
pub fn summarize_for_content(
    log: &SessionLog,
    w: QoeWeights,
    profile: ContentProfile,
) -> QoeSummary {
    summarize_digest(&SessionDigest::from_log(log), w, profile)
}

/// Computes the summary from a session's QoE digest — the one
/// implementation behind every `summarize*` entry point, and what a fleet
/// session that keeps no log summarizes directly.
pub fn summarize_digest(d: &SessionDigest, w: QoeWeights, profile: ContentProfile) -> QoeSummary {
    let wall = d.finished_at.as_secs_f64().max(1e-9);
    let total_stall = d.total_stall;

    // Per-chunk combined quality (Mbps) for the score, in chunk order.
    let per_chunk_mbps = || d.picks.pairs().map(|p| chunk_quality(p, profile));
    let chunks = per_chunk_mbps().count().max(1) as f64;
    let quality = per_chunk_mbps().sum::<f64>() / chunks;
    let switching = per_chunk_mbps()
        .zip(per_chunk_mbps().skip(1))
        .map(|(q0, q1)| (q1 - q0).abs())
        .sum::<f64>()
        / chunks;
    let startup = d
        .startup_at
        .map(abr_event::Instant::as_secs_f64)
        .unwrap_or(wall);
    let score = quality
        - w.switch_penalty * switching
        - w.stall_penalty * total_stall.as_secs_f64() / (d.num_chunks as f64).max(1.0)
        - w.startup_penalty * startup / (d.num_chunks as f64).max(1.0);

    QoeSummary {
        policy: d.policy.clone(),
        completed: d.completed(),
        startup_delay: d
            .startup_at
            .map(|t| t.saturating_duration_since(abr_event::time::Instant::ZERO)),
        stall_count: d.stall_count,
        total_stall,
        rebuffer_ratio: total_stall.as_secs_f64() / wall,
        mean_video_kbps: d
            .picks
            .mean_avg_bitrate(MediaType::Video)
            .map_or(0, abr_media::BitsPerSec::kbps),
        mean_audio_kbps: d
            .picks
            .mean_avg_bitrate(MediaType::Audio)
            .map_or(0, abr_media::BitsPerSec::kbps),
        video_switches: d.picks.switch_count(MediaType::Video),
        audio_switches: d.picks.switch_count(MediaType::Audio),
        mean_imbalance: d.buffer.mean_imbalance(),
        max_imbalance: d.buffer.max_imbalance(),
        score,
    }
}

/// Weighted combined quality (Mbps) of one chunk's `(audio, video)`
/// average bitrates.
fn chunk_quality((audio, video): (BitsPerSec, BitsPerSec), profile: ContentProfile) -> f64 {
    (profile.audio_weight * audio.bps() as f64 + profile.video_weight * video.bps() as f64)
        / 1_000_000.0
}

/// Combined audio+video average bitrate (Mbps) selected for each chunk
/// position covered by both media types.
pub fn chunk_qualities(log: &SessionLog) -> Vec<f64> {
    chunk_qualities_weighted(log, ContentProfile::NEUTRAL)
}

/// [`chunk_qualities`] with a §2.1 content-type weighting.
pub fn chunk_qualities_weighted(log: &SessionLog, profile: ContentProfile) -> Vec<f64> {
    log.picks()
        .pairs()
        .map(|p| chunk_quality(p, profile))
        .collect()
}

/// The (video, audio) combination selected for each chunk position,
/// run-length encoded in playback order.
pub fn combos_used(log: &SessionLog) -> Vec<(Combo, usize)> {
    let audio = log.selected_tracks(MediaType::Audio);
    let video = log.selected_tracks(MediaType::Video);
    let n = audio.len().min(video.len());
    let mut out: Vec<(Combo, usize)> = Vec::new();
    for i in 0..n {
        let c = Combo::new(video[i], audio[i]);
        match out.last_mut() {
            Some((last, count)) if *last == c => *count += 1,
            _ => out.push((c, 1)),
        }
    }
    out
}

/// Distinct combinations used, in first-use order.
pub fn distinct_combos(log: &SessionLog) -> Vec<Combo> {
    let mut seen = Vec::new();
    for (c, _) in combos_used(log) {
        if !seen.contains(&c) {
            seen.push(c);
        }
    }
    seen
}

/// Chunks whose selected combination is not in `allowed` — the §3.2
/// "disobeying the manifest" measure.
pub fn off_manifest_chunks(log: &SessionLog, allowed: &[Combo]) -> usize {
    combos_used(log)
        .into_iter()
        .filter(|(c, _)| !allowed.contains(c))
        .map(|(_, n)| n)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_event::time::Instant;
    use abr_media::track::TrackId;
    use abr_player::log::{SelectionEvent, Stall};

    fn log_with(selections: Vec<SelectionEvent>, num_chunks: usize) -> SessionLog {
        SessionLog {
            policy: "test".into(),
            selections,
            transfers: vec![],
            buffer_samples: vec![],
            stalls: vec![],
            playlist_fetches: vec![],
            startup_at: Some(Instant::from_millis(500)),
            ended_at: Some(Instant::from_secs(12)),
            finished_at: Instant::from_secs(12),
            chunk_duration: Duration::from_secs(4),
            num_chunks,
        }
    }

    fn sel(chunk: usize, track: TrackId, kbps: u64) -> SelectionEvent {
        SelectionEvent {
            at: Instant::from_secs(chunk as u64),
            chunk,
            track,
            declared: BitsPerSec::from_kbps(kbps),
            avg_bitrate: BitsPerSec::from_kbps(kbps),
        }
    }

    fn three_chunk_log() -> SessionLog {
        log_with(
            vec![
                sel(0, TrackId::video(1), 246),
                sel(0, TrackId::audio(0), 128),
                sel(1, TrackId::video(1), 246),
                sel(1, TrackId::audio(1), 196),
                sel(2, TrackId::video(2), 362),
                sel(2, TrackId::audio(1), 196),
            ],
            3,
        )
    }

    #[test]
    fn combos_run_length() {
        let log = three_chunk_log();
        assert_eq!(
            combos_used(&log),
            vec![
                (Combo::new(1, 0), 1),
                (Combo::new(1, 1), 1),
                (Combo::new(2, 1), 1)
            ]
        );
        assert_eq!(
            distinct_combos(&log),
            vec![Combo::new(1, 0), Combo::new(1, 1), Combo::new(2, 1)]
        );
    }

    #[test]
    fn off_manifest_counts() {
        let log = three_chunk_log();
        let allowed = vec![Combo::new(1, 0), Combo::new(2, 1)];
        assert_eq!(off_manifest_chunks(&log, &allowed), 1);
        assert_eq!(off_manifest_chunks(&log, &[]), 3);
    }

    #[test]
    fn chunk_qualities_combined() {
        let log = three_chunk_log();
        let q = chunk_qualities(&log);
        assert_eq!(q.len(), 3);
        assert!((q[0] - 0.374).abs() < 1e-9);
        assert!((q[2] - 0.558).abs() < 1e-9);
    }

    #[test]
    fn summary_basics() {
        let mut log = three_chunk_log();
        log.stalls = vec![Stall {
            start: Instant::from_secs(5),
            end: Some(Instant::from_secs(7)),
        }];
        let s = summarize(&log);
        assert_eq!(s.stall_count, 1);
        assert_eq!(s.total_stall, Duration::from_secs(2));
        assert!((s.rebuffer_ratio - 2.0 / 12.0).abs() < 1e-9);
        assert_eq!(s.mean_video_kbps, 285); // (246+246+362)/3 rounded
        assert_eq!(s.mean_audio_kbps, 173); // (128+196+196)/3 rounded
        assert_eq!(s.video_switches, 1);
        assert_eq!(s.audio_switches, 1);
        assert!(s.completed);
        assert_eq!(s.startup_delay, Some(Duration::from_millis(500)));
    }

    #[test]
    fn stalls_reduce_score() {
        let clean = summarize(&three_chunk_log());
        let mut stalled_log = three_chunk_log();
        stalled_log.stalls = vec![Stall {
            start: Instant::from_secs(5),
            end: Some(Instant::from_secs(9)),
        }];
        let stalled = summarize(&stalled_log);
        assert!(stalled.score < clean.score);
    }

    #[test]
    fn switching_reduces_score() {
        let stable = log_with(
            vec![
                sel(0, TrackId::video(1), 246),
                sel(0, TrackId::audio(0), 128),
                sel(1, TrackId::video(1), 246),
                sel(1, TrackId::audio(0), 128),
            ],
            2,
        );
        let flappy = log_with(
            vec![
                sel(0, TrackId::video(0), 111),
                sel(0, TrackId::audio(0), 128),
                sel(1, TrackId::video(2), 381),
                sel(1, TrackId::audio(0), 128),
            ],
            2,
        );
        // Same mean quality (246 vs (111+381)/2) but flappy switches.
        let s_stable = summarize(&stable);
        let s_flappy = summarize(&flappy);
        assert!(s_stable.score > s_flappy.score);
    }

    #[test]
    fn content_profile_reweights_quality() {
        // Same log, different content types: the audio-heavy selection
        // scores better for a music show than for an action movie.
        let audio_heavy = log_with(
            vec![
                sel(0, TrackId::video(0), 111),
                sel(0, TrackId::audio(2), 384),
                sel(1, TrackId::video(0), 111),
                sel(1, TrackId::audio(2), 384),
            ],
            2,
        );
        let video_heavy = log_with(
            vec![
                sel(0, TrackId::video(2), 384),
                sel(0, TrackId::audio(0), 111),
                sel(1, TrackId::video(2), 384),
                sel(1, TrackId::audio(0), 111),
            ],
            2,
        );
        let w = QoeWeights::default();
        let music_a = summarize_for_content(&audio_heavy, w, ContentProfile::MUSIC_SHOW);
        let music_v = summarize_for_content(&video_heavy, w, ContentProfile::MUSIC_SHOW);
        assert!(
            music_a.score > music_v.score,
            "music favors the audio-heavy pick"
        );
        let action_a = summarize_for_content(&audio_heavy, w, ContentProfile::ACTION_MOVIE);
        let action_v = summarize_for_content(&video_heavy, w, ContentProfile::ACTION_MOVIE);
        assert!(
            action_v.score > action_a.score,
            "action favors the video-heavy pick"
        );
        // Neutral weighting ties them (identical total bitrate).
        let na = summarize(&audio_heavy);
        let nv = summarize(&video_heavy);
        assert!((na.score - nv.score).abs() < 1e-9);
    }

    #[test]
    fn incomplete_sessions_flagged() {
        let mut log = three_chunk_log();
        log.ended_at = None;
        assert!(!summarize(&log).completed);
    }
}
