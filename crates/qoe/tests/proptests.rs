//! Property-based tests for the QoE metrics.

use abr_event::time::{Duration, Instant};
use abr_media::combo::Combo;
use abr_media::track::{MediaType, TrackId};
use abr_media::units::BitsPerSec;
use abr_player::log::{BufferSample, SelectionEvent, SessionLog, Stall};
use abr_qoe::{
    chunk_qualities, chunk_qualities_weighted, combos_used, off_manifest_chunks, summarize,
    summarize_for_content, ContentProfile, QoeWeights,
};
use proptest::prelude::*;

/// Builds a synthetic log from per-chunk (video rung, audio rung) picks
/// and stall windows.
fn make_log(picks: &[(usize, usize)], stalls: &[(u64, u64)]) -> SessionLog {
    let mut selections = Vec::new();
    for (chunk, &(v, a)) in picks.iter().enumerate() {
        let vb = 100 + 200 * v as u64;
        let ab = 64 + 64 * a as u64;
        selections.push(SelectionEvent {
            at: Instant::from_secs(chunk as u64 * 4),
            chunk,
            track: TrackId::video(v),
            declared: BitsPerSec::from_kbps(vb),
            avg_bitrate: BitsPerSec::from_kbps(vb),
        });
        selections.push(SelectionEvent {
            at: Instant::from_secs(chunk as u64 * 4),
            chunk,
            track: TrackId::audio(a),
            declared: BitsPerSec::from_kbps(ab),
            avg_bitrate: BitsPerSec::from_kbps(ab),
        });
    }
    let finished = Instant::from_secs(picks.len() as u64 * 4 + 100);
    SessionLog {
        policy: "prop".into(),
        selections,
        transfers: vec![],
        buffer_samples: vec![
            BufferSample {
                at: Instant::ZERO,
                audio: Duration::ZERO,
                video: Duration::ZERO,
            },
            BufferSample {
                at: finished,
                audio: Duration::ZERO,
                video: Duration::ZERO,
            },
        ],
        stalls: stalls
            .iter()
            .map(|&(s, d)| Stall {
                start: Instant::from_secs(s),
                end: Some(Instant::from_secs(s + d)),
            })
            .collect(),
        playlist_fetches: vec![],
        startup_at: Some(Instant::from_millis(700)),
        ended_at: Some(finished),
        finished_at: finished,
        chunk_duration: Duration::from_secs(4),
        num_chunks: picks.len(),
    }
}

fn arb_picks() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..6, 0usize..3), 1..60)
}

proptest! {
    /// combos_used run-lengths sum to the chunk count and, flattened,
    /// reproduce the input pick sequence.
    #[test]
    fn combos_rle_roundtrip(picks in arb_picks()) {
        let log = make_log(&picks, &[]);
        let rle = combos_used(&log);
        let total: usize = rle.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(total, picks.len());
        let mut flat = Vec::new();
        for (c, n) in &rle {
            for _ in 0..*n {
                flat.push((c.video, c.audio));
            }
        }
        prop_assert_eq!(flat, picks);
        // RLE is maximal: no two consecutive runs share a combo.
        prop_assert!(rle.windows(2).all(|w| w[0].0 != w[1].0));
    }

    /// off_manifest_chunks is between 0 and the chunk count, zero against
    /// the full combination set and the full count against an empty set.
    #[test]
    fn off_manifest_bounds(picks in arb_picks()) {
        let log = make_log(&picks, &[]);
        let all: Vec<Combo> = (0..6)
            .flat_map(|v| (0..3).map(move |a| Combo::new(v, a)))
            .collect();
        prop_assert_eq!(off_manifest_chunks(&log, &all), 0);
        prop_assert_eq!(off_manifest_chunks(&log, &[]), picks.len());
        let some = &all[..6];
        let k = off_manifest_chunks(&log, some);
        prop_assert!(k <= picks.len());
    }

    /// More stall time never increases the score (everything else fixed).
    #[test]
    fn score_monotone_in_stalls(picks in arb_picks(), d1 in 0u64..30, d2 in 0u64..30) {
        let (lo, hi) = (d1.min(d2), d1.max(d2));
        let s_lo = summarize(&make_log(&picks, &[(10, lo)]));
        let s_hi = summarize(&make_log(&picks, &[(10, hi)]));
        prop_assert!(s_hi.score <= s_lo.score + 1e-9);
        prop_assert!(s_hi.total_stall >= s_lo.total_stall);
    }

    /// Content profiles: the weighted quality is a linear blend — scaling
    /// a profile scales the quality term exactly.
    #[test]
    fn profile_linearity(picks in arb_picks(), wv in 1u32..5, wa in 1u32..5) {
        let log = make_log(&picks, &[]);
        let base = chunk_qualities(&log);
        let weighted = chunk_qualities_weighted(
            &log,
            ContentProfile { video_weight: wv as f64, audio_weight: wa as f64 },
        );
        prop_assert_eq!(base.len(), weighted.len());
        for (chunk, (&(v, a), (&b, &w))) in
            picks.iter().zip(base.iter().zip(weighted.iter())).enumerate()
        {
            let vb = (100 + 200 * v as u64) as f64 / 1000.0;
            let ab = (64 + 64 * a as u64) as f64 / 1000.0;
            prop_assert!((b - (vb + ab)).abs() < 1e-9, "chunk {chunk} neutral");
            prop_assert!(
                (w - (wv as f64 * vb + wa as f64 * ab)).abs() < 1e-9,
                "chunk {chunk} weighted"
            );
        }
        // And the summary uses the weighted series.
        let s = summarize_for_content(
            &log,
            QoeWeights::default(),
            ContentProfile { video_weight: wv as f64, audio_weight: wa as f64 },
        );
        prop_assert!(s.score.is_finite());
    }

    /// Switch counts: between 0 and chunks−1 per media, and zero for a
    /// constant pick sequence.
    #[test]
    fn switch_count_bounds(picks in arb_picks()) {
        let log = make_log(&picks, &[]);
        let n = picks.len();
        for media in [MediaType::Audio, MediaType::Video] {
            let s = log.switch_count(media);
            prop_assert!(s <= n.saturating_sub(1));
        }
        let constant = make_log(&vec![(2, 1); n], &[]);
        prop_assert_eq!(constant.switch_count(MediaType::Video), 0);
        prop_assert_eq!(constant.switch_count(MediaType::Audio), 0);
    }
}
