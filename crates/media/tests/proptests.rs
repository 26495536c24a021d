//! Property-based tests: VBR calibration, combination algebra and the
//! staircase rule over arbitrary ladders.

use abr_event::rng::SplitMix64;
use abr_event::time::Duration;
use abr_media::combo::{all_combos, combo_bitrate, curated_subset, is_staircase, log_staircase};
use abr_media::ladder::Ladder;
use abr_media::track::{MediaType, TrackInfo};
use abr_media::units::{BitsPerSec, Bytes};
use abr_media::vbr::{chunk_sizes, measure, VbrParams};
use proptest::prelude::*;

/// An arbitrary strictly-ascending ladder of `n` declared bitrates.
fn arb_ladder(media: MediaType, max_rungs: usize) -> impl Strategy<Value = Ladder> {
    proptest::collection::vec(1u64..400, 1..=max_rungs).prop_map(move |increments| {
        let mut declared = Vec::new();
        let mut acc = 30u64;
        for inc in increments {
            acc += inc;
            declared.push(acc);
        }
        let tracks = declared
            .iter()
            .enumerate()
            .map(|(i, &kbps)| match media {
                MediaType::Video => TrackInfo::video(i, kbps, kbps * 2, kbps, 144),
                MediaType::Audio => TrackInfo::audio(i, kbps, kbps * 2, kbps, 2, 44_000),
            })
            .collect();
        Ladder::new(media, tracks)
    })
}

/// `all_combos` emits exactly M×N unique combinations sorted by aggregate
/// peak bitrate.
fn check_all_combos(video: &Ladder, audio: &Ladder) -> Result<(), String> {
    let combos = all_combos(video, audio);
    prop_assert_eq!(combos.len(), video.len() * audio.len());
    let unique: std::collections::BTreeSet<_> = combos.iter().collect();
    prop_assert_eq!(unique.len(), combos.len());
    let peaks: Vec<u64> = combos
        .iter()
        .map(|&c| combo_bitrate(video, audio, c).peak.bps())
        .collect();
    prop_assert!(peaks.windows(2).all(|w| w[0] <= w[1]));
    Ok(())
}

/// The curated subset covers every video rung exactly once with
/// non-decreasing audio rungs, and the top video rung pairs with the top
/// audio rung.
fn check_curated_subset(video: &Ladder, audio: &Ladder) -> Result<(), String> {
    let combos = curated_subset(video, audio);
    prop_assert_eq!(combos.len(), video.len());
    for (i, c) in combos.iter().enumerate() {
        prop_assert_eq!(c.video, i);
        prop_assert!(c.audio < audio.len());
    }
    prop_assert!(combos.windows(2).all(|w| w[0].audio <= w[1].audio));
    prop_assert_eq!(combos.last().unwrap().audio, audio.len() - 1);
    Ok(())
}

/// A case proptest once shrank to: one 31 Kbps video rung over two audio
/// rungs (31 and 32 Kbps).
#[test]
fn one_video_rung_over_two_audio_rungs() {
    let video = Ladder::new(MediaType::Video, vec![TrackInfo::video(0, 31, 62, 31, 144)]);
    let audio = Ladder::new(
        MediaType::Audio,
        vec![
            TrackInfo::audio(0, 31, 62, 31, 2, 44_000),
            TrackInfo::audio(1, 32, 64, 32, 2, 44_000),
        ],
    );
    check_all_combos(&video, &audio).unwrap();
    check_curated_subset(&video, &audio).unwrap();
}

proptest! {
    /// For any (avg ≤ peak ≤ n·avg/2) parameters, the synthesized chunk
    /// sizes realize the requested average and peak within 1 Kbps, all
    /// sizes are positive, and the sequence is seed-deterministic.
    #[test]
    fn vbr_calibration_holds(
        avg_kbps in 32u64..4000,
        peak_factor in 1u32..30, // peak = avg · (1 + f/10), capped below n·avg
        spread in 0u32..=90,
        n in 2usize..150,
        seed in any::<u64>(),
    ) {
        let avg = BitsPerSec::from_kbps(avg_kbps);
        let peak_kbps = (avg_kbps + avg_kbps * peak_factor as u64 / 10)
            .min(avg_kbps * n as u64 / 2);
        let peak = BitsPerSec::from_kbps(peak_kbps.max(avg_kbps));
        let params = VbrParams { avg, peak, spread: spread as f64 / 100.0 };
        let chunk = Duration::from_secs(4);
        let sizes = chunk_sizes(params, chunk, n, &mut SplitMix64::new(seed));
        prop_assert_eq!(sizes.len(), n);
        prop_assert!(sizes.iter().all(|s| s.get() > 0));
        let m = measure(&sizes, chunk);
        prop_assert!((m.avg.kbps() as i64 - avg.kbps() as i64).abs() <= 1,
            "avg {} vs {}", m.avg.kbps(), avg.kbps());
        prop_assert!((m.peak.kbps() as i64 - peak.kbps() as i64).abs() <= 1,
            "peak {} vs {}", m.peak.kbps(), peak.kbps());
        let again = chunk_sizes(params, chunk, n, &mut SplitMix64::new(seed));
        prop_assert_eq!(sizes, again);
    }

    /// The log staircase is always a valid staircase of length M+N−1 for
    /// arbitrary ladders, and every included combination pairs valid
    /// indices.
    #[test]
    fn staircase_invariants(
        video in arb_ladder(MediaType::Video, 10),
        audio in arb_ladder(MediaType::Audio, 6),
    ) {
        let combos = log_staircase(&video, &audio);
        prop_assert_eq!(combos.len(), video.len() + audio.len() - 1);
        prop_assert!(is_staircase(&combos, video.len(), audio.len()));
        // Aggregate declared bitrates ascend along the staircase.
        let bws: Vec<u64> = combos
            .iter()
            .map(|&c| combo_bitrate(&video, &audio, c).declared.bps())
            .collect();
        prop_assert!(bws.windows(2).all(|w| w[0] < w[1]), "monotone bandwidths: {:?}", bws);
    }

    /// `all_combos` emits exactly M×N unique combinations sorted by
    /// aggregate peak bitrate.
    #[test]
    fn all_combos_sorted_and_complete(
        video in arb_ladder(MediaType::Video, 8),
        audio in arb_ladder(MediaType::Audio, 5),
    ) {
        check_all_combos(&video, &audio)?;
    }

    /// The curated subset covers every video rung exactly once with
    /// non-decreasing audio rungs (low pairs with low).
    #[test]
    fn curated_subset_invariants(
        video in arb_ladder(MediaType::Video, 8),
        audio in arb_ladder(MediaType::Audio, 5),
    ) {
        check_curated_subset(&video, &audio)?;
    }

    /// Byte/rate conversions round-trip within rounding error for
    /// arbitrary rates and durations.
    #[test]
    fn unit_conversions_roundtrip(kbps in 1u64..100_000, ms in 1u64..3_600_000) {
        let rate = BitsPerSec::from_kbps(kbps);
        let micros = ms * 1000;
        let bytes = rate.bytes_in_micros(micros);
        if bytes > Bytes::ZERO {
            let back = bytes.rate_over_micros(micros);
            // Rounding to whole bytes costs at most 8 bits per duration.
            let tolerance = (8_000_000 / micros).max(1);
            prop_assert!(
                (back.bps() as i64 - rate.bps() as i64).unsigned_abs() <= tolerance,
                "{} vs {} (tol {tolerance})", back.bps(), rate.bps()
            );
        }
    }
}
