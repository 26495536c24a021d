//! Origin storage accounting: muxed versus demuxed packaging.
//!
//! §1 of the paper: with M video and N audio tracks, demuxed packaging
//! stores M + N tracks while muxed packaging stores all M × N pairings.
//! These functions compute the exact byte totals for a given content model,
//! powering the M1 motivation experiment.

use abr_media::combo::Combo;
use abr_media::content::Content;
use abr_media::track::TrackId;
use abr_media::units::Bytes;

/// Total origin bytes under demuxed packaging: every video track plus every
/// audio track, stored once.
pub fn demuxed_storage(content: &Content) -> Bytes {
    let video: Bytes = (0..content.video().len())
        .map(|i| content.track_bytes(TrackId::video(i)))
        .sum();
    let audio: Bytes = (0..content.audio().len())
        .map(|i| content.track_bytes(TrackId::audio(i)))
        .sum();
    video + audio
}

/// Total origin bytes under muxed packaging of the given combinations
/// (every listed pairing stored as its own track).
pub fn muxed_storage(content: &Content, combos: &[Combo]) -> Bytes {
    combos
        .iter()
        .map(|c| content.track_bytes(c.video_id()) + content.track_bytes(c.audio_id()))
        .sum()
}

/// Muxed storage for the *full* M×N pairing set.
pub fn muxed_storage_full(content: &Content) -> Bytes {
    let combos: Vec<Combo> = (0..content.video().len())
        .flat_map(|v| (0..content.audio().len()).map(move |a| Combo::new(v, a)))
        .collect();
    muxed_storage(content, &combos)
}

/// Total origin bytes under demuxed packaging with `languages` audio
/// languages (each language carries the full audio ladder; video is shared
/// across languages): `ΣV + L·ΣA` — §1's "services that need to have more
/// than one audio variant — e.g., to support multiple languages, or
/// multiple audio quality levels or both".
pub fn demuxed_storage_multilang(content: &Content, languages: usize) -> Bytes {
    assert!(languages >= 1);
    let video: Bytes = (0..content.video().len())
        .map(|i| content.track_bytes(TrackId::video(i)))
        .sum();
    let audio: Bytes = (0..content.audio().len())
        .map(|i| content.track_bytes(TrackId::audio(i)))
        .sum();
    Bytes(video.get() + audio.get() * languages as u64)
}

/// Total origin bytes under full muxed packaging with `languages` audio
/// languages: every (video rung, audio rung, language) triple is its own
/// stored track — `L·N·ΣV + M·L·ΣA`.
pub fn muxed_storage_multilang(content: &Content, languages: usize) -> Bytes {
    assert!(languages >= 1);
    let video: Bytes = (0..content.video().len())
        .map(|i| content.track_bytes(TrackId::video(i)))
        .sum();
    let audio: Bytes = (0..content.audio().len())
        .map(|i| content.track_bytes(TrackId::audio(i)))
        .sum();
    let n = content.audio().len() as u64;
    let m = content.video().len() as u64;
    Bytes(video.get() * n * languages as u64 + audio.get() * m * languages as u64)
}

/// Storage comparison summary for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageComparison {
    /// Bytes under demuxed (M + N) packaging.
    pub demuxed: Bytes,
    /// Bytes under full muxed (M × N) packaging.
    pub muxed: Bytes,
}

impl StorageComparison {
    /// Computes both totals.
    pub fn compute(content: &Content) -> StorageComparison {
        StorageComparison {
            demuxed: demuxed_storage(content),
            muxed: muxed_storage_full(content),
        }
    }

    /// muxed / demuxed expansion factor.
    pub fn expansion_factor(&self) -> f64 {
        self.muxed.get() as f64 / self.demuxed.get() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn muxed_storage_counts_only_the_listed_combinations() {
        let c = Content::drama_show(1);
        assert_eq!(muxed_storage(&c, &[]), Bytes::ZERO);
        let pair = Combo::new(2, 1);
        assert_eq!(
            muxed_storage(&c, &[pair]),
            c.track_bytes(TrackId::video(2)) + c.track_bytes(TrackId::audio(1))
        );
        assert!(muxed_storage(&c, &[pair, Combo::new(0, 0)]) < muxed_storage_full(&c));
    }

    #[test]
    #[should_panic(expected = "languages >= 1")]
    fn multilang_storage_needs_a_language() {
        let _ = demuxed_storage_multilang(&Content::drama_show(1), 0);
    }

    #[test]
    fn muxed_exceeds_demuxed() {
        let c = Content::drama_show(1);
        let cmp = StorageComparison::compute(&c);
        assert!(cmp.muxed > cmp.demuxed);
        // Every video track is stored N=3 times under muxing, every audio
        // track M=6 times: muxed = 3·ΣV + 6·ΣA.
        let sum_v: Bytes = (0..6).map(|i| c.track_bytes(TrackId::video(i))).sum();
        let sum_a: Bytes = (0..3).map(|i| c.track_bytes(TrackId::audio(i))).sum();
        assert_eq!(cmp.muxed, Bytes(3 * sum_v.get() + 6 * sum_a.get()));
        assert_eq!(cmp.demuxed, sum_v + sum_a);
        assert!(
            cmp.expansion_factor() > 2.9,
            "factor {}",
            cmp.expansion_factor()
        );
    }

    #[test]
    fn multilang_storage_scales_as_predicted() {
        let c = Content::drama_show(1);
        // One language reduces to the single-language formulas.
        assert_eq!(demuxed_storage_multilang(&c, 1), demuxed_storage(&c));
        assert_eq!(muxed_storage_multilang(&c, 1), muxed_storage_full(&c));
        // With L languages: demuxed grows by (L−1)·ΣA only; muxed by the
        // whole L factor.
        let sum_v: Bytes = (0..6).map(|i| c.track_bytes(TrackId::video(i))).sum();
        let sum_a: Bytes = (0..3).map(|i| c.track_bytes(TrackId::audio(i))).sum();
        for l in 2..=5usize {
            let d = demuxed_storage_multilang(&c, l);
            assert_eq!(d, Bytes(sum_v.get() + sum_a.get() * l as u64));
            let m = muxed_storage_multilang(&c, l);
            assert_eq!(m.get(), muxed_storage_full(&c).get() * l as u64);
            // The expansion factor grows with L (audio is the cheap part of
            // demuxed storage but multiplies everything under muxing).
            let factor = m.get() as f64 / d.get() as f64;
            let prev = muxed_storage_multilang(&c, l - 1).get() as f64
                / demuxed_storage_multilang(&c, l - 1).get() as f64;
            assert!(factor > prev, "expansion grows with languages");
        }
    }

    #[test]
    fn muxed_subset_costs_less_than_full() {
        let c = Content::drama_show(1);
        let subset = abr_media::combo::curated_subset(c.video(), c.audio());
        let sub = muxed_storage(&c, &subset);
        let full = muxed_storage_full(&c);
        assert!(sub < full);
        // The curated subset still duplicates audio across videos, so it
        // exceeds demuxed storage.
        assert!(sub > demuxed_storage(&c));
    }

    #[test]
    fn empty_combo_list_is_zero() {
        let c = Content::drama_show(1);
        assert_eq!(muxed_storage(&c, &[]), Bytes::ZERO);
    }
}
