//! Builders: [`abr_media::Content`] → manifests.
//!
//! Plays the role of the paper's Bento4 packaging step (§3.1): given the
//! content model, emit the DASH MPD, the HLS master playlists (`H_all`,
//! `H_sub`, or any curated combination list in any listing order), and the
//! second-level media playlists under either packaging mode.

use crate::dash::{AdaptationSet, Mpd, Representation, SegmentTemplate};
use crate::hls::{MasterPlaylist, MediaPlaylist, MediaRendition, SegmentEntry, VariantStream};
use abr_media::combo::{combo_bitrate, Combo};
use abr_media::content::Content;
use abr_media::track::{MediaType, TrackDetail, TrackId};

/// How chunks are laid out on the server (HLS §4.1 distinction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Packaging {
    /// All chunks of a track in one file; playlists carry
    /// `EXT-X-BYTERANGE`, from which per-track bitrates are derivable.
    SingleFile,
    /// One file per chunk; per-track bitrates are derivable only when
    /// `with_bitrate_tags` adds the (optional in HLS) `EXT-X-BITRATE`.
    SegmentFiles {
        /// Emit `EXT-X-BITRATE` per segment.
        with_bitrate_tags: bool,
    },
}

/// Canonical media-playlist URI for a track.
pub fn playlist_uri(id: TrackId) -> String {
    format!("{}/{}/playlist.m3u8", id.media, id)
}

/// Canonical audio group id for an audio ladder index.
pub fn audio_group_id(audio_index: usize) -> String {
    format!("aud-A{}", audio_index + 1)
}

/// Builds the DASH MPD: one AdaptationSet per media type, per-track
/// declared `@bandwidth` — and, faithfully to the standard's limitation, no
/// combination information whatsoever.
pub fn build_mpd(content: &Content) -> Mpd {
    let make_set = |media: MediaType| -> AdaptationSet {
        let ladder = content.ladder(media);
        AdaptationSet {
            content_type: media,
            representations: ladder
                .iter()
                .map(|t| Representation {
                    id: t.name(),
                    bandwidth: t.declared,
                    resolution: match t.detail {
                        TrackDetail::Video { width, height } => Some((width, height)),
                        TrackDetail::Audio { .. } => None,
                    },
                    audio_sampling_rate: match t.detail {
                        TrackDetail::Audio { sample_rate, .. } => Some(sample_rate),
                        TrackDetail::Video { .. } => None,
                    },
                    segment: SegmentTemplate {
                        media: format!("{}/{}/seg-$Number$.m4s", t.id.media, t.id),
                        segment_duration: content.chunk_duration(),
                        start_number: 1,
                    },
                })
                .collect(),
        }
    };
    Mpd {
        duration: content.duration(),
        min_buffer: content.chunk_duration(),
        adaptation_sets: vec![make_set(MediaType::Video), make_set(MediaType::Audio)],
        allowed_combinations: None,
    }
}

/// Builds a DASH MPD carrying the §4.1 *proposed* allowed-combinations
/// extension (a `SupplementalProperty` on the Period) — what the paper
/// suggests the DASH specification should grow in the longer term.
pub fn build_mpd_with_combos(content: &Content, combos: &[Combo]) -> Mpd {
    assert!(!combos.is_empty(), "no combinations");
    let mut mpd = build_mpd(content);
    mpd.allowed_combinations = Some(
        combos
            .iter()
            .map(|c| (c.video_id().to_string(), c.audio_id().to_string()))
            .collect(),
    );
    mpd
}

/// Builds an HLS master playlist listing exactly `combos` (in the given
/// order) as variants, with audio renditions listed in `audio_order`
/// (ladder indices; the first entry is the one ExoPlayer pins, §3.2).
///
/// `BANDWIDTH` is the aggregate peak and `AVERAGE-BANDWIDTH` the aggregate
/// average of each combination — the Table 2/3 values.
pub fn build_master_playlist(
    content: &Content,
    combos: &[Combo],
    audio_order: &[usize],
) -> MasterPlaylist {
    assert!(!combos.is_empty(), "no combinations");
    let media: Vec<MediaRendition> = audio_order
        .iter()
        .enumerate()
        .map(|(pos, &a)| {
            let id = TrackId::audio(a);
            MediaRendition {
                group_id: audio_group_id(a),
                name: id.to_string(),
                uri: playlist_uri(id),
                default: pos == 0,
                language: None,
            }
        })
        .collect();
    // Each variant copies its video playlist's URI and its audio group's
    // id rather than formatting them again.
    let video_uris: Vec<String> = (0..content.video().len())
        .map(|v| playlist_uri(TrackId::video(v)))
        .collect();
    let variants = combos
        .iter()
        .map(|&c| {
            let audio = audio_order
                .iter()
                .position(|&a| a == c.audio)
                .expect("audio_order must cover every audio track referenced by a combination");
            let bits = combo_bitrate(content.video(), content.audio(), c);
            let v = content.video().get(c.video);
            VariantStream {
                bandwidth: bits.peak,
                average_bandwidth: Some(bits.avg),
                resolution: match v.detail {
                    TrackDetail::Video { width, height } => Some((width, height)),
                    TrackDetail::Audio { .. } => None,
                },
                audio_group: Some(media[audio].group_id.clone()),
                uri: video_uris[c.video].clone(),
                video_bandwidth: None,
                audio_bandwidth: None,
            }
        })
        .collect();
    MasterPlaylist { media, variants }
}

/// [`build_master_playlist`] plus the §4.1 per-track bitrate extension:
/// every variant also declares its video and audio components' own peak
/// bitrates (`VIDEO-BANDWIDTH` / `AUDIO-BANDWIDTH`) — the paper's proposed
/// "more robust longer term solution" for HLS.
pub fn build_master_playlist_ext(
    content: &Content,
    combos: &[Combo],
    audio_order: &[usize],
) -> MasterPlaylist {
    let mut master = build_master_playlist(content, combos, audio_order);
    for (variant, &combo) in master.variants.iter_mut().zip(combos) {
        variant.video_bandwidth = Some(content.video().get(combo.video).peak);
        variant.audio_bandwidth = Some(content.audio().get(combo.audio).peak);
    }
    master
}

/// Builds the second-level media playlist for one track.
pub fn build_media_playlist(content: &Content, id: TrackId, packaging: Packaging) -> MediaPlaylist {
    let chunk_dur = content.chunk_duration();
    let mut offset: u64 = 0;
    let segments = (0..content.num_chunks())
        .map(|i| {
            let size = content.chunk_size(id, i);
            let entry = match packaging {
                Packaging::SingleFile => {
                    let e = SegmentEntry {
                        duration: chunk_dur,
                        uri: format!("{}/{}/track.mp4", id.media, id),
                        byterange: Some((size, offset)),
                        bitrate_kbps: None,
                    };
                    offset += size.get();
                    e
                }
                Packaging::SegmentFiles { with_bitrate_tags } => SegmentEntry {
                    duration: chunk_dur,
                    uri: format!("{}/{}/seg-{}.m4s", id.media, id, i + 1),
                    byterange: None,
                    bitrate_kbps: with_bitrate_tags.then(|| content.chunk_bitrate(id, i).kbps()),
                },
            };
            entry
        })
        .collect();
    MediaPlaylist {
        target_duration: chunk_dur,
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_media::combo::{all_combos, curated_subset};
    use abr_media::units::BitsPerSec;

    #[test]
    fn mpd_carries_declared_bitrates() {
        let c = Content::drama_show(1);
        let mpd = build_mpd(&c);
        let video = mpd.adaptation_set(MediaType::Video).unwrap();
        let declared: Vec<u64> = video
            .representations
            .iter()
            .map(|r| r.bandwidth.kbps())
            .collect();
        assert_eq!(declared, vec![111, 246, 473, 914, 1852, 3746]);
        let audio = mpd.adaptation_set(MediaType::Audio).unwrap();
        assert_eq!(audio.representations.len(), 3);
        assert_eq!(audio.representations[2].id, "A3");
        // Text roundtrip survives.
        let back = Mpd::parse(&mpd.to_text()).unwrap();
        assert_eq!(mpd, back);
    }

    #[test]
    fn h_all_master_matches_table2() {
        let c = Content::drama_show(1);
        let combos = all_combos(c.video(), c.audio());
        let m = build_master_playlist(&c, &combos, &[0, 1, 2]);
        assert_eq!(m.variants.len(), 18);
        // First row of Table 2: V1+A1 at 253/239 Kbps.
        assert_eq!(m.variants[0].bandwidth, BitsPerSec::from_kbps(253));
        assert_eq!(
            m.variants[0].average_bandwidth,
            Some(BitsPerSec::from_kbps(239))
        );
        assert_eq!(m.variants[0].uri, "video/V1/playlist.m3u8");
        assert_eq!(m.variants[0].audio_group.as_deref(), Some("aud-A1"));
        // Last row: V6+A3 at 4838/3112.
        assert_eq!(m.variants[17].bandwidth, BitsPerSec::from_kbps(4838));
        assert_eq!(m.media.len(), 3);
    }

    #[test]
    fn h_sub_master_matches_table3() {
        let c = Content::drama_show(1);
        let combos = curated_subset(c.video(), c.audio());
        // Fig 3 experiment 1: A3 listed first.
        let m = build_master_playlist(&c, &combos, &[2, 0, 1]);
        assert_eq!(m.variants.len(), 6);
        assert_eq!(
            m.audio_groups_in_order(),
            vec!["aud-A3", "aud-A1", "aud-A2"]
        );
        assert!(m.media[0].default);
        let bw: Vec<u64> = m.variants.iter().map(|v| v.bandwidth.kbps()).collect();
        assert_eq!(bw, vec![253, 395, 840, 1389, 2773, 4838]);
        // Roundtrip.
        let back = MasterPlaylist::parse(&m.to_text()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    #[should_panic(expected = "audio_order must cover")]
    fn master_requires_complete_audio_order() {
        let c = Content::drama_show(1);
        let combos = curated_subset(c.video(), c.audio());
        build_master_playlist(&c, &combos, &[0, 1]); // A3 referenced but unlisted
    }

    #[test]
    fn media_playlist_single_file_byteranges_tile() {
        let c = Content::drama_show(1);
        let id = TrackId::video(2);
        let m = build_media_playlist(&c, id, Packaging::SingleFile);
        assert_eq!(m.segments.len(), 75);
        // Offsets tile contiguously.
        let mut expect = 0u64;
        for s in &m.segments {
            let (len, off) = s.byterange.unwrap();
            assert_eq!(off, expect);
            expect += len.get();
        }
        assert_eq!(expect, c.track_bytes(id).get());
        // Derived bitrates recover the track's Table 1 stats.
        let d = m.derived_bitrates().unwrap();
        assert!(
            (d.avg.kbps() as i64 - 362).abs() <= 1,
            "avg {}",
            d.avg.kbps()
        );
        assert!(
            (d.peak.kbps() as i64 - 641).abs() <= 1,
            "peak {}",
            d.peak.kbps()
        );
    }

    #[test]
    fn media_playlist_segment_files_with_tags() {
        let c = Content::drama_show(1);
        let id = TrackId::audio(2);
        let m = build_media_playlist(
            &c,
            id,
            Packaging::SegmentFiles {
                with_bitrate_tags: true,
            },
        );
        assert!(m
            .segments
            .iter()
            .all(|s| s.bitrate_kbps.is_some() && s.byterange.is_none()));
        let d = m.derived_bitrates().unwrap();
        assert!((d.avg.kbps() as i64 - 384).abs() <= 1);
        // Roundtrip.
        let back = MediaPlaylist::parse(&m.to_text()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn media_playlist_lazy_packaging_hides_bitrates() {
        let c = Content::drama_show(1);
        let m = build_media_playlist(
            &c,
            TrackId::video(0),
            Packaging::SegmentFiles {
                with_bitrate_tags: false,
            },
        );
        assert_eq!(m.derived_bitrates(), None);
    }
}
