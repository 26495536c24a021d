//! Bound manifest views — what a player actually knows.
//!
//! A player never sees `Content`; it sees a manifest. These views bind a
//! parsed manifest back to ladder indices (via this workspace's canonical
//! naming: representation ids / URIs carry "V3", "A1", audio groups carry
//! "aud-A2") and expose *exactly* the information each protocol provides:
//!
//! * [`BoundDash`] — per-track declared bitrates, **no combinations**;
//! * [`BoundHls`] — combinations with **aggregate bandwidths only**, plus
//!   the audio rendition listing order; per-track bitrates appear only
//!   after [`BoundHls::attach_derived_bitrates`], which models the §4.1
//!   recommendation of reading second-level playlists before adapting.

use crate::dash::Mpd;
use crate::hls::{DerivedBitrates, MasterPlaylist, MediaPlaylist};
use abr_media::combo::Combo;
use abr_media::track::MediaType;
use abr_media::units::BitsPerSec;

/// Extracts a track name like "V3" / "A1" from an id, URI or group id.
fn parse_track_name(s: &str) -> Option<(MediaType, usize)> {
    // Accept "V3", "A1", "aud-A2", "video/V3/playlist.m3u8", etc.: find the
    // last occurrence of [VA]<digits> delimited by non-alphanumerics.
    let bytes = s.as_bytes();
    let mut best = None;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if (c == b'V' || c == b'A')
            && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric())
            && i + 1 < bytes.len()
            && bytes[i + 1].is_ascii_digit()
        {
            let start = i + 1;
            let mut end = start;
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
            if end == bytes.len() || !bytes[end].is_ascii_alphanumeric() {
                let n: usize = s[start..end].parse().ok()?;
                if n >= 1 {
                    let media = if c == b'V' {
                        MediaType::Video
                    } else {
                        MediaType::Audio
                    };
                    best = Some((media, n - 1));
                }
            }
            i = end;
        } else {
            i += 1;
        }
    }
    best
}

/// A shared, immutable bound-DASH view handle (DESIGN.md §15): sweeps
/// round-trip one manifest per scenario and share the parsed view by
/// `Arc` across every policy built over it.
pub type SharedDash = std::sync::Arc<BoundDash>;

/// A shared, immutable bound-HLS view handle (see [`SharedDash`]).
pub type SharedHls = std::sync::Arc<BoundHls>;

/// What a DASH player knows after parsing the MPD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundDash {
    /// Declared bitrate of each video rung, ascending ladder order.
    pub video_declared: Vec<BitsPerSec>,
    /// Declared bitrate of each audio rung, ascending ladder order.
    pub audio_declared: Vec<BitsPerSec>,
    /// §4.1 extension: server-declared allowed combinations, when the MPD
    /// carries the proposed `SupplementalProperty` (DESIGN.md; standard
    /// DASH has no such mechanism and leaves this `None`).
    pub allowed_combos: Option<Vec<Combo>>,
}

impl BoundDash {
    /// Binds a parsed MPD. Fails when representation ids don't form
    /// complete `V1..Vm` / `A1..An` sets.
    pub fn from_mpd(mpd: &Mpd) -> Result<BoundDash, String> {
        let mut video: Vec<Option<BitsPerSec>> = Vec::new();
        let mut audio: Vec<Option<BitsPerSec>> = Vec::new();
        // A complete set of `m` rungs has `m` representations, so no rung
        // index reaches the document's count for its media.
        let declared = |media: MediaType| -> usize {
            mpd.adaptation_sets
                .iter()
                .filter(|a| a.content_type == media)
                .map(|a| a.representations.len())
                .sum()
        };
        let (video_reps, audio_reps) = (declared(MediaType::Video), declared(MediaType::Audio));
        for aset in &mpd.adaptation_sets {
            for rep in &aset.representations {
                let (media, idx) = parse_track_name(&rep.id)
                    .ok_or_else(|| format!("unparseable representation id `{}`", rep.id))?;
                if media != aset.content_type {
                    return Err(format!(
                        "representation `{}` in a {} adaptation set",
                        rep.id, aset.content_type
                    ));
                }
                let (slot, reps) = match media {
                    MediaType::Video => (&mut video, video_reps),
                    MediaType::Audio => (&mut audio, audio_reps),
                };
                if idx >= reps {
                    return Err(format!(
                        "representation `{}` beyond the document's {reps} {media} representations",
                        rep.id
                    ));
                }
                if slot.len() <= idx {
                    slot.resize(idx + 1, None);
                }
                if slot[idx].replace(rep.bandwidth).is_some() {
                    return Err(format!("duplicate representation `{}`", rep.id));
                }
            }
        }
        let unwrap_all =
            |v: Vec<Option<BitsPerSec>>, what: &str| -> Result<Vec<BitsPerSec>, String> {
                v.into_iter()
                    .enumerate()
                    .map(|(i, b)| b.ok_or(format!("missing {what} track {}", i + 1)))
                    .collect()
            };
        let allowed_combos = mpd
            .allowed_combinations
            .as_ref()
            .map(|pairs| {
                pairs
                    .iter()
                    .map(|(v, a)| {
                        let (vm, vi) = parse_track_name(v)
                            .filter(|(m, _)| *m == MediaType::Video)
                            .ok_or_else(|| format!("bad video id `{v}` in combinations"))?;
                        let (am, ai) = parse_track_name(a)
                            .filter(|(m, _)| *m == MediaType::Audio)
                            .ok_or_else(|| format!("bad audio id `{a}` in combinations"))?;
                        let _ = (vm, am);
                        Ok::<_, String>(Combo::new(vi, ai))
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .transpose()?;
        let out = BoundDash {
            video_declared: unwrap_all(video, "video")?,
            audio_declared: unwrap_all(audio, "audio")?,
            allowed_combos,
        };
        if out.video_declared.is_empty() || out.audio_declared.is_empty() {
            return Err("MPD lacks a video or audio adaptation set".to_string());
        }
        if let Some(combos) = &out.allowed_combos {
            if combos.is_empty() {
                return Err("allowed-combinations extension lists no combination".to_string());
            }
            for c in combos {
                if c.video >= out.video_declared.len() || c.audio >= out.audio_declared.len() {
                    return Err(format!("combination {c} references a missing track"));
                }
            }
        }
        Ok(out)
    }
}

/// One bound HLS variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundVariant {
    /// The audio+video combination this variant pairs.
    pub combo: Combo,
    /// Aggregate `BANDWIDTH` (peak sum).
    pub bandwidth: BitsPerSec,
    /// Aggregate `AVERAGE-BANDWIDTH`, when declared.
    pub average_bandwidth: Option<BitsPerSec>,
    /// §4.1 extension: the video component's own bitrate, when declared.
    pub video_bandwidth: Option<BitsPerSec>,
    /// §4.1 extension: the audio component's own bitrate, when declared.
    pub audio_bandwidth: Option<BitsPerSec>,
}

/// What an HLS player knows after parsing the master playlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundHls {
    /// Variants in master-playlist listing order.
    pub variants: Vec<BoundVariant>,
    /// Audio ladder indices in `EXT-X-MEDIA` listing order (first = the
    /// rendition ExoPlayer pins).
    pub audio_listing: Vec<usize>,
    /// Per-track video bitrates derived from second-level playlists
    /// (§4.1); `None` until attached.
    pub video_bitrates: Option<Vec<DerivedBitrates>>,
    /// Per-track audio bitrates derived from second-level playlists.
    pub audio_bitrates: Option<Vec<DerivedBitrates>>,
}

impl BoundHls {
    /// Binds a parsed master playlist.
    pub fn from_master(master: &MasterPlaylist) -> Result<BoundHls, String> {
        let mut group_to_audio = std::collections::BTreeMap::new();
        let mut audio_listing = Vec::new();
        for m in &master.media {
            let (media, idx) = parse_track_name(&m.group_id)
                .or_else(|| parse_track_name(&m.name))
                .ok_or_else(|| format!("unparseable audio group `{}`", m.group_id))?;
            if media != MediaType::Audio {
                return Err(format!("audio group `{}` names a video track", m.group_id));
            }
            if idx >= master.media.len() {
                return Err(format!(
                    "audio group `{}` beyond the playlist's {} renditions",
                    m.group_id,
                    master.media.len()
                ));
            }
            group_to_audio.insert(m.group_id.clone(), idx);
            audio_listing.push(idx);
        }
        let mut variants = Vec::with_capacity(master.variants.len());
        for v in &master.variants {
            let (media, vidx) = parse_track_name(&v.uri)
                .ok_or_else(|| format!("unparseable variant URI `{}`", v.uri))?;
            if media != MediaType::Video {
                return Err(format!("variant URI `{}` is not a video track", v.uri));
            }
            if vidx >= master.variants.len() {
                return Err(format!(
                    "variant URI `{}` beyond the playlist's {} variants",
                    v.uri,
                    master.variants.len()
                ));
            }
            let group = v
                .audio_group
                .as_ref()
                .ok_or_else(|| format!("variant `{}` lacks AUDIO", v.uri))?;
            let aidx = *group_to_audio
                .get(group)
                .ok_or_else(|| format!("variant references unknown audio group `{group}`"))?;
            variants.push(BoundVariant {
                combo: Combo::new(vidx, aidx),
                bandwidth: v.bandwidth,
                average_bandwidth: v.average_bandwidth,
                video_bandwidth: v.video_bandwidth,
                audio_bandwidth: v.audio_bandwidth,
            });
        }
        if variants.is_empty() {
            return Err("master playlist has no variants".to_string());
        }
        Ok(BoundHls {
            variants,
            audio_listing,
            video_bitrates: None,
            audio_bitrates: None,
        })
    }

    /// The combinations the manifest allows, in listing order.
    pub fn allowed_combos(&self) -> Vec<Combo> {
        self.variants.iter().map(|v| v.combo).collect()
    }

    /// Number of distinct video rungs referenced.
    pub fn video_count(&self) -> usize {
        self.variants
            .iter()
            .map(|v| v.combo.video)
            .max()
            .map_or(0, |m| m + 1)
    }

    /// Number of distinct audio rungs referenced (from the listing).
    pub fn audio_count(&self) -> usize {
        self.audio_listing
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m + 1)
    }

    /// The aggregate `BANDWIDTH` of the *first* variant whose video rung is
    /// `video` — ExoPlayer's (over)estimate of that video track's bitrate
    /// under HLS (§3.2 root cause).
    pub fn first_variant_bandwidth_for_video(&self, video: usize) -> Option<BitsPerSec> {
        self.variants
            .iter()
            .find(|v| v.combo.video == video)
            .map(|v| v.bandwidth)
    }

    /// Per-track peak bitrates from the §4.1 *master playlist* extension
    /// (`VIDEO-BANDWIDTH`/`AUDIO-BANDWIDTH`), indexed by ladder rung.
    /// `None` unless every rung is covered by at least one extended
    /// variant — i.e. unless the server adopted the proposal.
    pub fn extension_track_bitrates(&self) -> Option<(Vec<BitsPerSec>, Vec<BitsPerSec>)> {
        let mut video = vec![None; self.video_count()];
        let mut audio = vec![None; self.audio_count()];
        for v in &self.variants {
            if let Some(b) = v.video_bandwidth {
                video[v.combo.video] = Some(b);
            }
            if let Some(b) = v.audio_bandwidth {
                audio[v.combo.audio] = Some(b);
            }
        }
        Some((
            video.into_iter().collect::<Option<Vec<_>>>()?,
            audio.into_iter().collect::<Option<Vec<_>>>()?,
        ))
    }

    /// Implements the §4.1 client-side recommendation: derive per-track
    /// bitrates from the second-level playlists (indexed by ladder rung).
    /// Fails if any playlist lacks the byte-range/bitrate information.
    pub fn attach_derived_bitrates(
        &mut self,
        video_playlists: &[MediaPlaylist],
        audio_playlists: &[MediaPlaylist],
    ) -> Result<(), String> {
        let derive = |pls: &[MediaPlaylist], what: &str| -> Result<Vec<DerivedBitrates>, String> {
            pls.iter()
                .enumerate()
                .map(|(i, p)| {
                    p.derived_bitrates().ok_or(format!(
                        "{what} playlist {} lacks bitrate information",
                        i + 1
                    ))
                })
                .collect()
        };
        self.video_bitrates = Some(derive(video_playlists, "video")?);
        self.audio_bitrates = Some(derive(audio_playlists, "audio")?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_master_playlist, build_media_playlist, build_mpd, Packaging};
    use abr_media::combo::{all_combos, curated_subset};
    use abr_media::content::Content;
    use abr_media::track::TrackId;

    #[test]
    fn parse_track_name_variants() {
        assert_eq!(parse_track_name("V3"), Some((MediaType::Video, 2)));
        assert_eq!(parse_track_name("A1"), Some((MediaType::Audio, 0)));
        assert_eq!(parse_track_name("aud-A2"), Some((MediaType::Audio, 1)));
        assert_eq!(
            parse_track_name("video/V12/playlist.m3u8"),
            Some((MediaType::Video, 11))
        );
        assert_eq!(
            parse_track_name("audio/A3/seg-5.m4s"),
            Some((MediaType::Audio, 2))
        );
        assert_eq!(parse_track_name("nothing"), None);
        assert_eq!(parse_track_name("V0"), None, "track numbers are 1-based");
        assert_eq!(
            parse_track_name("NAVY"),
            None,
            "letters after digits break the match"
        );
    }

    #[test]
    fn bound_dash_from_built_mpd() {
        let c = Content::drama_show(1);
        let mpd = Mpd::parse(&build_mpd(&c).to_text()).unwrap();
        let b = BoundDash::from_mpd(&mpd).unwrap();
        let v: Vec<u64> = b.video_declared.iter().map(|x| x.kbps()).collect();
        assert_eq!(v, vec![111, 246, 473, 914, 1852, 3746]);
        let a: Vec<u64> = b.audio_declared.iter().map(|x| x.kbps()).collect();
        assert_eq!(a, vec![128, 196, 384]);
    }

    #[test]
    fn bound_hls_h_all() {
        let c = Content::drama_show(1);
        let combos = all_combos(c.video(), c.audio());
        let master =
            MasterPlaylist::parse(&build_master_playlist(&c, &combos, &[0, 1, 2]).to_text())
                .unwrap();
        let b = BoundHls::from_master(&master).unwrap();
        assert_eq!(b.variants.len(), 18);
        assert_eq!(b.allowed_combos(), combos);
        assert_eq!(b.audio_listing, vec![0, 1, 2]);
        assert_eq!(b.video_count(), 6);
        assert_eq!(b.audio_count(), 3);
        assert!(b.video_bitrates.is_none());
    }

    #[test]
    fn first_variant_bandwidth_overestimates() {
        // H_sub with A3 listed first: the only variant containing V5 is
        // V5+A3 at 2773 Kbps — ExoPlayer treats that as V5's bitrate even
        // though V5's real peak is 2382.
        let c = Content::drama_show(1);
        let combos = curated_subset(c.video(), c.audio());
        let b = BoundHls::from_master(&build_master_playlist(&c, &combos, &[2, 0, 1])).unwrap();
        assert_eq!(b.first_variant_bandwidth_for_video(4).unwrap().kbps(), 2773);
        assert_eq!(b.audio_listing[0], 2, "A3 listed first");
    }

    #[test]
    fn attach_derived_bitrates_roundtrip() {
        let c = Content::drama_show(1);
        let combos = curated_subset(c.video(), c.audio());
        let mut b = BoundHls::from_master(&build_master_playlist(&c, &combos, &[0, 1, 2])).unwrap();
        let vids: Vec<MediaPlaylist> = (0..6)
            .map(|i| build_media_playlist(&c, TrackId::video(i), Packaging::SingleFile))
            .collect();
        let auds: Vec<MediaPlaylist> = (0..3)
            .map(|i| build_media_playlist(&c, TrackId::audio(i), Packaging::SingleFile))
            .collect();
        b.attach_derived_bitrates(&vids, &auds).unwrap();
        let vb = b.video_bitrates.as_ref().unwrap();
        assert!(
            (vb[2].peak.kbps() as i64 - 641).abs() <= 1,
            "V3 derived peak"
        );
        let ab = b.audio_bitrates.as_ref().unwrap();
        assert!((ab[2].avg.kbps() as i64 - 384).abs() <= 1, "A3 derived avg");
    }

    #[test]
    fn attach_fails_on_lazy_packaging() {
        let c = Content::drama_show(1);
        let combos = curated_subset(c.video(), c.audio());
        let mut b = BoundHls::from_master(&build_master_playlist(&c, &combos, &[0, 1, 2])).unwrap();
        let lazy: Vec<MediaPlaylist> = (0..6)
            .map(|i| {
                build_media_playlist(
                    &c,
                    TrackId::video(i),
                    Packaging::SegmentFiles {
                        with_bitrate_tags: false,
                    },
                )
            })
            .collect();
        assert!(b.attach_derived_bitrates(&lazy, &[]).is_err());
    }

    #[test]
    fn bound_dash_rejects_gaps() {
        let c = Content::drama_show(1);
        let mut mpd = build_mpd(&c);
        mpd.adaptation_sets[0].representations.remove(2); // drop V3
        assert!(BoundDash::from_mpd(&mpd).is_err());
    }

    #[test]
    fn bound_dash_rejects_combination_naming_a_missing_track() {
        let c = Content::drama_show(1);
        let mut mpd = build_mpd(&c);
        mpd.allowed_combinations = Some(vec![("V1".into(), "A1".into())]);
        assert!(BoundDash::from_mpd(&mpd).is_ok());
        for (v, a) in [("V9", "A1"), ("V1", "A9")] {
            mpd.allowed_combinations = Some(vec![("V1".into(), "A1".into()), (v.into(), a.into())]);
            let err = BoundDash::from_mpd(&mpd).expect_err("combination names a missing track");
            assert!(err.contains("missing track"), "{v}+{a}: {err}");
        }
    }

    #[test]
    fn bound_hls_rejects_unknown_group() {
        let c = Content::drama_show(1);
        let combos = curated_subset(c.video(), c.audio());
        let mut master = build_master_playlist(&c, &combos, &[0, 1, 2]);
        master.variants[0].audio_group = Some("aud-A9".into());
        assert!(BoundHls::from_master(&master).is_err());
    }
}
