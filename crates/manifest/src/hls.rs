//! HLS playlist models (RFC 8216 subset).
//!
//! * [`MasterPlaylist`] — `EXT-X-MEDIA` audio renditions plus
//!   `EXT-X-STREAM-INF` variants. Each variant pairs a video media playlist
//!   URI with an audio group and declares only the **aggregate**
//!   `BANDWIDTH` (sum of component peak bitrates) and `AVERAGE-BANDWIDTH`
//!   (sum of averages) — the Table 2/3 numbers. The order of `EXT-X-MEDIA`
//!   lines is semantically significant to ExoPlayer's HLS audio pinning
//!   (§3.2), so this model preserves it byte-for-byte.
//! * [`MediaPlaylist`] — second-level playlists with `EXTINF`, optional
//!   `EXT-X-BYTERANGE` (single-file packaging) and optional `EXT-X-BITRATE`
//!   (per-segment Kbps). §4.1's server-side recommendation is that players
//!   *should* derive per-track bitrates from these; [`MediaPlaylist::
//!   derived_bitrates`] implements exactly that derivation.

use abr_event::time::Duration;
use abr_media::units::{BitsPerSec, Bytes};
use core::fmt::Write as _;

/// An `EXT-X-MEDIA` audio rendition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MediaRendition {
    /// `GROUP-ID` — this workspace uses one group per audio track.
    pub group_id: String,
    /// `NAME` — human label ("A3").
    pub name: String,
    /// `URI` of the rendition's media playlist.
    pub uri: String,
    /// `DEFAULT=YES|NO`.
    pub default: bool,
    /// `LANGUAGE` (RFC 5646 tag) — §1's first motivation for demuxing is
    /// "to support multiple languages, or multiple audio quality levels or
    /// both".
    pub language: Option<String>,
}

/// An `EXT-X-STREAM-INF` variant: one audio+video combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariantStream {
    /// Aggregate peak bitrate (`BANDWIDTH`).
    pub bandwidth: BitsPerSec,
    /// Aggregate average bitrate (`AVERAGE-BANDWIDTH`).
    pub average_bandwidth: Option<BitsPerSec>,
    /// Video resolution (`RESOLUTION`).
    pub resolution: Option<(u32, u32)>,
    /// Audio group reference (`AUDIO`).
    pub audio_group: Option<String>,
    /// URI of the *video* media playlist.
    pub uri: String,
    /// §4.1 extension: the video component's own peak bitrate
    /// (`VIDEO-BANDWIDTH`, non-standard) — the paper's "more robust longer
    /// term solution is to enhance the HLS specification so that the
    /// top-level master playlist directly provides per-track ... bitrate
    /// information". `None` reproduces today's HLS.
    pub video_bandwidth: Option<BitsPerSec>,
    /// §4.1 extension: the audio component's own peak bitrate
    /// (`AUDIO-BANDWIDTH`, non-standard).
    pub audio_bandwidth: Option<BitsPerSec>,
}

/// A top-level master playlist.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MasterPlaylist {
    /// Audio renditions in listing order (order matters; see module docs).
    pub media: Vec<MediaRendition>,
    /// Variants in listing order.
    pub variants: Vec<VariantStream>,
}

impl MasterPlaylist {
    /// Serializes to M3U8 text.
    pub fn to_text(&self) -> String {
        let mut out =
            String::with_capacity(32 + 128 * self.media.len() + 192 * self.variants.len());
        out.push_str("#EXTM3U\n#EXT-X-VERSION:4\n");
        for m in &self.media {
            let default = if m.default { "YES" } else { "NO" };
            push_all(
                &mut out,
                &["#EXT-X-MEDIA:TYPE=AUDIO,GROUP-ID=\"", &m.group_id],
            );
            push_all(&mut out, &["\",NAME=\"", &m.name, "\",DEFAULT=", default]);
            if let Some(lang) = &m.language {
                push_all(&mut out, &[",LANGUAGE=\"", lang, "\""]);
            }
            push_all(&mut out, &[",URI=\"", &m.uri, "\"\n"]);
        }
        for v in &self.variants {
            let _ = write!(out, "#EXT-X-STREAM-INF:BANDWIDTH={}", v.bandwidth.bps());
            if let Some(avg) = v.average_bandwidth {
                let _ = write!(out, ",AVERAGE-BANDWIDTH={}", avg.bps());
            }
            if let Some((w, h)) = v.resolution {
                let _ = write!(out, ",RESOLUTION={w}x{h}");
            }
            if let Some(g) = &v.audio_group {
                push_all(&mut out, &[",AUDIO=\"", g, "\""]);
            }
            if let Some(vb) = v.video_bandwidth {
                let _ = write!(out, ",VIDEO-BANDWIDTH={}", vb.bps());
            }
            if let Some(ab) = v.audio_bandwidth {
                let _ = write!(out, ",AUDIO-BANDWIDTH={}", ab.bps());
            }
            push_all(&mut out, &["\n", &v.uri, "\n"]);
        }
        out
    }

    /// Parses M3U8 master playlist text.
    pub fn parse(text: &str) -> Result<MasterPlaylist, String> {
        let mut lines = text.lines().map(trim).filter(|l| !l.is_empty());
        if lines.next() != Some("#EXTM3U") {
            return Err("missing #EXTM3U header".to_string());
        }
        let mut pl = MasterPlaylist::default();
        let mut pending: Option<VariantStream> = None;
        let mut a = Vec::new();
        for line in lines {
            if let Some(attrs) = line.strip_prefix("#EXT-X-MEDIA:") {
                parse_attrs(attrs, &mut a)?;
                if attr(&a, "TYPE") != Some("AUDIO") {
                    continue; // subtitles etc. are out of scope
                }
                pl.media.push(MediaRendition {
                    group_id: req(&a, "GROUP-ID")?.to_string(),
                    name: req(&a, "NAME")?.to_string(),
                    uri: req(&a, "URI")?.to_string(),
                    default: attr(&a, "DEFAULT") == Some("YES"),
                    language: attr(&a, "LANGUAGE").map(str::to_string),
                });
            } else if let Some(attrs) = line.strip_prefix("#EXT-X-STREAM-INF:") {
                if pending.is_some() {
                    return Err("EXT-X-STREAM-INF without a following URI".to_string());
                }
                parse_attrs(attrs, &mut a)?;
                let bandwidth: u64 = req(&a, "BANDWIDTH")?
                    .parse()
                    .map_err(|e| format!("bad BANDWIDTH: {e}"))?;
                let opt_bw = |key: &str| -> Result<Option<BitsPerSec>, String> {
                    attr(&a, key)
                        .map(|s| {
                            s.parse::<u64>()
                                .map_err(|e| format!("bad {key}: {e}"))
                                .map(BitsPerSec)
                        })
                        .transpose()
                };
                let average_bandwidth = opt_bw("AVERAGE-BANDWIDTH")?;
                let resolution = attr(&a, "RESOLUTION")
                    .map(|s| {
                        let (w, h) = s.split_once('x').ok_or("bad RESOLUTION")?;
                        Ok::<_, String>((
                            w.parse().map_err(|_| "bad RESOLUTION width")?,
                            h.parse().map_err(|_| "bad RESOLUTION height")?,
                        ))
                    })
                    .transpose()?;
                pending = Some(VariantStream {
                    bandwidth: BitsPerSec(bandwidth),
                    average_bandwidth,
                    resolution,
                    audio_group: attr(&a, "AUDIO").map(str::to_string),
                    uri: String::new(),
                    video_bandwidth: opt_bw("VIDEO-BANDWIDTH")?,
                    audio_bandwidth: opt_bw("AUDIO-BANDWIDTH")?,
                });
            } else if line.starts_with('#') {
                // Unknown tag: ignore per RFC 8216 §6.3.1.
                continue;
            } else {
                match pending.take() {
                    Some(mut v) => {
                        v.uri = line.to_string();
                        pl.variants.push(v);
                    }
                    None => return Err(format!("unexpected URI line `{line}`")),
                }
            }
        }
        if pending.is_some() {
            return Err("EXT-X-STREAM-INF without a following URI".to_string());
        }
        Ok(pl)
    }

    /// Audio rendition group ids in listing order.
    pub fn audio_groups_in_order(&self) -> Vec<&str> {
        self.media.iter().map(|m| m.group_id.as_str()).collect()
    }
}

/// One segment entry in a media playlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// `EXTINF` duration.
    pub duration: Duration,
    /// Segment URI (or the single file's URI under byte-range packaging).
    pub uri: String,
    /// `EXT-X-BYTERANGE` as `(length, offset)`, for single-file packaging.
    pub byterange: Option<(Bytes, u64)>,
    /// `EXT-X-BITRATE` in Kbps, for per-file packaging.
    pub bitrate_kbps: Option<u64>,
}

impl SegmentEntry {
    /// The segment's bitrate if derivable from this entry alone: byte-range
    /// length over duration (none for a zero-length `EXTINF`), or the
    /// explicit `EXT-X-BITRATE` tag.
    pub fn derived_bitrate(&self) -> Option<BitsPerSec> {
        if let Some((len, _)) = self.byterange {
            let micros = self.duration.as_micros();
            return (micros > 0).then(|| len.rate_over_micros(micros));
        }
        self.bitrate_kbps.map(BitsPerSec::from_kbps)
    }
}

/// A second-level media playlist for one track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MediaPlaylist {
    /// `EXT-X-TARGETDURATION`.
    pub target_duration: Duration,
    /// Segment entries in playback order.
    pub segments: Vec<SegmentEntry>,
}

/// Per-track bitrates derived from a media playlist per §4.1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DerivedBitrates {
    /// Mean of per-segment bitrates weighted by duration.
    pub avg: BitsPerSec,
    /// Maximum per-segment bitrate.
    pub peak: BitsPerSec,
}

impl MediaPlaylist {
    /// Serializes to M3U8 text.
    pub fn to_text(&self) -> String {
        let uris: usize = self.segments.iter().map(|s| s.uri.len()).sum();
        let mut out = String::with_capacity(128 + uris + 64 * self.segments.len());
        let _ = write!(
            out,
            "#EXTM3U\n#EXT-X-VERSION:4\n#EXT-X-TARGETDURATION:{}\n#EXT-X-MEDIA-SEQUENCE:0\n",
            self.target_duration.as_secs_f64().ceil() as u64
        );
        // Segments share a duration, so `{:.3}` (the costly part) runs
        // once per distinct duration and the line is copied after that.
        let (mut extinf, mut extinf_of) = (String::new(), None);
        for s in &self.segments {
            if let Some(kbps) = s.bitrate_kbps {
                let _ = writeln!(out, "#EXT-X-BITRATE:{kbps}");
            }
            if extinf_of != Some(s.duration) {
                extinf.clear();
                let _ = writeln!(extinf, "#EXTINF:{:.3},", s.duration.as_secs_f64());
                extinf_of = Some(s.duration);
            }
            out.push_str(&extinf);
            if let Some((len, off)) = s.byterange {
                let _ = writeln!(out, "#EXT-X-BYTERANGE:{}@{off}", len.get());
            }
            out.push_str(&s.uri);
            out.push('\n');
        }
        out.push_str("#EXT-X-ENDLIST\n");
        out
    }

    /// Parses M3U8 media playlist text.
    pub fn parse(text: &str) -> Result<MediaPlaylist, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .peekable();
        if lines.next() != Some("#EXTM3U") {
            return Err("missing #EXTM3U header".to_string());
        }
        let mut target_duration = None;
        let mut segments = Vec::new();
        let mut cur_duration: Option<Duration> = None;
        let mut cur_byterange: Option<(Bytes, u64)> = None;
        let mut cur_bitrate: Option<u64> = None;
        for line in lines {
            if let Some(v) = line.strip_prefix("#EXT-X-TARGETDURATION:") {
                let secs = v.parse().map_err(|e| format!("bad TARGETDURATION: {e}"))?;
                target_duration = Some(
                    Duration::try_from_secs_f64(secs)
                        .map_err(|e| format!("bad TARGETDURATION: {e}"))?,
                );
            } else if let Some(v) = line.strip_prefix("#EXTINF:") {
                let num = v.trim_end_matches(',');
                let secs = num.parse().map_err(|e| format!("bad EXTINF: {e}"))?;
                cur_duration = Some(
                    Duration::try_from_secs_f64(secs).map_err(|e| format!("bad EXTINF: {e}"))?,
                );
            } else if let Some(v) = line.strip_prefix("#EXT-X-BYTERANGE:") {
                let (len, off) = v.split_once('@').ok_or("EXT-X-BYTERANGE missing offset")?;
                cur_byterange = Some((
                    Bytes(
                        len.parse()
                            .map_err(|e| format!("bad byterange length: {e}"))?,
                    ),
                    off.parse()
                        .map_err(|e| format!("bad byterange offset: {e}"))?,
                ));
            } else if let Some(v) = line.strip_prefix("#EXT-X-BITRATE:") {
                let kbps: u64 = v.parse().map_err(|e| format!("bad EXT-X-BITRATE: {e}"))?;
                // Whole bits per second must fit the rate type.
                kbps.checked_mul(1_000)
                    .ok_or_else(|| format!("EXT-X-BITRATE {kbps} out of range"))?;
                cur_bitrate = Some(kbps);
            } else if line == "#EXT-X-ENDLIST" {
                break;
            } else if line.starts_with('#') {
                continue;
            } else {
                let duration = cur_duration
                    .take()
                    .ok_or_else(|| format!("URI `{line}` without EXTINF"))?;
                segments.push(SegmentEntry {
                    duration,
                    uri: line.to_string(),
                    byterange: cur_byterange.take(),
                    bitrate_kbps: cur_bitrate.take(),
                });
            }
        }
        Ok(MediaPlaylist {
            target_duration: target_duration.ok_or("missing EXT-X-TARGETDURATION")?,
            segments,
        })
    }

    /// Total playlist duration.
    pub fn duration(&self) -> Duration {
        self.segments.iter().map(|s| s.duration).sum()
    }

    /// Derives the track's average and peak bitrates from byte ranges or
    /// `EXT-X-BITRATE` tags (§4.1). Returns `None` when any segment lacks
    /// the information — the situation §4.1 recommends servers eliminate.
    pub fn derived_bitrates(&self) -> Option<DerivedBitrates> {
        if self.segments.is_empty() {
            return None;
        }
        let mut total_bits: u128 = 0;
        let mut total_micros: u128 = 0;
        let mut peak = BitsPerSec::ZERO;
        for s in &self.segments {
            let rate = s.derived_bitrate()?;
            total_bits += rate.bps() as u128 * s.duration.as_micros() as u128;
            total_micros += s.duration.as_micros() as u128;
            peak = peak.max(rate);
        }
        if total_micros == 0 {
            return None;
        }
        Some(DerivedBitrates {
            avg: BitsPerSec((total_bits / total_micros) as u64),
            peak,
        })
    }
}

/// Parses an HLS attribute list, `KEY=value,KEY="quoted,value",...`,
/// into `out` as borrowed `(key, value)` pairs in listing order.
fn parse_attrs<'a>(s: &'a str, out: &mut Vec<(&'a str, &'a str)>) -> Result<(), String> {
    out.clear();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let key_start = i;
        while i < bytes.len() && bytes[i] != b'=' {
            i += 1;
        }
        if i == bytes.len() {
            return Err(format!("attribute without `=` in `{s}`"));
        }
        let key = trim(&s[key_start..i]);
        i += 1; // '='
        let value = if bytes.get(i) == Some(&b'"') {
            i += 1;
            let vs = i;
            while i < bytes.len() && bytes[i] != b'"' {
                i += 1;
            }
            if i == bytes.len() {
                return Err(format!("unterminated quoted value in `{s}`"));
            }
            i += 1; // closing quote
            &s[vs..i - 1]
        } else {
            let vs = i;
            while i < bytes.len() && bytes[i] != b',' {
                i += 1;
            }
            trim(&s[vs..i])
        };
        if key.is_empty() {
            return Err(format!("empty attribute key in `{s}`"));
        }
        out.push((key, value));
        if bytes.get(i) == Some(&b',') {
            i += 1;
        }
    }
    Ok(())
}

/// [`str::trim`], skipping the Unicode scan when both ends are printable
/// ASCII (every whitespace character starts and ends outside that range).
fn trim(s: &str) -> &str {
    let solid = |c: Option<&u8>| c.is_some_and(|&c| c > b' ' && c.is_ascii());
    if solid(s.as_bytes().first()) && solid(s.as_bytes().last()) {
        s
    } else {
        s.trim()
    }
}

fn push_all(out: &mut String, parts: &[&str]) {
    for part in parts {
        out.push_str(part);
    }
}

/// An attribute's value; a key listed twice resolves to its last value.
fn attr<'a>(a: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    a.iter().rev().find(|&&(k, _)| k == key).map(|&(_, v)| v)
}

fn req<'a>(a: &[(&str, &'a str)], key: &str) -> Result<&'a str, String> {
    attr(a, key).ok_or_else(|| format!("missing attribute {key}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_master() -> MasterPlaylist {
        MasterPlaylist {
            media: vec![
                MediaRendition {
                    group_id: "aud-A3".into(),
                    name: "A3".into(),
                    uri: "audio/A3/playlist.m3u8".into(),
                    default: true,
                    language: Some("en".into()),
                },
                MediaRendition {
                    group_id: "aud-A1".into(),
                    name: "A1".into(),
                    uri: "audio/A1/playlist.m3u8".into(),
                    default: false,
                    language: None,
                },
            ],
            variants: vec![
                VariantStream {
                    bandwidth: BitsPerSec::from_kbps(253),
                    average_bandwidth: Some(BitsPerSec::from_kbps(239)),
                    resolution: Some((256, 144)),
                    audio_group: Some("aud-A1".into()),
                    uri: "video/V1/playlist.m3u8".into(),
                    video_bandwidth: None,
                    audio_bandwidth: None,
                },
                VariantStream {
                    bandwidth: BitsPerSec::from_kbps(2773),
                    average_bandwidth: Some(BitsPerSec::from_kbps(1805)),
                    resolution: Some((1280, 720)),
                    audio_group: Some("aud-A3".into()),
                    uri: "video/V5/playlist.m3u8".into(),
                    video_bandwidth: None,
                    audio_bandwidth: None,
                },
            ],
        }
    }

    #[test]
    fn master_roundtrip() {
        let m = sample_master();
        let text = m.to_text();
        let back = MasterPlaylist::parse(&text).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn language_attribute_roundtrips() {
        let m = sample_master();
        let text = m.to_text();
        assert!(text.contains("LANGUAGE=\"en\""));
        let back = MasterPlaylist::parse(&text).unwrap();
        assert_eq!(back.media[0].language.as_deref(), Some("en"));
        assert_eq!(back.media[1].language, None);
    }

    #[test]
    fn master_text_shape() {
        let text = sample_master().to_text();
        assert!(text.starts_with("#EXTM3U\n"));
        assert!(
            text.contains("#EXT-X-MEDIA:TYPE=AUDIO,GROUP-ID=\"aud-A3\",NAME=\"A3\",DEFAULT=YES")
        );
        assert!(text.contains("#EXT-X-STREAM-INF:BANDWIDTH=253000,AVERAGE-BANDWIDTH=239000,RESOLUTION=256x144,AUDIO=\"aud-A1\""));
    }

    #[test]
    fn media_rendition_order_preserved() {
        // Fig 3's experiment depends on which audio is listed first.
        let m = sample_master();
        assert_eq!(m.audio_groups_in_order(), vec!["aud-A3", "aud-A1"]);
        let back = MasterPlaylist::parse(&m.to_text()).unwrap();
        assert_eq!(back.audio_groups_in_order(), vec!["aud-A3", "aud-A1"]);
    }

    #[test]
    fn per_track_bandwidth_extension_roundtrip() {
        let mut m = sample_master();
        m.variants[0].video_bandwidth = Some(BitsPerSec::from_kbps(119));
        m.variants[0].audio_bandwidth = Some(BitsPerSec::from_kbps(134));
        let text = m.to_text();
        assert!(text.contains("VIDEO-BANDWIDTH=119000"));
        assert!(text.contains("AUDIO-BANDWIDTH=134000"));
        let back = MasterPlaylist::parse(&text).unwrap();
        assert_eq!(m, back);
        // A variant without the extension parses to None.
        assert_eq!(back.variants[1].video_bandwidth, None);
    }

    #[test]
    fn master_parse_errors() {
        assert!(MasterPlaylist::parse("").is_err());
        assert!(MasterPlaylist::parse("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=1\n").is_err());
        assert!(MasterPlaylist::parse("#EXTM3U\nstray-uri\n").is_err());
        assert!(MasterPlaylist::parse("#EXTM3U\n#EXT-X-STREAM-INF:FOO=1\nu\n").is_err());
    }

    #[test]
    fn attr_parser_quoted_commas() {
        let mut a = Vec::new();
        parse_attrs(r#"A=1,B="x,y",C=2,A=3"#, &mut a).unwrap();
        assert_eq!(a, [("A", "1"), ("B", "x,y"), ("C", "2"), ("A", "3")]);
        assert_eq!(attr(&a, "A"), Some("3"), "last wins");
        assert!(parse_attrs("NOEQ", &mut a).is_err());
        assert!(parse_attrs(r#"A="unterminated"#, &mut a).is_err());
    }

    fn sample_media(byterange: bool) -> MediaPlaylist {
        MediaPlaylist {
            target_duration: Duration::from_secs(4),
            segments: (0..3)
                .map(|i| SegmentEntry {
                    duration: Duration::from_secs(4),
                    uri: if byterange {
                        "track.mp4".into()
                    } else {
                        format!("seg-{i}.m4s")
                    },
                    byterange: byterange.then(|| (Bytes(50_000 + i * 10_000), i * 100_000)),
                    bitrate_kbps: (!byterange).then(|| 100 + i * 20),
                })
                .collect(),
        }
    }

    #[test]
    fn media_roundtrip_byterange() {
        let m = sample_media(true);
        let back = MediaPlaylist::parse(&m.to_text()).unwrap();
        assert_eq!(m, back);
        assert_eq!(back.segments[1].byterange, Some((Bytes(60_000), 100_000)));
    }

    #[test]
    fn media_roundtrip_bitrate_tags() {
        let m = sample_media(false);
        let back = MediaPlaylist::parse(&m.to_text()).unwrap();
        assert_eq!(m, back);
        assert_eq!(back.segments[2].bitrate_kbps, Some(140));
    }

    #[test]
    fn derived_bitrates_from_byteranges() {
        let m = sample_media(true);
        let d = m.derived_bitrates().unwrap();
        // Sizes 50/60/70 KB over 4 s → rates 100/120/140 Kbps; avg 120.
        assert_eq!(d.avg, BitsPerSec::from_kbps(120));
        assert_eq!(d.peak, BitsPerSec::from_kbps(140));
    }

    #[test]
    fn derived_bitrates_from_tags() {
        let m = sample_media(false);
        let d = m.derived_bitrates().unwrap();
        assert_eq!(d.avg, BitsPerSec::from_kbps(120));
        assert_eq!(d.peak, BitsPerSec::from_kbps(140));
    }

    #[test]
    fn derived_bitrates_absent_when_info_missing() {
        let mut m = sample_media(false);
        m.segments[1].bitrate_kbps = None; // lazy packaging: no info
        assert_eq!(m.derived_bitrates(), None);
    }

    #[test]
    fn media_duration_sums() {
        assert_eq!(sample_media(true).duration(), Duration::from_secs(12));
    }

    #[test]
    fn media_parse_errors() {
        assert!(
            MediaPlaylist::parse("#EXTM3U\nseg.m4s\n").is_err(),
            "URI without EXTINF"
        );
        assert!(
            MediaPlaylist::parse("#EXTM3U\n#EXTINF:4,\nseg.m4s\n").is_err(),
            "missing target duration"
        );
    }

    #[test]
    fn media_parse_rejects_unrepresentable_durations() {
        let playlist = |target: &str, extinf: &str| {
            format!("#EXTM3U\n#EXT-X-TARGETDURATION:{target}\n#EXTINF:{extinf},\nseg.m4s\n")
        };
        assert!(MediaPlaylist::parse(&playlist("4", "4")).is_ok());
        for (target, extinf) in [
            ("4", "-1"),
            ("-4", "4"),
            ("4", "NaN"),
            ("inf", "4"),
            ("4", "1e300"),
        ] {
            assert!(
                MediaPlaylist::parse(&playlist(target, extinf)).is_err(),
                "TARGETDURATION {target}, EXTINF {extinf}"
            );
        }
    }
}
