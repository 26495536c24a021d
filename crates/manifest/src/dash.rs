//! DASH Media Presentation Description (MPD) model.
//!
//! Covers the subset of ISO/IEC 23009-1 that demuxed audio/video streaming
//! exercises: a static MPD with one Period, one AdaptationSet per media
//! type, per-Representation `@bandwidth` (the paper's "declared bitrate for
//! DASH", Table 1), and a SegmentTemplate. Deliberately absent — because
//! the standard itself lacks it, which is the §3.2 root cause — is any way
//! to declare *allowed audio+video combinations*.

use crate::xml;
use abr_event::time::Duration;
use abr_media::track::MediaType;
use abr_media::units::BitsPerSec;
use core::fmt;

/// The `@schemeIdUri` of this workspace's proposed allowed-combinations
/// descriptor — the §4.1 "longer term" DASH extension: *"the DASH
/// specification can be expanded to support this feature"*. Carried as a
/// standard `SupplementalProperty`, so conformant parsers that don't know
/// the scheme simply ignore it.
pub const COMBINATIONS_SCHEME: &str = "urn:abr-unmuxed:allowed-combinations:2019";

/// A static MPD: one Period holding the adaptation sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mpd {
    /// Total presentation duration.
    pub duration: Duration,
    /// `@minBufferTime`.
    pub min_buffer: Duration,
    /// Adaptation sets, one per media type for demuxed content.
    pub adaptation_sets: Vec<AdaptationSet>,
    /// §4.1 extension: the allowed audio+video combinations, as
    /// `(video Representation id, audio Representation id)` pairs. `None`
    /// reproduces the standard's limitation (no way to restrict
    /// combinations); `Some` models the proposed extension.
    pub allowed_combinations: Option<Vec<(String, String)>>,
}

/// One set of interchangeable Representations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptationSet {
    /// Audio or video.
    pub content_type: MediaType,
    /// Representations in manifest order.
    pub representations: Vec<Representation>,
}

/// One encoded rendition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Representation {
    /// `@id` — this workspace uses the paper's names ("V3", "A1").
    pub id: String,
    /// `@bandwidth` — the declared bitrate.
    pub bandwidth: BitsPerSec,
    /// `@width`/`@height` for video.
    pub resolution: Option<(u32, u32)>,
    /// `@audioSamplingRate` for audio.
    pub audio_sampling_rate: Option<u32>,
    /// Segment addressing.
    pub segment: SegmentTemplate,
}

/// `SegmentTemplate` with number-based addressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentTemplate {
    /// Media URL template containing `$Number$`.
    pub media: String,
    /// Per-segment duration.
    pub segment_duration: Duration,
    /// First segment number.
    pub start_number: u64,
}

impl Mpd {
    /// The adaptation set for a media type, if present.
    pub fn adaptation_set(&self, media: MediaType) -> Option<&AdaptationSet> {
        self.adaptation_sets
            .iter()
            .find(|a| a.content_type == media)
    }

    /// Serializes to MPD XML text.
    pub fn to_text(&self) -> String {
        let reps: usize = self
            .adaptation_sets
            .iter()
            .map(|a| a.representations.len())
            .sum();
        let mut w = xml::Writer::with_capacity(512 + 256 * reps);
        w.start("MPD")
            .attr("xmlns", "urn:mpeg:dash:schema:mpd:2011")
            .attr("type", "static")
            .attr("mediaPresentationDuration", Iso8601(self.duration))
            .attr("minBufferTime", Iso8601(self.min_buffer))
            .start("Period");
        if let Some(combos) = &self.allowed_combinations {
            w.start("SupplementalProperty")
                .attr("schemeIdUri", COMBINATIONS_SCHEME)
                .attr("value", Combinations(combos))
                .end("SupplementalProperty");
        }
        for aset in &self.adaptation_sets {
            let (content_type, mime_type) = match aset.content_type {
                MediaType::Audio => ("audio", "audio/mp4"),
                MediaType::Video => ("video", "video/mp4"),
            };
            w.start("AdaptationSet")
                .attr("contentType", content_type)
                .attr("mimeType", mime_type);
            for rep in &aset.representations {
                w.start("Representation")
                    .attr("id", &rep.id)
                    .attr("bandwidth", rep.bandwidth.bps());
                if let Some((width, height)) = rep.resolution {
                    w.attr("width", width).attr("height", height);
                }
                if let Some(sr) = rep.audio_sampling_rate {
                    w.attr("audioSamplingRate", sr);
                }
                w.start("SegmentTemplate")
                    .attr("media", &rep.segment.media)
                    .attr("duration", rep.segment.segment_duration.as_millis())
                    .attr("timescale", 1000)
                    .attr("startNumber", rep.segment.start_number)
                    .end("SegmentTemplate")
                    .end("Representation");
            }
            w.end("AdaptationSet");
        }
        w.end("Period").end("MPD");
        w.finish()
    }

    /// Parses MPD XML text.
    pub fn parse(text: &str) -> Result<Mpd, String> {
        let doc = xml::parse(text)?;
        let root = doc.root();
        if root.name() != "MPD" {
            return Err(format!("root element is `{}`, expected `MPD`", root.name()));
        }
        let duration = parse_iso8601(
            root.get_attr("mediaPresentationDuration")
                .ok_or("missing mediaPresentationDuration")?,
        )?;
        let min_buffer = parse_iso8601(root.get_attr("minBufferTime").unwrap_or("PT0S"))?;
        let period = root.first_child("Period").ok_or("missing Period")?;
        let mut allowed_combinations = None;
        for prop in period.children_named("SupplementalProperty") {
            if prop.get_attr("schemeIdUri") == Some(COMBINATIONS_SCHEME) {
                let value = prop.get_attr("value").unwrap_or("");
                let combos: Result<Vec<(String, String)>, String> = value
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|pair| {
                        pair.split_once('+')
                            .map(|(v, a)| (v.to_string(), a.to_string()))
                            .ok_or_else(|| format!("bad combination `{pair}`"))
                    })
                    .collect();
                allowed_combinations = Some(combos?);
            }
        }
        let mut adaptation_sets = Vec::new();
        for aset in period.children_named("AdaptationSet") {
            let content_type = match aset.get_attr("contentType") {
                Some("audio") => MediaType::Audio,
                Some("video") => MediaType::Video,
                other => return Err(format!("bad contentType {other:?}")),
            };
            let mut representations = Vec::new();
            for rep in aset.children_named("Representation") {
                let id = rep
                    .get_attr("id")
                    .ok_or("Representation missing id")?
                    .to_string();
                let bandwidth: u64 = rep
                    .get_attr("bandwidth")
                    .ok_or("Representation missing bandwidth")?
                    .parse()
                    .map_err(|e| format!("bad bandwidth: {e}"))?;
                let resolution = match (rep.get_attr("width"), rep.get_attr("height")) {
                    (Some(w), Some(h)) => Some((
                        w.parse().map_err(|e| format!("bad width: {e}"))?,
                        h.parse().map_err(|e| format!("bad height: {e}"))?,
                    )),
                    _ => None,
                };
                let audio_sampling_rate = rep
                    .get_attr("audioSamplingRate")
                    .map(|s| s.parse().map_err(|e| format!("bad audioSamplingRate: {e}")))
                    .transpose()?;
                let st = rep
                    .first_child("SegmentTemplate")
                    .ok_or("missing SegmentTemplate")?;
                let timescale: u64 = st
                    .get_attr("timescale")
                    .unwrap_or("1")
                    .parse()
                    .map_err(|e| format!("bad timescale: {e}"))?;
                let dur_units: u64 = st
                    .get_attr("duration")
                    .ok_or("SegmentTemplate missing duration")?
                    .parse()
                    .map_err(|e| format!("bad duration: {e}"))?;
                if timescale == 0 {
                    return Err("zero timescale".into());
                }
                let dur_micros = dur_units
                    .checked_mul(1_000_000)
                    .ok_or("SegmentTemplate duration out of range")?
                    / timescale;
                let segment = SegmentTemplate {
                    media: st
                        .get_attr("media")
                        .ok_or("SegmentTemplate missing media")?
                        .to_string(),
                    segment_duration: Duration::from_micros(dur_micros),
                    start_number: st
                        .get_attr("startNumber")
                        .unwrap_or("1")
                        .parse()
                        .map_err(|e| format!("bad startNumber: {e}"))?,
                };
                representations.push(Representation {
                    id,
                    bandwidth: BitsPerSec(bandwidth),
                    resolution,
                    audio_sampling_rate,
                    segment,
                });
            }
            adaptation_sets.push(AdaptationSet {
                content_type,
                representations,
            });
        }
        Ok(Mpd {
            duration,
            min_buffer,
            adaptation_sets,
            allowed_combinations,
        })
    }
}

/// Formats a duration as ISO 8601 (`PT12.5S` style).
struct Iso8601(Duration);

impl fmt::Display for Iso8601 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let micros = self.0.as_micros();
        if micros.is_multiple_of(1_000_000) {
            write!(f, "PT{}S", micros / 1_000_000)
        } else {
            write!(f, "PT{}S", self.0.as_secs_f64())
        }
    }
}

/// Formats allowed combinations as `V1+A1,V2+A1,...`.
struct Combinations<'a>(&'a [(String, String)]);

impl fmt::Display for Combinations<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (v, a)) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{v}+{a}")?;
        }
        Ok(())
    }
}

/// Parses the `PT[nH][nM][n[.n]S]` subset of ISO 8601 durations.
fn parse_iso8601(s: &str) -> Result<Duration, String> {
    let rest = s
        .strip_prefix("PT")
        .ok_or_else(|| format!("bad ISO duration `{s}`"))?;
    let mut total = 0.0f64;
    let mut num_start = 0;
    for (i, c) in rest.char_indices() {
        match c {
            '0'..='9' | '.' => {}
            'H' | 'M' | 'S' => {
                let v: f64 = rest[num_start..i]
                    .parse()
                    .map_err(|e| format!("bad ISO duration `{s}`: {e}"))?;
                total += v * match c {
                    'H' => 3600.0,
                    'M' => 60.0,
                    _ => 1.0,
                };
                num_start = i + 1;
            }
            _ => return Err(format!("bad ISO duration `{s}`")),
        }
    }
    if num_start < rest.len() {
        return Err(format!(
            "bad ISO duration `{s}`: trailing `{}`",
            &rest[num_start..]
        ));
    }
    Duration::try_from_secs_f64(total).map_err(|e| format!("bad ISO duration `{s}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Mpd {
        Mpd {
            duration: Duration::from_secs(300),
            min_buffer: Duration::from_secs(4),
            allowed_combinations: None,
            adaptation_sets: vec![
                AdaptationSet {
                    content_type: MediaType::Video,
                    representations: vec![Representation {
                        id: "V1".into(),
                        bandwidth: BitsPerSec::from_kbps(111),
                        resolution: Some((256, 144)),
                        audio_sampling_rate: None,
                        segment: SegmentTemplate {
                            media: "video/V1/seg-$Number$.m4s".into(),
                            segment_duration: Duration::from_secs(4),
                            start_number: 1,
                        },
                    }],
                },
                AdaptationSet {
                    content_type: MediaType::Audio,
                    representations: vec![Representation {
                        id: "A1".into(),
                        bandwidth: BitsPerSec::from_kbps(128),
                        resolution: None,
                        audio_sampling_rate: Some(44_000),
                        segment: SegmentTemplate {
                            media: "audio/A1/seg-$Number$.m4s".into(),
                            segment_duration: Duration::from_secs(4),
                            start_number: 1,
                        },
                    }],
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let mpd = sample();
        let text = mpd.to_text();
        let back = Mpd::parse(&text).unwrap();
        assert_eq!(mpd, back);
    }

    #[test]
    fn text_shape() {
        let text = sample().to_text();
        assert!(text.contains("urn:mpeg:dash:schema:mpd:2011"));
        assert!(text.contains("mediaPresentationDuration=\"PT300S\""));
        assert!(text.contains("bandwidth=\"111000\""));
        assert!(text.contains("contentType=\"video\""));
        assert!(text.contains("startNumber=\"1\""));
    }

    #[test]
    fn adaptation_set_lookup() {
        let mpd = sample();
        assert_eq!(
            mpd.adaptation_set(MediaType::Video)
                .unwrap()
                .representations[0]
                .id,
            "V1"
        );
        assert_eq!(
            mpd.adaptation_set(MediaType::Audio)
                .unwrap()
                .representations[0]
                .id,
            "A1"
        );
    }

    #[test]
    fn iso8601_roundtrip() {
        assert_eq!(Iso8601(Duration::from_secs(300)).to_string(), "PT300S");
        assert_eq!(Iso8601(Duration::from_millis(2500)).to_string(), "PT2.5S");
        assert_eq!(parse_iso8601("PT300S").unwrap(), Duration::from_secs(300));
        assert_eq!(parse_iso8601("PT5M").unwrap(), Duration::from_secs(300));
        assert_eq!(parse_iso8601("PT1H30M").unwrap(), Duration::from_secs(5400));
        assert_eq!(
            parse_iso8601("PT2.5S").unwrap(),
            Duration::from_millis(2500)
        );
        assert!(parse_iso8601("300").is_err());
        assert!(parse_iso8601("PT5").is_err());
    }

    #[test]
    fn parse_rejects_unrepresentable_presentation_duration() {
        let nines = "9".repeat(400);
        assert!(parse_iso8601(&format!("PT{nines}S")).is_err());
        let text = format!(
            r#"<MPD mediaPresentationDuration="PT{nines}S"><Period>
            <AdaptationSet contentType="video"><Representation id="V1" bandwidth="100000">
            <SegmentTemplate media="m" duration="4000" timescale="1000"/>
            </Representation></AdaptationSet></Period></MPD>"#
        );
        assert!(Mpd::parse(&text).is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Mpd::parse("<NotMpd/>").is_err());
        assert!(Mpd::parse("<MPD/>").is_err(), "missing duration");
        let no_bw = r#"<MPD mediaPresentationDuration="PT1S"><Period>
            <AdaptationSet contentType="video"><Representation id="V1">
            <SegmentTemplate media="x" duration="4000" timescale="1000"/>
            </Representation></AdaptationSet></Period></MPD>"#;
        assert!(Mpd::parse(no_bw).is_err());
    }

    #[test]
    fn combinations_extension_roundtrip() {
        let mut mpd = sample();
        mpd.allowed_combinations =
            Some(vec![("V1".into(), "A1".into()), ("V1".into(), "A2".into())]);
        let text = mpd.to_text();
        assert!(text.contains(COMBINATIONS_SCHEME));
        assert!(text.contains("value=\"V1+A1,V1+A2\""));
        let back = Mpd::parse(&text).unwrap();
        assert_eq!(back, mpd);
    }

    #[test]
    fn unknown_supplemental_properties_ignored() {
        let text = r#"<MPD mediaPresentationDuration="PT1S"><Period>
            <SupplementalProperty schemeIdUri="urn:other:thing" value="x"/>
            <AdaptationSet contentType="video"><Representation id="V1" bandwidth="100000">
            <SegmentTemplate media="m" duration="4000" timescale="1000"/>
            </Representation></AdaptationSet></Period></MPD>"#;
        let mpd = Mpd::parse(text).unwrap();
        assert_eq!(mpd.allowed_combinations, None);
    }

    #[test]
    fn malformed_combination_value_rejected() {
        let text = format!(
            r#"<MPD mediaPresentationDuration="PT1S"><Period>
            <SupplementalProperty schemeIdUri="{COMBINATIONS_SCHEME}" value="V1A1"/>
            <AdaptationSet contentType="video"><Representation id="V1" bandwidth="100000">
            <SegmentTemplate media="m" duration="4000" timescale="1000"/>
            </Representation></AdaptationSet></Period></MPD>"#
        );
        assert!(Mpd::parse(&text).is_err());
    }

    /// `<MPD>` around 100,000 nested elements (about 0.7 MB) once
    /// overflowed the XML reader's stack and aborted the process.
    #[test]
    fn hostile_nesting_is_an_error() {
        for depth in [1_000, 100_000] {
            let text = format!(
                r#"<MPD mediaPresentationDuration="PT1S">{}{}</MPD>"#,
                "<A>".repeat(depth),
                "</A>".repeat(depth)
            );
            let err = Mpd::parse(&text).unwrap_err();
            assert!(err.starts_with("element nested deeper than"), "{err}");
        }
    }

    #[test]
    fn timescale_conversion() {
        let text = r#"<MPD mediaPresentationDuration="PT8S" minBufferTime="PT1S"><Period>
            <AdaptationSet contentType="video"><Representation id="V1" bandwidth="100000">
            <SegmentTemplate media="m" duration="90000" timescale="22500" startNumber="1"/>
            </Representation></AdaptationSet></Period></MPD>"#;
        let mpd = Mpd::parse(text).unwrap();
        let rep = &mpd.adaptation_sets[0].representations[0];
        assert_eq!(rep.segment.segment_duration, Duration::from_secs(4));
    }
}
