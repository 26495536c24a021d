//! Track descriptors.
//!
//! A *track* is one encoded rendition of either the audio or the video
//! component of a piece of content. Three bitrates describe it, mirroring
//! Table 1 of the paper:
//!
//! * **average** — mean bitrate over the whole clip,
//! * **peak** — maximum per-chunk bitrate,
//! * **declared** — what the manifest advertises (DASH `@bandwidth`).
//!   For VBR video this sits between average and peak (e.g. V3: 362 avg /
//!   641 peak / 473 declared); for near-CBR audio it equals the average.

use crate::units::BitsPerSec;
use core::fmt;

/// Which elementary stream a track carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MediaType {
    /// Sound.
    Audio,
    /// Pictures.
    Video,
}

impl MediaType {
    /// The other media type.
    pub fn other(self) -> MediaType {
        match self {
            MediaType::Audio => MediaType::Video,
            MediaType::Video => MediaType::Audio,
        }
    }

    /// Single-letter prefix used in track names ("A" / "V").
    pub fn prefix(self) -> &'static str {
        match self {
            MediaType::Audio => "A",
            MediaType::Video => "V",
        }
    }

    /// Both media types, audio first (iteration order used throughout).
    pub const ALL: [MediaType; 2] = [MediaType::Audio, MediaType::Video];
}

impl fmt::Display for MediaType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediaType::Audio => write!(f, "audio"),
            MediaType::Video => write!(f, "video"),
        }
    }
}

/// Identifies a track as (media type, 0-based index within its ladder).
///
/// Ladders are sorted by ascending declared bitrate, so index 0 is the
/// lowest-quality rendition. Display is 1-based to match the paper's
/// "V1..V6" / "A1..A3" naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackId {
    /// Audio or video.
    pub media: MediaType,
    /// 0-based rung within the ladder for that media type.
    pub index: usize,
}

impl TrackId {
    /// Convenience constructor for an audio track id.
    pub const fn audio(index: usize) -> TrackId {
        TrackId {
            media: MediaType::Audio,
            index,
        }
    }

    /// Convenience constructor for a video track id.
    pub const fn video(index: usize) -> TrackId {
        TrackId {
            media: MediaType::Video,
            index,
        }
    }
}

impl fmt::Display for TrackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.media.prefix(), self.index + 1)
    }
}

/// A set of track ids backed by one bitmask per media type.
///
/// Ladders in this workspace are tiny (Table 1 tops out at 6 video and
/// 3 audio rungs), so membership fits in two machine words — the arena
/// replacement for the `BTreeSet<TrackId>` the session engine used to
/// carry per session (DESIGN.md §15). Inserts panic beyond 64 rungs per
/// media type; no real ladder comes close.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackSet {
    audio: u64,
    video: u64,
}

impl TrackSet {
    /// The empty set.
    pub const fn new() -> TrackSet {
        TrackSet { audio: 0, video: 0 }
    }

    fn mask(id: TrackId) -> u64 {
        assert!(id.index < 64, "track ladder exceeds TrackSet capacity");
        1u64 << id.index
    }

    /// Adds a track id to the set.
    pub fn insert(&mut self, id: TrackId) {
        let m = Self::mask(id);
        match id.media {
            MediaType::Audio => self.audio |= m,
            MediaType::Video => self.video |= m,
        }
    }

    /// True if the id is in the set.
    pub fn contains(&self, id: TrackId) -> bool {
        let m = Self::mask(id);
        match id.media {
            MediaType::Audio => self.audio & m != 0,
            MediaType::Video => self.video & m != 0,
        }
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        (self.audio.count_ones() + self.video.count_ones()) as usize
    }

    /// True if no id is in the set.
    pub fn is_empty(&self) -> bool {
        self.audio == 0 && self.video == 0
    }
}

/// A small association table from [`TrackId`] to a value, kept sorted by
/// id in a flat vector.
///
/// Same arena rationale as [`TrackSet`]: a session maps at most a
/// handful of tracks (playlist transfer sizes), so a sorted `Vec` beats
/// a `BTreeMap`'s pointer-chasing and per-node allocation while keeping
/// the exact same deterministic iteration order (ascending `TrackId`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrackTable<V> {
    entries: Vec<(TrackId, V)>,
}

impl<V> TrackTable<V> {
    /// The empty table.
    pub const fn new() -> TrackTable<V> {
        TrackTable {
            entries: Vec::new(),
        }
    }

    /// Inserts or overwrites the value for `id`.
    pub fn insert(&mut self, id: TrackId, value: V) {
        match self.entries.binary_search_by_key(&id, |&(k, _)| k) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (id, value)),
        }
    }

    /// The value for `id`, if present.
    pub fn get(&self, id: TrackId) -> Option<&V> {
        self.entries
            .binary_search_by_key(&id, |&(k, _)| k)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Media-specific track metadata (the rightmost column of Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrackDetail {
    /// Video resolution.
    Video {
        /// Frame width in pixels.
        width: u32,
        /// Frame height in pixels.
        height: u32,
    },
    /// Audio channel layout and sampling rate.
    Audio {
        /// Number of channels (2 = stereo, 6 = 5.1).
        channels: u8,
        /// Sampling rate in Hz.
        sample_rate: u32,
    },
}

impl TrackDetail {
    /// The media type this detail belongs to.
    pub fn media(&self) -> MediaType {
        match self {
            TrackDetail::Video { .. } => MediaType::Video,
            TrackDetail::Audio { .. } => MediaType::Audio,
        }
    }

    /// Short human label: "360p" for video, "6ch/48kHz" for audio.
    pub fn label(&self) -> String {
        match self {
            TrackDetail::Video { height, .. } => format!("{height}p"),
            TrackDetail::Audio {
                channels,
                sample_rate,
            } => {
                format!("{channels}ch/{}kHz", sample_rate / 1000)
            }
        }
    }
}

/// A complete track descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackInfo {
    /// Identity (media type + ladder rung).
    pub id: TrackId,
    /// Mean bitrate over the clip.
    pub avg: BitsPerSec,
    /// Maximum per-chunk bitrate.
    pub peak: BitsPerSec,
    /// Bitrate advertised in the DASH manifest (`@bandwidth`).
    pub declared: BitsPerSec,
    /// Resolution / channel metadata.
    pub detail: TrackDetail,
}

impl TrackInfo {
    /// Builds a video track descriptor. Bitrates in Kbps, matching the
    /// paper's tables. Panics if `avg > peak` or `declared > peak`.
    pub fn video(
        index: usize,
        avg_kbps: u64,
        peak_kbps: u64,
        declared_kbps: u64,
        height: u32,
    ) -> Self {
        let t = TrackInfo {
            id: TrackId::video(index),
            avg: BitsPerSec::from_kbps(avg_kbps),
            peak: BitsPerSec::from_kbps(peak_kbps),
            declared: BitsPerSec::from_kbps(declared_kbps),
            detail: TrackDetail::Video {
                width: height * 16 / 9,
                height,
            },
        };
        t.validate();
        t
    }

    /// Builds an audio track descriptor. Bitrates in Kbps.
    pub fn audio(
        index: usize,
        avg_kbps: u64,
        peak_kbps: u64,
        declared_kbps: u64,
        channels: u8,
        sample_rate: u32,
    ) -> Self {
        let t = TrackInfo {
            id: TrackId::audio(index),
            avg: BitsPerSec::from_kbps(avg_kbps),
            peak: BitsPerSec::from_kbps(peak_kbps),
            declared: BitsPerSec::from_kbps(declared_kbps),
            detail: TrackDetail::Audio {
                channels,
                sample_rate,
            },
        };
        t.validate();
        t
    }

    fn validate(&self) {
        assert!(
            self.avg <= self.peak,
            "{}: avg {} > peak {}",
            self.id,
            self.avg,
            self.peak
        );
        assert!(
            self.declared <= self.peak,
            "{}: declared {} > peak {}",
            self.id,
            self.declared,
            self.peak
        );
        assert!(self.avg.bps() > 0, "{}: zero average bitrate", self.id);
        assert_eq!(
            self.detail.media(),
            self.id.media,
            "{}: detail/media mismatch",
            self.id
        );
    }

    /// Track name in the paper's notation ("V3", "A2").
    pub fn name(&self) -> String {
        self.id.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn media_type_other_and_prefix() {
        assert_eq!(MediaType::Audio.other(), MediaType::Video);
        assert_eq!(MediaType::Video.other(), MediaType::Audio);
        assert_eq!(MediaType::Audio.prefix(), "A");
        assert_eq!(MediaType::Video.prefix(), "V");
    }

    #[test]
    fn track_id_display_is_one_based() {
        assert_eq!(TrackId::video(2).to_string(), "V3");
        assert_eq!(TrackId::audio(0).to_string(), "A1");
    }

    #[test]
    fn video_constructor_fills_detail() {
        let v = TrackInfo::video(2, 362, 641, 473, 360);
        assert_eq!(v.name(), "V3");
        assert_eq!(v.detail.label(), "360p");
        assert_eq!(v.avg, BitsPerSec::from_kbps(362));
        assert_eq!(v.peak, BitsPerSec::from_kbps(641));
        assert_eq!(v.declared, BitsPerSec::from_kbps(473));
    }

    #[test]
    fn audio_constructor_fills_detail() {
        let a = TrackInfo::audio(1, 196, 199, 196, 6, 48_000);
        assert_eq!(a.name(), "A2");
        assert_eq!(a.detail.label(), "6ch/48kHz");
    }

    #[test]
    #[should_panic(expected = "avg")]
    fn rejects_avg_above_peak() {
        TrackInfo::video(0, 200, 100, 100, 144);
    }

    #[test]
    #[should_panic(expected = "declared")]
    fn rejects_declared_above_peak() {
        TrackInfo::video(0, 100, 120, 150, 144);
    }

    #[test]
    fn track_ids_order_within_media() {
        assert!(TrackId::video(0) < TrackId::video(1));
        assert!(TrackId::audio(2) < TrackId::video(0)); // audio sorts first
    }
}

/// Serialization (enabled by the `serde` feature): a [`MediaType`] is its
/// lowercase name, a [`TrackId`] an object `{"media": ..., "index": ...}`.
#[cfg(feature = "serde")]
mod serde_impls {
    use super::{MediaType, TrackId};
    use serde::{Deserialize, FromValueError, Map, Serialize, Value};

    impl Serialize for MediaType {
        fn to_value(&self) -> Value {
            Value::String(self.to_string())
        }
    }

    impl Deserialize for MediaType {
        fn from_value(v: &Value) -> Result<Self, FromValueError> {
            match v.as_str() {
                Some("audio") => Ok(MediaType::Audio),
                Some("video") => Ok(MediaType::Video),
                _ => Err(FromValueError::expected("\"audio\" or \"video\"", v)),
            }
        }
    }

    impl Serialize for TrackId {
        fn to_value(&self) -> Value {
            let mut map = Map::new();
            map.insert("media".to_string(), self.media.to_value());
            map.insert("index".to_string(), self.index.to_value());
            Value::Object(map)
        }
    }

    impl Deserialize for TrackId {
        fn from_value(v: &Value) -> Result<Self, FromValueError> {
            let media = MediaType::from_value(&v["media"])?;
            let index = usize::from_value(&v["index"])?;
            Ok(TrackId { media, index })
        }
    }
}
