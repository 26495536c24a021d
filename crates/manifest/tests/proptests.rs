//! Property-based tests: manifest round trips over arbitrary ladders and
//! combination sets, and hostile edits of the same documents.

#[path = "support/mutate.rs"]
mod mutate;

use abr_event::time::Duration;
use abr_manifest::build::{
    build_master_playlist, build_master_playlist_ext, build_media_playlist, build_mpd,
    build_mpd_with_combos, Packaging,
};
use abr_manifest::view::{BoundDash, BoundHls};
use abr_manifest::{MasterPlaylist, MediaPlaylist, Mpd};
use abr_media::combo::Combo;
use abr_media::content::Content;
use abr_media::ladder::Ladder;
use abr_media::track::{MediaType, TrackId, TrackInfo};
use mutate::mutate;
use proptest::prelude::*;

/// Arbitrary content: random strictly-ascending ladders, modest chunk
/// counts (content synthesis is cheap but not free).
fn arb_content() -> impl Strategy<Value = Content> {
    (
        proptest::collection::vec(1u64..400, 1..7),
        proptest::collection::vec(1u64..200, 1..4),
        3usize..20, // ≥3 so a 2×avg peak chunk stays below the clip total
        any::<u64>(),
    )
        .prop_map(|(vinc, ainc, chunks, seed)| {
            let mut acc = 50u64;
            let video: Vec<TrackInfo> = vinc
                .iter()
                .enumerate()
                .map(|(i, inc)| {
                    acc += inc;
                    TrackInfo::video(i, acc, acc * 2, acc, 144)
                })
                .collect();
            let mut acc = 24u64;
            let audio: Vec<TrackInfo> = ainc
                .iter()
                .enumerate()
                .map(|(i, inc)| {
                    acc += inc;
                    TrackInfo::audio(i, acc, acc * 2, acc, 2, 44_000)
                })
                .collect();
            Content::new(
                Ladder::new(MediaType::Video, video),
                Ladder::new(MediaType::Audio, audio),
                Duration::from_secs(4),
                chunks,
                seed,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MPD text round trip preserves everything, including the §4.1
    /// combinations extension, and binds to the same declared bitrates.
    #[test]
    fn mpd_roundtrip_arbitrary(content in arb_content(), with_ext in any::<bool>()) {
        let combos: Vec<Combo> =
            abr_media::combo::curated_subset(content.video(), content.audio());
        let mpd = if with_ext {
            build_mpd_with_combos(&content, &combos)
        } else {
            build_mpd(&content)
        };
        let back = Mpd::parse(&mpd.to_text()).unwrap();
        prop_assert_eq!(&back, &mpd);
        let view = BoundDash::from_mpd(&back).unwrap();
        prop_assert_eq!(view.video_declared.len(), content.video().len());
        prop_assert_eq!(view.audio_declared.len(), content.audio().len());
        for (i, b) in view.video_declared.iter().enumerate() {
            prop_assert_eq!(*b, content.video().get(i).declared);
        }
        if with_ext {
            prop_assert_eq!(view.allowed_combos.as_deref(), Some(combos.as_slice()));
        } else {
            prop_assert_eq!(view.allowed_combos, None);
        }
    }

    /// HLS master round trip preserves variants (with and without the
    /// per-track extension) and binds to the same combination list.
    #[test]
    fn master_roundtrip_arbitrary(content in arb_content(), with_ext in any::<bool>()) {
        let combos = abr_media::combo::all_combos(content.video(), content.audio());
        let order: Vec<usize> = (0..content.audio().len()).collect();
        let master = if with_ext {
            build_master_playlist_ext(&content, &combos, &order)
        } else {
            build_master_playlist(&content, &combos, &order)
        };
        let back = MasterPlaylist::parse(&master.to_text()).unwrap();
        prop_assert_eq!(&back, &master);
        let view = BoundHls::from_master(&back).unwrap();
        prop_assert_eq!(view.allowed_combos(), combos);
        if with_ext {
            let (v, a) = view.extension_track_bitrates().expect("extension present");
            for (i, b) in v.iter().enumerate() {
                prop_assert_eq!(*b, content.video().get(i).peak);
            }
            prop_assert_eq!(a.len(), content.audio().len());
        } else {
            prop_assert_eq!(view.extension_track_bitrates(), None);
        }
    }

    /// Media playlists round trip under both packaging modes, and the
    /// derived bitrates match the track's measured statistics.
    #[test]
    fn media_playlist_roundtrip_arbitrary(
        content in arb_content(),
        single_file in any::<bool>(),
    ) {
        let packaging = if single_file {
            Packaging::SingleFile
        } else {
            Packaging::SegmentFiles { with_bitrate_tags: true }
        };
        for &id in content.track_ids() {
            let pl = build_media_playlist(&content, id, packaging);
            let back = MediaPlaylist::parse(&pl.to_text()).unwrap();
            prop_assert_eq!(&back, &pl);
            prop_assert_eq!(back.segments.len(), content.num_chunks());
            prop_assert_eq!(back.duration(), content.duration());
            let derived = back.derived_bitrates().expect("information present");
            let track = content.track(id);
            // Byte ranges are exact; EXT-X-BITRATE rounds to whole Kbps, so
            // allow 1 Kbps per segment of drift on the average.
            let tol: i64 = if single_file { 1 } else { 2 };
            prop_assert!(
                (derived.avg.kbps() as i64 - track.avg.kbps() as i64).abs() <= tol,
                "derived avg {} vs track {}", derived.avg.kbps(), track.avg.kbps()
            );
        }
    }

    /// Byte ranges tile every track file exactly.
    #[test]
    fn byteranges_tile(content in arb_content()) {
        for &id in content.track_ids() {
            let pl = build_media_playlist(&content, id, Packaging::SingleFile);
            let mut offset = 0u64;
            for seg in &pl.segments {
                let (len, off) = seg.byterange.expect("single-file packaging");
                prop_assert_eq!(off, offset);
                offset += len.get();
            }
            prop_assert_eq!(offset, content.track_bytes(id).get());
        }
        let _ = TrackId::video(0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile edits of well-formed documents — truncation, byte flips,
    /// duplicated or dropped lines, hostile numbers, stray quotes and
    /// commas — make parse → bind → derive answer with an error or a
    /// value, never a panic.
    #[test]
    fn hostile_manifests_never_panic(
        content in arb_content(),
        edits in proptest::collection::vec((0u8..6, any::<usize>()), 1..4),
        single_file in any::<bool>(),
    ) {
        let hostile = |doc: String| edits.iter().fold(doc, |t, &(kind, pick)| mutate(&t, kind, pick));
        let combos = abr_media::combo::curated_subset(content.video(), content.audio());
        if let Ok(mpd) = Mpd::parse(&hostile(build_mpd_with_combos(&content, &combos).to_text())) {
            let _ = BoundDash::from_mpd(&mpd);
        }
        let combos = abr_media::combo::all_combos(content.video(), content.audio());
        let order: Vec<usize> = (0..content.audio().len()).collect();
        let master = build_master_playlist_ext(&content, &combos, &order).to_text();
        if let Ok(master) = MasterPlaylist::parse(&hostile(master)) {
            if let Ok(view) = BoundHls::from_master(&master) {
                let _ = view.extension_track_bitrates();
                let _ = view.allowed_combos();
            }
        }
        let packaging = if single_file {
            Packaging::SingleFile
        } else {
            Packaging::SegmentFiles { with_bitrate_tags: true }
        };
        for &id in content.track_ids() {
            let playlist = build_media_playlist(&content, id, packaging).to_text();
            if let Ok(playlist) = MediaPlaylist::parse(&hostile(playlist)) {
                let _ = playlist.derived_bitrates();
            }
        }
    }
}

/// The text of the drama show's MPD and master playlist.
fn drama_docs() -> (String, String) {
    let content = Content::drama_show(2019);
    let combos = abr_media::combo::all_combos(content.video(), content.audio());
    let order: Vec<usize> = (0..content.audio().len()).collect();
    (
        build_mpd(&content).to_text(),
        build_master_playlist(&content, &combos, &order).to_text(),
    )
}

/// A representation id far beyond the ladder once asked `from_mpd` for a
/// `u64::MAX`-slot table (capacity overflow) or an 80 GB one (abort).
#[test]
fn dash_rung_beyond_the_representations_is_an_error() {
    let (mpd, _) = drama_docs();
    for id in ["V18446744073709551615", "V5000000000", "A5000000000"] {
        let from = if id.starts_with('V') {
            "id=\"V1\""
        } else {
            "id=\"A1\""
        };
        let text = mpd.replacen(from, &format!("id=\"{id}\""), 1);
        let parsed = Mpd::parse(&text).expect("still well-formed XML");
        assert!(BoundDash::from_mpd(&parsed).is_err(), "{id} must not bind");
    }
}

/// A variant URI naming rung 2⁶⁴ − 1 once bound, and then overflowed the
/// per-rung table of `extension_track_bitrates`.
#[test]
fn hls_rung_beyond_the_variants_is_an_error() {
    let (_, master) = drama_docs();
    let text = master.replacen("video/V1/", "video/V18446744073709551615/", 1);
    let parsed = MasterPlaylist::parse(&text).expect("still a well-formed playlist");
    assert!(BoundHls::from_master(&parsed).is_err());
}

/// A zero-length `EXTINF` with a byte range once divided by zero time.
#[test]
fn zero_length_segment_has_no_derived_bitrate() {
    let text =
        "#EXTM3U\n#EXT-X-TARGETDURATION:4\n#EXTINF:.000,\n#EXT-X-BYTERANGE:1000@0\nfile.mp4\n";
    let playlist = MediaPlaylist::parse(text).expect("parses");
    assert_eq!(playlist.derived_bitrates(), None);
}

/// An `EXT-X-BITRATE` whose bits per second overflow `u64` once
/// overflowed in `derived_bitrates`.
#[test]
fn bitrate_tag_beyond_u64_bits_is_an_error() {
    let text = "#EXTM3U\n#EXT-X-TARGETDURATION:4\n#EXTINF:4.000,\n\
                #EXT-X-BITRATE:18446744073709551615\nseg1.m4s\n";
    assert!(MediaPlaylist::parse(text).is_err());
}

/// A `SegmentTemplate` duration whose microseconds overflow `u64` once
/// overflowed at parse.
#[test]
fn segment_duration_beyond_u64_micros_is_an_error() {
    let (mpd, _) = drama_docs();
    let template = mpd.find("<SegmentTemplate").expect("a template");
    let at = template + mpd[template..].find("duration=\"").expect("a duration") + 10;
    let end = at + mpd[at..].find('"').expect("closing quote");
    let text = format!("{}18446744073709551615{}", &mpd[..at], &mpd[end..]);
    assert!(Mpd::parse(&text).is_err());
}
