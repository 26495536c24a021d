//! Byte pins of every manifest the experiments build, plus the parse rules
//! a rewrite of the text layer could silently flip.
//!
//! The digests are FNV-1a 64 over the exact text of the drama show's
//! manifests (content seed 2019, the experiments' `SEED`). They were
//! recorded from the tree-building writers that preceded the streaming
//! ones, so any byte the writers change fails here.

use abr_manifest::build::{
    build_master_playlist, build_master_playlist_ext, build_media_playlist, build_mpd,
    build_mpd_with_combos, Packaging,
};
use abr_manifest::{MasterPlaylist, MediaPlaylist, Mpd};
use abr_media::combo::{all_combos, curated_subset};
use abr_media::content::Content;
use abr_media::units::BitsPerSec;
use proptest::prelude::*;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn drama() -> Content {
    Content::drama_show(2019)
}

#[test]
fn mpd_bytes_are_pinned() {
    let c = drama();
    let plain = build_mpd(&c).to_text();
    let curated = build_mpd_with_combos(&c, &curated_subset(c.video(), c.audio())).to_text();
    assert_eq!(
        [
            (plain.len(), fnv1a(&plain)),
            (curated.len(), fnv1a(&curated))
        ],
        [(2236, 0x5cb0_fec4_939e_2b21), (2364, 0xcef0_2775_9651_3aed)]
    );
}

#[test]
fn master_playlist_bytes_are_pinned() {
    let c = drama();
    let h_all = all_combos(c.video(), c.audio());
    let h_sub = curated_subset(c.video(), c.audio());
    let mut pins = Vec::new();
    for (combos, order) in [
        (&h_all, [0, 1, 2]),
        (&h_sub, [2, 0, 1]),
        (&h_sub, [0, 1, 2]),
    ] {
        let plain = build_master_playlist(&c, combos, &order).to_text();
        let ext = build_master_playlist_ext(&c, combos, &order).to_text();
        pins.push((plain.len(), fnv1a(&plain)));
        pins.push((ext.len(), fnv1a(&ext)));
    }
    assert_eq!(
        pins,
        [
            (2434, 0x04d7_74a4_3453_472d),
            (3271, 0x9118_6ab2_b992_0683),
            (1012, 0x1a2d_5e56_ba51_b0d4),
            (1291, 0x5662_18d5_f0f3_792e),
            (1012, 0xb146_3121_cd56_ffd4),
            (1291, 0xf0dd_73cd_4fbd_4e2e)
        ]
    );
}

#[test]
fn media_playlist_bytes_are_pinned() {
    let c = drama();
    let mut pins = Vec::new();
    for packaging in [
        Packaging::SegmentFiles {
            with_bitrate_tags: false,
        },
        Packaging::SegmentFiles {
            with_bitrate_tags: true,
        },
        Packaging::SingleFile,
    ] {
        let mut all = String::new();
        for &id in c.track_ids() {
            all += &build_media_playlist(&c, id, packaging).to_text();
        }
        pins.push((all.len(), fnv1a(&all)));
    }
    assert_eq!(
        pins,
        [
            (24336, 0x8d78_05fc_e44b_7025),
            (37312, 0x6f0f_0db5_588c_d3c9),
            (45282, 0x0168_b942_3cba_3a12)
        ]
    );
}

/// A one-representation MPD whose `Representation` start tag carries
/// `attrs` verbatim.
fn mpd_with_representation(attrs: &str) -> String {
    format!(
        r#"<MPD mediaPresentationDuration="PT8S"><Period>
        <AdaptationSet contentType="video"><Representation {attrs}>
        <SegmentTemplate media="m" duration="4000" timescale="1000"/>
        </Representation></AdaptationSet></Period></MPD>"#
    )
}

#[test]
fn duplicate_xml_attribute_resolves_to_the_first() {
    let text =
        mpd_with_representation(r#"id="V1" bandwidth="100000" id="V9" bandwidth="not a number""#);
    let mpd = Mpd::parse(&text).expect("parses");
    let rep = &mpd.adaptation_sets[0].representations[0];
    assert_eq!(rep.id, "V1");
    assert_eq!(rep.bandwidth, BitsPerSec(100_000));
}

#[test]
fn duplicate_hls_attribute_resolves_to_the_last() {
    let text = "#EXTM3U\n\
        #EXT-X-MEDIA:TYPE=VIDEO,GROUP-ID=\"g1\",NAME=\"A1\",URI=\"a1\",TYPE=AUDIO,GROUP-ID=\"g2\"\n\
        #EXT-X-STREAM-INF:BANDWIDTH=1,AUDIO=\"g1\",BANDWIDTH=2,AUDIO=\"g2\"\n\
        video/V1/playlist.m3u8\n";
    let master = MasterPlaylist::parse(text).expect("parses");
    assert_eq!(master.media.len(), 1, "the last TYPE is AUDIO");
    assert_eq!(master.media[0].group_id, "g2");
    assert_eq!(master.variants[0].bandwidth, BitsPerSec(2));
    assert_eq!(master.variants[0].audio_group.as_deref(), Some("g2"));
}

/// The parse errors of a set of broken documents, word for word.
#[test]
fn parse_errors_are_pinned() {
    let mpd_errors: Vec<String> = [
        "",
        "<MPD",
        "<MPD><Period></MPD>",
        "<MPD a=1/>",
        "<MPD a=\"1/>",
        "<MPD/><X/>",
        "<!-- open",
        "<Root/>",
        "<MPD/>",
        "<MPD mediaPresentationDuration=\"PT1S\"/>",
        "<MPD mediaPresentationDuration=\"P1S\"><Period/></MPD>",
        "<MPD mediaPresentationDuration=\"PT1S\"><Period><AdaptationSet/></Period></MPD>",
    ]
    .iter()
    .map(|t| Mpd::parse(t).expect_err("broken"))
    .chain(
        [
            r#"id="V1""#,
            r#"bandwidth="1""#,
            r#"id="V1" bandwidth="x""#,
            r#"id="V1" bandwidth="1" width="w" height="1""#,
            r#"id="V1" bandwidth="1" width="1" height="y""#,
            r#"id="V1" bandwidth="1" audioSamplingRate="z""#,
        ]
        .iter()
        .map(|a| Mpd::parse(&mpd_with_representation(a)).expect_err("broken")),
    )
    .collect();
    let hls_errors: Vec<String> = [
        "#EXTM3U\n#EXT-X-MEDIA:TYPE=AUDIO,NAME=\"A1\"\n",
        "#EXTM3U\n#EXT-X-MEDIA:TYPE\n",
        "#EXTM3U\n#EXT-X-MEDIA:=1\n",
        "#EXTM3U\n#EXT-X-MEDIA:A=\"open\n",
        "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=x\nu\n",
        "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=1,RESOLUTION=1\nu\n",
        "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=1,VIDEO-BANDWIDTH=-1\nu\n",
        "#EXTM3U\nstray\n",
    ]
    .iter()
    .map(|t| MasterPlaylist::parse(t).expect_err("broken"))
    .chain(
        [
            "#EXTM3U\n#EXT-X-TARGETDURATION:x\n",
            "#EXTM3U\n#EXT-X-BYTERANGE:12\n",
            "#EXTM3U\n#EXTINF:4,\n#EXT-X-BITRATE:q\ns\n",
            "#EXTM3U\nseg.m4s\n",
        ]
        .iter()
        .map(|t| MediaPlaylist::parse(t).expect_err("broken")),
    )
    .collect();
    assert_eq!(
        mpd_errors,
        [
            "expected `<` at byte 0",
            "unexpected end inside tag",
            "mismatched close tag: `MPD` vs `Period`",
            "expected quoted value for `a`",
            "unterminated value for `a`",
            "trailing content at byte 6",
            "unterminated construct expecting `-->`",
            "root element is `Root`, expected `MPD`",
            "missing mediaPresentationDuration",
            "missing Period",
            "bad ISO duration `P1S`",
            "bad contentType None",
            "Representation missing bandwidth",
            "Representation missing id",
            "bad bandwidth: invalid digit found in string",
            "bad width: invalid digit found in string",
            "bad height: invalid digit found in string",
            "bad audioSamplingRate: invalid digit found in string"
        ]
    );
    assert_eq!(
        hls_errors,
        [
            "missing attribute GROUP-ID",
            "attribute without `=` in `TYPE`",
            "empty attribute key in `=1`",
            "unterminated quoted value in `A=\"open`",
            "bad BANDWIDTH: invalid digit found in string",
            "bad RESOLUTION",
            "bad VIDEO-BANDWIDTH: invalid digit found in string",
            "unexpected URI line `stray`",
            "bad TARGETDURATION: invalid float literal",
            "EXT-X-BYTERANGE missing offset",
            "bad EXT-X-BITRATE: invalid digit found in string",
            "URI `seg.m4s` without EXTINF"
        ]
    );
}

/// Entity decoding as a chain of whole-string replacements: the reference
/// the attribute decoder must match.
fn replace_chain(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

/// Fragments an attribute value is assembled from: entities, their
/// pieces, a bare `&`, and characters that need no decoding.
const FRAGMENTS: [&str; 16] = [
    "&", "amp;", "lt;", "gt;", "quot;", "apos;", "&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "a",
    ";", "<", "'", "é",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// An attribute value decodes exactly as the replacement chain
    /// decodes it (`&amp;lt;` → `&lt;`, a bare `&` kept).
    #[test]
    fn entity_decoding_matches_the_replace_chain(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..24)
    ) {
        let raw: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let text = mpd_with_representation(&format!(r#"id="{raw}" bandwidth="1""#));
        let mpd = Mpd::parse(&text).expect("parses");
        prop_assert_eq!(&mpd.adaptation_sets[0].representations[0].id, &replace_chain(&raw));
    }
}

#[test]
fn entity_decoding_examples() {
    for (raw, decoded) in [
        ("&amp;lt;", "&lt;"),
        ("a & b", "a & b"),
        ("&lt;&gt;&quot;&apos;", "<>\"'"),
        ("&amp;amp;", "&amp;"),
        ("&unknown;", "&unknown;"),
    ] {
        let text = mpd_with_representation(&format!(r#"id="{raw}" bandwidth="1""#));
        let mpd = Mpd::parse(&text).expect("parses");
        assert_eq!(mpd.adaptation_sets[0].representations[0].id, decoded);
        assert_eq!(replace_chain(raw), decoded);
    }
}
