//! Helpers shared by the root pin tests.

/// 64-bit FNV-1a over `text`'s bytes: the digest every root pin records.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
