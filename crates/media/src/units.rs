//! Integer units for bitrate and data size.
//!
//! Bitrates are bits per second (`u64`), sizes are bytes (`u64`). All
//! conversions between {rate, size, time} go through 128-bit integer
//! arithmetic with explicit rounding so two code paths computing the same
//! quantity always agree to the microsecond / byte.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub};

use abr_event::time::{div_ceil_wide, div_wide, MICROS_PER_SEC};

/// Bit-microseconds per byte-second (`8 × 10⁶`): the factor between a
/// byte count and `bits × µs`, the unit the rate conversions divide in.
const BIT_MICROS_PER_BYTE: u64 = 8 * MICROS_PER_SEC;

/// A bitrate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BitsPerSec(pub u64);

impl BitsPerSec {
    /// Zero bitrate.
    pub const ZERO: BitsPerSec = BitsPerSec(0);

    /// Constructs from kilobits per second (the unit every table in the
    /// paper uses).
    pub const fn from_kbps(kbps: u64) -> Self {
        BitsPerSec(kbps * 1_000)
    }

    /// Raw bits per second.
    pub const fn bps(self) -> u64 {
        self.0
    }

    /// Kilobits per second, rounded to nearest.
    pub const fn kbps(self) -> u64 {
        (self.0 + 500) / 1_000
    }

    /// Kilobits per second as a float (reporting only).
    pub fn kbps_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Bytes delivered by this rate over `micros` microseconds, rounded to
    /// the nearest byte.
    pub fn bytes_in_micros(self, micros: u64) -> Bytes {
        let bits = self.0 as u128 * micros as u128;
        Bytes(div_wide(
            bits + u128::from(BIT_MICROS_PER_BYTE / 2),
            BIT_MICROS_PER_BYTE,
        ) as u64)
    }

    /// Microseconds needed to transfer `bytes` at this rate, rounded *up*
    /// (a transfer is complete only when the last byte has arrived).
    /// Returns `None` for a zero rate.
    pub fn micros_for_bytes(self, bytes: Bytes) -> Option<u64> {
        if self.0 == 0 {
            return None;
        }
        let bits = bytes.0 as u128 * u128::from(BIT_MICROS_PER_BYTE);
        Some(div_ceil_wide(bits, self.0) as u64)
    }

    /// Scales by a rational factor `num/den` (used for safety factors such
    /// as ExoPlayer's 0.75 = 3/4), rounding down — conservative in the
    /// direction players are conservative.
    pub fn mul_ratio(self, num: u64, den: u64) -> BitsPerSec {
        assert!(den != 0);
        BitsPerSec(div_wide(self.0 as u128 * num as u128, den) as u64)
    }
}

impl Add for BitsPerSec {
    type Output = BitsPerSec;
    fn add(self, rhs: BitsPerSec) -> BitsPerSec {
        BitsPerSec(self.0.checked_add(rhs.0).expect("bitrate overflow"))
    }
}

impl AddAssign for BitsPerSec {
    fn add_assign(&mut self, rhs: BitsPerSec) {
        *self = *self + rhs;
    }
}

impl Sub for BitsPerSec {
    type Output = BitsPerSec;
    fn sub(self, rhs: BitsPerSec) -> BitsPerSec {
        BitsPerSec(self.0.checked_sub(rhs.0).expect("bitrate underflow"))
    }
}

impl Sum for BitsPerSec {
    fn sum<I: Iterator<Item = BitsPerSec>>(iter: I) -> BitsPerSec {
        iter.fold(BitsPerSec::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for BitsPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Kbps", self.kbps())
    }
}

/// A size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Constructs from kibibytes (1024 bytes).
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib * 1024)
    }

    /// Raw byte count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Bits in this many bytes.
    pub const fn bits(self) -> u64 {
        self.0 * 8
    }

    /// The average bitrate of this many bytes spread over `micros`
    /// microseconds, rounded to nearest. Panics if `micros == 0`.
    pub fn rate_over_micros(self, micros: u64) -> BitsPerSec {
        assert!(micros > 0, "rate over zero time");
        let bits = self.0 as u128 * u128::from(BIT_MICROS_PER_BYTE);
        BitsPerSec(div_wide(bits + micros as u128 / 2, micros) as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.checked_add(rhs.0).expect("byte count overflow"))
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.checked_sub(rhs.0).expect("byte count underflow"))
    }
}

impl core::ops::SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        *self = *self - rhs;
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} B", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kbps_roundtrip() {
        assert_eq!(BitsPerSec::from_kbps(384).bps(), 384_000);
        assert_eq!(BitsPerSec::from_kbps(384).kbps(), 384);
        assert_eq!(BitsPerSec(1_499).kbps(), 1); // rounds to nearest
        assert_eq!(BitsPerSec(1_500).kbps(), 2);
    }

    #[test]
    fn bytes_in_micros_exact() {
        // 1 Mbps for 0.125 s = 125000 bits = 15625 bytes: the Fig 4(a)
        // boundary case — just under Shaka's 16 KiB filter.
        let rate = BitsPerSec::from_kbps(1_000);
        assert_eq!(rate.bytes_in_micros(125_000), Bytes(15_625));
        assert!(Bytes(15_625) < Bytes::from_kib(16));
    }

    #[test]
    fn micros_for_bytes_rounds_up() {
        let rate = BitsPerSec(8_000_000); // 1 MB/s
        assert_eq!(rate.micros_for_bytes(Bytes(1_000_000)), Some(1_000_000));
        // One extra byte must push completion to the next microsecond.
        assert_eq!(rate.micros_for_bytes(Bytes(1_000_001)), Some(1_000_001));
        assert_eq!(BitsPerSec::ZERO.micros_for_bytes(Bytes(1)), None);
    }

    #[test]
    fn transfer_roundtrip_consistency() {
        // time(bytes(t)) == t for rates that divide evenly.
        let rate = BitsPerSec::from_kbps(800); // 100 KB/s
        let b = rate.bytes_in_micros(2_000_000);
        assert_eq!(b, Bytes(200_000));
        assert_eq!(rate.micros_for_bytes(b), Some(2_000_000));
    }

    #[test]
    fn mul_ratio_is_floor() {
        // ExoPlayer's 75% of 900 Kbps = 675 Kbps.
        assert_eq!(
            BitsPerSec::from_kbps(900).mul_ratio(3, 4),
            BitsPerSec::from_kbps(675)
        );
        assert_eq!(BitsPerSec(1_001).mul_ratio(1, 2), BitsPerSec(500));
    }

    #[test]
    fn rate_over_micros() {
        assert_eq!(
            Bytes(15_625).rate_over_micros(125_000),
            BitsPerSec::from_kbps(1_000)
        );
        assert_eq!(
            Bytes(125_000).rate_over_micros(1_000_000),
            BitsPerSec::from_kbps(1_000)
        );
    }

    #[test]
    fn sums() {
        let total: BitsPerSec = [BitsPerSec::from_kbps(111), BitsPerSec::from_kbps(128)]
            .into_iter()
            .sum();
        assert_eq!(total, BitsPerSec::from_kbps(239));
        let sz: Bytes = [Bytes(10), Bytes(20)].into_iter().sum();
        assert_eq!(sz, Bytes(30));
    }

    #[test]
    fn display() {
        assert_eq!(BitsPerSec::from_kbps(473).to_string(), "473 Kbps");
        assert_eq!(Bytes(42).to_string(), "42 B");
    }

    #[test]
    fn saturating_bytes() {
        assert_eq!(Bytes(5).saturating_sub(Bytes(9)), Bytes::ZERO);
        assert_eq!(Bytes(9).saturating_sub(Bytes(5)), Bytes(4));
    }
}

/// Serialization as raw counts (enabled by the `serde` feature):
/// [`BitsPerSec`] is its bps value, [`Bytes`] its byte count.
#[cfg(feature = "serde")]
mod serde_impls {
    use super::{BitsPerSec, Bytes};
    use serde::{Deserialize, FromValueError, Serialize, Value};

    impl Serialize for BitsPerSec {
        fn to_value(&self) -> Value {
            self.bps().to_value()
        }
    }

    impl Deserialize for BitsPerSec {
        fn from_value(v: &Value) -> Result<Self, FromValueError> {
            u64::from_value(v).map(BitsPerSec)
        }
    }

    impl Serialize for Bytes {
        fn to_value(&self) -> Value {
            self.get().to_value()
        }
    }

    impl Deserialize for Bytes {
        fn from_value(v: &Value) -> Result<Self, FromValueError> {
            u64::from_value(v).map(Bytes)
        }
    }
}
