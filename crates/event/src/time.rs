//! Microsecond-resolution virtual time.
//!
//! The simulation clock is a `u64` count of microseconds since the start of
//! the run. One microsecond is fine enough to resolve sub-millisecond
//! throughput-sampling windows (Shaka samples every 125 ms; a 16 KB/interval
//! filter boundary at 1 Mbps falls on an exact microsecond grid) while a
//! `u64` still covers ~584,000 years of virtual time — overflow is treated
//! as a logic bug and panics in debug builds via the standard checked
//! arithmetic of the underlying integer ops.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// A point in virtual time, measured in microseconds from the start of the
/// simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant {
    micros: u64,
}

impl Instant {
    /// The origin of virtual time (t = 0).
    pub const ZERO: Instant = Instant { micros: 0 };

    /// Creates an instant from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Instant { micros }
    }

    /// Creates an instant from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Instant {
            micros: millis * 1_000,
        }
    }

    /// Creates an instant from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Instant {
            micros: secs * MICROS_PER_SEC,
        }
    }

    /// Creates an instant from fractional seconds, rounding to the nearest
    /// microsecond. Panics on negative, non-finite or out-of-range input.
    pub fn from_secs_f64(secs: f64) -> Self {
        Self::try_from_secs_f64(secs).unwrap_or_else(|e| panic!("invalid time: {e}"))
    }

    /// [`Instant::from_secs_f64`] for untrusted input: negative,
    /// non-finite and out-of-range seconds are an error, not a panic.
    pub fn try_from_secs_f64(secs: f64) -> Result<Self, InvalidSecs> {
        micros_from_secs_f64(secs).map(Instant::from_micros)
    }

    /// This instant as a whole number of microseconds.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// This instant in fractional seconds (for reporting only; the
    /// simulation itself never consumes this).
    pub fn as_secs_f64(self) -> f64 {
        self.micros as f64 / MICROS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`. Panics if `earlier` is later than
    /// `self` (time never flows backwards in the simulator).
    pub fn duration_since(self, earlier: Instant) -> Duration {
        Duration::from_micros(
            self.micros
                .checked_sub(earlier.micros)
                .expect("duration_since: earlier instant is in the future"),
        )
    }

    /// Saturating difference: zero if `earlier` is later than `self`.
    pub fn saturating_duration_since(self, earlier: Instant) -> Duration {
        Duration::from_micros(self.micros.saturating_sub(earlier.micros))
    }

    /// The earlier of two instants.
    pub fn min(self, other: Instant) -> Instant {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two instants.
    pub fn max(self, other: Instant) -> Instant {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant {
            micros: self
                .micros
                .checked_add(rhs.as_micros())
                .expect("Instant overflow"),
        }
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, rhs: Duration) -> Instant {
        Instant {
            micros: self
                .micros
                .checked_sub(rhs.as_micros())
                .expect("Instant underflow"),
        }
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// Fractional seconds that name no representable time: negative, NaN or
/// infinite, or more microseconds than a `u64` holds. The error of
/// [`Instant::try_from_secs_f64`] and [`Duration::try_from_secs_f64`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidSecs(pub f64);

impl fmt::Display for InvalidSecs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} s is negative, non-finite or out of range", self.0)
    }
}

impl std::error::Error for InvalidSecs {}

/// Rounds fractional seconds to whole microseconds, rejecting every input
/// a `u64` microsecond count cannot hold (an `as` cast would saturate).
fn micros_from_secs_f64(secs: f64) -> Result<u64, InvalidSecs> {
    let micros = secs * MICROS_PER_SEC as f64;
    // `u64::MAX as f64` is exactly 2^64, the first value out of range.
    if secs.is_finite() && secs >= 0.0 && micros.round() < u64::MAX as f64 {
        Ok(micros.round() as u64)
    } else {
        Err(InvalidSecs(secs))
    }
}

/// A span of virtual time, measured in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration {
    micros: u64,
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration { micros: 0 };

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Duration { micros }
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Duration {
            micros: millis * 1_000,
        }
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration {
            micros: secs * MICROS_PER_SEC,
        }
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond. Panics on negative, non-finite or out-of-range input.
    pub fn from_secs_f64(secs: f64) -> Self {
        Self::try_from_secs_f64(secs).unwrap_or_else(|e| panic!("invalid duration: {e}"))
    }

    /// [`Duration::from_secs_f64`] for untrusted input: negative,
    /// non-finite and out-of-range seconds are an error, not a panic.
    pub fn try_from_secs_f64(secs: f64) -> Result<Self, InvalidSecs> {
        micros_from_secs_f64(secs).map(Duration::from_micros)
    }

    /// This duration as a whole number of microseconds.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// This duration as whole milliseconds, truncating.
    pub const fn as_millis(self) -> u64 {
        self.micros / 1_000
    }

    /// This duration in fractional seconds (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.micros as f64 / MICROS_PER_SEC as f64
    }

    /// True if this duration is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.micros == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration {
            micros: self.micros.saturating_sub(rhs.micros),
        }
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Duration) -> Option<Duration> {
        self.micros
            .checked_sub(rhs.micros)
            .map(Duration::from_micros)
    }

    /// The smaller of two durations.
    pub fn min(self, other: Duration) -> Duration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two durations.
    pub fn max(self, other: Duration) -> Duration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Multiplies by a rational factor `num/den`, rounding to the nearest
    /// microsecond, using 128-bit intermediates so no realistic simulation
    /// duration can overflow.
    pub fn mul_ratio(self, num: u64, den: u64) -> Duration {
        assert!(den != 0, "mul_ratio division by zero");
        let micros = (self.micros as u128 * num as u128 + den as u128 / 2) / den as u128;
        Duration {
            micros: u64::try_from(micros).expect("mul_ratio overflow"),
        }
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration {
            micros: self
                .micros
                .checked_add(rhs.micros)
                .expect("Duration overflow"),
        }
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration {
            micros: self
                .micros
                .checked_sub(rhs.micros)
                .expect("Duration underflow"),
        }
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration {
            micros: self.micros.checked_mul(rhs).expect("Duration overflow"),
        }
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration {
            micros: self.micros / rhs,
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl core::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

/// Total length of the union of (possibly overlapping, possibly unsorted)
/// `[start, end)` intervals — the "busy time" of a resource given the spans
/// it was occupied. Intervals with `end <= start` contribute nothing.
///
/// Works over a caller-owned scratch buffer: sorts `intervals` in place
/// and leaves the sorted contents behind, so hot paths (the player's
/// bandwidth meter runs once per engine round) can reuse one allocation
/// forever — clear, refill, and call this again.
pub fn busy_union_in_place(intervals: &mut [(Instant, Instant)]) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Instant, Instant)> = None;
    for &(lo, hi) in intervals.iter() {
        if hi <= lo {
            continue;
        }
        match cur {
            Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                total += chi - clo;
                cur = Some((lo, hi));
            }
            None => cur = Some((lo, hi)),
        }
    }
    if let Some((clo, chi)) = cur {
        total += chi - clo;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_roundtrip_units() {
        assert_eq!(Instant::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(Instant::from_millis(1500).as_micros(), 1_500_000);
        assert_eq!(Instant::from_micros(7).as_micros(), 7);
        assert_eq!(Instant::from_secs_f64(0.125).as_micros(), 125_000);
    }

    #[test]
    fn try_from_secs_f64_rejects_unrepresentable_seconds() {
        assert_eq!(
            Duration::try_from_secs_f64(1.5),
            Ok(Duration::from_millis(1500))
        );
        assert_eq!(Instant::try_from_secs_f64(0.0), Ok(Instant::ZERO));
        for bad in [
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            2e13,
        ] {
            assert!(Instant::try_from_secs_f64(bad).is_err(), "{bad}");
            assert!(Duration::try_from_secs_f64(bad).is_err(), "{bad}");
        }
        // 2^64 µs is about 1.845e13 s: just below it still converts.
        assert!(Duration::try_from_secs_f64(1.8e13).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_secs_f64_panics_on_nan() {
        let _ = Duration::from_secs_f64(f64::NAN);
    }

    #[test]
    fn instant_arithmetic() {
        let t = Instant::from_secs(10);
        assert_eq!(t + Duration::from_secs(5), Instant::from_secs(15));
        assert_eq!(t - Duration::from_secs(4), Instant::from_secs(6));
        assert_eq!(Instant::from_secs(15) - t, Duration::from_secs(5));
    }

    #[test]
    fn instant_ordering_and_minmax() {
        let a = Instant::from_millis(100);
        let b = Instant::from_millis(200);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let a = Instant::from_secs(1);
        let b = Instant::from_secs(2);
        assert_eq!(a.saturating_duration_since(b), Duration::ZERO);
        assert_eq!(b.saturating_duration_since(a), Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "earlier instant is in the future")]
    fn duration_since_panics_backwards() {
        let _ = Instant::from_secs(1).duration_since(Instant::from_secs(2));
    }

    #[test]
    fn duration_arithmetic() {
        let d = Duration::from_millis(250);
        assert_eq!(d + d, Duration::from_millis(500));
        assert_eq!(d * 4, Duration::from_secs(1));
        assert_eq!(Duration::from_secs(1) / 8, Duration::from_millis(125));
        assert_eq!(
            Duration::from_secs(3) - Duration::from_secs(1),
            Duration::from_secs(2)
        );
    }

    #[test]
    fn duration_mul_ratio_rounds() {
        // 1 s * 1/3 = 333333.33 µs → rounds to 333333
        assert_eq!(Duration::from_secs(1).mul_ratio(1, 3).as_micros(), 333_333);
        // 1 s * 2/3 = 666666.67 µs → rounds to 666667
        assert_eq!(Duration::from_secs(1).mul_ratio(2, 3).as_micros(), 666_667);
    }

    #[test]
    fn duration_saturating_and_checked() {
        let a = Duration::from_secs(1);
        let b = Duration::from_secs(2);
        assert_eq!(a.saturating_sub(b), Duration::ZERO);
        assert_eq!(b.checked_sub(a), Some(Duration::from_secs(1)));
        assert_eq!(a.checked_sub(b), None);
    }

    #[test]
    fn duration_sum() {
        let total: Duration = [Duration::from_secs(1), Duration::from_millis(500)]
            .into_iter()
            .sum();
        assert_eq!(total, Duration::from_millis(1500));
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(Instant::from_millis(1250).to_string(), "1.250s");
        assert_eq!(Duration::from_micros(1_000).to_string(), "0.001s");
    }

    fn iv(lo: u64, hi: u64) -> (Instant, Instant) {
        (Instant::from_secs(lo), Instant::from_secs(hi))
    }

    #[test]
    fn busy_union_empty_and_single() {
        assert_eq!(busy_union_in_place(&mut []), Duration::ZERO);
        assert_eq!(busy_union_in_place(&mut [iv(2, 5)]), Duration::from_secs(3));
    }

    #[test]
    fn busy_union_merges_overlaps() {
        // [0,4) ∪ [2,6) ∪ [5,7) = [0,7).
        assert_eq!(
            busy_union_in_place(&mut [iv(0, 4), iv(2, 6), iv(5, 7)]),
            Duration::from_secs(7)
        );
        // Containment: [1,9) swallows [2,3).
        assert_eq!(
            busy_union_in_place(&mut [iv(2, 3), iv(1, 9)]),
            Duration::from_secs(8)
        );
    }

    #[test]
    fn busy_union_counts_gaps_once() {
        // [0,2) and [5,6): total 3, not 6.
        assert_eq!(
            busy_union_in_place(&mut [iv(5, 6), iv(0, 2)]),
            Duration::from_secs(3)
        );
    }

    #[test]
    fn busy_union_touching_intervals_merge() {
        // [0,2) ∪ [2,4): adjacent, union is 4 with no double-count.
        assert_eq!(
            busy_union_in_place(&mut [iv(0, 2), iv(2, 4)]),
            Duration::from_secs(4)
        );
    }

    #[test]
    fn busy_union_ignores_degenerate_intervals() {
        assert_eq!(
            busy_union_in_place(&mut [iv(3, 3), iv(1, 2), iv(9, 4)]),
            Duration::from_secs(1)
        );
    }

    #[test]
    fn busy_union_is_order_independent() {
        let mut a = [iv(0, 3), iv(7, 9), iv(2, 5)];
        let mut b = a;
        b.reverse();
        assert_eq!(busy_union_in_place(&mut a), busy_union_in_place(&mut b));
    }
}

/// Serialization as raw microsecond counts (enabled by the `serde`
/// feature): an [`Instant`] or [`Duration`] is a single JSON number.
#[cfg(feature = "serde")]
mod serde_impls {
    use super::{Duration, Instant};
    use serde::{Deserialize, FromValueError, Serialize, Value};

    impl Serialize for Instant {
        fn to_value(&self) -> Value {
            self.as_micros().to_value()
        }
    }

    impl Deserialize for Instant {
        fn from_value(v: &Value) -> Result<Self, FromValueError> {
            u64::from_value(v).map(Instant::from_micros)
        }
    }

    impl Serialize for Duration {
        fn to_value(&self) -> Value {
            self.as_micros().to_value()
        }
    }

    impl Deserialize for Duration {
        fn from_value(v: &Value) -> Result<Self, FromValueError> {
            u64::from_value(v).map(Duration::from_micros)
        }
    }
}
