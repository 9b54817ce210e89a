//! Virtual time. The simulation clock counts nanoseconds from the start of
//! the run; durations are nanosecond counts. Both are plain `u64` newtypes so
//! that identical runs produce bit-identical timings.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in virtual time (nanoseconds since simulation start).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span of virtual time (nanoseconds).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);

    /// An instant `ns` nanoseconds after simulation start.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns)
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Time as fractional microseconds (for reporting; never used to order events).
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// `self - rhs`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Dur {
    /// The empty duration.
    pub const ZERO: Dur = Dur(0);

    /// A duration of `ns` nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Dur(ns)
    }

    /// Whole microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Dur(us * 1_000)
    }

    /// Fractional microseconds, rounded to the nearest nanosecond.
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        debug_assert!(us >= 0.0);
        Dur((us * 1_000.0).round() as u64)
    }

    /// The duration in nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// The duration as fractional microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Duration to move `bytes` at `bytes_per_us` (bytes per microsecond,
    /// i.e. MB/s). Rounds up so a transfer never takes zero time.
    #[inline]
    pub fn for_bytes(bytes: usize, bytes_per_us: u64) -> Self {
        if bytes == 0 || bytes_per_us == 0 {
            return Dur::ZERO;
        }
        // u64 division unless `bytes * 1000` overflows it; both give the
        // same quotient.
        let ns = match (bytes as u64).checked_mul(1_000) {
            Some(scaled) => scaled.div_ceil(bytes_per_us),
            None => (bytes as u128 * 1_000).div_ceil(bytes_per_us as u128) as u64,
        };
        Dur(ns)
    }

    /// `self - rhs`, or `None` on underflow.
    #[inline]
    pub fn checked_sub(self, rhs: Dur) -> Option<Dur> {
        self.0.checked_sub(rhs.0).map(Dur)
    }

    /// `self - rhs`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }

    /// The longer of two durations.
    #[inline]
    pub fn max(self, rhs: Dur) -> Dur {
        Dur(self.0.max(rhs.0))
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("time went backwards"))
    }
}

impl Add<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}us", self.as_us())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        let t = Time::from_ns(1_000);
        let t2 = t + Dur::from_ns(500);
        assert_eq!(t2.as_ns(), 1_500);
        assert_eq!((t2 - t).as_ns(), 500);
    }

    #[test]
    fn us_conversions() {
        assert_eq!(Dur::from_us(3).as_ns(), 3_000);
        assert_eq!(Dur::from_us_f64(0.25).as_ns(), 250);
        assert!((Time::from_ns(4_870).as_us() - 4.87).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_duration_rounds_up() {
        // 1000 bytes at 900 MB/s (== 900 bytes/us) -> ceil(1000*1000/900) ns
        assert_eq!(Dur::for_bytes(1000, 900).as_ns(), 1112);
        assert_eq!(Dur::for_bytes(0, 900), Dur::ZERO);
        // one byte never takes zero time
        assert!(Dur::for_bytes(1, 1_000_000).as_ns() >= 1);
    }

    #[test]
    fn bandwidth_duration_matches_the_u128_formula() {
        fn in_u128(bytes: usize, bytes_per_us: u64) -> u64 {
            if bytes == 0 || bytes_per_us == 0 {
                return 0;
            }
            (bytes as u128 * 1_000).div_ceil(bytes_per_us as u128) as u64
        }
        // Sizes around where `bytes * 1000` stops fitting in a u64.
        let edge = (u64::MAX / 1_000) as usize;
        let sizes = [
            0,
            1,
            999,
            1_000,
            1_001,
            4_096,
            1 << 20,
            edge - 1,
            edge,
            edge + 1,
            usize::MAX / 2,
            usize::MAX,
        ];
        let rates = [
            1,
            2,
            3,
            7,
            900,
            1_000,
            1_001,
            3_200,
            u32::MAX as u64,
            u64::MAX / 1_000,
            u64::MAX - 1,
            u64::MAX,
        ];
        for b in sizes {
            for r in rates {
                assert_eq!(
                    Dur::for_bytes(b, r).as_ns(),
                    in_u128(b, r),
                    "{b} B at {r} B/us"
                );
            }
        }
        // Random magnitudes: a random shift spreads values over every width.
        let mut rng = crate::rng::Pcg32::new(0xB17E5);
        for _ in 0..100_000 {
            let b = (rng.next_u64() >> rng.below(64)) as usize;
            let r = rng.next_u64() >> rng.below(64);
            assert_eq!(
                Dur::for_bytes(b, r).as_ns(),
                in_u128(b, r),
                "{b} B at {r} B/us"
            );
        }
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn negative_interval_panics() {
        let _ = Time::from_ns(1) - Time::from_ns(2);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Time::from_ns(1).saturating_sub(Time::from_ns(5)), Dur::ZERO);
        assert_eq!(
            Dur::from_ns(7).saturating_sub(Dur::from_ns(3)),
            Dur::from_ns(4)
        );
    }
}
