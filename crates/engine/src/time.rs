//! Simulated time.
//!
//! Both engines report time as a [`SimTime`]: nanoseconds since the start of
//! the run. Under the discrete-event engine this is a virtual clock that
//! advances only when events are processed; under the real engine it is
//! wall-clock time elapsed since the engine was built.
//!
//! `SimTime` doubles as a duration type (the paper's workloads never need
//! dates, only intervals), which keeps arithmetic simple and allocation-free.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use amber_engine::SimTime;
///
/// let t = SimTime::from_ms(8) + SimTime::from_us(320);
/// assert_eq!(t.as_us(), 8320);
/// assert!((t.as_ms_f64() - 8.32).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant / empty duration.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time. Used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from fractional microseconds, rounding to nanoseconds.
    ///
    /// Handy for cost-model constants quoted in the paper as fractional
    /// microseconds or milliseconds.
    pub fn from_us_f64(us: f64) -> Self {
        #[expect(clippy::disallowed_macros, reason = "modelled durations are >= 0")]
        {
            debug_assert!(us >= 0.0, "negative durations are not representable");
        }
        SimTime((us * 1_000.0).round() as u64)
    }

    /// Creates a time from fractional milliseconds, rounding to nanoseconds.
    pub fn from_ms_f64(ms: f64) -> Self {
        #[expect(clippy::disallowed_macros, reason = "modelled durations are >= 0")]
        {
            debug_assert!(ms >= 0.0, "negative durations are not representable");
        }
        SimTime((ms * 1_000_000.0).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    pub const fn as_ms(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of wrapping.
    pub const fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    pub const fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// The smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Converts to a [`std::time::Duration`] (used by the real engine).
    pub const fn to_duration(self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_us(5).as_ns(), 5_000);
        assert_eq!(SimTime::from_ms(5).as_us(), 5_000);
        assert_eq!(SimTime::from_secs(2).as_ms(), 2_000);
        assert_eq!(SimTime::from_ms_f64(8.32).as_us(), 8_320);
        assert_eq!(SimTime::from_us_f64(0.5).as_ns(), 500);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ms(3);
        let b = SimTime::from_ms(1);
        assert_eq!(a + b, SimTime::from_ms(4));
        assert_eq!(a - b, SimTime::from_ms(2));
        assert_eq!(b * 3, a);
        assert_eq!(a / 3, b);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4).map(SimTime::from_ms).sum();
        assert_eq!(total, SimTime::from_ms(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_ns(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_us(12)), "12.000us");
        assert_eq!(format!("{}", SimTime::from_ms(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(12)), "12.000s");
    }
}
