//! Virtual time for the simulator.
//!
//! The entire testbed runs on a simulated clock: a TCP binding timeout of
//! 24 hours (the TCP-1 cutoff in the paper) is measured in milliseconds of
//! wall time. Modeled after `smoltcp::time`: small copyable newtypes over an
//! integer tick count, with only the arithmetic the stack actually needs.
//!
//! Resolution is one nanosecond. A `u64` nanosecond counter wraps after
//! ~584 years of simulated time, far beyond any experiment here.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point on the simulated timeline, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant {
    nanos: u64,
}

impl Instant {
    /// The simulation epoch (t = 0).
    pub const ZERO: Instant = Instant { nanos: 0 };
    /// The far future; used as "no deadline scheduled".
    pub const FAR_FUTURE: Instant = Instant { nanos: u64::MAX };

    /// Creates an instant `nanos` nanoseconds after the epoch.
    pub const fn from_nanos(nanos: u64) -> Instant {
        Instant { nanos }
    }

    /// Creates an instant `micros` microseconds after the epoch.
    pub const fn from_micros(micros: u64) -> Instant {
        Instant { nanos: micros * 1_000 }
    }

    /// Creates an instant `millis` milliseconds after the epoch.
    pub const fn from_millis(millis: u64) -> Instant {
        Instant { nanos: millis * 1_000_000 }
    }

    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Instant {
        Instant { nanos: secs * 1_000_000_000 }
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(&self) -> u64 {
        self.nanos
    }

    /// Whole microseconds since the epoch.
    pub const fn as_micros(&self) -> u64 {
        self.nanos / 1_000
    }

    /// Whole milliseconds since the epoch.
    pub const fn as_millis(&self) -> u64 {
        self.nanos / 1_000_000
    }

    /// Whole seconds since the epoch.
    pub const fn as_secs(&self) -> u64 {
        self.nanos / 1_000_000_000
    }

    /// Seconds since the epoch as a float (for reporting only).
    pub fn as_secs_f64(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; the simulator never runs
    /// backwards, so this indicates a bookkeeping bug in the caller.
    pub fn duration_since(&self, earlier: Instant) -> Duration {
        Duration::from_nanos(
            self.nanos
                .checked_sub(earlier.nanos)
                .expect("Instant::duration_since: `earlier` is in the future"),
        )
    }

    /// `self + duration`, saturating at [`Instant::FAR_FUTURE`].
    pub fn saturating_add(&self, d: Duration) -> Instant {
        Instant { nanos: self.nanos.saturating_add(d.as_nanos()) }
    }

    /// The earlier of two optional deadlines, `None` meaning "no deadline"
    /// (unlike `Option::min`, which would pick the `None`).
    ///
    /// ```
    /// use hgw_core::Instant;
    /// let (a, b) = (Some(Instant::from_millis(5)), Some(Instant::from_millis(3)));
    /// assert_eq!(Instant::earliest(a, b), b);
    /// assert_eq!(Instant::earliest(a, None), a);
    /// assert_eq!(Instant::earliest(None, None), None);
    /// ```
    #[inline]
    pub fn earliest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
        match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Instant::FAR_FUTURE {
            return write!(f, "+inf");
        }
        write!(f, "{}.{:06}s", self.as_secs(), (self.nanos % 1_000_000_000) / 1_000)
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant { nanos: self.nanos.checked_add(rhs.as_nanos()).expect("Instant overflow") }
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
        Instant { nanos: self.nanos.checked_sub(rhs.as_nanos()).expect("Instant underflow") }
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        self.duration_since(rhs)
    }
}

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration {
    nanos: u64,
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration { nanos: 0 };
    /// The largest representable duration.
    pub const MAX: Duration = Duration { nanos: u64::MAX };

    /// Creates a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Duration {
        Duration { nanos }
    }

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Duration {
        Duration { nanos: micros * 1_000 }
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Duration {
        Duration { nanos: millis * 1_000_000 }
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Duration {
        Duration { nanos: secs * 1_000_000_000 }
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Duration {
        Duration::from_secs(mins * 60)
    }

    /// Creates a duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Duration {
        Duration::from_secs(hours * 3600)
    }

    /// Creates a duration from a floating point second count, rounding to
    /// the nearest nanosecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Duration {
        Duration { nanos: (secs.max(0.0) * 1e9).round() as u64 }
    }

    /// Total nanoseconds.
    pub const fn as_nanos(&self) -> u64 {
        self.nanos
    }

    /// Whole microseconds.
    pub const fn as_micros(&self) -> u64 {
        self.nanos / 1_000
    }

    /// Whole milliseconds.
    pub const fn as_millis(&self) -> u64 {
        self.nanos / 1_000_000
    }

    /// Whole seconds.
    pub const fn as_secs(&self) -> u64 {
        self.nanos / 1_000_000_000
    }

    /// Seconds as a float (for reporting only).
    pub fn as_secs_f64(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// `self * num / den` with 128-bit intermediate precision; used for
    /// serialization-time computations (`bytes * 8 * 1e9 / rate`).
    pub fn mul_div(&self, num: u64, den: u64) -> Duration {
        debug_assert!(den != 0);
        Duration { nanos: ((self.nanos as u128 * num as u128) / den as u128) as u64 }
    }

    /// Saturating subtraction.
    pub fn saturating_sub(&self, rhs: Duration) -> Duration {
        Duration { nanos: self.nanos.saturating_sub(rhs.nanos) }
    }

    /// Checked subtraction.
    pub fn checked_sub(&self, rhs: Duration) -> Option<Duration> {
        self.nanos.checked_sub(rhs.nanos).map(Duration::from_nanos)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nanos >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.nanos >= 1_000_000 {
            write!(f, "{:.3}ms", self.nanos as f64 / 1e6)
        } else if self.nanos >= 1_000 {
            write!(f, "{:.3}us", self.nanos as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.nanos)
        }
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration { nanos: self.nanos.checked_add(rhs.nanos).expect("Duration overflow") }
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
        Duration { nanos: self.nanos.checked_sub(rhs.nanos).expect("Duration underflow") }
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
        Duration { nanos: self.nanos.checked_mul(rhs).expect("Duration overflow") }
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration { nanos: self.nanos / rhs }
    }
}

/// Computes the time needed to serialize `bytes` octets onto a link running
/// at `bits_per_sec`. A rate of 0 means "infinitely fast" and yields zero.
pub fn serialization_time(bytes: usize, bits_per_sec: u64) -> Duration {
    if bits_per_sec == 0 {
        return Duration::ZERO;
    }
    let bits = bytes as u64 * 8;
    if let Some(ns) = bits.checked_mul(1_000_000_000) {
        // Every real frame lands here; 128-bit division (a libcall) is
        // reserved for pathological multi-gigabyte "frames".
        return Duration::from_nanos(ns / bits_per_sec);
    }
    Duration::from_nanos(((bits as u128 * 1_000_000_000) / bits_per_sec as u128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_roundtrip_units() {
        assert_eq!(Instant::from_secs(2).as_millis(), 2000);
        assert_eq!(Instant::from_millis(1500).as_secs(), 1);
        assert_eq!(Instant::from_micros(7).as_nanos(), 7000);
    }

    #[test]
    fn instant_arithmetic() {
        let t = Instant::from_secs(10);
        assert_eq!(t + Duration::from_secs(5), Instant::from_secs(15));
        assert_eq!(t - Duration::from_secs(4), Instant::from_secs(6));
        assert_eq!(Instant::from_secs(15) - t, Duration::from_secs(5));
        assert_eq!(t.duration_since(Instant::from_secs(1)), Duration::from_secs(9));
    }

    #[test]
    #[should_panic]
    fn duration_since_panics_on_future() {
        let _ = Instant::from_secs(1).duration_since(Instant::from_secs(2));
    }

    #[test]
    fn duration_units() {
        assert_eq!(Duration::from_hours(24).as_secs(), 86_400);
        assert_eq!(Duration::from_mins(124).as_secs(), 7_440);
        assert_eq!(Duration::from_secs_f64(1.5).as_millis(), 1500);
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let d = Duration::from_millis(100);
        assert_eq!(d * 3, Duration::from_millis(300));
        assert_eq!(d / 4, Duration::from_millis(25));
        assert_eq!(d.saturating_sub(Duration::from_secs(1)), Duration::ZERO);
        assert_eq!(Duration::from_secs(1).checked_sub(d), Some(Duration::from_millis(900)));
        assert_eq!(d.checked_sub(Duration::from_secs(1)), None);
    }

    #[test]
    fn serialization_time_matches_hand_math() {
        // 1500 bytes at 100 Mb/s = 120 us.
        assert_eq!(serialization_time(1500, 100_000_000), Duration::from_micros(120));
        // Zero rate means "no serialization delay".
        assert_eq!(serialization_time(1500, 0), Duration::ZERO);
        // 1 byte at 8 bit/s is one second.
        assert_eq!(serialization_time(1, 8), Duration::from_secs(1));
    }

    #[test]
    fn saturating_add_caps_at_far_future() {
        assert_eq!(Instant::FAR_FUTURE.saturating_add(Duration::from_secs(1)), Instant::FAR_FUTURE);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Duration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", Duration::from_secs(3)), "3.000s");
        assert_eq!(format!("{}", Duration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Instant::from_secs(1)), "1.000000s");
    }

    #[test]
    fn mul_div_has_128bit_precision() {
        // (u64::MAX/2) * 3 would overflow u64; mul_div must not.
        let d = Duration::from_nanos(u64::MAX / 2);
        assert_eq!(d.mul_div(2, 2), d);
    }
}
