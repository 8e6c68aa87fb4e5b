//! Simulated time.
//!
//! The simulator advances a virtual clock measured in integer nanoseconds.
//! Using an integer representation (rather than `f64` seconds) keeps event
//! ordering exact and the whole simulation bit-for-bit reproducible across
//! platforms, which the experiment harness relies on.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from raw nanoseconds (the clock's native tick — also the
    /// timing wheel's slot granularity, see `dtcs_netsim::wheel`).
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// This instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Saturating difference between two instants.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Negative or non-finite inputs clamp to zero: durations are spans of
    /// simulated time and can never be negative.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// This span expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Nanoseconds in this span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Multiply the span by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// Transmission time of `bytes` on a link of `bits_per_sec` capacity.
///
/// Rounds up so that a nonzero payload always takes at least one nanosecond,
/// preserving strict causality of back-to-back transmissions.
pub fn tx_time(bytes: u32, bits_per_sec: f64) -> SimDuration {
    debug_assert!(bits_per_sec > 0.0, "link bandwidth must be positive");
    let secs = (bytes as f64 * 8.0) / bits_per_sec;
    let nanos = (secs * 1e9).ceil() as u64;
    SimDuration(nanos.max(if bytes > 0 { 1 } else { 0 }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2).0, 2_000_000_000);
        assert_eq!(SimTime::from_millis(2_000), SimTime::from_secs(2));
        assert_eq!(SimTime::from_micros(5).0, 5_000);
        assert_eq!(SimTime::from_nanos(7).0, 7);
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_nanos(1_000), SimDuration::from_micros(1));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.0, 1_500_000_000);
        assert_eq!(t - SimTime::from_secs(1), SimDuration::from_millis(500));
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(3);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).0, 1_500_000_000);
    }

    #[test]
    fn tx_time_monotone_in_size() {
        let slow = tx_time(100, 1e6);
        let fast = tx_time(100, 1e9);
        assert!(slow > fast);
        assert!(tx_time(200, 1e6) > tx_time(100, 1e6));
        // 100 bytes at 1 Mbit/s = 800 us.
        assert_eq!(tx_time(100, 1e6), SimDuration::from_micros(800));
    }

    #[test]
    fn tx_time_zero_bytes_is_zero() {
        assert_eq!(tx_time(0, 1e6), SimDuration::ZERO);
        assert!(tx_time(1, 1e12) > SimDuration::ZERO);
    }
}
