//! Virtual time types: nanosecond-resolution instants and durations.
//!
//! `std::time` types are deliberately not reused: virtual time must be
//! totally decoupled from the wall clock, and we want `Copy + Ord` arithmetic
//! with saturating behaviour and exact (integer) determinism.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Add;

/// A virtual instant, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Time(pub u64);

/// A virtual duration, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Dur(pub u64);

impl Time {
    /// Simulation start.
    pub const ZERO: Time = Time(0);

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }
}

impl Dur {
    pub const ZERO: Dur = Dur(0);

    pub fn from_nanos(ns: u64) -> Dur {
        Dur(ns)
    }
    pub fn from_micros(us: u64) -> Dur {
        Dur(us.saturating_mul(1_000))
    }

    /// Convert from a float second count, rounding to the nearest nanosecond
    /// and saturating on overflow/negative values.
    pub fn from_secs_f64(s: f64) -> Dur {
        // NaN and non-positive values clamp to zero.
        if s.is_nan() || s <= 0.0 {
            return Dur::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            Dur(u64::MAX)
        } else {
            Dur(ns.round() as u64)
        }
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}
impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{:.6}s", self.as_secs_f64())
    }
}
impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.4}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Dur::from_nanos(7), Dur(7));
        assert_eq!(Dur::from_micros(3), Dur(3_000));
        assert!((Dur::from_secs_f64(0.5).as_secs_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_float_durations_clamp_to_zero() {
        assert_eq!(Dur::from_secs_f64(-1.0), Dur::ZERO);
        assert_eq!(Dur::from_secs_f64(f64::NAN), Dur::ZERO);
    }

    #[test]
    fn huge_float_duration_saturates() {
        assert_eq!(Dur::from_secs_f64(1e30), Dur(u64::MAX));
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::ZERO + Dur::from_micros(10);
        assert_eq!(t, Time(10_000));
        assert_eq!(t + Dur(u64::MAX), Time(u64::MAX), "saturating");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Dur::from_nanos(999) < Dur::from_micros(1));
        assert!(Time(5) < Time(6));
    }
}
