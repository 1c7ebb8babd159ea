//! Second-resolution simulation time.
//!
//! All simulation clocks in the workspace are integer seconds. The paper's
//! overheads (VM creation 30–40 s, migration 40–45 s, power cycling 50–55 s)
//! and its reporting granularity (hourly / daily) are all whole seconds, so
//! an integer clock avoids floating-point drift and keeps event ordering
//! exact and platform-independent.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in seconds since the start
/// of the simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

/// A non-negative span of simulation time, in seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant; used as an "end of time" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole seconds since the epoch.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Construct from whole minutes since the epoch.
    #[inline]
    pub const fn from_mins(mins: u64) -> Self {
        SimTime(mins * 60)
    }

    /// Construct from whole hours since the epoch.
    #[inline]
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * 3_600)
    }

    /// Construct from whole days since the epoch.
    #[inline]
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * 86_400)
    }

    /// Seconds since the epoch.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as `f64` (for statistics only, never for
    /// event ordering).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64
    }

    /// Zero-based index of the hour bucket containing this instant.
    #[inline]
    pub const fn hour_index(self) -> u64 {
        self.0 / 3_600
    }

    /// Zero-based index of the day bucket containing this instant.
    #[inline]
    pub const fn day_index(self) -> u64 {
        self.0 / 86_400
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// One second.
    pub const SECOND: SimDuration = SimDuration(1);
    /// One minute (60 s).
    pub const MINUTE: SimDuration = SimDuration(60);
    /// One hour (3 600 s).
    pub const HOUR: SimDuration = SimDuration(3_600);
    /// One day (86 400 s).
    pub const DAY: SimDuration = SimDuration(86_400);
    /// One week (604 800 s).
    pub const WEEK: SimDuration = SimDuration(604_800);

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Construct from whole minutes.
    #[inline]
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60)
    }

    /// Construct from whole hours.
    #[inline]
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600)
    }

    /// Construct from whole days.
    #[inline]
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400)
    }

    /// Length in whole seconds.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Length in seconds as `f64`.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64
    }

    /// `true` when the duration is zero seconds.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction: `None` on underflow.
    #[inline]
    pub fn checked_sub(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(rhs.0).map(SimDuration)
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Saturating difference; `a - b == 0` when `b > a`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = self.saturating_sub(rhs);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        write!(
            f,
            "{}d{:02}:{:02}:{:02}",
            s / 86_400,
            (s / 3_600) % 24,
            (s / 60) % 60,
            s % 60
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_hours(2), SimTime::from_secs(7_200));
        assert_eq!(SimTime::from_days(1), SimTime::from_secs(86_400));
        assert_eq!(SimDuration::from_mins(3), SimDuration::from_secs(180));
        assert_eq!(SimDuration::from_hours(1), SimDuration::HOUR);
        assert_eq!(SimDuration::from_days(7), SimDuration::WEEK);
    }

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(100);
        let d = SimDuration::from_secs(40);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_secs(10);
        let late = SimTime::from_secs(50);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn addition_saturates_at_max() {
        let t = SimTime::MAX;
        assert_eq!(t + SimDuration::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn bucket_indices() {
        assert_eq!(SimTime::from_secs(0).hour_index(), 0);
        assert_eq!(SimTime::from_secs(3_599).hour_index(), 0);
        assert_eq!(SimTime::from_secs(3_600).hour_index(), 1);
        assert_eq!(SimTime::from_days(2).day_index(), 2);
        assert_eq!((SimTime::from_days(2) - SimDuration::SECOND).day_index(), 1);
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(SimDuration::HOUR * 24, SimDuration::DAY);
        assert_eq!(SimDuration::DAY / 24, SimDuration::HOUR);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_secs(90_061); // 1d 01:01:01
        assert_eq!(t.to_string(), "1d01:01:01");
        assert_eq!(SimDuration::from_secs(42).to_string(), "42s");
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(9);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let x = SimDuration::from_secs(5);
        let y = SimDuration::from_secs(9);
        assert_eq!(x.min(y), x);
        assert_eq!(x.max(y), y);
    }
}
