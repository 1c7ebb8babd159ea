//! Time-weighted step-function series.
//!
//! A [`StepSeries`] records a piecewise-constant signal (e.g. "number of
//! active servers" or "instantaneous power draw in watts") by logging value
//! changes. It supports exact integration over any window — which is exactly
//! what energy accounting needs (∫ P dt) — plus hourly/daily bucket
//! averages for the Fig. 3–5 style reports.
//!
//! [`CountSeries`] is the companion for point events (arrivals per day).

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A piecewise-constant real-valued signal over simulation time.
///
/// ```
/// use dvmp_simcore::series::StepSeries;
/// use dvmp_simcore::{SimDuration, SimTime};
///
/// // A fleet drawing 480 W, jumping to 640 W after half an hour.
/// let mut power = StepSeries::new(480.0);
/// power.record(SimTime::from_mins(30), 640.0);
///
/// // Exact energy over the first hour: 480·1800 + 640·1800 J.
/// let joules = power.integral(SimTime::ZERO, SimTime::from_hours(1));
/// assert_eq!(joules, (480.0 + 640.0) * 1800.0);
/// assert_eq!(power.mean_over(SimTime::ZERO, SimTime::from_hours(1)), 560.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepSeries {
    /// Change points: `(time, new_value)`. Times are non-decreasing; a
    /// repeated time overwrites (last write wins within one instant).
    points: Vec<(SimTime, f64)>,
    initial: f64,
}

impl StepSeries {
    /// A series holding `initial` from t = 0 until the first recorded change.
    pub fn new(initial: f64) -> Self {
        StepSeries {
            points: Vec::new(),
            initial,
        }
    }

    /// Records that the signal takes `value` from `at` onward.
    ///
    /// # Panics
    /// Panics if `at` precedes the last recorded change (the simulation
    /// clock is monotone, so this indicates a bug in the caller).
    pub fn record(&mut self, at: SimTime, value: f64) {
        if let Some(&(last_t, last_v)) = self.points.last() {
            assert!(at >= last_t, "StepSeries::record out of order");
            if last_t == at {
                // Same instant: overwrite.
                let n = self.points.len();
                self.points[n - 1].1 = value;
                return;
            }
            if last_v == value {
                return; // No change; keep the series minimal.
            }
        } else if self.initial == value {
            return;
        }
        self.points.push((at, value));
    }

    /// The signal's value at time `t`.
    pub fn value_at(&self, t: SimTime) -> f64 {
        match self.points.partition_point(|&(pt, _)| pt <= t) {
            0 => self.initial,
            i => self.points[i - 1].1,
        }
    }

    /// The most recently recorded value (or the initial value).
    pub fn last_value(&self) -> f64 {
        self.points.last().map_or(self.initial, |&(_, v)| v)
    }

    /// Exact integral of the signal over `[from, to)`, in value·seconds.
    pub fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut cur_t = from;
        let mut cur_v = self.value_at(from);
        let start = self.points.partition_point(|&(pt, _)| pt <= from);
        for &(pt, pv) in &self.points[start..] {
            if pt >= to {
                break;
            }
            acc += cur_v * (pt - cur_t).as_secs_f64();
            cur_t = pt;
            cur_v = pv;
        }
        acc += cur_v * (to - cur_t).as_secs_f64();
        acc
    }

    /// Time-weighted mean over `[from, to)`.
    pub fn mean_over(&self, from: SimTime, to: SimTime) -> f64 {
        let span = (to - from).as_secs_f64();
        if span == 0.0 {
            return self.value_at(from);
        }
        self.integral(from, to) / span
    }

    /// Time-weighted means over consecutive buckets of width `bucket`
    /// covering `[0, horizon)`. The last bucket may be partial.
    pub fn bucket_means(&self, bucket: SimDuration, horizon: SimTime) -> Vec<f64> {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        while t < horizon {
            let end = (t + bucket).min(horizon);
            out.push(self.mean_over(t, end));
            t = end;
        }
        out
    }

    /// Integrals over consecutive buckets of width `bucket` covering
    /// `[0, horizon)`, in value·seconds.
    pub fn bucket_integrals(&self, bucket: SimDuration, horizon: SimTime) -> Vec<f64> {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        while t < horizon {
            let end = (t + bucket).min(horizon);
            out.push(self.integral(t, end));
            t = end;
        }
        out
    }

    /// Maximum recorded value over `[from, to)` (including the value
    /// carried into the window).
    pub fn max_over(&self, from: SimTime, to: SimTime) -> f64 {
        let mut m = self.value_at(from);
        let start = self.points.partition_point(|&(pt, _)| pt <= from);
        for &(pt, pv) in &self.points[start..] {
            if pt >= to {
                break;
            }
            m = m.max(pv);
        }
        m
    }

    /// Iterates `(time, value)` change points.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied()
    }
}

/// Point-event counter with bucketing (e.g. arrivals per hour / day).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CountSeries {
    times: Vec<SimTime>,
}

impl CountSeries {
    /// Empty counter.
    pub fn new() -> Self {
        CountSeries { times: Vec::new() }
    }

    /// Records one event at `at`.
    ///
    /// # Panics
    /// Panics if `at` precedes the previous event.
    pub fn record(&mut self, at: SimTime) {
        if let Some(&last) = self.times.last() {
            assert!(at >= last, "CountSeries::record out of order");
        }
        self.times.push(at);
    }

    /// Total events recorded.
    pub fn total(&self) -> usize {
        self.times.len()
    }

    /// The raw event times.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_at_respects_changes() {
        let mut s = StepSeries::new(1.0);
        s.record(SimTime::from_secs(10), 3.0);
        s.record(SimTime::from_secs(20), 2.0);
        assert_eq!(s.value_at(SimTime::ZERO), 1.0);
        assert_eq!(s.value_at(SimTime::from_secs(9)), 1.0);
        assert_eq!(s.value_at(SimTime::from_secs(10)), 3.0);
        assert_eq!(s.value_at(SimTime::from_secs(15)), 3.0);
        assert_eq!(s.value_at(SimTime::from_secs(99)), 2.0);
        assert_eq!(s.last_value(), 2.0);
    }

    #[test]
    fn integral_is_exact() {
        let mut s = StepSeries::new(0.0);
        s.record(SimTime::from_secs(10), 5.0);
        s.record(SimTime::from_secs(30), 1.0);
        // [0,10): 0, [10,30): 5*20=100, [30,40): 1*10=10
        assert_eq!(s.integral(SimTime::ZERO, SimTime::from_secs(40)), 110.0);
        // Partial window [5, 15): 0*5 + 5*5 = 25
        assert_eq!(
            s.integral(SimTime::from_secs(5), SimTime::from_secs(15)),
            25.0
        );
        // Degenerate windows
        assert_eq!(
            s.integral(SimTime::from_secs(5), SimTime::from_secs(5)),
            0.0
        );
        assert_eq!(
            s.integral(SimTime::from_secs(9), SimTime::from_secs(3)),
            0.0
        );
    }

    #[test]
    fn mean_over_window() {
        let mut s = StepSeries::new(2.0);
        s.record(SimTime::from_secs(50), 4.0);
        // [0,100): 2*50 + 4*50 = 300 → mean 3
        assert_eq!(s.mean_over(SimTime::ZERO, SimTime::from_secs(100)), 3.0);
    }

    #[test]
    fn same_instant_overwrites() {
        let mut s = StepSeries::new(0.0);
        s.record(SimTime::from_secs(10), 1.0);
        s.record(SimTime::from_secs(10), 7.0);
        assert_eq!(s.value_at(SimTime::from_secs(10)), 7.0);
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    fn redundant_records_are_dropped() {
        let mut s = StepSeries::new(5.0);
        s.record(SimTime::from_secs(1), 5.0);
        s.record(SimTime::from_secs(2), 5.0);
        assert_eq!(s.iter().count(), 0);
        s.record(SimTime::from_secs(3), 6.0);
        s.record(SimTime::from_secs(4), 6.0);
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_record_panics() {
        let mut s = StepSeries::new(0.0);
        s.record(SimTime::from_secs(10), 1.0);
        s.record(SimTime::from_secs(5), 2.0);
    }

    #[test]
    fn bucket_means_and_integrals() {
        let mut s = StepSeries::new(1.0);
        s.record(SimTime::from_hours(1), 3.0);
        let means = s.bucket_means(SimDuration::HOUR, SimTime::from_hours(2));
        assert_eq!(means, vec![1.0, 3.0]);
        let ints = s.bucket_integrals(SimDuration::HOUR, SimTime::from_hours(2));
        assert_eq!(ints, vec![3_600.0, 10_800.0]);
    }

    #[test]
    fn partial_last_bucket() {
        let s = StepSeries::new(2.0);
        let means = s.bucket_means(SimDuration::HOUR, SimTime::from_secs(5_400));
        assert_eq!(means.len(), 2);
        assert_eq!(means, vec![2.0, 2.0]);
        let ints = s.bucket_integrals(SimDuration::HOUR, SimTime::from_secs(5_400));
        assert_eq!(ints, vec![7_200.0, 3_600.0]);
    }

    #[test]
    fn max_over_window() {
        let mut s = StepSeries::new(1.0);
        s.record(SimTime::from_secs(10), 9.0);
        s.record(SimTime::from_secs(20), 2.0);
        assert_eq!(s.max_over(SimTime::ZERO, SimTime::from_secs(100)), 9.0);
        assert_eq!(
            s.max_over(SimTime::from_secs(20), SimTime::from_secs(100)),
            2.0
        );
        // Window that starts inside the 9.0 plateau.
        assert_eq!(
            s.max_over(SimTime::from_secs(15), SimTime::from_secs(18)),
            9.0
        );
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn count_series_rejects_out_of_order() {
        let mut c = CountSeries::new();
        c.record(SimTime::from_secs(10));
        c.record(SimTime::from_secs(9));
    }
}
