//! Non-homogeneous Poisson process machinery.
//!
//! Supplies the ground truth against which the Leemis estimator is
//! validated: an exact piecewise-constant intensity with its cumulative
//! integral (Eq. 6), plus an exact sampler — per-interval Poisson counts
//! with uniform placement.

use dvmp_simcore::dist::poisson as poisson_draw;
use dvmp_simcore::{SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A piecewise-constant rate function λ(t) in events/second.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PiecewiseRate {
    /// Segment boundaries `b_0 < b_1 < …` as instants; segment `i` covers
    /// `[b_i, b_{i+1})`. Before `b_0` and after the last boundary the rate
    /// is zero.
    boundaries: Vec<SimTime>,
    /// `rates[i]` applies on `[boundaries[i], boundaries[i+1])`;
    /// `rates.len() == boundaries.len() - 1`.
    rates: Vec<f64>,
}

impl PiecewiseRate {
    /// Builds a rate function.
    ///
    /// # Panics
    /// Panics unless boundaries are strictly increasing, there is one more
    /// boundary than rates, and all rates are finite and non-negative.
    pub fn new(boundaries: Vec<SimTime>, rates: Vec<f64>) -> Self {
        assert!(
            boundaries.len() == rates.len() + 1,
            "need exactly one more boundary than rates"
        );
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly increasing"
        );
        assert!(
            rates.iter().all(|r| r.is_finite() && *r >= 0.0),
            "rates must be finite and non-negative"
        );
        PiecewiseRate { boundaries, rates }
    }

    /// A constant rate over `[0, horizon)`.
    pub fn constant(rate: f64, horizon: SimDuration) -> Self {
        PiecewiseRate::new(vec![SimTime::ZERO, SimTime::ZERO + horizon], vec![rate])
    }

    /// Hourly rates over consecutive hours starting at t = 0.
    pub fn hourly(rates_per_hour: &[f64]) -> Self {
        let boundaries = (0..=rates_per_hour.len() as u64)
            .map(SimTime::from_hours)
            .collect();
        // Convert events/hour to events/second.
        let rates = rates_per_hour.iter().map(|r| r / 3_600.0).collect();
        PiecewiseRate::new(boundaries, rates)
    }

    /// λ(t).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        if self.boundaries.is_empty() {
            return 0.0;
        }
        let idx = self.boundaries.partition_point(|&b| b <= t);
        if idx == 0 || idx > self.rates.len() {
            0.0
        } else {
            self.rates[idx - 1]
        }
    }

    /// Exact cumulative intensity `Λ(from, to) = ∫ λ dt` (Eq. 6).
    pub fn cumulative(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let mut acc = 0.0;
        for (i, &rate) in self.rates.iter().enumerate() {
            let seg_start = self.boundaries[i].max(from);
            let seg_end = self.boundaries[i + 1].min(to);
            if seg_end > seg_start {
                acc += rate * (seg_end - seg_start).as_secs_f64();
            }
        }
        acc
    }

    /// Exact sampler for the piecewise-constant case: per-segment Poisson
    /// counts with uniform placement. Returns sorted event times.
    pub fn sample_exact<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<SimTime> {
        let mut events = Vec::new();
        for (i, &rate) in self.rates.iter().enumerate() {
            let start = self.boundaries[i].as_secs();
            let end = self.boundaries[i + 1].as_secs();
            let lambda = rate * (end - start) as f64;
            let n = poisson_draw(rng, lambda);
            for _ in 0..n {
                events.push(SimTime::from_secs(rng.gen_range(start..end)));
            }
        }
        events.sort_unstable();
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmp_simcore::rng::{stream_rng, Stream};

    #[test]
    fn rate_lookup_and_zero_outside() {
        let r = PiecewiseRate::hourly(&[3_600.0, 7_200.0]);
        assert_eq!(r.rate_at(SimTime::from_secs(0)), 1.0);
        assert_eq!(r.rate_at(SimTime::from_secs(3_599)), 1.0);
        assert_eq!(r.rate_at(SimTime::from_secs(3_600)), 2.0);
        assert_eq!(r.rate_at(SimTime::from_hours(2)), 0.0);
    }

    #[test]
    fn cumulative_integrates_exactly() {
        let r = PiecewiseRate::hourly(&[3_600.0, 7_200.0]);
        assert_eq!(
            r.cumulative(SimTime::ZERO, SimTime::from_hours(2)),
            10_800.0
        );
        // Half of the first hour + half of the second.
        assert_eq!(
            r.cumulative(SimTime::from_secs(1_800), SimTime::from_secs(5_400)),
            1_800.0 + 3_600.0
        );
        // Degenerate and out-of-support windows.
        assert_eq!(
            r.cumulative(SimTime::from_hours(2), SimTime::from_hours(3)),
            0.0
        );
        assert_eq!(
            r.cumulative(SimTime::from_hours(1), SimTime::from_hours(1)),
            0.0
        );
    }

    #[test]
    fn exact_sampler_matches_intensity() {
        let r = PiecewiseRate::hourly(&[100.0, 400.0, 50.0]);
        let mut rng = stream_rng(5, Stream::Custom(1));
        let mut totals = [0usize; 3];
        let reps = 200;
        for _ in 0..reps {
            for e in r.sample_exact(&mut rng) {
                totals[e.hour_index() as usize] += 1;
            }
        }
        let means: Vec<f64> = totals.iter().map(|&c| c as f64 / reps as f64).collect();
        assert!((means[0] - 100.0).abs() < 5.0, "{means:?}");
        assert!((means[1] - 400.0).abs() < 10.0, "{means:?}");
        assert!((means[2] - 50.0).abs() < 4.0, "{means:?}");
    }

    #[test]
    fn exact_sampler_returns_sorted_in_support() {
        let r = PiecewiseRate::hourly(&[500.0]);
        let mut rng = stream_rng(7, Stream::Custom(2));
        let ev = r.sample_exact(&mut rng);
        assert!(ev.windows(2).all(|w| w[0] <= w[1]));
        assert!(ev.iter().all(|&t| t < SimTime::from_hours(1)));
    }

    #[test]
    #[should_panic(expected = "one more boundary")]
    fn rejects_mismatched_lengths() {
        PiecewiseRate::new(vec![SimTime::ZERO], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_boundaries() {
        PiecewiseRate::new(
            vec![SimTime::from_secs(5), SimTime::from_secs(5)],
            vec![1.0],
        );
    }
}
