//! Leemis's nonparametric estimator of the cumulative intensity function.
//!
//! Reference: L. M. Leemis, *Nonparametric Estimation of the Cumulative
//! Intensity Function for a Nonhomogeneous Poisson Process*, Management
//! Science 37(7), 1991 — the paper’s citation \[25\].
//!
//! Given `k` observed realizations of an NHPP on a cycle `(0, S]` (here:
//! past days of arrivals, assuming a daily seasonality), superpose all
//! `n` event times `t_(1) ≤ … ≤ t_(n)` and set `t_(0) = 0`,
//! `t_(n+1) = S`. For `t ∈ (t_(i), t_(i+1)]`:
//!
//! ```text
//! Λ̂(t) = ( n / ((n+1)·k) ) · ( i + (t − t_(i)) / (t_(i+1) − t_(i)) )
//! ```
//!
//! a piecewise-linear, strictly increasing estimate with `Λ̂(S) = n/k`
//! (the average events per cycle) that converges uniformly to the true
//! `Λ` as `k → ∞`.
//!
//! The spare-server controller queries `Λ̂(τ, τ+T)` for the *next* control
//! period by mapping wall-clock time onto the cycle, wrapping across the
//! cycle boundary when needed.

use dvmp_simcore::{SimDuration, SimTime};

/// Streaming Leemis estimator with a fixed cycle length.
///
/// ```
/// use dvmp_forecast::LeemisEstimator;
/// use dvmp_simcore::{SimDuration, SimTime};
///
/// let mut est = LeemisEstimator::new(SimDuration::DAY);
/// // Day 0: sixty arrivals in the first hour, then quiet.
/// for i in 0..60 {
///     est.record_arrival(SimTime::from_secs(i * 60));
/// }
/// est.roll_to(SimTime::from_days(1));
///
/// // Forecast for day 1: the first hour is busy, the afternoon is not.
/// let busy = est.expected_in(SimTime::from_days(1), SimDuration::HOUR).unwrap();
/// let quiet = est
///     .expected_in(SimTime::from_days(1) + SimDuration::from_hours(14), SimDuration::HOUR)
///     .unwrap();
/// assert!(busy > 40.0 && quiet < 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct LeemisEstimator {
    cycle_secs: u64,
    /// Sorted offsets (seconds within the cycle) of all events from
    /// *completed* cycles.
    merged: Vec<u64>,
    /// Events of the cycle currently in progress, buffered until it
    /// completes (kept in arrival order, hence sorted).
    current: Vec<u64>,
    /// Number of completed cycles `k`, which is also the index of the
    /// cycle currently receiving events.
    completed: u64,
}

impl LeemisEstimator {
    /// Creates an estimator with the given cycle (the paper's seasonality
    /// unit; the evaluation uses one day).
    pub fn new(cycle: SimDuration) -> Self {
        assert!(!cycle.is_zero(), "cycle must be positive");
        LeemisEstimator {
            cycle_secs: cycle.as_secs(),
            merged: Vec::new(),
            current: Vec::new(),
            completed: 0,
        }
    }

    /// Records one arrival at absolute time `t`. Arrivals must be fed in
    /// non-decreasing time order.
    pub fn record_arrival(&mut self, t: SimTime) {
        self.roll_to(t);
        let offset = t.as_secs() % self.cycle_secs;
        debug_assert!(self.current.last().map_or(true, |&last| last <= offset));
        self.current.push(offset);
    }

    /// Informs the estimator that time has advanced to `t` (completing any
    /// elapsed cycles even if they had no arrivals). Called by
    /// [`record_arrival`](Self::record_arrival) automatically; the
    /// controller also calls it on control-period boundaries.
    pub fn roll_to(&mut self, t: SimTime) {
        let cycle_idx = t.as_secs() / self.cycle_secs;
        while self.completed < cycle_idx {
            let buffered = std::mem::take(&mut self.current);
            self.merge_cycle(buffered);
            self.completed += 1;
        }
    }

    /// Merges a completed cycle's sorted offsets into `merged`.
    fn merge_cycle(&mut self, events: Vec<u64>) {
        if events.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.merged.len() + events.len());
        let (mut a, mut b) = (&self.merged[..], &events[..]);
        while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
            if x <= y {
                merged.push(x);
                a = &a[1..];
            } else {
                merged.push(y);
                b = &b[1..];
            }
        }
        merged.extend_from_slice(a);
        merged.extend_from_slice(b);
        self.merged = merged;
    }

    /// `Λ̂(offset)` — estimated cumulative events per cycle up to `offset`
    /// seconds into the cycle. `None` until at least one cycle completes.
    pub fn cumulative_at_offset(&self, offset_secs: u64) -> Option<f64> {
        if self.completed == 0 {
            return None;
        }
        let n = self.merged.len();
        let k = self.completed as f64;
        let s = self.cycle_secs.min(offset_secs);
        // Leemis indexes t_(i) ≤ s < t_(i+1): i events lie at or before s.
        let i = self.merged.partition_point(|&e| e <= s);
        let t_i = if i == 0 { 0 } else { self.merged[i - 1] };
        let t_next = self.merged.get(i).copied().unwrap_or(self.cycle_secs);
        let frac = if t_next > t_i {
            (s - t_i) as f64 / (t_next - t_i) as f64
        } else {
            0.0
        };
        let scale = n as f64 / ((n as f64 + 1.0) * k);
        Some(scale * (i as f64 + frac))
    }

    /// Estimated expected arrivals in the absolute window `[from,
    /// from + dur)`, wrapping across cycle boundaries. `None` until at
    /// least one cycle completes.
    pub fn expected_in(&self, from: SimTime, dur: SimDuration) -> Option<f64> {
        if self.completed == 0 {
            return None;
        }
        let per_cycle = self.cumulative_at_offset(self.cycle_secs)?;
        let full_cycles = dur.as_secs() / self.cycle_secs;
        let mut total = per_cycle * full_cycles as f64;

        let rem = dur.as_secs() % self.cycle_secs;
        if rem > 0 {
            let start = from.as_secs() % self.cycle_secs;
            let end = start + rem;
            if end <= self.cycle_secs {
                total += self.cumulative_at_offset(end)? - self.cumulative_at_offset(start)?;
            } else {
                // Wraps: tail of this cycle + head of the next.
                total += per_cycle - self.cumulative_at_offset(start)?;
                total += self.cumulative_at_offset(end - self.cycle_secs)?;
            }
        }
        Some(total.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nhpp::PiecewiseRate;
    use dvmp_simcore::rng::{stream_rng, Stream};

    fn day() -> SimDuration {
        SimDuration::DAY
    }

    #[test]
    fn no_estimate_before_first_cycle_completes() {
        let mut e = LeemisEstimator::new(day());
        e.record_arrival(SimTime::from_secs(100));
        assert_eq!(
            e.expected_in(SimTime::from_secs(200), SimDuration::HOUR),
            None
        );
        assert_eq!(e.completed, 0);
    }

    #[test]
    fn single_cycle_estimate_has_leemis_scaling() {
        let mut e = LeemisEstimator::new(day());
        // 3 arrivals on day 0, then roll into day 1.
        for s in [10_000u64, 20_000, 30_000] {
            e.record_arrival(SimTime::from_secs(s));
        }
        e.roll_to(SimTime::from_days(1));
        assert_eq!(e.completed, 1);
        assert_eq!(e.merged.len(), 3);
        // Λ̂(S) = n/k · n/(n+1) · (n+1)/n = ... full-cycle value is n/k · (i+frac)
        // with i = n, frac = 1 at the boundary? i counts events ≤ S = all 3,
        // t_i = 30_000, t_next = S, frac = 1 at offset S.
        let full = e.cumulative_at_offset(86_400).unwrap();
        // scale = 3/(4·1), value = scale·(3 + 1) = 3.
        assert!((full - 3.0).abs() < 1e-9, "Λ̂(S) = {full}");
        // Midpoint between the first two events interpolates linearly.
        let mid = e.cumulative_at_offset(15_000).unwrap();
        // i = 1 (one event ≤ 15000), frac = 0.5 → 0.75·1.5 = 1.125.
        assert!((mid - 1.125).abs() < 1e-9, "Λ̂ = {mid}");
    }

    #[test]
    fn estimate_is_monotone_within_cycle() {
        let mut e = LeemisEstimator::new(day());
        for s in [5_000u64, 40_000, 41_000, 80_000] {
            e.record_arrival(SimTime::from_secs(s));
        }
        e.roll_to(SimTime::from_days(1));
        let mut last = -1.0;
        for off in (0..=86_400).step_by(3_600) {
            let v = e.cumulative_at_offset(off).unwrap();
            assert!(v >= last, "Λ̂ must be non-decreasing");
            last = v;
        }
    }

    #[test]
    fn empty_cycles_estimate_zero() {
        let mut e = LeemisEstimator::new(day());
        e.roll_to(SimTime::from_days(2));
        assert_eq!(e.completed, 2);
        assert_eq!(
            e.expected_in(SimTime::from_days(2), SimDuration::HOUR),
            Some(0.0)
        );
    }

    #[test]
    fn averaging_across_cycles_divides_by_k() {
        let mut e = LeemisEstimator::new(day());
        // Day 0: 4 events; day 1: no events.
        for s in [1_000u64, 2_000, 3_000, 4_000] {
            e.record_arrival(SimTime::from_secs(s));
        }
        e.roll_to(SimTime::from_days(2));
        assert_eq!(e.completed, 2);
        let full = e.cumulative_at_offset(86_400).unwrap();
        // n = 4 over k = 2 cycles → Λ̂(S) = 2.
        assert!((full - 2.0).abs() < 1e-9, "Λ̂(S) = {full}");
    }

    #[test]
    fn expected_in_wraps_across_midnight() {
        let mut e = LeemisEstimator::new(day());
        // All mass in the first hour of the day.
        for s in 0..60u64 {
            e.record_arrival(SimTime::from_secs(s * 60));
        }
        e.roll_to(SimTime::from_days(1));
        // Window 23:30 → 00:30 of the next day must capture ~half of the
        // first-hour mass.
        let from = SimTime::from_days(1) - SimDuration::from_mins(30);
        let est = e.expected_in(from, SimDuration::HOUR).unwrap();
        let head = e
            .expected_in(SimTime::from_days(1), SimDuration::from_mins(30))
            .unwrap();
        assert!(est >= head, "wrap window includes the head of the next day");
        assert!(head > 20.0, "first 30 min hold ~half the events: {head}");
    }

    #[test]
    fn multi_cycle_window_scales_linearly() {
        let mut e = LeemisEstimator::new(day());
        for s in [1_000u64, 50_000] {
            e.record_arrival(SimTime::from_secs(s));
        }
        e.roll_to(SimTime::from_days(1));
        let one = e
            .expected_in(SimTime::from_days(1), SimDuration::DAY)
            .unwrap();
        let three = e
            .expected_in(SimTime::from_days(1), SimDuration::from_days(3))
            .unwrap();
        assert!((three - 3.0 * one).abs() < 1e-9);
    }

    #[test]
    fn converges_to_true_intensity() {
        // Ground truth: 24-hour piecewise rate, 600 events/day mean.
        let daily: Vec<f64> = (0..24)
            .map(|h| 25.0 * (1.0 + 0.5 * ((h as f64 - 14.0) / 24.0 * std::f64::consts::TAU).cos()))
            .collect();
        let truth = PiecewiseRate::hourly(&daily);
        let mut rng = stream_rng(99, Stream::Custom(7));
        let mut est = LeemisEstimator::new(day());
        let k = 40;
        for c in 0..k {
            for t in truth.sample_exact(&mut rng) {
                est.record_arrival(SimTime::from_secs(c * 86_400 + t.as_secs()));
            }
            est.roll_to(SimTime::from_days(c + 1));
        }
        // Compare Λ̂ against the true cumulative at several offsets.
        for off_h in [3u64, 9, 14, 20, 24] {
            let truth_v = truth.cumulative(SimTime::ZERO, SimTime::from_hours(off_h));
            let est_v = est.cumulative_at_offset(off_h * 3_600).unwrap();
            let rel = (est_v - truth_v).abs() / truth_v.max(1.0);
            assert!(
                rel < 0.08,
                "offset {off_h}h: Λ̂ = {est_v:.1}, Λ = {truth_v:.1} (rel {rel:.3})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cycle must be positive")]
    fn rejects_zero_cycle() {
        LeemisEstimator::new(SimDuration::ZERO);
    }
}
