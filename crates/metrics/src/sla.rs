//! SLA-violation accounting for overbooked fleets.
//!
//! With overbooking enabled a PM may admit more reservations than its
//! physical capacity; whenever occupancy actually exceeds the hardware
//! (`used > physical capacity` on a powered PM) every hosted VM is being
//! throttled and the provider is in breach. The simulator reports the
//! count of such *saturated* PMs at every state-changing event; the meter
//! integrates the resulting step function exactly, giving the run's
//! SLA-violation exposure in saturated-PM · seconds.

use dvmp_simcore::series::StepSeries;
use dvmp_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// Integrating saturated-PM meter (the SLA analogue of
/// [`EnergyMeter`](crate::energy::EnergyMeter)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SaturationMeter {
    series: StepSeries,
}

impl Default for SaturationMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl SaturationMeter {
    /// A meter starting with zero saturated PMs.
    pub fn new() -> Self {
        SaturationMeter {
            series: StepSeries::new(0.0),
        }
    }

    /// Records that `saturated` PMs exceed physical capacity from `at`
    /// onward.
    pub fn record(&mut self, at: SimTime, saturated: usize) {
        self.series.record(at, saturated as f64);
    }

    /// Saturated-PM count in effect at `t`.
    pub fn saturated_at(&self, t: SimTime) -> f64 {
        self.series.value_at(t)
    }

    /// Total SLA-violation exposure over `[0, horizon)`, in
    /// saturated-PM · seconds. Zero on any run that never exceeded
    /// physical capacity (every non-overbooked run).
    pub fn violation_seconds(&self, horizon: SimTime) -> f64 {
        self.series.integral(SimTime::ZERO, horizon)
    }

    /// Peak simultaneous saturated-PM count over `[0, horizon)`.
    pub fn peak(&self, horizon: SimTime) -> f64 {
        self.series.max_over(SimTime::ZERO, horizon)
    }

    /// The raw saturation step series (for custom analyses).
    pub fn series(&self) -> &StepSeries {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmp_simcore::SimDuration;

    #[test]
    fn clean_run_integrates_to_zero() {
        let mut m = SaturationMeter::new();
        m.record(SimTime::ZERO, 0);
        assert_eq!(m.violation_seconds(SimTime::from_days(7)), 0.0);
        assert_eq!(m.peak(SimTime::from_days(7)), 0.0);
    }

    #[test]
    fn saturation_window_integrates_exactly() {
        let mut m = SaturationMeter::new();
        m.record(SimTime::ZERO, 0);
        m.record(SimTime::from_secs(100), 3);
        m.record(SimTime::from_secs(400), 1);
        m.record(SimTime::from_secs(600), 0);
        // 3 PMs × 300 s + 1 PM × 200 s.
        let total = m.violation_seconds(SimTime::from_hours(1));
        assert!((total - 1_100.0).abs() < 1e-9, "{total}");
        assert_eq!(m.peak(SimTime::from_hours(1)), 3.0);
        assert_eq!(m.saturated_at(SimTime::from_secs(500)), 1.0);
    }

    #[test]
    fn hourly_buckets_split_the_integral() {
        let mut m = SaturationMeter::new();
        m.record(SimTime::from_mins(30), 2);
        m.record(SimTime::from_mins(90), 0);
        let hourly = m
            .series()
            .bucket_integrals(SimDuration::HOUR, SimTime::from_hours(2));
        assert_eq!(hourly.len(), 2);
        assert!((hourly[0] - 3_600.0).abs() < 1e-9, "{hourly:?}");
        assert!((hourly[1] - 3_600.0).abs() < 1e-9, "{hourly:?}");
        let total = m.violation_seconds(SimTime::from_hours(2));
        assert!((hourly.iter().sum::<f64>() - total).abs() < 1e-9);
    }
}
