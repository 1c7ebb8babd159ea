//! Time-varying electricity prices.
//!
//! A [`PriceSignal`] is a periodic step function in $/kWh: real
//! time-of-use tariffs are published exactly like this (hour-granular
//! rates repeating daily). Signals can be phase-shifted to model regions
//! in different timezones — the source of the geographic arbitrage the
//! paper's future work targets.

use dvmp_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A periodic piecewise-constant price, $/kWh.
///
/// ```
/// use dvmp_geo::PriceSignal;
/// use dvmp_simcore::SimTime;
///
/// let east = PriceSignal::time_of_use(0.06, 0.12, 0.30);
/// let west = east.clone().shifted_hours(12);
///
/// // East's 18:00 peak is west's off-peak window.
/// let t = SimTime::from_hours(18);
/// assert_eq!(east.price_at(t), 0.30);
/// assert!(west.price_at(t) < east.price_at(t));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriceSignal {
    /// Period of the signal in seconds (typically one day).
    period_secs: u64,
    /// Segment boundaries within the period (strictly increasing,
    /// starting at 0); segment `i` covers `[offsets[i], offsets[i+1])`
    /// (the last wraps to the period end).
    offsets: Vec<u64>,
    /// `prices[i]` applies to segment `i`.
    prices: Vec<f64>,
    /// Phase shift in seconds (models timezones): the price at absolute
    /// `t` is looked up at `(t + shift) mod period`.
    shift_secs: u64,
}

impl PriceSignal {
    /// Builds a signal from `(offset-in-period, $/kWh)` breakpoints.
    ///
    /// # Panics
    /// Panics unless offsets start at 0, are strictly increasing, stay
    /// within the period, and all prices are finite and non-negative.
    pub fn new(period: SimDuration, breakpoints: &[(u64, f64)]) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        assert!(!breakpoints.is_empty(), "need at least one breakpoint");
        assert_eq!(breakpoints[0].0, 0, "first breakpoint must be at offset 0");
        assert!(
            breakpoints.windows(2).all(|w| w[0].0 < w[1].0),
            "offsets must be strictly increasing"
        );
        assert!(
            breakpoints.last().expect("non-empty").0 < period.as_secs(),
            "offsets must stay within the period"
        );
        assert!(
            breakpoints.iter().all(|(_, p)| p.is_finite() && *p >= 0.0),
            "prices must be finite and non-negative"
        );
        PriceSignal {
            period_secs: period.as_secs(),
            offsets: breakpoints.iter().map(|&(o, _)| o).collect(),
            prices: breakpoints.iter().map(|&(_, p)| p).collect(),
            shift_secs: 0,
        }
    }

    /// A constant price.
    pub fn flat(price: f64) -> Self {
        PriceSignal::new(SimDuration::DAY, &[(0, price)])
    }

    /// A two-tier daily tariff: `day` $/kWh from 07:00 to 23:00, `night`
    /// otherwise.
    pub fn day_night(day: f64, night: f64) -> Self {
        PriceSignal::new(
            SimDuration::DAY,
            &[(0, night), (7 * 3_600, day), (23 * 3_600, night)],
        )
    }

    /// A three-tier time-of-use tariff: off-peak 23:00–07:00, shoulder
    /// 07:00–17:00 and 21:00–23:00, peak 17:00–21:00.
    pub fn time_of_use(off_peak: f64, shoulder: f64, peak: f64) -> Self {
        PriceSignal::new(
            SimDuration::DAY,
            &[
                (0, off_peak),
                (7 * 3_600, shoulder),
                (17 * 3_600, peak),
                (21 * 3_600, shoulder),
                (23 * 3_600, off_peak),
            ],
        )
    }

    /// The same tariff phase-shifted `hours` later (a region that many
    /// hours *behind*: its local 17:00 peak happens `hours` later in
    /// simulation time).
    pub fn shifted_hours(mut self, hours: u64) -> Self {
        self.shift_secs = (self.shift_secs + self.period_secs - (hours * 3_600) % self.period_secs)
            % self.period_secs;
        self
    }

    /// The price at absolute simulation time `t`.
    pub fn price_at(&self, t: SimTime) -> f64 {
        let local = (t.as_secs() + self.shift_secs) % self.period_secs;
        let idx = self.offsets.partition_point(|&o| o <= local);
        self.prices[idx - 1]
    }

    /// Time-weighted mean price over one period.
    pub fn mean(&self) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.prices.len() {
            let start = self.offsets[i];
            let end = if i + 1 < self.offsets.len() {
                self.offsets[i + 1]
            } else {
                self.period_secs
            };
            acc += self.prices[i] * (end - start) as f64;
        }
        acc / self.period_secs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_constant() {
        let p = PriceSignal::flat(0.10);
        for h in [0u64, 5, 12, 23, 40] {
            assert_eq!(p.price_at(SimTime::from_hours(h)), 0.10);
        }
        assert_eq!(p.mean(), 0.10);
    }

    #[test]
    fn day_night_switches_at_breakpoints() {
        let p = PriceSignal::day_night(0.20, 0.08);
        assert_eq!(p.price_at(SimTime::from_hours(3)), 0.08);
        assert_eq!(p.price_at(SimTime::from_hours(7)), 0.20);
        assert_eq!(p.price_at(SimTime::from_secs(7 * 3_600 - 1)), 0.08);
        assert_eq!(p.price_at(SimTime::from_hours(22)), 0.20);
        assert_eq!(p.price_at(SimTime::from_hours(23)), 0.08);
        // Periodicity.
        assert_eq!(
            p.price_at(SimTime::from_hours(3)),
            p.price_at(SimTime::from_hours(27))
        );
        // Mean: 16 h day + 8 h night.
        let expect = (16.0 * 0.20 + 8.0 * 0.08) / 24.0;
        assert!((p.mean() - expect).abs() < 1e-12);
    }

    #[test]
    fn time_of_use_has_three_tiers() {
        let p = PriceSignal::time_of_use(0.06, 0.12, 0.30);
        assert_eq!(p.price_at(SimTime::from_hours(2)), 0.06);
        assert_eq!(p.price_at(SimTime::from_hours(10)), 0.12);
        assert_eq!(p.price_at(SimTime::from_hours(18)), 0.30);
        assert_eq!(p.price_at(SimTime::from_hours(22)), 0.12);
    }

    #[test]
    fn shift_moves_the_peak_later() {
        let base = PriceSignal::time_of_use(0.06, 0.12, 0.30);
        let west = base.clone().shifted_hours(8);
        // The base peak at 17:00–21:00 must appear at 01:00–05:00 +? No:
        // shifted 8 h later → simulation hour 17+8 = 25 ≡ 1:00 next day.
        assert_eq!(
            west.price_at(SimTime::from_hours(18)),
            base.price_at(SimTime::from_hours(10))
        );
        assert_eq!(
            west.price_at(SimTime::from_hours(17 + 8)),
            0.30,
            "peak lands 8 hours later"
        );
        // Mean is shift-invariant.
        assert!((west.mean() - base.mean()).abs() < 1e-12);
    }

    #[test]
    fn double_shift_composes() {
        let p = PriceSignal::time_of_use(0.06, 0.12, 0.30)
            .shifted_hours(5)
            .shifted_hours(3);
        assert_eq!(p.price_at(SimTime::from_hours(25)), 0.30, "peak at 17+8");
    }

    #[test]
    #[should_panic(expected = "offset 0")]
    fn rejects_missing_zero_breakpoint() {
        PriceSignal::new(SimDuration::DAY, &[(100, 0.1)]);
    }

    #[test]
    #[should_panic(expected = "within the period")]
    fn rejects_out_of_period_offsets() {
        PriceSignal::new(SimDuration::DAY, &[(0, 0.1), (90_000, 0.2)]);
    }
}
