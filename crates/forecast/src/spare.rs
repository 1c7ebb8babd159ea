//! The spare-server decision (Section IV, Eq. 8).
//!
//! Every control period `T` the simulator keeps powered the non-idle PMs
//! plus
//!
//! ```text
//! N_spare(t, t+T) = 0                                        if n_arr ≤ n_dep
//!                   ⌈(n_arr − n_dep) / max(N_ave(t), 1)⌉     otherwise
//! ```
//!
//! where `n_arr` is the 95th-percentile arrival forecast
//! (`P(Λ(t,t+T) > n_arr) ≤ ε`, ε = 0.05), `n_dep` the scheduled departures,
//! and `N_ave(t)` the running average number of VMs per non-idle PM,
//! refreshed after every dynamic-migration pass (DESIGN.md I12).
//!
//! [`decide`] is the whole decision, a pure function of one tick's
//! [`TickInputs`]; [`power_plan`] picks the PMs that enforce its target.

use crate::leemis::LeemisEstimator;
use crate::poisson;
use dvmp_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Controller parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpareConfig {
    /// Control period `T`.
    pub control_period: SimDuration,
    /// QoS tail bound ε: at most this fraction of requests may queue.
    pub qos_epsilon: f64,
    /// Seasonality cycle for the arrival estimator (the paper's evaluation
    /// uses daily seasonality).
    pub cycle: SimDuration,
    /// Floor of the fallback arrival forecast (requests per control
    /// period) used before the first seasonality cycle completes. The
    /// warm-up forecast is `max(bootstrap_arrivals, arrivals observed in
    /// the previous control period)`, so the controller adapts within the
    /// first cycle instead of flying blind for a whole day.
    pub bootstrap_arrivals: f64,
    /// When `true` (default) the forecast is floored by the arrivals
    /// observed in the *previous* control period even after the estimator
    /// is trained. The Leemis estimate assumes the configured seasonality;
    /// a day-over-day surge (the paper's "workload spike") violates that
    /// assumption, and this reactive floor is what lets the controller
    /// keep the QoS bound through it at the cost of a little extra energy
    /// in the hour after a burst.
    pub react_to_recent: bool,
}

impl Default for SpareConfig {
    fn default() -> Self {
        SpareConfig {
            control_period: SimDuration::HOUR,
            qos_epsilon: 0.05,
            cycle: SimDuration::DAY,
            bootstrap_arrivals: 5.0,
            react_to_recent: true,
        }
    }
}

impl SpareConfig {
    /// Rejects parameters the controller cannot run on. A zero control
    /// period would reschedule the tick at the same instant forever.
    pub fn validate(&self) -> Result<(), String> {
        let b = self.bootstrap_arrivals;
        let rule = if self.control_period.is_zero() {
            "control_period must be positive"
        } else if !(self.qos_epsilon > 0.0 && self.qos_epsilon < 1.0) {
            "qos_epsilon must be in (0,1)"
        } else if self.cycle.is_zero() {
            "cycle must be positive"
        } else if !(b >= 0.0 && b.is_finite()) {
            "bootstrap_arrivals must be finite and non-negative"
        } else {
            return Ok(());
        };
        Err(format!("spare.{rule}, got {self:?}"))
    }
}

/// The facts one control tick decides on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickInputs {
    /// `Λ̂(t, t+T)`; `None` until the estimator's first cycle completes.
    pub lambda_hat: Option<f64>,
    /// Arrivals since the previous tick.
    pub recent_arrivals: u64,
    /// Scheduled departures `n_departure(t, t+T)`.
    pub n_departure: u64,
    /// `N_ave(t)` as last refreshed.
    pub n_ave: f64,
}

/// One tick's decision and the inputs it was made from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpareDecision {
    /// What the tick knew; `N_ave` is recorded before its clamp to 1.
    pub inputs: TickInputs,
    /// Expected arrivals λ after the I10 floor.
    pub lambda: f64,
    /// The ε-quantile arrival count `n_arrival`.
    pub n_arrival: u64,
    /// The spare-server target `N_spare` (Eq. 8).
    pub spare: u64,
}

/// The Section IV decision for one tick.
pub fn decide(cfg: &SpareConfig, inputs: &TickInputs) -> SpareDecision {
    let recent = inputs.recent_arrivals as f64;
    let lambda = match inputs.lambda_hat {
        Some(est) if cfg.react_to_recent => est.max(recent),
        Some(est) => est,
        None => recent.max(cfg.bootstrap_arrivals),
    };
    let n_arrival = poisson::upper_quantile(lambda, cfg.qos_epsilon);
    let spare = if n_arrival <= inputs.n_departure {
        0
    } else {
        ((n_arrival - inputs.n_departure) as f64 / inputs.n_ave.max(1.0)).ceil() as u64
    };
    SpareDecision {
        inputs: *inputs,
        lambda,
        n_arrival,
        spare,
    }
}

/// `(off PMs to boot, idle on PMs to shut down)` so that `target` idle
/// PMs remain, from candidates listed in ascending id. Boots take the
/// lowest ids, shutdowns the highest (the paper fleet's slow nodes). A
/// plan that switches nothing pulls no id and allocates nothing.
pub fn power_plan<Id>(
    target: u64,
    idle_available: usize,
    off: impl Iterator<Item = Id>,
    on_idle: impl DoubleEndedIterator<Item = Id>,
) -> (Vec<Id>, Vec<Id>) {
    let target = target as usize;
    match idle_available.checked_sub(target) {
        None => (off.take(target - idle_available).collect(), Vec::new()),
        Some(excess) => (Vec::new(), on_idle.rev().take(excess).collect()),
    }
}

/// The state Eq. 8 keeps between ticks, and the last decision.
#[derive(Debug, Clone)]
pub struct SpareServerController {
    cfg: SpareConfig,
    estimator: LeemisEstimator,
    n_ave: f64,
    /// Arrivals since the last tick (the I10 floor's input).
    since_last: u64,
    decision: Option<SpareDecision>,
}

impl SpareServerController {
    /// Creates the controller; panics if [`SpareConfig::validate`] fails.
    pub fn new(cfg: SpareConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let estimator = LeemisEstimator::new(cfg.cycle);
        SpareServerController {
            cfg,
            estimator,
            n_ave: 1.0,
            since_last: 0,
            decision: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SpareConfig {
        &self.cfg
    }

    /// Feeds one arrival into the estimator.
    pub fn record_arrival(&mut self, t: SimTime) {
        self.estimator.record_arrival(t);
        self.since_last += 1;
    }

    /// Refreshes `N_ave(t)` — called after every dynamic migration pass
    /// (Section IV: "dynamically updated after each dynamic VM migration
    /// process"). Ignored while the system is empty.
    pub fn update_n_ave(&mut self, running_vms: usize, non_idle_pms: usize) {
        if non_idle_pms > 0 {
            self.n_ave = running_vms as f64 / non_idle_pms as f64;
        }
    }

    /// The last tick's decision; its `spare` is the target in force.
    pub fn decision(&self) -> Option<SpareDecision> {
        self.decision
    }

    /// Runs the tick at `now`: rolls the estimator, [`decide`]s on this
    /// tick's inputs and keeps the decision.
    pub fn tick(&mut self, now: SimTime, n_departure: u64) -> SpareDecision {
        self.estimator.roll_to(now);
        let inputs = TickInputs {
            lambda_hat: self.estimator.expected_in(now, self.cfg.control_period),
            recent_arrivals: std::mem::take(&mut self.since_last),
            n_departure,
            n_ave: self.n_ave,
        };
        let decision = decide(&self.cfg, &inputs);
        dvmp_obs::note_spare_decision(decision.n_arrival, decision.spare);
        self.decision = Some(decision);
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> SpareServerController {
        SpareServerController::new(SpareConfig::default())
    }

    /// Inputs with a trained estimate `lambda_hat` and nothing else.
    fn trained(lambda_hat: f64) -> TickInputs {
        TickInputs {
            lambda_hat: Some(lambda_hat),
            recent_arrivals: 0,
            n_departure: 0,
            n_ave: 1.0,
        }
    }

    /// Feeds a uniform day of `per_day` arrivals into the controller and
    /// completes the cycle. Flushes the recent-arrival counter the way the
    /// hourly control loop would, so subsequent decisions reflect the
    /// estimator alone.
    fn feed_uniform_day(c: &mut SpareServerController, per_day: u64) {
        let step = 86_400 / per_day;
        for i in 0..per_day {
            c.record_arrival(SimTime::from_secs(i * step));
        }
        c.estimator.roll_to(SimTime::from_days(1));
        c.since_last = 0;
    }

    #[test]
    fn bootstrap_forecast_is_used_before_first_cycle() {
        let d = controller().tick(SimTime::from_secs(100), 0);
        assert_eq!(d.lambda, 5.0, "bootstrap floor λ");
        assert!(d.spare > 0);
    }

    #[test]
    fn warmup_adapts_to_observed_arrivals() {
        let mut c = controller();
        // 30 arrivals in the first hour — still no completed cycle.
        for i in 0..30u64 {
            c.record_arrival(SimTime::from_secs(i * 100));
        }
        let d = c.tick(SimTime::from_hours(1), 0);
        assert_eq!(d.lambda, 30.0, "adaptive warm-up uses the last period");
        // Counter resets after each decision.
        let d = c.tick(SimTime::from_hours(2), 0);
        assert_eq!(d.lambda, 5.0, "back to floor");
        assert_eq!(c.decision(), Some(d), "the tick keeps its decision");
    }

    #[test]
    fn warmup_floor_is_the_larger_of_recent_and_bootstrap() {
        let cfg = SpareConfig::default();
        let warm = |recent| TickInputs {
            lambda_hat: None,
            recent_arrivals: recent,
            ..trained(0.0)
        };
        assert_eq!(decide(&cfg, &warm(3)).lambda, 5.0);
        assert_eq!(decide(&cfg, &warm(30)).lambda, 30.0);
    }

    #[test]
    fn trained_floor_applies_only_when_reacting_to_recent() {
        let surge = TickInputs {
            recent_arrivals: 40,
            ..trained(10.0)
        };
        let calm = TickInputs {
            recent_arrivals: 4,
            ..trained(10.0)
        };
        let mut cfg = SpareConfig::default();
        assert_eq!(decide(&cfg, &surge).lambda, 40.0);
        assert_eq!(decide(&cfg, &calm).lambda, 10.0);
        cfg.react_to_recent = false;
        assert_eq!(decide(&cfg, &surge).lambda, 10.0);
    }

    #[test]
    fn more_departures_than_arrivals_means_no_spares() {
        let mut c = controller();
        feed_uniform_day(&mut c, 240); // 10/hour
        assert_eq!(c.tick(SimTime::from_days(1), 1_000).spare, 0);
        let cfg = SpareConfig::default();
        let n_arrival = decide(&cfg, &trained(10.0)).n_arrival;
        let at = |n_departure| {
            let inputs = TickInputs {
                n_departure,
                ..trained(10.0)
            };
            decide(&cfg, &inputs).spare
        };
        assert_eq!(at(n_arrival), 0, "n_arrival = n_departure");
        assert_eq!(at(n_arrival - 1), 1);
    }

    #[test]
    fn eq8_division_by_n_ave() {
        let mut c = controller();
        feed_uniform_day(&mut c, 2_400); // 100/hour
        c.update_n_ave(400, 100); // 4 VMs per PM
        let d = c.tick(SimTime::from_days(1), 0);
        // λ ≈ 100 → n_arrival ≈ 117; spare = ceil(117/4) ≈ 30.
        assert!((d.lambda - 100.0).abs() < 8.0, "λ = {}", d.lambda);
        assert!(d.n_arrival > d.lambda as u64);
        assert_eq!(d.inputs.n_ave, 4.0);
        assert_eq!(d.spare, ((d.n_arrival as f64) / 4.0).ceil() as u64);
    }

    #[test]
    fn eq8_rounds_up_and_clamps_n_ave_to_one() {
        let cfg = SpareConfig::default();
        let n_arrival = decide(&cfg, &trained(10.0)).n_arrival;
        let spare = |n_ave: f64| {
            let inputs = TickInputs {
                n_ave,
                ..trained(10.0)
            };
            decide(&cfg, &inputs).spare
        };
        let n = n_arrival as f64;
        assert_eq!(spare(n / 2.0), 2, "exactly 2.0 stays 2");
        assert_eq!(spare(n / 2.01), 3, "2.01 rounds up to 3");
        assert_eq!(spare(0.25), n_arrival, "N_ave < 1 divides by 1");
    }

    #[test]
    fn departures_offset_arrivals() {
        let mut c = controller();
        feed_uniform_day(&mut c, 2_400);
        c.update_n_ave(100, 100); // 1 VM per PM
        let with_deps = c.tick(SimTime::from_days(1), 50).spare;
        let without = c.tick(SimTime::from_days(1), 0).spare;
        assert_eq!(without - with_deps, 50, "each departure frees one VM slot");
    }

    #[test]
    fn n_ave_update_ignores_empty_system() {
        let mut c = controller();
        c.update_n_ave(0, 0);
        assert_eq!(c.n_ave, 1.0, "unchanged default");
        c.update_n_ave(12, 3);
        assert_eq!(c.n_ave, 4.0);
        c.update_n_ave(5, 0);
        assert_eq!(c.n_ave, 4.0, "zero non-idle PMs leaves N_ave alone");
    }

    #[test]
    fn quiet_nights_need_fewer_spares_than_busy_afternoons() {
        let mut c = controller();
        // Day with all arrivals between 12:00 and 16:00.
        let start = 12 * 3_600u64;
        for i in 0..960u64 {
            c.record_arrival(SimTime::from_secs(start + i * 15));
        }
        c.estimator.roll_to(SimTime::from_days(1));
        c.since_last = 0; // the hourly loop would have flushed these
        c.update_n_ave(100, 100);
        let night = c.tick(SimTime::from_days(1) + SimDuration::from_hours(2), 0);
        let afternoon = c.tick(SimTime::from_days(1) + SimDuration::from_hours(13), 0);
        assert!(
            afternoon.spare > night.spare * 3,
            "afternoon {afternoon:?} vs night {night:?}"
        );
    }

    #[test]
    fn surge_floor_reacts_within_one_period() {
        let surge = |react_to_recent| {
            let mut c = SpareServerController::new(SpareConfig {
                react_to_recent,
                ..SpareConfig::default()
            });
            feed_uniform_day(&mut c, 240); // calm history: 10/hour
                                           // A 20× burst lands in the current period.
            for i in 0..200u64 {
                c.record_arrival(SimTime::from_days(1) + SimDuration::from_secs(i * 10));
            }
            c.update_n_ave(100, 100);
            c.tick(SimTime::from_days(1) + SimDuration::HOUR, 0).lambda
        };
        let lambda = surge(true);
        assert!(
            lambda >= 200.0,
            "reactive floor must dominate the calm estimate: λ = {lambda}"
        );
        // With the floor disabled the stale estimate rules.
        assert!(surge(false) < 20.0);
    }

    #[test]
    fn tighter_qos_keeps_more_spares() {
        let mk = |eps: f64| {
            let mut c = SpareServerController::new(SpareConfig {
                qos_epsilon: eps,
                ..SpareConfig::default()
            });
            feed_uniform_day(&mut c, 2_400);
            c.update_n_ave(100, 100);
            c.tick(SimTime::from_days(1), 0).spare
        };
        assert!(mk(0.01) > mk(0.20));
    }

    #[test]
    fn power_plan_boots_lowest_off_ids_first() {
        let off = [2u32, 5, 7];
        let (boot, shutdown) = power_plan(4, 2, off.into_iter(), [1u32, 3].into_iter());
        assert_eq!(boot, [2, 5]);
        assert!(shutdown.is_empty());
        let (boot, _) = power_plan(9, 2, off.into_iter(), [1u32, 3].into_iter());
        assert_eq!(boot, off, "never more than exist");
    }

    #[test]
    fn power_plan_shuts_highest_idle_ids_first() {
        let on_idle = [1u32, 3, 4, 8];
        let (boot, shutdown) = power_plan(1, 4, [0u32].into_iter(), on_idle.into_iter());
        assert_eq!(shutdown, [8, 4, 3]);
        assert!(boot.is_empty());
        let (_, shutdown) = power_plan(0, 9, [0u32].into_iter(), on_idle.into_iter());
        assert_eq!(shutdown, [8, 4, 3, 1], "never more than exist");
    }

    /// Candidates that must not be pulled.
    struct Untouched;

    impl Iterator for Untouched {
        type Item = u32;
        fn next(&mut self) -> Option<u32> {
            panic!("pulled a candidate")
        }
    }

    impl DoubleEndedIterator for Untouched {
        fn next_back(&mut self) -> Option<u32> {
            panic!("pulled a candidate")
        }
    }

    #[test]
    fn power_plan_on_target_pulls_no_candidate() {
        let (boot, shutdown) = power_plan(3, 3, Untouched, Untouched);
        assert!(boot.is_empty() && shutdown.is_empty());
    }

    #[test]
    #[should_panic(expected = "qos_epsilon")]
    fn rejects_invalid_epsilon() {
        let mut cfg = SpareConfig::default();
        cfg.qos_epsilon = 0.0;
        SpareServerController::new(cfg);
    }
}
