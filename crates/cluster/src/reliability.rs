//! Server reliability: per-PM scores and an optional failure process.
//!
//! Section III-B-3 gives each PM a reliability probability `p_j^rel` derived
//! from "its life time, chance of failure and so on", and states that when a
//! PM fails all of its VMs are reallocated. The paper does not pin down a
//! distribution, so this module offers:
//!
//! - [`ReliabilityModel`]: how per-PM scores are assigned (uniform per
//!   class, jittered, or age-decaying), and
//! - [`FailureProcess`]: an exponential (Poisson) failure sampler whose
//!   per-PM rate is tied to the reliability score, used by the failure-
//!   injection scenarios to exercise the `rel` factor and the "PM fails →
//!   VMs become fresh requests" trigger.

use crate::datacenter::Datacenter;
use crate::pm::PmId;
use dvmp_simcore::rng::{stream_rng, Stream};
use dvmp_simcore::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How per-PM reliability scores are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReliabilityModel {
    /// Keep each class's configured score as-is.
    PerClass,
    /// Jitter each PM's score uniformly within `±spread` of its class score
    /// (clamped to `(0, 1]`), so machines of one class are distinguishable.
    Jittered {
        /// Half-width of the uniform jitter.
        spread: f64,
    },
    /// Age-decaying: each PM draws an age uniformly in
    /// `[0, max_age_years]` and its class score decays multiplicatively by
    /// `(1 − annual_decay)` per year of age, clamped to `(0, 1]`. This is
    /// the "life time" driver Section III-B-3 names: a brand-new machine
    /// keeps its class score, an old one fails more. Like `Jittered`, the
    /// resulting scores form a continuum per class, which is exactly the
    /// heterogeneity that fragments exact superclass keys.
    AgeDecaying {
        /// Oldest possible machine, in years.
        max_age_years: f64,
        /// Fractional reliability loss per year of age (e.g. `0.01`).
        annual_decay: f64,
    },
}

impl ReliabilityModel {
    /// Applies the model to every PM in `dc` using the scenario `seed`, as
    /// one setup edit ([`Datacenter::edit_pms`]) before a run.
    pub fn apply(&self, dc: &mut Datacenter, seed: u64) {
        match *self {
            ReliabilityModel::PerClass => {}
            ReliabilityModel::Jittered { spread } => {
                let mut rng = stream_rng(seed, Stream::Reliability);
                dc.edit_pms(|pms| {
                    for pm in pms {
                        let jitter: f64 = rng.gen_range(-spread..=spread);
                        pm.reliability = (pm.reliability + jitter).clamp(1e-6, 1.0);
                    }
                });
            }
            ReliabilityModel::AgeDecaying {
                max_age_years,
                annual_decay,
            } => {
                assert!(max_age_years >= 0.0 && max_age_years.is_finite());
                assert!((0.0..1.0).contains(&annual_decay));
                let mut rng = stream_rng(seed, Stream::Reliability);
                dc.edit_pms(|pms| {
                    for pm in pms {
                        let age: f64 = rng.gen_range(0.0..=max_age_years);
                        let decay = (1.0 - annual_decay).powf(age);
                        pm.reliability = (pm.reliability * decay).clamp(1e-6, 1.0);
                    }
                });
            }
        }
    }
}

/// Exponential failure sampler.
///
/// A PM with reliability `r` fails at rate `base_rate · (1 − r)`: a
/// perfectly reliable machine (r = 1) never fails, and lower scores fail
/// proportionally more often — keeping the score and the observed behaviour
/// consistent, which is what lets the `rel` placement factor actually pay
/// off in the failure-injection experiments.
#[derive(Debug)]
pub struct FailureProcess {
    /// Failure rate (per second) of a hypothetical r = 0 machine.
    base_rate: f64,
    rng: StdRng,
}

impl FailureProcess {
    /// Creates the process; `base_rate` is per simulated second.
    pub fn new(base_rate: f64, seed: u64) -> Self {
        assert!(base_rate >= 0.0 && base_rate.is_finite());
        FailureProcess {
            base_rate,
            rng: stream_rng(seed, Stream::Failures),
        }
    }

    /// Samples the next failure instant for `pm` after `now`, or `None` if
    /// the PM's effective rate is zero.
    pub fn next_failure(&mut self, dc: &Datacenter, pm: PmId, now: SimTime) -> Option<SimTime> {
        let r = dc.pm(pm).reliability;
        let rate = self.base_rate * (1.0 - r);
        if rate <= 0.0 {
            return None;
        }
        // Inverse-CDF exponential draw.
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let dt = -u.ln() / rate;
        // Clamp to a representable duration; ceil so dt > 0.
        let secs = dt.ceil().min(u64::MAX as f64) as u64;
        Some(now + SimDuration::from_secs(secs.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::FleetBuilder;
    use crate::pm::PmClass;

    fn fleet() -> Datacenter {
        FleetBuilder::new()
            .add_class(PmClass::paper_fast(), 4, 0.9)
            .initially_on(true)
            .build()
    }

    #[test]
    fn per_class_model_is_identity() {
        let mut dc = fleet();
        ReliabilityModel::PerClass.apply(&mut dc, 42);
        assert!(dc.pms().iter().all(|p| p.reliability == 0.9));
    }

    #[test]
    fn jittered_model_stays_in_bounds_and_varies() {
        let mut dc = fleet();
        ReliabilityModel::Jittered { spread: 0.05 }.apply(&mut dc, 42);
        let scores: Vec<f64> = dc.pms().iter().map(|p| p.reliability).collect();
        assert!(scores.iter().all(|&r| r > 0.0 && r <= 1.0));
        assert!(scores.iter().all(|&r| (r - 0.9).abs() <= 0.05 + 1e-12));
        assert!(
            scores.windows(2).any(|w| w[0] != w[1]),
            "jitter should differentiate PMs"
        );
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = fleet();
        let mut b = fleet();
        ReliabilityModel::Jittered { spread: 0.05 }.apply(&mut a, 7);
        ReliabilityModel::Jittered { spread: 0.05 }.apply(&mut b, 7);
        for (pa, pb) in a.pms().iter().zip(b.pms()) {
            assert_eq!(pa.reliability, pb.reliability);
        }
    }

    #[test]
    fn age_decaying_model_bounds_and_varies() {
        let mut dc = fleet();
        let model = ReliabilityModel::AgeDecaying {
            max_age_years: 5.0,
            annual_decay: 0.01,
        };
        model.apply(&mut dc, 42);
        let scores: Vec<f64> = dc.pms().iter().map(|p| p.reliability).collect();
        // Decay only lowers the score, bounded by the oldest possible age.
        let floor = 0.9 * 0.99f64.powf(5.0);
        assert!(scores.iter().all(|&r| r <= 0.9 && r >= floor - 1e-12));
        assert!(
            scores.windows(2).any(|w| w[0] != w[1]),
            "random ages should differentiate PMs"
        );
        // Deterministic per seed.
        let mut again = fleet();
        model.apply(&mut again, 42);
        for (pa, pb) in dc.pms().iter().zip(again.pms()) {
            assert_eq!(pa.reliability, pb.reliability);
        }
        // A fleet of brand-new machines keeps its class score.
        let mut fresh = fleet();
        ReliabilityModel::AgeDecaying {
            max_age_years: 0.0,
            annual_decay: 0.5,
        }
        .apply(&mut fresh, 42);
        assert!(fresh.pms().iter().all(|p| p.reliability == 0.9));
    }

    #[test]
    fn perfect_reliability_never_fails() {
        let mut dc = fleet();
        dc.edit_pms(|pms| pms[0].reliability = 1.0);
        let mut fp = FailureProcess::new(1e-3, 42);
        assert_eq!(fp.next_failure(&dc, PmId(0), SimTime::ZERO), None);
    }

    #[test]
    fn zero_base_rate_never_fails() {
        let dc = fleet();
        let mut fp = FailureProcess::new(0.0, 42);
        assert_eq!(fp.next_failure(&dc, PmId(0), SimTime::ZERO), None);
    }

    #[test]
    fn failures_are_in_the_future_and_deterministic() {
        let dc = fleet();
        let mut a = FailureProcess::new(1e-4, 9);
        let mut b = FailureProcess::new(1e-4, 9);
        let now = SimTime::from_secs(1_000);
        for _ in 0..10 {
            let fa = a.next_failure(&dc, PmId(1), now).unwrap();
            let fb = b.next_failure(&dc, PmId(1), now).unwrap();
            assert_eq!(fa, fb);
            assert!(fa > now);
        }
    }

    #[test]
    fn lower_reliability_fails_sooner_on_average() {
        let mut dc = fleet();
        dc.edit_pms(|pms| {
            pms[0].reliability = 0.5;
            pms[1].reliability = 0.99;
        });
        let mut fp = FailureProcess::new(1e-4, 11);
        let now = SimTime::ZERO;
        let avg = |fp: &mut FailureProcess, dc: &Datacenter, pm: PmId| -> f64 {
            (0..400)
                .map(|_| fp.next_failure(dc, pm, now).unwrap().as_secs_f64())
                .sum::<f64>()
                / 400.0
        };
        let unreliable = avg(&mut fp, &dc, PmId(0));
        let reliable = avg(&mut fp, &dc, PmId(1));
        assert!(
            unreliable * 5.0 < reliable,
            "r=0.5 should fail far sooner on average ({unreliable} vs {reliable})"
        );
    }
}
