//! Simulator configuration.

use dvmp_forecast::spare::SpareConfig;
use dvmp_metrics::PowerGroups;
use dvmp_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Optional PM-failure injection (exercises the reliability factor and the
/// "PM fails → its VMs become fresh requests" trigger of Section III-C).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureConfig {
    /// Failure rate (per second) of a hypothetical reliability-0 machine;
    /// a PM with reliability `r` fails at `base_rate · (1 − r)`.
    pub base_rate: f64,
    /// Time from failure to the machine returning in the `Off` state.
    pub repair_time: SimDuration,
}

/// Everything the simulator needs besides the fleet, the workload and the
/// policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Simulation/report horizon.
    pub horizon: SimTime,
    /// Spare-server control (Section IV). `None` keeps every PM powered
    /// for the whole run — the classic static-provisioning assumption,
    /// used by the `ablation_spare` experiment.
    pub spare: Option<SpareConfig>,
    /// Failure injection; `None` (default) matches the paper's evaluation.
    pub failures: Option<FailureConfig>,
    /// Optional fleet partition for per-group energy accounting in the
    /// report (per region in the geo extension, per class for hardware
    /// breakdowns).
    pub power_groups: Option<PowerGroups>,
    /// Scenario master seed (fans out to per-component RNG streams).
    pub seed: u64,
    /// Checked mode: audit every event with the release-grade invariant
    /// oracle and reference model (DESIGN.md §9), attaching an
    /// [`OracleSummary`](dvmp_metrics::OracleSummary) to the report.
    /// Costs a constant factor per event; off by default.
    #[serde(default)]
    pub checked: bool,
    /// Observability summary: arm the obs layer (counters + flight
    /// recorder) of the thread running the simulation, attach an
    /// [`ObsReport`](dvmp_metrics::ObsReport) with the run's counter
    /// totals and sample the per-control-interval telemetry store. Off by
    /// default; tracing-disabled runs stay bit-identical (DESIGN.md §10).
    #[serde(default)]
    pub obs_summary: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            horizon: SimTime::from_days(7),
            spare: Some(SpareConfig::default()),
            failures: None,
            power_groups: None,
            seed: 42,
            checked: false,
            obs_summary: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_evaluation() {
        let c = SimConfig::default();
        assert_eq!(c.horizon, SimTime::from_days(7));
        let spare = c.spare.expect("spare control on by default");
        assert_eq!(spare.control_period, SimDuration::HOUR);
        assert_eq!(spare.qos_epsilon, 0.05);
        assert!(c.failures.is_none());
        assert!(!c.checked, "checked mode is opt-in");
    }
}
