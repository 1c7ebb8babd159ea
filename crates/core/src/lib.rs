//! # dvmp — Dynamic Virtual Machine Placement
//!
//! A from-scratch reproduction of *Dynamic Virtual Machine Placement for
//! Cloud Computing Environments* (Zheng & Cai, ICPP 2014): an event-driven
//! datacenter simulator in which VM requests arrive, are placed by a
//! pluggable policy, live-migrate under the paper's statistical dynamic
//! consolidation scheme, and depart — while a spare-server controller
//! decides how many machines stay powered and an energy meter integrates
//! the fleet's power draw.
//!
//! ## Quickstart
//!
//! ```
//! use dvmp::prelude::*;
//!
//! // The paper's setup at 1-day scale: Table II fleet, synthetic
//! // LPC-like workload, hourly control periods.
//! let scenario = Scenario::paper(42).with_days(1);
//! let report = scenario.run(Box::new(DynamicPlacement::paper_default()));
//! assert!(report.total_energy_kwh > 0.0);
//! assert!(report.qos.meets_paper_slo());
//! ```
//!
//! ## Crate map
//!
//! | concern | crate |
//! |---|---|
//! | event loop, time, RNG streams, stats | `dvmp-simcore` |
//! | PMs, VMs, fleet, power, reliability | `dvmp-cluster` |
//! | traces, SWF, synthetic generator | `dvmp-workload` |
//! | the placement scheme + baselines | `dvmp-placement` |
//! | NHPP forecasting, spare servers | `dvmp-forecast` |
//! | energy/QoS recording, reports | `dvmp-metrics` |
//! | the simulator, scenarios, experiments | this crate |

pub mod config;
pub mod experiment;
pub mod oracle;
pub mod scenario;
pub mod simulator;

pub use config::{FailureConfig, SimConfig};
pub use oracle::{Oracle, ReferenceModel};
pub use scenario::Scenario;
pub use simulator::{ResizeRequest, Simulation};

/// Convenient glob import for examples and downstream users.
pub mod prelude {
    pub use crate::config::{FailureConfig, SimConfig};
    pub use crate::experiment::{compare_policies, sweep_scenarios, PolicyFactory};
    pub use crate::oracle::Oracle;
    pub use crate::scenario::Scenario;
    pub use crate::simulator::{ResizeRequest, Simulation};
    pub use dvmp_cluster::datacenter::{paper_fleet, Datacenter, FleetBuilder};
    pub use dvmp_cluster::pm::{PmClass, PmId};
    pub use dvmp_cluster::resources::{OverbookRatios, ResourceVector};
    pub use dvmp_cluster::vm::{VmId, VmSpec};
    pub use dvmp_forecast::spare::SpareConfig;
    pub use dvmp_metrics::recorder::RunReport;
    pub use dvmp_placement::{
        BestFit, CapacityBasis, DynamicConfig, DynamicPlacement, FirstFit, Migration, OverheadMode,
        PlacementPolicy, PlacementView, RandomFit, ThresholdConfig, ThresholdPolicy, WorstFit,
    };
    pub use dvmp_simcore::{SimDuration, SimTime};
    pub use dvmp_workload::{
        ElasticityProfile, LpcProfile, SyntheticGenerator, Trace, WorkloadStats,
    };
}
