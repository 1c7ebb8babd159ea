//! # dvmp-metrics
//!
//! Measurement and reporting for simulation runs.
//!
//! - [`energy`]: exact energy integration from the fleet's instantaneous
//!   power draw (the quantity behind Figs. 4 and 5);
//! - [`qos`]: request queue-wait accounting against the paper's "fewer
//!   than 5 % of VM requests have to wait" bound;
//! - [`recorder`]: the event-driven [`SimulationRecorder`] the simulator
//!   feeds, and the immutable [`RunReport`] it produces (active servers per
//!   hour — Fig. 3 — plus power, energy, QoS and migration counts);
//! - [`report`]: plain-text table and CSV rendering for the figure
//!   binaries;
//! - [`sla`]: saturated-PM integration for overbooked fleets (the run's
//!   SLA-violation exposure in saturated-PM · seconds);
//! - [`violation`]: structured invariant-violation reporting for the
//!   checked-mode oracle ([`Violation`], [`OracleSummary`]).

pub mod energy;
pub mod qos;
pub mod recorder;
pub mod report;
pub mod sla;
pub mod violation;

pub use energy::EnergyMeter;
pub use qos::{QosSummary, QosTracker};
pub use recorder::{
    ObsReport, PowerGroups, RunMeta, RunReport, SimulationRecorder, RUN_REPORT_SCHEMA,
};
pub use sla::SaturationMeter;
pub use violation::{Invariant, OracleSummary, Violation};
