//! # dvmp-simcore
//!
//! Deterministic discrete-event simulation substrate used by every other
//! crate in the `dvmp` workspace.
//!
//! The crate provides:
//!
//! - [`time`]: second-resolution simulation time ([`SimTime`]) and duration
//!   ([`SimDuration`]) types with saturating arithmetic and calendar-bucket
//!   helpers (hour / day / week).
//! - [`event`]: [`EventQueue`], the future-event list behind every
//!   [`Scheduler`]: a binary heap with lazy cancellation whose ties in time
//!   fire in scheduling order, so simulations are bit-reproducible.
//! - [`engine`]: a minimal event loop driving a user-supplied [`World`]
//!   state machine.
//! - [`rng`]: seed-derivation utilities so that independent stochastic
//!   components consume independent, reproducible random streams.
//! - [`stats`]: online statistics (Welford mean/variance, histograms, P²
//!   quantile estimation) used for workload characterisation and reports.
//! - [`series`]: time-weighted step-function series with exact integration
//!   and hourly/daily bucketing, the backbone of the energy accounting.
//!
//! Nothing in this crate knows about VMs or PMs; it is a reusable kernel.

pub mod dist;
pub mod engine;
pub mod event;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use engine::{Engine, Scheduler, World};
pub use event::{EventEntry, EventId, EventQueue};
pub use time::{SimDuration, SimTime};
