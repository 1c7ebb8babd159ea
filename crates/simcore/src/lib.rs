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
//! - [`event`] and [`calendar`]: a cancellable calendar-queue (bucketed
//!   timing-wheel) future-event list with O(1) amortized schedule/pop and
//!   a *stable* total order — ties in time are broken by insertion
//!   sequence so that simulations are bit-reproducible. It is the backing
//!   store of every [`Scheduler`].
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

pub mod calendar;
pub mod dist;
pub mod engine;
pub mod event;
mod queue;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use calendar::CalendarQueue;
pub use engine::{Engine, Scheduler, World};
pub use event::{EventEntry, EventId};
pub use time::{SimDuration, SimTime};
