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
//! - [`event`] and [`queue`]: a cancellable priority event queue with a
//!   *stable* total order — ties in time are broken by insertion sequence so
//!   that simulations are bit-reproducible.
//! - [`calendar`]: a calendar-queue (bucketed timing-wheel) implementation
//!   of the same future-event list with O(1) amortized schedule/pop, and
//!   the backing store of every [`Scheduler`] (the heap queue is its
//!   reference).
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
pub mod queue;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use calendar::CalendarQueue;
pub use engine::{Engine, Scheduler, World};
pub use event::{EventEntry, EventId};
pub use queue::EventQueue;
pub use time::{SimDuration, SimTime};
