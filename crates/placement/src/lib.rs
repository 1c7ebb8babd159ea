//! # dvmp-placement
//!
//! VM placement policies: the paper's statistical dynamic placement scheme
//! (Section III) and the static baselines it is evaluated against
//! (Section V).
//!
//! - [`policy`]: the [`PlacementPolicy`] trait every scheme implements, the
//!   read-only [`PlacementView`] the simulator exposes to them, the
//!   [`Migration`] decision type and the [`KeyedFactor`] extension point.
//! - [`factors`]: the per-class form of the factors of Eq. 2–5 the
//!   production planner evaluates.
//! - [`plan`]: a PM's planning inputs, read by the planner in one place.
//! - [`dynamic`]: Algorithm 1 — the migration-round loop bounded by
//!   `MIG_round` and `MIG_threshold` — on the class-compressed planner,
//!   the one planner the scheme runs.
//! - [`firstfit`] / [`bestfit`] / [`worstfit`] / [`random`]: static
//!   baselines;
//! - [`threshold`]: the watermark-based *dynamic* baseline from the
//!   paper's related-work discussion (its critique of \[21\]), so the
//!   "thresholds don't lead to the most energy savings" claim is
//!   measurable.
//!
//! The scheme's definition — Eq. 1's M×N matrix, rebuilt every round of
//! Algorithm 1 — is an executable specification compiled only into test
//! targets (`spec/spec.rs`); the planner is tested bit-identical to it.

#[cfg(test)]
extern crate self as dvmp_placement;

pub mod bestfit;
mod compressed;
pub mod config;
pub mod dynamic;
pub mod factors;
pub mod firstfit;
pub mod plan;
pub mod policy;
pub mod random;
#[cfg(test)]
#[path = "../spec/spec.rs"]
mod spec;
#[cfg(test)]
#[path = "../spec/tests.rs"]
mod spec_tests;
pub mod threshold;
pub mod worstfit;

pub use bestfit::BestFit;
pub use config::{CapacityBasis, DynamicConfig, OverheadMode};
pub use dynamic::DynamicPlacement;
pub use firstfit::FirstFit;
pub use policy::{KeyedFactor, Migration, PlacementPolicy, PlacementView};
pub use random::RandomFit;
pub use threshold::{ThresholdConfig, ThresholdPolicy};
pub use worstfit::WorstFit;
