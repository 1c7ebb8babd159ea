//! # dvmp-placement
//!
//! VM placement policies: the paper's statistical dynamic placement scheme
//! (Section III) and the static baselines it is evaluated against
//! (Section V).
//!
//! - [`policy`]: the [`PlacementPolicy`] trait every scheme implements, the
//!   read-only [`PlacementView`] the simulator exposes to them, and the
//!   [`Migration`] decision type.
//! - [`factors`]: the four constituent probabilities of Eq. 2–5 —
//!   resource feasibility, virtualization overhead, server reliability and
//!   energy efficiency — each individually testable.
//! - [`matrix`]: the M×N joint [`ProbabilityMatrix`] (Eq. 1) the dense
//!   reference builds, with the two-row/one-column refresh it applies
//!   after each move, and its column-normalized view.
//! - [`plan`]: a PM's planning inputs (one definition, read by both
//!   planners) and the what-if state the dense reference plans against
//!   without mutating the real datacenter.
//! - [`dynamic`]: Algorithm 1 — the migration-round loop bounded by
//!   `MIG_round` and `MIG_threshold` — on the class-compressed planner,
//!   the one planner the scheme runs.
//! - [`reference`](mod@reference): [`DenseReference`], the same scheme
//!   over the dense matrix rebuilt every pass — the definition the
//!   production planner is tested bit-identical against.
//! - [`firstfit`] / [`bestfit`] / [`worstfit`] / [`random`]: static
//!   baselines;
//! - [`threshold`]: the watermark-based *dynamic* baseline from the
//!   paper's related-work discussion (its critique of \[21\]), so the
//!   "thresholds don't lead to the most energy savings" claim is
//!   measurable.

pub mod bestfit;
mod compressed;
pub mod config;
pub mod dynamic;
pub mod factors;
pub mod firstfit;
pub mod matrix;
pub mod plan;
pub mod policy;
pub mod random;
pub mod reference;
pub mod threshold;
pub mod worstfit;

pub use bestfit::BestFit;
pub use config::{CapacityBasis, DynamicConfig, OverheadMode};
pub use dynamic::DynamicPlacement;
pub use firstfit::FirstFit;
pub use matrix::ProbabilityMatrix;
pub use policy::{Migration, PlacementPolicy, PlacementView};
pub use random::RandomFit;
pub use reference::DenseReference;
pub use threshold::{ThresholdConfig, ThresholdPolicy};
pub use worstfit::WorstFit;
