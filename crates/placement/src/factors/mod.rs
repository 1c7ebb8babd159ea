//! The factors of the joint mapping probability
//! `p_ij = p^res · p^vir · p^rel · p^eff` (Section III-B), in the form the
//! production planner evaluates them: per class rather than per entry.
//!
//! - [`vir`]: Eq. 3, the virtualization-overhead penalty;
//! - [`eff`]: Eq. 4's utilization levels (slot count, level boundaries);
//! - [`class_table`]: the per-class constants of `p^vir` and `p^eff` the
//!   compressed planner's superclasses are built on.
//!
//! `p^res` is the planner's feasibility test and `p^rel` the PM's score;
//! the extension factors the paper advertises are
//! [`KeyedFactor`](crate::KeyedFactor)s. The whole product is stated
//! once, entry by entry, in the test-only executable specification
//! (`crates/placement/spec/spec.rs`), which the planner is held
//! bit-identical to.

pub mod class_table;
pub mod eff;
pub mod vir;
