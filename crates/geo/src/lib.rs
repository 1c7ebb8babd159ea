//! # dvmp-geo
//!
//! The paper's stated future work, built on the extension point its
//! Section III-B advertises:
//!
//! > *"we plan to extend our current work to a multiple geographical data
//! > center environment with electricity cost and revenue considerations.
//! > The dynamic behavior of electricity price will be formulated as an
//! > important factor in the dynamic VM migration process. In this work,
//! > VM migrations will be performed not only inside a data center but
//! > also among data centers."*
//!
//! This crate provides:
//!
//! - [`price`]: periodic time-of-use electricity [`PriceSignal`]s
//!   ($/kWh), with day/night and three-tier presets and timezone shifts;
//! - [`topology`]: a [`GeoTopology`] mapping every PM of a combined fleet
//!   to a region, plus the builder that assembles a multi-region fleet
//!   and the matching `PowerGroups` partition for regional accounting;
//! - [`factor`]: two region-keyed [`KeyedFactor`]s plugging into the
//!   dynamic scheme's joint probability — [`PriceFactor`] (prefer machines
//!   in currently cheap regions, `p^cost = cheapest current price / this
//!   region's price`) and [`WanPenaltyFactor`] (discount cross-region
//!   moves, which cost more than LAN migrations). Being keyed, both run on
//!   the production (class-compressed) planner;
//! - [`cost`]: electricity-cost evaluation of a finished run from its
//!   per-region hourly energy.
//!
//! [`KeyedFactor`]: dvmp_placement::KeyedFactor
//! [`PriceFactor`]: factor::PriceFactor
//! [`WanPenaltyFactor`]: factor::WanPenaltyFactor
//! [`PriceSignal`]: price::PriceSignal
//! [`GeoTopology`]: topology::GeoTopology

pub mod cost;
pub mod factor;
pub mod price;
pub mod revenue;
pub mod topology;

pub use cost::{regional_costs, total_cost};
pub use factor::{PriceFactor, WanPenaltyFactor};
pub use price::PriceSignal;
pub use revenue::{ProfitReport, RevenueModel};
pub use topology::{GeoFleetBuilder, GeoTopology, Region};
