//! Multi-region fleet topology.
//!
//! A [`GeoTopology`] records which region every PM of a combined fleet
//! belongs to, and each region's electricity tariff. The
//! [`GeoFleetBuilder`] assembles the combined [`Datacenter`] (regions are
//! contiguous id ranges) together with the topology and the matching
//! [`PowerGroups`] partition, so a run's energy splits per region for
//! cost accounting.

use crate::price::PriceSignal;
use dvmp_cluster::datacenter::{Datacenter, FleetBuilder};
use dvmp_cluster::pm::{PmClass, PmId};
use dvmp_metrics::PowerGroups;
use dvmp_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// One geographic region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Display name ("us-east", "eu-west", ...).
    pub name: String,
    /// The region's electricity tariff.
    pub price: PriceSignal,
}

/// The region map of a combined fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeoTopology {
    regions: Vec<Region>,
    /// PM index → region index.
    assignment: Vec<usize>,
}

impl GeoTopology {
    /// The regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The region index of a PM.
    pub fn region_of(&self, pm: PmId) -> usize {
        self.assignment[pm.0 as usize]
    }

    /// The electricity price at `pm`'s region at time `t`.
    pub fn price_at(&self, pm: PmId, t: SimTime) -> f64 {
        self.regions[self.region_of(pm)].price.price_at(t)
    }

    /// The cheapest price across all regions at time `t`.
    pub fn cheapest_at(&self, t: SimTime) -> f64 {
        self.regions
            .iter()
            .map(|r| r.price.price_at(t))
            .fold(f64::INFINITY, f64::min)
    }

    /// The matching power-group partition for regional energy accounting.
    pub fn power_groups(&self) -> PowerGroups {
        PowerGroups {
            names: self.regions.iter().map(|r| r.name.clone()).collect(),
            assignment: self.assignment.clone(),
        }
    }
}

/// Builds a combined multi-region fleet.
#[derive(Debug, Default)]
pub struct GeoFleetBuilder {
    regions: Vec<Region>,
    /// Per-region machine specs: `(class, count, reliability)`.
    machines: Vec<Vec<(PmClass, usize, f64)>>,
}

impl GeoFleetBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        GeoFleetBuilder::default()
    }

    /// Opens a new region; subsequent [`add_machines`](Self::add_machines)
    /// calls fill it until the next `region` call.
    pub fn region(mut self, name: impl Into<String>, price: PriceSignal) -> Self {
        self.regions.push(Region {
            name: name.into(),
            price,
        });
        self.machines.push(Vec::new());
        self
    }

    /// Adds machines to the most recently opened region.
    ///
    /// # Panics
    /// Panics if no region has been opened yet.
    pub fn add_machines(mut self, class: PmClass, count: usize, reliability: f64) -> Self {
        self.machines
            .last_mut()
            .expect("open a region before adding machines")
            .push((class, count, reliability));
        self
    }

    /// Builds the combined datacenter and its topology.
    ///
    /// # Panics
    /// Panics if no regions were defined.
    pub fn build(self) -> (Datacenter, GeoTopology) {
        assert!(!self.regions.is_empty(), "at least one region required");
        let mut fleet = FleetBuilder::new();
        let mut assignment = Vec::new();
        for (region_idx, specs) in self.machines.iter().enumerate() {
            for (class, count, reliability) in specs {
                fleet = fleet.add_class(class.clone(), *count, *reliability);
                assignment.extend(std::iter::repeat(region_idx).take(*count));
            }
        }
        let dc = fleet.build();
        assert_eq!(assignment.len(), dc.len());
        (
            dc,
            GeoTopology {
                regions: self.regions,
                assignment,
            },
        )
    }
}

/// A convenient two-region world: half the paper fleet in "east" and half
/// in "west", with the same time-of-use tariff offset by `shift_hours` —
/// when east peaks, west is cheap, and vice versa.
pub fn two_region_paper_fleet(shift_hours: u64) -> (Datacenter, GeoTopology) {
    let tariff = PriceSignal::time_of_use(0.06, 0.12, 0.30);
    GeoFleetBuilder::new()
        .region("east", tariff.clone())
        .add_machines(PmClass::paper_fast(), 13, 0.99)
        .add_machines(PmClass::paper_slow(), 37, 0.99)
        .region("west", tariff.shifted_hours(shift_hours))
        .add_machines(PmClass::paper_fast(), 12, 0.99)
        .add_machines(PmClass::paper_slow(), 38, 0.99)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_contiguous_regions() {
        let (dc, topo) = two_region_paper_fleet(12);
        assert_eq!(dc.len(), 100);
        assert_eq!(topo.region_count(), 2);
        // East: 13 fast + 37 slow = ids 0..49; west: ids 50..99.
        assert_eq!(topo.region_of(PmId(0)), 0);
        assert_eq!(topo.region_of(PmId(49)), 0);
        assert_eq!(topo.region_of(PmId(50)), 1);
        assert_eq!(topo.region_of(PmId(99)), 1);
    }

    #[test]
    fn power_groups_match_topology() {
        let (dc, topo) = two_region_paper_fleet(12);
        let groups = topo.power_groups();
        assert_eq!(groups.names, vec!["east".to_owned(), "west".to_owned()]);
        groups.validate(dc.len()).unwrap();
        assert_eq!(groups.assignment[0], 0);
        assert_eq!(groups.assignment[99], 1);
    }

    #[test]
    fn prices_alternate_with_the_shift() {
        let (_, topo) = two_region_paper_fleet(12);
        // At east's 18:00 peak, west (shifted 12 h) is off-peak-ish.
        let t = SimTime::from_hours(18);
        let east = topo.price_at(PmId(0), t);
        let west = topo.price_at(PmId(99), t);
        assert_eq!(east, 0.30);
        assert!(west < east, "west must be cheaper at east's peak ({west})");
        assert_eq!(topo.cheapest_at(t), west);
        // And 12 hours later the roles swap.
        let t2 = SimTime::from_hours(30);
        assert!(topo.price_at(PmId(0), t2) < topo.price_at(PmId(99), t2));
    }

    #[test]
    #[should_panic(expected = "open a region")]
    fn machines_require_a_region() {
        GeoFleetBuilder::new().add_machines(PmClass::paper_fast(), 1, 0.99);
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn empty_builder_rejected() {
        GeoFleetBuilder::new().build();
    }
}
