//! Cost-aware extension factors.
//!
//! Both plug into [`DynamicPlacement::with_factor`] and multiply into the
//! joint probability `p_ij` exactly like the paper's built-in four — the
//! mechanism its future-work section sketches ("the dynamic behavior of
//! electricity price will be formulated as an important factor in the
//! dynamic VM migration process"). Both are [`KeyedFactor`]s keyed on the
//! PM's region: the price factor is a function of (candidate region,
//! time), the WAN penalty of (current region, candidate region).
//!
//! [`DynamicPlacement::with_factor`]: dvmp_placement::DynamicPlacement::with_factor

use crate::topology::GeoTopology;
use dvmp_cluster::pm::PmId;
use dvmp_placement::KeyedFactor;
use dvmp_simcore::SimTime;
use std::sync::Arc;

/// `p^cost`: prefer machines in currently cheap regions.
///
/// Mirrors the structure of the paper's `eff_j = min{power}/power_j`:
/// `p^cost_j = cheapest current price / price at j's region`, so the
/// cheapest region scores 1 and pricier regions proportionally less.
#[derive(Debug)]
pub struct PriceFactor {
    topology: Arc<GeoTopology>,
}

impl PriceFactor {
    /// Price factor with linear preference.
    pub fn new(topology: Arc<GeoTopology>) -> Self {
        PriceFactor { topology }
    }
}

/// The region index of `pm` as a factor key.
fn region_key(topology: &GeoTopology, pm: PmId) -> u16 {
    u16::try_from(topology.region_of(pm)).expect("region index fits a factor key")
}

/// The number of regions as a factor key count.
fn region_keys(topology: &GeoTopology) -> u16 {
    u16::try_from(topology.region_count()).expect("region count fits a factor key")
}

impl KeyedFactor for PriceFactor {
    fn name(&self) -> &str {
        "price"
    }

    fn key_count(&self) -> u16 {
        region_keys(&self.topology)
    }

    fn key(&self, pm: PmId) -> u16 {
        region_key(&self.topology, pm)
    }

    fn factor(&self, _from: Option<u16>, to: u16, now: SimTime) -> f64 {
        let price = self.topology.regions()[usize::from(to)].price.price_at(now);
        if price <= 0.0 {
            return 1.0; // free electricity: no objection
        }
        let cheapest = self.topology.cheapest_at(now);
        cheapest / price
    }
}

/// Discounts cross-region moves: a WAN migration is slower and riskier
/// than a LAN one, so it must promise a bigger improvement to clear
/// `MIG_threshold`. The current host's own row is never penalized, and
/// new requests (no current host) may start anywhere.
#[derive(Debug)]
pub struct WanPenaltyFactor {
    topology: Arc<GeoTopology>,
    /// Multiplier applied to cross-region candidates, in `(0, 1]`.
    penalty: f64,
}

impl WanPenaltyFactor {
    /// A WAN penalty factor; `penalty` in `(0, 1]` (e.g. 0.5 halves the
    /// attractiveness of leaving the region).
    pub fn new(topology: Arc<GeoTopology>, penalty: f64) -> Self {
        assert!(penalty > 0.0 && penalty <= 1.0);
        WanPenaltyFactor { topology, penalty }
    }
}

impl KeyedFactor for WanPenaltyFactor {
    fn name(&self) -> &str {
        "wan-penalty"
    }

    fn key_count(&self) -> u16 {
        region_keys(&self.topology)
    }

    fn key(&self, pm: PmId) -> u16 {
        region_key(&self.topology, pm)
    }

    fn factor(&self, from: Option<u16>, to: u16, _now: SimTime) -> f64 {
        match from {
            Some(region) if region != to => self.penalty,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::two_region_paper_fleet;

    /// The factor a PM-level evaluation sees: keys resolved per PM.
    fn at(f: &dyn KeyedFactor, host: Option<u32>, pm: u32, t: SimTime) -> f64 {
        f.factor(host.map(|h| f.key(PmId(h))), f.key(PmId(pm)), t)
    }

    #[test]
    fn price_factor_is_one_in_cheapest_region() {
        let (_, topo) = two_region_paper_fleet(12);
        let topo = Arc::new(topo);
        let f = PriceFactor::new(topo.clone());
        assert_eq!(f.key_count(), 2);
        let t = SimTime::from_hours(18); // east peak
        let east = at(&f, None, 0, t);
        let west = at(&f, None, 99, t);
        assert_eq!(west, 1.0, "west is cheapest at east's peak");
        assert!(east < 1.0, "east pays the peak tariff: {east}");
        // Ratio equals cheapest/price.
        let expect = topo.cheapest_at(t) / topo.price_at(PmId(0), t);
        assert!((east - expect).abs() < 1e-12);
        // The current host plays no part: price is a function of the
        // candidate's region and the time only.
        assert_eq!(at(&f, Some(99), 0, t), east);
    }

    #[test]
    fn wan_penalty_only_hits_cross_region_moves() {
        let (_, topo) = two_region_paper_fleet(12);
        let f = WanPenaltyFactor::new(Arc::new(topo), 0.5);
        let t = SimTime::ZERO;
        // Same region (0 → 1): no penalty.
        assert_eq!(at(&f, Some(0), 1, t), 1.0);
        // Cross region (0 → 99): penalized.
        assert_eq!(at(&f, Some(0), 99, t), 0.5);
        // The current host row itself: same region by definition.
        assert_eq!(at(&f, Some(0), 0, t), 1.0);
        // New request: free to start anywhere.
        assert_eq!(at(&f, None, 99, t), 1.0);
    }

    #[test]
    #[should_panic]
    fn wan_penalty_rejects_zero() {
        let (_, topo) = two_region_paper_fleet(12);
        WanPenaltyFactor::new(Arc::new(topo), 0.0);
    }
}
