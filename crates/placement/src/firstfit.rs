//! First-fit static baseline (Section V): *"the new arrival VM request will
//! be placed to the first PM with available computation resources"*.
//!
//! PMs are considered in id order; the scheme never migrates. The scan is
//! answered by the datacenter's capacity index in O(log M) — exactly the
//! PM a linear id-order sweep would pick.

use crate::policy::{PlacementPolicy, PlacementView};
use dvmp_cluster::pm::PmId;
use dvmp_cluster::vm::VmSpec;

/// The first-fit baseline.
#[derive(Debug, Clone, Default)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn place(&mut self, view: &PlacementView<'_>, vm: &VmSpec) -> Option<PmId> {
        view.dc.first_fit_available(&vm.resources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::*;
    use dvmp_cluster::pm::PmState;
    use dvmp_cluster::VmTable;
    use dvmp_simcore::SimTime;

    #[test]
    fn picks_lowest_id_with_room() {
        let dc = small_fleet();
        let vms = VmTable::new();
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut ff = FirstFit;
        assert_eq!(ff.place(&view, &spec(1, 512, 100)), Some(PmId(0)));
    }

    #[test]
    fn skips_full_and_off_pms() {
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        // Fill pm0 (8 cores) and power off pm1.
        for i in 0..8 {
            install(
                &mut dc,
                &mut vms,
                spec(i + 1, 256, 1_000),
                PmId(0),
                SimTime::ZERO,
            );
        }
        power(&mut dc, PmId(1), PmState::Off);
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut ff = FirstFit;
        assert_eq!(ff.place(&view, &spec(99, 512, 100)), Some(PmId(2)));
    }

    #[test]
    fn full_fleet_queues() {
        let mut dc = small_fleet();
        for id in 0..4u32 {
            power(&mut dc, PmId(id), PmState::Off);
        }
        let vms = VmTable::new();
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut ff = FirstFit;
        assert_eq!(ff.place(&view, &spec(1, 512, 100)), None);
    }

    #[test]
    fn never_migrates() {
        let dc = small_fleet();
        let vms = VmTable::new();
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut ff = FirstFit;
        assert!(ff.plan_migrations(&view).is_empty());
        assert!(!ff.is_dynamic());
        assert_eq!(ff.name(), "first-fit");
    }
}
