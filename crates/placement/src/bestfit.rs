//! Best-fit static baseline (Section V): *"the new arrival VM request will
//! be placed to the PM that can achieve its maximum utilization"*.
//!
//! Among the PMs that can host the request, pick the one whose joint
//! utilization *after* the placement is highest (ties: lowest id). Like
//! first-fit it never migrates — that is what makes it "static".

use crate::policy::{PlacementPolicy, PlacementView};
use dvmp_cluster::pm::PmId;
use dvmp_cluster::vm::VmSpec;

/// The best-fit baseline.
#[derive(Debug, Clone, Default)]
pub struct BestFit;

impl PlacementPolicy for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn place(&mut self, view: &PlacementView<'_>, vm: &VmSpec) -> Option<PmId> {
        let mut best: Option<(PmId, f64)> = None;
        for pm in view.dc.pms() {
            if !pm.can_host(&vm.resources) {
                continue;
            }
            let after = pm.used().add(&vm.resources);
            let u = after.joint_utilization(pm.capacity());
            if best.map_or(true, |(_, bu)| u > bu) {
                best = Some((pm.id, u));
            }
        }
        best.map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::*;
    use dvmp_cluster::VmTable;
    use dvmp_simcore::SimTime;

    #[test]
    fn prefers_the_pm_it_fills_most() {
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        // pm2 (slow, 4 cores) holds 3 VMs → adding one fills it to 100% CPU.
        for i in 0..3 {
            install(
                &mut dc,
                &mut vms,
                spec(i + 1, 256, 1_000),
                PmId(2),
                SimTime::ZERO,
            );
        }
        // pm0 (fast, 8 cores) holds 3 VMs → adding one reaches 50% CPU.
        for i in 3..6 {
            install(
                &mut dc,
                &mut vms,
                spec(i + 1, 256, 1_000),
                PmId(0),
                SimTime::ZERO,
            );
        }
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut bf = BestFit;
        assert_eq!(bf.place(&view, &spec(99, 256, 100)), Some(PmId(2)));
    }

    #[test]
    fn empty_fleet_ties_break_to_lowest_id() {
        let dc = small_fleet();
        let vms = VmTable::new();
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut bf = BestFit;
        // Slow PMs reach higher relative utilization for the same VM
        // (smaller capacity), so best-fit picks the first slow PM.
        assert_eq!(bf.place(&view, &spec(1, 512, 100)), Some(PmId(2)));
    }

    #[test]
    fn skips_pms_that_cannot_host() {
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        // Fill both slow PMs' memory.
        install(
            &mut dc,
            &mut vms,
            spec(1, 4_096, 1_000),
            PmId(2),
            SimTime::ZERO,
        );
        install(
            &mut dc,
            &mut vms,
            spec(2, 4_096, 1_000),
            PmId(3),
            SimTime::ZERO,
        );
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut bf = BestFit;
        let target = bf.place(&view, &spec(3, 1_024, 100)).unwrap();
        assert!(target == PmId(0) || target == PmId(1), "must use a fast PM");
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
        let mut bf = BestFit;
        assert!(bf.plan_migrations(&view).is_empty());
        assert!(!bf.is_dynamic());
    }
}
