//! Worst-fit baseline: place each request on the PM that will be *least*
//! utilized after the placement — the classic load-spreading heuristic.
//!
//! Not part of the paper's evaluation; included as an extra comparator
//! because it bounds the other side of the design space (maximum spread,
//! i.e. the most energy-hostile static policy) and makes the consolidation
//! benefit in the figures easier to read.

use crate::policy::{PlacementPolicy, PlacementView};
use dvmp_cluster::pm::PmId;
use dvmp_cluster::vm::VmSpec;

/// The worst-fit (spreading) baseline.
#[derive(Debug, Clone, Default)]
pub struct WorstFit;

impl PlacementPolicy for WorstFit {
    fn name(&self) -> &'static str {
        "worst-fit"
    }

    fn place(&mut self, view: &PlacementView<'_>, vm: &VmSpec) -> Option<PmId> {
        let mut best: Option<(PmId, f64)> = None;
        for pm in view.dc.pms() {
            if !pm.can_host(&vm.resources) {
                continue;
            }
            let after = pm.used().add(&vm.resources);
            let u = after.joint_utilization(pm.capacity());
            if best.map_or(true, |(_, bu)| u < bu) {
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
    fn spreads_to_emptiest_pm() {
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        install(
            &mut dc,
            &mut vms,
            spec(1, 256, 1_000),
            PmId(0),
            SimTime::ZERO,
        );
        install(
            &mut dc,
            &mut vms,
            spec(2, 256, 1_000),
            PmId(2),
            SimTime::ZERO,
        );
        install(
            &mut dc,
            &mut vms,
            spec(3, 256, 1_000),
            PmId(3),
            SimTime::ZERO,
        );
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut wf = WorstFit;
        // pm1 is the only empty PM; a fast PM also dilutes utilization most.
        assert_eq!(wf.place(&view, &spec(99, 256, 100)), Some(PmId(1)));
    }

    #[test]
    fn opposite_of_bestfit_on_empty_fleet() {
        let dc = small_fleet();
        let vms = VmTable::new();
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut wf = WorstFit;
        let mut bf = crate::bestfit::BestFit;
        let w = wf.place(&view, &spec(1, 512, 100)).unwrap();
        let b = bf.place(&view, &spec(1, 512, 100)).unwrap();
        assert_ne!(w, b, "spreading and packing disagree on a mixed fleet");
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
        let mut wf = WorstFit;
        assert!(wf.plan_migrations(&view).is_empty());
        assert!(!wf.is_dynamic());
    }
}
