//! A PM's planning inputs, and the what-if state the dense reference
//! plans against.
//!
//! [`PlanPm::from_pm`] and [`eff_table`] are the one definition of what
//! planning reads from a PM: the production planner builds its superclass
//! rows from them, and [`PlanState::from_view`] builds the dense
//! reference's rows from them.
//!
//! Algorithm 1 applies migrations *hypothetically* while it searches — each
//! accepted move releases the source and reserves the destination before
//! the next round is evaluated. Mutating the real datacenter would conflate
//! planning with execution (real migrations take `T_mig` of wall-clock),
//! so the dense reference plans on a [`PlanState`] copy (the production
//! planner mutates its own mirror the same way). The simulator then
//! executes the returned batch, re-validating each move against live
//! state.

use crate::config::{quantize_score, quantize_secs, CapacityBasis, DynamicConfig};
use crate::policy::PlacementView;
use dvmp_cluster::pm::{Pm, PmClass, PmId};
use dvmp_cluster::power::relative_efficiencies;
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::VmId;
use dvmp_simcore::SimDuration;

/// Planning copy of one available PM.
#[derive(Debug, Clone)]
pub struct PlanPm {
    /// Real PM id.
    pub id: PmId,
    /// Index into the class/efficiency tables.
    pub class_idx: usize,
    /// `C_j^max`.
    pub capacity: ResourceVector,
    /// `C_j` under the plan (updated as moves are accepted).
    pub used: ResourceVector,
    /// `p_j^rel`.
    pub reliability: f64,
    /// `T^cre` in seconds.
    pub creation_secs: u64,
    /// `T^mig` in seconds (as destination).
    pub migration_secs: u64,
}

impl PlanPm {
    /// PM `pm`'s planning inputs under `cfg`: its capacity on
    /// `cfg.capacity_basis` ([`CapacityBasis::Virtual`], the admission
    /// bound, is identical to physical on non-overbooked fleets), its
    /// current occupancy, and its score-side inputs — reliability and
    /// overhead durations — snapped onto the `cfg.class_tolerance` grid
    /// (`0.0` keeps exact values). Capacity and occupancy are never
    /// quantized, so feasibility stays exact.
    ///
    /// This and [`eff_table`] are where planning reads a PM: the
    /// production planner and the dense reference both build their rows
    /// here, which is what keeps them bit-identical at any tolerance.
    pub fn from_pm(pm: &Pm, cfg: &DynamicConfig) -> Self {
        let tol = cfg.class_tolerance;
        let secs = |d: SimDuration| quantize_secs(d.as_secs(), tol);
        PlanPm {
            id: pm.id,
            class_idx: pm.class_idx,
            capacity: match cfg.capacity_basis {
                CapacityBasis::Virtual => pm.virtual_capacity(),
                CapacityBasis::Physical => *pm.capacity(),
            },
            used: *pm.used(),
            reliability: quantize_score(pm.reliability, tol),
            creation_secs: secs(pm.class.creation_time),
            migration_secs: secs(pm.class.migration_time),
        }
    }
}

/// Relative power efficiency `eff_c` per class index, snapped onto the
/// `cfg.class_tolerance` grid like every score-side input of
/// [`PlanPm::from_pm`].
pub fn eff_table(classes: &[PmClass], cfg: &DynamicConfig) -> Vec<f64> {
    relative_efficiencies(classes, &cfg.min_vm)
        .into_iter()
        .map(|e| quantize_score(e, cfg.class_tolerance))
        .collect()
}

/// Planning copy of one migratable VM.
#[derive(Debug, Clone)]
pub struct PlanVm {
    /// Real VM id.
    pub id: VmId,
    /// Resource demand.
    pub resources: ResourceVector,
    /// Estimated remaining runtime `T_i^re`, in seconds, updated as planned
    /// migrations charge their overhead.
    pub remaining_secs: u64,
    /// Index of the current host in [`PlanState::pms`].
    pub host: usize,
    /// The current host's real id (extension factors compare it against a
    /// candidate row's id to detect cross-machine moves).
    pub host_pm: PmId,
}

/// The complete planning state.
#[derive(Debug, Clone)]
pub struct PlanState {
    /// Available PMs (matrix rows), in ascending id order.
    pub pms: Vec<PlanPm>,
    /// Migratable VMs (matrix columns).
    pub vms: Vec<PlanVm>,
    /// Relative power efficiency `eff_c` per class index.
    pub effs: Vec<f64>,
    /// The instant the plan was taken (extension factors may be
    /// time-varying, e.g. electricity prices).
    pub now: dvmp_simcore::SimTime,
}

impl PlanState {
    /// Builds the planning state of a live view under `cfg`.
    ///
    /// Rows are every *available* PM (on or booting — they can accept
    /// reservations), built by [`PlanPm::from_pm`]. Columns are every VM
    /// in the `Running` state; VMs being created or already migrating are
    /// excluded from moves but their reservations are still counted in
    /// `used`, because the view's occupancy already includes them. Column
    /// demands are each VM's *current* demand, which resize events move
    /// away from its spec.
    pub fn from_view(view: &PlacementView<'_>, cfg: &DynamicConfig) -> Self {
        let pms: Vec<PlanPm> = view
            .dc
            .pms()
            .iter()
            .filter(|pm| pm.is_available())
            .map(|pm| PlanPm::from_pm(pm, cfg))
            .collect();
        let vms = view
            .migratable_vms()
            // A running VM's host is always available; skip defensively if
            // the fleet is in a weird transitional state.
            .filter_map(|(vm, host)| {
                let row = pms.binary_search_by_key(&host, |pm| pm.id).ok()?;
                Some(PlanVm {
                    id: vm.spec.id,
                    resources: *vm.demand(),
                    remaining_secs: vm.estimated_remaining(view.now).as_secs(),
                    host: row,
                    host_pm: host,
                })
            })
            .collect();
        PlanState {
            pms,
            vms,
            effs: eff_table(view.dc.classes(), cfg),
            now: view.now,
        }
    }

    /// Applies a planned migration of VM (column) `vm_idx` to PM (row)
    /// `to`: releases the source, reserves the destination, charges the
    /// destination's migration overhead against the VM's remaining time,
    /// and re-homes it.
    ///
    /// # Panics
    /// Panics if the destination cannot fit the VM — callers must only
    /// apply moves the probability matrix deemed feasible.
    pub fn apply_migration(&mut self, vm_idx: usize, to: usize) -> (usize, usize) {
        let from = self.vms[vm_idx].host;
        assert_ne!(from, to, "migration to the current host is a no-op bug");
        let res = self.vms[vm_idx].resources;
        assert!(
            self.pms[to].used.fits_with(&res, &self.pms[to].capacity),
            "planned migration violates capacity"
        );
        self.pms[from].used = self.pms[from].used.saturating_sub(&res);
        self.pms[to].used = self.pms[to].used.add(&res);
        let overhead = self.pms[to].migration_secs;
        let host_pm = self.pms[to].id;
        let vm = &mut self.vms[vm_idx];
        vm.remaining_secs = vm.remaining_secs.saturating_sub(overhead);
        vm.host = to;
        vm.host_pm = host_pm;
        (from, to)
    }

    /// Relative efficiency of the PM at row `row`.
    pub fn eff_of(&self, row: usize) -> f64 {
        self.effs[self.pms[row].class_idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::*;
    use crate::policy::PlacementView;
    use dvmp_cluster::pm::PmState;
    use dvmp_cluster::vm::VmState;
    use dvmp_cluster::VmTable;
    use dvmp_simcore::SimTime;

    #[test]
    fn from_view_captures_available_pms_and_running_vms() {
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        install(
            &mut dc,
            &mut vms,
            spec(1, 512, 10_000),
            dvmp_cluster::pm::PmId(0),
            SimTime::ZERO,
        );
        install(
            &mut dc,
            &mut vms,
            spec(2, 512, 10_000),
            dvmp_cluster::pm::PmId(2),
            SimTime::ZERO,
        );
        dc.pm_mut(dvmp_cluster::pm::PmId(3)).state = PmState::Off;

        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::from_secs(1_000),
        };
        let plan = PlanState::from_view(&view, &DynamicConfig::default());

        assert_eq!(plan.pms.len(), 3, "pm3 is off");
        assert_eq!(plan.vms.len(), 2);
        // Remaining time reflects elapsed runtime.
        assert_eq!(plan.vms[0].remaining_secs, 9_000);
        // Hosts resolve to row indices.
        assert_eq!(plan.pms[plan.vms[0].host].id, dvmp_cluster::pm::PmId(0));
        assert_eq!(plan.pms[plan.vms[1].host].id, dvmp_cluster::pm::PmId(2));
        // Efficiency table covers both classes; fast is the reference.
        assert_eq!(plan.effs.len(), 2);
        assert_eq!(plan.effs[0], 1.0);
        assert!(plan.effs[1] < 1.0);
    }

    #[test]
    fn creating_and_migrating_vms_occupy_but_do_not_move() {
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        install(
            &mut dc,
            &mut vms,
            spec(1, 512, 10_000),
            dvmp_cluster::pm::PmId(0),
            SimTime::ZERO,
        );
        vms.get_mut(dvmp_cluster::vm::VmId(1)).unwrap().state = VmState::Creating {
            pm: dvmp_cluster::pm::PmId(0),
            ready_at: SimTime::from_secs(30),
        };
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let plan = PlanState::from_view(&view, &DynamicConfig::default());
        assert!(plan.vms.is_empty(), "creating VM is not migratable");
        // But its reservation still shows in the plan's used vector.
        let row0 = plan
            .pms
            .iter()
            .position(|p| p.id == dvmp_cluster::pm::PmId(0))
            .unwrap();
        assert_eq!(plan.pms[row0].used.get(0), 1);
    }

    #[test]
    fn apply_migration_moves_resources_and_charges_overhead() {
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        install(
            &mut dc,
            &mut vms,
            spec(1, 512, 10_000),
            dvmp_cluster::pm::PmId(0),
            SimTime::ZERO,
        );
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut plan = PlanState::from_view(&view, &DynamicConfig::default());

        let from_row = plan.vms[0].host;
        let to_row = (from_row + 1) % plan.pms.len();
        let mig_secs = plan.pms[to_row].migration_secs;
        let (f, t) = plan.apply_migration(0, to_row);
        assert_eq!((f, t), (from_row, to_row));
        assert!(plan.pms[from_row].used.is_zero());
        assert_eq!(plan.pms[to_row].used.get(0), 1);
        assert_eq!(plan.vms[0].host, to_row);
        assert_eq!(plan.vms[0].remaining_secs, 10_000 - mig_secs);
    }

    #[test]
    fn rows_use_virtual_capacity_and_columns_use_live_demand() {
        use dvmp_cluster::pm::PmId;
        use dvmp_cluster::resources::{OverbookRatios, ResourceVector};
        use dvmp_cluster::vm::VmId;

        let mut dc = small_fleet();
        dc.pm_mut(PmId(0)).overbook = Some(OverbookRatios::cpu_mem(200, 100));
        let mut vms = VmTable::new();
        install(
            &mut dc,
            &mut vms,
            spec(1, 512, 10_000),
            PmId(0),
            SimTime::ZERO,
        );
        // The VM has since grown to 3 cores.
        dc.resize_vm(VmId(1), ResourceVector::cpu_mem(3, 512))
            .unwrap();
        vms.get_mut(VmId(1)).unwrap().current_demand = Some(ResourceVector::cpu_mem(3, 512));

        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let plan = PlanState::from_view(&view, &DynamicConfig::default());
        let row0 = plan.pms.iter().position(|p| p.id == PmId(0)).unwrap();
        // paper_fast is 8 cores; 200% CPU overbooking doubles the row bound.
        assert_eq!(plan.pms[row0].capacity.get(0), 16);
        // The column carries the resized demand, not the spec.
        assert_eq!(plan.vms[0].resources, ResourceVector::cpu_mem(3, 512));
        assert_eq!(plan.pms[row0].used.get(0), 3);

        // The Physical ablation ignores the ratios.
        let cfg = DynamicConfig {
            capacity_basis: CapacityBasis::Physical,
            ..DynamicConfig::default()
        };
        let phys = PlanState::from_view(&view, &cfg);
        assert_eq!(phys.pms[row0].capacity.get(0), 8);
    }

    #[test]
    fn from_view_quantizes_score_inputs_but_not_capacity() {
        use dvmp_cluster::pm::PmId;

        let mut dc = small_fleet();
        // Jitter every PM's reliability inside one tolerance bucket.
        let n = dc.len();
        for i in 0..n {
            dc.pm_mut(PmId(i as u32)).reliability = 0.949 + 0.002 * (i as f64) / (n as f64);
        }
        let vms = VmTable::new();
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let exact = PlanState::from_view(&view, &DynamicConfig::default());
        let cfg = DynamicConfig {
            class_tolerance: 0.01,
            ..DynamicConfig::default()
        };
        let quant = PlanState::from_view(&view, &cfg);

        for (e, q) in exact.pms.iter().zip(&quant.pms) {
            // Score-side inputs are snapped through the shared quantizers…
            assert_eq!(
                q.reliability.to_bits(),
                quantize_score(e.reliability, 0.01).to_bits()
            );
            assert_eq!(q.creation_secs, quantize_secs(e.creation_secs, 0.01));
            assert_eq!(q.migration_secs, quantize_secs(e.migration_secs, 0.01));
            // …while feasibility-side state stays exact.
            assert_eq!(q.capacity, e.capacity);
            assert_eq!(q.used, e.used);
        }
        for (e, q) in exact.effs.iter().zip(&quant.effs) {
            assert_eq!(q.to_bits(), quantize_score(*e, 0.01).to_bits());
        }
        // The jittered spread collapses into a single reliability bucket.
        let distinct: std::collections::BTreeSet<u64> =
            quant.pms.iter().map(|p| p.reliability.to_bits()).collect();
        assert_eq!(distinct.len(), 1, "0.002 spread fits one 0.01 bucket");
        let exact_distinct: std::collections::BTreeSet<u64> =
            exact.pms.iter().map(|p| p.reliability.to_bits()).collect();
        assert!(
            exact_distinct.len() > 1,
            "the jitter really fragments exact keys"
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn apply_migration_rejects_overfull_target() {
        let mut dc = small_fleet();
        let mut vms = VmTable::with_ids((10..18).chain([1]).map(VmId)).unwrap();
        // Fill pm1 (fast, 8 cores) completely.
        for i in 0..8 {
            install(
                &mut dc,
                &mut vms,
                spec(10 + i, 512, 10_000),
                dvmp_cluster::pm::PmId(1),
                SimTime::ZERO,
            );
        }
        install(
            &mut dc,
            &mut vms,
            spec(1, 512, 10_000),
            dvmp_cluster::pm::PmId(0),
            SimTime::ZERO,
        );
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut plan = PlanState::from_view(&view, &DynamicConfig::default());
        let vm_idx = plan
            .vms
            .iter()
            .position(|v| v.id == dvmp_cluster::vm::VmId(1))
            .unwrap();
        let full_row = plan
            .pms
            .iter()
            .position(|p| p.id == dvmp_cluster::pm::PmId(1))
            .unwrap();
        plan.apply_migration(vm_idx, full_row);
    }
}
