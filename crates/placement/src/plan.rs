//! The what-if state the dynamic scheme plans against.
//!
//! Algorithm 1 applies migrations *hypothetically* while it searches — each
//! accepted move releases the source and reserves the destination before
//! the next round is evaluated. Mutating the real datacenter would conflate
//! planning with execution (real migrations take `T_mig` of wall-clock),
//! so planning runs on this lightweight copy. The simulator then executes
//! the returned batch, re-validating each move against live state.

use crate::config::CapacityBasis;
use crate::policy::PlacementView;
use dvmp_cluster::pm::PmId;
use dvmp_cluster::power::relative_efficiencies;
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::VmId;

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
    /// Available PMs (matrix rows).
    pub pms: Vec<PlanPm>,
    /// Migratable VMs (matrix columns).
    pub vms: Vec<PlanVm>,
    /// Relative power efficiency `eff_c` per class index.
    pub effs: Vec<f64>,
    /// The instant the plan was taken (extension factors may be
    /// time-varying, e.g. electricity prices).
    pub now: dvmp_simcore::SimTime,
    /// Scratch mapping `PmId.0 → row` ([`NO_ROW`] = not a row). PM ids are
    /// dense (assigned sequentially by the fleet builder), so a flat vector
    /// replaces the hash map a fresh build would need; kept in the struct
    /// so [`PlanState::refill`] reuses the allocation across passes.
    row_lookup: Vec<u32>,
}

/// Sentinel in [`PlanState::row_lookup`] for PMs that are not plan rows.
const NO_ROW: u32 = u32::MAX;

impl Default for PlanState {
    fn default() -> Self {
        PlanState {
            pms: Vec::new(),
            vms: Vec::new(),
            effs: Vec::new(),
            now: dvmp_simcore::SimTime::ZERO,
            row_lookup: Vec::new(),
        }
    }
}

impl PlanState {
    /// Builds the planning state from a live view.
    ///
    /// Rows are every *available* PM (on or booting — they can accept
    /// reservations). Columns are every VM in the `Running` state; VMs
    /// being created or already migrating are excluded from moves but
    /// their reservations are still counted in `used`, because the view's
    /// occupancy already includes them. Row capacities are the admission
    /// bound ([`CapacityBasis::Virtual`]; identical to physical on
    /// non-overbooked fleets) and column demands are each VM's *current*
    /// demand, which resize events move away from its spec.
    pub fn from_view(view: &PlacementView<'_>, min_vm: &ResourceVector) -> Self {
        let mut plan = PlanState::default();
        plan.refill(view, min_vm, CapacityBasis::Virtual, 0.0);
        plan
    }

    /// [`PlanState::from_view`] into an existing plan, reusing its
    /// allocations, with an explicit capacity basis. The planner calls
    /// this once per pass on a plan arena it owns, so steady-state
    /// planning allocates nothing here.
    ///
    /// `tolerance` is the superclass-bucketing resolution
    /// ([`crate::DynamicConfig::class_tolerance`]): every score-side input
    /// captured here — reliability, relative efficiency, overhead
    /// durations — is snapped onto the tolerance grid, and `0.0` captures
    /// exact values. This is the *single* choke point where the dense
    /// kernel reads those inputs (everything downstream goes through
    /// [`PlanPm`] and [`PlanState::effs`]); the compressed planner builds
    /// its rows through the same quantizers, which is what keeps the two
    /// kernels bit-identical at any tolerance. Capacity and demand are
    /// never quantized — feasibility stays exact.
    pub fn refill(
        &mut self,
        view: &PlacementView<'_>,
        min_vm: &ResourceVector,
        basis: CapacityBasis,
        tolerance: f64,
    ) {
        use crate::config::{quantize_score, quantize_secs};
        self.effs.clear();
        self.effs.extend(
            relative_efficiencies(view.dc.classes(), min_vm)
                .into_iter()
                .map(|e| quantize_score(e, tolerance)),
        );
        self.pms.clear();
        self.vms.clear();
        self.row_lookup.clear();
        for pm in view.dc.pms() {
            if pm.is_available() {
                let idx = pm.id.0 as usize;
                if self.row_lookup.len() <= idx {
                    self.row_lookup.resize(idx + 1, NO_ROW);
                }
                self.row_lookup[idx] = self.pms.len() as u32;
                self.pms.push(PlanPm {
                    id: pm.id,
                    class_idx: pm.class_idx,
                    capacity: match basis {
                        CapacityBasis::Virtual => pm.virtual_capacity(),
                        CapacityBasis::Physical => *pm.capacity(),
                    },
                    used: *pm.used(),
                    reliability: quantize_score(pm.reliability, tolerance),
                    creation_secs: quantize_secs(pm.class.creation_time.as_secs(), tolerance),
                    migration_secs: quantize_secs(pm.class.migration_time.as_secs(), tolerance),
                });
            }
        }
        for (vm, host) in view.migratable_vms() {
            // A running VM's host is always available; skip defensively if
            // the fleet is in a weird transitional state.
            let row = self
                .row_lookup
                .get(host.0 as usize)
                .copied()
                .unwrap_or(NO_ROW);
            if row != NO_ROW {
                self.vms.push(PlanVm {
                    id: vm.spec.id,
                    resources: *vm.demand(),
                    remaining_secs: vm.estimated_remaining(view.now).as_secs(),
                    host: row as usize,
                    host_pm: host,
                });
            }
        }
        self.now = view.now;
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
    use dvmp_simcore::SimTime;
    use std::collections::BTreeMap;

    #[test]
    fn from_view_captures_available_pms_and_running_vms() {
        let mut dc = small_fleet();
        let mut vms = BTreeMap::new();
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
        let plan = PlanState::from_view(
            &view,
            &dvmp_cluster::resources::ResourceVector::cpu_mem(1, 256),
        );

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
        let mut vms = BTreeMap::new();
        install(
            &mut dc,
            &mut vms,
            spec(1, 512, 10_000),
            dvmp_cluster::pm::PmId(0),
            SimTime::ZERO,
        );
        vms.get_mut(&dvmp_cluster::vm::VmId(1)).unwrap().state = VmState::Creating {
            pm: dvmp_cluster::pm::PmId(0),
            ready_at: SimTime::from_secs(30),
        };
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let plan = PlanState::from_view(
            &view,
            &dvmp_cluster::resources::ResourceVector::cpu_mem(1, 256),
        );
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
        let mut vms = BTreeMap::new();
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
        let mut plan = PlanState::from_view(
            &view,
            &dvmp_cluster::resources::ResourceVector::cpu_mem(1, 256),
        );

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
    fn refill_reuses_arena_and_matches_fresh_build() {
        // First pass: a busy view.
        let mut dc = small_fleet();
        let mut vms = BTreeMap::new();
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
            spec(2, 512, 20_000),
            dvmp_cluster::pm::PmId(2),
            SimTime::ZERO,
        );
        let min_vm = dvmp_cluster::resources::ResourceVector::cpu_mem(1, 256);
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut arena = PlanState::from_view(&view, &min_vm);

        // Second pass: a different view (one PM off, one VM gone) must
        // fully replace the first — no stale rows, columns or lookups.
        let mut dc2 = small_fleet();
        let mut vms2 = BTreeMap::new();
        install(
            &mut dc2,
            &mut vms2,
            spec(1, 512, 10_000),
            dvmp_cluster::pm::PmId(2),
            SimTime::ZERO,
        );
        dc2.pm_mut(dvmp_cluster::pm::PmId(0)).state = PmState::Off;
        let view2 = PlacementView {
            dc: &dc2,
            vms: &vms2,
            now: SimTime::from_secs(500),
        };
        arena.refill(&view2, &min_vm, CapacityBasis::Virtual, 0.0);
        let fresh = PlanState::from_view(&view2, &min_vm);

        assert_eq!(arena.pms.len(), fresh.pms.len());
        assert_eq!(arena.vms.len(), fresh.vms.len());
        assert_eq!(arena.now, fresh.now);
        assert_eq!(arena.effs, fresh.effs);
        for (a, f) in arena.pms.iter().zip(&fresh.pms) {
            assert_eq!(a.id, f.id);
            assert_eq!(a.used, f.used);
            assert_eq!(a.capacity, f.capacity);
        }
        for (a, f) in arena.vms.iter().zip(&fresh.vms) {
            assert_eq!(a.id, f.id);
            assert_eq!(a.host, f.host);
            assert_eq!(a.remaining_secs, f.remaining_secs);
        }
    }

    #[test]
    fn rows_use_virtual_capacity_and_columns_use_live_demand() {
        use dvmp_cluster::pm::PmId;
        use dvmp_cluster::resources::{OverbookRatios, ResourceVector};
        use dvmp_cluster::vm::VmId;

        let mut dc = small_fleet();
        dc.pm_mut(PmId(0)).overbook = Some(OverbookRatios::cpu_mem(200, 100));
        let mut vms = BTreeMap::new();
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
        vms.get_mut(&VmId(1)).unwrap().current_demand = Some(ResourceVector::cpu_mem(3, 512));

        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let min_vm = ResourceVector::cpu_mem(1, 256);
        let plan = PlanState::from_view(&view, &min_vm);
        let row0 = plan.pms.iter().position(|p| p.id == PmId(0)).unwrap();
        // paper_fast is 8 cores; 200% CPU overbooking doubles the row bound.
        assert_eq!(plan.pms[row0].capacity.get(0), 16);
        // The column carries the resized demand, not the spec.
        assert_eq!(plan.vms[0].resources, ResourceVector::cpu_mem(3, 512));
        assert_eq!(plan.pms[row0].used.get(0), 3);

        // The Physical ablation ignores the ratios.
        let mut phys = PlanState::default();
        phys.refill(&view, &min_vm, CapacityBasis::Physical, 0.0);
        assert_eq!(phys.pms[row0].capacity.get(0), 8);
    }

    #[test]
    fn refill_quantizes_score_inputs_but_not_capacity() {
        use crate::config::{quantize_score, quantize_secs};
        use dvmp_cluster::pm::PmId;

        let mut dc = small_fleet();
        // Jitter every PM's reliability inside one tolerance bucket.
        let n = dc.len();
        for i in 0..n {
            dc.pm_mut(PmId(i as u32)).reliability = 0.949 + 0.002 * (i as f64) / (n as f64);
        }
        let vms = BTreeMap::new();
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let min_vm = dvmp_cluster::resources::ResourceVector::cpu_mem(1, 256);
        let exact = PlanState::from_view(&view, &min_vm);
        let mut quant = PlanState::default();
        quant.refill(&view, &min_vm, CapacityBasis::Virtual, 0.01);

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
        let mut vms = BTreeMap::new();
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
        let mut plan = PlanState::from_view(
            &view,
            &dvmp_cluster::resources::ResourceVector::cpu_mem(1, 256),
        );
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
