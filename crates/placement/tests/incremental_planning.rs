//! Differential property tests for cross-interval incremental planning
//! (DESIGN.md §8).
//!
//! Random fleet histories — arrivals, departures, live migrations, PM
//! failures and power transitions applied as [`FleetOp`]s, so every change
//! flows through the fleet-delta journal, and reliability drift applied
//! as a setup edit, which fills it — are driven through planners in
//! lockstep: the
//! production [`DynamicPlacement`] fed the drained journal each pass (so
//! it patches its persistent compressed mirror), a twin fed no journal
//! (so it rebuilds every pass), and the executable specification. Every
//! pass must propose the identical migration sequence.

#[path = "../spec/spec.rs"]
mod spec;

use dvmp_cluster::datacenter::{Datacenter, FleetBuilder};
use dvmp_cluster::pm::{PmClass, PmId, PmState};
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::{Vm, VmId, VmSpec, VmState};
use dvmp_cluster::{FleetOp, VmTable};
use dvmp_placement::{DynamicConfig, DynamicPlacement, Migration, PlacementPolicy, PlacementView};
use dvmp_simcore::{SimDuration, SimTime};
use proptest::prelude::*;
use spec::Spec;

/// One randomized fleet mutation. `pick`-style fields are resolved modulo
/// the candidate set at application time, so every generated op is
/// applicable (or degenerates to a no-op when no candidate exists).
#[derive(Debug, Clone)]
enum Op {
    Arrive { mem_sel: u8, est_secs: u64 },
    Depart { pick: u8 },
    Migrate { pick: u8, to: u8 },
    FailPm { pick: u8 },
    PowerOff { pick: u8 },
    PowerOn { pick: u8 },
    Drift { pick: u8, rel_milli: u16 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..4, 50_000u64..400_000).prop_map(|(m, e)| Op::Arrive { mem_sel: m, est_secs: e }),
        3 => any::<u8>().prop_map(|p| Op::Depart { pick: p }),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(p, t)| Op::Migrate { pick: p, to: t }),
        1 => any::<u8>().prop_map(|p| Op::FailPm { pick: p }),
        1 => any::<u8>().prop_map(|p| Op::PowerOff { pick: p }),
        1 => any::<u8>().prop_map(|p| Op::PowerOn { pick: p }),
        2 => (any::<u8>(), 800u16..=999).prop_map(|(p, r)| Op::Drift { pick: p, rel_milli: r }),
    ]
}

/// A history is a sequence of planning passes, each preceded by a small
/// batch of fleet mutations.
fn history_strategy() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(prop::collection::vec(op_strategy(), 0..3), 3..7)
}

fn pick_from<T: Copy>(items: &[T], pick: u8) -> Option<T> {
    if items.is_empty() {
        None
    } else {
        Some(items[pick as usize % items.len()])
    }
}

/// 4 fast + 3 slow PMs, all on, seeded with six running VMs.
fn seeded_fleet() -> (Datacenter, VmTable) {
    let mut dc = FleetBuilder::new()
        .add_class(PmClass::paper_fast(), 4, 0.99)
        .add_class(PmClass::paper_slow(), 3, 0.95)
        .initially_on(true)
        .build();
    let mut vms = VmTable::new();
    for i in 0..6u32 {
        let res = ResourceVector::cpu_mem(1, 512 * u64::from(1 + i % 3));
        let pm = dc.first_fit_available(&res).expect("seed VM fits");
        let spec = VmSpec::exact(
            VmId(i + 1),
            SimTime::ZERO,
            res,
            SimDuration::from_secs(300_000),
        );
        let (vm, demand) = (spec.id, spec.resources);
        dc.apply(FleetOp::Place { vm, pm, demand }).unwrap();
        let mut vm = Vm::new(spec);
        vm.state = VmState::Running { pm };
        vm.started_at = Some(SimTime::ZERO);
        vms.insert(vm);
    }
    (dc, vms)
}

fn apply_op(dc: &mut Datacenter, vms: &mut VmTable, next_id: &mut u32, now: SimTime, op: &Op) {
    match *op {
        Op::Arrive { mem_sel, est_secs } => {
            let mem = [256u64, 512, 1_024, 2_048][mem_sel as usize % 4];
            let res = ResourceVector::cpu_mem(1, mem);
            if let Some(pm) = dc.first_fit_available(&res) {
                let spec =
                    VmSpec::exact(VmId(*next_id), now, res, SimDuration::from_secs(est_secs));
                *next_id += 1;
                let (vm, demand) = (spec.id, spec.resources);
                dc.apply(FleetOp::Place { vm, pm, demand }).unwrap();
                let mut vm = Vm::new(spec);
                vm.state = VmState::Running { pm };
                vm.started_at = Some(now);
                vms.insert(vm);
            }
        }
        Op::Depart { pick } => {
            let running: Vec<VmId> = vms
                .values()
                .filter(|v| matches!(v.state, VmState::Running { .. }))
                .map(|v| v.spec.id)
                .collect();
            if let Some(id) = pick_from(&running, pick) {
                dc.apply(FleetOp::Remove { vm: id }).unwrap();
                vms.remove(id);
            }
        }
        Op::Migrate { pick, to } => {
            let running: Vec<VmId> = vms
                .values()
                .filter(|v| matches!(v.state, VmState::Running { .. }))
                .map(|v| v.spec.id)
                .collect();
            if let Some(id) = pick_from(&running, pick) {
                let res = vms[id].spec.resources;
                let from = dc.host_of(id).expect("running VM has a host");
                let targets: Vec<PmId> = dc
                    .available_pms()
                    .filter(|p| p.id != from && p.can_host(&res))
                    .map(|p| p.id)
                    .collect();
                if let Some(to) = pick_from(&targets, to) {
                    let (vm, demand) = (id, res);
                    dc.apply(FleetOp::BeginMigration { vm, to, demand })
                        .unwrap();
                    dc.apply(FleetOp::FinishMigration { vm, from }).unwrap();
                    vms.get_mut(id).unwrap().state = VmState::Running { pm: to };
                }
            }
        }
        Op::FailPm { pick } => {
            let avail: Vec<PmId> = dc.available_pms().map(|p| p.id).collect();
            // Keep a couple of PMs alive so planning stays interesting.
            if avail.len() > 2 {
                if let Some(pm) = pick_from(&avail, pick) {
                    for vm in dc.apply(FleetOp::Fail { pm }).unwrap() {
                        vms.remove(vm);
                    }
                }
            }
        }
        Op::PowerOff { pick } => {
            let idle: Vec<PmId> = dc
                .available_pms()
                .filter(|p| p.is_idle())
                .map(|p| p.id)
                .collect();
            if let Some(pm) = pick_from(&idle, pick) {
                let state = PmState::Off;
                dc.apply(FleetOp::Power { pm, state }).unwrap();
            }
        }
        Op::PowerOn { pick } => {
            let off: Vec<PmId> = dc.off_pm_ids().collect();
            if let Some(pm) = pick_from(&off, pick) {
                let state = PmState::On;
                dc.apply(FleetOp::Power { pm, state }).unwrap();
            }
        }
        Op::Drift { pick, rel_milli } => {
            // Reliability changes only in a setup edit, which forces the
            // incremental planner to rebuild.
            let all: Vec<PmId> = dc.pm_ids().collect();
            if let Some(pm) = pick_from(&all, pick) {
                dc.edit_pms(|pms| pms[pm.0 as usize].reliability = f64::from(rel_milli) / 1_000.0);
            }
        }
    }
    dc.assert_consistent();
}

/// Applies a planned batch the way the simulator does: re-validate each
/// move against the live fleet and skip ones invalidated by earlier moves.
fn apply_moves(dc: &mut Datacenter, vms: &mut VmTable, moves: &[Migration]) {
    for &Migration { vm, from, to } in moves {
        let demand = vms[vm].spec.resources;
        if dc.host_of(vm) == Some(from) && dc.pm(to).can_host(&demand) {
            dc.apply(FleetOp::BeginMigration { vm, to, demand })
                .unwrap();
            dc.apply(FleetOp::FinishMigration { vm, from }).unwrap();
            vms.get_mut(vm).unwrap().state = VmState::Running { pm: to };
        }
    }
}

/// Generated cases per property test.
const CASES: u32 = 32;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The journal-driven planner proposes the exact migration sequence of
    /// a fresh-rebuild twin and of the specification on every pass of
    /// every random fleet history.
    #[test]
    fn incremental_planner_matches_fresh_rebuild(history in history_strategy()) {
        let (mut dc, mut vms) = seeded_fleet();
        let mut next_id = 100u32;
        // Only `inc` is fed the journal; without one, every pass of
        // `full` rebuilds its mirror from the view.
        let mut inc = DynamicPlacement::paper_default();
        let mut full = DynamicPlacement::paper_default();
        let mut reference = Spec::new(DynamicConfig::default());

        let mut now_secs = 0u64;
        for (pass, ops) in history.iter().enumerate() {
            for op in ops {
                apply_op(&mut dc, &mut vms, &mut next_id, SimTime::from_secs(now_secs), op);
            }
            now_secs += 500;
            inc.note_fleet_delta(dc.take_fleet_delta());
            let now = SimTime::from_secs(now_secs);
            let view = PlacementView { dc: &dc, vms: &vms, now };
            let a = inc.plan_migrations(&view);
            prop_assert_eq!(&a, &full.plan_migrations(&view), "pass {} diverged", pass);
            prop_assert_eq!(&a, &reference.plan_migrations(&view), "pass {} (spec)", pass);
            apply_moves(&mut dc, &mut vms, &a);
            dc.assert_consistent();
        }
        prop_assert_eq!(inc.compressed_passes(), history.len() as u64);
    }

    /// The class-compressed kernel proposes the exact migration sequence
    /// of the specification on every pass of every random fleet history —
    /// including reliability-drifted (class-divergent) PMs, power
    /// transitions and PM failures, with skipped-move divergence via the
    /// simulator-style re-validation in `apply_moves`.
    #[test]
    fn compressed_kernel_matches_dense(history in history_strategy()) {
        let (mut dc, mut vms) = seeded_fleet();
        let mut next_id = 100u32;
        let mut comp = DynamicPlacement::paper_default();
        // The specification reads no journal: a fresh rebuild every pass.
        let mut reference = Spec::new(DynamicConfig::default());

        let mut now_secs = 0u64;
        for (pass, ops) in history.iter().enumerate() {
            for op in ops {
                apply_op(&mut dc, &mut vms, &mut next_id, SimTime::from_secs(now_secs), op);
            }
            now_secs += 500;
            comp.note_fleet_delta(dc.take_fleet_delta());
            let now = SimTime::from_secs(now_secs);
            let view = PlacementView { dc: &dc, vms: &vms, now };
            let a = comp.plan_migrations(&view);
            let b = reference.plan_migrations(&view);
            prop_assert_eq!(&a, &b, "pass {} diverged", pass);
            apply_moves(&mut dc, &mut vms, &a);
            dc.assert_consistent();
        }
        prop_assert!(comp.compressed_passes() > 0);
    }
}
