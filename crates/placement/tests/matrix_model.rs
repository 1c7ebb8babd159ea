//! Model-based property tests for the planning fast path.
//!
//! Random plans and migration sequences pin the three invariants the
//! planners must preserve (DESIGN.md §8):
//!
//! 1. targeted recomputation (the rows/column Algorithm 1 touches) leaves
//!    the matrix entry-for-entry bit-identical to a from-scratch build;
//! 2. the matrix and its per-column `best_move_for` view agree with
//!    `factors::joint` evaluated entry by entry;
//! 3. a live planning pass of the production (class-compressed) planner
//!    emits exactly the moves the dense reference's pass does, on
//!    multi-core demands.

use dvmp_cluster::datacenter::{Datacenter, FleetBuilder};
use dvmp_cluster::pm::{PmClass, PmId};
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::{Vm, VmId, VmSpec, VmState};
use dvmp_cluster::VmTable;
use dvmp_placement::config::DynamicConfig;
use dvmp_placement::factors::{self, EvalContext};
use dvmp_placement::matrix::ProbabilityMatrix;
use dvmp_placement::plan::{PlanPm, PlanState, PlanVm};
use dvmp_placement::{DenseReference, DynamicPlacement, PlacementPolicy, PlacementView};
use dvmp_simcore::{SimDuration, SimTime};
use proptest::prelude::*;

const MAX_VMS: usize = 10;

/// Builds a two-class plan (3 fast + 2 slow PMs) hosting up to [`MAX_VMS`]
/// VMs. Raw generated bytes pick each VM's host; VMs that don't fit their
/// chosen host are dropped, so `used` always stays consistent with the
/// hosted set.
fn build_plan(hosts: &[u8], cores: &[u64], mems: &[u64], remainings: &[u64]) -> PlanState {
    let mut plan = PlanState {
        pms: Vec::new(),
        vms: Vec::new(),
        effs: vec![1.0, 0.75],
        now: SimTime::ZERO,
    };
    for i in 0..5u32 {
        let fast = i < 3;
        plan.pms.push(PlanPm {
            id: PmId(i),
            class_idx: usize::from(!fast),
            capacity: if fast {
                ResourceVector::cpu_mem(8, 8_192)
            } else {
                ResourceVector::cpu_mem(4, 4_096)
            },
            used: ResourceVector::zero(2),
            reliability: if fast { 0.99 } else { 0.95 },
            creation_secs: if fast { 30 } else { 40 },
            migration_secs: if fast { 40 } else { 45 },
        });
    }
    for (i, &h) in hosts.iter().enumerate() {
        let row = h as usize % plan.pms.len();
        let res = ResourceVector::cpu_mem(cores[i], mems[i] * 256);
        if plan.pms[row].used.fits_with(&res, &plan.pms[row].capacity) {
            plan.pms[row].used = plan.pms[row].used.add(&res);
            plan.vms.push(PlanVm {
                id: VmId(i as u32 + 1),
                resources: res,
                remaining_secs: remainings[i],
                host: row,
                host_pm: plan.pms[row].id,
            });
        }
    }
    plan
}

/// The live counterpart of [`build_plan`]: the same two classes (3 fast +
/// 2 slow PMs, all on) and the same drop-what-does-not-fit placement, as
/// a datacenter and a VM map whose VMs start at t = 0.
fn build_fleet(
    hosts: &[u8],
    cores: &[u64],
    mems: &[u64],
    remainings: &[u64],
) -> (Datacenter, VmTable) {
    let mut dc = FleetBuilder::new()
        .add_class(PmClass::paper_fast(), 3, 0.99)
        .add_class(PmClass::paper_slow(), 2, 0.95)
        .initially_on(true)
        .build();
    let mut vms = VmTable::new();
    for (i, &h) in hosts.iter().enumerate() {
        let pm = PmId(u32::from(h) % dc.len() as u32);
        let spec = VmSpec::exact(
            VmId(i as u32 + 1),
            SimTime::ZERO,
            ResourceVector::cpu_mem(cores[i], mems[i] * 256),
            SimDuration::from_secs(remainings[i]),
        );
        if dc.pm(pm).can_host(&spec.resources) {
            dc.place(spec.id, pm, spec.resources).unwrap();
            let mut vm = Vm::new(spec);
            vm.state = VmState::Running { pm };
            vm.started_at = Some(SimTime::ZERO);
            vms.insert(vm);
        }
    }
    (dc, vms)
}

fn assert_same_entries(a: &ProbabilityMatrix, b: &ProbabilityMatrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: dims");
    for row in 0..a.rows() {
        for col in 0..a.cols() {
            assert_eq!(
                a.get(row, col).to_bits(),
                b.get(row, col).to_bits(),
                "{what}: entry ({row},{col}) {} vs {}",
                a.get(row, col),
                b.get(row, col)
            );
        }
    }
}

/// Every entry evaluated straight through `factors::joint`, row-major.
fn joint_grid(plan: &PlanState, ctx: &EvalContext<'_>) -> Vec<f64> {
    let mut grid = Vec::new();
    for (row, pm) in plan.pms.iter().enumerate() {
        for vm in &plan.vms {
            grid.push(factors::joint(
                pm,
                vm,
                vm.host == row,
                plan.eff_of(row),
                ctx,
                plan.now,
            ));
        }
    }
    grid
}

/// The per-column best move over a `joint_grid`: the largest normalized
/// entry on a non-host row, lowest row on ties.
fn grid_best(plan: &PlanState, grid: &[f64], col: usize) -> Option<(usize, u64)> {
    let cols = plan.vms.len();
    let host = plan.vms[col].host;
    let pc = grid[host * cols + col];
    let mut best: Option<(usize, f64)> = None;
    for row in (0..plan.pms.len()).filter(|&r| r != host) {
        let p = grid[row * cols + col];
        let d = if pc > 0.0 {
            p / pc
        } else if p > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        if d > 0.0 && best.map_or(true, |(_, bd)| d > bd) {
            best = Some((row, d));
        }
    }
    best.map(|(r, d)| (r, d.to_bits()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_updates_and_fast_kernel_match_fresh_reference_builds(
        hosts in prop::collection::vec(any::<u8>(), 1..MAX_VMS),
        cores in prop::collection::vec(1u64..=3, MAX_VMS),
        mems in prop::collection::vec(1u64..=4, MAX_VMS),
        remainings in prop::collection::vec(200u64..200_000, MAX_VMS),
        moves in prop::collection::vec((any::<u8>(), any::<u8>()), 0..16),
    ) {
        let mut plan = build_plan(&hosts, &cores, &mems, &remainings);
        prop_assume!(!plan.vms.is_empty());
        let cfg = DynamicConfig::default();
        let ctx = EvalContext::new(&cfg);
        let mut fast = ProbabilityMatrix::build(&plan, &ctx);

        for &(rc, rr) in &moves {
            let col = rc as usize % plan.vms.len();
            let to = rr as usize % plan.pms.len();
            let from = plan.vms[col].host;
            let res = plan.vms[col].resources;
            if to == from || !plan.pms[to].used.fits_with(&res, &plan.pms[to].capacity) {
                continue;
            }
            let (from, to) = plan.apply_migration(col, to);
            fast.recompute_row(&plan, &ctx, from);
            fast.recompute_row(&plan, &ctx, to);
            fast.recompute_col(&plan, &ctx, col);
            // Invariant 1: incremental == fresh.
            let fresh = ProbabilityMatrix::build(&plan, &ctx);
            assert_same_entries(&fast, &fresh, "incremental vs fresh");
            // Invariant 2: the matrix == per-entry `joint`, entries and
            // best-move view.
            let grid = joint_grid(&plan, &ctx);
            for row in 0..fast.rows() {
                for c in 0..fast.cols() {
                    prop_assert_eq!(
                        fast.get(row, c).to_bits(),
                        grid[row * fast.cols() + c].to_bits(),
                        "entry ({}, {})", row, c
                    );
                }
            }
            for c in 0..fast.cols() {
                prop_assert_eq!(
                    fast.best_move_for(&plan, c).map(|(r, d)| (r, d.to_bits())),
                    grid_best(&plan, &grid, c),
                    "best move for column {}", c
                );
            }
        }
    }

    #[test]
    fn live_pass_matches_the_dense_reference_on_multi_core_demands(
        hosts in prop::collection::vec(any::<u8>(), 1..MAX_VMS),
        cores in prop::collection::vec(1u64..=3, MAX_VMS),
        mems in prop::collection::vec(1u64..=4, MAX_VMS),
        remainings in prop::collection::vec(200u64..200_000, MAX_VMS),
        now_s in 0u64..2_000,
    ) {
        let (dc, vms) = build_fleet(&hosts, &cores, &mems, &remainings);
        prop_assume!(!vms.is_empty());
        let view = PlacementView { dc: &dc, vms: &vms, now: SimTime::from_secs(now_s) };
        let mut production = DynamicPlacement::paper_default();
        let mut reference = DenseReference::new(DynamicConfig::default());
        prop_assert_eq!(
            production.plan_migrations(&view),
            reference.plan_migrations(&view)
        );
    }
}
