//! Model-based property tests for the planning fast path.
//!
//! Random plans and migration sequences pin the three invariants the
//! optimizations must preserve (DESIGN.md §8):
//!
//! 1. targeted recomputation (the rows/column Algorithm 1 touches) leaves
//!    the matrix entry-for-entry bit-identical to a from-scratch build;
//! 2. the class-cached fast kernel is bit-identical to the reference
//!    kernel, including through the per-column `best_move_for` view;
//! 3. a full `plan_on` pass — incremental matrix plus best-candidate
//!    cache repair — emits exactly the moves a reference-kernel pass does.

use dvmp_cluster::pm::PmId;
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::VmId;
use dvmp_placement::config::DynamicConfig;
use dvmp_placement::factors::EvalContext;
use dvmp_placement::matrix::{MatrixKernel, ProbabilityMatrix};
use dvmp_placement::plan::{PlanPm, PlanState, PlanVm};
use dvmp_placement::DynamicPlacement;
use proptest::prelude::*;

const MAX_VMS: usize = 10;

/// Builds a two-class plan (3 fast + 2 slow PMs) hosting up to [`MAX_VMS`]
/// VMs. Raw generated bytes pick each VM's host; VMs that don't fit their
/// chosen host are dropped, so `used` always stays consistent with the
/// hosted set.
fn build_plan(hosts: &[u8], cores: &[u64], mems: &[u64], remainings: &[u64]) -> PlanState {
    let mut plan = PlanState::default();
    plan.effs = vec![1.0, 0.75];
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
        let mut reference =
            ProbabilityMatrix::build_with_kernel(&plan, &ctx, MatrixKernel::Reference);

        for &(rc, rr) in &moves {
            let col = rc as usize % plan.vms.len();
            let to = rr as usize % plan.pms.len();
            let from = plan.vms[col].host;
            let res = plan.vms[col].resources;
            if to == from || !plan.pms[to].used.fits_with(&res, &plan.pms[to].capacity) {
                continue;
            }
            let (from, to) = plan.apply_migration(col, to);
            for m in [&mut fast, &mut reference] {
                m.recompute_row(&plan, &ctx, from);
                m.recompute_row(&plan, &ctx, to);
                m.recompute_col(&plan, &ctx, col);
            }
            // Invariant 1: incremental == fresh, per kernel.
            let fresh_fast = ProbabilityMatrix::build(&plan, &ctx);
            let fresh_ref =
                ProbabilityMatrix::build_with_kernel(&plan, &ctx, MatrixKernel::Reference);
            assert_same_entries(&fast, &fresh_fast, "incremental fast vs fresh fast");
            assert_same_entries(&reference, &fresh_ref, "incremental ref vs fresh ref");
            // Invariant 2: fast == reference, entries and best-move view.
            assert_same_entries(&fast, &reference, "fast vs reference");
            for c in 0..fast.cols() {
                prop_assert_eq!(
                    fast.best_move_for(&plan, c).map(|(r, d)| (r, d.to_bits())),
                    fresh_ref.best_move_for(&plan, c).map(|(r, d)| (r, d.to_bits())),
                    "best move for column {}", c
                );
            }
        }
    }

    #[test]
    fn plan_on_emits_identical_moves_under_both_kernels(
        hosts in prop::collection::vec(any::<u8>(), 1..MAX_VMS),
        cores in prop::collection::vec(1u64..=3, MAX_VMS),
        mems in prop::collection::vec(1u64..=4, MAX_VMS),
        remainings in prop::collection::vec(200u64..200_000, MAX_VMS),
    ) {
        let plan = build_plan(&hosts, &cores, &mems, &remainings);
        prop_assume!(!plan.vms.is_empty());
        // Pinned to the dense planner, whose matrix the two kernels fill.
        let mut fast_policy = DynamicPlacement::dense_reference(DynamicConfig::default());
        let mut ref_policy = DynamicPlacement::dense_reference(DynamicConfig::default())
            .with_kernel(MatrixKernel::Reference);
        let mut plan_fast = plan.clone();
        let mut plan_ref = plan;
        let fast_moves = fast_policy.plan_on(&mut plan_fast);
        let ref_moves = ref_policy.plan_on(&mut plan_ref);
        prop_assert_eq!(fast_moves, ref_moves);
        // Both end in the same planned occupancy.
        for (a, b) in plan_fast.pms.iter().zip(&plan_ref.pms) {
            prop_assert_eq!(a.used, b.used);
        }
    }
}
