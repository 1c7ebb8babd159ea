//! Differential property tests for cross-interval incremental planning
//! (DESIGN.md §8).
//!
//! Random fleet histories — arrivals, departures, live migrations, PM
//! failures, power transitions and reliability drift, all applied through
//! the real [`Datacenter`] mutation API so every change flows through the
//! fleet-delta journal — are driven through two planners in lockstep:
//!
//! 1. at the **policy** level, an incremental [`DynamicPlacement`] (fed the
//!    drained journal each pass, so low-dirt passes take the delta path)
//!    against a fresh-rebuild twin fed no journal: every pass must propose
//!    the identical migration sequence;
//! 2. at the **matrix** level, a persistent [`ProbabilityMatrix`] updated
//!    via [`ProbabilityMatrix::update_incremental`] against a fresh
//!    [`ProbabilityMatrix::build`]: every entry and every best-candidate
//!    slot must agree bit for bit.

use dvmp_cluster::datacenter::{Datacenter, FleetBuilder};
use dvmp_cluster::pm::{PmClass, PmId, PmState};
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::{Vm, VmId, VmSpec, VmState};
use dvmp_placement::factors::EvalContext;
use dvmp_placement::plan::PlanState;
use dvmp_placement::{
    DynamicConfig, DynamicPlacement, Migration, PlacementPolicy, PlacementView, ProbabilityMatrix,
};
use dvmp_simcore::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

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
fn seeded_fleet() -> (Datacenter, BTreeMap<VmId, Vm>) {
    let mut dc = FleetBuilder::new()
        .add_class(PmClass::paper_fast(), 4, 0.99)
        .add_class(PmClass::paper_slow(), 3, 0.95)
        .initially_on(true)
        .build();
    let mut vms = BTreeMap::new();
    for i in 0..6u32 {
        let res = ResourceVector::cpu_mem(1, 512 * u64::from(1 + i % 3));
        let pm = dc.first_fit_available(&res).expect("seed VM fits");
        let spec = VmSpec::exact(
            VmId(i + 1),
            SimTime::ZERO,
            res,
            SimDuration::from_secs(300_000),
        );
        dc.place(spec.id, pm, spec.resources).unwrap();
        let mut vm = Vm::new(spec);
        vm.state = VmState::Running { pm };
        vm.started_at = Some(SimTime::ZERO);
        vms.insert(vm.spec.id, vm);
    }
    (dc, vms)
}

fn apply_op(
    dc: &mut Datacenter,
    vms: &mut BTreeMap<VmId, Vm>,
    next_id: &mut u32,
    now: SimTime,
    op: &Op,
) {
    match *op {
        Op::Arrive { mem_sel, est_secs } => {
            let mem = [256u64, 512, 1_024, 2_048][mem_sel as usize % 4];
            let res = ResourceVector::cpu_mem(1, mem);
            if let Some(pm) = dc.first_fit_available(&res) {
                let spec =
                    VmSpec::exact(VmId(*next_id), now, res, SimDuration::from_secs(est_secs));
                *next_id += 1;
                dc.place(spec.id, pm, spec.resources).unwrap();
                let mut vm = Vm::new(spec);
                vm.state = VmState::Running { pm };
                vm.started_at = Some(now);
                vms.insert(vm.spec.id, vm);
            }
        }
        Op::Depart { pick } => {
            let running: Vec<VmId> = vms
                .values()
                .filter(|v| matches!(v.state, VmState::Running { .. }))
                .map(|v| v.spec.id)
                .collect();
            if let Some(id) = pick_from(&running, pick) {
                dc.remove_vm(id);
                vms.remove(&id);
            }
        }
        Op::Migrate { pick, to } => {
            let running: Vec<VmId> = vms
                .values()
                .filter(|v| matches!(v.state, VmState::Running { .. }))
                .map(|v| v.spec.id)
                .collect();
            if let Some(id) = pick_from(&running, pick) {
                let res = vms[&id].spec.resources;
                let from = dc.host_of(id).expect("running VM has a host");
                let targets: Vec<PmId> = dc
                    .available_pms()
                    .filter(|p| p.id != from && p.can_host(&res))
                    .map(|p| p.id)
                    .collect();
                if let Some(t) = pick_from(&targets, to) {
                    dc.begin_migration(id, t, res).unwrap();
                    dc.finish_migration(id, from).unwrap();
                    vms.get_mut(&id).unwrap().state = VmState::Running { pm: t };
                }
            }
        }
        Op::FailPm { pick } => {
            let avail: Vec<PmId> = dc.available_pms().map(|p| p.id).collect();
            // Keep a couple of PMs alive so planning stays interesting.
            if avail.len() > 2 {
                if let Some(pm) = pick_from(&avail, pick) {
                    for vm in dc.fail_pm(pm) {
                        vms.remove(&vm);
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
                dc.pm_mut(pm).state = PmState::Off;
            }
        }
        Op::PowerOn { pick } => {
            let off: Vec<PmId> = dc.off_pm_ids().collect();
            if let Some(pm) = pick_from(&off, pick) {
                dc.pm_mut(pm).state = PmState::On;
            }
        }
        Op::Drift { pick, rel_milli } => {
            let all: Vec<PmId> = dc.pm_ids().collect();
            if let Some(pm) = pick_from(&all, pick) {
                dc.pm_mut(pm).reliability = f64::from(rel_milli) / 1_000.0;
            }
        }
    }
    dc.assert_consistent();
}

/// Applies a planned batch the way the simulator does: re-validate each
/// move against the live fleet and skip ones invalidated by earlier moves.
fn apply_moves(dc: &mut Datacenter, vms: &mut BTreeMap<VmId, Vm>, moves: &[Migration]) {
    for m in moves {
        let res = vms[&m.vm].spec.resources;
        if dc.host_of(m.vm) == Some(m.from) && dc.pm(m.to).can_host(&res) {
            dc.begin_migration(m.vm, m.to, res).unwrap();
            dc.finish_migration(m.vm, m.from).unwrap();
            vms.get_mut(&m.vm).unwrap().state = VmState::Running { pm: m.to };
        }
    }
}

/// Best-candidate slots with the ratio in bit-exact form.
fn best_bits(best: &[Option<(usize, f64)>]) -> Vec<Option<(usize, u64)>> {
    best.iter()
        .map(|slot| slot.map(|(row, d)| (row, d.to_bits())))
        .collect()
}

/// Generated cases per property test.
const CASES: u32 = 32;

/// Delta passes and finished cases of `incremental_planner_matches_fresh_rebuild`,
/// summed over its generated histories.
static DELTA_PASSES: AtomicU64 = AtomicU64::new(0);
static HISTORIES_DONE: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The incremental planner proposes the exact migration sequence of a
    /// fresh-rebuild planner on every pass of every random fleet history.
    #[test]
    fn incremental_planner_matches_fresh_rebuild(history in history_strategy()) {
        let (mut dc, mut vms) = seeded_fleet();
        let mut next_id = 100u32;
        // Both pinned to the dense kernel: this is the dense incremental
        // matrix's own contract. Only `inc` is fed the journal; without
        // one, every pass of `full` rebuilds from scratch.
        let mut inc = DynamicPlacement::dense_reference(DynamicConfig::default());
        let mut full = DynamicPlacement::dense_reference(DynamicConfig::default());

        let mut now_secs = 0u64;
        // Passes where the planner actually plans (it skips degenerate
        // views: nothing migratable, or fewer than two available PMs).
        let mut real_passes = 0u64;
        for (pass, ops) in history.iter().enumerate() {
            for op in ops {
                apply_op(&mut dc, &mut vms, &mut next_id, SimTime::from_secs(now_secs), op);
            }
            now_secs += 500;
            inc.note_fleet_delta(dc.take_fleet_delta());
            let now = SimTime::from_secs(now_secs);
            let view = PlacementView { dc: &dc, vms: &vms, now };
            if view.migratable_vms().next().is_some() && dc.available_pms().count() >= 2 {
                real_passes += 1;
            }
            let a = inc.plan_migrations(&view);
            let b = full.plan_migrations(&view);
            prop_assert_eq!(&a, &b, "pass {} diverged", pass);
            apply_moves(&mut dc, &mut vms, &a);
            dc.assert_consistent();
        }
        // Every real pass is either a delta pass or a full rebuild
        // (degenerate passes plan nothing and carry the accumulated
        // journal forward), and `full` never had a journal to extend.
        prop_assert_eq!(inc.incremental_passes() + inc.full_rebuilds(), real_passes);
        prop_assert_eq!(full.incremental_passes(), 0);
        // The guard above is only meaningful if the delta path actually
        // ran. Passes dirtier than the rebuild threshold rebuild instead,
        // so a single history may hold none; the histories together must.
        DELTA_PASSES.fetch_add(inc.incremental_passes(), Ordering::Relaxed);
        if HISTORIES_DONE.fetch_add(1, Ordering::Relaxed) + 1 == u64::from(CASES) {
            prop_assert!(DELTA_PASSES.load(Ordering::Relaxed) > 0, "no history took a delta pass");
        }
    }

    /// The class-compressed kernel proposes the exact migration sequence
    /// of the dense planner on every pass of every random fleet history —
    /// including reliability-drifted (class-divergent) PMs, power
    /// transitions and PM failures, with skipped-move divergence via the
    /// simulator-style re-validation in `apply_moves`.
    #[test]
    fn compressed_kernel_matches_dense(history in history_strategy()) {
        let (mut dc, mut vms) = seeded_fleet();
        let mut next_id = 100u32;
        let mut comp = DynamicPlacement::paper_default();
        // Fed no journal: a fresh dense rebuild every pass.
        let mut dense = DynamicPlacement::dense_reference(DynamicConfig::default());

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
            let b = dense.plan_migrations(&view);
            prop_assert_eq!(&a, &b, "pass {} diverged", pass);
            apply_moves(&mut dc, &mut vms, &a);
            dc.assert_consistent();
        }
        // Seven PMs and a handful of drift values never exhaust the
        // registries: every pass above really exercised the kernel.
        prop_assert!(!comp.compressed_poisoned());
        prop_assert!(comp.compressed_passes() > 0);
    }

    /// A journal-driven `update_incremental` leaves the probability matrix
    /// and best-candidate cache bit-identical to a fresh build on every
    /// pass of every random fleet history.
    #[test]
    fn incremental_matrix_is_bit_identical_to_fresh_build(history in history_strategy()) {
        let (mut dc, mut vms) = seeded_fleet();
        let mut next_id = 100u32;
        let cfg = DynamicConfig::default();
        let ctx = EvalContext::new(&cfg);

        let mut now_secs = 0u64;
        let mut kept: Option<ProbabilityMatrix> = None;
        let mut prev_rows: Vec<PmId> = Vec::new();
        let mut prev_cols: Vec<VmId> = Vec::new();
        let (mut dirty_rows, mut row_src) = (Vec::new(), Vec::new());
        let (mut dirty_cols, mut col_src) = (Vec::new(), Vec::new());

        for (pass, ops) in history.iter().enumerate() {
            for op in ops {
                apply_op(&mut dc, &mut vms, &mut next_id, SimTime::from_secs(now_secs), op);
            }
            now_secs += 500;
            let delta = dc.take_fleet_delta();
            let now = SimTime::from_secs(now_secs);
            let view = PlacementView { dc: &dc, vms: &vms, now };
            let plan = PlanState::from_view(&view, &cfg.min_vm);
            let mut fresh = ProbabilityMatrix::build(&plan, &ctx);

            let mut fused_best: Option<Vec<Option<(usize, f64)>>> = None;
            match kept.as_mut() {
                None => kept = Some(ProbabilityMatrix::build(&plan, &ctx)),
                Some(m) => {
                    // The planner's dirty-set derivation: journal-dirtied
                    // ids map onto surviving rows/columns, new ids are
                    // unconditionally dirty.
                    dirty_rows.clear();
                    row_src.clear();
                    for pm in &plan.pms {
                        match prev_rows.binary_search(&pm.id) {
                            Ok(i) => {
                                row_src.push(i as u32);
                                dirty_rows.push(delta.is_full() || delta.dirty_pms().contains(&pm.id));
                            }
                            Err(_) => {
                                row_src.push(0);
                                dirty_rows.push(true);
                            }
                        }
                    }
                    dirty_cols.clear();
                    col_src.clear();
                    for vm in &plan.vms {
                        match prev_cols.binary_search(&vm.id) {
                            Ok(i) => {
                                col_src.push(i as u32);
                                dirty_cols.push(delta.is_full() || delta.dirty_vms().contains(&vm.id));
                            }
                            Err(_) => {
                                col_src.push(0);
                                dirty_cols.push(true);
                            }
                        }
                    }
                    let mut best = Vec::new();
                    let engaged = m.update_incremental(
                        &plan, &ctx, &dirty_rows, &row_src, &dirty_cols, &col_src, &mut best,
                    );
                    prop_assert!(engaged, "pass {}: delta update must engage", pass);
                    fused_best = Some(best);
                }
            }

            let m = kept.as_mut().unwrap();
            prop_assert_eq!(m.rows(), fresh.rows());
            prop_assert_eq!(m.cols(), fresh.cols());
            for r in 0..fresh.rows() {
                for c in 0..fresh.cols() {
                    prop_assert_eq!(
                        m.get(r, c).to_bits(),
                        fresh.get(r, c).to_bits(),
                        "pass {}: entry ({}, {}) diverged",
                        pass, r, c
                    );
                }
            }
            let (mut kept_best, mut fresh_best) = (Vec::new(), Vec::new());
            m.refill_best(&plan, &mut kept_best);
            fresh.refill_best(&plan, &mut fresh_best);
            prop_assert_eq!(best_bits(&kept_best), best_bits(&fresh_best), "pass {}", pass);
            // The best cache the update fused into its sweep agrees with a
            // standalone refill over the same matrix.
            if let Some(fused) = &fused_best {
                prop_assert_eq!(best_bits(fused), best_bits(&fresh_best), "pass {} (fused)", pass);
            }

            prev_rows.clear();
            prev_rows.extend(plan.pms.iter().map(|p| p.id));
            prev_cols.clear();
            prev_cols.extend(plan.vms.iter().map(|v| v.id));
        }
    }
}
