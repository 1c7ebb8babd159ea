//! The executable specification against the paper's equations: each
//! factor of Eq. 2–5 on hand-computed values, the matrix and its
//! column normalization, Algorithm 1's rounds and the Section III-C
//! worked example.

use crate::config::{CapacityBasis, DynamicConfig, OverheadMode};
use crate::policy::testutil::*;
use crate::policy::{KeyedFactor, PlacementPolicy, PlacementView};
use crate::spec::{level_for, p_eff, Fleet, Row, Spec};
use dvmp_cluster::datacenter::{Datacenter, FleetBuilder};
use dvmp_cluster::pm::{PmClass, PmId, PmState};
use dvmp_cluster::resources::{OverbookRatios, ResourceVector};
use dvmp_cluster::vm::{VmId, VmState};
use dvmp_cluster::FleetOp;
use dvmp_cluster::VmTable;
use dvmp_simcore::SimTime;
use std::sync::Arc;

fn view<'a>(dc: &'a Datacenter, vms: &'a VmTable, now: u64) -> PlacementView<'a> {
    PlacementView {
        dc,
        vms,
        now: SimTime::from_secs(now),
    }
}

/// A fast-class row (8 cores, 8 GiB, `T^cre` 30 s, `T^mig` 40 s).
fn fast_row(used_cores: u64, used_mem: u64) -> Row {
    Row {
        id: PmId(0),
        capacity: ResourceVector::cpu_mem(8, 8_192),
        used: ResourceVector::cpu_mem(used_cores, used_mem),
        rel: 0.99,
        cre: 30,
        mig: 40,
        eff: 1.0,
    }
}

/// A slow-class row (4 cores, 4 GiB, `T^cre` 40 s, `T^mig` 45 s).
fn slow_row(used_cores: u64, used_mem: u64) -> Row {
    Row {
        id: PmId(0),
        capacity: ResourceVector::cpu_mem(4, 4_096),
        used: ResourceVector::cpu_mem(used_cores, used_mem),
        rel: 1.0,
        cre: 40,
        mig: 45,
        eff: 1.0,
    }
}

fn one_core() -> ResourceVector {
    ResourceVector::cpu_mem(1, 512)
}

/// The scheme with the paper's parameters.
fn paper() -> Spec {
    Spec::new(DynamicConfig::default())
}

/// The scheme with `p^vir`, `p^rel` and `p^eff` switched off: `p = p^res`.
fn res_only() -> Spec {
    Spec::new(DynamicConfig {
        use_vir: false,
        use_rel: false,
        use_eff: false,
        ..DynamicConfig::default()
    })
}

/// `p` of moving a one-core VM onto `row` from another PM.
fn moved(spec: &Spec, row: &Row, remaining: u64, now: SimTime) -> f64 {
    let elsewhere = Row {
        id: PmId(99),
        ..row.clone()
    };
    spec.p(row, &one_core(), remaining, Some(&elsewhere), true, now)
}

// ---------------------------------------------------------------------------
// Eq. 2: p^res
// ---------------------------------------------------------------------------

#[test]
fn feasible_is_one() {
    let spec = res_only();
    let p = |row: &Row| spec.p(row, &one_core(), 0, None, false, SimTime::ZERO);
    assert_eq!(p(&slow_row(0, 0)), 1.0);
    assert_eq!(p(&slow_row(3, 3_584)), 1.0);
}

#[test]
fn any_overflowing_dimension_is_zero() {
    let spec = res_only();
    let p = |row: &Row, demand| spec.p(row, &demand, 0, None, false, SimTime::ZERO);
    // CPU overflows.
    assert_eq!(p(&slow_row(4, 0), ResourceVector::cpu_mem(1, 1)), 0.0);
    // Memory overflows.
    assert_eq!(p(&slow_row(0, 4_000), one_core()), 0.0);
}

#[test]
fn current_host_is_always_feasible() {
    // I5: even a "full" host, because the VM's demand is already in `used`.
    let row = slow_row(4, 4_096);
    let p = res_only().p(&row, &one_core(), 0, Some(&row), false, SimTime::ZERO);
    assert_eq!(p, 1.0);
}

#[test]
fn exact_boundary_fits() {
    let spec = res_only();
    let p = |row: &Row| spec.p(row, &one_core(), 0, None, false, SimTime::ZERO);
    assert_eq!(p(&slow_row(3, 3_584)), 1.0);
    assert_eq!(p(&slow_row(3, 3_585)), 0.0);
}

// ---------------------------------------------------------------------------
// p^rel
// ---------------------------------------------------------------------------

#[test]
fn factor_equals_pm_score() {
    let spec = Spec::new(DynamicConfig {
        use_vir: false,
        use_eff: false,
        ..DynamicConfig::default()
    });
    let row = Row {
        rel: 0.87,
        ..slow_row(0, 0)
    };
    assert_eq!(
        spec.p(&row, &one_core(), 0, None, false, SimTime::ZERO),
        0.87
    );
}

// ---------------------------------------------------------------------------
// Eqs. 4–5: p^eff at the prospective level (I1), with a (1, 512) R^MIN
// ---------------------------------------------------------------------------

fn eff(row: &Row, hosted: bool) -> f64 {
    p_eff(row, &one_core(), hosted, &one_core())
}

#[test]
fn empty_pm_gets_level_one_prospectively() {
    // I1: an empty PM evaluated with a candidate min-VM lands at level 1,
    // not level 0.
    let p = eff(&fast_row(0, 0), false);
    assert!((p - 1.0 / 8.0).abs() < 1e-12, "p = {p}");
}

#[test]
fn fuller_pm_has_higher_factor() {
    let near_full = eff(&fast_row(6, 3_072), false);
    let emptyish = eff(&fast_row(1, 512), false);
    assert!(
        near_full > emptyish,
        "consolidation gradient: {near_full} vs {emptyish}"
    );
}

#[test]
fn full_pm_reaches_unit_level() {
    // 7 min-VMs hosted, the 8th arriving: prospective u = (8/8)·(4096/8192)
    // = 0.5 = 64·U_min → level 8 of 8.
    let p = eff(&fast_row(7, 3_584), false);
    assert!((p - 1.0).abs() < 1e-12, "p = {p}");
}

#[test]
fn efficiency_parameter_scales_linearly() {
    let row = fast_row(3, 1_536);
    let scaled = Row {
        eff: 2.0 / 3.0,
        ..row.clone()
    };
    assert!((eff(&scaled, false) - eff(&row, false) * 2.0 / 3.0).abs() < 1e-12);
}

#[test]
fn hosted_row_uses_current_occupancy() {
    // Host with only this VM: used (1, 512) → u = U_min → level 1.
    let p = eff(&fast_row(1, 512), true);
    assert!((p - 1.0 / 8.0).abs() < 1e-12);
}

#[test]
fn zero_slots_or_zero_eff_give_zero() {
    let tiny = Row {
        capacity: ResourceVector::cpu_mem(0, 8_192),
        ..fast_row(0, 0)
    };
    assert_eq!(eff(&tiny, false), 0.0);
    let inefficient = Row {
        eff: 0.0,
        ..fast_row(0, 0)
    };
    assert_eq!(eff(&inefficient, false), 0.0);
}

#[test]
fn three_dimensional_levels_use_cubic_boundaries() {
    // K = 3 (cpu, mem, disk): Eq. 4's boundaries grow as w³·U_min.
    let row = Row {
        capacity: ResourceVector::new(&[8, 8_192, 1_000]),
        used: ResourceVector::zero(3),
        ..fast_row(0, 0)
    };
    let min3 = ResourceVector::new(&[1, 512, 50]);
    // W = min(8, 16, 20) = 8; U_min = (1/8)(512/8192)(50/1000).
    assert_eq!(row.capacity.contains_times(&min3), 8);
    let u_min = (1.0 / 8.0) * (512.0 / 8_192.0) * (50.0 / 1_000.0);
    // Exactly 2³·U_min lands on level 2; just below stays level 1.
    assert_eq!(level_for(8.0 * u_min, u_min, 8, 3), 2);
    assert_eq!(level_for(7.9 * u_min, u_min, 8, 3), 1);
    assert_eq!(level_for(27.0 * u_min, u_min, 8, 3), 3);
    // Prospective eff for one min-VM on the empty 3-D machine: 1/8.
    let p = p_eff(&row, &min3, false, &min3);
    assert!((p - 0.125).abs() < 1e-12, "p = {p}");
}

#[test]
fn a_boundary_reached_through_rounding_counts() {
    // Three (1, 1024) VMs on a (5, 5120) PM sit exactly on 3²·U_MIN, which
    // the utilization product rounds to just below: the Eq. 4 slack keeps
    // them on level 3 of 5 (I1).
    let row = Row {
        capacity: ResourceVector::cpu_mem(5, 5_120),
        used: ResourceVector::cpu_mem(2, 2_048),
        ..fast_row(0, 0)
    };
    let vm = ResourceVector::cpu_mem(1, 1_024);
    assert_eq!(p_eff(&row, &vm, false, &vm), 3.0 / 5.0);
}

#[test]
fn factor_is_within_unit_interval() {
    for cores in 0..8 {
        let p = eff(&fast_row(cores, cores * 512), false);
        assert!((0.0..=1.0).contains(&p), "p = {p} at cores = {cores}");
    }
}

// ---------------------------------------------------------------------------
// The joint product (Eq. 1's entries) and the extension factors
// ---------------------------------------------------------------------------

#[test]
fn joint_is_product_of_factors() {
    let spec = paper();
    let row = fast_row(2, 1_024);
    let p = moved(&spec, &row, 10_000, SimTime::ZERO);
    // p^res = 1; Eq. 3 charges T_cre + T_mig = 70 s; with R^MIN = (1, 256)
    // the prospective (3, 1536) occupancy is 18·U_min → level 4 of W = 8.
    let vir = (9_930.0f64 / 10_000.0).powi(2);
    let expected = vir * 0.99 * (4.0 / 8.0);
    assert!((p - expected).abs() < 1e-15, "{p} vs {expected}");
    assert!(p > 0.0 && p <= 1.0);
}

#[test]
fn infeasible_short_circuits_to_zero() {
    let spec = paper();
    assert_eq!(
        moved(&spec, &fast_row(8, 8_192), 10_000, SimTime::ZERO),
        0.0
    );
}

#[test]
fn ablation_switches_remove_factors() {
    // Only p^res remains: feasible → exactly 1, whatever eff_j.
    let row = Row {
        eff: 0.5,
        ..fast_row(2, 1_024)
    };
    assert_eq!(moved(&res_only(), &row, 10_000, SimTime::ZERO), 1.0);
}

#[test]
fn hosted_vm_has_probability_rel_times_eff() {
    // Exactly the VM's own reservation, and a remaining time too short to
    // move — irrelevant on the current host: p = p^rel · p^eff, and with
    // R^MIN = (1, 256) the occupancy is 2·U_min → level 1 of 8.
    let row = fast_row(1, 512);
    let spec = paper();
    let p = spec.p(&row, &one_core(), 100, Some(&row), true, SimTime::ZERO);
    let expected = 0.99 * (1.0 / 8.0);
    assert!((p - expected).abs() < 1e-15, "{p} vs {expected}");
}

#[test]
fn joint_new_uses_estimate() {
    let spec = paper();
    let row = fast_row(0, 0);
    let new = |est| spec.p(&row, &one_core(), est, None, true, SimTime::ZERO);
    let (long, mid, short) = (new(100_000), new(100), new(50));
    assert!(
        long > mid,
        "longer estimates suffer relatively less overhead"
    );
    assert!(mid > 0.0);
    assert_eq!(
        short, 0.0,
        "an estimate below the joint overheads zeroes the column; place \
         falls back to feasibility (DESIGN.md I9)"
    );
}

/// A toy time-varying keyed factor: halves the probability on odd
/// simulated hours, whatever the keys.
#[derive(Debug)]
struct OddHourTax;

impl KeyedFactor for OddHourTax {
    fn name(&self) -> &str {
        "odd-hour-tax"
    }
    fn key_count(&self) -> u16 {
        1
    }
    fn key(&self, _: PmId) -> u16 {
        0
    }
    fn factor(&self, _: Option<u16>, _: u16, now: SimTime) -> f64 {
        if now.hour_index() % 2 == 1 {
            0.5
        } else {
            1.0
        }
    }
}

#[test]
fn extra_factors_multiply_in() {
    let row = fast_row(2, 1_024);
    let taxed = paper().with_factor(Arc::new(OddHourTax));
    let even = moved(&taxed, &row, 10_000, SimTime::from_hours(2));
    let odd = moved(&taxed, &row, 10_000, SimTime::from_hours(3));
    assert!((odd - even * 0.5).abs() < 1e-15);
    // Without the factor the odd hour is untaxed.
    let base = moved(&paper(), &row, 10_000, SimTime::from_hours(3));
    assert!((base - even).abs() < 1e-15);
}

/// Keyed on the PM id itself: vetoes every mapping onto PM 0 and
/// returns an out-of-range value elsewhere, which is clamped.
#[derive(Debug)]
struct Veto;

impl KeyedFactor for Veto {
    fn name(&self) -> &str {
        "veto"
    }
    fn key_count(&self) -> u16 {
        2
    }
    fn key(&self, pm: PmId) -> u16 {
        u16::from(pm != PmId(0))
    }
    fn factor(&self, _: Option<u16>, to: u16, _: SimTime) -> f64 {
        if to == 0 {
            0.0
        } else {
            7.5 // clamped to 1
        }
    }
}

#[test]
fn extras_can_veto_and_are_clamped() {
    let vetoing = paper().with_factor(Arc::new(Veto));
    let plain = paper();
    let pm0 = fast_row(2, 1_024);
    let pm1 = Row {
        id: PmId(1),
        ..fast_row(2, 1_024)
    };
    assert_eq!(moved(&vetoing, &pm0, 10_000, SimTime::ZERO), 0.0);
    let with = moved(&vetoing, &pm1, 10_000, SimTime::ZERO);
    let without = moved(&plain, &pm1, 10_000, SimTime::ZERO);
    assert!((with - without).abs() < 1e-15, "7.5 clamps to 1.0");
    // A new request sees the same keyed veto.
    let new = |row: &Row| vetoing.p(row, &one_core(), 10_000, None, true, SimTime::ZERO);
    assert_eq!(new(&pm0), 0.0);
    assert!(new(&pm1) > 0.0);
}

// ---------------------------------------------------------------------------
// What a pass reads from the view
// ---------------------------------------------------------------------------

/// `dc` with each `(VM id, PM, estimated seconds)` placed as a running
/// one-core, 512 MiB VM started at t = 0.
fn hosting(mut dc: Datacenter, placed: &[(u32, u32, u64)]) -> (Datacenter, VmTable) {
    let mut vms = VmTable::with_ids(placed.iter().map(|&(id, ..)| VmId(id))).unwrap();
    for &(id, pm, est) in placed {
        install(
            &mut dc,
            &mut vms,
            spec(id, 512, est),
            PmId(pm),
            SimTime::ZERO,
        );
    }
    (dc, vms)
}

#[test]
fn from_view_captures_available_pms_and_running_vms() {
    let (mut dc, vms) = hosting(small_fleet(), &[(1, 0, 10_000), (2, 2, 10_000)]);
    power(&mut dc, PmId(3), PmState::Off);

    let fleet = paper().fleet(&view(&dc, &vms, 1_000));
    assert_eq!(fleet.rows.len(), 3, "pm3 is off");
    assert_eq!(fleet.cols.len(), 2);
    // Remaining time reflects elapsed runtime.
    assert_eq!(fleet.cols[0].remaining, 9_000);
    // Hosts resolve to row indices.
    assert_eq!(fleet.rows[fleet.cols[0].host].id, PmId(0));
    assert_eq!(fleet.rows[fleet.cols[1].host].id, PmId(2));
    // eff_j: the fast class is the reference.
    assert_eq!(fleet.rows[0].eff, 1.0);
    assert!(fleet.rows[2].eff < 1.0);
}

#[test]
fn creating_and_migrating_vms_occupy_but_do_not_move() {
    let (dc, mut vms) = hosting(small_fleet(), &[(1, 0, 10_000)]);
    vms.get_mut(VmId(1)).unwrap().state = VmState::Creating {
        pm: PmId(0),
        ready_at: SimTime::from_secs(30),
    };
    let fleet = paper().fleet(&view(&dc, &vms, 0));
    assert!(fleet.cols.is_empty(), "creating VM is not migratable");
    // But its reservation still shows in its row's occupancy.
    assert_eq!(fleet.rows[0].used.get(0), 1);
}

#[test]
fn rows_use_virtual_capacity_and_columns_use_live_demand() {
    let (mut dc, mut vms) = hosting(small_fleet(), &[(1, 0, 10_000)]);
    dc.edit_pms(|pms| pms[0].overbook = Some(OverbookRatios::cpu_mem(200, 100)));
    // The VM has since grown to 3 cores.
    let new = ResourceVector::cpu_mem(3, 512);
    dc.apply(FleetOp::Resize { vm: VmId(1), new }).unwrap();
    vms.get_mut(VmId(1)).unwrap().current_demand = Some(new);

    let fleet = paper().fleet(&view(&dc, &vms, 0));
    // paper_fast is 8 cores; 200% CPU overbooking doubles the row bound.
    assert_eq!(fleet.rows[0].capacity.get(0), 16);
    // The column carries the resized demand, not the spec.
    assert_eq!(fleet.cols[0].demand, new);
    assert_eq!(fleet.rows[0].used.get(0), 3);

    // The Physical ablation ignores the ratios.
    let physical = Spec::new(DynamicConfig {
        capacity_basis: CapacityBasis::Physical,
        ..DynamicConfig::default()
    });
    let rows = physical.fleet(&view(&dc, &vms, 0)).rows;
    assert_eq!(rows[0].capacity.get(0), 8);
}

// ---------------------------------------------------------------------------
// The matrix, its column normalization and Algorithm 1
// ---------------------------------------------------------------------------

/// Two VMs on fast PM 0, one on slow PM 2, in the 2 fast + 2 slow fleet.
fn fixture() -> Fleet {
    let (dc, vms) = hosting(
        small_fleet(),
        &[(1, 0, 50_000), (2, 0, 50_000), (3, 2, 50_000)],
    );
    paper().fleet(&view(&dc, &vms, 0))
}

/// Column `col`'s best non-host row and its `d`, lowest row on ties.
fn column_best(fleet: &Fleet, col: usize) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for row in (0..fleet.rows.len()).filter(|&r| r != fleet.cols[col].host) {
        let d = paper().normalized(fleet, row, col);
        if d > 0.0 && best.map_or(true, |(_, bd)| d > bd) {
            best = Some((row, d));
        }
    }
    best
}

#[test]
fn dimensions_match_plan() {
    let fleet = fixture();
    assert_eq!((fleet.rows.len(), fleet.cols.len()), (4, 3));
}

#[test]
fn host_entries_are_rel_times_eff() {
    let fleet = fixture();
    let min_vm = DynamicConfig::default().min_vm;
    for (col, c) in fleet.cols.iter().enumerate() {
        // p^res = p^vir = 1 on the host row, so p = p^rel · p^eff.
        let row = &fleet.rows[c.host];
        let expected = row.rel * p_eff(row, &c.demand, true, &min_vm);
        let p = paper().entry(&fleet, c.host, col);
        assert_eq!(p.to_bits(), expected.to_bits());
        assert!(p > 0.0);
    }
}

#[test]
fn normalized_is_one_on_host_row() {
    let fleet = fixture();
    for (col, c) in fleet.cols.iter().enumerate() {
        assert_eq!(paper().normalized(&fleet, c.host, col), 1.0);
    }
}

#[test]
fn consolidation_candidate_beats_host() {
    // VM 3 sits alone on slow PM 2; moving it to fast PM 0 (2 VMs, the
    // more efficient class) must look like an improvement.
    let fleet = fixture();
    let (row, d) = column_best(&fleet, 2).unwrap();
    assert_eq!(fleet.rows[row].id, PmId(0));
    assert!(d > 1.0, "normalized improvement {d}");
}

#[test]
fn full_pm_rows_are_zero_for_foreign_vms() {
    // PM 1 full of eight one-core VMs, VM 1 on PM 0.
    let placed: Vec<_> = (10..18)
        .map(|id| (id, 1, 50_000))
        .chain([(1, 0, 50_000)])
        .collect();
    let (dc, vms) = hosting(small_fleet(), &placed);
    let fleet = paper().fleet(&view(&dc, &vms, 0));
    let col = fleet.cols.iter().position(|c| c.id == VmId(1)).unwrap();
    assert_eq!(
        paper().entry(&fleet, 1, col),
        0.0,
        "full PM cannot accept VM 1"
    );
}

#[test]
fn zero_host_probability_normalizes_to_infinity() {
    // A dead host (p^rel = 0 zeroes its whole row, host entry included):
    // every positive entry of its columns is +∞ (I6), so the VM escapes.
    let mut fleet = fixture();
    let host = fleet.cols[0].host;
    fleet.rows[host].rel = 0.0;
    let (best, d) = column_best(&fleet, 0).unwrap();
    assert_ne!(best, host);
    assert!(d.is_infinite());
    // The round takes the lowest VmId among the ∞ columns.
    let (col, _, d) = paper().best_move(&fleet).unwrap();
    assert_eq!((fleet.cols[col].id, d), (VmId(1), f64::INFINITY));
}

#[test]
fn infinite_candidates_rank_by_raw_probability() {
    // I6: VM 1's host PM 0 is dead, so every other row scores +∞ for it.
    // Among them the highest raw p_ij wins — slow PM 2, which two more
    // VMs fill to level 4 of 4 — not the lowest id, empty fast PM 1.
    let (mut dc, vms) = hosting(
        small_fleet(),
        &[(1, 0, 50_000), (2, 2, 50_000), (3, 2, 50_000)],
    );
    dc.edit_pms(|pms| pms[0].reliability = 0.0);
    let fleet = paper().fleet(&view(&dc, &vms, 0));
    assert!(paper().entry(&fleet, 2, 0) > paper().entry(&fleet, 1, 0));
    let (col, row, d) = paper().best_move(&fleet).unwrap();
    assert_eq!((fleet.cols[col].id, fleet.rows[row].id), (VmId(1), PmId(2)));
    assert!(d.is_infinite());
}

#[test]
fn best_move_none_when_everything_full() {
    // Single PM: no non-host row exists.
    let one_pm = FleetBuilder::new()
        .add_class(PmClass::paper_fast(), 1, 0.99)
        .initially_on(true)
        .build();
    let (dc, vms) = hosting(one_pm, &[(1, 0, 50_000)]);
    let fleet = paper().fleet(&view(&dc, &vms, 0));
    assert!(column_best(&fleet, 0).is_none());
    assert!(paper().best_move(&fleet).is_none());
}

#[test]
fn paper_worked_example_structure() {
    // Section III-C's structure on the fixture: column normalization and
    // the argmax above MIG_threshold. The winner is the lone slow-PM VM
    // consolidating onto the fast PM.
    let fleet = fixture();
    let (col, row, d) = paper().best_move(&fleet).expect("a best move exists");
    assert_eq!(fleet.rows[row].id, PmId(0));
    assert_eq!(fleet.cols[col].id, VmId(3));
    assert!(d > 1.0);
}

#[test]
fn apply_migration_moves_resources_and_charges_overhead() {
    // One Algorithm 1 round on the fixture: VM 3 leaves slow PM 2 for fast
    // PM 0, whose T^mig its remaining time pays.
    let mut fleet = fixture();
    let one_round = Spec::new(DynamicConfig {
        mig_round: 1,
        ..DynamicConfig::default()
    });
    let moves = one_round.algorithm1(&mut fleet);
    let taken: Vec<_> = moves.iter().map(|m| (m.vm, m.from, m.to)).collect();
    assert_eq!(taken, [(VmId(3), PmId(2), PmId(0))]);
    assert!(fleet.rows[2].used.is_zero());
    assert_eq!(fleet.rows[0].used.get(0), 3);
    assert_eq!(fleet.cols[2].host, 0);
    assert_eq!(fleet.cols[2].remaining, 50_000 - 40);
}

#[test]
fn split_mode_charges_only_the_migration_overhead_on_a_move() {
    // I2: a live migration pays T_mig, a first placement T_cre.
    let spec = Spec::new(DynamicConfig {
        overhead_mode: OverheadMode::Split,
        use_rel: false,
        use_eff: false,
        ..DynamicConfig::default()
    });
    let row = fast_row(0, 0);
    let moved_p = moved(&spec, &row, 400, SimTime::ZERO);
    assert!((moved_p - (360.0f64 / 400.0).powi(2)).abs() < 1e-15);
    let placed = spec.p(&row, &one_core(), 400, None, true, SimTime::ZERO);
    assert!((placed - (370.0f64 / 400.0).powi(2)).abs() < 1e-15);
}

#[test]
fn matrix_walkthrough_reproduces_section_iii_c() {
    // The matrix_walkthrough example's fleet: two fast PMs and one slow;
    // VM1 on PM2, VM2 and VM3 on PM1, VM4 and VM5 on PM3 (1-based names,
    // as the paper and the example print them).
    let three_pms = FleetBuilder::new()
        .add_class(PmClass::paper_fast(), 2, 0.99)
        .add_class(PmClass::paper_slow(), 1, 0.95)
        .initially_on(true)
        .build();
    let placed: Vec<_> = [(1, 1), (2, 0), (3, 0), (4, 2), (5, 2)]
        .map(|(v, p)| (v, p, 40_000 + u64::from(v) * 5_000))
        .to_vec();
    let (dc, vms) = hosting(three_pms, &placed);
    let view = view(&dc, &vms, 0);
    let fleet = paper().fleet(&view);
    let printed: Vec<String> = (0..fleet.rows.len())
        .map(|row| {
            let entries: Vec<String> = (0..fleet.cols.len())
                .map(|col| format!("{:.3}", paper().entry(&fleet, row, col)))
                .collect();
            entries.join(" ")
        })
        .collect();
    assert_eq!(
        printed,
        [
            "0.493 0.247 0.247 0.494 0.494",
            "0.124 0.247 0.247 0.247 0.247",
            "0.631 0.631 0.631 0.317 0.317",
        ]
    );
    let (col, row, d) = paper().best_move(&fleet).unwrap();
    assert_eq!(format!("{d:.3}"), "5.099");
    assert_eq!((fleet.cols[col].id, fleet.rows[row].id), (VmId(1), PmId(2)));
    let moves = paper().plan_migrations(&view);
    let taken: Vec<_> = moves.iter().map(|m| (m.vm, m.from, m.to)).collect();
    assert_eq!(
        taken,
        [(VmId(1), PmId(1), PmId(2)), (VmId(3), PmId(0), PmId(2))]
    );
}
