//! Generator for the EXPERIMENTS.md heterogeneous-scaling table: how many
//! superclasses `C` a jittered or age-decayed 1k-PM fleet registers as
//! the per-PM spread and the `class_tolerance` bucketing vary.
//!
//! The sweep itself is `#[ignore]`d — it exists to (re)produce the
//! numbers, not to gate CI:
//!
//! ```text
//! cargo test --release -p dvmp --test hetero_table -- --ignored --nocapture
//! ```
//!
//! A small un-ignored test pins the table's two anchor cells (exact keys
//! fragment the fleet into hundreds of superclasses, paper-spread
//! bucketing collapses it to the hardware classes) so the published table
//! cannot silently rot.

use dvmp::prelude::*;
use dvmp_cluster::datacenter::Datacenter;
use dvmp_cluster::pm::PmState;
use dvmp_cluster::reliability::ReliabilityModel;
use dvmp_cluster::VmTable;

/// One plan pass over a powered-on copy of `fleet` with no VMs: registers
/// every PM's superclass at `tolerance` and reports `C` — the same probe
/// `perf_report` attaches to every scaling row.
fn probe(fleet: &Datacenter, tolerance: f64) -> usize {
    let mut dc = fleet.clone();
    dc.edit_pms(|pms| pms.iter_mut().for_each(|pm| pm.state = PmState::On));
    let vms = VmTable::new();
    let view = dvmp_placement::PlacementView {
        dc: &dc,
        vms: &vms,
        now: dvmp_simcore::SimTime::from_secs(0),
    };
    let mut policy = DynamicPlacement::new(DynamicConfig {
        class_tolerance: tolerance,
        ..DynamicConfig::default()
    });
    policy.plan_migrations(&view);
    assert_eq!(policy.compressed_passes(), 1);
    policy.compressed_superclasses()
}

fn cell(fleet: &Datacenter, tolerance: f64) -> String {
    probe(fleet, tolerance).to_string()
}

#[test]
#[ignore = "table generator; run with --ignored --nocapture to reproduce EXPERIMENTS.md"]
fn print_superclass_fragmentation_table() {
    let tolerances = [0.0, 0.005, 0.01, 0.05];
    println!("\n| fleet (1k PMs, seed 42) | t=0 (exact) | t=0.005 | t=0.01 | t=0.05 |");
    println!("|---|---|---|---|---|");
    for &spread in &[0.001, 0.004, 0.01, 0.02] {
        let s = Scenario::scaled_jittered(1_000, spread, 42);
        let row: Vec<String> = tolerances.iter().map(|&t| cell(s.fleet(), t)).collect();
        println!("| jittered ±{spread} | {} |", row.join(" | "));
    }
    for &(years, decay) in &[(3.0, 0.004), (7.0, 0.01)] {
        let s = Scenario::scaled_age_decayed(1_000, years, decay, 42);
        let row: Vec<String> = tolerances.iter().map(|&t| cell(s.fleet(), t)).collect();
        println!("| age-decayed {years}y @ {decay}/y | {} |", row.join(" | "));
    }
}

#[test]
fn table_anchor_cells_hold() {
    let s = Scenario::scaled_jittered(1_000, 0.004, 42);
    let c_exact = probe(s.fleet(), 0.0);
    let c = probe(s.fleet(), 0.01);
    assert_eq!(
        c, 2,
        "t=0.01 must collapse ±0.004 jitter to the hardware classes"
    );
    assert!(
        c_exact >= 100 * c,
        "exact keys must fragment a jittered 1k-PM fleet, got C={c_exact}"
    );
    // The uniform fleet compresses regardless of tolerance.
    let u = Scenario::scaled(1_000, 42);
    let c = probe(u.fleet(), 0.0);
    assert!(c <= 4, "uniform fleet must stay compact, C={c}");
    // Age-decayed fleets land between the extremes: many distinct ages,
    // but a coarse-enough tolerance buckets them into a handful of rows.
    let a = Scenario::scaled_age_decayed(1_000, 7.0, 0.01, 42).with_reliability(
        ReliabilityModel::AgeDecaying {
            max_age_years: 7.0,
            annual_decay: 0.01,
        },
    );
    let c_exact = probe(a.fleet(), 0.0);
    let c_bucketed = probe(a.fleet(), 0.05);
    assert!(
        c_bucketed <= c_exact.max(8),
        "bucketing must not increase fragmentation ({c_bucketed} vs {c_exact})"
    );
}
