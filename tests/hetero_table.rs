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
//! poison, paper-spread bucketing collapses to the hardware classes) so
//! the published table cannot silently rot.

use dvmp::prelude::*;
use dvmp_cluster::datacenter::Datacenter;
use dvmp_cluster::pm::PmState;
use dvmp_cluster::reliability::ReliabilityModel;
use std::collections::BTreeMap;

/// One forced-compressed plan pass over a powered-on copy of `fleet`
/// with no VMs: registers every PM's superclass at `tolerance` and
/// reports `(C, poisoned)` — the same probe `perf_report` attaches to
/// every scaling row.
fn probe(fleet: &Datacenter, tolerance: f64) -> (usize, bool) {
    let mut dc = fleet.clone();
    let ids: Vec<PmId> = dc.pms().iter().map(|p| p.id).collect();
    for id in ids {
        dc.pm_mut(id).state = PmState::On;
    }
    let vms = BTreeMap::new();
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
    (
        policy.compressed_superclasses(),
        policy.compressed_poisoned(),
    )
}

fn cell(fleet: &Datacenter, tolerance: f64) -> String {
    match probe(fleet, tolerance) {
        (_, true) => "poisoned".to_string(),
        (c, false) => c.to_string(),
    }
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
    let (_, poisoned) = probe(s.fleet(), 0.0);
    assert!(poisoned, "exact keys must fragment a jittered 1k-PM fleet");
    let (c, poisoned) = probe(s.fleet(), 0.01);
    assert!(!poisoned, "t=0.01 bucketing must not poison");
    assert!(
        c <= 4,
        "t=0.01 must collapse ±0.004 jitter to the hardware classes, got C={c}"
    );
    // The uniform fleet compresses regardless of tolerance.
    let u = Scenario::scaled(1_000, 42);
    let (c, poisoned) = probe(u.fleet(), 0.0);
    assert!(
        !poisoned && c <= 4,
        "uniform fleet must stay compact, C={c}"
    );
    // Age-decayed fleets land between the extremes: many distinct ages,
    // but a coarse-enough tolerance buckets them into a handful of rows.
    let a = Scenario::scaled_age_decayed(1_000, 7.0, 0.01, 42).with_reliability(
        ReliabilityModel::AgeDecaying {
            max_age_years: 7.0,
            annual_decay: 0.01,
        },
    );
    let (c_exact, _) = probe(a.fleet(), 0.0);
    let (c_bucketed, poisoned) = probe(a.fleet(), 0.05);
    assert!(!poisoned, "t=0.05 bucketing must absorb age decay");
    assert!(
        c_bucketed <= c_exact.max(8),
        "bucketing must not increase fragmentation ({c_bucketed} vs {c_exact})"
    );
}
