//! The Section III-C worked example, reproduced: 5 VMs on 3 PMs, the
//! probability matrix, the column-normalized matrix, and the migration
//! Algorithm 1 picks — the paper's two in-text matrix figures.
//!
//! The paper's state: VM1 on PM2, VM2 on PM1, VM3 on PM1, VM4 on PM3,
//! VM5 on PM3 (its numeric entries are illustrative; ours come from the
//! actual Eq. 2–5 factors on a concrete fleet, so the *structure* —
//! column normalization, 1.0 on host rows, argmax > MIG_threshold —
//! matches, not the invented numbers). The matrices are printed from the
//! scheme's executable specification, which computes every entry
//! straight from the equations; the full pass at the end is the
//! library's planner.
//!
//! ```sh
//! cargo run --release --example matrix_walkthrough
//! ```

#[path = "../crates/placement/spec/spec.rs"]
mod spec;

use dvmp::prelude::*;
use dvmp_cluster::vm::{Vm, VmState};
use dvmp_cluster::VmTable;
use spec::Spec;

fn main() {
    // Three PMs: two fast, one slow — all on.
    let mut dc = FleetBuilder::new()
        .add_class(PmClass::paper_fast(), 2, 0.99)
        .add_class(PmClass::paper_slow(), 1, 0.95)
        .initially_on(true)
        .build();

    // The paper's mapping (PM ids are 0-based here): VM1→PM1, VM2→PM0,
    // VM3→PM0, VM4→PM2, VM5→PM2.
    let mapping = [(1u32, 1u32), (2, 0), (3, 0), (4, 2), (5, 2)];
    let mut vms = VmTable::new();
    for &(v, p) in &mapping {
        let spec = VmSpec::exact(
            VmId(v),
            SimTime::ZERO,
            ResourceVector::cpu_mem(1, 512),
            SimDuration::from_secs(40_000 + v as u64 * 5_000),
        );
        dc.place(spec.id, PmId(p), spec.resources).unwrap();
        let mut vm = Vm::new(spec);
        vm.state = VmState::Running { pm: PmId(p) };
        vm.started_at = Some(SimTime::ZERO);
        vms.insert(vm);
    }

    let cfg = DynamicConfig::default();
    let view = PlacementView {
        dc: &dc,
        vms: &vms,
        now: SimTime::ZERO,
    };
    let scheme = Spec::new(cfg.clone());
    let fleet = scheme.fleet(&view);

    let header = || {
        print!("{:>6}", "");
        for vm in &fleet.cols {
            print!(" {:>7}", format!("VM{}", vm.id.0));
        }
        println!();
    };

    println!("probability matrix (p_ij = p^res · p^vir · p^rel · p^eff):\n");
    header();
    for (row, pm) in fleet.rows.iter().enumerate() {
        print!("{:>6}", format!("PM{}", pm.id.0 + 1));
        for col in 0..fleet.cols.len() {
            print!(" {:>7.3}", scheme.entry(&fleet, row, col));
        }
        println!();
    }

    println!("\nnormalized matrix (each column ÷ its current host's entry):\n");
    header();
    for (row, pm) in fleet.rows.iter().enumerate() {
        print!("{:>6}", format!("PM{}", pm.id.0 + 1));
        for col in 0..fleet.cols.len() {
            print!(" {:>7.3}", scheme.normalized(&fleet, row, col));
        }
        println!();
    }

    // The argmax Algorithm 1 takes.
    match scheme.best_move(&fleet) {
        Some((col, row, d)) => {
            println!(
                "\nlargest entry: {:.3} → migrate VM{} from PM{} to PM{} \
                 (exceeds MIG_threshold = {}), then refresh the two touched \
                 PM rows and the moved column — exactly the paper's loop.",
                d,
                fleet.cols[col].id.0,
                fleet.rows[fleet.cols[col].host].id.0 + 1,
                fleet.rows[row].id.0 + 1,
                cfg.mig_threshold
            );
        }
        None => println!("\nno entry exceeds MIG_threshold — the mapping is stable."),
    }

    // And what the full Algorithm 1 run does from here:
    let mut policy = DynamicPlacement::paper_default();
    let moves = policy.plan_migrations(&view);
    println!("\nfull Algorithm 1 pass ({} moves):", moves.len());
    for m in &moves {
        println!(
            "  move VM{} : PM{} → PM{}",
            m.vm.0,
            m.from.0 + 1,
            m.to.0 + 1
        );
    }
}
