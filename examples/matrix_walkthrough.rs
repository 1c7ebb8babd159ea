//! The Section III-C worked example, reproduced: 5 VMs on 3 PMs, the
//! probability matrix, the column-normalized matrix, and the migration
//! Algorithm 1 picks — the paper's two in-text matrix figures.
//!
//! The paper's state: VM1 on PM2, VM2 on PM1, VM3 on PM1, VM4 on PM3,
//! VM5 on PM3 (its numeric entries are illustrative; ours come from the
//! actual Eq. 2–5 factors on a concrete fleet, so the *structure* —
//! column normalization, 1.0 on host rows, argmax > MIG_threshold —
//! matches, not the invented numbers).
//!
//! ```sh
//! cargo run --release --example matrix_walkthrough
//! ```

use dvmp::prelude::*;
use dvmp_cluster::vm::{Vm, VmState};
use dvmp_placement::factors::EvalContext;
use dvmp_placement::plan::PlanState;
use dvmp_placement::ProbabilityMatrix;
use std::collections::BTreeMap;

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
    let mut vms = BTreeMap::new();
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
        vms.insert(vm.spec.id, vm);
    }

    let cfg = DynamicConfig::default();
    let view = PlacementView {
        dc: &dc,
        vms: &vms,
        now: SimTime::ZERO,
    };
    let plan = PlanState::from_view(&view, &cfg);
    let matrix = ProbabilityMatrix::build(&plan, &EvalContext::new(&cfg));

    let header = || {
        print!("{:>6}", "");
        for vm in &plan.vms {
            print!(" {:>7}", format!("VM{}", vm.id.0));
        }
        println!();
    };

    println!("probability matrix (p_ij = p^res · p^vir · p^rel · p^eff):\n");
    header();
    for (row, pm) in plan.pms.iter().enumerate() {
        print!("{:>6}", format!("PM{}", pm.id.0 + 1));
        for col in 0..matrix.cols() {
            print!(" {:>7.3}", matrix.get(row, col));
        }
        println!();
    }

    println!("\nnormalized matrix (each column ÷ its current host's entry):\n");
    header();
    for (row, pm) in plan.pms.iter().enumerate() {
        print!("{:>6}", format!("PM{}", pm.id.0 + 1));
        for col in 0..matrix.cols() {
            print!(" {:>7.3}", matrix.normalized(&plan, row, col));
        }
        println!();
    }

    // The argmax Algorithm 1 takes.
    let mut best: Option<(usize, usize, f64)> = None;
    for col in 0..matrix.cols() {
        if let Some((row, d)) = matrix.best_move_for(&plan, col) {
            if best.map_or(true, |(_, _, bd)| d > bd) {
                best = Some((row, col, d));
            }
        }
    }
    match best {
        Some((row, col, d)) if d > cfg.mig_threshold => {
            println!(
                "\nlargest entry: {:.3} → migrate VM{} from PM{} to PM{} \
                 (exceeds MIG_threshold = {}), then refresh the two touched \
                 PM rows and the moved column — exactly the paper's loop.",
                d,
                plan.vms[col].id.0,
                plan.pms[plan.vms[col].host].id.0 + 1,
                plan.pms[row].id.0 + 1,
                cfg.mig_threshold
            );
        }
        _ => println!("\nno entry exceeds MIG_threshold — the mapping is stable."),
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
