//! Ablation — `MIG_round` sweep.
//!
//! The per-event migration budget bounds how much consolidation one
//! trigger may perform. The sweep shows diminishing returns: a handful of
//! rounds captures most of the energy benefit because each pass runs on
//! every arrival/departure anyway.

use dvmp::prelude::*;
use dvmp_bench::FigureArgs;

fn main() {
    let args = FigureArgs::parse();
    let scenario = args.scenario();
    println!(
        "# Ablation — MIG_round sweep ({} requests, {} days, seed {})\n",
        scenario.requests().len(),
        args.days,
        args.seed
    );
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10}",
        "rounds", "energy kWh", "mean active", "migrations", "waited %"
    );
    for rounds in [1u32, 2, 5, 10, 20, 50] {
        let mut cfg = DynamicConfig::default();
        cfg.mig_round = rounds;
        let policy = DynamicPlacement::new(cfg);
        let report = scenario.run(Box::new(policy));
        println!(
            "{:>8} {:>12.1} {:>12.1} {:>12} {:>10.2}",
            rounds,
            report.total_energy_kwh,
            report.mean_active_servers(),
            report.total_migrations,
            report.qos.waited_fraction * 100.0
        );
    }
}
