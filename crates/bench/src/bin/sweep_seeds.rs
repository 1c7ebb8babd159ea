//! Statistical robustness — the headline result across seeds.
//!
//! Every figure in the paper is a single trace realization; this sweep
//! regenerates the week under several seeds and reports the distribution
//! of the dynamic scheme's energy saving vs first-fit, so EXPERIMENTS.md
//! can quote "X % ± Y" instead of a single draw.

use dvmp::prelude::*;
use dvmp_bench::{usage_error, FigureArgs};
use dvmp_simcore::stats::OnlineStats;

/// Seeds in the sweep.
const SEEDS: u64 = 5;
/// Distance between consecutive seeds.
const SEED_STEP: u64 = 1_000;

/// The sweep's seeds, `base + i × SEED_STEP` for `i < SEEDS` — or, before
/// any run starts, an error naming the first that overflows `u64`.
fn sweep_seeds(base: u64) -> Result<Vec<u64>, String> {
    (0..SEEDS)
        .map(|i| {
            i.checked_mul(SEED_STEP)
                .and_then(|step| base.checked_add(step))
                .ok_or_else(|| format!("seed {base} + {i} × {SEED_STEP} overflows u64"))
        })
        .collect()
}

fn main() {
    let args = FigureArgs::parse();
    let seeds = sweep_seeds(args.seed).unwrap_or_else(|e| usage_error(&e));
    println!(
        "# Seed sweep — dynamic vs first-fit over {} seeds\n",
        seeds.len()
    );
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>10}",
        "seed", "dynamic kWh", "first-fit kWh", "saving %", "waited %"
    );
    let mut savings = OnlineStats::new();
    let mut dynamic_energy = OnlineStats::new();
    // Every (seed, policy) pair runs one after another; reports come back
    // in input order.
    let scenarios: Vec<Scenario> = seeds
        .iter()
        .map(|&seed| Scenario::paper(seed).with_days(args.days))
        .collect();
    let swept = sweep_scenarios(
        &scenarios,
        &[
            PolicyFactory::new("dynamic", || Box::new(DynamicPlacement::paper_default())),
            PolicyFactory::new("first-fit", || Box::new(FirstFit)),
        ],
    );
    for (&seed, reports) in seeds.iter().zip(&swept) {
        let saving = reports[0].energy_saving_vs(&reports[1]) * 100.0;
        println!(
            "{seed:>8} {:>14.1} {:>14.1} {:>9.1}% {:>10.2}",
            reports[0].total_energy_kwh,
            reports[1].total_energy_kwh,
            saving,
            reports[0].qos.waited_fraction * 100.0
        );
        savings.push(saving);
        dynamic_energy.push(reports[0].total_energy_kwh);
    }
    println!(
        "\nsaving: {:.1}% ± {:.1} (mean ± std over {} seeds); dynamic energy {:.0} ± {:.0} kWh",
        savings.mean(),
        savings.std_dev(),
        seeds.len(),
        dynamic_energy.mean(),
        dynamic_energy.std_dev()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_step_from_the_base() {
        assert_eq!(sweep_seeds(42), Ok(vec![42, 1_042, 2_042, 3_042, 4_042]));
        let last = u64::MAX - 4 * SEED_STEP;
        assert_eq!(sweep_seeds(last).unwrap()[4], u64::MAX);
    }

    #[test]
    fn a_seed_past_u64_is_an_error() {
        assert!(sweep_seeds(u64::MAX - 4 * SEED_STEP + 1).is_err());
        let err = sweep_seeds(u64::MAX).unwrap_err();
        assert!(err.contains("overflows u64"), "{err}");
    }
}
