//! Traced measurement: the per-layer metrics.
//!
//! ```text
//! dvmp-perfbench-traced <workload> <seed> <seconds>
//! ```
//!
//! Installs the counting allocator, switches the `dvmp_obs` counters and
//! phase profiler on, wraps the policy in the timing decorator, and
//! prints one JSON object of per-layer metrics.

use dvmp_perfbench::alloc::CountingAlloc;
use dvmp_perfbench::{emit, generate, parse_args, per_layer, repeat, traced_run};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, budget) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("dvmp-perfbench-traced: {e}");
            return ExitCode::from(2);
        }
    };
    let reps = repeat(budget, 1, |_| {
        let (scenario, generate_s) = generate(workload, seed);
        traced_run(&scenario, generate_s, workload.policy()).0
    });
    emit(&per_layer(&reps[0]));
    ExitCode::SUCCESS
}
