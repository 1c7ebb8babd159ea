//! Untraced measurement, and the checked-mode audit.
//!
//! ```text
//! dvmp-perfbench time  <workload> <seed> <seconds>   # end-to-end metrics
//! dvmp-perfbench check <workload> <seed>             # oracle audit
//! ```
//!
//! Prints one JSON object. The system allocator and the `dvmp_obs`
//! switches are left untouched in `time`, so the timed runs pay no
//! measurement cost; `check` arms the oracle, which switches `dvmp_obs`
//! on for the rest of the process, so it runs in a process of its own.

use dvmp_perfbench::{
    checked_run, emit, end_to_end, parse_args, peak_rss_mb, repeat, untraced_rep,
};
use serde::Value;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = args
        .split_first()
        .map_or(("", &[][..]), |(m, r)| (m.as_str(), r));
    let (workload, seed, budget) = match parse_args(rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("dvmp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match mode {
        "time" => {
            // The high-water mark is read once every scenario has run once:
            // later repetitions only add allocator fragmentation, and how
            // many fit in the budget depends on the host's speed.
            let seeds = workload.run_seeds(seed);
            let mut peak = None;
            let reps = repeat(budget, seeds.len(), |i| {
                let rep = untraced_rep(workload, seeds[i]);
                if i + 1 == seeds.len() {
                    peak.get_or_insert_with(peak_rss_mb);
                }
                rep
            });
            let scenarios: Vec<_> = seeds.into_iter().zip(reps).collect();
            emit(&end_to_end(&scenarios, peak.expect("every scenario ran")));
        }
        "check" => {
            let (violations, audited, digest) = checked_run(workload, seed);
            emit(&Value::Map(vec![
                ("violations".into(), Value::U64(violations)),
                ("events_audited".into(), Value::U64(audited)),
                ("digest".into(), Value::Str(digest)),
            ]));
        }
        _ => {
            eprintln!("dvmp-perfbench: mode must be `time` or `check`, got {mode:?}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
