//! `dvmp-cli` — thin argv dispatcher over [`dvmp_cli::commands`].

use dvmp_cli::commands;
use std::io::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = commands::check_flags(&args) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let json = args.iter().any(|a| a == "--json");
    let checked = args.iter().any(|a| a == "--checked");
    let obs_summary = args.iter().any(|a| a == "--obs-summary");
    let trace_out_idx = args.iter().position(|a| a == "--trace-out");
    let trace_out = trace_out_idx.and_then(|i| args.get(i + 1)).cloned();
    if trace_out_idx.is_some() && trace_out.is_none() {
        eprintln!("error: --trace-out takes a file path");
        return ExitCode::FAILURE;
    }
    let metrics_out_idx = args.iter().position(|a| a == "--metrics-out");
    let metrics_out = metrics_out_idx.and_then(|i| args.get(i + 1)).cloned();
    if metrics_out_idx.is_some() && metrics_out.is_none() {
        eprintln!("error: --metrics-out takes a file path");
        return ExitCode::FAILURE;
    }
    // `--trace-out`/`--metrics-out` values are bare paths, so drop them
    // from the positional view by index rather than by `--` prefix.
    let positional: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && trace_out_idx != Some(i.wrapping_sub(1))
                && metrics_out_idx != Some(i.wrapping_sub(1))
        })
        .map(|(_, a)| a.as_str())
        .collect();

    let result = match positional.as_slice() {
        ["run", path, ..] => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| {
                commands::run(
                    &text,
                    &commands::RunOptions {
                        json,
                        checked,
                        obs_summary,
                        trace_out: trace_out.map(Into::into),
                        metrics_out: metrics_out.map(Into::into),
                    },
                )
            }),
        // Two paths: diff two previously written reports. One path: run
        // the paper trio on the spec's scenario.
        ["compare", a, b, ..] => {
            let read =
                |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
            read(a).and_then(|ta| read(b).and_then(|tb| commands::compare_reports(&ta, &tb, json)))
        }
        ["compare", path] => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| commands::compare(&text, json)),
        ["sweep", path, ..] => {
            let seeds = args
                .iter()
                .position(|a| a == "--seeds")
                .and_then(|i| args.get(i + 1))
                .map_or(Ok(5), |s| {
                    s.parse::<usize>()
                        .map_err(|_| format!("--seeds takes a count, got {s:?}"))
                });
            seeds.and_then(|n| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))
                    .and_then(|text| commands::sweep(&text, n, json))
            })
        }
        ["workload", profile, rest @ ..] => {
            let seed = rest.first().and_then(|s| s.parse().ok()).unwrap_or(42);
            commands::workload(profile, seed)
        }
        ["export-swf", profile, rest @ ..] => {
            let seed = rest.first().and_then(|s| s.parse().ok()).unwrap_or(42);
            commands::export_swf(profile, seed)
        }
        [] | ["help", ..] => Ok(commands::help()),
        other => Err(format!(
            "unknown command {:?}\n\n{}",
            other.first().unwrap_or(&""),
            commands::help()
        )),
    };

    match result {
        Ok(text) => {
            // Writing through a closed pipe (`dvmp-cli ... | head`) is a
            // normal way to consume CLI output, not an error.
            let _ = writeln!(std::io::stdout(), "{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
