//! `dvmp-cli` — thin argv dispatcher over [`dvmp_cli::commands`].

use dvmp_cli::commands;
use std::io::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match commands::parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let json = args.has("--json");
    let positional: Vec<&str> = args.positional.iter().map(String::as_str).collect();

    let result = match positional.as_slice() {
        ["run", path, ..] => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| {
                commands::run(
                    &text,
                    &commands::RunOptions {
                        json,
                        checked: args.has("--checked"),
                        obs_summary: args.has("--obs-summary"),
                        trace_out: args.value("--trace-out").map(Into::into),
                        metrics_out: args.value("--metrics-out").map(Into::into),
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
            let seeds = args.value("--seeds").map_or(Ok(5), |s| {
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
            seed_arg(rest).and_then(|seed| commands::workload(profile, seed))
        }
        ["export-swf", profile, rest @ ..] => {
            seed_arg(rest).and_then(|seed| commands::export_swf(profile, seed))
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

/// The optional `[seed]` after a profile name (default 42).
fn seed_arg(rest: &[&str]) -> Result<u64, String> {
    rest.first().map_or(Ok(42), |s| {
        s.parse()
            .map_err(|_| format!("seed takes an integer, got {s:?}"))
    })
}
