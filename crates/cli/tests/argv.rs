//! The `dvmp-cli` binary refuses flags its command does not take: a typo
//! or a retired flag is a usage error (exit status 2) that runs nothing.
//! An argument its command cannot parse is an `error:` line (exit 1).

use std::process::Command;

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_dvmp-cli"))
        .args(args)
        .output()
        .expect("dvmp-cli runs")
}

#[test]
fn unknown_run_flags_exit_with_a_usage_error() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenario_spec.json"
    );
    for bad in ["--chekced", "--full-replan"] {
        let out = cli(&["run", spec, bad]);
        assert_eq!(out.status.code(), Some(2), "{bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(bad), "{bad}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad}: the run must not start");
    }
}

#[test]
fn a_seed_that_is_not_a_number_is_an_error() {
    for command in ["workload", "export-swf"] {
        let out = cli(&[command, "light", "abc"]);
        assert_eq!(out.status.code(), Some(1), "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: seed takes an integer, got \"abc\""),
            "{command}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{command}: nothing is generated");
    }
    let out = cli(&["workload", "light", "7"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("seed 7"));
}

#[test]
fn a_flag_value_that_is_a_flag_is_a_usage_error() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenario_spec.json"
    );
    let out = cli(&["run", spec, "--trace-out", "--json"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--trace-out takes a value"), "{stderr}");
    assert!(out.stdout.is_empty(), "the run must not start");
}
