//! The `dvmp-cli` binary refuses flags its command does not take: a typo
//! or a retired flag is a usage error (exit status 2) that runs nothing.

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
