//! The default planner against the dense reference kernel on the paper's
//! own 100-PM fleet. `PlanKernel::Auto` runs the class-compressed planner
//! at every fleet size, so this is the end-to-end check that it changes
//! nothing but speed where the paper measured: one simulated day must
//! produce the same report under both kernels, byte for byte.

use dvmp::prelude::*;

/// The report as JSON without its attachment sections (`meta` carries
/// host details; `obs` and `timeseries` are opt-in telemetry).
fn core_json(mut report: RunReport) -> String {
    report.meta = None;
    report.obs = None;
    report.timeseries = None;
    serde_json::to_string(&report).expect("report serializes")
}

fn run_day(kernel: PlanKernel) -> RunReport {
    let scenario = Scenario::paper(42).with_days(1);
    let policy = DynamicPlacement::new(DynamicConfig {
        plan_kernel: kernel,
        ..DynamicConfig::default()
    });
    scenario.run(Box::new(policy))
}

#[test]
fn auto_and_dense_kernels_report_identically_on_a_paper_day() {
    let auto = run_day(PlanKernel::Auto);
    assert!(
        auto.total_migrations > 0,
        "the day must exercise the planner"
    );
    assert_eq!(core_json(auto), core_json(run_day(PlanKernel::Dense)));
}
