//! The default planner against the dense reference kernel, end to end.
//! The default scheme runs the class-compressed planner at every fleet
//! size, so these check that it changes nothing but speed: a run must
//! produce the same report under both kernels, byte for byte — on the
//! paper's own 100-PM fleet, and on a 1k-PM scaled fleet whose thousands
//! of live columns exercise the persistent planner's bound bookkeeping,
//! column churn and tie-breaks at scale.

use dvmp::prelude::*;

/// The report as JSON without its attachment sections (`meta` carries
/// host details; `obs` and `timeseries` are opt-in telemetry).
fn core_json(mut report: RunReport) -> String {
    report.meta = None;
    report.obs = None;
    report.timeseries = None;
    serde_json::to_string(&report).expect("report serializes")
}

fn assert_kernels_agree(scenario: Scenario) {
    let auto = scenario.run(Box::new(DynamicPlacement::paper_default()));
    assert!(
        auto.total_migrations > 0,
        "the run must exercise the planner"
    );
    assert_eq!(
        core_json(auto),
        core_json(scenario.run(Box::new(DynamicPlacement::dense_reference(
            DynamicConfig::default()
        ))))
    );
}

#[test]
fn auto_and_dense_kernels_report_identically_on_a_paper_day() {
    assert_kernels_agree(Scenario::paper(42).with_days(1));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a 1k-PM dense run is release-only (CI golden job)"
)]
fn auto_and_dense_kernels_report_identically_on_a_1k_pm_fleet() {
    assert_kernels_agree(Scenario::scaled(1_000, 42));
}
