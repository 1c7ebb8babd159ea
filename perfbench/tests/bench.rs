//! The benchmark's own checks: the timing decorator changes nothing it
//! measures, and the traced run's time accounting adds up.

use dvmp::Scenario;
use dvmp_perfbench::timed::TimedPolicy;
use dvmp_perfbench::{repeat, report_digest, timed_run, traced_run, Workload, MIN_REPS};
use dvmp_placement::PlacementPolicy;
use std::time::Duration;

#[test]
fn wrapped_and_unwrapped_reports_are_byte_identical() {
    let scenario = Scenario::paper(42).with_days(1);
    let (_, plain) = timed_run(&scenario, 0.0, Workload::PaperWeek.policy());
    let (traced, wrapped) = traced_run(&scenario, 0.0, Workload::PaperWeek.policy());
    // The decorator must not turn a dynamic run static.
    assert!(
        !traced.policy.plan_ns.is_empty(),
        "no planning pass was timed"
    );
    assert!(wrapped.total_migrations > 0, "the day migrated nothing");
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&wrapped).unwrap()
    );
}

#[test]
fn decorator_forwards_the_policy_identity() {
    for workload in Workload::ALL {
        let inner = workload.policy();
        let (name, dynamic) = (inner.name(), inner.is_dynamic());
        let (timed, _) = TimedPolicy::wrap(inner);
        assert_eq!((timed.name(), timed.is_dynamic()), (name, dynamic));
    }
}

#[test]
fn policy_time_plus_residual_is_run_time_on_every_workload() {
    for workload in Workload::ALL {
        let scenario = workload.scenario(42).with_days(1);
        let (traced, _) = traced_run(&scenario, 0.0, workload.policy());
        let (policy_s, run_s) = (traced.policy.policy_s(), traced.rep.run_s);
        assert!(
            (policy_s + traced.residual_s() - run_s).abs() <= 1e-9 * run_s,
            "{}: {policy_s} + {} != {run_s}",
            workload.name(),
            traced.residual_s()
        );
        assert!(
            policy_s > 0.0 && traced.residual_s() > 0.0,
            "{}",
            workload.name()
        );
        // Every arrival is placed at least once; queued ones are retried.
        assert!(
            traced.policy.place_ns.len() as u64 >= traced.rep.requests,
            "{}",
            workload.name()
        );
    }
}

#[test]
fn a_run_measures_its_own_seed_first_and_cycles_through_the_rest() {
    for workload in Workload::ALL {
        let seeds = workload.run_seeds(42);
        assert_eq!(seeds.len(), workload.scenarios_per_run());
        assert_eq!(seeds[0], 42, "the pinned, traced and checked scenario");
        let mut distinct = seeds.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), seeds.len(), "{}", workload.name());
    }
    let mut order = Vec::new();
    let reps = repeat(Duration::ZERO, 3, |i| {
        order.push(i);
        i
    });
    assert_eq!(order, [0, 1, 2].repeat(MIN_REPS));
    assert!(reps
        .iter()
        .enumerate()
        .all(|(i, r)| r == &vec![i; MIN_REPS]));
}

#[test]
fn digest_ignores_attachment_sections() {
    let scenario = Scenario::paper(42).with_days(1);
    let (rep, mut report) = timed_run(&scenario, 0.0, Workload::PaperWeek.policy());
    assert_eq!(rep.digest, report_digest(&report));
    report.meta = None;
    assert_eq!(rep.digest, report_digest(&report));
    report.total_migrations += 1;
    assert_ne!(rep.digest, report_digest(&report));
}
