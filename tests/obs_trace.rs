//! Observability-layer integration tests (DESIGN.md §10).
//!
//! The flight-recorder layer's two load-bearing promises, checked from
//! the outside:
//!
//! 1. **Invisibility** — flipping every obs switch on must not change a
//!    single simulation result: same `RunReport`, same fleet state
//!    digest, on randomized scenarios and randomized op sequences.
//! 2. **Forensics** — when the checked-mode oracle sees a violation, it
//!    captures the flight recorder automatically, and the dump carries
//!    the context a bisection needs: the failing event's sim time and
//!    ordinal, and per-record time / ordinal / phase.
//!
//! Every test serializes on `dvmp_obs::test_lock()` because the obs
//! switches are process-global.

use dvmp::prelude::*;
use dvmp::{FleetOp, Oracle};
use dvmp_cluster::VmTable;
use dvmp_metrics::EnergyMeter;
use dvmp_simcore::SimTime;
use proptest::prelude::*;
use std::collections::VecDeque;

fn small_fleet() -> dvmp_cluster::datacenter::Datacenter {
    FleetBuilder::new()
        .add_class(PmClass::paper_fast(), 2, 0.99)
        .add_class(PmClass::paper_slow(), 2, 0.95)
        .initially_on(true)
        .build()
}

/// Run one scenario and serialize its report, under the given switches.
fn run_serialized(seed: u64, tracing: bool) -> String {
    dvmp_obs::set_enabled(tracing);
    dvmp_obs::set_profiling(tracing);
    let scenario = Scenario::paper(seed).with_days(1);
    let report = scenario.run(Box::new(DynamicPlacement::paper_default()));
    dvmp_obs::set_enabled(false);
    dvmp_obs::set_profiling(false);
    serde_json::to_string(&report).expect("report serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tracing on vs off: bit-identical reports on randomized scenarios.
    #[test]
    fn tracing_does_not_change_run_reports(seed in 0u64..1_000) {
        let _guard = dvmp_obs::test_lock();
        let untraced = run_serialized(seed, false);
        let traced = run_serialized(seed, true);
        prop_assert_eq!(untraced, traced);
    }

    /// Tracing on vs off: identical fleet digests after a random op
    /// sequence driven straight into the datacenter.
    #[test]
    fn tracing_does_not_change_state_digest(dials in prop::collection::vec(any::<u8>(), 8..64)) {
        let _guard = dvmp_obs::test_lock();
        let drive = |tracing: bool| -> u64 {
            dvmp_obs::set_enabled(tracing);
            let mut dc = small_fleet();
            let demand = ResourceVector::cpu_mem(1, 512);
            for (i, &d) in dials.iter().enumerate() {
                let vm = VmId(i as u32);
                let pm = PmId(u32::from(d) % dc.len() as u32);
                if d % 3 == 0 {
                    dc.remove_vm(VmId(u32::from(d) % i.max(1) as u32));
                } else if dc.pm(pm).can_host(&demand) {
                    dc.place(vm, pm, demand).expect("can_host checked");
                }
            }
            dvmp_obs::set_enabled(false);
            dc.state_digest()
        };
        prop_assert_eq!(drive(false), drive(true));
    }
}

/// Checked mode arms the recorder by itself — a violating run always has
/// a populated ring to dump, even when nobody passed `--obs-summary`.
#[test]
fn checked_mode_arms_the_recorder() {
    let _guard = dvmp_obs::test_lock();
    dvmp_obs::set_enabled(false);
    let mut scenario = Scenario::paper(42).with_days(1);
    scenario.sim.checked = true;
    let report = scenario.run(Box::new(FirstFit));
    assert!(dvmp_obs::enabled(), "checked mode must arm recording");
    let oracle = report.oracle.expect("checked run attaches a summary");
    assert!(oracle.is_clean(), "{}", oracle.render());
    assert!(
        oracle.flight_dump.is_none(),
        "clean runs must not carry a dump"
    );
    dvmp_obs::set_enabled(false);
}

/// Inject a violation and verify the oracle's automatic flight dump: the
/// ring holds enough history, the header names the failing event, and
/// the records carry sim time, event ordinal and phase.
#[test]
fn violation_injection_dumps_the_flight_recorder() {
    let _guard = dvmp_obs::test_lock();
    dvmp_obs::reset();
    dvmp_obs::set_enabled(true);
    dvmp_obs::set_profiling(true);
    assert!(
        dvmp_obs::ring_capacity() >= 1024,
        "dump must cover the last >= 1024 records, ring is {}",
        dvmp_obs::ring_capacity()
    );

    // Trace traffic with full context: gauges set by dispatch, a span so
    // records carry a phase, and enough volume to exercise wrap-around.
    for i in 0..1_500u64 {
        dvmp_obs::note_dispatch(i * 10, i + 1, 0);
        let _span = dvmp_obs::span!(dvmp_obs::Phase::PlanApply);
        dvmp_obs::note_vm_placed(i, i % 4);
    }

    let dc = small_fleet();
    let mut oracle = Oracle::new(&dc);
    let mut meter = EnergyMeter::new();
    meter.record(SimTime::ZERO, dc.total_power_w());

    // The injected fault: the oracle is told a migration finished that
    // the reference model never saw begin.
    let vms = VmTable::new();
    let queue = VecDeque::new();
    oracle.record(
        SimTime::from_secs(123),
        &FleetOp::FinishMigration {
            vm: VmId(7),
            from: PmId(0),
        },
    );
    meter.record(SimTime::from_secs(123), dc.total_power_w());
    let sla = dvmp_metrics::SaturationMeter::new();
    oracle.audit(SimTime::from_secs(123), 9, &dc, &vms, &queue, &meter, &sla);
    let summary = oracle.into_summary(SimTime::from_secs(123), &dc, &vms, &queue, &meter, &sla);

    dvmp_obs::set_profiling(false);
    dvmp_obs::set_enabled(false);

    assert!(!summary.is_clean(), "the injected op must surface");
    // Satellite: every violation carries the *failing event's* sim time
    // and ordinal — the op was recorded before the first audit, so it is
    // event #1 at t=123, regardless of the audit that reported it.
    let first = &summary.violations[0];
    assert_eq!(first.seq, 1, "{first}");
    assert_eq!(first.time, SimTime::from_secs(123), "{first}");

    let dump = summary.flight_dump.as_ref().expect("violation => dump");
    assert_eq!(dump.header.seq, 1);
    assert_eq!(dump.header.sim_time_s, 123);
    assert_eq!(dump.header.state_digest, dc.state_digest());
    assert!(
        dump.header.captured >= 1024,
        "dump captured only {} records",
        dump.header.captured
    );

    let placed: Vec<_> = dump
        .records
        .iter()
        .filter(|r| r.kind == "vm-placed")
        .collect();
    assert!(!placed.is_empty(), "trace traffic must survive in the dump");
    let last = placed.last().unwrap();
    assert_eq!(last.time_s, 14_990, "records carry the dispatch gauges");
    assert_eq!(last.ordinal, 1_500);
    assert_eq!(last.phase, "plan-apply", "records carry the live phase");
    assert_eq!(last.a, 1_499);

    let text = summary.render();
    assert!(text.contains("flight recorder"), "{text}");
    assert!(text.contains("event #1"), "{text}");
    dvmp_obs::reset();
}
