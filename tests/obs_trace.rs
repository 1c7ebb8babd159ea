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
//! 3. **Narration** — the counters and the ring tell a run's story: every
//!    migration the report counts starts and finishes once, the spare
//!    controller decides once per control period, and boots are on the
//!    ring.
//!
//! The obs state is per thread and libtest runs every test on a thread
//! of its own, so each test starts with every switch off and every
//! counter at 0, whatever the others do.

use dvmp::prelude::*;
use dvmp::Oracle;
use dvmp_cluster::{FleetOp, VmTable};
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
        let untraced = run_serialized(seed, false);
        let traced = run_serialized(seed, true);
        prop_assert_eq!(untraced, traced);
    }

    /// Tracing on vs off: identical fleet digests after a random op
    /// sequence driven straight into the datacenter.
    #[test]
    fn tracing_does_not_change_state_digest(dials in prop::collection::vec(any::<u8>(), 8..64)) {
        let drive = |tracing: bool| -> u64 {
            dvmp_obs::set_enabled(tracing);
            let mut dc = small_fleet();
            let demand = ResourceVector::cpu_mem(1, 512);
            for (i, &d) in dials.iter().enumerate() {
                let vm = VmId(i as u32);
                let pm = PmId(u32::from(d) % dc.len() as u32);
                if d % 3 == 0 {
                    let vm = VmId(u32::from(d) % i.max(1) as u32);
                    dc.apply(FleetOp::Remove { vm }).unwrap();
                } else if dc.pm(pm).can_host(&demand) {
                    dc.apply(FleetOp::Place { vm, pm, demand }).expect("can_host checked");
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
        dvmp_obs::note_fleet(dvmp_obs::RecordKind::VmPlaced, i, i % 4);
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

/// Two simulations on two threads at the same time, one recording and
/// profiling, the other with every switch off: each thread sees only its
/// own switches, counters, ring and histograms, and the two reports are
/// identical.
#[test]
fn concurrent_runs_keep_their_own_obs_state() {
    use std::sync::{Arc, Barrier};
    let start = Arc::new(Barrier::new(2));
    let run = |traced: bool, start: Arc<Barrier>| {
        std::thread::spawn(move || {
            dvmp_obs::set_enabled(traced);
            dvmp_obs::set_profiling(traced);
            start.wait();
            let (report, events) = Scenario::paper(42)
                .with_days(1)
                .run_counting(Box::new(DynamicPlacement::paper_default()));
            (
                serde_json::to_string(&report).expect("report serializes"),
                events,
                dvmp_obs::counters_snapshot(),
                dvmp_obs::drain_records().len(),
                dvmp_obs::phase_histograms(),
            )
        })
    };
    let on = run(true, Arc::clone(&start));
    let off = run(false, start);
    let on = on.join().expect("traced run panicked");
    let off = off.join().expect("untraced run panicked");

    let (off_report, _, off_counters, off_records, off_phases) = off;
    assert_eq!(off_counters, dvmp_obs::CounterSnapshot::default());
    assert_eq!(off_records, 0, "the switched-off thread's ring stays empty");
    assert!(off_phases.iter().all(|h| h.count == 0), "{off_phases:?}");

    let (on_report, on_events, on_counters, on_records, on_phases) = on;
    assert!(on_events > 0);
    assert_eq!(on_counters.events_dispatched, on_events);
    assert!(on_records > 0);
    assert!(on_phases.iter().any(|h| h.count > 0), "{on_phases:?}");

    assert_eq!(on_report, off_report);
}

/// Each VM's fleet records narrate its life in causal order: placed once
/// at arrival on an all-on fleet, removed once, exactly creation overhead
/// (30 s on the fast class) plus runtime later.
#[test]
fn lifecycle_records_are_causally_ordered() {
    let fleet = FleetBuilder::new()
        .add_class(PmClass::paper_fast(), 2, 0.99)
        .build();
    let requests = vec![
        VmSpec::exact(
            VmId(1),
            SimTime::from_secs(10),
            ResourceVector::cpu_mem(1, 512),
            SimDuration::from_secs(5_000),
        ),
        VmSpec::exact(
            VmId(2),
            SimTime::from_secs(20),
            ResourceVector::cpu_mem(1, 512),
            SimDuration::from_secs(2_000),
        ),
    ];
    let mut sim = SimConfig::default();
    sim.horizon = SimTime::from_days(1);
    sim.spare = None;
    let scenario = Scenario::new("lifecycle", fleet, requests, sim);

    dvmp_obs::set_enabled(true);
    let report = scenario.run(Box::new(FirstFit));
    let records = dvmp_obs::drain_records();
    dvmp_obs::set_enabled(false);
    assert_eq!(report.total_departures, 2);
    assert!(records.windows(2).all(|w| w[0].time_s <= w[1].time_s));

    for (vm, arrival, runtime) in [(1u64, 10, 5_000), (2, 20, 2_000)] {
        let life: Vec<_> = records
            .iter()
            .filter(|r| r.a == vm)
            .filter(|r| {
                matches!(
                    r.kind,
                    dvmp_obs::RecordKind::VmPlaced
                        | dvmp_obs::RecordKind::VmRemoved
                        | dvmp_obs::RecordKind::MigrationStarted
                        | dvmp_obs::RecordKind::MigrationFinished
                )
            })
            .map(|r| (r.kind, r.time_s))
            .collect();
        assert_eq!(
            life,
            vec![
                (dvmp_obs::RecordKind::VmPlaced, arrival),
                (dvmp_obs::RecordKind::VmRemoved, arrival + 30 + runtime),
            ],
            "vm{vm}"
        );
    }
}

/// The migrations a run reports are the ones the fleet applied: each
/// started once and finished once.
#[test]
fn migrations_started_and_finished_match_the_report() {
    // Fragment the fleet: 12 VMs, the short ones depart, the survivors
    // consolidate.
    let mut scenario = Scenario::paper(42).with_days(1);
    scenario.requests_mut().clear();
    for i in 0..12u32 {
        let runtime = if (i + 1) % 4 == 0 { 80_000 } else { 2_000 };
        scenario.requests_mut().push(VmSpec::exact(
            VmId(i + 1),
            SimTime::from_secs(i as u64),
            ResourceVector::cpu_mem(1, 512),
            SimDuration::from_secs(runtime),
        ));
    }
    scenario.sim.spare = None;

    dvmp_obs::set_enabled(true);
    let before = dvmp_obs::counters_snapshot();
    let report = scenario.run(Box::new(DynamicPlacement::paper_default()));
    let ops = dvmp_obs::counters_snapshot().delta_from(&before);
    dvmp_obs::set_enabled(false);

    assert!(report.total_migrations > 0);
    assert_eq!(ops.migrations_started, report.total_migrations);
    assert_eq!(
        ops.migrations_finished, report.total_migrations,
        "every start completes"
    );
}

/// Under spare-server control the controller decides once per hourly
/// control period, and the fleet, which starts powered off, boots.
#[test]
fn spare_control_decides_hourly_and_boots_on_demand() {
    let scenario = Scenario::paper(42).with_days(1);
    assert!(scenario.sim.spare.is_some());
    dvmp_obs::set_enabled(true);
    let before = dvmp_obs::counters_snapshot();
    scenario.run(Box::new(FirstFit));
    let ops = dvmp_obs::counters_snapshot().delta_from(&before);
    let records = dvmp_obs::drain_records();
    dvmp_obs::set_enabled(false);

    // t = 0 through t = 24 h inclusive (the engine processes events *at*
    // the horizon): 25 decisions for a 24-hour run.
    assert_eq!(ops.spare_decisions, 25, "one decision per control period");
    assert!(
        records
            .iter()
            .any(|r| r.kind == dvmp_obs::RecordKind::PmBootStarted),
        "machines boot on demand"
    );
}
