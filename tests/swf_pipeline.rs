//! SWF round-trip pipeline: generate → export as SWF → parse → preprocess
//! with the paper's filters → simulate. Proves a real Parallel Workloads
//! Archive log can be dropped in unchanged.

use dvmp::prelude::*;
use dvmp_workload::swf;
use dvmp_workload::Job;
use proptest::prelude::*;

#[test]
fn synthetic_week_survives_swf_round_trip() {
    let original = SyntheticGenerator::new(LpcProfile::light(), 42).generate();
    let text = swf::to_swf_string(original.jobs(), "round trip");
    let parsed = swf::parse_swf(&text).expect("valid SWF");
    assert_eq!(parsed.len(), original.len());
    let round = Trace::new(parsed);
    for (a, b) in original.jobs().iter().zip(round.jobs()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.submit, b.submit);
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.cores, b.cores);
        assert_eq!(a.memory_mib, b.memory_mib);
        assert_eq!(a.status, b.status);
    }
}

#[test]
fn preprocessing_pipeline_matches_paper_description() {
    // Hand-built log with every category the paper filters.
    let text = "\
; test log
1 0 0 7200 1 -1 1048576 1 7200 -1 1 -1 -1 -1 -1 -1 -1 -1
2 100 0 3600 4 -1 524288 4 3600 -1 1 -1 -1 -1 -1 -1 -1 -1
3 200 0 1000 1 -1 1048576 1 1000 -1 5 -1 -1 -1 -1 -1 -1 -1
4 300 0 1000 1 -1 1024 1 1000 -1 1 -1 -1 -1 -1 -1 -1 -1
5 700000 0 1000 1 -1 1048576 1 1000 -1 1 -1 -1 -1 -1 -1 -1 -1
";
    let jobs = swf::parse_swf(text).unwrap();
    assert_eq!(jobs.len(), 5);
    let trace = Trace::new(jobs)
        .filter_usable() // drops job 3 (cancelled)
        .filter_min_memory(64) // drops job 4 (1 MiB)
        .extract_window(SimTime::ZERO, SimDuration::WEEK); // drops job 5
    assert_eq!(trace.len(), 2);

    // Normalization: job 2 has 4 cores → 4 single-core VM requests with
    // memory divided equally (512 MiB each).
    let vms = trace.to_vm_requests(1);
    assert_eq!(vms.len(), 1 + 4);
    let job2_vms: Vec<_> = vms.iter().filter(|v| v.job_id == 2).collect();
    assert_eq!(job2_vms.len(), 4);
    for v in job2_vms {
        assert_eq!(v.spec.resources, ResourceVector::cpu_mem(1, 512));
        assert_eq!(v.spec.actual_runtime, SimDuration::from_secs(3_600));
    }
}

#[test]
fn swf_scenario_runs_end_to_end() {
    let trace = {
        let jobs: Vec<Job> = (0..50)
            .map(|i| Job {
                id: i + 1,
                submit: SimTime::from_secs(i * 600),
                runtime: SimDuration::from_hours(2),
                cores: if i % 5 == 0 { 2 } else { 1 },
                memory_mib: 512 * if i % 5 == 0 { 2 } else { 1 },
                requested_runtime: SimDuration::from_hours(2),
                status: dvmp_workload::JobStatus::Completed,
            })
            .collect();
        let text = swf::to_swf_string(&jobs, "generated");
        Trace::new(swf::parse_swf(&text).unwrap())
    };
    let mut sim = SimConfig::default();
    sim.horizon = SimTime::from_days(1);
    let scenario = Scenario::from_trace("swf-e2e", paper_fleet(), &trace, sim);
    let r = scenario.run(Box::new(DynamicPlacement::paper_default()));
    // 50 jobs, 10 of them 2-core → 60 VM requests.
    assert_eq!(r.total_arrivals, 60);
    assert_eq!(r.total_departures, 60, "all finish inside the day");
    assert!(r.qos.meets_paper_slo());
}

/// Three well-formed jobs every generated line is appended to.
const VALID_JOBS: &str = "\
1 0 0 7200 1 -1 1048576 1 7200 -1 1 -1 -1 -1 -1 -1 -1 -1
2 600 0 3600 2 -1 524288 2 3600 -1 1 -1 -1 -1 -1 -1 -1 -1
3 1200 0 900 1 -1 262144 1 1800 -1 1 -1 -1 -1 -1 -1 -1 -1
";

/// Field values mixed into generated lines, as in the SWF reader's own
/// arbitrary-line property: the archive's "unknown", boundaries of every
/// target type, non-finite values and garbage.
const SPECIAL_FIELDS: [&str; 11] = [
    "-1",
    "0",
    "NaN",
    "inf",
    "-inf",
    "1e300",
    "-1e300",
    "4294967297",
    "18446744073709551616",
    "x",
    "1.5e3",
];

/// Traces that expand into more VM requests than this are not simulated.
/// A generated processor count reaches 10⁶, and the paper's per-core
/// split turns one such line into 10⁶ requests — more than a test run
/// can hold or simulate.
const MAX_REQUESTS: u64 = 20_000;

proptest! {
    // Most generated lines fail to parse, which costs next to nothing;
    // about one case in 25 reaches the simulator.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Arbitrary SWF lines after a few valid jobs, preprocessed the way
    /// the CLI's `"swf"` workload does (usable jobs, the memory filter,
    /// a one-day window) and simulated in checked mode under the dynamic
    /// scheme: every trace the reader accepts is either rejected by the
    /// simulation with an error or runs with a clean oracle. None panics.
    #[test]
    fn arbitrary_swf_lines_run_clean_or_error(
        fields in prop::collection::vec(
            prop_oneof![
                (-1e6f64..1e6).prop_map(|v| v.to_string()),
                any::<u64>().prop_map(|v| v.to_string()),
                (0usize..SPECIAL_FIELDS.len()).prop_map(|i| SPECIAL_FIELDS[i].to_string()),
            ],
            11..19,
        )
    ) {
        let text = format!("{VALID_JOBS}{}\n", fields.join(" "));
        let parsed = swf::parse_swf(&text);
        prop_assume!(parsed.is_ok());
        let trace = Trace::new(parsed.unwrap())
            .filter_usable()
            .filter_min_memory(0)
            .extract_window(SimTime::ZERO, SimDuration::from_days(1));
        let requests: u64 = trace.jobs().iter().map(|j| u64::from(j.cores.max(1))).sum();
        prop_assume!(requests <= MAX_REQUESTS);
        let mut sim = SimConfig::default();
        sim.horizon = SimTime::from_days(1);
        sim.checked = true;
        let scenario = Scenario::from_trace("swf-robustness", paper_fleet(), &trace, sim);
        let built = Simulation::try_new(
            scenario.fleet().clone(),
            scenario.requests().to_vec(),
            Box::new(DynamicPlacement::paper_default()),
            scenario.sim.clone(),
        );
        if let Ok(simulation) = built {
            let report = simulation.run();
            let oracle = report.oracle.as_ref().expect("checked run attaches a summary");
            prop_assert!(oracle.is_clean(), "{}\n{}", fields.join(" "), oracle.render());
        }
    }
}
