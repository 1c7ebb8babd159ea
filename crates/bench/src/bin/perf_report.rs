//! Performance evidence for the planning fast path.
//!
//! Measures, at paper scale (the Table II fleet: 100 PMs, 500+ VMs) and
//! beyond:
//!
//! 1. plan-kernel rows — steady-state passes of the class-compressed
//!    planner on converged fleets, recording the row counts it compresses
//!    (`M` PM rows into `C` superclasses) and the superclass bucket
//!    occupancy;
//! 2. an end-to-end week simulation with the dynamic scheme;
//! 3. the checked-mode oracle's end-to-end overhead — the same scenario
//!    with and without `SimConfig.checked`, asserting zero violations,
//!    an unperturbed trace, and overhead within the DESIGN.md §9 budget;
//! 4. the overbooked+elastic acceptance week (DESIGN.md §11), checked,
//!    asserting a clean oracle and a resizing workload;
//! 5. quantization divergence — the same jittered week planned exact
//!    (t = 0, one superclass per distinct reliability) vs bucketed,
//!    reporting the energy and migration divergence so the approximation
//!    is measured, never silent;
//! 6. fleet-size scaling rows — first-fit weeks on `Scenario::scaled`
//!    fleets (up to 10k PMs / ~50k VM requests at full scale), recording
//!    wall time and engine events/sec, plus dynamic-scheme rows at
//!    1k–10k PMs and jittered-reliability rows planned with tolerance
//!    bucketing (`class_tolerance`); every scaling row records the
//!    superclass count its fleet registers at its tolerance;
//! 7. SWF I/O — rendering the paper week's trace as SWF text and parsing
//!    it back (the reader behind the CLI's `"swf"` workload), asserting
//!    the round trip returns the same jobs.
//!
//! Results go to stdout and to `BENCH_placement.json` in the working
//! directory (schema documented in DESIGN.md §8). `--smoke` shrinks the
//! workload for CI. That the planner's decisions are the scheme's
//! definition is tested, not benched: `tests/kernel_identity.rs` and
//! `tests/golden_trace.rs` run it against the executable specification.
//!
//! Usage: `perf_report [--smoke] [--history <file.jsonl>] [seed]` — an
//! unknown flag or a seed that is not a number is a usage error (exit 2).
//!
//! `--history` appends one JSONL trajectory entry (headline metrics plus
//! run provenance: seed, git sha, host threads) to the given file after
//! the health gates run — the feed for CI's rolling-median regression
//! gate over `BENCH_history.jsonl`.

use dvmp::prelude::*;
use dvmp_bench::fragmented_fixture;
use dvmp_cluster::pm::PmId;
use dvmp_cluster::vm::VmState;
use dvmp_cluster::{FleetDelta, FleetOp};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct PlanKernelBench {
    pms: usize,
    vms: usize,
    iters: usize,
    /// Per-PM row count: one row per powered PM (`M`).
    pm_rows: usize,
    /// Compressed kernel row count: registered superclasses (`C`).
    compressed_rows: usize,
    /// Median steady-state pass of the production (class-compressed)
    /// policy, fed a small per-pass fleet delta.
    compressed_ns: f64,
    /// Class tolerance the compressed policy planned at (0 = exact keys).
    class_tolerance: f64,
    /// Superclass level buckets holding at least one row — how evenly the
    /// tolerance bucketing spread the fleet.
    occupied_buckets: usize,
}

#[derive(Serialize)]
struct QuantizationBench {
    pms: usize,
    days: u64,
    seed: u64,
    /// Per-PM reliability jitter spread of the fleet.
    spread: f64,
    /// Bucketing tolerance of the quantized run.
    tolerance: f64,
    /// Superclasses the fleet registers with exact keys (t = 0) — at this
    /// spread nearly every PM is its own class.
    exact_superclasses: usize,
    /// Superclasses after tolerance bucketing.
    bucketed_superclasses: usize,
    /// Planning passes of the exact week on the compressed planner.
    exact_compressed_passes: u64,
    /// Full-run outcomes of the exact (t = 0) week vs the bucketed week:
    /// the measured cost of the approximation.
    exact_migrations: u64,
    bucketed_migrations: u64,
    exact_energy_kwh: f64,
    bucketed_energy_kwh: f64,
    energy_divergence_percent: f64,
    migration_divergence: i64,
}

#[derive(Serialize)]
struct EndToEndBench {
    seed: u64,
    days: u64,
    /// The production (class-compressed) planner's wall time.
    production_seconds: f64,
    dynamic_energy_kwh: f64,
}

#[derive(Serialize)]
struct OracleOverheadBench {
    seed: u64,
    days: u64,
    unchecked_seconds: f64,
    checked_seconds: f64,
    overhead_percent: f64,
    events_audited: u64,
    violations: u64,
    trace_identical: bool,
}

#[derive(Serialize)]
struct ElasticityBench {
    pms: usize,
    days: u64,
    seed: u64,
    /// Checked-mode wall time of the overbooked+elastic scenario under
    /// the default (class-compressed) policy.
    wall_seconds: f64,
    total_resizes: u64,
    rejected_resizes: u64,
    sla_violation_seconds: f64,
    peak_saturated_pms: f64,
    /// Oracle violations of the checked run (must be zero: saturation is
    /// metered as SLA seconds, never as a violation).
    violations: u64,
}

#[derive(Serialize)]
struct ProfiledRunBench {
    seed: u64,
    days: u64,
    wall_seconds: f64,
    /// Per-phase histograms (DESIGN.md §10) from a paper-scale dynamic
    /// week with every obs switch on. Runs last so the timers cover
    /// exactly this pass and the other benches stay instrumentation-free.
    profile: dvmp_obs::ProfileReport,
}

#[derive(Serialize)]
struct ScalingBench {
    pms: usize,
    vm_requests: usize,
    days: u64,
    policy: &'static str,
    /// Reliability model shaping the fleet ("uniform" or "jittered").
    reliability: &'static str,
    /// Class tolerance the dynamic policy planned at (0 = exact keys).
    class_tolerance: f64,
    /// Superclasses this fleet registers at that tolerance (probe pass) —
    /// the row dimension the compressed kernel sweeps instead of `M`.
    superclasses: usize,
    events: u64,
    wall_seconds: f64,
    events_per_sec: f64,
}

#[derive(Serialize)]
struct SwfBench {
    jobs: usize,
    bytes: usize,
    /// Median `swf::to_swf_string` of the paper week's trace.
    render_ns: f64,
    /// Median `swf::parse_swf` of that text.
    parse_ns: f64,
    /// Parsing the rendered text returned the generated jobs.
    round_trip_identical: bool,
}

#[derive(Serialize)]
struct PerfReport {
    schema: &'static str,
    smoke: bool,
    /// Master workload seed the benches derived their scenarios from.
    seed: u64,
    /// Short git sha of the benched tree (`"unknown"` off-repo).
    git_sha: String,
    host_threads: usize,
    plan_kernel: Vec<PlanKernelBench>,
    end_to_end: EndToEndBench,
    oracle_overhead: OracleOverheadBench,
    elasticity: ElasticityBench,
    quantization: QuantizationBench,
    scaling: Vec<ScalingBench>,
    swf: SwfBench,
    profile: ProfiledRunBench,
}

/// One `BENCH_history.jsonl` line: the report's headline metrics plus
/// enough provenance to interpret them later. The CI trajectory gate
/// compares a fresh smoke run against the rolling median of prior
/// same-mode entries instead of a single frozen baseline, so the gate
/// tracks genuine drift without chasing single-run noise.
#[derive(Serialize)]
struct HistoryEntry {
    schema: &'static str,
    smoke: bool,
    seed: u64,
    git_sha: String,
    host_threads: usize,
    /// Unix seconds at append time (0 if the clock is unreadable).
    recorded_unix: u64,
    /// Did this run pass its own health gates?
    healthy: bool,
    metrics: HistoryMetrics,
}

/// The trajectory-tracked scalar (higher is better).
#[derive(Serialize)]
struct HistoryMetrics {
    peak_events_per_sec: f64,
}

/// Superclass ceiling for a tolerance-bucketed jittered fleet: bucketing
/// must collapse it back to a handful of hardware superclasses.
const BUCKETED_SUPERCLASS_CEILING: usize = 16;

/// The acceptance budget for checked mode: the oracle may cost at most
/// this much end-to-end wall time at paper scale (DESIGN.md §9).
const ORACLE_OVERHEAD_BUDGET_PERCENT: f64 = 15.0;

/// Wall-clock budget for the 10k-PM / ~50k-VM 7-day week under the
/// dynamic scheme — the scale the class-compressed kernel exists for.
const DYNAMIC_10K_BUDGET_SECONDS: f64 = 10.0;

/// Wall-clock budget for the checked 1k-PM overbooked+elastic week
/// (DESIGN.md §11's acceptance scenario).
const ELASTIC_1K_BUDGET_SECONDS: f64 = 30.0;

/// Wall-clock budget for the jittered-reliability 10k-PM 7-day week under
/// the dynamic scheme with tolerance bucketing (DESIGN.md §12).
const DYNAMIC_HETERO_10K_BUDGET_SECONDS: f64 = 15.0;

/// Wall-clock budget for the jittered 100k-PM 1-day scaling row — the
/// fleet size bucketed superclasses exist for.
const DYNAMIC_HETERO_100K_BUDGET_SECONDS: f64 = 120.0;

/// Per-PM reliability jitter of the heterogeneous rows. At ±0.004 nearly
/// every PM gets a distinct exact class key, while [`HETERO_TOLERANCE`]
/// buckets collapse the fleet back to its hardware superclasses.
const HETERO_SPREAD: f64 = 0.004;

/// Class tolerance the heterogeneous rows plan at (DESIGN.md §12).
const HETERO_TOLERANCE: f64 = 0.01;

/// Median wall time of `iters` runs of `f`, in nanoseconds.
fn median_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    samples[samples.len() / 2]
}

/// Converges a fragmented fleet under the scheme (so measured passes
/// reflect a settled datacenter, not the initial consolidation storm)
/// and discards the convergence dirt from the journal.
fn converged_fixture(
    pm_count: usize,
    n_vms: u32,
) -> (dvmp_cluster::datacenter::Datacenter, dvmp_cluster::VmTable) {
    let (mut dc, mut vms) = fragmented_fixture(pm_count, n_vms);
    let now = dvmp_simcore::SimTime::from_secs(1_000);
    let mut conv = DynamicPlacement::paper_default();
    for _ in 0..200 {
        let moves = {
            let view = PlacementView {
                dc: &dc,
                vms: &vms,
                now,
            };
            conv.plan_migrations(&view)
        };
        if moves.is_empty() {
            break;
        }
        for &Migration { vm, from, to } in &moves {
            let demand = vms[vm].spec.resources;
            if dc.host_of(vm) == Some(from) && dc.pm(to).can_host(&demand) {
                dc.apply(FleetOp::BeginMigration { vm, to, demand })
                    .unwrap();
                dc.apply(FleetOp::FinishMigration { vm, from }).unwrap();
                vms.get_mut(vm).unwrap().state = VmState::Running { pm: to };
            }
        }
    }
    dc.take_fleet_delta(); // discard the convergence dirt
    (dc, vms)
}

/// The steady-state delta a control period typically drains: a couple of
/// PM footprint changes and one churned VM.
fn steady_state_delta(pm_count: usize, vms: &dvmp_cluster::VmTable) -> FleetDelta {
    let mut delta = FleetDelta::new();
    delta.note_pm(PmId(0));
    delta.note_pm(PmId((pm_count / 2) as u32));
    if let Some(vm0) = vms.ids().next() {
        delta.note_vm(vm0);
    }
    delta
}

/// The production planner's steady-state pass on a converged fleet, fed
/// the same steady-state fleet delta every pass.
fn bench_plan_kernel(pm_count: usize, n_vms: u32, iters: usize) -> PlanKernelBench {
    let (dc, vms) = converged_fixture(pm_count, n_vms);
    let now = dvmp_simcore::SimTime::from_secs(1_000);
    let delta = steady_state_delta(pm_count, &vms);
    let view = PlacementView {
        dc: &dc,
        vms: &vms,
        now,
    };

    let mut comp = DynamicPlacement::paper_default();
    comp.plan_migrations(&view); // warm: compressed rebuild from the view
    let compressed_ns = median_ns(iters, || {
        comp.note_fleet_delta(delta.clone());
        comp.plan_migrations(&view);
    });

    PlanKernelBench {
        pms: dc.len(),
        vms: vms.len(),
        iters,
        pm_rows: comp.compressed_active_rows(),
        compressed_rows: comp.compressed_superclasses(),
        compressed_ns,
        class_tolerance: 0.0,
        occupied_buckets: comp.compressed_occupied_buckets(),
    }
}

/// One plan pass over a fleet with no VMs: registers every powered PM's
/// superclass at `tolerance` and reports `C` — the fragmentation the
/// bucketing must absorb for this fleet shape, independent of any
/// workload.
fn probe_superclasses(fleet: &Datacenter, tolerance: f64) -> usize {
    // Fresh scenario fleets start powered off (the simulator boots PMs on
    // demand); the probe powers a copy on so every PM registers its class,
    // the same registration a live run performs as the fleet powers up.
    let mut dc = fleet.clone();
    let ids: Vec<PmId> = dc.pms().iter().map(|p| p.id).collect();
    for id in ids {
        dc.pm_mut(id).state = dvmp_cluster::pm::PmState::On;
    }
    let vms = dvmp_cluster::VmTable::new();
    let view = PlacementView {
        dc: &dc,
        vms: &vms,
        now: dvmp_simcore::SimTime::from_secs(0),
    };
    let mut probe = DynamicPlacement::new(DynamicConfig {
        class_tolerance: tolerance,
        ..DynamicConfig::default()
    });
    probe.plan_migrations(&view);
    probe.compressed_superclasses()
}

/// The measured cost of tolerance bucketing: the same jittered week run
/// with exact class keys (t = 0 — the fleet fragments into one superclass
/// per distinct reliability) and with bucketed keys, reporting the energy
/// and migration divergence between the two plans. The exact week runs
/// with the obs counters on, so the report can show that every one of its
/// passes ran on the compressed planner.
fn bench_quantization(
    pm_count: usize,
    days: u64,
    spread: f64,
    tolerance: f64,
    seed: u64,
) -> QuantizationBench {
    let scenario = Scenario::scaled_jittered(pm_count, spread, seed).with_days(days);
    let exact_superclasses = probe_superclasses(scenario.fleet(), 0.0);
    let bucketed_superclasses = probe_superclasses(scenario.fleet(), tolerance);
    let run = |class_tolerance: f64| {
        scenario.run(Box::new(DynamicPlacement::new(DynamicConfig {
            class_tolerance,
            ..DynamicConfig::default()
        })))
    };
    let was_enabled = dvmp_obs::enabled();
    dvmp_obs::set_enabled(true);
    let before = dvmp_obs::counters_snapshot();
    let exact = run(0.0);
    let passes = dvmp_obs::counters_snapshot().delta_from(&before);
    dvmp_obs::set_enabled(was_enabled);
    let bucketed = run(tolerance);
    QuantizationBench {
        pms: pm_count,
        days,
        seed,
        spread,
        tolerance,
        exact_superclasses,
        bucketed_superclasses,
        exact_compressed_passes: passes.plan_passes_compressed,
        exact_migrations: exact.total_migrations,
        bucketed_migrations: bucketed.total_migrations,
        exact_energy_kwh: exact.total_energy_kwh,
        bucketed_energy_kwh: bucketed.total_energy_kwh,
        energy_divergence_percent: 100.0
            * (bucketed.total_energy_kwh / exact.total_energy_kwh - 1.0),
        migration_divergence: bucketed.total_migrations as i64 - exact.total_migrations as i64,
    }
}

fn bench_end_to_end(seed: u64, days: u64) -> EndToEndBench {
    let scenario = Scenario::paper(seed).with_days(days);
    let t = Instant::now();
    let production = scenario.run(Box::new(DynamicPlacement::paper_default()));
    EndToEndBench {
        seed,
        days,
        production_seconds: t.elapsed().as_secs_f64(),
        dynamic_energy_kwh: production.total_energy_kwh,
    }
}

fn bench_oracle_overhead(seed: u64, days: u64) -> OracleOverheadBench {
    let run = |checked: bool| {
        let mut scenario = Scenario::paper(seed).with_days(days);
        scenario.sim.checked = checked;
        let t = Instant::now();
        let report = scenario.run(Box::new(DynamicPlacement::paper_default()));
        (t.elapsed().as_secs_f64(), report)
    };
    let (unchecked_seconds, plain) = run(false);
    let (checked_seconds, audited) = run(true);
    let oracle = audited
        .oracle
        .as_ref()
        .expect("checked run attaches a summary");
    OracleOverheadBench {
        seed,
        days,
        unchecked_seconds,
        checked_seconds,
        overhead_percent: 100.0 * (checked_seconds / unchecked_seconds - 1.0),
        events_audited: oracle.events_audited,
        violations: oracle.total_violations(),
        trace_identical: plain.total_energy_kwh.to_bits() == audited.total_energy_kwh.to_bits()
            && plain.hourly_active_servers == audited.hourly_active_servers,
    }
}

// First-fit rows measure the event core (scheduler + fleet accounting)
// without planning cost; dynamic rows add the scheme's planning passes,
// the thing the compressed planner exists to make scale. Every row also
// carries the superclass count its fleet registers at the row's tolerance
// (probe pass), so class fragmentation is visible in
// BENCH_placement.json trends.
fn bench_scaling(
    scenario: &Scenario,
    policy: &'static str,
    reliability: &'static str,
    class_tolerance: f64,
    make: impl Fn() -> Box<dyn PlacementPolicy>,
) -> ScalingBench {
    let pm_count = scenario.fleet().len();
    let days = scenario.days();
    let vm_requests = scenario.requests().len();
    let superclasses = probe_superclasses(scenario.fleet(), class_tolerance);
    let t = Instant::now();
    let (report, events) = scenario.run_counting(make());
    let wall_seconds = t.elapsed().as_secs_f64();
    assert!(report.total_arrivals > 0, "scaled scenario saw no arrivals");
    ScalingBench {
        pms: pm_count,
        vm_requests,
        days,
        policy,
        reliability,
        class_tolerance,
        superclasses,
        events,
        wall_seconds,
        events_per_sec: events as f64 / wall_seconds,
    }
}

/// The overbooked+elastic acceptance scenario (DESIGN.md §11): ratios
/// 150/120 and the moderate elasticity preset, run in checked mode. The
/// oracle must stay clean: saturation is SLA metering, not a violation.
fn bench_elasticity(pm_count: usize, days: u64, seed: u64) -> ElasticityBench {
    let mut scenario = Scenario::overbooked_elastic(pm_count, seed).with_days(days);
    scenario.sim.checked = true;
    let t = Instant::now();
    let report = scenario.run(Box::new(DynamicPlacement::paper_default()));
    let wall_seconds = t.elapsed().as_secs_f64();
    ElasticityBench {
        pms: pm_count,
        days,
        seed,
        wall_seconds,
        total_resizes: report.total_resizes,
        rejected_resizes: report.rejected_resizes,
        sla_violation_seconds: report.sla_violation_seconds,
        peak_saturated_pms: report.peak_saturated_pms,
        violations: report
            .oracle
            .as_ref()
            .expect("checked run attaches a summary")
            .total_violations(),
    }
}

fn bench_swf(seed: u64, iters: usize) -> SwfBench {
    use dvmp_workload::swf;
    let trace = SyntheticGenerator::new(LpcProfile::paper_calibrated(), seed).generate();
    let text = swf::to_swf_string(trace.jobs(), "perf_report");
    let render_ns = median_ns(iters, || {
        std::hint::black_box(swf::to_swf_string(trace.jobs(), "perf_report"));
    });
    let parse_ns = median_ns(iters, || {
        std::hint::black_box(swf::parse_swf(&text).expect("rendered SWF parses"));
    });
    SwfBench {
        jobs: trace.jobs().len(),
        bytes: text.len(),
        render_ns,
        parse_ns,
        round_trip_identical: swf::parse_swf(&text).is_ok_and(|back| back == trace.jobs()),
    }
}

fn bench_profiled_run(seed: u64, days: u64) -> ProfiledRunBench {
    // Fresh timers, then all three obs switches on (the checked bench may
    // have armed recording already — checked mode does so automatically).
    dvmp_obs::reset();
    dvmp_obs::set_enabled(true);
    dvmp_obs::set_profiling(true);
    let scenario = Scenario::paper(seed).with_days(days);
    let t = Instant::now();
    let report = scenario.run(Box::new(DynamicPlacement::paper_default()));
    let wall_seconds = t.elapsed().as_secs_f64();
    dvmp_obs::set_profiling(false);
    dvmp_obs::set_enabled(false);
    assert!(report.total_arrivals > 0, "profiled run saw no arrivals");
    ProfiledRunBench {
        seed,
        days,
        wall_seconds,
        profile: dvmp_obs::profile_report(),
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    smoke: bool,
    history_path: Option<String>,
    seed: u64,
}

/// Parses `[--smoke] [--history <file.jsonl>] [seed]`. An unknown flag, a
/// `--history` without a path, a seed that is not a number and a second
/// positional argument are all errors — never a silent fallback.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        smoke: false,
        history_path: None,
        seed: 42,
    };
    let mut seed_seen = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => parsed.smoke = true,
            "--history" => match it.next() {
                Some(path) => parsed.history_path = Some(path.clone()),
                None => return Err("--history takes a file path".into()),
            },
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if seed_seen => return Err(format!("unexpected argument {a:?}")),
            seed => {
                parsed.seed = seed
                    .parse()
                    .map_err(|_| format!("seed must be a number, got {seed:?}"))?;
                seed_seen = true;
            }
        }
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        smoke,
        history_path,
        seed,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: perf_report [--smoke] [--history <file.jsonl>] [seed]");
        std::process::exit(2);
    });
    let (iters, days): (usize, u64) = if smoke { (5, 1) } else { (51, 7) };
    // Fleet-size scaling rows (PM counts × horizon). Smoke keeps three
    // rows so the CI gate can check throughput shape, just smaller.
    let (fleet_scales, fleet_days): (&[usize], u64) = if smoke {
        (&[250, 500, 1_000], 1)
    } else {
        (&[1_000, 5_000, 10_000], 7)
    };

    eprintln!("# perf_report{}", if smoke { " (smoke)" } else { "" });
    // Plan-kernel rows: converged fleets under the production planner.
    // Smoke keeps the paper-scale shape only.
    let kernel_shapes: &[(usize, u32)] = if smoke {
        &[(100, 500)]
    } else {
        &[(100, 500), (1_000, 5_000)]
    };
    let plan_kernel: Vec<PlanKernelBench> = kernel_shapes
        .iter()
        .map(|&(pms, n_vms)| {
            let b = bench_plan_kernel(pms, n_vms, iters);
            eprintln!(
                "plan kernel {}x{}: compressed {:.2} ms ({} PM rows in {} superclasses, {} buckets)",
                b.pms,
                b.vms,
                b.compressed_ns / 1e6,
                b.pm_rows,
                b.compressed_rows,
                b.occupied_buckets
            );
            b
        })
        .collect();

    let end_to_end = bench_end_to_end(seed, days);
    eprintln!(
        "end-to-end {}d sim: production {:.2} s, {:.2} kWh",
        end_to_end.days, end_to_end.production_seconds, end_to_end.dynamic_energy_kwh
    );

    let oracle_overhead = bench_oracle_overhead(seed, days);
    eprintln!(
        "oracle overhead {}d sim: unchecked {:.2} s, checked {:.2} s ({:+.2}%), {} events audited, {} violation(s), trace identical: {}",
        oracle_overhead.days,
        oracle_overhead.unchecked_seconds,
        oracle_overhead.checked_seconds,
        oracle_overhead.overhead_percent,
        oracle_overhead.events_audited,
        oracle_overhead.violations,
        oracle_overhead.trace_identical
    );

    let (elastic_pms, elastic_days) = if smoke { (100, 1) } else { (1_000, 7) };
    let elasticity = bench_elasticity(elastic_pms, elastic_days, seed);
    eprintln!(
        "elasticity {} PMs {}d (checked, overbooked 150/120): {:.2} s, {} resizes ({} rejected), {:.0} SLA-violation s (peak {:.0} saturated PMs), violations: {}",
        elasticity.pms,
        elasticity.days,
        elasticity.wall_seconds,
        elasticity.total_resizes,
        elasticity.rejected_resizes,
        elasticity.sla_violation_seconds,
        elasticity.peak_saturated_pms,
        elasticity.violations
    );

    // Exact-vs-bucketed divergence on a jittered fleet: the measured cost
    // of planning at `class_tolerance` instead of exact class keys.
    let (quant_pms, quant_days) = if smoke { (250, 1) } else { (1_000, 7) };
    let quantization =
        bench_quantization(quant_pms, quant_days, HETERO_SPREAD, HETERO_TOLERANCE, seed);
    eprintln!(
        "quantization {} PMs {}d (spread {:.3}, t={:.2}): exact C={} ({} compressed passes) vs bucketed C={}, energy {:.2} vs {:.2} kWh ({:+.3}%), migrations {} vs {} ({:+})",
        quantization.pms,
        quantization.days,
        quantization.spread,
        quantization.tolerance,
        quantization.exact_superclasses,
        quantization.exact_compressed_passes,
        quantization.bucketed_superclasses,
        quantization.exact_energy_kwh,
        quantization.bucketed_energy_kwh,
        quantization.energy_divergence_percent,
        quantization.exact_migrations,
        quantization.bucketed_migrations,
        quantization.migration_divergence
    );

    let dynamic_scales: &[usize] = if smoke {
        &[250, 500]
    } else {
        &[1_000, 5_000, 10_000]
    };
    // Heterogeneous rows: jittered reliability at a spread the tolerance
    // bucketing collapses back to hardware superclasses. The 10k-PM week
    // is the DESIGN.md §12 acceptance row; the 100k-PM day is the largest
    // fleet it is run at. Smoke keeps one 600-PM row.
    let hetero_rows: &[(usize, u64)] = if smoke {
        &[(600, 1)]
    } else {
        &[(10_000, 7), (100_000, 1)]
    };
    let mut scaling: Vec<ScalingBench> = Vec::new();
    {
        let mut run_row = |scenario: &Scenario,
                           policy: &'static str,
                           reliability: &'static str,
                           tol: f64,
                           make: &dyn Fn() -> Box<dyn PlacementPolicy>| {
            let b = bench_scaling(scenario, policy, reliability, tol, make);
            eprintln!(
                "scaling {} PMs / {} VM requests, {}d ({}, {} reliability, C={}): {} events in {:.2} s = {:.0} events/s",
                b.pms,
                b.vm_requests,
                b.days,
                b.policy,
                b.reliability,
                b.superclasses,
                b.events,
                b.wall_seconds,
                b.events_per_sec
            );
            scaling.push(b);
        };
        for &pms in fleet_scales {
            let scenario = Scenario::scaled(pms, seed).with_days(fleet_days);
            run_row(&scenario, "first-fit", "uniform", 0.0, &|| {
                Box::new(FirstFit)
            });
        }
        for &pms in dynamic_scales {
            let scenario = Scenario::scaled(pms, seed).with_days(fleet_days);
            run_row(&scenario, "dynamic", "uniform", 0.0, &|| {
                Box::new(DynamicPlacement::paper_default())
            });
        }
        for &(pms, hetero_days) in hetero_rows {
            let scenario =
                Scenario::scaled_jittered(pms, HETERO_SPREAD, seed).with_days(hetero_days);
            run_row(
                &scenario,
                "dynamic-hetero",
                "jittered",
                HETERO_TOLERANCE,
                &|| {
                    Box::new(DynamicPlacement::new(DynamicConfig {
                        class_tolerance: HETERO_TOLERANCE,
                        ..DynamicConfig::default()
                    }))
                },
            );
        }
    }

    let swf = bench_swf(seed, iters);
    eprintln!(
        "swf {} jobs / {} bytes: render {:.2} ms, parse {:.2} ms, round trip identical: {}",
        swf.jobs,
        swf.bytes,
        swf.render_ns / 1e6,
        swf.parse_ns / 1e6,
        swf.round_trip_identical
    );

    // Profiled pass last: every earlier bench ran with the span timers
    // off, so instrumentation cannot distort their numbers.
    let profile = bench_profiled_run(seed, days);
    eprintln!(
        "profiled {}d sim: {:.2} s wall, {} phase(s) timed",
        profile.days,
        profile.wall_seconds,
        profile.profile.phases.len()
    );

    let report = PerfReport {
        schema: "dvmp/perf-report/v12",
        smoke,
        seed,
        git_sha: dvmp_obs::git_sha().to_string(),
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        plan_kernel,
        end_to_end,
        oracle_overhead,
        elasticity,
        quantization,
        scaling,
        swf,
        profile,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    // Temp file + rename: a crash mid-write must never leave a truncated
    // BENCH_placement.json shadowing the previous good report.
    std::fs::write("BENCH_placement.json.tmp", &json).expect("write BENCH_placement.json.tmp");
    std::fs::rename("BENCH_placement.json.tmp", "BENCH_placement.json")
        .expect("rename BENCH_placement.json into place");
    println!("{json}");

    let mut healthy = true;
    // Tolerance bucketing must collapse the jittered fleet: exact keys
    // fragment it (that is what the row measures) and still plan every
    // pass on the compressed planner; bucketed keys keep a handful of
    // superclasses.
    let q = &report.quantization;
    if q.exact_superclasses <= q.bucketed_superclasses {
        eprintln!(
            "FAIL: exact keys registered C={} vs bucketed C={} — the quantization row is not measuring the fragmentation",
            q.exact_superclasses, q.bucketed_superclasses
        );
        healthy = false;
    }
    if q.exact_compressed_passes == 0 {
        eprintln!("FAIL: the exact-key week ran no compressed planning pass");
        healthy = false;
    }
    if q.bucketed_superclasses > BUCKETED_SUPERCLASS_CEILING {
        eprintln!(
            "FAIL: bucketed quantization run kept C={} at t={} (ceiling {BUCKETED_SUPERCLASS_CEILING})",
            q.bucketed_superclasses, q.tolerance
        );
        healthy = false;
    }
    for b in report
        .scaling
        .iter()
        .filter(|b| b.policy == "dynamic-hetero")
    {
        if b.superclasses > BUCKETED_SUPERCLASS_CEILING {
            eprintln!(
                "FAIL: jittered {}-PM fleet kept C={} at t={} (ceiling {BUCKETED_SUPERCLASS_CEILING})",
                b.pms, b.superclasses, b.class_tolerance
            );
            healthy = false;
        }
    }
    if !report.swf.round_trip_identical {
        eprintln!("FAIL: parsing the rendered SWF trace did not return the generated jobs");
        healthy = false;
    }
    if report.profile.profile.phases.is_empty() {
        eprintln!("FAIL: profiled run recorded no phase timings");
        healthy = false;
    }
    if report.oracle_overhead.violations > 0 || !report.oracle_overhead.trace_identical {
        eprintln!("FAIL: checked mode found violations or perturbed the run");
        healthy = false;
    }
    // The overbooked+elastic acceptance scenario: the oracle stays clean,
    // the workload actually resizes, and overbooking past 1.0 actually
    // saturates (nonzero SLA seconds).
    if report.elasticity.violations > 0 {
        eprintln!(
            "FAIL: checked elastic run raised {} oracle violation(s)",
            report.elasticity.violations
        );
        healthy = false;
    }
    if report.elasticity.total_resizes == 0 {
        eprintln!("FAIL: elastic scenario applied no resizes");
        healthy = false;
    }
    if !smoke && report.elasticity.sla_violation_seconds <= 0.0 {
        eprintln!("FAIL: overbooked week metered zero SLA-violation seconds");
        healthy = false;
    }
    if !smoke && report.elasticity.wall_seconds > ELASTIC_1K_BUDGET_SECONDS {
        eprintln!(
            "FAIL: checked 1k-PM elastic week took {:.1} s, over the {ELASTIC_1K_BUDGET_SECONDS} s budget",
            report.elasticity.wall_seconds
        );
        healthy = false;
    }
    // Smoke runs are too short for a stable percentage; the budget is
    // enforced on the full-scale measurement only.
    if !smoke && report.oracle_overhead.overhead_percent > ORACLE_OVERHEAD_BUDGET_PERCENT {
        eprintln!(
            "FAIL: oracle overhead {:.2}% exceeds the {ORACLE_OVERHEAD_BUDGET_PERCENT}% budget",
            report.oracle_overhead.overhead_percent
        );
        healthy = false;
    }
    // Scaling budgets (full mode only — smoke rows are smaller): a 7-day
    // 10k-PM / ~50k-VM first-fit week must finish under a minute, and the
    // same week under the dynamic scheme — the row the class-compressed
    // kernel exists for — must be present and finish under 10 s.
    if let Some(big) = report
        .scaling
        .iter()
        .find(|b| b.pms == 10_000 && b.policy == "first-fit")
    {
        if big.wall_seconds > 60.0 {
            eprintln!(
                "FAIL: 10k-PM first-fit week took {:.1} s, over the 60 s budget",
                big.wall_seconds
            );
            healthy = false;
        }
    }
    if !smoke {
        match report
            .scaling
            .iter()
            .find(|b| b.pms == 10_000 && b.policy == "dynamic")
        {
            None => {
                eprintln!("FAIL: full run is missing the 10k-PM dynamic scaling row");
                healthy = false;
            }
            Some(big) if big.wall_seconds > DYNAMIC_10K_BUDGET_SECONDS => {
                eprintln!(
                    "FAIL: 10k-PM dynamic week took {:.1} s, over the {DYNAMIC_10K_BUDGET_SECONDS} s budget",
                    big.wall_seconds
                );
                healthy = false;
            }
            Some(_) => {}
        }
        // Heterogeneous acceptance rows (DESIGN.md §12): the jittered
        // 10k-PM week on the bucketed compressed kernel, and the jittered
        // 100k-PM day.
        match report
            .scaling
            .iter()
            .find(|b| b.pms == 10_000 && b.policy == "dynamic-hetero")
        {
            None => {
                eprintln!("FAIL: full run is missing the jittered 10k-PM dynamic scaling row");
                healthy = false;
            }
            Some(big) if big.wall_seconds > DYNAMIC_HETERO_10K_BUDGET_SECONDS => {
                eprintln!(
                    "FAIL: jittered 10k-PM dynamic week took {:.1} s, over the {DYNAMIC_HETERO_10K_BUDGET_SECONDS} s budget",
                    big.wall_seconds
                );
                healthy = false;
            }
            Some(_) => {}
        }
        match report
            .scaling
            .iter()
            .find(|b| b.pms == 100_000 && b.policy == "dynamic-hetero")
        {
            None => {
                eprintln!("FAIL: full run is missing the jittered 100k-PM scaling row");
                healthy = false;
            }
            Some(big) if big.wall_seconds > DYNAMIC_HETERO_100K_BUDGET_SECONDS => {
                eprintln!(
                    "FAIL: jittered 100k-PM day took {:.1} s, over the {DYNAMIC_HETERO_100K_BUDGET_SECONDS} s budget",
                    big.wall_seconds
                );
                healthy = false;
            }
            Some(_) => {}
        }
    }
    // Trajectory tracking: one JSONL line per run, appended even when the
    // gates fail (an unhealthy entry is data too — the CI gate filters on
    // the `healthy` flag when building its rolling-median baseline).
    if let Some(path) = history_path {
        let entry = HistoryEntry {
            schema: "dvmp/bench-history/v3",
            smoke,
            seed,
            git_sha: dvmp_obs::git_sha().to_string(),
            host_threads: report.host_threads,
            recorded_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            healthy,
            metrics: HistoryMetrics {
                peak_events_per_sec: report
                    .scaling
                    .iter()
                    .map(|b| b.events_per_sec)
                    .fold(0.0, f64::max),
            },
        };
        let line = serde_json::to_string(&entry).expect("history entry serializes");
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("cannot open {path}: {e}"));
        writeln!(file, "{line}").unwrap_or_else(|e| panic!("cannot append {path}: {e}"));
        eprintln!("history: appended 1 entry -> {path}");
    }
    if !healthy {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn parses_flags_history_and_seed() {
        assert_eq!(
            parse(""),
            Ok(Args {
                smoke: false,
                history_path: None,
                seed: 42
            })
        );
        assert_eq!(
            parse("--smoke --history h.jsonl 7"),
            Ok(Args {
                smoke: true,
                history_path: Some("h.jsonl".into()),
                seed: 7
            })
        );
        // A history path that looks like a number is still the path.
        assert_eq!(
            parse("--history 9 3").map(|a| (a.history_path, a.seed)),
            Ok((Some("9".into()), 3))
        );
    }

    #[test]
    fn rejects_unknown_flags_and_bad_seeds() {
        let err = parse("--smok").unwrap_err();
        assert!(err.contains("--smok"), "{err}");
        let err = parse("--smoke forty-two").unwrap_err();
        assert!(err.contains("forty-two"), "{err}");
        assert!(parse("--history").is_err());
        assert!(parse("7 8").is_err());
        assert!(parse("-1").is_err());
    }
}
