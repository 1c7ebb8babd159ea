//! Performance evidence for the planning fast path.
//!
//! Measures, at paper scale (the Table II fleet: 100 PMs, 500+ VMs):
//!
//! 1. full probability-matrix builds — reference kernel vs the
//!    class-cached fast kernel;
//! 2. complete dense planning passes — a fresh `DynamicPlacement` per
//!    pass (re-allocating plan, matrix and caches) vs one policy reusing
//!    its planning arena;
//! 3. an end-to-end week simulation with the dynamic scheme on the dense
//!    planner under both matrix kernels, asserting the reported energy is
//!    identical;
//! 4. the checked-mode oracle's end-to-end overhead — the same scenario
//!    with and without `SimConfig.checked`, asserting zero violations,
//!    an unperturbed trace, and overhead within the DESIGN.md §9 budget;
//! 5. fleet-size scaling rows — first-fit weeks on `Scenario::scaled`
//!    fleets (up to 10k PMs / ~50k VM requests at full scale), recording
//!    wall time and engine events/sec, the throughput metric the
//!    calendar-queue scheduler and incremental fleet accounting exist
//!    to improve — plus dynamic-scheme rows at 1k/5k PMs, which measure
//!    the planning pass itself at scale;
//! 6. incremental planning — steady-state passes of the journal-driven
//!    delta update (DESIGN.md §8) vs forced fresh rebuilds, on converged
//!    fleets at 100×500 and 1k×5k, asserting the two paths propose
//!    identical migration plans;
//! 7. plan-kernel rows — steady-state passes of the dense kernel vs the
//!    class-compressed planner on the same converged fleets, recording
//!    the per-kernel row counts (`M` PM rows vs `C` superclasses), the
//!    superclass bucket occupancy and poison status, the kernel the
//!    default policy ran (from its pass counters), and that the kernels
//!    propose identical migration plans;
//! 8. heterogeneous scaling rows — jittered-reliability fleets whose
//!    per-PM spread fragments the exact class key, planned with tolerance
//!    bucketing (`class_tolerance`) so the compressed kernel survives;
//!    every scaling row records the superclass count and poison status
//!    the fleet registers at its tolerance;
//! 9. quantization divergence — the same jittered week planned exact
//!    (t = 0, which poisons to dense) vs bucketed, reporting the energy
//!    and migration divergence so the approximation is measured, never
//!    silent.
//!
//! Results go to stdout and to `BENCH_placement.json` in the working
//! directory (schema documented in DESIGN.md §8). `--smoke` shrinks the
//! workload for CI.
//!
//! Usage: `perf_report [--smoke] [--history <file.jsonl>] [seed]` — an
//! unknown flag or a seed that is not a number is a usage error (exit 2).
//!
//! `--history` appends one JSONL trajectory entry (headline speedups plus
//! run provenance: seed, git sha, host threads) to the given file after
//! the health gates run — the feed for CI's rolling-median regression
//! gate over `BENCH_history.jsonl`.

use dvmp::prelude::*;
use dvmp_bench::{fragmented_fixture, fragmented_fixture_scaled};
use dvmp_cluster::pm::PmId;
use dvmp_cluster::vm::VmState;
use dvmp_cluster::FleetDelta;
use dvmp_placement::factors::EvalContext;
use dvmp_placement::matrix::MatrixKernel;
use dvmp_placement::plan::PlanState;
use dvmp_placement::ProbabilityMatrix;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct MatrixBuildBench {
    pms: usize,
    vms: usize,
    iters: usize,
    reference_ns: f64,
    fast_ns: f64,
    speedup_fast_vs_reference: f64,
    bit_identical: bool,
}

#[derive(Serialize)]
struct IncrementalPlanBench {
    pms: usize,
    vms: usize,
    iters: usize,
    /// Median full planning pass of a policy fed no journal (fresh matrix
    /// rebuild each pass, arena reuse on).
    fresh_ns: f64,
    /// Median planning pass consuming a small steady-state fleet delta
    /// (two dirty PMs, one churned VM) through the journal-driven update.
    delta_ns: f64,
    speedup_delta: f64,
    /// The two paths proposed identical migration sequences.
    plans_identical: bool,
    incremental_passes: u64,
    full_rebuilds: u64,
}

#[derive(Serialize)]
struct PlanPassBench {
    pms: usize,
    vms: usize,
    iters: usize,
    fresh_policy_ns: f64,
    reused_arena_ns: f64,
    speedup_reuse: f64,
}

#[derive(Serialize)]
struct PlanKernelBench {
    pms: usize,
    vms: usize,
    iters: usize,
    /// Dense kernel row count: one row per powered PM (`M`).
    dense_rows: usize,
    /// Compressed kernel row count: registered superclasses (`C`).
    compressed_rows: usize,
    /// Median steady-state pass under the forced dense kernel, fed the
    /// same per-pass fleet delta as the compressed policy.
    dense_ns: f64,
    /// Median steady-state pass under the default (class-compressed)
    /// policy.
    compressed_ns: f64,
    speedup_compressed: f64,
    /// Both kernels proposed identical migration sequences.
    plans_identical: bool,
    /// Class tolerance the compressed policy planned at (0 = exact keys).
    class_tolerance: f64,
    /// Superclass level buckets holding at least one row — how evenly the
    /// tolerance bucketing spread the fleet.
    occupied_buckets: usize,
    /// The compressed planner poisoned and fell back to the dense path.
    poisoned: bool,
    /// Kernel the default policy ran at this shape, read from its pass
    /// counters ("dense" or "compressed"), and that kernel's measured
    /// time.
    chosen_kernel: &'static str,
    chosen_ns: f64,
    /// The faster of the two kernels at this shape.
    winner_kernel: &'static str,
    winner_ns: f64,
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
    /// spread every PM is its own class, past the registry cap.
    exact_superclasses: usize,
    exact_poisoned: bool,
    /// Superclasses after tolerance bucketing.
    bucketed_superclasses: usize,
    bucketed_poisoned: bool,
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
    fast_seconds: f64,
    reference_seconds: f64,
    speedup: f64,
    energy_identical: bool,
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
    /// the forced dense kernel.
    dense_seconds: f64,
    /// Same scenario, same seed, the default (class-compressed) policy.
    compressed_seconds: f64,
    total_resizes: u64,
    rejected_resizes: u64,
    sla_violation_seconds: f64,
    peak_saturated_pms: f64,
    /// The two kernels produced bit-identical reports (energy and
    /// SLA meters alike).
    reports_identical: bool,
    /// Oracle violations across both checked runs (must be zero:
    /// saturation is metered as SLA seconds, never as a violation).
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
    /// Planning kernel the default policy runs on this fleet (probe pass
    /// counters: "dense" or "compressed"); "n/a" for first-fit.
    plan_kernel: &'static str,
    /// Reliability model shaping the fleet ("uniform" or "jittered").
    reliability: &'static str,
    /// Class tolerance the dynamic policy planned at (0 = exact keys).
    class_tolerance: f64,
    /// Superclasses this fleet registers at that tolerance (probe pass) —
    /// the row dimension the compressed kernel sweeps instead of `M`.
    superclasses: usize,
    /// Whether the probe pass poisoned (fleet too heterogeneous for the
    /// compressed registry at this tolerance).
    compressed_poisoned: bool,
    events: u64,
    wall_seconds: f64,
    events_per_sec: f64,
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
    matrix_build: Vec<MatrixBuildBench>,
    plan_pass: PlanPassBench,
    incremental_plan: Vec<IncrementalPlanBench>,
    plan_kernel: Vec<PlanKernelBench>,
    end_to_end: EndToEndBench,
    oracle_overhead: OracleOverheadBench,
    elasticity: ElasticityBench,
    quantization: QuantizationBench,
    scaling: Vec<ScalingBench>,
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

/// The trajectory-tracked scalars (higher is better for all of them).
#[derive(Serialize)]
struct HistoryMetrics {
    fast_speedup: f64,
    reuse_speedup: f64,
    delta_speedup: f64,
    e2e_speedup: f64,
    peak_events_per_sec: f64,
}

/// Full-scale acceptance floor: a steady-state delta pass at 1k PMs must
/// beat a fresh rebuild by at least this factor (DESIGN.md §8).
const DELTA_SPEEDUP_FLOOR: f64 = 5.0;

/// Tolerance for the plan-kernel selection check: the kernel the default
/// policy runs may measure at most this much slower than the per-shape
/// winner before the report treats it as a mis-selection rather than
/// noise.
const KERNEL_SELECTION_TOLERANCE: f64 = 1.3;

/// The acceptance budget for checked mode: the oracle may cost at most
/// this much end-to-end wall time at paper scale (DESIGN.md §9).
const ORACLE_OVERHEAD_BUDGET_PERCENT: f64 = 15.0;

/// Wall-clock budget for the 10k-PM / ~50k-VM 7-day week under the
/// dynamic scheme — the scale the class-compressed kernel exists for.
const DYNAMIC_10K_BUDGET_SECONDS: f64 = 10.0;

/// Wall-clock budget for the checked 1k-PM overbooked+elastic week under
/// either kernel (DESIGN.md §11's acceptance scenario).
const ELASTIC_1K_BUDGET_SECONDS: f64 = 30.0;

/// Wall-clock budget for the jittered-reliability 10k-PM 7-day week under
/// the dynamic scheme with tolerance bucketing — the heterogeneous fleet
/// that poisoned straight to the dense cliff before `class_tolerance`
/// existed (DESIGN.md §12).
const DYNAMIC_HETERO_10K_BUDGET_SECONDS: f64 = 15.0;

/// Wall-clock budget for the jittered 100k-PM 1-day scaling row — the
/// fleet size bucketed superclasses exist for.
const DYNAMIC_HETERO_100K_BUDGET_SECONDS: f64 = 120.0;

/// Per-PM reliability jitter of the heterogeneous rows. At ±0.004 every
/// PM gets a distinct exact class key (C = M, instant poison), while
/// [`HETERO_TOLERANCE`] buckets collapse the fleet back to its hardware
/// superclasses.
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

fn bench_matrix_build(n_vms: u32, iters: usize) -> MatrixBuildBench {
    let (dc, vms) = fragmented_fixture(n_vms);
    let view = PlacementView {
        dc: &dc,
        vms: &vms,
        now: dvmp_simcore::SimTime::from_secs(1_000),
    };
    let cfg = DynamicConfig::default();
    let plan = PlanState::from_view(&view, &cfg.min_vm);

    let reference_ns = median_ns(iters, || {
        ProbabilityMatrix::build_with_kernel(
            &plan,
            &EvalContext::new(&cfg),
            MatrixKernel::Reference,
        );
    });
    let fast_ns = median_ns(iters, || {
        ProbabilityMatrix::build(&plan, &EvalContext::new(&cfg));
    });
    let reference = ProbabilityMatrix::build_with_kernel(
        &plan,
        &EvalContext::new(&cfg),
        MatrixKernel::Reference,
    );
    let fast = ProbabilityMatrix::build(&plan, &EvalContext::new(&cfg));
    let mut bit_identical = true;
    for row in 0..reference.rows() {
        for col in 0..reference.cols() {
            bit_identical &= reference.get(row, col).to_bits() == fast.get(row, col).to_bits();
        }
    }

    MatrixBuildBench {
        pms: plan.pms.len(),
        vms: plan.vms.len(),
        iters,
        reference_ns,
        fast_ns,
        speedup_fast_vs_reference: reference_ns / fast_ns,
        bit_identical,
    }
}

fn bench_plan_pass(n_vms: u32, iters: usize) -> PlanPassBench {
    let (dc, vms) = fragmented_fixture(n_vms);
    let view = PlacementView {
        dc: &dc,
        vms: &vms,
        now: dvmp_simcore::SimTime::from_secs(1_000),
    };
    // The arena is the dense planner's, so both sides pin that kernel.
    let dense = || DynamicPlacement::dense_reference(DynamicConfig::default());
    let fresh_policy_ns = median_ns(iters, || {
        let mut policy = dense();
        policy.plan_migrations(&view);
    });
    let mut reused = dense();
    reused.plan_migrations(&view); // warm the arena
    let reused_arena_ns = median_ns(iters, || {
        reused.plan_migrations(&view);
    });
    PlanPassBench {
        pms: dc.len(),
        vms: vms.len(),
        iters,
        fresh_policy_ns,
        reused_arena_ns,
        speedup_reuse: fresh_policy_ns / reused_arena_ns,
    }
}

/// Converges a fragmented fleet under the scheme (so measured passes
/// reflect a settled datacenter, not the initial consolidation storm)
/// and discards the convergence dirt from the journal.
fn converged_fixture(
    pm_count: usize,
    n_vms: u32,
) -> (
    dvmp_cluster::datacenter::Datacenter,
    std::collections::BTreeMap<dvmp_cluster::vm::VmId, dvmp_cluster::vm::Vm>,
) {
    let (mut dc, mut vms) = fragmented_fixture_scaled(pm_count, n_vms);
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
        for m in &moves {
            let res = vms[&m.vm].spec.resources;
            if dc.host_of(m.vm) == Some(m.from) && dc.pm(m.to).can_host(&res) {
                dc.begin_migration(m.vm, m.to, res).unwrap();
                dc.finish_migration(m.vm, m.from).unwrap();
                vms.get_mut(&m.vm).unwrap().state = VmState::Running { pm: m.to };
            }
        }
    }
    dc.take_fleet_delta(); // discard the convergence dirt
    (dc, vms)
}

/// The steady-state delta a control period typically drains: a couple of
/// PM footprint changes and one churned VM.
fn steady_state_delta(
    pm_count: usize,
    vms: &std::collections::BTreeMap<dvmp_cluster::vm::VmId, dvmp_cluster::vm::Vm>,
) -> FleetDelta {
    let mut delta = FleetDelta::new();
    delta.note_pm(PmId(0));
    delta.note_pm(PmId((pm_count / 2) as u32));
    if let Some(&vm0) = vms.keys().next() {
        delta.note_vm(vm0);
    }
    delta
}

/// Steady-state incremental planning: time full passes of a policy fed no
/// journal (so every pass rebuilds) against passes of a policy fed a small
/// per-pass fleet delta through the journal interface.
fn bench_incremental_plan(pm_count: usize, n_vms: u32, iters: usize) -> IncrementalPlanBench {
    let (dc, vms) = converged_fixture(pm_count, n_vms);
    let now = dvmp_simcore::SimTime::from_secs(1_000);
    let delta = steady_state_delta(pm_count, &vms);
    let view = PlacementView {
        dc: &dc,
        vms: &vms,
        now,
    };

    // Both policies pinned to the dense kernel: this section measures the
    // dense journal-driven delta path against dense fresh rebuilds; the
    // compressed kernel gets its own section (`bench_plan_kernel`).
    let mut fresh = DynamicPlacement::dense_reference(DynamicConfig::default());
    fresh.plan_migrations(&view); // warm the arenas
    let fresh_ns = median_ns(iters, || {
        fresh.plan_migrations(&view);
    });

    let mut inc = DynamicPlacement::dense_reference(DynamicConfig::default());
    inc.plan_migrations(&view); // warm: full build + snapshot capture
    let delta_ns = median_ns(iters, || {
        inc.note_fleet_delta(delta.clone());
        inc.plan_migrations(&view);
    });

    inc.note_fleet_delta(delta.clone());
    let a = inc.plan_migrations(&view);
    let b = fresh.plan_migrations(&view);

    IncrementalPlanBench {
        pms: dc.len(),
        vms: vms.len(),
        iters,
        fresh_ns,
        delta_ns,
        speedup_delta: fresh_ns / delta_ns,
        plans_identical: a == b,
        incremental_passes: inc.incremental_passes(),
        full_rebuilds: inc.full_rebuilds(),
    }
}

/// Dense vs class-compressed planning kernel on the same converged fleet,
/// both fed the same steady-state fleet delta per pass, plus the kernel
/// the default policy actually ran there.
fn bench_plan_kernel(pm_count: usize, n_vms: u32, iters: usize) -> PlanKernelBench {
    let (dc, vms) = converged_fixture(pm_count, n_vms);
    let now = dvmp_simcore::SimTime::from_secs(1_000);
    let delta = steady_state_delta(pm_count, &vms);
    let view = PlacementView {
        dc: &dc,
        vms: &vms,
        now,
    };

    let mut dense = DynamicPlacement::dense_reference(DynamicConfig::default());
    dense.plan_migrations(&view); // warm: full build + snapshot capture
    let dense_ns = median_ns(iters, || {
        dense.note_fleet_delta(delta.clone());
        dense.plan_migrations(&view);
    });

    let mut comp = DynamicPlacement::paper_default();
    comp.plan_migrations(&view); // warm: compressed rebuild from the view
    let compressed_ns = median_ns(iters, || {
        comp.note_fleet_delta(delta.clone());
        comp.plan_migrations(&view);
    });

    dense.note_fleet_delta(delta.clone());
    comp.note_fleet_delta(delta.clone());
    let a = dense.plan_migrations(&view);
    let b = comp.plan_migrations(&view);
    assert!(
        !comp.compressed_poisoned() && comp.compressed_passes() > 0,
        "default policy fell back to the dense kernel at {pm_count} PMs"
    );

    let (winner_kernel, winner_ns) = if dense_ns <= compressed_ns {
        ("dense", dense_ns)
    } else {
        ("compressed", compressed_ns)
    };

    PlanKernelBench {
        pms: dc.len(),
        vms: vms.len(),
        iters,
        dense_rows: comp.compressed_active_rows(),
        compressed_rows: comp.compressed_superclasses(),
        dense_ns,
        compressed_ns,
        speedup_compressed: dense_ns / compressed_ns,
        plans_identical: a == b,
        class_tolerance: 0.0,
        occupied_buckets: comp.compressed_occupied_buckets(),
        poisoned: comp.compressed_poisoned(),
        // The assert above: the default policy's own counters say it ran
        // the compressed kernel.
        chosen_kernel: "compressed",
        chosen_ns: compressed_ns,
        winner_kernel,
        winner_ns,
    }
}

/// The kernel a dynamic policy's passes ran on, from its own counters:
/// "compressed" while the persistent compressed planner serves them,
/// "dense" if it never ran or poisoned (after which passes fall back to
/// one-shot compressed plans or the dense kernel).
fn ran_kernel(policy: &DynamicPlacement) -> &'static str {
    if policy.compressed_passes() > 0 && !policy.compressed_poisoned() {
        "compressed"
    } else {
        "dense"
    }
}

/// One default-kernel plan pass over a fleet with no VMs: registers
/// every powered PM's superclass at `tolerance` and reports `(C,
/// poisoned, kernel)` — the fragmentation the bucketing must absorb for
/// this fleet shape, independent of any workload, and the kernel the
/// pass ran on.
fn probe_superclasses(fleet: &Datacenter, tolerance: f64) -> (usize, bool, &'static str) {
    // Fresh scenario fleets start powered off (the simulator boots PMs on
    // demand); the probe powers a copy on so every PM registers its class,
    // the same registration a live run performs as the fleet powers up.
    let mut dc = fleet.clone();
    let ids: Vec<PmId> = dc.pms().iter().map(|p| p.id).collect();
    for id in ids {
        dc.pm_mut(id).state = dvmp_cluster::pm::PmState::On;
    }
    let vms = std::collections::BTreeMap::new();
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
    (
        probe.compressed_superclasses(),
        probe.compressed_poisoned(),
        ran_kernel(&probe),
    )
}

/// The measured cost of tolerance bucketing: the same jittered week run
/// with exact class keys (t = 0 — the fleet fragments past the registry
/// cap and poisons to the dense path) and with bucketed keys, reporting
/// the energy and migration divergence between the two plans.
fn bench_quantization(
    pm_count: usize,
    days: u64,
    spread: f64,
    tolerance: f64,
    seed: u64,
) -> QuantizationBench {
    let scenario = Scenario::scaled_jittered(pm_count, spread, seed).with_days(days);
    let (exact_superclasses, exact_poisoned, _) = probe_superclasses(scenario.fleet(), 0.0);
    let (bucketed_superclasses, bucketed_poisoned, _) =
        probe_superclasses(scenario.fleet(), tolerance);
    let run = |class_tolerance: f64| {
        scenario.run(Box::new(DynamicPlacement::new(DynamicConfig {
            class_tolerance,
            ..DynamicConfig::default()
        })))
    };
    let exact = run(0.0);
    let bucketed = run(tolerance);
    QuantizationBench {
        pms: pm_count,
        days,
        seed,
        spread,
        tolerance,
        exact_superclasses,
        exact_poisoned,
        bucketed_superclasses,
        bucketed_poisoned,
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
    // Matrix kernels fill the dense planner's matrix, so both runs pin it.
    let run = |kernel: MatrixKernel| {
        let t = Instant::now();
        let policy = DynamicPlacement::dense_reference(DynamicConfig::default());
        let report = scenario.run(Box::new(policy.with_kernel(kernel)));
        (t.elapsed().as_secs_f64(), report)
    };
    let (fast_seconds, fast_report) = run(MatrixKernel::Fast);
    let (reference_seconds, reference_report) = run(MatrixKernel::Reference);
    EndToEndBench {
        seed,
        days,
        fast_seconds,
        reference_seconds,
        speedup: reference_seconds / fast_seconds,
        energy_identical: fast_report.total_energy_kwh.to_bits()
            == reference_report.total_energy_kwh.to_bits()
            && fast_report.hourly_active_servers == reference_report.hourly_active_servers,
        dynamic_energy_kwh: fast_report.total_energy_kwh,
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
// without planning cost; dynamic rows add the scheme's control-period
// planning pass, the thing incremental planning exists to make scale.
// Every row also carries the superclass count and poison status its
// fleet registers at the row's tolerance (probe pass), so class
// fragmentation is visible in BENCH_placement.json trends.
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
    let (superclasses, compressed_poisoned, probe_kernel) =
        probe_superclasses(scenario.fleet(), class_tolerance);
    let t = Instant::now();
    let (report, events) = scenario.run_counting(make());
    let wall_seconds = t.elapsed().as_secs_f64();
    assert!(report.total_arrivals > 0, "scaled scenario saw no arrivals");
    let dynamic = policy.starts_with("dynamic");
    let plan_kernel = if dynamic { probe_kernel } else { "n/a" };
    ScalingBench {
        pms: pm_count,
        vm_requests,
        days,
        policy,
        plan_kernel,
        reliability,
        class_tolerance,
        superclasses,
        compressed_poisoned,
        events,
        wall_seconds,
        events_per_sec: events as f64 / wall_seconds,
    }
}

/// The overbooked+elastic acceptance scenario (DESIGN.md §11): ratios
/// 150/120 and the moderate elasticity preset, run in checked mode under
/// both planning kernels. The oracle must stay clean (saturation is SLA
/// metering, not a violation) and the two kernels must agree bit for bit.
fn bench_elasticity(pm_count: usize, days: u64, seed: u64) -> ElasticityBench {
    let run = |policy: DynamicPlacement| {
        let mut scenario = Scenario::overbooked_elastic(pm_count, seed).with_days(days);
        scenario.sim.checked = true;
        let t = Instant::now();
        let report = scenario.run(Box::new(policy));
        (t.elapsed().as_secs_f64(), report)
    };
    let (dense_seconds, dense) = run(DynamicPlacement::dense_reference(DynamicConfig::default()));
    let (compressed_seconds, comp) = run(DynamicPlacement::paper_default());
    let violations = [&dense, &comp]
        .iter()
        .map(|r| {
            r.oracle
                .as_ref()
                .expect("checked run attaches a summary")
                .total_violations()
        })
        .sum();
    ElasticityBench {
        pms: pm_count,
        days,
        seed,
        dense_seconds,
        compressed_seconds,
        total_resizes: dense.total_resizes,
        rejected_resizes: dense.rejected_resizes,
        sla_violation_seconds: dense.sla_violation_seconds,
        peak_saturated_pms: dense.peak_saturated_pms,
        reports_identical: dense.total_energy_kwh.to_bits() == comp.total_energy_kwh.to_bits()
            && dense.sla_violation_seconds.to_bits() == comp.sla_violation_seconds.to_bits()
            && dense.total_resizes == comp.total_resizes
            && dense.rejected_resizes == comp.rejected_resizes
            && dense.hourly_active_servers == comp.hourly_active_servers,
        violations,
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
    let (scales, iters, days): (&[u32], usize, u64) = if smoke {
        (&[100], 5, 1)
    } else {
        (&[100, 300, 500], 51, 7)
    };
    // Fleet-size scaling rows (PM counts × horizon). Smoke keeps three
    // rows so the CI gate can check throughput shape, just smaller.
    let (fleet_scales, fleet_days): (&[usize], u64) = if smoke {
        (&[250, 500, 1_000], 1)
    } else {
        (&[1_000, 5_000, 10_000], 7)
    };

    eprintln!("# perf_report{}", if smoke { " (smoke)" } else { "" });
    let matrix_build: Vec<MatrixBuildBench> = scales
        .iter()
        .map(|&n| {
            let b = bench_matrix_build(n, iters);
            eprintln!(
                "matrix build {}x{}: reference {:.2} ms, fast {:.2} ms ({:.2}x), bit-identical: {}",
                b.pms,
                b.vms,
                b.reference_ns / 1e6,
                b.fast_ns / 1e6,
                b.speedup_fast_vs_reference,
                b.bit_identical
            );
            b
        })
        .collect();

    let plan_pass = bench_plan_pass(*scales.last().unwrap(), iters);
    eprintln!(
        "plan pass {}x{}: fresh {:.2} ms, reused arena {:.2} ms ({:.2}x)",
        plan_pass.pms,
        plan_pass.vms,
        plan_pass.fresh_policy_ns / 1e6,
        plan_pass.reused_arena_ns / 1e6,
        plan_pass.speedup_reuse
    );

    // Incremental planning: smoke keeps the paper-scale shape only; the
    // full run adds the 1k×5k acceptance shape.
    let inc_shapes: &[(usize, u32)] = if smoke {
        &[(100, 500)]
    } else {
        &[(100, 500), (1_000, 5_000)]
    };
    let incremental_plan: Vec<IncrementalPlanBench> = inc_shapes
        .iter()
        .map(|&(pms, n_vms)| {
            let b = bench_incremental_plan(pms, n_vms, iters);
            eprintln!(
                "incremental plan {}x{}: fresh {:.2} ms, delta {:.2} ms ({:.2}x), plans identical: {}",
                b.pms,
                b.vms,
                b.fresh_ns / 1e6,
                b.delta_ns / 1e6,
                b.speedup_delta,
                b.plans_identical
            );
            b
        })
        .collect();

    // Plan-kernel rows reuse the incremental shapes: the same converged
    // fleets, dense vs class-compressed, identical per-pass deltas.
    let plan_kernel: Vec<PlanKernelBench> = inc_shapes
        .iter()
        .map(|&(pms, n_vms)| {
            let b = bench_plan_kernel(pms, n_vms, iters);
            eprintln!(
                "plan kernel {}x{}: dense {:.2} ms ({} rows), compressed {:.2} ms ({} superclasses, {} buckets, poisoned: {}, {:.2}x), default runs {}, plans identical: {}",
                b.pms,
                b.vms,
                b.dense_ns / 1e6,
                b.dense_rows,
                b.compressed_ns / 1e6,
                b.compressed_rows,
                b.occupied_buckets,
                b.poisoned,
                b.speedup_compressed,
                b.chosen_kernel,
                b.plans_identical
            );
            b
        })
        .collect();

    let end_to_end = bench_end_to_end(seed, days);
    eprintln!(
        "end-to-end {}d sim: fast {:.2} s, reference {:.2} s ({:.2}x), energy identical: {}",
        end_to_end.days,
        end_to_end.fast_seconds,
        end_to_end.reference_seconds,
        end_to_end.speedup,
        end_to_end.energy_identical
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
        "elasticity {} PMs {}d (checked, overbooked 150/120): dense {:.2} s, compressed {:.2} s, {} resizes ({} rejected), {:.0} SLA-violation s (peak {:.0} saturated PMs), reports identical: {}, violations: {}",
        elasticity.pms,
        elasticity.days,
        elasticity.dense_seconds,
        elasticity.compressed_seconds,
        elasticity.total_resizes,
        elasticity.rejected_resizes,
        elasticity.sla_violation_seconds,
        elasticity.peak_saturated_pms,
        elasticity.reports_identical,
        elasticity.violations
    );

    // Exact-vs-bucketed divergence on a jittered fleet: the measured cost
    // of planning at `class_tolerance` instead of exact class keys.
    let (quant_pms, quant_days) = if smoke { (250, 1) } else { (1_000, 7) };
    let quantization =
        bench_quantization(quant_pms, quant_days, HETERO_SPREAD, HETERO_TOLERANCE, seed);
    eprintln!(
        "quantization {} PMs {}d (spread {:.3}, t={:.2}): exact C={} (poisoned: {}) vs bucketed C={} (poisoned: {}), energy {:.2} vs {:.2} kWh ({:+.3}%), migrations {} vs {} ({:+})",
        quantization.pms,
        quantization.days,
        quantization.spread,
        quantization.tolerance,
        quantization.exact_superclasses,
        quantization.exact_poisoned,
        quantization.bucketed_superclasses,
        quantization.bucketed_poisoned,
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
                "scaling {} PMs / {} VM requests, {}d ({}, {} reliability, kernel {}, C={}, poisoned: {}): {} events in {:.2} s = {:.0} events/s",
                b.pms,
                b.vm_requests,
                b.days,
                b.policy,
                b.reliability,
                b.plan_kernel,
                b.superclasses,
                b.compressed_poisoned,
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
        schema: "dvmp/perf-report/v9",
        smoke,
        seed,
        git_sha: dvmp_obs::git_sha().to_string(),
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        matrix_build,
        plan_pass,
        incremental_plan,
        plan_kernel,
        end_to_end,
        oracle_overhead,
        elasticity,
        quantization,
        scaling,
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
    if !report.matrix_build.iter().all(|b| b.bit_identical) || !report.end_to_end.energy_identical {
        eprintln!("FAIL: fast path is not bit-identical to the reference");
        healthy = false;
    }
    if !report.incremental_plan.iter().all(|b| b.plans_identical) {
        eprintln!("FAIL: incremental planning diverged from the fresh-rebuild plans");
        healthy = false;
    }
    if !report.plan_kernel.iter().all(|b| b.plans_identical) {
        eprintln!("FAIL: compressed kernel diverged from the dense plans");
        healthy = false;
    }
    // Tolerance bucketing must rescue the jittered fleet: exact keys
    // fragment past the registry cap (that poisoning is the point of the
    // row), bucketed keys must not.
    if report.quantization.bucketed_poisoned {
        eprintln!(
            "FAIL: bucketed quantization run poisoned at t={} (C={})",
            report.quantization.tolerance, report.quantization.bucketed_superclasses
        );
        healthy = false;
    }
    if !report.quantization.exact_poisoned {
        eprintln!(
            "FAIL: exact-key probe did not fragment the jittered fleet (C={}) — the quantization row is not measuring the cliff",
            report.quantization.exact_superclasses
        );
        healthy = false;
    }
    for b in report
        .scaling
        .iter()
        .filter(|b| b.policy == "dynamic-hetero")
    {
        if b.compressed_poisoned {
            eprintln!(
                "FAIL: jittered {}-PM fleet poisoned at t={} (C={})",
                b.pms, b.class_tolerance, b.superclasses
            );
            healthy = false;
        }
    }
    for b in &report.plan_kernel {
        if b.chosen_ns > KERNEL_SELECTION_TOLERANCE * b.winner_ns {
            eprintln!(
                "FAIL: default policy's {} plan kernel at {}x{} measures {:.2} ms vs winner {} at {:.2} ms",
                b.chosen_kernel,
                b.pms,
                b.vms,
                b.chosen_ns / 1e6,
                b.winner_kernel,
                b.winner_ns / 1e6
            );
            healthy = false;
        }
    }
    // The 1k-PM steady-state acceptance floor; smoke runs only carry the
    // (already fast) 100-PM shape, whose floor lives in the CI gate.
    if let Some(big) = report.incremental_plan.iter().find(|b| b.pms == 1_000) {
        if big.speedup_delta < DELTA_SPEEDUP_FLOOR {
            eprintln!(
                "FAIL: delta pass at 1k PMs is only {:.2}x a fresh rebuild (floor {DELTA_SPEEDUP_FLOOR}x)",
                big.speedup_delta
            );
            healthy = false;
        }
    }
    if report.profile.profile.phases.is_empty() {
        eprintln!("FAIL: profiled run recorded no phase timings");
        healthy = false;
    }
    if report.oracle_overhead.violations > 0 || !report.oracle_overhead.trace_identical {
        eprintln!("FAIL: checked mode found violations or perturbed the run");
        healthy = false;
    }
    // The overbooked+elastic acceptance scenario: both kernels agree bit
    // for bit, the oracle stays clean, the workload actually resizes, and
    // overbooking past 1.0 actually saturates (nonzero SLA seconds).
    if !report.elasticity.reports_identical {
        eprintln!("FAIL: elastic runs diverged between the dense and compressed kernels");
        healthy = false;
    }
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
    if !smoke
        && report
            .elasticity
            .dense_seconds
            .max(report.elasticity.compressed_seconds)
            > ELASTIC_1K_BUDGET_SECONDS
    {
        eprintln!(
            "FAIL: checked 1k-PM elastic week took {:.1} s / {:.1} s (dense/compressed), over the {ELASTIC_1K_BUDGET_SECONDS} s budget",
            report.elasticity.dense_seconds, report.elasticity.compressed_seconds
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
            schema: "dvmp/bench-history/v1",
            smoke,
            seed,
            git_sha: dvmp_obs::git_sha().to_string(),
            host_threads: report.host_threads,
            recorded_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            healthy,
            metrics: HistoryMetrics {
                fast_speedup: report
                    .matrix_build
                    .last()
                    .map_or(0.0, |b| b.speedup_fast_vs_reference),
                reuse_speedup: report.plan_pass.speedup_reuse,
                delta_speedup: report
                    .incremental_plan
                    .last()
                    .map_or(0.0, |b| b.speedup_delta),
                e2e_speedup: report.end_to_end.speedup,
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
