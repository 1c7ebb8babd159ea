//! The dvmp benchmark: three simulated weeks driven through the public
//! `dvmp` API (`Scenario::*` → `Simulation::new(..).with_resizes(..)
//! .run_counting()`), timed in host time.
//!
//! Untraced repetitions give the end-to-end metrics; the traced binary
//! measures each layer from outside — a timing [`PlacementPolicy`]
//! decorator, a counting allocator and the existing `dvmp_obs` counters
//! and phase histograms — and a checked run audits one repetition with
//! the oracle. Every run's report is digested so repetitions, modes and
//! commits can be compared for identity.

pub mod alloc;
pub mod stats;
pub mod timed;

use dvmp::{Scenario, Simulation};
use dvmp_cluster::Fnv64;
use dvmp_metrics::recorder::RunReport;
use dvmp_obs::{CounterSnapshot, PhaseHistogram};
use dvmp_placement::{DynamicPlacement, FirstFit, PlacementPolicy};
use serde::Value;
use stats::{median, percentile};
use std::time::{Duration, Instant};
use timed::{PolicyStats, TimedPolicy};

/// The benchmark's workloads (see `spec.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's week: 100 PMs, dynamic placement, dense planner.
    PaperWeek,
    /// A 10 000-PM week under dynamic placement: compressed planner.
    Fleet10kWeek,
    /// A 50 000-PM overbooked, elastic week under first-fit: the planner
    /// is bypassed, the event core and cluster writes dominate.
    Elastic50kFirstFit,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperWeek,
        Workload::Fleet10kWeek,
        Workload::Elastic50kFirstFit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperWeek => "paper-week",
            Workload::Fleet10kWeek => "fleet-10k-week",
            Workload::Elastic50kFirstFit => "elastic-50k-firstfit",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's inputs, generated from `seed` alone.
    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            Workload::PaperWeek => Scenario::paper(seed),
            Workload::Fleet10kWeek => Scenario::scaled(10_000, seed),
            Workload::Elastic50kFirstFit => Scenario::overbooked_elastic(50_000, seed),
        }
    }

    /// The policy under test, with every knob at its default.
    pub fn policy(self) -> Box<dyn PlacementPolicy> {
        match self {
            Workload::PaperWeek | Workload::Fleet10kWeek => {
                Box::new(DynamicPlacement::paper_default())
            }
            Workload::Elastic50kFirstFit => Box::new(FirstFit),
        }
    }

    /// Scenarios one untraced measuring run cycles through. A 100-PM week's
    /// host time depends on its seed by ±15 %, so `paper-week` averages
    /// several; the large fleets average out within one scenario.
    pub fn scenarios_per_run(self) -> usize {
        match self {
            Workload::PaperWeek => 6,
            Workload::Fleet10kWeek => 1,
            Workload::Elastic50kFirstFit => 2,
        }
    }

    /// The seeds of the scenarios a run at `seed` measures: `seed` itself
    /// (the one whose digest is pinned, traced and checked), then seeds a
    /// fixed odd stride apart.
    pub fn run_seeds(self, seed: u64) -> Vec<u64> {
        const STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;
        (0..self.scenarios_per_run() as u64)
            .map(|i| seed.wrapping_add(i.wrapping_mul(STRIDE)))
            .collect()
    }
}

/// A simulation of `scenario` under `policy`, ready to run.
pub fn build(scenario: &Scenario, policy: Box<dyn PlacementPolicy>) -> Simulation {
    Simulation::new(
        scenario.fleet().clone(),
        scenario.requests().to_vec(),
        policy,
        scenario.sim.clone(),
    )
    .with_resizes(scenario.resizes().to_vec())
}

/// FNV-1a digest of `report`'s JSON without the attachment-only sections
/// (`meta` carries the git sha and host threads; `obs` and `timeseries`
/// are telemetry) and without the checked-mode `oracle` summary, so an
/// untraced, a traced and a checked run of one input digest equal.
pub fn report_digest(report: &RunReport) -> String {
    let mut core = report.clone();
    core.meta = None;
    core.obs = None;
    core.timeseries = None;
    core.oracle = None;
    let json = serde_json::to_string(&core).expect("run reports serialize");
    let mut h = Fnv64::new();
    h.write(json.as_bytes());
    format!("{:016x}", h.finish())
}

/// One timed repetition: set-up and run, in host seconds.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Scenario construction (workload generation).
    pub generate_s: f64,
    /// `Simulation::new` + `with_resizes`, including copying the inputs.
    pub build_s: f64,
    /// `run_counting()` to the horizon.
    pub run_s: f64,
    pub events: u64,
    pub requests: u64,
    pub resizes: u64,
    pub migrations: u64,
    pub digest: String,
}

impl Rep {
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s
    }
}

/// Runs `scenario` once under `policy` (the scenario's construction time
/// is passed in), timing set-up and run separately.
pub fn timed_run(
    scenario: &Scenario,
    generate_s: f64,
    policy: Box<dyn PlacementPolicy>,
) -> (Rep, RunReport) {
    let t0 = Instant::now();
    let sim = build(scenario, policy);
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (report, events) = sim.run_counting();
    let run_s = t1.elapsed().as_secs_f64();
    let rep = Rep {
        generate_s,
        build_s,
        run_s,
        events,
        requests: scenario.requests().len() as u64,
        resizes: scenario.resizes().len() as u64,
        migrations: report.total_migrations,
        digest: report_digest(&report),
    };
    (rep, report)
}

/// Generates `workload`'s scenario for `seed`, returning it with its
/// construction time.
pub fn generate(workload: Workload, seed: u64) -> (Scenario, f64) {
    let t0 = Instant::now();
    let scenario = workload.scenario(seed);
    (scenario, t0.elapsed().as_secs_f64())
}

/// One untraced repetition: nothing but the program runs.
pub fn untraced_rep(workload: Workload, seed: u64) -> Rep {
    let (scenario, generate_s) = generate(workload, seed);
    timed_run(&scenario, generate_s, workload.policy()).0
}

/// One traced repetition and what the layers did during its run.
#[derive(Debug, Clone)]
pub struct TracedRep {
    pub rep: Rep,
    pub policy: PolicyStats,
    /// `dvmp_obs` counter movement over the run.
    pub counters: CounterSnapshot,
    /// Phase histogram movement over the run.
    pub phases: Vec<PhaseHistogram>,
    /// Allocations and bytes requested over the run.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl TracedRep {
    /// Host time outside every policy call.
    pub fn residual_s(&self) -> f64 {
        self.rep.run_s - self.policy.policy_s()
    }

    fn phase_s(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .find(|p| p.phase == name)
            .map_or(0.0, |p| p.total_ns as f64 / 1e9)
    }
}

/// Runs `scenario` once with the policy wrapped in [`TimedPolicy`] and
/// the `dvmp_obs` counters and phase profiler switched on. Both switches
/// are process-wide and stay on, so untraced runs belong in another
/// process.
pub fn traced_run(
    scenario: &Scenario,
    generate_s: f64,
    policy: Box<dyn PlacementPolicy>,
) -> (TracedRep, RunReport) {
    dvmp_obs::set_enabled(true);
    dvmp_obs::set_profiling(true);
    let (timed, stats) = TimedPolicy::wrap(policy);
    let counters0 = dvmp_obs::counters_snapshot();
    let phases0 = dvmp_obs::phase_histograms();
    let (allocs0, bytes0) = alloc::allocated();
    let (rep, report) = timed_run(scenario, generate_s, Box::new(timed));
    let (allocs1, bytes1) = alloc::allocated();
    let phases = dvmp_obs::phase_histograms()
        .iter()
        .zip(&phases0)
        .map(|(now, then)| now.delta_from(then))
        .collect();
    let traced = TracedRep {
        rep,
        policy: stats.borrow().clone(),
        counters: dvmp_obs::counters_snapshot().delta_from(&counters0),
        phases,
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
    };
    (traced, report)
}

/// The checked-mode run: oracle violations, events audited and digest.
pub fn checked_run(workload: Workload, seed: u64) -> (u64, u64, String) {
    let mut scenario = workload.scenario(seed);
    scenario.sim.checked = true;
    let (report, _) = build(&scenario, workload.policy()).run_counting();
    let oracle = report
        .oracle
        .as_ref()
        .expect("checked runs attach an oracle summary");
    (
        oracle.total_violations(),
        oracle.events_audited,
        report_digest(&report),
    )
}

/// Process high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// Repetitions of each scenario per measuring process, whatever the time
/// budget.
pub const MIN_REPS: usize = 2;

/// Calls `rep(0)`, `rep(1)`, …, `rep(scenarios - 1)` round-robin until
/// `budget` has passed and every scenario has [`MIN_REPS`] repetitions;
/// returns each scenario's results in order. Interleaving spreads a slow
/// spell of the host over every scenario instead of one.
pub fn repeat<T>(
    budget: Duration,
    scenarios: usize,
    mut rep: impl FnMut(usize) -> T,
) -> Vec<Vec<T>> {
    let start = Instant::now();
    let mut out: Vec<Vec<T>> = (0..scenarios).map(|_| Vec::new()).collect();
    for i in (0..scenarios).cycle() {
        if out.iter().all(|r| r.len() >= MIN_REPS) && start.elapsed() >= budget {
            break;
        }
        out[i].push(rep(i));
    }
    out
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).expect("at least one repetition")
}

/// The fastest of `values`: the time the code takes when the shared host
/// lets it run at full speed. Slow spells of the host only ever add time,
/// so the minimum tracks the code and the median tracks the host.
fn best(values: impl IntoIterator<Item = f64>) -> f64 {
    values
        .into_iter()
        .min_by(f64::total_cmp)
        .expect("at least one repetition")
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Pooled `per_mille` percentile of `samples` in µs, or 0 when fewer
/// than ten samples lie beyond it.
fn pooled_us(samples: &mut [u64], per_mille: u64) -> f64 {
    samples.sort_unstable();
    percentile(samples, per_mille).map_or(0.0, |ns| ns as f64 / 1e3)
}

/// A number entry of an output object.
fn num(name: &str, value: f64) -> (String, Value) {
    (name.to_string(), Value::F64(value))
}

fn digests(reps: impl IntoIterator<Item = String>) -> Value {
    Value::Seq(reps.into_iter().map(Value::Str).collect())
}

fn samples(values: impl IntoIterator<Item = f64>) -> Value {
    Value::Seq(values.into_iter().map(Value::F64).collect())
}

/// End-to-end metrics of untraced repetitions of one or more scenarios,
/// given as `(seed, repetitions)`: each scenario's best run and set-up
/// times, averaged over the scenarios. `events_per_s` is every scenario's
/// events over the sum of their best run times.
pub fn end_to_end(scenarios: &[(u64, Vec<Rep>)], peak_rss_mb: f64) -> Value {
    let n = scenarios.len() as f64;
    let best_run = |reps: &[Rep]| best(reps.iter().map(|r| r.run_s));
    let best_setup = |reps: &[Rep]| best(reps.iter().map(Rep::setup_s));
    let run_s: f64 = scenarios.iter().map(|(_, reps)| best_run(reps)).sum();
    let setup_s: f64 = scenarios.iter().map(|(_, reps)| best_setup(reps)).sum();
    let events: u64 = scenarios.iter().map(|(_, reps)| reps[0].events).sum();
    let per_scenario = scenarios
        .iter()
        .map(|(seed, reps)| {
            Value::Map(vec![
                ("seed".into(), Value::U64(*seed)),
                (
                    "digests".into(),
                    digests(reps.iter().map(|r| r.digest.clone())),
                ),
                ("run_s".into(), samples(reps.iter().map(|r| r.run_s))),
                ("setup_s".into(), samples(reps.iter().map(Rep::setup_s))),
                ("best_run_s".into(), Value::F64(best_run(reps))),
            ])
        })
        .collect();
    Value::Map(vec![
        ("scenarios".into(), Value::Seq(per_scenario)),
        (
            "metrics".into(),
            Value::Map(vec![
                num("run_s", run_s / n),
                num("events_per_s", events as f64 / run_s),
                num("setup_s", setup_s / n),
                num("peak_rss_mb", peak_rss_mb),
            ]),
        ),
    ])
}

/// Per-layer metrics of traced repetitions: medians over `reps` for
/// per-run quantities, call-latency percentiles pooled over every call.
pub fn per_layer(reps: &[TracedRep]) -> Value {
    let first = &reps[0];
    let mut place: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.policy.place_ns.clone())
        .collect();
    let mut plan: Vec<u64> = reps.iter().flat_map(|r| r.policy.plan_ns.clone()).collect();
    let secs = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / 1e9;
    let c = &first.counters;
    let clean_drains = (c.journal_drains - c.journal_full_drains) as f64;
    let metrics = vec![
        num(
            "workload.generate_s",
            med(reps.iter().map(|r| r.rep.generate_s)),
        ),
        num("workload.requests", first.rep.requests as f64),
        num("workload.resizes", first.rep.resizes as f64),
        num("core.build_s", med(reps.iter().map(|r| r.rep.build_s))),
        num(
            "core.residual_s",
            med(reps.iter().map(TracedRep::residual_s)),
        ),
        num(
            "core.residual_us_per_event",
            med(reps
                .iter()
                .map(|r| r.residual_s() * 1e6 / r.rep.events as f64)),
        ),
        num(
            "core.plan_apply_s",
            med(reps.iter().map(|r| r.phase_s("plan-apply"))),
        ),
        num("simcore.events", first.rep.events as f64),
        num(
            "placement.share",
            med(reps.iter().map(|r| r.policy.policy_s() / r.rep.run_s)),
        ),
        num("placement.place_calls", first.policy.place_ns.len() as f64),
        num(
            "placement.place_s",
            med(reps.iter().map(|r| secs(&r.policy.place_ns))),
        ),
        num("placement.place_p50_us", pooled_us(&mut place, 500)),
        num("placement.place_p99_us", pooled_us(&mut place, 990)),
        num("placement.plan_calls", first.policy.plan_ns.len() as f64),
        num(
            "placement.plan_s",
            med(reps.iter().map(|r| secs(&r.policy.plan_ns))),
        ),
        num("placement.plan_p50_us", pooled_us(&mut plan, 500)),
        num("placement.plan_p99_us", pooled_us(&mut plan, 990)),
        num("placement.plan_p999_us", pooled_us(&mut plan, 999)),
        num(
            "placement.note_delta_s",
            med(reps.iter().map(|r| r.policy.note_delta_ns as f64 / 1e9)),
        ),
        num(
            "placement.productive_pass_ratio",
            ratio(
                first.policy.productive_passes as f64,
                first.policy.plan_ns.len() as f64,
            ),
        ),
        num(
            "placement.applied_move_ratio",
            ratio(
                first.rep.migrations as f64,
                first.policy.moves_proposed as f64,
            ),
        ),
        num(
            "placement.passes_dense",
            (c.plan_passes_delta + c.plan_passes_fresh) as f64,
        ),
        num(
            "placement.passes_compressed",
            c.plan_passes_compressed as f64,
        ),
        num(
            "placement.allocs_per_call",
            ratio(first.policy.allocs as f64, first.policy.calls() as f64),
        ),
        num(
            "cluster.dirty_pms_per_drain",
            ratio(c.journal_dirty_pms as f64, clean_drains),
        ),
        num(
            "cluster.dirty_vms_per_drain",
            ratio(c.journal_dirty_vms as f64, clean_drains),
        ),
        num("cluster.full_drains", c.journal_full_drains as f64),
        num(
            "forecast.spare_control_s",
            med(reps.iter().map(|r| r.phase_s("spare-control"))),
        ),
        num("forecast.decisions", c.spare_decisions as f64),
        num(
            "alloc.per_event",
            ratio(first.allocs as f64, first.rep.events as f64),
        ),
        num(
            "alloc.bytes_per_event",
            ratio(first.alloc_bytes as f64, first.rep.events as f64),
        ),
    ];
    Value::Map(vec![
        ("reps".into(), Value::U64(reps.len() as u64)),
        (
            "digests".into(),
            digests(reps.iter().map(|r| r.rep.digest.clone())),
        ),
        (
            "run_s".into(),
            Value::F64(med(reps.iter().map(|r| r.rep.run_s))),
        ),
        ("metrics".into(), Value::Map(metrics)),
    ])
}

/// Prints `value` as one JSON line on standard output.
pub fn emit(value: &Value) {
    println!(
        "{}",
        serde_json::to_string(value).expect("values serialize")
    );
}

/// Parses `<workload> <seed>` and an optional `<seconds>` from `args`.
pub fn parse_args(args: &[String]) -> Result<(Workload, u64, Duration), String> {
    let workload = args
        .first()
        .and_then(|w| Workload::from_name(w))
        .ok_or_else(|| format!("unknown or missing workload in {args:?}"))?;
    let seed = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("missing or bad seed in {args:?}"))?;
    let budget = match args.get(2) {
        Some(s) => s
            .parse::<f64>()
            .ok()
            .and_then(|s| Duration::try_from_secs_f64(s).ok())
            .ok_or_else(|| format!("bad seconds in {args:?}"))?,
        None => Duration::ZERO,
    };
    Ok((workload, seed, budget))
}
