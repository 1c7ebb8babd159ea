//! The CLI's commands, as functions from parsed arguments to output text.

use crate::spec::ScenarioSpec;
use dvmp::prelude::*;
use dvmp_metrics::report::render_summary;
use std::fmt::Write as _;

/// Parsed flags for the `run` command.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Emit the full [`RunReport`] as JSON instead of the text summary.
    pub json: bool,
    /// Audit every event with the invariant oracle (DESIGN.md §9).
    pub checked: bool,
    /// Arm the obs layer and append per-run counters + phase profile.
    pub obs_summary: bool,
    /// Write a chrome://tracing JSON of every timed span to this path.
    pub trace_out: Option<std::path::PathBuf>,
    /// Write an OpenMetrics snapshot of the obs state to this path after
    /// the run (implies arming the obs layer, like `obs_summary`).
    pub metrics_out: Option<std::path::PathBuf>,
}

/// `run <spec.json>` — run the spec's policy and summarize. With
/// `checked`, the release-grade invariant oracle audits every event and
/// the summary (or JSON report) carries its verdict; a violating run is
/// an error so scripts fail loudly. With `obs_summary`, the
/// flight-recorder layer (DESIGN.md §10) is armed and the output gains
/// per-run counters and the phase profile; `trace_out`
/// additionally captures every timed span and writes a chrome://tracing
/// JSON file (written even when a checked run fails, so CI can attach
/// the trace of the failing run as an artifact).
pub fn run(spec_text: &str, opts: &RunOptions) -> Result<String, String> {
    let spec = ScenarioSpec::from_json(spec_text)?;
    let mut scenario = spec.build()?;
    scenario.sim.checked = opts.checked;
    let obs_armed = opts.obs_summary || opts.metrics_out.is_some();
    scenario.sim.obs_summary = obs_armed;
    if obs_armed {
        dvmp_obs::set_profiling(true);
    }
    if opts.trace_out.is_some() {
        dvmp_obs::set_span_capture(true);
    }
    let policy = spec.policy.build(spec.seed)?;
    let started = std::time::Instant::now();
    let mut report = scenario.simulation(policy)?.run();
    // Wall clock lives here, not in the library `execute()`: two
    // same-seed library runs must keep serializing identically.
    if let Some(meta) = &mut report.meta {
        meta.wall_seconds = started.elapsed().as_secs_f64();
    }

    // Dump the trace before the oracle verdict: a violating checked run
    // is exactly when the span timeline is most wanted.
    let mut obs_trailer = String::new();
    if let Some(path) = &opts.trace_out {
        let spans = write_atomic(path, &dvmp_obs::chrome_trace_json())?;
        let _ = writeln!(
            obs_trailer,
            "trace: {spans} bytes of chrome://tracing JSON -> {}",
            path.display()
        );
    }
    if let Some(path) = &opts.metrics_out {
        let bytes = write_atomic(path, &dvmp_obs::scrape_global())?;
        let _ = writeln!(
            obs_trailer,
            "metrics: {bytes} bytes of OpenMetrics text -> {}",
            path.display()
        );
    }
    if let Some(obs) = &report.obs {
        let _ = write!(obs_trailer, "{}", obs.totals.render());
        let _ = write!(obs_trailer, "{}", dvmp_obs::profile_report().render());
    }

    if let Some(oracle) = &report.oracle {
        if !oracle.is_clean() {
            return Err(format!("invariant violations:\n{}", oracle.render()));
        }
    }
    if opts.json {
        serde_json::to_string_pretty(&report).map_err(|e| e.to_string())
    } else {
        let mut out = render_summary(&[&report]);
        if let Some(oracle) = &report.oracle {
            let _ = write!(out, "\n{}", oracle.render());
        }
        if !obs_trailer.is_empty() {
            let _ = write!(out, "\n{obs_trailer}");
        }
        Ok(out)
    }
}

/// Write `text` to `path` via a sibling temp file + rename, so a crash
/// mid-write never leaves a truncated file behind.
fn write_atomic(path: &std::path::Path, text: &str) -> Result<usize, String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot rename to {}: {e}", path.display()))?;
    Ok(text.len())
}

/// `compare <spec.json>` — run the paper trio on the spec's scenario.
pub fn compare(spec_text: &str, json_output: bool) -> Result<String, String> {
    let spec = ScenarioSpec::from_json(spec_text)?;
    let scenario = spec.build()?;
    let reports = compare_policies(&scenario, &PolicyFactory::paper_trio());
    if json_output {
        serde_json::to_string_pretty(&reports).map_err(|e| e.to_string())
    } else {
        let refs: Vec<&RunReport> = reports.iter().collect();
        Ok(render_summary(&refs))
    }
}

/// Per-metric relative-change thresholds for RunReport diffs:
/// `|(b − a) / a|` beyond the threshold flags the metric. Tolerances are
/// loose where the quantity is workload-noisy (migration counts, queue
/// waits) and tight where it is the headline result (energy, power).
const RUN_REPORT_THRESHOLDS: &[(&str, f64)] = &[
    ("total_energy_kwh", 0.10),
    ("mean_power_kw", 0.10),
    ("peak_active_servers", 0.10),
    ("served_core_hours", 0.10),
    ("total_migrations", 0.25),
    ("skipped_migrations", 0.50),
    ("sla_violation_seconds", 0.25),
    ("qos.waited_fraction", 0.25),
    ("qos.mean_wait_secs", 0.50),
];

/// One diffed metric in a `compare <a> <b>` run.
#[derive(Debug, Clone, serde::Serialize)]
struct MetricDiff {
    metric: String,
    a: f64,
    b: f64,
    /// `(b − a) / a`; infinite when the metric appeared from zero.
    rel_change: f64,
    threshold: f64,
    flagged: bool,
}

/// The numeric content of a JSON value, across the integer/float variants.
fn value_as_f64(v: &serde::Value) -> Option<f64> {
    match *v {
        serde::Value::U64(n) => Some(n as f64),
        serde::Value::I64(n) => Some(n as f64),
        serde::Value::F64(f) => Some(f),
        _ => None,
    }
}

/// Numeric leaf at a dotted path in a JSON document.
fn json_number(v: &serde::Value, path: &str) -> Option<f64> {
    let mut cur = v;
    for seg in path.split('.') {
        cur = cur.get(seg)?;
    }
    value_as_f64(cur)
}

/// Every numeric leaf of a JSON document as (dotted path, value), arrays
/// skipped (series diffs would swamp the table with per-hour noise).
fn numeric_leaves(v: &serde::Value, prefix: &str, out: &mut Vec<(String, f64)>) {
    if let Some(entries) = v.as_map() {
        for (k, child) in entries {
            let path = if prefix.is_empty() {
                k.clone()
            } else {
                format!("{prefix}.{k}")
            };
            numeric_leaves(child, &path, out);
        }
    } else if let Some(f) = value_as_f64(v) {
        out.push((prefix.to_string(), f));
    }
}

fn rel_change(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a) / a.abs()
    }
}

/// `compare <a.json> <b.json>` — diff two previously written reports.
///
/// Two RunReports (`dvmp-cli run --json` output) are diffed over the
/// curated metric table with per-metric relative-change thresholds; any
/// metric beyond its threshold flags the comparison and the command exits
/// nonzero (the table rides along in the error). Identical inputs always
/// pass. Any other pair of JSON documents (perf reports, obs-overhead
/// reports) is diffed generically over shared numeric leaves — sorted by
/// relative change, informational only, except that a boolean health gate
/// flipping `true → false` between `a` and `b` flags the comparison.
pub fn compare_reports(a_text: &str, b_text: &str, json_output: bool) -> Result<String, String> {
    let a = serde_json::parse_str(a_text).map_err(|e| format!("first report: {e}"))?;
    let b = serde_json::parse_str(b_text).map_err(|e| format!("second report: {e}"))?;
    let run_reports = a.get("total_energy_kwh").is_some() && b.get("total_energy_kwh").is_some();

    let mut diffs: Vec<MetricDiff> = Vec::new();
    if run_reports {
        for &(metric, threshold) in RUN_REPORT_THRESHOLDS {
            let (Some(va), Some(vb)) = (json_number(&a, metric), json_number(&b, metric)) else {
                continue;
            };
            let rel = rel_change(va, vb);
            diffs.push(MetricDiff {
                metric: metric.to_string(),
                a: va,
                b: vb,
                rel_change: rel,
                threshold,
                flagged: rel.abs() > threshold,
            });
        }
    } else {
        let mut la = Vec::new();
        let mut lb = Vec::new();
        numeric_leaves(&a, "", &mut la);
        numeric_leaves(&b, "", &mut lb);
        let bmap: std::collections::BTreeMap<&str, f64> =
            lb.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        for (k, va) in &la {
            if let Some(&vb) = bmap.get(k.as_str()) {
                let rel = rel_change(*va, vb);
                if rel != 0.0 {
                    diffs.push(MetricDiff {
                        metric: k.clone(),
                        a: *va,
                        b: vb,
                        rel_change: rel,
                        threshold: f64::INFINITY,
                        flagged: false,
                    });
                }
            }
        }
        diffs.sort_by(|x, y| {
            y.rel_change
                .abs()
                .total_cmp(&x.rel_change.abs())
                .then_with(|| x.metric.cmp(&y.metric))
        });
        diffs.truncate(25);
        // Boolean health gates regressing is a failure even in generic mode.
        let mut gates = Vec::new();
        collect_gate_regressions(&a, &b, "", &mut gates);
        for gate in gates {
            diffs.insert(
                0,
                MetricDiff {
                    metric: gate,
                    a: 1.0,
                    b: 0.0,
                    rel_change: -1.0,
                    threshold: 0.0,
                    flagged: true,
                },
            );
        }
    }

    let flagged: Vec<&MetricDiff> = diffs.iter().filter(|d| d.flagged).collect();
    let body = if json_output {
        serde_json::to_string_pretty(&diffs).map_err(|e| e.to_string())?
    } else {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>14} {:>14} {:>9}  verdict",
            "metric", "a", "b", "change"
        );
        for d in &diffs {
            let change = if d.rel_change.is_infinite() {
                "new".to_string()
            } else {
                format!("{:+.1}%", d.rel_change * 100.0)
            };
            let verdict = if d.flagged {
                "FLAGGED"
            } else if d.threshold.is_finite() {
                "ok"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:<28} {:>14.4} {:>14.4} {:>9}  {}",
                d.metric, d.a, d.b, change, verdict
            );
        }
        if diffs.is_empty() {
            out.push_str("no shared numeric metrics differ\n");
        }
        out
    };
    if flagged.is_empty() {
        Ok(body)
    } else {
        Err(format!(
            "{body}\n{} metric(s) changed beyond threshold",
            flagged.len()
        ))
    }
}

/// Boolean leaves that flipped `true → false` between `a` and `b` —
/// health gates regressing (e.g. perf_report's `healthy`, `*_identical`).
fn collect_gate_regressions(
    a: &serde::Value,
    b: &serde::Value,
    prefix: &str,
    out: &mut Vec<String>,
) {
    let Some(entries) = a.as_map() else { return };
    for (k, va) in entries {
        let path = if prefix.is_empty() {
            k.clone()
        } else {
            format!("{prefix}.{k}")
        };
        match (va, b.get(k)) {
            (serde::Value::Bool(true), Some(serde::Value::Bool(false))) => out.push(path),
            (serde::Value::Map(_), Some(vb)) => collect_gate_regressions(va, vb, &path, out),
            _ => {}
        }
    }
}

/// `sweep <spec.json> [--seeds N]` — regenerate the spec's scenario under
/// `N` seeds (master seed, then +1000 per step, matching the bench
/// sweep's convention) and run its policy on each, one seed at a time, so
/// the merged mean ± std summary is reproducible. A seed past `u64::MAX`
/// is an error. `--json` emits the per-seed reports plus the merged
/// summary as one document.
pub fn sweep(spec_text: &str, seeds: usize, json_output: bool) -> Result<String, String> {
    use dvmp_simcore::stats::OnlineStats;
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let base = ScenarioSpec::from_json(spec_text)?;
    base.policy.build(base.seed)?; // validate the policy spec up front
    let run_seeds = (0..seeds as u64)
        .map(|i| {
            i.checked_mul(1_000)
                .and_then(|step| base.seed.checked_add(step))
                .ok_or_else(|| {
                    format!(
                        "seed {} + {i} × 1000 overflows u64; lower the seed or --seeds",
                        base.seed
                    )
                })
        })
        .collect::<Result<Vec<u64>, String>>()?;
    let mut reports: Vec<RunReport> = Vec::with_capacity(seeds);
    for &seed in &run_seeds {
        let mut spec = base.clone();
        spec.seed = seed;
        reports.push(
            spec.build()?
                .simulation(base.policy.build(base.seed)?)?
                .run(),
        );
    }

    let mut energy = OnlineStats::new();
    let mut waited = OnlineStats::new();
    let mut power = OnlineStats::new();
    for r in &reports {
        energy.push(r.total_energy_kwh);
        waited.push(r.qos.waited_fraction * 100.0);
        power.push(r.mean_power_kw);
    }

    if json_output {
        #[derive(serde::Serialize)]
        struct Merged {
            scenarios: usize,
            energy_kwh_mean: f64,
            energy_kwh_std: f64,
            waited_percent_mean: f64,
            waited_percent_std: f64,
            mean_power_kw_mean: f64,
            mean_power_kw_std: f64,
        }
        #[derive(serde::Serialize)]
        struct SweepOutput {
            policy: String,
            merged: Merged,
            reports: Vec<RunReport>,
        }
        let out = SweepOutput {
            policy: base.policy.kind.clone(),
            merged: Merged {
                scenarios: reports.len(),
                energy_kwh_mean: energy.mean(),
                energy_kwh_std: energy.std_dev(),
                waited_percent_mean: waited.mean(),
                waited_percent_std: waited.std_dev(),
                mean_power_kw_mean: power.mean(),
                mean_power_kw_std: power.std_dev(),
            },
            reports,
        };
        return serde_json::to_string_pretty(&out).map_err(|e| e.to_string());
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} × {} seed(s), policy {}",
        base.name,
        reports.len(),
        base.policy.kind
    );
    let _ = writeln!(
        out,
        "{:>10} {:>14} {:>12} {:>12}",
        "seed", "energy kWh", "waited %", "mean kW"
    );
    for (seed, r) in run_seeds.iter().zip(&reports) {
        let _ = writeln!(
            out,
            "{:>10} {:>14.1} {:>11.2}% {:>12.1}",
            seed,
            r.total_energy_kwh,
            r.qos.waited_fraction * 100.0,
            r.mean_power_kw
        );
    }
    let _ = writeln!(
        out,
        "\nenergy: {:.1} ± {:.1} kWh, waited: {:.2} ± {:.2} %, power: {:.1} ± {:.1} kW (mean ± std)",
        energy.mean(),
        energy.std_dev(),
        waited.mean(),
        waited.std_dev(),
        power.mean(),
        power.std_dev()
    );
    Ok(out)
}

/// `workload <profile> [seed]` — characterise a synthetic profile
/// (Fig. 2's numbers).
pub fn workload(profile: &str, seed: u64) -> Result<String, String> {
    let p = LpcProfile::by_name(profile).ok_or_else(|| format!("unknown profile {profile:?}"))?;
    let days = p.days();
    let trace = SyntheticGenerator::new(p, seed).generate();
    let stats = WorkloadStats::from_trace(&trace, days);
    let mut out = String::new();
    let _ = writeln!(out, "profile: {profile} (seed {seed})");
    let _ = writeln!(out, "jobs: {}", stats.total_jobs);
    if let Some((d, c)) = stats.peak_day() {
        let _ = writeln!(out, "peak: day {d} with {c} arrivals");
    }
    let _ = writeln!(
        out,
        "under one day: {} ({:.1}%)",
        stats.jobs_under_one_day,
        100.0 * stats.jobs_under_one_day as f64 / stats.total_jobs.max(1) as f64
    );
    let _ = writeln!(
        out,
        "memory < 1 GiB: {:.1}%",
        stats.fraction_memory_below_1gib() * 100.0
    );
    let _ = writeln!(
        out,
        "mean offered concurrency: {:.0} VM slots",
        stats.mean_offered_concurrency(days as f64 * 86_400.0)
    );
    Ok(out)
}

/// `export-swf <profile> <seed>` — render a synthetic trace as SWF text.
pub fn export_swf(profile: &str, seed: u64) -> Result<String, String> {
    let p = LpcProfile::by_name(profile).ok_or_else(|| format!("unknown profile {profile:?}"))?;
    let trace = SyntheticGenerator::new(p, seed).generate();
    Ok(dvmp_workload::swf::to_swf_string(
        trace.jobs(),
        &format!("dvmp synthetic workload: profile {profile}, seed {seed}"),
    ))
}

/// The most positional arguments each command takes, itself included,
/// and its `--` flags, each with whether it takes a value. `help` ignores
/// what follows it, and an unknown command is reported by name.
fn command_shape(command: &str) -> (usize, &'static [(&'static str, bool)]) {
    match command {
        "run" => (
            2,
            &[
                ("--json", false),
                ("--checked", false),
                ("--obs-summary", false),
                ("--trace-out", true),
                ("--metrics-out", true),
            ],
        ),
        "compare" => (3, &[("--json", false)]),
        "sweep" => (2, &[("--seeds", true), ("--json", false)]),
        "workload" | "export-swf" => (3, &[]),
        _ => (usize::MAX, &[]),
    }
}

/// A `dvmp-cli` command line, parsed once by [`parse_args`].
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// The positional arguments, the command first.
    pub positional: Vec<String>,
    /// The `--` flags in order, each with its value if it takes one.
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value given to the value-taking `flag`, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }
}

/// Splits `args` into positional arguments and `--` flags with their
/// values, wherever the flags stand. Rejects every flag the command (the
/// first positional argument) does not take, so a typo or a retired flag
/// fails loudly instead of silently running without it, a value-taking
/// flag whose value is missing or is itself a `--` flag, and a positional
/// argument past the ones the command takes.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let value_flag = |a: &str| {
        ["run", "compare", "sweep"]
            .iter()
            .any(|c| command_shape(c).1.contains(&(a, true)))
    };
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            parsed.positional.push(a.clone());
            continue;
        }
        let value = if value_flag(a) {
            match it.next() {
                Some(v) if !v.starts_with("--") => Some(v.clone()),
                next => {
                    let got = next.map_or("nothing".into(), |v| format!("the flag {v}"));
                    return Err(format!("{a} takes a value, got {got}\n\n{}", help()));
                }
            }
        } else {
            None
        };
        parsed.flags.push((a.clone(), value));
    }
    let command = parsed.positional.first().map_or("help", String::as_str);
    let (max_positionals, known) = command_shape(command);
    let unknown_flag = parsed
        .flags
        .iter()
        .map(|(f, _)| f)
        .find(|f| !known.iter().any(|(k, _)| k == f));
    match unknown_flag.or(parsed.positional.get(max_positionals)) {
        Some(arg) => Err(format!("`{command}` does not take {arg}\n\n{}", help())),
        None => Ok(parsed),
    }
}

/// The `help` text.
pub fn help() -> String {
    "\
dvmp-cli — dynamic VM placement experiments (ICPP 2014 reproduction)

USAGE:
  dvmp-cli run <spec.json> [--json] [--checked] [--obs-summary]
                           [--trace-out <file>] [--metrics-out <file>]
                                         run the spec's policy, print summary;
                                         --checked audits every event with the
                                         invariant oracle (DESIGN.md §9);
                                         --obs-summary arms the flight-recorder
                                         layer and appends per-run counters and
                                         the phase profile (DESIGN.md §10);
                                         --trace-out writes every timed span as
                                         chrome://tracing JSON to <file>
                                         (open via chrome://tracing or
                                         https://ui.perfetto.dev);
                                         --metrics-out writes an OpenMetrics
                                         (Prometheus text) snapshot of the obs
                                         counters and phase histograms to
                                         <file> after the run (implies
                                         --obs-summary arming)
  dvmp-cli compare <spec.json> [--json]  run dynamic/first-fit/best-fit
  dvmp-cli compare <a.json> <b.json> [--json]
                                         diff two report files: RunReports over
                                         a curated per-metric threshold table
                                         (exit 1 when a metric moves beyond its
                                         threshold), any other JSON reports
                                         over shared numeric leaves
  dvmp-cli sweep <spec.json> [--seeds N] [--json]
                                         re-run the spec's policy under N
                                         seeds, one at a time (default 5), and
                                         merge the reports (mean ± std)
  dvmp-cli workload <profile> [seed]     characterise a synthetic profile
  dvmp-cli export-swf <profile> [seed]   print a synthetic trace as SWF
  dvmp-cli help                          this text

PROFILES: paper_calibrated | paper_strict | light | hpc_mixed
SPEC: see crates/cli/src/spec.rs for the JSON schema
A flag or an extra argument the command does not take, or a flag value
that is missing or is itself a flag, is a usage error (exit status 2).
"
    .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "name": "cli-test",
        "workload": { "profile": "light", "days": 1 },
        "policy": { "kind": "first-fit" },
        "seed": 42
    }"#;

    fn opts(json: bool, checked: bool) -> RunOptions {
        RunOptions {
            json,
            checked,
            ..RunOptions::default()
        }
    }

    #[test]
    fn run_produces_summary() {
        let out = run(SPEC, &opts(false, false)).unwrap();
        assert!(out.contains("first-fit"), "{out}");
        assert!(out.contains("energy"), "{out}");
    }

    #[test]
    fn run_json_is_parseable() {
        let out = run(SPEC, &opts(true, false)).unwrap();
        let report: dvmp_metrics::RunReport = serde_json::from_str(&out).unwrap();
        assert_eq!(report.policy, "first-fit");
        assert!(report.total_energy_kwh > 0.0);
        assert!(report.oracle.is_none(), "unchecked runs carry no oracle");
    }

    #[test]
    fn checked_run_reports_a_clean_oracle() {
        let out = run(SPEC, &opts(false, true)).unwrap();
        assert!(out.contains("oracle"), "{out}");

        let json = run(SPEC, &opts(true, true)).unwrap();
        let report: dvmp_metrics::RunReport = serde_json::from_str(&json).unwrap();
        let oracle = report.oracle.expect("checked run attaches a summary");
        assert!(oracle.is_clean(), "{}", oracle.render());
        assert!(oracle.events_audited > 0);
    }

    /// Replaces the leaf at a dotted path in a parsed JSON tree.
    fn set_field(v: &mut serde::Value, path: &[&str], new: serde::Value) {
        let mut cur = v;
        for seg in path {
            let serde::Value::Map(entries) = cur else {
                panic!("path segment {seg} not in an object");
            };
            cur = &mut entries
                .iter_mut()
                .find(|(k, _)| k == seg)
                .unwrap_or_else(|| panic!("missing field {seg}"))
                .1;
        }
        *cur = new;
    }

    #[test]
    fn obs_summary_appends_counters_and_profile() {
        let run_opts = RunOptions {
            obs_summary: true,
            ..RunOptions::default()
        };
        let out = run(SPEC, &run_opts).unwrap();
        assert!(out.contains("obs counters:"), "{out}");
        assert!(out.contains("events_dispatched"), "{out}");
        assert!(out.contains("phase profile:"), "{out}");

        let json = run(
            SPEC,
            &RunOptions {
                json: true,
                obs_summary: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let report: dvmp_metrics::RunReport = serde_json::from_str(&json).unwrap();
        let obs = report.obs.expect("--obs-summary attaches an ObsReport");
        assert!(obs.totals.events_dispatched > 0, "{obs:?}");
    }

    #[test]
    fn trace_out_writes_chrome_trace_atomically() {
        let dir = std::env::temp_dir().join("dvmp-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let run_opts = RunOptions {
            obs_summary: true,
            trace_out: Some(path.clone()),
            ..RunOptions::default()
        };
        let out = run(SPEC, &run_opts).unwrap();
        assert!(out.contains("chrome://tracing"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{'), "{text}");
        assert!(text.contains("\"traceEvents\""), "{text}");
        assert!(
            !dir.join("trace.tmp").exists(),
            "temp file must be renamed away"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_json_carries_meta_and_timeseries() {
        let json = run(
            SPEC,
            &RunOptions {
                json: true,
                obs_summary: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let report: dvmp_metrics::RunReport = serde_json::from_str(&json).unwrap();
        let meta = report.meta.expect("every run report carries meta");
        assert_eq!(meta.seed, 42);
        assert_eq!(meta.schema, dvmp_metrics::RUN_REPORT_SCHEMA);
        assert!(meta.host_threads >= 1);
        assert!(!meta.git_sha.is_empty());
        assert!(meta.wall_seconds > 0.0, "CLI fills the wall clock");
        let ts = report
            .timeseries
            .expect("--obs-summary samples the telemetry store");
        assert!(ts.samples_seen > 0, "{ts:?}");
        assert_eq!(ts.tiers.len(), 3);
        // The satellite channels ride along: SLA series and utilization.
        for needle in ["sla_violation_s", "util_cpu"] {
            assert!(
                ts.channels.iter().any(|c| c == needle),
                "missing channel {needle}: {:?}",
                ts.channels
            );
        }
        assert!(ts.last_value("powered_pms").is_some());
    }

    #[test]
    fn metrics_out_writes_lintable_openmetrics() {
        let dir = std::env::temp_dir().join("dvmp-cli-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.txt");
        let run_opts = RunOptions {
            metrics_out: Some(path.clone()),
            ..RunOptions::default()
        };
        let out = run(SPEC, &run_opts).unwrap();
        assert!(out.contains("OpenMetrics"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with("# EOF\n"), "{text}");
        dvmp_obs::lint_openmetrics(&text).expect("snapshot passes the format lint");
        assert!(text.contains("dvmp_events_dispatched_total"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compare_reports_self_comparison_passes() {
        let a = run(SPEC, &opts(true, false)).unwrap();
        let out = compare_reports(&a, &a, false).expect("identical reports pass");
        assert!(out.contains("total_energy_kwh"), "{out}");
        assert!(!out.contains("FLAGGED"), "{out}");
    }

    #[test]
    fn compare_reports_flags_injected_regression() {
        let a = run(SPEC, &opts(true, false)).unwrap();
        let mut v = serde_json::parse_str(&a).unwrap();
        let kwh = value_as_f64(v.get("total_energy_kwh").unwrap()).unwrap();
        set_field(&mut v, &["total_energy_kwh"], serde::Value::F64(kwh * 1.2));
        let b = serde_json::to_string(&v).unwrap();
        let err = compare_reports(&a, &b, false).expect_err("20% energy jump must flag");
        assert!(err.contains("FLAGGED"), "{err}");
        assert!(err.contains("total_energy_kwh"), "{err}");
        assert!(err.contains("+20.0%"), "{err}");
    }

    #[test]
    fn compare_reports_generic_mode_diffs_leaves_and_gates() {
        let a = r#"{"schema":"x","healthy":true,"timing":{"ns":100.0}}"#;
        let b = r#"{"schema":"x","healthy":true,"timing":{"ns":250.0}}"#;
        let out = compare_reports(a, b, false).expect("timing drift is informational");
        assert!(out.contains("timing.ns"), "{out}");
        let c = r#"{"schema":"x","healthy":false,"timing":{"ns":100.0}}"#;
        let err = compare_reports(a, c, false).expect_err("gate flip must flag");
        assert!(err.contains("healthy"), "{err}");
    }

    #[test]
    fn compare_runs_the_trio() {
        let out = compare(SPEC, false).unwrap();
        for name in ["dynamic", "first-fit", "best-fit"] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn sweep_merges_seeds() {
        let out = sweep(SPEC, 2, false).unwrap();
        assert!(out.contains("2 seed(s)"), "{out}");
        assert!(out.contains("mean ± std"), "{out}");
        // Both per-seed rows appear, under the +1000 convention.
        assert!(out.contains("42") && out.contains("1042"), "{out}");
        assert!(sweep(SPEC, 0, false).is_err());
    }

    #[test]
    fn sweep_rejects_seeds_past_u64_max() {
        let spec = SPEC.replace("\"seed\": 42", "\"seed\": 18446744073709551615");
        // One seed is the master seed itself and still runs.
        assert!(sweep(&spec, 1, false).is_ok());
        let err = sweep(&spec, 2, false).expect_err("second seed overflows");
        assert!(err.contains("18446744073709551615"), "{err}");
    }

    #[test]
    fn sweep_json_carries_reports_and_merged_stats() {
        let out = sweep(SPEC, 2, true).unwrap();
        assert!(out.contains("\"policy\": \"first-fit\""), "{out}");
        assert!(out.contains("\"scenarios\": 2"), "{out}");
        assert!(out.contains("\"energy_kwh_mean\""), "{out}");
        // Both per-seed reports ride along with the merged block.
        assert_eq!(out.matches("\"total_energy_kwh\"").count(), 2, "{out}");
    }

    #[test]
    fn workload_reports_stats() {
        let out = workload("light", 42).unwrap();
        assert!(out.contains("jobs:"));
        assert!(workload("nope", 42).is_err());
    }

    #[test]
    fn export_swf_parses_back() {
        let text = export_swf("light", 42).unwrap();
        let jobs = dvmp_workload::swf::parse_swf(&text).unwrap();
        assert!(!jobs.is_empty());
    }

    #[test]
    fn bad_spec_errors_cleanly() {
        assert!(run("{", &RunOptions::default()).is_err());
        assert!(compare("not json", true).is_err());
    }

    /// One PM class with more minimum-size VM slots than the dynamic
    /// scheme indexes: invalid input, reported as an error by both the
    /// single run and the sweep instead of a panic.
    #[test]
    fn oversized_class_errors_instead_of_panicking() {
        let spec = r#"{
            "name": "oversized",
            "fleet": [
                { "preset": "custom", "count": 1, "name": "huge",
                  "cores": 100000, "memory_mib": 25600000,
                  "active_w": 300.0, "idle_w": 150.0 }
            ],
            "workload": { "profile": "light", "days": 1 },
            "policy": { "kind": "dynamic" },
            "seed": 42
        }"#;
        let err = run(spec, &RunOptions::default()).unwrap_err();
        assert!(err.contains("more than 65534 minimum VMs"), "{err}");
        let err = sweep(spec, 2, false).unwrap_err();
        assert!(err.contains("more than 65534 minimum VMs"), "{err}");
    }

    #[test]
    fn help_mentions_every_command() {
        let h = help();
        for cmd in [
            "run",
            "compare",
            "sweep",
            "workload",
            "export-swf",
            "--checked",
            "--obs-summary",
            "--trace-out",
            "--metrics-out",
            "compare <a.json> <b.json>",
        ] {
            assert!(h.contains(cmd));
        }
    }

    fn argv(s: &str) -> Vec<String> {
        s.split(' ').map(String::from).collect()
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        // A typo and a retired flag both fail, naming the flag.
        for bad in ["--chekced", "--full-replan"] {
            let err = parse_args(&argv(&format!("run spec.json {bad}"))).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
        // A flag of another command is no flag of this one.
        assert!(parse_args(&argv("compare spec.json --seeds 3")).is_err());
        assert!(parse_args(&argv("workload light 42 --json")).is_err());
        // Known flags pass, and a flag's value is never read as a flag.
        for ok in [
            "run spec.json --json --checked --obs-summary",
            "run spec.json --trace-out t.json --metrics-out m.prom",
            "--trace-out t.json run spec.json",
            "compare a.json b.json --json",
            "sweep spec.json --seeds 3 --json",
            "workload light 42",
            "help",
        ] {
            assert!(parse_args(&argv(ok)).is_ok(), "{ok}");
        }
        assert_eq!(parse_args(&[]), Ok(Args::default()));
    }

    #[test]
    fn surplus_positionals_are_usage_errors() {
        for bad in [
            "run spec.json nonsense.json",
            "compare a.json b.json c.json",
            "sweep spec.json --seeds 2 other.json",
            "workload light 42 7",
            "export-swf light 42 7",
        ] {
            let err = parse_args(&argv(bad)).unwrap_err();
            let extra = bad.rsplit(' ').next().unwrap();
            assert!(
                err.contains(&format!("does not take {extra}")),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn flag_values_are_never_positional() {
        let args = parse_args(&argv("sweep --seeds 2 spec.json")).unwrap();
        assert_eq!(args.positional, ["sweep", "spec.json"]);
        assert_eq!(args.value("--seeds"), Some("2"));
        let args = parse_args(&argv("--trace-out t.json run spec.json --json")).unwrap();
        assert_eq!(args.positional, ["run", "spec.json"]);
        assert_eq!(args.value("--trace-out"), Some("t.json"));
        assert!(args.has("--json") && !args.has("--checked"));
        assert_eq!(args.value("--metrics-out"), None);
    }

    #[test]
    fn a_flag_value_must_be_present_and_not_a_flag() {
        for bad in [
            "run spec.json --trace-out --json",
            "run spec.json --metrics-out",
            "sweep spec.json --seeds --json",
        ] {
            let err = parse_args(&argv(bad)).unwrap_err();
            assert!(err.contains("takes a value"), "{bad}: {err}");
        }
    }
}
