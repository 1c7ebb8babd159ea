//! Golden-trace harness: committed per-hour digests of the paper scenarios.
//!
//! Every run of the simulator is deterministic (seeded RNG streams,
//! vendored dependencies, integer resource math), so a scenario's hourly
//! fleet/energy series and QoS summary can be frozen into a compact JSON
//! digest under `tests/golden/` and compared exactly on every CI run. Any
//! behavioral drift — an RNG change, a policy tweak, a refactor that
//! reorders events — shows up as a digest mismatch naming the scenario,
//! instead of silently shifting the paper tables (EXPERIMENTS.md records
//! exactly such an incident).
//!
//! ## Updating the goldens
//!
//! When a change *intentionally* alters behavior, regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release --test golden_trace -- --include-ignored
//! ```
//!
//! and commit the rewritten files together with the change that explains
//! them. The full-scale scenario tests are `#[ignore]`d in debug builds
//! (a checked week at debug opt levels is too slow for tier-1); CI runs
//! them in release with `--include-ignored`, which also exercises the
//! checked-mode oracle on the exact builds the paper numbers come from.
//!
//! Floats are stored as scaled integers (micro-kWh, milli-servers) so the
//! JSON is byte-stable and diffs are readable.

use dvmp::prelude::*;
use dvmp_cluster::Fnv64;
use dvmp_workload::LpcProfile;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// One scenario's frozen observable behavior.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct GoldenTrace {
    schema: String,
    scenario: String,
    seed: u64,
    policy: String,
    days: u64,
    total_arrivals: u64,
    total_departures: u64,
    total_migrations: u64,
    skipped_migrations: u64,
    waited_requests: u64,
    /// Overall queue-wait fraction, in millionths.
    waited_fraction_micro: u64,
    /// Total energy, in micro-kWh.
    total_energy_micro_kwh: u64,
    /// Per-hour mean powered servers, in thousandths.
    hourly_fleet_milli: Vec<u64>,
    /// Per-hour energy, in micro-kWh.
    hourly_energy_micro_kwh: Vec<u64>,
    /// Applied vertical resizes (0 for static workloads).
    total_resizes: u64,
    /// Resizes dropped because the VM was gone or already departed.
    rejected_resizes: u64,
    /// Overbooking SLA meter: PM-seconds spent physically saturated, in
    /// milliseconds (0 without overbooking).
    sla_violation_milli_seconds: u64,
    /// Peak simultaneously saturated PMs, in thousandths.
    peak_saturated_pms_milli: u64,
    /// FNV-1a of every field above, as a cross-check that a hand-edited
    /// golden file is rejected.
    digest: String,
}

const SCHEMA: &str = "dvmp/golden-trace/v2";

fn micro(x: f64) -> u64 {
    (x * 1e6).round() as u64
}

fn milli(x: f64) -> u64 {
    (x * 1e3).round() as u64
}

impl GoldenTrace {
    fn from_report(scenario: &str, seed: u64, days: u64, report: &RunReport) -> Self {
        let mut g = GoldenTrace {
            schema: SCHEMA.to_owned(),
            scenario: scenario.to_owned(),
            seed,
            policy: report.policy.clone(),
            days,
            total_arrivals: report.total_arrivals,
            total_departures: report.total_departures,
            total_migrations: report.total_migrations,
            skipped_migrations: report.skipped_migrations,
            waited_requests: report.qos.waited_requests,
            waited_fraction_micro: micro(report.qos.waited_fraction),
            total_energy_micro_kwh: micro(report.total_energy_kwh),
            hourly_fleet_milli: report
                .hourly_active_servers
                .iter()
                .map(|&x| milli(x))
                .collect(),
            hourly_energy_micro_kwh: report.hourly_power_kwh.iter().map(|&x| micro(x)).collect(),
            total_resizes: report.total_resizes,
            rejected_resizes: report.rejected_resizes,
            sla_violation_milli_seconds: milli(report.sla_violation_seconds),
            peak_saturated_pms_milli: milli(report.peak_saturated_pms),
            digest: String::new(),
        };
        g.digest = g.compute_digest();
        g
    }

    fn compute_digest(&self) -> String {
        let mut h = Fnv64::new();
        h.write(self.schema.as_bytes());
        h.write(self.scenario.as_bytes());
        h.write(self.policy.as_bytes());
        for v in [
            self.seed,
            self.days,
            self.total_arrivals,
            self.total_departures,
            self.total_migrations,
            self.skipped_migrations,
            self.waited_requests,
            self.waited_fraction_micro,
            self.total_energy_micro_kwh,
            self.total_resizes,
            self.rejected_resizes,
            self.sla_violation_milli_seconds,
            self.peak_saturated_pms_milli,
        ] {
            h.write_u64(v);
        }
        for &v in self.hourly_fleet_milli.iter() {
            h.write_u64(v);
        }
        for &v in self.hourly_energy_micro_kwh.iter() {
            h.write_u64(v);
        }
        format!("{:016x}", h.finish())
    }
}

fn golden_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core; goldens live at the repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn golden_path(name: &str) -> PathBuf {
    golden_dir().join(format!("{name}.json"))
}

fn update_mode() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1")
}

/// Runs `scenario` checked, asserts the oracle came back clean, and
/// compares (or rewrites) the committed golden.
fn check_scenario(name: &str, mut scenario: Scenario) {
    scenario.sim.checked = true;
    let seed = scenario.sim.seed;
    let days = scenario.days();
    let report = scenario.run(Box::new(DynamicPlacement::paper_default()));

    let oracle = report.oracle.as_ref().expect("checked run has a summary");
    assert!(
        oracle.is_clean(),
        "oracle violations in scenario '{name}':\n{}",
        oracle.render()
    );

    let actual = GoldenTrace::from_report(name, seed, days, &report);
    let path = golden_path(name);
    if update_mode() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        let json = serde_json::to_string_pretty(&actual).expect("serialize golden");
        std::fs::write(&path, json + "\n").expect("write golden");
        eprintln!("UPDATE_GOLDEN: rewrote {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "no golden for '{name}' at {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    let expected: GoldenTrace = serde_json::from_str(&committed).expect("golden file parses");
    assert_eq!(
        expected.digest,
        expected.compute_digest(),
        "golden file for '{name}' is internally inconsistent (hand-edited?)"
    );
    assert_eq!(
        actual, expected,
        "behavioral drift in scenario '{name}': digests {} (now) vs {} (committed).\n\
         If this change is intentional, regenerate with\n\
         UPDATE_GOLDEN=1 cargo test --release --test golden_trace -- --include-ignored\n\
         and commit the new goldens with an explanation.",
        actual.digest, expected.digest
    );
}

// ---------------------------------------------------------------------------
// Full-scale scenario goldens: release-only (see module docs), run in CI
// with `--include-ignored`. Together these cover an underloaded fleet, the
// paper's calibrated week and a strict-overload week — the three regimes
// every future perf/refactor PR must preserve bit-for-bit.
// ---------------------------------------------------------------------------

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-scale golden runs are release-only (CI)"
)]
fn golden_light() {
    check_scenario(
        "light",
        Scenario::from_profile("light", LpcProfile::light(), 42),
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-scale golden runs are release-only (CI)"
)]
fn golden_paper() {
    check_scenario("paper", Scenario::paper(42));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-scale golden runs are release-only (CI)"
)]
fn golden_overload() {
    check_scenario(
        "overload",
        Scenario::from_profile("overload", LpcProfile::paper_strict(), 42),
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-scale golden runs are release-only (CI)"
)]
fn golden_overbook() {
    // The paper week with 150%/120% CPU/RAM overbooking and the moderate
    // elasticity preset: freezes resize application order and the
    // saturation SLA meter alongside the usual energy/fleet series.
    check_scenario("overbook", Scenario::paper_overbooked(42));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-scale golden runs are release-only (CI)"
)]
fn acceptance_1k_overbooked_week_is_kernel_invariant() {
    // The DESIGN.md §11 acceptance scenario: 1 000 PMs, 7 days, 150/120
    // overbooking, moderate elasticity, checked mode on. Both planning
    // kernels must produce the same digest, the oracle must stay clean
    // (asserted inside from_report's caller below), the workload must
    // actually resize, and overbooking past 1.0 must meter nonzero
    // SLA-violation seconds.
    let mk = |policy: DynamicPlacement| {
        let mut s = Scenario::overbooked_elastic(1_000, 42);
        s.sim.checked = true;
        let report = s.run(Box::new(policy));
        let oracle = report.oracle.as_ref().expect("checked run has a summary");
        assert!(oracle.is_clean(), "{}", oracle.render());
        GoldenTrace::from_report("overbook-1k", 42, 7, &report)
    };
    let dense = mk(DynamicPlacement::dense_reference(DynamicConfig::default()));
    let compressed = mk(DynamicPlacement::paper_default());
    assert_eq!(dense, compressed, "kernels diverged on the elastic week");
    assert!(dense.total_resizes > 0, "no resizes applied");
    assert!(
        dense.sla_violation_milli_seconds > 0,
        "overbooked week metered zero SLA seconds"
    );
}

// ---------------------------------------------------------------------------
// Harness self-tests: fast, run everywhere including debug tier-1.
// ---------------------------------------------------------------------------

#[test]
fn golden_digest_is_reproducible() {
    let mk = || {
        let mut s = Scenario::paper(7).with_days(1);
        s.sim.checked = true;
        let report = s.run(Box::new(DynamicPlacement::paper_default()));
        assert!(report.oracle.as_ref().expect("summary").is_clean());
        GoldenTrace::from_report("smoke", 7, 1, &report)
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b, "same scenario, same digest");
    assert_eq!(a.digest, a.compute_digest());
}

#[test]
fn checked_mode_does_not_change_the_trace() {
    let mk = |checked: bool| {
        let mut s = Scenario::from_profile("light", LpcProfile::light(), 11).with_days(1);
        s.sim.checked = checked;
        let report = s.run(Box::new(DynamicPlacement::paper_default()));
        GoldenTrace::from_report("light-1d", 11, 1, &report)
    };
    assert_eq!(
        mk(false),
        mk(true),
        "the oracle must observe, never perturb"
    );
}

#[test]
fn compressed_kernel_does_not_change_the_trace() {
    // The class-compressed planner must be bit-identical to the dense
    // reference end to end: same migrations, same energy series, same
    // digest — on a full simulated day with arrivals, departures,
    // failures and live migrations.
    let mk = |policy: DynamicPlacement| {
        let mut s = Scenario::paper(13).with_days(1);
        s.sim.checked = true;
        let report = s.run(Box::new(policy));
        assert!(report.oracle.as_ref().expect("summary").is_clean());
        GoldenTrace::from_report("kernel-eq", 13, 1, &report)
    };
    assert_eq!(
        mk(DynamicPlacement::dense_reference(DynamicConfig::default())),
        mk(DynamicPlacement::paper_default()),
        "compressed kernel drifted from the dense reference"
    );
}

#[test]
fn overbooked_elastic_digest_is_reproducible_and_meters_sla() {
    // Small-fleet, 1-day version of the overbook golden: the digest must
    // be stable run to run, the elastic workload must actually resize,
    // and physical saturation must land in the SLA meter rather than in
    // the oracle (the checked run stays clean).
    let mk = || {
        let mut s = Scenario::overbooked_elastic(40, 21).with_days(1);
        s.sim.checked = true;
        let report = s.run(Box::new(DynamicPlacement::paper_default()));
        assert!(report.oracle.as_ref().expect("summary").is_clean());
        GoldenTrace::from_report("overbook-smoke", 21, 1, &report)
    };
    let a = mk();
    assert_eq!(a, mk(), "same elastic scenario, same digest");
    assert!(a.total_resizes > 0, "moderate preset must resize");
}

#[test]
fn golden_round_trips_through_json() {
    let mut s = Scenario::from_profile("light", LpcProfile::light(), 3).with_days(1);
    s.sim.checked = true;
    let report = s.run(Box::new(DynamicPlacement::paper_default()));
    let g = GoldenTrace::from_report("rt", 3, 1, &report);
    let json = serde_json::to_string_pretty(&g).unwrap();
    let back: GoldenTrace = serde_json::from_str(&json).unwrap();
    assert_eq!(back, g);
    assert_eq!(back.digest, back.compute_digest());
}

#[test]
fn tampered_golden_fails_the_self_check() {
    let mut s = Scenario::from_profile("light", LpcProfile::light(), 3).with_days(1);
    s.sim.checked = false;
    let report = s.run(Box::new(DynamicPlacement::paper_default()));
    let mut g = GoldenTrace::from_report("tamper", 3, 1, &report);
    g.total_energy_micro_kwh += 1;
    assert_ne!(g.digest, g.compute_digest(), "edits invalidate the digest");
}
