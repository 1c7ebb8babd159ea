//! Declarative scenario specifications (JSON).
//!
//! A [`ScenarioSpec`] describes a complete experiment — fleet, workload,
//! simulator settings, policy — as plain data, so experiments can be
//! version-controlled and shared without writing Rust. `examples/`-grade
//! JSON:
//!
//! ```json
//! {
//!   "name": "my-week",
//!   "fleet": [
//!     { "preset": "paper_fast", "count": 25, "reliability": 0.99 },
//!     { "preset": "paper_slow", "count": 75, "reliability": 0.99 }
//!   ],
//!   "workload": { "profile": "paper_calibrated", "days": 7 },
//!   "policy": { "kind": "dynamic", "mig_threshold": 1.05, "mig_round": 20 },
//!   "seed": 42
//! }
//! ```

use dvmp::prelude::*;
use dvmp_cluster::pm::PmClass;
use dvmp_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One fleet entry: a hardware-class preset or explicit parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FleetEntry {
    /// `"paper_fast"` / `"paper_slow"`, or `"custom"` with the fields below.
    pub preset: String,
    /// Machines of this class.
    pub count: usize,
    /// Per-PM reliability score.
    #[serde(default = "default_reliability")]
    pub reliability: f64,
    /// Custom class name (preset `"custom"` only).
    #[serde(default)]
    pub name: Option<String>,
    /// Custom cores (preset `"custom"` only).
    #[serde(default)]
    pub cores: Option<u64>,
    /// Custom memory MiB (preset `"custom"` only).
    #[serde(default)]
    pub memory_mib: Option<u64>,
    /// Custom active watts (preset `"custom"` only).
    #[serde(default)]
    pub active_w: Option<f64>,
    /// Custom idle watts (preset `"custom"` only).
    #[serde(default)]
    pub idle_w: Option<f64>,
}

fn default_reliability() -> f64 {
    0.99
}

impl FleetEntry {
    fn class(&self) -> Result<PmClass, String> {
        match self.preset.as_str() {
            "paper_fast" => Ok(PmClass::paper_fast()),
            "paper_slow" => Ok(PmClass::paper_slow()),
            "custom" => {
                let base = PmClass::paper_fast();
                Ok(PmClass {
                    name: self.name.clone().unwrap_or_else(|| "custom".into()),
                    capacity: ResourceVector::cpu_mem(
                        self.cores.ok_or("custom class needs `cores`")?,
                        self.memory_mib.ok_or("custom class needs `memory_mib`")?,
                    ),
                    active_power_w: self.active_w.ok_or("custom class needs `active_w`")?,
                    idle_power_w: self.idle_w.ok_or("custom class needs `idle_w`")?,
                    ..base
                })
            }
            other => Err(format!("unknown fleet preset {other:?}")),
        }
    }
}

/// Workload selection.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WorkloadSpec {
    /// `"paper_calibrated"`, `"paper_strict"`, `"light"`, `"hpc_mixed"`,
    /// `"swf"` (with `path`), or `"scaled"` (with `pms`).
    pub profile: String,
    /// Days to simulate (at least 1; clamped to the profile's length).
    #[serde(default = "default_days")]
    pub days: u64,
    /// SWF file path (profile `"swf"` only).
    #[serde(default)]
    pub path: Option<String>,
    /// Fleet size (profile `"scaled"` only, at least 4): the paper's
    /// calibrated week scaled to this many PMs in a 1:3 fast:slow mix,
    /// as `Scenario::scaled` builds it. The profile brings its own fleet,
    /// so the spec's `fleet` must be empty.
    #[serde(default)]
    pub pms: Option<usize>,
    /// Minimum per-core memory filter in MiB (SWF preprocessing).
    #[serde(default)]
    pub min_memory_mib: u64,
}

fn default_days() -> u64 {
    7
}

/// Per-dimension overbooking percentages for the whole fleet.
///
/// `150` means the admission bound is 1.5× the physical capacity in
/// that dimension; `100` in both dimensions is the identity and leaves
/// the fleet bit-identical to a spec without the knob (DESIGN.md §11).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct OverbookSpec {
    /// CPU overbooking percentage (100 = none).
    #[serde(default = "default_pct")]
    pub cpu_pct: u32,
    /// Memory overbooking percentage (100 = none).
    #[serde(default = "default_pct")]
    pub mem_pct: u32,
}

fn default_pct() -> u32 {
    100
}

impl OverbookSpec {
    fn ratios(&self) -> Result<OverbookRatios, String> {
        for (dim, pct) in [("cpu_pct", self.cpu_pct), ("mem_pct", self.mem_pct)] {
            if !(100..=dvmp_cluster::resources::MAX_OVERBOOK_PCT).contains(&pct) {
                return Err(format!(
                    "overbook {dim} must be in [100, {}], got {pct}",
                    dvmp_cluster::resources::MAX_OVERBOOK_PCT
                ));
            }
        }
        Ok(OverbookRatios::cpu_mem(self.cpu_pct, self.mem_pct))
    }
}

/// Policy selection.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PolicySpec {
    /// `"dynamic"`, `"first-fit"`, `"best-fit"`, `"worst-fit"`, `"random"`.
    pub kind: String,
    /// `MIG_threshold` (dynamic only).
    #[serde(default)]
    pub mig_threshold: Option<f64>,
    /// `MIG_round` (dynamic only).
    #[serde(default)]
    pub mig_round: Option<u32>,
    /// Capacity basis for planning feasibility (dynamic only):
    /// `"virtual"` (default — the overbooked admission bound) or
    /// `"physical"` (the overbooking-blind ablation). Identical on
    /// fleets without an `overbook` block.
    #[serde(default)]
    pub capacity_basis: Option<String>,
    /// Superclass tolerance for heterogeneous fleets (dynamic only):
    /// planner-side reliability / efficiency / overhead inputs are
    /// quantized to this resolution before superclassing, keeping the
    /// compressed kernel compact on jittered fleets. Omit (or `0.0`) for
    /// exact keys.
    #[serde(default)]
    pub class_tolerance: Option<f64>,
}

impl Default for PolicySpec {
    /// The paper's dynamic policy with every optional knob unset.
    fn default() -> Self {
        PolicySpec {
            kind: "dynamic".into(),
            mig_threshold: None,
            mig_round: None,
            capacity_basis: None,
            class_tolerance: None,
        }
    }
}

impl PolicySpec {
    /// Builds the policy. `seed` feeds the random baseline.
    pub fn build(&self, seed: u64) -> Result<Box<dyn PlacementPolicy>, String> {
        match self.kind.as_str() {
            "dynamic" => {
                let mut cfg = DynamicConfig::default();
                if let Some(t) = self.mig_threshold {
                    cfg.mig_threshold = t;
                }
                if let Some(r) = self.mig_round {
                    cfg.mig_round = r;
                }
                if let Some(b) = &self.capacity_basis {
                    cfg.capacity_basis = match b.as_str() {
                        "virtual" => CapacityBasis::Virtual,
                        "physical" => CapacityBasis::Physical,
                        other => return Err(format!("unknown capacity basis {other:?}")),
                    };
                }
                if let Some(t) = self.class_tolerance {
                    cfg.class_tolerance = t;
                }
                cfg.validate()?;
                Ok(Box::new(DynamicPlacement::new(cfg)))
            }
            "first-fit" => Ok(Box::new(FirstFit)),
            "best-fit" => Ok(Box::new(BestFit)),
            "worst-fit" => Ok(Box::new(WorstFit)),
            "random" => Ok(Box::new(RandomFit::new(seed))),
            other => Err(format!("unknown policy kind {other:?}")),
        }
    }
}

/// A complete experiment as data.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioSpec {
    /// Display name.
    pub name: String,
    /// The fleet (defaults to the paper's Table II when empty).
    #[serde(default)]
    pub fleet: Vec<FleetEntry>,
    /// The workload.
    pub workload: WorkloadSpec,
    /// The policy to run (ignored by `compare`, which runs the trio).
    pub policy: PolicySpec,
    /// Master seed.
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Disable the Section IV spare-server controller (all machines on).
    #[serde(default)]
    pub all_machines_on: bool,
    /// Fleet-wide overbooking ratios (omit for none).
    #[serde(default)]
    pub overbook: Option<OverbookSpec>,
    /// Vertical-elasticity preset: `"none"`, `"moderate"`, or
    /// `"aggressive"` (omit for a static workload).
    #[serde(default)]
    pub elasticity: Option<String>,
}

fn default_seed() -> u64 {
    42
}

impl ScenarioSpec {
    /// Parses a spec from JSON and checks the values serde cannot.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let spec: ScenarioSpec =
            serde_json::from_str(text).map_err(|e| format!("invalid scenario JSON: {e}"))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Rejects workload values that would build a run simulating nothing
    /// or trip a constructor's assertion.
    fn validate(&self) -> Result<(), String> {
        let w = &self.workload;
        if w.days == 0 {
            return Err("workload `days` must be at least 1".into());
        }
        for entry in &self.fleet {
            if !(entry.reliability > 0.0 && entry.reliability <= 1.0) {
                return Err(format!(
                    "fleet entry {:?}: `reliability` must be in (0, 1], got {}",
                    entry.preset, entry.reliability
                ));
            }
            // An incomplete or unknown class is reported by `build`.
            if let Ok(class) = entry.class() {
                class.check_power()?;
            }
        }
        match (w.profile.as_str(), w.pms) {
            ("scaled", None) => Err("workload profile \"scaled\" needs `pms`".into()),
            ("scaled", Some(pms)) if pms < 4 => Err(format!(
                "workload profile \"scaled\" needs `pms` ≥ 4, got {pms}"
            )),
            ("scaled", Some(_)) if !self.fleet.is_empty() => {
                Err("workload profile \"scaled\" builds its own fleet; omit `fleet`".into())
            }
            ("scaled", Some(_)) => Ok(()),
            (_, Some(_)) => Err("`pms` applies to workload profile \"scaled\" only".into()),
            (_, None) => Ok(()),
        }
    }

    /// Builds the runnable scenario.
    pub fn build(&self) -> Result<Scenario, String> {
        self.validate()?;
        let mut scenario = match (self.workload.profile.as_str(), self.workload.pms) {
            ("scaled", Some(pms)) => {
                let mut s = Scenario::scaled(pms, self.seed).with_days(self.workload.days);
                s.name = self.name.clone();
                s
            }
            _ => self.build_from_trace()?,
        };
        if self.all_machines_on {
            scenario.sim.spare = None;
        }
        if let Some(overbook) = &self.overbook {
            scenario = scenario.with_overbooking(overbook.ratios()?);
        }
        if let Some(elasticity) = &self.elasticity {
            let profile = match elasticity.as_str() {
                "none" => ElasticityProfile::none(),
                "moderate" => ElasticityProfile::moderate(),
                "aggressive" => ElasticityProfile::aggressive(),
                other => return Err(format!("unknown elasticity preset {other:?}")),
            };
            scenario = scenario.with_elasticity(&profile);
        }
        Ok(scenario)
    }

    /// The scenario of a trace-driven profile over the spec's fleet.
    fn build_from_trace(&self) -> Result<Scenario, String> {
        let fleet = if self.fleet.is_empty() {
            paper_fleet()
        } else {
            let mut b = FleetBuilder::new();
            for entry in &self.fleet {
                b = b.add_class(entry.class()?, entry.count, entry.reliability);
            }
            b.build()
        };

        let trace = match self.workload.profile.as_str() {
            "paper_calibrated" => {
                SyntheticGenerator::new(LpcProfile::paper_calibrated(), self.seed).generate()
            }
            "paper_strict" => {
                SyntheticGenerator::new(LpcProfile::paper_strict(), self.seed).generate()
            }
            "light" => SyntheticGenerator::new(LpcProfile::light(), self.seed).generate(),
            "hpc_mixed" => SyntheticGenerator::new(LpcProfile::hpc_mixed(), self.seed).generate(),
            "swf" => {
                let path = self
                    .workload
                    .path
                    .as_ref()
                    .ok_or("workload profile \"swf\" needs `path`")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                let jobs = dvmp_workload::swf::parse_swf(&text).map_err(|e| e.to_string())?;
                Trace::new(jobs)
                    .filter_usable()
                    .filter_min_memory(self.workload.min_memory_mib)
                    .extract_window(SimTime::ZERO, SimDuration::from_days(self.workload.days))
            }
            other => return Err(format!("unknown workload profile {other:?}")),
        };

        let mut sim = SimConfig::default();
        sim.seed = self.seed;
        sim.horizon = SimTime::from_days(self.workload.days);
        Ok(Scenario::from_trace(self.name.clone(), fleet, &trace, sim)
            .with_days(self.workload.days))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "name": "t",
        "workload": { "profile": "light", "days": 1 },
        "policy": { "kind": "first-fit" }
    }"#;

    #[test]
    fn minimal_spec_builds_paper_fleet() {
        let spec = ScenarioSpec::from_json(MINIMAL).unwrap();
        assert_eq!(spec.seed, 42);
        let scenario = spec.build().unwrap();
        assert_eq!(scenario.fleet().len(), 100);
        assert_eq!(scenario.days(), 1);
        assert!(!scenario.requests().is_empty());
        let policy = spec.policy.build(spec.seed).unwrap();
        assert_eq!(policy.name(), "first-fit");
    }

    #[test]
    fn custom_fleet_and_dynamic_policy() {
        let text = r#"{
            "name": "custom",
            "fleet": [
                { "preset": "custom", "count": 3, "name": "big",
                  "cores": 16, "memory_mib": 32768,
                  "active_w": 700.0, "idle_w": 350.0 },
                { "preset": "paper_slow", "count": 2 }
            ],
            "workload": { "profile": "light", "days": 1 },
            "policy": { "kind": "dynamic", "mig_threshold": 1.2, "mig_round": 5 },
            "seed": 7
        }"#;
        let spec = ScenarioSpec::from_json(text).unwrap();
        let scenario = spec.build().unwrap();
        assert_eq!(scenario.fleet().len(), 5);
        assert_eq!(scenario.fleet().classes()[0].name, "big");
        assert_eq!(
            scenario.fleet().classes()[0].capacity,
            ResourceVector::cpu_mem(16, 32_768)
        );
        let policy = spec.policy.build(7).unwrap();
        assert_eq!(policy.name(), "dynamic");
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let text = r#"{
            "name": "t",
            "workload": { "profile": "light", "days": 1 },
            "policy": { "kind": "first-fit" },
            "oops": true
        }"#;
        assert!(ScenarioSpec::from_json(text).is_err());
    }

    #[test]
    fn unknown_presets_and_policies_error_cleanly() {
        let mut spec = ScenarioSpec::from_json(MINIMAL).unwrap();
        spec.fleet.push(FleetEntry {
            preset: "warp-core".into(),
            count: 1,
            reliability: 0.9,
            name: None,
            cores: None,
            memory_mib: None,
            active_w: None,
            idle_w: None,
        });
        assert!(spec.build().unwrap_err().contains("warp-core"));

        let bad_policy = PolicySpec {
            kind: "oracle".into(),
            ..PolicySpec::default()
        };
        match bad_policy.build(1) {
            Err(e) => assert!(e.contains("oracle")),
            Ok(_) => panic!("unknown policy must error"),
        }
    }

    #[test]
    fn custom_class_requires_all_fields() {
        let text = r#"{
            "name": "t",
            "fleet": [ { "preset": "custom", "count": 1 } ],
            "workload": { "profile": "light", "days": 1 },
            "policy": { "kind": "first-fit" }
        }"#;
        let spec = ScenarioSpec::from_json(text).unwrap();
        assert!(spec.build().unwrap_err().contains("cores"));
    }

    /// Why a spec whose one fleet entry is `entry` (its JSON body) fails
    /// to build, if it does.
    fn fleet_error(entry: &str) -> Option<String> {
        let text = format!(
            r#"{{
                "name": "t",
                "fleet": [ {{ {entry} }} ],
                "workload": {{ "profile": "light", "days": 1 }},
                "policy": {{ "kind": "first-fit" }}
            }}"#
        );
        ScenarioSpec::from_json(&text)
            .and_then(|spec| spec.build())
            .err()
    }

    fn power_error(idle_w: &str, active_w: &str) -> Option<String> {
        fleet_error(&format!(
            r#""preset": "custom", "count": 2, "cores": 8, "memory_mib": 8192,
               "idle_w": {idle_w}, "active_w": {active_w}"#
        ))
    }

    #[test]
    fn reliability_above_one_is_rejected() {
        let err = fleet_error(r#""preset": "paper_fast", "count": 2, "reliability": 1.5"#);
        assert!(err.unwrap().contains("`reliability` must be in (0, 1]"));
    }

    #[test]
    fn zero_reliability_is_rejected() {
        let err = fleet_error(r#""preset": "paper_slow", "count": 2, "reliability": 0.0"#);
        assert!(err.unwrap().contains("`reliability` must be in (0, 1]"));
        let one = fleet_error(r#""preset": "paper_slow", "count": 2, "reliability": 1.0"#);
        assert_eq!(one, None);
    }

    #[test]
    fn idle_power_above_active_is_rejected() {
        let err = power_error("300.0", "100.0").unwrap();
        assert!(
            err.contains("idle power 300 W exceeds active power 100 W"),
            "{err}"
        );
        assert_eq!(power_error("100.0", "100.0"), None, "a flat power model");
    }

    #[test]
    fn negative_power_is_rejected() {
        let err = power_error("-1.0", "100.0").unwrap();
        assert!(err.contains("finite and non-negative"), "{err}");
    }

    #[test]
    fn non_finite_power_is_rejected() {
        // JSON has no infinity literal; an overflowing number parses to it.
        let err = power_error("100.0", "1e999").unwrap();
        assert!(err.contains("finite and non-negative"), "{err}");
    }

    #[test]
    fn power_past_the_physical_ceiling_is_rejected() {
        // Finite, but a week of it overflows the energy sums.
        let err = power_error("240.0", "1e308").unwrap();
        assert!(err.contains("exceeds the 1000000 W"), "{err}");
        assert_eq!(power_error("240.0", "1000000.0"), None, "at the ceiling");
    }

    #[test]
    fn invalid_dynamic_config_is_rejected() {
        let spec = PolicySpec {
            mig_threshold: Some(0.2),
            ..PolicySpec::default()
        };
        assert!(spec.build(1).is_err());
    }

    #[test]
    fn removed_speed_knobs_are_rejected_by_name() {
        // The planner's speed-only knobs are gone; a spec that still sets
        // one fails to load with an error naming the field.
        for (field, value) in [
            ("plan_kernel", r#""dense""#),
            ("plan_shards", "4"),
            ("dense_sweep", r#""simd""#),
        ] {
            let text = format!(
                r#"{{
                    "name": "t",
                    "workload": {{ "profile": "light", "days": 1 }},
                    "policy": {{ "kind": "dynamic", "{field}": {value} }}
                }}"#
            );
            match ScenarioSpec::from_json(&text) {
                Err(e) => assert!(e.contains(field), "{field}: {e}"),
                Ok(_) => panic!("{field} must be rejected"),
            }
        }
    }

    #[test]
    fn capacity_basis_knob_selects_bases_and_rejects_typos() {
        for basis in ["virtual", "physical"] {
            let spec = PolicySpec {
                capacity_basis: Some(basis.into()),
                ..PolicySpec::default()
            };
            assert!(spec.build(1).is_ok(), "basis {basis}");
        }
        let bad = PolicySpec {
            capacity_basis: Some("astral".into()),
            ..PolicySpec::default()
        };
        match bad.build(1) {
            Err(e) => assert!(e.contains("astral")),
            Ok(_) => panic!("unknown basis must error"),
        }
    }

    #[test]
    fn heterogeneity_knobs_build_and_reject_typos() {
        // The heterogeneous-planning knob parses from JSON.
        let text = r#"{
            "name": "hetero",
            "workload": { "profile": "light", "days": 1 },
            "policy": { "kind": "dynamic", "class_tolerance": 0.01 }
        }"#;
        let spec = ScenarioSpec::from_json(text).unwrap();
        assert!(spec.policy.build(1).is_ok());
        // An out-of-range tolerance is caught by DynamicConfig::validate.
        let bad_tol = PolicySpec {
            class_tolerance: Some(0.9),
            ..PolicySpec::default()
        };
        assert!(bad_tol.build(1).is_err());
        // Typos inside the policy block are rejected (deny_unknown_fields).
        let typo = r#"{
            "name": "t",
            "workload": { "profile": "light", "days": 1 },
            "policy": { "kind": "dynamic", "class_tolerence": 0.01 }
        }"#;
        assert!(ScenarioSpec::from_json(typo).is_err());
    }

    #[test]
    fn overbook_and_elasticity_knobs_shape_the_scenario() {
        let text = r#"{
            "name": "elastic",
            "workload": { "profile": "light", "days": 1 },
            "policy": { "kind": "dynamic", "capacity_basis": "virtual" },
            "overbook": { "cpu_pct": 150, "mem_pct": 120 },
            "elasticity": "moderate"
        }"#;
        let scenario = ScenarioSpec::from_json(text).unwrap().build().unwrap();
        assert!(!scenario.resizes().is_empty(), "moderate preset resizes");
        for id in scenario.fleet().pm_ids() {
            let ob = scenario.fleet().pm(id).overbook.expect("overbooked");
            assert_eq!((ob.pct(0), ob.pct(1)), (150, 120));
        }
    }

    #[test]
    fn identity_overbook_and_none_elasticity_are_no_ops() {
        let text = r#"{
            "name": "static",
            "workload": { "profile": "light", "days": 1 },
            "policy": { "kind": "first-fit" },
            "overbook": { "cpu_pct": 100 },
            "elasticity": "none"
        }"#;
        let scenario = ScenarioSpec::from_json(text).unwrap().build().unwrap();
        assert!(scenario.resizes().is_empty());
        for id in scenario.fleet().pm_ids() {
            assert!(scenario.fleet().pm(id).overbook.is_none());
        }
    }

    #[test]
    fn bad_overbook_and_elasticity_values_error_cleanly() {
        let low = r#"{
            "name": "t",
            "workload": { "profile": "light", "days": 1 },
            "policy": { "kind": "first-fit" },
            "overbook": { "cpu_pct": 50 }
        }"#;
        let err = ScenarioSpec::from_json(low).unwrap().build().unwrap_err();
        assert!(err.contains("cpu_pct"), "{err}");

        let preset = r#"{
            "name": "t",
            "workload": { "profile": "light", "days": 1 },
            "policy": { "kind": "first-fit" },
            "elasticity": "turbulent"
        }"#;
        let err = ScenarioSpec::from_json(preset)
            .unwrap()
            .build()
            .unwrap_err();
        assert!(err.contains("turbulent"), "{err}");
    }

    #[test]
    fn all_machines_on_disables_spare_control() {
        let text = r#"{
            "name": "t",
            "workload": { "profile": "light", "days": 1 },
            "policy": { "kind": "first-fit" },
            "all_machines_on": true
        }"#;
        let scenario = ScenarioSpec::from_json(text).unwrap().build().unwrap();
        assert!(scenario.sim.spare.is_none());
    }

    #[test]
    fn swf_workload_reads_a_file() {
        // Export a tiny synthetic trace as SWF to a temp file, then build
        // a scenario from it through the spec.
        let trace = SyntheticGenerator::new(LpcProfile::light(), 3).generate();
        let path = std::env::temp_dir().join("dvmp_cli_spec_test.swf");
        std::fs::write(
            &path,
            dvmp_workload::swf::to_swf_string(&trace.jobs()[..200], "test"),
        )
        .unwrap();

        let text = format!(
            r#"{{
                "name": "swf-test",
                "workload": {{ "profile": "swf", "days": 7,
                               "path": {path:?}, "min_memory_mib": 64 }},
                "policy": {{ "kind": "best-fit" }}
            }}"#
        );
        let spec = ScenarioSpec::from_json(&text).unwrap();
        let scenario = spec.build().unwrap();
        assert!(!scenario.requests().is_empty());
        assert!(scenario.requests().len() <= 200);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_swf_path_errors() {
        let text = r#"{
            "name": "t",
            "workload": { "profile": "swf", "days": 1 },
            "policy": { "kind": "first-fit" }
        }"#;
        let err = ScenarioSpec::from_json(text).unwrap().build().unwrap_err();
        assert!(err.contains("path"), "{err}");
    }

    #[test]
    fn zero_days_is_rejected_at_load() {
        let text = r#"{
            "name": "t",
            "workload": { "profile": "light", "days": 0 },
            "policy": { "kind": "first-fit" }
        }"#;
        let err = ScenarioSpec::from_json(text).unwrap_err();
        assert!(err.contains("days"), "{err}");
        let mut spec = ScenarioSpec::from_json(MINIMAL).unwrap();
        spec.workload.days = 0;
        assert!(spec.build().is_err(), "build checks it too");
    }

    #[test]
    fn scaled_profile_reproduces_scenario_scaled() {
        let text = r#"{
            "name": "scaled-week",
            "workload": { "profile": "scaled", "pms": 40 },
            "policy": { "kind": "dynamic" },
            "seed": 7
        }"#;
        let spec = ScenarioSpec::from_json(text).unwrap();
        let core_json = |scenario: Scenario| {
            let mut report = scenario.run(spec.policy.build(spec.seed).unwrap());
            report.meta = None;
            serde_json::to_string(&report).unwrap()
        };
        let from_spec = spec.build().unwrap();
        assert_eq!(from_spec.fleet().len(), 40);
        assert_eq!(
            core_json(from_spec),
            core_json(Scenario::scaled(40, 7)),
            "the spec builds exactly Scenario::scaled"
        );
    }

    #[test]
    fn scaled_profile_rejects_bad_fleet_sizes() {
        let spec_with = |workload: &str, fleet: &str| {
            format!(
                r#"{{ "name": "t", "workload": {workload}, {fleet}
                      "policy": {{ "kind": "first-fit" }} }}"#
            )
        };
        for (workload, fleet, needle) in [
            (r#"{ "profile": "scaled", "pms": 3 }"#, "", "pms"),
            (r#"{ "profile": "scaled", "pms": 0 }"#, "", "pms"),
            (r#"{ "profile": "scaled" }"#, "", "pms"),
            (r#"{ "profile": "light", "pms": 40 }"#, "", "pms"),
            (
                r#"{ "profile": "scaled", "pms": 40 }"#,
                r#""fleet": [ { "preset": "paper_fast", "count": 2 } ],"#,
                "fleet",
            ),
        ] {
            let err = ScenarioSpec::from_json(&spec_with(workload, fleet)).unwrap_err();
            assert!(err.contains(needle), "{workload}: {err}");
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScenarioSpec::from_json(MINIMAL).unwrap();
        let text = serde_json::to_string(&spec).unwrap();
        let back = ScenarioSpec::from_json(&text).unwrap();
        assert_eq!(back.name, spec.name);
        assert_eq!(back.seed, spec.seed);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Valid specs covering every top-level block, the seeds of the
        /// byte mutations below.
        const VALID: [&str; 4] = [
            MINIMAL,
            r#"{
                "name": "custom",
                "fleet": [
                    { "preset": "custom", "count": 3, "name": "big",
                      "cores": 16, "memory_mib": 32768,
                      "active_w": 700.0, "idle_w": 350.0 },
                    { "preset": "paper_slow", "count": 2, "reliability": 0.9 }
                ],
                "workload": { "profile": "light", "days": 1 },
                "policy": { "kind": "dynamic", "mig_threshold": 1.2, "mig_round": 5,
                            "class_tolerance": 0.01, "capacity_basis": "virtual" },
                "seed": 7
            }"#,
            r#"{
                "name": "elastic",
                "workload": { "profile": "light", "days": 1 },
                "policy": { "kind": "dynamic" },
                "overbook": { "cpu_pct": 150, "mem_pct": 120 },
                "elasticity": "moderate",
                "all_machines_on": true
            }"#,
            r#"{
                "name": "w",
                "workload": { "profile": "scaled", "pms": 10000 },
                "policy": { "kind": "dynamic" },
                "seed": 42
            }"#,
        ];

        /// Characters JSON is made of, so random text often gets past the
        /// first token.
        const JSONISH: &[u8] = b"{}[]\":,.-+eE0123456789 \n\tabcdefnlrstuwyz\\";

        /// One byte edit: `(op, position, byte)` — overwrite, delete,
        /// insert, or duplicate the tail from `position`.
        fn mutate(text: &mut Vec<u8>, (op, pos, byte): (u8, u32, u8)) {
            if text.is_empty() {
                text.push(byte);
                return;
            }
            let at = pos as usize % text.len();
            match op % 4 {
                0 => text[at] = byte,
                1 => {
                    text.remove(at);
                }
                2 => text.insert(at, byte),
                _ => {
                    let tail = text[at..].to_vec();
                    text.extend_from_slice(&tail);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The spec loader answers any text with `Ok` or `Err` and
            /// never panics: arbitrary bytes, JSON-alphabet noise and valid
            /// specs with a few bytes overwritten, dropped, inserted or
            /// duplicated. An accepted spec has passed validation.
            #[test]
            fn from_json_never_panics(
                seed in 0usize..VALID.len(),
                edits in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u8>()), 1..6),
                noise in prop::collection::vec(any::<u8>(), 0..160),
                jsonish in any::<bool>(),
            ) {
                let mut mutated = VALID[seed].as_bytes().to_vec();
                for &(op, pos, byte) in &edits {
                    let byte = if jsonish { JSONISH[usize::from(byte) % JSONISH.len()] } else { byte };
                    mutate(&mut mutated, (op, pos, byte));
                }
                let garbage: Vec<u8> = if jsonish {
                    noise.iter().map(|&b| JSONISH[usize::from(b) % JSONISH.len()]).collect()
                } else {
                    noise
                };
                for bytes in [mutated, garbage] {
                    let text = String::from_utf8_lossy(&bytes);
                    if let Ok(spec) = ScenarioSpec::from_json(&text) {
                        prop_assert!(spec.workload.days >= 1);
                        prop_assert!(spec.validate().is_ok());
                    }
                }
            }
        }

        #[test]
        fn mutation_seeds_are_valid() {
            for text in VALID {
                assert!(ScenarioSpec::from_json(text).is_ok(), "{text}");
            }
        }
    }
}
