//! Scenario = fleet × workload × simulator configuration.
//!
//! A [`Scenario`] is a reusable, cloneable description of one experiment:
//! it can be run against any number of policies (each run gets a fresh
//! fleet and an identical request stream), which is how the figure
//! binaries produce their policy-per-column comparisons.

use crate::config::SimConfig;
use crate::simulator::{ResizeRequest, Simulation};
use dvmp_cluster::datacenter::{paper_fleet, Datacenter, FleetBuilder};
use dvmp_cluster::pm::PmClass;
use dvmp_cluster::reliability::ReliabilityModel;
use dvmp_cluster::resources::OverbookRatios;
use dvmp_cluster::vm::VmSpec;
use dvmp_metrics::recorder::RunReport;
use dvmp_placement::PlacementPolicy;
use dvmp_simcore::{SimDuration, SimTime};
use dvmp_workload::{ElasticityProfile, LpcProfile, SyntheticGenerator, Trace};

/// A complete experiment description.
///
/// Serializable: a fully materialized scenario (fleet, every request,
/// config) can be saved and reloaded bit-exactly, which pins an
/// experiment even across future changes to the synthetic generator.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Scenario {
    /// Scenario name (used in logs and reports).
    pub name: String,
    fleet: Datacenter,
    requests: Vec<VmSpec>,
    /// Scheduled vertical-elasticity (resize) requests, if any. Older
    /// serialized scenarios without this field deserialize to an empty
    /// list (no elasticity).
    #[serde(default)]
    resizes: Vec<ResizeRequest>,
    /// Simulator configuration.
    pub sim: SimConfig,
}

impl Scenario {
    /// Builds a scenario from explicit parts.
    pub fn new(
        name: impl Into<String>,
        fleet: Datacenter,
        requests: Vec<VmSpec>,
        sim: SimConfig,
    ) -> Self {
        Scenario {
            name: name.into(),
            fleet,
            requests,
            resizes: Vec::new(),
            sim,
        }
    }

    /// The paper's evaluation setup: the Table II fleet (25 fast + 75 slow
    /// nodes), one synthetic LPC-like week (Section V-A) and default
    /// controls (hourly control period, ε = 0.05, `MIG` defaults live in
    /// the policy). Fully determined by `seed`.
    pub fn paper(seed: u64) -> Self {
        Self::from_profile("paper-week", LpcProfile::paper_calibrated(), seed)
    }

    /// A scaled-up paper week for throughput experiments: a fleet of
    /// `pm_count` machines in the paper's 1:3 fast:slow class mix, driven
    /// by the calibrated LPC week with arrivals multiplied so the run sees
    /// roughly five VM requests per PM over the seven days (the paper's
    /// 100-PM week has ~4 574 arrivals ≈ 100 PMs × 5 × 9.15, so the
    /// multiplier is `pm_count / 915`). At 10 000 PMs that is a ~50 000-VM
    /// week. Fully determined by `seed`; everything else (control period,
    /// ε, horizon) matches [`Scenario::paper`].
    pub fn scaled(pm_count: usize, seed: u64) -> Self {
        assert!(pm_count >= 4, "scaled fleets need at least 4 PMs");
        let fast = pm_count / 4;
        let slow = pm_count - fast;
        let fleet = FleetBuilder::new()
            .add_class(PmClass::paper_fast(), fast, 0.99)
            .add_class(PmClass::paper_slow(), slow, 0.99)
            .initially_on(false)
            .build();
        let mut profile = LpcProfile::paper_calibrated();
        let factor = pm_count as f64 / 915.0;
        for d in &mut profile.daily_arrivals {
            *d *= factor;
        }
        let days = profile.days() as u64;
        let trace = SyntheticGenerator::new(profile, seed).generate();
        let mut sim = SimConfig::default();
        sim.seed = seed;
        sim.horizon = SimTime::from_days(days);
        Self::from_trace(format!("scaled-{pm_count}pm"), fleet, &trace, sim)
    }

    /// The heterogeneous throughput scenario: the scaled fleet with every
    /// PM's reliability jittered `±spread` off its class score — the
    /// per-machine continuum that fragments exact superclass keys and
    /// that `class_tolerance` re-buckets (DESIGN.md §12). The acceptance
    /// scenario for the bucketed compressed kernel is
    /// `scaled_jittered(10_000, 0.004, seed)` over the full week.
    pub fn scaled_jittered(pm_count: usize, spread: f64, seed: u64) -> Self {
        let mut s =
            Self::scaled(pm_count, seed).with_reliability(ReliabilityModel::Jittered { spread });
        s.name = format!("scaled-jittered-{pm_count}pm");
        s
    }

    /// The scaled fleet under the age-decay reliability driver (Section
    /// III-B-3's "life time"): ages uniform in `[0, max_age_years]`, class
    /// score decaying by `annual_decay` per year. Like
    /// [`Scenario::scaled_jittered`], a per-PM continuum — the other
    /// heterogeneity axis of the bucketing experiments.
    pub fn scaled_age_decayed(
        pm_count: usize,
        max_age_years: f64,
        annual_decay: f64,
        seed: u64,
    ) -> Self {
        let mut s = Self::scaled(pm_count, seed).with_reliability(ReliabilityModel::AgeDecaying {
            max_age_years,
            annual_decay,
        });
        s.name = format!("scaled-aged-{pm_count}pm");
        s
    }

    /// A scenario from any synthetic workload profile on the paper fleet.
    pub fn from_profile(name: impl Into<String>, profile: LpcProfile, seed: u64) -> Self {
        let days = profile.days() as u64;
        let trace = SyntheticGenerator::new(profile, seed).generate();
        let mut sim = SimConfig::default();
        sim.seed = seed;
        sim.horizon = SimTime::from_days(days);
        Self::from_trace(name, paper_fleet(), &trace, sim)
    }

    /// A scenario from a preprocessed trace (synthetic or parsed SWF). The
    /// paper's VM normalization (`Trace::to_vm_requests`) is applied here.
    pub fn from_trace(
        name: impl Into<String>,
        fleet: Datacenter,
        trace: &Trace,
        sim: SimConfig,
    ) -> Self {
        let requests = trace
            .to_vm_requests(1)
            .into_iter()
            .map(|r| r.spec)
            .collect();
        Scenario {
            name: name.into(),
            fleet,
            requests,
            resizes: Vec::new(),
            sim,
        }
    }

    /// Truncates the scenario to its first `days` days (both horizon and
    /// requests) — handy for fast tests and examples.
    pub fn with_days(mut self, days: u64) -> Self {
        let horizon = SimTime::from_days(days);
        self.sim.horizon = horizon;
        self.requests.retain(|r| r.submit_time < horizon);
        self.resizes.retain(|r| r.at < horizon);
        self
    }

    /// Overbooks every PM in the fleet with `ratios`: admission runs
    /// against `physical × ratio` virtual capacity, and time spent with
    /// occupancy above *physical* capacity is metered as SLA-violation
    /// seconds in the report (see DESIGN.md). Identity ratios (100/100)
    /// leave the fleet unchanged.
    pub fn with_overbooking(mut self, ratios: OverbookRatios) -> Self {
        let overbook = if ratios.is_none() { None } else { Some(ratios) };
        for id in self.fleet.pm_ids().collect::<Vec<_>>() {
            self.fleet.pm_mut(id).overbook = overbook;
        }
        self
    }

    /// Layers a synthetic vertical-elasticity overlay on the request
    /// stream: resize events generated by `profile` from the scenario
    /// seed's [`Stream::Elasticity`](dvmp_simcore::rng::Stream) stream.
    /// Replaces any previously attached resizes. Calling this twice with
    /// the same profile is idempotent.
    pub fn with_elasticity(mut self, profile: &ElasticityProfile) -> Self {
        let horizon = self.sim.horizon;
        self.resizes = profile
            .generate(&self.requests, self.sim.seed)
            .into_iter()
            .filter(|e| e.at < horizon)
            .map(|e| ResizeRequest {
                vm: e.vm,
                at: e.at,
                new_demand: e.new_demand,
            })
            .collect();
        self
    }

    /// Attaches an explicit resize list, replacing any previously
    /// attached one. The presets go through [`Scenario::with_elasticity`];
    /// this is the raw hook for hand-crafted or randomized histories.
    pub fn with_resize_requests(mut self, resizes: Vec<ResizeRequest>) -> Self {
        let horizon = self.sim.horizon;
        self.resizes = resizes;
        self.resizes.retain(|r| r.at < horizon);
        self
    }

    /// The combined environment axis used by the elasticity experiments:
    /// the scaled fleet ([`Scenario::scaled`]) with 150 % CPU / 120 %
    /// memory overbooking and the moderate elasticity overlay. The
    /// acceptance scenario for the overbooking work is
    /// `overbooked_elastic(1_000, seed)` over 7 days.
    pub fn overbooked_elastic(pm_count: usize, seed: u64) -> Self {
        let mut s = Self::scaled(pm_count, seed)
            .with_overbooking(OverbookRatios::cpu_mem(150, 120))
            .with_elasticity(&ElasticityProfile::moderate());
        s.name = format!("overbooked-elastic-{pm_count}pm");
        s
    }

    /// The paper fleet with overbooking and moderate elasticity — the
    /// 100-PM member of the environment × policy taxonomy sweep.
    pub fn paper_overbooked(seed: u64) -> Self {
        let mut s = Self::paper(seed)
            .with_overbooking(OverbookRatios::cpu_mem(150, 120))
            .with_elasticity(&ElasticityProfile::moderate());
        s.name = "paper-week-overbooked".into();
        s
    }

    /// Overrides the simulator configuration.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Applies a reliability model to the fleet (e.g. jittered per-PM
    /// scores so the `rel` factor differentiates machines).
    pub fn with_reliability(mut self, model: ReliabilityModel) -> Self {
        model.apply(&mut self.fleet, self.sim.seed);
        self
    }

    /// Mutable access to the request list (for scenario surgery in tests).
    pub fn requests_mut(&mut self) -> &mut Vec<VmSpec> {
        &mut self.requests
    }

    /// The request list.
    pub fn requests(&self) -> &[VmSpec] {
        &self.requests
    }

    /// The attached resize (vertical-elasticity) requests.
    pub fn resizes(&self) -> &[ResizeRequest] {
        &self.resizes
    }

    /// The fleet template.
    pub fn fleet(&self) -> &Datacenter {
        &self.fleet
    }

    /// Builds the simulation of this scenario under `policy`, ready to
    /// run; an error when the inputs are invalid (see
    /// [`Simulation::try_new`]). The scenario itself is unchanged.
    pub fn simulation(&self, policy: Box<dyn PlacementPolicy>) -> Result<Simulation, String> {
        Ok(Simulation::try_new(
            self.fleet.clone(),
            self.requests.clone(),
            policy,
            self.sim.clone(),
        )?
        .with_resizes(self.resizes.clone()))
    }

    fn build(&self, policy: Box<dyn PlacementPolicy>) -> Simulation {
        self.simulation(policy)
            .unwrap_or_else(|e| panic!("invalid simulation input: {e}"))
    }

    /// Runs the scenario under `policy`. The scenario itself is unchanged
    /// and can be re-run with another policy on identical inputs.
    ///
    /// # Panics
    /// Panics on invalid inputs; [`simulation`](Self::simulation) returns
    /// the error instead.
    pub fn run(&self, policy: Box<dyn PlacementPolicy>) -> RunReport {
        self.build(policy).run()
    }

    /// Like [`run`](Self::run), additionally returning the number of
    /// events the engine processed (for events/sec throughput rows).
    pub fn run_counting(&self, policy: Box<dyn PlacementPolicy>) -> (RunReport, u64) {
        self.build(policy).run_counting()
    }

    /// The mean offered load in VM-slots (total core·seconds of work over
    /// the horizon) — a quick feasibility check for custom scenarios.
    pub fn mean_offered_concurrency(&self) -> f64 {
        let horizon = self.sim.horizon.as_secs_f64();
        if horizon == 0.0 {
            return 0.0;
        }
        let core_secs: f64 = self
            .requests
            .iter()
            .map(|r| r.actual_runtime.as_secs_f64() * r.resources.get(0) as f64)
            .sum();
        core_secs / horizon
    }

    /// A shortened name + seed tag (report labels).
    pub fn label(&self) -> String {
        format!("{} (seed {})", self.name, self.sim.seed)
    }

    /// Horizon in days (rounded down).
    pub fn days(&self) -> u64 {
        self.sim.horizon.as_secs() / SimDuration::DAY.as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmp_placement::FirstFit;

    #[test]
    fn paper_scenario_shape() {
        let s = Scenario::paper(42);
        assert_eq!(s.fleet().len(), 100);
        assert_eq!(s.days(), 7);
        let n = s.requests().len() as f64;
        assert!((n - 4_574.0).abs() < 4_574.0 * 0.05, "requests {n}");
        // Feasible under the 500-slot fleet.
        let load = s.mean_offered_concurrency();
        assert!(load < 450.0, "offered load {load}");
    }

    #[test]
    fn scaled_scenario_shape() {
        let s = Scenario::scaled(1_000, 42);
        assert_eq!(s.fleet().len(), 1_000);
        assert_eq!(s.days(), 7);
        // ~5 VM requests per PM over the week.
        let n = s.requests().len() as f64;
        let expected = 4_574.0 * 1_000.0 / 915.0;
        assert!((n - expected).abs() < expected * 0.05, "requests {n}");
        // The class mix stays 1:3 fast:slow.
        let fast = s
            .fleet()
            .pms()
            .iter()
            .filter(|p| p.class.name == PmClass::paper_fast().name)
            .count();
        assert_eq!(fast, 250);
    }

    #[test]
    fn with_days_truncates_requests_and_horizon() {
        let s = Scenario::paper(42).with_days(2);
        assert_eq!(s.days(), 2);
        assert!(s
            .requests()
            .iter()
            .all(|r| r.submit_time < SimTime::from_days(2)));
        let full = Scenario::paper(42);
        assert!(s.requests().len() < full.requests().len());
    }

    #[test]
    fn runs_do_not_consume_the_scenario() {
        let s = Scenario::paper(42).with_days(1);
        let a = s.run(Box::new(FirstFit));
        let b = s.run(Box::new(FirstFit));
        assert_eq!(a.total_arrivals, b.total_arrivals);
        assert_eq!(a.total_energy_kwh, b.total_energy_kwh);
    }

    #[test]
    fn scenario_serializes_bit_exactly() {
        let s = Scenario::paper(42).with_days(1);
        let json = serde_json::to_string(&s).expect("serializable");
        let back: Scenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.name, s.name);
        assert_eq!(back.requests(), s.requests());
        assert_eq!(back.fleet().len(), s.fleet().len());
        // A reloaded scenario reproduces the original run exactly.
        let a = s.run(Box::new(FirstFit));
        let b = back.run(Box::new(FirstFit));
        assert_eq!(a.total_energy_kwh, b.total_energy_kwh);
        assert_eq!(a.hourly_active_servers, b.hourly_active_servers);
    }

    #[test]
    fn overbooked_elastic_scenario_shape() {
        let s = Scenario::paper_overbooked(42).with_days(1);
        // Every PM carries the ratios; virtual capacity strictly exceeds
        // physical on the CPU dimension.
        for pm in s.fleet().pms() {
            assert_eq!(pm.overbook, Some(OverbookRatios::cpu_mem(150, 120)));
            assert!(pm.virtual_capacity().get(0) > pm.class.capacity.get(0));
        }
        // The overlay produced events inside the truncated horizon.
        assert!(!s.resizes().is_empty());
        assert!(s.resizes().iter().all(|r| r.at < SimTime::from_days(1)));
        // Sized like the taxonomy table expects: moderate profile over
        // the day-1 requests.
        let expect = ElasticityProfile::moderate().expected_events(s.requests().len());
        assert!((s.resizes().len() as f64) < expect * 2.0);
    }

    #[test]
    fn identity_overbooking_is_a_no_op() {
        let s = Scenario::paper(42).with_overbooking(OverbookRatios::cpu_mem(100, 100));
        assert!(s.fleet().pms().iter().all(|pm| pm.overbook.is_none()));
    }

    #[test]
    fn elastic_run_applies_resizes_and_stays_deterministic() {
        let s = Scenario::overbooked_elastic(40, 42).with_days(1);
        let a = s.run(Box::new(FirstFit));
        let b = s.run(Box::new(FirstFit));
        assert!(a.total_resizes > 0, "overlay must reach the simulator");
        assert_eq!(a.total_resizes, b.total_resizes);
        assert_eq!(a.sla_violation_seconds, b.sla_violation_seconds);
        assert_eq!(a.total_energy_kwh, b.total_energy_kwh);
    }

    #[test]
    fn legacy_scenario_json_without_resizes_parses() {
        let s = Scenario::paper(42).with_days(1);
        let json = serde_json::to_string(&s).expect("serializable");
        assert!(json.contains("\"resizes\":[]"), "field serialized");
        let legacy = json.replace("\"resizes\":[],", "");
        assert_ne!(legacy, json, "field stripped to emulate an old file");
        let back: Scenario = serde_json::from_str(&legacy).expect("legacy parse");
        assert!(back.resizes().is_empty());
        assert_eq!(back.requests().len(), s.requests().len());
    }

    #[test]
    fn elastic_scenario_serializes_bit_exactly() {
        let s = Scenario::paper_overbooked(42).with_days(1);
        let json = serde_json::to_string(&s).expect("serializable");
        let back: Scenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.resizes(), s.resizes());
        let a = s.run(Box::new(FirstFit));
        let b = back.run(Box::new(FirstFit));
        assert_eq!(a.total_resizes, b.total_resizes);
        assert_eq!(a.sla_violation_seconds, b.sla_violation_seconds);
    }

    #[test]
    fn request_ids_are_dense_from_one() {
        let s = Scenario::paper(42).with_days(1);
        let ids: Vec<u32> = s.requests().iter().map(|r| r.id.0).collect();
        assert_eq!(ids[0], 1);
        assert!(ids.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn heterogeneous_scaled_fleets_vary_per_pm() {
        for s in [
            Scenario::scaled_jittered(100, 0.004, 42),
            Scenario::scaled_age_decayed(100, 5.0, 0.01, 42),
        ] {
            let rels: Vec<f64> = s.fleet().pms().iter().map(|pm| pm.reliability).collect();
            let distinct = {
                let mut bits: Vec<u64> = rels.iter().map(|r| r.to_bits()).collect();
                bits.sort_unstable();
                bits.dedup();
                bits.len()
            };
            assert!(
                distinct > 10,
                "{}: per-PM continuum expected, got {distinct} distinct scores",
                s.name
            );
            assert!(rels.iter().all(|&r| r > 0.0 && r <= 1.0), "{}", s.name);
            // Same seed, same fleet: the model is deterministic.
            let again = Scenario::scaled_jittered(100, 0.004, 42);
            let b: Vec<u64> = again
                .fleet()
                .pms()
                .iter()
                .map(|pm| pm.reliability.to_bits())
                .collect();
            let a: Vec<u64> = Scenario::scaled_jittered(100, 0.004, 42)
                .fleet()
                .pms()
                .iter()
                .map(|pm| pm.reliability.to_bits())
                .collect();
            assert_eq!(a, b);
        }
    }
}
