//! Property-based integration tests: randomized fleets, VM populations
//! and request streams, checked against the invariants the paper's
//! algorithm must uphold no matter the input.

#[path = "../crates/placement/spec/spec.rs"]
mod spec;

use dvmp::prelude::*;
use dvmp_cluster::datacenter::Datacenter;
use dvmp_cluster::reliability::ReliabilityModel;
use dvmp_cluster::vm::{Vm, VmState};
use dvmp_cluster::{FleetOp, VmTable};
use dvmp_placement::policy::PlacementView;
use dvmp_placement::KeyedFactor;
use proptest::prelude::*;
use spec::Spec;
use std::sync::Arc;

/// The production planner with its fleet-delta journal dropped: no pass
/// has a journal to patch its compressed mirror from, so every pass
/// rebuilds it from the view — the fresh-rebuild twin the journal-driven
/// patch must match.
struct FreshRebuild(DynamicPlacement);

impl PlacementPolicy for FreshRebuild {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn place(&mut self, view: &PlacementView<'_>, vm: &VmSpec) -> Option<PmId> {
        self.0.place(view, vm)
    }

    fn plan_migrations(&mut self, view: &PlacementView<'_>) -> Vec<Migration> {
        self.0.plan_migrations(view)
    }

    fn is_dynamic(&self) -> bool {
        true
    }
}

/// The executable specification of the scheme (every entry recomputed
/// every round).
fn reference() -> Spec {
    Spec::new(DynamicConfig::default())
}

/// A hostile dynamic policy: places like first-fit, but answers every
/// consolidation trigger with one migration proposal per running VM whose
/// destination — and sometimes claimed source — is chosen from a random
/// dial stream. That floods the simulator with self-moves, moves onto
/// full/off/failed machines and moves naming the wrong source; apply-time
/// re-validation must drop every unsound one (`skipped_migrations`) while
/// the sound remainder proceed.
struct AdversarialPolicy {
    dials: Vec<u8>,
    cursor: usize,
}

impl AdversarialPolicy {
    fn next(&mut self) -> u8 {
        let b = self.dials[self.cursor % self.dials.len()];
        self.cursor += 1;
        b
    }
}

impl PlacementPolicy for AdversarialPolicy {
    fn name(&self) -> &'static str {
        "adversarial"
    }

    fn place(&mut self, view: &PlacementView<'_>, vm: &VmSpec) -> Option<PmId> {
        view.dc
            .pms()
            .iter()
            .find(|pm| pm.can_host(&vm.resources))
            .map(|pm| pm.id)
    }

    fn plan_migrations(&mut self, view: &PlacementView<'_>) -> Vec<Migration> {
        let n = view.dc.len() as u32;
        let candidates: Vec<(VmId, PmId)> = view
            .migratable_vms()
            .map(|(vm, host)| (vm.spec.id, host))
            .collect();
        candidates
            .into_iter()
            .map(|(vm, host)| {
                let to = PmId(u32::from(self.next()) % n);
                let from = if self.next() % 4 == 0 {
                    PmId(u32::from(self.next()) % n)
                } else {
                    host
                };
                Migration { vm, from, to }
            })
            .collect()
    }

    fn is_dynamic(&self) -> bool {
        true
    }
}

/// A random small fleet: 1–3 fast + 1–4 slow machines, all on.
fn arb_fleet() -> impl Strategy<Value = Datacenter> {
    (1usize..=3, 1usize..=4).prop_map(|(fast, slow)| {
        let mut dc = FleetBuilder::new()
            .add_class(PmClass::paper_fast(), fast, 0.99)
            .add_class(PmClass::paper_slow(), slow, 0.95)
            .initially_on(true)
            .build();
        let _ = &mut dc;
        dc
    })
}

/// Random VM loads: (pm_choice, mem MiB, estimated seconds).
fn arb_loads(max: usize) -> impl Strategy<Value = Vec<(u8, u16, u32)>> {
    prop::collection::vec((any::<u8>(), 128u16..2_048, 120u32..200_000), 1..=max)
}

/// Installs loads onto the fleet wherever they fit (round-robin from the
/// random pm choice), returning the VM map.
fn populate(dc: &mut Datacenter, loads: &[(u8, u16, u32)]) -> VmTable {
    let mut vms = VmTable::new();
    let m = dc.len() as u32;
    for (i, &(pm0, mem, est)) in loads.iter().enumerate() {
        let spec = VmSpec::exact(
            VmId(i as u32 + 1),
            SimTime::ZERO,
            ResourceVector::cpu_mem(1, mem as u64),
            SimDuration::from_secs(est as u64),
        );
        // First PM (scanning from the random start) that fits.
        for k in 0..m {
            let pm = PmId((pm0 as u32 + k) % m);
            if dc.pm(pm).can_host(&spec.resources) {
                let (vm, demand) = (spec.id, spec.resources);
                dc.apply(FleetOp::Place { vm, pm, demand }).unwrap();
                let mut vm = Vm::new(spec.clone());
                vm.state = VmState::Running { pm };
                vm.started_at = Some(SimTime::ZERO);
                vms.insert(vm);
                break;
            }
        }
    }
    vms
}

/// A keyed extension factor for the differential tests: three zones
/// (`PmId % 3`), moves across zones discounted by an amount that changes
/// every simulated hour, new requests steered away from zone 2.
#[derive(Debug)]
struct ZoneFactor;

impl KeyedFactor for ZoneFactor {
    fn name(&self) -> &str {
        "zone"
    }
    fn key_count(&self) -> u16 {
        3
    }
    fn key(&self, pm: PmId) -> u16 {
        (pm.0 % 3) as u16
    }
    fn factor(&self, from: Option<u16>, to: u16, now: SimTime) -> f64 {
        match from {
            Some(from) if from == to => 1.0,
            Some(_) => 0.55 + 0.15 * ((u64::from(to) + now.hour_index()) % 4) as f64,
            None if to == 2 => 0.7,
            None => 1.0,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every round moves the argmax of the definition over the current
    /// state, ties included: on random small fleets whose VMs share a
    /// few memory sizes (so equal scores at different rows are common),
    /// with and without a keyed factor and `p^vir` (without it a score
    /// can reach its bound exactly), the production planner's live
    /// pass proposes exactly the specification's moves.
    #[test]
    fn round_loop_matches_the_dense_reference_on_ties(
        fleet in arb_fleet(),
        loads in prop::collection::vec(
            (any::<u8>(), (0u16..4).prop_map(|k| 256 << k), 120u32..200_000),
            1..=28,
        ),
        keyed in any::<bool>(),
        use_vir in any::<bool>(),
        threshold in 1.0f64..1.3,
        now_s in 0u64..20_000,
    ) {
        let mut dc = fleet;
        let vms = populate(&mut dc, &loads);
        let cfg = DynamicConfig { mig_threshold: threshold, use_vir, ..DynamicConfig::default() };
        let mut production = DynamicPlacement::new(cfg.clone());
        let mut reference = Spec::new(cfg);
        if keyed {
            production = production.with_factor(Arc::new(ZoneFactor));
            reference = reference.with_factor(Arc::new(ZoneFactor));
        }
        let view = PlacementView { dc: &dc, vms: &vms, now: SimTime::from_secs(now_s) };
        prop_assert_eq!(
            production.plan_migrations(&view),
            reference.plan_migrations(&view)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 1 never breaks capacity, never exceeds its round budget,
    /// and leaves the datacenter consistent when its moves are applied.
    #[test]
    fn planned_migrations_respect_capacity_and_budget(
        fleet in arb_fleet(),
        loads in arb_loads(24),
        threshold in 1.0f64..2.0,
        rounds in 1u32..30,
    ) {
        let mut dc = fleet;
        let vms = populate(&mut dc, &loads);
        dc.assert_consistent();

        let mut cfg = DynamicConfig::default();
        cfg.mig_threshold = threshold;
        cfg.mig_round = rounds;
        let mut policy = DynamicPlacement::new(cfg);
        let moves = policy.plan_migrations(&PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        });

        prop_assert!(moves.len() <= rounds as usize);

        // Apply the plan the way the simulator would (sequentially with
        // immediate source release — the plan's own semantics) and verify
        // capacity at every step.
        for m in &moves {
            prop_assert_ne!(m.from, m.to, "self-migration is forbidden");
            let host = dc.host_of(m.vm);
            prop_assert_eq!(host, Some(m.from), "plan tracks hosts correctly");
            let res = *dc.pm(m.from).reservation_of(m.vm).unwrap();
            dc.apply(FleetOp::Remove { vm: m.vm }).unwrap();
            prop_assert!(
                dc.pm(m.to).can_host(&res),
                "move of {} to {} violates capacity", m.vm, m.to
            );
            dc.apply(FleetOp::Place { vm: m.vm, pm: m.to, demand: res }).unwrap();
        }
        dc.assert_consistent();
    }

    /// The `p^eff` ablation plans on one constant level: with `use_eff`
    /// off (and `use_vir` / `use_rel` randomly off too) the production
    /// planner proposes exactly the specification's moves and
    /// placements on random small fleets.
    #[test]
    fn eff_ablation_planner_matches_the_dense_reference(
        fleet in arb_fleet(),
        loads in arb_loads(24),
        switches in 0u8..4,
        threshold in 1.0f64..1.06,
        now_s in 0u64..5_000,
        new_mem in 128u64..2_048,
        new_est in 60u64..200_000,
    ) {
        let mut dc = fleet;
        let vms = populate(&mut dc, &loads);
        let cfg = DynamicConfig {
            use_eff: false,
            use_vir: switches & 1 == 1,
            use_rel: switches & 2 == 2,
            mig_threshold: threshold,
            ..DynamicConfig::default()
        };
        let view = PlacementView { dc: &dc, vms: &vms, now: SimTime::from_secs(now_s) };
        let mut production = DynamicPlacement::new(cfg.clone());
        let mut reference = Spec::new(cfg);
        prop_assert_eq!(
            production.plan_migrations(&view),
            reference.plan_migrations(&view)
        );
        let spec = VmSpec::exact(
            VmId(10_000),
            view.now,
            ResourceVector::cpu_mem(1, new_mem),
            SimDuration::from_secs(new_est),
        );
        prop_assert_eq!(production.place(&view, &spec), reference.place(&view, &spec));
    }

    /// Eq. 3 never migrates a doomed VM: one whose remaining time cannot
    /// cover the overheads a move to its destination charges (`T_cre +
    /// T_mig` as printed, `T_mig` alone under `OverheadMode::Split`) has
    /// `p^vir = 0` on every other row, so the production planner never
    /// proposes it.
    #[test]
    fn doomed_vms_are_never_migrated(
        fleet in arb_fleet(),
        loads in arb_loads(24),
        split in any::<bool>(),
        threshold in 1.0f64..1.2,
        now_s in 0u64..3_000,
    ) {
        let mut dc = fleet;
        let vms = populate(&mut dc, &loads);
        let mode = if split { OverheadMode::Split } else { OverheadMode::PaperJoint };
        let cfg = DynamicConfig {
            overhead_mode: mode,
            mig_threshold: threshold,
            ..DynamicConfig::default()
        };
        let now = SimTime::from_secs(now_s);
        let view = PlacementView { dc: &dc, vms: &vms, now };
        let moves = DynamicPlacement::new(cfg).plan_migrations(&view);
        for m in &moves {
            let remaining = vms[m.vm].estimated_remaining(now).as_secs();
            let class = &dc.pm(m.to).class;
            let charged = match mode {
                OverheadMode::PaperJoint => {
                    class.creation_time.as_secs() + class.migration_time.as_secs()
                }
                OverheadMode::Split => class.migration_time.as_secs(),
            };
            prop_assert!(
                remaining > charged,
                "{} with {} s left moved to {} charging {} s",
                m.vm, remaining, m.to, charged
            );
        }
    }

    /// The probability matrix is always within [0, 1] and exactly
    /// 1-normalized on host rows, before and after a planned move updates
    /// the two rows and the column it touches.
    #[test]
    fn matrix_entries_are_probabilities_and_updates_are_exact(
        fleet in arb_fleet(),
        loads in arb_loads(16),
    ) {
        let mut dc = fleet;
        let vms = populate(&mut dc, &loads);
        let view = PlacementView { dc: &dc, vms: &vms, now: SimTime::ZERO };
        let one_round = Spec::new(DynamicConfig { mig_round: 1, ..DynamicConfig::default() });
        let mut fleet = one_round.fleet(&view);
        prop_assume!(!fleet.cols.is_empty() && fleet.rows.len() >= 2);

        for _pass in 0..2 {
            for row in 0..fleet.rows.len() {
                for col in 0..fleet.cols.len() {
                    let p = one_round.entry(&fleet, row, col);
                    prop_assert!((0.0..=1.0).contains(&p), "p[{row}][{col}] = {p}");
                }
            }
            for col in 0..fleet.cols.len() {
                let host = fleet.cols[col].host;
                if one_round.entry(&fleet, host, col) > 0.0 {
                    prop_assert_eq!(one_round.normalized(&fleet, host, col), 1.0);
                }
            }
            one_round.algorithm1(&mut fleet);
        }
    }

    /// End-to-end conservation on random request streams under the
    /// dynamic policy: every request is accounted for, series lengths
    /// match, hourly energy sums to the total.
    #[test]
    fn random_streams_conserve_requests(
        seeds in prop::collection::vec(any::<u32>(), 3..40),
    ) {
        let mut requests = Vec::new();
        for (i, s) in seeds.iter().enumerate() {
            requests.push(VmSpec::exact(
                VmId(i as u32 + 1),
                SimTime::from_secs((*s as u64) % 40_000),
                ResourceVector::cpu_mem(1, 128 + (*s as u64 % 1_500)),
                SimDuration::from_secs(300 + (*s as u64 % 50_000)),
            ));
        }
        let n = requests.len() as u64;
        let fleet = FleetBuilder::new()
            .add_class(PmClass::paper_fast(), 3, 0.99)
            .add_class(PmClass::paper_slow(), 3, 0.95)
            .build();
        let mut sim = SimConfig::default();
        sim.horizon = SimTime::from_days(1);
        let scenario = Scenario::new("prop", fleet, requests, sim);
        let r = scenario.run(Box::new(DynamicPlacement::paper_default()));

        prop_assert_eq!(r.total_arrivals, n);
        prop_assert_eq!(r.qos.total_requests, n);
        prop_assert!(r.total_departures <= n);
        prop_assert_eq!(r.hourly_active_servers.len(), 24);
        let hourly: f64 = r.hourly_power_kwh.iter().sum();
        prop_assert!((hourly - r.total_energy_kwh).abs() < 1e-6);
    }

    /// Apply-time re-validation holds against an actively hostile policy:
    /// whatever garbage the plan contains, no PM dimension ever exceeds
    /// capacity and no request is lost. The checked-mode oracle audits
    /// every event of the run, so a single transient overshoot anywhere in
    /// the event stream fails the test — not just the final state.
    #[test]
    fn adversarial_plans_never_break_capacity(
        seeds in prop::collection::vec(any::<u32>(), 3..24),
        dials in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        // Long-running requests inside a short arrival window, so several
        // VMs are running (= migratable) at every consolidation trigger.
        let mut requests = Vec::new();
        for (i, s) in seeds.iter().enumerate() {
            requests.push(VmSpec::exact(
                VmId(i as u32 + 1),
                SimTime::from_secs((*s as u64) % 40_000),
                ResourceVector::cpu_mem(1, 128 + (*s as u64 % 1_500)),
                SimDuration::from_secs(40_000 + (*s as u64 % 30_000)),
            ));
        }
        let n = requests.len() as u64;
        let fleet = FleetBuilder::new()
            .add_class(PmClass::paper_fast(), 2, 0.99)
            .add_class(PmClass::paper_slow(), 2, 0.95)
            .build();
        let mut sim = SimConfig::default();
        sim.horizon = SimTime::from_days(1);
        sim.checked = true;
        let scenario = Scenario::new("adversarial", fleet, requests, sim);
        let r = scenario.run(Box::new(AdversarialPolicy { dials, cursor: 0 }));

        prop_assert_eq!(r.total_arrivals, n);
        prop_assert_eq!(r.qos.total_requests, n, "no request lost to bogus plans");
        let oracle = r.oracle.as_ref().expect("checked run attaches a summary");
        prop_assert!(oracle.is_clean(), "{}", oracle.render());
        // The barrage was actually fired: proposals either passed
        // re-validation (migrations) or were dropped (skipped).
        prop_assert!(
            r.skipped_migrations + r.total_migrations > 0,
            "adversary never got to propose anything"
        );
    }
}

proptest! {
    // Each case runs the same day four times; keep the budget modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Elastic histories are kernel- and planner-invariant: a random
    /// request stream plus a random resize history (grows, shrinks,
    /// no-ops, resizes aimed at queued or departed VMs), optionally under
    /// random overbooking ratios, produces bit-identical reports whether
    /// the dynamic scheme plans on the specification or the
    /// class-compressed planner, journal-driven or with per-pass fresh
    /// rebuilds — and the checked-mode oracle stays clean in every run.
    #[test]
    fn elastic_histories_are_kernel_and_planner_invariant(
        seeds in prop::collection::vec(any::<u32>(), 4..16),
        resize_dials in prop::collection::vec(
            (any::<u8>(), 1u64..6, 64u64..4_096, 0u32..80_000),
            1..24,
        ),
        overbook_dial in any::<u16>(),
    ) {
        // A quarter of the cases run without overbooking; the rest draw
        // per-dimension ratios from [100, 300).
        let overbook = if overbook_dial % 4 == 0 {
            None
        } else {
            Some((
                100 + u32::from(overbook_dial) % 200,
                100 + (u32::from(overbook_dial) / 7) % 200,
            ))
        };
        let mut requests = Vec::new();
        for (i, s) in seeds.iter().enumerate() {
            requests.push(VmSpec::exact(
                VmId(i as u32 + 1),
                SimTime::from_secs((*s as u64) % 40_000),
                ResourceVector::cpu_mem(1, 128 + (*s as u64 % 1_500)),
                SimDuration::from_secs(20_000 + (*s as u64 % 40_000)),
            ));
        }
        let n = requests.len() as u32;
        let resizes: Vec<ResizeRequest> = resize_dials
            .iter()
            .map(|&(vm_dial, cores, mem, at)| ResizeRequest {
                vm: VmId(u32::from(vm_dial) % n + 1),
                at: SimTime::from_secs(at as u64),
                new_demand: ResourceVector::cpu_mem(cores, mem),
            })
            .collect();

        let run = |policy: Box<dyn PlacementPolicy>| {
            let fleet = FleetBuilder::new()
                .add_class(PmClass::paper_fast(), 3, 0.99)
                .add_class(PmClass::paper_slow(), 3, 0.95)
                .build();
            let mut sim = SimConfig::default();
            sim.horizon = SimTime::from_days(1);
            sim.checked = true;
            let mut scenario = Scenario::new("elastic-prop", fleet, requests.clone(), sim)
                .with_resize_requests(resizes.clone());
            if let Some((cpu, mem)) = overbook {
                scenario = scenario.with_overbooking(OverbookRatios::cpu_mem(cpu, mem));
            }
            scenario.run(policy)
        };

        let base = run(Box::new(reference()));
        let oracle = base.oracle.as_ref().expect("checked run attaches a summary");
        prop_assert!(oracle.is_clean(), "{}", oracle.render());
        // Every in-horizon resize is accounted for, applied or rejected.
        let in_horizon = resizes
            .iter()
            .filter(|r| r.at < SimTime::from_days(1))
            .count() as u64;
        prop_assert!(base.total_resizes + base.rejected_resizes <= in_horizon);

        let base_json = serde_json::to_string(&base).expect("report serializes");
        let others: [(&str, Box<dyn PlacementPolicy>); 2] = [
            ("fresh rebuild", Box::new(FreshRebuild(DynamicPlacement::paper_default()))),
            ("default", Box::new(DynamicPlacement::paper_default())),
        ];
        for (label, policy) in others {
            let other = run(policy);
            let other_oracle = other.oracle.as_ref().expect("checked");
            prop_assert!(other_oracle.is_clean(), "{}", other_oracle.render());
            let other_json = serde_json::to_string(&other).expect("report serializes");
            prop_assert_eq!(
                &base_json,
                &other_json,
                "report diverged under the {} planner",
                label
            );
        }
    }

    /// Heterogeneous fleets are kernel-invariant: with every PM's
    /// reliability drawn from a continuum (jittered or age-decayed) and a
    /// shared `class_tolerance`, a random elastic history produces
    /// bit-identical reports on the specification and the default
    /// (class-compressed) planner — and the checked-mode oracle stays
    /// clean throughout. The quantized
    /// choke point is the whole contract: every kernel sees the same
    /// bucketed scores, so heterogeneity cannot open a divergence.
    #[test]
    fn heterogeneous_fleets_are_kernel_invariant(
        seeds in prop::collection::vec(any::<u32>(), 4..14),
        resize_dials in prop::collection::vec(
            (any::<u8>(), 1u64..6, 64u64..4_096, 0u32..80_000),
            0..12,
        ),
        hetero_dial in any::<u16>(),
        fleet_seed in any::<u64>(),
    ) {
        let model = if hetero_dial % 2 == 0 {
            ReliabilityModel::Jittered {
                spread: 0.001 + f64::from(hetero_dial % 40) * 0.0001,
            }
        } else {
            ReliabilityModel::AgeDecaying {
                max_age_years: 1.0 + f64::from(hetero_dial % 7),
                annual_decay: 0.002 + f64::from(hetero_dial % 11) * 0.001,
            }
        };
        let tolerance = [0.0, 0.01, 0.05][usize::from(hetero_dial) % 3];
        let mut requests = Vec::new();
        for (i, s) in seeds.iter().enumerate() {
            requests.push(VmSpec::exact(
                VmId(i as u32 + 1),
                SimTime::from_secs((*s as u64) % 40_000),
                ResourceVector::cpu_mem(1, 128 + (*s as u64 % 1_500)),
                SimDuration::from_secs(20_000 + (*s as u64 % 40_000)),
            ));
        }
        let n = requests.len() as u32;
        let resizes: Vec<ResizeRequest> = resize_dials
            .iter()
            .map(|&(vm_dial, cores, mem, at)| ResizeRequest {
                vm: VmId(u32::from(vm_dial) % n + 1),
                at: SimTime::from_secs(at as u64),
                new_demand: ResourceVector::cpu_mem(cores, mem),
            })
            .collect();

        let cfg = DynamicConfig {
            class_tolerance: tolerance,
            ..DynamicConfig::default()
        };
        let run = |policy: Box<dyn PlacementPolicy>| {
            let fleet = FleetBuilder::new()
                .add_class(PmClass::paper_fast(), 3, 0.99)
                .add_class(PmClass::paper_slow(), 3, 0.95)
                .build();
            let mut sim = SimConfig::default();
            sim.horizon = SimTime::from_days(1);
            sim.checked = true;
            sim.seed = fleet_seed;
            let scenario = Scenario::new("hetero-prop", fleet, requests.clone(), sim)
                .with_reliability(model)
                .with_resize_requests(resizes.clone());
            scenario.run(policy)
        };

        let base = run(Box::new(Spec::new(cfg.clone())));
        let oracle = base.oracle.as_ref().expect("checked run attaches a summary");
        prop_assert!(oracle.is_clean(), "{}", oracle.render());
        let base_json = serde_json::to_string(&base).expect("report serializes");
        let other = run(Box::new(DynamicPlacement::new(cfg)));
        let other_oracle = other.oracle.as_ref().expect("checked");
        prop_assert!(other_oracle.is_clean(), "{}", other_oracle.render());
        let other_json = serde_json::to_string(&other).expect("report serializes");
        prop_assert_eq!(
            &base_json,
            &other_json,
            "report diverged under the default planner (tolerance {}, model {:?})",
            tolerance,
            model
        );
    }
}
