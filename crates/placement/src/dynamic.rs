//! The paper's contribution: statistical dynamic VM placement
//! (Algorithm 1 + the new-arrival column of Section III-C).
//!
//! A triggering event (arrival, departure, PM failure) starts a planning
//! pass:
//!
//! 1. build the joint probability matrix `P` over available PMs ×
//!    migratable VMs;
//! 2. normalize each column by the VM's current-host probability (`D`);
//! 3. while some `d_ij > MIG_threshold` and fewer than `MIG_round` moves
//!    have been taken: take the largest entry, apply the move to the plan,
//!    and refresh only the two affected PM rows and the moved VM column.
//!
//! [`DynamicPlacement`] runs every pass on the class-compressed planner
//! (`compressed.rs`), which never materializes `P`: it keeps the fleet's
//! rows collapsed into superclass level tables, patched from the
//! fleet-delta journal, and reproduces the definition's moves bit for
//! bit. The definition itself — the M×N matrix, recomputed every round —
//! is the test-only executable specification (`spec/spec.rs`).

use crate::compressed::CompressedPlanner;
use crate::config::DynamicConfig;
use crate::policy::KeyedFactor;
use crate::policy::{Migration, PlacementPolicy, PlacementView};
use dvmp_cluster::datacenter::Datacenter;
use dvmp_cluster::pm::PmId;
use dvmp_cluster::vm::VmSpec;
use dvmp_cluster::FleetDelta;
use std::sync::Arc;

/// The dynamic placement scheme.
#[derive(Debug, Clone)]
pub struct DynamicPlacement {
    cfg: DynamicConfig,
    /// Migration rounds executed across the scheme's lifetime (observability).
    total_migrations: u64,
    /// Planning passes that hit the `MIG_round` cap.
    round_cap_hits: u64,
    /// Fleet-delta journal accumulated (via
    /// [`PlacementPolicy::note_fleet_delta`]) since the last planning pass.
    pending_delta: Option<FleetDelta>,
    /// The class-compressed planner (kept across passes; see
    /// `compressed.rs`). It also holds the registered extension factors.
    comp: CompressedPlanner,
    /// Planning passes run.
    compressed_passes: u64,
}

impl DynamicPlacement {
    /// Creates the scheme with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`DynamicConfig::validate`]).
    pub fn new(cfg: DynamicConfig) -> Self {
        cfg.validate().expect("invalid DynamicConfig");
        DynamicPlacement {
            cfg,
            total_migrations: 0,
            round_cap_hits: 0,
            pending_delta: None,
            comp: CompressedPlanner::new(Vec::new()),
            compressed_passes: 0,
        }
    }

    /// Registers an extension factor (Section III-B: "easy to be extended
    /// to accommodate other constraints"); it multiplies into every matrix
    /// entry after the built-in four. Factors apply in registration order.
    pub fn with_factor(mut self, factor: Arc<dyn KeyedFactor>) -> Self {
        self.comp.push_factor(factor);
        self
    }

    /// The registered extension factors.
    pub fn extra_factors(&self) -> &[Arc<dyn KeyedFactor>] {
        self.comp.factors()
    }

    /// The scheme with the paper's default parameters
    /// (`MIG_threshold = 1.05`, `MIG_round = 20`).
    pub fn paper_default() -> Self {
        Self::new(DynamicConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &DynamicConfig {
        &self.cfg
    }

    /// Total migrations proposed so far.
    pub fn total_migrations(&self) -> u64 {
        self.total_migrations
    }

    /// Number of planning passes that were stopped by the round cap rather
    /// than the threshold.
    pub fn round_cap_hits(&self) -> u64 {
        self.round_cap_hits
    }

    /// Planning passes run so far (each on the class-compressed kernel).
    pub fn compressed_passes(&self) -> u64 {
        self.compressed_passes
    }

    /// Superclass count in the compressed planner — the row dimension `C`
    /// the compressed kernel sweeps instead of the fleet's `M` PMs (0
    /// before the first pass).
    pub fn compressed_superclasses(&self) -> usize {
        self.comp.superclass_count()
    }

    /// Active per-PM rows mirrored by the compressed planner (`M` for the
    /// powered fleet; 0 before the first pass).
    pub fn compressed_active_rows(&self) -> usize {
        self.comp.active_row_count()
    }

    /// Superclass level buckets currently holding at least one row — how
    /// evenly the tolerance bucketing spread the fleet (0 before the first
    /// pass).
    pub fn compressed_occupied_buckets(&self) -> usize {
        self.comp.occupied_buckets()
    }

    /// The compressed planner, for white-box tests of its registries.
    #[cfg(test)]
    pub(crate) fn planner(&self) -> &CompressedPlanner {
        &self.comp
    }

    fn count_pass(&mut self, moves: &[Migration], capped: bool) {
        self.compressed_passes += 1;
        self.total_migrations += moves.len() as u64;
        if capped {
            self.round_cap_hits += 1;
        }
    }
}

impl PlacementPolicy for DynamicPlacement {
    fn name(&self) -> &'static str {
        "dynamic"
    }

    /// New-arrival placement (Section III-C): the new VM's column and its
    /// argmax. If virtualization overheads zero the whole column while
    /// capacity exists (estimates shorter than `T_cre+T_mig`), fall back to
    /// the overhead-free column so feasible requests are never starved
    /// (DESIGN.md I9).
    fn place(&mut self, view: &PlacementView<'_>, vm: &VmSpec) -> Option<PmId> {
        let delta = self.pending_delta.take();
        let _span = dvmp_obs::span!(dvmp_obs::Phase::CompressedPlan);
        self.comp.place(view, vm, delta, &self.cfg)
    }

    fn plan_migrations(&mut self, view: &PlacementView<'_>) -> Vec<Migration> {
        let delta = self.pending_delta.take();
        let _span = dvmp_obs::span!(dvmp_obs::Phase::CompressedPlan);
        let (moves, capped) = self.comp.plan_migrations(view, delta, &self.cfg);
        self.count_pass(&moves, capped);
        dvmp_obs::note_plan_kernel_compressed(
            view.dc.non_idle_count() as u64,
            view.vms.len() as u64,
        );
        moves
    }

    fn is_dynamic(&self) -> bool {
        true
    }

    fn note_fleet_delta(&mut self, delta: FleetDelta) {
        match &mut self.pending_delta {
            Some(pending) => pending.merge(delta),
            None => self.pending_delta = Some(delta),
        }
    }

    fn check_inputs(&self, fleet: &Datacenter, requests: &[VmSpec]) -> Result<(), String> {
        self.cfg.check_inputs(fleet, requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::*;
    use crate::spec::Spec;
    use dvmp_cluster::vm::VmId;
    use dvmp_cluster::VmTable;
    use dvmp_simcore::SimTime;

    /// The executable specification the production planner must agree
    /// with.
    fn reference() -> Spec {
        Spec::new(DynamicConfig::default())
    }

    fn view_of<'a>(
        dc: &'a dvmp_cluster::datacenter::Datacenter,
        vms: &'a VmTable,
        now: u64,
    ) -> PlacementView<'a> {
        PlacementView {
            dc,
            vms,
            now: SimTime::from_secs(now),
        }
    }

    #[test]
    fn consolidates_fragmented_fleet() {
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        // One long-lived VM on each of the four PMs: a maximally
        // fragmented state that first-fit/best-fit would leave alone.
        for (i, pm) in [0u32, 1, 2, 3].iter().enumerate() {
            install(
                &mut dc,
                &mut vms,
                spec(i as u32 + 1, 512, 200_000),
                PmId(*pm),
                SimTime::ZERO,
            );
        }
        let mut policy = DynamicPlacement::paper_default();
        let moves = policy.plan_migrations(&view_of(&dc, &vms, 0));
        assert_eq!(moves.len(), 3, "three of the four VMs consolidate");
        // Eq. 5 rewards the highest utilization-*level* fraction, so the
        // scheme packs everything onto one machine (here the slow PM that
        // ends up completely full — w_j = W_j beats a half-filled fast PM).
        let target = moves[0].to;
        assert!(moves.iter().all(|m| m.to == target), "moves: {moves:?}");
        // No VM moves twice.
        let moved: Vec<VmId> = moves.iter().map(|m| m.vm).collect();
        let mut dedup = moved.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(moved.len(), dedup.len());
        // End state: exactly one PM hosts all four VMs.
        let mut occupied: std::collections::BTreeSet<PmId> =
            vms.values().filter_map(|v| v.current_host()).collect();
        for m in &moves {
            occupied.remove(&m.from);
            occupied.insert(m.to);
        }
        assert_eq!(occupied.len(), 1, "fully consolidated");
    }

    #[test]
    fn respects_round_cap() {
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        for (i, pm) in [0u32, 1, 2, 3].iter().enumerate() {
            install(
                &mut dc,
                &mut vms,
                spec(i as u32 + 1, 512, 200_000),
                PmId(*pm),
                SimTime::ZERO,
            );
        }
        let mut cfg = DynamicConfig::default();
        cfg.mig_round = 1;
        let mut policy = DynamicPlacement::new(cfg);
        let moves = policy.plan_migrations(&view_of(&dc, &vms, 0));
        assert_eq!(moves.len(), 1);
        assert_eq!(policy.round_cap_hits(), 1);
    }

    #[test]
    fn high_threshold_blocks_marginal_moves() {
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        for (i, pm) in [0u32, 1, 2, 3].iter().enumerate() {
            install(
                &mut dc,
                &mut vms,
                spec(i as u32 + 1, 512, 200_000),
                PmId(*pm),
                SimTime::ZERO,
            );
        }
        let mut cfg = DynamicConfig::default();
        cfg.mig_threshold = 1e9; // nothing clears this bar
        let mut policy = DynamicPlacement::new(cfg);
        assert!(policy.plan_migrations(&view_of(&dc, &vms, 0)).is_empty());
        assert_eq!(policy.round_cap_hits(), 0, "terminated by threshold");
    }

    #[test]
    fn vms_about_to_finish_stay_put() {
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        // Two VMs, each alone on a PM, but with almost no remaining time:
        // Eq. 3 zeroes every non-host entry.
        install(&mut dc, &mut vms, spec(1, 512, 60), PmId(0), SimTime::ZERO);
        install(&mut dc, &mut vms, spec(2, 512, 60), PmId(2), SimTime::ZERO);
        let mut policy = DynamicPlacement::paper_default();
        let moves = policy.plan_migrations(&view_of(&dc, &vms, 0));
        assert!(moves.is_empty(), "no time to amortize a migration");
    }

    #[test]
    fn already_consolidated_fleet_is_stable() {
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        for i in 0..4 {
            install(
                &mut dc,
                &mut vms,
                spec(i + 1, 512, 200_000),
                PmId(0),
                SimTime::ZERO,
            );
        }
        let mut policy = DynamicPlacement::paper_default();
        let moves = policy.plan_migrations(&view_of(&dc, &vms, 0));
        assert!(moves.is_empty(), "a packed fleet has nothing above 1.05");
    }

    #[test]
    fn place_prefers_fuller_efficient_pm() {
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        install(
            &mut dc,
            &mut vms,
            spec(1, 512, 100_000),
            PmId(0),
            SimTime::ZERO,
        );
        let mut policy = DynamicPlacement::paper_default();
        let pm = policy
            .place(&view_of(&dc, &vms, 0), &spec(2, 512, 100_000))
            .unwrap();
        assert_eq!(pm, PmId(0), "join the already-active fast PM");
    }

    #[test]
    fn place_falls_back_for_ultra_short_jobs() {
        let dc = small_fleet();
        let vms = VmTable::new();
        let mut policy = DynamicPlacement::paper_default();
        // 50 s estimate < T_cre + T_mig on every class: the joint column is
        // all-zero, but capacity exists → fallback must place it.
        let pm = policy.place(&view_of(&dc, &vms, 0), &spec(1, 512, 50));
        assert!(pm.is_some(), "DESIGN.md I9 fallback");
    }

    #[test]
    fn place_returns_none_when_fleet_is_full() {
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        let mut id = 1;
        for pm in 0..4u32 {
            let cap = dc.pm(PmId(pm)).capacity().get(0);
            for _ in 0..cap {
                install(
                    &mut dc,
                    &mut vms,
                    spec(id, 256, 100_000),
                    PmId(pm),
                    SimTime::ZERO,
                );
                id += 1;
            }
        }
        let mut policy = DynamicPlacement::paper_default();
        assert_eq!(
            policy.place(&view_of(&dc, &vms, 0), &spec(id, 256, 100_000)),
            None
        );
    }

    #[test]
    fn planning_is_deterministic() {
        let build = || {
            let mut dc = small_fleet();
            let mut vms = VmTable::new();
            for (i, pm) in [0u32, 1, 2, 3, 2, 3].iter().enumerate() {
                install(
                    &mut dc,
                    &mut vms,
                    spec(i as u32 + 1, 512, 150_000 + i as u64 * 1_000),
                    PmId(*pm),
                    SimTime::ZERO,
                );
            }
            (dc, vms)
        };
        let (dc1, vms1) = build();
        let (dc2, vms2) = build();
        let mut p1 = DynamicPlacement::paper_default();
        let mut p2 = DynamicPlacement::paper_default();
        assert_eq!(
            p1.plan_migrations(&view_of(&dc1, &vms1, 0)),
            p2.plan_migrations(&view_of(&dc2, &vms2, 0))
        );
    }

    #[test]
    fn migrations_never_violate_capacity_in_plan() {
        // Stress: 30 VMs over the fleet, then plan: the batch stays
        // within the round budget and, applied in order, within capacity.
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        let mut id = 1u32;
        for pm in [0u32, 1, 2, 3, 0, 1, 2, 3, 0, 1] {
            for _ in 0..2 {
                if dc
                    .pm(PmId(pm))
                    .can_host(&dvmp_cluster::resources::ResourceVector::cpu_mem(1, 512))
                {
                    install(
                        &mut dc,
                        &mut vms,
                        spec(id, 512, 150_000),
                        PmId(pm),
                        SimTime::ZERO,
                    );
                    id += 1;
                }
            }
        }
        let mut policy = DynamicPlacement::paper_default();
        let moves = policy.plan_migrations(&view_of(&dc, &vms, 0));
        assert!(moves.len() <= policy.config().mig_round as usize);
        // Applied in order, every move fits its destination.
        for m in &moves {
            let res = *vms[m.vm].demand();
            assert!(dc.pm(m.to).can_host(&res), "{m:?} overfills its target");
            dc.begin_migration(m.vm, m.to, res).unwrap();
            dc.finish_migration(m.vm, m.from).unwrap();
        }
    }

    #[test]
    fn reused_arena_matches_fresh_policy() {
        // One policy planning twice (its planner state reused, second pass
        // over a different fleet state) must produce exactly what fresh
        // policies — and the specification — produce for each pass.
        let build = |extra_on_pm3: bool| {
            let mut dc = small_fleet();
            let mut vms = VmTable::new();
            for (i, pm) in [0u32, 1, 2].iter().enumerate() {
                install(
                    &mut dc,
                    &mut vms,
                    spec(i as u32 + 1, 512, 200_000),
                    PmId(*pm),
                    SimTime::ZERO,
                );
            }
            if extra_on_pm3 {
                install(
                    &mut dc,
                    &mut vms,
                    spec(9, 512, 180_000),
                    PmId(3),
                    SimTime::ZERO,
                );
            }
            (dc, vms)
        };
        let mut reused = DynamicPlacement::paper_default();
        let (dc_a, vms_a) = build(false);
        let (dc_b, vms_b) = build(true);
        let first = reused.plan_migrations(&view_of(&dc_a, &vms_a, 0));
        let second = reused.plan_migrations(&view_of(&dc_b, &vms_b, 100));

        let mut fresh_a = DynamicPlacement::paper_default();
        let mut fresh_b = DynamicPlacement::paper_default();
        assert_eq!(first, fresh_a.plan_migrations(&view_of(&dc_a, &vms_a, 0)));
        assert_eq!(
            first,
            reference().plan_migrations(&view_of(&dc_a, &vms_a, 0))
        );
        assert_eq!(
            second,
            fresh_b.plan_migrations(&view_of(&dc_b, &vms_b, 100))
        );
        // place() shares the planner state with plan_migrations;
        // interleaving must not corrupt either.
        let p_reused = reused.place(&view_of(&dc_b, &vms_b, 100), &spec(50, 512, 100_000));
        let p_fresh = fresh_b.place(&view_of(&dc_b, &vms_b, 100), &spec(50, 512, 100_000));
        assert_eq!(p_reused, p_fresh);
        assert_eq!(
            p_reused,
            reference().place(&view_of(&dc_b, &vms_b, 100), &spec(50, 512, 100_000))
        );
    }

    #[test]
    fn reference_kernel_plans_identical_moves() {
        let build = || {
            let mut dc = small_fleet();
            let mut vms = VmTable::new();
            for (i, pm) in [0u32, 1, 2, 3, 2, 3].iter().enumerate() {
                install(
                    &mut dc,
                    &mut vms,
                    spec(i as u32 + 1, 512, 150_000 + i as u64 * 1_000),
                    PmId(*pm),
                    SimTime::ZERO,
                );
            }
            (dc, vms)
        };
        let (dc1, vms1) = build();
        let (dc2, vms2) = build();
        // The specification and the production planner.
        let mut production = DynamicPlacement::paper_default();
        let moves = production.plan_migrations(&view_of(&dc1, &vms1, 0));
        assert_eq!(moves, reference().plan_migrations(&view_of(&dc2, &vms2, 0)));
        assert_eq!(production.total_migrations(), moves.len() as u64);
        assert!(production.total_migrations() > 0);
    }

    #[test]
    fn repair_heuristics_match_naive_full_rescan() {
        // Fragmented, stressed and mixed fleets, plus a tie: the production
        // round loop must yield exactly the definition's migration sequence
        // on each — the specification's, which recomputes every entry each
        // round.
        let uniform = |hosts: &[u32]| -> Vec<(u32, u64, u64)> {
            let spaced = |(i, &pm): (usize, &u32)| (pm, 512, 150_000 + i as u64 * 3_000);
            hosts.iter().enumerate().map(spaced).collect()
        };
        // `(fast PMs, slow PMs, VMs as (host, MiB, estimated secs))`.
        let shapes = [
            (2, 2, uniform(&[0, 1, 2, 3])),
            (2, 2, uniform(&[0, 1, 2, 3, 0, 1, 2, 3, 0, 1])),
            (2, 2, uniform(&[2, 3, 2, 3, 1])),
            // Rounds 2–3 move two VMs off full slow PM 4, which rises to
            // tie slow PM 5 for VM 4 (same superclass, same level); the
            // lower row must win the tie, as in a full rescan.
            (3, 3, TIE_SHAPE.to_vec()),
        ];
        for (shape_no, (fast, slow, shape)) in shapes.iter().enumerate() {
            let mut dc = dvmp_cluster::datacenter::FleetBuilder::new()
                .add_class(dvmp_cluster::pm::PmClass::paper_fast(), *fast, 0.99)
                .add_class(dvmp_cluster::pm::PmClass::paper_slow(), *slow, 0.95)
                .initially_on(true)
                .build();
            let mut vms = VmTable::new();
            for (i, &(pm, mem, est)) in shape.iter().enumerate() {
                install(
                    &mut dc,
                    &mut vms,
                    spec(i as u32 + 1, mem, est),
                    PmId(pm),
                    SimTime::ZERO,
                );
            }
            let view = view_of(&dc, &vms, 0);
            let expected = reference().plan_migrations(&view);
            assert!(!expected.is_empty(), "shape {shape_no} plans nothing");
            assert_eq!(
                DynamicPlacement::paper_default().plan_migrations(&view),
                expected,
                "shape {shape_no}: round loop diverged from full rescan"
            );
        }
    }

    /// A 3 fast + 3 slow fleet on which the round loop meets a tie at a
    /// row a move vacated: see `repair_heuristics_match_naive_full_rescan`.
    const TIE_SHAPE: [(u32, u64, u64); 15] = [
        (4, 256, 197_324),
        (2, 1024, 8_909),
        (1, 256, 193_111),
        (1, 1024, 99_604),
        (4, 1024, 123_529),
        (3, 2048, 125_867),
        (3, 2048, 87_194),
        (2, 2048, 31_577),
        (4, 512, 175_543),
        (5, 1024, 190_410),
        (4, 1024, 54_229),
        (1, 1024, 32_396),
        (2, 2048, 53_242),
        (2, 2048, 28_464),
        (5, 1024, 91_348),
    ];

    #[test]
    fn incremental_pass_matches_full_rebuild_planner() {
        // Drive the journal-fed production policy and the specification
        // (which rebuilds every pass and never reads the journal) through
        // the same fleet history; every pass must propose identical moves.
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        // Consolidated start: four VMs on PM 0, nothing to do in pass 1.
        for i in 0..4 {
            install(
                &mut dc,
                &mut vms,
                spec(i + 1, 512, 200_000),
                PmId(0),
                SimTime::ZERO,
            );
        }
        let mut inc = DynamicPlacement::paper_default();
        let mut full = reference();

        inc.note_fleet_delta(dc.take_fleet_delta());
        let m1 = inc.plan_migrations(&view_of(&dc, &vms, 0));
        assert_eq!(m1, full.plan_migrations(&view_of(&dc, &vms, 0)));
        assert!(m1.is_empty(), "consolidated fleet is stable");

        // A lone arrival on slow PM 2: the journal dirties exactly that PM
        // and VM, so pass 2 patches the persistent planner.
        install(
            &mut dc,
            &mut vms,
            spec(9, 512, 150_000),
            PmId(2),
            SimTime::from_secs(100),
        );
        inc.note_fleet_delta(dc.take_fleet_delta());
        let m2 = inc.plan_migrations(&view_of(&dc, &vms, 100));
        assert_eq!(m2, full.plan_migrations(&view_of(&dc, &vms, 100)));
        assert_eq!(m2.len(), 1, "the straggler consolidates");

        // Pass 3: the straggler departs again (journals its host PM 2,
        // which the pass-2 move endpoints already dirty), plus more time
        // decay.
        dc.remove_vm(VmId(9));
        vms.remove(VmId(9));
        inc.note_fleet_delta(dc.take_fleet_delta());
        let m3 = inc.plan_migrations(&view_of(&dc, &vms, 200));
        assert_eq!(m3, full.plan_migrations(&view_of(&dc, &vms, 200)));
        assert!(m3.is_empty(), "back to the consolidated state");
        assert_eq!(inc.compressed_passes(), 3);
    }

    #[test]
    fn incremental_planner_handles_missing_journal() {
        // plan_migrations without note_fleet_delta (no journal source at
        // all) must rebuild from the view every pass and still plan
        // correctly.
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        for (i, pm) in [0u32, 1, 2, 3].iter().enumerate() {
            install(
                &mut dc,
                &mut vms,
                spec(i as u32 + 1, 512, 200_000),
                PmId(*pm),
                SimTime::ZERO,
            );
        }
        let mut policy = DynamicPlacement::paper_default();
        let first = policy.plan_migrations(&view_of(&dc, &vms, 0));
        assert_eq!(first.len(), 3);
        let again = policy.plan_migrations(&view_of(&dc, &vms, 0));
        assert_eq!(first, again, "same view, same plan");
        assert_eq!(policy.compressed_passes(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid DynamicConfig")]
    fn invalid_config_is_rejected() {
        let mut cfg = DynamicConfig::default();
        cfg.mig_threshold = 0.0;
        DynamicPlacement::new(cfg);
    }
}
