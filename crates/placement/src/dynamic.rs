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
//! The argmax search keeps a per-column cache of the best candidate row so
//! a round costs `O(N + M)` instead of `O(M·N)` — the incremental update
//! the paper calls out at the end of Section III-C.

use crate::compressed::{self, CompressedPlanner};
use crate::config::DynamicConfig;
use crate::factors::{self, EvalContext, ExtraFactor};
use crate::matrix::{MatrixKernel, ProbabilityMatrix};
use crate::plan::PlanState;
use crate::policy::{Migration, PlacementPolicy, PlacementView};
use dvmp_cluster::pm::PmId;
use dvmp_cluster::vm::{VmId, VmSpec};
use dvmp_cluster::FleetDelta;
use std::sync::Arc;

/// Dirty-entry fraction above which an incremental pass falls back to a
/// full rebuild: touching most of the matrix through the journal maps
/// costs more than refilling it wholesale.
const REBUILD_THRESHOLD: f64 = 0.5;

/// What the planner remembers about the matrix it kept alive from the
/// previous pass: which PM occupied each row, which VM each column, and
/// which of them the pass itself touched (migration endpoints — dirty next
/// pass even when the simulator ends up skipping the move, since the
/// planner's own targeted recomputes already rewrote those rows/columns
/// against the mutated plan).
#[derive(Debug, Clone, Default)]
struct PassSnapshot {
    /// `false` until a pass leaves a matrix the next pass may extend (no
    /// extra factors, complete eff cache).
    valid: bool,
    /// Row → PM id of the kept matrix, ascending (plan row order).
    row_pms: Vec<PmId>,
    /// Column → VM id of the kept matrix, ascending (plan column order).
    col_vms: Vec<VmId>,
    /// Endpoints of the pass's own proposed migrations.
    touched_pms: Vec<PmId>,
    /// VMs the pass proposed to move.
    touched_vms: Vec<VmId>,
}

impl PassSnapshot {
    fn capture(&mut self, valid: bool, plan: &PlanState, moves: &[Migration]) {
        self.valid = valid;
        self.row_pms.clear();
        self.col_vms.clear();
        self.touched_pms.clear();
        self.touched_vms.clear();
        if !valid {
            return;
        }
        self.row_pms.extend(plan.pms.iter().map(|pm| pm.id));
        self.col_vms.extend(plan.vms.iter().map(|vm| vm.id));
        for m in moves {
            self.touched_pms.push(m.from);
            self.touched_pms.push(m.to);
            self.touched_vms.push(m.vm);
        }
        // Plan rows follow datacenter id order and columns BTreeMap key
        // order, so both maps support binary search.
        debug_assert!(self.row_pms.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(self.col_vms.windows(2).all(|w| w[0] < w[1]));
    }
}

/// Reusable dirty-set / index-mapping buffers for the incremental matrix
/// update (one allocation across passes, like the rest of the arena).
#[derive(Debug, Clone, Default)]
struct IncScratch {
    dirty_rows: Vec<bool>,
    row_src: Vec<u32>,
    dirty_cols: Vec<bool>,
    col_src: Vec<u32>,
}

impl IncScratch {
    /// Classifies every row/column of the new plan against the snapshot
    /// and the drained journal: an entry is *clean* only when it existed
    /// in the kept matrix AND neither the fleet (journal) nor the previous
    /// pass itself (touched sets) laid hands on it — over-reporting dirt
    /// is always sound, under-reporting never happens because every fleet
    /// mutation funnels through the journal. Returns `false` when the
    /// dirty fraction exceeds [`REBUILD_THRESHOLD`] (full rebuild is
    /// cheaper).
    fn prepare(&mut self, plan: &PlanState, snap: &PassSnapshot, delta: &FleetDelta) -> bool {
        let rows = plan.pms.len();
        let cols = plan.vms.len();
        self.dirty_rows.clear();
        self.row_src.clear();
        self.dirty_cols.clear();
        self.col_src.clear();
        let mut dirty_row_count = 0usize;
        for pm in &plan.pms {
            let (src, dirty) = match snap.row_pms.binary_search(&pm.id) {
                Ok(i) => (
                    i as u32,
                    delta.dirty_pms().contains(&pm.id) || snap.touched_pms.contains(&pm.id),
                ),
                Err(_) => (0, true),
            };
            self.row_src.push(src);
            self.dirty_rows.push(dirty);
            dirty_row_count += dirty as usize;
        }
        let mut dirty_col_count = 0usize;
        for vm in &plan.vms {
            let (src, dirty) = match snap.col_vms.binary_search(&vm.id) {
                Ok(i) => (
                    i as u32,
                    delta.dirty_vms().contains(&vm.id) || snap.touched_vms.contains(&vm.id),
                ),
                Err(_) => (0, true),
            };
            self.col_src.push(src);
            self.dirty_cols.push(dirty);
            dirty_col_count += dirty as usize;
        }
        let dirty_entries = dirty_row_count * cols + (rows - dirty_row_count) * dirty_col_count;
        (dirty_entries as f64) <= REBUILD_THRESHOLD * (rows as f64) * (cols as f64)
    }
}

/// The dynamic placement scheme.
///
/// The scheme owns a reusable planning arena — the [`PlanState`], the
/// [`ProbabilityMatrix`] and the per-column best cache — so steady-state
/// planning passes reuse their buffers instead of reallocating an M×N
/// matrix (plus row maps and caches) on every triggering event.
#[derive(Debug, Clone)]
pub struct DynamicPlacement {
    cfg: DynamicConfig,
    /// User-supplied extension factors (Section III-B: "easy to be
    /// extended to accommodate other constraints").
    extras: Vec<Arc<dyn ExtraFactor>>,
    /// Migration rounds executed across the scheme's lifetime (observability).
    total_migrations: u64,
    /// Planning passes that hit the `MIG_round` cap.
    round_cap_hits: u64,
    /// Arena: planning state refilled from the live view each pass.
    plan_arena: PlanState,
    /// Arena: the probability matrix, rebuilt in place each pass.
    matrix: ProbabilityMatrix,
    /// Arena: Algorithm 1's per-column best-candidate cache.
    best: Vec<Option<(usize, f64)>>,
    /// Fleet-delta journal accumulated (via
    /// [`PlacementPolicy::note_fleet_delta`]) since the last planning pass.
    pending_delta: Option<FleetDelta>,
    /// Row/column map of the matrix kept alive from the previous pass.
    snap: PassSnapshot,
    /// Dirty-set scratch for the incremental update.
    inc: IncScratch,
    /// Passes that extended the previous matrix incrementally.
    incremental_passes: u64,
    /// Passes that rebuilt the matrix from scratch.
    full_rebuilds: u64,
    /// The class-compressed planner (kept across passes; see
    /// `compressed.rs`).
    comp: CompressedPlanner,
    /// Planning passes served by the class-compressed kernel.
    compressed_passes: u64,
    /// Pins every pass to the dense matrix (see
    /// [`DynamicPlacement::dense_reference`]).
    dense_only: bool,
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
            extras: Vec::new(),
            total_migrations: 0,
            round_cap_hits: 0,
            plan_arena: PlanState::default(),
            matrix: ProbabilityMatrix::default(),
            best: Vec::new(),
            pending_delta: None,
            snap: PassSnapshot::default(),
            inc: IncScratch::default(),
            incremental_passes: 0,
            full_rebuilds: 0,
            comp: CompressedPlanner::new(),
            compressed_passes: 0,
            dense_only: false,
        }
    }

    /// The scheme pinned to the dense M×N matrix on every pass — the
    /// reference the class-compressed planner is held bit-identical to.
    /// A test and benchmark seam, not a configuration option: the
    /// production scheme ([`new`](Self::new)) already falls back to this
    /// path wherever the compressed form cannot serve a pass.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn dense_reference(cfg: DynamicConfig) -> Self {
        DynamicPlacement {
            dense_only: true,
            ..Self::new(cfg)
        }
    }

    /// Switches the matrix evaluation kernel (default:
    /// [`MatrixKernel::Fast`]). The kernels are bit-identical; the
    /// reference kernel exists for differential tests and for measuring
    /// the fast path honestly (`perf_report`).
    pub fn with_kernel(mut self, kernel: MatrixKernel) -> Self {
        self.matrix.set_kernel(kernel);
        self
    }

    /// Registers an extension factor; it multiplies into every matrix
    /// entry after the built-in four. Factors apply in registration order
    /// (order only matters for debugging — multiplication commutes).
    pub fn with_factor(mut self, factor: Arc<dyn ExtraFactor>) -> Self {
        self.extras.push(factor);
        self
    }

    /// The registered extension factors.
    pub fn extra_factors(&self) -> &[Arc<dyn ExtraFactor>] {
        &self.extras
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

    /// Planning passes that extended the previous pass's matrix from the
    /// fleet-delta journal instead of rebuilding it.
    pub fn incremental_passes(&self) -> u64 {
        self.incremental_passes
    }

    /// Planning passes that (re)built the matrix from scratch — the first
    /// pass, passes without a usable journal, and passes whose dirty
    /// fraction exceeded [`REBUILD_THRESHOLD`].
    pub fn full_rebuilds(&self) -> u64 {
        self.full_rebuilds
    }

    /// Planning passes served end-to-end by the class-compressed kernel.
    pub fn compressed_passes(&self) -> u64 {
        self.compressed_passes
    }

    /// `true` once the compressed planner hit a structure it cannot
    /// represent and every pass permanently routes to the dense kernel.
    pub fn compressed_poisoned(&self) -> bool {
        self.comp.poisoned()
    }

    /// Superclass count in the compressed planner — the row dimension `C`
    /// the compressed kernel sweeps instead of the fleet's `M` PMs (0
    /// before the first compressed pass).
    pub fn compressed_superclasses(&self) -> usize {
        self.comp.superclass_count()
    }

    /// Active per-PM rows mirrored by the compressed planner (`M` for the
    /// powered fleet; 0 before the first compressed pass).
    pub fn compressed_active_rows(&self) -> usize {
        self.comp.active_row_count()
    }

    /// Superclass level buckets currently holding at least one row — how
    /// evenly the tolerance bucketing spread the fleet (0 before the first
    /// compressed pass).
    pub fn compressed_occupied_buckets(&self) -> usize {
        self.comp.occupied_buckets()
    }

    /// Whether a pass may run the class-compressed kernel: always, unless
    /// the scheme is the [`dense_reference`](Self::dense_reference),
    /// extension factors are registered, or the `p^eff` ablation is on
    /// (the compressed levels are keyed on it).
    fn compressible(&self) -> bool {
        !self.dense_only && self.extras.is_empty() && self.cfg.use_eff
    }

    /// Whether the next live pass runs the persistent compressed planner.
    fn compressed_wanted(&self) -> bool {
        self.compressible() && !self.comp.poisoned()
    }

    /// Algorithm 1 against an explicit plan state (exposed for tests and
    /// benchmarks; [`PlacementPolicy::plan_migrations`] builds the state
    /// from the live view).
    pub fn plan_on(&mut self, plan: &mut PlanState) -> Vec<Migration> {
        // An explicit plan bypasses the journal continuity the persistent
        // compressed planner relies on.
        self.comp.desync();
        let delta = self.pending_delta.take();
        if plan.vms.is_empty() || plan.pms.len() < 2 {
            // The matrix (and the snapshot describing it) is untouched, so
            // the drained dirt must survive until the next real pass.
            self.pending_delta = delta;
            return Vec::new();
        }
        if self.compressible() {
            // One-shot compression of the explicit plan; `None` means the
            // plan's structure cannot be compressed — run dense below.
            let _span = dvmp_obs::span!(dvmp_obs::Phase::CompressedPlan);
            if let Some((moves, capped)) = compressed::one_shot(&self.cfg, plan) {
                self.total_migrations += moves.len() as u64;
                if capped {
                    self.round_cap_hits += 1;
                }
                self.compressed_passes += 1;
                dvmp_obs::note_plan_kernel_compressed(plan.pms.len() as u64, plan.vms.len() as u64);
                // The dense matrix was not built; nothing to carry over.
                self.snap.capture(false, plan, &moves);
                return moves;
            }
        }
        // Disjoint field borrows: the context reads cfg/extras while the
        // matrix and cache are mutated — no per-pass clones needed.
        let DynamicPlacement {
            cfg,
            extras,
            total_migrations,
            round_cap_hits,
            matrix,
            best,
            snap,
            inc,
            incremental_passes,
            full_rebuilds,
            ..
        } = self;
        let ctx = EvalContext::with_extras(cfg, extras);
        // Incremental path: the previous pass left its matrix (and eff
        // operands) behind, and the journal bounds everything that changed
        // since. Extra factors may vary with time, so their entries cannot
        // be carried across passes. A pass with no journal rebuilds.
        let eligible =
            extras.is_empty() && snap.valid && delta.as_ref().is_some_and(|d| !d.is_full());
        let mut incremental = false;
        if eligible {
            if inc.prepare(plan, snap, delta.as_ref().expect("checked is_some above")) {
                if dvmp_obs::enabled() {
                    dvmp_obs::note_plan_dirty_set(
                        inc.dirty_rows.iter().filter(|&&d| d).count() as u64,
                        inc.dirty_cols.iter().filter(|&&d| d).count() as u64,
                    );
                }
                let _span = dvmp_obs::span!(dvmp_obs::Phase::DeltaSweep);
                incremental = matrix.update_incremental(
                    plan,
                    &ctx,
                    &inc.dirty_rows,
                    &inc.row_src,
                    &inc.dirty_cols,
                    &inc.col_src,
                    best,
                );
                if !incremental {
                    dvmp_obs::note_plan_rebuild_fallback(dvmp_obs::FALLBACK_SWEEP_REFUSED);
                }
            } else {
                dvmp_obs::note_plan_rebuild_fallback(dvmp_obs::FALLBACK_DIRTY_FRACTION);
            }
        }
        if incremental {
            *incremental_passes += 1;
            if dvmp_obs::enabled() {
                dvmp_obs::note_plan_kernel_delta(
                    inc.dirty_rows.iter().filter(|&&d| d).count() as u64,
                    inc.dirty_cols.iter().filter(|&&d| d).count() as u64,
                );
            }
        } else {
            {
                let _span = dvmp_obs::span!(dvmp_obs::Phase::MatrixBuild);
                matrix.rebuild(plan, &ctx);
            }
            *full_rebuilds += 1;
            dvmp_obs::note_plan_kernel_fresh(plan.pms.len() as u64, plan.vms.len() as u64);
            // Per-column cache of the best non-host candidate, refilled in
            // one row-major sweep (the incremental update folds this into
            // its own sweep). The cache itself never carries across passes:
            // `p^vir` decays every pass, which rescales entries unevenly.
            matrix.refill_best(plan, best);
        }

        let mut moves = Vec::new();
        let mut capped = true;
        for _round in 0..cfg.mig_round {
            // Global argmax over the cached per-column bests.
            let mut winner: Option<(usize, usize, f64)> = None;
            for (col, entry) in best.iter().enumerate() {
                if let Some((row, d)) = *entry {
                    if d > cfg.mig_threshold && winner.map_or(true, |(_, _, wd)| d > wd) {
                        winner = Some((col, row, d));
                    }
                }
            }
            let Some((col, to_row, _d)) = winner else {
                capped = false; // threshold-terminated
                break;
            };

            let vm_id = plan.vms[col].id;
            let (from_row, to_row) = plan.apply_migration(col, to_row);
            debug_assert_eq!(plan.vms[col].host, to_row);
            moves.push(Migration {
                vm: vm_id,
                from: plan.pms[from_row].id,
                to: plan.pms[to_row].id,
            });
            *total_migrations += 1;

            // Targeted refresh: the two touched PM rows and the moved column.
            matrix.recompute_row(plan, &ctx, from_row);
            matrix.recompute_row(plan, &ctx, to_row);
            matrix.recompute_col(plan, &ctx, col);

            // Repair the per-column cache.
            for (c, entry) in best.iter_mut().enumerate() {
                let host = plan.vms[c].host;
                let needs_rescan = c == col
                    || host == from_row
                    || host == to_row
                    || entry.is_some_and(|(r, _)| r == from_row || r == to_row);
                if needs_rescan {
                    *entry = matrix.best_move_for(plan, c);
                } else {
                    // Only rows from/to changed; see if either now beats the
                    // cached best. Most columns don't even fit the touched
                    // PMs, so test the raw entry first — an infeasible (or
                    // otherwise zero) entry can never win and skipping it
                    // avoids the normalization divide.
                    for row in [from_row, to_row] {
                        if row == host || matrix.get(row, c) <= 0.0 {
                            continue;
                        }
                        let d = matrix.normalized(plan, row, c);
                        if d > 0.0 && entry.map_or(true, |(_, bd)| d > bd) {
                            *entry = Some((row, d));
                        }
                    }
                }
            }
        }
        if capped {
            *round_cap_hits += 1;
        }
        // Remember what the matrix now describes so the next pass can
        // extend it instead of rebuilding.
        let resumable = extras.is_empty() && matrix.eff_cache_complete();
        snap.capture(resumable, plan, &moves);
        moves
    }
}

impl PlacementPolicy for DynamicPlacement {
    fn name(&self) -> &'static str {
        "dynamic"
    }

    /// New-arrival placement (Section III-C): compute the new VM's column
    /// and take the argmax. If virtualization overheads zero the whole
    /// column while capacity exists (estimates shorter than `T_cre+T_mig`),
    /// fall back to the overhead-free column so feasible requests are never
    /// starved (DESIGN.md I9).
    fn place(&mut self, view: &PlacementView<'_>, vm: &VmSpec) -> Option<PmId> {
        if self.compressed_wanted() {
            let delta = self.pending_delta.take();
            // The compressed planner consumes the journal continuity; a
            // dense pass after this point must rebuild from scratch.
            self.snap.valid = false;
            let _span = dvmp_obs::span!(dvmp_obs::Phase::CompressedPlan);
            if let Some(placed) = self.comp.place(view, vm, delta, &self.cfg) {
                return placed;
            }
            // Poisoned mid-call: fall through to the dense scan (the snap
            // is already invalid, so dropping the drained dirt is sound).
        } else {
            self.comp.desync();
        }
        let mut plan = std::mem::take(&mut self.plan_arena);
        plan.refill(
            view,
            &self.cfg.min_vm,
            self.cfg.capacity_basis,
            self.cfg.class_tolerance,
        );
        let est = vm.estimated_runtime.as_secs();
        let ctx = EvalContext::with_extras(&self.cfg, &self.extras);

        let column = |ctx: &EvalContext<'_>| -> Option<(usize, f64)> {
            let mut best: Option<(usize, f64)> = None;
            for (row, pm) in plan.pms.iter().enumerate() {
                let p = factors::joint_new(pm, &vm.resources, est, plan.eff_of(row), ctx, plan.now);
                if p > 0.0 && best.map_or(true, |(_, bp)| p > bp) {
                    best = Some((row, p));
                }
            }
            best
        };

        // The fallback flips only `p^vir` off via the context override —
        // no config clone just to toggle one flag.
        let chosen = column(&ctx).or_else(|| column(&ctx.without_vir()));
        let placed = chosen.map(|(row, _)| plan.pms[row].id);
        self.plan_arena = plan;
        placed
    }

    fn plan_migrations(&mut self, view: &PlacementView<'_>) -> Vec<Migration> {
        if self.compressed_wanted() {
            let delta = self.pending_delta.take();
            self.snap.valid = false;
            let _span = dvmp_obs::span!(dvmp_obs::Phase::CompressedPlan);
            if let Some((moves, capped)) = self.comp.plan_migrations(view, delta, &self.cfg) {
                self.compressed_passes += 1;
                self.total_migrations += moves.len() as u64;
                if capped {
                    self.round_cap_hits += 1;
                }
                dvmp_obs::note_plan_kernel_compressed(
                    view.dc.non_idle_count() as u64,
                    view.vms.len() as u64,
                );
                return moves;
            }
            // Poisoned mid-call: this pass (and all later ones) runs dense.
        }
        let mut plan = std::mem::take(&mut self.plan_arena);
        plan.refill(
            view,
            &self.cfg.min_vm,
            self.cfg.capacity_basis,
            self.cfg.class_tolerance,
        );
        let moves = self.plan_on(&mut plan);
        self.plan_arena = plan;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::*;
    use dvmp_cluster::vm::VmId;
    use dvmp_simcore::SimTime;
    use std::collections::BTreeMap;

    /// The default scheme pinned to the dense kernel, for tests of its own
    /// machinery (incremental matrix, arena, matrix kernels).
    fn dense() -> DynamicPlacement {
        DynamicPlacement::dense_reference(DynamicConfig::default())
    }

    fn view_of<'a>(
        dc: &'a dvmp_cluster::datacenter::Datacenter,
        vms: &'a BTreeMap<VmId, dvmp_cluster::vm::Vm>,
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
        let mut vms = BTreeMap::new();
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
        let mut vms = BTreeMap::new();
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
        let mut vms = BTreeMap::new();
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
        let mut vms = BTreeMap::new();
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
        let mut vms = BTreeMap::new();
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
        let mut vms = BTreeMap::new();
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
        let vms = BTreeMap::new();
        let mut policy = DynamicPlacement::paper_default();
        // 50 s estimate < T_cre + T_mig on every class: the joint column is
        // all-zero, but capacity exists → fallback must place it.
        let pm = policy.place(&view_of(&dc, &vms, 0), &spec(1, 512, 50));
        assert!(pm.is_some(), "DESIGN.md I9 fallback");
    }

    #[test]
    fn place_returns_none_when_fleet_is_full() {
        let mut dc = small_fleet();
        let mut vms = BTreeMap::new();
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
            let mut vms = BTreeMap::new();
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
        // Stress: 30 VMs over the fleet, then plan; PlanState panics if a
        // move overfills a PM, so a clean return proves feasibility.
        let mut dc = small_fleet();
        let mut vms = BTreeMap::new();
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
    }

    #[test]
    fn reused_arena_matches_fresh_policy() {
        // One policy planning twice (arena reused, second pass over a
        // different fleet state) must produce exactly what fresh policies
        // produce for each pass.
        let build = |extra_on_pm3: bool| {
            let mut dc = small_fleet();
            let mut vms = BTreeMap::new();
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
        // The arena is the dense kernel's.
        let mut reused = dense();
        let (dc_a, vms_a) = build(false);
        let (dc_b, vms_b) = build(true);
        let first = reused.plan_migrations(&view_of(&dc_a, &vms_a, 0));
        let second = reused.plan_migrations(&view_of(&dc_b, &vms_b, 100));

        let mut fresh_a = dense();
        let mut fresh_b = dense();
        assert_eq!(first, fresh_a.plan_migrations(&view_of(&dc_a, &vms_a, 0)));
        assert_eq!(
            second,
            fresh_b.plan_migrations(&view_of(&dc_b, &vms_b, 100))
        );
        // place() shares the arena with plan_migrations; interleaving must
        // not corrupt either.
        let p_reused = reused.place(&view_of(&dc_b, &vms_b, 100), &spec(50, 512, 100_000));
        let p_fresh = fresh_b.place(&view_of(&dc_b, &vms_b, 100), &spec(50, 512, 100_000));
        assert_eq!(p_reused, p_fresh);
    }

    #[test]
    fn reference_kernel_plans_identical_moves() {
        let build = || {
            let mut dc = small_fleet();
            let mut vms = BTreeMap::new();
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
        // Matrix kernels only matter on the dense planner.
        let mut fast = dense();
        let mut reference = dense().with_kernel(crate::matrix::MatrixKernel::Reference);
        assert_eq!(
            fast.plan_migrations(&view_of(&dc1, &vms1, 0)),
            reference.plan_migrations(&view_of(&dc2, &vms2, 0))
        );
        assert_eq!(fast.total_migrations(), reference.total_migrations());
    }

    /// Algorithm 1 with no repair heuristics at all: every round rebuilds
    /// the per-column candidate list with a full `best_move_for` scan. The
    /// production repair loop must reproduce this move-for-move.
    fn naive_plan(cfg: &DynamicConfig, plan: &mut PlanState) -> Vec<Migration> {
        let ctx = EvalContext::new(cfg);
        let mut matrix = ProbabilityMatrix::build(plan, &ctx);
        let mut moves = Vec::new();
        for _ in 0..cfg.mig_round {
            let mut winner: Option<(usize, usize, f64)> = None;
            for col in 0..plan.vms.len() {
                if let Some((row, d)) = matrix.best_move_for(plan, col) {
                    if d > cfg.mig_threshold && winner.map_or(true, |(_, _, wd)| d > wd) {
                        winner = Some((col, row, d));
                    }
                }
            }
            let Some((col, to_row, _)) = winner else {
                break;
            };
            let vm = plan.vms[col].id;
            let (from_row, to_row) = plan.apply_migration(col, to_row);
            moves.push(Migration {
                vm,
                from: plan.pms[from_row].id,
                to: plan.pms[to_row].id,
            });
            matrix.recompute_row(plan, &ctx, from_row);
            matrix.recompute_row(plan, &ctx, to_row);
            matrix.recompute_col(plan, &ctx, col);
        }
        moves
    }

    #[test]
    fn repair_heuristics_match_naive_full_rescan() {
        // Fragmented, stressed and mixed fleets: the cached-best repair
        // (including its zero-entry skip) must yield exactly the naive
        // planner's migration sequence on each.
        let shapes: [&[u32]; 3] = [
            &[0, 1, 2, 3],
            &[0, 1, 2, 3, 0, 1, 2, 3, 0, 1],
            &[2, 3, 2, 3, 1],
        ];
        for (shape_no, shape) in shapes.iter().enumerate() {
            let mut dc = small_fleet();
            let mut vms = BTreeMap::new();
            for (i, pm) in shape.iter().enumerate() {
                install(
                    &mut dc,
                    &mut vms,
                    spec(i as u32 + 1, 512, 150_000 + i as u64 * 3_000),
                    PmId(*pm),
                    SimTime::ZERO,
                );
            }
            let cfg = DynamicConfig::default();
            let view = view_of(&dc, &vms, 0);
            let mut plan = PlanState::from_view(&view, &cfg.min_vm);
            let expected = naive_plan(&cfg, &mut plan);
            // Both kernels' repair loops: the dense one and the compressed
            // mirror of it that the default policy runs.
            for (kernel, mut policy) in [
                ("dense", dense()),
                ("default", DynamicPlacement::paper_default()),
            ] {
                assert_eq!(
                    policy.plan_migrations(&view),
                    expected,
                    "shape {shape_no}: {kernel} repair loop diverged from full rescan"
                );
            }
        }
    }

    #[test]
    fn incremental_pass_matches_full_rebuild_planner() {
        // Drive an incremental policy and a forced-rebuild policy (one that
        // is never fed the journal) through the same fleet history; every
        // pass must propose identical moves.
        let mut dc = small_fleet();
        let mut vms = BTreeMap::new();
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
        // Dense on both sides: the incremental matrix is the subject.
        let mut inc = dense();
        let mut full = dense();

        inc.note_fleet_delta(dc.take_fleet_delta());
        let m1 = inc.plan_migrations(&view_of(&dc, &vms, 0));
        assert_eq!(m1, full.plan_migrations(&view_of(&dc, &vms, 0)));
        assert!(m1.is_empty(), "consolidated fleet is stable");
        assert_eq!((inc.incremental_passes(), inc.full_rebuilds()), (0, 1));

        // A lone arrival on slow PM 2: the journal dirties exactly that PM
        // and VM, so pass 2 extends the kept matrix incrementally.
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
        assert_eq!(
            (inc.incremental_passes(), inc.full_rebuilds()),
            (1, 1),
            "pass 2 must take the incremental path"
        );

        // Pass 3: the straggler departs again (journals its host PM 2,
        // which the pass-2 move endpoints already dirty), plus more time
        // decay. Dirty set: rows {PM 0, PM 2}, no surviving dirty column —
        // 8 of 16 entries, exactly at the default 0.5 rebuild threshold.
        dc.remove_vm(VmId(9));
        vms.remove(&VmId(9));
        inc.note_fleet_delta(dc.take_fleet_delta());
        let m3 = inc.plan_migrations(&view_of(&dc, &vms, 200));
        assert_eq!(m3, full.plan_migrations(&view_of(&dc, &vms, 200)));
        assert!(m3.is_empty(), "back to the consolidated state");
        assert_eq!(
            (inc.incremental_passes(), inc.full_rebuilds()),
            (2, 1),
            "pass 3 must take the incremental path too"
        );
    }

    #[test]
    fn incremental_planner_handles_missing_journal() {
        // plan_migrations without note_fleet_delta (no journal source at
        // all) must fall back to full rebuilds and still plan correctly.
        let mut dc = small_fleet();
        let mut vms = BTreeMap::new();
        for (i, pm) in [0u32, 1, 2, 3].iter().enumerate() {
            install(
                &mut dc,
                &mut vms,
                spec(i as u32 + 1, 512, 200_000),
                PmId(*pm),
                SimTime::ZERO,
            );
        }
        let mut policy = dense();
        let first = policy.plan_migrations(&view_of(&dc, &vms, 0));
        assert_eq!(first.len(), 3);
        let again = policy.plan_migrations(&view_of(&dc, &vms, 0));
        assert_eq!(first, again, "same view, same plan");
        assert_eq!(policy.incremental_passes(), 0);
        assert_eq!(policy.full_rebuilds(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid DynamicConfig")]
    fn invalid_config_is_rejected() {
        let mut cfg = DynamicConfig::default();
        cfg.mig_threshold = 0.0;
        DynamicPlacement::new(cfg);
    }
}
