//! The class-compressed sparse planning kernel.
//!
//! The dense planner materializes an M×N probability matrix every pass —
//! inherently O(M·N) even with the incremental delta sweep, because a
//! single migration round touches two full rows. This module exploits the
//! structural redundancy `ClassTable` already proved: for a class-
//! conforming PM, a matrix entry is a function of
//! `(class constants, reliability, utilization level, column)` only, so
//! the M per-PM rows collapse into C per-*superclass* level tables
//! (C ≪ M). A superclass is the exact equality key under which two rows
//! are guaranteed bit-identical per column: capacity, creation/migration
//! overheads, relative power efficiency and reliability score. PMs that
//! diverge from their hardware class (e.g. a mutated reliability) simply
//! get their own superclass; nothing falls back as long as the registry
//! caps hold.
//!
//! ## Representation
//!
//! - Per (superclass `s`, registered demand `d`): level buckets — the set
//!   of active rows whose prospective occupancy `used + demand_d` is
//!   feasible and lands in Eq. 4 level `w`, as a `BTreeSet<row>` per level
//!   plus a non-empty bitmask. The best candidate of `s` for a column with
//!   demand `d` is the lowest row in the highest level (Eq. 5 is monotone
//!   in `w`, and adjacent levels differ by ≥ `1/w_max` relatively — far
//!   beyond one ulp — so the top level strictly dominates after rounding).
//! - Per row: the hosted-entry probability `H = p^rel·p^eff(used)` and a
//!   per-demand level cache, so a candidate probe costs one table load.
//! - Per column (one per migratable VM): its demand, host row,
//!   authoritative completion deadline, and `dbar` — an **upper bound**
//!   on the column's best normalized score `max_r d(r,c)` (see below).
//!   Columns sit in a slab in no particular order: removal is a
//!   `swap_remove` plus a `VmId → slot` table update, O(1). The round
//!   loop's winner scan therefore breaks an exact tie in `d` by the
//!   lowest `VmId` — the column the dense planner, whose columns are
//!   `VmId`-sorted, meets first. A one-shot plan never removes columns
//!   and ties by plan index, the dense planner's order for that plan.
//!
//! ## The effective bound and why stale is sound
//!
//! `p^vir` decays monotonically as remaining time shrinks, so a column's
//! exact score computed at pass `t` upper-bounds its score at every later
//! pass — until the fleet moves under it. Every fleet mutation funnels
//! through the [`FleetDelta`] journal, and the patch path restores the
//! bound's validity for each kind of movement:
//!
//! - a dirty row re-syncs `H` and its level buckets, and every column it
//!   hosts is exactly re-scored (its denominator changed). A row that
//!   stays active re-scores its columns as they stand, without re-reading
//!   them from the VM map: the journal marks every VM whose host, demand
//!   or overhead changed, so a clean VM's column is unchanged. A row that
//!   drops out removes its columns;
//! - dirty VMs (journal, planner self-dirt, ripe stash entries) are
//!   re-read and exactly refreshed (or dropped / stashed);
//! - when a `(s, d)` bucket gains *any insert* during a patch (a row
//!   arriving at a level it did not occupy before), its cap
//!   `p^rel_s·level_eff[top]` folds into `pending[d]`: every demand-`d`
//!   column's *effective* bound is `max(dbar, pending[d] / H(host))` —
//!   an upper bound on any score the bucket can now produce, since
//!   `p^vir·p^rel ≤ p^rel` and every candidate sits at or below the top
//!   (`H ≤ 0` makes it ∞, as such a host scores every candidate ∞).
//!
//! Inserts are the only candidate-side events that can raise a column's
//! exact score: removals shrink the candidate set, and a *membership*
//! change matters even when the top level is unchanged, because
//! [`CompressedPlanner::exact_best`] excludes the column's own host within
//! its superclass — a newcomer at an existing top turns a level that held
//! only the host into a real candidate. Re-syncs that leave a row at its
//! previous level are skipped entirely, so no-op churn does not mark
//! buckets. Removals leave bounds stale-high, which is merely conservative.
//!
//! The fold visits no column. Two running values bound every effective
//! bound at once: `hmin[d]`, a lower bound on `H(host)` over the live
//! demand-`d` columns (lowered in `refresh_bound`, which every column
//! whose host's `H` changed passes through), and
//! `pending_max ≥ max_d pending[d] / hmin[d]`; `dbar_max` covers the
//! `dbar`s. A planning pass then reduces to: patch; exit if
//! `max(dbar_max, pending_max) ≤ MIG_threshold` (O(1)); else scan every
//! column once, folding `pending` into its `dbar`, exactly refreshing the
//! exceeders and re-deriving `hmin` and the maxima; only if a genuine
//! exceeder survives does the pass materialize per-column exact bests and
//! run Algorithm 1's round loop — whose winner scan, tie-breaks and repair
//! heuristics mirror the dense planner operation-for-operation, so the
//! proposed migration sequence is bit-identical. A looser bound cannot
//! change the moves: the output depends only on whether some column's
//! *exact* score exceeds `MIG_threshold`, and both the early exit and the
//! exceeder refresh are decided against valid upper bounds, so any valid
//! bound yields the same plan — a loose one costs only an extra scan.
//!
//! The planner's own hypothetical row mutations (and any divergence from
//! the simulator skipping a proposed move, or the double-reservation
//! window of an in-flight migration) are reconciled by re-reading the
//! touched rows/VMs from the authoritative view at the next patch; bucket
//! tops that rise in that reconciliation raise bounds through the normal
//! trigger.
//!
//! ## Poisoning
//!
//! Structures the compressed form cannot represent — more than 64
//! superclasses, more than 128 demand vectors in use at once, level counts
//! past 63, capacity dimensions that disagree with `min_vm`, VM ids past
//! the column slot table's 2²⁴ — permanently poison the planner.
//! [`DynamicPlacement`](crate::dynamic::DynamicPlacement) then serves
//! every later pass with a one-shot compressed plan built from scratch,
//! or with the dense kernel — the reference definition of the output —
//! when that plan cannot be compressed either, so behavior is unchanged.

use crate::config::DynamicConfig;
use crate::factors::class_table::{self, ClassEntry};
use crate::factors::vir;
use crate::plan::{PlanPm, PlanState};
use crate::policy::{Migration, PlacementView};
use dvmp_cluster::pm::PmId;
use dvmp_cluster::power::relative_efficiencies;
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::{VmId, VmSpec, VmState};
use dvmp_cluster::FleetDelta;
use dvmp_simcore::SimTime;
use std::collections::{BTreeSet, HashMap};

/// Superclass registry cap; more distinct (capacity, overheads, eff, rel)
/// combinations than this poisons the planner (a fleet that heterogeneous
/// has little row redundancy to compress anyway).
pub const MAX_SUPERCLASSES: usize = 64;
/// Demand registry cap (also the stride of the per-row level cache). A
/// slot no live column uses is recycled for the next new demand vector,
/// so only this many *simultaneously used* demands poison the planner —
/// an elastic week resizes through far more distinct vectors than that,
/// and the 1k-PM overbooked-elastic week peaks at 75 in use at once.
pub const MAX_DEMANDS: usize = 128;
/// Highest representable Eq. 4 level (the non-empty masks are `u64`).
const MAX_LEVEL: u64 = 63;
/// `row_w` sentinel: infeasible / not bucketed.
const INFEASIBLE: u8 = u8::MAX;
/// `col_slot` sentinel: the VM has no column.
const NO_COL: u32 = u32::MAX;
/// Largest VM id the column slot table indexes (a 64 MiB table); every
/// workload generator numbers VMs densely from 0 or 1, far below it.
const MAX_VM_ID: usize = (1 << 24) - 1;

/// `cap / h`: the largest score a bucket capped at `cap` can give a
/// column hosted where `H = h` — ∞ when `h ≤ 0`, `-∞` when no cap is
/// pending.
fn cap_over(cap: f64, h: f64) -> f64 {
    if cap == f64::NEG_INFINITY {
        f64::NEG_INFINITY
    } else if h > 0.0 {
        cap / h
    } else {
        f64::INFINITY
    }
}

/// Exact equality key under which two PM rows are column-wise
/// bit-identical.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SuperKey {
    capacity: ResourceVector,
    creation_secs: u64,
    migration_secs: u64,
    eff_bits: u64,
    rel_bits: u64,
}

/// One superclass: the shared [`ClassEntry`] constants plus the score
/// pieces that are uniform across its member rows.
#[derive(Debug, Clone)]
struct SuperClass {
    entry: ClassEntry,
    rel: f64,
    /// `false` when every non-host entry of the superclass is 0
    /// (`w_max == 0` or `eff ≤ 0`) — its rows are never candidates.
    usable: bool,
}

/// Level buckets for one (superclass, demand) pair.
#[derive(Debug, Clone, Default)]
struct Bucket {
    levels: Vec<BTreeSet<u32>>,
    mask: u64,
    /// A row was inserted during the current patch (bound-raise trigger).
    marked: bool,
}

impl Bucket {
    fn top(&self) -> Option<u8> {
        if self.mask == 0 {
            None
        } else {
            Some(63 - self.mask.leading_zeros() as u8)
        }
    }

    fn insert(&mut self, w: u8, row: u32) {
        let w = w as usize;
        if self.levels.len() <= w {
            self.levels.resize_with(w + 1, BTreeSet::new);
        }
        self.levels[w].insert(row);
        self.mask |= 1u64 << w;
    }

    fn remove(&mut self, w: u8, row: u32) {
        let w = w as usize;
        let set = &mut self.levels[w];
        set.remove(&row);
        if set.is_empty() {
            self.mask &= !(1u64 << w);
        }
    }
}

/// One matrix column: a migratable VM.
#[derive(Debug, Clone)]
struct Col {
    id: VmId,
    demand: u8,
    host: u32,
    /// Authoritative completion deadline (`now + estimated_remaining`),
    /// so remaining time at any later pass is `deadline − now`.
    deadline: SimTime,
    /// Upper bound on `max_r d(r, c)`; see the module docs.
    dbar: f64,
}

/// Per-row state (indexed by `PmId.0` in persistent mode, by plan row in
/// one-shot mode — both are ascending-id orders, preserving tie-breaks).
#[derive(Debug, Clone)]
struct Row {
    active: bool,
    sclass: u16,
    used: ResourceVector,
    /// Hosted-entry probability `p^rel·p^eff(used)` (the normalization
    /// denominator for columns hosted here).
    h: f64,
}

impl Default for Row {
    fn default() -> Self {
        Row {
            active: false,
            sclass: 0,
            used: ResourceVector::zero(1),
            h: 0.0,
        }
    }
}

/// Structural condition the compressed form cannot represent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Poison;

/// The persistent class-compressed planner. See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompressedPlanner {
    poisoned: bool,
    /// `true` while the state mirrors the live fleet as of the last
    /// consumed journal drain. Any pass served by the dense kernel in
    /// between desyncs it (the journal continuity is broken).
    synced: bool,
    effs: Vec<f64>,
    sclasses: Vec<SuperClass>,
    sclass_lookup: HashMap<SuperKey, u16>,
    demands: Vec<ResourceVector>,
    demand_lookup: HashMap<ResourceVector, u8>,
    /// Live columns per demand slot; a zero-count slot may be recycled.
    demand_cols: Vec<u32>,
    rows: Vec<Row>,
    row_ids: Vec<PmId>,
    /// Level cache, `rows.len() × stride`: row `r`'s level for demand
    /// slot `d` sits at `r * stride + d`.
    row_w: Vec<u8>,
    /// Demand slots per row in `row_w`. Doubles (up to `MAX_DEMANDS`) as
    /// demands register, so a fleet that sees few demand shapes keeps a
    /// small level cache.
    stride: usize,
    host_vms: Vec<BTreeSet<VmId>>,
    active_rows: usize,
    /// `sclasses.len() × MAX_DEMANDS` level buckets.
    buckets: Vec<Bucket>,
    touched_buckets: Vec<u32>,
    snapshots_armed: bool,
    /// Column storage in no particular order (removal is `swap_remove`).
    cols: Vec<Col>,
    /// `VmId.0 → index into cols`, `NO_COL` where the VM has no column.
    col_slot: Vec<u32>,
    /// Upper bound on every column's `dbar`: raised with each bound,
    /// recomputed exactly whenever a pass scans all columns, and left
    /// stale-high by drops in between — so the stage-1 scan reads one
    /// value instead of every column.
    dbar_max: f64,
    /// Per demand slot: the largest `p^rel·level_eff[top]` of a bucket
    /// that gained an insert since the last fold (`-∞`: none). Every
    /// demand-`d` column's effective bound is
    /// `max(dbar, pending[d] / H(host))`; see the module docs.
    pending: Vec<f64>,
    /// Per demand slot: a lower bound on `H(host)` over the live
    /// demand-`d` columns (`+∞`: none seen since the last re-derivation).
    hmin: Vec<f64>,
    /// Upper bound on `pending[d] / hmin[d]` over every demand slot.
    pending_max: f64,
    /// VMs seen mid-creation: re-examined once their ready time passes
    /// (the creation-done transition is not journaled — the datacenter's
    /// occupancy does not change at that instant).
    stash: BTreeSet<(SimTime, VmId)>,
    /// Rows / VMs this planner's own previous pass touched — re-read from
    /// the authoritative view at the next patch, exactly like the dense
    /// planner's snapshot touched-sets. Unsorted, with repeats, until the
    /// patch sorts and dedups them; cleared (not freed) after use.
    self_dirty_pms: Vec<PmId>,
    self_dirty_vms: Vec<VmId>,
    // Patch and round-loop scratch, reused across passes.
    reread_cols: Vec<VmId>,
    rescore_cols: Vec<VmId>,
    rem: Vec<u64>,
    best: Vec<Option<(u32, f64)>>,
}

impl CompressedPlanner {
    pub(crate) fn new() -> Self {
        CompressedPlanner::default()
    }

    pub(crate) fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Registered superclasses — the compressed kernel's row dimension
    /// `C` (0 before the first compressed pass).
    pub(crate) fn superclass_count(&self) -> usize {
        self.sclasses.len()
    }

    /// Per-PM rows currently active (powered, mirrored fleet members).
    pub(crate) fn active_row_count(&self) -> usize {
        self.active_rows
    }

    /// Marks the mirrored state stale; the next compressed pass rebuilds
    /// from the view instead of patching.
    pub(crate) fn desync(&mut self) {
        self.synced = false;
    }

    fn poison(&mut self) {
        // The registries are left intact so the trip report (and the
        // accessors the bench rows read) can say what fragmented.
        dvmp_obs::note_compressed_poisoned(self.sclasses.len() as u64, self.demands.len() as u64);
        self.poisoned = true;
        self.synced = false;
        self.rows.clear();
        self.buckets.clear();
        self.cols.clear();
        self.col_slot.clear();
        self.host_vms.clear();
        self.stash.clear();
    }

    /// Occupied `(superclass, demand)` level buckets — how spread the
    /// compressed representation currently is (bench telemetry).
    pub(crate) fn occupied_buckets(&self) -> usize {
        self.buckets.iter().filter(|b| b.mask != 0).count()
    }

    // -------------------------------------------------------------------
    // Registries
    // -------------------------------------------------------------------

    fn register_sclass(
        &mut self,
        pm: &PlanPm,
        eff_c: f64,
        min_vm: &ResourceVector,
    ) -> Result<u16, Poison> {
        let key = SuperKey {
            capacity: pm.capacity,
            creation_secs: pm.creation_secs,
            migration_secs: pm.migration_secs,
            eff_bits: eff_c.to_bits(),
            rel_bits: pm.reliability.to_bits(),
        };
        if let Some(&s) = self.sclass_lookup.get(&key) {
            return Ok(s);
        }
        if self.sclasses.len() >= MAX_SUPERCLASSES || pm.capacity.k() != min_vm.k() {
            return Err(Poison);
        }
        let entry = ClassEntry::from_pm(pm, eff_c, min_vm);
        if entry.w_max > MAX_LEVEL {
            return Err(Poison);
        }
        let usable = entry.w_max >= 1 && entry.eff > 0.0;
        let s = self.sclasses.len() as u16;
        self.sclasses.push(SuperClass {
            entry,
            rel: pm.reliability,
            usable,
        });
        self.buckets
            .resize_with(self.sclasses.len() * MAX_DEMANDS, Bucket::default);
        self.sclass_lookup.insert(key, s);
        Ok(s)
    }

    /// Registers a demand vector, backfilling the level cache and buckets
    /// of every existing row for its slot — a new one, or, once all
    /// `MAX_DEMANDS` exist, a recycled slot no live column uses (none
    /// free poisons).
    fn register_demand(&mut self, res: &ResourceVector, cfg: &DynamicConfig) -> Result<u8, Poison> {
        if let Some(&d) = self.demand_lookup.get(res) {
            return Ok(d);
        }
        if res.k() != cfg.min_vm.k() {
            return Err(Poison);
        }
        let d = if self.demands.len() < MAX_DEMANDS {
            if self.demands.len() == self.stride {
                self.grow_stride();
            }
            self.demands.push(*res);
            self.demand_cols.push(0);
            self.pending.push(f64::NEG_INFINITY);
            self.hmin.push(f64::INFINITY);
            self.demands.len() - 1
        } else {
            let d = self
                .demand_cols
                .iter()
                .position(|&n| n == 0)
                .ok_or(Poison)?;
            self.retire_demand(d);
            self.demands[d] = *res;
            d
        } as u8;
        self.demand_lookup.insert(*res, d);
        for r in 0..self.rows.len() {
            if self.rows[r].active {
                self.bucket_row_demand(r, d as usize);
            }
        }
        Ok(d)
    }

    /// Doubles the level cache's per-row stride (to at least 8), keeping
    /// every row's cached levels.
    fn grow_stride(&mut self) {
        let old = self.stride;
        let new = (old * 2).clamp(8, MAX_DEMANDS);
        let mut row_w = vec![INFEASIBLE; self.rows.len() * new];
        if old > 0 {
            for (dst, src) in row_w.chunks_mut(new).zip(self.row_w.chunks(old)) {
                dst[..old].copy_from_slice(src);
            }
        }
        self.row_w = row_w;
        self.stride = new;
    }

    /// Empties demand slot `d`, which no live column uses, for reuse: its
    /// bucket in every superclass and every row's cached level for it. No
    /// column reads the slot, so no bound depends on what it held.
    fn retire_demand(&mut self, d: usize) {
        debug_assert_eq!(self.demand_cols[d], 0);
        self.demand_lookup.remove(&self.demands[d]);
        self.pending[d] = f64::NEG_INFINITY;
        self.hmin[d] = f64::INFINITY;
        for s in 0..self.sclasses.len() {
            let b = &mut self.buckets[s * MAX_DEMANDS + d];
            b.levels.iter_mut().for_each(BTreeSet::clear);
            b.mask = 0;
        }
        for r in 0..self.rows.len() {
            self.row_w[r * self.stride + d] = INFEASIBLE;
        }
    }

    // -------------------------------------------------------------------
    // Row maintenance
    // -------------------------------------------------------------------

    /// Records an insert into bucket `b_idx` while a patch is running —
    /// the bound-raise trigger (removals never raise a column's score).
    fn note_insert(&mut self, b_idx: usize) {
        if !self.snapshots_armed {
            return;
        }
        let b = &mut self.buckets[b_idx];
        if !b.marked {
            b.marked = true;
            self.touched_buckets.push(b_idx as u32);
        }
    }

    /// Removes row `r` from every bucket it currently occupies.
    fn unbucket_row(&mut self, r: usize) {
        let s = self.rows[r].sclass as usize;
        for d in 0..self.demands.len() {
            let w = self.row_w[r * self.stride + d];
            if w != INFEASIBLE {
                self.buckets[s * MAX_DEMANDS + d].remove(w, r as u32);
                self.row_w[r * self.stride + d] = INFEASIBLE;
            }
        }
    }

    /// Recomputes the level cache + bucket membership of row `r` for
    /// demand `d` (row must be active; handles its old entry, skipping
    /// the whole exchange when the level is unchanged).
    fn bucket_row_demand(&mut self, r: usize, d: usize) {
        let row = &self.rows[r];
        let sc = &self.sclasses[row.sclass as usize];
        let demand = self.demands[d];
        let w = if sc.usable && row.used.fits_with(&demand, &sc.entry.capacity) {
            class_table::class_level(&row.used.add(&demand), &sc.entry) as u8
        } else {
            INFEASIBLE
        };
        let old = self.row_w[r * self.stride + d];
        if old == w {
            return;
        }
        let b_idx = row.sclass as usize * MAX_DEMANDS + d;
        if old != INFEASIBLE {
            self.buckets[b_idx].remove(old, r as u32);
        }
        self.row_w[r * self.stride + d] = w;
        if w != INFEASIBLE {
            self.buckets[b_idx].insert(w, r as u32);
            self.note_insert(b_idx);
        }
    }

    /// Hosted-entry probability: `1·[p^vir=1]·p^rel·p^eff(used)` — the
    /// exact dense multiply chain for the current-host cell.
    fn host_prob(sc: &SuperClass, used: &ResourceVector, cfg: &DynamicConfig) -> f64 {
        let base = if cfg.use_rel { sc.rel } else { 1.0 };
        base * class_table::class_eff_prospective(used, &sc.entry)
    }

    /// Re-derives row `r` entirely from authoritative per-PM fields.
    #[allow(clippy::too_many_arguments)]
    fn sync_row(
        &mut self,
        r: usize,
        active: bool,
        pm: &PlanPm,
        cfg: &DynamicConfig,
    ) -> Result<(), Poison> {
        if !active {
            if self.rows[r].active {
                self.unbucket_row(r);
                self.active_rows -= 1;
            }
            self.rows[r].active = false;
            self.rows[r].h = 0.0;
            return Ok(());
        }
        let eff_c = *self.effs.get(pm.class_idx).ok_or(Poison)?;
        let s = self.register_sclass(pm, eff_c, &cfg.min_vm)?;
        if self.rows[r].active {
            if self.rows[r].sclass != s {
                // A row's PM identity is fixed, so this cannot happen; be
                // defensive anyway — the old sclass's buckets must drop it.
                self.unbucket_row(r);
            }
        } else {
            self.active_rows += 1;
        }
        let h = Self::host_prob(&self.sclasses[s as usize], &pm.used, cfg);
        self.rows[r] = Row {
            active: true,
            sclass: s,
            used: pm.used,
            h,
        };
        for d in 0..self.demands.len() {
            self.bucket_row_demand(r, d);
        }
        Ok(())
    }

    /// Refreshes a row after a hypothetical `used` mutation (active flag
    /// and superclass unchanged).
    fn refresh_row(&mut self, r: usize, cfg: &DynamicConfig) {
        let sc = &self.sclasses[self.rows[r].sclass as usize];
        self.rows[r].h = Self::host_prob(sc, &self.rows[r].used, cfg);
        for d in 0..self.demands.len() {
            self.bucket_row_demand(r, d);
        }
    }

    // -------------------------------------------------------------------
    // Column scoring
    // -------------------------------------------------------------------

    /// The cross-move factor product `p^vir·p^rel` shared by every row of
    /// superclass `s` for remaining time `rem` — the dense chain prefix
    /// before the per-row `p^eff` multiply, same operation order.
    fn mig_va(sc: &SuperClass, rem: u64, cfg: &DynamicConfig) -> f64 {
        let mut p = 1.0;
        if cfg.use_vir {
            p *= class_table::class_vir(&sc.entry, rem, cfg.overhead_mode);
        }
        if cfg.use_rel {
            p *= sc.rel;
        }
        p
    }

    /// The raw probability of row `row` for column `c` (0.0 when
    /// infeasible) — element-identical to the dense fast kernel's entry.
    fn probe_p(&self, row: usize, c: usize, rem: u64, cfg: &DynamicConfig) -> f64 {
        let r = &self.rows[row];
        if !r.active {
            return 0.0;
        }
        let w = self.row_w[row * self.stride + self.cols[c].demand as usize];
        if w == INFEASIBLE {
            return 0.0;
        }
        let sc = &self.sclasses[r.sclass as usize];
        let va = Self::mig_va(sc, rem, cfg);
        va * sc.entry.level_eff[w as usize]
    }

    /// The exact best move for column `c`: the same `(max d, lowest row)`
    /// the dense `best_move_for` scan finds, via the level buckets.
    fn exact_best(&self, c: usize, rem: u64, cfg: &DynamicConfig) -> Option<(u32, f64)> {
        let col = &self.cols[c];
        let host = col.host as usize;
        let d_idx = col.demand as usize;
        let h = self.rows[host].h;
        let host_sclass = self.rows[host].sclass;
        let mut best: Option<(u32, f64)> = None;
        for (s, sc) in self.sclasses.iter().enumerate() {
            if !sc.usable {
                continue;
            }
            let va = Self::mig_va(sc, rem, cfg);
            if va <= 0.0 {
                continue;
            }
            let b = &self.buckets[s * MAX_DEMANDS + d_idx];
            let exclude_host = s as u16 == host_sclass;
            if h > 0.0 {
                // Highest level with a non-host member strictly dominates
                // within the superclass (see module docs).
                let mut mask = b.mask;
                while mask != 0 {
                    let w = 63 - mask.leading_zeros() as usize;
                    let set = &b.levels[w];
                    let cand = if exclude_host {
                        let mut it = set.iter().copied();
                        match it.next() {
                            Some(r) if r as usize == host => it.next(),
                            first => first,
                        }
                    } else {
                        set.iter().next().copied()
                    };
                    if let Some(r) = cand {
                        let p = va * sc.entry.level_eff[w];
                        let d = p / h;
                        if d > 0.0 && best.map_or(true, |(br, bd)| d > bd || (d == bd && r < br)) {
                            best = Some((r, d));
                        }
                        break;
                    }
                    mask &= !(1u64 << w);
                }
            } else {
                // Zero current-host probability: every feasible candidate
                // scores ∞ and the dense scan keeps the lowest row.
                let mut mask = b.mask;
                let mut min_row: Option<u32> = None;
                while mask != 0 {
                    let w = mask.trailing_zeros() as usize;
                    if let Some(&r) = b.levels[w]
                        .iter()
                        .find(|&&r| !(exclude_host && r as usize == host))
                    {
                        min_row = Some(min_row.map_or(r, |m: u32| m.min(r)));
                    }
                    mask &= !(1u64 << w);
                }
                if let Some(r) = min_row {
                    if best.map_or(true, |(br, _)| r < br) {
                        best = Some((r, f64::INFINITY));
                    }
                }
            }
        }
        best
    }

    // -------------------------------------------------------------------
    // Sync / patch
    // -------------------------------------------------------------------

    fn ensure_synced(
        &mut self,
        view: &PlacementView<'_>,
        delta: Option<FleetDelta>,
        cfg: &DynamicConfig,
    ) -> bool {
        if self.poisoned {
            return false;
        }
        let full = !self.synced
            || view.dc.pms().len() != self.rows.len()
            || delta.as_ref().map_or(true, |d| d.is_full());
        let outcome = if full {
            self.rebuild_all(view, cfg)
        } else {
            self.patch(view, &delta.expect("non-full patch has a delta"), cfg)
        };
        match outcome {
            Ok(()) => {
                self.synced = true;
                true
            }
            Err(Poison) => {
                self.poison();
                false
            }
        }
    }

    fn rebuild_all(&mut self, view: &PlacementView<'_>, cfg: &DynamicConfig) -> Result<(), Poison> {
        self.effs.clear();
        self.effs.extend(
            relative_efficiencies(view.dc.classes(), &cfg.min_vm)
                .into_iter()
                .map(|e| crate::config::quantize_score(e, cfg.class_tolerance)),
        );
        let m = view.dc.pms().len();
        for b in &mut self.buckets {
            b.levels.iter_mut().for_each(BTreeSet::clear);
            b.mask = 0;
            b.marked = false;
        }
        self.touched_buckets.clear();
        self.rows.clear();
        self.rows.resize_with(m, Row::default);
        self.row_ids.clear();
        self.row_ids.extend((0..m as u32).map(PmId));
        self.row_w.clear();
        self.row_w.resize(m * self.stride, INFEASIBLE);
        self.host_vms.clear();
        self.host_vms.resize_with(m, BTreeSet::new);
        self.active_rows = 0;
        self.cols.clear();
        self.col_slot.clear();
        self.demand_cols.fill(0);
        self.stash.clear();
        self.self_dirty_pms.clear();
        self.self_dirty_vms.clear();
        self.snapshots_armed = false;
        for pm in view.dc.pms() {
            let r = pm.id.0 as usize;
            let plan_pm = Self::plan_pm_of(pm, cfg);
            self.sync_row(r, pm.is_available(), &plan_pm, cfg)?;
        }
        for vm in view.vms.values() {
            match vm.state {
                VmState::Running { pm } => {
                    let r = pm.0 as usize;
                    if self.rows.get(r).is_some_and(|row| row.active) {
                        let d = self.register_demand(vm.demand(), cfg)?;
                        self.insert_col(Col {
                            id: vm.spec.id,
                            demand: d,
                            host: pm.0,
                            deadline: view.now + vm.estimated_remaining(view.now),
                            dbar: f64::INFINITY,
                        })?;
                    }
                }
                VmState::Creating { ready_at, .. } => {
                    self.stash.insert((ready_at, vm.spec.id));
                }
                _ => {}
            }
        }
        self.dbar_max = f64::NEG_INFINITY;
        self.reset_pending();
        self.hmin.fill(f64::INFINITY);
        for c in 0..self.cols.len() {
            self.refresh_bound(c, view.now, cfg);
        }
        Ok(())
    }

    /// Sets column `c`'s bound to its exact best score at `now` and
    /// returns it. Every column whose host's `H` changed passes through
    /// here, which is what keeps `hmin` a lower bound.
    fn refresh_bound(&mut self, c: usize, now: SimTime, cfg: &DynamicConfig) -> f64 {
        let rem = self.cols[c].deadline.saturating_since(now).as_secs();
        let d = self.exact_best(c, rem, cfg).map_or(0.0, |(_, d)| d);
        let col = &mut self.cols[c];
        col.dbar = d;
        self.dbar_max = self.dbar_max.max(d);
        let (dm, h) = (col.demand as usize, self.rows[col.host as usize].h);
        if h < self.hmin[dm] {
            self.hmin[dm] = h;
            self.pending_max = self.pending_max.max(cap_over(self.pending[dm], h));
        }
        d
    }

    /// Clears every pending cap, once the caller has folded them into the
    /// columns' `dbar` or replaced `dbar` with exact scores.
    fn reset_pending(&mut self) {
        self.pending.fill(f64::NEG_INFINITY);
        self.pending_max = f64::NEG_INFINITY;
    }

    /// Column `c`'s effective bound: its `dbar`, raised by the pending cap
    /// of its demand over its host's current `H`.
    fn effective_bound(&self, c: usize) -> f64 {
        let col = &self.cols[c];
        let h = self.rows[col.host as usize].h;
        col.dbar.max(cap_over(self.pending[col.demand as usize], h))
    }

    /// Mirrors [`PlanState::refill`]'s row construction exactly —
    /// including the `class_tolerance` quantizers, which is what keeps the
    /// persistent planner's superclass keys identical to the inputs the
    /// dense kernel would see for the same fleet.
    fn plan_pm_of(pm: &dvmp_cluster::pm::Pm, cfg: &DynamicConfig) -> PlanPm {
        use crate::config::{quantize_score, quantize_secs};
        let tol = cfg.class_tolerance;
        PlanPm {
            id: pm.id,
            class_idx: pm.class_idx,
            capacity: match cfg.capacity_basis {
                crate::config::CapacityBasis::Virtual => pm.virtual_capacity(),
                crate::config::CapacityBasis::Physical => *pm.capacity(),
            },
            used: *pm.used(),
            reliability: quantize_score(pm.reliability, tol),
            creation_secs: quantize_secs(pm.class.creation_time.as_secs(), tol),
            migration_secs: quantize_secs(pm.class.migration_time.as_secs(), tol),
        }
    }

    fn col_index(&self, vm: VmId) -> Option<usize> {
        match self.col_slot.get(vm.0 as usize) {
            Some(&i) if i != NO_COL => Some(i as usize),
            _ => None,
        }
    }

    /// Appends a column for a VM that has none. Ids past `MAX_VM_ID`
    /// poison rather than size the slot table after them.
    fn insert_col(&mut self, col: Col) -> Result<(), Poison> {
        let id = col.id.0 as usize;
        if id > MAX_VM_ID {
            return Err(Poison);
        }
        if self.col_slot.len() <= id {
            self.col_slot.resize(id + 1, NO_COL);
        }
        debug_assert_eq!(self.col_slot[id], NO_COL, "vm {id} already has a column");
        self.col_slot[id] = self.cols.len() as u32;
        self.demand_cols[col.demand as usize] += 1;
        self.host_vms[col.host as usize].insert(col.id);
        self.cols.push(col);
        Ok(())
    }

    fn remove_col(&mut self, vm: VmId) {
        if let Some(i) = self.col_index(vm) {
            let col = self.cols.swap_remove(i);
            self.col_slot[vm.0 as usize] = NO_COL;
            if let Some(moved) = self.cols.get(i) {
                self.col_slot[moved.id.0 as usize] = i as u32;
            }
            self.host_vms[col.host as usize].remove(&vm);
            self.demand_cols[col.demand as usize] -= 1;
        }
    }

    fn patch(
        &mut self,
        view: &PlacementView<'_>,
        delta: &FleetDelta,
        cfg: &DynamicConfig,
    ) -> Result<(), Poison> {
        self.snapshots_armed = true;
        // `reread`: VMs whose column may have changed, re-read from the
        // VM map. `rescore`: clean columns on a dirty row that stays
        // active — only their host's `H` and the buckets moved under
        // them, so they are re-scored as they stand.
        let mut reread = std::mem::take(&mut self.reread_cols);
        let mut rescore = std::mem::take(&mut self.rescore_cols);

        // Rows: journal dirt plus this planner's own previous-pass touches.
        let mut self_pms = std::mem::take(&mut self.self_dirty_pms);
        self_pms.sort_unstable();
        self_pms.dedup();
        let mut dirty_rows = 0u64;
        for &id in delta.dirty_pms().iter().chain(self_pms.iter()) {
            let r = id.0 as usize;
            if r >= self.rows.len() {
                return Err(Poison);
            }
            let was_active = self.rows[r].active;
            let pm = view.dc.pm(id);
            let plan_pm = Self::plan_pm_of(pm, cfg);
            self.sync_row(r, pm.is_available(), &plan_pm, cfg)?;
            dirty_rows += 1;
            match (was_active, self.rows[r].active) {
                (true, true) => rescore.extend(self.host_vms[r].iter().copied()),
                (true, false) => {
                    for vm in std::mem::take(&mut self.host_vms[r]) {
                        self.remove_col(vm);
                    }
                }
                // Freshly available again: adopt whatever it already hosts.
                (false, true) => reread.extend(pm.hosted_vms()),
                (false, false) => {}
            }
        }
        self_pms.clear();
        self.self_dirty_pms = self_pms;

        // Stash: creation deadlines that have passed.
        while let Some(&(t, vm)) = self.stash.first() {
            if t > view.now {
                break;
            }
            self.stash.pop_first();
            reread.push(vm);
        }

        reread.extend(delta.dirty_vms().iter().copied());
        reread.append(&mut self.self_dirty_vms);
        reread.sort_unstable();
        reread.dedup();

        // Columns: re-read each dirty VM from the authoritative map.
        for &vm_id in &reread {
            match view.vms.get(&vm_id).map(|vm| (vm, vm.state)) {
                Some((vm, VmState::Running { pm })) => {
                    let r = pm.0 as usize;
                    if !self.rows.get(r).is_some_and(|row| row.active) {
                        self.remove_col(vm_id);
                        continue;
                    }
                    let d = self.register_demand(vm.demand(), cfg)?;
                    let deadline = view.now + vm.estimated_remaining(view.now);
                    let Some(i) = self.col_index(vm_id) else {
                        self.insert_col(Col {
                            id: vm_id,
                            demand: d,
                            host: pm.0,
                            deadline,
                            dbar: f64::INFINITY,
                        })?;
                        continue;
                    };
                    let old_host = self.cols[i].host as usize;
                    if old_host != r {
                        self.host_vms[old_host].remove(&vm_id);
                        self.host_vms[r].insert(vm_id);
                    }
                    self.demand_cols[self.cols[i].demand as usize] -= 1;
                    self.demand_cols[d as usize] += 1;
                    let col = &mut self.cols[i];
                    col.demand = d;
                    col.host = pm.0;
                    col.deadline = deadline;
                }
                Some((_, VmState::Creating { ready_at, .. })) => {
                    self.remove_col(vm_id);
                    self.stash.insert((ready_at, vm_id));
                }
                _ => self.remove_col(vm_id),
            }
        }

        // Buckets that gained an insert can now score higher for *any*
        // demand-matching column (a newcomer can turn a level that held
        // only a column's own host into a real candidate, so a top
        // comparison alone would be unsound): fold them into `pending`.
        self.snapshots_armed = false;
        self.fold_touched(cfg);

        // Exact refresh of every re-read or re-scored column still live.
        reread.append(&mut rescore);
        reread.sort_unstable();
        reread.dedup();
        let mut refreshed = 0u64;
        for &vm_id in &reread {
            if let Some(c) = self.col_index(vm_id) {
                #[cfg(debug_assertions)]
                self.assert_col_matches(c, view);
                self.refresh_bound(c, view.now, cfg);
                refreshed += 1;
            }
        }
        reread.clear();
        self.reread_cols = reread;
        self.rescore_cols = rescore;
        dvmp_obs::note_compressed_patch(dirty_rows, refreshed);
        Ok(())
    }

    /// Checked mode: column `c` agrees with the authoritative VM map. The
    /// deadline is compared as remaining time, since an overdue VM's
    /// stored deadline saturates at the instant it was read.
    #[cfg(debug_assertions)]
    fn assert_col_matches(&self, c: usize, view: &PlacementView<'_>) {
        let col = &self.cols[c];
        let vm = &view.vms[&col.id];
        assert_eq!(
            vm.state,
            VmState::Running {
                pm: self.row_ids[col.host as usize]
            },
            "vm {:?}: stale column host",
            col.id
        );
        assert_eq!(
            &self.demands[col.demand as usize],
            vm.demand(),
            "vm {:?}: stale demand",
            col.id
        );
        assert_eq!(
            col.deadline.saturating_since(view.now),
            vm.estimated_remaining(view.now),
            "vm {:?}: stale remaining time",
            col.id
        );
    }

    /// Folds the buckets touched since the last patch into `pending`, then
    /// clears the touched list. O(touched buckets): the columns themselves
    /// only see the raise through [`effective_bound`](Self::effective_bound)
    /// until a full scan folds it into their `dbar`.
    fn fold_touched(&mut self, cfg: &DynamicConfig) {
        for &b_idx in &self.touched_buckets {
            let bucket = &mut self.buckets[b_idx as usize];
            bucket.marked = false;
            let Some(top) = bucket.top() else {
                continue;
            };
            let s = b_idx as usize / MAX_DEMANDS;
            let d = b_idx as usize % MAX_DEMANDS;
            let sc = &self.sclasses[s];
            let rel_cap = if cfg.use_rel { sc.rel } else { 1.0 };
            let cap = self.pending[d].max(rel_cap * sc.entry.level_eff[top as usize]);
            self.pending[d] = cap;
            self.pending_max = self.pending_max.max(cap_over(cap, self.hmin[d]));
        }
        self.touched_buckets.clear();
    }

    // -------------------------------------------------------------------
    // Planning passes
    // -------------------------------------------------------------------

    /// Runs a full planning pass against the live view. `None` = the
    /// planner (became) poisoned — caller must run the dense kernel.
    pub(crate) fn plan_migrations(
        &mut self,
        view: &PlacementView<'_>,
        delta: Option<FleetDelta>,
        cfg: &DynamicConfig,
    ) -> Option<(Vec<Migration>, bool)> {
        if !self.ensure_synced(view, delta, cfg) {
            return None;
        }
        if self.cols.is_empty() || self.active_rows < 2 {
            return Some((Vec::new(), false));
        }
        // Checked mode: in debug builds, prove the effective bounds
        // dominate the exact scores before trusting the early-out on them.
        #[cfg(debug_assertions)]
        for c in 0..self.cols.len() {
            let col = &self.cols[c];
            let rem = col.deadline.saturating_since(view.now).as_secs();
            let exact = self.exact_best(c, rem, cfg).map_or(0.0, |(_, d)| d);
            let bound = self.effective_bound(c);
            let h = self.rows[col.host as usize].h;
            debug_assert!(
                bound >= exact,
                "stale-low bound: vm {:?} host {} demand {} bound {} exact {} (t={})",
                col.id,
                col.host,
                col.demand,
                bound,
                exact,
                view.now.as_secs(),
            );
            debug_assert!(
                self.hmin[col.demand as usize] <= h,
                "hmin above a host's H: vm {:?} host {} h {}",
                col.id,
                col.host,
                h
            );
            debug_assert!(
                bound <= self.dbar_max.max(self.pending_max) || bound.is_nan(),
                "running maxima below a bound"
            );
        }
        #[cfg(debug_assertions)]
        {
            let mut live = vec![0u32; self.demand_cols.len()];
            for col in &self.cols {
                live[col.demand as usize] += 1;
            }
            debug_assert_eq!(live, self.demand_cols, "per-demand column counts");
        }
        // Stage 1: the bound check. Most passes end here. (The maxima are
        // never NaN: `f64::max` skips NaN bounds, as `bound > thr` would.)
        let thr = cfg.mig_threshold;
        if self.dbar_max.max(self.pending_max) <= thr {
            return Some((Vec::new(), false));
        }
        // Stage 2: fold the pending caps into every column, exactly
        // refresh the exceeders at the current instant, and re-derive the
        // running maximum and `hmin` from scratch on the way.
        let mut any = false;
        self.dbar_max = f64::NEG_INFINITY;
        self.hmin.fill(f64::INFINITY);
        for c in 0..self.cols.len() {
            let bound = self.effective_bound(c);
            if bound > thr {
                any |= self.refresh_bound(c, view.now, cfg) > thr;
            } else {
                let col = &mut self.cols[c];
                col.dbar = bound;
                self.dbar_max = self.dbar_max.max(bound);
                let hmin = &mut self.hmin[col.demand as usize];
                *hmin = hmin.min(self.rows[col.host as usize].h);
            }
        }
        self.reset_pending();
        if !any {
            return Some((Vec::new(), false));
        }
        // Stage 3: a genuine winner exists — run Algorithm 1's rounds.
        dvmp_obs::note_compressed_rounds_entered();
        let now = view.now;
        let rem_of = |cols: &[Col], c: usize| cols[c].deadline.saturating_since(now).as_secs();
        Some(self.run_rounds(cfg, rem_of, None))
    }

    /// Algorithm 1's migration rounds with the per-column best cache and
    /// its repair heuristics, mirrored from the dense planner. Returns the
    /// move batch and whether the round cap stopped it.
    fn run_rounds(
        &mut self,
        cfg: &DynamicConfig,
        rem_of: impl Fn(&[Col], usize) -> u64,
        mut plan: Option<&mut PlanState>,
    ) -> (Vec<Migration>, bool) {
        let n = self.cols.len();
        let mut rem = std::mem::take(&mut self.rem);
        let mut best = std::mem::take(&mut self.best);
        rem.clear();
        best.clear();
        for c in 0..n {
            rem.push(rem_of(&self.cols, c));
        }
        for (c, &r) in rem.iter().enumerate() {
            best.push(self.exact_best(c, r, cfg));
        }
        // Equal scores go to the column the dense planner meets first: the
        // lowest `VmId` (persistent columns sit in no particular order), or
        // the lowest plan index for a one-shot plan.
        let one_shot = plan.is_some();
        let rank = |cols: &[Col], c: usize| if one_shot { c as u32 } else { cols[c].id.0 };
        let mut moves = Vec::new();
        let mut capped = true;
        for _round in 0..cfg.mig_round {
            let mut winner: Option<(usize, u32, f64)> = None;
            for (c, entry) in best.iter().enumerate() {
                if let Some((row, d)) = *entry {
                    if d > cfg.mig_threshold
                        && winner.map_or(true, |(wc, _, wd)| {
                            d > wd || (d == wd && rank(&self.cols, c) < rank(&self.cols, wc))
                        })
                    {
                        winner = Some((c, row, d));
                    }
                }
            }
            let Some((col, to, _d)) = winner else {
                capped = false;
                break;
            };
            let to = to as usize;
            let from = self.cols[col].host as usize;
            let res = self.demands[self.cols[col].demand as usize];
            if let Some(p) = plan.as_deref_mut() {
                let applied = p.apply_migration(col, to);
                debug_assert_eq!(applied, (from, to));
                self.rows[from].used = p.pms[from].used;
                self.rows[to].used = p.pms[to].used;
            } else {
                self.rows[from].used = self.rows[from].used.saturating_sub(&res);
                self.rows[to].used = self.rows[to].used.add(&res);
            }
            self.refresh_row(from, cfg);
            self.refresh_row(to, cfg);
            let mig_secs = self.sclasses[self.rows[to].sclass as usize]
                .entry
                .migration_secs;
            rem[col] = rem[col].saturating_sub(mig_secs);
            let vm_id = self.cols[col].id;
            self.cols[col].host = to as u32;
            self.host_vms[from].remove(&vm_id);
            self.host_vms[to].insert(vm_id);
            moves.push(Migration {
                vm: vm_id,
                from: self.row_ids[from],
                to: self.row_ids[to],
            });

            // Repair the per-column cache (mirrors the dense repair loop,
            // including its zero-entry skip).
            for c in 0..n {
                let host = self.cols[c].host as usize;
                let needs_rescan = c == col
                    || host == from
                    || host == to
                    || best[c].is_some_and(|(r, _)| r as usize == from || r as usize == to);
                if needs_rescan {
                    best[c] = self.exact_best(c, rem[c], cfg);
                } else {
                    for row in [from, to] {
                        if row == host {
                            continue;
                        }
                        let p = self.probe_p(row, c, rem[c], cfg);
                        if p <= 0.0 {
                            continue;
                        }
                        let h = self.rows[host].h;
                        let d = if h > 0.0 { p / h } else { f64::INFINITY };
                        if d > 0.0 && best[c].map_or(true, |(_, bd)| d > bd) {
                            best[c] = Some((row as u32, d));
                        }
                    }
                }
            }
        }
        // The exact bests become the carried bounds (nothing is pending
        // past them), and the pass's own touches are re-read
        // authoritatively next patch.
        self.dbar_max = f64::NEG_INFINITY;
        self.reset_pending();
        self.hmin.fill(f64::INFINITY);
        for (col, b) in self.cols.iter_mut().zip(best.iter()) {
            col.dbar = b.map_or(0.0, |(_, d)| d);
            self.dbar_max = self.dbar_max.max(col.dbar);
            let hmin = &mut self.hmin[col.demand as usize];
            *hmin = hmin.min(self.rows[col.host as usize].h);
        }
        for m in &moves {
            self.self_dirty_pms.extend([m.from, m.to]);
            self.self_dirty_vms.push(m.vm);
        }
        self.rem = rem;
        self.best = best;
        (moves, capped)
    }

    /// New-arrival placement (the Section III-C column), with the dense
    /// planner's overhead-free fallback. `None` = poisoned.
    pub(crate) fn place(
        &mut self,
        view: &PlacementView<'_>,
        spec: &VmSpec,
        delta: Option<FleetDelta>,
        cfg: &DynamicConfig,
    ) -> Option<Option<PmId>> {
        if !self.ensure_synced(view, delta, cfg) {
            return None;
        }
        let d_idx = match self.register_demand(&spec.resources, cfg) {
            Ok(d) => d as usize,
            Err(Poison) => {
                self.poison();
                return None;
            }
        };
        let est = spec.estimated_runtime.as_secs();
        let pick = |with_vir: bool| -> Option<(u32, f64)> {
            let mut best: Option<(u32, f64)> = None;
            for (s, sc) in self.sclasses.iter().enumerate() {
                if !sc.usable {
                    continue;
                }
                let mut va = 1.0;
                if with_vir {
                    va *= vir::p_vir(
                        est,
                        sc.entry.creation_secs,
                        sc.entry.migration_secs,
                        false,
                        false,
                        cfg.overhead_mode,
                    );
                }
                if cfg.use_rel {
                    va *= sc.rel;
                }
                if va <= 0.0 {
                    continue;
                }
                let b = &self.buckets[s * MAX_DEMANDS + d_idx];
                let Some(w) = b.top() else { continue };
                let r = *b.levels[w as usize]
                    .iter()
                    .next()
                    .expect("non-empty top level");
                let p = va * sc.entry.level_eff[w as usize];
                if p > 0.0 && best.map_or(true, |(br, bp)| p > bp || (p == bp && r < br)) {
                    best = Some((r, p));
                }
            }
            best
        };
        let chosen = pick(cfg.use_vir).or_else(|| pick(false));
        Some(chosen.map(|(r, _)| self.row_ids[r as usize]))
    }
}

/// One-shot compressed planning over an explicit [`PlanState`] — the
/// `plan_on` entry point.
/// Returns `None` when the plan cannot be compressed (caller runs dense).
pub(crate) fn one_shot(
    cfg: &DynamicConfig,
    plan: &mut PlanState,
) -> Option<(Vec<Migration>, bool)> {
    let mut p = CompressedPlanner::new();
    p.effs = plan.effs.clone();
    let m = plan.pms.len();
    p.rows.resize_with(m, Row::default);
    p.row_ids.extend(plan.pms.iter().map(|pm| pm.id));
    p.row_w.resize(m * p.stride, INFEASIBLE);
    p.host_vms.resize_with(m, BTreeSet::new);
    for r in 0..m {
        let pm = plan.pms[r].clone();
        if p.sync_row(r, true, &pm, cfg).is_err() {
            p.poison();
            return None;
        }
    }
    for vm in &plan.vms {
        let Ok(d) = p.register_demand(&vm.resources, cfg) else {
            p.poison();
            return None;
        };
        p.demand_cols[d as usize] += 1;
        p.cols.push(Col {
            id: vm.id,
            demand: d,
            host: vm.host as u32,
            deadline: SimTime::ZERO,
            dbar: f64::INFINITY,
        });
        p.host_vms[vm.host].insert(vm.id);
    }
    let rems: Vec<u64> = plan.vms.iter().map(|vm| vm.remaining_secs).collect();
    let rem_of = move |_cols: &[Col], c: usize| rems[c];
    Some(p.run_rounds(cfg, rem_of, Some(plan)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynamicPlacement;
    use crate::plan::PlanState;
    use crate::policy::testutil::*;
    use crate::policy::PlacementPolicy;
    use dvmp_cluster::datacenter::{Datacenter, FleetBuilder};
    use dvmp_cluster::pm::PmClass;
    use dvmp_cluster::vm::Vm;
    use std::collections::BTreeMap;

    /// Which planner a test twin runs: the dense reference or the
    /// production scheme (compressed, with its dense fallback).
    #[derive(Debug, Clone, Copy)]
    enum Kernel {
        Dense,
        Compressed,
    }

    impl Kernel {
        fn policy(self, cfg: DynamicConfig) -> DynamicPlacement {
            match self {
                Kernel::Dense => DynamicPlacement::dense_reference(cfg),
                Kernel::Compressed => DynamicPlacement::new(cfg),
            }
        }
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// One datacenter + VM map + policy, driven through a scripted
    /// history. Two twins fed identical histories must agree on every
    /// policy decision.
    struct Twin {
        dc: Datacenter,
        vms: BTreeMap<VmId, Vm>,
        policy: DynamicPlacement,
    }

    impl Twin {
        fn new(kernel: Kernel) -> Self {
            Twin::sized(kernel, 6, 6)
        }

        fn sized(kernel: Kernel, fast: usize, slow: usize) -> Self {
            let dc = FleetBuilder::new()
                .add_class(PmClass::paper_fast(), fast, 0.99)
                .add_class(PmClass::paper_slow(), slow, 0.95)
                .initially_on(true)
                .build();
            Twin {
                dc,
                vms: BTreeMap::new(),
                policy: kernel.policy(DynamicConfig::default()),
            }
        }

        fn drain(&mut self) {
            let delta = self.dc.take_fleet_delta();
            self.policy.note_fleet_delta(delta);
        }

        fn place(&mut self, spec: &VmSpec, now: SimTime) -> Option<PmId> {
            self.drain();
            let view = PlacementView {
                dc: &self.dc,
                vms: &self.vms,
                now,
            };
            self.policy.place(&view, spec)
        }

        fn plan(&mut self, now: SimTime) -> Vec<Migration> {
            self.drain();
            let view = PlacementView {
                dc: &self.dc,
                vms: &self.vms,
                now,
            };
            self.policy.plan_migrations(&view)
        }
    }

    /// Drives the dense and compressed policies through the same random
    /// arrival / departure / migration / failure history and asserts
    /// every placement and every migration batch is identical. Covers the
    /// persistent patch path (journal dirt, Creating stash, planner
    /// self-dirt, skipped moves) rather than single fresh passes.
    fn differential_history(seed: u64, steps: u32) {
        drive_history(
            seed,
            steps,
            Twin::new(Kernel::Dense),
            Twin::new(Kernel::Compressed),
        );
    }

    /// The scripted-history driver behind the differential tests: both
    /// twins see the same arrivals, departures, commits and failures and
    /// must agree on every placement and every migration batch.
    fn drive_history(seed: u64, steps: u32, mut dense: Twin, mut comp: Twin) {
        let mut rng = seed | 1;
        let mut next_vm = 1u32;
        let mut t = 0u64;
        let mut failures = 0;
        // In-flight migrations and pending creations, identical in both
        // twins by construction.
        let mut inflight: Vec<(VmId, PmId, PmId, SimTime)> = Vec::new();
        let mut creating: Vec<(VmId, PmId, SimTime)> = Vec::new();

        for _ in 0..steps {
            let now = SimTime::from_secs(t);
            // Commit due migrations and creations (CreationDone mutates
            // only the VM map — the unjournaled transition the stash
            // exists for).
            inflight.retain(|&(vm, from, to, done)| {
                if !dense.vms.contains_key(&vm) {
                    return false;
                }
                if done > now {
                    return true;
                }
                for twin in [&mut dense, &mut comp] {
                    twin.dc.finish_migration(vm, from).unwrap();
                    let v = twin.vms.get_mut(&vm).unwrap();
                    v.state = VmState::Running { pm: to };
                }
                false
            });
            creating.retain(|&(vm, pm, ready)| {
                if !dense.vms.contains_key(&vm) {
                    return false;
                }
                if ready > now {
                    return true;
                }
                for twin in [&mut dense, &mut comp] {
                    let v = twin.vms.get_mut(&vm).unwrap();
                    v.state = VmState::Running { pm };
                    v.started_at = Some(ready);
                }
                false
            });

            match xorshift(&mut rng) % 6 {
                0 | 1 => {
                    // Arrival: both policies must pick the same PM.
                    let mem = 256 << (xorshift(&mut rng) % 3);
                    let est = 400 + xorshift(&mut rng) % 200_000;
                    let spec = spec(next_vm, mem, est);
                    next_vm += 1;
                    let pa = dense.place(&spec, now);
                    let pb = comp.place(&spec, now);
                    assert_eq!(pa, pb, "seed {seed}: placement diverged at t={t}");
                    if let Some(pm) = pa {
                        let as_creating = xorshift(&mut rng) % 2 == 0;
                        let cre = dense.dc.pm(pm).class.creation_time;
                        for twin in [&mut dense, &mut comp] {
                            twin.dc.place(spec.id, pm, spec.resources).unwrap();
                            let mut vm = Vm::new(spec.clone());
                            if as_creating {
                                vm.state = VmState::Creating {
                                    pm,
                                    ready_at: now + cre,
                                };
                            } else {
                                vm.state = VmState::Running { pm };
                                vm.started_at = Some(now);
                            }
                            twin.vms.insert(spec.id, vm);
                        }
                        if as_creating {
                            creating.push((spec.id, pm, now + cre));
                        }
                    }
                }
                2 => {
                    // Departure of a random live VM.
                    let ids: Vec<VmId> = dense.vms.keys().copied().collect();
                    if !ids.is_empty() {
                        let vm = ids[(xorshift(&mut rng) % ids.len() as u64) as usize];
                        for twin in [&mut dense, &mut comp] {
                            twin.dc.remove_vm(vm);
                            twin.vms.remove(&vm);
                        }
                    }
                }
                3 | 4 => {
                    // Planning pass; apply a random subset of the agreed
                    // moves (the simulator skips moves too).
                    let ma = dense.plan(now);
                    let mb = comp.plan(now);
                    assert_eq!(ma, mb, "seed {seed}: plans diverged at t={t}");
                    for m in &ma {
                        if xorshift(&mut rng) % 4 == 0 {
                            continue; // skipped by the "simulator"
                        }
                        let res = dense.vms[&m.vm].spec.resources;
                        // Mirror the simulator's pre-apply validity check:
                        // earlier moves in the batch can use up the room the
                        // planner assumed this one would have.
                        if !matches!(
                            dense.vms[&m.vm].state,
                            VmState::Running { pm } if pm == m.from
                        ) || !dense.dc.pm(m.to).can_host(&res)
                        {
                            continue;
                        }
                        let mig = dense.dc.pm(m.to).class.migration_time;
                        for twin in [&mut dense, &mut comp] {
                            twin.dc.begin_migration(m.vm, m.to, res).unwrap();
                            let v = twin.vms.get_mut(&m.vm).unwrap();
                            v.state = VmState::Migrating {
                                from: m.from,
                                to: m.to,
                                done_at: now + mig,
                            };
                            v.overhead += mig;
                        }
                        inflight.push((m.vm, m.from, m.to, now + mig));
                    }
                }
                _ => {
                    // PM failure (bounded so the fleet survives the run).
                    if failures < 2 {
                        let candidates: Vec<PmId> = dense
                            .dc
                            .pms()
                            .iter()
                            .filter(|pm| pm.is_available())
                            .map(|pm| pm.id)
                            .collect();
                        if candidates.len() > 4 {
                            let pm =
                                candidates[(xorshift(&mut rng) % candidates.len() as u64) as usize];
                            failures += 1;
                            let displaced_a = dense.dc.fail_pm(pm);
                            let displaced_b = comp.dc.fail_pm(pm);
                            assert_eq!(displaced_a, displaced_b);
                            for vm in displaced_a {
                                dense.vms.remove(&vm);
                                comp.vms.remove(&vm);
                            }
                        }
                    }
                }
            }
            t += 30 + xorshift(&mut rng) % 400;
        }
        // A final full pass for good measure.
        let now = SimTime::from_secs(t);
        assert_eq!(dense.plan(now), comp.plan(now), "seed {seed}: final plan");
        assert!(
            !comp.policy.compressed_poisoned(),
            "seed {seed}: this history must stay compressible"
        );
        assert!(
            comp.policy.compressed_passes() > 0,
            "seed {seed}: the compressed kernel must actually run"
        );
    }

    #[test]
    fn compressed_matches_dense_over_random_histories() {
        for seed in [3, 7, 11, 23, 41, 97, 131, 257] {
            differential_history(seed, 120);
        }
    }

    /// A twin over a per-PM-jittered fleet: every reliability is nudged
    /// off its class value, so exact-equality superclassing would
    /// fragment toward one class per PM. With `class_tolerance` both
    /// kernels quantize through the same grid and the compressed planner
    /// keeps its two hardware superclasses.
    fn jittered_twin(kernel: Kernel, tolerance: f64) -> Twin {
        let mut dc = FleetBuilder::new()
            .add_class(PmClass::paper_fast(), 6, 0.99)
            .add_class(PmClass::paper_slow(), 6, 0.95)
            .initially_on(true)
            .build();
        for i in 0..dc.len() {
            // ±0.004 spread, well inside one 0.01-tolerance bucket.
            dc.pm_mut(PmId(i as u32)).reliability += 0.002 * ((i % 5) as f64 - 2.0);
        }
        let cfg = DynamicConfig {
            class_tolerance: tolerance,
            ..DynamicConfig::default()
        };
        Twin {
            dc,
            vms: BTreeMap::new(),
            policy: kernel.policy(cfg),
        }
    }

    #[test]
    fn bucketed_compressed_matches_dense_on_jittered_fleets() {
        for seed in [5, 19, 73, 211] {
            let dense = jittered_twin(Kernel::Dense, 0.01);
            let comp = jittered_twin(Kernel::Compressed, 0.01);
            drive_history(seed, 100, dense, comp);
        }
    }

    #[test]
    fn tolerance_collapses_jittered_fleet_to_hardware_superclasses() {
        // Exact keys: every jittered reliability is its own superclass.
        let mut exact = jittered_twin(Kernel::Compressed, 0.0);
        let _ = exact.plan(SimTime::ZERO);
        assert!(!exact.policy.compressed_poisoned());
        assert_eq!(
            exact.policy.compressed_superclasses(),
            10,
            "5 distinct jittered reliabilities per hardware class"
        );
        // Bucketed keys: the jitter collapses back onto the two classes.
        let mut bucketed = jittered_twin(Kernel::Compressed, 0.01);
        let s = spec(1, 512, 50_000);
        if let Some(pm) = bucketed.place(&s, SimTime::ZERO) {
            bucketed.dc.place(s.id, pm, s.resources).unwrap();
            let mut vm = Vm::new(s);
            vm.state = VmState::Running { pm };
            vm.started_at = Some(SimTime::ZERO);
            bucketed.vms.insert(vm.spec.id, vm);
        }
        let _ = bucketed.plan(SimTime::ZERO);
        assert!(!bucketed.policy.compressed_poisoned());
        assert_eq!(bucketed.policy.compressed_superclasses(), 2);
        assert!(
            bucketed.policy.compressed_occupied_buckets() >= 1,
            "a registered demand occupies at least one level bucket"
        );
    }

    #[test]
    fn compressed_place_matches_dense_on_fresh_fleet() {
        // Ultra-short estimates exercise the without-vir fallback column.
        for est in [50, 500, 5_000, 50_000] {
            let mut dense = Twin::new(Kernel::Dense);
            let mut comp = Twin::new(Kernel::Compressed);
            let s = spec(1, 512, est);
            let now = SimTime::ZERO;
            assert_eq!(dense.place(&s, now), comp.place(&s, now), "est {est}");
        }
    }

    #[test]
    fn one_shot_matches_dense_on_class_divergent_plans() {
        // Hand-built plans whose PMs diverge from their hardware class
        // (mutated reliability): every divergent PM must land in its own
        // superclass and the move sequence must match the dense planner.
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
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let cfg = DynamicConfig::default();
        let mut plan = PlanState::from_view(&view, &cfg.min_vm);
        // Diverge two PMs from their class rows.
        plan.pms[1].reliability = 0.42;
        plan.pms[3].reliability = 0.77;

        let mut plan_dense = plan.clone();
        let mut plan_comp = plan.clone();
        let mut dense = DynamicPlacement::dense_reference(DynamicConfig::default());
        let mut comp = DynamicPlacement::paper_default();
        let moves_dense = dense.plan_on(&mut plan_dense);
        let moves_comp = comp.plan_on(&mut plan_comp);
        assert_eq!(moves_dense, moves_comp);
        assert!(
            !moves_dense.is_empty(),
            "divergent fleet still consolidates"
        );
        assert_eq!(comp.compressed_passes(), 1, "one-shot kernel served it");
        for (a, b) in plan_dense.pms.iter().zip(plan_comp.pms.iter()) {
            assert_eq!(a.used, b.used, "identical end occupancy");
        }
    }

    #[test]
    fn tie_break_is_deterministic_across_build_kernels() {
        // Dense and compressed builds must resolve ties identically
        // (lowest eligible PM id).
        let build = || {
            let mut dc = small_fleet();
            let mut vms = BTreeMap::new();
            // Symmetric load: the two fast PMs (and the two slow PMs) are
            // bit-identical rows, so every candidate scan hits ties.
            for (i, pm) in [0u32, 1, 2, 3, 0, 1].iter().enumerate() {
                install(
                    &mut dc,
                    &mut vms,
                    spec(i as u32 + 1, 512, 180_000),
                    PmId(*pm),
                    SimTime::ZERO,
                );
            }
            (dc, vms)
        };
        let mut all_moves = Vec::new();
        let mut all_places = Vec::new();
        for kernel in [Kernel::Dense, Kernel::Compressed] {
            let (dc, vms) = build();
            let view = PlacementView {
                dc: &dc,
                vms: &vms,
                now: SimTime::ZERO,
            };
            let mut policy = kernel.policy(DynamicConfig::default());
            all_moves.push(policy.plan_migrations(&view));
            all_places.push(policy.place(&view, &spec(99, 256, 120_000)));
        }
        assert_eq!(all_moves[0], all_moves[1], "dense vs compressed");
        assert_eq!(all_places[0], all_places[1]);
    }

    #[test]
    fn poisoned_planner_falls_back_to_dense_and_still_matches() {
        // More distinct demand vectors live at once than MAX_DEMANDS (on a
        // fleet with room for them all): the compressed planner must
        // poison itself and route everything to the dense kernel, with no
        // observable difference.
        let mut dense = Twin::sized(Kernel::Dense, 18, 6);
        let mut comp = Twin::sized(Kernel::Compressed, 18, 6);
        let mut t = 0u64;
        for i in 0..(MAX_DEMANDS as u32 + 6) {
            let now = SimTime::from_secs(t);
            let s = spec(i + 1, 256 + i as u64, 100_000);
            let pa = dense.place(&s, now);
            let pb = comp.place(&s, now);
            assert_eq!(pa, pb, "vm {i}");
            if let Some(pm) = pa {
                for twin in [&mut dense, &mut comp] {
                    install(&mut twin.dc, &mut twin.vms, s.clone(), pm, now);
                }
            }
            t += 100;
        }
        assert!(comp.policy.compressed_poisoned());
        let now = SimTime::from_secs(t);
        assert_eq!(dense.plan(now), comp.plan(now), "post-poison plans match");
    }

    #[test]
    fn vm_ids_past_the_slot_table_poison_and_still_match() {
        // A VM id the column slot table does not cover poisons the planner
        // instead of sizing the table after it; the plan is unchanged.
        let mut dense = Twin::new(Kernel::Dense);
        let mut comp = Twin::new(Kernel::Compressed);
        for (i, id) in [1, MAX_VM_ID as u32 + 1].into_iter().enumerate() {
            for twin in [&mut dense, &mut comp] {
                let s = spec(id, 512, 150_000);
                install(
                    &mut twin.dc,
                    &mut twin.vms,
                    s,
                    PmId(6 + i as u32),
                    SimTime::ZERO,
                );
            }
        }
        let now = SimTime::from_secs(60);
        let moves = dense.plan(now);
        assert!(!moves.is_empty());
        assert_eq!(moves, comp.plan(now));
        assert!(comp.policy.compressed_poisoned());
    }

    /// Recomputes every active row's level for every registered demand
    /// from scratch and checks the level cache and the buckets hold
    /// exactly that — no stale level, no stale bucket entry.
    fn assert_level_cache_exact(p: &CompressedPlanner) {
        let mut expected_entries = 0usize;
        for (r, row) in p.rows.iter().enumerate() {
            for (d, demand) in p.demands.iter().enumerate() {
                let cached = p.row_w[r * p.stride + d];
                if !row.active {
                    assert_eq!(cached, INFEASIBLE, "inactive row {r}, demand {d}");
                    continue;
                }
                let sc = &p.sclasses[row.sclass as usize];
                let w = if sc.usable && row.used.fits_with(demand, &sc.entry.capacity) {
                    class_table::class_level(&row.used.add(demand), &sc.entry) as u8
                } else {
                    INFEASIBLE
                };
                assert_eq!(cached, w, "row {r}, demand {d}");
                if w != INFEASIBLE {
                    expected_entries += 1;
                    let b = &p.buckets[row.sclass as usize * MAX_DEMANDS + d];
                    assert!(b.levels[w as usize].contains(&(r as u32)));
                }
            }
        }
        let entries: usize = p
            .buckets
            .iter()
            .flat_map(|b| &b.levels)
            .map(BTreeSet::len)
            .sum();
        assert_eq!(entries, expected_entries, "stale bucket entries");
    }

    #[test]
    fn level_cache_survives_stride_growth_and_slot_recycling() {
        // A loaded fleet, then new demand shapes one at a time: each
        // growth of the per-row stride must carry every cached level over,
        // and past MAX_DEMANDS each recycled slot must be wiped and
        // refilled — never one a live column still uses.
        let mut twin = Twin::new(Kernel::Compressed);
        for (i, pm) in [0u32, 0, 1, 2, 6, 6, 7].iter().enumerate() {
            let s = spec(i as u32 + 1, 512 + 256 * i as u64, 150_000);
            install(&mut twin.dc, &mut twin.vms, s, PmId(*pm), SimTime::ZERO);
        }
        let view = PlacementView {
            dc: &twin.dc,
            vms: &twin.vms,
            now: SimTime::ZERO,
        };
        let cfg = DynamicConfig::default();
        let mut p = CompressedPlanner::new();
        assert!(p.ensure_synced(&view, None, &cfg));
        for i in 0..(MAX_DEMANDS as u64 + 20) {
            p.register_demand(&ResourceVector::cpu_mem(1 + i % 3, 100 + 37 * i), &cfg)
                .expect("a slot is free");
            assert_level_cache_exact(&p);
        }
        assert_eq!((p.stride, p.demands.len()), (MAX_DEMANDS, MAX_DEMANDS));
        for col in &p.cols {
            assert_eq!(
                &p.demands[col.demand as usize],
                twin.vms[&col.id].demand(),
                "a live column's slot was recycled"
            );
        }
    }

    #[test]
    fn demand_slots_recycle_through_elastic_churn() {
        // Three times MAX_DEMANDS distinct demand vectors over the run, but
        // never more than a handful live at once: freed slots must be
        // reused (no poisoning), and every decision must stay the dense
        // kernel's. Half the arrivals skip `place` so the patch path
        // registers (and recycles) too.
        let mut dense = Twin::new(Kernel::Dense);
        let mut comp = Twin::new(Kernel::Compressed);
        let mut live = std::collections::VecDeque::new();
        for i in 0..(3 * MAX_DEMANDS as u32) {
            let now = SimTime::from_secs(100 * u64::from(i));
            let s = spec(i + 1, 128 + u64::from(i), 150_000);
            // A fast PM (ids 0–5) holds all six live VMs if it must.
            let pm = if i % 2 == 0 {
                let pa = dense.place(&s, now);
                assert_eq!(pa, comp.place(&s, now), "vm {i}");
                pa.expect("the fleet has room")
            } else {
                PmId(i % 6)
            };
            for twin in [&mut dense, &mut comp] {
                install(&mut twin.dc, &mut twin.vms, s.clone(), pm, now);
            }
            live.push_back(s.id);
            if live.len() > 6 {
                let gone = live.pop_front().expect("non-empty");
                for twin in [&mut dense, &mut comp] {
                    twin.dc.remove_vm(gone);
                    twin.vms.remove(&gone);
                }
            }
            assert_eq!(dense.plan(now), comp.plan(now), "vm {i}");
        }
        assert!(!comp.policy.compressed_poisoned());
        assert_eq!(
            comp.policy.compressed_passes(),
            3 * MAX_DEMANDS as u64,
            "every pass ran on the persistent compressed planner"
        );
    }

    #[test]
    fn auto_kernel_runs_compressed_at_paper_scale() {
        // The default scheme is the compressed planner at every fleet
        // size: even a 4-PM fleet runs it, and its plan is the dense
        // kernel's.
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
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut policy = DynamicPlacement::paper_default();
        let moves = policy.plan_migrations(&view);
        assert!(!moves.is_empty());
        assert!(
            policy.compressed_passes() > 0,
            "the default scheme runs compressed at 4 PMs"
        );
        let mut dense = DynamicPlacement::dense_reference(DynamicConfig::default());
        assert_eq!(moves, dense.plan_migrations(&view));
        assert_eq!(dense.compressed_passes(), 0);
    }

    /// A compressed planner synced to `twin`'s fleet at `now`.
    fn synced_planner(twin: &Twin, now: SimTime, cfg: &DynamicConfig) -> CompressedPlanner {
        let view = PlacementView {
            dc: &twin.dc,
            vms: &twin.vms,
            now,
        };
        let mut p = CompressedPlanner::new();
        assert!(p.ensure_synced(&view, None, cfg));
        p
    }

    #[test]
    fn lazy_raise_takes_the_largest_touched_cap_per_demand() {
        // Two superclasses (fast, slow) × one demand: fold both buckets as
        // touched at different tops and check every column's effective
        // bound lands on the larger `p_cap / h`, and on ∞ over a zero-`h`
        // host — and that the running maximum covers it.
        let mut twin = Twin::new(Kernel::Compressed);
        let now = SimTime::ZERO;
        for (i, pm) in [0u32, 6].iter().enumerate() {
            install(
                &mut twin.dc,
                &mut twin.vms,
                spec(i as u32 + 1, 512, 200_000),
                PmId(*pm),
                now,
            );
        }
        let cfg = DynamicConfig::default();
        let mut planner = synced_planner(&twin, now, &cfg);
        let p = &mut planner;
        assert_eq!((p.sclasses.len(), p.demands.len(), p.cols.len()), (2, 1, 2));
        let caps: Vec<f64> = (0..2)
            .map(|s| {
                let top = p.buckets[s * MAX_DEMANDS].top().expect("occupied bucket");
                p.sclasses[s].rel * p.sclasses[s].entry.level_eff[top as usize]
            })
            .collect();
        assert_ne!(caps[0], caps[1], "the two tops must differ");
        let cap = caps[0].max(caps[1]);
        let clear = |p: &mut CompressedPlanner| {
            p.reset_pending();
            p.hmin.fill(f64::INFINITY);
            for c in 0..p.cols.len() {
                p.cols[c].dbar = 0.0;
                let (d, h) = (p.cols[c].demand as usize, p.rows[p.cols[c].host as usize].h);
                p.hmin[d] = p.hmin[d].min(h);
            }
            p.dbar_max = 0.0;
        };
        // Either touch order must land on the larger cap.
        for order in [[0, MAX_DEMANDS as u32], [MAX_DEMANDS as u32, 0]] {
            clear(p);
            p.touched_buckets = order.to_vec();
            p.fold_touched(&cfg);
            for c in 0..p.cols.len() {
                let h = p.rows[p.cols[c].host as usize].h;
                assert!(h > 0.0);
                let bound = p.effective_bound(c);
                assert_eq!(
                    bound.to_bits(),
                    (cap / h).to_bits(),
                    "vm {:?}",
                    p.cols[c].id
                );
                assert!(bound <= p.pending_max, "pending_max covers the bound");
                assert_eq!(p.cols[c].dbar, 0.0, "the fold leaves dbar alone");
            }
            assert!(p.touched_buckets.is_empty());
            assert!(p.buckets.iter().all(|b| !b.marked));
        }

        // A zero-`h` host still raises to ∞; an untouched demand does not.
        clear(p);
        let host = p.cols[0].host as usize;
        p.rows[host].h = 0.0;
        p.hmin[0] = 0.0;
        p.touched_buckets = vec![MAX_DEMANDS as u32];
        p.fold_touched(&cfg);
        assert_eq!(p.effective_bound(0), f64::INFINITY);
        assert_eq!(p.pending_max, f64::INFINITY);
        clear(p);
        p.fold_touched(&cfg);
        assert_eq!(p.effective_bound(0), 0.0, "nothing touched, nothing raised");
        assert_eq!(p.pending_max, f64::NEG_INFINITY);
    }

    #[test]
    fn hmin_follows_a_host_whose_h_drops_after_the_touch() {
        // A cap is pending for the only demand; then the host of two of its
        // columns loses one VM, so its `H` drops. The patch re-scores the
        // surviving column, `hmin` must follow `H` down, and the running
        // maximum must still cover every effective bound.
        let mut twin = Twin::new(Kernel::Compressed);
        let now = SimTime::ZERO;
        for (i, pm) in [0u32, 0, 6].iter().enumerate() {
            install(
                &mut twin.dc,
                &mut twin.vms,
                spec(i as u32 + 1, 512, 200_000),
                PmId(*pm),
                now,
            );
        }
        let _ = twin.dc.take_fleet_delta();
        let cfg = DynamicConfig::default();
        let mut p = synced_planner(&twin, now, &cfg);
        p.touched_buckets = vec![0];
        p.fold_touched(&cfg);
        assert!(p.pending[0] > 0.0);
        let h_before = p.rows[0].h;
        assert_eq!(p.hmin[0], h_before.min(p.rows[6].h));

        twin.dc.remove_vm(VmId(2));
        twin.vms.remove(&VmId(2));
        let delta = twin.dc.take_fleet_delta();
        let view = PlacementView {
            dc: &twin.dc,
            vms: &twin.vms,
            now,
        };
        assert!(p.ensure_synced(&view, Some(delta), &cfg));
        let h_after = p.rows[0].h;
        assert!(h_after < h_before, "H fell with the host's load");
        assert!(p.hmin[0] <= h_after, "hmin {} above H {h_after}", p.hmin[0]);
        let ceiling = p.dbar_max.max(p.pending_max);
        for c in 0..p.cols.len() {
            let rem = p.cols[c].deadline.saturating_since(now).as_secs();
            let exact = p.exact_best(c, rem, &cfg).map_or(0.0, |(_, d)| d);
            let bound = p.effective_bound(c);
            assert!(exact <= bound && bound <= ceiling, "vm {:?}", p.cols[c].id);
        }
    }

    #[test]
    fn tied_winner_is_the_lowest_vm_id_after_swap_remove() {
        // Four identical VMs alone on four identical slow PMs score exactly
        // alike. Removing the first column swaps the last (VM 4) into its
        // slot, ahead of VMs 2 and 3: the winner must still be the dense
        // planner's, the lowest id.
        let mut dense = Twin::new(Kernel::Dense);
        let mut comp = Twin::new(Kernel::Compressed);
        let now = SimTime::ZERO;
        let cfg = DynamicConfig::default();
        for twin in [&mut dense, &mut comp] {
            for i in 0..4u32 {
                install(
                    &mut twin.dc,
                    &mut twin.vms,
                    spec(i + 1, 512, 200_000),
                    PmId(6 + i),
                    now,
                );
            }
            let _ = twin.dc.take_fleet_delta();
        }
        let mut p = synced_planner(&comp, now, &cfg);
        for twin in [&mut dense, &mut comp] {
            twin.dc.remove_vm(VmId(1));
            twin.vms.remove(&VmId(1));
        }
        let later = SimTime::from_secs(60);
        let delta = comp.dc.take_fleet_delta();
        let view = PlacementView {
            dc: &comp.dc,
            vms: &comp.vms,
            now: later,
        };
        let (moves, _) = p
            .plan_migrations(&view, Some(delta), &cfg)
            .expect("stays compressible");
        let ids: Vec<u32> = p.cols.iter().map(|c| c.id.0).collect();
        assert_eq!(ids, [4, 2, 3], "swap_remove reordered the columns");
        assert!(!moves.is_empty(), "the tied VMs consolidate");
        assert_eq!(moves[0].vm, VmId(2), "lowest id wins the tie");
        assert_eq!(dense.plan(later), moves);
    }

    #[test]
    fn creation_stash_defers_and_adopts_columns() {
        // A VM mid-creation must not be planned; once its ready time
        // passes (an unjournaled transition), the stash must surface it.
        let mut dense = Twin::new(Kernel::Dense);
        let mut comp = Twin::new(Kernel::Compressed);
        // Fragment: two runners on separate PMs plus one creating.
        for (twin_no, twin) in [&mut dense, &mut comp].into_iter().enumerate() {
            for (i, pm) in [0u32, 2].iter().enumerate() {
                install(
                    &mut twin.dc,
                    &mut twin.vms,
                    spec(i as u32 + 1, 512, 200_000),
                    PmId(*pm),
                    SimTime::ZERO,
                );
            }
            twin.dc
                .place(VmId(3), PmId(3), ResourceVector::cpu_mem(1, 512))
                .unwrap();
            let mut vm = Vm::new(spec(3, 512, 200_000));
            vm.state = VmState::Creating {
                pm: PmId(3),
                ready_at: SimTime::from_secs(40),
            };
            twin.vms.insert(VmId(3), vm);
            let _ = twin_no;
        }
        let m0_dense = dense.plan(SimTime::from_secs(0));
        let m0_comp = comp.plan(SimTime::from_secs(0));
        assert_eq!(m0_dense, m0_comp, "creating VM excluded identically");
        // Promote (no journal traffic at all) and replan.
        for twin in [&mut dense, &mut comp] {
            let v = twin.vms.get_mut(&VmId(3)).unwrap();
            v.state = VmState::Running { pm: PmId(3) };
            v.started_at = Some(SimTime::from_secs(40));
        }
        let m1_dense = dense.plan(SimTime::from_secs(50));
        let m1_comp = comp.plan(SimTime::from_secs(50));
        assert_eq!(m1_dense, m1_comp, "stash surfaced the new column");
        assert!(
            m1_comp.iter().any(|m| m.vm == VmId(3)) || !m1_comp.is_empty(),
            "the promoted VM is plannable"
        );
    }
}
