//! The class-compressed planning kernel — the planner
//! [`DynamicPlacement`](crate::dynamic::DynamicPlacement) runs on every
//! pass.
//!
//! Eq. 1 defines an M×N probability matrix, and the dense form of it
//! (stated in the test-only executable specification, `spec/spec.rs`)
//! is inherently O(M·N) per pass. This module exploits the structural
//! redundancy of a fleet instead: a matrix entry is a function of
//! `(class constants, reliability, extension-factor keys, utilization
//! level, column)` only, so the M per-PM rows collapse into C
//! per-*superclass* level tables (C ≪ M). A superclass is the exact
//! equality key under which two rows are guaranteed bit-identical per
//! column: capacity, creation/migration overheads, relative power
//! efficiency, reliability score and the PM's key under every registered
//! [`KeyedFactor`]. PMs that diverge from their hardware class (e.g. a
//! per-PM reliability) simply get their own superclass. A row reads its
//! PM through [`PlanPm::from_pm`] and [`eff_table`]. Every registry
//! grows on demand — superclasses, demand slots, Eq. 4 levels and the
//! `VmId → column` table — so no fleet, workload or configuration leaves
//! this planner. (A PM holding more than 65 534 minimum VMs, past the
//! `u16` level cache, is rejected when the simulation is built.)
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
//!   Under the `use_eff = false` ablation `p^eff ≡ 1`: every feasible row
//!   sits on one constant level and the eff multiply is skipped, exactly
//!   as the specification's per-entry product skips it.
//! - Per row: the hosted-entry probability `H = p^rel·p^eff(used)·(factors
//!   at the host)` and a per-demand level cache, so a candidate probe
//!   costs one table load.
//! - Per column (one per migratable VM): its demand, host row,
//!   authoritative completion deadline, and `dbar` — with the threshold,
//!   an **upper bound** on the column's best normalized score
//!   `max_r d(r,c)`: `max(dbar, MIG_threshold) ≥ max_r d(r,c)` (see
//!   below).
//!   Columns sit in a slab in no particular order: removal is a
//!   `swap_remove` plus a `VmId → slot` table update, O(1). The round
//!   loop's winner scan therefore breaks an exact tie in `d` by the
//!   lowest `VmId` — the column the dense definition, whose columns are
//!   `VmId`-sorted, meets first.
//!
//! ## Keyed extension factors
//!
//! A [`KeyedFactor`] depends only on (the host's key, the candidate's
//! key, the instant), so each pass evaluates it once into a `(K+1)×K`
//! table (row `K` is a new request). A score multiplies the table entries
//! in one at a time, in registration order, after `p^eff`, each clamped
//! to `[0, 1]` and stopping at 0 — the float-op order of the definition
//! (DESIGN.md §8), so the product is bit-identical (a pre-multiplied
//! table would not be). A factor that is
//! `≤ 1` can only lower scores, so every bound below stays valid while the
//! tables hold still; when any table entry changes between passes (a
//! tariff step), the planner rebuilds its mirror from the view.
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
//!   `p^vir·p^rel ≤ p^rel`, every factor is `≤ 1` and every candidate
//!   sits at or below the top (`H ≤ 0` makes it ∞, as such a host scores
//!   every candidate ∞).
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
//! The fold visits no column. A round loop visits only the columns whose
//! bound can exceed `MIG_threshold`, so a column it does not visit may keep
//! a `dbar` below a raise that is itself `≤ MIG_threshold`: the invariant
//! is `max(effective bound, MIG_threshold) ≥ exact`. Two structures find
//! the columns that can exceed the threshold without a scan:
//!
//! - the **hot list**, which holds every column whose `dbar` exceeds the
//!   threshold (`refresh_bound` and each round's visited columns feed it;
//!   departed columns, repeats and bounds since lowered are pruned
//!   lazily, at the bound check);
//! - the **row index**, an ordered set of `(H, row)` over the active rows
//!   that host a column (spare rows stay out; `H ≤ 0` sorts first). A cap
//!   `cap` lifts a column above the threshold only if `cap / H(host)`
//!   does, so a walk up from the lowest `H` that stops at the first row
//!   where `max_d cap[d] / H ≤ MIG_threshold` reaches every such column.
//!
//! A planning pass then reduces to: patch; exit if the hot list is empty
//! and `max_d pending[d] / (lowest H) ≤ MIG_threshold`; else run
//! Algorithm 1's round loop, whose first round folds `pending` into the
//! `dbar` of each column it visits. A looser bound cannot change the moves:
//! every round's winner is decided on *exact* scores, and a bound only
//! decides whether a column's exact score gets computed, so any valid bound
//! yields the same plan — a loose one costs only an extra visit or an extra
//! [`CompressedPlanner::exact_best`] call.
//!
//! ## The lazy round loop
//!
//! Each round moves the argmax of [`CompressedPlanner::exact_best`] over
//! every column (ties to the lowest `VmId`) — history-free, as the
//! definition states it — but visits only the columns that can win and
//! computes the exact best only where the bounds leave a doubt. With
//! `cap[d]` the pending caps before round 1 and the last move's caps after
//! it, a round visits the hot list, the columns on the row-index rows
//! whose `cap[d] / H` (each column's own demand) exceeds the threshold,
//! and after a move the moved column and every column on its two rows.
//! Visit order cannot change the winner, since `(d, VmId)` ranks strictly.
//! A visited column is *exact* (best row and score known, computed in this
//! pass) or *inexact* (`dbar` bounds its score); every column enters a
//! pass inexact, and the pass makes the columns it evaluated inexact again
//! as it ends. A round skips a visited column whose
//! bound is `≤ max(MIG_threshold, leader)` (an equal bound loses on
//! `VmId`) and computes `exact_best` only for an inexact survivor. A move
//! charges the destination's `T^mig` by pulling the moved column's
//! deadline in. After a move `from → to`, the next round folds into each
//! column it visits:
//!
//! - the moved column and every column hosted on `from`/`to` (whose `H`
//!   changed) become inexact at `∞`;
//! - any other column's score changed only at `from`/`to`, where it is at
//!   most `move_cap[d] / H(host)` — the largest `p^rel·level_eff` the two
//!   rows now offer demand `d`, over the host's `H`. Its bound is raised
//!   to that, and it becomes inexact if its exact best pointed at
//!   `from`/`to` or if the cap reaches its bound (`>=`: a vacated row
//!   that ties the cached best at a lower row must win the tie).
//!
//! A column the round does not visit has `dbar` and raise both `≤
//! MIG_threshold`, so its exact score is too, and its `best` is not
//! trusted again before a visit invalidates it: every exact column above
//! the threshold is hot, and hot columns are visited every round. The
//! round that ends the loop has no winner, so it computed every column
//! above the threshold exactly and leaves the hot list empty: the next pass
//! over an unchanged fleet stops at the bound check. A loop the round cap
//! stops spends one more round folding its last move into the columns it
//! visits, evaluating none. The bounds leave as `dbar`.
//!
//! The planner's own hypothetical row and deadline mutations (and any
//! divergence from the simulator skipping a proposed move, or the
//! double-reservation window of an in-flight migration) are reconciled by
//! re-reading the touched rows/VMs from the authoritative view at the next
//! patch; bucket tops that rise in that reconciliation raise bounds
//! through the normal trigger.
//!
//! Resource vectors must share `min_vm`'s dimension count; a simulation
//! whose fleet or requests do not is rejected when it is built
//! ([`DynamicConfig::check_inputs`]).

use crate::config::DynamicConfig;
use crate::factors::class_table::{self, ClassEntry};
use crate::factors::vir;
use crate::plan::{eff_table, PlanPm};
use crate::policy::{KeyedFactor, Migration, PlacementView};
use dvmp_cluster::pm::PmId;
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::{VmId, VmSpec, VmState};
use dvmp_cluster::{FleetDelta, VmSlots};
use dvmp_simcore::{SimDuration, SimTime};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Demand slots registered before a new demand vector starts recycling a
/// slot no live column uses. The registry grows past it only while every
/// slot is in use — an elastic week resizes through far more distinct
/// vectors than that, and the 1k-PM overbooked-elastic week peaks at 75 in
/// use at once.
pub const DEMAND_RECYCLE_AT: usize = 128;
/// `row_w` sentinel: infeasible / not bucketed.
const INFEASIBLE: u16 = u16::MAX;
/// Highest Eq. 4 level the `u16` level cache holds (a PM holding more
/// minimum VMs than this is rejected when a simulation is built, see
/// [`DynamicConfig::check_inputs`]). The cache is the planner's largest
/// per-PM structure (`rows × demand slots`), so it stays narrow: on the
/// 10k-PM week a `u32` cache measured ~25 % slower end to end.
pub(crate) const MAX_LEVEL: u64 = INFEASIBLE as u64 - 1;
/// Round-loop sentinel: the column's `dbar` is a bound, not its exact best.
const INEXACT: u32 = u32::MAX;

/// `true` when a column `id` scoring `d` outranks the round's `leader`
/// (its score and `VmId`): a higher score, or an equal one at a lower
/// `VmId`.
fn outranks(d: f64, id: VmId, leader: Option<(f64, VmId)>) -> bool {
    leader.map_or(true, |(ld, lid)| d > ld || (d == ld && id < lid))
}

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
    /// Index of the PM's key tuple (its key under each registered factor,
    /// in registration order) in the planner's tuple registry; 0 when no
    /// factor is registered.
    keys: u32,
}

/// One superclass: the shared [`ClassEntry`] constants plus the score
/// pieces that are uniform across its member rows.
#[derive(Debug, Clone)]
struct SuperClass {
    entry: ClassEntry,
    rel: f64,
    /// Factor keys of every member row (see [`SuperKey::keys`]).
    keys: Vec<u16>,
    /// `false` when every non-host entry of the superclass is 0 (under
    /// `p^eff`: `w_max == 0` or `eff ≤ 0`) — its rows are never
    /// candidates.
    usable: bool,
}

/// One factor's per-pass table: `values[from * keys + to]`, clamped to
/// `[0, 1]`, with `from == keys` standing for a new request.
#[derive(Debug, Clone, Default)]
struct FactorTable {
    keys: usize,
    values: Vec<f64>,
}

impl FactorTable {
    #[inline]
    fn get(&self, from: Option<u16>, to: u16) -> f64 {
        let from = from.map_or(self.keys, usize::from);
        self.values[from * self.keys + usize::from(to)]
    }
}

/// Level buckets for one (superclass, demand) pair.
#[derive(Debug, Clone, Default)]
struct Bucket {
    levels: Vec<BTreeSet<u32>>,
    /// Bit `w` is set iff `levels[w]` is non-empty, for the levels below
    /// 64 — every level of a fleet whose PMs hold fewer than 64 minimum
    /// VMs. Higher levels are found by scanning their sets.
    mask: u64,
    /// A row was inserted during the current patch (bound-raise trigger).
    marked: bool,
}

/// Levels a [`Bucket`] tracks in its bitmask.
const MASKED_LEVELS: usize = 64;

impl Bucket {
    #[inline]
    fn top(&self) -> Option<usize> {
        self.find_desc(Some)
    }

    fn is_empty(&self) -> bool {
        self.mask == 0 && self.high().iter().all(BTreeSet::is_empty)
    }

    /// The level sets past the bitmask (empty for most fleets).
    #[inline]
    fn high(&self) -> &[BTreeSet<u32>] {
        self.levels.get(MASKED_LEVELS..).unwrap_or(&[])
    }

    /// Walks the non-empty levels highest first and returns the first
    /// `Some` that `f` yields.
    #[inline]
    fn find_desc<T>(&self, mut f: impl FnMut(usize) -> Option<T>) -> Option<T> {
        for (i, set) in self.high().iter().enumerate().rev() {
            if !set.is_empty() {
                if let Some(found) = f(MASKED_LEVELS + i) {
                    return Some(found);
                }
            }
        }
        let mut left = self.mask;
        while left != 0 {
            let w = 63 - left.leading_zeros() as usize;
            if let Some(found) = f(w) {
                return Some(found);
            }
            left &= !(1u64 << w);
        }
        None
    }

    #[inline]
    fn insert(&mut self, w: u32, row: u32) {
        let w = w as usize;
        if self.levels.len() <= w {
            self.levels.resize_with(w + 1, BTreeSet::new);
        }
        self.levels[w].insert(row);
        if w < MASKED_LEVELS {
            self.mask |= 1u64 << w;
        }
    }

    #[inline]
    fn remove(&mut self, w: u32, row: u32) {
        let w = w as usize;
        let set = &mut self.levels[w];
        set.remove(&row);
        if set.is_empty() && w < MASKED_LEVELS {
            self.mask &= !(1u64 << w);
        }
    }

    fn clear(&mut self) {
        self.levels.iter_mut().for_each(BTreeSet::clear);
        self.mask = 0;
    }
}

/// One matrix column: a migratable VM.
#[derive(Debug, Clone)]
struct Col {
    id: VmId,
    demand: u32,
    host: u32,
    /// Authoritative completion deadline (`now + estimated_remaining`),
    /// so remaining time at any later pass is `deadline − now`.
    deadline: SimTime,
    /// Bound on `max_r d(r, c)`: `max(dbar, MIG_threshold)` is an upper
    /// bound; see the module docs.
    dbar: f64,
    /// Round loop only: the exact best row, or [`INEXACT`] while `dbar`
    /// only bounds the score. Every column is inexact between passes.
    best: u32,
}

/// Per-row state, indexed by `PmId.0` (ascending ids, the dense
/// definition's row order, so tie-breaks on the lowest row agree).
#[derive(Debug, Clone)]
struct Row {
    active: bool,
    sclass: u32,
    used: ResourceVector,
    /// Hosted-entry probability `p^rel·p^eff(used)` times the factors at
    /// the host (the normalization denominator for columns hosted here).
    h: f64,
    /// The row is in the row index (under `h_key(h)`).
    indexed: bool,
}

/// The superclass of a row not yet active since the last rebuild.
const UNREGISTERED: u32 = u32::MAX;

impl Default for Row {
    fn default() -> Self {
        Row {
            active: false,
            sclass: UNREGISTERED,
            used: ResourceVector::zero(1),
            h: 0.0,
            indexed: false,
        }
    }
}

/// The row index's sort key for a row whose `H` is `h`: ascending `H`, with
/// every `H ≤ 0` (and NaN) first — the rows [`cap_over`] scores ∞. (The
/// bits of a positive float sort as its value; those of `−0.0` would not.)
fn h_key(h: f64) -> u64 {
    if h > 0.0 {
        h.to_bits()
    } else {
        0
    }
}

/// The persistent class-compressed planner. See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompressedPlanner {
    /// `true` while the state mirrors the live fleet as of the last
    /// consumed journal drain. A factor-table change desyncs it.
    synced: bool,
    /// Registered extension factors, applied after the built-in four.
    factors: Vec<Arc<dyn KeyedFactor>>,
    /// Each factor's table at the last pass's instant.
    tables: Vec<FactorTable>,
    /// Distinct per-PM factor key tuples, and their indices.
    key_tuples: Vec<Vec<u16>>,
    key_tuple_lookup: HashMap<Vec<u16>, u32>,
    effs: Vec<f64>,
    sclasses: Vec<SuperClass>,
    sclass_lookup: HashMap<SuperKey, u32>,
    demands: Vec<ResourceVector>,
    demand_lookup: HashMap<ResourceVector, u32>,
    /// Live columns per demand slot; a zero-count slot may be recycled.
    demand_cols: Vec<u32>,
    rows: Vec<Row>,
    row_ids: Vec<PmId>,
    /// Level cache, `rows.len() × stride`: row `r`'s level for demand
    /// slot `d` sits at `r * stride + d`.
    row_w: Vec<u16>,
    /// Demand slots per row in `row_w` and per superclass in `buckets`.
    /// Doubles as demands register, so a fleet that sees few demand
    /// shapes keeps a small level cache.
    stride: usize,
    host_vms: Vec<BTreeSet<VmId>>,
    active_rows: usize,
    /// `sclasses.len() × stride` level buckets: `(s, d)` at
    /// `s * stride + d`.
    buckets: Vec<Bucket>,
    /// `(superclass, demand)` of every bucket marked this patch.
    touched_buckets: Vec<(u32, u32)>,
    snapshots_armed: bool,
    /// Column storage in no particular order (removal is `swap_remove`).
    cols: Vec<Col>,
    /// `VmId → index into cols`.
    col_slot: VmSlots,
    /// `(h_key(H), row)` of every active row that hosts a column, so a
    /// round walks the rows a cap can lift above the threshold lowest `H`
    /// first and stops at the first it cannot.
    row_index: BTreeSet<(u64, u32)>,
    /// The hot list: every column whose `dbar` exceeds `MIG_threshold`,
    /// plus stale entries (departed columns, repeats, bounds since
    /// lowered) that the bound check prunes.
    hot: Vec<VmId>,
    /// Per demand slot: the largest `p^rel·level_eff[top]` of a bucket
    /// that gained an insert since the last fold (`-∞`: none). Every
    /// demand-`d` column's effective bound is
    /// `max(dbar, pending[d] / H(host))`; see the module docs.
    pending: Vec<f64>,
    /// `max_d pending[d]`.
    pending_cap: f64,
    /// VMs seen mid-creation: re-examined once their ready time passes
    /// (the creation-done transition is not journaled — the datacenter's
    /// occupancy does not change at that instant).
    stash: BTreeSet<(SimTime, VmId)>,
    /// Rows / VMs this planner's own previous pass touched — re-read from
    /// the authoritative view at the next patch. Unsorted, with repeats,
    /// until the patch sorts and dedups them; cleared (not freed) after
    /// use.
    self_dirty_pms: Vec<PmId>,
    self_dirty_vms: Vec<VmId>,
    // Patch and round-loop scratch, reused across passes.
    reread_cols: Vec<VmId>,
    rescore_cols: Vec<VmId>,
    /// Round loop: per demand slot, the cap the round folds in — the
    /// pending caps before round 1, then the largest `p^rel·level_eff`
    /// the last move's two rows offer (`-∞`: neither fits it).
    move_cap: Vec<f64>,
    /// Round loop: the columns a round visits, and every column a pass
    /// made exact (made inexact again when the pass ends).
    visit: Vec<u32>,
    exact: Vec<u32>,
}

impl CompressedPlanner {
    pub(crate) fn new(factors: Vec<Arc<dyn KeyedFactor>>) -> Self {
        CompressedPlanner {
            factors,
            ..CompressedPlanner::default()
        }
    }

    /// The registered extension factors.
    pub(crate) fn factors(&self) -> &[Arc<dyn KeyedFactor>] {
        &self.factors
    }

    /// Registers one more extension factor. Superclass keys include every
    /// factor's key, so the superclass registry starts over.
    pub(crate) fn push_factor(&mut self, factor: Arc<dyn KeyedFactor>) {
        self.factors.push(factor);
        self.key_tuples.clear();
        self.key_tuple_lookup.clear();
        self.sclasses.clear();
        self.sclass_lookup.clear();
        self.buckets.clear();
        self.synced = false;
    }

    /// Registered superclasses — the compressed kernel's row dimension
    /// `C` (0 before the first pass).
    pub(crate) fn superclass_count(&self) -> usize {
        self.sclasses.len()
    }

    /// Per-PM rows currently active (powered, mirrored fleet members).
    pub(crate) fn active_row_count(&self) -> usize {
        self.active_rows
    }

    /// Occupied `(superclass, demand)` level buckets — how spread the
    /// compressed representation currently is (bench telemetry).
    pub(crate) fn occupied_buckets(&self) -> usize {
        self.buckets.iter().filter(|b| !b.is_empty()).count()
    }

    // -------------------------------------------------------------------
    // Extension factors
    // -------------------------------------------------------------------

    /// Re-evaluates every factor's table at `now`; `true` when any entry
    /// changed (the mirrored `H`s and bounds no longer hold).
    fn refresh_tables(&mut self, now: SimTime) -> bool {
        let mut changed = self.tables.len() != self.factors.len();
        self.tables
            .resize_with(self.factors.len(), FactorTable::default);
        for (table, factor) in self.tables.iter_mut().zip(&self.factors) {
            let keys = usize::from(factor.key_count());
            if table.keys != keys || table.values.len() != (keys + 1) * keys {
                table.keys = keys;
                table.values.clear();
                table.values.resize((keys + 1) * keys, f64::NAN);
                changed = true;
            }
            for from in 0..=keys {
                let from_key = (from < keys).then_some(from as u16);
                for to in 0..keys {
                    let v = factor.factor(from_key, to as u16, now).clamp(0.0, 1.0);
                    let slot = &mut table.values[from * keys + to];
                    if slot.to_bits() != v.to_bits() {
                        *slot = v;
                        changed = true;
                    }
                }
            }
        }
        changed
    }

    /// Multiplies the factor-table entries for a mapping from a host keyed
    /// `from` (`None`: a new request) onto superclass keys `to` into `p` —
    /// one at a time, registration order, stopping at 0, as the definition
    /// does. The factor loop sits
    /// out of line so the scoring functions that inline this stay as small
    /// as they were before factors existed: with none registered (every
    /// benchmark week) it costs one length test.
    #[inline(always)]
    fn apply_tables(&self, p: f64, from: Option<&[u16]>, to: &[u16]) -> f64 {
        if self.tables.is_empty() {
            p
        } else {
            self.multiply_tables(p, from, to)
        }
    }

    #[inline(never)]
    fn multiply_tables(&self, mut p: f64, from: Option<&[u16]>, to: &[u16]) -> f64 {
        for (i, table) in self.tables.iter().enumerate() {
            if p == 0.0 {
                break;
            }
            p *= table.get(from.map(|keys| keys[i]), to[i]);
        }
        p
    }

    /// The entry superclass `sc` scores at level `w` for a move with
    /// cross-move prefix `va` (see [`mig_va`](Self::mig_va)): the `p^eff`
    /// multiply (skipped under the ablation), then the factor tables.
    #[inline(always)]
    fn level_p(
        &self,
        sc: &SuperClass,
        w: usize,
        va: f64,
        from: Option<&[u16]>,
        cfg: &DynamicConfig,
    ) -> f64 {
        let p = if cfg.use_eff {
            va * sc.entry.level_eff[w]
        } else {
            va
        };
        self.apply_tables(p, from, &sc.keys)
    }

    // -------------------------------------------------------------------
    // Registries
    // -------------------------------------------------------------------

    /// The index of PM `pm`'s factor key tuple, registering it on first
    /// sight (tuple 0 is the empty one when no factor is registered, so a
    /// plain run builds no tuple at all).
    fn key_tuple(&mut self, pm: PmId) -> u32 {
        if self.factors.is_empty() {
            if self.key_tuples.is_empty() {
                self.key_tuples.push(Vec::new());
            }
            return 0;
        }
        let tuple: Vec<u16> = self.factors.iter().map(|f| f.key(pm)).collect();
        if let Some(&i) = self.key_tuple_lookup.get(&tuple) {
            return i;
        }
        let i = u32::try_from(self.key_tuples.len()).expect("key tuple index fits u32");
        self.key_tuples.push(tuple.clone());
        self.key_tuple_lookup.insert(tuple, i);
        i
    }

    fn register_sclass(&mut self, pm: &PlanPm, eff_c: f64, cfg: &DynamicConfig) -> u32 {
        debug_assert_eq!(
            pm.capacity.k(),
            cfg.min_vm.k(),
            "capacity dimensions disagree with min_vm (checked when a simulation is built)"
        );
        let key = SuperKey {
            capacity: pm.capacity,
            creation_secs: pm.creation_secs,
            migration_secs: pm.migration_secs,
            eff_bits: eff_c.to_bits(),
            rel_bits: pm.reliability.to_bits(),
            keys: self.key_tuple(pm.id),
        };
        if let Some(&s) = self.sclass_lookup.get(&key) {
            return s;
        }
        let entry = ClassEntry::from_pm(pm, eff_c, &cfg.min_vm);
        let usable = !cfg.use_eff || (entry.w_max >= 1 && entry.eff > 0.0);
        let s = u32::try_from(self.sclasses.len()).expect("superclass index fits u32");
        self.sclasses.push(SuperClass {
            entry,
            rel: pm.reliability,
            keys: self.key_tuples[key.keys as usize].clone(),
            usable,
        });
        self.buckets
            .resize_with(self.sclasses.len() * self.stride, Bucket::default);
        self.sclass_lookup.insert(key, s);
        s
    }

    /// Registers a demand vector, backfilling the level cache and buckets
    /// of every existing row for its slot — a new one, or, once
    /// [`DEMAND_RECYCLE_AT`] exist, a recycled slot no live column uses
    /// (a new one if none is free).
    fn register_demand(&mut self, res: &ResourceVector, cfg: &DynamicConfig) -> u32 {
        if let Some(&d) = self.demand_lookup.get(res) {
            return d;
        }
        debug_assert_eq!(
            res.k(),
            cfg.min_vm.k(),
            "demand dimensions disagree with min_vm (checked when a simulation is built)"
        );
        let free = if self.demands.len() >= DEMAND_RECYCLE_AT {
            self.demand_cols.iter().position(|&n| n == 0)
        } else {
            None
        };
        let d = match free {
            Some(d) => {
                self.retire_demand(d);
                self.demands[d] = *res;
                d
            }
            None => {
                if self.demands.len() == self.stride {
                    self.grow_stride();
                }
                self.demands.push(*res);
                self.demand_cols.push(0);
                self.pending.push(f64::NEG_INFINITY);
                self.demands.len() - 1
            }
        };
        let d = u32::try_from(d).expect("demand slot fits u32");
        self.demand_lookup.insert(*res, d);
        for r in 0..self.rows.len() {
            if self.rows[r].active {
                self.bucket_row_demand(r, d as usize, cfg);
            }
        }
        d
    }

    /// Doubles the per-row (and per-superclass) demand stride (to at
    /// least 8), keeping every row's cached levels and every bucket.
    fn grow_stride(&mut self) {
        let old = self.stride;
        let new = (old * 2).max(8);
        let mut row_w = vec![INFEASIBLE; self.rows.len() * new];
        if old > 0 {
            for (dst, src) in row_w.chunks_mut(new).zip(self.row_w.chunks(old)) {
                dst[..old].copy_from_slice(src);
            }
        }
        let mut buckets = Vec::with_capacity(self.sclasses.len() * new);
        let mut old_buckets = std::mem::take(&mut self.buckets).into_iter();
        for _ in 0..self.sclasses.len() {
            buckets.extend(old_buckets.by_ref().take(old));
            buckets.resize_with(buckets.len() + new - old, Bucket::default);
        }
        self.row_w = row_w;
        self.buckets = buckets;
        self.stride = new;
    }

    /// Empties demand slot `d`, which no live column uses, for reuse: its
    /// bucket in every superclass and every row's cached level for it. No
    /// column reads the slot, so no bound depends on what it held.
    fn retire_demand(&mut self, d: usize) {
        debug_assert_eq!(self.demand_cols[d], 0);
        self.demand_lookup.remove(&self.demands[d]);
        self.pending[d] = f64::NEG_INFINITY;
        for s in 0..self.sclasses.len() {
            self.buckets[s * self.stride + d].clear();
        }
        for r in 0..self.rows.len() {
            self.row_w[r * self.stride + d] = INFEASIBLE;
        }
    }

    // -------------------------------------------------------------------
    // Row maintenance
    // -------------------------------------------------------------------

    /// Records an insert into bucket `(s, d)` while a patch is running —
    /// the bound-raise trigger (removals never raise a column's score).
    fn note_insert(&mut self, s: usize, d: usize) {
        if !self.snapshots_armed {
            return;
        }
        let b = &mut self.buckets[s * self.stride + d];
        if !b.marked {
            b.marked = true;
            self.touched_buckets.push((s as u32, d as u32));
        }
    }

    /// Removes row `r` from every bucket it currently occupies.
    fn unbucket_row(&mut self, r: usize) {
        let s = self.rows[r].sclass as usize;
        for d in 0..self.demands.len() {
            let w = self.row_w[r * self.stride + d];
            if w != INFEASIBLE {
                self.buckets[s * self.stride + d].remove(w.into(), r as u32);
                self.row_w[r * self.stride + d] = INFEASIBLE;
            }
        }
    }

    /// Recomputes the level cache + bucket membership of row `r` for
    /// demand `d` (row must be active; handles its old entry, skipping
    /// the whole exchange when the level is unchanged). Under the
    /// `use_eff = false` ablation every feasible row sits on level 0.
    fn bucket_row_demand(&mut self, r: usize, d: usize, cfg: &DynamicConfig) {
        let row = &self.rows[r];
        let s = row.sclass as usize;
        let sc = &self.sclasses[s];
        let demand = self.demands[d];
        let w = if !sc.usable || !row.used.fits_with(&demand, &sc.entry.capacity) {
            INFEASIBLE
        } else if cfg.use_eff {
            let w = class_table::class_level(&row.used.add(&demand), &sc.entry);
            debug_assert!(w <= MAX_LEVEL, "level {w} past the u16 level cache");
            w as u16
        } else {
            0
        };
        let old = self.row_w[r * self.stride + d];
        if old == w {
            return;
        }
        let b_idx = s * self.stride + d;
        if old != INFEASIBLE {
            self.buckets[b_idx].remove(old.into(), r as u32);
        }
        self.row_w[r * self.stride + d] = w;
        if w != INFEASIBLE {
            self.buckets[b_idx].insert(w.into(), r as u32);
            self.note_insert(s, d);
        }
    }

    /// Hosted-entry probability: `1·[p^vir=1]·p^rel·p^eff(used)`, then the
    /// factors at the host — the exact dense multiply chain for the
    /// current-host cell.
    fn host_prob(&self, s: usize, used: &ResourceVector, cfg: &DynamicConfig) -> f64 {
        let sc = &self.sclasses[s];
        let base = if cfg.use_rel { sc.rel } else { 1.0 };
        let p = if cfg.use_eff {
            base * class_table::class_eff_prospective(used, &sc.entry)
        } else {
            base
        };
        self.apply_tables(p, Some(&sc.keys), &sc.keys)
    }

    /// Re-derives row `r` from authoritative per-PM fields. A row takes
    /// its superclass on its first activation after a rebuild and keeps
    /// it: a PM's attributes change only in a setup edit, whose full
    /// journal forces a rebuild.
    fn sync_row(&mut self, r: usize, active: bool, pm: &PlanPm, cfg: &DynamicConfig) {
        if !active {
            if self.rows[r].active {
                self.unbucket_row(r);
                self.active_rows -= 1;
            }
            self.rows[r].active = false;
            self.reindex(r, 0.0);
            return;
        }
        if !self.rows[r].active {
            self.active_rows += 1;
        }
        if self.rows[r].sclass == UNREGISTERED {
            let eff_c = self.effs[pm.class_idx];
            self.rows[r].sclass = self.register_sclass(pm, eff_c, cfg);
        }
        let row = &mut self.rows[r];
        row.active = true;
        row.used = pm.used;
        self.refresh_row(r, cfg);
    }

    /// Refreshes a row's `H`, level buckets and row-index entry after its
    /// `used` changed (active flag and superclass unchanged).
    fn refresh_row(&mut self, r: usize, cfg: &DynamicConfig) {
        let s = self.rows[r].sclass as usize;
        let h = self.host_prob(s, &self.rows[r].used, cfg);
        for d in 0..self.demands.len() {
            self.bucket_row_demand(r, d, cfg);
        }
        self.reindex(r, h);
    }

    /// Sets row `r`'s `H` to `h` and files the row in the row index under
    /// it if the row is active and hosts a column, or takes it out.
    fn reindex(&mut self, r: usize, h: f64) {
        let row = &mut self.rows[r];
        let old = row.indexed.then(|| h_key(row.h));
        let new = (row.active && !self.host_vms[r].is_empty()).then(|| h_key(h));
        row.h = h;
        row.indexed = new.is_some();
        if old != new {
            if let Some(key) = old {
                self.row_index.remove(&(key, r as u32));
            }
            if let Some(key) = new {
                self.row_index.insert((key, r as u32));
            }
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

    /// The factor keys of column `c`'s host — `None` when no factor is
    /// registered, which skips the lookup (no table reads a key then).
    fn host_keys(&self, c: usize) -> Option<&[u16]> {
        if self.tables.is_empty() {
            return None;
        }
        let host = self.cols[c].host as usize;
        Some(&self.sclasses[self.rows[host].sclass as usize].keys)
    }

    /// The exact best move for column `c` at `now`: the `(max d, lowest
    /// row)` a scan of the column's entries finds, via the level buckets.
    fn exact_best(&self, c: usize, now: SimTime, cfg: &DynamicConfig) -> Option<(u32, f64)> {
        let col = &self.cols[c];
        let rem = col.deadline.saturating_since(now).as_secs();
        let host = col.host as usize;
        let d_idx = col.demand as usize;
        let h = self.rows[host].h;
        let host_sclass = self.rows[host].sclass;
        let from = self.host_keys(c);
        let mut best: Option<(u32, f64)> = None;
        for (s, sc) in self.sclasses.iter().enumerate() {
            if !sc.usable {
                continue;
            }
            let va = Self::mig_va(sc, rem, cfg);
            if va <= 0.0 {
                continue;
            }
            let b = &self.buckets[s * self.stride + d_idx];
            let exclude_host = s as u32 == host_sclass;
            // The lowest member of level `w` that is not the host.
            let candidate = |w: usize| {
                let mut it = b.levels[w].iter().copied();
                match it.next() {
                    Some(r) if exclude_host && r as usize == host => it.next(),
                    first => first,
                }
            };
            if h > 0.0 {
                // Highest level with a non-host member strictly dominates
                // within the superclass (see module docs).
                if let Some((r, w)) = b.find_desc(|w| candidate(w).map(|r| (r, w))) {
                    let d = self.level_p(sc, w, va, from, cfg) / h;
                    if d > 0.0 && best.map_or(true, |(br, bd)| d > bd || (d == bd && r < br)) {
                        best = Some((r, d));
                    }
                }
            } else if let Some((r, w)) = b.find_desc(|w| candidate(w).map(|r| (r, w))) {
                // Zero current-host probability: every positive entry
                // scores ∞, and the raw p_ij ranks them (DESIGN.md I6).
                // `best` carries the raw p until the end.
                let p = self.level_p(sc, w, va, from, cfg);
                if p > 0.0 && best.map_or(true, |(br, bp)| p > bp || (p == bp && r < br)) {
                    best = Some((r, p));
                }
            }
        }
        if h > 0.0 {
            best
        } else {
            best.map(|(r, _)| (r, f64::INFINITY))
        }
    }

    // -------------------------------------------------------------------
    // Sync / patch
    // -------------------------------------------------------------------

    fn ensure_synced(
        &mut self,
        view: &PlacementView<'_>,
        delta: Option<FleetDelta>,
        cfg: &DynamicConfig,
    ) {
        if !self.factors.is_empty() && self.refresh_tables(view.now) {
            self.synced = false;
        }
        let full = !self.synced
            || view.dc.pms().len() != self.rows.len()
            || delta.as_ref().map_or(true, |d| d.is_full());
        if full {
            self.rebuild_all(view, cfg);
        } else {
            self.patch(view, &delta.expect("non-full patch has a delta"), cfg);
        }
        self.synced = true;
    }

    fn rebuild_all(&mut self, view: &PlacementView<'_>, cfg: &DynamicConfig) {
        self.effs = eff_table(view.dc.classes(), cfg);
        let m = view.dc.pms().len();
        for b in &mut self.buckets {
            b.clear();
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
        self.row_index.clear();
        self.active_rows = 0;
        self.cols.clear();
        self.col_slot.clear();
        self.hot.clear();
        self.demand_cols.fill(0);
        self.stash.clear();
        self.self_dirty_pms.clear();
        self.self_dirty_vms.clear();
        self.snapshots_armed = false;
        for pm in view.dc.pms() {
            let r = pm.id.0 as usize;
            self.sync_row(r, pm.is_available(), &PlanPm::from_pm(pm, cfg), cfg);
        }
        for vm in view.vms.values() {
            match vm.state {
                VmState::Running { pm } => {
                    let r = pm.0 as usize;
                    if self.rows.get(r).is_some_and(|row| row.active) {
                        let d = self.register_demand(vm.demand(), cfg);
                        self.insert_col(Col {
                            id: vm.spec.id,
                            demand: d,
                            host: pm.0,
                            deadline: view.now + vm.estimated_remaining(view.now),
                            dbar: f64::INFINITY,
                            best: INEXACT,
                        });
                    }
                }
                VmState::Creating { ready_at, .. } => {
                    self.stash.insert((ready_at, vm.spec.id));
                }
                _ => {}
            }
        }
        self.reset_pending();
        for c in 0..self.cols.len() {
            self.refresh_bound(c, view.now, cfg);
        }
    }

    /// Sets column `c`'s bound to its exact best score at `now`, and puts
    /// the column on the hot list if that exceeds the threshold.
    fn refresh_bound(&mut self, c: usize, now: SimTime, cfg: &DynamicConfig) {
        let d = self.exact_best(c, now, cfg).map_or(0.0, |(_, d)| d);
        let col = &mut self.cols[c];
        col.dbar = d;
        if d > cfg.mig_threshold {
            self.hot.push(col.id);
        }
    }

    /// Clears every pending cap, once the caller has folded them into the
    /// columns' `dbar` or replaced `dbar` with exact scores.
    fn reset_pending(&mut self) {
        self.pending.fill(f64::NEG_INFINITY);
        self.pending_cap = f64::NEG_INFINITY;
    }

    /// Column `c`'s effective bound: its `dbar`, raised by the pending cap
    /// of its demand over its host's current `H` — what round 1 folds into
    /// `dbar` when it visits the column ([`catch_up`](Self::catch_up)).
    /// Checked mode and the tests read it.
    #[cfg(any(test, debug_assertions))]
    fn effective_bound(&self, c: usize) -> f64 {
        let col = &self.cols[c];
        let h = self.rows[col.host as usize].h;
        col.dbar.max(cap_over(self.pending[col.demand as usize], h))
    }

    fn col_index(&self, vm: VmId) -> Option<usize> {
        self.col_slot.get(vm)
    }

    /// Appends a column for a VM that has none.
    fn insert_col(&mut self, col: Col) {
        debug_assert!(
            self.col_index(col.id).is_none(),
            "{:?} already has a column",
            col.id
        );
        self.col_slot.set(col.id, self.cols.len());
        self.demand_cols[col.demand as usize] += 1;
        let host = col.host as usize;
        self.host_vms[host].insert(col.id);
        self.reindex(host, self.rows[host].h);
        self.cols.push(col);
    }

    fn remove_col(&mut self, vm: VmId) {
        if let Some(i) = self.col_index(vm) {
            let col = self.cols.swap_remove(i);
            self.col_slot.unset(vm);
            if let Some(moved) = self.cols.get(i) {
                self.col_slot.set(moved.id, i);
            }
            let host = col.host as usize;
            self.host_vms[host].remove(&vm);
            self.reindex(host, self.rows[host].h);
            self.demand_cols[col.demand as usize] -= 1;
        }
    }

    fn patch(&mut self, view: &PlacementView<'_>, delta: &FleetDelta, cfg: &DynamicConfig) {
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
            let was_active = self.rows[r].active;
            let pm = view.dc.pm(id);
            self.sync_row(r, pm.is_available(), &PlanPm::from_pm(pm, cfg), cfg);
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
            match view.vms.get(vm_id).map(|vm| (vm, vm.state)) {
                Some((vm, VmState::Running { pm })) => {
                    let r = pm.0 as usize;
                    if !self.rows.get(r).is_some_and(|row| row.active) {
                        self.remove_col(vm_id);
                        continue;
                    }
                    let deadline = view.now + vm.estimated_remaining(view.now);
                    let Some(i) = self.col_index(vm_id) else {
                        let d = self.register_demand(vm.demand(), cfg);
                        self.insert_col(Col {
                            id: vm_id,
                            demand: d,
                            host: pm.0,
                            deadline,
                            dbar: f64::INFINITY,
                            best: INEXACT,
                        });
                        continue;
                    };
                    let old_host = self.cols[i].host as usize;
                    if old_host != r {
                        self.host_vms[old_host].remove(&vm_id);
                        self.host_vms[r].insert(vm_id);
                        self.reindex(old_host, self.rows[old_host].h);
                        self.reindex(r, self.rows[r].h);
                    }
                    // An unchanged demand keeps its slot without a lookup.
                    let old_d = self.cols[i].demand;
                    let d = if self.demands[old_d as usize] == *vm.demand() {
                        old_d
                    } else {
                        self.register_demand(vm.demand(), cfg)
                    };
                    self.demand_cols[old_d as usize] -= 1;
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
    }

    /// Checked mode: column `c` agrees with the authoritative VM map. The
    /// deadline is compared as remaining time, since an overdue VM's
    /// stored deadline saturates at the instant it was read.
    #[cfg(debug_assertions)]
    fn assert_col_matches(&self, c: usize, view: &PlacementView<'_>) {
        let col = &self.cols[c];
        let vm = &view.vms[col.id];
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

    /// The largest entry a row of superclass `sc` at level `w` can give any
    /// column, before the divide by the column's host `H`:
    /// `p^rel·level_eff[w]` (`p^vir ≤ 1`, every factor is `≤ 1`, and float
    /// rounding is monotone, so no computed score exceeds it).
    fn level_cap(sc: &SuperClass, w: usize, cfg: &DynamicConfig) -> f64 {
        let rel_cap = if cfg.use_rel { sc.rel } else { 1.0 };
        if cfg.use_eff {
            rel_cap * sc.entry.level_eff[w]
        } else {
            rel_cap
        }
    }

    /// Folds the buckets touched since the last patch into `pending`, then
    /// clears the touched list. O(touched buckets): the columns themselves
    /// only see the raise through [`effective_bound`](Self::effective_bound)
    /// until a full scan folds it into their `dbar`.
    fn fold_touched(&mut self, cfg: &DynamicConfig) {
        for &(s, d) in &self.touched_buckets {
            let (s, d) = (s as usize, d as usize);
            let bucket = &mut self.buckets[s * self.stride + d];
            bucket.marked = false;
            let Some(top) = bucket.top() else {
                continue;
            };
            let cap = self.pending[d].max(Self::level_cap(&self.sclasses[s], top, cfg));
            self.pending[d] = cap;
            self.pending_cap = self.pending_cap.max(cap);
        }
        self.touched_buckets.clear();
    }

    // -------------------------------------------------------------------
    // Planning passes
    // -------------------------------------------------------------------

    /// Runs a full planning pass against the live view: the move batch
    /// and whether the round cap stopped it.
    pub(crate) fn plan_migrations(
        &mut self,
        view: &PlacementView<'_>,
        delta: Option<FleetDelta>,
        cfg: &DynamicConfig,
    ) -> (Vec<Migration>, bool) {
        self.ensure_synced(view, delta, cfg);
        if self.cols.is_empty() || self.active_rows < 2 {
            return (Vec::new(), false);
        }
        let thr = cfg.mig_threshold;
        self.prune_hot(thr);
        // Checked mode: in debug builds, prove the bounds dominate the
        // exact scores above the threshold, and that the hot list and the
        // row index find every column whose bound exceeds it, before
        // trusting the bound check on them.
        #[cfg(debug_assertions)]
        {
            self.assert_row_index_exact();
            for c in 0..self.cols.len() {
                let col = &self.cols[c];
                let exact = self.exact_best(c, view.now, cfg).map_or(0.0, |(_, d)| d);
                let bound = self.effective_bound(c);
                debug_assert!(
                    bound.max(thr) >= exact,
                    "stale-low bound: vm {:?} host {} demand {} bound {} exact {} (t={})",
                    col.id,
                    col.host,
                    col.demand,
                    bound,
                    exact,
                    view.now.as_secs(),
                );
                debug_assert!(
                    col.dbar <= thr || self.hot.contains(&col.id),
                    "vm {:?}: bound {} above the threshold but not on the hot list",
                    col.id,
                    col.dbar
                );
                debug_assert_eq!(col.best, INEXACT, "vm {:?} entered exact", col.id);
            }
            let mut live = vec![0u32; self.demand_cols.len()];
            for col in &self.cols {
                live[col.demand as usize] += 1;
            }
            debug_assert_eq!(live, self.demand_cols, "per-demand column counts");
        }
        // The bound check: most passes end here. A column can beat the
        // threshold only if it is hot or a pending cap lifts it there, and
        // the lowest-`H` row is where a cap lifts highest.
        let lifted = self
            .row_index
            .first()
            .is_some_and(|&(_, r)| cap_over(self.pending_cap, self.rows[r as usize].h) > thr);
        if self.hot.is_empty() && !lifted {
            return (Vec::new(), false);
        }
        self.run_rounds(view.now, cfg)
    }

    /// Drops the hot list's stale entries and repeats.
    fn prune_hot(&mut self, thr: f64) {
        let mut hot = std::mem::take(&mut self.hot);
        hot.retain(|&vm| self.col_index(vm).is_some_and(|c| self.cols[c].dbar > thr));
        hot.sort_unstable();
        hot.dedup();
        self.hot = hot;
    }

    /// Algorithm 1's migration rounds as a lazy exact search: each round
    /// moves the argmax of [`exact_best`](Self::exact_best) over every
    /// column (ties to the lowest `VmId`), but visits only the columns
    /// whose bound can exceed the threshold and computes the exact best
    /// only where a bound could still beat the leader. Returns the move
    /// batch and whether the round cap stopped it.
    fn run_rounds(&mut self, now: SimTime, cfg: &DynamicConfig) -> (Vec<Migration>, bool) {
        let thr = cfg.mig_threshold;
        // Round 1 folds the pending caps; every later round, the caps the
        // previous move's two rows offer.
        let mut cap = std::mem::take(&mut self.move_cap);
        cap.clone_from(&self.pending);
        let mut cap_max = self.pending_cap;
        self.reset_pending();
        let mut visit = std::mem::take(&mut self.visit);
        let mut exact = std::mem::take(&mut self.exact);
        let mut moves = Vec::new();
        // The previous round's move `(column, from, to)`.
        let mut last: Option<(usize, u32, u32)> = None;
        let mut visits = 0u64;
        let capped = loop {
            self.collect_visits(last, &cap, cap_max, thr, &mut visit);
            visits += visit.len() as u64;
            for &c in &visit {
                self.catch_up(c as usize, last, &cap);
            }
            // At the cap the round only folds the last move into the bounds.
            let at_cap = moves.len() == cfg.mig_round as usize;
            let winner = if at_cap {
                None
            } else {
                self.round_winner(&visit, now, cfg, &mut exact)
            };
            self.hot.clear();
            for &c in &visit {
                let col = &self.cols[c as usize];
                if col.dbar > thr {
                    self.hot.push(col.id);
                }
            }
            #[cfg(debug_assertions)]
            if !at_cap {
                self.assert_round_winner(winner, now, cfg);
            }
            let Some((col, to, _d)) = winner else {
                break at_cap;
            };
            let to = to as usize;
            let from = self.cols[col].host as usize;
            let res = self.demands[self.cols[col].demand as usize];
            let mig_secs = self.sclasses[self.rows[to].sclass as usize]
                .entry
                .migration_secs;
            let moved = &mut self.cols[col];
            moved.deadline = moved.deadline - SimDuration::from_secs(mig_secs);
            moved.host = to as u32;
            let vm_id = moved.id;
            self.host_vms[from].remove(&vm_id);
            self.host_vms[to].insert(vm_id);
            self.rows[from].used = self.rows[from].used.saturating_sub(&res);
            self.rows[to].used = self.rows[to].used.add(&res);
            self.refresh_row(from, cfg);
            self.refresh_row(to, cfg);
            moves.push(Migration {
                vm: vm_id,
                from: self.row_ids[from],
                to: self.row_ids[to],
            });
            // What the two changed rows can now offer each demand.
            cap.clear();
            cap.resize(self.demands.len(), f64::NEG_INFINITY);
            for row in [from, to] {
                let sc = &self.sclasses[self.rows[row].sclass as usize];
                let levels = &self.row_w[row * self.stride..][..cap.len()];
                for (cap, &w) in cap.iter_mut().zip(levels) {
                    if w != INFEASIBLE {
                        *cap = cap.max(Self::level_cap(sc, w.into(), cfg));
                    }
                }
            }
            cap_max = cap.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            last = Some((col, from as u32, to as u32));
        };
        // Every column leaves the pass inexact: an unvisited column's best
        // would go stale under later passes' moves.
        let evals = exact.len() as u64;
        for c in exact.drain(..) {
            self.cols[c as usize].best = INEXACT;
        }
        dvmp_obs::note_compressed_rounds(!moves.is_empty(), visits, evals);
        // The pass's own touches are re-read authoritatively next patch.
        for m in &moves {
            self.self_dirty_pms.extend([m.from, m.to]);
            self.self_dirty_vms.push(m.vm);
        }
        self.move_cap = cap;
        self.visit = visit;
        self.exact = exact;
        (moves, capped)
    }

    /// Collects into `visit` (sorted, no repeats) the columns whose bound
    /// can exceed `thr` once a round folds in `cap` (the previous move's
    /// caps, or before round 1 the pending ones): the hot list; every
    /// column on a row-index row where its own demand's cap lifts it above
    /// `thr`, walking rows up from the lowest `H` until `cap_max` no longer
    /// can; and after a move, the moved column and every column on its
    /// two rows.
    fn collect_visits(
        &self,
        last: Option<(usize, u32, u32)>,
        cap: &[f64],
        cap_max: f64,
        thr: f64,
        visit: &mut Vec<u32>,
    ) {
        let col_of = |vm: VmId| self.col_index(vm).expect("every hosted VM has a column") as u32;
        visit.clear();
        visit.extend(
            self.hot
                .iter()
                .filter_map(|&vm| self.col_index(vm))
                .map(|c| c as u32),
        );
        for &(_, r) in &self.row_index {
            let h = self.rows[r as usize].h;
            if cap_over(cap_max, h) <= thr {
                break;
            }
            for &vm in &self.host_vms[r as usize] {
                let c = col_of(vm);
                if cap_over(cap[self.cols[c as usize].demand as usize], h) > thr {
                    visit.push(c);
                }
            }
        }
        if let Some((moved, from, to)) = last {
            visit.push(moved as u32);
            for r in [from, to] {
                visit.extend(self.host_vms[r as usize].iter().map(|&vm| col_of(vm)));
            }
        }
        visit.sort_unstable();
        visit.dedup();
    }

    /// Brings visited column `c`'s bound up to date at the start of a
    /// round.
    ///
    /// Before round 1 (`last` is `None`) the pending cap of its demand is
    /// folded in; the column is inexact, as every column is at the start
    /// of a pass. After a move `(moved, from, to)`, the moved column and
    /// every column hosted on `from`/`to` (their `H` changed) start over at
    /// `∞`. Any other column's score changed only at `from`/`to`, where it
    /// is at most `cap[d] / H(host)`: a column whose best pointed there, or
    /// whose best that cap reaches, becomes inexact (`>=`, so a tie at a
    /// lower row is re-evaluated too) with its bound raised to the cap.
    #[inline]
    fn catch_up(&mut self, c: usize, last: Option<(usize, u32, u32)>, cap: &[f64]) {
        let col = &mut self.cols[c];
        let raise = cap_over(cap[col.demand as usize], self.rows[col.host as usize].h);
        let Some((moved, from, to)) = last else {
            col.dbar = col.dbar.max(raise);
            return;
        };
        if c == moved || col.host == from || col.host == to {
            col.dbar = f64::INFINITY;
            col.best = INEXACT;
        } else if raise >= col.dbar {
            col.dbar = raise;
            col.best = INEXACT;
        } else if col.best == from || col.best == to {
            col.best = INEXACT;
        }
    }

    /// One round's winner among the visited columns `visit`: the argmax of
    /// the exact score above the threshold (ties to the lowest `VmId`),
    /// computing `exact_best` only for an inexact column whose bound could
    /// still beat the leader (an equal bound loses on `VmId`). Each such
    /// column is appended to `exact`.
    fn round_winner(
        &mut self,
        visit: &[u32],
        now: SimTime,
        cfg: &DynamicConfig,
        exact: &mut Vec<u32>,
    ) -> Option<(usize, u32, f64)> {
        let thr = cfg.mig_threshold;
        let mut winner: Option<(usize, u32, f64)> = None;
        // The winner's score and `VmId`, which a column must outrank.
        let mut leader: Option<(f64, VmId)> = None;
        for &c in visit {
            let c = c as usize;
            let (id, bound) = (self.cols[c].id, self.cols[c].dbar);
            if !(bound > thr && outranks(bound, id, leader)) {
                continue;
            }
            if self.cols[c].best == INEXACT {
                exact.push(c as u32);
                let best = self.exact_best(c, now, cfg);
                let col = &mut self.cols[c];
                col.dbar = best.map_or(0.0, |(_, d)| d);
                col.best = best.map_or(INEXACT, |(row, _)| row);
            }
            let col = &self.cols[c];
            if col.dbar > thr && outranks(col.dbar, id, leader) {
                winner = Some((c, col.best, col.dbar));
                leader = Some((col.dbar, id));
            }
        }
        winner
    }

    /// Checked mode: the row index holds exactly the active rows that host
    /// a column, each under its current `H`.
    #[cfg(any(test, debug_assertions))]
    fn assert_row_index_exact(&self) {
        let expected: BTreeSet<(u64, u32)> = (0..self.rows.len())
            .filter(|&r| self.rows[r].active && !self.host_vms[r].is_empty())
            .map(|r| (h_key(self.rows[r].h), r as u32))
            .collect();
        assert_eq!(self.row_index, expected, "row index out of step");
    }

    /// Checked mode: a round's winner is the argmax of `exact_best` over
    /// every column (ties to the lowest `VmId`), every bound dominates its
    /// exact score above the threshold, and every exact column above the
    /// threshold (all of which the round visited) holds its exact best.
    #[cfg(debug_assertions)]
    fn assert_round_winner(
        &self,
        winner: Option<(usize, u32, f64)>,
        now: SimTime,
        cfg: &DynamicConfig,
    ) {
        let thr = cfg.mig_threshold;
        let mut expected: Option<(usize, u32, f64)> = None;
        for (c, col) in self.cols.iter().enumerate() {
            let exact = self.exact_best(c, now, cfg);
            let d = exact.map_or(0.0, |(_, d)| d);
            assert!(
                col.dbar.max(thr) >= d,
                "round loop: vm {:?} bound {} below its exact score {d}",
                col.id,
                col.dbar
            );
            if col.dbar > thr && col.best != INEXACT {
                assert_eq!(
                    exact.map(|(r, d)| (r, d.to_bits())),
                    Some((col.best, col.dbar.to_bits())),
                    "round loop: vm {:?} holds a stale exact best",
                    col.id
                );
            }
            if let Some((row, d)) = exact {
                let leader = expected.map(|(ec, _, ed)| (ed, self.cols[ec].id));
                if d > thr && outranks(d, col.id, leader) {
                    expected = Some((c, row, d));
                }
            }
        }
        assert_eq!(
            winner.map(|(c, r, d)| (c, r, d.to_bits())),
            expected.map(|(c, r, d)| (c, r, d.to_bits())),
            "round loop: winner is not the argmax of exact_best"
        );
    }

    /// New-arrival placement (the Section III-C column), with the dense
    /// definition's overhead-free fallback (DESIGN.md I9).
    pub(crate) fn place(
        &mut self,
        view: &PlacementView<'_>,
        spec: &VmSpec,
        delta: Option<FleetDelta>,
        cfg: &DynamicConfig,
    ) -> Option<PmId> {
        self.ensure_synced(view, delta, cfg);
        let d_idx = self.register_demand(&spec.resources, cfg) as usize;
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
                let b = &self.buckets[s * self.stride + d_idx];
                let Some(w) = b.top() else { continue };
                let r = *b.levels[w].iter().next().expect("non-empty top level");
                let p = self.level_p(sc, w, va, None, cfg);
                if p > 0.0 && best.map_or(true, |(br, bp)| p > bp || (p == bp && r < br)) {
                    best = Some((r, p));
                }
            }
            best
        };
        let chosen = pick(cfg.use_vir).or_else(|| pick(false));
        chosen.map(|(r, _)| self.row_ids[r as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynamicPlacement;
    use crate::policy::testutil::*;
    use crate::policy::PlacementPolicy;
    use crate::spec::Spec;
    use dvmp_cluster::datacenter::{Datacenter, FleetBuilder};
    use dvmp_cluster::pm::{Pm, PmClass, PmState};
    use dvmp_cluster::vm::Vm;
    use dvmp_cluster::{FleetOp, VmTable, FLAT_VM_IDS};
    use std::collections::BTreeMap;

    /// The executable specification with the default configuration.
    fn reference() -> Spec {
        Spec::new(DynamicConfig::default())
    }

    /// The production scheme with the default configuration.
    fn comp() -> DynamicPlacement {
        DynamicPlacement::paper_default()
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
    struct Twin<P> {
        dc: Datacenter,
        vms: VmTable,
        policy: P,
    }

    /// The fleet half of a twin, so a history step can mutate both twins'
    /// fleets in one loop whatever their policies.
    struct World<'a> {
        dc: &'a mut Datacenter,
        vms: &'a mut VmTable,
    }

    impl<P> Twin<P> {
        fn world(&mut self) -> World<'_> {
            World {
                dc: &mut self.dc,
                vms: &mut self.vms,
            }
        }
    }

    impl<P: PlacementPolicy> Twin<P> {
        fn new(policy: P) -> Self {
            Twin::sized(policy, 6, 6)
        }

        fn sized(policy: P, fast: usize, slow: usize) -> Self {
            let dc = FleetBuilder::new()
                .add_class(PmClass::paper_fast(), fast, 0.99)
                .add_class(PmClass::paper_slow(), slow, 0.95)
                .initially_on(true)
                .build();
            Twin {
                dc,
                vms: VmTable::new(),
                policy,
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

    /// Drives the specification and the production policy through the
    /// same random arrival / departure / migration / failure history and
    /// asserts every placement and every migration batch is identical.
    /// Covers the persistent patch path (journal dirt, Creating stash,
    /// planner self-dirt, skipped moves) rather than single fresh passes.
    fn differential_history(seed: u64, steps: u32) {
        drive_against_reference(seed, steps, Twin::new(reference()), Twin::new(comp()));
    }

    /// [`drive_history`] with the specification on one side and the
    /// production planner, which must actually run, on the other.
    fn drive_against_reference(
        seed: u64,
        steps: u32,
        mut reference: Twin<Spec>,
        mut comp: Twin<DynamicPlacement>,
    ) {
        drive_history(seed, steps, &mut reference, &mut comp);
        assert!(
            comp.policy.compressed_passes() > 0,
            "seed {seed}: the compressed kernel must actually run"
        );
    }

    /// The scripted-history driver behind the differential tests: both
    /// twins see the same arrivals, departures, commits and failures and
    /// must agree on every placement and every migration batch.
    fn drive_history<A: PlacementPolicy, B: PlacementPolicy>(
        seed: u64,
        steps: u32,
        a: &mut Twin<A>,
        b: &mut Twin<B>,
    ) {
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
                if !a.vms.contains(vm) {
                    return false;
                }
                if done > now {
                    return true;
                }
                for twin in [a.world(), b.world()] {
                    twin.dc
                        .apply(FleetOp::FinishMigration { vm, from })
                        .unwrap();
                    let v = twin.vms.get_mut(vm).unwrap();
                    v.state = VmState::Running { pm: to };
                }
                false
            });
            creating.retain(|&(vm, pm, ready)| {
                if !a.vms.contains(vm) {
                    return false;
                }
                if ready > now {
                    return true;
                }
                for twin in [a.world(), b.world()] {
                    let v = twin.vms.get_mut(vm).unwrap();
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
                    let pa = a.place(&spec, now);
                    let pb = b.place(&spec, now);
                    assert_eq!(pa, pb, "seed {seed}: placement diverged at t={t}");
                    if let Some(pm) = pa {
                        let as_creating = xorshift(&mut rng) % 2 == 0;
                        let cre = a.dc.pm(pm).class.creation_time;
                        let (vm, demand) = (spec.id, spec.resources);
                        for twin in [a.world(), b.world()] {
                            twin.dc.apply(FleetOp::Place { vm, pm, demand }).unwrap();
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
                            twin.vms.insert(vm);
                        }
                        if as_creating {
                            creating.push((spec.id, pm, now + cre));
                        }
                    }
                }
                2 => {
                    // Departure of a random live VM.
                    let ids: Vec<VmId> = a.vms.ids().collect();
                    if !ids.is_empty() {
                        let vm = ids[(xorshift(&mut rng) % ids.len() as u64) as usize];
                        for twin in [a.world(), b.world()] {
                            twin.dc.apply(FleetOp::Remove { vm }).unwrap();
                            twin.vms.remove(vm);
                        }
                    }
                }
                3 | 4 => {
                    // Planning pass; apply a random subset of the agreed
                    // moves (the simulator skips moves too).
                    let ma = a.plan(now);
                    let mb = b.plan(now);
                    assert_eq!(ma, mb, "seed {seed}: plans diverged at t={t}");
                    for m in &ma {
                        if xorshift(&mut rng) % 4 == 0 {
                            continue; // skipped by the "simulator"
                        }
                        let res = a.vms[m.vm].spec.resources;
                        // Mirror the simulator's pre-apply validity check:
                        // earlier moves in the batch can use up the room the
                        // planner assumed this one would have.
                        if !matches!(
                            a.vms[m.vm].state,
                            VmState::Running { pm } if pm == m.from
                        ) || !a.dc.pm(m.to).can_host(&res)
                        {
                            continue;
                        }
                        let mig = a.dc.pm(m.to).class.migration_time;
                        let (vm, to, demand) = (m.vm, m.to, res);
                        for twin in [a.world(), b.world()] {
                            twin.dc
                                .apply(FleetOp::BeginMigration { vm, to, demand })
                                .unwrap();
                            let v = twin.vms.get_mut(m.vm).unwrap();
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
                        let candidates: Vec<PmId> =
                            a.dc.pms()
                                .iter()
                                .filter(|pm| pm.is_available())
                                .map(|pm| pm.id)
                                .collect();
                        if candidates.len() > 4 {
                            let pm =
                                candidates[(xorshift(&mut rng) % candidates.len() as u64) as usize];
                            failures += 1;
                            let displaced_a = a.dc.apply(FleetOp::Fail { pm }).unwrap();
                            let displaced_b = b.dc.apply(FleetOp::Fail { pm }).unwrap();
                            assert_eq!(displaced_a, displaced_b);
                            for vm in displaced_a {
                                a.vms.remove(vm);
                                b.vms.remove(vm);
                            }
                        }
                    }
                }
            }
            t += 30 + xorshift(&mut rng) % 400;
        }
        // A final full pass for good measure.
        let now = SimTime::from_secs(t);
        assert_eq!(a.plan(now), b.plan(now), "seed {seed}: final plan");
    }

    #[test]
    fn compressed_matches_dense_over_random_histories() {
        for seed in [3, 7, 11, 23, 41, 97, 131, 257] {
            differential_history(seed, 120);
        }
    }

    /// A 1 000-PM random history against the specification, every
    /// placement and every migration batch compared. Arrivals are placed
    /// by the policies or pinned to a random PM, which fragments the fleet
    /// so that rounds stop at the round cap; departures swap-remove hot
    /// columns; spare PMs switch on and off; and PMs whose reliability
    /// drops to 0 host columns with `H = 0`. The counts at the end prove
    /// the history covered each of these.
    #[test]
    #[ignore = "release-only: the specification recomputes a 1 000-PM matrix every round"]
    fn matches_the_specification_at_fleet_scale() {
        let fleet = || {
            let mut dc = FleetBuilder::new()
                .add_class(PmClass::paper_fast(), 400, 0.99)
                .add_class(PmClass::paper_slow(), 600, 0.95)
                .build();
            dc.edit_pms(|pms| {
                for pm in pms.iter_mut().step_by(3) {
                    pm.state = PmState::On;
                }
            });
            dc
        };
        // A low round cap, so that passes reach it.
        let cfg = DynamicConfig {
            mig_round: 4,
            ..DynamicConfig::default()
        };
        let mut a = fleet_twin(fleet(), Spec::new(cfg.clone()));
        let mut b = fleet_twin(fleet(), DynamicPlacement::new(cfg.clone()));
        let thr = cfg.mig_threshold;
        let mut rng = 0x00C0_FFEE_u64;
        let mut next_vm = 1u32;
        let mut t = 0u64;
        let (mut hot_departures, mut dead_host_passes) = (0, 0);
        let (mut joins, mut leaves) = (0, 0);
        let random_pm = |rng: &mut u64, dc: &Datacenter, keep: &dyn Fn(&Pm) -> bool| {
            let ids: Vec<PmId> = dc
                .pms()
                .iter()
                .filter(|pm| keep(pm))
                .map(|pm| pm.id)
                .collect();
            (!ids.is_empty()).then(|| ids[(xorshift(rng) % ids.len() as u64) as usize])
        };
        for step in 0..3_000 {
            let now = SimTime::from_secs(t);
            match xorshift(&mut rng) % 10 {
                0..=2 => {
                    // Arrival: placed by both policies, or pinned.
                    let mem = 256 << (xorshift(&mut rng) % 3);
                    let s = spec(next_vm, mem, 2_000 + xorshift(&mut rng) % 200_000);
                    next_vm += 1;
                    let pm = if xorshift(&mut rng) % 2 == 0 {
                        let pm = a.place(&s, now);
                        assert_eq!(pm, b.place(&s, now), "step {step}: placement diverged");
                        pm
                    } else {
                        random_pm(&mut rng, &a.dc, &|pm| pm.can_host(&s.resources))
                    };
                    if let Some(pm) = pm {
                        for twin in [a.world(), b.world()] {
                            install(twin.dc, twin.vms, s.clone(), pm, now);
                        }
                    }
                }
                3 => {
                    let ids: Vec<VmId> = a.vms.ids().collect();
                    if !ids.is_empty() {
                        let vm = ids[(xorshift(&mut rng) % ids.len() as u64) as usize];
                        let p = b.policy.planner();
                        if p.col_index(vm).is_some_and(|c| p.cols[c].dbar > thr) {
                            hot_departures += 1;
                        }
                        for twin in [a.world(), b.world()] {
                            twin.dc.apply(FleetOp::Remove { vm }).unwrap();
                            twin.vms.remove(vm);
                        }
                    }
                }
                4..=6 => {
                    let moves = a.plan(now);
                    assert_eq!(moves, b.plan(now), "step {step}: plans diverged");
                    let p = b.policy.planner();
                    if (0..p.rows.len()).any(|r| {
                        p.rows[r].active && p.rows[r].h <= 0.0 && !p.host_vms[r].is_empty()
                    }) {
                        dead_host_passes += 1;
                    }
                    for Migration { vm, from, to } in moves {
                        let demand = *a.vms[vm].demand();
                        if !a.dc.pm(to).can_host(&demand) {
                            continue;
                        }
                        for twin in [a.world(), b.world()] {
                            for op in [
                                FleetOp::BeginMigration { vm, to, demand },
                                FleetOp::FinishMigration { vm, from },
                            ] {
                                twin.dc.apply(op).unwrap();
                            }
                            twin.vms.get_mut(vm).unwrap().state = VmState::Running { pm: to };
                        }
                    }
                }
                7 | 8 => {
                    // A spare PM joins, or an empty one leaves.
                    let join = xorshift(&mut rng) % 2 == 0;
                    let pm = if join {
                        random_pm(&mut rng, &a.dc, &|pm| pm.state == PmState::Off)
                    } else {
                        random_pm(&mut rng, &a.dc, &|pm| pm.is_available() && pm.is_idle())
                    };
                    if let Some(pm) = pm {
                        let state = if join { PmState::On } else { PmState::Off };
                        for twin in [a.world(), b.world()] {
                            twin.dc.apply(FleetOp::Power { pm, state }).unwrap();
                        }
                        *(if join { &mut joins } else { &mut leaves }) += 1;
                    }
                }
                _ => {
                    // A PM's reliability drops to 0 (its columns' `H` with
                    // it) or comes back, in a setup edit: a full rebuild.
                    if let Some(pm) = random_pm(&mut rng, &a.dc, &|pm| pm.is_available()) {
                        let rel = if a.dc.pm(pm).reliability == 0.0 {
                            0.97
                        } else {
                            0.0
                        };
                        for twin in [a.world(), b.world()] {
                            twin.dc.edit_pms(|pms| pms[pm.0 as usize].reliability = rel);
                        }
                    }
                }
            }
            t += 30 + xorshift(&mut rng) % 400;
        }
        let now = SimTime::from_secs(t);
        assert_eq!(a.plan(now), b.plan(now), "final plan");
        assert!(
            b.policy.round_cap_hits() > 0,
            "no pass stopped at the round cap"
        );
        assert!(hot_departures > 0, "no hot column was swap-removed");
        assert!(dead_host_passes > 0, "no pass saw a host with H = 0");
        assert!(
            joins > 0 && leaves > 0,
            "{joins} spare joins, {leaves} leaves"
        );
    }

    /// A twin over an explicit fleet.
    fn fleet_twin<P>(dc: Datacenter, policy: P) -> Twin<P> {
        Twin {
            dc,
            vms: VmTable::new(),
            policy,
        }
    }

    /// A time-varying keyed factor: three zones (`PmId % 3`), moves out of
    /// a zone discounted by an amount that changes every simulated hour,
    /// new requests steered away from zone 2.
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

    /// Out of `[0, 1]` on purpose: 1.5 for a move onto an even PM from an
    /// odd one, −0.5 the other way, 3.0 for a new request. The planners
    /// clamp every value to `[0, 1]`.
    #[derive(Debug)]
    struct Unclamped;

    impl KeyedFactor for Unclamped {
        fn name(&self) -> &str {
            "unclamped"
        }
        fn key_count(&self) -> u16 {
            2
        }
        fn key(&self, pm: PmId) -> u16 {
            (pm.0 % 2) as u16
        }
        fn factor(&self, from: Option<u16>, to: u16, _: SimTime) -> f64 {
            match from {
                Some(from) if from == to => 1.0,
                Some(_) if to == 0 => 1.5,
                Some(_) => -0.5,
                None => 3.0,
            }
        }
    }

    #[test]
    fn keyed_factors_match_dense_over_random_histories() {
        // The zone factor registered twice (the product is taken factor by
        // factor, never pre-multiplied), its tables changing hourly
        // mid-history, then a factor out of [0, 1]: every placement and
        // plan must stay the specification's.
        for seed in [3, 29, 131] {
            let reference = Spec::new(DynamicConfig::default())
                .with_factor(Arc::new(ZoneFactor))
                .with_factor(Arc::new(ZoneFactor))
                .with_factor(Arc::new(Unclamped));
            let comp = DynamicPlacement::paper_default()
                .with_factor(Arc::new(ZoneFactor))
                .with_factor(Arc::new(ZoneFactor))
                .with_factor(Arc::new(Unclamped));
            assert_eq!(comp.extra_factors().len(), 3);
            drive_against_reference(seed, 150, Twin::new(reference), Twin::new(comp));
        }
    }

    #[test]
    fn eff_ablation_matches_dense_over_random_histories() {
        // `use_eff = false`: every feasible row on one constant level.
        for (seed, use_vir, use_rel) in [(5, true, true), (17, false, true), (43, false, false)] {
            let cfg = DynamicConfig {
                use_eff: false,
                use_vir,
                use_rel,
                ..DynamicConfig::default()
            };
            let reference = Twin::new(Spec::new(cfg.clone()));
            let comp = Twin::new(DynamicPlacement::new(cfg));
            drive_against_reference(seed, 120, reference, comp);
        }
    }

    #[test]
    fn split_overheads_match_the_specification() {
        // I2's Split mode charges a move T_mig alone. VM 9, 100 s from its
        // end, sits alone on slow PM 2 next to fast PM 0 with seven VMs:
        // T_cre + T_mig = 70 s leave it p^vir = 0.09 towards PM 0, d ≈ 0.56,
        // while T_mig = 40 s leaves 0.36, d ≈ 2.25.
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        for id in 1..=7 {
            install(
                &mut dc,
                &mut vms,
                spec(id, 512, 200_000),
                PmId(0),
                SimTime::ZERO,
            );
        }
        install(&mut dc, &mut vms, spec(9, 512, 100), PmId(2), SimTime::ZERO);
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let split = DynamicConfig {
            overhead_mode: crate::config::OverheadMode::Split,
            ..DynamicConfig::default()
        };
        let moves = DynamicPlacement::new(split.clone()).plan_migrations(&view);
        assert_eq!(moves, Spec::new(split).plan_migrations(&view));
        let to_pm0 = Migration {
            vm: VmId(9),
            from: PmId(2),
            to: PmId(0),
        };
        assert_eq!(moves, [to_pm0]);
        assert_eq!(
            comp().plan_migrations(&view),
            reference().plan_migrations(&view)
        );
        assert!(
            comp().plan_migrations(&view).is_empty(),
            "joint overheads block it"
        );
    }

    #[test]
    fn superclass_registry_grows_past_64_and_still_matches() {
        // Exact keys over 70 distinct reliabilities: 70 superclasses, every
        // decision the specification's.
        let fleet = || {
            let mut dc = FleetBuilder::new()
                .add_class(PmClass::paper_fast(), 35, 0.99)
                .add_class(PmClass::paper_slow(), 35, 0.95)
                .initially_on(true)
                .build();
            dc.edit_pms(|pms| {
                for (i, pm) in pms.iter_mut().enumerate() {
                    pm.reliability = 0.9 + 0.001 * i as f64;
                }
            });
            dc
        };
        for seed in [7, 61] {
            let reference = fleet_twin(fleet(), reference());
            let mut comp = fleet_twin(fleet(), comp());
            let _ = comp.plan(SimTime::ZERO);
            assert_eq!(comp.policy.compressed_superclasses(), 70);
            drive_against_reference(seed, 120, reference, comp);
        }
    }

    #[test]
    fn levels_past_63_stay_compressed_and_match() {
        // A 128-core class with the paper's (1, 512) minimum VM has
        // W_j = 128 Eq. 4 levels; packing one PM past level 63 must keep
        // every decision the specification's.
        let big = PmClass {
            capacity: ResourceVector::cpu_mem(128, 65_536),
            ..PmClass::paper_fast()
        };
        let fleet = || {
            FleetBuilder::new()
                .add_class(big.clone(), 3, 0.99)
                .add_class(PmClass::paper_slow(), 2, 0.95)
                .initially_on(true)
                .build()
        };
        let mut definition = fleet_twin(fleet(), reference());
        let mut comp = fleet_twin(fleet(), comp());
        for i in 0..150u32 {
            let now = SimTime::from_secs(u64::from(i) * 60);
            let s = spec(i + 1, 512, 100_000 + u64::from(i) * 500);
            let pm = definition.place(&s, now);
            assert_eq!(pm, comp.place(&s, now), "vm {i}");
            let pm = pm.expect("the fleet has room");
            for twin in [definition.world(), comp.world()] {
                install(twin.dc, twin.vms, s.clone(), pm, now);
            }
            if i % 3 == 2 {
                // Free a VM on the busiest PM so consolidation has work.
                let gone = VmId(i);
                for twin in [definition.world(), comp.world()] {
                    twin.dc.apply(FleetOp::Remove { vm: gone }).unwrap();
                    twin.vms.remove(gone);
                }
            }
            assert_eq!(definition.plan(now), comp.plan(now), "vm {i}");
        }
        let p = comp.policy.planner();
        let top = p.buckets.iter().filter_map(Bucket::top).max();
        assert!(top.is_some_and(|w| w > 63), "top level {top:?}");
    }

    /// A twin over a per-PM-jittered fleet: every reliability is nudged
    /// off its class value, so exact-equality superclassing would
    /// fragment toward one class per PM. With `class_tolerance` both
    /// kernels quantize through the same grid and the compressed planner
    /// keeps its two hardware superclasses.
    fn jittered_twin<P>(policy: impl FnOnce(DynamicConfig) -> P, tolerance: f64) -> Twin<P> {
        let mut dc = FleetBuilder::new()
            .add_class(PmClass::paper_fast(), 6, 0.99)
            .add_class(PmClass::paper_slow(), 6, 0.95)
            .initially_on(true)
            .build();
        // ±0.004 spread, well inside one 0.01-tolerance bucket.
        dc.edit_pms(|pms| {
            for (i, pm) in pms.iter_mut().enumerate() {
                pm.reliability += 0.002 * ((i % 5) as f64 - 2.0);
            }
        });
        let cfg = DynamicConfig {
            class_tolerance: tolerance,
            ..DynamicConfig::default()
        };
        Twin {
            dc,
            vms: VmTable::new(),
            policy: policy(cfg),
        }
    }

    #[test]
    fn bucketed_compressed_matches_dense_on_jittered_fleets() {
        for seed in [5, 19, 73, 211] {
            let reference = jittered_twin(Spec::new, 0.01);
            let comp = jittered_twin(DynamicPlacement::new, 0.01);
            drive_against_reference(seed, 100, reference, comp);
        }
    }

    #[test]
    fn tolerance_collapses_jittered_fleet_to_hardware_superclasses() {
        // Exact keys: every jittered reliability is its own superclass.
        let mut exact = jittered_twin(DynamicPlacement::new, 0.0);
        let _ = exact.plan(SimTime::ZERO);
        assert_eq!(
            exact.policy.compressed_superclasses(),
            10,
            "5 distinct jittered reliabilities per hardware class"
        );
        // Bucketed keys: the jitter collapses back onto the two classes.
        let mut bucketed = jittered_twin(DynamicPlacement::new, 0.01);
        let s = spec(1, 512, 50_000);
        if let Some(pm) = bucketed.place(&s, SimTime::ZERO) {
            let twin = bucketed.world();
            install(twin.dc, twin.vms, s, pm, SimTime::ZERO);
        }
        let _ = bucketed.plan(SimTime::ZERO);
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
            let mut definition = Twin::new(reference());
            let mut comp = Twin::new(comp());
            let s = spec(1, 512, est);
            let now = SimTime::ZERO;
            assert_eq!(definition.place(&s, now), comp.place(&s, now), "est {est}");
        }
    }

    #[test]
    fn live_view_matches_dense_on_class_divergent_fleets() {
        // PMs whose reliability diverges from their hardware class (set
        // in a setup edit): every divergent PM must land in its own
        // superclass and the move sequence must match the specification.
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
        dc.edit_pms(|pms| {
            pms[1].reliability = 0.42;
            pms[3].reliability = 0.77;
        });
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut comp = comp();
        let moves = comp.plan_migrations(&view);
        assert_eq!(moves, reference().plan_migrations(&view));
        assert!(!moves.is_empty(), "divergent fleet still consolidates");
        assert_eq!(
            comp.compressed_superclasses(),
            4,
            "one superclass per hardware class plus one per divergent PM"
        );
    }

    #[test]
    fn dead_host_columns_escape_to_the_best_raw_candidate() {
        // DESIGN.md I6: a host whose own entry is 0 (here p^rel = 0) makes
        // every positive entry of its columns +∞, and those rank by raw
        // p_ij. VM 1's best escape is slow PM 2, which two more VMs fill to
        // its top level, not the lowest-id candidate, empty fast PM 1.
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        for (id, pm) in [(1, 0), (2, 2), (3, 2)] {
            install(
                &mut dc,
                &mut vms,
                spec(id, 512, 50_000),
                PmId(pm),
                SimTime::ZERO,
            );
        }
        dc.edit_pms(|pms| pms[0].reliability = 0.0);
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let moves = comp().plan_migrations(&view);
        assert_eq!(moves, reference().plan_migrations(&view));
        assert_eq!(
            moves[0],
            Migration {
                vm: VmId(1),
                from: PmId(0),
                to: PmId(2),
            }
        );
    }

    #[test]
    fn unit_reliability_is_the_rel_ablation_over_random_histories() {
        // Metamorphic: with exact keys, `use_rel = false` multiplies by
        // nothing where a fleet whose every reliability is 1.0 multiplies
        // by exactly 1.0 — so both decide identically, on the production
        // planner and on the specification alike.
        let no_rel = DynamicConfig {
            use_rel: false,
            ..DynamicConfig::default()
        };
        fn unit_fleet<P: PlacementPolicy>(policy: P) -> Twin<P> {
            let mut twin = Twin::new(policy);
            twin.dc
                .edit_pms(|pms| pms.iter_mut().for_each(|pm| pm.reliability = 1.0));
            twin
        }
        for seed in [5, 29, 97] {
            drive_history(
                seed,
                120,
                &mut Twin::new(DynamicPlacement::new(no_rel.clone())),
                &mut unit_fleet(comp()),
            );
            drive_history(
                seed,
                120,
                &mut Twin::new(Spec::new(no_rel.clone())),
                &mut unit_fleet(reference()),
            );
        }
    }

    #[test]
    fn tie_break_is_deterministic_across_build_kernels() {
        // Dense and compressed builds must resolve ties identically
        // (lowest eligible PM id).
        let build = || {
            let mut dc = small_fleet();
            let mut vms = VmTable::new();
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
        let policies: [Box<dyn PlacementPolicy>; 2] = [Box::new(reference()), Box::new(comp())];
        for mut policy in policies {
            let (dc, vms) = build();
            let view = PlacementView {
                dc: &dc,
                vms: &vms,
                now: SimTime::ZERO,
            };
            all_moves.push(policy.plan_migrations(&view));
            all_places.push(policy.place(&view, &spec(99, 256, 120_000)));
        }
        assert_eq!(all_moves[0], all_moves[1], "specification vs compressed");
        assert_eq!(all_places[0], all_places[1]);
    }

    #[test]
    fn demand_registry_grows_past_the_recycle_mark_and_still_matches() {
        // More distinct demand vectors live at once than DEMAND_RECYCLE_AT
        // (on a fleet with room for them all): no slot is free to recycle,
        // so the registry grows, and every decision stays the
        // specification's.
        let mut definition = Twin::sized(reference(), 18, 6);
        let mut comp = Twin::sized(comp(), 18, 6);
        let mut t = 0u64;
        for i in 0..(DEMAND_RECYCLE_AT as u32 + 6) {
            let now = SimTime::from_secs(t);
            let s = spec(i + 1, 256 + i as u64, 100_000);
            let pa = definition.place(&s, now);
            let pb = comp.place(&s, now);
            assert_eq!(pa, pb, "vm {i}");
            if let Some(pm) = pa {
                for twin in [definition.world(), comp.world()] {
                    install(twin.dc, twin.vms, s.clone(), pm, now);
                }
            }
            t += 100;
        }
        let now = SimTime::from_secs(t);
        assert_eq!(
            definition.plan(now),
            comp.plan(now),
            "plans past the mark match"
        );
        let demands = comp.policy.planner().demands.len();
        assert!(demands > DEMAND_RECYCLE_AT, "{demands} demand slots");
        assert_eq!(comp.policy.compressed_passes(), 1);
    }

    #[test]
    fn vm_ids_past_the_flat_slot_table_stay_compressed_and_match() {
        // A VM id the flat column slot table does not cover goes to the
        // slot map instead of sizing the table after it; the plan is the
        // specification's.
        let mut definition = Twin::new(reference());
        let mut comp = Twin::new(comp());
        for (i, id) in [1, FLAT_VM_IDS as u32].into_iter().enumerate() {
            let s = spec(id, 512, 150_000);
            let pm = PmId(6 + i as u32);
            install(
                &mut definition.dc,
                &mut definition.vms,
                s.clone(),
                pm,
                SimTime::ZERO,
            );
            install(&mut comp.dc, &mut comp.vms, s, pm, SimTime::ZERO);
        }
        let now = SimTime::from_secs(60);
        let moves = definition.plan(now);
        assert!(!moves.is_empty());
        assert_eq!(moves, comp.plan(now));
        assert_eq!(comp.policy.compressed_passes(), 1);
        let slots = &comp.policy.planner().col_slot;
        assert_eq!(slots.far_len(), 1, "the large id sits in the slot map");
        assert!(slots.flat_len() <= 2, "the flat table stays small");
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
                    class_table::class_level(&row.used.add(demand), &sc.entry) as u16
                } else {
                    INFEASIBLE
                };
                assert_eq!(cached, w, "row {r}, demand {d}");
                if w != INFEASIBLE {
                    expected_entries += 1;
                    let b = &p.buckets[row.sclass as usize * p.stride + d];
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
        // and past DEMAND_RECYCLE_AT each recycled slot must be wiped and
        // refilled — never one a live column still uses.
        let mut twin = Twin::new(comp());
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
        let mut p = CompressedPlanner::new(Vec::new());
        p.ensure_synced(&view, None, &cfg);
        for i in 0..(DEMAND_RECYCLE_AT as u64 + 20) {
            p.register_demand(&ResourceVector::cpu_mem(1 + i % 3, 100 + 37 * i), &cfg);
            assert_level_cache_exact(&p);
        }
        assert_eq!(
            (p.stride, p.demands.len()),
            (DEMAND_RECYCLE_AT, DEMAND_RECYCLE_AT)
        );
        for col in &p.cols {
            assert_eq!(
                &p.demands[col.demand as usize],
                twin.vms[col.id].demand(),
                "a live column's slot was recycled"
            );
        }
    }

    #[test]
    fn demand_slots_recycle_through_elastic_churn() {
        // Three times DEMAND_RECYCLE_AT distinct demand vectors over the
        // run, but never more than a handful live at once: freed slots
        // must be reused (the registry stops growing), and every decision
        // must stay the specification's. Half the arrivals skip `place` so the patch path
        // registers (and recycles) too.
        let mut definition = Twin::new(reference());
        let mut comp = Twin::new(comp());
        let mut live = std::collections::VecDeque::new();
        for i in 0..(3 * DEMAND_RECYCLE_AT as u32) {
            let now = SimTime::from_secs(100 * u64::from(i));
            let s = spec(i + 1, 128 + u64::from(i), 150_000);
            // A fast PM (ids 0–5) holds all six live VMs if it must.
            let pm = if i % 2 == 0 {
                let pa = definition.place(&s, now);
                assert_eq!(pa, comp.place(&s, now), "vm {i}");
                pa.expect("the fleet has room")
            } else {
                PmId(i % 6)
            };
            for twin in [definition.world(), comp.world()] {
                install(twin.dc, twin.vms, s.clone(), pm, now);
            }
            live.push_back(s.id);
            if live.len() > 6 {
                let gone = live.pop_front().expect("non-empty");
                for twin in [definition.world(), comp.world()] {
                    twin.dc.apply(FleetOp::Remove { vm: gone }).unwrap();
                    twin.vms.remove(gone);
                }
            }
            assert_eq!(definition.plan(now), comp.plan(now), "vm {i}");
        }
        assert_eq!(comp.policy.planner().demands.len(), DEMAND_RECYCLE_AT);
        assert_eq!(
            comp.policy.compressed_passes(),
            3 * DEMAND_RECYCLE_AT as u64,
            "every pass ran on the persistent compressed planner"
        );
    }

    #[test]
    fn auto_kernel_runs_compressed_at_paper_scale() {
        // The default scheme is the compressed planner at every fleet
        // size: even a 4-PM fleet runs it, and its plan is the
        // specification's.
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
        assert_eq!(moves, reference().plan_migrations(&view));
    }

    /// A compressed planner synced to `twin`'s fleet at `now`.
    fn synced_planner<P>(twin: &Twin<P>, now: SimTime, cfg: &DynamicConfig) -> CompressedPlanner {
        let view = PlacementView {
            dc: &twin.dc,
            vms: &twin.vms,
            now,
        };
        let mut p = CompressedPlanner::new(Vec::new());
        p.ensure_synced(&view, None, cfg);
        p
    }

    #[test]
    fn lazy_raise_takes_the_largest_touched_cap_per_demand() {
        // Two superclasses (fast, slow) × one demand: fold both buckets as
        // touched at different tops and check every column's effective
        // bound lands on the larger `p_cap / h`, and on ∞ over a zero-`h`
        // host — and that the pending cap the bound check reads covers it.
        let mut twin = Twin::new(comp());
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
                let top = p.buckets[s * p.stride].top().expect("occupied bucket");
                p.sclasses[s].rel * p.sclasses[s].entry.level_eff[top]
            })
            .collect();
        assert_ne!(caps[0], caps[1], "the two tops must differ");
        let cap = caps[0].max(caps[1]);
        let clear = |p: &mut CompressedPlanner| {
            p.reset_pending();
            for c in 0..p.cols.len() {
                p.cols[c].dbar = 0.0;
            }
        };
        // Either touch order must land on the larger cap.
        for order in [[(0, 0), (1, 0)], [(1, 0), (0, 0)]] {
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
                assert_eq!(p.pending_cap, cap, "the pending cap covers the bound");
                assert_eq!(p.cols[c].dbar, 0.0, "the fold leaves dbar alone");
            }
            assert!(p.touched_buckets.is_empty());
            assert!(p.buckets.iter().all(|b| !b.marked));
        }

        // A zero-`h` host still raises to ∞; an untouched demand does not.
        clear(p);
        let host = p.cols[0].host as usize;
        p.rows[host].h = 0.0;
        p.touched_buckets = vec![(1, 0)];
        p.fold_touched(&cfg);
        assert_eq!(p.effective_bound(0), f64::INFINITY);
        assert_eq!(cap_over(p.pending_cap, 0.0), f64::INFINITY);
        clear(p);
        p.fold_touched(&cfg);
        assert_eq!(p.effective_bound(0), 0.0, "nothing touched, nothing raised");
        assert_eq!(p.pending_cap, f64::NEG_INFINITY);
    }

    #[test]
    fn row_index_follows_a_host_whose_h_drops_after_the_touch() {
        // A cap is pending for the only demand; then the host of two of its
        // columns loses one VM, so its `H` drops. The patch re-scores the
        // surviving column, the row index must re-file the host under its
        // new `H`, and every column whose effective bound exceeds the
        // threshold must be hot or on a row the pending cap's walk reaches.
        let mut twin = Twin::new(comp());
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
        let thr = cfg.mig_threshold;
        let mut p = synced_planner(&twin, now, &cfg);
        p.touched_buckets = vec![(0, 0)];
        p.fold_touched(&cfg);
        assert!(p.pending[0] > 0.0);
        let h_before = p.rows[0].h;
        assert!(p.row_index.contains(&(h_key(h_before), 0)));
        p.assert_row_index_exact();

        twin.dc.apply(FleetOp::Remove { vm: VmId(2) }).unwrap();
        twin.vms.remove(VmId(2));
        let delta = twin.dc.take_fleet_delta();
        let view = PlacementView {
            dc: &twin.dc,
            vms: &twin.vms,
            now,
        };
        p.ensure_synced(&view, Some(delta), &cfg);
        let h_after = p.rows[0].h;
        assert!(h_after < h_before, "H fell with the host's load");
        assert!(p.row_index.contains(&(h_key(h_after), 0)));
        assert!(!p.row_index.contains(&(h_key(h_before), 0)));
        p.assert_row_index_exact();
        p.prune_hot(thr);
        for c in 0..p.cols.len() {
            let exact = p.exact_best(c, now, &cfg).map_or(0.0, |(_, d)| d);
            let bound = p.effective_bound(c);
            let h = p.rows[p.cols[c].host as usize].h;
            assert!(exact <= bound.max(thr), "vm {:?}", p.cols[c].id);
            assert!(
                bound <= thr || p.hot.contains(&p.cols[c].id) || cap_over(p.pending_cap, h) > thr,
                "vm {:?}: bound {bound} found by neither the hot list nor the walk",
                p.cols[c].id
            );
        }
    }

    #[test]
    fn tied_winner_is_the_lowest_vm_id_after_swap_remove() {
        // Four identical VMs alone on four identical slow PMs score exactly
        // alike. Removing the first column swaps the last (VM 4) into its
        // slot, ahead of VMs 2 and 3: the winner must still be the
        // specification's, the lowest id.
        let mut definition = Twin::new(reference());
        let mut comp = Twin::new(comp());
        let now = SimTime::ZERO;
        let cfg = DynamicConfig::default();
        for twin in [definition.world(), comp.world()] {
            for i in 0..4u32 {
                install(
                    twin.dc,
                    twin.vms,
                    spec(i + 1, 512, 200_000),
                    PmId(6 + i),
                    now,
                );
            }
            let _ = twin.dc.take_fleet_delta();
        }
        let mut p = synced_planner(&comp, now, &cfg);
        for twin in [definition.world(), comp.world()] {
            twin.dc.apply(FleetOp::Remove { vm: VmId(1) }).unwrap();
            twin.vms.remove(VmId(1));
        }
        let later = SimTime::from_secs(60);
        let delta = comp.dc.take_fleet_delta();
        let view = PlacementView {
            dc: &comp.dc,
            vms: &comp.vms,
            now: later,
        };
        let (moves, _) = p.plan_migrations(&view, Some(delta), &cfg);
        let ids: Vec<u32> = p.cols.iter().map(|c| c.id.0).collect();
        assert_eq!(ids, [4, 2, 3], "swap_remove reordered the columns");
        assert!(!moves.is_empty(), "the tied VMs consolidate");
        assert_eq!(moves[0].vm, VmId(2), "lowest id wins the tie");
        assert_eq!(definition.plan(later), moves);
    }

    /// Runs `f` with this thread's obs counters on: its result, and the
    /// columns the round loops visited and the `exact_best` calls they
    /// made meanwhile.
    fn round_work<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
        dvmp_obs::set_enabled(true);
        let before = dvmp_obs::counters_snapshot();
        let out = f();
        let work = dvmp_obs::counters_snapshot().delta_from(&before);
        dvmp_obs::set_enabled(false);
        (
            out,
            work.compressed_round_visits,
            work.compressed_round_evals,
        )
    }

    #[test]
    fn round_loop_evaluates_only_columns_that_can_win() {
        // 64 full fast PMs, one with 7 of 8 slots taken and one hosting a
        // lone VM: 520 columns, one of which (the lone VM) exceeds the
        // threshold. A round may visit, and compute `exact_best` for, only
        // the exceeders, the columns the previous move re-hosted or moved
        // (those on its `from`/`to`), and one more — never every column,
        // as a flat pass over the columns does.
        let full = 64u32;
        let mut dc = FleetBuilder::new()
            .add_class(PmClass::paper_fast(), full as usize + 2, 0.99)
            .initially_on(true)
            .build();
        let mut vms = VmTable::new();
        let mut id = 1;
        for (pm, count) in (0..full)
            .map(|pm| (pm, 8))
            .chain([(full, 7), (full + 1, 1)])
        {
            for _ in 0..count {
                install(
                    &mut dc,
                    &mut vms,
                    spec(id, 512, 100_000 + u64::from(id)),
                    PmId(pm),
                    SimTime::ZERO,
                );
                id += 1;
            }
        }
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let cfg = DynamicConfig::default();
        let definition = Spec::new(cfg.clone());
        let fleet = definition.fleet(&view);
        let exceeders = (0..fleet.cols.len())
            .filter(|&c| {
                (0..fleet.rows.len()).any(|r| {
                    r != fleet.cols[c].host
                        && definition.normalized(&fleet, r, c) > cfg.mig_threshold
                })
            })
            .count();
        assert_eq!(exceeders, 1);

        let mut policy = comp();
        let (moves, visits, evals) = round_work(|| policy.plan_migrations(&view));
        assert_eq!(moves, reference().plan_migrations(&view));
        assert_eq!(
            moves,
            vec![Migration {
                vm: VmId(id - 1),
                from: PmId(full + 1),
                to: PmId(full),
            }]
        );
        // The loop ended on a winnerless round: one round per move plus
        // the last. Each round's budget is summed over the pass, which the
        // counters report whole.
        assert_eq!(policy.round_cap_hits(), 0);
        let mut host: BTreeMap<VmId, PmId> =
            vms.ids().map(|v| (v, dc.host_of(v).unwrap())).collect();
        let mut budget = exceeders + 1;
        for m in &moves {
            host.insert(m.vm, m.to);
            let on_ends = host.values().filter(|&&h| h == m.from || h == m.to).count();
            budget += exceeders + on_ends + 1;
        }
        assert!(
            visits as usize <= budget,
            "{visits} column visits over a budget of {budget}"
        );
        assert!(
            evals as usize <= budget,
            "{evals} exact evaluations over a budget of {budget}"
        );
        assert!(evals >= 1, "the winner was evaluated");
    }

    #[test]
    fn a_pass_short_of_the_round_cap_leaves_the_next_one_at_the_bound_check() {
        // A pass that returns fewer than `MIG_round` moves ended on a round
        // without a winner, which computed every column that could beat
        // the threshold exactly: every `dbar ≤ MIG_threshold` after it, and
        // the hot list is empty. So a pass that moved nothing leaves the
        // next pass over the unchanged fleet (empty journal) at the bound
        // check — no round visits a column. Checked after every such pass
        // of a random history whose moves are applied at once.
        let mut twin = Twin::new(comp());
        let thr = DynamicConfig::default().mig_threshold;
        let mut rng = 0x5eed_u64;
        let mut next_vm = 1u32;
        let mut idle_round_passes = 0;
        for step in 0..240u64 {
            let now = SimTime::from_secs(step * 97);
            if xorshift(&mut rng) % 3 == 0 {
                let ids: Vec<VmId> = twin.vms.ids().collect();
                if let Some(&vm) = ids.get((xorshift(&mut rng) % 8) as usize) {
                    twin.dc.apply(FleetOp::Remove { vm }).unwrap();
                    twin.vms.remove(vm);
                }
            } else {
                let s = spec(
                    next_vm,
                    256 << (xorshift(&mut rng) % 3),
                    20_000 + step * 900,
                );
                next_vm += 1;
                if let Some(pm) = twin.place(&s, now) {
                    install(&mut twin.dc, &mut twin.vms, s, pm, now);
                }
            }
            let (moves, visits, _) = round_work(|| twin.plan(now));
            assert!(moves.len() < DynamicConfig::default().mig_round as usize);
            let p = twin.policy.planner();
            let top = p
                .cols
                .iter()
                .map(|c| c.dbar)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                top <= thr,
                "step {step}: a bound of {top} above the threshold after {} moves",
                moves.len()
            );
            if moves.is_empty() {
                if visits > 0 {
                    idle_round_passes += 1;
                }
                let (again, visits, _) = round_work(|| twin.plan(now));
                assert!(again.is_empty(), "step {step}");
                assert_eq!(
                    visits, 0,
                    "step {step}: an unchanged fleet re-entered the round loop"
                );
            }
            for Migration { vm, from, to } in moves {
                let demand = *twin.vms[vm].demand();
                if !twin.dc.pm(to).can_host(&demand) {
                    continue;
                }
                for op in [
                    FleetOp::BeginMigration { vm, to, demand },
                    FleetOp::FinishMigration { vm, from },
                ] {
                    twin.dc.apply(op).unwrap();
                }
                twin.vms.get_mut(vm).unwrap().state = VmState::Running { pm: to };
            }
        }
        assert!(
            idle_round_passes > 0,
            "no pass entered the round loop and moved nothing"
        );
    }

    #[test]
    fn creation_stash_defers_and_adopts_columns() {
        // A VM mid-creation must not be planned; once its ready time
        // passes (an unjournaled transition), the stash must surface it.
        let mut definition = Twin::new(reference());
        let mut comp = Twin::new(comp());
        // Fragment: two runners on separate PMs plus one creating.
        for (twin_no, twin) in [definition.world(), comp.world()].into_iter().enumerate() {
            for (i, pm) in [0u32, 2].iter().enumerate() {
                install(
                    twin.dc,
                    twin.vms,
                    spec(i as u32 + 1, 512, 200_000),
                    PmId(*pm),
                    SimTime::ZERO,
                );
            }
            let s = spec(3, 512, 200_000);
            let (vm, pm, demand) = (s.id, PmId(3), s.resources);
            twin.dc.apply(FleetOp::Place { vm, pm, demand }).unwrap();
            let mut vm = Vm::new(s);
            vm.state = VmState::Creating {
                pm: PmId(3),
                ready_at: SimTime::from_secs(40),
            };
            twin.vms.insert(vm);
            let _ = twin_no;
        }
        let m0_definition = definition.plan(SimTime::from_secs(0));
        let m0_comp = comp.plan(SimTime::from_secs(0));
        assert_eq!(m0_definition, m0_comp, "creating VM excluded identically");
        // Promote (no journal traffic at all) and replan.
        for twin in [definition.world(), comp.world()] {
            let v = twin.vms.get_mut(VmId(3)).unwrap();
            v.state = VmState::Running { pm: PmId(3) };
            v.started_at = Some(SimTime::from_secs(40));
        }
        let m1_definition = definition.plan(SimTime::from_secs(50));
        let m1_comp = comp.plan(SimTime::from_secs(50));
        assert_eq!(m1_definition, m1_comp, "stash surfaced the new column");
        assert!(
            m1_comp.iter().any(|m| m.vm == VmId(3)) || !m1_comp.is_empty(),
            "the promoted VM is plannable"
        );
    }
}
