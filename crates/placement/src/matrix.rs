//! The M×N VM/PM mapping probability matrix (Eq. 1) and its column
//! normalization.
//!
//! Rows are the available PMs, columns the migratable VMs; entry
//! `p[row][col]` is the joint probability of Section III-B. Algorithm 1
//! only ever changes two PM rows and one VM column per migration round, so
//! the matrix supports targeted recomputation ([`recompute_row`] /
//! [`recompute_col`]) instead of full rebuilds — exactly the optimization
//! the paper describes ("we only need to update the corresponding PM rows
//! in the last migration process").
//!
//! ## The fast path
//!
//! Two further optimizations keep planning cheap at paper scale
//! (100 PMs × hundreds of VMs) without changing a single output bit
//! (DESIGN.md §8):
//!
//! - **Class-factor caching** ([`MatrixKernel::Fast`], the default): all
//!   factor inputs that are constant per PM *class* — `p^vir` overheads,
//!   the slot count `W_j`, `U_j^MIN` and the Eq. 4 level boundaries — are
//!   hoisted into a [`ClassTable`] built once per (re)build, removing
//!   every `powf` from the inner loop; `p^vir` itself is evaluated once
//!   per (class, column) into a cache instead of once per entry. Rows
//!   whose PM diverges from its class (hand-built plans only) fall back
//!   to the reference kernel.
//! - **Host-probability cache**: `host_p[col]` mirrors the current-host
//!   entry of each column, so [`normalized`] and [`best_move_for`] read
//!   one cached value instead of re-indexing the host row per candidate.
//!   The targeted recompute methods maintain it.
//!
//! [`recompute_row`]: ProbabilityMatrix::recompute_row
//! [`recompute_col`]: ProbabilityMatrix::recompute_col
//! [`normalized`]: ProbabilityMatrix::normalized
//! [`best_move_for`]: ProbabilityMatrix::best_move_for

use crate::factors::class_table::{self, ClassTable};
use crate::factors::{self, EvalContext};
use crate::plan::PlanState;

/// Which entry-evaluation kernel a matrix uses. Both produce bit-identical
/// entries; `Reference` exists to prove that (differential tests) and to
/// measure the fast path's win honestly (`perf_report`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatrixKernel {
    /// Class-factor cached evaluation (the default).
    #[default]
    Fast,
    /// Direct per-entry evaluation through [`factors::joint`].
    Reference,
}

/// Row-major M×N matrix of joint probabilities.
#[derive(Debug, Clone, Default)]
pub struct ProbabilityMatrix {
    rows: usize,
    cols: usize,
    p: Vec<f64>,
    /// `host_p[col]` = `p[vms[col].host][col]`, maintained by every
    /// (re)build and targeted recompute.
    host_p: Vec<f64>,
    class_table: ClassTable,
    /// `vir_cache[class * cols + col]` = `p^vir` for moving column `col`'s
    /// VM onto a PM of `class` — Eq. 3 depends only on that pair, so the
    /// fast kernel evaluates it `classes × N` times per (re)build instead
    /// of `M × N`. A planned migration charges its overhead against the
    /// VM's remaining time (`PlanState::apply_migration`), which changes
    /// Eq. 3's inputs for that one column — [`recompute_col`] refreshes
    /// the column's cache slots, so the Algorithm 1 update sequence
    /// (rows, then the moved column) leaves the cache exact.
    ///
    /// [`recompute_col`]: ProbabilityMatrix::recompute_col
    vir_cache: Vec<f64>,
    /// `eff[row * cols + col]` = the `p^eff` operand recorded for that
    /// entry, or [`class_table::INFEASIBLE_EFF`] when the entry failed the
    /// feasibility test. Maintained by every fast-kernel fill; empty under
    /// the reference kernel. The eff operand is the one factor the
    /// cross-pass incremental update cannot recompute cheaply (it needs
    /// the prospective-occupancy product), so
    /// [`update_incremental`](ProbabilityMatrix::update_incremental)
    /// re-reads it for clean entries instead.
    eff: Vec<f64>,
    /// The previous pass's `eff` buffer (in the previous pass's row/column
    /// order), double-buffered so the incremental update can read old
    /// operands while writing new ones without allocating.
    eff_scratch: Vec<f64>,
    /// Per-column host-row scratch (`vms[col].host`), refilled by the bulk
    /// sweeps so their inner loops stream a dense 4-byte array instead of
    /// striding through `PlanVm` records.
    hosts: Vec<u32>,
    /// `true` while `eff` covers every entry of the current matrix: the
    /// fast kernel filled it and every row resolved to a class entry.
    /// Precondition for
    /// [`update_incremental`](ProbabilityMatrix::update_incremental).
    eff_complete: bool,
    kernel: MatrixKernel,
}

/// Fills one PM row's entries into `out` (`out.len() == plan.vms.len()`),
/// recording each entry's `p^eff` operand into `eff_out` when non-empty
/// (`eff_out.len() == out.len()`; pass `&mut []` to skip recording). Free
/// function so the incremental update can run it on split-borrowed rows.
/// `vir_cache` is the class-major cache described on [`ProbabilityMatrix`]
/// (unused — and allowed empty — under the reference kernel).
#[allow(clippy::too_many_arguments)]
fn fill_row(
    out: &mut [f64],
    eff_out: &mut [f64],
    plan: &PlanState,
    ctx: &EvalContext<'_>,
    row: usize,
    table: &ClassTable,
    vir_cache: &[f64],
    kernel: MatrixKernel,
) {
    let pm = &plan.pms[row];
    let class = match kernel {
        MatrixKernel::Fast => table.class_of_row(row),
        MatrixKernel::Reference => None,
    };
    if let Some(class) = class {
        let entry = table.entry(class).expect("eligible row has a class entry");
        let virs = &vir_cache[class * out.len()..][..out.len()];
        if eff_out.is_empty() {
            for ((slot, vm), &vir) in out.iter_mut().zip(&plan.vms).zip(virs) {
                let hosted = vm.host == row;
                *slot = class_table::joint_with_class(pm, vm, hosted, entry, vir, ctx, plan.now);
            }
        } else {
            for (((slot, eff), vm), &vir) in out
                .iter_mut()
                .zip(eff_out.iter_mut())
                .zip(&plan.vms)
                .zip(virs)
            {
                let hosted = vm.host == row;
                *slot = class_table::joint_with_class_recording(
                    pm, vm, hosted, entry, vir, ctx, plan.now, eff,
                );
            }
        }
    } else {
        // Ineligible rows evaluate through the reference path, which
        // records no operand — poison any recording slots so a later
        // refresh can never trust them.
        eff_out.fill(class_table::INFEASIBLE_EFF);
        let eff_j = plan.eff_of(row);
        for (slot, vm) in out.iter_mut().zip(&plan.vms) {
            let hosted = vm.host == row;
            *slot = factors::joint(pm, vm, hosted, eff_j, ctx, plan.now);
        }
    }
}

impl ProbabilityMatrix {
    /// Builds the full matrix from a planning state with the default
    /// (fast) kernel.
    pub fn build(plan: &PlanState, ctx: &EvalContext<'_>) -> Self {
        Self::build_with_kernel(plan, ctx, MatrixKernel::Fast)
    }

    /// Builds the full matrix with an explicit kernel.
    pub fn build_with_kernel(
        plan: &PlanState,
        ctx: &EvalContext<'_>,
        kernel: MatrixKernel,
    ) -> Self {
        let mut m = ProbabilityMatrix {
            kernel,
            ..ProbabilityMatrix::default()
        };
        m.rebuild(plan, ctx);
        m
    }

    /// Rebuilds in place against a (possibly resized) plan, reusing the
    /// entry and cache allocations. The planner holds one matrix across
    /// passes and calls this instead of [`build`](Self::build), so
    /// steady-state planning does not allocate here.
    ///
    /// The buffers are resized without clearing: every `rows × cols` entry
    /// (and every `host_p` / live `vir_cache` slot) is overwritten below,
    /// so the fresh build's zero-fill would be a pure memset tax on the
    /// reuse path — measurably the difference between arena reuse winning
    /// and merely tying (`perf_report`'s `plan_pass` row).
    pub fn rebuild(&mut self, plan: &PlanState, ctx: &EvalContext<'_>) {
        self.rows = plan.pms.len();
        self.cols = plan.vms.len();
        self.p.resize(self.rows * self.cols, 0.0);
        self.host_p.resize(self.cols, 0.0);
        if self.kernel == MatrixKernel::Fast {
            self.eff.resize(self.rows * self.cols, 0.0);
            self.class_table.rebuild(plan, &ctx.cfg.min_vm);
            self.vir_cache
                .resize(self.class_table.class_count() * self.cols, 0.0);
            for class in 0..self.class_table.class_count() {
                if let Some(entry) = self.class_table.entry(class) {
                    let out = &mut self.vir_cache[class * self.cols..][..self.cols];
                    for (slot, vm) in out.iter_mut().zip(&plan.vms) {
                        *slot =
                            class_table::class_vir(entry, vm.remaining_secs, ctx.cfg.overhead_mode);
                    }
                }
            }
        } else {
            self.eff.clear();
        }
        self.eff_complete =
            self.kernel == MatrixKernel::Fast && self.class_table.all_rows_eligible();
        if self.rows == 0 || self.cols == 0 {
            return;
        }
        let ProbabilityMatrix {
            cols,
            p,
            eff,
            class_table,
            vir_cache,
            kernel,
            ..
        } = self;
        let mut eff_rows = eff.chunks_mut(*cols);
        for (row, out) in p.chunks_mut(*cols).enumerate() {
            let eff_out = eff_rows.next().unwrap_or(&mut []);
            fill_row(
                out,
                eff_out,
                plan,
                ctx,
                row,
                class_table,
                vir_cache,
                *kernel,
            );
        }
        for (col, vm) in plan.vms.iter().enumerate() {
            self.host_p[col] = self.p[vm.host * self.cols + col];
        }
    }

    /// The kernel this matrix evaluates entries with.
    pub fn kernel(&self) -> MatrixKernel {
        self.kernel
    }

    /// Switches the evaluation kernel. Takes effect from the next
    /// [`rebuild`](Self::rebuild) — callers must rebuild before the next
    /// targeted recompute so entries never mix kernels (they are
    /// bit-identical anyway; this keeps the invariant simple).
    pub fn set_kernel(&mut self, kernel: MatrixKernel) {
        self.kernel = kernel;
    }

    /// Number of PM rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of VM columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The joint probability of hosting VM (column) `col` on PM (row) `row`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.rows && col < self.cols);
        self.p[row * self.cols + col]
    }

    /// Recomputes every entry of PM row `row` against the current plan,
    /// refreshing the host-probability cache of columns hosted there.
    pub fn recompute_row(&mut self, plan: &PlanState, ctx: &EvalContext<'_>, row: usize) {
        let ProbabilityMatrix {
            cols,
            p,
            eff,
            class_table,
            vir_cache,
            kernel,
            ..
        } = self;
        let cols = *cols;
        let eff_out: &mut [f64] = if eff.is_empty() {
            &mut []
        } else {
            &mut eff[row * cols..(row + 1) * cols]
        };
        fill_row(
            &mut p[row * cols..(row + 1) * cols],
            eff_out,
            plan,
            ctx,
            row,
            class_table,
            vir_cache,
            *kernel,
        );
        for (col, vm) in plan.vms.iter().enumerate() {
            if vm.host == row {
                self.host_p[col] = self.p[row * cols + col];
            }
        }
    }

    /// Recomputes every entry of VM column `col` against the current plan.
    /// Also refreshes the column's `p^vir` cache: a planned migration
    /// deducts its overhead from the VM's remaining time, and this is the
    /// targeted update Algorithm 1 issues for the moved VM.
    ///
    /// When the plan carries a live capacity index and the eff cache is
    /// complete, only the host row and the index-enumerated *feasible*
    /// rows are evaluated — every other entry is exactly `0.0` under the
    /// dense loop too (the feasibility test is the first factor), so the
    /// sparse column is bit-identical at O(feasible · log M) instead of
    /// O(M).
    pub fn recompute_col(&mut self, plan: &PlanState, ctx: &EvalContext<'_>, col: usize) {
        let sparse = self.eff_complete && plan.has_capacity_index();
        let ProbabilityMatrix {
            rows,
            cols,
            p,
            host_p,
            class_table,
            vir_cache,
            eff,
            ..
        } = self;
        let (rows, cols, kernel) = (*rows, *cols, self.kernel);
        let vm = &plan.vms[col];
        if kernel == MatrixKernel::Fast {
            for class in 0..class_table.class_count() {
                if let Some(entry) = class_table.entry(class) {
                    vir_cache[class * cols + col] =
                        class_table::class_vir(entry, vm.remaining_secs, ctx.cfg.overhead_mode);
                }
            }
        }
        if sparse {
            for row in 0..rows {
                p[row * cols + col] = 0.0;
                eff[row * cols + col] = class_table::INFEASIBLE_EFF;
            }
            let mut fill = |row: usize| {
                let class = class_table
                    .class_of_row(row)
                    .expect("complete eff cache implies eligibility");
                let entry = class_table
                    .entry(class)
                    .expect("eligible row has a class entry");
                let vir = vir_cache[class * cols + col];
                p[row * cols + col] = class_table::joint_with_class_recording(
                    &plan.pms[row],
                    vm,
                    vm.host == row,
                    entry,
                    vir,
                    ctx,
                    plan.now,
                    &mut eff[row * cols + col],
                );
            };
            // The host entry bypasses the feasibility test (prospective
            // occupancy is the current occupancy), so it is evaluated
            // unconditionally.
            fill(vm.host);
            plan.for_each_feasible(&vm.resources, |row| {
                if row != vm.host {
                    fill(row);
                }
            });
        } else {
            for row in 0..rows {
                let hosted = vm.host == row;
                let class = match kernel {
                    MatrixKernel::Fast => class_table.class_of_row(row),
                    MatrixKernel::Reference => None,
                };
                p[row * cols + col] = match class {
                    Some(class) => {
                        let entry = class_table
                            .entry(class)
                            .expect("eligible row has a class entry");
                        let vir = vir_cache[class * cols + col];
                        let mut sink = 0.0;
                        let slot = eff.get_mut(row * cols + col).unwrap_or(&mut sink);
                        class_table::joint_with_class_recording(
                            &plan.pms[row],
                            vm,
                            hosted,
                            entry,
                            vir,
                            ctx,
                            plan.now,
                            slot,
                        )
                    }
                    None => {
                        if let Some(slot) = eff.get_mut(row * cols + col) {
                            *slot = class_table::INFEASIBLE_EFF;
                        }
                        factors::joint(&plan.pms[row], vm, hosted, plan.eff_of(row), ctx, plan.now)
                    }
                };
            }
        }
        host_p[col] = p[vm.host * cols + col];
    }

    /// The normalized entry `d_ij = p_ij / p_(current host)` for column
    /// `col` at row `row` (Algorithm 1's matrix D). When the current-host
    /// probability is zero (degenerate fleet states), a positive `p_ij`
    /// normalizes to `+∞` so the VM escapes the dead host first
    /// (DESIGN.md I6).
    pub fn normalized(&self, plan: &PlanState, row: usize, col: usize) -> f64 {
        debug_assert_eq!(
            self.host_p[col].to_bits(),
            self.get(plan.vms[col].host, col).to_bits(),
            "stale host-probability cache for column {col}"
        );
        let p_cur = self.host_p[col];
        let p = self.get(row, col);
        if p_cur > 0.0 {
            p / p_cur
        } else if p > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }

    /// The best improvement for one column: `(row, d)` maximizing the
    /// normalized probability over non-host rows. Ties break toward the
    /// lowest row for determinism.
    ///
    /// With a live capacity index on the plan, only *feasible* rows are
    /// scanned: an infeasible entry is exactly `0.0`, so it can never
    /// satisfy `d > 0`, and the index enumerates feasible rows in the same
    /// ascending order as the dense loop — identical winner, identical
    /// tie-break, at O(feasible · log M) instead of O(M).
    pub fn best_move_for(&self, plan: &PlanState, col: usize) -> Option<(usize, f64)> {
        let host_row = plan.vms[col].host;
        let mut best: Option<(usize, f64)> = None;
        let mut consider = |row: usize| {
            if row == host_row {
                return;
            }
            let d = self.normalized(plan, row, col);
            if d > 0.0 && best.map_or(true, |(_, bd)| d > bd) {
                best = Some((row, d));
            }
        };
        if plan.has_capacity_index() {
            plan.for_each_feasible(&plan.vms[col].resources, &mut consider);
        } else {
            for row in 0..self.rows {
                consider(row);
            }
        }
        best
    }

    /// Refills the per-column best-move cache (`best[col]` =
    /// [`best_move_for`](Self::best_move_for)`(col)`) in one row-major
    /// sweep over the matrix instead of N column-strided scans — the bulk
    /// variant the planner runs once per pass after bringing the matrix up
    /// to date. Element-wise identical to the per-column scan: rows are
    /// visited in ascending order, so the strict `>` update keeps the same
    /// lowest-row tie-break, and skipped entries (`p <= 0`) are exactly
    /// those the per-column scan rejects with `d == 0`.
    pub fn refill_best(&mut self, plan: &PlanState, best: &mut Vec<Option<(usize, f64)>>) {
        let cols = self.cols;
        best.clear();
        best.resize(cols, None);
        self.hosts.clear();
        self.hosts.extend(plan.vms.iter().map(|vm| vm.host as u32));
        for row in 0..self.rows {
            let prow = &self.p[row * cols..][..cols];
            for (((&pv, &pc), &host), slot) in prow
                .iter()
                .zip(self.host_p.iter())
                .zip(self.hosts.iter())
                .zip(best.iter_mut())
            {
                if host as usize == row || pv <= 0.0 {
                    continue;
                }
                let d = if pc > 0.0 { pv / pc } else { f64::INFINITY };
                if d > 0.0 && slot.map_or(true, |(_, bd)| d > bd) {
                    *slot = Some((row, d));
                }
            }
        }
    }

    /// `true` while the eff-operand cache covers every entry of the
    /// current matrix — the precondition under which
    /// [`update_incremental`](Self::update_incremental) can run.
    pub fn eff_cache_complete(&self) -> bool {
        self.eff_complete
    }

    /// Cross-pass incremental update: brings the matrix from the previous
    /// planning pass's state to the current plan by recomputing only dirty
    /// rows and columns and *refreshing* every clean entry from its
    /// recorded `p^eff` operand — `vir · rel · eff`, the tail of the
    /// reference multiply chain, so the refreshed entry is bit-identical
    /// to a full recompute (DESIGN.md §8).
    ///
    /// `dirty_rows[row]` / `dirty_cols[col]` flag rows and columns whose
    /// PM/VM was touched since the previous pass (per the fleet-delta
    /// journal) or is new to the plan; `row_src[row]` / `col_src[col]`
    /// give the row/column's index in the previous pass's matrix and need
    /// only be valid for clean rows/columns. Factors that drift every pass
    /// regardless of fleet changes — `p^vir` shrinks with each VM's
    /// remaining time — are recomputed wholesale at `classes × N` cost.
    ///
    /// The sweep also refills `best` — element-wise identical to a
    /// [`refill_best`](Self::refill_best) call afterwards (rows visited
    /// ascending, same strict-`>` tie-break) — so an incremental pass
    /// touches the matrix memory once, not twice. When every clean row and
    /// column keeps its index (steady-state fleets: footprint drift but no
    /// membership churn, detected from the `src` maps), the update runs
    /// fully in place: clean entries' recorded operands are *read where
    /// they already are* instead of being copied through the scratch
    /// buffer, and an infeasible clean entry skips its `p` write too —
    /// the invariant "`eff` is `NaN` ⟹ `p` is exactly `0.0`" holds from
    /// the pass that recorded it.
    ///
    /// Returns `false` — leaving the matrix and `best` in an unspecified
    /// state that the caller **must** resolve with
    /// [`rebuild`](Self::rebuild) + [`refill_best`](Self::refill_best) —
    /// when the preconditions do not hold: reference kernel, incomplete
    /// eff cache, time-varying extra factors, or a class-ineligible row.
    #[allow(clippy::too_many_arguments)]
    pub fn update_incremental(
        &mut self,
        plan: &PlanState,
        ctx: &EvalContext<'_>,
        dirty_rows: &[bool],
        row_src: &[u32],
        dirty_cols: &[bool],
        col_src: &[u32],
        best: &mut Vec<Option<(usize, f64)>>,
    ) -> bool {
        if self.kernel != MatrixKernel::Fast || !self.eff_complete || !ctx.extras.is_empty() {
            return false;
        }
        let (old_rows, old_cols) = (self.rows, self.cols);
        let rows = plan.pms.len();
        let cols = plan.vms.len();
        debug_assert_eq!(dirty_rows.len(), rows);
        debug_assert_eq!(row_src.len(), rows);
        debug_assert_eq!(dirty_cols.len(), cols);
        debug_assert_eq!(col_src.len(), cols);
        self.class_table.rebuild(plan, &ctx.cfg.min_vm);
        if !self.class_table.all_rows_eligible() {
            self.eff_complete = false;
            return false;
        }
        // In-place iff every clean row/column keeps its flat-buffer
        // position: same row stride (column count) and identity `src`
        // maps. Membership churn in the middle of the id order shifts
        // indices and forces the scratch-buffer copy below.
        let in_place = cols == old_cols
            && dirty_rows
                .iter()
                .zip(row_src)
                .enumerate()
                .all(|(r, (&dirty, &src))| dirty || src as usize == r)
            && dirty_cols
                .iter()
                .zip(col_src)
                .enumerate()
                .all(|(c, (&dirty, &src))| dirty || src as usize == c);
        if !in_place {
            // The previous pass's operands move to the scratch buffer; the
            // live buffers are fully rewritten below (dirty entries by
            // direct evaluation, clean entries by carrying their operand
            // across).
            std::mem::swap(&mut self.eff, &mut self.eff_scratch);
        }
        self.rows = rows;
        self.cols = cols;
        self.p.resize(rows * cols, 0.0);
        self.eff.resize(rows * cols, 0.0);
        self.host_p.resize(cols, 0.0);
        self.vir_cache
            .resize(self.class_table.class_count() * cols, 0.0);
        for class in 0..self.class_table.class_count() {
            if let Some(entry) = self.class_table.entry(class) {
                let out = &mut self.vir_cache[class * cols..][..cols];
                for (slot, vm) in out.iter_mut().zip(&plan.vms) {
                    *slot = class_table::class_vir(entry, vm.remaining_secs, ctx.cfg.overhead_mode);
                }
            }
        }
        self.hosts.clear();
        self.hosts.extend(plan.vms.iter().map(|vm| vm.host as u32));
        let ProbabilityMatrix {
            p,
            eff,
            eff_scratch,
            host_p,
            class_table,
            vir_cache,
            hosts,
            kernel,
            ..
        } = self;
        let old_eff = &*eff_scratch;
        let use_vir = ctx.vir_enabled();
        let (use_rel, use_eff) = (ctx.cfg.use_rel, ctx.cfg.use_eff);
        // The exact multiply chain a clean entry refreshes through —
        // `1.0`, then `vir`, then `rel`, then the recorded `eff` operand —
        // byte-for-byte the tail of `joint_with_class_recording`.
        let refresh = |hosted: bool, vir: f64, rel: f64, e: f64| -> f64 {
            if e.is_nan() {
                return 0.0;
            }
            let mut v = 1.0;
            if use_vir {
                v *= if hosted { 1.0 } else { vir };
            }
            if use_rel {
                v *= rel;
            }
            if use_eff {
                v *= e;
            }
            v
        };

        // Pass 1: dirty rows, by direct evaluation. They must be complete
        // before the host-probability refresh — a column hosted on a dirty
        // row reads its freshly evaluated entry.
        let mut eff_rows = eff.chunks_mut(cols);
        for (row, out) in p.chunks_mut(cols).enumerate() {
            let eff_out = eff_rows.next().expect("eff buffer sized with p");
            if dirty_rows[row] {
                fill_row(
                    out,
                    eff_out,
                    plan,
                    ctx,
                    row,
                    class_table,
                    vir_cache,
                    *kernel,
                );
            }
        }

        // Pass 2: the host-probability cache, needed before any `best`
        // comparison (the normalized entry divides by it).
        for (col, vm) in plan.vms.iter().enumerate() {
            let h = vm.host;
            host_p[col] = if dirty_rows[h] {
                p[h * cols + col]
            } else {
                let class = class_table.class_of_row(h).expect("all rows eligible");
                let entry = class_table
                    .entry(class)
                    .expect("eligible row has a class entry");
                if dirty_cols[col] {
                    class_table::joint_with_class(
                        &plan.pms[h],
                        vm,
                        true,
                        entry,
                        vir_cache[class * cols + col],
                        ctx,
                        plan.now,
                    )
                } else {
                    let e = if in_place {
                        eff[h * cols + col]
                    } else {
                        old_eff[row_src[h] as usize * old_cols + col_src[col] as usize]
                    };
                    let rel = if use_rel {
                        factors::rel::p_rel(&plan.pms[h])
                    } else {
                        1.0
                    };
                    refresh(true, 0.0, rel, e)
                }
            };
        }

        // Pass 3 (in-place only): dirty columns of clean rows, evaluated
        // column-major ahead of the dense sweep. Recording the fresh
        // operand (and its `p`, which covers the feasible→infeasible flip
        // a stale in-place entry would otherwise survive) lets the dense
        // sweep below treat *every* column as clean — refreshing a
        // just-recorded operand reproduces the recording's own multiply
        // chain bit for bit, so the hot loop carries no dirty-column
        // branch at all.
        if in_place {
            for (col, _) in dirty_cols.iter().enumerate().filter(|(_, &d)| d) {
                let vm = &plan.vms[col];
                for row in 0..rows {
                    if dirty_rows[row] {
                        continue;
                    }
                    let class = class_table.class_of_row(row).expect("all rows eligible");
                    let entry = class_table
                        .entry(class)
                        .expect("eligible row has a class entry");
                    p[row * cols + col] = class_table::joint_with_class_recording(
                        &plan.pms[row],
                        vm,
                        hosts[col] as usize == row,
                        entry,
                        vir_cache[class * cols + col],
                        ctx,
                        plan.now,
                        &mut eff[row * cols + col],
                    );
                }
            }
        }

        // Pass 4: one row-ascending sweep that refreshes clean entries and
        // folds the per-column best search in — element-wise the
        // `refill_best` loop (same visit order, same strict-`>`
        // tie-break), fused so the matrix memory is touched once. Dirty
        // rows only contribute their already-evaluated entries.
        best.clear();
        best.resize(cols, None);
        // Running per-column maximum of the *numerator* `pv`. Within a
        // column the denominator `pc` is a constant, and dividing by a
        // positive constant is monotone (non-strictly) even under
        // rounding: `pv <= best_pv` implies `pv / pc <= best_pv / pc`,
        // so the strict `d > bd` test could never pass — the division
        // can be skipped without changing which entry wins or how ties
        // break. Entries that do beat the running maximum still decide
        // the update with the exact division, keeping the result
        // bit-identical to `refill_best`.
        let mut best_pv = vec![0.0f64; cols];
        let hosts_s = &hosts[..cols];
        let hp = &host_p[..cols];
        let mut eff_rows = eff.chunks_mut(cols);
        for (row, out) in p.chunks_mut(cols).enumerate() {
            let eff_out = eff_rows.next().expect("eff buffer sized with p");
            if dirty_rows[row] {
                for ((((&pv, best_slot), &host), &pc), bpv) in out
                    .iter()
                    .zip(best.iter_mut())
                    .zip(hosts_s)
                    .zip(hp)
                    .zip(best_pv.iter_mut())
                {
                    if host as usize == row || pv <= *bpv {
                        continue;
                    }
                    let d = if pc > 0.0 { pv / pc } else { f64::INFINITY };
                    if d > 0.0 && best_slot.map_or(true, |(_, bd)| d > bd) {
                        *best_slot = Some((row, d));
                        *bpv = pv;
                    }
                }
                continue;
            }
            let pm = &plan.pms[row];
            let class = class_table.class_of_row(row).expect("all rows eligible");
            let entry = class_table
                .entry(class)
                .expect("eligible row has a class entry");
            let virs = &vir_cache[class * cols..][..cols];
            let rel = if use_rel {
                factors::rel::p_rel(pm)
            } else {
                1.0
            };
            if in_place {
                // Clean row, operands already in place: an infeasible
                // entry skips everything — its `p` is exactly 0.0 from
                // the pass that recorded the sentinel.
                for (((((slot, &e), best_slot), &vir), (&host, &pc)), bpv) in out
                    .iter_mut()
                    .zip(eff_out.iter())
                    .zip(best.iter_mut())
                    .zip(virs)
                    .zip(hosts_s.iter().zip(hp))
                    .zip(best_pv.iter_mut())
                {
                    if e.is_nan() {
                        continue;
                    }
                    let hosted = host as usize == row;
                    let pv = refresh(hosted, vir, rel, e);
                    *slot = pv;
                    if hosted || pv <= *bpv {
                        continue;
                    }
                    let d = if pc > 0.0 { pv / pc } else { f64::INFINITY };
                    if d > 0.0 && best_slot.map_or(true, |(_, bd)| d > bd) {
                        *best_slot = Some((row, d));
                        *bpv = pv;
                    }
                }
            } else {
                let src_row = row_src[row] as usize;
                debug_assert!(src_row < old_rows);
                let old_row = &old_eff[src_row * old_cols..][..old_cols];
                for (col, ((slot, e_slot), best_slot)) in out
                    .iter_mut()
                    .zip(eff_out.iter_mut())
                    .zip(best.iter_mut())
                    .enumerate()
                {
                    let hosted = hosts_s[col] as usize == row;
                    let pv = if dirty_cols[col] {
                        class_table::joint_with_class_recording(
                            pm,
                            &plan.vms[col],
                            hosted,
                            entry,
                            virs[col],
                            ctx,
                            plan.now,
                            e_slot,
                        )
                    } else {
                        // Clean row × clean column: the PM's occupancy and
                        // reliability, the VM's demand and its host
                        // assignment are unchanged since the recorded pass
                        // (any change would have journaled the PM or VM),
                        // so feasibility and the eff operand still hold;
                        // only `vir` decays with time, and it is re-read
                        // from the fresh cache.
                        let e = old_row[col_src[col] as usize];
                        *e_slot = e;
                        refresh(hosted, virs[col], rel, e)
                    };
                    *slot = pv;
                    if hosted || pv <= best_pv[col] {
                        continue;
                    }
                    let pc = hp[col];
                    let d = if pc > 0.0 { pv / pc } else { f64::INFINITY };
                    if d > 0.0 && best_slot.map_or(true, |(_, bd)| d > bd) {
                        *best_slot = Some((row, d));
                        best_pv[col] = pv;
                    }
                }
            }
        }
        self.eff_complete = true;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DynamicConfig;
    use crate::policy::testutil::*;
    use crate::policy::PlacementView;
    use dvmp_cluster::pm::PmId;
    use dvmp_cluster::resources::ResourceVector;
    use dvmp_simcore::SimTime;
    use std::collections::BTreeMap;

    fn build_fixture() -> (PlanState, DynamicConfig) {
        let mut dc = small_fleet();
        let mut vms = BTreeMap::new();
        // Two VMs on pm0 (fast), one on pm2 (slow).
        install(
            &mut dc,
            &mut vms,
            spec(1, 512, 50_000),
            PmId(0),
            SimTime::ZERO,
        );
        install(
            &mut dc,
            &mut vms,
            spec(2, 512, 50_000),
            PmId(0),
            SimTime::ZERO,
        );
        install(
            &mut dc,
            &mut vms,
            spec(3, 512, 50_000),
            PmId(2),
            SimTime::ZERO,
        );
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let cfg = DynamicConfig::default();
        let plan = PlanState::from_view(&view, &cfg.min_vm);
        (plan, cfg)
    }

    fn assert_bit_identical(a: &ProbabilityMatrix, b: &ProbabilityMatrix) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for row in 0..a.rows() {
            for col in 0..a.cols() {
                assert_eq!(
                    a.get(row, col).to_bits(),
                    b.get(row, col).to_bits(),
                    "entry ({row},{col}): {} vs {}",
                    a.get(row, col),
                    b.get(row, col)
                );
            }
        }
    }

    #[test]
    fn dimensions_match_plan() {
        let (plan, cfg) = build_fixture();
        let m = ProbabilityMatrix::build(&plan, &EvalContext::new(&cfg));
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn host_entries_are_rel_times_eff() {
        let (plan, cfg) = build_fixture();
        let m = ProbabilityMatrix::build(&plan, &EvalContext::new(&cfg));
        for (col, vm) in plan.vms.iter().enumerate() {
            let p = m.get(vm.host, col);
            // p_res = p_vir = 1 on the host row, so p = rel · eff-level term.
            let pm = &plan.pms[vm.host];
            let expected = pm.reliability
                * crate::factors::eff::p_eff(
                    pm,
                    &vm.resources,
                    true,
                    plan.eff_of(vm.host),
                    &cfg.min_vm,
                );
            assert!((p - expected).abs() < 1e-12);
            assert!(p > 0.0);
        }
    }

    #[test]
    fn normalized_is_one_on_host_row() {
        let (plan, cfg) = build_fixture();
        let m = ProbabilityMatrix::build(&plan, &EvalContext::new(&cfg));
        for (col, vm) in plan.vms.iter().enumerate() {
            assert!((m.normalized(&plan, vm.host, col) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn consolidation_candidate_beats_host() {
        let (plan, cfg) = build_fixture();
        let m = ProbabilityMatrix::build(&plan, &EvalContext::new(&cfg));
        // VM 3 sits alone on slow pm2; moving it to fast pm0 (2 VMs, more
        // efficient class) must look like an improvement.
        let col = plan
            .vms
            .iter()
            .position(|v| plan.pms[v.host].id == PmId(2))
            .unwrap();
        let (best_row, d) = m.best_move_for(&plan, col).unwrap();
        assert_eq!(plan.pms[best_row].id, PmId(0));
        assert!(d > 1.0, "normalized improvement {d}");
    }

    #[test]
    fn recompute_row_tracks_plan_changes() {
        let (mut plan, cfg) = build_fixture();
        let mut m = ProbabilityMatrix::build(&plan, &EvalContext::new(&cfg));
        // Move VM 2 (col for host pm0) to pm1 and recompute affected rows.
        let col = 1;
        let to = plan.pms.iter().position(|p| p.id == PmId(1)).unwrap();
        let (from, to) = plan.apply_migration(col, to);
        m.recompute_row(&plan, &EvalContext::new(&cfg), from);
        m.recompute_row(&plan, &EvalContext::new(&cfg), to);
        m.recompute_col(&plan, &EvalContext::new(&cfg), col);
        // The freshly built matrix must agree entry-for-entry.
        let fresh = ProbabilityMatrix::build(&plan, &EvalContext::new(&cfg));
        for row in 0..m.rows() {
            for c in 0..m.cols() {
                assert!(
                    (m.get(row, c) - fresh.get(row, c)).abs() < 1e-12,
                    "stale entry at ({row},{c})"
                );
            }
        }
    }

    #[test]
    fn fast_kernel_is_bit_identical_to_reference() {
        let (mut plan, cfg) = build_fixture();
        let ctx = EvalContext::new(&cfg);
        let mut fast = ProbabilityMatrix::build(&plan, &ctx);
        let mut reference =
            ProbabilityMatrix::build_with_kernel(&plan, &ctx, MatrixKernel::Reference);
        assert_eq!(fast.kernel(), MatrixKernel::Fast);
        assert_eq!(reference.kernel(), MatrixKernel::Reference);
        assert_bit_identical(&fast, &reference);
        // And they stay identical through targeted recomputation after a
        // migration mutates the plan.
        let to = plan.pms.iter().position(|p| p.id == PmId(1)).unwrap();
        let (from, to) = plan.apply_migration(0, to);
        for m in [&mut fast, &mut reference] {
            m.recompute_row(&plan, &ctx, from);
            m.recompute_row(&plan, &ctx, to);
            m.recompute_col(&plan, &ctx, 0);
        }
        assert_bit_identical(&fast, &reference);
        // Normalized views agree bit-for-bit too (shared host_p cache).
        for col in 0..fast.cols() {
            assert_eq!(
                fast.best_move_for(&plan, col)
                    .map(|(r, d)| (r, d.to_bits())),
                reference
                    .best_move_for(&plan, col)
                    .map(|(r, d)| (r, d.to_bits()))
            );
        }
    }

    #[test]
    fn rebuild_reuses_buffers_and_matches_fresh_build() {
        let (mut plan, cfg) = build_fixture();
        let ctx = EvalContext::new(&cfg);
        let mut m = ProbabilityMatrix::build(&plan, &ctx);
        // Mutate the plan (a migration plus a VM removal → new dimensions)
        // and rebuild in place; it must match a from-scratch build bit-for-bit.
        let to = plan.pms.iter().position(|p| p.id == PmId(1)).unwrap();
        plan.apply_migration(0, to);
        plan.vms.pop();
        m.rebuild(&plan, &ctx);
        let fresh = ProbabilityMatrix::build(&plan, &ctx);
        assert_bit_identical(&m, &fresh);
        assert_eq!(m.cols(), 2);
    }

    #[test]
    fn full_pm_rows_are_zero_for_foreign_vms() {
        let mut dc = small_fleet();
        let mut vms = BTreeMap::new();
        // Fill pm1 with 8 one-core VMs.
        for i in 0..8 {
            install(
                &mut dc,
                &mut vms,
                spec(10 + i, 512, 50_000),
                PmId(1),
                SimTime::ZERO,
            );
        }
        install(
            &mut dc,
            &mut vms,
            spec(1, 512, 50_000),
            PmId(0),
            SimTime::ZERO,
        );
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let cfg = DynamicConfig::default();
        let plan = PlanState::from_view(&view, &cfg.min_vm);
        let m = ProbabilityMatrix::build(&plan, &EvalContext::new(&cfg));
        let row1 = plan.pms.iter().position(|p| p.id == PmId(1)).unwrap();
        let col = plan
            .vms
            .iter()
            .position(|v| v.id == dvmp_cluster::vm::VmId(1))
            .unwrap();
        assert_eq!(m.get(row1, col), 0.0, "full PM cannot accept VM 1");
    }

    #[test]
    fn zero_host_probability_normalizes_to_infinity() {
        let (mut plan, cfg) = build_fixture();
        // Force the host's reliability to zero-ish via direct plan surgery:
        // a dead-host entry must rank by +∞ so the VM escapes.
        let host = plan.vms[0].host;
        plan.pms[host].reliability = f64::MIN_POSITIVE;
        let mut m = ProbabilityMatrix::build(&plan, &EvalContext::new(&cfg));
        plan.pms[host].reliability = 0.0;
        // Rebuild the row with reliability 0 — host entry becomes 0.
        m.recompute_row(&plan, &EvalContext::new(&cfg), host);
        // ... but p_rel=0 zeroes the entire row including the host entry,
        // so the normalized value for a feasible other row is +∞.
        let (best, d) = m.best_move_for(&plan, 0).unwrap();
        assert_ne!(best, host);
        assert!(d.is_infinite());
    }

    #[test]
    fn best_move_none_when_everything_full() {
        // Single PM: no non-host row exists.
        let mut dc = dvmp_cluster::datacenter::FleetBuilder::new()
            .add_class(dvmp_cluster::pm::PmClass::paper_fast(), 1, 0.99)
            .initially_on(true)
            .build();
        let mut vms = BTreeMap::new();
        install(
            &mut dc,
            &mut vms,
            spec(1, 512, 50_000),
            PmId(0),
            SimTime::ZERO,
        );
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let cfg = DynamicConfig::default();
        let plan = PlanState::from_view(&view, &cfg.min_vm);
        let m = ProbabilityMatrix::build(&plan, &EvalContext::new(&cfg));
        assert!(m.best_move_for(&plan, 0).is_none());
    }

    #[test]
    fn refill_best_matches_per_column_scan() {
        let (plan, cfg) = build_fixture();
        let ctx = EvalContext::new(&cfg);
        let mut m = ProbabilityMatrix::build(&plan, &ctx);
        let mut bulk = Vec::new();
        m.refill_best(&plan, &mut bulk);
        assert_eq!(bulk.len(), m.cols());
        for (col, b) in bulk.iter().enumerate() {
            assert_eq!(
                b.map(|(r, d)| (r, d.to_bits())),
                m.best_move_for(&plan, col).map(|(r, d)| (r, d.to_bits())),
                "column {col}"
            );
        }
    }

    #[test]
    fn incremental_update_is_bit_identical_to_rebuild() {
        let (mut plan, cfg) = build_fixture();
        let ctx = EvalContext::new(&cfg);
        let mut m = ProbabilityMatrix::build(&plan, &ctx);
        assert!(m.eff_cache_complete());
        // Pass 2: every VM's remaining time decayed (handled wholesale by
        // the vir-cache rebuild) and one VM migrated — its column plus the
        // two endpoint rows are the dirty set.
        for vm in &mut plan.vms {
            vm.remaining_secs -= 1_000;
        }
        let to = plan.pms.iter().position(|p| p.id == PmId(1)).unwrap();
        let (from, to) = plan.apply_migration(0, to);
        let (rows, cols) = (plan.pms.len(), plan.vms.len());
        let dirty_rows: Vec<bool> = (0..rows).map(|r| r == from || r == to).collect();
        let row_src: Vec<u32> = (0..rows as u32).collect();
        let dirty_cols: Vec<bool> = (0..cols).map(|c| c == 0).collect();
        let col_src: Vec<u32> = (0..cols as u32).collect();
        let mut best = Vec::new();
        assert!(m.update_incremental(
            &plan,
            &ctx,
            &dirty_rows,
            &row_src,
            &dirty_cols,
            &col_src,
            &mut best
        ));
        assert!(m.eff_cache_complete());
        let mut fresh = ProbabilityMatrix::build(&plan, &ctx);
        assert_bit_identical(&m, &fresh);
        // The fused best cache matches a refill_best over the fresh build.
        let mut fresh_best = Vec::new();
        fresh.refill_best(&plan, &mut fresh_best);
        let bits = |v: &[Option<(usize, f64)>]| -> Vec<Option<(usize, u64)>> {
            v.iter().map(|b| b.map(|(r, d)| (r, d.to_bits()))).collect()
        };
        assert_eq!(bits(&best), bits(&fresh_best));
        // The refreshed host-probability cache agrees too (normalized
        // views divide by it).
        for col in 0..cols {
            for row in 0..rows {
                assert_eq!(
                    m.normalized(&plan, row, col).to_bits(),
                    fresh.normalized(&plan, row, col).to_bits()
                );
            }
        }
    }

    #[test]
    fn incremental_update_survives_column_departure() {
        let (mut plan, cfg) = build_fixture();
        let ctx = EvalContext::new(&cfg);
        let mut m = ProbabilityMatrix::build(&plan, &ctx);
        // The last VM departs. (Synthetic: the host footprint is left
        // untouched, so every surviving row and column is genuinely clean
        // — a real departure journals the host PM and dirties its row.)
        plan.vms.pop();
        let (rows, cols) = (plan.pms.len(), plan.vms.len());
        let dirty_rows = vec![false; rows];
        let row_src: Vec<u32> = (0..rows as u32).collect();
        let dirty_cols = vec![false; cols];
        let col_src: Vec<u32> = (0..cols as u32).collect();
        let mut best = Vec::new();
        assert!(m.update_incremental(
            &plan,
            &ctx,
            &dirty_rows,
            &row_src,
            &dirty_cols,
            &col_src,
            &mut best
        ));
        let mut fresh = ProbabilityMatrix::build(&plan, &ctx);
        assert_bit_identical(&m, &fresh);
        assert_eq!(m.cols(), 2);
        let mut fresh_best = Vec::new();
        fresh.refill_best(&plan, &mut fresh_best);
        assert_eq!(
            best.iter()
                .map(|b| b.map(|(r, d)| (r, d.to_bits())))
                .collect::<Vec<_>>(),
            fresh_best
                .iter()
                .map(|b| b.map(|(r, d)| (r, d.to_bits())))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn incremental_update_refuses_reference_kernel() {
        let (plan, cfg) = build_fixture();
        let ctx = EvalContext::new(&cfg);
        let mut reference =
            ProbabilityMatrix::build_with_kernel(&plan, &ctx, MatrixKernel::Reference);
        assert!(!reference.eff_cache_complete());
        let (rows, cols) = (plan.pms.len(), plan.vms.len());
        let dr = vec![false; rows];
        let rs: Vec<u32> = (0..rows as u32).collect();
        let dc = vec![false; cols];
        let cs: Vec<u32> = (0..cols as u32).collect();
        let mut best = Vec::new();
        assert!(!reference.update_incremental(&plan, &ctx, &dr, &rs, &dc, &cs, &mut best));
    }

    #[test]
    fn paper_worked_example_structure() {
        // Mirror of the paper's Section III-C example: 5 VMs on 3 PMs where
        // normalization exposes exactly one best move > 1. We reproduce the
        // *structure* (argmax selection over a column-normalized matrix),
        // not the paper's unexplained numeric values.
        let (plan, cfg) = build_fixture();
        let m = ProbabilityMatrix::build(&plan, &EvalContext::new(&cfg));
        let mut best_global: Option<(usize, usize, f64)> = None;
        for col in 0..m.cols() {
            if let Some((row, d)) = m.best_move_for(&plan, col) {
                if best_global.map_or(true, |(_, _, bd)| d > bd) {
                    best_global = Some((row, col, d));
                }
            }
        }
        let (row, col, d) = best_global.expect("a best move exists");
        // The winner is the lone slow-PM VM consolidating onto the fast PM.
        assert_eq!(plan.pms[row].id, PmId(0));
        assert_eq!(plan.vms[col].id, dvmp_cluster::vm::VmId(3));
        assert!(d > 1.0);
        let _ = ResourceVector::cpu_mem(1, 1); // keep import used
    }
}
