//! The M×N VM/PM mapping probability matrix (Eq. 1) and its column
//! normalization — the dense definition that
//! [`DenseReference`](crate::reference::DenseReference) plans over and
//! the production planner is held bit-identical to.
//!
//! Rows are the available PMs, columns the migratable VMs; entry
//! `p[row][col]` is the joint probability of Section III-B, evaluated
//! entry by entry through [`factors::joint`]. Algorithm 1 only ever
//! changes two PM rows and one VM column per migration round, so the
//! matrix supports targeted recomputation ([`recompute_row`] /
//! [`recompute_col`]) instead of full rebuilds — exactly the optimization
//! the paper describes ("we only need to update the corresponding PM rows
//! in the last migration process").
//!
//! [`recompute_row`]: ProbabilityMatrix::recompute_row
//! [`recompute_col`]: ProbabilityMatrix::recompute_col

use crate::factors::{self, EvalContext};
use crate::plan::PlanState;

/// Row-major M×N matrix of joint probabilities.
#[derive(Debug, Clone, Default)]
pub struct ProbabilityMatrix {
    rows: usize,
    cols: usize,
    p: Vec<f64>,
}

impl ProbabilityMatrix {
    /// Builds the full matrix from a planning state.
    pub fn build(plan: &PlanState, ctx: &EvalContext<'_>) -> Self {
        let mut m = ProbabilityMatrix {
            rows: plan.pms.len(),
            cols: plan.vms.len(),
            p: vec![0.0; plan.pms.len() * plan.vms.len()],
        };
        for row in 0..m.rows {
            m.recompute_row(plan, ctx, row);
        }
        m
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

    /// Recomputes every entry of PM row `row` against the current plan.
    pub fn recompute_row(&mut self, plan: &PlanState, ctx: &EvalContext<'_>, row: usize) {
        let pm = &plan.pms[row];
        let eff_j = plan.eff_of(row);
        let out = &mut self.p[row * self.cols..(row + 1) * self.cols];
        for (slot, vm) in out.iter_mut().zip(&plan.vms) {
            *slot = factors::joint(pm, vm, vm.host == row, eff_j, ctx, plan.now);
        }
    }

    /// Recomputes every entry of VM column `col` against the current plan
    /// (a planned migration deducts its overhead from the VM's remaining
    /// time, which changes Eq. 3's inputs for that column).
    pub fn recompute_col(&mut self, plan: &PlanState, ctx: &EvalContext<'_>, col: usize) {
        let vm = &plan.vms[col];
        for (row, pm) in plan.pms.iter().enumerate() {
            self.p[row * self.cols + col] =
                factors::joint(pm, vm, vm.host == row, plan.eff_of(row), ctx, plan.now);
        }
    }

    /// The normalized entry `d_ij = p_ij / p_(current host)` for column
    /// `col` at row `row` (Algorithm 1's matrix D). When the current-host
    /// probability is zero (degenerate fleet states), a positive `p_ij`
    /// normalizes to `+∞` so the VM escapes the dead host first
    /// (DESIGN.md I6).
    pub fn normalized(&self, plan: &PlanState, row: usize, col: usize) -> f64 {
        let p_cur = self.get(plan.vms[col].host, col);
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
    pub fn best_move_for(&self, plan: &PlanState, col: usize) -> Option<(usize, f64)> {
        let host_row = plan.vms[col].host;
        let mut best: Option<(usize, f64)> = None;
        for row in 0..self.rows {
            if row == host_row {
                continue;
            }
            let d = self.normalized(plan, row, col);
            if d > 0.0 && best.map_or(true, |(_, bd)| d > bd) {
                best = Some((row, d));
            }
        }
        best
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
        let plan = PlanState::from_view(&view, &cfg);
        (plan, cfg)
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

    /// Every entry of `m` equals `factors::joint` evaluated on its own.
    fn assert_matches_joint(m: &ProbabilityMatrix, plan: &PlanState, ctx: &EvalContext<'_>) {
        for (row, pm) in plan.pms.iter().enumerate() {
            for (col, vm) in plan.vms.iter().enumerate() {
                let joint = factors::joint(pm, vm, vm.host == row, plan.eff_of(row), ctx, plan.now);
                assert_eq!(
                    m.get(row, col).to_bits(),
                    joint.to_bits(),
                    "entry ({row},{col}): {} vs {joint}",
                    m.get(row, col)
                );
            }
        }
    }

    #[test]
    fn fast_kernel_is_bit_identical_to_reference() {
        // The matrix against `joint` evaluated entry by entry, fresh and
        // through the targeted recomputation after a migration.
        let (mut plan, cfg) = build_fixture();
        let ctx = EvalContext::new(&cfg);
        let mut fast = ProbabilityMatrix::build(&plan, &ctx);
        assert_matches_joint(&fast, &plan, &ctx);
        let to = plan.pms.iter().position(|p| p.id == PmId(1)).unwrap();
        let (from, to) = plan.apply_migration(0, to);
        fast.recompute_row(&plan, &ctx, from);
        fast.recompute_row(&plan, &ctx, to);
        fast.recompute_col(&plan, &ctx, 0);
        assert_matches_joint(&fast, &plan, &ctx);
        // A row that diverges from its class constants.
        plan.pms[2].capacity = ResourceVector::cpu_mem(6, 6_144);
        assert_matches_joint(&ProbabilityMatrix::build(&plan, &ctx), &plan, &ctx);
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
        let plan = PlanState::from_view(&view, &cfg);
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
        let plan = PlanState::from_view(&view, &cfg);
        let m = ProbabilityMatrix::build(&plan, &EvalContext::new(&cfg));
        assert!(m.best_move_for(&plan, 0).is_none());
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
