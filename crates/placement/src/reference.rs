//! The dense reference planner: Algorithm 1 over the full M×N matrix of
//! Eq. 1, rebuilt from the view on every pass.
//!
//! [`DenseReference`] is the definition the production planner
//! ([`DynamicPlacement`](crate::DynamicPlacement), class-compressed and
//! journal-driven) is held bit-identical to: the goldens,
//! `kernel_identity` and the differential tests run both and diff their
//! decisions. It keeps no state between passes, ignores the fleet-delta
//! journal, fills every entry through [`factors::joint`] and costs
//! O(M·N) per pass — a test and benchmark reference, not a scheme to run
//! at scale.

use crate::config::DynamicConfig;
use crate::factors::{self, EvalContext, KeyedFactor};
use crate::matrix::ProbabilityMatrix;
use crate::plan::PlanState;
use crate::policy::{Migration, PlacementPolicy, PlacementView};
use dvmp_cluster::datacenter::Datacenter;
use dvmp_cluster::pm::PmId;
use dvmp_cluster::vm::VmSpec;
use std::sync::Arc;

/// The dense reference of the dynamic placement scheme. See the module
/// docs.
#[derive(Debug, Clone)]
pub struct DenseReference {
    cfg: DynamicConfig,
    /// Extension factors, applied after the built-in four.
    extras: Vec<Arc<dyn KeyedFactor>>,
    /// Migrations proposed so far.
    total_migrations: u64,
}

impl DenseReference {
    /// Creates the reference with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`DynamicConfig::validate`]).
    pub fn new(cfg: DynamicConfig) -> Self {
        cfg.validate().expect("invalid DynamicConfig");
        DenseReference {
            cfg,
            extras: Vec::new(),
            total_migrations: 0,
        }
    }

    /// Registers an extension factor, exactly like
    /// [`DynamicPlacement::with_factor`](crate::DynamicPlacement::with_factor).
    pub fn with_factor(mut self, factor: Arc<dyn KeyedFactor>) -> Self {
        self.extras.push(factor);
        self
    }

    /// Total migrations proposed so far.
    pub fn total_migrations(&self) -> u64 {
        self.total_migrations
    }

    /// Algorithm 1 against an explicit plan state, straight from its
    /// definition: build the matrix, then each round move the largest
    /// normalized entry above `MIG_threshold` — the argmax of
    /// [`best_move_for`](ProbabilityMatrix::best_move_for) over every
    /// column, ties to the lowest column — and refresh the two touched
    /// rows and the moved column. No per-column cache carries a best from
    /// one round to the next.
    pub fn plan_on(&mut self, plan: &mut PlanState) -> Vec<Migration> {
        if plan.vms.is_empty() || plan.pms.len() < 2 {
            return Vec::new();
        }
        let cfg = &self.cfg;
        let ctx = EvalContext::with_extras(cfg, &self.extras);
        let mut matrix = ProbabilityMatrix::build(plan, &ctx);
        dvmp_obs::note_plan_kernel_fresh(plan.pms.len() as u64, plan.vms.len() as u64);

        let mut moves = Vec::new();
        for _round in 0..cfg.mig_round {
            let mut winner: Option<(usize, usize, f64)> = None;
            for col in 0..plan.vms.len() {
                if let Some((row, d)) = matrix.best_move_for(plan, col) {
                    if d > cfg.mig_threshold && winner.map_or(true, |(_, _, wd)| d > wd) {
                        winner = Some((col, row, d));
                    }
                }
            }
            let Some((col, to_row, _d)) = winner else {
                break;
            };

            let vm_id = plan.vms[col].id;
            let (from_row, to_row) = plan.apply_migration(col, to_row);
            moves.push(Migration {
                vm: vm_id,
                from: plan.pms[from_row].id,
                to: plan.pms[to_row].id,
            });
            matrix.recompute_row(plan, &ctx, from_row);
            matrix.recompute_row(plan, &ctx, to_row);
            matrix.recompute_col(plan, &ctx, col);
        }
        self.total_migrations += moves.len() as u64;
        moves
    }
}

impl PlacementPolicy for DenseReference {
    /// The scheme's name: a reference run's report must equal the
    /// production scheme's byte for byte.
    fn name(&self) -> &'static str {
        "dynamic"
    }

    /// New-arrival placement (Section III-C): the new VM's column and its
    /// argmax, with the overhead-free fallback column when virtualization
    /// overheads zero it while capacity exists (DESIGN.md I9).
    fn place(&mut self, view: &PlacementView<'_>, vm: &VmSpec) -> Option<PmId> {
        let plan = PlanState::from_view(view, &self.cfg);
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
        let chosen = column(&ctx).or_else(|| column(&ctx.without_vir()));
        chosen.map(|(row, _)| plan.pms[row].id)
    }

    fn plan_migrations(&mut self, view: &PlacementView<'_>) -> Vec<Migration> {
        let mut plan = PlanState::from_view(view, &self.cfg);
        self.plan_on(&mut plan)
    }

    fn is_dynamic(&self) -> bool {
        true
    }

    fn check_inputs(&self, fleet: &Datacenter, requests: &[VmSpec]) -> Result<(), String> {
        self.cfg.check_inputs(fleet, requests)
    }
}
