//! The four constituent probabilities of the joint mapping probability
//! `p_ij = p^res · p^vir · p^rel · p^eff` (Section III-B) — plus the
//! extension point the paper advertises: *"Since the `p_ij` is a joint
//! probability, it is easy to be extended to accommodate other constraints
//! in the light of users demand."*
//!
//! Each built-in factor is a pure function of the planning state so it can
//! be unit-tested against the paper's equations in isolation; [`joint`]
//! composes them (under the ablation switches in [`DynamicConfig`]) with
//! any number of user-supplied [`KeyedFactor`]s — e.g. the electricity-
//! price factor in the `dvmp-geo` crate.

pub mod class_table;
pub mod eff;
pub mod rel;
pub mod res;
pub mod vir;

use crate::config::DynamicConfig;
use crate::plan::{PlanPm, PlanVm};
use dvmp_cluster::pm::PmId;
use dvmp_cluster::resources::ResourceVector;
use dvmp_simcore::SimTime;
use std::sync::Arc;

/// A user-supplied multiplicative factor extending the joint probability,
/// keyed on one per-PM value (a region, a rack, a tariff zone).
///
/// The factor of a mapping depends only on the key of the VM's current
/// host (`from`; `None` for a new request), the key of the candidate PM
/// (`to`) and the planning instant — so a planning pass evaluates it once
/// per key pair into a `(K+1)×K` table, and PMs that share a key stay
/// interchangeable for the compressed planner.
///
/// Values are clamped to `[0, 1]` (1 = no objection to this mapping,
/// 0 = veto). The current-host entry of a column is evaluated too, as
/// `factor(Some(k), k, now)`.
pub trait KeyedFactor: Send + Sync + std::fmt::Debug {
    /// Short name for reports and debugging.
    fn name(&self) -> &str;

    /// Number of distinct keys; [`key`](Self::key) returns values below it.
    fn key_count(&self) -> u16;

    /// The key of PM `pm`.
    fn key(&self, pm: PmId) -> u16;

    /// The factor for hosting a VM on a PM keyed `to` at `now`, when the
    /// VM currently runs on a PM keyed `from` (`None` for a new request).
    fn factor(&self, from: Option<u16>, to: u16, now: SimTime) -> f64;
}

/// Everything needed to evaluate one matrix entry: the configuration plus
/// the registered extension factors.
#[derive(Clone)]
pub struct EvalContext<'a> {
    /// The scheme's tunables and ablation switches.
    pub cfg: &'a DynamicConfig,
    /// Extension factors, applied after the built-in four.
    pub extras: &'a [Arc<dyn KeyedFactor>],
    /// Per-evaluation override forcing `p^vir` off regardless of
    /// `cfg.use_vir`. New-request placement sets this (DESIGN.md I9's
    /// feasibility fallback) instead of cloning the whole config just to
    /// flip one flag.
    vir_disabled: bool,
}

impl<'a> EvalContext<'a> {
    /// A context with no extension factors.
    pub fn new(cfg: &'a DynamicConfig) -> Self {
        EvalContext {
            cfg,
            extras: &[],
            vir_disabled: false,
        }
    }

    /// A context with extension factors.
    pub fn with_extras(cfg: &'a DynamicConfig, extras: &'a [Arc<dyn KeyedFactor>]) -> Self {
        EvalContext {
            cfg,
            extras,
            vir_disabled: false,
        }
    }

    /// The same context with `p^vir` forced off.
    pub fn without_vir(&self) -> Self {
        EvalContext {
            vir_disabled: true,
            ..self.clone()
        }
    }

    /// Whether `p^vir` participates in the joint product.
    #[inline]
    pub fn vir_enabled(&self) -> bool {
        self.cfg.use_vir && !self.vir_disabled
    }
}

/// Multiplies the extension factors into `p`, one at a time in
/// registration order, each clamped to `[0, 1]`, stopping once `p` is 0.
/// `from` is the VM's current host (`None` for a new request).
fn apply_extras(
    mut p: f64,
    extras: &[Arc<dyn KeyedFactor>],
    from: Option<PmId>,
    to: PmId,
    now: SimTime,
) -> f64 {
    for extra in extras {
        if p == 0.0 {
            break;
        }
        let from = from.map(|pm| extra.key(pm));
        p *= extra.factor(from, extra.key(to), now).clamp(0.0, 1.0);
    }
    p
}

/// The joint probability of hosting `vm` on `pm` (`hosted` = the VM's
/// current-host row equals this row; `eff_j` = the PM's relative power
/// efficiency; `now` = the planning instant for time-varying extras).
pub fn joint(
    pm: &PlanPm,
    vm: &PlanVm,
    hosted: bool,
    eff_j: f64,
    ctx: &EvalContext<'_>,
    now: SimTime,
) -> f64 {
    let cfg = ctx.cfg;
    let mut p = res::p_res(pm, &vm.resources, hosted);
    if p == 0.0 {
        return 0.0;
    }
    if ctx.vir_enabled() {
        p *= vir::p_vir(
            vm.remaining_secs,
            pm.creation_secs,
            pm.migration_secs,
            hosted,
            true,
            cfg.overhead_mode,
        );
    }
    if cfg.use_rel {
        p *= rel::p_rel(pm);
    }
    if cfg.use_eff {
        p *= eff::p_eff(pm, &vm.resources, hosted, eff_j, &cfg.min_vm);
    }
    apply_extras(p, ctx.extras, Some(vm.host_pm), pm.id, now)
}

/// The joint probability of placing a *new* request (no current host
/// anywhere) on `pm` — the "new VM column" of Section III-C.
pub fn joint_new(
    pm: &PlanPm,
    resources: &ResourceVector,
    estimated_secs: u64,
    eff_j: f64,
    ctx: &EvalContext<'_>,
    now: SimTime,
) -> f64 {
    let cfg = ctx.cfg;
    let mut p = res::p_res(pm, resources, false);
    if p == 0.0 {
        return 0.0;
    }
    if ctx.vir_enabled() {
        p *= vir::p_vir(
            estimated_secs,
            pm.creation_secs,
            pm.migration_secs,
            false,
            false,
            cfg.overhead_mode,
        );
    }
    if cfg.use_rel {
        p *= rel::p_rel(pm);
    }
    if cfg.use_eff {
        p *= eff::p_eff(pm, resources, false, eff_j, &cfg.min_vm);
    }
    apply_extras(p, ctx.extras, None, pm.id, now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OverheadMode;
    use dvmp_cluster::vm::VmId;

    pub(crate) fn fast_plan_pm(used_cores: u64, used_mem: u64) -> PlanPm {
        PlanPm {
            id: PmId(0),
            class_idx: 0,
            capacity: ResourceVector::cpu_mem(8, 8_192),
            used: ResourceVector::cpu_mem(used_cores, used_mem),
            reliability: 0.99,
            creation_secs: 30,
            migration_secs: 40,
        }
    }

    fn vm(remaining: u64) -> PlanVm {
        PlanVm {
            id: VmId(1),
            resources: ResourceVector::cpu_mem(1, 512),
            remaining_secs: remaining,
            host: 0,
            host_pm: PmId(0),
        }
    }

    #[test]
    fn joint_is_product_of_factors() {
        let pm = fast_plan_pm(2, 1_024);
        let v = vm(10_000);
        let cfg = DynamicConfig::default();
        let ctx = EvalContext::new(&cfg);
        let p = joint(&pm, &v, false, 1.0, &ctx, SimTime::ZERO);
        let expected = res::p_res(&pm, &v.resources, false)
            * vir::p_vir(10_000, 30, 40, false, true, OverheadMode::PaperJoint)
            * rel::p_rel(&pm)
            * eff::p_eff(&pm, &v.resources, false, 1.0, &cfg.min_vm);
        assert!((p - expected).abs() < 1e-15);
        assert!(p > 0.0 && p <= 1.0);
    }

    #[test]
    fn infeasible_short_circuits_to_zero() {
        let pm = fast_plan_pm(8, 8_192); // full
        let v = vm(10_000);
        let cfg = DynamicConfig::default();
        assert_eq!(
            joint(&pm, &v, false, 1.0, &EvalContext::new(&cfg), SimTime::ZERO),
            0.0
        );
    }

    #[test]
    fn ablation_switches_remove_factors() {
        let pm = fast_plan_pm(2, 1_024);
        let v = vm(10_000);
        let mut cfg = DynamicConfig::default();
        cfg.use_vir = false;
        cfg.use_rel = false;
        cfg.use_eff = false;
        // Only p_res remains: feasible → exactly 1.
        assert_eq!(
            joint(&pm, &v, false, 0.5, &EvalContext::new(&cfg), SimTime::ZERO),
            1.0
        );
    }

    #[test]
    fn hosted_vm_has_probability_rel_times_eff() {
        let pm = fast_plan_pm(1, 512); // exactly the VM's own reservation
        let v = vm(100); // tiny remaining time — irrelevant when hosted
        let cfg = DynamicConfig::default();
        let p = joint(&pm, &v, true, 1.0, &EvalContext::new(&cfg), SimTime::ZERO);
        let expected = 0.99 * eff::p_eff(&pm, &v.resources, true, 1.0, &cfg.min_vm);
        assert!((p - expected).abs() < 1e-15, "{p} vs {expected}");
    }

    #[test]
    fn joint_new_uses_estimate() {
        let pm = fast_plan_pm(0, 0);
        let cfg = DynamicConfig::default();
        let ctx = EvalContext::new(&cfg);
        let r = ResourceVector::cpu_mem(1, 512);
        let long = joint_new(&pm, &r, 100_000, 1.0, &ctx, SimTime::ZERO);
        let mid = joint_new(&pm, &r, 100, 1.0, &ctx, SimTime::ZERO);
        let short = joint_new(&pm, &r, 50, 1.0, &ctx, SimTime::ZERO);
        assert!(
            long > mid,
            "longer estimates suffer relatively less overhead"
        );
        assert!(mid > 0.0);
        assert_eq!(
            short, 0.0,
            "an estimate below the joint overheads zeroes the column; \
             DynamicPlacement::place falls back to feasibility (DESIGN.md I9)"
        );
    }

    /// A toy time-varying keyed factor: halves the probability on odd
    /// simulated hours, whatever the keys.
    #[derive(Debug)]
    struct OddHourTax;

    impl KeyedFactor for OddHourTax {
        fn name(&self) -> &str {
            "odd-hour-tax"
        }
        fn key_count(&self) -> u16 {
            1
        }
        fn key(&self, _: PmId) -> u16 {
            0
        }
        fn factor(&self, _: Option<u16>, _: u16, now: SimTime) -> f64 {
            if now.hour_index() % 2 == 1 {
                0.5
            } else {
                1.0
            }
        }
    }

    #[test]
    fn extra_factors_multiply_in() {
        let pm = fast_plan_pm(2, 1_024);
        let v = vm(10_000);
        let cfg = DynamicConfig::default();
        let extras: Vec<Arc<dyn KeyedFactor>> = vec![Arc::new(OddHourTax)];
        let ctx = EvalContext::with_extras(&cfg, &extras);
        let even = joint(&pm, &v, false, 1.0, &ctx, SimTime::from_hours(2));
        let odd = joint(&pm, &v, false, 1.0, &ctx, SimTime::from_hours(3));
        assert!((odd - even * 0.5).abs() < 1e-15);
        // The base context is unaffected.
        let base = joint(
            &pm,
            &v,
            false,
            1.0,
            &EvalContext::new(&cfg),
            SimTime::from_hours(3),
        );
        assert!((base - even).abs() < 1e-15);
    }

    /// Keyed on the PM id itself: vetoes every mapping onto PM 0 and
    /// returns an out-of-range value elsewhere, which is clamped.
    #[derive(Debug)]
    struct Veto;

    impl KeyedFactor for Veto {
        fn name(&self) -> &str {
            "veto"
        }
        fn key_count(&self) -> u16 {
            2
        }
        fn key(&self, pm: PmId) -> u16 {
            u16::from(pm != PmId(0))
        }
        fn factor(&self, _: Option<u16>, to: u16, _: SimTime) -> f64 {
            if to == 0 {
                0.0
            } else {
                7.5 // clamped to 1
            }
        }
    }

    #[test]
    fn extras_can_veto_and_are_clamped() {
        let cfg = DynamicConfig::default();
        let extras: Vec<Arc<dyn KeyedFactor>> = vec![Arc::new(Veto)];
        let ctx = EvalContext::with_extras(&cfg, &extras);
        let pm0 = fast_plan_pm(2, 1_024);
        let mut pm1 = fast_plan_pm(2, 1_024);
        pm1.id = PmId(1);
        let v = vm(10_000);
        assert_eq!(joint(&pm0, &v, false, 1.0, &ctx, SimTime::ZERO), 0.0);
        let with = joint(&pm1, &v, false, 1.0, &ctx, SimTime::ZERO);
        let without = joint(&pm1, &v, false, 1.0, &EvalContext::new(&cfg), SimTime::ZERO);
        assert!((with - without).abs() < 1e-15, "7.5 clamps to 1.0");
        // A new request sees the same keyed veto.
        let r = ResourceVector::cpu_mem(1, 512);
        assert_eq!(joint_new(&pm0, &r, 10_000, 1.0, &ctx, SimTime::ZERO), 0.0);
        assert!(joint_new(&pm1, &r, 10_000, 1.0, &ctx, SimTime::ZERO) > 0.0);
    }
}
