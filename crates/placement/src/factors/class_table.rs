//! Per-class constants of the factors, the unit the compressed planner's
//! superclasses are built on.
//!
//! Every factor input that is constant across a PM *class* is hoisted out
//! of the per-entry evaluation: `p^vir`'s overhead charge depends only on
//! (VM remaining time, destination class), and `p^eff`'s slot count `W_j`,
//! minimum utilization `U_j^MIN` and Eq. 4 level boundaries depend only on
//! (class capacity, `R^MIN`). A [`ClassEntry`] holds them, plus the Eq. 5
//! value of every level, so a score is a level lookup and the per-PM
//! residual work (the feasibility test, the prospective utilization
//! product) — with no `powf` anywhere.
//!
//! Bit-identity with the per-entry definition is a hard requirement
//! (DESIGN.md §7): [`class_vir`] delegates to [`vir::p_vir`], the level
//! boundaries reuse [`eff::level_boundary`], and [`class_eff`] computes
//! the same utilization product in the same order as [`eff::p_eff`]; the
//! tests below assert `to_bits` equality.

use super::eff;
use super::vir;
use crate::config::OverheadMode;
use crate::plan::PlanPm;
use dvmp_cluster::resources::ResourceVector;

/// Constants shared by every PM of one class.
#[derive(Debug, Clone)]
pub struct ClassEntry {
    /// Relative power efficiency `eff_c` (from [`eff_table`](crate::plan::eff_table)).
    pub eff: f64,
    /// `T^cre` of the class, seconds.
    pub creation_secs: u64,
    /// `T^mig` of the class, seconds.
    pub migration_secs: u64,
    /// The class capacity vector.
    pub capacity: ResourceVector,
    /// `W_j` — capacity in minimum VMs.
    pub w_max: u64,
    /// `U_j^MIN` — joint utilization of one minimum VM.
    pub u_min: f64,
    /// Eq. 4 level boundaries for levels `2..=w_max`, as `u/U_min` ratios.
    pub boundaries: Vec<f64>,
    /// `level_eff[w]` = `(w / w_max) · eff` for `w` in `0..=w_max` — the
    /// Eq. 4 output per level, precomputed so the inner loop finishes
    /// with one table load instead of a divide and multiply.
    pub level_eff: Vec<f64>,
    /// `(dim, capacity as f64)` for every dimension with non-zero
    /// capacity — the exact operand sequence
    /// [`ResourceVector::joint_utilization`] walks, with the zero-capacity
    /// filter and the `u64 → f64` casts hoisted out of the inner loop.
    pub cap_dims: Vec<(usize, f64)>,
}

impl ClassEntry {
    pub(crate) fn from_pm(pm: &PlanPm, eff_c: f64, min_vm: &ResourceVector) -> Self {
        let w_max = eff::slots(pm, min_vm);
        let u_min = min_vm.joint_utilization(&pm.capacity);
        let level_eff = if w_max == 0 {
            Vec::new()
        } else {
            (0..=w_max)
                .map(|w| (w as f64 / w_max as f64) * eff_c)
                .collect()
        };
        let cap_dims = (0..pm.capacity.k())
            .filter(|&i| pm.capacity.get(i) > 0)
            .map(|i| (i, pm.capacity.get(i) as f64))
            .collect();
        ClassEntry {
            eff: eff_c,
            creation_secs: pm.creation_secs,
            migration_secs: pm.migration_secs,
            capacity: pm.capacity,
            w_max,
            u_min,
            boundaries: eff::level_boundaries(w_max, pm.capacity.k()),
            level_eff,
            cap_dims,
        }
    }
}

/// `p^vir` for a cross-machine move to a PM of this class — Eq. 3 with the
/// class's overheads. Delegates to [`vir::p_vir`] so the value is
/// bit-identical to the reference path.
#[inline]
pub fn class_vir(entry: &ClassEntry, remaining_secs: u64, mode: OverheadMode) -> f64 {
    vir::p_vir(
        remaining_secs,
        entry.creation_secs,
        entry.migration_secs,
        false,
        true,
        mode,
    )
}

/// `p^eff` using the class's precomputed slot count and level boundaries —
/// the same arithmetic as [`eff::p_eff`] minus the per-entry `slots`,
/// `U_min` and `powf` work.
#[inline]
pub fn class_eff(pm: &PlanPm, demand: &ResourceVector, hosted: bool, entry: &ClassEntry) -> f64 {
    let prospective = if hosted { pm.used } else { pm.used.add(demand) };
    class_eff_prospective(&prospective, entry)
}

/// [`class_eff`] with the prospective occupancy already computed —
/// [`joint_with_class`] shares one vector add between the feasibility test
/// and the efficiency factor.
#[inline]
pub(crate) fn class_eff_prospective(prospective: &ResourceVector, entry: &ClassEntry) -> f64 {
    if entry.w_max == 0 || entry.eff <= 0.0 {
        return 0.0;
    }
    entry.level_eff[class_level(prospective, entry) as usize]
}

/// The Eq. 4 utilization level a prospective occupancy lands in, using the
/// class's cached boundaries. Callers must have checked `w_max > 0`.
#[inline]
pub(crate) fn class_level(prospective: &ResourceVector, entry: &ClassEntry) -> u64 {
    // `joint_utilization` against the class capacity, with the casts and
    // zero-capacity filter precomputed in `cap_dims` (same operands in the
    // same multiplication order, so the product is bit-identical).
    let mut u = 1.0;
    for &(dim, cap) in &entry.cap_dims {
        u *= prospective.get(dim) as f64 / cap;
    }
    if entry.u_min <= 0.0 {
        entry.w_max
    } else {
        let ratio = (u / entry.u_min).max(0.0);
        eff::level_from_boundaries(ratio, &entry.boundaries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DynamicConfig;
    use dvmp_cluster::pm::PmId;

    fn pm(cores: u64, mem: u64, cre: u64, mig: u64) -> PlanPm {
        PlanPm {
            id: PmId(0),
            class_idx: 0,
            capacity: ResourceVector::cpu_mem(cores, mem),
            used: ResourceVector::zero(2),
            reliability: 0.99,
            creation_secs: cre,
            migration_secs: mig,
        }
    }

    #[test]
    fn table_caches_per_class_constants() {
        let min_vm = ResourceVector::cpu_mem(1, 512);
        let fast = ClassEntry::from_pm(&pm(8, 8_192, 30, 40), 1.0, &min_vm);
        assert_eq!(fast.w_max, 8);
        assert_eq!((fast.creation_secs, fast.migration_secs), (30, 40));
        assert_eq!(fast.boundaries.len(), 7);
        assert_eq!(fast.level_eff.len(), 9);
        assert_eq!(fast.level_eff[8], 1.0);
        let slow = ClassEntry::from_pm(&pm(4, 4_096, 40, 45), 0.75, &min_vm);
        assert_eq!(slow.w_max, 4);
        assert_eq!(slow.eff, 0.75);
        assert_eq!(slow.level_eff[2], 0.5 * 0.75);
    }

    #[test]
    fn cached_factors_are_bit_identical_to_reference() {
        let cfg = DynamicConfig::default();
        let demand = ResourceVector::cpu_mem(1, 512);
        for (cores, mem, eff_c) in [(8, 8_192, 1.0), (4, 4_096, 0.75)] {
            let mut p = pm(cores, mem, 30, 40);
            let entry = ClassEntry::from_pm(&p, eff_c, &cfg.min_vm);
            for used in 0..cores {
                p.used = ResourceVector::cpu_mem(used, used * 512);
                for hosted in [false, true] {
                    if hosted && used == 0 {
                        continue;
                    }
                    let fast = class_eff(&p, &demand, hosted, &entry);
                    let reference = eff::p_eff(&p, &demand, hosted, eff_c, &cfg.min_vm);
                    assert_eq!(fast.to_bits(), reference.to_bits(), "used {used}");
                }
            }
            for rem in [0, 69, 70, 71, 700, 86_400] {
                let fast = class_vir(&entry, rem, cfg.overhead_mode);
                let reference = vir::p_vir(rem, 30, 40, false, true, cfg.overhead_mode);
                assert_eq!(fast.to_bits(), reference.to_bits(), "remaining {rem}");
            }
        }
    }
}
