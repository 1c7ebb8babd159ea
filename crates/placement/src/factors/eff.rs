//! `p^eff` — energy efficiency (Eqs. 4–5): the utilization levels the
//! compressed planner's per-class tables are built from.
//!
//! The paper partitions each PM's joint utilization
//! `U_j = ∏_k C_j(k)/C_j^max(k)` into `W_j + 1` levels whose boundaries
//! grow as `(w)^K · U_j^MIN` (Eq. 4), where `W_j` is the number of
//! minimum-sized VMs the PM can host and `U_j^MIN` the utilization of one
//! such VM. The factor is then
//!
//! ```text
//! p_ij^eff = (w_j / W_j) · eff_j ,   w_j ∈ {1, …, W_j}     (Eq. 5)
//! ```
//!
//! so fuller machines and more power-efficient classes attract VMs, which
//! is the gradient that drives consolidation.
//!
//! **Prospective level (DESIGN.md I1):** Eq. 5 has no level 0, yet an idle
//! PM sits at level `L_0`; read literally no VM could ever be placed on an
//! empty machine. We therefore evaluate the level *after* hypothetically
//! hosting the candidate VM: an empty PM then lands at level ≥ 1 and the
//! gradient ("prefer fuller") is preserved everywhere. The factor itself
//! is evaluated per class by [`class_table`](super::class_table).

use crate::plan::PlanPm;
use dvmp_cluster::resources::ResourceVector;

/// Computes `W_j` — the PM's capacity in minimum VMs.
pub fn slots(pm: &PlanPm, min_vm: &ResourceVector) -> u64 {
    pm.capacity.contains_times(min_vm)
}

/// The Eq. 4 boundary of level `w`, expressed as a ratio `u / U_min`, with
/// a tolerance for FP error on exact boundaries (e.g. `u == 8^K · U_min`
/// must land on level 8, DESIGN.md I1).
#[inline]
pub fn level_boundary(w: u64, k: usize) -> f64 {
    (w as f64).powi(k as i32) * (1.0 - 1e-9)
}

/// The boundaries of levels `2..=w_max` as `u / U_min` ratios, ascending.
/// (Level 1 has no lower boundary: Eq. 5 starts at `w = 1`.) Precomputing
/// these once per PM class removes every transcendental call from the
/// matrix inner loop.
pub fn level_boundaries(w_max: u64, k: usize) -> Vec<f64> {
    (2..=w_max).map(|w| level_boundary(w, k)).collect()
}

/// The level for a ratio `u / U_min` given precomputed [`level_boundaries`].
#[inline]
pub fn level_from_boundaries(ratio: f64, boundaries: &[f64]) -> u64 {
    // `partition_point` finds how many boundaries the ratio has crossed;
    // each crossed boundary raises the level by one above the floor of 1.
    boundaries.partition_point(|&b| ratio >= b) as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::level_for;
    use dvmp_cluster::pm::PmId;

    fn fast(used_cores: u64, used_mem: u64) -> PlanPm {
        PlanPm {
            id: PmId(0),
            class_idx: 0,
            capacity: ResourceVector::cpu_mem(8, 8_192),
            used: ResourceVector::cpu_mem(used_cores, used_mem),
            reliability: 1.0,
            creation_secs: 30,
            migration_secs: 40,
        }
    }

    fn min_vm() -> ResourceVector {
        ResourceVector::cpu_mem(1, 512)
    }

    #[test]
    fn slots_match_table2_classes() {
        assert_eq!(slots(&fast(0, 0), &min_vm()), 8);
        let slow = PlanPm {
            capacity: ResourceVector::cpu_mem(4, 4_096),
            ..fast(0, 0)
        };
        assert_eq!(slots(&slow, &min_vm()), 4);
    }

    #[test]
    fn level_boundaries_follow_eq4() {
        // Ratios u / U_min against the fast PM's W = 8, K = 2 boundaries.
        let boundaries = level_boundaries(8, 2);
        let level = |ratio: f64| level_from_boundaries(ratio, &boundaries);
        // One min VM → exactly U_min → level 1.
        assert_eq!(level(1.0), 1);
        // Just below 2^K·U_min = 4·U_min → still level 1.
        assert_eq!(level(3.9), 1);
        // At 4·U_min (= 2²·U_min) → level 2.
        assert_eq!(level(4.0), 2);
        // At w^2·U_min for w = 8 → level 8 (fully utilized).
        assert_eq!(level(64.0), 8);
        // Above the last boundary stays clamped at W.
        assert_eq!(level(128.0), 8);
        // Three (1, 1024) VMs on a (5, 5120) PM: (3/5)(3072/5120) over
        // (1/5)(1024/5120) rounds to just below 3²; the slack keeps it on
        // level 3 (DESIGN.md I1).
        let ratio = (3.0 / 5.0) * (3_072.0 / 5_120.0) / ((1.0 / 5.0) * (1_024.0 / 5_120.0));
        assert!(ratio < 9.0);
        assert_eq!(level_from_boundaries(ratio, &level_boundaries(5, 2)), 3);
    }

    #[test]
    fn precomputed_boundaries_agree_with_level_for() {
        // The class-table path must yield the *same* level as the
        // specification's direct Eq. 4 computation for every (ratio, K, W)
        // it can encounter.
        for k in 1..=4usize {
            for w_max in 1..=16u64 {
                let boundaries = level_boundaries(w_max, k);
                assert_eq!(boundaries.len(), (w_max - 1) as usize);
                let u_min = 1.0 / 128.0;
                for i in 0..=(w_max * w_max * 4) {
                    let u = i as f64 * u_min / 3.0;
                    let ratio = (u / u_min).max(0.0);
                    assert_eq!(
                        level_from_boundaries(ratio, &boundaries),
                        level_for(u, u_min, w_max, k),
                        "k={k} w_max={w_max} ratio={ratio}"
                    );
                }
            }
        }
    }
}
