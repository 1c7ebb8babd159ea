//! A PM's planning inputs: the one place the production planner reads a
//! PM.
//!
//! [`PlanPm::from_pm`] and [`eff_table`] apply the capacity basis and
//! the `class_tolerance` quantizers; the compressed planner builds its
//! rows and superclass keys from them.

use crate::config::{quantize_score, quantize_secs, CapacityBasis, DynamicConfig};
use dvmp_cluster::pm::{Pm, PmClass, PmId};
use dvmp_cluster::power::relative_efficiencies;
use dvmp_cluster::resources::ResourceVector;
use dvmp_simcore::SimDuration;

/// Planning copy of one available PM.
#[derive(Debug, Clone)]
pub struct PlanPm {
    /// Real PM id.
    pub id: PmId,
    /// Index into the class/efficiency tables.
    pub class_idx: usize,
    /// `C_j^max`.
    pub capacity: ResourceVector,
    /// `C_j`.
    pub used: ResourceVector,
    /// `p_j^rel`.
    pub reliability: f64,
    /// `T^cre` in seconds.
    pub creation_secs: u64,
    /// `T^mig` in seconds (as destination).
    pub migration_secs: u64,
}

impl PlanPm {
    /// PM `pm`'s planning inputs under `cfg`: its capacity on
    /// `cfg.capacity_basis` ([`CapacityBasis::Virtual`], the admission
    /// bound, is identical to physical on non-overbooked fleets), its
    /// current occupancy, and its score-side inputs — reliability and
    /// overhead durations — snapped onto the `cfg.class_tolerance` grid
    /// (`0.0` keeps exact values). Capacity and occupancy are never
    /// quantized, so feasibility stays exact.
    ///
    /// This and [`eff_table`] are where the production planner reads a
    /// PM.
    pub fn from_pm(pm: &Pm, cfg: &DynamicConfig) -> Self {
        let tol = cfg.class_tolerance;
        let secs = |d: SimDuration| quantize_secs(d.as_secs(), tol);
        PlanPm {
            id: pm.id,
            class_idx: pm.class_idx,
            capacity: match cfg.capacity_basis {
                CapacityBasis::Virtual => pm.virtual_capacity(),
                CapacityBasis::Physical => *pm.capacity(),
            },
            used: *pm.used(),
            reliability: quantize_score(pm.reliability, tol),
            creation_secs: secs(pm.class.creation_time),
            migration_secs: secs(pm.class.migration_time),
        }
    }
}

/// Relative power efficiency `eff_c` per class index, snapped onto the
/// `cfg.class_tolerance` grid like every score-side input of
/// [`PlanPm::from_pm`].
pub fn eff_table(classes: &[PmClass], cfg: &DynamicConfig) -> Vec<f64> {
    relative_efficiencies(classes, &cfg.min_vm)
        .into_iter()
        .map(|e| quantize_score(e, cfg.class_tolerance))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::*;

    #[test]
    fn from_pm_quantizes_score_inputs_but_not_capacity() {
        let mut dc = small_fleet();
        // Jitter every PM's reliability inside one tolerance bucket.
        let n = dc.len();
        dc.edit_pms(|pms| {
            for (i, pm) in pms.iter_mut().enumerate() {
                pm.reliability = 0.949 + 0.002 * (i as f64) / (n as f64);
            }
        });
        let exact_cfg = DynamicConfig::default();
        let cfg = DynamicConfig {
            class_tolerance: 0.01,
            ..DynamicConfig::default()
        };
        let exact: Vec<PlanPm> = dc
            .pms()
            .iter()
            .map(|pm| PlanPm::from_pm(pm, &exact_cfg))
            .collect();
        let quant: Vec<PlanPm> = dc
            .pms()
            .iter()
            .map(|pm| PlanPm::from_pm(pm, &cfg))
            .collect();

        for (e, q) in exact.iter().zip(&quant) {
            // Score-side inputs are snapped through the shared quantizers…
            assert_eq!(
                q.reliability.to_bits(),
                quantize_score(e.reliability, 0.01).to_bits()
            );
            assert_eq!(q.creation_secs, quantize_secs(e.creation_secs, 0.01));
            assert_eq!(q.migration_secs, quantize_secs(e.migration_secs, 0.01));
            // …while feasibility-side state stays exact.
            assert_eq!(q.capacity, e.capacity);
            assert_eq!(q.used, e.used);
        }
        let exact_effs = eff_table(dc.classes(), &exact_cfg);
        for (e, q) in exact_effs.iter().zip(&eff_table(dc.classes(), &cfg)) {
            assert_eq!(q.to_bits(), quantize_score(*e, 0.01).to_bits());
        }
        // The jittered spread collapses into a single reliability bucket.
        let distinct: std::collections::BTreeSet<u64> =
            quant.iter().map(|p| p.reliability.to_bits()).collect();
        assert_eq!(distinct.len(), 1, "0.002 spread fits one 0.01 bucket");
        let exact_distinct: std::collections::BTreeSet<u64> =
            exact.iter().map(|p| p.reliability.to_bits()).collect();
        assert!(
            exact_distinct.len() > 1,
            "the jitter really fragments exact keys"
        );
    }
}
