//! Configuration of the dynamic placement scheme.

use dvmp_cluster::resources::ResourceVector;
use serde::{Deserialize, Serialize};

/// How Eq. 3 charges virtualization overheads (DESIGN.md I2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverheadMode {
    /// Paper-faithful: subtract **both** `T_cre` and `T_mig` of the
    /// destination PM, whether placing or migrating (Eq. 3 as printed).
    PaperJoint,
    /// Physically precise: charge only `T_cre` on first placement and only
    /// `T_mig` on migration.
    Split,
}

/// Which capacity bound the planning kernels treat as a PM's limit.
///
/// The live datacenter admits reservations against *virtual* capacity
/// (`physical × overbook ratio`; identical to physical on non-overbooked
/// fleets), so planning must do the same or the planner would refuse
/// moves the fleet would accept. `Physical` is the ablation: plan as if
/// overbooking were off, which measures how much of an overbooked run's
/// consolidation win comes from the inflated headroom itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CapacityBasis {
    /// The admission-control bound (virtual capacity). The default.
    #[default]
    Virtual,
    /// Raw hardware capacity, ignoring overbook ratios.
    Physical,
}

/// Tunables of [`crate::DynamicPlacement`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicConfig {
    /// `MIG_threshold`: a migration is only taken when its normalized
    /// probability exceeds this (paper example: 1.05).
    pub mig_threshold: f64,
    /// `MIG_round`: maximum migrations per triggering event.
    pub mig_round: u32,
    /// Overhead accounting mode for Eq. 3.
    pub overhead_mode: OverheadMode,
    /// The minimum VM request `R^MIN` used to derive each PM's slot count
    /// `W_j` and utilization levels (Eq. 4).
    pub min_vm: ResourceVector,
    /// Ablation switch: include the virtualization-overhead factor `p^vir`.
    pub use_vir: bool,
    /// Ablation switch: include the reliability factor `p^rel`.
    pub use_rel: bool,
    /// Ablation switch: include the energy-efficiency factor `p^eff`.
    pub use_eff: bool,
    /// Which capacity bound planning admits against (see
    /// [`CapacityBasis`]). `Virtual` matches the live fleet's admission
    /// control; `Physical` is the overbooking ablation.
    #[serde(default)]
    pub capacity_basis: CapacityBasis,
    /// Superclass-bucketing resolution for heterogeneous fleets.
    ///
    /// `0.0` (the default) plans on exact per-PM inputs. A positive
    /// tolerance `t` snaps every score-side planning input — reliability,
    /// relative efficiency, and the creation/migration overhead
    /// durations — onto a `t`-spaced grid where planning reads them from
    /// the fleet ([`PlanPm::from_pm`](crate::plan::PlanPm::from_pm) and
    /// [`eff_table`](crate::plan::eff_table)), so a fleet whose per-PM
    /// jitter would fragment the compressed planner's exact-equality class
    /// key toward C = M instead collapses into O(spread / t) superclasses.
    /// The production planner and the executable specification read the
    /// same quantized inputs, so they remain bit-identical to *each other*
    /// at any tolerance; the quantized plan diverges from the exact (t = 0)
    /// plan by a bounded score perturbation (DESIGN.md §12), which
    /// `perf_report` measures.
    #[serde(default = "default_class_tolerance")]
    pub class_tolerance: f64,
}

/// Snaps a score-side planning input (reliability or relative efficiency)
/// onto the linear grid with spacing `tol`. Identity when `tol <= 0.0` or
/// the value is not finite. Planning reads every reliability and
/// relative efficiency through this function (in
/// [`PlanPm::from_pm`](crate::plan::PlanPm::from_pm) and
/// [`eff_table`](crate::plan::eff_table)); the executable specification
/// snaps its inputs through it too, which is what keeps the two
/// bit-identical at any tolerance.
#[inline]
pub fn quantize_score(v: f64, tol: f64) -> f64 {
    if tol <= 0.0 || !v.is_finite() {
        return v;
    }
    (v / tol).round() * tol
}

/// Snaps an overhead duration (creation/migration seconds) onto the
/// geometric grid `(1 + tol)^k`, so the *relative* error is bounded by
/// `tol / 2` across the whole dynamic range — a linear grid would either
/// crush small overheads to one bucket or leave large ones unbucketed.
/// Identity when `tol <= 0.0` or the duration is zero.
#[inline]
pub fn quantize_secs(s: u64, tol: f64) -> u64 {
    if tol <= 0.0 || s == 0 {
        return s;
    }
    let step = (1.0 + tol).ln();
    let k = ((s as f64).ln() / step).round();
    (k * step).exp().round().max(1.0) as u64
}

fn default_class_tolerance() -> f64 {
    0.0
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            mig_threshold: 1.05,
            mig_round: 20,
            overhead_mode: OverheadMode::PaperJoint,
            min_vm: ResourceVector::cpu_mem(1, 256),
            use_vir: true,
            use_rel: true,
            use_eff: true,
            capacity_basis: CapacityBasis::default(),
            class_tolerance: default_class_tolerance(),
        }
    }
}

impl DynamicConfig {
    /// Validates the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.mig_threshold.is_finite() && self.mig_threshold >= 1.0) {
            return Err(format!(
                "mig_threshold must be finite and >= 1.0, got {}",
                self.mig_threshold
            ));
        }
        if self.min_vm.is_zero() {
            return Err("min_vm must be non-zero in at least one dimension".into());
        }
        if !(self.class_tolerance.is_finite() && (0.0..=0.5).contains(&self.class_tolerance)) {
            return Err(format!(
                "class_tolerance must be within [0.0, 0.5], got {}",
                self.class_tolerance
            ));
        }
        Ok(())
    }

    /// Rejects a fleet or request stream the planner cannot plan over:
    /// resource vectors whose dimension count differs from `min_vm`'s —
    /// contradictory input for Eq. 2–5, which compare them component by
    /// component — or a PM that holds more minimum VMs (Eq. 4 levels)
    /// than the planner's level cache indexes.
    pub fn check_inputs(
        &self,
        fleet: &dvmp_cluster::datacenter::Datacenter,
        requests: &[dvmp_cluster::vm::VmSpec],
    ) -> Result<(), String> {
        let k = self.min_vm.k();
        if let Some(class) = fleet.classes().iter().find(|c| c.capacity.k() != k) {
            return Err(format!(
                "PM class {:?} has {} resource dimensions, min_vm has {k}",
                class.name,
                class.capacity.k()
            ));
        }
        if let Some(vm) = requests.iter().find(|vm| vm.resources.k() != k) {
            return Err(format!(
                "request {:?} has {} resource dimensions, min_vm has {k}",
                vm.id,
                vm.resources.k()
            ));
        }
        let max_level = crate::compressed::MAX_LEVEL;
        if let Some(pm) = fleet.pms().iter().find(|pm| {
            let slots = |cap: &ResourceVector| cap.contains_times(&self.min_vm);
            slots(pm.capacity()).max(slots(&pm.virtual_capacity())) > max_level
        }) {
            return Err(format!(
                "{:?} holds more than {max_level} minimum VMs (Eq. 4 levels)",
                pm.id
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = DynamicConfig::default();
        assert_eq!(c.mig_threshold, 1.05);
        assert_eq!(c.mig_round, 20);
        assert_eq!(c.overhead_mode, OverheadMode::PaperJoint);
        assert!(c.use_vir && c.use_rel && c.use_eff);
        assert!(c.validate().is_ok());
    }

    /// The serialized default config no longer carries the removed
    /// speed-only `knobs`, and a config serialized while they existed
    /// (`legacy_fields` spliced in) still loads, the fields ignored.
    fn assert_removed_knobs_load_to_default(knobs: &[&str], legacy_fields: &str) {
        let full = serde_json::to_string(&DynamicConfig::default()).unwrap();
        for knob in knobs {
            assert!(
                !full.contains(&format!("\"{knob}\"")),
                "{knob} still serializes"
            );
        }
        let c: DynamicConfig = serde_json::from_str(&full).expect("config parses");
        assert_eq!(c, DynamicConfig::default());
        let legacy = full.replacen('{', &format!("{{{legacy_fields},"), 1);
        let c: DynamicConfig = serde_json::from_str(&legacy).expect("legacy config parses");
        assert_eq!(c, DynamicConfig::default());
    }

    #[test]
    fn par_rows_cutoff_defaults_when_absent_from_serialized_form() {
        assert_removed_knobs_load_to_default(&["par_rows_cutoff"], "\"par_rows_cutoff\":1024");
    }

    #[test]
    fn incremental_knobs_default_when_absent_from_serialized_form() {
        assert_removed_knobs_load_to_default(
            &["incremental", "rebuild_threshold"],
            "\"incremental\":false,\"rebuild_threshold\":0.25",
        );
    }

    #[test]
    fn plan_kernel_defaults_when_absent_from_serialized_form() {
        // The kernel-selection knobs: the kernel, its shard count and the
        // dense sweep flavour.
        assert_removed_knobs_load_to_default(
            &["plan_kernel", "plan_shards", "dense_sweep"],
            "\"plan_kernel\":\"Dense\",\"plan_shards\":4,\"dense_sweep\":\"Simd\"",
        );
    }

    #[test]
    fn capacity_basis_defaults_when_absent_from_serialized_form() {
        // Configs serialized before the overbooking knob existed must
        // still load with `Virtual`: strip the field from a serialized
        // default config and parse what remains.
        let full = serde_json::to_string(&DynamicConfig::default()).unwrap();
        let legacy = full.replace(",\"capacity_basis\":\"Virtual\"", "");
        assert_ne!(legacy, full, "the knob serializes");
        let c: DynamicConfig = serde_json::from_str(&legacy).expect("legacy config parses");
        assert_eq!(c, DynamicConfig::default());
        assert_eq!(c.capacity_basis, CapacityBasis::Virtual);
    }

    #[test]
    fn heterogeneity_knobs_default_when_absent_from_serialized_form() {
        // Configs serialized before the bucketing knob existed must still
        // load with the default (same pattern as capacity_basis).
        let full = serde_json::to_string(&DynamicConfig::default()).unwrap();
        let legacy = full.replace(",\"class_tolerance\":0.0", "");
        assert_ne!(legacy, full, "the knob serializes");
        let c: DynamicConfig = serde_json::from_str(&legacy).expect("legacy config parses");
        assert_eq!(c, DynamicConfig::default());
        assert_eq!(c.class_tolerance, 0.0);
    }

    #[test]
    fn validation_rejects_bad_class_tolerance() {
        let mut c = DynamicConfig::default();
        c.class_tolerance = -0.01;
        assert!(c.validate().is_err());
        c.class_tolerance = 0.6;
        assert!(c.validate().is_err());
        c.class_tolerance = f64::NAN;
        assert!(c.validate().is_err());
        c.class_tolerance = 0.0;
        assert!(c.validate().is_ok());
        c.class_tolerance = 0.05;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn quantize_score_is_identity_at_zero_tolerance() {
        for v in [0.0, 0.913, 1.0, -0.25, f64::NAN, f64::INFINITY] {
            let q = quantize_score(v, 0.0);
            assert_eq!(q.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn quantize_score_buckets_nearby_values_together() {
        let tol = 0.01;
        // Values within half a grid step of each other land on one bucket.
        assert_eq!(
            quantize_score(0.9496, tol).to_bits(),
            quantize_score(0.9504, tol).to_bits()
        );
        // A jittered spread of ±s around a base produces at most
        // 2*s/tol + 1 distinct buckets.
        let spread = 0.05;
        let mut buckets = std::collections::BTreeSet::new();
        for i in 0..=1000 {
            let v = 0.95 - spread + 2.0 * spread * (i as f64) / 1000.0;
            buckets.insert(quantize_score(v, tol).to_bits());
        }
        assert!(
            buckets.len() <= (2.0 * spread / tol) as usize + 2,
            "got {} buckets",
            buckets.len()
        );
        // The snap error is bounded by half a grid step.
        assert!((quantize_score(0.9496, tol) - 0.9496).abs() <= tol / 2.0 + 1e-12);
    }

    #[test]
    fn quantize_secs_bounds_relative_error() {
        let tol = 0.05;
        assert_eq!(quantize_secs(0, tol), 0);
        assert_eq!(quantize_secs(7, 0.0), 7);
        for s in [1u64, 5, 60, 95, 100, 105, 3600, 86_400, 1_000_000] {
            let q = quantize_secs(s, tol);
            assert!(q >= 1);
            let rel = (q as f64 - s as f64).abs() / s as f64;
            // Half a geometric step plus integer rounding slack.
            assert!(rel <= tol / 2.0 + 1.0 / s as f64 + 1e-9, "s={s} q={q}");
        }
        // Nearby overheads collapse onto one bucket (98 and 100 share the
        // k=94 grid point of the 5% geometric grid); distant ones don't.
        assert_eq!(quantize_secs(98, tol), quantize_secs(100, tol));
        assert_ne!(quantize_secs(100, tol), quantize_secs(120, tol));
    }

    #[test]
    fn validation_rejects_bad_threshold() {
        let mut c = DynamicConfig::default();
        c.mig_threshold = 0.5;
        assert!(c.validate().is_err());
        c.mig_threshold = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_min_vm() {
        let mut c = DynamicConfig::default();
        c.min_vm = ResourceVector::zero(2);
        assert!(c.validate().is_err());
    }
}
