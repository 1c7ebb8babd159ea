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

/// Which planning kernel [`crate::DynamicPlacement`] runs per pass.
///
/// Both kernels produce bit-identical migration batches and placements
/// (golden traces and the differential proptests in `dynamic.rs` hold
/// them to it); this knob trades constant factors only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PlanKernel {
    /// The class-compressed planner at every fleet size — the production
    /// path. The dense matrix serves a pass only as the fallback the
    /// compressed form cannot cover: a poisoned planner (registry caps
    /// exceeded), extension factors, or `use_eff = false`.
    #[default]
    Auto,
    /// Always the dense M×N probability matrix (the reference kernel).
    Dense,
    /// The class-compressed sparse planner, with the same dense fallback
    /// as `Auto` (see `compressed.rs`); names the kernel explicitly.
    Compressed,
}

/// Which dense bulk-sweep implementation the planner's row-major best
/// searches run ([`crate::ProbabilityMatrix::refill_best`] and the fused
/// incremental sweep).
///
/// Both implementations produce bit-identical best caches — the SIMD
/// sweep only *skips* entries a monotonicity argument proves can never
/// win, and every surviving entry is decided by the exact scalar
/// comparison chain (see `matrix.rs`). The knob exists so differential
/// tests and the CI perf gate can hold the two to that contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DenseSweep {
    /// The lane-chunked sweep (resolves to [`DenseSweep::Simd`]).
    #[default]
    Auto,
    /// The straight-line scalar sweep (the reference definition).
    Scalar,
    /// Lane-chunked f64 sweep with a scalar tail: entries are screened
    /// eight at a time against the per-column running maximum and only
    /// surviving chunks fall through to the scalar update.
    Simd,
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
    /// Row count at or above which a full matrix (re)build is chunked
    /// across worker threads. Below it the sequential path runs — thread
    /// spawn overhead dwarfs the win on small fleets. The parallel build is
    /// bit-identical to the sequential one (DESIGN.md §8), so this is a
    /// pure performance knob. The default is host-aware (see
    /// [`DynamicConfig::auto_par_rows_cutoff`]); set it explicitly to force
    /// either path.
    #[serde(default = "default_par_rows_cutoff")]
    pub par_rows_cutoff: usize,
    /// Keep planning state (probability matrix, eff-operand cache, class
    /// table) alive across passes and update it from the fleet-delta
    /// journal instead of rebuilding from scratch (DESIGN.md §8). The
    /// incremental update is bit-identical to a fresh rebuild — this knob
    /// exists for ablation/benchmarking, not because the outputs differ.
    #[serde(default = "default_incremental")]
    pub incremental: bool,
    /// Dirty-entry fraction above which an incremental pass falls back to
    /// a full rebuild: touching most of the matrix through the journal
    /// maps costs more than refilling it wholesale (which also regains the
    /// parallel build above `par_rows_cutoff`). `0.0` forces a rebuild on
    /// any dirt; `1.0` never falls back.
    #[serde(default = "default_rebuild_threshold")]
    pub rebuild_threshold: f64,
    /// Planning-kernel selection (see [`PlanKernel`]). `Auto` runs the
    /// class-compressed planner at every fleet size and keeps the dense
    /// matrix only as its fallback and as the differential-test
    /// reference; both produce identical output.
    #[serde(default)]
    pub plan_kernel: PlanKernel,
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
    /// durations — onto a `t`-spaced grid at the single choke point where
    /// planning state is built from the fleet ([`crate::PlanState::refill`]
    /// and the compressed planner's mirror of it), so a fleet whose per-PM
    /// jitter would fragment the compressed planner's exact-equality class
    /// key toward C = M instead collapses into O(spread / t) superclasses.
    /// Both kernels read the same quantized inputs, so they remain
    /// bit-identical to *each other* at any tolerance; the quantized plan
    /// diverges from the exact (t = 0) plan by a bounded score
    /// perturbation (DESIGN.md §12), which `perf_report` measures.
    #[serde(default = "default_class_tolerance")]
    pub class_tolerance: f64,
    /// Shard count for the sharded dense best-candidate sweep. `0` (the
    /// default) sizes shards automatically: one per matrix-build worker
    /// once the fleet is at or above `par_rows_cutoff` rows, otherwise a
    /// single shard (the plain sweep). Any positive value forces that
    /// many row shards. Results are shard-count-invariant (DESIGN.md
    /// §12): shards are contiguous ascending row ranges and the merge
    /// keeps the first strict maximum, which is exactly the sequential
    /// sweep's lowest-row tie-break.
    #[serde(default)]
    pub plan_shards: usize,
    /// Dense bulk-sweep implementation (see [`DenseSweep`]). Bit-identical
    /// either way; `Scalar` is the reference for the CI identity gate.
    #[serde(default)]
    pub dense_sweep: DenseSweep,
}

/// Snaps a score-side planning input (reliability or relative efficiency)
/// onto the linear grid with spacing `tol`. Identity when `tol <= 0.0` or
/// the value is not finite. Both planning kernels build their state
/// through this function, which is what keeps them bit-identical to each
/// other at any tolerance.
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

/// Measured crossover (`perf_report` matrix-build rows): with few workers
/// the chunked build's spawn/synchronization overhead loses to the
/// sequential class-cached fill even at 1k×5k (BENCH_placement.json shows
/// 1.57–1.87x vs 2.13–2.18x over reference), so chunking only pays above
/// this row count *and* with a real worker pool
/// ([`MIN_PAR_WORKERS`]) — see [`DynamicConfig::auto_par_rows_cutoff`].
pub const MEASURED_PAR_ROWS_CUTOFF: usize = 1024;

/// Minimum available workers before the chunked build can beat the
/// sequential fill at any measured shape.
pub const MIN_PAR_WORKERS: usize = 4;

fn default_par_rows_cutoff() -> usize {
    DynamicConfig::auto_par_rows_cutoff()
}

fn default_incremental() -> bool {
    true
}

fn default_rebuild_threshold() -> f64 {
    0.5
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
            par_rows_cutoff: default_par_rows_cutoff(),
            incremental: default_incremental(),
            rebuild_threshold: default_rebuild_threshold(),
            plan_kernel: PlanKernel::default(),
            capacity_basis: CapacityBasis::default(),
            class_tolerance: default_class_tolerance(),
            plan_shards: 0,
            dense_sweep: DenseSweep::default(),
        }
    }
}

impl DynamicConfig {
    /// Host-aware default for [`par_rows_cutoff`](Self::par_rows_cutoff):
    /// the measured crossover ([`MEASURED_PAR_ROWS_CUTOFF`]) when the host
    /// offers a real worker pool ([`MIN_PAR_WORKERS`] or more), and
    /// `usize::MAX` (never chunk) otherwise. On thin hosts the chunked
    /// path *loses to the sequential fast kernel at every paper-scale
    /// shape* (the clamp to two chunks means a 1–2-thread host pays spawn
    /// and synchronization overhead for no extra compute), so auto
    /// selection must pick the sequential kernel there; `perf_report`
    /// records the kernel this function chooses per shape next to the
    /// measured per-kernel timings, and the CI perf gate fails if the
    /// chosen kernel is not the measured winner.
    pub fn auto_par_rows_cutoff() -> usize {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if workers >= MIN_PAR_WORKERS {
            MEASURED_PAR_ROWS_CUTOFF
        } else {
            usize::MAX
        }
    }

    /// Resolved shard count for a sweep over `rows` planning rows: the
    /// explicit [`plan_shards`](Self::plan_shards) knob when positive
    /// (clamped to the row count), otherwise one shard per matrix-build
    /// worker once the fleet reaches
    /// [`par_rows_cutoff`](Self::par_rows_cutoff) rows and a single shard
    /// (the plain sequential sweep) below it.
    pub fn resolve_shards(&self, rows: usize) -> usize {
        if self.plan_shards > 0 {
            return self.plan_shards.min(rows.max(1));
        }
        if rows >= self.par_rows_cutoff {
            crate::matrix::parallel_workers(rows)
        } else {
            1
        }
    }

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
        if !(self.rebuild_threshold.is_finite() && (0.0..=1.0).contains(&self.rebuild_threshold)) {
            return Err(format!(
                "rebuild_threshold must be within [0.0, 1.0], got {}",
                self.rebuild_threshold
            ));
        }
        if !(self.class_tolerance.is_finite() && (0.0..=0.5).contains(&self.class_tolerance)) {
            return Err(format!(
                "class_tolerance must be within [0.0, 0.5], got {}",
                self.class_tolerance
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
        assert_eq!(c.par_rows_cutoff, DynamicConfig::auto_par_rows_cutoff());
        assert!(c.incremental, "incremental planning is on by default");
        assert_eq!(c.rebuild_threshold, 0.5);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn par_rows_cutoff_defaults_when_absent_from_serialized_form() {
        // Configs serialized before the knob existed must still load with
        // the default cutoff: strip the field from a serialized default
        // config and parse what remains.
        let full = serde_json::to_string(&DynamicConfig::default()).unwrap();
        let knob = format!(
            ",\"par_rows_cutoff\":{}",
            DynamicConfig::auto_par_rows_cutoff()
        );
        let legacy = full.replace(&knob, "");
        assert_ne!(legacy, full, "the knob serializes");
        let c: DynamicConfig = serde_json::from_str(&legacy).expect("legacy config parses");
        assert_eq!(c, DynamicConfig::default());
    }

    #[test]
    fn incremental_knobs_default_when_absent_from_serialized_form() {
        // Configs serialized before the incremental knobs existed must
        // still load with the defaults (same pattern as par_rows_cutoff).
        let full = serde_json::to_string(&DynamicConfig::default()).unwrap();
        let legacy = full
            .replace(",\"incremental\":true", "")
            .replace(",\"rebuild_threshold\":0.5", "");
        assert_ne!(legacy, full, "both knobs serialize");
        let c: DynamicConfig = serde_json::from_str(&legacy).expect("legacy config parses");
        assert_eq!(c, DynamicConfig::default());
    }

    #[test]
    fn plan_kernel_defaults_when_absent_from_serialized_form() {
        // Configs serialized before the kernel knob existed must still
        // load with `Auto` (same pattern as par_rows_cutoff).
        let full = serde_json::to_string(&DynamicConfig::default()).unwrap();
        let legacy = full.replace(",\"plan_kernel\":\"Auto\"", "");
        assert_ne!(legacy, full, "the knob serializes");
        let c: DynamicConfig = serde_json::from_str(&legacy).expect("legacy config parses");
        assert_eq!(c, DynamicConfig::default());
        assert_eq!(c.plan_kernel, PlanKernel::Auto);
    }

    #[test]
    fn capacity_basis_defaults_when_absent_from_serialized_form() {
        // Configs serialized before the overbooking knob existed must
        // still load with `Virtual` (same pattern as plan_kernel).
        let full = serde_json::to_string(&DynamicConfig::default()).unwrap();
        let legacy = full.replace(",\"capacity_basis\":\"Virtual\"", "");
        assert_ne!(legacy, full, "the knob serializes");
        let c: DynamicConfig = serde_json::from_str(&legacy).expect("legacy config parses");
        assert_eq!(c, DynamicConfig::default());
        assert_eq!(c.capacity_basis, CapacityBasis::Virtual);
    }

    #[test]
    fn heterogeneity_knobs_default_when_absent_from_serialized_form() {
        // Configs serialized before the bucketing/sharding/SIMD knobs
        // existed must still load with the defaults (same pattern as
        // plan_kernel).
        let full = serde_json::to_string(&DynamicConfig::default()).unwrap();
        let legacy = full
            .replace(",\"class_tolerance\":0.0", "")
            .replace(",\"plan_shards\":0", "")
            .replace(",\"dense_sweep\":\"Auto\"", "");
        assert_ne!(legacy, full, "all three knobs serialize");
        let c: DynamicConfig = serde_json::from_str(&legacy).expect("legacy config parses");
        assert_eq!(c, DynamicConfig::default());
        assert_eq!(c.class_tolerance, 0.0);
        assert_eq!(c.plan_shards, 0);
        assert_eq!(c.dense_sweep, DenseSweep::Auto);
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
    fn validation_rejects_bad_rebuild_threshold() {
        let mut c = DynamicConfig::default();
        c.rebuild_threshold = -0.1;
        assert!(c.validate().is_err());
        c.rebuild_threshold = 1.5;
        assert!(c.validate().is_err());
        c.rebuild_threshold = f64::NAN;
        assert!(c.validate().is_err());
        c.rebuild_threshold = 0.0;
        assert!(c.validate().is_ok());
        c.rebuild_threshold = 1.0;
        assert!(c.validate().is_ok());
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
