//! The event-driven simulation recorder and its final report.
//!
//! The simulator calls [`SimulationRecorder::sample_fleet`] after every
//! event that changes fleet state; the recorder keeps exact step series of
//! the quantities the paper's figures need and freezes them into a
//! [`RunReport`] at the end of the run.

use crate::energy::EnergyMeter;
use crate::qos::{QosSummary, QosTracker};
use crate::sla::SaturationMeter;
use crate::violation::OracleSummary;
use dvmp_cluster::datacenter::Datacenter;
use dvmp_obs::CounterSnapshot as ObsCounters;
use dvmp_obs::{Phase, PhaseHistogram, TimeSeriesReport, TimeSeriesStore, LATENCY_QUANTILES};
use dvmp_simcore::series::StepSeries;
use dvmp_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Schema version stamped into [`RunMeta`]; bump when the report shape
/// changes incompatibly. v7 added the `timeseries` and `meta` sections;
/// v8 dropped `obs.intervals` (the `timeseries` section's `ctr_*`
/// channels carry the same per-interval counter deltas).
pub const RUN_REPORT_SCHEMA: u32 = 8;

/// A partition of the fleet for per-group power accounting — per region
/// in the geo extension, or per hardware class for breakdown reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerGroups {
    /// Group display names.
    pub names: Vec<String>,
    /// PM index → group index; must cover the whole fleet.
    pub assignment: Vec<usize>,
}

impl PowerGroups {
    /// Partition by hardware class, using the class table of `dc`.
    pub fn by_class(dc: &Datacenter) -> Self {
        PowerGroups {
            names: dc.classes().iter().map(|c| c.name.clone()).collect(),
            assignment: dc.pms().iter().map(|pm| pm.class_idx).collect(),
        }
    }

    /// Validates the partition against a fleet size.
    pub fn validate(&self, fleet_size: usize) -> Result<(), String> {
        if self.assignment.len() != fleet_size {
            return Err(format!(
                "assignment covers {} PMs, fleet has {fleet_size}",
                self.assignment.len()
            ));
        }
        if let Some(&bad) = self.assignment.iter().find(|&&g| g >= self.names.len()) {
            return Err(format!("group index {bad} out of range"));
        }
        Ok(())
    }
}

/// Live recorder fed by the simulator.
#[derive(Debug, Clone)]
pub struct SimulationRecorder {
    powered_servers: StepSeries,
    non_idle_servers: StepSeries,
    core_utilization: StepSeries,
    energy: EnergyMeter,
    saturation: SaturationMeter,
    groups: Option<(PowerGroups, Vec<StepSeries>)>,
    arrivals: u64,
    departures: u64,
    migrations: u64,
    /// QoS tracker (public so the simulator can record starts directly).
    pub qos: QosTracker,
    skipped_migrations: u64,
    pm_failures: u64,
    failure_aborted_migrations: u64,
    failure_lost_migrations: u64,
    resizes: u64,
    rejected_resizes: u64,
    served_core_seconds: f64,
    /// Counter state at `enable_obs_sampling` time; `Some` arms per-interval
    /// observability sampling (the thread's counters are cumulative, so
    /// per-run numbers are deltas against this baseline).
    obs_baseline: Option<ObsCounters>,
    /// Phase-histogram state at arming time (latency channels are deltas).
    ts_phase_baseline: [PhaseHistogram; Phase::TIMED.len()],
    /// Bounded multi-resolution telemetry store; created lazily at the
    /// first control-interval sample (channel list needs the fleet's
    /// resource dimension count). `None` until armed + first sample.
    ts_store: Option<TimeSeriesStore>,
    /// Scratch row reused across samples (no per-interval allocation).
    ts_scratch: Vec<f64>,
}

impl Default for SimulationRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimulationRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        SimulationRecorder {
            powered_servers: StepSeries::new(0.0),
            non_idle_servers: StepSeries::new(0.0),
            core_utilization: StepSeries::new(0.0),
            energy: EnergyMeter::new(),
            saturation: SaturationMeter::new(),
            groups: None,
            arrivals: 0,
            departures: 0,
            migrations: 0,
            qos: QosTracker::new(),
            skipped_migrations: 0,
            pm_failures: 0,
            failure_aborted_migrations: 0,
            failure_lost_migrations: 0,
            resizes: 0,
            rejected_resizes: 0,
            served_core_seconds: 0.0,
            obs_baseline: None,
            ts_phase_baseline: dvmp_obs::phase_histograms(),
            ts_store: None,
            ts_scratch: Vec::new(),
        }
    }

    /// Arms per-interval observability sampling:
    /// [`sample_timeseries`] calls start filling the telemetry store, and
    /// [`finish`] attaches an [`ObsReport`]. Also turns recording on for
    /// the calling thread.
    ///
    /// [`sample_timeseries`]: SimulationRecorder::sample_timeseries
    /// [`finish`]: SimulationRecorder::finish
    pub fn enable_obs_sampling(&mut self) {
        dvmp_obs::set_enabled(true);
        self.obs_baseline = Some(dvmp_obs::counters_snapshot());
        self.ts_phase_baseline = dvmp_obs::phase_histograms();
    }

    /// Samples fleet gauges, counter deltas and phase-latency quantiles
    /// into the bounded multi-resolution telemetry store at a control
    /// interval boundary. No-op unless [`enable_obs_sampling`] was called;
    /// the store is created at the first sample (its channel list depends
    /// on the fleet's resource dimension count).
    ///
    /// Telemetry only *reads* fleet state and the thread's obs layer — it
    /// can never influence simulation results (DESIGN.md §13).
    ///
    /// [`enable_obs_sampling`]: SimulationRecorder::enable_obs_sampling
    pub fn sample_timeseries(&mut self, now: SimTime, dc: &Datacenter, queue_depth: usize) {
        let Some(base) = &self.obs_baseline else {
            return;
        };
        if self.ts_store.is_none() {
            // One-time channel-list construction (name formatting) is
            // setup, kept out of the per-interval sampling self-meter.
            let mut names: Vec<String> = [
                "powered_pms",
                "idle_pms",
                "off_pms",
                "saturated_pms",
                "queue_depth",
                "total_power_w",
                "sla_violation_s",
            ]
            .into_iter()
            .map(String::from)
            .collect();
            for d in 0..dc.available_utilization_per_dim().len() {
                names.push(match d {
                    0 => "util_cpu".to_string(),
                    1 => "util_mem".to_string(),
                    _ => format!("util_dim{d}"),
                });
            }
            for (name, _) in dvmp_obs::counters_snapshot().entries() {
                names.push(format!("ctr_{name}"));
            }
            for hist in dvmp_obs::phase_histograms() {
                for (q, _) in LATENCY_QUANTILES {
                    names.push(format!("lat_{}_{q}_ns", hist.phase.replace('-', "_")));
                }
            }
            self.ts_store = Some(TimeSeriesStore::new(names));
        }
        // Self-meter the sampling cost (the bench's ≤2 % overhead gate
        // models from this; the two clock reads never enter the report).
        let t = std::time::Instant::now();
        let utils = dc.available_utilization_per_dim();
        let store = self.ts_store.as_mut().expect("created above");
        self.ts_scratch.clear();
        self.ts_scratch.extend([
            dc.powered_count() as f64,
            dc.idle_available_count() as f64,
            (dc.len() - dc.powered_count()) as f64,
            dc.saturated_count() as f64,
            queue_depth as f64,
            dc.total_power_w(),
            self.saturation.violation_seconds(now),
        ]);
        self.ts_scratch.extend(utils);
        let counters = dvmp_obs::counters_snapshot().delta_from(base);
        self.ts_scratch.extend(counters.values().map(|v| v as f64));
        for (hist, earlier) in dvmp_obs::phase_histograms()
            .iter()
            .zip(&self.ts_phase_baseline)
        {
            let delta = hist.delta_from(earlier);
            for (_, q) in LATENCY_QUANTILES {
                self.ts_scratch
                    .push(dvmp_obs::log2_bucket_quantile(&delta.buckets, q).unwrap_or(0.0));
            }
        }
        store.sample(now.as_secs(), &self.ts_scratch);
        dvmp_obs::add_sampling_ns(t.elapsed().as_nanos() as u64);
    }

    /// Enables per-group power accounting. Call before the first sample.
    ///
    /// # Panics
    /// Panics if the partition is invalid for fleets sampled later (the
    /// per-sample assertion catches mismatches in debug builds).
    pub fn set_groups(&mut self, groups: PowerGroups) {
        let series = groups.names.iter().map(|_| StepSeries::new(0.0)).collect();
        self.groups = Some((groups, series));
    }

    /// Samples the fleet after a state-changing event.
    pub fn sample_fleet(&mut self, now: SimTime, dc: &Datacenter) {
        self.powered_servers.record(now, dc.powered_count() as f64);
        self.non_idle_servers
            .record(now, dc.non_idle_count() as f64);
        self.core_utilization
            .record(now, dc.powered_core_utilization());
        self.energy.record(now, dc.total_power_w());
        self.saturation.record(now, dc.saturated_count());
        if let Some((groups, series)) = &mut self.groups {
            debug_assert_eq!(groups.assignment.len(), dc.len());
            let mut watts = vec![0.0; groups.names.len()];
            for (i, pm) in dc.pms().iter().enumerate() {
                watts[groups.assignment[i]] += pm.power_draw_w();
            }
            for (s, w) in series.iter_mut().zip(watts) {
                s.record(now, w);
            }
        }
    }

    /// Records one request arrival.
    pub fn record_arrival(&mut self) {
        self.arrivals += 1;
    }

    /// Records one VM departure that served `core_seconds` of work
    /// (cores × actual runtime) — the revenue-bearing throughput.
    pub fn record_departure(&mut self, core_seconds: f64) {
        self.departures += 1;
        self.served_core_seconds += core_seconds;
    }

    /// Records one started live migration.
    pub fn record_migration(&mut self) {
        self.migrations += 1;
    }

    /// Records a planned migration that could not be applied (capacity was
    /// consumed by in-flight reservations — DESIGN.md I9).
    pub fn record_skipped_migration(&mut self) {
        self.skipped_migrations += 1;
    }

    /// Records a PM failure.
    pub fn record_pm_failure(&mut self) {
        self.pm_failures += 1;
    }

    /// Records an in-flight migration aborted because its *destination*
    /// failed: the destination reservation is released and the VM keeps
    /// running on its source.
    pub fn record_failure_aborted_migration(&mut self) {
        self.failure_aborted_migrations += 1;
    }

    /// Records an in-flight migration whose *source* failed: the VM's
    /// only consistent copy died mid-copy, so the VM is lost (and the
    /// destination reservation released).
    pub fn record_failure_lost_migration(&mut self) {
        self.failure_lost_migrations += 1;
    }

    /// Records one in-place VM reservation resize (vertical elasticity).
    pub fn record_resize(&mut self) {
        self.resizes += 1;
    }

    /// Records a resize request that could not be honoured (VM not in a
    /// resizable state, or the grown reservation exceeds even the host's
    /// virtual capacity).
    pub fn record_rejected_resize(&mut self) {
        self.rejected_resizes += 1;
    }

    /// The integrating energy meter (read access for live inspection).
    pub fn energy(&self) -> &EnergyMeter {
        &self.energy
    }

    /// The integrating saturated-PM meter (read access for live
    /// inspection and the checked-mode oracle's cross-check).
    pub fn saturation(&self) -> &SaturationMeter {
        &self.saturation
    }

    /// Freezes the run into a report over `[0, horizon)`.
    pub fn finish(&self, policy: &str, horizon: SimTime) -> RunReport {
        const JOULES_PER_KWH: f64 = 3_600_000.0;
        let (group_names, group_hourly_kwh) = match &self.groups {
            None => (Vec::new(), Vec::new()),
            Some((groups, series)) => (
                groups.names.clone(),
                series
                    .iter()
                    .map(|s| {
                        s.bucket_integrals(SimDuration::HOUR, horizon)
                            .into_iter()
                            .map(|j| j / JOULES_PER_KWH)
                            .collect()
                    })
                    .collect(),
            ),
        };
        RunReport {
            group_names,
            group_hourly_kwh,
            policy: policy.to_owned(),
            horizon,
            hourly_active_servers: self
                .powered_servers
                .bucket_means(SimDuration::HOUR, horizon),
            hourly_non_idle_servers: self
                .non_idle_servers
                .bucket_means(SimDuration::HOUR, horizon),
            hourly_core_utilization: self
                .core_utilization
                .bucket_means(SimDuration::HOUR, horizon),
            peak_active_servers: self.powered_servers.max_over(SimTime::ZERO, horizon),
            hourly_power_kwh: self.energy.hourly_kwh(horizon),
            daily_power_kwh: self.energy.daily_kwh(horizon),
            total_energy_kwh: self.energy.total_kwh(horizon),
            mean_power_kw: self.energy.mean_power_w(horizon) / 1_000.0,
            total_arrivals: self.arrivals,
            total_departures: self.departures,
            total_migrations: self.migrations,
            skipped_migrations: self.skipped_migrations,
            pm_failures: self.pm_failures,
            failure_aborted_migrations: self.failure_aborted_migrations,
            failure_lost_migrations: self.failure_lost_migrations,
            total_resizes: self.resizes,
            rejected_resizes: self.rejected_resizes,
            sla_violation_seconds: self.saturation.violation_seconds(horizon),
            peak_saturated_pms: self.saturation.peak(horizon),
            served_core_hours: self.served_core_seconds / 3_600.0,
            qos: self.qos.summary(),
            oracle: None,
            obs: self.obs_baseline.as_ref().map(|base| ObsReport {
                totals: dvmp_obs::counters_snapshot().delta_from(base),
            }),
            timeseries: self.ts_store.as_ref().map(TimeSeriesStore::report),
            meta: None,
        }
    }
}

/// Self-describing run metadata, so trajectory entries and archived
/// reports carry their own provenance. Filled by the simulator
/// (deterministic fields) and the CLI (wall clock — kept out of
/// `execute()` so two same-seed runs still serialize identically).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunMeta {
    /// Workload/scenario RNG seed.
    pub seed: u64,
    /// Short git commit sha of the build tree (`"unknown"` off-repo).
    pub git_sha: String,
    /// Report schema version ([`RUN_REPORT_SCHEMA`]).
    pub schema: u32,
    /// Host hardware threads at run time.
    pub host_threads: u64,
    /// Wall-clock duration of the run in seconds (0 when the producer
    /// did not time it — e.g. library callers of `execute()`).
    #[serde(default)]
    pub wall_seconds: f64,
}

impl RunMeta {
    /// Metadata for the current process and the given seed (wall clock
    /// left at 0 for the caller that times the run to fill).
    pub fn for_run(seed: u64) -> RunMeta {
        RunMeta {
            seed,
            git_sha: dvmp_obs::git_sha().to_string(),
            schema: RUN_REPORT_SCHEMA,
            host_threads: dvmp_obs::host_threads() as u64,
            wall_seconds: 0.0,
        }
    }
}

/// The observability section of a [`RunReport`]: per-run counter totals
/// (`--obs-summary`). The per-control-interval counter deltas live in the
/// `timeseries` section's `ctr_*` channels.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsReport {
    /// Counter deltas over the whole run.
    pub totals: ObsCounters,
}

/// Immutable results of one simulation run — everything Figs. 3–5 plot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy name (figure legend).
    pub policy: String,
    /// Report horizon.
    pub horizon: SimTime,
    /// Time-weighted mean *powered* servers per hour (Fig. 3).
    pub hourly_active_servers: Vec<f64>,
    /// Time-weighted mean non-idle servers per hour.
    pub hourly_non_idle_servers: Vec<f64>,
    /// Time-weighted mean core utilization of the powered fleet per hour
    /// (packing quality: how little capacity stays powered but unused).
    pub hourly_core_utilization: Vec<f64>,
    /// Peak powered-server count.
    pub peak_active_servers: f64,
    /// Energy per hour, kWh (Fig. 4).
    pub hourly_power_kwh: Vec<f64>,
    /// Energy per day, kWh (Fig. 5).
    pub daily_power_kwh: Vec<f64>,
    /// Total energy, kWh.
    pub total_energy_kwh: f64,
    /// Mean power, kW.
    pub mean_power_kw: f64,
    /// Requests that arrived.
    pub total_arrivals: u64,
    /// VMs that completed.
    pub total_departures: u64,
    /// Live migrations performed.
    pub total_migrations: u64,
    /// Planned migrations dropped at apply time.
    pub skipped_migrations: u64,
    /// PM failures injected.
    pub pm_failures: u64,
    /// In-flight migrations aborted by a destination-PM failure (VM kept
    /// running on its source).
    pub failure_aborted_migrations: u64,
    /// In-flight migrations whose source PM failed mid-copy (VM lost).
    pub failure_lost_migrations: u64,
    /// In-place VM reservation resizes performed (vertical elasticity).
    #[serde(default)]
    pub total_resizes: u64,
    /// Resize requests rejected (VM not resizable, or over capacity).
    #[serde(default)]
    pub rejected_resizes: u64,
    /// SLA-violation exposure: saturated-PM · seconds where occupancy
    /// exceeded *physical* capacity on a powered PM. Nonzero only under
    /// overbooking (ratio > 1.0).
    #[serde(default)]
    pub sla_violation_seconds: f64,
    /// Peak simultaneous physically-saturated PM count.
    #[serde(default)]
    pub peak_saturated_pms: f64,
    /// Core·hours of completed work (the revenue-bearing throughput).
    pub served_core_hours: f64,
    /// Queue-wait summary.
    pub qos: QosSummary,
    /// Checked-mode audit summary (`None` unless the run was checked).
    pub oracle: Option<OracleSummary>,
    /// Observability counters (`None` unless obs sampling was armed).
    #[serde(default)]
    pub obs: Option<ObsReport>,
    /// Multi-resolution telemetry series (`None` unless obs sampling was
    /// armed and at least one control interval fired).
    #[serde(default)]
    pub timeseries: Option<TimeSeriesReport>,
    /// Run provenance (`None` on reports from older producers).
    #[serde(default)]
    pub meta: Option<RunMeta>,
    /// Names of the power groups (empty unless grouping was enabled).
    pub group_names: Vec<String>,
    /// Per-group energy per hour, kWh (`group_hourly_kwh[g][h]`).
    pub group_hourly_kwh: Vec<Vec<f64>>,
}

impl RunReport {
    /// Mean of the hourly active-server series.
    pub fn mean_active_servers(&self) -> f64 {
        if self.hourly_active_servers.is_empty() {
            return 0.0;
        }
        self.hourly_active_servers.iter().sum::<f64>() / self.hourly_active_servers.len() as f64
    }

    /// Energy saved relative to `other`, as a fraction of `other`'s total.
    pub fn energy_saving_vs(&self, other: &RunReport) -> f64 {
        if other.total_energy_kwh == 0.0 {
            return 0.0;
        }
        1.0 - self.total_energy_kwh / other.total_energy_kwh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmp_cluster::datacenter::FleetBuilder;
    use dvmp_cluster::pm::{PmClass, PmId};
    use dvmp_cluster::resources::ResourceVector;
    use dvmp_cluster::vm::VmId;
    use dvmp_cluster::FleetOp;

    fn fleet() -> Datacenter {
        FleetBuilder::new()
            .add_class(PmClass::paper_fast(), 2, 0.99)
            .initially_on(true)
            .build()
    }

    #[test]
    fn sample_fleet_tracks_power_and_counts() {
        let mut dc = fleet();
        let mut rec = SimulationRecorder::new();
        rec.sample_fleet(SimTime::ZERO, &dc); // 2 idle fast: 480 W
        let (vm, pm, demand) = (VmId(1), PmId(0), ResourceVector::cpu_mem(1, 512));
        dc.apply(FleetOp::Place { vm, pm, demand }).unwrap();
        rec.sample_fleet(SimTime::from_mins(30), &dc); // 400 + 240 = 640 W

        let report = rec.finish("test", SimTime::from_hours(1));
        assert_eq!(report.hourly_active_servers, vec![2.0]);
        assert_eq!(report.hourly_non_idle_servers, vec![0.5]);
        // Energy: 480 W × 0.5 h + 640 W × 0.5 h = 560 Wh = 0.56 kWh.
        assert!((report.total_energy_kwh - 0.56).abs() < 1e-9);
        assert!((report.hourly_power_kwh[0] - 0.56).abs() < 1e-9);
        assert!((report.mean_power_kw - 0.56).abs() < 1e-9);
    }

    #[test]
    fn event_counters_aggregate() {
        let dc = fleet();
        let mut rec = SimulationRecorder::new();
        rec.sample_fleet(SimTime::ZERO, &dc);
        rec.record_arrival();
        rec.record_arrival();
        rec.record_departure(7_200.0);
        rec.record_migration();
        rec.record_skipped_migration();
        rec.record_pm_failure();
        let r = rec.finish("test", SimTime::from_hours(1));
        assert_eq!(r.total_arrivals, 2);
        assert_eq!(r.total_departures, 1);
        assert!((r.served_core_hours - 2.0).abs() < 1e-12);
        assert_eq!(r.total_migrations, 1);
        assert_eq!(r.skipped_migrations, 1);
        assert_eq!(r.pm_failures, 1);
    }

    #[test]
    fn saturation_and_resize_accounting() {
        use dvmp_cluster::resources::OverbookRatios;
        // One fast PM overbooked 200 %/200 %: physical 8 cores / 8192 MiB,
        // virtual 16 / 16384.
        let mut dc = FleetBuilder::new()
            .add_class_overbooked(
                PmClass::paper_fast(),
                1,
                0.99,
                OverbookRatios::cpu_mem(200, 200),
            )
            .initially_on(true)
            .build();
        let mut rec = SimulationRecorder::new();
        rec.sample_fleet(SimTime::ZERO, &dc);
        // 10 cores fits the virtual envelope but saturates the hardware.
        let (vm, pm, demand) = (VmId(1), PmId(0), ResourceVector::cpu_mem(10, 4_096));
        dc.apply(FleetOp::Place { vm, pm, demand }).unwrap();
        rec.sample_fleet(SimTime::from_mins(30), &dc);
        rec.record_resize();
        rec.record_rejected_resize();
        let r = rec.finish("test", SimTime::from_hours(1));
        assert_eq!(r.total_resizes, 1);
        assert_eq!(r.rejected_resizes, 1);
        assert!((r.sla_violation_seconds - 1_800.0).abs() < 1e-9, "{r:?}");
        assert_eq!(r.peak_saturated_pms, 1.0);
    }

    #[test]
    fn legacy_report_without_elasticity_fields_parses() {
        let rec = SimulationRecorder::new();
        let report = rec.finish("test", SimTime::from_hours(1));
        let mut json = serde_json::to_string(&report).unwrap();
        // Strip the schema-v6 elasticity fields the way a pre-elasticity
        // report would lack them (float zero may print as 0 or 0.0).
        for pat in [
            ",\"total_resizes\":0",
            ",\"rejected_resizes\":0",
            ",\"sla_violation_seconds\":0.0",
            ",\"sla_violation_seconds\":0",
            ",\"peak_saturated_pms\":0.0",
            ",\"peak_saturated_pms\":0",
        ] {
            json = json.replace(pat, "");
        }
        assert!(!json.contains("total_resizes"), "{json}");
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.total_resizes, 0);
        assert_eq!(back.sla_violation_seconds, 0.0);
    }

    #[test]
    fn energy_saving_comparison() {
        let mk = |kwh: f64| RunReport {
            policy: "x".into(),
            horizon: SimTime::from_hours(1),
            hourly_active_servers: vec![],
            hourly_non_idle_servers: vec![],
            hourly_core_utilization: vec![],
            peak_active_servers: 0.0,
            hourly_power_kwh: vec![],
            daily_power_kwh: vec![],
            total_energy_kwh: kwh,
            mean_power_kw: 0.0,
            total_arrivals: 0,
            total_departures: 0,
            total_migrations: 0,
            skipped_migrations: 0,
            pm_failures: 0,
            failure_aborted_migrations: 0,
            failure_lost_migrations: 0,
            total_resizes: 0,
            rejected_resizes: 0,
            sla_violation_seconds: 0.0,
            peak_saturated_pms: 0.0,
            served_core_hours: 0.0,
            qos: QosTracker::new().summary(),
            oracle: None,
            obs: None,
            timeseries: None,
            meta: None,
            group_names: vec![],
            group_hourly_kwh: vec![],
        };
        let dynamic = mk(70.0);
        let static_ff = mk(100.0);
        assert!((dynamic.energy_saving_vs(&static_ff) - 0.3).abs() < 1e-12);
        assert_eq!(dynamic.energy_saving_vs(&mk(0.0)), 0.0);
    }

    #[test]
    fn mean_active_servers_of_series() {
        let mut rec = SimulationRecorder::new();
        let dc = fleet();
        rec.sample_fleet(SimTime::ZERO, &dc);
        let r = rec.finish("t", SimTime::from_hours(3));
        assert_eq!(r.hourly_active_servers.len(), 3);
        assert_eq!(r.mean_active_servers(), 2.0);
    }
}
