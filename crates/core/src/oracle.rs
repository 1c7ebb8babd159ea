//! The checked-mode invariant oracle and reference model.
//!
//! With [`SimConfig::checked`](crate::config::SimConfig::checked) set, the
//! simulator audits itself after **every** event — in release builds, where
//! the `debug_assert` consistency checks are compiled out and all paper
//! numbers are produced. The oracle never panics: broken invariants become
//! structured [`Violation`]s in the report, so a long experiment returns
//! its evidence instead of dying at the first inconsistency.
//!
//! Three ingredients (DESIGN.md §9):
//!
//! 1. **Per-event invariants** over the live fleet: per-dimension capacity
//!    (reservation sums equal `used`, `used` never exceeds capacity — with
//!    in-flight migrations double-reserved on both hosts), the VM ↔ PM
//!    bijection between the fleet index, the per-PM reservation sets and
//!    the VM lifecycle states, event-time monotonicity, and agreement
//!    between the fleet's instantaneous power draw and the energy meter.
//! 2. **A reference model**: an obviously-correct replay of the fleet
//!    state machine. The simulator reports every fleet mutation as a
//!    [`FleetOp`]; the model applies it to a plain `VmId → [(PmId, demand)]`
//!    map and is diffed against the live datacenter after each event. A
//!    bug in the datacenter's incremental bookkeeping (or a mutation that
//!    bypassed the op stream) surfaces as a divergence.
//! 3. **Sparse deep audits**: checks that scan the whole history — queue /
//!    request conservation and the energy *integral* (an independent
//!    re-integration of the power step function vs the meter) — run every
//!    [`DEEP_AUDIT_STRIDE`] events and once more at the end of the run, so
//!    their cost amortizes to ~zero while still bounding drift.
//!
//! To keep the end-to-end overhead within the DESIGN.md §9 budget, the
//! per-event capacity / bijection / reference checks are *incremental*:
//! each [`FleetOp`] marks the PMs and VMs it touched, and the next audit
//! verifies exactly those against the live fleet. A mutation that bypasses
//! the op stream touches nothing — it is caught by the full-fleet sweep
//! that runs with every deep audit and once more at the end of the run.

use dvmp_cluster::datacenter::Datacenter;
use dvmp_cluster::pm::{Pm, PmId};
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::{VmId, VmState};
use dvmp_cluster::VmTable;
use dvmp_metrics::energy::EnergyMeter;
use dvmp_metrics::sla::SaturationMeter;
use dvmp_metrics::violation::{Invariant, OracleSummary, Violation};
use dvmp_simcore::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Retained-violation cap; everything past it is counted, not stored.
pub const MAX_RETAINED_VIOLATIONS: usize = 64;

/// Deep audits (conservation + energy integral) run every this many events.
pub const DEEP_AUDIT_STRIDE: u64 = 4_096;

/// Relative tolerance for the energy-integral comparison. The oracle sums
/// the same power × dt products in the same order as the meter, so the
/// real disagreement is ~0; the slack only covers summation reordering.
const ENERGY_REL_TOL: f64 = 1e-6;

/// Relative tolerance for the SLA saturation-integral comparison (same
/// reasoning as [`ENERGY_REL_TOL`]: identical step function, identical
/// order, slack for float reassociation only).
const SLA_REL_TOL: f64 = 1e-6;

/// One fleet mutation, as reported by the simulator to the oracle.
///
/// These five operations are the complete mutation vocabulary of the
/// simulator against the datacenter's reservation state; power-state
/// transitions are audited directly off the live fleet and need no ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetOp {
    /// `Datacenter::place`: `vm` reserved `demand` on `pm` as sole host.
    Place {
        /// The placed VM.
        vm: VmId,
        /// Its host.
        pm: PmId,
        /// Its reservation.
        demand: ResourceVector,
    },
    /// `Datacenter::begin_migration`: `demand` additionally reserved on
    /// `to`, which becomes the current host.
    BeginMigration {
        /// The migrating VM.
        vm: VmId,
        /// The destination PM.
        to: PmId,
        /// The reservation taken on the destination.
        demand: ResourceVector,
    },
    /// `Datacenter::finish_migration`: the reservation on `from` released.
    FinishMigration {
        /// The migrated VM.
        vm: VmId,
        /// The source PM being released.
        from: PmId,
    },
    /// `Datacenter::remove_vm`: every reservation of `vm` released.
    Remove {
        /// The departing (or restarted-after-failure) VM.
        vm: VmId,
    },
    /// `Datacenter::fail_pm`: `pm` failed; its reservations evicted, other
    /// reservations of mid-migration VMs retained.
    Fail {
        /// The failed PM.
        pm: PmId,
    },
    /// `Datacenter::resize_vm`: the sole reservation of `vm` changed to
    /// `new` in place (vertical elasticity). Only a VM with exactly one
    /// host may resize — the simulator rejects resizes of queued,
    /// completed or mid-migration VMs before they reach the fleet.
    Resize {
        /// The resized VM.
        vm: VmId,
        /// Its new reservation.
        new: ResourceVector,
    },
}

/// The obviously-correct fleet state machine: just a map from VM to its
/// reservation list (current host first), mutated exactly as the
/// datacenter documents its operations — no incremental occupancy sums,
/// no reverse index, nothing clever enough to share a bug with the real
/// implementation.
#[derive(Debug, Default, Clone)]
pub struct ReferenceModel {
    hosts: BTreeMap<VmId, Vec<(PmId, ResourceVector)>>,
}

impl ReferenceModel {
    /// Empty model (matches an idle fleet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of VMs currently holding at least one reservation.
    pub fn active_vms(&self) -> usize {
        self.hosts.len()
    }

    /// Applies one operation; errors describe ops that are nonsensical
    /// against the model's state (the simulator issuing such an op is
    /// itself a finding).
    pub fn apply(&mut self, op: &FleetOp) -> Result<(), String> {
        match *op {
            FleetOp::Place { vm, pm, demand } => {
                let entry = self.hosts.entry(vm).or_default();
                if !entry.is_empty() {
                    return Err(format!("place of {vm} which already has reservations"));
                }
                entry.push((pm, demand));
                Ok(())
            }
            FleetOp::BeginMigration { vm, to, demand } => {
                let Some(entry) = self.hosts.get_mut(&vm) else {
                    return Err(format!("begin_migration of unhosted {vm}"));
                };
                if entry.iter().any(|&(p, _)| p == to) {
                    return Err(format!("begin_migration of {vm} onto its own host {to}"));
                }
                // Mirrors the datacenter: the destination becomes the
                // current host (front of the list).
                entry.insert(0, (to, demand));
                Ok(())
            }
            FleetOp::FinishMigration { vm, from } => {
                let Some(entry) = self.hosts.get_mut(&vm) else {
                    return Err(format!("finish_migration of unhosted {vm}"));
                };
                let before = entry.len();
                entry.retain(|&(p, _)| p != from);
                if entry.len() == before {
                    return Err(format!("finish_migration of {vm} with no hold on {from}"));
                }
                if entry.is_empty() {
                    self.hosts.remove(&vm);
                    return Err(format!("finish_migration left {vm} with no hosts"));
                }
                Ok(())
            }
            FleetOp::Remove { vm } => {
                // remove_vm on an unhosted VM is a no-op in the live
                // datacenter (the source-failure path relies on it).
                self.hosts.remove(&vm);
                Ok(())
            }
            FleetOp::Fail { pm } => {
                self.hosts.retain(|_, entry| {
                    entry.retain(|&(p, _)| p != pm);
                    !entry.is_empty()
                });
                Ok(())
            }
            FleetOp::Resize { vm, new } => {
                let Some(entry) = self.hosts.get_mut(&vm) else {
                    return Err(format!("resize of unhosted {vm}"));
                };
                if entry.len() != 1 {
                    return Err(format!(
                        "resize of {vm} while it holds {} reservations (mid-migration)",
                        entry.len()
                    ));
                }
                entry[0].1 = new;
                Ok(())
            }
        }
    }

    /// Diffs the model against the live fleet, appending one description
    /// per divergence to `out` (capped by the caller).
    fn diff(&self, dc: &Datacenter, out: &mut Vec<(Invariant, String)>) {
        // Model → live: every modeled reservation must exist, in order,
        // with the same demand.
        for &vm in self.hosts.keys() {
            self.diff_vm(dc, vm, out);
        }
        // Live → model: no reservation the model does not know about.
        for pm in dc.pms() {
            self.check_pm_known(pm, out);
        }
    }

    /// Model ↔ live comparison for one VM. A VM absent from the model must
    /// hold no live reservations either.
    fn diff_vm(&self, dc: &Datacenter, vm: VmId, out: &mut Vec<(Invariant, String)>) {
        const EMPTY: &[(PmId, ResourceVector)] = &[];
        let entry = self.hosts.get(&vm).map_or(EMPTY, Vec::as_slice);
        let live = dc.hosts_of(vm);
        if live.len() != entry.len() || !entry.iter().zip(live).all(|(&(p, _), &l)| p == l) {
            out.push((
                Invariant::ReferenceDivergence,
                format!("{vm}: model hosts {entry:?} but live index {live:?}"),
            ));
            return;
        }
        for &(pm, demand) in entry {
            match dc.pm(pm).reservation_of(vm) {
                Some(r) if *r == demand => {}
                got => out.push((
                    Invariant::ReferenceDivergence,
                    format!("{vm} on {pm}: model demand {demand:?}, live {got:?}"),
                )),
            }
        }
    }

    /// Live → model for one PM: every reservation it holds is modeled.
    fn check_pm_known(&self, pm: &Pm, out: &mut Vec<(Invariant, String)>) {
        for vm in pm.hosted_vms() {
            let known = self
                .hosts
                .get(&vm)
                .is_some_and(|e| e.iter().any(|&(p, _)| p == pm.id));
            if !known {
                out.push((
                    Invariant::ReferenceDivergence,
                    format!("{vm} reserved on {} but unknown to the model", pm.id),
                ));
            }
        }
    }
}

/// The checked-mode auditor. One per simulation run; owned by the
/// simulator and fed through [`record`](Oracle::record) (fleet ops) and
/// [`audit`](Oracle::audit) (post-event checks).
#[derive(Debug, Clone)]
pub struct Oracle {
    reference: ReferenceModel,
    /// Op-stream errors found by the reference model, waiting for the
    /// next audit to surface them. Each is stamped with the sim time and
    /// event ordinal of the *op itself* (not of the audit that drains it),
    /// so `Violation` reports carry the failing event uniformly.
    pending_op_errors: Vec<PendingOpError>,
    /// PMs touched by ops since the last audit (incremental check scope).
    touched_pms: Vec<PmId>,
    /// VMs touched by ops since the last audit (incremental check scope).
    touched_vms: Vec<VmId>,
    last_time: SimTime,
    last_power_w: f64,
    /// Independent energy integral (joules), re-integrating the power
    /// step function the meter also sees.
    energy_j: f64,
    /// Physically-saturated PM count as of `last_time`.
    last_saturated: f64,
    /// Independent SLA integral (saturated-PM · seconds), re-integrating
    /// the saturation step function the SLA meter also sees.
    sla_violation_s: f64,
    events_audited: u64,
    violations: Vec<Violation>,
    dropped: u64,
    /// Flight-recorder capture taken at the first violation (kept for the
    /// summary). `None` while the run is clean or when obs recording is
    /// disabled.
    flight_dump: Option<dvmp_obs::FlightDump>,
}

/// An op-stream error with the identity of the event that caused it.
#[derive(Debug, Clone)]
struct PendingOpError {
    time: SimTime,
    seq: u64,
    detail: String,
}

impl Oracle {
    /// A fresh oracle over the fleet's t = 0 state.
    pub fn new(dc: &Datacenter) -> Self {
        Oracle {
            reference: ReferenceModel::new(),
            pending_op_errors: Vec::new(),
            touched_pms: Vec::new(),
            touched_vms: Vec::new(),
            last_time: SimTime::ZERO,
            last_power_w: dc.total_power_w(),
            energy_j: 0.0,
            last_saturated: dc.saturated_count() as f64,
            sla_violation_s: 0.0,
            events_audited: 0,
            violations: Vec::new(),
            dropped: 0,
            flight_dump: None,
        }
    }

    /// Read access to the reference model (tests, diagnostics).
    pub fn reference(&self) -> &ReferenceModel {
        &self.reference
    }

    /// Violations observed so far.
    pub fn violation_count(&self) -> u64 {
        self.violations.len() as u64 + self.dropped
    }

    /// Feeds one fleet mutation to the reference model, marking the PMs
    /// and VMs it touches so the next audit can verify exactly those.
    /// `now` is the sim time of the event performing the op; any op-stream
    /// error is stamped with it (and the event's ordinal) rather than with
    /// the later audit that reports it.
    pub fn record(&mut self, now: SimTime, op: &FleetOp) {
        match *op {
            FleetOp::Place { vm, pm, .. } => {
                self.touched_vms.push(vm);
                self.touched_pms.push(pm);
            }
            FleetOp::BeginMigration { vm, to, .. } | FleetOp::FinishMigration { vm, from: to } => {
                self.touched_vms.push(vm);
                self.touched_pms.push(to);
                if let Some(entry) = self.reference.hosts.get(&vm) {
                    self.touched_pms.extend(entry.iter().map(|&(p, _)| p));
                }
            }
            FleetOp::Remove { vm } => {
                self.touched_vms.push(vm);
                if let Some(entry) = self.reference.hosts.get(&vm) {
                    self.touched_pms.extend(entry.iter().map(|&(p, _)| p));
                }
            }
            FleetOp::Fail { pm } => {
                self.touched_pms.push(pm);
                // Eviction touches every VM holding a reservation there
                // (failures are rare; the scan does not affect the common
                // path).
                for (&vm, entry) in &self.reference.hosts {
                    if entry.iter().any(|&(p, _)| p == pm) {
                        self.touched_vms.push(vm);
                    }
                }
            }
            FleetOp::Resize { vm, .. } => {
                self.touched_vms.push(vm);
                if let Some(entry) = self.reference.hosts.get(&vm) {
                    self.touched_pms.extend(entry.iter().map(|&(p, _)| p));
                }
            }
        }
        if let Err(e) = self.reference.apply(op) {
            // The op belongs to the event the *next* audit will stamp:
            // `events_audited` counts completed audits, so the in-flight
            // event's ordinal is the successor.
            self.pending_op_errors.push(PendingOpError {
                time: now,
                seq: self.events_audited + 1,
                detail: e,
            });
        }
    }

    /// Audits the settled post-event state. `seq` is the engine's 1-based
    /// event counter; `vms`/`queue` are the simulator's lifecycle and
    /// backlog views; `meter`/`sla` are the recorder's energy and
    /// saturation meters (already sampled for this event).
    #[allow(clippy::too_many_arguments)]
    pub fn audit(
        &mut self,
        now: SimTime,
        seq: u64,
        dc: &Datacenter,
        vms: &VmTable,
        queue: &VecDeque<VmId>,
        meter: &EnergyMeter,
        sla: &SaturationMeter,
    ) {
        self.events_audited += 1;
        let mut found: Vec<(Invariant, String)> = Vec::new();

        // Time monotonicity.
        if now < self.last_time {
            found.push((
                Invariant::TimeMonotone,
                format!("event at {now} after clock reached {}", self.last_time),
            ));
        }

        // Advance the independent energy and SLA integrals over
        // [last_time, now).
        let dt = now.saturating_since(self.last_time).as_secs_f64();
        self.energy_j += self.last_power_w * dt;
        self.sla_violation_s += self.last_saturated * dt;
        let live_power = dc.total_power_w();
        let metered = meter.power_at(now);
        if (metered - live_power).abs() > 1e-9 * live_power.abs().max(1.0) {
            found.push((
                Invariant::EnergyIntegral,
                format!("meter reads {metered} W at {now}, fleet draws {live_power} W"),
            ));
        }
        let live_saturated = dc.saturated_count() as f64;
        let metered_saturated = sla.saturated_at(now);
        if metered_saturated != live_saturated {
            found.push((
                Invariant::SlaConservation,
                format!(
                    "SLA meter reads {metered_saturated} saturated PMs at {now}, fleet has {live_saturated}"
                ),
            ));
        }
        self.last_power_w = live_power;
        self.last_saturated = live_saturated;
        self.last_time = now;

        if self.events_audited % DEEP_AUDIT_STRIDE == 0 {
            // Full-fleet sweep + the whole-history checks; subsumes the
            // incremental scope.
            self.check_capacity_and_bijection(dc, vms, &mut found);
            self.reference.diff(dc, &mut found);
            self.deep_audit(now, vms, queue, meter, sla, &mut found);
            self.touched_pms.clear();
            self.touched_vms.clear();
        } else {
            self.check_touched(dc, vms, &mut found);
        }

        self.commit(seq, now, dc, found);
    }

    /// Verifies capacity / bijection / reference agreement for exactly the
    /// PMs and VMs touched since the last audit.
    fn check_touched(
        &mut self,
        dc: &Datacenter,
        vms: &VmTable,
        found: &mut Vec<(Invariant, String)>,
    ) {
        let mut pms = std::mem::take(&mut self.touched_pms);
        let mut vm_ids = std::mem::take(&mut self.touched_vms);
        pms.sort_unstable();
        pms.dedup();
        vm_ids.sort_unstable();
        vm_ids.dedup();
        for &pm_id in &pms {
            let pm = dc.pm(pm_id);
            Self::check_pm(pm, dc, vms, found);
            self.reference.check_pm_known(pm, found);
        }
        for &vm in &vm_ids {
            self.reference.diff_vm(dc, vm, found);
        }
        // Hand the (cleared) buffers back so their capacity is reused.
        pms.clear();
        vm_ids.clear();
        self.touched_pms = pms;
        self.touched_vms = vm_ids;
    }

    /// Final audit at the horizon; consumes the oracle into its summary.
    #[allow(clippy::too_many_arguments)]
    pub fn into_summary(
        mut self,
        horizon: SimTime,
        dc: &Datacenter,
        vms: &VmTable,
        queue: &VecDeque<VmId>,
        meter: &EnergyMeter,
        sla: &SaturationMeter,
    ) -> OracleSummary {
        self.events_audited += 1;
        let mut found: Vec<(Invariant, String)> = Vec::new();
        // Close the integrals out to the horizon, like the meters do.
        let dt = horizon.saturating_since(self.last_time).as_secs_f64();
        self.energy_j += self.last_power_w * dt;
        self.sla_violation_s += self.last_saturated * dt;
        self.last_time = horizon;
        self.check_capacity_and_bijection(dc, vms, &mut found);
        self.reference.diff(dc, &mut found);
        self.deep_audit(horizon, vms, queue, meter, sla, &mut found);
        let seq = self.events_audited;
        self.commit(seq, horizon, dc, found);
        OracleSummary {
            events_audited: self.events_audited,
            violations: self.violations,
            dropped_violations: self.dropped,
            flight_dump: self.flight_dump,
        }
    }

    /// Per-dimension capacity conservation and the VM ↔ PM bijection,
    /// fleet-wide (deep audits and the final audit).
    fn check_capacity_and_bijection(
        &mut self,
        dc: &Datacenter,
        vms: &VmTable,
        found: &mut Vec<(Invariant, String)>,
    ) {
        for pm in dc.pms() {
            Self::check_pm(pm, dc, vms, found);
        }
    }

    /// Capacity conservation and bijection for one PM.
    fn check_pm(pm: &Pm, dc: &Datacenter, vms: &VmTable, found: &mut Vec<(Invariant, String)>) {
        let cap = *pm.capacity();
        let mut sum = ResourceVector::zero(cap.k());
        for vm in pm.hosted_vms() {
            match pm.reservation_of(vm) {
                Some(r) => sum = sum.add(r),
                None => found.push((
                    Invariant::Bijection,
                    format!("{vm} hosted on {} without a reservation", pm.id),
                )),
            }
            if !dc.hosts_of(vm).contains(&pm.id) {
                found.push((
                    Invariant::Bijection,
                    format!("{vm} reserved on {} but missing from the index", pm.id),
                ));
            }
            // Lifecycle agreement for every VM that holds resources.
            match vms.get(vm).map(|v| v.state) {
                Some(VmState::Creating { pm: host, .. } | VmState::Running { pm: host }) => {
                    if host != pm.id {
                        found.push((
                            Invariant::Bijection,
                            format!("{vm} reserved on {} but its state names {host}", pm.id),
                        ));
                    }
                }
                Some(VmState::Migrating { from, to, .. }) => {
                    if pm.id != from && pm.id != to {
                        found.push((
                            Invariant::Bijection,
                            format!("{vm} migrating {from}→{to} but also reserved on {}", pm.id),
                        ));
                    }
                }
                other => found.push((
                    Invariant::Bijection,
                    format!("{vm} reserved on {} in lifecycle state {other:?}", pm.id),
                )),
            }
        }
        if &sum != pm.used() {
            found.push((
                Invariant::Capacity,
                format!(
                    "{}: reservations sum to {sum:?} but used is {:?}",
                    pm.id,
                    pm.used()
                ),
            ));
        }
        // Admission is bounded by the *virtual* capacity (physical ×
        // overbook ratio; identical to physical when not overbooked).
        // Physical saturation on an overbooked PM is legitimate — it is
        // metered as SLA-violation time, not flagged here.
        let vcap = pm.virtual_capacity();
        for d in 0..vcap.k() {
            if pm.used().get(d) > vcap.get(d) {
                let invariant = if pm.overbook.is_some() {
                    Invariant::VirtualCapacity
                } else {
                    Invariant::Capacity
                };
                found.push((
                    invariant,
                    format!(
                        "{}: dim {d} used {} of virtual {}",
                        pm.id,
                        pm.used().get(d),
                        vcap.get(d)
                    ),
                ));
            }
        }
    }

    /// Whole-history checks, run sparsely: queue/request conservation and
    /// the energy and SLA integrals.
    #[allow(clippy::too_many_arguments)]
    fn deep_audit(
        &mut self,
        now: SimTime,
        vms: &VmTable,
        queue: &VecDeque<VmId>,
        meter: &EnergyMeter,
        sla: &SaturationMeter,
        found: &mut Vec<(Invariant, String)>,
    ) {
        // Queue entries must be distinct, known, and in the Queued state.
        let mut seen: Vec<VmId> = queue.iter().copied().collect();
        seen.sort_unstable();
        if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
            found.push((
                Invariant::Conservation,
                format!("{} appears in the queue more than once", w[0]),
            ));
        }
        for &id in queue {
            match vms.get(id).map(|v| v.state) {
                Some(VmState::Queued) => {}
                other => found.push((
                    Invariant::Conservation,
                    format!("queued {id} has lifecycle state {other:?}"),
                )),
            }
        }
        // Every admitted request is in exactly one lifecycle bucket, and
        // the Queued bucket is exactly the queue.
        let queued_vms = vms
            .values()
            .filter(|v| matches!(v.state, VmState::Queued))
            .count();
        if queued_vms != seen.len() {
            found.push((
                Invariant::Conservation,
                format!(
                    "{queued_vms} VMs in Queued state but {} queue entries",
                    seen.len()
                ),
            ));
        }
        // Energy integral: the meter and the oracle re-integrated the same
        // step function; they must agree to float noise.
        let oracle_j = self.energy_j;
        let meter_j = meter.total_kwh(now) * 3_600_000.0;
        if (oracle_j - meter_j).abs() > ENERGY_REL_TOL * meter_j.abs().max(1.0) {
            found.push((
                Invariant::EnergyIntegral,
                format!("oracle integral {oracle_j} J, meter {meter_j} J at {now}"),
            ));
        }
        // SLA integral: same independence argument as energy — the meter
        // and the oracle re-integrated the same saturation step function.
        let oracle_sla = self.sla_violation_s;
        let meter_sla = sla.violation_seconds(now);
        if (oracle_sla - meter_sla).abs() > SLA_REL_TOL * meter_sla.abs().max(1.0) {
            found.push((
                Invariant::SlaConservation,
                format!(
                    "oracle SLA integral {oracle_sla} saturated-PM·s, meter {meter_sla} at {now}"
                ),
            ));
        }
    }

    /// Stamps and stores this audit's findings (shared digest, capped),
    /// surfacing any pending op-stream errors under their *own* time/seq.
    /// The first violation of the run also captures a flight-recorder dump
    /// (when obs recording is on — checked mode arms it) so the failure
    /// ships the records that led up to it.
    fn commit(&mut self, seq: u64, now: SimTime, dc: &Datacenter, found: Vec<(Invariant, String)>) {
        if found.is_empty() && self.pending_op_errors.is_empty() {
            return;
        }
        let digest = dc.state_digest();
        let push = |violations: &mut Vec<Violation>, dropped: &mut u64, v: Violation| {
            if violations.len() < MAX_RETAINED_VIOLATIONS {
                violations.push(v);
            } else {
                *dropped += 1;
            }
        };
        let op_errors = std::mem::take(&mut self.pending_op_errors);
        let total = (op_errors.len() + found.len()) as u64;
        // Header identity: the earliest failing event in this batch.
        let (first_seq, first_time) = op_errors.first().map_or((seq, now), |e| (e.seq, e.time));
        for e in op_errors {
            push(
                &mut self.violations,
                &mut self.dropped,
                Violation {
                    seq: e.seq,
                    time: e.time,
                    invariant: Invariant::ReferenceDivergence,
                    detail: e.detail,
                    state_digest: digest,
                },
            );
        }
        for (invariant, detail) in found {
            push(
                &mut self.violations,
                &mut self.dropped,
                Violation {
                    seq,
                    time: now,
                    invariant,
                    detail,
                    state_digest: digest,
                },
            );
        }
        dvmp_obs::note_oracle_violation(first_seq, total);
        if self.flight_dump.is_none() && dvmp_obs::enabled() {
            let first = self.violations.first().expect("just pushed at least one");
            let reason = format!("{}: {}", first.invariant, first.detail);
            self.flight_dump = Some(dvmp_obs::capture_flight_dump(
                &reason,
                first_seq,
                first_time.as_secs(),
                digest,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmp_cluster::datacenter::FleetBuilder;
    use dvmp_cluster::pm::PmClass;
    use dvmp_cluster::vm::{Vm, VmSpec};
    use dvmp_simcore::SimDuration;

    fn fleet() -> Datacenter {
        FleetBuilder::new()
            .add_class(PmClass::paper_fast(), 2, 0.99)
            .add_class(PmClass::paper_slow(), 2, 0.95)
            .initially_on(true)
            .build()
    }

    fn demand() -> ResourceVector {
        ResourceVector::cpu_mem(1, 512)
    }

    fn running_vm(id: u32, pm: PmId) -> Vm {
        let mut vm = Vm::new(VmSpec::exact(
            VmId(id),
            SimTime::ZERO,
            demand(),
            SimDuration::from_secs(1_000),
        ));
        vm.state = VmState::Running { pm };
        vm
    }

    /// Drives the fleet and the oracle through the same op, so tests stay
    /// in lock-step with the live datacenter.
    fn exec(dc: &mut Datacenter, oracle: &mut Oracle, op: FleetOp) {
        match op {
            FleetOp::Place { vm, pm, demand } => dc.place(vm, pm, demand).unwrap(),
            FleetOp::BeginMigration { vm, to, demand } => {
                dc.begin_migration(vm, to, demand).unwrap()
            }
            FleetOp::FinishMigration { vm, from } => dc.finish_migration(vm, from).unwrap(),
            FleetOp::Remove { vm } => {
                dc.remove_vm(vm);
            }
            FleetOp::Fail { pm } => {
                dc.fail_pm(pm);
            }
            FleetOp::Resize { vm, new } => {
                dc.resize_vm(vm, new).unwrap();
            }
        }
        oracle.record(SimTime::ZERO, &op);
    }

    fn audit_clean(
        oracle: &mut Oracle,
        at: u64,
        seq: u64,
        dc: &Datacenter,
        vms: &VmTable,
        meter: &EnergyMeter,
    ) {
        let before = oracle.violation_count();
        oracle.audit(
            SimTime::from_secs(at),
            seq,
            dc,
            vms,
            &VecDeque::new(),
            meter,
            &SaturationMeter::new(),
        );
        assert_eq!(oracle.violation_count(), before, "unexpected violations");
    }

    #[test]
    fn lock_step_lifecycle_stays_clean() {
        let mut dc = fleet();
        let mut oracle = Oracle::new(&dc);
        let mut meter = EnergyMeter::new();
        let mut vms = VmTable::new();

        meter.record(SimTime::ZERO, dc.total_power_w());
        exec(
            &mut dc,
            &mut oracle,
            FleetOp::Place {
                vm: VmId(1),
                pm: PmId(0),
                demand: demand(),
            },
        );
        vms.extend([running_vm(1, PmId(0))]);
        meter.record(SimTime::from_secs(10), dc.total_power_w());
        audit_clean(&mut oracle, 10, 1, &dc, &vms, &meter);

        exec(
            &mut dc,
            &mut oracle,
            FleetOp::BeginMigration {
                vm: VmId(1),
                to: PmId(1),
                demand: demand(),
            },
        );
        vms.get_mut(VmId(1)).unwrap().state = VmState::Migrating {
            from: PmId(0),
            to: PmId(1),
            done_at: SimTime::from_secs(80),
        };
        meter.record(SimTime::from_secs(20), dc.total_power_w());
        audit_clean(&mut oracle, 20, 2, &dc, &vms, &meter);

        exec(
            &mut dc,
            &mut oracle,
            FleetOp::FinishMigration {
                vm: VmId(1),
                from: PmId(0),
            },
        );
        vms.get_mut(VmId(1)).unwrap().state = VmState::Running { pm: PmId(1) };
        meter.record(SimTime::from_secs(80), dc.total_power_w());
        audit_clean(&mut oracle, 80, 3, &dc, &vms, &meter);

        exec(&mut dc, &mut oracle, FleetOp::Remove { vm: VmId(1) });
        vms.get_mut(VmId(1)).unwrap().state = VmState::Completed {
            at: SimTime::from_secs(100),
        };
        meter.record(SimTime::from_secs(100), dc.total_power_w());
        audit_clean(&mut oracle, 100, 4, &dc, &vms, &meter);
        assert_eq!(oracle.reference().active_vms(), 0);
    }

    #[test]
    fn failure_eviction_keeps_model_in_step() {
        let mut dc = fleet();
        let mut oracle = Oracle::new(&dc);
        let mut meter = EnergyMeter::new();
        let mut vms = VmTable::new();
        meter.record(SimTime::ZERO, dc.total_power_w());

        exec(
            &mut dc,
            &mut oracle,
            FleetOp::Place {
                vm: VmId(1),
                pm: PmId(0),
                demand: demand(),
            },
        );
        vms.extend([running_vm(1, PmId(0))]);
        exec(
            &mut dc,
            &mut oracle,
            FleetOp::BeginMigration {
                vm: VmId(1),
                to: PmId(1),
                demand: demand(),
            },
        );
        vms.get_mut(VmId(1)).unwrap().state = VmState::Migrating {
            from: PmId(0),
            to: PmId(1),
            done_at: SimTime::from_secs(80),
        };
        // Destination fails mid-flight: the model must retain the source
        // reservation only, exactly like the live fleet.
        exec(&mut dc, &mut oracle, FleetOp::Fail { pm: PmId(1) });
        vms.get_mut(VmId(1)).unwrap().state = VmState::Running { pm: PmId(0) };
        meter.record(SimTime::from_secs(30), dc.total_power_w());
        audit_clean(&mut oracle, 30, 1, &dc, &vms, &meter);
        assert_eq!(dc.hosts_of(VmId(1)), &[PmId(0)]);
        assert_eq!(oracle.reference().active_vms(), 1);
    }

    #[test]
    fn tampered_fleet_is_flagged_as_divergence() {
        let mut dc = fleet();
        let mut oracle = Oracle::new(&dc);
        let mut meter = EnergyMeter::new();
        meter.record(SimTime::ZERO, dc.total_power_w());

        // A reservation taken behind the oracle's back (bypassing the op
        // stream, and bypassing the datacenter's own index).
        dc.pm_mut(PmId(2)).reserve(VmId(9), demand()).unwrap();
        let vms = VmTable::from_iter([running_vm(9, PmId(2))]);
        meter.record(SimTime::from_secs(5), dc.total_power_w());
        let sla = SaturationMeter::new();
        oracle.audit(
            SimTime::from_secs(5),
            1,
            &dc,
            &vms,
            &VecDeque::new(),
            &meter,
            &sla,
        );
        let summary = oracle.into_summary(
            SimTime::from_secs(5),
            &dc,
            &vms,
            &VecDeque::new(),
            &meter,
            &sla,
        );
        assert!(!summary.is_clean());
        assert!(
            summary
                .violations
                .iter()
                .any(|v| v.invariant == Invariant::ReferenceDivergence),
            "{summary:?}"
        );
        assert!(
            summary
                .violations
                .iter()
                .any(|v| v.invariant == Invariant::Bijection),
            "index bypass also breaks the bijection: {summary:?}"
        );
        assert!(summary.violations.iter().all(|v| v.state_digest != 0));
    }

    #[test]
    fn nonsense_ops_surface_at_the_next_audit() {
        let dc = fleet();
        let mut oracle = Oracle::new(&dc);
        let mut meter = EnergyMeter::new();
        meter.record(SimTime::ZERO, dc.total_power_w());
        oracle.record(
            SimTime::ZERO,
            &FleetOp::FinishMigration {
                vm: VmId(7),
                from: PmId(0),
            },
        );
        oracle.audit(
            SimTime::ZERO,
            1,
            &dc,
            &VmTable::new(),
            &VecDeque::new(),
            &meter,
            &SaturationMeter::new(),
        );
        assert_eq!(oracle.violation_count(), 1);
    }

    #[test]
    fn time_regression_is_flagged() {
        let dc = fleet();
        let mut oracle = Oracle::new(&dc);
        let mut meter = EnergyMeter::new();
        meter.record(SimTime::ZERO, dc.total_power_w());
        let vms = VmTable::new();
        let q = VecDeque::new();
        let sla = SaturationMeter::new();
        oracle.audit(SimTime::from_secs(100), 1, &dc, &vms, &q, &meter, &sla);
        assert_eq!(oracle.violation_count(), 0);
        oracle.audit(SimTime::from_secs(50), 2, &dc, &vms, &q, &meter, &sla);
        assert!(oracle.violation_count() >= 1);
    }

    #[test]
    fn energy_divergence_is_flagged_in_deep_audit() {
        let dc = fleet();
        let oracle = Oracle::new(&dc);
        // A meter that never saw the fleet's power: both the instantaneous
        // and the integral comparisons must fire by the final audit.
        let mut meter = EnergyMeter::new();
        meter.record(SimTime::ZERO, 1.0);
        let vms = VmTable::new();
        let q = VecDeque::new();
        let summary = oracle.into_summary(
            SimTime::from_hours(1),
            &dc,
            &vms,
            &q,
            &meter,
            &SaturationMeter::new(),
        );
        assert!(summary
            .violations
            .iter()
            .any(|v| v.invariant == Invariant::EnergyIntegral));
    }

    #[test]
    fn violation_cap_counts_overflow() {
        let dc = fleet();
        let mut oracle = Oracle::new(&dc);
        let mut meter = EnergyMeter::new();
        meter.record(SimTime::ZERO, dc.total_power_w());
        let vms = VmTable::new();
        let q = VecDeque::new();
        let sla = SaturationMeter::new();
        // One nonsense op per event → one violation per audit; loop enough
        // audits to overflow the cap.
        for seq in 0..(MAX_RETAINED_VIOLATIONS as u64 + 40) {
            oracle.record(
                SimTime::from_secs(seq),
                &FleetOp::FinishMigration {
                    vm: VmId(5),
                    from: PmId(0),
                },
            );
            oracle.audit(
                SimTime::from_secs(seq),
                seq + 1,
                &dc,
                &vms,
                &q,
                &meter,
                &sla,
            );
        }
        assert_eq!(oracle.violations.len(), MAX_RETAINED_VIOLATIONS);
        assert!(oracle.dropped > 0);
    }

    /// An overbooked two-fast-PM fleet (300 % CPU / 100 % RAM): physical
    /// 8 cores, virtual 24.
    fn overbooked_fleet() -> Datacenter {
        use dvmp_cluster::resources::OverbookRatios;
        FleetBuilder::new()
            .add_class_overbooked(
                PmClass::paper_fast(),
                2,
                0.99,
                OverbookRatios::cpu_mem(300, 100),
            )
            .initially_on(true)
            .build()
    }

    #[test]
    fn resize_keeps_model_in_lock_step() {
        let mut dc = fleet();
        let mut oracle = Oracle::new(&dc);
        let mut meter = EnergyMeter::new();
        let mut vms = VmTable::new();
        meter.record(SimTime::ZERO, dc.total_power_w());

        exec(
            &mut dc,
            &mut oracle,
            FleetOp::Place {
                vm: VmId(1),
                pm: PmId(0),
                demand: demand(),
            },
        );
        vms.extend([running_vm(1, PmId(0))]);
        meter.record(SimTime::from_secs(10), dc.total_power_w());
        audit_clean(&mut oracle, 10, 1, &dc, &vms, &meter);

        exec(
            &mut dc,
            &mut oracle,
            FleetOp::Resize {
                vm: VmId(1),
                new: ResourceVector::cpu_mem(3, 2_048),
            },
        );
        meter.record(SimTime::from_secs(20), dc.total_power_w());
        audit_clean(&mut oracle, 20, 2, &dc, &vms, &meter);
        assert_eq!(
            dc.pm(PmId(0)).reservation_of(VmId(1)),
            Some(&ResourceVector::cpu_mem(3, 2_048))
        );
    }

    #[test]
    fn resize_of_unhosted_vm_is_flagged() {
        let dc = fleet();
        let mut oracle = Oracle::new(&dc);
        let mut meter = EnergyMeter::new();
        meter.record(SimTime::ZERO, dc.total_power_w());
        oracle.record(
            SimTime::ZERO,
            &FleetOp::Resize {
                vm: VmId(4),
                new: demand(),
            },
        );
        oracle.audit(
            SimTime::ZERO,
            1,
            &dc,
            &VmTable::new(),
            &VecDeque::new(),
            &meter,
            &SaturationMeter::new(),
        );
        assert_eq!(oracle.violation_count(), 1);
    }

    #[test]
    fn resize_of_migrating_vm_is_flagged() {
        let mut dc = fleet();
        let mut oracle = Oracle::new(&dc);
        let mut meter = EnergyMeter::new();
        let mut vms = VmTable::new();
        meter.record(SimTime::ZERO, dc.total_power_w());
        exec(
            &mut dc,
            &mut oracle,
            FleetOp::Place {
                vm: VmId(1),
                pm: PmId(0),
                demand: demand(),
            },
        );
        vms.extend([running_vm(1, PmId(0))]);
        exec(
            &mut dc,
            &mut oracle,
            FleetOp::BeginMigration {
                vm: VmId(1),
                to: PmId(1),
                demand: demand(),
            },
        );
        vms.get_mut(VmId(1)).unwrap().state = VmState::Migrating {
            from: PmId(0),
            to: PmId(1),
            done_at: SimTime::from_secs(80),
        };
        // A resize op against the double-reserved VM: the live fleet
        // rejects it (MigrationInFlight), so only the op is recorded —
        // the model must reject it too and surface a violation.
        oracle.record(
            SimTime::from_secs(10),
            &FleetOp::Resize {
                vm: VmId(1),
                new: ResourceVector::cpu_mem(2, 1_024),
            },
        );
        meter.record(SimTime::from_secs(10), dc.total_power_w());
        oracle.audit(
            SimTime::from_secs(10),
            1,
            &dc,
            &vms,
            &VecDeque::new(),
            &meter,
            &SaturationMeter::new(),
        );
        assert_eq!(oracle.violation_count(), 1);
    }

    #[test]
    fn virtual_capacity_breach_is_flagged_with_flight_dump() {
        use dvmp_cluster::resources::OverbookRatios;
        dvmp_obs::set_enabled(true);
        let mut dc = overbooked_fleet();
        let mut oracle = Oracle::new(&dc);
        let mut meter = EnergyMeter::new();
        let mut sla = SaturationMeter::new();
        let mut vms = VmTable::new();
        meter.record(SimTime::ZERO, dc.total_power_w());
        sla.record(SimTime::ZERO, dc.saturated_count());

        // 16 cores: legal under the 24-core virtual envelope, physically
        // saturating the 8-core machine (metered, not a violation).
        exec(
            &mut dc,
            &mut oracle,
            FleetOp::Place {
                vm: VmId(1),
                pm: PmId(0),
                demand: ResourceVector::cpu_mem(16, 4_096),
            },
        );
        vms.extend([running_vm(1, PmId(0))]);
        meter.record(SimTime::from_secs(10), dc.total_power_w());
        sla.record(SimTime::from_secs(10), dc.saturated_count());
        assert_eq!(dc.saturated_count(), 1);
        let before = oracle.violation_count();
        oracle.audit(
            SimTime::from_secs(10),
            1,
            &dc,
            &vms,
            &VecDeque::new(),
            &meter,
            &sla,
        );
        assert_eq!(oracle.violation_count(), before, "saturation is legal");

        // Tamper: shrink the overbook ratio below current occupancy — the
        // admission that let 16 cores through now breaches the virtual
        // envelope (virtual = 12 < used = 16).
        dc.pm_mut(PmId(0)).overbook = Some(OverbookRatios::cpu_mem(150, 100));
        meter.record(SimTime::from_secs(20), dc.total_power_w());
        sla.record(SimTime::from_secs(20), dc.saturated_count());
        let summary = oracle.into_summary(
            SimTime::from_secs(20),
            &dc,
            &vms,
            &VecDeque::new(),
            &meter,
            &sla,
        );
        assert!(
            summary
                .violations
                .iter()
                .any(|v| v.invariant == Invariant::VirtualCapacity),
            "{summary:?}"
        );
        assert!(
            summary.flight_dump.is_some(),
            "first violation captures a flight dump"
        );
    }

    #[test]
    fn sla_meter_divergence_is_flagged() {
        let mut dc = overbooked_fleet();
        let mut oracle = Oracle::new(&dc);
        let mut meter = EnergyMeter::new();
        let mut vms = VmTable::new();
        meter.record(SimTime::ZERO, dc.total_power_w());
        exec(
            &mut dc,
            &mut oracle,
            FleetOp::Place {
                vm: VmId(1),
                pm: PmId(0),
                demand: ResourceVector::cpu_mem(16, 4_096),
            },
        );
        vms.extend([running_vm(1, PmId(0))]);
        meter.record(SimTime::from_secs(10), dc.total_power_w());
        // An SLA meter that never saw the saturation: the instantaneous
        // comparison fires at the audit, and the integral comparison at
        // the final deep audit.
        let sla = SaturationMeter::new();
        oracle.audit(
            SimTime::from_secs(10),
            1,
            &dc,
            &vms,
            &VecDeque::new(),
            &meter,
            &sla,
        );
        assert!(oracle.violation_count() >= 1, "instantaneous mismatch");
        let summary = oracle.into_summary(
            SimTime::from_hours(1),
            &dc,
            &vms,
            &VecDeque::new(),
            &meter,
            &sla,
        );
        assert!(
            summary
                .violations
                .iter()
                .any(|v| v.invariant == Invariant::SlaConservation),
            "{summary:?}"
        );
    }

    #[test]
    fn queue_conservation_catches_duplicates_and_ghosts() {
        let dc = fleet();
        let oracle = Oracle::new(&dc);
        let meter = EnergyMeter::new();
        let mut vms = VmTable::new();
        let mut vm = running_vm(3, PmId(0));
        vm.state = VmState::Queued;
        vms.insert(vm);
        // Queue holds vm3 twice plus a VM the simulator never admitted.
        let queue: VecDeque<VmId> = [VmId(3), VmId(3), VmId(8)].into_iter().collect();
        let summary = oracle.into_summary(
            SimTime::from_secs(1),
            &dc,
            &vms,
            &queue,
            &meter,
            &SaturationMeter::new(),
        );
        let conservation = summary
            .violations
            .iter()
            .filter(|v| v.invariant == Invariant::Conservation)
            .count();
        assert!(conservation >= 2, "{summary:?}");
    }
}
