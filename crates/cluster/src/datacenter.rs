//! The heterogeneous fleet.
//!
//! A [`Datacenter`] owns the PMs, the class table and the VM → PM index. It
//! is the single mutable source of truth the simulator and the placement
//! policies share; every reservation goes through it so the capacity and
//! mapping invariants hold globally.
//!
//! # Incremental fleet accounting
//!
//! The per-event fleet signals (powered / non-idle / idle-available counts,
//! instantaneous power, per-dimension utilization of the available fleet)
//! and the simulator's hot scans (first off PM that fits, first available
//! PM that fits, idle PMs in id order) used to be O(M) sweeps over `pms`.
//! They are now answered from `FleetStats`, an aggregate maintained
//! *incrementally*: every mutation path — [`Datacenter::apply`] and
//! arbitrary state edits through [`Datacenter::pm_mut`]'s drop guard —
//! diffs the touched PM's `PmFootprint` before/after and applies the
//! delta. `assert_consistent`
//! (and therefore the checked-mode oracle's audits) recomputes the
//! aggregate from scratch and compares, so drift is a caught invariant
//! violation, not silent corruption.
//!
//! Instantaneous power is kept as per-(class, power-level) *counts* rather
//! than a running float sum: `total_power_w` multiplies counts by the class
//! wattages on demand, so repeated increments can never accumulate
//! floating-point drift and the value is bit-identical across any mutation
//! history that reaches the same fleet state.

use crate::index::CapacityIndex;
use crate::journal::{FleetDelta, FleetOp};
use crate::pm::{Pm, PmClass, PmError, PmId, PmState};
use crate::resources::{OverbookRatios, ResourceVector, MAX_DIMS};
use crate::vm::VmId;
use crate::vm_table::VmSlots;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Deref, DerefMut};

/// The PMs holding one VM's reservations, current host first: one PM, or
/// two while a live migration is in flight (the destination, then the
/// source — DESIGN.md I3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VmHosts {
    len: u8,
    pms: [PmId; 2],
}

impl VmHosts {
    const EMPTY: VmHosts = VmHosts {
        len: 0,
        pms: [PmId(0); 2],
    };

    fn one(pm: PmId) -> Self {
        VmHosts {
            len: 1,
            pms: [pm, PmId(0)],
        }
    }

    /// Makes `pm` the current host, keeping the previous one second.
    fn push_front(&mut self, pm: PmId) {
        debug_assert!(self.len < 2);
        self.pms = [pm, self.pms[0]];
        self.len += 1;
    }

    /// Drops `pm` from the hosts, if present.
    fn remove(&mut self, pm: PmId) {
        if let Some(i) = self.iter().position(|&p| p == pm) {
            if i == 0 {
                self.pms[0] = self.pms[1];
            }
            self.len -= 1;
        }
    }
}

impl Deref for VmHosts {
    type Target = [PmId];

    fn deref(&self) -> &[PmId] {
        &self.pms[..usize::from(self.len)]
    }
}

/// The fleet of physical machines.
#[derive(Debug, Clone)]
pub struct Datacenter {
    classes: Vec<PmClass>,
    pms: Vec<Pm>,
    /// Where each VM's reservations currently live, one entry per hosted
    /// VM in no particular order (removal is a `swap_remove`), found
    /// through `vm_slots`. A migrating VM appears on both source and
    /// destination (DESIGN.md I3); the first host is the *current host*
    /// in the placement sense.
    vm_hosts: Vec<(VmId, VmHosts)>,
    vm_slots: VmSlots,
    /// Incrementally maintained aggregates (see the module docs). Derived
    /// state: never serialized, rebuilt on deserialize.
    stats: FleetStats,
    /// Dirt accumulated since the last [`Datacenter::take_fleet_delta`],
    /// fed from the same footprint-diff funnel as `stats` (plus a
    /// reliability diff, which the footprint does not cover). Never
    /// serialized; a deserialized fleet starts with a *full* journal since
    /// any pre-existing consumer snapshot is of unknown provenance.
    journal: FleetDelta,
}

// Hand-written serde impls (the derive cannot express a skipped +
// recomputed field): the wire format carries only the persistent fields,
// exactly as the pre-`FleetStats` derive emitted them — the VM index as a
// map from VM id to its hosts — and deserialization rebuilds the
// aggregates and the slot index rather than trusting the wire.
impl Serialize for Datacenter {
    fn to_value(&self) -> serde::Value {
        let vm_index: BTreeMap<VmId, Vec<PmId>> = self
            .vm_hosts
            .iter()
            .map(|(vm, hosts)| (*vm, hosts.to_vec()))
            .collect();
        serde::Value::Map(vec![
            ("classes".to_owned(), self.classes.to_value()),
            ("pms".to_owned(), self.pms.to_value()),
            ("vm_index".to_owned(), vm_index.to_value()),
        ])
    }
}

impl Deserialize for Datacenter {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let classes: Vec<PmClass> = serde::field(v, "classes")?;
        let pms: Vec<Pm> = serde::field(v, "pms")?;
        let vm_index: BTreeMap<VmId, Vec<PmId>> = serde::field(v, "vm_index")?;
        let mut dc = Datacenter::new(classes, pms);
        for (vm, pms) in vm_index {
            let hosts = match *pms.as_slice() {
                [pm] => VmHosts::one(pm),
                [to, from] if to != from => {
                    let mut hosts = VmHosts::one(from);
                    hosts.push_front(to);
                    hosts
                }
                _ => {
                    let msg = format!("{vm} has hosts {pms:?}: one, or two during a migration");
                    return Err(serde::Error::custom(msg));
                }
            };
            dc.insert_hosts(vm, hosts);
        }
        dc.journal = FleetDelta::new_full();
        Ok(dc)
    }
}

/// Power level a PM contributes to the energy bill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PowerLevel {
    /// Off or failed: draws nothing.
    Dark,
    /// On and idle: idle wattage.
    Idle,
    /// Hosting, booting or shutting down: active wattage.
    Active,
}

/// Per-class tally of PMs at each billable power level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PowerTally {
    active: usize,
    idle: usize,
}

/// Everything a single PM contributes to [`FleetStats`]. Mutation paths
/// snapshot it before and after and apply the difference; equality means
/// no aggregate changed and the update is skipped entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PmFootprint {
    powered: bool,
    non_idle: bool,
    idle_available: bool,
    off: bool,
    on_idle: bool,
    available: bool,
    class_idx: usize,
    level: PowerLevel,
    /// Physical capacity, charged to the utilization sums while the PM
    /// is available.
    capacity: ResourceVector,
    /// Powered and occupying more than its physical capacity (possible
    /// only on overbooked PMs) — the SLA-violation meter's condition.
    saturated: bool,
    /// Full occupation vector; part of the equality check so headroom
    /// changes refresh the capacity index.
    used: ResourceVector,
}

impl PmFootprint {
    fn of(pm: &Pm) -> Self {
        let available = pm.is_available();
        let idle = pm.is_idle();
        PmFootprint {
            powered: pm.is_powered(),
            non_idle: available && !idle,
            idle_available: available && idle,
            off: pm.state == PmState::Off,
            on_idle: pm.state == PmState::On && idle,
            available,
            class_idx: pm.class_idx,
            level: match pm.state {
                PmState::Off | PmState::Failed => PowerLevel::Dark,
                PmState::Booting { .. } | PmState::ShuttingDown { .. } => PowerLevel::Active,
                PmState::On => {
                    if idle {
                        PowerLevel::Idle
                    } else {
                        PowerLevel::Active
                    }
                }
            },
            capacity: *pm.capacity(),
            saturated: pm.is_powered() && pm.is_saturated(),
            used: *pm.used(),
        }
    }
}

/// Incrementally maintained fleet aggregates; see the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
struct FleetStats {
    powered: usize,
    non_idle: usize,
    idle_available: usize,
    /// Powered PMs whose occupancy exceeds physical capacity (overbooked
    /// and saturated) — the instantaneous SLA-violation signal.
    saturated: usize,
    /// Per-dimension used / capacity sums over *available* PMs.
    avail_used: [u64; MAX_DIMS],
    avail_cap: [u64; MAX_DIMS],
    /// Per-class power-level tallies, indexed by `class_idx`.
    class_power: Vec<PowerTally>,
    /// Off PMs in id order (boot candidates).
    off: BTreeSet<PmId>,
    /// `On` + idle PMs in id order (shutdown candidates).
    on_idle: BTreeSet<PmId>,
    /// Per-dimension free-capacity index over available PMs.
    capacity: CapacityIndex,
    /// Virtual-capacity index over `Off` PMs (boot candidates). An off PM
    /// hosts nothing, so its leaf changes only when the PM's `off` flag
    /// flips (or a raw [`Datacenter::pm_mut`] edit touches its ratios).
    off_capacity: CapacityIndex,
}

impl FleetStats {
    /// Full O(M) reconstruction — the ground truth the incremental updates
    /// are audited against.
    fn rebuild(classes: &[PmClass], pms: &[Pm]) -> Self {
        let mut stats = FleetStats {
            class_power: vec![PowerTally::default(); classes.len()],
            capacity: CapacityIndex::build(
                pms.iter()
                    .map(|pm| (pm.is_available(), pm.headroom()))
                    .collect::<Vec<_>>(),
            ),
            off_capacity: CapacityIndex::build(
                pms.iter()
                    .map(|pm| (pm.state == PmState::Off, pm.virtual_capacity()))
                    .collect::<Vec<_>>(),
            ),
            ..FleetStats::default()
        };
        for pm in pms {
            stats.admit(pm.id, &PmFootprint::of(pm));
        }
        stats
    }

    /// Adds `f`'s contribution.
    fn admit(&mut self, id: PmId, f: &PmFootprint) {
        self.powered += f.powered as usize;
        self.non_idle += f.non_idle as usize;
        self.idle_available += f.idle_available as usize;
        self.saturated += f.saturated as usize;
        if f.available {
            for d in 0..f.capacity.k() {
                self.avail_used[d] += f.used.get(d);
                self.avail_cap[d] += f.capacity.get(d);
            }
        }
        match f.level {
            PowerLevel::Dark => {}
            PowerLevel::Idle => self.class_power[f.class_idx].idle += 1,
            PowerLevel::Active => self.class_power[f.class_idx].active += 1,
        }
        if f.off {
            self.off.insert(id);
        }
        if f.on_idle {
            self.on_idle.insert(id);
        }
    }

    /// Removes `f`'s contribution.
    fn retire(&mut self, id: PmId, f: &PmFootprint) {
        self.powered -= f.powered as usize;
        self.non_idle -= f.non_idle as usize;
        self.idle_available -= f.idle_available as usize;
        self.saturated -= f.saturated as usize;
        if f.available {
            for d in 0..f.capacity.k() {
                self.avail_used[d] -= f.used.get(d);
                self.avail_cap[d] -= f.capacity.get(d);
            }
        }
        match f.level {
            PowerLevel::Dark => {}
            PowerLevel::Idle => self.class_power[f.class_idx].idle -= 1,
            PowerLevel::Active => self.class_power[f.class_idx].active -= 1,
        }
        if f.off {
            self.off.remove(&id);
        }
        if f.on_idle {
            self.on_idle.remove(&id);
        }
    }
}

impl Datacenter {
    fn new(classes: Vec<PmClass>, pms: Vec<Pm>) -> Self {
        let stats = FleetStats::rebuild(&classes, &pms);
        Datacenter {
            classes,
            pms,
            vm_hosts: Vec::new(),
            vm_slots: VmSlots::new(),
            stats,
            journal: FleetDelta::new(),
        }
    }

    /// Number of PMs in the fleet.
    pub fn len(&self) -> usize {
        self.pms.len()
    }

    /// `true` when the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.pms.is_empty()
    }

    /// The class table.
    pub fn classes(&self) -> &[PmClass] {
        &self.classes
    }

    /// The PM with the given id.
    pub fn pm(&self, id: PmId) -> &Pm {
        &self.pms[id.0 as usize]
    }

    /// Mutable access to a PM (state changes only; use
    /// [`Datacenter::apply`] for occupancy so the VM index stays
    /// consistent). The returned guard diffs the PM's `PmFootprint` on drop
    /// so the fleet aggregates stay exact under arbitrary edits.
    pub fn pm_mut(&mut self, id: PmId) -> PmMut<'_> {
        let idx = id.0 as usize;
        let before = PmFootprint::of(&self.pms[idx]);
        let before_rel = self.pms[idx].reliability;
        PmMut {
            dc: self,
            idx,
            before,
            before_rel,
        }
    }

    /// All PMs in id order.
    pub fn pms(&self) -> &[Pm] {
        &self.pms
    }

    /// Ids of all PMs, in order.
    pub fn pm_ids(&self) -> impl Iterator<Item = PmId> + '_ {
        (0..self.pms.len() as u32).map(PmId)
    }

    /// PMs that can currently accept reservations.
    pub fn available_pms(&self) -> impl Iterator<Item = &Pm> + '_ {
        self.pms.iter().filter(|pm| pm.is_available())
    }

    /// Number of PMs hosting at least one VM — the paper's `N_nidle(t)`.
    /// O(1): maintained incrementally.
    pub fn non_idle_count(&self) -> usize {
        self.stats.non_idle
    }

    /// Number of powered PMs (on, booting or shutting down) — what the
    /// energy bill sees. O(1): maintained incrementally.
    pub fn powered_count(&self) -> usize {
        self.stats.powered
    }

    /// Number of available-and-idle PMs (spare capacity). O(1).
    pub fn idle_available_count(&self) -> usize {
        self.stats.idle_available
    }

    /// Number of powered PMs currently occupying more than their physical
    /// capacity — nonzero only on overbooked fleets, integrated over time
    /// by the SLA-violation meter. O(1): maintained incrementally.
    pub fn saturated_count(&self) -> usize {
        self.stats.saturated
    }

    /// Total VMs with at least one reservation.
    pub fn active_vm_count(&self) -> usize {
        self.vm_hosts.len()
    }

    /// Instantaneous fleet power draw in watts (two-level model).
    /// O(#classes): per-(class, level) counts times the class wattages, so
    /// the value is an exact function of the fleet state with no
    /// accumulated floating-point error.
    pub fn total_power_w(&self) -> f64 {
        self.classes
            .iter()
            .zip(&self.stats.class_power)
            .map(|(class, tally)| {
                tally.active as f64 * class.active_power_w + tally.idle as f64 * class.idle_power_w
            })
            .sum()
    }

    /// CPU-slot utilization of the *powered* fleet: used cores over the
    /// core capacity of available machines (0 when nothing is powered).
    /// This is the packing-quality signal: a consolidating policy keeps it
    /// high by powering exactly as many machines as the load needs. O(1).
    pub fn powered_core_utilization(&self) -> f64 {
        self.available_utilization(0)
    }

    /// Per-dimension utilization of the available fleet: summed occupancy
    /// over summed physical capacity in every resource dimension, across
    /// PMs currently accepting reservations (all zeros when none are).
    /// O(K): read off the incrementally maintained sums.
    pub fn available_utilization_per_dim(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        let k = self.classes.first().map_or(0, |c| c.capacity.k());
        (0..k).map(|d| self.available_utilization(d))
    }

    /// Utilization of dimension `d` over the available fleet (0 when no
    /// PM is available).
    fn available_utilization(&self, d: usize) -> f64 {
        let cap = self.stats.avail_cap[d];
        if cap == 0 {
            0.0
        } else {
            self.stats.avail_used[d] as f64 / cap as f64
        }
    }

    /// Ids of powered-off PMs, in id order. O(1) per step.
    pub fn off_pm_ids(&self) -> impl DoubleEndedIterator<Item = PmId> + '_ {
        self.stats.off.iter().copied()
    }

    /// Ids of `On`-and-idle PMs (shutdown candidates), in id order.
    /// O(1) per step; reverse for highest-first.
    pub fn on_idle_pm_ids(&self) -> impl DoubleEndedIterator<Item = PmId> + '_ {
        self.stats.on_idle.iter().copied()
    }

    /// Lowest-id `Off` PM whose *virtual capacity* covers `spec` — what a
    /// boot request scans for. O(log M) via the off-capacity index,
    /// whatever the fleet's class layout.
    pub fn first_off_fitting(&self, spec: &ResourceVector) -> Option<PmId> {
        self.stats
            .off_capacity
            .first_fit(spec)
            .map(|idx| PmId(idx as u32))
    }

    /// Lowest-id available PM that can host `req` on top of its current
    /// occupation — identical to `pms().iter().find(|pm| pm.can_host(req))`
    /// but O(log M) via the capacity index.
    pub fn first_fit_available(&self, req: &ResourceVector) -> Option<PmId> {
        self.stats
            .capacity
            .first_fit(req)
            .map(|idx| PmId(idx as u32))
    }

    /// The PMs a VM is currently reserved on (current host first).
    pub fn hosts_of(&self, vm: VmId) -> &[PmId] {
        self.vm_slots.get(vm).map_or(&[], |i| &self.vm_hosts[i].1)
    }

    /// The current host of a VM in the placement sense.
    pub fn host_of(&self, vm: VmId) -> Option<PmId> {
        self.hosts_of(vm).first().copied()
    }

    /// `vm`'s hosts, mutably, if it has any.
    fn hosts_mut(&mut self, vm: VmId) -> Option<&mut VmHosts> {
        let i = self.vm_slots.get(vm)?;
        Some(&mut self.vm_hosts[i].1)
    }

    /// Adds a hosts entry for `vm`, which has none.
    fn insert_hosts(&mut self, vm: VmId, hosts: VmHosts) {
        self.vm_slots.set(vm, self.vm_hosts.len());
        self.vm_hosts.push((vm, hosts));
    }

    /// Drops `vm`'s (empty or released) hosts entry, returning it.
    fn remove_hosts(&mut self, vm: VmId) -> VmHosts {
        let Some(i) = self.vm_slots.unset(vm) else {
            return VmHosts::EMPTY;
        };
        let (_, hosts) = self.vm_hosts.swap_remove(i);
        if let Some(&(moved, _)) = self.vm_hosts.get(i) {
            self.vm_slots.set(moved, i);
        }
        hosts
    }

    /// Applies `f` to one PM and folds the footprint delta into `stats`
    /// and the fleet-delta journal.
    fn update_pm<R>(&mut self, id: PmId, f: impl FnOnce(&mut Pm) -> R) -> R {
        let idx = id.0 as usize;
        let before = PmFootprint::of(&self.pms[idx]);
        let before_rel = self.pms[idx].reliability;
        let result = f(&mut self.pms[idx]);
        self.fold_pm(idx, &before, before_rel);
        result
    }

    /// Folds PM `idx`'s change since `before` into `stats`, the capacity
    /// indexes and the fleet-delta journal.
    fn fold_pm(&mut self, idx: usize, before: &PmFootprint, before_rel: f64) {
        let id = PmId(idx as u32);
        let pm = &self.pms[idx];
        let after = PmFootprint::of(pm);
        if after != *before {
            self.stats.retire(id, before);
            self.stats.admit(id, &after);
            self.stats
                .capacity
                .set(idx, pm.is_available(), &pm.headroom());
            if after.off != before.off {
                self.stats
                    .off_capacity
                    .set(idx, after.off, &pm.virtual_capacity());
            }
        }
        if after != *before || pm.reliability != before_rel {
            self.journal.note_pm(id);
        }
    }

    /// Drains the fleet-delta journal: everything that changed since the
    /// previous drain (or a [full](FleetDelta::is_full) delta if the
    /// journal overflowed / the fleet was deserialized). The journal
    /// restarts empty.
    pub fn take_fleet_delta(&mut self) -> FleetDelta {
        let delta = std::mem::take(&mut self.journal);
        if dvmp_obs::enabled() {
            dvmp_obs::note_journal_drained(if delta.is_full() {
                None
            } else {
                Some((
                    delta.dirty_pms().len() as u64,
                    delta.dirty_vms().len() as u64,
                ))
            });
        }
        delta
    }

    /// Read-only view of the accumulated (undrained) fleet delta.
    pub fn fleet_delta(&self) -> &FleetDelta {
        &self.journal
    }

    /// Applies one fleet mutation. On success, returns the VMs a
    /// [`FleetOp::Fail`] evicted (empty for every other op); on failure
    /// the fleet is unchanged. Every change is journaled and recorded in
    /// the flight recorder from the op itself (see [`FleetOp`] for what
    /// each op does and when it fails).
    pub fn apply(&mut self, op: FleetOp) -> Result<Vec<VmId>, PmError> {
        let mut evicted = Vec::new();
        // The second payload word of the op's flight record, or `None`
        // when the op changed nothing.
        let b: Option<u64> = match op {
            FleetOp::Place { vm, pm, demand } => {
                if self.vm_slots.get(vm).is_some() {
                    return Err(PmError::AlreadyHosted(vm));
                }
                self.update_pm(pm, |p| p.reserve(vm, demand))?;
                self.insert_hosts(vm, VmHosts::one(pm));
                Some(pm.0.into())
            }
            FleetOp::BeginMigration { vm, to, demand } => {
                if self.hosts_of(vm).len() >= 2 {
                    return Err(PmError::MigrationInFlight(vm));
                }
                self.update_pm(to, |p| p.reserve(vm, demand))?;
                match self.hosts_mut(vm) {
                    Some(hosts) => hosts.push_front(to),
                    None => self.insert_hosts(vm, VmHosts::one(to)),
                }
                Some(to.0.into())
            }
            FleetOp::FinishMigration { vm, from } => {
                self.update_pm(from, |p| p.release(vm))?;
                self.drop_host(vm, from);
                Some(from.0.into())
            }
            FleetOp::Remove { vm } => {
                let hosts = self.remove_hosts(vm);
                for &pm in hosts.iter() {
                    self.update_pm(pm, |p| p.release(vm))
                        .expect("index and reservations agree");
                }
                (!hosts.is_empty()).then_some(hosts.len() as u64)
            }
            FleetOp::Fail { pm } => {
                evicted = self.update_pm(pm, |p| {
                    p.state = PmState::Failed;
                    p.evict_all()
                });
                for &vm in &evicted {
                    self.drop_host(vm, pm);
                }
                Some(evicted.len() as u64)
            }
            FleetOp::Resize { vm, new } => {
                let host = match *self.hosts_of(vm) {
                    [] => return Err(PmError::NotHosted(vm)),
                    [host] => host,
                    _ => return Err(PmError::MigrationInFlight(vm)),
                };
                // A same-size resize journals nothing, so incremental
                // planners never recompute for it.
                if self.pms[host.0 as usize].reservation_of(vm) == Some(&new) {
                    None
                } else {
                    self.update_pm(host, |p| p.resize_reservation(vm, new))?;
                    Some(host.0.into())
                }
            }
        };
        if let Some(b) = b {
            self.project(&op, b, &evicted);
        }
        Ok(evicted)
    }

    /// Projects an applied op onto the fleet-delta journal (its VM, or
    /// every VM a failure evicted) and one flight-recorder fleet record.
    fn project(&mut self, op: &FleetOp, b: u64, evicted: &[VmId]) {
        use dvmp_obs::RecordKind;
        let (kind, vm) = match *op {
            FleetOp::Place { vm, .. } => (RecordKind::VmPlaced, vm),
            FleetOp::BeginMigration { vm, .. } => (RecordKind::MigrationStarted, vm),
            FleetOp::FinishMigration { vm, .. } => (RecordKind::MigrationFinished, vm),
            FleetOp::Remove { vm } => (RecordKind::VmRemoved, vm),
            FleetOp::Resize { vm, .. } => (RecordKind::VmResized, vm),
            FleetOp::Fail { pm } => {
                for &vm in evicted {
                    self.journal.note_vm(vm);
                }
                dvmp_obs::note_fleet(RecordKind::PmFailed, pm.0.into(), b);
                return;
            }
        };
        self.journal.note_vm(vm);
        dvmp_obs::note_fleet(kind, vm.0.into(), b);
    }

    /// Drops `pm` from `vm`'s hosts, and the hosts entry once empty.
    fn drop_host(&mut self, vm: VmId, pm: PmId) {
        if let Some(hosts) = self.hosts_mut(vm) {
            hosts.remove(pm);
            if hosts.is_empty() {
                self.remove_hosts(vm);
            }
        }
    }

    /// Verifies the global invariants; used by tests and debug assertions.
    ///
    /// # Panics
    /// Panics if a PM's `used` does not equal the sum of its reservations,
    /// the VM index disagrees with the per-PM reservation sets, or the
    /// incremental fleet aggregates have drifted from a fresh recompute.
    pub fn assert_consistent(&self) {
        for pm in &self.pms {
            let mut sum = ResourceVector::zero(pm.capacity().k());
            for vm in pm.hosted_vms() {
                let r = pm.reservation_of(vm).expect("hosted VM has reservation");
                sum = sum.add(r);
                assert!(
                    self.hosts_of(vm).contains(&pm.id),
                    "{vm} reserved on {} but missing from index",
                    pm.id
                );
            }
            assert_eq!(&sum, pm.used(), "occupancy sum mismatch on {}", pm.id);
            assert!(
                sum.le(&pm.virtual_capacity()),
                "virtual capacity exceeded on {}",
                pm.id
            );
        }
        for (i, (vm, hosts)) in self.vm_hosts.iter().enumerate() {
            let vm = *vm;
            assert_eq!(self.vm_slots.get(vm), Some(i), "{vm} slot disagrees");
            assert!(!hosts.is_empty(), "{vm} indexed with no hosts");
            assert!(
                hosts.len() == 1 || hosts[0] != hosts[1],
                "{vm} indexed twice on {}",
                hosts[0]
            );
            for &pm in hosts.iter() {
                assert!(
                    self.pms[pm.0 as usize].reservation_of(vm).is_some(),
                    "{vm} indexed on {pm} without a reservation"
                );
            }
        }
        assert_eq!(
            self.stats,
            FleetStats::rebuild(&self.classes, &self.pms),
            "incremental fleet aggregates drifted from recompute"
        );
    }
}

/// Drop guard returned by [`Datacenter::pm_mut`]: dereferences to the PM
/// and folds whatever changed into the fleet aggregates when dropped.
#[derive(Debug)]
pub struct PmMut<'a> {
    dc: &'a mut Datacenter,
    idx: usize,
    before: PmFootprint,
    before_rel: f64,
}

impl Deref for PmMut<'_> {
    type Target = Pm;
    fn deref(&self) -> &Pm {
        &self.dc.pms[self.idx]
    }
}

impl DerefMut for PmMut<'_> {
    fn deref_mut(&mut self) -> &mut Pm {
        &mut self.dc.pms[self.idx]
    }
}

impl Drop for PmMut<'_> {
    fn drop(&mut self) {
        self.dc.fold_pm(self.idx, &self.before, self.before_rel);
        // A raw edit may change the overbooking ratios, and with them an
        // off PM's virtual capacity.
        let pm = &self.dc.pms[self.idx];
        self.dc
            .stats
            .off_capacity
            .set(self.idx, pm.state == PmState::Off, &pm.virtual_capacity());
    }
}

/// Builder for heterogeneous fleets.
#[derive(Debug, Default)]
pub struct FleetBuilder {
    classes: Vec<PmClass>,
    counts: Vec<usize>,
    reliability: Vec<f64>,
    class_overbook: Vec<Option<OverbookRatios>>,
    initially_on: bool,
}

impl FleetBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        FleetBuilder::default()
    }

    /// Adds `count` machines of `class`, all with reliability `reliability`.
    pub fn add_class(mut self, class: PmClass, count: usize, reliability: f64) -> Self {
        self.classes.push(class);
        self.counts.push(count);
        self.reliability.push(reliability);
        self.class_overbook.push(None);
        self
    }

    /// Adds `count` overbooked machines of `class` (same parameters as
    /// [`add_class`](FleetBuilder::add_class), admitting against
    /// `ratios`-scaled virtual capacity).
    pub fn add_class_overbooked(
        mut self,
        class: PmClass,
        count: usize,
        reliability: f64,
        ratios: OverbookRatios,
    ) -> Self {
        self.classes.push(class);
        self.counts.push(count);
        self.reliability.push(reliability);
        self.class_overbook.push(Some(ratios));
        self
    }

    /// Whether machines start powered on (default: off).
    pub fn initially_on(mut self, on: bool) -> Self {
        self.initially_on = on;
        self
    }

    /// Builds the datacenter. Machines are numbered class by class in the
    /// order the classes were added.
    pub fn build(self) -> Datacenter {
        let mut pms = Vec::new();
        let mut id = 0u32;
        for (idx, class) in self.classes.iter().enumerate() {
            let overbook = self.class_overbook[idx];
            for _ in 0..self.counts[idx] {
                let mut pm = Pm::new(PmId(id), idx, class.clone(), self.reliability[idx]);
                if self.initially_on {
                    pm.state = PmState::On;
                }
                pm.overbook = overbook;
                pms.push(pm);
                id += 1;
            }
        }
        Datacenter::new(self.classes, pms)
    }
}

/// The paper's evaluation fleet (Table II): 25 fast + 75 slow nodes.
///
/// Reliability is not quantified in the paper; both classes default to a
/// high uniform value so the `rel` factor is neutral unless a scenario
/// overrides it.
pub fn paper_fleet() -> Datacenter {
    FleetBuilder::new()
        .add_class(PmClass::paper_fast(), 25, 0.99)
        .add_class(PmClass::paper_slow(), 75, 0.99)
        .initially_on(false)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on_fleet() -> Datacenter {
        FleetBuilder::new()
            .add_class(PmClass::paper_fast(), 2, 0.99)
            .add_class(PmClass::paper_slow(), 3, 0.95)
            .initially_on(true)
            .build()
    }

    fn vm_demand() -> ResourceVector {
        ResourceVector::cpu_mem(1, 512)
    }

    fn place(vm: u32, pm: u32, demand: ResourceVector) -> FleetOp {
        FleetOp::Place {
            vm: VmId(vm),
            pm: PmId(pm),
            demand,
        }
    }

    fn migrate(vm: u32, to: u32) -> FleetOp {
        FleetOp::BeginMigration {
            vm: VmId(vm),
            to: PmId(to),
            demand: vm_demand(),
        }
    }

    fn finish(vm: u32, from: u32) -> FleetOp {
        FleetOp::FinishMigration {
            vm: VmId(vm),
            from: PmId(from),
        }
    }

    fn resize(vm: u32, new: ResourceVector) -> FleetOp {
        FleetOp::Resize { vm: VmId(vm), new }
    }

    #[test]
    fn paper_fleet_matches_table2() {
        let dc = paper_fleet();
        assert_eq!(dc.len(), 100);
        let fast = dc.pms().iter().filter(|p| p.class.name == "fast").count();
        let slow = dc.pms().iter().filter(|p| p.class.name == "slow").count();
        assert_eq!(fast, 25);
        assert_eq!(slow, 75);
        assert!(dc.pms().iter().all(|p| p.state == PmState::Off));
        assert_eq!(dc.classes().len(), 2);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let dc = on_fleet();
        for (i, pm) in dc.pms().iter().enumerate() {
            assert_eq!(pm.id, PmId(i as u32));
        }
        assert_eq!(dc.pm(PmId(0)).class.name, "fast");
        assert_eq!(dc.pm(PmId(4)).class.name, "slow");
    }

    #[test]
    fn place_and_remove_update_index() {
        let mut dc = on_fleet();
        dc.apply(place(1, 0, vm_demand())).unwrap();
        assert_eq!(dc.host_of(VmId(1)), Some(PmId(0)));
        assert_eq!(dc.active_vm_count(), 1);
        assert_eq!(dc.non_idle_count(), 1);
        dc.assert_consistent();

        assert_eq!(
            dc.apply(FleetOp::Remove { vm: VmId(1) }),
            Ok(vec![]),
            "only a failure evicts"
        );
        assert_eq!(dc.host_of(VmId(1)), None);
        assert_eq!(dc.non_idle_count(), 0);
        dc.assert_consistent();
    }

    #[test]
    fn migration_double_reserves_then_releases_source() {
        let mut dc = on_fleet();
        dc.apply(place(1, 0, vm_demand())).unwrap();
        dc.apply(migrate(1, 1)).unwrap();
        // Reserved on both; current host is the destination.
        assert_eq!(dc.hosts_of(VmId(1)), &[PmId(1), PmId(0)]);
        assert_eq!(dc.host_of(VmId(1)), Some(PmId(1)));
        assert_eq!(dc.non_idle_count(), 2);
        dc.assert_consistent();

        dc.apply(finish(1, 0)).unwrap();
        assert_eq!(dc.hosts_of(VmId(1)), &[PmId(1)]);
        assert_eq!(dc.non_idle_count(), 1);
        dc.assert_consistent();
    }

    #[test]
    fn departure_mid_migration_releases_both() {
        let mut dc = on_fleet();
        dc.apply(place(1, 0, vm_demand())).unwrap();
        dc.apply(migrate(1, 1)).unwrap();
        dc.apply(FleetOp::Remove { vm: VmId(1) }).unwrap();
        assert_eq!(dc.hosts_of(VmId(1)), &[]);
        assert_eq!(dc.non_idle_count(), 0);
        dc.assert_consistent();
    }

    #[test]
    fn fail_pm_evicts_and_marks_failed() {
        let mut dc = on_fleet();
        dc.apply(place(1, 0, vm_demand())).unwrap();
        dc.apply(place(2, 0, vm_demand())).unwrap();
        dc.apply(place(3, 1, vm_demand())).unwrap();
        let evicted = dc.apply(FleetOp::Fail { pm: PmId(0) }).unwrap();
        assert_eq!(evicted, vec![VmId(1), VmId(2)]);
        assert_eq!(dc.pm(PmId(0)).state, PmState::Failed);
        assert_eq!(dc.host_of(VmId(1)), None);
        assert_eq!(dc.host_of(VmId(3)), Some(PmId(1)));
        assert_eq!(dc.total_power_w(), {
            // pm1 active (fast 400), pm2..4 idle slow on (180*3)... wait pm2,3,4 idle
            400.0 + 240.0 + 3.0 * 180.0 - 240.0
        });
        dc.assert_consistent();
    }

    #[test]
    fn fail_pm_mid_migration_keeps_other_reservation() {
        let mut dc = on_fleet();
        dc.apply(place(1, 0, vm_demand())).unwrap();
        dc.apply(migrate(1, 1)).unwrap();
        // Destination fails: VM survives on the source.
        let evicted = dc.apply(FleetOp::Fail { pm: PmId(1) }).unwrap();
        assert_eq!(evicted, vec![VmId(1)]);
        assert_eq!(dc.hosts_of(VmId(1)), &[PmId(0)]);
        dc.assert_consistent();
    }

    #[test]
    fn power_counts() {
        let mut dc = on_fleet();
        // All on: 2 fast idle (240 each) + 3 slow idle (180 each) = 1020 W.
        assert_eq!(dc.total_power_w(), 1_020.0);
        assert_eq!(dc.powered_count(), 5);
        assert_eq!(dc.idle_available_count(), 5);
        dc.apply(place(1, 0, vm_demand())).unwrap();
        // pm0 becomes active: +160 W.
        assert_eq!(dc.total_power_w(), 1_180.0);
        dc.pm_mut(PmId(4)).state = PmState::Off;
        assert_eq!(dc.total_power_w(), 1_000.0);
        assert_eq!(dc.powered_count(), 4);
    }

    #[test]
    fn powered_core_utilization_tracks_reservations_and_power_state() {
        let mut dc = on_fleet();
        // 2 fast (8 cores) + 3 slow (4 cores) available = 28 cores.
        assert_eq!(dc.powered_core_utilization(), 0.0);
        dc.apply(place(1, 0, ResourceVector::cpu_mem(7, 512)))
            .unwrap();
        assert!((dc.powered_core_utilization() - 7.0 / 28.0).abs() < 1e-12);
        // Powering a slow PM off shrinks the denominator.
        dc.pm_mut(PmId(4)).state = PmState::Off;
        assert!((dc.powered_core_utilization() - 7.0 / 24.0).abs() < 1e-12);
        // Fully off fleet → 0, not NaN.
        for id in [0u32, 1, 2, 3] {
            if dc.pm(PmId(id)).is_idle() {
                dc.pm_mut(PmId(id)).state = PmState::Off;
            }
        }
        dc.apply(FleetOp::Remove { vm: VmId(1) }).unwrap();
        dc.pm_mut(PmId(0)).state = PmState::Off;
        assert_eq!(dc.powered_core_utilization(), 0.0);
    }

    #[test]
    fn counts_ignore_unavailable_pms() {
        let mut dc = on_fleet();
        dc.apply(place(1, 0, vm_demand())).unwrap();
        dc.pm_mut(PmId(1)).state = PmState::Off;
        assert_eq!(dc.non_idle_count(), 1);
        assert_eq!(dc.idle_available_count(), 3);
    }

    #[test]
    fn stats_survive_raw_state_edits_through_pm_mut() {
        // The drop guard must fold arbitrary edits (state flips, direct
        // reservations, reliability tweaks) into the aggregates.
        let mut dc = on_fleet();
        dc.pm_mut(PmId(2)).state = PmState::ShuttingDown {
            off_at: dvmp_simcore::SimTime::from_secs(55),
        };
        dc.pm_mut(PmId(3)).state = PmState::Failed;
        {
            let mut pm = dc.pm_mut(PmId(0));
            pm.reserve(VmId(7), vm_demand()).unwrap();
            pm.reliability = 0.5;
        }
        // Keep the VM index in sync with the raw reservation so the full
        // consistency check (index ⇄ reservations) also passes.
        dc.insert_hosts(VmId(7), VmHosts::one(PmId(0)));
        dc.assert_consistent();
        assert_eq!(dc.powered_count(), 4, "failed PM no longer powered");
        assert_eq!(dc.non_idle_count(), 1);
    }

    #[test]
    fn off_and_on_idle_sets_track_transitions() {
        let mut dc = on_fleet();
        assert_eq!(dc.off_pm_ids().count(), 0);
        assert_eq!(
            dc.on_idle_pm_ids().collect::<Vec<_>>(),
            vec![PmId(0), PmId(1), PmId(2), PmId(3), PmId(4)]
        );
        dc.pm_mut(PmId(1)).state = PmState::Off;
        dc.apply(place(1, 0, vm_demand())).unwrap();
        assert_eq!(dc.off_pm_ids().collect::<Vec<_>>(), vec![PmId(1)]);
        assert_eq!(
            dc.on_idle_pm_ids().rev().collect::<Vec<_>>(),
            vec![PmId(4), PmId(3), PmId(2)],
            "reverse order serves shutdown-highest-first"
        );
        dc.assert_consistent();
    }

    #[test]
    fn first_off_fitting_respects_class_capacity_and_id_order() {
        let mut dc = paper_fleet(); // everything off: 25 fast, 75 slow
        assert_eq!(
            dc.first_off_fitting(&ResourceVector::cpu_mem(1, 512)),
            Some(PmId(0))
        );
        // Needs > 4 cores: only the fast class fits.
        assert_eq!(
            dc.first_off_fitting(&ResourceVector::cpu_mem(6, 512)),
            Some(PmId(0))
        );
        dc.pm_mut(PmId(0)).state = PmState::On;
        assert_eq!(
            dc.first_off_fitting(&ResourceVector::cpu_mem(6, 512)),
            Some(PmId(1))
        );
        // Nothing fits a demand beyond every class.
        assert_eq!(
            dc.first_off_fitting(&ResourceVector::cpu_mem(16, 512)),
            None
        );
        // Small demand boots the lowest id overall even when fast PMs are
        // exhausted.
        for id in 0..25u32 {
            dc.pm_mut(PmId(id)).state = PmState::On;
        }
        assert_eq!(
            dc.first_off_fitting(&ResourceVector::cpu_mem(1, 512)),
            Some(PmId(25))
        );
        dc.assert_consistent();
    }

    #[test]
    fn first_fit_available_matches_linear_scan() {
        let mut dc = on_fleet();
        dc.apply(place(1, 0, ResourceVector::cpu_mem(8, 1_024)))
            .unwrap();
        dc.pm_mut(PmId(1)).state = PmState::Off;
        for req in [
            ResourceVector::cpu_mem(1, 512),
            ResourceVector::cpu_mem(4, 4_096),
            ResourceVector::cpu_mem(5, 512),
            ResourceVector::cpu_mem(9, 512),
        ] {
            let linear = dc.pms().iter().find(|pm| pm.can_host(&req)).map(|pm| pm.id);
            assert_eq!(dc.first_fit_available(&req), linear, "req {req}");
        }
    }

    #[test]
    fn journal_records_every_mutation_path() {
        let mut dc = on_fleet();
        // Creation starts clean.
        assert!(dc.fleet_delta().is_empty());

        dc.apply(place(1, 0, vm_demand())).unwrap();
        dc.apply(migrate(1, 1)).unwrap();
        dc.apply(finish(1, 0)).unwrap();
        dc.pm_mut(PmId(3)).state = PmState::Off;
        dc.pm_mut(PmId(4)).reliability = 0.42; // footprint-invisible change
        let d = dc.take_fleet_delta();
        assert!(!d.is_full());
        assert_eq!(
            d.dirty_pms().iter().copied().collect::<Vec<_>>(),
            vec![PmId(0), PmId(1), PmId(3), PmId(4)]
        );
        assert_eq!(
            d.dirty_vms().iter().copied().collect::<Vec<_>>(),
            vec![VmId(1)]
        );

        // Drain resets; the next window only sees new dirt.
        assert!(dc.fleet_delta().is_empty());
        dc.apply(place(2, 2, vm_demand())).unwrap();
        let evicted = dc.apply(FleetOp::Fail { pm: PmId(2) }).unwrap();
        assert_eq!(evicted, vec![VmId(2)]);
        dc.apply(FleetOp::Remove { vm: VmId(1) }).unwrap();
        let d = dc.take_fleet_delta();
        assert_eq!(
            d.dirty_pms().iter().copied().collect::<Vec<_>>(),
            vec![PmId(1), PmId(2)]
        );
        assert_eq!(
            d.dirty_vms().iter().copied().collect::<Vec<_>>(),
            vec![VmId(1), VmId(2)]
        );

        // A no-op guard (borrow and drop without edits) journals nothing;
        // a failed reservation journals nothing.
        drop(dc.pm_mut(PmId(0)));
        assert!(dc
            .apply(place(9, 0, ResourceVector::cpu_mem(999, 512)))
            .is_err());
        assert!(dc.fleet_delta().is_empty());
    }

    fn overbooked_fleet() -> Datacenter {
        let ratios = OverbookRatios::cpu_mem(200, 150);
        FleetBuilder::new()
            .add_class_overbooked(PmClass::paper_fast(), 2, 0.99, ratios)
            .add_class_overbooked(PmClass::paper_slow(), 3, 0.95, ratios)
            .initially_on(true)
            .build()
    }

    #[test]
    fn overbooked_fleet_admits_and_meters_saturation() {
        let mut dc = overbooked_fleet();
        assert_eq!(dc.saturated_count(), 0);
        // Physically full fast PM: 8/8 cores — admissible and unsaturated.
        dc.apply(place(1, 0, ResourceVector::cpu_mem(8, 4_096)))
            .unwrap();
        assert_eq!(dc.saturated_count(), 0);
        // Past physical, within virtual (16 cores): saturated.
        dc.apply(place(2, 0, ResourceVector::cpu_mem(6, 4_096)))
            .unwrap();
        assert_eq!(dc.saturated_count(), 1);
        dc.assert_consistent();
        // Departure de-saturates.
        dc.apply(FleetOp::Remove { vm: VmId(2) }).unwrap();
        assert_eq!(dc.saturated_count(), 0);
        dc.assert_consistent();
    }

    #[test]
    fn saturated_count_tracks_power_state() {
        let mut dc = overbooked_fleet();
        dc.apply(place(1, 0, ResourceVector::cpu_mem(9, 4_096)))
            .unwrap();
        assert_eq!(dc.saturated_count(), 1);
        // A failed PM evicts its VMs, so saturation clears with the power.
        dc.apply(FleetOp::Fail { pm: PmId(0) }).unwrap();
        assert_eq!(dc.saturated_count(), 0);
        dc.assert_consistent();
    }

    #[test]
    fn resize_vm_updates_reservation_and_journal() {
        let mut dc = on_fleet();
        dc.apply(place(1, 0, vm_demand())).unwrap();
        dc.take_fleet_delta();

        dc.apply(resize(1, ResourceVector::cpu_mem(3, 2_048)))
            .unwrap();
        assert_eq!(
            dc.pm(PmId(0)).reservation_of(VmId(1)),
            Some(&ResourceVector::cpu_mem(3, 2_048))
        );
        let d = dc.take_fleet_delta();
        assert_eq!(
            d.dirty_pms().iter().copied().collect::<Vec<_>>(),
            vec![PmId(0)],
            "the host PM's footprint changed"
        );
        assert_eq!(
            d.dirty_vms().iter().copied().collect::<Vec<_>>(),
            vec![VmId(1)]
        );
        dc.assert_consistent();
    }

    #[test]
    fn a_second_reservation_is_rejected_and_changes_nothing() {
        let mut dc = on_fleet();
        dc.apply(place(1, 0, vm_demand())).unwrap();
        dc.take_fleet_delta();
        assert_eq!(
            dc.apply(place(1, 2, vm_demand())),
            Err(PmError::AlreadyHosted(VmId(1)))
        );
        assert_eq!(dc.hosts_of(VmId(1)), &[PmId(0)]);
        assert_eq!(dc.pm(PmId(2)).reservation_of(VmId(1)), None);

        dc.apply(migrate(1, 1)).unwrap();
        dc.take_fleet_delta();
        assert_eq!(
            dc.apply(migrate(1, 2)),
            Err(PmError::MigrationInFlight(VmId(1)))
        );
        assert_eq!(
            dc.apply(place(1, 2, vm_demand())),
            Err(PmError::AlreadyHosted(VmId(1)))
        );
        assert_eq!(dc.hosts_of(VmId(1)), &[PmId(1), PmId(0)]);
        assert_eq!(dc.pm(PmId(2)).reservation_of(VmId(1)), None);
        assert_eq!(dc.non_idle_count(), 2);
        assert!(dc.fleet_delta().is_empty(), "rejections journal nothing");
        dc.assert_consistent();
    }

    #[test]
    fn same_size_resize_journals_nothing() {
        let mut dc = on_fleet();
        dc.apply(place(1, 0, vm_demand())).unwrap();
        dc.take_fleet_delta();

        dc.apply(resize(1, vm_demand())).unwrap();
        assert!(
            dc.take_fleet_delta().is_empty(),
            "no-op resize dirties nothing"
        );
        dc.assert_consistent();
    }

    #[test]
    fn resize_vm_rejections_leave_fleet_unchanged() {
        let mut dc = on_fleet();
        assert_eq!(
            dc.apply(resize(9, vm_demand())),
            Err(PmError::NotHosted(VmId(9)))
        );
        dc.apply(place(1, 0, vm_demand())).unwrap();
        dc.apply(migrate(1, 1)).unwrap();
        assert_eq!(
            dc.apply(resize(1, ResourceVector::cpu_mem(2, 512))),
            Err(PmError::MigrationInFlight(VmId(1)))
        );
        dc.take_fleet_delta();
        // A grow beyond the host's capacity is rejected without dirt.
        dc.apply(finish(1, 0)).unwrap();
        dc.take_fleet_delta();
        assert_eq!(
            dc.apply(resize(1, ResourceVector::cpu_mem(99, 512))),
            Err(PmError::InsufficientCapacity)
        );
        assert!(
            dc.fleet_delta().is_empty(),
            "failed resize journals nothing"
        );
        dc.assert_consistent();
    }

    #[test]
    fn first_off_fitting_sees_virtual_capacity() {
        let mut dc = FleetBuilder::new()
            .add_class(PmClass::paper_fast(), 2, 0.99)
            .add_class_overbooked(
                PmClass::paper_slow(),
                2,
                0.95,
                OverbookRatios::cpu_mem(300, 100),
            )
            .build();
        // 10 cores exceeds both physical classes, but fits the slow
        // class's 12-core virtual capacity.
        assert_eq!(
            dc.first_off_fitting(&ResourceVector::cpu_mem(10, 512)),
            Some(PmId(2))
        );
        dc.pm_mut(PmId(2)).state = PmState::On;
        assert_eq!(
            dc.first_off_fitting(&ResourceVector::cpu_mem(10, 512)),
            Some(PmId(3))
        );
        assert_eq!(
            dc.first_off_fitting(&ResourceVector::cpu_mem(20, 512)),
            None
        );
    }

    #[test]
    fn first_off_fitting_matches_linear_scan_on_interleaved_classes() {
        // Classes alternate by id (fast, slow, fast, …), some PMs are
        // overbooked, and power states change underneath the index.
        let pms = (0..12u32)
            .map(|i| {
                let (idx, class) = if i % 2 == 0 {
                    (0, PmClass::paper_fast())
                } else {
                    (1, PmClass::paper_slow())
                };
                let mut pm = Pm::new(PmId(i), idx, class, 0.99);
                if i % 3 == 0 {
                    pm.overbook = Some(OverbookRatios::cpu_mem(300, 100));
                }
                pm
            })
            .collect();
        let mut dc = Datacenter::new(vec![PmClass::paper_fast(), PmClass::paper_slow()], pms);
        let linear = |dc: &Datacenter, spec: &ResourceVector| {
            dc.pms()
                .iter()
                .find(|pm| pm.state == PmState::Off && spec.le(&pm.virtual_capacity()))
                .map(|pm| pm.id)
        };
        let specs: Vec<ResourceVector> = [1, 4, 6, 10, 13, 20, 30, 40]
            .into_iter()
            .map(|cores| ResourceVector::cpu_mem(cores, 512))
            .collect();
        for step in 0..24u32 {
            for spec in &specs {
                assert_eq!(
                    dc.first_off_fitting(spec),
                    linear(&dc, spec),
                    "step {step}, spec {spec:?}"
                );
            }
            let id = PmId((step * 5) % 12);
            dc.pm_mut(id).state = if dc.pm(id).state == PmState::Off {
                PmState::On
            } else {
                PmState::Off
            };
            dc.assert_consistent();
        }
    }

    #[test]
    fn overbooked_serde_round_trip_keeps_ratios_and_stats() {
        let mut dc = overbooked_fleet();
        dc.apply(place(1, 0, ResourceVector::cpu_mem(10, 4_096)))
            .unwrap();
        assert_eq!(dc.saturated_count(), 1);
        let json = serde_json::to_string(&dc).unwrap();
        let back: Datacenter = serde_json::from_str(&json).unwrap();
        back.assert_consistent();
        assert_eq!(back.saturated_count(), 1);
        assert_eq!(
            back.pm(PmId(0)).virtual_capacity(),
            ResourceVector::cpu_mem(16, 12_288)
        );
    }

    #[test]
    fn deserialized_fleet_reports_full_delta() {
        let dc = on_fleet();
        let json = serde_json::to_string(&dc).unwrap();
        let mut back: Datacenter = serde_json::from_str(&json).unwrap();
        assert!(back.fleet_delta().is_full());
        assert!(back.take_fleet_delta().is_full());
        assert!(back.fleet_delta().is_empty(), "drain resets to empty");
    }

    #[test]
    fn serde_round_trip_rebuilds_stats() {
        let mut dc = on_fleet();
        dc.apply(place(1, 0, vm_demand())).unwrap();
        dc.pm_mut(PmId(4)).state = PmState::Off;
        let json = serde_json::to_string(&dc).unwrap();
        let back: Datacenter = serde_json::from_str(&json).unwrap();
        back.assert_consistent();
        assert_eq!(back.total_power_w(), dc.total_power_w());
        assert_eq!(back.powered_count(), dc.powered_count());
        assert_eq!(
            back.first_fit_available(&vm_demand()),
            dc.first_fit_available(&vm_demand())
        );
    }

    #[test]
    fn serde_keeps_the_vm_index_a_map_of_host_lists() {
        let mut dc = on_fleet();
        dc.apply(place(2, 0, vm_demand())).unwrap();
        dc.apply(place(1, 1, vm_demand())).unwrap();
        dc.apply(migrate(2, 3)).unwrap();
        let json = serde_json::to_string(&dc).unwrap();
        assert!(
            json.ends_with(r#""vm_index":{"1":[1],"2":[3,0]}}"#),
            "{json}"
        );
        let back: Datacenter = serde_json::from_str(&json).unwrap();
        back.assert_consistent();
        assert_eq!(back.hosts_of(VmId(2)), &[PmId(3), PmId(0)]);
        assert_eq!(back.hosts_of(VmId(1)), &[PmId(1)]);
        // A host list the datacenter cannot hold is rejected, not truncated.
        for bad in ["[3,0,1]", "[]", "[0,0]"] {
            let json = json.replace("[3,0]", bad);
            let err = serde_json::from_str::<Datacenter>(&json).err();
            assert!(err.is_some(), "{bad} accepted");
        }
    }
}
