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
//! *incrementally*: [`Datacenter::apply`], the one mutator during a run,
//! diffs each touched PM's `PmFootprint` before/after and applies the
//! delta. The bulk setup edit [`Datacenter::edit_pms`], for per-PM
//! attributes fixed before a run starts, rebuilds the aggregate instead.
//! [`Datacenter::check`] rebuilds it from scratch and compares; debug
//! builds run it after every event (`assert_consistent`) and checked mode
//! at every deep and final audit, so drift is a caught invariant
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
use std::ops::Deref;

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
    /// fed from the same footprint-diff funnel as `stats`. Never
    /// serialized; a deserialized or setup-edited fleet starts with a
    /// *full* journal since any pre-existing consumer snapshot is of
    /// unknown provenance.
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
    /// flips.
    off_capacity: CapacityIndex,
}

impl FleetStats {
    /// Full O(M) reconstruction — the ground truth the incremental updates
    /// are audited against.
    fn rebuild(classes: &[PmClass], pms: &[Pm]) -> Self {
        let mut stats = FleetStats {
            class_power: vec![PowerTally::default(); classes.len()],
            ..FleetStats::default()
        };
        // One pass over the PMs, which are large; the id sets and the
        // indexes are then built in bulk from what it collected.
        let (mut off, mut on_idle) = (Vec::new(), Vec::new());
        let mut capacity = Vec::with_capacity(pms.len());
        let mut off_capacity = Vec::with_capacity(pms.len());
        for pm in pms {
            let f = PmFootprint::of(pm);
            if f.off {
                off.push(pm.id);
            }
            if f.on_idle {
                on_idle.push(pm.id);
            }
            let counts_only = PmFootprint {
                off: false,
                on_idle: false,
                ..f
            };
            stats.admit(pm.id, &counts_only);
            capacity.push((f.available, pm.headroom()));
            off_capacity.push((f.off, pm.virtual_capacity()));
        }
        stats.off = off.into_iter().collect();
        stats.on_idle = on_idle.into_iter().collect();
        stats.capacity = CapacityIndex::build(capacity);
        stats.off_capacity = CapacityIndex::build(off_capacity);
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

    /// Edits the PMs in bulk before a run — reliability scores,
    /// overbooking ratios, initial power states — then rebuilds the fleet
    /// aggregates from scratch and marks the fleet-delta journal full, as
    /// deserialization does. Per-PM attributes are frozen once a run
    /// starts: from then on only [`Datacenter::apply`] changes the fleet.
    /// The VM index is left as it is, so reservations belong to `apply`.
    pub fn edit_pms(&mut self, edit: impl FnOnce(&mut [Pm])) {
        edit(&mut self.pms);
        self.stats = FleetStats::rebuild(&self.classes, &self.pms);
        self.journal = FleetDelta::new_full();
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

    /// Applies `f` to one PM and folds its footprint delta into `stats`,
    /// the capacity indexes and the fleet-delta journal.
    fn update_pm<R>(&mut self, id: PmId, f: impl FnOnce(&mut Pm) -> R) -> R {
        let idx = id.0 as usize;
        let before = PmFootprint::of(&self.pms[idx]);
        let result = f(&mut self.pms[idx]);
        let pm = &self.pms[idx];
        let after = PmFootprint::of(pm);
        if after != before {
            self.stats.retire(id, &before);
            self.stats.admit(id, &after);
            self.stats
                .capacity
                .set(idx, pm.is_available(), &pm.headroom());
            if after.off != before.off {
                self.stats
                    .off_capacity
                    .set(idx, after.off, &pm.virtual_capacity());
            }
            self.journal.note_pm(id);
        }
        result
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

    /// Applies one fleet mutation — during a run, the only way the fleet
    /// changes. On success, returns the VMs a [`FleetOp::Fail`] evicted
    /// (empty for every other op); on failure the fleet is unchanged.
    /// Every change is journaled and recorded in the flight recorder from
    /// the op itself (see [`FleetOp`] for what each op does and when it
    /// fails).
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
            FleetOp::Power { pm, state } => {
                let p = &self.pms[pm.0 as usize];
                let refused = match state {
                    PmState::Failed => true,
                    PmState::Off | PmState::ShuttingDown { .. } => !p.is_idle(),
                    PmState::On | PmState::Booting { .. } => false,
                };
                if refused {
                    return Err(PmError::PowerRefused(state));
                }
                if p.state == state {
                    None
                } else {
                    self.update_pm(pm, |p| p.state = state);
                    Some(power_code(state))
                }
            }
        };
        if let Some(b) = b {
            self.project(&op, b, &evicted);
        }
        Ok(evicted)
    }

    /// Projects an applied op onto the fleet-delta journal (its VM, or
    /// every VM a failure evicted; a power op's PM is already journaled)
    /// and one flight-recorder fleet record.
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
            FleetOp::Power { pm, .. } => {
                dvmp_obs::note_fleet(RecordKind::PmPower, pm.0.into(), b);
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

    /// Checks one PM's invariants, appending one finding per broken
    /// invariant to `out`: the reservations sum to `used`, `used` stays
    /// within the virtual capacity, and the VM index names the PM for every
    /// VM it holds. O(VMs on the PM).
    pub fn check_pm<F: From<FleetFault>>(&self, id: PmId, out: &mut Vec<(F, String)>) {
        let pm = self.pm(id);
        let mut sum = ResourceVector::zero(pm.capacity().k());
        for (vm, demand) in pm.reservations() {
            sum = sum.add(demand);
            if !self.hosts_of(vm).contains(&id) {
                out.push((
                    FleetFault::Bijection.into(),
                    format!("{vm} reserved on {id} but missing from the index"),
                ));
            }
        }
        let used = pm.used();
        if sum != *used {
            out.push((
                FleetFault::Capacity.into(),
                format!("{id}: reservations sum to {sum:?} but used is {used:?}"),
            ));
        }
        // Admission is bounded by the virtual capacity (the physical one
        // unless overbooked); physical saturation of an overbooked PM is
        // metered as SLA-violation time, not a fault.
        let fault = if pm.overbook.is_some() {
            FleetFault::VirtualCapacity
        } else {
            FleetFault::Capacity
        };
        let vcap = pm.virtual_capacity();
        for d in 0..vcap.k() {
            if used.get(d) > vcap.get(d) {
                out.push((
                    fault.into(),
                    format!(
                        "{id}: dim {d} used {} of virtual {}",
                        used.get(d),
                        vcap.get(d)
                    ),
                ));
            }
        }
    }

    /// Checks every fleet invariant, appending one finding per broken
    /// invariant to `out`: [`check_pm`](Self::check_pm) on each PM, then
    /// [`check_index_and_aggregates`](Self::check_index_and_aggregates).
    /// O(M log M + VMs).
    pub fn check<F: From<FleetFault>>(&self, out: &mut Vec<(F, String)>) {
        for id in self.pm_ids() {
            self.check_pm(id, out);
        }
        self.check_index_and_aggregates(out);
    }

    /// The fleet-wide half of [`check`](Self::check): each indexed VM has
    /// one host, or two distinct ones, each holding its reservation, and
    /// the slot table finds its entry; and the incremental aggregates
    /// equal a rebuild. O(M log M + VMs).
    pub fn check_index_and_aggregates<F: From<FleetFault>>(&self, out: &mut Vec<(F, String)>) {
        for (i, (vm, hosts)) in self.vm_hosts.iter().enumerate() {
            let mut fault = |detail: String| out.push((FleetFault::Bijection.into(), detail));
            if self.vm_slots.get(*vm) != Some(i) {
                fault(format!("{vm}'s slot disagrees with the index"));
            }
            match **hosts {
                [] => fault(format!("{vm} indexed with no hosts")),
                [to, from] if to == from => fault(format!("{vm} indexed twice on {to}")),
                _ => {}
            }
            for &pm in hosts.iter() {
                if self.pm(pm).reservation_of(*vm).is_none() {
                    fault(format!("{vm} indexed on {pm} without a reservation"));
                }
            }
        }
        if self.stats != FleetStats::rebuild(&self.classes, &self.pms) {
            out.push((
                FleetFault::AggregateDrift.into(),
                "incremental fleet aggregates differ from a rebuild".to_owned(),
            ));
        }
    }

    /// [`check`](Self::check) for tests and debug assertions.
    ///
    /// # Panics
    /// Panics with the first finding, if any.
    pub fn assert_consistent(&self) {
        let mut faults: Vec<(FleetFault, String)> = Vec::new();
        self.check(&mut faults);
        if let Some((fault, detail)) = faults.first() {
            panic!("{fault:?}: {detail}");
        }
    }
}

/// One broken fleet invariant, as [`Datacenter::check_pm`] and
/// [`Datacenter::check`] report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetFault {
    /// A PM's reservations do not sum to its `used`, or a PM that is not
    /// overbooked holds more than its capacity.
    Capacity,
    /// An overbooked PM holds more than its virtual capacity.
    VirtualCapacity,
    /// The VM index, its slot table and the per-PM reservations disagree.
    Bijection,
    /// The incrementally maintained aggregates differ from a rebuild.
    AggregateDrift,
}

/// The second payload word of a [`FleetOp::Power`] flight record: the
/// new state's code, 0 off, 1 booting, 2 on, 3 shutting down.
fn power_code(state: PmState) -> u64 {
    match state {
        PmState::Off => 0,
        PmState::Booting { .. } => 1,
        PmState::On => 2,
        PmState::ShuttingDown { .. } => 3,
        PmState::Failed => unreachable!("a failure is FleetOp::Fail"),
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

    fn power(pm: u32, state: PmState) -> FleetOp {
        FleetOp::Power {
            pm: PmId(pm),
            state,
        }
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
        dc.apply(power(4, PmState::Off)).unwrap();
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
        dc.apply(power(4, PmState::Off)).unwrap();
        assert!((dc.powered_core_utilization() - 7.0 / 24.0).abs() < 1e-12);
        // Fully off fleet → 0, not NaN.
        for id in [1, 2, 3] {
            dc.apply(power(id, PmState::Off)).unwrap();
        }
        dc.apply(FleetOp::Remove { vm: VmId(1) }).unwrap();
        dc.apply(power(0, PmState::Off)).unwrap();
        assert_eq!(dc.powered_core_utilization(), 0.0);
    }

    #[test]
    fn counts_ignore_unavailable_pms() {
        let mut dc = on_fleet();
        dc.apply(place(1, 0, vm_demand())).unwrap();
        dc.apply(power(1, PmState::Off)).unwrap();
        assert_eq!(dc.non_idle_count(), 1);
        assert_eq!(dc.idle_available_count(), 3);
    }

    #[test]
    fn setup_edits_rebuild_stats_and_fill_the_journal() {
        // A bulk edit may change anything per PM; the aggregates are
        // rebuilt and every consumer must treat the fleet as new.
        let mut dc = on_fleet();
        dc.apply(place(7, 0, vm_demand())).unwrap();
        dc.take_fleet_delta();
        dc.edit_pms(|pms| {
            pms[2].state = PmState::ShuttingDown {
                off_at: dvmp_simcore::SimTime::from_secs(55),
            };
            pms[3].state = PmState::Failed;
            pms[0].reliability = 0.5;
            pms[1].overbook = Some(OverbookRatios::cpu_mem(200, 100));
        });
        dc.assert_consistent();
        assert!(dc.fleet_delta().is_full());
        assert_eq!(dc.powered_count(), 4, "failed PM no longer powered");
        assert_eq!(dc.non_idle_count(), 1);
        assert_eq!(dc.pm(PmId(0)).reliability, 0.5);
        assert_eq!(
            dc.first_fit_available(&ResourceVector::cpu_mem(12, 512)),
            Some(PmId(1)),
            "the capacity index sees the new ratios"
        );
    }

    #[test]
    fn power_op_refuses_failed_and_hosting_power_downs() {
        let mut dc = on_fleet();
        dc.apply(place(1, 0, vm_demand())).unwrap();
        dc.apply(migrate(1, 1)).unwrap();
        dc.take_fleet_delta();
        let digest = dc.state_digest();
        let off_at = dvmp_simcore::SimTime::from_secs(90);
        for (pm, state) in [
            (2, PmState::Failed),
            (0, PmState::Off),
            (0, PmState::ShuttingDown { off_at }),
            (1, PmState::Off),
        ] {
            assert_eq!(
                dc.apply(power(pm, state)),
                Err(PmError::PowerRefused(state)),
                "pm{pm} -> {state:?}"
            );
        }
        assert_eq!(dc.state_digest(), digest);
        assert!(dc.fleet_delta().is_empty(), "rejections journal nothing");
        dc.assert_consistent();

        // A hosting PM may still change between states that host.
        let ready_at = dvmp_simcore::SimTime::from_secs(30);
        dc.apply(power(0, PmState::Booting { ready_at })).unwrap();
        assert_eq!(dc.pm(PmId(0)).state, PmState::Booting { ready_at });
        // An idle PM powers down, and comes back from a failure as off.
        dc.apply(power(2, PmState::ShuttingDown { off_at }))
            .unwrap();
        assert_eq!(dc.powered_count(), 5, "shutting down still draws power");
        dc.apply(FleetOp::Fail { pm: PmId(3) }).unwrap();
        dc.apply(power(3, PmState::Off)).unwrap();
        assert_eq!(dc.off_pm_ids().collect::<Vec<_>>(), vec![PmId(3)]);
        dc.assert_consistent();
    }

    #[test]
    fn off_and_on_idle_sets_track_transitions() {
        let mut dc = on_fleet();
        assert_eq!(dc.off_pm_ids().count(), 0);
        assert_eq!(
            dc.on_idle_pm_ids().collect::<Vec<_>>(),
            vec![PmId(0), PmId(1), PmId(2), PmId(3), PmId(4)]
        );
        dc.apply(power(1, PmState::Off)).unwrap();
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
        dc.apply(power(0, PmState::On)).unwrap();
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
            dc.apply(power(id, PmState::On)).unwrap();
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
        dc.apply(power(1, PmState::Off)).unwrap();
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
        dc.apply(power(3, PmState::Off)).unwrap();
        let d = dc.take_fleet_delta();
        assert!(!d.is_full());
        assert_eq!(
            d.dirty_pms().iter().copied().collect::<Vec<_>>(),
            vec![PmId(0), PmId(1), PmId(3)]
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

        // Setting the state a PM is already in journals nothing; a failed
        // reservation journals nothing.
        dc.apply(power(0, PmState::On)).unwrap();
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

    /// `dc.check`'s findings, in order.
    fn faults(dc: &Datacenter) -> Vec<FleetFault> {
        let mut out: Vec<(FleetFault, String)> = Vec::new();
        dc.check(&mut out);
        out.into_iter().map(|(fault, _)| fault).collect()
    }

    #[test]
    fn check_reports_tampered_aggregates() {
        let mut dc = on_fleet();
        dc.apply(place(1, 0, vm_demand())).unwrap();
        assert_eq!(faults(&dc), vec![]);
        dc.stats.powered -= 1;
        assert_eq!(faults(&dc), vec![FleetFault::AggregateDrift]);
    }

    #[test]
    fn check_reports_a_pm_pushed_past_its_virtual_capacity() {
        let mut dc = overbooked_fleet();
        // 14 of 16 virtual cores on the 8-core fast PM.
        dc.apply(place(1, 0, ResourceVector::cpu_mem(14, 4_096)))
            .unwrap();
        // Tightening the ratio leaves it holding 14 of 12 virtual cores.
        dc.edit_pms(|pms| pms[0].overbook = Some(OverbookRatios::cpu_mem(150, 150)));
        assert_eq!(dc.pm(PmId(0)).headroom(), ResourceVector::cpu_mem(0, 8_192));
        assert_eq!(faults(&dc), vec![FleetFault::VirtualCapacity]);
        assert_eq!(
            dc.first_fit_available(&ResourceVector::cpu_mem(1, 512)),
            Some(PmId(1)),
            "the capacity index saw the edit"
        );
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
        dc.apply(power(2, PmState::On)).unwrap();
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
            let id = (step * 5) % 12;
            let state = if dc.pm(PmId(id)).state == PmState::Off {
                PmState::On
            } else {
                PmState::Off
            };
            dc.apply(power(id, state)).unwrap();
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
        dc.apply(power(4, PmState::Off)).unwrap();
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
