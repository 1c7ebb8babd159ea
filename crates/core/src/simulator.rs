//! The event-driven datacenter simulator.
//!
//! One [`Simulation`] owns a fleet, a request stream, a placement policy
//! and the controllers, and advances through eight event kinds:
//!
//! | event | effect |
//! |---|---|
//! | `Arrival` | admit or queue a request; dynamic pass (trigger #1) |
//! | `CreationDone` | VM starts executing; departure scheduled |
//! | `Departure` | resources released; dynamic pass (trigger #2) |
//! | `MigrationDone` | source reservation released (pre-copy ends) |
//! | `BootDone` / `ShutdownDone` | PM power transitions |
//! | `PmFailure` / `RepairDone` | failure injection (trigger #3) |
//! | `ControlPeriod` | spare-server decision (Section IV) |
//!
//! ## Timing model
//!
//! *Creation*: a request placed at `t` on an up PM starts executing at
//! `t + T_cre`; on a booting PM, at `boot_ready + T_cre`. *Migration*
//! (pre-copy): the VM keeps executing on the source, the destination holds
//! a reservation, and after `T_mig` the source is released; the VM's
//! completion is pushed back by `T_mig` (lost work). *Departure* happens
//! `actual_runtime` after execution starts, plus every overhead incurred.
//!
//! ## Applying planned migrations
//!
//! Algorithm 1 plans against a state in which a moved VM frees its source
//! immediately, but the live fleet holds double reservations while a
//! migration is in flight. Each planned move is therefore re-validated at
//! apply time; moves that no longer fit are dropped and counted
//! (`skipped_migrations` in the report) rather than violating capacity.

use crate::config::SimConfig;
use crate::oracle::Oracle;
use dvmp_cluster::datacenter::Datacenter;
use dvmp_cluster::pm::{PmError, PmId, PmState};
use dvmp_cluster::reliability::FailureProcess;
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::{Vm, VmId, VmSpec, VmState};
use dvmp_cluster::{FleetOp, VmTable};
use dvmp_forecast::spare::{self, SpareConfig, SpareServerController};
use dvmp_metrics::recorder::{RunMeta, RunReport, SimulationRecorder};
use dvmp_placement::{Migration, PlacementPolicy, PlacementView};
use dvmp_simcore::event::EventId;
use dvmp_simcore::{Engine, Scheduler, SimTime, World};
use std::collections::{BTreeSet, VecDeque};

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Request `requests[idx]` arrives.
    Arrival(u32),
    /// A VM's creation overhead ends; it starts executing.
    CreationDone(VmId),
    /// A VM finishes and departs.
    Departure(VmId),
    /// A live migration completes.
    MigrationDone(VmId),
    /// A PM finishes booting.
    BootDone(PmId),
    /// A PM finishes shutting down.
    ShutdownDone(PmId),
    /// A PM fails.
    PmFailure(PmId),
    /// A failed PM returns (in the `Off` state).
    RepairDone(PmId),
    /// Spare-server control period boundary.
    ControlPeriod,
    /// Vertical-elasticity request `resizes[idx]` fires.
    Resize(u32),
}

/// One scheduled vertical-elasticity request: at `at`, the VM asks for its
/// reservation to become `new_demand` in place. Requests against VMs that
/// are queued, completed or mid-migration — or grows that exceed the
/// host's (virtual) headroom — are rejected and counted, never applied
/// partially.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ResizeRequest {
    /// The VM to resize.
    pub vm: VmId,
    /// When the request fires.
    pub at: SimTime,
    /// The requested new reservation.
    pub new_demand: ResourceVector,
}

/// The simulator's pending events and QoS flag for one VM.
#[derive(Debug, Clone, Copy, Default)]
struct VmEvents {
    /// The pending `CreationDone`.
    creation: Option<EventId>,
    /// The pending `Departure`.
    departure: Option<EventId>,
    /// The pending `MigrationDone`.
    migration: Option<EventId>,
    /// The request's first start was already counted toward QoS — a VM
    /// restarted after a PM failure is not a new request.
    qos_started: bool,
}

struct SimWorld {
    dc: Datacenter,
    /// Every request's VM from its arrival on, with a slot reserved for
    /// each request up front.
    vms: VmTable,
    /// Per-VM events, indexed by the VM's slot in `vms`.
    vm_events: Vec<VmEvents>,
    requests: Vec<VmSpec>,
    resizes: Vec<ResizeRequest>,
    queue: VecDeque<VmId>,
    policy: Box<dyn PlacementPolicy>,
    /// The Section IV controller; `None` keeps every PM on.
    spare: Option<SpareServerController>,
    recorder: SimulationRecorder,
    cfg: SimConfig,
    failure: Option<FailureProcess>,
    /// The pending `PmFailure` of each PM, indexed by PM id.
    failure_events: Vec<Option<EventId>>,
    /// `(estimated end, id)` of every active VM, so the spare controller
    /// counts `n_departure` over the VMs ending within its window instead
    /// of scanning every VM ever submitted. Updated wherever a VM's start
    /// or overhead changes or it leaves the active set.
    departure_index: BTreeSet<(SimTime, VmId)>,
    /// Checked-mode auditor (None unless `cfg.checked`); boxed to keep the
    /// hot unchecked path's world small.
    oracle: Option<Box<Oracle>>,
}

impl SimWorld {
    /// Records the t = 0 fleet state so every series starts at the epoch,
    /// and arms the checked-mode oracle against it.
    fn initial_sample(&mut self) {
        self.recorder.sample_fleet(SimTime::ZERO, &self.dc);
        if self.cfg.checked && self.oracle.is_none() {
            // Checked mode arms the flight recorder too, so any violation
            // can ship the records leading up to it (DESIGN.md §10). The
            // switch is sticky for the thread running the simulation.
            dvmp_obs::set_enabled(true);
            self.oracle = Some(Box::new(Oracle::new(&self.dc)));
        }
        if self.cfg.obs_summary {
            self.recorder.enable_obs_sampling();
        }
    }

    /// `id`'s event bookkeeping.
    #[inline]
    fn events(&mut self, id: VmId) -> &mut VmEvents {
        let slot = self.vms.slot(id).expect("every request has a slot");
        &mut self.vm_events[slot]
    }

    /// Adds `id`'s current estimated end to the departure index.
    fn index_departure(&mut self, id: VmId) {
        if let Some(end) = self.vms[id].estimated_end() {
            self.departure_index.insert((end, id));
        }
    }

    /// Drops `id`'s current estimated end from the departure index; call
    /// before its start or overhead changes.
    fn unindex_departure(&mut self, id: VmId) {
        if let Some(end) = self.vms[id].estimated_end() {
            self.departure_index.remove(&(end, id));
        }
    }

    /// Applies one fleet mutation and, once the datacenter accepts it,
    /// hands the same op to the checked-mode oracle, stamped with the sim
    /// time of the event performing it: the reference model replays what
    /// the simulator asked for, never the datacenter's account of it.
    /// Returns the VMs a [`FleetOp::Fail`] evicted.
    fn apply(&mut self, now: SimTime, op: FleetOp) -> Result<Vec<VmId>, PmError> {
        let evicted = self.dc.apply(op)?;
        if let Some(o) = &mut self.oracle {
            o.record(now, &op);
        }
        Ok(evicted)
    }

    /// Places `vm` on `pm` and schedules its creation completion. The
    /// reservation taken is the VM's *current* demand — a VM re-placed
    /// after a failure keeps its resized size, not its original spec.
    fn start_vm(&mut self, id: VmId, pm: PmId, now: SimTime, sched: &mut Scheduler<Event>) {
        let slot = self.vms.slot(id).expect("every request has a slot");
        let demand = *self.vms[id].demand();
        self.apply(now, FleetOp::Place { vm: id, pm, demand })
            .expect("policy returned a PM that can host the request");
        let vm = self.vms.get_mut(id).expect("VM exists");
        let boot_ready = match self.dc.pm(pm).state {
            PmState::Booting { ready_at } => ready_at.max(now),
            _ => now,
        };
        let ready = boot_ready + self.dc.pm(pm).class.creation_time;
        vm.started_at = Some(now);
        vm.overhead = ready - now;
        vm.state = VmState::Creating {
            pm,
            ready_at: ready,
        };
        let events = &mut self.vm_events[slot];
        if !events.qos_started {
            events.qos_started = true;
            self.recorder
                .qos
                .record_start(now.saturating_since(vm.spec.submit_time));
        }
        events.creation = Some(sched.schedule_at(ready, Event::CreationDone(id)));
        self.index_departure(id);
    }

    /// Attempts to place a VM; returns `true` on success. On failure,
    /// requests a boot of the first powered-off PM that could ever host
    /// the demand (capacity-wise), so the request can land once it is up.
    fn try_place(&mut self, id: VmId, now: SimTime, sched: &mut Scheduler<Event>) -> bool {
        // Policies see the VM's current demand (resized VMs re-place at
        // their live size); for never-resized VMs this is the spec.
        let vm = &self.vms[id];
        let mut spec = vm.spec.clone();
        spec.resources = *vm.demand();
        // Hand the accumulated fleet dirt to the policy before it reads
        // the view: the class-compressed planner patches its persistent
        // state from exactly this journal, and stateless policies drop it.
        // Draining at every placement keeps the journal to the dirt since
        // the previous one under every policy.
        let delta = self.dc.take_fleet_delta();
        self.policy.note_fleet_delta(delta);
        let chosen = self.policy.place(
            &PlacementView {
                dc: &self.dc,
                vms: &self.vms,
                now,
            },
            &spec,
        );
        match chosen {
            Some(pm) if self.dc.pm(pm).can_host(&spec.resources) => {
                self.start_vm(id, pm, now, sched);
                true
            }
            _ => {
                self.request_boot_for(&spec, now, sched);
                false
            }
        }
    }

    /// Boots the first `Off` PM whose capacity covers `spec`, if any.
    fn request_boot_for(&mut self, spec: &VmSpec, now: SimTime, sched: &mut Scheduler<Event>) {
        if self.spare.is_none() {
            return; // all machines are permanently on
        }
        if let Some(pm) = self.dc.first_off_fitting(&spec.resources) {
            self.boot_pm(pm, now, sched);
        }
    }

    /// Sets `pm`'s power state through the op stream; every transition
    /// the simulator makes is one the datacenter accepts.
    fn power(&mut self, now: SimTime, pm: PmId, state: PmState) {
        self.apply(now, FleetOp::Power { pm, state })
            .expect("the simulator powers down idle PMs only");
    }

    fn boot_pm(&mut self, id: PmId, now: SimTime, sched: &mut Scheduler<Event>) {
        debug_assert_eq!(self.dc.pm(id).state, PmState::Off);
        let ready_at = now + self.dc.pm(id).class.on_off_time;
        self.power(now, id, PmState::Booting { ready_at });
        sched.schedule_at(ready_at, Event::BootDone(id));
    }

    fn shutdown_pm(&mut self, id: PmId, now: SimTime, sched: &mut Scheduler<Event>) {
        if let Some(ev) = self.failure_events[id.0 as usize].take() {
            sched.cancel(ev);
        }
        debug_assert_eq!(self.dc.pm(id).state, PmState::On);
        let off_at = now + self.dc.pm(id).class.on_off_time;
        self.power(now, id, PmState::ShuttingDown { off_at });
        sched.schedule_at(off_at, Event::ShutdownDone(id));
    }

    /// Retries queued requests in FIFO order (later entries may still be
    /// placed when an earlier, larger request cannot — avoiding strict
    /// head-of-line blocking). Queued requests are near-uniform in size,
    /// so after a bounded number of consecutive failures the scan stops:
    /// this keeps a deeply backlogged (overloaded) system from rescanning
    /// its whole queue on every event.
    fn drain_queue(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        const MAX_CONSECUTIVE_FAILURES: u32 = 32;
        // Single in-place compaction pass: placed entries leave a hole,
        // failed entries shift down to fill it. FIFO order is preserved
        // and each event costs O(queue) total instead of the snapshot
        // Vec + O(queue) retain *per placed VM* it used to.
        let len = self.queue.len();
        let (mut read, mut write) = (0usize, 0usize);
        let mut failures = 0u32;
        while read < len {
            let id = self.queue[read];
            if self.try_place(id, now, sched) {
                failures = 0;
                read += 1;
            } else {
                self.queue.swap(write, read);
                write += 1;
                read += 1;
                failures += 1;
                if failures >= MAX_CONSECUTIVE_FAILURES {
                    break;
                }
            }
        }
        // Early stop: keep the unscanned tail, in order.
        while read < len {
            self.queue.swap(write, read);
            write += 1;
            read += 1;
        }
        self.queue.truncate(write);
    }

    /// Runs a dynamic-migration pass and applies the planned moves.
    fn consolidate(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        if !self.policy.is_dynamic() {
            return;
        }
        // Drain the fleet-delta journal accumulated since the previous
        // pass or placement and hand it to the policy *before* building
        // the view: an incremental planner updates its persistent matrix
        // from exactly this dirt.
        let delta = self.dc.take_fleet_delta();
        self.policy.note_fleet_delta(delta);
        let moves = self.policy.plan_migrations(&PlacementView {
            dc: &self.dc,
            vms: &self.vms,
            now,
        });
        {
            let _span = dvmp_obs::span!(dvmp_obs::Phase::PlanApply);
            for m in moves {
                self.apply_migration(m, now, sched);
            }
        }
        if let Some(sp) = &mut self.spare {
            sp.update_n_ave(self.dc.active_vm_count(), self.dc.non_idle_count());
        }
    }

    fn apply_migration(&mut self, m: Migration, now: SimTime, sched: &mut Scheduler<Event>) {
        // Re-validate against live state (see module docs). A self-move
        // (`from == to`) is never sensible and would double-reserve the VM
        // on its own host, so it is dropped like any other stale plan.
        let valid = m.from != m.to
            && matches!(
                self.vms.get(m.vm).map(|vm| &vm.state),
                Some(VmState::Running { pm }) if *pm == m.from
            )
            && self.dc.pm(m.to).can_host(self.vms[m.vm].demand());
        if !valid {
            self.recorder.record_skipped_migration();
            dvmp_obs::note_migration_skipped(m.vm.0 as u64);
            return;
        }
        let op = FleetOp::BeginMigration {
            vm: m.vm,
            to: m.to,
            demand: *self.vms[m.vm].demand(),
        };
        self.apply(now, op).expect("validated migration");
        let t_mig = self.dc.pm(m.to).class.migration_time;
        let done = now + t_mig;
        self.unindex_departure(m.vm);
        let vm = self.vms.get_mut(m.vm).expect("VM exists");
        vm.state = VmState::Migrating {
            from: m.from,
            to: m.to,
            done_at: done,
        };
        vm.overhead += t_mig;
        vm.migrations += 1;
        self.index_departure(m.vm);
        self.events(m.vm).migration = Some(sched.schedule_at(done, Event::MigrationDone(m.vm)));
        self.reschedule_departure(m.vm, sched);
        self.recorder.record_migration();
    }

    /// Applies one vertical-elasticity request: the VM's reservation
    /// becomes `new` in place on its current host. Rejections (VM not in
    /// a resizable lifecycle state, grow beyond the host's virtual
    /// headroom) are counted and leave the fleet untouched; a shrink
    /// frees capacity, so the queue is retried afterwards.
    fn handle_resize(
        &mut self,
        id: VmId,
        new: ResourceVector,
        now: SimTime,
        sched: &mut Scheduler<Event>,
    ) {
        let resizable = matches!(
            self.vms.get(id).map(|vm| &vm.state),
            Some(VmState::Creating { .. } | VmState::Running { .. })
        );
        if !resizable {
            self.recorder.record_rejected_resize();
            return;
        }
        let old = *self.vms[id].demand();
        if new == old {
            return; // same-size no-op: no journal dirt, no counters
        }
        match self.apply(now, FleetOp::Resize { vm: id, new }) {
            Ok(_) => {
                let vm = self.vms.get_mut(id).expect("VM exists");
                vm.current_demand = Some(new);
                vm.resizes += 1;
                self.recorder.record_resize();
                if new.le(&old) {
                    // Shrink: capacity was freed — queued requests may fit.
                    self.drain_queue(now, sched);
                }
            }
            Err(_) => self.recorder.record_rejected_resize(),
        }
    }

    /// Cancels and re-schedules a VM's departure from its projected time.
    fn reschedule_departure(&mut self, id: VmId, sched: &mut Scheduler<Event>) {
        if let Some(ev) = self.events(id).departure.take() {
            sched.cancel(ev);
            let at = self.vms[id]
                .projected_departure()
                .expect("running VM has a departure");
            self.events(id).departure = Some(sched.schedule_at(at, Event::Departure(id)));
        }
    }

    /// Boots or shuts down idle machines so the idle-available count
    /// matches the last tick's spare target.
    fn enforce_power(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        let Some(sp) = &self.spare else { return };
        let (boot, shutdown) = spare::power_plan(
            sp.decision().map_or(0, |d| d.spare),
            self.dc.idle_available_count(),
            self.dc.off_pm_ids(),
            self.dc.on_idle_pm_ids(),
        );
        for id in boot {
            self.boot_pm(id, now, sched);
        }
        for id in shutdown {
            self.shutdown_pm(id, now, sched);
        }
    }

    fn schedule_pm_failure(&mut self, pm: PmId, now: SimTime, sched: &mut Scheduler<Event>) {
        if let Some(fp) = &mut self.failure {
            if let Some(at) = fp.next_failure(&self.dc, pm, now) {
                self.failure_events[pm.0 as usize] =
                    Some(sched.schedule_at(at, Event::PmFailure(pm)));
            }
        }
    }

    /// Resets an evicted VM to the queue (Section III-C: VMs of a failed
    /// PM are treated as new requests).
    fn requeue_vm(&mut self, id: VmId, sched: &mut Scheduler<Event>) {
        let events = self.events(id);
        for ev in [
            &mut events.departure,
            &mut events.creation,
            &mut events.migration,
        ] {
            if let Some(ev) = ev.take() {
                sched.cancel(ev);
            }
        }
        self.unindex_departure(id);
        let vm = self.vms.get_mut(id).expect("VM exists");
        vm.state = VmState::Queued;
        vm.started_at = None;
        vm.overhead = dvmp_simcore::SimDuration::ZERO;
        self.queue.push_back(id);
    }

    fn handle_pm_failure(&mut self, pm: PmId, now: SimTime, sched: &mut Scheduler<Event>) {
        self.failure_events[pm.0 as usize] = None;
        if !self.dc.pm(pm).is_powered() {
            return; // raced with a shutdown
        }
        let evicted = self
            .apply(now, FleetOp::Fail { pm })
            .expect("a failure always applies");
        self.recorder.record_pm_failure();
        for id in evicted {
            let state = self.vms[id].state;
            match state {
                VmState::Creating { .. } | VmState::Running { .. } => {
                    self.requeue_vm(id, sched);
                }
                VmState::Migrating { from, to, .. } => {
                    if to == pm {
                        // Destination died: abort the migration, keep
                        // running on the source, refund the overhead.
                        if let Some(ev) = self.events(id).migration.take() {
                            sched.cancel(ev);
                        }
                        let t_mig = self.dc.pm(to).class.migration_time;
                        self.unindex_departure(id);
                        let vm = self.vms.get_mut(id).expect("VM exists");
                        vm.overhead = vm.overhead.saturating_sub(t_mig);
                        vm.state = VmState::Running { pm: from };
                        self.index_departure(id);
                        self.reschedule_departure(id, sched);
                        self.recorder.record_failure_aborted_migration();
                        dvmp_obs::note_migration_aborted(id.0 as u64);
                    } else {
                        // Source died: execution lost; drop the destination
                        // reservation too and restart from the queue.
                        self.apply(now, FleetOp::Remove { vm: id })
                            .expect("a removal always applies");
                        self.requeue_vm(id, sched);
                        self.recorder.record_failure_lost_migration();
                    }
                }
                VmState::Queued | VmState::Completed { .. } => {}
            }
        }
        if let Some(fc) = self.cfg.failures {
            sched.schedule_at(now + fc.repair_time, Event::RepairDone(pm));
        }
        self.drain_queue(now, sched);
        self.consolidate(now, sched);
        self.enforce_power(now, sched);
    }

    fn handle_control_period(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        self.recorder
            .sample_timeseries(now, &self.dc, self.queue.len());
        let Some(sp) = &mut self.spare else { return };
        let period = sp.config().control_period;
        let _span = dvmp_obs::span!(dvmp_obs::Phase::SpareControl);
        // Remaining time ≤ T exactly when the estimated end is ≤ now + T.
        let horizon = (now + period, VmId(u32::MAX));
        let n_dep = self.departure_index.range(..=horizon).count() as u64;
        debug_assert_eq!(
            n_dep,
            self.vms
                .values()
                .filter(|vm| vm.is_active() && vm.estimated_remaining(now) <= period)
                .count() as u64,
            "indexed n_departure disagrees with the full scan at t={now}"
        );
        sp.tick(now, n_dep);
        self.enforce_power(now, sched);
        sched.schedule_after(period, Event::ControlPeriod);
    }
}

impl World for SimWorld {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        match event {
            Event::Arrival(idx) => {
                let spec = self.requests[idx as usize].clone();
                let id = spec.id;
                self.vms.insert(Vm::new(spec));
                self.recorder.record_arrival();
                if let Some(sp) = &mut self.spare {
                    sp.record_arrival(now);
                }
                if !self.try_place(id, now, sched) {
                    self.queue.push_back(id);
                }
                self.consolidate(now, sched);
                self.enforce_power(now, sched);
            }
            Event::CreationDone(id) => {
                self.events(id).creation = None;
                let vm = self.vms.get_mut(id).expect("VM exists");
                if let VmState::Creating { pm, .. } = vm.state {
                    vm.state = VmState::Running { pm };
                    let ev = sched.schedule_at(now + vm.spec.actual_runtime, Event::Departure(id));
                    self.events(id).departure = Some(ev);
                }
            }
            Event::Departure(id) => {
                let events = self.events(id);
                events.departure = None;
                let migration = events.migration.take();
                self.unindex_departure(id);
                if let Some(ev) = migration {
                    sched.cancel(ev);
                }
                self.apply(now, FleetOp::Remove { vm: id })
                    .expect("a removal always applies");
                let vm = self.vms.get_mut(id).expect("VM exists");
                vm.state = VmState::Completed { at: now };
                let spec = &vm.spec;
                let core_seconds = spec.actual_runtime.as_secs_f64() * spec.resources.get(0) as f64;
                self.recorder.record_departure(core_seconds);
                self.drain_queue(now, sched);
                self.consolidate(now, sched);
                self.enforce_power(now, sched);
            }
            Event::MigrationDone(id) => {
                self.events(id).migration = None;
                if let VmState::Migrating { from, to, .. } = self.vms[id].state {
                    self.apply(now, FleetOp::FinishMigration { vm: id, from })
                        .expect("migration bookkeeping consistent");
                    self.vms.get_mut(id).expect("VM exists").state = VmState::Running { pm: to };
                    self.drain_queue(now, sched);
                    self.enforce_power(now, sched);
                }
            }
            Event::BootDone(id) => {
                if matches!(self.dc.pm(id).state, PmState::Booting { .. }) {
                    self.power(now, id, PmState::On);
                    self.schedule_pm_failure(id, now, sched);
                    self.drain_queue(now, sched);
                }
            }
            Event::ShutdownDone(id) => {
                if matches!(self.dc.pm(id).state, PmState::ShuttingDown { .. }) {
                    self.power(now, id, PmState::Off);
                }
            }
            Event::PmFailure(id) => self.handle_pm_failure(id, now, sched),
            Event::RepairDone(id) => {
                if self.dc.pm(id).state == PmState::Failed {
                    self.power(now, id, PmState::Off);
                }
            }
            Event::ControlPeriod => self.handle_control_period(now, sched),
            Event::Resize(idx) => {
                let req = self.resizes[idx as usize];
                self.handle_resize(req.vm, req.new_demand, now, sched);
            }
        }
        self.recorder.sample_fleet(now, &self.dc);
        #[cfg(debug_assertions)]
        self.dc.assert_consistent();
    }

    fn after_event(&mut self, now: SimTime, seq: u64) {
        // Take/put-back dance: the oracle needs `&mut` while reading the
        // rest of the world.
        if let Some(mut oracle) = self.oracle.take() {
            let _span = dvmp_obs::span!(dvmp_obs::Phase::OracleAudit);
            oracle.audit(
                now,
                seq,
                &self.dc,
                &self.vms,
                &self.queue,
                self.recorder.energy(),
                self.recorder.saturation(),
            );
            self.oracle = Some(oracle);
        }
    }
}

/// A fully configured simulation run.
pub struct Simulation {
    engine: Engine<SimWorld>,
    horizon: SimTime,
}

impl Simulation {
    /// Builds a simulation over `fleet` serving `requests` under `policy`.
    ///
    /// When spare-server control is enabled (the default) machines start
    /// powered off and are booted on demand; with `cfg.spare = None` every
    /// machine is switched on at t = 0 and stays on.
    ///
    /// # Panics
    /// Panics when the policy rejects the fleet or the requests (see
    /// [`Simulation::try_new`]).
    pub fn new(
        fleet: Datacenter,
        requests: Vec<VmSpec>,
        policy: Box<dyn PlacementPolicy>,
        cfg: SimConfig,
    ) -> Self {
        Self::try_new(fleet, requests, policy, cfg)
            .unwrap_or_else(|e| panic!("invalid simulation input: {e}"))
    }

    /// [`Simulation::new`] that returns an error instead of panicking
    /// when a PM class's power model is invalid
    /// ([`PmClass::check_power`](dvmp_cluster::pm::PmClass::check_power)),
    /// when the policy rejects the fleet or the requests
    /// ([`PlacementPolicy::check_inputs`]) — e.g. resource vectors whose
    /// dimensions disagree with the dynamic scheme's `min_vm` — when two
    /// requests share an id, when `cfg.power_groups` does not partition
    /// the fleet, or when [`SpareConfig::validate`] rejects `cfg.spare`.
    pub fn try_new(
        mut fleet: Datacenter,
        mut requests: Vec<VmSpec>,
        policy: Box<dyn PlacementPolicy>,
        cfg: SimConfig,
    ) -> Result<Self, String> {
        for class in fleet.classes() {
            class.check_power()?;
        }
        policy.check_inputs(&fleet, &requests)?;
        let vms = VmTable::with_ids(requests.iter().map(|r| r.id))
            .map_err(|id| format!("request id {id} is used by more than one request"))?;
        requests.sort_by_key(|r| (r.submit_time, r.id));
        cfg.spare.as_ref().map_or(Ok(()), SpareConfig::validate)?;
        let spare = cfg.spare.clone().map(SpareServerController::new);
        if spare.is_none() {
            fleet.edit_pms(|pms| pms.iter_mut().for_each(|pm| pm.state = PmState::On));
        }
        let failure = cfg
            .failures
            .map(|fc| FailureProcess::new(fc.base_rate, cfg.seed));
        let mut recorder = SimulationRecorder::new();
        if let Some(groups) = &cfg.power_groups {
            groups
                .validate(fleet.len())
                .map_err(|e| format!("power_groups must partition the fleet: {e}"))?;
            recorder.set_groups(groups.clone());
        }

        let world = SimWorld {
            failure_events: vec![None; fleet.len()],
            dc: fleet,
            vm_events: vec![VmEvents::default(); requests.len()],
            vms,
            requests,
            resizes: Vec::new(),
            queue: VecDeque::new(),
            policy,
            spare,
            recorder,
            cfg: cfg.clone(),
            failure,
            departure_index: BTreeSet::new(),
            oracle: None,
        };
        let mut engine = Engine::new(world);

        // Seed events: the control loop first (so the t=0 decision runs
        // before the first arrival), then every arrival, then failure
        // clocks for initially-on machines.
        if engine.world().spare.is_some() {
            engine
                .scheduler_mut()
                .schedule_at(SimTime::ZERO, Event::ControlPeriod);
        }
        for idx in 0..engine.world().requests.len() {
            let at = engine.world().requests[idx].submit_time;
            engine
                .scheduler_mut()
                .schedule_at(at, Event::Arrival(idx as u32));
        }
        if cfg.failures.is_some() && engine.world().spare.is_none() {
            // All-on fleets arm every failure clock at t = 0.
            let (world, sched) = engine.world_and_scheduler();
            for id in world.dc.pm_ids().collect::<Vec<_>>() {
                world.schedule_pm_failure(id, SimTime::ZERO, sched);
            }
        }

        Ok(Simulation {
            engine,
            horizon: cfg.horizon,
        })
    }

    /// Schedules a set of vertical-elasticity requests (resize events)
    /// for this run. Requests are sorted by (time, VM) so identical sets
    /// produce identical event orders regardless of generation order.
    pub fn with_resizes(mut self, mut resizes: Vec<ResizeRequest>) -> Self {
        resizes.sort_by_key(|r| (r.at, r.vm));
        for (idx, r) in resizes.iter().enumerate() {
            self.engine
                .scheduler_mut()
                .schedule_at(r.at, Event::Resize(idx as u32));
        }
        self.engine.world_mut().resizes = resizes;
        self
    }

    /// Runs to the horizon and produces the report.
    pub fn run(mut self) -> RunReport {
        self.execute()
    }

    /// Runs to the horizon, returning the report together with the number
    /// of events the engine processed — the numerator of the events/sec
    /// throughput metric the scaling benchmarks record. (`run` consumes
    /// the simulation, so the count cannot be read afterwards otherwise.)
    pub fn run_counting(mut self) -> (RunReport, u64) {
        let report = self.execute();
        let events = self.events_processed();
        (report, events)
    }

    fn execute(&mut self) -> RunReport {
        self.engine.world_mut().initial_sample();
        self.engine.run_until(self.horizon);
        let world = self.engine.world_mut();
        let oracle = world.oracle.take();
        for &id in &world.queue {
            let slot = world.vms.slot(id).expect("every request has a slot");
            if !world.vm_events[slot].qos_started {
                world.recorder.qos.record_never_started();
            }
        }
        let world = self.engine.world();
        let mut report = world.recorder.finish(world.policy.name(), self.horizon);
        // Wall-clock stays out of library runs so same-seed reports
        // serialize identically; the CLI fills `meta.wall_seconds`.
        report.meta = Some(RunMeta::for_run(world.cfg.seed));
        if let Some(oracle) = oracle {
            report.oracle = Some(oracle.into_summary(
                self.horizon,
                &world.dc,
                &world.vms,
                &world.queue,
                world.recorder.energy(),
                world.recorder.saturation(),
            ));
        }
        report
    }

    /// Number of events processed (after [`run`](Self::run) this is final).
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FailureConfig;
    use dvmp_cluster::datacenter::FleetBuilder;
    use dvmp_cluster::pm::PmClass;
    use dvmp_cluster::resources::ResourceVector;
    use dvmp_placement::{DynamicPlacement, FirstFit};
    use dvmp_simcore::SimDuration;

    fn small_fleet() -> Datacenter {
        FleetBuilder::new()
            .add_class(PmClass::paper_fast(), 2, 0.99)
            .add_class(PmClass::paper_slow(), 2, 0.95)
            .build()
    }

    fn spec(id: u32, submit: u64, runtime: u64) -> VmSpec {
        VmSpec::exact(
            VmId(id),
            SimTime::from_secs(submit),
            ResourceVector::cpu_mem(1, 512),
            SimDuration::from_secs(runtime),
        )
    }

    fn base_cfg() -> SimConfig {
        SimConfig {
            horizon: SimTime::from_days(1),
            ..SimConfig::default()
        }
    }

    #[test]
    fn single_vm_lifecycle_first_fit() {
        let requests = vec![spec(1, 100, 10_000)];
        let sim = Simulation::new(small_fleet(), requests, Box::new(FirstFit), base_cfg());
        let report = sim.run();
        assert_eq!(report.total_arrivals, 1);
        assert_eq!(report.total_departures, 1);
        assert_eq!(report.total_migrations, 0);
        assert_eq!(report.qos.total_requests, 1);
        assert!(report.total_energy_kwh > 0.0);
    }

    #[test]
    fn mismatched_resource_dimensions_are_rejected_at_build() {
        // A 3-D fleet under the dynamic scheme's 2-D `min_vm`.
        let cube = PmClass {
            capacity: ResourceVector::new(&[8, 8_192, 100]),
            ..PmClass::paper_fast()
        };
        let fleet = FleetBuilder::new().add_class(cube, 2, 0.99).build();
        let dynamic = || Box::new(DynamicPlacement::paper_default());
        let err = Simulation::try_new(fleet.clone(), vec![], dynamic(), base_cfg())
            .err()
            .expect("a 3-D fleet is contradictory input");
        assert!(err.contains("3 resource dimensions"), "{err}");
        // A 3-D request on the paper's 2-D fleet.
        let mut odd = spec(7, 0, 100);
        odd.resources = ResourceVector::new(&[1, 512, 1]);
        let err = Simulation::try_new(
            small_fleet(),
            vec![spec(1, 0, 100), odd],
            dynamic(),
            base_cfg(),
        )
        .err()
        .expect("a 3-D request is contradictory input");
        assert!(err.contains("VmId(7)"), "{err}");
        // Policies without a dimension model accept both.
        assert!(Simulation::try_new(fleet, vec![], Box::new(FirstFit), base_cfg()).is_ok());
    }

    #[test]
    fn idle_power_above_active_is_rejected_at_build() {
        let inverted = PmClass {
            idle_power_w: 300.0,
            active_power_w: 100.0,
            ..PmClass::paper_fast()
        };
        let fleet = FleetBuilder::new().add_class(inverted, 2, 0.99).build();
        let err = Simulation::try_new(fleet, vec![], Box::new(FirstFit), base_cfg())
            .err()
            .expect("an idle draw above the active draw is invalid input");
        assert!(err.contains("exceeds active power"), "{err}");
    }

    #[test]
    fn duplicate_request_ids_are_rejected_at_build() {
        // Two requests sharing an id would share one VM slot: the second
        // arrival would overwrite the first VM mid-run.
        let mut scenario = crate::scenario::Scenario::paper(42).with_days(1);
        let id = scenario.requests()[10].id;
        scenario.requests_mut()[100].id = id;
        let err = Simulation::try_new(
            scenario.fleet().clone(),
            scenario.requests().to_vec(),
            Box::new(DynamicPlacement::paper_default()),
            scenario.sim.clone(),
        )
        .err()
        .expect("a reused request id is contradictory input");
        assert!(err.contains(&format!("request id {id} ")), "{err}");
    }

    #[test]
    fn power_groups_that_miss_a_pm_are_rejected_at_build() {
        let mut cfg = base_cfg();
        cfg.power_groups = Some(dvmp_metrics::recorder::PowerGroups {
            names: vec!["all".into()],
            assignment: vec![0; 3], // the fleet has 4 PMs
        });
        let err = Simulation::try_new(small_fleet(), vec![spec(1, 0, 60)], Box::new(FirstFit), cfg)
            .err()
            .expect("a partition that misses a PM is invalid input");
        assert!(
            err.contains("power_groups must partition the fleet"),
            "{err}"
        );
        assert!(err.contains("fleet has 4"), "{err}");
    }

    #[test]
    fn pms_past_the_level_cache_are_rejected_at_build() {
        // 70 000 minimum VMs per PM: more Eq. 4 levels than the dynamic
        // scheme's planner indexes.
        let huge = PmClass {
            capacity: ResourceVector::cpu_mem(70_000, 70_000 * 512),
            ..PmClass::paper_fast()
        };
        let fleet = FleetBuilder::new().add_class(huge, 1, 0.99).build();
        let err = Simulation::try_new(
            fleet,
            vec![],
            Box::new(DynamicPlacement::paper_default()),
            base_cfg(),
        )
        .err()
        .expect("a PM past the level cache is rejected");
        assert!(err.contains("minimum VMs"), "{err}");
    }

    /// The error `try_new` returns for the default spare config after
    /// `edit`.
    fn spare_config_error(edit: impl FnOnce(&mut SpareConfig)) -> String {
        let mut cfg = base_cfg();
        edit(cfg.spare.as_mut().expect("spare control is on by default"));
        Simulation::try_new(small_fleet(), vec![spec(1, 0, 60)], Box::new(FirstFit), cfg)
            .err()
            .expect("the spare config is invalid input")
    }

    #[test]
    fn zero_control_period_is_rejected_at_build() {
        // A zero period would reschedule the tick at t = 0 forever.
        let err = spare_config_error(|sp| sp.control_period = SimDuration::ZERO);
        assert!(err.contains("spare.control_period"), "{err}");
    }

    #[test]
    fn qos_epsilon_outside_the_unit_interval_is_rejected_at_build() {
        let err = spare_config_error(|sp| sp.qos_epsilon = 0.0);
        assert!(err.contains("spare.qos_epsilon"), "{err}");
    }

    #[test]
    fn zero_seasonality_cycle_is_rejected_at_build() {
        let err = spare_config_error(|sp| sp.cycle = SimDuration::ZERO);
        assert!(err.contains("spare.cycle"), "{err}");
    }

    #[test]
    fn infinite_bootstrap_floor_is_rejected_at_build() {
        let err = spare_config_error(|sp| sp.bootstrap_arrivals = f64::INFINITY);
        assert!(err.contains("spare.bootstrap_arrivals"), "{err}");
    }

    #[test]
    fn only_dynamic_passes_refresh_the_ticks_n_ave() {
        // Six long VMs share a PM under either policy. The tick at 1 h
        // divides by the VMs per non-idle PM under the dynamic scheme, but
        // static policies run no pass, so N_ave keeps its initial 1.0
        // (EXPERIMENTS.md D3).
        let tick_n_ave = |policy: Box<dyn PlacementPolicy>| {
            let requests = (1..=6)
                .map(|i| spec(i, 10 * u64::from(i), 30_000))
                .collect();
            let mut sim = Simulation::new(small_fleet(), requests, policy, base_cfg());
            sim.engine.world_mut().initial_sample();
            sim.engine.run_until(SimTime::from_secs(3_601));
            let world = sim.engine.world();
            let decision = world.spare.as_ref().and_then(|sp| sp.decision());
            let ratio = world.dc.active_vm_count() as f64 / world.dc.non_idle_count() as f64;
            (decision.expect("ticked at 1 h").inputs.n_ave, ratio)
        };
        let (first_fit, ratio) = tick_n_ave(Box::new(FirstFit));
        assert!(ratio > 1.0, "VMs share PMs: {ratio}");
        assert_eq!(first_fit, 1.0);
        let (dynamic, ratio) = tick_n_ave(Box::new(DynamicPlacement::paper_default()));
        assert!(ratio > 1.0, "VMs share PMs: {ratio}");
        assert_eq!(dynamic, ratio);
    }

    #[test]
    fn departure_time_includes_boot_and_creation_overheads() {
        // Machines start off: the first request pays boot (50 s for the
        // fast class) + creation (30 s) before its 1000 s of work.
        let requests = vec![spec(1, 0, 1_000)];
        let sim = Simulation::new(small_fleet(), requests, Box::new(FirstFit), base_cfg());
        dvmp_obs::set_enabled(true);
        let report = sim.run();
        let records = dvmp_obs::drain_records();
        dvmp_obs::set_enabled(false);
        assert_eq!(report.total_departures, 1);
        // The recorder saw a non-idle PM for exactly the VM's residency.
        assert!(report.hourly_non_idle_servers[0] > 0.0);
        // Placed on the booting PM at t = 0, released at 50 + 30 + 1000.
        let at = |kind| {
            records
                .iter()
                .find(|r| r.kind == kind && r.a == 1)
                .map(|r| r.time_s)
        };
        assert_eq!(at(dvmp_obs::RecordKind::VmPlaced), Some(0));
        assert_eq!(at(dvmp_obs::RecordKind::VmRemoved), Some(1_080));
    }

    #[test]
    fn all_on_when_spare_control_disabled() {
        let mut cfg = base_cfg();
        cfg.spare = None;
        let sim = Simulation::new(
            small_fleet(),
            vec![spec(1, 0, 100)],
            Box::new(FirstFit),
            cfg,
        );
        let report = sim.run();
        // All 4 PMs powered the whole day.
        assert_eq!(report.hourly_active_servers[0], 4.0);
        assert_eq!(report.hourly_active_servers[23], 4.0);
        // Energy ≥ idle floor: 2·240 + 2·180 = 840 W → 20.16 kWh/day.
        assert!(report.total_energy_kwh >= 20.16);
    }

    #[test]
    fn spare_control_powers_down_idle_fleet() {
        // One short VM at t = 0; afterwards the fleet should converge to
        // the spare target (zero, with no bootstrap floor on this tiny
        // fleet), not stay fully powered.
        let requests = vec![spec(1, 0, 600)];
        let mut cfg = base_cfg();
        if let Some(sp) = &mut cfg.spare {
            sp.bootstrap_arrivals = 0.0;
        }
        let sim = Simulation::new(small_fleet(), requests, Box::new(FirstFit), cfg);
        let report = sim.run();
        // Late in the day no arrivals have been seen for hours; powered
        // servers must be well under the full fleet.
        let late = report.hourly_active_servers[20];
        assert!(late < 4.0, "late-day powered {late}");
        assert!(
            report.total_energy_kwh < 20.0,
            "{}",
            report.total_energy_kwh
        );
    }

    #[test]
    fn queued_requests_wait_for_boot_and_count_in_qos() {
        // Empty fleet, all off; the first request must queue for the boot.
        let requests = vec![spec(1, 0, 5_000)];
        let mut cfg = base_cfg();
        // No bootstrap spares: force the on-demand boot path.
        if let Some(sp) = &mut cfg.spare {
            sp.bootstrap_arrivals = 0.0;
        }
        let sim = Simulation::new(small_fleet(), requests, Box::new(FirstFit), cfg);
        let report = sim.run();
        assert_eq!(report.total_departures, 1);
        assert_eq!(
            report.qos.waited_requests, 1,
            "boot delay counts as queue wait"
        );
    }

    #[test]
    fn dynamic_policy_migrates_after_departures() {
        // Saturate the fleet so the 12 arrivals necessarily spread over
        // three PMs, then let 3 of every 4 depart early: the surviving
        // singletons fragment the fleet and the departure-triggered passes
        // must consolidate them.
        let mut requests = Vec::new();
        for i in 0..12u32 {
            // VMs 4, 8 and 12 are long-lived; the rest depart at t=2000.
            let runtime = if (i + 1) % 4 == 0 { 100_000 } else { 2_000 };
            requests.push(spec(i + 1, i as u64, runtime));
        }
        let mut cfg = base_cfg();
        cfg.spare = None; // keep the fleet static to isolate migration
        let sim = Simulation::new(
            small_fleet(),
            requests,
            Box::new(DynamicPlacement::paper_default()),
            cfg,
        );
        let report = sim.run();
        assert_eq!(report.total_arrivals, 12);
        assert!(
            report.total_migrations >= 1,
            "survivors consolidate: {report:?}"
        );
        assert_eq!(report.total_departures, 9, "shorts depart inside horizon");
    }

    #[test]
    fn static_policy_never_migrates() {
        let requests: Vec<VmSpec> = (0..20)
            .map(|i| spec(i + 1, i as u64 * 60, 30_000))
            .collect();
        let sim = Simulation::new(small_fleet(), requests, Box::new(FirstFit), base_cfg());
        let report = sim.run();
        assert_eq!(report.total_migrations, 0);
    }

    #[test]
    fn over_capacity_requests_queue_and_report_waits() {
        // 4 PMs × max 8+8+4+4 = 24 one-core slots; send 30 long VMs at once.
        let requests: Vec<VmSpec> = (0..30).map(|i| spec(i + 1, 0, 80_000)).collect();
        let sim = Simulation::new(small_fleet(), requests, Box::new(FirstFit), base_cfg());
        let report = sim.run();
        assert_eq!(report.total_arrivals, 30);
        assert!(report.qos.waited_requests >= 6, "{:?}", report.qos);
        // Nothing is lost: queued VMs either started later or are counted.
        assert!(report.qos.total_requests == 30);
    }

    #[test]
    fn failure_injection_requeues_vms() {
        let requests: Vec<VmSpec> = (0..8).map(|i| spec(i + 1, 0, 50_000)).collect();
        let mut cfg = base_cfg();
        cfg.spare = None;
        cfg.failures = Some(FailureConfig {
            base_rate: 2e-3, // aggressive so failures certainly occur
            repair_time: SimDuration::from_hours(2),
        });
        let mut fleet = small_fleet();
        // A failure-prone fleet.
        fleet.edit_pms(|pms| pms.iter_mut().for_each(|pm| pm.reliability = 0.5));
        let sim = Simulation::new(fleet, requests, Box::new(FirstFit), cfg);
        let report = sim.run();
        assert!(report.pm_failures > 0, "failures must fire");
        // The system kept running: every request eventually completed or
        // is still queued/running at the horizon, never lost.
        assert!(report.total_departures <= 8);
        assert_eq!(report.qos.total_requests, 8);
    }

    #[test]
    fn checked_mode_attaches_a_clean_oracle_summary() {
        let requests: Vec<VmSpec> = (0..12)
            .map(|i| spec(i + 1, i as u64 * 500, 20_000))
            .collect();
        let mut cfg = base_cfg();
        cfg.checked = true;
        let sim = Simulation::new(
            small_fleet(),
            requests,
            Box::new(DynamicPlacement::paper_default()),
            cfg,
        );
        let report = sim.run();
        let oracle = report.oracle.expect("checked run carries a summary");
        assert!(oracle.is_clean(), "{}", oracle.render());
        assert!(oracle.events_audited > 0);
    }

    #[test]
    fn checked_mode_does_not_perturb_the_run() {
        let mk = |checked: bool| {
            let requests: Vec<VmSpec> = (0..12)
                .map(|i| spec(i + 1, i as u64 * 500, 20_000))
                .collect();
            let mut cfg = base_cfg();
            cfg.checked = checked;
            Simulation::new(
                small_fleet(),
                requests,
                Box::new(DynamicPlacement::paper_default()),
                cfg,
            )
            .run()
        };
        let plain = mk(false);
        let checked = mk(true);
        assert!(plain.oracle.is_none());
        assert_eq!(plain.total_migrations, checked.total_migrations);
        assert_eq!(plain.hourly_active_servers, checked.hourly_active_servers);
        assert_eq!(plain.total_energy_kwh, checked.total_energy_kwh);
        assert_eq!(plain.qos, checked.qos);
    }

    #[test]
    fn checked_mode_audits_failure_churn_cleanly() {
        let requests: Vec<VmSpec> = (0..8).map(|i| spec(i + 1, 0, 50_000)).collect();
        let mut cfg = base_cfg();
        cfg.spare = None;
        cfg.checked = true;
        cfg.failures = Some(FailureConfig {
            base_rate: 2e-3,
            repair_time: SimDuration::from_hours(2),
        });
        let mut fleet = small_fleet();
        fleet.edit_pms(|pms| pms.iter_mut().for_each(|pm| pm.reliability = 0.5));
        let sim = Simulation::new(fleet, requests, Box::new(FirstFit), cfg);
        let report = sim.run();
        assert!(report.pm_failures > 0, "failures must fire");
        let oracle = report.oracle.expect("summary");
        assert!(oracle.is_clean(), "{}", oracle.render());
    }

    #[test]
    fn self_move_plans_are_dropped_not_applied() {
        let mut cfg = base_cfg();
        cfg.spare = None;
        let mut engine = surgical::world_with(vec![spec(1, 0, 50_000)], cfg);
        engine.run_until(SimTime::from_secs(100));
        let host = surgical::running_on(&engine, VmId(1)).expect("running");
        let (world, sched) = engine.world_and_scheduler();
        world.apply_migration(
            Migration {
                vm: VmId(1),
                from: host,
                to: host,
            },
            SimTime::from_secs(100),
            sched,
        );
        assert!(
            !engine.world().vms[VmId(1)].is_migrating(),
            "self-move must not start"
        );
        assert_eq!(engine.world().dc.hosts_of(VmId(1)), &[host]);
        let report = engine
            .world()
            .recorder
            .clone()
            .finish("x", SimTime::from_hours(1));
        assert_eq!(report.skipped_migrations, 1);
        engine.world().dc.assert_consistent();
    }

    #[test]
    fn resize_events_apply_and_stay_clean_under_checked_mode() {
        let requests = vec![spec(1, 0, 50_000)];
        let mut cfg = base_cfg();
        cfg.spare = None;
        cfg.checked = true;
        let resizes = vec![
            ResizeRequest {
                vm: VmId(1),
                at: SimTime::from_secs(1_000),
                new_demand: ResourceVector::cpu_mem(3, 1_024),
            },
            // Rejected: the VM never existed.
            ResizeRequest {
                vm: VmId(99),
                at: SimTime::from_secs(1_500),
                new_demand: ResourceVector::cpu_mem(1, 512),
            },
            ResizeRequest {
                vm: VmId(1),
                at: SimTime::from_secs(2_000),
                new_demand: ResourceVector::cpu_mem(1, 512),
            },
        ];
        let sim =
            Simulation::new(small_fleet(), requests, Box::new(FirstFit), cfg).with_resizes(resizes);
        let report = sim.run();
        assert_eq!(report.total_resizes, 2);
        assert_eq!(report.rejected_resizes, 1);
        assert_eq!(report.total_departures, 1);
        // No overbooking: growth stays within physical capacity, so the
        // SLA meter never moves.
        assert_eq!(report.sla_violation_seconds, 0.0);
        let oracle = report.oracle.expect("checked run carries a summary");
        assert!(oracle.is_clean(), "{}", oracle.render());
    }

    #[test]
    fn overbooked_grow_meters_sla_violation_seconds() {
        use dvmp_cluster::resources::OverbookRatios;
        // One fast PM at 200 %/150 %: virtual 16 cores / 12288 MiB over
        // physical 8 / 8192.
        let fleet = FleetBuilder::new()
            .add_class_overbooked(
                PmClass::paper_fast(),
                1,
                0.99,
                OverbookRatios::cpu_mem(200, 150),
            )
            .build();
        let requests = vec![spec(1, 0, 50_000)];
        let mut cfg = base_cfg();
        cfg.spare = None;
        cfg.checked = true;
        // Grow to 10 cores: admitted under the virtual envelope, but the
        // hardware is saturated until departure.
        let resizes = vec![ResizeRequest {
            vm: VmId(1),
            at: SimTime::from_secs(1_000),
            new_demand: ResourceVector::cpu_mem(10, 4_096),
        }];
        let sim = Simulation::new(fleet, requests, Box::new(FirstFit), cfg).with_resizes(resizes);
        let report = sim.run();
        assert_eq!(report.total_resizes, 1);
        assert!(
            report.sla_violation_seconds > 0.0,
            "saturation time must be metered: {report:?}"
        );
        assert_eq!(report.peak_saturated_pms, 1.0);
        let oracle = report.oracle.expect("summary");
        assert!(oracle.is_clean(), "{}", oracle.render());
    }

    #[test]
    fn shrink_resize_frees_capacity_for_queued_requests() {
        // Two big VMs fill a single fast PM (8 cores); a third queues.
        // Shrinking VM 1 must let the queued request land without any
        // other event intervening.
        let fleet = FleetBuilder::new()
            .add_class(PmClass::paper_fast(), 1, 0.99)
            .build();
        let mk = |id: u32, cores: u64| {
            VmSpec::exact(
                VmId(id),
                SimTime::ZERO,
                ResourceVector::cpu_mem(cores, 512),
                SimDuration::from_secs(80_000),
            )
        };
        // VM 3 needs 3 cores; shrinking VM 1 from 4 to 1 frees exactly 3.
        let requests = vec![mk(1, 4), mk(2, 4), mk(3, 3)];
        let mut cfg = base_cfg();
        cfg.spare = None;
        cfg.checked = true;
        let resizes = vec![ResizeRequest {
            vm: VmId(1),
            at: SimTime::from_secs(5_000),
            new_demand: ResourceVector::cpu_mem(1, 512),
        }];
        let sim = Simulation::new(fleet, requests, Box::new(FirstFit), cfg).with_resizes(resizes);
        let report = sim.run();
        assert_eq!(report.total_resizes, 1);
        assert_eq!(report.qos.waited_requests, 1, "{:?}", report.qos);
        // All three ran to completion within the horizon.
        assert_eq!(report.total_departures, 3);
        let oracle = report.oracle.expect("summary");
        assert!(oracle.is_clean(), "{}", oracle.render());
    }

    #[test]
    fn runs_are_deterministic() {
        let mk = || {
            let requests: Vec<VmSpec> = (0..12)
                .map(|i| spec(i + 1, i as u64 * 500, 20_000))
                .collect();
            Simulation::new(
                small_fleet(),
                requests,
                Box::new(DynamicPlacement::paper_default()),
                base_cfg(),
            )
            .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.total_migrations, b.total_migrations);
        assert_eq!(a.hourly_active_servers, b.hourly_active_servers);
        assert_eq!(a.total_energy_kwh, b.total_energy_kwh);
    }

    #[test]
    fn migration_overhead_delays_departure() {
        // Two VMs on separate PMs; one departs at t=2000 triggering a
        // migration of the survivor; the survivor's departure must shift
        // by exactly the destination's migration time.
        let requests = vec![spec(1, 0, 2_000), spec(2, 0, 50_000)];
        let mut cfg = base_cfg();
        cfg.spare = None;
        let sim = Simulation::new(
            small_fleet(),
            requests,
            Box::new(DynamicPlacement::paper_default()),
            cfg,
        );
        let report = sim.run();
        // Whatever the placement, both complete within the horizon.
        assert_eq!(report.total_departures, 2);
    }

    /// Direct world-level harness for surgical state tests: builds the
    /// world, pumps events manually, and exposes internals.
    mod surgical {
        use super::*;
        use dvmp_placement::Migration;

        pub fn world_with(requests: Vec<VmSpec>, cfg: SimConfig) -> Engine<SimWorld> {
            let mut sim = Simulation::new(small_fleet(), requests, Box::new(FirstFit), cfg);
            sim.engine.world_mut().initial_sample();
            sim.engine
        }

        pub fn running_on(engine: &Engine<SimWorld>, vm: VmId) -> Option<PmId> {
            match engine.world().vms.get(vm)?.state {
                VmState::Running { pm } => Some(pm),
                _ => None,
            }
        }

        pub fn force_migration(engine: &mut Engine<SimWorld>, vm: VmId, to: PmId, now: SimTime) {
            let from = running_on(engine, vm).expect("vm running");
            let (world, sched) = engine.world_and_scheduler();
            world.apply_migration(Migration { vm, from, to }, now, sched);
            assert!(world.vms[vm].is_migrating(), "forced migration started");
        }
    }

    #[test]
    fn static_policies_drain_the_journal_at_every_placement() {
        // First-fit never plans, but each placement still takes the
        // journal: after eight staggered arrivals (and no departure) it
        // holds only what the last placement dirtied.
        let mut cfg = base_cfg();
        cfg.spare = None;
        let requests = (0..8)
            .map(|i| spec(i + 1, 10 * u64::from(i), 50_000))
            .collect();
        let mut engine = surgical::world_with(requests, cfg);
        engine.run_until(SimTime::from_secs(75));
        let world = engine.world();
        assert_eq!(world.dc.active_vm_count(), 8, "every arrival placed");
        let delta = world.dc.fleet_delta();
        assert!(!delta.is_full());
        assert!(
            delta.dirty_vms().iter().all(|&vm| vm == VmId(8)),
            "journal kept {:?}, not only the last placement's VM",
            delta.dirty_vms()
        );
        assert!(delta.dirty_pms().len() <= 1, "{:?}", delta.dirty_pms());
    }

    #[test]
    fn destination_failure_aborts_migration_and_refunds_overhead() {
        let mut cfg = base_cfg();
        cfg.spare = None;
        cfg.failures = Some(FailureConfig {
            base_rate: 0.0, // events injected manually below
            repair_time: SimDuration::from_hours(1),
        });
        let mut engine = surgical::world_with(vec![spec(1, 0, 50_000)], cfg);
        // Run past creation (t_cre = 30 on the fast pm0).
        engine.run_until(SimTime::from_secs(100));
        let source = surgical::running_on(&engine, VmId(1)).expect("running");
        let dest = PmId(if source.0 == 0 { 1 } else { 0 });

        let dep_before = engine.world().vms[VmId(1)].projected_departure().unwrap();
        surgical::force_migration(&mut engine, VmId(1), dest, SimTime::from_secs(100));
        let dep_mid = engine.world().vms[VmId(1)].projected_departure().unwrap();
        assert!(dep_mid > dep_before, "migration overhead charged");

        // Fail the destination before the migration completes.
        let (world, sched) = engine.world_and_scheduler();
        world.handle_pm_failure(dest, SimTime::from_secs(110), sched);

        let vm = &engine.world().vms[VmId(1)];
        assert_eq!(
            vm.state,
            VmState::Running { pm: source },
            "reverted to source"
        );
        assert_eq!(
            vm.projected_departure().unwrap(),
            dep_before,
            "overhead refunded"
        );
        assert_eq!(engine.world().dc.hosts_of(VmId(1)), &[source]);
        engine.world().dc.assert_consistent();
        // And the run still completes cleanly.
        let report_engine = engine.run_until(SimTime::from_days(1));
        let _ = report_engine;
        assert!(matches!(
            engine.world().vms[VmId(1)].state,
            VmState::Completed { .. }
        ));
    }

    #[test]
    fn source_failure_mid_migration_requeues_and_releases_everything() {
        let mut cfg = base_cfg();
        cfg.spare = None;
        cfg.failures = Some(FailureConfig {
            base_rate: 0.0,
            repair_time: SimDuration::from_hours(1),
        });
        let mut engine = surgical::world_with(vec![spec(1, 0, 50_000)], cfg);
        engine.run_until(SimTime::from_secs(100));
        let source = surgical::running_on(&engine, VmId(1)).expect("running");
        let dest = PmId(if source.0 == 0 { 1 } else { 0 });
        surgical::force_migration(&mut engine, VmId(1), dest, SimTime::from_secs(100));

        let (world, sched) = engine.world_and_scheduler();
        world.handle_pm_failure(source, SimTime::from_secs(110), sched);

        let world = engine.world();
        // The VM restarted from the queue (or was instantly re-placed by
        // the drain pass) — either way no reservation remains on the dead
        // source, and bookkeeping is consistent.
        assert!(world.dc.hosts_of(VmId(1)).iter().all(|&h| h != source));
        world.dc.assert_consistent();
        assert_eq!(world.dc.pm(source).state, PmState::Failed);
        // The run completes: the VM restarts and eventually departs.
        engine.run_until(SimTime::from_days(1));
        assert!(matches!(
            engine.world().vms[VmId(1)].state,
            VmState::Completed { .. }
        ));
    }

    #[test]
    fn indexed_departure_count_matches_a_full_scan() {
        // Every event that starts, stretches, refunds or ends a VM's
        // estimate must keep the departure index in step with a full scan.
        // The first checks sit 20 s inside the window edge of VM 1's
        // estimated end, so a missed update moves the count.
        let mut cfg = base_cfg();
        cfg.failures = Some(FailureConfig {
            base_rate: 0.0,
            repair_time: SimDuration::from_hours(1),
        });
        let sp = cfg.spare.as_mut().expect("spare control is on by default");
        // A large spare target keeps every PM powered for the migrations.
        sp.bootstrap_arrivals = 1_000.0;
        let period = sp.control_period;
        let requests = vec![spec(1, 0, 4_000), spec(2, 0, 4_000), spec(3, 0, 30_000)];
        let mut engine = surgical::world_with(requests, cfg);
        engine.run_until(SimTime::from_secs(200));

        let check = |engine: &mut Engine<SimWorld>, now: SimTime| -> u64 {
            let (world, sched) = engine.world_and_scheduler();
            world.handle_control_period(now, sched);
            let brute = world
                .vms
                .values()
                .filter(|vm| vm.is_active() && vm.estimated_remaining(now) <= period)
                .count() as u64;
            let decision = world.spare.as_ref().and_then(|sp| sp.decision());
            let n = decision.expect("a decision was made").inputs.n_departure;
            assert_eq!(n, brute, "n_departure at t={now}");
            n
        };
        let idle_dest = |engine: &Engine<SimWorld>, not: PmId| -> PmId {
            let dc = &engine.world().dc;
            dc.pms()
                .iter()
                .find(|pm| pm.id != not && pm.is_available() && pm.is_idle())
                .map(|pm| pm.id)
                .expect("an idle powered PM")
        };

        // Migration begin: T_mig pushes VM 1's estimated end out.
        let end = engine.world().vms[VmId(1)]
            .estimated_end()
            .expect("started");
        let t1 = end - period + SimDuration::from_secs(20);
        assert!(t1 > SimTime::from_secs(200));
        let before = check(&mut engine, t1);
        let source = surgical::running_on(&engine, VmId(1)).expect("running");
        let dest = idle_dest(&engine, source);
        surgical::force_migration(&mut engine, VmId(1), dest, t1);
        assert_eq!(check(&mut engine, t1), before - 1, "VM 1 left the window");
        // Its stretched end re-enters the window 30 s later.
        let t1b = t1 + SimDuration::from_secs(30);
        assert_eq!(check(&mut engine, t1b), before, "VM 1's new end is indexed");

        // Destination failure: the migration aborts, T_mig is refunded.
        let t2 = t1b + SimDuration::from_secs(5);
        let (world, sched) = engine.world_and_scheduler();
        world.handle_pm_failure(dest, t2, sched);
        assert_eq!(
            engine.world().vms[VmId(1)].state,
            VmState::Running { pm: source }
        );
        assert_eq!(check(&mut engine, t2), before, "VM 1 is back in the window");

        // Source failure: VM 1 migrates again and its source dies; it is
        // requeued (and the drain may re-place it at once).
        let t3 = t2 + SimDuration::from_secs(5);
        let dest = idle_dest(&engine, source);
        surgical::force_migration(&mut engine, VmId(1), dest, t3);
        let (world, sched) = engine.world_and_scheduler();
        world.handle_pm_failure(source, t3, sched);
        assert_ne!(
            engine.world().vms[VmId(1)].state,
            VmState::Running { pm: source }
        );
        check(&mut engine, t3);

        // Departure: VM 2 completes and leaves the index.
        let end2 = engine.world().vms[VmId(2)]
            .projected_departure()
            .expect("started");
        let t4 = end2 + SimDuration::from_secs(1);
        engine.run_until(t4);
        assert!(matches!(
            engine.world().vms[VmId(2)].state,
            VmState::Completed { .. }
        ));
        check(&mut engine, t4);
        assert_eq!(
            engine.world().departure_index.len(),
            engine
                .world()
                .vms
                .values()
                .filter(|vm| vm.is_active())
                .count()
        );
    }

    #[test]
    fn placement_on_booting_pm_waits_for_boot() {
        // All PMs off, no spares: the arrival triggers a boot; the VM may
        // be placed on the booting PM but cannot start before
        // boot_ready + t_cre.
        let mut cfg = base_cfg();
        if let Some(sp) = &mut cfg.spare {
            sp.bootstrap_arrivals = 0.0;
        }
        let requests = vec![spec(1, 0, 1_000)];
        let mut engine = surgical::world_with(requests, cfg);
        engine.run_until(SimTime::from_secs(10));
        // At t=10 the PM is still booting (fast on/off = 50 s): the VM is
        // either queued or creating with ready ≥ 80.
        let vm = &engine.world().vms[VmId(1)];
        match vm.state {
            VmState::Creating { ready_at, .. } => {
                assert!(ready_at >= SimTime::from_secs(80), "boot + create");
            }
            VmState::Queued => {}
            ref s => panic!("unexpected state {s:?}"),
        }
        engine.run_until(SimTime::from_days(1));
        let world = engine.world();
        assert!(matches!(
            world.vms[VmId(1)].state,
            VmState::Completed { .. }
        ));
        // Departure no earlier than boot (50) + create (30) + run (1000).
        if let VmState::Completed { at } = world.vms[VmId(1)].state {
            assert!(at >= SimTime::from_secs(1_080), "at = {at}");
        }
    }

    #[test]
    fn failure_event_racing_a_shutdown_is_ignored() {
        let mut cfg = base_cfg();
        cfg.spare = None;
        cfg.failures = Some(FailureConfig {
            base_rate: 0.0,
            repair_time: SimDuration::from_hours(1),
        });
        let mut engine = surgical::world_with(vec![], cfg);
        // Manually power pm0 off, then deliver a stale failure event.
        let (world, sched) = engine.world_and_scheduler();
        world.power(SimTime::from_secs(5), PmId(0), PmState::Off);
        world.handle_pm_failure(PmId(0), SimTime::from_secs(10), sched);
        assert_eq!(
            engine.world().dc.pm(PmId(0)).state,
            PmState::Off,
            "stale failure must not mark an off machine failed"
        );
        assert_eq!(
            engine
                .world()
                .recorder
                .clone()
                .finish("x", SimTime::from_hours(1))
                .pm_failures,
            0
        );
    }

    #[test]
    fn repair_returns_failed_pm_to_off() {
        let mut cfg = base_cfg();
        cfg.spare = None;
        cfg.failures = Some(FailureConfig {
            base_rate: 0.0,
            repair_time: SimDuration::from_hours(2),
        });
        let mut engine = surgical::world_with(vec![spec(1, 0, 50_000)], cfg);
        engine.run_until(SimTime::from_secs(100));
        let host = surgical::running_on(&engine, VmId(1)).expect("running");
        let (world, sched) = engine.world_and_scheduler();
        world.handle_pm_failure(host, SimTime::from_secs(100), sched);
        assert_eq!(engine.world().dc.pm(host).state, PmState::Failed);
        // The repair event was scheduled by the handler; run past it.
        engine.run_until(SimTime::from_hours(3));
        assert_ne!(
            engine.world().dc.pm(host).state,
            PmState::Failed,
            "repair returns the machine"
        );
    }
}
