//! The policy interface between the simulator and the placement schemes.
//!
//! The simulator exposes a read-only [`PlacementView`] of the world; a
//! policy answers two questions: *where does a new VM go?* and *which live
//! migrations improve the mapping?* Static schemes answer the second with
//! "none" — that is the entire difference the paper's evaluation measures.

use dvmp_cluster::datacenter::Datacenter;
use dvmp_cluster::pm::PmId;
use dvmp_cluster::vm::{Vm, VmId, VmSpec};
use dvmp_cluster::{FleetDelta, VmTable};
use dvmp_simcore::SimTime;

/// A read-only snapshot of everything a policy may observe.
#[derive(Clone, Copy)]
pub struct PlacementView<'a> {
    /// The fleet (states, occupancy, classes, reliability).
    pub dc: &'a Datacenter,
    /// Every VM the simulator knows about, keyed by id and iterated in
    /// ascending id order.
    pub vms: &'a VmTable,
    /// Current simulation time.
    pub now: SimTime,
}

impl<'a> PlacementView<'a> {
    /// Iterates the VMs eligible for live migration: running (not mid-
    /// creation, not already migrating) with a known host.
    pub fn migratable_vms(&self) -> impl Iterator<Item = (&'a Vm, PmId)> + '_ {
        self.vms.values().filter_map(|vm| match vm.state {
            dvmp_cluster::vm::VmState::Running { pm } => Some((vm, pm)),
            _ => None,
        })
    }
}

/// A user-supplied multiplicative factor extending the joint probability
/// (Section III-B: "easy to be extended to accommodate other
/// constraints"),
/// keyed on one per-PM value (a region, a rack, a tariff zone).
///
/// The factor of a mapping depends only on the key of the VM's current
/// host (`from`; `None` for a new request), the key of the candidate PM
/// (`to`) and the planning instant — so a planning pass evaluates it once
/// per key pair into a `(K+1)×K` table, and PMs that share a key stay
/// interchangeable for the compressed planner.
///
/// Values are clamped to `[0, 1]` (1 = no objection to this mapping,
/// 0 = veto). The current-host entry of a column is evaluated too, as
/// `factor(Some(k), k, now)`.
pub trait KeyedFactor: Send + Sync + std::fmt::Debug {
    /// Short name for reports and debugging.
    fn name(&self) -> &str;

    /// Number of distinct keys; [`key`](Self::key) returns values below it.
    fn key_count(&self) -> u16;

    /// The key of PM `pm`, fixed for the run.
    fn key(&self, pm: PmId) -> u16;

    /// The factor for hosting a VM on a PM keyed `to` at `now`, when the
    /// VM currently runs on a PM keyed `from` (`None` for a new request).
    fn factor(&self, from: Option<u16>, to: u16, now: SimTime) -> f64;
}

/// One live-migration decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The VM to move.
    pub vm: VmId,
    /// Its current host.
    pub from: PmId,
    /// The destination.
    pub to: PmId,
}

/// A VM-placement scheme.
///
/// Implementations must be deterministic given the view (the random
/// baseline owns a seeded RNG, so *it* is deterministic per scenario too).
pub trait PlacementPolicy {
    /// Short machine-readable name ("first-fit", "dynamic", ...), used in
    /// reports and figure legends.
    fn name(&self) -> &'static str;

    /// Chooses a host for a new request among the currently available PMs,
    /// or `None` to queue the request. The simulator guarantees the
    /// returned PM can host the request at decision time.
    fn place(&mut self, view: &PlacementView<'_>, vm: &VmSpec) -> Option<PmId>;

    /// Proposes an ordered batch of live migrations in response to a
    /// triggering event (arrival, departure or PM failure — Section III-C).
    /// The default (static schemes) never migrates.
    fn plan_migrations(&mut self, _view: &PlacementView<'_>) -> Vec<Migration> {
        Vec::new()
    }

    /// `true` for schemes that react to departures with consolidation; the
    /// simulator uses this to skip needless planning calls for baselines.
    fn is_dynamic(&self) -> bool {
        false
    }

    /// Hands the policy the fleet-delta journal drained since its previous
    /// placement or planning pass: which PMs changed footprint, power
    /// state or reliability, and which VMs arrived, departed or moved.
    /// Incremental planners fold it into persistent planning state; the
    /// default (stateless schemes) discards it.
    fn note_fleet_delta(&mut self, _delta: FleetDelta) {}

    /// Checks, before a simulation starts, that the fleet and the request
    /// stream are input this scheme can plan over; the default accepts
    /// everything.
    fn check_inputs(&self, _fleet: &Datacenter, _requests: &[VmSpec]) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for the policy tests in this crate.
    use dvmp_cluster::datacenter::{Datacenter, FleetBuilder};
    use dvmp_cluster::pm::{PmClass, PmId, PmState};
    use dvmp_cluster::resources::ResourceVector;
    use dvmp_cluster::vm::{Vm, VmId, VmSpec, VmState};
    use dvmp_cluster::FleetOp;
    use dvmp_cluster::VmTable;
    use dvmp_simcore::{SimDuration, SimTime};

    /// 2 fast + 2 slow PMs, all on.
    pub fn small_fleet() -> Datacenter {
        FleetBuilder::new()
            .add_class(PmClass::paper_fast(), 2, 0.99)
            .add_class(PmClass::paper_slow(), 2, 0.95)
            .initially_on(true)
            .build()
    }

    /// A 1-core / `mem` MiB spec with the given estimated runtime.
    pub fn spec(id: u32, mem: u64, est_secs: u64) -> VmSpec {
        VmSpec::exact(
            VmId(id),
            SimTime::ZERO,
            ResourceVector::cpu_mem(1, mem),
            SimDuration::from_secs(est_secs),
        )
    }

    /// Places `spec` as Running on `pm` in both the datacenter and the VM map.
    pub fn install(
        dc: &mut Datacenter,
        vms: &mut VmTable,
        spec: VmSpec,
        pm: PmId,
        started_at: SimTime,
    ) {
        let (vm, demand) = (spec.id, spec.resources);
        dc.apply(FleetOp::Place { vm, pm, demand }).unwrap();
        let mut vm = Vm::new(spec);
        vm.state = VmState::Running { pm };
        vm.started_at = Some(started_at);
        vms.insert(vm);
    }

    /// Sets `pm`'s power state through the op stream.
    pub fn power(dc: &mut Datacenter, pm: PmId, state: PmState) {
        dc.apply(FleetOp::Power { pm, state }).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use dvmp_cluster::pm::PmId;
    use dvmp_cluster::vm::VmState;

    #[test]
    fn migratable_vms_filters_states() {
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        install(
            &mut dc,
            &mut vms,
            spec(1, 512, 1_000),
            PmId(0),
            SimTime::ZERO,
        );
        install(
            &mut dc,
            &mut vms,
            spec(2, 512, 1_000),
            PmId(1),
            SimTime::ZERO,
        );
        // VM 2 is mid-migration: not migratable.
        vms.get_mut(VmId(2)).unwrap().state = VmState::Migrating {
            from: PmId(1),
            to: PmId(0),
            done_at: SimTime::from_secs(40),
        };
        // VM 3 is queued: not migratable.
        vms.insert(Vm::new(spec(3, 512, 1_000)));

        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let ids: Vec<VmId> = view.migratable_vms().map(|(vm, _)| vm.spec.id).collect();
        assert_eq!(ids, vec![VmId(1)]);
        let (_, host) = view.migratable_vms().next().unwrap();
        assert_eq!(host, PmId(0));
    }

    use dvmp_cluster::vm::{Vm, VmId};
}
