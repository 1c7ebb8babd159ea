//! Virtual-machine requests and their lifecycle.
//!
//! A VM request is the paper's `(K+1)`-dimensional vector `R_i`: K resource
//! demands plus a user-estimated runtime (Section III-B-1). The model also
//! carries the *actual* runtime (from the trace), which the simulator uses
//! for the departure event while the placement scheme only ever sees the
//! estimate — exactly the information asymmetry the paper describes.

use crate::pm::PmId;
use crate::resources::ResourceVector;
use dvmp_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a VM request, unique within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VmId(pub u32);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// The immutable request: what the user submitted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmSpec {
    /// Request identifier.
    pub id: VmId,
    /// When the request enters the system.
    pub submit_time: SimTime,
    /// The K resource demands (first K components of `R_i`).
    pub resources: ResourceVector,
    /// The user-supplied runtime estimate (component K+1 of `R_i`).
    pub estimated_runtime: SimDuration,
    /// The true runtime, revealed only when the job completes.
    pub actual_runtime: SimDuration,
}

impl VmSpec {
    /// A spec whose estimate equals its actual runtime (perfect estimate).
    pub fn exact(
        id: VmId,
        submit_time: SimTime,
        resources: ResourceVector,
        runtime: SimDuration,
    ) -> Self {
        VmSpec {
            id,
            submit_time,
            resources,
            estimated_runtime: runtime,
            actual_runtime: runtime,
        }
    }
}

/// Lifecycle state of a VM inside the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VmState {
    /// Waiting in the admission queue (no PM had room).
    Queued,
    /// Being created on a PM; running begins at `ready_at`.
    Creating {
        /// Hosting PM.
        pm: PmId,
        /// Instant the creation overhead ends.
        ready_at: SimTime,
    },
    /// Executing on a PM.
    Running {
        /// Hosting PM.
        pm: PmId,
    },
    /// Live-migrating; still executing on `from`, arriving on `to` at
    /// `done_at` (pre-copy semantics — see DESIGN.md I3).
    Migrating {
        /// Source PM (still hosting the execution).
        from: PmId,
        /// Destination PM (resources reserved).
        to: PmId,
        /// Instant the migration completes.
        done_at: SimTime,
    },
    /// Finished and departed.
    Completed {
        /// Departure instant.
        at: SimTime,
    },
}

/// A VM request together with its runtime bookkeeping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Vm {
    /// The immutable request.
    pub spec: VmSpec,
    /// Current lifecycle state.
    pub state: VmState,
    /// When the VM actually started executing (left the queue + creation).
    pub started_at: Option<SimTime>,
    /// Accumulated completion delay from virtualization overheads
    /// (creation + migrations), added on top of the actual runtime.
    pub overhead: SimDuration,
    /// Number of live migrations this VM has undergone.
    pub migrations: u32,
    /// Current resource demand after vertical elasticity, when it differs
    /// from the submitted request. `None` until the first applied resize;
    /// read through [`Vm::demand`], which falls back to `spec.resources`.
    #[serde(default)]
    pub current_demand: Option<ResourceVector>,
    /// Number of resize events applied to this VM.
    #[serde(default)]
    pub resizes: u32,
}

impl Vm {
    /// Wraps a spec in the initial (queued) state.
    pub fn new(spec: VmSpec) -> Self {
        Vm {
            spec,
            state: VmState::Queued,
            started_at: None,
            overhead: SimDuration::ZERO,
            migrations: 0,
            current_demand: None,
            resizes: 0,
        }
    }

    /// The resources this VM currently occupies (and a placement scheme
    /// must budget for): the submitted request until the first resize,
    /// the latest resized demand afterwards.
    #[inline]
    pub fn demand(&self) -> &ResourceVector {
        self.current_demand.as_ref().unwrap_or(&self.spec.resources)
    }

    /// The PM currently charged with this VM's execution, if any.
    /// During a migration this is the *source* (pre-copy).
    pub fn executing_on(&self) -> Option<PmId> {
        match self.state {
            VmState::Creating { pm, .. } | VmState::Running { pm } => Some(pm),
            VmState::Migrating { from, .. } => Some(from),
            VmState::Queued | VmState::Completed { .. } => None,
        }
    }

    /// The PM the placement scheme should treat as this VM's *current host*
    /// (the destination once a migration is in flight, so the scheme does
    /// not try to re-migrate a VM already on its way).
    pub fn current_host(&self) -> Option<PmId> {
        match self.state {
            VmState::Creating { pm, .. } | VmState::Running { pm } => Some(pm),
            VmState::Migrating { to, .. } => Some(to),
            VmState::Queued | VmState::Completed { .. } => None,
        }
    }

    /// `true` while a migration is in flight.
    pub fn is_migrating(&self) -> bool {
        matches!(self.state, VmState::Migrating { .. })
    }

    /// `true` when the VM occupies resources somewhere.
    pub fn is_active(&self) -> bool {
        !matches!(self.state, VmState::Queued | VmState::Completed { .. })
    }

    /// The instant the VM will depart given everything known now:
    /// start + actual runtime + accumulated overheads. `None` while queued.
    pub fn projected_departure(&self) -> Option<SimTime> {
        self.started_at
            .map(|s| s + self.spec.actual_runtime + self.overhead)
    }

    /// The instant the *estimate* runs out: start + estimated runtime +
    /// accumulated overheads. `None` while queued.
    pub fn estimated_end(&self) -> Option<SimTime> {
        self.started_at
            .map(|s| s + self.spec.estimated_runtime + self.overhead)
    }

    /// The *estimated* remaining runtime at `now` — the paper's `T_i^re`,
    /// computed from the user estimate, never from the actual runtime.
    /// Zero once the estimate is exhausted (the scheme then sees a VM "about
    /// to finish" and leaves it alone).
    pub fn estimated_remaining(&self, now: SimTime) -> SimDuration {
        match self.estimated_end() {
            None => self.spec.estimated_runtime,
            Some(end) => end.saturating_since(now),
        }
    }

    /// Time spent waiting in the queue before starting (for QoS accounting).
    pub fn queue_wait(&self) -> Option<SimDuration> {
        self.started_at
            .map(|s| s.saturating_since(self.spec.submit_time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> VmSpec {
        VmSpec::exact(
            VmId(1),
            SimTime::from_secs(100),
            ResourceVector::cpu_mem(1, 512),
            SimDuration::from_secs(1_000),
        )
    }

    #[test]
    fn new_vm_is_queued() {
        let vm = Vm::new(spec());
        assert_eq!(vm.state, VmState::Queued);
        assert!(!vm.is_active());
        assert_eq!(vm.executing_on(), None);
        assert_eq!(vm.current_host(), None);
        assert_eq!(vm.projected_departure(), None);
        assert_eq!(vm.queue_wait(), None);
    }

    #[test]
    fn estimated_remaining_before_start_is_full_estimate() {
        let vm = Vm::new(spec());
        assert_eq!(
            vm.estimated_remaining(SimTime::from_secs(999)),
            SimDuration::from_secs(1_000)
        );
    }

    #[test]
    fn estimated_remaining_counts_down() {
        let mut vm = Vm::new(spec());
        vm.started_at = Some(SimTime::from_secs(200));
        vm.state = VmState::Running { pm: PmId(0) };
        assert_eq!(
            vm.estimated_remaining(SimTime::from_secs(200)),
            SimDuration::from_secs(1_000)
        );
        assert_eq!(
            vm.estimated_remaining(SimTime::from_secs(700)),
            SimDuration::from_secs(500)
        );
        // Exhausted estimate clamps to zero.
        assert_eq!(
            vm.estimated_remaining(SimTime::from_secs(5_000)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn overhead_extends_remaining_and_departure() {
        let mut vm = Vm::new(spec());
        vm.started_at = Some(SimTime::from_secs(0));
        vm.overhead = SimDuration::from_secs(40);
        assert_eq!(
            vm.estimated_remaining(SimTime::from_secs(1_000)),
            SimDuration::from_secs(40)
        );
        assert_eq!(vm.projected_departure(), Some(SimTime::from_secs(1_040)));
    }

    #[test]
    fn migration_host_semantics() {
        let mut vm = Vm::new(spec());
        vm.state = VmState::Migrating {
            from: PmId(1),
            to: PmId(2),
            done_at: SimTime::from_secs(500),
        };
        assert_eq!(vm.executing_on(), Some(PmId(1)), "pre-copy: runs on source");
        assert_eq!(vm.current_host(), Some(PmId(2)), "scheme sees destination");
        assert!(vm.is_migrating());
        assert!(vm.is_active());
    }

    #[test]
    fn queue_wait_measured_from_submit() {
        let mut vm = Vm::new(spec());
        vm.started_at = Some(SimTime::from_secs(150));
        assert_eq!(vm.queue_wait(), Some(SimDuration::from_secs(50)));
    }

    #[test]
    fn demand_tracks_resizes() {
        let mut vm = Vm::new(spec());
        assert_eq!(vm.demand(), &ResourceVector::cpu_mem(1, 512));
        vm.current_demand = Some(ResourceVector::cpu_mem(3, 1_024));
        vm.resizes += 1;
        assert_eq!(vm.demand(), &ResourceVector::cpu_mem(3, 1_024));
        assert_eq!(vm.spec.resources, ResourceVector::cpu_mem(1, 512));
    }

    #[test]
    fn legacy_vm_without_elasticity_fields_parses() {
        // Same strip-the-field idiom as the DynamicConfig legacy tests:
        // a Vm serialized before the elasticity fields existed must parse
        // with the defaults.
        let vm = Vm::new(spec());
        let full = serde_json::to_string(&vm).unwrap();
        let json = full
            .replace(",\"current_demand\":null", "")
            .replace(",\"resizes\":0", "");
        assert_ne!(json, full, "both fields serialize");
        let back: Vm = serde_json::from_str(&json).unwrap();
        assert_eq!(back.current_demand, None);
        assert_eq!(back.resizes, 0);
        assert_eq!(back.demand(), vm.demand());
    }

    #[test]
    fn completed_vm_is_inactive() {
        let mut vm = Vm::new(spec());
        vm.state = VmState::Completed {
            at: SimTime::from_secs(1_100),
        };
        assert!(!vm.is_active());
        assert_eq!(vm.current_host(), None);
    }
}
