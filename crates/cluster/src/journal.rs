//! The fleet's mutation vocabulary and the journal of what it changed.
//!
//! A [`FleetOp`] is one reservation mutation, the only thing
//! [`Datacenter::apply`] accepts: the simulator builds one per change it
//! asks of the fleet, and the checked-mode oracle replays the same value.
//!
//! A [`FleetDelta`] journal accumulates, between drains, the identity of
//! every PM whose footprint (occupancy, power state, availability) changed
//! and every VM that was placed, migrated, resized, evicted or removed. The [`Datacenter`]
//! owns one and feeds it from the same footprint-diff funnel that maintains
//! `FleetStats`, so *every* mutation path — `Datacenter::apply` and
//! arbitrary edits through `pm_mut`'s drop guard — is journaled or the
//! journal is marked [`full`](FleetDelta::is_full). That conservation
//! property is what lets `DynamicPlacement` keep its compressed planner
//! alive across planning passes and re-read only the journaled rows and
//! columns (DESIGN.md §8).
//!
//! The journal records *dirt*, not operations: a PM that changed five times
//! between drains appears once, and over-reporting is always safe (a clean
//! entry marked dirty merely costs a recompute). Under-reporting is the
//! only hazard, hence the funnel placement and the bounded-size guarantee:
//! past [`MAX_TRACKED`] distinct ids the journal degrades to `full` instead
//! of growing without bound (a run that never drains — e.g. a static
//! policy — stays O(1) in journal memory).
//!
//! [`Datacenter`]: crate::datacenter::Datacenter
//! [`Datacenter::apply`]: crate::datacenter::Datacenter::apply

use crate::pm::PmId;
use crate::resources::ResourceVector;
use crate::vm::VmId;
use std::collections::BTreeSet;

/// One fleet mutation: the complete vocabulary of changes to the
/// datacenter's reservation state. Power-state transitions go through
/// [`Datacenter::pm_mut`](crate::datacenter::Datacenter::pm_mut) and need
/// no op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetOp {
    /// `vm` reserves `demand` on `pm` as its sole host. Fails for a VM
    /// that already holds a reservation.
    Place {
        /// The placed VM.
        vm: VmId,
        /// Its host.
        pm: PmId,
        /// Its reservation.
        demand: ResourceVector,
    },
    /// A live migration begins: `demand` is additionally reserved on `to`,
    /// which becomes the current host. Fails for a VM that already has a
    /// migration in flight.
    BeginMigration {
        /// The migrating VM.
        vm: VmId,
        /// The destination PM.
        to: PmId,
        /// The reservation taken on the destination.
        demand: ResourceVector,
    },
    /// A live migration completes: the reservation on `from` is released.
    FinishMigration {
        /// The migrated VM.
        vm: VmId,
        /// The source PM being released.
        from: PmId,
    },
    /// Every reservation of `vm` is released (departure, or restart after
    /// its source failed). A no-op for a VM with no reservation.
    Remove {
        /// The departing VM.
        vm: VmId,
    },
    /// `pm` fails: it is marked failed and its reservations are evicted;
    /// a mid-migration VM keeps its reservation elsewhere.
    Fail {
        /// The failed PM.
        pm: PmId,
    },
    /// The sole reservation of `vm` becomes `new` in place (vertical
    /// elasticity). Fails when the VM has no reservation, has a migration
    /// in flight, or the grow does not fit its host's virtual capacity; a
    /// same-size resize changes nothing.
    Resize {
        /// The resized VM.
        vm: VmId,
        /// Its new reservation.
        new: ResourceVector,
    },
}

/// Per-set bound on tracked ids; beyond it the journal marks itself full.
/// Generous enough that only a drain-free run ever hits it (a 10k-PM fleet
/// with 50k live VMs stays far below), small enough to bound memory.
pub const MAX_TRACKED: usize = 1 << 20;

/// The set of PMs and VMs touched since the journal was last drained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetDelta {
    dirty_pms: BTreeSet<PmId>,
    dirty_vms: BTreeSet<VmId>,
    /// Everything must be considered dirty: set on overflow and on
    /// deserialization (the wire carries no journal, so the consumer's
    /// snapshot provenance is unknown).
    full: bool,
}

impl FleetDelta {
    /// An empty journal: nothing changed since the last drain.
    pub fn new() -> Self {
        FleetDelta::default()
    }

    /// A journal that reports everything as dirty.
    pub fn new_full() -> Self {
        FleetDelta {
            full: true,
            ..FleetDelta::default()
        }
    }

    /// Records a PM footprint change.
    pub fn note_pm(&mut self, id: PmId) {
        if self.full {
            return;
        }
        if self.dirty_pms.len() >= MAX_TRACKED {
            self.degrade();
            return;
        }
        self.dirty_pms.insert(id);
    }

    /// Records a VM placement / migration / resize / eviction / removal.
    pub fn note_vm(&mut self, id: VmId) {
        if self.full {
            return;
        }
        if self.dirty_vms.len() >= MAX_TRACKED {
            self.degrade();
            return;
        }
        self.dirty_vms.insert(id);
    }

    fn degrade(&mut self) {
        self.full = true;
        self.dirty_pms.clear();
        self.dirty_vms.clear();
    }

    /// `true` when consumers must treat every PM and VM as dirty.
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// `true` when nothing changed since the last drain (and the journal
    /// is not degraded).
    pub fn is_empty(&self) -> bool {
        !self.full && self.dirty_pms.is_empty() && self.dirty_vms.is_empty()
    }

    /// PMs whose footprint changed. Meaningless when [`is_full`] — check
    /// that first.
    ///
    /// [`is_full`]: FleetDelta::is_full
    pub fn dirty_pms(&self) -> &BTreeSet<PmId> {
        &self.dirty_pms
    }

    /// VMs placed, migrated, evicted or removed. Meaningless when
    /// [`is_full`] — check that first.
    ///
    /// [`is_full`]: FleetDelta::is_full
    pub fn dirty_vms(&self) -> &BTreeSet<VmId> {
        &self.dirty_vms
    }

    /// Folds `other` into `self` (the union of the two dirt sets; full
    /// absorbs everything). Used when two drains happen between planning
    /// passes — dirt must accumulate, never be dropped.
    pub fn merge(&mut self, other: FleetDelta) {
        if self.full {
            return;
        }
        if other.full {
            self.degrade();
            return;
        }
        for pm in other.dirty_pms {
            self.note_pm(pm);
            if self.full {
                return;
            }
        }
        for vm in other.dirty_vms {
            self.note_vm(vm);
            if self.full {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_accumulates() {
        let mut j = FleetDelta::new();
        assert!(j.is_empty());
        assert!(!j.is_full());
        j.note_pm(PmId(3));
        j.note_pm(PmId(3));
        j.note_vm(VmId(7));
        assert!(!j.is_empty());
        assert_eq!(j.dirty_pms().len(), 1);
        assert_eq!(j.dirty_vms().len(), 1);
        assert!(j.dirty_pms().contains(&PmId(3)));
        assert!(j.dirty_vms().contains(&VmId(7)));
    }

    #[test]
    fn full_absorbs_everything() {
        let mut j = FleetDelta::new_full();
        assert!(j.is_full());
        assert!(!j.is_empty());
        j.note_pm(PmId(1));
        j.note_vm(VmId(1));
        assert!(j.dirty_pms().is_empty(), "full journal tracks no ids");
        assert!(j.dirty_vms().is_empty());
    }

    #[test]
    fn merge_unions_dirt() {
        let mut a = FleetDelta::new();
        a.note_pm(PmId(1));
        let mut b = FleetDelta::new();
        b.note_pm(PmId(2));
        b.note_vm(VmId(9));
        a.merge(b);
        assert_eq!(a.dirty_pms().len(), 2);
        assert_eq!(a.dirty_vms().len(), 1);

        a.merge(FleetDelta::new_full());
        assert!(a.is_full());
    }
}
