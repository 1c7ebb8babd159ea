//! Id-indexed VM storage.
//!
//! [`VmSlots`] is the one `VmId → slot` index of the workspace: the
//! datacenter's per-VM hosts, the simulator's [`VmTable`] and the
//! compressed planner's columns all find a VM's slot through it. Ids
//! below [`FLAT_VM_IDS`] index a flat table, so a lookup is one load;
//! every workload generator and the SWF reader number VMs densely from 0
//! or 1, far below the bound. Larger ids go to a map, so an id of any
//! size stays valid without sizing the flat table after it.

use crate::vm::{Vm, VmId};
use std::collections::HashMap;
use std::ops::Index;

/// Ids below this bound index [`VmSlots`]' flat table (a 64 MiB ceiling);
/// larger ones go to its map.
pub const FLAT_VM_IDS: usize = 1 << 24;
/// Flat-table sentinel: the id has no slot.
const NO_SLOT: u32 = u32::MAX;

/// `VmId → slot`: a flat table for ids below [`FLAT_VM_IDS`], a map above.
/// What a slot indexes is the owner's business.
#[derive(Debug, Clone, Default)]
pub struct VmSlots {
    flat: Vec<u32>,
    far: HashMap<VmId, u32>,
}

impl VmSlots {
    /// An empty index.
    pub fn new() -> Self {
        VmSlots::default()
    }

    /// The slot of `vm`, if it has one.
    #[inline]
    pub fn get(&self, vm: VmId) -> Option<usize> {
        let id = vm.0 as usize;
        let slot = if id < FLAT_VM_IDS {
            self.flat.get(id).copied().filter(|&s| s != NO_SLOT)
        } else {
            self.far.get(&vm).copied()
        };
        slot.map(|s| s as usize)
    }

    /// Gives `vm` slot `slot`, replacing any slot it had.
    ///
    /// # Panics
    /// Panics when `slot` does not fit below `u32::MAX`.
    #[inline]
    pub fn set(&mut self, vm: VmId, slot: usize) {
        let slot = u32::try_from(slot)
            .ok()
            .filter(|&s| s != NO_SLOT)
            .expect("VM slot fits u32");
        let id = vm.0 as usize;
        if id < FLAT_VM_IDS {
            if self.flat.len() <= id {
                self.flat.resize(id + 1, NO_SLOT);
            }
            self.flat[id] = slot;
        } else {
            self.far.insert(vm, slot);
        }
    }

    /// Removes `vm`'s slot, returning it.
    #[inline]
    pub fn unset(&mut self, vm: VmId) -> Option<usize> {
        let id = vm.0 as usize;
        let slot = if id < FLAT_VM_IDS {
            let entry = self.flat.get_mut(id)?;
            std::mem::replace(entry, NO_SLOT)
        } else {
            self.far.remove(&vm)?
        };
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// Removes every slot (keeping the flat table's memory).
    pub fn clear(&mut self) {
        self.flat.clear();
        self.far.clear();
    }

    /// Sizes the flat table for every id up to `max`, so setting them
    /// never grows it.
    fn reserve_to(&mut self, max: VmId) {
        let id = max.0 as usize;
        if id < FLAT_VM_IDS && self.flat.len() <= id {
            self.flat.resize(id + 1, NO_SLOT);
        }
    }

    /// Ids the flat table covers (it holds 4 bytes for each).
    pub fn flat_len(&self) -> usize {
        self.flat.len()
    }

    /// Ids held in the map (every id at or past [`FLAT_VM_IDS`]).
    pub fn far_len(&self) -> usize {
        self.far.len()
    }
}

/// The simulator's VMs, keyed by id: O(1) [`get`](Self::get) and
/// [`get_mut`](Self::get_mut), iteration in ascending [`VmId`] order.
///
/// Slots are kept in ascending id order and never move: a caller can keep
/// per-VM state of its own in a vector indexed by [`slot`](Self::slot).
/// [`with_ids`](Self::with_ids) reserves a slot for every id a run will
/// ever insert, so inserts only fill slots. An id without a reserved slot
/// may be inserted only when it is above every id the table has a slot
/// for; it then takes a new slot at the end. [`FromIterator`] sorts its
/// VMs first, so it takes them in any order.
#[derive(Debug, Clone, Default)]
pub struct VmTable {
    index: VmSlots,
    /// Slot → id, ascending.
    ids: Vec<VmId>,
    /// Slot → VM; `None` for a reserved id not inserted yet (or removed).
    vms: Vec<Option<Vm>>,
    /// Slots holding a VM.
    len: usize,
}

impl VmTable {
    /// An empty table.
    pub fn new() -> Self {
        VmTable::default()
    }

    /// An empty table with a slot reserved for each of `ids`.
    ///
    /// # Errors
    /// Returns an id that occurs more than once.
    pub fn with_ids(ids: impl IntoIterator<Item = VmId>) -> Result<Self, VmId> {
        let mut ids: Vec<VmId> = ids.into_iter().collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(w[0]);
        }
        let mut index = VmSlots::new();
        if let Some(&max) = ids.iter().rev().find(|id| (id.0 as usize) < FLAT_VM_IDS) {
            index.reserve_to(max);
        }
        for (slot, &id) in ids.iter().enumerate() {
            index.set(id, slot);
        }
        let mut vms = Vec::with_capacity(ids.len());
        vms.resize_with(ids.len(), || None);
        Ok(VmTable {
            index,
            ids,
            vms,
            len: 0,
        })
    }

    /// Number of VMs held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no VM is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot reserved for `id` (held or not). Stable while every insert
    /// fills a reserved slot.
    #[inline]
    pub fn slot(&self, id: VmId) -> Option<usize> {
        self.index.get(id)
    }

    /// The VM with id `id`.
    #[inline]
    pub fn get(&self, id: VmId) -> Option<&Vm> {
        self.vms[self.index.get(id)?].as_ref()
    }

    /// The VM with id `id`, mutably.
    #[inline]
    pub fn get_mut(&mut self, id: VmId) -> Option<&mut Vm> {
        self.vms[self.index.get(id)?].as_mut()
    }

    /// `true` when the table holds a VM with id `id`.
    pub fn contains(&self, id: VmId) -> bool {
        self.get(id).is_some()
    }

    /// Inserts `vm` under its spec's id, returning the VM it replaces.
    ///
    /// # Panics
    /// Panics when the id has no reserved slot and is not above every id
    /// that has one.
    pub fn insert(&mut self, vm: Vm) -> Option<Vm> {
        let id = vm.spec.id;
        let slot = match self.index.get(id) {
            Some(slot) => slot,
            None => self.append(id),
        };
        let old = self.vms[slot].replace(vm);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the VM with id `id`; its slot stays reserved.
    pub fn remove(&mut self, id: VmId) -> Option<Vm> {
        let old = self.vms[self.index.get(id)?].take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Gives an id without a slot a new one at the end.
    fn append(&mut self, id: VmId) -> usize {
        if let Some(&last) = self.ids.last() {
            assert!(
                last < id,
                "{id} has no reserved slot and is not above {last}: reserve it with VmTable::with_ids"
            );
        }
        let slot = self.ids.len();
        self.ids.push(id);
        self.vms.push(None);
        self.index.set(id, slot);
        slot
    }

    /// The VMs in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &Vm> + '_ {
        self.vms.iter().filter_map(Option::as_ref)
    }

    /// The held ids in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = VmId> + '_ {
        self.values().map(|vm| vm.spec.id)
    }
}

impl Index<VmId> for VmTable {
    type Output = Vm;

    /// # Panics
    /// Panics when the table holds no VM with this id.
    fn index(&self, id: VmId) -> &Vm {
        self.get(id)
            .unwrap_or_else(|| panic!("{id} is not in the VM table"))
    }
}

impl Extend<Vm> for VmTable {
    fn extend<I: IntoIterator<Item = Vm>>(&mut self, vms: I) {
        for vm in vms {
            self.insert(vm);
        }
    }
}

impl FromIterator<Vm> for VmTable {
    /// Takes the VMs in any order; of two with one id, the later wins.
    fn from_iter<I: IntoIterator<Item = Vm>>(vms: I) -> Self {
        let mut vms: Vec<Vm> = vms.into_iter().collect();
        vms.sort_by_key(|vm| vm.spec.id);
        let mut table = VmTable::new();
        table.extend(vms);
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceVector;
    use crate::vm::VmSpec;
    use dvmp_simcore::{SimDuration, SimTime};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn vm(id: u32) -> Vm {
        Vm::new(VmSpec::exact(
            VmId(id),
            SimTime::from_secs(u64::from(id)),
            ResourceVector::cpu_mem(1, 512),
            SimDuration::from_secs(60),
        ))
    }

    #[test]
    fn slots_cover_both_sides_of_the_flat_bound() {
        let mut slots = VmSlots::new();
        let (low, high) = (VmId(3), VmId(FLAT_VM_IDS as u32));
        slots.set(low, 7);
        slots.set(high, 9);
        assert_eq!((slots.get(low), slots.get(high)), (Some(7), Some(9)));
        assert_eq!((slots.flat_len(), slots.far_len()), (4, 1));
        assert_eq!(slots.get(VmId(2)), None);
        assert_eq!(slots.get(VmId(1_000)), None, "past the flat table");
        assert_eq!(slots.unset(high), Some(9));
        assert_eq!(slots.unset(low), Some(7));
        assert_eq!(slots.unset(low), None);
        assert_eq!((slots.get(low), slots.get(high)), (None, None));
    }

    #[test]
    fn reserved_ids_keep_their_slots() {
        let mut t = VmTable::with_ids([VmId(5), VmId(1), VmId(3)]).unwrap();
        assert!(t.is_empty());
        let slots = [1, 3, 5].map(|i| t.slot(VmId(i)));
        assert_eq!(slots, [Some(0), Some(1), Some(2)]);
        t.insert(vm(5));
        t.insert(vm(1));
        assert_eq!([1, 3, 5].map(|i| t.slot(VmId(i))), slots);
        assert_eq!(t.ids().collect::<Vec<_>>(), vec![VmId(1), VmId(5)]);
        assert!(t.get(VmId(3)).is_none(), "reserved but not inserted");
        assert_eq!(t[VmId(5)].spec.id, VmId(5));
    }

    #[test]
    fn duplicate_reserved_ids_are_rejected() {
        assert_eq!(
            VmTable::with_ids([VmId(4), VmId(9), VmId(4)]).err(),
            Some(VmId(4))
        );
    }

    #[test]
    fn unreserved_ids_above_every_slot_append() {
        let mut t = VmTable::with_ids([VmId(2), VmId(4)]).unwrap();
        let far = VmId(FLAT_VM_IDS as u32);
        t.insert(vm(7));
        t.insert(vm(far.0));
        t.insert(vm(2));
        assert_eq!(
            [2, 4, 7, far.0].map(|i| t.slot(VmId(i))),
            [0, 1, 2, 3].map(Some)
        );
        assert_eq!(t.ids().collect::<Vec<_>>(), vec![VmId(2), VmId(7), far]);
    }

    #[test]
    #[should_panic(expected = "vm3 has no reserved slot and is not above vm4")]
    fn unreserved_ids_below_the_last_slot_panic() {
        let mut t = VmTable::with_ids([VmId(2), VmId(4)]).unwrap();
        t.insert(vm(3));
    }

    #[test]
    fn collecting_sorts_the_vms() {
        let t: VmTable = [9, 1, 5, 1].map(vm).into_iter().collect();
        assert_eq!(t.len(), 3);
        assert_eq!(t.ids().collect::<Vec<_>>(), vec![VmId(1), VmId(5), VmId(9)]);
    }

    #[test]
    #[should_panic(expected = "vm7 is not in the VM table")]
    fn indexing_a_missing_id_panics() {
        let t: VmTable = [vm(1)].into_iter().collect();
        let _ = &t[VmId(7)];
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32),
        Remove(u32),
        Touch(u32),
    }

    /// Ids from two small pools, one in the flat table and one past its
    /// bound, so inserts collide, reuse slots and land on both sides. (An
    /// id just below the bound would size the flat table at 64 MiB.)
    fn arb_id() -> impl Strategy<Value = u32> {
        let far = FLAT_VM_IDS as u32;
        prop_oneof![0u32..12, far..far + 8]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => arb_id().prop_map(Op::Insert),
            1 => arb_id().prop_map(Op::Remove),
            2 => arb_id().prop_map(Op::Touch),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn vm_table_matches_a_btreemap_model(
            reserved in prop::collection::vec(arb_id(), 0..10),
            ops in prop::collection::vec(arb_op(), 1..80),
        ) {
            let mut reserved = reserved;
            reserved.sort_unstable();
            reserved.dedup();
            let mut table = VmTable::with_ids(reserved.iter().map(|&i| VmId(i))).unwrap();
            let mut model: BTreeMap<VmId, Vm> = BTreeMap::new();
            for op in ops {
                match op {
                    // An id without a slot below the table's last one has
                    // nowhere to go (`unreserved_ids_below_the_last_slot_panic`).
                    Op::Insert(i)
                        if table.slot(VmId(i)).is_none()
                            && table.ids.last().is_some_and(|&last| VmId(i) < last) => {}
                    Op::Insert(i) => {
                        let old_t = table.insert(vm(i)).map(|v| v.spec.id);
                        let old_m = model.insert(VmId(i), vm(i)).map(|v| v.spec.id);
                        prop_assert_eq!(old_t, old_m);
                    }
                    Op::Remove(i) => {
                        let old_t = table.remove(VmId(i)).map(|v| v.spec.id);
                        let old_m = model.remove(&VmId(i)).map(|v| v.spec.id);
                        prop_assert_eq!(old_t, old_m);
                    }
                    Op::Touch(i) => {
                        let t = table.get_mut(VmId(i)).map(|v| {
                            v.migrations += 1;
                            v.migrations
                        });
                        let m = model.get_mut(&VmId(i)).map(|v| {
                            v.migrations += 1;
                            v.migrations
                        });
                        prop_assert_eq!(t, m);
                    }
                }
                prop_assert_eq!(table.len(), model.len());
                for i in (0u32..12).chain(FLAT_VM_IDS as u32..FLAT_VM_IDS as u32 + 8) {
                    let id = VmId(i);
                    prop_assert_eq!(
                        table.get(id).map(|v| (v.spec.id, v.migrations)),
                        model.get(&id).map(|v| (v.spec.id, v.migrations))
                    );
                }
                let got: Vec<(VmId, u32)> =
                    table.values().map(|v| (v.spec.id, v.migrations)).collect();
                let want: Vec<(VmId, u32)> =
                    model.values().map(|v| (v.spec.id, v.migrations)).collect();
                prop_assert_eq!(got, want, "ascending id order");
            }
        }
    }
}
