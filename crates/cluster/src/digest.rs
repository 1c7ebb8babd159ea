//! Stable fleet-state digests.
//!
//! Checked-mode violation reports and the golden-trace harness both need a
//! compact, deterministic fingerprint of "everything that matters" about
//! the fleet at an instant: power states, per-PM occupancy, and the full
//! VM → PM reservation mapping. [`Datacenter::state_digest`] folds all of
//! that through FNV-1a, so two fleets digest equal iff their observable
//! state is identical — a one-`u64` answer to "did these two runs (or the
//! live state and the reference model) diverge here?".

use crate::datacenter::Datacenter;
use crate::pm::PmState;

/// Incremental FNV-1a 64-bit hasher.
///
/// Chosen over `std::hash` because its output is specified (stable across
/// Rust versions, platforms and processes), which committed golden digests
/// require. Not cryptographic — these digests detect drift, not tampering.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A hasher in the standard FNV-1a initial state.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Folds raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Folds one `u64` (little-endian) into the state.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Discriminant + embedded instants of a power state, as hashable words.
fn pm_state_words(state: PmState) -> (u64, u64) {
    match state {
        PmState::Off => (0, 0),
        PmState::Booting { ready_at } => (1, ready_at.as_secs()),
        PmState::On => (2, 0),
        PmState::ShuttingDown { off_at } => (3, off_at.as_secs()),
        PmState::Failed => (4, 0),
    }
}

impl Datacenter {
    /// A stable digest of the observable fleet state: every PM's power
    /// state, occupancy vector and reservation set (VM id + demand), in
    /// id order. Two datacenters digest equal iff an observer walking the
    /// public API would see identical state.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.len() as u64);
        for pm in self.pms() {
            h.write_u64(pm.id.0 as u64);
            let (tag, instant) = pm_state_words(pm.state);
            h.write_u64(tag);
            h.write_u64(instant);
            let used = pm.used();
            h.write_u64(used.k() as u64);
            for d in 0..used.k() {
                h.write_u64(used.get(d));
            }
            h.write_u64(pm.vm_count() as u64);
            for vm in pm.hosted_vms() {
                h.write_u64(vm.0 as u64);
                let r = pm.reservation_of(vm).expect("hosted VM has a reservation");
                for d in 0..r.k() {
                    h.write_u64(r.get(d));
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datacenter::FleetBuilder;
    use crate::journal::FleetOp;
    use crate::pm::{PmClass, PmId};
    use crate::resources::ResourceVector;
    use crate::vm::VmId;

    fn fleet() -> Datacenter {
        FleetBuilder::new()
            .add_class(PmClass::paper_fast(), 2, 0.99)
            .add_class(PmClass::paper_slow(), 2, 0.95)
            .initially_on(true)
            .build()
    }

    #[test]
    fn fnv_vector_matches_reference() {
        // FNV-1a 64 of the empty input is the offset basis; of "a" the
        // published test vector.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn identical_fleets_digest_equal() {
        let a = fleet();
        let b = fleet();
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn digest_tracks_every_observable_change() {
        let base = fleet().state_digest();

        // Placement changes the digest; undoing it restores it.
        let mut dc = fleet();
        let (vm, pm, demand) = (VmId(1), PmId(0), ResourceVector::cpu_mem(1, 512));
        dc.apply(FleetOp::Place { vm, pm, demand }).unwrap();
        let placed = dc.state_digest();
        assert_ne!(placed, base);
        dc.apply(FleetOp::Remove { vm: VmId(1) }).unwrap();
        assert_eq!(dc.state_digest(), base);

        // A pure power-state change is observable too.
        let mut dc = fleet();
        dc.pm_mut(PmId(3)).state = crate::pm::PmState::Off;
        assert_ne!(dc.state_digest(), base);
    }

    #[test]
    fn digest_distinguishes_reservation_owner() {
        // Same occupancy totals, different VM ids → different digests.
        let mut a = fleet();
        let (vm, pm, demand) = (VmId(1), PmId(0), ResourceVector::cpu_mem(1, 512));
        a.apply(FleetOp::Place { vm, pm, demand }).unwrap();
        let mut b = fleet();
        let (vm, pm, demand) = (VmId(2), PmId(0), ResourceVector::cpu_mem(1, 512));
        b.apply(FleetOp::Place { vm, pm, demand }).unwrap();
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn digest_sees_migration_double_reservation() {
        let mut dc = fleet();
        let (vm, pm, to) = (VmId(1), PmId(0), PmId(1));
        let demand = ResourceVector::cpu_mem(1, 512);
        dc.apply(FleetOp::Place { vm, pm, demand }).unwrap();
        let single = dc.state_digest();
        dc.apply(FleetOp::BeginMigration { vm, to, demand })
            .unwrap();
        let doubled = dc.state_digest();
        assert_ne!(single, doubled);
        dc.apply(FleetOp::FinishMigration { vm, from: pm }).unwrap();
        assert_ne!(dc.state_digest(), single, "host moved to pm1");
        assert_ne!(dc.state_digest(), doubled);
    }
}
