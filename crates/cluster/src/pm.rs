//! Physical machines: specs, power state machine, and occupancy tracking.
//!
//! A [`PmClass`] captures one row of the paper's Table II (capacity, the
//! virtualization overheads `T_cre` / `T_mig`, the power-cycling overhead,
//! and the two-level power draw). A [`Pm`] instance adds mutable state: its
//! power [`PmState`] and the set of VMs currently charged against its
//! capacity.
//!
//! Occupancy is the *sum of reservations*: a VM under live migration is
//! reserved on both source and destination until the migration completes
//! (DESIGN.md I3), so the capacity invariant `used ≤ capacity` is enforced
//! here and can never be violated by a placement policy.

use crate::resources::{OverbookRatios, ResourceVector};
use crate::vm::VmId;
use dvmp_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a physical machine, unique within a datacenter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PmId(pub u32);

impl fmt::Display for PmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pm{}", self.0)
    }
}

/// A hardware class: one row of Table II.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PmClass {
    /// Human-readable class name ("fast", "slow", ...).
    pub name: String,
    /// Maximum resource capacity `C_j^max`.
    pub capacity: ResourceVector,
    /// VM creation overhead `T^cre`.
    pub creation_time: SimDuration,
    /// Live-migration overhead `T^mig` (charged when this PM is the
    /// migration *destination*).
    pub migration_time: SimDuration,
    /// Power-cycling overhead (boot and shutdown each take this long).
    pub on_off_time: SimDuration,
    /// Power draw while hosting at least one VM, in watts.
    pub active_power_w: f64,
    /// Power draw while on but idle, in watts.
    pub idle_power_w: f64,
}

impl PmClass {
    /// The paper's "fast" node class (Table II).
    pub fn paper_fast() -> Self {
        PmClass {
            name: "fast".to_owned(),
            // 2 processors × 4 cores, 8 GiB.
            capacity: ResourceVector::cpu_mem(8, 8_192),
            creation_time: SimDuration::from_secs(30),
            migration_time: SimDuration::from_secs(40),
            on_off_time: SimDuration::from_secs(50),
            active_power_w: 400.0,
            idle_power_w: 240.0,
        }
    }

    /// The paper's "slow" node class (Table II).
    pub fn paper_slow() -> Self {
        PmClass {
            name: "slow".to_owned(),
            // 2 processors × 2 cores, 4 GiB.
            capacity: ResourceVector::cpu_mem(4, 4_096),
            creation_time: SimDuration::from_secs(40),
            migration_time: SimDuration::from_secs(45),
            on_off_time: SimDuration::from_secs(55),
            active_power_w: 300.0,
            idle_power_w: 180.0,
        }
    }

    /// Checks the two-level power model: both wattages finite,
    /// non-negative and at most [`MAX_POWER_W`], and idle no higher than
    /// active.
    pub fn check_power(&self) -> Result<(), String> {
        let (idle, active) = (self.idle_power_w, self.active_power_w);
        if !(idle.is_finite() && active.is_finite() && idle >= 0.0 && active >= 0.0) {
            return Err(format!(
                "class {:?}: wattages must be finite and non-negative, \
                 got idle {idle} W, active {active} W",
                self.name
            ));
        }
        if active > MAX_POWER_W {
            return Err(format!(
                "class {:?}: active power {active:e} W exceeds the {MAX_POWER_W} W \
                 a single machine can draw",
                self.name
            ));
        }
        if idle > active {
            return Err(format!(
                "class {:?}: idle power {idle} W exceeds active power {active} W",
                self.name
            ));
        }
        Ok(())
    }
}

/// The most power one machine may draw, in watts. A server draws
/// hundreds of watts and a whole rack tens of kilowatts, so a megawatt
/// is no machine at all; it also keeps a fleet's energy sums finite (a
/// week of 100 000 such machines is ~6·10¹⁶ J).
pub const MAX_POWER_W: f64 = 1.0e6;

/// Power/availability state of a PM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PmState {
    /// Powered off; draws nothing, hosts nothing.
    Off,
    /// Booting; available (and billable at active power) from `ready_at`.
    Booting {
        /// Boot completion instant.
        ready_at: SimTime,
    },
    /// Powered on and available.
    On,
    /// Shutting down; off from `off_at`. Draws power until then.
    ShuttingDown {
        /// Power-off instant.
        off_at: SimTime,
    },
    /// Failed; hosts nothing until repaired.
    Failed,
}

/// Errors returned by occupancy mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmError {
    /// The PM is not in a state that can host VMs.
    NotAvailable(PmState),
    /// The reservation would exceed capacity.
    InsufficientCapacity,
    /// The VM is already reserved on this PM.
    AlreadyHosted(VmId),
    /// The VM is not reserved on this PM.
    NotHosted(VmId),
    /// The VM holds reservations on more than one PM (live migration in
    /// flight), so a single-host operation such as resize is ill-defined.
    MigrationInFlight(VmId),
    /// The PM cannot enter this power state: `Failed` (a failure sets
    /// it), or a state that cannot host while the PM holds reservations.
    PowerRefused(PmState),
}

impl fmt::Display for PmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmError::NotAvailable(s) => write!(f, "PM not available (state {s:?})"),
            PmError::InsufficientCapacity => write!(f, "insufficient capacity"),
            PmError::AlreadyHosted(vm) => write!(f, "{vm} already reserved here"),
            PmError::NotHosted(vm) => write!(f, "{vm} not reserved here"),
            PmError::MigrationInFlight(vm) => {
                write!(f, "{vm} has a migration in flight")
            }
            PmError::PowerRefused(s) => write!(f, "PM cannot enter state {s:?}"),
        }
    }
}

impl std::error::Error for PmError {}

/// A physical machine instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pm {
    /// Identifier within the datacenter.
    pub id: PmId,
    /// Index of this PM's class in the datacenter's class table.
    pub class_idx: usize,
    /// Hardware parameters (shared-by-value copy of the class row).
    pub class: PmClass,
    /// Reliability score `p_j^rel ∈ (0, 1]` (Section III-B-3).
    pub reliability: f64,
    /// Current power state.
    pub state: PmState,
    /// Per-dimension overbooking ratios; `None` means no overbooking and
    /// the admission capacity equals the hardware capacity. When set, the
    /// PM admits reservations up to [`Pm::virtual_capacity`] and physical
    /// saturation (`used > C_j^max`) is metered as SLA-violation time.
    #[serde(default)]
    pub overbook: Option<OverbookRatios>,
    reservations: BTreeMap<VmId, ResourceVector>,
    used: ResourceVector,
}

impl Pm {
    /// A powered-off PM of the given class.
    pub fn new(id: PmId, class_idx: usize, class: PmClass, reliability: f64) -> Self {
        assert!(
            reliability > 0.0 && reliability <= 1.0,
            "reliability must be in (0,1]"
        );
        let k = class.capacity.k();
        Pm {
            id,
            class_idx,
            class,
            reliability,
            state: PmState::Off,
            overbook: None,
            reservations: BTreeMap::new(),
            used: ResourceVector::zero(k),
        }
    }

    /// Current resource occupation `C_j`.
    pub fn used(&self) -> &ResourceVector {
        &self.used
    }

    /// Physical hardware capacity `C_j^max`. Admission is checked against
    /// [`Pm::virtual_capacity`], which equals this unless overbooked.
    pub fn capacity(&self) -> &ResourceVector {
        &self.class.capacity
    }

    /// The capacity reservations are admitted against: the physical
    /// capacity scaled by the overbooking ratios (identical to
    /// [`Pm::capacity`] when not overbooked).
    pub fn virtual_capacity(&self) -> ResourceVector {
        match &self.overbook {
            None => self.class.capacity,
            Some(ob) => ob.apply(&self.class.capacity),
        }
    }

    /// `true` when occupancy exceeds the *physical* capacity in any
    /// dimension — only possible on an overbooked PM, and the condition
    /// the SLA-violation meter integrates over while the PM is powered.
    pub fn is_saturated(&self) -> bool {
        !self.used.le(&self.class.capacity)
    }

    /// Remaining admission headroom `virtual capacity − C_j`, zero in a
    /// dimension already at or past the virtual capacity (which only a
    /// raw overbooking edit can cause; `Datacenter::check_pm` reports it).
    pub fn headroom(&self) -> ResourceVector {
        self.virtual_capacity().saturating_sub(&self.used)
    }

    /// Number of VMs reserved on this PM.
    pub fn vm_count(&self) -> usize {
        self.reservations.len()
    }

    /// `true` when no VMs are reserved here.
    pub fn is_idle(&self) -> bool {
        self.reservations.is_empty()
    }

    /// VM ids reserved here, in deterministic (id) order.
    pub fn hosted_vms(&self) -> impl Iterator<Item = VmId> + '_ {
        self.reservations.keys().copied()
    }

    /// `(VM, reservation)` pairs held here, in VM id order.
    pub fn reservations(&self) -> impl Iterator<Item = (VmId, &ResourceVector)> + '_ {
        self.reservations.iter().map(|(&vm, demand)| (vm, demand))
    }

    /// The reservation held by `vm`, if any.
    pub fn reservation_of(&self, vm: VmId) -> Option<&ResourceVector> {
        self.reservations.get(&vm)
    }

    /// `true` when the PM can accept new reservations.
    pub fn is_available(&self) -> bool {
        matches!(self.state, PmState::On | PmState::Booting { .. })
    }

    /// `true` when the PM draws power (on, booting, or shutting down).
    pub fn is_powered(&self) -> bool {
        !matches!(self.state, PmState::Off | PmState::Failed)
    }

    /// Eq. 2's feasibility test against the virtual capacity: would
    /// `demand` fit on top of the current occupation? (State is not
    /// considered; that is `can_host`.)
    pub fn fits(&self, demand: &ResourceVector) -> bool {
        self.used.fits_with(demand, &self.virtual_capacity())
    }

    /// Full admission test: available *and* fits.
    pub fn can_host(&self, demand: &ResourceVector) -> bool {
        self.is_available() && self.fits(demand)
    }

    /// Reserves `demand` for `vm`.
    pub fn reserve(&mut self, vm: VmId, demand: ResourceVector) -> Result<(), PmError> {
        if !self.is_available() {
            return Err(PmError::NotAvailable(self.state));
        }
        if self.reservations.contains_key(&vm) {
            return Err(PmError::AlreadyHosted(vm));
        }
        if !self.fits(&demand) {
            return Err(PmError::InsufficientCapacity);
        }
        self.used = self.used.add(&demand);
        self.reservations.insert(vm, demand);
        Ok(())
    }

    /// Resizes `vm`'s existing reservation to `new` (vertical elasticity),
    /// returning the previous demand. A same-size resize is a no-op that
    /// still returns `Ok`. A grow that does not fit within the virtual
    /// capacity is rejected and the old reservation is kept.
    pub fn resize_reservation(
        &mut self,
        vm: VmId,
        new: ResourceVector,
    ) -> Result<ResourceVector, PmError> {
        let old = *self.reservations.get(&vm).ok_or(PmError::NotHosted(vm))?;
        if new == old {
            return Ok(old);
        }
        let without = self
            .used
            .checked_sub(&old)
            .expect("occupancy invariant: reservations sum to used");
        if !without.fits_with(&new, &self.virtual_capacity()) {
            return Err(PmError::InsufficientCapacity);
        }
        self.used = without.add(&new);
        self.reservations.insert(vm, new);
        Ok(old)
    }

    /// Releases `vm`'s reservation, returning it.
    pub fn release(&mut self, vm: VmId) -> Result<ResourceVector, PmError> {
        let demand = self
            .reservations
            .remove(&vm)
            .ok_or(PmError::NotHosted(vm))?;
        self.used = self
            .used
            .checked_sub(&demand)
            .expect("occupancy invariant: reservations sum to used");
        Ok(demand)
    }

    /// Clears every reservation (PM failure), returning the evicted VM ids
    /// in deterministic order.
    pub fn evict_all(&mut self) -> Vec<VmId> {
        let vms: Vec<VmId> = self.reservations.keys().copied().collect();
        self.reservations.clear();
        self.used = ResourceVector::zero(self.class.capacity.k());
        vms
    }

    /// Joint utilization `U_j = ∏_k C_j(k)/C_j^max(k)` (Section III-B-4),
    /// computed against the virtual capacity so it stays in `[0, 1]` on
    /// overbooked PMs (identical to the physical ratio otherwise).
    pub fn joint_utilization(&self) -> f64 {
        self.used.joint_utilization(&self.virtual_capacity())
    }

    /// Instantaneous power draw in watts, per the two-level model the
    /// paper's Table II specifies: active power while hosting at least one
    /// VM (or cycling), idle power while on and empty, zero while off or
    /// failed. Boot/shutdown transitions draw active power — cycling is
    /// work, which is exactly why the ON/OFF overhead discourages flapping.
    pub fn power_draw_w(&self) -> f64 {
        match self.state {
            PmState::Off | PmState::Failed => 0.0,
            PmState::Booting { .. } | PmState::ShuttingDown { .. } => self.class.active_power_w,
            PmState::On => {
                if self.is_idle() {
                    self.class.idle_power_w
                } else {
                    self.class.active_power_w
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_pm() -> Pm {
        let mut pm = Pm::new(PmId(0), 0, PmClass::paper_fast(), 0.99);
        pm.state = PmState::On;
        pm
    }

    fn demand(cores: u64, mem: u64) -> ResourceVector {
        ResourceVector::cpu_mem(cores, mem)
    }

    #[test]
    fn power_above_the_physical_ceiling_is_rejected() {
        let class = |idle_power_w, active_power_w| PmClass {
            idle_power_w,
            active_power_w,
            ..PmClass::paper_fast()
        };
        assert_eq!(class(0.0, MAX_POWER_W).check_power(), Ok(()));
        assert_eq!(class(MAX_POWER_W, MAX_POWER_W).check_power(), Ok(()));
        let err = class(240.0, 1e308).check_power().unwrap_err();
        assert!(err.contains("exceeds the 1000000 W"), "{err}");
        assert!(class(240.0, MAX_POWER_W * 1.5).check_power().is_err());
        let err = class(1e308, 400.0).check_power().unwrap_err();
        assert!(err.contains("idle power"), "{err}");
    }

    #[test]
    fn paper_classes_match_table2() {
        let fast = PmClass::paper_fast();
        assert_eq!(fast.capacity, demand(8, 8_192));
        assert_eq!(fast.creation_time.as_secs(), 30);
        assert_eq!(fast.migration_time.as_secs(), 40);
        assert_eq!(fast.on_off_time.as_secs(), 50);
        assert_eq!(fast.active_power_w, 400.0);
        assert_eq!(fast.idle_power_w, 240.0);

        let slow = PmClass::paper_slow();
        assert_eq!(slow.capacity, demand(4, 4_096));
        assert_eq!(slow.creation_time.as_secs(), 40);
        assert_eq!(slow.migration_time.as_secs(), 45);
        assert_eq!(slow.on_off_time.as_secs(), 55);
        assert_eq!(slow.active_power_w, 300.0);
        assert_eq!(slow.idle_power_w, 180.0);
    }

    #[test]
    fn reserve_release_balance() {
        let mut pm = fast_pm();
        pm.reserve(VmId(1), demand(1, 512)).unwrap();
        pm.reserve(VmId(2), demand(2, 1_024)).unwrap();
        assert_eq!(pm.used(), &demand(3, 1_536));
        assert_eq!(pm.vm_count(), 2);
        assert!(!pm.is_idle());
        let back = pm.release(VmId(1)).unwrap();
        assert_eq!(back, demand(1, 512));
        assert_eq!(pm.used(), &demand(2, 1_024));
        pm.release(VmId(2)).unwrap();
        assert!(pm.is_idle());
        assert!(pm.used().is_zero());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut pm = fast_pm();
        pm.reserve(VmId(1), demand(7, 1_024)).unwrap();
        assert_eq!(
            pm.reserve(VmId(2), demand(2, 512)),
            Err(PmError::InsufficientCapacity)
        );
        // Exactly filling the last core works.
        pm.reserve(VmId(3), demand(1, 512)).unwrap();
        assert_eq!(pm.used().get(0), 8);
    }

    #[test]
    fn duplicate_and_missing_vms_are_errors() {
        let mut pm = fast_pm();
        pm.reserve(VmId(1), demand(1, 512)).unwrap();
        assert_eq!(
            pm.reserve(VmId(1), demand(1, 512)),
            Err(PmError::AlreadyHosted(VmId(1)))
        );
        assert_eq!(pm.release(VmId(9)), Err(PmError::NotHosted(VmId(9))));
    }

    #[test]
    fn off_pm_rejects_reservations() {
        let mut pm = Pm::new(PmId(0), 0, PmClass::paper_fast(), 0.99);
        assert_eq!(
            pm.reserve(VmId(1), demand(1, 512)),
            Err(PmError::NotAvailable(PmState::Off))
        );
        assert!(!pm.can_host(&demand(1, 512)));
    }

    #[test]
    fn booting_pm_accepts_reservations() {
        let mut pm = Pm::new(PmId(0), 0, PmClass::paper_fast(), 0.99);
        pm.state = PmState::Booting {
            ready_at: SimTime::from_secs(50),
        };
        assert!(pm.is_available());
        pm.reserve(VmId(1), demand(1, 512)).unwrap();
    }

    #[test]
    fn evict_all_clears_occupancy() {
        let mut pm = fast_pm();
        pm.reserve(VmId(3), demand(1, 512)).unwrap();
        pm.reserve(VmId(1), demand(1, 512)).unwrap();
        let evicted = pm.evict_all();
        assert_eq!(evicted, vec![VmId(1), VmId(3)], "deterministic id order");
        assert!(pm.is_idle());
        assert!(pm.used().is_zero());
    }

    #[test]
    fn power_draw_follows_state() {
        let mut pm = fast_pm();
        assert_eq!(pm.power_draw_w(), 240.0, "on + idle");
        pm.reserve(VmId(1), demand(1, 512)).unwrap();
        assert_eq!(pm.power_draw_w(), 400.0, "on + active");
        pm.release(VmId(1)).unwrap();
        pm.state = PmState::Off;
        assert_eq!(pm.power_draw_w(), 0.0);
        pm.state = PmState::Booting {
            ready_at: SimTime::from_secs(50),
        };
        assert_eq!(pm.power_draw_w(), 400.0, "booting draws active power");
        pm.state = PmState::ShuttingDown {
            off_at: SimTime::from_secs(50),
        };
        assert_eq!(pm.power_draw_w(), 400.0, "shutdown draws active power");
        pm.state = PmState::Failed;
        assert_eq!(pm.power_draw_w(), 0.0);
    }

    #[test]
    fn joint_utilization_of_half_full_pm() {
        let mut pm = fast_pm();
        pm.reserve(VmId(1), demand(4, 4_096)).unwrap();
        assert!((pm.joint_utilization() - 0.25).abs() < 1e-12); // 0.5 * 0.5
    }

    #[test]
    fn headroom_tracks_reservations() {
        let mut pm = fast_pm();
        assert_eq!(pm.headroom(), demand(8, 8_192));
        pm.reserve(VmId(1), demand(3, 1_000)).unwrap();
        assert_eq!(pm.headroom(), demand(5, 7_192));
    }

    #[test]
    #[should_panic(expected = "reliability")]
    fn zero_reliability_rejected() {
        Pm::new(PmId(0), 0, PmClass::paper_fast(), 0.0);
    }

    fn overbooked_pm() -> Pm {
        let mut pm = fast_pm();
        pm.overbook = Some(OverbookRatios::cpu_mem(200, 150));
        pm
    }

    #[test]
    fn overbooked_pm_admits_past_physical_capacity() {
        let mut pm = overbooked_pm();
        assert_eq!(pm.virtual_capacity(), demand(16, 12_288));
        assert_eq!(pm.headroom(), demand(16, 12_288));
        pm.reserve(VmId(1), demand(8, 8_192)).unwrap();
        assert!(!pm.is_saturated(), "exactly full is not saturated");
        // Physically full, virtually half-full: admission still succeeds.
        pm.reserve(VmId(2), demand(8, 4_096)).unwrap();
        assert!(pm.is_saturated());
        assert_eq!(pm.used(), &demand(16, 12_288));
        assert_eq!(
            pm.reserve(VmId(3), demand(1, 1)),
            Err(PmError::InsufficientCapacity),
            "virtual capacity is still a hard bound"
        );
        // Utilization is against virtual capacity: exactly 1.0 here.
        assert!((pm.joint_utilization() - 1.0).abs() < 1e-12);
        pm.release(VmId(2)).unwrap();
        assert!(!pm.is_saturated());
    }

    #[test]
    fn non_overbooked_pm_never_saturates() {
        let mut pm = fast_pm();
        pm.reserve(VmId(1), demand(8, 8_192)).unwrap();
        assert!(!pm.is_saturated());
        assert_eq!(pm.virtual_capacity(), *pm.capacity());
    }

    #[test]
    fn resize_reservation_grows_and_shrinks() {
        let mut pm = fast_pm();
        pm.reserve(VmId(1), demand(2, 1_024)).unwrap();
        let old = pm.resize_reservation(VmId(1), demand(4, 2_048)).unwrap();
        assert_eq!(old, demand(2, 1_024));
        assert_eq!(pm.used(), &demand(4, 2_048));
        assert_eq!(pm.reservation_of(VmId(1)), Some(&demand(4, 2_048)));
        let old = pm.resize_reservation(VmId(1), demand(1, 512)).unwrap();
        assert_eq!(old, demand(4, 2_048));
        assert_eq!(pm.used(), &demand(1, 512));
    }

    #[test]
    fn resize_reservation_rejects_overflow_and_missing() {
        let mut pm = fast_pm();
        pm.reserve(VmId(1), demand(2, 1_024)).unwrap();
        pm.reserve(VmId(2), demand(5, 1_024)).unwrap();
        assert_eq!(
            pm.resize_reservation(VmId(1), demand(4, 1_024)),
            Err(PmError::InsufficientCapacity)
        );
        // Rejection leaves the old reservation intact.
        assert_eq!(pm.reservation_of(VmId(1)), Some(&demand(2, 1_024)));
        assert_eq!(pm.used(), &demand(7, 2_048));
        assert_eq!(
            pm.resize_reservation(VmId(9), demand(1, 1)),
            Err(PmError::NotHosted(VmId(9)))
        );
    }

    #[test]
    fn same_size_resize_is_a_no_op() {
        let mut pm = fast_pm();
        pm.reserve(VmId(1), demand(2, 1_024)).unwrap();
        let old = pm.resize_reservation(VmId(1), demand(2, 1_024)).unwrap();
        assert_eq!(old, demand(2, 1_024));
        assert_eq!(pm.used(), &demand(2, 1_024));
    }

    #[test]
    fn resize_can_saturate_overbooked_pm() {
        let mut pm = overbooked_pm();
        pm.reserve(VmId(1), demand(6, 4_096)).unwrap();
        assert!(!pm.is_saturated());
        pm.resize_reservation(VmId(1), demand(12, 4_096)).unwrap();
        assert!(pm.is_saturated(), "grow past physical cores saturates");
    }
}
