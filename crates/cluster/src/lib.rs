//! # dvmp-cluster
//!
//! The datacenter model underneath the VM-placement schemes: K-dimensional
//! [`resources`], the [`vm`] and [`pm`] state machines, the [`power`] model
//! with exact energy integration, the heterogeneous [`datacenter`] fleet
//! (including the paper's Table II configuration), the [`reliability`]
//! substrate (per-PM reliability scores and an optional failure process),
//! and the id-indexed VM storage of [`vm_table`].
//!
//! The crate is purely a *model*: it holds state and enforces invariants
//! (capacity is never exceeded, placements and releases balance) but makes
//! no placement decisions — those live in `dvmp-placement` — and contains
//! no event loop — that lives in `dvmp` (the core crate).

pub mod datacenter;
pub mod digest;
pub mod index;
pub mod journal;
pub mod pm;
pub mod power;
pub mod reliability;
pub mod resources;
pub mod vm;
pub mod vm_table;

pub use datacenter::{paper_fleet, Datacenter, FleetBuilder, PmMut};
pub use digest::Fnv64;
pub use index::CapacityIndex;
pub use journal::{FleetDelta, FleetOp};
pub use pm::{Pm, PmClass, PmId, PmState};
pub use power::PowerModel;
pub use resources::{OverbookRatios, ResourceVector};
pub use vm::{Vm, VmId, VmSpec, VmState};
pub use vm_table::{VmSlots, VmTable, FLAT_VM_IDS};
