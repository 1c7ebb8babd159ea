//! Model-based property test for the planning fast path: a live
//! planning pass of the production (class-compressed) planner emits
//! exactly the moves the executable specification's pass does, on
//! multi-core demands (DESIGN.md §8).

#[path = "../spec/spec.rs"]
mod spec;

use dvmp_cluster::datacenter::{Datacenter, FleetBuilder};
use dvmp_cluster::pm::{PmClass, PmId};
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::{Vm, VmId, VmSpec, VmState};
use dvmp_cluster::{FleetOp, VmTable};
use dvmp_placement::config::DynamicConfig;
use dvmp_placement::{DynamicPlacement, PlacementPolicy, PlacementView};
use dvmp_simcore::{SimDuration, SimTime};
use proptest::prelude::*;
use spec::Spec;

const MAX_VMS: usize = 10;

/// A two-class fleet (3 fast + 2 slow PMs, all on) hosting up to
/// [`MAX_VMS`] VMs that start at t = 0. Raw generated bytes pick each VM's
/// host; VMs that don't fit their chosen host are dropped.
fn build_fleet(
    hosts: &[u8],
    cores: &[u64],
    mems: &[u64],
    remainings: &[u64],
) -> (Datacenter, VmTable) {
    let mut dc = FleetBuilder::new()
        .add_class(PmClass::paper_fast(), 3, 0.99)
        .add_class(PmClass::paper_slow(), 2, 0.95)
        .initially_on(true)
        .build();
    let mut vms = VmTable::new();
    for (i, &h) in hosts.iter().enumerate() {
        let pm = PmId(u32::from(h) % dc.len() as u32);
        let spec = VmSpec::exact(
            VmId(i as u32 + 1),
            SimTime::ZERO,
            ResourceVector::cpu_mem(cores[i], mems[i] * 256),
            SimDuration::from_secs(remainings[i]),
        );
        if dc.pm(pm).can_host(&spec.resources) {
            let (vm, demand) = (spec.id, spec.resources);
            dc.apply(FleetOp::Place { vm, pm, demand }).unwrap();
            let mut vm = Vm::new(spec);
            vm.state = VmState::Running { pm };
            vm.started_at = Some(SimTime::ZERO);
            vms.insert(vm);
        }
    }
    (dc, vms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn live_pass_matches_the_dense_reference_on_multi_core_demands(
        hosts in prop::collection::vec(any::<u8>(), 1..MAX_VMS),
        cores in prop::collection::vec(1u64..=3, MAX_VMS),
        mems in prop::collection::vec(1u64..=4, MAX_VMS),
        remainings in prop::collection::vec(200u64..200_000, MAX_VMS),
        now_s in 0u64..2_000,
    ) {
        let (dc, vms) = build_fleet(&hosts, &cores, &mems, &remainings);
        prop_assume!(!vms.is_empty());
        let view = PlacementView { dc: &dc, vms: &vms, now: SimTime::from_secs(now_s) };
        let mut production = DynamicPlacement::paper_default();
        let mut reference = Spec::new(DynamicConfig::default());
        prop_assert_eq!(
            production.plan_migrations(&view),
            reference.plan_migrations(&view)
        );
    }
}
