//! Model-based property test: the datacenter's reservation bookkeeping
//! (place / migrate / remove / fail, plus power transitions) against a
//! flat reference model under random operation sequences.

use dvmp_cluster::datacenter::{Datacenter, FleetBuilder};
use dvmp_cluster::pm::{PmClass, PmError, PmId, PmState};
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::VmId;
use dvmp_cluster::FleetOp;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    /// Place VM (fresh id) on PM `pm % fleet`, memory `mem`.
    Place(u8, u16),
    /// Begin migration of the n-th live VM to PM `pm % fleet`.
    BeginMigration(u8, u8),
    /// Finish the n-th in-flight migration.
    FinishMigration(u8),
    /// Remove the n-th live VM.
    Remove(u8),
    /// Fail PM `pm % fleet`.
    Fail(u8),
    /// Power PM `pm % fleet` off if it is on and idle, on if it is off.
    Toggle(u8),
    /// Power the n-th PM holding reservations off (or, when the flag is
    /// set, start shutting it down): always refused.
    PowerDownHosting(u8, bool),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            4 => (any::<u8>(), 128u16..1_024).prop_map(|(p, m)| Op::Place(p, m)),
            2 => (any::<u8>(), any::<u8>()).prop_map(|(v, p)| Op::BeginMigration(v, p)),
            2 => any::<u8>().prop_map(Op::FinishMigration),
            2 => any::<u8>().prop_map(Op::Remove),
            1 => any::<u8>().prop_map(Op::Fail),
            2 => any::<u8>().prop_map(Op::Toggle),
            1 => (any::<u8>(), any::<bool>()).prop_map(|(p, s)| Op::PowerDownHosting(p, s)),
        ],
        1..120,
    )
}

fn fleet() -> Datacenter {
    FleetBuilder::new()
        .add_class(PmClass::paper_fast(), 2, 0.99)
        .add_class(PmClass::paper_slow(), 3, 0.95)
        .initially_on(true)
        .build()
}

/// Reference model: VM → (resources, hosts in current-host-first order).
type Model = HashMap<VmId, (ResourceVector, Vec<PmId>)>;

/// The utilization signal by a full fleet scan: summed occupancy over
/// summed capacity of the available PMs, per dimension.
fn scanned_utilization(dc: &Datacenter) -> Vec<f64> {
    (0..2)
        .map(|d| {
            let used: u64 = dc.available_pms().map(|pm| pm.used().get(d)).sum();
            let cap: u64 = dc.available_pms().map(|pm| pm.capacity().get(d)).sum();
            used as f64 / cap.max(1) as f64
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn datacenter_matches_reference_model(ops in arb_ops()) {
        let mut dc = fleet();
        let m = dc.len() as u32;
        let mut model: Model = HashMap::new();
        let mut next_vm = 1u32;

        for op in ops {
            match op {
                Op::Place(p, mem) => {
                    let pm = PmId(p as u32 % m);
                    let res = ResourceVector::cpu_mem(1, mem as u64);
                    let id = VmId(next_vm);
                    let fits = dc.pm(pm).can_host(&res);
                    match dc.apply(FleetOp::Place { vm: id, pm, demand: res }) {
                        Ok(_) => {
                            prop_assert!(fits, "place must only succeed when can_host");
                            model.insert(id, (res, vec![pm]));
                            next_vm += 1;
                        }
                        Err(_) => prop_assert!(!fits, "place must succeed when can_host"),
                    }
                }
                Op::BeginMigration(v, p) => {
                    let singles: Vec<VmId> = model
                        .iter()
                        .filter(|(_, (_, hosts))| hosts.len() == 1)
                        .map(|(&id, _)| id)
                        .collect();
                    if singles.is_empty() { continue; }
                    let mut sorted = singles;
                    sorted.sort();
                    let id = sorted[v as usize % sorted.len()];
                    let (res, hosts) = model[&id].clone();
                    let to = PmId(p as u32 % m);
                    if to == hosts[0] { continue; }
                    let fits = dc.pm(to).can_host(&res);
                    match dc.apply(FleetOp::BeginMigration { vm: id, to, demand: res }) {
                        Ok(_) => {
                            prop_assert!(fits);
                            model.get_mut(&id).unwrap().1.insert(0, to);
                        }
                        Err(_) => prop_assert!(!fits),
                    }
                }
                Op::FinishMigration(v) => {
                    let doubles: Vec<VmId> = model
                        .iter()
                        .filter(|(_, (_, hosts))| hosts.len() == 2)
                        .map(|(&id, _)| id)
                        .collect();
                    if doubles.is_empty() { continue; }
                    let mut sorted = doubles;
                    sorted.sort();
                    let id = sorted[v as usize % sorted.len()];
                    let from = model[&id].1[1];
                    dc.apply(FleetOp::FinishMigration { vm: id, from }).unwrap();
                    model.get_mut(&id).unwrap().1.retain(|&h| h != from);
                }
                Op::Remove(v) => {
                    if model.is_empty() { continue; }
                    let mut ids: Vec<VmId> = model.keys().copied().collect();
                    ids.sort();
                    let id = ids[v as usize % ids.len()];
                    prop_assert_eq!(dc.apply(FleetOp::Remove { vm: id }), Ok(vec![]));
                    model.remove(&id);
                }
                Op::Fail(p) => {
                    let pm = PmId(p as u32 % m);
                    let evicted = dc.apply(FleetOp::Fail { pm }).unwrap();
                    let mut hosted: Vec<VmId> = model
                        .iter()
                        .filter(|(_, (_, hosts))| hosts.contains(&pm))
                        .map(|(&id, _)| id)
                        .collect();
                    hosted.sort();
                    prop_assert_eq!(evicted, hosted);
                    // Model: drop this PM from every VM's host list; VMs
                    // with no hosts left disappear.
                    model.retain(|_, (_, hosts)| {
                        hosts.retain(|&h| h != pm);
                        !hosts.is_empty()
                    });
                }
                Op::Toggle(p) => {
                    let id = PmId(p as u32 % m);
                    let pm = dc.pm(id);
                    let next = match pm.state {
                        PmState::On if pm.is_idle() => PmState::Off,
                        PmState::Off => PmState::On,
                        _ => continue,
                    };
                    dc.apply(FleetOp::Power { pm: id, state: next }).unwrap();
                }
                Op::PowerDownHosting(p, shutting_down) => {
                    let hosting: Vec<PmId> =
                        dc.pms().iter().filter(|pm| !pm.is_idle()).map(|pm| pm.id).collect();
                    if hosting.is_empty() { continue; }
                    let pm = hosting[p as usize % hosting.len()];
                    let state = if shutting_down {
                        PmState::ShuttingDown { off_at: dvmp_simcore::SimTime::from_secs(60) }
                    } else {
                        PmState::Off
                    };
                    let digest = dc.state_digest();
                    prop_assert_eq!(
                        dc.apply(FleetOp::Power { pm, state }),
                        Err(PmError::PowerRefused(state))
                    );
                    prop_assert_eq!(dc.state_digest(), digest, "a refused op changes nothing");
                }
            }

            // Global agreement after every operation.
            dc.assert_consistent();
            prop_assert_eq!(
                dc.available_utilization_per_dim().collect::<Vec<_>>(),
                scanned_utilization(&dc)
            );
            prop_assert_eq!(dc.active_vm_count(), model.len());
            for (&id, (_, hosts)) in &model {
                prop_assert_eq!(dc.hosts_of(id), hosts.as_slice(), "hosts of {}", id);
                prop_assert_eq!(dc.host_of(id), Some(hosts[0]));
            }
            // Per-PM used = sum of modeled reservations.
            for pm in dc.pms() {
                let mut sum = ResourceVector::zero(2);
                for (res, hosts) in model.values() {
                    if hosts.contains(&pm.id) {
                        sum = sum.add(res);
                    }
                }
                prop_assert_eq!(pm.used(), &sum, "occupancy of {}", pm.id);
            }
        }
    }
}
