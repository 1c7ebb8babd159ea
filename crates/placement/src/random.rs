//! Random-fit baseline: place each request on a uniformly random feasible
//! PM. A sanity floor for the comparisons — any serious policy must beat
//! it — and a stress generator for the simulator's invariants.

use crate::policy::{PlacementPolicy, PlacementView};
use dvmp_cluster::pm::PmId;
use dvmp_cluster::vm::VmSpec;
use dvmp_simcore::rng::{stream_rng, Stream};
use rand::rngs::StdRng;
use rand::Rng;

/// The random-placement baseline. Deterministic per scenario seed.
#[derive(Debug)]
pub struct RandomFit {
    rng: StdRng,
}

impl RandomFit {
    /// Creates the baseline from a scenario seed.
    pub fn new(seed: u64) -> Self {
        RandomFit {
            rng: stream_rng(seed, Stream::RandomPolicy),
        }
    }
}

impl PlacementPolicy for RandomFit {
    fn name(&self) -> &'static str {
        "random"
    }

    fn place(&mut self, view: &PlacementView<'_>, vm: &VmSpec) -> Option<PmId> {
        let feasible: Vec<PmId> = view
            .dc
            .pms()
            .iter()
            .filter(|pm| pm.can_host(&vm.resources))
            .map(|pm| pm.id)
            .collect();
        if feasible.is_empty() {
            None
        } else {
            Some(feasible[self.rng.gen_range(0..feasible.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::*;
    use dvmp_cluster::VmTable;
    use dvmp_simcore::SimTime;

    #[test]
    fn only_feasible_pms_are_chosen() {
        let mut dc = small_fleet();
        let mut vms = VmTable::new();
        // Leave room only on pm3.
        for pm in [0u32, 1, 2] {
            let cap = dc.pm(PmId(pm)).capacity().get(0);
            for i in 0..cap {
                install(
                    &mut dc,
                    &mut vms,
                    spec(pm * 100 + i as u32 + 1, 256, 1_000),
                    PmId(pm),
                    SimTime::ZERO,
                );
            }
        }
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut rf = RandomFit::new(1);
        for _ in 0..20 {
            assert_eq!(rf.place(&view, &spec(999, 256, 100)), Some(PmId(3)));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let dc = small_fleet();
        let vms = VmTable::new();
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut a = RandomFit::new(7);
        let mut b = RandomFit::new(7);
        for i in 0..32 {
            assert_eq!(
                a.place(&view, &spec(i, 512, 100)),
                b.place(&view, &spec(i, 512, 100))
            );
        }
    }

    #[test]
    fn covers_multiple_pms_over_time() {
        let dc = small_fleet();
        let vms = VmTable::new();
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut rf = RandomFit::new(3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            seen.insert(rf.place(&view, &spec(i, 512, 100)).unwrap());
        }
        assert!(seen.len() >= 3, "uniform choice should touch most PMs");
    }

    #[test]
    fn full_fleet_returns_none() {
        let mut dc = small_fleet();
        for id in 0..4u32 {
            power(&mut dc, PmId(id), dvmp_cluster::pm::PmState::Off);
        }
        let vms = VmTable::new();
        let view = PlacementView {
            dc: &dc,
            vms: &vms,
            now: SimTime::ZERO,
        };
        let mut rf = RandomFit::new(1);
        assert_eq!(rf.place(&view, &spec(1, 512, 100)), None);
    }
}
