//! A timing [`PlacementPolicy`] decorator: measures the placement layer
//! from outside, without spans inside the program.

use crate::alloc;
use dvmp_cluster::{FleetDelta, PmId, VmSpec};
use dvmp_placement::{Migration, PlacementPolicy, PlacementView};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// What the decorator saw during one run. Durations are host nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct PolicyStats {
    /// One entry per `place` call.
    pub place_ns: Vec<u64>,
    /// One entry per `plan_migrations` call.
    pub plan_ns: Vec<u64>,
    pub note_delta_ns: u64,
    pub note_delta_calls: u64,
    /// Migrations proposed over every planning pass.
    pub moves_proposed: u64,
    /// Planning passes that proposed at least one move.
    pub productive_passes: u64,
    /// Allocations made inside policy calls (zero unless the counting
    /// allocator is installed).
    pub allocs: u64,
}

impl PolicyStats {
    /// Host time spent inside the policy, in seconds.
    pub fn policy_s(&self) -> f64 {
        let ns = self.place_ns.iter().sum::<u64>() + self.plan_ns.iter().sum::<u64>();
        (ns + self.note_delta_ns) as f64 / 1e9
    }

    /// Every timed policy call: placements, planning passes and journal
    /// hand-offs.
    pub fn calls(&self) -> u64 {
        (self.place_ns.len() + self.plan_ns.len()) as u64 + self.note_delta_calls
    }
}

/// Wraps a policy, timing every call it receives. Forwards every trait
/// method, including the ones with defaults: a decorator that fell back
/// to `is_dynamic() == false` would make the simulator skip planning.
pub struct TimedPolicy {
    inner: Box<dyn PlacementPolicy>,
    stats: Rc<RefCell<PolicyStats>>,
}

impl TimedPolicy {
    /// Wraps `inner`; the returned handle reads the stats after the run.
    pub fn wrap(inner: Box<dyn PlacementPolicy>) -> (Self, Rc<RefCell<PolicyStats>>) {
        let stats = Rc::new(RefCell::new(PolicyStats::default()));
        let timed = TimedPolicy {
            inner,
            stats: Rc::clone(&stats),
        };
        (timed, stats)
    }
}

/// Runs `f`, returning its result, its host nanoseconds and the
/// allocations it made.
#[inline]
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, _) = alloc::allocated();
    let t0 = Instant::now();
    let out = f();
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let (a1, _) = alloc::allocated();
    (out, ns, a1 - a0)
}

impl PlacementPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(&mut self, view: &PlacementView<'_>, vm: &VmSpec) -> Option<PmId> {
        let (pm, ns, allocs) = measure(|| self.inner.place(view, vm));
        let mut s = self.stats.borrow_mut();
        s.place_ns.push(ns);
        s.allocs += allocs;
        pm
    }

    fn plan_migrations(&mut self, view: &PlacementView<'_>) -> Vec<Migration> {
        let (moves, ns, allocs) = measure(|| self.inner.plan_migrations(view));
        let mut s = self.stats.borrow_mut();
        s.plan_ns.push(ns);
        s.allocs += allocs;
        s.moves_proposed += moves.len() as u64;
        s.productive_passes += u64::from(!moves.is_empty());
        moves
    }

    fn is_dynamic(&self) -> bool {
        self.inner.is_dynamic()
    }

    fn note_fleet_delta(&mut self, delta: FleetDelta) {
        let ((), ns, allocs) = measure(|| self.inner.note_fleet_delta(delta));
        let mut s = self.stats.borrow_mut();
        s.note_delta_ns += ns;
        s.note_delta_calls += 1;
        s.allocs += allocs;
    }
}
