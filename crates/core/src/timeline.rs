//! Simulation timelines: an opt-in, machine-readable record of every
//! milestone a run passes through.
//!
//! Reports aggregate; timelines *narrate*. They are what you reach for
//! when a number in a report looks wrong — why did this VM queue? which
//! machine kept flapping? — and what the lifecycle tests assert ordering
//! against. Collection is off by default (a week-long run produces
//! hundreds of thousands of entries) and enabled per run via
//! [`Simulation::run_with_timeline`](crate::Simulation::run_with_timeline).

use dvmp_cluster::pm::PmId;
use dvmp_cluster::vm::VmId;
use dvmp_simcore::SimTime;
use serde::Serialize;

/// One milestone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Milestone {
    /// A request entered the system.
    Arrived(VmId),
    /// A request was admitted onto a PM (creation begins).
    Placed {
        /// The request.
        vm: VmId,
        /// Its host.
        pm: PmId,
    },
    /// A request could not be placed and joined the queue.
    Queued(VmId),
    /// Creation finished; the VM is executing.
    Started(VmId),
    /// The VM completed and released its resources.
    Departed(VmId),
    /// A live migration began (pre-copy; both reservations held).
    MigrationStarted {
        /// The VM.
        vm: VmId,
        /// Source PM.
        from: PmId,
        /// Destination PM.
        to: PmId,
    },
    /// The migration completed; the source was released.
    MigrationFinished(VmId),
    /// A machine began booting.
    BootStarted(PmId),
    /// A machine came up.
    BootFinished(PmId),
    /// A machine began shutting down.
    ShutdownStarted(PmId),
    /// A machine powered off.
    ShutdownFinished(PmId),
    /// A machine failed (its VMs were evicted).
    PmFailed(PmId),
    /// A failed machine returned (powered off).
    PmRepaired(PmId),
    /// The VM's reservation was resized in place (vertical elasticity).
    Resized(VmId),
    /// A control-period decision fixed the spare-server target.
    SpareTarget(u64),
}

/// An ordered milestone log.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Timeline {
    entries: Vec<(SimTime, Milestone)>,
}

impl Timeline {
    /// Empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Appends a milestone (times must be non-decreasing; the simulator's
    /// clock guarantees it).
    pub fn push(&mut self, at: SimTime, m: Milestone) {
        debug_assert!(self.entries.last().map_or(true, |&(t, _)| t <= at));
        self.entries.push((at, m));
    }

    /// All entries in time order.
    pub fn entries(&self) -> &[(SimTime, Milestone)] {
        &self.entries
    }

    /// Number of milestones.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The milestones concerning one VM, in order.
    pub fn of_vm(&self, vm: VmId) -> Vec<(SimTime, Milestone)> {
        self.entries
            .iter()
            .filter(|(_, m)| match *m {
                Milestone::Arrived(v)
                | Milestone::Queued(v)
                | Milestone::Started(v)
                | Milestone::Departed(v)
                | Milestone::MigrationFinished(v)
                | Milestone::Resized(v) => v == vm,
                Milestone::Placed { vm: v, .. } | Milestone::MigrationStarted { vm: v, .. } => {
                    v == vm
                }
                _ => false,
            })
            .copied()
            .collect()
    }

    /// Renders the log as `t | milestone` lines (debugging aid).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (t, m) in &self.entries {
            let _ = writeln!(out, "{t} | {m:?}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_filter() {
        let mut tl = Timeline::new();
        tl.push(SimTime::from_secs(1), Milestone::Arrived(VmId(1)));
        tl.push(
            SimTime::from_secs(1),
            Milestone::Placed {
                vm: VmId(1),
                pm: PmId(3),
            },
        );
        tl.push(SimTime::from_secs(2), Milestone::Arrived(VmId(2)));
        tl.push(SimTime::from_secs(31), Milestone::Started(VmId(1)));
        tl.push(SimTime::from_secs(40), Milestone::BootStarted(PmId(5)));

        assert_eq!(tl.len(), 5);
        let vm1 = tl.of_vm(VmId(1));
        assert_eq!(vm1.len(), 3);
        assert!(matches!(vm1[0].1, Milestone::Arrived(_)));
        assert!(matches!(vm1[2].1, Milestone::Started(_)));
    }

    #[test]
    fn render_is_line_per_entry() {
        let mut tl = Timeline::new();
        tl.push(SimTime::from_secs(0), Milestone::SpareTarget(4));
        tl.push(SimTime::from_secs(60), Milestone::Arrived(VmId(1)));
        let text = tl.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("SpareTarget(4)"));
    }
}
