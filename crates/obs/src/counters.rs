//! Live counters and gauges.
//!
//! One plain-data [`CounterSnapshot`] bank per thread, bumped by the
//! `note_*` helpers in the crate root (each behind the single `enabled()`
//! branch). Counters are cumulative for the thread's lifetime — consumers
//! that want per-run or per-interval numbers snapshot before and after
//! and take [`CounterSnapshot::delta_from`].

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt::Write as _;

macro_rules! counter_bank {
    ($(#[doc = $doc:literal] $name:ident,)+) => {
        /// A plain-data copy of every counter, taken at one instant.
        #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct CounterSnapshot {
            $(#[doc = $doc] pub $name: u64,)+
        }

        impl CounterSnapshot {
            /// Every counter at 0.
            pub const ZERO: CounterSnapshot = CounterSnapshot { $($name: 0,)+ };

            /// Counter movement since `earlier` (saturating, so snapshots
            /// taken across a [`crate::reset`] never underflow).
            pub fn delta_from(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
                CounterSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)+
                }
            }

            /// Field names and values, in declaration order.
            pub fn entries(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }

            /// Counter values in declaration order, allocation-free —
            /// for per-control-interval sampling, where `entries()`'s
            /// heap vector would be pure overhead.
            pub fn values(&self) -> impl Iterator<Item = u64> {
                [$(self.$name,)+].into_iter()
            }
        }
    };
}

counter_bank! {
    /// Events popped by the scheduler.
    events_dispatched,
    /// VMs placed onto a PM (initial placement or failure re-placement).
    vms_placed,
    /// VMs removed at departure.
    vms_removed,
    /// Live migrations begun (double-reservation opened).
    migrations_started,
    /// Live migrations committed.
    migrations_finished,
    /// Planned migrations aborted by a PM failure mid-flight.
    migrations_aborted,
    /// Planned migrations dropped by the pre-apply validity check.
    migrations_skipped,
    /// VM reservations resized in place (vertical elasticity).
    vms_resized,
    /// PM failure events injected.
    pm_failures,
    /// Fleet-delta journal drains handed to the planner.
    journal_drains,
    /// Journal drains that had overflowed to "full" (forced rebuild).
    journal_full_drains,
    /// Sum of dirty-PM set sizes over non-full journal drains.
    journal_dirty_pms,
    /// Sum of dirty-VM set sizes over non-full journal drains.
    journal_dirty_vms,
    /// Dense passes that patched a kept matrix (always 0: no library planner builds one).
    plan_passes_delta,
    /// Dense passes that built the full matrix (always 0: no library planner builds one).
    plan_passes_fresh,
    /// Planning passes served by the class-compressed kernel.
    plan_passes_compressed,
    /// Sum of rows re-synced by compressed journal patches.
    compressed_patch_rows,
    /// Sum of columns exactly refreshed (one exact best score each) by compressed journal patches.
    compressed_patch_cols,
    /// Compressed passes whose round loop moved at least one VM.
    compressed_round_passes,
    /// Columns visited by compressed round loops, summed over rounds.
    compressed_round_visits,
    /// Exact best-score computations made by compressed round loops.
    compressed_round_evals,
    /// Spare-server controller decisions taken.
    spare_decisions,
    /// Gauge: most recent spare-server target.
    spare_servers_gauge,
    /// Gauge: dirty-PM size of the most recent journal drain.
    journal_dirty_pms_gauge,
    /// Checked-mode oracle violations observed.
    oracle_violations,
    /// Flight-recorder dumps captured.
    flight_dumps,
}

thread_local! {
    static BANK: RefCell<CounterSnapshot> = const { RefCell::new(CounterSnapshot::ZERO) };
}

/// Apply `f` to the calling thread's counter bank.
pub(crate) fn bump(f: impl FnOnce(&mut CounterSnapshot)) {
    BANK.with(|bank| f(&mut bank.borrow_mut()));
}

/// Snapshot the calling thread's counter bank.
pub fn counters_snapshot() -> CounterSnapshot {
    BANK.with(|bank| bank.borrow().clone())
}

pub(crate) fn reset() {
    bump(|c| *c = CounterSnapshot::ZERO);
}

impl CounterSnapshot {
    /// Aligned `name  value` table, omitting zero counters.
    pub fn render(&self) -> String {
        let mut out = String::from("obs counters:\n");
        let entries = self.entries();
        let width = entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut any = false;
        for (name, value) in entries {
            if value != 0 {
                any = true;
                let _ = writeln!(out, "  {name:width$}  {value}");
            }
        }
        if !any {
            out.push_str("  (all zero)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_render() {
        let mut a = CounterSnapshot::default();
        a.events_dispatched = 10;
        a.vms_placed = 3;
        let mut b = a.clone();
        b.events_dispatched = 25;
        let d = b.delta_from(&a);
        assert_eq!(d.events_dispatched, 15);
        assert_eq!(d.vms_placed, 0);
        let text = b.render();
        assert!(text.contains("events_dispatched"), "{text}");
        assert!(text.contains("25"), "{text}");
        assert!(CounterSnapshot::default().render().contains("all zero"));
        assert_eq!(CounterSnapshot::ZERO, CounterSnapshot::default());
    }

    #[test]
    fn snapshot_reads_the_bank() {
        let before = counters_snapshot();
        bump(|c| c.vms_placed += 2);
        let after = counters_snapshot();
        assert_eq!(after.vms_placed, before.vms_placed + 2);
    }
}
