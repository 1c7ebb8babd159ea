//! Live counters and gauges.
//!
//! One process-global [`Counters`] bank of relaxed `AtomicU64`s, bumped by
//! the `note_*` helpers in the crate root (each behind the single
//! `enabled()` branch). Counters are cumulative for the process lifetime —
//! consumers that want per-run or per-interval numbers snapshot before and
//! after and take [`CounterSnapshot::delta_from`].

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counter_bank {
    ($(#[doc = $doc:literal] $name:ident,)+) => {
        /// The live atomic counter bank (see module docs).
        #[derive(Debug, Default)]
        pub struct Counters {
            $(#[doc = $doc] pub $name: AtomicU64,)+
        }

        /// A plain-data copy of every counter, taken at one instant.
        #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct CounterSnapshot {
            $(#[doc = $doc] pub $name: u64,)+
        }

        impl Counters {
            /// Relaxed-read every counter into a snapshot.
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }

            pub(crate) fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)+
            }
        }

        impl CounterSnapshot {
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
    /// Sum of columns exactly refreshed by compressed journal patches.
    compressed_patch_cols,
    /// Compressed passes whose bound scan survived to the round loop.
    compressed_round_passes,
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

/// The process-global counter bank.
pub fn counters() -> &'static Counters {
    static BANK: Counters = Counters {
        events_dispatched: AtomicU64::new(0),
        vms_placed: AtomicU64::new(0),
        vms_removed: AtomicU64::new(0),
        migrations_started: AtomicU64::new(0),
        migrations_finished: AtomicU64::new(0),
        migrations_aborted: AtomicU64::new(0),
        migrations_skipped: AtomicU64::new(0),
        vms_resized: AtomicU64::new(0),
        pm_failures: AtomicU64::new(0),
        journal_drains: AtomicU64::new(0),
        journal_full_drains: AtomicU64::new(0),
        journal_dirty_pms: AtomicU64::new(0),
        journal_dirty_vms: AtomicU64::new(0),
        plan_passes_delta: AtomicU64::new(0),
        plan_passes_fresh: AtomicU64::new(0),
        plan_passes_compressed: AtomicU64::new(0),
        compressed_patch_rows: AtomicU64::new(0),
        compressed_patch_cols: AtomicU64::new(0),
        compressed_round_passes: AtomicU64::new(0),
        spare_decisions: AtomicU64::new(0),
        spare_servers_gauge: AtomicU64::new(0),
        journal_dirty_pms_gauge: AtomicU64::new(0),
        oracle_violations: AtomicU64::new(0),
        flight_dumps: AtomicU64::new(0),
    };
    &BANK
}

/// Snapshot the global counter bank.
pub fn counters_snapshot() -> CounterSnapshot {
    counters().snapshot()
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
    }

    #[test]
    fn snapshot_reads_the_bank() {
        // Counters are process-global; only assert monotonicity so this
        // test stays robust against concurrently running tests.
        let before = counters_snapshot();
        counters().vms_placed.fetch_add(2, Ordering::Relaxed);
        let after = counters_snapshot();
        assert!(after.vms_placed >= before.vms_placed + 2);
    }
}
