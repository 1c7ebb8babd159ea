//! The enum-coded, allocation-free trace record.
//!
//! A [`Record`] is what the flight recorder stores: plain data — no
//! strings, no heap. Event kinds and phases are `u8` discriminants.

use std::fmt;

/// What happened. One discriminant per instrumented site in the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RecordKind {
    /// Scheduler popped an event (`a` = events still pending).
    EventDispatched = 0,
    /// Fleet mutation: VM placed (`a` = vm id, `b` = pm id).
    VmPlaced = 1,
    /// Fleet mutation: VM removed (`a` = vm id, `b` = host count).
    VmRemoved = 2,
    /// Fleet mutation: migration reservation opened (`a` = vm, `b` = target pm).
    MigrationStarted = 3,
    /// Fleet mutation: migration committed (`a` = vm, `b` = source pm).
    MigrationFinished = 4,
    /// Planned migration dropped before starting (stale or failed source).
    MigrationAborted = 5,
    /// Planned migration skipped by the simulator's validity check.
    MigrationSkipped = 6,
    /// Fleet mutation: PM failed (`a` = pm id, `b` = displaced VM count).
    PmFailed = 7,
    /// Fleet-delta journal drained (`a` = dirty PMs, `b` = dirty VMs;
    /// both `u64::MAX` when the journal had overflowed to "full").
    JournalDrained = 8,
    /// Spare-server controller decision (`a` = forecast arrivals, `b` = spare target).
    SpareDecision = 10,
    /// Checked-mode oracle flagged a violation (`a` = event seq, `b` = count).
    OracleViolation = 11,
    /// Planning pass served by the class-compressed kernel
    /// (`a` = rows, `b` = columns in play).
    PlanKernelCompressed = 12,
    /// Free-form marker (tests, ad-hoc probes).
    Mark = 13,
    /// Fleet mutation: VM reservation resized in place (`a` = vm id,
    /// `b` = host pm id) — vertical elasticity.
    VmResized = 14,
    /// Fleet mutation: PM power state set (`a` = pm id, `b` = the new
    /// state: 0 off, 1 booting, 2 on, 3 shutting down).
    PmPower = 15,
}

impl RecordKind {
    /// Stable lowercase name used in dumps and chrome traces.
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::EventDispatched => "event-dispatched",
            RecordKind::VmPlaced => "vm-placed",
            RecordKind::VmRemoved => "vm-removed",
            RecordKind::MigrationStarted => "migration-started",
            RecordKind::MigrationFinished => "migration-finished",
            RecordKind::MigrationAborted => "migration-aborted",
            RecordKind::MigrationSkipped => "migration-skipped",
            RecordKind::PmFailed => "pm-failed",
            RecordKind::JournalDrained => "journal-drained",
            RecordKind::SpareDecision => "spare-decision",
            RecordKind::OracleViolation => "oracle-violation",
            RecordKind::PlanKernelCompressed => "plan-kernel-compressed",
            RecordKind::Mark => "mark",
            RecordKind::VmResized => "vm-resized",
            RecordKind::PmPower => "pm-power",
        }
    }
}

impl fmt::Display for RecordKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The profiled phase a record was emitted under (the innermost open
/// [`crate::span_guard`] on the emitting thread; `None` outside any span).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    None = 0,
    EventDispatch = 1,
    PlanApply = 2,
    OracleAudit = 3,
    SpareControl = 4,
    CompressedPlan = 5,
}

/// Number of distinct [`Phase`] discriminants (histogram slot count).
pub const PHASE_COUNT: usize = 6;

impl Phase {
    /// Every timed phase, in discriminant order (excludes `None`).
    pub const TIMED: [Phase; 5] = [
        Phase::EventDispatch,
        Phase::PlanApply,
        Phase::OracleAudit,
        Phase::SpareControl,
        Phase::CompressedPlan,
    ];

    pub(crate) fn from_u8(v: u8) -> Phase {
        match v {
            1 => Phase::EventDispatch,
            2 => Phase::PlanApply,
            3 => Phase::OracleAudit,
            4 => Phase::SpareControl,
            5 => Phase::CompressedPlan,
            _ => Phase::None,
        }
    }

    /// Stable lowercase name used in dumps, profiles and chrome traces.
    pub fn name(self) -> &'static str {
        match self {
            Phase::None => "none",
            Phase::EventDispatch => "event-dispatch",
            Phase::PlanApply => "plan-apply",
            Phase::OracleAudit => "oracle-audit",
            Phase::SpareControl => "spare-control",
            Phase::CompressedPlan => "compressed-plan",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One decoded flight-recorder record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// 1-based emission count on the recording thread.
    pub stamp: u64,
    /// Simulation time, in whole seconds, of the event being dispatched
    /// when the record was emitted.
    pub time_s: u64,
    /// 1-based engine event ordinal current at emission (0 before the
    /// first dispatch).
    pub ordinal: u64,
    pub kind: RecordKind,
    pub phase: Phase,
    /// Kind-specific payload (see [`RecordKind`] variant docs).
    pub a: u64,
    pub b: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_roundtrips_through_u8() {
        for v in 0..PHASE_COUNT as u8 {
            let p = Phase::from_u8(v);
            assert_eq!(p as u8, v, "{p}");
        }
        assert_eq!(Phase::TIMED.len(), PHASE_COUNT - 1);
    }
}
