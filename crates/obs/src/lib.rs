//! # dvmp-obs — flight-recorder observability for the dvmp stack
//!
//! A structured tracing facade, flight-recorder ring, phase profiler and
//! live counter bank, shared by every crate in the workspace. Nothing
//! here ever influences simulation results: the instrumented crates only
//! *report* through this crate, and the whole layer is
//! zero-cost-when-disabled — every instrumentation site reduces to one
//! thread-local load and a predictable branch (see DESIGN.md §10 for the
//! cost model).
//!
//! Three independent switches, all off by default:
//!
//! | switch | gates | enabled by |
//! |---|---|---|
//! | [`set_enabled`] | records + counters | `--obs-summary`, checked mode |
//! | [`set_profiling`] | phase span timers | `--obs-summary`, `perf_report` |
//! | [`set_span_capture`] | chrome-trace span log (implies profiling) | `--trace-out` |
//!
//! Emit with the [`event!`] and [`span!`] macros (or the typed `note_*`
//! helpers the workspace crates use), drain with [`drain_records`], and
//! capture a [`FlightDump`] on failure with [`capture_flight_dump`].
//!
//! All state is per thread, held as plain data in thread-locals: a
//! simulation runs on one thread, and the switches, gauges, counters,
//! histograms, span log and ring it reads and writes are that thread's
//! alone. The simulator core stays signature-stable (no context threaded
//! through `World::handle`), and two simulations on two threads never
//! see each other's switches or counts. Counters are cumulative across
//! runs on one thread — consumers wanting per-run numbers diff
//! [`CounterSnapshot`]s.

mod counters;
mod dump;
mod profile;
mod record;
mod ring;
mod timeseries;

pub use counters::{counters_snapshot, CounterSnapshot};
pub use dump::{capture_flight_dump, DumpHeader, DumpRecord, FlightDump};
pub use profile::{
    chrome_trace_json, phase_histograms, profile_report, span_guard, PhaseHistogram, PhaseProfile,
    ProfileReport, SpanGuard, PROFILE_BUCKETS,
};
pub use record::{Phase, Record, RecordKind, PHASE_COUNT};
pub use ring::{
    drain_records, records_emitted, ring_capacity, set_ring_capacity, DEFAULT_RING_CAPACITY,
};
pub use timeseries::{
    add_sampling_ns, lint_openmetrics, log2_bucket_quantile, sampling_ns, scrape_global,
    OpenMetricsEncoder, TierSeries, TimeSeriesReport, TimeSeriesStore, CONSOLIDATION,
    DEFAULT_TIER_CAPACITY, LATENCY_QUANTILES,
};

use std::cell::Cell;

thread_local! {
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    static PROFILING: Cell<bool> = const { Cell::new(false) };
    static SPAN_CAPTURE: Cell<bool> = const { Cell::new(false) };
    /// Gauges mirrored from the engine at every dispatch so records
    /// emitted anywhere in the stack carry the simulation's current
    /// position.
    static SIM_TIME_S: Cell<u64> = const { Cell::new(0) };
    static EVENT_ORDINAL: Cell<u64> = const { Cell::new(0) };
}

/// Is record/counter emission on for this thread? The single branch
/// every disabled-path instrumentation site pays.
#[inline(always)]
pub fn enabled() -> bool {
    RECORDING.with(Cell::get)
}

/// Is the phase profiler on for this thread?
#[inline(always)]
pub fn profiling_enabled() -> bool {
    PROFILING.with(Cell::get)
}

/// Is full span capture (chrome trace) on for this thread?
#[inline(always)]
pub fn span_capture_enabled() -> bool {
    SPAN_CAPTURE.with(Cell::get)
}

/// Turn record + counter emission on or off for this thread (sticky).
pub fn set_enabled(on: bool) {
    RECORDING.with(|c| c.set(on));
}

/// Turn this thread's phase profiler on or off.
pub fn set_profiling(on: bool) {
    PROFILING.with(|c| c.set(on));
}

/// Turn this thread's chrome-trace span capture on or off. Enabling
/// implies profiling (spans must be timed to be captured); disabling
/// leaves profiling as-is.
pub fn set_span_capture(on: bool) {
    if on {
        set_profiling(true);
    }
    SPAN_CAPTURE.with(|c| c.set(on));
}

/// Current simulation time gauge (whole seconds).
#[inline]
pub fn sim_time_s() -> u64 {
    SIM_TIME_S.with(Cell::get)
}

/// Current engine event ordinal gauge (1-based; 0 before the first event).
#[inline]
pub fn event_ordinal() -> u64 {
    EVENT_ORDINAL.with(Cell::get)
}

/// Clear this thread's counters, ring contents, histograms, captured
/// spans and gauges. The ring's emission count keeps counting (stamps
/// stay monotone). A test/bench affordance.
pub fn reset() {
    counters::reset();
    ring::reset();
    profile::reset();
    SIM_TIME_S.with(|c| c.set(0));
    EVENT_ORDINAL.with(|c| c.set(0));
}

/// Write one record carrying the current gauges and thread phase. Callers
/// are expected to have checked [`enabled`] (the macros and `note_*`
/// helpers do); calling it unconditionally is allowed, just not free.
#[inline]
pub fn emit(kind: RecordKind, a: u64, b: u64) {
    ring::emit(
        kind,
        profile::current_phase(),
        sim_time_s(),
        event_ordinal(),
        a,
        b,
    );
}

/// Emit a structured trace record if recording is enabled.
///
/// ```
/// dvmp_obs::event!(dvmp_obs::RecordKind::Mark, 7u64, 9u64);
/// ```
#[macro_export]
macro_rules! event {
    ($kind:expr) => {
        $crate::event!($kind, 0u64, 0u64)
    };
    ($kind:expr, $a:expr) => {
        $crate::event!($kind, $a, 0u64)
    };
    ($kind:expr, $a:expr, $b:expr) => {
        if $crate::enabled() {
            $crate::emit($kind, $a as u64, $b as u64);
        }
    };
}

/// Open a phase span, timed until the returned guard drops. Binds to a
/// named local — `let _span = span!(...)` — because `let _ =` would drop
/// immediately.
///
/// ```
/// let _span = dvmp_obs::span!(dvmp_obs::Phase::CompressedPlan);
/// ```
#[macro_export]
macro_rules! span {
    ($phase:expr) => {
        $crate::span_guard($phase)
    };
}

// ---------------------------------------------------------------------------
// Typed wire points. Each is the one-line instrumentation call a workspace
// crate makes; each pays exactly one `enabled()` branch when off.
// ---------------------------------------------------------------------------

/// Engine hook at every event dispatch: refresh the (time, ordinal)
/// gauges, count, and lay down the dispatch record (`pending` = events
/// still queued).
#[inline]
pub fn note_dispatch(time_s: u64, ordinal: u64, pending: u64) {
    if !enabled() {
        return;
    }
    SIM_TIME_S.with(|c| c.set(time_s));
    EVENT_ORDINAL.with(|c| c.set(ordinal));
    counters::bump(|c| c.events_dispatched += 1);
    emit(RecordKind::EventDispatched, pending, 0);
}

/// Fleet mutation applied by the datacenter: counts it and records it.
/// `kind` is one of the six fleet kinds (`VmPlaced`, `VmRemoved`,
/// `MigrationStarted`, `MigrationFinished`, `VmResized`, `PmFailed`);
/// `a`/`b` carry the payload its [`RecordKind`] variant documents.
///
/// # Panics
/// Panics, while recording is on, if `kind` is not a fleet kind.
#[inline]
pub fn note_fleet(kind: RecordKind, a: u64, b: u64) {
    if enabled() {
        counters::bump(|c| {
            *match kind {
                RecordKind::VmPlaced => &mut c.vms_placed,
                RecordKind::VmRemoved => &mut c.vms_removed,
                RecordKind::MigrationStarted => &mut c.migrations_started,
                RecordKind::MigrationFinished => &mut c.migrations_finished,
                RecordKind::VmResized => &mut c.vms_resized,
                RecordKind::PmFailed => &mut c.pm_failures,
                other => panic!("{other} is not a fleet mutation"),
            } += 1;
        });
        emit(kind, a, b);
    }
}

/// Planned migration aborted by a PM failure while in flight.
#[inline]
pub fn note_migration_aborted(vm: u64) {
    if enabled() {
        counters::bump(|c| c.migrations_aborted += 1);
        emit(RecordKind::MigrationAborted, vm, 0);
    }
}

/// Planned migration dropped by the pre-apply validity check.
#[inline]
pub fn note_migration_skipped(vm: u64) {
    if enabled() {
        counters::bump(|c| c.migrations_skipped += 1);
        emit(RecordKind::MigrationSkipped, vm, 0);
    }
}

/// Fleet-delta journal drained and handed to the planner. `None` means
/// the journal had overflowed to "full" (planner must rebuild).
#[inline]
pub fn note_journal_drained(dirty: Option<(u64, u64)>) {
    if !enabled() {
        return;
    }
    counters::bump(|c| {
        c.journal_drains += 1;
        match dirty {
            Some((pms, vms)) => {
                c.journal_dirty_pms += pms;
                c.journal_dirty_vms += vms;
                c.journal_dirty_pms_gauge = pms;
            }
            None => c.journal_full_drains += 1,
        }
    });
    let (a, b) = dirty.unwrap_or((u64::MAX, u64::MAX));
    emit(RecordKind::JournalDrained, a, b);
}

/// Planning pass kernel choice: the class-compressed planner served the
/// whole pass (`rows`×`cols` in play, never materialized densely).
#[inline]
pub fn note_plan_kernel_compressed(rows: u64, cols: u64) {
    if enabled() {
        counters::bump(|c| c.plan_passes_compressed += 1);
        emit(RecordKind::PlanKernelCompressed, rows, cols);
    }
}

/// Compressed journal patch applied: `rows` re-synced, `cols` exactly
/// refreshed.
#[inline]
pub fn note_compressed_patch(rows: u64, cols: u64) {
    if enabled() {
        counters::bump(|c| {
            c.compressed_patch_rows += rows;
            c.compressed_patch_cols += cols;
        });
    }
}

/// A compressed pass ran Algorithm 1's round loop: whether it moved at
/// least one VM, the columns its rounds visited and the exact best scores
/// they computed (the planner counts both in pass-local integers).
#[inline]
pub fn note_compressed_rounds(moved: bool, visits: u64, evals: u64) {
    if enabled() {
        counters::bump(|c| {
            c.compressed_round_passes += u64::from(moved);
            c.compressed_round_visits += visits;
            c.compressed_round_evals += evals;
        });
    }
}

/// Spare-server controller decision.
#[inline]
pub fn note_spare_decision(n_arrival: u64, spare: u64) {
    if enabled() {
        counters::bump(|c| {
            c.spare_decisions += 1;
            c.spare_servers_gauge = spare;
        });
        emit(RecordKind::SpareDecision, n_arrival, spare);
    }
}

/// Checked-mode oracle flagged `count` violations at event `seq`.
#[inline]
pub fn note_oracle_violation(seq: u64, count: u64) {
    if enabled() {
        counters::bump(|c| c.oracle_violations += count);
        emit(RecordKind::OracleViolation, seq, count);
    }
}

// ---------------------------------------------------------------------------
// Run metadata: self-describing report stamps (seed and schema come from
// the callers; git sha and host threads are process facts cached here).
// ---------------------------------------------------------------------------

/// Short git commit sha of the working tree, for stamping reports and
/// bench-history entries. Resolution order: `DVMP_GIT_SHA` env override,
/// then `git rev-parse --short=12 HEAD`, else `"unknown"` (e.g. a tarball
/// build). Cached for the process lifetime.
pub fn git_sha() -> &'static str {
    static SHA: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    SHA.get_or_init(|| {
        if let Ok(sha) = std::env::var("DVMP_GIT_SHA") {
            let sha = sha.trim().to_string();
            if !sha.is_empty() {
                return sha;
            }
        }
        std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

/// Available host hardware threads (1 if undetectable).
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit_marks(n: u64, marker: u64) {
        for i in 0..n {
            event!(RecordKind::Mark, marker, i);
        }
    }

    #[test]
    fn disabled_emission_is_dropped() {
        assert!(!enabled(), "recording starts off");
        emit_marks(10, 0xD15A);
        assert!(
            drain_records().is_empty(),
            "disabled event! must not write the ring"
        );
        assert_eq!(records_emitted(), 0);
    }

    #[test]
    fn wrap_around_overwrites_oldest_first() {
        set_enabled(true);
        set_ring_capacity(64);
        emit_marks(100, 0xCAFE);
        set_enabled(false);

        let records = drain_records();
        assert_eq!(records.len(), 64, "ring retains exactly its capacity");
        assert_eq!(records_emitted(), 100);
        // The 36 oldest records (b = 0..36) were overwritten; survivors are
        // the last 64 in emission order.
        let bs: Vec<u64> = records.iter().map(|r| r.b).collect();
        assert_eq!(
            bs,
            (36..100).collect::<Vec<u64>>(),
            "oldest-first overwrite"
        );
        let stamps: Vec<u64> = records.iter().map(|r| r.stamp).collect();
        assert_eq!(
            stamps,
            (37..=100).collect::<Vec<u64>>(),
            "stamps count emissions"
        );
        assert!(records
            .iter()
            .all(|r| r.kind == RecordKind::Mark && r.a == 0xCAFE));

        // Shrinking keeps the newest records, in order.
        set_ring_capacity(16);
        let bs: Vec<u64> = drain_records().iter().map(|r| r.b).collect();
        assert_eq!(bs, (84..100).collect::<Vec<u64>>());
    }

    #[test]
    fn records_carry_gauges_and_phase() {
        set_enabled(true);
        set_profiling(true);
        note_dispatch(1234, 56, 7);
        {
            let _span = span!(Phase::PlanApply);
            event!(RecordKind::Mark, 1u64);
        }
        set_profiling(false);
        set_enabled(false);

        let records = drain_records();
        assert_eq!(records.len(), 2, "{records:?}");
        let last = records[1];
        assert_eq!(last.kind, RecordKind::Mark);
        assert_eq!(
            (last.time_s, last.ordinal),
            (1234, 56),
            "gauges from note_dispatch"
        );
        assert_eq!(last.phase, Phase::PlanApply, "innermost span phase");
        assert_eq!(counters_snapshot().events_dispatched, 1);
        let profile = profile_report();
        assert!(
            profile
                .phases
                .iter()
                .any(|p| p.phase == "plan-apply" && p.count == 1),
            "{profile:?}"
        );
    }

    #[test]
    fn each_fleet_record_bumps_its_own_counter() {
        type Count = fn(&CounterSnapshot) -> u64;
        let kinds: [(RecordKind, Count); 6] = [
            (RecordKind::VmPlaced, |c| c.vms_placed),
            (RecordKind::VmRemoved, |c| c.vms_removed),
            (RecordKind::MigrationStarted, |c| c.migrations_started),
            (RecordKind::MigrationFinished, |c| c.migrations_finished),
            (RecordKind::VmResized, |c| c.vms_resized),
            (RecordKind::PmFailed, |c| c.pm_failures),
        ];
        set_enabled(true);
        for (n, &(kind, _)) in kinds.iter().enumerate() {
            for _ in 0..=n {
                note_fleet(kind, n as u64, 7);
            }
        }
        set_enabled(false);
        let counters = counters_snapshot();
        for (n, (kind, count)) in kinds.iter().enumerate() {
            assert_eq!(count(&counters), n as u64 + 1, "{kind}");
        }
        let records = drain_records();
        assert_eq!(records.len(), 21);
        assert!(records
            .iter()
            .all(|r| r.kind == kinds[r.a as usize].0 && r.b == 7));
    }

    #[test]
    fn flight_dump_captures_ring_tail() {
        set_enabled(true);
        emit_marks(8, 0xF00D);
        let dump = capture_flight_dump("capacity: injected", 42, 4200, 0xABCD);
        set_enabled(false);
        assert_eq!(dump.header.seq, 42);
        assert_eq!(dump.header.sim_time_s, 4200);
        assert_eq!(dump.header.captured, 8);
        assert_eq!(dump.records.len(), 8);
        assert!(dump
            .records
            .iter()
            .all(|r| r.kind == "mark" && r.a == 0xF00D));
        assert_eq!(counters_snapshot().flight_dumps, 1);
        let text = dump.render(4);
        assert!(text.contains("event #42 @ 4200s"), "{text}");
    }

    #[test]
    fn span_capture_feeds_chrome_trace() {
        set_span_capture(true);
        assert!(profiling_enabled(), "span capture implies profiling");
        {
            let _span = span!(Phase::CompressedPlan);
        }
        set_span_capture(false);
        set_profiling(false);
        let json = chrome_trace_json();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("compressed-plan"), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
    }

    #[test]
    fn reset_clears_the_calling_threads_state() {
        set_enabled(true);
        set_profiling(true);
        note_dispatch(10, 1, 0);
        drop(span!(Phase::EventDispatch));
        reset();
        set_profiling(false);
        set_enabled(false);
        assert_eq!(counters_snapshot(), CounterSnapshot::ZERO);
        assert!(drain_records().is_empty());
        assert!(phase_histograms().iter().all(|h| h.count == 0));
        assert_eq!((sim_time_s(), event_ordinal()), (0, 0));
        assert_eq!(records_emitted(), 1, "the emission count survives a reset");
    }
}
