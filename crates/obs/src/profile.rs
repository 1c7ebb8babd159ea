//! Phase profiler: monotonic span timers aggregated into per-phase
//! histograms, with optional full span capture for chrome://tracing.
//!
//! A [`SpanGuard`] (from [`span_guard`] / the `span!` macro) stamps
//! `Instant::now()` on entry and on drop adds the elapsed nanoseconds to
//! its phase's count/total/max and a log2 bucket. Guards also maintain
//! the thread's *current phase* so flight-recorder records carry the
//! phase they were emitted under. When span capture is on, every
//! completed span is additionally appended to the thread's span log for
//! export as chrome trace complete events. All of it is per thread.

use crate::record::{Phase, PHASE_COUNT};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// log2 duration buckets: bucket `i` counts spans in `[2^i, 2^{i+1})` ns,
/// bucket 31 collects everything ≥ ~2.1 s.
pub const PROFILE_BUCKETS: usize = 32;

#[derive(Clone, Copy)]
struct PhaseSlot {
    count: u64,
    total_ns: u64,
    max_ns: u64,
    buckets: [u64; PROFILE_BUCKETS],
}

impl PhaseSlot {
    const ZERO: PhaseSlot = PhaseSlot {
        count: 0,
        total_ns: 0,
        max_ns: 0,
        buckets: [0; PROFILE_BUCKETS],
    };

    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
        self.buckets[bucket_of(ns)] += 1;
    }
}

/// Bucket index for a span of `ns` nanoseconds.
fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (63 - ns.leading_zeros() as usize).min(PROFILE_BUCKETS - 1)
    }
}

/// Wall-clock origin for chrome-trace timestamps (first profiler touch
/// in the process).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A captured span for chrome://tracing export.
#[derive(Debug, Clone, Copy)]
struct CapturedSpan {
    phase: Phase,
    start_ns: u64,
    dur_ns: u64,
}

thread_local! {
    static CURRENT_PHASE: Cell<u8> = const { Cell::new(0) };
    static SLOTS: RefCell<[PhaseSlot; PHASE_COUNT]> =
        const { RefCell::new([PhaseSlot::ZERO; PHASE_COUNT]) };
    static CAPTURED: RefCell<Vec<CapturedSpan>> = const { RefCell::new(Vec::new()) };
}

/// The innermost open span's phase on this thread.
pub(crate) fn current_phase() -> Phase {
    Phase::from_u8(CURRENT_PHASE.with(Cell::get))
}

/// RAII phase timer; see module docs. Obtain via [`span_guard`] or the
/// `span!` macro — `None` (no-op) when profiling is disabled.
pub struct SpanGuard {
    phase: Phase,
    prev_phase: u8,
    start: Instant,
}

/// Open a span for `phase` if profiling is enabled.
#[inline]
pub fn span_guard(phase: Phase) -> Option<SpanGuard> {
    if !crate::profiling_enabled() {
        return None;
    }
    epoch(); // pin the trace origin no later than the first span start
    let prev_phase = CURRENT_PHASE.with(|c| c.replace(phase as u8));
    Some(SpanGuard {
        phase,
        prev_phase,
        start: Instant::now(),
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        CURRENT_PHASE.with(|c| c.set(self.prev_phase));
        SLOTS.with(|slots| slots.borrow_mut()[self.phase as usize].record(ns));
        if crate::span_capture_enabled() {
            let start_ns = u64::try_from(
                self.start
                    .checked_duration_since(epoch())
                    .unwrap_or_default()
                    .as_nanos(),
            )
            .unwrap_or(u64::MAX);
            let span = CapturedSpan {
                phase: self.phase,
                start_ns,
                dur_ns: ns,
            };
            let _ = CAPTURED.try_with(|log| log.borrow_mut().push(span));
        }
    }
}

/// One phase's aggregated timings.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseProfile {
    pub phase: String,
    pub count: u64,
    pub total_ms: f64,
    pub mean_us: f64,
    pub max_us: f64,
    /// log2 histogram: entry `i` counts spans with duration in
    /// `[2^i, 2^{i+1})` ns; trailing zero buckets are trimmed.
    pub log2_ns: Vec<u64>,
}

/// The `profile` section of `perf_report` schema v4.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    pub phases: Vec<PhaseProfile>,
}

/// Aggregate every phase with at least one completed span.
pub fn profile_report() -> ProfileReport {
    let phases = phase_histograms()
        .into_iter()
        .filter(|h| h.count > 0)
        .map(|h| {
            let mut log2_ns = h.buckets.to_vec();
            while log2_ns.last() == Some(&0) {
                log2_ns.pop();
            }
            PhaseProfile {
                phase: h.phase.to_string(),
                count: h.count,
                total_ms: h.total_ns as f64 / 1e6,
                mean_us: h.total_ns as f64 / h.count as f64 / 1e3,
                max_us: h.max_ns as f64 / 1e3,
                log2_ns,
            }
        })
        .collect();
    ProfileReport { phases }
}

impl ProfileReport {
    /// Aligned plain-text table for `--obs-summary`.
    pub fn render(&self) -> String {
        let mut out = String::from("phase profile:\n");
        if self.phases.is_empty() {
            out.push_str("  (no spans recorded — profiling off?)\n");
            return out;
        }
        let width = self.phases.iter().map(|p| p.phase.len()).max().unwrap_or(0);
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  {:width$}  {:>9} calls  total {:>10.3} ms  mean {:>9.2} µs  max {:>9.2} µs",
                p.phase, p.count, p.total_ms, p.mean_us, p.max_us
            );
        }
        out
    }
}

/// Raw histogram view of one timed phase: untrimmed log2-ns buckets plus
/// the count/total/max the buckets were accumulated under. Unlike
/// [`PhaseProfile`] this includes zero-count phases, so consumers that
/// need a stable channel list (the telemetry store, OpenMetrics export)
/// can rely on one entry per [`Phase::TIMED`] member in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseHistogram {
    /// Stable phase name (`Phase::name()`).
    pub phase: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    /// `buckets[i]` counts spans with duration in `[2^i, 2^{i+1})` ns.
    pub buckets: [u64; PROFILE_BUCKETS],
}

impl PhaseHistogram {
    /// Spans recorded since `earlier` (same-phase element-wise difference).
    /// Counters are monotone between resets, so saturating subtraction
    /// only loses information if a reset happened in between.
    pub fn delta_from(&self, earlier: &PhaseHistogram) -> PhaseHistogram {
        debug_assert_eq!(self.phase, earlier.phase, "delta across phases");
        PhaseHistogram {
            phase: self.phase,
            count: self.count.saturating_sub(earlier.count),
            total_ns: self.total_ns.saturating_sub(earlier.total_ns),
            max_ns: self.max_ns, // max is not differentiable; keep cumulative
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
        }
    }
}

/// Snapshot every timed phase's raw histogram (including zero-count
/// phases), in [`Phase::TIMED`] order. Allocation-free: the snapshot is
/// a fixed-size array, so per-interval samplers can call it freely.
pub fn phase_histograms() -> [PhaseHistogram; Phase::TIMED.len()] {
    let slots = SLOTS.with(|slots| *slots.borrow());
    Phase::TIMED.map(|phase| {
        let slot = &slots[phase as usize];
        PhaseHistogram {
            phase: phase.name(),
            count: slot.count,
            total_ns: slot.total_ns,
            max_ns: slot.max_ns,
            buckets: slot.buckets,
        }
    })
}

/// chrome://tracing "complete" events (`ph: "X"`, microsecond units) for
/// every captured span. Load the written file via chrome://tracing or
/// https://ui.perfetto.dev.
#[allow(non_snake_case)] // chrome's trace schema spells it traceEvents
#[derive(Serialize)]
struct ChromeTrace {
    traceEvents: Vec<ChromeEvent>,
    displayTimeUnit: String,
}

#[derive(Serialize)]
struct ChromeEvent {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    dur: f64,
    pid: u64,
    tid: u64,
}

/// Serialize every span the calling thread captured as chrome://tracing
/// JSON (one process, one thread).
pub fn chrome_trace_json() -> String {
    let events = CAPTURED
        .try_with(|log| {
            log.borrow()
                .iter()
                .map(|s| ChromeEvent {
                    name: s.phase.name().to_string(),
                    cat: "dvmp".to_string(),
                    ph: "X".to_string(),
                    ts: s.start_ns as f64 / 1e3,
                    dur: s.dur_ns as f64 / 1e3,
                    pid: 1,
                    tid: 1,
                })
                .collect()
        })
        .unwrap_or_default();
    let trace = ChromeTrace {
        traceEvents: events,
        displayTimeUnit: "ms".to_string(),
    };
    serde_json::to_string(&trace).expect("chrome trace serializes")
}

/// Clear the calling thread's histograms and captured spans (harness
/// affordance; call while no spans are open).
pub(crate) fn reset() {
    SLOTS.with(|slots| *slots.borrow_mut() = [PhaseSlot::ZERO; PHASE_COUNT]);
    let _ = CAPTURED.try_with(|log| log.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), PROFILE_BUCKETS - 1);
    }

    #[test]
    fn disabled_profiling_returns_no_guard() {
        assert!(!crate::profiling_enabled(), "profiling starts off");
        assert!(span_guard(Phase::CompressedPlan).is_none());
    }
}
