//! Phase profiler: monotonic span timers aggregated into per-phase
//! histograms, with optional full span capture for chrome://tracing.
//!
//! A [`SpanGuard`] (from [`span_guard`] / the `span!` macro) stamps
//! `Instant::now()` on entry and on drop adds the elapsed nanoseconds to
//! its phase's count/total/max and a log2 bucket. Guards also maintain a
//! per-thread *current phase* so flight-recorder records carry the phase
//! they were emitted under. When span capture is on, every completed span
//! is additionally appended (under a mutex — capture is a debugging mode,
//! not a hot path) for export as chrome trace complete events.

use crate::record::{Phase, PHASE_COUNT};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// log2 duration buckets: bucket `i` counts spans in `[2^i, 2^{i+1})` ns,
/// bucket 31 collects everything ≥ ~2.1 s.
pub const PROFILE_BUCKETS: usize = 32;

struct PhaseSlot {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; PROFILE_BUCKETS],
}

impl PhaseSlot {
    fn new() -> PhaseSlot {
        PhaseSlot {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
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

fn slots() -> &'static [PhaseSlot; PHASE_COUNT] {
    static SLOTS: OnceLock<[PhaseSlot; PHASE_COUNT]> = OnceLock::new();
    SLOTS.get_or_init(|| std::array::from_fn(|_| PhaseSlot::new()))
}

/// Wall-clock origin for chrome-trace timestamps (first profiler touch).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static CURRENT_PHASE: Cell<u8> = const { Cell::new(0) };
}

/// The innermost open span's phase on this thread.
pub(crate) fn current_phase() -> Phase {
    Phase::from_u8(CURRENT_PHASE.with(Cell::get))
}

/// A captured span for chrome://tracing export.
#[derive(Debug, Clone, Copy)]
struct CapturedSpan {
    phase: Phase,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
}

fn captured() -> &'static Mutex<Vec<CapturedSpan>> {
    static CAPTURED: OnceLock<Mutex<Vec<CapturedSpan>>> = OnceLock::new();
    CAPTURED.get_or_init(|| Mutex::new(Vec::new()))
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
        slots()[self.phase as usize].record(ns);
        if crate::span_capture_enabled() {
            let start_ns = u64::try_from(
                self.start
                    .checked_duration_since(epoch())
                    .unwrap_or_default()
                    .as_nanos(),
            )
            .unwrap_or(u64::MAX);
            captured()
                .lock()
                .expect("obs span sink poisoned")
                .push(CapturedSpan {
                    phase: self.phase,
                    tid: crate::thread_tid(),
                    start_ns,
                    dur_ns: ns,
                });
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
    let mut phases = Vec::new();
    for phase in Phase::TIMED {
        let slot = &slots()[phase as usize];
        let count = slot.count.load(Ordering::Relaxed);
        if count == 0 {
            continue;
        }
        let total_ns = slot.total_ns.load(Ordering::Relaxed);
        let mut log2_ns: Vec<u64> = slot
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while log2_ns.last() == Some(&0) {
            log2_ns.pop();
        }
        phases.push(PhaseProfile {
            phase: phase.name().to_string(),
            count,
            total_ms: total_ns as f64 / 1e6,
            mean_us: total_ns as f64 / count as f64 / 1e3,
            max_us: slot.max_ns.load(Ordering::Relaxed) as f64 / 1e3,
            log2_ns,
        });
    }
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
/// phases), in [`Phase::TIMED`] order.
pub fn phase_histograms() -> Vec<PhaseHistogram> {
    Phase::TIMED
        .iter()
        .map(|&phase| {
            let slot = &slots()[phase as usize];
            PhaseHistogram {
                phase: phase.name(),
                count: slot.count.load(Ordering::Relaxed),
                total_ns: slot.total_ns.load(Ordering::Relaxed),
                max_ns: slot.max_ns.load(Ordering::Relaxed),
                buckets: std::array::from_fn(|i| slot.buckets[i].load(Ordering::Relaxed)),
            }
        })
        .collect()
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

/// Serialize every captured span as chrome://tracing JSON.
pub fn chrome_trace_json() -> String {
    let spans = captured().lock().expect("obs span sink poisoned");
    let trace = ChromeTrace {
        traceEvents: spans
            .iter()
            .map(|s| ChromeEvent {
                name: s.phase.name().to_string(),
                cat: "dvmp".to_string(),
                ph: "X".to_string(),
                ts: s.start_ns as f64 / 1e3,
                dur: s.dur_ns as f64 / 1e3,
                pid: 1,
                tid: s.tid,
            })
            .collect(),
        displayTimeUnit: "ms".to_string(),
    };
    serde_json::to_string(&trace).expect("chrome trace serializes")
}

/// Clear histograms and captured spans (harness affordance; call while
/// no spans are open).
pub(crate) fn reset() {
    for slot in slots() {
        slot.reset();
    }
    captured().lock().expect("obs span sink poisoned").clear();
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
        // Profiling defaults to off; other tests in this binary that turn
        // it on serialize through lib.rs's test lock.
        let _lock = crate::test_lock();
        crate::set_profiling(false);
        assert!(span_guard(Phase::CompressedPlan).is_none());
    }
}
