//! The steady-state telemetry sampling path allocates nothing (DESIGN.md
//! §13): once the store's rings have filled, a sample costs no heap
//! bytes — neither in the store nor in the recorder that feeds it.
//!
//! Allocations are counted per thread by this binary's own global
//! allocator, so tests running in parallel do not see each other's.

use dvmp_cluster::datacenter::FleetBuilder;
use dvmp_cluster::pm::{PmClass, PmId};
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::VmId;
use dvmp_cluster::FleetOp;
use dvmp_metrics::recorder::SimulationRecorder;
use dvmp_obs::{TimeSeriesStore, CONSOLIDATION, DEFAULT_TIER_CAPACITY};
use dvmp_simcore::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes each thread requests (the
/// default `realloc` and `alloc_zeroed` go through `alloc`).
struct Counting;

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged; the counting touches only a const-initialised thread-local
// cell and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size() as u64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes `f` allocated on the calling thread.
fn bytes_allocated(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// Samples to push before every tier of a `cap`-point store is full.
fn fill_samples(cap: usize) -> u64 {
    (cap * CONSOLIDATION * CONSOLIDATION) as u64
}

#[test]
fn a_full_store_samples_without_allocating() {
    let cap = 4;
    let names = (0..6).map(|i| format!("ch{i}")).collect();
    let mut store = TimeSeriesStore::with_capacity(names, cap);
    let mut row = [0.0; 6];
    let warm_up = fill_samples(cap);
    for t in 0..warm_up {
        row[t as usize % 6] = t as f64;
        store.sample(t, &row);
    }
    for t in warm_up..warm_up + 1_000 {
        row[t as usize % 6] = t as f64;
        let bytes = bytes_allocated(|| store.sample(t, &row));
        assert_eq!(bytes, 0, "sample {t} allocated {bytes} bytes");
    }
}

#[test]
fn the_recorders_control_interval_sample_allocates_nothing() {
    let mut dc = FleetBuilder::new()
        .add_class(PmClass::paper_fast(), 2, 0.99)
        .add_class(PmClass::paper_slow(), 2, 0.95)
        .initially_on(true)
        .build();
    let mut recorder = SimulationRecorder::new();
    recorder.enable_obs_sampling();
    dvmp_obs::set_profiling(true);
    let warm_up = fill_samples(DEFAULT_TIER_CAPACITY);
    for t in 0..warm_up + 1_000 {
        // Move the gauges, counters and latency histograms between
        // samples, outside the measured window.
        let op = if t % 2 == 0 {
            FleetOp::Place {
                vm: VmId(1),
                pm: PmId((t / 2 % 4) as u32),
                demand: ResourceVector::cpu_mem(1, 512),
            }
        } else {
            FleetOp::Remove { vm: VmId(1) }
        };
        drop(dvmp_obs::span!(dvmp_obs::Phase::PlanApply));
        dc.apply(op).unwrap();
        let now = SimTime::from_secs(t * 3_600);
        let bytes = bytes_allocated(|| recorder.sample_timeseries(now, &dc, t as usize % 3));
        if t >= warm_up {
            assert_eq!(bytes, 0, "sample {t} allocated {bytes} bytes");
        }
    }
}
