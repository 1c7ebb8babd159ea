//! The flight-recorder ring.
//!
//! Each thread records into its own fixed-capacity ring: a `Vec<Record>`
//! that grows to the capacity, then overwrites its oldest record, which
//! sits at `head`. Drains read the ring in emission order, oldest first.
//! A record's `stamp` is the thread's 1-based emission count, so a drain
//! shows how many older records were overwritten.

use crate::record::{Phase, Record, RecordKind};
use std::cell::RefCell;

/// Default ring capacity, in records. Chosen to comfortably exceed the
/// ≥1024-record dump guarantee with one planning interval of headroom at
/// paper scale.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

struct Ring {
    cap: usize,
    /// The oldest record once the ring is full (0 until then).
    head: usize,
    records: Vec<Record>,
    /// Records ever emitted on this thread (the last stamp handed out).
    emitted: u64,
}

impl Ring {
    fn push(&mut self, mut record: Record) {
        self.emitted += 1;
        record.stamp = self.emitted;
        if self.records.len() < self.cap {
            self.records.push(record);
        } else {
            self.records[self.head] = record;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Puts the records in emission order at the front (`head` = 0).
    fn linearize(&mut self) {
        self.records.rotate_left(self.head);
        self.head = 0;
    }
}

thread_local! {
    static RING: RefCell<Ring> = const {
        RefCell::new(Ring {
            cap: DEFAULT_RING_CAPACITY,
            head: 0,
            records: Vec::new(),
            emitted: 0,
        })
    };
}

/// Resize the calling thread's ring, keeping its newest records.
/// Clamped to at least 16.
pub fn set_ring_capacity(records: usize) {
    let cap = records.max(16);
    let _ = RING.try_with(|ring| {
        let mut ring = ring.borrow_mut();
        ring.linearize();
        let excess = ring.records.len().saturating_sub(cap);
        ring.records.drain(..excess);
        ring.records.shrink_to(cap);
        ring.cap = cap;
    });
}

/// The calling thread's ring capacity.
pub fn ring_capacity() -> usize {
    RING.try_with(|ring| ring.borrow().cap)
        .unwrap_or(DEFAULT_RING_CAPACITY)
}

/// Records ever emitted on the calling thread (a drain can report how
/// many were overwritten).
pub fn records_emitted() -> u64 {
    RING.try_with(|ring| ring.borrow().emitted).unwrap_or(0)
}

/// Write one record into the calling thread's ring. A no-op once the
/// thread's ring has been torn down.
pub(crate) fn emit(kind: RecordKind, phase: Phase, time_s: u64, ordinal: u64, a: u64, b: u64) {
    let _ = RING.try_with(|ring| {
        ring.borrow_mut().push(Record {
            stamp: 0,
            time_s,
            ordinal,
            kind,
            phase,
            a,
            b,
        });
    });
}

/// The calling thread's surviving records, oldest first. Does not consume
/// the ring: records stay in place until overwritten (a flight recorder
/// keeps flying).
pub fn drain_records() -> Vec<Record> {
    RING.try_with(|ring| {
        let ring = ring.borrow();
        let (newer, older) = ring.records.split_at(ring.head);
        older.iter().chain(newer).copied().collect()
    })
    .unwrap_or_default()
}

/// Clear the calling thread's ring contents (capacity and the emission
/// count stay).
pub(crate) fn reset() {
    let _ = RING.try_with(|ring| {
        let mut ring = ring.borrow_mut();
        ring.records.clear();
        ring.head = 0;
    });
}
