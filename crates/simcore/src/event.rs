//! Event-queue entries.
//!
//! Discrete-event simulations are only reproducible if simultaneous events
//! are processed in a deterministic order. Entries therefore carry a
//! monotonically increasing [`EventId`] assigned at scheduling time, and the
//! calendar queue orders them by `(time, id)` — FIFO among ties.

use crate::time::SimTime;

/// Unique, monotonically increasing identifier assigned to every scheduled
/// event. Doubles as the cancellation token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub(crate) u64);

impl EventId {
    /// The raw sequence number.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A scheduled occurrence of a payload `E` at a given simulation time.
#[derive(Debug, Clone)]
pub struct EventEntry<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Scheduling sequence number; ties in `time` fire in `id` order.
    pub id: EventId,
    /// The user payload.
    pub payload: E,
}
