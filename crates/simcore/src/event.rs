//! The future-event list.
//!
//! Discrete-event simulations are only reproducible if simultaneous events
//! are processed in a deterministic order. Entries therefore carry a
//! monotonically increasing [`EventId`] assigned at scheduling time, and
//! [`EventQueue`] pops them in `(time, id)` order — FIFO among ties.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// A heap slot in reversed `(time, id)` order, so the max-heap pops the earliest.
#[derive(Debug)]
struct Pending<E>(EventEntry<E>);

impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.time, other.0.id).cmp(&(self.0.time, self.0.id))
    }
}

impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<E> Eq for Pending<E> {}

/// A cancellable future-event list: a binary heap plus a liveness bitmap
/// indexed by the dense [`EventId`] (1 bit per event ever scheduled).
/// Cancelling clears the bit; the entry is dropped when it reaches the top.
///
/// ```
/// use dvmp_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(30), "late");
/// let token = q.schedule(SimTime::from_secs(10), "cancelled");
/// q.schedule(SimTime::from_secs(20), "early");
/// q.cancel(token);
///
/// assert_eq!(q.pop().unwrap().payload, "early");
/// assert_eq!(q.pop().unwrap().payload, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Every entry not yet popped, cancelled ones included.
    heap: BinaryHeap<Pending<E>>,
    /// Bit `id` is set while event `id` is pending; `live_count` counts them.
    live: Vec<u64>,
    live_count: usize,
    next_id: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            live: Vec::new(),
            live_count: 0,
            next_id: 0,
        }
    }

    /// Schedules `payload` to fire at `time`; returns a cancellation token.
    /// Ids are unique and monotonically increasing, so ties in `time` fire
    /// in scheduling order.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        let word = (id.0 / 64) as usize;
        if word >= self.live.len() {
            self.live.resize(word + 1, 0);
        }
        self.live[word] |= 1 << (id.0 % 64);
        self.live_count += 1;
        self.heap.push(Pending(EventEntry { time, id, payload }));
        id
    }

    /// Cancels a scheduled event in O(1). Returns `true` only when it was
    /// still pending; cancelling an id that already fired (or was already
    /// cancelled) is a no-op returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(w) = self.live.get_mut((id.0 / 64) as usize) else {
            return false;
        };
        let bit = 1 << (id.0 % 64);
        let was_live = *w & bit != 0;
        *w &= !bit;
        self.live_count -= usize::from(was_live);
        was_live
    }

    /// Removes and returns the earliest live event.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        loop {
            let Pending(entry) = self.heap.pop()?;
            if self.cancel(entry.id) {
                return Some(entry);
            }
        }
    }

    /// Time of the earliest live event, if any, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let EventEntry { time, id, .. } = self.heap.peek()?.0;
            if self.live[(id.0 / 64) as usize] & (1 << (id.0 % 64)) != 0 {
                return Some(time);
            }
            self.heap.pop();
        }
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// `true` when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.live.clear();
        self.live_count = 0;
    }
}

#[cfg(test)]
mod tests {
    //! The queue's contract. Each check runs as a test here on a fresh
    //! queue and, under the same name in `drained`, on a queue that has
    //! already scheduled and drained 64 hourly events, so its ids start
    //! past zero and its heap has grown and emptied.
    use super::*;

    /// A queue that has scheduled and popped an event every hour for 64
    /// hours.
    fn drained_queue<E: Default>() -> EventQueue<E> {
        let mut q = EventQueue::new();
        for hour in 0..64 {
            q.schedule(SimTime::from_secs(hour * 3_600), E::default());
        }
        while q.pop().is_some() {}
        assert!(q.is_empty());
        q
    }

    /// Declares each check as `check::<name>` and runs it as the test
    /// `<name>` on a fresh queue and as `drained::<name>` on a drained one.
    macro_rules! contract {
        ($($(#[$doc:meta])* fn $name:ident(mut $q:ident: $ty:ty) $body:block)*) => {
            mod check {
                use super::*;
                $($(#[$doc])* pub fn $name(mut $q: $ty) $body)*
            }
            $(#[test]
            fn $name() {
                check::$name(EventQueue::new());
            })*
            mod drained {
                use super::*;
                $(#[test]
                fn $name() {
                    check::$name(drained_queue());
                })*
            }
        };
    }

    contract! {
        fn pops_in_time_order(mut q: EventQueue<&'static str>) {
            q.schedule(SimTime::from_secs(5), "b");
            q.schedule(SimTime::from_secs(1), "a");
            q.schedule(SimTime::from_secs(9), "c");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
            assert_eq!(order, vec!["a", "b", "c"]);
        }

        fn simultaneous_events_are_fifo(mut q: EventQueue<&'static str>) {
            let t = SimTime::from_secs(3);
            for name in ["first", "second", "third"] {
                q.schedule(t, name);
            }
            let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
            assert_eq!(order, vec!["first", "second", "third"]);
        }

        fn cancel_removes_event(mut q: EventQueue<&'static str>) {
            let keep = q.schedule(SimTime::from_secs(1), "keep");
            let drop = q.schedule(SimTime::from_secs(2), "drop");
            assert!(q.cancel(drop));
            assert!(!q.cancel(drop), "double cancel is a no-op");
            assert_eq!(q.len(), 1);
            let only = q.pop().unwrap();
            assert_eq!(only.id, keep);
            assert!(q.pop().is_none());
        }

        fn cancel_unknown_id_is_rejected(mut q: EventQueue<()>) {
            assert!(!q.cancel(EventId(42)));
            assert!(!q.cancel(EventId(u64::MAX)));
        }

        fn cancel_after_fire_is_a_no_op(mut q: EventQueue<&'static str>) {
            let a = q.schedule(SimTime::from_secs(1), "a");
            q.schedule(SimTime::from_secs(2), "b");
            let fired = q.pop().unwrap();
            assert_eq!(fired.id, a);
            assert!(!q.cancel(a), "already fired");
            assert_eq!(q.len(), 1);
            assert!(q.pop().is_some());
            assert!(q.is_empty());
        }

        fn cancel_of_peeked_head_is_honoured(mut q: EventQueue<&'static str>) {
            let early = q.schedule(SimTime::from_secs(1), "x");
            q.schedule(SimTime::from_secs(7), "y");
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
            assert!(q.cancel(early), "cancelling the peeked head must work");
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
            assert_eq!(q.pop().unwrap().payload, "y");
            assert!(q.is_empty());
        }

        fn schedule_earlier_than_peeked_head(mut q: EventQueue<&'static str>) {
            q.schedule(SimTime::from_secs(50), "late");
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(50)));
            q.schedule(SimTime::from_secs(10), "early");
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
            assert_eq!(q.pop().unwrap().payload, "early");
            assert_eq!(q.pop().unwrap().payload, "late");
        }

        fn peek_time_skips_cancelled(mut q: EventQueue<&'static str>) {
            let early = q.schedule(SimTime::from_secs(1), "x");
            q.schedule(SimTime::from_secs(7), "y");
            q.cancel(early);
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        }

        fn len_tracks_cancellations(mut q: EventQueue<i32>) {
            let a = q.schedule(SimTime::from_secs(1), 1);
            q.schedule(SimTime::from_secs(2), 2);
            assert_eq!(q.len(), 2);
            q.cancel(a);
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            q.pop();
            assert!(q.is_empty());
        }

        fn clear_empties_queue(mut q: EventQueue<()>) {
            q.schedule(SimTime::from_secs(1), ());
            q.schedule(SimTime::from_secs(2), ());
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
            assert!(q.pop().is_none());
            let after = q.schedule(SimTime::from_secs(3), ());
            assert_eq!(q.pop().map(|e| e.id), Some(after), "usable after clear");
        }

        fn ids_are_unique_and_increasing(mut q: EventQueue<()>) {
            let a = q.schedule(SimTime::from_secs(1), ());
            let b = q.schedule(SimTime::from_secs(1), ());
            assert!(b.raw() > a.raw());
        }

        /// 3, 19 and 35 are congruent modulo 16: times that would share a
        /// slot of any 16-way bucketing still pop in time order.
        fn year_aliasing_keeps_order(mut q: EventQueue<&'static str>) {
            q.schedule(SimTime::from_secs(35), "third");
            q.schedule(SimTime::from_secs(3), "first");
            q.schedule(SimTime::from_secs(19), "second");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
            assert_eq!(order, vec!["first", "second", "third"]);
        }

        fn sparse_far_future_events_are_found(mut q: EventQueue<&'static str>) {
            q.schedule(SimTime::from_secs(10), "near");
            q.schedule(SimTime::from_secs(10_000_000), "far");
            assert_eq!(q.pop().unwrap().payload, "near");
            assert_eq!(q.pop().unwrap().payload, "far");
            assert!(q.pop().is_none());
        }

        /// A cancelled entry congruent (mod 16) to a later live one must
        /// neither fire nor hold the live one back.
        fn cursor_jump_over_stale_alias_does_not_block(mut q: EventQueue<&'static str>) {
            let stale = q.schedule(SimTime::from_secs(35), "stale");
            q.schedule(SimTime::from_secs(51), "live");
            assert!(q.cancel(stale));
            assert_eq!(q.pop().unwrap().payload, "live");
            assert!(q.pop().is_none());
        }

        fn end_of_time_sentinel_event_fires(mut q: EventQueue<&'static str>) {
            q.schedule(SimTime::MAX, "sentinel");
            q.schedule(SimTime::from_secs(1), "normal");
            assert_eq!(q.pop().unwrap().payload, "normal");
            assert_eq!(q.pop().unwrap().payload, "sentinel");
            assert!(q.pop().is_none());
        }

        fn grow_and_shrink_preserve_order(mut q: EventQueue<u64>) {
            let n = 1_000u64;
            // Insert in a scrambled but deterministic order.
            for i in 0..n {
                let t = (i * 7_919) % n; // 7919 is prime, so this is a permutation
                q.schedule(SimTime::from_secs(t * 13), t);
            }
            assert_eq!(q.len(), n as usize);
            let mut last = None;
            let mut popped = 0;
            while let Some(e) = q.pop() {
                if let Some(prev) = last {
                    assert!(e.time >= prev, "queue went backwards");
                }
                last = Some(e.time);
                popped += 1;
            }
            assert_eq!(popped, n);
        }

        /// Deterministic stress: peeks, cancellations and pops interleaved
        /// with late inserts of early times.
        fn interleaved_schedule_pop_cancel(mut q: EventQueue<u64>) {
            let mut tokens = Vec::new();
            for i in 0u64..200 {
                tokens.push(q.schedule(SimTime::from_secs((i * 37) % 500), i));
                if i % 3 == 0 {
                    q.peek_time();
                }
                if i % 5 == 0 {
                    if let Some(tok) = tokens.get((i as usize) / 2) {
                        q.cancel(*tok);
                    }
                }
                if i % 7 == 0 {
                    q.pop();
                }
            }
            let mut last = SimTime::ZERO;
            while let Some(e) = q.pop() {
                assert!(e.time >= last || last == SimTime::ZERO);
                last = e.time;
            }
            assert!(q.is_empty());
        }
    }
}
