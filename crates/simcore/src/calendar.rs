//! Calendar-queue future-event list: a bucketed timing wheel.
//!
//! A [`BinaryHeap`](std::collections::BinaryHeap) future-event list costs
//! O(log n) per operation; at fleet scale (tens of thousands of in-flight
//! events) the heap's pointer churn dominates the event loop. A calendar
//! queue (R. Brown, CACM 1988) hashes each event by time into one of `nb`
//! buckets of `width` seconds and drains buckets in clock order, giving
//! O(1) amortized schedule/pop as long as the bucket count tracks the live
//! population — which [`CalendarQueue`] maintains by doubling/halving and
//! re-estimating `width` from the live event span on resize.
//!
//! The queue's semantics are those of a sorted list:
//!
//! - the dispatch order is the total order on `(time, id)` — FIFO among
//!   simultaneous events — so simulations are bit-reproducible
//!   (property-tested against a sorted-`Vec` model in `tests/model.rs`);
//! - cancellation is lazy and id-based: stale entries are purged when their
//!   bucket is drained or on resize, and cancelling an id that already fired
//!   is a no-op returning `false`;
//! - `len` counts live (non-cancelled) events only.
//!
//! Liveness is a bitmap indexed by the dense [`EventId`] (ids are handed
//! out from 0 up) plus a live counter: scheduling sets a bit, firing or
//! cancelling clears it, so the membership test on every drained entry is
//! one load. It holds 1 bit per event ever scheduled — ~19 KiB for the
//! ~155 000 events of a 10k-PM week.
//!
//! Within a bucket, entries are kept sorted by `(time, id)` (a bucket may
//! hold entries from different "years" — times that alias modulo
//! `nb * width`); the slot membership test `time / width == cur_slot`
//! selects the current year's prefix without any overflow-prone
//! end-of-window arithmetic.

use crate::event::{EventEntry, EventId};
use crate::time::SimTime;
use std::collections::VecDeque;

/// Minimum (and initial) bucket count; always a power of two.
const MIN_BUCKETS: usize = 16;

/// A cancellable calendar-queue future-event list: the classic
/// discrete-event simulation core.
///
/// ```
/// use dvmp_simcore::{CalendarQueue, SimTime};
///
/// let mut q = CalendarQueue::new();
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
pub struct CalendarQueue<E> {
    /// `nb` buckets, each sorted ascending by `(time, id)`.
    buckets: Vec<VecDeque<EventEntry<E>>>,
    /// Bucket width in whole seconds; always >= 1.
    width: u64,
    /// Absolute slot index (`time / width`) the cursor drains next.
    /// Invariant: every live entry's slot is >= `cur_slot`.
    cur_slot: u64,
    /// Liveness bitmap: bit `id` is set while event `id` is scheduled, not
    /// fired and not cancelled.
    live: Vec<u64>,
    /// Number of set bits in `live`.
    live_count: usize,
    next_id: u64,
    /// Next live entry, pre-fetched by [`CalendarQueue::peek_time`] and
    /// consumed by [`CalendarQueue::pop`]. Its bit stays set while cached
    /// so `len`/`cancel` see it.
    head: Option<EventEntry<E>>,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            width: 1,
            cur_slot: 0,
            live: Vec::new(),
            live_count: 0,
            next_id: 0,
            head: None,
        }
    }

    /// Schedules `payload` to fire at `time`; returns a cancellation token.
    /// Ids are unique and monotonically increasing, so ties in `time` fire
    /// in scheduling order.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.set_live(id);
        // A newly scheduled event can fire before the pre-fetched head
        // (same time never: the new id is larger). Push the stale head
        // back into its bucket so the search sees both.
        if let Some(h) = &self.head {
            if time < h.time {
                let h = self.head.take().expect("head is Some");
                self.push_entry(h);
            }
        }
        let slot = time.as_secs() / self.width;
        if slot < self.cur_slot {
            self.cur_slot = slot;
        }
        self.push_entry(EventEntry { time, id, payload });
        if self.live_count > 2 * self.buckets.len() {
            self.rebuild(self.buckets.len() * 2);
        }
        id
    }

    /// Cancels a previously scheduled event. Returns `true` only when the
    /// event was still pending; cancelling an id that already fired (or was
    /// already cancelled) is a no-op returning `false`. O(1): the bucket
    /// entry is purged lazily.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let was_live = self.clear_live(id);
        if was_live {
            if let Some(h) = &self.head {
                if h.id == id {
                    self.head = None;
                }
            }
        }
        was_live
    }

    /// Removes and returns the earliest live event, skipping cancelled
    /// entries.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        let entry = match self.head.take() {
            Some(h) => h,
            None => self.find_next()?,
        };
        self.clear_live(entry.id);
        if self.buckets.len() > MIN_BUCKETS && self.live_count < self.buckets.len() / 4 {
            self.rebuild(self.buckets.len() / 2);
        }
        Some(entry)
    }

    /// Time of the earliest live event, if any, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.head.is_none() {
            self.head = self.find_next();
        }
        self.head.as_ref().map(|e| e.time)
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
        for b in &mut self.buckets {
            b.clear();
        }
        self.live.clear();
        self.live_count = 0;
        self.head = None;
        self.cur_slot = 0;
    }

    /// `true` while event `id` is scheduled, not fired and not cancelled.
    #[inline]
    fn is_live(&self, id: EventId) -> bool {
        let (word, bit) = ((id.0 / 64) as usize, id.0 % 64);
        self.live.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Marks the freshly scheduled event `id` live.
    #[inline]
    fn set_live(&mut self, id: EventId) {
        let (word, bit) = ((id.0 / 64) as usize, id.0 % 64);
        if word >= self.live.len() {
            self.live.resize(word + 1, 0);
        }
        self.live[word] |= 1 << bit;
        self.live_count += 1;
    }

    /// Marks event `id` no longer live; `true` when it was.
    #[inline]
    fn clear_live(&mut self, id: EventId) -> bool {
        let (word, bit) = ((id.0 / 64) as usize, id.0 % 64);
        let Some(w) = self.live.get_mut(word) else {
            return false;
        };
        let was_live = *w & (1 << bit) != 0;
        *w &= !(1 << bit);
        self.live_count -= usize::from(was_live);
        was_live
    }

    /// Inserts `entry` into its bucket, keeping the bucket sorted by
    /// `(time, id)`.
    fn push_entry(&mut self, entry: EventEntry<E>) {
        let nb = self.buckets.len() as u64;
        let b = ((entry.time.as_secs() / self.width) % nb) as usize;
        let bucket = &mut self.buckets[b];
        let key = (entry.time, entry.id);
        let pos = bucket.partition_point(|e| (e.time, e.id) < key);
        bucket.insert(pos, entry);
    }

    /// Removes and returns the earliest live entry, advancing the cursor
    /// and purging stale (cancelled) entries encountered on the way. After
    /// a full revolution of empty slots the cursor jumps straight to the
    /// earliest remaining entry, so sparse regions cost one O(n) scan
    /// instead of a slot-by-slot walk.
    fn find_next(&mut self) -> Option<EventEntry<E>> {
        if self.live_count == 0 {
            return None;
        }
        let nb = self.buckets.len() as u64;
        let mut scanned = 0u64;
        loop {
            let b = (self.cur_slot % nb) as usize;
            // Entries at or before the cursor slot form a prefix of the
            // sorted bucket: anything aliased from a later year has a
            // larger time. Entries *before* the cursor slot are always
            // stale — live entries never sit behind the cursor (the
            // cursor regresses on early schedules and `min_live_slot`
            // jumps exactly to the earliest live slot) — but they do
            // occur: a cursor jump can hop over a cancelled entry that
            // shares this bucket, and it would otherwise block the slot
            // prefix forever. Drain them along the way.
            while let Some(front) = self.buckets[b].front() {
                if front.time.as_secs() / self.width > self.cur_slot {
                    break;
                }
                let entry = self.buckets[b].pop_front().expect("front exists");
                if self.is_live(entry.id) {
                    debug_assert_eq!(
                        entry.time.as_secs() / self.width,
                        self.cur_slot,
                        "live entries never sit behind the cursor"
                    );
                    return Some(entry);
                }
            }
            self.cur_slot = self.cur_slot.saturating_add(1);
            scanned += 1;
            if scanned >= nb {
                match self.min_live_slot() {
                    Some(slot) => {
                        self.cur_slot = slot;
                        scanned = 0;
                    }
                    None => return None,
                }
            }
        }
    }

    /// Slot of the earliest live entry across all buckets, or `None` when
    /// only stale entries remain. O(live + stale); called only after a full
    /// empty revolution.
    fn min_live_slot(&self) -> Option<u64> {
        let mut best: Option<(SimTime, EventId)> = None;
        for bucket in &self.buckets {
            // Buckets are sorted, so the first live entry is the bucket's
            // minimum live entry.
            if let Some(e) = bucket.iter().find(|e| self.is_live(e.id)) {
                let key = (e.time, e.id);
                match best {
                    Some(b) if key >= b => {}
                    _ => best = Some(key),
                }
            }
        }
        best.map(|(t, _)| t.as_secs() / self.width)
    }

    /// Re-buckets every live entry into `new_nb` buckets, dropping stale
    /// entries and re-estimating the bucket width as the mean gap of the
    /// live population (clamped to >= 1 s). Amortized O(1) per operation.
    fn rebuild(&mut self, new_nb: usize) {
        let mut entries: Vec<EventEntry<E>> = Vec::with_capacity(self.live_count);
        if let Some(h) = self.head.take() {
            entries.push(h);
        }
        for bucket in std::mem::take(&mut self.buckets) {
            entries.extend(bucket.into_iter().filter(|e| self.is_live(e.id)));
        }
        debug_assert_eq!(entries.len(), self.live_count);
        let (min, max) = entries.iter().fold((u64::MAX, 0u64), |(lo, hi), e| {
            (lo.min(e.time.as_secs()), hi.max(e.time.as_secs()))
        });
        let n = entries.len().max(1) as u64;
        self.width = ((max.saturating_sub(min)) / n).max(1);
        self.buckets = (0..new_nb.max(MIN_BUCKETS))
            .map(|_| VecDeque::new())
            .collect();
        self.cur_slot = if entries.is_empty() {
            0
        } else {
            min / self.width
        };
        for e in entries {
            self.push_entry(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_secs(5), "b");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(9), "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_secs(3);
        for name in ["first", "second", "third"] {
            q.schedule(t, name);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = CalendarQueue::new();
        let keep = q.schedule(SimTime::from_secs(1), "keep");
        let drop = q.schedule(SimTime::from_secs(2), "drop");
        assert!(q.cancel(drop));
        assert!(!q.cancel(drop), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        let only = q.pop().unwrap();
        assert_eq!(only.id, keep);
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_id_is_rejected() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn cancel_after_fire_is_a_no_op() {
        let mut q = CalendarQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let fired = q.pop().unwrap();
        assert_eq!(fired.id, a);
        assert!(!q.cancel(a), "already fired");
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_of_peeked_head_is_honoured() {
        let mut q = CalendarQueue::new();
        let early = q.schedule(SimTime::from_secs(1), "x");
        q.schedule(SimTime::from_secs(7), "y");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert!(q.cancel(early), "cancelling the cached head must work");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        assert_eq!(q.pop().unwrap().payload, "y");
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_earlier_than_peeked_head() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_secs(50), "late");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(50)));
        q.schedule(SimTime::from_secs(10), "early");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
        assert_eq!(q.pop().unwrap().payload, "early");
        assert_eq!(q.pop().unwrap().payload, "late");
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = CalendarQueue::new();
        let early = q.schedule(SimTime::from_secs(1), "x");
        q.schedule(SimTime::from_secs(7), "y");
        q.cancel(early);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
    }

    #[test]
    fn len_tracks_cancellations() {
        let mut q = CalendarQueue::new();
        let a = q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let mut q = CalendarQueue::new();
        let a = q.schedule(SimTime::from_secs(1), ());
        let b = q.schedule(SimTime::from_secs(1), ());
        assert!(b.raw() > a.raw());
    }

    #[test]
    fn year_aliasing_keeps_order() {
        // Times that collide modulo nb * width (different "years" of the
        // same bucket) must still pop in time order.
        let mut q = CalendarQueue::new();
        // width 1, 16 buckets: 3, 19, 35 all alias to bucket 3.
        q.schedule(SimTime::from_secs(35), "third");
        q.schedule(SimTime::from_secs(3), "first");
        q.schedule(SimTime::from_secs(19), "second");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_secs(10), "near");
        q.schedule(SimTime::from_secs(10_000_000), "far");
        assert_eq!(q.pop().unwrap().payload, "near");
        // The cursor must jump the huge gap rather than walk it.
        assert_eq!(q.pop().unwrap().payload, "far");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cursor_jump_over_stale_alias_does_not_block() {
        // Regression: with 16 width-1 buckets and the cursor at 0, slots
        // 35 and 51 alias to bucket 3 and both lie beyond the first
        // cursor revolution (0..16). Cancelling the earlier event leaves
        // a stale front entry that the empty-revolution jump hops over;
        // the drain-at-or-before-cursor rule must discard it instead of
        // letting it block the bucket prefix forever.
        let mut q = CalendarQueue::new();
        let stale = q.schedule(SimTime::from_secs(35), "stale");
        q.schedule(SimTime::from_secs(51), "live");
        assert!(q.cancel(stale));
        assert_eq!(q.pop().unwrap().payload, "live");
        assert!(q.pop().is_none());
    }

    #[test]
    fn end_of_time_sentinel_event_fires() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::MAX, "sentinel");
        q.schedule(SimTime::from_secs(1), "normal");
        assert_eq!(q.pop().unwrap().payload, "normal");
        assert_eq!(q.pop().unwrap().payload, "sentinel");
        assert!(q.pop().is_none());
    }

    #[test]
    fn grow_and_shrink_preserve_order() {
        let mut q = CalendarQueue::new();
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
                assert!(e.time >= prev, "calendar went backwards");
            }
            last = Some(e.time);
            popped += 1;
        }
        assert_eq!(popped, n);
    }

    #[test]
    fn interleaved_schedule_pop_cancel() {
        // Deterministic stress covering resize-while-peeked and cursor
        // regression on late inserts of early times.
        let mut q = CalendarQueue::new();
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
