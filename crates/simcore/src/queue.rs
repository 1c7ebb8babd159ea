//! The future-event-list contract, checked on a resized calendar.
//!
//! `calendar::tests` exercise a fresh [`CalendarQueue`]: one-second buckets,
//! the minimum bucket count, cursor at zero. A long-running simulation's
//! queue looks different — it has grown, re-estimated its bucket width from
//! the live population, and shrunk again — so these tests run the same
//! contract on such a queue, where the tests' events share one bucket and
//! the cursor must step back to reach them.

#[cfg(test)]
mod tests {
    use crate::calendar::CalendarQueue;
    use crate::time::SimTime;

    /// An empty queue whose geometry a drain has reshaped: an hourly
    /// population of 64 events grows it to 32 buckets of roughly an hour
    /// each, and draining shrinks it back to 16 buckets, leaving them about
    /// an hour wide (3 085 s) and the cursor at hour 63's slot.
    fn resized<E: Default>() -> CalendarQueue<E> {
        let mut q = CalendarQueue::new();
        for hour in 0..64 {
            q.schedule(SimTime::from_secs(hour * 3_600), E::default());
        }
        while q.pop().is_some() {}
        assert!(q.is_empty());
        q
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = resized();
        q.schedule(SimTime::from_secs(5), "b");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(9), "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = resized();
        let t = SimTime::from_secs(3);
        for name in ["first", "second", "third"] {
            q.schedule(t, name);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = resized();
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
    fn cancel_after_fire_is_a_no_op() {
        let mut q = resized();
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
    fn peek_time_skips_cancelled() {
        let mut q = resized();
        let early = q.schedule(SimTime::from_secs(1), "x");
        q.schedule(SimTime::from_secs(7), "y");
        q.cancel(early);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
    }

    #[test]
    fn len_tracks_cancellations() {
        let mut q = resized();
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
        let mut q = resized();
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let mut q = resized();
        let a = q.schedule(SimTime::from_secs(1), ());
        let b = q.schedule(SimTime::from_secs(1), ());
        assert!(b.raw() > a.raw());
    }
}
