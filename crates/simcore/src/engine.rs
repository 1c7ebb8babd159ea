//! The event loop.
//!
//! A [`World`] owns all mutable simulation state and receives events one at
//! a time; a [`Scheduler`] handle lets it schedule or cancel future events
//! while handling the current one. The [`Engine`] simply advances the clock
//! monotonically and dispatches.

use crate::event::{EventId, EventQueue};
use crate::time::SimTime;

/// State machine driven by the engine.
pub trait World {
    /// The event payload type.
    type Event;

    /// Handle one event. `now` is the event's timestamp; `sched` schedules
    /// follow-up events.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);

    /// Called by the engine after each event has been fully handled. `seq`
    /// is the 1-based count of events dispatched so far (a stable event
    /// id for audit logs). The default does nothing; worlds that audit
    /// themselves (e.g. checked-mode oracles) override it so the check
    /// runs on the *settled* post-event state, outside `handle`'s own
    /// control flow.
    fn after_event(&mut self, _now: SimTime, _seq: u64) {}
}

/// Handle for scheduling future events from within [`World::handle`] (or
/// from outside the loop, to seed the simulation). Backed by an
/// [`EventQueue`].
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at t = 0.
    pub fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time (timestamp of the event being handled).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`. Scheduling in the past is a
    /// logic error; the event is clamped to `now` to keep the clock
    /// monotone, which the engine asserts in debug builds.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.queue.schedule(at.max(self.now), event)
    }

    /// Schedules `event` after a delay from the current time.
    pub fn schedule_after(&mut self, delay: crate::time::SimDuration, event: E) -> EventId {
        let at = self.now + delay;
        self.queue.schedule(at, event)
    }

    /// Cancels a pending event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Drives a [`World`] until a horizon or until the event queue drains.
pub struct Engine<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
    processed: u64,
}

impl<W: World> Engine<W> {
    /// Wraps `world` with an empty event queue.
    pub fn new(world: W) -> Self {
        Engine {
            world,
            sched: Scheduler::new(),
            processed: 0,
        }
    }

    /// Access the world (e.g. to inspect results after the run).
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (e.g. to install initial state).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// The scheduler, for seeding initial events before `run_until`.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<W::Event> {
        &mut self.sched
    }

    /// Simultaneous mutable access to world and scheduler, for setup code
    /// that needs to schedule events based on world state.
    pub fn world_and_scheduler(&mut self) -> (&mut W, &mut Scheduler<W::Event>) {
        (&mut self.world, &mut self.sched)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Total number of events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Runs until the queue is empty or the next event is strictly after
    /// `horizon`. Events *at* the horizon are processed. Returns the final
    /// clock value (== horizon if the run was cut short, else the time of
    /// the last event).
    pub fn run_until(&mut self, horizon: SimTime) -> SimTime {
        while let Some(t) = self.sched.queue.peek_time() {
            if t > horizon {
                self.sched.now = horizon;
                return horizon;
            }
            let entry = self.sched.queue.pop().expect("peeked event exists");
            debug_assert!(entry.time >= self.sched.now, "event queue went backwards");
            self.sched.now = entry.time;
            self.processed += 1;
            dvmp_obs::note_dispatch(
                entry.time.as_secs(),
                self.processed,
                self.sched.queue.len() as u64,
            );
            {
                let _span = dvmp_obs::span!(dvmp_obs::Phase::EventDispatch);
                self.world
                    .handle(entry.time, entry.payload, &mut self.sched);
            }
            self.world.after_event(entry.time, self.processed);
        }
        self.sched.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Counts events and re-schedules itself `remaining` times.
    struct Ticker {
        fired_at: Vec<SimTime>,
        remaining: u32,
        period: SimDuration,
    }

    impl World for Ticker {
        type Event = ();

        fn handle(&mut self, now: SimTime, _: (), sched: &mut Scheduler<()>) {
            self.fired_at.push(now);
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.schedule_after(self.period, ());
            }
        }
    }

    #[test]
    fn periodic_self_scheduling() {
        let mut engine = Engine::new(Ticker {
            fired_at: vec![],
            remaining: 3,
            period: SimDuration::from_secs(10),
        });
        engine
            .scheduler_mut()
            .schedule_at(SimTime::from_secs(5), ());
        engine.run_until(SimTime::MAX);
        let times: Vec<u64> = engine
            .world()
            .fired_at
            .iter()
            .map(|t| t.as_secs())
            .collect();
        assert_eq!(times, vec![5, 15, 25, 35]);
        assert_eq!(engine.events_processed(), 4);
    }

    #[test]
    fn horizon_cuts_run_short() {
        let mut engine = Engine::new(Ticker {
            fired_at: vec![],
            remaining: 100,
            period: SimDuration::from_secs(10),
        });
        engine.scheduler_mut().schedule_at(SimTime::ZERO, ());
        let end = engine.run_until(SimTime::from_secs(35));
        assert_eq!(end, SimTime::from_secs(35));
        // events at 0,10,20,30 fired; 40 is pending
        assert_eq!(engine.world().fired_at.len(), 4);
        assert_eq!(engine.scheduler_mut().pending(), 1);
    }

    #[test]
    fn event_at_horizon_is_processed() {
        let mut engine = Engine::new(Ticker {
            fired_at: vec![],
            remaining: 0,
            period: SimDuration::SECOND,
        });
        engine
            .scheduler_mut()
            .schedule_at(SimTime::from_secs(50), ());
        engine.run_until(SimTime::from_secs(50));
        assert_eq!(engine.world().fired_at.len(), 1);
    }

    #[test]
    fn clock_is_monotone_across_ties() {
        struct Recorder(Vec<(SimTime, u8)>);
        impl World for Recorder {
            type Event = u8;
            fn handle(&mut self, now: SimTime, ev: u8, _: &mut Scheduler<u8>) {
                self.0.push((now, ev));
            }
        }
        let mut engine = Engine::new(Recorder(vec![]));
        let t = SimTime::from_secs(7);
        engine.scheduler_mut().schedule_at(t, 1);
        engine.scheduler_mut().schedule_at(t, 2);
        engine.scheduler_mut().schedule_at(t, 3);
        engine.run_until(SimTime::MAX);
        assert_eq!(
            engine.world().0,
            vec![(t, 1), (t, 2), (t, 3)],
            "ties dispatch in scheduling order"
        );
    }

    #[test]
    fn after_event_hook_sees_monotone_seq_and_time() {
        struct Audited {
            hooks: Vec<(SimTime, u64)>,
            remaining: u32,
        }
        impl World for Audited {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), sched: &mut Scheduler<()>) {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    sched.schedule_after(SimDuration::from_secs(5), ());
                }
            }
            fn after_event(&mut self, now: SimTime, seq: u64) {
                self.hooks.push((now, seq));
            }
        }
        let mut engine = Engine::new(Audited {
            hooks: vec![],
            remaining: 3,
        });
        engine.scheduler_mut().schedule_at(SimTime::ZERO, ());
        engine.run_until(SimTime::MAX);
        let seqs: Vec<u64> = engine.world().hooks.iter().map(|&(_, s)| s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4], "one hook per event, 1-based");
        assert!(
            engine.world().hooks.windows(2).all(|w| w[0].0 <= w[1].0),
            "hook times are monotone"
        );
    }

    #[test]
    fn horizon_between_two_pending_events() {
        // A horizon strictly between two pending events must stop the run
        // after the first, leave the later event pending, and pin the
        // clock to the horizon.
        let mut engine = Engine::new(Ticker {
            fired_at: vec![],
            remaining: 0,
            period: SimDuration::SECOND,
        });
        engine
            .scheduler_mut()
            .schedule_at(SimTime::from_secs(10), ());
        let world = {
            engine
                .scheduler_mut()
                .schedule_at(SimTime::from_secs(20), ());
            let end = engine.run_until(SimTime::from_secs(15));
            assert_eq!(end, SimTime::from_secs(15));
            engine.world()
        };
        assert_eq!(world.fired_at, vec![SimTime::from_secs(10)]);
        assert_eq!(engine.scheduler_mut().pending(), 1);
        // Resuming past the later event picks it up.
        engine.run_until(SimTime::from_secs(25));
        assert_eq!(engine.world().fired_at.len(), 2);
    }
}
