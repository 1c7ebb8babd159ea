//! Model-based property tests: the event queue and the step series are
//! checked against trivially correct reference implementations under
//! random operation sequences.

use dvmp_simcore::series::StepSeries;
use dvmp_simcore::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

/// Operations on the event queue.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule at the given time (whole seconds).
    Schedule(u64),
    /// Cancel the n-th still-tracked event (mod live count).
    Cancel(u8),
    /// Pop one event.
    Pop,
}

/// Schedule times: mostly a dense range, so ties and near-ties are
/// common, plus times drawn from the whole `u64` range and the end of
/// time itself.
fn arb_time() -> impl Strategy<Value = u64> {
    prop_oneof![
        6 => 0u64..10_000,
        1 => any::<u64>(),
        1 => Just(u64::MAX),
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<QueueOp>> {
    prop::collection::vec(
        prop_oneof![
            arb_time().prop_map(QueueOp::Schedule),
            any::<u8>().prop_map(QueueOp::Cancel),
            Just(QueueOp::Pop),
        ],
        1..200,
    )
}

/// Gaps between up to ~2 000 ascending preloaded times, the way a
/// simulation seeds every arrival before its first dispatch.
fn arb_preload() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..120, 0..2_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The event queue behaves exactly like a sorted reference list under
    /// an ascending preload followed by any interleaving of schedule /
    /// cancel / peek / pop: same pop order, same ids, same live counts,
    /// same cancel return values, and the same full dispatch order when
    /// drained at the end.
    #[test]
    fn event_queue_matches_reference_model(
        preload in arb_preload(),
        ops in arb_ops(),
        peek in any::<bool>(),
    ) {
        let mut q = EventQueue::new();
        // Reference: Vec of (time, seq, id), sorted by (time, seq) on use.
        let mut model: Vec<(u64, u64, dvmp_simcore::EventId)> = Vec::new();
        let mut retired: Vec<dvmp_simcore::EventId> = Vec::new();
        let mut seq = 0u64;

        let mut t = 0u64;
        for gap in preload {
            t += gap;
            let id = q.schedule(SimTime::from_secs(t), seq);
            model.push((t, seq, id));
            seq += 1;
        }
        prop_assert_eq!(q.len(), model.len(), "preload is all live");

        for op in ops {
            match op {
                QueueOp::Schedule(t) => {
                    let id = q.schedule(SimTime::from_secs(t), seq);
                    model.push((t, seq, id));
                    seq += 1;
                }
                QueueOp::Cancel(n) => {
                    if !model.is_empty() {
                        let idx = n as usize % model.len();
                        let (_, _, id) = model.remove(idx);
                        prop_assert!(q.cancel(id), "live event must cancel");
                        retired.push(id);
                    } else if let Some(&id) = retired.last() {
                        // Cancelling something already popped or cancelled
                        // must be a rejected no-op.
                        prop_assert!(!q.cancel(id));
                    }
                }
                QueueOp::Pop => {
                    model.sort_by_key(|&(t, s, _)| (t, s));
                    if peek {
                        let expect = model.first().map(|&(t, _, _)| SimTime::from_secs(t));
                        prop_assert_eq!(q.peek_time(), expect);
                    }
                    let expect = if model.is_empty() {
                        None
                    } else {
                        let e = model.remove(0);
                        retired.push(e.2);
                        Some(e)
                    };
                    match (q.pop(), expect) {
                        (None, None) => {}
                        (Some(got), Some((t, s, id))) => {
                            prop_assert_eq!(got.time, SimTime::from_secs(t));
                            prop_assert_eq!(got.payload, s);
                            prop_assert_eq!(got.id, id);
                        }
                        (got, expect) => {
                            prop_assert!(false, "pop mismatch: got {got:?}, expected {expect:?}");
                        }
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len(), "live count tracks the model");
        }
        // Drain to the end: the full dispatch order must be the model's.
        model.sort_by_key(|&(t, s, _)| (t, s));
        let drained: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.as_secs(), e.payload, e.id))
            .collect();
        prop_assert_eq!(drained, model);
    }

    /// StepSeries integration equals a brute-force per-second sum.
    #[test]
    fn step_series_matches_naive_integration(
        changes in prop::collection::vec((0u64..500, 0u32..100), 1..40),
        window in (0u64..520, 0u64..520),
    ) {
        let mut sorted = changes.clone();
        sorted.sort_by_key(|&(t, _)| t);

        let mut series = StepSeries::new(0.0);
        for &(t, v) in &sorted {
            series.record(SimTime::from_secs(t), v as f64);
        }

        // Naive model: value at each second.
        let naive_value_at = |t: u64| -> f64 {
            sorted
                .iter()
                .rev()
                .find(|&&(ct, _)| ct <= t)
                .map_or(0.0, |&(_, v)| v as f64)
        };
        let (a, b) = window;
        let (from, to) = (a.min(b), a.max(b));
        let naive: f64 = (from..to).map(naive_value_at).sum();
        let got = series.integral(SimTime::from_secs(from), SimTime::from_secs(to));
        prop_assert!((got - naive).abs() < 1e-9, "integral {got} vs naive {naive}");

        // Point lookups agree everywhere.
        for t in [from, to, (from + to) / 2] {
            prop_assert_eq!(series.value_at(SimTime::from_secs(t)), naive_value_at(t));
        }
    }

    /// Bucketed integrals tile the total exactly for any bucket width.
    #[test]
    fn bucket_integrals_tile_the_total(
        changes in prop::collection::vec((0u64..2_000, 0u32..50), 1..30),
        bucket in 1u64..400,
        horizon in 1u64..2_200,
    ) {
        let mut sorted = changes;
        sorted.sort_by_key(|&(t, _)| t);
        let mut series = StepSeries::new(1.0);
        for &(t, v) in &sorted {
            series.record(SimTime::from_secs(t), v as f64);
        }
        let h = SimTime::from_secs(horizon);
        let total = series.integral(SimTime::ZERO, h);
        let parts: f64 = series
            .bucket_integrals(SimDuration::from_secs(bucket), h)
            .iter()
            .sum();
        prop_assert!((total - parts).abs() < 1e-9, "{total} vs {parts}");
    }
}
