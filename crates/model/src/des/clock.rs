//! The DES's clock: virtual time in nanoseconds, a timed queue and
//! FIFO resources.
//!
//! The [`Engine`] hands events out in time order, ties in the order
//! they were scheduled, so a whole simulation replays bit for bit. A
//! [`Resource`] models an exclusive serial device — a NIC port, a disk,
//! a CPU — as a timeline: a request reserves the earliest interval that
//! starts no earlier than its ready time and no earlier than the end of
//! the interval granted before it. When requests are issued in
//! nondecreasing ready order, which a time-ordered event loop
//! guarantees, this is exactly FIFO queueing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual time in nanoseconds since simulation start.
pub(super) type SimTime = u64;

/// Convert seconds to [`SimTime`] nanoseconds, rounding.
#[inline]
pub(super) fn secs_to_ns(s: f64) -> SimTime {
    (s * 1e9).round() as SimTime
}

/// Convert [`SimTime`] nanoseconds to seconds.
#[inline]
pub(super) fn ns_to_secs(t: SimTime) -> f64 {
    t as f64 / 1e9
}

struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A deterministic timed queue: events come out in time order, ties in
/// the order they were scheduled.
pub(super) struct Engine<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    now: SimTime,
    seq: u64,
}

impl<E> Engine<E> {
    /// An empty queue at time 0.
    pub(super) fn new() -> Self {
        Engine {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
        }
    }

    /// Deliver `ev` at `at`, which must not be before the last event
    /// popped.
    pub(super) fn schedule(&mut self, at: SimTime, ev: E) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.heap.push(Reverse(Scheduled {
            time: at.max(self.now),
            seq: self.seq,
            ev,
        }));
        self.seq += 1;
    }

    /// The next event and its time; `None` once nothing is scheduled.
    pub(super) fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(next) = self.heap.pop()?;
        self.now = next.time;
        Some((next.time, next.ev))
    }
}

/// An exclusive serial device: when it is next free.
#[derive(Clone, Default)]
pub(super) struct Resource {
    free_at: SimTime,
}

impl Resource {
    /// Reserve the device for `duration` starting no earlier than
    /// `ready`. Returns the granted `(start, end)` interval.
    pub(super) fn acquire(&mut self, ready: SimTime, duration: SimTime) -> (SimTime, SimTime) {
        let start = ready.max(self.free_at);
        self.free_at = start + duration;
        (start, self.free_at)
    }

    /// Earliest time a new request could start service.
    pub(super) fn free_at(&self) -> SimTime {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn time_conversions_roundtrip() {
        assert_eq!(secs_to_ns(1.5), 1_500_000_000);
        assert!((ns_to_secs(2_000_000_000) - 2.0).abs() < 1e-12);
        assert_eq!(secs_to_ns(ns_to_secs(123_456_789)), 123_456_789);
    }

    /// Pop everything, relaying each event `hops > 0` on after `delay`
    /// with one hop fewer; the `(time, hops)` log.
    fn drain(eng: &mut Engine<u32>, delay: SimTime) -> Vec<(SimTime, u32)> {
        let mut log = Vec::new();
        while let Some((now, hops)) = eng.pop() {
            log.push((now, hops));
            if hops > 0 {
                eng.schedule(now + delay, hops - 1);
            }
        }
        log
    }

    #[test]
    fn events_deliver_in_time_order() {
        let mut eng = Engine::new();
        eng.schedule(30, 3);
        eng.schedule(10, 1);
        eng.schedule(20, 2);
        let log: Vec<_> = std::iter::from_fn(|| eng.pop()).collect();
        assert_eq!(log, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn ties_at_one_instant_break_in_scheduling_order() {
        let mut eng = Engine::new();
        for i in 0..10 {
            eng.schedule(5, i);
        }
        let payloads: Vec<u32> = std::iter::from_fn(|| eng.pop()).map(|(_, p)| p).collect();
        assert_eq!(payloads, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_scheduled_while_popping_are_delivered() {
        let mut eng = Engine::new();
        eng.schedule(0, 4);
        let log = drain(&mut eng, 7);
        assert_eq!(log.len(), 5);
        assert_eq!(log.last(), Some(&(28, 0)));
    }

    #[test]
    fn pop_returns_none_when_idle() {
        let mut eng: Engine<u32> = Engine::new();
        assert_eq!(eng.pop(), None);
    }

    #[test]
    fn identical_runs_are_bitwise_identical() {
        let run = || {
            let mut eng = Engine::new();
            eng.schedule(3, 10);
            eng.schedule(3, 5);
            drain(&mut eng, 7)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn acquire_is_fifo_and_work_conserving() {
        let mut r = Resource::default();
        // Immediate grant when idle.
        assert_eq!(r.acquire(0, 10), (0, 10));
        // Back-to-back requests queue.
        assert_eq!(r.acquire(0, 5), (10, 15));
        // A request arriving after the queue drains starts on arrival.
        assert_eq!(r.acquire(100, 1), (100, 101));
        assert_eq!(r.free_at(), 101);
    }

    #[test]
    fn zero_duration_grants_are_instant() {
        let mut r = Resource::default();
        assert_eq!(r.acquire(5, 0), (5, 5));
        assert_eq!(r.free_at(), 5);
    }

    #[test]
    fn serial_saturation_matches_sum_of_durations() {
        let mut r = Resource::default();
        let mut expected_end = 0;
        for d in [3u64, 7, 11, 2, 9] {
            let (_, end) = r.acquire(0, d);
            expected_end += d;
            assert_eq!(end, expected_end);
        }
    }

    /// Schedule `seeds`, then pop everything, relaying each payload
    /// `p > 0` on as `p / 2` after a payload-derived delay; the
    /// `(time, payload)` log and how many events were scheduled in all.
    fn run(seeds: &[(u64, u64)]) -> (Vec<(SimTime, u64)>, usize) {
        let mut eng = Engine::new();
        for &(at, payload) in seeds {
            eng.schedule(at, payload);
        }
        let (mut log, mut scheduled) = (Vec::new(), seeds.len());
        while let Some((now, payload)) = eng.pop() {
            log.push((now, payload));
            if payload > 0 {
                eng.schedule(now + payload % 97 + 1, payload / 2);
                scheduled += 1;
            }
        }
        (log, scheduled)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Delivery times never go backwards regardless of the scheduled
        /// order, and every scheduled event is delivered.
        #[test]
        fn time_is_monotone_and_delivery_complete(
            seeds in prop::collection::vec((0u64..1000, 0u64..20), 1..32),
        ) {
            let (log, scheduled) = run(&seeds);
            prop_assert_eq!(log.len(), scheduled);
            for w in log.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "time went backwards");
            }
        }

        /// Events scheduled for one instant come out in scheduling order.
        #[test]
        fn ties_break_in_scheduling_order(
            times in prop::collection::vec(0u64..8, 1..64),
        ) {
            let mut eng = Engine::new();
            for (i, &at) in times.iter().enumerate() {
                eng.schedule(at, i);
            }
            let popped: Vec<(SimTime, usize)> = std::iter::from_fn(|| eng.pop()).collect();
            let mut want: Vec<(SimTime, usize)> = times.iter().copied().zip(0..).collect();
            want.sort();
            prop_assert_eq!(popped, want);
        }

        /// The same schedule replayed twice produces an identical log.
        #[test]
        fn replay_is_deterministic(
            seeds in prop::collection::vec((0u64..1000, 0u64..20), 1..32),
        ) {
            prop_assert_eq!(run(&seeds), run(&seeds));
        }

        /// Resource grants are non-overlapping, FIFO-ordered, and work-
        /// conserving (no idle gap when a request was already waiting).
        #[test]
        fn resource_timeline_invariants(
            requests in prop::collection::vec((0u64..500, 1u64..50), 1..64),
        ) {
            // Issue in nondecreasing ready order, as a time-ordered loop does.
            let mut sorted = requests.clone();
            sorted.sort_by_key(|&(ready, _)| ready);
            let mut res = Resource::default();
            let mut prev_end = 0u64;
            for &(ready, dur) in &sorted {
                let (start, end) = res.acquire(ready, dur);
                prop_assert_eq!(end - start, dur);
                prop_assert!(start >= ready, "started before ready");
                prop_assert!(start >= prev_end, "grants overlap");
                // Work conservation: the device starts at max(ready, prev_end).
                prop_assert_eq!(start, ready.max(prev_end));
                prev_end = end;
            }
            prop_assert_eq!(res.free_at(), prev_end);
        }
    }
}
