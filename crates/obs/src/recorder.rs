//! The `Recorder` trait and its two implementations: the zero-cost
//! null recorder and the telemetry recorder.

use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use crate::event::Event;
use crate::ring::{chrome_trace, DumpTrigger, Ring, TimelineEvent};
use crate::store::{MetricsSnapshot, Store};

/// A sink for instrumentation events.
///
/// Every layer of the stack (`panda-msg` transports, `panda-fs`
/// backends, the `panda-core` client/server) reports through this one
/// trait. `node` is the reporter's global fabric rank (clients
/// `0..C`, servers `C..C+S`); layers that have no rank report `0`.
///
/// # Zero cost when disabled
///
/// Emitting an event usually requires reading the clock (to measure a
/// duration) and building an [`Event`]. Call sites MUST gate that work
/// on [`Recorder::enabled`]; [`NullRecorder`] returns `false` so a
/// non-instrumented run performs no clock reads and no event
/// construction on the hot path.
pub trait Recorder: fmt::Debug + Send + Sync {
    /// Whether events should be constructed and durations measured at
    /// all. Hot paths check this before doing any instrumentation work.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event from node `node`. Must be cheap and must never
    /// block for long: it is called on the collective hot path.
    fn record(&self, node: u32, event: &Event<'_>);

    /// The retained event window, if this recorder keeps a ring.
    fn timeline(&self) -> Option<Vec<TimelineEvent>> {
        None
    }

    /// Number of events dropped (ring overflow); zero for recorders
    /// that never drop.
    fn dropped(&self) -> u64 {
        0
    }

    /// A snapshot of the aggregate store, if this recorder keeps one.
    /// Lets scrape surfaces, the drift detector and run reports reach
    /// it through an `Arc<dyn Recorder>` without downcasting.
    fn metrics(&self) -> Option<MetricsSnapshot> {
        None
    }
}

/// The telemetry recorder: one aggregate store (see [`crate::store`])
/// and, optionally, one bounded event ring (see [`crate::ring`]).
///
/// * [`TelemetryRecorder::new`] — store only: cheap enough to leave
///   on; serves `/metrics`, the drift detector and aggregate
///   [`crate::RunReport`]s.
/// * [`TelemetryRecorder::with_ring`] — adds the ring, so
///   [`Recorder::timeline`] is `Some`: Chrome traces, per-subchunk and
///   per-request reports, calibration.
/// * [`TelemetryRecorder::with_trigger`] — arms the ring to dump itself
///   on incidents (admission rejection, request error, SLO breach).
///
/// One instance attached through `PandaConfig::with_recorder` serves
/// all of those at once.
#[derive(Debug)]
pub struct TelemetryRecorder {
    store: Store,
    ring: Option<Ring>,
}

impl Default for TelemetryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryRecorder {
    /// A store-only recorder.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// A recorder whose ring retains the last `capacity` events
    /// ([`crate::DEFAULT_RING_CAPACITY`] unless there is a reason to
    /// differ).
    pub fn with_ring(capacity: usize) -> Self {
        Self::build(Some(Ring::new(capacity, None)))
    }

    /// A recorder whose ring retains the last `capacity` events and
    /// dumps them as a Chrome trace whenever `trigger` sees an incident.
    pub fn with_trigger(capacity: usize, trigger: DumpTrigger) -> Self {
        Self::build(Some(Ring::new(capacity, Some(trigger))))
    }

    fn build(ring: Option<Ring>) -> Self {
        TelemetryRecorder {
            store: Store::new(),
            ring,
        }
    }

    /// Snapshot the aggregate store (epoch-consistent; see
    /// [`MetricsSnapshot`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.store.snapshot()
    }

    /// Serialize the retained events as a Chrome `trace_event` JSON
    /// document via [`chrome_trace`] (an empty trace without a ring).
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace(&self.timeline().unwrap_or_default())
    }

    /// Write the retained window to
    /// `<dir>/flight-<seq>-<reason>.trace.json` now and return the
    /// path; not counted against the trigger's automatic-dump cap.
    /// `None` without a trigger, or if the file could not be written.
    pub fn dump_now(&self, reason: &str) -> Option<PathBuf> {
        let ring = self.ring.as_ref()?;
        ring.trigger.as_ref()?.write(reason, &ring.events())
    }

    /// Paths of every dump written so far, oldest first.
    pub fn dumps(&self) -> Vec<PathBuf> {
        let trigger = self.ring.as_ref().and_then(|r| r.trigger.as_ref());
        trigger.map_or_else(Vec::new, DumpTrigger::dumps)
    }
}

impl Recorder for TelemetryRecorder {
    fn record(&self, node: u32, event: &Event<'_>) {
        self.store.record(node, event);
        if let Some(ring) = &self.ring {
            let ts_nanos = self.store.epoch.elapsed().as_nanos() as u64;
            ring.push(ts_nanos, node, event);
        }
    }

    fn timeline(&self) -> Option<Vec<TimelineEvent>> {
        self.ring.as_ref().map(Ring::events)
    }

    fn dropped(&self) -> u64 {
        self.ring.as_ref().map_or(0, Ring::dropped)
    }

    fn metrics(&self) -> Option<MetricsSnapshot> {
        Some(self.snapshot())
    }
}

/// A recorder that does nothing. `enabled()` is `false`, so call sites
/// skip event construction entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _node: u32, _event: &Event<'_>) {}
}

/// The shared null recorder: a cached `Arc` so defaulting a recorder
/// field costs one clone, not an allocation.
pub fn null_recorder() -> Arc<dyn Recorder> {
    static NULL: OnceLock<Arc<NullRecorder>> = OnceLock::new();
    NULL.get_or_init(|| Arc::new(NullRecorder)).clone() as Arc<dyn Recorder>
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        let rec = null_recorder();
        assert!(!rec.enabled());
        rec.record(
            0,
            &Event::RequestIssued {
                request: 0,
                op: crate::OpDir::Write,
                arrays: 1,
                pipeline_depth: 1,
            },
        );
        assert!(rec.metrics().is_none());
        assert!(rec.timeline().is_none());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn store_only_recorder_keeps_no_ring() {
        let rec = TelemetryRecorder::new();
        rec.record(
            3,
            &Event::RequestIssued {
                request: 1 << 32,
                op: crate::OpDir::Read,
                arrays: 1,
                pipeline_depth: 1,
            },
        );
        assert!(rec.enabled());
        assert!(rec.timeline().is_none());
        assert_eq!(rec.dropped(), 0);
        assert!(rec.dumps().is_empty() && rec.dump_now("x").is_none());
        crate::json::validate(&rec.to_chrome_trace()).expect("empty trace is valid");
        let snap = rec.metrics().expect("every telemetry recorder has a store");
        assert_eq!(snap.kind(crate::EventKind::RequestIssued).count, 1);
    }

    #[test]
    fn null_recorder_is_shared() {
        let a = null_recorder();
        let b = null_recorder();
        // Both handles come from the same cached allocation.
        assert!(std::ptr::eq(
            Arc::as_ptr(&a) as *const u8,
            Arc::as_ptr(&b) as *const u8
        ));
    }
}
