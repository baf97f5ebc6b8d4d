//! # panda-obs — one instrumentation API for the whole Panda stack
//!
//! The paper's entire evaluation (§4, Figures 3–9) rests on *decomposed*
//! timings — client exchange time vs. disk time vs. reorganization cost.
//! This crate is the reproduction's equivalent: a single [`Recorder`]
//! trait that every layer reports through, so one run can answer "where
//! did subchunk *k* spend its time" instead of offering disconnected
//! per-crate counters.
//!
//! * [`Event`] — the typed event vocabulary. A server records what it
//!   did for each step of its schedule as one [`Event::Step`], named by
//!   its action ([`StepAction`]: a piece fetched, a subchunk written or
//!   read, a piece pushed or copied, a write synced), keyed by
//!   [`SubchunkKey`] `(request, server, array, subchunk)` and by the
//!   wire's `seq`; the
//!   action alone says which phase its duration is
//!   ([`StepAction::phase`]). Transport events carry tags and byte
//!   counts; file-system events carry per-call device time.
//! * [`Recorder`] — the sink trait. Two implementations:
//!   * [`NullRecorder`] — does nothing; `enabled()` returns `false` so
//!     call sites skip clock reads entirely (zero cost when disabled);
//!   * [`TelemetryRecorder`] — one **store** and, optionally, one
//!     **ring**. The store ([`store`]) is a sharded registry of
//!     per-kind and per-phase counters, log₂ latency histograms,
//!     per-tenant ledgers,
//!     the fs sequentiality tally and per-tag send counts, one mutex
//!     per shard, snapshotted under every shard lock at once into a
//!     [`MetricsSnapshot`] (Prometheus text via
//!     [`MetricsSnapshot::to_prometheus`]). The ring ([`ring`]) is a
//!     bounded buffer of recent [`TimelineEvent`]s with Chrome
//!     `trace_event` export; armed with a [`DumpTrigger`] it dumps
//!     itself on admission rejections, request errors and
//!     SLO-breaching collectives.
//! * [`RunReport`] — aggregates a recorder into one machine-readable
//!   JSON run report: phase totals (exchange / disk / reorganization /
//!   throttle) and per-kind counters from the store, and — with a
//!   ring — wall span, per-node phase sums and per-subchunk phase
//!   durations.
//!
//! One attached recorder therefore serves the `/metrics` scrape
//! surface, run reports, calibration and incident dumps at once. The always-on `panda_fs::IoStats` /
//! `panda_msg::FabricStats` counters are deliberately *not* stores:
//! they are a handful of plain atomics fed by the same events.
//!
//! The crate has no dependency on the rest of the workspace; `panda-msg`,
//! `panda-fs`, and `panda-core` all depend on it and report through the
//! same trait.

#![warn(missing_docs)]

pub mod calibrate;
pub mod event;
pub mod json;
pub mod recorder;
pub mod report;
pub mod ring;
pub mod store;

pub use calibrate::{CalibrationSummary, PhaseStats};
pub use event::{Event, EventKind, OpDir, Phase, StepAction, SubchunkKey, KIND_COUNT};
pub use recorder::{null_recorder, NullRecorder, Recorder, TelemetryRecorder};
pub use report::{NodePhases, PhaseTotals, RunReport, SubchunkPhases, REPORT_SCHEMA};
pub use ring::{
    chrome_trace, DumpTrigger, TimelineEvent, DEFAULT_MAX_DUMPS, DEFAULT_RING_CAPACITY,
};
pub use store::{
    tenant_of, KindCounter, LatencyBuckets, MetricsSnapshot, PhaseMetrics, TagStats, TenantMetrics,
};
