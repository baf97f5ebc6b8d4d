//! Machine-readable run reports: the paper-style phase decomposition
//! aggregated from any [`Recorder`].

use std::collections::BTreeMap;

use crate::event::{EventKind, Phase, SubchunkKey};
use crate::json;
use crate::recorder::Recorder;
use crate::ring::TimelineEvent;
use crate::store::MetricsSnapshot;

/// Schema tag written into every report so consumers can sanity-check
/// what they are reading.
pub const REPORT_SCHEMA: &str = "panda-obs-run-report-v1";

/// Summed seconds per [`Phase`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    secs: [f64; Phase::ALL.len()],
}

impl PhaseTotals {
    /// Seconds accumulated in `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        self.secs[phase as usize]
    }

    /// Add `secs` to `phase`.
    pub fn add(&mut self, phase: Phase, secs: f64) {
        self.secs[phase as usize] += secs;
    }

    /// Append the member `"key":{"exchange_s":…,…}`.
    fn push_member(&self, out: &mut String, key: &str) {
        json::push_key(out, key);
        out.push('{');
        for phase in Phase::ALL {
            json::member_f64(out, &format!("{}_s", phase.label()), self.get(phase));
        }
        out.push('}');
    }
}

/// Phase totals for one node (fabric rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePhases {
    /// The node's fabric rank (clients `0..C`, servers `C..C+S`).
    pub node: u32,
    /// Its phase totals.
    pub phases: PhaseTotals,
}

/// Phase durations attributed to one subchunk (ring runs only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubchunkPhases {
    /// Which subchunk.
    pub key: SubchunkKey,
    /// Subchunk size in bytes (best known value).
    pub bytes: u64,
    /// Server time blocked waiting for this subchunk's client data.
    pub exchange_s: f64,
    /// Disk time spent writing/reading this subchunk.
    pub disk_s: f64,
    /// Reorganization (pack/scatter) time for this subchunk.
    pub reorg_s: f64,
}

/// One machine-readable run report, aggregated from a [`Recorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Wall-clock span covered by the retained events, seconds (zero
    /// when the recorder keeps no ring).
    pub wall_s: f64,
    /// Phase totals summed over all nodes.
    pub phases: PhaseTotals,
    /// Phase totals per node, sorted by rank (ring runs only).
    pub per_node: Vec<NodePhases>,
    /// Phase durations per subchunk, sorted by key (ring runs only).
    pub per_subchunk: Vec<SubchunkPhases>,
    /// Seconds during which a node was doing measured subchunk work
    /// (exchange / disk / reorg) for two *different* arrays at once,
    /// summed over nodes (ring runs only). Nonzero only when group
    /// scheduling actually interleaves arrays; a strict
    /// array-at-a-time run reports 0.
    pub cross_array_overlap_s: f64,
    /// The aggregate store's snapshot, if the recorder keeps one.
    pub counters: Option<MetricsSnapshot>,
    /// Events dropped by the recorder (ring overflow).
    pub dropped_events: u64,
}

impl RunReport {
    /// Aggregate `recorder` into a report. A store-only
    /// [`crate::TelemetryRecorder`] yields phase totals and counters,
    /// one with a ring additionally yields wall span and per-node /
    /// per-subchunk decompositions (of the retained window), a
    /// [`crate::NullRecorder`] yields an empty report.
    pub fn from_recorder(recorder: &dyn Recorder) -> RunReport {
        let counters = recorder.metrics();
        let mut phases = PhaseTotals::default();
        for p in counters.iter().flat_map(|snap| &snap.phases) {
            phases.add(p.phase, p.secs);
        }
        let events = recorder.timeline().unwrap_or_default();
        RunReport {
            counters,
            ..RunReport::over(&events, phases, recorder.dropped())
        }
    }

    /// Aggregate only the events of one collective request. Concurrent
    /// collectives interleave on shared nodes; this filters the
    /// timeline by request id before decomposing, so one request's
    /// report never absorbs another's exchange/disk/reorg time.
    /// Requires a recorder with a ring — the store is not
    /// request-scoped, so `counters` is always `None` here and phase
    /// totals come from the filtered events.
    pub fn for_request(recorder: &dyn Recorder, request: u64) -> RunReport {
        let events: Vec<TimelineEvent> = recorder
            .timeline()
            .unwrap_or_default()
            .into_iter()
            .filter(|e| e.request == Some(request))
            .collect();
        let mut phases = PhaseTotals::default();
        for e in &events {
            if let Some(phase) = e.kind.phase() {
                phases.add(phase, e.dur_nanos as f64 / 1e9);
            }
        }
        RunReport::over(&events, phases, recorder.dropped())
    }

    /// The ring-derived part of a report over `events` (all zero/empty
    /// when there are none), with no counters.
    fn over(events: &[TimelineEvent], phases: PhaseTotals, dropped_events: u64) -> RunReport {
        RunReport {
            wall_s: wall_span(events),
            phases,
            per_node: per_node_phases(events),
            per_subchunk: per_subchunk_phases(events),
            cross_array_overlap_s: cross_array_overlap(events),
            counters: None,
            dropped_events,
        }
    }

    /// Total exchange-phase seconds (servers blocked on client data).
    pub fn exchange_s(&self) -> f64 {
        self.phases.get(Phase::Exchange)
    }

    /// Total disk-phase seconds (positioned reads and writes).
    pub fn disk_s(&self) -> f64 {
        self.phases.get(Phase::Disk)
    }

    /// Total reorganization seconds (pack/scatter CPU time).
    pub fn reorg_s(&self) -> f64 {
        self.phases.get(Phase::Reorg)
    }

    /// Serialize as one JSON object (schema [`REPORT_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let o = &mut out;
        o.push('{');
        json::member_str(o, "schema", REPORT_SCHEMA);
        json::member_f64(o, "wall_s", self.wall_s);
        json::member_f64(o, "cross_array_overlap_s", self.cross_array_overlap_s);
        json::member(o, "dropped_events", self.dropped_events);
        self.phases.push_member(o, "phases");
        json::push_key(o, "per_node");
        o.push('[');
        for n in &self.per_node {
            json::push_sep(o);
            o.push('{');
            json::member(o, "node", n.node);
            n.phases.push_member(o, "phases");
            o.push('}');
        }
        o.push(']');
        json::push_key(o, "per_subchunk");
        o.push('[');
        for s in &self.per_subchunk {
            json::push_sep(o);
            o.push('{');
            json::member(o, "request", s.key.request);
            json::member(o, "server", s.key.server);
            json::member(o, "array", s.key.array);
            json::member(o, "subchunk", s.key.subchunk);
            json::member(o, "bytes", s.bytes);
            json::member_f64(o, "exchange_s", s.exchange_s);
            json::member_f64(o, "disk_s", s.disk_s);
            json::member_f64(o, "reorg_s", s.reorg_s);
            o.push('}');
        }
        o.push(']');
        if let Some(snap) = &self.counters {
            json::push_key(o, "counters");
            o.push('{');
            json::member(o, "fs_sequential", snap.fs_sequential);
            json::member(o, "fs_seeks", snap.fs_seeks);
            json::push_key(o, "kinds");
            o.push('[');
            for k in snap.kinds.iter().filter(|k| k.count > 0) {
                json::push_sep(o);
                o.push('{');
                json::member_str(o, "kind", k.kind.name());
                json::member(o, "count", k.count);
                json::member(o, "bytes", k.bytes);
                json::member_f64(o, "secs", k.secs);
                json::member_f64(o, "p50_s", k.latency.quantile(0.50));
                json::member_f64(o, "p99_s", k.latency.quantile(0.99));
                o.push('}');
            }
            o.push(']');
            json::push_key(o, "tags");
            o.push('[');
            for t in &snap.tags {
                json::push_sep(o);
                o.push('{');
                json::member(o, "tag", t.tag);
                json::member(o, "msgs", t.msgs);
                json::member(o, "bytes", t.bytes);
                o.push('}');
            }
            o.push_str("]}");
        }
        o.push('}');
        out
    }
}

/// Wall span covered by `events`: latest end minus earliest start.
fn wall_span(events: &[TimelineEvent]) -> f64 {
    let start = events
        .iter()
        .map(TimelineEvent::start_nanos)
        .min()
        .unwrap_or(0);
    let end = events.iter().map(|e| e.ts_nanos).max().unwrap_or(0);
    end.saturating_sub(start) as f64 / 1e9
}

fn per_node_phases(events: &[TimelineEvent]) -> Vec<NodePhases> {
    let mut map: BTreeMap<u32, PhaseTotals> = BTreeMap::new();
    for e in events {
        if let Some(phase) = e.kind.phase() {
            map.entry(e.node)
                .or_default()
                .add(phase, e.dur_nanos as f64 / 1e9);
        }
    }
    map.into_iter()
        .map(|(node, phases)| NodePhases { node, phases })
        .collect()
}

/// Seconds a node spent inside keyed, duration-carrying events of two
/// different arrays simultaneously, summed over nodes. Each (node,
/// array)'s busy intervals are merged into a disjoint union first, so a
/// node overlapping itself within one array contributes nothing.
fn cross_array_overlap(events: &[TimelineEvent]) -> f64 {
    let mut busy: BTreeMap<(u32, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for e in events {
        let Some(key) = e.key else { continue };
        if e.dur_nanos == 0 {
            continue;
        }
        busy.entry((e.node, key.array))
            .or_default()
            .push((e.start_nanos(), e.ts_nanos));
    }
    // Merge each (node, array) interval set into a disjoint union.
    let mut merged: BTreeMap<u32, Vec<Vec<(u64, u64)>>> = BTreeMap::new();
    for ((node, _array), mut spans) in busy {
        spans.sort_unstable();
        let mut union: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
        for (s, e) in spans {
            match union.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => union.push((s, e)),
            }
        }
        merged.entry(node).or_default().push(union);
    }
    let mut overlap_nanos = 0u64;
    for arrays in merged.values() {
        for (i, a) in arrays.iter().enumerate() {
            for b in &arrays[i + 1..] {
                // Two-pointer sweep over two sorted disjoint unions.
                let (mut x, mut y) = (0usize, 0usize);
                while x < a.len() && y < b.len() {
                    let lo = a[x].0.max(b[y].0);
                    let hi = a[x].1.min(b[y].1);
                    overlap_nanos += hi.saturating_sub(lo);
                    if a[x].1 <= b[y].1 {
                        x += 1;
                    } else {
                        y += 1;
                    }
                }
            }
        }
    }
    overlap_nanos as f64 / 1e9
}

fn per_subchunk_phases(events: &[TimelineEvent]) -> Vec<SubchunkPhases> {
    let mut map: BTreeMap<SubchunkKey, SubchunkPhases> = BTreeMap::new();
    for e in events {
        let Some(key) = e.key else { continue };
        let entry = map.entry(key).or_insert(SubchunkPhases {
            key,
            bytes: 0,
            exchange_s: 0.0,
            disk_s: 0.0,
            reorg_s: 0.0,
        });
        // Best size estimate: the planner's figure, or the disk call's.
        if matches!(
            e.kind,
            EventKind::SubchunkPlanned | EventKind::DiskWriteDone | EventKind::DiskReadDone
        ) {
            entry.bytes = entry.bytes.max(e.bytes);
        }
        let secs = e.dur_nanos as f64 / 1e9;
        match e.kind.phase() {
            Some(Phase::Exchange) => entry.exchange_s += secs,
            Some(Phase::Disk) => entry.disk_s += secs,
            Some(Phase::Reorg) => entry.reorg_s += secs,
            _ => {}
        }
    }
    map.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::recorder::null_recorder;
    use crate::recorder::TelemetryRecorder;
    use std::time::Duration;

    fn drive(rec: &TelemetryRecorder) {
        let k0 = SubchunkKey::new(0, 0, 0);
        let k1 = SubchunkKey::new(0, 0, 1);
        rec.record(
            2,
            &Event::SubchunkPlanned {
                key: k0,
                bytes: 256,
            },
        );
        rec.record(
            2,
            &Event::FetchReplied {
                key: k0,
                bytes: 256,
                wait: Duration::from_millis(4),
            },
        );
        rec.record(
            2,
            &Event::DiskWriteDone {
                key: k0,
                offset: 0,
                bytes: 256,
                dur: Duration::from_millis(6),
            },
        );
        rec.record(
            3,
            &Event::DiskWriteDone {
                key: k1,
                offset: 256,
                bytes: 512,
                dur: Duration::from_millis(2),
            },
        );
    }

    #[test]
    fn aggregates_phases_nodes_and_subchunks() {
        let rec = TelemetryRecorder::with_ring(64);
        drive(&rec);
        let report = RunReport::from_recorder(&rec);
        assert!((report.phases.get(Phase::Exchange) - 0.004).abs() < 1e-9);
        assert!((report.phases.get(Phase::Disk) - 0.008).abs() < 1e-9);
        assert!(report.wall_s > 0.0);
        assert_eq!(report.per_node.len(), 2);
        assert_eq!(report.per_node[0].node, 2);
        assert!((report.per_node[1].phases.get(Phase::Disk) - 0.002).abs() < 1e-9);
        assert_eq!(report.per_subchunk.len(), 2);
        let s0 = &report.per_subchunk[0];
        assert_eq!(s0.key, SubchunkKey::new(0, 0, 0));
        assert_eq!(s0.bytes, 256);
        assert!((s0.exchange_s - 0.004).abs() < 1e-9);
        assert!((s0.disk_s - 0.006).abs() < 1e-9);
        assert_eq!(report.dropped_events, 0);
        assert!(report.counters.is_some());
    }

    #[test]
    fn json_report_is_valid() {
        let rec = TelemetryRecorder::with_ring(64);
        drive(&rec);
        let report = RunReport::from_recorder(&rec);
        let doc = report.to_json();
        json::validate(&doc).unwrap();
        assert!(doc.contains("\"schema\":\"panda-obs-run-report-v1\""));
        assert!(doc.contains("\"exchange_s\""));
        assert!(doc.contains("\"per_subchunk\""));
        assert!(doc.contains("\"kind\":\"disk_write_done\""));
    }

    #[test]
    fn cross_array_overlap_requires_two_arrays() {
        // One array only → busy intervals belong to a single (node,
        // array) union → no overlap, however much they self-overlap.
        let rec = TelemetryRecorder::with_ring(64);
        drive(&rec);
        let report = RunReport::from_recorder(&rec);
        assert_eq!(report.cross_array_overlap_s, 0.0);

        // Two back-to-back recordings for different arrays on one node:
        // their measured spans (stamped [now-dur, now]) overlap.
        let rec = TelemetryRecorder::with_ring(64);
        rec.record(
            2,
            &Event::DiskWriteDone {
                key: SubchunkKey::new(0, 0, 0),
                offset: 0,
                bytes: 64,
                dur: Duration::from_millis(50),
            },
        );
        rec.record(
            2,
            &Event::FetchReplied {
                key: SubchunkKey::new(0, 1, 0),
                bytes: 64,
                wait: Duration::from_millis(50),
            },
        );
        let report = RunReport::from_recorder(&rec);
        assert!(
            report.cross_array_overlap_s > 0.0,
            "overlapping spans of different arrays must register"
        );
        assert!(report.to_json().contains("\"cross_array_overlap_s\""));
    }

    #[test]
    fn per_request_reports_do_not_blend() {
        // Two concurrent requests on one node: each scoped report sees
        // only its own disk time; the global report sees both.
        let rec = TelemetryRecorder::with_ring(64);
        rec.record(
            2,
            &Event::DiskWriteDone {
                key: SubchunkKey::scoped(11, 0, 0, 0),
                offset: 0,
                bytes: 256,
                dur: Duration::from_millis(6),
            },
        );
        rec.record(
            2,
            &Event::DiskWriteDone {
                key: SubchunkKey::scoped(12, 0, 0, 0),
                offset: 0,
                bytes: 512,
                dur: Duration::from_millis(2),
            },
        );
        let global = RunReport::from_recorder(&rec);
        assert!((global.phases.get(Phase::Disk) - 0.008).abs() < 1e-9);

        let r11 = RunReport::for_request(&rec, 11);
        assert!((r11.phases.get(Phase::Disk) - 0.006).abs() < 1e-9);
        assert_eq!(r11.per_subchunk.len(), 1);
        assert_eq!(r11.per_subchunk[0].key.request, 11);
        assert_eq!(r11.per_subchunk[0].bytes, 256);
        assert!(r11.to_json().contains("\"request\":11"));

        let r12 = RunReport::for_request(&rec, 12);
        assert!((r12.phases.get(Phase::Disk) - 0.002).abs() < 1e-9);

        let empty = RunReport::for_request(&rec, 99);
        assert_eq!(empty.per_subchunk.len(), 0);
        assert_eq!(empty.wall_s, 0.0);
    }

    #[test]
    fn unknown_request_yields_empty_report_on_any_recorder() {
        // Timeline recorder with traffic: scoping to an id that never
        // ran is an empty report, not a panic, and still serializes.
        let rec = TelemetryRecorder::with_ring(64);
        drive(&rec);
        let report = RunReport::for_request(&rec, 424242);
        assert_eq!(report.wall_s, 0.0);
        assert!(report.per_subchunk.is_empty());
        assert!(report.per_node.is_empty());
        assert!(report.counters.is_none());
        for phase in Phase::ALL {
            assert_eq!(report.phases.get(phase), 0.0);
        }
        json::validate(&report.to_json()).unwrap();

        // Recorders with no timeline at all (NullRecorder) degrade the
        // same way — `timeline()` is None, not an error.
        let null = null_recorder();
        let report = RunReport::for_request(null.as_ref(), 1);
        assert_eq!(report.wall_s, 0.0);
        assert!(report.per_subchunk.is_empty());
    }

    #[test]
    fn mid_run_scope_only_counts_completed_subchunks() {
        // Phase durations are stamped when a subchunk's stage
        // completes, so a report taken mid-run contains exactly the
        // completed subchunks — an in-flight one contributes nothing
        // until its events land.
        let rec = TelemetryRecorder::with_ring(64);
        rec.record(
            2,
            &Event::DiskWriteDone {
                key: SubchunkKey::scoped(7, 0, 0, 0),
                offset: 0,
                bytes: 256,
                dur: Duration::from_millis(3),
            },
        );
        let mid = RunReport::for_request(&rec, 7);
        assert_eq!(mid.per_subchunk.len(), 1);
        assert_eq!(mid.per_subchunk[0].key.subchunk, 0);
        assert!((mid.disk_s() - 0.003).abs() < 1e-9);

        // Subchunk 1 finishes after the snapshot: the old report is
        // unchanged, a fresh scope sees both.
        rec.record(
            2,
            &Event::DiskWriteDone {
                key: SubchunkKey::scoped(7, 0, 0, 1),
                offset: 256,
                bytes: 256,
                dur: Duration::from_millis(5),
            },
        );
        assert_eq!(mid.per_subchunk.len(), 1);
        let done = RunReport::for_request(&rec, 7);
        assert_eq!(done.per_subchunk.len(), 2);
        assert!((done.disk_s() - 0.008).abs() < 1e-9);
    }

    #[test]
    fn phase_accessors_mirror_totals() {
        let rec = TelemetryRecorder::with_ring(64);
        drive(&rec);
        let report = RunReport::from_recorder(&rec);
        assert_eq!(report.exchange_s(), report.phases.get(Phase::Exchange));
        assert_eq!(report.disk_s(), report.phases.get(Phase::Disk));
        assert_eq!(report.reorg_s(), report.phases.get(Phase::Reorg));
        assert!((report.exchange_s() - 0.004).abs() < 1e-9);
        assert!((report.disk_s() - 0.008).abs() < 1e-9);
    }

    #[test]
    fn null_recorder_yields_empty_report() {
        let rec = null_recorder();
        let report = RunReport::from_recorder(rec.as_ref());
        assert_eq!(report.wall_s, 0.0);
        assert!(report.per_node.is_empty());
        assert!(report.per_subchunk.is_empty());
        assert!(report.counters.is_none());
        json::validate(&report.to_json()).unwrap();
    }
}
