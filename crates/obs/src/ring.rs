//! The ring: one bounded buffer of recent events with Chrome
//! `trace_event` export and an optional incident dump trigger.
//!
//! Without a trigger the ring is a *timeline* — you attach it when you
//! intend to look at a trace or need per-subchunk rows (calibration,
//! [`crate::RunReport::for_request`]), and export on request. With a
//! [`DumpTrigger`] it is a *flight recorder*: when an incident occurs
//! it writes the retained window to disk as a Chrome trace, so the
//! moments before a failure are preserved without anyone having asked
//! in advance. Incidents are:
//!
//! * an admission rejection ([`Event::AdmissionReject`] — the service
//!   surfaced `PandaError::Admission` to a submitter);
//! * a request failure ([`Event::RequestError`]);
//! * a collective completing over the configured latency SLO
//!   ([`DumpTrigger::with_slo`]).
//!
//! Automatic dumps are capped ([`DumpTrigger::with_max_dumps`]) so a
//! reject storm cannot fill the disk; operator-initiated dumps are not
//! counted against the cap.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::event::{Event, EventKind, SubchunkKey};
use crate::json;

/// Default ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Default cap on automatic incident dumps.
pub const DEFAULT_MAX_DUMPS: usize = 8;

/// One recorded event, flattened for storage and export. `ts_nanos` is
/// the event's *end* time relative to the recorder's epoch; subtract
/// `dur_nanos` for the start time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// End timestamp, nanoseconds since the recorder was created.
    pub ts_nanos: u64,
    /// Reporting node's fabric rank.
    pub node: u32,
    /// Event kind.
    pub kind: EventKind,
    /// Collective request id, for request-scoped events.
    pub request: Option<u64>,
    /// Subchunk key, for keyed events.
    pub key: Option<SubchunkKey>,
    /// Bytes the event accounts for.
    pub bytes: u64,
    /// Duration the event carries, in nanoseconds (zero if none).
    pub dur_nanos: u64,
    /// Peer rank (fetch/push client, message source/destination).
    pub peer: Option<u32>,
    /// Message tag, for transport events.
    pub tag: Option<u32>,
    /// Sequential-or-seek classification, for file-system accesses.
    pub sequential: Option<bool>,
    /// File name, for file-system events.
    pub label: Option<String>,
}

impl TimelineEvent {
    /// Start timestamp (end minus duration), nanoseconds since epoch.
    pub fn start_nanos(&self) -> u64 {
        self.ts_nanos.saturating_sub(self.dur_nanos)
    }

    /// Flatten a borrowed [`Event`] into an owned record, stamping its
    /// end time as `elapsed` nanoseconds since the caller's epoch. This
    /// is the one place event fields are projected into storage form.
    pub fn from_event(ts_nanos: u64, node: u32, event: &Event<'_>) -> Self {
        TimelineEvent {
            ts_nanos,
            node,
            kind: event.kind(),
            request: event.request(),
            key: event.key(),
            bytes: event.bytes(),
            dur_nanos: event.dur().unwrap_or(Duration::ZERO).as_nanos() as u64,
            peer: event.peer(),
            tag: event.tag(),
            sequential: event.sequential(),
            label: event.label().map(str::to_owned),
        }
    }
}

/// Serialize `events` as a Chrome `trace_event` JSON document
/// (`{"traceEvents": [...]}`), loadable in `about:tracing` or Perfetto.
/// Duration-carrying events become complete (`"X"`) events; the rest
/// become instants (`"i"`). `tid` is the node rank.
pub fn chrome_trace(events: &[TimelineEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    let o = &mut out;
    o.push_str("{\"traceEvents\":[");
    for e in events {
        json::push_sep(o);
        o.push('{');
        json::member_str(o, "name", e.kind.name());
        json::member(o, "pid", 1);
        json::member(o, "tid", e.node);
        if e.dur_nanos > 0 {
            json::member_str(o, "ph", "X");
            json::member_f64(o, "ts", e.start_nanos() as f64 / 1e3);
            json::member_f64(o, "dur", e.dur_nanos as f64 / 1e3);
        } else {
            json::member_str(o, "ph", "i");
            json::member_str(o, "s", "t");
            json::member_f64(o, "ts", e.ts_nanos as f64 / 1e3);
        }
        json::push_key(o, "args");
        o.push('{');
        if let Some(key) = e.key {
            // Unscoped keys keep the pre-tenancy `s…a…c…` shape so
            // existing trace consumers are unaffected.
            let prefix = match key.request {
                0 => String::new(),
                r => format!("r{r}"),
            };
            let (server, array, subchunk) = (key.server, key.array, key.subchunk);
            json::member_str(o, "key", &format!("{prefix}s{server}a{array}c{subchunk}"));
        }
        if let Some(request) = e.request {
            json::member(o, "request", request);
        }
        if e.bytes > 0 {
            json::member(o, "bytes", e.bytes);
        }
        if let Some(peer) = e.peer {
            json::member(o, "peer", peer);
        }
        if let Some(tag) = e.tag {
            json::member(o, "tag", tag);
        }
        if let Some(seq) = e.sequential {
            json::member(o, "sequential", seq);
        }
        if let Some(label) = &e.label {
            json::member_str(o, "file", label);
        }
        o.push_str("}}");
    }
    o.push_str("]}");
    out
}

/// When and where a ring dumps itself: on every incident (see the
/// module docs), into `dir`, at most `max_dumps` times.
#[derive(Debug)]
pub struct DumpTrigger {
    dir: PathBuf,
    slo: Option<Duration>,
    max_dumps: usize,
    /// Automatic dumps written or being written (never exceeds
    /// `max_dumps`).
    auto_dumps: AtomicUsize,
    dumps: Mutex<Vec<PathBuf>>,
}

impl DumpTrigger {
    /// A trigger writing incident dumps into `dir` (created on first
    /// dump if missing), with no latency SLO and the default dump cap.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DumpTrigger {
            dir: dir.into(),
            slo: None,
            max_dumps: DEFAULT_MAX_DUMPS,
            auto_dumps: AtomicUsize::new(0),
            dumps: Mutex::new(Vec::new()),
        }
    }

    /// Treat any collective completing slower than `slo` as an incident.
    pub fn with_slo(mut self, slo: Duration) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Cap automatic dumps at `max` (manual dumps are not counted
    /// against the cap).
    pub fn with_max_dumps(mut self, max: usize) -> Self {
        self.max_dumps = max;
        self
    }

    /// Paths of every dump written so far, oldest first.
    pub fn dumps(&self) -> Vec<PathBuf> {
        self.dumps.lock().clone()
    }

    /// Whether this event ends an incident window, and why.
    fn incident(&self, event: &Event<'_>) -> Option<&'static str> {
        match event.kind() {
            EventKind::AdmissionReject => Some("admission_reject"),
            EventKind::RequestError => Some("request_error"),
            EventKind::CollectiveDone => match (self.slo, event.dur()) {
                (Some(slo), Some(dur)) if dur > slo => Some("slo_exceeded"),
                _ => None,
            },
            _ => None,
        }
    }

    /// Claim one of the `max_dumps` automatic dump slots. Claiming
    /// before writing is what makes the cap exact when several threads
    /// hit incidents at once.
    fn claim_auto(&self) -> bool {
        self.auto_dumps
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.max_dumps).then_some(n + 1)
            })
            .is_ok()
    }

    /// Write `events` to `<dir>/flight-<seq>-<reason>.trace.json`;
    /// `None` if the directory or file could not be written (dumping
    /// never panics on the record path). Dumps are rare, so the list
    /// lock is simply held across the write: `seq` is the dump's
    /// position in it.
    pub(crate) fn write(&self, reason: &str, events: &[TimelineEvent]) -> Option<PathBuf> {
        let mut dumps = self.dumps.lock();
        let seq = dumps.len();
        let safe: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = self.dir.join(format!("flight-{seq:04}-{safe}.trace.json"));
        std::fs::create_dir_all(&self.dir).ok()?;
        std::fs::write(&path, chrome_trace(events)).ok()?;
        dumps.push(path.clone());
        Some(path)
    }
}

/// The bounded event ring; see the module docs. Oldest events are
/// dropped on overflow and tallied in `dropped`.
#[derive(Debug)]
pub(crate) struct Ring {
    capacity: usize,
    events: Mutex<VecDeque<TimelineEvent>>,
    dropped: AtomicU64,
    pub(crate) trigger: Option<DumpTrigger>,
}

impl Ring {
    /// A ring holding at most `capacity` events (min 1).
    pub(crate) fn new(capacity: usize, trigger: Option<DumpTrigger>) -> Self {
        Ring {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
            trigger,
        }
    }

    /// Retain `event` (stamped `ts_nanos`), then dump if it is an
    /// incident and an automatic dump slot is left.
    pub(crate) fn push(&self, ts_nanos: u64, node: u32, event: &Event<'_>) {
        let flat = TimelineEvent::from_event(ts_nanos, node, event);
        {
            let mut events = self.events.lock();
            if events.len() == self.capacity {
                events.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            events.push_back(flat);
        }
        if let Some(trigger) = &self.trigger {
            if let Some(reason) = trigger.incident(event) {
                if trigger.claim_auto() && trigger.write(reason, &self.events()).is_none() {
                    // Nothing reached the disk: the slot goes back, so a
                    // transient failure does not use up the cap.
                    trigger.auto_dumps.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// The retained window, oldest first.
    pub(crate) fn events(&self) -> Vec<TimelineEvent> {
        self.events.lock().iter().cloned().collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OpDir;
    use crate::recorder::{Recorder, TelemetryRecorder};

    fn queued(request: u64, server: usize, subchunk: usize) -> Event<'static> {
        Event::DiskWriteQueued {
            key: SubchunkKey::scoped(request, server, 0, subchunk),
            bytes: 64,
        }
    }

    fn reject(request: u64) -> Event<'static> {
        Event::AdmissionReject {
            request,
            queued: 3,
            live: 4,
        }
    }

    fn sample_events(rec: &TelemetryRecorder) {
        let key = SubchunkKey::new(0, 0, 3);
        rec.record(
            4,
            &Event::RequestIssued {
                request: 0,
                op: OpDir::Write,
                arrays: 1,
                pipeline_depth: 2,
            },
        );
        rec.record(
            4,
            &Event::FetchReplied {
                key,
                bytes: 128,
                wait: Duration::from_micros(250),
            },
        );
        rec.record(
            4,
            &Event::FsWrite {
                file: "a.s0",
                offset: 0,
                bytes: 128,
                sequential: true,
                dur: Duration::from_micros(40),
            },
        );
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("panda-flight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_flattened_events_in_order() {
        let rec = TelemetryRecorder::with_ring(DEFAULT_RING_CAPACITY);
        sample_events(&rec);
        let tl = rec.timeline().unwrap();
        assert_eq!(tl.len(), 3);
        assert!(tl.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos));
        assert_eq!(tl[1].kind, EventKind::FetchReplied);
        assert_eq!(tl[1].key, Some(SubchunkKey::new(0, 0, 3)));
        assert_eq!(tl[1].dur_nanos, 250_000);
        assert!(tl[1].start_nanos() <= tl[1].ts_nanos);
        assert_eq!(tl[2].label.as_deref(), Some("a.s0"));
        assert_eq!(tl[2].sequential, Some(true));
        assert_eq!(rec.dropped(), 0);
        // The store aggregates alongside the ring.
        assert_eq!(rec.snapshot().kind(EventKind::FetchReplied).count, 1);
    }

    #[test]
    fn ring_drops_oldest_on_overflow() {
        let rec = TelemetryRecorder::with_ring(2);
        sample_events(&rec);
        assert_eq!(rec.dropped(), 1);
        let tl = rec.timeline().unwrap();
        assert_eq!(tl.len(), 2);
        // The RequestIssued instant was the oldest and got evicted.
        assert_eq!(tl[0].kind, EventKind::FetchReplied);
        // The store still saw all three events.
        assert_eq!(rec.snapshot().kind(EventKind::RequestIssued).count, 1);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_both_phases() {
        let rec = TelemetryRecorder::with_ring(DEFAULT_RING_CAPACITY);
        sample_events(&rec);
        rec.record(4, &queued(7, 0, 2));
        let trace = rec.to_chrome_trace();
        json::validate(&trace).expect("trace parses");
        assert!(trace.contains("\"ph\":\"X\""), "has complete events");
        assert!(trace.contains("\"ph\":\"i\""), "has instant events");
        assert!(trace.contains("\"name\":\"fetch_replied\""));
        assert!(trace.contains("\"key\":\"s0a0c3\""), "unscoped key shape");
        assert!(trace.contains("\"key\":\"r7s0a0c2\""), "scoped key prefix");
        assert!(trace.contains("\"request\":7"));
    }

    #[test]
    fn wraparound_keeps_per_request_filtering_consistent() {
        // Two tenants' request ids interleave through a ring much
        // smaller than the event stream. After heavy overwriting the
        // retained window must still be per-request consistent: every
        // request's retained events stay in timestamp order, carry that
        // request's id only, and the retained suffix is contiguous (the
        // ring drops oldest-first, never from the middle).
        let req_a = (1u64 << 32) | 1; // tenant 0
        let req_b = (2u64 << 32) | 1; // tenant 1
        let rec = TelemetryRecorder::with_ring(8);
        let total = 50usize;
        for i in 0..total {
            let (request, server) = if i % 2 == 0 { (req_a, 0) } else { (req_b, 1) };
            // Subchunk index is the tenant's own sequence number.
            rec.record(4, &queued(request, server, i / 2));
        }
        assert_eq!(rec.dropped(), total as u64 - 8);
        let tl = rec.timeline().unwrap();
        assert_eq!(tl.len(), 8);
        assert!(tl.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos));
        for (request, server) in [(req_a, 0u32), (req_b, 1u32)] {
            let mine: Vec<_> = tl.iter().filter(|e| e.request == Some(request)).collect();
            assert_eq!(mine.len(), 4, "each tenant keeps half the window");
            assert!(mine.iter().all(|e| e.key.unwrap().server == server));
            // Contiguous suffix of that tenant's stream: consecutive
            // subchunk indices, ending at the tenant's last event.
            let idx: Vec<u32> = mine.iter().map(|e| e.key.unwrap().subchunk).collect();
            assert!(idx.windows(2).all(|w| w[1] == w[0] + 1));
            let last_for_tenant = (total - 1 - usize::from(request == req_a)) / 2;
            assert_eq!(*idx.last().unwrap() as usize, last_for_tenant);
        }
        // Only the retained window exports; the store saw everything.
        let trace = rec.to_chrome_trace();
        json::validate(&trace).expect("trace parses after wraparound");
        assert!(trace.contains("c24\"") && !trace.contains("c20\""));
        assert_eq!(
            rec.snapshot().kind(EventKind::DiskWriteQueued).count,
            total as u64
        );
    }

    #[test]
    fn concurrent_multi_tenant_writers_never_corrupt_the_ring() {
        let rec = TelemetryRecorder::with_ring(64);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..200usize {
                        rec.record(t as u32, &queued((t + 1) << 32, 0, i));
                    }
                });
            }
        });
        assert_eq!(rec.dropped(), 4 * 200 - 64);
        let tl = rec.timeline().unwrap();
        assert_eq!(tl.len(), 64);
        // Global timestamp order is not guaranteed across writers (the
        // stamp is taken before the ring lock), but each writer's own
        // stream must stay in submission order in the window.
        for t in 0..4u64 {
            let idx: Vec<u32> = tl
                .iter()
                .filter(|e| e.request == Some((t + 1) << 32))
                .map(|e| e.key.unwrap().subchunk)
                .collect();
            assert!(idx.windows(2).all(|w| w[0] < w[1]));
        }
        json::validate(&rec.to_chrome_trace()).expect("trace parses");
    }

    #[test]
    fn admission_reject_triggers_a_dump() {
        let dir = temp_dir("reject");
        let rec = TelemetryRecorder::with_trigger(16, DumpTrigger::new(&dir));
        for i in 0..4usize {
            rec.record(4, &queued(1 << 32, 0, i));
        }
        assert!(rec.dumps().is_empty(), "no incident, no dump");
        rec.record(4, &reject((2 << 32) | 1));
        let dumps = rec.dumps();
        let doc = std::fs::read_to_string(dumps.last().expect("reject produced a dump")).unwrap();
        json::validate(&doc).expect("dump is valid JSON");
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("admission_reject"), "trigger event retained");
        assert!(doc.contains("disk_write_queued"), "history retained");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slo_breach_and_request_error_trigger_until_the_cap() {
        let dir = temp_dir("slo");
        let trigger = DumpTrigger::new(&dir)
            .with_slo(Duration::from_millis(1))
            .with_max_dumps(2);
        let rec = TelemetryRecorder::with_trigger(16, trigger);
        let done = |dur| Event::CollectiveDone {
            request: 1 << 32,
            op: OpDir::Write,
            dur,
        };
        // Under SLO: no dump.
        rec.record(0, &done(Duration::from_micros(100)));
        assert!(rec.dumps().is_empty());
        // Three incidents, but the cap keeps only two automatic dumps.
        rec.record(0, &done(Duration::from_millis(5)));
        rec.record(
            0,
            &Event::RequestError {
                request: 1 << 32,
                detail: "boom",
            },
        );
        rec.record(0, &done(Duration::from_millis(5)));
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 2);
        assert!(dumps[0]
            .to_string_lossy()
            .ends_with("slo_exceeded.trace.json"));
        assert!(dumps[1]
            .to_string_lossy()
            .ends_with("request_error.trace.json"));
        // Manual capture bypasses the cap.
        assert!(rec.dump_now("operator").is_some());
        assert_eq!(rec.dumps().len(), 3);
        // Without a trigger there is nowhere to dump.
        assert!(TelemetryRecorder::with_ring(4).dump_now("x").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manual_dumps_do_not_consume_the_automatic_cap() {
        let dir = temp_dir("manual");
        let max = 3;
        let rec = TelemetryRecorder::with_trigger(16, DumpTrigger::new(&dir).with_max_dumps(max));
        for i in 0..max {
            assert!(rec.dump_now(&format!("operator {i}")).is_some());
        }
        rec.record(4, &reject(1 << 32));
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), max + 1, "the incident still dumped");
        assert!(dumps[max]
            .to_string_lossy()
            .ends_with("admission_reject.trace.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_dumps_do_not_consume_the_automatic_cap() {
        let dir = temp_dir("blocked");
        let max = 2;
        let rec = TelemetryRecorder::with_trigger(16, DumpTrigger::new(&dir).with_max_dumps(max));
        // A plain file where the dump directory should be: every write
        // fails until it is gone.
        std::fs::write(&dir, b"in the way").unwrap();
        for i in 0..=max as u64 {
            rec.record(4, &reject((1 << 32) | i));
        }
        assert!(rec.dumps().is_empty());
        std::fs::remove_file(&dir).unwrap();
        for i in 0..=max as u64 {
            rec.record(4, &reject((2 << 32) | i));
        }
        assert_eq!(rec.dumps().len(), max, "the full cap is still there");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_incidents_leave_exactly_max_dumps_files() {
        let dir = temp_dir("storm");
        let (threads, rejects, max) = (4usize, 8u64, 5);
        let rec = TelemetryRecorder::with_trigger(16, DumpTrigger::new(&dir).with_max_dumps(max));
        // All threads reject at once, so several race for the last slot.
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for t in 0..threads as u64 {
                let (rec, start) = (&rec, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..rejects {
                        rec.record(t as u32, &reject(((t + 1) << 32) | i));
                    }
                });
            }
        });
        assert_eq!(rec.dumps().len(), max);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), max);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
