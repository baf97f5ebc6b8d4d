//! The store: one sharded registry of everything the event stream
//! aggregates to.
//!
//! Per shard, per [`EventKind`] and per [`Phase`] it keeps `count`,
//! `bytes`, integral nanoseconds and a log₂ latency histogram; plus the
//! per-tenant ledger, the file-system sequential/seek tally and per-tag
//! send counts. Each shard is one mutex around plain numbers: recording
//! an event locks the shard of `node % SHARDS`, adds, and unlocks, so
//! clients and servers rarely wait for each other. A snapshot holds
//! every shard lock at once, so it never counts half of an event.
//!
//! A phase row is kept, not re-summed from kinds: one kind,
//! [`EventKind::Step`], feeds the exchange, the disk or the
//! reorganization by its action, so
//! each event is added to the phase [`Event::phase`] names, under the
//! same lock as its kind.
//!
//! Tenancy: request ids are minted as `((rank + 1) << 32) | counter`
//! (`panda_core::protocol::request_id`),
//! so the submitting client rank — the session owner — is recoverable
//! as `(request >> 32) - 1` ([`tenant_of`]). A shard keeps ledgers for
//! at most `TENANT_SLOTS` tenants; events of further tenants are tallied
//! in an overflow counter.

use std::collections::BTreeMap;
use std::time::Instant;

use parking_lot::Mutex;

use crate::event::{Event, EventKind, Phase, KIND_COUNT};

/// Shards in a store (events land on `node % SHARDS`).
const SHARDS: usize = 16;

/// Tenant ledgers per shard. A shard that sees more distinct tenants
/// than this tallies the excess in [`MetricsSnapshot::tenant_overflow`].
const TENANT_SLOTS: usize = 32;

/// Number of log₂ latency buckets: bucket `i` holds durations in
/// `[2^(i-1), 2^i)` nanoseconds (bucket 0 holds 0 ns).
const HIST_BUCKETS: usize = 40;

/// Merged occupancy of a log₂ latency histogram: bucket `i` counts
/// durations in `[2^(i-1), 2^i)` nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyBuckets([u64; HIST_BUCKETS]);

impl Default for LatencyBuckets {
    fn default() -> Self {
        LatencyBuckets([0; HIST_BUCKETS])
    }
}

impl LatencyBuckets {
    fn bucket_of(nanos: u64) -> usize {
        ((64 - nanos.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    fn record(&mut self, nanos: u64) {
        self.0[Self::bucket_of(nanos)] += 1;
    }

    /// Upper-bound estimate of quantile `q` in seconds: the upper edge
    /// of the bucket the quantile falls in (0 with no data).
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.0.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.0.iter().enumerate() {
            cum += c;
            if cum >= target {
                // Upper bound of bucket i: 2^i ns (bucket 0 = 0 ns).
                let nanos = if i == 0 { 0u64 } else { 1u64 << i };
                return nanos as f64 / 1e9;
            }
        }
        unreachable!("cumulative count reaches total");
    }

    fn merge(&self, other: &LatencyBuckets) -> LatencyBuckets {
        LatencyBuckets(std::array::from_fn(|i| self.0[i] + other.0[i]))
    }
}

/// One kind's or one phase's accumulation within a shard. Durations
/// stay integral nanoseconds until a snapshot converts them, once per
/// shard.
#[derive(Debug, Default)]
struct Tally {
    count: u64,
    bytes: u64,
    nanos: u64,
    latency: LatencyBuckets,
}

impl Tally {
    fn add(&mut self, bytes: u64, nanos: Option<u64>) {
        self.count += 1;
        self.bytes += bytes;
        if let Some(nanos) = nanos {
            self.nanos += nanos;
            self.latency.record(nanos);
        }
    }

    fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// One shard's numbers. Aligned so that no two shards' locks share a
/// cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Shard {
    kinds: [Tally; KIND_COUNT],
    phases: [Tally; Phase::ALL.len()],
    /// At most `TENANT_SLOTS` ledgers, in first-seen order.
    tenants: Vec<TenantMetrics>,
    tenant_overflow: u64,
    fs_sequential: u64,
    fs_seeks: u64,
    /// Per-tag `(messages, bytes)` sent.
    tags: BTreeMap<u32, (u64, u64)>,
}

impl Shard {
    /// The ledger of `tenant`, opened on first sight; `None` once the
    /// table is full of other tenants.
    fn ledger(&mut self, tenant: u64) -> Option<&mut TenantMetrics> {
        let slot = match self.tenants.iter().position(|t| t.tenant == tenant) {
            Some(slot) => slot,
            None if self.tenants.len() < TENANT_SLOTS => {
                self.tenants.push(TenantMetrics {
                    tenant,
                    ..TenantMetrics::default()
                });
                self.tenants.len() - 1
            }
            None => return None,
        };
        Some(&mut self.tenants[slot])
    }

    /// This shard alone as a snapshot, seconds converted here; no
    /// uptime (merging fills it in).
    fn view(&self) -> MetricsSnapshot {
        let kind = |(&kind, t): (&EventKind, &Tally)| KindCounter {
            kind,
            count: t.count,
            bytes: t.bytes,
            secs: t.secs(),
            latency: t.latency,
        };
        let phase = |(&phase, t): (&Phase, &Tally)| PhaseMetrics {
            phase,
            ops: t.count,
            bytes: t.bytes,
            secs: t.secs(),
            latency: t.latency,
        };
        let tag = |(&tag, &(msgs, bytes)): (&u32, &(u64, u64))| TagStats { tag, msgs, bytes };
        MetricsSnapshot {
            uptime_s: 0.0,
            kinds: EventKind::ALL.iter().zip(&self.kinds).map(kind).collect(),
            phases: Phase::ALL.iter().zip(&self.phases).map(phase).collect(),
            tenants: self.tenants.clone(),
            tenant_overflow: self.tenant_overflow,
            fs_sequential: self.fs_sequential,
            fs_seeks: self.fs_seeks,
            tags: self.tags.iter().map(tag).collect(),
        }
    }
}

/// The session rank a request id belongs to, per the service's one mint,
/// `panda_core::protocol::request_id` (`((rank + 1) << 32) | counter`).
/// `None` for unscoped ids.
pub fn tenant_of(request: u64) -> Option<u64> {
    let owner = request >> 32;
    (owner != 0).then(|| owner - 1)
}

/// See the module docs.
#[derive(Debug)]
pub(crate) struct Store {
    /// The instant uptime and ring timestamps are measured from.
    pub(crate) epoch: Instant,
    shards: Box<[Mutex<Shard>]>,
}

impl Store {
    pub(crate) fn new() -> Self {
        Store {
            epoch: Instant::now(),
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    /// Fold one event into its shard: the one place per-kind and
    /// per-phase counters are written.
    pub(crate) fn record(&self, node: u32, event: &Event<'_>) {
        let (kind, phase, bytes) = (event.kind(), event.phase(), event.bytes());
        let nanos = event.dur().map(|dur| dur.as_nanos() as u64);
        let ledger: Option<fn(&mut TenantMetrics) -> &mut u64> = match kind {
            EventKind::RequestIssued => Some(|t| &mut t.requests),
            EventKind::CollectiveDone => Some(|t| &mut t.done),
            EventKind::AdmissionReject => Some(|t| &mut t.rejected),
            EventKind::RequestError => Some(|t| &mut t.errors),
            _ => None,
        };
        let mut guard = self.shards[node as usize % SHARDS].lock();
        let shard = &mut *guard;
        shard.kinds[kind.index()].add(bytes, nanos);
        if let Some(phase) = phase {
            shard.phases[phase.index()].add(bytes, nanos);
        }
        match event.sequential() {
            Some(true) => shard.fs_sequential += 1,
            Some(false) => shard.fs_seeks += 1,
            None => {}
        }
        if let Event::MsgSent { tag, bytes, .. } = event {
            let sent = shard.tags.entry(*tag).or_insert((0, 0));
            *sent = (sent.0 + 1, sent.1 + bytes);
        }
        let Some((counter, tenant)) = ledger.zip(event.request().and_then(tenant_of)) else {
            return;
        };
        match shard.ledger(tenant) {
            Some(t) => {
                *counter(t) += 1;
                if kind == EventKind::CollectiveDone {
                    t.latency.record(nanos.unwrap_or(0));
                }
            }
            None => shard.tenant_overflow += 1,
        }
    }

    /// Merge every shard into one view.
    ///
    /// Every shard lock is taken, in index order, before any shard is
    /// read, and none is released until all are read. A
    /// [`Store::record`] call holds one shard lock for all of its adds,
    /// so the cut falls between whole calls on every shard at once and
    /// cross-kind invariants hold: a snapshot never reports more
    /// `CollectiveDone` than `RequestIssued` events, whichever nodes
    /// reported them. One lock order means concurrent snapshots cannot
    /// deadlock.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let views: Vec<MetricsSnapshot> = {
            let shards: Vec<_> = self.shards.iter().map(Mutex::lock).collect();
            shards.iter().map(|shard| shard.view()).collect()
        };
        let empty = Shard::default().view();
        let mut snap = views.iter().fold(empty, |acc, view| acc.merge(view));
        snap.uptime_s = self.epoch.elapsed().as_secs_f64();
        snap
    }
}

/// One kind's merged counters and latency histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct KindCounter {
    /// The event kind.
    pub kind: EventKind,
    /// Events recorded.
    pub count: u64,
    /// Bytes carried.
    pub bytes: u64,
    /// Duration carried, seconds.
    pub secs: f64,
    /// Per-event latency histogram (duration-carrying kinds): p50/p99
    /// are `latency.quantile(0.50)` / `latency.quantile(0.99)`.
    pub latency: LatencyBuckets,
}

/// One phase's counters and latency histogram: the events whose
/// [`Event::phase`] is `phase`.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMetrics {
    /// The phase.
    pub phase: Phase,
    /// Duration-carrying events folded into this phase.
    pub ops: u64,
    /// Bytes those events carried.
    pub bytes: u64,
    /// Seconds those events carried.
    pub secs: f64,
    /// Per-event latency histogram.
    pub latency: LatencyBuckets,
}

/// Pair the rows of `a` and `b` by key, a row one side lacks standing
/// in as `zero(key)`, and combine each pair with `f`, in key order.
fn zip_rows<T: Clone, K: Ord + Copy>(
    a: &[T],
    b: &[T],
    key: fn(&T) -> K,
    zero: fn(K) -> T,
    f: impl Fn(&T, &T) -> T,
) -> Vec<T> {
    let mut keys: Vec<K> = a.iter().chain(b).map(key).collect();
    keys.sort_unstable();
    keys.dedup();
    let row = |rows: &[T], k| {
        let found = rows.iter().find(|r| key(r) == k);
        found.cloned().unwrap_or_else(|| zero(k))
    };
    keys.iter().map(|&k| f(&row(a, k), &row(b, k))).collect()
}

/// One tenant's merged ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantMetrics {
    /// Session owner rank (the submitting client).
    pub tenant: u64,
    /// Collectives issued on servers for this tenant.
    pub requests: u64,
    /// Collective completions (all participating nodes).
    pub done: u64,
    /// Admission rejections.
    pub rejected: u64,
    /// Non-admission failures.
    pub errors: u64,
    /// Collective-completion latency histogram.
    pub latency: LatencyBuckets,
}

/// Send counts for one message tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagStats {
    /// The message tag.
    pub tag: u32,
    /// Messages sent with this tag.
    pub msgs: u64,
    /// Payload bytes sent with this tag.
    pub bytes: u64,
}

/// A merged, typed view of a recorder's store at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Seconds since the recorder was created.
    pub uptime_s: f64,
    /// Per-kind counters, [`EventKind::ALL`] order.
    pub kinds: Vec<KindCounter>,
    /// Per-phase counters, [`Phase::ALL`] order.
    pub phases: Vec<PhaseMetrics>,
    /// Per-tenant ledgers, sorted by tenant rank.
    pub tenants: Vec<TenantMetrics>,
    /// Ledger events whose tenant could not get a slot (table full).
    pub tenant_overflow: u64,
    /// File-system accesses classified as sequential.
    pub fs_sequential: u64,
    /// File-system accesses that required a seek.
    pub fs_seeks: u64,
    /// Per-tag message send counts, sorted by tag.
    pub tags: Vec<TagStats>,
}

impl MetricsSnapshot {
    /// Counters for one kind.
    pub fn kind(&self, kind: EventKind) -> &KindCounter {
        &self.kinds[kind.index()]
    }

    /// Metrics for one phase.
    pub fn phase(&self, phase: Phase) -> &PhaseMetrics {
        &self.phases[phase.index()]
    }

    /// The ledger for one tenant, if it has been seen.
    pub fn tenant(&self, tenant: u64) -> Option<&TenantMetrics> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }

    /// `(messages, bytes)` sent with `tag` (zero when never used).
    pub fn tag(&self, tag: u32) -> (u64, u64) {
        self.tags
            .iter()
            .find(|t| t.tag == tag)
            .map_or((0, 0), |t| (t.msgs, t.bytes))
    }

    /// Add two shards' views field by field: kinds and phases by index,
    /// tenants and tags by key.
    fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let kind = |(a, b): (&KindCounter, &KindCounter)| KindCounter {
            kind: a.kind,
            count: a.count + b.count,
            bytes: a.bytes + b.bytes,
            secs: a.secs + b.secs,
            latency: a.latency.merge(&b.latency),
        };
        let phase = |(a, b): (&PhaseMetrics, &PhaseMetrics)| PhaseMetrics {
            phase: a.phase,
            ops: a.ops + b.ops,
            bytes: a.bytes + b.bytes,
            secs: a.secs + b.secs,
            latency: a.latency.merge(&b.latency),
        };
        let tenant = |a: &TenantMetrics, b: &TenantMetrics| TenantMetrics {
            tenant: a.tenant,
            requests: a.requests + b.requests,
            done: a.done + b.done,
            rejected: a.rejected + b.rejected,
            errors: a.errors + b.errors,
            latency: a.latency.merge(&b.latency),
        };
        let tag = |a: &TagStats, b: &TagStats| TagStats {
            tag: a.tag,
            msgs: a.msgs + b.msgs,
            bytes: a.bytes + b.bytes,
        };
        let no_tenant = |tenant| TenantMetrics {
            tenant,
            ..TenantMetrics::default()
        };
        let no_tag = |tag| TagStats {
            tag,
            msgs: 0,
            bytes: 0,
        };
        MetricsSnapshot {
            uptime_s: self.uptime_s + other.uptime_s,
            kinds: self.kinds.iter().zip(&other.kinds).map(kind).collect(),
            phases: self.phases.iter().zip(&other.phases).map(phase).collect(),
            tenants: zip_rows(
                &self.tenants,
                &other.tenants,
                |t| t.tenant,
                no_tenant,
                tenant,
            ),
            tenant_overflow: self.tenant_overflow + other.tenant_overflow,
            fs_sequential: self.fs_sequential + other.fs_sequential,
            fs_seeks: self.fs_seeks + other.fs_seeks,
            tags: zip_rows(&self.tags, &other.tags, |t| t.tag, no_tag, tag),
        }
    }

    /// Render as Prometheus text exposition (version 0.0.4): `# HELP` /
    /// `# TYPE` headers, `panda_*` families, `kind`/`phase`/`tenant`
    /// label dimensions. One table row per family: name, type, help,
    /// and its `(labels, value)` samples.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        type Samples = Vec<(String, String)>;
        /// One sample per item that has a value.
        fn each<T>(
            items: &[T],
            label: fn(&T) -> String,
            value: impl Fn(&T) -> Option<String>,
        ) -> Samples {
            let sample = |t| Some((format!("{{{}}}", label(t)), value(t)?));
            items.iter().filter_map(sample).collect()
        }
        /// One sample per (item that has a histogram, quantile).
        fn summary<T>(
            items: &[T],
            label: fn(&T) -> String,
            latency: impl Fn(&T) -> Option<&LatencyBuckets>,
            quantiles: &[f64],
        ) -> Samples {
            let mut samples = Samples::new();
            for (t, hist) in items.iter().filter_map(|t| Some((t, latency(t)?))) {
                for q in quantiles {
                    let labels = format!("{{{},quantile=\"{q}\"}}", label(t));
                    samples.push((labels, hist.quantile(*q).to_string()));
                }
            }
            samples
        }
        let kind = |k: &KindCounter| format!("kind=\"{}\"", k.kind.name());
        let phase = |p: &PhaseMetrics| format!("phase=\"{}\"", p.phase.label());
        let tenant = |t: &TenantMetrics| format!("tenant=\"{}\"", t.tenant);
        let scalar = |v: String| vec![(String::new(), v)];
        let nonzero = |v: u64| (v > 0).then(|| v.to_string());
        /// Only kinds that carried a duration have a latency series;
        /// phase and tenant rows are always there, data or not.
        fn timed(k: &KindCounter) -> Option<&LatencyBuckets> {
            (k.latency != LatencyBuckets::default()).then_some(&k.latency)
        }
        let families: [(&str, &str, &str, Samples); 14] = [
            (
                "panda_uptime_seconds",
                "gauge",
                "Seconds since the telemetry recorder was created.",
                scalar(self.uptime_s.to_string()),
            ),
            (
                "panda_events_total",
                "counter",
                "Instrumentation events recorded, by kind.",
                each(&self.kinds, kind, |k| nonzero(k.count)),
            ),
            (
                "panda_event_bytes_total",
                "counter",
                "Bytes carried by events, by kind.",
                each(&self.kinds, kind, |k| nonzero(k.bytes)),
            ),
            (
                "panda_event_latency_seconds",
                "summary",
                "Per-event latency by kind (log2-bucket upper bounds).",
                summary(&self.kinds, kind, timed, &[0.5, 0.99]),
            ),
            (
                "panda_phase_seconds_total",
                "counter",
                "Time folded into each paper-style phase.",
                each(&self.phases, phase, |p| Some(p.secs.to_string())),
            ),
            (
                "panda_phase_ops_total",
                "counter",
                "Duration-carrying events per phase.",
                each(&self.phases, phase, |p| Some(p.ops.to_string())),
            ),
            (
                "panda_phase_bytes_total",
                "counter",
                "Bytes moved per phase.",
                each(&self.phases, phase, |p| Some(p.bytes.to_string())),
            ),
            (
                "panda_phase_latency_seconds",
                "summary",
                "Per-event phase latency (log2-bucket upper bounds).",
                summary(
                    &self.phases,
                    phase,
                    |p| Some(&p.latency),
                    &[0.5, 0.95, 0.99],
                ),
            ),
            (
                "panda_tenant_requests_total",
                "counter",
                "Collectives admitted, by tenant.",
                each(&self.tenants, tenant, |t| Some(t.requests.to_string())),
            ),
            (
                "panda_tenant_done_total",
                "counter",
                "Collective completions (all nodes), by tenant.",
                each(&self.tenants, tenant, |t| Some(t.done.to_string())),
            ),
            (
                "panda_tenant_rejected_total",
                "counter",
                "Admission rejections, by tenant.",
                each(&self.tenants, tenant, |t| Some(t.rejected.to_string())),
            ),
            (
                "panda_tenant_errors_total",
                "counter",
                "Non-admission failures, by tenant.",
                each(&self.tenants, tenant, |t| Some(t.errors.to_string())),
            ),
            (
                "panda_tenant_request_seconds",
                "summary",
                "Collective completion latency, by tenant.",
                summary(
                    &self.tenants,
                    tenant,
                    |t| Some(&t.latency),
                    &[0.5, 0.95, 0.99],
                ),
            ),
            (
                "panda_tenant_overflow_total",
                "counter",
                "Tenant ledger events dropped from per-tenant tables.",
                scalar(self.tenant_overflow.to_string()),
            ),
        ];
        let mut out = String::with_capacity(4096);
        for (name, ty, help, samples) in families {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {ty}");
            for (labels, value) in samples {
                let _ = writeln!(out, "{name}{labels} {value}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{OpDir, StepAction, SubchunkKey};
    use std::time::Duration;

    fn disk_write(request: u64, subchunk: usize, bytes: u64, dur: Duration) -> Event<'static> {
        step(request, subchunk, StepAction::Write, bytes, dur)
    }

    fn step(
        request: u64,
        subchunk: usize,
        action: StepAction,
        bytes: u64,
        dur: Duration,
    ) -> Event<'static> {
        Event::Step {
            key: SubchunkKey::scoped(request, 0, 0, subchunk),
            seq: (subchunk as u64) << 32,
            action,
            bytes,
            peer: None,
            dur,
        }
    }

    fn issued(request: u64) -> Event<'static> {
        Event::RequestIssued {
            request,
            op: OpDir::Write,
            arrays: 1,
            pipeline_depth: 2,
        }
    }

    fn done(request: u64, dur: Duration) -> Event<'static> {
        Event::CollectiveDone {
            request,
            op: OpDir::Write,
            dur,
        }
    }

    fn feed_request(store: &Store, node: u32, request: u64, subchunks: usize) {
        store.record(node, &issued(request));
        for c in 0..subchunks {
            store.record(
                node,
                &disk_write(request, c, 4096, Duration::from_micros(500)),
            );
        }
        store.record(node, &done(request, Duration::from_millis(3)));
    }

    #[test]
    fn tenant_of_inverts_the_minting_scheme() {
        assert_eq!(tenant_of((1 << 32) | 7), Some(0));
        assert_eq!(tenant_of((5 << 32) | 1), Some(4));
        assert_eq!(tenant_of(0), None);
        assert_eq!(tenant_of(41), None, "unscoped low ids have no tenant");
    }

    #[test]
    fn bucket_of_is_monotone() {
        let mut last = 0;
        for nanos in [0u64, 1, 2, 3, 10, 1000, 1 << 20, u64::MAX] {
            let b = LatencyBuckets::bucket_of(nanos);
            assert!(b >= last);
            last = b;
        }
        assert_eq!(LatencyBuckets::bucket_of(0), 0);
        assert_eq!(LatencyBuckets::bucket_of(1), 1);
        assert_eq!(LatencyBuckets::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn counts_bytes_and_durations_per_kind() {
        let store = Store::new();
        for (bytes, millis) in [(100, 2), (50, 1)] {
            let wait = Duration::from_millis(millis);
            store.record(4, &step(0, 0, StepAction::Fetch, bytes, wait));
        }
        let snap = store.snapshot();
        let fetch = snap.kind(EventKind::Step);
        assert_eq!((fetch.count, fetch.bytes), (2, 150));
        assert!((fetch.secs - 0.003).abs() < 1e-9, "got {}", fetch.secs);
        assert_eq!(snap.phase(Phase::Disk).ops, 0);
    }

    #[test]
    fn sequentiality_tally_and_per_tag_counts_merge_across_shards() {
        let store = Store::new();
        for (node, sequential, offset) in [(0, true, 0), (1, true, 8), (2, false, 0)] {
            store.record(
                node,
                &Event::FsWrite {
                    file: "f",
                    offset,
                    bytes: 8,
                    sequential,
                    dur: Duration::ZERO,
                },
            );
        }
        for (node, tag, bytes) in [(0, 3u32, 100u64), (5, 3, 50), (5, 7, 1)] {
            store.record(
                node,
                &Event::MsgSent {
                    to: 1,
                    tag,
                    bytes,
                    dur: Duration::ZERO,
                },
            );
        }
        let snap = store.snapshot();
        assert_eq!((snap.fs_sequential, snap.fs_seeks), (2, 1));
        assert_eq!(snap.tag(3), (2, 150));
        assert_eq!(snap.tag(7), (1, 1));
        assert_eq!(snap.tag(99), (0, 0));
        assert_eq!(snap.tags.len(), 2);
        assert_eq!(snap.tags[0].tag, 3, "sorted by tag");
    }

    #[test]
    fn histogram_quantiles_bound_latencies() {
        let store = Store::new();
        for i in 0..100 {
            let dur = if i < 90 {
                Duration::from_micros(10)
            } else {
                Duration::from_millis(50)
            };
            store.record(0, &disk_write(0, 0, 1, dur));
        }
        let snap = store.snapshot();
        let disk = snap.kind(EventKind::Step);
        let (p50, p99) = (disk.latency.quantile(0.50), disk.latency.quantile(0.99));
        // p50 upper bound is ≥ the true 10 µs but well under the 50 ms
        // tail; p99 must cover the tail's bucket.
        assert!((10e-6..1e-3).contains(&p50), "{p50}");
        assert!(p99 >= 0.05 / 2.0, "{p99}");
        assert_eq!(disk.count, 100);
        assert_eq!(LatencyBuckets::default().quantile(0.99), 0.0, "no data");
    }

    #[test]
    fn phases_sum_their_events() {
        let store = Store::new();
        let ms = Duration::from_millis;
        store.record(0, &step(0, 0, StepAction::Fetch, 1, ms(5)));
        store.record(0, &disk_write(0, 0, 10, ms(7)));
        store.record(1, &step(0, 0, StepAction::Read, 20, ms(2)));
        // A push is a step in no phase.
        store.record(1, &step(0, 0, StepAction::Scatter, 20, ms(50)));
        store.record(0, &step(0, 0, StepAction::Reorg, 1, ms(1)));
        // A sync is a step in no phase too, and `FsSync` is not a phase
        // kind: reported, never summed.
        store.record(0, &step(0, 0, StepAction::Sync, 0, ms(100)));
        store.record(
            0,
            &Event::FsSync {
                file: "f",
                dur: ms(100),
            },
        );
        let snap = store.snapshot();
        assert!((snap.phase(Phase::Exchange).secs - 0.005).abs() < 1e-9);
        assert!((snap.phase(Phase::Reorg).secs - 0.001).abs() < 1e-9);
        let disk = snap.phase(Phase::Disk);
        assert_eq!((disk.ops, disk.bytes), (2, 30), "write + read steps");
        assert!((disk.secs - 0.009).abs() < 1e-9);
        assert!(disk.latency.quantile(0.99) >= 0.007);
        let total: f64 = snap.phases.iter().map(|p| p.secs).sum();
        assert!(
            (total - 0.015).abs() < 1e-9,
            "fs_sync, a sync and a push are in no phase"
        );
        // Every record above but the file system's is a step: the copy
        // and the sync are steps' actions, not kinds of their own.
        assert_eq!(snap.kind(EventKind::Step).count, 6);
    }

    /// Writers issue RequestIssued strictly before the matching
    /// CollectiveDone, back to back with no pause; a snapshot must
    /// never see the done count ahead of the issued count.
    fn assert_snapshots_never_tear(node_of: fn(u64, EventKind) -> u32) {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

        const WRITERS: u64 = 3;
        let store = Store::new();
        let (stop, started) = (AtomicBool::new(false), AtomicUsize::new(0));
        let torn = std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (store, stop, started) = (&store, &stop, &started);
                scope.spawn(move || {
                    let mut request = (w + 1) << 32;
                    started.fetch_add(1, Ordering::Relaxed);
                    while !stop.load(Ordering::Relaxed) {
                        request += 1;
                        store.record(node_of(w, EventKind::RequestIssued), &issued(request));
                        store.record(
                            node_of(w, EventKind::CollectiveDone),
                            &done(request, Duration::from_nanos(1)),
                        );
                    }
                });
            }
            while started.load(Ordering::Relaxed) < WRITERS as usize {
                std::thread::yield_now();
            }
            let torn = (0..500).find_map(|_| {
                let snap = store.snapshot();
                let issued = snap.kind(EventKind::RequestIssued).count;
                let done = snap.kind(EventKind::CollectiveDone).count;
                (done > issued).then_some((done, issued))
            });
            // Stop the writers before asserting: a panic inside the
            // scope would wait on them forever.
            stop.store(true, Ordering::Relaxed);
            torn
        });
        assert_eq!(torn, None, "torn snapshot: (CollectiveDone, RequestIssued)");
    }

    #[test]
    fn snapshots_never_tear_across_kinds() {
        assert_snapshots_never_tear(|_, _| 0);
    }

    #[test]
    fn snapshots_never_tear_across_shards() {
        // Each writer's RequestIssued and CollectiveDone come from
        // different nodes, so they land on different shards: validity
        // must be judged over every shard's epochs at once.
        assert_snapshots_never_tear(|w, kind| {
            2 * w as u32 + u32::from(kind == EventKind::CollectiveDone)
        });
    }

    /// Two snapshotters against three unpaced writers whose
    /// RequestIssued and CollectiveDone land on different shards. No
    /// snapshot tears; each snapshotter's consecutive snapshots are
    /// monotone in every counter, histogram bucket and row; and the run
    /// finishes, so two snapshotters taking every lock cannot deadlock.
    #[test]
    fn concurrent_snapshotters_see_monotone_untorn_cuts() {
        use std::sync::atomic::{AtomicBool, Ordering};

        const WRITERS: u64 = 3;
        /// Every integer field of `e` at most `l`'s, bucket by bucket,
        /// and every row of `e` in `l`: seconds are checked on their own.
        fn grew(e: &MetricsSnapshot, l: &MetricsSnapshot) -> bool {
            let le = |e: &[u64], l: &[u64]| e.iter().zip(l).all(|(e, l)| e <= l);
            let kind = |k: &KindCounter| [&[k.count, k.bytes][..], &k.latency.0].concat();
            let phase = |p: &PhaseMetrics| [&[p.ops, p.bytes][..], &p.latency.0].concat();
            let tenant = |t: Option<&TenantMetrics>| {
                let t = t.cloned().unwrap_or_default();
                let counts = [t.requests, t.done, t.rejected, t.errors];
                [&counts[..], &t.latency.0].concat()
            };
            let tag = |t: &TagStats| {
                let (msgs, bytes) = l.tag(t.tag);
                le(&[t.msgs, t.bytes], &[msgs, bytes])
            };
            let scalars = |s: &MetricsSnapshot| [s.tenant_overflow, s.fs_sequential, s.fs_seeks];
            let mut kinds = e.kinds.iter().zip(&l.kinds);
            let mut phases = e.phases.iter().zip(&l.phases);
            let mut tenants = e.tenants.iter().map(|t| (Some(t), l.tenant(t.tenant)));
            kinds.all(|(e, l)| le(&kind(e), &kind(l)))
                && phases.all(|(e, l)| le(&phase(e), &phase(l)))
                && tenants.all(|(e, l)| le(&tenant(e), &tenant(l)))
                && e.tags.iter().all(tag)
                && le(&scalars(e), &scalars(l))
        }
        fn first_fault(store: &Store) -> Option<String> {
            let mut earlier = store.snapshot();
            for _ in 0..200 {
                let later = store.snapshot();
                let issued = later.kind(EventKind::RequestIssued).count;
                let done = later.kind(EventKind::CollectiveDone).count;
                if done > issued {
                    return Some(format!("torn: {done} CollectiveDone > {issued} issued"));
                }
                if !grew(&earlier, &later) {
                    return Some("a counter went backwards".to_string());
                }
                let mut pairs = later.kinds.iter().zip(&earlier.kinds);
                if let Some((l, e)) = pairs.find(|(l, e)| l.secs < e.secs) {
                    let (kind, from, to) = (l.kind, e.secs, l.secs);
                    return Some(format!("{kind:?} seconds went backwards: {from} -> {to}"));
                }
                earlier = later;
            }
            None
        }

        let store = Store::new();
        let stop = AtomicBool::new(false);
        let faults = std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (store, stop) = (&store, &stop);
                scope.spawn(move || {
                    let mut request = (w + 1) << 32;
                    while !stop.load(Ordering::Relaxed) {
                        request += 1;
                        store.record(2 * w as u32, &issued(request));
                        store.record(2 * w as u32 + 1, &done(request, Duration::from_nanos(1)));
                    }
                });
            }
            let readers: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| first_fault(&store)))
                .collect();
            let faults: Vec<_> = readers.into_iter().map(|r| r.join()).collect();
            // Stop the writers before asserting: a panic inside the
            // scope would wait on them forever.
            stop.store(true, Ordering::Relaxed);
            faults
        });
        for fault in faults {
            assert_eq!(fault.expect("snapshotter panicked"), None);
        }
    }

    #[test]
    fn aggregates_kinds_phases_and_tenants() {
        let store = Store::new();
        feed_request(&store, 4, (1 << 32) | 1, 3); // tenant 0 on node 4
        feed_request(&store, 5, (2 << 32) | 1, 2); // tenant 1 on node 5
        store.record(
            4,
            &Event::AdmissionReject {
                request: (2 << 32) | 2,
                queued: 1,
                live: 1,
            },
        );
        store.record(
            5,
            &Event::RequestError {
                request: (2 << 32) | 3,
                detail: "boom",
            },
        );
        let snap = store.snapshot();
        assert_eq!(snap.kind(EventKind::RequestIssued).count, 2);
        assert_eq!(snap.kind(EventKind::Step).count, 5);
        assert_eq!(snap.kind(EventKind::Step).bytes, 5 * 4096);
        let disk = snap.phase(Phase::Disk);
        assert_eq!(disk.ops, 5);
        assert_eq!(disk.bytes, 5 * 4096);
        assert!((disk.secs - 5.0 * 500e-6).abs() < 1e-9);
        let (p50, p99) = (disk.latency.quantile(0.5), disk.latency.quantile(0.99));
        assert!(p50 >= 500e-6 && p99 >= p50);
        assert_eq!(snap.tenants.len(), 2);
        let t0 = snap.tenant(0).unwrap();
        assert_eq!((t0.requests, t0.done, t0.rejected, t0.errors), (1, 1, 0, 0));
        assert!(
            t0.latency.quantile(0.99) >= 3e-3,
            "completion tail covers the 3 ms done"
        );
        let t1 = snap.tenant(1).unwrap();
        assert_eq!((t1.requests, t1.done, t1.rejected, t1.errors), (1, 1, 1, 1));
        assert_eq!(snap.tenant_overflow, 0);
    }

    #[test]
    fn tenant_table_overflow_is_tallied_not_blocking() {
        let store = Store::new();
        let tenants = TENANT_SLOTS as u64 + 3;
        for t in 0..tenants {
            // One node → one shard → one table.
            store.record(7, &issued(((t + 1) << 32) | 1));
        }
        let snap = store.snapshot();
        assert_eq!(snap.tenants.len(), TENANT_SLOTS);
        assert_eq!(snap.tenant_overflow, 3);
        assert_eq!(snap.kind(EventKind::RequestIssued).count, tenants);
        // Keyed events of slotless tenants cost nothing extra.
        store.record(7, &disk_write(tenants << 32, 0, 1, Duration::ZERO));
        assert_eq!(store.snapshot().tenant_overflow, 3);
    }

    #[test]
    fn shards_merge_across_nodes() {
        let store = Store::new();
        // Same tenant reporting from many ranks (client + servers).
        for node in 0..40u32 {
            feed_request(&store, node, (3 << 32) | (u64::from(node) + 1), 1);
        }
        let snap = store.snapshot();
        assert_eq!(snap.kind(EventKind::RequestIssued).count, 40);
        let t = snap.tenant(2).unwrap();
        assert_eq!((t.requests, t.done), (40, 40));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let store = Store::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        feed_request(store, t as u32, ((t + 1) << 32) | (i + 1), 1);
                    }
                });
            }
        });
        let snap = store.snapshot();
        assert_eq!(snap.kind(EventKind::RequestIssued).count, 8 * 500);
        assert_eq!(snap.kind(EventKind::CollectiveDone).count, 8 * 500);
        assert_eq!(snap.phase(Phase::Disk).ops, 8 * 500);
        assert_eq!(snap.tenants.len(), 8);
        for t in 0..8u64 {
            assert_eq!(snap.tenant(t).unwrap().requests, 500);
        }
        assert_eq!(snap.tenant_overflow, 0);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let store = Store::new();
        feed_request(&store, 4, (1 << 32) | 1, 2);
        let text = store.snapshot().to_prometheus();
        let mut families = 0;
        for line in text.lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP panda_") || line.starts_with("# TYPE panda_"),
                    "bad comment line: {line}"
                );
                families += usize::from(line.starts_with("# TYPE"));
                continue;
            }
            // name{labels} value | name value
            let (head, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(value.parse::<f64>().is_ok(), "unparsable value in: {line}");
            let name = head.split('{').next().unwrap();
            assert!(name.starts_with("panda_"), "bad family name in: {line}");
            if let Some(rest) = head.strip_prefix(name) {
                if !rest.is_empty() {
                    assert!(rest.starts_with('{') && rest.ends_with('}'), "{line}");
                }
            }
        }
        assert_eq!(families, 14);
        for sample in [
            "panda_uptime_seconds ",
            "panda_events_total{kind=\"request_issued\"} 1",
            "panda_event_bytes_total{kind=\"step\"} 8192",
            "panda_event_latency_seconds{kind=\"step\",quantile=\"0.99\"}",
            "panda_phase_seconds_total{phase=\"disk\"} 0.001",
            "panda_phase_ops_total{phase=\"disk\"} 2",
            "panda_phase_bytes_total{phase=\"disk\"} 8192",
            "panda_phase_latency_seconds{phase=\"disk\",quantile=\"0.95\"}",
            "panda_tenant_requests_total{tenant=\"0\"} 1",
            "panda_tenant_done_total{tenant=\"0\"} 1",
            "panda_tenant_rejected_total{tenant=\"0\"} 0",
            "panda_tenant_errors_total{tenant=\"0\"} 0",
            "panda_tenant_request_seconds{tenant=\"0\",quantile=\"0.99\"}",
            "panda_tenant_overflow_total 0",
        ] {
            assert!(text.contains(sample), "missing {sample:?} in:\n{text}");
        }
        // Phase and tenant rows are always emitted, data or not.
        assert!(text.contains("panda_phase_latency_seconds{phase=\"throttle\",quantile=\"0.5\"} 0"));
        // Kinds that carried nothing stay out of the per-kind families.
        assert!(!text.contains("kind=\"fs_sync\""));
        assert!(!text.contains("panda_event_latency_seconds{kind=\"request_issued\""));
    }
}
