//! The store: one sharded registry of everything the event stream
//! aggregates to.
//!
//! Per shard and per [`EventKind`] it keeps `count`, `bytes`, `nanos`,
//! a log₂ latency histogram and — for kinds that feed a [`Phase`] — the
//! least-squares moments `Σx²`/`Σxy`; plus the per-tenant ledger, the
//! file-system sequential/seek tally and per-tag send counts. Events
//! land on shard `node % SHARDS` with relaxed atomic adds (the per-tag
//! map alone takes a per-shard mutex, on `MsgSent` only), so clients
//! and servers rarely share a cache line.
//!
//! Nothing is stored per phase: every phase is a disjoint set of
//! duration-carrying kinds ([`EventKind::phase`]), so a
//! [`MetricsSnapshot`]'s phase rows are sums over that phase's kinds,
//! taken when the snapshot is.
//!
//! Tenancy: request ids are minted as `((rank + 1) << 32) | counter`,
//! so the submitting client rank — the session owner — is recoverable
//! as `(request >> 32) - 1` ([`tenant_of`]). Tenant slots are claimed
//! lock-free by linear probing; when a shard's table is full further
//! tenants are tallied in an overflow counter rather than blocking the
//! hot path.

use std::collections::BTreeMap;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::calibrate::PhaseStats;
use crate::event::{Event, EventKind, Phase, KIND_COUNT};

/// Shards in a store (events land on `node % SHARDS`).
const SHARDS: usize = 16;

/// Tenant slots per shard. A shard that sees more distinct tenants than
/// this tallies the excess in [`MetricsSnapshot::tenant_overflow`].
const TENANT_SLOTS: usize = 32;

/// Number of log₂ latency buckets: bucket `i` holds durations in
/// `[2^(i-1), 2^i)` nanoseconds (bucket 0 holds 0 ns).
const HIST_BUCKETS: usize = 40;

/// Snapshot passes attempted optimistically before writers are held.
const OPTIMISTIC_PASSES: usize = 256;

/// Add `v` to an `f64` stored as bits in an [`AtomicU64`] (CAS loop —
/// lock-free, no ordering guarantees beyond atomicity, which is all the
/// statistics need).
fn f64_fetch_add(cell: &AtomicU64, v: f64) {
    let add = |bits| Some((f64::from_bits(bits) + v).to_bits());
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
}

/// Wait a beat for another thread: spin, giving up the core every 64th
/// round (there may be fewer cores than threads).
fn backoff(round: &mut usize) {
    *round += 1;
    if round.is_multiple_of(64) {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// A log₂-bucketed latency histogram.
#[derive(Debug)]
struct Histogram([AtomicU64; HIST_BUCKETS]);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl Histogram {
    fn bucket_of(nanos: u64) -> usize {
        ((64 - nanos.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    fn record(&self, nanos: u64) {
        self.0[Self::bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    fn add_into(&self, acc: &mut LatencyBuckets) {
        for (a, b) in acc.0.iter_mut().zip(&self.0) {
            *a += b.load(Ordering::Relaxed);
        }
    }
}

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

    fn merge(&mut self, other: &LatencyBuckets) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    fn since(&self, baseline: &LatencyBuckets) -> LatencyBuckets {
        LatencyBuckets(std::array::from_fn(|i| {
            self.0[i].saturating_sub(baseline.0[i])
        }))
    }
}

/// One kind's accumulation within a shard. The moments (x = event
/// bytes, y = event seconds) are what refits a
/// `per_op + per_byte · bytes` cost line from live traffic.
#[derive(Debug, Default)]
struct KindCell {
    count: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
    sum_xx_bits: AtomicU64,
    sum_xy_bits: AtomicU64,
    hist: Histogram,
}

/// One tenant's ledger within a shard. The slot is claimed by CAS on
/// `owner` — the request id's high word, `tenant + 1`, so zero means
/// free; counters are plain relaxed adds.
#[derive(Debug, Default)]
struct TenantCell {
    owner: AtomicU64,
    requests: AtomicU64,
    done: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    done_hist: Histogram,
}

/// Seqlock write epochs, alone on their cache line so snapshot polling
/// does not contend with the counters. `record` bumps `begun` on entry
/// and `done` on exit.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Epochs {
    begun: AtomicU64,
    done: AtomicU64,
}

#[derive(Debug, Default)]
struct Shard {
    epochs: Epochs,
    kinds: [KindCell; KIND_COUNT],
    tenants: [TenantCell; TENANT_SLOTS],
    tenant_overflow: AtomicU64,
    fs_sequential: AtomicU64,
    fs_seeks: AtomicU64,
    /// Per-tag `(messages, bytes)` sent.
    tags: Mutex<BTreeMap<u32, (u64, u64)>>,
}

impl Shard {
    /// Find or claim the slot for `owner` (lock-free linear probe).
    fn tenant_cell(&self, owner: u64) -> Option<&TenantCell> {
        let start = owner as usize % TENANT_SLOTS;
        (0..TENANT_SLOTS)
            .map(|i| &self.tenants[(start + i) % TENANT_SLOTS])
            .find(|cell| {
                let claim =
                    cell.owner
                        .compare_exchange(0, owner, Ordering::AcqRel, Ordering::Acquire);
                claim.map_or_else(|cur| cur == owner, |_| true)
            })
    }
}

/// The session rank a request id belongs to, per the service's minting
/// scheme (`((rank + 1) << 32) | counter`). `None` for unscoped ids.
pub fn tenant_of(request: u64) -> Option<u64> {
    let owner = request >> 32;
    (owner != 0).then(|| owner - 1)
}

/// See the module docs.
#[derive(Debug)]
pub(crate) struct Store {
    /// The instant uptime and ring timestamps are measured from.
    pub(crate) epoch: Instant,
    shards: Box<[Shard]>,
    /// Snapshots that ran out of optimistic passes and are holding new
    /// `record` calls at the door until they have a consistent read.
    holds: AtomicU32,
}

impl Store {
    pub(crate) fn new() -> Self {
        Store {
            epoch: Instant::now(),
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            holds: AtomicU32::new(0),
        }
    }

    /// Fold one event into its shard: the one place per-kind counters
    /// are written.
    pub(crate) fn record(&self, node: u32, event: &Event<'_>) {
        let shard = &self.shards[node as usize % SHARDS];
        let kind = event.kind();
        let cell = &shard.kinds[kind.index()];
        let bytes = event.bytes();
        let nanos = event.dur().map(|dur| dur.as_nanos() as u64);
        let ledger: Option<fn(&TenantCell) -> &AtomicU64> = match kind {
            EventKind::RequestIssued => Some(|t| &t.requests),
            EventKind::CollectiveDone => Some(|t| &t.done),
            EventKind::AdmissionReject => Some(|t| &t.rejected),
            EventKind::RequestError => Some(|t| &t.errors),
            _ => None,
        };
        let owner = event.request().map_or(0, |r| r >> 32);
        // Slot probing stays outside the epoch bracket: a claimed slot
        // with nothing in it yet breaks no invariant, and the shorter
        // the bracket the likelier a snapshot's optimistic pass.
        let tenant = ledger
            .filter(|_| owner != 0)
            .map(|counter| (counter, shard.tenant_cell(owner)));

        // A snapshot out of optimistic passes needs one quiet pass.
        let mut round = 0;
        while self.holds.load(Ordering::Relaxed) != 0 {
            backoff(&mut round);
        }
        // The fence keeps the relaxed adds below from becoming visible
        // before `begun`; `done`'s Release publishes them. `snapshot`
        // pairs with both through its Acquire loads and fence.
        shard.epochs.begun.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::Release);
        cell.count.fetch_add(1, Ordering::Relaxed);
        if bytes > 0 {
            cell.bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        if let Some(nanos) = nanos {
            if nanos > 0 {
                cell.nanos.fetch_add(nanos, Ordering::Relaxed);
            }
            cell.hist.record(nanos);
            if kind.phase().is_some() {
                let (x, y) = (bytes as f64, nanos as f64 / 1e9);
                f64_fetch_add(&cell.sum_xx_bits, x * x);
                f64_fetch_add(&cell.sum_xy_bits, x * y);
            }
        }
        if let Some(sequential) = event.sequential() {
            let tally = if sequential {
                &shard.fs_sequential
            } else {
                &shard.fs_seeks
            };
            tally.fetch_add(1, Ordering::Relaxed);
        }
        if let Event::MsgSent { tag, bytes, .. } = event {
            let mut tags = shard.tags.lock();
            let entry = tags.entry(*tag).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += bytes;
        }
        match tenant {
            Some((counter, Some(t))) => {
                counter(t).fetch_add(1, Ordering::Relaxed);
                if kind == EventKind::CollectiveDone {
                    t.done_hist.record(nanos.unwrap_or(0));
                }
            }
            Some((_, None)) => {
                shard.tenant_overflow.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
        shard.epochs.done.fetch_add(1, Ordering::Release);
    }

    /// Merge every shard into one view.
    ///
    /// The read is epoch-consistent: a pass is valid iff every shard's
    /// `begun == done` before it and `begun` is unchanged after it — no
    /// [`Store::record`] call overlapped the pass on any shard — so
    /// cross-kind invariants hold (a snapshot never reports more
    /// `CollectiveDone` than `RequestIssued` events, whichever nodes
    /// reported them). Passes are optimistic at first; under sustained
    /// write pressure the snapshot raises `holds`, which parks new
    /// `record` calls at the door for the one pass it then needs. A
    /// torn read is never returned.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let load = |pick: fn(&Epochs) -> &AtomicU64| -> [u64; SHARDS] {
            std::array::from_fn(|i| pick(&self.shards[i].epochs).load(Ordering::Acquire))
        };
        let mut attempt = 0;
        let snap = loop {
            if attempt == OPTIMISTIC_PASSES {
                self.holds.fetch_add(1, Ordering::Relaxed);
            }
            let begun = load(|e| &e.begun);
            if load(|e| &e.done) == begun {
                let snap = self.read_pass();
                // Keep the relaxed counter loads above from sinking
                // below the epoch re-read.
                fence(Ordering::Acquire);
                if load(|e| &e.begun) == begun {
                    break snap;
                }
            }
            // A writer is mid-record, or overlapped the pass.
            backoff(&mut attempt);
        };
        if attempt >= OPTIMISTIC_PASSES {
            self.holds.fetch_sub(1, Ordering::Relaxed);
        }
        snap
    }

    /// One unsynchronised pass over every shard.
    fn read_pass(&self) -> MetricsSnapshot {
        let mut kinds: Vec<KindCounter> = EventKind::ALL.map(KindCounter::zero).into();
        let mut tenants: BTreeMap<u64, TenantMetrics> = BTreeMap::new();
        let mut tags: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        let (mut tenant_overflow, mut fs_sequential, mut fs_seeks) = (0u64, 0u64, 0u64);
        for s in self.shards.iter() {
            for (k, cell) in kinds.iter_mut().zip(&s.kinds) {
                let count = cell.count.load(Ordering::Relaxed);
                if count == 0 {
                    // Untouched cell: skipping it keeps the pass (and
                    // so the window a writer can invalidate) short.
                    continue;
                }
                k.count += count;
                k.bytes += cell.bytes.load(Ordering::Relaxed);
                k.secs += cell.nanos.load(Ordering::Relaxed) as f64 / 1e9;
                k.sum_xx += f64::from_bits(cell.sum_xx_bits.load(Ordering::Relaxed));
                k.sum_xy += f64::from_bits(cell.sum_xy_bits.load(Ordering::Relaxed));
                cell.hist.add_into(&mut k.latency);
            }
            for cell in &s.tenants {
                let owner = cell.owner.load(Ordering::Acquire);
                if owner == 0 {
                    continue;
                }
                let t = tenants.entry(owner - 1).or_insert_with(|| TenantMetrics {
                    tenant: owner - 1,
                    ..TenantMetrics::default()
                });
                t.requests += cell.requests.load(Ordering::Relaxed);
                t.done += cell.done.load(Ordering::Relaxed);
                t.rejected += cell.rejected.load(Ordering::Relaxed);
                t.errors += cell.errors.load(Ordering::Relaxed);
                cell.done_hist.add_into(&mut t.latency);
            }
            tenant_overflow += s.tenant_overflow.load(Ordering::Relaxed);
            fs_sequential += s.fs_sequential.load(Ordering::Relaxed);
            fs_seeks += s.fs_seeks.load(Ordering::Relaxed);
            for (&tag, &(msgs, bytes)) in s.tags.lock().iter() {
                let t = tags.entry(tag).or_insert((0, 0));
                t.0 += msgs;
                t.1 += bytes;
            }
        }
        let tag_stats = |(tag, (msgs, bytes))| TagStats { tag, msgs, bytes };
        MetricsSnapshot {
            uptime_s: self.epoch.elapsed().as_secs_f64(),
            phases: fold_phases(&kinds),
            kinds,
            tenants: tenants.into_values().collect(),
            tenant_overflow,
            fs_sequential,
            fs_seeks,
            tags: tags.into_iter().map(tag_stats).collect(),
        }
    }
}

/// One kind's merged counters, moments and latency histogram.
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
    /// `Σx²` over events (x = bytes); phase-feeding kinds only.
    pub sum_xx: f64,
    /// `Σxy` over events (x = bytes, y = seconds); phase-feeding kinds
    /// only.
    pub sum_xy: f64,
    /// Per-event latency histogram (duration-carrying kinds): p50/p99
    /// are `latency.quantile(0.50)` / `latency.quantile(0.99)`.
    pub latency: LatencyBuckets,
}

impl KindCounter {
    fn zero(kind: EventKind) -> Self {
        KindCounter {
            kind,
            count: 0,
            bytes: 0,
            secs: 0.0,
            sum_xx: 0.0,
            sum_xy: 0.0,
            latency: LatencyBuckets::default(),
        }
    }
}

/// One phase's counters, moments and latency histogram: the sum over
/// the kinds with `kind.phase() == Some(phase)`.
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
    /// `Σx²` over events (x = bytes).
    pub sum_xx: f64,
    /// `Σxy` over events (x = bytes, y = seconds).
    pub sum_xy: f64,
    /// Per-event latency histogram.
    pub latency: LatencyBuckets,
}

/// Sum each phase's kinds into its [`PhaseMetrics`] row,
/// [`Phase::ALL`] order.
fn fold_phases(kinds: &[KindCounter]) -> Vec<PhaseMetrics> {
    let row = |phase| {
        let of = || kinds.iter().filter(|k| k.kind.phase() == Some(phase));
        let mut latency = LatencyBuckets::default();
        of().for_each(|k| latency.merge(&k.latency));
        PhaseMetrics {
            phase,
            ops: of().map(|k| k.count).sum(),
            bytes: of().map(|k| k.bytes).sum(),
            secs: of().map(|k| k.secs).sum(),
            sum_xx: of().map(|k| k.sum_xx).sum(),
            sum_xy: of().map(|k| k.sum_xy).sum(),
            latency,
        }
    };
    Phase::ALL.map(row).into()
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
    /// Per-phase sums over `kinds`, [`Phase::ALL`] order.
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

    /// This phase's moments as calibration-form [`PhaseStats`], ready
    /// for `CostLine::from_stats` in the drift loop.
    pub fn phase_stats(&self, phase: Phase) -> PhaseStats {
        let p = self.phase(phase);
        PhaseStats::from_moments(p.ops, p.bytes, p.secs, p.sum_xx, p.sum_xy)
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

    /// Counters accumulated since `baseline` (an earlier snapshot of
    /// the same recorder): the window view the drift detector scores,
    /// so a backend change mid-run is not averaged away by pre-change
    /// history. Saturating per field; quantiles follow from the bucket
    /// deltas.
    pub fn since(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let kinds: Vec<KindCounter> = self
            .kinds
            .iter()
            .zip(&baseline.kinds)
            .map(|(k, b)| KindCounter {
                kind: k.kind,
                count: k.count.saturating_sub(b.count),
                bytes: k.bytes.saturating_sub(b.bytes),
                secs: (k.secs - b.secs).max(0.0),
                sum_xx: (k.sum_xx - b.sum_xx).max(0.0),
                sum_xy: (k.sum_xy - b.sum_xy).max(0.0),
                latency: k.latency.since(&b.latency),
            })
            .collect();
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                let b = baseline.tenant(t.tenant).cloned().unwrap_or_default();
                TenantMetrics {
                    tenant: t.tenant,
                    requests: t.requests.saturating_sub(b.requests),
                    done: t.done.saturating_sub(b.done),
                    rejected: t.rejected.saturating_sub(b.rejected),
                    errors: t.errors.saturating_sub(b.errors),
                    latency: t.latency.since(&b.latency),
                }
            })
            .collect();
        let tags = self
            .tags
            .iter()
            .map(|t| {
                let (msgs, bytes) = baseline.tag(t.tag);
                TagStats {
                    tag: t.tag,
                    msgs: t.msgs.saturating_sub(msgs),
                    bytes: t.bytes.saturating_sub(bytes),
                }
            })
            .collect();
        MetricsSnapshot {
            uptime_s: (self.uptime_s - baseline.uptime_s).max(0.0),
            phases: fold_phases(&kinds),
            kinds,
            tenants,
            tenant_overflow: self
                .tenant_overflow
                .saturating_sub(baseline.tenant_overflow),
            fs_sequential: self.fs_sequential.saturating_sub(baseline.fs_sequential),
            fs_seeks: self.fs_seeks.saturating_sub(baseline.fs_seeks),
            tags,
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
    use crate::event::{OpDir, SubchunkKey};
    use std::time::Duration;

    fn disk_write(request: u64, subchunk: usize, bytes: u64, dur: Duration) -> Event<'static> {
        Event::DiskWriteDone {
            key: SubchunkKey::scoped(request, 0, 0, subchunk),
            offset: 0,
            bytes,
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
            let b = Histogram::bucket_of(nanos);
            assert!(b >= last);
            last = b;
        }
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn counts_bytes_and_durations_per_kind() {
        let store = Store::new();
        let key = SubchunkKey::new(0, 0, 0);
        for (bytes, millis) in [(100, 2), (50, 1)] {
            store.record(
                4,
                &Event::FetchReplied {
                    key,
                    bytes,
                    wait: Duration::from_millis(millis),
                },
            );
        }
        let snap = store.snapshot();
        let fetch = snap.kind(EventKind::FetchReplied);
        assert_eq!((fetch.count, fetch.bytes), (2, 150));
        assert!((fetch.secs - 0.003).abs() < 1e-9, "got {}", fetch.secs);
        assert_eq!(snap.kind(EventKind::DiskWriteDone).count, 0);
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
        let disk = snap.kind(EventKind::DiskWriteDone);
        let (p50, p99) = (disk.latency.quantile(0.50), disk.latency.quantile(0.99));
        // p50 upper bound is ≥ the true 10 µs but well under the 50 ms
        // tail; p99 must cover the tail's bucket.
        assert!((10e-6..1e-3).contains(&p50), "{p50}");
        assert!(p99 >= 0.05 / 2.0, "{p99}");
        assert_eq!(disk.count, 100);
        assert_eq!(LatencyBuckets::default().quantile(0.99), 0.0, "no data");
    }

    #[test]
    fn phases_are_sums_over_their_kinds() {
        let store = Store::new();
        let key = SubchunkKey::new(0, 0, 0);
        let ms = Duration::from_millis;
        store.record(
            0,
            &Event::FetchReplied {
                key,
                bytes: 1,
                wait: ms(5),
            },
        );
        store.record(0, &disk_write(0, 0, 10, ms(7)));
        store.record(
            1,
            &Event::DiskReadDone {
                key,
                offset: 0,
                bytes: 20,
                dur: ms(2),
            },
        );
        store.record(
            0,
            &Event::ReorgWorker {
                key,
                piece: 0,
                bytes: 1,
                dur: ms(1),
            },
        );
        // Not a phase kind: reported, never summed.
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
        assert_eq!((disk.ops, disk.bytes), (2, 30), "write + read kinds");
        assert!((disk.secs - 0.009).abs() < 1e-9);
        assert!(disk.latency.quantile(0.99) >= 0.007);
        let total: f64 = snap.phases.iter().map(|p| p.secs).sum();
        assert!((total - 0.015).abs() < 1e-9, "fs_sync is in no phase");
    }

    /// Writers issue RequestIssued strictly before the matching
    /// CollectiveDone, back to back with no pause; a snapshot must
    /// never see the done count ahead of the issued count. With more
    /// writers than spare cores no optimistic pass finds a quiet
    /// window, so this also drives the writer hold.
    fn assert_snapshots_never_tear(node_of: fn(u64, EventKind) -> u32) {
        use std::sync::atomic::{AtomicBool, AtomicUsize};

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
        assert_eq!(store.holds.load(Ordering::Relaxed), 0, "hold released");
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
        assert_eq!(snap.kind(EventKind::DiskWriteDone).count, 5);
        assert_eq!(snap.kind(EventKind::DiskWriteDone).bytes, 5 * 4096);
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
    fn moments_round_trip_into_a_cost_line_fit() {
        let store = Store::new();
        // Disk events at two sizes with a known line: t = 1e-4 + 1e-8·x.
        for (i, &bytes) in [1024u64, 1024, 8192, 8192].iter().enumerate() {
            let secs = 1e-4 + 1e-8 * bytes as f64;
            store.record(
                6,
                &disk_write(1 << 32, i, bytes, Duration::from_secs_f64(secs)),
            );
        }
        let stats = store.snapshot().phase_stats(Phase::Disk);
        let (per_op, per_byte) = stats.fit_line().expect("two sizes identify the line");
        assert!((per_op - 1e-4).abs() < 2e-6, "per_op {per_op}");
        assert!((per_byte - 1e-8).abs() < 2e-10, "per_byte {per_byte}");
    }

    #[test]
    fn since_isolates_the_window() {
        let store = Store::new();
        feed_request(&store, 4, (1 << 32) | 1, 4);
        let send = Event::MsgSent {
            to: 1,
            tag: 3,
            bytes: 10,
            dur: Duration::ZERO,
        };
        store.record(4, &send);
        let base = store.snapshot();
        feed_request(&store, 4, (1 << 32) | 2, 2);
        feed_request(&store, 4, (2 << 32) | 1, 1); // tenant new in the window
        store.record(4, &send);
        let window = store.snapshot().since(&base);
        assert_eq!(window.kind(EventKind::RequestIssued).count, 2);
        assert_eq!(window.phase(Phase::Disk).ops, 3);
        assert_eq!(window.phase(Phase::Disk).bytes, 3 * 4096);
        assert!(window.phase(Phase::Disk).latency.quantile(0.5) >= 500e-6);
        let t0 = window.tenant(0).unwrap();
        assert_eq!((t0.requests, t0.done), (1, 1));
        assert_eq!(window.tenant(1).unwrap().requests, 1);
        assert_eq!(window.tag(3), (1, 10));
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
            "panda_event_bytes_total{kind=\"disk_write_done\"} 8192",
            "panda_event_latency_seconds{kind=\"disk_write_done\",quantile=\"0.99\"}",
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
