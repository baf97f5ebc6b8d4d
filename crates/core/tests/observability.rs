//! The unified observability layer, end to end: a `TelemetryRecorder`
//! with a ring, attached through `PandaConfig::with_recorder` must see every layer
//! (messages, disk calls, collective phases) of a real MemFs + inproc
//! run, the aggregated report must be internally consistent, and a
//! recorded run must write byte-identical files to an unrecorded one.

mod common;

use std::sync::Arc;

use common::*;
use panda_core::{PandaClient, PandaConfig, PandaSystem};
use panda_fs::{FileSystem, MemFs};
use panda_obs::{
    EventKind, Phase, Recorder, TelemetryRecorder, DEFAULT_RING_CAPACITY, REPORT_SCHEMA,
};
use panda_schema::ElementType;

const CLIENTS: usize = 4;
const SERVERS: usize = 2;

/// Launch over existing MemFs backends with a recorder attached.
fn launch_recorded(
    mems: &[Arc<MemFs>],
    depth: usize,
    recorder: Arc<dyn Recorder>,
) -> (PandaSystem, Vec<PandaClient>) {
    let handles: Vec<Arc<MemFs>> = mems.to_vec();
    let config = PandaConfig::new(CLIENTS, mems.len())
        .with_subchunk_bytes(256)
        .with_pipeline_depth(depth)
        .with_recv_timeout(std::time::Duration::from_secs(20))
        .with_recorder(recorder);
    PandaSystem::builder()
        .config(config.clone())
        .launch(move |s| Arc::clone(&handles[s]) as Arc<dyn FileSystem>)
        .unwrap()
}

#[test]
fn timeline_round_trip_memfs_inproc() {
    let meta = make_array(
        "t",
        &[16, 16],
        ElementType::F64,
        &[2, 2],
        DiskSchema::Traditional(SERVERS),
    );
    let rec = Arc::new(TelemetryRecorder::with_ring(4096));
    let mems: Vec<Arc<MemFs>> = (0..SERVERS).map(|_| Arc::new(MemFs::new())).collect();
    let (system, mut clients) = launch_recorded(&mems, 2, rec.clone());
    collective_write(&mut clients, &meta, "t");
    let bufs = collective_read(&mut clients, &meta, "t");
    assert_pattern(&meta, &bufs);

    let report = system.report();
    system.shutdown(clients).unwrap();

    // Every layer reported: collective phases from core, disk calls
    // from fs, messages from msg.
    let events = rec.timeline().expect("timeline recorder keeps events");
    assert!(!events.is_empty());
    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
    assert!(count(EventKind::RequestIssued) >= 2 * SERVERS); // write + read
    assert!(count(EventKind::SubchunkPlanned) > 0);
    assert!(count(EventKind::FetchReplied) > 0);
    assert!(count(EventKind::DiskWriteDone) > 0);
    assert!(count(EventKind::DiskReadDone) > 0);
    assert!(count(EventKind::PushSent) > 0);
    assert!(count(EventKind::MsgSent) > 0);
    assert!(count(EventKind::MsgReceived) > 0);
    assert!(count(EventKind::FsWrite) > 0);
    // One CollectiveDone per client per collective, plus the servers'.
    assert!(count(EventKind::CollectiveDone) >= 2 * CLIENTS + 2 * SERVERS);

    // Paired events: every disk-written subchunk was planned first, and
    // its fetches were answered, under the same key.
    for e in events.iter().filter(|e| e.kind == EventKind::DiskWriteDone) {
        let key = e.key.expect("disk writes carry a subchunk key");
        assert_eq!(key.server as usize + CLIENTS, e.node as usize);
        let planned = events
            .iter()
            .any(|p| p.kind == EventKind::SubchunkPlanned && p.key == Some(key));
        assert!(planned, "unplanned subchunk written: {key:?}");
        let replied = events
            .iter()
            .any(|p| p.kind == EventKind::FetchReplied && p.key == Some(key));
        assert!(replied, "subchunk written without any fetch: {key:?}");
    }

    // Node ranks follow the fabric convention: clients 0..C, servers
    // C..C+S, nothing else.
    assert!(events.iter().all(|e| (e.node as usize) < CLIENTS + SERVERS));
    assert!(events
        .iter()
        .filter(|e| e.kind == EventKind::ClientPacked)
        .all(|e| (e.node as usize) < CLIENTS));

    // The report is consistent: wall covers every per-subchunk phase,
    // phase totals match the counters, and the JSON validates.
    assert!(report.wall_s > 0.0);
    assert!(!report.per_subchunk.is_empty());
    for s in &report.per_subchunk {
        assert!(s.exchange_s >= 0.0 && s.exchange_s <= report.wall_s);
        assert!(s.disk_s >= 0.0 && s.disk_s <= report.wall_s);
        assert!(s.reorg_s >= 0.0 && s.reorg_s <= report.wall_s);
        assert!(s.bytes > 0, "subchunk {:?} has no size", s.key);
    }
    assert!(report.phases.get(Phase::Disk) > 0.0);
    let per_node_disk: f64 = report
        .per_node
        .iter()
        .map(|n| n.phases.get(Phase::Disk))
        .sum();
    assert!((per_node_disk - report.phases.get(Phase::Disk)).abs() < 1e-9);
    assert_eq!(report.dropped_events, 0);
    let doc = report.to_json();
    panda_obs::json::validate(&doc).unwrap();
    assert!(doc.contains(REPORT_SCHEMA));

    // The Chrome trace export is valid JSON too.
    panda_obs::json::validate(&rec.to_chrome_trace()).unwrap();
}

/// Regression: a *single-array* read at depth ≥ 2 must run through the
/// engine's pinned disk stage like any group — the old per-array read
/// path streamed the file inline and never prefetched, so no
/// `DiskReadQueued` events appeared for one-array reads.
#[test]
fn single_array_read_at_depth_3_prefetches() {
    let meta = make_array(
        "solo",
        &[16, 16],
        ElementType::F64,
        &[2, 2],
        DiskSchema::Traditional(SERVERS),
    );
    let rec = Arc::new(TelemetryRecorder::with_ring(4096));
    let mems: Vec<Arc<MemFs>> = (0..SERVERS).map(|_| Arc::new(MemFs::new())).collect();
    let (system, mut clients) = launch_recorded(&mems, 3, rec.clone());
    collective_write(&mut clients, &meta, "solo");
    let bufs = collective_read(&mut clients, &meta, "solo");
    assert_pattern(&meta, &bufs);
    system.shutdown(clients).unwrap();

    let events = rec.timeline().expect("timeline recorder keeps events");
    let queued: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::DiskReadQueued)
        .collect();
    assert!(
        !queued.is_empty(),
        "one-array read at depth 3 bypassed the prefetcher"
    );
    // Every prefetched subchunk was read off disk first, under the same
    // key and on the owning server's rank.
    for q in &queued {
        let key = q.key.expect("prefetches carry a subchunk key");
        assert_eq!(key.server as usize + CLIENTS, q.node as usize);
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::DiskReadDone && e.key == Some(key)));
    }
    // The whole file went through the prefetcher: one queue event per
    // planned read subchunk, several per server at a 256-byte subchunk.
    assert_eq!(
        queued.len(),
        events
            .iter()
            .filter(|e| e.kind == EventKind::DiskReadDone)
            .count()
    );
    assert!(queued.len() >= 2 * SERVERS);
    // And the read direction reorganized on the pool.
    assert!(events.iter().any(|e| e.kind == EventKind::ReorgWorker));
}

/// Natural chunking is all identity steps: the servers pass buffers
/// through and reorganize nothing, and the telemetry says so — while
/// the clients' one copy per byte still shows under the run-level
/// reorganization phase.
#[test]
fn natural_chunking_reports_no_server_reorganization() {
    let meta = make_array(
        "n",
        &[16, 16],
        ElementType::F64,
        &[2, 2],
        DiskSchema::Natural,
    );
    let rec = Arc::new(TelemetryRecorder::with_ring(4096));
    let mems: Vec<Arc<MemFs>> = (0..SERVERS).map(|_| Arc::new(MemFs::new())).collect();
    let (system, mut clients) = launch_recorded(&mems, 2, rec.clone());
    collective_write(&mut clients, &meta, "n");
    let bufs = collective_read(&mut clients, &meta, "n");
    assert_pattern(&meta, &bufs);
    let report = system.report();
    system.shutdown(clients).unwrap();

    let events = rec.timeline().expect("timeline recorder keeps events");
    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
    assert_eq!(count(EventKind::ReorgWorker), 0);
    // Everything else of the step's life is still there.
    assert!(count(EventKind::FetchReplied) > 0);
    assert_eq!(
        count(EventKind::FetchReplied),
        count(EventKind::DiskWriteDone)
    );
    assert_eq!(count(EventKind::PushSent), count(EventKind::DiskReadDone));
    assert!(!report.per_subchunk.is_empty());
    for s in &report.per_subchunk {
        assert_eq!(s.reorg_s, 0.0, "subchunk {:?} was reorganized", s.key);
        assert!(s.bytes > 0);
    }
    assert!(count(EventKind::ClientPacked) > 0);
    assert!(count(EventKind::ClientUnpacked) > 0);
    assert!(report.phases.get(Phase::Reorg) > 0.0);
}

#[test]
fn null_recorder_runs_write_identical_files_to_recorded_runs() {
    let meta = make_array(
        "t",
        &[12, 10],
        ElementType::F32,
        &[2, 2],
        DiskSchema::Traditional(SERVERS),
    );
    let run = |recorder: Option<Arc<TelemetryRecorder>>| -> Vec<Vec<u8>> {
        let mems: Vec<Arc<MemFs>> = (0..SERVERS).map(|_| Arc::new(MemFs::new())).collect();
        let (system, mut clients) = match recorder {
            Some(rec) => launch_recorded(&mems, 3, rec),
            None => launch_mem_over(&mems, CLIENTS, 256, 3),
        };
        collective_write(&mut clients, &meta, "t");
        let bufs = collective_read(&mut clients, &meta, "t");
        assert_pattern(&meta, &bufs);
        system.shutdown(clients).unwrap();
        (0..SERVERS)
            .map(|s| mems[s].contents(&format!("t.s{s}")).unwrap())
            .collect()
    };
    let plain = run(None);
    let rec = Arc::new(TelemetryRecorder::with_ring(DEFAULT_RING_CAPACITY));
    let recorded = run(Some(rec.clone()));
    assert_eq!(plain, recorded, "recording changed the bytes on disk");
    assert!(rec.timeline().is_some_and(|t| !t.is_empty()));
}
