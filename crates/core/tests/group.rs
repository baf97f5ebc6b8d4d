//! Group-concurrent collectives: a batched multi-array request must
//! produce byte-identical files to one collective per array, at every
//! pipeline depth and on both MemFs and LocalFs; the scheduler must
//! advertise itself through `RequestIssued` events and `Reorg` steps;
//! `restart` must refuse a group whose generation marker never landed;
//! and a tag written again is rewritten in place when its shape is the
//! same (no `create`, the seed's bytes) and from scratch when it is not
//! (exactly the new length, no stale tail).

mod common;

use std::path::Path;
use std::sync::{Arc, Mutex};

use common::*;
use panda_core::{
    ArrayGroup, ArrayMeta, CollectiveHandle, PandaClient, PandaConfig, PandaError, PandaSystem,
    ReadSet, WriteSet,
};
use panda_fs::{FileHandle, FileSystem, FsError, MemFs, SyncPolicy};
use panda_obs::{EventKind, Recorder, StepAction, TelemetryRecorder};
use panda_schema::ElementType;

const CLIENTS: usize = 4;
const SERVERS: usize = 2;

fn test_arrays() -> Vec<ArrayMeta> {
    vec![
        make_array(
            "temperature",
            &[16, 16],
            ElementType::F64,
            &[2, 2],
            DiskSchema::Traditional(SERVERS),
        ),
        make_array(
            "pressure",
            &[16, 16],
            ElementType::F32,
            &[2, 2],
            DiskSchema::Traditional(SERVERS),
        ),
        make_array(
            "density",
            &[12, 10],
            ElementType::I32,
            &[2, 2],
            DiskSchema::Natural,
        ),
        make_array(
            "energy",
            &[8, 8, 4],
            ElementType::F64,
            &[2, 2, 1],
            DiskSchema::Traditional(SERVERS),
        ),
    ]
}

/// One batched collective covering every array (the group-concurrent
/// path at depth ≥ 2).
fn concurrent_write(clients: &mut [PandaClient], metas: &[ArrayMeta], tags: &[String]) {
    concurrent_write_of(clients, metas, tags, pattern_chunk);
}

/// As [`concurrent_write`], with client `r` writing `chunk(meta, r)`.
fn concurrent_write_of(
    clients: &mut [PandaClient],
    metas: &[ArrayMeta],
    tags: &[String],
    chunk: impl Fn(&ArrayMeta, usize) -> Vec<u8>,
) {
    let datas: Vec<Vec<Vec<u8>>> = (0..clients.len())
        .map(|r| metas.iter().map(|m| chunk(m, r)).collect())
        .collect();
    std::thread::scope(|s| {
        for (client, per_array) in clients.iter_mut().zip(&datas) {
            s.spawn(move || {
                let mut set = WriteSet::new();
                for ((m, t), d) in metas.iter().zip(tags).zip(per_array) {
                    set = set.array(m, t.as_str(), d.as_slice());
                }
                client.write_set(&set).unwrap();
            });
        }
    });
}

/// One collective per array, strictly in sequence.
fn sequential_write(clients: &mut [PandaClient], metas: &[ArrayMeta], tags: &[String]) {
    for (meta, tag) in metas.iter().zip(tags) {
        collective_write(clients, meta, tag);
    }
}

/// One batched collective read of every array; asserts the pattern.
fn concurrent_read_check(clients: &mut [PandaClient], metas: &[ArrayMeta], tags: &[String]) {
    let mut bufs: Vec<Vec<Vec<u8>>> = (0..clients.len())
        .map(|r| metas.iter().map(|m| vec![0u8; m.client_bytes(r)]).collect())
        .collect();
    std::thread::scope(|s| {
        for (client, per_array) in clients.iter_mut().zip(bufs.iter_mut()) {
            s.spawn(move || {
                let mut set = ReadSet::new();
                for ((m, t), b) in metas.iter().zip(tags).zip(per_array.iter_mut()) {
                    set = set.array(m, t.as_str(), b.as_mut_slice());
                }
                client.read_set(&mut set).unwrap();
            });
        }
    });
    for (r, per_array) in bufs.iter().enumerate() {
        for (m, buf) in metas.iter().zip(per_array) {
            assert_eq!(buf, &pattern_chunk(m, r), "client {r} array {}", m.name());
        }
    }
}

fn file_snapshot(mems: &[Arc<MemFs>], tags: &[String]) -> Vec<Vec<u8>> {
    tags.iter()
        .flat_map(|t| {
            mems.iter()
                .enumerate()
                .map(move |(i, fs)| fs.contents(&format!("{t}.s{i}")).unwrap())
        })
        .collect()
}

#[test]
fn concurrent_group_write_matches_sequential_memfs() {
    let metas = test_arrays();
    let tags: Vec<String> = metas.iter().map(|m| format!("g/{}", m.name())).collect();
    // Reference: one collective per array, unpipelined.
    let mems_seq: Vec<Arc<MemFs>> = (0..SERVERS).map(|_| Arc::new(MemFs::new())).collect();
    let (system, mut clients) = launch_mem_over(&mems_seq, CLIENTS, 256, 1);
    sequential_write(&mut clients, &metas, &tags);
    system.shutdown(clients).unwrap();
    let reference = file_snapshot(&mems_seq, &tags);

    for depth in [2, 3, 5] {
        let mems: Vec<Arc<MemFs>> = (0..SERVERS).map(|_| Arc::new(MemFs::new())).collect();
        let (system, mut clients) = launch_mem_over(&mems, CLIENTS, 256, depth);
        concurrent_write(&mut clients, &metas, &tags);
        assert_eq!(
            file_snapshot(&mems, &tags),
            reference,
            "group-concurrent depth {depth} changed bytes on disk"
        );
        // And the batched read path returns the same data.
        concurrent_read_check(&mut clients, &metas, &tags);
        // Each server's file is still written strictly sequentially.
        for fs in &mems {
            assert_eq!(fs.stats().seeks(), 0, "depth {depth} introduced seeks");
        }
        system.shutdown(clients).unwrap();
    }
}

#[test]
fn concurrent_group_write_matches_sequential_localfs() {
    let root = std::env::temp_dir().join(format!("panda-group-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let metas = test_arrays();
    let tags: Vec<String> = metas.iter().map(|m| m.name().to_string()).collect();
    let launch = |sub: &str, depth: usize| {
        let roots: Vec<_> = (0..SERVERS)
            .map(|s| root.join(sub).join(format!("ionode{s}")))
            .collect();
        let config = PandaConfig::new(CLIENTS, SERVERS)
            .with_subchunk_bytes(256)
            .with_pipeline_depth(depth);
        PandaSystem::builder()
            .config(config.clone())
            .launch(move |s| {
                Arc::new(panda_fs::LocalFs::new(&roots[s]).unwrap()) as Arc<dyn FileSystem>
            })
            .unwrap()
    };
    let read_files = |sub: &str| -> Vec<Vec<u8>> {
        let root = &root;
        tags.iter()
            .flat_map(|t| {
                (0..SERVERS).map(move |s| {
                    std::fs::read(root.join(sub).join(format!("ionode{s}/{t}.s{s}"))).unwrap()
                })
            })
            .collect()
    };

    let (system, mut clients) = launch("seq", 1);
    sequential_write(&mut clients, &metas, &tags);
    system.shutdown(clients).unwrap();

    let (system, mut clients) = launch("conc", 4);
    concurrent_write(&mut clients, &metas, &tags);
    concurrent_read_check(&mut clients, &metas, &tags);
    system.shutdown(clients).unwrap();

    assert_eq!(read_files("seq"), read_files("conc"));
    let _ = std::fs::remove_dir_all(&root);
}

/// FNV-1a 64 over a byte slice (inline — the workspace takes no
/// checksum dependency).
fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Seed-compat goldens: per-file `(length, fnv1a64)` of every
/// [`test_arrays`] file, captured from the pre-refactor engine at
/// depth 1 (subchunk 256, 4 clients, 2 servers, `pattern_chunk` data)
/// before the unified executor replaced the per-path code. Any depth of
/// the unified engine must still produce exactly these bytes.
const SEED_GOLDEN: [(&str, [(usize, u64); SERVERS]); 4] = [
    (
        "temperature",
        [(1024, 0x0ae8dfa13e06f399), (1024, 0x2e698ae34a3081f1)],
    ),
    (
        "pressure",
        [(512, 0x95b7634de4a87ea0), (512, 0x42c3c20b3a9e49c4)],
    ),
    (
        "density",
        [(240, 0xa4dc6dabe9147792), (240, 0x6397d331ef4aec63)],
    ),
    (
        "energy",
        [(1024, 0x0ae8dfa13e06f399), (1024, 0x2e698ae34a3081f1)],
    ),
];

fn assert_seed_golden(depth: usize, read: impl Fn(&str, usize) -> Vec<u8>) {
    for (name, per_server) in SEED_GOLDEN {
        for (s, (len, sum)) in per_server.iter().enumerate() {
            let bytes = read(name, s);
            assert_eq!(
                bytes.len(),
                *len,
                "depth {depth}: {name}.s{s} length diverged from the seed"
            );
            assert_eq!(
                fnv1a64(&bytes),
                *sum,
                "depth {depth}: {name}.s{s} bytes diverged from the seed"
            );
        }
    }
}

/// What the seed-golden suites below exercise: [`test_arrays`] lowers
/// to a step stream in which pass-through (identity) and reorganizing
/// steps are neighbours, so at depth ≥ 2 both kinds sit in one window —
/// a received payload that *is* its subchunk next to subchunks being
/// assembled piece by piece — and still every file must match the seed.
#[test]
fn test_group_puts_identity_and_reorganizing_steps_in_one_window() {
    use panda_core::protocol::ArrayOp;
    use panda_core::{CollectiveSchedule, OpKind};
    let arrays: Vec<ArrayOp> = test_arrays()
        .into_iter()
        .map(|meta| ArrayOp {
            file_tag: meta.name().to_string(),
            meta,
            section: None,
        })
        .collect();
    for server in 0..SERVERS {
        for op in [OpKind::Write, OpKind::Read] {
            let sched =
                CollectiveSchedule::build(&arrays, op, server, SERVERS, 256, SyncPolicy::PerFile);
            let kinds: Vec<bool> = sched.steps.iter().map(|s| s.identity).collect();
            assert!(
                kinds.windows(2).any(|w| w[0] != w[1]),
                "server {server}: no window holds both kinds of step: {kinds:?}"
            );
            // "density" is the natural-chunking array; the rest reorganize.
            for step in &sched.steps {
                assert_eq!(step.identity, step.array == 2);
            }
        }
    }
}

#[test]
fn unified_engine_matches_seed_golden_checksums_memfs() {
    let metas = test_arrays();
    let tags: Vec<String> = metas.iter().map(|m| m.name().to_string()).collect();
    for depth in [1, 2, 4] {
        let mems: Vec<Arc<MemFs>> = (0..SERVERS).map(|_| Arc::new(MemFs::new())).collect();
        let (system, mut clients) = launch_mem_over(&mems, CLIENTS, 256, depth);
        concurrent_write(&mut clients, &metas, &tags);
        system.shutdown(clients).unwrap();
        assert_seed_golden(depth, |name, s| {
            mems[s].contents(&format!("{name}.s{s}")).unwrap()
        });
    }
}

#[test]
fn unified_engine_matches_seed_golden_checksums_localfs() {
    let root = std::env::temp_dir().join(format!("panda-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let metas = test_arrays();
    let tags: Vec<String> = metas.iter().map(|m| m.name().to_string()).collect();
    // Each depth pairs with a different sync policy; the real files must
    // hold the exact seed bytes, and the read path must see them.
    for (depth, policy) in [
        (1, SyncPolicy::PerWrite),
        (2, SyncPolicy::PerFile),
        (4, SyncPolicy::PerCollective),
    ] {
        let roots: Vec<_> = (0..SERVERS)
            .map(|s| root.join(format!("d{depth}/ionode{s}")))
            .collect();
        let launch_roots = roots.clone();
        let config = PandaConfig::new(CLIENTS, SERVERS)
            .with_subchunk_bytes(256)
            .with_pipeline_depth(depth)
            .with_sync_policy(policy);
        let (system, mut clients) = PandaSystem::builder()
            .config(config.clone())
            .launch(move |s| {
                Arc::new(panda_fs::LocalFs::new(&launch_roots[s]).unwrap()) as Arc<dyn FileSystem>
            })
            .unwrap();
        concurrent_write(&mut clients, &metas, &tags);
        concurrent_read_check(&mut clients, &metas, &tags);
        system.shutdown(clients).unwrap();
        assert_seed_golden(depth, |name, s| {
            std::fs::read(roots[s].join(format!("{name}.s{s}"))).unwrap()
        });
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The backends a rewrite must behave the same over.
#[derive(Debug, Clone, Copy)]
enum Backend {
    Mem,
    Local,
}

impl Backend {
    const ALL: [Backend; 2] = [Backend::Mem, Backend::Local];

    fn make(self, root: &Path) -> Arc<dyn FileSystem> {
        match self {
            Backend::Mem => Arc::new(MemFs::new()),
            Backend::Local => Arc::new(panda_fs::LocalFs::new(root).unwrap()),
        }
    }
}

/// Depth × sync policy, without the one pair the config refuses
/// (per-write syncs cannot be pipelined).
const REWRITE_CONFIGS: [(usize, SyncPolicy); 5] = [
    (1, SyncPolicy::PerWrite),
    (1, SyncPolicy::PerFile),
    (1, SyncPolicy::PerCollective),
    (3, SyncPolicy::PerFile),
    (3, SyncPolicy::PerCollective),
];

/// What a [`LoggingFs`] saw, in the order it saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Create,
    /// A `write_at`, logged before it is forwarded.
    Write,
    /// A `sync`, logged once the backend has returned from it.
    Sync,
}

#[derive(Debug)]
struct Entry {
    node: usize,
    access: Access,
    file: String,
    /// FNV-1a of a write's bytes (0 otherwise).
    fnv: u64,
}

/// One log for a whole deployment: its order is the order the
/// accesses happened in, across I/O nodes.
type AccessLog = Arc<Mutex<Vec<Entry>>>;

/// A backend that logs the creates, writes and syncs it forwards.
struct LoggingFs {
    inner: Arc<dyn FileSystem>,
    node: usize,
    log: AccessLog,
}

impl LoggingFs {
    fn creates(&self) -> usize {
        let log = self.log.lock().unwrap();
        log.iter()
            .filter(|e| e.node == self.node && e.access == Access::Create)
            .count()
    }

    fn handle(&self, path: &str, inner: Box<dyn FileHandle>) -> Box<dyn FileHandle> {
        Box::new(LoggingHandle {
            inner,
            node: self.node,
            file: path.to_string(),
            log: Arc::clone(&self.log),
        })
    }
}

impl FileSystem for LoggingFs {
    fn create(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        self.log.lock().unwrap().push(Entry {
            node: self.node,
            access: Access::Create,
            file: path.to_string(),
            fnv: 0,
        });
        Ok(self.handle(path, self.inner.create(path)?))
    }
    fn open(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        Ok(self.handle(path, self.inner.open(path)?))
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn remove(&self, path: &str) -> Result<(), FsError> {
        self.inner.remove(path)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn stats(&self) -> Arc<panda_fs::IoStats> {
        self.inner.stats()
    }
    fn set_recorder(&self, recorder: Arc<dyn Recorder>, node: u32) {
        self.inner.set_recorder(recorder, node);
    }
}

struct LoggingHandle {
    inner: Box<dyn FileHandle>,
    node: usize,
    file: String,
    log: AccessLog,
}

impl LoggingHandle {
    fn note(&self, access: Access, fnv: u64) {
        self.log.lock().unwrap().push(Entry {
            node: self.node,
            access,
            file: self.file.clone(),
            fnv,
        });
    }
}

impl FileHandle for LoggingHandle {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        self.note(Access::Write, fnv1a64(data));
        self.inner.write_at(offset, data)
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), FsError> {
        self.inner.read_at(offset, buf)
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn sync(&mut self) -> Result<(), FsError> {
        self.inner.sync()?;
        self.note(Access::Sync, 0);
        Ok(())
    }
    fn preallocate(&mut self, len: u64) -> Result<(), FsError> {
        self.inner.preallocate(len)
    }
}

/// One logging backend per server over `make(server)`, sharing a log.
fn logging_backends(make: impl Fn(usize) -> Arc<dyn FileSystem>) -> Vec<Arc<LoggingFs>> {
    let log = AccessLog::default();
    (0..SERVERS)
        .map(|node| {
            Arc::new(LoggingFs {
                inner: make(node),
                node,
                log: Arc::clone(&log),
            })
        })
        .collect()
}

/// One logging backend of `kind` per server under `root`, and a
/// deployment over them.
fn launch_logging(
    kind: Backend,
    root: &Path,
    depth: usize,
    policy: SyncPolicy,
) -> (PandaSystem, Vec<PandaClient>, Vec<Arc<LoggingFs>>) {
    let backends = logging_backends(|s| kind.make(&root.join(format!("ionode{s}"))));
    let handles = backends.clone();
    let config = PandaConfig::new(CLIENTS, SERVERS)
        .with_subchunk_bytes(256)
        .with_pipeline_depth(depth)
        .with_sync_policy(policy);
    let (system, clients) = PandaSystem::builder()
        .config(config)
        .launch(move |s| Arc::clone(&handles[s]) as Arc<dyn FileSystem>)
        .unwrap();
    (system, clients, backends)
}

fn file_bytes(fs: &dyn FileSystem, name: &str) -> Vec<u8> {
    let mut h = fs.open(name).unwrap();
    let mut bytes = vec![0u8; h.len() as usize];
    h.read_at(0, &mut bytes).unwrap();
    bytes
}

#[test]
fn a_second_write_of_a_tag_creates_nothing_and_lands_the_seed_bytes() {
    let root = std::env::temp_dir().join(format!("panda-inplace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let metas = test_arrays();
    let tags: Vec<String> = metas.iter().map(|m| m.name().to_string()).collect();
    for kind in Backend::ALL {
        for (depth, policy) in REWRITE_CONFIGS {
            let what = format!("{kind:?} depth {depth} {}", policy.name());
            let (system, mut clients, backends) =
                launch_logging(kind, &root.join(&what), depth, policy);
            let creates = || -> usize { backends.iter().map(|b| b.creates()).sum() };
            // First the same shapes with every byte wrong, so that a
            // byte the rewrite skipped would show.
            concurrent_write_of(&mut clients, &metas, &tags, |m, r| {
                pattern_chunk(m, r).iter().map(|b| !b).collect()
            });
            assert_eq!(creates(), SERVERS * metas.len(), "{what}: first write");
            concurrent_write(&mut clients, &metas, &tags);
            assert_eq!(
                creates(),
                SERVERS * metas.len(),
                "{what}: a same-shape rewrite called create"
            );
            concurrent_read_check(&mut clients, &metas, &tags);
            system.shutdown(clients).unwrap();
            assert_seed_golden(depth, |name, s| {
                file_bytes(backends[s].as_ref(), &format!("{name}.s{s}"))
            });
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_rewrite_at_another_shape_leaves_exactly_the_new_file() {
    let root = std::env::temp_dir().join(format!("panda-reshape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let array = |rows: usize| {
        vec![make_array(
            "field",
            &[rows, 16],
            ElementType::F64,
            &[2, 2],
            DiskSchema::Traditional(SERVERS),
        )]
    };
    let tags = vec!["field".to_string()];
    let files = |backends: &[Arc<LoggingFs>]| -> Vec<Vec<u8>> {
        (0..SERVERS)
            .map(|s| file_bytes(backends[s].as_ref(), &format!("field.s{s}")))
            .collect()
    };
    for kind in Backend::ALL {
        for (depth, policy) in REWRITE_CONFIGS {
            let what = format!("{kind:?} depth {depth} {}", policy.name());
            // What a first-time write of each shape leaves behind.
            let fresh = |rows: usize| {
                let at = root.join(format!("{what}/fresh{rows}"));
                let (system, mut clients, backends) = launch_logging(kind, &at, depth, policy);
                concurrent_write(&mut clients, &array(rows), &tags);
                system.shutdown(clients).unwrap();
                files(&backends)
            };
            let (system, mut clients, backends) =
                launch_logging(kind, &root.join(format!("{what}/reused")), depth, policy);
            // 16 rows, then fewer (a stale tail would show), then more.
            for rows in [16, 8, 32] {
                concurrent_write(&mut clients, &array(rows), &tags);
                let got = files(&backends);
                assert_eq!(got[0].len(), rows * 16 * 8 / SERVERS, "{what}: {rows} rows");
                assert!(
                    got == fresh(rows),
                    "{what}: {rows} rows differ from a first write"
                );
            }
            system.shutdown(clients).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sync_policy_controls_barrier_count() {
    let metas = test_arrays();
    let tags: Vec<String> = metas.iter().map(|m| m.name().to_string()).collect();
    let files_per_server = metas.len();
    let count_syncs = |policy: SyncPolicy, depth: usize| -> usize {
        let rec = Arc::new(TelemetryRecorder::with_ring(1 << 16));
        let mems: Vec<Arc<MemFs>> = (0..SERVERS).map(|_| Arc::new(MemFs::new())).collect();
        let handles = mems.clone();
        let config = PandaConfig::new(CLIENTS, SERVERS)
            .with_subchunk_bytes(256)
            .with_pipeline_depth(depth)
            .with_sync_policy(policy)
            .with_recorder(rec.clone() as Arc<dyn Recorder>);
        let (system, mut clients) = PandaSystem::builder()
            .config(config.clone())
            .launch(move |s| Arc::clone(&handles[s]) as Arc<dyn FileSystem>)
            .unwrap();
        concurrent_write(&mut clients, &metas, &tags);
        system.shutdown(clients).unwrap();
        let events = rec.timeline().expect("timeline recorder keeps events");
        events
            .iter()
            .filter(|e| e.action == Some(StepAction::Sync))
            .count()
    };

    // One barrier per server covers the whole collective.
    assert_eq!(count_syncs(SyncPolicy::PerCollective, 4), SERVERS);
    // One barrier per file.
    assert_eq!(
        count_syncs(SyncPolicy::PerFile, 4),
        SERVERS * files_per_server
    );
    // Paper semantics: every write syncs, which is strictly more
    // barriers than one per file (each file spans several subchunks).
    assert!(count_syncs(SyncPolicy::PerWrite, 1) > SERVERS * files_per_server);
}

#[test]
fn group_scheduler_reports_itself() {
    let metas = test_arrays();
    let tags: Vec<String> = metas.iter().map(|m| m.name().to_string()).collect();
    let rec = Arc::new(TelemetryRecorder::with_ring(1 << 16));
    let mems: Vec<Arc<MemFs>> = (0..SERVERS).map(|_| Arc::new(MemFs::new())).collect();
    let handles = mems.clone();
    let config = PandaConfig::new(CLIENTS, SERVERS)
        .with_subchunk_bytes(256)
        .with_pipeline_depth(3)
        .with_recorder(rec.clone() as Arc<dyn Recorder>);
    let (system, mut clients) = PandaSystem::builder()
        .config(config.clone())
        .launch(move |s| Arc::clone(&handles[s]) as Arc<dyn FileSystem>)
        .unwrap();
    concurrent_write(&mut clients, &metas, &tags);
    concurrent_read_check(&mut clients, &metas, &tags);
    let report = system.report();
    system.shutdown(clients).unwrap();

    let events = rec.timeline().expect("timeline recorder keeps events");
    // The master server took both batched submissions, one request
    // each.
    let master = CLIENTS as u32;
    let submits: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::RequestIssued && e.node == master)
        .collect();
    assert_eq!(submits.len(), 2, "one RequestIssued per collective");
    // The servers' drivers reorganized pieces.
    assert!(
        events.iter().any(|e| e.action == Some(StepAction::Reorg)),
        "no Reorg steps from the servers"
    );
    // The report aggregates cross-array overlap without breaking the
    // schema.
    assert!(report.cross_array_overlap_s >= 0.0);
    panda_obs::json::validate(&report.to_json()).unwrap();
}

#[test]
fn restart_without_generation_marker_is_a_typed_error() {
    let meta = make_array("f", &[8, 8], ElementType::F64, &[2, 2], DiskSchema::Natural);
    // Checkpoint on system A so the group's counter advances...
    let (system, mut clients, _mems) = launch_mem(CLIENTS, SERVERS, 1 << 20);
    let manifests: Vec<Vec<u8>> = {
        let datas: Vec<Vec<u8>> = (0..CLIENTS).map(|r| pattern_chunk(&meta, r)).collect();
        let mut out = vec![Vec::new(); CLIENTS];
        std::thread::scope(|s| {
            for ((client, d), slot) in clients.iter_mut().zip(&datas).zip(out.iter_mut()) {
                let meta = &meta;
                s.spawn(move || {
                    let mut g = ArrayGroup::new("torn");
                    g.include(meta.clone());
                    g.checkpoint(client, &[d]).unwrap();
                    *slot = g.encode_manifest();
                });
            }
        });
        out
    };
    system.shutdown(clients).unwrap();

    // ...then "restart" on a fresh deployment where the checkpoint data
    // may be gone or torn and the marker certainly never landed: the
    // group must refuse with the typed error instead of serving junk.
    let (system, mut clients, _mems) = launch_mem(CLIENTS, SERVERS, 1 << 20);
    std::thread::scope(|s| {
        for (client, manifest) in clients.iter_mut().zip(&manifests) {
            let meta = &meta;
            s.spawn(move || {
                let g = ArrayGroup::decode_manifest(manifest).unwrap();
                assert_eq!(g.checkpoints_taken(), 1);
                let mut buf = vec![0u8; meta.client_bytes(client.rank())];
                let err = g.restart(client, &mut [buf.as_mut_slice()]).unwrap_err();
                assert!(
                    matches!(
                        &err,
                        PandaError::Config {
                            issue: panda_core::ConfigIssue::CheckpointIncomplete { group }
                        } if group == "torn"
                    ),
                    "wrong error: {err}"
                );
            });
        }
    });
    system.shutdown(clients).unwrap();
}

/// Drive `handles` (index == rank) through a timestep, three
/// checkpoints with a restart after each, and two more timesteps, and
/// hold the access log to the marker-before-relay rule: the marker that
/// names checkpoint k − 1 is synced on I/O node 0 before either node
/// writes a byte of checkpoint k, and nothing but a write that finds
/// the raw plane dirty pays for it.
fn marker_is_durable_before_the_next_checkpoint<H: CollectiveHandle + Send>(
    handles: &mut [H],
    metas: &[ArrayMeta],
    log: &AccessLog,
) {
    let mut groups: Vec<ArrayGroup> = (0..handles.len())
        .map(|_| {
            let mut g = ArrayGroup::new("ord");
            for m in metas {
                g.include(m.clone());
            }
            g
        })
        .collect();
    let marker = groups[0].marker_file();
    // Client `r`'s buffers for operation `k`: every byte differs by `k`.
    let datas = |r: usize, k: u8| -> Vec<Vec<u8>> {
        metas
            .iter()
            .map(|m| pattern_chunk(m, r).iter().map(|b| b ^ k).collect())
            .collect()
    };
    // One collective: `op` on every rank at once.
    fn each<H: CollectiveHandle + Send>(
        handles: &mut [H],
        groups: &mut [ArrayGroup],
        op: impl Fn(&mut H, &mut ArrayGroup, usize) + Sync,
    ) {
        std::thread::scope(|s| {
            for (r, (h, g)) in handles.iter_mut().zip(groups.iter_mut()).enumerate() {
                let op = &op;
                s.spawn(move || op(h, g, r));
            }
        });
    }
    let timestep = |handles: &mut [H], groups: &mut [ArrayGroup], k: u8| {
        each(handles, groups, |h, g, r| {
            let d = datas(r, k);
            let slices: Vec<&[u8]> = d.iter().map(Vec::as_slice).collect();
            g.timestep(h, &slices).unwrap();
        });
    };
    let marker_syncs = || {
        let log = log.lock().unwrap();
        log.iter()
            .filter(|e| e.access == Access::Sync && e.file == marker)
            .count()
    };

    // A write with no raw write before it syncs its own files only.
    timestep(handles, &mut groups, 0);
    assert!(log
        .lock()
        .unwrap()
        .iter()
        .all(|e| e.access != Access::Sync || e.file.contains(".ts0.")));

    // Log positions between which checkpoint k's data writes fall.
    let mut spans = Vec::new();
    for k in 1..=3u8 {
        let start = log.lock().unwrap().len();
        each(handles, &mut groups, |h, g, r| {
            let d = datas(r, k);
            let slices: Vec<&[u8]> = d.iter().map(Vec::as_slice).collect();
            g.checkpoint(h, &slices).unwrap();
        });
        spans.push(start..log.lock().unwrap().len());
        // A read syncs nothing, however dirty the raw plane is.
        let before = marker_syncs();
        each(handles, &mut groups, |h, g, r| {
            let mut out: Vec<Vec<u8>> = datas(r, k).iter().map(|d| vec![0; d.len()]).collect();
            let mut slices: Vec<&mut [u8]> = out.iter_mut().map(Vec::as_mut_slice).collect();
            g.restart(h, &mut slices).unwrap();
            assert_eq!(out, datas(r, k), "rank {r} restart after checkpoint {k}");
        });
        assert_eq!(marker_syncs(), before, "restart {k} synced the marker");
    }
    // Every rank's last marker landed before its restart was answered:
    // the next write finds the raw plane dirty, the one after it clean.
    let before = marker_syncs();
    timestep(handles, &mut groups, 4);
    assert_eq!(marker_syncs(), before + 1);
    timestep(handles, &mut groups, 5);
    assert_eq!(marker_syncs(), before + 1, "a clean raw plane was synced");

    let log = log.lock().unwrap();
    // The markers' contents in order of first appearance: checkpoint
    // 1's, 2's, 3's (every rank writes the same bytes).
    let mut marker_fnvs: Vec<u64> = Vec::new();
    for e in log.iter() {
        if e.access == Access::Write && e.file == marker && !marker_fnvs.contains(&e.fnv) {
            marker_fnvs.push(e.fnv);
        }
    }
    assert_eq!(marker_fnvs.len(), 3);
    for k in 2..=3usize {
        let span = spans[k - 1].clone();
        let data_write = |e: &Entry| e.access == Access::Write && e.file.contains(".ckpt-");
        for node in 0..SERVERS {
            assert!(
                log[span.clone()]
                    .iter()
                    .any(|e| e.node == node && data_write(e)),
                "checkpoint {k} wrote nothing on node {node}"
            );
        }
        let first_write = span.start + log[span].iter().position(data_write).unwrap();
        let marker_written = log
            .iter()
            .position(|e| e.file == marker && e.fnv == marker_fnvs[k - 2])
            .unwrap();
        assert!(
            log[marker_written..first_write]
                .iter()
                .any(|e| e.node == 0 && e.access == Access::Sync && e.file == marker),
            "checkpoint {k} wrote before checkpoint {}'s marker was synced",
            k - 1
        );
    }
}

#[test]
fn a_checkpoints_marker_is_synced_before_the_next_checkpoint_writes() {
    let config = |clients: usize| {
        PandaConfig::new(clients, SERVERS)
            .with_subchunk_bytes(256)
            .with_pipeline_depth(3)
    };
    // A fleet: four ranks, every one of them writes the marker.
    let backends = logging_backends(|_| Arc::new(MemFs::new()));
    let handles = backends.clone();
    let (system, mut clients) = PandaSystem::builder()
        .config(config(CLIENTS))
        .launch(move |s| Arc::clone(&handles[s]) as Arc<dyn FileSystem>)
        .unwrap();
    marker_is_durable_before_the_next_checkpoint(&mut clients, &test_arrays(), &backends[0].log);
    system.shutdown(clients).unwrap();

    // A session: one tenant, its requests admitted by the master.
    let metas = [make_array(
        "field",
        &[16, 16],
        ElementType::F64,
        &[1, 1],
        DiskSchema::Traditional(SERVERS),
    )];
    let backends = logging_backends(|_| Arc::new(MemFs::new()));
    let handles = backends.clone();
    let mut service = PandaSystem::builder()
        .config(config(1))
        .serve(move |s| Arc::clone(&handles[s]) as Arc<dyn FileSystem>)
        .unwrap();
    let mut sessions = vec![service.open().unwrap()];
    marker_is_durable_before_the_next_checkpoint(&mut sessions, &metas, &backends[0].log);
    service.shutdown(sessions).unwrap();
}
