//! The four workloads: what each deploys, the inputs it generates from
//! the seed, its closed-loop load generator, and the check of what it
//! left on disk.
//!
//! Every deployment is 2 client threads x 2 I/O nodes, and every knob
//! of `PandaConfig` is pinned here: a change that only flips a default
//! of the runtime must move nothing in this benchmark.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use panda_core::{
    ArrayGroup, ArrayMeta, PandaClient, PandaConfig, PandaError, PandaService, PandaSystem,
    ReadSet, Session, WriteSet,
};
use panda_fs::{FileSystem, LocalFs, MemFs, SubmitFs, SyncPolicy};
use panda_msg::{FabricStats, InProcFabric, TcpFabric, Transport};
use panda_schema::{DataSchema, ElementType, Mesh, Shape};

use crate::stats::{fnv1a, Rng, FNV_OFFSET};
use crate::timed::{op_id, Span, TimedFs, TimedTransport, Tracer, MAX_CLIENTS};

pub const CLIENTS: usize = 2;
pub const SERVERS: usize = 2;
/// The paper's subchunk size.
pub const SUBCHUNK_BYTES: usize = 1 << 20;
pub const PIPELINE_DEPTH: usize = 2;
pub const IO_WORKERS: usize = 2;
pub const COMPLETION_THREADS: usize = 2;
pub const MAX_CONCURRENT: usize = 4;
pub const MAX_QUEUED: usize = 16;
pub const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// Warm-up before the first timed operation: write/read pairs of a bulk
/// workload, operations per session of `small_sessions`.
const WARMUP_BULK_PAIRS: usize = 2;
const WARMUP_SESSION_OPS: usize = 1000;
/// Samples per second of window each session's log is sized for:
/// several times what both sessions together complete.
const SESSION_RATE_RESERVED: f64 = 20_000.0;
/// Distinct 4 KiB contents a session chooses its next write from.
const SESSION_VARIANTS: usize = 4;
/// One generated word per this many bytes is overwritten before every
/// bulk write, so a read that left part of a buffer stale cannot pass.
const STAMP_STRIDE: usize = 4096;
/// The stamp of the final, untimed write: files are compared between
/// runs after it, so they must not depend on how many operations ran.
const SEAL_STAMP: u64 = u64::MAX;

const BULK_TAG: &str = "bulk";
const GROUP_NAME: &str = "sim";
const GROUP_ARRAYS: [&str; 4] = ["temperature", "pressure", "density", "energy"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkMem,
    BulkTcpDisk,
    GroupSubmit,
    SmallSessions,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BulkMem,
        Workload::BulkTcpDisk,
        Workload::GroupSubmit,
        Workload::SmallSessions,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkMem => "bulk_mem",
            Workload::BulkTcpDisk => "bulk_tcp_disk",
            Workload::GroupSubmit => "group_submit",
            Workload::SmallSessions => "small_sessions",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::BulkMem => {
                "64 MiB array, natural chunking, in-process fabric, MemFs: no socket, device or \
                 reorganization, so what remains is panda-core's scheduler, framing and copies"
            }
            Workload::BulkTcpDisk => {
                "same array in traditional order over TCP to LocalFs with per-file fsync: socket, \
                 512-byte strided copy and real pwrite+fsync do the work, the scheduler little"
            }
            Workload::GroupSubmit => {
                "checkpoint/restart of a four-array group through SubmitFs with one coalesced \
                 sync: the asynchronous disk path and the multi-file schedule"
            }
            Workload::SmallSessions => {
                "two service sessions looping 4 KiB writes and reads: bytes are negligible, \
                 latency is admission, plan build, codec and wake-up"
            }
        }
    }

    pub fn tcp(self) -> bool {
        self == Workload::BulkTcpDisk
    }

    pub fn sync_policy(self) -> SyncPolicy {
        match self {
            Workload::GroupSubmit => SyncPolicy::PerCollective,
            _ => SyncPolicy::PerFile,
        }
    }

    pub fn is_sessions(self) -> bool {
        self == Workload::SmallSessions
    }

    /// The arrays of one operation, as client `rank` names them. (A
    /// session's array is its own; fleet clients share the arrays.)
    pub fn arrays(self, rank: usize) -> Vec<ArrayMeta> {
        let bulk_shape = || Shape::new(&[256, 256, 128]).expect("valid shape");
        let block = |shape: Shape, elem, mesh: &[usize]| {
            DataSchema::block_all(shape, elem, Mesh::new(mesh).expect("valid mesh"))
                .expect("valid schema")
        };
        match self {
            Workload::BulkMem => {
                let memory = block(bulk_shape(), ElementType::F64, &[1, 1, 2]);
                vec![ArrayMeta::natural(BULK_TAG, memory).expect("valid array")]
            }
            Workload::BulkTcpDisk => {
                let memory = block(bulk_shape(), ElementType::F64, &[1, 1, 2]);
                let disk = DataSchema::traditional_order(bulk_shape(), ElementType::F64, SERVERS)
                    .expect("valid schema");
                vec![ArrayMeta::new(BULK_TAG, memory, disk).expect("valid array")]
            }
            Workload::GroupSubmit => GROUP_ARRAYS
                .iter()
                .map(|name| {
                    let shape = Shape::new(&[128, 128, 128]).expect("valid shape");
                    let memory = block(shape, ElementType::F64, &[2, 1, 1]);
                    ArrayMeta::natural(*name, memory).expect("valid array")
                })
                .collect(),
            Workload::SmallSessions => {
                let shape = Shape::new(&[64, 64]).expect("valid shape");
                let memory = block(shape.clone(), ElementType::U8, &[1, 1]);
                let disk = DataSchema::traditional_order(shape, ElementType::U8, SERVERS)
                    .expect("valid schema");
                vec![ArrayMeta::new(session_tag(rank), memory, disk).expect("valid array")]
            }
        }
    }

    /// The file tag array `idx` of an operation is written under.
    /// (`group_submit` alternates two checkpoint generations; this is
    /// the first.)
    pub fn file_tag(self, rank: usize, idx: usize) -> String {
        match self {
            Workload::BulkMem | Workload::BulkTcpDisk => BULK_TAG.to_string(),
            Workload::GroupSubmit => self.group().checkpoint_tag(idx, 0),
            Workload::SmallSessions => session_tag(rank),
        }
    }

    fn group(self) -> ArrayGroup {
        let mut group = ArrayGroup::new(GROUP_NAME);
        for meta in self.arrays(0) {
            group.include(meta);
        }
        group
    }

    /// User bytes one operation moves.
    pub fn user_bytes(self) -> usize {
        self.arrays(0).iter().map(|a| a.total_bytes()).sum()
    }

    /// The pinned configuration.
    pub fn config(self) -> PandaConfig {
        PandaConfig::new(CLIENTS, SERVERS)
            .with_subchunk_bytes(SUBCHUNK_BYTES)
            .with_pipeline_depth(PIPELINE_DEPTH)
            .with_io_workers(IO_WORKERS)
            .with_sync_policy(self.sync_policy())
            .with_disk_completion_threads(COMPLETION_THREADS)
            .with_max_concurrent_collectives(MAX_CONCURRENT)
            .with_max_queued_collectives(MAX_QUEUED)
            .with_recv_timeout(RECV_TIMEOUT)
            .with_recorder(panda_obs::null_recorder())
    }

    /// A fresh backend of this workload's kind for I/O node `server`,
    /// rooted (when it has a root) under `scratch`.
    pub fn new_backend(self, scratch: &Path, server: usize) -> Result<Arc<dyn FileSystem>, String> {
        let root = scratch.join(format!("ionode{server}"));
        Ok(match self {
            Workload::BulkMem | Workload::SmallSessions => Arc::new(MemFs::new()),
            Workload::BulkTcpDisk => Arc::new(LocalFs::new(root).map_err(|e| e.to_string())?),
            Workload::GroupSubmit => {
                Arc::new(SubmitFs::new(root, COMPLETION_THREADS).map_err(|e| e.to_string())?)
            }
        })
    }

    /// Fresh fabric endpoints of this workload's kind.
    pub fn new_fabric(self, nodes: usize) -> Result<Vec<Box<dyn Transport>>, String> {
        fn boxed<T: Transport + 'static>(eps: Vec<T>) -> Vec<Box<dyn Transport>> {
            eps.into_iter()
                .map(|e| Box::new(e) as Box<dyn Transport>)
                .collect()
        }
        if self.tcp() {
            TcpFabric::localhost(nodes, RECV_TIMEOUT)
                .map(boxed)
                .map_err(|e| format!("tcp fabric: {e}"))
        } else {
            Ok(boxed(InProcFabric::with_timeout(nodes, RECV_TIMEOUT).0))
        }
    }
}

fn session_tag(rank: usize) -> String {
    format!("sess{rank}")
}

/// Which client's operation a file belongs to, for [`TimedFs`].
fn session_owner(path: &str) -> usize {
    path.strip_prefix("sess")
        .and_then(|rest| rest.split('.').next())
        .and_then(|rank| rank.parse().ok())
        .unwrap_or(0)
}

/// One completed operation of the load generator.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub read: bool,
    /// Completion time, seconds since the phase began.
    pub end_s: f64,
    /// Bulk: the slowest client's elapsed time. Session: submit to
    /// complete.
    pub dur_s: f64,
}

/// What one phase (warm-up, timed window, traced window) did.
#[derive(Debug, Default)]
pub struct PhaseLog {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Operations that returned an error, were refused, or read back
    /// something other than what was written.
    pub failed: u64,
    pub wall_s: f64,
    pub errors: Vec<String>,
}

impl PhaseLog {
    /// `(completion time, duration)` of the writes, or of the reads.
    pub fn timed(&self, read: bool) -> Vec<(f64, f64)> {
        self.samples
            .iter()
            .filter(|s| s.read == read)
            .map(|s| (s.end_s, s.dur_s))
            .collect()
    }
}

/// How long a phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Time(Duration),
    /// Operations in total (bulk: half writes, half reads; sessions:
    /// split evenly between them).
    Ops(usize),
}

/// One fleet client's inputs and buffers.
struct BulkState {
    metas: Vec<ArrayMeta>,
    /// `Some` for `group_submit`: the client's copy of the group, whose
    /// checkpoint counter advances identically on every client.
    group: Option<ArrayGroup>,
    data: Vec<Vec<u8>>,
    out: Vec<Vec<u8>>,
}

impl BulkState {
    fn new(w: Workload, rank: usize, seed: u64) -> BulkState {
        let metas = w.arrays(rank);
        let mut rng = Rng::new(seed ^ (rank as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        let data: Vec<Vec<u8>> = metas
            .iter()
            .map(|m| {
                let mut buf = vec![0u8; m.client_bytes(rank)];
                rng.fill(&mut buf);
                buf
            })
            .collect();
        BulkState {
            out: data.iter().map(|d| vec![0u8; d.len()]).collect(),
            group: (w == Workload::GroupSubmit).then(|| w.group()),
            metas,
            data,
        }
    }

    fn stamp(&mut self, value: u64) {
        for buf in &mut self.data {
            for page in buf.chunks_exact_mut(STAMP_STRIDE) {
                page[..8].copy_from_slice(&value.to_le_bytes());
            }
        }
    }

    fn write(&mut self, client: &mut PandaClient) -> Result<(), PandaError> {
        match &mut self.group {
            Some(group) => {
                let slices: Vec<&[u8]> = self.data.iter().map(Vec::as_slice).collect();
                group.checkpoint(client, &slices)
            }
            None => {
                client.write_set(&WriteSet::new().array(&self.metas[0], BULK_TAG, &self.data[0]))
            }
        }
    }

    fn read(&mut self, client: &mut PandaClient) -> Result<(), PandaError> {
        match &self.group {
            Some(group) => {
                let mut slices: Vec<&mut [u8]> =
                    self.out.iter_mut().map(Vec::as_mut_slice).collect();
                group.restart(client, &mut slices)
            }
            None => client.read_set(&mut ReadSet::new().array(
                &self.metas[0],
                BULK_TAG,
                &mut self.out[0],
            )),
        }
    }

    fn bytes(&self) -> u64 {
        self.data.iter().map(|d| d.len() as u64).sum()
    }
}

/// One session's inputs, buffer and place in its seeded sequence.
struct SessionState {
    meta: ArrayMeta,
    tag: String,
    variants: Vec<Vec<u8>>,
    buf: Vec<u8>,
    rng: Rng,
    /// The variant last written, which a read must return.
    last: usize,
}

impl SessionState {
    fn new(w: Workload, rank: usize, seed: u64) -> SessionState {
        let meta = w.arrays(rank).remove(0);
        let mut rng = Rng::new(seed ^ (rank as u64 + 1).wrapping_mul(0x9FB2_1C65_1E98_DF25));
        let variants: Vec<Vec<u8>> = (0..SESSION_VARIANTS)
            .map(|_| {
                let mut v = vec![0u8; meta.total_bytes()];
                rng.fill(&mut v);
                v
            })
            .collect();
        SessionState {
            buf: vec![0u8; meta.total_bytes()],
            tag: session_tag(rank),
            meta,
            variants,
            rng,
            last: 0,
        }
    }

    fn write(&mut self, sess: &mut Session, variant: usize) -> Result<(), PandaError> {
        let set = WriteSet::new().array(&self.meta, self.tag.as_str(), &self.variants[variant]);
        sess.write_set(&set)?;
        self.last = variant;
        Ok(())
    }

    fn read(&mut self, sess: &mut Session) -> Result<(), PandaError> {
        let mut set = ReadSet::new().array(&self.meta, self.tag.as_str(), &mut self.buf);
        sess.read_set(&mut set).map(|_| ())
    }

    /// Whether the buffer holds the bytes last written; clears it, so
    /// the next read cannot pass on what this one left behind.
    fn verify_and_clear(&mut self) -> bool {
        let same = self.buf == self.variants[self.last];
        self.buf.fill(0);
        same
    }
}

enum Running {
    Fleet {
        system: PandaSystem,
        clients: Vec<PandaClient>,
        states: Vec<BulkState>,
    },
    Service {
        service: PandaService,
        sessions: Vec<Session>,
        states: Vec<SessionState>,
    },
}

/// A launched, warmed-up deployment of one workload with its load
/// generators' state.
pub struct Rig {
    workload: Workload,
    running: Running,
    /// The bare backend of each I/O node, for reading files back.
    backends: Vec<Arc<dyn FileSystem>>,
    tracer: Option<Arc<Tracer>>,
    /// Operations begun so far; the next operation's sequence number.
    seq: u64,
    pub warmup: PhaseLog,
}

impl Rig {
    /// Set-up: generate the inputs from `seed`, launch the deployment
    /// (with the timing wrappers in place iff `tracer` is given), and
    /// warm up.
    pub fn start(
        w: Workload,
        seed: u64,
        scratch: &Path,
        tracer: Option<Arc<Tracer>>,
    ) -> Result<Rig, String> {
        let backends = (0..SERVERS)
            .map(|s| w.new_backend(scratch, s))
            .collect::<Result<Vec<_>, _>>()?;
        let mut builder = PandaSystem::builder().config(w.config());
        // Untraced in-process runs take the builder's own fabric, so no
        // benchmark code sits between the runtime and its transport.
        if w.tcp() || tracer.is_some() {
            let mut endpoints = w.new_fabric(CLIENTS + SERVERS)?;
            if let Some(tracer) = &tracer {
                endpoints = endpoints
                    .into_iter()
                    .map(|ep| TimedTransport::wrap(ep, Arc::clone(tracer)))
                    .collect();
            }
            builder = builder.transports(endpoints, Arc::new(FabricStats::new()));
        }
        let owner_of: fn(&str) -> usize = if w.is_sessions() {
            session_owner
        } else {
            |_| 0
        };
        let factory = |s: usize| match &tracer {
            Some(tracer) => TimedFs::wrap(
                Arc::clone(&backends[s]),
                Arc::clone(tracer),
                (CLIENTS + s) as u32,
                owner_of,
            ),
            None => Arc::clone(&backends[s]),
        };
        let running = if w.is_sessions() {
            let mut service = builder.serve(factory).map_err(|e| e.to_string())?;
            let sessions: Vec<Session> = (0..CLIENTS)
                .map(|_| service.open().expect("one slot per client"))
                .collect();
            let states = sessions
                .iter()
                .map(|s| SessionState::new(w, s.rank(), seed))
                .collect();
            Running::Service {
                service,
                sessions,
                states,
            }
        } else {
            let (system, clients) = builder.launch(factory).map_err(|e| e.to_string())?;
            let states = (0..CLIENTS).map(|r| BulkState::new(w, r, seed)).collect();
            Running::Fleet {
                system,
                clients,
                states,
            }
        };
        let mut rig = Rig {
            workload: w,
            running,
            backends,
            tracer,
            seq: 0,
            warmup: PhaseLog::default(),
        };
        let warmup = if w.is_sessions() {
            Limit::Ops(WARMUP_SESSION_OPS * CLIENTS)
        } else {
            Limit::Ops(WARMUP_BULK_PAIRS * 2)
        };
        rig.warmup = rig.phase(warmup);
        Ok(rig)
    }

    /// Run the load generators until `limit`.
    pub fn phase(&mut self, limit: Limit) -> PhaseLog {
        // Warm-up and sealing leave no spans: only an armed tracer sees
        // the load generators' operations.
        let tracer = self.tracer.as_deref().filter(|t| t.armed());
        let log = match &mut self.running {
            Running::Fleet {
                clients, states, ..
            } => bulk_phase(clients, states, limit, tracer, self.seq),
            Running::Service {
                sessions, states, ..
            } => session_phase(sessions, states, limit, tracer, self.seq),
        };
        self.seq += log.attempted;
        log
    }

    /// One last untimed write of run-independent content, then compare
    /// every data file on the I/O nodes with what the clients hold —
    /// computed here from the schemas, not by the runtime's planner.
    /// Returns the FNV-1a of those files (names and bytes, in order).
    pub fn seal_and_check(&mut self) -> Result<u64, String> {
        let w = self.workload;
        match &mut self.running {
            Running::Fleet {
                clients, states, ..
            } => {
                // Two sealed checkpoints fill both generations.
                let writes = if w == Workload::GroupSubmit { 2 } else { 1 };
                for state in states.iter_mut() {
                    state.stamp(SEAL_STAMP);
                }
                for _ in 0..writes {
                    std::thread::scope(|s| {
                        let joins: Vec<_> = clients
                            .iter_mut()
                            .zip(states.iter_mut())
                            .map(|(c, st)| s.spawn(move || st.write(c)))
                            .collect();
                        joins
                            .into_iter()
                            .map(|j| j.join().expect("client thread panicked"))
                            .collect::<Result<Vec<()>, _>>()
                    })
                    .map_err(|e| format!("sealing write: {e}"))?;
                }
            }
            Running::Service {
                sessions, states, ..
            } => {
                for (sess, st) in sessions.iter_mut().zip(states.iter_mut()) {
                    st.write(sess, 0)
                        .map_err(|e| format!("sealing write: {e}"))?;
                }
            }
        }
        let mut hash = FNV_OFFSET;
        for (server, prefix, parts) in self.expected_files() {
            let fs = &self.backends[server];
            let names: Vec<String> = fs
                .list()
                .into_iter()
                .filter(|n| n.starts_with(&prefix))
                .collect();
            let [name] = names.as_slice() else {
                return Err(format!(
                    "ionode {server}: expected one file {prefix}*, found {names:?}"
                ));
            };
            let mut file = fs.open(name).map_err(|e| e.to_string())?;
            let mut bytes = vec![0u8; file.len() as usize];
            file.read_at(0, &mut bytes).map_err(|e| e.to_string())?;
            let want: usize = parts.iter().map(|p| p.len()).sum();
            let mut at = 0;
            let same = bytes.len() == want
                && parts.iter().all(|p| {
                    at += p.len();
                    bytes[at - p.len()..at] == **p
                });
            if !same {
                return Err(format!(
                    "ionode {server}: {name} does not hold what was written"
                ));
            }
            hash = fnv1a(fnv1a(hash, name.as_bytes()), &bytes);
        }
        Ok(hash)
    }

    /// Every data file that must exist: its I/O node, the prefix of its
    /// name, and its bytes as slices of the clients' buffers.
    fn expected_files(&self) -> Vec<(usize, String, Vec<&[u8]>)> {
        let w = self.workload;
        let mut files = Vec::new();
        match &self.running {
            Running::Fleet { states, .. } => match w {
                // Natural chunking with one chunk per client: I/O node
                // `s` holds client `s`'s chunk as it lies in memory.
                Workload::BulkMem | Workload::GroupSubmit => {
                    let generations = if w == Workload::GroupSubmit { 2 } else { 1 };
                    for generation in 0..generations {
                        for (server, state) in states.iter().enumerate() {
                            for (idx, data) in state.data.iter().enumerate() {
                                let tag = match &state.group {
                                    Some(group) => group.checkpoint_tag(idx, generation),
                                    None => BULK_TAG.to_string(),
                                };
                                files.push((server, format!("{tag}."), vec![data.as_slice()]));
                            }
                        }
                    }
                }
                // Traditional order: the I/O nodes' files concatenate
                // to the row-major array. A row of 128 elements is 64
                // from client 0 then 64 from client 1.
                Workload::BulkTcpDisk => {
                    let run = 64 * 8;
                    let rows_per_server = 256 * 256 / SERVERS;
                    for server in 0..SERVERS {
                        let parts = (server * rows_per_server..(server + 1) * rows_per_server)
                            .flat_map(|row| {
                                states
                                    .iter()
                                    .map(move |st| &st.data[0][row * run..(row + 1) * run])
                            })
                            .collect();
                        files.push((server, format!("{BULK_TAG}."), parts));
                    }
                }
                Workload::SmallSessions => unreachable!("sessions run as a service"),
            },
            // Traditional order over two I/O nodes: each holds half of
            // the session's rows.
            Running::Service { states, .. } => {
                for state in states {
                    let half = state.buf.len() / SERVERS;
                    for server in 0..SERVERS {
                        let bytes = &state.variants[state.last][server * half..(server + 1) * half];
                        files.push((server, format!("{}.", state.tag), vec![bytes]));
                    }
                }
            }
        }
        files
    }

    /// Shut the deployment down and join its threads.
    pub fn stop(self) -> Result<(), String> {
        match self.running {
            Running::Fleet {
                system, clients, ..
            } => system.shutdown(clients),
            Running::Service {
                service, sessions, ..
            } => service.shutdown(sessions),
        }
        .map_err(|e| format!("shutdown: {e}"))
    }
}

/// SPMD closed loop: every client calls the collective, a barrier
/// separates operations, and an operation takes as long as its slowest
/// client. Each pair is a write (or checkpoint) of freshly stamped
/// data, then a read (or restart) that must return it.
fn bulk_phase(
    clients: &mut [PandaClient],
    states: &mut [BulkState],
    limit: Limit,
    tracer: Option<&Tracer>,
    seq0: u64,
) -> PhaseLog {
    let barrier = Barrier::new(clients.len());
    let stop = AtomicBool::new(false);
    let began = Instant::now();
    let logs: Vec<(PhaseLog, Vec<Span>)> = std::thread::scope(|s| {
        let joins: Vec<_> = clients
            .iter_mut()
            .zip(states.iter_mut())
            .enumerate()
            .map(|(rank, (client, state))| {
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || {
                    let (mut log, mut spans) = (PhaseLog::default(), Vec::new());
                    for pair in 0.. {
                        if rank == 0 {
                            let over = match limit {
                                Limit::Time(window) => began.elapsed() >= window,
                                Limit::Ops(n) => pair == n.div_ceil(2),
                            };
                            // Published by the barrier that follows.
                            if over {
                                stop.store(true, Ordering::SeqCst);
                            }
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let seq = seq0 + 2 * pair as u64 + 1;
                        state.stamp(seq);
                        for read in [false, true] {
                            let id = op_id(seq + read as u64, read);
                            if let Some(t) = tracer {
                                t.begin_op(rank, id);
                            }
                            barrier.wait();
                            let start_ns = tracer.map_or(0, Tracer::now_ns);
                            let t0 = Instant::now();
                            let result = if read {
                                state.read(client)
                            } else {
                                state.write(client)
                            };
                            let dur_s = t0.elapsed().as_secs_f64();
                            if let Some(t) = tracer {
                                spans.push(t.op_span(rank, id, start_ns, state.bytes()));
                            }
                            log.samples.push(Sample {
                                read,
                                dur_s,
                                end_s: began.elapsed().as_secs_f64(),
                            });
                            let ok = match result {
                                Ok(()) => !read || state.out == state.data,
                                Err(e) => {
                                    log.errors.push(format!("client {rank}: {e}"));
                                    false
                                }
                            };
                            if !ok {
                                log.failed += 1;
                                stop.store(true, Ordering::SeqCst);
                            }
                        }
                    }
                    (log, spans)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = PhaseLog {
        wall_s: began.elapsed().as_secs_f64(),
        ..PhaseLog::default()
    };
    // Every client ran the same operations: one sample per operation,
    // with the slowest client's times.
    let done = logs.iter().map(|l| l.0.samples.len()).min().unwrap_or(0);
    for op in 0..done {
        let slowest = |pick: fn(&Sample) -> f64| {
            logs.iter()
                .map(|l| pick(&l.0.samples[op]))
                .fold(0.0, f64::max)
        };
        out.samples.push(Sample {
            read: op % 2 == 1,
            dur_s: slowest(|s| s.dur_s),
            end_s: slowest(|s| s.end_s),
        });
    }
    out.attempted = done as u64;
    // A collective fails as one: count it once, however many clients
    // saw it fail.
    out.failed = logs.iter().map(|l| l.0.failed).max().unwrap_or(0);
    for (mut log, mut spans) in logs {
        out.errors.append(&mut log.errors);
        if let Some(t) = tracer {
            t.absorb(&mut spans);
        }
    }
    out
}

/// Service closed loop: each session, on its own thread, submits its
/// next operation when the previous one has completed. The seed decides
/// whether that operation is a write (and of which content) or a read.
fn session_phase(
    sessions: &mut [Session],
    states: &mut [SessionState],
    limit: Limit,
    tracer: Option<&Tracer>,
    seq0: u64,
) -> PhaseLog {
    let began = Instant::now();
    let (per_session, reserve) = match limit {
        Limit::Time(window) => (
            None,
            (window.as_secs_f64() * SESSION_RATE_RESERVED) as usize,
        ),
        Limit::Ops(n) => (Some(n.div_ceil(sessions.len())), n),
    };
    let logs: Vec<PhaseLog> = std::thread::scope(|s| {
        let joins: Vec<_> = sessions
            .iter_mut()
            .zip(states.iter_mut())
            .map(|(sess, state)| {
                s.spawn(move || {
                    let rank = sess.rank();
                    let mut log = PhaseLog {
                        samples: touched(reserve),
                        ..PhaseLog::default()
                    };
                    let mut spans = Vec::new();
                    loop {
                        let over = match limit {
                            Limit::Time(window) => began.elapsed() >= window,
                            Limit::Ops(_) => Some(log.attempted as usize) == per_session,
                        };
                        if over {
                            break;
                        }
                        let draw = state.rng.next_u64();
                        // A session's first operation must be a write:
                        // there is nothing to read yet.
                        let read = draw & 1 == 1 && seq0 + log.attempted > 0;
                        let variant = (draw >> 1) as usize % SESSION_VARIANTS;
                        // Ids are unique across sessions: the sequence
                        // number is the session's own, the rank (below
                        // `MAX_CLIENTS`) the low digit.
                        let seq = (seq0 + log.attempted + 1) * MAX_CLIENTS as u64 + rank as u64;
                        let id = op_id(seq, read);
                        if let Some(t) = tracer {
                            t.begin_op(rank, id);
                        }
                        let start_ns = tracer.map_or(0, Tracer::now_ns);
                        let t0 = Instant::now();
                        let result = if read {
                            state.read(sess)
                        } else {
                            state.write(sess, variant)
                        };
                        let dur_s = t0.elapsed().as_secs_f64();
                        let result = result.map(|()| !read || state.verify_and_clear());
                        if let Some(t) = tracer {
                            spans.push(t.op_span(rank, id, start_ns, state.buf.len() as u64));
                        }
                        log.attempted += 1;
                        match result {
                            Ok(true) => log.samples.push(Sample {
                                read,
                                dur_s,
                                end_s: began.elapsed().as_secs_f64(),
                            }),
                            Ok(false) => {
                                log.failed += 1;
                                log.errors
                                    .push(format!("session {rank}: read returned stale bytes"));
                            }
                            Err(e) => {
                                log.failed += 1;
                                log.errors.push(format!("session {rank}: {e}"));
                                break;
                            }
                        }
                    }
                    if let Some(t) = tracer {
                        t.absorb(&mut spans);
                    }
                    log
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("session thread panicked"))
            .collect()
    });
    let mut out = PhaseLog {
        wall_s: began.elapsed().as_secs_f64(),
        ..PhaseLog::default()
    };
    for mut log in logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
        if out.samples.is_empty() {
            // Merge into the first session's vector: its touched
            // capacity holds every session's samples.
            out.samples = std::mem::take(&mut log.samples);
        } else {
            out.samples.append(&mut log.samples);
        }
        out.errors.append(&mut log.errors);
    }
    out
}

/// An empty sample vector whose capacity has been written once. The
/// process's peak resident set is a metric, and a log that grew with
/// the number of operations completed would make it follow the host's
/// speed (48 bytes a sample, a quarter of a small workload's memory)
/// instead of the runtime's memory.
fn touched(capacity: usize) -> Vec<Sample> {
    let blank = Sample {
        read: false,
        end_s: 0.0,
        dur_s: 0.0,
    };
    let mut samples = vec![blank; capacity];
    samples.clear();
    samples
}
