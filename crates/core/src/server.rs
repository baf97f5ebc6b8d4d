//! The Panda server: the I/O-node side of collective operations.
//!
//! Each server runs [`ServerNode::run`] in its own thread, as a shared
//! facility: up to `max_concurrent_collectives` admitted requests are
//! live at once, each lowered into its own [`CollectiveSchedule`]. Three
//! parts serve them:
//!
//! * **The window** ([`Window`], one per live run) knows
//!   *when* each step of a schedule may start — how many fetches may be
//!   outstanding, when an assembled subchunk goes to the disk, when a
//!   read may run ahead, when the run closes and retires — and nothing
//!   else: it has no bytes, no socket, no channel and no clock.
//! * **The driver** (this module's [`ServerNode`]) owns everything the
//!   window does not: the transport, admission, the buffers, the
//!   [`IoPool`] and the events. Whatever happens names one run — a
//!   `Data` reply, a disk answer, an admission — so the driver looks
//!   that run up once, feeds its window the one [`Input`], and performs
//!   the [`Action`]s it answers: a `Fetch` is a message (or, for a
//!   one-shot, a piece cut out of the bytes it carried and fed
//!   straight back), a `Write`/`Read`/`Close` a command
//!   to the disk task, a `Scatter` a pool pass and the pushes, a
//!   `Retire` the `Complete`s and an admission from the wait queue. No
//!   other run is touched; runs share nothing but the FIFO disk task,
//!   so they take turns in the order their inputs arrive. The one thing
//!   the driver batches is reorganization: the pieces one transport
//!   drain delivers are assembled in one parallel pool pass before the
//!   writes they complete are performed. The loop blocks only when
//!   nothing arrived — on the disk channel when disk work is
//!   outstanding, on the transport otherwise.
//! * **The disk task** is one named thread (`panda-disk-<server>`) per
//!   server, spawned in [`ServerNode::run`], and serves every request:
//!   it keeps a per-request file table and processes `DiskCmd`s strictly
//!   in arrival order, which interleaves requests at subchunk
//!   granularity while preserving each request's per-file FIFO — so
//!   every file is still written/read in exactly the serial schedule's
//!   order and files stay byte-identical at any depth and any
//!   concurrency. Write submission uses the `depth - 1` completion
//!   window per request, and fsync placement honours each request's own
//!   [`SyncPolicy`] (per write, per file as its last step lands, or one
//!   coalesced barrier at the request's close) — per-request fsync
//!   accounting, not fleet-global.
//!
//! **Completion** is each server's own business: when a run retires,
//! the server sends every participant one [`Msg::Complete`] carrying
//! the number of `Fetch`/`Data` messages it sent that participant. A
//! write retires when the disk task acknowledges its `Close` — every
//! byte written and synced per the policy. A read retires where its
//! last byte leaves: its `Close` only drops file handles, so it is sent
//! and not waited for — it syncs nothing and cannot fail, and because
//! the disk task serves one FIFO command channel, any later `Open` of
//! the same files is behind it. There is no server-to-server completion
//! traffic and no client-to-client release.
//!
//! **Small requests** arrive whole: a [`Msg::OneShot`] is a
//! single-participant write with its bytes behind it (submitters choose
//! it below `panda_msg::freelist::PIECE_MIN_BYTES`). It is admitted,
//! queued and relayed — body and all — exactly as a `Collective`, and
//! its run differs from a fetching run in one place: the driver performs
//! a `Fetch` by packing the piece out of the carried bytes and handing
//! it to the same arrival code a `Data` reply ends in. Its `Complete`s
//! therefore attest zero pieces.
//!
//! **Admission** happens at the master server: a request beyond the
//! live cap waits in a bounded queue, and a single-participant
//! (session) request is refused with a typed [`Msg::Reject`] when the
//! queue is full — surfaced to the submitter as
//! [`PandaError::Admission`]. Multi-participant requests are *never*
//! rejected: their non-submitting participants are already blocked in
//! the collective with no abort path, so a rejection would strand
//! them; such requests always queue. Peers admit unconditionally —
//! the master already made the decision when it relayed.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use panda_fs::{create_sized, FileHandle, FileSystem, FsError, SyncPolicy};
use panda_msg::{freelist, Bytes, MatchSpec, NodeId, Transport};
use panda_obs::{Event, Recorder, SubchunkKey};
use panda_schema::{copy, Region, SchemaError};

use crate::error::{AdmissionIssue, PandaError};
use crate::health::ServiceHealth;
use crate::plan::{CollectiveSchedule, ScheduleStep};
use crate::pool::IoPool;
use crate::protocol::{
    recv_msg, send_data, send_msg, send_request, try_recv_msg, CollectiveRequest, Msg, OpKind,
};
use crate::window::{Action, Input, Unexpected, Window};

/// How long the scheduler parks on the disk channel before re-polling
/// the transport, when disk work is outstanding but nothing else moved.
const DISK_PARK: Duration = Duration::from_micros(200);

/// One I/O node.
pub struct ServerNode {
    transport: Box<dyn Transport>,
    fs: Arc<dyn FileSystem>,
    /// 0-based index among the servers.
    server_idx: usize,
    num_clients: usize,
    num_servers: usize,
    /// Live-collective cap (admission control, master only).
    max_concurrent: usize,
    /// Wait-queue cap beyond the live collectives (master only).
    max_queued: usize,
    /// Session recorder; events are tagged with this server's fabric
    /// rank. Durations are measured only while it is enabled.
    recorder: Arc<dyn Recorder>,
    /// Shared health gauges: this server publishes its queue depth,
    /// live-request count, and disk backlog after every scheduler pass.
    health: Arc<ServiceHealth>,
    /// Open handles for baseline raw operations, keyed by file name.
    raw_handles: HashMap<String, Box<dyn FileHandle>>,
    /// A raw write has landed since the raw handles were last synced.
    raw_dirty: bool,
    /// Per-client flag: has this client sent `RawDone` for the current
    /// baseline op? Indexed by client rank.
    raw_done: Vec<bool>,
    /// Number of set flags in [`ServerNode::raw_done`].
    raw_done_count: usize,
    /// Worker pool for the parallel reorganization passes: `io_workers`
    /// less the one thread the disk task is.
    pool: IoPool,
}

/// A fetched piece of a reorganizing step that arrived but has not
/// been assembled yet.
struct PendingPiece {
    /// Step index within the run's schedule.
    step: usize,
    /// Piece index within the step's subchunk.
    piece: usize,
    /// The packed payload.
    payload: Bytes,
}

/// A one-shot write's bytes ([`Msg::OneShot`]): what its run packs plan
/// pieces out of where another run would send `Fetch`es.
struct Carried {
    /// The submitter's chunks, concatenated in array order.
    body: Bytes,
    /// Per array of the request: where its chunk lies in `body`, and the
    /// region that chunk covers.
    chunks: Vec<(std::ops::Range<usize>, Region)>,
}

impl Carried {
    /// Hold a one-shot to what it claims to be before any of its bytes
    /// is written on the strength of the plan: a write, by one
    /// participant, carrying exactly that participant's chunk of every
    /// array.
    fn new(req: &CollectiveRequest, body: Bytes) -> Result<Self, PandaError> {
        if !matches!(req.op, OpKind::Write) || req.participants.len() != 1 {
            return Err(PandaError::Protocol {
                detail: format!(
                    "one-shot request {} is a {:?} by {} participants; \
                     only a single-participant write may carry its bytes",
                    req.request,
                    req.op,
                    req.participants.len()
                ),
            });
        }
        let mut end = 0usize;
        let chunks = req
            .arrays
            .iter()
            .map(|a| {
                let start = end;
                // Saturated, a hostile shape fails the length check.
                end = end.saturating_add(a.meta.client_bytes(0));
                (start..end, a.meta.client_region(0))
            })
            .collect();
        if end != body.len() {
            return Err(PandaError::Protocol {
                detail: format!(
                    "one-shot request {} carries {} bytes; its arrays' chunks total {end}",
                    req.request,
                    body.len()
                ),
            });
        }
        Ok(Carried { body, chunks })
    }
}

/// One live collective on this server: everything scoped to a single
/// request id, which is what lets N of these interleave on the shared
/// transport, worker pool, and disk task. The window says when each
/// step may start; the rest is what the driver performs its actions
/// with.
struct RequestRun {
    request: u64,
    /// Fabric ranks of the participating compute nodes, indexed by a
    /// plan piece's mesh-local `client`.
    participants: Vec<u32>,
    /// `Fetch`/`Data` messages sent to each participant so far — what
    /// this server's `Complete` attests to. Counted where they are sent.
    sent: Vec<u32>,
    dir: OpKind,
    sched: CollectiveSchedule,
    /// Start instant, for the `CollectiveDone` duration.
    t_op: Option<Instant>,
    /// Per-request fetch/push sequence counter (unique within the run;
    /// replies are routed by request id first, then seq).
    seq: u64,
    /// seq → (step index, piece index) for in-flight fetches.
    seq_map: HashMap<u64, (usize, usize)>,
    win: Window,
    /// What the window asked for and the driver has not done yet. Empty
    /// between inputs, except while a transport drain collects the
    /// pieces it will assemble in one pass.
    acts: Vec<Action>,
    /// Write direction: each step's subchunk bytes, from its first piece
    /// until its `Write`. Empty otherwise: an identity step's buffer
    /// *is* the received payload, a reorganizing step takes one from
    /// the free-list when it starts assembling.
    bufs: Vec<Vec<u8>>,
    /// Replies awaiting the parallel assembly pass.
    pending: Vec<PendingPiece>,
    /// Read direction: the buffer the disk task just filled, until its
    /// `Scatter` is performed.
    filled: Option<Vec<u8>>,
    /// The bytes of a one-shot write; `None` for a run that fetches.
    carried: Option<Carried>,
}

impl RequestRun {
    /// A freshly admitted run: nothing fetched, issued or queued yet.
    fn new(
        req: CollectiveRequest,
        sched: CollectiveSchedule,
        t_op: Option<Instant>,
        carried: Option<Carried>,
    ) -> Self {
        let pieces = sched.steps.iter().map(|s| s.sub.pieces.len());
        RequestRun {
            request: req.request,
            sent: vec![0; req.participants.len()],
            participants: req.participants,
            dir: req.op,
            win: Window::new(pieces, req.op, req.pipeline_depth),
            bufs: vec![Vec::new(); sched.steps.len()],
            sched,
            t_op,
            seq: 0,
            seq_map: HashMap::new(),
            acts: Vec::new(),
            pending: Vec::new(),
            filled: None,
            carried,
        }
    }

    /// Tell the window what happened; what it answers joins `acts`. An
    /// input it was not waiting for is a protocol violation by whoever
    /// delivered it.
    fn feed(&mut self, input: Input) -> Result<(), PandaError> {
        let request = self.request;
        self.win
            .on(input, &mut self.acts)
            .map_err(|Unexpected(input)| PandaError::Protocol {
                detail: format!("request {request} is not waiting for {input:?}"),
            })
    }

    /// Cut plan piece `pi` of step `si` out of the carried bytes: what
    /// the submitter would have packed for the matching `Fetch`.
    fn pack_carried(&self, si: usize, pi: usize) -> Result<Bytes, PandaError> {
        let carried = self.carried.as_ref().expect("a one-shot run");
        let step = &self.sched.steps[si];
        let piece = &step.sub.pieces[pi];
        if piece.client != 0 {
            return Err(no_such_participant(piece.client, 1));
        }
        let (at, chunk) = &carried.chunks[step.array as usize];
        let mut packed = freelist::take(piece.region.num_bytes(step.elem));
        copy::pack_region_into(
            &mut packed,
            &carried.body[at.clone()],
            chunk,
            &piece.region,
            step.elem,
        )?;
        Ok(packed.into())
    }

    /// The bytes of write piece `pi` of step `si` are here, fetched or
    /// carried. An identity step is complete with them: the piece is
    /// the subchunk, so the buffer goes to the disk task as it is. A
    /// reorganizing step's pieces wait for the assembly pass, one
    /// parallel pass per burst. Either way the window hears of it.
    fn piece_arrived(&mut self, si: usize, pi: usize, payload: Bytes) -> Result<(), PandaError> {
        if self.sched.steps[si].identity {
            self.bufs[si] = payload.into_vec();
        } else {
            self.pending.push(PendingPiece {
                step: si,
                piece: pi,
                payload,
            });
        }
        self.feed(Input::Piece {
            step: si,
            piece: pi,
        })
    }
}

/// Scheduler state local to one [`ServerNode::run`] call.
struct SchedState {
    /// Live runs, in admission order.
    live: Vec<RequestRun>,
    /// Admitted-but-waiting requests (master only), a one-shot with the
    /// bytes it carries.
    queue: VecDeque<(CollectiveRequest, Option<Bytes>)>,
    /// Set by `Msg::Shutdown`; the loop exits once drained.
    draining: bool,
    /// The disk task's command channel.
    cmd_tx: mpsc::Sender<DiskCmd>,
    /// Disk commands awaiting a completion (`Free`/`Full`/`Closed`): every
    /// `Write` and `Read`, and a write run's `Close`.
    disk_pending: usize,
}

impl SchedState {
    /// Send one disk command, counting it if the task will answer it. A
    /// closed channel means the disk task already died — the join in
    /// [`ServerNode::run`] has the cause.
    fn disk_send(&mut self, cmd: DiskCmd, answered: bool) -> Result<(), PandaError> {
        self.disk_pending += usize::from(answered);
        self.cmd_tx.send(cmd).map_err(|_| PandaError::Protocol {
            detail: "disk task stopped early".to_string(),
        })
    }
}

/// A file to open at the start of a request's disk work.
struct OpenSpec {
    name: String,
    /// Steps targeting the file (per-file fsync countdown).
    steps: usize,
    /// Final length, for write-side preallocation.
    bytes: u64,
}

/// One unit of work for the shared disk task. Commands of one
/// request arrive in schedule order; commands of different requests
/// interleave freely — the task's arrival-order processing preserves
/// per-request (and hence per-file) FIFO either way.
enum DiskCmd {
    /// Begin a request: open its files (written ones through
    /// `create_sized`: kept when already the right length, else created
    /// and preallocated), create-and-sync its empty files, set its sync
    /// policy and completion window.
    Open {
        request: u64,
        write: bool,
        sync_policy: SyncPolicy,
        /// Submitted-but-uncompleted writes allowed per request before
        /// the task blocks on a completion (`depth - 1`).
        window: usize,
        files: Vec<OpenSpec>,
        empty_files: Vec<String>,
    },
    /// Write one completed subchunk (write direction).
    Write {
        request: u64,
        file: usize,
        key: SubchunkKey,
        offset: u64,
        buf: Vec<u8>,
    },
    /// Prefetch one subchunk (read direction) into a free-list buffer.
    Read {
        request: u64,
        file: usize,
        key: SubchunkKey,
        offset: u64,
        bytes: usize,
    },
    /// End a request: drop its file table. A write run first drains its
    /// in-flight writes and runs its per-collective sync barrier, and
    /// answers `Closed`; a read run has nothing to make durable and
    /// nothing that can fail, and answers nothing.
    Close { request: u64 },
}

/// A completion from the disk task back to the scheduler.
enum DiskOut {
    /// A write buffer finished its disk trip.
    Free { request: u64, buf: Vec<u8> },
    /// A read buffer was filled and is ready to scatter.
    Full { request: u64, buf: Vec<u8> },
    /// A write request's disk work is fully retired (synced per policy).
    Closed { request: u64 },
}

/// The disk task's per-file state.
struct DiskFile {
    handle: Box<dyn FileHandle>,
    /// Steps left until this file's last write is issued — the
    /// per-file sync policy's fsync countdown.
    remaining: usize,
    /// Writes submitted to the backend but not yet recycled. Zero for
    /// synchronous backends, whose `submit_write` completes inline.
    in_flight: usize,
}

/// The disk task's per-request state.
struct DiskRun {
    /// Write direction: its `Close` syncs and is acknowledged.
    write: bool,
    files: Vec<DiskFile>,
    sync_policy: SyncPolicy,
    window: usize,
    total_in_flight: usize,
}

/// Drain one file's finished submissions back to the scheduler.
fn drain_file(
    f: &mut DiskFile,
    total: &mut usize,
    block: bool,
    request: u64,
    out: &mpsc::Sender<DiskOut>,
) -> Result<(), FsError> {
    for buf in f.handle.drain_completions(block)? {
        f.in_flight -= 1;
        *total -= 1;
        let _ = out.send(DiskOut::Free { request, buf });
    }
    Ok(())
}

/// Run `sync` and report it as one `DiskSyncDone` over `files` files.
fn timed_sync(
    recorder: &dyn Recorder,
    node: u32,
    files: u32,
    sync: impl FnOnce() -> Result<(), FsError>,
) -> Result<(), FsError> {
    let t_sync = recorder.enabled().then(Instant::now);
    sync()?;
    if let Some(t) = t_sync {
        recorder.record(
            node,
            &Event::DiskSyncDone {
                files,
                dur: t.elapsed(),
            },
        );
    }
    Ok(())
}

/// A disk command named a request the disk task holds no file table
/// for: it was never opened, or its `Close` overtook the command. The
/// scheduler counts on an answer to every `Write`/`Read`, so dropping
/// the command would park it forever; fail instead.
fn not_open(cmd: &str, request: u64) -> PandaError {
    PandaError::Protocol {
        detail: format!("disk {cmd} for request {request}, which is not open on the disk task"),
    }
}

/// The engine's disk task: the single thread that touches this
/// server's files, for every request it ever serves. Runs until the
/// command channel closes. An error is fatal for the server (as it
/// always was): the task exits and the scheduler surfaces the error
/// through the join.
fn run_disk_task(
    recorder: Arc<dyn Recorder>,
    node: u32,
    fs: Arc<dyn FileSystem>,
    cmds: mpsc::Receiver<DiskCmd>,
    out: mpsc::Sender<DiskOut>,
) -> Result<(), PandaError> {
    let mut runs: HashMap<u64, DiskRun> = HashMap::new();
    for cmd in cmds.iter() {
        match cmd {
            DiskCmd::Open {
                request,
                write,
                sync_policy,
                window,
                files,
                empty_files,
            } => {
                // Arrays with no data on this server still get their
                // (empty) file created and synced.
                for name in &empty_files {
                    create_sized(fs.as_ref(), name, 0)?.sync()?;
                }
                let mut table = Vec::with_capacity(files.len());
                for spec in files {
                    let handle = if write {
                        // The schedule's steps tile `[0, spec.bytes)`,
                        // so a file already that long is overwritten in
                        // place, byte for byte.
                        create_sized(fs.as_ref(), &spec.name, spec.bytes)?
                    } else {
                        fs.open(&spec.name)?
                    };
                    table.push(DiskFile {
                        handle,
                        remaining: spec.steps,
                        in_flight: 0,
                    });
                }
                runs.insert(
                    request,
                    DiskRun {
                        write,
                        files: table,
                        sync_policy,
                        window,
                        total_in_flight: 0,
                    },
                );
            }
            DiskCmd::Write {
                request,
                file,
                key,
                offset,
                buf,
            } => {
                let run = runs
                    .get_mut(&request)
                    .ok_or_else(|| not_open("write", request))?;
                let bytes = buf.len() as u64;
                let t_disk = recorder.enabled().then(Instant::now);
                // Hand the buffer to the backend and move on.
                // Synchronous backends complete inline and return the
                // buffer; a submission-queue backend keeps it until a
                // completion thread lands the write, so the task runs
                // ahead of the device by up to this *request's* window.
                let f = &mut run.files[file];
                let returned = f.handle.submit_write(offset, buf)?;
                if returned.is_none() {
                    f.in_flight += 1;
                    run.total_in_flight += 1;
                }
                if let Some(t) = t_disk {
                    // For a queued write this is the time spent
                    // issuing, not completing: the device time surfaces
                    // later as `FsWrite`/`FsComplete` events.
                    recorder.record(
                        node,
                        &Event::DiskWriteDone {
                            key,
                            offset,
                            bytes,
                            dur: t.elapsed(),
                        },
                    );
                }
                // The paper's semantics under the per-write policy:
                // fsync at once, before the buffer goes back, so the
                // next fetch never overlaps a flush.
                if matches!(run.sync_policy, SyncPolicy::PerWrite) {
                    timed_sync(recorder.as_ref(), node, 1, || f.handle.sync())?;
                }
                if let Some(buf) = returned {
                    let _ = out.send(DiskOut::Free { request, buf });
                }
                drain_file(f, &mut run.total_in_flight, false, request, &out)?;
                while run.total_in_flight > run.window {
                    // Steps are file-sequential per request, so the
                    // oldest submission belongs to the first file
                    // still in flight; block on its completion.
                    let idx = run
                        .files
                        .iter()
                        .position(|f| f.in_flight > 0)
                        .expect("in-flight count implies an in-flight file");
                    drain_file(
                        &mut run.files[idx],
                        &mut run.total_in_flight,
                        true,
                        request,
                        &out,
                    )?;
                }
                // Under the per-file policy, sync as soon as an array's
                // last subchunk is issued, overlapped with the rest of
                // the schedule. `sync` is a completion barrier, so the
                // drain below returns every outstanding buffer.
                let f = &mut run.files[file];
                f.remaining -= 1;
                if f.remaining == 0 && matches!(run.sync_policy, SyncPolicy::PerFile) {
                    timed_sync(recorder.as_ref(), node, 1, || f.handle.sync())?;
                    drain_file(f, &mut run.total_in_flight, false, request, &out)?;
                }
            }
            DiskCmd::Read {
                request,
                file,
                key,
                offset,
                bytes,
            } => {
                let run = runs
                    .get_mut(&request)
                    .ok_or_else(|| not_open("read", request))?;
                // `read_at` fills all of it or fails.
                let mut buf = freelist::take(bytes);
                let t_disk = recorder.enabled().then(Instant::now);
                run.files[file].handle.read_at(offset, &mut buf)?;
                if recorder.enabled() {
                    if let Some(t) = t_disk {
                        recorder.record(
                            node,
                            &Event::DiskReadDone {
                                key,
                                offset,
                                bytes: buf.len() as u64,
                                dur: t.elapsed(),
                            },
                        );
                    }
                    recorder.record(
                        node,
                        &Event::DiskReadQueued {
                            key,
                            bytes: buf.len() as u64,
                        },
                    );
                }
                if out.send(DiskOut::Full { request, buf }).is_err() {
                    // Scheduler bailed; nothing left to prefetch for.
                    return Ok(());
                }
            }
            DiskCmd::Close { request } => {
                let mut run = runs
                    .remove(&request)
                    .ok_or_else(|| not_open("close", request))?;
                if !run.write {
                    // The scheduler already retired it: the handles drop
                    // here, ahead of any later `Open` of the same files.
                    continue;
                }
                if matches!(run.sync_policy, SyncPolicy::PerCollective) {
                    // One coalesced barrier for the whole request:
                    // every fsync happens after every write has been
                    // issued, so no flush ever sits between two writes.
                    let n = run.files.len() as u32;
                    timed_sync(recorder.as_ref(), node, n, || {
                        for f in run.files.iter_mut() {
                            f.handle.sync()?;
                            drain_file(f, &mut run.total_in_flight, false, request, &out)?;
                        }
                        Ok(())
                    })?;
                } else {
                    // Per-file/per-write syncs already landed; collect
                    // any straggler completions before retiring.
                    for i in 0..run.files.len() {
                        while run.files[i].in_flight > 0 {
                            drain_file(
                                &mut run.files[i],
                                &mut run.total_in_flight,
                                true,
                                request,
                                &out,
                            )?;
                        }
                    }
                }
                let _ = out.send(DiskOut::Closed { request });
            }
        }
    }
    Ok(())
}

/// A plan piece belongs to a mesh position the request named no
/// participant for.
fn no_such_participant(client: usize, participants: usize) -> PandaError {
    PandaError::Protocol {
        detail: format!("plan piece for client {client} outside the {participants} participants"),
    }
}

/// The fabric rank plan piece `client` goes to, counting the message
/// about to be sent there.
fn piece_dst(participants: &[u32], sent: &mut [u32], client: usize) -> Result<u32, PandaError> {
    let dst = *participants
        .get(client)
        .ok_or_else(|| no_such_participant(client, participants.len()))?;
    sent[client] += 1;
    Ok(dst)
}

/// Copy one fetched piece into its subchunk's assembly buffer and
/// record the reorganization. Every write step funnels through here
/// from the engine's pooled assembly jobs.
#[allow(clippy::too_many_arguments)]
fn assemble_piece(
    recorder: &dyn Recorder,
    node: u32,
    key: SubchunkKey,
    piece: u32,
    buf: &mut [u8],
    sub_region: &Region,
    region: &Region,
    payload: &[u8],
    elem: usize,
) -> Result<(), SchemaError> {
    let t_pack = recorder.enabled().then(Instant::now);
    copy::copy_region(payload, region, buf, sub_region, region, elem)?;
    if let Some(t) = t_pack {
        recorder.record(
            node,
            &Event::ReorgWorker {
                key,
                piece,
                bytes: payload.len() as u64,
                dur: t.elapsed(),
            },
        );
    }
    Ok(())
}

impl ServerNode {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        transport: Box<dyn Transport>,
        fs: Arc<dyn FileSystem>,
        server_idx: usize,
        num_clients: usize,
        num_servers: usize,
        io_workers: usize,
        max_concurrent: usize,
        max_queued: usize,
        recorder: Arc<dyn Recorder>,
        health: Arc<ServiceHealth>,
    ) -> Self {
        ServerNode {
            transport,
            fs,
            server_idx,
            num_clients,
            num_servers,
            max_concurrent: max_concurrent.max(1),
            max_queued,
            recorder,
            health,
            raw_handles: HashMap::new(),
            raw_dirty: false,
            raw_done: vec![false; num_clients],
            raw_done_count: 0,
            pool: IoPool::new(io_workers.saturating_sub(1)),
        }
    }

    fn is_master(&self) -> bool {
        self.server_idx == 0
    }

    /// This server's fabric rank (servers follow the clients).
    fn my_rank(&self) -> u32 {
        (self.num_clients + self.server_idx) as u32
    }

    /// Whether instrumentation (and therefore clock reads) is on.
    fn obs_on(&self) -> bool {
        self.recorder.enabled()
    }

    /// Record one event under this server's rank, if recording is on.
    fn emit(&self, event: &Event<'_>) {
        if self.recorder.enabled() {
            self.recorder.record(self.my_rank(), event);
        }
    }

    /// Publish this server's scheduler gauges (three relaxed stores —
    /// cheap enough to run on every serve-loop pass).
    fn publish_health(&self, st: &SchedState) {
        self.health.publish(
            self.server_idx,
            st.queue.len(),
            st.live.len(),
            st.disk_pending,
        );
    }

    /// A step's subchunk key under this server, scoped to its request.
    fn key_of(&self, request: u64, step: &ScheduleStep) -> SubchunkKey {
        SubchunkKey::scoped(request, self.server_idx, step.array, step.subchunk)
    }

    /// The server's per-array file name for an operation.
    pub fn file_name(file_tag: &str, server_idx: usize) -> String {
        format!("{file_tag}.s{server_idx}")
    }

    /// Main loop: schedule collective requests and serve baseline raw
    /// operations until shutdown. Spawns the disk task, runs the
    /// scheduler, then joins the task — a disk error is the root cause
    /// when both sides failed.
    pub fn run(mut self) -> Result<(), PandaError> {
        let (cmd_tx, cmd_rx) = mpsc::channel::<DiskCmd>();
        let (out_tx, out_rx) = mpsc::channel::<DiskOut>();
        let recorder = Arc::clone(&self.recorder);
        let node = self.my_rank();
        let fs = Arc::clone(&self.fs);
        let disk = std::thread::Builder::new()
            .name(format!("panda-disk-{}", self.server_idx))
            .spawn(move || run_disk_task(recorder, node, fs, cmd_rx, out_tx))
            .map_err(|e| PandaError::Fs(e.into()))?;
        let mut st = SchedState {
            live: Vec::new(),
            queue: VecDeque::new(),
            draining: false,
            cmd_tx,
            disk_pending: 0,
        };
        let run = self.serve(&mut st, &out_rx);
        // Closing the command channel lets the disk task drain and exit.
        drop(st);
        let disk = disk.join().map_err(|_| PandaError::Protocol {
            detail: "disk task panicked".to_string(),
        })?;
        disk.and(run)
    }

    /// The driver loop (see the module docs): feed what arrives to the
    /// run it names, block when nothing did.
    fn serve(
        &mut self,
        st: &mut SchedState,
        out_rx: &mpsc::Receiver<DiskOut>,
    ) -> Result<(), PandaError> {
        loop {
            let mut progress = false;
            while let Some((src, msg)) = try_recv_msg(&mut *self.transport, MatchSpec::any())? {
                self.dispatch(st, src, msg, Duration::ZERO)?;
                progress = true;
            }
            // `Data` replies only joined their runs: assemble what this
            // drain delivered in one pool pass per run, then perform the
            // writes (and further fetches) the pieces made due. Highest
            // index first: a retiring run leaves the lower ones in place.
            for idx in (0..st.live.len()).rev() {
                self.assemble(&mut st.live[idx])?;
                self.perform(st, idx)?;
            }
            while let Ok(done) = out_rx.try_recv() {
                self.disk_done(st, done)?;
                progress = true;
            }
            self.publish_health(st);
            if st.draining && st.live.is_empty() && st.queue.is_empty() {
                return Ok(());
            }
            if progress {
                continue;
            }
            if st.disk_pending > 0 {
                // Disk work outstanding: progress may come from either
                // side, so park briefly on the disk channel and re-poll
                // the transport.
                match out_rx.recv_timeout(DISK_PARK) {
                    Ok(done) => self.disk_done(st, done)?,
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        return Err(PandaError::Protocol {
                            detail: "disk task stopped early".to_string(),
                        })
                    }
                }
            } else {
                // Everything outstanding is message-shaped: block on
                // the transport (whose own receive timeout still bounds
                // a dead peer). The measured wait is attributed to the
                // first fetched piece it delivers.
                let t_wait = self.obs_on().then(Instant::now);
                let (src, msg) = recv_msg(&mut *self.transport, MatchSpec::any())?;
                let wait = t_wait.map_or(Duration::ZERO, |t| t.elapsed());
                self.dispatch(st, src, msg, wait)?;
            }
        }
    }

    /// Do what live run `idx`'s window asked for, in the order it asked.
    /// Two actions answer themselves — a one-shot's `Fetch` is its
    /// piece's arrival, a `Scatter` returns once the pieces are pushed —
    /// and what the window makes of that joins the same list. `Retire`
    /// is a run's last action: it leaves `live` here.
    fn perform(&mut self, st: &mut SchedState, idx: usize) -> Result<(), PandaError> {
        let mut at = 0;
        while let Some(&action) = st.live[idx].acts.get(at) {
            at += 1;
            let run = &mut st.live[idx];
            match action {
                Action::Fetch { step, piece } => self.fetch(run, step, piece)?,
                Action::Write { step } => {
                    // The disk task writes step k while replies for
                    // k + 1.. assemble here.
                    self.assemble(run)?;
                    let buf = std::mem::take(&mut run.bufs[step]);
                    let step = &run.sched.steps[step];
                    let key = self.key_of(run.request, step);
                    self.emit(&Event::DiskWriteQueued {
                        key,
                        bytes: buf.len() as u64,
                    });
                    let cmd = DiskCmd::Write {
                        request: run.request,
                        file: step.file,
                        key,
                        offset: step.sub.file_offset,
                        buf,
                    };
                    st.disk_send(cmd, true)?;
                }
                Action::Read { step } => {
                    let step = &run.sched.steps[step];
                    let cmd = DiskCmd::Read {
                        request: run.request,
                        file: step.file,
                        key: self.key_of(run.request, step),
                        offset: step.sub.file_offset,
                        bytes: step.sub.bytes,
                    };
                    st.disk_send(cmd, true)?;
                }
                Action::Scatter { step } => {
                    self.scatter_step(run, step)?;
                    run.feed(Input::Pushed)?;
                }
                Action::Close => {
                    // A read's close is not waited for: it syncs
                    // nothing, cannot fail, and any later `Open` of
                    // these files is behind it on the one command
                    // channel.
                    let (request, answered) = (run.request, matches!(run.dir, OpKind::Write));
                    st.disk_send(DiskCmd::Close { request }, answered)?;
                }
                Action::Retire => {
                    let run = st.live.remove(idx);
                    return self.finish_run(st, run);
                }
            }
        }
        st.live[idx].acts.clear();
        Ok(())
    }

    /// Perform a `Fetch`: ask the piece's participant for it — or, for a
    /// one-shot, cut it out of the bytes the request carried, which is
    /// its arrival: nothing is sent, and nothing counted towards
    /// `Complete`.
    fn fetch(&mut self, run: &mut RequestRun, si: usize, pi: usize) -> Result<(), PandaError> {
        if run.carried.is_some() {
            let payload = run.pack_carried(si, pi)?;
            return run.piece_arrived(si, pi, payload);
        }
        let step = &run.sched.steps[si];
        let piece = &step.sub.pieces[pi];
        let dst = piece_dst(&run.participants, &mut run.sent, piece.client)?;
        send_msg(
            &mut *self.transport,
            NodeId(dst as usize),
            &Msg::Fetch {
                request: run.request,
                array: step.array,
                seq: run.seq,
                region: piece.region.clone(),
            },
        )?;
        self.emit(&Event::FetchSent {
            key: self.key_of(run.request, step),
            piece: pi as u32,
            client: dst,
        });
        run.seq_map.insert(run.seq, (si, pi));
        run.seq += 1;
        Ok(())
    }

    /// Assemble the arrived pieces of `run`'s reorganizing steps (an
    /// identity step's payload became its buffer on arrival), steps in
    /// parallel: each job owns one step's buffer (disjoint via
    /// `iter_mut`); pieces within a step stay serial.
    fn assemble(&self, run: &mut RequestRun) -> Result<(), PandaError> {
        let Some(lo) = run.pending.iter().map(|p| p.step).min() else {
            return Ok(());
        };
        let mut per_step: Vec<Vec<PendingPiece>> = Vec::new();
        for p in run.pending.drain(..) {
            let off = p.step - lo;
            if per_step.len() <= off {
                per_step.resize_with(off + 1, Vec::new);
            }
            per_step[off].push(p);
        }
        let recorder = &self.recorder;
        let node = self.my_rank();
        let mut jobs: Vec<Box<dyn FnOnce() -> Result<(), SchemaError> + Send + '_>> = Vec::new();
        let slots = run.bufs[lo..].iter_mut().zip(&run.sched.steps[lo..]);
        for ((buf, step), items) in slots.zip(per_step) {
            if items.is_empty() {
                continue;
            }
            if buf.is_empty() {
                // Not zero-filled: a write step's pieces partition its
                // subchunk, so assembly overwrites every byte.
                *buf = freelist::take(step.sub.bytes);
            }
            let key = self.key_of(run.request, step);
            jobs.push(Box::new(move || {
                for p in items {
                    assemble_piece(
                        recorder.as_ref(),
                        node,
                        key,
                        p.piece as u32,
                        buf,
                        &step.sub.region,
                        &step.sub.pieces[p.piece].region,
                        &p.payload,
                        step.elem,
                    )?;
                    p.payload.recycle();
                }
                Ok(())
            }));
        }
        self.pool.run_scoped_result(jobs)?;
        Ok(())
    }

    /// Perform a `Scatter`: push read step `si` to its clients. An
    /// identity step's buffer — the one the disk task filled — goes out
    /// as the `Data` body as it is. A reorganizing step packs all of its
    /// pieces in parallel on the worker pool (large pieces additionally
    /// split along their outermost dimension inside
    /// [`IoPool::pack_region_par`]) into free-list buffers, then sends
    /// them in piece order so the per-client message stream matches the
    /// serial schedule. The schedule already clipped the pieces to a
    /// requested section.
    fn scatter_step(&mut self, run: &mut RequestRun, si: usize) -> Result<(), PandaError> {
        // Prefetched buffers arrive in schedule order (the disk task is
        // per-request FIFO), and each `Filled` is scattered at once.
        let buf = run.filled.take().expect("a Scatter answers a Filled");
        let step = &run.sched.steps[si];
        let key = self.key_of(run.request, step);
        let node = self.my_rank();
        let (transport, recorder, pool) = (&mut *self.transport, &self.recorder, &self.pool);
        let (request, participants) = (run.request, &run.participants);
        let (sent, seq) = (&mut run.sent, &mut run.seq);
        let pieces = &step.sub.pieces;
        let mut push = |pi: usize, data: Vec<u8>| -> Result<(), PandaError> {
            let dst = piece_dst(participants, sent, pieces[pi].client)?;
            let bytes = data.len() as u64;
            send_data(
                transport,
                NodeId(dst as usize),
                request,
                key.array,
                *seq,
                &pieces[pi].region,
                data,
            )?;
            if recorder.enabled() {
                recorder.record(
                    node,
                    &Event::PushSent {
                        key,
                        piece: pi as u32,
                        client: dst,
                        bytes,
                    },
                );
            }
            *seq += 1;
            Ok(())
        };
        if step.identity {
            return push(0, buf);
        }
        let mut packed: Vec<Vec<u8>> = pieces
            .iter()
            .map(|piece| freelist::take(piece.region.num_bytes(step.elem)))
            .collect();
        {
            let src = &buf[..];
            let jobs: Vec<Box<dyn FnOnce() -> Result<(), SchemaError> + Send + '_>> = packed
                .iter_mut()
                .zip(pieces)
                .enumerate()
                .map(|(pi, (out, piece))| {
                    Box::new(move || {
                        let t_pack = recorder.enabled().then(Instant::now);
                        pool.pack_region_par(out, src, &step.sub.region, &piece.region, step.elem)?;
                        if let Some(t) = t_pack {
                            recorder.record(
                                node,
                                &Event::ReorgWorker {
                                    key,
                                    piece: pi as u32,
                                    bytes: out.len() as u64,
                                    dur: t.elapsed(),
                                },
                            );
                        }
                        Ok(())
                    })
                        as Box<dyn FnOnce() -> Result<(), SchemaError> + Send + '_>
                })
                .collect();
            pool.run_scoped_result(jobs)?;
        }
        freelist::give(buf);
        for (pi, data) in packed.into_iter().enumerate() {
            push(pi, data)?;
        }
        Ok(())
    }

    /// Route one transport message. `wait` is the time the scheduler
    /// spent blocked for it (zero when it was drained non-blocking).
    fn dispatch(
        &mut self,
        st: &mut SchedState,
        src: NodeId,
        msg: Msg,
        wait: Duration,
    ) -> Result<(), PandaError> {
        match msg {
            Msg::Shutdown => {
                st.draining = true;
                Ok(())
            }
            Msg::Collective(req) => self.admit(st, req, None),
            Msg::OneShot { req, payload } => self.admit(st, req, Some(payload)),
            Msg::Data {
                request,
                seq,
                region,
                payload,
                ..
            } => self.route_data(st, request, seq, region, payload, wait),
            Msg::RawWrite {
                file,
                offset,
                payload,
            } => self.raw_write(&file, offset, &payload),
            Msg::RawRead {
                file,
                offset,
                len,
                seq,
            } => {
                // A length no buffer can have fails the bound check below.
                let len = usize::try_from(len).unwrap_or(usize::MAX);
                self.raw_read(src, &file, offset, len, seq)
            }
            Msg::RawDone => self.raw_done(src),
            Msg::RawStat { file, seq } => {
                let len = if self.fs.exists(&file) {
                    self.fs.open(&file)?.len()
                } else {
                    u64::MAX
                };
                send_msg(&mut *self.transport, src, &Msg::RawStatReply { seq, len })?;
                Ok(())
            }
            other => Err(PandaError::Protocol {
                detail: format!("server got unexpected tag {}", other.tag()),
            }),
        }
    }

    /// Admission control. The master decides; peers start whatever the
    /// master relayed. A multi-participant request is never rejected —
    /// its non-submitting participants are already blocked inside the
    /// collective with no abort path, so it queues however full the
    /// queue is. Single-participant (session) requests get the typed
    /// rejection instead of unbounded queueing. `carried` is a one-shot's
    /// bytes: they are admitted, queued, relayed and refused with it.
    fn admit(
        &mut self,
        st: &mut SchedState,
        req: CollectiveRequest,
        carried: Option<Bytes>,
    ) -> Result<(), PandaError> {
        if !self.is_master() {
            return self.start_run(st, req, carried);
        }
        if st.live.len() < self.max_concurrent {
            self.relay(&req, carried.as_ref())?;
            return self.start_run(st, req, carried);
        }
        if req.participants.len() > 1 || st.queue.len() < self.max_queued {
            st.queue.push_back((req, carried));
            self.publish_health(st);
            return Ok(());
        }
        let reason = if self.max_queued == 0 {
            AdmissionIssue::Saturated {
                live: st.live.len(),
                max: self.max_concurrent,
            }
        } else {
            AdmissionIssue::QueueFull {
                queued: st.queue.len(),
                max: self.max_queued,
            }
        };
        self.emit(&Event::AdmissionReject {
            request: req.request,
            queued: st.queue.len() as u32,
            live: st.live.len() as u32,
        });
        self.health.note_reject(self.server_idx);
        // Decoding refused a request without participants.
        let submitter = NodeId(req.participants[0] as usize);
        send_msg(
            &mut *self.transport,
            submitter,
            &Msg::Reject {
                request: req.request,
                reason,
            },
        )
    }

    /// Relay an admitted request to the peer servers (master only). A
    /// one-shot goes with all of its bytes: each peer cuts its own
    /// pieces out of them.
    ///
    /// Both admission sites come through here before `start_run`, and no
    /// peer learns of the request any other way, so this is where a
    /// write waits for the raw plane: control files written since the
    /// last raw sync are made durable before any server opens a file of
    /// the write. A checkpoint's generation marker is an unacknowledged
    /// `RawWrite` that precedes the submitter's next request on one FIFO
    /// connection, so the marker naming generation N is on the device
    /// before checkpoint N + 1 overwrites a byte of generation N − 1 —
    /// with no acknowledgement for a client to block on. The last marker
    /// of a deployment is only as durable as the kernel's own flush,
    /// which tears nothing: nothing is overwritten after it.
    fn relay(
        &mut self,
        req: &CollectiveRequest,
        carried: Option<&Bytes>,
    ) -> Result<(), PandaError> {
        if self.raw_dirty && matches!(req.op, OpKind::Write) {
            self.sync_raw()?;
        }
        for s in 1..self.num_servers {
            let dst = NodeId(self.num_clients + s);
            send_request(&mut *self.transport, dst, req, carried.cloned())?;
        }
        Ok(())
    }

    /// Lower an admitted request into a live [`RequestRun`]: build its
    /// schedule, open its files on the disk task, and start its window —
    /// which asks for the first fetches or reads, or, when the schedule
    /// is empty, closes it straight away.
    fn start_run(
        &mut self,
        st: &mut SchedState,
        req: CollectiveRequest,
        carried: Option<Bytes>,
    ) -> Result<(), PandaError> {
        let depth = req.pipeline_depth.max(1);
        let t_op = self.obs_on().then(Instant::now);
        self.emit(&Event::RequestIssued {
            request: req.request,
            op: req.op,
            arrays: req.arrays.len() as u32,
            pipeline_depth: depth as u32,
        });
        if matches!(req.op, OpKind::Write) && req.arrays.iter().any(|a| a.section.is_some()) {
            return Err(PandaError::Protocol {
                detail: "section writes are not supported".to_string(),
            });
        }
        let carried = carried.map(|body| Carried::new(&req, body)).transpose()?;
        let sched = CollectiveSchedule::build(
            &req.arrays,
            req.op,
            self.server_idx,
            self.num_servers,
            req.subchunk_bytes,
            req.sync_policy,
        );
        if self.obs_on() {
            for step in &sched.steps {
                self.emit(&Event::SubchunkPlanned {
                    key: self.key_of(req.request, step),
                    bytes: step.sub.bytes as u64,
                });
            }
        }
        st.disk_send(
            DiskCmd::Open {
                request: req.request,
                write: matches!(req.op, OpKind::Write),
                sync_policy: sched.sync_policy,
                window: depth - 1,
                files: sched
                    .files
                    .iter()
                    .map(|f| OpenSpec {
                        name: Self::file_name(&f.tag, self.server_idx),
                        steps: f.steps,
                        bytes: f.bytes,
                    })
                    .collect(),
                empty_files: sched
                    .empty_files
                    .iter()
                    .map(|t| Self::file_name(t, self.server_idx))
                    .collect(),
            },
            false,
        )?;
        let mut run = RequestRun::new(req, sched, t_op, carried);
        run.feed(Input::Start)?;
        st.live.push(run);
        let idx = st.live.len() - 1;
        self.perform(st, idx)
    }

    /// Route an arriving `Data` reply to its run and step, and hold it to
    /// the plan before it counts as arrived. What its arrival makes due
    /// waits in the run's `acts` for the end of the transport drain (see
    /// [`ServerNode::serve`]).
    fn route_data(
        &mut self,
        st: &mut SchedState,
        request: u64,
        seq: u64,
        region: Region,
        payload: Bytes,
        wait: Duration,
    ) -> Result<(), PandaError> {
        let Some(run) = st.live.iter_mut().find(|r| r.request == request) else {
            return Err(PandaError::Protocol {
                detail: format!("data for unknown request {request}"),
            });
        };
        let (si, pi) = run
            .seq_map
            .remove(&seq)
            .ok_or_else(|| PandaError::Protocol {
                detail: format!("unexpected data seq {seq} for request {request}"),
            })?;
        let step = &run.sched.steps[si];
        let piece = &step.sub.pieces[pi];
        // The payload is about to be written (or, for an identity step,
        // to *become* the subchunk) on the strength of the plan alone:
        // hold the wire to it.
        if region != piece.region || payload.len() != piece.region.num_bytes(step.elem) {
            return Err(PandaError::Protocol {
                detail: format!(
                    "data seq {seq} for request {request} carries {} bytes of {region:?}; \
                     the plan expects {} bytes of {:?}",
                    payload.len(),
                    piece.region.num_bytes(step.elem),
                    piece.region
                ),
            });
        }
        self.emit(&Event::FetchReplied {
            key: self.key_of(request, step),
            bytes: payload.len() as u64,
            // Only the blocking receive actually waited.
            wait,
        });
        run.piece_arrived(si, pi, payload)
    }

    /// Process one disk answer: feed it to the run it names. One for a
    /// request that is not live is a protocol error whatever it answers
    /// — a dropped `Full` would be a read that never scatters — and its
    /// buffer still goes back to the free-list.
    fn disk_done(&mut self, st: &mut SchedState, done: DiskOut) -> Result<(), PandaError> {
        st.disk_pending -= 1;
        let (request, input, buf) = match done {
            DiskOut::Free { request, buf } => (request, Input::Written, buf),
            DiskOut::Full { request, buf } => (request, Input::Filled, buf),
            DiskOut::Closed { request } => (request, Input::Closed, Vec::new()),
        };
        let Some(idx) = st.live.iter().position(|r| r.request == request) else {
            freelist::give(buf);
            return Err(PandaError::Protocol {
                detail: format!("disk answered {input:?} for unknown request {request}"),
            });
        };
        let run = &mut st.live[idx];
        match input {
            Input::Filled => run.filled = Some(buf),
            _ => freelist::give(buf),
        }
        run.feed(input)?;
        self.perform(st, idx)
    }

    /// Retire `run`, which just left `live` on its window's `Retire` (a
    /// write's `Closed` came back, a read's last piece was pushed): the
    /// collective is complete on this server. Tell every participant,
    /// then (master) pull the next queued request into the freed slot.
    fn finish_run(&mut self, st: &mut SchedState, run: RequestRun) -> Result<(), PandaError> {
        let request = run.request;
        if let Some(t) = run.t_op {
            self.emit(&Event::CollectiveDone {
                request,
                op: run.dir,
                dur: t.elapsed(),
            });
        }
        for (&rank, &pieces) in run.participants.iter().zip(&run.sent) {
            let done = Msg::Complete { request, pieces };
            send_msg(&mut *self.transport, NodeId(rank as usize), &done)?;
        }
        // A live slot freed up: admit from the wait queue (empty on
        // every server but the master).
        while st.live.len() < self.max_concurrent {
            let Some((req, carried)) = st.queue.pop_front() else {
                break;
            };
            self.relay(&req, carried.as_ref())?;
            self.start_run(st, req, carried)?;
        }
        Ok(())
    }

    /// Baseline support: apply a positioned write in arrival order.
    fn raw_write(&mut self, file: &str, offset: u64, payload: &[u8]) -> Result<(), PandaError> {
        let handle = self.raw_handle(file)?;
        handle.write_at(offset, payload)?;
        self.raw_dirty = true;
        Ok(())
    }

    /// Make every raw write so far durable.
    fn sync_raw(&mut self) -> Result<(), PandaError> {
        for handle in self.raw_handles.values_mut() {
            handle.sync()?;
        }
        self.raw_dirty = false;
        Ok(())
    }

    /// Baseline support: serve a positioned read.
    fn raw_read(
        &mut self,
        src: NodeId,
        file: &str,
        offset: u64,
        len: usize,
        seq: u64,
    ) -> Result<(), PandaError> {
        let handle = self.raw_handle(file)?;
        // `len` is straight off the wire: bound it by the file before
        // allocating for it.
        let file_len = handle.len();
        if u64::try_from(len)
            .ok()
            .and_then(|len| offset.checked_add(len))
            .is_none_or(|end| end > file_len)
        {
            return Err(FsError::ReadPastEnd {
                offset,
                len,
                file_len,
            }
            .into());
        }
        let mut payload = vec![0u8; len];
        handle.read_at(offset, &mut payload)?;
        send_msg(&mut *self.transport, src, &Msg::RawData { seq, payload })?;
        Ok(())
    }

    fn raw_handle(&mut self, file: &str) -> Result<&mut Box<dyn FileHandle>, PandaError> {
        match self.raw_handles.entry(file.to_string()) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(e.into_mut()),
            std::collections::hash_map::Entry::Vacant(e) => {
                let handle = if self.fs.exists(file) {
                    self.fs.open(file)?
                } else {
                    self.fs.create(file)?
                };
                Ok(e.insert(handle))
            }
        }
    }

    /// Baseline support: completion barrier. Once every client has sent
    /// `RawDone`, sync all touched files and acknowledge everyone. The
    /// seen set is a fixed bitmap over client ranks, so the duplicate
    /// check is O(1) regardless of client count.
    fn raw_done(&mut self, src: NodeId) -> Result<(), PandaError> {
        match self.raw_done.get_mut(src.0) {
            Some(seen) if !*seen => *seen = true,
            _ => {
                return Err(PandaError::Protocol {
                    detail: format!("duplicate or non-client RawDone from {src}"),
                })
            }
        }
        self.raw_done_count += 1;
        if self.raw_done_count == self.num_clients {
            self.sync_raw()?;
            // Drop the handle cache: the logical op is over, and fresh
            // handles restart sequentiality tracking for the next op.
            self.raw_handles.clear();
            self.raw_done_count = 0;
            for client in 0..self.num_clients {
                debug_assert!(self.raw_done[client], "barrier complete");
                self.raw_done[client] = false;
                send_msg(&mut *self.transport, NodeId(client), &Msg::RawAck)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_fs::MemFs;

    /// The disk task alone, driven through its two channels.
    struct DiskTask {
        cmds: mpsc::Sender<DiskCmd>,
        outs: mpsc::Receiver<DiskOut>,
        task: std::thread::JoinHandle<Result<(), PandaError>>,
    }

    impl DiskTask {
        fn spawn(fs: Arc<MemFs>) -> Self {
            let (cmds, cmd_rx) = mpsc::channel();
            let (out_tx, outs) = mpsc::channel();
            let task = std::thread::spawn(move || {
                run_disk_task(panda_obs::null_recorder(), 0, fs, cmd_rx, out_tx)
            });
            DiskTask { cmds, outs, task }
        }

        fn open(&self, request: u64, write: bool, name: &str, bytes: u64) {
            self.send(DiskCmd::Open {
                request,
                write,
                sync_policy: SyncPolicy::PerCollective,
                window: 0,
                files: vec![OpenSpec {
                    name: name.to_string(),
                    steps: 1,
                    bytes,
                }],
                empty_files: vec![],
            });
        }

        fn send(&self, cmd: DiskCmd) {
            // A task that already failed has hung up; the join tells.
            let _ = self.cmds.send(cmd);
        }

        /// Hang up and collect every answer and the task's result.
        fn finish(self) -> (Vec<DiskOut>, Result<(), PandaError>) {
            drop(self.cmds);
            let result = self.task.join().unwrap();
            (self.outs.iter().collect(), result)
        }
    }

    fn key() -> SubchunkKey {
        SubchunkKey::scoped(0, 0, 0, 0)
    }

    fn write(request: u64, buf: Vec<u8>) -> DiskCmd {
        DiskCmd::Write {
            request,
            file: 0,
            key: key(),
            offset: 0,
            buf,
        }
    }

    fn read(request: u64, bytes: usize) -> DiskCmd {
        DiskCmd::Read {
            request,
            file: 0,
            key: key(),
            offset: 0,
            bytes,
        }
    }

    #[test]
    fn a_write_close_is_acknowledged_and_a_read_close_is_not() {
        let fs = Arc::new(MemFs::new());
        let disk = DiskTask::spawn(Arc::clone(&fs));
        disk.open(1, true, "f", 4);
        disk.send(write(1, vec![7; 4]));
        disk.send(DiskCmd::Close { request: 1 });
        disk.open(2, false, "f", 4);
        disk.send(read(2, 4));
        disk.send(DiskCmd::Close { request: 2 });
        // Behind the read's close on the one channel: the same file,
        // rewritten by a later request.
        disk.open(3, true, "f", 4);
        disk.send(write(3, vec![9; 4]));
        disk.send(DiskCmd::Close { request: 3 });
        let (outs, result) = disk.finish();
        result.unwrap();
        let seen: Vec<String> = outs
            .iter()
            .map(|out| match out {
                DiskOut::Free { request, .. } => format!("free {request}"),
                DiskOut::Full { request, buf } => format!("full {request} {buf:?}"),
                DiskOut::Closed { request } => format!("closed {request}"),
            })
            .collect();
        assert_eq!(
            seen,
            [
                "free 1",
                "closed 1",
                "full 2 [7, 7, 7, 7]",
                "free 3",
                "closed 3"
            ]
        );
        assert_eq!(fs.contents("f").unwrap(), [9; 4]);
        // The closing barrier ran for the two writes, not for the read.
        assert_eq!(fs.stats().syncs(), 2);
    }

    /// The other direction: an answer for a request the driver does not
    /// hold. `Free` and `Full` used to be dropped where `Closed` was an
    /// error; now all three are the same error, and the buffer goes back
    /// to the free-list first.
    #[test]
    fn a_disk_answer_for_a_request_that_is_not_live_is_a_protocol_error() {
        // A size class of its own on the list this binary's tests share.
        const LEN: usize = (3 << 20) + 4096;
        let (mut eps, _) = panda_msg::InProcFabric::new(1);
        let mut node = ServerNode::new(
            Box::new(eps.pop().unwrap()),
            Arc::new(MemFs::new()),
            0,
            0,
            1,
            1,
            1,
            0,
            panda_obs::null_recorder(),
            Arc::new(ServiceHealth::new(1, 1, 0)),
        );
        type Answer = fn(Vec<u8>) -> DiskOut;
        let answers: [(&str, Answer); 3] = [
            ("Written", |buf| DiskOut::Free { request: 5, buf }),
            ("Filled", |buf| DiskOut::Full { request: 5, buf }),
            ("Closed", |_| DiskOut::Closed { request: 5 }),
        ];
        for (name, answer) in answers {
            let mut st = SchedState {
                live: Vec::new(),
                queue: VecDeque::new(),
                draining: false,
                cmd_tx: mpsc::channel().0,
                disk_pending: 1,
            };
            let buf = freelist::take(LEN);
            let ptr = buf.as_ptr();
            match node.disk_done(&mut st, answer(buf)) {
                Err(PandaError::Protocol { detail }) => assert!(
                    detail.contains(&format!("disk answered {name} for unknown request 5")),
                    "{detail}"
                ),
                other => panic!("{name}: expected a protocol error, got {other:?}"),
            }
            assert_eq!(st.disk_pending, 0);
            if name != "Closed" {
                let again = freelist::take(LEN);
                assert_eq!(again.as_ptr(), ptr, "{name}: the buffer was lost");
            }
        }
    }

    /// A command for a request the task does not hold used to be
    /// dropped, buffer and all, leaving the scheduler to wait for an
    /// answer that never came. Now that a read's close is unacknowledged
    /// this is also the only witness of a close that overtook its reads.
    #[test]
    fn a_command_for_a_request_that_is_not_open_fails_the_disk_task() {
        type Case = fn(&DiskTask);
        let cases: [(&str, Case); 4] = [
            ("write", |d| d.send(write(5, vec![0; 4]))),
            ("read", |d| d.send(read(5, 4))),
            ("close", |d| d.send(DiskCmd::Close { request: 5 })),
            ("read", |d| {
                d.open(5, false, "f", 4);
                d.send(DiskCmd::Close { request: 5 });
                d.send(read(5, 4));
            }),
        ];
        for (cmd, case) in cases {
            let fs = Arc::new(MemFs::new());
            fs.create("f").unwrap().write_at(0, &[1; 4]).unwrap();
            let disk = DiskTask::spawn(fs);
            case(&disk);
            let (outs, result) = disk.finish();
            assert!(outs.is_empty(), "{cmd}: answered a command it refused");
            match result {
                Err(PandaError::Protocol { detail }) => {
                    assert!(
                        detail.contains(&format!("disk {cmd} for request 5")),
                        "{detail}"
                    )
                }
                other => panic!("{cmd}: expected a protocol error, got {other:?}"),
            }
        }
    }
}
