//! The Panda server: the I/O-node side of collective operations.
//!
//! Each server runs [`ServerNode::run`] in its own thread, as a shared
//! facility: up to `max_concurrent_collectives` admitted requests are
//! live at once, each lowered into its own [`CollectiveSchedule`]. Three
//! parts serve them, on two threads: the driver's and the disk task's.
//!
//! * **The node** (`mesh::Node`, the I/O node's one composition, the
//!   same the mesh walker explores and the DES times) holds admission
//!   and one window per live run. A window knows
//!   *when* each step of a schedule may start — how many fetches may be
//!   outstanding, when an assembled subchunk goes to the disk, when a
//!   read may run ahead and when its readers have fallen far enough
//!   behind that a filled step must wait, when the run retires — and
//!   keeps every count the run is owed: the pieces still
//!   to arrive, the credits still to come, the disk answers still
//!   outstanding. The node has no bytes, no socket, no channel and no
//!   clock: it decides, and its driver performs.
//! * **The driver** (this module's [`ServerNode`]) owns everything the
//!   node does not: the transport, the buffers and the events; it
//!   counts nothing. Whatever happens names one run — a `Data` reply, a
//!   `Credit`, a disk answer, an admission — so `ServerNode` holds it to
//!   every rule it can check alone and hands the node the one
//!   [`Input`]; the node feeds that run's window and has the driver
//!   perform the [`Action`]s it answers (`Perform` below): a `Fetch` is
//!   a message (or, for a one-shot, a piece cut out of the bytes it
//!   carried, whose `Piece` answers it at once), a `Write`/`Read` a
//!   command to the disk task, a `Scatter` the pushes (`Pushed` at
//!   once). Once a run's window is retired the driver sends the
//!   `Complete`s, and the node starts
//!   the request admission hands the freed slot. A `Fetch`'s `seq`
//!   names its piece (`step << 32 | piece`), so a `Data` reply says
//!   which piece it claims to be, and the window refuses one it is not
//!   waiting for before its bytes are kept. No other run is touched;
//!   runs share nothing but the FIFO disk task, so they take turns in
//!   the order their inputs arrive. Nothing is
//!   batched: the driver reorganizes in both directions, as each of the
//!   paper's I/O nodes does its own. A write piece is copied into its
//!   step's subchunk where it lands, and what its arrival makes due is
//!   performed at once, as for a credit or a disk answer; a read piece
//!   is packed where it is pushed, in piece order. The loop blocks only
//!   when nothing arrived — on the disk channel when a live window is
//!   owed a disk answer, on the transport otherwise. A small run (its
//!   bytes here below `panda_msg::freelist::PIECE_MIN_BYTES`,
//!   `freelist::is_small`) owes microseconds of disk work, so while
//!   only small runs are owed an answer the driver first polls both
//!   sides through `handoff::poll_handoff`, the bounded poll the disk
//!   task and a small collective's client wait through too, rather than
//!   be woken once per disk answer.
//! * **The disk task** is one named thread (`panda-disk-<server>`) per
//!   server, spawned in [`ServerNode::run`], and serves every request:
//!   it keeps a per-request file table and schedule, and processes
//!   `DiskCmd`s strictly in arrival order, polling for the next one
//!   (`poll_handoff`) after a small run's before it blocks. A
//!   command names a request and a step; the task reads the step's
//!   file, offset, length and sync point off the request's schedule,
//!   which its `Open` shared with it.
//!   Arrival order interleaves requests at subchunk
//!   granularity while preserving each request's per-file FIFO — so
//!   every file is still written/read in exactly the serial schedule's
//!   order and files stay byte-identical at any depth and any
//!   concurrency. It is the I/O node's only write queue, as each of the
//!   paper's I/O nodes does its own strictly sequential file I/O: one
//!   command in, its answers out, so a `Write` is answered `Written`
//!   where it is issued, before any later command, its buffer already
//!   back on the free-list. It counts nothing: the window's depth is the
//!   one bound on a run's outstanding writes, which are the `Write`s on
//!   the channel and the one being written.
//!   Fsync placement honours each request's own [`SyncPolicy`] (per
//!   write, per file at the `Write` of its file's last step, or one
//!   coalesced barrier at the request's last `Write`) — per-request
//!   fsync accounting, not fleet-global. A run's table lives from its
//!   `Open` to its last step: the answer to a write's last `Write` comes
//!   after the syncs its policy owes and after the table is dropped, so
//!   it is the run's end; a read's last `Read` drops the table.
//!
//! **Completion** is each server's own business: when a run retires,
//! the server sends every participant one [`Msg::Complete`] carrying
//! the number of `Fetch`/`Data` messages it sent that participant —
//! its pieces in the schedule, every one of which was sent. A write
//! retires on the `Written` that answers its last step — every byte
//! written and synced per the policy — or, with no steps on this
//! server, on the one that answers its `Open`. A read retires where its
//! last byte leaves: the disk task dropped its handles at its last
//! `Read`, ahead of any later `Open` of the same files on the one FIFO
//! command channel. There is no server-to-server completion traffic and
//! no client-to-client release.
//!
//! **Credits** pace a read by its readers: a participant credits each
//! awaited piece once unpacked, and the window pushes a step only once
//! the step `pipeline_depth` before it is paid for. Every credit is owed
//! before a read's last step is pushed, so a `Credit` for a request this
//! server does not hold, from a non-participant, or beyond what its
//! sender owes (a write owes none) comes from no honest client. Such a
//! credit is refused — recorded as a `RequestError`, kept as this
//! server's result — and changes nothing (the node hands back the
//! window's refusal and is as it was): the I/O node goes on serving
//! every run it holds.
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
//! **Admission** happens at the master server, and is decided by a
//! pure machine the node holds beside the windows
//! (`admission::Admission`: the live count, the FIFO queue and both
//! caps): a request beyond the live cap
//! waits in a bounded queue, and a single-participant (session) request
//! is refused with a typed [`Msg::Reject`] when the queue is full —
//! surfaced to the submitter as [`PandaError::Admission`].
//! Multi-participant requests are *never* rejected: their
//! non-submitting participants are already blocked in the collective
//! with no abort path, so a rejection would strand them; such requests
//! always queue. Peers admit unconditionally — the master already made
//! the decision when it relayed. Before any of that, every node holds a
//! request to every rule it can break alone: its participants to what
//! its plan pieces index (distinct compute nodes, as many as each
//! array's memory mesh has), no section write, and a one-shot's bytes
//! to its shape.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use panda_fs::{create_sized, FileHandle, FileSystem, FsError, SyncPolicy};
use panda_msg::{freelist, Bytes, MatchSpec, NodeId, Transport};
use panda_obs::{Event, Recorder, StepAction, SubchunkKey};
use panda_schema::{copy, Region, SchemaError};

use crate::admission::Caps;
use crate::error::PandaError;
use crate::handoff::poll_handoff;
use crate::health::ServiceHealth;
use crate::mesh::{Node, Perform, Started};
use crate::plan::{server_file_name, CollectiveSchedule, ScheduleStep};
use crate::protocol::{
    recv_msg, send_data, send_msg, send_request, try_recv_msg, CollectiveRequest, Msg, OpKind,
};
use crate::window::{Action, Input, Unexpected};

/// How long the driver parks on the disk channel before re-polling the
/// transport, when disk work is outstanding but nothing else moved (and,
/// when only small runs owe it, once the hand-off poll found nothing).
const DISK_PARK: Duration = Duration::from_micros(200);

/// Whether a run is small: its bytes on this server (its schedule's
/// files) are below the one size line, `freelist::is_small`. A small
/// run's disk hand-offs poll before they park ([`poll_handoff`]).
fn is_small(sched: &CollectiveSchedule) -> bool {
    freelist::is_small(sched.files.iter().map(|f| f.bytes).sum())
}

/// One I/O node.
pub struct ServerNode {
    transport: Box<dyn Transport>,
    fs: Arc<dyn FileSystem>,
    /// 0-based index among the servers.
    server_idx: usize,
    num_clients: usize,
    num_servers: usize,
    /// Session recorder; events are tagged with this server's fabric
    /// rank. Durations are measured only while it is enabled.
    recorder: Arc<dyn Recorder>,
    /// Shared health gauges: this server publishes its queue depth,
    /// live-request count, and disk backlog after every scheduler pass.
    /// They hold the deployment's admission caps.
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
    /// The first `Credit` refused (see the module docs): what
    /// [`ServerNode::run`] reports once it has served everything else.
    refused: Option<PandaError>,
    /// The disk task's command channel, while [`ServerNode::run`] runs.
    cmd_tx: Option<mpsc::Sender<DiskCmd>>,
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
        let (op, by, carries) = (req.op, req.participants.len(), body.len());
        if !matches!(op, OpKind::Write) || by != 1 || carries != end {
            return Err(PandaError::protocol(format!(
                "one-shot request {} is a {op:?} by {by} participants carrying {carries} \
                 bytes; only a single-participant write carries its bytes, its arrays' \
                 chunks ({end})",
                req.request
            )));
        }
        Ok(Carried { body, chunks })
    }
}

/// What the driver keeps beside a live collective on this server:
/// everything scoped to a single request id, which is what lets N of
/// these interleave on the shared transport and disk task. The node
/// holds the run's window; this is what the driver performs its actions
/// with.
struct RequestRun {
    request: u64,
    /// Fabric ranks of the participating compute nodes, indexed by a
    /// plan piece's mesh-local `client`.
    participants: Vec<u32>,
    dir: OpKind,
    /// The run's schedule, shared with the disk task, which reads each
    /// step's file, offset, length and sync point off it.
    sched: Arc<CollectiveSchedule>,
    /// Start instant, for the `CollectiveDone` duration.
    t_op: Option<Instant>,
    /// Each step's subchunk bytes: a write's from its first piece until
    /// its `Write`, a read's from its `Filled` until its `Scatter`. Empty
    /// otherwise: an identity write step's buffer *is* the received
    /// payload, a reorganizing one takes one from the free-list when its
    /// first piece lands.
    bufs: Vec<Vec<u8>>,
    /// The bytes of a one-shot write; `None` for a run that fetches.
    carried: Option<Carried>,
}

impl RequestRun {
    /// Cut plan piece `pi` of step `si` out of the carried bytes: what
    /// the submitter would have packed for the matching `Fetch`.
    fn pack_carried(&self, si: usize, pi: usize) -> Result<Bytes, PandaError> {
        let carried = self.carried.as_ref().expect("a one-shot run");
        let step = &self.sched.steps[si];
        let piece = &step.sub.pieces[pi];
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
}

/// A request as admission holds it: a one-shot with the bytes it
/// carries.
type Admitted = (CollectiveRequest, Option<Carried>);

/// Scheduler state local to one [`ServerNode::run`] call.
struct SchedState {
    /// This I/O node's decisions: what starts, waits or is refused (only
    /// the master's admission has caps), and each live run's window.
    node: Node<Admitted, RequestRun>,
    /// Set by `Msg::Shutdown`; the loop exits once drained.
    draining: bool,
}

/// The input a run was not waiting for, from whoever delivered it.
fn not_waiting(request: u64) -> impl FnOnce(Unexpected) -> PandaError {
    move |Unexpected(input)| {
        PandaError::protocol(format!("request {request} is not waiting for {input:?}"))
    }
}

/// One unit of work for the shared disk task. A command names a request
/// and, for a `Write` or a `Read`, a step of the schedule its `Open`
/// shared: the disk task reads the step's file, offset, length and sync
/// point off that schedule, as the DES's disk reads a step. Commands of
/// one request arrive in schedule order; commands of different requests
/// interleave freely — the task's arrival-order processing preserves
/// per-request (and hence per-file) FIFO either way.
enum DiskCmd {
    /// Begin a request: open its schedule's files (written ones through
    /// `create_sized`: kept when already the right length, else created
    /// and preallocated), create-and-sync its empty files, and keep the
    /// schedule until the request's last step. A request with no steps
    /// here keeps nothing; a write's is answered `Written` once its empty
    /// files are synced.
    Open {
        request: u64,
        write: bool,
        sched: Arc<CollectiveSchedule>,
    },
    /// Write step `step`'s completed subchunk (write direction). The
    /// last step's answer waits for the syncs the request's policy owes.
    Write {
        request: u64,
        step: usize,
        buf: Vec<u8>,
    },
    /// Prefetch step `step`'s subchunk (read direction) into a
    /// free-list buffer.
    Read { request: u64, step: usize },
}

/// A completion from the disk task back to the scheduler.
enum DiskOut {
    /// A write step landed (and was synced, per write); the task gave
    /// its buffer back to the free-list. The last step's answer says the
    /// request's disk work is over: every file synced per its policy.
    /// A write with no steps here is answered once, at its `Open`.
    Written { request: u64 },
    /// A read buffer was filled and is ready to scatter.
    Full {
        request: u64,
        step: usize,
        buf: Vec<u8>,
    },
}

/// The disk task's per-request state, from its `Open` to its last step.
struct DiskRun {
    files: Vec<Box<dyn FileHandle>>,
    /// The schedule its commands' steps index.
    sched: Arc<CollectiveSchedule>,
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
/// for: it was never opened, or it names a step past the request's
/// last. The scheduler counts on an answer to every `Write`/`Read`, so
/// dropping the command would park it forever; fail instead.
fn not_open(cmd: &str, request: u64) -> PandaError {
    PandaError::protocol(format!(
        "disk {cmd} for request {request}, which is not open on the disk task"
    ))
}

/// A disk command named a step its run's schedule does not have: the
/// driver only names steps of the schedule it shared, so fail rather
/// than answer for a subchunk that was never planned.
fn no_step(cmd: &str, request: u64, step: usize) -> PandaError {
    PandaError::protocol(format!(
        "disk {cmd} for request {request} names step {step}, which its schedule does not have"
    ))
}

/// The engine's disk task: the single thread that touches server
/// `server`'s files, for every request it ever serves, and the I/O
/// node's one write queue. Each `Open` shares a run's schedule; each
/// `Write` or `Read` names a step of it, whose file, offset, length and
/// subchunk key the task looks up there, and a write step is its file's
/// last when the next step names another file or there is none. One
/// command in, its answers out, until the command channel closes: a
/// `Write` is answered `Written` once it has landed, before the next
/// command is served; its buffer goes back to the free-list here. A
/// run's table lives from its `Open` to its last step: a write's last
/// `Write` runs the syncs its policy owes, drops the table and only then
/// answers, so that answer is the run's end; a read's last `Read` drops
/// it. After a small run's command the task polls for the next before
/// it blocks ([`poll_handoff`]). An error is fatal for the server (as it
/// always was): the task exits and the scheduler surfaces the error
/// through the join.
fn run_disk_task(
    recorder: Arc<dyn Recorder>,
    node: u32,
    server: usize,
    fs: Arc<dyn FileSystem>,
    cmds: mpsc::Receiver<DiskCmd>,
    out: mpsc::Sender<DiskOut>,
) -> Result<(), PandaError> {
    let mut runs: HashMap<u64, DiskRun> = HashMap::new();
    // Whether the command just served was a small run's.
    let mut small = false;
    while let Some(cmd) = next_cmd(&cmds, small) {
        small = match cmd {
            DiskCmd::Open {
                request,
                write,
                sched,
            } => {
                // Arrays with no data on this server still get their
                // (empty) file created and synced.
                for tag in &sched.empty_files {
                    create_sized(fs.as_ref(), &server_file_name(tag, server), 0)?.sync()?;
                }
                let mut files = Vec::with_capacity(sched.files.len());
                for f in &sched.files {
                    let name = server_file_name(&f.tag, server);
                    files.push(if write {
                        // The schedule's steps tile `[0, f.bytes)`, so a
                        // file already that long is overwritten in place,
                        // byte for byte.
                        create_sized(fs.as_ref(), &name, f.bytes)?
                    } else {
                        fs.open(&name)?
                    });
                }
                let small = is_small(&sched);
                if !sched.steps.is_empty() {
                    runs.insert(request, DiskRun { files, sched });
                } else if write {
                    // No step here: the opening is a write's whole disk
                    // work, its empty files already synced.
                    let _ = out.send(DiskOut::Written { request });
                }
                small
            }
            DiskCmd::Write {
                request,
                step: si,
                buf,
            } => {
                let run = runs
                    .get_mut(&request)
                    .ok_or_else(|| not_open("write", request))?;
                let (steps, policy) = (&run.sched.steps, run.sched.sync_policy);
                let step = steps.get(si).ok_or_else(|| no_step("write", request, si))?;
                let bytes = buf.len() as u64;
                let t_disk = recorder.enabled().then(Instant::now);
                // The write lands here, before the next command is served.
                let f = &mut run.files[step.file];
                f.write_at(step.sub.file_offset, &buf)?;
                if let Some(t) = t_disk {
                    let event = Event::Step {
                        key: SubchunkKey::scoped(request, server, step.array, step.subchunk),
                        seq: piece_seq(si, 0),
                        action: StepAction::Write,
                        bytes,
                        peer: None,
                        dur: t.elapsed(),
                    };
                    recorder.record(node, &event);
                }
                // The paper's semantics under the per-write policy:
                // fsync at once, before the buffer goes back, so the
                // next fetch never overlaps a flush.
                if matches!(policy, SyncPolicy::PerWrite) {
                    timed_sync(recorder.as_ref(), node, 1, || f.sync())?;
                }
                freelist::give(buf);
                // Steps are file-sequential: a step is its file's last
                // when the next names another file, or there is none.
                let next = steps.get(si + 1);
                let (last, last_of_file) =
                    (next.is_none(), next.is_none_or(|s| s.file != step.file));
                let small = is_small(&run.sched);
                // The run's last answer is its end: it waits for the syncs.
                if !last {
                    let _ = out.send(DiskOut::Written { request });
                }
                // Under the per-file policy, sync as soon as an array's
                // last subchunk is written, overlapped with the rest of
                // the schedule.
                if last_of_file && matches!(policy, SyncPolicy::PerFile) {
                    timed_sync(recorder.as_ref(), node, 1, || f.sync())?;
                }
                if last {
                    if matches!(policy, SyncPolicy::PerCollective) {
                        // One coalesced barrier for the whole request:
                        // every fsync happens after every write has
                        // landed, so no flush ever sits between two writes.
                        let n = run.files.len() as u32;
                        timed_sync(recorder.as_ref(), node, n, || {
                            run.files.iter_mut().try_for_each(|f| f.sync())
                        })?;
                    }
                    // The table goes before the answer does.
                    runs.remove(&request);
                    let _ = out.send(DiskOut::Written { request });
                }
                small
            }
            DiskCmd::Read { request, step: si } => {
                let run = runs
                    .get_mut(&request)
                    .ok_or_else(|| not_open("read", request))?;
                let steps = &run.sched.steps;
                let step = steps.get(si).ok_or_else(|| no_step("read", request, si))?;
                // `read_at` fills all of it or fails.
                let mut buf = freelist::take(step.sub.bytes);
                let t_disk = recorder.enabled().then(Instant::now);
                run.files[step.file].read_at(step.sub.file_offset, &mut buf)?;
                if let Some(t) = t_disk {
                    let event = Event::Step {
                        key: SubchunkKey::scoped(request, server, step.array, step.subchunk),
                        seq: piece_seq(si, 0),
                        action: StepAction::Read,
                        bytes: buf.len() as u64,
                        peer: None,
                        dur: t.elapsed(),
                    };
                    recorder.record(node, &event);
                }
                let full = DiskOut::Full {
                    request,
                    step: si,
                    buf,
                };
                let small = is_small(&run.sched);
                if si + 1 == steps.len() {
                    // The run's last step: its handles drop here, ahead
                    // of any later `Open` of the same files.
                    runs.remove(&request);
                }
                if out.send(full).is_err() {
                    // Scheduler bailed; nothing left to prefetch for.
                    return Ok(());
                }
                small
            }
        };
    }
    Ok(())
}

/// The disk task's next command, or `None` once the driver hung up.
/// After a small run's command (`poll`) the next is likely microseconds
/// away, so the task polls for it before it blocks.
fn next_cmd(cmds: &mpsc::Receiver<DiskCmd>, poll: bool) -> Option<DiskCmd> {
    let polled = poll.then(|| {
        poll_handoff(|| match cmds.try_recv() {
            Err(mpsc::TryRecvError::Empty) => None,
            got => Some(got.ok()),
        })
    });
    polled.flatten().unwrap_or_else(|| cmds.recv().ok())
}

/// Hold a request's participants to what its plan pieces index before
/// anything is relayed, queued or opened: distinct compute nodes (a
/// piece's client is a position in this list, and its rank is where the
/// piece's `Fetch` or `Data` goes), as many as each array's memory mesh
/// has.
fn check_participants(req: &CollectiveRequest, num_clients: usize) -> Result<(), PandaError> {
    let ranks = &req.participants;
    let distinct = (0..ranks.len()).all(|i| !ranks[..i].contains(&ranks[i]));
    let clients = ranks.iter().all(|&rank| (rank as usize) < num_clients);
    if distinct
        && clients
        && req
            .arrays
            .iter()
            .all(|a| a.meta.num_clients() == ranks.len())
    {
        return Ok(());
    }
    Err(PandaError::protocol(format!(
        "request {} names participants {ranks:?}: not one distinct compute node \
         of the {num_clients} per position of each array's memory mesh",
        req.request
    )))
}

/// The `seq` of a `Fetch` or a push: the piece it names (a disk step's
/// event names its step's piece 0).
fn piece_seq(step: usize, piece: usize) -> u64 {
    (step as u64) << 32 | piece as u64
}

/// Run one reorganization copy — a fetched piece into its subchunk
/// (write), or a subchunk's piece out of it (read) — of `bytes` bytes,
/// and record it, on the driver: a write's where its piece lands, a
/// read's where its piece is pushed.
fn reorg<T>(
    recorder: &dyn Recorder,
    node: u32,
    key: SubchunkKey,
    piece: usize,
    bytes: usize,
    copy: impl FnOnce() -> Result<T, SchemaError>,
) -> Result<(), SchemaError> {
    let t_pack = recorder.enabled().then(Instant::now);
    copy()?;
    if let Some(t) = t_pack {
        let (piece, bytes, dur) = (piece as u32, bytes as u64, t.elapsed());
        let event = Event::ReorgWorker {
            key,
            piece,
            bytes,
            dur,
        };
        recorder.record(node, &event);
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
        recorder: Arc<dyn Recorder>,
        health: Arc<ServiceHealth>,
    ) -> Self {
        ServerNode {
            transport,
            fs,
            server_idx,
            num_clients,
            num_servers,
            recorder,
            health,
            raw_handles: HashMap::new(),
            raw_dirty: false,
            raw_done: vec![false; num_clients],
            raw_done_count: 0,
            refused: None,
            cmd_tx: None,
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
        let (live, queued) = st.node.counts();
        let disk_owed = st.node.disk_owed();
        self.health
            .publish(self.server_idx, queued, live, disk_owed);
    }

    /// Send one disk command. A closed channel means the disk task
    /// already died — the join in [`ServerNode::run`] has the cause.
    fn disk_send(&self, cmd: DiskCmd) -> Result<(), PandaError> {
        let sent = self.cmd_tx.as_ref().map(|tx| tx.send(cmd));
        sent.and_then(Result::ok)
            .ok_or_else(|| PandaError::protocol("disk task stopped early"))
    }

    /// A step's subchunk key under this server, scoped to its request.
    fn key_of(&self, request: u64, step: &ScheduleStep) -> SubchunkKey {
        SubchunkKey::scoped(request, self.server_idx, step.array, step.subchunk)
    }

    /// Main loop: schedule collective requests and serve baseline raw
    /// operations until shutdown. Spawns the disk task, runs the
    /// scheduler, then joins the task — a disk error is the root cause
    /// when both sides failed; a refused credit is reported only when
    /// nothing else failed.
    pub fn run(mut self) -> Result<(), PandaError> {
        let (cmd_tx, cmd_rx) = mpsc::channel::<DiskCmd>();
        let (out_tx, out_rx) = mpsc::channel::<DiskOut>();
        let recorder = Arc::clone(&self.recorder);
        let node = self.my_rank();
        let (fs, server) = (Arc::clone(&self.fs), self.server_idx);
        let disk = std::thread::Builder::new()
            .name(format!("panda-disk-{server}"))
            .spawn(move || run_disk_task(recorder, node, server, fs, cmd_rx, out_tx))
            .map_err(|e| PandaError::Fs(e.into()))?;
        let caps = match self.is_master() {
            true => Caps::new(self.health.max_concurrent(), self.health.max_queued()),
            false => Caps::NONE,
        };
        let mut st = SchedState {
            node: Node::new(caps),
            draining: false,
        };
        self.cmd_tx = Some(cmd_tx);
        let run = self.serve(&mut st, &out_rx);
        // Closing the command channel lets the disk task drain and exit.
        self.cmd_tx = None;
        let disk = disk
            .join()
            .map_err(|_| PandaError::protocol("disk task panicked"))?;
        disk.and(run).and(self.refused.map_or(Ok(()), Err))
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
            while let Ok(done) = out_rx.try_recv() {
                self.disk_done(st, done)?;
                progress = true;
            }
            self.publish_health(st);
            if st.draining && st.node.counts() == (0, 0) {
                return Ok(());
            }
            if progress {
                continue;
            }
            if st.node.disk_owed() > 0 {
                // Disk work outstanding: progress may come from either
                // side. A small run's disk answer is microseconds away,
                // so when only small runs are owed one, poll both sides
                // first (`poll_handoff`).
                if st.node.owing().all(|run| is_small(&run.sched)) {
                    let arrived = poll_handoff(|| {
                        if let Ok(done) = out_rx.try_recv() {
                            return Some(self.disk_done(st, done));
                        }
                        match try_recv_msg(&mut *self.transport, MatchSpec::any()) {
                            Ok(Some((src, msg))) => {
                                Some(self.dispatch(st, src, msg, Duration::ZERO))
                            }
                            Ok(None) => None,
                            Err(e) => Some(Err(e)),
                        }
                    });
                    if let Some(served) = arrived {
                        served?;
                        continue;
                    }
                }
                // Then park briefly on the disk channel and re-poll the
                // transport.
                match out_rx.recv_timeout(DISK_PARK) {
                    Ok(done) => self.disk_done(st, done)?,
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(_) => return Err(PandaError::protocol("disk task stopped early")),
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

    /// Perform a `Fetch`: ask the piece's participant for it, naming the
    /// piece in the `seq` its `Data` echoes.
    fn fetch(&mut self, run: &RequestRun, si: usize, pi: usize) -> Result<(), PandaError> {
        let step = &run.sched.steps[si];
        let piece = &step.sub.pieces[pi];
        let dst = run.participants[piece.client];
        send_msg(
            &mut *self.transport,
            NodeId(dst as usize),
            &Msg::Fetch {
                request: run.request,
                array: step.array,
                seq: piece_seq(si, pi),
                region: piece.region.clone(),
            },
        )?;
        Ok(())
    }

    /// Keep the bytes of write piece `pi` of step `si`, fetched or
    /// carried, which the run's window has taken: a piece it was not
    /// waiting for is refused before a byte of it is kept. An identity
    /// step is complete with them: the piece is the subchunk, so the
    /// buffer goes to the disk task as it is. A reorganizing step's piece
    /// is copied into the step's subchunk here, where it lands.
    fn piece_arrived(
        &self,
        run: &mut RequestRun,
        si: usize,
        pi: usize,
        payload: Bytes,
    ) -> Result<(), PandaError> {
        let (step, buf) = (&run.sched.steps[si], &mut run.bufs[si]);
        if step.identity {
            *buf = payload.into_vec();
            return Ok(());
        }
        if buf.is_empty() {
            // Not zero-filled: a write step's pieces partition its
            // subchunk, so assembly overwrites every byte.
            *buf = freelist::take(step.sub.bytes);
        }
        let (node, key) = (self.my_rank(), self.key_of(run.request, step));
        let (region, sub, elem) = (&step.sub.pieces[pi].region, &step.sub.region, step.elem);
        let copy = || copy::copy_region(&payload, region, buf, sub, region, elem);
        reorg(&*self.recorder, node, key, pi, payload.len(), copy)?;
        payload.recycle();
        Ok(())
    }

    /// Perform a `Scatter`: push read step `si` to its clients, in piece
    /// order, so the per-client message stream matches the serial
    /// schedule. An identity step's buffer — the one the disk task
    /// filled — goes out as the `Data` body as it is. A reorganizing
    /// step's pieces are each packed into a free-list buffer and pushed
    /// at once. The schedule already clipped the pieces to a requested
    /// section. An `awaited` step's pieces travel as `AwaitedData`, each
    /// to be answered by a `Credit`.
    fn scatter_step(
        &mut self,
        run: &mut RequestRun,
        si: usize,
        awaited: bool,
    ) -> Result<(), PandaError> {
        // The window scatters a step only once its `Filled` came.
        let buf = std::mem::take(&mut run.bufs[si]);
        let step = &run.sched.steps[si];
        if step.identity {
            return self.push(run, si, 0, awaited, buf);
        }
        let (node, key) = (self.my_rank(), self.key_of(run.request, step));
        let (sub, elem) = (&step.sub.region, step.elem);
        for (pi, piece) in step.sub.pieces.iter().enumerate() {
            let bytes = piece.region.num_bytes(elem);
            let mut packed = freelist::take(bytes);
            let pack = || copy::pack_region_into(&mut packed, &buf, sub, &piece.region, elem);
            reorg(&*self.recorder, node, key, pi, bytes, pack)?;
            self.push(run, si, pi, awaited, packed)?;
        }
        freelist::give(buf);
        Ok(())
    }

    /// Send piece `pi` of read step `si` to its client as `data`.
    fn push(
        &mut self,
        run: &RequestRun,
        si: usize,
        pi: usize,
        awaited: bool,
        data: Vec<u8>,
    ) -> Result<(), PandaError> {
        let step = &run.sched.steps[si];
        let piece = &step.sub.pieces[pi];
        let dst = run.participants[piece.client];
        let (seq, bytes) = (piece_seq(si, pi), data.len() as u64);
        send_data(
            &mut *self.transport,
            NodeId(dst as usize),
            awaited,
            run.request,
            step.array,
            seq,
            &piece.region,
            data,
        )?;
        self.emit(&Event::Step {
            key: self.key_of(run.request, step),
            seq,
            action: StepAction::Scatter,
            bytes,
            peer: Some(dst),
            dur: Duration::ZERO,
        });
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
            Msg::Credit { request } => self.credit(st, src, request),
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
            other => Err(PandaError::protocol(format!(
                "server got unexpected tag {}",
                other.tag()
            ))),
        }
    }

    /// Admission control (see the module docs): every node first holds
    /// the request to every rule it can break alone — its participants to
    /// its plan, no section write, a one-shot's bytes to its shape — then
    /// its admission answers: the master's may queue or refuse, a peer's
    /// starts whatever the master relayed. `carried` is a one-shot's
    /// bytes: they are admitted, queued, relayed and refused with it.
    fn admit(
        &mut self,
        st: &mut SchedState,
        req: CollectiveRequest,
        carried: Option<Bytes>,
    ) -> Result<(), PandaError> {
        check_participants(&req, self.num_clients)?;
        if matches!(req.op, OpKind::Write) && req.arrays.iter().any(|a| a.section.is_some()) {
            return Err(PandaError::protocol(format!(
                "request {} is a section write: section writes are not supported",
                req.request
            )));
        }
        let carried = carried.map(|body| Carried::new(&req, body)).transpose()?;
        let fleet = req.participants.len() > 1;
        let Some(((req, _), reason)) = st.node.admit(self, (req, carried), fleet)? else {
            self.publish_health(st);
            return Ok(());
        };
        let (request, (live, queued)) = (req.request, st.node.counts());
        self.emit(&Event::AdmissionReject {
            request,
            queued: queued as u32,
            live: live as u32,
        });
        self.health.note_reject(self.server_idx);
        // Decoding refused a request without participants.
        let submitter = NodeId(req.participants[0] as usize);
        send_msg(
            &mut *self.transport,
            submitter,
            &Msg::Reject { request, reason },
        )
    }

    /// Relay an admitted request to the peer servers (master only). A
    /// one-shot goes with all of its bytes: each peer cuts its own
    /// pieces out of them.
    ///
    /// Every run the master starts is relayed here first, and no peer
    /// learns of the request any other way, so this is where a
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
        carried: Option<&Carried>,
    ) -> Result<(), PandaError> {
        if self.raw_dirty && matches!(req.op, OpKind::Write) {
            self.sync_raw()?;
        }
        let body = carried.map(|c| &c.body);
        for s in 1..self.num_servers {
            let dst = NodeId(self.num_clients + s);
            send_request(&mut *self.transport, dst, req, body.cloned())?;
        }
        Ok(())
    }

    /// Route an arriving `Data` reply to the run, step and piece it
    /// names, and hold it to the plan and to the window before it counts
    /// as arrived; then perform what its arrival made due.
    fn route_data(
        &mut self,
        st: &mut SchedState,
        request: u64,
        seq: u64,
        region: Region,
        payload: Bytes,
        wait: Duration,
    ) -> Result<(), PandaError> {
        let Some(run) = st.node.run(request) else {
            return Err(PandaError::protocol(format!(
                "data for unknown request {request}"
            )));
        };
        // The payload is about to be written (or, for an identity step,
        // to *become* the subchunk) on the strength of the plan alone:
        // hold the wire to the piece its seq names, which must be one.
        let (si, pi) = ((seq >> 32) as usize, seq as u32 as usize);
        let step = run.sched.steps.get(si);
        let piece = step.and_then(|step| step.sub.pieces.get(pi));
        let expected = step
            .zip(piece)
            .map(|(s, p)| (p.region.num_bytes(s.elem), &p.region));
        if expected != Some((payload.len(), &region)) {
            return Err(PandaError::protocol(format!(
                "data seq {seq} for request {request} carries {} bytes of {region:?}; \
                     the plan's step {si} piece {pi} is {expected:?}",
                payload.len()
            )));
        }
        // The step exists: its piece is what arrived.
        let step = &run.sched.steps[si];
        let key = self.key_of(request, step);
        let peer = run.participants[step.sub.pieces[pi].client];
        let bytes = payload.len() as u64;
        // A duplicate or unrequested piece stops at the window, its bytes
        // unkept.
        let keep = |srv: &mut Self, run: &mut RequestRun| {
            srv.piece_arrived(run, si, pi, payload)?;
            srv.emit(&Event::Step {
                key,
                seq,
                action: StepAction::Fetch,
                bytes,
                peer: Some(peer),
                // Only the blocking receive actually waited.
                dur: wait,
            });
            Ok(())
        };
        let input = Input::Piece {
            step: si,
            piece: pi,
        };
        st.node
            .feed(self, request, input, keep)?
            .map_err(not_waiting(request))
    }

    /// A participant unpacked one awaited piece of `request`: its window
    /// takes the credit, which may let the run push its next step. A
    /// credit no honest client sends is refused (see the module docs): it
    /// changes no run — the node leaves itself as it was when it refuses
    /// — and is recorded as a request error, the first kept for
    /// [`ServerNode::run`] to report, while the node goes on serving.
    fn credit(&mut self, st: &mut SchedState, src: NodeId, request: u64) -> Result<(), PandaError> {
        let ranks = st.node.run(request).map(|run| &run.participants);
        let who = ranks.map(|ranks| ranks.iter().position(|&rank| rank as usize == src.index()));
        let why = match who {
            None => "which is not live here",
            Some(None) => "in which its sender does not take part",
            Some(Some(client)) => {
                let credit = Input::Credit { client };
                match st.node.feed(self, request, credit, |_, _| Ok(()))? {
                    Ok(()) => return Ok(()),
                    Err(_) => "beyond what it owes",
                }
            }
        };
        let detail = format!("credit from {src} for request {request}, {why}");
        self.emit(&Event::RequestError {
            request,
            detail: &detail,
        });
        self.refused.get_or_insert(PandaError::protocol(detail));
        Ok(())
    }

    /// Process one disk answer: feed it to the run it names. One for a
    /// request that is not live is a protocol error whatever it answers
    /// — a dropped `Full` would be a read that never scatters — and a
    /// filled buffer still goes back to the free-list.
    fn disk_done(&mut self, st: &mut SchedState, done: DiskOut) -> Result<(), PandaError> {
        let (request, input, filled) = match done {
            DiskOut::Written { request } => (request, Input::Written, None),
            DiskOut::Full { request, step, buf } => (request, Input::Filled, Some((step, buf))),
        };
        if st.node.run(request).is_none() {
            if let Some((_, buf)) = filled {
                freelist::give(buf);
            }
            return Err(PandaError::protocol(format!(
                "disk answered {input:?} for unknown request {request}"
            )));
        }
        // A filled step waits in its slot for its `Scatter`.
        let keep = |_: &mut Self, run: &mut RequestRun| {
            if let Some((step, buf)) = filled {
                run.bufs[step] = buf;
            }
            Ok(())
        };
        st.node
            .feed(self, request, input, keep)?
            .map_err(not_waiting(request))
    }

    /// Baseline support: apply a positioned write in arrival order.
    fn raw_write(&mut self, file: &str, offset: u64, payload: &[u8]) -> Result<(), PandaError> {
        let handle = self.raw_handle(file, true)?;
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

    /// Baseline support: serve a positioned read of a file that exists.
    fn raw_read(
        &mut self,
        src: NodeId,
        file: &str,
        offset: u64,
        len: usize,
        seq: u64,
    ) -> Result<(), PandaError> {
        let handle = self.raw_handle(file, false)?;
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

    /// The raw plane's handle to `file`, opened on first use. Only a
    /// write (`create`) makes a missing file; a read of one is
    /// [`FsError::NotFound`] and leaves nothing behind.
    fn raw_handle(
        &mut self,
        file: &str,
        create: bool,
    ) -> Result<&mut Box<dyn FileHandle>, PandaError> {
        match self.raw_handles.entry(file.to_string()) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(e.into_mut()),
            std::collections::hash_map::Entry::Vacant(e) => {
                let handle = if create && !self.fs.exists(file) {
                    self.fs.create(file)?
                } else {
                    self.fs.open(file)?
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
                return Err(PandaError::protocol(format!(
                    "duplicate or non-client RawDone from {src}"
                )))
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

/// The driver performs its node's actions with bytes, the transport and
/// the disk task.
impl Perform<Admitted, RequestRun> for ServerNode {
    type Error = PandaError;

    /// Relay an admitted request (master), build its schedule and open
    /// its files on the disk task; its window then asks for the first
    /// fetches or reads, or, when the schedule is empty, awaits a
    /// write's `Written` for the opening or retires a read at once.
    fn start(&mut self, (req, carried): Admitted) -> Result<Started<RequestRun>, PandaError> {
        if self.is_master() {
            self.relay(&req, carried.as_ref())?;
        }
        let depth = req.pipeline_depth.max(1);
        let t_op = self.obs_on().then(Instant::now);
        self.emit(&Event::RequestIssued {
            request: req.request,
            op: req.op,
            arrays: req.arrays.len() as u32,
            pipeline_depth: depth as u32,
        });
        let sched = Arc::new(CollectiveSchedule::build(
            &req.arrays,
            req.op,
            self.server_idx,
            self.num_servers,
            req.subchunk_bytes,
            req.sync_policy,
        ));
        if self.obs_on() {
            for step in &sched.steps {
                self.emit(&Event::SubchunkPlanned {
                    key: self.key_of(req.request, step),
                    bytes: step.sub.bytes as u64,
                });
            }
        }
        self.disk_send(DiskCmd::Open {
            request: req.request,
            write: matches!(req.op, OpKind::Write),
            sched: Arc::clone(&sched),
        })?;
        let steps = sched.steps.iter();
        Ok(Started {
            request: req.request,
            dir: req.op,
            depth,
            clients: steps
                .map(|s| s.sub.pieces.iter().map(|p| p.client).collect())
                .collect(),
            participants: req.participants.len(),
            carried: carried.is_some(),
            // Nothing fetched, issued or queued yet.
            run: RequestRun {
                request: req.request,
                participants: req.participants,
                dir: req.op,
                bufs: vec![Vec::new(); sched.steps.len()],
                sched,
                t_op,
                carried,
            },
        })
    }

    /// A one-shot's `Fetch` sends nothing: it cuts its piece out of the
    /// bytes the request carried and keeps it, and the `Piece` is its
    /// answer. A `Scatter` returns once its pieces are pushed, so
    /// `Pushed` is its answer.
    fn act(&mut self, run: &mut RequestRun, action: Action) -> Result<Option<Input>, PandaError> {
        let request = run.request;
        match action {
            Action::Fetch { step, piece } if run.carried.is_some() => {
                let payload = run.pack_carried(step, piece)?;
                self.piece_arrived(run, step, piece, payload)?;
                return Ok(Some(Input::Piece { step, piece }));
            }
            Action::Fetch { step, piece } => self.fetch(run, step, piece)?,
            Action::Write { step } => {
                let buf = std::mem::take(&mut run.bufs[step]);
                self.disk_send(DiskCmd::Write { request, step, buf })?;
            }
            Action::Read { step } => self.disk_send(DiskCmd::Read { request, step })?,
            Action::Scatter { step, awaited } => {
                self.scatter_step(run, step, awaited)?;
                return Ok(Some(Input::Pushed));
            }
        }
        Ok(None)
    }

    /// The collective is complete on this server (a write's last
    /// `Written` came back, a read's last piece was pushed): tell every
    /// participant how many pieces it was sent.
    fn retire(&mut self, run: RequestRun, pieces: &[u32]) -> Result<(), PandaError> {
        let request = run.request;
        if let Some(t) = run.t_op {
            self.emit(&Event::CollectiveDone {
                request,
                op: run.dir,
                dur: t.elapsed(),
            });
        }
        for (&rank, &pieces) in run.participants.iter().zip(pieces) {
            let done = Msg::Complete { request, pieces };
            send_msg(&mut *self.transport, NodeId(rank as usize), &done)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_fs::MemFs;
    use panda_schema::ElementType;

    /// The disk task alone, driven through its two channels.
    struct DiskTask {
        cmds: mpsc::Sender<DiskCmd>,
        outs: mpsc::Receiver<DiskOut>,
        task: std::thread::JoinHandle<Result<(), PandaError>>,
    }

    impl DiskTask {
        fn spawn<F: FileSystem + 'static>(fs: Arc<F>) -> Self {
            Self::recorded(fs, panda_obs::null_recorder())
        }

        fn recorded<F: FileSystem + 'static>(fs: Arc<F>, recorder: Arc<dyn Recorder>) -> Self {
            let (cmds, cmd_rx) = mpsc::channel();
            let (out_tx, outs) = mpsc::channel();
            let task =
                std::thread::spawn(move || run_disk_task(recorder, 0, 0, fs, cmd_rx, out_tx));
            DiskTask { cmds, outs, task }
        }

        /// Open `request` on a one-step schedule: a `bytes`-byte array
        /// of one client on one server, whose file is `<tag>.s0`.
        fn open(&self, request: u64, write: bool, tag: &str, bytes: usize) {
            use panda_schema::{DataSchema, ElementType, Mesh, Shape};
            let shape = Shape::new(&[bytes]).unwrap();
            let mesh = Mesh::new(&[1]).unwrap();
            let mem = DataSchema::block_all(shape, ElementType::U8, mesh).unwrap();
            let meta = crate::ArrayMeta::natural("a", mem).unwrap();
            let arrays = [crate::protocol::ArrayOp {
                meta,
                file_tag: tag.to_string(),
                section: None,
            }];
            let op = if write { OpKind::Write } else { OpKind::Read };
            let policy = SyncPolicy::PerCollective;
            let sched = CollectiveSchedule::build(&arrays, op, 0, 1, bytes, policy);
            assert_eq!(sched.steps.len(), 1);
            let sched = Arc::new(sched);
            self.send(DiskCmd::Open {
                request,
                write,
                sched,
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

    fn write(request: u64, buf: Vec<u8>) -> DiskCmd {
        DiskCmd::Write {
            request,
            step: 0,
            buf,
        }
    }

    fn read(request: u64) -> DiskCmd {
        DiskCmd::Read { request, step: 0 }
    }

    fn describe(out: &DiskOut) -> String {
        match out {
            DiskOut::Written { request } => format!("written {request}"),
            DiskOut::Full { request, buf, .. } => format!("full {request} {buf:?}"),
        }
    }

    /// A schedule with no steps on this server, writing `empty` files.
    fn stepless(empty: &[&str]) -> Arc<CollectiveSchedule> {
        Arc::new(CollectiveSchedule {
            steps: Vec::new(),
            files: Vec::new(),
            empty_files: empty.iter().map(|tag| tag.to_string()).collect(),
            sync_policy: SyncPolicy::PerCollective,
        })
    }

    /// Holds the disk task at its first recorded sync, which follows the
    /// sync itself, until the test lets it go: says it got there, then
    /// waits.
    #[derive(Debug)]
    struct HoldFirstSync(std::sync::Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>);

    impl Recorder for HoldFirstSync {
        fn record(&self, _: u32, event: &Event<'_>) {
            if let Event::DiskSyncDone { .. } = event {
                if let Some((reached, go)) = self.0.lock().unwrap().take() {
                    reached.send(()).unwrap();
                    go.recv().unwrap();
                }
            }
        }
    }

    /// A run's last answer is its end: a write's last `Written` comes
    /// after its barrier, a step-less write's `Open` is answered once its
    /// empty file is synced, a step-less read's answers nothing, and a
    /// command past a run's last step finds no table.
    #[test]
    fn a_runs_last_answer_follows_its_syncs_and_its_table_is_gone() {
        let fs = Arc::new(MemFs::new());
        let ((reached, at_sync), (go, held)) = (mpsc::channel(), mpsc::channel());
        let hold = HoldFirstSync(std::sync::Mutex::new(Some((reached, held))));
        let disk = DiskTask::recorded(Arc::clone(&fs), Arc::new(hold));
        let answer = || describe(&disk.outs.recv().unwrap());
        disk.open(1, true, "f", 4);
        disk.send(write(1, vec![7; 4]));
        // Held just past its barrier, the write has not answered yet.
        at_sync.recv().unwrap();
        assert!(disk.outs.try_recv().is_err(), "answered before its barrier");
        go.send(()).unwrap();
        assert_eq!(answer(), "written 1");
        assert_eq!(fs.stats().syncs(), 1);
        let sched = stepless(&["e"]);
        disk.send(DiskCmd::Open {
            request: 2,
            write: true,
            sched,
        });
        assert_eq!(answer(), "written 2");
        assert_eq!(fs.contents("e.s0").unwrap(), []);
        assert_eq!(
            fs.stats().syncs(),
            2,
            "the empty file synced before the answer"
        );
        disk.open(3, false, "f", 4);
        disk.send(read(3));
        let sched = stepless(&[]);
        disk.send(DiskCmd::Open {
            request: 4,
            write: false,
            sched,
        });
        // Behind the read on the one channel: the same file, rewritten
        // by a later request.
        disk.open(5, true, "f", 4);
        disk.send(write(5, vec![9; 4]));
        disk.send(write(1, vec![0; 4]));
        let (outs, result) = disk.finish();
        let seen: Vec<String> = outs.iter().map(describe).collect();
        assert_eq!(seen, ["full 3 [7, 7, 7, 7]", "written 5"]);
        match result {
            Err(PandaError::Protocol { detail }) => assert!(
                detail.contains("disk write for request 1, which is not open"),
                "{detail}"
            ),
            other => panic!("a write past its run's last step: {other:?}"),
        }
        assert_eq!(fs.contents("f.s0").unwrap(), [9; 4]);
        // Each write's barrier and the empty file's sync; no read syncs.
        assert_eq!(fs.stats().syncs(), 3);
    }

    /// An array's shape, element type, memory mesh and whether its disk
    /// layout is traditional order (else natural).
    type Array<'a> = (&'a [usize], ElementType, &'a [usize], bool);

    /// A write schedule on server `server` of `servers` for `arrays`.
    fn schedule(arrays: &[Array], server: usize, servers: usize) -> CollectiveSchedule {
        use panda_schema::{DataSchema, Mesh, Shape};
        let arrays: Vec<_> = arrays
            .iter()
            .enumerate()
            .map(|(i, &(dims, elem, mesh, traditional))| {
                let shape = Shape::new(dims).unwrap();
                let mem = DataSchema::block_all(shape.clone(), elem, Mesh::new(mesh).unwrap());
                let disk = match traditional {
                    true => DataSchema::traditional_order(shape, elem, servers),
                    false => mem.clone(),
                };
                crate::protocol::ArrayOp {
                    meta: crate::ArrayMeta::new(format!("a{i}"), mem.unwrap(), disk.unwrap())
                        .unwrap(),
                    file_tag: format!("a{i}"),
                    section: None,
                }
            })
            .collect();
        let policy = SyncPolicy::PerFile;
        CollectiveSchedule::build(&arrays, OpKind::Write, server, servers, 1 << 20, policy)
    }

    /// The size class is the one-shot line: a session write its client
    /// sends whole is small on every I/O node, a run with exactly
    /// `PIECE_MIN_BYTES` on one node is not, nor is the benchmark's
    /// bulk array.
    #[test]
    fn a_run_is_small_below_the_one_shot_line_on_its_server() {
        use panda_schema::ElementType::{F64, U8};
        let line = freelist::PIECE_MIN_BYTES;
        let whole: [&[Array]; 4] = [
            &[(&[64, 64], U8, &[1, 1], true)],
            &[(&[line - 1], U8, &[1], true)],
            &[(&[line / 8 - 1], F64, &[1], false)],
            &[
                (&[100, 20], F64, &[1, 1], true),
                (&[3, 7, 5], U8, &[1, 1, 1], false),
            ],
        ];
        for arrays in whole {
            let bytes: usize = arrays
                .iter()
                .map(|(dims, elem, ..)| dims.iter().product::<usize>() * elem.size_bytes())
                .sum();
            assert!(bytes < line, "a session sends {bytes} bytes whole");
            for servers in [1, 2, 3] {
                for server in 0..servers {
                    let sched = schedule(arrays, server, servers);
                    assert!(
                        is_small(&sched),
                        "{bytes} bytes, server {server} of {servers}"
                    );
                }
            }
        }
        // Exactly the line on each of two I/O nodes, and on one.
        for (len, servers) in [(2 * line, 2), (line, 1)] {
            for server in 0..servers {
                let sched = schedule(&[(&[len], U8, &[1], true)], server, servers);
                let here: u64 = sched.files.iter().map(|f| f.bytes).sum();
                assert_eq!(here, line as u64);
                assert!(!is_small(&sched), "{len} bytes over {servers}");
            }
        }
        // The benchmark's bulk array: 256 x 256 x 128 F64, traditional
        // order over two I/O nodes.
        for server in 0..2 {
            let sched = schedule(&[(&[256, 256, 128], F64, &[1, 1, 2], true)], server, 2);
            assert!(!is_small(&sched), "bulk array, server {server}");
        }
    }

    /// A size class of its own on the free-list this binary's tests
    /// share: the tests that follow a buffer through it hold
    /// [`RECYCLING`], so neither takes the other's buffer.
    const LEN: usize = (3 << 20) + 4096;
    static RECYCLING: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// A landed write's buffer goes back to the free-list on the disk
    /// task, before its `Written` answer: the driver never holds it again.
    #[test]
    fn the_disk_task_recycles_a_written_buffer() {
        let _class = RECYCLING.lock().unwrap_or_else(|e| e.into_inner());
        let fs = Arc::new(MemFs::new());
        let disk = DiskTask::spawn(Arc::clone(&fs));
        disk.open(1, true, "f", LEN);
        let mut buf = freelist::take(LEN);
        buf.fill(3);
        let ptr = buf.as_ptr();
        disk.send(write(1, buf));
        let answer = disk.outs.recv().unwrap();
        assert_eq!(describe(&answer), "written 1");
        let again = freelist::take(LEN);
        assert_eq!(again.as_ptr(), ptr, "the written buffer was not recycled");
        let (outs, result) = disk.finish();
        result.unwrap();
        assert!(outs.is_empty());
        assert_eq!(fs.contents("f.s0").unwrap(), vec![3; LEN]);
    }

    /// The other direction: an answer for a request the driver does not
    /// hold. `Written` and `Full` alike are a protocol error, and a
    /// filled buffer goes back to the free-list first.
    #[test]
    fn a_disk_answer_for_a_request_that_is_not_live_is_a_protocol_error() {
        let _class = RECYCLING.lock().unwrap_or_else(|e| e.into_inner());
        let (mut eps, _) = panda_msg::InProcFabric::new(1);
        let mut node = ServerNode::new(
            Box::new(eps.pop().unwrap()),
            Arc::new(MemFs::new()),
            0,
            0,
            1,
            panda_obs::null_recorder(),
            Arc::new(ServiceHealth::new(1, 1, 0)),
        );
        type Answer = fn(Vec<u8>) -> DiskOut;
        let answers: [(&str, Answer); 2] = [
            ("Written", |_| DiskOut::Written { request: 5 }),
            ("Filled", |buf| DiskOut::Full {
                request: 5,
                step: 0,
                buf,
            }),
        ];
        for (name, answer) in answers {
            let mut st = SchedState {
                node: Node::new(Caps::NONE),
                draining: false,
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
            if name == "Filled" {
                let again = freelist::take(LEN);
                assert_eq!(again.as_ptr(), ptr, "{name}: the buffer was lost");
            }
        }
    }

    /// A command for a request the task does not hold used to be
    /// dropped, buffer and all, leaving the scheduler to wait for an
    /// answer that never came. A run's table goes at its last step, so a
    /// command past it fails the same way, as does one that names a step
    /// its run's schedule does not have. Each case's commands before the
    /// refused one are answered.
    #[test]
    fn a_command_for_a_request_that_is_not_open_fails_the_disk_task() {
        type Case = fn(&DiskTask);
        let cases: [(&str, &str, usize, Case); 4] = [
            ("write", "", 0, |d| d.send(write(5, vec![0; 4]))),
            ("read", "", 0, |d| d.send(read(5))),
            ("read", "", 1, |d| {
                d.open(5, false, "f", 4);
                d.send(read(5));
                d.send(read(5));
            }),
            ("write", " names step 1,", 0, |d| {
                d.open(5, true, "f", 4);
                d.send(DiskCmd::Write {
                    request: 5,
                    step: 1,
                    buf: vec![0; 4],
                });
            }),
        ];
        for (cmd, names, answered, case) in cases {
            let fs = Arc::new(MemFs::new());
            fs.create("f.s0").unwrap().write_at(0, &[1; 4]).unwrap();
            let disk = DiskTask::spawn(fs);
            case(&disk);
            let (outs, result) = disk.finish();
            assert_eq!(outs.len(), answered, "{cmd}: answered a command it refused");
            match result {
                Err(PandaError::Protocol { detail }) => {
                    assert!(
                        detail.contains(&format!("disk {cmd} for request 5{names}")),
                        "{detail}"
                    )
                }
                other => panic!("{cmd}: expected a protocol error, got {other:?}"),
            }
        }
    }
}
