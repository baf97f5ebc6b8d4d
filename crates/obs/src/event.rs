//! The typed event vocabulary shared by all Panda layers.

use std::time::Duration;

/// Identifies one subchunk of one array on one server: the unit the
/// paper's transfer schedule (and our pipeline window) operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubchunkKey {
    /// Request id of the collective the subchunk belongs to (0 when the
    /// run predates request scoping or scoping is not needed). Ordered
    /// first so sorted reports group concurrent requests apart.
    pub request: u64,
    /// Server index (0-based among the I/O nodes).
    pub server: u32,
    /// Array index within the collective request.
    pub array: u32,
    /// Subchunk index in file order on this server.
    pub subchunk: u32,
}

impl SubchunkKey {
    /// Construct an unscoped key (request id 0).
    pub fn new(server: usize, array: u32, subchunk: usize) -> Self {
        Self::scoped(0, server, array, subchunk)
    }

    /// Construct a key scoped to one collective request.
    pub fn scoped(request: u64, server: usize, array: u32, subchunk: usize) -> Self {
        SubchunkKey {
            request,
            server: server as u32,
            array,
            subchunk: subchunk as u32,
        }
    }
}

/// Direction of a collective operation. Declared here because this
/// crate depends on nothing; `panda_core` re-exports it as `OpKind`, so
/// requests, events and reports share the one type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpDir {
    /// Compute-node memory → disk.
    Write,
    /// Disk → compute-node memory.
    Read,
}

impl OpDir {
    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            OpDir::Write => "write",
            OpDir::Read => "read",
        }
    }
}

/// One instrumentation event. Events are *completions*: where a duration
/// is meaningful the emitting layer measures it and reports it here; the
/// recorder stamps the end time. Durations are measured only when the
/// recorder is enabled, so a [`crate::NullRecorder`] run never reads the
/// clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event<'a> {
    /// A server accepted a collective request (master relays included).
    RequestIssued {
        /// Request id of the collective (0 when unscoped).
        request: u64,
        /// Write or read.
        op: OpDir,
        /// Number of arrays in the request.
        arrays: u32,
        /// Requested pipeline depth.
        pipeline_depth: u32,
    },
    /// The server planner produced one subchunk of the schedule.
    SubchunkPlanned {
        /// Which subchunk.
        key: SubchunkKey,
        /// Its size in bytes.
        bytes: u64,
    },
    /// Write path: a `Fetch` for one piece of a subchunk left a server.
    FetchSent {
        /// Which subchunk.
        key: SubchunkKey,
        /// Piece index within the subchunk.
        piece: u32,
        /// Client rank the piece was requested from.
        client: u32,
    },
    /// Write path: a piece arrived back at the server. `wait` is the
    /// time the server spent blocked waiting for it — the per-subchunk
    /// *exchange* phase of the paper's decomposition.
    FetchReplied {
        /// Which subchunk.
        key: SubchunkKey,
        /// Payload bytes.
        bytes: u64,
        /// Time blocked in the receive.
        wait: Duration,
    },
    /// Write direction: a completed subchunk was queued for the
    /// engine's pinned disk stage.
    DiskWriteQueued {
        /// Which subchunk.
        key: SubchunkKey,
        /// Subchunk size.
        bytes: u64,
    },
    /// Read direction: the engine's pinned disk stage prefetched a
    /// subchunk and queued it for reorganization — the mirror of
    /// [`Event::DiskWriteQueued`].
    DiskReadQueued {
        /// Which subchunk.
        key: SubchunkKey,
        /// Subchunk size.
        bytes: u64,
    },
    /// A subchunk hit the disk — the *disk* phase (write side).
    DiskWriteDone {
        /// Which subchunk.
        key: SubchunkKey,
        /// File offset written.
        offset: u64,
        /// Bytes written.
        bytes: u64,
        /// Wall time of the `write_at` call.
        dur: Duration,
    },
    /// A subchunk was read from disk — the *disk* phase (read side).
    DiskReadDone {
        /// Which subchunk.
        key: SubchunkKey,
        /// File offset read.
        offset: u64,
        /// Bytes read.
        bytes: u64,
        /// Wall time of the `read_at` call.
        dur: Duration,
    },
    /// Read path: a packed piece was pushed to its owning client.
    PushSent {
        /// Which subchunk.
        key: SubchunkKey,
        /// Piece index within the step's piece list (a section read's
        /// list holds only the pieces the section touches, clipped).
        piece: u32,
        /// Client rank the piece was pushed to.
        client: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// A node finished its share of a collective operation.
    CollectiveDone {
        /// Request id of the collective (0 when unscoped).
        request: u64,
        /// Write or read.
        op: OpDir,
        /// Wall time of the node's participation.
        dur: Duration,
    },
    /// A client packed a requested region for a `Fetch` reply.
    ClientPacked {
        /// Request id of the collective (0 when unscoped).
        request: u64,
        /// Array index within the collective request.
        array: u32,
        /// The fetch sequence number being answered.
        seq: u64,
        /// Bytes packed.
        bytes: u64,
        /// Copy time.
        dur: Duration,
    },
    /// A client unpacked a delivered region into its buffer.
    ClientUnpacked {
        /// Request id of the collective (0 when unscoped).
        request: u64,
        /// Array index within the collective request.
        array: u32,
        /// The piece's sequence number.
        seq: u64,
        /// Bytes unpacked.
        bytes: u64,
        /// Copy time.
        dur: Duration,
    },
    /// The transport sent a message.
    MsgSent {
        /// Destination rank.
        to: u32,
        /// Message tag.
        tag: u32,
        /// Payload bytes.
        bytes: u64,
        /// Time spent in the send call (zero for buffered sends or when
        /// timing is disabled).
        dur: Duration,
    },
    /// The transport delivered a message to a receiver.
    MsgReceived {
        /// Source rank.
        from: u32,
        /// Message tag.
        tag: u32,
        /// Payload bytes.
        bytes: u64,
        /// Time the receiver spent blocked (zero when timing is
        /// disabled or the message was already buffered).
        wait: Duration,
    },
    /// A file-system backend served a positioned read.
    FsRead {
        /// File name within the backend.
        file: &'a str,
        /// Byte offset.
        offset: u64,
        /// Bytes read.
        bytes: u64,
        /// Whether the access continued the previous one on its handle.
        sequential: bool,
        /// Device time of the call (zero when timing is disabled).
        dur: Duration,
    },
    /// A file-system backend served a positioned write. On a `SubmitFs`
    /// completion thread `dur` covers the `pwrite` and the writeback
    /// hint that follows it — the time until the bytes are queued to the
    /// device — so a congested device queue is charged to the write that
    /// met it.
    FsWrite {
        /// File name within the backend.
        file: &'a str,
        /// Byte offset.
        offset: u64,
        /// Bytes written.
        bytes: u64,
        /// Whether the access continued the previous one on its handle.
        sequential: bool,
        /// Device time of the call (zero when timing is disabled).
        dur: Duration,
    },
    /// A file-system backend flushed a file to stable storage.
    FsSync {
        /// File name within the backend.
        file: &'a str,
        /// Device time of the call (zero when timing is disabled).
        dur: Duration,
    },
    /// A `ThrottledFs` slept to simulate device time — lets throttled
    /// benchmarks separate simulated device time from real work.
    ThrottleSleep {
        /// Bytes the simulated transfer covered.
        bytes: u64,
        /// True for the write direction.
        write: bool,
        /// Time actually slept.
        dur: Duration,
    },
    /// A master client submitted a collective request: one schedule
    /// covering the whole array group (a single array is a group of
    /// one — the request, not the array, is the unit of scheduling).
    GroupSubmit {
        /// Write or read.
        op: OpDir,
        /// Number of arrays batched into the request.
        arrays: u32,
        /// Requested pipeline depth.
        pipeline_depth: u32,
    },
    /// The schedule engine's reorganization stage moved one piece of a
    /// subchunk (assembly on the write direction, packing on the read
    /// direction) — jobs are issued to the server's worker pool.
    ReorgWorker {
        /// Which subchunk.
        key: SubchunkKey,
        /// Piece index within the step's piece list (as in
        /// [`Event::PushSent`]: a section read's trimmed list).
        piece: u32,
        /// Bytes moved.
        bytes: u64,
        /// Copy time.
        dur: Duration,
    },
    /// A write was queued on a submission-queue backend (`SubmitFs`):
    /// ownership of the buffer moved to the backend; the matching
    /// [`Event::FsWrite`] (and [`Event::FsComplete`]) fire when a
    /// completion thread lands it — after its writeback hint, so
    /// `FsComplete.queued` ends when the bytes are queued to the device.
    FsSubmit {
        /// File name within the backend.
        file: &'a str,
        /// Byte offset.
        offset: u64,
        /// Bytes queued.
        bytes: u64,
    },
    /// A submitted write completed on a completion thread. `queued` is
    /// the submit→completion latency — the depth of the device queue in
    /// time, the submission-side mirror of [`Event::FsWrite`]'s device
    /// time.
    FsComplete {
        /// File name within the backend.
        file: &'a str,
        /// Byte offset.
        offset: u64,
        /// Bytes written.
        bytes: u64,
        /// Time from submission to completion.
        queued: Duration,
    },
    /// The collective disk stage retired a sync barrier: `files` files
    /// were flushed under the request's `SyncPolicy` (1 for per-write
    /// and per-file barriers, the whole schedule for per-collective).
    DiskSyncDone {
        /// Files covered by this barrier.
        files: u32,
        /// Wall time of the barrier (completion drain + fsync).
        dur: Duration,
    },
    /// The master server refused to admit a collective request
    /// (surfaced to the submitter as `PandaError::Admission`). The
    /// flight recorder treats this as an incident trigger.
    AdmissionReject {
        /// The rejected request's id.
        request: u64,
        /// Requests waiting in the admission queue at rejection time.
        queued: u32,
        /// Collectives live on the server at rejection time.
        live: u32,
    },
    /// A collective failed on the submitting client with a
    /// non-admission error (protocol, transport, file system). The
    /// flight recorder treats this as an incident trigger.
    RequestError {
        /// The failed request's id (0 when unknown).
        request: u64,
        /// Short human-readable failure description.
        detail: &'a str,
    },
}

/// Number of event kinds (array dimension for per-kind counters).
pub const KIND_COUNT: usize = 25;

/// Fieldless mirror of [`Event`], used to index per-kind counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// See [`Event::RequestIssued`].
    RequestIssued,
    /// See [`Event::SubchunkPlanned`].
    SubchunkPlanned,
    /// See [`Event::FetchSent`].
    FetchSent,
    /// See [`Event::FetchReplied`].
    FetchReplied,
    /// See [`Event::DiskWriteQueued`].
    DiskWriteQueued,
    /// See [`Event::DiskWriteDone`].
    DiskWriteDone,
    /// See [`Event::DiskReadQueued`].
    DiskReadQueued,
    /// See [`Event::DiskReadDone`].
    DiskReadDone,
    /// See [`Event::PushSent`].
    PushSent,
    /// See [`Event::CollectiveDone`].
    CollectiveDone,
    /// See [`Event::ClientPacked`].
    ClientPacked,
    /// See [`Event::ClientUnpacked`].
    ClientUnpacked,
    /// See [`Event::MsgSent`].
    MsgSent,
    /// See [`Event::MsgReceived`].
    MsgReceived,
    /// See [`Event::FsRead`].
    FsRead,
    /// See [`Event::FsWrite`].
    FsWrite,
    /// See [`Event::FsSync`].
    FsSync,
    /// See [`Event::ThrottleSleep`].
    ThrottleSleep,
    /// See [`Event::GroupSubmit`].
    GroupSubmit,
    /// See [`Event::ReorgWorker`].
    ReorgWorker,
    /// See [`Event::FsSubmit`].
    FsSubmit,
    /// See [`Event::FsComplete`].
    FsComplete,
    /// See [`Event::DiskSyncDone`].
    DiskSyncDone,
    /// See [`Event::AdmissionReject`].
    AdmissionReject,
    /// See [`Event::RequestError`].
    RequestError,
}

impl EventKind {
    /// Every kind, in counter-index order.
    pub const ALL: [EventKind; KIND_COUNT] = [
        EventKind::RequestIssued,
        EventKind::SubchunkPlanned,
        EventKind::FetchSent,
        EventKind::FetchReplied,
        EventKind::DiskWriteQueued,
        EventKind::DiskWriteDone,
        EventKind::DiskReadQueued,
        EventKind::DiskReadDone,
        EventKind::PushSent,
        EventKind::CollectiveDone,
        EventKind::ClientPacked,
        EventKind::ClientUnpacked,
        EventKind::MsgSent,
        EventKind::MsgReceived,
        EventKind::FsRead,
        EventKind::FsWrite,
        EventKind::FsSync,
        EventKind::ThrottleSleep,
        EventKind::GroupSubmit,
        EventKind::ReorgWorker,
        EventKind::FsSubmit,
        EventKind::FsComplete,
        EventKind::DiskSyncDone,
        EventKind::AdmissionReject,
        EventKind::RequestError,
    ];

    /// Counter index of this kind.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, used as the JSON key in reports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RequestIssued => "request_issued",
            EventKind::SubchunkPlanned => "subchunk_planned",
            EventKind::FetchSent => "fetch_sent",
            EventKind::FetchReplied => "fetch_replied",
            EventKind::DiskWriteQueued => "disk_write_queued",
            EventKind::DiskWriteDone => "disk_write_done",
            EventKind::DiskReadQueued => "disk_read_queued",
            EventKind::DiskReadDone => "disk_read_done",
            EventKind::PushSent => "push_sent",
            EventKind::CollectiveDone => "collective_done",
            EventKind::ClientPacked => "client_packed",
            EventKind::ClientUnpacked => "client_unpacked",
            EventKind::MsgSent => "msg_sent",
            EventKind::MsgReceived => "msg_received",
            EventKind::FsRead => "fs_read",
            EventKind::FsWrite => "fs_write",
            EventKind::FsSync => "fs_sync",
            EventKind::ThrottleSleep => "throttle_sleep",
            EventKind::GroupSubmit => "group_submit",
            EventKind::ReorgWorker => "reorg_worker",
            EventKind::FsSubmit => "fs_submit",
            EventKind::FsComplete => "fs_complete",
            EventKind::DiskSyncDone => "disk_sync_done",
            EventKind::AdmissionReject => "admission_reject",
            EventKind::RequestError => "request_error",
        }
    }

    /// The bucket this kind contributes to in the paper-style phase
    /// decomposition, if any. Phase sums use only these kinds, so the
    /// same duration is never counted in two phases.
    pub fn phase(self) -> Option<Phase> {
        match self {
            EventKind::FetchReplied => Some(Phase::Exchange),
            EventKind::DiskWriteDone | EventKind::DiskReadDone => Some(Phase::Disk),
            EventKind::ClientPacked | EventKind::ClientUnpacked | EventKind::ReorgWorker => {
                Some(Phase::Reorg)
            }
            EventKind::ThrottleSleep => Some(Phase::Throttle),
            EventKind::MsgReceived => Some(Phase::RecvWait),
            _ => None,
        }
    }
}

/// Buckets of the paper's Figure 5/6-style time decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Server blocked waiting for client data (write-path gather).
    Exchange,
    /// Time inside positioned disk reads/writes on the collective path.
    Disk,
    /// Data reorganization: packing, scattering, unpacking copies.
    Reorg,
    /// Simulated device time injected by `ThrottledFs` (informational;
    /// a subset of wall time, largely overlapping [`Phase::Disk`]).
    Throttle,
    /// Transport-level blocking in receives, all tags (informational;
    /// overlaps [`Phase::Exchange`] on the write path).
    RecvWait,
}

impl Phase {
    /// Index into [`Phase::ALL`]-ordered per-phase arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label: the metric label value, and with an
    /// `_s` suffix the JSON key in reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Exchange => "exchange",
            Phase::Disk => "disk",
            Phase::Reorg => "reorg",
            Phase::Throttle => "throttle",
            Phase::RecvWait => "recv_wait",
        }
    }

    /// Every phase, in report order.
    pub const ALL: [Phase; 5] = [
        Phase::Exchange,
        Phase::Disk,
        Phase::Reorg,
        Phase::Throttle,
        Phase::RecvWait,
    ];
}

impl Event<'_> {
    /// This event's kind.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::RequestIssued { .. } => EventKind::RequestIssued,
            Event::SubchunkPlanned { .. } => EventKind::SubchunkPlanned,
            Event::FetchSent { .. } => EventKind::FetchSent,
            Event::FetchReplied { .. } => EventKind::FetchReplied,
            Event::DiskWriteQueued { .. } => EventKind::DiskWriteQueued,
            Event::DiskWriteDone { .. } => EventKind::DiskWriteDone,
            Event::DiskReadQueued { .. } => EventKind::DiskReadQueued,
            Event::DiskReadDone { .. } => EventKind::DiskReadDone,
            Event::PushSent { .. } => EventKind::PushSent,
            Event::CollectiveDone { .. } => EventKind::CollectiveDone,
            Event::ClientPacked { .. } => EventKind::ClientPacked,
            Event::ClientUnpacked { .. } => EventKind::ClientUnpacked,
            Event::MsgSent { .. } => EventKind::MsgSent,
            Event::MsgReceived { .. } => EventKind::MsgReceived,
            Event::FsRead { .. } => EventKind::FsRead,
            Event::FsWrite { .. } => EventKind::FsWrite,
            Event::FsSync { .. } => EventKind::FsSync,
            Event::ThrottleSleep { .. } => EventKind::ThrottleSleep,
            Event::GroupSubmit { .. } => EventKind::GroupSubmit,
            Event::ReorgWorker { .. } => EventKind::ReorgWorker,
            Event::FsSubmit { .. } => EventKind::FsSubmit,
            Event::FsComplete { .. } => EventKind::FsComplete,
            Event::DiskSyncDone { .. } => EventKind::DiskSyncDone,
            Event::AdmissionReject { .. } => EventKind::AdmissionReject,
            Event::RequestError { .. } => EventKind::RequestError,
        }
    }

    /// The subchunk this event belongs to, if it is keyed.
    pub fn key(&self) -> Option<SubchunkKey> {
        match self {
            Event::SubchunkPlanned { key, .. }
            | Event::FetchSent { key, .. }
            | Event::FetchReplied { key, .. }
            | Event::DiskWriteQueued { key, .. }
            | Event::DiskWriteDone { key, .. }
            | Event::DiskReadQueued { key, .. }
            | Event::DiskReadDone { key, .. }
            | Event::PushSent { key, .. }
            | Event::ReorgWorker { key, .. } => Some(*key),
            _ => None,
        }
    }

    /// Bytes the event accounts for (zero when not byte-carrying).
    pub fn bytes(&self) -> u64 {
        match self {
            Event::SubchunkPlanned { bytes, .. }
            | Event::FetchReplied { bytes, .. }
            | Event::DiskWriteQueued { bytes, .. }
            | Event::DiskWriteDone { bytes, .. }
            | Event::DiskReadQueued { bytes, .. }
            | Event::DiskReadDone { bytes, .. }
            | Event::PushSent { bytes, .. }
            | Event::ClientPacked { bytes, .. }
            | Event::ClientUnpacked { bytes, .. }
            | Event::MsgSent { bytes, .. }
            | Event::MsgReceived { bytes, .. }
            | Event::FsRead { bytes, .. }
            | Event::FsWrite { bytes, .. }
            | Event::ThrottleSleep { bytes, .. }
            | Event::ReorgWorker { bytes, .. }
            | Event::FsSubmit { bytes, .. }
            | Event::FsComplete { bytes, .. } => *bytes,
            _ => 0,
        }
    }

    /// The duration the event carries, if any.
    pub fn dur(&self) -> Option<Duration> {
        match self {
            Event::FetchReplied { wait, .. } | Event::MsgReceived { wait, .. } => Some(*wait),
            Event::DiskWriteDone { dur, .. }
            | Event::DiskReadDone { dur, .. }
            | Event::CollectiveDone { dur, .. }
            | Event::ClientPacked { dur, .. }
            | Event::ClientUnpacked { dur, .. }
            | Event::MsgSent { dur, .. }
            | Event::FsRead { dur, .. }
            | Event::FsWrite { dur, .. }
            | Event::FsSync { dur, .. }
            | Event::ThrottleSleep { dur, .. }
            | Event::ReorgWorker { dur, .. }
            | Event::DiskSyncDone { dur, .. } => Some(*dur),
            Event::FsComplete { queued, .. } => Some(*queued),
            _ => None,
        }
    }

    /// The collective request this event belongs to, when it is scoped
    /// to one: keyed events carry the request in their key; the
    /// request-lifecycle and client copy events carry it directly. A
    /// recorded id of 0 means "unscoped" and is reported as `None`.
    pub fn request(&self) -> Option<u64> {
        let id = match self {
            Event::RequestIssued { request, .. }
            | Event::CollectiveDone { request, .. }
            | Event::ClientPacked { request, .. }
            | Event::ClientUnpacked { request, .. }
            | Event::AdmissionReject { request, .. }
            | Event::RequestError { request, .. } => *request,
            _ => self.key().map(|k| k.request).unwrap_or(0),
        };
        (id != 0).then_some(id)
    }

    /// Sequential-or-seek classification for file-system accesses.
    pub fn sequential(&self) -> Option<bool> {
        match self {
            Event::FsRead { sequential, .. } | Event::FsWrite { sequential, .. } => {
                Some(*sequential)
            }
            _ => None,
        }
    }

    /// Message tag for transport events.
    pub fn tag(&self) -> Option<u32> {
        match self {
            Event::MsgSent { tag, .. } | Event::MsgReceived { tag, .. } => Some(*tag),
            _ => None,
        }
    }

    /// The peer rank involved (fetch/push client, message source or
    /// destination), if any.
    pub fn peer(&self) -> Option<u32> {
        match self {
            Event::FetchSent { client, .. } | Event::PushSent { client, .. } => Some(*client),
            Event::MsgSent { to, .. } => Some(*to),
            Event::MsgReceived { from, .. } => Some(*from),
            _ => None,
        }
    }

    /// The file name label for file-system events.
    pub fn label(&self) -> Option<&str> {
        match self {
            Event::FsRead { file, .. }
            | Event::FsWrite { file, .. }
            | Event::FsSync { file, .. }
            | Event::FsSubmit { file, .. }
            | Event::FsComplete { file, .. } => Some(file),
            Event::RequestError { detail, .. } => Some(detail),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_match_all_order() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KIND_COUNT);
        for n in names {
            assert!(n
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }
    }

    #[test]
    fn accessors_cover_the_collective_path() {
        let key = SubchunkKey::new(1, 0, 7);
        let e = Event::FetchReplied {
            key,
            bytes: 64,
            wait: Duration::from_millis(3),
        };
        assert_eq!(e.kind(), EventKind::FetchReplied);
        assert_eq!(e.key(), Some(key));
        assert_eq!(e.bytes(), 64);
        assert_eq!(e.dur(), Some(Duration::from_millis(3)));
        assert_eq!(e.kind().phase(), Some(Phase::Exchange));
        assert_eq!(e.request(), None, "request id 0 reads as unscoped");

        let scoped = SubchunkKey::scoped(9, 1, 0, 7);
        let e = Event::DiskWriteQueued {
            key: scoped,
            bytes: 64,
        };
        assert_eq!(e.request(), Some(9));
        assert!(scoped > key, "request orders first in sorted reports");

        let e = Event::FsWrite {
            file: "a.s0",
            offset: 0,
            bytes: 10,
            sequential: true,
            dur: Duration::ZERO,
        };
        assert_eq!(e.sequential(), Some(true));
        assert_eq!(e.label(), Some("a.s0"));
        assert_eq!(e.kind().phase(), None);

        let e = Event::MsgSent {
            to: 2,
            tag: 3,
            bytes: 5,
            dur: Duration::ZERO,
        };
        assert_eq!(e.tag(), Some(3));
        assert_eq!(e.peer(), Some(2));
    }

    #[test]
    fn phases_are_disjoint_over_kinds() {
        // No kind may feed two phases; `phase()` returning at most one
        // bucket per kind is what keeps the decomposition additive.
        for kind in EventKind::ALL {
            let _ = kind.phase(); // compiles exhaustively; no panic
        }
        assert_eq!(EventKind::DiskWriteDone.phase(), Some(Phase::Disk));
        assert_eq!(
            EventKind::FsWrite.phase(),
            None,
            "fs layer is reported, not summed"
        );
    }
}
