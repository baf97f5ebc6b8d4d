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

/// What an I/O node did for one step of its schedule: the collective
/// window's actions that move a step's bytes (`panda_core::window::Action`),
/// a piece's reorganization copy, and the sync a step's write made due.
/// Declared here for the same reason as [`OpDir`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepAction {
    /// Write: a fetched piece arrived at its server.
    Fetch,
    /// Write: an assembled subchunk went to the file system.
    Write,
    /// Read: a subchunk came from the file system.
    Read,
    /// Read: a piece was pushed to its client.
    Scatter,
    /// A piece was copied on the driver: a write piece into its subchunk
    /// where it landed, or a read piece out of it just before its push.
    Reorg,
    /// Write: the disk task synced what the step's write made due under
    /// the request's `SyncPolicy` (the file system reports each file's
    /// flush as [`Event::FsSync`]).
    Sync,
}

impl StepAction {
    /// Stable lower-case name: a step's name in Chrome traces.
    pub fn name(self) -> &'static str {
        match self {
            StepAction::Fetch => "fetch",
            StepAction::Write => "write",
            StepAction::Read => "read",
            StepAction::Scatter => "push",
            StepAction::Reorg => "reorg",
            StepAction::Sync => "sync",
        }
    }

    /// The phase a step's duration belongs to: a fetch's wait is the
    /// exchange, a disk call the disk, a copy reorganization; a push
    /// carries no duration, and a sync's is the file system's to report.
    pub fn phase(self) -> Option<Phase> {
        match self {
            StepAction::Fetch => Some(Phase::Exchange),
            StepAction::Write | StepAction::Read => Some(Phase::Disk),
            StepAction::Reorg => Some(Phase::Reorg),
            StepAction::Scatter | StepAction::Sync => None,
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
    /// An I/O node did one thing for one step of its schedule: a fetched
    /// piece arrived, a subchunk was written or read, a piece was pushed,
    /// a piece was copied, the step's write was synced. The one record
    /// of what a step did; its phase is its action's
    /// ([`StepAction::phase`]).
    Step {
        /// Which subchunk.
        key: SubchunkKey,
        /// `step << 32 | piece`, as the piece's `Fetch` or `Data` names
        /// it on the wire (piece 0 for a disk step or a sync). The window
        /// fetches and pushes in schedule order, so sorted by `seq` a
        /// server's fetches or pushes are in the order they were issued.
        seq: u64,
        /// What the step did.
        action: StepAction,
        /// Payload bytes (the bytes copied, for a reorganization; zero
        /// for a sync).
        bytes: u64,
        /// Client rank the piece came from or went to (`None` for a
        /// disk step, a copy or a sync).
        peer: Option<u32>,
        /// [`StepAction::Fetch`]: the time the server was blocked
        /// waiting for the piece; [`StepAction::Write`] and
        /// [`StepAction::Read`]: the file-system call;
        /// [`StepAction::Reorg`]: the copy; [`StepAction::Sync`]: the
        /// syncs; [`StepAction::Scatter`]: zero. The event is stamped at
        /// the end, so a disk step's start is when the disk began it.
        dur: Duration,
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
    /// A file-system backend served a positioned write. On the real-file
    /// backends `dur` covers the `pwrite` and the writeback hint that
    /// follows one of 64 KiB or more — the time until the bytes are
    /// queued to the device — so a congested device queue is charged to
    /// the write that met it.
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
pub const KIND_COUNT: usize = 14;

/// Fieldless mirror of [`Event`], used to index per-kind counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// See [`Event::RequestIssued`].
    RequestIssued,
    /// See [`Event::SubchunkPlanned`].
    SubchunkPlanned,
    /// See [`Event::Step`].
    Step,
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
        EventKind::Step,
        EventKind::CollectiveDone,
        EventKind::ClientPacked,
        EventKind::ClientUnpacked,
        EventKind::MsgSent,
        EventKind::MsgReceived,
        EventKind::FsRead,
        EventKind::FsWrite,
        EventKind::FsSync,
        EventKind::ThrottleSleep,
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
            EventKind::Step => "step",
            EventKind::CollectiveDone => "collective_done",
            EventKind::ClientPacked => "client_packed",
            EventKind::ClientUnpacked => "client_unpacked",
            EventKind::MsgSent => "msg_sent",
            EventKind::MsgReceived => "msg_received",
            EventKind::FsRead => "fs_read",
            EventKind::FsWrite => "fs_write",
            EventKind::FsSync => "fs_sync",
            EventKind::ThrottleSleep => "throttle_sleep",
            EventKind::AdmissionReject => "admission_reject",
            EventKind::RequestError => "request_error",
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
            Event::Step { .. } => EventKind::Step,
            Event::CollectiveDone { .. } => EventKind::CollectiveDone,
            Event::ClientPacked { .. } => EventKind::ClientPacked,
            Event::ClientUnpacked { .. } => EventKind::ClientUnpacked,
            Event::MsgSent { .. } => EventKind::MsgSent,
            Event::MsgReceived { .. } => EventKind::MsgReceived,
            Event::FsRead { .. } => EventKind::FsRead,
            Event::FsWrite { .. } => EventKind::FsWrite,
            Event::FsSync { .. } => EventKind::FsSync,
            Event::ThrottleSleep { .. } => EventKind::ThrottleSleep,
            Event::AdmissionReject { .. } => EventKind::AdmissionReject,
            Event::RequestError { .. } => EventKind::RequestError,
        }
    }

    /// The bucket this event's duration contributes to in the
    /// paper-style phase decomposition, if any: a step's is its
    /// action's, a client's copies are reorganization. Phase sums use only
    /// this, so the same duration is never counted in two phases.
    pub fn phase(&self) -> Option<Phase> {
        match self {
            Event::Step { action, .. } => action.phase(),
            Event::ClientPacked { .. } | Event::ClientUnpacked { .. } => Some(Phase::Reorg),
            Event::ThrottleSleep { .. } => Some(Phase::Throttle),
            Event::MsgReceived { .. } => Some(Phase::RecvWait),
            _ => None,
        }
    }

    /// The subchunk this event belongs to, if it is keyed.
    pub fn key(&self) -> Option<SubchunkKey> {
        match self {
            Event::SubchunkPlanned { key, .. } | Event::Step { key, .. } => Some(*key),
            _ => None,
        }
    }

    /// Bytes the event accounts for (zero when not byte-carrying).
    pub fn bytes(&self) -> u64 {
        match self {
            Event::SubchunkPlanned { bytes, .. }
            | Event::Step { bytes, .. }
            | Event::ClientPacked { bytes, .. }
            | Event::ClientUnpacked { bytes, .. }
            | Event::MsgSent { bytes, .. }
            | Event::MsgReceived { bytes, .. }
            | Event::FsRead { bytes, .. }
            | Event::FsWrite { bytes, .. }
            | Event::ThrottleSleep { bytes, .. } => *bytes,
            _ => 0,
        }
    }

    /// The duration the event carries, if any.
    pub fn dur(&self) -> Option<Duration> {
        match self {
            Event::MsgReceived { wait, .. } => Some(*wait),
            Event::Step { dur, .. }
            | Event::CollectiveDone { dur, .. }
            | Event::ClientPacked { dur, .. }
            | Event::ClientUnpacked { dur, .. }
            | Event::MsgSent { dur, .. }
            | Event::FsRead { dur, .. }
            | Event::FsWrite { dur, .. }
            | Event::FsSync { dur, .. }
            | Event::ThrottleSleep { dur, .. } => Some(*dur),
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

    /// The peer rank involved (a step's client, message source or
    /// destination), if any.
    pub fn peer(&self) -> Option<u32> {
        match self {
            Event::Step { peer, .. } => *peer,
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
            | Event::FsSync { file, .. } => Some(file),
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
        let e = Event::Step {
            key,
            seq: 7 << 32 | 2,
            action: StepAction::Fetch,
            bytes: 64,
            peer: Some(3),
            dur: Duration::from_millis(3),
        };
        assert_eq!(e.kind(), EventKind::Step);
        assert_eq!(e.key(), Some(key));
        assert_eq!(e.bytes(), 64);
        assert_eq!(e.dur(), Some(Duration::from_millis(3)));
        assert_eq!(e.peer(), Some(3));
        assert_eq!(e.phase(), Some(Phase::Exchange));
        assert_eq!(e.request(), None, "request id 0 reads as unscoped");

        let scoped = SubchunkKey::scoped(9, 1, 0, 7);
        let e = Event::SubchunkPlanned {
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
        assert_eq!(e.phase(), None, "the fs layer is reported, not summed");

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
    fn each_action_feeds_at_most_one_phase() {
        // `phase()` returning at most one bucket per action is what
        // keeps the decomposition additive: exchange is the driver's
        // blocked wait, disk the disk task's call, reorganization the
        // driver's copy; a push only sends, and a sync's time is the file
        // system's `FsSync`.
        use StepAction::*;
        let actions = [Fetch, Write, Read, Scatter, Reorg, Sync];
        let expected = [
            Some(Phase::Exchange),
            Some(Phase::Disk),
            Some(Phase::Disk),
            None,
            Some(Phase::Reorg),
            None,
        ];
        assert_eq!(actions.map(StepAction::phase), expected);
        assert_eq!(
            actions.map(StepAction::name),
            ["fetch", "write", "read", "push", "reorg", "sync"]
        );
    }
}
