//! The Panda client: the compute-node side of a collective operation.
//!
//! Under server-directed I/O the client is almost passive (paper §2):
//! the submitter sends one short high-level request describing the
//! schemas, then every participating client simply *serves* the servers
//! — packing requested regions on writes, scattering delivered regions
//! on reads — until every server has said it is done. "Note the clients
//! and servers play a different role than in traditional client/server
//! architectures where the clients make requests of the server."
//!
//! A collective is submitted in one of two modes. **Fleet** mode is the
//! paper's SPMD model: every compute node calls the same operation, the
//! master client (rank 0) submits one request naming all of them as
//! participants, and each server tells every participant when its share
//! is complete. **Session** mode is the multi-tenant service
//! model: one client is the sole participant of its own request, many
//! such requests run concurrently on the shared servers, and each
//! message carries its request id so the flows never blend. The request
//! id is minted here as `(rank + 1) << 32 | counter` — unique across
//! submitters without coordination.
//!
//! A collective whose bytes here total less than a free-list piece
//! (`panda_msg::freelist::PIECE_MIN_BYTES`, `freelist::is_small`) is
//! small. A small session write is submitted as a [`Msg::OneShot`]:
//! the chunks ride behind the request, no server fetches anything, and
//! the client only waits for each server's `Complete` — which attests
//! zero pieces, and is held to that. And once a small session
//! collective is underway (a server has answered), the client waits for
//! each next message as an I/O node waits for a small run's hand-off:
//! it polls for a bounded time (`handoff::poll_handoff`) before it
//! parks, since the other servers' answers are already in flight. Until
//! the first answer, for a bulk collective and in a fleet, it parks at
//! once.
//!
//! [`PandaClient`] is a driver and counts nothing: what a participant
//! decides — which collective a message belongs to (and which to keep,
//! and take first, for the next), whether each server's `Complete`
//! attests what arrived, whether a `Reject` answers this submission — is
//! one pure machine, `participant::Participant`, which lives across this
//! client's collectives and which the mesh drives too. The client keeps
//! only the bytes: through `participant::Serve` it packs and sends a
//! fetched piece, unpacks a delivered one and credits it when awaited,
//! records its events, and makes a `Reject` an admission error.

use std::sync::Arc;
use std::time::Instant;

use panda_fs::SyncPolicy;
use panda_msg::{freelist, Bytes, MatchSpec, NodeId, Transport};
use panda_obs::{Event, Recorder};
use panda_schema::{copy, Region, SchemaError};

use crate::array::ArrayMeta;
use crate::error::PandaError;
use crate::handoff::poll_handoff;
use crate::participant::{Arrival, End, Participant, Refusal, Serve};
use crate::request::{ReadSet, WriteSet};
use crate::tuned::TunedConfig;

use crate::protocol::{
    recv_msg, request_id, send_data, send_msg, send_request, try_recv_msg, ArrayOp,
    CollectiveRequest, Msg, OpKind,
};

/// How a collective request enters the system.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SubmitMode {
    /// The paper's SPMD model: all compute nodes participate, rank 0
    /// submits.
    Fleet,
    /// Service model: this client alone participates.
    Session,
}

/// One array's side of the exchange, as the serve loop sees it: the
/// variant is the collective's direction.
enum XferBuf<'a> {
    /// Write direction: the client's chunk, packed on demand for each
    /// `Fetch`.
    Src(&'a [u8]),
    /// Read direction: the client's receive buffer, scattered into for
    /// each `Data`.
    Dst(&'a mut [u8]),
}

/// Per-array state for [`PandaClient::serve_collective`].
struct XferArray<'a> {
    meta: &'a ArrayMeta,
    /// The array's file tag.
    tag: &'a str,
    /// The section read, if not the whole array.
    section: Option<&'a Region>,
    /// The memory region the buffer covers (my chunk, or its
    /// intersection with the requested section).
    region: Region,
    buf: XferBuf<'a>,
}

/// A compute node's handle to Panda. One per client thread.
pub struct PandaClient {
    transport: Box<dyn Transport>,
    rank: usize,
    num_clients: usize,
    num_servers: usize,
    subchunk_bytes: usize,
    pipeline_depth: usize,
    sync_policy: SyncPolicy,
    /// Requests minted by this client so far (the low half of the id).
    req_counter: u64,
    /// The id of the last request this client submitted.
    last_request: Option<u64>,
    /// Session recorder; events are tagged with this client's rank.
    recorder: Arc<dyn Recorder>,
    /// This node's side of its collectives, and the messages of the
    /// fleet's next one that arrived before the current one ended here.
    part: Participant<Msg>,
}

impl PandaClient {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        transport: Box<dyn Transport>,
        rank: usize,
        num_clients: usize,
        num_servers: usize,
        subchunk_bytes: usize,
        pipeline_depth: usize,
        sync_policy: SyncPolicy,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        PandaClient {
            transport,
            rank,
            num_clients,
            num_servers,
            subchunk_bytes,
            pipeline_depth,
            sync_policy,
            req_counter: 0,
            last_request: None,
            recorder,
            part: Participant::new(num_servers),
        }
    }

    /// Whether instrumentation (and therefore clock reads) is on.
    fn obs_on(&self) -> bool {
        self.recorder.enabled()
    }

    /// Record one event under this client's rank, if recording is on.
    fn emit(&self, event: &Event<'_>) {
        if self.recorder.enabled() {
            self.recorder.record(self.rank as u32, event);
        }
    }

    /// This client's rank (0-based compute-node index).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of compute nodes.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Number of I/O nodes.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// The subchunk subdivision cap for this session.
    pub fn subchunk_bytes(&self) -> usize {
        self.subchunk_bytes
    }

    /// The server pipeline depth requested for this session's
    /// collectives (1 = unpipelined).
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline_depth
    }

    /// The disk-stage sync policy requested for this session's
    /// collectives.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync_policy
    }

    /// True iff this is the master client (rank 0), which submits the
    /// fleet's requests and exchanges the control messages with the
    /// master server.
    pub fn is_master(&self) -> bool {
        self.rank == 0
    }

    /// The id of the most recent request this client submitted, for
    /// correlating with request-scoped observability
    /// ([`panda_obs::RunReport::for_request`]). `None` until this
    /// client has submitted one (fleet non-masters never do).
    pub fn last_request_id(&self) -> Option<u64> {
        self.last_request
    }

    /// The deployment's observability recorder (every node shares one).
    /// Calibration passes scope it per request via
    /// [`panda_obs::RunReport::for_request`].
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    pub(crate) fn transport_mut(&mut self) -> &mut dyn Transport {
        &mut *self.transport
    }

    /// Raw access to the underlying transport. Exposed for failure-
    /// injection tests and protocol tooling; applications should use the
    /// collective operations instead.
    #[doc(hidden)]
    pub fn transport_mut_for_tests(&mut self) -> &mut dyn Transport {
        &mut *self.transport
    }

    /// The mesh-local chunk index this submission packs/scatters with:
    /// the fabric rank in fleet mode, chunk 0 in session mode (a
    /// session's arrays live on a 1-node memory mesh).
    fn mesh_rank(&self, mode: SubmitMode) -> usize {
        match mode {
            SubmitMode::Fleet => self.rank,
            SubmitMode::Session => 0,
        }
    }

    /// Collective write of a prepared [`WriteSet`]: every compute node
    /// calls this with its chunk of each array. Blocks until the whole
    /// collective completes on every node.
    pub fn write_set(&mut self, set: &WriteSet<'_>) -> Result<(), PandaError> {
        self.write_set_mode(set, SubmitMode::Fleet)
    }

    pub(crate) fn write_set_mode(
        &mut self,
        set: &WriteSet<'_>,
        mode: SubmitMode,
    ) -> Result<(), PandaError> {
        let mesh = self.mesh_rank(mode);
        let mut xfer: Vec<XferArray<'_>> = set
            .items
            .iter()
            .map(|i| XferArray {
                meta: i.meta,
                tag: &i.tag,
                section: None,
                region: i.meta.client_region(mesh),
                buf: XferBuf::Src(i.data),
            })
            .collect();
        let tuning = set.tuning.as_ref();
        self.collective(OpKind::Write, &mut xfer, mode, tuning)
    }

    /// Collective read of a prepared [`ReadSet`]: the mirror of
    /// [`PandaClient::write_set`]; each buffer is filled with this
    /// node's chunk (or its intersection with the entry's section).
    pub fn read_set(&mut self, set: &mut ReadSet<'_>) -> Result<(), PandaError> {
        self.read_set_mode(set, SubmitMode::Fleet)
    }

    pub(crate) fn read_set_mode(
        &mut self,
        set: &mut ReadSet<'_>,
        mode: SubmitMode,
    ) -> Result<(), PandaError> {
        let mesh = self.mesh_rank(mode);
        let mut xfer: Vec<XferArray<'_>> = set
            .items
            .iter_mut()
            .map(|i| {
                // Receive target: my chunk, or its part of the section.
                let region = match &i.section {
                    None => i.meta.client_region(mesh),
                    Some(s) => i.meta.client_section(mesh, s),
                };
                XferArray {
                    meta: i.meta,
                    tag: &i.tag,
                    section: i.section.as_ref(),
                    region,
                    buf: XferBuf::Dst(i.data),
                }
            })
            .collect();
        let tuning = set.tuning.as_ref();
        self.collective(OpKind::Read, &mut xfer, mode, tuning)
    }

    /// Either direction from here on: hold each buffer to the region it
    /// covers, submit the request (when this client submits for `mode`;
    /// a small session write as a one-shot), serve the collective to its
    /// end and report it — its
    /// `CollectiveDone`, or, for a failure, a `RequestError` (the flight
    /// recorder treats it as an incident trigger). Admission rejections
    /// are typed flow control with their own server-side event, so only
    /// genuine failures — protocol, transport, file system — report.
    fn collective(
        &mut self,
        op: OpKind,
        arrays: &mut [XferArray<'_>],
        mode: SubmitMode,
        tuning: Option<&TunedConfig>,
    ) -> Result<(), PandaError> {
        let mut bytes = 0;
        for x in arrays.iter() {
            let expected = x.region.num_bytes(x.meta.elem_size());
            let actual = match &x.buf {
                XferBuf::Src(data) => data.len(),
                XferBuf::Dst(data) => data.len(),
            };
            if actual != expected {
                let array = x.meta.name().to_string();
                return Err(PandaError::BadClientBuffer {
                    array,
                    expected,
                    actual,
                });
            }
            bytes += actual as u64;
        }
        // A small session collective is this client's alone and over in
        // microseconds. A write rides its own request: the servers cut
        // their pieces out of it and never fetch (shared, so the
        // master's in-process relay is a refcount).
        let small = matches!(mode, SubmitMode::Session) && freelist::is_small(bytes);
        let carried = (small && matches!(op, OpKind::Write)).then(|| {
            let chunks: Vec<&[u8]> = arrays
                .iter()
                .filter_map(|x| match x.buf {
                    XferBuf::Src(data) => Some(data),
                    XferBuf::Dst(_) => None,
                })
                .collect();
            Bytes::Shared(chunks.concat().into())
        });
        let t_op = self.obs_on().then(Instant::now);
        let want = self.start_collective(op, arrays, mode, tuning, carried)?;
        match self.serve_collective(arrays, want, small) {
            Ok(request) => {
                if let Some(t) = t_op {
                    let dur = t.elapsed();
                    self.emit(&Event::CollectiveDone { request, op, dur });
                }
                Ok(())
            }
            Err(err) => {
                if self.obs_on() && !matches!(err, PandaError::Admission { .. }) {
                    let detail = err.to_string();
                    let request = want.unwrap_or(0);
                    self.emit(&Event::RequestError {
                        request,
                        detail: &detail,
                    });
                }
                Err(err)
            }
        }
    }

    /// Buffer size this client must supply for a section read: the
    /// bytes of `client_region ∩ section` (zero when disjoint).
    pub fn section_bytes(&self, meta: &ArrayMeta, section: &Region) -> usize {
        meta.client_section(self.rank, section)
            .num_bytes(meta.elem_size())
    }

    /// The one client-side exchange loop: serve the servers until each
    /// of them has sent its `Complete`, for either direction. The
    /// [`Participant`] decides what each message is to this collective
    /// (served, counted, or kept for the next, whose messages it takes
    /// first when this call begins) and when the collective is over;
    /// [`Serving`] does the bytes. `want` is the submitted request's id
    /// when this client is the submitter; `None` for fleet non-masters,
    /// which learn the id from the first message.
    ///
    /// The loop blocks for each message, except in a `small` session
    /// collective (its bytes here below the one size line,
    /// `freelist::is_small`) once it is underway: a server has answered,
    /// so the others' answers are microseconds away, and the client
    /// polls for each next message through `poll_handoff`, the bounded
    /// poll an I/O node's threads wait through too, before it blocks.
    /// Before the first answer, throughout a bulk collective and in a
    /// fleet's, it blocks at once: a fleet's remaining answers may wait
    /// on other compute nodes' pieces, and a poll here would take a CPU
    /// from them.
    ///
    /// Returns the request id served.
    fn serve_collective(
        &mut self,
        arrays: &mut [XferArray<'_>],
        want: Option<u64>,
        small: bool,
    ) -> Result<u64, PandaError> {
        let mut perf = Serving {
            transport: &mut *self.transport,
            recorder: &*self.recorder,
            rank: self.rank as u32,
            num_clients: self.num_clients,
            arrays,
        };
        let any = MatchSpec::any();
        let mut end = self.part.begin(&mut perf, want)?;
        while end.is_none() {
            let polled = match small && self.part.underway() {
                true => poll_handoff(|| try_recv_msg(&mut *perf.transport, any).transpose()),
                false => None,
            };
            let (src, msg) = match polled {
                Some(got) => got?,
                None => recv_msg(perf.transport, any)?,
            };
            // A client's rank wraps past every server index.
            let server = src.index().wrapping_sub(self.num_clients);
            end = self.part.take(&mut perf, server, msg)?;
        }
        match end {
            Some(End::Done(request)) => Ok(request),
            // Typed flow control, not a protocol failure: the node is at
            // capacity and the caller may retry.
            Some(End::Rejected(Msg::Reject { reason, .. })) => {
                Err(PandaError::Admission { issue: reason })
            }
            _ => unreachable!("a collective ends done or rejected by a Reject"),
        }
    }

    /// Submit the high-level collective request, if this client is the
    /// submitter for `mode`. Returns the minted request id when it is.
    ///
    /// A per-request `tuning` override replaces the session's subchunk
    /// cap and pipeline depth on the wire. It is validated here, at
    /// submit time, with the same typed checks [`crate::PandaConfig`]
    /// applies at launch — the servers never see values the launch path
    /// would have rejected.
    ///
    /// `carried` is the submitter's chunks when the request is to be a
    /// one-shot (see [`Msg::OneShot`]); the caller passes it only in
    /// session mode, where this client is the submitter.
    fn start_collective(
        &mut self,
        op: OpKind,
        arrays: &[XferArray<'_>],
        mode: SubmitMode,
        tuning: Option<&TunedConfig>,
        carried: Option<Bytes>,
    ) -> Result<Option<u64>, PandaError> {
        if let Some(t) = tuning {
            t.validate(self.sync_policy)?;
        }
        let subchunk_bytes = tuning.map_or(self.subchunk_bytes, |t| t.subchunk_bytes);
        let pipeline_depth = tuning.map_or(self.pipeline_depth, |t| t.pipeline_depth);
        let participants: Vec<u32> = match mode {
            SubmitMode::Fleet => {
                if !self.is_master() {
                    return Ok(None);
                }
                (0..self.num_clients as u32).collect()
            }
            SubmitMode::Session => vec![self.rank as u32],
        };
        self.req_counter += 1;
        let request = request_id(self.rank, self.req_counter);
        // The group — not the array — is the unit of scheduling: one
        // request stream carries every array, and the servers interleave
        // their subchunks through one pipeline window.
        self.emit(&Event::GroupSubmit {
            op,
            arrays: arrays.len() as u32,
            pipeline_depth: pipeline_depth as u32,
        });
        let req = CollectiveRequest {
            request,
            participants,
            op,
            arrays: arrays
                .iter()
                .map(|x| ArrayOp {
                    meta: x.meta.clone(),
                    file_tag: x.tag.to_string(),
                    section: x.section.cloned(),
                })
                .collect(),
            subchunk_bytes,
            pipeline_depth,
            sync_policy: self.sync_policy,
        };
        let dst = NodeId(self.num_clients);
        send_request(self.transport_mut(), dst, &req, carried)?;
        self.last_request = Some(request);
        Ok(Some(request))
    }

    /// Ask all servers to shut down (used by
    /// [`crate::runtime::PandaSystem::shutdown`]; master client only).
    ///
    /// Every server is told, even after one could not be (it has
    /// stopped already, and the others must not be left running); the
    /// first failure is returned.
    pub(crate) fn send_shutdown(&mut self) -> Result<(), PandaError> {
        let mut told = Ok(());
        for s in 0..self.num_servers {
            let dst = NodeId(self.num_clients + s);
            told = told.and(send_msg(self.transport_mut(), dst, &Msg::Shutdown));
        }
        told
    }
}

/// What one collective's pieces do here: [`PandaClient::serve_collective`]'s
/// performer, the bytes.
///
/// Fetches pack from `Src` buffers and reply with `Data`; deliveries
/// scatter into `Dst` buffers — the buffer variant *is* the direction,
/// so a fetch during a read (or a delivery during a write) is a typed
/// protocol error. With pipelining the servers keep several requests
/// outstanding per client, so this is the client's hot path: each reply
/// is packed into a free-list buffer that *moves* into the envelope via
/// the vectored send path, and each delivery's buffer goes back to the
/// list once scattered — one copy per piece, and in steady state no
/// allocation. Every reply echoes the fetch's request id, which is how
/// the multi-tenant servers route it back to the right run.
///
/// The one thing a reader acknowledges is an awaited piece
/// ([`Msg::AwaitedData`]): once it is unpacked, its server gets a
/// [`Msg::Credit`], and that server pushes a later step only after the
/// step `pipeline_depth` before it is credited in full. So a slow reader
/// holds at most `pipeline_depth` of each server's steps queued here,
/// whatever the disks' lead; a read of no more than `pipeline_depth`
/// steps per server credits nothing.
struct Serving<'c, 'a> {
    transport: &'c mut dyn Transport,
    recorder: &'c dyn Recorder,
    /// The rank events are recorded under.
    rank: u32,
    /// Server `s` is node `num_clients + s`.
    num_clients: usize,
    arrays: &'c mut [XferArray<'a>],
}

impl Serve<Msg> for Serving<'_, '_> {
    type Error = PandaError;

    fn classify(&self, msg: &Msg) -> Result<(u64, Arrival), PandaError> {
        match *msg {
            Msg::Fetch { request, .. }
            | Msg::Data { request, .. }
            | Msg::AwaitedData { request, .. } => Ok((request, Arrival::Piece)),
            Msg::Complete { request, pieces } => Ok((request, Arrival::Complete(pieces))),
            Msg::Reject { request, .. } => Ok((request, Arrival::Reject)),
            _ => Err(PandaError::protocol(format!(
                "unexpected {:?} during a collective",
                msg.tag()
            ))),
        }
    }

    fn piece(&mut self, server: usize, msg: Msg) -> Result<(), PandaError> {
        let src = NodeId(self.num_clients + server);
        let awaited = matches!(msg, Msg::AwaitedData { .. });
        let (Msg::Fetch { array, .. } | Msg::Data { array, .. } | Msg::AwaitedData { array, .. }) =
            msg
        else {
            unreachable!("the participant serves pieces only")
        };
        let (tag, idx) = (msg.tag(), array as usize);
        let x = self.arrays.get_mut(idx).ok_or_else(|| {
            PandaError::protocol(format!("tag {tag} for unknown array index {idx}"))
        })?;
        let elem = x.meta.elem_size();
        let (rec, rank) = (self.recorder, self.rank);
        let t_start = rec.enabled().then(Instant::now);
        match (msg, &mut x.buf) {
            (
                Msg::Fetch {
                    request,
                    array,
                    seq,
                    region,
                },
                XferBuf::Src(data),
            ) => {
                // The region is off the wire: bound the buffer by this
                // client's own chunk before taking one for it.
                if !x.region.contains_region(&region) {
                    return Err(SchemaError::RegionNotContained.into());
                }
                let mut packed = freelist::take(region.num_bytes(elem));
                copy::pack_region_into(&mut packed, data, &x.region, &region, elem)?;
                if let Some(t) = t_start {
                    let bytes = packed.len() as u64;
                    let packed = Event::ClientPacked {
                        request,
                        array,
                        seq,
                        bytes,
                        dur: t.elapsed(),
                    };
                    rec.record(rank, &packed);
                }
                send_data(
                    self.transport,
                    src,
                    false,
                    request,
                    array,
                    seq,
                    &region,
                    packed,
                )
            }
            (
                Msg::Data {
                    request,
                    array,
                    seq,
                    region,
                    payload,
                }
                | Msg::AwaitedData {
                    request,
                    array,
                    seq,
                    region,
                    payload,
                },
                XferBuf::Dst(data),
            ) => {
                copy::unpack_region(data, &x.region, &region, &payload, elem)?;
                if let Some(t) = t_start {
                    let unpacked = Event::ClientUnpacked {
                        request,
                        array,
                        seq,
                        bytes: payload.len() as u64,
                        dur: t.elapsed(),
                    };
                    rec.record(rank, &unpacked);
                }
                payload.recycle();
                if awaited {
                    send_msg(self.transport, src, &Msg::Credit { request })?;
                }
                Ok(())
            }
            _ => Err(PandaError::protocol(format!(
                "tag {tag} against the collective's direction"
            ))),
        }
    }

    fn refused(&self, server: usize, request: u64, arrival: Arrival, why: Refusal) -> PandaError {
        let src = NodeId(server.wrapping_add(self.num_clients));
        PandaError::protocol(format!("{src} sent request {request} {arrival:?}: {why:?}"))
    }
}
