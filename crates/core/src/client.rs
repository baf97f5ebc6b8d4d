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
//! A session write whose chunks total less than a free-list piece
//! (`panda_msg::freelist::PIECE_MIN_BYTES`) is submitted as a
//! [`Msg::OneShot`]: the chunks ride behind the request, no server
//! fetches anything, and the client only waits for each server's
//! `Complete` — which attests zero pieces, and is held to that.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use panda_fs::SyncPolicy;
use panda_msg::{freelist, Bytes, MatchSpec, NodeId, Transport};
use panda_obs::{Event, Recorder};
use panda_schema::{copy, Region, SchemaError};

use crate::array::ArrayMeta;
use crate::error::PandaError;
use crate::request::{ReadSet, WriteSet};
use crate::tuned::TunedConfig;

use crate::protocol::{
    recv_msg, send_data, send_msg, send_request, ArrayOp, CollectiveRequest, Msg, OpKind,
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
    /// Messages of the fleet's next collective that arrived before the
    /// current one ended here (see [`PandaClient::serve_collective`]);
    /// the next call serves them first.
    early: VecDeque<(NodeId, Msg)>,
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
            early: VecDeque::new(),
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

    fn master_server(&self) -> NodeId {
        NodeId(self.num_clients)
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

    /// Mint a request id: unique across clients without coordination.
    fn fresh_request_id(&mut self) -> u64 {
        self.req_counter += 1;
        ((self.rank as u64 + 1) << 32) | self.req_counter
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

    fn check_buffers(
        &self,
        arrays: &[(&ArrayMeta, &str)],
        lens: &[usize],
        mesh: usize,
    ) -> Result<(), PandaError> {
        for ((meta, _), &len) in arrays.iter().zip(lens) {
            let expected = meta.client_bytes(mesh);
            if len != expected {
                return Err(PandaError::BadClientBuffer {
                    array: meta.name().to_string(),
                    expected,
                    actual: len,
                });
            }
        }
        Ok(())
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
        let heads: Vec<(&ArrayMeta, &str)> =
            set.items.iter().map(|i| (i.meta, i.tag.as_str())).collect();
        let lens: Vec<usize> = set.items.iter().map(|i| i.data.len()).collect();
        self.check_buffers(&heads, &lens, mesh)?;
        // A session write smaller than a free-list piece rides its own
        // request: the servers cut their pieces out of it and never
        // fetch. Shared, so the master's in-process relay is a refcount.
        let total: usize = lens.iter().sum();
        let carried = (matches!(mode, SubmitMode::Session) && total < freelist::PIECE_MIN_BYTES)
            .then(|| {
                let mut body = Vec::with_capacity(total);
                for item in &set.items {
                    body.extend_from_slice(item.data);
                }
                Bytes::Shared(body.into())
            });
        let t_op = self.obs_on().then(Instant::now);
        let want = self.start_collective(
            OpKind::Write,
            &heads,
            None,
            mode,
            set.tuning.as_ref(),
            carried,
        )?;

        let mut xfer: Vec<XferArray<'_>> = set
            .items
            .iter()
            .map(|i| XferArray {
                meta: i.meta,
                region: i.meta.client_region(mesh),
                buf: XferBuf::Src(i.data),
            })
            .collect();
        let request = match self.serve_collective(&mut xfer, want) {
            Ok(done) => done,
            Err(e) => {
                self.emit_request_error(want.unwrap_or(0), &e);
                return Err(e);
            }
        };
        if let Some(t) = t_op {
            self.emit(&Event::CollectiveDone {
                request,
                op: OpKind::Write,
                dur: t.elapsed(),
            });
        }
        Ok(())
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
        let heads: Vec<(&ArrayMeta, &str)> =
            set.items.iter().map(|i| (i.meta, i.tag.as_str())).collect();

        // Receive targets: my chunk, or its intersection with the
        // section. Disjoint sections leave an empty target.
        let regions: Vec<Region> = set
            .items
            .iter()
            .map(|i| {
                let mine = i.meta.client_region(mesh);
                match &i.section {
                    None => mine,
                    Some(s) => mine
                        .intersect(s)
                        .unwrap_or_else(|| Region::empty(mine.rank())),
                }
            })
            .collect();
        for (i, region) in set.items.iter().zip(&regions) {
            let expected = region.num_bytes(i.meta.elem_size());
            if i.data.len() != expected {
                return Err(PandaError::BadClientBuffer {
                    array: i.meta.name().to_string(),
                    expected,
                    actual: i.data.len(),
                });
            }
        }

        let sections: Vec<Option<Region>> = set.items.iter().map(|i| i.section.clone()).collect();
        let t_op = self.obs_on().then(Instant::now);
        let want = self.start_collective(
            OpKind::Read,
            &heads,
            Some(&sections),
            mode,
            set.tuning.as_ref(),
            None,
        )?;

        let mut xfer: Vec<XferArray<'_>> = set
            .items
            .iter_mut()
            .zip(&regions)
            .map(|(i, region)| XferArray {
                meta: i.meta,
                region: region.clone(),
                buf: XferBuf::Dst(i.data),
            })
            .collect();
        let request = match self.serve_collective(&mut xfer, want) {
            Ok(done) => done,
            Err(e) => {
                self.emit_request_error(want.unwrap_or(0), &e);
                return Err(e);
            }
        };
        if let Some(t) = t_op {
            self.emit(&Event::CollectiveDone {
                request,
                op: OpKind::Read,
                dur: t.elapsed(),
            });
        }
        Ok(())
    }

    /// Surface a failed collective to the telemetry plane (the flight
    /// recorder treats it as an incident trigger). Admission rejections
    /// are typed flow control with their own server-side event, so only
    /// genuine failures — protocol, transport, file system — report.
    fn emit_request_error(&self, request: u64, err: &PandaError) {
        if self.obs_on() && !matches!(err, PandaError::Admission { .. }) {
            let detail = err.to_string();
            self.emit(&Event::RequestError {
                request,
                detail: &detail,
            });
        }
    }

    /// Buffer size this client must supply for a section read: the
    /// bytes of `client_region ∩ section` (zero when disjoint).
    pub fn section_bytes(&self, meta: &ArrayMeta, section: &Region) -> usize {
        meta.client_region(self.rank)
            .intersect(section)
            .map(|r| r.num_bytes(meta.elem_size()))
            .unwrap_or(0)
    }

    /// Pin down which request a message belongs to: the first one seen
    /// binds the loop (fleet non-masters learn the id this way);
    /// anything different afterwards is a protocol error.
    fn check_request(seen: &mut Option<u64>, request: u64) -> Result<(), PandaError> {
        match seen {
            Some(id) if *id != request => Err(PandaError::Protocol {
                detail: format!("message for request {request} while serving request {id}"),
            }),
            Some(_) => Ok(()),
            None => {
                *seen = Some(request);
                Ok(())
            }
        }
    }

    /// `src`'s entry in a per-server table, if `src` is a server.
    fn server_slot<'t, T>(&self, table: &'t mut [T], src: NodeId) -> Option<&'t mut T> {
        table.get_mut(src.index().checked_sub(self.num_clients)?)
    }

    /// Count one `Fetch`/`Data` from `src` towards what that server's
    /// `Complete` will attest to.
    fn note_piece(&self, handled: &mut [Option<u32>], src: NodeId) -> Result<(), PandaError> {
        match self.server_slot(handled, src) {
            Some(Some(n)) => {
                *n += 1;
                Ok(())
            }
            _ => Err(PandaError::Protocol {
                detail: format!("piece from {src}, which is not a server"),
            }),
        }
    }

    /// The one client-side exchange loop: serve the servers until each
    /// of them has sent its `Complete`, for either direction. Fetches
    /// pack from `Src` buffers and reply with `Data`; deliveries scatter
    /// into `Dst` buffers — the buffer variant *is* the direction, so a
    /// fetch during a read (or a delivery during a write) is a typed
    /// protocol error. With pipelining the servers keep several
    /// requests outstanding per client, so this loop is the client's hot
    /// path: each reply is packed into a free-list buffer that *moves*
    /// into the envelope via the vectored send path, and each delivery's
    /// buffer goes back to the list once scattered — one copy per piece,
    /// and in steady state no allocation. Every reply echoes the
    /// fetch's request id, which is how the multi-tenant servers route
    /// it back to the right run.
    ///
    /// The client holds no plan: a server's `Complete` says how many
    /// pieces it sent here, and must match what arrived from it — a
    /// lost or duplicated piece is a typed protocol error, never a
    /// short buffer.
    ///
    /// Only each *pair* of nodes is FIFO. A server that has completed
    /// this request may already be driving the fleet's next one while
    /// another server's `Complete` for this one is still in flight on
    /// its own connection, so whatever a completed server sends is set
    /// aside for the next call instead of being taken for this one.
    ///
    /// `want` is the submitted request's id when this client is the
    /// submitter (it must match every message, and a `Reject` for it
    /// surfaces as [`PandaError::Admission`]); `None` for fleet
    /// non-masters, which learn the id from the first message.
    ///
    /// Returns the request id served.
    fn serve_collective(
        &mut self,
        arrays: &mut [XferArray<'_>],
        want: Option<u64>,
    ) -> Result<u64, PandaError> {
        let mut seen = want;
        // Pieces handled per server; `None` once its `Complete` is in.
        let mut handled: Vec<Option<u32>> = vec![Some(0); self.num_servers];
        let mut early = self.early.len();
        while handled.iter().any(Option::is_some) {
            let (src, msg) = if early > 0 {
                early -= 1;
                self.early.pop_front().expect("counted above")
            } else {
                recv_msg(self.transport_mut(), MatchSpec::any())?
            };
            if let Some(None) = self.server_slot(&mut handled, src) {
                // Done with this request: it is on to the next one.
                self.early.push_back((src, msg));
                continue;
            }
            match msg {
                Msg::Fetch {
                    request,
                    array,
                    seq,
                    region,
                } => {
                    Self::check_request(&mut seen, request)?;
                    self.note_piece(&mut handled, src)?;
                    let idx = array as usize;
                    let x = arrays.get(idx).ok_or_else(|| PandaError::Protocol {
                        detail: format!("fetch for unknown array index {idx}"),
                    })?;
                    let XferBuf::Src(data) = &x.buf else {
                        return Err(PandaError::Protocol {
                            detail: "fetch during a read collective".to_string(),
                        });
                    };
                    let t_pack = self.obs_on().then(Instant::now);
                    let elem = x.meta.elem_size();
                    // The region is off the wire: bound the buffer by
                    // this client's own chunk before taking one for it.
                    if !x.region.contains_region(&region) {
                        return Err(SchemaError::RegionNotContained.into());
                    }
                    let mut packed = freelist::take(region.num_bytes(elem));
                    copy::pack_region_into(&mut packed, data, &x.region, &region, elem)?;
                    if let Some(t) = t_pack {
                        self.emit(&Event::ClientPacked {
                            request,
                            array,
                            seq,
                            bytes: packed.len() as u64,
                            dur: t.elapsed(),
                        });
                    }
                    send_data(
                        self.transport_mut(),
                        src,
                        request,
                        array,
                        seq,
                        &region,
                        packed,
                    )?;
                }
                Msg::Data {
                    request,
                    array,
                    seq,
                    region,
                    payload,
                } => {
                    Self::check_request(&mut seen, request)?;
                    self.note_piece(&mut handled, src)?;
                    let idx = array as usize;
                    let x = arrays.get_mut(idx).ok_or_else(|| PandaError::Protocol {
                        detail: format!("data for unknown array index {idx}"),
                    })?;
                    let elem = x.meta.elem_size();
                    let XferBuf::Dst(data) = &mut x.buf else {
                        return Err(PandaError::Protocol {
                            detail: "data reply during a write collective".to_string(),
                        });
                    };
                    let t_unpack = self.obs_on().then(Instant::now);
                    copy::unpack_region(data, &x.region, &region, &payload, elem)?;
                    if let Some(t) = t_unpack {
                        self.emit(&Event::ClientUnpacked {
                            request,
                            array,
                            seq,
                            bytes: payload.len() as u64,
                            dur: t.elapsed(),
                        });
                    }
                    payload.recycle();
                }
                Msg::Complete { request, pieces } => {
                    Self::check_request(&mut seen, request)?;
                    let got = self.server_slot(&mut handled, src).and_then(Option::take);
                    if got != Some(pieces) {
                        return Err(PandaError::Protocol {
                            detail: format!(
                                "{src} completed request {request} attesting {pieces} pieces; \
                                 {got:?} arrived from it"
                            ),
                        });
                    }
                }
                Msg::Reject { request, reason } => {
                    Self::check_request(&mut seen, request)?;
                    // Typed flow control, not a protocol failure: the
                    // node is at capacity and the caller may retry.
                    return Err(PandaError::Admission { issue: reason });
                }
                other => {
                    return Err(PandaError::Protocol {
                        detail: format!("unexpected {:?} during a collective", other.tag()),
                    })
                }
            }
        }
        Ok(seen.expect("every server's Complete carried the request id"))
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
        arrays: &[(&ArrayMeta, &str)],
        sections: Option<&[Option<Region>]>,
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
        let request = self.fresh_request_id();
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
                .enumerate()
                .map(|(i, &(meta, tag))| ArrayOp {
                    meta: meta.clone(),
                    file_tag: tag.to_string(),
                    section: sections.and_then(|s| s[i].clone()),
                })
                .collect(),
            subchunk_bytes,
            pipeline_depth,
            sync_policy: self.sync_policy,
        };
        let dst = self.master_server();
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
