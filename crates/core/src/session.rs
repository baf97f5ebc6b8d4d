//! Service mode: a long-running Panda deployment shared by tenants.
//!
//! The paper's model is one SPMD fleet performing one collective at a
//! time. Service mode keeps the same I/O nodes up as a *shared
//! facility*: each tenant opens a [`Session`], submits its own
//! collectives whenever it likes, and the servers' request scheduler
//! interleaves all live requests over the shared worker pools and disk
//! stages (see the `server` module docs). A session is the sole
//! participant of its requests, so its arrays must live on a
//! single-node memory mesh — the session's own buffers cover the whole
//! array ([`ConfigIssue::SessionMesh`] otherwise).
//!
//! ```
//! use std::sync::Arc;
//! use panda_core::{ArrayMeta, PandaConfig, PandaSystem, WriteSet};
//! use panda_schema::{DataSchema, ElementType, Mesh, Shape};
//! use panda_fs::MemFs;
//!
//! let mut service = PandaSystem::builder()
//!     .config(PandaConfig::new(2, 1))
//!     .serve(|_| Arc::new(MemFs::new()))
//!     .unwrap();
//! let mut a = service.open().unwrap();
//! let mut b = service.open().unwrap();
//!
//! let mem = DataSchema::block_all(Shape::new(&[8, 8]).unwrap(),
//!     ElementType::U8, Mesh::new(&[1, 1]).unwrap()).unwrap();
//! let meta = ArrayMeta::natural("t", mem).unwrap();
//! let data = vec![7u8; 64];
//!
//! // Tenants submit independently; here serially from one thread, in
//! // real use from their own threads, concurrently.
//! let req_a = a.write_set(&WriteSet::new().array(&meta, "a", &data)).unwrap();
//! let req_b = b.write_set(&WriteSet::new().array(&meta, "b", &data)).unwrap();
//! assert_ne!(req_a, req_b);
//! service.shutdown(vec![a, b]).unwrap();
//! ```

use panda_schema::Region;

use crate::array::ArrayMeta;
use crate::client::{PandaClient, SubmitMode};
use crate::error::{ConfigIssue, PandaError};
use crate::group_ops::CollectiveHandle;
use crate::request::{ReadSet, WriteSet};
use crate::runtime::PandaSystem;
use crate::scrape::MetricsServer;

use panda_msg::{NodeId, Transport};

/// A running multi-tenant deployment: the server threads plus the pool
/// of unopened session slots. Built with
/// [`PandaSystemBuilder::serve`](crate::runtime::PandaSystemBuilder::serve);
/// the configured `num_clients` is the number of sessions that can be
/// open at once.
pub struct PandaService {
    system: PandaSystem,
    /// Unopened slots, last = lowest rank (so `open` pops in rank
    /// order).
    idle: Vec<PandaClient>,
}

impl PandaService {
    pub(crate) fn new(system: PandaSystem, mut clients: Vec<PandaClient>) -> Self {
        clients.reverse();
        PandaService {
            system,
            idle: clients,
        }
    }

    /// Open the next session slot; `None` when all configured slots are
    /// taken. Each session owns one fabric endpoint and can be moved to
    /// its own thread.
    pub fn open(&mut self) -> Option<Session> {
        self.idle.pop().map(|client| Session { client })
    }

    /// Session slots still available.
    pub fn slots_remaining(&self) -> usize {
        self.idle.len()
    }

    /// Return a session's slot to the pool; a later [`PandaService::open`]
    /// can reuse it. This is how short-lived tenants — for example a
    /// calibration probe — borrow an endpoint without holding it for
    /// the service's lifetime.
    pub fn close(&mut self, session: Session) {
        self.idle.push(session.client);
    }

    /// The underlying deployment, for inspection (file systems, fabric
    /// statistics, observability reports).
    pub fn system(&self) -> &PandaSystem {
        &self.system
    }

    /// Start the scrape surface on `addr` (`0.0.0.0:0` or
    /// `127.0.0.1:0` binds an OS-assigned port — read it back with
    /// [`MetricsServer::addr`]). `GET /metrics` answers with Prometheus
    /// text exposition from the deployment recorder (attach a
    /// [`panda_obs::TelemetryRecorder`] for the full family set) plus the
    /// live health gauges; `GET /healthz` answers with the
    /// [`crate::HealthSnapshot`] JSON — HTTP `503` once an admission
    /// queue is at its cap. The listener runs on its own thread until
    /// the returned handle is stopped or dropped.
    pub fn serve_metrics(
        &self,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<MetricsServer> {
        MetricsServer::start(
            addr,
            std::sync::Arc::clone(self.system.recorder()),
            std::sync::Arc::clone(self.system.health()),
        )
    }

    /// Shut the service down. Hand back every session still open; the
    /// servers drain their live and queued requests, then exit.
    pub fn shutdown(self, sessions: impl IntoIterator<Item = Session>) -> Result<(), PandaError> {
        let mut clients: Vec<PandaClient> = sessions.into_iter().map(|s| s.client).collect();
        clients.extend(self.idle);
        self.system.shutdown(clients)
    }
}

/// One tenant's handle to a [`PandaService`]: submits collectives that
/// run concurrently with every other session's.
pub struct Session {
    client: PandaClient,
}

impl Session {
    /// This session's fabric rank (its slot index).
    pub fn rank(&self) -> usize {
        self.client.rank()
    }

    /// Number of I/O nodes in the deployment this session talks to.
    pub fn num_servers(&self) -> usize {
        self.client.num_servers()
    }

    /// The deployment's flush policy (relevant to tuning: `PerWrite`
    /// rules out pipeline depths above 1).
    pub fn sync_policy(&self) -> panda_fs::SyncPolicy {
        self.client.sync_policy()
    }

    /// The id of this session's most recent request, for correlating
    /// with request-scoped observability
    /// ([`panda_obs::RunReport::for_request`]).
    pub fn last_request_id(&self) -> Option<u64> {
        self.client.last_request_id()
    }

    /// The deployment's observability recorder (shared by every node);
    /// see [`crate::PandaClient::recorder`].
    pub fn recorder(&self) -> &std::sync::Arc<dyn panda_obs::Recorder> {
        self.client.recorder()
    }

    /// Buffer size required for a section read (whole-array mesh, so
    /// this is the section's own byte count).
    pub fn section_bytes(&self, meta: &ArrayMeta, section: &Region) -> usize {
        meta.client_region(0)
            .intersect(section)
            .map(|r| r.num_bytes(meta.elem_size()))
            .unwrap_or(0)
    }

    /// Session collectives are single-submitter: every array must live
    /// on a 1-node memory mesh so this session's buffers cover it.
    fn check_single_node<'a>(
        &self,
        metas: impl Iterator<Item = &'a ArrayMeta>,
    ) -> Result<(), PandaError> {
        for meta in metas {
            let clients = meta.num_clients();
            if clients != 1 {
                return Err(PandaError::Config {
                    issue: ConfigIssue::SessionMesh {
                        array: meta.name().to_string(),
                        clients,
                    },
                });
            }
        }
        Ok(())
    }

    /// Submit a collective write and block until it completes. Returns
    /// the request id. Fails with [`PandaError::Admission`] when the
    /// service is at capacity (typed, retryable flow control).
    pub fn write_set(&mut self, set: &WriteSet<'_>) -> Result<u64, PandaError> {
        self.check_single_node(set.items.iter().map(|i| i.meta))?;
        self.client.write_set_mode(set, SubmitMode::Session)?;
        Ok(self.client.last_request_id().unwrap_or(0))
    }

    /// Submit a collective read and block until it completes. Returns
    /// the request id; admission control as in [`Session::write_set`].
    pub fn read_set(&mut self, set: &mut ReadSet<'_>) -> Result<u64, PandaError> {
        self.check_single_node(set.items.iter().map(|i| i.meta))?;
        self.client.read_set_mode(set, SubmitMode::Session)?;
        Ok(self.client.last_request_id().unwrap_or(0))
    }
}

impl CollectiveHandle for Session {
    fn collective_write(&mut self, set: &WriteSet<'_>) -> Result<(), PandaError> {
        self.write_set(set).map(|_| ())
    }

    fn collective_read(&mut self, set: &mut ReadSet<'_>) -> Result<(), PandaError> {
        self.read_set(set).map(|_| ())
    }

    fn control(&mut self) -> (&mut dyn Transport, NodeId) {
        let server0 = NodeId(self.client.num_clients());
        (self.client.transport_mut(), server0)
    }
}
