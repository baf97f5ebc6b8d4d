//! Launching and tearing down a Panda deployment.
//!
//! A [`PandaSystem`] owns the I/O-node threads; [`PandaClient`]s are
//! handed to the application, one per compute node. Ranks follow the
//! paper's architecture diagram (Figure 1): clients occupy ranks
//! `0..num_clients` on the fabric, servers `num_clients..num_clients+S`.
//!
//! [`PandaSystem::builder`] is the one entry point: set the
//! configuration, optionally substitute transports (e.g. TCP endpoints
//! for "a network of ordinary workstations"), then either
//! [`launch`](PandaSystemBuilder::launch) the SPMD fleet or
//! [`serve`](PandaSystemBuilder::serve) a multi-tenant
//! [`PandaService`] front door.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use panda_fs::{FileSystem, SyncPolicy};
use panda_msg::{FabricStats, InProcFabric, Transport};
use panda_obs::{Recorder, RunReport};

use crate::client::PandaClient;
use crate::error::{ConfigIssue, PandaError};
use crate::health::ServiceHealth;
use crate::server::ServerNode;
use crate::session::PandaService;

/// Deployment parameters.
///
/// Built with [`PandaConfig::new`] plus the `with_*` methods. Invariants
/// (checked at [`PandaSystemBuilder::launch`] /
/// [`PandaSystemBuilder::serve`], which return a typed
/// [`PandaError::Config`] rather than panicking):
///
/// * `num_clients >= 1` and `num_servers >= 1`;
/// * `subchunk_bytes >= 1`;
/// * `pipeline_depth >= 1` (`1` means unpipelined).
#[derive(Debug, Clone)]
pub struct PandaConfig {
    /// Number of compute nodes (Panda clients).
    pub num_clients: usize,
    /// Number of I/O nodes (Panda servers).
    pub num_servers: usize,
    /// Subchunk subdivision cap in bytes (1 MB in all the paper's
    /// experiments).
    pub subchunk_bytes: usize,
    /// Number of subchunks each server keeps in flight. `1` (the
    /// default) reproduces the paper's strictly serialized transfer
    /// order bit for bit; `d ≥ 2` prefetches the next `d - 1` subchunks
    /// from the clients while the current one is on its way to or from
    /// disk (double-buffered file I/O).
    pub pipeline_depth: usize,
    /// Size of each server's I/O worker pool: the threads that run the
    /// pipelined disk loops and the parallel reorganization
    /// (`copy_region`/`pack_region_into`) of independent subchunks.
    /// `1` still pipelines but reorganizes serially.
    pub io_workers: usize,
    /// When the disk stage flushes written data to stable storage:
    /// after every write (the paper's semantics), once per file as its
    /// last subchunk lands (the default, the engine's historical
    /// behavior), or once per collective in a coalesced end-of-stage
    /// barrier. Travels with each request, so every server honors it.
    pub sync_policy: SyncPolicy,
    /// Completion threads for submission-queue backends (`SubmitFs`):
    /// the knob file-system factories hand to
    /// [`panda_fs::SubmitFs::new`]. Unused by synchronous backends.
    pub disk_completion_threads: usize,
    /// How many collective requests each server runs concurrently
    /// (multi-tenant service mode). `1` serializes requests the way the
    /// original single-tenant engine did; higher values interleave that
    /// many requests' exchange/reorganization/disk steps over the
    /// shared worker pool and disk stage.
    pub max_concurrent_collectives: usize,
    /// How many admitted-but-waiting requests a server queues beyond
    /// the live ones before refusing single-submitter (session)
    /// requests with a typed [`PandaError::Admission`] rejection. `0`
    /// disables queueing: a session request past the live cap is
    /// rejected immediately. Fleet requests are never rejected — they
    /// always queue.
    pub max_queued_collectives: usize,
    /// Blocking-receive timeout; a deadlocked protocol fails loudly
    /// instead of hanging.
    pub recv_timeout: Duration,
    /// Observability recorder shared by every node, transport, and file
    /// system in the deployment. Defaults to the no-op
    /// [`panda_obs::NullRecorder`], which keeps the hot path free of
    /// clock reads and event construction.
    pub recorder: Arc<dyn Recorder>,
}

impl PandaConfig {
    /// A configuration with the paper's defaults (1 MB subchunks,
    /// unpipelined, no instrumentation).
    pub fn new(num_clients: usize, num_servers: usize) -> Self {
        PandaConfig {
            num_clients,
            num_servers,
            subchunk_bytes: panda_schema::DEFAULT_SUBCHUNK_BYTES,
            pipeline_depth: 1,
            io_workers: 2,
            sync_policy: SyncPolicy::default(),
            disk_completion_threads: 2,
            max_concurrent_collectives: 4,
            max_queued_collectives: 16,
            recv_timeout: Duration::from_secs(60),
            recorder: panda_obs::null_recorder(),
        }
    }

    /// Override the subchunk cap.
    pub fn with_subchunk_bytes(mut self, bytes: usize) -> Self {
        self.subchunk_bytes = bytes;
        self
    }

    /// Override the pipeline depth (`1` disables pipelining).
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth;
        self
    }

    /// Override the per-server I/O worker-pool size.
    pub fn with_io_workers(mut self, workers: usize) -> Self {
        self.io_workers = workers;
        self
    }

    /// Override the disk-stage sync policy.
    pub fn with_sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Override the completion-thread count for submission-queue
    /// backends.
    pub fn with_disk_completion_threads(mut self, threads: usize) -> Self {
        self.disk_completion_threads = threads;
        self
    }

    /// Override the concurrent-collective cap (`1` = serialized, the
    /// original single-tenant behavior).
    pub fn with_max_concurrent_collectives(mut self, max: usize) -> Self {
        self.max_concurrent_collectives = max;
        self
    }

    /// Override the admission wait-queue depth (`0` = reject session
    /// requests immediately once all slots are live).
    pub fn with_max_queued_collectives(mut self, max: usize) -> Self {
        self.max_queued_collectives = max;
        self
    }

    /// Override the receive timeout.
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Attach an observability recorder (e.g.
    /// [`panda_obs::TelemetryRecorder::new`] for aggregate phase totals
    /// and live metrics, or [`panda_obs::TelemetryRecorder::with_ring`]
    /// to add per-subchunk traces). The
    /// recorder is installed on every transport and file system at
    /// launch; [`PandaSystem::report`] aggregates it afterwards.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    fn validate(&self) -> Result<(), PandaError> {
        if self.num_clients == 0 || self.num_servers == 0 {
            return Err(PandaError::Config {
                issue: ConfigIssue::NoNodes {
                    num_clients: self.num_clients,
                    num_servers: self.num_servers,
                },
            });
        }
        if self.subchunk_bytes == 0 {
            return Err(PandaError::Config {
                issue: ConfigIssue::ZeroSubchunkBytes,
            });
        }
        if self.pipeline_depth == 0 {
            return Err(PandaError::Config {
                issue: ConfigIssue::ZeroPipelineDepth,
            });
        }
        if self.io_workers == 0 {
            return Err(PandaError::Config {
                issue: ConfigIssue::ZeroIoWorkers,
            });
        }
        if self.disk_completion_threads == 0 {
            return Err(PandaError::Config {
                issue: ConfigIssue::ZeroCompletionThreads,
            });
        }
        if self.max_concurrent_collectives == 0 {
            return Err(PandaError::Config {
                issue: ConfigIssue::ZeroConcurrentCollectives,
            });
        }
        if self.sync_policy == SyncPolicy::PerWrite && self.pipeline_depth > 1 {
            return Err(PandaError::Config {
                issue: ConfigIssue::SyncPolicyConflict {
                    pipeline_depth: self.pipeline_depth,
                },
            });
        }
        Ok(())
    }
}

/// A running Panda deployment: the server threads plus handles for
/// inspection.
pub struct PandaSystem {
    handles: Vec<JoinHandle<Result<(), PandaError>>>,
    /// Each I/O node's file system, for inspection by tests and tools.
    pub filesystems: Vec<Arc<dyn FileSystem>>,
    /// Fabric-wide message statistics.
    pub fabric_stats: Arc<FabricStats>,
    recorder: Arc<dyn Recorder>,
    health: Arc<ServiceHealth>,
    num_clients: usize,
    num_servers: usize,
    io_workers: usize,
}

/// Caller-supplied fabric: one transport per node, plus the shared
/// statistics handle the transports report into.
type FabricEndpoints = (Vec<Box<dyn Transport>>, Arc<FabricStats>);

/// Configures and launches a deployment: the one entry point for both
/// the one-shot SPMD fleet and the multi-tenant service.
///
/// ```
/// use std::sync::Arc;
/// use panda_core::{PandaConfig, PandaSystem};
/// use panda_fs::MemFs;
///
/// let (system, clients) = PandaSystem::builder()
///     .config(PandaConfig::new(2, 1))
///     .launch(|_| Arc::new(MemFs::new()))
///     .unwrap();
/// system.shutdown(clients).unwrap();
/// ```
pub struct PandaSystemBuilder {
    config: PandaConfig,
    endpoints: Option<FabricEndpoints>,
}

impl PandaSystemBuilder {
    /// Use this deployment configuration (defaults to
    /// `PandaConfig::new(1, 1)`).
    pub fn config(mut self, config: PandaConfig) -> Self {
        self.config = config;
        self
    }

    /// Attach an observability recorder — shorthand for setting it on
    /// the config ([`PandaConfig::with_recorder`]).
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.config.recorder = recorder;
        self
    }

    /// Launch over caller-supplied transports — one per node, ordered
    /// clients first (`0..num_clients`) then servers. This is how Panda
    /// runs on "a network of ordinary workstations without changing any
    /// code" (paper §5): hand in `panda_msg::TcpFabric` endpoints (or
    /// any other [`panda_msg::Transport`]) instead of the default
    /// in-process fabric. `fabric_stats` is the shared counter handle
    /// when the transport family has one; pass a fresh handle
    /// otherwise.
    pub fn transports(
        mut self,
        endpoints: Vec<Box<dyn Transport>>,
        fabric_stats: Arc<FabricStats>,
    ) -> Self {
        self.endpoints = Some((endpoints, fabric_stats));
        self
    }

    /// Launch the deployment: spawns one thread per I/O node and
    /// returns one [`PandaClient`] per compute node (index == client
    /// rank).
    ///
    /// `fs_factory` supplies each server's file system (the paper's
    /// "each processor has its own AIX file system"); it is called with
    /// the server index.
    pub fn launch(
        self,
        mut fs_factory: impl FnMut(usize) -> Arc<dyn FileSystem>,
    ) -> Result<(PandaSystem, Vec<PandaClient>), PandaError> {
        let config = self.config;
        config.validate()?;
        let total = config.num_clients + config.num_servers;
        let (mut endpoints, fabric_stats) = match self.endpoints {
            Some((endpoints, stats)) => (endpoints, stats),
            None => {
                let (eps, stats) = InProcFabric::with_timeout(total, config.recv_timeout);
                let endpoints: Vec<Box<dyn Transport>> = eps
                    .into_iter()
                    .map(|ep| Box::new(ep) as Box<dyn Transport>)
                    .collect();
                (endpoints, stats)
            }
        };
        if endpoints.len() != total {
            return Err(PandaError::Config {
                issue: ConfigIssue::TransportCount {
                    expected: total,
                    actual: endpoints.len(),
                },
            });
        }

        // One recorder observes every layer: each transport reports its
        // own traffic, each server file system its disk calls (tagged
        // with the server's fabric rank), and the nodes themselves the
        // collective-path phases.
        for ep in endpoints.iter_mut() {
            ep.set_recorder(Arc::clone(&config.recorder));
        }

        // Servers take the high ranks.
        let health = Arc::new(ServiceHealth::new(
            config.num_servers,
            config.max_concurrent_collectives,
            config.max_queued_collectives,
        ));
        let mut filesystems = Vec::with_capacity(config.num_servers);
        let mut handles = Vec::with_capacity(config.num_servers);
        for s in (0..config.num_servers).rev() {
            let endpoint = endpoints
                .pop()
                .expect("fabric created with num_clients+num_servers endpoints");
            let fs = fs_factory(s);
            fs.set_recorder(
                Arc::clone(&config.recorder),
                (config.num_clients + s) as u32,
            );
            filesystems.push(Arc::clone(&fs));
            let node = ServerNode::new(
                endpoint,
                fs,
                s,
                config.num_clients,
                config.num_servers,
                config.io_workers,
                config.max_concurrent_collectives,
                config.max_queued_collectives,
                Arc::clone(&config.recorder),
                Arc::clone(&health),
            );
            handles.push(
                std::thread::Builder::new()
                    .name(format!("panda-server-{s}"))
                    .spawn(move || node.run())
                    .expect("spawn server thread"),
            );
        }
        // Popping from the back handed us servers in reverse order; the
        // bookkeeping vectors must be indexed by server index.
        filesystems.reverse();
        handles.reverse();

        let clients: Vec<PandaClient> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, ep)| {
                PandaClient::new(
                    ep,
                    rank,
                    config.num_clients,
                    config.num_servers,
                    config.subchunk_bytes,
                    config.pipeline_depth,
                    config.sync_policy,
                    Arc::clone(&config.recorder),
                )
            })
            .collect();

        Ok((
            PandaSystem {
                handles,
                filesystems,
                fabric_stats,
                recorder: Arc::clone(&config.recorder),
                health,
                num_clients: config.num_clients,
                num_servers: config.num_servers,
                io_workers: config.io_workers,
            },
            clients,
        ))
    }

    /// Launch as a multi-tenant service: the configured `num_clients`
    /// endpoints become session slots on the returned
    /// [`PandaService`] instead of fleet clients. Open sessions with
    /// [`PandaService::open`]; each submits collectives independently
    /// and the servers interleave up to
    /// [`PandaConfig::max_concurrent_collectives`] of them.
    pub fn serve(
        self,
        fs_factory: impl FnMut(usize) -> Arc<dyn FileSystem>,
    ) -> Result<PandaService, PandaError> {
        let (system, clients) = self.launch(fs_factory)?;
        Ok(PandaService::new(system, clients))
    }
}

impl PandaSystem {
    /// Start configuring a deployment. See [`PandaSystemBuilder`].
    pub fn builder() -> PandaSystemBuilder {
        PandaSystemBuilder {
            config: PandaConfig::new(1, 1),
            endpoints: None,
        }
    }

    /// The deployment's observability recorder (the one passed via
    /// [`PandaConfig::with_recorder`], or the default null recorder).
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// The live admission/health gauges every server publishes into;
    /// [`crate::HealthSnapshot`] derives the `/healthz` status from it.
    pub fn health(&self) -> &Arc<ServiceHealth> {
        &self.health
    }

    /// Aggregate the deployment's recorder into one machine-readable
    /// [`RunReport`]: phase totals (the paper's exchange/disk/reorg
    /// decomposition), per-node and per-subchunk breakdowns when the
    /// recorder keeps a timeline, and aggregate counters. With the
    /// default null recorder the report is empty.
    pub fn report(&self) -> RunReport {
        RunReport::from_recorder(self.recorder.as_ref())
    }

    /// Number of compute nodes.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Number of I/O nodes.
    pub fn num_servers(&self) -> usize {
        self.num_servers
    }

    /// Reorganization worker threads per I/O node (the launched
    /// [`PandaConfig::io_workers`]). Launch-scoped: a tuner can pick a
    /// different value only for the *next* deployment, not per request.
    pub fn io_workers(&self) -> usize {
        self.io_workers
    }

    /// Shut the deployment down: the master client tells every server to
    /// exit, then the server threads are joined. Any error raised by a
    /// server thread during its lifetime is surfaced here — ahead of a
    /// failure to tell a server that has already stopped, which is only
    /// that error's echo.
    pub fn shutdown(self, mut clients: Vec<PandaClient>) -> Result<(), PandaError> {
        let master = clients.first_mut().ok_or(PandaError::Config {
            issue: ConfigIssue::NoClientHandles,
        })?;
        // A server that cannot be told has stopped already, and why is
        // its own thread's result: join before reporting the send.
        let told = master.send_shutdown();
        for handle in self.handles {
            handle.join().map_err(|_| PandaError::Protocol {
                detail: "server thread panicked".to_string(),
            })??;
        }
        told
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_fs::MemFs;

    fn try_launch(config: PandaConfig) -> Result<(PandaSystem, Vec<PandaClient>), PandaError> {
        PandaSystem::builder()
            .config(config)
            .launch(|_| Arc::new(MemFs::new()))
    }

    #[test]
    fn launch_and_shutdown() {
        let (system, clients) = try_launch(PandaConfig::new(2, 2)).unwrap();
        assert_eq!(clients.len(), 2);
        assert_eq!(system.num_clients(), 2);
        assert_eq!(system.num_servers(), 2);
        assert_eq!(system.filesystems.len(), 2);
        system.shutdown(clients).unwrap();
    }

    #[test]
    fn builder_checks_endpoint_count() {
        use panda_msg::{InProcFabric, Transport};
        let (eps, stats) = InProcFabric::new(2); // need 3 for 2 clients + 1 server
        let transports: Vec<Box<dyn Transport>> = eps
            .into_iter()
            .map(|e| Box::new(e) as Box<dyn Transport>)
            .collect();
        let err = PandaSystem::builder()
            .config(PandaConfig::new(2, 1))
            .transports(transports, stats)
            .launch(|_| Arc::new(MemFs::new()) as Arc<dyn panda_fs::FileSystem>)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, crate::PandaError::Config { .. }));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(try_launch(PandaConfig::new(0, 1)).is_err());
        assert!(try_launch(PandaConfig::new(1, 0)).is_err());
        assert!(try_launch(PandaConfig::new(1, 1).with_subchunk_bytes(0)).is_err());
        assert!(try_launch(PandaConfig::new(1, 1).with_pipeline_depth(0)).is_err());
        assert!(try_launch(PandaConfig::new(1, 1).with_io_workers(0)).is_err());
        let err = try_launch(PandaConfig::new(1, 1).with_disk_completion_threads(0))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(
            err,
            PandaError::Config {
                issue: crate::ConfigIssue::ZeroCompletionThreads
            }
        ));
        // A server must be able to run at least one collective.
        let err = try_launch(PandaConfig::new(1, 1).with_max_concurrent_collectives(0))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(
            err,
            PandaError::Config {
                issue: crate::ConfigIssue::ZeroConcurrentCollectives
            }
        ));
        // Per-write fsync serializes the disk stage; pipelining it is a
        // contradiction and must be rejected loudly.
        let err = try_launch(
            PandaConfig::new(1, 1)
                .with_sync_policy(SyncPolicy::PerWrite)
                .with_pipeline_depth(2),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(
            err,
            PandaError::Config {
                issue: crate::ConfigIssue::SyncPolicyConflict { pipeline_depth: 2 }
            }
        ));
        // Per-write at depth 1 is the paper's own configuration: valid.
        let (system, clients) =
            try_launch(PandaConfig::new(1, 1).with_sync_policy(SyncPolicy::PerWrite)).unwrap();
        system.shutdown(clients).unwrap();
    }
}
