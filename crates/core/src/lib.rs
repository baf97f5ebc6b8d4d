//! # panda-core — Panda 2.0: server-directed collective I/O
//!
//! A Rust reproduction of the Panda 2.0 array-I/O library described in
//! K. E. Seamons, Y. Chen, P. Jones, J. Jozwiak, M. Winslett,
//! *"Server-Directed Collective I/O in Panda"*, Supercomputing 1995.
//!
//! Panda performs collective input and output of multidimensional arrays
//! for SPMD applications. Arrays are distributed across *compute nodes*
//! (Panda clients) with HPF-style `BLOCK`/`*` memory schemas and stored
//! across *I/O nodes* (Panda servers) with independent disk schemas.
//! The key idea — **server-directed I/O** — is disk-directed I/O applied
//! at the logical level: after a single high-level request describing
//! the collective operation, the I/O nodes plan and *drive* the data
//! flow, pulling (writes) or pushing (reads) array regions from/to the
//! compute nodes in exactly the order that produces sequential file
//! access on every disk.
//!
//! ## Crate layout
//!
//! * [`mod@array`] — array metadata: shape, element type, memory & disk
//!   schemas ([`ArrayMeta`]);
//! * [`group_ops`] — the paper's application-facing API (Figure 2):
//!   [`ArrayGroup`] with `timestep` / `checkpoint` / `restart`;
//! * [`plan`] — the server-directed planner: round-robin chunk
//!   assignment, 1 MB subchunk schedules, client intersection lists,
//!   and the [`CollectiveSchedule`] lowering that flattens a whole
//!   request (one array or many) into the step stream the server's
//!   staged engine executes. Shared verbatim with the performance model
//!   in `panda-model`;
//! * [`window`] — *when* each step of that stream may start: the
//!   depth-`d` collective window as a state machine without bytes,
//!   sockets or a clock ([`Window`]), driven by [`server`] with real
//!   messages and by `panda-model`'s DES under the virtual clock;
//! * [`protocol`] + [`encode`] — the client/server message set, written
//!   down once as a table of rows, and the [`encode::Wire`] trait each
//!   field encodes itself through;
//! * [`client`], [`server`], [`runtime`] — the threaded runtime over
//!   `panda-msg` transports and `panda-fs` file systems; every
//!   collective, at every pipeline depth and in both directions, runs
//!   through the server's one schedule engine (see [`server`]);
//! * [`baseline`] — comparison strategies from the paper's related-work
//!   discussion: naive client-directed I/O (traditional caching) and
//!   two-phase I/O \[Bordawekar93\].
//!
//! ## Observability
//!
//! Attach a [`panda_obs::Recorder`] with [`PandaConfig::with_recorder`]
//! and every layer reports into it: transports emit per-message events,
//! file systems per-call disk times, and the client/server runtime the
//! collective-path phases (fetch/exchange, disk, reorganization) keyed
//! by `(server, array, subchunk)`. [`PandaSystem::report`] aggregates
//! the recorder into one machine-readable [`panda_obs::RunReport`] with
//! the paper's Figure 5/6-style time decomposition. The default
//! [`panda_obs::NullRecorder`] keeps all of this strictly off the hot
//! path — no clock reads, no allocation.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use panda_core::{ArrayMeta, PandaConfig, PandaSystem, WriteSet};
//! use panda_schema::{DataSchema, ElementType, Mesh, Shape};
//! use panda_fs::MemFs;
//!
//! // A 16x16 f64 array, BLOCK,BLOCK over 4 clients, stored in
//! // traditional order across 2 I/O nodes.
//! let shape = Shape::new(&[16, 16]).unwrap();
//! let memory = DataSchema::block_all(shape.clone(), ElementType::F64,
//!     Mesh::new(&[2, 2]).unwrap()).unwrap();
//! let disk = DataSchema::traditional_order(shape, ElementType::F64, 2).unwrap();
//! let meta = ArrayMeta::new("temperature", memory, disk).unwrap();
//!
//! let (system, clients) = PandaSystem::builder()
//!     .config(PandaConfig::new(4, 2))
//!     .launch(|_| Arc::new(MemFs::new()))
//!     .unwrap();
//!
//! // Each client runs in its own thread in a real application; here we
//! // drive them from one thread via the collective helper.
//! let datas: Vec<Vec<u8>> = (0..4)
//!     .map(|r| vec![r as u8 + 1; meta.client_bytes(r)])
//!     .collect();
//! let mut handles: Vec<_> = clients.into_iter().collect();
//! std::thread::scope(|s| {
//!     for (client, data) in handles.iter_mut().zip(&datas) {
//!         let meta = &meta;
//!         s.spawn(move || {
//!             let set = WriteSet::new().array(meta, "temperature", data);
//!             client.write_set(&set).unwrap()
//!         });
//!     }
//! });
//! system.shutdown(handles).unwrap();
//! ```
//!
//! For the multi-tenant service mode — many independent sessions
//! submitting collectives that interleave on the same I/O nodes — see
//! the [`session`] module.

#![warn(missing_docs)]

pub mod array;
pub mod baseline;
pub mod client;
pub mod encode;
pub mod error;
pub mod group_ops;
pub mod health;
pub mod plan;
pub mod pool;
pub mod protocol;
pub mod request;
pub mod runtime;
pub mod scrape;
pub mod server;
pub mod session;
pub mod tuned;
pub mod window;

pub use array::ArrayMeta;
pub use client::PandaClient;
pub use error::{AdmissionIssue, ConfigIssue, PandaError};
pub use group_ops::{ArrayGroup, CollectiveHandle, GroupData};
pub use health::{HealthSnapshot, HealthStatus, ServerHealth, ServiceHealth};
pub use plan::{build_server_plan, CollectiveSchedule, ScheduleFile, ScheduleStep, ServerPlan};
pub use pool::IoPool;
pub use protocol::OpKind;
pub use request::{ReadSet, WriteSet};
pub use runtime::{PandaConfig, PandaSystem, PandaSystemBuilder};
pub use scrape::MetricsServer;
pub use session::{PandaService, Session};
pub use tuned::TunedConfig;
pub use window::{Action, Input, Window};
