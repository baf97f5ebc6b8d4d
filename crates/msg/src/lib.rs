//! # panda-msg — message-passing substrate for Panda
//!
//! Panda 2.0 "uses MPI for all communication" (paper §1). Rust MPI
//! bindings are immature, and the reproduction targets a single machine,
//! so this crate provides an MPI-shaped message-passing layer:
//!
//! * [`NodeId`] — a global rank, 0-based, spanning compute *and* I/O
//!   nodes (Panda assigns clients ranks `0..C` and servers `C..C+S`);
//! * [`Transport`] — tagged point-to-point byte messages with MPI-style
//!   selective receive (`recv_matching` by source and/or tag, buffering
//!   non-matching arrivals exactly like an MPI unexpected-message queue);
//! * [`InProcFabric`] — the production implementation: one endpoint per
//!   node, connected by unbounded crossbeam channels, suitable for
//!   one-OS-thread-per-node execution;
//! * [`FabricStats`] — message/byte counters used by tests and by the
//!   performance model's validation suite; since the unified
//!   observability layer it is a read adapter over the same
//!   [`panda_obs`] event stream the transports report into;
//! * [`freelist`] — the process-wide free-list that recycles
//!   piece-sized buffers across the data path's hops.
//!
//! Attach a [`panda_obs::Recorder`] with [`Transport::set_recorder`] to
//! get per-message `MsgSent` / `MsgReceived` events with payload sizes
//! and receive-wait latencies; with no recorder attached the transports
//! never read the clock.
//!
//! The layer is deliberately low-level (bytes, tags); the typed Panda
//! protocol lives in `panda-core`.

#![warn(missing_docs)]

pub mod envelope;
pub mod error;
pub mod freelist;
pub mod group;
pub mod inproc;
mod mailbox;
mod obs;
pub mod stats;
pub mod tcp;
pub mod transport;

pub use envelope::{Bytes, Envelope, NodeId, Payload};
pub use error::MsgError;
pub use group::Group;
pub use inproc::{InProcEndpoint, InProcFabric};
pub use stats::{FabricStats, TagCounts};
pub use tcp::{TcpEndpoint, TcpFabric};
pub use transport::{MatchSpec, Transport};
