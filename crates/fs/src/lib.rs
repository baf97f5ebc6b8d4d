//! # panda-fs — file-system substrate for Panda
//!
//! Panda "runs on top of ordinary Unix file systems" (paper §1); each I/O
//! node stores its array chunks in its own AIX file system on the SP2.
//! This crate provides the corresponding abstraction plus the cost model
//! used by the performance harness:
//!
//! * [`FileSystem`] / [`FileHandle`] — positioned read/write/sync over
//!   named files, one instance per I/O node; [`create_sized`] opens a
//!   file for a writer that will overwrite all of it, keeping one that
//!   is already the right length (a checkpoint file is paid for once);
//! * [`MemFs`] — in-memory backend for deterministic tests;
//! * [`LocalFs`] — real files under a root directory (the examples use
//!   it; integration tests verify on-disk traditional order);
//! * [`SubmitFs`] — real files behind an io_uring-style submission
//!   queue: writes are queued and completed by a pool of completion
//!   threads, so the disk stage can run ahead of the device; paired
//!   with [`SyncPolicy`] for per-write / per-file / per-collective
//!   fsync semantics;
//! * [`NullFs`] — the paper's "infinitely fast disk": the same trick the
//!   authors used of commenting out the file-system calls, packaged as a
//!   backend that discards writes and fabricates reads;
//! * [`ThrottledFs`] — the opposite: a decorator that makes any backend
//!   take realistic device time per access (including the Table 1 AIX
//!   disk as wall-clock time), so disk/exchange overlap is measurable
//!   on fast modern storage;
//! * [`IoStats`] — per-backend operation counters with *sequentiality
//!   accounting*: every positioned access is classified as sequential
//!   (continues the previous access on that handle) or as a seek. The
//!   whole point of server-directed I/O is to turn collective requests
//!   into sequential file access, and this is how the test suite proves
//!   it does;
//! * [`AixModel`] — the calibrated AIX file-system cost curve from the
//!   paper's Table 1, used by `panda-model` to convert the byte stream of
//!   a simulated run into elapsed time.
//!
//! ## Observability
//!
//! Every backend reports its accesses through the unified
//! [`panda_obs::Recorder`] API: `FsRead` / `FsWrite` / `FsSync` events
//! carrying offset, size, sequentiality, and (when a recorder is
//! attached) per-call device time. Attach one with the `with_recorder`
//! constructors or [`FileSystem::set_recorder`]; [`IoStats`] is a thin
//! adapter over the same event stream.

#![warn(missing_docs)]

pub mod aix;
pub mod error;
pub mod local;
pub mod mem;
pub mod null;
mod obs;
mod root;
pub mod stats;
pub mod submit;
pub mod throttle;
pub mod traits;

pub use aix::AixModel;
pub use error::FsError;
pub use local::LocalFs;
pub use mem::MemFs;
pub use null::NullFs;
pub use stats::IoStats;
pub use submit::SubmitFs;
pub use throttle::ThrottledFs;
pub use traits::{create_sized, FileHandle, FileSystem, SyncPolicy};
