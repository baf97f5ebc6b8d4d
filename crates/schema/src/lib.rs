//! # panda-schema — array geometry substrate for Panda
//!
//! This crate implements the array-layout machinery that the Panda 2.0
//! collective-I/O library (Seamons et al., SC '95) is built on:
//!
//! * [`Shape`] — extents of an n-dimensional array and row-major index
//!   arithmetic;
//! * [`Dist`] — HPF-style per-dimension distribution directives (`BLOCK`,
//!   `*`, and block-cyclic as an extension);
//! * [`Mesh`] — a logical processor (or I/O-node) grid;
//! * [`DataSchema`] — a complete layout: shape × element type ×
//!   distribution × mesh, yielding a [`ChunkGrid`] that tiles the array
//!   into rectangular chunks, one per mesh cell;
//! * [`Region`] — half-open rectangular index regions with intersection,
//!   used to describe chunks and the sub-chunks exchanged between Panda
//!   clients and servers;
//! * [`copy`] — strided gather/scatter kernels that move a region of data
//!   between two row-major buffers laid out for different enclosing
//!   regions (the "reorganization" machinery of the paper);
//! * [`subchunk`] — the on-the-fly subdivision of large disk chunks into
//!   ≤ 1 MB file-contiguous pieces (paper §2).
//!
//! Everything here is pure computation: no I/O, no threads. The crate is
//! the shared vocabulary of the runtime (`panda-core`) and the performance
//! model (`panda-model`), which guarantees that simulated experiments
//! replay exactly the plans the real implementation executes.

#![warn(missing_docs)]

pub mod chunking;
pub mod copy;
pub mod dist;
pub mod element;
pub mod error;
pub mod mesh;
pub mod region;
pub mod shape;
pub mod subchunk;

pub use chunking::{ChunkGrid, DataSchema};
pub use copy::{copy_region, pack_region, unpack_region};
pub use dist::Dist;
pub use element::ElementType;
pub use error::SchemaError;
pub use mesh::Mesh;
pub use region::Region;
pub use shape::Shape;
pub use subchunk::{split_into_subchunks, Subchunk};

/// The default maximum subchunk size used throughout the paper's
/// experiments: chunks larger than this are subdivided on the fly during a
/// collective operation (paper §2: "we chose a subchunk size of 1 MB for
/// all experiments in this paper").
pub const DEFAULT_SUBCHUNK_BYTES: usize = 1 << 20;
