//! The benchmark of record for the Panda collective-I/O runtime: four
//! workloads, end-to-end metrics with bounds, and per-layer metrics
//! taken from outside the program. See `README.md`.

pub mod ceilings;
pub mod json;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod suite;
pub mod timed;
pub mod workloads;
