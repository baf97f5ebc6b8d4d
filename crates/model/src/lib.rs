//! # panda-model — calibrated SP2 performance model for Panda
//!
//! The paper's evaluation ran on the NAS IBM SP2; this crate replays the
//! *real* Panda planner's schedule (from `panda-core::plan`) through a
//! discrete-event simulation (`panda-sim`) of that machine, calibrated
//! from the paper's Table 1:
//!
//! | parameter | value | source |
//! |---|---|---|
//! | message latency | 43 µs | Table 1, NAS-measured |
//! | message bandwidth | 34 MB/s | Table 1, NAS-measured (MPI-F peak) |
//! | AIX read peak (1 MB requests) | 2.85 MB/s | Table 1, measured |
//! | AIX write peak (1 MB requests) | 2.23 MB/s | Table 1, measured |
//! | raw disk transfer | 3.0 MB/s | Table 1 |
//! | Panda startup overhead | 0.013 s | §3 |
//!
//! Two parameters are not in the paper and are calibrated to the
//! reported throughput bands (documented in `EXPERIMENTS.md`): the
//! per-message software overhead of MPI-F for large messages, and the
//! effective memory-copy bandwidth for strided gather/scatter during
//! reorganization. The pipeline depth between subchunk assembly and
//! disk I/O defaults to 1 (no overlap): the paper *describes* double
//! buffering, but its measured natural-vs-traditional gap on a real
//! disk is only explicable if message overheads add to (rather than
//! hide behind) disk time; depth 2 is exposed as an ablation knob and
//! corresponds to the paper's "non-blocking communication" future work.
//!
//! The simulated servers replay exactly the schedule the real servers
//! execute: [`CollectiveSpec::schedule`] is the only place this crate
//! lowers a plan (a `panda_core::CollectiveSchedule`), and both the DES
//! actors and the tuner's stage sums walk its steps as they are — same
//! chunks, same subchunks, same piece regions (a read's section already
//! clipped into them at plan time), same order — so neither model holds
//! a private copy of the plan that could drift from the implementation.
//! [`simulate`] is the one-application case of [`simulate_concurrent`].

#![warn(missing_docs)]

pub mod actors;
pub mod advisor;
pub mod baseline_model;
pub mod drift;
pub mod experiment;
pub mod fit;
pub mod machine;
pub mod report;
pub mod tuner;

pub use actors::{issue_order, simulate, simulate_concurrent, CollectiveSpec, ConcurrentOutcome};
pub use drift::{service_drift_pass, DriftDetector, DriftPass, DriftReport, PhaseDrift};
pub use fit::{CostLine, DirectionCosts, FittedCosts, ProbeObservation};
pub use machine::{NetworkModel, Sp2Machine};
pub use panda_core::TunedConfig;
pub use report::SimReport;
pub use tuner::{calibrate_fleet, Calibrate, Calibration, Candidate, TunerOptions};
