//! # panda-bench — reproduction harness for the Panda SC '95 evaluation
//!
//! One `figures` binary regenerates every table/figure of the paper
//! (`cargo run -p panda-bench --bin figures -- <report>|all`), one
//! [`figures`] renderer per report:
//!
//! | report | regenerates |
//! |---|---|
//! | `table1` | Table 1 — system characteristics + measured AIX peaks |
//! | `fig3` … `fig9` | Figures 3–9 — aggregate & normalized throughput sweeps |
//! | `multi_array` | the multiple-array experiment described in §3 prose |
//! | `ablation` | server-directed vs two-phase vs naive vs pipeline depth |
//! | `advisor` | the schema advisor on the paper's flagship configuration |
//! | `sharing` | dedicated vs shared I/O nodes for concurrent applications |
//!
//! Each prints the paper's series (aggregate MB/s and normalized
//! throughput per array size × I/O-node count) plus the expected band
//! from the paper for comparison. Pass `--quick` to sweep a subset of
//! array sizes, `--csv` for machine-readable output, `--out-dir DIR` to
//! write `DIR/<report>.txt` instead of printing. The committed
//! `results/*.txt` are these reports byte for byte
//! (`tests/results_golden.rs`).
//!
//! Five more binaries are A/B experiments on the real runtime, each
//! writing one `results/BENCH_*.json` through [`report`] over the
//! shared [`fixtures`]: `group_timestep` (batched vs sequential group
//! writes), `disk` (backends × sync policies), `tenancy` (interleaved
//! vs sequential sessions), `tuner` (calibrated vs fixed operating
//! points) and `obs` (recorder on vs off, drift detection). They are
//! not the performance ledger — that is the standalone `benchmark/`
//! package at the repository root.

pub mod figures;
pub mod fixtures;
pub mod report;
