//! # panda-bench — reproduction harness for the Panda SC '95 evaluation
//!
//! One binary per table/figure of the paper:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — system characteristics + measured AIX peaks |
//! | `fig3` … `fig9` | Figures 3–9 — aggregate & normalized throughput sweeps |
//! | `multi_array` | the multiple-array experiment described in §3 prose |
//! | `ablation` | server-directed vs two-phase vs naive vs pipeline depth |
//!
//! Each prints the paper's series (aggregate MB/s and normalized
//! throughput per array size × I/O-node count) plus the expected band
//! from the paper for comparison. Pass `--quick` to sweep a subset of
//! array sizes, `--csv` for machine-readable output.
//!
//! Five more binaries are A/B experiments on the real runtime, each
//! writing one `results/BENCH_*.json` through [`report`] over the
//! shared [`fixtures`]: `group_timestep` (batched vs sequential group
//! writes), `disk` (backends × sync policies), `tenancy` (interleaved
//! vs sequential sessions), `tuner` (calibrated vs fixed operating
//! points) and `obs` (recorder on vs off, drift detection). They are
//! not the performance ledger — that is the standalone `benchmark/`
//! package at the repository root.

use panda_model::experiment::{FigPoint, FigureSpec, PAPER_SIZES_MB};
use panda_model::Sp2Machine;

pub mod fixtures;
pub mod report;

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone, Default)]
pub struct HarnessOpts {
    /// Sweep only {16, 128, 512} MB instead of the full ladder.
    pub quick: bool,
    /// Emit CSV instead of aligned tables.
    pub csv: bool,
}

impl HarnessOpts {
    /// Parse from `std::env::args`.
    pub fn from_args() -> Self {
        let mut opts = HarnessOpts::default();
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--csv" => opts.csv = true,
                other => {
                    eprintln!("unknown option {other}; supported: --quick --csv");
                    std::process::exit(2);
                }
            }
        }
        opts
    }

    /// The array sizes to sweep.
    pub fn sizes(&self) -> Vec<usize> {
        if self.quick {
            vec![16, 128, 512]
        } else {
            PAPER_SIZES_MB.to_vec()
        }
    }
}

/// Render one figure's results the way the paper plots them: aggregate
/// throughput and normalized throughput per (I/O nodes, array size).
pub fn print_figure(spec: &FigureSpec, points: &[FigPoint], expected_band: &str, csv: bool) {
    if csv {
        println!("figure,io_nodes,array_mb,elapsed_s,aggregate_mbs,per_io_node_mbs,normalized");
        for p in points {
            println!(
                "{},{},{},{:.4},{:.3},{:.3},{:.3}",
                spec.figure,
                p.io_nodes,
                p.array_mb,
                p.report.elapsed,
                p.report.aggregate_mbs,
                p.report.per_io_node_mbs,
                p.report.normalized
            );
        }
        return;
    }
    println!("Figure {}: {}", spec.figure, spec.title);
    println!("(paper band: {expected_band})");
    println!();

    let sizes: Vec<usize> = {
        let mut s: Vec<usize> = points.iter().map(|p| p.array_mb).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    let io_counts: Vec<usize> = {
        let mut s: Vec<usize> = points.iter().map(|p| p.io_nodes).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    let lookup = |io: usize, mb: usize| -> &FigPoint {
        points
            .iter()
            .find(|p| p.io_nodes == io && p.array_mb == mb)
            .expect("complete grid")
    };

    for (title, f) in [
        (
            "aggregate throughput (MB/s)",
            (|p: &FigPoint| p.report.aggregate_mbs) as fn(&FigPoint) -> f64,
        ),
        ("normalized throughput", |p: &FigPoint| p.report.normalized),
    ] {
        println!("{title}:");
        print!("{:>10}", "array");
        for io in &io_counts {
            print!(
                "{:>12}",
                format!("{io} i/o node") + if *io == 1 { "" } else { "s" }
            );
        }
        println!();
        for mb in &sizes {
            print!("{:>10}", format!("{mb} MB"));
            for io in &io_counts {
                print!("{:>12.2}", f(lookup(*io, *mb)));
            }
            println!();
        }
        println!();
    }
}

/// Shared main for the `fig3`..`fig9` binaries.
pub fn figure_main(figure: u32, expected_band: &str) {
    let opts = HarnessOpts::from_args();
    let machine = Sp2Machine::nas_sp2();
    let spec = panda_model::experiment::figure_spec(figure);
    let points = panda_model::experiment::run_figure_sized(&machine, &spec, &opts.sizes());
    print_figure(&spec, &points, expected_band, opts.csv);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sizes_subset_full() {
        let quick = HarnessOpts {
            quick: true,
            csv: false,
        };
        for s in quick.sizes() {
            assert!(PAPER_SIZES_MB.contains(&s));
        }
        assert_eq!(HarnessOpts::default().sizes(), PAPER_SIZES_MB.to_vec());
    }

    #[test]
    fn print_figure_smoke() {
        // Rendering a tiny sweep must not panic.
        let machine = Sp2Machine::nas_sp2();
        let spec = panda_model::experiment::figure_spec(4);
        let points = panda_model::experiment::run_figure_sized(&machine, &spec, &[16]);
        print_figure(&spec, &points, "85-98%", false);
        print_figure(&spec, &points, "85-98%", true);
    }
}
