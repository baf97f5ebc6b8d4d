//! The paper's experiment grid (§3), expressed as reusable builders.
//!
//! Arrays are `N x 512 x 512` f32 — `N` megabytes exactly, matching the
//! paper's 16–512 MB range (its "512 MB array of size 512x512x512" is
//! 512³ 4-byte elements). Compute meshes follow the paper: 8 = 2x2x2,
//! 16 = 4x2x2, 24 = 6x2x2, 32 = 4x4x2.

use panda_core::{ArrayMeta, OpKind};
use panda_schema::{DataSchema, ElementType, Mesh, Shape};

use crate::actors::{simulate, CollectiveSpec};
use crate::machine::Sp2Machine;
use crate::report::SimReport;

/// The array sizes swept in every figure, in MB.
pub const PAPER_SIZES_MB: [usize; 6] = [16, 32, 64, 128, 256, 512];

/// Compute mesh for a paper node count (8, 16, 24, or 32).
pub fn compute_mesh(nodes: usize) -> Vec<usize> {
    match nodes {
        8 => vec![2, 2, 2],
        16 => vec![4, 2, 2],
        24 => vec![6, 2, 2],
        32 => vec![4, 4, 2],
        _ => panic!("the paper uses 8/16/24/32 compute nodes, not {nodes}"),
    }
}

/// Disk-schema choice for an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskKind {
    /// Natural chunking: disk schema == memory schema.
    Natural,
    /// Traditional order: `BLOCK,*,*` over the I/O nodes.
    Traditional,
}

/// Build the experiment array: `mb x 512 x 512` f32 distributed
/// `BLOCK,BLOCK,BLOCK` over `compute_nodes`, with the chosen disk
/// schema over `io_nodes`.
pub fn paper_array(mb: usize, compute_nodes: usize, io_nodes: usize, disk: DiskKind) -> ArrayMeta {
    let shape = Shape::new(&[mb, 512, 512]).unwrap();
    let mesh = Mesh::new(&compute_mesh(compute_nodes)).unwrap();
    let memory = DataSchema::block_all(shape.clone(), ElementType::F32, mesh).unwrap();
    match disk {
        DiskKind::Natural => ArrayMeta::natural("array", memory).unwrap(),
        DiskKind::Traditional => {
            let disk = DataSchema::traditional_order(shape, ElementType::F32, io_nodes).unwrap();
            ArrayMeta::new("array", memory, disk).unwrap()
        }
    }
}

/// One cell of a figure: an (I/O nodes, array size) combination.
#[derive(Debug, Clone)]
pub struct FigPoint {
    /// Number of I/O nodes.
    pub io_nodes: usize,
    /// Array size in MB.
    pub array_mb: usize,
    /// Simulated outcome.
    pub report: SimReport,
}

/// Full specification of one figure's sweep.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// Figure number in the paper (3..=9).
    pub figure: u32,
    /// Human description, printed by the harness.
    pub title: &'static str,
    /// The band the paper reports for this figure, printed beside it.
    pub band: &'static str,
    /// Compute nodes.
    pub compute_nodes: usize,
    /// I/O node counts on the x-axis.
    pub io_node_counts: &'static [usize],
    /// Disk schema.
    pub disk: DiskKind,
    /// Read or write.
    pub op: OpKind,
    /// Infinitely fast disk?
    pub fast_disk: bool,
}

/// The paper's seven figures, one row each: figure, compute nodes, I/O
/// node counts, disk schema, direction, fast disk, title, paper band.
#[rustfmt::skip]
type FigureRow = (u32, usize, &'static [usize], DiskKind, OpKind, bool, &'static str, &'static str);
#[rustfmt::skip]
const FIGURES: [FigureRow; 7] = {
    use DiskKind::{Natural, Traditional};
    use OpKind::{Read, Write};
    [
        (3, 8, &[2, 4, 8], Natural, Read, false,
         "reading 16-512 MB arrays, 8 compute nodes, natural chunking",
         "85-98% of peak AIX read throughput per i/o node"),
        (4, 8, &[2, 4, 8], Natural, Write, false,
         "writing 16-512 MB arrays, 8 compute nodes, natural chunking",
         "85-98% of peak AIX write throughput per i/o node"),
        (5, 32, &[2, 4, 8], Natural, Read, true,
         "reading, 32 compute nodes, natural chunking, infinitely fast disk",
         "~90% of peak MPI bandwidth, declining at small sizes (startup)"),
        (6, 32, &[2, 4, 8], Natural, Write, true,
         "writing, 32 compute nodes, natural chunking, infinitely fast disk",
         "~90% of peak MPI bandwidth, declining at small sizes (startup)"),
        (7, 32, &[2, 4, 6, 8], Traditional, Read, false,
         "reading, 32 compute nodes, traditional order on disk",
         "68-95% of peak AIX read throughput per i/o node"),
        (8, 32, &[2, 4, 6, 8], Traditional, Write, false,
         "writing, 32 compute nodes, traditional order on disk",
         "68-95% of peak AIX write throughput per i/o node"),
        (9, 16, &[2, 4, 6, 8], Traditional, Write, true,
         "writing, 16 compute nodes, traditional order, infinitely fast disk",
         "38-86% of peak MPI bandwidth (reorganization cost visible)"),
    ]
};

/// The paper's figure `figure` (3..=9).
pub fn figure_spec(figure: u32) -> FigureSpec {
    let &(figure, compute_nodes, io_node_counts, disk, op, fast_disk, title, band) = FIGURES
        .iter()
        .find(|row| row.0 == figure)
        .expect("the paper's evaluation figures are 3..=9");
    FigureSpec {
        figure,
        title,
        band,
        compute_nodes,
        io_node_counts,
        disk,
        op,
        fast_disk,
    }
}

/// Run a figure's sweep over custom sizes (tests use a subset).
pub fn run_figure_sized(
    machine: &Sp2Machine,
    spec: &FigureSpec,
    sizes_mb: &[usize],
) -> Vec<FigPoint> {
    let mut out = Vec::new();
    for &io_nodes in spec.io_node_counts {
        for &mb in sizes_mb {
            let array = paper_array(mb, spec.compute_nodes, io_nodes, spec.disk);
            let report = simulate(
                machine,
                &CollectiveSpec {
                    arrays: vec![array],
                    op: spec.op,
                    num_servers: io_nodes,
                    subchunk_bytes: 1 << 20,
                    fast_disk: spec.fast_disk,
                    section: None,
                },
            );
            out.push(FigPoint {
                io_nodes,
                array_mb: mb,
                report,
            });
        }
    }
    out
}

/// The multiple-array experiment the paper describes in prose (§3): a
/// timestep collective over a group of three arrays.
pub fn multi_array_spec(mb_each: usize, compute_nodes: usize, io_nodes: usize) -> CollectiveSpec {
    let arrays = (0..3)
        .map(|_| paper_array(mb_each, compute_nodes, io_nodes, DiskKind::Natural))
        .collect();
    CollectiveSpec {
        arrays,
        op: OpKind::Write,
        num_servers: io_nodes,
        subchunk_bytes: 1 << 20,
        fast_disk: false,
        section: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meshes_match_paper() {
        assert_eq!(compute_mesh(8), vec![2, 2, 2]);
        assert_eq!(compute_mesh(16), vec![4, 2, 2]);
        assert_eq!(compute_mesh(24), vec![6, 2, 2]);
        assert_eq!(compute_mesh(32), vec![4, 4, 2]);
    }

    #[test]
    fn paper_array_sizes_are_exact_megabytes() {
        for mb in PAPER_SIZES_MB {
            let a = paper_array(mb, 8, 4, DiskKind::Natural);
            assert_eq!(a.total_bytes(), mb << 20);
        }
    }

    #[test]
    fn all_figures_have_specs() {
        for f in 3..=9 {
            let s = figure_spec(f);
            assert_eq!(s.figure, f);
            assert!(!s.io_node_counts.is_empty());
        }
    }

    #[test]
    fn figure4_band_matches_paper() {
        // Paper: writes under natural chunking run at 85-98 % of peak
        // AIX throughput per I/O node. Allow a slightly wider modeled
        // band at the extreme small end.
        let m = Sp2Machine::nas_sp2();
        let pts = run_figure_sized(&m, &figure_spec(4), &[64, 256, 512]);
        for p in &pts {
            assert!(
                p.report.normalized > 0.80 && p.report.normalized <= 1.0,
                "fig4 io={} mb={} normalized={}",
                p.io_nodes,
                p.array_mb,
                p.report.normalized
            );
        }
    }

    #[test]
    fn figure9_shows_reorganization_cost() {
        // Paper: 38-86 % of peak MPI bandwidth once the disk is free.
        let m = Sp2Machine::nas_sp2();
        let pts = run_figure_sized(&m, &figure_spec(9), &[64, 512]);
        for p in &pts {
            assert!(
                p.report.normalized > 0.30 && p.report.normalized < 0.90,
                "fig9 io={} mb={} normalized={}",
                p.io_nodes,
                p.array_mb,
                p.report.normalized
            );
        }
        // And it is visibly below the natural-chunking fast-disk band.
        let nat = run_figure_sized(&m, &figure_spec(6), &[512]);
        assert!(pts
            .iter()
            .all(|p| p.report.normalized < nat[0].report.normalized));
    }

    #[test]
    fn multi_array_throughput_similar_to_single() {
        let m = Sp2Machine::nas_sp2();
        let multi = simulate(&m, &multi_array_spec(64, 8, 4));
        let single = simulate(
            &m,
            &CollectiveSpec {
                arrays: vec![paper_array(192, 8, 4, DiskKind::Natural)],
                op: OpKind::Write,
                num_servers: 4,
                subchunk_bytes: 1 << 20,
                fast_disk: false,
                section: None,
            },
        );
        let ratio = multi.aggregate_mbs / single.aggregate_mbs;
        assert!(ratio > 0.9 && ratio < 1.1, "ratio {ratio}");
    }
}
