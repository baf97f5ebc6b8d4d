//! The twelve deterministic model reports behind `results/*.txt`.
//!
//! Each report is a function returning the file's text, so the
//! `figures` binary that prints them and the golden test that pins the
//! committed files (`tests/results_golden.rs`) share one renderer.
//! [`REPORTS`] names them; [`render`] dispatches.

use panda_core::{ArrayMeta, OpKind};
use panda_fs::aix::{IoDirection, MB};
use panda_model::advisor::flagship_report;
use panda_model::baseline_model::{model_naive, model_two_phase};
use panda_model::experiment::{
    figure_spec, multi_array_spec, paper_array, run_figure_sized, DiskKind, FigPoint, FigureSpec,
    PAPER_SIZES_MB,
};
use panda_model::{simulate, simulate_concurrent, CollectiveSpec, Sp2Machine};

/// Every report, in `results/README.md` order; `results/<name>.txt` is
/// `render(name, &HarnessOpts::default())`.
pub const REPORTS: [&str; 12] = [
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "multi_array",
    "ablation",
    "advisor",
    "sharing",
];

/// Options of the figure sweeps (`fig3`..`fig9`; the other reports have
/// none).
#[derive(Debug, Clone, Default)]
pub struct HarnessOpts {
    /// Sweep only {16, 128, 512} MB instead of the full ladder.
    pub quick: bool,
    /// Emit CSV instead of aligned tables.
    pub csv: bool,
}

impl HarnessOpts {
    /// The array sizes to sweep.
    pub fn sizes(&self) -> Vec<usize> {
        if self.quick {
            vec![16, 128, 512]
        } else {
            PAPER_SIZES_MB.to_vec()
        }
    }
}

/// Render report `name` (one of [`REPORTS`]); `None` for any other name.
pub fn render(name: &str, opts: &HarnessOpts) -> Option<String> {
    Some(match name {
        "table1" => table1(),
        "multi_array" => multi_array(),
        "ablation" => ablation(),
        "advisor" => flagship_report(),
        "sharing" => sharing(),
        fig => {
            let number = fig.strip_prefix("fig")?.parse().ok()?;
            if !(3..=9).contains(&number) {
                return None;
            }
            let spec = figure_spec(number);
            let points = run_figure_sized(&Sp2Machine::nas_sp2(), &spec, &opts.sizes());
            figure(&spec, &points, opts.csv)
        }
    })
}

/// One figure's results the way the paper plots them: aggregate
/// throughput and normalized throughput per (I/O nodes, array size).
pub fn figure(spec: &FigureSpec, points: &[FigPoint], csv: bool) -> String {
    let mut out = String::new();
    if csv {
        out.push_str(
            "figure,io_nodes,array_mb,elapsed_s,aggregate_mbs,per_io_node_mbs,normalized\n",
        );
        for p in points {
            out.push_str(&format!(
                "{},{},{},{:.4},{:.3},{:.3},{:.3}\n",
                spec.figure,
                p.io_nodes,
                p.array_mb,
                p.report.elapsed,
                p.report.aggregate_mbs,
                p.report.per_io_node_mbs,
                p.report.normalized
            ));
        }
        return out;
    }
    out.push_str(&format!(
        "Figure {}: {}\n(paper band: {})\n\n",
        spec.figure, spec.title, spec.band
    ));

    let sorted = |key: fn(&FigPoint) -> usize| -> Vec<usize> {
        let mut s: Vec<usize> = points.iter().map(key).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    let sizes = sorted(|p| p.array_mb);
    let io_counts = sorted(|p| p.io_nodes);
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
        out.push_str(&format!("{title}:\n"));
        out.push_str(&format!("{:>10}", "array"));
        for io in &io_counts {
            let plural = if *io == 1 { "" } else { "s" };
            out.push_str(&format!("{:>12}", format!("{io} i/o node{plural}")));
        }
        out.push('\n');
        for mb in &sizes {
            out.push_str(&format!("{:>10}", format!("{mb} MB")));
            for io in &io_counts {
                out.push_str(&format!("{:>12.2}", f(lookup(*io, *mb))));
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Table 1: the NAS IBM SP2 system characteristics, with the "measured"
/// AIX file-system peaks re-derived from the calibrated cost model
/// exactly the way the paper measured them — reading/writing a 32 MB
/// and a 64 MB file with 1 MB requests and reporting throughput.
fn table1() -> String {
    let m = Sp2Machine::nas_sp2();
    // The paper's methodology: access a file of `file_mb` MB in 1 MB
    // requests; throughput = size / total time.
    let measured_peak = |file_mb: usize, dir: IoDirection| {
        let total: f64 = (0..file_mb).map(|_| m.disk.access_time(1 << 20, dir)).sum();
        format!("{:.2} MB/s", file_mb as f64 / total)
    };
    let rows: Vec<(&str, String)> = vec![
        ("Total number of nodes", "160 nodes".into()),
        ("Each node", "RS6000/590 workstation".into()),
        ("Each processor", "66.7 MHz, POWER2 multi-chip RISC".into()),
        ("Node operating system", "AIX operating system".into()),
        ("Total memory per node", "128 MB".into()),
        ("Total disk space per node", "2 GB".into()),
        (
            "High-performance switch bandwidth (hardware)",
            "40 MB/s, bidirectional".into(),
        ),
        (
            "Disk peak transfer rate",
            format!("{:.1} MB/s", m.disk.raw_bandwidth / MB),
        ),
        ("I/O bus", "SCSI".into()),
        ("I/O bus peak transfer rate", "10 MB/s".into()),
        ("Node file system block size", "4 KB".into()),
        (
            "Measured peak throughput for AIX file system reads (32 MB file)",
            measured_peak(32, IoDirection::Read),
        ),
        (
            "Measured peak throughput for AIX file system reads (64 MB file)",
            measured_peak(64, IoDirection::Read),
        ),
        (
            "Measured peak throughput for AIX file system writes (32 MB file)",
            measured_peak(32, IoDirection::Write),
        ),
        (
            "Measured peak throughput for AIX file system writes (64 MB file)",
            measured_peak(64, IoDirection::Write),
        ),
        (
            "NAS-measured message passing latency",
            format!("{:.0} microseconds", m.net.latency * 1e6),
        ),
        (
            "NAS-measured message passing bandwidth",
            format!("{:.0} MB/s", m.net.bandwidth / MB),
        ),
    ];
    let mut out = String::new();
    out.push_str(
        "Table 1: The system characteristics of the NAS IBM SP2\n\
         (static values quoted from the paper; measured values re-derived\n\
         \x20from the calibrated cost model using the paper's methodology)\n\n",
    );
    for (k, v) in rows {
        out.push_str(&format!("{k:<64} {v}\n"));
    }
    out.push_str(
        "\n\
         paper reference: 2.85 MB/s read peak, 2.23 MB/s write peak, 43 us / 34 MB/s messaging\n",
    );
    out
}

/// A single-array write collective at the real (AIX-model) or an
/// infinitely fast disk.
fn write_spec(
    array: ArrayMeta,
    num_servers: usize,
    subchunk_bytes: usize,
    fast_disk: bool,
) -> CollectiveSpec {
    CollectiveSpec {
        arrays: vec![array],
        op: OpKind::Write,
        num_servers,
        subchunk_bytes,
        fast_disk,
        section: None,
    }
}

/// The multiple-array experiment the paper reports in §3 prose:
/// "Panda achieves high throughputs reading and writing multiple
/// arrays, similar to the throughput for single arrays, when the size
/// of array chunks is large enough so that MPI latency is not a
/// bottleneck."
///
/// A timestep-style collective over a group of three arrays against a
/// single array of the same total size, for chunk sizes from
/// latency-bound (tiny) to bandwidth-bound.
fn multi_array() -> String {
    let machine = Sp2Machine::nas_sp2();
    let mut out = String::new();
    out.push_str(
        "Multiple-array collectives vs single array (write, natural chunking,\n\
         8 compute nodes, 4 i/o nodes; group = 3 arrays of the listed size)\n\n",
    );
    out.push_str(&format!(
        "{:>14} {:>16} {:>16} {:>8}\n",
        "MB per array", "group MB/s", "single MB/s", "ratio"
    ));
    for mb_each in [2usize, 4, 8, 16, 64, 128] {
        let multi = simulate(&machine, &multi_array_spec(mb_each, 8, 4));
        let single_array = paper_array(3 * mb_each, 8, 4, DiskKind::Natural);
        let single = simulate(&machine, &write_spec(single_array, 4, 1 << 20, false));
        out.push_str(&format!(
            "{:>14} {:>16.2} {:>16.2} {:>8.3}\n",
            mb_each,
            multi.aggregate_mbs,
            single.aggregate_mbs,
            multi.aggregate_mbs / single.aggregate_mbs
        ));
    }
    out.push_str(
        "\n\
         expected shape: ratio ~1.0 for large chunks; multi-array overhead only\n\
         visible at very small chunk sizes where per-collective startup and MPI\n\
         latency dominate.\n",
    );
    out
}

/// Ablation study (not a paper figure; supported by the paper's §4
/// related-work comparison and its stated future work):
///
/// 1. strategy: server-directed vs two-phase \[Bordawekar93\] vs naive
///    client-directed I/O (the traditional-caching access pattern) —
///    modeled elapsed time and seek counts on identical workloads;
/// 2. pipelining: subchunk pipeline depth 1 (blocking, the calibrated
///    default) vs depth 2 (double buffering / the paper's "non-blocking
///    communication" future work);
/// 3. subchunk size.
fn ablation() -> String {
    let machine = Sp2Machine::nas_sp2();
    let machine_depth2 = Sp2Machine::nas_sp2().with_pipeline_depth(2);
    let mut out = String::new();

    out.push_str(
        "Ablation 1: I/O strategy (write, 8 compute nodes, 4 i/o nodes,\n\
         traditional order on disk, real AIX-model disks)\n\n",
    );
    out.push_str(&format!(
        "{:>10} {:>18} {:>14} {:>12} {:>10}\n",
        "array MB", "strategy", "elapsed (s)", "agg MB/s", "seeks"
    ));
    for mb in [16usize, 64, 256] {
        let array = paper_array(mb, 8, 4, DiskKind::Traditional);
        let sd = simulate(&machine, &write_spec(array.clone(), 4, 1 << 20, false));
        let tp = model_two_phase(&machine, &array, 4, OpKind::Write, 1 << 20);
        let nv = model_naive(&machine, &array, 4, OpKind::Write);
        for (strategy, elapsed, aggregate_mbs, seeks) in [
            ("server-directed", sd.elapsed, sd.aggregate_mbs, 0),
            ("two-phase", tp.elapsed, tp.aggregate_mbs, tp.seeks),
            ("naive", nv.elapsed, nv.aggregate_mbs, nv.seeks),
        ] {
            out.push_str(&format!(
                "{mb:>10} {strategy:>18} {elapsed:>14.2} {aggregate_mbs:>12.2} {seeks:>10}\n"
            ));
        }
    }
    out.push_str(
        "\n\
         expected shape: naive loses badly (seek-bound small strided writes);\n\
         two-phase and server-directed are comparable in time, but server-\n\
         directed needs no chunk staging memory on compute nodes and zero seeks.\n\n",
    );

    out.push_str(
        "Ablation 2: subchunk pipeline depth (write, natural chunking,\n\
         8 compute nodes, 4 i/o nodes)\n\n",
    );
    out.push_str(&format!(
        "{:>10} {:>14} {:>14} {:>10}\n",
        "array MB", "depth 1 (s)", "depth 2 (s)", "speedup"
    ));
    for mb in [16usize, 64, 256] {
        let spec = write_spec(paper_array(mb, 8, 4, DiskKind::Natural), 4, 1 << 20, false);
        let d1 = simulate(&machine, &spec);
        let d2 = simulate(&machine_depth2, &spec);
        out.push_str(&format!(
            "{:>10} {:>14.2} {:>14.2} {:>10.3}\n",
            mb,
            d1.elapsed,
            d2.elapsed,
            d1.elapsed / d2.elapsed
        ));
    }
    out.push_str(
        "\n\
         expected shape: depth 2 hides the network phase behind the disk,\n\
         approaching the pure AIX-peak bound (the paper's non-blocking-\n\
         communication future work).\n",
    );

    out.push_str(
        "\n\
         Ablation 3: subchunk size (write, natural chunking, 8/4 nodes, 64 MB)\n\n",
    );
    out.push_str(&format!(
        "{:>14} {:>14} {:>12}\n",
        "subchunk", "elapsed (s)", "agg MB/s"
    ));
    for cap_kb in [64usize, 256, 1024, 4096] {
        let array = paper_array(64, 8, 4, DiskKind::Natural);
        let r = simulate(&machine, &write_spec(array, 4, cap_kb << 10, false));
        out.push_str(&format!(
            "{:>14} {:>14.2} {:>12.2}\n",
            format!("{cap_kb} KB"),
            r.elapsed,
            r.aggregate_mbs
        ));
    }
    out.push_str(
        "\n\
         expected shape: small subchunks lose to per-operation overheads (AIX\n\
         small-write penalty); beyond ~1 MB returns diminish while buffer memory\n\
         grows — the paper chose 1 MB after the same experiment.\n",
    );
    out
}

/// I/O-node sharing study — the paper's §5 closing question: "as Panda
/// makes it possible for each application on the SP2 to have its own
/// dedicated set of i/o nodes, we are curious about the impact of i/o
/// node sharing on i/o-intensive applications."
///
/// Two applications issue collectives concurrently: each with a
/// dedicated set of I/O nodes against both sharing one set of the same
/// total size, across disk-bound and network-bound regimes.
fn sharing() -> String {
    let machine = Sp2Machine::nas_sp2();
    let spec = |mb: usize, servers: usize, fast: bool| {
        let array = paper_array(mb, 8, servers, DiskKind::Natural);
        write_spec(array, servers, 1 << 20, fast)
    };
    let mut out = String::new();
    out.push_str("Two concurrent 64 MB write collectives (8 compute nodes each):\n\n");
    out.push_str(&format!(
        "{:<44} {:>12} {:>12} {:>10}\n",
        "configuration", "app A (s)", "app B (s)", "slowdown"
    ));

    for (label, fast) in [
        ("real AIX-model disks", false),
        ("infinitely fast disks", true),
    ] {
        // Dedicated: each app owns 2 I/O nodes.
        let dedicated =
            simulate_concurrent(&machine, &[spec(64, 2, fast), spec(64, 2, fast)], false);
        // Shared: both apps contend for the SAME 4 I/O nodes (equal
        // total hardware).
        let shared = simulate_concurrent(&machine, &[spec(64, 4, fast), spec(64, 4, fast)], true);
        out.push_str(&format!(
            "{:<44} {:>12.2} {:>12.2} {:>10}\n",
            format!("{label}: dedicated 2+2"),
            dedicated[0].elapsed,
            dedicated[1].elapsed,
            "1.00x"
        ));
        out.push_str(&format!(
            "{:<44} {:>12.2} {:>12.2} {:>9.2}x\n",
            format!("{label}: shared 4"),
            shared[0].elapsed,
            shared[1].elapsed,
            shared[0].elapsed / dedicated[0].elapsed
        ));
    }

    out.push_str(
        "\n\
         And an asymmetric mix: a big checkpoint next to a small dump, sharing 4\n\
         i/o nodes vs the small app alone on them:\n",
    );
    let alone = simulate_concurrent(&machine, &[spec(16, 4, false)], false);
    let mixed = simulate_concurrent(&machine, &[spec(16, 4, false), spec(256, 4, false)], true);
    out.push_str(&format!(
        "  small app alone: {:.2} s; sharing with a 256 MB checkpoint: {:.2} s ({:.2}x)\n",
        alone[0].elapsed,
        mixed[0].elapsed,
        mixed[0].elapsed / alone[0].elapsed
    ));
    out.push_str(
        "\n\
         expected shape: for symmetric loads, sharing N i/o nodes is roughly\n\
         neutral against dedicated N/2-each (total disk capacity is conserved,\n\
         and interleaving at shared disks even pipelines slightly better). The\n\
         cost of sharing is isolation: a small interactive dump queued behind a\n\
         large checkpoint slows down markedly — which is why the paper argues\n\
         for per-application dedicated i/o node sets.\n",
    );
    out
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
    fn figure_renders_both_formats() {
        let machine = Sp2Machine::nas_sp2();
        let spec = figure_spec(4);
        let points = run_figure_sized(&machine, &spec, &[16]);
        let table = figure(&spec, &points, false);
        assert!(table.starts_with("Figure 4: "));
        assert!(table.contains(spec.band));
        let csv = figure(&spec, &points, true);
        assert_eq!(csv.lines().count(), 1 + points.len());
    }

    #[test]
    fn only_report_names_render() {
        let quick = HarnessOpts {
            quick: true,
            csv: true,
        };
        assert!(render("fig3", &quick).is_some());
        for name in ["fig2", "fig10", "figures", "all", ""] {
            assert!(render(name, &quick).is_none(), "{name}");
        }
    }
}
