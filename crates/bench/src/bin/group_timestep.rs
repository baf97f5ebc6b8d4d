//! Group-concurrent vs. sequential array-group timesteps, measured on
//! the real runtime: a 4-array group written either as one batched
//! collective (`ArrayGroup::timestep`, the server interleaves all four
//! arrays through one pipeline window) or as four back-to-back
//! single-array collectives (the pipeline drains at every array
//! boundary). Disks are `ThrottledFs` over `LocalFs`, so both disk
//! bandwidth and real fsync costs are on the critical path the way the
//! paper's AIX measurements were.
//!
//! Usage: `group_timestep [--quick] [--csv] [--out <path>]`. Writes one
//! JSON object per (mode, depth) line to `<path>` (default
//! `results/BENCH_group.json`), each embedding the full machine-readable
//! run report. The two modes' output files are asserted byte-identical
//! at every depth before any number is reported.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use panda_bench::fixtures::{fill_pattern, group, snapshot, CLIENTS, SERVERS};
use panda_bench::report::{write_lines, BenchOpts, JsonLine};
use panda_core::{ArrayMeta, GroupData, PandaConfig, PandaSystem, WriteSet};
use panda_fs::{FileSystem, LocalFs, ThrottledFs};
use panda_obs::{Phase, RunReport, TelemetryRecorder};

/// Throttled disk bandwidth (MB/s) and per-op overhead: slow enough
/// that disk time dominates and overlap is measurable, fast enough for
/// a CI smoke run.
const DISK_MB_S: f64 = 300.0;
const OP_OVERHEAD_US: u64 = 100;

struct ModeRun {
    wall_s: f64,
    report: RunReport,
}

/// One group timestep at `depth`, batched (`concurrent`) or one
/// collective per array (`sequential`), on fresh throttled local disks
/// under `root`. Returns the measurement and leaves the files on disk
/// for the byte-identity check.
fn run_mode(rows: usize, depth: usize, concurrent: bool, root: &Path) -> ModeRun {
    let rec = Arc::new(TelemetryRecorder::with_ring(1 << 16));
    let roots: Vec<PathBuf> = (0..SERVERS)
        .map(|s| root.join(format!("ionode{s}")))
        .collect();
    let config = PandaConfig::new(CLIENTS, SERVERS)
        .with_subchunk_bytes(16 * 1024)
        .with_pipeline_depth(depth)
        .with_recorder(rec.clone());
    let (system, mut clients) = PandaSystem::builder()
        .config(config.clone())
        .launch(move |s| {
            Arc::new(ThrottledFs::new(
                Arc::new(LocalFs::new(&roots[s]).unwrap()),
                DISK_MB_S,
                DISK_MB_S,
                std::time::Duration::from_micros(OP_OVERHEAD_US),
            )) as Arc<dyn FileSystem>
        })
        .unwrap();

    let start = Instant::now();
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            s.spawn(move || {
                let mut g = group(rows);
                let rank = client.rank();
                let mut data = GroupData::zeroed(&g, rank);
                fill_pattern(&mut data, rank);
                if concurrent {
                    // One batched request: the server flattens all four
                    // arrays through a single pipeline window.
                    g.timestep(client, &data.slices()).unwrap();
                } else {
                    // Four separate collectives with the same file tags:
                    // the pipeline drains at every array boundary.
                    let arrays: Vec<ArrayMeta> = g.arrays().to_vec();
                    for (i, meta) in arrays.iter().enumerate() {
                        let tag = g.timestep_tag(i, 0);
                        client
                            .write_set(&WriteSet::new().array(meta, tag.as_str(), data.buffer(i)))
                            .unwrap();
                    }
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();

    let report = system.report();
    system.shutdown(clients).unwrap();
    assert_eq!(report.dropped_events, 0, "timeline ring overflowed");
    ModeRun { wall_s, report }
}

struct DepthResult {
    depth: usize,
    seq: ModeRun,
    conc: ModeRun,
}

fn json_line(rows: usize, mode: &str, depth: usize, run: &ModeRun) -> String {
    JsonLine::new(&format!("group_timestep/{mode}/depth{depth}"))
        .usize("arrays", 4)
        .usize("array_bytes", rows * rows * 8)
        .f64("measured_wall_s", run.wall_s)
        .f64("cross_array_overlap_s", run.report.cross_array_overlap_s)
        .raw("report", &run.report.to_json())
        .finish()
}

fn main() {
    let opts = BenchOpts::parse("results/BENCH_group.json", true);
    let rows = if opts.quick { 64 } else { 256 };
    let depths: &[usize] = if opts.quick { &[1, 2] } else { &[1, 2, 4] };
    let scratch = std::env::temp_dir().join(format!("panda-group-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let results: Vec<DepthResult> = depths
        .iter()
        .map(|&depth| {
            let seq_root = scratch.join(format!("seq-d{depth}"));
            let conc_root = scratch.join(format!("conc-d{depth}"));
            let seq = run_mode(rows, depth, false, &seq_root);
            let conc = run_mode(rows, depth, true, &conc_root);
            // Concurrency must never change the bytes on disk.
            assert_eq!(
                snapshot(&seq_root),
                snapshot(&conc_root),
                "group-concurrent depth {depth} changed bytes on disk"
            );
            DepthResult { depth, seq, conc }
        })
        .collect();
    let _ = std::fs::remove_dir_all(&scratch);

    if opts.csv {
        println!("depth,seq_wall_s,conc_wall_s,speedup,cross_array_overlap_s");
        for r in &results {
            println!(
                "{},{:.6},{:.6},{:.4},{:.6}",
                r.depth,
                r.seq.wall_s,
                r.conc.wall_s,
                r.seq.wall_s / r.conc.wall_s,
                r.conc.report.cross_array_overlap_s,
            );
        }
    } else {
        println!(
            "4-array group timestep ({} B/array), {CLIENTS} clients x {SERVERS} I/O nodes, \
             throttled LocalFs ({DISK_MB_S} MB/s + {OP_OVERHEAD_US} us/op):",
            rows * rows * 8
        );
        println!(
            "{:>6} {:>12} {:>12} {:>9} {:>14} {:>10}",
            "depth", "seq (s)", "conc (s)", "speedup", "x-overlap (s)", "disk (s)"
        );
        for r in &results {
            println!(
                "{:>6} {:>12.4} {:>12.4} {:>8.2}x {:>14.4} {:>10.4}",
                r.depth,
                r.seq.wall_s,
                r.conc.wall_s,
                r.seq.wall_s / r.conc.wall_s,
                r.conc.report.cross_array_overlap_s,
                r.conc.report.phases.get(Phase::Disk),
            );
        }
        println!();
        println!(
            "(seq = one collective per array; conc = one batched request — the \
             server interleaves all arrays through one depth-d window, so \
             x-overlap, the time different arrays' work overlapped on the same \
             node, is nonzero only at depth >= 2)"
        );
    }

    let mut lines = Vec::new();
    for r in &results {
        lines.push(json_line(rows, "sequential", r.depth, &r.seq));
        lines.push(json_line(rows, "concurrent", r.depth, &r.conc));
    }
    write_lines(&opts.out, &lines);
}
