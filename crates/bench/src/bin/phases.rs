//! Fig 5-style phase decomposition from *real measurements*: run the
//! actual runtime (inproc transport, throttled MemFs disks) under a
//! `TelemetryRecorder` and print where the time went — client exchange,
//! disk, reorganization — per pipeline depth, the way the paper's §4
//! discussion breaks down Figure 5/6.
//!
//! Usage: `phases [--quick] [--csv] [--out <path>]`. Writes one JSON
//! object per (depth, op) line to `<path>` (default
//! `results/BENCH_phases.json`), each embedding the full
//! machine-readable run report.

use std::sync::Arc;
use std::time::Instant;

use panda_bench::report::{write_lines, BenchOpts, JsonLine};
use panda_core::{ArrayMeta, PandaConfig, PandaSystem, ReadSet, WriteSet};
use panda_fs::{FileSystem, MemFs, ThrottledFs};
use panda_obs::{Phase, RunReport, TelemetryRecorder};
use panda_schema::copy::offset_in_region;
use panda_schema::{DataSchema, ElementType, Mesh, Shape};

const CLIENTS: usize = 4;
const SERVERS: usize = 2;
/// Throttled disk bandwidth (MB/s). Slow enough that disk time is the
/// dominant, clearly measurable phase; fast enough for a CI smoke run.
const DISK_MB_S: f64 = 600.0;

fn make_array(rows: usize) -> ArrayMeta {
    let shape = Shape::new(&[rows, rows]).unwrap();
    let memory =
        DataSchema::block_all(shape.clone(), ElementType::F64, Mesh::new(&[2, 2]).unwrap())
            .unwrap();
    let disk = DataSchema::traditional_order(shape, ElementType::F64, SERVERS).unwrap();
    ArrayMeta::new("phases", memory, disk).unwrap()
}

fn pattern_chunk(meta: &ArrayMeta, rank: usize) -> Vec<u8> {
    let elem = meta.elem_size();
    let region = meta.client_region(rank);
    let mut out = vec![0u8; meta.client_bytes(rank)];
    if let Some(shape) = region.shape() {
        for local in shape.iter_indices() {
            let global: Vec<usize> = local
                .iter()
                .zip(region.lo())
                .map(|(&l, &o)| l + o)
                .collect();
            let lin = meta.shape().linearize(&global);
            let off = offset_in_region(&region, &global, elem);
            for b in 0..elem {
                out[off + b] = ((lin * 31 + b * 7) % 251) as u8 + 1;
            }
        }
    }
    out
}

struct DepthRun {
    depth: usize,
    wall_s: f64,
    report: RunReport,
}

/// One collective write + read at `depth`, measured end to end.
fn run_depth(meta: &ArrayMeta, depth: usize) -> DepthRun {
    let rec = Arc::new(TelemetryRecorder::with_ring(1 << 16));
    let config = PandaConfig::new(CLIENTS, SERVERS)
        .with_subchunk_bytes(4096)
        .with_pipeline_depth(depth)
        .with_recorder(rec.clone());
    let (system, mut clients) = PandaSystem::builder()
        .config(config.clone())
        .launch(|_| {
            Arc::new(ThrottledFs::new(
                Arc::new(MemFs::new()),
                DISK_MB_S,
                DISK_MB_S,
                std::time::Duration::from_micros(50),
            )) as Arc<dyn FileSystem>
        })
        .unwrap();

    let datas: Vec<Vec<u8>> = (0..CLIENTS).map(|r| pattern_chunk(meta, r)).collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for (client, data) in clients.iter_mut().zip(&datas) {
            s.spawn(move || {
                client
                    .write_set(&WriteSet::new().array(meta, "phases", data.as_slice()))
                    .unwrap()
            });
        }
    });
    let mut bufs: Vec<Vec<u8>> = (0..CLIENTS)
        .map(|r| vec![0u8; meta.client_bytes(r)])
        .collect();
    std::thread::scope(|s| {
        for (client, buf) in clients.iter_mut().zip(bufs.iter_mut()) {
            s.spawn(move || {
                client
                    .read_set(&mut ReadSet::new().array(meta, "phases", buf.as_mut_slice()))
                    .unwrap()
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    for (r, buf) in bufs.iter().enumerate() {
        assert_eq!(buf, &datas[r], "read-back mismatch at depth {depth}");
    }

    let report = system.report();
    system.shutdown(clients).unwrap();
    assert_eq!(report.dropped_events, 0, "timeline ring overflowed");
    DepthRun {
        depth,
        wall_s,
        report,
    }
}

fn json_line(meta: &ArrayMeta, run: &DepthRun) -> String {
    JsonLine::new(&format!("phases/write_read/depth{}", run.depth))
        .usize("array_bytes", meta.total_bytes())
        .f64("measured_wall_s", run.wall_s)
        .raw("report", &run.report.to_json())
        .finish()
}

fn main() {
    let opts = BenchOpts::parse("results/BENCH_phases.json", true);
    let meta = make_array(if opts.quick { 64 } else { 256 });
    let depths: &[usize] = if opts.quick { &[1, 2] } else { &[1, 2, 4, 8] };

    let runs: Vec<DepthRun> = depths.iter().map(|&d| run_depth(&meta, d)).collect();

    if opts.csv {
        println!("depth,wall_s,exchange_s,disk_s,reorg_s,throttle_s");
        for r in &runs {
            println!(
                "{},{:.6},{:.6},{:.6},{:.6},{:.6}",
                r.depth,
                r.wall_s,
                r.report.phases.get(Phase::Exchange),
                r.report.phases.get(Phase::Disk),
                r.report.phases.get(Phase::Reorg),
                r.report.phases.get(Phase::Throttle),
            );
        }
    } else {
        println!(
            "Phase decomposition, {} B array, {CLIENTS} clients x {SERVERS} I/O nodes, \
             throttled MemFs ({DISK_MB_S} MB/s):",
            meta.total_bytes()
        );
        println!(
            "{:>6} {:>10} {:>11} {:>9} {:>9} {:>11} {:>10}",
            "depth", "wall (s)", "exchange", "disk", "reorg", "disk+exch", "subchunks"
        );
        for r in &runs {
            let ex = r.report.phases.get(Phase::Exchange);
            let disk = r.report.phases.get(Phase::Disk);
            let reorg = r.report.phases.get(Phase::Reorg);
            println!(
                "{:>6} {:>10.4} {:>11.4} {:>9.4} {:>9.4} {:>10.0}% {:>10}",
                r.depth,
                r.wall_s,
                ex,
                disk,
                reorg,
                (ex + disk) / r.wall_s * 100.0,
                r.report.per_subchunk.len()
            );
        }
        println!();
        println!(
            "(disk+exch > 100% of wall means work overlapped: across the \
             {SERVERS} I/O nodes, and — at depth > 1 — between each node's \
             disk and exchange, the paper's §3.3 motivation for pipelining)"
        );
    }

    let lines: Vec<String> = runs.iter().map(|r| json_line(&meta, r)).collect();
    write_lines(&opts.out, &lines);
}
