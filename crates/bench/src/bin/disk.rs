//! Raw disk-stage throughput: LocalFs vs. the submission-queue SubmitFs
//! backend, unthrottled, across pipeline depths and sync policies. This
//! is the profile behind DESIGN.md §12 — no simulated disk, no
//! bandwidth cap, just the real filesystem under the collective write
//! path, so the numbers show what the submission queue and coalesced
//! fsync buy on actual hardware.
//!
//! Each cell writes `STEPS` timesteps of the 4-array group and reports
//! MB/s over the bytes landed. Every run's files are asserted
//! byte-identical to the first run's before any number is reported.
//!
//! Usage: `disk [--quick] [--out <path>]`. Writes one JSON object per
//! (backend, sync, depth) line to `<path>` (default
//! `results/BENCH_disk.json`).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use panda_bench::fixtures::{fill_pattern, group, snapshot, CLIENTS, SERVERS};
use panda_bench::report::{write_lines, BenchOpts, JsonLine};
use panda_core::{GroupData, PandaConfig, PandaSystem};
use panda_fs::{FileSystem, LocalFs, SubmitFs, SyncPolicy};

/// Completion threads per SubmitFs instance (recorded in the JSON).
const THREADS: usize = 2;

#[derive(Clone, Copy, PartialEq)]
enum Backend {
    LocalFs,
    SubmitFs,
}

impl Backend {
    fn name(self) -> &'static str {
        match self {
            Backend::LocalFs => "localfs",
            Backend::SubmitFs => "submitfs",
        }
    }
}

struct Cell {
    backend: Backend,
    sync: SyncPolicy,
    depth: usize,
}

struct Measurement {
    wall_s: f64,
    bytes: usize,
}

/// Write `steps` group timesteps through `backend` under `root` and
/// time the whole sequence.
fn run_cell(rows: usize, steps: usize, cell: &Cell, root: &Path) -> Measurement {
    let roots: Vec<PathBuf> = (0..SERVERS)
        .map(|s| root.join(format!("ionode{s}")))
        .collect();
    let backend = cell.backend;
    let config = PandaConfig::new(CLIENTS, SERVERS)
        .with_subchunk_bytes(16 * 1024)
        .with_pipeline_depth(cell.depth)
        .with_sync_policy(cell.sync)
        .with_disk_completion_threads(THREADS);
    let (system, mut clients) = PandaSystem::builder()
        .config(config.clone())
        .launch(move |s| match backend {
            Backend::LocalFs => Arc::new(LocalFs::new(&roots[s]).unwrap()) as Arc<dyn FileSystem>,
            Backend::SubmitFs => {
                Arc::new(SubmitFs::new(&roots[s], THREADS).unwrap()) as Arc<dyn FileSystem>
            }
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
                for _ in 0..steps {
                    g.timestep(client, &data.slices()).unwrap();
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    system.shutdown(clients).unwrap();

    Measurement {
        wall_s,
        bytes: steps * 4 * rows * rows * 8,
    }
}

fn json_line(cell: &Cell, m: &Measurement) -> String {
    let mb_s = m.bytes as f64 / (1024.0 * 1024.0) / m.wall_s;
    JsonLine::new(&format!(
        "disk/{}/{}/depth{}",
        cell.backend.name(),
        cell.sync.name(),
        cell.depth
    ))
    .str("backend", cell.backend.name())
    .str("sync", cell.sync.name())
    .usize("depth", cell.depth)
    .usize("threads", THREADS)
    .usize("bytes", m.bytes)
    .f64("wall_s", m.wall_s)
    .f64("mb_s", mb_s)
    .finish()
}

fn main() {
    let opts = BenchOpts::parse("results/BENCH_disk.json", false);
    let (rows, steps) = if opts.quick { (64, 2) } else { (512, 8) };
    let cells: Vec<Cell> = {
        let mut cells = Vec::new();
        for backend in [Backend::LocalFs, Backend::SubmitFs] {
            // Paper semantics: fsync after every write (depth 1 only —
            // the config rejects per-write sync with a deeper pipeline).
            cells.push(Cell {
                backend,
                sync: SyncPolicy::PerWrite,
                depth: 1,
            });
            let depths: &[usize] = if opts.quick { &[2] } else { &[1, 2, 4] };
            for &depth in depths {
                cells.push(Cell {
                    backend,
                    sync: SyncPolicy::PerFile,
                    depth,
                });
                cells.push(Cell {
                    backend,
                    sync: SyncPolicy::PerCollective,
                    depth,
                });
            }
        }
        cells
    };
    let scratch = std::env::temp_dir().join(format!("panda-disk-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let mut reference: Option<Vec<(String, Vec<u8>)>> = None;
    let mut results: Vec<(usize, Measurement)> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let root = scratch.join(format!("run{i}"));
        let m = run_cell(rows, steps, cell, &root);
        // Neither the backend, the sync policy, nor the depth may change
        // the bytes on disk.
        let snap = snapshot(&root);
        match &reference {
            None => reference = Some(snap),
            Some(r) => assert_eq!(
                r,
                &snap,
                "{}/{}/depth{} changed bytes on disk",
                cell.backend.name(),
                cell.sync.name(),
                cell.depth
            ),
        }
        let _ = std::fs::remove_dir_all(&root);
        results.push((i, m));
    }
    let _ = std::fs::remove_dir_all(&scratch);

    println!(
        "disk stage, unthrottled ({} timesteps x 4 arrays x {} B), \
         {CLIENTS} clients x {SERVERS} I/O nodes, {THREADS} completion threads:",
        steps,
        rows * rows * 8
    );
    println!(
        "{:>9} {:>15} {:>6} {:>10} {:>10}",
        "backend", "sync", "depth", "wall (s)", "MB/s"
    );
    for (i, m) in &results {
        let cell = &cells[*i];
        println!(
            "{:>9} {:>15} {:>6} {:>10.4} {:>10.1}",
            cell.backend.name(),
            cell.sync.name(),
            cell.depth,
            m.wall_s,
            m.bytes as f64 / (1024.0 * 1024.0) / m.wall_s
        );
    }

    let lines: Vec<String> = results
        .iter()
        .map(|(i, m)| json_line(&cells[*i], m))
        .collect();
    write_lines(&opts.out, &lines);
}
