//! Closed-loop tuning, measured: calibrate the cost model on each
//! backend profile (`calibrate_fleet` runs two short probe collectives
//! against the *real* runtime), then race the tuner's chosen operating
//! point against fixed pipeline depths at the paper's launch subchunk.
//! Every cell reports measured wall seconds, the analytical prediction
//! the search was based on, and the fitted machine replayed through the
//! discrete-event simulation — so the artifact shows both that tuning
//! wins and that the fitted model knew *why*.
//!
//! Usage: `tuner [--quick] [--out <path>]`. Writes one JSON object per
//! cell to `<path>` (default `results/BENCH_tuner.json`).

use std::sync::Arc;
use std::time::Instant;

use panda_bench::fixtures::{mesh_array, CLIENTS, SERVERS};
use panda_bench::report::{write_lines, BenchOpts, JsonLine};
use panda_core::{
    ArrayMeta, OpKind, PandaClient, PandaConfig, PandaSystem, ReadSet, TunedConfig, WriteSet,
};
use panda_fs::{FileSystem, LocalFs, MemFs, ThrottledFs};
use panda_model::actors::{simulate, CollectiveSpec};
use panda_model::tuner::{calibrate_fleet, Calibration, TunerOptions};
use panda_obs::TelemetryRecorder;

/// The deployment's launch-time subchunk cap — what every fixed-depth
/// cell runs with, and what the tuner is free to override.
const LAUNCH_SUBCHUNK: usize = 32 << 10;

/// One backend profile the tuner is calibrated against.
struct Profile {
    name: &'static str,
    /// Throttled backends are deterministic: one rep is exact, and at
    /// AIX-era bandwidth extra reps are just wall-clock.
    deterministic: bool,
    make_fs: Box<dyn Fn(usize) -> Arc<dyn FileSystem>>,
}

fn profiles(root: &std::path::Path) -> Vec<Profile> {
    let local_root = root.to_path_buf();
    vec![
        Profile {
            name: "aix",
            deterministic: true,
            make_fs: Box::new(|_| {
                Arc::new(ThrottledFs::aix(Arc::new(MemFs::new()))) as Arc<dyn FileSystem>
            }),
        },
        Profile {
            name: "localfs",
            deterministic: false,
            make_fs: Box::new(move |s| {
                Arc::new(LocalFs::new(local_root.join(format!("s{s}"))).unwrap())
                    as Arc<dyn FileSystem>
            }),
        },
        Profile {
            name: "memfs",
            deterministic: false,
            make_fs: Box::new(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>),
        },
    ]
}

struct Cell {
    mode: String,
    cfg: TunedConfig,
    write_s: f64,
    read_s: f64,
}

impl Cell {
    fn wall_s(&self) -> f64 {
        self.write_s + self.read_s
    }
}

/// Run one write+read collective pair at `cfg`, `reps` times; keep the
/// fastest wall per direction (standard min-of-reps noise rejection).
fn measure(
    clients: &mut [PandaClient],
    meta: &ArrayMeta,
    cfg: &TunedConfig,
    reps: usize,
) -> (f64, f64) {
    // Every cell reuses one file tag, so the backend holds a single
    // file set all run long — accumulating an 8 MB file per cell would
    // shift cache pressure under the later cells.
    let tag = "cell";
    let datas: Vec<Vec<u8>> = (0..CLIENTS)
        .map(|r| (0..meta.client_bytes(r)).map(|i| (i % 251) as u8).collect())
        .collect();
    let mut bufs: Vec<Vec<u8>> = (0..CLIENTS)
        .map(|r| vec![0u8; meta.client_bytes(r)])
        .collect();
    let (mut write_s, mut read_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let start = Instant::now();
        std::thread::scope(|s| {
            for (client, data) in clients.iter_mut().zip(&datas) {
                s.spawn(move || {
                    client
                        .write_set(&WriteSet::new().array(meta, tag, data.as_slice()).tuned(cfg))
                        .unwrap()
                });
            }
        });
        write_s = write_s.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        std::thread::scope(|s| {
            for (client, buf) in clients.iter_mut().zip(bufs.iter_mut()) {
                s.spawn(move || {
                    client
                        .read_set(
                            &mut ReadSet::new()
                                .array(meta, tag, buf.as_mut_slice())
                                .tuned(cfg),
                        )
                        .unwrap()
                });
            }
        });
        read_s = read_s.min(start.elapsed().as_secs_f64());
    }
    for (r, buf) in bufs.iter().enumerate() {
        assert_eq!(buf, &datas[r], "read-back mismatch");
    }
    (write_s, read_s)
}

/// Replay one cell on the fitted machine through the DES: write + read
/// elapsed at the cell's subchunk and depth.
fn sim_wall(cal: &Calibration, meta: &ArrayMeta, cfg: &TunedConfig) -> f64 {
    let machine = cal.fitted_machine().with_pipeline_depth(cfg.pipeline_depth);
    [OpKind::Write, OpKind::Read]
        .iter()
        .map(|&op| {
            simulate(
                &machine.clone(),
                &CollectiveSpec {
                    arrays: vec![meta.clone()],
                    op,
                    num_servers: SERVERS,
                    subchunk_bytes: cfg.subchunk_bytes,
                    fast_disk: false,
                    section: None,
                },
            )
            .elapsed
        })
        .sum()
}

fn run_profile(
    profile: &Profile,
    rows: usize,
    depths: &[usize],
    reps: usize,
    lines: &mut Vec<String>,
) {
    // Millisecond-scale cells drown in scheduling noise; fast backends
    // move a 4x bigger array so each cell is comfortably measurable,
    // while AIX-era bandwidth keeps the throttled profile affordable.
    let rows = if profile.deterministic {
        rows
    } else {
        rows * 2
    };
    let meta = &mesh_array("tuner", rows);
    let rec = Arc::new(TelemetryRecorder::with_ring(1 << 18));
    let config = PandaConfig::new(CLIENTS, SERVERS)
        .with_subchunk_bytes(LAUNCH_SUBCHUNK)
        .with_recorder(rec);
    let workers = config.io_workers;
    let (system, mut clients) = PandaSystem::builder()
        .config(config)
        .launch(|s| (profile.make_fs)(s))
        .unwrap();

    let reps = if profile.deterministic { 1 } else { reps };
    println!(
        "{}: {} B array, {} rep(s) per cell",
        profile.name,
        meta.total_bytes(),
        reps
    );
    if !profile.deterministic {
        // Warm the backend and the runtime (page cache, allocator
        // pools, page tables) with untimed collectives so the probes
        // measure steady-state costs — the same regime the min-of-reps
        // cells run in. One pass is not enough: the system keeps
        // speeding up over the first few collectives.
        let warm = TunedConfig::new(LAUNCH_SUBCHUNK, 1, workers);
        measure(&mut clients, meta, &warm, 3);
    }

    // Calibrate against this backend. The depth and subchunk knobs ride
    // per-request overrides, but reorganization workers are fixed at
    // launch — so the online search is restricted to the launch value.
    let opts = TunerOptions {
        io_workers: vec![workers],
        // Probe the ends of the searched subchunk range: the wide lever
        // arm pins the per-op/per-byte split across the whole grid.
        probe_subchunk_bytes: (LAUNCH_SUBCHUNK, 1 << 20),
        // On noisy backends, fit the fastest of several probe reps —
        // the same regime the min-of-reps measurement cells report.
        probe_reps: reps,
        ..TunerOptions::default()
    };
    let cal = calibrate_fleet(&system, &mut clients, meta, &opts).unwrap();

    let mut cells: Vec<Cell> = Vec::new();
    for &depth in depths {
        let cfg = TunedConfig::new(LAUNCH_SUBCHUNK, depth, workers);
        let (write_s, read_s) = measure(&mut clients, meta, &cfg, reps);
        cells.push(Cell {
            mode: format!("fixed/depth{depth}"),
            cfg,
            write_s,
            read_s,
        });
    }
    let (write_s, read_s) = measure(&mut clients, meta, &cal.tuned, reps);
    cells.push(Cell {
        mode: "tuned".to_string(),
        cfg: cal.tuned,
        write_s,
        read_s,
    });

    println!(
        "{}: tuned = {} B subchunks, depth {} ({} candidates scored)",
        profile.name,
        cal.tuned.subchunk_bytes,
        cal.tuned.pipeline_depth,
        cal.candidates.len()
    );
    println!(
        "{:>14} {:>9} {:>6} {:>11} {:>11} {:>11} {:>8}",
        "cell", "subchunk", "depth", "wall (s)", "pred (s)", "sim (s)", "err"
    );
    for cell in &cells {
        let pred_write = cal.predict(
            meta,
            OpKind::Write,
            cell.cfg.subchunk_bytes,
            cell.cfg.pipeline_depth,
            workers,
        );
        let pred_read = cal.predict(
            meta,
            OpKind::Read,
            cell.cfg.subchunk_bytes,
            cell.cfg.pipeline_depth,
            workers,
        );
        let predicted = pred_write + pred_read;
        let sim_s = sim_wall(&cal, meta, &cell.cfg);
        let measured = cell.wall_s();
        let err = (predicted - measured).abs() / measured;
        println!(
            "{:>14} {:>9} {:>6} {:>11.4} {:>11.4} {:>11.4} {:>7.1}%",
            cell.mode,
            cell.cfg.subchunk_bytes,
            cell.cfg.pipeline_depth,
            measured,
            predicted,
            sim_s,
            err * 100.0
        );
        lines.push(
            JsonLine::new(&format!("tuner/{}/{}", profile.name, cell.mode))
                .str("profile", profile.name)
                .str("mode", &cell.mode)
                .usize("array_bytes", meta.total_bytes())
                .usize("subchunk_bytes", cell.cfg.subchunk_bytes)
                .usize("pipeline_depth", cell.cfg.pipeline_depth)
                .usize("io_workers", workers)
                .f64("measured_write_s", cell.write_s)
                .f64("measured_read_s", cell.read_s)
                .f64("measured_wall_s", measured)
                .f64("predicted_s", predicted)
                .f64("sim_s", sim_s)
                .f64("prediction_error", err)
                .finish(),
        );
    }
    println!();
    system.shutdown(clients).unwrap();
}

fn main() {
    let opts = BenchOpts::parse("results/BENCH_tuner.json", false);
    let rows = if opts.quick { 128 } else { 512 };
    let depths: &[usize] = if opts.quick { &[1, 2] } else { &[1, 2, 4] };
    let reps = if opts.quick { 2 } else { 7 };

    let root = std::env::temp_dir().join(format!("panda_tuner_{}", std::process::id()));
    println!(
        "Closed-loop tuning: {CLIENTS} clients x {SERVERS} I/O nodes, fixed cells \
         at {LAUNCH_SUBCHUNK} B subchunks vs the calibrated pick"
    );
    println!();
    let mut lines = Vec::new();
    for profile in profiles(&root) {
        run_profile(&profile, rows, depths, reps, &mut lines);
    }
    let _ = std::fs::remove_dir_all(&root);

    write_lines(&opts.out, &lines);
}
