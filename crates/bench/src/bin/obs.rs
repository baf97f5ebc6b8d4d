//! The telemetry plane, measured: what does always-on observability
//! cost, and does drift detection actually close the tuning loop?
//!
//! Three sections, one committed artifact (`results/BENCH_obs.json`):
//!
//! 1. **Overhead** — a write+read collective pair on throttled MemFs
//!    disks (4 clients x 2 I/O nodes) run under `NullRecorder` and the
//!    three shapes of `TelemetryRecorder` (store, store+ring,
//!    store+ring+trigger); each cell reports min-of-reps wall seconds
//!    and overhead vs the null baseline. CI gates the store at <= 3 %.
//! 2. **Drift** — a service calibrates on a fast backend and runs
//!    `ON_MODEL_PAIRS` write+read pairs that must leave the
//!    `DriftDetector` quiet, the backend is throttled mid-run (a `SwitchFs` flips between two
//!    `ThrottledFs` rates over one shared MemFs), the `DriftDetector`
//!    must fire on the live store window, and the triggered auto-retune
//!    must recover >= 80 % of what a fresh manual calibration achieves
//!    on the slow backend.
//! 3. **Scrape** — the same service's `/metrics` and `/healthz` are
//!    fetched over real TCP and embedded in the artifact so CI can
//!    validate the Prometheus exposition parses.
//!
//! Usage: `obs [--quick] [--out <path>]`.

use std::io::{Read as _, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use panda_bench::fixtures::{mesh_array, CLIENTS, SERVERS};
use panda_bench::report::{write_lines, BenchOpts, JsonLine};
use panda_core::{ArrayMeta, PandaConfig, PandaSystem, ReadSet, Session, TunedConfig, WriteSet};
use panda_fs::{FileHandle, FileSystem, FsError, IoStats, MemFs, ThrottledFs};
use panda_model::drift::{service_drift_pass, DriftDetector};
use panda_model::tuner::{Calibrate, TunerOptions};
use panda_obs::{DumpTrigger, Recorder, TelemetryRecorder};
use panda_schema::{DataSchema, ElementType, Mesh, Shape};

/// Fast-profile disk bandwidth (MB/s).
const FAST_MB_S: f64 = 600.0;
/// Throttled-down bandwidth for the drift scenario: 10x slower, so
/// the disk phase runs far off its calibrated cost line on every
/// window, not just on lucky draws.
const SLOW_MB_S: f64 = 60.0;
/// Write+read pairs in the on-model window: every scored phase gets
/// hundreds of samples (against the detector's floor of
/// `DriftDetector::DEFAULT_MIN_SAMPLES`), and one scheduler stall of
/// tens of milliseconds cannot double a phase's measured sum.
const ON_MODEL_PAIRS: usize = 32;

// ---------------------------------------------------------------------
// Section 1: recorder overhead on a throttled-MemFs collective pair.
// ---------------------------------------------------------------------

/// One freshly launched fleet with its recorder attached.
struct OverheadCell {
    name: &'static str,
    system: PandaSystem,
    clients: Vec<panda_core::PandaClient>,
}

fn make_cell(name: &'static str, recorder: Option<Arc<dyn Recorder>>) -> OverheadCell {
    let mut config = PandaConfig::new(CLIENTS, SERVERS)
        .with_subchunk_bytes(4096)
        .with_pipeline_depth(2);
    if let Some(rec) = recorder {
        config = config.with_recorder(rec);
    }
    let (system, clients) = PandaSystem::builder()
        .config(config)
        .launch(|_| {
            Arc::new(ThrottledFs::new(
                Arc::new(MemFs::new()),
                FAST_MB_S,
                FAST_MB_S,
                Duration::from_micros(50),
            )) as Arc<dyn FileSystem>
        })
        .unwrap();
    OverheadCell {
        name,
        system,
        clients,
    }
}

/// One write+read collective pair across the fleet; wall seconds.
fn pipeline_rep(cell: &mut OverheadCell, meta: &ArrayMeta, datas: &[Vec<u8>]) -> f64 {
    let mut bufs: Vec<Vec<u8>> = (0..CLIENTS)
        .map(|r| vec![0u8; meta.client_bytes(r)])
        .collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for (client, data) in cell.clients.iter_mut().zip(datas) {
            s.spawn(move || {
                client
                    .write_set(&WriteSet::new().array(meta, "obs", data.as_slice()))
                    .unwrap()
            });
        }
    });
    std::thread::scope(|s| {
        for (client, buf) in cell.clients.iter_mut().zip(bufs.iter_mut()) {
            s.spawn(move || {
                client
                    .read_set(&mut ReadSet::new().array(meta, "obs", buf.as_mut_slice()))
                    .unwrap()
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    for (r, buf) in bufs.iter().enumerate() {
        assert_eq!(buf, &datas[r], "read-back mismatch under {}", cell.name);
    }
    wall
}

fn overhead_section(quick: bool, lines: &mut Vec<String>) -> f64 {
    let meta = mesh_array("obs", if quick { 192 } else { 256 });
    let reps = 15;
    let flight_dir = std::env::temp_dir().join(format!("panda-obs-bench-{}", std::process::id()));

    let store = Arc::new(TelemetryRecorder::new());
    let triggered = TelemetryRecorder::with_trigger(1 << 16, DumpTrigger::new(&flight_dir));
    let kinds: Vec<(&'static str, Option<Arc<dyn Recorder>>)> = vec![
        ("null", None),
        ("store", Some(Arc::clone(&store) as Arc<dyn Recorder>)),
        (
            "store+ring",
            Some(Arc::new(TelemetryRecorder::with_ring(1 << 16)) as Arc<dyn Recorder>),
        ),
        (
            "store+ring+trigger",
            Some(Arc::new(triggered) as Arc<dyn Recorder>),
        ),
    ];
    let datas: Vec<Vec<u8>> = (0..CLIENTS)
        .map(|r| (0..meta.client_bytes(r)).map(|i| (i % 251) as u8).collect())
        .collect();

    println!(
        "Recorder overhead: {} B array, {CLIENTS} clients x {SERVERS} I/O nodes, \
         throttled MemFs ({FAST_MB_S} MB/s), {reps} interleaved fresh-fleet reps per cell",
        meta.total_bytes()
    );
    // Noise defenses: every rep launches a *fresh* fleet so OS thread
    // placement is redrawn (a persistent fleet pins its server threads
    // once and repetition could never reject an unlucky placement),
    // each rep runs one untimed warm-up pair before the timed pair,
    // and the four recorder kinds are interleaved within each round so
    // slow machine-state drift (page cache, CPU clocks) hits every
    // recorder equally. Overhead is then scored *pairwise*: each round
    // yields one relative difference against that same round's null
    // run, and the median over rounds rejects the per-round sleep and
    // spawn jitter that a difference-of-minimums would keep.
    let mut walls = vec![Vec::with_capacity(reps); kinds.len()];
    for _rep in 0..reps {
        for (k, (name, recorder)) in kinds.iter().enumerate() {
            let mut cell = make_cell(name, recorder.clone());
            pipeline_rep(&mut cell, &meta, &datas);
            walls[k].push(pipeline_rep(&mut cell, &meta, &datas));
            cell.system.shutdown(cell.clients).unwrap();
        }
    }
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };

    println!("{:>18} {:>11} {:>10}", "recorder", "wall (s)", "overhead");
    let mut store_overhead_pct = f64::NAN;
    for (k, (name, _)) in kinds.iter().enumerate() {
        let wall = walls[k].iter().copied().fold(f64::INFINITY, f64::min);
        let overhead_pct = median(
            walls[k]
                .iter()
                .zip(&walls[0])
                .map(|(w, null)| (w - null) / null * 100.0)
                .collect(),
        );
        if *name == "store" {
            store_overhead_pct = overhead_pct;
        }
        println!("{name:>18} {wall:>11.5} {overhead_pct:>9.2}%");
        lines.push(
            JsonLine::new(&format!("obs/overhead/{name}"))
                .str("recorder", name)
                .usize("array_bytes", meta.total_bytes())
                .usize("reps", reps)
                .f64("wall_s", wall)
                .f64("overhead_pct", overhead_pct)
                .finish(),
        );
    }
    // The store actually saw the runs it was attached to.
    let snap = store.snapshot();
    assert!(
        snap.kind(panda_obs::EventKind::CollectiveDone).count > 0,
        "store cell recorded nothing"
    );
    let _ = std::fs::remove_dir_all(&flight_dir);
    println!();
    store_overhead_pct
}

// ---------------------------------------------------------------------
// Section 2: drift detection and auto-retune on a mid-run throttle.
// ---------------------------------------------------------------------

/// A file system whose backend can be swapped mid-run: new files land
/// on the fast or the slow profile depending on the switch, over one
/// shared MemFs — the bench's stand-in for "the shared disk got
/// busier".
struct SwitchFs {
    fast: Arc<dyn FileSystem>,
    slow: Arc<dyn FileSystem>,
    throttled: Arc<AtomicBool>,
}

impl SwitchFs {
    fn active(&self) -> &Arc<dyn FileSystem> {
        if self.throttled.load(Ordering::Relaxed) {
            &self.slow
        } else {
            &self.fast
        }
    }
}

impl FileSystem for SwitchFs {
    fn create(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        self.active().create(path)
    }

    fn open(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        self.active().open(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.active().exists(path)
    }

    fn remove(&self, path: &str) -> Result<(), FsError> {
        self.active().remove(path)
    }

    fn list(&self) -> Vec<String> {
        self.active().list()
    }

    fn stats(&self) -> Arc<IoStats> {
        self.active().stats()
    }
}

fn solo_array(rows: usize) -> ArrayMeta {
    let shape = Shape::new(&[rows, rows]).unwrap();
    let memory =
        DataSchema::block_all(shape.clone(), ElementType::F64, Mesh::new(&[1, 1]).unwrap())
            .unwrap();
    let disk = DataSchema::traditional_order(shape, ElementType::F64, SERVERS).unwrap();
    ArrayMeta::new("drift", memory, disk).unwrap()
}

/// One tenant write+read pair at `cfg`, fastest of `reps`.
fn session_wall(sess: &mut Session, meta: &ArrayMeta, cfg: &TunedConfig, reps: usize) -> f64 {
    let data: Vec<u8> = (0..meta.client_bytes(0)).map(|i| (i % 251) as u8).collect();
    let mut buf = vec![0u8; meta.client_bytes(0)];
    let mut wall = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        sess.write_set(&WriteSet::new().array(meta, "drift", &data).tuned(cfg))
            .unwrap();
        sess.read_set(&mut ReadSet::new().array(meta, "drift", &mut buf).tuned(cfg))
            .unwrap();
        wall = wall.min(start.elapsed().as_secs_f64());
    }
    assert_eq!(buf, data, "drift read-back mismatch");
    wall
}

fn drift_section(quick: bool, lines: &mut Vec<String>) -> (f64, u64, f64) {
    // Several subchunks per server per collective at every searched
    // subchunk size: one-subchunk collectives sit at thread wake-up
    // granularity, where neither the probes nor the window mean much.
    let rows = if quick { 256 } else { 512 };
    let reps = if quick { 3 } else { 5 };
    let meta = solo_array(rows);

    let mem = Arc::new(MemFs::new());
    let throttled = Arc::new(AtomicBool::new(false));
    let switch = Arc::clone(&throttled);
    // One recorder: its ring feeds calibration, its store feeds the
    // drift detector and the scrape surface.
    let recorder = Arc::new(TelemetryRecorder::with_ring(1 << 18));
    let mut service = PandaSystem::builder()
        .config(
            PandaConfig::new(2, SERVERS)
                .with_recorder(recorder)
                .with_recv_timeout(Duration::from_secs(30)),
        )
        .serve(move |_| {
            Arc::new(SwitchFs {
                fast: Arc::new(ThrottledFs::new(
                    Arc::clone(&mem) as Arc<dyn FileSystem>,
                    FAST_MB_S,
                    FAST_MB_S,
                    Duration::from_micros(50),
                )),
                slow: Arc::new(ThrottledFs::new(
                    Arc::clone(&mem) as Arc<dyn FileSystem>,
                    SLOW_MB_S,
                    SLOW_MB_S,
                    Duration::from_micros(50),
                )),
                throttled: Arc::clone(&switch),
            }) as Arc<dyn FileSystem>
        })
        .unwrap();

    // Search strictly inside the probed bracket, so every candidate's
    // cost is interpolated between the two probes, never extrapolated
    // past them.
    let mut opts = TunerOptions::default();
    let (lo, hi) = opts.probe_subchunk_bytes;
    opts.subchunk_bytes.retain(|&sub| (lo..hi).contains(&sub));
    let cal_fast = service.calibrate(&meta, &opts).unwrap();
    let mut detector = DriftDetector::from_calibration(&cal_fast, 1.0);
    assert!(
        detector.begin_window(service.system().recorder().as_ref()),
        "service recorder must keep a metrics store"
    );

    let mut sess = service.open().unwrap();
    let fast_wall = session_wall(&mut sess, &meta, &cal_fast.tuned, ON_MODEL_PAIRS);
    let on_model = detector
        .check(service.system().recorder().as_ref())
        .expect("recorder keeps a store");
    let min_ops = on_model.phases.iter().map(|p| p.ops).min().unwrap_or(0);
    println!(
        "drift: fast backend wall {:.5} s (tuned {} B / depth {}), score {:.3} over >= {} ops/phase",
        fast_wall,
        cal_fast.tuned.subchunk_bytes,
        cal_fast.tuned.pipeline_depth,
        on_model.score,
        min_ops
    );
    assert!(
        min_ops >= 8 * DriftDetector::DEFAULT_MIN_SAMPLES,
        "on-model window too thin to score ({min_ops} ops in its sparsest phase)"
    );
    assert!(
        !on_model.drifted,
        "on-model traffic must not trip the detector (score {:.3})",
        on_model.score
    );
    lines.push(
        JsonLine::new("obs/drift/baseline")
            .usize("array_bytes", meta.total_bytes())
            .f64("wall_s", fast_wall)
            .f64("drift_score", on_model.score)
            .u64("min_phase_ops", min_ops)
            .u64("drifted", u64::from(on_model.drifted))
            .finish(),
    );

    // Throttle the backend mid-run and watch a fresh window.
    throttled.store(true, Ordering::Relaxed);
    detector.begin_window(service.system().recorder().as_ref());
    let stale_wall = session_wall(&mut sess, &meta, &cal_fast.tuned, reps);
    service.close(sess);

    // One detector pass: it must fire, and the service's auto-retune
    // opt-in recalibrates on the now-slow backend.
    let pass = service_drift_pass(&mut detector, &mut service, &meta, &opts).unwrap();
    let report = pass.report.expect("recorder keeps a store");
    assert!(
        report.drifted,
        "throttled backend must trip the detector (score {:.3})",
        report.score
    );
    let cal_retuned = pass
        .recalibrated
        .expect("auto-retune opt-in must recalibrate once drift fires");
    let worst = report.worst().expect("a phase drove the score");
    println!(
        "drift: throttled wall {:.5} s, score {:.3} on {:?} ({} ops), auto-retuned to {} B / depth {}",
        stale_wall,
        report.score,
        worst.phase,
        worst.ops,
        cal_retuned.tuned.subchunk_bytes,
        cal_retuned.tuned.pipeline_depth
    );
    lines.push(
        JsonLine::new("obs/drift/throttled")
            .f64("wall_s", stale_wall)
            .f64("drift_score", report.score)
            .u64("drifted", u64::from(report.drifted))
            .str("worst_phase", worst.phase.label())
            .f64("worst_measured_s", worst.measured_s)
            .f64("worst_predicted_s", worst.predicted_s)
            .finish(),
    );

    // Race the triggered retune against a fresh manual calibration on
    // the slow backend: the acceptance bar is >= 80 % of manual
    // throughput.
    let cal_manual = service.calibrate(&meta, &opts).unwrap();
    let mut sess = service.open().unwrap();
    let retuned_wall = session_wall(&mut sess, &meta, &cal_retuned.tuned, reps);
    let manual_wall = session_wall(&mut sess, &meta, &cal_manual.tuned, reps);
    let recovery = manual_wall / retuned_wall;
    println!(
        "drift: retuned wall {retuned_wall:.5} s vs fresh-manual {manual_wall:.5} s \
         (recovery {:.1} %)",
        recovery * 100.0
    );
    lines.push(
        JsonLine::new("obs/drift/retuned")
            .f64("wall_s", retuned_wall)
            .usize("subchunk_bytes", cal_retuned.tuned.subchunk_bytes)
            .usize("pipeline_depth", cal_retuned.tuned.pipeline_depth)
            .f64("recovery_vs_manual", recovery)
            .finish(),
    );
    lines.push(
        JsonLine::new("obs/drift/manual")
            .f64("wall_s", manual_wall)
            .usize("subchunk_bytes", cal_manual.tuned.subchunk_bytes)
            .usize("pipeline_depth", cal_manual.tuned.pipeline_depth)
            .finish(),
    );

    // Section 3 rides the same live service: scrape it over real TCP.
    let scrape = service
        .serve_metrics("127.0.0.1:0")
        .expect("bind scrape listener");
    let (metrics_head, metrics_body) = http_get(scrape.addr(), "/metrics");
    let (health_head, health_body) = http_get(scrape.addr(), "/healthz");
    assert!(metrics_head.starts_with("HTTP/1.1 200"), "{metrics_head}");
    assert!(health_head.starts_with("HTTP/1.1 200"), "{health_head}");
    assert!(metrics_body.contains("panda_events_total"));
    assert!(metrics_body.contains("panda_health_status"));
    assert!(health_body.contains("\"status\":\"ok\""));
    println!(
        "scrape: /metrics {} lines, /healthz {}",
        metrics_body.lines().count(),
        health_body
    );
    lines.push(
        JsonLine::new("obs/scrape")
            .usize("metrics_lines", metrics_body.lines().count())
            .str("metrics_text", &metrics_body)
            .raw("healthz", &health_body)
            .finish(),
    );
    scrape.stop();
    println!();

    service.shutdown(vec![sess]).unwrap();
    (report.score, u64::from(report.drifted), recovery)
}

/// One plain HTTP GET; returns (head, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect scrape listener");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    (head.to_string(), body.to_string())
}

fn main() {
    let opts = BenchOpts::parse("results/BENCH_obs.json", false);
    let mut lines = Vec::new();

    let store_overhead_pct = overhead_section(opts.quick, &mut lines);
    let (score, drifted, recovery) = drift_section(opts.quick, &mut lines);

    println!(
        "summary: store overhead {store_overhead_pct:.2} %, drift score {score:.3} \
         (fired: {}), retune recovery {:.1} %",
        drifted == 1,
        recovery * 100.0
    );
    write_lines(&opts.out, &lines);
}
