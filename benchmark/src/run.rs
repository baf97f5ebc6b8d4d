//! One run of one workload: the process the driver's command starts.
//!
//! `--trace 0` measures the end-to-end metrics with the timing wrappers
//! absent. `--trace 1` measures the per-layer metrics: a shorter
//! untraced reference window, a fixed count of operations with the
//! wrappers in place, then every layer alone.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::ceilings::{self, Ceilings};
use crate::json::Json;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, sliced_tail, spin_ns};
use crate::timed::{chrome_trace, summarize, SpanTotals, Tracer};
use crate::workloads::{Limit, PhaseLog, Rig, Workload, CLIENTS, SERVERS};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Operations of the traced window.
const TRACED_BULK_OPS: usize = 20;
const TRACED_SESSION_OPS: usize = 20_000;
/// The tail is the highest percentile with at least this many samples
/// beyond it: p99 per one-second slice for sessions (thousands of
/// operations a second), p90 of the window for bulk operations (tens).
const TAIL_MIN_BEYOND: usize = 10;
const TAIL_SLICE_S: f64 = 1.0;
/// Most a workload may leave under its scratch directory.
const FOOTPRINT_MAX: u64 = 256 << 20;
const MIB: f64 = (1 << 20) as f64;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Overrides the traced window's operation count (`run --quick`).
    pub traced_ops: Option<usize>,
}

/// What a run found, ready to print.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Sample counts, sizes and flags: everything worth knowing that
    /// the result line has no key for.
    pub detail: Json,
    pub errors: Vec<String>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> Json {
        let mut metrics = Json::obj();
        for (m, value) in &self.metrics {
            metrics = metrics.set(m.name, Json::obj().set("value", *value).set("unit", m.unit));
        }
        Json::obj()
            .set("correct", self.failed == 0)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics)
    }
}

/// The benchmark's output directory, beside its manifest: inside the
/// checkout wherever the command is started from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory of this run's own (process id, and a counter
/// for the self-tests, which run several in one process), removed when
/// the run ends — normally, with an error, or by a panic unwinding.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> Result<Scratch, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("scratch-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Scratch(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes of the files under the directory.
    fn footprint(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            std::fs::read_dir(dir)
                .into_iter()
                .flatten()
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.0)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The process's peak resident set, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The machine's cache sizes, to read the bandwidths against: a 64 MiB
/// array is many times a core's L2 but may sit inside a shared L3, in
/// which case every GB/s here is cache-assisted.
fn caches() -> String {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |index: usize, file: &str| {
        std::fs::read_to_string(dir.join(format!("index{index}")).join(file))
            .map(|s| s.trim().to_string())
    };
    let levels: Vec<String> = (0..8)
        .filter_map(|i| {
            Some(format!(
                "L{} {}",
                read(i, "level").ok()?,
                read(i, "size").ok()?
            ))
        })
        .collect();
    if levels.is_empty() {
        "unknown".to_string()
    } else {
        levels.join(", ")
    }
}

/// Count a phase's operations and failures into the run's.
fn tally(out: &mut Outcome, log: &PhaseLog) {
    out.attempted += log.attempted;
    out.failed += log.failed;
    out.errors.extend(log.errors.iter().cloned());
}

fn tail_quantile(w: Workload) -> f64 {
    if w.is_sessions() {
        0.99
    } else {
        0.9
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let scratch = Scratch::new()?;
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        detail: Json::obj(),
        errors: Vec::new(),
    };
    let values = if args.trace {
        per_layer(args, &scratch, &mut out)?
    } else {
        end_to_end(args, &scratch, &mut out)?
    };
    let footprint = scratch.footprint();
    assert!(
        footprint <= FOOTPRINT_MAX,
        "scratch footprint {footprint} B exceeds {FOOTPRINT_MAX} B"
    );
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    assert_eq!(
        values.iter().map(|v| v.0).collect::<Vec<_>>(),
        declared.iter().map(|m| m.name).collect::<Vec<_>>(),
        "a run reports exactly the declared metrics, in order"
    );
    out.metrics = declared.iter().zip(values).map(|(m, v)| (m, v.1)).collect();
    out.detail
        .insert("workload", args.workload.name())
        .insert("seed", args.seed)
        .insert("seconds", args.seconds)
        .insert("user_bytes_per_op", args.workload.user_bytes())
        .insert("cpu0_caches", caches())
        .insert("scratch_footprint_bytes", footprint)
        .insert(
            "threads",
            format!(
                "{CLIENTS} load-generating client threads x {SERVERS} I/O nodes; \
                 available_parallelism = {}",
                std::thread::available_parallelism().map_or(0, |n| n.get())
            ),
        );
    Ok(out)
}

/// Median and tail of one direction of a window.
struct Dir {
    n: usize,
    p50_s: f64,
    tail_s: f64,
    tail_slices: usize,
}

fn direction(log: &PhaseLog, read: bool, w: Workload) -> Result<Dir, String> {
    let samples = log.timed(read);
    if samples.is_empty() {
        let kind = if read { "read" } else { "write" };
        return Err(format!(
            "no {kind} completed in the window: {:?}",
            log.errors
        ));
    }
    let (tail_s, tail_slices) =
        sliced_tail(&samples, TAIL_SLICE_S, tail_quantile(w), TAIL_MIN_BEYOND);
    Ok(Dir {
        n: samples.len(),
        p50_s: median(&samples.iter().map(|s| s.1).collect::<Vec<_>>()),
        tail_s,
        tail_slices,
    })
}

type Values = Vec<(&'static str, f64)>;

fn end_to_end(args: &Args, scratch: &Scratch, out: &mut Outcome) -> Result<Values, String> {
    let w = args.workload;
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..SETUPS {
        if let Some(previous) = rig.take() {
            Rig::stop(previous)?;
        }
        let t = Instant::now();
        let started = Rig::start(w, args.seed, scratch.path(), None)?;
        setups.push(t.elapsed().as_secs_f64());
        tally(out, &started.warmup);
        rig = Some(started);
    }
    let mut rig = rig.expect("at least one set-up");
    let log = rig.phase(Limit::Time(Duration::from_secs_f64(args.seconds)));
    tally(out, &log);
    // Before the file check below, whose buffers are the benchmark's.
    let peak_rss = peak_rss_mib()?;
    match rig.seal_and_check() {
        Ok(fnv) => {
            out.detail.insert("files_fnv1a", format!("{fnv:016x}"));
        }
        Err(e) => {
            out.failed += 1;
            out.errors.push(e);
        }
    }
    out.attempted += 1;
    rig.stop()?;

    let (wr, rd) = (direction(&log, false, w)?, direction(&log, true, w)?);
    let mib = w.user_bytes() as f64 / MIB;
    out.detail
        .insert("setups", SETUPS)
        .insert("write_samples", wr.n)
        .insert("read_samples", rd.n)
        .insert("window_s", log.wall_s);
    Ok(vec![
        ("setup_s", median(&setups)),
        ("write_mb_s", mib / wr.p50_s),
        ("read_mb_s", mib / rd.p50_s),
        ("write_p50_us", wr.p50_s * 1e6),
        ("read_p50_us", rd.p50_s * 1e6),
        ("peak_rss_mb", peak_rss),
    ])
}

fn per_layer(args: &Args, scratch: &Scratch, out: &mut Outcome) -> Result<Values, String> {
    let w = args.workload;
    let spin_before = spin_ns();

    // Reference: the same program without the wrappers, same process.
    let mut rig = Rig::start(w, args.seed, scratch.path(), None)?;
    tally(out, &rig.warmup);
    let reference = rig.phase(Limit::Time(Duration::from_secs_f64(args.seconds / 2.0)));
    tally(out, &reference);
    let untraced_fnv = rig.seal_and_check()?;
    rig.stop()?;

    // Traced: a fixed count of operations, so that counts repeat.
    let traced_ops = args.traced_ops.unwrap_or(if w.is_sessions() {
        TRACED_SESSION_OPS
    } else {
        TRACED_BULK_OPS
    });
    let tracer = Tracer::new(CLIENTS);
    let mut rig = Rig::start(w, args.seed, scratch.path(), Some(tracer.clone()))?;
    tally(out, &rig.warmup);
    tracer.arm(true);
    let traced = rig.phase(Limit::Ops(traced_ops));
    tracer.arm(false);
    tally(out, &traced);
    let traced_fnv = rig.seal_and_check()?;
    rig.stop()?;
    out.attempted += 1;
    if traced_fnv != untraced_fnv {
        out.failed += 1;
        out.errors.push(format!(
            "files differ between the untraced ({untraced_fnv:016x}) and traced \
             ({traced_fnv:016x}) run"
        ));
    }
    let spans = tracer.take_spans();
    let totals = summarize(&spans, CLIENTS, SERVERS);
    let trace_path = out_dir().join(format!("trace-{}.json", w.name()));
    std::fs::write(&trace_path, chrome_trace(&spans, CLIENTS))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let ceil = ceilings::measure(w, scratch.path())?;
    let spin_after = spin_ns();

    let (ref_wr, ref_rd) = (
        direction(&reference, false, w)?,
        direction(&reference, true, w)?,
    );
    let (tr_wr, tr_rd) = (direction(&traced, false, w)?, direction(&traced, true, w)?);
    let overhead_pct = ((tr_wr.p50_s + tr_rd.p50_s) / (ref_wr.p50_s + ref_rd.p50_s) - 1.0) * 100.0;
    let (polls, poll_hits) = tracer.polls();
    let sent = ["msg.send", "msg.send_vectored"];
    let written = ["fs.write", "fs.submit"];
    // `create` truncates the previous file and `close` can wait for
    // queued writes: both are time the write path spends in the layer.
    const WRITE_PATH: [&str; 6] = [
        "fs.create",
        "fs.preallocate",
        "fs.write",
        "fs.submit",
        "fs.drain",
        "fs.close",
    ];
    let sum = |names: &[&str], pick: fn(&SpanTotals, &str) -> f64| -> f64 {
        names.iter().map(|n| pick(&totals, n)).sum()
    };
    let calls = |t: &SpanTotals, n: &str| t.calls(n) as f64;
    let bytes = |t: &SpanTotals, n: &str| t.bytes(n) as f64;
    let busy = |t: &SpanTotals, n: &str| t.busy_s(n);
    let user_bytes = w.user_bytes() as f64;
    let traced_user_bytes = (totals.ops[0] + totals.ops[1]) as f64 * user_bytes;
    let write = derive(&ceil, &totals, false, ref_wr.p50_s, user_bytes);
    let read = derive(&ceil, &totals, true, ref_rd.p50_s, user_bytes);
    let noisy = (spin_after / spin_before - 1.0).abs() > 0.1;

    out.detail
        .insert("reference_write_samples", ref_wr.n)
        .insert("reference_read_samples", ref_rd.n)
        .insert("tail_quantile", tail_quantile(w))
        .insert("write_tail_slices", ref_wr.tail_slices)
        .insert("read_tail_slices", ref_rd.tail_slices)
        .insert("traced_write_ops", totals.ops[0])
        .insert("traced_read_ops", totals.ops[1])
        .insert("spans", spans.len())
        .insert("trace_file", trace_path.display().to_string())
        .insert("files_fnv1a", format!("{traced_fnv:016x}"))
        .insert("noisy", noisy);
    Ok(vec![
        ("schema.memcpy_gb_s", ceil.memcpy_gb_s),
        ("schema.pack_gb_s", ceil.pack_gb_s),
        ("schema.unpack_gb_s", ceil.unpack_gb_s),
        ("schema.pack_frac_memcpy", ceil.pack_gb_s / ceil.memcpy_gb_s),
        ("pool.pack_par_gb_s", ceil.pack_par_gb_s),
        ("plan.build_us", ceil.plan_build_us),
        ("plan.steps", ceil.plan_steps as f64),
        ("plan.pieces", ceil.plan_pieces as f64),
        ("protocol.codec_ns", ceil.codec_ns),
        ("msg.stream_gb_s", ceil.stream_gb_s),
        ("msg.rtt_us", ceil.rtt_us),
        ("msg.sent", sum(&sent, calls)),
        ("msg.sent_bytes", sum(&sent, bytes)),
        ("msg.send_busy_s", sum(&sent, busy)),
        ("msg.server_recv_wait_s", totals.server_recv_wait_s),
        ("msg.polls", polls as f64),
        (
            "msg.poll_hit_ratio",
            poll_hits as f64 / (polls as f64).max(1.0),
        ),
        ("fs.write_gb_s", ceil.fs_write_gb_s),
        ("fs.read_gb_s", ceil.fs_read_gb_s),
        ("fs.sync_ms", ceil.fs_sync_ms),
        ("fs.write_ops", sum(&written, calls)),
        ("fs.write_bytes", sum(&written, bytes)),
        ("fs.read_ops", totals.calls("fs.read") as f64),
        ("fs.syncs", totals.calls("fs.sync") as f64),
        ("fs.write_busy_s", sum(&WRITE_PATH, busy)),
        ("fs.read_busy_s", sum(&["fs.open", "fs.read"], busy)),
        ("fs.sync_busy_s", totals.busy_s("fs.sync")),
        (
            "fs.bytes_per_user_byte",
            (sum(&written, bytes) + totals.bytes("fs.read") as f64) / traced_user_bytes,
        ),
        ("core.write_frac_of_bottleneck", write.frac_of_bottleneck),
        ("core.read_frac_of_bottleneck", read.frac_of_bottleneck),
        ("core.write_serial_sum_ratio", write.serial_sum_ratio),
        ("core.read_serial_sum_ratio", read.serial_sum_ratio),
        ("core.write_unattributed_share", write.unattributed_share),
        ("core.read_unattributed_share", read.unattributed_share),
        (
            "op.req_per_s",
            reference.samples.len() as f64 / reference.wall_s,
        ),
        ("op.write_tail_us", ref_wr.tail_s * 1e6),
        ("op.read_tail_us", ref_rd.tail_s * 1e6),
        ("trace.overhead_pct", overhead_pct),
        ("host.spin_ns_before", spin_before),
        ("host.spin_ns_after", spin_after),
    ])
}

/// The `core.*` metrics of one direction. There is no public seam
/// inside client and server, so the runtime's own share is what the
/// layers around it leave over.
struct Derived {
    /// End-to-end rate over the slowest layer's ceiling.
    frac_of_bottleneck: f64,
    /// Operation time over the time its bytes would take through every
    /// layer alone, one after the other, plus one plan build and two
    /// round trips. Below 1, the stages overlap.
    serial_sum_ratio: f64,
    /// Share of the traced operations' time during which an I/O node
    /// had no transport or file-system call open, less the modelled
    /// reorganization copy. Raw: negative when the copy overlapped a
    /// call.
    unattributed_share: f64,
}

fn derive(c: &Ceilings, totals: &SpanTotals, read: bool, op_s: f64, user_bytes: f64) -> Derived {
    let (kernel, fs) = if read {
        (c.pack_gb_s, c.fs_read_gb_s)
    } else {
        (c.unpack_gb_s, c.fs_write_gb_s)
    };
    let layers = [c.memcpy_gb_s, kernel, c.stream_gb_s, fs];
    let slowest = layers.iter().copied().fold(f64::INFINITY, f64::min);
    let serial_s = layers
        .iter()
        .map(|gb_s| user_bytes / (gb_s * 1e9))
        .sum::<f64>()
        + c.plan_build_us * 1e-6
        + 2.0 * c.rtt_us * 1e-6;
    let dir = read as usize;
    let reorg_s = totals.ops[dir] as f64 * user_bytes / SERVERS as f64 / (kernel * 1e9);
    Derived {
        frac_of_bottleneck: user_bytes / op_s / 1e9 / slowest,
        serial_sum_ratio: op_s / serial_s,
        unattributed_share: (totals.self_s[dir] - reorg_s) / totals.op_s[dir],
    }
}
