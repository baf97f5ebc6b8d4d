//! Closed-loop auto-tuner: calibrate the cost model from run reports,
//! then pick the operating point.
//!
//! The paper hand-tunes Panda's knobs — subchunk size, pipeline depth,
//! worker count — per machine. This module closes the loop instead:
//!
//! 1. **Probe.** Run two short collectives (a write and a read, at two
//!    subchunk sizes) against the *real* backend, each pinned to
//!    pipeline depth 1 via the per-request
//!    [`TunedConfig`] override so phases do
//!    not overlap.
//! 2. **Fit.** Scope the deployment's [`panda_obs::RunReport`] to each
//!    probe request, condense it to per-phase least-squares moments
//!    ([`panda_obs::CalibrationSummary`]), and fit affine cost lines
//!    plus a startup/per-step residual ([`crate::fit`]).
//! 3. **Search.** Walk the schedule the servers would execute
//!    ([`CollectiveSpec::schedule`], the one the simulation replays) for
//!    every candidate `(subchunk, depth, workers)` and predict its wall
//!    time analytically: per server, serial time shrinks toward the
//!    bottleneck stage as the pipeline deepens.
//! 4. **Apply.** The winning [`TunedConfig`] either seeds the next
//!    launch ([`TunedConfig::apply`]) or rides individual requests
//!    (`WriteSet::tuned` / `ReadSet::tuned`).
//!
//! Entry points: [`Calibrate::calibrate`] on a [`Session`] or a
//! [`PandaService`], and [`calibrate_fleet`] for an SPMD fleet. The
//! fitted model also exports a [`Sp2Machine`]
//! ([`Calibration::fitted_machine`]) so predictions can be
//! cross-validated against the discrete-event simulation.

use std::sync::Arc;
use std::time::Instant;

use panda_core::{
    ArrayMeta, ConfigIssue, OpKind, PandaClient, PandaError, PandaService, PandaSystem, ReadSet,
    Session, TunedConfig, WriteSet,
};
use panda_fs::{AixModel, SyncPolicy};
use panda_obs::{Recorder, RunReport};

use crate::actors::CollectiveSpec;
use crate::fit::{DirectionCosts, FittedCosts, ProbeObservation};
use crate::machine::{NetworkModel, Sp2Machine};

/// File tag used by probe collectives (cleaned up when the caller can
/// reach the file systems).
pub const PROBE_TAG: &str = "__panda_probe";

/// The tuner's search space and probe plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerOptions {
    /// Candidate pipeline depths.
    pub depths: Vec<usize>,
    /// Candidate reorganization worker counts. Launch-scoped: an
    /// online-only tuner should restrict this to the deployment's
    /// current value.
    pub io_workers: Vec<usize>,
    /// Candidate subchunk caps, bytes.
    pub subchunk_bytes: Vec<usize>,
    /// The two probe subchunk sizes. Two *different* sizes make the
    /// per-op/per-byte split identifiable.
    pub probe_subchunk_bytes: (usize, usize),
    /// Depth of the third, deep-pipeline probe (at
    /// `probe_subchunk_bytes.0`), which measures how much of the
    /// bottleneck stage a depth-`d` window actually overlaps —
    /// depth-1 phase durations alone overstate the serial floor on
    /// fast backends, where per-subchunk latency dominates them.
    /// `None` skips the probe and assumes a fully serial bottleneck;
    /// it is also skipped under `SyncPolicy::PerWrite`, which forbids
    /// deep windows.
    pub depth_probe: Option<usize>,
    /// Repetitions per probe collective; the fastest rep is fitted
    /// (min-of-reps, the same noise rejection a measured sweep uses).
    /// 1 keeps calibration cheap on slow backends; raise it when the
    /// backend is fast enough that scheduling noise pollutes a single
    /// shot.
    pub probe_reps: usize,
    /// Weight of the write-direction prediction in the objective.
    pub write_weight: f64,
    /// Weight of the read-direction prediction in the objective.
    pub read_weight: f64,
    /// Reorganization workers the deployment is currently running with
    /// (parallelizes the probes' measured reorg time). Filled in
    /// automatically by the [`PandaService`] and [`calibrate_fleet`]
    /// paths; a bare [`Session`] caller must set it to the launched
    /// `PandaConfig::io_workers`.
    pub launch_io_workers: usize,
}

impl Default for TunerOptions {
    fn default() -> Self {
        TunerOptions {
            depths: vec![1, 2, 4, 8],
            io_workers: vec![1, 2, 4],
            subchunk_bytes: vec![16 << 10, 32 << 10, 64 << 10, 256 << 10, 1 << 20],
            probe_subchunk_bytes: (32 << 10, 128 << 10),
            depth_probe: Some(4),
            probe_reps: 1,
            write_weight: 1.0,
            read_weight: 1.0,
            launch_io_workers: 1,
        }
    }
}

/// One point of the searched space with its predicted cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Subchunk cap, bytes.
    pub subchunk_bytes: usize,
    /// Pipeline depth.
    pub pipeline_depth: usize,
    /// Reorganization workers.
    pub io_workers: usize,
    /// Predicted write-collective seconds.
    pub write_s: f64,
    /// Predicted read-collective seconds.
    pub read_s: f64,
    /// Weighted objective (what the tuner minimizes).
    pub predicted_s: f64,
}

/// The outcome of a calibration: fitted constants, the scored search
/// space, and the winning operating point.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// The fitted cost model.
    pub costs: FittedCosts,
    /// Every scored candidate, best first.
    pub candidates: Vec<Candidate>,
    /// The winning operating point (`predicted_s` = its objective).
    pub tuned: TunedConfig,
    /// The deployment's flush policy (constrained the depth search).
    pub sync_policy: SyncPolicy,
}

impl Calibration {
    /// Predict one direction's wall seconds for `meta` at an arbitrary
    /// operating point, by walking the real planner's schedule with the
    /// fitted constants.
    pub fn predict(
        &self,
        meta: &ArrayMeta,
        op: OpKind,
        subchunk_bytes: usize,
        pipeline_depth: usize,
        io_workers: usize,
    ) -> f64 {
        let costs = match op {
            OpKind::Write => &self.costs.write,
            OpKind::Read => &self.costs.read,
        };
        let cfg = TunedConfig::new(subchunk_bytes, pipeline_depth, io_workers);
        predict_direction(
            costs,
            &OperatingPoint::new(meta, op, self.costs.num_servers, &cfg),
        )
    }

    /// Export the fit as a [`Sp2Machine`] so the discrete-event
    /// simulation (`panda_model::simulate`) can replay candidates on
    /// the *fitted* machine — an independent cross-check of the
    /// analytical search.
    pub fn fitted_machine(&self) -> Sp2Machine {
        let w = &self.costs.write;
        let r = &self.costs.read;
        // Invert a per-byte cost into a bandwidth, clamped finite for
        // phases a backend makes effectively free (MemFs disk).
        let rate = |per_byte: f64| {
            if per_byte > 1e-15 {
                (1.0 / per_byte).min(1e13)
            } else {
                1e13
            }
        };
        // Prefer whichever direction actually observed the phase.
        let pick = |a: f64, b: f64| if a > 1e-15 { a } else { b };
        Sp2Machine {
            net: NetworkModel {
                latency: 1e-6,
                bandwidth: rate(pick(w.exchange.per_byte_s, r.exchange.per_byte_s)),
                per_msg_overhead: w.exchange.per_op_s.max(r.exchange.per_op_s),
                small_msg_overhead: 1e-6,
            },
            disk: AixModel {
                raw_bandwidth: rate(pick(
                    w.disk.per_byte_s.max(r.disk.per_byte_s),
                    w.disk.per_byte_s.min(r.disk.per_byte_s),
                )),
                read_op_overhead: r.disk.per_op_s,
                write_op_overhead: w.disk.per_op_s,
                seek_penalty: 0.0,
            },
            memcpy_bandwidth: rate(pick(w.reorg.per_byte_s, r.reorg.per_byte_s)),
            startup: 0.5 * (w.startup_s + r.startup_s),
            per_subchunk_overhead: 0.5 * (w.step_overhead_s + r.step_overhead_s),
            pipeline_depth: 1,
        }
    }
}

/// Calibrate against the live deployment this handle talks to.
///
/// Implemented for [`Session`] (probes run as that tenant) and for
/// [`PandaService`] (a probe session is borrowed from the idle pool and
/// returned afterwards). Both need a timeline-keeping recorder attached
/// at launch ([`ConfigIssue::CalibrationNeedsTimeline`] otherwise) and
/// a single-node array (`meta` is also the shape the search optimizes
/// for — pass the array you are about to move, or a smaller stand-in
/// with the same schema for cheaper probes).
pub trait Calibrate {
    /// Run the probe collectives, fit the model, search the space.
    fn calibrate(
        &mut self,
        meta: &ArrayMeta,
        opts: &TunerOptions,
    ) -> Result<Calibration, PandaError>;
}

impl Calibrate for Session {
    fn calibrate(
        &mut self,
        meta: &ArrayMeta,
        opts: &TunerOptions,
    ) -> Result<Calibration, PandaError> {
        let recorder = Arc::clone(self.recorder());
        let (num_servers, sync_policy) = (self.num_servers(), self.sync_policy());
        let mut buf = vec![0u8; meta.client_bytes(0)];
        run_probes(
            recorder.as_ref(),
            meta,
            num_servers,
            sync_policy,
            opts,
            |op, cfg| {
                let start = Instant::now();
                let id = match op {
                    OpKind::Write => {
                        self.write_set(&WriteSet::new().array(meta, PROBE_TAG, &buf).tuned(cfg))?
                    }
                    OpKind::Read => self.read_set(
                        &mut ReadSet::new().array(meta, PROBE_TAG, &mut buf).tuned(cfg),
                    )?,
                };
                Ok((id, start.elapsed().as_secs_f64()))
            },
        )
    }
}

impl Calibrate for PandaService {
    fn calibrate(
        &mut self,
        meta: &ArrayMeta,
        opts: &TunerOptions,
    ) -> Result<Calibration, PandaError> {
        let mut opts = opts.clone();
        opts.launch_io_workers = self.system().io_workers();
        let slots = self.system().num_clients();
        let mut probe = self.open().ok_or(PandaError::Admission {
            issue: panda_core::AdmissionIssue::Saturated {
                live: slots,
                max: slots,
            },
        })?;
        let result = probe.calibrate(meta, &opts);
        self.close(probe);
        remove_probe_files(self.system());
        result
    }
}

/// Calibrate an SPMD fleet: every client participates in the probe
/// collectives (scoped threads, exactly like application submits), so
/// the fitted exchange costs include the real many-client fan-in.
pub fn calibrate_fleet(
    system: &PandaSystem,
    clients: &mut [PandaClient],
    meta: &ArrayMeta,
    opts: &TunerOptions,
) -> Result<Calibration, PandaError> {
    let first = clients.first().ok_or(PandaError::Config {
        issue: ConfigIssue::NoClientHandles,
    })?;
    let sync_policy = first.sync_policy();
    let mut opts = opts.clone();
    opts.launch_io_workers = system.io_workers();
    let mut bufs: Vec<Vec<u8>> = (0..clients.len())
        .map(|r| vec![0u8; meta.client_bytes(r)])
        .collect();
    let result = run_probes(
        system.recorder().as_ref(),
        meta,
        system.num_servers(),
        sync_policy,
        &opts,
        |op, cfg| fleet_probe(clients, meta, op, &mut bufs, cfg),
    );
    remove_probe_files(system);
    result
}

/// The probe sequence every calibration runs: a depth-1 write+read
/// pair at each end of `opts.probe_subchunk_bytes`, each observed
/// through the recorder, then the optional deep-pipeline pair, then
/// the fit and search. `probe(op, cfg)` submits one collective at
/// `cfg` and returns its request id and wall seconds; every probe is
/// min-of-`opts.probe_reps`, at `opts.launch_io_workers` workers.
fn run_probes(
    recorder: &dyn Recorder,
    meta: &ArrayMeta,
    num_servers: usize,
    sync_policy: SyncPolicy,
    opts: &TunerOptions,
    mut probe: impl FnMut(OpKind, &TunedConfig) -> Result<(u64, f64), PandaError>,
) -> Result<Calibration, PandaError> {
    require_timeline(recorder)?;
    let reps = opts.probe_reps;
    let mut write_probes = Vec::new();
    let mut read_probes = Vec::new();
    for &sub in &[opts.probe_subchunk_bytes.0, opts.probe_subchunk_bytes.1] {
        let cfg = TunedConfig::new(sub, 1, opts.launch_io_workers.max(1));
        for (op, probes) in [
            (OpKind::Write, &mut write_probes),
            (OpKind::Read, &mut read_probes),
        ] {
            let (id, wall) = fleet_min_of_reps(reps, || probe(op, &cfg))?;
            let point = OperatingPoint::new(meta, op, num_servers, &cfg);
            probes.push(observe(recorder, id, wall, &point));
        }
    }
    let depth_probe = match depth_probe_config(opts, sync_policy) {
        Some(cfg) => {
            let (_, write_wall_s) = fleet_min_of_reps(reps, || probe(OpKind::Write, &cfg))?;
            let (_, read_wall_s) = fleet_min_of_reps(reps, || probe(OpKind::Read, &cfg))?;
            Some(DepthProbe {
                cfg,
                write_wall_s,
                read_wall_s,
            })
        }
        None => None,
    };
    finish(
        &write_probes,
        &read_probes,
        depth_probe,
        meta,
        num_servers,
        sync_policy,
        opts,
    )
}

/// One fleet-wide probe collective: every client submits under scoped
/// threads (exactly like an application) — writes send `bufs`, reads
/// fill them — and the leader's request id plus the fleet wall come
/// back for scoping.
fn fleet_probe(
    clients: &mut [PandaClient],
    meta: &ArrayMeta,
    op: OpKind,
    bufs: &mut [Vec<u8>],
    cfg: &TunedConfig,
) -> Result<(u64, f64), PandaError> {
    let submit = |client: &mut PandaClient, buf: &mut Vec<u8>| match op {
        OpKind::Write => client.write_set(&WriteSet::new().array(meta, PROBE_TAG, buf).tuned(cfg)),
        OpKind::Read => client.read_set(&mut ReadSet::new().array(meta, PROBE_TAG, buf).tuned(cfg)),
    };
    let start = Instant::now();
    let results: Vec<Result<(), PandaError>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(bufs.iter_mut())
            .map(|(client, buf)| s.spawn(move || submit(client, buf)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    results.into_iter().collect::<Result<(), _>>()?;
    let wall = start.elapsed().as_secs_f64();
    Ok((clients[0].last_request_id().unwrap_or(0), wall))
}

/// Repeat a fleet probe and keep the fastest rep.
fn fleet_min_of_reps(
    reps: usize,
    mut probe: impl FnMut() -> Result<(u64, f64), PandaError>,
) -> Result<(u64, f64), PandaError> {
    let mut best: Option<(u64, f64)> = None;
    for _ in 0..reps.max(1) {
        let (id, wall) = probe()?;
        if best.is_none_or(|(_, w)| wall < w) {
            best = Some((id, wall));
        }
    }
    Ok(best.expect("at least one probe rep"))
}

/// The deep-pipeline probe pair: its operating point, measured walls.
struct DepthProbe {
    cfg: TunedConfig,
    write_wall_s: f64,
    read_wall_s: f64,
}

/// The deep probe's operating point, or `None` when the options or the
/// flush policy rule it out.
fn depth_probe_config(opts: &TunerOptions, sync_policy: SyncPolicy) -> Option<TunedConfig> {
    let depth = opts.depth_probe?;
    if depth <= 1 || sync_policy == SyncPolicy::PerWrite {
        return None;
    }
    Some(TunedConfig::new(
        opts.probe_subchunk_bytes.0.max(1),
        depth,
        opts.launch_io_workers.max(1),
    ))
}

fn require_timeline(recorder: &dyn Recorder) -> Result<(), PandaError> {
    if recorder.timeline().is_none() {
        return Err(PandaError::Config {
            issue: ConfigIssue::CalibrationNeedsTimeline,
        });
    }
    Ok(())
}

/// One collective at one operating point — the single value every cost
/// walk below takes. `spec` fixes the schedule (array, direction, server
/// count, subchunk cap: [`CollectiveSpec::schedule`]); depth and workers
/// only rescale its sums.
struct OperatingPoint {
    spec: CollectiveSpec,
    pipeline_depth: usize,
    io_workers: usize,
}

impl OperatingPoint {
    fn new(meta: &ArrayMeta, op: OpKind, num_servers: usize, cfg: &TunedConfig) -> Self {
        OperatingPoint {
            spec: CollectiveSpec {
                arrays: vec![meta.clone()],
                op,
                num_servers,
                subchunk_bytes: cfg.subchunk_bytes,
                fast_disk: false,
                section: None,
            },
            pipeline_depth: cfg.pipeline_depth,
            io_workers: cfg.io_workers,
        }
    }

    /// Stage sums of every server that has steps at this point. The
    /// per-step overhead rides the exchange stage (control round trips
    /// happen there); disk and reorg hide behind it.
    fn stage_sums<'a>(&'a self, costs: &'a DirectionCosts) -> impl Iterator<Item = StageSums> + 'a {
        (0..self.spec.num_servers).filter_map(move |server| {
            let schedule = self.spec.schedule(server);
            let steps = schedule.steps.len();
            if steps == 0 {
                return None;
            }
            let (mut exchange_bytes, mut disk, mut reorg) = (0.0, 0.0, 0.0);
            for step in &schedule.steps {
                let bytes = step.sub.bytes as u64;
                exchange_bytes += costs.exchange.per_byte_s * bytes as f64;
                disk += costs.disk.eval(bytes);
                reorg += costs.reorg.eval(bytes);
            }
            Some(StageSums {
                exchange_bytes,
                exchange_ops: (costs.exchange.per_op_s + costs.step_overhead_s) * steps as f64,
                disk,
                reorg: reorg / self.io_workers.max(1) as f64,
                steps,
            })
        })
    }
}

/// Scope the recorder to one probe request and package the observation
/// (steps: the busiest server's, under the probe's schedule).
fn observe(
    recorder: &dyn Recorder,
    request: u64,
    wall_s: f64,
    point: &OperatingPoint,
) -> ProbeObservation {
    let report = RunReport::for_request(recorder, request);
    ProbeObservation {
        summary: report.calibration_summary(),
        wall_s,
        steps: max_server_steps(&point.spec),
    }
}

/// Steps on the busiest server for this collective.
fn max_server_steps(spec: &CollectiveSpec) -> usize {
    let steps = |server| spec.schedule(server).steps.len();
    (0..spec.num_servers).map(steps).max().unwrap_or(0)
}

/// Predict one direction's wall seconds at an operating point by
/// walking the real schedule per server: the serial per-step costs sum,
/// and a depth-`d` window converges the sum toward the bottleneck
/// stage, `T = bound + (serial − bound)/min(d, steps)`.
fn predict_direction(costs: &DirectionCosts, point: &OperatingPoint) -> f64 {
    let server_wall = |stages: StageSums| {
        let depth = point.pipeline_depth.min(stages.steps).max(1) as f64;
        let serial = stages.serial();
        let bound = stages.bound(costs.overlap).clamp(0.0, serial);
        bound + (serial - bound) / depth
    };
    let worst = point.stage_sums(costs).map(server_wall).fold(0.0, f64::max);
    costs.startup_s + worst
}

/// One server's per-stage cost sums at an operating point.
struct StageSums {
    /// Exchange per-byte occupancy — serial wire/memcpy time.
    exchange_bytes: f64,
    /// Exchange per-op share plus the fitted per-step overhead: the
    /// latency-like costs that a deep window can hide.
    exchange_ops: f64,
    disk: f64,
    /// Reorganization elapsed (CPU seconds over the worker count).
    reorg: f64,
    steps: usize,
}

impl StageSums {
    /// Depth-1 wall: every stage in sequence.
    fn serial(&self) -> f64 {
        self.exchange_bytes + self.exchange_ops + self.disk + self.reorg
    }

    /// The pipelined floor. Per-byte occupancy is a serial resource;
    /// the per-op share of the exchange stage is latency, and `overlap`
    /// — measured by the deep-pipeline probe — says how much of it
    /// actually survives pipelining.
    fn bound(&self, overlap: f64) -> f64 {
        (self.exchange_bytes + overlap * self.exchange_ops)
            .max(self.disk)
            .max(self.reorg)
    }
}

/// Invert the depth formula at the deep-pipeline probe: with the
/// depth-1 fit in hand and a measured wall at depth `d`, solve
/// `measured = startup + b' + (serial − b')/min(d, n)` for the
/// effective serial floor `b'` on the dominant server, and return it
/// as a multiple of the modeled bound (clamped so predictions stay in
/// `[serial/m, serial]`). Returns 1.0 — the fully-serial assumption —
/// when the probe carries no depth signal (one step, zero bound).
fn solve_overlap(costs: &DirectionCosts, point: &OperatingPoint, measured_wall_s: f64) -> f64 {
    // The dominant server: the (first) largest serial sum.
    let dominant = point
        .stage_sums(costs)
        .reduce(|d, s| if s.serial() > d.serial() { s } else { d });
    let Some(stages) = dominant else {
        return 1.0;
    };
    let serial = stages.serial();
    let m = point.pipeline_depth.min(stages.steps).max(1) as f64;
    if m <= 1.0 || serial <= f64::EPSILON || stages.exchange_ops <= f64::EPSILON {
        return 1.0;
    }
    // If the bottleneck is disk or reorg regardless of the overlap
    // fraction, the probe's wall carries no signal about it.
    if stages.bound(1.0) <= stages.disk.max(stages.reorg) {
        return 1.0;
    }
    let stage_wall = (measured_wall_s - costs.startup_s).max(0.0);
    let effective = ((stage_wall - serial / m) * m / (m - 1.0)).clamp(0.0, serial);
    // Invert bound(ov) = exchange_bytes + ov * exchange_ops on the
    // exchange branch; the floor stays at the occupancy-only bound.
    ((effective - stages.exchange_bytes) / stages.exchange_ops).clamp(0.0, 1.0)
}

/// Fit the model from the probes and score the whole candidate grid.
fn finish(
    write_probes: &[ProbeObservation],
    read_probes: &[ProbeObservation],
    depth_probe: Option<DepthProbe>,
    meta: &ArrayMeta,
    num_servers: usize,
    sync_policy: SyncPolicy,
    opts: &TunerOptions,
) -> Result<Calibration, PandaError> {
    if write_probes.iter().all(|p| p.summary.subchunks == 0)
        && read_probes.iter().all(|p| p.summary.subchunks == 0)
    {
        // A timeline existed but recorded nothing for our requests
        // (e.g. a saturated ring): the fit would be vacuous.
        return Err(PandaError::Config {
            issue: ConfigIssue::CalibrationNeedsTimeline,
        });
    }
    let workers = opts.launch_io_workers.max(1);
    let mut costs = FittedCosts {
        write: DirectionCosts::fit(write_probes, num_servers, workers),
        read: DirectionCosts::fit(read_probes, num_servers, workers),
        num_servers,
        probe_io_workers: workers,
    };
    let point = |op, cfg: &TunedConfig| OperatingPoint::new(meta, op, num_servers, cfg);
    if let Some(dp) = depth_probe {
        for (dir, op, wall) in [
            (&mut costs.write, OpKind::Write, dp.write_wall_s),
            (&mut costs.read, OpKind::Read, dp.read_wall_s),
        ] {
            dir.overlap = solve_overlap(dir, &point(op, &dp.cfg), wall);
        }
    }
    let mut candidates = Vec::new();
    for &sub in &opts.subchunk_bytes {
        for &depth in &opts.depths {
            if sub == 0 || depth == 0 {
                continue;
            }
            if sync_policy == SyncPolicy::PerWrite && depth > 1 {
                continue;
            }
            for &io_workers in &opts.io_workers {
                if io_workers == 0 {
                    continue;
                }
                let cfg = TunedConfig::new(sub, depth, io_workers);
                let write_s = predict_direction(&costs.write, &point(OpKind::Write, &cfg));
                let read_s = predict_direction(&costs.read, &point(OpKind::Read, &cfg));
                candidates.push(Candidate {
                    subchunk_bytes: sub,
                    pipeline_depth: depth,
                    io_workers,
                    write_s,
                    read_s,
                    predicted_s: opts.write_weight * write_s + opts.read_weight * read_s,
                });
            }
        }
    }
    candidates.sort_by(|a, b| a.predicted_s.total_cmp(&b.predicted_s));
    let tuned = match candidates.first() {
        Some(best) => TunedConfig {
            subchunk_bytes: best.subchunk_bytes,
            pipeline_depth: best.pipeline_depth,
            io_workers: best.io_workers,
            predicted_s: best.predicted_s,
        },
        // Empty search space: keep the probes' operating point.
        None => TunedConfig::new(opts.probe_subchunk_bytes.1.max(1), 1, workers),
    };
    Ok(Calibration {
        costs,
        candidates,
        tuned,
        sync_policy,
    })
}

/// Best-effort cleanup of the probe collectives' files.
fn remove_probe_files(system: &PandaSystem) {
    for (server, fs) in system.filesystems.iter().enumerate() {
        let _ = fs.remove(&format!("{PROBE_TAG}.s{server}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::CostLine;
    use panda_schema::{DataSchema, ElementType, Mesh, Shape};

    fn meta() -> ArrayMeta {
        let shape = Shape::new(&[128, 128]).unwrap();
        let mem =
            DataSchema::block_all(shape.clone(), ElementType::F64, Mesh::new(&[1, 1]).unwrap())
                .unwrap();
        let disk = DataSchema::traditional_order(shape, ElementType::F64, 2).unwrap();
        ArrayMeta::new("t", mem, disk).unwrap()
    }

    /// A write of `meta()` over two servers at one operating point.
    fn point(sub: usize, depth: usize, workers: usize) -> OperatingPoint {
        let cfg = TunedConfig::new(sub, depth, workers);
        OperatingPoint::new(&meta(), OpKind::Write, 2, &cfg)
    }

    fn synthetic_costs() -> FittedCosts {
        let dir = DirectionCosts {
            exchange: CostLine {
                per_op_s: 1e-4,
                per_byte_s: 5e-9,
            },
            disk: CostLine {
                per_op_s: 2e-4,
                per_byte_s: 2e-8,
            },
            reorg: CostLine {
                per_op_s: 0.0,
                per_byte_s: 4e-9,
            },
            step_overhead_s: 5e-5,
            startup_s: 1e-3,
            overlap: 1.0,
        };
        FittedCosts {
            write: dir,
            read: dir,
            num_servers: 2,
            probe_io_workers: 1,
        }
    }

    #[test]
    fn deeper_pipelines_predict_monotonically_faster() {
        let costs = synthetic_costs();
        let predict = |depth| predict_direction(&costs.write, &point(16 << 10, depth, 1));
        let t1 = predict(1);
        let t2 = predict(2);
        let t4 = predict(4);
        assert!(t1 > t2 && t2 > t4, "{t1} {t2} {t4}");
        // Diminishing returns: the bottleneck stage is a floor.
        assert!(t4 > costs.write.startup_s);
        // Depth beyond the step count changes nothing.
        assert_eq!(predict(1 << 20), predict(64));
    }

    #[test]
    fn overlap_solve_round_trips_through_prediction() {
        // An exchange-dominated fit (fast disk): the per-op share of
        // the exchange stage carries the depth signal the probe reads.
        let mut costs = DirectionCosts {
            exchange: CostLine {
                per_op_s: 1e-3,
                per_byte_s: 5e-9,
            },
            disk: CostLine {
                per_op_s: 1e-6,
                per_byte_s: 1e-10,
            },
            reorg: CostLine {
                per_op_s: 0.0,
                per_byte_s: 4e-9,
            },
            step_overhead_s: 5e-5,
            startup_s: 1e-3,
            overlap: 1.0,
        };
        let (sub, depth, workers) = (16 << 10, 4, 1);
        // Pretend the deep probe measured exactly what a half-serial
        // bottleneck predicts; the solve must recover that fraction,
        // and predictions must interpolate below the serial-bound fit.
        costs.overlap = 0.5;
        let measured = predict_direction(&costs, &point(sub, depth, workers));
        costs.overlap = 1.0;
        let serial_bound = predict_direction(&costs, &point(sub, depth, workers));
        assert!(measured < serial_bound);
        let solved = solve_overlap(&costs, &point(sub, depth, workers), measured);
        assert!((solved - 0.5).abs() < 1e-9, "solved {solved}");
        // A probe with no depth signal keeps the serial assumption.
        let flat = solve_overlap(&costs, &point(sub, 1, workers), measured);
        assert_eq!(flat, 1.0);
    }

    #[test]
    fn search_respects_the_sync_policy() {
        let probes = [
            ProbeObservation {
                summary: Default::default(),
                wall_s: 0.1,
                steps: 16,
            },
            ProbeObservation {
                summary: {
                    let mut s = panda_obs::CalibrationSummary::default();
                    s.disk.push(1024, 1e-3);
                    s.subchunks = 1;
                    s
                },
                wall_s: 0.05,
                steps: 4,
            },
        ];
        let calibration = finish(
            &probes,
            &probes,
            None,
            &meta(),
            2,
            SyncPolicy::PerWrite,
            &TunerOptions::default(),
        )
        .unwrap();
        assert!(!calibration.candidates.is_empty());
        assert!(calibration.candidates.iter().all(|c| c.pipeline_depth == 1));
        assert_eq!(calibration.tuned.pipeline_depth, 1);
        assert!(calibration.tuned.validate(SyncPolicy::PerWrite).is_ok());
    }

    #[test]
    fn candidates_are_sorted_and_tuned_is_best() {
        let probes = [
            ProbeObservation {
                summary: {
                    let mut s = panda_obs::CalibrationSummary::default();
                    for _ in 0..8 {
                        s.disk.push(32 << 10, 3e-3);
                        s.exchange.push(32 << 10, 1e-3);
                    }
                    s.subchunks = 8;
                    s
                },
                wall_s: 0.05,
                steps: 4,
            },
            ProbeObservation {
                summary: {
                    let mut s = panda_obs::CalibrationSummary::default();
                    for _ in 0..2 {
                        s.disk.push(128 << 10, 9e-3);
                        s.exchange.push(128 << 10, 3e-3);
                    }
                    s.subchunks = 2;
                    s
                },
                wall_s: 0.04,
                steps: 1,
            },
        ];
        let calibration = finish(
            &probes,
            &probes,
            None,
            &meta(),
            2,
            SyncPolicy::PerCollective,
            &TunerOptions {
                launch_io_workers: 2,
                ..TunerOptions::default()
            },
        )
        .unwrap();
        let preds: Vec<f64> = calibration
            .candidates
            .iter()
            .map(|c| c.predicted_s)
            .collect();
        assert!(preds.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(calibration.tuned.predicted_s, preds[0]);
        assert!(calibration.tuned.subchunk_bytes > 0);
        // The fitted machine is a well-formed Sp2Machine.
        let machine = calibration.fitted_machine();
        assert!(machine.net.bandwidth > 0.0 && machine.net.bandwidth.is_finite());
        assert!(machine.disk.raw_bandwidth > 0.0 && machine.disk.raw_bandwidth.is_finite());
        assert!(machine.memcpy_bandwidth > 0.0);
        assert!(machine.startup >= 0.0);
    }

    #[test]
    fn vacuous_probes_are_a_typed_error() {
        let empty = ProbeObservation {
            summary: Default::default(),
            wall_s: 0.1,
            steps: 4,
        };
        let err = finish(
            &[empty],
            &[empty],
            None,
            &meta(),
            2,
            SyncPolicy::PerCollective,
            &TunerOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PandaError::Config {
                issue: ConfigIssue::CalibrationNeedsTimeline
            }
        ));
    }
}
