//! Drift detection: does the live deployment still behave like the
//! model we calibrated?
//!
//! A [`Calibration`] freezes per-phase cost lines
//! (`t = per_op + per_byte · bytes`) at probe time. Backends drift —
//! a shared disk gets busier, a network path degrades, a throttle
//! changes — and a tuner driving stale constants picks stale operating
//! points. The [`DriftDetector`] closes that gap using the *live*
//! telemetry plane: it reads per-phase first/second moments from a
//! [`TelemetryRecorder`](panda_obs::TelemetryRecorder) snapshot window, predicts what
//! the calibrated lines say those phases *should* have cost, and scores
//! the relative disagreement. Phases the model has no line for
//! (throttle accounting, receive waits) and phases with too few samples
//! are excluded.
//!
//! The loop is opt-in: drive [`service_drift_pass`] periodically — when
//! the drift score crosses the detector's threshold it recalibrates
//! through the same [`Calibrate`] trait the manual tuner uses and
//! rebases the detector on the fresh fit. [`DriftDetector::check`]
//! alone only ever reports.

use panda_core::{ArrayMeta, PandaError, PandaService};
use panda_obs::{MetricsSnapshot, Phase, Recorder};

use crate::fit::{CostLine, DirectionCosts, FittedCosts};
use crate::tuner::{Calibrate, Calibration, TunerOptions};

/// Phases with too little predicted time get their disagreement scored
/// against this floor instead (seconds), so a microsecond of noise on a
/// near-free phase cannot fire the detector.
const PREDICTED_FLOOR_S: f64 = 1e-6;

/// A phase must carry at least this fraction of the window's measured
/// seconds for its disagreement to drive the score. Minor phases are
/// still reported in [`DriftReport::phases`] for inspection.
pub const MIN_PHASE_SHARE: f64 = 0.05;

/// One phase's live-vs-calibrated comparison.
#[derive(Debug, Clone, Copy)]
pub struct PhaseDrift {
    /// Which phase.
    pub phase: Phase,
    /// Samples observed in the window.
    pub ops: u64,
    /// Bytes moved in the window.
    pub bytes: u64,
    /// Seconds the window actually spent in the phase.
    pub measured_s: f64,
    /// Seconds the calibrated cost line predicts for the window's
    /// `(ops, bytes)` — the closer of the write- and read-direction
    /// lines.
    pub predicted_s: f64,
    /// Relative disagreement: `|measured − predicted| / predicted`.
    pub drift: f64,
}

/// The outcome of one drift check.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// The worst per-phase drift among qualifying phases (0 when no
    /// phase qualified).
    pub score: f64,
    /// Whether `score` crossed the detector's threshold.
    pub drifted: bool,
    /// Every phase that had a cost line and enough samples.
    pub phases: Vec<PhaseDrift>,
}

impl DriftReport {
    /// The phase driving the score, if any phase qualified.
    pub fn worst(&self) -> Option<&PhaseDrift> {
        self.phases
            .iter()
            .max_by(|a, b| a.drift.total_cmp(&b.drift))
    }
}

/// Compares live per-phase moments against a stored calibration's cost
/// lines over an explicit snapshot window. See the module docs.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    baseline: FittedCosts,
    threshold: f64,
    min_samples: u64,
    window: Option<MetricsSnapshot>,
}

impl DriftDetector {
    /// Default per-phase sample floor before a phase may fire.
    pub const DEFAULT_MIN_SAMPLES: u64 = 8;

    /// A detector scoring against `costs`, firing at relative drift
    /// `threshold` (e.g. `0.5` = a phase runs 50 % off its line).
    pub fn new(costs: FittedCosts, threshold: f64) -> Self {
        DriftDetector {
            baseline: costs,
            threshold: threshold.max(0.0),
            min_samples: Self::DEFAULT_MIN_SAMPLES,
            window: None,
        }
    }

    /// A detector baselined on a completed calibration.
    pub fn from_calibration(calibration: &Calibration, threshold: f64) -> Self {
        Self::new(calibration.costs, threshold)
    }

    /// Require at least `min_samples` phase samples in the window
    /// before that phase can contribute to the score.
    pub fn with_min_samples(mut self, min_samples: u64) -> Self {
        self.min_samples = min_samples;
        self
    }

    /// The firing threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The calibrated costs currently scored against.
    pub fn baseline(&self) -> &FittedCosts {
        &self.baseline
    }

    /// Start a fresh observation window at the recorder's current
    /// counters (everything before this call is excluded from future
    /// scores). Returns `false` — and leaves the window unset — when
    /// the recorder keeps no metrics store (a
    /// [`NullRecorder`](panda_obs::NullRecorder)).
    pub fn begin_window(&mut self, recorder: &dyn Recorder) -> bool {
        self.window = recorder.metrics();
        self.window.is_some()
    }

    /// Score the live counters against the baseline over the current
    /// window. `None` when the recorder keeps no metrics store. Does not move the
    /// window — repeated checks score a growing window until
    /// [`DriftDetector::begin_window`] or [`DriftDetector::rebase`].
    pub fn check(&self, recorder: &dyn Recorder) -> Option<DriftReport> {
        let live = recorder.metrics()?;
        let delta = match &self.window {
            Some(start) => live.since(start),
            None => live,
        };
        Some(self.score_window(&delta))
    }

    /// Adopt a fresh calibration and restart the window, so the next
    /// check scores only post-recalibration traffic against the new
    /// lines.
    pub fn rebase(&mut self, calibration: &Calibration, recorder: &dyn Recorder) {
        self.baseline = calibration.costs;
        self.begin_window(recorder);
    }

    /// Score one already-delta'd snapshot window.
    ///
    /// Every modeled phase with enough samples is reported, but only
    /// phases carrying at least [`MIN_PHASE_SHARE`] of the window's
    /// measured seconds drive the score: a phase that is 1 % of the
    /// runtime mispredicted 3x is µs-scale noise, not a reason to
    /// replan, and on small windows the minor phases routinely sit at
    /// scheduling granularity where relative error is meaningless.
    pub fn score_window(&self, window: &MetricsSnapshot) -> DriftReport {
        let lines = |phase: Phase| -> Option<(CostLine, CostLine)> {
            let pick = |d: &DirectionCosts| match phase {
                Phase::Exchange => Some(d.exchange),
                Phase::Disk => Some(d.disk),
                Phase::Reorg => Some(d.reorg),
                Phase::Throttle | Phase::RecvWait => None,
            };
            Some((pick(&self.baseline.write)?, pick(&self.baseline.read)?))
        };
        let mut phases = Vec::new();
        for p in &window.phases {
            let Some((write, read)) = lines(p.phase) else {
                continue;
            };
            if p.ops < self.min_samples.max(1) {
                continue;
            }
            let predict =
                |line: &CostLine| line.per_op_s * p.ops as f64 + line.per_byte_s * p.bytes as f64;
            // The store pools both directions into one phase row; score
            // against whichever direction's line explains it better, so
            // only "neither calibration explains this" counts as drift.
            let (pw, pr) = (predict(&write), predict(&read));
            let drift_vs = |pred: f64| (p.secs - pred).abs() / pred.max(PREDICTED_FLOOR_S);
            let (predicted_s, drift) = if drift_vs(pw) <= drift_vs(pr) {
                (pw, drift_vs(pw))
            } else {
                (pr, drift_vs(pr))
            };
            phases.push(PhaseDrift {
                phase: p.phase,
                ops: p.ops,
                bytes: p.bytes,
                measured_s: p.secs,
                predicted_s,
                drift,
            });
        }
        let total_s: f64 = phases.iter().map(|p| p.measured_s).sum();
        let score = phases
            .iter()
            .filter(|p| p.measured_s >= MIN_PHASE_SHARE * total_s)
            .map(|p| p.drift)
            .fold(0.0, f64::max);
        DriftReport {
            score,
            drifted: score > self.threshold,
            phases,
        }
    }
}

/// One recalibration triggered (or not) by a drift pass.
#[derive(Debug)]
pub struct DriftPass {
    /// The drift report, when the service's recorder keeps a metrics
    /// store.
    pub report: Option<DriftReport>,
    /// The fresh calibration, when the score crossed the detector's
    /// threshold and recalibration ran.
    pub recalibrated: Option<Calibration>,
}

/// Drive one detector pass against a live service: score the window,
/// and — when the report says [`DriftReport::drifted`] — recalibrate
/// through [`Calibrate`] (probes borrow an idle session slot) and rebase
/// the detector on the fresh fit.
pub fn service_drift_pass(
    detector: &mut DriftDetector,
    service: &mut PandaService,
    meta: &ArrayMeta,
    opts: &TunerOptions,
) -> Result<DriftPass, PandaError> {
    let report = detector.check(service.system().recorder().as_ref());
    if !report.as_ref().is_some_and(|r| r.drifted) {
        return Ok(DriftPass {
            report,
            recalibrated: None,
        });
    }
    let calibration = service.calibrate(meta, opts)?;
    detector.rebase(&calibration, service.system().recorder().as_ref());
    Ok(DriftPass {
        report,
        recalibrated: Some(calibration),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_obs::{Event, SubchunkKey, TelemetryRecorder};
    use std::time::Duration;

    /// Costs whose disk line is exactly 1 µs/KiB with a 100 µs per-op
    /// charge, identical in both directions.
    fn costs() -> FittedCosts {
        let dir = DirectionCosts {
            exchange: CostLine {
                per_op_s: 1e-4,
                per_byte_s: 1e-9,
            },
            disk: CostLine {
                per_op_s: 1e-4,
                per_byte_s: 1e-9,
            },
            reorg: CostLine {
                per_op_s: 0.0,
                per_byte_s: 1e-9,
            },
            step_overhead_s: 0.0,
            startup_s: 0.0,
            overlap: 1.0,
        };
        FittedCosts {
            write: dir,
            read: dir,
            num_servers: 1,
            probe_io_workers: 1,
        }
    }

    /// Record `n` disk writes of `bytes` bytes, each `slowdown`× the
    /// calibrated line's prediction.
    fn disk_traffic(rec: &TelemetryRecorder, n: usize, bytes: u64, slowdown: f64) {
        let per = Duration::from_secs_f64((1e-4 + bytes as f64 * 1e-9) * slowdown);
        for i in 0..n {
            rec.record(
                1,
                &Event::DiskWriteDone {
                    key: SubchunkKey::scoped(1 << 32, 0, 0, i),
                    offset: 0,
                    bytes,
                    dur: per,
                },
            );
        }
    }

    #[test]
    fn on_model_traffic_scores_near_zero() {
        let rec = TelemetryRecorder::new();
        let mut det = DriftDetector::new(costs(), 0.5);
        assert!(det.begin_window(&rec));
        disk_traffic(&rec, 32, 64 << 10, 1.0);
        let report = det.check(&rec).expect("recorder keeps a store");
        assert!(report.score < 0.05, "score {}", report.score);
        assert!(!report.drifted);
        let disk = report
            .phases
            .iter()
            .find(|p| p.phase == Phase::Disk)
            .expect("disk phase scored");
        assert_eq!(disk.ops, 32);
        assert!((disk.measured_s - disk.predicted_s).abs() / disk.predicted_s < 0.05);
    }

    #[test]
    fn throttled_backend_fires_and_rebase_resets() {
        let rec = TelemetryRecorder::new();
        let mut det = DriftDetector::new(costs(), 0.5);
        det.begin_window(&rec);
        // The backend now takes 3× the calibrated disk line: relative
        // drift ≈ 2.0, well over the 0.5 threshold.
        disk_traffic(&rec, 32, 64 << 10, 3.0);
        let report = det.check(&rec).expect("recorder keeps a store");
        assert!(report.drifted, "score {}", report.score);
        assert!(report.score > 1.5 && report.score < 2.5);
        assert_eq!(report.worst().unwrap().phase, Phase::Disk);

        // Rebase on a calibration matching the slow backend: the window
        // restarts and new on-model traffic scores clean again.
        let mut slow = costs();
        let line = CostLine {
            per_op_s: 3e-4,
            per_byte_s: 3e-9,
        };
        slow.write.disk = line;
        slow.read.disk = line;
        let calibration = Calibration {
            costs: slow,
            candidates: Vec::new(),
            tuned: panda_core::TunedConfig::new(64 << 10, 1, 1),
            sync_policy: panda_fs::SyncPolicy::PerCollective,
        };
        det.rebase(&calibration, &rec);
        disk_traffic(&rec, 32, 64 << 10, 3.0);
        let report = det.check(&rec).expect("recorder keeps a store");
        assert!(!report.drifted, "score {}", report.score);
    }

    #[test]
    fn sparse_windows_and_storeless_recorders_stay_quiet() {
        let rec = TelemetryRecorder::new();
        let det = DriftDetector::new(costs(), 0.5).with_min_samples(8);
        // Below the sample floor: the wildly-off phase cannot fire.
        disk_traffic(&rec, 3, 64 << 10, 100.0);
        let report = det.check(&rec).expect("recorder keeps a store");
        assert_eq!(report.score, 0.0);
        assert!(report.phases.is_empty());
        assert!(report.worst().is_none());

        // A recorder with no store yields no report at all.
        let null = panda_obs::NullRecorder;
        let mut det = det;
        assert!(!det.begin_window(&null));
        assert!(det.check(&null).is_none());
    }
}
