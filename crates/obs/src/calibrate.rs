//! Machine-readable calibration summaries: the measurement half of a
//! closed-loop tuner.
//!
//! A [`RunReport`] carries per-subchunk exchange/disk/reorganization
//! durations. [`RunReport::calibration_summary`] condenses them into
//! per-phase *least-squares moments* — enough to fit the line
//! `t(subchunk) = per_op + per_byte · bytes` for each phase, and to
//! merge samples from several probe runs (e.g. two short collectives at
//! different subchunk sizes) before solving. A single run usually has
//! one subchunk size, which leaves the slope unidentifiable; merging
//! runs at two sizes conditions the fit. The summary is plain data with
//! a JSON rendering, so a tuner (or an offline notebook) can consume it
//! without re-walking the timeline.

use crate::json;
use crate::report::RunReport;

/// Schema tag for the JSON rendering of a [`CalibrationSummary`].
pub const CALIBRATION_SCHEMA: &str = "panda-obs-calibration-v1";

/// Accumulated (subchunk bytes → phase seconds) samples for one phase,
/// kept as least-squares moments so summaries can be merged exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Number of subchunk samples.
    pub samples: u64,
    /// Total subchunk bytes across samples.
    pub bytes: u64,
    /// Total phase seconds across samples.
    pub secs: f64,
    /// Σx (x = subchunk bytes).
    sum_x: f64,
    /// Σy (y = phase seconds).
    sum_y: f64,
    /// Σx².
    sum_xx: f64,
    /// Σxy.
    sum_xy: f64,
}

impl PhaseStats {
    /// Rebuild stats from externally accumulated moments — the bridge
    /// from the live store (which keeps per-kind moments as atomics and
    /// sums them per phase) back into the calibration fit. `Σx` is taken
    /// as the total bytes and `Σy` as the total seconds, matching what
    /// [`PhaseStats::push`] would have accumulated sample by sample.
    pub fn from_moments(samples: u64, bytes: u64, secs: f64, sum_xx: f64, sum_xy: f64) -> Self {
        PhaseStats {
            samples,
            bytes,
            secs,
            sum_x: bytes as f64,
            sum_y: secs,
            sum_xx,
            sum_xy,
        }
    }

    /// Add one subchunk sample.
    pub fn push(&mut self, bytes: u64, secs: f64) {
        self.samples += 1;
        self.bytes += bytes;
        self.secs += secs;
        let x = bytes as f64;
        self.sum_x += x;
        self.sum_y += secs;
        self.sum_xx += x * x;
        self.sum_xy += x * secs;
    }

    /// Merge another summary's samples into this one (exact: moments
    /// add).
    pub fn merge(&mut self, other: &PhaseStats) {
        self.samples += other.samples;
        self.bytes += other.bytes;
        self.secs += other.secs;
        self.sum_x += other.sum_x;
        self.sum_y += other.sum_y;
        self.sum_xx += other.sum_xx;
        self.sum_xy += other.sum_xy;
    }

    /// Least-squares fit of `t = per_op + per_byte · bytes`, returned
    /// as `(per_op_s, per_byte_s)`. `None` when the samples cannot
    /// identify a slope (fewer than two samples, or no spread in the
    /// sizes) — callers fall back to [`PhaseStats::mean_secs_per_byte`].
    pub fn fit_line(&self) -> Option<(f64, f64)> {
        if self.samples < 2 {
            return None;
        }
        let n = self.samples as f64;
        let det = n * self.sum_xx - self.sum_x * self.sum_x;
        // Relative degeneracy test: det is O(n²·x²) for well-spread x.
        if det <= 1e-9 * n * self.sum_xx {
            return None;
        }
        let per_byte = (n * self.sum_xy - self.sum_x * self.sum_y) / det;
        let per_op = (self.sum_y - per_byte * self.sum_x) / n;
        Some((per_op, per_byte))
    }

    /// Fallback rate when the line is unidentifiable: total seconds
    /// over total bytes (0 when no bytes moved).
    pub fn mean_secs_per_byte(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.secs / self.bytes as f64
        }
    }

    /// Append the member `"key":{…}`.
    fn push_member(&self, out: &mut String, key: &str) {
        let (per_op, per_byte) = self.fit_line().unwrap_or((0.0, self.mean_secs_per_byte()));
        json::push_key(out, key);
        out.push('{');
        json::member(out, "samples", self.samples);
        json::member(out, "bytes", self.bytes);
        json::member_f64(out, "secs", self.secs);
        json::member_f64(out, "per_op_s", per_op);
        json::member_f64(out, "per_byte_s", per_byte);
        out.push('}');
    }
}

/// The calibration view of one run: per-phase sample moments plus the
/// run's wall span. Produced by [`RunReport::calibration_summary`];
/// merge several (one per probe) with [`CalibrationSummary::merge`]
/// before fitting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CalibrationSummary {
    /// Exchange-phase samples (server blocked on client data).
    pub exchange: PhaseStats,
    /// Disk-phase samples (positioned reads/writes).
    pub disk: PhaseStats,
    /// Reorganization samples (pack/scatter CPU seconds).
    pub reorg: PhaseStats,
    /// Wall span of the run, seconds.
    pub wall_s: f64,
    /// Subchunks observed (the report's per-subchunk row count).
    pub subchunks: u64,
}

impl CalibrationSummary {
    /// Merge another summary's samples (wall spans add — probes run
    /// back to back).
    pub fn merge(&mut self, other: &CalibrationSummary) {
        self.exchange.merge(&other.exchange);
        self.disk.merge(&other.disk);
        self.reorg.merge(&other.reorg);
        self.wall_s += other.wall_s;
        self.subchunks += other.subchunks;
    }

    /// Serialize as one JSON object (schema [`CALIBRATION_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        json::member_str(&mut out, "schema", CALIBRATION_SCHEMA);
        json::member_f64(&mut out, "wall_s", self.wall_s);
        json::member(&mut out, "subchunks", self.subchunks);
        self.exchange.push_member(&mut out, "exchange");
        self.disk.push_member(&mut out, "disk");
        self.reorg.push_member(&mut out, "reorg");
        out.push('}');
        out
    }
}

impl RunReport {
    /// Condense this report's per-subchunk decomposition into
    /// calibration moments. Requires a timeline-keeping recorder (an
    /// aggregate-only report has no per-subchunk rows and yields empty
    /// stats).
    pub fn calibration_summary(&self) -> CalibrationSummary {
        let mut summary = CalibrationSummary {
            wall_s: self.wall_s,
            subchunks: self.per_subchunk.len() as u64,
            ..CalibrationSummary::default()
        };
        for s in &self.per_subchunk {
            summary.exchange.push(s.bytes, s.exchange_s);
            summary.disk.push(s.bytes, s.disk_s);
            summary.reorg.push(s.bytes, s.reorg_s);
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_fit_recovers_known_constants() {
        // y = 2e-3 + 1e-6 * x, two sizes: exactly identifiable.
        let mut stats = PhaseStats::default();
        for &x in &[1024u64, 1024, 4096, 4096] {
            stats.push(x, 2e-3 + 1e-6 * x as f64);
        }
        let (per_op, per_byte) = stats.fit_line().unwrap();
        assert!((per_op - 2e-3).abs() < 1e-9, "per_op {per_op}");
        assert!((per_byte - 1e-6).abs() < 1e-12, "per_byte {per_byte}");
    }

    #[test]
    fn single_size_is_degenerate_with_rate_fallback() {
        let mut stats = PhaseStats::default();
        stats.push(4096, 4e-3);
        stats.push(4096, 4e-3);
        assert!(stats.fit_line().is_none());
        assert!((stats.mean_secs_per_byte() - 4e-3 / 4096.0).abs() < 1e-12);
        assert_eq!(PhaseStats::default().mean_secs_per_byte(), 0.0);
        assert!(PhaseStats::default().fit_line().is_none());
    }

    #[test]
    fn merge_equals_pooled_samples() {
        let mut a = PhaseStats::default();
        let mut b = PhaseStats::default();
        let mut pooled = PhaseStats::default();
        for (i, &(x, y)) in [
            (1024u64, 3e-3),
            (8192, 9e-3),
            (1024, 3.5e-3),
            (8192, 8.5e-3),
        ]
        .iter()
        .enumerate()
        {
            if i % 2 == 0 {
                a.push(x, y);
            } else {
                b.push(x, y);
            }
            pooled.push(x, y);
        }
        a.merge(&b);
        assert_eq!(a, pooled);
        let (po, pb) = a.fit_line().unwrap();
        assert!(po.is_finite() && pb.is_finite());
    }

    #[test]
    fn summary_json_is_valid() {
        use crate::event::{Event, SubchunkKey};
        use crate::recorder::Recorder;
        use crate::recorder::TelemetryRecorder;
        use std::time::Duration;

        let rec = TelemetryRecorder::with_ring(64);
        for (i, bytes) in [1024u64, 4096].iter().enumerate() {
            rec.record(
                2,
                &Event::DiskWriteDone {
                    key: SubchunkKey::new(0, 0, i),
                    offset: 0,
                    bytes: *bytes,
                    dur: Duration::from_micros(100 + *bytes),
                },
            );
        }
        let summary = RunReport::from_recorder(&rec).calibration_summary();
        assert_eq!(summary.subchunks, 2);
        assert_eq!(summary.disk.samples, 2);
        assert_eq!(summary.disk.bytes, 5120);
        assert_eq!(summary.exchange.secs, 0.0);
        let doc = summary.to_json();
        json::validate(&doc).unwrap();
        assert!(doc.contains("\"schema\":\"panda-obs-calibration-v1\""));
        assert!(doc.contains("\"per_byte_s\""));
    }
}
