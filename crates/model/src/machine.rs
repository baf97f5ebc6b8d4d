//! The machine description: network, disks, CPU copy costs.

use panda_fs::aix::MB;
use panda_fs::AixModel;

/// Point-to-point message cost model for the SP2 high-performance
/// switch under MPI-F.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// One-way latency, seconds (Table 1: 43 µs).
    pub latency: f64,
    /// Peak large-message bandwidth, bytes/second (Table 1: 34 MB/s).
    pub bandwidth: f64,
    /// Fixed software overhead per *data* message (both ends combined),
    /// seconds. Not in the paper; calibrated so that the blocking
    /// one-subchunk-at-a-time protocol reaches ≈ 90 % of peak MPI
    /// bandwidth with 1 MB messages, matching Figures 5/6.
    pub per_msg_overhead: f64,
    /// Cost of a small control message (request relay, `Fetch`,
    /// `Complete`) from send call to delivery, *excluding* latency,
    /// seconds.
    pub small_msg_overhead: f64,
}

impl NetworkModel {
    /// Transfer wire time for a payload of `bytes` (one data message),
    /// excluding latency.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.per_msg_overhead + bytes as f64 / self.bandwidth
    }

    /// End-to-end time for a small control message.
    pub fn control_time(&self) -> f64 {
        self.latency + self.small_msg_overhead
    }
}

/// The full machine model.
#[derive(Debug, Clone, PartialEq)]
pub struct Sp2Machine {
    /// The interconnect.
    pub net: NetworkModel,
    /// Each I/O node's AIX file system cost curve.
    pub disk: AixModel,
    /// Effective bandwidth of strided gather/scatter memory copies
    /// during reorganization, bytes/second. Calibrated so traditional-
    /// order fast-disk runs land in the paper's 38–86 % band (Figure 9).
    pub memcpy_bandwidth: f64,
    /// Fixed Panda startup cost per collective, seconds (§3: ≈ 0.013 s).
    pub startup: f64,
    /// Per-subchunk bookkeeping on the server (buffer management, plan
    /// step), seconds.
    pub per_subchunk_overhead: f64,
    /// Subchunk pipeline depth on the server: 1 = each subchunk's
    /// network phase completes before its disk phase and the next
    /// subchunk starts after both (calibrated default, see crate docs);
    /// 2 = double buffering, assembly of subchunk k+1 overlaps the disk
    /// I/O of subchunk k.
    pub pipeline_depth: usize,
}

impl Sp2Machine {
    /// The NAS IBM SP2 configuration used throughout the paper.
    pub fn nas_sp2() -> Self {
        Sp2Machine {
            net: NetworkModel {
                latency: 43e-6,
                bandwidth: 34.0 * MB,
                per_msg_overhead: 1.8e-3,
                small_msg_overhead: 60e-6,
            },
            disk: AixModel::nas_sp2(),
            memcpy_bandwidth: 80.0 * MB,
            startup: 0.013,
            per_subchunk_overhead: 1.2e-3,
            pipeline_depth: 1,
        }
    }

    /// The same machine with double-buffered (overlapped) disk I/O —
    /// the paper's described-but-not-measurable pipeline, used by the
    /// ablation bench.
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1);
        self.pipeline_depth = depth;
        self
    }

    /// Strided copy time for `bytes`.
    pub fn memcpy_time(&self, bytes: usize) -> f64 {
        bytes as f64 / self.memcpy_bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nas_parameters_match_table1() {
        let m = Sp2Machine::nas_sp2();
        assert!((m.net.latency - 43e-6).abs() < 1e-12);
        assert!((m.net.bandwidth / MB - 34.0).abs() < 1e-9);
        assert!((m.startup - 0.013).abs() < 1e-12);
        assert_eq!(m.pipeline_depth, 1);
    }

    #[test]
    fn one_mb_message_efficiency_is_about_ninety_percent() {
        // The calibration target: a blocking request/response cycle on
        // 1 MB subchunks should run at ≈ 88–93 % of peak bandwidth.
        let m = Sp2Machine::nas_sp2();
        let cycle = m.net.control_time()
            + m.net.transfer_time(1 << 20)
            + m.net.latency
            + m.per_subchunk_overhead;
        let eff = ((1 << 20) as f64 / cycle) / m.net.bandwidth;
        assert!(eff > 0.85 && eff < 0.95, "efficiency {eff}");
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let m = Sp2Machine::nas_sp2();
        let t1 = m.net.transfer_time(1 << 20);
        let t2 = m.net.transfer_time(2 << 20);
        assert!(t2 > t1 * 1.5 && t2 < t1 * 2.0);
    }
}
