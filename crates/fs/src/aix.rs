//! Calibrated AIX file-system cost model (Table 1 of the paper).
//!
//! The NAS SP2's per-node disks had a 3.0 MB/s peak transfer rate; going
//! through the AIX file system with 1 MB requests, the paper measured
//! 2.85 MB/s for reads and 2.23 MB/s for writes. We model one positioned
//! access of `n` bytes as
//!
//! ```text
//! t(n) = c_op + n / raw_bandwidth        (+ seek penalty if non-sequential)
//! ```
//!
//! and calibrate the per-operation overhead `c_op` so that the modeled
//! throughput at the paper's 1 MB reference request equals the measured
//! peak exactly. This reproduces the paper's observation that "the
//! underlying AIX file system throughput declines when writing a small
//! file with write size less than 1 MB": a fixed overhead hits small
//! requests proportionally harder, and it hits writes much harder than
//! reads (AIX write-behind and allocation overheads were large).
//!
//! All times are in seconds; the model performs no I/O.

/// One binary megabyte, the paper's reference request size.
pub const MB: f64 = 1024.0 * 1024.0;

/// Direction of an access, for cost lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDirection {
    /// A file-system read.
    Read,
    /// A file-system write.
    Write,
}

/// The calibrated cost curve of one I/O node's AIX file system.
///
/// ```
/// use panda_fs::aix::{AixModel, IoDirection};
/// let m = AixModel::nas_sp2();
/// // Calibrated to Table 1's measured peaks at 1 MB requests ...
/// assert!((m.peak_mbs(IoDirection::Read) - 2.85).abs() < 1e-9);
/// assert!((m.peak_mbs(IoDirection::Write) - 2.23).abs() < 1e-9);
/// // ... and small writes pay the paper's small-request penalty.
/// assert!(m.throughput_mbs(64 << 10, IoDirection::Write) < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AixModel {
    /// Raw sequential disk bandwidth, bytes/second.
    pub raw_bandwidth: f64,
    /// Fixed overhead per read operation, seconds.
    pub read_op_overhead: f64,
    /// Fixed overhead per write operation, seconds.
    pub write_op_overhead: f64,
    /// Average seek penalty for a non-sequential access, seconds.
    pub seek_penalty: f64,
}

impl AixModel {
    /// The NAS SP2 configuration from Table 1: 3.0 MB/s raw disk,
    /// overheads calibrated to the measured 2.85 / 2.23 MB/s peaks at
    /// 1 MB requests, and a 20 ms average seek (typical for the era's
    /// SCSI disks; used only by the non-sequential baselines).
    pub fn nas_sp2() -> Self {
        let raw = 3.0 * MB;
        let measured_read = 2.85 * MB;
        let measured_write = 2.23 * MB;
        AixModel {
            raw_bandwidth: raw,
            read_op_overhead: MB / measured_read - MB / raw,
            write_op_overhead: MB / measured_write - MB / raw,
            seek_penalty: 0.020,
        }
    }

    /// Time for one sequential access of `bytes`, in seconds.
    pub fn access_time(&self, bytes: usize, dir: IoDirection) -> f64 {
        let overhead = match dir {
            IoDirection::Read => self.read_op_overhead,
            IoDirection::Write => self.write_op_overhead,
        };
        overhead + bytes as f64 / self.raw_bandwidth
    }

    /// Modeled throughput in MB/s for back-to-back sequential accesses of
    /// `bytes` each.
    pub fn throughput_mbs(&self, bytes: usize, dir: IoDirection) -> f64 {
        bytes as f64 / MB / self.access_time(bytes, dir)
    }

    /// The normalization baseline the paper uses: throughput at the
    /// reference 1 MB request size.
    pub fn peak_mbs(&self, dir: IoDirection) -> f64 {
        self.throughput_mbs(1 << 20, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_reproduces_table1_peaks() {
        let m = AixModel::nas_sp2();
        assert!((m.peak_mbs(IoDirection::Read) - 2.85).abs() < 1e-9);
        assert!((m.peak_mbs(IoDirection::Write) - 2.23).abs() < 1e-9);
    }

    #[test]
    fn throughput_declines_below_1mb() {
        let m = AixModel::nas_sp2();
        let w_1mb = m.throughput_mbs(1 << 20, IoDirection::Write);
        let w_512k = m.throughput_mbs(1 << 19, IoDirection::Write);
        let w_64k = m.throughput_mbs(1 << 16, IoDirection::Write);
        assert!(w_512k < w_1mb);
        assert!(w_64k < w_512k);
        // Writes decline faster than reads (bigger fixed overhead).
        let r_ratio = m.throughput_mbs(1 << 19, IoDirection::Read)
            / m.throughput_mbs(1 << 20, IoDirection::Read);
        let w_ratio = w_512k / w_1mb;
        assert!(w_ratio < r_ratio);
    }

    #[test]
    fn large_requests_approach_raw_bandwidth() {
        let m = AixModel::nas_sp2();
        // With one huge request the fixed overhead amortizes away.
        let t = m.throughput_mbs(64 << 20, IoDirection::Read);
        assert!(t > 2.95 && t <= 3.0);
    }

    #[test]
    fn access_time_is_monotone_in_size() {
        let m = AixModel::nas_sp2();
        let mut prev = 0.0;
        for kb in [1usize, 4, 64, 256, 1024, 4096] {
            let t = m.access_time(kb << 10, IoDirection::Write);
            assert!(t > prev);
            prev = t;
        }
    }
}
