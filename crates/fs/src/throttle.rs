//! A rate-limited file system: the "slow disk" counterpart of
//! [`NullFs`](crate::NullFs)'s infinitely fast one.
//!
//! The paper's pipelining argument (overlapping the client exchange
//! with disk I/O) only has teeth when the disk actually takes time; on
//! a modern machine a `LocalFs` under a RAM-backed `/tmp` finishes a
//! subchunk write in microseconds and leaves nothing to hide.
//! [`ThrottledFs`] wraps any backend and charges each access a device
//! time `op_overhead + bytes / bandwidth`, spent in a real blocking
//! sleep *after* the inner call — exactly like a disk whose DMA engine
//! transfers while the CPU is free, which is what makes the overlap
//! measurable even on one core. The wrapped backend does the actual
//! storage, so files, stats, and sequentiality accounting are real.
//!
//! When a recorder is attached (via [`ThrottledFs::set_recorder`] or at
//! construction), each sleep is surfaced as a
//! [`panda_obs::Event::ThrottleSleep`] so throttled benchmarks can
//! separate simulated device time from real work in the run report.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use panda_obs::{Event, Recorder};

use crate::aix::{AixModel, IoDirection};
use crate::error::FsError;
use crate::stats::IoStats;
use crate::traits::{FileHandle, FileSystem};

/// Per-direction cost parameters of the simulated device.
#[derive(Debug, Clone, Copy)]
struct Cost {
    /// Seconds of device time per byte moved.
    secs_per_byte: f64,
    /// Fixed device time per operation.
    op_overhead: Duration,
}

impl Cost {
    /// Sleep for the simulated device time of a `bytes`-sized transfer
    /// and return how long that was.
    fn charge(&self, bytes: usize) -> Duration {
        let t = self.op_overhead + Duration::from_secs_f64(self.secs_per_byte * bytes as f64);
        if !t.is_zero() {
            std::thread::sleep(t);
        }
        t
    }
}

/// Shared recorder hookup for all handles of one [`ThrottledFs`].
#[derive(Debug)]
struct ThrottleObs {
    node: AtomicU32,
    external: RwLock<Arc<dyn Recorder>>,
}

impl ThrottleObs {
    fn emit_sleep(&self, bytes: usize, write: bool, dur: Duration) {
        let external = self.external.read();
        if external.enabled() {
            external.record(
                self.node.load(Ordering::Relaxed),
                &Event::ThrottleSleep {
                    bytes: bytes as u64,
                    write,
                    dur,
                },
            );
        }
    }
}

/// A [`FileSystem`] decorator that makes every access take realistic
/// device time.
pub struct ThrottledFs {
    inner: Arc<dyn FileSystem>,
    read: Cost,
    write: Cost,
    obs: Arc<ThrottleObs>,
}

impl ThrottledFs {
    /// Throttle `inner` to the given read/write bandwidths (MB/s, binary
    /// megabytes) with a fixed per-operation overhead.
    pub fn new(
        inner: Arc<dyn FileSystem>,
        read_mb_s: f64,
        write_mb_s: f64,
        op_overhead: Duration,
    ) -> Self {
        let per_byte = |mb_s: f64| {
            assert!(mb_s > 0.0, "bandwidth must be positive");
            1.0 / (mb_s * crate::aix::MB)
        };
        ThrottledFs {
            inner,
            read: Cost {
                secs_per_byte: per_byte(read_mb_s),
                op_overhead,
            },
            write: Cost {
                secs_per_byte: per_byte(write_mb_s),
                op_overhead,
            },
            obs: Arc::new(ThrottleObs {
                node: AtomicU32::new(0),
                external: RwLock::new(panda_obs::null_recorder()),
            }),
        }
    }

    /// Throttle `inner` to the paper's Table 1 AIX disk: the calibrated
    /// [`AixModel`] curve brought to life as wall-clock time. A 1 MB
    /// write really takes ≈ 0.45 s — use small arrays.
    pub fn aix(inner: Arc<dyn FileSystem>) -> Self {
        let m = AixModel::nas_sp2();
        let mut fs = Self::new(inner, 1.0, 1.0, Duration::ZERO);
        fs.read = Cost {
            secs_per_byte: 1.0 / m.raw_bandwidth,
            op_overhead: Duration::from_secs_f64(m.read_op_overhead),
        };
        fs.write = Cost {
            secs_per_byte: 1.0 / m.raw_bandwidth,
            op_overhead: Duration::from_secs_f64(m.write_op_overhead),
        };
        fs
    }

    fn wrap(&self, handle: Box<dyn FileHandle>) -> Box<dyn FileHandle> {
        Box::new(ThrottledHandle {
            inner: handle,
            read: self.read,
            write: self.write,
            obs: Arc::clone(&self.obs),
        })
    }
}

impl FileSystem for ThrottledFs {
    fn create(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        Ok(self.wrap(self.inner.create(path)?))
    }

    fn open(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        Ok(self.wrap(self.inner.open(path)?))
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn remove(&self, path: &str) -> Result<(), FsError> {
        self.inner.remove(path)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn stats(&self) -> Arc<IoStats> {
        self.inner.stats()
    }

    fn set_recorder(&self, recorder: Arc<dyn Recorder>, node: u32) {
        // The inner backend reports reads/writes; this decorator adds
        // its sleep events alongside them under the same rank.
        self.inner.set_recorder(Arc::clone(&recorder), node);
        self.obs.node.store(node, Ordering::Relaxed);
        *self.obs.external.write() = recorder;
    }
}

struct ThrottledHandle {
    inner: Box<dyn FileHandle>,
    read: Cost,
    write: Cost,
    obs: Arc<ThrottleObs>,
}

impl FileHandle for ThrottledHandle {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        self.inner.write_at(offset, data)?;
        let slept = self.write.charge(data.len());
        self.obs.emit_sleep(data.len(), true, slept);
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), FsError> {
        self.inner.read_at(offset, buf)?;
        let slept = self.read.charge(buf.len());
        self.obs.emit_sleep(buf.len(), false, slept);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn preallocate(&mut self, len: u64) -> Result<(), FsError> {
        // Metadata-only: no data moves, so no simulated device time.
        self.inner.preallocate(len)
    }

    fn sync(&mut self) -> Result<(), FsError> {
        // Data was already "on the device" when each write returned;
        // charge only the syscall-ish fixed cost.
        self.inner.sync()?;
        let slept = self.write.charge(0);
        self.obs.emit_sleep(0, true, slept);
        Ok(())
    }
}

/// The model a [`ThrottledFs::aix`] instance reproduces, for asserting
/// expected durations in tests and reports.
pub fn aix_wall_clock(bytes: usize, dir: IoDirection) -> Duration {
    Duration::from_secs_f64(AixModel::nas_sp2().access_time(bytes, dir))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemFs;
    use std::time::Instant;

    #[test]
    fn delegates_storage_to_inner() {
        let mem = Arc::new(MemFs::new());
        let fs = ThrottledFs::new(
            Arc::clone(&mem) as Arc<dyn FileSystem>,
            10_000.0,
            10_000.0,
            Duration::ZERO,
        );
        let mut h = fs.create("a.dat").unwrap();
        h.write_at(0, b"hello").unwrap();
        h.sync().unwrap();
        assert_eq!(h.len(), 5);
        drop(h);
        assert!(fs.exists("a.dat"));
        assert_eq!(mem.contents("a.dat").unwrap(), b"hello");
        let mut buf = vec![0u8; 5];
        fs.open("a.dat").unwrap().read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        fs.remove("a.dat").unwrap();
        assert!(!mem.exists("a.dat"));
    }

    #[test]
    fn accesses_take_the_configured_time() {
        let fs = ThrottledFs::new(
            Arc::new(MemFs::new()),
            1.0, // 1 MB/s
            1.0,
            Duration::from_millis(2),
        );
        let mut h = fs.create("t.dat").unwrap();
        let start = Instant::now();
        h.write_at(0, &[0u8; 16 << 10]).unwrap(); // 16 KB at 1 MB/s ≈ 15.6 ms
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(17),
            "write returned after {elapsed:?}, expected ≥ 2 ms overhead + 15.6 ms transfer"
        );
    }

    #[test]
    fn aix_preset_matches_the_model_curve() {
        // A 64 KB AIX write should take model time (≈ 0.136 s); bound
        // it loosely from below to keep the test robust.
        let fs = ThrottledFs::aix(Arc::new(MemFs::new()));
        let mut h = fs.create("t.dat").unwrap();
        let start = Instant::now();
        h.write_at(0, &[0u8; 64 << 10]).unwrap();
        let elapsed = start.elapsed();
        let modeled = aix_wall_clock(64 << 10, IoDirection::Write);
        assert!(
            elapsed >= modeled.mul_f64(0.95),
            "AIX-throttled write took {elapsed:?}, model says {modeled:?}"
        );
    }

    #[test]
    fn sleeps_are_recorded_as_throttle_events() {
        let rec = Arc::new(panda_obs::TelemetryRecorder::with_ring(1024));
        let fs = ThrottledFs::new(
            Arc::new(MemFs::new()),
            1000.0,
            1000.0,
            Duration::from_millis(1),
        );
        fs.set_recorder(Arc::clone(&rec) as Arc<dyn Recorder>, 9);
        let mut h = fs.create("t.dat").unwrap();
        h.write_at(0, &[0u8; 1024]).unwrap();
        let mut buf = [0u8; 512];
        h.read_at(0, &mut buf).unwrap();
        let sleeps: Vec<_> = rec
            .timeline()
            .unwrap()
            .into_iter()
            .filter(|e| e.kind == panda_obs::EventKind::ThrottleSleep)
            .collect();
        assert_eq!(sleeps.len(), 2);
        assert!(sleeps.iter().all(|e| e.node == 9));
        assert!(sleeps.iter().all(|e| e.dur_nanos >= 1_000_000));
        assert_eq!(sleeps[0].bytes, 1024);
        // The inner MemFs reports the real accesses under the same rank.
        assert!(rec
            .timeline()
            .unwrap()
            .iter()
            .any(|e| e.kind == panda_obs::EventKind::FsWrite && e.node == 9));
    }
}
