//! I/O statistics with sequentiality accounting.
//!
//! Server-directed I/O exists to make file access sequential (paper §2:
//! "maximize i/o performance by doing sequential reads and writes
//! whenever possible"). Every backend in this crate classifies each
//! positioned access: if it starts exactly where the previous access on
//! the same handle ended (or at offset 0 on a fresh handle), it is
//! *sequential*; otherwise it is a *seek*. Integration tests assert that
//! Panda collectives produce zero seeks while the naive client-directed
//! baseline produces many.
//!
//! [`IoStats`] is deliberately not a `panda_obs` store: every backend
//! keeps one always on, so it is just the seven atomics its accessors
//! read, fed by the same [`Event::FsRead`] / [`Event::FsWrite`] /
//! [`Event::FsSync`] events the backend reports to its attached
//! recorder.

use std::sync::atomic::{AtomicU64, Ordering};

use panda_obs::Event;

/// Shared operation counters for one file-system backend. All counters
/// are monotone — they are diagnostics, not synchronization.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    seeks: AtomicU64,
    sequential: AtomicU64,
    syncs: AtomicU64,
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one backend event (kinds other than read/write/sync are
    /// not part of these statistics).
    pub(crate) fn observe(&self, event: &Event<'_>) {
        let (ops, total, bytes, sequential) = match *event {
            Event::FsRead {
                bytes, sequential, ..
            } => (&self.reads, &self.bytes_read, bytes, sequential),
            Event::FsWrite {
                bytes, sequential, ..
            } => (&self.writes, &self.bytes_written, bytes, sequential),
            Event::FsSync { .. } => {
                self.syncs.fetch_add(1, Ordering::Relaxed);
                return;
            }
            _ => return,
        };
        ops.fetch_add(1, Ordering::Relaxed);
        total.fetch_add(bytes, Ordering::Relaxed);
        let tally = if sequential {
            &self.sequential
        } else {
            &self.seeks
        };
        tally.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of read operations.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Number of write operations.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Accesses that required a seek (did not continue the previous
    /// access on their handle).
    pub fn seeks(&self) -> u64 {
        self.seeks.load(Ordering::Relaxed)
    }

    /// Accesses that continued sequentially.
    pub fn sequential_ops(&self) -> u64 {
        self.sequential.load(Ordering::Relaxed)
    }

    /// Number of `sync` calls.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }
}

/// Tracks the next sequential offset for one file handle.
#[derive(Debug, Default)]
pub(crate) struct SeqTracker {
    next_offset: Option<u64>,
}

impl SeqTracker {
    /// Classify an access at `offset`, updating the expectation to
    /// `offset + len`. The first access on a handle is sequential iff it
    /// starts at offset 0.
    pub(crate) fn classify(&mut self, offset: u64, len: usize) -> bool {
        let sequential = match self.next_offset {
            Some(expected) => offset == expected,
            None => offset == 0,
        };
        // Offsets can come off the wire; a wild one must reach the
        // backend's typed error, not overflow here.
        self.next_offset = Some(offset.saturating_add(len as u64));
        sequential
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn seq_tracker_classifies() {
        let mut t = SeqTracker::default();
        assert!(t.classify(0, 10)); // fresh handle at 0
        assert!(t.classify(10, 5)); // continues
        assert!(!t.classify(30, 5)); // seek
        assert!(t.classify(35, 1)); // continues after seek
        let mut t2 = SeqTracker::default();
        assert!(!t2.classify(100, 4)); // fresh handle not at 0 → seek
    }

    #[test]
    fn stats_count_observed_events() {
        let s = IoStats::new();
        let write = |bytes: u64, offset: u64, sequential: bool| {
            s.observe(&Event::FsWrite {
                file: "f",
                offset,
                bytes,
                sequential,
                dur: Duration::ZERO,
            });
        };
        write(100, 0, true);
        write(50, 999, false);
        s.observe(&Event::FsRead {
            file: "f",
            offset: 0,
            bytes: 10,
            sequential: true,
            dur: Duration::ZERO,
        });
        s.observe(&Event::FsSync {
            file: "f",
            dur: Duration::ZERO,
        });
        // Not an access: leaves every counter alone.
        s.observe(&Event::ThrottleSleep {
            bytes: 7,
            write: true,
            dur: Duration::ZERO,
        });
        assert_eq!(s.writes(), 2);
        assert_eq!(s.reads(), 1);
        assert_eq!(s.bytes_written(), 150);
        assert_eq!(s.bytes_read(), 10);
        assert_eq!(s.seeks(), 1);
        assert_eq!(s.sequential_ops(), 2);
        assert_eq!(s.syncs(), 1);
    }
}
