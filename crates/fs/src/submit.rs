//! Submission-queue backend: real files with decoupled completion.
//!
//! `SubmitFs` is the io_uring-style counterpart of [`crate::LocalFs`]:
//! a write is *submitted* (queued, buffer ownership transferred) and
//! *completed* later by a pool of completion threads, so the caller —
//! Panda's pinned disk stage — can issue the next subchunk while the
//! previous one is still on its way to the platter. The moving parts:
//!
//! * **Per-file submission queue.** Each handle owns a FIFO of pending
//!   writes. A file is drained by at most one completion thread at a
//!   time, so per-file write order (and therefore the engine's
//!   byte-identity guarantee) is preserved even with many threads; the
//!   offsets of a Panda schedule are disjoint anyway, so completion
//!   order never changes the final bytes.
//! * **Completion-thread pool.** A configurable number of threads (the
//!   paper-era "one thread per spindle" simulation) pop files with
//!   work and run their queues with positional `pwrite`.
//! * **Positional I/O everywhere.** `pread`/`pwrite` via
//!   `std::os::unix::fs::FileExt`; no seeks, and `pwrite` past EOF
//!   zero-fills, which keeps sparse semantics identical to MemFs.
//! * **Preallocation.** [`crate::FileHandle::preallocate`] maps to
//!   `ftruncate`-up (`File::set_len`), so a collective whose per-file
//!   extent is known from the schedule grows each file exactly once.
//! * **Early writeback.** A completion thread follows each `pwrite` of
//!   at least 64 KiB (`WRITEBACK_MIN_BYTES`) with a writeback hint for
//!   that range (`sync_file_range(SYNC_FILE_RANGE_WRITE)` on Linux,
//!   nothing elsewhere), so a *completed* submission is one whose bytes
//!   are queued to the device, not merely copied into the page cache:
//!   the device works while the caller assembles the next subchunk. The
//!   hint promises nothing and reports nothing; a direct
//!   [`FileHandle::write_at`] does not give it.
//!
//! `sync` is a barrier and the only durability point: it waits for
//! every submitted write on the handle to complete, surfaces any
//! deferred error, then `fdatasync`s — which, after the hints, mostly
//! waits for writeback already in flight instead of starting it, and is
//! the one place a write-back error shows.

use std::collections::VecDeque;
use std::fs;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use panda_obs::{Event, Recorder};

use crate::error::FsError;
use crate::obs::FsObs;
use crate::root::{end_of, RootDir};
use crate::stats::{IoStats, SeqTracker};
use crate::traits::{FileHandle, FileSystem};

/// A real-file backend whose writes are queued and completed
/// asynchronously by a pool of completion threads. See the module docs
/// for the design; the public surface is the ordinary
/// [`FileSystem`]/[`FileHandle`] pair, so every Panda call site works
/// unchanged.
pub struct SubmitFs {
    root: RootDir,
    obs: Arc<FsObs>,
    pool: Arc<SubmitPool>,
    /// Writeback hints given on this backend's files.
    #[cfg(test)]
    hints: Arc<std::sync::atomic::AtomicUsize>,
}

impl std::fmt::Debug for SubmitFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitFs")
            .field("root", &self.root.path())
            .finish()
    }
}

impl SubmitFs {
    /// Create a backend rooted at `root` with `completion_threads`
    /// completion threads, creating the directory if needed.
    ///
    /// `completion_threads` must be at least 1 (deployments should
    /// validate the knob up front — `panda_core` raises a typed
    /// `ConfigIssue::ZeroCompletionThreads` for it).
    pub fn new(root: impl Into<PathBuf>, completion_threads: usize) -> Result<Self, FsError> {
        Self::with_recorder(root, completion_threads, panda_obs::null_recorder(), 0)
    }

    /// As [`SubmitFs::new`], reporting every access to `recorder` as
    /// node `node`.
    pub fn with_recorder(
        root: impl Into<PathBuf>,
        completion_threads: usize,
        recorder: Arc<dyn Recorder>,
        node: u32,
    ) -> Result<Self, FsError> {
        if completion_threads == 0 {
            return Err(FsError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "SubmitFs needs at least one completion thread",
            )));
        }
        Ok(SubmitFs {
            root: RootDir::create(root.into())?,
            obs: Arc::new(FsObs::with_recorder(recorder, node)),
            pool: Arc::new(SubmitPool::spawn(completion_threads)),
            #[cfg(test)]
            hints: Arc::default(),
        })
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        self.root.path()
    }

    fn handle(&self, path: &str, file: fs::File, len: u64) -> Box<dyn FileHandle> {
        Box::new(SubmitHandle {
            state: Arc::new(FileState {
                file,
                name: path.to_string(),
                obs: Arc::clone(&self.obs),
                queue: Mutex::new(SubQueue {
                    ops: VecDeque::new(),
                    active: false,
                }),
                done: Mutex::new(Completions {
                    pending: 0,
                    bufs: Vec::new(),
                    error: None,
                }),
                cv: Condvar::new(),
                len: AtomicU64::new(len),
                #[cfg(test)]
                hints: Arc::clone(&self.hints),
            }),
            pool: Arc::clone(&self.pool),
            tracker: SeqTracker::default(),
        })
    }
}

impl Drop for SubmitFs {
    fn drop(&mut self) {
        self.pool.shutdown();
    }
}

impl FileSystem for SubmitFs {
    fn create(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        Ok(self.handle(path, self.root.create_file(path)?, 0))
    }

    fn open(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        let (file, len) = self.root.open_file(path)?;
        Ok(self.handle(path, file, len))
    }

    fn exists(&self, path: &str) -> bool {
        self.root.exists(path)
    }

    fn remove(&self, path: &str) -> Result<(), FsError> {
        self.root.remove(path)
    }

    fn list(&self) -> Vec<String> {
        self.root.list()
    }

    fn stats(&self) -> Arc<IoStats> {
        self.obs.stats()
    }

    fn set_recorder(&self, recorder: Arc<dyn Recorder>, node: u32) {
        self.obs.set_recorder(recorder, node);
    }
}

/// The completion-thread pool. The sole `mpsc::Sender` lives here:
/// dropping it (in [`SubmitPool::shutdown`]) lets the threads drain the
/// remaining dispatched files and exit, so shutdown never loses a
/// submitted write.
struct SubmitPool {
    tx: Mutex<Option<mpsc::Sender<Arc<FileState>>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl SubmitPool {
    fn spawn(threads: usize) -> Self {
        let (tx, rx) = mpsc::channel::<Arc<FileState>>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("panda-submitfs-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only for the recv
                        // itself; draining runs unlocked so the other
                        // completion threads keep popping files.
                        let next = rx.lock().expect("submit queue poisoned").recv();
                        match next {
                            Ok(state) => state.drain_queue(),
                            Err(_) => return,
                        }
                    })
                    .expect("spawn completion thread")
            })
            .collect();
        SubmitPool {
            tx: Mutex::new(Some(tx)),
            threads: Mutex::new(handles),
        }
    }

    /// Hand a file with queued work to the pool. Returns `false` after
    /// shutdown — the caller then drains inline.
    fn dispatch(&self, state: Arc<FileState>) -> bool {
        match &*self.tx.lock().expect("submit pool poisoned") {
            Some(tx) => tx.send(state).is_ok(),
            None => false,
        }
    }

    /// Close the queue and join every completion thread. Files already
    /// dispatched are drained first (an `mpsc` receiver returns
    /// buffered messages before reporting disconnection).
    fn shutdown(&self) {
        drop(self.tx.lock().expect("submit pool poisoned").take());
        for t in self.threads.lock().expect("submit pool poisoned").drain(..) {
            let _ = t.join();
        }
    }
}

/// Smallest completed write that is followed by a writeback hint.
/// Below it the call and the small device request it makes cost more
/// than the overlap returns; Panda's subchunks sit well above it, and
/// the raw plane's control files (a few hundred bytes, written through
/// `write_at`) never reach the completion threads at all.
const WRITEBACK_MIN_BYTES: usize = 64 * 1024;

#[cfg(target_os = "linux")]
extern "C" {
    /// `sync_file_range(2)`, from the C library `std` already links.
    fn sync_file_range(
        fd: std::os::raw::c_int,
        offset: i64,
        nbytes: i64,
        flags: std::os::raw::c_uint,
    ) -> std::os::raw::c_int;
}

/// Ask the kernel to start writing `len` bytes at `offset` of `file` to
/// the device, without waiting for them. A hint: the result is ignored,
/// `sync` stays the durability point and the place an error surfaces.
#[cfg(target_os = "linux")]
fn start_writeback(file: &fs::File, offset: u64, len: usize) {
    use std::os::unix::io::AsRawFd;
    const SYNC_FILE_RANGE_WRITE: std::os::raw::c_uint = 2;
    // `end_of` held offset + len inside `off_t` before the write was
    // queued, so neither cast can wrap.
    // SAFETY: the descriptor is open for as long as `file` is borrowed,
    // the other arguments are plain integers, and no memory is passed.
    unsafe {
        sync_file_range(
            file.as_raw_fd(),
            offset as i64,
            len as i64,
            SYNC_FILE_RANGE_WRITE,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn start_writeback(_file: &fs::File, _offset: u64, _len: usize) {}

/// One queued write.
struct SubmitOp {
    offset: u64,
    buf: Vec<u8>,
    /// Sequentiality, classified at submission time (submission order
    /// is schedule order; completion order is not).
    sequential: bool,
    /// Submission timestamp when timing is on, for the
    /// submit→completion latency event.
    queued: Option<Instant>,
}

/// The submission side of one file.
struct SubQueue {
    ops: VecDeque<SubmitOp>,
    /// True while a completion thread owns the drain of this file —
    /// the per-file FIFO guarantee.
    active: bool,
}

/// The completion side of one file.
struct Completions {
    /// Submitted writes not yet completed.
    pending: usize,
    /// Buffers of completed writes, awaiting `drain_completions`.
    bufs: Vec<Vec<u8>>,
    /// First deferred write error, surfaced once by the next
    /// `drain_completions`/`sync`/`write_at`.
    error: Option<FsError>,
}

/// Everything the completion threads share with a handle.
struct FileState {
    file: fs::File,
    name: String,
    obs: Arc<FsObs>,
    queue: Mutex<SubQueue>,
    done: Mutex<Completions>,
    cv: Condvar,
    /// Logical file length: grows at *submission* time so `len()` and
    /// read bounds see every queued write immediately.
    len: AtomicU64,
    #[cfg(test)]
    hints: Arc<std::sync::atomic::AtomicUsize>,
}

impl FileState {
    /// Run this file's submission queue to empty. Called by exactly one
    /// thread at a time (guarded by [`SubQueue::active`]).
    fn drain_queue(self: Arc<Self>) {
        loop {
            let op = {
                let mut q = self.queue.lock().expect("submit queue poisoned");
                match q.ops.pop_front() {
                    Some(op) => op,
                    None => {
                        q.active = false;
                        return;
                    }
                }
            };
            self.perform(op);
        }
    }

    /// Complete one write: positional `pwrite`, the writeback hint,
    /// events, bookkeeping. Both spans end after the hint: a write is
    /// complete when its bytes are queued to the device, and a
    /// congested device queue is charged to the write that met it.
    fn perform(&self, op: SubmitOp) {
        let start = self.obs.timed().then(Instant::now);
        let res = self.file.write_all_at(&op.buf, op.offset);
        if res.is_ok() {
            if op.buf.len() >= WRITEBACK_MIN_BYTES {
                #[cfg(test)]
                self.hints.fetch_add(1, Ordering::SeqCst);
                start_writeback(&self.file, op.offset, op.buf.len());
            }
            self.obs.emit(&Event::FsWrite {
                file: &self.name,
                offset: op.offset,
                bytes: op.buf.len() as u64,
                sequential: op.sequential,
                dur: start.map(|s| s.elapsed()).unwrap_or(Duration::ZERO),
            });
            if let Some(q) = op.queued {
                self.obs.emit(&Event::FsComplete {
                    file: &self.name,
                    offset: op.offset,
                    bytes: op.buf.len() as u64,
                    queued: q.elapsed(),
                });
            }
        }
        let mut d = self.done.lock().expect("completion state poisoned");
        if let Err(e) = res {
            if d.error.is_none() {
                d.error = Some(e.into());
            }
        }
        d.bufs.push(op.buf);
        d.pending -= 1;
        self.cv.notify_all();
    }
}

/// Handle over one open file of a [`SubmitFs`].
struct SubmitHandle {
    state: Arc<FileState>,
    pool: Arc<SubmitPool>,
    tracker: SeqTracker,
}

impl SubmitHandle {
    /// Wait for every submitted write on this handle to complete and
    /// surface any deferred error.
    fn wait_idle(&self) -> Result<(), FsError> {
        let mut d = self.state.done.lock().expect("completion state poisoned");
        while d.pending > 0 {
            d = self.state.cv.wait(d).expect("completion state poisoned");
        }
        match d.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl FileHandle for SubmitHandle {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        // Let queued writes land first so mixed submit/direct use keeps
        // per-file order; with nothing pending this is one lock.
        self.wait_idle()?;
        let end = end_of(offset, data.len())?;
        let sequential = self.tracker.classify(offset, data.len());
        let start = self.state.obs.timed().then(Instant::now);
        self.state.file.write_all_at(data, offset)?;
        self.state.len.fetch_max(end, Ordering::Relaxed);
        self.state.obs.emit(&Event::FsWrite {
            file: &self.state.name,
            offset,
            bytes: data.len() as u64,
            sequential,
            dur: start.map(|s| s.elapsed()).unwrap_or(Duration::ZERO),
        });
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), FsError> {
        // Read-your-writes: queued writes must land before we read.
        self.wait_idle()?;
        let sequential = self.tracker.classify(offset, buf.len());
        let start = self.state.obs.timed().then(Instant::now);
        let file_len = self.state.len.load(Ordering::Relaxed);
        if end_of(offset, buf.len()).map_or(true, |end| end > file_len) {
            return Err(FsError::ReadPastEnd {
                offset,
                len: buf.len(),
                file_len,
            });
        }
        self.state.file.read_exact_at(buf, offset)?;
        self.state.obs.emit(&Event::FsRead {
            file: &self.state.name,
            offset,
            bytes: buf.len() as u64,
            sequential,
            dur: start.map(|s| s.elapsed()).unwrap_or(Duration::ZERO),
        });
        Ok(())
    }

    /// Queued writes count at once. With none queued the OS is asked,
    /// so that a `create` that truncated the file under this handle
    /// shows; the logical length only spares `read_at` a syscall.
    fn len(&self) -> u64 {
        let logical = self.state.len.load(Ordering::Relaxed);
        let pending = self
            .state
            .done
            .lock()
            .expect("completion state poisoned")
            .pending;
        if pending > 0 {
            return logical;
        }
        self.state.file.metadata().map_or(logical, |m| m.len())
    }

    fn sync(&mut self) -> Result<(), FsError> {
        // Completion barrier first: fsync covers every submitted write.
        self.wait_idle()?;
        let start = self.state.obs.timed().then(Instant::now);
        self.state.file.sync_data()?;
        self.state.obs.emit(&Event::FsSync {
            file: &self.state.name,
            dur: start.map(|s| s.elapsed()).unwrap_or(Duration::ZERO),
        });
        Ok(())
    }

    fn submit_write(&mut self, offset: u64, data: Vec<u8>) -> Result<Option<Vec<u8>>, FsError> {
        // Refuse a range the device would refuse before the logical
        // length grows to cover it.
        let end = end_of(offset, data.len())?;
        let sequential = self.tracker.classify(offset, data.len());
        self.state.len.fetch_max(end, Ordering::Relaxed);
        self.state.obs.emit(&Event::FsSubmit {
            file: &self.state.name,
            offset,
            bytes: data.len() as u64,
        });
        let queued = self.state.obs.timed().then(Instant::now);
        {
            let mut d = self.state.done.lock().expect("completion state poisoned");
            if let Some(e) = d.error.take() {
                // A previous write already failed: recycle this buffer
                // and surface the error instead of queueing more.
                d.bufs.push(data);
                return Err(e);
            }
            d.pending += 1;
        }
        let dispatch = {
            let mut q = self.state.queue.lock().expect("submit queue poisoned");
            q.ops.push_back(SubmitOp {
                offset,
                buf: data,
                sequential,
                queued,
            });
            if q.active {
                false
            } else {
                q.active = true;
                true
            }
        };
        if dispatch && !self.pool.dispatch(Arc::clone(&self.state)) {
            // Pool already shut down: drain inline, synchronously.
            Arc::clone(&self.state).drain_queue();
        }
        Ok(None)
    }

    fn drain_completions(&mut self, block: bool) -> Result<Vec<Vec<u8>>, FsError> {
        let mut d = self.state.done.lock().expect("completion state poisoned");
        if block {
            while d.bufs.is_empty() && d.pending > 0 {
                d = self.state.cv.wait(d).expect("completion state poisoned");
            }
        }
        if let Some(e) = d.error.take() {
            // Completed buffers stay queued for the next drain; the
            // error is the headline.
            return Err(e);
        }
        Ok(std::mem::take(&mut d.bufs))
    }

    fn preallocate(&mut self, len: u64) -> Result<(), FsError> {
        if len > self.state.len.load(Ordering::Relaxed) {
            self.state.file.set_len(len)?;
            self.state.len.fetch_max(len, Ordering::Relaxed);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::conformance;

    fn tmp_fs(tag: &str, threads: usize) -> SubmitFs {
        let dir =
            std::env::temp_dir().join(format!("panda-submitfs-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        SubmitFs::new(dir, threads).unwrap()
    }

    #[test]
    fn conformance_suite() {
        for threads in [1, 4] {
            let fs = tmp_fs(&format!("conf{threads}"), threads);
            conformance::all(&fs);
            let root = fs.root().to_path_buf();
            drop(fs);
            let _ = fs::remove_dir_all(root);
        }
    }

    #[test]
    fn zero_completion_threads_rejected() {
        let dir = std::env::temp_dir().join(format!("panda-submitfs-zero-{}", std::process::id()));
        assert!(matches!(
            SubmitFs::new(&dir, 0).map(|_| ()).unwrap_err(),
            FsError::Io(_)
        ));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn rejects_escaping_paths() {
        let fs = tmp_fs("escape", 1);
        assert!(matches!(
            fs.create("../evil").map(|_| ()).unwrap_err(),
            FsError::InvalidPath { .. }
        ));
        let root = fs.root().to_path_buf();
        drop(fs);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn submitted_writes_survive_backend_drop() {
        // Dropping the backend joins the completion threads after the
        // queue drains: submitted-but-unread data must still be there.
        let dir = std::env::temp_dir().join(format!("panda-submitfs-drop-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let fs = SubmitFs::new(&dir, 2).unwrap();
        let mut h = fs.create("late.dat").unwrap();
        for i in 0..64u64 {
            assert!(h.submit_write(i * 8, vec![i as u8; 8]).unwrap().is_none());
        }
        drop(fs); // joins threads; queue drains first
        h.sync().unwrap();
        let mut buf = vec![0u8; 8];
        h.read_at(63 * 8, &mut buf).unwrap();
        assert_eq!(buf, vec![63u8; 8]);
        drop(h);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn many_files_many_threads_interleave_correctly() {
        let fs = tmp_fs("many", 3);
        let mut handles: Vec<_> = (0..6)
            .map(|f| fs.create(&format!("f{f}.dat")).unwrap())
            .collect();
        // Interleave submissions across files; per-file order and final
        // bytes must be exact regardless of which thread completes what.
        for round in 0..32u64 {
            for (f, h) in handles.iter_mut().enumerate() {
                let fill = (f as u8) ^ (round as u8);
                assert!(h
                    .submit_write(round * 16, vec![fill; 16])
                    .unwrap()
                    .is_none());
            }
        }
        for (f, h) in handles.iter_mut().enumerate() {
            h.sync().unwrap();
            assert_eq!(h.len(), 32 * 16);
            let mut buf = vec![0u8; 16];
            for round in 0..32u64 {
                h.read_at(round * 16, &mut buf).unwrap();
                assert_eq!(
                    buf,
                    vec![(f as u8) ^ (round as u8); 16],
                    "file {f} round {round}"
                );
            }
            // Buffers recycle: all 32 come back across the drains.
            let drained = h.drain_completions(false).unwrap();
            assert_eq!(drained.len(), 32);
        }
        let root = fs.root().to_path_buf();
        drop(fs);
        drop(handles);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn preallocate_extends_but_never_truncates() {
        let fs = tmp_fs("prealloc", 1);
        let mut h = fs.create("p.dat").unwrap();
        h.preallocate(64).unwrap();
        assert_eq!(h.len(), 64);
        h.write_at(0, b"data").unwrap();
        h.preallocate(8).unwrap(); // smaller: no-op
        assert_eq!(h.len(), 64);
        let mut buf = vec![1u8; 64];
        h.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf[..4], b"data");
        assert!(buf[4..].iter().all(|&b| b == 0));
        let root = fs.root().to_path_buf();
        drop((h, fs));
        let _ = fs::remove_dir_all(root);
    }

    const MIB: usize = 1 << 20;

    fn hints(fs: &SubmitFs) -> usize {
        fs.hints.load(Ordering::SeqCst)
    }

    #[test]
    fn a_writeback_hint_follows_each_large_completion_and_nothing_else() {
        let fs = tmp_fs("hint", 2);
        let mut h = fs.create("h.dat").unwrap();
        for i in 0..3 {
            let at = (i * MIB) as u64;
            assert!(h.submit_write(at, vec![i as u8; MIB]).unwrap().is_none());
        }
        for i in 0..2u64 {
            let at = 3 * MIB as u64 + i * 4096;
            assert!(h.submit_write(at, vec![9; 4096]).unwrap().is_none());
        }
        h.sync().unwrap();
        assert_eq!(hints(&fs), 3, "one per 1 MiB completion, none per 4 KiB");
        // The direct path writes the same bytes and gives no hint.
        h.write_at(0, &vec![7u8; MIB]).unwrap();
        h.sync().unwrap();
        assert_eq!(hints(&fs), 3);
        assert_eq!(fs.stats().writes(), 6);
        assert_eq!(fs.stats().bytes_written(), (4 * MIB + 2 * 4096) as u64);
        let root = fs.root().to_path_buf();
        drop((h, fs));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn a_failed_write_gives_no_hint_and_surfaces_its_error_once() {
        let fs = tmp_fs("rofail", 1);
        drop(fs.create("ro.dat").unwrap());
        // A handle whose descriptor cannot write: every `pwrite` fails.
        let read_only = fs::File::open(fs.root().join("ro.dat")).unwrap();
        let mut h = fs.handle("ro.dat", read_only, 0);
        assert!(h.submit_write(0, vec![1u8; MIB]).unwrap().is_none());
        assert!(matches!(h.drain_completions(true), Err(FsError::Io(_))));
        assert_eq!(hints(&fs), 0);
        // Reported once; the buffer still comes back.
        assert_eq!(h.drain_completions(false).unwrap().len(), 1);
        h.sync().unwrap();
        let root = fs.root().to_path_buf();
        drop((h, fs));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn a_rewrite_over_hinted_unsynced_bytes_reads_back_new() {
        let fs = tmp_fs("rehint", 2);
        let mut h = fs.create("r.dat").unwrap();
        assert!(h.submit_write(0, vec![0xAA; MIB]).unwrap().is_none());
        // Completed means hinted: writeback of the old bytes may be in
        // flight while the same range is written again.
        assert_eq!(h.drain_completions(true).unwrap().len(), 1);
        assert_eq!(hints(&fs), 1);
        assert!(h.submit_write(0, vec![0x55; MIB]).unwrap().is_none());
        h.sync().unwrap();
        assert_eq!(hints(&fs), 2);
        assert_eq!(h.len(), MIB as u64);
        let mut buf = vec![0u8; MIB];
        fs.open("r.dat").unwrap().read_at(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x55));
        let root = fs.root().to_path_buf();
        drop((h, fs));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn submit_events_reach_the_recorder() {
        let dir = std::env::temp_dir().join(format!("panda-submitfs-rec-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let rec = Arc::new(panda_obs::TelemetryRecorder::with_ring(1024));
        let fs =
            SubmitFs::with_recorder(&dir, 2, Arc::clone(&rec) as Arc<dyn Recorder>, 7).unwrap();
        let mut h = fs.create("e.bin").unwrap();
        assert!(h.submit_write(0, vec![1u8; 128]).unwrap().is_none());
        assert!(h.submit_write(128, vec![2u8; 128]).unwrap().is_none());
        h.sync().unwrap();
        let tl = rec.timeline().unwrap();
        use panda_obs::EventKind;
        let count = |k: EventKind| tl.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EventKind::FsSubmit), 2);
        assert_eq!(count(EventKind::FsWrite), 2);
        assert_eq!(count(EventKind::FsComplete), 2);
        assert_eq!(count(EventKind::FsSync), 1);
        assert!(tl.iter().all(|e| e.node == 7));
        // Sequentiality was classified at submission: both writes are
        // sequential even if completion reordered across threads.
        assert_eq!(fs.stats().seeks(), 0);
        assert_eq!(fs.stats().sequential_ops(), 2);
        let root = fs.root().to_path_buf();
        drop((h, fs));
        let _ = fs::remove_dir_all(root);
    }
}
