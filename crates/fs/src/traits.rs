//! The file-system abstraction.

use std::sync::Arc;

use panda_obs::Recorder;

use crate::error::FsError;
use crate::stats::IoStats;

/// One I/O node's file system.
///
/// Panda stores each server's share of an array as one file per array
/// (per server). Backends are shared-reference friendly (`&self`
/// methods, `Send + Sync`) so a server thread can own a handle while
/// tests inspect the same backend.
pub trait FileSystem: Send + Sync {
    /// Create (or truncate) a file and return a handle positioned for
    /// sequential writing from offset 0.
    fn create(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError>;

    /// Open an existing file for reading/writing.
    fn open(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError>;

    /// True iff the file exists.
    fn exists(&self, path: &str) -> bool;

    /// Remove a file.
    fn remove(&self, path: &str) -> Result<(), FsError>;

    /// All file names in the backend, sorted.
    fn list(&self) -> Vec<String>;

    /// Shared operation statistics for this backend.
    fn stats(&self) -> Arc<IoStats>;

    /// Attach an observability recorder; subsequent accesses are
    /// reported to it tagged with fabric rank `node`. The default is a
    /// no-op so minimal backends need not participate; all backends in
    /// this crate implement it, and `panda_core::PandaSystem` calls it
    /// on each server's file system at launch.
    fn set_recorder(&self, recorder: Arc<dyn Recorder>, node: u32) {
        let _ = (recorder, node);
    }
}

/// When the collective disk stage flushes written data to stable
/// storage. The policy is a property of the *request*, not the backend:
/// the engine applies it to whatever [`FileHandle`]s it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every subchunk write — the paper's semantics
    /// (Panda flushes with fsync after each write operation). Strictly
    /// serializes the disk stage, so it is only valid unpipelined.
    PerWrite,
    /// `fsync` each file once, as its last subchunk lands (the
    /// engine's historical behavior, and the default): a crash loses at
    /// most the files still being written, never a synced one.
    #[default]
    PerFile,
    /// One coalesced barrier at the end of the disk stage: every file
    /// is flushed once, after all writes of the collective have been
    /// submitted. Fastest (fsyncs never sit between writes), with the
    /// coarsest crash-consistency unit — the whole collective.
    PerCollective,
}

impl SyncPolicy {
    /// Stable snake_case name, used in bench output and reports.
    pub fn name(self) -> &'static str {
        match self {
            SyncPolicy::PerWrite => "per_write",
            SyncPolicy::PerFile => "per_file",
            SyncPolicy::PerCollective => "per_collective",
        }
    }
}

/// An open file.
///
/// All accesses are positioned (`pread`/`pwrite` style); the backend
/// classifies each as sequential or seeking for [`IoStats`].
///
/// The submission-queue methods ([`FileHandle::submit_write`],
/// [`FileHandle::drain_completions`], [`FileHandle::preallocate`]) have
/// synchronous defaults, so plain backends (MemFs, LocalFs, AixFs) get
/// correct behavior for free while `SubmitFs` overrides them with a
/// truly asynchronous path.
pub trait FileHandle: Send {
    /// Write `data` at `offset`, extending the file if needed.
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), FsError>;

    /// Fill `buf` from `offset`; errors if the range is past EOF.
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), FsError>;

    /// Current file length in bytes.
    fn len(&self) -> u64;

    /// True iff the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flush data to stable storage (the paper fsyncs after each write
    /// collective). Backends with a submission queue first wait for
    /// every submitted write to complete.
    fn sync(&mut self) -> Result<(), FsError>;

    /// Queue `data` for writing at `offset` without waiting for the
    /// device, taking ownership of the buffer.
    ///
    /// Returns `Ok(Some(buf))` when the write completed synchronously
    /// (the buffer comes straight back for reuse) and `Ok(None)` when
    /// it was queued — the buffer then resurfaces through
    /// [`FileHandle::drain_completions`]. The default implementation is
    /// the synchronous path: it delegates to [`FileHandle::write_at`]
    /// and returns the buffer immediately.
    fn submit_write(&mut self, offset: u64, data: Vec<u8>) -> Result<Option<Vec<u8>>, FsError> {
        self.write_at(offset, &data)?;
        Ok(Some(data))
    }

    /// Collect the buffers of submitted writes that have completed.
    ///
    /// With `block` set, waits until at least one pending write
    /// completes (a no-op when nothing is pending). A write error that
    /// happened asynchronously is surfaced here (and by
    /// [`FileHandle::sync`]), once. The default implementation returns
    /// an empty list: the default [`FileHandle::submit_write`] never
    /// queues anything.
    fn drain_completions(&mut self, block: bool) -> Result<Vec<Vec<u8>>, FsError> {
        let _ = block;
        Ok(Vec::new())
    }

    /// Hint that the file will grow to `len` bytes, so the backend can
    /// set its length once up front instead of growing it write by
    /// write. On the real-file backends this is a sparse `ftruncate`-up
    /// (`File::set_len`): it reserves no blocks, which are allocated as
    /// the writes land. Never shrinks the file. The default is a no-op.
    fn preallocate(&mut self, len: u64) -> Result<(), FsError> {
        let _ = len;
        Ok(())
    }
}

/// A handle on `path` for a writer about to overwrite all `len` bytes
/// of it: the existing file when it is already exactly that long,
/// otherwise a fresh one (`create` + `preallocate`).
///
/// A file is paid for once. A checkpoint rewritten at the same shape
/// keeps its pages and its extents, where truncating and rewriting
/// would free and re-allocate both every time and turn each overwrite
/// into a delayed allocation the closing `sync` must commit. The caller
/// must overwrite every byte (a collective write schedule tiles the
/// file), since nothing is cleared; a file of any other length takes
/// the truncating path, so a changed shape leaves no stale tail.
pub fn create_sized(
    fs: &dyn FileSystem,
    path: &str,
    len: u64,
) -> Result<Box<dyn FileHandle>, FsError> {
    match fs.open(path) {
        Ok(existing) if existing.len() == len => Ok(existing),
        // Missing, or another length. An `open` error `create` shares
        // (a bad path) is reported by `create`.
        _ => {
            let mut fresh = fs.create(path)?;
            fresh.preallocate(len)?;
            Ok(fresh)
        }
    }
}

/// Exhaustive conformance checks shared by the backend test suites.
#[cfg(test)]
pub(crate) mod conformance {
    use super::*;

    /// Every check, for a backend that keeps the bytes it is given
    /// (`NullFs` runs the subset that does not read data back).
    pub(crate) fn all(fs: &dyn FileSystem) {
        basic_roundtrip(fs);
        read_past_end_errors(fs);
        open_missing_errors(fs);
        create_truncates(fs);
        create_truncates_under_an_open_handle(fs);
        wild_offsets_are_typed_errors(fs);
        sparse_write_zero_fills(fs);
        remove_and_list(fs);
        submit_path_roundtrip(fs);
        stats_track_sequentiality(fs);
        create_sized_keeps_a_same_length_file(fs);
    }

    fn basic_roundtrip(fs: &dyn FileSystem) {
        let mut h = fs.create("a.dat").unwrap();
        h.write_at(0, b"hello ").unwrap();
        h.write_at(6, b"world").unwrap();
        h.sync().unwrap();
        assert_eq!(h.len(), 11);
        drop(h);

        assert!(fs.exists("a.dat"));
        let mut h = fs.open("a.dat").unwrap();
        let mut buf = vec![0u8; 5];
        h.read_at(6, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
        let mut all = vec![0u8; 11];
        h.read_at(0, &mut all).unwrap();
        assert_eq!(&all, b"hello world");
    }

    pub(crate) fn read_past_end_errors(fs: &dyn FileSystem) {
        let mut h = fs.create("b.dat").unwrap();
        h.write_at(0, b"abc").unwrap();
        let mut buf = vec![0u8; 4];
        assert!(matches!(
            h.read_at(1, &mut buf).unwrap_err(),
            FsError::ReadPastEnd { .. }
        ));
    }

    pub(crate) fn open_missing_errors(fs: &dyn FileSystem) {
        assert!(matches!(
            fs.open("missing.dat").map(|_| ()).unwrap_err(),
            FsError::NotFound { .. }
        ));
        assert!(!fs.exists("missing.dat"));
    }

    pub(crate) fn create_truncates(fs: &dyn FileSystem) {
        let mut h = fs.create("c.dat").unwrap();
        h.write_at(0, b"0123456789").unwrap();
        drop(h);
        let h = fs.create("c.dat").unwrap();
        assert_eq!(h.len(), 0);
    }

    /// `create` is `O_TRUNC`: it truncates the file itself, not a copy
    /// of it, so a handle opened earlier sees length 0 and then the new
    /// contents.
    fn create_truncates_under_an_open_handle(fs: &dyn FileSystem) {
        let mut old = fs.create("t.dat").unwrap();
        old.write_at(0, b"0123456789").unwrap();
        let mut new = fs.create("t.dat").unwrap();
        assert_eq!(old.len(), 0, "the open handle kept a forked file");
        new.write_at(0, b"abc").unwrap();
        assert_eq!(old.len(), 3);
        assert_eq!(fs.open("t.dat").unwrap().len(), 3);
    }

    /// Offsets come off the wire (`RawWrite`/`RawRead`): one whose end
    /// overflows is a typed error — what `pwrite` calls `EINVAL` for
    /// writes and preallocation, past-the-end for reads — never a wrap
    /// or a panic, and the file is left as it was.
    fn wild_offsets_are_typed_errors(fs: &dyn FileSystem) {
        let invalid = |e: FsError| matches!(e, FsError::Io(io) if io.kind() == std::io::ErrorKind::InvalidInput);
        let mut h = fs.create("w.dat").unwrap();
        h.write_at(0, b"abc").unwrap();
        assert!(invalid(h.write_at(u64::MAX - 1, b"xyz").unwrap_err()));
        assert!(invalid(
            h.submit_write(u64::MAX - 1, b"xyz".to_vec()).unwrap_err()
        ));
        assert!(invalid(h.preallocate(u64::MAX).unwrap_err()));
        let mut buf = [0u8; 3];
        assert!(matches!(
            h.read_at(u64::MAX - 1, &mut buf).unwrap_err(),
            FsError::ReadPastEnd { .. }
        ));
        assert_eq!(h.len(), 3);
        h.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
    }

    fn sparse_write_zero_fills(fs: &dyn FileSystem) {
        let mut h = fs.create("d.dat").unwrap();
        h.write_at(4, b"xy").unwrap();
        assert_eq!(h.len(), 6);
        let mut buf = vec![9u8; 6];
        h.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, &[0, 0, 0, 0, b'x', b'y']);
    }

    pub(crate) fn remove_and_list(fs: &dyn FileSystem) {
        fs.create("z1.dat").unwrap();
        fs.create("z2.dat").unwrap();
        let listed = fs.list();
        assert!(listed.contains(&"z1.dat".to_string()));
        assert!(listed.contains(&"z2.dat".to_string()));
        fs.remove("z1.dat").unwrap();
        assert!(!fs.exists("z1.dat"));
        assert!(fs.exists("z2.dat"));
        assert!(matches!(
            fs.remove("z1.dat").unwrap_err(),
            FsError::NotFound { .. }
        ));
    }

    fn submit_path_roundtrip(fs: &dyn FileSystem) {
        let mut h = fs.create("q.dat").unwrap();
        h.preallocate(12).unwrap();
        let mut returned = 0usize;
        for (i, chunk) in [b"abcd".to_vec(), b"efgh".to_vec(), b"ijkl".to_vec()]
            .into_iter()
            .enumerate()
        {
            if let Some(buf) = h.submit_write(i as u64 * 4, chunk).unwrap() {
                assert_eq!(buf.len(), 4);
                returned += 1;
            }
        }
        // sync barriers every queued write; after it the completed
        // buffers are all drainable (sync path returns none by then).
        h.sync().unwrap();
        for buf in h.drain_completions(false).unwrap() {
            assert_eq!(buf.len(), 4);
            returned += 1;
        }
        assert_eq!(returned, 3, "every submitted buffer must come back");
        assert_eq!(h.len(), 12);
        let mut all = vec![0u8; 12];
        h.read_at(0, &mut all).unwrap();
        assert_eq!(&all, b"abcdefghijkl");
        // A blocking drain with nothing pending must not block.
        assert!(h.drain_completions(true).unwrap().is_empty());
    }

    /// [`create_sized`] hands back the file itself when the length
    /// matches (the bytes are still there to overwrite) and a truncated,
    /// preallocated one when it does not — shorter or longer, no tail.
    fn create_sized_keeps_a_same_length_file(fs: &dyn FileSystem) {
        let mut h = create_sized(fs, "k.dat", 8).unwrap();
        assert_eq!(h.len(), 8, "a missing file is created at its length");
        h.write_at(0, b"01234567").unwrap();
        drop(h);
        let mut h = create_sized(fs, "k.dat", 8).unwrap();
        let mut buf = [0u8; 8];
        h.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"01234567", "a same-length file was truncated");
        h.write_at(0, b"abcdefgh").unwrap();
        drop(h);
        for len in [5, 11] {
            let mut h = create_sized(fs, "k.dat", len).unwrap();
            assert_eq!(h.len(), len);
            let mut buf = vec![9u8; len as usize];
            h.read_at(0, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0), "stale bytes at length {len}");
            h.write_at(0, &vec![7u8; len as usize]).unwrap();
        }
        assert_eq!(fs.open("k.dat").unwrap().len(), 11);
    }

    pub(crate) fn stats_track_sequentiality(fs: &dyn FileSystem) {
        let base_seq = fs.stats().sequential_ops();
        let base_seek = fs.stats().seeks();
        let mut h = fs.create("s.dat").unwrap();
        h.write_at(0, &[0; 8]).unwrap(); // sequential
        h.write_at(8, &[0; 8]).unwrap(); // sequential
        h.write_at(0, &[0; 4]).unwrap(); // seek
        h.sync().unwrap();
        assert_eq!(fs.stats().sequential_ops() - base_seq, 2);
        assert_eq!(fs.stats().seeks() - base_seek, 1);
        assert!(fs.stats().syncs() >= 1);
        assert!(fs.stats().bytes_written() >= 20);
    }
}
