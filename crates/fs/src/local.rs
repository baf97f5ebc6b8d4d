//! Real-file backend rooted at a directory.

use std::fs;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use panda_obs::{Event, Recorder};

use crate::error::FsError;
use crate::obs::FsObs;
use crate::root::RootDir;
use crate::stats::{IoStats, SeqTracker};
use crate::traits::{FileHandle, FileSystem};

/// A file system backed by real files under a root directory. Used by the
/// examples and by integration tests that verify on-disk layout (e.g.
/// that concatenating the per-server files of a `BLOCK,*,*` schema yields
/// the array in traditional order).
#[derive(Debug)]
pub struct LocalFs {
    root: RootDir,
    obs: Arc<FsObs>,
}

impl LocalFs {
    /// Create a backend rooted at `root`, creating the directory if
    /// needed.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, FsError> {
        Ok(LocalFs {
            root: RootDir::create(root.into())?,
            obs: Arc::new(FsObs::new()),
        })
    }

    /// As [`LocalFs::new`], reporting every access to `recorder` as node
    /// `node` (its fabric rank; `PandaSystem` installs this
    /// automatically via [`FileSystem::set_recorder`]).
    pub fn with_recorder(
        root: impl Into<PathBuf>,
        recorder: Arc<dyn Recorder>,
        node: u32,
    ) -> Result<Self, FsError> {
        Ok(LocalFs {
            root: RootDir::create(root.into())?,
            obs: Arc::new(FsObs::with_recorder(recorder, node)),
        })
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        self.root.path()
    }

    fn handle(&self, path: &str, file: fs::File, len: u64) -> Box<dyn FileHandle> {
        Box::new(LocalHandle {
            path: path.to_string(),
            file,
            len,
            obs: Arc::clone(&self.obs),
            tracker: SeqTracker::default(),
        })
    }
}

impl FileSystem for LocalFs {
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

struct LocalHandle {
    path: String,
    file: fs::File,
    /// Cached file length: the handle is the only writer while it is
    /// open (the Panda engine gives each collective's files to exactly
    /// one disk stage), so tracking `max(end-of-write)` here avoids a
    /// `metadata` syscall on every access.
    len: u64,
    obs: Arc<FsObs>,
    tracker: SeqTracker,
}

impl FileHandle for LocalHandle {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let sequential = self.tracker.classify(offset, data.len());
        let start = self.obs.timed().then(Instant::now);
        // Positional write: `pwrite` past EOF zero-fills the gap, so
        // sparse semantics match MemFs without an explicit `set_len`.
        self.file.write_all_at(data, offset)?;
        self.len = self.len.max(offset + data.len() as u64);
        self.obs.emit(&Event::FsWrite {
            file: &self.path,
            offset,
            bytes: data.len() as u64,
            sequential,
            dur: start.map(|s| s.elapsed()).unwrap_or(Duration::ZERO),
        });
        Ok(())
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), FsError> {
        let sequential = self.tracker.classify(offset, buf.len());
        let start = self.obs.timed().then(Instant::now);
        if offset
            .checked_add(buf.len() as u64)
            .is_none_or(|end| end > self.len)
        {
            return Err(FsError::ReadPastEnd {
                offset,
                len: buf.len(),
                file_len: self.len,
            });
        }
        self.file.read_exact_at(buf, offset)?;
        self.obs.emit(&Event::FsRead {
            file: &self.path,
            offset,
            bytes: buf.len() as u64,
            sequential,
            dur: start.map(|s| s.elapsed()).unwrap_or(Duration::ZERO),
        });
        Ok(())
    }

    /// Asks the OS, so that a `create` that truncated the file under
    /// this handle shows; the cached length only spares the hot
    /// `read_at` bound check a syscall.
    fn len(&self) -> u64 {
        self.file.metadata().map_or(self.len, |m| m.len())
    }

    fn preallocate(&mut self, len: u64) -> Result<(), FsError> {
        if len > self.len {
            self.file.set_len(len)?;
            self.len = len;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), FsError> {
        let start = self.obs.timed().then(Instant::now);
        self.file.sync_data()?;
        self.obs.emit(&Event::FsSync {
            file: &self.path,
            dur: start.map(|s| s.elapsed()).unwrap_or(Duration::ZERO),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::conformance;

    fn tmp_fs(tag: &str) -> LocalFs {
        let dir = std::env::temp_dir().join(format!("panda-fs-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        LocalFs::new(dir).unwrap()
    }

    #[test]
    fn conformance_suite() {
        let fs = tmp_fs("conf");
        conformance::all(&fs);
        let _ = fs::remove_dir_all(fs.root());
    }

    #[test]
    fn rejects_escaping_paths() {
        let fs = tmp_fs("escape");
        assert!(matches!(
            fs.create("../evil").map(|_| ()).unwrap_err(),
            FsError::InvalidPath { .. }
        ));
        assert!(matches!(
            fs.create("/abs").map(|_| ()).unwrap_err(),
            FsError::InvalidPath { .. }
        ));
        let _ = fs::remove_dir_all(fs.root());
    }

    #[test]
    fn nested_paths_create_directories() {
        let fs = tmp_fs("nested");
        let mut h = fs.create("group/array.0").unwrap();
        h.write_at(0, b"x").unwrap();
        assert!(fs.exists("group/array.0"));
        assert_eq!(fs.list(), vec!["group/array.0".to_string()]);
        let _ = fs::remove_dir_all(fs.root());
    }

    #[test]
    fn recorder_times_real_disk_calls() {
        let dir = std::env::temp_dir().join(format!("panda-fs-test-rec-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let rec = Arc::new(panda_obs::TelemetryRecorder::with_ring(1024));
        let fs = LocalFs::with_recorder(&dir, Arc::clone(&rec) as Arc<dyn Recorder>, 5).unwrap();
        let mut h = fs.create("d.bin").unwrap();
        h.write_at(0, &[7u8; 4096]).unwrap();
        h.sync().unwrap();
        let tl = rec.timeline().unwrap();
        assert_eq!(tl.len(), 2);
        assert!(tl.iter().all(|e| e.node == 5));
        assert_eq!(tl[0].kind, panda_obs::EventKind::FsWrite);
        let _ = fs::remove_dir_all(&dir);
    }
}
