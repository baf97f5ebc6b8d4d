//! In-memory file system for deterministic tests.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use panda_obs::{Event, Recorder};

use crate::error::FsError;
use crate::obs::FsObs;
use crate::stats::{IoStats, SeqTracker};
use crate::traits::{FileHandle, FileSystem};

type FileData = Arc<Mutex<Vec<u8>>>;

/// A file system held entirely in memory. Cheap, deterministic, and
/// shared-reference friendly; the default backend of the test suite.
#[derive(Debug, Default)]
pub struct MemFs {
    files: Mutex<BTreeMap<String, FileData>>,
    obs: Arc<FsObs>,
}

impl MemFs {
    /// Create an empty in-memory file system.
    pub fn new() -> Self {
        Self::default()
    }

    /// As [`MemFs::new`], reporting every access to `recorder` as node
    /// `node` (its fabric rank; `PandaSystem` installs this
    /// automatically via [`FileSystem::set_recorder`]).
    pub fn with_recorder(recorder: Arc<dyn Recorder>, node: u32) -> Self {
        MemFs {
            files: Mutex::new(BTreeMap::new()),
            obs: Arc::new(FsObs::with_recorder(recorder, node)),
        }
    }

    /// Read a whole file's contents (test convenience).
    pub fn contents(&self, path: &str) -> Result<Vec<u8>, FsError> {
        let files = self.files.lock();
        let data = files.get(path).ok_or_else(|| FsError::NotFound {
            path: path.to_string(),
        })?;
        let contents = data.lock().clone();
        Ok(contents)
    }

    fn handle(&self, path: &str, data: FileData) -> Box<dyn FileHandle> {
        Box::new(MemHandle {
            path: path.to_string(),
            data,
            obs: Arc::clone(&self.obs),
            tracker: SeqTracker::default(),
        })
    }
}

impl FileSystem for MemFs {
    /// Truncates an existing file *in place*, as `O_TRUNC` does: handles
    /// already open on it see length 0, and the file keeps its
    /// allocation, so a file re-created every collective rewrites the
    /// pages it already owns instead of faulting in fresh ones.
    fn create(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        let data = Arc::clone(self.files.lock().entry(path.to_string()).or_default());
        data.lock().clear();
        Ok(self.handle(path, data))
    }

    fn open(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        let files = self.files.lock();
        let data = files.get(path).ok_or_else(|| FsError::NotFound {
            path: path.to_string(),
        })?;
        Ok(self.handle(path, Arc::clone(data)))
    }

    fn exists(&self, path: &str) -> bool {
        self.files.lock().contains_key(path)
    }

    fn remove(&self, path: &str) -> Result<(), FsError> {
        self.files
            .lock()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| FsError::NotFound {
                path: path.to_string(),
            })
    }

    fn list(&self) -> Vec<String> {
        self.files.lock().keys().cloned().collect()
    }

    fn stats(&self) -> Arc<IoStats> {
        self.obs.stats()
    }

    fn set_recorder(&self, recorder: Arc<dyn Recorder>, node: u32) {
        self.obs.set_recorder(recorder, node);
    }
}

struct MemHandle {
    path: String,
    data: FileData,
    obs: Arc<FsObs>,
    tracker: SeqTracker,
}

/// `offset + len` as an in-memory index, if the address space has one.
/// Offsets arrive off the wire (`RawWrite`/`RawRead`), so the sum is
/// checked, never wrapped.
fn end_of(offset: u64, len: usize) -> Option<usize> {
    usize::try_from(offset).ok()?.checked_add(len)
}

/// Grow `file` to `len` bytes, zero-filled; never shrinks it. A length
/// no allocation can have is what `pwrite`/`ftruncate` call `EINVAL`.
fn grow(file: &mut Vec<u8>, len: Option<usize>) -> Result<usize, FsError> {
    let invalid = || FsError::Io(ErrorKind::InvalidInput.into());
    let len = len.ok_or_else(invalid)?;
    if len > file.len() {
        file.try_reserve(len - file.len()).map_err(|_| invalid())?;
        file.resize(len, 0);
    }
    Ok(len)
}

impl FileHandle for MemHandle {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let sequential = self.tracker.classify(offset, data.len());
        let start = self.obs.timed().then(Instant::now);
        {
            let mut file = self.data.lock();
            let end = grow(&mut file, end_of(offset, data.len()))?;
            file[end - data.len()..end].copy_from_slice(data);
        }
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
        {
            let file = self.data.lock();
            let Some(end) = end_of(offset, buf.len()).filter(|&end| end <= file.len()) else {
                return Err(FsError::ReadPastEnd {
                    offset,
                    len: buf.len(),
                    file_len: file.len() as u64,
                });
            };
            buf.copy_from_slice(&file[end - buf.len()..end]);
        }
        self.obs.emit(&Event::FsRead {
            file: &self.path,
            offset,
            bytes: buf.len() as u64,
            sequential,
            dur: start.map(|s| s.elapsed()).unwrap_or(Duration::ZERO),
        });
        Ok(())
    }

    fn len(&self) -> u64 {
        self.data.lock().len() as u64
    }

    fn sync(&mut self) -> Result<(), FsError> {
        self.obs.emit(&Event::FsSync {
            file: &self.path,
            dur: Duration::ZERO,
        });
        Ok(())
    }

    fn preallocate(&mut self, len: u64) -> Result<(), FsError> {
        grow(&mut self.data.lock(), usize::try_from(len).ok()).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::conformance;

    #[test]
    fn conformance_suite() {
        let fs = MemFs::new();
        conformance::all(&fs);
    }

    #[test]
    fn contents_reads_whole_file() {
        let fs = MemFs::new();
        let mut h = fs.create("x").unwrap();
        h.write_at(0, b"panda").unwrap();
        assert_eq!(fs.contents("x").unwrap(), b"panda");
        assert!(fs.contents("y").is_err());
    }

    #[test]
    fn recorder_classifies_sequentiality() {
        let rec = Arc::new(panda_obs::TelemetryRecorder::with_ring(1024));
        let fs = MemFs::with_recorder(Arc::clone(&rec) as Arc<dyn Recorder>, 0);
        let mut h = fs.create("t").unwrap();
        h.write_at(0, &[0; 4]).unwrap();
        h.write_at(8, &[0; 4]).unwrap(); // seek
        h.sync().unwrap();
        let tl = rec.timeline().unwrap();
        assert_eq!(tl.len(), 3);
        assert_eq!(tl[0].kind, panda_obs::EventKind::FsWrite);
        assert_eq!(tl[0].sequential, Some(true));
        assert_eq!(tl[1].sequential, Some(false));
        assert_eq!(tl[2].kind, panda_obs::EventKind::FsSync);
    }

    #[test]
    fn recorder_sees_accesses_with_node_tag() {
        let rec = Arc::new(panda_obs::TelemetryRecorder::with_ring(1024));
        let fs = MemFs::with_recorder(Arc::clone(&rec) as Arc<dyn Recorder>, 7);
        let mut h = fs.create("r").unwrap();
        h.write_at(0, &[1; 16]).unwrap();
        h.sync().unwrap();
        let tl = rec.timeline().unwrap();
        assert_eq!(tl.len(), 2);
        assert!(tl.iter().all(|e| e.node == 7));
        assert_eq!(tl[0].kind, panda_obs::EventKind::FsWrite);
        assert_eq!(tl[0].bytes, 16);
        assert_eq!(tl[0].label.as_deref(), Some("r"));
        // The stats adapter projects the same events.
        assert_eq!(fs.stats().writes(), 1);
        assert_eq!(fs.stats().syncs(), 1);
    }

    #[test]
    fn set_recorder_attaches_mid_flight() {
        let fs = MemFs::new();
        let mut h = fs.create("x").unwrap();
        h.write_at(0, &[0; 4]).unwrap(); // before: goes only to counters
        let rec = Arc::new(panda_obs::TelemetryRecorder::with_ring(1024));
        fs.set_recorder(Arc::clone(&rec) as Arc<dyn Recorder>, 3);
        h.write_at(4, &[0; 4]).unwrap();
        assert_eq!(rec.timeline().unwrap().len(), 1);
        assert_eq!(fs.stats().writes(), 2);
    }

    #[test]
    fn two_handles_share_the_file() {
        let fs = MemFs::new();
        let mut w = fs.create("x").unwrap();
        w.write_at(0, b"abcd").unwrap();
        let mut r = fs.open("x").unwrap();
        let mut buf = [0u8; 4];
        r.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abcd");
        // Writes through one handle are visible through the other.
        w.write_at(0, b"ZZ").unwrap();
        r.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"ZZcd");
    }
}
