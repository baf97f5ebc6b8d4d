//! An I/O node is two threads: its driver (`panda-server-<i>`), which
//! reorganizes in both directions, and its disk task (`panda-disk-<i>`).
//! A reorganizing read packs each piece on the driver where it is
//! pushed, so a deployment spawns no worker pool, whatever worker count
//! its configuration names; an idle I/O node parks both threads,
//! however small the runs before were; and a small collective's client,
//! which polls for its remaining answers, and the I/O node whose disk
//! holds one up both park while it is held up.
//! Read off the kernel's thread list, so Linux only; the tests in this
//! binary take turns, which keeps each one's threads out of the other's
//! list.
#![cfg(target_os = "linux")]

mod common;

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use common::*;
use panda_core::{PandaConfig, PandaSystem, ReadSet, WriteSet};
use panda_fs::{FileHandle, FileSystem, FsError, IoStats, MemFs};
use panda_schema::ElementType;

const SERVERS: usize = 2;

/// Held by each test for its whole run.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// This process's threads whose names start with `prefix`, sorted by
/// name: each name, and the CPU time the thread has used (`utime +
/// stime` from its `stat`, in clock ticks).
fn threads_cpu(prefix: &str) -> Vec<(String, u64)> {
    let mut threads: Vec<(String, u64)> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| {
            let path = task.ok()?.path();
            let name = std::fs::read_to_string(path.join("comm")).ok()?;
            let stat = std::fs::read_to_string(path.join("stat")).ok()?;
            // Fields 14 and 15, counted after the parenthesized name:
            // state is field 3.
            let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
            let ticks = fields[11].parse::<u64>().ok()? + fields[12].parse::<u64>().ok()?;
            Some((name.trim_end().to_string(), ticks))
        })
        .filter(|(name, _)| name.starts_with(prefix))
        .collect();
    threads.sort();
    threads
}

/// This process's `panda-` threads and the CPU each has used.
fn panda_threads_cpu() -> Vec<(String, u64)> {
    threads_cpu("panda-")
}

/// The names of this process's threads that start with `panda-`, sorted.
fn panda_threads() -> Vec<String> {
    panda_threads_cpu()
        .into_iter()
        .map(|(name, _)| name)
        .collect()
}

#[test]
fn a_reorganizing_read_runs_on_the_driver_and_the_disk_task_alone() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let meta = make_array(
        "t",
        &[16, 16],
        ElementType::F64,
        &[2, 2],
        DiskSchema::Traditional(SERVERS),
    );
    for depth in [1, 3] {
        let config = PandaConfig::new(4, SERVERS)
            .with_subchunk_bytes(256)
            .with_pipeline_depth(depth)
            // Ignored: no count of workers is spawned.
            .with_io_workers(4)
            .with_recv_timeout(Duration::from_secs(20));
        let (system, mut clients) = PandaSystem::builder()
            .config(config)
            .launch(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
            .unwrap();
        collective_write(&mut clients, &meta, "t");
        let bufs = collective_read(&mut clients, &meta, "t");
        let threads = panda_threads();
        system.shutdown(clients).unwrap();
        assert_pattern(&meta, &bufs);
        assert_eq!(
            threads,
            [
                "panda-disk-0",
                "panda-disk-1",
                "panda-server-0",
                "panda-server-1"
            ],
            "depth {depth}: each I/O node is its driver and its disk task, no panda-io-* worker"
        );
    }
}

/// A small run's disk hand-offs poll before they park, for a bounded
/// time: once its runs are done, an I/O node that served many of them
/// uses no CPU while it waits for the next.
#[test]
fn an_idle_io_node_parks_after_small_runs() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // The benchmark's session array: 4 KiB, sent whole, 2 KiB per node.
    let meta = make_array(
        "s",
        &[64, 64],
        ElementType::U8,
        &[1, 1],
        DiskSchema::Traditional(SERVERS),
    );
    let mut service = PandaSystem::builder()
        .config(PandaConfig::new(1, SERVERS).with_recv_timeout(Duration::from_secs(20)))
        .serve(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    let mut tenant = service.open().unwrap();
    let data = pattern_chunk(&meta, 0);
    let mut back = vec![0u8; data.len()];
    for _ in 0..200 {
        tenant
            .write_set(&WriteSet::new().array(&meta, "s", data.as_slice()))
            .unwrap();
        tenant
            .read_set(&mut ReadSet::new().array(&meta, "s", back.as_mut_slice()))
            .unwrap();
    }
    let before = panda_threads_cpu();
    std::thread::sleep(Duration::from_millis(300));
    let after = panda_threads_cpu();
    service.shutdown(vec![tenant]).unwrap();
    assert_eq!(back, data);
    let names: Vec<&str> = before.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "panda-disk-0",
            "panda-disk-1",
            "panda-server-0",
            "panda-server-1"
        ]
    );
    for ((name, was), (_, is)) in before.iter().zip(&after) {
        assert!(
            is - was <= 2,
            "{name} used {} clock ticks of CPU in 300 ms with nothing to do",
            is - was
        );
    }
}

/// A `MemFs` whose writes wait until the test opens it, and which says
/// when the first write is waiting.
#[derive(Default)]
struct GatedFs {
    inner: MemFs,
    /// (a write is waiting, the gate is open)
    state: Arc<(Mutex<(bool, bool)>, Condvar)>,
}

impl GatedFs {
    fn wait_reached(&self) {
        let (lock, cv) = &*self.state;
        let _held = cv.wait_while(lock.lock().unwrap(), |s| !s.0).unwrap();
    }

    fn open_gate(&self) {
        let (lock, cv) = &*self.state;
        lock.lock().unwrap().1 = true;
        cv.notify_all();
    }
}

struct GatedHandle {
    inner: Box<dyn FileHandle>,
    state: Arc<(Mutex<(bool, bool)>, Condvar)>,
}

impl FileHandle for GatedHandle {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let (lock, cv) = &*self.state;
        let mut st = lock.lock().unwrap();
        st.0 = true;
        cv.notify_all();
        drop(cv.wait_while(st, |s| !s.1).unwrap());
        self.inner.write_at(offset, data)
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), FsError> {
        self.inner.read_at(offset, buf)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&mut self) -> Result<(), FsError> {
        self.inner.sync()
    }
}

impl FileSystem for GatedFs {
    fn create(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        let inner = self.inner.create(path)?;
        let state = Arc::clone(&self.state);
        Ok(Box::new(GatedHandle { inner, state }))
    }

    fn open(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        let inner = self.inner.open(path)?;
        let state = Arc::clone(&self.state);
        Ok(Box::new(GatedHandle { inner, state }))
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
}

/// A small session collective's client polls for its remaining answers
/// for a bounded time, then parks, and so does the driver of an I/O node
/// whose small run's disk answer is held up, after a few polls: with a
/// tenant's small write held at one I/O node's disk while the other's
/// `Complete` is in, neither the tenant's thread nor that node's driver
/// uses CPU while they wait.
#[test]
fn a_small_collective_s_client_parks_when_an_answer_is_held_up() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let meta = make_array(
        "s",
        &[64, 64],
        ElementType::U8,
        &[1, 1],
        DiskSchema::Traditional(SERVERS),
    );
    let gated = Arc::new(GatedFs::default());
    let fs = Arc::clone(&gated);
    let mut service = PandaSystem::builder()
        .config(PandaConfig::new(1, SERVERS).with_recv_timeout(Duration::from_secs(20)))
        .serve(move |s| match s {
            1 => Arc::clone(&fs) as Arc<dyn FileSystem>,
            _ => Arc::new(MemFs::new()),
        })
        .unwrap();
    let mut tenant = service.open().unwrap();
    let data = pattern_chunk(&meta, 0);
    let writer = std::thread::Builder::new()
        .name("tenant".into())
        .spawn({
            let (meta, data) = (meta.clone(), data.clone());
            move || {
                tenant
                    .write_set(&WriteSet::new().array(&meta, "s", data.as_slice()))
                    .unwrap();
                tenant
            }
        })
        .unwrap();
    gated.wait_reached();
    // I/O node 0's disk is not held: its `Complete` reaches the tenant
    // in microseconds, and the tenant's poll for node 1's runs out.
    std::thread::sleep(Duration::from_millis(20));
    let waiting = || [threads_cpu("tenant"), threads_cpu("panda-server-1")].concat();
    let before = waiting();
    std::thread::sleep(Duration::from_millis(300));
    let after = waiting();
    gated.open_gate();
    let mut tenant = writer.join().unwrap();
    let mut back = vec![0u8; data.len()];
    tenant
        .read_set(&mut ReadSet::new().array(&meta, "s", back.as_mut_slice()))
        .unwrap();
    service.shutdown(vec![tenant]).unwrap();
    assert_eq!(back, data);
    let (names, ticks): (Vec<_>, Vec<_>) = before
        .iter()
        .zip(&after)
        .map(|((n, was), (_, is))| (n.as_str(), is - was))
        .unzip();
    assert_eq!(names, ["tenant", "panda-server-1"]);
    for (name, ticks) in names.iter().zip(ticks) {
        assert!(
            ticks <= 2,
            "{name} used {ticks} clock ticks of CPU in 300 ms waiting for a held-up answer"
        );
    }
}
