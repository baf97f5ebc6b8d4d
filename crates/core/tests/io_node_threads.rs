//! An I/O node is two threads: its driver (`panda-server-<i>`), which
//! reorganizes in both directions, and its disk task (`panda-disk-<i>`).
//! A reorganizing read packs each piece on the driver where it is
//! pushed, so a deployment spawns no worker pool, whatever worker count
//! its configuration names; and an idle I/O node parks both threads,
//! however small the runs before were. Read off the kernel's thread
//! list, so Linux only; the tests in this binary take turns, which
//! keeps each one's threads out of the other's list.
#![cfg(target_os = "linux")]

mod common;

use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::*;
use panda_core::{PandaConfig, PandaSystem, ReadSet, WriteSet};
use panda_fs::{FileSystem, MemFs};
use panda_schema::ElementType;

const SERVERS: usize = 2;

/// Held by each test for its whole run.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// This process's threads whose names start with `panda-`, sorted by
/// name: each name, and the CPU time the thread has used (`utime +
/// stime` from its `stat`, in clock ticks).
fn panda_threads_cpu() -> Vec<(String, u64)> {
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
        .filter(|(name, _)| name.starts_with("panda-"))
        .collect();
    threads.sort();
    threads
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
