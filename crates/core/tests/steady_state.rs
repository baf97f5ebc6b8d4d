//! Steady state allocates nothing large: once a deployment has run a
//! collective or two, every piece-sized buffer of the next one — the
//! client's pack, the socket reader's frame, the server's window and
//! prefetch — comes off `panda_msg::freelist`, and a re-created `MemFs`
//! file rewrites the pages it already owns. A counting global allocator
//! holds the whole process (I/O nodes, disk tasks, pool workers and TCP
//! reader threads included) to that.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::*;
use panda_core::{ArrayMeta, PandaClient, PandaConfig, PandaSystem, ReadSet, WriteSet};
use panda_fs::{FileSystem, MemFs};
use panda_msg::{FabricStats, TcpFabric, Transport};
use panda_schema::ElementType;

/// What counts as large: the free-list's own piece threshold.
const LARGE: usize = panda_msg::freelist::PIECE_MIN_BYTES;

/// Allocations (and growing reallocations) of at least [`LARGE`] bytes,
/// process-wide. `Relaxed`: a statistic, read only between collectives.
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

fn note(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as it came.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` come from `System`; `new_size` is the
        // caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counter and the free-list are process-wide, and the harness runs
/// tests on parallel threads: one case at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const CLIENTS: usize = 4;
const SERVERS: usize = 2;
/// 2 MiB of `f64`: 512 KiB per client, 128 KiB subchunks, so natural
/// chunking moves 128 KiB pieces and traditional order 64 KiB ones —
/// all large — through windows of several steps per I/O node.
const DIMS: [usize; 2] = [512, 512];
const SUBCHUNK: usize = 128 * 1024;

fn config() -> PandaConfig {
    PandaConfig::new(CLIENTS, SERVERS)
        .with_subchunk_bytes(SUBCHUNK)
        .with_recv_timeout(Duration::from_secs(20))
}

/// One collective write then read of `meta` from caller-owned buffers
/// (the harness itself must not allocate anything large either).
fn pair(clients: &mut [PandaClient], meta: &ArrayMeta, data: &[Vec<u8>], back: &mut [Vec<u8>]) {
    std::thread::scope(|s| {
        for (client, chunk) in clients.iter_mut().zip(data) {
            s.spawn(move || {
                client
                    .write_set(&WriteSet::new().array(meta, "t", chunk.as_slice()))
                    .unwrap();
            });
        }
    });
    std::thread::scope(|s| {
        for (client, buf) in clients.iter_mut().zip(back.iter_mut()) {
            s.spawn(move || {
                client
                    .read_set(&mut ReadSet::new().array(meta, "t", buf.as_mut_slice()))
                    .unwrap();
            });
        }
    });
}

/// Pairs a deployment gets to reach its steady state. The third is
/// normally the clean one; the list grows to the deployment's *peak*
/// demand, and which pair first hits that peak is up to the scheduler.
const MAX_PAIRS: usize = 10;

/// Two warm-up pairs, then a pair that allocates nothing large. A data
/// path that allocates per piece, per step or per collective never has
/// such a pair; one that recycles has one as soon as a pair stays
/// within the demand the list has already seen.
fn reaches_a_pair_that_allocates_nothing_large(
    disk: DiskSchema,
    (system, mut clients): (PandaSystem, Vec<PandaClient>),
) {
    let meta = make_array("t", &DIMS, ElementType::F64, &[2, 2], disk);
    let data: Vec<Vec<u8>> = (0..CLIENTS).map(|r| pattern_chunk(&meta, r)).collect();
    let mut back: Vec<Vec<u8>> = data.iter().map(|d| vec![0u8; d.len()]).collect();
    for _ in 0..2 {
        pair(&mut clients, &meta, &data, &mut back);
    }
    let mut large = Vec::new();
    while large.last() != Some(&0) && large.len() < MAX_PAIRS - 2 {
        back.iter_mut().for_each(|b| b.fill(0));
        let before = LARGE_ALLOCS.load(Ordering::Relaxed);
        pair(&mut clients, &meta, &data, &mut back);
        large.push(LARGE_ALLOCS.load(Ordering::Relaxed) - before);
    }
    // Shut down before asserting: a failed assertion must not leave
    // server threads behind.
    system.shutdown(clients).unwrap();
    assert_eq!(back, data, "the last pair returned wrong bytes");
    assert_eq!(
        large.last(),
        Some(&0),
        "allocations of >= {LARGE} bytes per write/read pair after the warm-up: {large:?}"
    );
}

fn launch_inproc() -> (PandaSystem, Vec<PandaClient>) {
    PandaSystem::builder()
        .config(config())
        .launch(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap()
}

#[test]
fn natural_chunking_inproc() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    reaches_a_pair_that_allocates_nothing_large(DiskSchema::Natural, launch_inproc());
}

#[test]
fn traditional_order_inproc() {
    // Reorganizing steps: assembled and packed on the pool, into
    // free-list buffers.
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    reaches_a_pair_that_allocates_nothing_large(DiskSchema::Traditional(SERVERS), launch_inproc());
}

#[test]
fn natural_chunking_over_tcp() {
    // The socket reader threads take their frames from the list too.
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let transports: Vec<Box<dyn Transport>> =
        TcpFabric::localhost(CLIENTS + SERVERS, Duration::from_secs(20))
            .expect("tcp fabric")
            .into_iter()
            .map(|e| Box::new(e) as Box<dyn Transport>)
            .collect();
    let launched = PandaSystem::builder()
        .config(config())
        .transports(transports, Arc::new(FabricStats::new()))
        .launch(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .expect("launch over tcp");
    reaches_a_pair_that_allocates_nothing_large(DiskSchema::Natural, launched);
}
