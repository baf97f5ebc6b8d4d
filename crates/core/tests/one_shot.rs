//! Small collectives take fewer hand-offs, not different bytes: a
//! session write below `PIECE_MIN_BYTES` rides its own request (no
//! `Fetch`/`Data` pair), and a read retires where its last piece is
//! pushed (no disk answer waited for before `Complete`). Both must
//! leave the files a fetching run leaves, keep the per-file order a
//! later request depends on, and leak nothing.

mod common;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::*;
use panda_core::protocol::tags;
use panda_core::{ArrayMeta, PandaConfig, PandaSystem, ReadSet, ServiceHealth, WriteSet};
use panda_fs::{FileSystem, LocalFs, MemFs};
use panda_msg::freelist::PIECE_MIN_BYTES;
use panda_msg::{FabricStats, TcpFabric, Transport};
use panda_obs::{Recorder, RunReport, TelemetryRecorder};
use panda_schema::{ElementType, Region};

const SERVERS: usize = 2;

/// A fresh scratch directory for this test binary's `LocalFs` cases.
fn scratch(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("panda-one-shot-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// One backend per I/O node: `MemFs`, or `LocalFs` under `root`.
fn backends(root: Option<&PathBuf>) -> Vec<Arc<dyn FileSystem>> {
    (0..SERVERS)
        .map(|s| match root {
            None => Arc::new(MemFs::new()) as Arc<dyn FileSystem>,
            Some(root) => Arc::new(LocalFs::new(root.join(format!("ionode{s}"))).unwrap()),
        })
        .collect()
}

/// Every file on every I/O node, through the backend that wrote it.
fn snapshot(fss: &[Arc<dyn FileSystem>]) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    for (s, fs) in fss.iter().enumerate() {
        for name in fs.list() {
            let mut handle = fs.open(&name).unwrap();
            let mut bytes = vec![0u8; handle.len() as usize];
            handle.read_at(0, &mut bytes).unwrap();
            files.push((format!("s{s}/{name}"), bytes));
        }
    }
    files.sort();
    files
}

/// Arrays with this tenant's chunk of each.
type Arrays = Vec<(ArrayMeta, Vec<u8>)>;

fn write_set(arrays: &Arrays) -> WriteSet<'_> {
    arrays.iter().fold(WriteSet::new(), |set, (meta, data)| {
        set.array(meta, meta.name(), data.as_slice())
    })
}

/// Write `arrays` as one set — through a one-client fleet (which
/// fetches) or through a session (which, this small, sends a one-shot)
/// — and return the files and how many `Fetch`es it took.
fn written(
    session: bool,
    config: PandaConfig,
    root: Option<&PathBuf>,
    arrays: &Arrays,
) -> (Vec<(String, Vec<u8>)>, u64) {
    let fss = backends(root);
    let handles = fss.clone();
    let rec = Arc::new(TelemetryRecorder::new());
    let builder = PandaSystem::builder().config(config.with_recorder(rec.clone()));
    let fs_for = move |s: usize| Arc::clone(&handles[s]);
    if session {
        let mut service = builder.serve(fs_for).unwrap();
        let mut tenant = service.open().unwrap();
        tenant.write_set(&write_set(arrays)).unwrap();
        service.shutdown(vec![tenant]).unwrap();
    } else {
        let (system, mut clients) = builder.launch(fs_for).unwrap();
        clients[0].write_set(&write_set(arrays)).unwrap();
        system.shutdown(clients).unwrap();
    }
    // Read once the I/O nodes have exited: a send is counted just after
    // it is made, which its receiver need not wait for.
    (snapshot(&fss), rec.snapshot().tag(tags::FETCH).0)
}

#[test]
fn a_one_shot_leaves_the_files_a_fetching_write_leaves() {
    let solo = |name: &str, dims: &[usize], elem, disk| {
        let meta = make_array(name, dims, elem, &vec![1; dims.len()], disk);
        let data = pattern_chunk(&meta, 0);
        (meta, data)
    };
    // Natural chunking (one identity step: the carried bytes become the
    // subchunk), traditional order cut into 64-byte subchunks (many
    // reorganizing steps through a depth-2 window), and a set of two
    // arrays whose chunks lie back to back in the body.
    let cases: [(&str, usize, Arrays); 3] = [
        (
            "natural",
            1 << 20,
            vec![solo("n", &[16, 16], ElementType::F64, DiskSchema::Natural)],
        ),
        (
            "traditional",
            64,
            vec![solo(
                "t",
                &[24, 10],
                ElementType::F32,
                DiskSchema::Traditional(SERVERS),
            )],
        ),
        (
            "two arrays",
            256,
            vec![
                solo("a", &[6, 5, 4], ElementType::U8, DiskSchema::Natural),
                solo(
                    "b",
                    &[12, 12],
                    ElementType::F64,
                    DiskSchema::Custom(
                        vec![panda_schema::Dist::Star, panda_schema::Dist::Block],
                        vec![SERVERS],
                    ),
                ),
            ],
        ),
    ];
    for (case, subchunk, arrays) in cases {
        let config = PandaConfig::new(1, SERVERS).with_subchunk_bytes(subchunk);
        for local in [false, true] {
            let roots = local.then(|| (scratch("fetch"), scratch("shot")));
            let roots = roots.as_ref();
            let (fetched, fetches) = written(false, config.clone(), roots.map(|r| &r.0), &arrays);
            let (carried, none) = written(true, config.clone(), roots.map(|r| &r.1), &arrays);
            assert!(fetches > 0 && none == 0, "{case}: {fetches} / {none}");
            assert!(fetched.iter().any(|(_, bytes)| !bytes.is_empty()), "{case}");
            assert_eq!(fetched, carried, "{case} (LocalFs: {local})");
            if let Some((a, b)) = roots {
                let _ = std::fs::remove_dir_all(a);
                let _ = std::fs::remove_dir_all(b);
            }
        }
    }
}

#[test]
fn the_boundary_is_a_free_list_piece_and_the_messages_count_out() {
    // One dimension in rows over both I/O nodes, so each has a piece.
    let solo = |len: usize| {
        make_array(
            "t",
            &[len],
            ElementType::U8,
            &[1],
            DiskSchema::Traditional(SERVERS),
        )
    };
    let rec = Arc::new(TelemetryRecorder::new());
    let mut service = PandaSystem::builder()
        .config(PandaConfig::new(1, SERVERS).with_recorder(rec.clone()))
        .serve(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    let mut tenant = service.open().unwrap();
    let stats = Arc::clone(&service.system().fabric_stats);
    // A send is counted just after it is made, so the last `Complete`
    // may reach the tenant before the count does: wait for `want`, and
    // let a message too many show in the next operation's count.
    let mut sent = 0;
    let mut since = |what: &str, want: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while stats.msgs_sent() - sent < want && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(stats.msgs_sent() - sent, want, "{what}");
        sent += want;
    };
    for (len, write_msgs) in [
        // OneShot, its relay, two Completes.
        (PIECE_MIN_BYTES - 1, 4),
        (4096, 4),
        // Collective, its relay, two Fetch/Data pairs, two Completes.
        (PIECE_MIN_BYTES, 8),
    ] {
        let meta = solo(len);
        let data = pattern_chunk(&meta, 0);
        tenant
            .write_set(&WriteSet::new().array(&meta, "t", data.as_slice()))
            .unwrap();
        since(&format!("write of {len}"), write_msgs);
        let mut back = vec![0u8; len];
        tenant
            .read_set(&mut ReadSet::new().array(&meta, "t", back.as_mut_slice()))
            .unwrap();
        // Collective, its relay, two Data, two Completes.
        since(&format!("read of {len}"), 6);
        assert_eq!(back, data, "{len}");
    }
    service.shutdown(vec![tenant]).unwrap();
    let msgs = |tag| rec.snapshot().tag(tag).0;
    assert_eq!((msgs(tags::ONE_SHOT), msgs(tags::FETCH)), (4, 2));
    // Nothing beyond the operations counted above but the shutdowns.
    assert_eq!(stats.msgs_sent() - sent, SERVERS as u64);
}

/// A write is over on an I/O node that holds no step of it once the
/// empty file its opening creates is synced: that opening's answer is
/// its run's end there. So when `write_set` returns, the empty file
/// exists and its sync is counted.
#[test]
fn a_write_with_no_step_on_a_server_ends_with_its_empty_file_synced() {
    let fss = backends(None);
    let handles = fss.clone();
    let mut service = PandaSystem::builder()
        .config(PandaConfig::new(1, SERVERS))
        .serve(move |s: usize| Arc::clone(&handles[s]))
        .unwrap();
    let mut tenant = service.open().unwrap();
    // One client, natural chunking: one chunk, on server 0.
    let meta = make_array("n", &[8, 8], ElementType::U8, &[1, 1], DiskSchema::Natural);
    let data = pattern_chunk(&meta, 0);
    tenant
        .write_set(&WriteSet::new().array(&meta, "n", data.as_slice()))
        .unwrap();
    assert_eq!(fss[0].open("n.s0").unwrap().len(), data.len() as u64);
    assert_eq!(fss[1].open("n.s1").unwrap().len(), 0);
    for fs in &fss {
        assert_eq!(fs.stats().syncs(), 1);
    }
    service.shutdown(vec![tenant]).unwrap();
}

/// Wait for every I/O node to publish an idle scheduler: the last
/// `Complete` leaves a moment before the gauges that follow it.
fn assert_drained(health: &ServiceHealth) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = health.snapshot();
        let idle =
            |s: &panda_core::ServerHealth| s.live == 0 && s.disk_backlog == 0 && s.queued == 0;
        if snap.per_server.iter().all(idle) {
            return;
        }
        assert!(Instant::now() < deadline, "never drained: {snap:?}");
        std::thread::yield_now();
    }
}

/// Iteration `i`'s contents of client `rank`'s chunk.
fn generation(i: usize, rank: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|b| ((i * 37 + rank * 101 + b * 7) % 251) as u8 + 1)
        .collect()
}

/// A read waits for no disk answer after its last `Read`, so the read's
/// `Complete` can reach the client — and the client's next write the
/// disk task — right behind that `Read`. One command channel keeps that
/// write's `Open` behind it, and the disk task drops the read's handles
/// at its last `Read`; this is the loop that would see a stale or torn
/// file if it did not.
#[test]
fn read_then_overwrite_of_one_tag_is_ordered_and_leaves_nothing_behind() {
    const ROUNDS: usize = 200;
    for depth in [1, 3] {
        for session in [false, true] {
            let root = scratch(&format!("order-d{depth}-{session}"));
            let fss = backends(Some(&root));
            let clients = if session { 1 } else { 2 };
            let builder = PandaSystem::builder().config(
                PandaConfig::new(clients, SERVERS)
                    .with_pipeline_depth(depth)
                    .with_subchunk_bytes(512),
            );
            // 4 KiB in traditional order: four steps on each I/O node,
            // and from a session every write a one-shot.
            let meta = make_array(
                "t",
                &[64, 64],
                ElementType::U8,
                &[clients, 1],
                DiskSchema::Traditional(SERVERS),
            );
            let rounds = |rank: usize, io: &mut dyn panda_core::CollectiveHandle| {
                let len = meta.client_bytes(rank);
                let mut back = vec![0u8; len];
                io.collective_write(&WriteSet::new().array(&meta, "t", &generation(0, rank, len)))
                    .unwrap();
                for i in 0..ROUNDS {
                    io.collective_read(&mut ReadSet::new().array(&meta, "t", &mut back))
                        .unwrap();
                    assert_eq!(back, generation(i, rank, len), "round {i}, depth {depth}");
                    let next = generation(i + 1, rank, len);
                    io.collective_write(&WriteSet::new().array(&meta, "t", &next))
                        .unwrap();
                }
            };
            let fs_for = move |s: usize| Arc::clone(&fss[s]);
            if session {
                let mut service = builder.serve(fs_for).unwrap();
                let mut tenant = service.open().unwrap();
                rounds(0, &mut tenant);
                assert_drained(service.system().health());
                service.shutdown(vec![tenant]).unwrap();
            } else {
                let (system, mut fleet) = builder.launch(fs_for).unwrap();
                std::thread::scope(|s| {
                    for (rank, client) in fleet.iter_mut().enumerate() {
                        let rounds = &rounds;
                        s.spawn(move || rounds(rank, client));
                    }
                });
                assert_drained(system.health());
                system.shutdown(fleet).unwrap();
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

#[test]
fn a_read_with_nothing_to_push_completes() {
    let mut service = PandaSystem::builder()
        .config(PandaConfig::new(1, SERVERS))
        .serve(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    let mut tenant = service.open().unwrap();
    let meta = make_array(
        "t",
        &[8, 8],
        ElementType::U8,
        &[1, 1],
        DiskSchema::Traditional(SERVERS),
    );
    let data = pattern_chunk(&meta, 0);
    tenant
        .write_set(&WriteSet::new().array(&meta, "t", data.as_slice()))
        .unwrap();
    // Rows 0..2 live on I/O node 0 alone: node 1's schedule is empty,
    // and it retires the request by the same route as node 0.
    let top = Region::new(&[0, 0], &[2, 8]).unwrap();
    let mut back = vec![0u8; tenant.section_bytes(&meta, &top)];
    tenant
        .read_set(&mut ReadSet::new().section(&meta, "t", top, &mut back))
        .unwrap();
    assert_eq!(back, data[..16]);
    // And a section holding nothing at all empties both schedules.
    let nothing = Region::new(&[3, 3], &[3, 3]).unwrap();
    tenant
        .read_set(&mut ReadSet::new().section(&meta, "t", nothing, &mut []))
        .unwrap();
    assert_drained(service.system().health());
    service.shutdown(vec![tenant]).unwrap();
}

#[test]
fn a_one_shot_write_reports_disk_time_and_no_exchange() {
    let rec = Arc::new(TelemetryRecorder::with_ring(8192));
    let mut service = PandaSystem::builder()
        .config(PandaConfig::new(1, SERVERS).with_recorder(rec.clone() as Arc<dyn Recorder>))
        .serve(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    let mut tenant = service.open().unwrap();
    let meta = make_array(
        "t",
        &[64, 64],
        ElementType::U8,
        &[1, 1],
        DiskSchema::Traditional(SERVERS),
    );
    let data = pattern_chunk(&meta, 0);
    let request = tenant
        .write_set(&WriteSet::new().array(&meta, "t", data.as_slice()))
        .unwrap();
    let report = RunReport::for_request(rec.as_ref(), request);
    // Nothing was fetched, so no server ever waited on a client ...
    assert_eq!(report.exchange_s(), 0.0);
    // ... while the disk was as real as ever.
    assert!(report.disk_s() > 0.0);
    assert_eq!(report.per_subchunk.len(), SERVERS);
    for sub in &report.per_subchunk {
        assert_eq!(sub.exchange_s, 0.0);
        assert!(sub.disk_s > 0.0);
    }
    let json = report.to_json();
    panda_obs::json::validate(&json).expect("a valid report");
    assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    service.shutdown(vec![tenant]).unwrap();
}

/// Over sockets a one-shot arrives as one buffer, head and body, and the
/// master's relay to each of two peers is a copy, not a reference count;
/// pairs of nodes reorder against each other for real.
#[test]
fn one_shots_over_tcp_with_two_peers_to_relay_to() {
    const TENANTS: usize = 2;
    const PEERS: usize = 3;
    let transports: Vec<Box<dyn Transport>> =
        TcpFabric::localhost(TENANTS + PEERS, Duration::from_secs(20))
            .expect("tcp fabric")
            .into_iter()
            .map(|e| Box::new(e) as Box<dyn Transport>)
            .collect();
    let mut service = PandaSystem::builder()
        .config(PandaConfig::new(TENANTS, PEERS).with_recv_timeout(Duration::from_secs(20)))
        .transports(transports, Arc::new(FabricStats::new()))
        .serve(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    let tenants: Vec<_> = (0..TENANTS).map(|_| service.open().unwrap()).collect();
    let meta = make_array(
        "t",
        &[48, 32],
        ElementType::U8,
        &[1, 1],
        DiskSchema::Traditional(PEERS),
    );
    let tenants = std::thread::scope(|s| {
        let joins: Vec<_> = tenants
            .into_iter()
            .enumerate()
            .map(|(rank, mut tenant)| {
                let meta = &meta;
                s.spawn(move || {
                    let tag = format!("t{rank}");
                    let mut back = vec![0u8; meta.client_bytes(0)];
                    for i in 0..50 {
                        let data = generation(i, rank, back.len());
                        tenant
                            .write_set(&WriteSet::new().array(meta, tag.as_str(), &data))
                            .unwrap();
                        tenant
                            .read_set(&mut ReadSet::new().array(meta, tag.as_str(), &mut back))
                            .unwrap();
                        assert_eq!(back, data, "tenant {rank}, round {i}");
                    }
                    tenant
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().unwrap())
            .collect::<Vec<_>>()
    });
    assert_drained(service.system().health());
    service.shutdown(tenants).unwrap();
}
