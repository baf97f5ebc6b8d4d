//! The paper's §5 portability claim, demonstrated: "we will be able to
//! run Panda on a network of ordinary workstations without changing any
//! code." The entire collective protocol runs unchanged over real TCP
//! sockets instead of the in-process fabric.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::*;
use panda_core::{PandaConfig, PandaSystem, ReadSet};
use panda_fs::{FileSystem, MemFs, ThrottledFs};
use panda_msg::{FabricStats, TcpFabric, Transport};
use panda_schema::{copy, ElementType, Region};

/// Launch over localhost TCP; `slow` names a server whose backend takes
/// 40 ms per access.
fn launch_tcp(
    num_clients: usize,
    num_servers: usize,
    subchunk: usize,
    slow: Option<usize>,
) -> (PandaSystem, Vec<panda_core::PandaClient>, Vec<Arc<MemFs>>) {
    let endpoints = TcpFabric::localhost(num_clients + num_servers, Duration::from_secs(20))
        .expect("tcp fabric");
    let transports: Vec<Box<dyn Transport>> = endpoints
        .into_iter()
        .map(|e| Box::new(e) as Box<dyn Transport>)
        .collect();
    let mems: Vec<Arc<MemFs>> = (0..num_servers).map(|_| Arc::new(MemFs::new())).collect();
    let handles = mems.clone();
    let config = PandaConfig::new(num_clients, num_servers)
        .with_subchunk_bytes(subchunk)
        .with_recv_timeout(Duration::from_secs(20));
    let (system, clients) = PandaSystem::builder()
        .config(config)
        .transports(transports, Arc::new(FabricStats::new()))
        .launch(move |s| {
            let mem = Arc::clone(&handles[s]) as Arc<dyn FileSystem>;
            if slow == Some(s) {
                Arc::new(ThrottledFs::new(mem, 1e6, 1e6, Duration::from_millis(40)))
            } else {
                mem
            }
        })
        .expect("launch over tcp");
    (system, clients, mems)
}

#[test]
fn collective_roundtrip_over_tcp() {
    let meta = make_array(
        "t",
        &[16, 16],
        ElementType::F64,
        &[2, 2],
        DiskSchema::Traditional(2),
    );
    let (system, mut clients, mems) = launch_tcp(4, 2, 256, None);
    collective_write(&mut clients, &meta, "t");
    // Files are byte-identical to what the in-process fabric produces.
    assert_eq!(concat_server_files(&mems, "t"), pattern_full(&meta));
    let bufs = collective_read(&mut clients, &meta, "t");
    assert_pattern(&meta, &bufs);
    // And still perfectly sequential at each I/O node.
    for fs in &mems {
        assert_eq!(fs.stats().seeks(), 0);
    }
    system.shutdown(clients).unwrap();
}

#[test]
fn group_ops_over_tcp() {
    use panda_core::{ArrayGroup, GroupData};
    let meta = make_array("f", &[8, 8], ElementType::I32, &[2, 2], DiskSchema::Natural);
    let (system, mut clients, _mems) = launch_tcp(4, 2, 1 << 20, None);
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            let meta = &meta;
            s.spawn(move || {
                let mut g = ArrayGroup::new("net");
                g.include(meta.clone());
                let chunk = pattern_chunk(meta, client.rank());
                g.checkpoint(client, &[&chunk]).unwrap();
                if client.rank() == 0 {
                    g.save_schema(client).unwrap();
                }
                let mut data = GroupData::zeroed(&g, client.rank());
                g.restart(client, &mut data.slices_mut()).unwrap();
                assert_eq!(data.buffer(0), &chunk[..]);
            });
        }
    });
    // Manifest reloads over TCP too.
    let loaded = panda_core::ArrayGroup::load(&mut clients[0], "net").unwrap();
    assert_eq!(loaded.checkpoints_taken(), 1);
    system.shutdown(clients).unwrap();
}

#[test]
fn fast_servers_completes_do_not_end_a_read_before_a_slow_servers_data() {
    // Over TCP each pair of nodes has its own socket, so nothing orders
    // one server's `Complete` against another server's `Data`. Server 1
    // is slow; servers 0 and 2 have pushed everything and completed long
    // before its first piece leaves. A client must still be in the
    // collective when it does.
    let meta = make_array(
        "t",
        &[24, 16],
        ElementType::F64,
        &[2, 2],
        DiskSchema::Traditional(3),
    );
    let (system, mut clients, _mems) = launch_tcp(4, 3, 512, Some(1));
    collective_write(&mut clients, &meta, "t");
    // Rows 2..22 cross all three servers' slabs and both client rows:
    // every client's share includes a piece from the slow server.
    let section = Region::new(&[2, 3], &[22, 14]).unwrap();
    let mut bufs: Vec<Vec<u8>> = clients
        .iter()
        .map(|c| vec![0u8; c.section_bytes(&meta, &section)])
        .collect();
    std::thread::scope(|s| {
        for (client, buf) in clients.iter_mut().zip(bufs.iter_mut()) {
            let (meta, section) = (&meta, &section);
            s.spawn(move || {
                let mut set =
                    ReadSet::new().section(meta, "t", section.clone(), buf.as_mut_slice());
                client.read_set(&mut set).unwrap();
            });
        }
    });
    for (rank, buf) in bufs.iter().enumerate() {
        let mine = meta.client_region(rank);
        let target = mine
            .intersect(&section)
            .expect("section crosses every client");
        let want = copy::pack_region(&pattern_chunk(&meta, rank), &mine, &target, 8).unwrap();
        assert_eq!(buf, &want, "client {rank}");
    }
    system.shutdown(clients).unwrap();
}
