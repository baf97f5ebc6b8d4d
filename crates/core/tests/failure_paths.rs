//! Failure injection: the protocol must fail loudly and diagnosably
//! rather than hang when a participant misbehaves.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::*;
use panda_core::{PandaConfig, PandaError, PandaSystem, ReadSet, WriteSet};
use panda_fs::{FileSystem, MemFs};
use panda_schema::ElementType;

#[test]
fn missing_client_times_out_instead_of_hanging() {
    // Only 3 of 4 clients join the collective write. The servers wait
    // for the fourth client's pieces; the configured receive timeout
    // turns that into an error instead of a deadlock.
    let meta = make_array("t", &[8, 8], ElementType::F64, &[2, 2], DiskSchema::Natural);
    let config = PandaConfig::new(4, 2)
        .with_recv_timeout(Duration::from_millis(300))
        .with_subchunk_bytes(1 << 20);
    let (system, mut clients) = PandaSystem::builder()
        .config(config.clone())
        .launch(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    let datas: Vec<Vec<u8>> = (0..4).map(|r| pattern_chunk(&meta, r)).collect();

    let mut results: Vec<Result<(), PandaError>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&datas)
            .enumerate()
            .filter(|(rank, _)| *rank != 3) // client 3 "crashed"
            .map(|(_, (client, data))| {
                let meta = &meta;
                s.spawn(move || {
                    client.write_set(&WriteSet::new().array(meta, "t", data.as_slice()))
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().unwrap());
        }
    });
    // Every participating client surfaces an error (timeout waiting
    // for release/complete).
    assert!(results.iter().all(|r| r.is_err()));
    // The server threads errored too; shutdown reports it.
    let err = system.shutdown(clients).map(|_| ()).unwrap_err();
    assert!(
        matches!(err, PandaError::Msg(_) | PandaError::Protocol { .. }),
        "got {err}"
    );
}

#[test]
fn garbage_message_to_server_is_a_decode_error() {
    let config = PandaConfig::new(1, 1).with_recv_timeout(Duration::from_millis(300));
    let (system, mut clients) = PandaSystem::builder()
        .config(config.clone())
        .launch(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    // Hand-craft a corrupt COLLECTIVE message.
    clients[0]
        .transport_mut_for_tests()
        .send(
            panda_msg::NodeId(1),
            panda_core::protocol::tags::COLLECTIVE,
            vec![0xff; 3],
        )
        .unwrap();
    let err = system.shutdown(clients).map(|_| ()).unwrap_err();
    assert!(matches!(err, PandaError::Decode { .. }), "got {err}");
}

#[test]
fn unexpected_tag_is_a_protocol_error() {
    let config = PandaConfig::new(1, 1).with_recv_timeout(Duration::from_millis(300));
    let (system, mut clients) = PandaSystem::builder()
        .config(config.clone())
        .launch(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    // Servers never expect a RELEASE message.
    clients[0]
        .transport_mut_for_tests()
        .send(
            panda_msg::NodeId(1),
            panda_core::protocol::tags::RELEASE,
            panda_core::protocol::Msg::Release { request: 0 }.encode(),
        )
        .unwrap();
    let err = system.shutdown(clients).map(|_| ()).unwrap_err();
    assert!(matches!(err, PandaError::Protocol { .. }), "got {err}");
}

#[test]
fn read_of_missing_files_surfaces_fs_error() {
    let meta = make_array("t", &[8, 8], ElementType::F64, &[2, 2], DiskSchema::Natural);
    let config = PandaConfig::new(4, 2).with_recv_timeout(Duration::from_millis(500));
    let (system, mut clients) = PandaSystem::builder()
        .config(config.clone())
        .launch(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    // Read something that was never written: the servers hit NotFound
    // and abort; clients time out waiting for data.
    let mut results: Vec<Result<(), PandaError>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let meta = &meta;
                s.spawn(move || {
                    let mut buf = vec![0u8; meta.client_bytes(client.rank())];
                    client.read_set(&mut ReadSet::new().array(
                        meta,
                        "never_written",
                        buf.as_mut_slice(),
                    ))
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().unwrap());
        }
    });
    assert!(results.iter().all(|r| r.is_err()));
    let err = system.shutdown(clients).map(|_| ()).unwrap_err();
    assert!(
        matches!(err, PandaError::Fs(_) | PandaError::Msg(_)),
        "got {err}"
    );
}

#[test]
fn short_or_misregioned_data_for_an_identity_step_is_a_protocol_error() {
    use panda_core::protocol::{
        recv_msg, send_data, send_msg, tags, ArrayOp, CollectiveRequest, Msg,
    };
    use panda_msg::{MatchSpec, NodeId};
    use panda_schema::Region;

    // An identity step's payload *becomes* the subchunk the disk task
    // writes, with no copy kernel in between to notice a wrong size: the
    // server must hold the reply to the plan itself. The client here is
    // driven by hand so that it can lie.
    let meta = make_array("t", &[8, 8], ElementType::F64, &[1, 1], DiskSchema::Natural);
    let whole = meta.client_region(0);
    let half = Region::new(&[0, 0], &[8, 4]).unwrap();
    let lies: [(Region, usize); 2] = [
        // The right region, one element short.
        (whole.clone(), whole.num_bytes(8) - 8),
        // A self-consistent payload, for a region the plan never asked.
        (half.clone(), half.num_bytes(8)),
    ];
    for (region, bytes) in lies {
        let config = PandaConfig::new(1, 1).with_recv_timeout(Duration::from_millis(300));
        let (system, mut clients) = PandaSystem::builder()
            .config(config)
            .launch(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
            .unwrap();
        let t = clients[0].transport_mut_for_tests();
        let request = CollectiveRequest {
            request: (1 << 32) | 1,
            participants: vec![0],
            priority: 0,
            op: panda_core::OpKind::Write,
            arrays: vec![ArrayOp {
                meta: meta.clone(),
                file_tag: "t".to_string(),
                section: None,
            }],
            subchunk_bytes: 1 << 20,
            pipeline_depth: 2,
            sync_policy: panda_fs::SyncPolicy::PerFile,
        };
        send_msg(t, NodeId(1), &Msg::Collective(request)).unwrap();
        let (server, fetch) = recv_msg(t, MatchSpec::tag(tags::FETCH)).unwrap();
        let Msg::Fetch {
            request,
            array,
            seq,
            region: asked,
        } = fetch
        else {
            panic!("expected a Fetch, got {fetch:?}");
        };
        assert_eq!(asked, whole, "one piece, the whole subchunk");
        send_data(t, server, request, array, seq, &region, vec![0u8; bytes]).unwrap();
        let err = system.shutdown(clients).map(|_| ()).unwrap_err();
        assert!(matches!(err, PandaError::Protocol { .. }), "got {err}");
    }
}
