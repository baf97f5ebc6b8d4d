//! Failure injection: the protocol must fail loudly and diagnosably
//! rather than hang when a participant misbehaves.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::*;
use panda_core::protocol::{tags, Msg};
use panda_core::{PandaConfig, PandaError, PandaSystem, ReadSet, WriteSet};
use panda_fs::{FileSystem, MemFs};
use panda_msg::{Envelope, MatchSpec, MsgError, NodeId, Transport};
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
    // for the servers' completes).
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

/// Send the I/O node an otherwise honest `Collective` that `spoil`
/// made into something no client sends, and expect it to end with a
/// typed decode error — not a panic that takes every tenant down.
fn hostile_collective_is_a_decode_error(
    spoil: impl FnOnce(&mut panda_core::protocol::CollectiveRequest),
) {
    use panda_core::protocol::{ArrayOp, CollectiveRequest};
    let meta = make_array("t", &[8, 8], ElementType::F64, &[1, 1], DiskSchema::Natural);
    let config = PandaConfig::new(1, 1).with_recv_timeout(Duration::from_millis(300));
    let (system, mut clients) = PandaSystem::builder()
        .config(config.clone())
        .launch(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    let mut request = CollectiveRequest {
        request: 1,
        participants: vec![0],
        op: panda_core::OpKind::Write,
        arrays: vec![ArrayOp {
            meta,
            file_tag: "t".into(),
            section: None,
        }],
        subchunk_bytes: 1 << 20,
        pipeline_depth: 1,
        sync_policy: panda_fs::SyncPolicy::PerFile,
    };
    spoil(&mut request);
    let hostile = Msg::Collective(request);
    clients[0]
        .transport_mut_for_tests()
        .send(NodeId(1), hostile.tag(), hostile.encode())
        .unwrap();
    let err = system.shutdown(clients).map(|_| ()).unwrap_err();
    assert!(matches!(err, PandaError::Decode { .. }), "got {err}");
}

/// A `Collective` with a zero subchunk cap cannot come from a client
/// (launch and submit refuse the configuration), so it is a corrupt or
/// hostile frame. The planner's `expect("nonzero subchunk cap")` must
/// never see it.
#[test]
fn collective_with_a_zero_subchunk_cap_is_a_decode_error() {
    hostile_collective_is_a_decode_error(|req| req.subchunk_bytes = 0);
}

/// Nor does a client send a `Collective` nobody takes part in: admitted,
/// its first plan piece would index an empty participant list (or its
/// `Reject` go to whoever is rank 0).
#[test]
fn collective_without_participants_is_a_decode_error() {
    hostile_collective_is_a_decode_error(|req| req.participants.clear());
}

#[test]
fn unexpected_tag_is_a_protocol_error() {
    let config = PandaConfig::new(1, 1).with_recv_timeout(Duration::from_millis(300));
    let (system, mut clients) = PandaSystem::builder()
        .config(config.clone())
        .launch(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    // Servers send COMPLETE; they never expect one.
    let stray = panda_core::protocol::Msg::Complete {
        request: 0,
        pieces: 0,
    };
    clients[0]
        .transport_mut_for_tests()
        .send(panda_msg::NodeId(1), stray.tag(), stray.encode())
        .unwrap();
    let err = system.shutdown(clients).map(|_| ()).unwrap_err();
    assert!(matches!(err, PandaError::Protocol { .. }), "got {err}");
}

/// A `RawRead` whose length is garbage must be bounded by the file
/// before the server allocates a reply buffer: a typed error, not a
/// capacity-overflow abort of the I/O node.
#[test]
fn raw_read_with_a_garbage_length_is_read_past_end() {
    let config = PandaConfig::new(1, 1).with_recv_timeout(Duration::from_millis(300));
    let mem = Arc::new(MemFs::new());
    mem.create("f").unwrap().write_at(0, b"abc").unwrap();
    let fs = Arc::clone(&mem);
    let (system, mut clients) = PandaSystem::builder()
        .config(config.clone())
        .launch(move |_| Arc::clone(&fs) as Arc<dyn FileSystem>)
        .unwrap();
    let wild = Msg::RawRead {
        file: "f".to_string(),
        offset: 1,
        len: u64::MAX,
        seq: 0,
    };
    clients[0]
        .transport_mut_for_tests()
        .send(NodeId(1), wild.tag(), wild.encode())
        .unwrap();
    let err = system.shutdown(clients).map(|_| ()).unwrap_err();
    assert!(
        matches!(
            err,
            PandaError::Fs(panda_fs::FsError::ReadPastEnd {
                offset: 1,
                file_len: 3,
                ..
            })
        ),
        "got {err}"
    );
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

/// A client endpoint whose arrivals pass through `tamper` first: each
/// envelope off the wire becomes the envelopes to deliver in its place,
/// in order (none holds it back, two releases a held one).
struct Tampered {
    inner: Box<dyn Transport>,
    tamper: Box<dyn FnMut(Envelope) -> Vec<Envelope> + Send>,
    ready: std::collections::VecDeque<Envelope>,
}

impl Transport for Tampered {
    fn node(&self) -> NodeId {
        self.inner.node()
    }
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn send(&mut self, dst: NodeId, tag: u32, payload: Vec<u8>) -> Result<(), MsgError> {
        self.inner.send(dst, tag, payload)
    }
    fn recv_matching(&mut self, spec: MatchSpec) -> Result<Envelope, MsgError> {
        loop {
            if let Some(env) = self.ready.pop_front() {
                return Ok(env);
            }
            let env = self.inner.recv_matching(spec)?;
            self.ready.extend((self.tamper)(env));
        }
    }
    fn try_recv_matching(&mut self, spec: MatchSpec) -> Result<Option<Envelope>, MsgError> {
        unimplemented!("a PandaClient only ever blocks ({spec:?})")
    }
}

/// `clients` x `servers` over the in-process fabric and `MemFs`, with
/// client `rank`'s arrivals passing through `tamper`: ready to `launch`
/// as a fleet or `serve` sessions.
fn tampered(
    clients: usize,
    servers: usize,
    rank: usize,
    tamper: impl FnMut(Envelope) -> Vec<Envelope> + Send + 'static,
) -> panda_core::PandaSystemBuilder {
    let (eps, stats) =
        panda_msg::InProcFabric::with_timeout(clients + servers, Duration::from_secs(5));
    let mut tamper = Some(Box::new(tamper) as Box<_>);
    let transports = eps
        .into_iter()
        .enumerate()
        .map(|(node, ep)| match tamper.take_if(|_| node == rank) {
            Some(tamper) => Box::new(Tampered {
                inner: Box::new(ep),
                tamper,
                ready: Default::default(),
            }) as Box<dyn Transport>,
            None => Box::new(ep),
        })
        .collect();
    PandaSystem::builder()
        .config(PandaConfig::new(clients, servers))
        .transports(transports, stats)
}

fn mem_fs(_server: usize) -> Arc<dyn FileSystem> {
    Arc::new(MemFs::new())
}

fn launch_tampered(
    clients: usize,
    servers: usize,
    rank: usize,
    tamper: impl FnMut(Envelope) -> Vec<Envelope> + Send + 'static,
) -> (PandaSystem, Vec<panda_core::PandaClient>) {
    tampered(clients, servers, rank, tamper)
        .launch(mem_fs)
        .unwrap()
}

/// `env` decoded, when it is one of the per-request collective messages.
fn collective_msg(env: &Envelope) -> Option<Msg> {
    [tags::FETCH, tags::DATA, tags::COMPLETE]
        .contains(&env.tag)
        .then(|| Msg::decode(env.tag, &env.payload.contiguous()).unwrap())
}

#[test]
fn a_complete_that_disagrees_with_what_arrived_is_a_protocol_error() {
    // A client has no plan of its own: the servers' attested piece
    // counts are its only check that nothing was lost or duplicated, and
    // the echoed request id its only check that the `Complete` is for
    // the collective it is in. Both must be held to. The server at the
    // other end is honest; the wire is not.
    type Forgery = fn(u64, u32) -> (u64, u32);
    let forgeries: [Forgery; 3] = [
        |request, pieces| (request, pieces + 1), // one was lost
        |request, pieces| (request, pieces - 1), // one came twice
        |request, pieces| (request ^ 1, pieces), // not this one's
    ];
    let meta = make_array("t", &[8, 8], ElementType::F64, &[1, 1], DiskSchema::Natural);
    let data = pattern_chunk(&meta, 0);
    for forge in forgeries {
        let (system, mut clients) = launch_tampered(1, 1, 0, move |mut env| {
            if let Some(Msg::Complete { request, pieces }) = collective_msg(&env) {
                let (request, pieces) = forge(request, pieces);
                env.payload =
                    panda_msg::Payload::Inline(Msg::Complete { request, pieces }.encode());
            }
            vec![env]
        });
        for write in [true, false] {
            let err = if write {
                clients[0].write_set(&WriteSet::new().array(&meta, "t", data.as_slice()))
            } else {
                let mut buf = vec![0u8; data.len()];
                clients[0].read_set(&mut ReadSet::new().array(&meta, "t", buf.as_mut_slice()))
            }
            .unwrap_err();
            assert!(matches!(err, PandaError::Protocol { .. }), "got {err}");
        }
        // The servers were honest throughout and shut down cleanly.
        system.shutdown(clients).unwrap();
    }
}

#[test]
fn the_next_collective_may_overtake_the_end_of_this_one() {
    // Each pair of nodes is FIFO; pairs among themselves are not. From
    // its first `Complete` on, everything server 1 sends client 1 is held
    // back here until server 0 — done with that collective, and already
    // told by client 0 to start the next — has a message of the next one
    // delivered ahead of it, as two TCP connections may. Client 1 must
    // neither fail nor mix the two collectives up.
    let id = |env: &Envelope| match collective_msg(env) {
        Some(Msg::Fetch { request, .. } | Msg::Data { request, .. }) => Some(request),
        Some(Msg::Complete { request, .. }) => Some(request),
        _ => None,
    };
    let slow = NodeId(3);
    let (mut held, mut done) = (Vec::new(), false);
    let (system, mut clients) = launch_tampered(2, 2, 1, move |env| {
        if env.src == slow {
            let first = !done && env.tag == tags::COMPLETE;
            if first || !held.is_empty() {
                done = true;
                held.push(env);
                return vec![];
            }
        } else if held.first().is_some_and(|late| id(late) != id(&env)) {
            return std::iter::once(env).chain(held.drain(..)).collect();
        }
        vec![env]
    });
    // Columns over clients, rows over servers: every server has a piece
    // for every client in every collective.
    let meta = make_array(
        "t",
        &[8, 8],
        ElementType::F64,
        &[1, 2],
        DiskSchema::Traditional(2),
    );
    let datas: Vec<Vec<u8>> = (0..2).map(|r| pattern_chunk(&meta, r)).collect();
    std::thread::scope(|s| {
        for (client, data) in clients.iter_mut().zip(&datas) {
            let meta = &meta;
            s.spawn(move || {
                client
                    .write_set(&WriteSet::new().array(meta, "t", data.as_slice()))
                    .unwrap();
                let mut buf = vec![0u8; data.len()];
                client
                    .read_set(&mut ReadSet::new().array(meta, "t", buf.as_mut_slice()))
                    .unwrap();
                assert_eq!(&buf, data);
            });
        }
    });
    system.shutdown(clients).unwrap();
}

/// A one-shot's bytes are written on the strength of the plan alone —
/// no `Fetch` names a region, no `Data` echoes one — so an I/O node
/// holds the message to what it must be before opening a file: a write,
/// by one participant, carrying exactly that participant's chunks.
#[test]
fn a_one_shot_that_is_not_a_whole_single_participant_write_is_a_protocol_error() {
    use panda_core::protocol::{send_request, ArrayOp, CollectiveRequest};
    use panda_core::OpKind;

    let meta = make_array("t", &[8, 8], ElementType::F64, &[1, 1], DiskSchema::Natural);
    let whole = meta.client_bytes(0);
    let honest = CollectiveRequest {
        request: (1 << 32) | 1,
        participants: vec![0],
        op: OpKind::Write,
        arrays: vec![ArrayOp {
            meta: meta.clone(),
            file_tag: "t".to_string(),
            section: None,
        }],
        subchunk_bytes: 1 << 20,
        pipeline_depth: 2,
        sync_policy: panda_fs::SyncPolicy::PerFile,
    };
    let two = CollectiveRequest {
        participants: vec![0, 0],
        ..honest.clone()
    };
    let read = CollectiveRequest {
        op: OpKind::Read,
        ..honest.clone()
    };
    let lies = [
        ("one byte short", &honest, whole - 1),
        ("one byte long", &honest, whole + 1),
        ("two participants", &two, whole),
        ("a read", &read, whole),
    ];
    for (lie, request, bytes) in lies {
        let mem = Arc::new(MemFs::new());
        let fs = Arc::clone(&mem);
        // One I/O node: with a peer, the `Shutdown` below could reach it
        // ahead of the master's relay and the relay find nobody there.
        let config = PandaConfig::new(1, 1).with_recv_timeout(Duration::from_millis(300));
        let (system, mut clients) = PandaSystem::builder()
            .config(config)
            .launch(move |_| Arc::clone(&fs) as Arc<dyn FileSystem>)
            .unwrap();
        let t = clients[0].transport_mut_for_tests();
        send_request(t, NodeId(1), request, Some(vec![7u8; bytes].into())).unwrap();
        let err = system.shutdown(clients).map(|_| ()).unwrap_err();
        assert!(matches!(err, PandaError::Protocol { .. }), "{lie}: {err}");
        assert!(mem.list().is_empty(), "{lie}: a file was touched");
    }
}

/// A one-shot is answered by `Complete`s alone, each attesting zero
/// pieces. The client has nothing else to check that against than the
/// zero messages that arrived — and does.
#[test]
fn a_forged_complete_answering_a_one_shot_is_a_protocol_error() {
    let mut service = tampered(1, 2, 0, |mut env| {
        if let Some(Msg::Complete { request, pieces: 0 }) = collective_msg(&env) {
            env.payload = panda_msg::Payload::Inline(Msg::Complete { request, pieces: 1 }.encode());
        }
        vec![env]
    })
    .serve(mem_fs)
    .unwrap();
    let mut session = service.open().unwrap();
    let meta = make_array(
        "t",
        &[8, 8],
        ElementType::F64,
        &[1, 1],
        DiskSchema::Traditional(2),
    );
    let data = pattern_chunk(&meta, 0);
    let err = session
        .write_set(&WriteSet::new().array(&meta, "t", data.as_slice()))
        .unwrap_err();
    assert!(matches!(err, PandaError::Protocol { .. }), "got {err}");
    let stats = Arc::clone(&service.system().fabric_stats);
    // The servers were honest throughout and shut down cleanly.
    service.shutdown(vec![session]).unwrap();
    assert_eq!(stats.tag_counts(tags::FETCH).msgs, 0, "it was a one-shot");
}
