//! A small collective's client polls for its remaining answers; a bulk
//! one's never does. Once a server has answered a collective whose
//! bytes at the client are below `PIECE_MIN_BYTES`, the others' answers
//! are in flight, and the client probes for each next message (bounded)
//! before it blocks. Before the first answer, and at or above the line,
//! it blocks at once. Watched through a transport that logs each receive
//! the client makes.

mod common;

use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::*;
use panda_core::{PandaConfig, PandaSystem, ReadSet, WriteSet};
use panda_fs::{FileSystem, MemFs};
use panda_msg::freelist::PIECE_MIN_BYTES;
use panda_msg::{Bytes, Envelope, InProcFabric, MatchSpec, MsgError, NodeId, Transport};
use panda_obs::Recorder;
use panda_schema::ElementType;

const SERVERS: usize = 2;

/// One receive the client made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    /// A blocking receive, which returned a message.
    Recv,
    /// A non-blocking probe, and whether it found a message.
    Probe(bool),
}

/// An endpoint that logs every receive made through it.
struct Logging {
    inner: Box<dyn Transport>,
    log: Arc<Mutex<Vec<Call>>>,
}

impl Transport for Logging {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn send(&mut self, dst: NodeId, tag: u32, payload: Vec<u8>) -> Result<(), MsgError> {
        self.inner.send(dst, tag, payload)
    }

    fn send_vectored(
        &mut self,
        dst: NodeId,
        tag: u32,
        head: Vec<u8>,
        body: Bytes,
    ) -> Result<(), MsgError> {
        self.inner.send_vectored(dst, tag, head, body)
    }

    fn recv_matching(&mut self, spec: MatchSpec) -> Result<Envelope, MsgError> {
        let got = self.inner.recv_matching(spec)?;
        self.log.lock().unwrap().push(Call::Recv);
        Ok(got)
    }

    fn try_recv_matching(&mut self, spec: MatchSpec) -> Result<Option<Envelope>, MsgError> {
        let got = self.inner.try_recv_matching(spec)?;
        self.log.lock().unwrap().push(Call::Probe(got.is_some()));
        Ok(got)
    }

    fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.inner.set_recorder(recorder);
    }
}

/// Session writes and reads of 4 KiB (the benchmark's) and of one byte
/// under the line probe, and only once the first message of the
/// collective is in; those of exactly `PIECE_MIN_BYTES` never probe.
/// Every read returns what was written.
#[test]
fn a_small_collective_probes_once_underway_and_a_bulk_one_never() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let (eps, stats) = InProcFabric::with_timeout(1 + SERVERS, Duration::from_secs(20));
    let transports: Vec<Box<dyn Transport>> = eps
        .into_iter()
        .enumerate()
        .map(|(node, ep)| match node {
            0 => Box::new(Logging {
                inner: Box::new(ep),
                log: Arc::clone(&log),
            }) as Box<dyn Transport>,
            _ => Box::new(ep),
        })
        .collect();
    let mut service = PandaSystem::builder()
        .config(PandaConfig::new(1, SERVERS).with_recv_timeout(Duration::from_secs(20)))
        .transports(transports, stats)
        .serve(|_| Arc::new(MemFs::new()) as Arc<dyn FileSystem>)
        .unwrap();
    let mut tenant = service.open().unwrap();
    let line = PIECE_MIN_BYTES;
    let cases: [(&[usize], bool); 3] = [
        (&[64, 64], true),
        (&[line - 1], true),
        (&[line / 256, 256], false),
    ];
    for (dims, small) in cases {
        let mesh = vec![1; dims.len()];
        let meta = make_array(
            "t",
            dims,
            ElementType::U8,
            &mesh,
            DiskSchema::Traditional(SERVERS),
        );
        let data = pattern_chunk(&meta, 0);
        assert_eq!(data.len() < line, small);
        let mut back = vec![0u8; data.len()];
        for round in 0..20 {
            let case = format!("{} bytes, round {round}", data.len());
            log.lock().unwrap().clear();
            tenant
                .write_set(&WriteSet::new().array(&meta, "t", data.as_slice()))
                .unwrap();
            let wrote = std::mem::take(&mut *log.lock().unwrap());
            back.fill(0);
            tenant
                .read_set(&mut ReadSet::new().array(&meta, "t", back.as_mut_slice()))
                .unwrap();
            let read = std::mem::take(&mut *log.lock().unwrap());
            assert_eq!(back, data, "{case}");
            for (op, calls) in [("write", wrote), ("read", read)] {
                let probes = calls.iter().filter(|c| **c != Call::Recv).count();
                assert_eq!(
                    calls.first(),
                    Some(&Call::Recv),
                    "{case}: a {op} waits for its first message by blocking: {calls:?}"
                );
                match small {
                    true => assert!(probes > 0, "{case}: a small {op} never probed"),
                    false => assert_eq!(probes, 0, "{case}: a bulk {op} probed: {calls:?}"),
                }
            }
        }
    }
    service.shutdown(vec![tenant]).unwrap();
}
