//! TCP transport: Panda on a network of ordinary workstations.
//!
//! The paper closes §5 with: "we will be able to run Panda on a network
//! of ordinary workstations without changing any code." This module
//! makes that claim true for the reproduction: [`TcpFabric`] implements
//! the same [`Transport`] contract as the in-process fabric over real
//! sockets, so the whole Panda runtime — clients, servers, collectives,
//! baselines — runs unchanged across processes or hosts.
//!
//! Wire format per message: `u64 src | u32 tag | u64 len | u32 head_len
//! | len bytes`, little-endian, the first `head_len` of the `len` bytes
//! being the message's head and the rest its body (see
//! [`Payload::Framed`]; an inline message is all head). The reader keeps
//! the split, so a body lands in a buffer of its own and no receiver
//! cuts a head off the front of one. Each ordered node pair gets one
//! connection (lower rank connects to higher rank), which preserves the
//! pairwise FIFO guarantee of the transport contract. A per-endpoint receiver
//! thread multiplexes all incoming connections into one queue, exactly
//! mirroring the in-process fabric's single mailbox.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;

use panda_obs::{Event, Recorder};

use crate::envelope::{Bytes, Envelope, NodeId, Payload};
use crate::error::MsgError;
use crate::freelist;
use crate::mailbox::Mailbox;
use crate::obs::MsgObs;
use crate::stats::FabricStats;
use crate::transport::{MatchSpec, Transport};

/// Builder for a TCP-connected set of endpoints.
#[derive(Debug)]
pub struct TcpFabric;

impl TcpFabric {
    /// Create an `n`-node fabric on localhost with OS-assigned ports,
    /// returning the endpoints (index == rank). Tests and single-host
    /// deployments use this; a real workstation network would run
    /// `TcpEndpoint::establish` on each host against a shared address
    /// list (one listener per rank), which is exactly what this helper
    /// does with all ranks local.
    pub fn localhost(n: usize, recv_timeout: Duration) -> std::io::Result<Vec<TcpEndpoint>> {
        // Bind all listeners first so every address is known.
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            addrs.push(listener.local_addr()?);
            listeners.push(listener);
        }
        // Each endpoint connects to all higher ranks and accepts from
        // all lower ranks; do it rank by rank on helper threads to
        // avoid accept/connect ordering deadlocks.
        let mut handles = Vec::with_capacity(n);
        for (rank, listener) in listeners.into_iter().enumerate() {
            let addrs = addrs.clone();
            handles.push(std::thread::spawn(move || {
                TcpEndpoint::establish(rank, listener, &addrs, recv_timeout)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("fabric setup thread"))
            .collect()
    }
}

/// One node's TCP endpoint.
pub struct TcpEndpoint {
    node: NodeId,
    /// Write halves to every peer (self-sends short-circuit).
    peers: Vec<Option<Arc<Mutex<TcpStream>>>>,
    mailbox: Mailbox,
    /// Loopback for self-sends.
    self_tx: Sender<Envelope>,
    stats: Arc<FabricStats>,
}

impl TcpEndpoint {
    fn establish(
        rank: usize,
        listener: TcpListener,
        addrs: &[SocketAddr],
        recv_timeout: Duration,
    ) -> std::io::Result<TcpEndpoint> {
        let n = addrs.len();
        let (tx, rx) = unbounded::<Envelope>();
        let mut peers: Vec<Option<Arc<Mutex<TcpStream>>>> = (0..n).map(|_| None).collect();

        // Connect to higher ranks; send our rank as a hello byte 8-byte LE.
        for (peer, addr) in addrs.iter().enumerate().skip(rank + 1) {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.write_all(&(rank as u64).to_le_bytes())?;
            spawn_reader(stream.try_clone()?, tx.clone());
            peers[peer] = Some(Arc::new(Mutex::new(stream)));
        }
        // Accept from lower ranks.
        for _ in 0..rank {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut hello = [0u8; 8];
            stream.read_exact(&mut hello)?;
            let peer = u64::from_le_bytes(hello) as usize;
            spawn_reader(stream.try_clone()?, tx.clone());
            peers[peer] = Some(Arc::new(Mutex::new(stream)));
        }
        let stats = Arc::new(FabricStats::new());
        Ok(TcpEndpoint {
            node: NodeId(rank),
            peers,
            mailbox: Mailbox::new(
                rx,
                MsgObs::new(rank as u32, Arc::clone(&stats)),
                recv_timeout,
            ),
            self_tx: tx,
            stats,
        })
    }

    /// Per-endpoint statistics (unlike the in-process fabric, each TCP
    /// endpoint counts only its own traffic — there is no shared
    /// memory to aggregate in).
    pub fn stats(&self) -> &Arc<FabricStats> {
        &self.stats
    }

    fn send_payload(&mut self, dst: NodeId, tag: u32, payload: Payload) -> Result<(), MsgError> {
        if dst.index() >= self.peers.len() {
            return Err(MsgError::InvalidNode {
                node: dst,
                num_nodes: self.peers.len(),
            });
        }
        let bytes = payload.len();
        // Socket writes genuinely block (unlike the in-process fabric's
        // buffered channels), so time them when a recorder asks.
        let start = self.mailbox.obs.timed().then(Instant::now);
        if dst == self.node {
            self.self_tx
                .send(Envelope {
                    src: self.node,
                    tag,
                    payload,
                })
                .map_err(|_| MsgError::Disconnected)?;
        } else {
            let stream = self.peers[dst.index()]
                .as_ref()
                .ok_or(MsgError::Disconnected)?;
            let (head, body) = payload.as_parts();
            // Frame header plus the (small) head in one buffer; the
            // (large) body goes to the socket as-is — never copied into
            // a frame. Both writes share one lock scope so frames from
            // concurrent senders cannot interleave. A head too long for
            // its field is far past what a reader accepts anyway.
            let head_len = u32::try_from(head.len()).unwrap_or(u32::MAX);
            let mut frame = Vec::with_capacity(HEADER_BYTES + head.len());
            frame.extend_from_slice(&(self.node.index() as u64).to_le_bytes());
            frame.extend_from_slice(&tag.to_le_bytes());
            frame.extend_from_slice(&(bytes as u64).to_le_bytes());
            frame.extend_from_slice(&head_len.to_le_bytes());
            frame.extend_from_slice(head);
            let mut guard = stream.lock();
            guard
                .write_all(&frame)
                .map_err(|_| MsgError::Disconnected)?;
            if !body.is_empty() {
                guard.write_all(body).map_err(|_| MsgError::Disconnected)?;
            }
            drop(guard);
            // The socket has the bytes; the body's buffer is free again.
            if let Payload::Framed { body, .. } = payload {
                body.recycle();
            }
        }
        self.mailbox.obs.emit(&Event::MsgSent {
            to: dst.index() as u32,
            tag,
            bytes: bytes as u64,
            dur: start.map(|s| s.elapsed()).unwrap_or(Duration::ZERO),
        });
        Ok(())
    }
}

/// Largest frame a reader accepts. A frame never exceeds one piece or
/// one baseline chunk, so anything past this is a corrupt header, not
/// traffic.
const MAX_FRAME_BYTES: u64 = 1 << 30;

/// `u64 src | u32 tag | u64 len | u32 head_len`.
const HEADER_BYTES: usize = 24;

/// Read frames off one connection into the shared mailbox until EOF.
/// The header's lengths are outside input: a frame over
/// [`MAX_FRAME_BYTES`], or whose head is longer than the frame, shuts
/// the connection down instead of being allocated for, so the peer's
/// next receive ends in its typed `Timeout`/`Disconnected` and every
/// other connection keeps working.
fn spawn_reader(mut stream: TcpStream, tx: Sender<Envelope>) {
    std::thread::spawn(move || {
        loop {
            let mut header = [0u8; HEADER_BYTES];
            if stream.read_exact(&mut header).is_err() {
                return; // peer closed
            }
            let src = u64::from_le_bytes(header[0..8].try_into().unwrap()) as usize;
            let tag = u32::from_le_bytes(header[8..12].try_into().unwrap());
            let len = u64::from_le_bytes(header[12..20].try_into().unwrap());
            let head_len = u64::from(u32::from_le_bytes(header[20..24].try_into().unwrap()));
            if len > MAX_FRAME_BYTES || head_len > len {
                // The write half is a clone of this socket; shut both
                // directions so the peer sees the drop too.
                let _ = stream.shutdown(std::net::Shutdown::Both);
                return;
            }
            // Head and body each land in a buffer of exactly their
            // length, a piece-sized one recycled (whose stale contents
            // `read_exact` overwrites in full).
            let mut read = |len: u64| {
                let mut buf = freelist::take(len as usize);
                stream.read_exact(&mut buf).map(|()| buf)
            };
            let Ok(head) = read(head_len) else {
                return;
            };
            let payload = match len - head_len {
                0 => Payload::Inline(head),
                body_len => match read(body_len) {
                    Ok(body) => Payload::Framed {
                        head,
                        body: body.into(),
                    },
                    Err(_) => return,
                },
            };
            if tx
                .send(Envelope {
                    src: NodeId(src),
                    tag,
                    payload,
                })
                .is_err()
            {
                return; // endpoint dropped
            }
        }
    });
}

impl Transport for TcpEndpoint {
    fn node(&self) -> NodeId {
        self.node
    }

    fn num_nodes(&self) -> usize {
        self.peers.len()
    }

    fn send(&mut self, dst: NodeId, tag: u32, payload: Vec<u8>) -> Result<(), MsgError> {
        self.send_payload(dst, tag, Payload::Inline(payload))
    }

    /// Writev-style send: the frame header, the protocol head, and the
    /// data body go to the socket as back-to-back writes under one stream
    /// lock, so the body is never copied into a frame buffer. The
    /// logical payload is byte-identical to [`Self::send`] of the
    /// concatenation; the header's `head_len` keeps the split, so the
    /// receiver gets the body in a buffer of its own.
    fn send_vectored(
        &mut self,
        dst: NodeId,
        tag: u32,
        head: Vec<u8>,
        body: Bytes,
    ) -> Result<(), MsgError> {
        self.send_payload(dst, tag, Payload::Framed { head, body })
    }

    fn recv_matching(&mut self, spec: MatchSpec) -> Result<Envelope, MsgError> {
        self.mailbox.recv_matching(spec)
    }

    fn try_recv_matching(&mut self, spec: MatchSpec) -> Result<Option<Envelope>, MsgError> {
        self.mailbox.try_recv_matching(spec)
    }

    fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.mailbox.obs.set_recorder(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(n: usize) -> Vec<TcpEndpoint> {
        TcpFabric::localhost(n, Duration::from_secs(10)).expect("localhost fabric")
    }

    #[test]
    fn ping_pong_over_tcp() {
        let mut eps = fabric(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let t = std::thread::spawn(move || {
            let env = b.recv().unwrap();
            assert_eq!(env.src, NodeId(0));
            assert_eq!(env.payload, b"ping");
            b.send(NodeId(0), 2, b"pong".to_vec()).unwrap();
        });
        a.send(NodeId(1), 1, b"ping".to_vec()).unwrap();
        let env = a.recv_matching(MatchSpec::from(NodeId(1), 2)).unwrap();
        assert_eq!(env.payload, b"pong");
        t.join().unwrap();
    }

    #[test]
    fn self_send_over_tcp() {
        let mut eps = fabric(1);
        let ep = &mut eps[0];
        ep.send(NodeId(0), 5, vec![9, 9]).unwrap();
        assert_eq!(ep.recv().unwrap().payload, vec![9, 9]);
    }

    #[test]
    fn pairwise_fifo_and_selective_receive() {
        let mut eps = fabric(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for i in 0..50u8 {
            a.send(NodeId(1), u32::from(i % 2), vec![i]).unwrap();
        }
        // Drain odd tag first; even-tag messages buffer in order.
        let mut odd = Vec::new();
        for _ in 0..25 {
            odd.push(b.recv_matching(MatchSpec::tag(1)).unwrap().payload[0]);
        }
        assert!(odd.windows(2).all(|w| w[0] < w[1]));
        let mut even = Vec::new();
        for _ in 0..25 {
            even.push(b.recv_matching(MatchSpec::tag(0)).unwrap().payload[0]);
        }
        assert!(even.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn large_payload_crosses_intact() {
        let mut eps = fabric(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let payload: Vec<u8> = (0..2_000_000u32).map(|i| (i % 251) as u8).collect();
        let expected = payload.clone();
        a.send(NodeId(1), 3, payload).unwrap();
        let env = b.recv().unwrap();
        assert_eq!(env.payload, expected);
    }

    #[test]
    fn vectored_send_is_wire_identical() {
        let mut eps = fabric(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let body: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut expected = vec![0xaau8, 0xbb];
        expected.extend_from_slice(&body);
        a.send_vectored(NodeId(1), 6, vec![0xaa, 0xbb], Bytes::Owned(body))
            .unwrap();
        let env = b.recv_matching(MatchSpec::tag(6)).unwrap();
        assert_eq!(env.src, NodeId(0));
        // The same logical bytes, still split where the sender split
        // them: the body arrives in a buffer of its own.
        assert_eq!(env.payload, expected);
        match env.payload {
            Payload::Framed { head, body } => {
                assert_eq!(head, [0xaa, 0xbb]);
                assert_eq!(body.len(), 100_000);
            }
            other => panic!("expected a framed arrival, got {other:?}"),
        }
        // A plain send is all head, and arrives inline.
        a.send(NodeId(1), 7, vec![1, 2, 3]).unwrap();
        let env = b.recv_matching(MatchSpec::tag(7)).unwrap();
        assert!(matches!(env.payload, Payload::Inline(ref v) if v == &[1, 2, 3]));
    }

    /// A frame header with both lengths as given.
    fn frame(tag: u32, len: u64, head_len: u32, payload: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&0u64.to_le_bytes());
        f.extend_from_slice(&tag.to_le_bytes());
        f.extend_from_slice(&len.to_le_bytes());
        f.extend_from_slice(&head_len.to_le_bytes());
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn oversized_frame_header_drops_one_connection_only() {
        // A frame longer than any piece, and a head longer than its frame.
        for lie in [frame(9, u64::MAX, 0, &[]), frame(9, 2, 3, b"ab")] {
            a_lying_header_drops_one_connection_only(&lie);
        }
    }

    fn a_lying_header_drops_one_connection_only(lie: &[u8]) {
        // Rank 0 is a raw socket, not an endpoint: it says hello to
        // ranks 1 and 2 like `establish` would, then lies in a frame
        // header on its connection to rank 1.
        let listeners: Vec<TcpListener> = (0..3)
            .map(|_| TcpListener::bind(("127.0.0.1", 0)).unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let mut listeners = listeners.into_iter().skip(1);
        let handles: Vec<_> = (1..3)
            .map(|rank| {
                let listener = listeners.next().unwrap();
                let addrs = addrs.clone();
                std::thread::spawn(move || {
                    TcpEndpoint::establish(rank, listener, &addrs, Duration::from_secs(10))
                })
            })
            .collect();
        let mut raw: Vec<TcpStream> = addrs[1..]
            .iter()
            .map(|addr| {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(&0u64.to_le_bytes()).unwrap();
                s
            })
            .collect();
        let mut eps: Vec<TcpEndpoint> = handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        let mut c = eps.pop().unwrap();
        let mut b = eps.pop().unwrap();

        raw[0].write_all(lie).unwrap();
        // Rank 1's reader shuts the connection instead of allocating:
        // the liar reads EOF (or a reset), never a hang.
        let mut byte = [0u8; 1];
        assert!(matches!(raw[0].read(&mut byte), Ok(0) | Err(_)));

        // Every other connection is untouched: 1 <-> 2 ping-pong, and
        // rank 0's honest connection to rank 2 still delivers.
        let t = std::thread::spawn(move || {
            let env = c.recv_matching(MatchSpec::from(NodeId(1), 1)).unwrap();
            assert_eq!(env.payload, b"ping");
            c.send(NodeId(1), 2, b"pong".to_vec()).unwrap();
            c
        });
        b.send(NodeId(2), 1, b"ping".to_vec()).unwrap();
        let env = b.recv_matching(MatchSpec::from(NodeId(2), 2)).unwrap();
        assert_eq!(env.payload, b"pong");
        let mut c = t.join().unwrap();
        raw[1].write_all(&frame(3, 2, 1, b"ok")).unwrap();
        let env = c.recv_matching(MatchSpec::from(NodeId(0), 3)).unwrap();
        assert_eq!(env.payload, b"ok");
    }

    #[test]
    fn all_pairs_connected() {
        let eps = fabric(4);
        std::thread::scope(|s| {
            for mut ep in eps {
                s.spawn(move || {
                    let me = ep.node();
                    for peer in 0..4 {
                        ep.send(NodeId(peer), 7, vec![me.index() as u8]).unwrap();
                    }
                    let mut seen = [false; 4];
                    for _ in 0..4 {
                        let env = ep.recv_matching(MatchSpec::tag(7)).unwrap();
                        seen[env.src.index()] = true;
                    }
                    assert!(seen.iter().all(|&x| x));
                });
            }
        });
    }
}
