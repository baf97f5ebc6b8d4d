//! Tracing from outside the program: `TimedTransport` and `TimedFs`
//! wrap the runtime's two public seams (`panda_msg::Transport`,
//! `panda_fs::FileSystem`/`FileHandle`) and record one span per call.
//!
//! The wrappers forward *every* trait method, the defaulted ones too
//! (`send_vectored`, `recv`, `try_recv_matching`, `set_recorder`,
//! `submit_write`, `drain_completions`, `preallocate`, `is_empty`,
//! `stats`): a wrapper that let a default run would turn a vectored
//! send into a concatenating one, or an asynchronous submit into a
//! synchronous write, and the traced run would measure another program.
//!
//! Each wrapper owns its span vector (a transport endpoint and a file
//! handle are each driven by one thread at a time), and hands it to the
//! shared [`Tracer`] when it is dropped; nothing is written out until
//! the run has ended.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use panda_fs::{FileHandle, FileSystem, FsError, IoStats};
use panda_msg::{Bytes, Envelope, MatchSpec, MsgError, NodeId, Transport};
use panda_obs::Recorder;

use crate::json::Json;

/// Most client ranks any workload uses.
pub const MAX_CLIENTS: usize = 8;

/// Which seam a span was recorded at; also its row in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// An operation as the caller saw it (recorded by the load
    /// generator, the root of the spans it caused).
    Op,
    Msg,
    Fs,
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub lane: Lane,
    /// Fabric rank of the node the call ran on.
    pub node: u32,
    /// Nanoseconds since the tracer was made.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The operation in flight when the call was made: the span that
    /// caused this one. Even ids are writes, odd ids reads.
    pub cause: u64,
    /// Payload bytes the call moved (0 when it moves none).
    pub bytes: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Operation id for the `seq`-th operation of a load generator.
pub fn op_id(seq: u64, is_read: bool) -> u64 {
    seq << 1 | is_read as u64
}

pub fn op_is_read(id: u64) -> bool {
    id & 1 == 1
}

/// Where spans end up, and how a wrapper learns the operation in
/// flight: each load-generator thread publishes its current operation
/// id under its client rank, and a wrapper reads the id of the client
/// its call concerns.
pub struct Tracer {
    t0: Instant,
    num_clients: usize,
    /// Wrappers forward without timing until the tracer is armed, so
    /// warm-up and the final sealing write leave no spans.
    armed: AtomicBool,
    in_flight: [AtomicU64; MAX_CLIENTS],
    done: Mutex<Vec<Span>>,
    polls: AtomicU64,
    poll_hits: AtomicU64,
}

impl Tracer {
    pub fn new(num_clients: usize) -> Arc<Tracer> {
        assert!(num_clients <= MAX_CLIENTS);
        Arc::new(Tracer {
            t0: Instant::now(),
            num_clients,
            armed: AtomicBool::new(false),
            in_flight: Default::default(),
            done: Mutex::new(Vec::new()),
            polls: AtomicU64::new(0),
            poll_hits: AtomicU64::new(0),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Publish `id` as the operation client `rank` is now in.
    /// `Relaxed`: the id labels spans, it guards no other data.
    pub fn begin_op(&self, rank: usize, id: u64) {
        self.in_flight[rank].store(id, Ordering::Relaxed);
    }

    /// The span of operation `id` itself, as client `rank` saw it: call
    /// when the operation has just completed.
    pub fn op_span(&self, rank: usize, id: u64, start_ns: u64, bytes: u64) -> Span {
        Span {
            name: if op_is_read(id) {
                "op.read"
            } else {
                "op.write"
            },
            lane: Lane::Op,
            node: rank as u32,
            start_ns,
            end_ns: self.now_ns(),
            cause: id,
            bytes,
        }
    }

    /// Start (or stop) recording. `SeqCst`, and called only between
    /// phases, when no operation is in flight.
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::SeqCst);
    }

    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// The operation a call concerning fabric rank `peer` belongs to:
    /// the peer's own when it is a client, else `fallback`.
    fn cause_of(&self, peer: usize, fallback: u64) -> u64 {
        if peer < self.num_clients {
            self.in_flight[peer].load(Ordering::Relaxed)
        } else {
            fallback
        }
    }

    fn lock_done(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.done.lock().expect("a tracer user panicked mid-push")
    }

    /// Hand over a thread's finished spans.
    pub fn absorb(&self, spans: &mut Vec<Span>) {
        if !spans.is_empty() {
            self.lock_done().append(spans);
        }
    }

    /// Every span handed in so far, ordered by start time. Call after
    /// the deployment has shut down, so that every wrapper has dropped.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.lock_done());
        spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        spans
    }

    /// `try_recv_matching` calls on server endpoints, and how many of
    /// them returned a message.
    pub fn polls(&self) -> (u64, u64) {
        (
            self.polls.load(Ordering::Relaxed),
            self.poll_hits.load(Ordering::Relaxed),
        )
    }
}

/// A `Transport` that times every call of the endpoint it wraps.
pub struct TimedTransport {
    inner: Box<dyn Transport>,
    tracer: Arc<Tracer>,
    node: u32,
    is_server: bool,
    spans: Vec<Span>,
    /// Cause of the last call that named a client: server-to-server
    /// traffic belongs to the same operation.
    last_cause: u64,
    polls: u64,
    poll_hits: u64,
}

impl TimedTransport {
    pub fn wrap(inner: Box<dyn Transport>, tracer: Arc<Tracer>) -> Box<dyn Transport> {
        let node = inner.node().index();
        Box::new(TimedTransport {
            is_server: node >= tracer.num_clients,
            node: node as u32,
            inner,
            tracer,
            spans: Vec::new(),
            last_cause: 0,
            polls: 0,
            poll_hits: 0,
        })
    }

    fn push(&mut self, name: &'static str, start_ns: u64, peer: usize, bytes: usize) {
        self.last_cause = self.tracer.cause_of(peer, self.last_cause);
        self.spans.push(Span {
            name,
            lane: Lane::Msg,
            node: self.node,
            start_ns,
            end_ns: self.tracer.now_ns(),
            cause: self.last_cause,
            bytes: bytes as u64,
        });
    }
}

impl Transport for TimedTransport {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn send(&mut self, dst: NodeId, tag: u32, payload: Vec<u8>) -> Result<(), MsgError> {
        if !self.tracer.armed() {
            return self.inner.send(dst, tag, payload);
        }
        let (t, len) = (self.tracer.now_ns(), payload.len());
        let r = self.inner.send(dst, tag, payload);
        self.push("msg.send", t, dst.index(), len);
        r
    }

    fn send_vectored(
        &mut self,
        dst: NodeId,
        tag: u32,
        head: Vec<u8>,
        body: Bytes,
    ) -> Result<(), MsgError> {
        if !self.tracer.armed() {
            return self.inner.send_vectored(dst, tag, head, body);
        }
        let (t, len) = (self.tracer.now_ns(), head.len() + body.len());
        let r = self.inner.send_vectored(dst, tag, head, body);
        self.push("msg.send_vectored", t, dst.index(), len);
        r
    }

    fn recv_matching(&mut self, spec: MatchSpec) -> Result<Envelope, MsgError> {
        if !self.tracer.armed() {
            return self.inner.recv_matching(spec);
        }
        let t = self.tracer.now_ns();
        let env = self.inner.recv_matching(spec)?;
        self.push("msg.recv_wait", t, env.src.index(), env.payload.len());
        Ok(env)
    }

    fn recv(&mut self) -> Result<Envelope, MsgError> {
        if !self.tracer.armed() {
            return self.inner.recv();
        }
        let t = self.tracer.now_ns();
        let env = self.inner.recv()?;
        self.push("msg.recv_wait", t, env.src.index(), env.payload.len());
        Ok(env)
    }

    /// Polls are counted, not timed: the scheduler spins on this call,
    /// and two clock reads per spin would be most of its cost. A hit is
    /// recorded as an instant.
    fn try_recv_matching(&mut self, spec: MatchSpec) -> Result<Option<Envelope>, MsgError> {
        if !self.tracer.armed() {
            return self.inner.try_recv_matching(spec);
        }
        self.polls += 1;
        let got = self.inner.try_recv_matching(spec)?;
        if let Some(env) = &got {
            self.poll_hits += 1;
            let t = self.tracer.now_ns();
            self.push("msg.poll_hit", t, env.src.index(), env.payload.len());
        }
        Ok(got)
    }

    fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.inner.set_recorder(recorder);
    }
}

impl Drop for TimedTransport {
    fn drop(&mut self) {
        self.tracer.absorb(&mut self.spans);
        if self.is_server {
            self.tracer.polls.fetch_add(self.polls, Ordering::Relaxed);
            self.tracer
                .poll_hits
                .fetch_add(self.poll_hits, Ordering::Relaxed);
        }
    }
}

/// A `FileSystem` that times every call of the backend it wraps, and
/// of every handle the backend opens.
pub struct TimedFs {
    inner: Arc<dyn FileSystem>,
    tracer: Arc<Tracer>,
    node: u32,
    /// Which client's operation a file belongs to, from its path
    /// (workloads whose clients all share one operation return 0).
    owner_of: fn(&str) -> usize,
}

impl TimedFs {
    pub fn wrap(
        inner: Arc<dyn FileSystem>,
        tracer: Arc<Tracer>,
        node: u32,
        owner_of: fn(&str) -> usize,
    ) -> Arc<dyn FileSystem> {
        Arc::new(TimedFs {
            inner,
            tracer,
            node,
            owner_of,
        })
    }

    fn handle(
        &self,
        name: &'static str,
        path: &str,
        open: impl FnOnce() -> Result<Box<dyn FileHandle>, FsError>,
    ) -> Result<Box<dyn FileHandle>, FsError> {
        let t = self.tracer.now_ns();
        let inner = open()?;
        let mut file = TimedFile {
            inner: Some(inner),
            tracer: Arc::clone(&self.tracer),
            node: self.node,
            owner: (self.owner_of)(path),
            spans: Vec::new(),
        };
        file.push(name, t, 0);
        Ok(Box::new(file))
    }
}

impl FileSystem for TimedFs {
    fn create(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        self.handle("fs.create", path, || self.inner.create(path))
    }

    fn open(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
        self.handle("fs.open", path, || self.inner.open(path))
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

    fn set_recorder(&self, recorder: Arc<dyn Recorder>, node: u32) {
        self.inner.set_recorder(recorder, node);
    }
}

struct TimedFile {
    /// `None` only while the handle is being dropped.
    inner: Option<Box<dyn FileHandle>>,
    tracer: Arc<Tracer>,
    node: u32,
    owner: usize,
    spans: Vec<Span>,
}

impl TimedFile {
    fn push(&mut self, name: &'static str, start_ns: u64, bytes: usize) {
        if !self.tracer.armed() {
            return;
        }
        self.spans.push(Span {
            name,
            lane: Lane::Fs,
            node: self.node,
            start_ns,
            end_ns: self.tracer.now_ns(),
            cause: self.tracer.cause_of(self.owner, 0),
            bytes: bytes as u64,
        });
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        bytes: usize,
        call: impl FnOnce(&mut dyn FileHandle) -> T,
    ) -> T {
        let t = if self.tracer.armed() {
            self.tracer.now_ns()
        } else {
            0
        };
        let r = call(self.inner.as_deref_mut().expect("handle is open"));
        self.push(name, t, bytes);
        r
    }
}

impl FileHandle for TimedFile {
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), FsError> {
        self.timed("fs.write", data.len(), |h| h.write_at(offset, data))
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), FsError> {
        self.timed("fs.read", buf.len(), |h| h.read_at(offset, buf))
    }

    fn len(&self) -> u64 {
        self.inner.as_deref().expect("handle is open").len()
    }

    fn is_empty(&self) -> bool {
        self.inner.as_deref().expect("handle is open").is_empty()
    }

    fn sync(&mut self) -> Result<(), FsError> {
        self.timed("fs.sync", 0, |h| h.sync())
    }

    fn submit_write(&mut self, offset: u64, data: Vec<u8>) -> Result<Option<Vec<u8>>, FsError> {
        self.timed("fs.submit", data.len(), |h| h.submit_write(offset, data))
    }

    fn drain_completions(&mut self, block: bool) -> Result<Vec<Vec<u8>>, FsError> {
        self.timed("fs.drain", 0, |h| h.drain_completions(block))
    }

    fn preallocate(&mut self, len: u64) -> Result<(), FsError> {
        self.timed("fs.preallocate", 0, |h| h.preallocate(len))
    }
}

impl Drop for TimedFile {
    fn drop(&mut self) {
        // Closing the backend's handle can wait for queued writes, so
        // it is a call like any other.
        let t = self.tracer.now_ns();
        self.inner = None;
        self.push("fs.close", t, 0);
        self.tracer.absorb(&mut self.spans);
    }
}

/// Time covered by at least one of `intervals` (half-open, ns), each
/// clipped to `[lo, hi)`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// What the spans say, summed over the traced window.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    /// Calls, bytes and busy seconds by span name.
    pub by_name: HashMap<&'static str, (u64, u64, f64)>,
    /// Per direction (`[write, read]`): the operations' own time, and
    /// the part of it during which a server had no span open — the
    /// runtime's self time, averaged over the servers.
    pub op_s: [f64; 2],
    pub self_s: [f64; 2],
    /// Operations per direction.
    pub ops: [u64; 2],
    /// Seconds the I/O nodes spent blocked in a receive: waiting for
    /// the clients.
    pub server_recv_wait_s: f64,
}

impl SpanTotals {
    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |t| t.0)
    }
    pub fn bytes(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |t| t.1)
    }
    pub fn busy_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| t.2)
    }
}

/// Fold spans into totals. An operation's interval runs from the
/// earliest start to the latest end of the `Op` spans sharing its id
/// (the clients of one collective); a server's spans count towards the
/// operation that caused them, clipped to that interval.
pub fn summarize(spans: &[Span], num_clients: usize, num_servers: usize) -> SpanTotals {
    let mut totals = SpanTotals::default();
    let mut ops: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut children: HashMap<u64, Vec<Vec<(u64, u64)>>> = HashMap::new();
    for s in spans {
        match s.lane {
            Lane::Op => {
                let e = ops.entry(s.cause).or_insert((s.start_ns, s.end_ns));
                *e = (e.0.min(s.start_ns), e.1.max(s.end_ns));
            }
            Lane::Msg | Lane::Fs => {
                let t = totals.by_name.entry(s.name).or_insert((0, 0, 0.0));
                *t = (t.0 + 1, t.1 + s.bytes, t.2 + s.dur_s());
                if let Some(server) = (s.node as usize).checked_sub(num_clients) {
                    if s.name == "msg.recv_wait" {
                        totals.server_recv_wait_s += s.dur_s();
                    }
                    children
                        .entry(s.cause)
                        .or_insert_with(|| vec![Vec::new(); num_servers])[server]
                        .push((s.start_ns, s.end_ns));
                }
            }
        }
    }
    for (id, (lo, hi)) in ops {
        let dir = op_is_read(id) as usize;
        let op_ns = hi - lo;
        let covered: u64 = children
            .get_mut(&id)
            .map(|servers| servers.iter_mut().map(|iv| covered_ns(iv, lo, hi)).sum())
            .unwrap_or(0);
        totals.ops[dir] += 1;
        totals.op_s[dir] += op_ns as f64 * 1e-9;
        totals.self_s[dir] += (op_ns as f64 - covered as f64 / num_servers as f64) * 1e-9;
    }
    totals
}

/// Chrome `trace_event` JSON (load it in `chrome://tracing` or
/// Perfetto): one process, one row per (node, seam), one complete
/// event per span with its cause and bytes as arguments.
pub fn chrome_trace(spans: &[Span], num_clients: usize) -> String {
    let tid = |s: &Span| s.node as u64 * 4 + s.lane as u64;
    let rows: BTreeMap<u64, String> = spans
        .iter()
        .map(|s| (tid(s), (s.node as usize, s.lane)))
        .collect::<BTreeMap<_, _>>()
        .into_iter()
        .map(|(tid, (node, lane))| {
            let role = match node.checked_sub(num_clients) {
                None => format!("client {node}"),
                Some(server) => format!("ionode {server}"),
            };
            (tid, format!("{role} {lane:?}").to_lowercase())
        })
        .collect();
    let mut out = String::from("{\"traceEvents\": [\n");
    for (tid, name) in &rows {
        let meta = Json::obj()
            .set("name", "thread_name")
            .set("ph", "M")
            .set("pid", 1u64)
            .set("tid", *tid)
            .set("args", Json::obj().set("name", name.as_str()));
        out.push_str(&format!("{meta},\n"));
    }
    for (i, s) in spans.iter().enumerate() {
        let event = Json::obj()
            .set("name", s.name)
            .set("cat", format!("{:?}", s.lane).to_lowercase())
            .set("ph", "X")
            .set("ts", s.start_ns as f64 / 1e3)
            .set("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
            .set("pid", 1u64)
            .set("tid", tid(s))
            .set(
                "args",
                Json::obj().set("cause", s.cause).set("bytes", s.bytes),
            );
        let sep = if i + 1 == spans.len() { "\n" } else { ",\n" };
        out.push_str(&format!("{event}{sep}"));
    }
    out.push_str("], \"displayTimeUnit\": \"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_msg::Payload;

    /// An endpoint that records which of its methods ran.
    struct FakeEndpoint(Arc<Mutex<Vec<&'static str>>>);

    impl FakeEndpoint {
        fn note(&self, call: &'static str) {
            self.0.lock().unwrap().push(call);
        }
        fn envelope() -> Envelope {
            Envelope {
                src: NodeId(0),
                tag: 9,
                payload: Payload::Inline(vec![1, 2, 3]),
            }
        }
    }

    impl Transport for FakeEndpoint {
        fn node(&self) -> NodeId {
            NodeId(2)
        }
        fn num_nodes(&self) -> usize {
            4
        }
        fn send(&mut self, _: NodeId, _: u32, _: Vec<u8>) -> Result<(), MsgError> {
            self.note("send");
            Ok(())
        }
        fn send_vectored(
            &mut self,
            _: NodeId,
            _: u32,
            _: Vec<u8>,
            _: Bytes,
        ) -> Result<(), MsgError> {
            self.note("send_vectored");
            Ok(())
        }
        fn recv_matching(&mut self, _: MatchSpec) -> Result<Envelope, MsgError> {
            self.note("recv_matching");
            Ok(Self::envelope())
        }
        fn recv(&mut self) -> Result<Envelope, MsgError> {
            self.note("recv");
            Ok(Self::envelope())
        }
        fn try_recv_matching(&mut self, _: MatchSpec) -> Result<Option<Envelope>, MsgError> {
            self.note("try_recv_matching");
            Ok(None)
        }
        fn set_recorder(&mut self, _: Arc<dyn Recorder>) {
            self.note("set_recorder");
        }
    }

    #[test]
    fn transport_wrapper_forwards_every_method_to_its_namesake() {
        for armed in [false, true] {
            let calls = Arc::new(Mutex::new(Vec::new()));
            let tracer = Tracer::new(2);
            tracer.arm(armed);
            let mut t = TimedTransport::wrap(Box::new(FakeEndpoint(calls.clone())), tracer.clone());
            assert_eq!((t.node(), t.num_nodes()), (NodeId(2), 4));
            t.send(NodeId(0), 1, vec![0; 4]).unwrap();
            // A vectored send must stay vectored: the trait's default
            // would concatenate head and body and call `send`.
            t.send_vectored(NodeId(0), 1, vec![0; 4], Bytes::Owned(vec![0; 8]))
                .unwrap();
            t.recv_matching(MatchSpec::any()).unwrap();
            t.recv().unwrap();
            assert!(t.try_recv_matching(MatchSpec::any()).unwrap().is_none());
            t.set_recorder(panda_obs::null_recorder());
            assert_eq!(
                *calls.lock().unwrap(),
                [
                    "send",
                    "send_vectored",
                    "recv_matching",
                    "recv",
                    "try_recv_matching",
                    "set_recorder"
                ]
            );
            drop(t);
            let spans = tracer.take_spans();
            if armed {
                let names: Vec<_> = spans.iter().map(|s| s.name).collect();
                assert_eq!(
                    names,
                    [
                        "msg.send",
                        "msg.send_vectored",
                        "msg.recv_wait",
                        "msg.recv_wait"
                    ]
                );
                assert_eq!(spans[1].bytes, 12);
                assert_eq!(tracer.polls(), (1, 0));
            } else {
                assert!(spans.is_empty());
                assert_eq!(tracer.polls(), (0, 0));
            }
        }
    }

    /// A backend whose handles queue every submitted write until the
    /// next `sync`, and record which of their methods ran.
    struct FakeFs(Arc<Mutex<Vec<&'static str>>>);

    struct FakeFile {
        calls: Arc<Mutex<Vec<&'static str>>>,
        queued: Vec<Vec<u8>>,
        done: Vec<Vec<u8>>,
    }

    impl FileSystem for FakeFs {
        fn create(&self, _: &str) -> Result<Box<dyn FileHandle>, FsError> {
            self.0.lock().unwrap().push("create");
            Ok(Box::new(FakeFile {
                calls: self.0.clone(),
                queued: Vec::new(),
                done: Vec::new(),
            }))
        }
        fn open(&self, path: &str) -> Result<Box<dyn FileHandle>, FsError> {
            self.0.lock().unwrap().push("open");
            Err(FsError::NotFound {
                path: path.to_string(),
            })
        }
        fn exists(&self, _: &str) -> bool {
            true
        }
        fn remove(&self, _: &str) -> Result<(), FsError> {
            Ok(())
        }
        fn list(&self) -> Vec<String> {
            vec!["f".to_string()]
        }
        fn stats(&self) -> Arc<IoStats> {
            Arc::new(IoStats::new())
        }
        fn set_recorder(&self, _: Arc<dyn Recorder>, _: u32) {
            self.0.lock().unwrap().push("fs.set_recorder");
        }
    }

    impl FileHandle for FakeFile {
        fn write_at(&mut self, _: u64, _: &[u8]) -> Result<(), FsError> {
            self.calls.lock().unwrap().push("write_at");
            Ok(())
        }
        fn read_at(&mut self, _: u64, _: &mut [u8]) -> Result<(), FsError> {
            self.calls.lock().unwrap().push("read_at");
            Ok(())
        }
        fn len(&self) -> u64 {
            7
        }
        fn is_empty(&self) -> bool {
            self.calls.lock().unwrap().push("is_empty");
            false
        }
        fn sync(&mut self) -> Result<(), FsError> {
            self.calls.lock().unwrap().push("sync");
            self.done.append(&mut self.queued);
            Ok(())
        }
        fn submit_write(&mut self, _: u64, data: Vec<u8>) -> Result<Option<Vec<u8>>, FsError> {
            self.calls.lock().unwrap().push("submit_write");
            self.queued.push(data);
            Ok(None)
        }
        fn drain_completions(&mut self, _: bool) -> Result<Vec<Vec<u8>>, FsError> {
            self.calls.lock().unwrap().push("drain_completions");
            Ok(std::mem::take(&mut self.done))
        }
        fn preallocate(&mut self, _: u64) -> Result<(), FsError> {
            self.calls.lock().unwrap().push("preallocate");
            Ok(())
        }
    }

    #[test]
    fn file_wrapper_forwards_every_method_and_returns_every_submitted_buffer() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let tracer = Tracer::new(2);
        tracer.arm(true);
        let fs = TimedFs::wrap(Arc::new(FakeFs(calls.clone())), tracer.clone(), 3, |_| 1);
        tracer.begin_op(1, op_id(5, false));
        fs.set_recorder(panda_obs::null_recorder(), 3);
        assert!(fs.exists("f") && fs.list() == ["f"] && fs.remove("f").is_ok());
        assert!(fs.open("f").is_err());
        let mut h = fs.create("f").unwrap();
        h.preallocate(64).unwrap();
        // Through the trait's defaults these would be synchronous
        // `write_at`s and nothing would ever be queued.
        for i in 0..3 {
            assert!(h.submit_write(i * 8, vec![i as u8; 8]).unwrap().is_none());
        }
        assert!(h.drain_completions(false).unwrap().is_empty());
        h.sync().unwrap();
        let back = h.drain_completions(true).unwrap();
        assert_eq!(back, [vec![0u8; 8], vec![1; 8], vec![2; 8]]);
        h.write_at(0, &[1]).unwrap();
        h.read_at(0, &mut [0]).unwrap();
        assert_eq!((h.len(), h.is_empty()), (7, false));
        drop(h);
        assert_eq!(
            *calls.lock().unwrap(),
            [
                "fs.set_recorder",
                "open",
                "create",
                "preallocate",
                "submit_write",
                "submit_write",
                "submit_write",
                "drain_completions",
                "sync",
                "drain_completions",
                "write_at",
                "read_at",
                "is_empty"
            ]
        );
        let spans = tracer.take_spans();
        let submits: Vec<_> = spans.iter().filter(|s| s.name == "fs.submit").collect();
        assert_eq!(submits.len(), 3);
        // Node, bytes and the owner's operation in flight are recorded.
        assert!(submits
            .iter()
            .all(|s| (s.node, s.bytes, s.cause) == (3, 8, op_id(5, false))));
        assert_eq!(spans.last().unwrap().name, "fs.close");
    }

    #[test]
    fn covered_time_is_the_union_clipped_to_the_operation() {
        let mut iv = vec![(5, 15), (10, 20), (30, 40), (90, 200)];
        // [10,20) from the first two, [30,40), [90,100).
        assert_eq!(covered_ns(&mut iv, 10, 100), 10 + 10 + 10);
        assert_eq!(covered_ns(&mut [], 0, 10), 0);
        assert_eq!(covered_ns(&mut [(0, 100)], 20, 30), 10);
    }

    fn span(name: &'static str, lane: Lane, node: u32, se: (u64, u64), cause: u64) -> Span {
        Span {
            name,
            lane,
            node,
            start_ns: se.0,
            end_ns: se.1,
            cause,
            bytes: 8,
        }
    }

    #[test]
    fn self_time_is_the_operation_minus_what_its_children_cover() {
        // One write (id 2) seen by two clients over [0, 1000) ns; one
        // server (rank 2) is covered for 600 ns, the other for 200 ns.
        let spans = vec![
            span("op.write", Lane::Op, 0, (0, 900), 2),
            span("op.write", Lane::Op, 1, (100, 1000), 2),
            span("fs.write", Lane::Fs, 2, (0, 400), 2),
            span("msg.recv_wait", Lane::Msg, 2, (300, 600), 2),
            span("fs.write", Lane::Fs, 3, (800, 1200), 2),
            // A client-side span counts in the totals, not as cover.
            span("msg.send", Lane::Msg, 0, (0, 1000), 2),
            // Another operation's span covers nothing of this one.
            span("fs.read", Lane::Fs, 2, (0, 1000), 5),
        ];
        let t = summarize(&spans, 2, 2);
        assert_eq!(t.calls("fs.write"), 2);
        assert_eq!(t.bytes("fs.write"), 16);
        assert!((t.op_s[0] - 1000e-9).abs() < 1e-15);
        assert!((t.self_s[0] - 600e-9).abs() < 1e-15, "{}", t.self_s[0]);
        assert_eq!(t.op_s[1], 0.0);
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let spans = vec![
            span("op.write", Lane::Op, 0, (0, 900), 2),
            span("fs.write", Lane::Fs, 2, (10, 400), 2),
        ];
        let parsed = Json::parse(&chrome_trace(&spans, 2)).unwrap();
        let events = parsed.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 2 + 2);
        let last = events.last().unwrap();
        assert_eq!(last.get("name").unwrap().as_str(), Some("fs.write"));
        assert_eq!(last.get("dur").unwrap().as_f64(), Some(0.39));
        assert_eq!(
            last.get("args").unwrap().get("cause").unwrap().as_f64(),
            Some(2.0)
        );
    }
}
