//! Layer ceilings: what each layer does *alone* on this workload's own
//! pieces, message sizes and write sizes, through the layer's public
//! functions. An end-to-end rate is then read as a fraction of these,
//! in the same run on the same machine.
//!
//! Every ceiling has the deployment's shape: one thread per I/O node,
//! each moving its node's share of one operation through the layer, all
//! at once. The whole machine works for one layer, so a ceiling is an
//! upper bound on what the runtime, which needs every layer at once,
//! can reach.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use panda_core::protocol::{ArrayOp, Msg};
use panda_core::{CollectiveSchedule, IoPool, OpKind, ScheduleStep};
use panda_fs::{FileHandle, FileSystem, FsError, SyncPolicy};
use panda_msg::{Bytes, MatchSpec, MsgError, NodeId};
use panda_schema::copy::pack_region_into;
use panda_schema::{unpack_region, SchemaError};

use crate::stats::median;
use crate::workloads::{Workload, IO_WORKERS, PIPELINE_DEPTH, SERVERS, SUBCHUNK_BYTES};

const GB: f64 = 1e9;
/// A timing sample repeats its pass until it has run this long.
const SAMPLE_MIN: Duration = Duration::from_millis(5);
const SAMPLES: usize = 7;
/// Bytes one transport-stream sample moves, and the bounds on the
/// number of messages that takes.
const STREAM_BYTES: usize = 64 << 20;
const STREAM_MSGS: (usize, usize) = (64, 20_000);
const ROUND_TRIPS: usize = 2000;

#[derive(Debug, Clone, Default)]
pub struct Ceilings {
    pub memcpy_gb_s: f64,
    pub pack_gb_s: f64,
    pub unpack_gb_s: f64,
    pub pack_par_gb_s: f64,
    pub plan_build_us: f64,
    pub plan_steps: u64,
    pub plan_pieces: u64,
    pub codec_ns: f64,
    pub stream_gb_s: f64,
    pub rtt_us: f64,
    pub fs_write_gb_s: f64,
    pub fs_read_gb_s: f64,
    pub fs_sync_ms: f64,
}

/// Median seconds per pass, a pass being every share run once, each on
/// a thread of its own; or the first error a share returned.
fn time_shares<E, F>(shares: &mut [F]) -> Result<f64, E>
where
    E: Send,
    F: FnMut() -> Result<(), E> + Send,
{
    let mut run = |reps: u32| -> Result<f64, E> {
        let t = Instant::now();
        std::thread::scope(|s| {
            let joins: Vec<_> = shares
                .iter_mut()
                .map(|share| s.spawn(move || (0..reps).try_for_each(|_| share())))
                .collect();
            joins
                .into_iter()
                .try_for_each(|j| j.join().expect("ceiling thread panicked"))
        })?;
        Ok(t.elapsed().as_secs_f64() / reps as f64)
    };
    run(1)?;
    // A lone pass is mostly thread start-up when the work is small:
    // then repeat it until start-up is noise.
    let reps = (SAMPLE_MIN.as_secs_f64() / run(1)?).ceil().clamp(1.0, 1e6) as u32;
    let reps = if reps > 1 { reps * 4 } else { 1 };
    let samples = (0..SAMPLES)
        .map(|_| run(reps))
        .collect::<Result<Vec<_>, E>>()?;
    Ok(median(&samples))
}

/// The array operations of one collective of `w`.
fn array_ops(w: Workload) -> Vec<ArrayOp> {
    w.arrays(0)
        .into_iter()
        .enumerate()
        .map(|(idx, meta)| ArrayOp {
            meta,
            file_tag: w.file_tag(0, idx),
            section: None,
        })
        .collect()
}

fn schedule(w: Workload, ops: &[ArrayOp], server: usize) -> CollectiveSchedule {
    CollectiveSchedule::build(
        ops,
        OpKind::Write,
        server,
        SERVERS,
        SUBCHUNK_BYTES,
        w.sync_policy(),
    )
}

/// One I/O node's share of the copy kernels: its steps, a source that
/// streams from a buffer far larger than a core's L2 (as a client's
/// chunk, or a subchunk fresh from disk, does), and reused
/// subchunk-sized destinations (as the server's window buffers are).
struct NodeCopy<'a> {
    steps: &'a [ScheduleStep],
    src: Vec<u8>,
    at: usize,
    sub_buf: Vec<u8>,
    out: Vec<u8>,
    pool: IoPool,
}

impl<'a> NodeCopy<'a> {
    fn new(plan: &'a CollectiveSchedule) -> Self {
        NodeCopy {
            steps: &plan.steps,
            src: vec![0x5A; (plan.total_bytes() as usize).max(2 * SUBCHUNK_BYTES)],
            at: 0,
            sub_buf: vec![0; SUBCHUNK_BYTES],
            out: Vec::with_capacity(SUBCHUNK_BYTES),
            pool: IoPool::new(IO_WORKERS),
        }
    }

    /// The next `len` bytes of the streaming source.
    fn next(&mut self, len: usize) -> Range<usize> {
        if self.at + len > self.src.len() {
            self.at = 0;
        }
        self.at += len;
        self.at - len..self.at
    }

    /// Plain `copy_from_slice` of the node's bytes: the machine's
    /// roofline, the denominator of every other kernel.
    fn memcpy(&mut self) -> Result<(), SchemaError> {
        for step in self.steps {
            let from = self.next(step.sub.bytes);
            self.sub_buf[..step.sub.bytes].copy_from_slice(&self.src[from]);
            std::hint::black_box(&mut self.sub_buf);
        }
        Ok(())
    }

    /// Server-side gather (read direction): each piece out of its
    /// subchunk, serially or split over the node's worker pool.
    fn pack(&mut self, parallel: bool) -> Result<(), SchemaError> {
        for step in self.steps {
            let sub = self.next(step.sub.bytes);
            let (sub, region) = (&self.src[sub], &step.sub.region);
            for piece in &step.sub.pieces {
                if parallel {
                    self.pool.pack_region_par(
                        &mut self.out,
                        sub,
                        region,
                        &piece.region,
                        step.elem,
                    )?;
                } else {
                    pack_region_into(&mut self.out, sub, region, &piece.region, step.elem)?;
                }
                std::hint::black_box(&mut self.out);
            }
        }
        Ok(())
    }

    /// Server-side scatter (write direction): each piece into its
    /// subchunk.
    fn unpack(&mut self) -> Result<(), SchemaError> {
        for step in self.steps {
            for piece in &step.sub.pieces {
                let data = self.next(piece.region.num_bytes(step.elem));
                unpack_region(
                    &mut self.sub_buf[..step.sub.bytes],
                    &step.sub.region,
                    &piece.region,
                    &self.src[data],
                    step.elem,
                )?;
            }
            std::hint::black_box(&mut self.sub_buf);
        }
        Ok(())
    }
}

pub fn measure(w: Workload, scratch: &Path) -> Result<Ceilings, String> {
    let ops = array_ops(w);
    let plans: Vec<CollectiveSchedule> = (0..SERVERS).map(|s| schedule(w, &ops, s)).collect();
    let steps = || plans.iter().flat_map(|p| &p.steps);
    let user_bytes = w.user_bytes() as f64;
    let mut c = Ceilings {
        plan_steps: steps().count() as u64,
        plan_pieces: steps().map(|s| s.sub.pieces.len() as u64).sum(),
        ..Ceilings::default()
    };
    let never = |e: std::convert::Infallible| match e {};
    let mut builds: Vec<_> = (0..SERVERS)
        .map(|s| {
            let ops = &ops;
            move || {
                std::hint::black_box(schedule(w, std::hint::black_box(ops), s));
                Ok(())
            }
        })
        .collect();
    c.plan_build_us = 1e6 * time_shares(&mut builds).unwrap_or_else(never);

    let mut nodes: Vec<NodeCopy> = plans.iter().map(NodeCopy::new).collect();
    let mut kernel = |run: fn(&mut NodeCopy) -> Result<(), SchemaError>| {
        let mut shares: Vec<_> = nodes.iter_mut().map(|n| move || run(n)).collect();
        time_shares(&mut shares)
            .map(|pass_s| user_bytes / pass_s / GB)
            .map_err(|e| format!("copy kernel on the planner's own piece: {e}"))
    };
    c.memcpy_gb_s = kernel(|n| n.memcpy())?;
    c.pack_gb_s = kernel(|n| n.pack(false))?;
    c.unpack_gb_s = kernel(|n| n.unpack())?;
    c.pack_par_gb_s = kernel(|n| n.pack(true))?;
    drop(nodes);

    // Codec: the Fetch and the Data head of the first piece.
    let first = steps().next().expect("a workload moves data");
    let region = first.sub.pieces[0].region.clone();
    let fetch = Msg::Fetch {
        request: 1 << 32 | 7,
        array: first.array,
        seq: 1,
        region: region.clone(),
    };
    let data = Msg::Data {
        request: 1 << 32 | 7,
        array: first.array,
        seq: 1,
        region,
        payload: Bytes::Owned(Vec::new()),
    };
    let codec = time_shares(&mut [|| {
        for msg in [&fetch, &data] {
            let bytes = std::hint::black_box(msg).encode();
            std::hint::black_box(Msg::decode(msg.tag(), &bytes)?);
        }
        Ok(())
    }]);
    c.codec_ns = 1e9 * codec.map_err(|e: panda_core::PandaError| format!("codec: {e}"))?;

    let piece_bytes = steps()
        .flat_map(|s| s.sub.pieces.iter().map(|p| p.region.num_bytes(s.elem)))
        .max()
        .expect("a workload moves data");
    (c.stream_gb_s, c.rtt_us) =
        transport(w, piece_bytes).map_err(|e| format!("transport ceiling: {e}"))?;
    (c.fs_write_gb_s, c.fs_sync_ms, c.fs_read_gb_s) =
        file_system(w, scratch, &plans).map_err(|e| format!("file-system ceiling: {e}"))?;
    Ok(c)
}

/// One-way streams of `piece_bytes` messages, one client-to-server pair
/// per I/O node at once, and an empty ping-pong on one pair, over the
/// workload's own fabric kind. Returns GB/s and microseconds.
fn transport(w: Workload, piece_bytes: usize) -> Result<(f64, f64), String> {
    let mut eps = w.new_fabric(2 * SERVERS)?;
    let (senders, receivers) = eps.split_at_mut(SERVERS);
    let per_pair = (STREAM_BYTES / piece_bytes).clamp(STREAM_MSGS.0, STREAM_MSGS.1) / SERVERS;
    let body: Arc<[u8]> = vec![0xA5u8; piece_bytes].into();
    let (data, ack, ping) = (3, 4, 5);
    let mut stream = Vec::new();
    for _ in 0..SAMPLES {
        let t = Instant::now();
        std::thread::scope(|s| {
            let mut joins = Vec::new();
            for (i, rx) in receivers.iter_mut().enumerate() {
                joins.push(s.spawn(move || -> Result<(), MsgError> {
                    for _ in 0..per_pair {
                        rx.recv_matching(MatchSpec::tag(data))?;
                    }
                    rx.send(NodeId(i), ack, Vec::new())
                }));
            }
            for (i, tx) in senders.iter_mut().enumerate() {
                let body = &body;
                joins.push(s.spawn(move || -> Result<(), MsgError> {
                    for _ in 0..per_pair {
                        let body = Bytes::Shared(Arc::clone(body));
                        tx.send_vectored(NodeId(SERVERS + i), data, vec![0u8; 32], body)?;
                    }
                    tx.recv_matching(MatchSpec::tag(ack)).map(|_| ())
                }));
            }
            joins
                .into_iter()
                .try_for_each(|j| j.join().expect("stream thread panicked"))
        })
        .map_err(|e| e.to_string())?;
        stream.push((per_pair * SERVERS * piece_bytes) as f64 / t.elapsed().as_secs_f64() / GB);
    }
    let (a, b) = (&mut senders[0], &mut receivers[0]);
    let rtt = std::thread::scope(|s| {
        let echo = s.spawn(move || -> Result<(), MsgError> {
            for _ in 0..ROUND_TRIPS {
                b.recv_matching(MatchSpec::tag(ping))?;
                b.send(NodeId(0), ping, Vec::new())?;
            }
            Ok(())
        });
        let mut rtt = Vec::new();
        for _ in 0..ROUND_TRIPS {
            let t = Instant::now();
            a.send(NodeId(SERVERS), ping, Vec::new())?;
            a.recv_matching(MatchSpec::tag(ping))?;
            rtt.push(t.elapsed().as_secs_f64() * 1e6);
        }
        echo.join().expect("echo thread panicked").map(|()| rtt)
    })
    .map_err(|e: MsgError| e.to_string())?;
    Ok((median(&stream), median(&rtt)))
}

/// A file of the replayed disk stage: writes still to come, and
/// submitted writes whose buffers have not come back.
struct OpenFile {
    handle: Box<dyn FileHandle>,
    left: usize,
    queued: usize,
}

impl OpenFile {
    fn drain(&mut self, spare: &mut Vec<Vec<u8>>, block: bool) -> Result<(), FsError> {
        let done = self.handle.drain_completions(block)?;
        self.queued -= done.len();
        spare.extend(done);
        Ok(())
    }
}

/// One I/O node's replay of the disk stage's calls for one write and
/// one read of the workload: same backend, file sizes, write sizes,
/// window and sync policy, with nothing else running.
struct NodeDisk<'a> {
    fs: Arc<dyn FileSystem>,
    plan: &'a CollectiveSchedule,
    server: usize,
    /// The window's buffers not currently queued.
    spare: Vec<Vec<u8>>,
    /// Write passes so far, and the time they spent in `sync`.
    write_passes: u32,
    syncing: Duration,
}

impl NodeDisk<'_> {
    fn name(&self, file: usize) -> String {
        format!("{}.s{}", self.plan.files[file].tag, self.server)
    }

    fn sync(&mut self, f: &mut OpenFile) -> Result<(), FsError> {
        let t = Instant::now();
        let r = f.handle.sync();
        self.syncing += t.elapsed();
        r
    }

    fn write_pass(&mut self) -> Result<(), FsError> {
        let policy = self.plan.sync_policy;
        self.write_passes += 1;
        let mut files = Vec::new();
        for (i, file) in self.plan.files.iter().enumerate() {
            let mut handle = self.fs.create(&self.name(i))?;
            handle.preallocate(file.bytes)?;
            files.push(OpenFile {
                handle,
                left: file.steps,
                queued: 0,
            });
        }
        for step in &self.plan.steps {
            while self.spare.is_empty() {
                // Every buffer is queued. Steps are file-sequential,
                // so the oldest belongs to the first file with one:
                // wait for it, as the disk stage's window does.
                let oldest = files.iter_mut().find(|f| f.queued > 0);
                oldest
                    .expect("no spare buffer, so one is queued")
                    .drain(&mut self.spare, true)?;
            }
            let mut buf = self.spare.pop().expect("just checked");
            buf.resize(step.sub.bytes, 0xC3);
            let f = &mut files[step.file];
            match f.handle.submit_write(step.sub.file_offset, buf)? {
                Some(buf) => self.spare.push(buf),
                None => f.queued += 1,
            }
            f.drain(&mut self.spare, false)?;
            f.left -= 1;
            if f.left == 0 && policy == SyncPolicy::PerFile {
                self.sync(f)?;
                f.drain(&mut self.spare, false)?;
            }
        }
        for f in &mut files {
            if policy == SyncPolicy::PerCollective {
                self.sync(f)?;
            }
            while f.queued > 0 {
                f.drain(&mut self.spare, true)?;
            }
        }
        Ok(())
    }

    fn read_pass(&mut self) -> Result<(), FsError> {
        let mut files = Vec::new();
        for i in 0..self.plan.files.len() {
            files.push(self.fs.open(&self.name(i))?);
        }
        let buf = &mut self.spare[0];
        for step in &self.plan.steps {
            buf.resize(step.sub.bytes, 0);
            files[step.file].read_at(step.sub.file_offset, buf)?;
            std::hint::black_box(&mut *buf);
        }
        Ok(())
    }
}

/// Returns write GB/s (syncs included), the milliseconds of a write
/// pass an I/O node spends in `sync`, and read GB/s. The first write
/// pass creates the files and is not timed: in the deployment they
/// exist after warm-up, and every later write truncates and refills
/// them.
fn file_system(
    w: Workload,
    scratch: &Path,
    plans: &[CollectiveSchedule],
) -> Result<(f64, f64, f64), String> {
    let root = scratch.join("ceiling");
    let mut nodes = Vec::new();
    for (server, plan) in plans.iter().enumerate() {
        nodes.push(NodeDisk {
            fs: w.new_backend(&root, server)?,
            plan,
            server,
            spare: vec![vec![0xC3; SUBCHUNK_BYTES]; PIPELINE_DEPTH + 1],
            write_passes: 0,
            syncing: Duration::ZERO,
        });
    }
    let mut pass = |run: fn(&mut NodeDisk) -> Result<(), FsError>| {
        let mut shares: Vec<_> = nodes.iter_mut().map(|n| move || run(n)).collect();
        time_shares(&mut shares).map_err(|e| e.to_string())
    };
    let (write_s, read_s) = (pass(|n| n.write_pass())?, pass(|n| n.read_pass())?);
    let sync_ms: Vec<f64> = nodes
        .iter()
        .map(|n| n.syncing.as_secs_f64() * 1e3 / n.write_passes as f64)
        .collect();
    let bytes = w.user_bytes() as f64;
    Ok((bytes / write_s / GB, median(&sync_ms), bytes / read_s / GB))
}
