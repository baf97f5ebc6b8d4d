//! The DES: the virtual-time scheduler over the protocol's one
//! composition, [`panda_core::mesh`].
//!
//! Each application is a program of one collective in a mesh — the same
//! admission, windows and participants, over the same per-pair FIFO
//! queues and per-server FIFO disks, that the test walker drives through
//! every interleaving — and each server's plan is the very
//! [`CollectiveSchedule`] the real server executes
//! ([`CollectiveSpec::schedule`]). So the model cannot disagree with the
//! runtime about what happens or when a step may start, only about how
//! long things take. The DES pops the next due move from a timed queue,
//! applies it to the mesh and charges what the move emitted against the
//! calibrated [`Sp2Machine`]'s serial resources (a port per compute
//! node, a port and a disk per I/O node); each charge is due as a move
//! at the virtual time its work ends:
//!
//! | emitted | charge |
//! |---|---|
//! | a submission | `startup` (request propagation and plan formation, §3: ≈ 13 ms); the master's relay 0 |
//! | a `Fetch` or `Credit` | `control_time` |
//! | a client's `Data` | strided gather on the client, both ports for the transfer, latency |
//! | a `Data` arriving at a server | strided scatter into the subchunk on its port: the step's assembly |
//! | a scatter | per-subchunk overhead, then per piece a strided pack and both ports, latency; `Pushed` once the last has left |
//! | a `Data` arriving at a client | strided scatter on the client, before its credit |
//! | a disk `Write` / `Read` | the AIX cost curve (0 on an infinitely fast disk) on the server's FIFO disk, a write from its assembly plus the per-subchunk overhead; a write with no steps on a server is one zero-length answer, to its opening |
//! | `Complete`, `Reject` | 0 |
//!
//! On a pair, a message never arrives before the one ahead of it. Every
//! simulation ends with the mesh's `check_end`: every run retired, every
//! participant done exactly once, every file and read buffer as the
//! sequential oracle says.

use panda_core::mesh::{self, Collective, Move, Msg, Note};
use panda_core::protocol::ArrayOp;
use panda_core::{ArrayMeta, CollectiveSchedule, OpKind, ScheduleStep};
use panda_fs::aix::IoDirection;
use panda_fs::SyncPolicy;

use crate::machine::Sp2Machine;
use crate::report::SimReport;
use clock::{ns_to_secs, secs_to_ns, Engine, Resource, SimTime};

mod clock;

/// One collective operation to simulate.
#[derive(Debug, Clone)]
pub struct CollectiveSpec {
    /// Arrays written/read in one collective, in order.
    pub arrays: Vec<ArrayMeta>,
    /// Direction.
    pub op: OpKind,
    /// Number of I/O nodes.
    pub num_servers: usize,
    /// Subchunk subdivision cap (1 MB in the paper).
    pub subchunk_bytes: usize,
    /// Simulate an infinitely fast disk (Figures 5, 6, 9).
    pub fast_disk: bool,
    /// Section-read restriction, applied to every array (reads only;
    /// mirrors `PandaClient::read_section`). `None` moves whole arrays.
    pub section: Option<panda_schema::Region>,
}

impl CollectiveSpec {
    /// The schedule the real I/O node `server` would execute for this
    /// collective. Every model in this crate — the DES and the tuner's
    /// stage sums — walks this and nothing else. (The flush policy rides
    /// the schedule without shaping its steps.)
    pub fn schedule(&self, server: usize) -> CollectiveSchedule {
        let arrays: Vec<ArrayOp> = self
            .arrays
            .iter()
            .map(|meta| ArrayOp {
                meta: meta.clone(),
                file_tag: meta.name().to_string(),
                section: self.section.clone(),
            })
            .collect();
        CollectiveSchedule::build(
            &arrays,
            self.op,
            server,
            self.num_servers,
            self.subchunk_bytes,
            SyncPolicy::default(),
        )
    }
}

/// A move due; a delivery's with the message it delivers and that
/// message's program, which its receiver is charged for.
type Due = (Move, Option<(usize, Msg)>);

/// One simulation: the mesh, the machine's resources and the counters.
struct Des<'a> {
    machine: &'a Sp2Machine,
    specs: &'a [CollectiveSpec],
    /// Per program, per server: its schedule.
    schedules: Vec<Vec<CollectiveSchedule>>,
    mesh: mesh::Mesh,
    queue: Engine<Due>,
    /// Per compute node: its CPU and network port as one serial device.
    clients: Vec<Resource>,
    /// Per I/O node: its network port, also charged for pack and scatter.
    nic: Vec<Resource>,
    /// Per I/O node: its disk, one FIFO for every run on it.
    disk: Vec<Resource>,
    /// Per (src, dst) pair: when its last message arrives.
    arrives: Vec<SimTime>,
    /// Per program, per server, per step: when its assembly is complete.
    assembled: Vec<Vec<Vec<SimTime>>>,
    data_msgs: u64,
    ctrl_msgs: u64,
    /// Per program: when its last run retired.
    retired: Vec<SimTime>,
    /// Every fetch (write) or push (read) as `(server, step, piece)`.
    issued: Vec<(usize, usize, usize)>,
}

/// Simulate one collective operation and report its performance: the
/// one-application case of [`simulate_concurrent`].
///
/// ```
/// use panda_model::{simulate, CollectiveSpec, Sp2Machine};
/// use panda_model::experiment::{paper_array, DiskKind};
/// use panda_core::OpKind;
/// let machine = Sp2Machine::nas_sp2();
/// let report = simulate(&machine, &CollectiveSpec {
///     arrays: vec![paper_array(64, 8, 4, DiskKind::Natural)],
///     op: OpKind::Write,
///     num_servers: 4,
///     subchunk_bytes: 1 << 20,
///     fast_disk: false,
///     section: None,
/// });
/// // Disk-bound: ~93 % of the measured AIX write peak per i/o node.
/// assert!(report.normalized > 0.85 && report.normalized < 1.0);
/// ```
pub fn simulate(machine: &Sp2Machine, spec: &CollectiveSpec) -> SimReport {
    let des = run(machine, std::slice::from_ref(spec));
    let outcome = &des.outcomes()[0];
    SimReport::new(
        machine,
        spec.op,
        spec.fast_disk,
        spec.num_servers,
        outcome.total_bytes,
        outcome.elapsed,
        des.data_msgs,
        des.ctrl_msgs,
    )
}

/// Every fetch (write) or push (read) of `spec` as `(server, step,
/// piece)`, in the order the model issues them — per server, the
/// runtime's `Fetch`/`Scatter` step events in order of their `seq`
/// (`step << 32 | piece`).
pub fn issue_order(machine: &Sp2Machine, spec: &CollectiveSpec) -> Vec<(usize, usize, usize)> {
    run(machine, std::slice::from_ref(spec)).issued
}

/// Outcome of one collective inside a concurrent run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrentOutcome {
    /// Elapsed seconds for this collective (startup to its last
    /// server's completion, including trailing client-side work).
    pub elapsed: f64,
    /// Bytes this collective moved.
    pub total_bytes: u64,
    /// Aggregate throughput of this collective, MB/s.
    pub aggregate_mbs: f64,
}

/// Simulate several collectives running *concurrently* — the paper's §5
/// question: "as Panda makes it possible for each application on the
/// SP2 to have its own dedicated set of i/o nodes, we are curious about
/// the impact of i/o node sharing on i/o-intensive applications."
///
/// With `share_servers == true` all collectives are submitted at once
/// to the same `num_servers` I/O nodes (which must therefore be equal
/// across specs): one mesh whose master admits them all, each I/O node
/// one port and one FIFO disk for every run on it. With `false` each
/// collective has its own dedicated I/O nodes and shares nothing, so
/// each is simulated alone. Compute nodes are always dedicated per
/// application.
///
/// Panics on what the runtime refuses: a collective without arrays,
/// arrays on different compute meshes, a section *write*.
pub fn simulate_concurrent(
    machine: &Sp2Machine,
    specs: &[CollectiveSpec],
    share_servers: bool,
) -> Vec<ConcurrentOutcome> {
    assert!(!specs.is_empty());
    if !share_servers {
        let alone = |spec| run(machine, std::slice::from_ref(spec)).outcomes();
        return specs.iter().flat_map(alone).collect();
    }
    assert!(
        specs.iter().all(|s| s.num_servers == specs[0].num_servers),
        "shared i/o nodes require equal num_servers across collectives"
    );
    run(machine, specs).outcomes()
}

/// The one simulation entry: every spec a program of one collective on
/// the same I/O nodes, all submitted at time 0, run until nothing is
/// due.
fn run<'a>(machine: &'a Sp2Machine, specs: &'a [CollectiveSpec]) -> Des<'a> {
    let servers = specs[0].num_servers;
    let (mut schedules, mut programs) = (Vec::new(), Vec::new());
    for spec in specs {
        assert!(
            !spec.arrays.is_empty(),
            "collective needs at least one array"
        );
        let num_clients = spec.arrays[0].num_clients();
        assert!(
            spec.arrays.iter().all(|a| a.num_clients() == num_clients),
            "all arrays in a collective share the compute mesh"
        );
        assert!(
            spec.op == OpKind::Read || spec.section.is_none(),
            "section writes are not supported"
        );
        let scheds: Vec<CollectiveSchedule> = (0..servers).map(|s| spec.schedule(s)).collect();
        let clients = |step: &ScheduleStep| step.sub.pieces.iter().map(|p| p.client).collect();
        let plan = scheds.iter().map(|s| s.steps.iter().map(clients).collect());
        let ops = vec![match spec.op {
            OpKind::Write => Collective::Write,
            OpKind::Read => Collective::Read,
        }];
        programs.push(mesh::Program {
            clients: num_clients,
            plan: plan.collect(),
            ops,
        });
        schedules.push(scheds);
    }
    let mesh = mesh::Mesh::new(mesh::Shape {
        servers,
        depth: machine.pipeline_depth,
        live: specs.len(),
        queued: 0,
        programs,
    });
    let nodes = mesh.clients() + servers;
    let mut des = Des {
        machine,
        specs,
        assembled: schedules
            .iter()
            .map(|scheds| scheds.iter().map(|s| vec![0; s.steps.len()]).collect())
            .collect(),
        schedules,
        queue: Engine::new(),
        clients: vec![Resource::default(); mesh.clients()],
        nic: vec![Resource::default(); servers],
        disk: vec![Resource::default(); servers],
        arrives: vec![0; nodes * nodes],
        mesh,
        data_msgs: 0,
        ctrl_msgs: 0,
        retired: vec![0; specs.len()],
        issued: Vec::new(),
    };
    let broke = |e: String| -> ! { panic!("the model broke the protocol: {e}") };
    let mut notes = Vec::new();
    let mut world = des.mesh.start(&mut notes).unwrap_or_else(|e| broke(e));
    des.charge(0, 0, &mut notes);
    while let Some((now, due)) = des.queue.pop() {
        let ready = des.receive(now, due);
        let applied = des.mesh.apply(&mut world, due.0, &mut notes);
        applied.unwrap_or_else(|e| broke(e));
        des.charge(now, ready, &mut notes);
    }
    des.mesh.check_end(&world).unwrap_or_else(|e| broke(e));
    des
}

impl Des<'_> {
    /// A piece's bytes, and what copying it costs on its client's side
    /// and on its subchunk's: 0 where it is contiguous.
    fn piece(&self, program: usize, s: usize, step: usize, piece: usize) -> (usize, u64, u64) {
        let step = &self.schedules[program][s].steps[step];
        let p = &step.sub.pieces[piece];
        let bytes = p.region.num_bytes(step.elem);
        let copy = |contiguous: bool| match contiguous {
            true => 0,
            false => secs_to_ns(self.machine.memcpy_time(bytes)),
        };
        let (client, subchunk) = (p.contiguous_in_client, p.contiguous_in_subchunk);
        (bytes, copy(client), copy(subchunk))
    }

    /// Charge what arriving costs its receiver before it acts; returns
    /// when it can act. A pushed piece is scattered on its client, a
    /// fetched one into its step's subchunk on the server's port.
    fn receive(&mut self, now: SimTime, due: Due) -> SimTime {
        let (Move::Deliver { src, dst }, Some((program, Msg::Data { step, piece, .. }))) = due
        else {
            return now;
        };
        let c = self.mesh.clients();
        if dst < c {
            let (_, scatter, _) = self.piece(program, src - c, step, piece);
            return self.clients[dst].acquire(now, scatter).1;
        }
        let (_, _, scatter) = self.piece(program, dst - c, step, piece);
        let end = self.nic[dst - c].acquire(now, scatter).1;
        let assembled = &mut self.assembled[program][dst - c][step];
        *assembled = (*assembled).max(end);
        now
    }

    /// Charge what a move emitted, from `now` (a credit from `ready`),
    /// and schedule the move each leads to.
    fn charge(&mut self, now: SimTime, ready: SimTime, notes: &mut Vec<Note>) {
        let m = self.machine;
        let c = self.mesh.clients();
        let control = secs_to_ns(m.net.control_time());
        let latency = secs_to_ns(m.net.latency);
        let overhead = secs_to_ns(m.per_subchunk_overhead);
        let mut notes = notes.drain(..).peekable();
        while let Some(note) = notes.next() {
            match note {
                Note::Sent {
                    src,
                    dst,
                    program,
                    msg,
                } => {
                    let at = match msg {
                        Msg::Request(_) if src < c => now + secs_to_ns(m.startup),
                        Msg::Fetch { step, piece, .. } => {
                            self.ctrl_msgs += 1;
                            self.issued.push((src - c, step, piece));
                            now + control
                        }
                        Msg::Credit { .. } => {
                            self.ctrl_msgs += 1;
                            ready + control
                        }
                        // A client's answer to a fetch; a push is its
                        // scatter's.
                        Msg::Data { step, piece, .. } => {
                            let (bytes, gather, _) = self.piece(program, dst - c, step, piece);
                            let gathered = self.clients[src].acquire(now, gather).1;
                            self.data_msgs += 1;
                            self.transfer(src, dst - c, gathered, bytes) + latency
                        }
                        Msg::Request(_) | Msg::Complete { .. } | Msg::Reject { .. } => now,
                    };
                    self.deliver(src, dst, program, msg, at);
                }
                Note::Scatter {
                    server,
                    program,
                    step,
                } => {
                    let me = c + server;
                    self.nic[server].acquire(now, overhead);
                    let push = |n: &Note| matches!(n, Note::Sent { src, msg: Msg::Data { .. }, .. } if *src == me);
                    while let Some(Note::Sent { dst, msg, .. }) = notes.next_if(push) {
                        let Msg::Data { piece, .. } = msg else {
                            unreachable!("a scatter's pieces")
                        };
                        let (bytes, _, pack) = self.piece(program, server, step, piece);
                        let packed = self.nic[server].acquire(now, pack).1;
                        self.data_msgs += 1;
                        self.issued.push((server, step, piece));
                        let at = self.transfer(dst, server, packed, bytes) + latency;
                        self.deliver(me, dst, program, msg, at);
                    }
                    let pushed = (Move::Pushed { server }, None);
                    self.queue.schedule(self.nic[server].free_at(), pushed);
                }
                Note::Disk {
                    server,
                    program,
                    step,
                } => {
                    let spec = &self.specs[program];
                    let (ready, dur) = match step {
                        None => (now, 0),
                        Some(k) => {
                            let (ready, dir) = match spec.op {
                                OpKind::Write => {
                                    let assembled = self.assembled[program][server][k];
                                    (assembled + overhead, IoDirection::Write)
                                }
                                OpKind::Read => (now, IoDirection::Read),
                            };
                            let bytes = self.schedules[program][server].steps[k].sub.bytes;
                            let dur = match spec.fast_disk {
                                true => 0,
                                false => secs_to_ns(m.disk.access_time(bytes, dir)),
                            };
                            (ready, dur)
                        }
                    };
                    let answered = self.disk[server].acquire(ready, dur).1;
                    self.queue.schedule(answered, (Move::Disk { server }, None));
                }
                Note::Retired { program, .. } => {
                    self.retired[program] = self.retired[program].max(now);
                }
            }
        }
    }

    /// Hold a client's and a server's port for one transfer, from
    /// `ready` or once both are free; returns when it ends.
    fn transfer(&mut self, client: usize, server: usize, ready: SimTime, bytes: usize) -> SimTime {
        let dur = secs_to_ns(self.machine.net.transfer_time(bytes));
        let start = ready
            .max(self.clients[client].free_at())
            .max(self.nic[server].free_at());
        self.clients[client].acquire(start, dur);
        self.nic[server].acquire(start, dur).1
    }

    /// Queue `msg` on its pair, to arrive at `at` but never before the
    /// message ahead of it.
    fn deliver(&mut self, src: usize, dst: usize, program: usize, msg: Msg, at: SimTime) {
        let nodes = self.mesh.clients() + self.nic.len();
        let pair = &mut self.arrives[src * nodes + dst];
        *pair = (*pair).max(at);
        let due = (Move::Deliver { src, dst }, Some((program, msg)));
        self.queue.schedule(*pair, due);
    }

    /// Per program: its last retirement or its clients' trailing work,
    /// whichever ends later, and the bytes it moved.
    fn outcomes(&self) -> Vec<ConcurrentOutcome> {
        (0..self.specs.len())
            .map(|p| {
                let end = self
                    .mesh
                    .clients_of(p)
                    .map(|c| self.clients[c].free_at())
                    .fold(self.retired[p], SimTime::max);
                let elapsed = ns_to_secs(end);
                let total_bytes = self.schedules[p]
                    .iter()
                    .map(CollectiveSchedule::total_bytes)
                    .sum();
                ConcurrentOutcome {
                    elapsed,
                    total_bytes,
                    aggregate_mbs: total_bytes as f64 / (1024.0 * 1024.0) / elapsed,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_schema::{DataSchema, ElementType, Mesh, Shape};

    fn natural_3d(mb: usize, mesh: &[usize]) -> ArrayMeta {
        // mb x 512 x 512 f32 = mb megabytes.
        let shape = Shape::new(&[mb, 512, 512]).unwrap();
        let mem = DataSchema::block_all(shape, ElementType::F32, Mesh::new(mesh).unwrap()).unwrap();
        ArrayMeta::natural("t", mem).unwrap()
    }

    fn spec(mb: usize, mesh: &[usize], servers: usize, op: OpKind, fast: bool) -> CollectiveSpec {
        CollectiveSpec {
            arrays: vec![natural_3d(mb, mesh)],
            op,
            num_servers: servers,
            subchunk_bytes: 1 << 20,
            fast_disk: fast,
            section: None,
        }
    }

    #[test]
    fn single_server_write_matches_closed_form() {
        // Natural chunking, 1 client, 1 server, real disk, depth 1:
        // elapsed = startup + n_sub * (control + transfer + latency +
        // subchunk overhead + disk write).
        let m = Sp2Machine::nas_sp2();
        let s = spec(16, &[1, 1, 1], 1, OpKind::Write, false);
        let r = simulate(&m, &s);
        let n_sub = 16.0;
        let sub = 1u32 << 20;
        let per = m.net.control_time()
            + m.net.transfer_time(sub as usize)
            + m.net.latency
            + m.per_subchunk_overhead
            + m.disk.access_time(sub as usize, IoDirection::Write);
        let expected = m.startup + n_sub * per;
        assert!(
            (r.elapsed - expected).abs() < 1e-6,
            "elapsed {} vs closed form {expected}",
            r.elapsed
        );
    }

    #[test]
    fn fast_disk_write_is_network_bound_near_ninety_percent() {
        let m = Sp2Machine::nas_sp2();
        let r = simulate(&m, &spec(512, &[4, 4, 2], 8, OpKind::Write, true));
        assert!(
            r.normalized > 0.80 && r.normalized < 0.97,
            "normalized {}",
            r.normalized
        );
    }

    #[test]
    fn real_disk_write_is_disk_bound_near_peak() {
        let m = Sp2Machine::nas_sp2();
        let r = simulate(&m, &spec(128, &[2, 2, 2], 4, OpKind::Write, false));
        assert!(
            r.normalized > 0.85 && r.normalized <= 1.0,
            "normalized {}",
            r.normalized
        );
    }

    #[test]
    fn reads_and_writes_have_similar_fast_disk_throughput() {
        // Paper §3: "the throughputs will be similar for both reads and
        // writes" with simulated disks.
        let m = Sp2Machine::nas_sp2();
        let w = simulate(&m, &spec(256, &[4, 4, 2], 4, OpKind::Write, true));
        let r = simulate(&m, &spec(256, &[4, 4, 2], 4, OpKind::Read, true));
        let ratio = w.aggregate_mbs / r.aggregate_mbs;
        assert!(ratio > 0.9 && ratio < 1.1, "ratio {ratio}");
    }

    #[test]
    fn aggregate_scales_with_io_nodes_when_disk_bound() {
        let m = Sp2Machine::nas_sp2();
        let t2 = simulate(&m, &spec(256, &[2, 2, 2], 2, OpKind::Write, false));
        let t8 = simulate(&m, &spec(256, &[2, 2, 2], 8, OpKind::Write, false));
        let speedup = t8.aggregate_mbs / t2.aggregate_mbs;
        assert!(speedup > 3.0 && speedup < 4.5, "speedup {speedup}");
    }

    #[test]
    fn startup_dominates_tiny_fast_disk_runs() {
        // Paper: normalized throughput declines for small arrays under
        // fast disks because the 13 ms startup is charged.
        let m = Sp2Machine::nas_sp2();
        let small = simulate(&m, &spec(16, &[4, 4, 2], 8, OpKind::Write, true));
        let large = simulate(&m, &spec(512, &[4, 4, 2], 8, OpKind::Write, true));
        assert!(small.normalized < large.normalized);
    }

    #[test]
    fn deterministic_across_runs() {
        let m = Sp2Machine::nas_sp2();
        let a = simulate(&m, &spec(64, &[2, 2, 2], 4, OpKind::Read, false));
        let b = simulate(&m, &spec(64, &[2, 2, 2], 4, OpKind::Read, false));
        assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits());
        assert_eq!(a.data_msgs, b.data_msgs);
    }

    #[test]
    fn pipeline_depth_two_overlaps_disk_and_network() {
        let m1 = Sp2Machine::nas_sp2();
        let m2 = Sp2Machine::nas_sp2().with_pipeline_depth(2);
        let s = spec(128, &[2, 2, 2], 2, OpKind::Write, false);
        let r1 = simulate(&m1, &s);
        let r2 = simulate(&m2, &s);
        assert!(
            r2.elapsed < r1.elapsed,
            "double buffering must help: {} vs {}",
            r2.elapsed,
            r1.elapsed
        );
    }

    #[test]
    fn dedicated_io_nodes_are_isolated() {
        // Two identical apps on dedicated servers must match the solo
        // run — in both directions (a read pushes to its *own* app's
        // compute nodes, not to application 0's).
        let m = Sp2Machine::nas_sp2();
        for op in [OpKind::Write, OpKind::Read] {
            let s1 = spec(64, &[2, 2, 2], 2, op, false);
            let solo = simulate(&m, &s1);
            let both = simulate_concurrent(&m, &[s1.clone(), s1.clone()], false);
            assert!((both[0].elapsed - solo.elapsed).abs() < 1e-6, "{op:?}");
            assert!((both[1].elapsed - solo.elapsed).abs() < 1e-6, "{op:?}");
        }
    }

    #[test]
    fn shared_io_nodes_halve_throughput() {
        // Two identical disk-bound apps sharing the same 2 servers each
        // see roughly half the dedicated throughput.
        let m = Sp2Machine::nas_sp2();
        let s1 = spec(64, &[2, 2, 2], 2, OpKind::Write, false);
        let solo = simulate(&m, &s1);
        let shared = simulate_concurrent(&m, &[s1.clone(), s1.clone()], true);
        for o in &shared {
            let slowdown = o.elapsed / solo.elapsed;
            assert!(slowdown > 1.6 && slowdown < 2.4, "slowdown {slowdown}");
        }
    }

    #[test]
    #[should_panic(expected = "section writes are not supported")]
    fn section_writes_are_refused_like_the_runtime_refuses_them() {
        // `ServerNode::admit` answers a section write with a typed
        // protocol error; the model must not simulate one either.
        let mut s = spec(16, &[2, 2, 2], 2, OpKind::Write, false);
        s.section = Some(panda_schema::Region::new(&[0, 0, 0], &[8, 512, 512]).unwrap());
        simulate(&Sp2Machine::nas_sp2(), &s);
    }

    #[test]
    fn concurrent_totals_match_solo() {
        let m = Sp2Machine::nas_sp2();
        let s1 = spec(32, &[2, 2, 2], 2, OpKind::Write, false);
        let s2 = spec(16, &[2, 2, 2], 2, OpKind::Read, false);
        // Read needs files; the model does not touch files, so mixing
        // ops is fine here.
        let outs = simulate_concurrent(&m, &[s1, s2], true);
        assert_eq!(outs[0].total_bytes, 32 << 20);
        assert_eq!(outs[1].total_bytes, 16 << 20);
        assert!(outs.iter().all(|o| o.elapsed > 0.0));
    }

    #[test]
    fn a_write_beside_a_read_on_shared_servers_passes_the_mesh_end_check() {
        // One mesh: the master admits both, each I/O node's port and
        // FIFO disk serve both runs, and `run` panics unless the mesh's
        // end check holds. Different meshes exercise the client ranks.
        let w = spec(32, &[2, 2, 2], 2, OpKind::Write, false);
        let r = spec(16, &[2, 2, 1], 2, OpKind::Read, false);
        for depth in 1..=2 {
            let m = Sp2Machine::nas_sp2().with_pipeline_depth(depth);
            for pair in [[w.clone(), r.clone()], [r.clone(), w.clone()]] {
                let shared = simulate_concurrent(&m, &pair, true);
                for (o, spec) in shared.iter().zip(&pair) {
                    let alone = simulate(&m, spec).elapsed;
                    assert!(o.elapsed > alone, "{:?}: {} vs {alone}", spec.op, o.elapsed);
                }
            }
        }
    }
}
