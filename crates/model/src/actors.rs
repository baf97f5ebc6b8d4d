//! DES actors replaying the Panda protocol through the machine model.
//!
//! One actor per compute node and one per I/O node. Each server actor
//! walks the very [`CollectiveSchedule`] the real server would execute
//! ([`CollectiveSpec::schedule`] — steps, pieces and read-section
//! clipping all come from `panda-core`) through the very [`Window`] the
//! real server drives, so the two cannot disagree about *when* a step
//! may start, only about how long things take; clients respond to
//! requests exactly as the real runtime does. Time comes from the calibrated
//! [`Sp2Machine`]: control messages cost latency + small overhead, data
//! messages reserve both endpoints' network ports for
//! `per_msg_overhead + bytes/bandwidth`, strided gathers/scatters charge
//! the copying node, and disk accesses follow the AIX cost curve (or
//! cost nothing in "infinitely fast disk" mode, reproducing the paper's
//! commented-out-I/O experiment).

use panda_core::protocol::ArrayOp;
use panda_core::{Action, ArrayMeta, CollectiveSchedule, Input, OpKind, ScheduleStep, Window};
use panda_fs::aix::IoDirection;
use panda_fs::SyncPolicy;
use panda_sim::{secs_to_ns, Actor, ActorId, Context, Engine, Resource, SimTime};

use crate::machine::Sp2Machine;
use crate::report::SimReport;

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
    /// collective. Every model in this crate — the DES actors and the
    /// tuner's stage sums — walks this and nothing else. (The flush
    /// policy rides the schedule without shaping its steps.)
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

/// Shared world state: the machine's serial resources plus counters.
struct World {
    machine: Sp2Machine,
    /// Per compute node: its CPU + network port as one serial device.
    clients: Vec<Resource>,
    /// Per I/O node: network port (also charged for pack/scatter CPU).
    server_nic: Vec<Resource>,
    /// Per I/O node: the disk.
    server_disk: Vec<Resource>,
    data_msgs: u64,
    ctrl_msgs: u64,
    /// Completion time of each application's last server.
    app_done: Vec<SimTime>,
    /// Every fetch (write) or push (read) as `(server, step, piece)`,
    /// in issue order.
    issued: Vec<(usize, usize, usize)>,
}

/// Simulation events.
#[derive(Debug, Clone)]
enum Ev {
    /// Server: what its window waits for happened — the collective
    /// reached this I/O node, the disk finished its oldest write, read
    /// or close, the last piece of its oldest scatter left.
    Window(Input),
    /// Client: a server requests a piece (write path).
    Fetch {
        server: usize,
        step: u32,
        piece: u32,
        bytes: usize,
        strided_client: bool,
    },
    /// Server: a piece arrived (write path).
    WriteData { step: u32, piece: u32 },
    /// Client: a piece arrived (read path).
    ReadData { bytes: usize, strided_client: bool },
}

struct ClientActor {
    /// Index of this client's resource in `World::clients`.
    index: usize,
    /// ActorId base of this application's server actors.
    server_actor_base: usize,
    /// Index in `World::server_nic`/`server_disk` of this application's
    /// server 0 (shared or disjoint ranges across applications).
    server_resource_base: usize,
}

impl Actor<Ev, World> for ClientActor {
    fn handle(&mut self, event: Ev, ctx: &mut Context<'_, Ev, World>) {
        match event {
            Ev::Fetch {
                server,
                step,
                piece,
                bytes,
                strided_client,
            } => {
                let now = ctx.now();
                let (gather_ns, dur_ns, latency_ns) = {
                    let m = &ctx.state.machine;
                    (
                        if strided_client {
                            secs_to_ns(m.memcpy_time(bytes))
                        } else {
                            0
                        },
                        secs_to_ns(m.net.transfer_time(bytes)),
                        secs_to_ns(m.net.latency),
                    )
                };
                // Gather on this node, then hold both network ports for
                // the transfer.
                let res = self.server_resource_base + server;
                let (_, gather_end) = ctx.state.clients[self.index].acquire(now, gather_ns);
                let start = gather_end.max(ctx.state.server_nic[res].free_at());
                let (_, end) = ctx.state.clients[self.index].acquire(start, dur_ns);
                ctx.state.server_nic[res].acquire(start, dur_ns);
                ctx.state.data_msgs += 1;
                ctx.send_at(
                    end + latency_ns,
                    ActorId(self.server_actor_base + server),
                    Ev::WriteData { step, piece },
                );
            }
            Ev::ReadData {
                bytes,
                strided_client,
            } => {
                let scatter_ns = if strided_client {
                    secs_to_ns(ctx.state.machine.memcpy_time(bytes))
                } else {
                    0
                };
                let now = ctx.now();
                ctx.state.clients[self.index].acquire(now, scatter_ns);
            }
            _ => unreachable!("client actor received a server event"),
        }
    }
}

struct ServerActor {
    /// Index of this server's resources in `World::server_nic`/`_disk`.
    index: usize,
    /// Which concurrent collective this server belongs to.
    app: usize,
    /// ActorId (and `World::clients` index) of this application's
    /// client 0.
    client_base: usize,
    /// App-relative server index, echoed to clients in `Fetch`.
    server_pos: usize,
    op: OpKind,
    fast_disk: bool,
    /// The lowered schedule, and when each of its steps may start.
    steps: Vec<ScheduleStep>,
    win: Window,
    /// Per step: when its assembly becomes complete (write path).
    assembly_ready: Vec<SimTime>,
    /// When this server's last write ends: the disk answers in the order
    /// it was asked, a close after every write.
    disk_tail: SimTime,
}

impl ServerActor {
    /// Disk time of step `k`, queued behind the disk's earlier work from
    /// `ready`; free on an infinitely fast disk.
    fn disk_access(&self, k: usize, ready: SimTime, ctx: &mut Context<'_, Ev, World>) -> SimTime {
        if self.fast_disk {
            return ready;
        }
        let dir = match self.op {
            OpKind::Write => IoDirection::Write,
            OpKind::Read => IoDirection::Read,
        };
        let bytes = self.steps[k].sub.bytes;
        let dur = secs_to_ns(ctx.state.machine.disk.access_time(bytes, dir));
        ctx.state.server_disk[self.index].acquire(ready, dur).1
    }

    /// Tell the window what happened and perform what it answers
    /// against the machine's resources, each answer an event at the
    /// virtual time the work ends.
    fn drive(&mut self, input: Input, ctx: &mut Context<'_, Ev, World>) {
        let mut acts = Vec::new();
        self.win
            .on(input, &mut acts)
            .expect("the model delivers what the window waits for");
        let (now, me) = (ctx.now(), ctx.self_id());
        for action in acts {
            match action {
                Action::Fetch { step: k, piece: pi } => {
                    let step = &self.steps[k];
                    let piece = &step.sub.pieces[pi];
                    let control = secs_to_ns(ctx.state.machine.net.control_time());
                    ctx.state.ctrl_msgs += 1;
                    ctx.state.issued.push((self.server_pos, k, pi));
                    ctx.send_at(
                        now + control,
                        ActorId(self.client_base + piece.client),
                        Ev::Fetch {
                            server: self.server_pos,
                            step: k as u32,
                            piece: pi as u32,
                            bytes: piece.region.num_bytes(step.elem),
                            strided_client: !piece.contiguous_in_client,
                        },
                    );
                }
                Action::Write { step: k } => {
                    let assembled = self.assembly_ready[k]
                        + secs_to_ns(ctx.state.machine.per_subchunk_overhead);
                    self.disk_tail = self.disk_access(k, assembled, ctx);
                    ctx.send_at(self.disk_tail, me, Ev::Window(Input::Written));
                }
                Action::Read { step: k } => {
                    let end = self.disk_access(k, now, ctx);
                    ctx.send_at(end, me, Ev::Window(Input::Filled));
                }
                Action::Scatter { step: k } => {
                    let sends_end = self.scatter(k, ctx);
                    ctx.send_at(sends_end, me, Ev::Window(Input::Pushed));
                }
                // A read's close costs nothing and is not waited for.
                Action::Close => {
                    if matches!(self.op, OpKind::Write) {
                        ctx.send_at(self.disk_tail.max(now), me, Ev::Window(Input::Closed));
                    }
                }
                Action::Retire => {
                    let done = &mut ctx.state.app_done[self.app];
                    *done = (*done).max(now);
                }
            }
        }
    }

    /// Pack step `k`'s pieces out of the subchunk buffer and send them;
    /// returns when the last has left this server's port.
    fn scatter(&mut self, k: usize, ctx: &mut Context<'_, Ev, World>) -> SimTime {
        let m_overhead = secs_to_ns(ctx.state.machine.per_subchunk_overhead);
        let latency_ns = secs_to_ns(ctx.state.machine.net.latency);
        let now = ctx.now();
        ctx.state.server_nic[self.index].acquire(now, m_overhead);
        let step = &self.steps[k];
        for (pi, piece) in step.sub.pieces.iter().enumerate() {
            let bytes = piece.region.num_bytes(step.elem);
            let client = self.client_base + piece.client;
            let (pack_ns, dur_ns) = {
                let m = &ctx.state.machine;
                (
                    if piece.contiguous_in_subchunk {
                        0
                    } else {
                        secs_to_ns(m.memcpy_time(bytes))
                    },
                    secs_to_ns(m.net.transfer_time(bytes)),
                )
            };
            // Pack out of the subchunk buffer, then transfer.
            let (_, pack_end) = ctx.state.server_nic[self.index].acquire(now, pack_ns);
            let start = pack_end.max(ctx.state.clients[client].free_at());
            let (_, end) = ctx.state.server_nic[self.index].acquire(start, dur_ns);
            ctx.state.clients[client].acquire(start, dur_ns);
            ctx.state.data_msgs += 1;
            ctx.state.issued.push((self.server_pos, k, pi));
            ctx.send_at(
                end + latency_ns,
                ActorId(client),
                Ev::ReadData {
                    bytes,
                    strided_client: !piece.contiguous_in_client,
                },
            );
        }
        ctx.state.server_nic[self.index].free_at()
    }
}

impl Actor<Ev, World> for ServerActor {
    fn handle(&mut self, event: Ev, ctx: &mut Context<'_, Ev, World>) {
        match event {
            Ev::Window(input) => self.drive(input, ctx),
            Ev::WriteData { step, piece } => {
                let (k, pi) = (step as usize, piece as usize);
                let step = &self.steps[k];
                let p = &step.sub.pieces[pi];
                // Scatter into the subchunk buffer (traditional order).
                let scatter_ns = if p.contiguous_in_subchunk {
                    0
                } else {
                    secs_to_ns(ctx.state.machine.memcpy_time(p.region.num_bytes(step.elem)))
                };
                let now = ctx.now();
                let (_, end) = ctx.state.server_nic[self.index].acquire(now, scatter_ns);
                self.assembly_ready[k] = self.assembly_ready[k].max(end);
                self.drive(Input::Piece { step: k, piece: pi }, ctx);
            }
            _ => unreachable!("server actor received a client event"),
        }
    }
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
    let (outcomes, world) = run(machine, std::slice::from_ref(spec), false);
    SimReport::new(
        machine,
        spec.op,
        spec.fast_disk,
        spec.num_servers,
        outcomes[0].total_bytes,
        outcomes[0].elapsed,
        world.data_msgs,
        world.ctrl_msgs,
    )
}

/// Every fetch (write) or push (read) of `spec` as `(server, step,
/// piece)`, in the order the model issues them — per server, what the
/// runtime records as its `FetchSent`/`PushSent` events.
pub fn issue_order(machine: &Sp2Machine, spec: &CollectiveSpec) -> Vec<(usize, usize, usize)> {
    run(machine, std::slice::from_ref(spec), false).1.issued
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
/// With `share_servers == true` all collectives contend for the same
/// `num_servers` I/O nodes (which must therefore be equal across
/// specs); with `false`, each collective gets its own dedicated set.
/// Compute nodes are always dedicated per application.
///
/// Panics on what the runtime refuses: a collective without arrays,
/// arrays on different compute meshes, a section *write*.
pub fn simulate_concurrent(
    machine: &Sp2Machine,
    specs: &[CollectiveSpec],
    share_servers: bool,
) -> Vec<ConcurrentOutcome> {
    run(machine, specs, share_servers).0
}

/// The one simulation entry: lay the applications' actors out over the
/// machine's resources, replay every server's schedule, and return the
/// per-application outcomes with the final world (message counters).
fn run(
    machine: &Sp2Machine,
    specs: &[CollectiveSpec],
    share_servers: bool,
) -> (Vec<ConcurrentOutcome>, World) {
    assert!(!specs.is_empty());
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
        assert!(
            !share_servers || spec.num_servers == specs[0].num_servers,
            "shared i/o nodes require equal num_servers across collectives"
        );
    }
    // Client actors first (all apps), then server actors app-major, so
    // a client's ActorId is its `World::clients` index. Per app: its
    // first client, first server resource, first server actor.
    let total_clients: usize = specs.iter().map(|s| s.arrays[0].num_clients()).sum();
    let mut layout = Vec::with_capacity(specs.len());
    let (mut client_base, mut resource_base, mut actor_base) = (0, 0, total_clients);
    for spec in specs {
        layout.push((client_base, resource_base, actor_base));
        client_base += spec.arrays[0].num_clients();
        actor_base += spec.num_servers;
        if !share_servers {
            resource_base += spec.num_servers;
        }
    }
    let server_resources = if share_servers {
        specs[0].num_servers
    } else {
        resource_base
    };
    let resources = |kind: &str, n: usize| -> Vec<Resource> {
        (0..n)
            .map(|i| Resource::new(format!("{kind}{i}")))
            .collect()
    };
    let mut engine: Engine<Ev, World> = Engine::new(World {
        machine: machine.clone(),
        clients: resources("client", total_clients),
        server_nic: resources("nic", server_resources),
        server_disk: resources("disk", server_resources),
        data_msgs: 0,
        ctrl_msgs: 0,
        app_done: vec![0; specs.len()],
        issued: Vec::new(),
    });
    for (spec, &(client_base, resource_base, actor_base)) in specs.iter().zip(&layout) {
        for c in 0..spec.arrays[0].num_clients() {
            engine.add_actor(Box::new(ClientActor {
                index: client_base + c,
                server_actor_base: actor_base,
                server_resource_base: resource_base,
            }));
        }
    }
    let mut total_bytes = vec![0u64; specs.len()];
    for (app, (spec, &(client_base, resource_base, _))) in specs.iter().zip(&layout).enumerate() {
        for s in 0..spec.num_servers {
            let schedule = spec.schedule(s);
            total_bytes[app] += schedule.total_bytes();
            let pieces = schedule.steps.iter().map(|step| step.sub.pieces.len());
            let id = engine.add_actor(Box::new(ServerActor {
                index: resource_base + s,
                app,
                client_base,
                server_pos: s,
                op: spec.op,
                fast_disk: spec.fast_disk,
                win: Window::new(pieces, spec.op, machine.pipeline_depth),
                assembly_ready: vec![0; schedule.steps.len()],
                steps: schedule.steps,
                disk_tail: 0,
            }));
            // Every server starts after the collective's startup
            // overhead (request propagation + plan formation, §3:
            // ≈ 13 ms).
            engine.schedule(secs_to_ns(machine.startup), id, Ev::Window(Input::Start));
        }
    }
    engine.run();
    // Per-app completion: server Done times plus trailing client work
    // (e.g. a final client-side scatter).
    let outcomes = specs
        .iter()
        .zip(&layout)
        .enumerate()
        .map(|(app, (spec, &(client_base, _, _)))| {
            let clients = &engine.state.clients[client_base..][..spec.arrays[0].num_clients()];
            let end = clients
                .iter()
                .map(Resource::free_at)
                .fold(engine.state.app_done[app], SimTime::max);
            let elapsed = panda_sim::ns_to_secs(end);
            ConcurrentOutcome {
                elapsed,
                total_bytes: total_bytes[app],
                aggregate_mbs: total_bytes[app] as f64 / (1024.0 * 1024.0) / elapsed,
            }
        })
        .collect();
    (outcomes, engine.state)
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
        // `ServerNode::start_run` answers a section write with a typed
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
}
