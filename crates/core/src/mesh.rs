//! The mesh: the protocol's one composition, without a clock.
//!
//! An I/O node's decisions are one `Node`: its admission, the
//! [`Window`] of each live run, and the chain from a run's retirement to
//! the next admission. A compute node's are one `Participant`, which
//! lives across its collectives and sets aside what arrives for the
//! next. `ServerNode`'s driver runs one node per server thread and
//! `PandaClient` one participant per client; the mesh runs one node per
//! server of a deployment and one participant per client, over per-pair
//! FIFO queues — the only order either transport promises — with each
//! server's disk a FIFO of answers. A machine decides and its scheduler
//! performs (`Perform` for a node, `participant::Serve` for a
//! participant): the runtime with bytes, a transport and a disk task,
//! the mesh with tags, queues and [`Note`]s. The mesh has no
//! clock, transport, file system, recorder or thread: a scheduler picks
//! the next [`Move`], and the mesh says what applying it emitted. Two
//! schedulers drive it: the test walker takes every enabled move in
//! every order, and `panda-model`'s DES charges each note against the
//! machine's resources and delivers the move it leads to at the virtual
//! time its cost model gives. The one input whose time differs between
//! the two is a scatter's [`Move::Pushed`]: the walker feeds it inside
//! the move that scattered, the DES once the last piece has left the
//! server's port.
//!
//! Bytes are tags: each piece of a write carries the (program,
//! collective, server, step, piece) it is, named by the client for the
//! collective *it* is serving (a one-shot's by its submitter, into the
//! request). A read delivers what its server's disk holds. So a
//! collective mixed up with another lands the wrong tag, and the
//! sequential oracle — each program's collectives one after another, a
//! refused one skipped — says which tag belongs where.
//!
//! Once nothing is left to move, [`Mesh::check_end`] holds the world to
//! every run retired on every node, every participant through every
//! collective exactly once with its fleet agreeing on the outcome, and
//! every file and every read buffer equal to the oracle's; along the
//! way no machine may refuse an input.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use crate::admission::{Admission, Admit, Caps};
use crate::error::AdmissionIssue;
use crate::participant::{Arrival, End, Participant, Refusal, Serve};
use crate::protocol::OpKind;
use crate::window::{Action, Input, Unexpected, Window};

/// A request as a [`Node`] runs it: what its scheduler lowered it into.
pub(crate) struct Started<R> {
    /// The request, as every input for it names it.
    pub(crate) request: u64,
    /// A write or a read.
    pub(crate) dir: OpKind,
    /// Its window's depth.
    pub(crate) depth: usize,
    /// Per step, per piece: its participant.
    pub(crate) clients: Vec<Vec<usize>>,
    /// How many participants it has.
    pub(crate) participants: usize,
    /// A one-shot: its pieces came with the request, so each `Fetch` is
    /// its piece's arrival.
    pub(crate) carried: bool,
    /// What the scheduler keeps beside the run.
    pub(crate) run: R,
}

/// A scheduler of a [`Node`]: it performs what the node decides, with
/// whatever it moves — bytes, a transport and a disk task, or tags and
/// queues. `P` is a request as admission holds it, `R` what the
/// scheduler keeps beside a live run.
pub(crate) trait Perform<P, R> {
    /// How performing fails; the node passes it on.
    type Error;
    /// Whether a `Scatter`'s pieces have left once [`Perform::act`]
    /// returns, so the node feeds its `Pushed` at once; otherwise the
    /// scheduler feeds it when they have.
    const PUSHED: bool;
    /// Lower admitted `item` into a run; the master relays it first.
    fn start(&mut self, item: P) -> Result<Started<R>, Self::Error>;
    /// Do `action` for `run`: a `Fetch` of a run that fetches, a
    /// `Write`, a `Read`, a `Scatter` or a `Close`. The node does the
    /// rest itself.
    fn act(&mut self, run: &mut R, action: Action) -> Result<(), Self::Error>;
    /// Keep piece `piece` of step `step` of one-shot `run`, out of the
    /// bytes its request carried; its window has taken the piece.
    fn carried(&mut self, run: &mut R, step: usize, piece: usize) -> Result<(), Self::Error>;
    /// `run` is over on this node: send participant `c` its `Complete`,
    /// attesting `pieces[c]` pieces.
    fn retire(&mut self, run: R, pieces: &[u32]) -> Result<(), Self::Error>;
}

/// What a scheduler feeds a [`Node`]: the input is taken and what it
/// made due performed (`Ok`), or refused — no live run is the
/// request's, or its window was not waiting for it — and the node is as
/// it was (`Err`).
pub(crate) type Fed = Result<(), Unexpected>;

/// One I/O node's decisions, composed once: its admission, the window of
/// each live run and the hand-on from a retirement to the next
/// admission. The runtime's driver, the walker and the DES (the last two
/// through [`Mesh`]) each drive one and only perform what it decides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Node<P, R> {
    admission: Admission<P>,
    /// In admission order.
    live: Vec<Live<R>>,
    /// What the run being fed asked for and is not done yet: empty
    /// between inputs, its buffer reused.
    acts: Vec<Action>,
}

// The action queue is empty between inputs: no part of a state.
impl<P: Hash, R: Hash> Hash for Node<P, R> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.admission.hash(state);
        self.live.hash(state);
    }
}

/// A live run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Live<R> {
    request: u64,
    win: Window,
    /// Per participant: the pieces its `Complete` attests — its pieces
    /// in the plan, each sent once, or none for a one-shot.
    complete: Vec<u32>,
    carried: bool,
    run: R,
}

impl<P, R> Node<P, R> {
    /// Nothing live, nothing waiting: only the master's admission has
    /// caps.
    pub(crate) fn new(caps: Caps) -> Self {
        Node {
            admission: Admission::new(caps),
            live: Vec::new(),
            acts: Vec::new(),
        }
    }

    /// Collectives live, and requests waiting.
    pub(crate) fn counts(&self) -> (usize, usize) {
        self.admission.counts()
    }

    /// Disk answers the live runs' windows are still owed.
    pub(crate) fn disk_owed(&self) -> usize {
        self.live.iter().map(|l| l.win.disk_owed()).sum()
    }

    /// The live runs owed a disk answer.
    pub(crate) fn owing(&self) -> impl Iterator<Item = &R> {
        let owing = self.live.iter().filter(|l| l.win.disk_owed() > 0);
        owing.map(|l| &l.run)
    }

    /// The live run of `request`.
    pub(crate) fn run(&self, request: u64) -> Option<&R> {
        let live = self.live.iter().find(|l| l.request == request);
        live.map(|l| &l.run)
    }

    /// A request arrived (`fleet` when more than its submitter take
    /// part): start it, queue it, or hand it back with the reason it is
    /// refused.
    pub(crate) fn admit<F: Perform<P, R>>(
        &mut self,
        perf: &mut F,
        item: P,
        fleet: bool,
    ) -> Result<Option<(P, AdmissionIssue)>, F::Error> {
        match self.admission.submit(item, fleet) {
            Admit::Start(item) => {
                let idx = self.start(perf, item)?;
                self.perform(perf, idx).map(|()| None)
            }
            Admit::Queue => Ok(None),
            Admit::Reject(item, reason) => Ok(Some((item, reason))),
        }
    }

    /// Feed `input` to `request`'s run, `keep` what came with it — a
    /// piece's bytes, a filled step — once its window has taken it and
    /// only then, and perform what it made due.
    pub(crate) fn feed<F: Perform<P, R>>(
        &mut self,
        perf: &mut F,
        request: u64,
        input: Input,
        keep: impl FnOnce(&mut F, &mut R) -> Result<(), F::Error>,
    ) -> Result<Fed, F::Error> {
        let Some(idx) = self.live.iter().position(|l| l.request == request) else {
            return Ok(Err(Unexpected(input)));
        };
        let live = &mut self.live[idx];
        if let Err(refused) = live.win.on(input, &mut self.acts) {
            return Ok(Err(refused));
        }
        keep(perf, &mut live.run)?;
        self.perform(perf, idx).map(Ok)
    }

    /// Lower an admitted request and start its window; its first actions
    /// wait in the queue. Where it now lives.
    fn start<F: Perform<P, R>>(&mut self, perf: &mut F, item: P) -> Result<usize, F::Error> {
        let s = perf.start(item)?;
        let mut complete = vec![0; s.participants];
        if !s.carried {
            for &client in s.clients.iter().flatten() {
                complete[client] += 1;
            }
        }
        let mut win = Window::new(s.clients, s.dir, s.depth);
        let started = win.on(Input::Start, &mut self.acts);
        started.expect("a new window awaits its start");
        self.live.push(Live {
            request: s.request,
            win,
            complete,
            carried: s.carried,
            run: s.run,
        });
        Ok(self.live.len() - 1)
    }

    /// Have live run `idx`'s queued actions performed, in order. Two
    /// answer themselves — a one-shot's `Fetch` is its piece's arrival, a
    /// `Scatter` is `Pushed` once its pieces have left — and what the
    /// window makes of that joins the queue. `Retire` is a run's last
    /// action: the run leaves, and the request admission gives its slot
    /// to starts here, its actions next in the queue.
    fn perform<F: Perform<P, R>>(&mut self, perf: &mut F, mut idx: usize) -> Result<(), F::Error> {
        let mut at = 0;
        while let Some(&action) = self.acts.get(at) {
            at += 1;
            let live = &mut self.live[idx];
            match action {
                Action::Fetch { step, piece } if live.carried => {
                    let taken = live.win.on(Input::Piece { step, piece }, &mut self.acts);
                    taken.expect("a window awaits the piece it asked for");
                    perf.carried(&mut live.run, step, piece)?;
                }
                Action::Scatter { .. } if F::PUSHED => {
                    perf.act(&mut live.run, action)?;
                    let pushed = live.win.on(Input::Pushed, &mut self.acts);
                    pushed.expect("a window awaits the push it asked for");
                }
                Action::Retire => {
                    self.acts.clear();
                    let Live { run, complete, .. } = self.live.remove(idx);
                    perf.retire(run, &complete)?;
                    let Some(next) = self.admission.retire() else {
                        return Ok(());
                    };
                    (idx, at) = (self.start(perf, next)?, 0);
                }
                _ => perf.act(&mut live.run, action)?,
            }
        }
        self.acts.clear();
        Ok(())
    }
}

/// What one collective of a program does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collective {
    /// A write the servers fetch.
    Write,
    /// A read the servers push.
    Read,
    /// A write whose bytes ride the request.
    OneShot,
}

/// One submitter's collectives, one after another.
#[derive(Debug, Clone)]
pub struct Program {
    /// Its participants; the first submits. More than one is a fleet,
    /// which admission never refuses. Clients are ranked in program
    /// order: this program's follow the previous program's.
    pub clients: usize,
    /// Per server, per step: each piece's client, `0..clients`.
    pub plan: Vec<Vec<Vec<usize>>>,
    /// Its collectives, in order.
    pub ops: Vec<Collective>,
}

/// A deployment.
#[derive(Debug, Clone)]
pub struct Shape {
    /// I/O nodes; the first is the master, which admits.
    pub servers: usize,
    /// Every window's depth.
    pub depth: usize,
    /// Runs the master keeps live at once.
    pub live: usize,
    /// Session submissions it queues beyond them before refusing.
    pub queued: usize,
    /// The programs.
    pub programs: Vec<Program>,
}

/// What happens next, as a scheduler chooses it. Nodes are ranked
/// clients first, then servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// The head of the `(src, dst)` queue arrives.
    Deliver {
        /// Sending node.
        src: usize,
        /// Receiving node.
        dst: usize,
    },
    /// A server's disk answers its oldest command.
    Disk {
        /// Server index.
        server: usize,
    },
    /// The last piece of a server's oldest unanswered scatter has left.
    Pushed {
        /// Server index.
        server: usize,
    },
}

/// What a piece holds: the (program, collective, server, step, piece)
/// whose write put it there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(usize, usize, usize, usize, usize);

/// A submitted collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Req {
    request: u64,
    program: usize,
    op: usize,
    /// A one-shot's carried bytes: the collective whose tags its
    /// submitter packed.
    carried: Option<usize>,
}

/// A message between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Msg {
    /// A submission to the master, or the master's relay of one.
    Request(Req),
    /// A server asks a client for one piece of a step.
    Fetch {
        /// The collective.
        request: u64,
        /// Step index within the server's plan.
        step: usize,
        /// Piece index within the step.
        piece: usize,
    },
    /// One piece: a client's answer to a fetch, or a server's push.
    Data {
        /// The collective.
        request: u64,
        /// Step index within the server's plan.
        step: usize,
        /// Piece index within the step.
        piece: usize,
        /// What it holds.
        tag: Option<Tag>,
        /// Its client credits it once consumed.
        awaited: bool,
    },
    /// A client consumed an awaited piece.
    Credit {
        /// The collective.
        request: u64,
    },
    /// A server's run is over; so many pieces were the client's.
    Complete {
        /// The collective.
        request: u64,
        /// Pieces the server sent or fetched the client.
        pieces: u32,
    },
    /// The master refused the submission.
    Reject {
        /// The collective.
        request: u64,
    },
}

/// What applying a move emitted, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Note {
    /// `msg`, of `program`'s collective, joined the `(src, dst)` queue;
    /// [`Move::Deliver`] delivers it.
    Sent {
        /// Sending node.
        src: usize,
        /// Receiving node.
        dst: usize,
        /// The collective's program.
        program: usize,
        /// The message.
        msg: Msg,
    },
    /// A server gave its disk a command for a program's run;
    /// [`Move::Disk`] answers it.
    Disk {
        /// Server index.
        server: usize,
        /// The run's program.
        program: usize,
        /// The step written or read; `None` closes a write.
        step: Option<usize>,
    },
    /// A server pushes a step of a program's run: its pieces follow, in
    /// order, as [`Msg::Data`], and [`Move::Pushed`] says the last left.
    Scatter {
        /// Server index.
        server: usize,
        /// The run's program.
        program: usize,
        /// Step index within the server's plan.
        step: usize,
    },
    /// A program's run retired on a server.
    Retired {
        /// Server index.
        server: usize,
        /// The run's program.
        program: usize,
    },
}

/// Per step, per piece: what it holds; `None` is never written.
type Slots = Vec<Vec<Option<Tag>>>;

/// A command a server's disk answers in the order given: the run's
/// request, the step it writes or reads (`None` closes a write) and a
/// write's tags.
type Cmd = (u64, Option<usize>, Vec<Option<Tag>>);

/// What a server keeps beside a live run: its request, and per step the
/// pieces assembled (write) or filled (read).
type Held = (Req, Slots);

/// What a server's node does not decide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Server {
    disk: VecDeque<Cmd>,
    /// Requests of the scatters whose last piece has not left, oldest
    /// first: a port is a FIFO too.
    pushing: VecDeque<u64>,
    /// Per program (its file): what is on disk.
    files: Vec<Slots>,
    /// Requests retired here.
    retired: Vec<u64>,
}

/// What a client's participant does not decide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Client {
    program: usize,
    /// Position among the program's clients.
    mesh: usize,
    /// The current read's buffer, per server.
    read: Vec<Slots>,
    /// Per collective finished: the request served, `None` if refused.
    outcomes: Vec<Option<u64>>,
}

/// Everything in flight and every node's state: what a scheduler
/// clones, hashes and moves.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct World {
    /// Per (src, dst) pair, `src * nodes + dst`: messages in flight.
    chans: Vec<VecDeque<Msg>>,
    /// Per server: its decisions.
    nodes: Vec<Node<Req, Held>>,
    servers: Vec<Server>,
    /// Per client: its decisions.
    parts: Vec<Participant<Msg>>,
    clients: Vec<Client>,
}

fn request_id(submitter: usize, op: usize) -> u64 {
    ((submitter as u64 + 1) << 32) | (op as u64 + 1)
}

/// A deployment's composition: its shape and the rules that move a
/// [`World`] of it.
#[derive(Debug, Clone)]
pub struct Mesh {
    shape: Shape,
    /// Per program: the rank of its first client.
    first: Vec<usize>,
    /// Clients, then servers.
    nodes: usize,
}

impl Mesh {
    /// The composition of `shape`.
    pub fn new(shape: Shape) -> Mesh {
        let mut first = Vec::with_capacity(shape.programs.len());
        let mut rank = 0;
        for p in &shape.programs {
            assert_eq!(p.plan.len(), shape.servers, "a plan per server");
            first.push(rank);
            rank += p.clients;
        }
        Mesh {
            nodes: rank + shape.servers,
            shape,
            first,
        }
    }

    /// How many clients; server `s` is node `clients() + s`.
    pub fn clients(&self) -> usize {
        self.nodes - self.shape.servers
    }

    /// The ranks of `program`'s clients.
    pub fn clients_of(&self, program: usize) -> Range<usize> {
        self.first[program]..self.first[program] + self.shape.programs[program].clients
    }

    fn kind(&self, req: &Req) -> Collective {
        self.shape.programs[req.program].ops[req.op]
    }

    /// `msg`, of `program`'s collective, joins the `(src, dst)` queue.
    fn post(
        &self,
        chans: &mut [VecDeque<Msg>],
        out: &mut Vec<Note>,
        (src, dst): (usize, usize),
        program: usize,
        msg: Msg,
    ) {
        out.push(Note::Sent {
            src,
            dst,
            program,
            msg,
        });
        chans[src * self.nodes + dst].push_back(msg);
    }

    /// The world before anything has moved: every program's first
    /// submission on its way to the master.
    pub fn start(&self, out: &mut Vec<Note>) -> Result<World, String> {
        let sh = &self.shape;
        let empty = |plan: &Vec<Vec<usize>>| -> Slots {
            plan.iter().map(|step| vec![None; step.len()]).collect()
        };
        let mut world = World {
            chans: vec![VecDeque::new(); self.nodes * self.nodes],
            nodes: (0..sh.servers)
                .map(|s| match s {
                    0 => Node::new(Caps::new(sh.live, sh.queued)),
                    _ => Node::new(Caps::NONE),
                })
                .collect(),
            servers: (0..sh.servers)
                .map(|s| Server {
                    disk: VecDeque::new(),
                    pushing: VecDeque::new(),
                    files: sh.programs.iter().map(|p| empty(&p.plan[s])).collect(),
                    retired: Vec::new(),
                })
                .collect(),
            parts: vec![Participant::new(sh.servers); self.clients()],
            clients: Vec::new(),
        };
        let w = &mut world;
        for (program, p) in sh.programs.iter().enumerate() {
            w.clients.extend((0..p.clients).map(|mesh| Client {
                program,
                mesh,
                read: p.plan.iter().map(empty).collect(),
                outcomes: Vec::new(),
            }));
        }
        let mut at = Apply { mesh: self, w, out };
        for c in 0..self.clients() {
            at.next_op(c)?;
        }
        Ok(world)
    }

    /// Every move `w` allows: the head of any non-empty queue, of any
    /// server's disk, of any server's unfinished scatters.
    pub fn moves(&self, w: &World) -> Vec<Move> {
        let mut moves = Vec::new();
        for (src, dst) in (0..self.nodes).flat_map(|src| (0..self.nodes).map(move |dst| (src, dst)))
        {
            if !w.chans[src * self.nodes + dst].is_empty() {
                moves.push(Move::Deliver { src, dst });
            }
        }
        for (server, srv) in w.servers.iter().enumerate() {
            if !srv.disk.is_empty() {
                moves.push(Move::Disk { server });
            }
            if !srv.pushing.is_empty() {
                moves.push(Move::Pushed { server });
            }
        }
        moves
    }

    /// What `mv` would move in `w`, for the walker's failure trail.
    #[cfg(test)]
    pub(crate) fn describe(&self, w: &World, mv: Move) -> String {
        match mv {
            Move::Deliver { src, dst } => {
                let msg = w.chans[src * self.nodes + dst].front();
                format!("{src} -> {dst}: {msg:?}")
            }
            Move::Disk { server } => format!("disk {server}: {:?}", w.servers[server].disk.front()),
            Move::Pushed { server } => format!("{mv:?}: {:x?}", w.servers[server].pushing.front()),
        }
    }

    /// Apply `mv` to `w`, appending what it emitted to `out`. An error
    /// names the machine that refused an input, or a move `w` does not
    /// allow.
    pub fn apply(&self, w: &mut World, mv: Move, out: &mut Vec<Note>) -> Result<(), String> {
        let mut at = Apply { mesh: self, w, out };
        match mv {
            Move::Deliver { src, dst } => at.deliver(src, dst),
            Move::Disk { server } => at.disk(server),
            Move::Pushed { server } => {
                let request = at.w.servers[server].pushing.pop_front();
                let request = request.ok_or_else(|| format!("server {server} pushes nothing"))?;
                at.feed(server, request, Input::Pushed, |_, _| {})
            }
        }
    }

    /// Where `got`, server `s`'s slots of `program`, first differs from
    /// the sequential oracle once `outcomes` are its collectives so far:
    /// the last write not refused, or nothing. With `client`, nothing is
    /// where the program's other clients' pieces are.
    fn astray(
        &self,
        program: usize,
        outcomes: &[Option<u64>],
        s: usize,
        got: &Slots,
        client: Option<usize>,
    ) -> Option<String> {
        let p = &self.shape.programs[program];
        let last = (0..outcomes.len())
            .rev()
            .find(|&op| p.ops[op] != Collective::Read && outcomes[op].is_some());
        for (step, pieces) in p.plan[s].iter().enumerate() {
            for (piece, &owner) in pieces.iter().enumerate() {
                let want = match client {
                    Some(c) if c != owner => None,
                    _ => last.map(|op| Tag(program, op, s, step, piece)),
                };
                let held = got[step][piece];
                if held != want {
                    return Some(format!(
                        "step {step} piece {piece} holds {held:?}; the oracle says {want:?}"
                    ));
                }
            }
        }
        None
    }

    /// Nothing is left to move: everything must be over, and right.
    pub fn check_end(&self, w: &World) -> Result<(), String> {
        let programs = self.shape.programs.len();
        for (c, (cl, part)) in w.clients.iter().zip(&w.parts).enumerate() {
            let ops = self.shape.programs[cl.program].ops.len();
            if cl.outcomes.len() != ops || part.aside() > 0 {
                return Err(format!(
                    "client {c} never finished: {} of {ops} collectives over, {} set aside",
                    cl.outcomes.len(),
                    part.aside()
                ));
            }
        }
        let outcomes = |program: usize| &w.clients[self.first[program]].outcomes;
        for program in 0..programs {
            let mut fleet = self.clients_of(program);
            if let Some(c) = fleet.find(|&c| &w.clients[c].outcomes != outcomes(program)) {
                return Err(format!(
                    "client {c} of program {program} ended otherwise than its submitter"
                ));
            }
        }
        let mut admitted: Vec<u64> = (0..programs)
            .flat_map(|p| outcomes(p).iter().flatten().copied())
            .collect();
        admitted.sort_unstable();
        for (s, srv) in w.servers.iter().enumerate() {
            let mut retired = srv.retired.clone();
            retired.sort_unstable();
            let counts = w.nodes[s].counts();
            if retired != admitted || counts != (0, 0) {
                return Err(format!(
                    "server {s} retired {retired:x?} of the admitted {admitted:x?}, \
                     (live, queued) {counts:?}"
                ));
            }
            for (program, file) in srv.files.iter().enumerate() {
                if let Some(e) = self.astray(program, outcomes(program), s, file, None) {
                    return Err(format!("server {s}, program {program}'s file: {e}"));
                }
            }
        }
        Ok(())
    }
}

/// One move's application: the mesh's rules, the world they move and
/// what that emits.
struct Apply<'a> {
    mesh: &'a Mesh,
    w: &'a mut World,
    out: &'a mut Vec<Note>,
}

impl Apply<'_> {
    /// Server `s`'s node, and what performs its actions.
    fn server(&mut self, s: usize) -> (&mut Node<Req, Held>, Perf<'_>) {
        let w = &mut *self.w;
        let perf = Perf {
            mesh: self.mesh,
            s,
            srv: &mut w.servers[s],
            chans: &mut w.chans,
            out: self.out,
        };
        (&mut w.nodes[s], perf)
    }

    /// The request of server `s`'s live run of `request`.
    fn held(&self, s: usize, request: u64) -> Result<Req, String> {
        let run = self.w.nodes[s].run(request);
        run.map(|&(req, _)| req)
            .ok_or_else(|| format!("server {s} holds no run of request {request:#x}"))
    }

    fn deliver(&mut self, src: usize, dst: usize) -> Result<(), String> {
        let c = self.mesh.clients();
        let msg = self.w.chans[src * self.mesh.nodes + dst].pop_front();
        let msg = msg.ok_or_else(|| format!("nothing queued from {src} to {dst}"))?;
        if dst >= c {
            return self.server_receive(dst - c, src, msg);
        }
        let (part, mut perf) = self.client(dst);
        if let Some(end) = part.take(&mut perf, src - c, msg)? {
            perf.ended(end)?;
            self.next_op(dst)?;
        }
        Ok(())
    }

    /// Server `s`'s disk answers its oldest command.
    fn disk(&mut self, s: usize) -> Result<(), String> {
        let cmd = self.w.servers[s].disk.pop_front();
        let (request, step, tags) = cmd.ok_or_else(|| format!("disk {s} owes nothing"))?;
        let req = self.held(s, request)?;
        let read = self.mesh.kind(&req) == Collective::Read;
        let input = match (step, read) {
            (None, _) => Input::Closed,
            (Some(_), true) => Input::Filled,
            (Some(_), false) => Input::Written,
        };
        self.feed(s, request, input, |perf, (_, bufs)| {
            let file = &mut perf.srv.files[req.program];
            match step {
                Some(k) if read => bufs[k] = file[k].clone(),
                Some(k) => file[k] = tags,
                None => {}
            }
        })
    }

    /// Client `c`'s participant, and what performs its pieces.
    fn client(&mut self, c: usize) -> (&mut Participant<Msg>, ClientPerf<'_>) {
        let w = &mut *self.w;
        let perf = ClientPerf {
            mesh: self.mesh,
            c,
            cl: &mut w.clients[c],
            chans: &mut w.chans,
            out: self.out,
        };
        (&mut w.parts[c], perf)
    }

    /// Client `c`'s program goes on: submit (or await) its next
    /// collective and begin it, as often as what was set aside for it
    /// ends one.
    fn next_op(&mut self, c: usize) -> Result<(), String> {
        let mesh = self.mesh;
        loop {
            let (part, mut perf) = self.client(c);
            let Some((program, op, kind)) = perf.op() else {
                return Ok(());
            };
            let submitted = (perf.cl.mesh == 0).then(|| request_id(c, op));
            for buf in perf.cl.read.iter_mut().flatten() {
                buf.fill(None);
            }
            if let Some(request) = submitted {
                let carried = (kind == Collective::OneShot).then_some(op);
                let req = Req {
                    request,
                    program,
                    op,
                    carried,
                };
                perf.send(mesh.clients(), Msg::Request(req));
            }
            let Some(end) = part.begin(&mut perf, submitted)? else {
                return Ok(());
            };
            perf.ended(end)?;
        }
    }

    /// What `ServerNode::dispatch` does with one message.
    fn server_receive(&mut self, s: usize, src: usize, msg: Msg) -> Result<(), String> {
        let mesh = self.mesh;
        match msg {
            Msg::Request(req) => {
                let fleet = mesh.shape.programs[req.program].clients > 1;
                let (node, mut perf) = self.server(s);
                let Ok(refused) = node.admit(&mut perf, req, fleet);
                if let Some((req, _)) = refused {
                    let reject = Msg::Reject {
                        request: req.request,
                    };
                    perf.send(mesh.first[req.program], req.program, reject);
                }
                Ok(())
            }
            Msg::Data {
                request,
                step,
                piece,
                tag,
                ..
            } => {
                let input = Input::Piece { step, piece };
                self.feed(s, request, input, |_, (_, bufs)| bufs[step][piece] = tag)
            }
            Msg::Credit { request } => {
                let program = self.held(s, request)?.program;
                let client = src.wrapping_sub(mesh.first[program]);
                if client >= mesh.shape.programs[program].clients {
                    return Err(format!(
                        "server {s} got a credit from {src}, not a participant"
                    ));
                }
                self.feed(s, request, Input::Credit { client }, |_, _| {})
            }
            _ => Err(format!("server {s} got {msg:?}")),
        }
    }

    /// Feed `input` to server `s`'s run of `request`, keeping what came
    /// with it once the run's window has taken it. No machine may
    /// refuse an input.
    fn feed(
        &mut self,
        s: usize,
        request: u64,
        input: Input,
        keep: impl FnOnce(&mut Perf, &mut Held),
    ) -> Result<(), String> {
        let (node, mut perf) = self.server(s);
        let keep = |perf: &mut Perf, run: &mut Held| {
            keep(perf, run);
            Ok(())
        };
        let Ok(fed) = node.feed(&mut perf, request, input, keep);
        fed.map_err(|_| format!("server {s} refused {input:?} of request {request:#x}"))
    }
}

/// Client `c`'s performer: what its pieces do to the world.
struct ClientPerf<'a> {
    mesh: &'a Mesh,
    c: usize,
    cl: &'a mut Client,
    chans: &'a mut [VecDeque<Msg>],
    out: &'a mut Vec<Note>,
}

impl ClientPerf<'_> {
    /// The program, and the index and kind of its collective under way;
    /// `None` once the program is over.
    fn op(&self) -> Option<(usize, usize, Collective)> {
        let (program, op) = (self.cl.program, self.cl.outcomes.len());
        let kind = self.mesh.shape.programs[program].ops.get(op)?;
        Some((program, op, *kind))
    }

    /// Send `msg` of this client's program to node `dst`.
    fn send(&mut self, dst: usize, msg: Msg) {
        let (src, program) = (self.c, self.cl.program);
        self.mesh
            .post(self.chans, self.out, (src, dst), program, msg);
    }

    /// The collective under way ended: record how, holding a read to the
    /// oracle — what it put where this client's pieces are, and nothing
    /// where they are not.
    fn ended(&mut self, end: End<Msg>) -> Result<(), String> {
        let (program, op, kind) = self.op().expect("a collective was under way");
        let (c, cl, mesh) = (self.c, &mut *self.cl, self.mesh);
        let outcome = match end {
            End::Done(request) => Some(request),
            End::Rejected(_) => None,
        };
        if outcome.is_some() && kind == Collective::Read {
            for (s, got) in cl.read.iter().enumerate() {
                if let Some(e) = mesh.astray(program, &cl.outcomes, s, got, Some(cl.mesh)) {
                    return Err(format!("client {c}'s read {op} from server {s}: {e}"));
                }
            }
        }
        cl.outcomes.push(outcome);
        Ok(())
    }
}

impl Serve<Msg> for ClientPerf<'_> {
    type Error = String;

    fn classify(&self, msg: &Msg) -> Result<(u64, Arrival), String> {
        let c = self.c;
        match *msg {
            _ if self.op().is_none() => {
                Err(format!("client {c} got {msg:?} after its program ended"))
            }
            Msg::Fetch { request, .. } | Msg::Data { request, .. } => Ok((request, Arrival::Piece)),
            Msg::Complete { request, pieces } => Ok((request, Arrival::Complete(pieces))),
            Msg::Reject { request } => Ok((request, Arrival::Reject)),
            _ => Err(format!("client {c} got {msg:?}")),
        }
    }

    /// A write's fetch is answered with the tag of the piece it names; a
    /// read's piece fills its slot, and is credited when awaited.
    fn piece(&mut self, server: usize, msg: Msg) -> Result<(), String> {
        let (c, me) = (self.c, self.mesh.clients() + server);
        let (program, op, kind) = self.op().expect("classified during the program");
        let answer = match msg {
            Msg::Fetch {
                request,
                step,
                piece,
            } if kind == Collective::Write => Msg::Data {
                request,
                step,
                piece,
                tag: Some(Tag(program, op, server, step, piece)),
                awaited: false,
            },
            Msg::Data {
                step,
                piece,
                tag,
                awaited,
                request,
            } if kind == Collective::Read => {
                self.cl.read[server][step][piece] = tag;
                if !awaited {
                    return Ok(());
                }
                Msg::Credit { request }
            }
            _ => return Err(format!("client {c} got {msg:?} during a {kind:?}")),
        };
        self.send(me, answer);
        Ok(())
    }

    fn refused(&self, server: usize, request: u64, arrival: Arrival, why: Refusal) -> String {
        let c = self.c;
        format!("client {c} refused request {request:#x} {arrival:?} from server {server}: {why:?}")
    }
}

/// Server `s`'s performer: what its node's actions do to the world.
struct Perf<'a> {
    mesh: &'a Mesh,
    s: usize,
    srv: &'a mut Server,
    chans: &'a mut [VecDeque<Msg>],
    out: &'a mut Vec<Note>,
}

impl Perf<'_> {
    /// Send `msg` of `program`'s collective from this server to `dst`.
    fn send(&mut self, dst: usize, program: usize, msg: Msg) {
        let src = self.mesh.clients() + self.s;
        self.mesh
            .post(self.chans, self.out, (src, dst), program, msg);
    }

    /// Give the disk a command for `program`'s run.
    fn disk(&mut self, program: usize, cmd: Cmd) {
        let (server, step) = (self.s, cmd.1);
        self.out.push(Note::Disk {
            server,
            program,
            step,
        });
        self.srv.disk.push_back(cmd);
    }
}

impl Perform<Req, Held> for Perf<'_> {
    type Error = Infallible;
    /// [`Move::Pushed`] says when a scatter's last piece has left.
    const PUSHED: bool = false;

    fn start(&mut self, req: Req) -> Result<Started<Held>, Infallible> {
        let mesh = self.mesh;
        if self.s == 0 {
            for peer in 1..mesh.shape.servers {
                self.send(mesh.clients() + peer, req.program, Msg::Request(req));
            }
        }
        let program = &mesh.shape.programs[req.program];
        let plan = &program.plan[self.s];
        let dir = match mesh.kind(&req) {
            Collective::Read => OpKind::Read,
            Collective::Write | Collective::OneShot => OpKind::Write,
        };
        let bufs = plan.iter().map(|step| vec![None; step.len()]).collect();
        Ok(Started {
            request: req.request,
            dir,
            depth: mesh.shape.depth,
            clients: plan.clone(),
            participants: program.clients,
            carried: req.carried.is_some(),
            run: (req, bufs),
        })
    }

    fn act(&mut self, (req, bufs): &mut Held, action: Action) -> Result<(), Infallible> {
        let mesh = self.mesh;
        let (program, request) = (req.program, req.request);
        let plan = &mesh.shape.programs[program].plan[self.s];
        let rank = |step: usize, piece: usize| mesh.first[program] + plan[step][piece];
        match action {
            Action::Fetch { step, piece } => {
                let fetch = Msg::Fetch {
                    request,
                    step,
                    piece,
                };
                self.send(rank(step, piece), program, fetch);
            }
            // A write hands the disk its step's tags; a read's buffer is
            // what the disk's answer fills.
            Action::Write { step } | Action::Read { step } => {
                let tags = std::mem::take(&mut bufs[step]);
                self.disk(program, (request, Some(step), tags));
            }
            Action::Scatter { step, awaited } => {
                self.srv.pushing.push_back(request);
                self.out.push(Note::Scatter {
                    server: self.s,
                    program,
                    step,
                });
                for (piece, tag) in std::mem::take(&mut bufs[step]).into_iter().enumerate() {
                    let data = Msg::Data {
                        request,
                        step,
                        piece,
                        tag,
                        awaited,
                    };
                    self.send(rank(step, piece), program, data);
                }
            }
            // A read's close answers nothing.
            Action::Close if mesh.kind(req) == Collective::Read => {}
            Action::Close => self.disk(program, (request, None, Vec::new())),
            Action::Retire => unreachable!("a node retires its runs itself"),
        }
        Ok(())
    }

    fn carried(
        &mut self,
        (req, bufs): &mut Held,
        step: usize,
        piece: usize,
    ) -> Result<(), Infallible> {
        // The tags its submitter packed.
        let tag = req
            .carried
            .map(|op| Tag(req.program, op, self.s, step, piece));
        bufs[step][piece] = tag;
        Ok(())
    }

    fn retire(&mut self, (req, _): Held, pieces: &[u32]) -> Result<(), Infallible> {
        let (program, request) = (req.program, req.request);
        self.srv.retired.push(request);
        self.out.push(Note::Retired {
            server: self.s,
            program,
        });
        for (client, &pieces) in pieces.iter().enumerate() {
            let done = Msg::Complete { request, pieces };
            self.send(self.mesh.first[program] + client, program, done);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One client writing two pieces of one step to one server, taking
    /// the first move allowed until none is left; with `tamper`, every
    /// piece in flight is mis-tagged as collective 7's.
    fn one_write(tamper: bool) -> Result<(), String> {
        let mesh = Mesh::new(Shape {
            servers: 1,
            depth: 1,
            live: 1,
            queued: 0,
            programs: vec![Program {
                clients: 1,
                plan: vec![vec![vec![0, 0]]],
                ops: vec![Collective::Write],
            }],
        });
        let mut out = Vec::new();
        let mut w = mesh.start(&mut out)?;
        while let Some(&mv) = mesh.moves(&w).first() {
            for msg in w.chans.iter_mut().flatten() {
                if let (Msg::Data { tag: Some(t), .. }, true) = (msg, tamper) {
                    t.1 = 7;
                }
            }
            mesh.apply(&mut w, mv, &mut out)?;
        }
        mesh.check_end(&w)
    }

    #[test]
    fn a_mis_tagged_piece_fails_the_end_check_with_its_slot_named() {
        one_write(false).unwrap();
        let err = one_write(true).unwrap_err();
        assert!(
            err.starts_with("server 0, program 0's file: step 0 piece 0 holds"),
            "{err}"
        );
    }

    /// A node's scheduler for its own tests: a run is its request, whose
    /// direction, per step per piece participant, participant count and
    /// one-shot flag are `plans[request]`; every action, kept piece and
    /// `Complete` is logged. Its scatters leave at once.
    #[derive(Default)]
    struct Log {
        plans: Vec<(OpKind, Vec<Vec<usize>>, usize, bool)>,
        did: Vec<(u64, Action)>,
        kept: Vec<(u64, usize, usize)>,
        completes: Vec<(u64, Vec<u32>)>,
    }

    impl Perform<u64, u64> for Log {
        type Error = Infallible;
        const PUSHED: bool = true;

        fn start(&mut self, request: u64) -> Result<Started<u64>, Infallible> {
            let (dir, clients, participants, carried) = self.plans[request as usize].clone();
            Ok(Started {
                request,
                dir,
                depth: 1,
                clients,
                participants,
                carried,
                run: request,
            })
        }

        fn act(&mut self, run: &mut u64, action: Action) -> Result<(), Infallible> {
            self.did.push((*run, action));
            Ok(())
        }

        fn carried(&mut self, run: &mut u64, step: usize, piece: usize) -> Result<(), Infallible> {
            self.kept.push((*run, step, piece));
            Ok(())
        }

        fn retire(&mut self, run: u64, pieces: &[u32]) -> Result<(), Infallible> {
            self.completes.push((run, pieces.to_vec()));
            Ok(())
        }
    }

    type Solo = Node<u64, u64>;

    fn admit(node: &mut Solo, log: &mut Log, request: u64) -> Option<(u64, AdmissionIssue)> {
        let Ok(refused) = node.admit(log, request, false);
        refused
    }

    fn feed(node: &mut Solo, log: &mut Log, request: u64, input: Input) -> Fed {
        let Ok(fed) = node.feed(log, request, input, |_, _| Ok(()));
        fed
    }

    /// Feed each of `inputs` to `request`'s run; each must be taken.
    fn feed_all(node: &mut Solo, log: &mut Log, request: u64, inputs: &[Input]) {
        for &input in inputs {
            assert_eq!(feed(node, log, request, input), Ok(()), "{input:?}");
        }
    }

    fn piece(step: usize, piece: usize) -> Input {
        Input::Piece { step, piece }
    }

    /// What the runtime's refused credit relies on: an input the node
    /// refuses leaves it — windows, admission and action queue — equal
    /// to its clone from before, and asks its scheduler for nothing.
    #[test]
    fn a_refused_input_leaves_the_node_as_it_was() {
        let mut log = Log {
            plans: vec![
                (OpKind::Write, vec![vec![0, 0]], 1, false),
                (OpKind::Read, vec![vec![0]; 3], 1, false),
            ],
            ..Log::default()
        };
        let mut node = Node::new(Caps::NONE);
        assert_eq!(admit(&mut node, &mut log, 0), None);
        assert_eq!(admit(&mut node, &mut log, 1), None);
        feed_all(&mut node, &mut log, 0, &[piece(0, 0)]);
        let refused = [
            // A write owes no credit, and nothing of the read was pushed.
            (0, Input::Credit { client: 0 }),
            (1, Input::Credit { client: 0 }),
            // A piece delivered twice.
            (0, piece(0, 0)),
            // No write was handed to the disk yet.
            (0, Input::Written),
            (1, Input::Written),
            // No run is the request's.
            (7, Input::Closed),
        ];
        for (request, input) in refused {
            let (before, did) = (node.clone(), log.did.len());
            let fed = feed(&mut node, &mut log, request, input);
            assert_eq!(fed, Err(Unexpected(input)), "request {request}");
            assert_eq!(
                node, before,
                "{input:?} of request {request} changed the node"
            );
            assert_eq!(
                log.did.len(),
                did,
                "{input:?} of request {request} was acted on"
            );
        }
    }

    /// The hand-on: a retirement on a capped master starts the oldest
    /// request it queued inside the call that retired, which performs
    /// the new run's first actions too.
    #[test]
    fn a_retire_on_a_capped_master_starts_the_oldest_queued_request_in_the_same_call() {
        let write = (OpKind::Write, vec![vec![0]], 1, false);
        let mut log = Log {
            plans: vec![write; 3],
            ..Log::default()
        };
        let mut node = Node::new(Caps::new(1, 2));
        for request in 0..3 {
            assert_eq!(admit(&mut node, &mut log, request), None);
        }
        assert_eq!(node.counts(), (1, 2));
        feed_all(&mut node, &mut log, 0, &[piece(0, 0), Input::Written]);
        let did = log.did.len();
        feed_all(&mut node, &mut log, 0, &[Input::Closed]);
        assert_eq!(log.completes, [(0, vec![1])]);
        let fetch = Action::Fetch { step: 0, piece: 0 };
        assert_eq!(log.did[did..], [(1, fetch)]);
        assert_eq!(
            (node.run(0), node.run(1), node.run(2)),
            (None, Some(&1), None)
        );
        assert_eq!(node.counts(), (1, 1));
    }

    /// Each participant's `Complete` attests its pieces in the plan — a
    /// participant with none here is told so — and a one-shot's none:
    /// its `Fetch`es are its carried pieces, kept and never acted on.
    #[test]
    fn complete_counts_are_each_participants_pieces_and_none_for_a_one_shot() {
        let mut log = Log {
            plans: vec![
                (OpKind::Write, vec![vec![0, 1, 0], vec![1]], 3, false),
                (OpKind::Read, vec![vec![0, 1]], 2, false),
                (OpKind::Write, vec![vec![0, 0]], 1, true),
            ],
            ..Log::default()
        };
        let mut node = Node::new(Caps::NONE);
        for request in 0..3 {
            assert_eq!(admit(&mut node, &mut log, request), None);
        }
        let write = [piece(0, 0), piece(0, 1), piece(0, 2), Input::Written];
        feed_all(&mut node, &mut log, 0, &write);
        let write = [piece(1, 0), Input::Written, Input::Closed];
        feed_all(&mut node, &mut log, 0, &write);
        // A read retires where its last step is pushed.
        feed_all(&mut node, &mut log, 1, &[Input::Filled]);
        feed_all(&mut node, &mut log, 2, &[Input::Written, Input::Closed]);
        let completes = [(0, vec![2, 2, 0]), (1, vec![1, 1]), (2, vec![0])];
        assert_eq!(log.completes, completes);
        assert_eq!(log.kept, [(2, 0, 0), (2, 0, 1)]);
        let fetched =
            |&(run, action): &(u64, Action)| run == 2 && matches!(action, Action::Fetch { .. });
        assert!(!log.did.iter().any(fetched), "{:?}", log.did);
        assert_eq!(node.counts(), (0, 0));
    }
}
