//! The collective window: *when* each step of a server's schedule may
//! start, and what each run is still owed, as a machine without bytes,
//! sockets or a clock.
//!
//! The paper's mechanism is one rule per I/O node: keep up to `depth`
//! subchunks between "pieces requested" and "handed to the disk" (or
//! between "read issued" and "pushed"), strictly in schedule order.
//! [`Window`] is that rule and the books it needs: which pieces have
//! come, which credits are owed, which disk answers are outstanding. Its
//! one caller is `mesh::Node`, an I/O node's composition of admission
//! and its live runs' windows: the node tells a run's window what
//! happened ([`Input`]) and has what it answers ([`Action`]) performed
//! by the scheduler that drives the node — `ServerNode` with real
//! messages and a disk task, and [`crate::mesh`] with per-pair queues
//! that the test walker drives in every order and the performance model
//! under a virtual clock. All three therefore agree on when a step may
//! start, and can differ only in how long things take; none keeps a
//! count of its own. A run's end is no action but the window's state:
//! once it has asked for its last action and taken the last answer, the
//! window is retired (`Window::retired`) and refuses everything, and the
//! node retires the run.
//!
//! A write keeps up to `depth` steps' fetches outstanding and up to
//! `depth` assembled steps at the disk; depth 1 is the strictly serial
//! oracle, whose next fetch waits for the previous write's answer. The
//! disk answers a run's last `Write` only once the run's files are
//! synced per its policy, so a write retires on the [`Input::Written`]
//! that leaves every step handed over and answered; one with no steps on
//! this server owes the one answer to its files' opening.
//!
//! A read keeps up to `depth` steps between issued and pushed, and — a
//! push being only a send — up to `depth` more pushed but not yet
//! consumed by their clients: step `k` is scattered once the clients
//! have consumed step `k - depth`, so step `k` is *awaited* when
//! `k + depth < steps`, and each of its pieces is answered by an
//! [`Input::Credit`] from the piece's client. A credit pays for the
//! oldest awaited step its client still owes a piece of (a client's
//! pieces reach it in the order they were sent), and a step is consumed
//! once every piece of it and of the steps before it is paid for. That
//! mirrors the write's `depth` fetching plus `depth` at the disk, and it
//! is what bounds the bytes a slow reader holds queued. Every awaited
//! step is consumed before the last step is scattered, so a read
//! retires where its last piece is pushed, and no credit can follow it.
//! An empty read retires on [`Input::Start`].

use crate::protocol::OpKind;

/// Something that happened to one run. The disk answers in the order it
/// was asked, so `Written` and `Filled` name no step, and a credit pays
/// for the oldest step its client owes, so `Credit` names none either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// The run was admitted and its files are being opened.
    Start,
    /// The bytes of a fetched piece are here (write).
    Piece {
        /// Step index within the schedule.
        step: usize,
        /// Piece index within the step.
        piece: usize,
    },
    /// The oldest unanswered [`Action::Write`] is on disk — the last
    /// with the run's files synced per its policy — or, for a write with
    /// no steps, its files are opened and synced (write).
    Written,
    /// The oldest unanswered [`Action::Read`] is in memory (read).
    Filled,
    /// The oldest unanswered [`Action::Scatter`] has left (read).
    Pushed,
    /// Participant `client` (a plan piece's `client`) unpacked one piece
    /// of an awaited [`Action::Scatter`] (read).
    Credit {
        /// The participant, indexed as a plan piece's `client`.
        client: usize,
    },
}

/// Something the driver is to do for the run, now. Each is answered by
/// an input: one that performing it gives at once (`mesh::Perform::act`)
/// or one its scheduler feeds later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Request one piece of a step; answered by [`Input::Piece`].
    Fetch {
        /// Step index within the schedule.
        step: usize,
        /// Piece index within the step.
        piece: usize,
    },
    /// Hand the assembled step to the disk; answered by
    /// [`Input::Written`].
    Write {
        /// Step index within the schedule.
        step: usize,
    },
    /// Ask the disk for the step; answered by [`Input::Filled`].
    Read {
        /// Step index within the schedule.
        step: usize,
    },
    /// Push the step's pieces to their clients; answered by
    /// [`Input::Pushed`], and an awaited step's pieces each by an
    /// [`Input::Credit`].
    Scatter {
        /// Step index within the schedule.
        step: usize,
        /// A later step waits for this one's consumption: each of its
        /// pieces is to be credited by its client.
        awaited: bool,
    },
}

/// An input the window was not waiting for: a duplicate or unrequested
/// piece, a disk answer with nothing asked, a credit its client does not
/// owe, anything once the window is retired. The window is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unexpected(pub Input);

/// One run's window over its schedule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Window {
    /// A write's window, or a read's.
    write: bool,
    depth: usize,
    /// Per step, per piece: its client, and whether its answer came —
    /// its bytes (write) or its credit (read).
    pieces: Vec<Vec<(usize, bool)>>,
    started: bool,
    /// Oldest step still in the window: not yet handed to the disk
    /// (write), not yet pushed (read).
    front: usize,
    /// Next step to fetch (write) or to ask the disk for (read).
    next: usize,
    /// Write: disk answers not yet come — one per [`Action::Write`], or
    /// the one its opening owes a run with no steps.
    disk_queued: usize,
    /// Read: steps the disk has answered; `next_scatter..filled` wait
    /// for their clients to consume, `filled..next` are at the disk.
    filled: usize,
    /// Read: next step to scatter.
    next_scatter: usize,
    /// Read: awaited steps consumed.
    consumed: usize,
    retired: bool,
}

impl Window {
    /// A window of `depth` (at least 1) over a schedule whose step `k`
    /// has one piece per entry of `clients[k]`, each the piece's client
    /// (`CollectiveSchedule::steps[k].sub.pieces[..].client`).
    pub fn new<S: IntoIterator<Item = usize>>(
        clients: impl IntoIterator<Item = S>,
        dir: OpKind,
        depth: usize,
    ) -> Self {
        Window {
            write: matches!(dir, OpKind::Write),
            depth: depth.max(1),
            pieces: clients
                .into_iter()
                .map(|step| step.into_iter().map(|c| (c, false)).collect())
                .collect(),
            started: false,
            front: 0,
            next: 0,
            disk_queued: 0,
            filled: 0,
            next_scatter: 0,
            consumed: 0,
            retired: false,
        }
    }

    /// How many disk answers the run is still owed: a write's unanswered
    /// [`Action::Write`]s (or its opening's answer), a read's unanswered
    /// [`Action::Read`]s.
    pub fn disk_owed(&self) -> usize {
        match self.write {
            true => self.disk_queued,
            false => self.next - self.filled,
        }
    }

    /// Whether the run is over on this server: every action it asked
    /// for is answered, and it asks for nothing more.
    pub(crate) fn retired(&self) -> bool {
        self.retired
    }

    /// Take one input and append what the driver is to do about it, in
    /// the order it is to do it.
    pub fn on(&mut self, input: Input, out: &mut Vec<Action>) -> Result<(), Unexpected> {
        let write = self.write;
        match input {
            _ if self.retired => return Err(Unexpected(input)),
            Input::Start if !self.started => {
                self.started = true;
                // A write with no steps here: its opening's answer.
                self.disk_queued = usize::from(write && self.pieces.is_empty());
            }
            Input::Piece { step, piece }
                if write
                    && (self.front..self.next).contains(&step)
                    && self.pieces[step].get(piece).is_some_and(|p| !p.1) =>
            {
                self.pieces[step][piece].1 = true;
            }
            Input::Written if write && self.disk_queued > 0 => self.disk_queued -= 1,
            Input::Filled if !write && self.filled < self.next => self.filled += 1,
            Input::Pushed if !write && self.front < self.next_scatter => self.front += 1,
            Input::Credit { client } if !write => {
                // The oldest awaited, scattered, unpaid piece of `client`.
                let end = self.awaited_scattered();
                let Some(owed) = self.pieces[self.consumed..end]
                    .iter_mut()
                    .flatten()
                    .find(|p| p.0 == client && !p.1)
                else {
                    return Err(Unexpected(input));
                };
                owed.1 = true;
                self.settle();
            }
            _ => return Err(Unexpected(input)),
        }
        if write {
            self.advance_write(out);
        } else {
            self.advance_read(out);
        }
        Ok(())
    }

    fn advance_write(&mut self, out: &mut Vec<Action>) {
        let steps = self.pieces.len();
        // Completed head steps go to the disk, which writes step k
        // while the pieces of k + 1.. arrive; the bound keeps one run
        // from monopolizing a disk it shares.
        while self.front < self.next
            && self.pieces[self.front].iter().all(|p| p.1)
            && self.disk_queued < self.depth
        {
            out.push(Action::Write { step: self.front });
            self.disk_queued += 1;
            self.front += 1;
        }
        // Depth 1 is the strictly serialized oracle: the next fetch
        // waits for the disk write to land. Deeper windows keep fetching
        // while the disk works; its queue bound is the backpressure.
        while self.next < steps
            && self.next - self.front < self.depth
            && !(self.depth == 1 && self.disk_queued > 0)
        {
            for piece in 0..self.pieces[self.next].len() {
                out.push(Action::Fetch {
                    step: self.next,
                    piece,
                });
            }
            self.next += 1;
        }
        // The disk answers in order: the last answer is the last step's.
        self.retired = self.front == steps && self.disk_queued == 0;
    }

    /// Read: the awaited steps scattered so far. Every step but the
    /// schedule's last `depth` is awaited.
    fn awaited_scattered(&self) -> usize {
        self.next_scatter
            .min(self.pieces.len().saturating_sub(self.depth))
    }

    /// Read: consume the awaited steps at the front that are paid for in
    /// full (a step without pieces owes nothing).
    fn settle(&mut self) {
        while self.consumed < self.awaited_scattered()
            && self.pieces[self.consumed].iter().all(|p| p.1)
        {
            self.consumed += 1;
        }
    }

    fn advance_read(&mut self, out: &mut Vec<Action>) {
        let steps = self.pieces.len();
        // A filled step is pushed once its clients have consumed the step
        // `depth` before it: at most `depth` awaited steps sit unconsumed
        // at the clients, and the last step waits for every credit.
        while self.next_scatter < self.filled && self.next_scatter < self.consumed + self.depth {
            let step = self.next_scatter;
            out.push(Action::Scatter {
                step,
                awaited: step + self.depth < steps,
            });
            self.next_scatter += 1;
            self.settle();
        }
        // Up to `depth` steps between asked-for and pushed: depth 1 is
        // no read-ahead.
        while self.next < steps && self.next - self.front < self.depth {
            out.push(Action::Read { step: self.next });
            self.next += 1;
        }
        self.retired = self.front == steps;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

    /// Everything around one window, without bytes or time: what it has
    /// asked for and is owed an answer to, and what it has done so far.
    #[derive(Clone)]
    struct World {
        win: Window,
        write: bool,
        depth: usize,
        /// Per step, the client of each piece.
        shape: Vec<Vec<usize>>,
        started: bool,
        /// Fetches unanswered; a transport delivers them in any order.
        pieces: Vec<(usize, usize)>,
        /// Answers the disk owes, in the order it was asked.
        disk: VecDeque<Input>,
        /// Scatters whose pieces have not all left; a NIC is a FIFO too.
        pushing: usize,
        /// Steps fetched / handed to the disk / asked of it / scattered,
        /// and pieces of step `fetched` fetched so far.
        fetched: usize,
        fetching: usize,
        writes: usize,
        reads: usize,
        scatters: usize,
        /// Per awaited scatter performed, the clients whose credits for
        /// its pieces have not come yet.
        owed: Vec<Vec<usize>>,
        /// Inputs delivered.
        written: usize,
        filled: usize,
        pushed: usize,
        retires: usize,
    }

    impl World {
        /// Awaited steps consumed: the leading ones paid for in full.
        fn consumed(&self) -> usize {
            self.owed.iter().take_while(|step| step.is_empty()).count()
        }

        /// What may legally arrive next.
        fn deliverable(&self) -> Vec<Input> {
            if !self.started {
                return vec![Input::Start];
            }
            let mut next: Vec<Input> = self
                .pieces
                .iter()
                .map(|&(step, piece)| Input::Piece { step, piece })
                .collect();
            next.extend(self.disk.front());
            if self.pushing > 0 {
                next.push(Input::Pushed);
            }
            // A client may unpack before the server hears the send is done,
            // and two clients credit in either order.
            let mut clients: Vec<usize> = self.owed.concat();
            clients.sort_unstable();
            clients.dedup();
            next.extend(clients.into_iter().map(|client| Input::Credit { client }));
            next
        }

        /// Deliver `input`, then hold what the window answers to the rule.
        fn deliver(&mut self, input: Input) {
            match input {
                Input::Start => {
                    self.started = true;
                    // A write with no steps is owed its opening's answer.
                    if self.write && self.shape.is_empty() {
                        self.disk.push_back(Input::Written);
                    }
                }
                Input::Piece { step, piece } => self.pieces.retain(|&p| p != (step, piece)),
                // The opening's answer answers no step.
                Input::Written if self.shape.is_empty() => {}
                Input::Written => self.written += 1,
                Input::Filled => self.filled += 1,
                Input::Pushed => {
                    self.pushing -= 1;
                    self.pushed += 1;
                }
                Input::Credit { client } => {
                    // It pays for the oldest step it owes a piece of.
                    let step = self.owed.iter_mut().find(|s| s.contains(&client)).unwrap();
                    let at = step.iter().position(|&c| c == client).unwrap();
                    step.remove(at);
                }
            }
            if matches!(input, Input::Written | Input::Filled) {
                assert_eq!(self.disk.pop_front(), Some(input));
            }
            let mut acts = Vec::new();
            self.win.on(input, &mut acts).expect("a legal input");
            let steps = self.shape.len();
            for &action in &acts {
                assert_eq!(self.retires, 0, "{action:?} after retirement");
                match action {
                    Action::Fetch { step, piece } => {
                        // Schedule order, each piece exactly once.
                        assert!(self.write);
                        assert_eq!((step, piece), (self.fetched, self.fetching));
                        self.pieces.push((step, piece));
                        self.fetching += 1;
                        if self.fetching == self.shape[step].len() {
                            self.fetched += 1;
                            self.fetching = 0;
                        }
                    }
                    Action::Write { step } => {
                        assert_eq!(step, self.writes, "writes in schedule order, once");
                        assert!(step < self.fetched && self.pieces.iter().all(|p| p.0 != step));
                        self.writes += 1;
                        self.disk.push_back(Input::Written);
                    }
                    Action::Read { step } => {
                        assert!(!self.write);
                        assert_eq!(step, self.reads, "reads in schedule order, once");
                        self.reads += 1;
                        self.disk.push_back(Input::Filled);
                    }
                    Action::Scatter { step, awaited } => {
                        assert_eq!(step, self.scatters, "scatters in schedule order, once");
                        assert!(step < self.filled);
                        // Awaited exactly when a later step waits for it.
                        assert_eq!(awaited, step + self.depth < steps, "step {step}");
                        self.scatters += 1;
                        self.pushing += 1;
                        if awaited {
                            self.owed.push(self.shape[step].clone());
                        }
                    }
                }
            }
            if self.win.retired() && self.retires == 0 {
                // It retires asking for nothing more.
                assert!(acts.is_empty(), "{acts:?} as it retired");
                if self.write {
                    // On the answer that leaves nothing owed.
                    assert_eq!(input, Input::Written);
                    assert_eq!(self.written, steps);
                    assert!(self.disk.is_empty());
                } else {
                    // With its last push — or at once, having nothing to push —
                    // and with nothing left to credit.
                    assert!(input == Input::Pushed || steps == 0);
                    assert_eq!(self.pushed, steps);
                    assert_eq!(self.consumed(), steps.saturating_sub(self.depth));
                }
                self.retires += 1;
            }
            // Retired once, and for good.
            assert_eq!(self.win.retired(), self.retires == 1);
            // The window: at most `depth` steps fetched and not yet at
            // the disk, at most `depth` more there; depth 1 is strictly
            // serial. A read holds at most `depth` from asked to pushed,
            // and at most `depth` awaited steps pushed and not consumed.
            if self.write {
                assert!(self.fetched - self.writes <= self.depth);
                assert!(self.writes - self.written <= self.depth);
                if self.depth == 1 {
                    assert!(self.pieces.is_empty() || self.writes == self.written);
                    assert!(self.fetched - self.written <= 1);
                }
            } else {
                assert!(self.reads - self.pushed <= self.depth);
                assert!(self.owed.len() - self.consumed() <= self.depth);
                // Step k is scattered only once step k - depth is
                // consumed: the last waits for every credit.
                assert!(self.scatters <= self.consumed() + self.depth);
            }
        }

        /// Everything else that could be delivered must be refused and
        /// leave the window as it was: a credit from a client that owes
        /// nothing (client 2 takes part in no piece, and a write owes no
        /// credit at all) included.
        fn refuses_the_rest(&self) {
            let legal = self.deliverable();
            let steps = self.shape.len();
            let mut others = vec![Input::Start, Input::Written, Input::Filled, Input::Pushed];
            others.extend((0..=2).map(|client| Input::Credit { client }));
            others.extend(
                (0..=steps).flat_map(|step| (0..=2).map(move |piece| Input::Piece { step, piece })),
            );
            for input in others.into_iter().filter(|i| !legal.contains(i)) {
                let mut win = self.win.clone();
                let mut acts = Vec::new();
                assert_eq!(win.on(input, &mut acts), Err(Unexpected(input)));
                assert!(acts.is_empty() && win == self.win, "{input:?} left a mark");
            }
        }

        /// Walk every legal delivery order from here; returns how many
        /// complete orders there were.
        fn explore(&self) -> usize {
            self.refuses_the_rest();
            assert_eq!(self.win.disk_owed(), self.disk.len(), "disk answers owed");
            let next = self.deliverable();
            if next.is_empty() {
                let steps = self.shape.len();
                assert_eq!(self.retires, 1, "ended without retiring");
                if self.write {
                    assert_eq!(
                        (self.fetched, self.writes, self.written),
                        (steps, steps, steps)
                    );
                } else {
                    assert_eq!(
                        (self.reads, self.scatters, self.pushed),
                        (steps, steps, steps)
                    );
                    assert_eq!(self.consumed(), steps.saturating_sub(self.depth));
                    assert!(self.owed.iter().all(Vec::is_empty), "a credit left owed");
                }
                return 1;
            }
            next.into_iter()
                .map(|input| {
                    let mut world = self.clone();
                    world.deliver(input);
                    world.explore()
                })
                .sum()
        }
    }

    /// Every schedule shape of up to 3 steps x up to 2 pieces, each
    /// piece for client 0 or 1 (a two-piece step has one of each), both
    /// directions, depths 1 to 3, every legal order of arrival — and,
    /// since a read's window counts steps, reads of 4 and 5 steps, where
    /// each depth has several steps awaited, their steps alternating
    /// between the two clients.
    #[test]
    fn every_delivery_order_keeps_the_window_and_the_schedule_order() {
        let mut shapes: Vec<Vec<Vec<usize>>> = vec![vec![]];
        for len in 0..3 {
            for shape in shapes.clone().into_iter().filter(|s| s.len() == len) {
                shapes.extend([vec![0], vec![1], vec![0, 1]].map(|step| {
                    let mut longer = shape.clone();
                    longer.push(step);
                    longer
                }));
            }
        }
        assert_eq!(shapes.len(), 40);
        let long_reads = [4, 5].map(|n| (0..n).map(|k| vec![k % 2]).collect::<Vec<_>>());
        let mut orders = 0;
        for shape in shapes.iter().chain(&long_reads) {
            let dirs = if shape.len() > 3 {
                &[OpKind::Read][..]
            } else {
                &[OpKind::Write, OpKind::Read]
            };
            for &dir in dirs {
                for depth in 1..=3 {
                    let world = World {
                        win: Window::new(shape.clone(), dir, depth),
                        write: matches!(dir, OpKind::Write),
                        depth,
                        shape: shape.clone(),
                        started: false,
                        pieces: Vec::new(),
                        disk: VecDeque::new(),
                        pushing: 0,
                        fetched: 0,
                        fetching: 0,
                        writes: 0,
                        reads: 0,
                        scatters: 0,
                        owed: Vec::new(),
                        written: 0,
                        filled: 0,
                        pushed: 0,
                        retires: 0,
                    };
                    orders += world.explore();
                }
            }
        }
        // Deeper windows leave more to interleave: far more orders than
        // the 240 cells, or the walk is not branching.
        assert!(orders > 1000, "{orders} orders");
    }

    #[test]
    fn depth_zero_is_depth_one() {
        let mut acts = Vec::new();
        let mut win = Window::new([[0], [0]], OpKind::Write, 0);
        win.on(Input::Start, &mut acts).unwrap();
        assert_eq!(acts, [Action::Fetch { step: 0, piece: 0 }]);
    }

    #[test]
    fn a_credit_pays_the_oldest_step_its_client_owes() {
        // Depth 2 over four steps: steps 0 and 1 are awaited; step 0
        // went to clients 0 and 1, step 1 to client 0 twice.
        let (mut win, mut acts) = (
            Window::new([vec![0, 1], vec![0, 0], vec![0], vec![0]], OpKind::Read, 2),
            Vec::new(),
        );
        for input in [Input::Start, Input::Filled, Input::Filled] {
            win.on(input, &mut acts).unwrap();
        }
        let mut on = |input| {
            acts.clear();
            win.on(input, &mut acts).map(|()| acts.clone())
        };
        // Client 0 pays step 0, then step 1, before client 1 pays step 0:
        // only then is step 0 consumed, and step 2 may follow once read.
        assert_eq!(on(Input::Credit { client: 0 }), Ok(vec![]));
        assert_eq!(on(Input::Credit { client: 0 }), Ok(vec![]));
        assert_eq!(on(Input::Pushed), Ok(vec![Action::Read { step: 2 }]));
        assert_eq!(on(Input::Filled), Ok(vec![]));
        assert_eq!(
            on(Input::Credit { client: 1 }),
            Ok(vec![Action::Scatter {
                step: 2,
                awaited: false
            }])
        );
        // Client 1 owes nothing now, and nobody else takes part.
        for client in [1, 2] {
            let refused = Input::Credit { client };
            assert_eq!(on(refused), Err(Unexpected(refused)));
        }
        assert_eq!(on(Input::Credit { client: 0 }), Ok(vec![]));
        assert_eq!(win.disk_owed(), 0);
    }
}
