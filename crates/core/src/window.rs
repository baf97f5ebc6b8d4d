//! The collective window: *when* each step of a server's schedule may
//! start, as a machine without bytes, sockets or a clock.
//!
//! The paper's mechanism is one rule per I/O node: keep up to `depth`
//! subchunks between "pieces requested" and "handed to the disk" (or
//! between "read issued" and "pushed"), strictly in schedule order.
//! [`Window`] is that rule and nothing else. A driver tells it what
//! happened ([`Input`]) and does what it answers ([`Action`]):
//! `ServerNode` with real messages and a disk task, the performance
//! model's server actor with reservations under a virtual clock. Both
//! therefore agree on when a step may start, and can differ only in how
//! long things take.
//!
//! A write keeps up to `depth` steps' fetches outstanding and up to
//! `depth` assembled steps at the disk; depth 1 is the strictly serial
//! oracle, whose next fetch waits for the previous write's answer. It
//! closes as its last step is handed over and retires when the close is
//! answered. A read keeps up to `depth` steps between issued and pushed,
//! and retires where its last piece is pushed: its close syncs nothing
//! and is not waited for. An empty schedule closes on [`Input::Start`].

use crate::protocol::OpKind;

/// Something that happened to one run. The disk answers in the order it
/// was asked, so `Written` and `Filled` name no step.
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
    /// The oldest unanswered [`Action::Write`] is on disk (write).
    Written,
    /// The oldest unanswered [`Action::Read`] is in memory (read).
    Filled,
    /// The oldest unanswered [`Action::Scatter`] has left (read).
    Pushed,
    /// The disk answered [`Action::Close`] (write): every byte is
    /// written and synced per the policy.
    Closed,
}

/// Something the driver is to do for the run, now.
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
    /// [`Input::Pushed`].
    Scatter {
        /// Step index within the schedule.
        step: usize,
    },
    /// End the run's disk work; a write's is answered by
    /// [`Input::Closed`], a read's by nothing.
    Close,
    /// The run is over on this server: tell the participants. Always
    /// the last action.
    Retire,
}

/// An input the window was not waiting for: a duplicate or unrequested
/// piece, a disk answer with nothing asked, anything after
/// [`Action::Retire`]. The window is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unexpected(pub Input);

/// One run's window over its schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    dir: OpKind,
    depth: usize,
    /// Per step, per piece: whether its [`Input::Piece`] came (write;
    /// a read only counts the steps).
    arrived: Vec<Vec<bool>>,
    started: bool,
    /// Oldest step still in the window: not yet handed to the disk
    /// (write), not yet pushed (read).
    front: usize,
    /// Next step to fetch (write) or to ask the disk for (read).
    next: usize,
    /// Write: [`Action::Write`]s not yet answered.
    disk_queued: usize,
    /// Read: next step to scatter; `next_scatter..next` are at the disk.
    next_scatter: usize,
    close_sent: bool,
    retired: bool,
}

impl Window {
    /// A window of `depth` (at least 1) over a schedule whose step `k`
    /// has `pieces[k]` pieces
    /// (`CollectiveSchedule::steps[k].sub.pieces.len()`).
    pub fn new(pieces: impl IntoIterator<Item = usize>, dir: OpKind, depth: usize) -> Self {
        Window {
            dir,
            depth: depth.max(1),
            arrived: pieces.into_iter().map(|n| vec![false; n]).collect(),
            started: false,
            front: 0,
            next: 0,
            disk_queued: 0,
            next_scatter: 0,
            close_sent: false,
            retired: false,
        }
    }

    /// Take one input and append what the driver is to do about it, in
    /// the order it is to do it.
    pub fn on(&mut self, input: Input, out: &mut Vec<Action>) -> Result<(), Unexpected> {
        let write = matches!(self.dir, OpKind::Write);
        match input {
            _ if self.retired => return Err(Unexpected(input)),
            Input::Start if !self.started => self.started = true,
            Input::Piece { step, piece }
                if write
                    && (self.front..self.next).contains(&step)
                    && self.arrived[step].get(piece) == Some(&false) =>
            {
                self.arrived[step][piece] = true;
            }
            Input::Written if write && self.disk_queued > 0 => self.disk_queued -= 1,
            Input::Filled if !write && self.next_scatter < self.next => {
                out.push(Action::Scatter {
                    step: self.next_scatter,
                });
                self.next_scatter += 1;
            }
            Input::Pushed if !write && self.front < self.next_scatter => self.front += 1,
            // The disk answers in order: every write before the close.
            Input::Closed if write && self.close_sent && self.disk_queued == 0 => {
                out.push(Action::Retire);
                self.retired = true;
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
        let steps = self.arrived.len();
        // Completed head steps go to the disk, which writes step k
        // while the pieces of k + 1.. arrive; the bound keeps one run
        // from monopolizing a disk it shares.
        while self.front < self.next
            && self.arrived[self.front].iter().all(|&here| here)
            && self.disk_queued < self.depth
        {
            out.push(Action::Write { step: self.front });
            self.disk_queued += 1;
            self.front += 1;
        }
        if self.front == steps && !self.close_sent {
            out.push(Action::Close);
            self.close_sent = true;
        }
        // Depth 1 is the strictly serialized oracle: the next fetch
        // waits for the disk write to land. Deeper windows keep fetching
        // while the disk works; its queue bound is the backpressure.
        while self.next < steps
            && self.next - self.front < self.depth
            && !(self.depth == 1 && self.disk_queued > 0)
        {
            for piece in 0..self.arrived[self.next].len() {
                out.push(Action::Fetch {
                    step: self.next,
                    piece,
                });
            }
            self.next += 1;
        }
    }

    fn advance_read(&mut self, out: &mut Vec<Action>) {
        let steps = self.arrived.len();
        // Up to `depth` steps between asked-for and pushed: depth 1 is
        // no read-ahead.
        while self.next < steps && self.next - self.front < self.depth {
            out.push(Action::Read { step: self.next });
            self.next += 1;
        }
        if self.front == steps && !self.close_sent {
            out.push(Action::Close);
            out.push(Action::Retire);
            self.close_sent = true;
            self.retired = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Everything around one window, without bytes or time: what it has
    /// asked for and is owed an answer to, and what it has done so far.
    #[derive(Clone)]
    struct World {
        win: Window,
        write: bool,
        depth: usize,
        shape: Vec<usize>,
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
        /// Inputs delivered.
        written: usize,
        filled: usize,
        pushed: usize,
        closes: usize,
        retires: usize,
    }

    impl World {
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
            next
        }

        /// Deliver `input`, then hold what the window answers to the rule.
        fn deliver(&mut self, input: Input) {
            match input {
                Input::Start => self.started = true,
                Input::Piece { step, piece } => self.pieces.retain(|&p| p != (step, piece)),
                Input::Written => self.written += 1,
                Input::Filled => self.filled += 1,
                Input::Pushed => {
                    self.pushing -= 1;
                    self.pushed += 1;
                }
                Input::Closed => {}
            }
            if matches!(input, Input::Written | Input::Filled | Input::Closed) {
                assert_eq!(self.disk.pop_front(), Some(input));
            }
            let mut acts = Vec::new();
            self.win.on(input, &mut acts).expect("a legal input");
            let steps = self.shape.len();
            for (i, &action) in acts.iter().enumerate() {
                assert_eq!(self.retires, 0, "{action:?} after Retire");
                match action {
                    Action::Fetch { step, piece } => {
                        // Schedule order, each piece exactly once.
                        assert!(self.write);
                        assert_eq!((step, piece), (self.fetched, self.fetching));
                        self.pieces.push((step, piece));
                        self.fetching += 1;
                        if self.fetching == self.shape[step] {
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
                    Action::Scatter { step } => {
                        assert_eq!(step, self.scatters, "scatters in schedule order, once");
                        assert!(step < self.filled);
                        self.scatters += 1;
                        self.pushing += 1;
                    }
                    Action::Close => {
                        assert_eq!(self.closes, 0, "one Close");
                        self.closes += 1;
                        if self.write {
                            assert_eq!(self.writes, steps);
                            self.disk.push_back(Input::Closed);
                        }
                    }
                    Action::Retire => {
                        assert_eq!((i + 1, self.closes), (acts.len(), 1));
                        if self.write {
                            assert_eq!(input, Input::Closed);
                            assert_eq!(self.written, steps);
                        } else {
                            // With its last push — or at once, having nothing to push.
                            assert!(input == Input::Pushed || steps == 0);
                            assert_eq!(self.pushed, steps);
                        }
                        self.retires += 1;
                    }
                }
            }
            // The window: at most `depth` steps fetched and not yet at
            // the disk, at most `depth` more there; depth 1 is strictly
            // serial. A read holds at most `depth` from asked to pushed.
            if self.write {
                assert!(self.fetched - self.writes <= self.depth);
                assert!(self.writes - self.written <= self.depth);
                if self.depth == 1 {
                    assert!(self.pieces.is_empty() || self.writes == self.written);
                    assert!(self.fetched - self.written <= 1);
                }
            } else {
                assert!(self.reads - self.pushed <= self.depth);
            }
        }

        /// Everything else that could be delivered must be refused and
        /// leave the window as it was.
        fn refuses_the_rest(&self) {
            let legal = self.deliverable();
            let steps = self.shape.len();
            let mut others = vec![
                Input::Start,
                Input::Written,
                Input::Filled,
                Input::Pushed,
                Input::Closed,
            ];
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
            let next = self.deliverable();
            if next.is_empty() {
                let steps = self.shape.len();
                assert_eq!(
                    (self.closes, self.retires),
                    (1, 1),
                    "ended without retiring"
                );
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

    /// Every schedule shape of up to 3 steps x up to 2 pieces, both
    /// directions, depths 1 to 3, every legal order of arrival.
    #[test]
    fn every_delivery_order_keeps_the_window_and_the_schedule_order() {
        let mut shapes: Vec<Vec<usize>> = vec![vec![]];
        for len in 0..3 {
            for shape in shapes.clone().into_iter().filter(|s| s.len() == len) {
                shapes.extend([1, 2].map(|n| [&shape[..], &[n]].concat()));
            }
        }
        assert_eq!(shapes.len(), 15);
        let mut orders = 0;
        for shape in &shapes {
            for dir in [OpKind::Write, OpKind::Read] {
                for depth in 1..=3 {
                    let world = World {
                        win: Window::new(shape.iter().copied(), dir, depth),
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
                        written: 0,
                        filled: 0,
                        pushed: 0,
                        closes: 0,
                        retires: 0,
                    };
                    orders += world.explore();
                }
            }
        }
        // Deeper windows leave more to interleave: far more orders than
        // the 90 cells, or the walk is not branching.
        assert!(orders > 1000, "{orders} orders");
    }

    #[test]
    fn depth_zero_is_depth_one() {
        let mut acts = Vec::new();
        let mut win = Window::new([1, 1], OpKind::Write, 0);
        win.on(Input::Start, &mut acts).unwrap();
        assert_eq!(acts, [Action::Fetch { step: 0, piece: 0 }]);
    }
}
