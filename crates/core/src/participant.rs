//! The participant: what one compute node decides while it serves its
//! collectives, one after another, as a machine without bytes, sockets
//! or a clock.
//!
//! A client is "almost passive" (paper §2): it answers each server's
//! fetches and takes each server's deliveries until every server has
//! said, with a `Complete`, how many pieces it sent here. What it must
//! decide is small, and [`Participant`] decides all of it:
//!
//! * **Which collective a message belongs to.** The first message binds
//!   the request id (a fleet non-master learns it that way; a submitter
//!   knows it). Only each *pair* of nodes is FIFO: a server that has
//!   completed this collective may already be driving the fleet's next
//!   one while another server's `Complete` is still in flight on its own
//!   connection, so whatever a completed server sends is set aside, and
//!   taken first, in arrival order, when the next collective begins;
//!   anything else naming another request is refused.
//! * **Whether the servers' attestations hold.** A server's `Complete`
//!   must attest exactly the pieces that arrived from it: a lost or
//!   duplicated piece is a refusal, never a short buffer.
//! * **Whether a `Reject` is one.** It answers a submission: only the
//!   submitter gets one, only from the master server, and only before
//!   any piece or `Complete` of the request.
//!
//! Its scheduler — `PandaClient` with bytes and a transport, the mesh
//! with tags and queues — names the server by index and hands over each
//! message (`begin` a collective, then `take` one message at a time); it
//! only performs, through [`Serve`]: it says what a message is, packs or
//! unpacks a piece, and words a refusal as its own error. How the
//! collective ended, if it did, comes back as an [`End`].

use std::collections::VecDeque;

/// One message from a server, by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// A `Fetch` (write) or a delivered piece (read).
    Piece,
    /// The server is done with the request, attesting this many pieces
    /// sent here.
    Complete(u32),
    /// The master server turned the submission away.
    Reject,
}

/// How a collective ended here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum End<M> {
    /// Every server's `Complete` is in: the collective of this request
    /// is over here.
    Done(u64),
    /// The master server turned the submission away with this `Reject`.
    Rejected(M),
}

/// An arrival no honest server sends. The participant is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// The sender is not one of the servers.
    NotAServer,
    /// It names another request than the one being served.
    OtherRequest {
        /// The request being served.
        serving: u64,
    },
    /// A `Complete` attests another count than the pieces that arrived.
    Misattested {
        /// The pieces it attests.
        pieces: u32,
        /// The pieces that arrived from its server.
        arrived: u32,
    },
    /// A `Reject` from a peer, to a non-submitter, or after the request
    /// was already being served.
    StrayReject,
}

/// A scheduler of a [`Participant`], the client's side of what
/// `mesh::Perform` is to an I/O node: it performs what the participant
/// decides with whatever it moves. `M` is a message as it moves.
pub(crate) trait Serve<M> {
    /// How serving fails; the participant passes it on.
    type Error;
    /// The request `msg` names and its kind, or the error for a message
    /// no collective takes.
    fn classify(&self, msg: &M) -> Result<(u64, Arrival), Self::Error>;
    /// Pack the piece server `server` fetched and send it back, or
    /// unpack the one it delivered.
    fn piece(&mut self, server: usize, msg: M) -> Result<(), Self::Error>;
    /// The error for refusing server `server`'s `arrival` of `request`.
    fn refused(&self, server: usize, request: u64, arrival: Arrival, why: Refusal) -> Self::Error;
}

/// One compute node's side of its collectives: the one it serves, and
/// what arrived for the next.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Participant<M> {
    /// The request served: known to a submitter, bound by the first
    /// message otherwise.
    request: Option<u64>,
    /// This node submitted the request.
    submitter: bool,
    /// Per server: the pieces it sent here; `None` once its `Complete`
    /// is in.
    servers: Vec<Option<u32>>,
    /// Messages for the next collective, with their server, in arrival
    /// order.
    aside: VecDeque<(usize, M)>,
}

impl<M> Participant<M> {
    /// A node of `servers` servers, between collectives: every server is
    /// done, so whatever arrives is for the next.
    pub(crate) fn new(servers: usize) -> Self {
        Participant {
            request: None,
            submitter: false,
            servers: vec![None; servers],
            aside: VecDeque::new(),
        }
    }

    /// Messages set aside for the next collective.
    pub(crate) fn aside(&self) -> usize {
        self.aside.len()
    }

    /// Whether the collective begun is underway: some server has
    /// answered it, with a piece or its `Complete`, so the others'
    /// answers are on their way.
    pub(crate) fn underway(&self) -> bool {
        self.servers.iter().any(|s| *s != Some(0))
    }

    /// Begin serving a collective: the one this node `submitted`, or, for
    /// `None`, the one the first message names. What was set aside is
    /// taken first, in arrival order, and how the collective ended if
    /// that ended it; the rest stays aside.
    pub(crate) fn begin<F: Serve<M>>(
        &mut self,
        perf: &mut F,
        submitted: Option<u64>,
    ) -> Result<Option<End<M>>, F::Error> {
        self.request = submitted;
        self.submitter = submitted.is_some();
        self.servers.fill(Some(0));
        for _ in 0..self.aside.len() {
            let (server, msg) = self.aside.pop_front().expect("counted above");
            if let Some(end) = self.take(perf, server, msg)? {
                return Ok(Some(end));
            }
        }
        Ok(None)
    }

    /// Take `msg` from server `server` (0 is the master): serve its piece,
    /// count its `Complete`, or set it aside for the next collective. How
    /// the collective ended, if this ended it. A refusal leaves the
    /// participant as it was and serves nothing.
    pub(crate) fn take<F: Serve<M>>(
        &mut self,
        perf: &mut F,
        server: usize,
        msg: M,
    ) -> Result<Option<End<M>>, F::Error> {
        let (request, arrival) = perf.classify(&msg)?;
        let refused = |why| Err(perf.refused(server, request, arrival, why));
        let arrived = match self.servers.get(server) {
            None => return refused(Refusal::NotAServer),
            // Done with this collective: it is on to the next one.
            Some(None) => {
                self.aside.push_back((server, msg));
                return Ok(None);
            }
            Some(&Some(arrived)) => arrived,
        };
        let serving = self.request.unwrap_or(request);
        let untouched = !self.underway();
        self.servers[server] = match arrival {
            _ if request != serving => return refused(Refusal::OtherRequest { serving }),
            Arrival::Piece => Some(arrived + 1),
            Arrival::Complete(pieces) if pieces == arrived => None,
            Arrival::Complete(pieces) => return refused(Refusal::Misattested { pieces, arrived }),
            Arrival::Reject if server == 0 && self.submitter && untouched => {
                return Ok(Some(End::Rejected(msg)));
            }
            Arrival::Reject => return refused(Refusal::StrayReject),
        };
        self.request = Some(serving);
        match arrival {
            Arrival::Piece => perf.piece(server, msg).map(|()| None),
            _ if self.servers.iter().all(Option::is_none) => Ok(Some(End::Done(serving))),
            _ => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Arrival::*;

    /// A message here: its request, its kind, and a label to tell it by;
    /// one labelled `'?'` is no collective's.
    type M = (u64, Arrival, char);

    /// What was served: each piece's server and label, in order. Its
    /// error is the refusal, or `None` for a message no collective takes.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Log(Vec<(usize, char)>);

    impl Serve<M> for Log {
        type Error = Option<Refusal>;

        fn classify(&self, &(request, arrival, label): &M) -> Result<(u64, Arrival), Self::Error> {
            match label {
                '?' => Err(None),
                _ => Ok((request, arrival)),
            }
        }

        fn piece(&mut self, server: usize, (.., label): M) -> Result<(), Self::Error> {
            self.0.push((server, label));
            Ok(())
        }

        fn refused(&self, _: usize, _: u64, _: Arrival, why: Refusal) -> Self::Error {
            Some(why)
        }
    }

    /// A participant of `servers` servers that began the collective
    /// `submitted` with nothing set aside.
    fn begun(servers: usize, submitted: Option<u64>) -> Participant<M> {
        let mut p = Participant::new(servers);
        assert_eq!(p.begin(&mut Log::default(), submitted), Ok(None));
        p
    }

    /// Messages set aside during collective 7 are taken at collective 8,
    /// in arrival order and before any that arrives once it began; a
    /// refusal — the set-aside queue included — leaves no mark and serves
    /// nothing.
    #[test]
    fn a_non_submitter_binds_the_first_request_and_counts_per_server() {
        let (mut p, mut log) = (begun(2, None), Log::default());
        for (server, msg) in [
            (1, (7, Piece, 'a')),
            (0, (7, Piece, 'b')),
            (1, (7, Piece, 'c')),
        ] {
            assert_eq!(p.take(&mut log, server, msg), Ok(None));
        }
        assert_eq!(p.take(&mut log, 0, (7, Complete(1), 'd')), Ok(None));
        // Server 0 is on to the next collective; server 1 is not done.
        assert_eq!(p.take(&mut log, 0, (8, Piece, 'e')), Ok(None));
        assert_eq!(p.take(&mut log, 0, (8, Complete(1), 'f')), Ok(None));
        let before = (p.clone(), log.clone());
        let short = Refusal::Misattested {
            pieces: 1,
            arrived: 2,
        };
        let refused = [
            (
                1,
                (8, Piece, 'x'),
                Some(Refusal::OtherRequest { serving: 7 }),
            ),
            (1, (7, Complete(1), 'x'), Some(short)),
            (2, (7, Piece, 'x'), Some(Refusal::NotAServer)),
            (1, (7, Reject, 'x'), Some(Refusal::StrayReject)),
            (1, (7, Piece, '?'), None),
        ];
        for (server, msg, why) in refused {
            assert_eq!(p.take(&mut log, server, msg), Err(why), "{msg:?}");
            assert_eq!((&p, &log), (&before.0, &before.1), "{msg:?} left a mark");
        }
        assert_eq!(p.aside(), 2);
        let done = p.take(&mut log, 1, (7, Complete(2), 'g'));
        assert_eq!(done, Ok(Some(End::Done(7))));
        assert_eq!(p.begin(&mut log, None), Ok(None));
        assert_eq!(p.take(&mut log, 1, (8, Piece, 'h')), Ok(None));
        let served = [(1, 'a'), (0, 'b'), (1, 'c'), (0, 'e'), (1, 'h')];
        assert_eq!(log.0, served);
        assert_eq!(
            p.take(&mut log, 1, (8, Complete(1), 'i')),
            Ok(Some(End::Done(8)))
        );
        assert_eq!(p.aside(), 0);
    }

    /// Between collectives every server is done, so what arrives is set
    /// aside; when the next collective begins, a `Complete` among it
    /// that ends it is `begin`'s answer, and what came after it stays
    /// aside for the one after.
    #[test]
    fn a_collective_ended_by_what_was_set_aside_ends_in_begin() {
        let (mut p, mut log) = (Participant::new(1), Log::default());
        for msg in [(3, Piece, 'a'), (3, Complete(1), 'b'), (4, Piece, 'c')] {
            assert_eq!(p.take(&mut log, 0, msg), Ok(None));
        }
        assert_eq!(p.begin(&mut log, None), Ok(Some(End::Done(3))));
        assert_eq!((log.0.as_slice(), p.aside()), (&[(0, 'a')][..], 1));
        assert_eq!(p.begin(&mut log, None), Ok(None));
        assert_eq!(p.take(&mut log, 0, (4, Piece, 'd')), Ok(None));
        assert_eq!(log.0, [(0, 'a'), (0, 'c'), (0, 'd')]);
    }

    /// A collective is underway from the first answer any server gives
    /// it, a piece or a `Complete`, until it ends; a refusal is no
    /// answer, and a set-aside answer taken in `begin` is one.
    #[test]
    fn a_collective_is_underway_from_its_first_answer() {
        let mut log = Log::default();
        for first in [(0, (5, Piece, 'p')), (1, (5, Complete(0), 'c'))] {
            let mut p = begun(2, Some(5));
            assert!(!p.underway());
            assert!(p.take(&mut log, 0, (6, Piece, 'x')).is_err());
            assert!(!p.underway(), "a refusal answered nothing");
            assert_eq!(p.take(&mut log, first.0, first.1), Ok(None));
            assert!(p.underway(), "{first:?}");
        }
        let mut p = Participant::new(1);
        assert_eq!(p.take(&mut log, 0, (3, Piece, 'a')), Ok(None));
        assert_eq!(p.begin(&mut log, None), Ok(None));
        assert!(p.underway(), "the set-aside piece answered it");
    }

    #[test]
    fn a_refused_first_message_binds_nothing() {
        let mut p = begun(1, None);
        let reject = p.take(&mut Log::default(), 0, (3, Reject, 'r'));
        assert_eq!(reject, Err(Some(Refusal::StrayReject)));
        assert_eq!(p, begun(1, None));
    }

    #[test]
    fn a_reject_answers_a_submission_from_the_master_only() {
        let mut log = Log::default();
        let reject = (5, Reject, 'r');
        let rejected = Ok(Some(End::Rejected(reject)));
        assert_eq!(begun(2, Some(5)).take(&mut log, 0, reject), rejected);
        // From a peer; after a piece; after a Complete; to a non-submitter.
        let stray = Err(Some(Refusal::StrayReject));
        assert_eq!(begun(2, Some(5)).take(&mut log, 1, reject), stray);
        for (server, arrival) in [(1, Piece), (1, Complete(0)), (0, Piece)] {
            let mut served = begun(2, Some(5));
            served.take(&mut log, server, (5, arrival, 'p')).unwrap();
            assert_eq!(served.take(&mut log, 0, reject), stray);
        }
        assert_eq!(begun(2, None).take(&mut log, 0, reject), stray);
    }
}
