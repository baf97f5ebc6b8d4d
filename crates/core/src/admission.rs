//! Admission: which submitted collectives may run now, which wait, and
//! which are turned away, as a machine without bytes, sockets or a clock.
//!
//! The master I/O node decides for the whole deployment: a request
//! beyond the live cap waits in a FIFO queue, and a single-participant
//! (session) request is refused once the queue is at its cap too. A
//! multi-participant (fleet) request is never refused: its
//! non-submitting participants are already blocked in the collective and
//! hear only from the servers, so a refusal would strand them; it queues
//! however full the queue is. When a run retires its slot goes to the
//! oldest waiting request. A peer starts whatever the master relayed: its
//! admission has no cap ([`Caps::NONE`]).
//!
//! [`Admission`] is generic over what it queues. It lives in
//! `mesh::Node`, the I/O node's one composition, whose schedulers queue
//! different things: `ServerNode` each request with the bytes a
//! one-shot carries, the mesh a name for it.

use std::collections::VecDeque;

use crate::error::AdmissionIssue;

/// A deployment's admission caps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Caps {
    /// Collectives live at once (at least 1).
    pub(crate) live: usize,
    /// Requests waiting beyond them.
    pub(crate) queued: usize,
}

impl Caps {
    /// No cap at all: a peer admits what the master relayed.
    pub(crate) const NONE: Caps = Caps::new(usize::MAX, usize::MAX);

    /// At most `live` collectives live, `queued` waiting.
    pub(crate) const fn new(live: usize, queued: usize) -> Self {
        Caps { live, queued }
    }

    /// The one refusal rule: with `live` collectives live and `queued`
    /// waiting, the next session request is turned away. The health
    /// gauges read the same rule.
    pub(crate) fn refusing(&self, live: usize, queued: usize) -> bool {
        live >= self.live && queued >= self.queued
    }
}

/// What admission answers a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Admit<T> {
    /// Start it now: it holds a live slot until [`Admission::retire`].
    Start(T),
    /// It waits for a slot.
    Queue,
    /// Turn it away, for this reason.
    Reject(T, AdmissionIssue),
}

/// One I/O node's admission: the live count, the FIFO queue and both
/// caps.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Admission<T> {
    caps: Caps,
    live: usize,
    queue: VecDeque<T>,
}

impl<T> Admission<T> {
    /// Nothing live, nothing waiting.
    pub(crate) fn new(caps: Caps) -> Self {
        Admission {
            caps,
            live: 0,
            queue: VecDeque::new(),
        }
    }

    /// Collectives live, and requests waiting.
    pub(crate) fn counts(&self) -> (usize, usize) {
        (self.live, self.queue.len())
    }

    /// A request arrived; `fleet` when more than its submitter take part.
    pub(crate) fn submit(&mut self, item: T, fleet: bool) -> Admit<T> {
        let (live, queued) = (self.live, self.queue.len());
        if live < self.caps.live {
            self.live += 1;
            return Admit::Start(item);
        }
        if fleet || !self.caps.refusing(live, queued) {
            self.queue.push_back(item);
            return Admit::Queue;
        }
        let max = self.caps.live;
        Admit::Reject(
            item,
            match self.caps.queued {
                0 => AdmissionIssue::Saturated { live, max },
                max => AdmissionIssue::QueueFull { queued, max },
            },
        )
    }

    /// A live collective retired; the oldest waiting request, if any,
    /// takes its slot and is to start now.
    pub(crate) fn retire(&mut self) -> Option<T> {
        let next = self.queue.pop_front();
        self.live -= usize::from(next.is_none());
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_queue_then_are_refused_and_fleets_always_queue() {
        let mut adm = Admission::new(Caps::new(1, 1));
        assert_eq!(adm.submit('a', false), Admit::Start('a'));
        assert_eq!(adm.submit('b', false), Admit::Queue);
        let full = AdmissionIssue::QueueFull { queued: 1, max: 1 };
        assert_eq!(adm.submit('c', false), Admit::Reject('c', full));
        assert_eq!(adm.submit('d', true), Admit::Queue);
        assert_eq!(adm.counts(), (1, 2));
        // Slots pass on in arrival order, then free up.
        assert_eq!(adm.retire(), Some('b'));
        assert_eq!(adm.retire(), Some('d'));
        assert_eq!(adm.retire(), None);
        assert_eq!(adm.counts(), (0, 0));
    }

    #[test]
    fn no_queue_is_saturated_and_a_peer_never_waits() {
        let mut adm = Admission::new(Caps::new(1, 0));
        assert_eq!(adm.submit(1, false), Admit::Start(1));
        let saturated = AdmissionIssue::Saturated { live: 1, max: 1 };
        assert_eq!(adm.submit(2, false), Admit::Reject(2, saturated));
        let mut peer = Admission::new(Caps::NONE);
        for n in 0..3 {
            assert_eq!(peer.submit(n, false), Admit::Start(n));
        }
        assert!(!Caps::NONE.refusing(3, 0));
    }
}
