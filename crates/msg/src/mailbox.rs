//! The one selective-receive mailbox both fabrics' endpoints own.
//!
//! Whatever carries a message to a node — a channel send in process, a
//! socket reader thread over TCP — ends in the same place: one
//! `Receiver<Envelope>` plus the MPI-style unexpected-message queue
//! that makes `recv_matching` selective.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};

use panda_obs::Event;

use crate::envelope::Envelope;
use crate::error::MsgError;
use crate::obs::MsgObs;
use crate::transport::MatchSpec;

/// One endpoint's receive side.
#[derive(Debug)]
pub(crate) struct Mailbox {
    rx: Receiver<Envelope>,
    /// Arrivals that did not match the spec of the receive in progress,
    /// kept in arrival order.
    pending: VecDeque<Envelope>,
    /// The endpoint's observability state; its send path emits through
    /// it too.
    pub(crate) obs: MsgObs,
    recv_timeout: Duration,
}

impl Mailbox {
    pub(crate) fn new(rx: Receiver<Envelope>, obs: MsgObs, recv_timeout: Duration) -> Self {
        Mailbox {
            rx,
            pending: VecDeque::new(),
            obs,
            recv_timeout,
        }
    }

    fn take_pending(&mut self, spec: MatchSpec) -> Option<Envelope> {
        let pos = self.pending.iter().position(|e| spec.matches(e))?;
        self.pending.remove(pos)
    }

    /// Report a delivered message. `wait` is the time this endpoint
    /// spent blocked for it (zero when it was already buffered or when
    /// no enabled recorder asked for timing).
    fn note_recv(&self, env: &Envelope, wait: Duration) {
        self.obs.emit(&Event::MsgReceived {
            from: env.src.index() as u32,
            tag: env.tag,
            bytes: env.len() as u64,
            wait,
        });
    }

    /// `Transport::recv_matching`: block up to the receive timeout.
    pub(crate) fn recv_matching(&mut self, spec: MatchSpec) -> Result<Envelope, MsgError> {
        if let Some(env) = self.take_pending(spec) {
            self.note_recv(&env, Duration::ZERO);
            return Ok(env);
        }
        let start = self.obs.timed().then(Instant::now);
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(remaining) {
                Ok(env) => {
                    if spec.matches(&env) {
                        let wait = start.map(|s| s.elapsed()).unwrap_or(Duration::ZERO);
                        self.note_recv(&env, wait);
                        return Ok(env);
                    }
                    self.pending.push_back(env);
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(MsgError::Timeout {
                        after_ms: self.recv_timeout.as_millis() as u64,
                    })
                }
                Err(RecvTimeoutError::Disconnected) => return Err(MsgError::Disconnected),
            }
        }
    }

    /// `Transport::try_recv_matching`: never blocks.
    pub(crate) fn try_recv_matching(
        &mut self,
        spec: MatchSpec,
    ) -> Result<Option<Envelope>, MsgError> {
        if let Some(env) = self.take_pending(spec) {
            self.note_recv(&env, Duration::ZERO);
            return Ok(Some(env));
        }
        loop {
            match self.rx.try_recv() {
                Ok(env) => {
                    if spec.matches(&env) {
                        self.note_recv(&env, Duration::ZERO);
                        return Ok(Some(env));
                    }
                    self.pending.push_back(env);
                }
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => return Err(MsgError::Disconnected),
            }
        }
    }
}
