//! The one bounded poll: how a thread waits for a small collective's
//! next hand-off.
//!
//! A small collective (its bytes below
//! `panda_msg::freelist::PIECE_MIN_BYTES` where they are counted,
//! `freelist::is_small`) crosses three threads whose every wait is
//! microseconds: an I/O node's driver waits for a small run's disk
//! answer, its disk task for the run's next command, and, in a session
//! collective, the compute node, once one server has answered, for the
//! others' answers, which are already in flight. Each of them first
//! polls with [`poll_handoff`], then parks. A bulk collective's
//! hand-offs are hundreds of microseconds of copying apart, which a
//! poll would take CPU from, so they park at once.

use std::time::{Duration, Instant};

/// How long a thread polls a small collective's hand-off before it
/// parks. A small hand-off is microseconds away, no longer than waking
/// a parked thread on an idle CPU, so the thread stays on its CPU for
/// about three such wake-ups first. Bounded, so a thread whose hand-off
/// is held up (a slow disk, a busy peer) and an idle node park.
pub(crate) const HANDOFF_POLL: Duration = Duration::from_micros(50);

/// Run `probe` until it finds something, yielding the CPU between
/// rounds, for at most [`HANDOFF_POLL`]; `None` when the time ran out
/// and the caller should park. The one place a thread of this crate
/// polls.
pub(crate) fn poll_handoff<T>(mut probe: impl FnMut() -> Option<T>) -> Option<T> {
    let until = Instant::now() + HANDOFF_POLL;
    loop {
        if let Some(found) = probe() {
            return Some(found);
        }
        if Instant::now() >= until {
            return None;
        }
        std::thread::yield_now();
    }
}
