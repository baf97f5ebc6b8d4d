//! Internal bridge from file-system backends to the unified
//! [`panda_obs`] recorder API.
//!
//! Every backend owns one [`FsObs`]. It fans each access event out to:
//!
//! 1. the backend's always-on [`IoStats`] counters,
//! 2. the externally attached [`Recorder`] (null by default; installed
//!    via `with_recorder` builders or [`crate::FileSystem::set_recorder`]).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use panda_obs::{Event, Recorder};

use crate::stats::IoStats;

/// Shared observability state of one backend instance.
#[derive(Debug)]
pub(crate) struct FsObs {
    /// Fabric rank this backend reports as (settable after creation
    /// because backends are usually built before ranks are assigned).
    node: AtomicU32,
    /// Always-on counters, handed out by `FileSystem::stats()`.
    stats: Arc<IoStats>,
    /// Externally attached recorder (null unless installed).
    external: RwLock<Arc<dyn Recorder>>,
}

impl FsObs {
    /// State with no external recorder.
    pub(crate) fn new() -> Self {
        Self::with_recorder(panda_obs::null_recorder(), 0)
    }

    /// State reporting to `recorder` as `node`.
    pub(crate) fn with_recorder(recorder: Arc<dyn Recorder>, node: u32) -> Self {
        FsObs {
            node: AtomicU32::new(node),
            stats: Arc::new(IoStats::new()),
            external: RwLock::new(recorder),
        }
    }

    /// The [`IoStats`] counters for `FileSystem::stats()`.
    pub(crate) fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Swap in an external recorder and reporting rank.
    pub(crate) fn set_recorder(&self, recorder: Arc<dyn Recorder>, node: u32) {
        self.node.store(node, Ordering::Relaxed);
        *self.external.write() = recorder;
    }

    /// Whether call sites should measure durations: only when an
    /// enabled external recorder is attached (the always-on counters
    /// never need the clock).
    pub(crate) fn timed(&self) -> bool {
        self.external.read().enabled()
    }

    /// Fan one event out to the counters and the external recorder.
    pub(crate) fn emit(&self, event: &Event<'_>) {
        self.stats.observe(event);
        let external = self.external.read();
        if external.enabled() {
            external.record(self.node.load(Ordering::Relaxed), event);
        }
    }
}

impl Default for FsObs {
    fn default() -> Self {
        Self::new()
    }
}
