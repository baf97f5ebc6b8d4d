//! The library error type.

use std::fmt;

use panda_fs::FsError;
use panda_msg::MsgError;
use panda_schema::SchemaError;

/// Errors surfaced by Panda collective operations.
#[derive(Debug)]
pub enum PandaError {
    /// Geometry/schema validation failed.
    Schema(SchemaError),
    /// The message layer failed (timeout, disconnect).
    Msg(MsgError),
    /// A file-system backend failed.
    Fs(FsError),
    /// The memory and disk schemas of an array disagree on shape or
    /// element type.
    SchemaMismatch {
        /// The array name.
        array: String,
    },
    /// The caller's buffer does not match its memory-chunk size.
    BadClientBuffer {
        /// The array name.
        array: String,
        /// Expected size in bytes for this client's chunk.
        expected: usize,
        /// Size actually provided.
        actual: usize,
    },
    /// A protocol message could not be decoded (corrupt or mismatched
    /// versions).
    Decode {
        /// What was being decoded.
        context: &'static str,
    },
    /// The protocol saw a message it did not expect in this state.
    Protocol {
        /// Human-readable description.
        detail: String,
    },
    /// A configuration value or usage precondition is invalid. The
    /// typed [`ConfigIssue`] carries the offending values so callers
    /// can branch on the exact problem instead of parsing a message.
    Config {
        /// What exactly was wrong.
        issue: ConfigIssue,
    },
    /// A server refused to admit a collective request because the node
    /// is at capacity. This is a *flow-control* outcome, not a failure
    /// of the request itself: the submitter may retry later, shed load,
    /// or route elsewhere. The typed [`AdmissionIssue`] distinguishes a
    /// full wait queue from a node configured to never queue.
    Admission {
        /// Why the request was turned away.
        issue: AdmissionIssue,
    },
}

/// The precise reason a [`PandaError::Admission`] rejection was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionIssue {
    /// Every concurrent-collective slot is busy and the server is
    /// configured with no wait queue (`max_queued_collectives == 0`).
    Saturated {
        /// Collectives currently live on the server.
        live: usize,
        /// The configured `max_concurrent_collectives`.
        max: usize,
    },
    /// Every concurrent-collective slot is busy *and* the wait queue is
    /// full.
    QueueFull {
        /// Requests already waiting.
        queued: usize,
        /// The configured `max_queued_collectives`.
        max: usize,
    },
}

impl fmt::Display for AdmissionIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionIssue::Saturated { live, max } => write!(
                f,
                "server saturated: {live} live collectives of {max} allowed and no wait queue"
            ),
            AdmissionIssue::QueueFull { queued, max } => write!(
                f,
                "admission queue full: {queued} requests already waiting of {max} allowed"
            ),
        }
    }
}

/// The precise reason a [`PandaError::Config`] was raised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigIssue {
    /// `num_clients` or `num_servers` is zero; Panda needs at least one
    /// of each.
    NoNodes {
        /// Configured compute-node count.
        num_clients: usize,
        /// Configured I/O-node count.
        num_servers: usize,
    },
    /// The subchunk subdivision cap is zero.
    ZeroSubchunkBytes,
    /// The pipeline depth is zero (depth 1 means "unpipelined").
    ZeroPipelineDepth,
    /// The builder's `transports` launch was handed the wrong number of
    /// transports.
    TransportCount {
        /// Required count (`num_clients + num_servers`).
        expected: usize,
        /// Count actually supplied.
        actual: usize,
    },
    /// `shutdown` was called with an empty client list.
    NoClientHandles,
    /// The I/O worker-pool size is zero (each server needs at least one
    /// reorganization/disk worker).
    ZeroIoWorkers,
    /// `restart` was called on a group with no completed checkpoint.
    NoCheckpoint {
        /// The group's name.
        group: String,
    },
    /// `restart` found checkpoint files but no generation marker that
    /// records a *completed* checkpoint — the run crashed mid-write and
    /// neither `ckpt-a` nor `ckpt-b` can be trusted.
    CheckpointIncomplete {
        /// The group's name.
        group: String,
    },
    /// A group operation was given the wrong number of buffers.
    GroupArity {
        /// The group's name.
        group: String,
        /// Arrays in the group.
        arrays: usize,
        /// Buffers supplied by the caller.
        buffers: usize,
    },
    /// The submission-queue completion-thread count is zero (the
    /// `SubmitFs` backend needs at least one completion thread).
    ZeroCompletionThreads,
    /// `SyncPolicy::PerWrite` demands an fsync between consecutive
    /// subchunk writes, which serializes the disk stage; combining it
    /// with a pipeline depth above 1 contradicts itself.
    SyncPolicyConflict {
        /// The configured pipeline depth.
        pipeline_depth: usize,
    },
    /// The concurrent-collective cap is zero (a server must be able to
    /// run at least one collective; use `max_queued_collectives: 0` to
    /// disable queueing instead).
    ZeroConcurrentCollectives,
    /// A session submitted an array whose memory schema spans more than
    /// one compute node. Session collectives are single-submitter: the
    /// session's own buffers must cover the whole array.
    SessionMesh {
        /// The array name.
        array: String,
        /// Compute nodes the array's memory schema is distributed over.
        clients: usize,
    },
    /// Calibration needs the per-subchunk phase decomposition, which
    /// only a recorder with an event ring provides. Launch with
    /// `PandaConfig::with_recorder(Arc::new(TelemetryRecorder::with_ring(..)))`
    /// (or any recorder whose `timeline()` is `Some`).
    CalibrationNeedsTimeline,
}

impl fmt::Display for ConfigIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigIssue::NoNodes {
                num_clients,
                num_servers,
            } => write!(
                f,
                "need at least one client and one server (got {num_clients} clients, \
                 {num_servers} servers)"
            ),
            ConfigIssue::ZeroSubchunkBytes => write!(f, "subchunk cap must be nonzero"),
            ConfigIssue::ZeroPipelineDepth => write!(f, "pipeline depth must be at least 1"),
            ConfigIssue::TransportCount { expected, actual } => write!(
                f,
                "need {expected} transports (clients then servers), got {actual}"
            ),
            ConfigIssue::NoClientHandles => write!(f, "shutdown requires the client handles"),
            ConfigIssue::ZeroIoWorkers => write!(f, "io worker count must be at least 1"),
            ConfigIssue::NoCheckpoint { group } => {
                write!(f, "group '{group}' has no completed checkpoint")
            }
            ConfigIssue::CheckpointIncomplete { group } => write!(
                f,
                "group '{group}' has checkpoint files but no completed generation marker"
            ),
            ConfigIssue::GroupArity {
                group,
                arrays,
                buffers,
            } => write!(
                f,
                "group '{group}' has {arrays} arrays but {buffers} buffers were supplied"
            ),
            ConfigIssue::ZeroCompletionThreads => {
                write!(f, "disk completion thread count must be at least 1")
            }
            ConfigIssue::SyncPolicyConflict { pipeline_depth } => write!(
                f,
                "per-write fsync serializes the disk stage and cannot be combined with \
                 pipeline depth {pipeline_depth} (use depth 1 or a coarser sync policy)"
            ),
            ConfigIssue::ZeroConcurrentCollectives => {
                write!(f, "max concurrent collectives must be at least 1")
            }
            ConfigIssue::SessionMesh { array, clients } => write!(
                f,
                "session collectives are single-submitter but array '{array}' is \
                 distributed over {clients} compute nodes"
            ),
            ConfigIssue::CalibrationNeedsTimeline => write!(
                f,
                "calibration requires a recorder with an event ring (launch with \
                 PandaConfig::with_recorder(TelemetryRecorder::with_ring(..)) so \
                 per-subchunk phase durations are available)"
            ),
        }
    }
}

impl fmt::Display for PandaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PandaError::Schema(e) => write!(f, "schema error: {e}"),
            PandaError::Msg(e) => write!(f, "message layer error: {e}"),
            PandaError::Fs(e) => write!(f, "file system error: {e}"),
            PandaError::SchemaMismatch { array } => {
                write!(f, "memory/disk schema mismatch for array '{array}'")
            }
            PandaError::BadClientBuffer {
                array,
                expected,
                actual,
            } => write!(
                f,
                "client buffer for array '{array}' has {actual} bytes, expected {expected}"
            ),
            PandaError::Decode { context } => write!(f, "failed to decode {context}"),
            PandaError::Protocol { detail } => write!(f, "protocol error: {detail}"),
            PandaError::Config { issue } => write!(f, "configuration error: {issue}"),
            PandaError::Admission { issue } => write!(f, "admission rejected: {issue}"),
        }
    }
}

impl std::error::Error for PandaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PandaError::Schema(e) => Some(e),
            PandaError::Msg(e) => Some(e),
            PandaError::Fs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchemaError> for PandaError {
    fn from(e: SchemaError) -> Self {
        PandaError::Schema(e)
    }
}

impl From<MsgError> for PandaError {
    fn from(e: MsgError) -> Self {
        PandaError::Msg(e)
    }
}

impl From<FsError> for PandaError {
    fn from(e: FsError) -> Self {
        PandaError::Fs(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: PandaError = SchemaError::ZeroExtent { dim: 0 }.into();
        assert!(e.to_string().contains("schema"));
        let e: PandaError = MsgError::Disconnected.into();
        assert!(e.to_string().contains("message layer"));
        let e = PandaError::BadClientBuffer {
            array: "t".into(),
            expected: 8,
            actual: 4,
        };
        assert!(e.to_string().contains('8'));
    }

    #[test]
    fn config_issue_is_typed_and_displayed() {
        let e = PandaError::Config {
            issue: ConfigIssue::TransportCount {
                expected: 3,
                actual: 2,
            },
        };
        assert!(e.to_string().contains("configuration error"));
        assert!(e.to_string().contains("3 transports"));
        match e {
            PandaError::Config {
                issue: ConfigIssue::TransportCount { expected, actual },
            } => assert_eq!((expected, actual), (3, 2)),
            other => panic!("wrong issue: {other}"),
        }
        let e = PandaError::Config {
            issue: ConfigIssue::GroupArity {
                group: "g".into(),
                arrays: 2,
                buffers: 1,
            },
        };
        assert!(e.to_string().contains("2 arrays"));
    }

    #[test]
    fn admission_issue_is_typed_and_displayed() {
        let e = PandaError::Admission {
            issue: AdmissionIssue::Saturated { live: 4, max: 4 },
        };
        assert!(e.to_string().contains("admission rejected"));
        assert!(e.to_string().contains("4 live collectives"));
        match e {
            PandaError::Admission {
                issue: AdmissionIssue::Saturated { live, max },
            } => assert_eq!((live, max), (4, 4)),
            other => panic!("wrong issue: {other}"),
        }
        let e = PandaError::Admission {
            issue: AdmissionIssue::QueueFull {
                queued: 16,
                max: 16,
            },
        };
        assert!(e.to_string().contains("queue full"));
    }
}
