//! The typed Panda message set and its tags.
//!
//! One collective operation exchanges these messages (paper §2):
//!
//! ```text
//! master client ── Collective ──► master server
//! master server ── Collective ──► every other server      (broadcast)
//! server        ── Fetch ───────► client                  (write path)
//! client        ── Data ────────► server                  (write path)
//! server        ── Data ────────► client                  (read path)
//! server        ── Complete ────► every participant       (pieces it sent)
//! ```
//!
//! Completion is per server, not a chain: a participant is done when
//! every server's `Complete` has arrived, and each `Complete` follows
//! that server's own `Fetch`/`Data` traffic on the same pairwise-FIFO
//! channel — so no ordering *between* channels (which TCP does not
//! give) is ever relied on, and a client needs no plan of its own to
//! know how many pieces to wait for. (Between requests too: what a
//! server sends a client after its `Complete` belongs to a later
//! request, and the client keeps it for that one.)
//!
//! The `Raw*` messages implement the comparison baselines (naive
//! client-directed I/O and two-phase I/O), where compute nodes — not
//! servers — decide where in each file data lands.

use panda_fs::SyncPolicy;
use panda_msg::{Bytes, Envelope, MatchSpec, NodeId, Payload, Transport};
use panda_schema::Region;

use crate::array::ArrayMeta;
use crate::encode::{Reader, Writer};
use crate::error::{AdmissionIssue, PandaError};

/// Message tags, one per message kind (used for selective receive).
///
/// # Tag namespace
///
/// The space is split into two planes:
///
/// * **1–7, collective plane** — the server-directed protocol (4 and 6
///   belonged to a retired completion chain and stay unassigned, so
///   per-tag series remain comparable across versions). Since
///   array groups became the unit of scheduling, one [`COLLECTIVE`](tags::COLLECTIVE)
///   request carries *every* array of a group (its body holds a
///   `Vec<ArrayOp>`), and the per-piece traffic ([`FETCH`](tags::FETCH), [`DATA`](tags::DATA))
///   disambiguates arrays by the `array` index plus a request-global
///   `seq` — batching added **no** new tags, which is what keeps
///   in-flight collectives from different arrays safely interleavable
///   on one pairwise-FIFO transport.
/// * **8–14, raw plane** — positioned-I/O messages used by the
///   comparison baselines and by out-of-band metadata (schema
///   manifests, checkpoint markers).
///
/// [`DATA`](tags::DATA) payloads may additionally travel *framed* (a protocol head
/// plus an uncopied data body via `Transport::send_vectored`); framing
/// never changes the logical bytes, so tags stay a complete routing key.
///
/// Every tag must be unique — receivers match on `(src, tag)` only.
/// [`ALL`](tags::ALL) enumerates the namespace; a unit test asserts uniqueness.
pub mod tags {
    /// Collective request broadcast.
    pub const COLLECTIVE: u32 = 1;
    /// Server asks a client for a region (write path).
    pub const FETCH: u32 = 2;
    /// Region payload (either direction).
    pub const DATA: u32 = 3;
    /// Server tells a participant its share of the collective is done.
    pub const COMPLETE: u32 = 5;
    /// Orderly server shutdown.
    pub const SHUTDOWN: u32 = 7;
    /// Baselines: positioned write request.
    pub const RAW_WRITE: u32 = 8;
    /// Baselines: positioned read request.
    pub const RAW_READ: u32 = 9;
    /// Baselines: read reply payload.
    pub const RAW_DATA: u32 = 10;
    /// Baselines: client finished issuing raw operations.
    pub const RAW_DONE: u32 = 11;
    /// Baselines: acknowledgement / barrier reply.
    pub const RAW_ACK: u32 = 12;
    /// File length query (schema manifests, tools).
    pub const RAW_STAT: u32 = 13;
    /// Reply to [`RAW_STAT`].
    pub const RAW_STAT_REPLY: u32 = 14;
    /// Master server → submitter: collective request refused admission.
    pub const REJECT: u32 = 15;

    /// The complete tag namespace, with stable names (reports, tests).
    pub const ALL: [(u32, &str); 13] = [
        (COLLECTIVE, "collective"),
        (FETCH, "fetch"),
        (DATA, "data"),
        (COMPLETE, "complete"),
        (SHUTDOWN, "shutdown"),
        (RAW_WRITE, "raw_write"),
        (RAW_READ, "raw_read"),
        (RAW_DATA, "raw_data"),
        (RAW_DONE, "raw_done"),
        (RAW_ACK, "raw_ack"),
        (RAW_STAT, "raw_stat"),
        (RAW_STAT_REPLY, "raw_stat_reply"),
        (REJECT, "reject"),
    ];
}

/// Direction of a collective operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Write arrays from compute-node memory to disk.
    Write,
    /// Read arrays from disk into compute-node memory.
    Read,
}

/// One array inside a collective request, with the file tag its per-
/// server files are derived from (`"<tag>.s<server>"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayOp {
    /// Array metadata (both schemas).
    pub meta: ArrayMeta,
    /// Base file name for this operation.
    pub file_tag: String,
    /// For section reads: restrict the collective to this global-array
    /// region. `None` moves the whole array. Only valid for reads.
    pub section: Option<Region>,
}

/// The single high-level request that starts a collective operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectiveRequest {
    /// Submitter-unique request id. Every per-request message (`Fetch`,
    /// `Data`, `Complete`, `Reject`) echoes it,
    /// which is what lets concurrent collectives demultiplex on shared
    /// pairwise-FIFO transports.
    pub request: u64,
    /// Fabric ranks of the compute nodes holding the data, in mesh
    /// order: a plan piece's `client` index selects
    /// `participants[piece.client]`. A fleet-wide collective lists
    /// `0..num_clients`; a session collective lists just the
    /// submitter's own rank.
    pub participants: Vec<u32>,
    /// Scheduling priority on the servers (higher runs first; equal
    /// priorities round-robin).
    pub priority: u8,
    /// Write or read.
    pub op: OpKind,
    /// The arrays, in execution order.
    pub arrays: Vec<ArrayOp>,
    /// Subchunk subdivision cap in bytes.
    pub subchunk_bytes: usize,
    /// Number of subchunks each server keeps in flight (1 = the
    /// unpipelined transfer order; ≥ 2 overlaps client exchange with
    /// disk I/O).
    pub pipeline_depth: usize,
    /// When the disk stage flushes written data to stable storage.
    pub sync_policy: SyncPolicy,
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Start a collective operation.
    Collective(CollectiveRequest),
    /// Server → client: send me this region of array `array`.
    Fetch {
        /// The collective request this fetch serves; the client echoes
        /// it in the matching [`Msg::Data`] so servers running several
        /// collectives can route the reply.
        request: u64,
        /// Index of the array within the collective request.
        array: u32,
        /// Fetch sequence number, echoed back in the matching
        /// [`Msg::Data`] (unique within one request on one server).
        seq: u64,
        /// Requested global-array region.
        region: Region,
    },
    /// Region payload, client → server (write) or server → client
    /// (read). The payload is the region packed in row-major order.
    Data {
        /// The collective request the payload belongs to (0 on the raw
        /// two-phase exchange plane, which has no request ids).
        request: u64,
        /// Index of the array within the collective request.
        array: u32,
        /// Fetch sequence number (write path) or chunk id (two-phase
        /// exchange).
        seq: u64,
        /// The region carried.
        region: Region,
        /// Packed row-major bytes of the region. A [`Bytes`] so a
        /// framed arrival (or a shared disk buffer on the send side)
        /// reaches the consumer without a copy.
        payload: Bytes,
    },
    /// Server → each participant: my share of the collective is
    /// complete (on disk per the sync policy, or fully pushed).
    Complete {
        /// Which collective.
        request: u64,
        /// How many [`Msg::Fetch`] (write) or [`Msg::Data`] (read)
        /// messages this server sent the recipient for the request. The
        /// recipient checks it against what arrived, so a lost or
        /// duplicated piece is a typed error rather than a short buffer.
        pieces: u32,
    },
    /// Master server → submitter: the collective was refused admission
    /// (the node is at capacity). Surfaced to the caller as
    /// [`PandaError::Admission`].
    Reject {
        /// Which collective.
        request: u64,
        /// Why it was turned away.
        reason: AdmissionIssue,
    },
    /// Terminate a server thread.
    Shutdown,
    /// Baselines: write `payload` at `offset` of `file`.
    RawWrite {
        /// Server-local file name.
        file: String,
        /// Byte offset.
        offset: u64,
        /// Data to write.
        payload: Vec<u8>,
    },
    /// Baselines: read `len` bytes at `offset` of `file`.
    RawRead {
        /// Server-local file name.
        file: String,
        /// Byte offset.
        offset: u64,
        /// Bytes to read.
        len: u64,
        /// Request id echoed in the [`Msg::RawData`] reply.
        seq: u64,
    },
    /// Baselines: reply to [`Msg::RawRead`].
    RawData {
        /// Echoed request id.
        seq: u64,
        /// The bytes read.
        payload: Vec<u8>,
    },
    /// Baselines: this client has issued all its raw operations for the
    /// current logical op; the server replies [`Msg::RawAck`] once all
    /// clients have done so and files are synced.
    RawDone,
    /// Baselines: completion barrier reply.
    RawAck,
    /// Query a file's length (used for schema manifests whose size the
    /// reader does not know in advance).
    RawStat {
        /// Server-local file name.
        file: String,
        /// Request id echoed in the reply.
        seq: u64,
    },
    /// Reply to [`Msg::RawStat`].
    RawStatReply {
        /// Echoed request id.
        seq: u64,
        /// File length in bytes, or `u64::MAX` if the file does not
        /// exist.
        len: u64,
    },
}

impl Msg {
    /// The transport tag for this message kind.
    pub fn tag(&self) -> u32 {
        match self {
            Msg::Collective(_) => tags::COLLECTIVE,
            Msg::Fetch { .. } => tags::FETCH,
            Msg::Data { .. } => tags::DATA,
            Msg::Complete { .. } => tags::COMPLETE,
            Msg::Reject { .. } => tags::REJECT,
            Msg::Shutdown => tags::SHUTDOWN,
            Msg::RawWrite { .. } => tags::RAW_WRITE,
            Msg::RawRead { .. } => tags::RAW_READ,
            Msg::RawData { .. } => tags::RAW_DATA,
            Msg::RawDone => tags::RAW_DONE,
            Msg::RawAck => tags::RAW_ACK,
            Msg::RawStat { .. } => tags::RAW_STAT,
            Msg::RawStatReply { .. } => tags::RAW_STAT_REPLY,
        }
    }

    /// Encode the message body (the tag travels separately).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Msg::Collective(req) => {
                w.u64(req.request);
                w.u8(req.priority);
                w.size(req.participants.len());
                for &p in &req.participants {
                    w.u32(p);
                }
                w.u8(match req.op {
                    OpKind::Write => 0,
                    OpKind::Read => 1,
                });
                w.size(req.subchunk_bytes);
                w.size(req.pipeline_depth);
                w.u8(match req.sync_policy {
                    SyncPolicy::PerWrite => 0,
                    SyncPolicy::PerFile => 1,
                    SyncPolicy::PerCollective => 2,
                });
                w.size(req.arrays.len());
                for a in &req.arrays {
                    w.array_meta(&a.meta);
                    w.str(&a.file_tag);
                    match &a.section {
                        None => w.u8(0),
                        Some(sec) => {
                            w.u8(1);
                            w.region(sec);
                        }
                    }
                }
            }
            Msg::Fetch {
                request,
                array,
                seq,
                region,
            } => {
                w.u64(*request);
                w.u32(*array);
                w.u64(*seq);
                w.region(region);
            }
            Msg::Data {
                request,
                array,
                seq,
                region,
                payload,
            } => {
                w.u64(*request);
                w.u32(*array);
                w.u64(*seq);
                w.region(region);
                w.bytes(payload);
            }
            Msg::Complete { request, pieces } => {
                w.u64(*request);
                w.u32(*pieces);
            }
            Msg::Reject { request, reason } => {
                w.u64(*request);
                match reason {
                    AdmissionIssue::Saturated { live, max } => {
                        w.u8(0);
                        w.size(*live);
                        w.size(*max);
                    }
                    AdmissionIssue::QueueFull { queued, max } => {
                        w.u8(1);
                        w.size(*queued);
                        w.size(*max);
                    }
                }
            }
            Msg::Shutdown | Msg::RawDone | Msg::RawAck => {}
            Msg::RawWrite {
                file,
                offset,
                payload,
            } => {
                w.str(file);
                w.u64(*offset);
                w.bytes(payload);
            }
            Msg::RawRead {
                file,
                offset,
                len,
                seq,
            } => {
                w.str(file);
                w.u64(*offset);
                w.u64(*len);
                w.u64(*seq);
            }
            Msg::RawData { seq, payload } => {
                w.u64(*seq);
                w.bytes(payload);
            }
            Msg::RawStat { file, seq } => {
                w.str(file);
                w.u64(*seq);
            }
            Msg::RawStatReply { seq, len } => {
                w.u64(*seq);
                w.u64(*len);
            }
        }
        w.finish()
    }

    /// Decode a message from its tag and body.
    pub fn decode(tag: u32, payload: &[u8]) -> Result<Msg, PandaError> {
        let mut r = Reader::new(payload);
        let msg = match tag {
            tags::COLLECTIVE => {
                let request = r.u64()?;
                let priority = r.u8()?;
                let np = r.size()?;
                if np > 4096 {
                    return Err(PandaError::Decode {
                        context: "participant count",
                    });
                }
                let mut participants = Vec::with_capacity(np);
                for _ in 0..np {
                    participants.push(r.u32()?);
                }
                let op = match r.u8()? {
                    0 => OpKind::Write,
                    1 => OpKind::Read,
                    _ => return Err(PandaError::Decode { context: "op kind" }),
                };
                let subchunk_bytes = r.size()?;
                let pipeline_depth = r.size()?;
                let sync_policy = match r.u8()? {
                    0 => SyncPolicy::PerWrite,
                    1 => SyncPolicy::PerFile,
                    2 => SyncPolicy::PerCollective,
                    _ => {
                        return Err(PandaError::Decode {
                            context: "sync policy",
                        })
                    }
                };
                let n = r.size()?;
                if n > 4096 {
                    return Err(PandaError::Decode {
                        context: "array count",
                    });
                }
                let mut arrays = Vec::with_capacity(n);
                for _ in 0..n {
                    let meta = r.array_meta()?;
                    let file_tag = r.str()?;
                    let section = match r.u8()? {
                        0 => None,
                        1 => Some(r.region()?),
                        _ => {
                            return Err(PandaError::Decode {
                                context: "section flag",
                            })
                        }
                    };
                    arrays.push(ArrayOp {
                        meta,
                        file_tag,
                        section,
                    });
                }
                Msg::Collective(CollectiveRequest {
                    request,
                    participants,
                    priority,
                    op,
                    arrays,
                    subchunk_bytes,
                    pipeline_depth,
                    sync_policy,
                })
            }
            tags::FETCH => Msg::Fetch {
                request: r.u64()?,
                array: r.u32()?,
                seq: r.u64()?,
                region: r.region()?,
            },
            tags::DATA => Msg::Data {
                request: r.u64()?,
                array: r.u32()?,
                seq: r.u64()?,
                region: r.region()?,
                payload: r.bytes()?.into(),
            },
            tags::COMPLETE => Msg::Complete {
                request: r.u64()?,
                pieces: r.u32()?,
            },
            tags::REJECT => {
                let request = r.u64()?;
                let reason = match r.u8()? {
                    0 => AdmissionIssue::Saturated {
                        live: r.size()?,
                        max: r.size()?,
                    },
                    1 => AdmissionIssue::QueueFull {
                        queued: r.size()?,
                        max: r.size()?,
                    },
                    _ => {
                        return Err(PandaError::Decode {
                            context: "admission reason",
                        })
                    }
                };
                Msg::Reject { request, reason }
            }
            tags::SHUTDOWN => Msg::Shutdown,
            tags::RAW_WRITE => Msg::RawWrite {
                file: r.str()?,
                offset: r.u64()?,
                payload: r.bytes()?,
            },
            tags::RAW_READ => Msg::RawRead {
                file: r.str()?,
                offset: r.u64()?,
                len: r.u64()?,
                seq: r.u64()?,
            },
            tags::RAW_DATA => Msg::RawData {
                seq: r.u64()?,
                payload: r.bytes()?,
            },
            tags::RAW_DONE => Msg::RawDone,
            tags::RAW_ACK => Msg::RawAck,
            tags::RAW_STAT => Msg::RawStat {
                file: r.str()?,
                seq: r.u64()?,
            },
            tags::RAW_STAT_REPLY => Msg::RawStatReply {
                seq: r.u64()?,
                len: r.u64()?,
            },
            _ => {
                return Err(PandaError::Decode {
                    context: "unknown tag",
                })
            }
        };
        Ok(msg)
    }

    /// Decode a delivered envelope, consuming it.
    ///
    /// A [`tags::DATA`] arrival is decoded without copying the packed
    /// region: framed (head = the fixed fields + byte length, body = the
    /// region), the body's `Bytes` moves straight into [`Msg::Data`];
    /// inline (one buffer off a socket), the head is cut off the front
    /// of that same buffer, which becomes the payload. Every other
    /// message falls back to [`Msg::decode`] over the contiguous bytes.
    pub fn decode_envelope(env: Envelope) -> Result<Msg, PandaError> {
        if env.tag != tags::DATA {
            return Msg::decode(env.tag, &env.payload.into_contiguous());
        }
        let (head, _) = env.payload.as_parts();
        let mut r = Reader::new(head);
        let request = r.u64()?;
        let array = r.u32()?;
        let seq = r.u64()?;
        let region = r.region()?;
        let len = r.size()?;
        let rest = r.remaining();
        let payload = match env.payload {
            Payload::Framed { body, .. } if rest == 0 && len == body.len() => body,
            Payload::Inline(mut buf) if len == rest => {
                buf.drain(..buf.len() - len);
                buf.into()
            }
            _ => {
                return Err(PandaError::Decode {
                    context: "data length",
                })
            }
        };
        Ok(Msg::Data {
            request,
            array,
            seq,
            region,
            payload,
        })
    }
}

/// Send a typed message.
pub fn send_msg<T: Transport + ?Sized>(
    t: &mut T,
    dst: NodeId,
    msg: &Msg,
) -> Result<(), PandaError> {
    t.send(dst, msg.tag(), msg.encode())?;
    Ok(())
}

/// Send a [`Msg::Data`] without building the owned message or copying
/// the payload into an envelope buffer: the fixed fields and the byte
/// length-prefix are encoded into a small head, and the payload rides
/// behind it through the transport's vectored path. This is the hot
/// path of both transfer directions; a shared (`Arc`) payload reaches
/// an in-process receiver as the same allocation.
///
/// The logical message is byte-identical to sending an owned
/// [`Msg::Data`] — framing never changes the wire format.
pub fn send_data<T: Transport + ?Sized>(
    t: &mut T,
    dst: NodeId,
    request: u64,
    array: u32,
    seq: u64,
    region: &Region,
    payload: impl Into<Bytes>,
) -> Result<(), PandaError> {
    let payload = payload.into();
    let mut w = Writer::new();
    w.u64(request);
    w.u32(array);
    w.u64(seq);
    w.region(region);
    w.size(payload.len());
    t.send_vectored(dst, tags::DATA, w.finish(), payload)?;
    Ok(())
}

/// Receive and decode the next message matching `spec`.
pub fn recv_msg<T: Transport + ?Sized>(
    t: &mut T,
    spec: MatchSpec,
) -> Result<(NodeId, Msg), PandaError> {
    let env = t.recv_matching(spec)?;
    let src = env.src;
    let msg = Msg::decode_envelope(env)?;
    Ok((src, msg))
}

/// Non-blocking [`recv_msg`]: `Ok(None)` when no matching message has
/// arrived yet. The group-concurrent server drains bursts of `Data`
/// replies with this so a whole batch can be reorganized in one parallel
/// pass.
pub fn try_recv_msg<T: Transport + ?Sized>(
    t: &mut T,
    spec: MatchSpec,
) -> Result<Option<(NodeId, Msg)>, PandaError> {
    match t.try_recv_matching(spec)? {
        None => Ok(None),
        Some(env) => {
            let src = env.src;
            let msg = Msg::decode_envelope(env)?;
            Ok(Some((src, msg)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_schema::{DataSchema, ElementType, Mesh, Shape};

    fn sample_meta() -> ArrayMeta {
        let shape = Shape::new(&[8, 8]).unwrap();
        let mem =
            DataSchema::block_all(shape.clone(), ElementType::F64, Mesh::new(&[2, 2]).unwrap())
                .unwrap();
        let disk = DataSchema::traditional_order(shape, ElementType::F64, 2).unwrap();
        ArrayMeta::new("t", mem, disk).unwrap()
    }

    fn roundtrip(msg: Msg) {
        let tag = msg.tag();
        let bytes = msg.encode();
        let back = Msg::decode(tag, &bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Msg::Collective(CollectiveRequest {
            request: (1 << 32) | 7,
            participants: vec![0, 1, 2, 3],
            priority: 3,
            op: OpKind::Write,
            arrays: vec![
                ArrayOp {
                    meta: sample_meta(),
                    file_tag: "t.ts0".into(),
                    section: None,
                },
                ArrayOp {
                    meta: sample_meta(),
                    file_tag: "t.ckpt".into(),
                    section: Some(Region::new(&[0, 2], &[4, 6]).unwrap()),
                },
            ],
            subchunk_bytes: 1 << 20,
            pipeline_depth: 1,
            sync_policy: SyncPolicy::PerWrite,
        }));
        roundtrip(Msg::Collective(CollectiveRequest {
            request: 0,
            participants: vec![],
            priority: 0,
            op: OpKind::Read,
            arrays: vec![],
            subchunk_bytes: 4096,
            pipeline_depth: 4,
            sync_policy: SyncPolicy::PerCollective,
        }));
        roundtrip(Msg::Fetch {
            request: 42,
            array: 3,
            seq: 99,
            region: Region::new(&[0, 1], &[4, 5]).unwrap(),
        });
        roundtrip(Msg::Data {
            request: 42,
            array: 0,
            seq: 7,
            region: Region::new(&[2], &[6]).unwrap(),
            payload: vec![1, 2, 3, 4].into(),
        });
        roundtrip(Msg::Complete {
            request: 42,
            pieces: 17,
        });
        roundtrip(Msg::Reject {
            request: 42,
            reason: AdmissionIssue::Saturated { live: 4, max: 4 },
        });
        roundtrip(Msg::Reject {
            request: 43,
            reason: AdmissionIssue::QueueFull {
                queued: 16,
                max: 16,
            },
        });
        roundtrip(Msg::Shutdown);
        roundtrip(Msg::RawWrite {
            file: "a.s0".into(),
            offset: 512,
            payload: vec![9; 16],
        });
        roundtrip(Msg::RawRead {
            file: "a.s0".into(),
            offset: 0,
            len: 64,
            seq: 5,
        });
        roundtrip(Msg::RawData {
            seq: 5,
            payload: vec![0; 64],
        });
        roundtrip(Msg::RawDone);
        roundtrip(Msg::RawAck);
        roundtrip(Msg::RawStat {
            file: "g/g.schema".into(),
            seq: 11,
        });
        roundtrip(Msg::RawStatReply { seq: 11, len: 42 });
    }

    #[test]
    fn tag_namespace_is_complete_and_distinct() {
        // Every tag in the namespace is unique ...
        let mut sorted: Vec<u32> = tags::ALL.iter().map(|&(t, _)| t).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), tags::ALL.len());
        // ... names are unique too ...
        let mut names: Vec<&str> = tags::ALL.iter().map(|&(_, n)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), tags::ALL.len());
        // ... and every Msg variant's tag appears in the namespace.
        let variants = [
            Msg::Collective(CollectiveRequest {
                request: 0,
                participants: vec![],
                priority: 0,
                op: OpKind::Write,
                arrays: vec![],
                subchunk_bytes: 1,
                pipeline_depth: 1,
                sync_policy: SyncPolicy::PerFile,
            }),
            Msg::Fetch {
                request: 0,
                array: 0,
                seq: 0,
                region: Region::new(&[0], &[1]).unwrap(),
            },
            Msg::Data {
                request: 0,
                array: 0,
                seq: 0,
                region: Region::new(&[0], &[1]).unwrap(),
                payload: vec![].into(),
            },
            Msg::Complete {
                request: 0,
                pieces: 0,
            },
            Msg::Reject {
                request: 0,
                reason: AdmissionIssue::Saturated { live: 0, max: 0 },
            },
            Msg::Shutdown,
            Msg::RawWrite {
                file: String::new(),
                offset: 0,
                payload: vec![],
            },
            Msg::RawRead {
                file: String::new(),
                offset: 0,
                len: 0,
                seq: 0,
            },
            Msg::RawData {
                seq: 0,
                payload: vec![],
            },
            Msg::RawDone,
            Msg::RawAck,
            Msg::RawStat {
                file: String::new(),
                seq: 0,
            },
            Msg::RawStatReply { seq: 0, len: 0 },
        ];
        assert_eq!(variants.len(), tags::ALL.len());
        for v in &variants {
            assert!(
                tags::ALL.iter().any(|&(t, _)| t == v.tag()),
                "variant {v:?} has a tag outside the documented namespace"
            );
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        // 4 and 6 are the retired completion chain's tags: unassigned.
        for tag in [4, 6, 999] {
            assert!(matches!(
                Msg::decode(tag, &8u64.to_le_bytes()),
                Err(PandaError::Decode { .. })
            ));
        }
    }

    #[test]
    fn send_recv_over_fabric() {
        use panda_msg::InProcFabric;
        let (mut eps, _) = InProcFabric::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let msg = Msg::Fetch {
            request: 6,
            array: 1,
            seq: 2,
            region: Region::new(&[0], &[3]).unwrap(),
        };
        send_msg(&mut a, NodeId(1), &msg).unwrap();
        let (src, got) = recv_msg(&mut b, MatchSpec::tag(tags::FETCH)).unwrap();
        assert_eq!(src, NodeId(0));
        assert_eq!(got, msg);
    }

    #[test]
    fn send_data_is_wire_identical_to_owned_data() {
        use panda_msg::InProcFabric;
        let (mut eps, _) = InProcFabric::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let region = Region::new(&[1, 0], &[3, 4]).unwrap();
        send_data(&mut a, NodeId(1), 8, 2, 9, &region, vec![5u8; 16]).unwrap();
        let (_, got) = recv_msg(&mut b, MatchSpec::tag(tags::DATA)).unwrap();
        assert_eq!(
            got,
            Msg::Data {
                request: 8,
                array: 2,
                seq: 9,
                region,
                payload: vec![5u8; 16].into(),
            }
        );
    }

    #[test]
    fn framed_data_decodes_without_copying_the_body() {
        use panda_msg::InProcFabric;
        use std::sync::Arc;
        let (mut eps, _) = InProcFabric::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let region = Region::new(&[0], &[8]).unwrap();
        let body: Arc<[u8]> = Arc::from(vec![3u8; 8]);
        send_data(
            &mut a,
            NodeId(1),
            12,
            1,
            4,
            &region,
            Bytes::Shared(body.clone()),
        )
        .unwrap();
        let env = b.recv_matching(MatchSpec::tag(tags::DATA)).unwrap();
        let msg = Msg::decode_envelope(env).unwrap();
        match msg {
            Msg::Data {
                payload: Bytes::Shared(arc),
                request,
                array,
                seq,
                region: r,
            } => {
                assert!(Arc::ptr_eq(&arc, &body), "payload was copied");
                assert_eq!((request, array, seq), (12, 1, 4));
                assert_eq!(r, region);
            }
            other => panic!("expected shared Data payload, got {other:?}"),
        }
    }

    #[test]
    fn inline_data_decodes_in_place() {
        // What a socket reader delivers: head and body in one buffer.
        let region = Region::new(&[0], &[8]).unwrap();
        let msg = Msg::Data {
            request: 5,
            array: 1,
            seq: 2,
            region,
            payload: vec![7u8; 8].into(),
        };
        let inline = |bytes: Vec<u8>| Envelope {
            src: NodeId(0),
            tag: tags::DATA,
            payload: Payload::Inline(bytes),
        };
        let wire = msg.encode();
        let alloc = wire.as_ptr();
        match Msg::decode_envelope(inline(wire)).unwrap() {
            Msg::Data {
                payload: Bytes::Owned(body),
                ..
            } => {
                assert_eq!(body, vec![7u8; 8]);
                assert_eq!(body.as_ptr(), alloc, "the body was copied out of its frame");
            }
            other => panic!("expected an owned Data payload, got {other:?}"),
        }
        // A body shorter or longer than its length prefix is refused.
        let mut long = msg.encode();
        long.push(0);
        let mut short = msg.encode();
        short.pop();
        for bad in [long, short] {
            assert!(matches!(
                Msg::decode_envelope(inline(bad)),
                Err(PandaError::Decode { .. })
            ));
        }
    }

    #[test]
    fn framed_data_with_bad_length_is_rejected() {
        let region = Region::new(&[0], &[4]).unwrap();
        let mut w = Writer::new();
        w.u64(0); // request id
        w.u32(0);
        w.u64(1);
        w.region(&region);
        w.size(99); // lies about the body length
        let env = Envelope {
            src: NodeId(0),
            tag: tags::DATA,
            payload: Payload::Framed {
                head: w.finish(),
                body: vec![1, 2, 3, 4].into(),
            },
        };
        assert!(matches!(
            Msg::decode_envelope(env),
            Err(PandaError::Decode { .. })
        ));
    }
}
