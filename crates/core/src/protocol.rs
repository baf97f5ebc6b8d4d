//! The Panda message set: one table, one row per message.
//!
//! One collective operation exchanges these messages (paper §2):
//!
//! ```text
//! master client ── Collective ──► master server
//! master server ── Collective ──► every other server      (broadcast)
//! submitter     ── OneShot ─────► master server ──► every other server
//!                                 (a small session write: request + bytes)
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
//! A session write smaller than a free-list piece skips the
//! `Fetch`/`Data` exchange altogether: its `OneShot` carries the bytes
//! behind the request, every server cuts its own pieces out of them,
//! and each `Complete` attests zero pieces.
//!
//! The `Raw*` messages implement the comparison baselines (naive
//! client-directed I/O and two-phase I/O), where compute nodes — not
//! servers — decide where in each file data lands, and carry the
//! out-of-band control files (schema manifests, checkpoint markers).
//!
//! # The table
//!
//! The wire format is written down once, in the `messages!` table
//! below. A row gives a message's tag number, its tag constant, its
//! stable lower-case name, and the [`Msg`] variant with its typed
//! fields in wire order; [`Msg`], [`tags`], [`Msg::tag`],
//! [`Msg::encode`] and [`Msg::decode`] are all generated from the rows,
//! and each field encodes itself through [`Wire`]. Adding a message is
//! adding a row and handling the new variant; the generated `decode`
//! refuses a tag used twice at compile time. `decode` is also the one
//! place a frame is checked: every count is bounded by the bytes that
//! carry it, every composite goes through its validating constructor,
//! and a frame with bytes left over is refused, whatever its kind.
//!
//! Receivers match on `(src, tag)` only. Batching several arrays into
//! one request added no tags — a `Collective` carries a
//! `Vec<ArrayOp>`, and `Fetch`/`Data` name the array by index — which
//! keeps concurrent collectives interleavable on one pairwise-FIFO
//! transport. Tags 4 and 6 belonged to a retired completion chain and
//! stay unassigned, so per-tag series remain comparable across
//! versions.

use panda_fs::SyncPolicy;
use panda_msg::{Bytes, Envelope, MatchSpec, NodeId, Payload, Transport};
use panda_schema::Region;

use crate::array::ArrayMeta;
use crate::encode::{wire_enum, wire_struct, Reader, Wire};
use crate::error::{AdmissionIssue, PandaError};

/// Direction of a collective operation: the one spelling of "write or
/// read" the runtime, its events and its reports share.
pub use panda_obs::OpDir as OpKind;

wire_enum!(OpKind, "op kind", { 0 => Write, 1 => Read });

wire_enum!(SyncPolicy, "sync policy", { 0 => PerWrite, 1 => PerFile, 2 => PerCollective });

wire_enum!(AdmissionIssue, "admission reason", {
    0 => Saturated { live: usize, max: usize },
    1 => QueueFull { queued: usize, max: usize },
});

wire_struct! {
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
}

wire_struct! {
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
        /// submitter's own rank. Never empty: the first is the submitter,
        /// and decoders refuse a request nobody takes part in.
        pub participants: Vec<u32>,
        /// Write or read.
        pub op: OpKind,
        /// Subchunk subdivision cap in bytes (never 0: submitters refuse
        /// it as a configuration error, decoders as a corrupt frame).
        pub subchunk_bytes: usize,
        /// Number of subchunks each server keeps in flight (1 = the
        /// unpipelined transfer order; ≥ 2 overlaps client exchange with
        /// disk I/O).
        pub pipeline_depth: usize,
        /// When the disk stage flushes written data to stable storage.
        pub sync_policy: SyncPolicy,
        /// The arrays, in execution order.
        pub arrays: Vec<ArrayOp>,
    }
    valid |req| req.subchunk_bytes > 0, "zero subchunk cap";
    valid |req| !req.participants.is_empty(), "no participants";
}

/// Build the message set from its table. A row is
///
/// ```text
/// /// docs (shared by the tag constant and the variant, so no links)
/// <tag number> <TAG_CONST> <stable_name> => <Variant> <shape>,
/// ```
///
/// where the shape is nothing (no fields), `(binding: Type)` for a
/// variant wrapping one [`Wire`] value, or `{ field: Type, .. }` for
/// named fields, encoded in the order written. The last field may be
/// introduced by `+`: it is the message's *body*, a length-prefixed
/// byte string copied in one piece — or, for a [`Bytes`] body (`DATA`,
/// `ONE_SHOT`), not at all: [`send_data`], [`send_request`] and
/// [`Msg::decode_envelope`] move it between the message and the
/// transport.
macro_rules! messages {
    ($(
        $(#[$doc:meta])*
        $num:literal $TAG:ident $name:ident => $Variant:ident
        $( ( $inner:ident : $ity:ty ) )?
        $( {
            $( $(#[$fdoc:meta])* $field:ident : $fty:ty, )*
            $( + $(#[$bdoc:meta])* $body:ident : $bty:ty, )?
        } )?
    ),* $(,)?) => {
        /// Message tags, one per message kind (used for selective
        /// receive); generated from the message table.
        pub mod tags {
            $( $(#[$doc])* pub const $TAG: u32 = $num; )*

            /// The complete tag namespace, with stable names (reports, tests).
            pub const ALL: [(u32, &str); [$($num),*].len()] =
                [$( ($TAG, stringify!($name)) ),*];
        }

        /// A protocol message.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Msg {
            $(
                $(#[$doc])*
                $Variant $( ($ity) )? $( {
                    $( $(#[$fdoc])* $field: $fty, )*
                    $( $(#[$bdoc])* $body: $bty, )?
                } )?,
            )*
        }

        /// One encoder per message, named as the message is and taking
        /// its fields by reference (a body by its length: the caller
        /// appends the bytes, or sends them behind the head uncopied).
        // A message without fields leaves `out` untouched.
        #[allow(unused_variables, clippy::ptr_arg)]
        mod put {
            use super::*;
            $(
                pub(super) fn $name(
                    out: &mut Vec<u8>
                    $(, $inner: &$ity)?
                    $( $(, $field: &$fty)* $(, $body: usize)? )?
                ) {
                    $( $inner.put(out); )?
                    $( $( $field.put(out); )* $( $body.put(out); )? )?
                }
            )*
        }

        impl Msg {
            /// The transport tag for this message kind.
            pub fn tag(&self) -> u32 {
                match self {
                    $( Msg::$Variant { .. } => tags::$TAG, )*
                }
            }

            /// Encode the message body (the tag travels separately).
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::with_capacity(64);
                match self {
                    $(
                        Msg::$Variant $( ($inner) )? $( { $( $field, )* $( $body, )? } )? => {
                            put::$name(
                                &mut out
                                $(, $inner)?
                                $( $(, $field)* $(, $body.len())? )?
                            );
                            $( $( out.extend_from_slice($body); )? )?
                        }
                    )*
                }
                out
            }

            /// Decode the fields of a `tag` message off `r`.
            #[deny(unreachable_patterns)] // a tag number used by two rows
            fn get(tag: u32, r: &mut Reader<'_>) -> Result<Msg, PandaError> {
                Ok(match tag {
                    $(
                        tags::$TAG => Msg::$Variant $( (<$ity>::get(r)?) )? $( {
                            $( $field: Wire::get(r)?, )*
                            $( $body: r.body()?, )?
                        } )?,
                    )*
                    _ => return Err(PandaError::Decode { context: "unknown tag" }),
                })
            }
        }
    };
}

messages! {
    /// Start a collective operation (master client → master server →
    /// every other server).
    1 COLLECTIVE collective => Collective(req: CollectiveRequest),
    /// Server → client: send me this region of array `array` (write
    /// path).
    2 FETCH fetch => Fetch {
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
    3 DATA data => Data {
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
        +
        /// Packed row-major bytes of the region. A [`Bytes`] so a
        /// framed arrival (or a shared disk buffer on the send side)
        /// reaches the consumer without a copy.
        payload: Bytes,
    },
    /// Server → each participant: my share of the collective is
    /// complete (on disk per the sync policy, or fully pushed).
    5 COMPLETE complete => Complete {
        /// Which collective.
        request: u64,
        /// How many [`Msg::Fetch`] (write) or [`Msg::Data`] (read)
        /// messages this server sent the recipient for the request. The
        /// recipient checks it against what arrived, so a lost or
        /// duplicated piece is a typed error rather than a short buffer.
        pieces: u32,
    },
    /// Terminate a server thread.
    7 SHUTDOWN shutdown => Shutdown,
    /// Baselines and control files: write `payload` at `offset` of
    /// `file` (client → server, unacknowledged).
    8 RAW_WRITE raw_write => RawWrite {
        /// Server-local file name.
        file: String,
        /// Byte offset.
        offset: u64,
        +
        /// Data to write.
        payload: Vec<u8>,
    },
    /// Baselines and control files: read `len` bytes at `offset` of
    /// `file` (client → server).
    9 RAW_READ raw_read => RawRead {
        /// Server-local file name.
        file: String,
        /// Byte offset.
        offset: u64,
        /// Bytes to read.
        len: u64,
        /// Request id echoed in the [`Msg::RawData`] reply.
        seq: u64,
    },
    /// Server → client: reply to `RawRead`.
    10 RAW_DATA raw_data => RawData {
        /// Echoed request id.
        seq: u64,
        +
        /// The bytes read.
        payload: Vec<u8>,
    },
    /// Baselines: this client has issued all its raw operations for the
    /// current logical op; the server replies `RawAck` once all
    /// clients have done so and files are synced.
    11 RAW_DONE raw_done => RawDone,
    /// Baselines: completion barrier reply (server → client).
    12 RAW_ACK raw_ack => RawAck,
    /// Query a file's length (client → server; used for schema
    /// manifests whose size the reader does not know in advance).
    13 RAW_STAT raw_stat => RawStat {
        /// Server-local file name.
        file: String,
        /// Request id echoed in the reply.
        seq: u64,
    },
    /// Server → client: reply to `RawStat`.
    14 RAW_STAT_REPLY raw_stat_reply => RawStatReply {
        /// Echoed request id.
        seq: u64,
        /// File length in bytes, or `u64::MAX` if the file does not
        /// exist.
        len: u64,
    },
    /// Master server → submitter: the collective was refused admission
    /// (the node is at capacity). Surfaced to the caller as
    /// `PandaError::Admission`.
    15 REJECT reject => Reject {
        /// Which collective.
        request: u64,
        /// Why it was turned away.
        reason: AdmissionIssue,
    },
    /// Start a small single-participant write and deliver its bytes
    /// with it (submitter → master server → every other server): the
    /// paper's one-shot high-level request, taken literally. Admitted,
    /// queued and relayed as a `Collective` is; no `Fetch` follows, and
    /// every server's `Complete` attests zero pieces. Submitters use it
    /// for a session write whose chunks total less than
    /// `panda_msg::freelist::PIECE_MIN_BYTES`.
    16 ONE_SHOT one_shot => OneShot {
        /// The request, as a `Collective` carries it: a write with one
        /// participant.
        req: CollectiveRequest,
        +
        /// The submitter's chunk of each array, concatenated in array
        /// order: exactly the sum of the arrays' `client_bytes(0)`.
        /// Every server receives all of it and packs its own plan
        /// pieces out of it. A [`Bytes`] so the master's relay shares
        /// the allocation it received.
        payload: Bytes,
    },
}

impl Msg {
    /// Decode a message from its tag and body. The whole body must be
    /// the message: bytes left over are a decode error.
    pub fn decode(tag: u32, payload: &[u8]) -> Result<Msg, PandaError> {
        let mut r = Reader::new(payload);
        let msg = Msg::get(tag, &mut r)?;
        r.finish()?;
        Ok(msg)
    }

    /// Decode a delivered envelope, consuming it.
    ///
    /// A [`tags::DATA`] or [`tags::ONE_SHOT`] arrival is decoded without
    /// copying its body: the row is read with the body left in the
    /// frame, and the frame's own buffer then becomes the payload —
    /// framed, the body's `Bytes` moves straight into the message;
    /// inline (one buffer off a socket), the head is cut off the front
    /// of that buffer. Every other message is [`Msg::decode`] over the
    /// contiguous bytes.
    pub fn decode_envelope(env: Envelope) -> Result<Msg, PandaError> {
        if !matches!(env.tag, tags::DATA | tags::ONE_SHOT) {
            return Msg::decode(env.tag, &env.payload.into_contiguous());
        }
        let mut r = Reader::head_of(env.payload.as_parts().0);
        let mut msg = Msg::get(env.tag, &mut r)?;
        let (len, rest) = (r.body_len(), r.remaining());
        let (Msg::Data { payload, .. } | Msg::OneShot { payload, .. }) = &mut msg else {
            unreachable!("the rows with a `Bytes` body");
        };
        *payload = match env.payload {
            Payload::Framed { body, .. } if rest == 0 && len == body.len() => body,
            Payload::Inline(mut buf) if len == rest => {
                buf.drain(..buf.len() - len);
                buf.into()
            }
            _ => {
                return Err(PandaError::Decode {
                    context: "body length",
                })
            }
        };
        Ok(msg)
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
/// the payload into an envelope buffer: the `DATA` row's head is encoded
/// on its own, and the payload rides behind it through the transport's
/// vectored path. This is the hot path of both transfer directions; a
/// shared (`Arc`) payload reaches an in-process receiver as the same
/// allocation.
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
    let mut head = Vec::with_capacity(64);
    put::data(&mut head, &request, &array, &seq, region, payload.len());
    t.send_vectored(dst, tags::DATA, head, payload)?;
    Ok(())
}

/// Submit or relay a collective request: a `Collective`, or — when the
/// request carries its own bytes — a `OneShot` with `carried` riding
/// behind the head through the vectored path, as a `Data` body does (a
/// shared payload reaches an in-process receiver as the same
/// allocation).
pub fn send_request<T: Transport + ?Sized>(
    t: &mut T,
    dst: NodeId,
    req: &CollectiveRequest,
    carried: Option<Bytes>,
) -> Result<(), PandaError> {
    let mut head = Vec::with_capacity(256);
    match carried {
        None => {
            put::collective(&mut head, req);
            t.send(dst, tags::COLLECTIVE, head)?;
        }
        Some(body) => {
            put::one_shot(&mut head, req, body.len());
            t.send_vectored(dst, tags::ONE_SHOT, head, body)?;
        }
    }
    Ok(())
}

fn decoded(env: Envelope) -> Result<(NodeId, Msg), PandaError> {
    let src = env.src;
    Ok((src, Msg::decode_envelope(env)?))
}

/// Receive and decode the next message matching `spec`.
pub fn recv_msg<T: Transport + ?Sized>(
    t: &mut T,
    spec: MatchSpec,
) -> Result<(NodeId, Msg), PandaError> {
    decoded(t.recv_matching(spec)?)
}

/// Non-blocking [`recv_msg`]: `Ok(None)` when no matching message has
/// arrived yet. The group-concurrent server drains bursts of `Data`
/// replies with this so a whole batch can be reorganized in one parallel
/// pass.
pub fn try_recv_msg<T: Transport + ?Sized>(
    t: &mut T,
    spec: MatchSpec,
) -> Result<Option<(NodeId, Msg)>, PandaError> {
    t.try_recv_matching(spec)?.map(decoded).transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group_ops::{ArrayGroup, Marker};
    use panda_msg::InProcFabric;
    use panda_schema::{DataSchema, Dist, ElementType, Mesh, Shape};

    fn sample_meta() -> ArrayMeta {
        let shape = Shape::new(&[8, 8]).unwrap();
        let mem =
            DataSchema::block_all(shape.clone(), ElementType::F64, Mesh::new(&[2, 2]).unwrap())
                .unwrap();
        let disk = DataSchema::traditional_order(shape, ElementType::F64, 2).unwrap();
        ArrayMeta::new("t", mem, disk).unwrap()
    }

    /// Opaque elements, a `Star` dimension and a subchunk override.
    fn odd_meta() -> ArrayMeta {
        let shape = Shape::new(&[12, 6]).unwrap();
        let elem = ElementType::Opaque(24);
        let schema = |dists: &[Dist], mesh: usize| {
            DataSchema::new(shape.clone(), elem, dists, Mesh::new(&[mesh]).unwrap()).unwrap()
        };
        let mem = schema(&[Dist::Block, Dist::Star], 3);
        let disk = schema(&[Dist::Star, Dist::Block], 2);
        ArrayMeta::new("odd", mem, disk)
            .unwrap()
            .with_subchunk_bytes(4096)
    }

    /// A session's array: the whole of it in one node's memory.
    fn solo_meta() -> ArrayMeta {
        let mem = DataSchema::block_all(
            Shape::new(&[2, 3]).unwrap(),
            ElementType::U8,
            Mesh::new(&[1, 1]).unwrap(),
        )
        .unwrap();
        ArrayMeta::natural("s", mem).unwrap()
    }

    /// At least one message of every kind in the table (checked by
    /// `tag_namespace_is_complete_and_distinct`); [`GOLDEN`] holds their
    /// bytes in the same order.
    fn samples() -> Vec<Msg> {
        vec![
            Msg::Collective(CollectiveRequest {
                request: (1 << 32) | 7,
                participants: vec![0, 1, 2, 3],
                op: OpKind::Read,
                arrays: vec![
                    ArrayOp {
                        meta: sample_meta(),
                        file_tag: "t.ts0".into(),
                        section: None,
                    },
                    ArrayOp {
                        meta: odd_meta(),
                        file_tag: "t.ckpt".into(),
                        section: Some(Region::new(&[0, 2], &[4, 6]).unwrap()),
                    },
                ],
                subchunk_bytes: 1 << 20,
                pipeline_depth: 2,
                sync_policy: SyncPolicy::PerCollective,
            }),
            Msg::Collective(CollectiveRequest {
                request: 0,
                participants: vec![9],
                op: OpKind::Write,
                arrays: vec![],
                subchunk_bytes: 4096,
                pipeline_depth: 4,
                sync_policy: SyncPolicy::PerFile,
            }),
            Msg::Fetch {
                request: 42,
                array: 3,
                seq: 99,
                region: Region::new(&[0, 1], &[4, 5]).unwrap(),
            },
            Msg::Data {
                request: 42,
                array: 0,
                seq: 7,
                region: Region::new(&[2], &[6]).unwrap(),
                payload: vec![1, 2, 3, 4].into(),
            },
            Msg::Complete {
                request: 42,
                pieces: 17,
            },
            Msg::Reject {
                request: 42,
                reason: AdmissionIssue::Saturated { live: 4, max: 5 },
            },
            Msg::Reject {
                request: 43,
                reason: AdmissionIssue::QueueFull {
                    queued: 16,
                    max: 17,
                },
            },
            Msg::Shutdown,
            Msg::RawWrite {
                file: "a.s0".into(),
                offset: 512,
                payload: vec![9; 6],
            },
            Msg::RawRead {
                file: "a.s0".into(),
                offset: 1,
                len: 64,
                seq: 5,
            },
            Msg::RawData {
                seq: 5,
                payload: vec![0, 1, 2],
            },
            Msg::RawDone,
            Msg::RawAck,
            Msg::RawStat {
                file: "g/g.schema".into(),
                seq: 11,
            },
            Msg::RawStatReply { seq: 11, len: 42 },
            Msg::OneShot {
                req: CollectiveRequest {
                    request: (3 << 32) | 1,
                    participants: vec![2],
                    op: OpKind::Write,
                    arrays: vec![ArrayOp {
                        meta: solo_meta(),
                        file_tag: "s.ts0".into(),
                        section: None,
                    }],
                    subchunk_bytes: 1 << 20,
                    pipeline_depth: 2,
                    sync_policy: SyncPolicy::PerFile,
                },
                payload: vec![1, 2, 3, 4, 5, 6].into(),
            },
        ]
    }

    /// `encode()` of each of [`samples`], in order, captured at the commit
    /// before the message table (hand-written `encode`/`decode` arms);
    /// `one_shot` at the commit that added the row. The three requests
    /// have since lost their priority byte (the ninth) and nothing else.
    const GOLDEN: [&str; 16] = [
        // collective (read, two arrays, one a section)
        "\
         0700000001000000040000000000000000000000010000000200000003000000\
         0100001000000000000200000000000000020200000000000000010000000000\
         0000740200000000000000080000000000000008000000000000000402000000\
         0000000000000200000000000000020000000000000002000000000000000200\
         0000000000000800000000000000080000000000000004020000000000000000\
         0101000000000000000200000000000000000000000000000005000000000000\
         00742e7473300003000000000000006f646402000000000000000c0000000000\
         0000060000000000000005180000000200000000000000000101000000000000\
         00030000000000000002000000000000000c0000000000000006000000000000\
         0005180000000200000000000000010001000000000000000200000000000000\
         00100000000000000600000000000000742e636b707401020000000000000000\
         0000000000000002000000000000000200000000000000040000000000000006\
         00000000000000\
        ",
        // collective (write, no arrays)
        "\
         0000000000000000010000000000000009000000000010000000000000040000\
         0000000000010000000000000000\
        ",
        // fetch
        "\
         2a00000000000000030000006300000000000000020000000000000000000000\
         0000000001000000000000000200000000000000040000000000000005000000\
         00000000\
        ",
        // data
        "\
         2a00000000000000000000000700000000000000010000000000000002000000\
         0000000001000000000000000600000000000000040000000000000001020304\
        ",
        // complete
        "2a0000000000000011000000",
        // reject (saturated)
        "2a000000000000000004000000000000000500000000000000",
        // reject (queue full)
        "2b000000000000000110000000000000001100000000000000",
        // shutdown
        "",
        // raw_write
        "\
         0400000000000000612e73300002000000000000060000000000000009090909\
         0909\
        ",
        // raw_read
        "\
         0400000000000000612e73300100000000000000400000000000000005000000\
         00000000\
        ",
        // raw_data
        "05000000000000000300000000000000000102",
        // raw_done
        "",
        // raw_ack
        "",
        // raw_stat
        "0a00000000000000672f672e736368656d610b00000000000000",
        // raw_stat_reply
        "0b000000000000002a00000000000000",
        // one_shot (a session's 2 x 3 bytes behind their request)
        "\
         0100000003000000010000000000000002000000000000100000000000020000\
         0000000000010100000000000000010000000000000073020000000000000002\
         0000000000000003000000000000000002000000000000000000020000000000\
         0000010000000000000001000000000000000200000000000000020000000000\
         0000030000000000000000020000000000000000000200000000000000010000\
         0000000000010000000000000000000000000000000500000000000000732e74\
         7330000600000000000000010203040506\
        ",
    ];

    /// `encode_manifest()` of group `sim2` (3 timesteps, 2 checkpoints,
    /// arrays `t` and `odd`), captured at the same commit.
    const GOLDEN_MANIFEST: &str = "\
     040000000000000073696d320300000000000000020000000000000002000000\
     0000000001000000000000007402000000000000000800000000000000080000\
     0000000000040200000000000000000002000000000000000200000000000000\
     0200000000000000020000000000000008000000000000000800000000000000\
     0402000000000000000001010000000000000002000000000000000000000000\
     00000003000000000000006f646402000000000000000c000000000000000600\
     0000000000000518000000020000000000000000010100000000000000030000\
     000000000002000000000000000c000000000000000600000000000000051800\
     0000020000000000000001000100000000000000020000000000000000100000\
     00000000\
    ";

    /// The marker `sim2`'s second checkpoint commits, same commit.
    const GOLDEN_MARKER: &str = "\
     040000000000000073696d320200000000000000030000000000000002000000\
     00000000\
    ";

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    fn is_decode_error<T: std::fmt::Debug>(r: Result<T, PandaError>) -> bool {
        matches!(r, Err(PandaError::Decode { .. }))
    }

    /// The formats are pinned, not asserted: a row, a `Wire` impl or a
    /// macro that changes a byte on the wire or on disk fails here.
    #[test]
    fn wire_and_disk_bytes_are_golden() {
        let samples = samples();
        assert_eq!(samples.len(), GOLDEN.len());
        for (msg, golden) in samples.iter().zip(GOLDEN) {
            assert_eq!(hex(&msg.encode()), golden, "{msg:?}");
            assert_eq!(&Msg::decode(msg.tag(), &unhex(golden)).unwrap(), msg);
        }

        let manifest = unhex(GOLDEN_MANIFEST);
        let group = ArrayGroup::decode_manifest(&manifest).unwrap();
        assert_eq!(group.name(), "sim2");
        assert_eq!((group.timesteps_taken(), group.checkpoints_taken()), (3, 2));
        assert_eq!(group.arrays(), [sample_meta(), odd_meta()]);
        assert_eq!(group.encode_manifest(), manifest);

        let mut marker = Vec::new();
        Marker {
            group: "sim2".into(),
            completed: 2,
            timesteps_taken: 3,
            arrays: 2,
        }
        .put(&mut marker);
        assert_eq!(hex(&marker), GOLDEN_MARKER);
    }

    #[test]
    fn all_variants_roundtrip() {
        for msg in samples() {
            let bytes = msg.encode();
            assert_eq!(Msg::decode(msg.tag(), &bytes).unwrap(), msg);
            // One strictness rule for every kind: the frame is exactly
            // the message.
            let mut long = bytes.clone();
            long.push(0);
            assert!(is_decode_error(Msg::decode(msg.tag(), &long)), "{msg:?}");
            if let Some((_, short)) = bytes.split_last() {
                assert!(is_decode_error(Msg::decode(msg.tag(), short)), "{msg:?}");
            }
        }
    }

    #[test]
    fn tag_namespace_is_complete_and_distinct() {
        // Two rows with one tag number do not compile (`Msg::get`); the
        // stable names must differ too ...
        let mut names: Vec<&str> = tags::ALL.iter().map(|&(_, n)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), tags::ALL.len());
        // ... and the samples cover exactly the table's rows.
        let samples = samples();
        for (tag, name) in tags::ALL {
            assert!(samples.iter().any(|m| m.tag() == tag), "no {name} sample");
        }
        for msg in &samples {
            assert!(tags::ALL.iter().any(|&(t, _)| t == msg.tag()), "{msg:?}");
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        // 4 and 6 are the retired completion chain's tags: unassigned.
        for tag in [4, 6, 999] {
            assert!(is_decode_error(Msg::decode(tag, &[])));
        }
    }

    #[test]
    fn a_collective_with_a_zero_subchunk_cap_does_not_decode() {
        let Msg::Collective(mut req) = samples().swap_remove(0) else {
            unreachable!("the first sample is a Collective");
        };
        req.subchunk_bytes = 0;
        let bytes = Msg::Collective(req).encode();
        assert!(is_decode_error(Msg::decode(tags::COLLECTIVE, &bytes)));
    }

    #[test]
    fn send_recv_over_fabric() {
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
        let (mut eps, _) = InProcFabric::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let region = Region::new(&[1, 0], &[3, 4]).unwrap();
        let msg = Msg::Data {
            request: 8,
            array: 2,
            seq: 9,
            region: region.clone(),
            payload: vec![5u8; 16].into(),
        };
        send_data(&mut a, NodeId(1), 8, 2, 9, &region, vec![5u8; 16]).unwrap();
        send_msg(&mut a, NodeId(1), &msg).unwrap();
        let framed = b.recv_matching(MatchSpec::tag(tags::DATA)).unwrap();
        let inline = b.recv_matching(MatchSpec::tag(tags::DATA)).unwrap();
        assert!(matches!(framed.payload, Payload::Framed { .. }));
        assert!(matches!(inline.payload, Payload::Inline(_)));
        // Same logical bytes, and the same message through either
        // decoder, whichever way it travelled.
        assert_eq!(framed.payload, inline.payload);
        for env in [framed, inline] {
            let bytes = env.payload.contiguous().into_owned();
            assert_eq!(Msg::decode(env.tag, &bytes).unwrap(), msg);
            assert_eq!(Msg::decode_envelope(env).unwrap(), msg);
        }
    }

    #[test]
    fn framed_data_decodes_without_copying_the_body() {
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
    fn send_request_is_wire_identical_and_shares_a_carried_body() {
        use std::sync::Arc;
        let (mut eps, _) = InProcFabric::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let Some(Msg::OneShot { req, payload }) = samples().pop() else {
            unreachable!("the last sample is the OneShot");
        };
        let body: Arc<[u8]> = Arc::from(&payload[..]);
        send_request(&mut a, NodeId(1), &req, None).unwrap();
        send_request(&mut a, NodeId(1), &req, Some(body.clone().into())).unwrap();

        let plain = b.recv().unwrap();
        assert_eq!(plain.tag, tags::COLLECTIVE);
        let owned = Msg::Collective(req.clone());
        assert_eq!(plain.payload, owned.encode());
        assert_eq!(Msg::decode_envelope(plain).unwrap(), owned);

        let shot = b.recv().unwrap();
        assert_eq!(shot.tag, tags::ONE_SHOT);
        let owned = Msg::OneShot { req, payload };
        assert_eq!(shot.payload, owned.encode());
        // Head and body in one buffer, as a socket reader delivers them.
        let inline = Envelope {
            src: NodeId(0),
            tag: tags::ONE_SHOT,
            payload: Payload::Inline(owned.encode()),
        };
        assert_eq!(Msg::decode_envelope(inline).unwrap(), owned);
        match Msg::decode_envelope(shot).unwrap() {
            Msg::OneShot {
                payload: Bytes::Shared(arc),
                ..
            } => assert!(Arc::ptr_eq(&arc, &body), "the carried body was copied"),
            other => panic!("expected a shared OneShot payload, got {other:?}"),
        }
    }

    #[test]
    fn framed_data_with_bad_length_is_rejected() {
        let region = Region::new(&[0], &[4]).unwrap();
        let mut head = Vec::new();
        put::data(&mut head, &0, &0, &1, &region, 99); // lies about the body length
        let env = Envelope {
            src: NodeId(0),
            tag: tags::DATA,
            payload: Payload::Framed {
                head,
                body: vec![1, 2, 3, 4].into(),
            },
        };
        assert!(is_decode_error(Msg::decode_envelope(env)));
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
            assert!(is_decode_error(Msg::decode_envelope(inline(bad))));
        }
    }
}
