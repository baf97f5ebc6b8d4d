//! Node identifiers, payload buffers, and message envelopes.

use std::borrow::Cow;
use std::fmt;
use std::ops::{Deref, Index};
use std::sync::Arc;

/// A global node rank. Panda numbers compute nodes (clients) first and
/// I/O nodes (servers) after them, but this layer is agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The rank as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A payload buffer: either uniquely owned or shared.
///
/// The shared form lets one disk buffer back several in-flight messages
/// (a server pushing the same prefetched subchunk to its owner client)
/// without copying; the in-process fabric hands the `Arc` across the
/// channel as-is.
#[derive(Debug, Clone)]
pub enum Bytes {
    /// A uniquely-owned buffer, movable into an envelope.
    Owned(Vec<u8>),
    /// A shared, immutable buffer.
    Shared(Arc<[u8]>),
}

impl Bytes {
    /// The bytes, copying only if the buffer is shared.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Bytes::Owned(v) => v,
            Bytes::Shared(a) => a.to_vec(),
        }
    }

    /// Done with the bytes: an owned buffer goes back to the
    /// [`crate::freelist`], a shared one is merely released.
    pub fn recycle(self) {
        if let Bytes::Owned(v) = self {
            crate::freelist::give(v);
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        match self {
            Bytes::Owned(v) => v,
            Bytes::Shared(a) => a,
        }
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::Owned(v)
    }
}

impl From<Arc<[u8]>> for Bytes {
    fn from(a: Arc<[u8]>) -> Self {
        Bytes::Shared(a)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

/// A message body as it travels through a fabric.
///
/// `Inline` is the classic single-buffer form. `Framed` is the vectored
/// form produced by [`crate::Transport::send_vectored`]: a small
/// protocol head plus a large data body that was never copied into a
/// contiguous envelope buffer. Logically a framed payload *is* the
/// concatenation `head ++ body`; all comparisons and length queries act
/// on that byte string.
#[derive(Debug, Clone)]
pub enum Payload {
    /// One contiguous buffer.
    Inline(Vec<u8>),
    /// Vectored form: protocol head + data body, uncopied.
    Framed {
        /// The (small) protocol head.
        head: Vec<u8>,
        /// The (large) data body.
        body: Bytes,
    },
}

impl Payload {
    /// Total logical length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Payload::Inline(v) => v.len(),
            Payload::Framed { head, body } => head.len() + body.len(),
        }
    }

    /// True iff there are no payload bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The two parts as slices (`Inline` is all head, empty body).
    #[inline]
    pub fn as_parts(&self) -> (&[u8], &[u8]) {
        match self {
            Payload::Inline(v) => (v, &[]),
            Payload::Framed { head, body } => (head, body),
        }
    }

    /// The logical bytes, borrowing when already contiguous.
    pub fn contiguous(&self) -> Cow<'_, [u8]> {
        match self {
            Payload::Inline(v) => Cow::Borrowed(v),
            Payload::Framed { head, body } => {
                let mut buf = Vec::with_capacity(head.len() + body.len());
                buf.extend_from_slice(head);
                buf.extend_from_slice(body);
                Cow::Owned(buf)
            }
        }
    }

    /// The logical bytes as an owned buffer, copying only when framed.
    pub fn into_contiguous(self) -> Vec<u8> {
        match self {
            Payload::Inline(v) => v,
            Payload::Framed { head, body } => {
                let mut buf = head;
                buf.extend_from_slice(&body);
                buf
            }
        }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::Inline(v)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && {
            let (h1, b1) = self.as_parts();
            let (h2, b2) = other.as_parts();
            // Compare the logical concatenations without materializing
            // them; the split points may differ.
            let mut it1 = h1.iter().chain(b1.iter());
            let mut it2 = h2.iter().chain(b2.iter());
            it1.by_ref().eq(it2.by_ref())
        }
    }
}

impl Eq for Payload {}

impl Index<usize> for Payload {
    type Output = u8;
    fn index(&self, i: usize) -> &u8 {
        let (head, body) = self.as_parts();
        if i < head.len() {
            &head[i]
        } else {
            &body[i - head.len()]
        }
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        let (head, body) = self.as_parts();
        self.len() == other.len() && head == &other[..head.len()] && body == &other[head.len()..]
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        *self == &other[..]
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        *self == &other[..]
    }
}

/// A delivered message: source rank, user tag, and the payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Rank of the sender.
    pub src: NodeId,
    /// Application-chosen tag (the Panda protocol uses one tag per
    /// message kind).
    pub tag: u32,
    /// Message body.
    pub payload: Payload,
}

impl Envelope {
    /// Payload size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True iff the payload is empty (pure-control message).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(7).to_string(), "node7");
        assert_eq!(NodeId(7).index(), 7);
    }

    #[test]
    fn envelope_len() {
        let e = Envelope {
            src: NodeId(0),
            tag: 3,
            payload: vec![1, 2, 3].into(),
        };
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
        let c = Envelope {
            src: NodeId(1),
            tag: 0,
            payload: vec![].into(),
        };
        assert!(c.is_empty());
    }

    #[test]
    fn framed_equals_inline_with_same_bytes() {
        let framed = Payload::Framed {
            head: vec![1, 2],
            body: Bytes::Owned(vec![3, 4, 5]),
        };
        assert_eq!(framed, Payload::Inline(vec![1, 2, 3, 4, 5]));
        assert_eq!(framed, vec![1, 2, 3, 4, 5]);
        assert_eq!(framed, [1, 2, 3, 4, 5]);
        assert_eq!(framed.len(), 5);
        assert_eq!(framed[0], 1);
        assert_eq!(framed[4], 5);
        assert_eq!(framed.contiguous().as_ref(), &[1, 2, 3, 4, 5]);
        assert_eq!(framed.into_contiguous(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn shared_bytes_compare_and_deref() {
        let shared: Bytes = Arc::<[u8]>::from(vec![7u8, 8, 9]).into();
        let owned: Bytes = vec![7u8, 8, 9].into();
        assert_eq!(shared, owned);
        assert_eq!(&shared[..], &[7, 8, 9]);
        assert_eq!(shared.clone().into_vec(), vec![7, 8, 9]);
        let p = Payload::Framed {
            head: Vec::new(),
            body: shared,
        };
        assert_eq!(p, [7, 8, 9]);
    }
}
