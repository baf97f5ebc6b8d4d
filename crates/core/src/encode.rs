//! Wire encoding: the [`Wire`] trait and the types that implement it.
//!
//! Messages cross the `panda-msg` transport as bytes (as they would with
//! real MPI), and group manifests and checkpoint markers are stored as
//! bytes, so every type that travels has one encoding, given by its
//! [`Wire`] impl: little-endian fixed-width integers (`usize` as `u64`),
//! sequences and strings behind a `u64` count, enums behind a one-byte
//! code, composites field by field in a fixed order — no tags, no
//! padding, no self-description. It is not a public interchange format:
//! both ends are always the same library version.
//!
//! Decoding is where a value from outside the program is checked, once:
//! [`Wire::get`] builds every composite through its validating
//! constructor, and every count prefix is held to one bound — it cannot
//! promise more elements than the bytes left could hold
//! ([`Wire::MIN_LEN`]) — so a hostile length never sizes an allocation.
//!
//! A composite states its layout once: `wire_struct!` declares a
//! struct and derives its encoding from the field list, `wire_enum!`
//! does the same for a coded enum, and the message table in
//! [`crate::protocol`] is built from both.

use panda_schema::{DataSchema, Dist, ElementType, Mesh, Region, Shape};

use crate::array::ArrayMeta;
use crate::error::PandaError;

/// A cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    /// `Some` when a message's trailing [`Reader::body`] is to stay in
    /// its frame: the length its prefix gave.
    detached: Option<usize>,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            detached: None,
        }
    }

    /// Read a frame's head, leaving the body where it is: [`Reader::body`]
    /// consumes only the length prefix and reports it through
    /// [`Reader::body_len`], so the caller can move the body's buffer
    /// into the decoded message instead of copying out of it.
    pub fn head_of(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            detached: Some(0),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The length of the body a [`Reader::head_of`] cursor stepped over.
    pub fn body_len(&self) -> usize {
        self.detached.unwrap_or(0)
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], PandaError> {
        if self.buf.len() < n {
            return Err(PandaError::Decode { context });
        }
        let (taken, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(taken)
    }

    /// A count prefix for elements of at least `min` encoded bytes each.
    fn count(&mut self, min: usize) -> Result<usize, PandaError> {
        let n = usize::get(self)?;
        if n > self.remaining() / min {
            return Err(PandaError::Decode { context: "count" });
        }
        Ok(n)
    }

    /// A length-prefixed byte string, still in the buffer.
    fn bytes(&mut self) -> Result<&'a [u8], PandaError> {
        let n = self.count(1)?;
        self.take(n, "bytes")
    }

    /// A message's trailing byte string, copied out in one piece — or,
    /// under [`Reader::head_of`], left where it is.
    pub fn body<B: From<Vec<u8>>>(&mut self) -> Result<B, PandaError> {
        Ok(B::from(match self.detached {
            None => self.bytes()?.to_vec(),
            Some(_) => {
                self.detached = Some(usize::get(self)?);
                Vec::new()
            }
        }))
    }

    /// The value is complete: anything left over is an error.
    pub fn finish(&self) -> Result<(), PandaError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(PandaError::Decode {
                context: "trailing bytes",
            })
        }
    }
}

/// A type with one byte encoding.
pub trait Wire: Sized {
    /// The fewest bytes an encoded value takes; what bounds a count
    /// prefix of such values by the bytes that are left.
    const MIN_LEN: usize;

    /// Append the encoding of `self`.
    fn put(&self, out: &mut Vec<u8>);

    /// Decode one value, checking it.
    fn get(r: &mut Reader<'_>) -> Result<Self, PandaError>;
}

/// Encode a sequence: its count, then its elements.
fn put_seq<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    items.len().put(out);
    for item in items {
        item.put(out);
    }
}

macro_rules! wire_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = size_of::<$ty>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, PandaError> {
                let bytes = r.take(Self::MIN_LEN, stringify!($ty))?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("took MIN_LEN bytes")))
            }
        }
    )*};
}
wire_int!(u8, u32, u64);

impl Wire for usize {
    const MIN_LEN: usize = u64::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PandaError> {
        Ok(u64::get(r)? as usize)
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = usize::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PandaError> {
        let n = r.count(T::MIN_LEN)?;
        (0..n).map(|_| T::get(r)).collect()
    }
}

/// Encode a string: its length, then its bytes.
fn put_str(s: &str, out: &mut Vec<u8>) {
    s.len().put(out);
    out.extend_from_slice(s.as_bytes());
}

impl Wire for String {
    const MIN_LEN: usize = usize::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        put_str(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PandaError> {
        match std::str::from_utf8(r.bytes()?) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(PandaError::Decode { context: "utf8" }),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => 0u8.put(out),
            Some(v) => {
                1u8.put(out);
                v.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PandaError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            _ => Err(PandaError::Decode {
                context: "option flag",
            }),
        }
    }
}

/// Derive [`Wire`] for an enum from one row per variant: the one-byte
/// code, then the variant with its fields (named for both the tuple and
/// the struct form), encoded in the order written.
macro_rules! wire_enum {
    ($ty:ty, $context:literal, {
        $( $code:literal => $variant:ident
            $( ( $( $t:ident : $tty:ty ),* ) )?
            $( { $( $f:ident : $fty:ty ),* } )? ),* $(,)?
    }) => {
        impl $crate::encode::Wire for $ty {
            const MIN_LEN: usize = 1;
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $( Self::$variant $( ( $( $t ),* ) )? $( { $( $f ),* } )? => {
                        u8::put(&$code, out);
                        $( $( $t.put(out); )* )?
                        $( $( $f.put(out); )* )?
                    } )*
                }
            }
            fn get(
                r: &mut $crate::encode::Reader<'_>,
            ) -> Result<Self, $crate::error::PandaError> {
                Ok(match u8::get(r)? {
                    $( $code => Self::$variant
                        $( ( $( <$tty>::get(r)? ),* ) )?
                        $( { $( $f: <$fty>::get(r)? ),* } )?, )*
                    _ => return Err($crate::error::PandaError::Decode { context: $context }),
                })
            }
        }
    };
}
pub(crate) use wire_enum;

/// Declare a struct whose [`Wire`] encoding is its fields in the order
/// written. Each `valid |v| <condition>, "<what>";` after the fields
/// is checked on decode and failing it is a decode error.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty, )*
        }
        $( valid |$v:ident| $valid:expr, $context:literal; )*
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $fty, )*
        }

        impl $crate::encode::Wire for $name {
            const MIN_LEN: usize = 0 $( + <$fty as $crate::encode::Wire>::MIN_LEN )*;
            fn put(&self, out: &mut Vec<u8>) {
                $( self.$field.put(out); )*
            }
            fn get(
                r: &mut $crate::encode::Reader<'_>,
            ) -> Result<Self, $crate::error::PandaError> {
                let value = $name { $( $field: $crate::encode::Wire::get(r)?, )* };
                $( let $v = &value;
                if !$valid {
                    return Err($crate::error::PandaError::Decode { context: $context });
                } )*
                Ok(value)
            }
        }
    };
}
pub(crate) use wire_struct;

wire_enum!(ElementType, "elem tag", {
    0 => U8, 1 => I32, 2 => I64, 3 => F32, 4 => F64, 5 => Opaque(bytes: u32),
});

wire_enum!(Dist, "dist tag", { 0 => Block, 1 => Star, 2 => Cyclic(block: usize) });

impl Wire for Region {
    const MIN_LEN: usize = 2 * usize::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(self.lo(), out);
        put_seq(self.hi(), out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PandaError> {
        let (lo, hi) = (Vec::get(r)?, Vec::get(r)?);
        Region::new(&lo, &hi).map_err(|_| PandaError::Decode { context: "region" })
    }
}

impl Wire for DataSchema {
    const MIN_LEN: usize = 3 * usize::MIN_LEN + ElementType::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(self.shape().dims(), out);
        self.elem().put(out);
        put_seq(self.dists(), out);
        put_seq(self.mesh().dims(), out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PandaError> {
        let dims = Vec::get(r)?;
        let elem = ElementType::get(r)?;
        let dists: Vec<Dist> = Vec::get(r)?;
        let mesh_dims = Vec::get(r)?;
        let shape = Shape::new(&dims).map_err(|_| PandaError::Decode { context: "shape" })?;
        let mesh = Mesh::new(&mesh_dims).map_err(|_| PandaError::Decode { context: "mesh" })?;
        DataSchema::new(shape, elem, &dists, mesh)
            .map_err(|_| PandaError::Decode { context: "schema" })
    }
}

/// Name, memory schema, disk schema, subchunk override in bytes (0 for
/// none).
impl Wire for ArrayMeta {
    const MIN_LEN: usize = String::MIN_LEN + 2 * DataSchema::MIN_LEN + u64::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        put_str(self.name(), out);
        self.memory().put(out);
        self.disk().put(out);
        self.subchunk_override().unwrap_or(0).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PandaError> {
        let (name, memory, disk) = (String::get(r)?, DataSchema::get(r)?, DataSchema::get(r)?);
        let meta = ArrayMeta::new(name, memory, disk).map_err(|_| PandaError::Decode {
            context: "array meta",
        })?;
        Ok(match usize::get(r)? {
            0 => meta,
            bytes => meta.with_subchunk_bytes(bytes),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let mut buf = Vec::new();
        value.put(&mut buf);
        assert!(
            buf.len() >= T::MIN_LEN,
            "{value:?} encodes below its MIN_LEN"
        );
        let mut r = Reader::new(&buf);
        assert_eq!(T::get(&mut r).unwrap(), value);
        r.finish().unwrap();
    }

    #[test]
    fn primitive_roundtrips() {
        let mut buf = Vec::new();
        7u8.put(&mut buf);
        0xdead_beef_u32.put(&mut buf);
        (u64::MAX - 1).put(&mut buf);
        12345usize.put(&mut buf);
        "panda".to_string().put(&mut buf);
        vec![1u8, 2, 3].put(&mut buf);
        vec![9usize, 8, 7].put(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(u8::get(&mut r).unwrap(), 7);
        assert_eq!(u32::get(&mut r).unwrap(), 0xdead_beef);
        assert_eq!(u64::get(&mut r).unwrap(), u64::MAX - 1);
        assert_eq!(usize::get(&mut r).unwrap(), 12345);
        assert_eq!(String::get(&mut r).unwrap(), "panda");
        assert_eq!(Vec::<u8>::get(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(Vec::<usize>::get(&mut r).unwrap(), vec![9, 8, 7]);
        r.finish().unwrap();
    }

    #[test]
    fn region_roundtrip() {
        roundtrip(Region::new(&[1, 2, 3], &[4, 5, 6]).unwrap());
        roundtrip(Some(Region::new(&[0], &[2]).unwrap()));
        roundtrip(None::<Region>);
    }

    #[test]
    fn schema_and_meta_roundtrip() {
        let shape = Shape::new(&[16, 8, 4]).unwrap();
        let mem = DataSchema::new(
            shape.clone(),
            ElementType::F64,
            &[Dist::Block, Dist::Block, Dist::Star],
            Mesh::new(&[2, 2]).unwrap(),
        )
        .unwrap();
        let disk = DataSchema::traditional_order(shape, ElementType::F64, 3).unwrap();
        let meta = ArrayMeta::new("density", mem, disk).unwrap();
        roundtrip(meta.clone());
        roundtrip(meta.with_subchunk_bytes(4096));
    }

    #[test]
    fn elem_variants_roundtrip() {
        for e in [
            ElementType::U8,
            ElementType::I32,
            ElementType::I64,
            ElementType::F32,
            ElementType::F64,
            ElementType::Opaque(24),
        ] {
            roundtrip(e);
        }
        for d in [Dist::Block, Dist::Star, Dist::Cyclic(3)] {
            roundtrip(d);
        }
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        42u64.put(&mut buf);
        let mut r = Reader::new(&buf[..4]);
        assert!(matches!(u64::get(&mut r), Err(PandaError::Decode { .. })));
    }

    #[test]
    fn bogus_tags_error() {
        let buf = [9u8];
        assert!(ElementType::get(&mut Reader::new(&buf)).is_err());
        assert!(Dist::get(&mut Reader::new(&buf)).is_err());
        assert!(Option::<u8>::get(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        // A count far larger than the buffer must not allocate, whatever
        // the element: one rule, the bytes left over the element's MIN_LEN.
        let mut buf = Vec::new();
        (usize::MAX / 2).put(&mut buf);
        assert!(Vec::<usize>::get(&mut Reader::new(&buf)).is_err());
        assert!(Vec::<u8>::get(&mut Reader::new(&buf)).is_err());
        assert!(Vec::<ArrayMeta>::get(&mut Reader::new(&buf)).is_err());
        assert!(String::get(&mut Reader::new(&buf)).is_err());
        // Three u32s promised, bytes for two and a half.
        let mut buf = Vec::new();
        3usize.put(&mut buf);
        buf.extend_from_slice(&[0; 10]);
        assert!(Vec::<u32>::get(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn a_detached_body_stays_in_its_frame() {
        let mut buf = Vec::new();
        5u32.put(&mut buf);
        vec![1u8, 2, 3].put(&mut buf);
        let mut r = Reader::head_of(&buf);
        assert_eq!(u32::get(&mut r).unwrap(), 5);
        assert!(r.body::<Vec<u8>>().unwrap().is_empty());
        assert_eq!((r.body_len(), r.remaining()), (3, 3));
    }
}
