//! The format itself: what every value's bytes are, written once.
//!
//! [`Encode`] appends a value to a buffer and [`Decode`] reads one back
//! through a [`Reader`]. The impls here cover the std values apps and
//! protocol messages carry; [`codec!`](crate::codec!) writes both for a
//! plain struct or enum from its definition.

use crate::error::{Error, Result};
use crate::varint::{decode_varint, encode_varint, varint_len, zigzag_decode, zigzag_encode};
use std::collections::BTreeMap;

/// A value with a wire encoding.
pub trait Encode {
    /// Append this value's encoding to `out`. Fails only where an impl
    /// refuses a value; the std impls never do.
    fn encode(&self, out: &mut Vec<u8>) -> Result<()>;

    /// Append a `Vec<Self>`'s encoding of `items`: the count, then each
    /// element.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) -> Result<()>
    where
        Self: Sized,
    {
        encode_varint(items.len() as u64, out);
        items.iter().try_for_each(|v| v.encode(out))
    }
}

/// A value that can be read back from its wire encoding.
pub trait Decode: Sized {
    /// Read one value from the front of `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// Read a `Vec<Self>`: the count, then each element.
    fn decode_vec(r: &mut Reader<'_>) -> Result<Vec<Self>> {
        let len = r.length()?;
        // An element may take no bytes (`()`), so the count alone does not
        // bound the memory; growth past 4096 follows the elements read.
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }
}

/// Append a `Vec<u8>`'s encoding of `bytes`: the count, then each byte
/// as a varint, so a byte ≥ 0x80 takes two.
pub fn encode_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    encode_varint(bytes.len() as u64, out);
    out.reserve(bytes.len());
    if bytes.is_ascii() {
        out.extend_from_slice(bytes);
        return;
    }
    for &b in bytes {
        if b < 0x80 {
            out.push(b);
        } else {
            out.extend_from_slice(&[b | 0x80, 1]);
        }
    }
}

/// The length of [`encode_bytes`]'s encoding of `bytes`.
pub fn encoded_bytes_len(bytes: &[u8]) -> usize {
    let high = if bytes.is_ascii() {
        0
    } else {
        bytes.iter().filter(|&&b| b >= 0x80).count()
    };
    varint_len(bytes.len() as u64) + bytes.len() + high
}

/// Append `bytes` as a string's body is laid out: the length, then the
/// bytes as they are.
pub fn encode_raw(bytes: &[u8], out: &mut Vec<u8>) {
    encode_varint(bytes.len() as u64, out);
    out.extend_from_slice(bytes);
}

/// A cursor over encoded bytes, consumed from the front. A hand-written
/// [`Decode`] reads through the impls of its parts, or [`Reader::varint`]
/// and [`Reader::raw`].
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over all of `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Reader { rest: input }
    }

    /// Number of unread bytes.
    pub(crate) fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The unread bytes.
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Succeed only if every byte has been read.
    pub fn end(&self) -> Result<()> {
        match self.rest {
            [] => Ok(()),
            _ => Err(Error::TrailingBytes),
        }
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.rest.len() < n {
            return Err(Error::Eof);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk::<N>().ok_or(Error::Eof)?;
        self.rest = rest;
        Ok(*head)
    }

    /// The next byte.
    fn byte(&mut self) -> Result<u8> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// The next LEB128 varint.
    pub fn varint(&mut self) -> Result<u64> {
        let (v, used) = decode_varint(self.rest)?;
        self.rest = &self.rest[used..];
        Ok(v)
    }

    /// A length or count prefix.
    pub(crate) fn length(&mut self) -> Result<usize> {
        let v = self.varint()?;
        // Any valid length is bounded by the remaining input, which guards
        // against hostile lengths pre-allocating huge buffers.
        if v > self.remaining() as u64 {
            return Err(Error::LengthOverflow(v));
        }
        Ok(v as usize)
    }

    /// A length-prefixed run of bytes, as [`encode_raw`] writes it.
    pub fn raw(&mut self) -> Result<&'a [u8]> {
        let len = self.length()?;
        self.take(len)
    }

    /// The `len` bytes of a `Vec<u8>` after its count, as [`encode_bytes`]
    /// writes them, handed to `each` in runs.
    pub(crate) fn bytes(&mut self, len: usize, mut each: impl FnMut(&[u8])) -> Result<()> {
        let mut left = len;
        while left > 0 {
            match *self.rest {
                // A run of bytes < 0x80, each its own one-byte varint.
                [b, ref rest @ ..] if b < 0x80 => {
                    let run = 1 + rest
                        .iter()
                        .take(left - 1)
                        .take_while(|&&b| b < 0x80)
                        .count();
                    let (head, rest) = self.rest.split_at(run);
                    each(head);
                    self.rest = rest;
                    left -= run;
                }
                // A byte ≥ 0x80 as `encode_bytes` writes it.
                [b, 1, ref rest @ ..] => {
                    each(&[b]);
                    self.rest = rest;
                    left -= 1;
                }
                _ => {
                    let v = self.varint()?;
                    each(&[u8::try_from(v).map_err(|_| Error::IntegerOverflow(v))?]);
                    left -= 1;
                }
            }
        }
        Ok(())
    }
}

impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        encode_varint((*self).into(), out);
        Ok(())
    }

    fn encode_slice(items: &[u8], out: &mut Vec<u8>) -> Result<()> {
        encode_bytes(items, out);
        Ok(())
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let v = r.varint()?;
        u8::try_from(v).map_err(|_| Error::IntegerOverflow(v))
    }

    fn decode_vec(r: &mut Reader<'_>) -> Result<Vec<u8>> {
        let len = r.length()?;
        let mut out = Vec::with_capacity(len);
        r.bytes(len, |run| out.extend_from_slice(run))?;
        Ok(out)
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
                encode_varint(*self as u64, out);
                Ok(())
            }
        }

        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                let v = r.varint()?;
                <$t>::try_from(v).map_err(|_| Error::IntegerOverflow(v))
            }
        }
    )*};
}

unsigned!(u16, u32, u64, usize);

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
                encode_varint(zigzag_encode(*self as i64), out);
                Ok(())
            }
        }

        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                let v = zigzag_decode(r.varint()?);
                <$t>::try_from(v).map_err(|_| Error::IntegerOverflow(v.unsigned_abs()))
            }
        }
    )*};
}

signed!(i8, i16, i32, i64, isize);

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        out.push(*self as u8);
        Ok(())
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::InvalidBool(b)),
        }
    }
}

macro_rules! float {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
                out.extend_from_slice(&self.to_le_bytes());
                Ok(())
            }
        }

        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

float!(f32, f64);

impl Encode for char {
    fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        encode_varint(u32::from(*self).into(), out);
        Ok(())
    }
}

impl Decode for char {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let scalar = u32::try_from(r.varint()?).map_err(|_| Error::InvalidChar(u32::MAX))?;
        char::from_u32(scalar).ok_or(Error::InvalidChar(scalar))
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        encode_raw(self.as_bytes(), out);
        Ok(())
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let s = std::str::from_utf8(r.raw()?).map_err(|_| Error::InvalidUtf8)?;
        Ok(s.to_owned())
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        T::encode_slice(self, out)
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        T::decode_vec(r)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        match self {
            None => {
                out.push(0);
                Ok(())
            }
            Some(v) => {
                out.push(1);
                v.encode(out)
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.byte()? {
            0 => Ok(None),
            1 => T::decode(r).map(Some),
            b => Err(Error::InvalidBool(b)),
        }
    }
}

impl<T: Encode> Encode for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        (**self).encode(out)
    }
}

impl<T: Decode> Decode for Box<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        T::decode(r).map(Box::new)
    }
}

/// `Ok` is variant 0 and `Err` variant 1, as for any two-variant enum.
impl<T: Encode, E: Encode> Encode for std::result::Result<T, E> {
    fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        match self {
            Ok(v) => {
                out.push(0);
                v.encode(out)
            }
            Err(e) => {
                out.push(1);
                e.encode(out)
            }
        }
    }
}

impl<T: Decode, E: Decode> Decode for std::result::Result<T, E> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.varint()? {
            0 => T::decode(r).map(Ok),
            1 => E::decode(r).map(Err),
            v => Err(Error::InvalidVariant(v.min(u32::MAX.into()) as u32)),
        }
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        encode_varint(self.len() as u64, out);
        self.iter().try_for_each(|(k, v)| {
            k.encode(out)?;
            v.encode(out)
        })
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = r.length()?;
        (0..len)
            .map(|_| Ok((K::decode(r)?, V::decode(r)?)))
            .collect()
    }
}

impl Encode for () {
    fn encode(&self, _out: &mut Vec<u8>) -> Result<()> {
        Ok(())
    }
}

impl Decode for () {
    fn decode(_r: &mut Reader<'_>) -> Result<Self> {
        Ok(())
    }
}

macro_rules! tuples {
    ($(($($t:ident . $i:tt),+))+) => {$(
        impl<$($t: Encode),+> Encode for ($($t,)+) {
            fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
                $(self.$i.encode(out)?;)+
                Ok(())
            }
        }

        impl<$($t: Decode),+> Decode for ($($t,)+) {
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok(($($t::decode(r)?,)+))
            }
        }
    )+};
}

// Up to the widest argument tuple an app takes (`parsl_core::app`).
tuples! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

/// Define a struct with named fields, or an enum, and its [`Encode`] and
/// [`Decode`] impls. A struct encodes its fields in declaration order; an
/// enum encodes its variant's index in declaration order as a varint,
/// then that variant's fields. Attributes and doc comments pass through.
///
/// ```
/// wire::codec! {
///     /// A unit of work.
///     #[derive(Debug, PartialEq)]
///     pub enum Job {
///         Stop,
///         Run(u64, String),
///         Retry { id: u64, attempts: u32 },
///     }
/// }
///
/// let job = Job::Retry { id: 7, attempts: 2 };
/// assert_eq!(wire::to_bytes(&job).unwrap(), [2, 7, 2]);
/// assert_eq!(wire::from_bytes::<Job>(&[1, 9, 1, b'x']).unwrap(), Job::Run(9, "x".into()));
/// ```
#[macro_export]
macro_rules! codec {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field : $fty),*
        }

        impl $crate::Encode for $name {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) -> $crate::Result<()> {
                $($crate::Encode::encode(&self.$field, out)?;)*
                ::std::result::Result::Ok(())
            }
        }

        impl $crate::Decode for $name {
            fn decode(r: &mut $crate::Reader<'_>) -> $crate::Result<Self> {
                ::std::result::Result::Ok($name {
                    $($field: $crate::Decode::decode(r)?),*
                })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $(($($tty:ty),* $(,)?))?
                $({$($(#[$fmeta:meta])* $field:ident : $fty:ty),* $(,)?})?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant
                $(($($tty),*))?
                $({$($(#[$fmeta])* $field : $fty),*})?
            ),*
        }

        impl $crate::Encode for $name {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) -> $crate::Result<()> {
                enum Index { $($variant),* }
                $crate::__codec_arms!(
                    self out $name []
                    $([$variant $(($($tty),*))? $({$($field),*})?])*
                )
            }
        }

        impl $crate::Decode for $name {
            fn decode(r: &mut $crate::Reader<'_>) -> $crate::Result<Self> {
                enum Index { $($variant),* }
                let index = r.varint()?;
                $(
                    if index == Index::$variant as u64 {
                        return ::std::result::Result::Ok($name::$variant
                            $(($(<$tty as $crate::Decode>::decode(r)?),*))?
                            $({$($field: $crate::Decode::decode(r)?),*})?);
                    }
                )*
                ::std::result::Result::Err($crate::Error::InvalidVariant(
                    index.min(u32::MAX.into()) as u32,
                ))
            }
        }
    };
}

/// The `match` of an enum's `Encode` impl, one arm per variant; a tuple
/// variant's fields are bound to names taken from `f0 f1 …` first.
#[doc(hidden)]
#[macro_export]
macro_rules! __codec_arms {
    ($value:ident $out:ident $name:ident [$($arms:tt)*]) => {
        match $value { $($arms)* }
    };
    (
        $value:ident $out:ident $name:ident [$($arms:tt)*]
        [$variant:ident $({$($field:ident),*})?] $($rest:tt)*
    ) => {
        $crate::__codec_arms!($value $out $name [
            $($arms)*
            $name::$variant $({$($field),*})? => {
                $crate::encode_varint(Index::$variant as u64, $out);
                $($($crate::Encode::encode($field, $out)?;)*)?
                ::std::result::Result::Ok(())
            }
        ] $($rest)*)
    };
    (
        $value:ident $out:ident $name:ident [$($arms:tt)*]
        [$variant:ident ($($tty:ty),*)] $($rest:tt)*
    ) => {
        $crate::__codec_arms!(@bind $value $out $name [$($arms)*] $variant []
            [f0 f1 f2 f3 f4 f5 f6 f7] [$($tty),*] $($rest)*)
    };
    (
        @bind $value:ident $out:ident $name:ident [$($arms:tt)*] $variant:ident
        [$($bound:ident)*] [$next:ident $($names:ident)*] [$tty:ty $(, $ttys:ty)*]
        $($rest:tt)*
    ) => {
        $crate::__codec_arms!(@bind $value $out $name [$($arms)*] $variant
            [$($bound)* $next] [$($names)*] [$($ttys),*] $($rest)*)
    };
    (
        @bind $value:ident $out:ident $name:ident [$($arms:tt)*] $variant:ident
        [$($bound:ident)*] [$($names:ident)*] [] $($rest:tt)*
    ) => {
        $crate::__codec_arms!($value $out $name [
            $($arms)*
            $name::$variant($($bound),*) => {
                $crate::encode_varint(Index::$variant as u64, $out);
                $($crate::Encode::encode($bound, $out)?;)*
                ::std::result::Result::Ok(())
            }
        ] $($rest)*)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_bytes, to_bytes};

    #[test]
    fn unit_is_zero_bytes() {
        assert!(to_bytes(&()).unwrap().is_empty());
    }

    #[test]
    fn small_ints_are_one_byte() {
        assert_eq!(to_bytes(&5u64).unwrap().len(), 1);
        assert_eq!(to_bytes(&-3i64).unwrap().len(), 1);
    }

    #[test]
    fn str_layout_is_len_prefixed() {
        let b = to_bytes(&"ab".to_string()).unwrap();
        assert_eq!(b, vec![2, b'a', b'b']);
    }

    #[test]
    fn narrowing_overflow_is_detected() {
        let bytes = to_bytes(&300u64).unwrap();
        assert!(matches!(
            from_bytes::<u8>(&bytes),
            Err(Error::IntegerOverflow(300))
        ));
        let bytes = to_bytes(&(1u64 << 40)).unwrap();
        assert!(matches!(
            from_bytes::<u32>(&bytes),
            Err(Error::IntegerOverflow(n)) if n == 1 << 40
        ));
        let bytes = to_bytes(&-200i64).unwrap();
        assert!(matches!(
            from_bytes::<i8>(&bytes),
            Err(Error::IntegerOverflow(200))
        ));
    }

    #[test]
    fn hostile_length_rejected() {
        // Claims a 2^40-byte string with no data behind it.
        let mut bytes = Vec::new();
        encode_varint(1 << 40, &mut bytes);
        assert!(matches!(
            from_bytes::<String>(&bytes),
            Err(Error::LengthOverflow(_))
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let bytes = vec![2, 0xff, 0xfe];
        assert!(matches!(
            from_bytes::<String>(&bytes),
            Err(Error::InvalidUtf8)
        ));
    }

    #[test]
    fn invalid_bool_rejected() {
        assert!(matches!(
            from_bytes::<bool>(&[7]),
            Err(Error::InvalidBool(7))
        ));
    }

    #[test]
    fn invalid_char_rejected() {
        let mut bytes = Vec::new();
        encode_varint(0xD800, &mut bytes); // lone surrogate
        assert!(matches!(
            from_bytes::<char>(&bytes),
            Err(Error::InvalidChar(0xD800))
        ));
    }

    #[test]
    fn out_of_range_variant_rejected() {
        crate::codec! {
            #[derive(Debug)]
            enum E {
                A,
            }
        }
        assert!(matches!(from_bytes::<E>(&[0]), Ok(E::A)));
        assert!(matches!(
            from_bytes::<E>(&[9]),
            Err(Error::InvalidVariant(9))
        ));
    }

    #[test]
    fn the_byte_sequence_rule_is_one_rule() {
        let all: Vec<u8> = (0..=255).collect();
        for bytes in [&[][..], b"ascii", &all] {
            let mut out = Vec::new();
            encode_bytes(bytes, &mut out);
            assert_eq!(out.len(), encoded_bytes_len(bytes));
            // Element by element, as any other `Vec<T>`.
            let mut each = Vec::new();
            encode_varint(bytes.len() as u64, &mut each);
            bytes.iter().for_each(|b| b.encode(&mut each).unwrap());
            assert_eq!(out, each);
            assert_eq!(from_bytes::<Vec<u8>>(&out).unwrap(), bytes);
        }
    }
}
