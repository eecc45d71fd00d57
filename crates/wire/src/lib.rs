//! `wire` — the repo's serialization substrate.
//!
//! Parsl moves tasks between processes by pickling the function and its
//! arguments. This crate plays that role for the Rust reproduction: a
//! compact, non-self-describing binary format implemented directly against
//! the [`serde`] data model, plus a length-prefixed frame protocol used at
//! every "network" boundary (the `nexus` fabric, checkpoint files, and the
//! executors' task/result payloads).
//!
//! # Format
//!
//! - unsigned integers: LEB128 varint
//! - signed integers: zigzag + varint
//! - `f32`/`f64`: IEEE-754 little-endian bits
//! - `bool`: one byte, `0`/`1`
//! - strings/bytes: varint length followed by raw bytes
//! - options: `0`/`1` tag followed by the value
//! - sequences/maps: varint length followed by elements
//! - structs/tuples: fields in declaration order, no names
//! - enums: varint variant index followed by the payload
//!
//! # Example
//!
//! ```
//! use serde::{Serialize, Deserialize};
//!
//! #[derive(Serialize, Deserialize, PartialEq, Debug)]
//! struct Task { id: u64, payload: Vec<f64>, tag: Option<String> }
//!
//! let t = Task { id: 7, payload: vec![1.5, -2.0], tag: Some("align".into()) };
//! let bytes = wire::to_bytes(&t).unwrap();
//! let back: Task = wire::from_bytes(&bytes).unwrap();
//! assert_eq!(t, back);
//! ```

mod de;
mod error;
mod frame;
mod hash;
pub mod items;
mod ser;
mod varint;

pub use de::{from_bytes, Deserializer};
pub use error::{Error, Result};
pub use frame::{read_frame, write_frame, FrameReader, FrameWriter, StreamDecoder, MAX_FRAME_LEN};
pub use hash::{fnv1a, fnv1a_str, Fnv1aHasher};
pub use ser::{to_bytes, to_writer, Serializer};
pub use varint::{decode_varint, encode_varint, zigzag_decode, zigzag_encode};

/// Serialize a value and report the encoded size in bytes.
///
/// Used by the executors to account for payload sizes when batching.
pub fn encoded_len<T: serde::Serialize>(value: &T) -> Result<usize> {
    Ok(to_bytes(value)?.len())
}

/// Decode one varint-length-prefixed string from the front of `input`
/// without copying it.
///
/// Returns the borrowed string and the total bytes consumed (prefix +
/// body). This is exactly how the format lays out strings, so protocol
/// routers can peek an address field out of an encoded frame — and then
/// forward the raw bytes verbatim — without deserializing the whole
/// message.
pub fn decode_str_prefix(input: &[u8]) -> Result<(&str, usize)> {
    let (len, used) = decode_varint(input)?;
    let len = usize::try_from(len).map_err(|_| Error::LengthOverflow(len))?;
    let end = used
        .checked_add(len)
        .ok_or(Error::LengthOverflow(len as u64))?;
    if end > input.len() {
        return Err(Error::Eof);
    }
    let s = std::str::from_utf8(&input[used..end]).map_err(|_| Error::InvalidUtf8)?;
    Ok((s, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    fn roundtrip<T>(v: &T) -> T
    where
        T: Serialize + for<'de> Deserialize<'de>,
    {
        let bytes = to_bytes(v).expect("serialize");
        from_bytes(&bytes).expect("deserialize")
    }

    #[test]
    fn roundtrip_primitives() {
        assert!(roundtrip(&true));
        assert!(!roundtrip(&false));
        assert_eq!(roundtrip(&0u8), 0u8);
        assert_eq!(roundtrip(&255u8), 255u8);
        assert_eq!(roundtrip(&-1i64), -1i64);
        assert_eq!(roundtrip(&i64::MIN), i64::MIN);
        assert_eq!(roundtrip(&i64::MAX), i64::MAX);
        assert_eq!(roundtrip(&u64::MAX), u64::MAX);
        assert_eq!(roundtrip(&core::f64::consts::PI), core::f64::consts::PI);
        assert_eq!(roundtrip(&'🦀'), '🦀');
        assert_eq!(roundtrip(&"hello".to_string()), "hello");
    }

    #[test]
    fn roundtrip_float_edge_cases() {
        assert_eq!(roundtrip(&f64::INFINITY), f64::INFINITY);
        assert_eq!(roundtrip(&f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert!(roundtrip(&f64::NAN).is_nan());
        assert_eq!(roundtrip(&-0.0f64).to_bits(), (-0.0f64).to_bits());
        assert_eq!(roundtrip(&f32::MIN_POSITIVE), f32::MIN_POSITIVE);
    }

    #[test]
    fn roundtrip_containers() {
        assert_eq!(roundtrip(&vec![1u32, 2, 3]), vec![1u32, 2, 3]);
        assert_eq!(roundtrip(&Vec::<String>::new()), Vec::<String>::new());
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1i32);
        m.insert("b".to_string(), -2i32);
        assert_eq!(roundtrip(&m), m);
        assert_eq!(roundtrip(&Some(42u16)), Some(42u16));
        assert_eq!(roundtrip(&None::<u16>), None::<u16>);
        assert_eq!(
            roundtrip(&(1u8, "x".to_string(), 2.5f64)),
            (1u8, "x".to_string(), 2.5f64)
        );
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
    enum Shape {
        Unit,
        NewType(u32),
        Tuple(u8, u8),
        Struct { x: i64, label: String },
    }

    #[test]
    fn roundtrip_enums() {
        for s in [
            Shape::Unit,
            Shape::NewType(9),
            Shape::Tuple(1, 2),
            Shape::Struct {
                x: -5,
                label: "edge".into(),
            },
        ] {
            assert_eq!(roundtrip(&s), s);
        }
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Nested {
        inner: Vec<Shape>,
        grid: Vec<Vec<f32>>,
        opt: Option<Box<Nested>>,
    }

    #[test]
    fn roundtrip_nested_struct() {
        let n = Nested {
            inner: vec![Shape::Unit, Shape::NewType(3)],
            grid: vec![vec![1.0, 2.0], vec![]],
            opt: Some(Box::new(Nested {
                inner: vec![],
                grid: vec![],
                opt: None,
            })),
        };
        assert_eq!(roundtrip(&n), n);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u32).unwrap();
        bytes.push(0);
        let err = from_bytes::<u32>(&bytes).unwrap_err();
        assert!(matches!(err, Error::TrailingBytes));
    }

    #[test]
    fn truncated_input_rejected() {
        // A truncated string body trips the hostile-length guard (the
        // declared length exceeds the remaining bytes); a truncated varint
        // trips Eof. Either way decoding must fail.
        let bytes = to_bytes(&"hello world".to_string()).unwrap();
        let err = from_bytes::<String>(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(matches!(err, Error::Eof | Error::LengthOverflow(_)));

        let bytes = to_bytes(&(1u64 << 40)).unwrap();
        let err = from_bytes::<u64>(&bytes[..2]).unwrap_err();
        assert!(matches!(err, Error::Eof));
    }

    #[test]
    fn encoded_len_matches() {
        let v = vec![1u64, 2, 3];
        assert_eq!(encoded_len(&v).unwrap(), to_bytes(&v).unwrap().len());
    }

    #[test]
    fn str_prefix_peek_matches_full_decode() {
        // A string followed by other fields: the peek must consume exactly
        // the string's encoding and borrow, not copy, the body.
        let mut bytes = to_bytes(&"interchange".to_string()).unwrap();
        let string_len = bytes.len();
        bytes.extend_from_slice(&to_bytes(&7u64).unwrap());
        let (s, used) = decode_str_prefix(&bytes).unwrap();
        assert_eq!(s, "interchange");
        assert_eq!(used, string_len);
        let empty = to_bytes(&String::new()).unwrap();
        assert_eq!(decode_str_prefix(&empty).unwrap(), ("", 1));
    }

    #[test]
    fn str_prefix_rejects_hostile_input() {
        // Truncated body.
        let bytes = to_bytes(&"hello".to_string()).unwrap();
        assert!(matches!(
            decode_str_prefix(&bytes[..bytes.len() - 1]),
            Err(Error::Eof)
        ));
        // Declared length far beyond the buffer.
        let mut huge = Vec::new();
        encode_varint(u64::MAX, &mut huge);
        assert!(matches!(
            decode_str_prefix(&huge),
            Err(Error::Eof) | Err(Error::LengthOverflow(_))
        ));
        // Invalid UTF-8 body.
        let bad = [2u8, 0xff, 0xfe];
        assert!(matches!(decode_str_prefix(&bad), Err(Error::InvalidUtf8)));
    }
}
