//! Property tests: every value the task layer can produce must survive a
//! wire roundtrip, decoding must never panic on arbitrary bytes, and the
//! in-place list codec (`wire::items`) writes serde's bytes.

use proptest::collection::{btree_map, vec};
use proptest::option;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use wire::items::{check, frame, push, Items};
use wire::{encode_varint, Error};

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
enum Payload {
    Empty,
    Scalar(f64),
    Pair(i64, u64),
    Labelled { name: String, values: Vec<u32> },
}

fn payload_strategy() -> impl Strategy<Value = Payload> {
    prop_oneof![
        Just(Payload::Empty),
        any::<f64>().prop_map(Payload::Scalar),
        (any::<i64>(), any::<u64>()).prop_map(|(a, b)| Payload::Pair(a, b)),
        (".{0,32}", vec(any::<u32>(), 0..16))
            .prop_map(|(name, values)| Payload::Labelled { name, values }),
    ]
}

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
struct TaskRecord {
    id: u64,
    retries: u8,
    duration: Option<f64>,
    args: Vec<Payload>,
    env: std::collections::BTreeMap<String, String>,
}

fn record_strategy() -> impl Strategy<Value = TaskRecord> {
    (
        any::<u64>(),
        any::<u8>(),
        option::of(any::<f64>()),
        vec(payload_strategy(), 0..8),
        btree_map(".{0,8}", ".{0,8}", 0..4),
    )
        .prop_map(|(id, retries, duration, args, env)| TaskRecord {
            id,
            retries,
            duration,
            args,
            env,
        })
}

fn assert_roundtrip<T>(v: &T)
where
    T: Serialize + for<'de> Deserialize<'de> + PartialEq + std::fmt::Debug,
{
    let bytes = wire::to_bytes(v).unwrap();
    let back: T = wire::from_bytes(&bytes).unwrap();
    // NaN-containing floats compare unequal; compare re-encodings instead.
    let re = wire::to_bytes(&back).unwrap();
    assert_eq!(bytes, re, "re-encoding differs for {v:?}");
}

proptest! {
    #[test]
    fn u64_roundtrip(v in any::<u64>()) {
        let bytes = wire::to_bytes(&v).unwrap();
        prop_assert_eq!(wire::from_bytes::<u64>(&bytes).unwrap(), v);
    }

    #[test]
    fn i64_roundtrip(v in any::<i64>()) {
        let bytes = wire::to_bytes(&v).unwrap();
        prop_assert_eq!(wire::from_bytes::<i64>(&bytes).unwrap(), v);
    }

    #[test]
    fn f64_bits_roundtrip(v in any::<f64>()) {
        let bytes = wire::to_bytes(&v).unwrap();
        prop_assert_eq!(wire::from_bytes::<f64>(&bytes).unwrap().to_bits(), v.to_bits());
    }

    #[test]
    fn string_roundtrip(v in ".{0,64}") {
        let bytes = wire::to_bytes(&v).unwrap();
        prop_assert_eq!(wire::from_bytes::<String>(&bytes).unwrap(), v);
    }

    #[test]
    fn record_roundtrip(rec in record_strategy()) {
        assert_roundtrip(&rec);
    }

    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        wire::encode_varint(v, &mut buf);
        let (back, used) = wire::decode_varint(&buf).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(used, buf.len());
    }

    #[test]
    fn zigzag_roundtrip(v in any::<i64>()) {
        prop_assert_eq!(wire::zigzag_decode(wire::zigzag_encode(v)), v);
    }

    /// Decoding arbitrary garbage must fail cleanly, never panic.
    #[test]
    fn decode_never_panics(bytes in vec(any::<u8>(), 0..256)) {
        let _ = wire::from_bytes::<TaskRecord>(&bytes);
        let _ = wire::from_bytes::<Vec<String>>(&bytes);
        let _ = wire::from_bytes::<(u64, f64, bool)>(&bytes);
    }

    /// Framing arbitrary payload sequences preserves both content and order.
    #[test]
    fn frame_stream_roundtrip(payloads in vec(vec(any::<u8>(), 0..128), 0..16)) {
        let mut buf = bytes::BytesMut::new();
        for p in &payloads {
            wire::write_frame(&mut buf, p).unwrap();
        }
        for p in &payloads {
            let frame = wire::read_frame(&mut buf).unwrap().expect("frame present");
            prop_assert_eq!(frame.as_ref(), p.as_slice());
        }
        prop_assert!(wire::read_frame(&mut buf).unwrap().is_none());
    }
}

fn byte_lists() -> impl Strategy<Value = Vec<Vec<u8>>> {
    vec(vec(any::<u8>(), 0..40), 0..20)
}

fn encode_items(items: &[Vec<u8>]) -> Vec<u8> {
    let mut body = Vec::new();
    for item in items {
        push(item, &mut body);
    }
    frame(items.len(), &body)
}

fn walk(input: &[u8]) -> wire::Result<Vec<Vec<u8>>> {
    let mut items = Items::new(input)?;
    let mut out = Vec::new();
    let mut buf = Vec::new();
    while items.next_into(&mut buf)? {
        out.push(buf.clone());
    }
    Ok(out)
}

proptest! {
    // The encoding of a `Vec<Vec<u8>>`, written and walked in place by
    // `wire::items`, is serde's byte for byte, and fails where serde fails.
    #[test]
    fn frames_are_serdes_bytes(items in byte_lists()) {
        let bytes = encode_items(&items);
        prop_assert_eq!(&bytes, &wire::to_bytes(&items).unwrap());
        prop_assert_eq!(check(&bytes).unwrap(), (items.len(), &[] as &[u8]));
        prop_assert_eq!(walk(&bytes).unwrap(), items);
    }

    #[test]
    fn a_skipped_tail_is_serdes_tail(items in byte_lists(), at in 0usize..20) {
        let at = at.min(items.len());
        let bytes = wire::to_bytes(&items).unwrap();
        let mut walked = Items::new(&bytes).unwrap();
        walked.skip(at).unwrap();
        let tail = frame(items.len() - at, walked.rest());
        prop_assert_eq!(tail, wire::to_bytes(&items[at..].to_vec()).unwrap());
    }

    #[test]
    fn hostile_input_fails_where_serde_fails(bytes in vec(any::<u8>(), 0..64)) {
        let serde = wire::from_bytes::<Vec<Vec<u8>>>(&bytes);
        let ours = check(&bytes).and_then(|(_, tail)| {
            if tail.is_empty() { walk(&bytes) } else { Err(Error::TrailingBytes) }
        });
        prop_assert_eq!(serde.ok(), ours.ok());
    }
}

#[test]
fn every_malformation_is_an_error() {
    let good = wire::to_bytes(&vec![vec![1u8, 200], vec![]]).unwrap();
    // Truncated anywhere.
    for cut in 0..good.len() {
        assert!(check(&good[..cut]).is_err(), "cut at {cut}");
    }
    // A "byte" of 300.
    let mut big = Vec::new();
    encode_varint(1, &mut big);
    encode_varint(1, &mut big);
    encode_varint(300, &mut big);
    assert!(matches!(check(&big), Err(Error::LengthOverflow(300))));
    // A count larger than the bytes can hold.
    assert!(matches!(check(&[9, 0]), Err(Error::LengthOverflow(9))));
    // An element length larger than the bytes left.
    assert!(matches!(check(&[1, 5, 1]), Err(Error::LengthOverflow(5))));
    // Trailing bytes are left to the caller.
    let mut trailing = good.clone();
    trailing.push(7);
    assert_eq!(check(&trailing).unwrap(), (2, &[7u8][..]));
}
