//! LEB128 varints and zigzag mapping for signed integers.

use crate::error::{Error, Result};

/// Append the LEB128 encoding of `value` to `out`.
#[inline]
pub fn encode_varint(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Length of `value` as a LEB128 varint.
#[inline]
pub fn varint_len(value: u64) -> usize {
    (64 - (value | 1).leading_zeros() as usize).div_ceil(7)
}

/// Decode a LEB128 varint from the front of `input`.
///
/// Returns the value and the number of bytes consumed.
#[inline]
pub fn decode_varint(input: &[u8]) -> Result<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i == 10 {
            return Err(Error::VarintOverflow);
        }
        let low = (byte & 0x7f) as u64;
        // The tenth byte may only contribute one bit.
        if shift == 63 && low > 1 {
            return Err(Error::VarintOverflow);
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(Error::Eof)
}

/// Map a signed integer onto an unsigned one so small magnitudes stay small.
#[inline]
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) {
        let mut buf = Vec::new();
        encode_varint(v, &mut buf);
        let (back, used) = decode_varint(&buf).unwrap();
        assert_eq!(back, v);
        assert_eq!(used, buf.len());
        assert_eq!(varint_len(v), buf.len());
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            roundtrip(v);
        }
    }

    #[test]
    fn varint_encoding_is_minimal() {
        let mut buf = Vec::new();
        encode_varint(127, &mut buf);
        assert_eq!(buf.len(), 1);
        buf.clear();
        encode_varint(128, &mut buf);
        assert_eq!(buf.len(), 2);
        buf.clear();
        encode_varint(u64::MAX, &mut buf);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn varint_rejects_overlong() {
        // Eleven continuation bytes.
        let bad = [0x80u8; 11];
        assert!(matches!(decode_varint(&bad), Err(Error::VarintOverflow)));
        // Tenth byte with more than one significant bit overflows u64.
        let mut bad = vec![0xffu8; 9];
        bad.push(0x02);
        assert!(matches!(decode_varint(&bad), Err(Error::VarintOverflow)));
    }

    #[test]
    fn varint_rejects_truncation() {
        let bad = [0x80u8, 0x80];
        assert!(matches!(decode_varint(&bad), Err(Error::Eof)));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, -123456789] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_small() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
    }
}
