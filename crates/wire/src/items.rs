//! The encoding of a `Vec<Vec<u8>>`, written and walked in place.
//!
//! A list of byte strings encodes as a varint count, then per element a
//! varint length and one varint per byte (serde sees a `Vec<u8>` as a
//! sequence of `u8`). Fused map chunks carry their elements in this form;
//! these helpers write it element by element into one buffer and walk it
//! into one reused scratch buffer, so a million elements cost no million
//! heap objects. The bytes are exactly what [`crate::to_bytes`] makes of
//! the same `Vec<Vec<u8>>`.

use crate::error::{Error, Result};
use crate::varint::{decode_varint, encode_varint};

/// Append one element: its length, then each byte as a varint.
pub fn push(item: &[u8], out: &mut Vec<u8>) {
    encode_varint(item.len() as u64, out);
    out.reserve(item.len());
    for &b in item {
        if b < 0x80 {
            out.push(b);
        } else {
            out.extend_from_slice(&[b | 0x80, 1]);
        }
    }
}

/// A list of `count` elements whose encodings are `body`: the count
/// prefix, then `body` copied once.
pub fn frame(count: usize, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(10 + body.len());
    encode_varint(count as u64, &mut out);
    out.extend_from_slice(body);
    out
}

/// Check that `input` starts with a well-formed list: every length within
/// the bytes left and every byte value at most 255. Returns the element
/// count and the bytes after the list.
pub fn check(input: &[u8]) -> Result<(usize, &[u8])> {
    let mut items = Items::new(input)?;
    let count = items.remaining();
    items.skip(count)?;
    Ok((count, items.rest()))
}

/// A cursor over the elements of a list.
#[derive(Debug)]
pub struct Items<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Items<'a> {
    /// The list at the front of `input` (anything after it is left in
    /// [`Items::rest`]). Only the count is read here; each element is
    /// checked as it is walked.
    pub fn new(input: &'a [u8]) -> Result<Self> {
        let (count, used) = decode_varint(input)?;
        // Every element takes at least one byte.
        if count > (input.len() - used) as u64 {
            return Err(Error::LengthOverflow(count));
        }
        Ok(Items::bare(&input[used..], count as usize))
    }

    /// `count` elements laid back to back with no count before them, as
    /// [`push`] appends them.
    pub fn bare(body: &'a [u8], count: usize) -> Self {
        Items {
            rest: body,
            left: count,
        }
    }

    /// Elements not walked yet.
    pub fn remaining(&self) -> usize {
        self.left
    }

    /// The bytes not walked yet: the elements left, then whatever follows.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Decode the next element into `buf` (cleared first); false once
    /// every element has been walked.
    pub fn next_into(&mut self, buf: &mut Vec<u8>) -> Result<bool> {
        if self.left == 0 {
            return Ok(false);
        }
        buf.clear();
        self.step(|b| buf.push(b))?;
        Ok(true)
    }

    /// Step over the next `n` elements, checking them; returns their
    /// encodings as they stand in the list.
    pub fn skip(&mut self, n: usize) -> Result<&'a [u8]> {
        let from = self.rest;
        for _ in 0..n {
            if self.left == 0 {
                return Err(Error::Eof);
            }
            self.step(|_| ())?;
        }
        Ok(&from[..from.len() - self.rest.len()])
    }

    fn step(&mut self, mut byte: impl FnMut(u8)) -> Result<()> {
        let (len, mut pos) = decode_varint(self.rest)?;
        // Every byte takes at least one byte of input.
        if len > (self.rest.len() - pos) as u64 {
            return Err(Error::LengthOverflow(len));
        }
        for _ in 0..len {
            match self.rest.get(pos) {
                Some(&b) if b < 0x80 => {
                    byte(b);
                    pos += 1;
                }
                _ => {
                    let (v, used) = decode_varint(&self.rest[pos..])?;
                    byte(u8::try_from(v).map_err(|_| Error::LengthOverflow(v))?);
                    pos += used;
                }
            }
        }
        self.rest = &self.rest[pos..];
        self.left -= 1;
        Ok(())
    }
}
