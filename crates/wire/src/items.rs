//! The encoding of a `Vec<Vec<u8>>`, written and walked in place.
//!
//! A list of byte strings encodes as a varint count, then each element
//! as a `Vec<u8>` ([`crate::encode_bytes`]). Fused map chunks carry their
//! elements in this form; these helpers write it element by element into
//! one buffer and walk it into one reused scratch buffer, so a million
//! elements cost no million heap objects. The bytes are exactly what
//! [`crate::to_bytes`] makes of the same `Vec<Vec<u8>>`.

use crate::codec::{encode_bytes, Reader};
use crate::error::{Error, Result};
use crate::varint::encode_varint;

/// Append one element: its length, then each byte as a varint.
pub fn push(item: &[u8], out: &mut Vec<u8>) {
    encode_bytes(item, out);
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
    r: Reader<'a>,
    left: usize,
}

impl<'a> Items<'a> {
    /// The list at the front of `input` (anything after it is left in
    /// [`Items::rest`]). Only the count is read here; each element is
    /// checked as it is walked.
    pub fn new(input: &'a [u8]) -> Result<Self> {
        let mut r = Reader::new(input);
        // Every element takes at least one byte.
        let count = r.length()?;
        Ok(Items::bare(r.rest(), count))
    }

    /// `count` elements laid back to back with no count before them, as
    /// [`push`] appends them.
    pub fn bare(body: &'a [u8], count: usize) -> Self {
        Items {
            r: Reader::new(body),
            left: count,
        }
    }

    /// Elements not walked yet.
    pub fn remaining(&self) -> usize {
        self.left
    }

    /// The bytes not walked yet: the elements left, then whatever follows.
    pub fn rest(&self) -> &'a [u8] {
        self.r.rest()
    }

    /// Decode the next element into `buf` (cleared first); false once
    /// every element has been walked.
    pub fn next_into(&mut self, buf: &mut Vec<u8>) -> Result<bool> {
        if self.left == 0 {
            return Ok(false);
        }
        buf.clear();
        self.step(|run| buf.extend_from_slice(run))?;
        Ok(true)
    }

    /// Step over the next `n` elements, checking them; returns their
    /// encodings as they stand in the list.
    pub fn skip(&mut self, n: usize) -> Result<&'a [u8]> {
        let from = self.r.rest();
        for _ in 0..n {
            if self.left == 0 {
                return Err(Error::Eof);
            }
            self.step(|_| ())?;
        }
        Ok(&from[..from.len() - self.r.remaining()])
    }

    fn step(&mut self, each: impl FnMut(&[u8])) -> Result<()> {
        // Every byte takes at least one byte of input.
        let len = self.r.length()?;
        self.r.bytes(len, each)?;
        self.left -= 1;
        Ok(())
    }
}
