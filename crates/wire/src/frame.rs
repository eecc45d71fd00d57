//! Length-prefixed frames: the unit of transmission on every boundary.
//!
//! A frame is a little-endian `u32` length followed by that many payload
//! bytes. Frames cap at [`MAX_FRAME_LEN`] so a corrupt prefix can't trigger
//! an enormous allocation.

use crate::error::{Error, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{Read, Write};

/// Upper bound on a single frame's payload (64 MiB).
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Append `payload` as one frame to `buf`.
pub fn write_frame(buf: &mut BytesMut, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(Error::LengthOverflow(payload.len() as u64));
    }
    buf.reserve(4 + payload.len());
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload);
    Ok(())
}

/// Try to split one complete frame off the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a full frame; callers
/// accumulate more bytes and retry.
pub fn read_frame(buf: &mut BytesMut) -> Result<Option<Bytes>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(Error::LengthOverflow(len as u64));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    buf.advance(4);
    let frame = Bytes::copy_from_slice(&buf[..len]);
    buf.advance(len);
    Ok(Some(frame))
}

/// Incremental decoder for a frame stream arriving in arbitrary chunks
/// (TCP reads, pipes).
///
/// Feed raw bytes as they arrive with [`StreamDecoder::feed`], then drain
/// complete frames with [`StreamDecoder::next_frame`]. Bytes split at any
/// boundary — mid-prefix, mid-payload — are buffered until the frame
/// completes. A corrupt length prefix surfaces as
/// [`Error::LengthOverflow`]; the decoder never panics on hostile input.
#[derive(Default)]
pub struct StreamDecoder {
    buf: BytesMut,
}

impl StreamDecoder {
    /// Fresh decoder with an empty buffer.
    pub fn new() -> Self {
        StreamDecoder::default()
    }

    /// Append bytes read off the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, or `Ok(None)` if more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>> {
        read_frame(&mut self.buf)
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

/// Frame writer over any `io::Write` (checkpoint files, logs).
pub struct FrameWriter<W: Write> {
    inner: W,
}

impl<W: Write> FrameWriter<W> {
    /// Wrap a writer.
    pub fn new(inner: W) -> Self {
        FrameWriter { inner }
    }

    /// Write one frame.
    pub fn write(&mut self, payload: &[u8]) -> Result<()> {
        self.write_parts(&[payload])
    }

    /// Write one frame whose payload is `parts` back to back, without
    /// joining them first.
    pub fn write_parts(&mut self, parts: &[&[u8]]) -> Result<()> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > MAX_FRAME_LEN {
            return Err(Error::LengthOverflow(len as u64));
        }
        self.inner.write_all(&(len as u32).to_le_bytes())?;
        for part in parts {
            self.inner.write_all(part)?;
        }
        Ok(())
    }

    /// Flush the underlying writer.
    pub fn flush(&mut self) -> Result<()> {
        self.inner.flush()?;
        Ok(())
    }

    /// Recover the wrapped writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Frame reader over any `io::Read`.
pub struct FrameReader<R: Read> {
    inner: R,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a reader.
    pub fn new(inner: R) -> Self {
        FrameReader { inner }
    }

    /// Read the next frame; `Ok(None)` at clean end-of-stream.
    ///
    /// A stream ending mid-frame is reported as [`Error::Eof`].
    pub fn read(&mut self) -> Result<Option<Vec<u8>>> {
        let mut payload = Vec::new();
        Ok(self.read_into(&mut payload)?.then_some(payload))
    }

    /// Read the next frame into `payload`, replacing its contents and
    /// reusing its capacity; `Ok(false)` at clean end-of-stream.
    pub fn read_into(&mut self, payload: &mut Vec<u8>) -> Result<bool> {
        let mut len_bytes = [0u8; 4];
        match self.inner.read_exact(&mut len_bytes) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(false),
            Err(e) => return Err(e.into()),
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        if len > MAX_FRAME_LEN {
            return Err(Error::LengthOverflow(len as u64));
        }
        payload.clear();
        payload.resize(len, 0);
        self.inner.read_exact(payload).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                Error::Eof
            } else {
                e.into()
            }
        })?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_roundtrip() {
        let mut buf = BytesMut::new();
        write_frame(&mut buf, b"alpha").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"gamma").unwrap();
        assert_eq!(read_frame(&mut buf).unwrap().unwrap().as_ref(), b"alpha");
        assert_eq!(read_frame(&mut buf).unwrap().unwrap().as_ref(), b"");
        assert_eq!(read_frame(&mut buf).unwrap().unwrap().as_ref(), b"gamma");
        assert!(read_frame(&mut buf).unwrap().is_none());
    }

    #[test]
    fn partial_frame_waits_for_more_bytes() {
        let mut full = BytesMut::new();
        write_frame(&mut full, b"payload").unwrap();
        let bytes = full.to_vec();

        let mut buf = BytesMut::new();
        buf.extend_from_slice(&bytes[..3]);
        assert!(read_frame(&mut buf).unwrap().is_none());
        buf.extend_from_slice(&bytes[3..6]);
        assert!(read_frame(&mut buf).unwrap().is_none());
        buf.extend_from_slice(&bytes[6..]);
        assert_eq!(read_frame(&mut buf).unwrap().unwrap().as_ref(), b"payload");
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le((MAX_FRAME_LEN + 1) as u32);
        assert!(matches!(
            read_frame(&mut buf),
            Err(Error::LengthOverflow(_))
        ));
    }

    #[test]
    fn io_roundtrip() {
        let mut sink = Vec::new();
        {
            let mut w = FrameWriter::new(&mut sink);
            w.write(b"one").unwrap();
            w.write_parts(&[b"t", b"", b"wo"]).unwrap();
            w.flush().unwrap();
        }
        let mut r = FrameReader::new(sink.as_slice());
        assert_eq!(r.read().unwrap().unwrap(), b"one");
        assert_eq!(r.read().unwrap().unwrap(), b"two");
        assert!(r.read().unwrap().is_none());

        let mut r = FrameReader::new(sink.as_slice());
        let mut payload = b"stale".to_vec();
        assert!(r.read_into(&mut payload).unwrap());
        assert_eq!(payload, b"one");
        assert!(r.read_into(&mut payload).unwrap());
        assert_eq!(payload, b"two");
        assert!(!r.read_into(&mut payload).unwrap());
    }

    #[test]
    fn io_truncated_frame_is_eof() {
        let mut sink = Vec::new();
        {
            let mut w = FrameWriter::new(&mut sink);
            w.write(b"truncated payload").unwrap();
        }
        sink.truncate(sink.len() - 2);
        let mut r = FrameReader::new(sink.as_slice());
        assert!(matches!(r.read(), Err(Error::Eof)));
    }
}
