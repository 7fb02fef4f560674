//! The binary codec every wire and on-disk format in the workspace is
//! built on: the serve and replication protocols, WAL records, and
//! checkpoint bodies.
//!
//! All integers are little-endian. Writers append to a `Vec<u8>`;
//! [`Cur`] reads a body strictly — a short field, a count the remaining
//! bytes cannot hold, or trailing bytes is a [`WireError`], never a
//! panic or an allocation out of proportion to the input. Frames on a
//! socket are a `u32` body length followed by the body, capped at
//! [`MAX_FRAME_LEN`].

use std::io::{self, Read};

/// Upper bound on a frame body; larger length prefixes are rejected
/// before any allocation.
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// Anything that can go wrong while encoding, decoding, or transporting
/// frames.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes clean EOF between frames
    /// as `UnexpectedEof`).
    Io(io::Error),
    /// The bytes did not decode.
    Malformed(&'static str),
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::Oversized(n) => write!(f, "frame body of {n} bytes exceeds the cap"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

// ---- writing ---------------------------------------------------------------

/// Appends a `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u16`-length string. Longer inputs are truncated on a char
/// boundary: they are reachable remotely (error messages embed
/// client-supplied names), and a wrapped length prefix would
/// desynchronize the stream for every frame after this one.
pub fn put_str16(buf: &mut Vec<u8>, s: &str) {
    let mut len = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    put_u16(buf, len as u16);
    buf.extend_from_slice(&s.as_bytes()[..len]);
}

/// Appends `u32` length + bytes.
pub fn put_bytes32(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

/// The chunk-flags byte of a chunked transfer: bit 0 = `last`, bit 1 =
/// `first`.
pub fn chunk_flags(first: bool, last: bool) -> u8 {
    (last as u8) | ((first as u8) << 1)
}

/// Encodes one length-prefixed frame: `body` appends the frame body,
/// and the `u32` prefix is patched in front of it.
pub fn framed(body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = vec![0u8; 4];
    body(&mut buf);
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf
}

// ---- reading ---------------------------------------------------------------

/// A strict, bounded cursor over one frame body.
pub struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Malformed("truncated field"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Everything not yet read.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a `u16`-length UTF-8 string.
    pub fn str16(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        utf8(self.take(len)?)
    }

    /// Reads a `u32`-length UTF-8 string.
    pub fn str32(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        utf8(self.take(len)?)
    }

    /// Reads a chunk-flags byte as `(first, last)`; see [`chunk_flags`].
    pub fn chunk_flags(&mut self) -> Result<(bool, bool), WireError> {
        match self.u8()? {
            flags @ 0..=3 => Ok((flags & 2 != 0, flags & 1 != 0)),
            _ => Err(WireError::Malformed("bad chunk flags")),
        }
    }

    /// Checks a decoded element count before it drives an allocation:
    /// `n` elements of `elem_bytes` each must fit the bytes left.
    /// Zero-size elements leave nothing to bound them by, so at most one
    /// is admitted — under set semantics a nullary relation holds at
    /// most the empty tuple.
    pub fn count(&self, n: u64, elem_bytes: usize) -> Result<usize, WireError> {
        if elem_bytes == 0 {
            return if n <= 1 {
                Ok(n as usize)
            } else {
                Err(WireError::Malformed("zero-size element count exceeds 1"))
            };
        }
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() / elem_bytes => Ok(n),
            _ => Err(WireError::Malformed("count exceeds the remaining bytes")),
        }
    }

    /// Ends decoding: every byte must have been read.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

fn utf8(bytes: &[u8]) -> Result<String, WireError> {
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string"))
}

/// Reads one length-prefixed frame body from `r`. Blocks per the
/// reader's timeout configuration; a clean disconnect between frames
/// surfaces as `WireError::Io(UnexpectedEof)`.
pub fn read_body(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = checked_len(len)?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Finds the first complete frame in a receive buffer: `Ok(Some(body))`
/// when one is there (the frame spans `4 + body.len()` bytes), `Ok(None)`
/// when more bytes are needed.
pub fn split_body(buf: &[u8]) -> Result<Option<&[u8]>, WireError> {
    let Some(prefix) = buf.get(..4) else {
        return Ok(None);
    };
    let len = checked_len(prefix.try_into().expect("4-byte prefix"))?;
    Ok(buf.get(4..4 + len))
}

fn checked_len(prefix: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_is_bounded_by_the_remaining_bytes() {
        let cur = Cur::new(&[0u8; 24]);
        assert_eq!(cur.count(3, 8).unwrap(), 3);
        assert!(cur.count(4, 8).is_err());
        assert!(cur.count(u64::MAX, 8).is_err());
        // Zero-size elements: at most one.
        assert_eq!(cur.count(1, 0).unwrap(), 1);
        assert!(cur.count(2, 0).is_err());
    }

    #[test]
    fn split_body_waits_for_a_whole_frame() {
        let frame = framed(|b| b.extend_from_slice(b"abc"));
        assert_eq!(frame, [3, 0, 0, 0, b'a', b'b', b'c']);
        assert_eq!(split_body(&frame[..2]).unwrap(), None);
        assert_eq!(split_body(&frame[..6]).unwrap(), None);
        assert_eq!(split_body(&frame).unwrap(), Some(&b"abc"[..]));
        assert!(matches!(
            split_body(&u32::MAX.to_le_bytes()),
            Err(WireError::Oversized(_))
        ));
    }
}
