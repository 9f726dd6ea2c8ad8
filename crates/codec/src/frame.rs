//! The CRC frame shared by every byte stream TART writes: WAL segments,
//! checkpoint and manifest files, determinism-fault logs and TCP batches.
//!
//! A frame is `u32 body length (BE) | u32 crc32(body) (BE) | body`. This
//! module is the only place that writes or reads that header; callers hand
//! it bodies and get bodies back.
//!
//! An empty body frames as eight zero bytes (`crc32` of nothing is zero),
//! so an all-zero header parses as a complete, empty frame. The WAL never
//! writes empty bodies, which is how it tells preallocation padding from
//! data.

use std::ops::DerefMut;

use bytes::BufMut;

use crate::crc32;

/// Bytes of frame header in front of every body.
pub const HEADER: usize = 8;

/// What [`parse`] found at the front of a buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    /// One whole frame whose CRC matches: its body, and `end`, the number
    /// of bytes the frame spans (header included).
    Complete {
        /// The verified body.
        body: &'a [u8],
        /// Offset just past the frame.
        end: usize,
    },
    /// The buffer holds only a prefix of a frame: torn, or more bytes are
    /// still to arrive.
    Incomplete {
        /// The declared body length, once the whole header is present —
        /// what a stream reader must bound before waiting for the body.
        body_len: Option<u32>,
    },
    /// The header's CRC does not match the body it declares.
    Corrupt,
}

/// Appends one frame carrying `body` to `buf`.
///
/// # Panics
///
/// Panics if `body` is 4 GiB or longer (the header has 32 bits).
pub fn frame_into<B>(buf: &mut B, body: &[u8])
where
    B: BufMut + DerefMut<Target = [u8]>,
{
    frame_with(buf, |b| b.put_slice(body));
}

/// Appends one frame to `buf` whose body is whatever `write_body` appends,
/// so a caller can encode straight into the output buffer.
///
/// # Panics
///
/// Panics if the body is 4 GiB or longer (the header has 32 bits).
pub fn frame_with<B>(buf: &mut B, write_body: impl FnOnce(&mut B))
where
    B: BufMut + DerefMut<Target = [u8]>,
{
    let start = buf.len();
    buf.put_slice(&[0; HEADER]);
    write_body(buf);
    let body_len = u32::try_from(buf.len() - start - HEADER).expect("frame body under 4 GiB");
    let crc = crc32(&buf[start + HEADER..]);
    buf[start..start + 4].copy_from_slice(&body_len.to_be_bytes());
    buf[start + 4..start + HEADER].copy_from_slice(&crc.to_be_bytes());
}

/// Parses the frame at the front of `buf`. Bytes after the frame are left
/// for the next call (starting at `end`).
pub fn parse(buf: &[u8]) -> Frame<'_> {
    let Some(header) = buf.get(..HEADER) else {
        return Frame::Incomplete { body_len: None };
    };
    let body_len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
    let crc = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    let end = HEADER.saturating_add(body_len as usize);
    let Some(body) = buf.get(HEADER..end) else {
        return Frame::Incomplete {
            body_len: Some(body_len),
        };
    };
    if crc32(body) != crc {
        return Frame::Corrupt;
    }
    Frame::Complete { body, end }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn vec_and_bytes_mut_frame_identically() {
        let mut v = Vec::new();
        frame_into(&mut v, b"body");
        let mut b = BytesMut::new();
        frame_with(&mut b, |b| b.put_slice(b"body"));
        assert_eq!(&v[..], &b[..]);
        assert_eq!(&v[..4], &4u32.to_be_bytes());
        assert_eq!(&v[4..8], &crc32(b"body").to_be_bytes());
    }

    #[test]
    fn back_to_back_frames_parse_in_turn() {
        let mut buf = Vec::new();
        frame_into(&mut buf, b"one");
        frame_into(&mut buf, b"two");
        let Frame::Complete { body, end } = parse(&buf) else {
            panic!("first frame complete");
        };
        assert_eq!(body, b"one");
        assert_eq!(parse(&buf[end..]), Frame::Complete { body: b"two", end });
    }
}
