//! Properties of the shared CRC frame: what [`frame::parse`] may return for
//! whole, truncated and damaged frames.

use proptest::prelude::*;
use tart_codec::frame::{self, Frame};

fn framed(body: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    frame::frame_into(&mut buf, body);
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bodies_round_trip(body in proptest::collection::vec(any::<u8>(), 0..512)) {
        let buf = framed(&body);
        prop_assert_eq!(buf.len(), frame::HEADER + body.len());
        prop_assert_eq!(
            frame::parse(&buf),
            Frame::Complete { body: &body[..], end: buf.len() }
        );
    }

    #[test]
    fn every_truncation_is_incomplete(body in proptest::collection::vec(any::<u8>(), 1..128)) {
        let buf = framed(&body);
        for cut in 0..buf.len() {
            let got = frame::parse(&buf[..cut]);
            prop_assert!(
                matches!(got, Frame::Incomplete { .. }),
                "cut at {} of {} parsed as {:?}", cut, buf.len(), got
            );
        }
    }

    #[test]
    fn single_byte_flips_never_yield_a_body(
        body in proptest::collection::vec(any::<u8>(), 1..128),
        at in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut buf = framed(&body);
        let i = at.index(buf.len());
        buf[i] ^= flip;
        let got = frame::parse(&buf);
        prop_assert!(
            matches!(got, Frame::Corrupt | Frame::Incomplete { .. }),
            "flip {:#04x} at {} parsed as {:?}", flip, i, got
        );
    }
}

#[test]
fn all_zero_header_is_recognisable_padding() {
    // A preallocated WAL segment reads back as zeros past its last record.
    // Eight zero bytes parse as a complete *empty* frame, which the WAL never
    // writes, so readers can tell padding from data.
    let padding = [0u8; 64];
    assert_eq!(
        frame::parse(&padding),
        Frame::Complete {
            body: &[],
            end: frame::HEADER
        }
    );
    assert_eq!(framed(&[]), vec![0u8; frame::HEADER]);
    // A one-byte body never frames to an all-zero header.
    assert_ne!(&framed(&[0])[..frame::HEADER], &[0u8; frame::HEADER]);
}
