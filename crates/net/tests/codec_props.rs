//! Property tests for the wire codec: `decode ∘ encode` is the
//! identity over arbitrary valid messages (times bit-exact, frame
//! stamps' NaN payloads included), and no byte sequence — truncated,
//! bit-flipped, oversized, or random — ever panics the decoder: every
//! rejection is a typed [`WireError`].

use marauder_net::codec::{decode, encode, Message};
use marauder_net::{StreamTime, Watermark, WireError, MAX_BODY_LEN};
use marauder_wifi::channel::Channel;
use marauder_wifi::frame::Frame;
use marauder_wifi::mac::MacAddr;
use marauder_wifi::sniffer::CapturedFrame;
use marauder_wifi::ssid::Ssid;
use proptest::prelude::*;

/// An arbitrary f64 drawn from the full bit space: normals, subnormals,
/// infinities, and NaNs with arbitrary payloads all occur.
fn arb_f64_bits() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

/// A finite time from the full bit space: normals, subnormals and both
/// zeros. A `Hello` clock offset takes only these.
fn arb_stream_time() -> impl Strategy<Value = StreamTime> {
    arb_f64_bits()
        .prop_filter("a stated time is finite", |t| t.is_finite())
        .prop_map(|t| StreamTime::new(t).expect("filtered finite"))
}

/// Any watermark a node may send: `NoData`, `Drained` or a finite time.
fn arb_watermark() -> impl Strategy<Value = Watermark> {
    (0u8..=3, arb_stream_time()).prop_map(|(kind, t)| match kind {
        0 => Watermark::NoData,
        1 => Watermark::Drained,
        _ => Watermark::At(t),
    })
}

/// An arbitrary captured frame over a few frame shapes, with a
/// timestamp from the full f64 bit space.
fn arb_frame() -> impl Strategy<Value = CapturedFrame> {
    (
        arb_f64_bits(),
        0usize..=3,
        any::<u64>(),
        any::<u64>(),
        1u8..=11,
        0usize..=2,
    )
        .prop_map(|(time_s, card, a, b, chan, kind)| {
            let ssid = Ssid::new("prop").expect("short ssid");
            let channel = Channel::bg(chan).expect("bg channel");
            let frame = match kind {
                0 => Frame::probe_request(MacAddr::from_index(a), Some(ssid), chan),
                1 => Frame::probe_response(
                    MacAddr::from_index(a),
                    MacAddr::from_index(b),
                    ssid,
                    channel,
                ),
                _ => Frame::beacon(MacAddr::from_index(a), ssid, channel, (b % 1024) as u16),
            };
            CapturedFrame {
                time_s,
                card,
                frame,
            }
        })
}

/// One arbitrary valid message of every kind.
fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u32>(), arb_stream_time(), any::<u16>()).prop_map(
            |(node_id, clock_offset_s, version)| Message::Hello {
                node_id,
                clock_offset_s,
                version,
            }
        ),
        (any::<u32>(), any::<u16>(), any::<u64>()).prop_map(|(node_id, version, resume_seq)| {
            Message::HelloAck {
                node_id,
                version,
                resume_seq,
            }
        }),
        (
            any::<u32>(),
            any::<u64>(),
            prop::collection::vec(arb_frame(), 0..4)
        )
            .prop_map(|(node_id, seq, frames)| Message::FrameBatch {
                node_id,
                seq,
                frames,
            }),
        (any::<u32>(), arb_watermark()).prop_map(|(node_id, watermark_s)| Message::Heartbeat {
            node_id,
            watermark_s,
        }),
    ]
}

/// Bit-exact equality: re-encoding the decoded message must reproduce
/// the original bytes, so every time (frame stamps' NaN payloads
/// included) survived.
fn assert_bit_exact(msg: &Message) -> Result<(), TestCaseError> {
    let bytes = encode(msg);
    let (back, consumed) = match decode(&bytes) {
        Ok(x) => x,
        Err(e) => return Err(TestCaseError::fail(format!("own encoding rejected: {e}"))),
    };
    prop_assert_eq!(consumed, bytes.len(), "decode must consume the whole frame");
    prop_assert_eq!(encode(&back), bytes, "re-encode drifted for {:?}", msg);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encode_then_decode_is_identity(msg in arb_message()) {
        assert_bit_exact(&msg)?;
    }

    #[test]
    fn every_truncation_is_a_typed_error(msg in arb_message()) {
        let bytes = encode(&msg);
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Err(WireError::Truncated { needed, have }) => {
                    prop_assert!(have < needed, "cut {cut}: have {have} >= needed {needed}");
                    prop_assert_eq!(have, cut);
                }
                Err(other) => {
                    return Err(TestCaseError::fail(format!(
                        "cut {cut}: expected Truncated, got {other}"
                    )));
                }
                Ok(_) => {
                    return Err(TestCaseError::fail(format!(
                        "cut {cut} of {} decoded successfully",
                        bytes.len()
                    )));
                }
            }
        }
    }

    #[test]
    fn bit_flips_never_panic(msg in arb_message(), pos in any::<usize>(), bit in 0u8..8) {
        let mut bytes = encode(&msg);
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        // A flipped frame may still parse (flips in payload bytes are
        // data, not structure); what it must never do is panic or
        // over-consume.
        if let Ok((_, consumed)) = decode(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
    }

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..64)) {
        if let Ok((_, consumed)) = decode(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
    }

    #[test]
    fn oversized_length_prefixes_are_rejected(
        excess in 1u32..=1024,
        tail in prop::collection::vec(0u8..=255, 0..16),
    ) {
        let len = MAX_BODY_LEN + excess;
        let mut bytes = len.to_be_bytes().to_vec();
        bytes.extend(tail);
        prop_assert_eq!(
            decode(&bytes),
            Err(WireError::Oversized { len, max: MAX_BODY_LEN })
        );
    }
}
