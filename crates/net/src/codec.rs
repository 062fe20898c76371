//! The fleet wire protocol: length-prefixed binary message frames.
//!
//! Every message travels as a `u32` big-endian body length followed by
//! the body (`u8` tag + fields). All integers are big-endian; every
//! time is carried as the raw bits of its IEEE-754 `f64`, frame stamps'
//! NaN payloads included, and decoding refuses a non-finite clock offset
//! and a NaN watermark (see [`crate::time`]). The protocol is explicitly
//! versioned: [`Hello`](Message::Hello) carries
//! [`PROTOCOL_VERSION`] and the aggregator refuses a mismatch with a
//! typed error instead of misparsing newer frames. A version-1 `Hello`
//! is one byte longer and fails decoding with
//! [`WireError::TrailingBytes`].
//!
//! Decoding is total: malformed input of any shape — truncated frames,
//! oversized length prefixes, unknown tags, corrupt payloads, trailing
//! bytes — returns a typed [`WireError`], never a panic.

use crate::time::{StreamTime, Watermark};
use marauder_wifi::frame::Frame;
use marauder_wifi::sniffer::CapturedFrame;
use std::fmt;

/// Version spoken by this build. A [`Message::Hello`] carrying any
/// other value is refused during the handshake.
pub const PROTOCOL_VERSION: u16 = 2;

/// Upper bound on a message body, bytes. A length prefix beyond this is
/// rejected before any allocation happens — a corrupt or hostile peer
/// must not be able to request a multi-gigabyte buffer.
pub const MAX_BODY_LEN: u32 = 1 << 24; // 16 MiB

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_FRAME_BATCH: u8 = 3;
const TAG_HEARTBEAT: u8 = 4;

/// Fixed per-frame overhead inside a batch: time bits (8) + card (4) +
/// frame byte length (2). Used to sanity-check declared frame counts
/// against the bytes actually present.
const FRAME_RECORD_MIN: usize = 8 + 4 + 2;

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Node → aggregator, first message of every connection. Declares
    /// the node id and the node's known clock offset from fleet time
    /// (node-local time = fleet time + `clock_offset_s`).
    Hello {
        /// Stable node identity; survives reconnects.
        node_id: u32,
        /// Node clock offset from fleet time.
        clock_offset_s: StreamTime,
        /// The protocol version the node speaks.
        version: u16,
    },
    /// Aggregator → node, answer to [`Message::Hello`]. `resume_seq` is
    /// the next batch sequence number the aggregator expects from this
    /// node — a rejoining node skips everything below it, so no frame
    /// is lost or double-ingested across a node death.
    HelloAck {
        /// Echoed node id.
        node_id: u32,
        /// The version the aggregator speaks.
        version: u16,
        /// Next expected batch sequence number for this node.
        resume_seq: u64,
    },
    /// Node → aggregator: a contiguous run of captured frames, in the
    /// node's log order, numbered by a per-node sequence counter.
    FrameBatch {
        /// Sending node.
        node_id: u32,
        /// Per-node batch sequence number, starting at 0.
        seq: u64,
        /// The frames, timestamps bit-exact.
        frames: Vec<CapturedFrame>,
    },
    /// Node → aggregator: "no future frame of mine will carry a
    /// node-local timestamp below `watermark_s`". [`Watermark::Drained`]
    /// means the node's stream is complete. The aggregator merges fleet
    /// progress as the minimum over live nodes' corrected watermarks.
    Heartbeat {
        /// Sending node.
        node_id: u32,
        /// Node-local watermark promise.
        watermark_s: Watermark,
    },
}

impl Message {
    /// A short stable name for metrics and error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::HelloAck { .. } => "hello_ack",
            Message::FrameBatch { .. } => "frame_batch",
            Message::Heartbeat { .. } => "heartbeat",
        }
    }
}

/// Typed decode failure. Every malformed input maps to exactly one of
/// these; decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the decoder had `needed` bytes.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes available.
        have: usize,
    },
    /// The length prefix exceeds [`MAX_BODY_LEN`].
    Oversized {
        /// Declared body length.
        len: u32,
        /// The enforced maximum.
        max: u32,
    },
    /// The body's leading tag byte names no known message.
    UnknownTag(u8),
    /// A structurally valid envelope with a corrupt payload.
    BadPayload {
        /// What was being decoded when the corruption surfaced.
        what: &'static str,
    },
    /// The body was longer than its message content.
    TrailingBytes {
        /// Unconsumed byte count.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated message: needed {needed} bytes, have {have}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized message: body of {len} bytes exceeds {max}")
            }
            WireError::UnknownTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            WireError::BadPayload { what } => write!(f, "corrupt payload while decoding {what}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after message body")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Bounded reader over a message body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    fn f64_bits(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Encodes `msg` as a body (tag + fields), without the length prefix.
pub fn encode_body(msg: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match msg {
        Message::Hello {
            node_id,
            clock_offset_s,
            version,
        } => {
            out.push(TAG_HELLO);
            out.extend_from_slice(&version.to_be_bytes());
            out.extend_from_slice(&node_id.to_be_bytes());
            out.extend_from_slice(&clock_offset_s.secs().to_bits().to_be_bytes());
        }
        Message::HelloAck {
            node_id,
            version,
            resume_seq,
        } => {
            out.push(TAG_HELLO_ACK);
            out.extend_from_slice(&version.to_be_bytes());
            out.extend_from_slice(&node_id.to_be_bytes());
            out.extend_from_slice(&resume_seq.to_be_bytes());
        }
        Message::FrameBatch {
            node_id,
            seq,
            frames,
        } => {
            out.push(TAG_FRAME_BATCH);
            out.extend_from_slice(&node_id.to_be_bytes());
            out.extend_from_slice(&seq.to_be_bytes());
            out.extend_from_slice(&(frames.len() as u32).to_be_bytes());
            for f in frames {
                out.extend_from_slice(&f.time_s.to_bits().to_be_bytes());
                out.extend_from_slice(&(f.card as u32).to_be_bytes());
                // The length goes in front of the frame once it is
                // encoded in place.
                let len_at = out.len();
                out.extend_from_slice(&[0; 2]);
                f.frame.encode_into(&mut out);
                let len = (out.len() - len_at - 2) as u16;
                out[len_at..len_at + 2].copy_from_slice(&len.to_be_bytes());
            }
        }
        Message::Heartbeat {
            node_id,
            watermark_s,
        } => {
            out.push(TAG_HEARTBEAT);
            out.extend_from_slice(&node_id.to_be_bytes());
            out.extend_from_slice(&watermark_s.secs().to_bits().to_be_bytes());
        }
    }
    out
}

/// Encodes `msg` as a full wire frame: `u32` body length + body.
pub fn encode(msg: &Message) -> Vec<u8> {
    let body = encode_body(msg);
    let mut out = Vec::with_capacity(body.len() + 4);
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&body);
    out
}

/// A corrupt payload, found while decoding `what`.
fn bad(what: &'static str) -> WireError {
    WireError::BadPayload { what }
}

/// Decodes one message body (tag + fields, no length prefix).
///
/// # Errors
///
/// A typed [`WireError`] for any malformation; never panics.
pub fn decode_body(body: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(body);
    let tag = r.u8()?;
    let msg = match tag {
        TAG_HELLO => {
            let version = r.u16()?;
            let node_id = r.u32()?;
            let clock_offset_s = StreamTime::new(r.f64_bits()?).ok_or(bad("hello clock offset"))?;
            Message::Hello {
                node_id,
                clock_offset_s,
                version,
            }
        }
        TAG_HELLO_ACK => {
            let version = r.u16()?;
            let node_id = r.u32()?;
            let resume_seq = r.u64()?;
            Message::HelloAck {
                node_id,
                version,
                resume_seq,
            }
        }
        TAG_FRAME_BATCH => {
            let node_id = r.u32()?;
            let seq = r.u64()?;
            let count = r.u32()? as usize;
            // A declared count the remaining bytes cannot possibly hold
            // is corruption — reject before reserving anything.
            if count.saturating_mul(FRAME_RECORD_MIN) > r.remaining() {
                return Err(bad("frame batch count"));
            }
            let mut frames = Vec::with_capacity(count);
            for _ in 0..count {
                let time_s = r.f64_bits()?;
                let card = r.u32()? as usize;
                let len = r.u16()? as usize;
                let bytes = r.take(len)?;
                let frame = Frame::decode(bytes).map_err(|_| bad("802.11 frame bytes"))?;
                frames.push(CapturedFrame {
                    time_s,
                    card,
                    frame,
                });
            }
            Message::FrameBatch {
                node_id,
                seq,
                frames,
            }
        }
        TAG_HEARTBEAT => {
            let node_id = r.u32()?;
            let watermark_s =
                Watermark::from_secs(r.f64_bits()?).ok_or(bad("heartbeat watermark"))?;
            Message::Heartbeat {
                node_id,
                watermark_s,
            }
        }
        other => return Err(WireError::UnknownTag(other)),
    };
    r.finish()?;
    Ok(msg)
}

/// Decodes one length-prefixed frame from the start of `bytes`,
/// returning the message and the total bytes consumed (prefix + body).
///
/// # Errors
///
/// A typed [`WireError`]; [`WireError::Truncated`] means more bytes are
/// needed before a frame can be decoded.
pub fn decode(bytes: &[u8]) -> Result<(Message, usize), WireError> {
    if bytes.len() < 4 {
        return Err(WireError::Truncated {
            needed: 4,
            have: bytes.len(),
        });
    }
    let len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    if len > MAX_BODY_LEN {
        return Err(WireError::Oversized {
            len,
            max: MAX_BODY_LEN,
        });
    }
    let total = 4 + len as usize;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            have: bytes.len(),
        });
    }
    let msg = decode_body(&bytes[4..total])?;
    Ok((msg, total))
}

/// Decodes the one length-prefixed frame that `bytes` holds, as a
/// transport delivers it.
///
/// # Errors
///
/// As [`decode`], and [`WireError::TrailingBytes`] when bytes follow
/// the frame.
pub(crate) fn decode_exact(bytes: &[u8]) -> Result<Message, WireError> {
    let (msg, used) = decode(bytes)?;
    if used != bytes.len() {
        return Err(WireError::TrailingBytes {
            extra: bytes.len() - used,
        });
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marauder_wifi::channel::Channel;
    use marauder_wifi::mac::MacAddr;
    use marauder_wifi::ssid::Ssid;

    fn frame(t: f64, ap: u64, mobile: u64) -> CapturedFrame {
        CapturedFrame {
            time_s: t,
            card: 2,
            frame: Frame::probe_response(
                MacAddr::from_index(ap),
                MacAddr::from_index(mobile),
                Ssid::new("net").unwrap(),
                Channel::bg(6).unwrap(),
            ),
        }
    }

    fn samples() -> Vec<Message> {
        vec![
            Message::Hello {
                node_id: 7,
                clock_offset_s: StreamTime::new(-2.5).unwrap(),
                version: PROTOCOL_VERSION,
            },
            Message::HelloAck {
                node_id: 7,
                version: PROTOCOL_VERSION,
                resume_seq: 42,
            },
            Message::FrameBatch {
                node_id: 7,
                seq: 3,
                frames: vec![
                    frame(1.25, 100, 1),
                    frame(f64::NEG_INFINITY.min(2.0), 101, 2),
                ],
            },
            Message::Heartbeat {
                node_id: 7,
                watermark_s: Watermark::Drained,
            },
        ]
    }

    #[test]
    fn round_trips_every_kind() {
        for msg in samples() {
            let wire = encode(&msg);
            let (back, used) = decode(&wire).expect("decodes");
            assert_eq!(used, wire.len());
            assert_eq!(back, msg, "{} diverged", msg.kind());
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        for msg in samples() {
            let wire = encode(&msg);
            for cut in 0..wire.len() {
                let err = decode(&wire[..cut]).expect_err("truncation must fail");
                assert!(
                    matches!(err, WireError::Truncated { .. }),
                    "{} cut at {cut}: {err:?}",
                    msg.kind()
                );
            }
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut wire = (MAX_BODY_LEN + 1).to_be_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            decode(&wire),
            Err(WireError::Oversized { len, .. }) if len == MAX_BODY_LEN + 1
        ));
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_rejected() {
        assert_eq!(decode_body(&[0xEE]), Err(WireError::UnknownTag(0xEE)));
        let heartbeat = Message::Heartbeat {
            node_id: 1,
            watermark_s: Watermark::from_secs(0.5).unwrap(),
        };
        let mut body = encode_body(&heartbeat);
        body.push(0);
        assert_eq!(
            decode_body(&body),
            Err(WireError::TrailingBytes { extra: 1 })
        );
        // Bytes after a whole frame, as a transport delivers it.
        let mut wire = encode(&heartbeat);
        assert_eq!(decode_exact(&wire), Ok(heartbeat));
        wire.push(0);
        assert_eq!(
            decode_exact(&wire),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn absurd_batch_count_is_rejected() {
        // A batch declaring u32::MAX frames in a 20-byte body.
        let mut body = vec![TAG_FRAME_BATCH];
        body.extend_from_slice(&1u32.to_be_bytes());
        body.extend_from_slice(&0u64.to_be_bytes());
        body.extend_from_slice(&u32::MAX.to_be_bytes());
        body.extend_from_slice(&[0u8; 20]);
        assert!(matches!(
            decode_body(&body),
            Err(WireError::BadPayload { .. })
        ));
    }

    #[test]
    fn a_version_1_hello_is_refused_at_decode() {
        // Version 1 followed the offset with a snapshot-request flag.
        let mut body = vec![TAG_HELLO];
        body.extend_from_slice(&1u16.to_be_bytes());
        body.extend_from_slice(&7u32.to_be_bytes());
        body.extend_from_slice(&0.0f64.to_bits().to_be_bytes());
        body.push(0);
        assert_eq!(
            decode_body(&body),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn timestamps_survive_bit_exactly() {
        // Stated times keep their bits: -0.0 and both infinities.
        for bits in [0u64, 1, (-0.0f64).to_bits(), f64::INFINITY.to_bits()] {
            let msg = Message::Heartbeat {
                node_id: 0,
                watermark_s: Watermark::from_secs(f64::from_bits(bits)).unwrap(),
            };
            let (Message::Heartbeat { watermark_s, .. }, _) = decode(&encode(&msg)).unwrap() else {
                unreachable!()
            };
            assert_eq!(watermark_s.secs().to_bits(), bits);
        }
        // NaN is no watermark: refused at construction and at decode.
        let nan = 0x7ff8_dead_beef_0001u64;
        assert_eq!(Watermark::from_secs(f64::from_bits(nan)), None);
        let mut body = vec![TAG_HEARTBEAT];
        body.extend_from_slice(&0u32.to_be_bytes());
        body.extend_from_slice(&nan.to_be_bytes());
        assert_eq!(
            decode_body(&body),
            Err(WireError::BadPayload {
                what: "heartbeat watermark"
            })
        );
        // Frame stamps stay raw bits, NaN payloads included.
        let batch = Message::FrameBatch {
            node_id: 0,
            seq: 0,
            frames: vec![frame(f64::from_bits(nan), 100, 1)],
        };
        let (Message::FrameBatch { frames, .. }, _) = decode(&encode(&batch)).unwrap() else {
            unreachable!()
        };
        assert_eq!(frames[0].time_s.to_bits(), nan);
    }

    #[test]
    fn a_non_finite_clock_offset_is_refused_at_decode() {
        for offset in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut body = vec![TAG_HELLO];
            body.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
            body.extend_from_slice(&7u32.to_be_bytes());
            body.extend_from_slice(&offset.to_bits().to_be_bytes());
            assert_eq!(
                decode_body(&body),
                Err(WireError::BadPayload {
                    what: "hello clock offset"
                }),
                "{offset}"
            );
        }
    }
}
