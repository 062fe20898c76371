//! 802.11 management frames and their wire codec.
//!
//! The sniffing system only ever inspects management traffic: beacons,
//! probe requests and probe responses (Section II-A "monitor 802.11
//! probing traffic"). The codec follows the real 802.11 management-frame
//! layout — frame control, three addresses, sequence control, fixed
//! fields and tagged parameters (SSID tag 0, DS Parameter Set tag 3) —
//! closely enough that captures look like what `tcpdump` showed the
//! authors, while staying compact.

use crate::channel::Channel;
use crate::mac::MacAddr;
use crate::ssid::Ssid;
use std::fmt;

/// Management-frame payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameBody {
    /// AP beacon, broadcast periodically.
    Beacon {
        /// The advertised network name.
        ssid: Ssid,
        /// Beacon interval in time units (TU = 1024 µs).
        interval_tu: u16,
    },
    /// Station probe request; `None` SSID is the wildcard (undirected)
    /// probe, `Some` is a directed probe revealing a preferred network.
    ProbeRequest {
        /// The probed network, or `None` for a wildcard scan.
        ssid: Option<Ssid>,
    },
    /// AP probe response, unicast to the probing station.
    ProbeResponse {
        /// The responding network's name.
        ssid: Ssid,
    },
    /// Station association request — the join attempt a baited device
    /// sends after authentication (active attack, Section II-A).
    AssociationRequest {
        /// The network being joined.
        ssid: Ssid,
    },
    /// Open-system authentication frame (either direction).
    Authentication {
        /// Sequence number within the auth handshake (1 or 2).
        auth_seq: u16,
    },
}

impl FrameBody {
    fn subtype(&self) -> u8 {
        match self {
            FrameBody::AssociationRequest { .. } => 0x0,
            FrameBody::ProbeRequest { .. } => 0x4,
            FrameBody::ProbeResponse { .. } => 0x5,
            FrameBody::Beacon { .. } => 0x8,
            FrameBody::Authentication { .. } => 0xB,
        }
    }
}

/// A management frame as captured on a channel.
///
/// See the [crate-level example](crate) for an encode/decode round trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Receiver address (addr1).
    pub dst: MacAddr,
    /// Transmitter address (addr2).
    pub src: MacAddr,
    /// BSSID (addr3).
    pub bssid: MacAddr,
    /// Channel the frame was transmitted on (DS Parameter Set).
    pub channel: Channel,
    /// 12-bit sequence number.
    pub sequence: u16,
    /// Typed payload.
    pub body: FrameBody,
}

/// Error returned when decoding malformed frame bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than the fixed header.
    Truncated,
    /// Frame control does not describe a supported management subtype.
    UnsupportedType(u8),
    /// A tagged parameter ran past the end of the buffer.
    BadTag,
    /// SSID tag exceeded 32 bytes or was not UTF-8.
    BadSsid,
    /// Missing or invalid DS Parameter Set (channel) tag.
    BadChannel,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("frame truncated"),
            DecodeError::UnsupportedType(fc) => {
                write!(f, "unsupported frame control {fc:#04x}")
            }
            DecodeError::BadTag => f.write_str("malformed tagged parameter"),
            DecodeError::BadSsid => f.write_str("malformed ssid element"),
            DecodeError::BadChannel => f.write_str("missing or invalid channel element"),
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_SSID: u8 = 0;
const TAG_DS_PARAMS: u8 = 3;

impl Frame {
    /// A probe request from `src`, undirected when `ssid` is `None`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is not a valid b/g channel number — use the
    /// typed constructors plus [`Channel`] directly for 802.11a frames.
    pub fn probe_request(src: MacAddr, ssid: Option<Ssid>, channel: u8) -> Frame {
        Frame {
            dst: MacAddr::BROADCAST,
            src,
            bssid: MacAddr::BROADCAST,
            // lint:allow(no-panic-in-lib) -- raw channel number is the caller's contract
            channel: Channel::bg(channel).expect("valid b/g channel"),
            sequence: 0,
            body: FrameBody::ProbeRequest { ssid },
        }
    }

    /// A probe response from AP `bssid` to station `dst`.
    pub fn probe_response(bssid: MacAddr, dst: MacAddr, ssid: Ssid, channel: Channel) -> Frame {
        Frame {
            dst,
            src: bssid,
            bssid,
            channel,
            sequence: 0,
            body: FrameBody::ProbeResponse { ssid },
        }
    }

    /// A beacon from AP `bssid`.
    pub fn beacon(bssid: MacAddr, ssid: Ssid, channel: Channel, interval_tu: u16) -> Frame {
        Frame {
            dst: MacAddr::BROADCAST,
            src: bssid,
            bssid,
            channel,
            sequence: 0,
            body: FrameBody::Beacon { ssid, interval_tu },
        }
    }

    /// A station's association request to AP `bssid` for `ssid`.
    pub fn association_request(
        src: MacAddr,
        bssid: MacAddr,
        ssid: Ssid,
        channel: Channel,
    ) -> Frame {
        Frame {
            dst: bssid,
            src,
            bssid,
            channel,
            sequence: 0,
            body: FrameBody::AssociationRequest { ssid },
        }
    }

    /// An open-system authentication frame from `src` to `dst` within
    /// the BSS `bssid`.
    pub fn authentication(
        src: MacAddr,
        dst: MacAddr,
        bssid: MacAddr,
        auth_seq: u16,
        channel: Channel,
    ) -> Frame {
        Frame {
            dst,
            src,
            bssid,
            channel,
            sequence: 0,
            body: FrameBody::Authentication { auth_seq },
        }
    }

    /// Sets the sequence number (builder-style).
    pub fn with_sequence(mut self, seq: u16) -> Frame {
        self.sequence = seq & 0x0fff;
        self
    }

    /// `true` for probe requests — the traffic the passive attack feeds
    /// on.
    pub fn is_probe_request(&self) -> bool {
        matches!(self.body, FrameBody::ProbeRequest { .. })
    }

    /// `true` for probe responses — the frames that reveal which APs can
    /// communicate with a mobile.
    pub fn is_probe_response(&self) -> bool {
        matches!(self.body, FrameBody::ProbeResponse { .. })
    }

    /// Encodes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Appends the wire bytes [`encode`](Self::encode) returns to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        // Frame control: version 0, type 00 (mgmt), subtype.
        out.push(self.body.subtype() << 4);
        out.push(0);
        // Duration.
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(&self.dst.octets());
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.bssid.octets());
        // Sequence control: fragment 0, sequence << 4.
        out.extend_from_slice(&(self.sequence << 4).to_le_bytes());
        // Fixed fields per subtype.
        match &self.body {
            FrameBody::Beacon { interval_tu, .. } => {
                out.extend_from_slice(&[0u8; 8]); // timestamp
                out.extend_from_slice(&interval_tu.to_le_bytes());
                out.extend_from_slice(&[0x01, 0x00]); // capability: ESS
            }
            FrameBody::ProbeResponse { .. } => {
                out.extend_from_slice(&[0u8; 8]);
                out.extend_from_slice(&100u16.to_le_bytes());
                out.extend_from_slice(&[0x01, 0x00]);
            }
            FrameBody::ProbeRequest { .. } => {}
            FrameBody::AssociationRequest { .. } => {
                out.extend_from_slice(&[0x01, 0x00]); // capability: ESS
                out.extend_from_slice(&10u16.to_le_bytes()); // listen interval
            }
            FrameBody::Authentication { auth_seq } => {
                out.extend_from_slice(&0u16.to_le_bytes()); // open system
                out.extend_from_slice(&auth_seq.to_le_bytes());
                out.extend_from_slice(&0u16.to_le_bytes()); // status: success
            }
        }
        // Tagged parameters: SSID then DS params (authentication frames
        // carry no SSID element).
        let ssid_bytes: Option<&[u8]> = match &self.body {
            FrameBody::Beacon { ssid, .. }
            | FrameBody::ProbeResponse { ssid }
            | FrameBody::AssociationRequest { ssid } => Some(ssid.as_str().as_bytes()),
            FrameBody::ProbeRequest { ssid } => Some(
                ssid.as_ref()
                    .map_or(&[] as &[u8], |s| s.as_str().as_bytes()),
            ),
            FrameBody::Authentication { .. } => None,
        };
        if let Some(bytes) = ssid_bytes {
            out.push(TAG_SSID);
            out.push(bytes.len() as u8);
            out.extend_from_slice(bytes);
        }
        out.push(TAG_DS_PARAMS);
        out.push(1);
        out.push(self.channel.number());
    }

    /// Decodes wire bytes produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] describing the first malformation found.
    pub fn decode(bytes: &[u8]) -> Result<Frame, DecodeError> {
        if bytes.len() < 24 {
            return Err(DecodeError::Truncated);
        }
        let fc = bytes[0];
        let subtype = fc >> 4;
        if fc & 0x0f != 0 {
            return Err(DecodeError::UnsupportedType(fc));
        }
        let mac = |off: usize| {
            let mut o = [0u8; 6];
            o.copy_from_slice(&bytes[off..off + 6]);
            MacAddr::new(o)
        };
        let dst = mac(4);
        let src = mac(10);
        let bssid = mac(16);
        let sequence = u16::from_le_bytes([bytes[22], bytes[23]]) >> 4;

        let (mut pos, interval_tu, auth_seq) = match subtype {
            0x4 => (24usize, None, None),
            0x5 | 0x8 => {
                if bytes.len() < 24 + 12 {
                    return Err(DecodeError::Truncated);
                }
                let interval = u16::from_le_bytes([bytes[32], bytes[33]]);
                (36usize, Some(interval), None)
            }
            0x0 => {
                if bytes.len() < 24 + 4 {
                    return Err(DecodeError::Truncated);
                }
                (28usize, None, None)
            }
            0xB => {
                if bytes.len() < 24 + 6 {
                    return Err(DecodeError::Truncated);
                }
                let seq = u16::from_le_bytes([bytes[26], bytes[27]]);
                (30usize, None, Some(seq))
            }
            other => return Err(DecodeError::UnsupportedType(other << 4)),
        };

        let mut ssid: Option<Ssid> = None;
        let mut ssid_present = false;
        let mut channel: Option<Channel> = None;
        while pos + 2 <= bytes.len() {
            let tag = bytes[pos];
            let len = bytes[pos + 1] as usize;
            pos += 2;
            if pos + len > bytes.len() {
                return Err(DecodeError::BadTag);
            }
            let val = &bytes[pos..pos + len];
            pos += len;
            match tag {
                TAG_SSID => {
                    ssid_present = true;
                    if len > 32 {
                        return Err(DecodeError::BadSsid);
                    }
                    let text = std::str::from_utf8(val).map_err(|_| DecodeError::BadSsid)?;
                    if !text.is_empty() {
                        ssid = Some(Ssid::new(text).map_err(|_| DecodeError::BadSsid)?);
                    }
                }
                TAG_DS_PARAMS => {
                    if len != 1 {
                        return Err(DecodeError::BadChannel);
                    }
                    let n = val[0];
                    channel = Some(if n <= 11 {
                        Channel::bg(n).map_err(|_| DecodeError::BadChannel)?
                    } else {
                        Channel::a(n).map_err(|_| DecodeError::BadChannel)?
                    });
                }
                _ => {} // skip unknown tags, as real parsers do
            }
        }
        let channel = channel.ok_or(DecodeError::BadChannel)?;
        if !ssid_present && subtype != 0xB {
            return Err(DecodeError::BadSsid);
        }

        let body = match subtype {
            0x0 => FrameBody::AssociationRequest {
                ssid: ssid.unwrap_or_else(Ssid::wildcard),
            },
            0x4 => FrameBody::ProbeRequest { ssid },
            0x5 => FrameBody::ProbeResponse {
                ssid: ssid.unwrap_or_else(Ssid::wildcard),
            },
            0x8 => FrameBody::Beacon {
                ssid: ssid.unwrap_or_else(Ssid::wildcard),
                interval_tu: interval_tu.unwrap_or(100),
            },
            0xB => FrameBody::Authentication {
                auth_seq: auth_seq.unwrap_or(1),
            },
            _ => unreachable!("subtype validated above"),
        };
        Ok(Frame {
            dst,
            src,
            bssid,
            channel,
            sequence,
            body,
        })
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.body {
            FrameBody::Beacon { .. } => "beacon",
            FrameBody::ProbeRequest { .. } => "probe-req",
            FrameBody::ProbeResponse { .. } => "probe-resp",
            FrameBody::AssociationRequest { .. } => "assoc-req",
            FrameBody::Authentication { .. } => "auth",
        };
        write!(
            f,
            "{kind} {} -> {} on {} seq {}",
            self.src, self.dst, self.channel, self.sequence
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(i: u64) -> MacAddr {
        MacAddr::from_index(i)
    }

    fn ch(n: u8) -> Channel {
        Channel::bg(n).unwrap()
    }

    #[test]
    fn probe_request_round_trip() {
        for ssid in [None, Some(Ssid::new("eduroam").unwrap())] {
            let f = Frame::probe_request(mac(1), ssid, 6).with_sequence(777);
            let back = Frame::decode(&f.encode()).unwrap();
            assert_eq!(f, back);
            assert!(back.is_probe_request());
            assert_eq!(back.sequence, 777);
        }
    }

    #[test]
    fn probe_response_round_trip() {
        let f = Frame::probe_response(mac(2), mac(1), Ssid::new("UML-Guest").unwrap(), ch(11));
        let back = Frame::decode(&f.encode()).unwrap();
        assert_eq!(f, back);
        assert!(back.is_probe_response());
        assert_eq!(back.bssid, mac(2));
        assert_eq!(back.dst, mac(1));
    }

    #[test]
    fn beacon_round_trip() {
        let f = Frame::beacon(mac(3), Ssid::new("linksys").unwrap(), ch(1), 100);
        let back = Frame::decode(&f.encode()).unwrap();
        assert_eq!(f, back);
        match back.body {
            FrameBody::Beacon { interval_tu, .. } => assert_eq!(interval_tu, 100),
            _ => panic!("not a beacon"),
        }
    }

    #[test]
    fn association_request_round_trip() {
        let f = Frame::association_request(mac(1), mac(2), Ssid::new("linksys").unwrap(), ch(6))
            .with_sequence(42);
        let back = Frame::decode(&f.encode()).unwrap();
        assert_eq!(f, back);
        assert_eq!(back.dst, mac(2));
        match back.body {
            FrameBody::AssociationRequest { ssid } => {
                assert_eq!(ssid.as_str(), "linksys")
            }
            _ => panic!("not an association request"),
        }
    }

    #[test]
    fn authentication_round_trip() {
        for seq in [1u16, 2] {
            let f = Frame::authentication(mac(1), mac(2), mac(2), seq, ch(11));
            let back = Frame::decode(&f.encode()).unwrap();
            assert_eq!(f, back);
            match back.body {
                FrameBody::Authentication { auth_seq } => assert_eq!(auth_seq, seq),
                _ => panic!("not an auth frame"),
            }
        }
    }

    #[test]
    fn auth_frames_carry_no_ssid() {
        let f = Frame::authentication(mac(1), mac(2), mac(2), 1, ch(6));
        let bytes = f.encode();
        // Fixed header 24 + fixed fields 6, then straight to DS params.
        assert_eq!(bytes[30], 3, "first tag must be DS params");
        let s = f.to_string();
        assert!(s.contains("auth"));
    }

    #[test]
    fn a_band_round_trip() {
        let f = Frame::probe_response(
            mac(4),
            mac(5),
            Ssid::new("a-band").unwrap(),
            Channel::a(36).unwrap(),
        );
        let back = Frame::decode(&f.encode()).unwrap();
        assert_eq!(back.channel, Channel::a(36).unwrap());
    }

    #[test]
    fn wildcard_probe_has_empty_ssid_tag() {
        let f = Frame::probe_request(mac(1), None, 6);
        let bytes = f.encode();
        // After the 24-byte header: tag 0, len 0.
        assert_eq!(&bytes[24..26], &[0, 0]);
    }

    #[test]
    fn decode_rejects_truncated() {
        assert_eq!(Frame::decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(Frame::decode(&[0u8; 10]), Err(DecodeError::Truncated));
        let full = Frame::beacon(mac(1), Ssid::wildcard(), ch(1), 100).encode();
        assert_eq!(Frame::decode(&full[..30]), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_rejects_unknown_types() {
        let mut bytes = Frame::probe_request(mac(1), None, 6).encode();
        bytes[0] = 0x21; // not a pure mgmt frame control
        assert!(matches!(
            Frame::decode(&bytes),
            Err(DecodeError::UnsupportedType(_))
        ));
        bytes[0] = 0x90; // unsupported subtype 9 (ATIM)
        assert!(matches!(
            Frame::decode(&bytes),
            Err(DecodeError::UnsupportedType(_))
        ));
    }

    #[test]
    fn decode_rejects_bad_tags() {
        let mut bytes = Frame::probe_request(mac(1), None, 6).encode();
        let n = bytes.len();
        bytes[n - 2] = 200; // DS tag claims 200-byte length
        assert_eq!(Frame::decode(&bytes), Err(DecodeError::BadTag));
    }

    #[test]
    fn decode_requires_channel_tag() {
        let f = Frame::probe_request(mac(1), None, 6);
        let bytes = f.encode();
        // Strip the DS parameter tag (last 3 bytes).
        let stripped = &bytes[..bytes.len() - 3];
        assert_eq!(Frame::decode(stripped), Err(DecodeError::BadChannel));
    }

    #[test]
    fn decode_rejects_invalid_channel_number() {
        let mut bytes = Frame::probe_request(mac(1), None, 6).encode();
        let n = bytes.len();
        bytes[n - 1] = 13; // not a valid b/g or a channel
        assert_eq!(Frame::decode(&bytes), Err(DecodeError::BadChannel));
    }

    #[test]
    fn decode_rejects_bad_utf8_ssid() {
        let mut bytes = Frame::probe_request(mac(1), Some(Ssid::new("abc").unwrap()), 6).encode();
        bytes[26] = 0xff; // corrupt SSID byte
        assert_eq!(Frame::decode(&bytes), Err(DecodeError::BadSsid));
    }

    #[test]
    fn unknown_tags_are_skipped() {
        let f = Frame::probe_request(mac(1), Some(Ssid::new("x").unwrap()), 6);
        let mut bytes = f.encode();
        // Append a vendor-specific tag (221).
        bytes.extend_from_slice(&[221, 3, 0xaa, 0xbb, 0xcc]);
        let back = Frame::decode(&bytes).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn sequence_is_masked_to_12_bits() {
        let f = Frame::probe_request(mac(1), None, 6).with_sequence(0xffff);
        assert_eq!(f.sequence, 0x0fff);
        let back = Frame::decode(&f.encode()).unwrap();
        assert_eq!(back.sequence, 0x0fff);
    }

    #[test]
    fn display_is_informative() {
        let f = Frame::probe_request(mac(1), None, 6);
        let s = f.to_string();
        assert!(s.contains("probe-req"));
        assert!(s.contains("ch6"));
        assert!(s.contains("ff:ff:ff:ff:ff:ff"));
    }

    #[test]
    fn decode_error_display() {
        assert_eq!(DecodeError::Truncated.to_string(), "frame truncated");
        assert!(DecodeError::UnsupportedType(0x21)
            .to_string()
            .contains("0x21"));
    }
}
