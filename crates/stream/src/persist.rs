//! One sealed binary document for every piece of persisted state: the
//! engine snapshot, the journal checkpoint, the fleet snapshot and the
//! fleet checkpoint.
//!
//! ```text
//! doc := "MRDRDOC" version:u8 kind:u8 body crc:u32be
//! ```
//!
//! `crc` is CRC-32 (IEEE) over every byte before it. [`open`] checks
//! the magic, the version, the CRC and the kind, in that order, then
//! decodes the body, which must consume every byte. Every value in a
//! body is a [`Field`] with one canonical encoding, so any accepted
//! document re-encodes to the same bytes; nested state is appended
//! inline. DESIGN.md ("Snapshot format") gives the rationale.

use crate::engine::ClosedWindow;
use marauder_core::PipelineError;
use marauder_wifi::mac::MacAddr;
use marauder_wifi::sniffer::window_start;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Magic bytes opening every sealed document.
pub const DOC_MAGIC: [u8; 7] = *b"MRDRDOC";

/// Format version of the document body, shared by every kind.
pub const DOC_VERSION: u8 = 1;

/// Bytes per MAC address.
const MAC_LEN: usize = 6;

/// Smallest closed-window payload: window, mobile and one Γ entry.
pub(crate) const MIN_CLOSED_LEN: usize = 8 + 2 * MAC_LEN;

/// What a sealed document holds; the byte after the version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocKind {
    /// [`StreamEngine::snapshot`](crate::StreamEngine::snapshot).
    Engine = 1,
    /// A journal `checkpoint-<seq>.ckpt`.
    JournalCheckpoint = 2,
    /// The fleet aggregator's snapshot.
    FleetSnapshot = 3,
    /// A fleet `fleet-<n>.ckpt`. Kind 4 was the fleet checkpoint that
    /// embedded every closed window; it is neither written nor accepted.
    FleetCheckpoint = 5,
}

/// Why a sealed document was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The document was written by a format version this build does
    /// not read.
    VersionMismatch {
        /// Version the document declares.
        found: u8,
        /// Version this build reads.
        supported: u8,
    },
    /// The CRC trailer does not match the bytes before it.
    Checksum {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC of the bytes as read.
        computed: u32,
    },
    /// The bytes are not a well-formed document of the expected kind,
    /// or the state they hold does not fit the restoring process.
    Malformed {
        /// Byte offset where decoding stopped.
        offset: usize,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::VersionMismatch { found, supported } => write!(
                f,
                "document format v{found} is not supported (this build reads v{supported})"
            ),
            PersistError::Checksum { stored, computed } => write!(
                f,
                "document checksum mismatch (stored {stored:08x}, computed {computed:08x})"
            ),
            PersistError::Malformed { offset, reason } => {
                write!(f, "malformed document at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Slice-by-8 lookup tables: `CRC_TABLES[0][b]` is the CRC register
/// after shifting byte `b` through it, and `CRC_TABLES[k][b]` after
/// shifting `b` followed by `k` zero bytes. Built at compile time.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Extends `crc`, the CRC-32 of some bytes, to the CRC-32 of those
/// bytes followed by `bytes`: eight table lookups per 8-byte block,
/// then one per remaining byte.
pub(crate) fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let byte = |v: u32, shift: u32| ((v >> shift) & 0xFF) as usize;
    let mut crc = !crc;
    let (blocks, tail) = bytes.as_chunks::<8>();
    for block in blocks {
        let [a, b, c, d, e, f, g, h] = *block;
        let lo = crc ^ u32::from_le_bytes([a, b, c, d]);
        let hi = u32::from_le_bytes([e, f, g, h]);
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t[0][byte(crc ^ u32::from(b), 0)];
    }
    !crc
}

/// Seals one document of `kind` whose body `body` appends.
pub fn seal(kind: DocKind, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut doc = DOC_MAGIC.to_vec();
    doc.extend_from_slice(&[DOC_VERSION, kind as u8]);
    body(&mut doc);
    let crc = crc32(&doc);
    doc.extend_from_slice(&crc.to_be_bytes());
    doc
}

/// Opens a document sealed as `kind` and decodes its body with `body`,
/// which must consume every byte of it.
///
/// # Errors
///
/// [`PersistError::VersionMismatch`] or [`PersistError::Checksum`] from
/// the framing, and [`PersistError::Malformed`] for a bad magic, a
/// document too short to hold the framing, another kind, or any
/// failure of `body`.
pub fn open<T>(
    doc: &[u8],
    kind: DocKind,
    body: impl FnOnce(&mut Reader<'_>) -> Result<T, PersistError>,
) -> Result<T, PersistError> {
    let mut r = Reader { bytes: doc, pos: 0 };
    if r.array()? != DOC_MAGIC {
        r.pos = 0;
        return Err(r.malformed("not a sealed document (bad magic)"));
    }
    let [found] = r.array()?;
    if found != DOC_VERSION {
        return Err(PersistError::VersionMismatch {
            found,
            supported: DOC_VERSION,
        });
    }
    let [doc_kind] = r.array()?;
    let (sealed, trailer) = doc.split_at(doc.len().saturating_sub(4).max(r.pos));
    r.bytes = sealed;
    let stored = <[u8; 4]>::try_from(trailer)
        .map(u32::from_be_bytes)
        .map_err(|_| r.malformed("document too short for its checksum"))?;
    let computed = crc32(sealed);
    if stored != computed {
        return Err(PersistError::Checksum { stored, computed });
    }
    if doc_kind != kind as u8 {
        r.pos -= 1;
        return Err(r.malformed(format!("document kind {doc_kind}, expected {kind:?}")));
    }
    let value = body(&mut r)?;
    if r.pos < sealed.len() {
        return Err(r.malformed("bytes left over after the body"));
    }
    Ok(value)
}

/// A value with one canonical encoding in a document body.
pub trait Field: Sized {
    /// Appends the encoding to a document body.
    fn put(&self, out: &mut Vec<u8>);

    /// Decodes one value.
    ///
    /// # Errors
    ///
    /// [`PersistError::Malformed`] at the offset where decoding failed.
    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError>;
}

/// Decodes a document body field by field.
#[derive(Debug)]
pub struct Reader<'a> {
    /// The document up to (not including) its CRC trailer.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A [`PersistError::Malformed`] at the current offset.
    pub fn malformed(&self, reason: impl Into<String>) -> PersistError {
        PersistError::Malformed {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    /// Decodes one `T`; errors as for [`Field::get`].
    pub fn get<T: Field>(&mut self) -> Result<T, PersistError> {
        T::get(self)
    }

    /// An entry count. Every entry takes at least one byte, so a count
    /// the remaining bytes cannot hold is malformed before anything is
    /// allocated for it.
    fn count(&mut self) -> Result<usize, PersistError> {
        let n = self.get::<u64>()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.bytes.len() - self.pos => Ok(n),
            _ => {
                self.pos -= 8;
                Err(self.malformed(format!("count {n} exceeds the remaining bytes")))
            }
        }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        let Some(out) = self.bytes[self.pos..].first_chunk::<N>() else {
            return Err(self.malformed(format!("truncated: {N} more bytes needed")));
        };
        self.pos += N;
        Ok(*out)
    }

    /// Decodes a collection's entries, each key strictly above the
    /// last, so a collection has exactly one encoding.
    fn ascending<K: Ord, V>(
        &mut self,
        mut entry: impl FnMut(&mut Self) -> Result<(K, V), PersistError>,
    ) -> Result<BTreeMap<K, V>, PersistError> {
        let mut out = BTreeMap::new();
        for _ in 0..self.count()? {
            let at = self.pos;
            let (k, v) = entry(self)?;
            if out.last_key_value().is_some_and(|(last, _)| k <= *last) {
                self.pos = at;
                return Err(self.malformed("entries not strictly ascending"));
            }
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Integers are big-endian.
macro_rules! big_endian {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
                r.array().map(<$t>::from_be_bytes)
            }
        }
    )*};
}

big_endian!(u8, u32, u64, i64);

/// A `usize` is a `u64` that must fit.
impl Field for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let v = r.get::<u64>()?;
        usize::try_from(v).map_err(|_| r.malformed(format!("{v} does not fit a usize")))
    }
}

/// An `f64` is its IEEE-754 bits, so the round trip is bit-exact.
impl Field for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get().map(f64::from_bits)
    }
}

/// A bool is 0 or 1; any other byte is malformed.
impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.array()? {
            [0] => Ok(false),
            [1] => Ok(true),
            [b] => {
                r.pos -= 1;
                Err(r.malformed(format!("bool byte {b}")))
            }
        }
    }
}

impl Field for MacAddr {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.octets());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.array().map(MacAddr::new)
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok((r.get()?, r.get()?))
    }
}

/// An `Option` is a bool tag, then the value when present.
impl<T: Field> Field for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        if r.get()? {
            r.get().map(Some)
        } else {
            Ok(None)
        }
    }
}

/// A sequence is a count, then its items in order.
impl<T: Field> Field for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for v in self {
            v.put(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        (0..r.count()?).map(|_| r.get()).collect()
    }
}

/// A set is a count, then strictly ascending items.
impl<T: Field + Ord> Field for BTreeSet<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for v in self {
            v.put(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(r.ascending(|r| Ok((r.get()?, ())))?.into_keys().collect())
    }
}

/// A map is a count, then entries with strictly ascending keys.
impl<K: Field + Ord, V: Field> Field for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.ascending(|r| Ok((r.get()?, r.get()?)))
    }
}

/// Encodes a closed window as `window:i64be mobile:6B` plus 6 bytes per
/// Γ entry in ascending order — the payload of a `closed.wal` record.
pub fn encode_closed(c: &ClosedWindow) -> Vec<u8> {
    let mut payload = Vec::new();
    c.window.put(&mut payload);
    c.mobile.put(&mut payload);
    for ap in &c.gamma {
        ap.put(&mut payload);
    }
    payload
}

/// Decodes what [`encode_closed`] writes: `None` unless the payload is
/// a whole number of MACs with a non-empty, strictly ascending Γ. The
/// window start is recomputed from `window_s`; the localization outcome
/// is never persisted — checkpointed campaigns refix every window in
/// one batch pass — so it is the deferred marker.
pub fn decode_closed(payload: &[u8], window_s: f64) -> Option<ClosedWindow> {
    let (window, rest) = payload.split_first_chunk::<8>()?;
    let (mobile, aps) = rest.split_first_chunk::<MAC_LEN>()?;
    let (gamma, tail) = aps.as_chunks::<MAC_LEN>();
    if gamma.is_empty() || !tail.is_empty() || !gamma.is_sorted_by(|a, b| a < b) {
        return None;
    }
    let window = i64::from_be_bytes(*window);
    Some(ClosedWindow {
        window,
        window_start_s: window_start(window, window_s),
        mobile: MacAddr::new(*mobile),
        gamma: gamma.iter().map(|&ap| MacAddr::new(ap)).collect(),
        outcome: Err(PipelineError::DeferredLocalization),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{open_checkpoint, seal_checkpoint};
    use crate::{StreamConfig, StreamEngine};
    use marauder_core::apdb::{ApDatabase, ApRecord};
    use marauder_core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap};
    use marauder_geo::Point;
    use marauder_wifi::channel::Channel;
    use marauder_wifi::frame::Frame;
    use marauder_wifi::sniffer::CapturedFrame;
    use marauder_wifi::ssid::Ssid;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Magic + version + kind.
    const HEADER_LEN: usize = DOC_MAGIC.len() + 2;

    fn map() -> MaraudersMap {
        let db: ApDatabase = [
            (100u64, Point::new(0.0, 0.0)),
            (101, Point::new(100.0, 0.0)),
            (102, Point::new(50.0, 80.0)),
        ]
        .into_iter()
        .map(|(i, p)| ApRecord {
            bssid: MacAddr::from_index(i),
            ssid: None,
            location: p,
            radius: None,
        })
        .collect();
        MaraudersMap::new(db, KnowledgeLevel::LocationsOnly, AttackConfig::default())
    }

    /// An engine with open windows, solver statistics and cached radii.
    fn engine() -> StreamEngine {
        let mut engine = StreamEngine::new(map(), StreamConfig::default());
        for k in 0u64..25 {
            engine.push(&CapturedFrame {
                time_s: k as f64 * 7.0,
                card: 0,
                frame: Frame::probe_response(
                    MacAddr::from_index(100 + k % 3),
                    MacAddr::from_index(1 + k % 2),
                    Ssid::new("x").unwrap(),
                    Channel::bg(6).unwrap(),
                ),
            });
        }
        assert!(engine.open_windows() > 0 && engine.stats().lp_solves > 0);
        engine
    }

    type Primitives = (
        bool,
        (u32, (i64, (f64, (Option<f64>, (Option<u64>, Vec<usize>))))),
    );

    fn primitives() -> Primitives {
        (
            true,
            (
                7,
                (-3, (f64::NEG_INFINITY, (Some(1.5), (None, vec![4, 5])))),
            ),
        )
    }

    fn sealed_primitives() -> Vec<u8> {
        seal(DocKind::Engine, |w| {
            primitives().put(w);
            BTreeSet::from([1, 2].map(MacAddr::from_index)).put(w);
        })
    }

    fn read_primitives(r: &mut Reader<'_>) -> Result<(), PersistError> {
        let back: Primitives = r.get()?;
        assert_eq!(format!("{back:?}"), format!("{:?}", primitives()));
        assert_eq!(r.get::<BTreeSet<MacAddr>>()?.len(), 2);
        Ok(())
    }

    /// The bitwise CRC-32: the reference the table-driven one must
    /// equal.
    fn crc32_bitwise(crc: u32, bytes: &[u8]) -> u32 {
        let mut crc = !crc;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn table_crc32_equals_the_bitwise_reference_at_every_split(
            bytes in vec(any::<u8>(), 256),
            start in any::<u32>(),
        ) {
            for len in 0..=bytes.len() {
                let input = &bytes[..len];
                let whole = crc32_bitwise(start, input);
                prop_assert_eq!(crc32_update(start, input), whole, "length {}", len);
                for split in 0..=len {
                    let (a, b) = input.split_at(split);
                    let joined = crc32_update(crc32_update(start, a), b);
                    prop_assert_eq!(joined, whole, "length {} split at {}", len, split);
                }
            }
        }
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sealed_document_round_trips() {
        let doc = sealed_primitives();
        assert!(doc.starts_with(b"MRDRDOC\x01\x01"));
        open(&doc, DocKind::Engine, read_primitives).unwrap();
    }

    #[test]
    fn framing_checks_run_in_order_with_typed_errors() {
        let doc = sealed_primitives();
        let opened = |doc: &[u8]| open(doc, DocKind::Engine, read_primitives);
        // Garbage, and an old text document: no magic.
        for garbage in [
            &b"not a document"[..],
            b"# marauder stream snapshot v1\n",
            b"",
        ] {
            assert!(
                matches!(
                    opened(garbage),
                    Err(PersistError::Malformed { offset: 0, .. })
                ),
                "{garbage:?}"
            );
        }
        // A future version is reported as such, before the CRC (which
        // the version byte is part of) is even looked at.
        let mut future = doc.clone();
        future[7] = 2;
        assert_eq!(
            opened(&future).unwrap_err(),
            PersistError::VersionMismatch {
                found: 2,
                supported: DOC_VERSION
            }
        );
        // Any damage to the body or the trailer fails the CRC.
        let mut flipped = doc.clone();
        flipped[11] ^= 0x10;
        assert!(matches!(
            opened(&flipped),
            Err(PersistError::Checksum { .. })
        ));
        // Truncation: too short to hold a trailer, or a wrong trailer.
        assert!(matches!(
            opened(&doc[..10]),
            Err(PersistError::Malformed { .. })
        ));
        assert!(matches!(
            opened(&doc[..doc.len() - 1]),
            Err(PersistError::Checksum { .. })
        ));
        // Another kind's document is refused after the CRC passes.
        let err = open(&doc, DocKind::FleetCheckpoint, read_primitives).unwrap_err();
        assert!(
            matches!(err, PersistError::Malformed { offset: 8, .. }),
            "{err}"
        );
    }

    #[test]
    fn body_decoding_is_canonical_and_total() {
        let malformed_at =
            |doc: Vec<u8>, read: fn(&mut Reader<'_>) -> Result<(), PersistError>| match open(
                &doc,
                DocKind::Engine,
                read,
            ) {
                Err(PersistError::Malformed { offset, .. }) => offset,
                other => panic!("expected Malformed, got {other:?}"),
            };
        // Bytes the reader did not consume.
        let doc = sealed_primitives();
        assert_eq!(
            malformed_at(doc, |r| r.get::<bool>().map(drop)),
            HEADER_LEN + 1
        );
        // A bool byte other than 0 or 1.
        let doc = seal(DocKind::Engine, |w| (2u32 << 24).put(w));
        assert_eq!(malformed_at(doc, |r| r.get::<bool>().map(drop)), HEADER_LEN);
        // A count the remaining bytes cannot hold allocates nothing.
        let doc = seal(DocKind::Engine, |w| u64::MAX.put(w));
        assert_eq!(
            malformed_at(doc, |r| r.get::<Vec<u64>>().map(drop)),
            HEADER_LEN
        );
        // Set entries out of order, or repeated.
        for macs in [[2, 1], [1, 1]] {
            let doc = seal(DocKind::Engine, |w| {
                macs.map(MacAddr::from_index).to_vec().put(w)
            });
            let read: fn(&mut Reader<'_>) -> Result<(), PersistError> =
                |r| r.get::<BTreeSet<MacAddr>>().map(drop);
            assert_eq!(malformed_at(doc, read), HEADER_LEN + 8 + MAC_LEN);
        }
        // A body cut short.
        let doc = seal(DocKind::Engine, |w| 1u32.put(w));
        assert_eq!(malformed_at(doc, |r| r.get::<u64>().map(drop)), HEADER_LEN);
    }

    #[test]
    fn closed_window_codec_round_trips_and_rejects_empty_gamma() {
        let c = ClosedWindow {
            window: -4,
            window_start_s: window_start(-4, 30.0),
            mobile: MacAddr::from_index(9),
            gamma: [3, 5].map(MacAddr::from_index).into(),
            outcome: Err(PipelineError::DeferredLocalization),
        };
        let payload = encode_closed(&c);
        assert_eq!(payload.len(), MIN_CLOSED_LEN + MAC_LEN);
        let back = decode_closed(&payload, 30.0).unwrap();
        assert_eq!(
            (back.window, back.mobile, &back.gamma),
            (c.window, c.mobile, &c.gamma)
        );
        assert_eq!(back.window_start_s.to_bits(), c.window_start_s.to_bits());
        assert!(decode_closed(&payload[..8 + MAC_LEN], 30.0).is_none());
        assert!(decode_closed(&payload[..payload.len() - 1], 30.0).is_none());
    }

    /// Every truncation and every single-bit flip of `doc` must be a
    /// typed error from `open_doc`: never `Ok`, never a panic.
    fn assert_every_damage_is_typed<T>(
        doc: &[u8],
        open_doc: impl Fn(&[u8]) -> Result<T, PersistError>,
    ) {
        assert!(open_doc(doc).is_ok(), "the undamaged document opens");
        for cut in 0..doc.len() {
            assert!(open_doc(&doc[..cut]).is_err(), "cut to {cut} bytes opened");
        }
        let mut damaged = doc.to_vec();
        for pos in 0..doc.len() {
            for bit in 0..8 {
                damaged[pos] ^= 1 << bit;
                assert!(
                    open_doc(&damaged).is_err(),
                    "byte {pos} bit {bit} flipped and the document opened"
                );
                damaged[pos] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_of_a_persisted_document_is_a_typed_error() {
        let engine = engine();
        let snapshot = engine.snapshot();
        assert_every_damage_is_typed(&snapshot, |d| StreamEngine::restore(map(), d));
        let checkpoint = seal_checkpoint(DocKind::JournalCheckpoint, 25, 3, 0x1234_5678, |out| {
            engine.encode_state(out)
        });
        assert_every_damage_is_typed(&checkpoint, |d| {
            open_checkpoint(d, DocKind::JournalCheckpoint, |r| {
                StreamEngine::decode_state(map(), r)
            })
        });
    }
}
