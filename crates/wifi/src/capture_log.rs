//! Text serialization for capture databases.
//!
//! A portable interchange format so captures can move between the
//! simulator, the CLI tool and archived runs — one frame per line, with
//! the 802.11 bytes hex-encoded exactly as they would sit in a pcap:
//!
//! ```text
//! # marauder capture v1
//! 12.340 1 40000000ffffff...
//! ```
//!
//! A body line is three whitespace-separated fields: the timestamp, the
//! card index (a `u32`), and the frame bytes as exactly `[0-9a-fA-F]`
//! pairs. The writer emits lowercase; the reader decodes the hex field
//! in one pass over its bytes.

use crate::frame::Frame;
use crate::sniffer::{CaptureDatabase, CapturedFrame};
use std::fmt;
use std::fmt::Write as _;

/// Magic first line of the format.
pub const HEADER: &str = "# marauder capture v1";

/// Error returned when parsing a malformed capture log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLogError {
    line: usize,
    reason: String,
}

impl ParseLogError {
    /// The 1-based line number of the first malformed line. A missing
    /// or wrong header is reported as line 1.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Human-readable description of what was wrong with the line.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl fmt::Display for ParseLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "capture log parse error on line {}: {}",
            self.line, self.reason
        )
    }
}

impl std::error::Error for ParseLogError {}

/// Serializes a capture database to the text format.
pub fn write_capture_log(db: &CaptureDatabase) -> String {
    let mut out = String::with_capacity(db.len() * 80 + HEADER.len() + 1);
    out.push_str(HEADER);
    out.push('\n');
    let mut bytes = Vec::with_capacity(64);
    for rec in db.iter() {
        let _ = write!(out, "{:.6} {} ", rec.time_s, rec.card);
        bytes.clear();
        rec.frame.encode_into(&mut bytes);
        push_hex(&mut out, &bytes);
        out.push('\n');
    }
    out
}

/// Lowercase hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Marks a byte that is not a hex digit in [`NIBBLES`].
const NOT_HEX: u8 = 0xFF;

/// The value of each hex digit byte (either case); [`NOT_HEX`] for
/// every other byte.
static NIBBLES: [u8; 256] = nibbles();

const fn nibbles() -> [u8; 256] {
    let mut table = [NOT_HEX; 256];
    let mut v = 0;
    while v < 16 {
        table[HEX_DIGITS[v] as usize] = v as u8;
        table[HEX_DIGITS[v].to_ascii_uppercase() as usize] = v as u8;
        v += 1;
    }
    table
}

/// Appends `bytes` to `out` as lowercase hex pairs.
fn push_hex(out: &mut String, bytes: &[u8]) {
    for &b in bytes {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 0xF)]));
    }
}

/// Decodes the hex pairs that open `text`, up to the first pair that
/// is not two hex digits.
fn decode_hex(text: &[u8]) -> Vec<u8> {
    let (pairs, _) = text.as_chunks::<2>();
    let mut bytes = vec![0; pairs.len()];
    let mut len = 0;
    for (&[hi, lo], byte) in pairs.iter().zip(&mut bytes) {
        let (hi, lo) = (NIBBLES[usize::from(hi)], NIBBLES[usize::from(lo)]);
        if hi | lo > 0xF {
            break;
        }
        *byte = hi << 4 | lo;
        len += 1;
    }
    bytes.truncate(len);
    bytes
}

/// Byte offset of the first char of `line` at or after `from` that is
/// whitespace (`ws`) or not (`!ws`), else `line.len()`. Whitespace is
/// `char::is_whitespace`, the same that separates fields in
/// `str::split_whitespace`.
fn scan(line: &str, from: usize, ws: bool) -> usize {
    line[from..]
        .char_indices()
        .find(|&(_, c)| c.is_whitespace() == ws)
        .map_or(line.len(), |(i, _)| from + i)
}

/// Parses one non-header line of the capture-log body.
///
/// Returns `Ok(None)` for blank lines and `#` comments. [`LineDecoder`]
/// runs it once per body line.
///
/// # Errors
///
/// Returns the malformation reason (without a line number — callers
/// tracking position wrap it into [`ParseLogError`]). The checks run in
/// this order: `missing time`, `bad time`, `missing card`, `bad card`,
/// `missing bytes`, `trailing fields`, `odd hex length`, `bad hex`,
/// `bad frame`.
pub fn parse_capture_line(line: &str) -> Result<Option<CapturedFrame>, String> {
    if scan(line, 0, false) == line.len() || line.starts_with('#') {
        return Ok(None);
    }
    let mut pos = 0;
    let mut field = || {
        let from = scan(line, pos, false);
        pos = scan(line, from, true);
        (from < pos).then(|| &line[from..pos])
    };
    let time_s: f64 = field()
        .ok_or("missing time")?
        .parse()
        .map_err(|e| format!("bad time: {e}"))?;
    // The journal and the wire store the card as a `u32`.
    let card: u32 = field()
        .ok_or("missing card")?
        .parse()
        .map_err(|e| format!("bad card: {e}"))?;
    // Decoding the hex pairs also finds where the field ends: only a
    // field with a non-hex byte is walked past its last whole pair.
    let hex_start = scan(line, pos, false);
    if hex_start == line.len() {
        return Err("missing bytes".into());
    }
    let bytes = decode_hex(&line.as_bytes()[hex_start..]);
    let decoded = hex_start + 2 * bytes.len();
    let hex_end = scan(line, decoded, true);
    if scan(line, hex_end, false) < line.len() {
        return Err("trailing fields".into());
    }
    if !(hex_end - hex_start).is_multiple_of(2) {
        return Err("odd hex length".into());
    }
    if decoded < hex_end {
        return Err("bad hex: invalid digit found in string".into());
    }
    let frame = Frame::decode(&bytes).map_err(|e| format!("bad frame: {e}"))?;
    Ok(Some(CapturedFrame {
        time_s,
        card: card as usize,
        frame,
    }))
}

/// Decodes a capture log one line at a time, in order — the decoder
/// [`CaptureLogFrames`] runs, for readers that receive the log in
/// pieces (`marauder replay --follow` tails one still being written).
///
/// Line 1 must be [`HEADER`]; each later line is one
/// [`parse_capture_line`] call. Every error carries its 1-based line
/// number, so a header error is always line 1, and it ends the log:
/// what follows a wrong header is not a capture-log body.
#[derive(Debug, Clone, Default)]
pub struct LineDecoder {
    lines: usize,
}

impl LineDecoder {
    /// A decoder at the start of a log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes the log's next line: `Ok(None)` for the header, a blank
    /// line or a comment.
    ///
    /// # Errors
    ///
    /// A wrong header on line 1, or a malformed body line, with its
    /// line number and [`parse_capture_line`]'s reason.
    pub fn decode(&mut self, line: &str) -> Result<Option<CapturedFrame>, ParseLogError> {
        self.lines += 1;
        if self.lines == 1 {
            return if line.trim() == HEADER {
                Ok(None)
            } else {
                Err(missing_header())
            };
        }
        parse_capture_line(line).map_err(|reason| ParseLogError {
            line: self.lines,
            reason,
        })
    }

    /// Ends the log.
    ///
    /// # Errors
    ///
    /// The missing header, as line 1, when not even a header line was
    /// decoded.
    pub fn finish(&self) -> Result<(), ParseLogError> {
        if self.lines == 0 {
            return Err(missing_header());
        }
        Ok(())
    }
}

/// The error of a log whose line 1 is not [`HEADER`].
fn missing_header() -> ParseLogError {
    ParseLogError {
        line: 1,
        reason: format!("missing header {HEADER:?}"),
    }
}

/// Streaming iterator over the frames of a capture log: one
/// [`CapturedFrame`] at a time, without materializing a
/// [`CaptureDatabase`] — the frame feed for the live tracking engine.
///
/// Each line goes through one [`LineDecoder`]. A missing or wrong
/// header is fatal and fuses the iterator. A malformed *body* line
/// yields `Some(Err(_))` with its 1-based line number and iteration
/// resumes at the following line — callers decide whether to abort on
/// the first error ([`parse_capture_log`] does) or skip-and-count under
/// an error budget (`marauder_stream::ErrorBudget` does).
#[derive(Debug, Clone)]
pub struct CaptureLogFrames<'a> {
    lines: std::str::Lines<'a>,
    decoder: LineDecoder,
    fused: bool,
}

/// Iterates over the frames of a capture log without building a
/// database. See [`CaptureLogFrames`].
pub fn capture_log_frames(text: &str) -> CaptureLogFrames<'_> {
    CaptureLogFrames {
        lines: text.lines(),
        decoder: LineDecoder::new(),
        fused: false,
    }
}

impl Iterator for CaptureLogFrames<'_> {
    type Item = Result<CapturedFrame, ParseLogError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.fused {
            return None;
        }
        for line in self.lines.by_ref() {
            match self.decoder.decode(line) {
                Ok(None) => continue,
                Ok(Some(rec)) => return Some(Ok(rec)),
                // A header error fuses the iterator; a body error is
                // recoverable: report, then resume on the next line.
                Err(e) => {
                    self.fused = e.line() == 1;
                    return Some(Err(e));
                }
            }
        }
        self.fused = true;
        self.decoder.finish().err().map(Err)
    }
}

/// Parses the text format produced by [`write_capture_log`].
///
/// # Errors
///
/// Returns [`ParseLogError`] naming the first malformed line; a missing
/// or wrong header is reported as line 1.
pub fn parse_capture_log(text: &str) -> Result<CaptureDatabase, ParseLogError> {
    capture_log_frames(text).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::mac::MacAddr;
    use crate::ssid::Ssid;

    fn sample_db() -> CaptureDatabase {
        let mut db = CaptureDatabase::new();
        db.push(CapturedFrame {
            time_s: 1.25,
            card: 0,
            frame: Frame::probe_request(MacAddr::from_index(1), None, 6),
        });
        db.push(CapturedFrame {
            time_s: 2.5,
            card: 2,
            frame: Frame::probe_response(
                MacAddr::from_index(100),
                MacAddr::from_index(1),
                Ssid::new("net one").unwrap(),
                Channel::bg(11).unwrap(),
            ),
        });
        db
    }

    #[test]
    fn round_trip() {
        let db = sample_db();
        let text = write_capture_log(&db);
        assert!(text.starts_with(HEADER));
        let back = parse_capture_log(&text).unwrap();
        assert_eq!(back.len(), db.len());
        for (a, b) in db.iter().zip(back.iter()) {
            assert_eq!(a.frame, b.frame);
            assert_eq!(a.card, b.card);
            assert!((a.time_s - b.time_s).abs() < 1e-6);
        }
    }

    #[test]
    fn rewriting_a_simulated_campus_reproduces_its_bytes() {
        // The simulator wrote this log; the parsed database must
        // render back to the same bytes.
        let log = include_str!("../../../tests/fixtures/capture.log");
        let db = parse_capture_log(log).unwrap();
        assert_eq!(db.len(), 270);
        assert_eq!(write_capture_log(&db), log);
    }

    #[test]
    fn rejects_missing_header() {
        let e = parse_capture_log("1.0 0 abcd").unwrap_err();
        assert!(e.to_string().contains("missing header"));
        assert_eq!(e.line(), 1, "header errors are reported on line 1");
        assert!(parse_capture_log("").is_err());
        assert_eq!(parse_capture_log("").unwrap_err().line(), 1);
    }

    #[test]
    fn rejects_malformed_lines() {
        let mk = |body: &str| format!("{HEADER}\n{body}\n");
        assert!(parse_capture_log(&mk("notatime 0 40")).is_err());
        assert!(parse_capture_log(&mk("1.0 x 40")).is_err());
        assert!(parse_capture_log(&mk("1.0 0")).is_err());
        assert!(parse_capture_log(&mk("1.0 0 abc")).is_err()); // odd hex
        assert!(parse_capture_log(&mk("1.0 0 zz")).is_err());
        assert!(parse_capture_log(&mk("1.0 0 40 extra")).is_err());
        // Valid hex but truncated frame.
        assert!(parse_capture_log(&mk("1.0 0 4000")).is_err());
    }

    #[test]
    fn error_line_numbers_are_one_based_and_count_every_line() {
        // The header is line 1; the first body line is line 2.
        let e = parse_capture_log(&format!("{HEADER}\nnotatime 0 40\n")).unwrap_err();
        assert_eq!(e.line(), 2);
        assert!(e.reason().contains("bad time"), "{}", e.reason());
        // Blank and comment lines are skipped but still counted.
        let good = write_capture_log(&sample_db());
        let text = format!("{good}# comment\n\n1.0 0 zz\n");
        let e = parse_capture_log(&text).unwrap_err();
        // header + 2 records + comment + blank => bad line is line 6.
        assert_eq!(e.line(), 6);
        assert!(e.reason().contains("bad hex"), "{}", e.reason());
    }

    #[test]
    fn frame_iterator_streams_without_a_database() {
        let db = sample_db();
        let text = write_capture_log(&db);
        let frames: Vec<CapturedFrame> = capture_log_frames(&text)
            .collect::<Result<_, _>>()
            .expect("valid log");
        assert_eq!(frames.len(), db.len());
        for (a, b) in db.iter().zip(&frames) {
            assert_eq!(a.frame, b.frame);
            assert_eq!(a.card, b.card);
        }
        // A malformed body line surfaces as Err; iteration resumes on
        // the next line so callers can skip-and-count.
        let lines: Vec<&str> = text.lines().collect();
        let text = format!("{}\n{}\n1.0 0 zz\n{}\n", lines[0], lines[1], lines[2]);
        let mut it = capture_log_frames(&text);
        assert!(it.next().unwrap().is_ok());
        let err = it.next().unwrap().unwrap_err();
        assert_eq!(err.line(), 3);
        let resumed = it.next().expect("iteration resumes after a body error");
        assert_eq!(resumed.unwrap().frame, db.iter().nth(1).unwrap().frame);
        assert!(it.next().is_none());
        // A header failure is fatal: the iterator fuses.
        let mut it = capture_log_frames("no header\n1.0 0 40\n");
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none(), "header errors fuse the iterator");
    }

    #[test]
    fn truncated_mid_record_reports_the_cut_line() {
        // A sniffer process killed mid-write leaves the final record
        // cut in the middle of its hex bytes.
        let text = write_capture_log(&sample_db());
        let cut = &text[..text.len() - 10];
        let e = parse_capture_log(cut).unwrap_err();
        assert_eq!(e.line(), 3, "1-based: header, record 1, cut record");
        assert!(
            e.reason().contains("odd hex") || e.reason().contains("bad frame"),
            "{}",
            e.reason()
        );
        // The streaming iterator still yields everything before the cut.
        let mut it = capture_log_frames(cut);
        assert!(it.next().unwrap().is_ok());
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none());
    }

    #[test]
    fn line_decoder_fed_line_by_line_matches_the_iterator() {
        let good = write_capture_log(&sample_db());
        let text = format!("{good}# comment\n\n1.0 0 zz\n");
        let mut decoder = LineDecoder::new();
        let fed: Vec<_> = text
            .lines()
            .filter_map(|line| decoder.decode(line).transpose())
            .collect();
        assert_eq!(fed, capture_log_frames(&text).collect::<Vec<_>>());
        assert_eq!(fed[2].as_ref().unwrap_err().line(), 6);
        assert!(decoder.finish().is_ok());
        // A wrong first line, or none at all, is a header error.
        assert_eq!(LineDecoder::new().decode("1.0 0 40").unwrap_err().line(), 1);
        assert_eq!(LineDecoder::new().finish().unwrap_err().line(), 1);
    }

    #[test]
    fn parse_capture_line_skips_blanks_and_comments() {
        assert!(parse_capture_line("").unwrap().is_none());
        assert!(parse_capture_line("   ").unwrap().is_none());
        assert!(parse_capture_line("# note").unwrap().is_none());
        assert!(parse_capture_line("1.0 0 zz").is_err());
    }

    #[test]
    fn skips_comments_and_blanks() {
        let db = sample_db();
        let mut text = write_capture_log(&db);
        text.push_str("\n# trailing comment\n\n");
        let back = parse_capture_log(&text).unwrap();
        assert_eq!(back.len(), db.len());
    }
}
