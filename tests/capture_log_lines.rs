//! Capture-log line parsing at the byte level: every line the
//! `split_whitespace` + `from_str_radix` parser accepted parses to the
//! same frame, every malformed line is a typed error in the same class
//! and order, and no input panics — including non-ASCII bytes, which
//! the old parser sliced at byte offsets and panicked on.

use marauders_map::wifi::capture_log::{
    capture_log_frames, parse_capture_line, parse_capture_log, HEADER,
};
use marauders_map::wifi::channel::Channel;
use marauders_map::wifi::frame::Frame;
use marauders_map::wifi::mac::MacAddr;
use marauders_map::wifi::sniffer::CapturedFrame;
use marauders_map::wifi::ssid::Ssid;
use proptest::collection::vec;
use proptest::prelude::*;

/// The parser as it stood before the byte-level decoder, except that a
/// hex pair split inside a multi-byte char is a `bad hex` error where
/// the old parser panicked.
fn reference(line: &str) -> Result<Option<CapturedFrame>, String> {
    if line.trim().is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let time_s: f64 = parts
        .next()
        .ok_or_else(|| "missing time".to_string())?
        .parse()
        .map_err(|e| format!("bad time: {e}"))?;
    let card: usize = parts
        .next()
        .ok_or_else(|| "missing card".to_string())?
        .parse()
        .map_err(|e| format!("bad card: {e}"))?;
    let hex = parts.next().ok_or_else(|| "missing bytes".to_string())?;
    if parts.next().is_some() {
        return Err("trailing fields".into());
    }
    if hex.len() % 2 != 0 {
        return Err("odd hex length".into());
    }
    let bytes: Vec<u8> = (0..hex.len() / 2)
        .map(|k| match hex.get(2 * k..2 * k + 2) {
            Some(pair) => u8::from_str_radix(pair, 16).map_err(|e| format!("bad hex: {e}")),
            None => Err("bad hex: invalid digit found in string".into()),
        })
        .collect::<Result<_, _>>()?;
    let frame = Frame::decode(&bytes).map_err(|e| format!("bad frame: {e}"))?;
    Ok(Some(CapturedFrame {
        time_s,
        card,
        frame,
    }))
}

/// The one intended difference: the old parser took a `+`-signed pair
/// such as `+f` as a byte; the hex field is now exactly hex digits.
fn hex_field_has_plus(line: &str) -> bool {
    line.split_whitespace()
        .nth(2)
        .is_some_and(|hex| hex.contains('+'))
}

/// A parse result with the timestamp as its bits, so a `NaN` time
/// compares equal to itself.
type Bits = Result<Option<(u64, usize, Frame)>, String>;

fn bits(parsed: Result<Option<CapturedFrame>, String>) -> Bits {
    parsed.map(|f| f.map(|f| (f.time_s.to_bits(), f.card, f.frame)))
}

/// Asserts `parse_capture_line` agrees with [`reference`] on `line`.
fn agrees(line: &str) {
    let new = bits(parse_capture_line(line));
    let old = bits(reference(line));
    let digits_checked = match &old {
        Ok(parsed) => parsed.is_some(),
        Err(e) => e.starts_with("bad hex") || e.starts_with("bad frame"),
    };
    if digits_checked && hex_field_has_plus(line) {
        let err = new.expect_err(line);
        assert!(err.starts_with("bad hex"), "{line:?}: {err}");
    } else {
        assert_eq!(new, old, "{line:?}");
    }
}

fn probe_response() -> Frame {
    Frame::probe_response(
        MacAddr::from_index(100),
        MacAddr::from_index(1),
        Ssid::new("net one").unwrap(),
        Channel::bg(11).unwrap(),
    )
}

fn hex(frame: &Frame) -> String {
    frame.encode().iter().map(|b| format!("{b:02x}")).collect()
}

fn line(time: &str, card: &str, hex: &str) -> String {
    format!("{time} {card} {hex}")
}

#[test]
fn accepted_spellings_parse_to_the_same_frame() {
    let frame = probe_response();
    let h = hex(&frame);
    let expected = Some(CapturedFrame {
        time_s: 2.5,
        card: 2,
        frame,
    });
    for text in [
        line("2.5", "2", &h),
        line("2.500000", "2", &h.to_uppercase()),
        line("2.5", "+2", &h),
        format!("2.5\t2\t{h}"),
        format!("2.5   2 \t {h}"),
        format!("  2.5 2 {h}"),
        format!("2.5 2 {h}  \t"),
        format!("2.5 2 {h}\r"),
        format!("2.5\u{3000}2\u{a0}{h}\u{85}"),
        format!("2.5\x0b2 {h}"),
    ] {
        assert_eq!(parse_capture_line(&text), Ok(expected.clone()), "{text:?}");
        agrees(&text);
    }
    // Mixed case within one field.
    let mixed: String = h
        .chars()
        .enumerate()
        .map(|(i, c)| {
            if i % 3 == 0 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect();
    assert_eq!(parse_capture_line(&line("2.5", "2", &mixed)), Ok(expected));
}

#[test]
fn blank_and_comment_lines_are_skipped() {
    for text in ["", " ", "\t\t", "\u{3000}", "#", "# note", "#2.5 2 zz"] {
        assert_eq!(parse_capture_line(text), Ok(None), "{text:?}");
        agrees(text);
    }
    // A comment must start the line.
    assert!(parse_capture_line(" # note")
        .unwrap_err()
        .starts_with("bad time"));
}

#[test]
fn malformed_lines_are_typed_errors_in_the_old_order() {
    let h = hex(&probe_response());
    let cases = [
        (line("x", "2", &h), "bad time"),
        (line("2.é", "2", &h), "bad time"),
        ("2.5".to_string(), "missing card"),
        (line("2.5", "é", &h), "bad card"),
        (line("2.5", "-1", &h), "bad card"),
        ("2.5 2".to_string(), "missing bytes"),
        ("2.5 2 \t ".to_string(), "missing bytes"),
        (format!("{} extra", line("2.5", "2", &h)), "trailing fields"),
        (format!("{} é", line("2.5", "2", &h)), "trailing fields"),
        // Trailing fields are reported before the hex is looked at.
        ("2.5 2 zzz extra".to_string(), "trailing fields"),
        (line("2.5", "2", &h[1..]), "odd hex length"),
        ("2.5 2 abc".to_string(), "odd hex length"),
        // Odd length (in bytes) is reported before a bad digit.
        ("2.5 2 zzz".to_string(), "odd hex length"),
        ("2.5 2 aé".to_string(), "odd hex length"),
        // An even number of bytes with a multi-byte char: the old
        // parser panicked here.
        ("2.5 2 aéb".to_string(), "bad hex"),
        ("2.5 2 éé".to_string(), "bad hex"),
        (
            line("2.5", "2", &format!("{}é", &h[..h.len() - 2])),
            "bad hex",
        ),
        ("2.5 2 zz".to_string(), "bad hex"),
        ("2.5 2 0x40".to_string(), "bad hex"),
        ("2.5 2 -f".to_string(), "bad hex"),
        (line("2.5", "2", &h[..40]), "bad frame"),
        ("2.5 2 40".to_string(), "bad frame"),
    ];
    for (text, class) in &cases {
        let err = parse_capture_line(text).expect_err(text);
        assert!(err.starts_with(class), "{text:?}: {err}");
        agrees(text);
    }
}

#[test]
fn a_plus_signed_hex_pair_is_bad_hex() {
    let h = hex(&probe_response());
    let signed = format!("+{}", &h[1..]);
    assert!(reference(&line("2.5", "2", &signed)).unwrap().is_some());
    let err = parse_capture_line(&line("2.5", "2", &signed)).unwrap_err();
    assert!(err.starts_with("bad hex"), "{err}");
    agrees(&line("2.5", "2", &signed));
}

#[test]
fn a_bad_line_is_reported_with_its_number_and_the_next_still_parses() {
    let h = hex(&probe_response());
    for bad in ["1.0 0 aéb", "1.0 0 aé", "1.0 é 40", "é", "1.0 0 +f"] {
        let text = format!("{HEADER}\n# comment\n\n{bad}\n3.0 1 {h}\n");
        let mut frames = capture_log_frames(&text);
        let err = frames.next().unwrap().unwrap_err();
        assert_eq!(err.line(), 4, "{bad:?}");
        let next = frames.next().unwrap().expect("the next line parses");
        assert_eq!((next.time_s, next.card), (3.0, 1));
        assert_eq!(next.frame, probe_response());
        assert!(frames.next().is_none());
        assert_eq!(parse_capture_log(&text).unwrap_err().line(), 4);
    }
}

/// Pieces a random line is built from: fields good and bad, with the
/// non-ASCII and sign cases mixed in.
fn pieces() -> Vec<String> {
    let frame = hex(&probe_response());
    let probe = hex(&Frame::probe_request(MacAddr::from_index(7), None, 6));
    let mut p: Vec<String> = [
        "1.0",
        "-3.25",
        "1e3",
        "inf",
        "NaN",
        "0",
        "7",
        "+2",
        "-1",
        "x",
        "é",
        "#",
        "\u{1F4E1}",
        "zz",
        "+f",
        "-f",
        "0x40",
        "abc",
        "aé",
        "éa",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    p.push(frame.to_uppercase());
    p.push(format!("+{}", &frame[1..]));
    p.push(format!("{}é", &frame[..frame.len() - 2]));
    p.push(format!("{}\u{3000}{}", &frame[..10], &frame[10..]));
    p.push(frame[..frame.len() - 1].to_string());
    p.push(frame);
    p.push(probe);
    p
}

const SEPARATORS: [&str; 9] = [
    " ", "\t", "   ", " \t ", "\u{3000}", "\u{a0}", "\u{85}", "\x0b", "\r",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn random_lines_agree_with_the_old_parser(
        fields in vec((any::<usize>(), 0usize..SEPARATORS.len()), 0..6),
        lead in 0usize..SEPARATORS.len() + 1,
        tail in 0usize..SEPARATORS.len() + 1,
    ) {
        let pieces = pieces();
        let mut text = String::new();
        if let Some(sep) = SEPARATORS.get(lead) {
            text.push_str(sep);
        }
        for (k, &(piece, sep)) in fields.iter().enumerate() {
            if k > 0 {
                text.push_str(SEPARATORS[sep]);
            }
            text.push_str(&pieces[piece % pieces.len()]);
        }
        if let Some(sep) = SEPARATORS.get(tail) {
            text.push_str(sep);
        }
        agrees(&text);
    }
}
