//! The workspace's JSON: one value type, the writer every machine-read
//! report renders through, and the reader that parses them back.
//!
//! A container is laid out in one of two ways, chosen where the
//! document is built: [`Layout::Block`] puts one member per line,
//! indented two spaces per level, and [`Layout::Inline`] keeps the
//! container on one line (`{"k": v, "k": v}`, `[a, b]`). Object members
//! keep their order, and numbers are carried as text, so a `u64`
//! counter or a fixed-decimal field survives a round trip exactly. The
//! reader records each container's layout (a line break right after
//! the opening bracket means block), so writing a parsed document
//! reproduces it byte for byte.
//!
//! Like the rest of the crate it is std-only: the reader is a
//! recursive-descent parser over the full JSON grammar (RFC 8259):
//! objects, arrays, strings with escapes, numbers, booleans, null.

use std::fmt::Write as _;

/// How a container is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented two spaces per nesting level. An
    /// empty block is its opening bracket, a line break, the indent of
    /// its own line and the closing bracket.
    Block,
    /// The whole container on one line: `{"k": v, "k": v}`, `[a, b]`.
    Inline,
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number, as its text.
    Num(String),
    Str(String),
    Arr(Layout, Vec<Json>),
    /// Members in document order.
    Obj(Layout, Vec<(String, Json)>),
}

impl Json {
    /// An object of `members`, in the order given.
    pub fn obj<K: Into<String>>(
        layout: Layout,
        members: impl IntoIterator<Item = (K, Json)>,
    ) -> Json {
        Json::Obj(
            layout,
            members.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        )
    }

    /// An array of `items`.
    pub fn arr<T: Into<Json>>(layout: Layout, items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(layout, items.into_iter().map(Into::into).collect())
    }

    /// Member lookup on an object (a later duplicate key wins); `None`
    /// on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(_, members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(_, v) => Some(v),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number as a `u64`, read from its exact text.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// Writes the value as a document: its text and a final newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_value(&mut out, 0);
        out.push('\n');
        out
    }

    /// Appends the value's text; `depth` is the nesting level of the
    /// line it starts on.
    fn write_value(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(text) => out.push_str(text),
            Json::Str(s) => out.push_str(&json_string(s)),
            Json::Arr(layout, items) => write_container(
                out,
                depth,
                *layout,
                ['[', ']'],
                items.iter().map(|v| (None, v)),
            ),
            Json::Obj(layout, members) => write_container(
                out,
                depth,
                *layout,
                ['{', '}'],
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

fn write_container<'a>(
    out: &mut String,
    depth: usize,
    layout: Layout,
    brackets: [char; 2],
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let indent = |out: &mut String, level: usize| out.extend(std::iter::repeat_n(' ', 2 * level));
    out.push(brackets[0]);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        match layout {
            Layout::Block => {
                out.push('\n');
                indent(out, depth + 1);
            }
            Layout::Inline if i > 0 => out.push(' '),
            Layout::Inline => {}
        }
        if let Some(key) = key {
            out.push_str(&json_string(key));
            out.push_str(": ");
        }
        value.write_value(out, depth + 1);
    }
    if layout == Layout::Block {
        out.push('\n');
        indent(out, depth);
    }
    out.push(brackets[1]);
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n.to_string())
            }
        }
    )*};
}
from_integer!(u32, u64, usize, i64);

/// Written as [`json_f64`] writes it: `null` when not finite.
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(json_f64(x))
        } else {
            Json::Null
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Renders `s` as a JSON string literal: quotes, backslashes and
/// control characters escaped.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `x` as a JSON number, or `null` when it is not finite.
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Parses a complete JSON document; trailing non-whitespace is an
/// error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips the whitespace after an opening bracket: a line break in
    /// it makes the container a block.
    fn layout(&mut self) -> Layout {
        let start = self.pos;
        self.skip_ws();
        if self.bytes[start..self.pos].contains(&b'\n') {
            Layout::Block
        } else {
            Layout::Inline
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}",
                b as char,
                self.pos.saturating_sub(1)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let layout = self.layout();
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(layout, members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(layout, members)),
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let layout = self.layout();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(layout, items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(layout, items)),
                other => return Err(format!("expected `,` or `]`, got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        self.pos += 4;
                        // The writer never emits surrogate pairs (it
                        // escapes only control characters); map them
                        // to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) if c < 0x20 => return Err(format!("raw control byte {c:#x} in string")),
                Some(c) if c < 0x80 => out.push(c as char),
                Some(_) => {
                    // Re-decode the UTF-8 sequence starting one byte back.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|e| format!("bad utf-8: {e}"))?;
                    let ch = s.chars().next().ok_or("empty utf-8 tail")?;
                    out.push(ch);
                    self.pos = start + ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .filter(|s| s.parse::<f64>().is_ok())
            .map(|s| Json::Num(s.to_string()))
            .ok_or_else(|| format!("bad number at offset {start}"))
    }
}
