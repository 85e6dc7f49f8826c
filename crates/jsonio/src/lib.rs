//! A small, dependency-free JSON writer and reader for HeapTherapy+.
//!
//! The writer renders the machine-readable outputs: telemetry snapshots,
//! `heaptherapy report --json` and the `reproduce --json` benchmark
//! reports, through the [`ToJson`] trait the domain crates implement. The
//! reader, a strict [`Json::parse`] plus the `req_*` member lookups, reads
//! those reports back for `reproduce check-baselines`. Patches are not
//! stored here: their one configuration format is `ht-patch`'s text file.
//!
//! Integers are kept as full-width `u64` (CCIDs use the whole range); floats
//! are intentionally unsupported — a fractional figure is written scaled to
//! an integer (`replay_speedup_x100`) or as a decimal string.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Object member order is preserved (deterministic output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer (full `u64` range).
    U64(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`] or a required-member lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset of the error in the input (0 for shape errors).
    pub at: usize,
}

impl JsonError {
    /// A shape (not syntax) error.
    pub fn shape(msg: impl Into<String>) -> Self {
        Self {
            msg: msg.into(),
            at: 0,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.at == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "{} at byte {}", self.msg, self.at)
        }
    }
}

impl std::error::Error for JsonError {}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Renders `self` as a JSON value.
    fn to_json(&self) -> Json;
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser (and a value's drop) recurses once per level, so a cap keeps a
/// hostile document from overflowing the stack; no report written here
/// nests more than a few levels.
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Parses a JSON document (must be a single value plus whitespace).
    ///
    /// # Errors
    ///
    /// A [`JsonError`] at the first malformed byte, including the bracket
    /// that opens level [`MAX_DEPTH`] + 1.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }

    /// Compact single-line rendering.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1)
            }),
            Json::Obj(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i| {
                    write_escaped(out, &members[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    members[i].1.write(out, indent, depth + 1)
                })
            }
        }
    }

    /// The value as `u64`, if it is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up an object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Convenience: a required `u64` member.
    pub fn req_u64(&self, key: &str) -> Result<u64, JsonError> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| JsonError::shape(format!("missing or non-integer member `{key}`")))
    }

    /// Convenience: a required string member.
    pub fn req_str(&self, key: &str) -> Result<&str, JsonError> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError::shape(format!("missing or non-string member `{key}`")))
    }

    /// Convenience: a required bool member.
    pub fn req_bool(&self, key: &str) -> Result<bool, JsonError> {
        self.get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| JsonError::shape(format!("missing or non-bool member `{key}`")))
    }

    /// Convenience: a required array member.
    pub fn req_arr(&self, key: &str) -> Result<&[Json], JsonError> {
        self.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| JsonError::shape(format!("missing or non-array member `{key}`")))
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            at: self.pos.max(1),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => self.nested(open),
            Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// The array or object opening at `pos`, one level deeper.
    fn nested(&mut self, open: u8) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = if open == b'[' {
            self.array()
        } else {
            self.object()
        };
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(self.err("floating-point numbers are not supported"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<u64>()
            .map(Json::U64)
            .map_err(|_| self.err("integer out of u64 range"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err("surrogate \\u escape unsupported"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one UTF-8 scalar, not one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        let mut seen = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if seen.insert(key.clone(), ()).is_some() {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Builds an object value from key/value pairs (insertion order preserved).
pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_value_kinds() {
        let doc =
            r#"{"a": [1, 2, 18446744073709551615], "b": "x\nyA", "c": true, "d": null, "e": {}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.req_arr("a").unwrap().len(), 3);
        assert_eq!(v.req_arr("a").unwrap()[2].as_u64(), Some(u64::MAX));
        assert_eq!(v.req_str("b").unwrap(), "x\nyA");
        assert!(v.req_bool("c").unwrap());
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Obj(vec![])));
        assert_eq!(v.get("zz"), None);
    }

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = obj([
            ("name", Json::from("he\"llo\\")),
            ("n", Json::from(42u64)),
            ("list", Json::Arr(vec![Json::Bool(false), Json::Null])),
        ]);
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn pretty_is_indented() {
        let v = Json::Arr(vec![Json::U64(1), Json::U64(2)]);
        assert_eq!(v.to_pretty(), "[\n  1,\n  2\n]");
        assert_eq!(v.to_compact(), "[1,2]");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{not json",
            "[1,",
            "\"unterminated",
            "1.5",
            "1e9",
            "[] []",
            "{\"a\":1,\"a\":2}",
            "-3",
            "",
            "nulL",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let deepest = Json::parse(&nest(MAX_DEPTH)).unwrap();
        assert_eq!(Json::parse(&deepest.to_compact()), Ok(deepest));
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH, "at the bracket one level too deep");
        assert!(err.msg.contains("nesting"), "{err}");
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).unwrap_err().msg.contains("nesting"));
    }

    #[test]
    fn unicode_survives() {
        let v = Json::Str("héllo → wörld".into());
        assert_eq!(Json::parse(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn error_display_forms() {
        let e = Json::parse("[1,]").unwrap_err();
        assert!(e.to_string().contains("byte"), "{e}");
        assert_eq!(JsonError::shape("missing").to_string(), "missing");
    }
}
