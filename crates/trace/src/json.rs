//! Minimal hand-rolled JSON support (std-only, no external crates).
//!
//! This is the workspace's **shared wire-text module** (re-exported
//! through the facade as `bgp::json`): the writer side is the escape
//! helpers plus the [`Obj`]/[`Arr`] builders used by the Chrome-trace
//! exporter, the `bgp-serve` protocol and the `bgp-bench` records; the
//! reader side is a small recursive-descent parser used by the
//! round-trip test, the service daemon, and the `bgpc-dump --json`
//! consumers. Numbers
//! are kept as their **raw token** so 64-bit cycle counts survive a
//! round trip exactly — nothing is funneled through `f64`.

use std::fmt::Write as _;

/// Append `s` to `out` as a JSON string literal (with quotes).
pub fn push_str_escaped(out: &mut String, s: &str) {
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
}

/// `s` as a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_str_escaped(&mut out, s);
    out
}

/// A parsed JSON value. Object member order is preserved; numbers keep
/// their raw source token (see [`Value::as_u64`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw token (e.g. `"184467440737"`, `"-1.5e3"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64`, if this is an unsigned integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number token.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so this bounds its stack use: a hostile document
/// (say, a service request line of 200 KB of `[`) is rejected with an
/// error instead of overflowing the stack and aborting the process.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document.
///
/// # Errors
/// Returns a message with the byte offset of the first syntax error, or
/// of the first container nested deeper than [`MAX_DEPTH`].
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: src.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parse one container a level deeper, refusing to exceed
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, String>,
    ) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        if raw.is_empty() || raw == "-" {
            return Err(format!("invalid number at byte {start}"));
        }
        Ok(Value::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            // Surrogate pairs are not produced by our
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "non-utf8 string".to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Incremental writer for a JSON object: `{"k": v, ...}`.
///
/// Keys are escaped; values go in via the typed `field_*` methods or
/// [`Obj::field_raw`] for a pre-serialized JSON fragment (the splice
/// path `bgp-serve` uses to return cached result bytes verbatim).
#[derive(Debug)]
pub struct Obj {
    buf: String,
    first: bool,
}

impl Default for Obj {
    fn default() -> Obj {
        Obj::new()
    }
}

impl Obj {
    /// Start an empty object.
    pub fn new() -> Obj {
        Obj { buf: String::from("{"), first: true }
    }

    fn key(&mut self, k: &str) -> &mut String {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_str_escaped(&mut self.buf, k);
        self.buf.push(':');
        &mut self.buf
    }

    /// Add a string member.
    pub fn field_str(mut self, k: &str, v: &str) -> Obj {
        let buf = self.key(k);
        push_str_escaped(buf, v);
        self
    }

    /// Add an unsigned integer member (exact — no `f64` funnel).
    pub fn field_u64(mut self, k: &str, v: u64) -> Obj {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Add a finite float member (`{:.N}`-free shortest form).
    pub fn field_f64(mut self, k: &str, v: f64) -> Obj {
        debug_assert!(v.is_finite(), "JSON has no NaN/Inf");
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Add a boolean member.
    pub fn field_bool(mut self, k: &str, v: bool) -> Obj {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Splice a pre-serialized JSON fragment in as the member value,
    /// byte-for-byte. The caller guarantees `raw` is valid JSON.
    pub fn field_raw(mut self, k: &str, raw: &str) -> Obj {
        self.key(k).push_str(raw);
        self
    }

    /// Close the object and return the document.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Incremental writer for a JSON array: `[v, ...]`.
#[derive(Debug)]
pub struct Arr {
    buf: String,
    first: bool,
}

impl Default for Arr {
    fn default() -> Arr {
        Arr::new()
    }
}

impl Arr {
    /// Start an empty array.
    pub fn new() -> Arr {
        Arr { buf: String::from("["), first: true }
    }

    fn sep(&mut self) -> &mut String {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        &mut self.buf
    }

    /// Append a string element.
    pub fn push_str(mut self, v: &str) -> Arr {
        let buf = self.sep();
        push_str_escaped(buf, v);
        self
    }

    /// Append an unsigned integer element.
    pub fn push_u64(mut self, v: u64) -> Arr {
        let _ = write!(self.sep(), "{v}");
        self
    }

    /// Append a finite float element.
    pub fn push_f64(mut self, v: f64) -> Arr {
        debug_assert!(v.is_finite(), "JSON has no NaN/Inf");
        let _ = write!(self.sep(), "{v}");
        self
    }

    /// Splice a pre-serialized JSON fragment in as one element.
    pub fn push_raw(mut self, raw: &str) -> Arr {
        self.sep().push_str(raw);
        self
    }

    /// Close the array and return the document.
    pub fn finish(mut self) -> String {
        self.buf.push(']');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, {"b": "x\ny"}, true, null], "n": 18446744073709551615}"#)
            .unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(arr[2], Value::Bool(true));
        assert_eq!(arr[3], Value::Null);
        assert_eq!(v.get("n").unwrap().as_u64(), Some(u64::MAX), "u64::MAX survives");
    }

    #[test]
    fn escaped_string_round_trips() {
        let original = "weird \"stuff\"\t\\ here \u{263a}";
        let doc = format!("{{\"s\": {}}}", escape(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(original));
    }

    #[test]
    fn obj_and_arr_builders_round_trip_through_the_parser() {
        let inner = Arr::new().push_u64(u64::MAX).push_str("x\ny").push_f64(1.5).finish();
        let doc = Obj::new()
            .field_str("name", "mg \"S\"")
            .field_u64("cycles", u64::MAX)
            .field_bool("ok", true)
            .field_raw("items", &inner)
            .field_raw("null", "null")
            .finish();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("mg \"S\""));
        assert_eq!(v.get("cycles").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let items = v.get("items").unwrap().as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1].as_str(), Some("x\ny"));
        assert_eq!(items[2].as_f64(), Some(1.5));
        assert_eq!(v.get("null"), Some(&Value::Null));
    }

    #[test]
    fn empty_builders_produce_empty_containers() {
        assert_eq!(Obj::new().finish(), "{}");
        assert_eq!(Arr::new().finish(), "[]");
        assert_eq!(parse(&Obj::new().finish()).unwrap(), Value::Object(vec![]));
    }

    #[test]
    fn raw_splice_is_byte_exact() {
        let cached = r#"{"job_cycles":37719054,"dumps":["00ff"]}"#;
        let doc = Obj::new().field_bool("ok", true).field_raw("result", cached).finish();
        let idx = doc.find("\"result\":").unwrap() + "\"result\":".len();
        assert_eq!(&doc[idx..doc.len() - 1], cached, "splice must not reformat");
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"abc").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn nesting_is_capped_with_an_offset_instead_of_overflowing_the_stack() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"k\":", "}", MAX_DEPTH - 1).replace(":}", ":{}}")).is_ok());
        let err = parse(&nest("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        // The abort reproducer: one 200 KB line of `[`.
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels at byte 128"), "{err}");
        let err = parse(&"{\"a\":".repeat(1_000)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }
}
