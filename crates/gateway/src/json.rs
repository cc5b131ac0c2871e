//! A small hand-rolled JSON module.
//!
//! The build is offline (no serde), and the gateway's wire format is
//! deliberately tiny — arrays of numbers in, objects of numbers/strings
//! out — so this module implements exactly RFC 8259 with two deliberate
//! properties the gateway relies on:
//!
//! * **Numbers keep their raw token.** [`Number`] stores the untouched
//!   source text and converts on demand ([`Number::as_f32`] calls
//!   `f32::from_str` on the original token), so an `f32` serialized with
//!   Rust's shortest-round-trip `Display` parses back to the *identical
//!   bit pattern* — never routed through `f64` where double rounding could
//!   perturb the last ulp. The gateway's "HTTP predict == in-process
//!   predict bit-for-bit" guarantee rests on this.
//! * **Bounded recursion.** Parsing depth is capped ([`MAX_DEPTH`]) so a
//!   hostile `[[[[...` body fails with a parse error instead of blowing
//!   the worker's stack.
//!
//! Object keys keep insertion order (a `Vec` of pairs, not a map): output
//! is deterministic and duplicate keys are a parse error.

use std::fmt::{self, Write as _};
use std::ops::Range;
use std::str::FromStr;

use bcpnn_serve::RowBlock;

/// Maximum nesting depth the parser accepts.
pub const MAX_DEPTH: usize = 64;

/// A JSON number, stored as its raw source token.
///
/// Conversions parse the original text directly into the requested type,
/// so `f32 → JSON → f32` is bit-exact and integers up to `u64::MAX` are
/// not squeezed through `f64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number(String);

impl Number {
    /// Wrap a finite `f32` (shortest round-trip decimal form).
    pub fn from_f32(value: f32) -> Option<Number> {
        value.is_finite().then(|| Number(format!("{value}")))
    }

    /// Wrap a finite `f64` (shortest round-trip decimal form).
    pub fn from_f64(value: f64) -> Option<Number> {
        value.is_finite().then(|| Number(format!("{value}")))
    }

    /// Wrap an unsigned integer.
    pub fn from_u64(value: u64) -> Number {
        Number(value.to_string())
    }

    /// The number as `f32`, parsed from the raw token (exact round trip
    /// for tokens produced by `f32`'s `Display`).
    pub fn as_f32(&self) -> Option<f32> {
        f32::from_str(&self.0).ok().filter(|v| v.is_finite())
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        f64::from_str(&self.0).ok().filter(|v| v.is_finite())
    }

    /// The number as `u64`, if it is a non-negative integer token.
    pub fn as_u64(&self) -> Option<u64> {
        u64::from_str(&self.0).ok()
    }

    /// The raw source token.
    pub fn raw(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (raw token preserved; see [`Number`]).
    Num(Number),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, duplicate keys rejected at parse time.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build a number from a `u64`.
    pub fn u64(v: u64) -> Json {
        Json::Num(Number::from_u64(v))
    }

    /// Build a number from an `f32` (`null` for non-finite values, which
    /// JSON cannot represent).
    pub fn f32(v: f32) -> Json {
        Number::from_f32(v).map_or(Json::Null, Json::Num)
    }

    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render the value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n.raw()),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `v` as [`Json::f32`] renders it: the shortest decimal that parses
/// back to the same bits, `null` for a non-finite value.
pub(crate) fn write_f32(out: &mut String, v: f32) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Append `s` as a quoted, escaped JSON string.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
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

/// A JSON parse error: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset into the input where the problem was detected.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

/// Parse a request body that must be a JSON array of equal-length arrays
/// of finite numbers — the predict endpoint's rows — straight into one
/// flat row-major block: a single pass over the bytes, no tree and no
/// allocation per number. Each number is `f32::from_str` of its own token,
/// as in [`Number::as_f32`], so the round trip stays bit-exact.
///
/// A body that is anything but that is handed to the tree: the result,
/// error message and offset included, is always what
/// `f32_block(&parse(input)?)` gives.
pub fn parse_f32_block(input: &str) -> Result<RowBlock, ParseError> {
    match flat_f32_block(input) {
        Some(block) => Ok(block),
        None => f32_block(&parse(input)?),
    }
}

/// [`parse_f32_block`], one `Vec` per row.
pub fn parse_f32_rows(input: &str) -> Result<Vec<Vec<f32>>, ParseError> {
    parse_f32_block(input).map(|block| block.to_rows())
}

/// The single pass of [`parse_f32_block`]: `None` as soon as the body is
/// not a non-empty array of equal-length, non-empty arrays of finite
/// numbers.
fn flat_f32_block(input: &str) -> Option<RowBlock> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    // `,` continues the array, `]` closes it, anything else is not ours.
    let more = |p: &mut Parser| {
        p.skip_ws();
        let b = p.peek()?;
        p.pos += 1;
        match b {
            b',' => Some(true),
            b']' => Some(false),
            _ => None,
        }
    };
    let mut data = Vec::new();
    let mut n_cols = 0;
    p.skip_ws();
    p.expect(b'[').ok()?;
    loop {
        p.skip_ws();
        p.expect(b'[').ok()?;
        let row_start = data.len();
        loop {
            p.skip_ws();
            // (A number token is ASCII: the range lies on `char` boundaries.)
            let token = &input[p.number_token().ok()?];
            data.push(f32::from_str(token).ok().filter(|v| v.is_finite())?);
            if !more(&mut p)? {
                break;
            }
        }
        let width = data.len() - row_start;
        if row_start == 0 {
            n_cols = width;
        } else if width != n_cols {
            return None;
        }
        if !more(&mut p)? {
            break;
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return None;
    }
    let n_cols = u32::try_from(n_cols).ok()?;
    Some(RowBlock { n_cols, data })
}

/// Feature rows out of a parsed value that must be an array of
/// equal-length arrays of finite numbers, as one flat block. Numbers are
/// parsed directly to `f32` (no `f64` detour); an empty array and ragged
/// or empty rows are rejected.
pub fn f32_block(doc: &Json) -> Result<RowBlock, ParseError> {
    let outer = doc.as_array().ok_or_else(|| ParseError {
        message: "expected a JSON array of feature rows".into(),
        offset: 0,
    })?;
    if outer.is_empty() {
        return Err(ParseError {
            message: "the rows array is empty".into(),
            offset: 0,
        });
    }
    let mut data = Vec::new();
    let mut width = None;
    for (r, row) in outer.iter().enumerate() {
        let items = row.as_array().ok_or_else(|| ParseError {
            message: format!("row {r} is not an array"),
            offset: 0,
        })?;
        match width {
            None => width = Some(items.len()),
            Some(w) if w != items.len() => {
                return Err(ParseError {
                    message: format!("row {r} has {} features but row 0 has {w}", items.len()),
                    offset: 0,
                })
            }
            Some(_) => {}
        }
        if items.is_empty() {
            return Err(ParseError {
                message: format!("row {r} is empty"),
                offset: 0,
            });
        }
        for (c, item) in items.iter().enumerate() {
            let value = match item {
                Json::Num(n) => n.as_f32(),
                _ => None,
            };
            data.push(value.ok_or_else(|| ParseError {
                message: format!("row {r} column {c} is not a finite number"),
                offset: 0,
            })?);
        }
    }
    let n_cols = width.map_or(0, |w| w as u32);
    Ok(RowBlock { n_cols, data })
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than the supported maximum"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character {:?}", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {text:?}")))
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate object key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes (no escape, no quote, no
            // control characters).
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is valid UTF-8 (it came from a &str) and this
                // run contains no escape bytes, so it maps through as-is.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let unit = self.hex4()?;
                let ch = if (0xD800..0xDC00).contains(&unit) {
                    // High surrogate: must be followed by \uDC00..\uDFFF.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("unpaired surrogate escape"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("unpaired surrogate escape"));
                    }
                    self.pos += 1;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else if (0xDC00..0xE000).contains(&unit) {
                    return Err(self.err("unpaired low surrogate"));
                } else {
                    char::from_u32(unit).ok_or_else(|| self.err("invalid \\u escape"))?
                };
                out.push(ch);
            }
            other => return Err(self.err(format!("unknown escape \\{}", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let token = &self.bytes[self.number_token()?];
        Ok(Json::Num(Number(
            std::str::from_utf8(token).unwrap().to_string(),
        )))
    }

    /// Scan one number by the RFC 8259 grammar and return where its token
    /// lies in the input.
    fn number_token(&mut self) -> Result<Range<usize>, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: 0, or a non-zero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit after the decimal point"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit in the exponent"));
            }
            self.digits();
        }
        Ok(start..self.pos)
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        let doc = parse(r#"{"a": [1, 2.5, -3e2], "b": "x"}"#).unwrap();
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x"));
        let arr = doc.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_u64(), Some(1));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "nul",
            "\"abc",
            "[1] x",
            "{\"a\":1,\"a\":2}",
            "\"\\q\"",
            "+1",
            "--1",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(8) + &"]".repeat(8);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""\u00e9""#).unwrap(), Json::Str("é".into()));
        // Surrogate pair: U+1F600.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::Str("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired high surrogate");
        assert!(parse(r#""\ude00""#).is_err(), "unpaired low surrogate");
    }

    #[test]
    fn f32_round_trips_bit_exactly() {
        // Values chosen to stress the shortest-representation printer; a
        // detour through f64 would not necessarily preserve these bits.
        let values = [
            0.1f32,
            std::f32::consts::PI,
            f32::MIN_POSITIVE,
            1.000_000_1,
            16_777_217.0, // 2^24 + 1: not representable, rounds
            -0.000_123_456_7,
            f32::MAX,
        ];
        for &v in &values {
            let json = Json::f32(v).render();
            let back = match parse(&json).unwrap() {
                Json::Num(n) => n.as_f32().unwrap(),
                other => panic!("expected number, got {other:?}"),
            };
            assert_eq!(v.to_bits(), back.to_bits(), "value {v} via {json}");
        }
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Json::f32(f32::NAN).render(), "null");
        assert_eq!(Json::f32(f32::INFINITY).render(), "null");
    }

    #[test]
    fn render_escapes_and_orders_deterministically() {
        let doc = Json::Obj(vec![
            ("q\"uote".into(), Json::str("line\nbreak")),
            ("n".into(), Json::u64(7)),
        ]);
        assert_eq!(doc.render(), "{\"q\\\"uote\":\"line\\nbreak\",\"n\":7}");
        assert_eq!(parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn rows_parser_enforces_rectangular_finite_input() {
        assert_eq!(
            parse_f32_rows("[[1, 2.5], [3, 4]]").unwrap(),
            vec![vec![1.0, 2.5], vec![3.0, 4.0]]
        );
        for bad in [
            "[]",               // no rows
            "[[]]",             // empty row
            "[[1,2],[3]]",      // ragged
            "[[1,\"x\"]]",      // non-number
            "[1,2]",            // not nested
            "{\"rows\":[[1]]}", // object, not array
            "[[1e999]]",        // overflows to infinity
        ] {
            assert!(parse_f32_rows(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    /// What [`parse_f32_block`] must always equal: the tree, then the rows
    /// out of it.
    fn rows_through_the_tree(input: &str) -> Result<Vec<Vec<f32>>, ParseError> {
        f32_block(&parse(input)?).map(|block| block.to_rows())
    }

    fn assert_flat_equals_tree(input: &str) {
        match (parse_f32_block(input), rows_through_the_tree(input)) {
            (Ok(block), Ok(rows)) => {
                assert_eq!(block.n_rows(), rows.len(), "{input:?}");
                for (r, row) in rows.iter().enumerate() {
                    let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(block.row(r)), bits(row), "row {r} of {input:?}");
                }
            }
            // Same message, same offset.
            (Err(flat), Err(tree)) => assert_eq!(flat, tree, "{input:?}"),
            (flat, tree) => panic!("{input:?}: flat {flat:?}, tree {tree:?}"),
        }
    }

    #[test]
    fn flat_rows_parser_takes_the_whole_number_grammar() {
        let body = " [ [ -0 , 0 , 1E+2 , 25e-1 , -0.0e-0 ] ,\r\n\t[ 1 , 2.5 , 3e0 , 4 , 5 ] ] ";
        assert_flat_equals_tree(body);
        let block = parse_f32_block(body).unwrap();
        assert_eq!((block.n_rows(), block.n_cols), (2, 5));
        assert_eq!(block.row(0)[0].to_bits(), (-0.0f32).to_bits());
        assert_eq!(&block.row(0)[1..], [0.0, 100.0, 2.5, -0.0]);
        assert_eq!(parse_f32_rows(body).unwrap(), block.to_rows());
    }

    /// JSON whitespace, and none.
    const GAPS: [&str; 6] = ["", "", " ", "\n", "\t ", "\r\n"];

    /// One cell's token: mostly `Display` of the bit pattern (the form a
    /// client sends), some exponent forms. An infinity or NaN pattern has
    /// no JSON form and is pulled into range.
    fn number_token(bits: u32, style: u8) -> String {
        let value = Some(f32::from_bits(bits))
            .filter(|v| v.is_finite())
            .unwrap_or(f32::from_bits(bits & !(1 << 30)));
        match style {
            0 => format!("{value:e}"),
            1 => format!("{value:E}"),
            2 => "-0".to_string(),
            3 => format!("{}e+{}", bits % 97, bits % 30),
            _ => format!("{value}"),
        }
    }

    /// Bytes worth swapping in: they can open, close, split or spoil a token.
    const SPOILERS: &[u8] = b"[],-+.eE019 \t\"n{}:x";

    /// A valid predict body of `rows x cols` generated cells with generated
    /// whitespace, then damaged as `damage` says.
    fn body(
        (rows, cols): (usize, usize),
        cells: &[(u32, u8)],
        gaps: &[usize],
        damage: (u8, usize, &[(usize, usize)]),
    ) -> String {
        let mut table: Vec<Vec<String>> = cells
            .chunks(cols)
            .map(|row| {
                row.iter()
                    .map(|&(v, style)| number_token(v, style))
                    .collect()
            })
            .collect();
        assert_eq!(table.len(), rows);
        let (kind, at, edits) = damage;
        let (r, c) = (at % rows, at % cols);
        match kind {
            0 => table[r].push("1".to_string()),
            1 => table[r].clear(),
            2 => table[r][c] = "null".to_string(),
            3 => table[r][c] = "\"7\"".to_string(),
            4 => table[r][c] = "[1]".to_string(),
            5 => table[r][c] = "1e999".to_string(),
            _ => {}
        }
        let mut gap = gaps.iter().cycle().map(|&g| GAPS[g]);
        let mut text = String::new();
        let mut put = |token: &str| {
            text.push_str(gap.next().unwrap());
            text.push_str(token);
        };
        put("[");
        for (r, row) in table.iter().enumerate() {
            put(if r > 0 { "," } else { "" });
            put("[");
            for (c, cell) in row.iter().enumerate() {
                put(if c > 0 { "," } else { "" });
                put(cell);
            }
            put("]");
        }
        put("]");
        put("");
        // The text is ASCII, and stays ASCII.
        let mut bytes = text.into_bytes();
        match kind {
            6 => bytes.truncate(at % (bytes.len() + 1)),
            7 => {
                for &(at, with) in edits {
                    let at = at % bytes.len();
                    bytes[at] = SPOILERS[with % SPOILERS.len()];
                }
            }
            _ => {}
        }
        String::from_utf8(bytes).unwrap()
    }

    /// `(shape, cells, whitespace choices)` of 1–80 rows by 1–40 columns.
    #[allow(clippy::type_complexity)]
    fn table_strategy() -> impl Strategy<Value = ((usize, usize), Vec<(u32, u8)>, Vec<usize>)> {
        (1usize..=80, 1usize..=40).prop_flat_map(|(rows, cols)| {
            (
                Just((rows, cols)),
                prop::collection::vec((0..=u32::MAX, 0u8..24), rows * cols),
                prop::collection::vec(0..GAPS.len(), 1..64),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Equivalence of the flat parser and the tree on generated bodies.
        #[test]
        fn flat_rows_parser_equals_the_tree_on_generated_bodies(
            (shape, cells, gaps) in table_strategy(),
        ) {
            let body = body(shape, &cells, &gaps, (u8::MAX, 0, &[]));
            let block = parse_f32_block(&body).expect("the generated body is valid");
            prop_assert_eq!((block.n_rows(), block.n_cols as usize), shape);
            assert_flat_equals_tree(&body);
        }

        /// ...and on the same bodies with a ragged or empty row, a cell that
        /// is `null`, a string, an array or out of range, a truncation, or
        /// 1–3 bytes overwritten.
        #[test]
        fn flat_rows_parser_equals_the_tree_on_damaged_bodies(
            (shape, cells, gaps) in table_strategy(),
            kind in 0u8..8,
            at in 0usize..1_000_000,
            edits in prop::collection::vec((0usize..1_000_000, 0usize..64), 1..=3),
        ) {
            assert_flat_equals_tree(&body(shape, &cells, &gaps, (kind, at, &edits)));
        }
    }

    #[test]
    fn number_accessors_distinguish_kinds() {
        let n = Number("18446744073709551615".into()); // u64::MAX
        assert_eq!(n.as_u64(), Some(u64::MAX));
        let f = Number("2.5".into());
        assert_eq!(f.as_u64(), None);
        assert_eq!(f.as_f64(), Some(2.5));
    }
}
