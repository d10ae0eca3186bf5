//! Minimal JSON emission and parsing for experiment results.
//!
//! The bench harness writes every figure/table record to `results/*.json`,
//! and the execution-control layer round-trips simulator checkpoints
//! through the same value model. The workspace builds fully offline, so
//! instead of `serde`/`serde_json` this crate provides a tiny JSON value
//! model, a [`ToJson`] conversion trait and its decode half [`FromJson`],
//! an [`impl_json!`] macro that derives both for a struct from one list of
//! its fields ([`impl_to_json!`] derives the first alone, for records
//! that are only written), and a recursive-descent [`Json::parse`].
//! Output is deterministic: object keys keep declaration order and the
//! pretty printer is stable; `parse(pretty()) == value` for every value
//! this crate can emit (non-finite floats emit as `null`).
//! Word arrays too large for one token per word (checkpoint memory
//! images and register files) travel as packed strings ([`pack_words`],
//! [`req_words`]).
#![forbid(unsafe_code)]

mod decode;
mod words;

pub use decode::{
    decode_elem, decode_field, elems, field, not_a, Codec, Count, FromJson, NonZero, Sorted, Words,
};
pub use words::{pack_words, req_words};

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Signed integer, emitted exactly.
    Int(i64),
    /// Unsigned integer, emitted exactly.
    UInt(u64),
    /// Floating point; non-finite values emit as `null`.
    Float(f64),
    /// String (escaped on output).
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object(fields: Vec<(String, Json)>) -> Json {
        Json::Object(fields)
    }

    /// Serializes with two-space indentation and a trailing newline-free
    /// body, matching typical pretty-printer output.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Serializes without any whitespace.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Parses a JSON document.
    ///
    /// Non-negative integers parse as [`Json::UInt`] (so `u64::MAX`
    /// round-trips), negative ones as [`Json::Int`], and anything with a
    /// fraction or exponent as [`Json::Float`]. Duplicate object keys are
    /// kept in document order.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax error,
    /// including trailing garbage after the document and arrays or
    /// objects nested more than 128 deep.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up a field of an object (first match wins). `None` for
    /// non-objects and missing keys.
    #[inline]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative integer.
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a counter (a running total or sequence number that
    /// only grows): a non-negative integer of at most 2^53, the largest
    /// integer every JSON reader holds exactly. A counter decoded at most
    /// this large cannot overflow a `u64` before the run adding to it
    /// ends: that would take 2^64 - 2^53 more events.
    #[inline]
    pub fn as_count(&self) -> Option<u64> {
        self.as_u64().filter(|&n| n <= MAX_COUNT)
    }

    /// The value as an `i64` if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a `bool` if it is one.
    #[inline]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice if it is one.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice if it is one.
    #[inline]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            _ => self.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                if *v < 0 {
                    out.push('-');
                }
                push_u64(out, v.unsigned_abs());
            }
            Json::UInt(v) => push_u64(out, *v),
            Json::Float(v) => {
                if v.is_finite() {
                    write!(out, "{v}").expect("writing to a String cannot fail");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// The largest counter [`Json::as_count`] accepts.
const MAX_COUNT: u64 = 1 << 53;

/// How deeply [`Json::parse`] lets arrays and objects nest. The parser
/// recurses once per level, so an unbounded document could overflow the
/// stack; nothing this workspace writes comes near the bound.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(open @ (b'[' | b'{')) => {
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of bytes that need no decoding in one piece. It
            // ends at an ASCII byte, so it is whole UTF-8 scalars.
            let start = self.pos;
            self.pos += plain_len(&self.bytes[start..]);
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                } else {
                                    return Err(format!("lone surrogate at byte {}", self.pos));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!(
                                        "invalid surrogate pair at byte {}",
                                        self.pos
                                    ));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| format!("invalid codepoint {c:#x}"))?,
                            );
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                Some(_) => {
                    return Err(format!("control character in string at byte {}", self.pos));
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(s, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        // The common case, a non-negative integer that fits a u64, is
        // accumulated while it is scanned; anything else is rescanned.
        let mut v = Some(0u64);
        while let Some(d) = self.peek().filter(u8::is_ascii_digit) {
            v = v.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        match v {
            Some(v) if self.pos > start && !matches!(self.peek(), Some(b'.' | b'e' | b'E')) => {
                return Ok(Json::UInt(v));
            }
            _ => self.pos = start,
        }
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if !float {
            // Try u64 first so u64::MAX round-trips, then i64 for
            // negatives; overflow of both falls through to f64.
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

/// Fetches `key` from an object or fails with a message naming it.
///
/// # Errors
///
/// Returns an error if `v` is not an object or lacks `key`.
#[inline]
pub fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

/// Fetches `key` as a `u64`.
///
/// # Errors
///
/// Returns an error if the field is missing or not a non-negative integer.
pub fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    field(v, key)
}

/// Fetches `key` as an `f64`.
///
/// # Errors
///
/// Returns an error if the field is missing or not a number.
pub fn req_f64(v: &Json, key: &str) -> Result<f64, String> {
    req(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))
}

/// Fetches `key` as a string slice.
///
/// # Errors
///
/// Returns an error if the field is missing or not a string.
pub fn req_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    req(v, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

/// Fetches `key` as an array slice.
///
/// # Errors
///
/// Returns an error if the field is missing or not an array.
pub fn req_array<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    req(v, key)?
        .as_array()
        .ok_or_else(|| format!("field `{key}` is not an array"))
}

/// Appends the decimal digits of `v`, formatted on the stack.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// Whether byte `b` of a string needs an escape: a quote, a backslash or
/// a control character.
fn escaped(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// The length of the prefix of `bytes` that needs no escape. Whole blocks
/// are tested without an early exit, which vectorises, so a long plain
/// string (a packed word array) costs a fraction of a byte-by-byte scan.
fn plain_len(bytes: &[u8]) -> usize {
    const BLOCK: usize = 32;
    let mut at = 0;
    for block in bytes.chunks(BLOCK) {
        if block.iter().fold(false, |any, &b| any | escaped(b)) {
            return at + block.iter().position(|&b| escaped(b)).expect("found above");
        }
        at += block.len();
    }
    at
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    if plain_len(s.as_bytes()) == s.len() {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`Json`] value. Implemented for primitives,
/// strings, slices/vectors, options and references; derive it for record
/// structs with [`impl_to_json!`].
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;
}

macro_rules! impl_uint {
    ($($t:ty),+) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(u64::from(*self))
            }
        })+
    };
}

macro_rules! impl_int {
    ($($t:ty),+) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(i64::from(*self))
            }
        })+
    };
}

impl_uint!(u8, u16, u32, u64);
impl_int!(i8, i16, i32, i64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::UInt(*self as u64)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(f64::from(*self))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for VecDeque<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

/// `[key, value]` pairs in ascending key order, so equal maps write equal
/// text.
impl<K: ToJson + Ord, V: ToJson> ToJson for HashMap<K, V> {
    fn to_json(&self) -> Json {
        let mut pairs: Vec<(&K, &V)> = self.iter().collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        pairs.to_json()
    }
}

/// Implements [`ToJson`] for a struct by listing its fields, with the
/// field-list syntax of [`impl_json!`] (which derives [`FromJson`] too):
///
/// ```
/// use vt_json::{impl_to_json, ToJson};
///
/// struct Row {
///     name: String,
///     cycles: u64,
/// }
/// impl_to_json!(Row { name, cycles });
///
/// let r = Row { name: "sgemm".into(), cycles: 10 };
/// assert_eq!(r.to_json().compact(), r#"{"name":"sgemm","cycles":10}"#);
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ident $(<$g:ident>)? { $($field:ident $(as $key:literal)? $(: $codec:ident)?),+ $(,)? }) => {
        impl$(<$g: $crate::ToJson>)? $crate::ToJson for $ty$(<$g>)? {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Object(vec![
                    $(($crate::__json_key!($field $($key)?).to_string(),
                       $crate::__json_encode!(&self.$field $(, $codec)?)),)+
                ])
            }
        }
    };
    ($ty:ident [ $($field:ident $(: $codec:ident)?),+ $(,)? ]) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Array(vec![$($crate::__json_encode!(&self.$field $(, $codec)?)),+])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.compact(), "null");
        assert_eq!(Json::Bool(true).compact(), "true");
        assert_eq!(Json::Int(-3).compact(), "-3");
        assert_eq!(Json::UInt(u64::MAX).compact(), u64::MAX.to_string());
        assert_eq!(Json::Float(1.5).compact(), "1.5");
        assert_eq!(Json::Float(f64::NAN).compact(), "null");
    }

    #[test]
    fn strings_escape() {
        let s = Json::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(s.compact(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn arrays_and_objects_nest() {
        let v = Json::Object(vec![
            ("xs".into(), Json::Array(vec![Json::Int(1), Json::Int(2)])),
            ("e".into(), Json::Array(vec![])),
        ]);
        assert_eq!(v.compact(), r#"{"xs":[1,2],"e":[]}"#);
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = Json::Array(vec![Json::Object(vec![("k".into(), Json::UInt(7))])]);
        assert_eq!(v.pretty(), "[\n  {\n    \"k\": 7\n  }\n]");
    }

    #[test]
    fn to_json_primitives() {
        assert_eq!(42u32.to_json().compact(), "42");
        assert_eq!((-1i32).to_json().compact(), "-1");
        assert_eq!("hi".to_json().compact(), "\"hi\"");
        assert_eq!(Some(3u8).to_json().compact(), "3");
        assert_eq!(None::<u8>.to_json().compact(), "null");
        assert_eq!(vec![1u32, 2].to_json().compact(), "[1,2]");
        assert_eq!(("a".to_string(), 0.5f64).to_json().compact(), "[\"a\",0.5]");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(
            Json::parse(&u64::MAX.to_string()).unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(
            Json::parse(&i64::MIN.to_string()).unwrap(),
            Json::Int(i64::MIN)
        );
        assert_eq!(Json::parse("007").unwrap(), Json::UInt(7));
        assert_eq!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Float(18446744073709551616.0)
        );
        assert!(Json::parse("-").is_err());
    }

    #[test]
    fn integers_render_exactly() {
        for v in [0, 9, 10, 1234567890, i64::MAX, -1, -10, i64::MIN] {
            assert_eq!(Json::Int(v).compact(), v.to_string());
        }
        for v in [0, 1, 99, 100, u64::MAX] {
            assert_eq!(Json::UInt(v).pretty(), v.to_string());
        }
    }

    #[test]
    fn parse_strings_with_escapes() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\nd\u0001é""#).unwrap(),
            Json::Str("a\"b\\c\nd\u{1}é".to_string())
        );
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".to_string()));
        assert!(Json::parse(r#""\ud83d x""#).is_err(), "lone surrogate");
        assert!(Json::parse("\"a\u{1}b\"").is_err(), "raw control character");
        assert_eq!(
            Json::parse(r#"["plain", "x\ty", ""]"#).unwrap(),
            Json::Array(vec![
                Json::Str("plain".into()),
                Json::Str("x\ty".into()),
                Json::Str(String::new())
            ])
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than 128 at byte {MAX_DEPTH}"));
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn roundtrip_pretty_and_compact() {
        let v = Json::Object(vec![
            ("max".into(), Json::UInt(u64::MAX)),
            ("neg".into(), Json::Int(-7)),
            ("f".into(), Json::Float(0.125)),
            (
                "xs".into(),
                Json::Array(vec![Json::Null, Json::Bool(false), Json::Str("s\n".into())]),
            ),
            ("empty".into(), Json::Object(vec![])),
        ]);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
        assert_eq!(Json::parse(&v.compact()).unwrap(), v);
    }

    #[test]
    fn accessors_and_req_helpers() {
        let v = Json::parse(r#"{"n":3,"s":"x","b":true,"xs":[1],"f":0.5}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(req_u64(&v, "n").unwrap(), 3);
        assert_eq!(req_str(&v, "s").unwrap(), "x");
        assert_eq!(req_array(&v, "xs").unwrap().len(), 1);
        assert_eq!(req_f64(&v, "f").unwrap(), 0.5);
        assert_eq!(Json::UInt(9).as_i64(), Some(9));
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert!(req_u64(&v, "missing").unwrap_err().contains("missing"));
        assert!(req_str(&v, "n").unwrap_err().contains("not a string"));
        assert_eq!(Json::UInt(MAX_COUNT).as_count(), Some(MAX_COUNT));
        assert_eq!(Json::UInt(MAX_COUNT + 1).as_count(), None);
    }

    #[test]
    fn derive_macro_preserves_field_order() {
        struct R {
            b: u32,
            a: String,
        }
        impl_to_json!(R { b, a });
        let r = R {
            b: 9,
            a: "x".into(),
        };
        assert_eq!(r.to_json().compact(), r#"{"b":9,"a":"x"}"#);
    }
}
