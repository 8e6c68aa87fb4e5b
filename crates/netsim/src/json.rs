//! The workspace's one JSON implementation: an ordered value, a compact
//! and a pretty writer, and a parser (DESIGN.md §7).
//!
//! What it promises, and to whom:
//!
//! * **Bytes.** [`Json::pretty`] lays a value out exactly as the
//!   committed `results/*.json` are laid out (two-space indent,
//!   `"key": value`, `[]`/`{}` for empty containers), so
//!   `parse(file).pretty() == file` byte for byte — the golden diff in CI
//!   depends on it.
//! * **The float rule.** A finite `f64` prints as Rust's `{:?}` — the
//!   shortest digits that round-trip, always with a `.` or an exponent —
//!   except that `1e-5 ≤ |v| < 1e-4` prints positionally (`{}`), which is
//!   where `{:?}` and the committed files part ways. Non-finite values
//!   print `null`: a reader sees "no value", never invalid JSON.
//! * **Order.** Objects keep insertion order; [`Json::record`] is the one
//!   constructor that sorts by key, for table rows (the committed raw
//!   rows are key-sorted).
//!
//! Integers are unsigned (`u64`); any other number is an `f64`.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value. Objects are ordered key/value lists.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` — also what a non-finite float is written as.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer token.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

static NULL: Json = Json::Null;

impl Json {
    /// An object with its fields in the order given.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An object with its fields sorted by key — the shape of a table's
    /// raw row.
    pub fn record(mut fields: Vec<(&str, Json)>) -> Json {
        fields.sort_by_key(|&(k, _)| k);
        Json::object(fields)
    }

    /// Field of an object; `None` for a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, integers widened.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(n) => Some(n as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Integer value.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(n) => Some(n),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Multi-line form, newline-free at the end (see the module docs).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// `indent` is the current depth when pretty-printing, `None` for the
    /// compact form.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let newline = |out: &mut String, depth: usize| {
            if indent.is_some() {
                out.push('\n');
                out.extend(std::iter::repeat_n("  ", depth));
            }
        };
        let depth = indent.unwrap_or(0);
        let inner = indent.map(|d| d + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(v) => write_f64(*v, out),
            Json::Str(s) => write_str(s, out),
            Json::Array(items) if items.is_empty() => out.push_str("[]"),
            Json::Object(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, inner);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(key, out);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, inner);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }
}

/// Compact form: no whitespace at all.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

/// `value["key"]`; `null` for a missing key or a non-object.
impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

/// `value[i]`; `null` past the end or for a non-array.
impl std::ops::Index<usize> for Json {
    type Output = Json;
    fn index(&self, i: usize) -> &Json {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

/// Append `v` under the float rule (module docs).
fn write_f64(v: f64, out: &mut String) {
    let _ = if !v.is_finite() {
        out.write_str("null")
    } else if (1e-5..1e-4).contains(&v.abs()) {
        write!(out, "{v}")
    } else {
        write!(out, "{v:?}")
    };
}

/// Append `s` as a quoted JSON string.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Append `s` with quotes, backslashes and control characters escaped
/// (no surrounding quotes) — for writers that lay out their own line.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Conversion into a [`Json`] value; what a table row must implement.
pub trait ToJson {
    /// The value.
    fn to_json(&self) -> Json;
}

/// Declare a struct whose [`ToJson`] is a [`Json::record`] of all its
/// fields, listed once: `json_record! { struct Row { a: u64, b: f64 } }`.
#[macro_export]
macro_rules! json_record {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),+ $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty),+
        }

        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::record(vec![
                    $((stringify!($field), $crate::json::ToJson::to_json(&self.$field))),+
                ])
            }
        }
    };
}

macro_rules! to_json {
    ($($ty:ty: $v:ident => $e:expr;)+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                let $v = self;
                $e
            }
        }
    )+};
}

to_json! {
    bool: v => Json::Bool(*v);
    f64: v => Json::F64(*v);
    u64: v => Json::U64(*v);
    usize: v => Json::U64(*v as u64);
    str: v => Json::Str(v.into());
    String: v => Json::Str(v.clone());
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn to_json(&self) -> Json {
        Json::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

macro_rules! tuple_to_json {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json(&self) -> Json {
                Json::Array(vec![$(self.$idx.to_json()),+])
            }
        }
    };
}

tuple_to_json!(A: 0, B: 1);
tuple_to_json!(A: 0, B: 1, C: 2);
tuple_to_json!(A: 0, B: 1, C: 2, D: 3);

/// Why a text is not JSON, and where.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What was wrong there.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON value; surrounding whitespace is allowed, anything else
/// after the value is an error.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.err("trailing characters after the value"));
    }
    Ok(value)
}

/// Containers nested deeper than this are refused: the parser recurses,
/// and its input comes from files.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            msg,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.text[self.pos..].starts_with(literal);
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Array(items));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or ']'"));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.err("expected a quoted key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected ':' after the key"));
                    }
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Object(fields));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected ',' or '}'"));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        if let Ok(n) = token.parse::<u64>() {
            return Ok(Json::U64(n));
        }
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            _ => {
                self.pos = start;
                Err(self.err("malformed number"))
            }
        }
    }

    /// At an opening quote; returns the unescaped content.
    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let stop = rest
                .find(['"', '\\'])
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..stop]);
            self.pos += stop + 1;
            if rest.as_bytes()[stop] == b'"' {
                return Ok(out);
            }
            let escape = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = self.text.get(self.pos..self.pos + 4);
                    let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                    // Our writer escapes control characters only, so a
                    // surrogate half is not something we can have written.
                    let c = code
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    c
                }
                _ => {
                    self.pos -= 1;
                    return Err(self.err("unknown escape"));
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every committed report, through the parser and back out of the
    /// pretty writer, byte for byte: key order, indentation, the float
    /// rule, `null`, unescaped non-ASCII — all at once.
    #[test]
    fn committed_results_round_trip_byte_for_byte() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut files: Vec<_> = std::fs::read_dir(results)
            .expect("results dir")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        files.sort();
        assert!(
            files.len() >= 14,
            "expected the committed reports: {files:?}"
        );
        for path in files {
            let text = std::fs::read_to_string(&path).expect("read report");
            let value = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(
                value.pretty() == text,
                "{} does not round-trip",
                path.display()
            );
        }
    }

    #[test]
    fn float_rule() {
        let text = |v: f64| Json::F64(v).to_string();
        assert_eq!(text(1.0), "1.0");
        assert_eq!(text(-0.5), "-0.5");
        assert_eq!(text(1.0 / 3.0), "0.3333333333333333");
        assert_eq!(text(3.493e7), "34930000.0");
        assert_eq!(text(1e16), "1e16");
        assert_eq!(text(1.5e-7), "1.5e-7");
        // The one band where `{:?}` would go exponential and the
        // committed files do not.
        assert_eq!(text(1e-5), "0.00001");
        assert_eq!(text(-9.25e-5), "-0.0000925");
        assert_eq!(text(1e-4), "0.0001");
        assert_eq!(text(9.99e-6), "9.99e-6");
    }

    #[test]
    fn non_finite_floats_print_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::F64(v).to_string(), "null");
            assert_eq!(Json::Array(vec![Json::F64(v)]).pretty(), "[\n  null\n]");
        }
    }

    #[test]
    fn compact_and_pretty_layouts() {
        let v = Json::Object(vec![
            ("b".into(), Json::Array(vec![Json::U64(1), Json::Null])),
            ("a".into(), Json::Object(vec![])),
            ("s".into(), Json::Str("q\"\\\n\u{1}∞".into())),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"b":[1,null],"a":{},"s":"q\"\\\n\u0001∞"}"#
        );
        assert_eq!(
            v.pretty(),
            "{\n  \"b\": [\n    1,\n    null\n  ],\n  \"a\": {},\n  \"s\": \"q\\\"\\\\\\n\\u0001∞\"\n}"
        );
        assert_eq!(parse(&v.to_string()), Ok(v.clone()));
        assert_eq!(parse(&v.pretty()), Ok(v));
    }

    #[test]
    fn records_sort_their_keys_and_tuples_are_arrays() {
        json_record! {
            struct Row {
                zeta: u64,
                alpha: Option<f64>,
                name: String,
            }
        }
        let row = Row {
            zeta: 3,
            alpha: None,
            name: "n".into(),
        };
        assert_eq!(
            row.to_json().to_string(),
            r#"{"alpha":null,"name":"n","zeta":3}"#
        );
        assert_eq!((&"k", 0.5, 7usize).to_json().to_string(), r#"["k",0.5,7]"#);
    }

    #[test]
    fn accessors_and_indexing() {
        let v = parse(r#"{"n": 3, "x": 2.5, "s": "t", "ok": true, "a": [10, 20]}"#).unwrap();
        assert_eq!(v["n"].as_u64(), Some(3));
        assert_eq!(v["n"].as_f64(), Some(3.0));
        assert_eq!(v["x"].as_f64(), Some(2.5));
        assert_eq!(v["x"].as_u64(), None);
        assert_eq!(v["s"].as_str(), Some("t"));
        assert_eq!(v["ok"].as_bool(), Some(true));
        assert_eq!(v["a"][1], Json::U64(20));
        assert_eq!(v["a"][2], Json::Null);
        assert_eq!(v["missing"]["deeper"], Json::Null);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parse_errors_carry_an_offset() {
        let at = |text: &str| parse(text).expect_err(text).offset;
        assert_eq!(at(""), 0);
        assert_eq!(at("{\"a\": 1,"), 8);
        assert_eq!(at("{\"a\" 1}"), 5);
        assert_eq!(at("[1 2]"), 3);
        assert_eq!(at("[1, x]"), 4);
        assert_eq!(at("\"abc"), 1);
        assert_eq!(at("\"a\\qb\""), 3);
        assert_eq!(at("1.2.3"), 0);
        assert_eq!(at("{} x"), 3);
        assert_eq!(at(&"[".repeat(MAX_DEPTH + 2)), MAX_DEPTH + 1);
        let e = parse("[1 2]").unwrap_err();
        assert_eq!(e.to_string(), "expected ',' or ']' at byte 3");
    }
}
