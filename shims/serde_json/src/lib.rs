//! Offline API-compatible subset of the `serde_json` crate.
//!
//! Implements the [`Value`] tree, the [`json!`] macro, a conforming JSON
//! parser ([`from_str`]) and serializers ([`to_string`],
//! [`to_string_pretty`]) — the surface this workspace exercises. No serde
//! derive machinery: the workspace serializes via `Value` only.

#![forbid(unsafe_code)]
// The json! macro builds arrays/objects by recursive push; the expansion
// trips vec_init_then_push at every invocation site inside this crate.
#![allow(clippy::vec_init_then_push)]

use std::fmt;

/// A JSON number: integers are kept exact, everything else is `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Unsigned integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating point.
    F64(f64),
}

/// An object: insertion-ordered key/value pairs (serde_json's
/// `preserve_order` behaviour, which round-trips most readably).
pub type Map = Vec<(String, Value)>;

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

const NULL: Value = Value::Null;

impl Value {
    /// Member lookup on objects; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::U64(n)) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::U64(n)) => i64::try_from(*n).ok(),
            Value::Number(Number::I64(n)) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64`, for any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::U64(n)) => Some(*n as f64),
            Value::Number(Number::I64(n)) => Some(*n as f64),
            Value::Number(Number::F64(n)) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element vector, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::IndexMut<&str> for Value {
    fn index_mut(&mut self, key: &str) -> &mut Value {
        match self {
            Value::Object(m) => {
                if let Some(i) = m.iter().position(|(k, _)| k == key) {
                    return &mut m[i].1;
                }
                m.push((key.to_string(), Value::Null));
                &mut m.last_mut().expect("just pushed").1
            }
            other => panic!("cannot index non-object value {other:?} with a string key"),
        }
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::IndexMut<usize> for Value {
    fn index_mut(&mut self, i: usize) -> &mut Value {
        match self {
            Value::Array(a) => &mut a[i],
            other => panic!("cannot index non-array value {other:?} with a number"),
        }
    }
}

/// Conversion into a [`Value`], covering the types the workspace feeds to
/// [`json!`] (including references produced by iterator `collect`s).
pub trait ToJson {
    /// Convert.
    fn to_json(self) -> Value;
}

impl ToJson for Value {
    fn to_json(self) -> Value {
        self
    }
}
impl ToJson for &Value {
    fn to_json(self) -> Value {
        self.clone()
    }
}
impl ToJson for bool {
    fn to_json(self) -> Value {
        Value::Bool(self)
    }
}
impl ToJson for &bool {
    fn to_json(self) -> Value {
        Value::Bool(*self)
    }
}
impl ToJson for String {
    fn to_json(self) -> Value {
        Value::String(self)
    }
}
impl ToJson for &String {
    fn to_json(self) -> Value {
        Value::String(self.clone())
    }
}
impl ToJson for &str {
    fn to_json(self) -> Value {
        Value::String(self.to_string())
    }
}
impl ToJson for &&str {
    fn to_json(self) -> Value {
        Value::String(self.to_string())
    }
}
impl ToJson for f64 {
    fn to_json(self) -> Value {
        Value::Number(Number::F64(self))
    }
}

macro_rules! impl_to_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(self) -> Value {
                Value::Number(Number::U64(self as u64))
            }
        }
        impl ToJson for &$t {
            fn to_json(self) -> Value {
                Value::Number(Number::U64(*self as u64))
            }
        }
    )*};
}
impl_to_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_to_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(self) -> Value {
                if self >= 0 {
                    Value::Number(Number::U64(self as u64))
                } else {
                    Value::Number(Number::I64(self as i64))
                }
            }
        }
        impl ToJson for &$t {
            fn to_json(self) -> Value {
                (*self).to_json()
            }
        }
    )*};
}
impl_to_json_int!(i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(self) -> Value {
        Value::Array(self.into_iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

/// Entry point used by the [`json!`] macro.
pub fn to_value<T: ToJson>(v: T) -> Value {
    v.to_json()
}

/// Build a [`Value`] from a JSON-shaped literal: `null`, scalars,
/// arbitrary Rust expressions in value position, and nested `[...]` /
/// `{"key": value}` structures (keys must be string literals).
#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => { $crate::json_internal!($($tt)+) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_internal {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };

    ([]) => { $crate::Value::Array(vec![]) };
    ([ $($tt:tt)+ ]) => {{
        let mut elems: Vec<$crate::Value> = Vec::new();
        $crate::json_internal!(@array elems $($tt)+);
        $crate::Value::Array(elems)
    }};

    ({}) => { $crate::Value::Object(vec![]) };
    ({ $($tt:tt)+ }) => {{
        let mut entries: Vec<(String, $crate::Value)> = Vec::new();
        $crate::json_internal!(@object entries $($tt)+);
        $crate::Value::Object(entries)
    }};

    ($other:expr) => { $crate::to_value($other) };

    // Array elements: structured tokens first, then general expressions.
    (@array $acc:ident) => {};
    (@array $acc:ident , $($rest:tt)*) => {
        $crate::json_internal!(@array $acc $($rest)*);
    };
    (@array $acc:ident null $($rest:tt)*) => {
        $acc.push($crate::json_internal!(null));
        $crate::json_internal!(@array $acc $($rest)*);
    };
    (@array $acc:ident true $($rest:tt)*) => {
        $acc.push($crate::json_internal!(true));
        $crate::json_internal!(@array $acc $($rest)*);
    };
    (@array $acc:ident false $($rest:tt)*) => {
        $acc.push($crate::json_internal!(false));
        $crate::json_internal!(@array $acc $($rest)*);
    };
    (@array $acc:ident [ $($inner:tt)* ] $($rest:tt)*) => {
        $acc.push($crate::json_internal!([ $($inner)* ]));
        $crate::json_internal!(@array $acc $($rest)*);
    };
    (@array $acc:ident { $($inner:tt)* } $($rest:tt)*) => {
        $acc.push($crate::json_internal!({ $($inner)* }));
        $crate::json_internal!(@array $acc $($rest)*);
    };
    (@array $acc:ident $value:expr , $($rest:tt)*) => {
        $acc.push($crate::json_internal!($value));
        $crate::json_internal!(@array $acc $($rest)*);
    };
    (@array $acc:ident $value:expr) => {
        $acc.push($crate::json_internal!($value));
    };

    // Object entries: `"key": value`, same value dispatch as arrays.
    (@object $acc:ident) => {};
    (@object $acc:ident , $($rest:tt)*) => {
        $crate::json_internal!(@object $acc $($rest)*);
    };
    (@object $acc:ident $key:literal : null $($rest:tt)*) => {
        $acc.push(($key.to_string(), $crate::json_internal!(null)));
        $crate::json_internal!(@object $acc $($rest)*);
    };
    (@object $acc:ident $key:literal : true $($rest:tt)*) => {
        $acc.push(($key.to_string(), $crate::json_internal!(true)));
        $crate::json_internal!(@object $acc $($rest)*);
    };
    (@object $acc:ident $key:literal : false $($rest:tt)*) => {
        $acc.push(($key.to_string(), $crate::json_internal!(false)));
        $crate::json_internal!(@object $acc $($rest)*);
    };
    (@object $acc:ident $key:literal : [ $($inner:tt)* ] $($rest:tt)*) => {
        $acc.push(($key.to_string(), $crate::json_internal!([ $($inner)* ])));
        $crate::json_internal!(@object $acc $($rest)*);
    };
    (@object $acc:ident $key:literal : { $($inner:tt)* } $($rest:tt)*) => {
        $acc.push(($key.to_string(), $crate::json_internal!({ $($inner)* })));
        $crate::json_internal!(@object $acc $($rest)*);
    };
    (@object $acc:ident $key:literal : $value:expr , $($rest:tt)*) => {
        $acc.push(($key.to_string(), $crate::json_internal!($value)));
        $crate::json_internal!(@object $acc $($rest)*);
    };
    (@object $acc:ident $key:literal : $value:expr) => {
        $acc.push(($key.to_string(), $crate::json_internal!($value)));
    };
}

/// Parse or serialization failure, with a byte offset for parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    offset: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for Error {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T, Error> {
        Err(Error {
            msg: msg.to_string(),
            offset: self.pos,
        })
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected {:?}", b as char))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => self.err(&format!("unexpected character {:?}", c as char)),
        }
    }

    fn parse_keyword(&mut self, kw: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            self.err(&format!("expected {kw:?}"))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                // Surrogate pairs are not reassembled; the
                                // workspace never emits astral-plane text.
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar from the source text.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).map_err(|_| Error {
                        msg: "invalid UTF-8".into(),
                        offset: self.pos,
                    })?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| Error {
            msg: "invalid UTF-8 in number".into(),
            offset: start,
        })?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U64(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I64(i)));
            }
        }
        match text.parse::<f64>() {
            Ok(f) => Ok(Value::Number(Number::F64(f))),
            Err(_) => self.err("bad number"),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            out.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut out = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value()?;
            out.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(out));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parse a JSON document.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_number(out: &mut String, n: &Number) {
    match n {
        Number::U64(u) => out.push_str(&u.to_string()),
        Number::I64(i) => out.push_str(&i.to_string()),
        Number::F64(f) => {
            if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
                out.push_str(&format!("{f:.1}"));
            } else {
                out.push_str(&f.to_string());
            }
        }
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(out, n),
        Value::String(s) => escape_into(out, s),
        Value::Array(a) => {
            if a.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, e) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, indent.map(|n| n + 1));
                write_value(out, e, indent.map(|n| n + 1));
            }
            pad(out, indent);
            out.push(']');
        }
        Value::Object(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, e)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, indent.map(|n| n + 1));
                escape_into(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, e, indent.map(|n| n + 1));
            }
            pad(out, indent);
            out.push('}');
        }
    }
}

fn pad(out: &mut String, indent: Option<usize>) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..n * 2 {
            out.push(' ');
        }
    }
}

/// Serialize compactly.
pub fn to_string(v: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, v, None);
    Ok(out)
}

/// Serialize with two-space indentation.
pub fn to_string_pretty(v: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, v, Some(0));
    Ok(out)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self, None);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let doc = json!({
            "a": 1,
            "b": [1, 2, 3],
            "c": "hi \"there\"\n",
            "d": null,
            "e": true,
            "f": -5,
            "nested": json!({"x": 0.5}),
        });
        let compact = to_string(&doc).unwrap();
        let parsed = from_str(&compact).unwrap();
        assert_eq!(parsed, doc);
        let pretty = to_string_pretty(&doc).unwrap();
        assert_eq!(from_str(&pretty).unwrap(), doc);
    }

    #[test]
    fn accessors_and_indexing() {
        let mut doc = json!({"k": [ {"x": 7u64} ], "s": "str", "b": false});
        assert_eq!(doc["k"][0]["x"].as_u64(), Some(7));
        assert_eq!(doc["s"].as_str(), Some("str"));
        assert_eq!(doc["b"].as_bool(), Some(false));
        assert!(doc["missing"].is_null());
        doc["k"][0]["x"] = json!(9);
        assert_eq!(doc["k"][0]["x"].as_u64(), Some(9));
        doc["new"] = json!("v");
        assert_eq!(doc["new"].as_str(), Some("v"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("nul").is_err());
        assert!(from_str("{\"a\" 1}").is_err());
        assert!(from_str("1 2").is_err());
    }

    #[test]
    fn option_and_refs() {
        let none: Option<&str> = None;
        let doc = json!({
            "p": none,
            "q": Some("x"),
            "ports": vec![&443u16, &8883u16],
        });
        assert!(doc["p"].is_null());
        assert_eq!(doc["q"].as_str(), Some("x"));
        assert_eq!(doc["ports"][1].as_u64(), Some(8883));
    }
}
