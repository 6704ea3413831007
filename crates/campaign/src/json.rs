//! A minimal JSON reader/writer — just enough for the stable
//! [`CampaignReport`](crate::CampaignReport) artifact format, with no
//! external dependencies (the build environment is network-isolated).
//!
//! Numbers are stored as `f64`; Rust's `Display` for `f64` prints the
//! shortest string that parses back to the same value, so the
//! round-trip `to_json` → `from_json` is exact for every finite value
//! the reports contain (counts are well below 2^53).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
///
/// ```
/// use fmossim_campaign::json::{parse, Value};
///
/// let v = parse(r#"{"jobs": 4, "name": "ram64", "ok": true, "gone": null, "xs": [1, 2]}"#)
///     .expect("well-formed");
/// assert_eq!(v.get("jobs").and_then(Value::as_usize), Some(4));
/// assert_eq!(v.get("jobs").and_then(Value::as_f64), Some(4.0));
/// assert_eq!(v.get("name").and_then(Value::as_str), Some("ram64"));
/// assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
/// assert!(v.get("gone").is_some_and(Value::is_null));
/// assert_eq!(v.get("xs").and_then(Value::as_arr).map(<[Value]>::len), Some(2));
/// assert_eq!(v.get("missing"), None);
/// // `Display` serialises back to compact JSON with sorted keys.
/// assert_eq!(
///     v.to_string(),
///     r#"{"gone":null,"jobs":4,"name":"ram64","ok":true,"xs":[1,2]}"#
/// );
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are sorted (BTreeMap): serialisation is
    /// deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object member by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a usize (must be a non-negative integer).
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool, if this is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// True iff `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                // JSON has no NaN/inf; reports never contain them.
                assert!(n.is_finite(), "non-finite number in report JSON");
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => write_json_string(s, out),
            Value::Arr(v) => {
                out.push('[');
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(m) => {
                out.push('{');
                for (i, (k, item)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    item.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Value {
    /// Serialises to compact JSON text.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Convenience: builds an object from key/value pairs.
///
/// ```
/// use fmossim_campaign::json::{obj, Value};
///
/// let v = obj([("b", Value::Num(1.0)), ("a", Value::Bool(false))]);
/// assert_eq!(v.to_string(), r#"{"a":false,"b":1}"#); // sorted keys
/// ```
#[must_use]
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn write_json_string(s: &str, out: &mut String) {
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

/// Parses JSON text into a [`Value`].
///
/// ```
/// use fmossim_campaign::json::{parse, Value};
///
/// assert_eq!(parse("[1, true]").unwrap().as_arr().unwrap().len(), 2);
/// assert!(parse("{\"open\": ").is_err());
/// ```
///
/// # Errors
///
/// Returns a message with the byte offset on malformed input.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        text,
        bytes,
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            // Overflowing literals (1e999) parse to infinity in Rust;
            // JSON has no non-finite numbers, so reject them here
            // rather than panic later when re-serialising.
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogate pairs are not needed for our
                            // ASCII-only artifact format.
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| format!("bad codepoint at {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` as one
                    // slice. Both delimiters are ASCII, so they always
                    // fall on char boundaries of `text`.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |k| self.pos + k);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
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
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_scalars_and_containers() {
        let text = r#"{"a": [1, -2.5, 1e3], "b": "x\"y\n", "c": true, "d": null}"#;
        let v = parse(text).expect("parses");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Value::Num(1000.0));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"y\n"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert!(v.get("d").unwrap().is_null());
        let again = parse(&v.to_string()).expect("reparses");
        assert_eq!(v, again);
    }

    #[test]
    fn f64_display_roundtrips_exactly() {
        for n in [0.1, 1.0 / 3.0, 6.02e23, 1e-12, 0.0, 123456789.123456] {
            let v = Value::Num(n);
            let back = parse(&v.to_string()).expect("parses");
            assert_eq!(back.as_f64(), Some(n), "value {n}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"abc",
            "1e999",
            "-1e999",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn usize_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Value::Num(3.0).as_usize(), Some(3));
        assert_eq!(Value::Num(3.5).as_usize(), None);
        assert_eq!(Value::Num(-1.0).as_usize(), None);
        assert_eq!(Value::Str("3".into()).as_usize(), None);
    }
}
