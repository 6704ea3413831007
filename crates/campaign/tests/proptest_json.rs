//! Property tests for the report JSON reader/writer: `parse` never
//! panics, whatever the input, and every `Value` tree — strings mixing
//! multi-byte UTF-8 with every character the writer escapes — survives
//! `to_string` + `parse` unchanged.

use fmossim_campaign::json::{parse, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Characters for generated strings: every character the writer
/// escapes (quote, backslash, the named control escapes, other C0
/// controls), the solidus the reader also accepts escaped, plain ASCII,
/// and two-, three- and four-byte UTF-8.
#[rustfmt::skip]
const CHARS: &[char] = &[
    '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', ' ', 'a', 'Z',
    '0', 'u', '{', ':', '\u{7f}', 'é', 'ß', '\u{2028}', '日', '\u{ffff}', '🦀', '\u{10ffff}',
];

/// JSON fragments for hostile parser inputs: structure, literals,
/// escapes (valid and broken), number pieces and multi-byte text.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\u00e9", "\\ud800", "\\u+12", "\\x", "n",
    "null", "tru", "true", "false", "-", "+", ".", "e", "E", "0", "1e999", "9", " ", "\n", "é",
    "日", "🦀", "\u{0}", "\u{1f}",
];

fn string_of(picks: &[usize]) -> String {
    picks.iter().map(|&k| CHARS[k % CHARS.len()]).collect()
}

/// Builds a `Value` tree from a stream of random words, at most
/// `depth` containers deep.
fn value_from(words: &mut impl Iterator<Item = u64>, depth: u32) -> Value {
    let w = words.next().unwrap_or(0);
    let arms = if depth == 0 { 4 } else { 6 };
    match w % arms {
        0 => Value::Null,
        1 => Value::Bool(w & 8 != 0),
        2 => {
            // Finite doubles across the whole exponent range.
            let x = f64::from_bits(words.next().unwrap_or(0));
            Value::Num(if x.is_finite() { x } else { (w >> 8) as f64 })
        }
        3 => Value::Str(text_from(words)),
        4 => {
            let n = (w >> 8) % 4;
            Value::Arr((0..n).map(|_| value_from(words, depth - 1)).collect())
        }
        _ => {
            let n = (w >> 8) % 4;
            let mut m = BTreeMap::new();
            for _ in 0..n {
                m.insert(text_from(words), value_from(words, depth - 1));
            }
            Value::Obj(m)
        }
    }
}

fn text_from(words: &mut impl Iterator<Item = u64>) -> String {
    let w = words.next().unwrap_or(0);
    let len = (w % 12) as usize;
    let picks: Vec<usize> = (0..len)
        .map(|i| ((w >> (4 + 5 * (i % 12))) & 0xff) as usize)
        .collect();
    string_of(&picks)
}

/// The spelling of `c` inside a JSON string literal, chosen by `how`:
/// raw where JSON allows it, a short escape where one exists, or a
/// `\uXXXX` escape for any basic-plane scalar value.
fn spell(c: char, how: u8) -> String {
    let short = match c {
        '"' => Some("\\\""),
        '\\' => Some("\\\\"),
        '/' => Some("\\/"),
        '\n' => Some("\\n"),
        '\r' => Some("\\r"),
        '\t' => Some("\\t"),
        _ => None,
    };
    let bmp = u32::from(c) <= 0xffff;
    match (how % 3, short) {
        (0, _) if c != '"' && c != '\\' => c.to_string(),
        (1, Some(s)) => s.to_string(),
        _ if bmp => format!("\\u{:04x}", u32::from(c)),
        (_, Some(s)) => s.to_string(),
        _ => c.to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile input is an error, never a panic.
    #[test]
    fn parse_never_panics(picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..40)) {
        let text: String = picks.iter().map(|&k| FRAGMENTS[k]).collect();
        let _ = parse(&text);
        // Every prefix too: truncation cuts escapes, literals and
        // strings short.
        for (i, _) in text.char_indices() {
            let _ = parse(&text[..i]);
        }
    }

    /// Arbitrary Unicode scalar values, including lone `"` and `\`.
    #[test]
    fn parse_never_panics_on_any_chars(raw in prop::collection::vec(any::<u32>(), 0..24)) {
        let text: String = raw
            .iter()
            .map(|&u| char::from_u32(u % 0x11_0000).unwrap_or('\u{fffd}'))
            .collect();
        let _ = parse(&text);
        let _ = parse(&format!("\"{text}\""));
        let _ = parse(&format!("[\"{text}\", {text}]"));
    }

    /// `to_string` then `parse` reproduces any tree exactly.
    #[test]
    fn value_trees_roundtrip(words in prop::collection::vec(any::<u64>(), 1..80)) {
        let mut it = words.into_iter();
        let v = value_from(&mut it, 3);
        let text = v.to_string();
        prop_assert_eq!(parse(&text), Ok(v.clone()), "text {}", text);
        // Whitespace around the document changes nothing.
        prop_assert_eq!(parse(&format!(" \n{text}\t ")), Ok(v));
    }

    /// Strings spelled with any mix of raw characters, short escapes and
    /// `\uXXXX` escapes decode to the same text.
    #[test]
    fn every_escape_spelling_decodes(
        picks in prop::collection::vec((0usize..CHARS.len(), 0u8..3), 0..32),
    ) {
        let want: String = picks.iter().map(|&(k, _)| CHARS[k]).collect();
        let body: String = picks.iter().map(|&(k, how)| spell(CHARS[k], how)).collect();
        let text = format!("\"{body}\"");
        prop_assert_eq!(parse(&text), Ok(Value::Str(want.clone())), "text {}", text);
        prop_assert_eq!(parse(&Value::Str(want.clone()).to_string()), Ok(Value::Str(want)));
    }
}
