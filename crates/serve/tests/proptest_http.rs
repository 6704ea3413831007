//! Property tests for the HTTP layer: `parse_request` never panics,
//! whatever the bytes, and never accepts a cut-off request as a
//! different one; generated valid requests parse back to what was sent;
//! and `write_response` always declares the length of the body it
//! writes.

use fmossim_serve::http::{parse_request, write_response, Request, Response};
use proptest::prelude::*;

/// Request-head fragments for hostile parser inputs: methods, targets,
/// versions, separators, line endings, and the headers the parser acts
/// on with good and bad values.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "GET", "POST", " ", "/", "/campaigns", "HTTP/1.1", "HTTP/1.0", "HTTP/2", "\r\n", "\n", "\r",
    ":", "content-length", "Content-Length: ", "0", "7", "-1", "99999999999999999999",
    "transfer-encoding: chunked", "connection: close", "Connection: Keep-Alive", "x", "é",
    "\u{0}", "\u{ff}",
];

const METHODS: &[&str] = &["GET", "POST", "DELETE", "PUT", "OPTIONS"];

/// Characters for targets and header values: no space in targets (the
/// request line is space-separated), no CR or LF anywhere.
const TARGET_CHARS: &[u8] = b"/abcXYZ019-._~%?=&:@";
const VALUE_CHARS: &[u8] = b"abcXYZ019 -_.,;:=/\"'()[]{}?*+!#$%&|~^`@<>\\";

fn text(w: u64, alphabet: &[u8], max: u64) -> String {
    let len = (w % (max + 1)) as usize;
    (0..len)
        .map(|i| {
            let pick = w.rotate_right(7 * (i as u32 % 9) + 3) ^ (i as u64).wrapping_mul(0x9e37);
            char::from(alphabet[(pick % alphabet.len() as u64) as usize])
        })
        .collect()
}

/// `name` with its letters upper- or lowercased by the bits of `w`.
fn mixed_case(name: &str, w: u64) -> String {
    name.chars()
        .enumerate()
        .map(|(i, c)| {
            if w >> (i % 64) & 1 == 1 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

/// A valid request built from random words: its wire bytes and the
/// [`Request`] the parser must return for them.
fn request_from(words: &[u64]) -> (Vec<u8>, Request) {
    let mut it = words.iter().copied().chain(std::iter::repeat(0));
    let mut next = move || it.next().unwrap_or(0);
    let w = next();
    let method = METHODS[(w % METHODS.len() as u64) as usize].to_string();
    let target = format!("/{}", text(next(), TARGET_CHARS, 24));
    let http11 = w & 0x100 != 0;
    let eol = if w & 0x200 != 0 { "\r\n" } else { "\n" };

    let mut head = format!(
        "{method} {target} {}{eol}",
        if http11 { "HTTP/1.1" } else { "HTTP/1.0" }
    );
    let mut headers = Vec::new();
    let mut add = |name: String, value: String, padded: bool| {
        let sep = if padded { ":  " } else { ":" };
        let tail = if padded { " \t" } else { "" };
        head.push_str(&format!("{name}{sep}{value}{tail}{eol}"));
        headers.push((name.to_ascii_lowercase(), value));
    };
    for _ in 0..(w >> 12) % 5 {
        let h = next();
        let name = mixed_case(&format!("x-{}", text(h, b"abcdefgh-", 10)), h >> 20);
        let value = text(next(), VALUE_CHARS, 30).trim().to_string();
        add(name, value, h & 1 != 0);
    }
    let keep_alive = match (w >> 16) % 3 {
        0 => {
            add(mixed_case("connection", next()), "close".into(), false);
            false
        }
        1 => {
            let spelled = mixed_case("keep-alive", next());
            add(mixed_case("connection", next()), spelled, true);
            true
        }
        _ => http11,
    };
    let body: Vec<u8> = (0..(w >> 24) % 40).map(|i| (next() >> i) as u8).collect();
    if !body.is_empty() || w & 0x400 != 0 {
        add(
            mixed_case("content-length", next()),
            body.len().to_string(),
            w & 0x800 != 0,
        );
    }
    head.push_str(eol);
    let mut bytes = head.into_bytes();
    bytes.extend(&body);
    let request = Request {
        method,
        target,
        headers,
        body,
        keep_alive,
    };
    (bytes, request)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes are an error or a request, never a panic.
    #[test]
    fn parse_never_panics_on_any_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse_request(&mut &bytes[..]);
    }

    /// Soups of request-head fragments reach deeper into the parser.
    #[test]
    fn parse_never_panics_on_fragment_soups(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..40),
    ) {
        let text: String = picks.iter().map(|&k| FRAGMENTS[k]).collect();
        let _ = parse_request(&mut text.as_bytes());
    }

    /// A valid request parses back to its method, target, lowercased
    /// headers, body and keep-alive, consuming exactly its bytes; every
    /// proper prefix is an error, a clean EOF, or (when only the final
    /// `\n` of a bodiless request is cut) that same request.
    #[test]
    fn valid_requests_roundtrip(words in prop::collection::vec(any::<u64>(), 1..24)) {
        let (bytes, want) = request_from(&words);
        let mut r = &bytes[..];
        let got = parse_request(&mut r);
        prop_assert_eq!(got, Ok(Some(want.clone())), "bytes {:?}", String::from_utf8_lossy(&bytes));
        prop_assert!(r.is_empty(), "{} bytes left unread", r.len());
        for cut in 0..bytes.len() {
            match parse_request(&mut &bytes[..cut]) {
                Ok(Some(req)) => prop_assert_eq!(req, want.clone(), "prefix of {} bytes", cut),
                Ok(None) => prop_assert_eq!(cut, 0),
                Err(_) => {}
            }
        }
    }

    /// The `content-length` a response declares is the length of the
    /// body bytes that follow its head.
    #[test]
    fn responses_declare_their_body_length(
        body in prop::collection::vec(any::<u8>(), 0..300),
        pick in 0usize..4,
        keep_alive in any::<bool>(),
    ) {
        let status = [200u16, 202, 404, 413][pick];
        let mut resp = Response::text(status, String::new());
        resp.body = body.clone();
        resp.keep_alive = keep_alive;
        let mut out = Vec::new();
        write_response(&mut out, &resp).unwrap();
        let end = out.windows(4).position(|w| w == b"\r\n\r\n").expect("head ends") + 4;
        let head = std::str::from_utf8(&out[..end]).expect("ascii head");
        let status_line = format!("HTTP/1.1 {status} ");
        prop_assert!(head.starts_with(&status_line), "{}", head);
        let lengths: Vec<usize> = head
            .lines()
            .filter_map(|l| l.strip_prefix("content-length: "))
            .map(|v| v.parse().expect("numeric length"))
            .collect();
        prop_assert_eq!(lengths, vec![body.len()]);
        prop_assert_eq!(&out[end..], &body[..]);
    }
}
