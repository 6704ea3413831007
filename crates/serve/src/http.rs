//! Hand-rolled HTTP/1.1 plumbing over `std::io` — request parsing,
//! fixed-length responses, and chunked transfer framing for SSE.
//!
//! Everything here reads from `dyn BufRead` and writes to `dyn Write`,
//! never a socket, so the whole layer unit-tests against plain byte
//! buffers (see the golden-byte tests at the bottom of this module).
//! The server glues these pieces onto a `TcpStream`; nothing else.
//!
//! Scope is deliberately the subset the campaign API needs: methods
//! with optional `Content-Length` bodies (no chunked *request* bodies),
//! HTTP/1.0 and 1.1 with standard keep-alive defaults, fixed-length
//! responses, and chunked responses for the SSE event stream.

use std::io::{self, BufRead, Read, Write};

/// Largest accepted request body. Netlist submissions are text; the
/// paper's largest benchmark circuit (RAM256) serialises well under a
/// megabyte, so 4 MiB leaves generous headroom while bounding what a
/// client can make the server buffer.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// Largest accepted request head (request line plus headers).
pub const MAX_HEAD: usize = 64 * 1024;

/// A parsed HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The method, as sent (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The request target (path plus any query string), as sent.
    pub target: String,
    /// Header name/value pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when there was no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should be kept open after responding
    /// (HTTP/1.1 default, overridable with `Connection:` either way).
    pub keep_alive: bool,
}

impl Request {
    /// First header with this (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::BadRequest`] on invalid UTF-8.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::BadRequest("request body is not valid utf-8".into()))
    }
}

/// Why a request could not be parsed, mapped to a response status.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header, or body → `400`.
    BadRequest(String),
    /// Declared `Content-Length` above [`MAX_BODY`], or the head above
    /// [`MAX_HEAD`] → `413`.
    TooLarge,
    /// A well-formed request using a feature this server does not
    /// implement (e.g. chunked request bodies) → `501`.
    Unsupported(String),
    /// The client sent no byte for the socket's read timeout → `408`.
    Timeout,
}

impl HttpError {
    /// The response status code for this error.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::TooLarge => 413,
            HttpError::Unsupported(_) => 501,
            HttpError::Timeout => 408,
        }
    }

    /// Human-readable detail for the error response body.
    #[must_use]
    pub fn detail(&self) -> &str {
        match self {
            HttpError::BadRequest(d) | HttpError::Unsupported(d) => d,
            HttpError::TooLarge => "request too large",
            HttpError::Timeout => "request timed out",
        }
    }
}

/// True for a socket read timeout, which reads as either kind, by
/// platform.
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn io_err(e: &io::Error) -> HttpError {
    if timed_out(e) {
        HttpError::Timeout
    } else {
        HttpError::BadRequest(format!("i/o error mid-request: {e}"))
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line, enforcing the
/// running head budget: at most `budget + 1` bytes are consumed, so a
/// line that never ends cannot grow without bound. Returns `None` on
/// clean EOF at a line start.
fn read_line(r: &mut dyn BufRead, budget: &mut usize) -> Result<Option<String>, HttpError> {
    let mut line = String::new();
    let n = Read::take(r, *budget as u64 + 1)
        .read_line(&mut line)
        .map_err(|e| io_err(&e))?;
    if n == 0 {
        return Ok(None);
    }
    *budget = budget.checked_sub(n).ok_or(HttpError::TooLarge)?;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// Parses one request from the stream.
///
/// Returns `Ok(None)` on clean EOF before a request line — the normal
/// end of a keep-alive connection — and when the read times out before
/// the first byte of one: an idle connection closes quietly, since an
/// unsolicited `408` could be read as the answer to a request a pooled
/// client sends just then. EOF anywhere *inside* a request is an error.
///
/// ```
/// use fmossim_serve::http::parse_request;
///
/// let bytes = b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n";
/// let req = parse_request(&mut &bytes[..]).unwrap().unwrap();
/// assert_eq!(req.method, "GET");
/// assert_eq!(req.target, "/healthz");
/// assert!(req.keep_alive);
/// assert!(parse_request(&mut &b""[..]).unwrap().is_none(), "clean EOF");
/// ```
///
/// # Errors
///
/// [`HttpError::BadRequest`] on malformed syntax or mid-request EOF,
/// [`HttpError::Timeout`] when the read times out inside a request,
/// [`HttpError::TooLarge`] when head or declared body exceed their
/// budgets, [`HttpError::Unsupported`] on chunked request bodies.
pub fn parse_request(r: &mut dyn BufRead) -> Result<Option<Request>, HttpError> {
    if r.fill_buf().is_err_and(|e| timed_out(&e)) {
        return Ok(None);
    }
    let mut budget = MAX_HEAD;
    let Some(line) = read_line(r, &mut budget)? else {
        return Ok(None);
    };
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {line:?}"
            )))
        }
    };
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(HttpError::BadRequest(format!(
                "unsupported protocol version {other:?}"
            )))
        }
    };

    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(r, &mut budget)? else {
            return Err(HttpError::BadRequest("eof inside request head".into()));
        };
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    if find("transfer-encoding").is_some() {
        return Err(HttpError::Unsupported(
            "chunked request bodies are not supported".into(),
        ));
    }
    let content_length = match find("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest(format!("bad content-length {v:?}")))?,
    };
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body).map_err(|e| io_err(&e))?;

    let keep_alive = match find("connection").map(str::to_ascii_lowercase) {
        Some(c) if c == "close" => false,
        Some(c) if c == "keep-alive" => true,
        _ => keep_alive_default,
    };
    Ok(Some(Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body,
        keep_alive,
    }))
}

/// A fixed-length response, written with [`write_response`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Status code (see [`status_text`] for the supported set).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
    /// Whether the server intends to keep the connection open. The
    /// connection layer ANDs this with the request's own preference.
    pub keep_alive: bool,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            keep_alive: true,
        }
    }

    /// A plain-text response (Prometheus exposition, error details).
    #[must_use]
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            keep_alive: true,
        }
    }

    /// The error response for a request that failed to parse. Always
    /// closes the connection: after a malformed request the stream
    /// position is unreliable.
    #[must_use]
    pub fn from_error(e: &HttpError) -> Response {
        let mut resp = Response::text(e.status(), format!("{}\n", e.detail()));
        resp.keep_alive = false;
        resp
    }
}

/// The reason phrase for each status code this server emits.
#[must_use]
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        413 => "Content Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn write_response(w: &mut dyn Write, resp: &Response) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\ncontent-length: {}\r\ncontent-type: {}\r\nconnection: {}\r\n\r\n",
        resp.status,
        status_text(resp.status),
        resp.body.len(),
        resp.content_type,
        if resp.keep_alive {
            "keep-alive"
        } else {
            "close"
        },
    )?;
    w.write_all(&resp.body)?;
    w.flush()
}

/// Writes the response head for an SSE stream: `200`, chunked transfer
/// coding, `text/event-stream`, connection closing when the stream
/// ends. Follow with [`write_chunk`] per frame and [`finish_chunked`].
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn write_event_stream_head(w: &mut dyn Write) -> io::Result<()> {
    w.write_all(
        b"HTTP/1.1 200 OK\r\n\
          cache-control: no-store\r\n\
          content-type: text/event-stream\r\n\
          transfer-encoding: chunked\r\n\
          connection: close\r\n\r\n",
    )?;
    w.flush()
}

/// Writes one transfer chunk (hex length line, data, CRLF). Empty data
/// is skipped — a zero-length chunk would terminate the stream.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn write_chunk(w: &mut dyn Write, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(w, "{:x}\r\n", data.len())?;
    w.write_all(data)?;
    w.write_all(b"\r\n")?;
    w.flush()
}

/// Terminates a chunked response (zero-length chunk, final CRLF).
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn finish_chunked(w: &mut dyn Write) -> io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

/// Renders one SSE frame: `event:` line, one `data:` line per line of
/// `data`, blank-line terminator.
///
/// ```
/// use fmossim_serve::http::sse_frame;
///
/// assert_eq!(sse_frame("span", "{\"s\":1}"), "event: span\ndata: {\"s\":1}\n\n");
/// ```
#[must_use]
pub fn sse_frame(event: &str, data: &str) -> String {
    let mut out = format!("event: {event}\n");
    for line in data.split('\n') {
        out.push_str("data: ");
        out.push_str(line);
        out.push('\n');
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        parse_request(&mut &bytes[..])
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /campaigns HTTP/1.1\r\ncontent-length: 4\r\n\r\n{\"\"}")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/campaigns");
        assert_eq!(req.body, b"{\"\"}");
        assert_eq!(req.body_str().unwrap(), "{\"\"}");
        assert!(req.keep_alive);
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let req = parse(b"GET / HTTP/1.1\r\nX-Thing:  a b \r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.header("x-thing"), Some("a b"), "trimmed");
        assert_eq!(req.header("X-THING"), Some("a b"));
        assert_eq!(req.header("missing"), None);
    }

    #[test]
    fn rejects_malformed_request_lines() {
        // Golden set of broken request heads and the status each maps to.
        let cases: [(&[u8], u16); 7] = [
            (b"GET\r\n\r\n", 400),
            (b"GET /\r\n\r\n", 400),
            (b"GET / HTTP/1.1 extra\r\n\r\n", 400),
            (b"GET / HTTP/2.0\r\n\r\n", 400),
            (b" / HTTP/1.1\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\ncontent-length: ten\r\n\r\n", 400),
        ];
        for (bytes, status) in cases {
            let err = parse(bytes).expect_err("must reject");
            assert_eq!(err.status(), status, "{bytes:?}");
        }
    }

    #[test]
    fn rejects_oversized_bodies_with_413() {
        let head = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = parse(head.as_bytes()).expect_err("too large");
        assert_eq!(err, HttpError::TooLarge);
        assert_eq!(err.status(), 413);
        // At the limit the declared length is fine (body EOF is a
        // different, 400-class error).
        let head = format!("POST / HTTP/1.1\r\ncontent-length: {MAX_BODY}\r\n\r\n");
        let err = parse(head.as_bytes()).expect_err("eof in body");
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn rejects_oversized_heads_with_413() {
        let mut head = b"GET / HTTP/1.1\r\n".to_vec();
        head.extend(std::iter::repeat_n(&b"x-pad: aaaaaaaaaaaaaaaa\r\n"[..], 4000).flatten());
        head.extend(b"\r\n");
        assert_eq!(parse(&head).expect_err("too large").status(), 413);
    }

    /// A head line that never ends is cut off at the budget: the
    /// parser consumes `MAX_HEAD + 1` bytes, not the whole stream.
    #[test]
    fn unterminated_head_line_stops_at_the_budget() {
        let total = 4 * MAX_HEAD;
        let mut r = io::BufReader::new(io::repeat(b'a').take(total as u64));
        assert_eq!(parse_request(&mut r), Err(HttpError::TooLarge));
        let unread = io::copy(&mut r, &mut io::sink()).unwrap();
        assert_eq!(unread, (total - MAX_HEAD - 1) as u64);
    }

    /// A reader whose every read times out.
    struct Stalls;

    impl Read for Stalls {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }

    /// An idle connection whose read times out before a request starts
    /// ends quietly, as at a clean EOF.
    #[test]
    fn a_timeout_before_a_request_is_a_quiet_end() {
        let mut r = io::BufReader::new(Stalls);
        assert_eq!(parse_request(&mut r), Ok(None));
    }

    /// A socket read timeout mid-head is a `408`, not a `400`.
    #[test]
    fn a_read_timeout_is_a_408() {
        let mut r = io::BufReader::new((&b"GET /heal"[..]).chain(Stalls));
        let err = parse_request(&mut r).expect_err("timed out");
        assert_eq!((err.status(), err), (408, HttpError::Timeout));
    }

    #[test]
    fn rejects_chunked_request_bodies_with_501() {
        let err = parse(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n")
            .expect_err("unsupported");
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn keep_alive_reuse_parses_back_to_back_requests() {
        let bytes: &[u8] =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhiGET /c HTTP/1.0\r\nconnection: keep-alive\r\n\r\n";
        let mut r: &[u8] = bytes;
        let a = parse_request(&mut r).unwrap().unwrap();
        assert_eq!((a.target.as_str(), a.keep_alive), ("/a", true));
        let b = parse_request(&mut r).unwrap().unwrap();
        assert_eq!((b.target.as_str(), b.body.as_slice()), ("/b", &b"hi"[..]));
        let c = parse_request(&mut r).unwrap().unwrap();
        assert_eq!(
            (c.target.as_str(), c.keep_alive),
            ("/c", true),
            "1.0 + keep-alive"
        );
        assert!(parse_request(&mut r).unwrap().is_none(), "then clean EOF");
    }

    #[test]
    fn connection_close_overrides_the_default() {
        let req = parse(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive, "1.0 defaults to close");
    }

    #[test]
    fn golden_response_bytes() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{\"ok\":true}".into())).unwrap();
        assert_eq!(
            out,
            b"HTTP/1.1 200 OK\r\ncontent-length: 11\r\ncontent-type: application/json\r\nconnection: keep-alive\r\n\r\n{\"ok\":true}"
        );

        let mut out = Vec::new();
        let resp = Response::from_error(&HttpError::TooLarge);
        write_response(&mut out, &resp).unwrap();
        assert_eq!(
            out,
            b"HTTP/1.1 413 Content Too Large\r\ncontent-length: 18\r\ncontent-type: text/plain; charset=utf-8\r\nconnection: close\r\n\r\nrequest too large\n"
        );
    }

    #[test]
    fn golden_chunked_and_sse_bytes() {
        let mut out = Vec::new();
        write_event_stream_head(&mut out).unwrap();
        assert_eq!(
            out,
            &b"HTTP/1.1 200 OK\r\ncache-control: no-store\r\ncontent-type: text/event-stream\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n"[..]
        );

        let mut out = Vec::new();
        write_chunk(&mut out, b"hello").unwrap();
        write_chunk(&mut out, b"").unwrap(); // skipped, not a terminator
        write_chunk(&mut out, &[b'a'; 16]).unwrap();
        finish_chunked(&mut out).unwrap();
        assert_eq!(out, b"5\r\nhello\r\n10\r\naaaaaaaaaaaaaaaa\r\n0\r\n\r\n");

        assert_eq!(
            sse_frame("detected", "{\"fault\":3}"),
            "event: detected\ndata: {\"fault\":3}\n\n"
        );
        assert_eq!(
            sse_frame("note", "two\nlines"),
            "event: note\ndata: two\ndata: lines\n\n"
        );
    }
}
