//! A minimal HTTP/1.1 server-side codec over blocking `std::io` streams.
//!
//! The build environment vendors every dependency, so there is no hyper or
//! axum here — and none is needed: the daemon speaks a small, fixed route
//! table of JSON request/response pairs plus long-polls that block
//! server-side (on a condvar, not the socket). What this module provides is
//! exactly that subset:
//!
//! * [`Request::read_from`] — request line + headers + `Content-Length`
//!   body (no chunked transfer encoding, no trailers, no upgrades);
//! * [`Response`] — status, `application/json` body, `Content-Length`
//!   framing, keep-alive by default per HTTP/1.1; or a body streamed to
//!   the socket as the response is written, framed by connection close;
//! * query-string splitting on the request target (no percent-decoding —
//!   every parameter the API takes is numeric).
//!
//! Malformed input surfaces as `InvalidData` errors; the connection handler
//! answers 400 and closes.

use std::io::{self, BufRead, Read, Write};

/// Largest accepted request body. Publishing is batched, so bodies scale
/// with batch size; 16 MiB is ~50k generous documents per publish.
pub const MAX_BODY: usize = 16 * 1024 * 1024;

/// Largest accepted request line / header line.
const MAX_LINE: usize = 16 * 1024;

/// Most header lines accepted in one request: with [`MAX_LINE`] this bounds
/// the memory a request head can take.
const MAX_HEADERS: usize = 100;

/// Largest response body copied behind its head so both leave in one
/// write; a larger one (a buffered snapshot) is written on its own rather
/// than duplicated in memory.
const MAX_COALESCED_BODY: usize = 256 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token as received (`GET`, `POST`, ...).
    pub method: String,
    /// The path component of the target, without the query string.
    pub path: String,
    /// Decoded `key=value` pairs of the query string, target order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lowercased at parse time.
    pub headers: Vec<(String, String)>,
    /// The raw body (empty when the request carried none).
    pub body: Vec<u8>,
}

impl Request {
    /// Read one request off a buffered stream. Returns `Ok(None)` on a
    /// clean EOF before the request line (the peer closed a keep-alive
    /// connection), an `InvalidData` error on malformed framing or a head
    /// past its limits (a line over 16 KiB, more than 100 header lines).
    pub fn read_from<R: BufRead>(r: &mut R) -> io::Result<Option<Request>> {
        let line = match read_line(r)? {
            None => return Ok(None),
            Some(line) => line,
        };
        let mut parts = line.split_whitespace();
        let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
            _ => return Err(bad(format!("malformed request line: {line:?}"))),
        };
        if !version.starts_with("HTTP/1.") {
            return Err(bad(format!("unsupported protocol version: {version}")));
        }
        let (path, query) = split_target(target);

        let mut headers = Vec::new();
        loop {
            let line = read_line(r)?.ok_or_else(|| bad("EOF inside header block"))?;
            if line.is_empty() {
                break;
            }
            if headers.len() == MAX_HEADERS {
                return Err(bad(format!("more than {MAX_HEADERS} header lines")));
            }
            let (name, value) =
                line.split_once(':').ok_or_else(|| bad(format!("malformed header: {line:?}")))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let mut req = Request {
            method: method.to_string(),
            path: path.to_string(),
            query,
            headers,
            body: Vec::new(),
        };
        if let Some(len) = req.header("content-length") {
            let len: usize =
                len.parse().map_err(|_| bad(format!("bad content-length: {len:?}")))?;
            if len > MAX_BODY {
                return Err(bad(format!("body of {len} bytes exceeds the {MAX_BODY} limit")));
            }
            let mut body = vec![0u8; len];
            r.read_exact(&mut body)?;
            req.body = body;
        } else if req.header("transfer-encoding").is_some() {
            return Err(bad("chunked transfer encoding is not supported"));
        }
        Ok(Some(req))
    }

    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// First value of a query-string parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or an error string for the 400 response.
    pub fn body_str(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not valid UTF-8".to_string())
    }

    /// True when the peer asked to close the connection after this request.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|c| c.eq_ignore_ascii_case("close"))
    }
}

/// A body [`Response::streamed`] writes to the socket as it goes.
pub type WriteBody = dyn Fn(&mut dyn Write) -> io::Result<()> + Send + Sync;

/// One HTTP response, always JSON-bodied.
pub struct Response {
    pub status: u16,
    pub body: String,
    /// Extra headers beyond the framing set (e.g. `retry-after` on 429s);
    /// names are expected lowercase.
    pub headers: Vec<(String, String)>,
    /// When set, writes the body in place of `body`.
    pub stream: Option<Box<WriteBody>>,
}

impl Response {
    /// A response with a pre-serialized JSON body.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response { status, body: body.into(), headers: Vec::new(), stream: None }
    }

    /// A response whose body `write` produces as the response is written,
    /// never held whole. It has no `Content-Length`: the body is framed by
    /// connection close, so it is always the connection's last exchange.
    pub fn streamed(
        status: u16,
        write: impl Fn(&mut dyn Write) -> io::Result<()> + Send + Sync + 'static,
    ) -> Response {
        Response { stream: Some(Box::new(write)), ..Response::json(status, "") }
    }

    /// An error response with an `{"error": ...}` body.
    pub fn error(status: u16, message: impl std::fmt::Display) -> Response {
        let body = serde_json::to_string(&serde::Value::Object(vec![(
            "error".to_string(),
            serde::Value::Str(message.to_string()),
        )]))
        .expect("string-only object serializes");
        Response::json(status, body)
    }

    /// Attach an extra response header (lowercase name).
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Write the response with `Content-Length` framing. `keep_alive`
    /// controls the `Connection` header; the caller owns actually closing.
    /// A streamed response ignores it: it always says `close`.
    ///
    /// The head is assembled first and reaches `w` in one write together
    /// with the body (two writes for a body past 256 KiB), never one per
    /// format fragment: on an unbuffered `TCP_NODELAY` socket each write is
    /// a syscall and a segment of its own.
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> io::Result<()> {
        use std::fmt::Write as _;
        if let Some(body) = &self.stream {
            let status = self.status;
            let head = "content-type: application/json\r\nconnection: close\r\n\r\n";
            w.write_all(format!("HTTP/1.1 {status} {}\r\n{head}", reason(status)).as_bytes())?;
            body(w)?;
            return w.flush();
        }
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut framed = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason(self.status),
            self.body.len(),
            connection
        );
        for (name, value) in &self.headers {
            let _ = write!(framed, "{name}: {value}\r\n");
        }
        framed.push_str("\r\n");
        if self.body.len() <= MAX_COALESCED_BODY {
            framed.push_str(&self.body);
            w.write_all(framed.as_bytes())?;
        } else {
            w.write_all(framed.as_bytes())?;
            w.write_all(self.body.as_bytes())?;
        }
        w.flush()
    }
}

/// The reason phrase for the status codes this API emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Read one CRLF- (or LF-) terminated line; `None` on immediate EOF.
fn read_line<R: BufRead>(r: &mut R) -> io::Result<Option<String>> {
    let mut line = String::new();
    let n = r.take(MAX_LINE as u64 + 1).read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n > MAX_LINE {
        return Err(bad("header line exceeds the size limit"));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// Split a request target into path and query parameters.
fn split_target(target: &str) -> (&str, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target, Vec::new()),
        Some((path, qs)) => {
            let params = qs
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (kv.to_string(), String::new()),
                })
                .collect();
            (path, params)
        }
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> io::Result<Option<Request>> {
        Request::read_from(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse("GET /changes?subscriber=3&timeout_ms=250 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/changes");
        assert_eq!(req.query_param("subscriber"), Some("3"));
        assert_eq!(req.query_param("timeout_ms"), Some("250"));
        assert_eq!(req.query_param("absent"), None);
        assert!(req.body.is_empty());
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_post_with_body() {
        let body = r#"{"terms":[[1,1.0]],"k":3}"#;
        let raw = format!(
            "POST /queries HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        );
        let req = parse(&raw).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body_str().unwrap(), body);
        assert!(req.wants_close());
        assert_eq!(req.header("content-type"), Some("application/json"));
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_invalid_data() {
        assert!(parse("").unwrap().is_none());
        assert!(parse("NOT A REQUEST\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/2\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
    }

    #[test]
    fn oversized_body_is_rejected() {
        let raw = format!("POST /publish HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(parse(&raw).is_err());
    }

    #[test]
    fn header_block_is_capped() {
        let head = |headers: usize| {
            let lines: String = (0..headers).map(|i| format!("x-h{i}: v\r\n")).collect();
            format!("GET / HTTP/1.1\r\n{lines}\r\n")
        };
        assert_eq!(parse(&head(MAX_HEADERS)).unwrap().unwrap().headers.len(), MAX_HEADERS);
        let err = parse(&head(MAX_HEADERS + 1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Seeded arbitrary bytes, spliced from fragments of real requests so
    /// the parser gets past its first line: never a panic, and every error
    /// is malformed input or a cut-off stream.
    #[test]
    fn arbitrary_bytes_never_panic() {
        const FRAGMENTS: [&[u8]; 12] = [
            b"GET /changes?subscriber=1&max=2 HTTP/1.1\r\n",
            b"POST /publish HTTP/1.1\r\n",
            b"content-length: 5\r\n",
            b"Content-Length: 18446744073709551616\r\n",
            b"transfer-encoding: chunked\r\n",
            b"connection: close\r\n",
            b"x: y\r\n",
            b"\r\n",
            b"\n",
            b":",
            b"{\"terms\":[[1,0.5]]}",
            b"\xff\xfe\x00",
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            let mut raw = Vec::new();
            for _ in 0..next() % 12 {
                match next() % 4 {
                    0 => raw.extend((0..next() % 24).map(|_| next() as u8)),
                    1 if next() % 64 == 0 => {
                        raw.extend(std::iter::repeat_n(b'a', MAX_LINE + next() as usize % 4))
                    }
                    1 if next() % 64 == 0 => {
                        raw.extend(b"GET / HTTP/1.1\r\n".iter().chain(&b"h: v\r\n".repeat(128)))
                    }
                    _ => raw.extend_from_slice(FRAGMENTS[next() as usize % FRAGMENTS.len()]),
                }
            }
            let mut reader = BufReader::new(raw.as_slice());
            // Keep-alive: read requests until the bytes run out or fail.
            loop {
                match Request::read_from(&mut reader) {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(e) => {
                        assert!(
                            matches!(
                                e.kind(),
                                io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                            ),
                            "{e:?} on {raw:?}"
                        );
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn response_framing_round_trips() {
        let mut out = Vec::new();
        Response::json(200, r#"{"ok":true}"#).write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));

        let mut out = Vec::new();
        Response::error(503, "draining").write_to(&mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with(r#"{"error":"draining"}"#));
    }

    #[test]
    fn extra_headers_and_stream_head_frame_correctly() {
        let mut out = Vec::new();
        Response::error(429, "overloaded")
            .with_header("retry-after", "2")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(text.contains("\r\n\r\n{\"error\":\"overloaded\"}"));

        let mut out = Vec::new();
        let streamed = Response::streamed(200, |w| w.write_all(b"{}"));
        streamed.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("connection: close\r\n"), "whatever the caller asked");
        assert!(!text.contains("content-length"), "streamed bodies are framed by EOF");
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
