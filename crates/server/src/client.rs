//! A tiny blocking HTTP/1.1 client for the daemon's own wire API.
//!
//! The integration tests and the `http_load` harness drive the server over
//! real loopback sockets; this client is the counterpart of [`crate::http`]
//! — one keep-alive connection, `Content-Length` framing, JSON string
//! bodies. It is intentionally not a general HTTP client (no redirects, no
//! TLS, no chunked encoding): it speaks exactly what [`crate::CtkServer`]
//! serves.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// One keep-alive connection to a server.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    last_retry_after: Option<f64>,
}

impl HttpClient {
    /// Connect to `addr` (e.g. the value of `CtkServer::addr`).
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(HttpClient { reader: BufReader::new(stream), last_retry_after: None })
    }

    /// Connect with a bound on how long the TCP handshake may take — what a
    /// harness wants against a daemon that might be SIGSTOPped, dropping
    /// SYNs, or behind a dead route where plain `connect` can hang for the
    /// kernel's own timeout (minutes).
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<HttpClient> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        Ok(HttpClient { reader: BufReader::new(stream), last_retry_after: None })
    }

    /// Keep trying [`HttpClient::connect_timeout`] until it succeeds or
    /// `deadline` has elapsed, sleeping between attempts with capped
    /// exponential backoff (10 ms doubling to at most 500 ms). This is the
    /// restart-side counterpart of crash recovery: a monitor coming back up
    /// refuses connections first and answers `503 warming` next, and a
    /// client that wants "reconnect when it's back" should poll patiently
    /// rather than hot-loop. Returns the last connection error if the
    /// deadline passes.
    pub fn connect_with_retry(addr: SocketAddr, deadline: Duration) -> io::Result<HttpClient> {
        let start = Instant::now();
        let mut backoff = Duration::from_millis(10);
        loop {
            let remaining = match deadline.checked_sub(start.elapsed()) {
                None | Some(Duration::ZERO) => {
                    return HttpClient::connect_timeout(addr, Duration::from_millis(1));
                }
                Some(remaining) => remaining,
            };
            match HttpClient::connect_timeout(addr, remaining.min(Duration::from_secs(1))) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    if start.elapsed() + backoff >= deadline {
                        return Err(e);
                    }
                    thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(500));
                }
            }
        }
    }

    /// The `Retry-After` value (seconds) of the most recent response, if it
    /// carried one — how long a 429'd publisher should back off.
    pub fn retry_after(&self) -> Option<f64> {
        self.last_retry_after
    }

    /// Cap how long a single response may take to arrive. Long-polls block
    /// server-side, so set this above the poll timeout (or `None` for no
    /// limit, the default).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Issue one request and read the full response. Returns
    /// `(status, body)`.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        send_request(self.reader.get_mut(), method, path, body)?;
        self.read_response()
    }

    /// `GET` a path.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.request("GET", path, "")
    }

    /// `POST` a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.request("POST", path, body)
    }

    /// `PUT` a JSON body.
    pub fn put(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.request("PUT", path, body)
    }

    /// `DELETE` a path.
    pub fn delete(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.request("DELETE", path, "")
    }

    fn read_response(&mut self) -> io::Result<(u16, String)> {
        self.last_retry_after = None;
        let status_line = self.read_line()?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("malformed status line: {status_line:?}")))?;
        let mut content_length: Option<usize> = None;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| invalid(format!("bad content-length: {value:?}")))?,
                    );
                } else if name.trim().eq_ignore_ascii_case("retry-after") {
                    self.last_retry_after = value.trim().parse().ok();
                }
            }
        }
        let body = match content_length {
            Some(len) => {
                let mut body = vec![0u8; len];
                self.reader.read_exact(&mut body)?;
                body
            }
            // No `Content-Length` — a streamed response framed by EOF
            // (`POST /snapshot?stream=1`). The server closes the connection
            // after it; further requests on this client will fail, so use a
            // dedicated connection for streams.
            None => {
                let mut body = Vec::new();
                self.reader.read_to_end(&mut body)?;
                body
            }
        };
        String::from_utf8(body).map(|b| (status, b)).map_err(|_| invalid("non-UTF-8 body"))
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}

/// Frame one request and hand it to the socket in a single `write`. The
/// stream is unbuffered with `TCP_NODELAY`, so every separate write — each
/// fragment of a `write!` included — would be its own syscall and its own
/// segment, waking the server's reader before the body is even sent.
fn send_request<W: Write>(stream: &mut W, method: &str, path: &str, body: &str) -> io::Result<()> {
    let mut framed = format!(
        "{method} {path} HTTP/1.1\r\nhost: ctk\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    framed.push_str(body);
    stream.write_all(framed.as_bytes())?;
    stream.flush()
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts `write` calls; accepts everything it is given.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_is_one_write() {
        let mut w = CountingWriter { writes: 0, bytes: Vec::new() };
        send_request(&mut w, "POST", "/publish", r#"{"terms":[[1,1.0]]}"#).unwrap();
        assert_eq!(w.writes, 1, "head and body leave in one write");
        assert_eq!(
            String::from_utf8(w.bytes).unwrap(),
            "POST /publish HTTP/1.1\r\nhost: ctk\r\ncontent-type: application/json\r\n\
             content-length: 19\r\n\r\n{\"terms\":[[1,1.0]]}"
        );
        let mut w = CountingWriter { writes: 0, bytes: Vec::new() };
        send_request(&mut w, "GET", "/stats", "").unwrap();
        assert_eq!(w.writes, 1);
    }
}
