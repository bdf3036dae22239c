//! A minimal HTTP/1.1 layer over [`std::net`].
//!
//! The build environment has no crates.io access, so there is no hyper/axum to lean on; this
//! module implements exactly the slice of RFC 9112 the service needs: one request per
//! connection (the server always answers `Connection: close`), `Content-Length`-framed bodies,
//! and hard limits on header and body sizes so a misbehaving client cannot exhaust memory.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Upper bound on the request head (request line + headers), in bytes.
pub const MAX_HEAD_BYTES: u64 = 16 * 1024;
/// Upper bound on the number of request headers.
pub const MAX_HEADERS: usize = 64;
/// Upper bound on the request body, in bytes (edge lists can be large, but not unbounded).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method (`GET`, `POST`, ...), uppercase as received.
    pub method: String,
    /// The request target path, e.g. `/api/estimate` (any `?query` suffix is kept verbatim).
    pub path: String,
    /// Header `(name, value)` pairs; names are lowercased at parse time.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless a `Content-Length` was supplied).
    pub body: Vec<u8>,
}

impl Request {
    /// Looks up a header by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The underlying socket failed (including read timeouts and early EOF).
    Io(io::Error),
    /// The bytes on the wire were not a well-formed HTTP/1.1 request.
    Malformed(&'static str),
    /// The head or the declared body exceeded the configured limits.
    TooLarge,
    /// The request did not arrive in full before the per-request wall-clock deadline. The
    /// per-`read(2)` socket timeout cannot catch a slowloris client dripping one byte per
    /// interval; this overall deadline does.
    Timeout,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "I/O error reading request: {e}"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge => write!(f, "request exceeds the size limits"),
            HttpError::Timeout => {
                write!(f, "request did not complete within the server's deadline")
            }
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one HTTP/1.1 request from the stream.
///
/// The head is read through a [`Read::take`] guard of [`MAX_HEAD_BYTES`]; a head that exhausts
/// the guard (the final line arrives without its newline) is reported as [`HttpError::TooLarge`].
/// The body is read only when a valid `Content-Length` is present, and is bounded by
/// [`MAX_BODY_BYTES`].
///
/// `deadline` is the wall-clock instant by which the **whole** request must have arrived. It is
/// checked between buffer refills, so a client dripping bytes slowly enough to keep the
/// per-read socket timeout happy still gets cut off with [`HttpError::Timeout`] (the 408 path);
/// the worst-case overshoot is one socket read timeout past the deadline.
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    deadline: Instant,
) -> Result<Request, HttpError> {
    let mut head = reader.by_ref().take(MAX_HEAD_BYTES);

    let request_line = read_head_line(&mut head, deadline)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(HttpError::Malformed("empty request line"))?.to_string();
    let path = parts.next().ok_or(HttpError::Malformed("request line has no target"))?.to_string();
    let version = parts.next().ok_or(HttpError::Malformed("request line has no version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    if !path.starts_with('/') {
        return Err(HttpError::Malformed("request target must be origin-form"));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_head_line(&mut head, deadline)?;
        if line.is_empty() {
            break;
        }
        if headers.len() == MAX_HEADERS {
            return Err(HttpError::TooLarge);
        }
        let (name, value) =
            line.split_once(':').ok_or(HttpError::Malformed("header line has no colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut body = Vec::new();
    let request = Request { method, path, headers, body: Vec::new() };
    if request.header("transfer-encoding").is_some() {
        // RFC 9112 §6.1: a server that does not implement a transfer coding must reject it
        // rather than guess at the framing; this server only speaks Content-Length.
        return Err(HttpError::Malformed("Transfer-Encoding is not supported"));
    }
    if let Some(raw) = request.header("content-length") {
        let len: usize =
            raw.parse().map_err(|_| HttpError::Malformed("unparseable Content-Length"))?;
        if len > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge);
        }
        // Size the buffer by the bytes that actually arrive, not the declared length, so an
        // attacker declaring a huge Content-Length and sending nothing holds no memory. The
        // chunk-at-a-time loop (instead of one `read_to_end`) is what lets the overall
        // deadline interrupt a drip-fed body.
        let mut remaining = len;
        while remaining > 0 {
            if Instant::now() >= deadline {
                return Err(HttpError::Timeout);
            }
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                return Err(HttpError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before the declared body length",
                )));
            }
            let take = chunk.len().min(remaining);
            body.extend_from_slice(&chunk[..take]);
            reader.consume(take);
            remaining -= take;
        }
    }
    Ok(Request { body, ..request })
}

/// Reads one CRLF- (or bare-LF-) terminated line of the request head, without its terminator.
/// An EOF before any byte of the line is reported as `UnexpectedEof`; running dry mid-line
/// means the head hit the `take` budget. The deadline is checked before every buffer refill so
/// a drip-fed head cannot hold the worker past it.
fn read_head_line(head: &mut impl BufRead, deadline: Instant) -> Result<String, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        if Instant::now() >= deadline {
            return Err(HttpError::Timeout);
        }
        let available = head.fill_buf()?;
        if available.is_empty() {
            if line.is_empty() {
                return Err(HttpError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                )));
            }
            // Bytes arrived but the newline never did: either the head budget ran out or the
            // peer closed mid-line. Both were reported as TooLarge before the deadline existed;
            // keep that mapping.
            return Err(HttpError::TooLarge);
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                line.extend_from_slice(&available[..newline]);
                head.consume(newline + 1);
                while matches!(line.last(), Some(b'\r')) {
                    line.pop();
                }
                return String::from_utf8(line)
                    .map_err(|_| HttpError::Malformed("request head is not valid UTF-8"));
            }
            None => {
                let n = available.len();
                line.extend_from_slice(available);
                head.consume(n);
            }
        }
    }
}

/// An HTTP response: a status code plus a body with its content type, and optional extra
/// headers (e.g. `Deprecation: true` on legacy alias paths).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code (200, 202, 400, 404, ...).
    pub status: u16,
    /// The response body.
    pub body: String,
    /// The `Content-Type` header value; every constructor sets a static one.
    pub content_type: &'static str,
    /// Extra headers appended after the fixed ones. Static name/value pairs only: extra
    /// headers carry protocol signals (deprecation, allow lists), never request data.
    pub headers: Vec<(&'static str, &'static str)>,
}

/// The Prometheus text exposition content type served by `/metrics`.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

impl Response {
    /// Builds an `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
            headers: Vec::new(),
        }
    }

    /// Builds a Prometheus text-exposition response (used by `/metrics`).
    pub fn metrics_text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: METRICS_CONTENT_TYPE,
            headers: Vec::new(),
        }
    }

    /// Returns the response with an extra header appended.
    pub fn with_header(mut self, name: &'static str, value: &'static str) -> Self {
        self.headers.push((name, value));
        self
    }

    /// Serialises the response (status line, headers, body) onto a writer.
    pub fn write_to(&self, mut writer: impl Write) -> io::Result<()> {
        self.write_head(&mut writer)?;
        writer.write_all(self.body.as_bytes())?;
        writer.flush()
    }

    /// Serialises the status line and headers only, `Content-Length` still counting the body:
    /// the answer to a `HEAD` request, which carries no content (RFC 9110 §9.3.2).
    pub(crate) fn write_head(&self, mut writer: impl Write) -> io::Result<()> {
        write!(
            writer,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(writer, "{name}: {value}\r\n")?;
        }
        writer.write_all(b"\r\n")?;
        writer.flush()
    }
}

/// Writes the head of a chunked (`Transfer-Encoding: chunked`) streaming response, with any
/// `extra` headers after the fixed ones. The body then follows as [`write_chunk`] calls
/// terminated by one [`finish_chunked`]. Used by the job event stream, whose length is
/// unknown while the job runs.
pub fn write_chunked_head(
    mut writer: impl Write,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n",
        status,
        reason_phrase(status),
        content_type
    )?;
    for (name, value) in extra {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.flush()
}

/// Writes one chunk (hex size line, payload, CRLF) and flushes so the client sees progress
/// immediately. Empty payloads are skipped: a zero-length chunk would terminate the stream.
pub fn write_chunk(mut writer: impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.is_empty() {
        return Ok(());
    }
    write!(writer, "{:x}\r\n", payload.len())?;
    writer.write_all(payload)?;
    writer.write_all(b"\r\n")?;
    writer.flush()
}

/// Writes the terminating zero-length chunk of a chunked response.
pub fn finish_chunked(mut writer: impl Write) -> io::Result<()> {
    writer.write_all(b"0\r\n\r\n")?;
    writer.flush()
}

/// The status codes the service emits, with their reason phrases: the one status table, read
/// by the response writers and by the metrics' bounded `status` label.
pub(crate) const STATUS_TABLE: [(u16, &str); 12] = [
    (200, "OK"),
    (201, "Created"),
    (202, "Accepted"),
    (400, "Bad Request"),
    (403, "Forbidden"),
    (404, "Not Found"),
    (405, "Method Not Allowed"),
    (408, "Request Timeout"),
    (409, "Conflict"),
    (413, "Payload Too Large"),
    (429, "Too Many Requests"),
    (500, "Internal Server Error"),
];

/// The reason phrase for the status codes the service emits (`Unknown` for any other).
pub fn reason_phrase(status: u16) -> &'static str {
    STATUS_TABLE.iter().find(|&&(code, _)| code == status).map_or("Unknown", |&(_, phrase)| phrase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader as StdBufReader;
    use std::net::{TcpListener, TcpStream};

    /// Feeds raw bytes through a real localhost socket pair so `read_request` sees a
    /// `BufReader<TcpStream>` exactly as in production. The deadline is generous: these tests
    /// exercise parsing, not the slow-client cutoff (see `server::tests` for that).
    fn parse_raw(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.write_all(raw).unwrap();
        drop(client); // close so an under-declared body hits EOF instead of blocking
        let mut reader = StdBufReader::new(server);
        read_request(&mut reader, Instant::now() + std::time::Duration::from_secs(30))
    }

    #[test]
    fn an_expired_deadline_reports_timeout_not_a_parse_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut reader = StdBufReader::new(server);
        let res = read_request(&mut reader, Instant::now());
        assert!(matches!(res, Err(HttpError::Timeout)), "{res:?}");
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse_raw(b"POST /api/estimate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/api/estimate");
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse_raw(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_request_lines() {
        assert!(matches!(parse_raw(b"NONSENSE\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse_raw(b"GET /x SPDY/3\r\n\r\n"),
            Err(HttpError::Malformed("unsupported HTTP version"))
        ));
        assert!(matches!(
            parse_raw(b"GET http://e.com/x HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed("request target must be origin-form"))
        ));
        assert!(matches!(
            parse_raw(b"POST / HTTP/1.1\r\nContent-Length: many\r\n\r\n"),
            Err(HttpError::Malformed("unparseable Content-Length"))
        ));
    }

    #[test]
    fn rejects_oversized_heads_and_bodies() {
        let long_header = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(32 * 1024));
        assert!(matches!(parse_raw(long_header.as_bytes()), Err(HttpError::TooLarge)));
        let huge_body =
            format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(parse_raw(huge_body.as_bytes()), Err(HttpError::TooLarge)));
    }

    #[test]
    fn under_declared_body_is_an_io_error() {
        let res = parse_raw(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
        assert!(matches!(res, Err(HttpError::Io(_))));
    }

    #[test]
    fn chunked_transfer_encoding_is_rejected_not_misread() {
        let res = parse_raw(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
        );
        assert!(matches!(res, Err(HttpError::Malformed("Transfer-Encoding is not supported"))));
    }

    #[test]
    fn response_wire_format_is_framed_and_terminated() {
        let mut out = Vec::new();
        Response::json(202, "{\"job_id\":1}").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 12\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"job_id\":1}"));
    }

    #[test]
    fn metrics_responses_carry_the_prometheus_content_type() {
        let mut out = Vec::new();
        Response::metrics_text(200, "x_total 1\n").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"));
        assert!(text.ends_with("x_total 1\n"));
    }

    #[test]
    fn chunked_stream_wire_format_is_hex_framed_and_zero_terminated() {
        let mut out = Vec::new();
        write_chunked_head(&mut out, 200, "application/x-ndjson", &[]).unwrap();
        write_chunk(&mut out, b"{\"event\":\"queued\"}\n").unwrap();
        write_chunk(&mut out, b"").unwrap(); // must not emit a premature terminator
        write_chunk(&mut out, b"{\"event\":\"done\"}\n").unwrap();
        finish_chunked(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(!text.contains("Content-Length"));
        assert!(text.contains("13\r\n{\"event\":\"queued\"}\n\r\n"));
        assert!(text.contains("11\r\n{\"event\":\"done\"}\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }
}
