//! A minimal blocking HTTP/1.1 client over [`std::net::TcpStream`].
//!
//! Used by the integration tests and by `kronpriv-serve --probe`; it speaks exactly the dialect
//! the server emits (`Connection: close`, `Content-Length`-framed JSON bodies), so it reads to
//! EOF and then splits the head from the body.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Sends one request and returns `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    request_with_head(addr, method, path, body).map(|(status, _, body)| (status, body))
}

/// Sends one request and returns `(status, head, body)`: like [`request`], but keeps the raw
/// response head so callers can assert on headers (e.g. `Deprecation: true` on the legacy
/// alias paths).
pub fn request_with_head(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (status, head, body) = parse_response(&raw)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))?;
    Ok((status, head.to_string(), body.to_string()))
}

/// Splits a full `Connection: close` response into `(status, head, body)`.
fn parse_response(raw: &str) -> Option<(u16, &str, &str)> {
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, head, body))
}

/// `GET {path}`.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    request(addr, "GET", path, None)
}

/// `GET {path}` against a streaming endpoint: blocks until the server closes the connection
/// and returns `(status, head, body)` with a `Transfer-Encoding: chunked` body de-chunked.
/// The job event stream follows a running job, so the read timeout is generous.
pub fn get_stream(addr: SocketAddr, path: &str) -> io::Result<(u16, String, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header/body split"))?;
    let head = String::from_utf8_lossy(&raw[..split]).to_string();
    let body_bytes = &raw[split + 4..];
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparseable status line"))?;
    let body = if head.to_ascii_lowercase().contains("transfer-encoding: chunked") {
        decode_chunked(body_bytes)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed chunked body"))?
    } else {
        body_bytes.to_vec()
    };
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
    Ok((status, head, body))
}

/// Decodes a complete `Transfer-Encoding: chunked` body (hex size line, payload, CRLF,
/// repeated; zero-size chunk terminates). `None` if the framing is broken or unterminated.
fn decode_chunked(mut rest: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let newline = rest.windows(2).position(|w| w == b"\r\n")?;
        let size_line = std::str::from_utf8(&rest[..newline]).ok()?;
        let size = usize::from_str_radix(size_line.trim(), 16).ok()?;
        rest = &rest[newline + 2..];
        if size == 0 {
            return Some(out);
        }
        if rest.len() < size + 2 || &rest[size..size + 2] != b"\r\n" {
            return None;
        }
        out.extend_from_slice(&rest[..size]);
        rest = &rest[size + 2..];
    }
}

/// `POST {path}` with a JSON body.
pub fn post_json(addr: SocketAddr, path: &str, body: &str) -> io::Result<(u16, String)> {
    request(addr, "POST", path, Some(body))
}

/// `DELETE {path}`.
pub fn delete(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    request(addr, "DELETE", path, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response_head_and_body() {
        let raw = "HTTP/1.1 202 Accepted\r\nContent-Length: 2\r\n\r\n{}";
        let head = "HTTP/1.1 202 Accepted\r\nContent-Length: 2";
        assert_eq!(parse_response(raw), Some((202, head, "{}")));
        assert!(parse_response("garbage").is_none());
    }

    #[test]
    fn decodes_chunked_bodies_and_rejects_broken_framing() {
        assert_eq!(
            decode_chunked(b"5\r\nhello\r\n8\r\n, world\n\r\n0\r\n\r\n"),
            Some(b"hello, world\n".to_vec())
        );
        assert_eq!(decode_chunked(b"0\r\n\r\n"), Some(Vec::new()));
        assert!(decode_chunked(b"5\r\nhello").is_none(), "unterminated chunk");
        assert!(decode_chunked(b"zz\r\nhello\r\n0\r\n\r\n").is_none(), "bad size line");
        assert!(decode_chunked(b"5\r\nhello, world\r\n").is_none(), "payload/CRLF mismatch");
    }
}
