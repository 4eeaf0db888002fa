//! Minimal HTTP/1.1 request parsing and response writing over
//! `std::net::TcpStream`.
//!
//! The exporter speaks just enough HTTP for scrapers, dashboards, and
//! `curl`: GET requests, a handful of response headers, and
//! `Connection: close` semantics (one request per connection keeps the
//! bounded worker pool's accounting trivial).

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers). Anything
/// larger is rejected; the exporter never needs bodies.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request line: method and path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// HTTP method (`GET` for every endpoint we serve).
    pub method: String,
    /// Path without the query string (e.g. `/metrics`); no endpoint
    /// takes parameters.
    pub path: String,
}

/// Reads and parses one request head from the stream. Returns `None`
/// for a malformed or oversized head (the caller answers 400).
pub fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(None);
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Ok(None);
        }
    }
    let head = String::from_utf8_lossy(&head);
    let line = head.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Ok(None);
    };
    let path = target.split_once('?').map_or(target, |(path, _)| path);
    Ok(Some(Request { method: method.to_string(), path: path.to_string() }))
}

/// Writes a complete response with a body and closes the exchange.
/// Returns the number of bytes written (for the exporter's own byte
/// counter).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<usize> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        status_text(status),
        content_type,
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    Ok(head.len() + body.len())
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}
