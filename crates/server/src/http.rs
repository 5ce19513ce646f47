//! Hand-rolled HTTP/1.1 over `std::net`: just enough of RFC 9112 to
//! serve the REST-ish endpoints — request-line + headers + optional
//! `Content-Length` body in, status + headers + body out, one request
//! per connection (`Connection: close`).
//!
//! The workspace builds without external crates, so there is no hyper
//! here on purpose. Limits are strict and enforced before any
//! allocation proportional to client input: oversized heads and bodies
//! are rejected, malformed syntax becomes a 4xx response, and nothing
//! in this module panics on wire input.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;

use syrk_telemetry::escape_json_into;

/// Cap on the request head (request line + headers). Generous for any
/// curl/browser query against this API.
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on a request body. The API carries parameters in the query
/// string, so bodies are essentially always empty.
pub(crate) const MAX_BODY_BYTES: usize = 64 * 1024;

/// A parsed request: method, decoded path, decoded query parameters.
#[derive(Debug)]
pub(crate) struct Request {
    /// Upper-cased method token (`GET`, `POST`, …).
    pub method: String,
    /// The path component of the target, percent-decoded.
    pub path: String,
    /// Query parameters in order of appearance, percent-decoded.
    pub query: Vec<(String, String)>,
    /// The request body (bounded by [`MAX_BODY_BYTES`]).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of query parameter `name`, if present.
    pub(crate) fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed; each maps to one 4xx status.
#[derive(Debug)]
pub(crate) enum ParseError {
    /// Malformed syntax → 400.
    BadRequest(String),
    /// Head or body over the caps → 431 / 413.
    TooLarge(&'static str),
    /// The socket failed mid-read; no response is owed.
    Io,
}

impl ParseError {
    /// Render the error as the HTTP response the client is owed
    /// (`None` for I/O failures, where the connection is just dropped).
    pub(crate) fn to_response(&self) -> Option<Response> {
        match self {
            ParseError::BadRequest(msg) => Some(Response::json_error(400, msg)),
            ParseError::TooLarge(what) => Some(Response::json_error(413, what)),
            ParseError::Io => None,
        }
    }
}

/// Read and parse one request from `stream`.
pub(crate) fn read_request(stream: &mut TcpStream) -> Result<Request, ParseError> {
    // Accumulate bytes until the blank line ending the head; anything
    // read past it is the start of the body.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(ParseError::TooLarge("request head exceeds 16 KiB"));
        }
        let n = stream.read(&mut chunk).map_err(|_| ParseError::Io)?;
        if n == 0 {
            return Err(ParseError::BadRequest(
                "connection closed before end of request head".into(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ParseError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ParseError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(ParseError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::BadRequest(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::BadRequest(format!(
                "malformed header line {line:?}"
            )));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| ParseError::BadRequest("malformed Content-Length".into()))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge("request body exceeds 64 KiB"));
    }
    // The body: whatever was read past the head, then the remainder off
    // the wire.
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|_| ParseError::Io)?;
        if n == 0 {
            return Err(ParseError::BadRequest(
                "connection closed before end of request body".into(),
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    let (path, query) = split_target(target)?;
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        body,
    })
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Split a request target into its decoded path and query parameters.
fn split_target(target: &str) -> Result<(String, Vec<(String, String)>), ParseError> {
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)
        .ok_or_else(|| ParseError::BadRequest("malformed percent-encoding in path".into()))?;
    let mut query = Vec::new();
    if let Some(raw) = raw_query {
        for pair in raw.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let k = percent_decode(k).ok_or_else(|| {
                ParseError::BadRequest("malformed percent-encoding in query".into())
            })?;
            let v = percent_decode(v).ok_or_else(|| {
                ParseError::BadRequest("malformed percent-encoding in query".into())
            })?;
            query.push((k, v));
        }
    }
    Ok((path, query))
}

/// Decode `%XX` escapes and `+`-as-space; `None` on truncated or
/// non-hex escapes or non-UTF-8 results.
fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hi = (hex[0] as char).to_digit(16)?;
                let lo = (hex[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// An HTTP response ready to serialize: status, content type, body,
/// plus any extra headers (e.g. `Retry-After` on a 503).
#[derive(Debug)]
pub(crate) struct Response {
    /// Status code (200, 400, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Extra headers appended after the standard set.
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    fn typed(status: u16, content_type: &'static str, body: String) -> Self {
        Response {
            status,
            content_type,
            body,
            headers: Vec::new(),
        }
    }

    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self::typed(status, "application/json", body)
    }

    /// A JSON error document: `{"error": "..."}`.
    pub(crate) fn json_error(status: u16, message: &str) -> Self {
        let mut body = String::from("{\"error\": \"");
        escape_json_into(&mut body, message);
        body.push_str("\"}\n");
        Self::json(status, body)
    }

    /// An HTML response.
    pub(crate) fn html(status: u16, body: String) -> Self {
        Self::typed(status, "text/html; charset=utf-8", body)
    }

    /// A plain-text response.
    pub(crate) fn text(status: u16, body: String) -> Self {
        Self::typed(status, "text/plain; charset=utf-8", body)
    }

    /// Append an extra response header (builder-style).
    pub(crate) fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.headers.push((name, value));
        self
    }

    /// Send status line, headers and body in one vectored write, without
    /// copying the body behind the head (two writes would hand Nagle's
    /// algorithm a stalled small segment per response).
    pub(crate) fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str("\r\n");
        let mut slices = [head.as_bytes(), self.body.as_bytes()].map(IoSlice::new);
        let mut unsent = &mut slices[..];
        while !unsent.is_empty() {
            match stream.write_vectored(unsent) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut unsent, n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        stream.flush()
    }
}

/// Reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c").as_deref(), Some("a b c"));
        assert_eq!(percent_decode("%2Fx").as_deref(), Some("/x"));
        assert_eq!(percent_decode("plain").as_deref(), Some("plain"));
        assert!(percent_decode("%zz").is_none());
        assert!(percent_decode("%2").is_none());
    }

    #[test]
    fn target_splitting() {
        let (path, query) = split_target("/plan?n1=10&n2=20&p=4").unwrap();
        assert_eq!(path, "/plan");
        assert_eq!(
            query,
            vec![
                ("n1".into(), "10".into()),
                ("n2".into(), "20".into()),
                ("p".into(), "4".into())
            ]
        );
        let (path, query) = split_target("/metrics").unwrap();
        assert_eq!(path, "/metrics");
        assert!(query.is_empty());
        // Empty pairs are skipped, valueless keys decode to "".
        let (_, query) = split_target("/x?a&&b=1").unwrap();
        assert_eq!(
            query,
            vec![("a".into(), "".into()), ("b".into(), "1".into())]
        );
    }
}
