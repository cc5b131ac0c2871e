//! Minimal HTTP/1.1 on `std::io`: request parsing with hard limits and
//! response writing.
//!
//! The gateway speaks exactly the subset its endpoints need — one request
//! per connection (`Connection: close`), `Content-Length` bodies, no
//! chunked transfer encoding, no keep-alive (listed as an open item in the
//! ROADMAP). What it does speak, it speaks defensively: the request head
//! and body have byte ceilings, and every malformed input maps to a typed
//! [`HttpError`] that the server layer renders as a 4xx — a bad request
//! must never reach a serving worker.

use std::io::{Read, Write};

/// Hard limits applied while reading a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of body (larger `Content-Length`s are rejected with
    /// 413 before the body is read).
    pub max_body_bytes: usize,
    /// Overall wall-clock ceiling for reading one request. The socket
    /// read timeout is per-`read()` and resets on every byte, so a
    /// slowloris client dribbling one byte per poll could otherwise hold
    /// a worker for hours within the byte ceilings alone.
    pub max_request_time: std::time::Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
            max_request_time: std::time::Duration::from_secs(30),
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with any `?query` suffix split off.
    pub path: String,
    /// Header name/value pairs; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw request body (empty when there is no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each variant carries the status code
/// the server should answer with.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request line, header, or framing.
    BadRequest(String),
    /// The declared `Content-Length` exceeds the body limit.
    PayloadTooLarge {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The request head (line + headers) exceeds the head limit.
    HeadTooLarge {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The underlying socket failed or timed out.
    Io(std::io::Error),
}

impl HttpError {
    /// The HTTP status code this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::PayloadTooLarge { .. } => 413,
            HttpError::HeadTooLarge { .. } => 431,
            HttpError::Io(_) => 408,
        }
    }

    /// Human-readable description for the error body.
    pub fn message(&self) -> String {
        match self {
            HttpError::BadRequest(m) => m.clone(),
            HttpError::PayloadTooLarge { limit } => {
                format!("request body exceeds the {limit}-byte limit")
            }
            HttpError::HeadTooLarge { limit } => {
                format!("request head exceeds the {limit}-byte limit")
            }
            HttpError::Io(e) => format!("connection error: {e}"),
        }
    }
}

/// Read and parse one HTTP/1.x request from `stream`. The stream is also
/// written to in exactly one case: an interim `100 Continue` when the
/// client sent `Expect: 100-continue` and the body is acceptable (curl
/// does this for bodies over 1 KiB and otherwise stalls ~1 s waiting).
pub fn read_request<S: Read + Write>(stream: &mut S, limits: Limits) -> Result<Request, HttpError> {
    let started = std::time::Instant::now();
    let overtime = |started: std::time::Instant| -> Result<(), HttpError> {
        if started.elapsed() > limits.max_request_time {
            Err(HttpError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request took longer than the per-request time ceiling",
            )))
        } else {
            Ok(())
        }
    };
    // Accumulate until the blank line that ends the head. Reads go through
    // a small stack buffer; the head buffer is capped.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge {
                limit: limits.max_head_bytes,
            });
        }
        overtime(started)?;
        let n = stream.read(&mut chunk).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::BadRequest(
                "connection closed before the request head completed".into(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    if head_end > limits.max_head_bytes {
        return Err(HttpError::HeadTooLarge {
            limit: limits.max_head_bytes,
        });
    }

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("request head is not valid UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol version {version:?}"
        )));
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest(format!(
            "malformed method token {method:?}"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header line {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadRequest(format!(
                "malformed header name {name:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // Body framing: Content-Length only. Chunked encoding is out of scope
    // and explicitly rejected rather than silently misparsed.
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::BadRequest(
            "chunked transfer encoding is not supported".into(),
        ));
    }
    // RFC 9112 §6.3: a repeated Content-Length, or one that is not a bare
    // run of digits (`usize::from_str` would take a leading `+`), leaves the
    // body's end unknown, so the request is refused rather than guessed at.
    let mut lengths = headers.iter().filter(|(k, _)| k == "content-length");
    let content_length = match (lengths.next(), lengths.next()) {
        (None, _) => 0,
        (Some(_), Some(_)) => {
            return Err(HttpError::BadRequest(
                "more than one Content-Length header".into(),
            ))
        }
        (Some((_, v)), None) => Some(v)
            .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| HttpError::BadRequest(format!("unparseable Content-Length {v:?}")))?,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::PayloadTooLarge {
            limit: limits.max_body_bytes,
        });
    }

    let mut body = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        return Err(HttpError::BadRequest(
            "more body bytes than Content-Length declares".into(),
        ));
    }
    // The body passed the ceiling check: release a waiting client. Sent
    // unconditionally on Expect (RFC 9110 permits it even if the body has
    // already started arriving).
    if headers
        .iter()
        .any(|(k, v)| k == "expect" && v.eq_ignore_ascii_case("100-continue"))
    {
        stream
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .and_then(|()| stream.flush())
            .map_err(HttpError::Io)?;
    }
    while body.len() < content_length {
        overtime(started)?;
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..want]).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::BadRequest("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }

    let path = target.split('?').next().unwrap_or(target).to_string();
    Ok(Request {
        method: method.to_string(),
        path,
        headers,
        body,
    })
}

/// Offset of the `\r\n\r\n` terminating the head, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Canonical reason phrase for the status codes the gateway emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// A response ready to be written: status, content type, body, and any
/// extra headers.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Additional `(name, value)` headers.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    /// A response with an explicit content type.
    pub fn text_with_type(status: u16, content_type: &'static str, body: String) -> Response {
        Response {
            status,
            content_type,
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    /// Serialize the response to `stream` (HTTP/1.1, `Connection: close`).
    /// Returns the number of bytes written.
    pub fn write_to<S: Write>(&self, stream: &mut S) -> std::io::Result<u64> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()?;
        Ok(head.len() as u64 + self.body.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test stream: reads from a slice, captures writes (the interim
    /// `100 Continue`).
    struct TestStream<'a> {
        input: &'a [u8],
        written: Vec<u8>,
    }

    impl<'a> TestStream<'a> {
        fn new(input: &'a [u8]) -> Self {
            Self {
                input,
                written: Vec::new(),
            }
        }
    }

    impl Read for TestStream<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.input.len().min(buf.len());
            buf[..n].copy_from_slice(&self.input[..n]);
            self.input = &self.input[n..];
            Ok(n)
        }
    }

    impl Write for TestStream<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn read_str(raw: &str, limits: Limits) -> Result<Request, HttpError> {
        read_request(&mut TestStream::new(raw.as_bytes()), limits)
    }

    fn parse_ok(raw: &str) -> Request {
        read_str(raw, Limits::default()).expect("request parses")
    }

    #[test]
    fn parses_a_simple_get() {
        let r = parse_ok("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.header("HOST"), Some("x"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body_and_strips_query() {
        let r = parse_ok(
            "POST /v1/models/higgs/predict?verbose=1 HTTP/1.1\r\n\
             Content-Length: 9\r\nX-Priority: high\r\n\r\n[[1,2,3]]",
        );
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/models/higgs/predict");
        assert_eq!(r.body, b"[[1,2,3]]");
        assert_eq!(r.header("x-priority"), Some("high"));
    }

    #[test]
    fn body_split_across_reads_reassembles() {
        // A reader that hands out one byte at a time exercises the
        // incremental head/body accumulation.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        impl Write for OneByte<'_> {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let raw = b"PUT /v1/models/m HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let r = read_request(&mut OneByte(raw), Limits::default()).unwrap();
        assert_eq!(r.method, "PUT");
        assert_eq!(r.body, b"body");
    }

    #[test]
    fn expect_100_continue_gets_the_interim_response() {
        let mut stream = TestStream::new(
            b"POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 4\r\n\r\nbody",
        );
        let r = read_request(&mut stream, Limits::default()).unwrap();
        assert_eq!(r.body, b"body");
        assert_eq!(stream.written, b"HTTP/1.1 100 Continue\r\n\r\n");
        // No Expect header: nothing is written while reading.
        let mut plain = TestStream::new(b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody");
        read_request(&mut plain, Limits::default()).unwrap();
        assert!(plain.written.is_empty());
        // An over-limit body is still 413, with no 100 sent first.
        let mut over = TestStream::new(
            b"POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 999\r\n\r\n",
        );
        let got = read_request(
            &mut over,
            Limits {
                max_body_bytes: 64,
                ..Limits::default()
            },
        );
        assert!(matches!(got, Err(HttpError::PayloadTooLarge { .. })));
        assert!(over.written.is_empty());
    }

    #[test]
    fn per_request_time_ceiling_bounds_slow_clients() {
        // A reader that dribbles one byte per call, forever under the
        // per-read timeout but over the per-request ceiling.
        struct Dribble(u8);
        impl Read for Dribble {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                std::thread::sleep(std::time::Duration::from_millis(2));
                buf[0] = self.0;
                Ok(1)
            }
        }
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let got = read_request(
            &mut Dribble(b'x'),
            Limits {
                max_request_time: std::time::Duration::from_millis(20),
                ..Limits::default()
            },
        );
        match got {
            Err(err @ HttpError::Io(_)) => assert_eq!(err.status(), 408),
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_heads() {
        for raw in [
            "\r\n\r\n",
            "GET\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "GET /x HTTP/2\r\n\r\n",
            "get /x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1\r\nbad header\r\n\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: +4\r\n\r\nabcd",
            "POST /x HTTP/1.1\r\nContent-Length: -0\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: 4, 4\r\n\r\nabcd",
            "POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 9\r\n\r\nabcd",
            "POST /x HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 4\r\n\r\nabcd",
            "GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            let got = read_str(raw, Limits::default());
            assert!(
                matches!(got, Err(HttpError::BadRequest(_))),
                "{raw:?} must be a bad request, got {got:?}"
            );
        }
    }

    #[test]
    fn oversized_declared_body_is_rejected_before_reading_it() {
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        let got = read_str(
            raw,
            Limits {
                max_head_bytes: 1024,
                max_body_bytes: 64,
                ..Limits::default()
            },
        );
        assert!(matches!(got, Err(HttpError::PayloadTooLarge { limit: 64 })));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(4096));
        let got = read_str(
            &raw,
            Limits {
                max_head_bytes: 256,
                max_body_bytes: 64,
                ..Limits::default()
            },
        );
        assert!(matches!(got, Err(HttpError::HeadTooLarge { limit: 256 })));
    }

    #[test]
    fn truncated_requests_are_bad_requests() {
        for raw in [
            "GET /x HTTP/1.1\r\n",                               // head never ends
            "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", // body short
        ] {
            let got = read_str(raw, Limits::default());
            assert!(matches!(got, Err(HttpError::BadRequest(_))), "{raw:?}");
        }
    }

    #[test]
    fn response_serializes_with_length_and_close() {
        let mut out = Vec::new();
        let written = Response::json(200, "{\"ok\":true}".into())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
        assert_eq!(written as usize, text.len());
    }

    #[test]
    fn error_variants_map_to_their_status_codes() {
        assert_eq!(HttpError::BadRequest("x".into()).status(), 400);
        assert_eq!(HttpError::PayloadTooLarge { limit: 1 }.status(), 413);
        assert_eq!(HttpError::HeadTooLarge { limit: 1 }.status(), 431);
    }
}
