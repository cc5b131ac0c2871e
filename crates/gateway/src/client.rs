//! A minimal blocking HTTP/1.1 client — just enough to talk to the
//! gateway from tests and the example walkthrough, without external
//! tooling. One request per connection, mirroring the server's
//! `Connection: close` policy.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Send one HTTP/1.1 request and read the full response. `headers` are
/// extra request headers beyond `Host`, `Content-Length`, and
/// `Connection: close`, which are always set.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;

    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    // The body write may fail mid-stream when the server rejects early
    // (e.g. 413 from the Content-Length alone) and closes its read side;
    // like curl, keep going and read whatever response made it back.
    let write_failed = stream
        .write_all(body)
        .and_then(|()| stream.flush())
        .is_err();

    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            // A reset after a partial response still leaves the partial
            // bytes; stop reading and try to parse them.
            Err(_) if !raw.is_empty() => break,
            Err(e) if write_failed => {
                return Err(std::io::Error::new(
                    e.kind(),
                    format!("request body write failed and no response arrived: {e}"),
                ))
            }
            Err(e) => return Err(e),
        }
    }
    parse_response(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"))
}

fn parse_response(raw: &[u8]) -> Option<ClientResponse> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    // "HTTP/1.1 200 OK"
    let status = status_line.split(' ').nth(1)?.parse::<u16>().ok()?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    let body = raw[head_end + 4..].to_vec();
    // A timeout or reset mid-body leaves fewer bytes than the server
    // declared; reject that as malformed rather than handing back a
    // truncated body as if it were the complete response.
    if let Some((_, declared)) = headers.iter().find(|(k, _)| k == "content-length") {
        if declared.parse::<usize>().ok() != Some(body.len()) {
            return None;
        }
    }
    Some(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_response() {
        let raw = b"HTTP/1.1 404 Not Found\r\ncontent-type: application/json\r\n\r\n{\"e\":1}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 404);
        assert_eq!(r.header("Content-Type"), Some("application/json"));
        assert_eq!(r.body_str(), "{\"e\":1}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_none());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_none());
    }

    #[test]
    fn rejects_truncated_bodies() {
        // Declared 20 bytes, only 7 arrived (timeout/reset mid-body).
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 20\r\n\r\n{\"ok\":1";
        assert!(parse_response(raw).is_none());
        // Exact length still parses.
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 7\r\n\r\n{\"ok\":1";
        assert_eq!(parse_response(raw).unwrap().body_str(), "{\"ok\":1");
    }
}
