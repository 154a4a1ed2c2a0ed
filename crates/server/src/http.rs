//! Minimal HTTP/1.1 support: incremental request parsing and response
//! writing.
//!
//! The workspace builds without crates.io access, so this implements
//! exactly the subset the query server needs: requests parsed
//! *incrementally* out of a connection's accumulation buffer (so the
//! nonblocking event loop can feed partial reads and pipelined requests
//! through the same entry point), bodies sized by `Content-Length`,
//! percent-decoded query strings, and keep-alive-aware response
//! serialization. No chunked transfer, no TLS.
//!
//! [`parse_request`] is the one parsing entry point: given every byte
//! received so far it either asks for more ([`ParseStatus::Incomplete`]),
//! yields a request plus how many bytes it consumed (the remainder is the
//! next pipelined request), or rejects the bytes as not-HTTP. Limits are
//! enforced *during* accumulation — an over-long header line or header
//! section fails fast, long before a slow-loris client could balloon the
//! buffer.

use std::fmt;

/// Upper bound on one header line (request line included).
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Upper bound on the number of header lines.
const MAX_HEADERS: usize = 100;
/// Upper bound on the whole header section (request line through the
/// blank line), enforced while the bytes accumulate.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parse-level failure (distinct from transport I/O errors).
#[derive(Debug)]
pub enum HttpError {
    /// The bytes received do not form an HTTP/1.x request.
    Malformed(String),
    /// The declared `Content-Length` exceeds the configured cap.
    BodyTooLarge {
        /// Bytes the request declared.
        declared: usize,
        /// The server's configured cap.
        limit: usize,
    },
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds limit of {limit}")
            }
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Percent-decoded path without the query string.
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` bytes; empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// First query parameter named `name`.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First header named `name` (case-insensitive; pass lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Outcome of one [`parse_request`] attempt over an accumulation buffer.
#[derive(Debug)]
pub enum ParseStatus {
    /// The buffer holds a prefix of a valid request; read more bytes.
    Incomplete,
    /// A complete request was parsed.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request occupied; everything past
        /// `consumed` belongs to the next pipelined request.
        consumed: usize,
        /// Whether the client's HTTP version + `Connection` header ask
        /// for the connection to stay open after the response (HTTP/1.1
        /// defaults to keep-alive, HTTP/1.0 to close).
        keep_alive: bool,
    },
}

/// Parses one request from the front of `buf`, incrementally: call again
/// with a longer buffer on [`ParseStatus::Incomplete`]. Leading blank
/// lines (a robustness allowance for sloppy pipelining clients) are
/// skipped and counted into `consumed`.
pub fn parse_request(buf: &[u8], max_body: usize) -> Result<ParseStatus, HttpError> {
    // Skip leading CRLFs so "request CRLF body CRLF CRLF request" still
    // pipelines cleanly.
    let mut start = 0;
    while start < buf.len() && (buf[start] == b'\r' || buf[start] == b'\n') {
        start += 1;
    }
    let head = &buf[start..];

    // Walk the header section line by line; `head_end` is the offset just
    // past the blank line terminating it.
    let mut lines: Vec<&[u8]> = Vec::new();
    let mut pos = 0;
    let head_end = loop {
        let Some(nl) = head[pos..].iter().position(|&b| b == b'\n') else {
            if head.len() > MAX_HEAD_BYTES {
                return Err(HttpError::Malformed("header section too long".into()));
            }
            if head.len() - pos > MAX_LINE_BYTES {
                return Err(HttpError::Malformed("header line too long".into()));
            }
            return Ok(ParseStatus::Incomplete);
        };
        let mut line = &head[pos..pos + nl];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if line.len() > MAX_LINE_BYTES {
            return Err(HttpError::Malformed("header line too long".into()));
        }
        pos += nl + 1;
        if pos > MAX_HEAD_BYTES {
            return Err(HttpError::Malformed("header section too long".into()));
        }
        if line.is_empty() {
            break pos;
        }
        if lines.len() > MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers".into()));
        }
        lines.push(line);
    };

    let mut it = lines.iter();
    let request_line = std::str::from_utf8(it.next().expect("blank-line break implies a line"))
        .map_err(|_| HttpError::Malformed("non-UTF-8 header".into()))?;
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(HttpError::Malformed(format!("bad request line {request_line:?}"))),
    };
    let Some(minor) = version.strip_prefix("HTTP/1.") else {
        return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
    };
    let http10 = minor == "0";
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };

    let mut headers = Vec::with_capacity(lines.len() - 1);
    for raw in it {
        let line = std::str::from_utf8(raw)
            .map_err(|_| HttpError::Malformed("non-UTF-8 header".into()))?;
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge { declared: content_length, limit: max_body });
    }
    let body_start = start + head_end;
    if buf.len() < body_start + content_length {
        return Ok(ParseStatus::Incomplete);
    }
    let body = buf[body_start..body_start + content_length].to_vec();

    // HTTP/1.1 keeps the connection alive unless told otherwise;
    // HTTP/1.0 closes unless the client opts in. `Connection` values are
    // comma-separated token lists.
    let keep_alive = {
        let tokens = headers.iter().find(|(k, _)| k == "connection").map(|(_, v)| v.as_str());
        let has = |tok: &str| {
            tokens.is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(tok)))
        };
        if has("close") {
            false
        } else if has("keep-alive") {
            true
        } else {
            !http10
        }
    };

    Ok(ParseStatus::Complete {
        request: Request {
            method: method.to_owned(),
            path: percent_decode(raw_path),
            query: parse_query(raw_query),
            headers,
            body,
        },
        consumed: body_start + content_length,
        keep_alive,
    })
}

/// Splits and percent-decodes an `a=1&b=two` query string.
pub fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Decodes `%XX` escapes and `+`-as-space; invalid escapes pass through
/// verbatim, invalid UTF-8 becomes replacement characters.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => match (hex(bytes.get(i + 1)), hex(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
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
    String::from_utf8_lossy(&out).into_owned()
}

fn hex(b: Option<&u8>) -> Option<u8> {
    (*b? as char).to_digit(16).map(|d| d as u8)
}

/// One HTTP response; the `Connection` header is chosen at serialization
/// time, so the same response can close or keep the connection alive.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Additional headers (e.g. `Retry-After`, `X-Swope-Cache`).
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self { status, content_type: "application/json", body: body.into(), extra_headers: vec![] }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            extra_headers: vec![],
        }
    }

    /// A JSON error response with a `{"error": ...}` body.
    pub fn error(status: u16, message: &str) -> Self {
        let mut w = swope_obs::json::ObjectWriter::new();
        w.str_field("error", message);
        Self::json(status, w.finish())
    }

    /// Returns `self` with an extra header appended.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.extra_headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Serializes the response (status line, headers, body) into one byte
    /// vector, announcing `Connection: keep-alive` or `close` per
    /// `keep_alive` — the body bytes are identical either way (the
    /// byte-identity contract covers bodies, not transport framing).
    pub fn serialize(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// Reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        match parse_request(raw.as_bytes(), 1024)? {
            ParseStatus::Complete { request, .. } => Ok(request),
            ParseStatus::Incomplete => panic!("incomplete request: {raw:?}"),
        }
    }

    #[test]
    fn parses_get_with_query() {
        let r = parse(
            "GET /query/entropy-topk?dataset=tiny&k=3&name=a%20b HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/query/entropy-topk");
        assert_eq!(r.param("dataset"), Some("tiny"));
        assert_eq!(r.param("k"), Some("3"));
        assert_eq!(r.param("name"), Some("a b"));
        assert_eq!(r.header("host"), Some("x"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let r = parse("POST /datasets?name=d HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn rejects_oversized_body_and_bad_lines() {
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(HttpError::BodyTooLarge { declared: 9999, .. })
        ));
        assert!(matches!(parse("NONSENSE\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse("GET / SPDY/99\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nnocolonhere\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn incremental_parse_waits_for_the_full_request() {
        let full = "POST /d HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        // Every proper prefix is Incomplete, never an error.
        for cut in 0..full.len() {
            assert!(
                matches!(parse_request(&full.as_bytes()[..cut], 1024), Ok(ParseStatus::Incomplete)),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let ParseStatus::Complete { request, consumed, keep_alive } =
            parse_request(full.as_bytes(), 1024).unwrap()
        else {
            panic!("full request should parse");
        };
        assert_eq!(request.body, b"hello");
        assert_eq!(consumed, full.len());
        assert!(keep_alive);
    }

    #[test]
    fn pipelined_requests_consume_exactly_one_request_each() {
        let two = "GET /a HTTP/1.1\r\n\r\nGET /b?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n";
        let ParseStatus::Complete { request, consumed, keep_alive } =
            parse_request(two.as_bytes(), 1024).unwrap()
        else {
            panic!("first request should parse");
        };
        assert_eq!(request.path, "/a");
        assert!(keep_alive);
        let ParseStatus::Complete { request, consumed: c2, keep_alive } =
            parse_request(&two.as_bytes()[consumed..], 1024).unwrap()
        else {
            panic!("second request should parse");
        };
        assert_eq!(request.path, "/b");
        assert_eq!(request.param("x"), Some("1"));
        assert!(!keep_alive, "Connection: close must be honored");
        assert_eq!(consumed + c2, two.len());
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let ka = |raw: &str| match parse_request(raw.as_bytes(), 1024).unwrap() {
            ParseStatus::Complete { keep_alive, .. } => keep_alive,
            ParseStatus::Incomplete => panic!("incomplete: {raw:?}"),
        };
        assert!(ka("GET / HTTP/1.1\r\n\r\n"));
        assert!(!ka("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!ka("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n"));
        assert!(!ka("GET / HTTP/1.0\r\n\r\n"));
        assert!(ka("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
        assert!(!ka("GET / HTTP/1.0\r\nConnection: close, te\r\n\r\n"));
    }

    #[test]
    fn header_limits_trip_during_accumulation() {
        // A single over-long line fails before any terminator arrives.
        let long = format!("GET /{} HTTP", "a".repeat(MAX_LINE_BYTES + 10));
        assert!(matches!(
            parse_request(long.as_bytes(), 1024),
            Err(HttpError::Malformed(m)) if m.contains("too long")
        ));
        // An endless header section fails at the section cap.
        let mut many = String::from("GET / HTTP/1.1\r\n");
        while many.len() <= MAX_HEAD_BYTES {
            many.push_str("a: b\r\n");
        }
        assert!(matches!(parse_request(many.as_bytes(), 1024), Err(HttpError::Malformed(_))));
        // Too many tiny headers fail on the count cap.
        let mut counted = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 2) {
            counted.push_str(&format!("h{i}: v\r\n"));
        }
        assert!(matches!(parse_request(counted.as_bytes(), 1024), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn percent_decoding_handles_escapes() {
        assert_eq!(percent_decode("a%2Fb+c"), "a/b c");
        assert_eq!(percent_decode("100%"), "100%"); // dangling escape passes through
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn response_writes_headers_and_body() {
        let out = Response::json(200, "{\"ok\":true}")
            .with_header("X-Swope-Cache", "hit")
            .serialize(false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("X-Swope-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn serialization_differs_only_in_the_connection_header() {
        let resp = Response::json(200, "{\"ok\":true}");
        let ka = String::from_utf8(resp.serialize(true)).unwrap();
        let cl = String::from_utf8(resp.serialize(false)).unwrap();
        assert!(ka.contains("Connection: keep-alive\r\n"));
        assert!(cl.contains("Connection: close\r\n"));
        assert_eq!(
            ka.replace("Connection: keep-alive", "Connection: close"),
            cl,
            "bodies and all other headers must be identical"
        );
    }

    #[test]
    fn error_response_is_json() {
        let r = Response::error(404, "no such dataset");
        assert_eq!(r.status, 404);
        assert_eq!(r.body, b"{\"error\":\"no such dataset\"}");
        assert_eq!(status_text(429), "Too Many Requests");
        assert_eq!(status_text(408), "Request Timeout");
    }
}
