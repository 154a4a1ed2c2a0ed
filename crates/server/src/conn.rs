//! Per-connection state for the event loop.
//!
//! Each accepted socket becomes a [`Conn`]: a nonblocking `TcpStream`
//! plus an accumulation buffer, an outgoing write queue, and a state tag
//! the event loop drives — `Reading` (accumulating request bytes),
//! `Dispatched` (a worker owns the request; the loop ignores readiness
//! until the completion arrives), `Writing` (flushing the serialized
//! response), and `Idle` (keep-alive, waiting for the next request).
//! Pipelined requests live in the same buffer: after a response flushes,
//! the leftover bytes are parsed immediately rather than waiting for the
//! socket to become readable again.
//!
//! All methods here are nonblocking and syscall-thin; policy (quotas,
//! shedding, dispatch) lives in `server.rs`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::http::{self, HttpError, ParseStatus, Request, Response};

/// What the event loop is waiting on for a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Accumulating bytes of the next request.
    Reading,
    /// A worker owns the current request; no socket interest.
    Dispatched,
    /// Flushing the serialized response.
    Writing,
    /// Keep-alive: response flushed, no request bytes pending.
    Idle,
}

/// Outcome of asking a connection for its next parseable request.
pub enum Parsed {
    /// Not enough bytes yet — keep reading.
    Incomplete,
    /// A complete request; `keep_alive` is the client's framing wish.
    Request {
        /// The parsed request (boxed: `Conn` lives in a slab).
        request: Box<Request>,
        /// Whether the connection should outlive the response.
        keep_alive: bool,
    },
    /// The buffered bytes are an SWPC cluster-peer handshake, not HTTP.
    Cluster,
    /// The bytes are unusable as HTTP; answer with this and close.
    Reject(Box<Response>),
}

/// Result of pumping bytes between the socket and the buffers.
#[derive(Debug, PartialEq, Eq)]
pub enum Pump {
    /// Made progress (or no progress was possible without blocking).
    Progress,
    /// The peer closed (EOF or connection reset); drop the connection.
    Closed,
}

/// One live client connection owned by the event loop.
pub struct Conn {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Current state tag.
    pub state: ConnState,
    /// Monotonic id assigned at accept (slab tokens are reused; ids are
    /// not) — surfaced in the access log as `conn=`.
    pub id: u64,
    /// Requests completed or in flight on this connection; the 1-based
    /// ordinal of the current request, surfaced as `req=`.
    pub requests: u64,
    /// Bumped on every dispatch; a worker completion carrying a stale
    /// generation (the conn was closed and the slab slot reused) is
    /// discarded instead of answering the wrong client.
    pub generation: u64,
    /// Close after the current response flushes (`Connection: close`,
    /// HTTP/1.0, inline errors, or server drain).
    pub close_after_write: bool,
    /// Last socket activity — drives idle/read timeouts.
    pub last_activity: Instant,
    /// When the first byte of the current request arrived; anchors the
    /// trace clock so `queue_wait` spans keep their meaning.
    pub read_started: Option<Instant>,
    /// The readiness interest currently registered with the poller, so
    /// the event loop can skip no-op `modify` syscalls — pipelined
    /// requests would otherwise pay a READ→NONE→READ `epoll_ctl` pair
    /// each.
    pub interest: crate::event::Interest,
    buf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
}

impl Conn {
    /// Wraps an accepted, already-nonblocking stream.
    pub fn new(stream: TcpStream, id: u64, now: Instant) -> Self {
        Self {
            stream,
            state: ConnState::Reading,
            id,
            requests: 0,
            generation: 0,
            close_after_write: false,
            last_activity: now,
            read_started: None,
            interest: crate::event::Interest::READ,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
        }
    }

    /// Reads as much as the socket will give without blocking,
    /// appending to the accumulation buffer. `Closed` means EOF/reset.
    pub fn fill(&mut self, now: Instant) -> io::Result<Pump> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(Pump::Closed),
                Ok(n) => {
                    if self.read_started.is_none() {
                        self.read_started = Some(now);
                    }
                    self.last_activity = now;
                    self.buf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        return Ok(Pump::Progress);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(Pump::Progress),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionReset | io::ErrorKind::BrokenPipe
                    ) =>
                {
                    return Ok(Pump::Closed)
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Whether any request bytes are waiting in the buffer.
    pub fn has_buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Tries to parse the next request out of the accumulated bytes.
    ///
    /// The first call on a fresh connection sniffs for the SWPC cluster
    /// magic — peer sessions share the HTTP port — and reports
    /// [`Parsed::Cluster`] without consuming anything, so the peer
    /// handler sees a pristine byte stream (buffered prefix included,
    /// via [`Conn::take_buffered`]).
    pub fn take_request(&mut self, max_body: usize) -> Parsed {
        if self.requests == 0 && !self.buf.is_empty() {
            let magic = swope_cluster::MAGIC;
            let n = self.buf.len().min(magic.len());
            if self.buf[..n] == magic[..n] {
                if n < magic.len() {
                    return Parsed::Incomplete; // could still be either
                }
                return Parsed::Cluster;
            }
        }
        match http::parse_request(&self.buf, max_body) {
            Ok(ParseStatus::Incomplete) => Parsed::Incomplete,
            Ok(ParseStatus::Complete { request, consumed, keep_alive }) => {
                self.buf.drain(..consumed);
                self.requests += 1;
                Parsed::Request { request: Box::new(request), keep_alive }
            }
            Err(HttpError::BodyTooLarge { declared, limit }) => Parsed::Reject(Box::new(
                Response::error(413, &format!("body of {declared} bytes exceeds limit of {limit}")),
            )),
            Err(e) => Parsed::Reject(Box::new(Response::error(400, &e.to_string()))),
        }
    }

    /// Hands over the buffered bytes (used when a connection turns out
    /// to be an SWPC peer session: the dedicated peer thread must see
    /// the bytes the event loop already consumed from the socket).
    pub fn take_buffered(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// Queues a serialized response for writing.
    pub fn queue_response(&mut self, resp: &Response, keep_alive: bool) {
        debug_assert!(self.out_pos == self.out.len(), "previous response still in flight");
        self.out = resp.serialize(keep_alive);
        self.out_pos = 0;
        if !keep_alive {
            self.close_after_write = true;
        }
        self.state = ConnState::Writing;
    }

    /// Appends a serialized response behind whatever is already queued.
    /// A batch of pipelined requests answers with one output buffer —
    /// and one socket write — instead of a write per response.
    pub fn append_response(&mut self, resp: &Response, keep_alive: bool) {
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        self.out.extend_from_slice(&resp.serialize(keep_alive));
        if !keep_alive {
            self.close_after_write = true;
        }
        self.state = ConnState::Writing;
    }

    /// Writes as much of the queued response as the socket accepts.
    /// Returns `true` when the whole response has been flushed.
    pub fn flush_out(&mut self, now: Instant) -> io::Result<bool> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "socket accepted 0 bytes"))
                }
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out = Vec::new();
        self.out_pos = 0;
        Ok(true)
    }

    /// Marks the response cycle done: back to `Idle` (or `Reading` when
    /// pipelined bytes are already buffered) and resets the per-request
    /// arrival clock.
    pub fn response_done(&mut self) {
        self.read_started = None;
        self.state = if self.buf.is_empty() { ConnState::Idle } else { ConnState::Reading };
    }

    /// Shuts down the write half and drains pending inbound bytes so the
    /// kernel sends FIN rather than RST (an RST can destroy the response
    /// sitting in the client's receive buffer).
    pub fn close_gracefully(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        let mut sink = [0u8; 4096];
        // Nonblocking socket: drain whatever is already queued, then stop.
        while let Ok(n) = self.stream.read(&mut sink) {
            if n == 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, Conn::new(server, 1, Instant::now()))
    }

    #[test]
    fn fill_and_parse_round_trip() {
        let (mut client, mut conn) = pair();
        assert!(matches!(conn.take_request(1024), Parsed::Incomplete));
        client.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(conn.fill(Instant::now()).unwrap(), Pump::Progress);
        assert!(conn.read_started.is_some());
        match conn.take_request(1024) {
            Parsed::Request { request, keep_alive } => {
                assert_eq!(request.path, "/healthz");
                assert!(keep_alive);
            }
            _ => panic!("expected a parsed request"),
        }
        assert_eq!(conn.requests, 1);
        assert!(!conn.has_buffered());
    }

    #[test]
    fn pipelined_bytes_stay_buffered_between_requests() {
        let (mut client, mut conn) = pair();
        client
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        conn.fill(Instant::now()).unwrap();
        let Parsed::Request { request, keep_alive } = conn.take_request(1024) else {
            panic!("first request should parse");
        };
        assert_eq!(request.path, "/a");
        assert!(keep_alive);
        assert!(conn.has_buffered(), "second request must remain buffered");
        let Parsed::Request { request, keep_alive } = conn.take_request(1024) else {
            panic!("second request should parse");
        };
        assert_eq!(request.path, "/b");
        assert!(!keep_alive);
        assert_eq!(conn.requests, 2);
    }

    #[test]
    fn cluster_magic_is_sniffed_without_consuming() {
        let (mut client, mut conn) = pair();
        // One byte of the magic: ambiguous, must wait.
        client.write_all(&swope_cluster::MAGIC[..1]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        conn.fill(Instant::now()).unwrap();
        assert!(matches!(conn.take_request(1024), Parsed::Incomplete));
        client.write_all(&swope_cluster::MAGIC[1..]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        conn.fill(Instant::now()).unwrap();
        assert!(matches!(conn.take_request(1024), Parsed::Cluster));
        assert_eq!(conn.take_buffered(), swope_cluster::MAGIC.to_vec());
    }

    #[test]
    fn malformed_bytes_become_a_400_reject() {
        let (mut client, mut conn) = pair();
        client.write_all(b"NOT HTTP AT ALL\r\n\r\n").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        conn.fill(Instant::now()).unwrap();
        match conn.take_request(1024) {
            Parsed::Reject(resp) => assert_eq!(resp.status, 400),
            _ => panic!("expected a reject"),
        }
    }

    #[test]
    fn queue_and_flush_then_idle_or_reading() {
        let (mut client, mut conn) = pair();
        let resp = Response::text(200, "hi");
        conn.queue_response(&resp, true);
        assert_eq!(conn.state, ConnState::Writing);
        assert!(conn.flush_out(Instant::now()).unwrap());
        assert!(conn.flush_out(Instant::now()).unwrap(), "nothing left to write");
        conn.response_done();
        assert_eq!(conn.state, ConnState::Idle);

        let mut got = vec![0u8; 256];
        let n = client.read(&mut got).unwrap();
        let text = String::from_utf8_lossy(&got[..n]).into_owned();
        assert!(text.contains("Connection: keep-alive"), "{text}");
        assert!(text.ends_with("hi"), "{text}");

        // With bytes still buffered, response_done resumes Reading.
        client.write_all(b"GET /next HTTP/1.1\r\n").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        conn.fill(Instant::now()).unwrap();
        conn.queue_response(&resp, false);
        assert!(conn.close_after_write);
        assert!(conn.flush_out(Instant::now()).unwrap());
        conn.response_done();
        assert_eq!(conn.state, ConnState::Reading);
    }

    #[test]
    fn fill_reports_closed_on_eof() {
        let (client, mut conn) = pair();
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(conn.fill(Instant::now()).unwrap(), Pump::Closed);
    }
}
