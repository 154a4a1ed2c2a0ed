//! The load generator's HTTP/1.1 side: one keep-alive connection with
//! `TCP_NODELAY`, one request in flight at a time (a closed loop).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on one response's header section; the server's are ~150 B.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a declared body; the largest real one (a 100-attribute
/// profile) is ~15 KB.
const MAX_BODY_BYTES: usize = 16 << 20;

/// The `X-Swope-Cache` response header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the result cache.
    Hit,
    /// Computed by the adaptive loop.
    Miss,
    /// Header absent (errors, non-query endpoints).
    Absent,
}

/// One parsed response, borrowing its body from the reader's buffer.
#[derive(Debug)]
pub struct Reply<'a> {
    pub status: u16,
    pub cache: CacheOutcome,
    pub body: &'a [u8],
}

/// Incremental reader of back-to-back `Content-Length`-framed responses.
///
/// `read` may return any number of bytes — half a header line, or the
/// tail of one response glued to the head of the next — so everything is
/// parsed out of an accumulation buffer that survives across calls.
pub struct ResponseReader {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` that belong to the previous response.
    consumed: usize,
}

impl ResponseReader {
    pub fn new() -> Self {
        Self { buf: Vec::with_capacity(32 * 1024), consumed: 0 }
    }

    /// Reads exactly one response from `src`, leaving any bytes past it
    /// buffered for the next call.
    pub fn read_response<R: Read>(&mut self, src: &mut R) -> io::Result<Reply<'_>> {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        let mut scanned = 0usize;
        let head_end = loop {
            // Re-scan only the new bytes (minus a 3-byte overlap, so a
            // terminator split across two reads is still found).
            let from = scanned.saturating_sub(3);
            if let Some(i) = self.buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                break from + i + 4;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(invalid("response header section too long"));
            }
            scanned = self.buf.len();
            self.fill(src)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| invalid("non-UTF-8 response header"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| invalid(&format!("bad status line {status_line:?}")))?;
        let mut content_length = None;
        let mut cache = CacheOutcome::Absent;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("x-swope-cache") {
                cache = match value {
                    "hit" => CacheOutcome::Hit,
                    "miss" => CacheOutcome::Miss,
                    _ => CacheOutcome::Absent,
                };
            }
        }
        let len = content_length.ok_or_else(|| invalid("response without Content-Length"))?;
        if len > MAX_BODY_BYTES {
            return Err(invalid("declared response body too large"));
        }
        let end = head_end + len;
        while self.buf.len() < end {
            self.fill(src)?;
        }
        self.consumed = end;
        Ok(Reply { status, cache, body: &self.buf[head_end..end] })
    }

    fn fill<R: Read>(&mut self, src: &mut R) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match src.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-response",
                    ))
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

/// A keep-alive connection to one server.
pub struct Client {
    stream: TcpStream,
    reader: ResponseReader,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // No request here takes seconds; a wedged server must fail the
        // run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self { stream, reader: ResponseReader::new() })
    }

    /// Sends the pre-rendered request bytes and waits for the response.
    pub fn round_trip(&mut self, wire: &[u8]) -> io::Result<Reply<'_>> {
        self.stream.write_all(wire)?;
        self.reader.read_response(&mut self.stream)
    }
}

/// FNV-1a over the body bytes: the digest passes are compared by.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out a byte stream in the given chunk sizes (cycled), then EOF.
    struct Chunked<'a> {
        data: &'a [u8],
        pos: usize,
        sizes: Vec<usize>,
        turn: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let want = self.sizes[self.turn % self.sizes.len()];
            self.turn += 1;
            let n = want.min(out.len()).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn two_responses() -> Vec<u8> {
        let mut raw = Vec::new();
        raw.extend_from_slice(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
              Connection: keep-alive\r\nX-Swope-Cache: miss\r\n\r\n{\"ok\":true}",
        );
        raw.extend_from_slice(
            b"HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\nX-Swope-Cache: hit\r\n\r\n{}",
        );
        raw
    }

    fn assert_two(reader: &mut ResponseReader, src: &mut impl Read) {
        let first = reader.read_response(src).unwrap();
        assert_eq!((first.status, first.cache), (200, CacheOutcome::Miss));
        assert_eq!(first.body, b"{\"ok\":true}");
        let second = reader.read_response(src).unwrap();
        assert_eq!((second.status, second.cache), (404, CacheOutcome::Hit));
        assert_eq!(second.body, b"{}");
    }

    #[test]
    fn reads_back_to_back_responses_for_every_split() {
        let raw = two_responses();
        // One gulp, byte-at-a-time, and every fixed chunk size between:
        // the header terminator, the body, and the boundary between the
        // two responses all get cut at every possible offset.
        for size in 1..=raw.len() {
            let mut src = Chunked { data: &raw, pos: 0, sizes: vec![size], turn: 0 };
            assert_two(&mut ResponseReader::new(), &mut src);
        }
        let mut src = Chunked { data: &raw, pos: 0, sizes: vec![1, 7, 2, 64, 3], turn: 0 };
        assert_two(&mut ResponseReader::new(), &mut src);
    }

    #[test]
    fn short_streams_and_garbage_are_errors_not_hangs() {
        let raw = two_responses();
        for cut in [0, 10, 60, raw.len() - 1] {
            let mut src = Chunked { data: &raw[..cut], pos: 0, sizes: vec![5], turn: 0 };
            let mut reader = ResponseReader::new();
            let mut last = reader.read_response(&mut src).map(|_| ());
            if last.is_ok() {
                last = reader.read_response(&mut src).map(|_| ());
            }
            assert_eq!(last.unwrap_err().kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        let bad = b"SPDY/9 200\r\nContent-Length: 0\r\n\r\n";
        let mut src = Chunked { data: bad, pos: 0, sizes: vec![64], turn: 0 };
        let err = ResponseReader::new().read_response(&mut src).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let unframed = b"HTTP/1.1 200 OK\r\n\r\nbody";
        let mut src = Chunked { data: unframed, pos: 0, sizes: vec![64], turn: 0 };
        let err = ResponseReader::new().read_response(&mut src).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn digest_separates_bodies() {
        assert_eq!(digest(b"abc"), digest(b"abc"));
        assert_ne!(digest(b"abc"), digest(b"abd"));
        assert_ne!(digest(b""), digest(b"\0"));
    }
}
