//! The cluster wire format: length-prefixed, CRC32-trailed typed frames.
//!
//! Every frame on a coordinator↔peer connection has the same envelope,
//! little-endian throughout:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SWPC"
//! 4       1     frame tag (1=Hello … 6=Error, 7=Marginals)
//! 5       4     payload length (u32; ≤ 64 MiB for CountMerge, ≤ 1 MiB otherwise)
//! 9       len   payload
//! 9+len   4     CRC32 over bytes [4, 9+len)  (tag + length + payload)
//! ```
//!
//! The CRC covers the tag and length as well as the payload, mirroring
//! the SWOP v2 snapshot sections: a flipped tag or a truncating length
//! is as detectable as flipped payload bytes. The magic doubles as the
//! connection sniff the server uses to tell cluster sessions from HTTP
//! on a shared port — no HTTP method starts with `SWPC`.
//!
//! The control frames use fixed-width fields: `u32` length + UTF-8
//! bytes for strings, `u32` element counts for lists; `Marginals` has an
//! empty payload. `CountMerge` — one per peer per doubling, all but a few
//! hundred of a query's wire bytes — is LEB128 varints over the
//! histograms' canonical form (since protocol version 2):
//!
//! ```text
//! CountMerge = u8 has_target (0 | 1)
//!              [histogram]                  the target's, iff has_target
//!              varint n                     live attributes
//!              n × (histogram, runs)
//! histogram  = varint support
//!              varint entries
//!              entries × (varint code − previous code, varint count)
//! runs       = varint entries
//!              entries × (varint key − previous key, varint count)
//! ```
//!
//! Codes and packed joint keys (`target code << 32 | candidate code`)
//! ascend strictly, the first delta of a list is the value itself, counts
//! are nonzero and every varint is minimal-length, so the encoding of a
//! histogram is unique: re-encoding a decoded frame is byte-identical,
//! which is exactly the order-independent representation the exact-merge
//! argument needs (see `swope_core::shard`). Codes that ascend by one and
//! counts under 128 take two bytes an entry against twelve fixed-width.
//!
//! A `CountMerge` also answers `Marginals` (protocol version 3), the
//! request an MI query over the whole union sends once, before its first
//! `GrowDelta`: the peer's partition-sketch totals for every attribute,
//! no target and no joint runs — or, from a peer without a usable
//! sketch, a `CountMerge` over no attributes at all (payload `00 00`),
//! which declines.
//!
//! [`FrameWriter`] and [`FrameReader`] each own one buffer that a session
//! reuses for every frame; [`write_frame`] and [`read_frame`] are the
//! same code over a throwaway buffer.

use std::io::{Read, Write};

use swope_core::{AttrMeta, CountState, ShardCounts};
use swope_store::crc32::{crc32, Crc32};

/// Connection-sniffing magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SWPC";

/// Wire protocol version carried in [`Hello`] frames; peers reject
/// mismatches rather than guessing. Version 2 is the varint
/// `CountMerge` layout; version 3 adds the `Marginals` request.
pub const PROTOCOL_VERSION: u32 = 3;

/// Upper bound on a `CountMerge` payload. One over the widest supported
/// attribute set stays far below this; anything larger is a corrupt or
/// hostile length field.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Upper bound on the payload of every other frame type: a `Hello` over
/// tens of thousands of attributes fits, and nothing else comes close.
pub const MAX_CONTROL_PAYLOAD: u32 = 1 << 20;

const HEADER_LEN: usize = 9;
const TAG_COUNT_MERGE: u8 = 4;
const TAG_MARGINALS: u8 = 7;

/// The `CountMerge` payload over no attributes — no target, zero live —
/// with which a peer declines a `Marginals` request.
const DECLINE: [u8; 2] = [0, 0];

/// How far [`FrameReader`] grows its buffer ahead of the bytes that have
/// actually arrived: a header can claim [`MAX_PAYLOAD`], it cannot make
/// the reader allocate it.
const READ_STEP: usize = 64 << 10;

/// Why a frame could not be read or decoded. One line per variant —
/// these surface verbatim in coordinator 503 bodies.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (including read timeouts).
    Io(std::io::Error),
    /// The stream did not start with [`MAGIC`] — not a cluster peer.
    BadMagic([u8; 4]),
    /// A tag outside the known frame vocabulary.
    UnknownTag(u8),
    /// A length field beyond its frame type's limit.
    Oversize(u32),
    /// The CRC32 trailer did not match the received bytes.
    Crc {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC carried in the trailer.
        stored: u32,
    },
    /// The payload did not parse as its tag's layout.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o failed: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?} (expected \"SWPC\")"),
            FrameError::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            FrameError::Oversize(n) => write!(f, "frame payload of {n} bytes exceeds the limit"),
            FrameError::Crc { computed, stored } => {
                write!(f, "frame checksum mismatch: computed {computed:08x}, stored {stored:08x}")
            }
            FrameError::Malformed(what) => write!(f, "malformed frame payload: {what}"),
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// True when the error is the peer closing the stream cleanly (EOF
    /// before any frame byte) — end of session, not a failure.
    pub fn is_eof(&self) -> bool {
        matches!(self, FrameError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof)
    }
}

/// `Hello`: the session opener, symmetric in shape. The coordinator
/// sends the dataset name it wants (with `num_rows = 0` and no attrs);
/// the peer replies with its row count and attribute metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// Must equal [`PROTOCOL_VERSION`] on both sides.
    pub version: u32,
    /// Registry name of the dataset ("" asks the peer for its default).
    pub dataset: String,
    /// Peer's local row count (0 in the coordinator's request).
    pub num_rows: u64,
    /// Peer's attribute names and supports (empty in the request).
    pub attrs: Vec<AttrMeta>,
}

/// `QuerySpec`: pins one query's global sampling frame. The peer replays
/// the union-wide prefix shuffle from `seed` over `population` rows;
/// sampled index `i` names union row `base + i`, and the peer counts it
/// iff it falls in the peer's own `[shard_start, shard_end)` slice
/// (local row `base + i - shard_start`). Unscoped queries have
/// `base = 0` and `population = Σ n_peer`; a row-range scope shrinks
/// `population` and offsets `base`, and only intersecting peers hear
/// about the query at all.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpecFrame {
    /// Global sampling seed shared by every peer.
    pub seed: u64,
    /// Rows in the (possibly scoped) union population.
    pub population: u64,
    /// First union row of the scope (0 when unscoped).
    pub base: u64,
    /// First union row this peer owns.
    pub shard_start: u64,
    /// One past the last union row this peer owns.
    pub shard_end: u64,
}

/// `GrowDelta`: one doubling iteration's counting request — grow the
/// shared sample to `m_target` and count the newly sampled rows for the
/// still-live attributes (paired against `target` for MI queries).
#[derive(Debug, Clone, PartialEq)]
pub struct GrowDelta {
    /// Cumulative sample-size target (absolute, not a delta).
    pub m_target: u64,
    /// MI target attribute index, `None` for entropy queries.
    pub target: Option<u32>,
    /// Still-live attribute indexes, in engine state order.
    pub live: Vec<u32>,
}

/// `CountMerge`: a peer's integer count deltas for one `GrowDelta`, held
/// as its validated canonical payload bytes — equal frames are equal
/// histograms. Sessions do not build one per iteration
/// ([`FrameWriter::write_count_merge`] and
/// [`Envelope::count_merge_into`] go between [`ShardCounts`] and the
/// session's buffer directly); this is the frame as a value, for
/// [`write_frame`]/[`read_frame`] callers.
#[derive(Debug, Clone, PartialEq)]
pub struct CountMergeFrame {
    payload: Vec<u8>,
    entries: u64,
}

/// `Result`: the coordinator's end-of-query signal (the answer itself
/// never travels — peers only ever see counting work). `sampled` echoes
/// the final sample size so peers can sanity-check and log.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFrame {
    /// Final cumulative sample size when the query stopped.
    pub sampled: u64,
}

/// `Error`: a one-line failure report, either direction. The receiving
/// side surfaces the message and abandons the query.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorFrame {
    /// Human-readable single-line reason.
    pub message: String,
}

/// One typed protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session opener / metadata reply.
    Hello(Hello),
    /// Per-query sampling frame.
    QuerySpec(QuerySpecFrame),
    /// Per-iteration counting request.
    GrowDelta(GrowDelta),
    /// Per-iteration count reply.
    CountMerge(CountMergeFrame),
    /// End-of-query signal.
    Result(ResultFrame),
    /// One-line failure report.
    Error(ErrorFrame),
    /// Per-query request for every attribute's partition-sketch totals,
    /// answered by a `CountMerge` (see the module docs).
    Marginals,
}

impl Frame {
    fn tag(&self) -> u8 {
        match self {
            Frame::Hello(_) => 1,
            Frame::QuerySpec(_) => 2,
            Frame::GrowDelta(_) => 3,
            Frame::CountMerge(_) => TAG_COUNT_MERGE,
            Frame::Result(_) => 5,
            Frame::Error(_) => 6,
            Frame::Marginals => TAG_MARGINALS,
        }
    }

    /// The frame's type name, for error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello(_) => "Hello",
            Frame::QuerySpec(_) => "QuerySpec",
            Frame::GrowDelta(_) => "GrowDelta",
            Frame::CountMerge(_) => "CountMerge",
            Frame::Result(_) => "Result",
            Frame::Error(_) => "Error",
            Frame::Marginals => "Marginals",
        }
    }
}

impl CountMergeFrame {
    /// Canonicalizes a shard's counts into wire form. Takes `&mut`
    /// because code lists and joint runs are sorted in place.
    pub fn from_counts(counts: &mut ShardCounts) -> Self {
        let mut payload = Vec::new();
        let entries = put_count_merge(&mut payload, counts);
        Self { payload, entries }
    }

    /// Histogram entries and joint runs the frame carries.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Adds the frame's counts to `counts`, which the caller has shaped
    /// (see [`Envelope::count_merge_into`]).
    pub fn decode_into(&self, counts: &mut ShardCounts) -> Result<(), FrameError> {
        read_count_merge(&self.payload, Some(counts)).map(drop)
    }
}

// ---- payload writers -------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// One canonical list: its length, then each ascending key as the
/// distance from the one before it, with its count.
fn put_deltas(out: &mut Vec<u8>, entries: impl ExactSizeIterator<Item = (u64, u64)>) -> u64 {
    let n = entries.len() as u64;
    put_varint(out, n);
    let mut prev = 0;
    for (key, k) in entries {
        put_varint(out, key - prev);
        put_varint(out, k);
        prev = key;
    }
    n
}

fn put_histogram(out: &mut Vec<u8>, cs: &mut CountState) -> u64 {
    put_varint(out, cs.support() as u64);
    put_deltas(out, cs.canonical_entries().map(|(code, k)| (code as u64, k)))
}

/// Appends `counts` in the `CountMerge` layout, returning how many
/// entries and runs it wrote.
fn put_count_merge(out: &mut Vec<u8>, counts: &mut ShardCounts) -> u64 {
    assert_eq!(counts.attrs.len(), counts.joints.len(), "one joint delta per live attribute");
    let mut entries = 0;
    out.push(counts.target.is_some() as u8);
    if let Some(target) = &mut counts.target {
        entries += put_histogram(out, target);
    }
    put_varint(out, counts.attrs.len() as u64);
    for (cs, joint) in counts.attrs.iter_mut().zip(&mut counts.joints) {
        entries += put_histogram(out, cs);
        entries += put_deltas(out, joint.canonical_runs().iter().copied());
    }
    entries
}

fn put_payload(out: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Hello(h) => {
            put_u32(out, h.version);
            put_str(out, &h.dataset);
            put_u64(out, h.num_rows);
            put_u32(out, h.attrs.len() as u32);
            for a in &h.attrs {
                put_str(out, &a.name);
                put_u32(out, a.support);
            }
        }
        Frame::QuerySpec(q) => {
            put_u64(out, q.seed);
            put_u64(out, q.population);
            put_u64(out, q.base);
            put_u64(out, q.shard_start);
            put_u64(out, q.shard_end);
        }
        Frame::GrowDelta(g) => {
            put_u64(out, g.m_target);
            out.push(g.target.is_some() as u8);
            put_u32(out, g.target.unwrap_or(0));
            put_u32(out, g.live.len() as u32);
            for &a in &g.live {
                put_u32(out, a);
            }
        }
        Frame::CountMerge(c) => out.extend_from_slice(&c.payload),
        Frame::Result(r) => put_u64(out, r.sampled),
        Frame::Error(e) => put_str(out, &e.message),
        Frame::Marginals => {}
    }
}

// ---- payload reader --------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end =
            self.pos.checked_add(n).ok_or(FrameError::Malformed("length overflows payload"))?;
        if end > self.bytes.len() {
            return Err(FrameError::Malformed("payload shorter than its layout"));
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, FrameError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FrameError::Malformed("string field is not UTF-8"))
    }

    /// Guards list preallocation: a hostile count must not allocate more
    /// than the payload could possibly hold.
    fn list_len(&mut self, elem_size: usize) -> Result<usize, FrameError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_size) > self.bytes.len() - self.pos {
            return Err(FrameError::Malformed("list count exceeds payload size"));
        }
        Ok(n)
    }

    /// One LEB128 `u64`, minimal length only — a padded encoding of the
    /// same value would break "one histogram, one byte string".
    #[inline]
    fn varint(&mut self) -> Result<u64, FrameError> {
        // Nearly every delta and most counts fit one byte.
        match self.bytes.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(b as u64)
            }
            _ => self.long_varint(),
        }
    }

    fn long_varint(&mut self) -> Result<u64, FrameError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                break;
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(FrameError::Malformed("over-long varint"));
                }
                return Ok(v);
            }
        }
        Err(FrameError::Malformed("varint overflows u64"))
    }

    /// One canonical list (see [`put_deltas`]): hands each `(key, count)`
    /// to `entry`, which answers whether the key is in range. Nothing is
    /// reserved from the claimed length; a list longer than the payload
    /// runs out of bytes.
    fn deltas(&mut self, mut entry: impl FnMut(u64, u64) -> bool) -> Result<u64, FrameError> {
        let n = self.varint()?;
        let mut key = 0u64;
        let mut total = 0u64;
        for i in 0..n {
            let delta = self.varint()?;
            if delta == 0 && i > 0 {
                return Err(FrameError::Malformed("count entries are not ascending"));
            }
            key = key
                .checked_add(delta)
                .ok_or(FrameError::Malformed("count entry key overflows u64"))?;
            let k = self.varint()?;
            if k == 0 {
                return Err(FrameError::Malformed("count entry with a zero count"));
            }
            total =
                total.checked_add(k).ok_or(FrameError::Malformed("count total overflows u64"))?;
            if !entry(key, k) {
                return Err(FrameError::Malformed("count entry code beyond support"));
            }
        }
        Ok(n)
    }

    /// One histogram, added to `into` when given: its support must then
    /// be the one `into` was built with. Returns `(support, entries)`.
    fn histogram(&mut self, mut into: Option<&mut CountState>) -> Result<(u32, u64), FrameError> {
        let support = u32::try_from(self.varint()?)
            .map_err(|_| FrameError::Malformed("histogram support exceeds u32"))?;
        if into.as_ref().is_some_and(|cs| cs.support() != support) {
            return Err(FrameError::Malformed("histogram support disagrees with the request"));
        }
        let n = self.deltas(|code, k| {
            let ok = code < support as u64;
            if let (true, Some(cs)) = (ok, into.as_deref_mut()) {
                cs.increment(code as u32, k);
            }
            ok
        })?;
        Ok((support, n))
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.pos != self.bytes.len() {
            return Err(FrameError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
}

/// Walks one `CountMerge` payload, checking every rule that makes the
/// encoding canonical and every code and joint key against the supports
/// the payload itself declares; with `into`, also against the supports
/// and list lengths `into` was shaped with, adding the counts to it.
/// Returns the entries and runs carried. Nothing is allocated.
fn read_count_merge(bytes: &[u8], mut into: Option<&mut ShardCounts>) -> Result<u64, FrameError> {
    const SHAPE: FrameError = FrameError::Malformed("CountMerge shape disagrees with the request");
    let mut c = Cursor { bytes, pos: 0 };
    let mut entries = 0;
    let has_target = match c.u8()? {
        0 => false,
        1 => true,
        _ => return Err(FrameError::Malformed("target flag is neither 0 nor 1")),
    };
    if into.as_ref().is_some_and(|counts| counts.target.is_some() != has_target) {
        return Err(SHAPE);
    }
    // Without a target no joint run is legal: a bound of zero refuses all.
    let mut target_support = 0u64;
    if has_target {
        let (support, n) = c.histogram(into.as_deref_mut().and_then(|s| s.target.as_mut()))?;
        target_support = support as u64;
        entries += n;
    }
    let live = c.varint()?;
    if into.as_ref().is_some_and(|s| s.attrs.len() as u64 != live || s.joints.len() as u64 != live)
    {
        return Err(SHAPE);
    }
    for i in 0..live {
        let i = i as usize;
        let (support, n) = c.histogram(into.as_deref_mut().map(|s| &mut s.attrs[i]))?;
        entries += n;
        let mut joint = into.as_deref_mut().map(|s| &mut s.joints[i]);
        entries += c.deltas(|key, k| {
            let ok = key >> 32 < target_support && key & 0xFFFF_FFFF < support as u64;
            if let (true, Some(joint)) = (ok, joint.as_deref_mut()) {
                joint.increment(key, k);
            }
            ok
        })?;
    }
    c.finish()?;
    Ok(entries)
}

fn decode_payload(tag: u8, bytes: &[u8]) -> Result<Frame, FrameError> {
    if tag == TAG_COUNT_MERGE {
        let entries = read_count_merge(bytes, None)?;
        return Ok(Frame::CountMerge(CountMergeFrame { payload: bytes.to_vec(), entries }));
    }
    let mut c = Cursor { bytes, pos: 0 };
    let frame = match tag {
        1 => {
            let version = c.u32()?;
            let dataset = c.str()?;
            let num_rows = c.u64()?;
            let n = c.list_len(8)?;
            let mut attrs = Vec::with_capacity(n);
            for _ in 0..n {
                let name = c.str()?;
                let support = c.u32()?;
                attrs.push(AttrMeta { name, support });
            }
            Frame::Hello(Hello { version, dataset, num_rows, attrs })
        }
        2 => Frame::QuerySpec(QuerySpecFrame {
            seed: c.u64()?,
            population: c.u64()?,
            base: c.u64()?,
            shard_start: c.u64()?,
            shard_end: c.u64()?,
        }),
        3 => {
            let m_target = c.u64()?;
            let has_target = c.u8()? != 0;
            let target_raw = c.u32()?;
            let n = c.list_len(4)?;
            let mut live = Vec::with_capacity(n);
            for _ in 0..n {
                live.push(c.u32()?);
            }
            Frame::GrowDelta(GrowDelta { m_target, target: has_target.then_some(target_raw), live })
        }
        5 => Frame::Result(ResultFrame { sampled: c.u64()? }),
        6 => Frame::Error(ErrorFrame { message: c.str()? }),
        TAG_MARGINALS => Frame::Marginals,
        other => return Err(FrameError::UnknownTag(other)),
    };
    c.finish()?;
    Ok(frame)
}

// ---- envelope --------------------------------------------------------

/// Encodes and sends frames through one buffer, reused frame after
/// frame: header, payload and trailer are built in place and leave in a
/// single write.
#[derive(Debug, Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// A writer with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes one frame to a stream, returning the bytes put on the wire.
    pub fn write<W: Write>(&mut self, w: &mut W, frame: &Frame) -> Result<usize, FrameError> {
        self.begin(frame.tag());
        put_payload(&mut self.buf, frame);
        self.finish(w)
    }

    /// Writes `counts` as a `CountMerge` frame straight from the shard's
    /// histograms (canonicalizing them in place), returning the bytes
    /// put on the wire.
    pub fn write_count_merge<W: Write>(
        &mut self,
        w: &mut W,
        counts: &mut ShardCounts,
    ) -> Result<usize, FrameError> {
        self.begin(TAG_COUNT_MERGE);
        put_count_merge(&mut self.buf, counts);
        self.finish(w)
    }

    fn begin(&mut self, tag: u8) {
        self.buf.clear();
        self.buf.extend_from_slice(&MAGIC);
        self.buf.push(tag);
        self.buf.extend_from_slice(&[0; 4]);
    }

    fn finish<W: Write>(&mut self, w: &mut W) -> Result<usize, FrameError> {
        let len = u32::try_from(self.buf.len() - HEADER_LEN).unwrap_or(u32::MAX);
        if len > payload_limit(self.buf[4]) {
            return Err(FrameError::Oversize(len));
        }
        self.buf[5..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&self.buf[4..]);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        w.write_all(&self.buf)?;
        w.flush()?;
        Ok(self.buf.len())
    }
}

fn payload_limit(tag: u8) -> u32 {
    if tag == TAG_COUNT_MERGE {
        MAX_PAYLOAD
    } else {
        MAX_CONTROL_PAYLOAD
    }
}

/// Reads frames through one buffer, reused frame after frame and
/// checksummed where it lies.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

/// One received frame, checksum verified, payload still in the reader's
/// buffer.
#[derive(Debug)]
pub struct Envelope<'a> {
    tag: u8,
    payload: &'a [u8],
    wire_len: usize,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one frame's envelope from a stream and verifies its
    /// checksum; the payload is not parsed yet.
    ///
    /// A clean EOF before the first header byte surfaces as an
    /// [`FrameError::Io`] with `UnexpectedEof` (see [`FrameError::is_eof`]).
    pub fn read_envelope<R: Read>(&mut self, r: &mut R) -> Result<Envelope<'_>, FrameError> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        if header[..4] != MAGIC {
            return Err(FrameError::BadMagic(header[..4].try_into().unwrap()));
        }
        let tag = header[4];
        if !(1..=TAG_MARGINALS).contains(&tag) {
            return Err(FrameError::UnknownTag(tag));
        }
        let len = u32::from_le_bytes(header[5..].try_into().unwrap());
        if len > payload_limit(tag) {
            return Err(FrameError::Oversize(len));
        }
        // Payload and trailer, in steps: the buffer never runs more than
        // one step ahead of the bytes that arrived.
        let want = len as usize + 4;
        self.buf.clear();
        while self.buf.len() < want {
            let at = self.buf.len();
            self.buf.resize(at + (want - at).min(READ_STEP), 0);
            r.read_exact(&mut self.buf[at..])?;
        }
        let (payload, trailer) = self.buf.split_at(len as usize);
        let stored = u32::from_le_bytes(trailer.try_into().unwrap());
        let mut crc = Crc32::new();
        crc.update(&header[4..]);
        crc.update(payload);
        let computed = crc.finish();
        if computed != stored {
            return Err(FrameError::Crc { computed, stored });
        }
        Ok(Envelope { tag, payload, wire_len: HEADER_LEN + want })
    }

    /// Reads one frame from a stream, returning it with its wire size.
    pub fn read<R: Read>(&mut self, r: &mut R) -> Result<(Frame, usize), FrameError> {
        let envelope = self.read_envelope(r)?;
        Ok((envelope.decode()?, envelope.wire_len))
    }
}

impl Envelope<'_> {
    /// Bytes the frame took on the wire, magic through trailer.
    pub fn wire_len(&self) -> usize {
        self.wire_len
    }

    /// True for a `CountMerge`, which [`Envelope::count_merge_into`]
    /// decodes without building a [`Frame`].
    pub fn is_count_merge(&self) -> bool {
        self.tag == TAG_COUNT_MERGE
    }

    /// True for a `CountMerge` over no attributes: a peer declining a
    /// `Marginals` request.
    pub fn is_decline(&self) -> bool {
        self.is_count_merge() && self.payload == DECLINE
    }

    /// Parses the payload as its tag's layout.
    pub fn decode(&self) -> Result<Frame, FrameError> {
        decode_payload(self.tag, self.payload)
    }

    /// Adds a `CountMerge`'s counts to `counts`, returning the entries
    /// and runs it carried.
    ///
    /// `counts` states what the receiver asked for — a target histogram
    /// or none, one histogram and one joint delta per live attribute,
    /// each built with the support the session's `Hello` announced — and
    /// a frame that disagrees in any of it is an error before a single
    /// count lands: the supports a peer writes on the wire are checked,
    /// never trusted. On an error `counts` may hold part of the frame.
    pub fn count_merge_into(&self, counts: &mut ShardCounts) -> Result<u64, FrameError> {
        if !self.is_count_merge() {
            return Err(FrameError::Malformed("not a CountMerge frame"));
        }
        read_count_merge(self.payload, Some(counts))
    }
}

/// [`FrameWriter::write`] over a throwaway buffer.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<usize, FrameError> {
    FrameWriter::new().write(w, frame)
}

/// [`FrameReader::read`] over a throwaway buffer.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(Frame, usize), FrameError> {
    FrameReader::new().read(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_core::PairCountState;
    use swope_sampling::rng::Xoshiro256pp;

    /// A small MI-shaped delta: target support 4, attributes of support 8
    /// and 2 (the second untouched), one joint run.
    fn sample_counts() -> ShardCounts {
        let mut counts = ShardCounts::empty(Some(4), [8, 2]);
        let target = counts.target.as_mut().unwrap();
        target.increment(0, 10);
        target.increment(3, 2);
        counts.attrs[0].increment(7, 1);
        counts.attrs[0].increment(1, 5);
        counts.joints[0].increment(0x0000_0003_0000_0001, 4);
        counts
    }

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hello(Hello {
                version: PROTOCOL_VERSION,
                dataset: "flights".into(),
                num_rows: 12_345,
                attrs: vec![
                    AttrMeta { name: "carrier".into(), support: 14 },
                    AttrMeta { name: "origin".into(), support: 350 },
                ],
            }),
            Frame::Hello(Hello {
                version: PROTOCOL_VERSION,
                dataset: String::new(),
                num_rows: 0,
                attrs: Vec::new(),
            }),
            Frame::QuerySpec(QuerySpecFrame {
                seed: 0xDEAD_BEEF,
                population: 1_000_000,
                base: 250,
                shard_start: 500_000,
                shard_end: 750_000,
            }),
            Frame::GrowDelta(GrowDelta { m_target: 4096, target: Some(3), live: vec![0, 1, 5] }),
            Frame::GrowDelta(GrowDelta { m_target: 64, target: None, live: vec![2] }),
            Frame::CountMerge(CountMergeFrame::from_counts(&mut sample_counts())),
            Frame::Result(ResultFrame { sampled: 8192 }),
            Frame::Error(ErrorFrame { message: "no dataset named \"x\"".into() }),
            Frame::Marginals,
        ]
    }

    fn encode(frame: &Frame) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, frame).unwrap();
        bytes
    }

    /// A correctly framed and checksummed envelope around any payload:
    /// what reaches the payload parser when the sender itself is hostile.
    fn envelope(tag: u8, body: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.push(tag);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(body);
        let crc = crc32(&out[4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        read_frame(&mut &bytes[..]).map(|(frame, _)| frame)
    }

    #[test]
    fn round_trip_every_frame() {
        for frame in samples() {
            let bytes = encode(&frame);
            let mut cursor = std::io::Cursor::new(bytes.clone());
            let (read, n) = read_frame(&mut cursor).unwrap();
            assert_eq!(read, frame, "{}", frame.name());
            assert_eq!(n, bytes.len());
        }
    }

    #[test]
    fn frames_concatenate_on_a_stream() {
        let frames = samples();
        let mut wire = Vec::new();
        let mut writer = FrameWriter::new();
        for f in &frames {
            writer.write(&mut wire, f).unwrap();
        }
        // One reader, one buffer, frames of every size in turn.
        let mut cursor = std::io::Cursor::new(wire);
        let mut reader = FrameReader::new();
        for f in &frames {
            assert_eq!(&reader.read(&mut cursor).unwrap().0, f);
        }
        assert!(reader.read(&mut cursor).unwrap_err().is_eof());
    }

    #[test]
    fn corruption_is_detected_everywhere() {
        let clean = encode(&samples().remove(5));
        // Flipping any single bit past the magic must be caught (the CRC
        // covers tag, length, and payload; the magic check covers 0..4).
        for bit in 0..clean.len() * 8 {
            let mut bad = clean.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(decode(&bad).is_err(), "flip of bit {bit} went undetected");
        }
    }

    #[test]
    fn truncation_and_oversize_are_rejected() {
        for frame in [samples().remove(0), samples().remove(5)] {
            let bytes = encode(&frame);
            for cut in 0..bytes.len() {
                assert!(decode(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
            }
            let limit = if matches!(frame, Frame::CountMerge(_)) {
                MAX_PAYLOAD
            } else {
                MAX_CONTROL_PAYLOAD
            };
            let mut huge = bytes.clone();
            huge[5..9].copy_from_slice(&(limit + 1).to_le_bytes());
            assert!(matches!(decode(&huge), Err(FrameError::Oversize(_))));
        }
    }

    #[test]
    fn a_header_cannot_make_the_reader_allocate_its_claim() {
        // Nine bytes claiming the largest legal payload, then silence: an
        // I/O error, and a buffer no bigger than one read step.
        let mut header = MAGIC.to_vec();
        header.push(TAG_COUNT_MERGE);
        header.extend_from_slice(&MAX_PAYLOAD.to_le_bytes());
        let mut reader = FrameReader::new();
        let err = reader.read(&mut header.as_slice()).unwrap_err();
        assert!(matches!(err, FrameError::Io(_)), "{err}");
        assert!(reader.buf.capacity() <= READ_STEP, "reserved {}", reader.buf.capacity());
        // The same claim behind 100 KiB of real bytes stays within a
        // step of what arrived.
        header.extend_from_slice(&vec![0u8; 100 << 10]);
        assert!(matches!(reader.read(&mut header.as_slice()), Err(FrameError::Io(_))));
        assert!(reader.buf.capacity() <= (100 << 10) + 2 * READ_STEP);
    }

    #[test]
    fn http_bytes_are_not_frames() {
        let mut http = std::io::Cursor::new(b"GET /healthz HTTP/1.1\r\n\r\n".to_vec());
        assert!(matches!(read_frame(&mut http), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn hostile_list_counts_do_not_allocate() {
        // A Hello claiming 2^32-ish attrs in a tiny payload must fail
        // cleanly instead of reserving gigabytes.
        let mut body = Vec::new();
        put_u32(&mut body, PROTOCOL_VERSION);
        put_str(&mut body, "x");
        put_u64(&mut body, 0);
        put_u32(&mut body, u32::MAX);
        assert!(matches!(decode(&envelope(1, &body)), Err(FrameError::Malformed(_))));
    }

    /// Every list of `counts` in canonical form (histograms, then joint
    /// runs), for comparing deltas accumulated in different orders.
    fn canonical(counts: &ShardCounts) -> Vec<Vec<(u64, u64)>> {
        let hists = counts.target.iter().chain(&counts.attrs);
        let hists = hists.map(|h| h.sorted_entries().iter().map(|&(c, k)| (c as u64, k)).collect());
        let joints = counts.joints.iter().map(|j| j.clone().canonical_runs().to_vec());
        hists.chain(joints).collect()
    }

    fn shape_of(counts: &ShardCounts) -> ShardCounts {
        ShardCounts::empty(
            counts.target.as_ref().map(CountState::support),
            counts.attrs.iter().map(CountState::support),
        )
    }

    /// A random delta: supports 1, 7 and 1000, empty and full histograms,
    /// one count near `u64::MAX`, joint keys across several target codes.
    fn random_counts(r: &mut Xoshiro256pp) -> ShardCounts {
        let support = |r: &mut Xoshiro256pp| [1u32, 7, 1000][r.next_below(3) as usize];
        let fill = |r: &mut Xoshiro256pp, cs: &mut CountState| {
            let support = cs.support() as u64;
            match r.next_below(4) {
                0 => {}
                1 => cs.increment(r.next_below(support) as u32, u64::MAX - r.next_below(1000)),
                _ => {
                    for _ in 0..r.next_below(2 * support + 1) {
                        cs.increment(r.next_below(support) as u32, 1 + r.next_below(300));
                    }
                }
            }
        };
        let target = (r.next_below(2) == 1).then(|| support(r));
        let live: Vec<u32> = (0..r.next_below(5)).map(|_| support(r)).collect();
        let mut counts = ShardCounts::empty(target, live);
        if let Some(t) = &mut counts.target {
            fill(r, t);
        }
        for (cs, joint) in counts.attrs.iter_mut().zip(&mut counts.joints) {
            fill(r, cs);
            if let Some(t) = target {
                for _ in 0..r.next_below(40) {
                    let (tc, ac) = (r.next_below(t as u64), r.next_below(cs.support() as u64));
                    let magnitude = r.next_below(40);
                    joint.increment(tc << 32 | ac, 1 + r.next_below(1 << magnitude));
                }
            }
        }
        counts
    }

    #[test]
    fn count_merge_round_trips_random_counts_byte_identically() {
        let mut r = Xoshiro256pp::seed_from_u64(0xC0DEC);
        for case in 0..300 {
            let counts = random_counts(&mut r);
            let frame = CountMergeFrame::from_counts(&mut counts.clone());
            let bytes = encode(&Frame::CountMerge(frame.clone()));
            // The session path writes the same bytes without the frame.
            let mut direct = Vec::new();
            FrameWriter::new().write_count_merge(&mut direct, &mut counts.clone()).unwrap();
            assert_eq!(direct, bytes, "case {case}");

            assert_eq!(decode(&bytes).unwrap(), Frame::CountMerge(frame.clone()), "case {case}");
            let mut back = shape_of(&counts);
            frame.decode_into(&mut back).unwrap();
            assert_eq!(canonical(&back), canonical(&counts), "case {case}");
            let mut reader = FrameReader::new();
            let envelope = reader.read_envelope(&mut bytes.as_slice()).unwrap();
            let mut streamed = shape_of(&counts);
            assert_eq!(envelope.count_merge_into(&mut streamed).unwrap(), frame.entries());
            assert_eq!(canonical(&streamed), canonical(&counts), "case {case}");
            // Canonical in, canonical out: re-encoding is byte-identical.
            assert_eq!(CountMergeFrame::from_counts(&mut back), frame, "case {case}");
        }
    }

    #[test]
    fn count_merge_takes_two_to_three_bytes_an_entry() {
        // Dense small-count histograms, the shape a doubling produces.
        let mut counts = ShardCounts::empty(None, [200, 1000]);
        for cs in &mut counts.attrs {
            for code in 0..cs.support() {
                cs.increment(code, 1 + (code as u64 * 7) % 150);
            }
        }
        let frame = CountMergeFrame::from_counts(&mut counts);
        assert_eq!(frame.entries(), 1200);
        let per_entry = frame.payload.len() as f64 / 1200.0;
        assert!((2.0..3.0).contains(&per_entry), "{per_entry} bytes an entry");
    }

    #[test]
    fn only_a_count_merge_over_no_attributes_declines() {
        let envelope_of = |frame: &Frame| {
            let bytes = encode(frame);
            let mut reader = FrameReader::new();
            let envelope = reader.read_envelope(&mut bytes.as_slice()).unwrap();
            envelope.is_decline()
        };
        let decline = CountMergeFrame::from_counts(&mut ShardCounts::empty(None, []));
        assert_eq!(decline.payload, DECLINE);
        assert!(envelope_of(&Frame::CountMerge(decline)));
        // Totals over one attribute that holds nothing yet are an answer.
        let empty_totals = CountMergeFrame::from_counts(&mut ShardCounts::empty(None, [3]));
        assert!(!envelope_of(&Frame::CountMerge(empty_totals)));
        assert!(!envelope_of(&Frame::Marginals));
        assert!(!envelope_of(&Frame::Result(ResultFrame { sampled: 0 })));
    }

    #[test]
    fn a_reply_of_the_wrong_shape_or_support_is_refused() {
        let frame = CountMergeFrame::from_counts(&mut sample_counts());
        assert!(frame.decode_into(&mut ShardCounts::empty(Some(4), [8, 2])).is_ok());
        for wrong in [
            ShardCounts::empty(None, [8, 2]),
            ShardCounts::empty(Some(5), [8, 2]),
            ShardCounts::empty(Some(4), [8]),
            ShardCounts::empty(Some(4), [8, 2, 2]),
            ShardCounts::empty(Some(4), [7, 2]),
            ShardCounts::empty(Some(4), [8, 3]),
        ] {
            let mut into = wrong;
            assert!(matches!(frame.decode_into(&mut into), Err(FrameError::Malformed(_))));
        }
    }

    /// Containment: whatever bytes arrive as a `CountMerge` payload, the
    /// parser answers an error or the value those bytes canonically
    /// encode — no panic, no hang, nothing reserved from a claimed count.
    fn parses_to_error_or_its_own_encoding(payload: &[u8], shape: &ShardCounts) {
        let Ok(Frame::CountMerge(frame)) = decode_payload(TAG_COUNT_MERGE, payload) else {
            return;
        };
        let mut into = shape_of(shape);
        if frame.decode_into(&mut into).is_ok() {
            assert_eq!(CountMergeFrame::from_counts(&mut into).payload, payload);
        }
    }

    #[test]
    fn mutated_count_merges_never_panic_or_misparse() {
        let mut r = Xoshiro256pp::seed_from_u64(0xF1A9);
        let started = std::time::Instant::now();
        for _ in 0..16 {
            let counts = random_counts(&mut r);
            let payload = CountMergeFrame::from_counts(&mut counts.clone()).payload;
            for cut in 0..payload.len() {
                assert!(decode_payload(TAG_COUNT_MERGE, &payload[..cut]).is_err());
            }
            // Every bit of a short payload, a seeded sample of a long one.
            let bits = payload.len() * 8;
            for i in 0..bits.min(800) {
                let bit = if bits <= 800 { i } else { r.next_below(bits as u64) as usize };
                let mut bad = payload.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                parses_to_error_or_its_own_encoding(&bad, &counts);
            }
            if started.elapsed() > std::time::Duration::from_secs(2) {
                break;
            }
        }
    }

    #[test]
    fn hostile_varints_are_errors() {
        // One histogram of support 8 holding `entries`, no target.
        let histogram = |entries: &[u8]| {
            let mut body = vec![0, 1, 8];
            body.extend_from_slice(entries);
            body.push(0); // its (empty) joint runs
            body
        };
        let ok = histogram(&[2, 3, 5, 1, 9]);
        let mut into = ShardCounts::empty(None, [8]);
        read_count_merge(&ok, Some(&mut into)).unwrap();
        assert_eq!(into.attrs[0].sorted_entries(), vec![(3, 5), (4, 9)]);

        // Each with the parser's reason, so a case cannot pass by being
        // broken in some way other than the one it is here for.
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        let hostile: Vec<(&str, Vec<u8>)> = vec![
            ("over-long varint", histogram(&[2, 0x83, 0x00, 5, 1, 9])),
            ("over-long varint", histogram(&[2, 0x80, 0x00, 5, 1, 9])),
            ("varint overflows u64", histogram(&[&[1, 3][..], &[0xFF; 9], &[0x02]].concat())),
            ("varint overflows u64", histogram(&[&[1, 3][..], &[0xFF; 10], &[0x01]].concat())),
            ("count entry code beyond support", histogram(&[2, 3, 5, 5, 9])),
            ("count entry code beyond support", histogram(&[1, 8, 1])),
            ("count entry with a zero count", histogram(&[2, 3, 0, 1, 9])),
            ("count entries are not ascending", histogram(&[2, 3, 5, 0, 9])),
            ("count total overflows u64", histogram(&[&[2, 0][..], &max, &[1], &max].concat())),
            // Four billion entries claimed, two present.
            (
                "payload shorter than its layout",
                vec![0, 1, 8, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 1, 1, 1],
            ),
            ("histogram support exceeds u32", vec![0, 1, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0]),
            ("target flag is neither 0 nor 1", vec![2, 0]),
            // Joint runs: without a target; a candidate code, then a target
            // code, at its support; a repeated key.
            ("count entry code beyond support", vec![0, 1, 8, 0, 1, 0, 1]),
            ("count entry code beyond support", vec![1, 4, 0, 1, 8, 0, 1, 8, 1]),
            (
                "count entry code beyond support",
                [&[1, 4, 0, 1, 8, 0, 1][..], &[0x80, 0x80, 0x80, 0x80, 0x40], &[1]].concat(),
            ),
            ("count entries are not ascending", vec![1, 4, 0, 1, 8, 0, 2, 3, 1, 0, 1]),
            ("trailing bytes after payload", [&ok[..], &[0]].concat()),
        ];
        for (why, body) in hostile {
            match decode_payload(TAG_COUNT_MERGE, &body) {
                Err(FrameError::Malformed(reason)) => assert_eq!(reason, why, "{body:02x?}"),
                other => panic!("{why}: parsed {body:02x?} as {other:?}"),
            }
            // And through the envelope, as a peer would send it.
            assert!(decode(&envelope(TAG_COUNT_MERGE, &body)).is_err(), "{why}");
        }
        // The valid joint neighbours of the hostile ones, for contrast.
        let mut into = ShardCounts::empty(Some(4), [8]);
        read_count_merge(&[1, 4, 0, 1, 8, 0, 2, 3, 1, 1, 1], Some(&mut into)).unwrap();
        assert_eq!(into.joints[0].canonical_runs(), &[(3, 1), (4, 1)]);
    }

    #[test]
    fn joint_keys_span_a_target_change() {
        let mut counts = ShardCounts::empty(Some(3), [5]);
        let mut joint = PairCountState::new();
        joint.add(0, 4);
        joint.add(2, 0);
        joint.add(0, 4);
        joint.add(1, 3);
        counts.joints[0] = joint;
        let frame = CountMergeFrame::from_counts(&mut counts);
        let mut back = shape_of(&counts);
        frame.decode_into(&mut back).unwrap();
        assert_eq!(back.joints[0].canonical_runs(), &[(4, 2), (1 << 32 | 3, 1), (2 << 32, 1)]);
    }
}
