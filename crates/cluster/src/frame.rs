//! The cluster wire format: length-prefixed, CRC32-trailed typed frames.
//!
//! Every frame on a coordinator↔peer connection has the same envelope,
//! little-endian throughout:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SWPC"
//! 4       1     frame tag (1=Hello, 3=GrowDelta … 6=Error, 7=Marginals)
//! 5       4     payload length (u32; ≤ 512 MiB + 1 MiB for GrowDelta,
//!               ≤ 64 MiB for CountMerge, ≤ 1 MiB otherwise)
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
//! empty payload. `GrowDelta` carries the rows the peer counts:
//!
//! ```text
//! GrowDelta = u64 m_target, u8 has_target, u32 target
//!             u32 n, n × u32                live attributes
//!             u8 form
//!   form 0:   u32 rows, rows × u32          local rows, in draw order
//!   form 1:   u32 span, ⌈span / 8⌉ bytes    bit r % 8 of byte r / 8 set
//!                                           iff local row r is new
//! ```
//!
//! The sender picks the smaller form: the bitmap, over the peer's whole
//! slice (`span` = its row count), iff `32 × rows > span`, a tie going to
//! the list. A receiver refuses a bitmap the rule would not pick or with
//! bits past its span, and a peer a list it would not pick, so the
//! encoding of a delta is unique.
//! The bitmap's 512 MiB (a slice of `u32::MAX` rows) bounds the frame.
//!
//! `CountMerge` — one per peer per doubling, most of a query's reply
//! bytes — is LEB128 varints over the histograms' canonical form:
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
//! A `CountMerge` also answers `Marginals`, the request an MI query over
//! the whole union sends once, before its first `GrowDelta`: the peer's
//! partition-sketch totals for every attribute, no target and no joint
//! runs — or, from a peer without a usable sketch, a `CountMerge` over no
//! attributes at all (payload `00 00`), which declines.
//!
//! Versions: 2 made `CountMerge` varints (1 had fixed-width entries), 3
//! added `Marginals`, and 4 moved sampling to the coordinator — the
//! `QuerySpec` frame (tag 2), from which every peer replayed the union's
//! shuffle, is gone, and `GrowDelta` carries each peer's rows.
//!
//! [`FrameWriter`] and [`FrameReader`] each own one buffer that a session
//! reuses for every frame; [`write_frame`] and [`read_frame`] are the
//! same code over a throwaway buffer.

use std::io::{Read, Write};

use swope_core::{AttrMeta, CountRequest, CountState, ShardCounts};
use swope_store::crc32::{crc32, Crc32};
use swope_store::{ByteReader, ReadError};

/// Connection-sniffing magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SWPC";

/// Wire protocol version carried in [`Hello`] frames; peers reject
/// mismatches rather than guessing (see the module docs for what each
/// version changed).
pub const PROTOCOL_VERSION: u32 = 4;

/// Upper bound on a `CountMerge` payload. One over the widest supported
/// attribute set stays far below this; anything larger is a corrupt or
/// hostile length field.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Upper bound on the payload of every other frame type: a `Hello` over
/// tens of thousands of attributes fits, and nothing else comes close.
pub const MAX_CONTROL_PAYLOAD: u32 = 1 << 20;

/// Upper bound on a `GrowDelta` payload: the bitmap of a slice of
/// `u32::MAX` rows, plus a control frame's worth of attribute list. No
/// delta is ever split across frames.
pub const MAX_GROW_PAYLOAD: u32 = (512 << 20) + MAX_CONTROL_PAYLOAD;

const HEADER_LEN: usize = 9;
const TAG_GROW_DELTA: u8 = 3;
const TAG_COUNT_MERGE: u8 = 4;
const TAG_MARGINALS: u8 = 7;

/// The `CountMerge` payload over no attributes — no target, zero live —
/// with which a peer declines a `Marginals` request.
const DECLINE: [u8; 2] = [0, 0];

/// How far [`FrameReader`] grows its buffer ahead of the bytes that have
/// actually arrived: a header can claim [`MAX_GROW_PAYLOAD`], it cannot
/// make the reader allocate it.
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

/// `GrowDelta`: one doubling iteration's counting request — the rows
/// the sample grew by on this peer, to count for the still-live
/// attributes (paired against `target` for MI queries).
#[derive(Debug, Clone, PartialEq)]
pub struct GrowDelta {
    /// Cumulative sample-size target over the union (absolute, not a
    /// delta).
    pub m_target: u64,
    /// MI target attribute index, `None` for entropy queries.
    pub target: Option<u32>,
    /// Still-live attribute indexes, in engine state order.
    pub live: Vec<u32>,
    /// The peer's new rows.
    pub rows: DeltaRows,
}

/// The rows one doubling adds to a peer's sample, as its local row
/// indexes, in whichever form is smaller (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaRows {
    /// The rows in draw order.
    List(Vec<u32>),
    /// One bit per row of the peer's slice of `span` rows — bit `r % 8`
    /// of byte `r / 8` for local row `r` — so the rows read ascending.
    Bitmap {
        /// The slice's row count.
        span: u32,
        /// `⌈span / 8⌉` bytes.
        bits: Vec<u8>,
    },
}

impl DeltaRows {
    /// `rows` of a slice of `span` rows, in the form the wire rule picks.
    pub fn new(rows: &[u32], span: u32) -> Self {
        if travels_as_bitmap(rows.len(), u64::from(span)) {
            let mut bits = vec![0; bitmap_len(span)];
            set_bits(&mut bits, rows);
            DeltaRows::Bitmap { span, bits }
        } else {
            DeltaRows::List(rows.to_vec())
        }
    }

    /// Appends the rows to `out` in the order a peer counts them: draw
    /// order from a list, ascending from a bitmap.
    pub fn append_to(&self, out: &mut Vec<u32>) {
        let bits = match self {
            DeltaRows::List(rows) => return out.extend_from_slice(rows),
            DeltaRows::Bitmap { bits, .. } => bits,
        };
        for (i, chunk) in bits.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let mut word = u64::from_le_bytes(word);
            while word != 0 {
                out.push(64 * i as u32 + word.trailing_zeros());
                word &= word - 1;
            }
        }
    }
}

/// The wire rule: a delta of `rows` rows travels as a bitmap over its
/// slice of `span` rows iff that is smaller than the list — a tie goes to
/// the list.
pub(crate) fn travels_as_bitmap(rows: usize, span: u64) -> bool {
    32 * rows as u64 > span
}

fn bitmap_len(span: u32) -> usize {
    (span as usize).div_ceil(8)
}

fn set_bits(bits: &mut [u8], rows: &[u32]) {
    for &r in rows {
        bits[r as usize / 8] |= 1 << (r % 8);
    }
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
            Frame::GrowDelta(_) => TAG_GROW_DELTA,
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

const FORM_LIST: u8 = 0;
const FORM_BITMAP: u8 = 1;

/// A `GrowDelta`'s fields before its rows.
fn put_grow_head(
    out: &mut Vec<u8>,
    m_target: u64,
    target: Option<u32>,
    live: impl ExactSizeIterator<Item = u32>,
) {
    put_u64(out, m_target);
    out.push(target.is_some() as u8);
    put_u32(out, target.unwrap_or(0));
    put_u32(out, live.len() as u32);
    for a in live {
        put_u32(out, a);
    }
}

fn put_list(out: &mut Vec<u8>, rows: &[u32]) {
    out.push(FORM_LIST);
    put_u32(out, rows.len() as u32);
    let at = out.len();
    out.resize(at + 4 * rows.len(), 0);
    for (bytes, &r) in out[at..].chunks_exact_mut(4).zip(rows) {
        bytes.copy_from_slice(&r.to_le_bytes());
    }
}

/// A `GrowDelta`'s rows, in the form the wire rule picks, built in place.
fn put_rows(out: &mut Vec<u8>, rows: &[u32], span: u32) {
    if !travels_as_bitmap(rows.len(), u64::from(span)) {
        return put_list(out, rows);
    }
    out.push(FORM_BITMAP);
    put_u32(out, span);
    let at = out.len();
    out.resize(at + bitmap_len(span), 0);
    set_bits(&mut out[at..], rows);
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
        Frame::GrowDelta(g) => {
            put_grow_head(out, g.m_target, g.target, g.live.iter().copied());
            match &g.rows {
                DeltaRows::List(rows) => put_list(out, rows),
                DeltaRows::Bitmap { span, bits } => {
                    debug_assert_eq!(bits.len(), bitmap_len(*span));
                    out.push(FORM_BITMAP);
                    put_u32(out, *span);
                    out.extend_from_slice(bits);
                }
            }
        }
        Frame::CountMerge(c) => out.extend_from_slice(&c.payload),
        Frame::Result(r) => put_u64(out, r.sampled),
        Frame::Error(e) => put_str(out, &e.message),
        Frame::Marginals => {}
    }
}

// ---- payload reader --------------------------------------------------

impl From<ReadError> for FrameError {
    fn from(e: ReadError) -> Self {
        FrameError::Malformed(match e {
            ReadError::Truncated => "payload shorter than its layout",
            ReadError::NotUtf8 => "string field is not UTF-8",
            ReadError::ListTooLong => "list count exceeds payload size",
            ReadError::OverlongVarint => "over-long varint",
            ReadError::VarintOverflow => "varint overflows u64",
        })
    }
}

/// A `u32` count, then that many `u32`s.
fn u32_list(c: &mut ByteReader<'_>) -> Result<Vec<u32>, FrameError> {
    let n = c.list_len(4)?;
    let bytes = c.take(4 * n)?;
    Ok(bytes.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().unwrap())).collect())
}

/// One canonical list (see [`put_deltas`]): hands each `(key, count)`
/// to `entry`, which answers whether the key is in range. Nothing is
/// reserved from the claimed length; a list longer than the payload
/// runs out of bytes.
fn deltas(
    c: &mut ByteReader<'_>,
    mut entry: impl FnMut(u64, u64) -> bool,
) -> Result<u64, FrameError> {
    let n = c.varint()?;
    let mut key = 0u64;
    let mut total = 0u64;
    for i in 0..n {
        let delta = c.varint()?;
        if delta == 0 && i > 0 {
            return Err(FrameError::Malformed("count entries are not ascending"));
        }
        key =
            key.checked_add(delta).ok_or(FrameError::Malformed("count entry key overflows u64"))?;
        let k = c.varint()?;
        if k == 0 {
            return Err(FrameError::Malformed("count entry with a zero count"));
        }
        total = total.checked_add(k).ok_or(FrameError::Malformed("count total overflows u64"))?;
        if !entry(key, k) {
            return Err(FrameError::Malformed("count entry code beyond support"));
        }
    }
    Ok(n)
}

/// One histogram, added to `into` when given: its support must then
/// be the one `into` was built with. Returns `(support, entries)`.
fn histogram(
    c: &mut ByteReader<'_>,
    mut into: Option<&mut CountState>,
) -> Result<(u32, u64), FrameError> {
    let support = u32::try_from(c.varint()?)
        .map_err(|_| FrameError::Malformed("histogram support exceeds u32"))?;
    if into.as_ref().is_some_and(|cs| cs.support() != support) {
        return Err(FrameError::Malformed("histogram support disagrees with the request"));
    }
    let n = deltas(c, |code, k| {
        let ok = code < support as u64;
        if let (true, Some(cs)) = (ok, into.as_deref_mut()) {
            cs.increment(code as u32, k);
        }
        ok
    })?;
    Ok((support, n))
}

fn finish(c: &ByteReader<'_>) -> Result<(), FrameError> {
    if c.remaining() > 0 {
        return Err(FrameError::Malformed("trailing bytes after payload"));
    }
    Ok(())
}

/// Walks one `CountMerge` payload, checking every rule that makes the
/// encoding canonical and every code and joint key against the supports
/// the payload itself declares; with `into`, also against the supports
/// and list lengths `into` was shaped with, adding the counts to it.
/// Returns the entries and runs carried. Nothing is allocated.
fn read_count_merge(bytes: &[u8], mut into: Option<&mut ShardCounts>) -> Result<u64, FrameError> {
    const SHAPE: FrameError = FrameError::Malformed("CountMerge shape disagrees with the request");
    let mut c = ByteReader::new(bytes);
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
        let (support, n) = histogram(&mut c, into.as_deref_mut().and_then(|s| s.target.as_mut()))?;
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
        let (support, n) = histogram(&mut c, into.as_deref_mut().map(|s| &mut s.attrs[i]))?;
        entries += n;
        let mut joint = into.as_deref_mut().map(|s| &mut s.joints[i]);
        entries += deltas(&mut c, |key, k| {
            let ok = key >> 32 < target_support && key & 0xFFFF_FFFF < support as u64;
            if let (true, Some(joint)) = (ok, joint.as_deref_mut()) {
                joint.increment(key, k);
            }
            ok
        })?;
    }
    finish(&c)?;
    Ok(entries)
}

fn decode_payload(tag: u8, bytes: &[u8]) -> Result<Frame, FrameError> {
    if tag == TAG_COUNT_MERGE {
        let entries = read_count_merge(bytes, None)?;
        return Ok(Frame::CountMerge(CountMergeFrame { payload: bytes.to_vec(), entries }));
    }
    let mut c = ByteReader::new(bytes);
    let frame = match tag {
        1 => {
            let version = c.u32()?;
            let dataset = c.str()?.to_owned();
            let num_rows = c.u64()?;
            let n = c.list_len(8)?;
            let mut attrs = Vec::with_capacity(n);
            for _ in 0..n {
                let name = c.str()?.to_owned();
                let support = c.u32()?;
                attrs.push(AttrMeta { name, support });
            }
            Frame::Hello(Hello { version, dataset, num_rows, attrs })
        }
        TAG_GROW_DELTA => {
            let m_target = c.u64()?;
            let has_target = c.u8()? != 0;
            let target_raw = c.u32()?;
            let live = u32_list(&mut c)?;
            let rows = match c.u8()? {
                FORM_LIST => DeltaRows::List(u32_list(&mut c)?),
                FORM_BITMAP => {
                    let span = c.u32()?;
                    let bits = c.take(bitmap_len(span))?;
                    if span % 8 != 0 && bits[bits.len() - 1] >> (span % 8) != 0 {
                        return Err(FrameError::Malformed("bitmap sets a bit past its span"));
                    }
                    let rows = bits.iter().map(|b| b.count_ones() as usize).sum();
                    if !travels_as_bitmap(rows, u64::from(span)) {
                        return Err(FrameError::Malformed("a delta this sparse travels as a list"));
                    }
                    DeltaRows::Bitmap { span, bits: bits.to_vec() }
                }
                _ => return Err(FrameError::Malformed("row form is neither list nor bitmap")),
            };
            let target = has_target.then_some(target_raw);
            Frame::GrowDelta(GrowDelta { m_target, target, live, rows })
        }
        5 => Frame::Result(ResultFrame { sampled: c.u64()? }),
        6 => Frame::Error(ErrorFrame { message: c.str()?.to_owned() }),
        TAG_MARGINALS => Frame::Marginals,
        other => return Err(FrameError::UnknownTag(other)),
    };
    finish(&c)?;
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

    /// Writes a `GrowDelta` for `req` straight from a peer's new `rows`
    /// of its slice of `span` rows, in the form the wire rule picks,
    /// returning the bytes put on the wire.
    pub fn write_grow_delta<W: Write>(
        &mut self,
        w: &mut W,
        m_target: u64,
        req: &CountRequest,
        rows: &[u32],
        span: u32,
    ) -> Result<usize, FrameError> {
        self.begin(TAG_GROW_DELTA);
        let live = req.live.iter().map(|&a| a as u32);
        put_grow_head(&mut self.buf, m_target, req.target.map(|t| t as u32), live);
        put_rows(&mut self.buf, rows, span);
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
    match tag {
        TAG_GROW_DELTA => MAX_GROW_PAYLOAD,
        TAG_COUNT_MERGE => MAX_PAYLOAD,
        _ => MAX_CONTROL_PAYLOAD,
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

    /// A sparse delta of a 1 000-row slice: three rows, in draw order.
    fn grow_list() -> Frame {
        let rows = DeltaRows::new(&[617, 3, 250], 1_000);
        Frame::GrowDelta(GrowDelta { m_target: 4096, target: Some(3), live: vec![0, 1, 5], rows })
    }

    /// A dense delta of a 1 000-row slice: every third row.
    fn grow_bitmap() -> Frame {
        let rows: Vec<u32> = (0..1_000).step_by(3).collect();
        let rows = DeltaRows::new(&rows, 1_000);
        Frame::GrowDelta(GrowDelta { m_target: 64, target: None, live: vec![2], rows })
    }

    /// One frame of every kind with a payload layout to break, `GrowDelta`
    /// in both forms.
    fn containment_samples() -> Vec<Frame> {
        let count_merge = Frame::CountMerge(CountMergeFrame::from_counts(&mut sample_counts()));
        vec![samples().remove(0), grow_list(), grow_bitmap(), count_merge, Frame::Marginals]
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
            grow_list(),
            grow_bitmap(),
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
        for frame in containment_samples() {
            let clean = encode(&frame);
            // Flipping any single bit past the magic must be caught (the
            // CRC covers tag, length, and payload; the magic check covers
            // 0..4).
            for bit in 0..clean.len() * 8 {
                let mut bad = clean.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(decode(&bad).is_err(), "{}: flip of bit {bit} undetected", frame.name());
            }
        }
    }

    #[test]
    fn truncation_and_oversize_are_rejected() {
        for frame in containment_samples() {
            let bytes = encode(&frame);
            for cut in 0..bytes.len() {
                assert!(decode(&bytes[..cut]).is_err(), "{}: cut at {cut} accepted", frame.name());
            }
            let mut huge = bytes.clone();
            huge[5..9].copy_from_slice(&(payload_limit(frame.tag()) + 1).to_le_bytes());
            assert!(matches!(decode(&huge), Err(FrameError::Oversize(_))));
        }
    }

    /// The bitmap iff `32 × rows > span`, a tie going to the list; the
    /// session path writes what the frame value does, and a bitmap reads
    /// back ascending.
    #[test]
    fn grow_delta_takes_the_smaller_form() {
        let req = CountRequest { target: Some(1), live: vec![0, 2] };
        for (n, bitmap) in [(0, false), (10, false), (11, true), (320, true)] {
            let rows: Vec<u32> = (0..n).map(|i| (i * 97) % 320).rev().collect();
            let delta = DeltaRows::new(&rows, 320);
            assert_eq!(matches!(delta, DeltaRows::Bitmap { .. }), bitmap, "{n} rows");
            let frame = Frame::GrowDelta(GrowDelta {
                m_target: 9,
                target: Some(1),
                live: vec![0, 2],
                rows: delta,
            });
            let mut direct = Vec::new();
            FrameWriter::new().write_grow_delta(&mut direct, 9, &req, &rows, 320).unwrap();
            assert_eq!(direct, encode(&frame), "{n} rows");
            let Ok(Frame::GrowDelta(back)) = decode(&direct) else { panic!("{n} rows") };
            let mut read = Vec::new();
            back.rows.append_to(&mut read);
            if bitmap {
                let mut ascending = rows.clone();
                ascending.sort_unstable();
                assert_eq!(read, ascending);
            } else {
                assert_eq!(read, rows);
            }
        }
    }

    #[test]
    fn hostile_bitmaps_are_errors() {
        // A GrowDelta over no attributes with `rows` as its row part.
        let grow = |rows: &[u8]| {
            let mut body = Vec::new();
            put_grow_head(&mut body, 8, None, std::iter::empty());
            body.extend_from_slice(rows);
            body
        };
        // 12 rows of a 20-row slice: three bytes, the last with 4 spare bits.
        let bitmap = |last: u8| [&[FORM_BITMAP, 20, 0, 0, 0, 0xFF, 0x0F][..], &[last]].concat();
        assert!(decode_payload(TAG_GROW_DELTA, &grow(&bitmap(0x00))).is_ok());
        let hostile: Vec<(&str, Vec<u8>)> = vec![
            ("bitmap sets a bit past its span", grow(&bitmap(0x10))),
            ("bitmap sets a bit past its span", grow(&bitmap(0x80))),
            (
                "a delta this sparse travels as a list",
                grow(&[FORM_BITMAP, 64, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]),
            ),
            ("a delta this sparse travels as a list", grow(&[FORM_BITMAP, 0, 0, 0, 0])),
            ("payload shorter than its layout", grow(&bitmap(0)[..7])),
            ("row form is neither list nor bitmap", grow(&[2, 0, 0, 0, 0])),
            ("list count exceeds payload size", grow(&[FORM_LIST, 2, 0, 0, 0, 1, 0, 0, 0])),
            ("trailing bytes after payload", grow(&[FORM_LIST, 0, 0, 0, 0, 0])),
        ];
        for (why, body) in hostile {
            match decode_payload(TAG_GROW_DELTA, &body) {
                Err(FrameError::Malformed(reason)) => assert_eq!(reason, why, "{body:02x?}"),
                other => panic!("{why}: parsed {body:02x?} as {other:?}"),
            }
        }
    }

    #[test]
    fn a_header_cannot_make_the_reader_allocate_its_claim() {
        // Nine bytes claiming the largest legal payload, then silence: an
        // I/O error, and a buffer no bigger than one read step.
        let mut header = MAGIC.to_vec();
        header.push(TAG_GROW_DELTA);
        header.extend_from_slice(&MAX_GROW_PAYLOAD.to_le_bytes());
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
