//! The cluster wire format: length-prefixed, CRC32-trailed typed frames.
//!
//! Every frame on a coordinator↔peer connection has the same envelope,
//! little-endian throughout:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SWPC"
//! 4       1     frame tag (1=Hello, 3=GrowDelta … 6=Error, 7=Marginals)
//! 5       4     payload length (u32; ≤ 2 MiB + 1 MiB for GrowDelta,
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
//! empty payload. A peer's `Hello` names its frame, the table that lays
//! its rows out; a `Hello` of no rows (a coordinator's request) names
//! none and is a v5 `Hello`'s bytes, so a v5 peer reads its version and
//! refuses it in one line.
//! `GrowDelta` carries the positions the peer counts: the windows of the
//! query's one page-prefix sample on the union pages the peer's slice
//! overlaps, checked by the peer against its own frame.
//!
//! ```text
//! Hello       = u32 version, str dataset
//!               u64 num_rows                the peer's rows
//!               [u64 before, u64 after]     its frame's rows before and
//!                                           after them, iff num_rows > 0
//!               u32 n, n × (str name, u32 support)
//! GrowDelta   = u64 m_target, u8 has_target, u32 target
//!               u32 n, n × u32              live attributes
//!               u32 runs, runs × (u32 page, u32 start, u32 len)
//!                                           slots start..start+len of a
//!                                           union page
//!               u32 pages, pages × fringe   a range's fringe pages
//! fringe      = u32 page, u8 form
//!   form 0:     u32 k, k × u16 slot         the page's drawn slots, in
//!                                           draw order
//!   form 1:     u16 from, u32 span,         bit i % 8 of byte i / 8 set
//!               ⌈span / 8⌉ bytes            iff slot (from + i) mod
//!                                           PAGE_ROWS was drawn
//! ```
//!
//! The codec reads every union page as `PAGE_ROWS` slots, so it needs no
//! frame; a peer refuses a slot past the rows its union's last page
//! holds. Runs go in page order, each inside its page, and fringe pages
//! ascend. A fringe page's *window* starts at the first slot listed and
//! runs, wrapping past slot `PAGE_ROWS − 1`, to the furthest one: a
//! doubling draws a page's next members in slot order, so the window is
//! the stretch of slots it swept, and a query's windows on a page add up
//! to at most the page. The sender writes the window as a bitmap iff that
//! takes fewer bytes than the list, `6 + ⌈span / 8⌉ < 4 + 2k`, a tie
//! going to the list. A receiver refuses a form the rule would not pick,
//! a bitmap whose first or last bit is clear, bits past the page, and a
//! page past the positions a `u32` names, so re-encoding a decoded delta
//! is byte-identical. Runs take two a page at most, 1.5 MiB over the
//! 65 536 pages of `u32::MAX` rows, and a range has two fringe pages:
//! that bounds the frame.
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
//! A coordinator never decodes a `CountMerge` into histograms. Each
//! peer's reply stays in its session's [`FrameReader`] buffer, CRC-checked,
//! and `swope_core::shard::merge_replies` walks all of them at once in
//! layout order: every reader is a [`ShardReply`] that reads one list at a
//! time where it lies, checks it against the request's shape and the
//! supports the session's `Hello` announced as well as every rule above,
//! and the merge hands the lists' sums, key by key, straight to the
//! query's states. A list that breaks a rule fails the merge before any
//! of its entries is handed on; lists before it have been. `read_frame`
//! checks a `CountMerge` with the same walk against the supports the
//! payload declares, and [`CountMergeFrame::decode_into`] is the merge
//! over one reply.
//!
//! A `CountMerge` also answers `Marginals`, the request an MI query over
//! the whole union sends once, before its first `GrowDelta`: the peer's
//! partition-sketch totals for every attribute, no target and no joint
//! runs — or, from a peer without a usable sketch, a `CountMerge` over no
//! attributes at all (payload `00 00`), which declines.
//!
//! Versions: 2 made `CountMerge` varints (1 had fixed-width entries), 3
//! added `Marginals`, 4 moved sampling to the coordinator — the
//! `QuerySpec` frame (tag 2), from which every peer replayed the union's
//! shuffle, is gone — 5 sends each peer union positions in page
//! windows, where 4 sent it its own rows, and 6 moved the frame from
//! every `GrowDelta` into the peer's `Hello`.
//!
//! [`FrameWriter`] and [`FrameReader`] each own one buffer that a session
//! reuses for every frame; [`write_frame`] and [`read_frame`] are the
//! same code over a throwaway buffer.

use std::io::{Read, Write};
use std::ops::Range;

use swope_core::shard::{merge_replies, ShardReply, Step};
use swope_core::{AttrMeta, CountRequest, CountState, ShardCounts};
use swope_sampling::Positions;
use swope_store::crc32::{crc32, Crc32};
use swope_store::page::PAGE_ROWS;
use swope_store::{ByteReader, ReadError};

/// Connection-sniffing magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SWPC";

/// Wire protocol version carried in [`Hello`] frames; peers reject
/// mismatches rather than guessing (see the module docs for what each
/// version changed).
pub const PROTOCOL_VERSION: u32 = 6;

/// Upper bound on a `CountMerge` payload. One over the widest supported
/// attribute set stays far below this; anything larger is a corrupt or
/// hostile length field.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Upper bound on the payload of every other frame type: a `Hello` over
/// tens of thousands of attributes fits, and nothing else comes close.
pub const MAX_CONTROL_PAYLOAD: u32 = 1 << 20;

/// Upper bound on a `GrowDelta` payload: two runs on every page of
/// `u32::MAX` rows and two fringe bitmaps (see the module docs), plus a
/// control frame's worth of attribute list. No delta is ever split
/// across frames.
pub const MAX_GROW_PAYLOAD: u32 = (2 << 20) + MAX_CONTROL_PAYLOAD;

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
/// sends the dataset name it wants (with zero rows, no frame and no
/// attrs); the peer replies with its row count, its frame and its
/// attribute metadata. A `Hello` of no rows names no frame: its
/// `before` and `after` are not written, and read back as 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hello {
    /// Must equal [`PROTOCOL_VERSION`] on both sides.
    pub version: u32,
    /// Registry name of the dataset ("" asks the peer for its default).
    pub dataset: String,
    /// Peer's local row count (0 in the coordinator's request).
    pub num_rows: u64,
    /// Rows of the peer's frame before its own (0 in the request).
    pub before: u64,
    /// Rows of the peer's frame after its own (0 in the request).
    pub after: u64,
    /// Peer's attribute names and supports (empty in the request).
    pub attrs: Vec<AttrMeta>,
}

impl Hello {
    /// The frame a peer's reply names, `(union_rows, base)` as
    /// `Dataset::frame` gives it, or `None` if its rows add up past a
    /// `u64`.
    pub fn frame(&self) -> Option<(u64, u64)> {
        let union_rows = self.before.checked_add(self.num_rows)?.checked_add(self.after)?;
        Some((union_rows, self.before))
    }
}

/// `GrowDelta`: one doubling iteration's counting request — the union
/// positions the sample grew by on the pages this peer's slice overlaps,
/// to count for the still-live attributes (paired against `target` for
/// MI queries).
#[derive(Debug, Clone, PartialEq)]
pub struct GrowDelta {
    /// Cumulative sample-size target over the union (absolute, not a
    /// delta).
    pub m_target: u64,
    /// MI target attribute index, `None` for entropy queries.
    pub target: Option<u32>,
    /// Still-live attribute indexes, in engine state order.
    pub live: Vec<u32>,
    /// Whole-page windows: runs of union positions, each inside one page,
    /// in page order.
    pub runs: Vec<Range<u32>>,
    /// Fringe-page positions, page by page in page order, in draw order:
    /// a page that travelled as a bitmap reads back in window order,
    /// ascending from its first slot and wrapping past the page's end.
    pub list: Vec<u32>,
}

/// The wire rule: `k` drawn slots of a fringe page whose window spans
/// `span` slots travel as a bitmap of the window iff that takes fewer
/// bytes than the list of `u16` slots — a tie goes to the list.
fn fringe_as_bitmap(k: usize, span: u32) -> bool {
    6 + u64::from(span).div_ceil(8) < 4 + 2 * k as u64
}

/// `CountMerge`: a peer's integer count deltas for one `GrowDelta`, held
/// as its validated canonical payload bytes — equal frames are equal
/// histograms. Sessions do not build one per iteration
/// ([`FrameWriter::write_count_merge`] writes a peer's counts straight
/// into the session's buffer, and the coordinator merges replies where
/// its [`FrameReader`]s received them); this is the frame as a value, for
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

    /// Adds the frame's counts to `counts`: the one-reply merge, through
    /// a reader holding a copy of the payload.
    ///
    /// `counts` states what the receiver asked for — a target histogram
    /// or none, one histogram and one joint delta per live attribute,
    /// each of the support the session's `Hello` announced — and a frame
    /// that disagrees in any of it is an error: the supports a peer writes
    /// on the wire are checked, never trusted. On an error `counts` may
    /// hold part of the frame.
    pub fn decode_into(&self, counts: &mut ShardCounts) -> Result<(), FrameError> {
        let target = counts.target.as_ref().map(CountState::support);
        let live: Vec<u32> = counts.attrs.iter().map(CountState::support).collect();
        let mut reader = FrameReader::new();
        reader.buf.extend_from_slice(&self.payload);
        (reader.tag, reader.len) = (TAG_COUNT_MERGE, self.payload.len());
        let one = std::slice::from_mut(&mut reader);
        merge_replies(one, target, live.into_iter(), counts).map_err(|(_, e)| e)
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

/// A whole `GrowDelta` payload: its head, then `positions` — runs as page
/// windows, the list as fringe pages in the form the wire rule picks.
fn put_grow_delta(
    out: &mut Vec<u8>,
    m_target: u64,
    target: Option<u32>,
    live: impl ExactSizeIterator<Item = u32>,
    positions: Positions<'_>,
) {
    put_u64(out, m_target);
    out.push(target.is_some() as u8);
    put_u32(out, target.unwrap_or(0));
    put_u32(out, live.len() as u32);
    for a in live {
        put_u32(out, a);
    }
    let page_rows = PAGE_ROWS as u32;
    put_u32(out, positions.runs.len() as u32);
    for run in positions.runs {
        debug_assert!(!run.is_empty() && (run.end - 1) / page_rows == run.start / page_rows);
        put_u32(out, run.start / page_rows);
        put_u32(out, run.start % page_rows);
        put_u32(out, run.end - run.start);
    }
    let count_at = out.len();
    put_u32(out, 0);
    let mut pages = 0u32;
    let mut rest = positions.list;
    while let Some(&first) = rest.first() {
        let page = first / page_rows;
        let k = rest.iter().position(|&p| p / page_rows != page).unwrap_or(rest.len());
        let (slots, tail) = rest.split_at(k);
        rest = tail;
        put_u32(out, page);
        // The window starts at the first slot listed and runs, wrapping
        // past the page's last slot, to the furthest one.
        let from = first % page_rows;
        let offset = |p: u32| (p + page_rows - from) % page_rows;
        let span = slots.iter().map(|&p| offset(p)).max().unwrap_or(0) + 1;
        if fringe_as_bitmap(k, span) {
            out.push(FORM_BITMAP);
            out.extend_from_slice(&(from as u16).to_le_bytes());
            put_u32(out, span);
            let at = out.len();
            out.resize(at + (span as usize).div_ceil(8), 0);
            for i in slots.iter().map(|&p| offset(p) as usize) {
                out[at + i / 8] |= 1 << (i % 8);
            }
        } else {
            out.push(FORM_LIST);
            put_u32(out, k as u32);
            for &p in slots {
                out.extend_from_slice(&((p % page_rows) as u16).to_le_bytes());
            }
        }
        pages += 1;
    }
    out[count_at..count_at + 4].copy_from_slice(&pages.to_le_bytes());
}

fn put_payload(out: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Hello(h) => {
            put_u32(out, h.version);
            put_str(out, &h.dataset);
            put_u64(out, h.num_rows);
            if h.num_rows > 0 {
                put_u64(out, h.before);
                put_u64(out, h.after);
            }
            put_u32(out, h.attrs.len() as u32);
            for a in &h.attrs {
                put_str(out, &a.name);
                put_u32(out, a.support);
            }
        }
        Frame::GrowDelta(g) => put_grow_delta(
            out,
            g.m_target,
            g.target,
            g.live.iter().copied(),
            Positions { runs: &g.runs, list: &g.list },
        ),
        Frame::CountMerge(c) => out.extend_from_slice(&c.payload),
        Frame::Result(r) => put_u64(out, r.sampled),
        Frame::Error(e) => put_str(out, &e.message),
        Frame::Marginals => {}
    }
}

// ---- payload reader --------------------------------------------------

impl From<ReadError> for FrameError {
    fn from(e: ReadError) -> Self {
        FrameError::Malformed(reason(e))
    }
}

/// A [`ReadError`]'s words as a [`FrameError::Malformed`] reason.
fn reason(e: ReadError) -> &'static str {
    match e {
        ReadError::Truncated => "payload shorter than its layout",
        ReadError::NotUtf8 => "string field is not UTF-8",
        ReadError::ListTooLong => "list count exceeds payload size",
        ReadError::OverlongVarint => "over-long varint",
        ReadError::VarintOverflow => "varint overflows u64",
    }
}

/// A `u32` count, then that many `u32`s.
fn u32_list(c: &mut ByteReader<'_>) -> Result<Vec<u32>, FrameError> {
    let n = c.list_len(4)?;
    let bytes = c.take(4 * n)?;
    Ok(bytes.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().unwrap())).collect())
}

/// `page·PAGE_ROWS + slot`, if a `u32` names it.
fn position(page: u32, slot: u32) -> Result<u32, FrameError> {
    let at = page.checked_mul(PAGE_ROWS as u32).and_then(|first| first.checked_add(slot));
    at.ok_or(FrameError::Malformed("a page past the positions a u32 names"))
}

/// A `GrowDelta`'s windows: its runs, then its fringe pages' positions,
/// each checked against the rules that make the encoding unique (see the
/// module docs).
fn windows(c: &mut ByteReader<'_>) -> Result<(Vec<Range<u32>>, Vec<u32>), FrameError> {
    let rows = PAGE_ROWS as u32;
    let n = c.list_len(12)?;
    let mut runs = Vec::with_capacity(n);
    let mut last = 0;
    for _ in 0..n {
        let (page, start, len) = (c.u32()?, c.u32()?, c.u32()?);
        if page < last {
            return Err(FrameError::Malformed("windows are not in page order"));
        }
        last = page;
        if len == 0 || start >= rows || len > rows - start {
            return Err(FrameError::Malformed("a window past its page's rows"));
        }
        runs.push(position(page, start)?..position(page, start + len)?);
    }
    let pages = c.list_len(5)?;
    let mut list = Vec::new();
    let mut after = None;
    for _ in 0..pages {
        let page = c.u32()?;
        if after.is_some_and(|before| page <= before) {
            return Err(FrameError::Malformed("fringe pages do not ascend"));
        }
        after = Some(page);
        let first = position(page, 0)?;
        match c.u8()? {
            FORM_LIST => {
                let k = c.list_len(2)?;
                let mut slots = Vec::with_capacity(k);
                for _ in 0..k {
                    slots.push(u32::from(c.u16()?));
                }
                let Some(&from) = slots.first() else {
                    return Err(FrameError::Malformed("a fringe page with no slot"));
                };
                let span = slots.iter().map(|&s| (s + rows - from) % rows).max().unwrap_or(0) + 1;
                if fringe_as_bitmap(k, span) {
                    return Err(FrameError::Malformed(
                        "a fringe page this dense travels as a bitmap",
                    ));
                }
                list.extend(slots.iter().map(|&slot| first + slot));
            }
            FORM_BITMAP => {
                let from = u32::from(c.u16()?);
                let span = c.u32()?;
                if span == 0 || span > rows {
                    return Err(FrameError::Malformed("a window past its page's rows"));
                }
                let bits = c.take((span as usize).div_ceil(8))?;
                if span % 8 != 0 && bits[bits.len() - 1] >> (span % 8) != 0 {
                    return Err(FrameError::Malformed("a bitmap sets a bit past its window"));
                }
                let bit = |i: u32| bits[i as usize / 8] >> (i % 8) & 1 == 1;
                if !bit(0) || !bit(span - 1) {
                    return Err(FrameError::Malformed("a bitmap window wider than its slots"));
                }
                let k = bits.iter().map(|b| b.count_ones() as usize).sum();
                if !fringe_as_bitmap(k, span) {
                    return Err(FrameError::Malformed(
                        "a fringe page this sparse travels as a list",
                    ));
                }
                for (i, chunk) in bits.chunks(8).enumerate() {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    let mut word = u64::from_le_bytes(word);
                    while word != 0 {
                        let offset = 64 * i as u32 + word.trailing_zeros();
                        list.push(first + (from + offset) % rows);
                        word &= word - 1;
                    }
                }
            }
            _ => return Err(FrameError::Malformed("fringe form is neither list nor bitmap")),
        }
    }
    Ok((runs, list))
}

fn finish(c: &ByteReader<'_>) -> Result<(), FrameError> {
    if c.remaining() > 0 {
        return Err(FrameError::Malformed("trailing bytes after payload"));
    }
    Ok(())
}

/// Why a payload breaks a rule: a [`FrameError::Malformed`] reason. The
/// payload walk returns this word-sized error, not a [`FrameError`].
type Broken = &'static str;

/// One varint at `*pos`, which it moves past.
fn varint_at(bytes: &[u8], pos: &mut usize) -> Result<u64, Broken> {
    let mut c = ByteReader::new(&bytes[*pos..]);
    let v = c.varint().map_err(reason)?;
    *pos = bytes.len() - c.remaining();
    Ok(v)
}

/// One canonical list at `*pos` (see [`put_deltas`]), which it moves
/// past: hands `entry` each `(key, count)` after checking that keys
/// ascend strictly, counts are nonzero, their total fits a `u64`, and
/// each key's high half is below `u_t` and low half below `u_a` (a
/// histogram's `u_t` is 1: its codes are below `u_a`). Returns the
/// entries read. Nothing is reserved from the claimed length; a list
/// longer than the payload runs out of bytes.
#[inline]
fn list_at(
    bytes: &[u8],
    pos: &mut usize,
    (u_t, u_a): (u64, u64),
    mut entry: impl FnMut(u64, u64),
) -> Result<u64, Broken> {
    let mut c = ByteReader::new(&bytes[*pos..]);
    let n = c.varint().map_err(reason)?;
    let (mut key, mut total) = (0u64, 0u64);
    for i in 0..n {
        let delta = c.varint().map_err(reason)?;
        if delta == 0 && i > 0 {
            return Err("count entries are not ascending");
        }
        key = key.checked_add(delta).ok_or("count entry key overflows u64")?;
        let k = c.varint().map_err(reason)?;
        if k == 0 {
            return Err("count entry with a zero count");
        }
        total = total.checked_add(k).ok_or("count total overflows u64")?;
        if key >> 32 >= u_t || key & 0xFFFF_FFFF >= u_a {
            return Err("count entry code beyond support");
        }
        entry(key, k);
    }
    *pos = bytes.len() - c.remaining();
    Ok(n)
}

/// A histogram's support at `*pos`, which must be `expect` when given.
fn support_at(bytes: &[u8], pos: &mut usize, expect: Option<u32>) -> Result<u32, Broken> {
    let support =
        u32::try_from(varint_at(bytes, pos)?).map_err(|_| "histogram support exceeds u32")?;
    if expect.is_some_and(|u| u != support) {
        return Err("histogram support disagrees with the request");
    }
    Ok(support)
}

/// The target flag at `*pos`.
fn flag_at(bytes: &[u8], pos: &mut usize) -> Result<bool, Broken> {
    match bytes.get(*pos) {
        Some(&flag @ (0 | 1)) => {
            *pos += 1;
            Ok(flag == 1)
        }
        Some(_) => Err("target flag is neither 0 nor 1"),
        None => Err(reason(ReadError::Truncated)),
    }
}

/// Where a merge stands in one `CountMerge` payload: the byte it reads
/// next, and the list it is in, read whole as it opened — every rule
/// that makes the encoding canonical checked (a flag of 0 or 1, minimal
/// varints, [`list_at`]'s, no trailing bytes) before any of its entries
/// is handed on. The payload is passed to every call rather than held,
/// so a session's cursor lives beside the buffer it reads; the list's
/// buffer grows to the longest list once and is reused.
#[derive(Debug, Default)]
struct CountCursor {
    pos: usize,
    list: Vec<(u64, u64)>,
    at: usize,
    /// Histogram entries and joint runs read since the payload began.
    entries: u64,
}

impl CountCursor {
    /// Reads the list at the cursor whole, with the bounds of
    /// [`list_at`].
    fn open(&mut self, bytes: &[u8], bounds: (u64, u64)) -> Result<(), Broken> {
        let Self { pos, list, .. } = self;
        list.clear();
        self.entries += list_at(bytes, pos, bounds, |key, k| list.push((key, k)))?;
        self.at = 0;
        Ok(())
    }

    /// One [`Step`] of a merge over a reply to a request: the reply's
    /// shape and supports must be the request's.
    fn step(&mut self, bytes: &[u8], step: Step) -> Result<(), Broken> {
        const SHAPE: Broken = "CountMerge shape disagrees with the request";
        let pos = &mut self.pos;
        match step {
            Step::Begin { target } => {
                (*pos, self.entries) = (0, 0);
                self.list.clear();
                if flag_at(bytes, pos)? != target {
                    return Err(SHAPE);
                }
            }
            Step::Target { support } | Step::Marginal { support, .. } => {
                support_at(bytes, pos, Some(support))?;
                self.open(bytes, (1, support.into()))?;
            }
            Step::Live(n) => {
                if varint_at(bytes, pos)? != n as u64 {
                    return Err(SHAPE);
                }
            }
            Step::Joint { u_t, u_a, .. } => self.open(bytes, (u_t.into(), u_a.into()))?,
            Step::End => {
                self.list.clear();
                if *pos < bytes.len() {
                    return Err("trailing bytes after payload");
                }
            }
        }
        Ok(())
    }

    #[inline]
    fn head(&self) -> Option<(u64, u64)> {
        self.list.get(self.at).copied()
    }
}

/// Walks one `CountMerge` payload against the supports it declares
/// itself, checking every rule [`CountCursor`] checks, and keeping
/// nothing. Returns the entries and runs carried.
fn read_count_merge(bytes: &[u8]) -> Result<u64, Broken> {
    let (mut pos, mut entries) = (0, 0);
    let pos = &mut pos;
    // Without a target no joint run is legal: a bound of zero refuses all.
    let mut u_t = 0;
    if flag_at(bytes, pos)? {
        u_t = support_at(bytes, pos, None)?;
        entries += list_at(bytes, pos, (1, u_t.into()), |_, _| {})?;
    }
    for _ in 0..varint_at(bytes, pos)? {
        let u_a = support_at(bytes, pos, None)?;
        entries += list_at(bytes, pos, (1, u_a.into()), |_, _| {})?;
        entries += list_at(bytes, pos, (u_t.into(), u_a.into()), |_, _| {})?;
    }
    if *pos < bytes.len() {
        return Err("trailing bytes after payload");
    }
    Ok(entries)
}

fn decode_payload(tag: u8, bytes: &[u8]) -> Result<Frame, FrameError> {
    if tag == TAG_COUNT_MERGE {
        let entries = read_count_merge(bytes).map_err(FrameError::Malformed)?;
        return Ok(Frame::CountMerge(CountMergeFrame { payload: bytes.to_vec(), entries }));
    }
    let mut c = ByteReader::new(bytes);
    let frame = match tag {
        1 => {
            let version = c.u32()?;
            let dataset = c.str()?.to_owned();
            let num_rows = c.u64()?;
            let (before, after) = if num_rows > 0 { (c.u64()?, c.u64()?) } else { (0, 0) };
            let n = c.list_len(8)?;
            let mut attrs = Vec::with_capacity(n);
            for _ in 0..n {
                let name = c.str()?.to_owned();
                let support = c.u32()?;
                attrs.push(AttrMeta { name, support });
            }
            Frame::Hello(Hello { version, dataset, num_rows, before, after, attrs })
        }
        TAG_GROW_DELTA => {
            let m_target = c.u64()?;
            let target = match (c.u8()?, c.u32()?) {
                (0, 0) => None,
                (1, t) => Some(t),
                (0, _) => return Err(FrameError::Malformed("a target index without a target")),
                _ => return Err(FrameError::Malformed("target flag is neither 0 nor 1")),
            };
            let live = u32_list(&mut c)?;
            let (runs, list) = windows(&mut c)?;
            Frame::GrowDelta(GrowDelta { m_target, target, live, runs, list })
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

    /// Writes a `GrowDelta` for `req` straight from the union `positions`
    /// a peer counts, returning the bytes put on the wire.
    pub fn write_grow_delta<W: Write>(
        &mut self,
        w: &mut W,
        m_target: u64,
        req: &CountRequest,
        positions: Positions<'_>,
    ) -> Result<usize, FrameError> {
        self.begin(TAG_GROW_DELTA);
        let live = req.live.iter().map(|&a| a as u32);
        let target = req.target.map(|t| t as u32);
        put_grow_delta(&mut self.buf, m_target, target, live, positions);
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
///
/// A `CountMerge` it received is also a [`ShardReply`]: the coordinator's
/// merge reads it where it lies, a list at a time, checking each as it
/// goes (see the module docs), and never parses it into histograms
/// first.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// The last frame's tag and payload length (`buf[..len]`); zero while
    /// a read is under way or after one failed.
    tag: u8,
    len: usize,
    cursor: CountCursor,
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
        (self.tag, self.len) = (0, 0);
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
        (self.tag, self.len) = (tag, payload.len());
        Ok(Envelope { tag, payload, wire_len: HEADER_LEN + want })
    }

    /// Histogram entries and joint runs the last merge read from this
    /// reader's frame.
    pub(crate) fn entries(&self) -> u64 {
        self.cursor.entries
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

    /// True for a `CountMerge`, which the reader then merges where it
    /// lies (see [`FrameReader`]) without building a [`Frame`].
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
}

/// The last frame received, read as a reply to a count request: an
/// error at [`Step::Begin`] unless it is a `CountMerge`.
impl ShardReply for FrameReader {
    type Error = FrameError;

    fn step(&mut self, step: Step) -> Result<(), FrameError> {
        if matches!(step, Step::Begin { .. }) && self.tag != TAG_COUNT_MERGE {
            return Err(FrameError::Malformed("not a CountMerge frame"));
        }
        self.cursor.step(&self.buf[..self.len], step).map_err(FrameError::Malformed)
    }

    #[inline]
    fn head(&self) -> Option<(u64, u64)> {
        self.cursor.head()
    }

    #[inline]
    fn next(&mut self) -> Result<(), FrameError> {
        self.cursor.at += 1;
        Ok(())
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
    use swope_core::shard::CountSink;
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

    const P: u32 = PAGE_ROWS as u32;

    /// A `GrowDelta` over a union of three pages and 1 000 rows.
    fn grow(target: Option<u32>, live: Vec<u32>, runs: Vec<Range<u32>>, list: Vec<u32>) -> Frame {
        Frame::GrowDelta(GrowDelta { m_target: 4096, target, live, runs, list })
    }

    /// Runs on two pages, one of them wrapping, and a sparse fringe page:
    /// three slots, in draw order.
    fn grow_list() -> Frame {
        let runs = vec![P + 9..P + 40, 2 * P + 60_000..3 * P, 2 * P..2 * P + 3];
        grow(Some(3), vec![0, 1, 5], runs, vec![3 * P + 617, 3 * P + 3, 3 * P + 250])
    }

    /// A dense fringe page: every third slot of the short last page,
    /// ascending, after a sparse one.
    fn grow_bitmap() -> Frame {
        let list = [2 * P + 5].into_iter().chain((3 * P..3 * P + 1_000).step_by(3)).collect();
        grow(None, vec![2], Vec::new(), list)
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
                before: 70_000,
                after: 3,
                attrs: vec![
                    AttrMeta { name: "carrier".into(), support: 14 },
                    AttrMeta { name: "origin".into(), support: 350 },
                ],
            }),
            Frame::Hello(Hello {
                version: PROTOCOL_VERSION,
                dataset: String::new(),
                num_rows: 0,
                before: 0,
                after: 0,
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

    /// A fringe page travels as a bitmap of its window iff that takes
    /// fewer bytes than the list, a tie going to the list; the session
    /// path writes what the frame value does, and a bitmap reads back in
    /// window order, wrapping past the page's last slot.
    #[test]
    fn grow_delta_takes_the_smaller_form() {
        let req = CountRequest { target: Some(1), live: vec![0, 2] };
        let cases: [(&[u32], u32, bool); 7] = [
            (&[5], 1, false),
            (&[5, 6], 2, true),
            (&[P - 2, P - 1, 0, 1], 4, true),
            (&[0, 100, 200], 201, false),
            // Ten bytes either way: the list.
            (&[0, 16, 32, 48, 63], 64, false),
            (&[0, 14, 28, 42, 55], 56, true),
            (&[P - 20, 10, P - 21], P, false),
        ];
        for (list, span, bitmap) in cases {
            let positions = Positions { runs: &[], list };
            let mut direct = Vec::new();
            FrameWriter::new().write_grow_delta(&mut direct, 9, &req, positions).unwrap();
            let Ok(Frame::GrowDelta(back)) = decode(&direct) else { panic!("{list:?}") };
            // Head 25, runs 4, pages 4, page and form 5.
            let size = if bitmap { 6 + span.div_ceil(8) } else { 4 + 2 * list.len() as u32 };
            assert_eq!(direct.len() as u32, 9 + 25 + 4 + 4 + 5 + size + 4, "{list:?}");
            assert_eq!(back.list, list, "{list:?}");
            assert_eq!(encode(&Frame::GrowDelta(back)), direct, "{list:?}");
        }
    }

    /// A `GrowDelta` payload over no attributes, with `windows` as its
    /// runs and fringe pages.
    fn grow_body(windows: &[&[u8]]) -> Vec<u8> {
        let mut body = Vec::new();
        put_grow_delta(&mut body, 8, None, std::iter::empty(), Positions::default());
        body.truncate(body.len() - 8);
        body.extend_from_slice(&windows.concat());
        body
    }

    /// Each body fails to parse for its reason, so a case cannot pass by
    /// being broken in some way other than the one it is here for.
    fn refuses(hostile: Vec<(&str, Vec<u8>)>) {
        for (why, body) in hostile {
            match decode_payload(TAG_GROW_DELTA, &body) {
                Err(FrameError::Malformed(reason)) => assert_eq!(reason, why, "{body:02x?}"),
                other => panic!("{why}: parsed {body:02x?} as {other:?}"),
            }
        }
    }

    const NONE: [u8; 4] = [0; 4];
    const ONE: [u8; 4] = [1, 0, 0, 0];

    #[test]
    fn hostile_bitmaps_are_errors() {
        // A window of page 0's slots, from slot `from`, `span` long.
        let bitmap = |from: u16, span: u32, bits: &[u8]| {
            let form = [&[FORM_BITMAP][..], &from.to_le_bytes(), &span.to_le_bytes()].concat();
            grow_body(&[&NONE, &ONE, &NONE, &form, bits])
        };
        let list =
            |k: u8, slots: &[u8]| grow_body(&[&NONE, &ONE, &NONE, &[FORM_LIST, k, 0, 0, 0], slots]);
        // 12 slots from 0, the page's last two slots and its first two,
        // and its last slot.
        assert!(decode_payload(TAG_GROW_DELTA, &bitmap(0, 12, &[0xFF, 0x0F])).is_ok());
        assert!(decode_payload(TAG_GROW_DELTA, &bitmap(u16::MAX - 1, 4, &[0x0F])).is_ok());
        assert!(decode_payload(TAG_GROW_DELTA, &list(1, &[0xFF, 0xFF])).is_ok());
        let fringe = [FORM_LIST, 1, 0, 0, 0, 0, 0];
        let past = (1u32 << 16).to_le_bytes();
        refuses(vec![
            ("a bitmap sets a bit past its window", bitmap(0, 12, &[0xFF, 0x1F])),
            ("a bitmap sets a bit past its window", bitmap(0, 12, &[0xFF, 0x8F])),
            ("a bitmap window wider than its slots", bitmap(0, 12, &[0xFE, 0x0F])),
            ("a bitmap window wider than its slots", bitmap(0, 12, &[0xFF, 0x07])),
            ("a fringe page this sparse travels as a list", bitmap(0, 9, &[0x01, 0x01])),
            ("a window past its page's rows", bitmap(0, P + 1, &[0xFF; PAGE_ROWS / 8 + 1])),
            ("a window past its page's rows", bitmap(0, 0, &[])),
            ("payload shorter than its layout", bitmap(0, 12, &[0xFF])),
            ("a fringe page this dense travels as a bitmap", list(2, &[1, 0, 2, 0])),
            ("a fringe page with no slot", list(0, &[])),
            (
                "fringe form is neither list nor bitmap",
                grow_body(&[&NONE, &ONE, &NONE, &[2, 1, 0, 0, 0, 1, 0]]),
            ),
            ("a page past the positions a u32 names", grow_body(&[&NONE, &ONE, &past, &fringe])),
            (
                "fringe pages do not ascend",
                grow_body(&[&NONE, &[2, 0, 0, 0], &ONE, &fringe, &NONE, &fringe]),
            ),
            ("list count exceeds payload size", grow_body(&[&NONE, &[2, 0, 0, 0, 0]])),
        ]);
    }

    #[test]
    fn hostile_windows_are_errors() {
        let run = |page: u32, start: u32, len: u32| {
            grow_body(&[&ONE, &[page, start, len].map(u32::to_le_bytes).concat(), &NONE])
        };
        // Page 0 from slot 4 to its end, and the last page a u32 names,
        // but for its last slot.
        assert!(decode_payload(TAG_GROW_DELTA, &run(0, 4, P - 4)).is_ok());
        assert!(decode_payload(TAG_GROW_DELTA, &run(P - 1, 0, P - 1)).is_ok());
        refuses(vec![
            ("a window past its page's rows", run(0, 4, P - 3)),
            ("a window past its page's rows", run(0, P, 1)),
            ("a window past its page's rows", run(0, 3, 0)),
            ("a page past the positions a u32 names", run(P - 1, 0, P)),
            ("a page past the positions a u32 names", run(P, 0, 1)),
            (
                "windows are not in page order",
                grow_body(&[&[2, 0, 0, 0], &ONE, &NONE, &ONE, &NONE, &NONE, &ONE, &NONE]),
            ),
            ("list count exceeds payload size", grow_body(&[&[1, 0, 0, 0, 0]])),
            ("trailing bytes after payload", grow_body(&[&NONE, &NONE, &[0]])),
        ]);
        // The target flag and index, right after `m_target`.
        let with_target = |flag: u8, index: u8| {
            let mut body = grow_body(&[&NONE, &NONE]);
            body[8..13].copy_from_slice(&[flag, index, 0, 0, 0]);
            body
        };
        assert!(decode_payload(TAG_GROW_DELTA, &with_target(1, 7)).is_ok());
        refuses(vec![
            ("target flag is neither 0 nor 1", with_target(2, 0)),
            ("a target index without a target", with_target(0, 7)),
        ]);
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

    /// A `Hello` of no rows — the coordinator's request — names no frame
    /// and is laid out as v5 laid out every `Hello`, so a v5 peer reads
    /// its version; a `Hello` of rows names its frame, a dataset of its
    /// own as much as a slice.
    #[test]
    fn a_request_is_laid_out_as_v5s_and_a_reply_names_its_frame() {
        let Frame::Hello(request) = samples().remove(1) else { unreachable!() };
        let mut v5 = Vec::new();
        put_u32(&mut v5, PROTOCOL_VERSION);
        put_str(&mut v5, "");
        put_u64(&mut v5, 0);
        put_u32(&mut v5, 0);
        assert_eq!(encode(&Frame::Hello(request)), envelope(1, &v5));
        let Frame::Hello(slice) = samples().remove(0) else { unreachable!() };
        assert_eq!(slice.frame(), Some((70_000 + 12_345 + 3, 70_000)));
        let own = Hello { before: 0, after: 0, ..slice.clone() };
        assert_eq!(own.frame(), Some((12_345, 0)));
        assert_eq!(encode(&Frame::Hello(own)).len(), encode(&Frame::Hello(slice)).len());
    }

    #[test]
    fn hostile_list_counts_do_not_allocate() {
        // A Hello claiming 2^32-ish attrs in a tiny payload must fail
        // cleanly instead of reserving gigabytes.
        let mut body = Vec::new();
        put_u32(&mut body, PROTOCOL_VERSION);
        put_str(&mut body, "x");
        for rows in [1, 0, 0] {
            put_u64(&mut body, rows);
        }
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
            reader.read_envelope(&mut bytes.as_slice()).unwrap();
            let mut streamed = shape_of(&counts);
            merge_into(std::slice::from_mut(&mut reader), &mut streamed).unwrap();
            assert_eq!(reader.entries(), frame.entries(), "case {case}");
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
        merge_payload(&ok, &mut into).unwrap();
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
            // And merged, for a request of the shape the body claims.
            let mut into = ShardCounts::empty(Some(4), [8]);
            if body.first() == Some(&0) {
                into.target = None;
            }
            match merge_payload(&body, &mut into) {
                Err(FrameError::Malformed(reason)) => assert_eq!(reason, why, "{body:02x?}"),
                other => panic!("{why}: merged {body:02x?} as {other:?}"),
            }
        }
        // The valid joint neighbours of the hostile ones, for contrast.
        let mut into = ShardCounts::empty(Some(4), [8]);
        merge_payload(&[1, 4, 0, 1, 8, 0, 2, 3, 1, 1, 1], &mut into).unwrap();
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
    /// One reply's payload merged into `into`, as a session merges what
    /// its reader received.
    fn merge_payload(payload: &[u8], into: &mut ShardCounts) -> Result<(), FrameError> {
        CountMergeFrame { payload: payload.to_vec(), entries: 0 }.decode_into(into)
    }

    /// The replies `readers` hold, merged into `into` for a request of
    /// its shape.
    fn merge_into(readers: &mut [FrameReader], into: &mut ShardCounts) -> Result<(), FrameError> {
        let target = into.target.as_ref().map(CountState::support);
        let live: Vec<u32> = into.attrs.iter().map(CountState::support).collect();
        merge_replies(readers, target, live.into_iter(), into).map_err(|(_, e)| e)
    }

    /// Every entry a merge hands over, in the order it does.
    #[derive(Debug, Default, PartialEq)]
    struct Recorded(Vec<(char, usize, u64, u64)>);

    impl CountSink for Recorded {
        fn target(&mut self, code: u32, k: u64) {
            self.0.push(('t', 0, code.into(), k));
        }
        fn marginal(&mut self, i: usize, code: u32, k: u64) {
            self.0.push(('m', i, code.into(), k));
        }
        fn joint(&mut self, i: usize, key: u64, k: u64) {
            self.0.push(('j', i, key, k));
        }
    }

    /// `counts` cut into `parts` replies that add up to it: every entry's
    /// count split at random, a part that gets nothing leaving it out.
    fn split(r: &mut Xoshiro256pp, counts: &ShardCounts, parts: usize) -> Vec<ShardCounts> {
        let mut out = vec![shape_of(counts); parts];
        let mut shares = |k: u64| {
            let mut left = k;
            let mut shares: Vec<u64> = (1..parts)
                .map(|_| {
                    let share = r.next_below(left.saturating_add(1));
                    left -= share;
                    share
                })
                .collect();
            shares.push(left);
            shares.into_iter().enumerate()
        };
        if let Some(target) = &counts.target {
            for (code, k) in target.sorted_entries() {
                for (part, share) in shares(k) {
                    out[part].target.as_mut().unwrap().increment(code, share);
                }
            }
        }
        for (i, (cs, joint)) in counts.attrs.iter().zip(&counts.joints).enumerate() {
            for (code, k) in cs.sorted_entries() {
                for (part, share) in shares(k) {
                    out[part].attrs[i].increment(code, share);
                }
            }
            for &(key, k) in joint.clone().canonical_runs() {
                for (part, share) in shares(k) {
                    out[part].joints[i].increment(key, share);
                }
            }
        }
        out
    }

    /// Entropy and MI deltas split over one to three replies: merged in
    /// place from the readers that received them, they hand over the
    /// entries, in the order, the one reply of their sum does, and add up
    /// to its decode.
    #[test]
    fn merging_split_replies_equals_the_one_reply_decode() {
        let mut r = Xoshiro256pp::seed_from_u64(0x5B117);
        for case in 0..300 {
            let counts = random_counts(&mut r);
            let parts = 1 + r.next_below(3) as usize;
            let parts = split(&mut r, &counts, parts);
            let mut readers: Vec<FrameReader> = parts
                .into_iter()
                .map(|mut part| {
                    let bytes = encode(&Frame::CountMerge(CountMergeFrame::from_counts(&mut part)));
                    let mut reader = FrameReader::new();
                    reader.read_envelope(&mut bytes.as_slice()).unwrap();
                    reader
                })
                .collect();
            let mut merged = shape_of(&counts);
            merge_into(&mut readers, &mut merged).unwrap();
            let whole = CountMergeFrame::from_counts(&mut counts.clone());
            let mut decoded = shape_of(&counts);
            whole.decode_into(&mut decoded).unwrap();
            assert_eq!(canonical(&merged), canonical(&decoded), "case {case}");
            assert_eq!(canonical(&merged), canonical(&counts), "case {case}");

            let target = counts.target.as_ref().map(CountState::support);
            let live: Vec<u32> = counts.attrs.iter().map(CountState::support).collect();
            let (mut split_order, mut one_order) = (Recorded::default(), Recorded::default());
            merge_replies(&mut readers, target, live.iter().copied(), &mut split_order).unwrap();
            let mut one = FrameReader::new();
            one.read_envelope(&mut encode(&Frame::CountMerge(whole)).as_slice()).unwrap();
            let one = std::slice::from_mut(&mut one);
            merge_replies(one, target, live.iter().copied(), &mut one_order).unwrap();
            assert_eq!(split_order, one_order, "case {case}");
        }
    }

    /// The decoder the merge replaced: one payload into histograms shaped
    /// like the request, every rule checked in layout order. Kept as the
    /// oracle of which payloads are refused, and why.
    fn reference_decode(bytes: &[u8], into: &mut ShardCounts) -> Result<(), FrameError> {
        const SHAPE: FrameError =
            FrameError::Malformed("CountMerge shape disagrees with the request");
        fn list(
            c: &mut ByteReader<'_>,
            mut entry: impl FnMut(u64, u64) -> bool,
        ) -> Result<(), FrameError> {
            let (mut key, mut total) = (0u64, 0u64);
            for i in 0..c.varint()? {
                let delta = c.varint()?;
                if delta == 0 && i > 0 {
                    return Err(FrameError::Malformed("count entries are not ascending"));
                }
                key = key
                    .checked_add(delta)
                    .ok_or(FrameError::Malformed("count entry key overflows u64"))?;
                let k = c.varint()?;
                if k == 0 {
                    return Err(FrameError::Malformed("count entry with a zero count"));
                }
                total = total
                    .checked_add(k)
                    .ok_or(FrameError::Malformed("count total overflows u64"))?;
                if !entry(key, k) {
                    return Err(FrameError::Malformed("count entry code beyond support"));
                }
            }
            Ok(())
        }
        fn histogram(c: &mut ByteReader<'_>, cs: &mut CountState) -> Result<u64, FrameError> {
            let support = u32::try_from(c.varint()?)
                .map_err(|_| FrameError::Malformed("histogram support exceeds u32"))?;
            if cs.support() != support {
                return Err(FrameError::Malformed("histogram support disagrees with the request"));
            }
            list(c, |code, k| code < u64::from(support) && (cs.increment(code as u32, k), true).1)?;
            Ok(support.into())
        }
        let mut c = ByteReader::new(bytes);
        let has_target = match c.u8()? {
            0 => false,
            1 => true,
            _ => return Err(FrameError::Malformed("target flag is neither 0 nor 1")),
        };
        if into.target.is_some() != has_target {
            return Err(SHAPE);
        }
        let u_t = match &mut into.target {
            Some(target) => histogram(&mut c, target)?,
            None => 0,
        };
        if c.varint()? != into.attrs.len() as u64 {
            return Err(SHAPE);
        }
        for (cs, joint) in into.attrs.iter_mut().zip(&mut into.joints) {
            let u_a = histogram(&mut c, cs)?;
            list(&mut c, |key, k| {
                let ok = key >> 32 < u_t && key & 0xFFFF_FFFF < u_a;
                ok && (joint.increment(key, k), true).1
            })?;
        }
        finish(&c)
    }

    /// Whatever a reply holds, the merge refuses it iff the decoder it
    /// replaced does, with the same error, and otherwise adds the same
    /// counts: bit flips and cuts of random replies, the hostile bodies,
    /// and replies of the wrong shape or support.
    #[test]
    fn the_merge_refuses_what_the_reference_decoder_refuses() {
        let agree = |payload: &[u8], shape: &ShardCounts, case: &str| {
            let (mut want, mut got) = (shape_of(shape), shape_of(shape));
            match (reference_decode(payload, &mut want), merge_payload(payload, &mut got)) {
                (Ok(()), Ok(())) => assert_eq!(canonical(&got), canonical(&want), "{case}"),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{case}"),
                (a, b) => panic!("{case}: reference {a:?}, merge {b:?} on {payload:02x?}"),
            }
        };
        let mut r = Xoshiro256pp::seed_from_u64(0x0AC1E);
        let (mut refused, started) = (0, std::time::Instant::now());
        for case in 0..64 {
            let counts = random_counts(&mut r);
            let payload = CountMergeFrame::from_counts(&mut counts.clone()).payload;
            agree(&payload, &counts, &format!("case {case}"));
            for cut in 0..payload.len() {
                agree(&payload[..cut], &counts, &format!("case {case} cut at {cut}"));
            }
            let bits = payload.len() * 8;
            for _ in 0..bits.min(400) {
                let bit = r.next_below(bits as u64) as usize;
                let mut bad = payload.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                refused += usize::from(reference_decode(&bad, &mut shape_of(&counts)).is_err());
                agree(&bad, &counts, &format!("case {case} bit {bit}"));
            }
            if started.elapsed() > std::time::Duration::from_secs(2) {
                break;
            }
        }
        assert!(refused > 0, "no mutation was refused");
        let frame = CountMergeFrame::from_counts(&mut sample_counts());
        for (target, live) in [
            (Some(4), vec![8, 2]),
            (None, vec![8, 2]),
            (Some(5), vec![8, 2]),
            (Some(4), vec![8]),
            (Some(4), vec![8, 2, 2]),
            (Some(4), vec![7, 2]),
            (Some(4), vec![8, 3]),
        ] {
            let shape = ShardCounts::empty(target, live.clone());
            agree(&frame.payload, &shape, &format!("{target:?} {live:?}"));
        }
    }
}
