//! The peer (shard server) side of the protocol: answer counting work
//! over a locally resident dataset slice.
//!
//! A peer session is a tiny state machine on one connection:
//!
//! ```text
//! coordinator                                  peer
//! -----------                                  ----
//! Hello(dataset) ─────────────────────────────▶
//!            ◀───────────────────────────────── Hello(num_rows, attrs)
//! [Marginals] ────────────────────────────────▶          ┐ per
//!            ◀───────────────────────────────── CountMerge │ query (MI over
//! GrowDelta(live, N, base, windows₁) ─────────▶          │ the whole union)
//!            ◀───────────────────────────────── CountMerge │ (repeats
//! GrowDelta(live′, N, base, windows₂) ────────▶          │  per
//!            ◀───────────────────────────────── CountMerge │  iteration)
//! Result(sampled) ────────────────────────────▶          ┘
//! ```
//!
//! The peer never sees scores, bounds or the sampler — only integer count
//! work. The coordinator draws the query's one sample over the union's
//! page layout and sends each peer the windows of it on the union pages
//! its slice overlaps: runs of whole pages as `(page, start, len)` and a
//! range's fringe pages as slots. Each `GrowDelta` also names its frame:
//! the union's row count `N` and the union row `base` the slice starts
//! at. From the frame the peer builds a slot table once and keeps it
//! across sessions (one per dataset).
//!
//! A half cut by `swope split` keeps the union's layout and records the
//! same frame (`Dataset::frame`, snapshot v4). Then the table stores
//! nothing for a union page the peer holds whole — slot `s` is its
//! position `s` shifted by the base — and a `u16` rank a slot for each of
//! its at most two fringe pages, whose rows it keeps in the union's slot
//! order: a window `[s, s + len)` there is the run
//! `[rank(s), rank(s + len))`. Every window is a run the [`Counter`]
//! reads in place. A dataset laid out in another frame — a v3 half, or
//! halves served in another order than they were cut in — gets a mapped
//! table instead: for every slot of every union page it overlaps, its
//! own position of the row there, or "not mine". A window is a slice of
//! that table, filtered on a page that straddles a cut and counted as a
//! list: as exact, and slower. The peer logs one line per dataset and
//! frame when it builds such a table, and books every position it counts
//! as a run or a list (`swope_cluster_peer_positions_total`).
//!
//! The peer counts exactly those positions through the session's
//! [`Counter`], the body every shard counts with, parking each reply's
//! histograms and joint deltas for the next doubling. The counter is the
//! connection thread's spare ([`Counter::warm`]): a `Hello` closes the
//! last session before it opens the next, so a pooled connection counts
//! every query on one counter. Its work is
//! `O(positions sent)`. Asked for `Marginals`, it gives its slice's
//! partition-sketch totals, or, without a usable sketch, declines; summed,
//! they are the union's marginals.
//!
//! Protocol violations — a frame whose slice runs past the union, a
//! window on a page the slice does not overlap, an attribute out of
//! range, a frame out of order — and unknown datasets are answered with
//! an [`ErrorFrame`] and end the session; a clean EOF or an `Error` from
//! the coordinator ends it silently. All counting here is
//! single-threaded: a peer's parallelism across queries comes from
//! serving many connections.

use std::io::{Read, Write};
use std::ops::Range;
use std::sync::{Arc, Mutex, Weak};

use swope_columnar::{Dataset, DatasetSketch};
use swope_core::shard::{dataset_meta, Counter, WarmCounter};
use swope_core::{sketch_marginals, CountRequest, Executor, ShardCounts};
use swope_sampling::{PageLayout, Positions};
use swope_store::page::PAGE_ROWS;

use crate::frame::{
    ErrorFrame, Frame, FrameError, FrameReader, FrameWriter, GrowDelta, Hello, PROTOCOL_VERSION,
};
use crate::stats::ClusterStats;

/// What a peer serves under a dataset name: the resident rows and, when
/// there is one, their partition sketch, whose totals answer `Marginals`.
#[derive(Debug, Clone)]
pub struct PeerDataset {
    /// The peer's slice of the union.
    pub dataset: Arc<Dataset>,
    /// The slice's partition sketch; `None` declines every `Marginals`.
    pub sketch: Option<Arc<DatasetSketch>>,
}

/// Resolves a dataset name to a resident dataset; `""` means "the
/// peer's default dataset" (servers map it to their first loaded one).
pub type DatasetResolver<'a> = dyn Fn(&str) -> Option<PeerDataset> + 'a;

/// One session's stream with the buffers every frame on it reuses.
struct Wire<'a, S> {
    io: &'a mut S,
    stats: &'a ClusterStats,
    reader: FrameReader,
    writer: FrameWriter,
}

impl<S: Read + Write> Wire<'_, S> {
    fn send(&mut self, frame: &Frame) -> Result<(), FrameError> {
        let n = self.writer.write(self.io, frame)?;
        self.stats.record_sent(n);
        Ok(())
    }

    fn send_counts(&mut self, counts: &mut ShardCounts) -> Result<(), FrameError> {
        let n = self.writer.write_count_merge(self.io, counts)?;
        self.stats.record_sent(n);
        self.stats.record_count_merge(n);
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, FrameError> {
        let (frame, n) = self.reader.read(self.io)?;
        self.stats.record_received(n);
        if let Frame::GrowDelta(_) = frame {
            self.stats.record_grow_delta(n);
        }
        Ok(frame)
    }

    /// Sends a one-line [`ErrorFrame`] (best effort) and reports the
    /// reason as this session's outcome.
    fn bail(&mut self, message: String) -> SessionEnd {
        self.stats.record_peer_error();
        let _ = self.send(&Frame::Error(ErrorFrame { message: message.clone() }));
        SessionEnd::Error(message)
    }

    /// Ends the session on a reply that could not be sent.
    fn lost(&mut self, e: FrameError) -> SessionEnd {
        self.stats.record_peer_error();
        SessionEnd::Error(e.to_string())
    }
}

/// How a peer session finished, for the server's logs/metrics.
#[derive(Debug, PartialEq)]
pub enum SessionEnd {
    /// The coordinator closed the connection after zero or more queries.
    Closed,
    /// The session was aborted; the message was also sent to the
    /// coordinator as an [`ErrorFrame`] where the stream still worked.
    Error(String),
}

/// The dataset a `Hello` opened and what its doublings count with, kept
/// until the next `Hello`.
struct Session {
    served: PeerDataset,
    /// The slot table of the frame the last `GrowDelta` named.
    table: Option<Arc<SlotTable>>,
    /// The connection thread's spare counter while the session is open.
    counter: WarmCounter,
    req: CountRequest,
    /// The delta's positions in the dataset's storage: runs of pages the
    /// peer stores in the union's order, and the rest one by one.
    runs: Vec<Range<u32>>,
    list: Vec<u32>,
    counts: ShardCounts,
}

impl Session {
    fn new(served: PeerDataset) -> Self {
        Self {
            served,
            table: None,
            counter: Counter::warm(),
            req: CountRequest { target: None, live: Vec::new() },
            runs: Vec::new(),
            list: Vec::new(),
            counts: ShardCounts::empty(None, []),
        }
    }

    /// Counts `grow`'s positions that hold this slice's rows, or says in
    /// one line why they are not this slice's to count; books how it read
    /// them in `stats`.
    fn count(
        &mut self,
        grow: &GrowDelta,
        stats: &ClusterStats,
    ) -> Result<&mut ShardCounts, String> {
        let ds = &self.served.dataset;
        let attrs = ds.num_attrs() as u32;
        if grow.live.iter().chain(grow.target.iter()).any(|&a| a >= attrs) {
            return Err(format!("GrowDelta names an attribute beyond the dataset's {attrs}"));
        }
        let frame = (grow.union_rows, grow.base);
        let table = match &self.table {
            Some(table) if table.frame() == frame => table,
            _ => self.table.insert(slot_table(ds, frame)?),
        };
        let Self { counter, req, runs, list, counts, .. } = self;
        table.window(grow, runs, list)?;
        req.target = grow.target.map(|t| t as usize);
        req.live.clear();
        req.live.extend(grow.live.iter().map(|&a| a as usize));
        let positions = Positions { runs, list };
        stats.record_positions((positions.len() - list.len()) as u64, list.len() as u64);
        counter.count(ds, positions, req, counts, &Executor::sequential());
        Ok(counts)
    }

    /// Takes back the counts of the last `count`, once sent.
    fn park(&mut self) {
        self.counter.park(&self.req, &mut self.counts);
    }
}

/// A slot that holds another peer's row.
const NOT_MINE: u32 = u32::MAX;

/// Where a peer's rows sit among the union's positions, for every union
/// page its slice overlaps. Built once per dataset and frame — the
/// union's row count and the slice's first union row — it turns a
/// `GrowDelta`'s windows into positions the [`Counter`] reads.
///
/// A peer whose dataset is laid out in that frame (a slice that keeps
/// the union's layout) stores nothing for a page it holds whole, and a
/// `u16` rank a slot for each of its at most two fringe pages: every
/// window is a run. Any other peer maps every slot of a page it does not
/// store in the union's order, at most 4 bytes a slot.
#[derive(Debug)]
struct SlotTable {
    union_rows: u64,
    base: u64,
    /// The first union page the slice overlaps.
    first_page: u32,
    /// One entry per overlapping union page, from `first_page` on.
    pages: Vec<PageSlots>,
    /// The ranked pages' ranks, a page's slots and one more each.
    ranks: Vec<u16>,
    /// The mapped pages' slots, a page's worth each.
    slots: Vec<u32>,
}

/// What a union page's slots are to a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageSlots {
    /// Slot `s` holds the peer's position `first + s`: the peer stores the
    /// page's rows in the union's order, and a window of it is a run.
    Identity { first: u32 },
    /// The peer holds some of the page's rows, in the union's slot order
    /// from position `first` on: slots `s..e` hold its positions
    /// `first + rank(s) .. first + rank(e)`, a run, with `rank(s)` the
    /// peer's rows at slots below `s`, [`SlotTable::ranks`] from `from`
    /// on.
    Ranked { first: u32, from: u32 },
    /// The page's slots are [`SlotTable::slots`] from `from` on;
    /// `straddles` iff some hold another peer's row.
    Mapped { from: u32, straddles: bool },
}

impl SlotTable {
    /// The table of `ds`'s rows placed at union row `base` of a union of
    /// `union_rows` rows, or why they cannot be.
    fn build(ds: &Dataset, (union_rows, base): (u64, u64)) -> Result<Self, String> {
        let held = ds.num_rows() as u64;
        if base.checked_add(held).map_or(true, |end| end > union_rows) {
            return Err(format!(
                "GrowDelta places this peer's {held} rows at union row {base}, past the union's {union_rows}"
            ));
        }
        let in_frame = ds.frame() == (union_rows as usize, base as usize);
        let page_rows = PAGE_ROWS as u64;
        let first_page = base / page_rows;
        let mut table = Self {
            union_rows,
            base,
            first_page: first_page as u32,
            pages: Vec::new(),
            ranks: Vec::new(),
            slots: Vec::new(),
        };
        let mut order = Vec::new();
        for page in first_page..(base + held).div_ceil(page_rows) {
            let first = page * page_rows;
            let len = (union_rows - first).min(page_rows);
            let mine = base.max(first)..(base + held).min(first + len);
            // The peer's position of the page's first row it holds.
            let at = (mine.start - base) as u32;
            if in_frame && mine.end - mine.start == len {
                table.pages.push(PageSlots::Identity { first: at });
                continue;
            }
            PageLayout::slot_rows(page as usize, len as usize, &mut order);
            let slot_rows = order.iter().map(|&r| first + u64::from(r));
            let entry = if in_frame {
                table.rank(slot_rows.map(|row| mine.contains(&row)), at)
            } else {
                table.map(slot_rows, ds, base, first)
            };
            table.pages.push(entry);
        }
        Ok(table)
    }

    /// The ranks of a page whose slots `mine` says are the peer's, held
    /// in slot order from position `first` on.
    fn rank(&mut self, mine: impl Iterator<Item = bool>, first: u32) -> PageSlots {
        let from = self.ranks.len() as u32;
        let mut rank = 0u16;
        self.ranks.push(rank);
        for mine in mine {
            rank += u16::from(mine);
            self.ranks.push(rank);
        }
        PageSlots::Ranked { first, from }
    }

    /// The peer's position of each row `slot_rows` names, slot by slot,
    /// or [`NOT_MINE`]; stored only where that is not the identity.
    fn map(
        &mut self,
        slot_rows: impl Iterator<Item = u64>,
        ds: &Dataset,
        base: u64,
        first: u64,
    ) -> PageSlots {
        let from = self.slots.len();
        let (mut identity, mut straddles) = (true, false);
        for (s, row) in slot_rows.enumerate() {
            let position = if (base..base + ds.num_rows() as u64).contains(&row) {
                ds.layout().position_of((row - base) as u32)
            } else {
                straddles = true;
                NOT_MINE
            };
            identity &= u64::from(position) + base == first + s as u64;
            self.slots.push(position);
        }
        if identity && !straddles {
            self.slots.truncate(from);
            PageSlots::Identity { first: (first - base) as u32 }
        } else {
            PageSlots::Mapped { from: from as u32, straddles }
        }
    }

    /// The frame the table was built for.
    fn frame(&self) -> (u64, u64) {
        (self.union_rows, self.base)
    }

    /// The slots of union page `page`, if the slice overlaps it.
    fn page(&self, page: u32) -> Option<PageSlots> {
        self.pages.get(page.checked_sub(self.first_page)? as usize).copied()
    }

    /// Turns `grow`'s windows, drawn over the union this table was built
    /// for, into this peer's positions: a run on an identity or ranked
    /// page stays a run, any other window is a slice of the table,
    /// filtered only on a page that straddles a cut.
    fn window(
        &self,
        grow: &GrowDelta,
        runs: &mut Vec<Range<u32>>,
        list: &mut Vec<u32>,
    ) -> Result<(), String> {
        runs.clear();
        list.clear();
        let page_rows = PAGE_ROWS as u32;
        for run in &grow.runs {
            let (page, slot) = (run.start / page_rows, run.start % page_rows);
            match self.page(page).ok_or_else(|| {
                let pages = self.first_page..self.first_page + self.pages.len() as u32;
                format!("GrowDelta window on union page {page} is past this peer's pages {pages:?}")
            })? {
                PageSlots::Identity { first } => {
                    runs.push(first + slot..first + slot + run.len() as u32)
                }
                PageSlots::Ranked { first, from } => {
                    let rank = |s: u32| first + u32::from(self.ranks[(from + s) as usize]);
                    let mine = rank(slot)..rank(slot + run.len() as u32);
                    if !mine.is_empty() {
                        runs.push(mine);
                    }
                }
                PageSlots::Mapped { from, straddles } => {
                    let slots = &self.slots[(from + slot) as usize..][..run.len()];
                    if straddles {
                        list.extend(slots.iter().copied().filter(|&p| p != NOT_MINE));
                    } else {
                        list.extend_from_slice(slots);
                    }
                }
            }
        }
        for &position in &grow.list {
            let (page, slot) = (position / page_rows, position % page_rows);
            match self.page(page).ok_or_else(|| {
                format!("GrowDelta position {position} is on union page {page}, where this peer holds no slot")
            })? {
                PageSlots::Identity { first } => list.push(first + slot),
                PageSlots::Ranked { first, from } => {
                    let at = (from + slot) as usize;
                    if self.ranks[at + 1] > self.ranks[at] {
                        list.push(first + u32::from(self.ranks[at]));
                    }
                }
                PageSlots::Mapped { from, .. } => {
                    let mine = self.slots[(from + slot) as usize];
                    if mine != NOT_MINE {
                        list.push(mine);
                    }
                }
            }
        }
        Ok(())
    }
}

/// The slot table of `ds` under `frame`, kept across sessions while the
/// dataset lives: one per dataset, that of the frame it was last asked
/// for, since a peer serves one union at a time. A dataset laid out in
/// another frame is served through a mapped table, which is logged once
/// per dataset and frame.
fn slot_table(ds: &Arc<Dataset>, frame: (u64, u64)) -> Result<Arc<SlotTable>, String> {
    static KEPT: Mutex<Vec<(Weak<Dataset>, Arc<SlotTable>)>> = Mutex::new(Vec::new());
    let mut kept = KEPT.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    kept.retain(|(held, _)| held.strong_count() > 0);
    let at = kept.iter().position(|(held, _)| held.as_ptr() == Arc::as_ptr(ds));
    if let Some(table) = at.map(|i| &kept[i].1).filter(|table| table.frame() == frame) {
        return Ok(Arc::clone(table));
    }
    let table = Arc::new(SlotTable::build(ds, frame)?);
    let own = ds.frame();
    if (own.0 as u64, own.1 as u64) != frame {
        eprintln!(
            "swope peer: {} rows laid out in frame {own:?} serve frame {frame:?} through a mapped slot table; `swope split` the union again to count in place",
            ds.num_rows()
        );
    }
    match at {
        Some(i) => kept[i].1 = Arc::clone(&table),
        None => kept.push((Arc::downgrade(ds), Arc::clone(&table))),
    }
    Ok(table)
}

/// Serves one coordinator connection until EOF or a protocol error.
///
/// `io` is the connected stream (already past any magic-byte sniffing —
/// this function reads whole frames, starting with the coordinator's
/// `Hello`). `resolve` maps dataset names to resident datasets.
///
/// A `Hello` is accepted at any point *between* queries, not just as the
/// session opener: a coordinator reusing a pooled connection re-sends
/// `Hello` as a health-check-plus-open for its next query (possibly
/// against a different dataset), and the peer re-resolves and re-replies
/// exactly as it did the first time.
pub fn serve_connection<S: Read + Write>(
    io: &mut S,
    resolve: &DatasetResolver<'_>,
    stats: &ClusterStats,
) -> SessionEnd {
    let mut wire = Wire { io, stats, reader: FrameReader::new(), writer: FrameWriter::new() };
    // No dataset is open until the first Hello resolves one; each later
    // Hello (pooled-connection reuse) replaces it.
    let mut session: Option<Session> = None;
    loop {
        let frame = match wire.recv() {
            Ok(frame) => frame,
            Err(e) if e.is_eof() => return SessionEnd::Closed,
            Err(e) => return wire.bail(e.to_string()),
        };
        match (frame, &mut session) {
            (Frame::Hello(hello), _) => {
                if hello.version != PROTOCOL_VERSION {
                    return wire.bail(format!(
                        "protocol version {} unsupported (peer speaks {PROTOCOL_VERSION})",
                        hello.version
                    ));
                }
                let Some(resolved) = resolve(&hello.dataset) else {
                    return wire.bail(format!("no dataset named {:?} is loaded", hello.dataset));
                };
                let reply = Hello {
                    version: PROTOCOL_VERSION,
                    dataset: hello.dataset,
                    num_rows: resolved.dataset.num_rows() as u64,
                    attrs: dataset_meta(&resolved.dataset),
                };
                if let Err(e) = wire.send(&Frame::Hello(reply)) {
                    return wire.lost(e);
                }
                // The old session hands its counter back to the thread
                // first, so a pooled connection counts every query on one.
                drop(session.take());
                session = Some(Session::new(resolved));
            }
            (Frame::GrowDelta(grow), Some(open)) => {
                let counts = match open.count(&grow, wire.stats) {
                    Ok(counts) => counts,
                    Err(msg) => return wire.bail(msg),
                };
                if let Err(e) = wire.send_counts(counts) {
                    return wire.lost(e);
                }
                open.park();
            }
            (Frame::Marginals, Some(open)) => {
                let served = &open.served;
                let totals = sketch_marginals(&served.dataset, served.sketch.as_deref());
                if let Err(e) = wire.send_counts(&mut marginal_totals(totals)) {
                    return wire.lost(e);
                }
            }
            // A query's end: a session holds nothing per query.
            (Frame::Result(_), Some(_)) => {}
            // The coordinator gave up: drop the session quietly.
            (Frame::Error(_), _) => return SessionEnd::Closed,
            (f, open) => {
                let expected =
                    if open.is_some() { "Hello, GrowDelta, Marginals or Result" } else { "Hello" };
                return wire.bail(format!("expected {expected}, got {}", f.name()));
            }
        }
    }
}

/// The reply to `Marginals`: every attribute's whole-slice counts from a
/// usable sketch, or counts over no attributes — the decline.
fn marginal_totals(totals: Option<Vec<Vec<u64>>>) -> ShardCounts {
    let totals = totals.unwrap_or_default();
    let mut counts = ShardCounts::empty(None, totals.iter().map(|c| c.len() as u32));
    for (cs, column) in counts.attrs.iter_mut().zip(&totals) {
        for (code, &k) in column.iter().enumerate() {
            cs.increment(code as u32, k);
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame, CountMergeFrame, ResultFrame};

    fn dataset() -> Arc<Dataset> {
        Arc::new(swope_datagen::generate(&swope_datagen::corpus::tiny(500, 4), 0xC1))
    }

    /// `ds` served without a sketch.
    fn served(ds: &Arc<Dataset>) -> PeerDataset {
        PeerDataset { dataset: Arc::clone(ds), sketch: None }
    }

    /// An in-memory duplex "stream": reads consume a script, writes
    /// accumulate for inspection.
    struct Pipe {
        input: std::io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Pipe {
        fn scripted(frames: &[Frame]) -> Self {
            let mut input = Vec::new();
            for f in frames {
                write_frame(&mut input, f).unwrap();
            }
            Self { input: std::io::Cursor::new(input), output: Vec::new() }
        }

        fn replies(&self) -> Vec<Frame> {
            let mut cursor = std::io::Cursor::new(self.output.clone());
            let mut out = Vec::new();
            while let Ok((f, _)) = read_frame(&mut cursor) {
                out.push(f);
            }
            out
        }
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn hello(dataset: &str) -> Frame {
        Frame::Hello(Hello {
            version: PROTOCOL_VERSION,
            dataset: dataset.into(),
            num_rows: 0,
            attrs: Vec::new(),
        })
    }

    const P: u32 = PAGE_ROWS as u32;

    /// A `GrowDelta` for a slice at union row `base` of `union_rows`.
    fn grow(
        target: Option<u32>,
        live: Vec<u32>,
        (union_rows, base): (u64, u64),
        runs: Vec<Range<u32>>,
        list: Vec<u32>,
    ) -> Frame {
        Frame::GrowDelta(GrowDelta { m_target: 64, target, live, union_rows, base, runs, list })
    }

    /// The 500-row dataset as a union of its own.
    const ALONE: (u64, u64) = (500, 0);

    /// Every fifth slot of the 500: dense enough to travel as a bitmap.
    fn dense_slots() -> Vec<u32> {
        (0..500).step_by(5).collect()
    }

    #[test]
    fn session_answers_hello_and_counts() {
        let ds = dataset();
        let n = ds.num_rows() as u64;
        let sampled: Vec<u32> = (0..64).map(|i| (i * 7) % 500).collect();
        let mut pipe = Pipe::scripted(&[
            hello("t"),
            grow(None, vec![0, 1, 2, 3], ALONE, Vec::new(), sampled),
            Frame::Result(ResultFrame { sampled: 64 }),
        ]);
        let stats = ClusterStats::new();
        let resolve = |name: &str| (name == "t").then(|| served(&ds));
        assert_eq!(serve_connection(&mut pipe, &resolve, &stats), SessionEnd::Closed);
        let replies = pipe.replies();
        assert_eq!(replies.len(), 2);
        let Frame::Hello(h) = &replies[0] else { panic!("expected Hello, got {replies:?}") };
        assert_eq!(h.num_rows, n);
        assert_eq!(h.attrs.len(), 4);
        let Frame::CountMerge(c) = &replies[1] else { panic!("expected CountMerge") };
        // All 64 positions sent are counted for each of the 4 live attributes.
        let mut counts = ShardCounts::empty(None, (0..4).map(|a| ds.support(a)));
        c.decode_into(&mut counts).unwrap();
        assert!(counts.target.is_none());
        assert_eq!(counts.attrs.len(), 4);
        for cs in &counts.attrs {
            assert_eq!(cs.total(), 64);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.frames_received, 3);
        assert_eq!(snap.frames_sent, 2);
        assert_eq!(snap.peer_errors, 0);
        // The 64 listed positions, on a dataset of its own: a list.
        assert_eq!((snap.peer_run_positions, snap.peer_list_positions), (0, 64));
        // The typed byte counters see the one GrowDelta and its reply.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::CountMerge(c.clone())).unwrap();
        assert_eq!(snap.count_merge_bytes, wire.len() as u64);
        assert!(snap.grow_delta_bytes > 0 && snap.grow_delta_bytes < snap.bytes_received);
    }

    /// `Marginals` is answered with the slice's code counts (from its
    /// sketch), or declined without a sketch; the query then goes on as
    /// before.
    #[test]
    fn marginals_are_the_sketch_totals_or_a_decline() {
        let ds = dataset();
        let n = ds.num_rows() as u64;
        let sketch = swope_columnar::DatasetSketch::build(
            ds.layout().grid(),
            (0..4).map(|a| ds.column(a).packed()),
        );
        let script = [
            hello("t"),
            Frame::Marginals,
            grow(Some(0), vec![1], ALONE, Vec::new(), vec![4, 2]),
            Frame::Result(ResultFrame { sampled: 64 }),
        ];
        let stats = ClusterStats::new();
        for sketch in [Some(Arc::new(sketch)), None] {
            let mut pipe = Pipe::scripted(&script);
            let declines = sketch.is_none();
            let peer = PeerDataset { dataset: Arc::clone(&ds), sketch };
            let resolve = |_: &str| Some(peer.clone());
            assert_eq!(serve_connection(&mut pipe, &resolve, &stats), SessionEnd::Closed);
            let replies = pipe.replies();
            let [Frame::Hello(_), Frame::CountMerge(totals), Frame::CountMerge(_)] = &replies[..]
            else {
                panic!("expected Hello and two CountMerges, got {replies:?}")
            };
            if declines {
                let decline = CountMergeFrame::from_counts(&mut ShardCounts::empty(None, []));
                assert_eq!(totals, &decline);
                continue;
            }
            let mut counts = ShardCounts::empty(None, (0..4).map(|a| ds.support(a)));
            totals.decode_into(&mut counts).unwrap();
            for (a, cs) in counts.attrs.iter().enumerate() {
                let dense: Vec<(u32, u64)> = ds
                    .column(a)
                    .value_counts()
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, k)| k > 0)
                    .map(|(c, k)| (c as u32, k))
                    .collect();
                assert_eq!(cs.sorted_entries(), dense);
                assert_eq!(cs.total(), n);
            }
        }
        assert_eq!(stats.snapshot().peer_errors, 0);
    }

    /// A peer counts exactly its rows among the positions it is sent —
    /// runs and fringe slots, listed or as a bitmap — over doublings whose
    /// requests change: its 500 rows sit at union row 700 of 1 500, so the
    /// one union page straddles both of its cuts.
    #[test]
    fn peer_counts_only_its_slice() {
        let ds = dataset();
        let frame = (1_500, 700);
        let union = PageLayout::of(1_500);
        let deltas = [(vec![100..900, 1_400..1_500], vec![17, 3, 411]), (vec![], dense_slots())];
        let mut pipe = Pipe::scripted(&[
            hello("t"),
            grow(Some(0), vec![1, 2], frame, deltas[0].0.clone(), deltas[0].1.clone()),
            grow(Some(0), vec![2], frame, deltas[1].0.clone(), deltas[1].1.clone()),
            Frame::Result(ResultFrame { sampled: 103 }),
        ]);
        let stats = ClusterStats::new();
        let resolve = |_: &str| Some(served(&ds));
        assert_eq!(serve_connection(&mut pipe, &resolve, &stats), SessionEnd::Closed);
        let replies = pipe.replies();
        assert_eq!(replies.len(), 3, "{replies:?}");
        for (reply, ((runs, list), live)) in
            replies[1..].iter().zip(deltas.iter().zip([&[1, 2][..], &[2]]))
        {
            let Frame::CountMerge(c) = reply else { panic!("expected CountMerge") };
            let mut got =
                ShardCounts::empty(Some(ds.support(0)), live.iter().map(|&a| ds.support(a)));
            c.decode_into(&mut got).unwrap();
            let mut want =
                ShardCounts::empty(Some(ds.support(0)), live.iter().map(|&a| ds.support(a)));
            let mut rows = Vec::new();
            union.rows_of(Positions { runs, list }, &mut rows);
            let mine: Vec<usize> = rows
                .iter()
                .filter(|&&r| (700..1_200).contains(&r))
                .map(|&r| r as usize - 700)
                .collect();
            assert!(!mine.is_empty() && mine.len() < rows.len(), "both sides of the cuts drawn");
            for &r in &mine {
                let t = ds.column(0).code(r);
                want.target.as_mut().unwrap().add(t);
                for ((cs, joint), &a) in want.attrs.iter_mut().zip(&mut want.joints).zip(live) {
                    let code = ds.column(a).code(r);
                    cs.add(code);
                    joint.add(t, code);
                }
            }
            assert_eq!(got.target.unwrap().sorted_entries(), want.target.unwrap().sorted_entries());
            for i in 0..live.len() {
                assert_eq!(got.attrs[i].sorted_entries(), want.attrs[i].sorted_entries());
                assert_eq!(got.joints[i].canonical_runs(), want.joints[i].canonical_runs());
            }
        }
    }

    /// A dataset of `rows` rows: only its row count and layout matter to a
    /// slot table.
    fn of_rows(rows: usize) -> Dataset {
        let schema = swope_columnar::Schema::new(vec![swope_columnar::Field::new("a", 1)]);
        let column = swope_columnar::Column::new_unchecked(vec![0; rows], 1);
        Dataset::new(schema, vec![column]).unwrap()
    }

    /// The union rows page `page`'s slots hold, slot by slot, read through
    /// the union's own tables.
    fn union_rows_on(union: &PageLayout, page: u32) -> Vec<u32> {
        let slots = page * P..((page + 1) * P).min(union.num_rows() as u32);
        let mut rows = Vec::new();
        union.rows_of(Positions { runs: std::slice::from_ref(&slots), list: &[] }, &mut rows);
        rows
    }

    /// Whether a peer of `ds` at union row `base` stores union page `page`
    /// in the union's order: every slot holds one of its rows, at the
    /// peer's position `page·P + slot − base`.
    fn stored_in_union_order(union: &PageLayout, ds: &Dataset, base: u64, page: u32) -> bool {
        union_rows_on(union, page).iter().zip(page * P..).all(|(&row, position)| {
            let mine = u64::from(row).checked_sub(base).filter(|&r| r < ds.num_rows() as u64);
            mine.is_some_and(|r| {
                u64::from(ds.layout().position_of(r as u32)) + base == u64::from(position)
            })
        })
    }

    /// The slot table maps every slot to the peer's position of the row
    /// there, or to "not mine", and is the identity — a run — for exactly
    /// the pages the peer stores in the union's order: every whole page
    /// of a slice whose base is 0, and no other.
    #[test]
    fn the_slot_table_is_the_identity_for_exactly_the_pages_stored_in_union_order() {
        let n = 2 * P as usize + 1_000;
        let union = PageLayout::of(n);
        let (p, n) = (P as u64, n as u64);
        // (base, rows, which overlapped pages are identities)
        let cases: [(u64, u64, &[bool]); 6] = [
            (0, n, &[true, true, true]),
            (0, 2 * p, &[true, true]),
            (0, p + 5, &[true, false]),
            (p, p, &[false]),
            (p, n - p, &[false, false]),
            (5, 2 * p, &[false, false, false]),
        ];
        for (base, rows, identities) in cases {
            let ds = of_rows(rows as usize);
            let table = SlotTable::build(&ds, (n, base)).unwrap();
            assert_eq!(table.pages.len(), identities.len(), "base {base}, {rows} rows");
            for (i, &identity) in identities.iter().enumerate() {
                let page = table.first_page + i as u32;
                let slots = table.page(page).unwrap();
                assert_eq!(
                    matches!(slots, PageSlots::Identity { .. }),
                    identity,
                    "base {base}, {rows} rows, page {page}"
                );
                assert_eq!(stored_in_union_order(&union, &ds, base, page), identity, "page {page}");
                // Every slot, through the table, against the two layouts.
                let first = page * P;
                let end = (first + P).min(n as u32);
                let union_rows = union_rows_on(&union, page);
                let grow = GrowDelta {
                    m_target: 0,
                    target: None,
                    live: Vec::new(),
                    union_rows: n,
                    base,
                    runs: Vec::new(),
                    list: (first..end).collect(),
                };
                let (mut runs, mut list) = (Vec::new(), Vec::new());
                table.window(&grow, &mut runs, &mut list).unwrap();
                let want: Vec<u32> = union_rows
                    .iter()
                    .filter_map(|&row| u64::from(row).checked_sub(base).filter(|&r| r < rows))
                    .map(|r| ds.layout().position_of(r as u32))
                    .collect();
                assert_eq!(list, want, "base {base}, {rows} rows, page {page}");
                assert!(runs.is_empty());
                // The page as one window: a run in place on an identity
                // page, the same positions listed on any other.
                let whole = first..end;
                let grow = GrowDelta { runs: vec![whole], list: Vec::new(), ..grow };
                table.window(&grow, &mut runs, &mut list).unwrap();
                assert_eq!(runs.is_empty(), !identity);
                list.extend(runs.iter().flat_map(Clone::clone));
                assert_eq!(list, want, "base {base}, {rows} rows, page {page} as a run");
            }
            // An identity page stores nothing.
            let mapped = identities.iter().filter(|&&id| !id).count();
            assert!(table.slots.len() <= mapped * P as usize);
        }
    }

    /// A slice that keeps the union's layout — its frame the
    /// `GrowDelta`'s — counts every window as one run: a page it holds
    /// whole stores nothing, a fringe page one rank a slot, and the runs
    /// hold exactly its rows among the window's slots, in slot order. A
    /// listed slot is the same position, one by one.
    #[test]
    fn a_slice_in_the_unions_frame_counts_every_window_as_a_run() {
        let n = 2 * P as usize + 1_000;
        let (table_ds, union) = (of_rows(n), PageLayout::of(n));
        let p = P as usize;
        for (base, rows) in
            [(0, n), (0, p + 5), (p, p), (5, 2 * p), (40_000, n - 40_000), (p + 3, 10)]
        {
            let ds = table_ds.take_rows(&(base..base + rows).collect::<Vec<_>>());
            let table = SlotTable::build(&ds, (n as u64, base as u64)).unwrap();
            assert!(table.slots.is_empty(), "base {base}, {rows} rows: nothing mapped");
            let fringes = table.pages.iter().filter(|s| matches!(s, PageSlots::Ranked { .. }));
            assert!(fringes.count() <= 2 && table.ranks.len() <= 2 * (p + 1));
            for i in 0..table.pages.len() {
                let page = table.first_page + i as u32;
                let first = page * P;
                let len = (n as u32 - first).min(P);
                let want: Vec<(u32, u32)> = union_rows_on(&union, page)
                    .iter()
                    .zip(0..)
                    .filter(|&(&row, _)| (base..base + rows).contains(&(row as usize)))
                    .map(|(&row, slot)| (slot, ds.layout().position_of(row - base as u32)))
                    .collect();
                for window in [0..len, 7..len / 2, len / 3..len, 100..101] {
                    let grow = GrowDelta {
                        m_target: 0,
                        target: None,
                        live: Vec::new(),
                        union_rows: n as u64,
                        base: base as u64,
                        runs: std::iter::once(first + window.start..first + window.end).collect(),
                        list: Vec::new(),
                    };
                    let (mut runs, mut list) = (Vec::new(), Vec::new());
                    table.window(&grow, &mut runs, &mut list).unwrap();
                    assert!(list.is_empty() && runs.len() <= 1, "base {base}, page {page}");
                    let got: Vec<u32> = runs.iter().flat_map(Clone::clone).collect();
                    let mine = want.iter().filter(|(slot, _)| window.contains(slot));
                    assert_eq!(got, mine.map(|&(_, at)| at).collect::<Vec<_>>(), "{window:?}");
                    let grow = GrowDelta {
                        runs: Vec::new(),
                        list: (first..first + len).collect(),
                        ..grow
                    };
                    table.window(&grow, &mut runs, &mut list).unwrap();
                    assert_eq!(list, want.iter().map(|&(_, at)| at).collect::<Vec<_>>());
                }
            }
        }
    }

    /// One table per dataset, shared by every session under the same
    /// frame, rebuilt for a new frame and let go with the dataset.
    #[test]
    fn slot_tables_are_kept_across_sessions() {
        let ds = Arc::new(of_rows(900));
        let first = slot_table(&ds, (2_000, 100)).unwrap();
        assert!(Arc::ptr_eq(&first, &slot_table(&ds, (2_000, 100)).unwrap()));
        let moved = slot_table(&ds, (2_000, 0)).unwrap();
        assert!(!Arc::ptr_eq(&first, &moved));
        assert!(Arc::ptr_eq(&moved, &slot_table(&ds, (2_000, 0)).unwrap()));
        let weak = Arc::downgrade(&moved);
        drop((first, moved, ds));
        // The next lookup, for any dataset, lets the dead one's table go.
        slot_table(&Arc::new(of_rows(1)), (1, 0)).unwrap();
        assert_eq!(weak.strong_count(), 0);
    }

    #[test]
    fn unknown_dataset_and_bad_order_get_error_frames() {
        let ds = dataset();
        let stats = ClusterStats::new();
        let mut pipe = Pipe::scripted(&[hello("missing")]);
        let resolve = |name: &str| (name == "t").then(|| served(&ds));
        let SessionEnd::Error(msg) = serve_connection(&mut pipe, &resolve, &stats) else {
            panic!("expected an error end");
        };
        assert!(msg.contains("missing"), "{msg}");
        let Frame::Error(e) = &pipe.replies()[0] else { panic!("expected Error frame") };
        assert_eq!(e.message, msg);

        // A GrowDelta before any Hello is a protocol violation.
        let mut pipe = Pipe::scripted(&[grow(None, vec![0], ALONE, Vec::new(), vec![1])]);
        let SessionEnd::Error(msg) = serve_connection(&mut pipe, &resolve, &stats) else {
            panic!("expected an error end");
        };
        assert_eq!(msg, "expected Hello, got GrowDelta");
    }

    /// `script`, after a `Hello`, sent to a 500-row peer ends its session
    /// with one `Error` line, which is returned.
    fn refused_bytes(script: &[u8]) -> String {
        let ds = dataset();
        let stats = ClusterStats::new();
        let resolve = |_: &str| Some(served(&ds));
        let mut input = Vec::new();
        write_frame(&mut input, &hello("t")).unwrap();
        input.extend_from_slice(script);
        let mut pipe = Pipe { input: std::io::Cursor::new(input), output: Vec::new() };
        let SessionEnd::Error(msg) = serve_connection(&mut pipe, &resolve, &stats) else {
            panic!("expected an error end");
        };
        let replies = pipe.replies();
        let [Frame::Hello(_), Frame::Error(e)] = &replies[..] else {
            panic!("expected Hello and Error, got {replies:?}")
        };
        assert_eq!(e.message, msg);
        assert!(!msg.contains('\n'), "{msg}");
        assert_eq!(stats.snapshot().peer_errors, 1);
        msg
    }

    /// [`refused_bytes`] of one frame.
    fn refused(frame: Frame) -> String {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).unwrap();
        refused_bytes(&bytes)
    }

    #[test]
    fn mismatched_shard_range_is_rejected() {
        // The 500 rows placed past the end of a union of 600.
        let msg = refused(grow(None, vec![0], (600, 101), Vec::new(), vec![3]));
        assert_eq!(
            msg,
            "GrowDelta places this peer's 500 rows at union row 101, past the union's 600"
        );
        let msg = refused(grow(None, vec![0], (400, 0), Vec::new(), vec![3]));
        assert_eq!(
            msg,
            "GrowDelta places this peer's 500 rows at union row 0, past the union's 400"
        );
    }

    #[test]
    fn a_row_past_the_slice_is_an_error_frame() {
        // The 500 rows are union rows P − 100 .. P + 400: pages 0 and 1 of 3.
        let frame = (3 * u64::from(P), u64::from(P) - 100);
        let (past, mine) = (2 * P + 5..2 * P + 9, P..P + 9);
        let msg = refused(grow(None, vec![0], frame, vec![past], Vec::new()));
        assert_eq!(msg, "GrowDelta window on union page 2 is past this peer's pages 0..2");
        let msg = refused(grow(None, vec![0], frame, vec![mine], vec![2 * P + 7]));
        assert_eq!(
            msg,
            "GrowDelta position 131079 is on union page 2, where this peer holds no slot"
        );
        let frame = (3 * u64::from(P), u64::from(P) + 100);
        let before = 5..9;
        let msg = refused(grow(None, vec![0], frame, vec![before], Vec::new()));
        assert_eq!(msg, "GrowDelta window on union page 0 is past this peer's pages 1..2");
    }

    #[test]
    fn stray_bits_past_the_span_are_an_error_frame() {
        // Every fourth slot of 0..=496: a bitmap whose window spans 497
        // slots, so its last byte holds slot 496 and seven spare bits.
        let slots = (0..=496).step_by(4).collect();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &grow(None, vec![0], ALONE, Vec::new(), slots)).unwrap();
        // Set the last spare bit. The CRC is recomputed: the payload
        // itself lies.
        let trailer = bytes.len() - 4;
        bytes[trailer - 1] |= 0x80;
        let crc = swope_store::crc32::crc32(&bytes[4..trailer]);
        bytes[trailer..].copy_from_slice(&crc.to_le_bytes());
        let msg = refused_bytes(&bytes);
        assert_eq!(msg, "malformed frame payload: a bitmap sets a bit past its window");
    }

    #[test]
    fn an_older_coordinator_is_refused_by_version() {
        let ds = dataset();
        let stats = ClusterStats::new();
        let resolve = |_: &str| Some(served(&ds));
        // v1's fixed-width counts, v3, whose peers replayed the shuffle,
        // and v4, which sent each peer its own rows.
        for version in [1, 3, 4] {
            let hello = Hello { version, dataset: "t".into(), num_rows: 0, attrs: Vec::new() };
            let mut pipe = Pipe::scripted(&[Frame::Hello(hello)]);
            let end = serve_connection(&mut pipe, &resolve, &stats);
            let msg =
                format!("protocol version {version} unsupported (peer speaks {PROTOCOL_VERSION})");
            assert_eq!(end, SessionEnd::Error(msg.clone()));
            assert_eq!(pipe.replies(), vec![Frame::Error(ErrorFrame { message: msg })]);
        }
    }
}
