//! The peer (shard server) side of the protocol: answer counting work
//! over a locally resident dataset slice.
//!
//! A peer session is a tiny state machine on one connection:
//!
//! ```text
//! coordinator                                  peer
//! -----------                                  ----
//! Hello(dataset) ─────────────────────────────▶
//!            ◀───────────────────────────────── Hello(num_rows, frame, attrs)
//! [Marginals] ────────────────────────────────▶          ┐ per
//!            ◀───────────────────────────────── CountMerge │ query (MI over
//! GrowDelta(live, windows₁) ──────────────────▶          │ the whole union)
//!            ◀───────────────────────────────── CountMerge │ (repeats
//! GrowDelta(live′, windows₂) ─────────────────▶          │  per
//!            ◀───────────────────────────────── CountMerge │  iteration)
//! Result(sampled) ────────────────────────────▶          ┘
//! ```
//!
//! The peer never sees scores, bounds or the sampler — only integer count
//! work. Its `Hello` names its frame ([`Dataset::frame`]): the table its
//! rows were cut from, which lays them out, and the first row of it they
//! hold. A coordinator whose peers tile one stretch of one frame draws
//! the query's one sample in that frame's layout and sends each peer the
//! windows of it on the union pages its slice overlaps: runs of whole
//! pages as `(page, start, len)` and a range's fringe pages as slots.
//!
//! A `swope split` half keeps the union's layout (snapshot v4), and a
//! dataset of its own is its own frame, so its layout finds its rows in
//! every window as one run of its storage (`PageLayout::from_table`): a
//! union page it holds whole is the window shifted by the base, and each
//! of its at most two fringe pages keeps a `u16` rank a slot, built once.
//! The peer books every position it counts as a run or a list
//! (`swope_cluster_peer_positions_total`).
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
//! Protocol violations — a window on a page the slice does not overlap
//! or past the rows of its frame's page, an attribute out of range, a
//! frame out of order — and unknown datasets are answered with an
//! [`ErrorFrame`] and end the session; a clean EOF or an `Error` from
//! the coordinator ends it silently. All counting here is
//! single-threaded: a peer's parallelism across queries comes from
//! serving many connections.

use std::io::{Read, Write};
use std::ops::Range;
use std::sync::Arc;

use swope_columnar::{Dataset, DatasetSketch};
use swope_core::shard::{dataset_meta, Counter, WarmCounter};
use swope_core::{sketch_marginals, CountRequest, Executor, ShardCounts};
use swope_sampling::Positions;

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
    /// The connection thread's spare counter while the session is open.
    counter: WarmCounter,
    req: CountRequest,
    /// The delta's positions in the dataset's storage: runs, and the
    /// listed slots one by one.
    runs: Vec<Range<u32>>,
    list: Vec<u32>,
    counts: ShardCounts,
}

impl Session {
    fn new(served: PeerDataset) -> Self {
        Self {
            served,
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
        let Self { counter, req, runs, list, counts, .. } = self;
        let windows = Positions { runs: &grow.runs, list: &grow.list };
        ds.layout().from_table(windows, runs, list).map_err(|e| format!("GrowDelta {e}"))?;
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
                let ds = &resolved.dataset;
                let ((union_rows, base), num_rows) = (ds.frame(), ds.num_rows());
                let reply = Hello {
                    version: PROTOCOL_VERSION,
                    dataset: hello.dataset,
                    num_rows: num_rows as u64,
                    before: base as u64,
                    after: (union_rows - base - num_rows) as u64,
                    attrs: dataset_meta(ds),
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
    use swope_sampling::PageLayout;
    use swope_store::page::PAGE_ROWS;

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
            before: 0,
            after: 0,
            attrs: Vec::new(),
        })
    }

    const P: u32 = PAGE_ROWS as u32;

    /// A `GrowDelta` of union positions.
    fn grow(target: Option<u32>, live: Vec<u32>, runs: Vec<Range<u32>>, list: Vec<u32>) -> Frame {
        Frame::GrowDelta(GrowDelta { m_target: 64, target, live, runs, list })
    }

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
            grow(None, vec![0, 1, 2, 3], Vec::new(), sampled),
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
        let sketch = swope_columnar::snapshot::build_sketch(&ds);
        let script = [
            hello("t"),
            Frame::Marginals,
            grow(Some(0), vec![1], Vec::new(), vec![4, 2]),
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
    /// requests change: its 500 rows are rows 700.. of a 1 500-row table,
    /// so the one union page straddles both of its cuts.
    #[test]
    fn peer_counts_only_its_slice() {
        let table = swope_datagen::generate(&swope_datagen::corpus::tiny(1_500, 4), 0xC1);
        let ds = Arc::new(table.take_rows(&(700..1_200).collect::<Vec<_>>()));
        assert_eq!(ds.frame(), (1_500, 700));
        let union = PageLayout::of(1_500);
        let deltas = [(vec![100..900, 1_400..1_500], vec![17, 3, 411]), (vec![], dense_slots())];
        let mut pipe = Pipe::scripted(&[
            hello("t"),
            grow(Some(0), vec![1, 2], deltas[0].0.clone(), deltas[0].1.clone()),
            grow(Some(0), vec![2], deltas[1].0.clone(), deltas[1].1.clone()),
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

    /// A dataset of `rows` rows: only its row count and layout matter to
    /// the windows it counts.
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

    /// A slice that keeps the union's layout counts every window as one
    /// run, whose positions hold exactly its rows among the window's
    /// slots, in slot order. A listed slot is the same position, one by
    /// one.
    #[test]
    fn a_slice_in_the_unions_frame_counts_every_window_as_a_run() {
        let n = 2 * P as usize + 1_000;
        let (table_ds, union) = (of_rows(n), PageLayout::of(n));
        let p = P as usize;
        for (base, rows) in
            [(0, n), (0, p + 5), (p, p), (5, 2 * p), (40_000, n - 40_000), (p + 3, 10)]
        {
            let ds = table_ds.take_rows(&(base..base + rows).collect::<Vec<_>>());
            let pages = base as u32 / P..(base + rows).div_ceil(p) as u32;
            for page in pages {
                let first = page * P;
                let len = (n as u32 - first).min(P);
                let want: Vec<(u32, u32)> = union_rows_on(&union, page)
                    .iter()
                    .zip(0..)
                    .filter(|&(&row, _)| (base..base + rows).contains(&(row as usize)))
                    .map(|(&row, slot)| (slot, ds.layout().position_of(row - base as u32)))
                    .collect();
                let (mut runs, mut list) = (Vec::new(), Vec::new());
                let mut windows = |runs_in: &[Range<u32>], list_in: &[u32]| {
                    let window = Positions { runs: runs_in, list: list_in };
                    ds.layout().from_table(window, &mut runs, &mut list).unwrap();
                    (runs.clone(), list.clone())
                };
                for window in [0..len, 7..len / 2, len / 3..len, 100..101] {
                    let run = first + window.start..first + window.end;
                    let (runs, list) = windows(std::slice::from_ref(&run), &[]);
                    assert!(list.is_empty() && runs.len() <= 1, "base {base}, page {page}");
                    let got: Vec<u32> = runs.iter().flat_map(Clone::clone).collect();
                    let mine = want.iter().filter(|(slot, _)| window.contains(slot));
                    assert_eq!(got, mine.map(|&(_, at)| at).collect::<Vec<_>>(), "{window:?}");
                }
                let (runs, list) = windows(&[], &(first..first + len).collect::<Vec<_>>());
                assert!(runs.is_empty());
                assert_eq!(list, want.iter().map(|&(_, at)| at).collect::<Vec<_>>());
            }
        }
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
        let mut pipe = Pipe::scripted(&[grow(None, vec![0], Vec::new(), vec![1])]);
        let SessionEnd::Error(msg) = serve_connection(&mut pipe, &resolve, &stats) else {
            panic!("expected an error end");
        };
        assert_eq!(msg, "expected Hello, got GrowDelta");
    }

    /// `script`, after a `Hello`, sent to a 500-row peer ends its session
    /// with one `Error` line, which is returned.
    fn refused_bytes(script: &[u8]) -> String {
        refused_by(&dataset(), script)
    }

    /// [`refused_bytes`] by a peer of `ds`.
    fn refused_by(ds: &Arc<Dataset>, script: &[u8]) -> String {
        let stats = ClusterStats::new();
        let resolve = |_: &str| Some(served(ds));
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

    /// [`refused_by`] of one frame.
    fn refused_from(ds: &Arc<Dataset>, frame: Frame) -> String {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).unwrap();
        refused_by(ds, &bytes)
    }

    /// [`refused_bytes`] of one frame.
    fn refused(frame: Frame) -> String {
        refused_from(&dataset(), frame)
    }

    /// A window or a slot past the rows of the peer's frame: the codec
    /// reads every page as `PAGE_ROWS` slots, the peer knows its 500.
    #[test]
    fn mismatched_shard_range_is_rejected() {
        let (past, mine) = (490..510, 3..9);
        let msg = refused(grow(None, vec![0], vec![past], Vec::new()));
        assert_eq!(msg, "GrowDelta window 490..510 goes past the 500 rows of table page 0");
        let msg = refused(grow(None, vec![0], vec![mine], vec![4, 503]));
        assert_eq!(msg, "GrowDelta position 503 goes past the 500 rows of table page 0");
    }

    #[test]
    fn a_row_past_the_slice_is_an_error_frame() {
        let table = of_rows(3 * P as usize);
        let slice = |rows: Range<u32>| {
            Arc::new(table.take_rows(&rows.map(|r| r as usize).collect::<Vec<_>>()))
        };
        // The 500 rows are union rows P − 100 .. P + 400: pages 0 and 1 of 3.
        let ds = slice(P - 100..P + 400);
        let (past, mine) = (2 * P + 5..2 * P + 9, P..P + 9);
        let msg = refused_from(&ds, grow(None, vec![0], vec![past], Vec::new()));
        let window = 2 * P + 5..2 * P + 9;
        assert_eq!(
            msg,
            format!("GrowDelta window {window:?} is on table page 2, past this slice's pages 0..2")
        );
        let msg = refused_from(&ds, grow(None, vec![0], vec![mine], vec![2 * P + 7]));
        assert_eq!(
            msg,
            "GrowDelta position 131079 is on table page 2, past this slice's pages 0..2"
        );
        let ds = slice(P + 100..P + 600);
        let before = 5..9;
        let msg = refused_from(&ds, grow(None, vec![0], vec![before], Vec::new()));
        assert_eq!(msg, "GrowDelta window 5..9 is on table page 0, past this slice's pages 1..2");
    }

    #[test]
    fn stray_bits_past_the_span_are_an_error_frame() {
        // Every fourth slot of 0..=496: a bitmap whose window spans 497
        // slots, so its last byte holds slot 496 and seven spare bits.
        let slots = (0..=496).step_by(4).collect();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &grow(None, vec![0], Vec::new(), slots)).unwrap();
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
        // v4, which sent each peer its own rows, and v5, whose `GrowDelta`
        // named the frame its `Hello` did not.
        for version in [1, 3, 4, 5] {
            let (dataset, attrs) = ("t".into(), Vec::new());
            let hello = Hello { version, dataset, num_rows: 0, before: 0, after: 0, attrs };
            let mut pipe = Pipe::scripted(&[Frame::Hello(hello)]);
            let end = serve_connection(&mut pipe, &resolve, &stats);
            let msg =
                format!("protocol version {version} unsupported (peer speaks {PROTOCOL_VERSION})");
            assert_eq!(end, SessionEnd::Error(msg.clone()));
            assert_eq!(pipe.replies(), vec![Frame::Error(ErrorFrame { message: msg })]);
        }
    }
}
