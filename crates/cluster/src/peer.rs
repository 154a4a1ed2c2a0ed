//! The peer (shard server) side of the protocol: answer counting work
//! over a locally resident dataset slice.
//!
//! A peer session is a tiny state machine on one connection:
//!
//! ```text
//! coordinator                         peer
//! -----------                         ----
//! Hello(dataset) ────────────────────▶
//!            ◀──────────────────────── Hello(num_rows, attrs)
//! [Marginals] ───────────────────────▶          ┐ per
//!            ◀──────────────────────── CountMerge │ query (MI over
//! GrowDelta(live, rows₁) ────────────▶          │ the whole union)
//!            ◀──────────────────────── CountMerge │ (repeats
//! GrowDelta(live′, rows₂) ───────────▶          │  per
//!            ◀──────────────────────── CountMerge │  iteration)
//! Result(sampled) ───────────────────▶          ┘
//! ```
//!
//! The peer never sees scores, bounds or the sampler — only integer count
//! work. The coordinator draws the query's one sample and sends each peer
//! the rows that fell in its slice, as local row indexes; the peer maps
//! them to its own storage positions ([`Dataset::row_positions`]) and
//! counts exactly those through the session's [`Counter`], the body every shard
//! counts with, parking each reply's histograms and joint deltas for the
//! next doubling. Its work is `O(rows sent)`, and nothing it allocates is
//! sized by the population. Asked for `Marginals`, it gives its slice's
//! partition-sketch totals, or, without a usable sketch, declines; summed,
//! they are the union's marginals.
//!
//! Protocol violations — a row past the slice, a bitmap over another row
//! count, an attribute out of range, a frame out of order — and unknown
//! datasets are answered with an [`ErrorFrame`] and end the session; a
//! clean EOF or an `Error` from the coordinator ends it silently. All
//! counting here is single-threaded: a peer's parallelism across queries
//! comes from serving many connections.

use std::io::{Read, Write};
use std::sync::Arc;

use swope_columnar::{Dataset, DatasetSketch};
use swope_core::shard::{dataset_meta, Counter};
use swope_core::{sketch_marginals, CountRequest, Executor, ShardCounts};

use crate::frame::{
    travels_as_bitmap, DeltaRows, ErrorFrame, Frame, FrameError, FrameReader, FrameWriter,
    GrowDelta, Hello, PROTOCOL_VERSION,
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
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, FrameError> {
        let (frame, n) = self.reader.read(self.io)?;
        self.stats.record_received(n);
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
    counter: Counter,
    req: CountRequest,
    /// A bitmap's rows, ascending.
    rows: Vec<u32>,
    /// The delta's rows' positions in the dataset's storage.
    positions: Vec<u32>,
    counts: ShardCounts,
}

impl Session {
    fn new(served: PeerDataset) -> Self {
        Self {
            counter: Counter::new(),
            served,
            req: CountRequest { target: None, live: Vec::new() },
            rows: Vec::new(),
            positions: Vec::new(),
            counts: ShardCounts::empty(None, []),
        }
    }

    /// Counts `grow`'s rows, or says in one line why they are not this
    /// slice's to count.
    fn count(&mut self, grow: &GrowDelta) -> Result<&mut ShardCounts, String> {
        let ds = &*self.served.dataset;
        let attrs = ds.num_attrs() as u32;
        if grow.live.iter().chain(grow.target.iter()).any(|&a| a >= attrs) {
            return Err(format!("GrowDelta names an attribute beyond the dataset's {attrs}"));
        }
        let held = ds.num_rows() as u64;
        let Self { counter, req, rows: bitmap_rows, positions, counts, .. } = self;
        let rows = match &grow.rows {
            DeltaRows::List(rows) => {
                if let Some(&row) = rows.iter().find(|&&row| u64::from(row) >= held) {
                    return Err(format!("GrowDelta row {row} is past this peer's {held} rows"));
                }
                if travels_as_bitmap(rows.len(), held) {
                    return Err(format!(
                        "GrowDelta lists {} of this peer's {held} rows; that many travel as a bitmap",
                        rows.len()
                    ));
                }
                rows
            }
            DeltaRows::Bitmap { span, .. } if u64::from(*span) != held => {
                return Err(format!(
                    "GrowDelta bitmap spans {span} rows, but this peer holds {held}"
                ));
            }
            bitmap => {
                bitmap_rows.clear();
                bitmap.append_to(bitmap_rows);
                bitmap_rows
            }
        };
        req.target = grow.target.map(|t| t as usize);
        req.live.clear();
        req.live.extend(grow.live.iter().map(|&a| a as usize));
        let positions = ds.row_positions(rows, positions);
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
                let reply = Hello {
                    version: PROTOCOL_VERSION,
                    dataset: hello.dataset,
                    num_rows: resolved.dataset.num_rows() as u64,
                    attrs: dataset_meta(&resolved.dataset),
                };
                if let Err(e) = wire.send(&Frame::Hello(reply)) {
                    return wire.lost(e);
                }
                session = Some(Session::new(resolved));
            }
            (Frame::GrowDelta(grow), Some(open)) => {
                let counts = match open.count(&grow) {
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

    fn grow(target: Option<u32>, live: Vec<u32>, rows: DeltaRows) -> Frame {
        Frame::GrowDelta(GrowDelta { m_target: 64, target, live, rows })
    }

    /// Every fifth row of the 500: dense enough to travel as a bitmap.
    fn dense_rows() -> Vec<u32> {
        (0..500).step_by(5).collect()
    }

    #[test]
    fn session_answers_hello_and_counts() {
        let ds = dataset();
        let n = ds.num_rows() as u64;
        let sampled: Vec<u32> = (0..64).map(|i| (i * 7) % 500).collect();
        let mut pipe = Pipe::scripted(&[
            hello("t"),
            grow(None, vec![0, 1, 2, 3], DeltaRows::new(&sampled, n as u32)),
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
        // All 64 rows sent are counted for each of the 4 live attributes.
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
    }

    /// `Marginals` is answered with the slice's code counts (from its
    /// sketch), or declined without a sketch; the query then goes on as
    /// before.
    #[test]
    fn marginals_are_the_sketch_totals_or_a_decline() {
        let ds = dataset();
        let n = ds.num_rows() as u64;
        let sketch = swope_columnar::DatasetSketch::build(
            ds.num_rows(),
            (0..4).map(|a| ds.column(a).packed()),
        );
        let script = [
            hello("t"),
            Frame::Marginals,
            grow(Some(0), vec![1], DeltaRows::new(&[4, 2], n as u32)),
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

    /// A peer counts exactly the rows it is sent, in either form, over
    /// doublings whose requests change: nothing more of its slice.
    #[test]
    fn peer_counts_only_its_slice() {
        let ds = dataset();
        let n = ds.num_rows() as u32;
        let deltas = [vec![17, 3, 411], dense_rows()];
        let mut pipe = Pipe::scripted(&[
            hello("t"),
            grow(Some(0), vec![1, 2], DeltaRows::new(&deltas[0], n)),
            grow(Some(0), vec![2], DeltaRows::new(&deltas[1], n)),
            Frame::Result(ResultFrame { sampled: 103 }),
        ]);
        assert!(matches!(DeltaRows::new(&deltas[1], n), DeltaRows::Bitmap { .. }));
        let stats = ClusterStats::new();
        let resolve = |_: &str| Some(served(&ds));
        assert_eq!(serve_connection(&mut pipe, &resolve, &stats), SessionEnd::Closed);
        let replies = pipe.replies();
        for (reply, (rows, live)) in replies[1..].iter().zip(deltas.iter().zip([&[1, 2][..], &[2]]))
        {
            let Frame::CountMerge(c) = reply else { panic!("expected CountMerge") };
            let mut got =
                ShardCounts::empty(Some(ds.support(0)), live.iter().map(|&a| ds.support(a)));
            c.decode_into(&mut got).unwrap();
            let mut want =
                ShardCounts::empty(Some(ds.support(0)), live.iter().map(|&a| ds.support(a)));
            for &r in rows {
                let t = ds.column(0).code(r as usize);
                want.target.as_mut().unwrap().add(t);
                for ((cs, joint), &a) in want.attrs.iter_mut().zip(&mut want.joints).zip(live) {
                    let code = ds.column(a).code(r as usize);
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
        let mut pipe = Pipe::scripted(&[grow(None, vec![0], DeltaRows::List(vec![1]))]);
        let SessionEnd::Error(msg) = serve_connection(&mut pipe, &resolve, &stats) else {
            panic!("expected an error end");
        };
        assert_eq!(msg, "expected Hello, got GrowDelta");
    }

    /// `rows` sent to a 500-row peer end its session with one `Error`
    /// line, which is returned.
    fn refused(rows: DeltaRows) -> String {
        let ds = dataset();
        let stats = ClusterStats::new();
        let resolve = |_: &str| Some(served(&ds));
        let mut pipe = Pipe::scripted(&[hello("t"), grow(None, vec![0], rows)]);
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

    #[test]
    fn mismatched_shard_range_is_rejected() {
        let rows: Vec<u32> = (0..600).step_by(5).collect();
        let msg = refused(DeltaRows::new(&rows, 600));
        assert_eq!(msg, "GrowDelta bitmap spans 600 rows, but this peer holds 500");
    }

    #[test]
    fn a_row_past_the_slice_is_an_error_frame() {
        let msg = refused(DeltaRows::List(vec![3, 500, 7]));
        assert_eq!(msg, "GrowDelta row 500 is past this peer's 500 rows");
        // A list that should have been a bitmap is refused as well.
        let msg = refused(DeltaRows::List(dense_rows()));
        assert!(msg.contains("travel as a bitmap"), "{msg}");
    }

    #[test]
    fn stray_bits_past_the_span_are_an_error_frame() {
        let DeltaRows::Bitmap { span, mut bits } = DeltaRows::new(&dense_rows(), 500) else {
            panic!("expected a bitmap")
        };
        *bits.last_mut().unwrap() |= 0x80; // row 503 of a 500-row span
        let msg = refused(DeltaRows::Bitmap { span, bits });
        assert_eq!(msg, "malformed frame payload: bitmap sets a bit past its span");
    }

    #[test]
    fn an_older_coordinator_is_refused_by_version() {
        let ds = dataset();
        let stats = ClusterStats::new();
        let resolve = |_: &str| Some(served(&ds));
        // v1's fixed-width counts, and v3, whose peers replayed the shuffle.
        for version in [1, 3] {
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
