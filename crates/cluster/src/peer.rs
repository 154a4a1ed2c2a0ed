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
//! QuerySpec(seed, population, …) ────▶          ┐ per
//! [Marginals] ───────────────────────▶          │ query
//!            ◀──────────────────────── CountMerge │ (MI over the whole union)
//! GrowDelta(m₁, live) ───────────────▶          │
//!            ◀──────────────────────── CountMerge │ (repeats
//! GrowDelta(m₂, live′) ──────────────▶          │  per
//!            ◀──────────────────────── CountMerge │  iteration)
//! Result(sampled) ───────────────────▶          ┘
//! ```
//!
//! The peer never sees scores or bounds — only integer count work, which
//! it hands to a one-shard [`LocalShardSource::slice`] over its rows,
//! recycling each reply's histograms for the next doubling. That
//! source replays the *global* prefix shuffle named by `QuerySpec` (same
//! seed, same population as every other peer and as a single-box run) and
//! counts just the sampled rows that land in the peer's `[shard_start,
//! shard_end)` slice of the union, which is what makes the coordinator's
//! merged answer bitwise-identical to a local run over the union (see
//! `swope_core::shard`). Asked for `Marginals`, the source gives its
//! slice's partition-sketch totals, or none without a usable sketch and
//! the peer declines; summed, they are the union's marginals.
//!
//! Protocol violations and unknown datasets are answered with an
//! [`ErrorFrame`] and end the session; a clean EOF from the coordinator
//! ends it silently. All counting here is single-threaded: a peer's
//! parallelism across queries comes from serving many connections.

use std::io::{Read, Write};
use std::sync::Arc;

use swope_columnar::{Dataset, DatasetSketch};
use swope_core::shard::dataset_meta;
use swope_core::{CountRequest, Executor, LocalShardSource, ShardCounts, ShardTransport};

use crate::frame::{
    ErrorFrame, Frame, FrameError, FrameReader, FrameWriter, Hello, QuerySpecFrame,
    PROTOCOL_VERSION,
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
    let mut ds: Option<PeerDataset> = None;
    loop {
        match wire.recv() {
            Ok(Frame::Hello(hello)) => {
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
                    stats.record_peer_error();
                    return SessionEnd::Error(e.to_string());
                }
                ds = Some(resolved);
            }
            Ok(Frame::QuerySpec(spec)) => {
                let Some(ds) = &ds else {
                    return wire.bail("QuerySpec before any Hello".into());
                };
                if let Err(msg) = validate_spec(&ds.dataset, &spec) {
                    return wire.bail(msg);
                }
                match serve_query(&mut wire, ds, &spec) {
                    Ok(()) => {}
                    Err(QueryEnd::Closed) => return SessionEnd::Closed,
                    Err(QueryEnd::Fail(msg)) => return wire.bail(msg),
                }
            }
            Ok(f) => {
                let expected = if ds.is_some() { "Hello or QuerySpec" } else { "Hello" };
                return wire.bail(format!("expected {expected}, got {}", f.name()));
            }
            Err(e) if e.is_eof() => return SessionEnd::Closed,
            Err(e) => return wire.bail(e.to_string()),
        }
    }
}

fn validate_spec(ds: &Dataset, q: &QuerySpecFrame) -> Result<(), String> {
    let local = ds.num_rows() as u64;
    if q.shard_end.checked_sub(q.shard_start) != Some(local) {
        return Err(format!(
            "QuerySpec places this peer at [{}, {}) but it holds {local} rows",
            q.shard_start, q.shard_end
        ));
    }
    if q.base.checked_add(q.population).is_none() {
        return Err("QuerySpec scope overflows the row index space".into());
    }
    // `PrefixShuffle` indexes rows with `u32` and asserts as much.
    if q.population > u32::MAX as u64 {
        return Err(format!(
            "QuerySpec population {} exceeds the {} rows a sample can index",
            q.population,
            u32::MAX
        ));
    }
    Ok(())
}

enum QueryEnd {
    /// EOF or an Error frame mid-query: the coordinator died or gave up;
    /// drop the query quietly.
    Closed,
    /// Protocol violation worth reporting back.
    Fail(String),
}

/// Runs one query's GrowDelta/CountMerge exchanges until `Result`.
fn serve_query<S: Read + Write>(
    wire: &mut Wire<'_, S>,
    served: &PeerDataset,
    spec: &QuerySpecFrame,
) -> Result<(), QueryEnd> {
    let ds = &*served.dataset;
    let exec = Executor::sequential();
    let population = spec.base..spec.base + spec.population;
    let mut source = LocalShardSource::slice(ds, 1, population, spec.shard_start, spec.seed, &exec)
        .with_sketch(served.sketch.as_deref());
    loop {
        let counts = match wire.recv() {
            Ok(Frame::GrowDelta(grow)) => {
                let attrs = ds.num_attrs() as u32;
                if grow.live.iter().chain(grow.target.iter()).any(|&a| a >= attrs) {
                    return Err(QueryEnd::Fail(format!(
                        "GrowDelta names an attribute beyond the dataset's {attrs}"
                    )));
                }
                let req = CountRequest {
                    target: grow.target.map(|t| t as usize),
                    live: grow.live.iter().map(|&a| a as usize).collect(),
                };
                source.advance(grow.m_target as usize, &req)
            }
            Ok(Frame::Marginals) => source.marginals().map(|totals| vec![marginal_totals(totals)]),
            Ok(Frame::Result(_)) => return Ok(()),
            Ok(Frame::Error(_)) => return Err(QueryEnd::Closed),
            Ok(f) => return Err(QueryEnd::Fail(format!("expected GrowDelta, got {}", f.name()))),
            Err(e) if e.is_eof() => return Err(QueryEnd::Closed),
            Err(e) => return Err(QueryEnd::Fail(e.to_string())),
        };
        let mut counts = counts.map_err(|e| QueryEnd::Fail(e.to_string()))?;
        if let Err(e) = wire.send_counts(&mut counts[0]) {
            wire.stats.record_peer_error();
            return Err(QueryEnd::Fail(e.to_string()));
        }
        source.recycle(counts);
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
    use crate::frame::{read_frame, write_frame, CountMergeFrame, GrowDelta, ResultFrame};
    use swope_sampling::PrefixShuffle;

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

    #[test]
    fn session_answers_hello_and_counts() {
        let ds = dataset();
        let n = ds.num_rows() as u64;
        let mut pipe = Pipe::scripted(&[
            hello("t"),
            Frame::QuerySpec(QuerySpecFrame {
                seed: 7,
                population: n,
                base: 0,
                shard_start: 0,
                shard_end: n,
            }),
            Frame::GrowDelta(GrowDelta { m_target: 64, target: None, live: vec![0, 1, 2, 3] }),
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
        // The peer owns the whole population here, so all 64 sampled
        // rows are counted for each of the 4 live attributes.
        let mut counts = ShardCounts::empty(None, (0..4).map(|a| ds.support(a)));
        c.decode_into(&mut counts).unwrap();
        assert!(counts.target.is_none());
        assert_eq!(counts.attrs.len(), 4);
        for cs in &counts.attrs {
            assert_eq!(cs.total(), 64);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.frames_received, 4);
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
            Frame::QuerySpec(QuerySpecFrame {
                seed: 7,
                population: n,
                base: 0,
                shard_start: 0,
                shard_end: n,
            }),
            Frame::Marginals,
            Frame::GrowDelta(GrowDelta { m_target: 64, target: Some(0), live: vec![1] }),
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

    #[test]
    fn peer_counts_only_its_slice() {
        let ds = dataset();
        let n = ds.num_rows() as u64;
        // Pretend this peer holds union rows [n, 2n) of a 2n-row union.
        let mut pipe = Pipe::scripted(&[
            hello("t"),
            Frame::QuerySpec(QuerySpecFrame {
                seed: 7,
                population: 2 * n,
                base: 0,
                shard_start: n,
                shard_end: 2 * n,
            }),
            Frame::GrowDelta(GrowDelta { m_target: 100, target: Some(0), live: vec![1, 2] }),
            Frame::Result(ResultFrame { sampled: 100 }),
        ]);
        let stats = ClusterStats::new();
        let resolve = |_: &str| Some(served(&ds));
        assert_eq!(serve_connection(&mut pipe, &resolve, &stats), SessionEnd::Closed);
        let Frame::CountMerge(c) = &pipe.replies()[1] else { panic!("expected CountMerge") };
        let mut counts = ShardCounts::empty(Some(ds.support(0)), [ds.support(1), ds.support(2)]);
        c.decode_into(&mut counts).unwrap();
        // Replay the same global shuffle to predict how many of the 100
        // sampled union rows land in [n, 2n).
        let mut shuffle = PrefixShuffle::new(2 * n as usize, 7);
        let expect = shuffle.grow_to(100).iter().filter(|&&r| (r as u64) >= n).count() as u64;
        assert!(expect > 0, "degenerate test: no sampled row hit the slice");
        assert_eq!(counts.target.unwrap().total(), expect);
        for (cs, js) in counts.attrs.iter().zip(&counts.joints) {
            assert_eq!(cs.total(), expect);
            assert_eq!(js.total(), expect);
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

        // A GrowDelta before any QuerySpec is a protocol violation.
        let mut pipe = Pipe::scripted(&[
            hello("t"),
            Frame::GrowDelta(GrowDelta { m_target: 8, target: None, live: vec![0] }),
        ]);
        let SessionEnd::Error(msg) = serve_connection(&mut pipe, &resolve, &stats) else {
            panic!("expected an error end");
        };
        assert!(msg.contains("QuerySpec"), "{msg}");
    }

    #[test]
    fn mismatched_shard_range_is_rejected() {
        let ds = dataset();
        let stats = ClusterStats::new();
        let resolve = |_: &str| Some(served(&ds));
        let mut pipe = Pipe::scripted(&[
            hello("t"),
            Frame::QuerySpec(QuerySpecFrame {
                seed: 1,
                population: 10,
                base: 0,
                shard_start: 0,
                shard_end: 10, // but the dataset holds 500 rows
            }),
        ]);
        let SessionEnd::Error(msg) = serve_connection(&mut pipe, &resolve, &stats) else {
            panic!("expected an error end");
        };
        assert!(msg.contains("holds 500 rows"), "{msg}");
    }

    /// `PrefixShuffle::new` asserts its population fits `u32`; a spec
    /// past that must be answered, not allowed to panic the session.
    #[test]
    fn oversized_population_is_an_error_frame() {
        let ds = dataset();
        let n = ds.num_rows() as u64;
        let stats = ClusterStats::new();
        let resolve = |_: &str| Some(served(&ds));
        let mut pipe = Pipe::scripted(&[
            hello("t"),
            Frame::QuerySpec(QuerySpecFrame {
                seed: 1,
                population: u32::MAX as u64 + 1,
                base: 0,
                shard_start: 0,
                shard_end: n,
            }),
        ]);
        let SessionEnd::Error(msg) = serve_connection(&mut pipe, &resolve, &stats) else {
            panic!("expected an error end");
        };
        assert!(msg.contains("population 4294967296"), "{msg}");
        let Frame::Error(e) = &pipe.replies()[1] else { panic!("expected Error frame") };
        assert_eq!(e.message, msg);
    }

    #[test]
    fn an_older_coordinator_is_refused_by_version() {
        let ds = dataset();
        let stats = ClusterStats::new();
        let resolve = |_: &str| Some(served(&ds));
        let mut pipe = Pipe::scripted(&[Frame::Hello(Hello {
            version: 1,
            dataset: "t".into(),
            num_rows: 0,
            attrs: Vec::new(),
        })]);
        let end = serve_connection(&mut pipe, &resolve, &stats);
        let msg = format!("protocol version 1 unsupported (peer speaks {PROTOCOL_VERSION})");
        assert_eq!(end, SessionEnd::Error(msg.clone()));
        assert_eq!(pipe.replies(), vec![Frame::Error(ErrorFrame { message: msg })]);
    }
}
