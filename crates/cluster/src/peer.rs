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
//! GrowDelta(m₁, live) ───────────────▶          │ query
//!            ◀──────────────────────── CountMerge │ (repeats
//! GrowDelta(m₂, live′) ──────────────▶          │  per
//!            ◀──────────────────────── CountMerge │  iteration)
//! Result(sampled) ───────────────────▶          ┘
//! ```
//!
//! The peer never sees scores or bounds — only integer count work. It
//! replays the *global* prefix shuffle named by `QuerySpec` (same seed,
//! same population as every other peer and as a single-box run) and
//! counts just the sampled rows that land in its own `[shard_start,
//! shard_end)` slice of the union, which is what makes the coordinator's
//! merged answer bitwise-identical to a local run over the union (see
//! `swope_core::shard`).
//!
//! Protocol violations and unknown datasets are answered with an
//! [`ErrorFrame`] and end the session; a clean EOF from the coordinator
//! ends it silently. All counting here is single-threaded: a peer's
//! parallelism across queries comes from serving many connections.

use std::io::{Read, Write};
use std::sync::Arc;

use swope_columnar::Dataset;
use swope_core::{
    count_candidate, count_target, AttrMeta, CountState, PairCountState, ShardCounts,
};
use swope_sampling::{PrefixShuffle, Sampler};

use crate::frame::{
    read_frame, write_frame, CountMergeFrame, ErrorFrame, Frame, FrameError, GrowDelta, Hello,
    QuerySpecFrame, PROTOCOL_VERSION,
};
use crate::stats::ClusterStats;

/// Resolves a dataset name to a resident dataset; `""` means "the
/// peer's default dataset" (servers map it to their first loaded one).
pub type DatasetResolver<'a> = dyn Fn(&str) -> Option<Arc<Dataset>> + 'a;

fn dataset_meta(ds: &Dataset) -> Vec<AttrMeta> {
    ds.schema()
        .fields()
        .iter()
        .map(|f| AttrMeta { name: f.name().to_owned(), support: f.support() })
        .collect()
}

fn send<S: Write>(io: &mut S, stats: &ClusterStats, frame: &Frame) -> Result<(), FrameError> {
    let n = write_frame(io, frame)?;
    stats.record_sent(n);
    Ok(())
}

fn recv<S: Read>(io: &mut S, stats: &ClusterStats) -> Result<Frame, FrameError> {
    let (frame, n) = read_frame(io)?;
    stats.record_received(n);
    Ok(frame)
}

/// Sends a one-line [`ErrorFrame`] (best effort) and reports the reason
/// as this session's outcome.
fn bail<S: Read + Write>(io: &mut S, stats: &ClusterStats, message: String) -> SessionEnd {
    stats.record_peer_error();
    let _ = send(io, stats, &Frame::Error(ErrorFrame { message: message.clone() }));
    SessionEnd::Error(message)
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
    // No dataset is open until the first Hello resolves one; each later
    // Hello (pooled-connection reuse) replaces it.
    let mut ds: Option<Arc<Dataset>> = None;
    loop {
        match recv(io, stats) {
            Ok(Frame::Hello(hello)) => {
                if hello.version != PROTOCOL_VERSION {
                    return bail(
                        io,
                        stats,
                        format!(
                            "protocol version {} unsupported (peer speaks {PROTOCOL_VERSION})",
                            hello.version
                        ),
                    );
                }
                let Some(resolved) = resolve(&hello.dataset) else {
                    return bail(
                        io,
                        stats,
                        format!("no dataset named {:?} is loaded", hello.dataset),
                    );
                };
                let reply = Hello {
                    version: PROTOCOL_VERSION,
                    dataset: hello.dataset,
                    num_rows: resolved.num_rows() as u64,
                    attrs: dataset_meta(&resolved),
                };
                if let Err(e) = send(io, stats, &Frame::Hello(reply)) {
                    stats.record_peer_error();
                    return SessionEnd::Error(e.to_string());
                }
                ds = Some(resolved);
            }
            Ok(Frame::QuerySpec(spec)) => {
                let Some(ds) = &ds else {
                    return bail(io, stats, "QuerySpec before any Hello".into());
                };
                if let Err(msg) = validate_spec(ds, &spec) {
                    return bail(io, stats, msg);
                }
                match serve_query(io, ds, &spec, stats) {
                    Ok(()) => {}
                    Err(QueryEnd::Closed) => return SessionEnd::Closed,
                    Err(QueryEnd::Aborted) => return SessionEnd::Closed,
                    Err(QueryEnd::Fail(msg)) => return bail(io, stats, msg),
                }
            }
            Ok(f) => {
                let expected = if ds.is_some() { "Hello or QuerySpec" } else { "Hello" };
                return bail(io, stats, format!("expected {expected}, got {}", f.name()));
            }
            Err(e) if e.is_eof() => return SessionEnd::Closed,
            Err(e) => return bail(io, stats, e.to_string()),
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
    Ok(())
}

enum QueryEnd {
    /// EOF mid-query: the coordinator died or lost interest.
    Closed,
    /// The coordinator sent an Error frame; drop the query quietly.
    Aborted,
    /// Protocol violation worth reporting back.
    Fail(String),
}

/// Runs one query's GrowDelta/CountMerge exchanges until `Result`.
fn serve_query<S: Read + Write>(
    io: &mut S,
    ds: &Dataset,
    spec: &QuerySpecFrame,
    stats: &ClusterStats,
) -> Result<(), QueryEnd> {
    let mut shuffle = PrefixShuffle::new(spec.population as usize, spec.seed);
    let mut rows: Vec<u32> = Vec::new();
    // Rows of one page adjacent, so paged gathers pin each page once.
    let mut grouper = ds.page_grouper();
    loop {
        let grow = match recv(io, stats) {
            Ok(Frame::GrowDelta(g)) => g,
            Ok(Frame::Result(_)) => return Ok(()),
            Ok(Frame::Error(_)) => return Err(QueryEnd::Aborted),
            Ok(f) => return Err(QueryEnd::Fail(format!("expected GrowDelta, got {}", f.name()))),
            Err(e) if e.is_eof() => return Err(QueryEnd::Closed),
            Err(e) => return Err(QueryEnd::Fail(e.to_string())),
        };
        let attrs = ds.num_attrs() as u32;
        if grow.live.iter().chain(grow.target.iter()).any(|&a| a >= attrs) {
            return Err(QueryEnd::Fail(format!(
                "GrowDelta names an attribute beyond the dataset's {attrs}"
            )));
        }
        // Replay the shared global shuffle; keep only our slice of the
        // newly sampled union rows, as local row indexes.
        rows.clear();
        for &i in shuffle.grow_to(grow.m_target as usize) {
            let union_row = spec.base + i as u64;
            if union_row >= spec.shard_start && union_row < spec.shard_end {
                rows.push((union_row - spec.shard_start) as u32);
            }
        }
        let mut counts = count_rows(ds, grouper.group(&rows), &grow);
        let frame = Frame::CountMerge(CountMergeFrame::from_counts(&mut counts));
        if let Err(e) = send(io, stats, &frame) {
            stats.record_peer_error();
            return Err(QueryEnd::Fail(e.to_string()));
        }
    }
}

/// Counts one delta's rows: target marginal first (gathering its codes),
/// then each live attribute's marginal and, for MI, its joint with the
/// target — `LocalShardSource`'s own counting bodies, single shard.
fn count_rows(ds: &Dataset, rows: &[u32], grow: &GrowDelta) -> ShardCounts {
    let mut tcodes = Vec::new();
    let target = grow.target.map(|t| {
        let mut counts = CountState::new(ds.support(t as usize));
        count_target(ds.column(t as usize), rows, &mut counts, &mut tcodes);
        counts
    });
    let mut attrs = Vec::with_capacity(grow.live.len());
    let mut joints = Vec::with_capacity(grow.live.len());
    for &attr in &grow.live {
        let mut out = CountState::new(ds.support(attr as usize));
        let mut pairs = PairCountState::new();
        let tcodes = grow.target.map(|_| tcodes.as_slice());
        count_candidate(ds.column(attr as usize), rows, tcodes, &mut out, &mut pairs);
        attrs.push(out);
        joints.push(pairs);
    }
    ShardCounts { target, attrs, joints }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ResultFrame;

    fn dataset() -> Arc<Dataset> {
        Arc::new(swope_datagen::generate(&swope_datagen::corpus::tiny(500, 4), 0xC1))
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
        let resolve = |name: &str| (name == "t").then(|| Arc::clone(&ds));
        assert_eq!(serve_connection(&mut pipe, &resolve, &stats), SessionEnd::Closed);
        let replies = pipe.replies();
        assert_eq!(replies.len(), 2);
        let Frame::Hello(h) = &replies[0] else { panic!("expected Hello, got {replies:?}") };
        assert_eq!(h.num_rows, n);
        assert_eq!(h.attrs.len(), 4);
        let Frame::CountMerge(c) = &replies[1] else { panic!("expected CountMerge") };
        // The peer owns the whole population here, so all 64 sampled
        // rows are counted for each of the 4 live attributes.
        let counts = c.clone().into_counts().unwrap();
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
        let resolve = |_: &str| Some(Arc::clone(&ds));
        assert_eq!(serve_connection(&mut pipe, &resolve, &stats), SessionEnd::Closed);
        let Frame::CountMerge(c) = &pipe.replies()[1] else { panic!("expected CountMerge") };
        let counts = c.clone().into_counts().unwrap();
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
        let resolve = |name: &str| (name == "t").then(|| Arc::clone(&ds));
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
        let resolve = |_: &str| Some(Arc::clone(&ds));
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
}
