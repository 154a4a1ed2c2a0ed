//! The coordinator side: a [`ShardTransport`] whose shards are remote
//! peer servers.
//!
//! [`RemoteShardSource::connect`] dials every peer (with an explicit
//! connect timeout) and exchanges `Hello`s, each naming its peer's frame.
//! Laid end to end **in `--peer` flag order**, the peers must tile one
//! stretch `[b0, b_end)` of one frame: the query's rows, row `r` being
//! frame row `b0 + r`. Any other fleet (v3 halves, halves out of order)
//! is refused at `Hello` in one line naming the peer and `swope split`;
//! [`probe`] runs the same check at startup. So a fleet answers with the
//! bytes of a single box holding the stretch: the union, when the
//! peers' halves cover it.
//!
//! Every wire interaction carries a read/write timeout, so a peer that
//! dies mid-query surfaces as a one-line [`SwopeError::Transport`]
//! ("peer addr: …") after at most the I/O timeout — never a hung
//! worker. The server maps that error to `503 Retry-After`.
//!
//! The coordinator owns the query's one sample, the one a single box
//! holding the stretch draws: a [`PagePrefix`] over the scope's members
//! in the stretch's [`PageLayout`], which the coordinator holds without
//! holding a row (its [`PeerPool`] keeps it between queries). Over the
//! whole stretch every page is whole; a row range lists the slots of its
//! rows in the pages it only partly covers, exactly as a single box's
//! range scope does. Each doubling's positions go out as they are drawn,
//! as positions of the frame (`PageLayout::in_table`): every peer gets
//! the runs and the listed positions that fall on the frame pages its
//! slice overlaps, so a page that straddles a cut goes to both of its
//! owners. No position is turned into a row here. The peer finds its own
//! positions among them ([`crate::peer`]). Each reply stays in its
//! session's [`FrameReader`] buffer as it arrived, CRC-checked; once
//! every peer has answered, one k-way merge ([`merge_replies`]) reads
//! them all in place, checks each against the request and the session's
//! `Hello` as it goes, and hands the summed counts straight to the
//! query's states. No reply is decoded into histograms first, and no
//! merged histogram is built.
//!
//! A row-range query is routed only to peers whose slices intersect
//! it — non-intersecting peers never hear about the query, and an empty
//! range (which the engine answers without counting, like a single box's
//! empty scope) reaches none past its `Hello`. Predicate scopes need a
//! row-set scan the wire protocol deliberately does not carry; the
//! server rejects them before reaching this module.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use swope_core::shard::{merge_replies, CountSink, ShardReply, Step};
use swope_core::{AttrMeta, CountRequest, ShardCounts, ShardTransport, SwopeError};
use swope_sampling::{PageLayout, PageMembers, PagePrefix, Positions};
use swope_store::page::PAGE_ROWS;

use crate::frame::{
    Frame, FrameError, FrameReader, FrameWriter, Hello, ResultFrame, PROTOCOL_VERSION,
};
use crate::stats::ClusterStats;

/// Explicit wire deadlines; both paths must be bounded for the dead-peer
/// 503 guarantee to hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerTimeouts {
    /// TCP connect deadline per peer.
    pub connect: Duration,
    /// Read/write deadline per frame (a slow iteration still exchanges
    /// one frame pair, so this bounds every wait).
    pub io: Duration,
}

impl Default for PeerTimeouts {
    fn default() -> Self {
        Self { connect: Duration::from_secs(2), io: Duration::from_secs(10) }
    }
}

/// A bounded pool of idle peer sessions, shared by every query a
/// coordinator runs.
///
/// Dialing a peer plus the `Hello` exchange costs a TCP handshake per
/// query per peer; under keep-alive HTTP clients issuing many queries
/// that dominates small fan-outs. The pool keeps up to `per_peer`
/// finished sessions alive per peer address. A checkout is *not* trusted
/// blindly: [`RemoteShardSource::connect`] health-checks the socket by
/// running the `Hello` exchange it needed anyway — a stale socket (peer
/// restarted, connection dropped while idle) fails that exchange at the
/// wire level and is silently replaced by one fresh dial, without
/// counting a peer error.
///
/// Streams are checked in only after a clean query end
/// ([`RemoteShardSource::finish`]); aborted or errored sessions drop
/// their sockets, because the peer side closes after any error.
///
/// The pool also keeps the layout of the stretch its fleet tiles from
/// one query to the next: a coordinator holds no dataset that would keep
/// it alive, and the position → row table a range's fringe pages walk
/// costs a pass over the stretch's rows to build.
pub struct PeerPool {
    per_peer: usize,
    idle: Mutex<HashMap<String, Vec<TcpStream>>>,
    layout: Mutex<Option<Arc<PageLayout>>>,
}

impl PeerPool {
    /// Creates a pool retaining at most `per_peer` idle sessions per
    /// peer address (floored at 1).
    pub fn new(per_peer: usize) -> Self {
        Self {
            per_peer: per_peer.max(1),
            idle: Mutex::new(HashMap::new()),
            layout: Mutex::new(None),
        }
    }

    /// `PageLayout::slice(union_rows, base, rows)`: the one kept from the
    /// last query when the fleet still tiles that stretch.
    fn union_layout(&self, (union_rows, base, rows): (usize, usize, usize)) -> Arc<PageLayout> {
        let mut kept = self.layout.lock().expect("peer pool lock");
        match &*kept {
            Some(layout) if (layout.frame(), layout.num_rows()) == ((union_rows, base), rows) => {
                Arc::clone(layout)
            }
            _ => Arc::clone(kept.insert(PageLayout::slice(union_rows, base, rows))),
        }
    }

    /// Takes an idle session for `addr`, newest first, if any.
    pub fn checkout(&self, addr: &str) -> Option<TcpStream> {
        self.idle.lock().expect("peer pool lock").get_mut(addr)?.pop()
    }

    /// Returns a healthy session to the pool; beyond the per-peer cap
    /// the stream is simply dropped (closing it).
    pub fn check_in(&self, addr: &str, stream: TcpStream) {
        let mut idle = self.idle.lock().expect("peer pool lock");
        let slot = idle.entry(addr.to_owned()).or_default();
        if slot.len() < self.per_peer {
            slot.push(stream);
        }
    }

    /// Idle sessions currently pooled, across all peers.
    pub fn idle_count(&self) -> usize {
        self.idle.lock().expect("peer pool lock").values().map(Vec::len).sum()
    }
}

impl std::fmt::Debug for PeerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerPool")
            .field("per_peer", &self.per_peer)
            .field("idle", &self.idle_count())
            .finish()
    }
}

/// The stretch of one frame a fleet's peers tile, laid end to end in
/// `--peer` order, as their `Hello`s are read.
#[derive(Debug, Default)]
struct Tiling {
    /// The frame's rows, once a peer holding rows has named it.
    union_rows: Option<u64>,
    /// The frame rows the peers placed so far hold.
    rows: Range<u64>,
}

impl Tiling {
    /// Places the rows `addr`'s `hello` names after the peers placed so
    /// far and returns them, as rows of the frame; or refuses, in one
    /// line, a peer whose rows do not go on with the stretch.
    fn place(&mut self, addr: &str, hello: &Hello) -> Result<Range<u64>, SwopeError> {
        let Some((union_rows, base)) = hello.frame() else {
            return Err(peer_err(addr, "its Hello names a frame past 2^64 rows"));
        };
        let rows = base..base + hello.num_rows;
        if rows.is_empty() {
            return Ok(self.rows.end..self.rows.end);
        }
        match self.union_rows {
            None => (self.union_rows, self.rows) = (Some(union_rows), rows.clone()),
            Some(n) if n == union_rows && self.rows.end == base => self.rows.end = rows.end,
            Some(n) => {
                let (a, b, end) = (self.rows.start, self.rows.end, rows.end);
                let reason = format!("holds rows {base}..{end} of a {union_rows}-row table, which do not follow rows {a}..{b} of the {n}-row table before it; `swope split` the union again and list its halves in order");
                return Err(peer_err(addr, reason));
            }
        }
        Ok(rows)
    }
}

/// `addr`'s reply to a `Hello`, if it is one in this build's version.
fn hello_reply(addr: &str, reply: Frame) -> Result<Hello, SwopeError> {
    match reply {
        Frame::Hello(h) if h.version != PROTOCOL_VERSION => {
            Err(peer_err(addr, format!("speaks protocol v{}", h.version)))
        }
        Frame::Hello(h) => Ok(h),
        f => Err(peer_err(addr, format!("expected Hello, got {}", f.name()))),
    }
}

/// The `Hello` a coordinator opens a session on `dataset` with.
fn hello_request(dataset: &str) -> Frame {
    Frame::Hello(Hello {
        version: PROTOCOL_VERSION,
        dataset: dataset.to_owned(),
        ..Hello::default()
    })
}

struct PeerConn {
    addr: String,
    stream: TcpStream,
    /// This peer's rows of its frame.
    slice: Range<u64>,
    /// The frame pages the slice overlaps.
    pages: Range<u32>,
    /// The session's frame buffers, reused for every exchange.
    reader: FrameReader,
    writer: FrameWriter,
}

/// A peer's last reply, as its reader holds it.
impl ShardReply for PeerConn {
    type Error = FrameError;

    fn step(&mut self, step: Step) -> Result<(), FrameError> {
        self.reader.step(step)
    }

    #[inline]
    fn head(&self) -> Option<(u64, u64)> {
        self.reader.head()
    }

    #[inline]
    fn next(&mut self) -> Result<(), FrameError> {
        self.reader.next()
    }
}

impl PeerConn {
    fn new(addr: &str, stream: TcpStream) -> Self {
        Self {
            addr: addr.to_owned(),
            stream,
            slice: 0..0,
            pages: 0..0,
            reader: FrameReader::new(),
            writer: FrameWriter::new(),
        }
    }
}

/// One-line, addr-tagged transport error (the coordinator's whole error
/// vocabulary: every failure names the peer and the reason).
fn peer_err(addr: &str, reason: impl std::fmt::Display) -> SwopeError {
    SwopeError::Transport(format!("peer {addr}: {reason}"))
}

fn dial(
    addr: &str,
    timeouts: &PeerTimeouts,
    stats: &ClusterStats,
) -> Result<TcpStream, SwopeError> {
    dial_inner(addr, timeouts)
        .map(|stream| {
            stats.record_conn_opened();
            stream
        })
        .map_err(|e| {
            stats.record_peer_error();
            e
        })
}

/// Opens one peer session and runs the `Hello` exchange, preferring a
/// pooled idle socket. A pooled socket that fails the exchange at the
/// wire level went stale while idle (peer restart, dropped connection);
/// it is replaced by exactly one fresh dial with no peer error counted.
/// An `Error` frame in reply is a live peer objecting — a real error
/// either way, so it propagates.
fn open_session(
    addr: &str,
    hello: &Frame,
    timeouts: &PeerTimeouts,
    stats: &ClusterStats,
    pool: Option<&PeerPool>,
) -> Result<(PeerConn, Frame), SwopeError> {
    if let Some(stream) = pool.and_then(|p| p.checkout(addr)) {
        let mut peer = PeerConn::new(addr, stream);
        if let Ok(n) = peer.writer.write(&mut peer.stream, hello) {
            stats.record_sent(n);
            if let Ok((frame, n)) = peer.reader.read(&mut peer.stream) {
                stats.record_received(n);
                if let Frame::Error(e) = frame {
                    stats.record_peer_error();
                    return Err(peer_err(addr, e.message));
                }
                stats.record_conn_reuse();
                return Ok((peer, frame));
            }
        }
    }
    let mut peer = PeerConn::new(addr, dial(addr, timeouts, stats)?);
    send(&mut peer, stats, hello)?;
    let frame = recv(&mut peer, stats)?;
    Ok((peer, frame))
}

fn dial_inner(addr: &str, timeouts: &PeerTimeouts) -> Result<TcpStream, SwopeError> {
    let mut last = None;
    let resolved = addr.to_socket_addrs().map_err(|e| peer_err(addr, e))?;
    for sock in resolved {
        match TcpStream::connect_timeout(&sock, timeouts.connect) {
            Ok(stream) => {
                stream.set_read_timeout(Some(timeouts.io)).map_err(|e| peer_err(addr, e))?;
                stream.set_write_timeout(Some(timeouts.io)).map_err(|e| peer_err(addr, e))?;
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(match last {
        Some(e) => peer_err(addr, format!("connect failed: {e}")),
        None => peer_err(addr, "address resolved to nothing"),
    })
}

fn send(peer: &mut PeerConn, stats: &ClusterStats, frame: &Frame) -> Result<(), SwopeError> {
    match peer.writer.write(&mut peer.stream, frame) {
        Ok(n) => {
            stats.record_sent(n);
            Ok(())
        }
        Err(e) => {
            stats.record_peer_error();
            Err(peer_err(&peer.addr, e))
        }
    }
}

fn recv(peer: &mut PeerConn, stats: &ClusterStats) -> Result<Frame, SwopeError> {
    match peer.reader.read(&mut peer.stream) {
        Ok((frame, n)) => {
            stats.record_received(n);
            if let Frame::Error(e) = frame {
                stats.record_peer_error();
                return Err(peer_err(&peer.addr, e.message));
            }
            Ok(frame)
        }
        Err(e) => {
            stats.record_peer_error();
            Err(peer_err(&peer.addr, e))
        }
    }
}

/// Receives one peer's reply to a count request: a `CountMerge` stays in
/// the peer's reader, CRC-checked and unparsed, for [`merge_replies`] to
/// read where it lies; anything else is this peer's one-line error. With
/// `may_decline`, a `CountMerge` over no attributes is a decline
/// (`Ok(false)`).
fn recv_reply(
    peer: &mut PeerConn,
    stats: &ClusterStats,
    may_decline: bool,
) -> Result<bool, SwopeError> {
    let read = peer.reader.read_envelope(&mut peer.stream).map_err(|e| e.to_string());
    let result = read.and_then(|envelope| {
        stats.record_received(envelope.wire_len());
        if may_decline && envelope.is_decline() {
            return Ok(false);
        }
        if envelope.is_count_merge() {
            stats.record_count_merge(envelope.wire_len());
            return Ok(true);
        }
        Err(match envelope.decode() {
            Ok(Frame::Error(e)) => e.message,
            Ok(f) => format!("expected CountMerge, got {}", f.name()),
            Err(e) => e.to_string(),
        })
    });
    result.map_err(|reason| fail(peer, stats, reason))
}

/// Merges the replies every peer in `peers` holds, of the shape a
/// request with a target of support `target` (if any) and live attributes
/// of supports `live` asks for, into `sink`: a reply that breaks a rule
/// is its peer's one-line error, never a count past the supports the
/// session's `Hello` announced.
fn merge_peers<S: CountSink>(
    peers: &mut [PeerConn],
    stats: &ClusterStats,
    target: Option<u32>,
    live: impl ExactSizeIterator<Item = u32>,
    sink: &mut S,
) -> Result<(), SwopeError> {
    let merged = merge_replies(peers, target, live, sink);
    stats.record_entries(peers.iter().map(|peer| peer.reader.entries()).sum());
    merged.map_err(|(i, e)| fail(&peers[i], stats, e))
}

/// The positions of `delta` on union pages `pages`: the runs and listed
/// positions a peer whose slice overlaps those pages counts from. Both
/// come in page order, so each is one stretch.
fn window<'a>(delta: Positions<'a>, pages: &Range<u32>) -> Positions<'a> {
    let page = |position: u32| position / PAGE_ROWS as u32;
    let runs = |bound| delta.runs.partition_point(|run| page(run.start) < bound);
    let list = |bound| delta.list.partition_point(|&position| page(position) < bound);
    Positions {
        runs: &delta.runs[runs(pages.start)..runs(pages.end)],
        list: &delta.list[list(pages.start)..list(pages.end)],
    }
}

/// Counts a peer error and words it as this peer's one-line error.
fn fail(peer: &PeerConn, stats: &ClusterStats, reason: impl std::fmt::Display) -> SwopeError {
    stats.record_peer_error();
    peer_err(&peer.addr, reason)
}

/// What a startup probe learns about a peer fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterProbe {
    /// Peers that answered, in configuration order.
    pub peers: usize,
    /// Rows of the stretch the fleet's (default) datasets tile.
    pub union_rows: u64,
}

/// Dials every peer once and checks that their default datasets tile one
/// stretch of one frame, as a query's `connect` does — the server's
/// startup validation and gauge source. Any peer that is unreachable,
/// speaks another protocol version or does not tile the stretch is an
/// error, in the words a query would use: a coordinator should not come
/// up pointing at a fleet that will answer every query with a 503.
pub fn probe(
    addrs: &[String],
    timeouts: &PeerTimeouts,
    stats: &ClusterStats,
) -> Result<ClusterProbe, SwopeError> {
    let mut tiling = Tiling::default();
    for addr in addrs {
        let mut peer = PeerConn::new(addr, dial(addr, timeouts, stats)?);
        send(&mut peer, stats, &hello_request(""))?;
        tiling.place(addr, &hello_reply(addr, recv(&mut peer, stats)?)?)?;
    }
    Ok(ClusterProbe { peers: addrs.len(), union_rows: tiling.rows.end - tiling.rows.start })
}

/// A wire-backed [`ShardTransport`]: one connected peer per shard.
///
/// Lives for one query. [`RemoteShardSource::finish`] after a query that
/// answered tells every participant it is over, so their sessions await
/// the next query from the pool; dropping it unfinished — a failed query
/// may leave a reply unread on any socket — closes them.
pub struct RemoteShardSource {
    peers: Vec<PeerConn>,
    meta: Vec<AttrMeta>,
    /// The layout of the stretch the peers tile, its rows, and the
    /// query's sample over the population.
    layout: Arc<PageLayout>,
    rows: u64,
    sampler: PagePrefix,
    /// A doubling's positions in the frame, when they are not as drawn.
    runs: Vec<Range<u32>>,
    list: Vec<u32>,
    sampled: u64,
    finished: bool,
    stats: Arc<ClusterStats>,
    pool: Option<Arc<PeerPool>>,
}

impl RemoteShardSource {
    /// Connects to `addrs`, opens `dataset`, and pins the query's
    /// sampling frame (`seed`, optional row-range `scope` in the rows of
    /// the stretch the peers tile). With a `pool`, idle sessions from earlier queries
    /// are reused after a `Hello` health check (and checked back in on
    /// [`RemoteShardSource::finish`]); without one, every query dials
    /// fresh.
    ///
    /// # Errors
    ///
    /// [`SwopeError::Transport`] when a peer is unreachable, times out,
    /// disagrees on schema, holds more rows than a `u32` row index names,
    /// does not go on with the stretch the peers before it tile, or
    /// reports an error, and when the population holds more rows than one
    /// sample can index (`u32::MAX`), or the frame more than a `u32`
    /// position names;
    /// [`SwopeError::InvalidScope`] when `scope` starts past its (clamped)
    /// end; [`SwopeError::EmptyDataset`] when the fleet holds no rows.
    pub fn connect(
        addrs: &[String],
        dataset: &str,
        seed: u64,
        scope: Option<Range<u64>>,
        timeouts: &PeerTimeouts,
        stats: Arc<ClusterStats>,
        pool: Option<Arc<PeerPool>>,
    ) -> Result<Self, SwopeError> {
        if addrs.is_empty() {
            return Err(SwopeError::Transport("no peers configured".into()));
        }
        stats.record_query();
        let hello = hello_request(dataset);
        let mut peers = Vec::with_capacity(addrs.len());
        let mut meta: Option<Vec<AttrMeta>> = None;
        let mut tiling = Tiling::default();
        for addr in addrs {
            let (mut peer, reply) = open_session(addr, &hello, timeouts, &stats, pool.as_deref())?;
            let reply = hello_reply(addr, reply)?;
            match &meta {
                None => meta = Some(reply.attrs.clone()),
                Some(m) if *m != reply.attrs => {
                    return Err(peer_err(
                        addr,
                        "schema disagrees with the first peer (shards must share names and supports)",
                    ));
                }
                Some(_) => {}
            }
            if reply.num_rows > u64::from(u32::MAX) {
                let reason =
                    format!("holds {} rows, more than a u32 row index names", reply.num_rows);
                return Err(peer_err(addr, reason));
            }
            peer.slice = tiling.place(addr, &reply)?;
            let page_rows = PAGE_ROWS as u64;
            peer.pages =
                (peer.slice.start / page_rows) as u32..peer.slice.end.div_ceil(page_rows) as u32;
            peers.push(peer);
        }
        let (union_rows, stretch) = (tiling.union_rows.unwrap_or(0), tiling.rows);
        let rows = stretch.end - stretch.start;
        if rows == 0 {
            return Err(SwopeError::EmptyDataset);
        }
        // The single-box scope rule, in its words: the end clamps to the
        // stretch's row count and a start past it is an error. An empty
        // range is a population of zero rows, which intersects no peer.
        let scope = scope.unwrap_or(0..rows);
        let end = scope.end.min(rows);
        if scope.start > end {
            return Err(SwopeError::InvalidScope(format!(
                "row range starts at {} but ends at {end}",
                scope.start
            )));
        }
        let scope = scope.start..end;
        let population = scope.end - scope.start;
        if population > u64::from(u32::MAX) {
            return Err(SwopeError::Transport(format!(
                "a population of {population} rows exceeds the {} rows one sample can index",
                u32::MAX
            )));
        }
        if union_rows > u64::from(u32::MAX) {
            return Err(SwopeError::Transport(format!(
                "a frame of {union_rows} rows holds more positions than a u32 names"
            )));
        }
        // Scoped queries involve only the peers whose slices intersect
        // the range; the rest, and peers of no rows, never hear about this
        // query. Their sessions are healthy (Hello only), so they go
        // straight back to the pool instead of closing.
        let in_frame = scope.start + stretch.start..scope.end + stretch.start;
        let mut kept = Vec::with_capacity(peers.len());
        for peer in peers {
            let (slice, range) = (&peer.slice, &in_frame);
            if !slice.is_empty() && slice.start < range.end && slice.end > range.start {
                kept.push(peer);
            } else if let Some(pool) = &pool {
                pool.check_in(&peer.addr, peer.stream);
            }
        }
        let peers = kept;
        let frame = (union_rows as usize, stretch.start as usize, rows as usize);
        let layout = match &pool {
            Some(pool) => pool.union_layout(frame),
            None => PageLayout::slice(frame.0, frame.1, frame.2),
        };
        let members = PageMembers::range(&layout, scope.start as usize..scope.end as usize);
        Ok(Self {
            peers,
            meta: meta.unwrap_or_default(),
            layout,
            rows,
            sampler: PagePrefix::new(members, seed),
            runs: Vec::new(),
            list: Vec::new(),
            sampled: 0,
            finished: false,
            stats,
            pool,
        })
    }

    /// Participating peers (after scope routing).
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Tells every participant the query is over (best effort) and stops
    /// further use. Call it once the query has answered, when every reply
    /// has been read: sessions that take the goodbye cleanly are returned
    /// to the pool (when pooling) for the next query; anything that failed
    /// it is closed.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let frame = Frame::Result(ResultFrame { sampled: self.sampled });
        for mut peer in self.peers.drain(..) {
            let clean = send(&mut peer, &self.stats, &frame).is_ok() && peer.stream.flush().is_ok();
            if clean {
                if let Some(pool) = &self.pool {
                    pool.check_in(&peer.addr, peer.stream);
                }
            }
        }
    }
}

impl std::fmt::Debug for RemoteShardSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteShardSource")
            .field("peers", &self.peers.len())
            .field("population", &self.sampler.num_rows())
            .field("rows", &self.rows)
            .field("finished", &self.finished)
            .finish()
    }
}

impl ShardTransport for RemoteShardSource {
    fn num_rows(&self) -> usize {
        self.sampler.num_rows()
    }

    fn attrs(&self) -> &[AttrMeta] {
        &self.meta
    }

    fn num_shards(&self) -> usize {
        self.peers.len()
    }

    /// Sends every participant its windows of the delta, then reads
    /// every reply into its session's reader: peers count concurrently
    /// while the replies are read in order.
    fn count(&mut self, m_target: usize, req: &CountRequest) -> Result<(), SwopeError> {
        if self.finished {
            return Err(SwopeError::Transport("query already finished".into()));
        }
        let Self { peers, sampler, stats, layout, runs, list, .. } = self;
        let delta = layout.in_table(sampler.grow_to(m_target), runs, list);
        for peer in peers.iter_mut() {
            let positions = window(delta, &peer.pages);
            match peer.writer.write_grow_delta(&mut peer.stream, m_target as u64, req, positions) {
                Ok(n) => {
                    stats.record_sent(n);
                    stats.record_grow_delta(n);
                }
                Err(e) => return Err(fail(peer, stats, e)),
            }
        }
        for peer in peers.iter_mut() {
            recv_reply(peer, stats, false)?;
        }
        self.sampled = m_target.min(self.sampler.num_rows()) as u64;
        Ok(())
    }

    fn merge<S: CountSink>(&mut self, req: &CountRequest, sink: &mut S) -> Result<(), SwopeError> {
        let support = |a: usize| self.meta[a].support;
        let live = req.live.iter().map(|&a| support(a));
        merge_peers(&mut self.peers, &self.stats, req.target.map(support), live, sink)?;
        self.stats.record_merge();
        Ok(())
    }

    /// Asks every peer for its sketch totals — only when the query's
    /// population is the whole stretch, whose marginals they sum to — and
    /// adds them as integers. One decline and the query samples its
    /// marginals; a reply that does not add up to the rows the peer's
    /// `Hello` announced, attribute by attribute, is that peer's error.
    fn marginals(&mut self) -> Result<Option<Vec<Vec<u64>>>, SwopeError> {
        if self.finished {
            return Err(SwopeError::Transport("query already finished".into()));
        }
        if self.sampler.num_rows() as u64 != self.rows {
            return Ok(None);
        }
        for peer in &mut self.peers {
            send(peer, &self.stats, &Frame::Marginals)?;
        }
        let mut sum: Vec<Vec<u64>> =
            self.meta.iter().map(|m| vec![0; m.support as usize]).collect();
        let mut every_peer_answered = true;
        for peer in &mut self.peers {
            if !recv_reply(peer, &self.stats, true)? {
                every_peer_answered = false;
                continue;
            }
            let supports = || self.meta.iter().map(|m| m.support);
            let mut counts = ShardCounts::empty(None, supports());
            let one = std::slice::from_mut(peer);
            merge_peers(one, &self.stats, None, supports(), &mut counts)?;
            let rows = peer.slice.end - peer.slice.start;
            for (attr, (total, cs)) in sum.iter_mut().zip(&mut counts.attrs).enumerate() {
                if cs.total() != rows {
                    let reason = format!(
                        "marginals of attribute {attr} add up to {} rows, not the {rows} its Hello announced",
                        cs.total()
                    );
                    return Err(fail(peer, &self.stats, reason));
                }
                for (code, k) in cs.canonical_entries() {
                    total[code as usize] += k;
                }
            }
        }
        Ok(every_peer_answered.then_some(sum))
    }
}
