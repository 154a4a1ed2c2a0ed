//! The coordinator side: a [`ShardTransport`] whose shards are remote
//! peer servers.
//!
//! [`RemoteShardSource::connect`] dials every peer (with an explicit
//! connect timeout), exchanges `Hello`s, and lays the peers' row slices
//! end to end **in `--peer` flag order** to form the union population:
//! peer `i` owns union rows `[Σ n_0..i, Σ n_0..i+1)`. That ordering is
//! part of the query's identity — the same peers in the same order give
//! the same union, and therefore the same bytes as a single box holding
//! the concatenated dataset.
//!
//! Every wire interaction carries a read/write timeout, so a peer that
//! dies mid-query surfaces as a one-line [`SwopeError::Transport`]
//! ("peer addr: …") after at most the I/O timeout — never a hung
//! worker. The server maps that error to `503 Retry-After`.
//!
//! The coordinator owns the query's one sample, the one a single box
//! holding the union draws: a [`PagePrefix`] over the scope's members in
//! the union's [`PageLayout`], which the coordinator holds without
//! holding a row (its [`PeerPool`] keeps it between queries). Over the
//! whole union every page is whole; a row range lists the slots of its
//! rows in the pages it only partly covers, exactly as a single box's
//! range scope does. Each doubling's positions go out as they are drawn:
//! every peer gets the runs and the listed positions that fall on the
//! union pages its slice overlaps, so a page that straddles a cut goes to
//! both of its owners, with the union's row count and the slice's first
//! union row. No position is turned into a row here. The peer maps them
//! to its own positions through a table of the pages it overlaps
//! ([`crate::peer`]). Each reply stays in its session's [`FrameReader`]
//! buffer as it arrived, CRC-checked; once every peer has answered, one
//! k-way merge ([`merge_replies`]) reads them all in place, checks each
//! against the request and the session's `Hello` as it goes, and hands
//! the summed counts straight to the query's states. No reply is decoded
//! into histograms first, and no merged histogram is built.
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
/// The pool also keeps the union's [`PageLayout`] from one query to the
/// next: a coordinator holds no dataset that would keep it alive, and
/// the position → row table a range's fringe pages walk costs a pass over
/// the union's rows to build.
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

    /// The layout of a union of `rows` rows: the one kept from the last
    /// query when the union has not changed size since.
    fn union_layout(&self, rows: usize) -> Arc<PageLayout> {
        let mut kept = self.layout.lock().expect("peer pool lock");
        match &*kept {
            Some(layout) if layout.num_rows() == rows => Arc::clone(layout),
            _ => Arc::clone(kept.insert(PageLayout::of(rows))),
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

struct PeerConn {
    addr: String,
    stream: TcpStream,
    /// This peer's slice of the union, in union row coordinates.
    slice: Range<u64>,
    /// The union pages the slice overlaps.
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
    /// Total rows across the fleet's (default) datasets.
    pub union_rows: u64,
}

/// Dials every peer once and sums their default datasets' rows — the
/// server's startup validation and gauge source. Any peer that is
/// unreachable, or speaks another protocol version, is an error: a
/// coordinator should not come up pointing at a fleet that will answer
/// every query with a 503.
pub fn probe(
    addrs: &[String],
    timeouts: &PeerTimeouts,
    stats: &ClusterStats,
) -> Result<ClusterProbe, SwopeError> {
    let mut union_rows = 0u64;
    for addr in addrs {
        let mut peer = PeerConn::new(addr, dial(addr, timeouts, stats)?);
        send(
            &mut peer,
            stats,
            &Frame::Hello(Hello {
                version: PROTOCOL_VERSION,
                dataset: String::new(),
                num_rows: 0,
                attrs: Vec::new(),
            }),
        )?;
        match recv(&mut peer, stats)? {
            Frame::Hello(h) if h.version != PROTOCOL_VERSION => {
                return Err(peer_err(addr, format!("speaks protocol v{}", h.version)));
            }
            Frame::Hello(h) => union_rows += h.num_rows,
            f => return Err(peer_err(addr, format!("expected Hello, got {}", f.name()))),
        }
    }
    Ok(ClusterProbe { peers: addrs.len(), union_rows })
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
    /// Rows in the union, and the query's sample over the population.
    union_rows: u64,
    sampler: PagePrefix,
    sampled: u64,
    finished: bool,
    stats: Arc<ClusterStats>,
    pool: Option<Arc<PeerPool>>,
}

impl RemoteShardSource {
    /// Connects to `addrs`, opens `dataset`, and pins the query's
    /// sampling frame (`seed`, optional row-range `scope` in union
    /// coordinates). With a `pool`, idle sessions from earlier queries
    /// are reused after a `Hello` health check (and checked back in on
    /// [`RemoteShardSource::finish`]); without one, every query dials
    /// fresh.
    ///
    /// # Errors
    ///
    /// [`SwopeError::Transport`] when a peer is unreachable, times out,
    /// disagrees on schema, holds more rows than a `u32` row index names,
    /// or reports an error, and when the population holds more rows than
    /// one sample can index (`u32::MAX`);
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
        let hello = Frame::Hello(Hello {
            version: PROTOCOL_VERSION,
            dataset: dataset.to_owned(),
            num_rows: 0,
            attrs: Vec::new(),
        });
        let mut peers = Vec::with_capacity(addrs.len());
        let mut meta: Option<Vec<AttrMeta>> = None;
        let mut offset = 0u64;
        for addr in addrs {
            let (mut peer, reply) = open_session(addr, &hello, timeouts, &stats, pool.as_deref())?;
            let reply = match reply {
                Frame::Hello(h) => h,
                f => return Err(peer_err(addr, format!("expected Hello, got {}", f.name()))),
            };
            if reply.version != PROTOCOL_VERSION {
                return Err(peer_err(addr, format!("speaks protocol v{}", reply.version)));
            }
            match &meta {
                None => meta = Some(reply.attrs),
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
            peer.slice = offset..offset + reply.num_rows;
            let page_rows = PAGE_ROWS as u64;
            peer.pages = (offset / page_rows) as u32..peer.slice.end.div_ceil(page_rows) as u32;
            offset += reply.num_rows;
            peers.push(peer);
        }
        let union_rows = offset;
        if union_rows == 0 {
            return Err(SwopeError::EmptyDataset);
        }
        // The single-box scope rule, in its words: the end clamps to the
        // union's row count and a start past it is an error. An empty
        // range is a population of zero rows, which intersects no peer.
        let scope = scope.unwrap_or(0..union_rows);
        let end = scope.end.min(union_rows);
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
        // Scoped queries involve only the peers whose slices intersect
        // the range; the rest never hear about this query. Their sessions
        // are healthy (Hello only), so they go straight back to the pool
        // instead of closing.
        let mut kept = Vec::with_capacity(peers.len());
        for peer in peers {
            if peer.slice.start < scope.end && peer.slice.end > scope.start {
                kept.push(peer);
            } else if let Some(pool) = &pool {
                pool.check_in(&peer.addr, peer.stream);
            }
        }
        let peers = kept;
        let rows = union_rows as usize;
        let layout = pool.as_ref().map_or_else(|| PageLayout::of(rows), |p| p.union_layout(rows));
        let members = PageMembers::range(&layout, scope.start as usize..scope.end as usize);
        Ok(Self {
            peers,
            meta: meta.unwrap_or_default(),
            union_rows,
            sampler: PagePrefix::new(members, seed),
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
            .field("union_rows", &self.union_rows)
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
        let Self { peers, sampler, stats, union_rows, .. } = self;
        let delta = sampler.grow_to(m_target);
        for peer in peers.iter_mut() {
            let positions = window(delta, &peer.pages);
            let frame = (*union_rows, peer.slice.start);
            match peer.writer.write_grow_delta(
                &mut peer.stream,
                m_target as u64,
                req,
                frame,
                positions,
            ) {
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
    /// population is the whole union, whose marginals they sum to — and
    /// adds them as integers. One decline and the query samples its
    /// marginals; a reply that does not add up to the rows the peer's
    /// `Hello` announced, attribute by attribute, is that peer's error.
    fn marginals(&mut self) -> Result<Option<Vec<Vec<u64>>>, SwopeError> {
        if self.finished {
            return Err(SwopeError::Transport("query already finished".into()));
        }
        if self.sampler.num_rows() as u64 != self.union_rows {
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
