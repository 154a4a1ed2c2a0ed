//! Wire-level integration over real loopback TCP: a coordinator driving
//! peer shard servers must answer every query shape byte-for-byte like
//! the direct library call on the union dataset, scoped queries must
//! route only to intersecting peers, and dead or hung peers must turn
//! into one-line transport errors within the configured timeout.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{all_shapes, comparators_against, plain, scoped, sketch_of};
use swope_cluster::coordinator::{probe, PeerPool, PeerTimeouts, RemoteShardSource};
use swope_cluster::frame::{
    read_frame, write_frame, CountMergeFrame, ErrorFrame, Frame, Hello, PROTOCOL_VERSION,
};
use swope_cluster::peer::{serve_connection, PeerDataset};
use swope_cluster::stats::ClusterStats;
use swope_columnar::{Dataset, DatasetSketch};
use swope_core::shard::{dataset_meta, Counter};
use swope_core::{
    run_sharded, sketch_marginals, Answer, CountRequest, CountState, Executor, LocalShardSource,
    NoopObserver, Rule, Scope, Shape, ShardCounts, ShardPlan, ShardTransport, SwopeConfig,
    SwopeError,
};
use swope_sampling::{PageMembers, PagePrefix};
use swope_store::page::PAGE_ROWS;

fn union_dataset() -> Dataset {
    swope_datagen::generate(&swope_datagen::corpus::tiny(4_000, 6), 0xC1057E4)
}

fn slice_rows(ds: &Dataset, range: std::ops::Range<usize>) -> Dataset {
    let rows: Vec<usize> = range.collect();
    ds.take_rows(&rows)
}

/// Spawns a peer serving `ds` without a sketch on a fresh loopback port,
/// one session thread per connection: it declines every `Marginals`.
fn spawn_peer(ds: Dataset) -> String {
    spawn_peer_with(ds, None)
}

/// [`spawn_peer`] with `sketch` answering `Marginals`. The listener
/// thread leaks (it blocks in accept) — harmless for a test process.
fn spawn_peer_with(ds: Dataset, sketch: Option<DatasetSketch>) -> String {
    let served = PeerDataset { dataset: Arc::new(ds), sketch: sketch.map(Arc::new) };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let served = served.clone();
            std::thread::spawn(move || {
                let stats = ClusterStats::new();
                let resolve =
                    move |name: &str| (name.is_empty() || name == "t").then(|| served.clone());
                serve_connection(&mut stream, &resolve, &stats);
            });
        }
    });
    addr
}

fn cfg(seed: u64) -> SwopeConfig {
    SwopeConfig::with_epsilon(0.15).with_seed(seed)
}

fn connect(
    addrs: &[String],
    config: &SwopeConfig,
    scope: Option<std::ops::Range<u64>>,
) -> RemoteShardSource {
    RemoteShardSource::connect(
        addrs,
        "t",
        config.seed,
        scope,
        &PeerTimeouts::default(),
        Arc::new(ClusterStats::new()),
        None,
    )
    .unwrap()
}

/// `shape` over the wire through `src`, unobserved.
fn wire(
    src: &mut RemoteShardSource,
    shape: &Shape,
    config: &SwopeConfig,
) -> Result<Answer, SwopeError> {
    run_sharded(src, shape, config, &mut NoopObserver, &Executor::sequential())
}

/// Every query shape, over 1, 2, and 3 peers holding uneven slices of
/// the union: the coordinator's answer must equal the direct library
/// call on the union dataset — including stats, so `assert_eq!` on the
/// whole result checks every byte that would be serialized.
#[test]
fn wire_answers_match_direct_library_calls() {
    let union = union_dataset();
    let n = union.num_rows();
    let splits: Vec<Vec<Dataset>> = vec![
        vec![slice_rows(&union, 0..n)],
        vec![slice_rows(&union, 0..n / 3), slice_rows(&union, n / 3..n)],
        vec![
            slice_rows(&union, 0..n / 4),
            slice_rows(&union, n / 4..n / 2),
            slice_rows(&union, n / 2..n),
        ],
    ];
    for slices in splits {
        let peers = slices.len();
        let addrs: Vec<String> = slices.into_iter().map(spawn_peer).collect();
        let config = cfg(0x5EED);
        for shape in all_shapes() {
            let mut src = connect(&addrs, &config, None);
            assert_eq!(src.num_shards(), peers);
            assert_eq!(
                wire(&mut src, &shape, &config).unwrap(),
                plain(&union, &shape, &config),
                "{shape:?} over {peers} peer(s)"
            );
        }
    }
}

/// A row-range scope over the wire equals the direct call over the same
/// range of the union without a sketch (the cluster path samples the
/// scoped population directly, like the core's sketchless physical
/// path), and non-intersecting peers are never involved.
#[test]
fn scoped_queries_route_to_intersecting_peers_only() {
    let union = union_dataset();
    let n = union.num_rows();
    let addrs =
        vec![spawn_peer(slice_rows(&union, 0..n / 2)), spawn_peer(slice_rows(&union, n / 2..n))];
    let config = cfg(0xA5C0);
    let [top_k, mi_top_k] = [all_shapes()[0], Shape::mi(1, Rule::TopK { k: 2 })];

    // Scope spanning both peers.
    let (a, b) = (n / 4, 3 * n / 4);
    let mut src = connect(&addrs, &config, Some(a as u64..b as u64));
    assert_eq!(src.peer_count(), 2);
    let direct = scoped(&union, &top_k, &Scope::range(a, b), None, &config);
    assert_eq!(wire(&mut src, &top_k, &config).unwrap(), direct);
    drop(src);

    // Scope entirely inside the second peer: the first is not consulted.
    let (a, b) = (n / 2 + 10, n - 5);
    let mut src = connect(&addrs, &config, Some(a as u64..b as u64));
    assert_eq!(src.peer_count(), 1);
    let direct = scoped(&union, &mi_top_k, &Scope::range(a, b), None, &config);
    assert_eq!(wire(&mut src, &mi_top_k, &config).unwrap(), direct);
    drop(src);

    // The scope end clamps to the union (the single-box rule), so a
    // range starting at the union's end is empty: no peer takes part,
    // and the query answers like a single box's empty scope.
    let mut src = connect(&addrs, &config, Some((n as u64)..(n as u64) + 10));
    assert_eq!((src.peer_count(), src.num_rows()), (0, 0));
    let empty = wire(&mut src, &top_k, &config).unwrap();
    assert_eq!((empty.scores.len(), empty.stats.iterations), (3, 0));
    assert!(empty.scores.iter().all(|s| s.estimate == 0.0 && s.upper == 0.0));
    drop(src);

    // A range starting past the union is rejected up front.
    let err = RemoteShardSource::connect(
        &addrs,
        "t",
        1,
        Some((n as u64 + 1)..(n as u64) + 10),
        &PeerTimeouts::default(),
        Arc::new(ClusterStats::new()),
        None,
    )
    .unwrap_err();
    assert!(matches!(err, SwopeError::InvalidScope(_)), "{err}");
}

/// Sequential queries through a [`PeerPool`] reuse the same peer
/// sessions: the first round dials every peer, later rounds re-handshake
/// over the pooled sockets — counted by `conn_reuses` — and the answers
/// stay byte-identical to the direct library call.
#[test]
fn pooled_sessions_are_reused_across_queries() {
    let union = union_dataset();
    let n = union.num_rows();
    let addrs =
        vec![spawn_peer(slice_rows(&union, 0..n / 2)), spawn_peer(slice_rows(&union, n / 2..n))];
    let config = cfg(0x9001);
    let stats = Arc::new(ClusterStats::new());
    let pool = Arc::new(PeerPool::new(2));
    let shape = all_shapes()[0];
    let direct = plain(&union, &shape, &config);
    for round in 0..3 {
        let mut src = RemoteShardSource::connect(
            &addrs,
            "t",
            config.seed,
            None,
            &PeerTimeouts::default(),
            Arc::clone(&stats),
            Some(Arc::clone(&pool)),
        )
        .unwrap();
        assert_eq!(wire(&mut src, &shape, &config).unwrap(), direct, "round {round}");
        src.finish();
    }
    assert_eq!(pool.idle_count(), 2, "both sessions parked after the last query");
    let snap = stats.snapshot();
    assert_eq!(snap.conns_opened, 2, "only the first round dialed");
    assert_eq!(snap.conn_reuses, 4, "rounds 2 and 3 reused both sessions");
    assert_eq!(snap.peer_errors, 0);
}

/// A pooled socket whose peer went away is detected by the `Hello`
/// health check and replaced by one fresh dial — no peer error, and the
/// query still answers correctly.
#[test]
fn stale_pooled_socket_redials_transparently() {
    let union = union_dataset();
    let addr = spawn_peer(slice_rows(&union, 0..union.num_rows()));
    let pool = Arc::new(PeerPool::new(2));
    // Manufacture a stale idle session: a socket whose remote end is gone.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = std::net::TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (server_side, _) = l.accept().unwrap();
        drop(server_side);
        client
    };
    pool.check_in(&addr, dead);
    assert_eq!(pool.idle_count(), 1);
    let config = cfg(0x57A1E);
    let stats = Arc::new(ClusterStats::new());
    let mut src = RemoteShardSource::connect(
        std::slice::from_ref(&addr),
        "t",
        config.seed,
        None,
        &PeerTimeouts::default(),
        Arc::clone(&stats),
        Some(Arc::clone(&pool)),
    )
    .unwrap();
    let shape = all_shapes()[0];
    assert_eq!(wire(&mut src, &shape, &config).unwrap(), plain(&union, &shape, &config));
    src.finish();
    let snap = stats.snapshot();
    assert_eq!(snap.conns_opened, 1, "the stale socket forced one fresh dial");
    assert_eq!(snap.conn_reuses, 0);
    assert_eq!(snap.peer_errors, 0, "staleness is not a peer error");
    assert_eq!(pool.idle_count(), 1, "the replacement session was pooled");
}

#[test]
fn probe_sums_the_fleet() {
    let union = union_dataset();
    let n = union.num_rows();
    let addrs =
        vec![spawn_peer(slice_rows(&union, 0..n / 2)), spawn_peer(slice_rows(&union, n / 2..n))];
    let stats = ClusterStats::new();
    let p = probe(&addrs, &PeerTimeouts::default(), &stats).unwrap();
    assert_eq!(p.peers, 2);
    assert_eq!(p.union_rows, n as u64);
    assert!(stats.snapshot().frames_sent >= 2);
}

/// The probe reads the version it is told, in `connect`'s words: a v1
/// fleet is refused at startup, not a query at a time.
#[test]
fn probe_refuses_an_older_fleet() {
    let union = union_dataset();
    let addr = scripted_peer(move |mut stream| {
        let _ = read_frame(&mut stream).unwrap(); // Hello
        write_frame(&mut stream, &hello_reply(1, &union)).unwrap();
        let _ = read_frame(&mut stream);
    });
    let err = probe(std::slice::from_ref(&addr), &PeerTimeouts::default(), &ClusterStats::new())
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        SwopeError::Transport(format!("peer {addr}: speaks protocol v1")).to_string()
    );
}

/// An unreachable peer fails fast with a one-line, addr-tagged error.
#[test]
fn dead_peer_is_a_one_line_error() {
    // Bind-then-drop guarantees nothing listens on the port.
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let timeouts =
        PeerTimeouts { connect: Duration::from_millis(300), io: Duration::from_millis(300) };
    let start = Instant::now();
    let err = RemoteShardSource::connect(
        std::slice::from_ref(&addr),
        "t",
        1,
        None,
        &timeouts,
        Arc::new(ClusterStats::new()),
        None,
    )
    .unwrap_err();
    assert!(start.elapsed() < Duration::from_secs(5), "dead peer hung the coordinator");
    let SwopeError::Transport(msg) = err else { panic!("expected a transport error, got {err}") };
    assert!(msg.contains(&addr), "error does not name the peer: {msg}");
    assert!(!msg.contains('\n'), "error is not one line: {msg}");
}

/// A peer that accepts but never answers trips the I/O timeout instead
/// of hanging the query.
#[test]
fn hung_peer_trips_the_io_timeout() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // Accept and hold the connection open without ever replying.
    let hold = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        std::thread::sleep(Duration::from_secs(10));
        drop(stream);
    });
    let timeouts = PeerTimeouts { connect: Duration::from_secs(1), io: Duration::from_millis(250) };
    let start = Instant::now();
    let err = RemoteShardSource::connect(
        &[addr],
        "t",
        1,
        None,
        &timeouts,
        Arc::new(ClusterStats::new()),
        None,
    )
    .unwrap_err();
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(5), "hung peer stalled the coordinator: {elapsed:?}");
    assert!(matches!(err, SwopeError::Transport(_)), "{err}");
    drop(hold); // detached; the test does not wait the full 10s
}

/// A peer that dies *mid-query* (after Hello and the first count reply)
/// surfaces as a transport error on the next iteration, not a hang.
#[test]
fn peer_death_mid_query_fails_the_advance() {
    let union = union_dataset();
    // A hand-rolled peer that answers exactly one GrowDelta, then dies.
    let addr = scripted_peer(move |mut stream| {
        let (hello, _) = read_frame(&mut stream).unwrap();
        let Frame::Hello(_) = hello else { panic!("expected Hello") };
        write_frame(&mut stream, &hello_reply(PROTOCOL_VERSION, &union)).unwrap();
        let _ = read_frame(&mut stream).unwrap(); // first GrowDelta
        drop(stream); // die before answering
    });
    let config = cfg(0xDEAD);
    let timeouts = PeerTimeouts { connect: Duration::from_secs(1), io: Duration::from_millis(500) };
    let mut src = RemoteShardSource::connect(
        std::slice::from_ref(&addr),
        "t",
        config.seed,
        None,
        &timeouts,
        Arc::new(ClusterStats::new()),
        None,
    )
    .unwrap();
    let start = Instant::now();
    let err = wire(&mut src, &all_shapes()[0], &config).unwrap_err();
    assert!(start.elapsed() < Duration::from_secs(5), "mid-query death hung the loop");
    let SwopeError::Transport(msg) = err else { panic!("expected a transport error, got {err}") };
    assert!(msg.contains(&addr), "{msg}");
    assert!(!msg.contains('\n'), "{msg}");
}

/// A query that fails on one peer's reply must not pool the other peers'
/// sessions with their replies still unread: the next query over such a
/// socket would read a stale `CountMerge` as its `Hello` reply. The
/// failed query closes its sessions, and the next one answers.
#[test]
fn a_failed_query_pools_no_session() {
    let union = union_dataset();
    let n = union.num_rows();
    let first = slice_rows(&union, 0..n / 2);
    let objector = scripted_peer(move |mut stream| {
        let _ = read_frame(&mut stream).unwrap(); // Hello
        write_frame(&mut stream, &hello_reply(PROTOCOL_VERSION, &first)).unwrap();
        let _ = read_frame(&mut stream).unwrap(); // GrowDelta
        let message = "refusing to count".to_owned();
        write_frame(&mut stream, &Frame::Error(ErrorFrame { message })).unwrap();
        let _ = read_frame(&mut stream); // hold the socket until the coordinator hangs up
    });
    let rest = slice_rows(&union, n / 2..n);
    let real = spawn_peer(rest.clone());
    let (config, shape) = (cfg(0xBAD), all_shapes()[0]);
    let pool = Arc::new(PeerPool::new(2));
    let pooled = |addrs: &[String]| {
        let stats = Arc::new(ClusterStats::new());
        let timeouts = PeerTimeouts::default();
        let pool = Some(Arc::clone(&pool));
        RemoteShardSource::connect(addrs, "t", config.seed, None, &timeouts, stats, pool).unwrap()
    };

    let mut src = pooled(&[objector.clone(), real.clone()]);
    let err = wire(&mut src, &shape, &config).unwrap_err();
    assert!(err.to_string().contains("refusing to count"), "{err}");
    drop(src);
    assert_eq!(pool.idle_count(), 0, "a failed query pooled its sessions");

    let mut src = pooled(std::slice::from_ref(&real));
    assert_eq!(wire(&mut src, &shape, &config).unwrap(), plain(&rest, &shape, &config));
    src.finish();
    assert_eq!(pool.idle_count(), 1);
}

/// A shard's counts in canonical form: the target's entries, then each
/// live attribute's entries and joint runs.
type Canonical = (Vec<(u32, u64)>, Vec<(Vec<(u32, u64)>, Vec<(u64, u64)>)>);

fn canonical(counts: &mut ShardCounts) -> Canonical {
    let target = counts.target.as_mut().map(|t| t.canonical_entries().collect());
    let attrs = counts.attrs.iter_mut().zip(&mut counts.joints);
    let attrs = attrs.map(|(a, j)| (a.canonical_entries().collect(), j.canonical_runs().to_vec()));
    (target.unwrap_or_default(), attrs.collect())
}

/// Below the answers: at every doubling of an entropy and an MI request,
/// two peers cut where `ShardPlan::new(n, 2)` cuts return, summed, the
/// counts two in-process shards of the union do. Again over a range
/// centred on the cut, so each peer's rows start past union row 0: there
/// the sum is what one counter gives for the rows a single box's
/// sketchless range scope samples.
#[test]
fn peer_counts_equal_in_process_shard_counts() {
    let union = union_dataset();
    let n = union.num_rows();
    let cut = ShardPlan::new(n, 2).range(1).start;
    let addrs =
        vec![spawn_peer(slice_rows(&union, 0..cut)), spawn_peer(slice_rows(&union, cut..n))];
    let config = cfg(0xC0DE);
    let h = union.num_attrs();
    let requests = [
        CountRequest { target: None, live: (0..h).collect() },
        CountRequest { target: Some(0), live: (1..h).collect() },
    ];
    let exec = Executor::sequential();
    for rows in [0..n, cut - 500..cut + 500] {
        for req in &requests {
            let scope = Some(rows.start as u64..rows.end as u64);
            let mut remote = connect(&addrs, &config, scope);
            assert_eq!(remote.num_rows(), rows.len());
            let mut shards = (rows.len() == n)
                .then(|| LocalShardSource::new(&union, 2, &config, &exec).unwrap());
            let members = PageMembers::range(union.layout(), rows.clone());
            let mut range = PagePrefix::new(members, config.seed);
            let mut counter = Counter::new();
            let mut m = 32;
            while m < 2 * rows.len() {
                let mut got = remote.advance(m, req).unwrap();
                assert_eq!(got.len(), 1, "the coordinator adds the replies up as they arrive");
                let mut want = match &mut shards {
                    Some(shards) => shards.advance(m, req).unwrap(),
                    None => {
                        let positions = range.grow_to(m);
                        let mut counts = ShardCounts::empty(None, []);
                        counter.count(&union, positions, req, &mut counts, &exec);
                        vec![counts]
                    }
                };
                let (sum, rest) = want.split_first_mut().unwrap();
                for shard in rest {
                    if let (Some(t), Some(o)) = (sum.target.as_mut(), &shard.target) {
                        t.merge(o);
                    }
                    sum.attrs.iter_mut().zip(&shard.attrs).for_each(|(a, b)| a.merge(b));
                    sum.joints.iter_mut().zip(&shard.joints).for_each(|(a, b)| a.merge(b));
                }
                assert_eq!(
                    canonical(&mut got[0]),
                    canonical(sum),
                    "rows {rows:?}, {req:?}, m = {m}"
                );
                m *= 2;
            }
            remote.finish();
        }
    }
}

/// A union of more than one page, cut off a page boundary: the
/// coordinator sends each peer its windows of the union's pages, past
/// page 0 too, and each peer maps them to its own layout. Entropy and MI
/// answers, and the summed counts at every doubling, equal the single
/// box's.
#[test]
fn a_multi_page_union_answers_like_the_single_box() {
    let union = swope_datagen::generate(&swope_datagen::corpus::tiny(2 * PAGE_ROWS + 9_000, 4), 7);
    let n = union.num_rows();
    let cut = PAGE_ROWS + 4_321;
    let addrs =
        vec![spawn_peer(slice_rows(&union, 0..cut)), spawn_peer(slice_rows(&union, cut..n))];
    let config = cfg(0x9A6E);
    for shape in [all_shapes()[0], Shape::mi(0, Rule::TopK { k: 2 })] {
        let mut src = connect(&addrs, &config, None);
        let direct = plain(&union, &shape, &config);
        assert_eq!(wire(&mut src, &shape, &config).unwrap(), direct, "{shape:?}");
    }
    let h = union.num_attrs();
    let requests = [
        CountRequest { target: None, live: (0..h).collect() },
        CountRequest { target: Some(0), live: (1..h).collect() },
    ];
    let exec = Executor::sequential();
    for req in &requests {
        let mut remote = connect(&addrs, &config, None);
        let mut single = LocalShardSource::new(&union, 1, &config, &exec).unwrap();
        let mut m = 32;
        while m < 2 * n {
            let mut got = remote.advance(m, req).unwrap();
            let mut want = single.advance(m, req).unwrap();
            assert_eq!(canonical(&mut got[0]), canonical(&mut want[0]), "{req:?}, m = {m}");
            m *= 2;
        }
        remote.finish();
    }
}

/// Three peers over a union of two pages and 9 000 rows, one cut on a
/// page boundary and one inside a page: the first peer counts its page as
/// runs in place, the others through slot tables, and page 1 straddles
/// the second cut. Unscoped and over a range that straddles both cuts —
/// fringe pages 0 and 2, page 1 whole — the summed counts at every
/// doubling equal what a single box counts, with three in-process shards
/// or one counter over the range, and entropy and MI answer alike.
#[test]
fn three_peers_cut_on_and_inside_a_page_count_like_the_single_box() {
    let union = swope_datagen::generate(&swope_datagen::corpus::tiny(2 * PAGE_ROWS + 9_000, 4), 11);
    let n = union.num_rows();
    let cuts = [PAGE_ROWS, PAGE_ROWS + 30_000];
    let addrs = vec![
        spawn_peer(slice_rows(&union, 0..cuts[0])),
        spawn_peer(slice_rows(&union, cuts[0]..cuts[1])),
        spawn_peer(slice_rows(&union, cuts[1]..n)),
    ];
    let config = cfg(0x3C07);
    let range = cuts[0] - 3_000..n - 1_000;
    let scope = Some(range.start as u64..range.end as u64);
    let stats = Arc::new(ClusterStats::new());
    let timeouts = PeerTimeouts::default();
    let dial = |scope: Option<std::ops::Range<u64>>| {
        let stats = Arc::clone(&stats);
        RemoteShardSource::connect(&addrs, "t", config.seed, scope, &timeouts, stats, None).unwrap()
    };
    for shape in [all_shapes()[0], Shape::mi(0, Rule::TopK { k: 2 })] {
        let mut src = dial(None);
        assert_eq!(src.peer_count(), 3);
        assert_eq!(wire(&mut src, &shape, &config).unwrap(), plain(&union, &shape, &config));
        let mut src = dial(scope.clone());
        let direct = scoped(&union, &shape, &Scope::range(range.start, range.end), None, &config);
        assert_eq!(wire(&mut src, &shape, &config).unwrap(), direct, "{shape:?} over {range:?}");
    }
    let h = union.num_attrs();
    let requests = [
        CountRequest { target: None, live: (0..h).collect() },
        CountRequest { target: Some(0), live: (1..h).collect() },
    ];
    let exec = Executor::sequential();
    for req in &requests {
        for rows in [0..n, range.clone()] {
            let mut remote = dial(Some(rows.start as u64..rows.end as u64));
            let mut shards = (rows.len() == n)
                .then(|| LocalShardSource::new(&union, 3, &config, &exec).unwrap());
            let members = PageMembers::range(union.layout(), rows.clone());
            let mut single = PagePrefix::new(members, config.seed);
            let mut counter = Counter::new();
            let mut m = 32;
            while m < 2 * rows.len() {
                let mut got = remote.advance(m, req).unwrap();
                let mut want = match &mut shards {
                    Some(shards) => shards.advance(m, req).unwrap(),
                    None => {
                        let mut counts = ShardCounts::empty(None, []);
                        counter.count(&union, single.grow_to(m), req, &mut counts, &exec);
                        vec![counts]
                    }
                };
                let (sum, rest) = want.split_first_mut().unwrap();
                for shard in rest {
                    if let (Some(t), Some(o)) = (sum.target.as_mut(), &shard.target) {
                        t.merge(o);
                    }
                    sum.attrs.iter_mut().zip(&shard.attrs).for_each(|(a, b)| a.merge(b));
                    sum.joints.iter_mut().zip(&shard.joints).for_each(|(a, b)| a.merge(b));
                }
                assert_eq!(
                    canonical(&mut got[0]),
                    canonical(sum),
                    "rows {rows:?}, {req:?}, m = {m}"
                );
                m *= 2;
            }
            remote.finish();
        }
    }
    // The work travelled as GrowDelta and CountMerge frames, part of all
    // the bytes the coordinator sent and received.
    let snap = stats.snapshot();
    assert!(snap.grow_delta_bytes > 0 && snap.grow_delta_bytes < snap.bytes_sent);
    assert!(snap.count_merge_bytes > 0 && snap.count_merge_bytes < snap.bytes_received);
}

/// Two peers of 2³¹ rows each make a union one row past what a sample
/// can index: `connect` says so in one line, before it builds a sampler
/// that would panic the worker.
#[test]
fn an_oversized_population_is_refused_before_sampling() {
    let union = union_dataset();
    let addrs: Vec<String> = (0..2)
        .map(|_| {
            let meta = dataset_meta(&union);
            scripted_peer(move |mut stream| {
                let _ = read_frame(&mut stream).unwrap(); // Hello
                let num_rows = 1 << 31;
                let reply =
                    Hello { version: PROTOCOL_VERSION, dataset: "t".into(), num_rows, attrs: meta };
                write_frame(&mut stream, &Frame::Hello(reply)).unwrap();
                let _ = read_frame(&mut stream); // hold the socket until the coordinator hangs up
            })
        })
        .collect();
    let err = RemoteShardSource::connect(
        &addrs,
        "t",
        1,
        None,
        &PeerTimeouts::default(),
        Arc::new(ClusterStats::new()),
        None,
    )
    .unwrap_err();
    let SwopeError::Transport(msg) = err else { panic!("expected a transport error, got {err}") };
    assert_eq!(
        msg,
        "a population of 4294967296 rows exceeds the 4294967295 rows one sample can index"
    );
}

/// A hand-rolled peer: accepts one connection and runs `script` on it.
fn scripted_peer(script: impl FnOnce(std::net::TcpStream) + Send + 'static) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || script(listener.accept().unwrap().0));
    addr
}

fn hello_reply(version: u32, ds: &Dataset) -> Frame {
    let num_rows = ds.num_rows() as u64;
    Frame::Hello(Hello { version, dataset: "t".into(), num_rows, attrs: dataset_meta(ds) })
}

/// A peer whose `CountMerge` claims a larger support than its `Hello`
/// announced, with a code past the real one: the coordinator must refuse
/// the frame with a one-line error naming the peer — merging it would
/// index the engine's counters out of range (a worker panic, a 500).
#[test]
fn a_peer_lying_about_support_is_a_transport_error() {
    let union = union_dataset();
    let peer_ds = slice_rows(&union, 0..union.num_rows());
    let addr = scripted_peer(move |mut stream| {
        let _ = read_frame(&mut stream).unwrap(); // Hello
        write_frame(&mut stream, &hello_reply(PROTOCOL_VERSION, &peer_ds)).unwrap();
        let (Frame::GrowDelta(grow), _) = read_frame(&mut stream).unwrap() else {
            panic!("expected GrowDelta")
        };
        let inflated = grow.live.iter().map(|&a| peer_ds.support(a as usize) + 5);
        let mut counts = ShardCounts::empty(None, inflated);
        for (cs, &a) in counts.attrs.iter_mut().zip(&grow.live) {
            cs.increment(peer_ds.support(a as usize) + 1, grow.m_target);
        }
        let lie = Frame::CountMerge(CountMergeFrame::from_counts(&mut counts));
        write_frame(&mut stream, &lie).unwrap();
        let _ = read_frame(&mut stream); // hold the socket until the coordinator hangs up
    });
    let config = cfg(0x11E);
    let mut src = connect(std::slice::from_ref(&addr), &config, None);
    let err = wire(&mut src, &all_shapes()[0], &config).unwrap_err();
    let SwopeError::Transport(msg) = err else { panic!("expected a transport error, got {err}") };
    assert!(msg.starts_with(&format!("peer {addr}: ")), "{msg}");
    assert!(msg.contains("support disagrees"), "{msg}");
    assert!(!msg.contains('\n'), "{msg}");
}

/// A peer still speaking protocol v1, v3 or v4 is named as such at
/// connect time; none of its frames is parsed as v5.
#[test]
fn an_older_peer_is_refused_by_version() {
    for version in [1, 3, 4] {
        let union = union_dataset();
        let addr = scripted_peer(move |mut stream| {
            let _ = read_frame(&mut stream).unwrap(); // Hello
            write_frame(&mut stream, &hello_reply(version, &union)).unwrap();
            let _ = read_frame(&mut stream);
        });
        let err = RemoteShardSource::connect(
            std::slice::from_ref(&addr),
            "t",
            1,
            None,
            &PeerTimeouts::default(),
            Arc::new(ClusterStats::new()),
            None,
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            SwopeError::Transport(format!("peer {addr}: speaks protocol v{version}")).to_string()
        );
    }
}

/// The union cut three ways, each slice served with its own sketch
/// unless `declining` names it.
fn three_peers(union: &Dataset, declining: Option<usize>) -> Vec<String> {
    let n = union.num_rows();
    [0..n / 4, n / 4..n / 2, n / 2..n]
        .into_iter()
        .enumerate()
        .map(|(i, rows)| {
            let slice = slice_rows(union, rows);
            let sketch = (declining != Some(i)).then(|| sketch_of(&slice));
            spawn_peer_with(slice, sketch)
        })
        .collect()
}

/// The MI shapes SWOPE and the comparators answer, against `all_shapes`'
/// target.
fn mi_shapes() -> Vec<Shape> {
    let all = all_shapes().into_iter().chain(comparators_against(5));
    all.filter(|shape| shape.target.is_some()).collect()
}

/// Three peers with sketches: their totals sum to the union's marginals,
/// so the coordinator answers every MI shape as a single box holding the
/// union and its sketch — not as one without (the sketch moved answers).
#[test]
fn summed_peer_marginals_answer_as_the_single_box_with_its_sketch() {
    let union = union_dataset();
    let addrs = three_peers(&union, None);
    let (config, sketch) = (cfg(0x3A26), sketch_of(&union));
    let mut moved = 0;
    for shape in mi_shapes() {
        let mut src = connect(&addrs, &config, None);
        let got = wire(&mut src, &shape, &config).unwrap();
        assert_eq!(got, scoped(&union, &shape, &Scope::all(), Some(&sketch), &config), "{shape:?}");
        moved += usize::from(got != plain(&union, &shape, &config));
    }
    assert!(moved > 0, "no MI answer took the marginals");
    // Entropy shapes never ask.
    let shape = all_shapes()[0];
    let mut src = connect(&addrs, &config, None);
    assert_eq!(wire(&mut src, &shape, &config).unwrap(), plain(&union, &shape, &config));
}

/// One peer without a sketch declines, and the whole answer is the
/// sketch-free one: partial marginals are never used.
#[test]
fn one_declining_peer_leaves_every_answer_sketch_free() {
    let union = union_dataset();
    let addrs = three_peers(&union, Some(1));
    let config = cfg(0x3A26);
    for shape in mi_shapes() {
        let mut src = connect(&addrs, &config, None);
        assert_eq!(wire(&mut src, &shape, &config).unwrap(), plain(&union, &shape, &config));
    }
}

/// Two peers with sketches and, last, a scripted one holding `slice` that
/// answers `Marginals` with `totals` built from its slice: the one-line
/// error, naming that peer, the coordinator's MI query ends with.
fn marginals_reply_error(totals: impl FnOnce(&Dataset) -> ShardCounts + Send + 'static) -> String {
    let union = union_dataset();
    let n = union.num_rows();
    let mut addrs: Vec<String> = [0..n / 4, n / 4..n / 2]
        .into_iter()
        .map(|rows| {
            let slice = slice_rows(&union, rows);
            let sketch = sketch_of(&slice);
            spawn_peer_with(slice, Some(sketch))
        })
        .collect();
    let slice = slice_rows(&union, n / 2..n);
    let liar = scripted_peer(move |mut stream| {
        let _ = read_frame(&mut stream).unwrap(); // Hello
        write_frame(&mut stream, &hello_reply(PROTOCOL_VERSION, &slice)).unwrap();
        let (Frame::Marginals, _) = read_frame(&mut stream).unwrap() else {
            panic!("expected Marginals")
        };
        let reply = Frame::CountMerge(CountMergeFrame::from_counts(&mut totals(&slice)));
        write_frame(&mut stream, &reply).unwrap();
        let _ = read_frame(&mut stream); // hold the socket until the coordinator hangs up
    });
    addrs.push(liar.clone());
    let config = cfg(0x3A27);
    let mut src = connect(&addrs, &config, None);
    let err = wire(&mut src, &all_shapes()[2], &config).unwrap_err();
    let SwopeError::Transport(msg) = err else { panic!("expected a transport error, got {err}") };
    assert!(msg.starts_with(&format!("peer {liar}: ")), "{msg}");
    assert!(!msg.contains('\n'), "{msg}");
    msg
}

/// The slice's true totals, with `edit` applied to the first attribute.
fn totals_with(ds: &Dataset, edit: impl FnOnce(&mut ShardCounts)) -> ShardCounts {
    let exact = sketch_marginals(ds, Some(&sketch_of(ds))).unwrap();
    let mut counts = ShardCounts::empty(None, exact.iter().map(|c| c.len() as u32));
    for (cs, column) in counts.attrs.iter_mut().zip(&exact) {
        for (code, &k) in column.iter().enumerate() {
            cs.increment(code as u32, k);
        }
    }
    edit(&mut counts);
    counts
}

#[test]
fn marginals_that_miss_the_hello_rows_are_a_transport_error() {
    let msg = marginals_reply_error(|ds| totals_with(ds, |counts| counts.attrs[0].add(0)));
    assert!(msg.contains("add up to 2001 rows, not the 2000 its Hello announced"), "{msg}");
}

#[test]
fn a_marginal_code_past_support_is_a_transport_error() {
    // Well-formed on the wire (its histogram declares the wider support),
    // but past the support the peer's Hello announced.
    let msg = marginals_reply_error(|ds| {
        totals_with(ds, |counts| {
            let support = counts.attrs[0].support();
            counts.attrs[0] = CountState::new(support + 1);
            counts.attrs[0].increment(support, ds.num_rows() as u64);
        })
    });
    assert!(msg.contains("support disagrees"), "{msg}");
}
