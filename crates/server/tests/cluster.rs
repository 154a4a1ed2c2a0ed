//! Coordinator/peer integration over real loopback sockets: a
//! coordinator fanning out to shard servers must serve byte-for-byte
//! the same HTTP bodies as a single box holding the union, dead peers
//! must fail fast with a one-line 503, and `/metrics` must expose the
//! cluster families.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use swope_obs::json::Json;
use swope_server::{Server, ServerConfig, ServerHandle};

/// The union every cluster in this file serves, split row-wise.
fn union_dataset() -> swope_columnar::Dataset {
    swope_datagen::generate(&swope_datagen::corpus::tiny(400, 5), 0x5EED)
}

/// Rows `[start, end)` of `ds` in order, supports preserved so shard
/// halves agree with the union on every attribute's meta.
fn slice_rows(ds: &swope_columnar::Dataset, start: usize, end: usize) -> swope_columnar::Dataset {
    let rows: Vec<usize> = (start..end).collect();
    ds.take_rows(&rows)
}

struct TestServer {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(config: ServerConfig, dataset: swope_columnar::Dataset) -> Self {
        let server = Server::bind(ServerConfig { addr: "127.0.0.1:0".into(), ..config }).unwrap();
        server.registry().insert("tiny", dataset);
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let thread = Some(std::thread::spawn(move || server.run()));
        Self { addr, handle, thread }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

struct HttpReply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl HttpReply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

fn get(addr: SocketAddr, path: &str) -> HttpReply {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("no header/body separator");
    let mut lines = head.lines();
    let status = lines.next().unwrap().split_whitespace().nth(1).unwrap().parse().unwrap();
    let headers = lines
        .map(|l| {
            let (k, v) = l.split_once(':').unwrap();
            (k.trim().to_ascii_lowercase(), v.trim().to_owned())
        })
        .collect();
    HttpReply { status, headers, body: body.to_owned() }
}

/// Value of a plain `name value` line in Prometheus exposition text.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or_else(|| panic!("metric {name} not found in:\n{text}"))
}

/// Two peer shard servers holding the halves plus a coordinator wired
/// to them. Returned in drop order: coordinator last so its best-effort
/// session teardown still finds the peers alive.
fn start_cluster() -> (TestServer, TestServer, TestServer) {
    cluster_of(union_dataset())
}

/// [`start_cluster`] over `union`, cut in half.
fn cluster_of(union: swope_columnar::Dataset) -> (TestServer, TestServer, TestServer) {
    let cut = union.num_rows() / 2;
    let peer_a = TestServer::start(ServerConfig::default(), slice_rows(&union, 0, cut));
    let peer_b =
        TestServer::start(ServerConfig::default(), slice_rows(&union, cut, union.num_rows()));
    let coordinator = TestServer::start(
        ServerConfig {
            peers: vec![peer_a.addr.to_string(), peer_b.addr.to_string()],
            ..ServerConfig::default()
        },
        union,
    );
    (peer_a, peer_b, coordinator)
}

/// A range holding a whole page: the single box holds a sketch of it and
/// the coordinator none, and both answer with the same bytes, because a
/// sketch changes nothing about a range.
#[test]
fn a_page_covering_range_answers_alike_on_a_coordinator() {
    let union = || swope_datagen::generate(&swope_datagen::corpus::tiny(140_000, 3), 0x5EED);
    let single = TestServer::start(ServerConfig::default(), union());
    let (_peer_a, _peer_b, coordinator) = cluster_of(union());
    let path = "/query/entropy-topk?dataset=tiny&k=2&seed=7&epsilon=0.5&row_start=0&row_end=70000";
    let want = get(single.addr, path);
    assert_eq!(want.status, 200, "{}", want.body);
    assert_eq!(get(coordinator.addr, path).body, want.body);
}

#[test]
fn coordinator_serves_single_box_identical_bytes() {
    let single = TestServer::start(ServerConfig::default(), union_dataset());
    let (_peer_a, _peer_b, coordinator) = start_cluster();

    let paths = [
        "/query/entropy-topk?dataset=tiny&k=2",
        "/query/entropy-topk?dataset=tiny&k=2&seed=7&epsilon=0.2",
        "/query/entropy-filter?dataset=tiny&eta=1.0",
        "/query/entropy-profile?dataset=tiny",
        "/query/mi-topk?dataset=tiny&target=0&k=2",
        "/query/mi-filter?dataset=tiny&target=0&eta=0.05",
        "/query/mi-profile?dataset=tiny&target=0",
        // Scopes spanning the shard cut and inside a single shard, plus
        // an open-ended row_end past N (clamps to N on both paths).
        "/query/entropy-topk?dataset=tiny&k=2&row_start=100&row_end=300",
        "/query/entropy-topk?dataset=tiny&k=2&row_start=10&row_end=150",
        "/query/mi-topk?dataset=tiny&target=1&k=2&row_start=250",
        "/query/entropy-profile?dataset=tiny&row_end=100000",
    ];
    for path in paths {
        let want = get(single.addr, path);
        assert_eq!(want.status, 200, "single box failed {path}: {}", want.body);
        let got = get(coordinator.addr, path);
        assert_eq!(got.status, 200, "coordinator failed {path}: {}", got.body);
        assert_eq!(got.body, want.body, "bodies differ for {path}");
    }

    // A repeat of the first query is a coordinator-cache hit serving the
    // same bytes without another fan-out.
    let merges_before =
        metric(&get(coordinator.addr, "/metrics").body, "swope_cluster_merges_total");
    let again = get(coordinator.addr, paths[0]);
    assert_eq!(again.header("x-swope-cache"), Some("hit"));
    assert_eq!(again.body, get(single.addr, paths[0]).body);
    let metrics = get(coordinator.addr, "/metrics").body;
    assert_eq!(metric(&metrics, "swope_cluster_merges_total"), merges_before);

    // The coordinator exposes the cluster gauge and counter families.
    assert_eq!(metric(&metrics, "swope_cluster_peers"), 2);
    assert_eq!(metric(&metrics, "swope_cluster_union_rows"), 400);
    assert!(metric(&metrics, "swope_cluster_queries_total") >= paths.len() as u64);
    assert!(metric(&metrics, "swope_cluster_merges_total") >= 1);
    assert!(metric(&metrics, "swope_cluster_frames_sent_total") > 0);
    assert!(metric(&metrics, "swope_cluster_bytes_received_total") > 0);
    // What those bytes carried: every merge decodes at least one entry,
    // and delta/varint entries average a few bytes each, headers included.
    let entries = metric(&metrics, "swope_cluster_count_entries_total");
    assert!(entries >= metric(&metrics, "swope_cluster_merges_total"));
    assert!(metric(&metrics, "swope_cluster_bytes_received_total") < 12 * entries);
    assert_eq!(metric(&metrics, "swope_cluster_peer_errors_total"), 0);

    // Peer sessions are pooled: the startup probe and the first fan-out
    // dial each peer, every later query reuses the pooled sockets. 11
    // queries x 2 peers without pooling would open 20+ connections.
    assert!(metric(&metrics, "swope_cluster_conns_opened_total") <= 8);
    assert!(metric(&metrics, "swope_cluster_conn_reuses_total") >= 10);

    // Peers count the frames they served on their own wire counters.
    let peer_metrics = get(_peer_a.addr, "/metrics").body;
    assert!(metric(&peer_metrics, "swope_cluster_frames_received_total") > 0);
}

/// Peers served from a registry hand the coordinator their sketches'
/// totals, so an unscoped MI query there reads its marginals exactly, as
/// the single box does; the coordinator counts it under `sketch`. (Peers
/// run no loop, and the counters only grow: other tests can only add.)
#[test]
fn the_coordinator_counts_mi_marginals_from_its_peers_sketches() {
    let (_peer_a, _peer_b, coordinator) = start_cluster();
    let count = || {
        let metrics = get(coordinator.addr, "/metrics").body;
        metric(&metrics, "swope_mi_marginals_total{source=\"sketch\"}")
    };
    let before = count();
    let reply = get(coordinator.addr, "/query/mi-filter?dataset=tiny&target=1&eta=0.2&seed=3");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(count() > before);
}

#[test]
fn cluster_rejects_predicate_scopes_and_answers_empty_ranges_like_a_single_box() {
    let single = TestServer::start(ServerConfig::default(), union_dataset());
    let (_peer_a, _peer_b, coordinator) = start_cluster();

    let reply = get(coordinator.addr, "/query/entropy-topk?dataset=tiny&k=2&where=0%3D1");
    assert_eq!(reply.status, 422, "{}", reply.body);
    assert!(reply.body.contains("row_start/row_end"), "{}", reply.body);

    // An empty range — `row_start = N` after the clamp, or start = end —
    // is a well-defined answer on a single box (zero scores, no
    // iterations), and the coordinator serves the same bytes. A start
    // past the clamped end is the same one-line 422 on both.
    let shapes = [
        "entropy-topk?dataset=tiny&k=2",
        "entropy-filter?dataset=tiny&eta=1.0",
        "entropy-profile?dataset=tiny",
        "mi-topk?dataset=tiny&target=0&k=2",
        "mi-filter?dataset=tiny&target=0&eta=0.05",
        "mi-profile?dataset=tiny&target=0",
    ];
    for shape in shapes {
        for range in ["row_start=400", "row_start=100&row_end=100"] {
            let path = format!("/query/{shape}&{range}");
            let want = get(single.addr, &path);
            assert_eq!(want.status, 200, "single box failed {path}: {}", want.body);
            let stats = Json::parse(&want.body).unwrap().get("stats").cloned().unwrap();
            assert_eq!(stats.get("iterations").unwrap().as_u64(), Some(0), "{path}");
            let got = get(coordinator.addr, &path);
            assert_eq!((got.status, &got.body), (200, &want.body), "bodies differ for {path}");
        }
        let path = format!("/query/{shape}&row_start=401");
        let (want, got) = (get(single.addr, &path), get(coordinator.addr, &path));
        assert_eq!(want.status, 422, "{path}: {}", want.body);
        assert!(want.body.contains("invalid scope"), "{}", want.body);
        assert_eq!((got.status, &got.body), (422, &want.body), "errors differ for {path}");
    }
    // None of that reached a peer past its `Hello`: nothing was counted.
    let metrics = get(coordinator.addr, "/metrics").body;
    assert_eq!(metric(&metrics, "swope_cluster_merges_total"), 0);
    assert_eq!(metric(&metrics, "swope_cluster_peer_errors_total"), 0);
}

/// One target resolver: a single box and a coordinator word an unknown or
/// out-of-range target the same way.
#[test]
fn a_bad_target_is_the_same_422_on_a_single_box_and_a_coordinator() {
    let single = TestServer::start(ServerConfig::default(), union_dataset());
    let (_peer_a, _peer_b, coordinator) = start_cluster();
    for target in ["nope", "99"] {
        let path = format!("/query/mi-topk?dataset=tiny&k=1&target={target}");
        let (want, got) = (get(single.addr, &path), get(coordinator.addr, &path));
        assert_eq!(want.status, 422, "{path}: {}", want.body);
        assert_eq!((got.status, &got.body), (422, &want.body), "errors differ for {path}");
    }
}

#[test]
fn dead_peer_is_a_fast_one_line_503() {
    let union = union_dataset();
    let cut = union.num_rows() / 2;
    let peer_a = TestServer::start(ServerConfig::default(), slice_rows(&union, 0, cut));
    let peer_b =
        TestServer::start(ServerConfig::default(), slice_rows(&union, cut, union.num_rows()));
    let dead_addr = peer_b.addr;
    let coordinator = TestServer::start(
        ServerConfig {
            peers: vec![peer_a.addr.to_string(), dead_addr.to_string()],
            peer_connect_timeout: Duration::from_millis(500),
            peer_io_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
        union_dataset(),
    );
    drop(peer_b);

    let started = Instant::now();
    let reply = get(coordinator.addr, "/query/entropy-topk?dataset=tiny&k=2");
    assert!(started.elapsed() < Duration::from_secs(5), "query hung on the dead peer");
    assert_eq!(reply.status, 503, "{}", reply.body);
    assert_eq!(reply.header("retry-after"), Some("1"));
    let err = Json::parse(&reply.body).unwrap();
    let msg = err.get("error").unwrap().as_str().unwrap().to_owned();
    assert!(!msg.contains('\n'), "error must be one line: {msg:?}");
    assert!(msg.contains(&dead_addr.to_string()), "error must name the peer: {msg}");

    let metrics = get(coordinator.addr, "/metrics").body;
    assert!(metric(&metrics, "swope_cluster_peer_errors_total") >= 1);
}

/// A scripted peer that answers every `Hello` with the same layout and
/// the version `version_of(n)` for the `n`-th one it sees (from 0).
fn hello_peer(version_of: fn(usize) -> u32) -> std::net::SocketAddr {
    use swope_cluster::frame::{read_frame, write_frame, Frame, Hello};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut seen = 0usize;
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            while let Ok((Frame::Hello(hello), _)) = read_frame(&mut stream) {
                let reply = Hello { version: version_of(seen), num_rows: 400, ..hello };
                seen += 1;
                if write_frame(&mut stream, &Frame::Hello(reply)).is_err() {
                    break;
                }
            }
        }
    });
    addr
}

/// A peer downgraded to protocol v1 under a running coordinator costs
/// the client a one-line 503 naming it and its version — none of its
/// frames is parsed as v2.
#[test]
fn an_older_peer_is_a_one_line_503() {
    // The startup probe's Hello is answered as this build would, each
    // query's as a v1 build would: same Hello layout, version 1.
    let addr = hello_peer(|n| if n == 0 { swope_cluster::PROTOCOL_VERSION } else { 1 });
    let coordinator = TestServer::start(
        ServerConfig { peers: vec![addr.to_string()], ..ServerConfig::default() },
        union_dataset(),
    );
    let reply = get(coordinator.addr, "/query/entropy-topk?dataset=tiny&k=2");
    assert_eq!(reply.status, 503, "{}", reply.body);
    let err = Json::parse(&reply.body).unwrap();
    let msg = err.get("error").unwrap().as_str().unwrap().to_owned();
    assert!(msg.ends_with(&format!("peer {addr}: speaks protocol v1")), "{msg}");
    assert!(!msg.contains('\n'), "error must be one line: {msg:?}");
}

/// A fleet that speaks protocol v1 from the start is refused at bind, in
/// the words a query would have used — not accepted and then answered
/// 503 a query at a time.
#[test]
fn coordinator_refuses_to_start_against_an_older_fleet() {
    let addr = hello_peer(|_| 1);
    let err = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        peers: vec![addr.to_string()],
        ..ServerConfig::default()
    });
    let msg = err.err().expect("bind must fail against a v1 fleet").to_string();
    assert!(msg.ends_with(&format!("peer {addr}: speaks protocol v1")), "{msg}");
    assert!(!msg.contains('\n'), "error must be one line: {msg:?}");
}

/// The startup probe checks the fleet's frames as a query would: halves
/// listed in the order they were cut start, and the same halves swapped
/// refuse to, in one line that names the peer out of place and says to
/// `swope split` the union again, not a 503 a query at a time.
#[test]
fn coordinator_refuses_to_start_over_swapped_halves() {
    let union = union_dataset();
    let (n, cut) = (union.num_rows(), union.num_rows() / 2);
    let head = TestServer::start(ServerConfig::default(), slice_rows(&union, 0, cut));
    let tail = TestServer::start(ServerConfig::default(), slice_rows(&union, cut, n));
    let bind = |peers: [&TestServer; 2]| {
        let peers = peers.iter().map(|p| p.addr.to_string()).collect();
        Server::bind(ServerConfig { addr: "127.0.0.1:0".into(), peers, ..ServerConfig::default() })
    };
    assert!(bind([&head, &tail]).is_ok(), "halves in order must start");
    let msg = bind([&tail, &head]).err().expect("swapped halves must not start").to_string();
    assert!(msg.contains(&format!("peer {}: ", head.addr)), "{msg}");
    assert!(msg.contains("`swope split` the union again"), "{msg}");
    assert!(!msg.contains('\n'), "error must be one line: {msg:?}");
}

#[test]
fn coordinator_refuses_to_start_when_a_peer_is_down() {
    // Reserve a port that refuses connections by binding and dropping.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let dead = probe.local_addr().unwrap();
    drop(probe);
    let err = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        peers: vec![dead.to_string()],
        peer_connect_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let msg = err.err().expect("bind must fail against a dead peer").to_string();
    assert!(msg.contains(&dead.to_string()), "error must name the peer: {msg}");
}

#[test]
fn debug_listings_honor_the_n_limit() {
    let server = TestServer::start(
        ServerConfig { trace: true, slow_ms: 0, ..ServerConfig::default() },
        union_dataset(),
    );
    for k in 1..=3 {
        let reply = get(server.addr, &format!("/query/entropy-topk?dataset=tiny&k={k}"));
        assert_eq!(reply.status, 200, "{}", reply.body);
    }

    let all = Json::parse(&get(server.addr, "/debug/traces").body).unwrap();
    assert_eq!(all.get("recorded_total").unwrap().as_u64(), Some(3));
    assert_eq!(all.get("returned").unwrap().as_u64(), Some(3));
    assert_eq!(all.get("truncated").unwrap().as_bool(), Some(false));

    let limited = Json::parse(&get(server.addr, "/debug/traces?n=1").body).unwrap();
    assert_eq!(limited.get("returned").unwrap().as_u64(), Some(1));
    assert_eq!(limited.get("truncated").unwrap().as_bool(), Some(true));
    let Json::Arr(traces) = limited.get("traces").unwrap() else { panic!("traces not an array") };
    // The limit keeps the newest trace, which queried k=3.
    assert!(traces[0].get("endpoint").unwrap().as_str() == Some("query_entropy_top_k"));

    let slow = Json::parse(&get(server.addr, "/debug/slow?n=2").body).unwrap();
    assert_eq!(slow.get("returned").unwrap().as_u64(), Some(2));
    assert_eq!(slow.get("truncated").unwrap().as_bool(), Some(true));

    let reply = get(server.addr, "/debug/traces?n=abc");
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(reply.body.contains('n'), "{}", reply.body);
}
