//! End-to-end tests over a real loopback `TcpStream`: bitwise identity
//! with the direct library path, cache-hit semantics, load shedding,
//! queueing deadlines, dataset management, graceful shutdown, and the
//! event-driven connection layer (keep-alive, pipelining, slow-loris
//! timeouts, per-tenant quotas, idle-connection capacity).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use swope_core::{
    entropy_filter, entropy_profile, entropy_top_k, run, Answer, AttrScore, Executor, NoopObserver,
    QueryStats, Rule, Scope, Shape, SwopeConfig,
};
use swope_obs::json::Json;
use swope_server::{Server, ServerConfig, ServerHandle};

fn tiny_dataset() -> swope_columnar::Dataset {
    swope_datagen::generate(&swope_datagen::corpus::tiny(300, 5), 0x5170)
}

struct TestServer {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(config: ServerConfig) -> Self {
        let server = Server::bind(ServerConfig { addr: "127.0.0.1:0".into(), ..config }).unwrap();
        server.registry().insert("tiny", tiny_dataset());
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

fn parse_reply(raw: &str) -> HttpReply {
    let (head, body) = raw.split_once("\r\n\r\n").expect("no header/body separator");
    let mut lines = head.lines();
    let status_line = lines.next().expect("empty response");
    let status = status_line.split_whitespace().nth(1).unwrap().parse().unwrap();
    let headers = lines
        .map(|l| {
            let (k, v) = l.split_once(':').unwrap();
            (k.trim().to_ascii_lowercase(), v.trim().to_owned())
        })
        .collect();
    HttpReply { status, headers, body: body.to_owned() }
}

/// One-shot exchange: sends raw bytes and reads to EOF. The request must
/// make the server close (send `Connection: close`, or be unparseable).
fn send_raw(addr: SocketAddr, request: &str) -> HttpReply {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    parse_reply(&raw)
}

fn get(addr: SocketAddr, path: &str) -> HttpReply {
    send_raw(addr, &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> HttpReply {
    send_raw(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Reads exactly one response off a keep-alive connection: headers up to
/// the blank line, then `Content-Length` body bytes — leaving the stream
/// open and positioned at the next response.
fn read_one_response(stream: &mut TcpStream) -> HttpReply {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).unwrap(), 1, "EOF inside response head");
        buf.push(byte[0]);
    }
    let head = String::from_utf8(buf.clone()).unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_owned))
        .expect("response has no Content-Length")
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).unwrap();
    buf.extend_from_slice(&body);
    parse_reply(&String::from_utf8(buf).unwrap())
}

/// Spawns a GET that parks a worker for `ms` (needs
/// `debug_sleep_endpoint: true`); join the handle to wait it out.
fn spawn_sleeper(addr: SocketAddr, ms: u64) -> std::thread::JoinHandle<u16> {
    std::thread::spawn(move || get(addr, &format!("/debug/sleep?ms={ms}")).status)
}

/// Value of a plain `name value` line in Prometheus exposition text.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse().ok()))
        .unwrap_or_else(|| panic!("metric {name} not found in:\n{text}"))
}

/// Asserts a served `scores` array is bitwise-identical to the library's.
fn assert_scores_match(served: &Json, expected: &[AttrScore], stats: &QueryStats) {
    let Json::Arr(scores) = served.get("scores").unwrap() else { panic!("scores not an array") };
    assert_eq!(scores.len(), expected.len());
    for (got, want) in scores.iter().zip(expected) {
        assert_eq!(got.get("attr").unwrap().as_u64(), Some(want.attr as u64));
        assert_eq!(got.get("name").unwrap().as_str(), Some(want.name.as_str()));
        for (field, value) in
            [("estimate", want.estimate), ("lower", want.lower), ("upper", want.upper)]
        {
            let served_bits = got.get(field).unwrap().as_f64().unwrap().to_bits();
            assert_eq!(served_bits, value.to_bits(), "{field} differs for attr {}", want.attr);
        }
    }
    let served_stats = served.get("stats").unwrap();
    assert_eq!(served_stats.get("sample_size").unwrap().as_u64(), Some(stats.sample_size as u64));
    assert_eq!(served_stats.get("iterations").unwrap().as_u64(), Some(stats.iterations as u64));
    assert_eq!(served_stats.get("rows_scanned").unwrap().as_u64(), Some(stats.rows_scanned));
}

#[test]
fn all_six_shapes_serve_library_identical_results() {
    let server = TestServer::start(ServerConfig::default());
    // The registry caps support at 1000 exactly like the CLI load path.
    let (ds, _) = tiny_dataset().cap_support(1000);

    let reply = get(server.addr, "/query/entropy-topk?dataset=tiny&k=2");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let r = entropy_top_k(&ds, 2, &SwopeConfig::with_epsilon(0.1)).unwrap();
    assert_scores_match(&Json::parse(&reply.body).unwrap(), &r.top, &r.stats);

    let reply = get(server.addr, "/query/entropy-filter?dataset=tiny&eta=1.0");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let r = entropy_filter(&ds, 1.0, &SwopeConfig::with_epsilon(0.05)).unwrap();
    assert_scores_match(&Json::parse(&reply.body).unwrap(), &r.accepted, &r.stats);

    // MI over the whole dataset reads its marginals from the sketch the
    // registry built on insert: `run` with that sketch.
    let sketch = swope_columnar::snapshot::build_sketch(&ds);
    let mi = |shape: Shape| -> Answer {
        let cfg = SwopeConfig::with_epsilon(0.5);
        let exec = Executor::sequential();
        run(&ds, &shape, &Scope::all(), Some(&sketch), &cfg, &mut NoopObserver, &exec).unwrap()
    };

    let reply = get(server.addr, "/query/mi-topk?dataset=tiny&target=0&k=2");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let r = mi(Shape::mi(0, Rule::TopK { k: 2 }));
    assert_scores_match(&Json::parse(&reply.body).unwrap(), &r.scores, &r.stats);

    let reply = get(server.addr, "/query/mi-filter?dataset=tiny&target=0&eta=0.05");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let r = mi(Shape::mi(0, Rule::Filter { eta: 0.05 }));
    assert_scores_match(&Json::parse(&reply.body).unwrap(), &r.scores, &r.stats);

    let reply = get(server.addr, "/query/entropy-profile?dataset=tiny");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let r = entropy_profile(&ds, 0.05, &SwopeConfig::with_epsilon(0.1)).unwrap();
    assert_scores_match(&Json::parse(&reply.body).unwrap(), &r.scores, &r.stats);

    let reply = get(server.addr, "/query/mi-profile?dataset=tiny&target=0");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let r = mi(Shape::mi(0, Rule::Profile { floor: 0.05 }));
    assert_scores_match(&Json::parse(&reply.body).unwrap(), &r.scores, &r.stats);

    // Explicit seed/epsilon overrides flow through to the library config.
    let reply = get(server.addr, "/query/entropy-topk?dataset=tiny&k=2&seed=7&epsilon=0.2");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let r = entropy_top_k(&ds, 2, &SwopeConfig::with_epsilon(0.2).with_seed(7)).unwrap();
    assert_scores_match(&Json::parse(&reply.body).unwrap(), &r.top, &r.stats);
}

/// An unscoped MI query reads its marginals from the sketch, a ranged one
/// samples them, and `/metrics` counts each under its source. (The
/// counters are process-wide and only grow, so other tests can only add.)
#[test]
fn mi_marginals_are_counted_by_source() {
    let server = TestServer::start(ServerConfig::default());
    let count = |source: &str| {
        let metrics = get(server.addr, "/metrics").body;
        metric(&metrics, &format!("swope_mi_marginals_total{{source=\"{source}\"}}"))
    };
    let (sketch, sampled) = (count("sketch"), count("sampled"));
    for path in [
        "/query/mi-topk?dataset=tiny&target=0&k=2&seed=31",
        "/query/mi-topk?dataset=tiny&target=0&k=2&seed=31&row_start=10",
    ] {
        assert_eq!(get(server.addr, path).status, 200, "{path}");
    }
    assert!(count("sketch") > sketch);
    assert!(count("sampled") > sampled);
}

#[test]
fn cache_hit_serves_identical_bytes_without_rerunning_the_query() {
    let server = TestServer::start(ServerConfig::default());
    let path = "/query/entropy-topk?dataset=tiny&k=3";

    let first = get(server.addr, path);
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-swope-cache"), Some("miss"));
    let metrics_before = get(server.addr, "/metrics").body;
    let scanned_before = metric(&metrics_before, "swope_rows_scanned_total");
    let hits_before = metric(&metrics_before, "swope_cache_hits_total");
    assert!(scanned_before > 0, "the miss must have run the adaptive loop");

    let second = get(server.addr, path);
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-swope-cache"), Some("hit"));
    assert_eq!(first.body, second.body, "hit must serve identical bytes");

    let metrics_after = get(server.addr, "/metrics").body;
    assert_eq!(
        metric(&metrics_after, "swope_rows_scanned_total"),
        scanned_before,
        "a cache hit must not scan any rows"
    );
    assert_eq!(metric(&metrics_after, "swope_cache_hits_total"), hits_before + 1);

    // A different parameterization misses again.
    let third = get(server.addr, "/query/entropy-topk?dataset=tiny&k=3&seed=9");
    assert_eq!(third.header("x-swope-cache"), Some("miss"));
}

/// A keep-alive GET as the tests write them, with optional extra header
/// lines (each `Name: value\r\n`).
fn keep_alive_get(path: &str, extra_headers: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: test\r\n{extra_headers}\r\n")
}

/// One pipelined write of hit · miss · hit: the hits are answered by the
/// event thread's lookup stage, the miss by a worker, and the three
/// responses still come back in request order.
#[test]
fn pipelined_hit_miss_hit_is_answered_in_request_order() {
    let server = TestServer::start(ServerConfig::default());
    let cached = "/query/entropy-topk?dataset=tiny&k=2";
    let warm = get(server.addr, cached);
    assert_eq!(warm.header("x-swope-cache"), Some("miss"));

    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let burst = [
        keep_alive_get(cached, ""),
        keep_alive_get("/query/entropy-topk?dataset=tiny&k=2&seed=41", ""),
        keep_alive_get(cached, ""),
    ]
    .concat();
    stream.write_all(burst.as_bytes()).unwrap();
    let replies: Vec<HttpReply> = (0..3).map(|_| read_one_response(&mut stream)).collect();
    for (reply, want) in replies.iter().zip(["hit", "miss", "hit"]) {
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(reply.header("x-swope-cache"), Some(want));
        assert_eq!(reply.header("connection"), Some("keep-alive"));
    }
    assert_eq!(replies[0].body, replies[2].body);
    assert_eq!(replies[0].body, warm.body, "a hit serves the stored bytes");
    assert_ne!(replies[0].body, replies[1].body, "another seed is another answer");
}

/// A saturated pool sheds only what needs a worker: with the one worker
/// parked and the one queue slot taken, a cached query is still answered
/// (the lookup precedes the shed check), the same query under another
/// seed is shed, and a tenant over quota is throttled even for a cached
/// query (the quota precedes the lookup).
#[test]
fn a_saturated_pool_still_answers_hits_and_quota_precedes_lookup() {
    let server = TestServer::start(ServerConfig {
        threads: 1,
        queue_capacity: 1,
        debug_sleep_endpoint: true,
        // Eight requests a tenant, then next to nothing: the anonymous
        // bucket carries this test's six, `mallory` spends her own.
        tenant_rps: Some(0.01),
        tenant_burst: Some(8.0),
        ..ServerConfig::default()
    });
    let cached = "/query/entropy-topk?dataset=tiny&k=3";
    assert_eq!(get(server.addr, cached).header("x-swope-cache"), Some("miss"));
    let busy = spawn_sleeper(server.addr, 1200);
    std::thread::sleep(Duration::from_millis(200));
    let queued = spawn_sleeper(server.addr, 0);
    std::thread::sleep(Duration::from_millis(200));

    let hit = get(server.addr, cached);
    assert_eq!(hit.status, 200, "{}", hit.body);
    assert_eq!(hit.header("x-swope-cache"), Some("hit"));

    let shed = get(server.addr, "/query/entropy-topk?dataset=tiny&k=3&seed=9");
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(shed.body.contains("overloaded"));

    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let ask = keep_alive_get(cached, "X-Swope-Api-Key: mallory\r\n");
    for spent in 0..8 {
        stream.write_all(ask.as_bytes()).unwrap();
        let reply = read_one_response(&mut stream);
        assert_eq!(reply.status, 200, "request {spent}: {}", reply.body);
        assert_eq!(reply.header("x-swope-cache"), Some("hit"));
    }
    stream.write_all(ask.as_bytes()).unwrap();
    let throttled = read_one_response(&mut stream);
    assert_eq!(throttled.status, 429, "{}", throttled.body);
    assert!(throttled.header("retry-after").is_some());
    assert!(throttled.header("x-swope-cache").is_none(), "a throttled request is never looked up");

    // Everything above was answered while the worker was still parked.
    assert_eq!(busy.join().unwrap(), 200);
    assert_eq!(queued.join().unwrap(), 200);
    // Reuse is counted where a request is parsed, whoever answers it.
    let metrics = get(server.addr, "/metrics").body;
    assert_eq!(
        metric(&metrics, "swope_conn_keepalive_reuses_total"),
        8,
        "requests 2..9 on mallory's socket, the 429 included"
    );
}

/// An answer served on the event thread keeps every side effect a routed
/// one has — cache counters (one lookup a request), response class,
/// labelled latency histogram, keep-alive reuse, access log — and a miss
/// is looked up once, not once per thread it visits.
#[test]
fn hits_served_on_the_event_thread_keep_every_side_effect() {
    let log = std::env::temp_dir().join(format!("swope-access-{}.log", std::process::id()));
    std::fs::remove_file(&log).ok();
    let server = TestServer::start(ServerConfig {
        access_log: Some(log.to_str().unwrap().to_owned()),
        ..ServerConfig::default()
    });
    const TWO_XX: &str = "swope_http_responses_total{class=\"2xx\"}";
    const LABELLED: &str = "swope_http_endpoint_duration_microseconds_count\
                            {endpoint=\"query_entropy_top_k\",dataset=\"tiny\"}";
    let before = get(server.addr, "/metrics").body;
    assert!(!before.contains(LABELLED), "no query served yet");

    // One socket: a miss, then three hits.
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let ask = keep_alive_get("/query/entropy-topk?dataset=tiny&k=2", "");
    for want in ["miss", "hit", "hit", "hit"] {
        stream.write_all(ask.as_bytes()).unwrap();
        let reply = read_one_response(&mut stream);
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(reply.header("x-swope-cache"), Some(want));
    }

    let after = get(server.addr, "/metrics").body;
    let delta = |name: &str| metric(&after, name) - metric(&before, name);
    assert_eq!(delta("swope_cache_hits_total"), 3);
    assert_eq!(delta("swope_cache_misses_total"), 1, "one lookup per miss");
    assert_eq!(delta(TWO_XX), 4 + 1, "the four queries and the first scrape's own response");
    assert_eq!(metric(&after, LABELLED), 4);
    assert_eq!(delta("swope_conn_keepalive_reuses_total"), 3, "requests 2..4 on the socket");

    let lines: Vec<String> = std::fs::read_to_string(&log)
        .unwrap()
        .lines()
        .filter(|l| l.contains("path=/query/entropy-topk"))
        .map(str::to_owned)
        .collect();
    assert_eq!(lines.len(), 4, "{lines:?}");
    let conn = lines[0].split(' ').find(|f| f.starts_with("conn=")).unwrap();
    for (i, (line, cache)) in lines.iter().zip(["miss", "hit", "hit", "hit"]).enumerate() {
        for field in [conn, &format!("req={}", i + 1), "status=200", &format!("cache={cache}")] {
            assert!(line.split(' ').any(|f| f == field), "no {field} in {line:?}");
        }
    }
    std::fs::remove_file(&log).ok();
}

/// The two answers admission control gives on its own — 429 for a tenant
/// over quota, 503 when the queue is full — are requests like any other:
/// each writes its access-log line and a labelled-histogram sample.
#[test]
fn throttled_and_shed_requests_reach_the_access_log() {
    let log = std::env::temp_dir().join(format!("swope-admission-{}.log", std::process::id()));
    std::fs::remove_file(&log).ok();
    let server = TestServer::start(ServerConfig {
        threads: 1,
        queue_capacity: 1,
        debug_sleep_endpoint: true,
        tenant_rps: Some(1.0),
        tenant_burst: Some(1.0),
        access_log: Some(log.to_str().unwrap().to_owned()),
        ..ServerConfig::default()
    });
    let addr = server.addr;
    let as_tenant = move |tenant: &str, path: &str| {
        send_raw(
            addr,
            &format!(
                "GET {path} HTTP/1.1\r\nHost: t\r\nX-Swope-Api-Key: {tenant}\r\n\
                 Connection: close\r\n\r\n"
            ),
        )
    };
    // alice's bucket holds one token: her second request is throttled.
    assert_eq!(as_tenant("alice", "/datasets").status, 200);
    assert_eq!(as_tenant("alice", "/datasets").status, 429);

    // Park the worker and fill the queue slot (a tenant each, so neither
    // is throttled); the next request that needs a worker is shed.
    let sleeper = |tenant: &'static str, ms: u64| {
        std::thread::spawn(move || as_tenant(tenant, &format!("/debug/sleep?ms={ms}")).status)
    };
    let busy = sleeper("busy", 900);
    std::thread::sleep(Duration::from_millis(200));
    let queued = sleeper("queued", 0);
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(as_tenant("bob", "/healthz").status, 503);
    assert_eq!(busy.join().unwrap(), 200);
    assert_eq!(queued.join().unwrap(), 200);

    let text = std::fs::read_to_string(&log).unwrap();
    let statuses = |path: &str| -> Vec<&str> {
        text.lines()
            .filter(|l| l.split(' ').any(|f| f == format!("path={path}")))
            .map(|l| l.split(' ').find(|f| f.starts_with("status=")).unwrap())
            .collect()
    };
    assert_eq!(statuses("/datasets"), ["status=200", "status=429"], "{text}");
    assert_eq!(statuses("/healthz"), ["status=503"], "{text}");

    let metrics = as_tenant("carol", "/metrics").body;
    let labelled = |endpoint: &str| {
        metric(
            &metrics,
            &format!(
                "swope_http_endpoint_duration_microseconds_count\
                 {{endpoint=\"{endpoint}\",dataset=\"-\"}}"
            ),
        )
    };
    assert_eq!(labelled("datasets"), 2, "the 429 is sampled too");
    assert_eq!(labelled("healthz"), 1, "the 503 is sampled too");
    std::fs::remove_file(&log).ok();
}

/// A trace records the path a request takes; it does not choose it. With
/// the single worker parked and the queue full, a traced repeat of a
/// cached query is still answered at admission — a hit, its id echoed —
/// and its tree is the lookup alone: no queue wait, no query.
#[test]
fn a_traced_hit_is_answered_at_admission_while_the_pool_is_saturated() {
    let server = TestServer::start(ServerConfig {
        threads: 1,
        queue_capacity: 1,
        debug_sleep_endpoint: true,
        ..ServerConfig::default()
    });
    let path = "/query/entropy-topk?dataset=tiny&k=2";
    assert_eq!(get(server.addr, path).header("x-swope-cache"), Some("miss"));
    let busy = spawn_sleeper(server.addr, 900);
    std::thread::sleep(Duration::from_millis(200));
    let queued = spawn_sleeper(server.addr, 0);
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(get(server.addr, "/healthz").status, 503, "the pool must be saturated");

    let reply = send_raw(
        server.addr,
        &format!(
            "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
             X-Swope-Trace: feedface\r\n\r\n"
        ),
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.header("x-swope-cache"), Some("hit"));
    assert_eq!(reply.header("x-swope-trace"), Some("00000000feedface"));
    assert_eq!(busy.join().unwrap(), 200);
    assert_eq!(queued.join().unwrap(), 200);

    let v = Json::parse(&get(server.addr, "/debug/traces").body).unwrap();
    assert_eq!(v.get("recorded_total").unwrap().as_u64(), Some(1), "the untraced miss left none");
    let Json::Arr(list) = v.get("traces").unwrap() else { panic!("traces not an array") };
    assert_eq!(list[0].get("trace_id").unwrap().as_str(), Some("00000000feedface"));
    assert_eq!(list[0].get("cache").unwrap().as_str(), Some("hit"));
    let Json::Arr(spans) = list[0].get("spans").unwrap() else { panic!("spans not an array") };
    let names: Vec<&str> = spans.iter().map(|s| s.get("name").unwrap().as_str().unwrap()).collect();
    for want in ["request", "cache_lookup"] {
        assert!(names.contains(&want), "missing span {want:?} in {names:?}");
    }
    assert!(!names.contains(&"queue_wait"), "a hit waits in no queue: {names:?}");
    assert!(!names.iter().any(|n| n.starts_with("query:")), "a hit runs no query: {names:?}");
}

#[test]
fn overload_sheds_with_503_and_retry_after() {
    let server = TestServer::start(ServerConfig {
        threads: 1,
        queue_capacity: 1,
        debug_sleep_endpoint: true,
        ..ServerConfig::default()
    });
    // Occupy the single worker, then fill the one queue slot.
    let busy = spawn_sleeper(server.addr, 900);
    std::thread::sleep(Duration::from_millis(200));
    let queued = spawn_sleeper(server.addr, 0);
    std::thread::sleep(Duration::from_millis(200));

    let reply = get(server.addr, "/healthz");
    assert_eq!(reply.status, 503, "{}", reply.body);
    assert_eq!(reply.header("retry-after"), Some("1"));
    assert!(reply.body.contains("overloaded"));

    // Once the sleeper finishes, service must recover.
    assert_eq!(busy.join().unwrap(), 200);
    assert_eq!(queued.join().unwrap(), 200);
    let mut recovered = false;
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(20));
        if get(server.addr, "/healthz").status == 200 {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "server did not recover after shedding");
    let metrics = get(server.addr, "/metrics").body;
    assert!(metric(&metrics, "swope_http_rejected_total") >= 1);
}

#[test]
fn burst_load_sheds_exactly_the_overflow_and_serves_the_rest() {
    // With the single worker parked and a queue of 2, a 12-connection
    // burst gets exactly (12 − queued) 503s, the queued ones are
    // eventually served, and the shed counter agrees with what clients
    // observed.
    let server = TestServer::start(ServerConfig {
        threads: 1,
        queue_capacity: 2,
        debug_sleep_endpoint: true,
        ..ServerConfig::default()
    });
    let busy = spawn_sleeper(server.addr, 800);
    std::thread::sleep(Duration::from_millis(200));

    let burst: Vec<_> = (0..12)
        .map(|_| {
            let addr = server.addr;
            std::thread::spawn(move || get(addr, "/healthz").status)
        })
        .collect();
    let statuses: Vec<u16> = burst.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(busy.join().unwrap(), 200);

    let ok = statuses.iter().filter(|&&s| s == 200).count();
    let shed = statuses.iter().filter(|&&s| s == 503).count();
    assert_eq!(ok + shed, 12, "unexpected statuses: {statuses:?}");
    assert!(ok >= 1, "queued requests must still be served: {statuses:?}");
    assert!(shed >= 1, "overflow must shed: {statuses:?}");
    let metrics = get(server.addr, "/metrics").body;
    assert_eq!(metric(&metrics, "swope_http_rejected_total"), shed as u64);
}

#[test]
fn requests_queued_past_their_deadline_get_503() {
    let log = std::env::temp_dir().join(format!("swope-deadline-{}.log", std::process::id()));
    std::fs::remove_file(&log).ok();
    let server = TestServer::start(ServerConfig {
        threads: 1,
        queue_capacity: 4,
        deadline: Duration::from_millis(100),
        debug_sleep_endpoint: true,
        access_log: Some(log.to_str().unwrap().to_owned()),
        ..ServerConfig::default()
    });
    let busy = spawn_sleeper(server.addr, 600);
    std::thread::sleep(Duration::from_millis(150));

    // This request queues behind the parked worker and ages past 100 ms.
    let reply = get(server.addr, "/healthz");
    assert_eq!(reply.status, 503, "{}", reply.body);
    assert!(reply.body.contains("deadline"));
    assert_eq!(busy.join().unwrap(), 200);
    let metrics = get(server.addr, "/metrics").body;
    assert!(metric(&metrics, "swope_http_deadline_expired_total") >= 1);
    // A deadline 503 is an answer like any other: one access-log line and
    // one labelled-latency sample.
    let text = std::fs::read_to_string(&log).unwrap();
    let lines: Vec<&str> =
        text.lines().filter(|l| l.split(' ').any(|f| f == "path=/healthz")).collect();
    assert_eq!(lines.len(), 1, "{text}");
    assert!(lines[0].split(' ').any(|f| f == "status=503"), "{text}");
    let labelled = "swope_http_endpoint_duration_microseconds_count\
                    {endpoint=\"healthz\",dataset=\"-\"}";
    assert_eq!(metric(&metrics, labelled), 1);
    std::fs::remove_file(&log).ok();
}

/// A request with no `X-Swope-Api-Key` is admitted, and counted, as the
/// `anonymous` tenant.
#[test]
fn a_keyless_request_counts_under_the_anonymous_tenant() {
    let server =
        TestServer::start(ServerConfig { tenant_rps: Some(100.0), ..ServerConfig::default() });
    assert_eq!(get(server.addr, "/healthz").status, 200);
    let metrics = send_raw(
        server.addr,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nX-Swope-Api-Key: ops\r\nConnection: close\r\n\r\n",
    )
    .body;
    assert_eq!(metric(&metrics, "swope_tenant_requests_total{tenant=\"anonymous\"}"), 1);
}

#[test]
fn datasets_can_be_posted_listed_and_queried() {
    let server = TestServer::start(ServerConfig::default());
    let dir = std::env::temp_dir().join("swope-server-int-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("uploaded.swop");
    swope_columnar::snapshot::write_file(&tiny_dataset(), &path).unwrap();

    let body = format!("{{\"path\":{:?},\"name\":\"fresh\"}}", path.to_str().unwrap());
    let reply = post(server.addr, "/datasets", &body);
    assert_eq!(reply.status, 201, "{}", reply.body);
    let described = Json::parse(&reply.body).unwrap();
    assert_eq!(described.get("name").unwrap().as_str(), Some("fresh"));
    assert_eq!(described.get("rows").unwrap().as_u64(), Some(300));

    let listing = get(server.addr, "/datasets");
    let parsed = Json::parse(&listing.body).unwrap();
    let Json::Arr(datasets) = parsed.get("datasets").unwrap() else { panic!("not an array") };
    let names: Vec<_> =
        datasets.iter().map(|d| d.get("name").unwrap().as_str().unwrap().to_owned()).collect();
    assert_eq!(names, vec!["fresh", "tiny"]);

    let reply = get(server.addr, "/query/entropy-topk?dataset=fresh&k=1");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let again = get(server.addr, "/query/entropy-topk?dataset=fresh&k=1");
    assert_eq!(again.header("x-swope-cache"), Some("hit"));

    // Re-posting under the same name bumps the generation, so the cache
    // key changes and the first query against it is a miss, not a stale
    // hit: the lookup stage reads the live registry entry per request.
    let gen_before = described.get("generation").unwrap().as_u64().unwrap();
    let reply = post(server.addr, "/datasets", &body);
    let gen_after = Json::parse(&reply.body).unwrap().get("generation").unwrap().as_u64().unwrap();
    assert!(gen_after > gen_before);
    let requery = get(server.addr, "/query/entropy-topk?dataset=fresh&k=1");
    assert_eq!(requery.header("x-swope-cache"), Some("miss"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn paged_datasets_serve_identically_and_report_residency() {
    // A multi-page dataset served two ways: decoded eagerly on the heap,
    // and out-of-core under a byte budget small enough to force eviction.
    let ds = swope_datagen::generate(&swope_datagen::corpus::tiny(100_000, 3), 0x5170);
    let dir = std::env::temp_dir().join("swope-server-pager-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("paged.swop");
    swope_columnar::snapshot::write_file(&ds, &path).unwrap();

    let heap = TestServer::start(ServerConfig::default());
    // Big enough for a few hot pages (a u8 page is 64 KiB), small enough
    // that the dataset's six pages cannot all stay resident — the full
    // column scan behind `/datasets` is then guaranteed to evict.
    let budget = 200_000u64;
    let paged = TestServer::start(ServerConfig {
        mmap: true,
        store_budget_bytes: Some(budget),
        ..ServerConfig::default()
    });
    let body = format!("{{\"path\":{:?},\"name\":\"pg\"}}", path.to_str().unwrap());
    assert_eq!(post(heap.addr, "/datasets", &body).status, 201);
    let reply = post(paged.addr, "/datasets", &body);
    assert_eq!(reply.status, 201, "{}", reply.body);
    let described = Json::parse(&reply.body).unwrap();
    assert_eq!(described.get("paged").unwrap().as_bool(), Some(true));

    // The pager changes where code bytes live, never what a query
    // answers: the served bodies must be bitwise-identical.
    // A loose epsilon keeps the sample (and so the page-fault count)
    // small; identity must hold regardless of sample size.
    let q = "/query/entropy-topk?dataset=pg&k=2&seed=7&epsilon=0.5";
    let a = get(heap.addr, q);
    let b = get(paged.addr, q);
    assert_eq!(a.status, 200, "{}", a.body);
    assert_eq!(a.body, b.body, "paged body must match the heap body byte for byte");

    // `bytes_in_memory` itemizes the true footprint: packed column bytes
    // (resident pages only, for a paged dataset), the sketch, and the
    // resident-page gauge. On the heap server the same object reports
    // the full eager footprint and no paging.
    let find = |addr: SocketAddr| -> Json {
        let listing = get(addr, "/datasets");
        let parsed = Json::parse(&listing.body).unwrap();
        let Json::Arr(datasets) = parsed.get("datasets").unwrap() else { panic!("not an array") };
        datasets
            .iter()
            .find(|d| d.get("name").unwrap().as_str() == Some("pg"))
            .expect("pg listed")
            .clone()
    };
    let h = find(heap.addr);
    assert_eq!(h.get("paged").unwrap().as_bool(), Some(false));
    let hb = h.get("bytes_in_memory").unwrap();
    let h_cols = hb.get("columns").unwrap().as_u64().unwrap();
    let h_sketch = hb.get("sketch").unwrap().as_u64().unwrap();
    assert_eq!(
        h_cols as usize,
        swope_columnar::stats::bytes_in_memory(&ds),
        "full eager footprint"
    );
    assert!(h_sketch > 0, "snapshot sketch bytes counted");
    assert_eq!(hb.get("resident_pages").unwrap().as_u64(), Some(0));
    assert_eq!(hb.get("total").unwrap().as_u64(), Some(h_cols + h_sketch));

    let p = find(paged.addr);
    assert_eq!(p.get("paged").unwrap().as_bool(), Some(true));
    let pb = p.get("bytes_in_memory").unwrap();
    let p_cols = pb.get("columns").unwrap().as_u64().unwrap();
    let p_resident = pb.get("resident_pages").unwrap().as_u64().unwrap();
    assert_eq!(p_cols, p_resident, "paged column footprint is its resident pages");
    assert!(p_resident <= budget, "resident {p_resident} exceeds budget {budget}");
    assert_eq!(
        pb.get("total").unwrap().as_u64().unwrap(),
        p_cols + pb.get("sketch").unwrap().as_u64().unwrap()
    );

    // A range holding one whole page, with little fringe or with more,
    // answers on both servers with the bytes `run` gives it without a
    // sketch: the sketch each server holds changes nothing about a range.
    let shape = Shape::entropy(Rule::TopK { k: 2 });
    let cfg = SwopeConfig::with_epsilon(0.5).with_seed(7);
    for row_end in [70_000, 99_000] {
        let ranged = format!(
            "/query/entropy-topk?dataset=pg&k=2&seed=7&epsilon=0.5&row_start=0&row_end={row_end}"
        );
        let a = get(heap.addr, &ranged);
        assert_eq!(a.status, 200, "{}", a.body);
        assert_eq!(a.body, get(paged.addr, &ranged).body);
        let (scope, exec) = (Scope::range(0, row_end), Executor::sequential());
        let want = run(&ds, &shape, &scope, None, &cfg, &mut NoopObserver, &exec).unwrap();
        assert_scores_match(&Json::parse(&a.body).unwrap(), &want.scores, &want.stats);
    }
    let metrics = get(heap.addr, "/metrics").body;
    // A heap load reads through a mapping too, but books nothing: the
    // pager families belong to out-of-core datasets alone.
    for family in ["faults_total", "crc_validations_total", "peak_resident_bytes"] {
        assert_eq!(metric(&metrics, &format!("swope_pager_{family}")), 0, "{family}");
    }

    // The pager metric families: faults happened, the budget forced
    // evictions, and steady-state residency honours the budget.
    let metrics = get(paged.addr, "/metrics").body;
    assert!(metric(&metrics, "swope_pager_faults_total") > 0);
    assert!(metric(&metrics, "swope_pager_evictions_total") > 0);
    assert!(metric(&metrics, "swope_pager_resident_bytes") <= budget);
    assert!(metric(&metrics, "swope_pager_peak_resident_bytes") <= budget);
    assert_eq!(metric(&metrics, "swope_pager_budget_bytes"), budget);
    // The compressed tier's families went with it.
    assert!(!metrics.contains("compress"), "{metrics}");
    std::fs::remove_file(&path).ok();
}

/// A corrupt page met by a query on the sequential executor panics the
/// handler. With one worker thread that used to be the end of the
/// server: the worker died and the connection stayed parked. The panic
/// is contained instead — one 500 naming the page, and both the worker
/// and the keep-alive socket serve the next request.
#[test]
fn corrupt_page_answers_500_and_the_worker_and_connection_survive() {
    // Three pages per column; flip one byte of the last column's last
    // page (the byte just before the sketch section, found through the
    // section table: 12-byte header, 24-byte entries, sketch entry last).
    let ds = swope_datagen::generate(&swope_datagen::corpus::tiny(150_000, 3), 0x5170);
    let dir = std::env::temp_dir().join(format!("swope-server-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.swop");
    swope_columnar::snapshot::write_file(&ds, &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let entry = 12 + (count - 1) * 24;
    let sketch_off = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap()) as usize;
    bytes[sketch_off - 1] ^= 1;
    std::fs::write(&path, bytes).unwrap();

    // Registered the way `swope serve <path> --mmap` does it: a paged
    // open defers every CRC to first touch, so the damage loads fine.
    // (`POST /datasets` would describe the columns — a full scan — and
    // answer its own contained 500.)
    let bound = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        mmap: true,
        ..ServerConfig::default()
    })
    .unwrap();
    bound.registry().load_path_paged(path.to_str().unwrap(), bound.pager()).unwrap();
    let server = TestServer {
        addr: bound.local_addr().unwrap(),
        handle: bound.handle(),
        thread: Some(std::thread::spawn(move || bound.run())),
    };

    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut ask = |path: &str| {
        stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes()).unwrap();
        read_one_response(&mut stream)
    };
    // Unscoped: the sample reaches rows past 131072 of every column.
    let first = ask("/query/entropy-topk?dataset=bad&k=2&seed=7&epsilon=0.1");
    assert_eq!(first.status, 500, "{}", first.body);
    let error = Json::parse(&first.body).unwrap();
    let message = error.get("error").unwrap().as_str().unwrap().to_owned();
    assert!(message.contains("page 2: checksum mismatch"), "{message}");
    assert!(!message.contains('\n'), "one line: {message:?}");
    assert_eq!(first.header("connection"), Some("keep-alive"));
    // Same socket, same (only) worker, scoped away from the bad page.
    let second =
        ask("/query/entropy-topk?dataset=bad&k=2&seed=7&epsilon=0.1&row_start=0&row_end=100000");
    assert_eq!(second.status, 200, "{}", second.body);
    assert!(second.body.contains("\"scores\""), "{}", second.body);

    let metrics = get(server.addr, "/metrics").body;
    assert_eq!(metric(&metrics, "swope_worker_panics_total"), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_paths_return_structured_json() {
    let server = TestServer::start(ServerConfig::default());
    let cases = [
        ("/no/such/endpoint", 404),
        ("/query/entropy-topk?dataset=missing&k=1", 404),
        ("/query/entropy-topk?dataset=tiny", 400),
        ("/query/entropy-topk?dataset=tiny&k=abc", 400),
        ("/query/unknown-shape?dataset=tiny", 400),
        ("/query/entropy-topk?dataset=tiny&k=999", 422),
        ("/query/mi-topk?dataset=tiny&target=notacolumn&k=1", 422),
    ];
    for (path, want) in cases {
        let reply = get(server.addr, path);
        assert_eq!(reply.status, want, "for {path}: {}", reply.body);
        assert!(Json::parse(&reply.body).unwrap().get("error").is_some(), "for {path}");
    }
    let reply = post(server.addr, "/healthz", "");
    assert_eq!(reply.status, 405);
    let reply = post(server.addr, "/datasets", "this is not json");
    assert_eq!(reply.status, 400);
    let reply = send_raw(server.addr, "NOT-HTTP\r\n\r\n");
    assert_eq!(reply.status, 400);
}

#[test]
fn shutdown_drains_queued_requests_before_returning() {
    let server = TestServer::start(ServerConfig {
        threads: 1,
        queue_capacity: 4,
        debug_sleep_endpoint: true,
        ..ServerConfig::default()
    });
    let busy = spawn_sleeper(server.addr, 500);
    std::thread::sleep(Duration::from_millis(100));
    let mut queued = TcpStream::connect(server.addr).unwrap();
    queued.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    queued.write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // Stop the server while the request is still queued behind the
    // parked worker: the drain must still answer it before run returns.
    let mut server = server;
    server.handle.shutdown();
    server.thread.take().unwrap().join().unwrap();
    assert_eq!(busy.join().unwrap(), 200);

    let mut raw = String::new();
    queued.read_to_string(&mut raw).unwrap();
    let reply = parse_reply(&raw);
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert!(reply.body.contains("\"status\":\"ok\""));
}

#[test]
fn pooled_queries_report_exec_stats_and_serve_identical_bytes() {
    // No result cache: `threads` is not part of its key, and the second
    // request below has to run.
    let server = TestServer::start(ServerConfig {
        exec_threads: 2,
        cache_capacity: 0,
        ..ServerConfig::default()
    });
    let metrics = get(server.addr, "/metrics").body;
    assert_eq!(metric(&metrics, "swope_exec_pool_workers"), 2);
    assert_eq!(metric(&metrics, "swope_exec_dispatches_total"), 0);

    // threads=1 (the default) runs inline on the HTTP worker and must
    // leave the pool counters untouched.
    let seq = get(server.addr, "/query/entropy-topk?dataset=tiny&k=2");
    assert_eq!(seq.status, 200, "{}", seq.body);
    let metrics = get(server.addr, "/metrics").body;
    assert_eq!(metric(&metrics, "swope_exec_dispatches_total"), 0);

    // threads=2 dispatches on the shared pool. The response body carries
    // no executor detail, so the bytes must match the inline run exactly.
    let pooled = get(server.addr, "/query/entropy-topk?dataset=tiny&k=2&threads=2");
    assert_eq!(pooled.status, 200, "{}", pooled.body);
    assert_eq!(seq.body, pooled.body, "pooled run must serve bitwise-identical bytes");

    let metrics = get(server.addr, "/metrics").body;
    assert!(metric(&metrics, "swope_exec_dispatches_total") > 0);
    assert!(metric(&metrics, "swope_exec_chunks_total") > 0);
    assert!(metric(&metrics, "swope_exec_items_total") > 0);
}

#[test]
fn datasets_report_column_widths_and_store_metrics() {
    let server = TestServer::start(ServerConfig::default());
    let listing = get(server.addr, "/datasets");
    let parsed = Json::parse(&listing.body).unwrap();
    let Json::Arr(datasets) = parsed.get("datasets").unwrap() else { panic!("not an array") };
    let rows = datasets[0].get("rows").unwrap().as_u64().unwrap();
    let Json::Arr(cols) = datasets[0].get("column_stats").unwrap() else { panic!("not an array") };
    for c in cols {
        let width = c.get("code_width").unwrap().as_u64().unwrap();
        let bytes = c.get("bytes_in_memory").unwrap().as_u64().unwrap();
        assert!(matches!(width, 8 | 16 | 32), "width {width}");
        assert_eq!(bytes, rows * width / 8, "bytes must be rows × width");
    }

    let metrics = get(server.addr, "/metrics").body;
    let in_memory = metric(&metrics, "swope_store_bytes_in_memory");
    let saved = metric(&metrics, "swope_store_bytes_saved");
    assert!(in_memory > 0);
    // in_memory + saved reconstructs the all-u32 footprint exactly.
    assert_eq!(in_memory + saved, rows * 4 * cols.len() as u64);
    assert!(metrics.contains("swope_store_columns{width=\"u8\"}"));
}

#[test]
fn traced_request_round_trips_span_tree_through_debug_endpoints() {
    let server = TestServer::start(ServerConfig { slow_ms: 0, ..ServerConfig::default() });
    let reply = send_raw(
        server.addr,
        "GET /query/entropy-topk?dataset=tiny&k=2 HTTP/1.1\r\nHost: test\r\n\
         Connection: close\r\nX-Swope-Trace: deadbeef1234\r\n\r\n",
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.header("x-swope-trace"), Some("0000deadbeef1234"), "canonical echo");
    assert_eq!(reply.header("x-swope-cache"), Some("miss"));

    let traces = get(server.addr, "/debug/traces");
    assert_eq!(traces.status, 200);
    let v = Json::parse(&traces.body).unwrap();
    assert_eq!(v.get("recorded_total").unwrap().as_u64(), Some(1));
    let Json::Arr(list) = v.get("traces").unwrap() else { panic!("traces not an array") };
    let t = &list[0];
    assert_eq!(t.get("trace_id").unwrap().as_str(), Some("0000deadbeef1234"));
    assert_eq!(t.get("endpoint").unwrap().as_str(), Some("query_entropy_top_k"));
    assert_eq!(t.get("dataset").unwrap().as_str(), Some("tiny"));
    assert_eq!(t.get("cache").unwrap().as_str(), Some("miss"));
    assert_eq!(t.get("status").unwrap().as_u64(), Some(200));
    let wall = t.get("wall_ns").unwrap().as_u64().unwrap();

    let Json::Arr(spans) = t.get("spans").unwrap() else { panic!("spans not an array") };
    let span = |name: &str| {
        spans
            .iter()
            .find(|s| s.get("name").unwrap().as_str() == Some(name))
            .unwrap_or_else(|| panic!("missing span {name:?} in {spans:?}"))
    };
    let root = span("request");
    assert!(root.get("parent").unwrap().as_u64().is_none(), "request must be the root");
    // The miss waits in the queue only after admission looked it up.
    let lookup_end = span("cache_lookup").get("end_ns").unwrap().as_u64().unwrap();
    let wait_start = span("queue_wait").get("start_ns").unwrap().as_u64().unwrap();
    assert!(wait_start >= lookup_end, "queue_wait starts at {wait_start} < {lookup_end}");
    let query = span("query:entropy_top_k");
    let query_id = query.get("id").unwrap().as_u64().unwrap();
    let query_ns = query.get("end_ns").unwrap().as_u64().unwrap()
        - query.get("start_ns").unwrap().as_u64().unwrap();
    assert!(query_ns <= wall, "query span exceeds request wall time");
    // The adaptive loop's phases parent onto the query span, run
    // sequentially, and their nanos sum within the query's wall time.
    let mut phase_total = 0u64;
    for phase in ["sample_grow", "ingest", "update_bounds", "decide"] {
        let s = span(phase);
        assert_eq!(s.get("parent").unwrap().as_u64(), Some(query_id), "{phase} parent");
        phase_total += s.get("end_ns").unwrap().as_u64().unwrap()
            - s.get("start_ns").unwrap().as_u64().unwrap();
    }
    assert!(phase_total > 0, "phases recorded no time");
    assert!(phase_total <= query_ns, "phase nanos {phase_total} exceed query wall {query_ns}");

    // slow_ms = 0 classifies every traced request as slow.
    let slow = get(server.addr, "/debug/slow");
    assert!(slow.body.contains("0000deadbeef1234"), "{}", slow.body);
    let metrics = get(server.addr, "/metrics").body;
    assert_eq!(metric(&metrics, "swope_traces_recorded_total"), 1);
    assert_eq!(metric(&metrics, "swope_slow_queries_total"), 1);

    // An untraced request records nothing new.
    get(server.addr, "/query/entropy-topk?dataset=tiny&k=1");
    let v = Json::parse(&get(server.addr, "/debug/traces").body).unwrap();
    assert_eq!(v.get("recorded_total").unwrap().as_u64(), Some(1));
}

#[test]
fn trace_mode_traces_every_query_and_labels_endpoint_latency() {
    let server = TestServer::start(ServerConfig { trace: true, ..ServerConfig::default() });
    let reply = get(server.addr, "/query/mi-profile?dataset=tiny&target=0");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let id = reply.header("x-swope-trace").expect("trace id assigned without a header");
    assert_eq!(id.len(), 16, "canonical id: {id}");
    let traces = get(server.addr, "/debug/traces").body;
    assert!(traces.contains("query:mi_profile"), "{traces}");
    // Tracing enables store gather timing, so the aggregate span appears.
    assert!(traces.contains("\"name\":\"store_gather\""), "{traces}");
    let metrics = get(server.addr, "/metrics").body;
    assert!(metrics.contains(
        "swope_http_endpoint_duration_microseconds_count\
         {endpoint=\"query_mi_profile\",dataset=\"tiny\"}"
    ));
    assert!(metrics.contains("swope_http_request_duration_microseconds_approx_quantile"));
}

#[test]
fn healthz_reports_gauges() {
    let server = TestServer::start(ServerConfig::default());
    let reply = get(server.addr, "/healthz");
    assert_eq!(reply.status, 200);
    let v = Json::parse(&reply.body).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(v.get("datasets").unwrap().as_u64(), Some(1));
}

/// Keep-alive: one socket serves many requests, each byte-identical to
/// what a fresh `Connection: close` exchange serves, and the reuse
/// counter records the second-and-later requests.
#[test]
fn keep_alive_reuses_one_socket_with_identical_bytes() {
    let server = TestServer::start(ServerConfig::default());
    let paths = [
        "/query/entropy-topk?dataset=tiny&k=2",
        "/healthz",
        "/query/mi-topk?dataset=tiny&target=0&k=1",
        "/datasets",
    ];
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut kept: Vec<HttpReply> = Vec::new();
    for path in paths {
        stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes()).unwrap();
        let reply = read_one_response(&mut stream);
        assert_eq!(reply.header("connection"), Some("keep-alive"), "{path}");
        kept.push(reply);
    }
    drop(stream);
    for (path, reply) in paths.iter().zip(&kept) {
        let fresh = get(server.addr, path);
        assert_eq!(reply.status, fresh.status, "{path}");
        // Query responses embed no connection state, so cache hit vs miss
        // is the only allowed header difference — bodies must be equal
        // except the healthz queue gauge, which is time-dependent; compare
        // the deterministic ones byte-for-byte.
        if !path.contains("healthz") {
            assert_eq!(reply.body, fresh.body, "{path} served different bytes under keep-alive");
        }
    }
    let metrics = get(server.addr, "/metrics").body;
    assert!(
        metric(&metrics, "swope_conn_keepalive_reuses_total") >= 3,
        "requests 2..4 on the socket are reuses"
    );
    assert!(metric(&metrics, "swope_conn_accepted_total") >= 5);
}

/// Pipelining: several requests written back-to-back in one burst are
/// answered in order on the same socket.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = TestServer::start(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let burst = "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n\
                 GET /datasets HTTP/1.1\r\nHost: test\r\n\r\n\
                 GET /query/entropy-topk?dataset=tiny&k=1 HTTP/1.1\r\nHost: test\r\n\
                 Connection: close\r\n\r\n";
    stream.write_all(burst.as_bytes()).unwrap();
    let first = read_one_response(&mut stream);
    let second = read_one_response(&mut stream);
    let mut rest = String::new();
    stream.read_to_string(&mut rest).unwrap();
    let third = parse_reply(&rest);
    assert!(first.body.contains("\"status\":\"ok\""), "healthz first: {}", first.body);
    assert!(second.body.contains("\"datasets\""), "datasets second: {}", second.body);
    assert_eq!(third.status, 200);
    assert!(third.body.contains("\"scores\""), "query third: {}", third.body);
    assert_eq!(third.header("connection"), Some("close"));
    // The pipelined query serves the same bytes as a fresh connection.
    let fresh = get(server.addr, "/query/entropy-topk?dataset=tiny&k=1");
    assert_eq!(third.body, fresh.body);
}

/// `Connection: close` and HTTP/1.0 both end the connection after one
/// response; HTTP/1.0 with `Connection: keep-alive` keeps it open.
#[test]
fn connection_close_and_http10_semantics_are_honored() {
    let server = TestServer::start(ServerConfig::default());
    // Explicit close: read_to_string returning proves the server closed.
    let reply = get(server.addr, "/healthz");
    assert_eq!(reply.header("connection"), Some("close"));
    // HTTP/1.0 defaults to close.
    let reply = send_raw(server.addr, "GET /healthz HTTP/1.0\r\nHost: test\r\n\r\n");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("connection"), Some("close"));
    // HTTP/1.0 + keep-alive stays open for a second exchange.
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\nHost: test\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let first = read_one_response(&mut stream);
    assert_eq!(first.header("connection"), Some("keep-alive"));
    stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut rest = String::new();
    stream.read_to_string(&mut rest).unwrap();
    assert_eq!(parse_reply(&rest).status, 200);
}

/// A slow-loris client holding a partial request is answered 408 and
/// cleanly closed once the read timeout expires — it cannot hold a
/// connection slot forever.
#[test]
fn slow_loris_partial_request_gets_408_and_a_clean_close() {
    let server = TestServer::start(ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(b"GET /healthz HT").unwrap(); // never finishes the line
    let start = Instant::now();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap(); // EOF = server closed us
    assert!(start.elapsed() < Duration::from_secs(5), "timeout did not fire");
    let reply = parse_reply(&raw);
    assert_eq!(reply.status, 408, "{raw}");
    let metrics = get(server.addr, "/metrics").body;
    assert!(metric(&metrics, "swope_conn_timeouts_total") >= 1);
}

/// Idle connections cost a file descriptor, not a worker: with ONE
/// worker thread, hundreds of parked keep-alive connections leave the
/// server fully responsive, and the census gauges see them.
#[test]
fn idle_connections_consume_no_worker_threads() {
    let server = TestServer::start(ServerConfig {
        threads: 1,
        max_conns: 3000,
        keep_alive: Duration::from_secs(60),
        ..ServerConfig::default()
    });
    // Park a crowd of idle connections (scaled well under typical fd
    // rlimits; the event loop holds one fd per connection and nothing
    // else). Some opens may be refused under a tight accept backlog —
    // retry a few times and require a large crowd, not perfection.
    let mut idle = Vec::new();
    for _ in 0..1000 {
        match TcpStream::connect(server.addr) {
            Ok(s) => idle.push(s),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    assert!(idle.len() >= 900, "only {} idle connections opened", idle.len());
    // Give the event loop a tick to accept the tail of the crowd.
    std::thread::sleep(Duration::from_millis(100));

    // The single worker is still instantly available.
    let reply = get(server.addr, "/healthz");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let metrics = get(server.addr, "/metrics").body;
    assert!(
        metric(&metrics, "swope_conn_open") >= idle.len() as u64,
        "census missed the idle crowd:\n{metrics}"
    );
    // A query still runs fine with the crowd parked.
    let reply = get(server.addr, "/query/entropy-topk?dataset=tiny&k=1");
    assert_eq!(reply.status, 200, "{}", reply.body);
    drop(idle);
}

/// Connections past `max_conns` are answered 503 immediately.
#[test]
fn connections_past_the_cap_get_503() {
    let server = TestServer::start(ServerConfig {
        max_conns: 4,
        keep_alive: Duration::from_secs(60),
        ..ServerConfig::default()
    });
    let idle: Vec<_> = (0..4).map(|_| TcpStream::connect(server.addr).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(100)); // let them be accepted
    let mut over = TcpStream::connect(server.addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut raw = String::new();
    over.read_to_string(&mut raw).unwrap();
    let reply = parse_reply(&raw);
    assert_eq!(reply.status, 503, "{raw}");
    assert!(reply.body.contains("connection limit"));
    drop(idle);
}

/// Per-tenant token buckets: a tenant that exhausts its burst gets 429 +
/// Retry-After on the SAME keep-alive connection (throttling does not
/// close it), while another tenant and the anonymous bucket sail
/// through.
#[test]
fn tenant_quotas_throttle_with_429_and_retry_after() {
    let server = TestServer::start(ServerConfig {
        tenant_rps: Some(0.5),
        tenant_burst: Some(2.0),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let req = "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Swope-Api-Key: alice\r\n\r\n";
    let mut statuses = Vec::new();
    for _ in 0..4 {
        stream.write_all(req.as_bytes()).unwrap();
        let reply = read_one_response(&mut stream);
        statuses.push(reply.status);
        if reply.status == 429 {
            assert!(reply.header("retry-after").is_some(), "429 without Retry-After");
            assert_eq!(
                reply.header("connection"),
                Some("keep-alive"),
                "throttling must not close the connection"
            );
        }
    }
    assert_eq!(&statuses[..2], &[200, 200], "burst admits first: {statuses:?}");
    assert!(statuses[2..].contains(&429), "burst exhausted must throttle: {statuses:?}");
    // Other tenants are unaffected by alice's empty bucket.
    let reply = send_raw(
        server.addr,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Swope-Api-Key: bob\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(reply.status, 200);
    let reply = get(server.addr, "/healthz"); // anonymous bucket
    assert_eq!(reply.status, 200);
    let metrics = get(server.addr, "/metrics").body;
    assert!(metrics.contains("swope_tenant_throttled_total{tenant=\"alice\"}"), "{metrics}");
    assert!(metrics.contains("swope_tenant_requests_total{tenant=\"bob\"}"), "{metrics}");
}

/// The connection gauges and counters render and add up.
#[test]
fn connection_metrics_census_renders() {
    let server = TestServer::start(ServerConfig {
        keep_alive: Duration::from_secs(60),
        ..ServerConfig::default()
    });
    let idle: Vec<_> = (0..3).map(|_| TcpStream::connect(server.addr).unwrap()).collect();
    std::thread::sleep(Duration::from_millis(150)); // accepted + census tick
    let metrics = get(server.addr, "/metrics").body;
    assert!(metric(&metrics, "swope_conn_open") >= 3);
    assert!(metric(&metrics, "swope_conn_accepted_total") >= 4);
    assert!(metrics.contains("swope_conn_idle"), "{metrics}");
    assert!(metrics.contains("swope_conn_reading"), "{metrics}");
    assert!(metrics.contains("swope_conn_writing"), "{metrics}");
    drop(idle);
}
