//! Connection-layer benchmark: what the event loop buys over
//! connection-per-request serving.
//!
//! Four questions, one JSON. First, request throughput over a small
//! population of reused keep-alive sockets (pipelined batches, the
//! cheapest legal HTTP/1.1 client behaviour) versus the same population
//! opening a fresh `Connection: close` socket per request — the ratio is
//! the keep-alive speedup the docs advertise. The close path doubles as
//! the accepted-connections/sec figure, since every request there costs
//! one full connect/accept/teardown. Third, the marginal resident memory
//! of an idle connection: the event loop holds idle sockets as slab
//! entries with empty buffers instead of parked threads, so a thousand
//! of them should cost kilobytes each, not megabytes. Fourth, what a
//! cached `/query/*` costs next to `/healthz` when both are asked the way
//! an interactive client asks — one socket, one request in flight: the
//! hit is answered on the event thread, `/healthz` crosses to a worker
//! and back, so `hit_over_healthz` is the price of the hand-off as a
//! ratio of two loops in one process. Medians are persisted to
//! `results/BENCH_serve.json`; the CI serve-smoke step runs this with a
//! short `SWOPE_MICRO_MS` and asserts that the fields exist and that
//! ratio, not the wall-clock numbers.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use swope_bench::micro::{black_box, Group};
// Server and clients share one process RSS — the server side dominates,
// since a client socket is just an fd.
use swope_bench::rss_bytes;
use swope_obs::json::ObjectWriter;
use swope_server::{Server, ServerConfig};

/// Requests written back-to-back per timed batch on a reused socket.
const PIPELINE: usize = 64;
/// Concurrent client connections in both throughput scenarios — what a
/// load generator like `wrk -c4` would hold open.
const CLIENTS: usize = 4;
/// Idle sockets opened for the marginal-memory measurement.
const IDLE_CONNS: usize = 1000;

fn start_server() -> (SocketAddr, swope_server::ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        queue_capacity: 256,
        keep_alive: Duration::from_secs(60),
        max_conns: IDLE_CONNS + 64,
        handle_signals: false,
        ..ServerConfig::default()
    })
    .expect("bench server binds");
    server
        .registry()
        .insert("bench", swope_datagen::generate(&swope_datagen::corpus::tiny(200, 4), 0xBE7C));
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    (addr, handle, thread)
}

/// Buffered reader for back-to-back HTTP/1.1 responses. Byte-at-a-time
/// header reads would cost ~100 syscalls per response and dominate the
/// measurement; this reads in 16 KiB gulps and scans in memory.
struct RespReader {
    buf: Vec<u8>,
    pos: usize,
}

impl RespReader {
    fn new() -> Self {
        Self { buf: Vec::with_capacity(16 * 1024), pos: 0 }
    }

    /// Consumes one `Content-Length`-framed response, asserting a 200.
    fn read_response(&mut self, stream: &mut TcpStream) {
        let header_end = loop {
            if let Some(i) = self.buf[self.pos..].windows(4).position(|w| w == b"\r\n\r\n") {
                break self.pos + i + 4;
            }
            self.refill(stream);
        };
        let head = String::from_utf8_lossy(&self.buf[self.pos..header_end]);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let content_length: usize = head
            .lines()
            .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_owned))
            .and_then(|v| v.trim().parse().ok())
            .expect("content-length header");
        while self.buf.len() < header_end + content_length {
            self.refill(stream);
        }
        self.pos = header_end + content_length;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
    }

    fn refill(&mut self, stream: &mut TcpStream) {
        let mut chunk = [0u8; 16 * 1024];
        let n = stream.read(&mut chunk).expect("response bytes");
        assert!(n > 0, "unexpected EOF mid-response");
        self.buf.extend_from_slice(&chunk[..n]);
    }
}

fn main() {
    let (addr, handle, thread) = start_server();

    // CLIENTS sockets reused for the whole benchmark: each timed call
    // has every client write PIPELINE requests back-to-back and read the
    // responses back in order, so one round serves CLIENTS * PIPELINE
    // requests over sockets that never close.
    let mut reused: Vec<TcpStream> = (0..CLIENTS)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            s
        })
        .collect();
    let batch: Vec<u8> =
        "GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n".repeat(PIPELINE).into_bytes();
    let round = (CLIENTS * PIPELINE) as f64;

    let mut g = Group::new("serve_connection_layer");
    let keepalive_round_ns = g.bench("healthz_keepalive_4x64_pipelined", || {
        std::thread::scope(|scope| {
            for stream in reused.iter_mut() {
                scope.spawn(|| {
                    let mut reader = RespReader::new();
                    stream.write_all(&batch).unwrap();
                    for _ in 0..PIPELINE {
                        reader.read_response(stream);
                    }
                });
            }
        });
        black_box(())
    });
    let keepalive_ns = keepalive_round_ns / round;

    // The same CLIENTS-wide population, but every request pays a fresh
    // connect, a `Connection: close` exchange, and an observed EOF.
    let close_round_ns = g.bench("healthz_close_per_request_4x64", || {
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| {
                    for _ in 0..PIPELINE {
                        let mut stream = TcpStream::connect(addr).unwrap();
                        stream.set_nodelay(true).unwrap();
                        stream
                            .write_all(
                                b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\
                                  Connection: close\r\n\r\n",
                            )
                            .unwrap();
                        // Read to the EOF the server's close produces;
                        // one response rides in it.
                        let mut raw = Vec::new();
                        stream.read_to_end(&mut raw).unwrap();
                        assert!(raw.starts_with(b"HTTP/1.1 200"), "bad close-path response");
                        black_box(raw);
                    }
                });
            }
        });
        black_box(())
    });
    let close_ns = close_round_ns / round;

    // One socket, one request in flight: a result-cache hit (stored by
    // the warm-up request below) against `/healthz`.
    let mut unpipelined = |name: &str, path: &str| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes();
        let mut reader = RespReader::new();
        let mut ask = move || {
            stream.write_all(&request).unwrap();
            reader.read_response(&mut stream);
        };
        ask();
        g.bench(name, ask)
    };
    let query_hit_ns =
        unpipelined("query_hit_unpipelined", "/query/entropy-topk?dataset=bench&k=2");
    let healthz_unpipelined_ns = unpipelined("healthz_unpipelined", "/healthz");

    // Marginal idle memory: park IDLE_CONNS sockets that never send a
    // byte and read the RSS delta once the server has registered them.
    let rss_before = rss_bytes();
    let mut parked = Vec::with_capacity(IDLE_CONNS);
    for _ in 0..IDLE_CONNS {
        parked.push(TcpStream::connect(addr).unwrap());
    }
    std::thread::sleep(Duration::from_millis(200));
    let idle_bytes_per_conn = match (rss_before, rss_bytes()) {
        (Some(before), Some(after)) => (after.saturating_sub(before)) as f64 / IDLE_CONNS as f64,
        _ => -1.0, // no /proc on this platform
    };
    drop(parked);

    let keepalive_rps = 1e9 / keepalive_ns.max(1.0);
    let close_rps = 1e9 / close_ns.max(1.0);
    let mut w = ObjectWriter::new();
    w.str_field("bench", "serve")
        .usize_field("clients", CLIENTS)
        .usize_field("pipeline_depth", PIPELINE)
        .f64_field("keepalive_ns_per_req", keepalive_ns)
        .f64_field("close_ns_per_req", close_ns)
        .f64_field("keepalive_reqs_per_sec", keepalive_rps)
        .f64_field("close_reqs_per_sec", close_rps)
        .f64_field("keepalive_speedup", keepalive_rps / close_rps.max(1.0))
        // Every close-per-request exchange is one accepted connection.
        .f64_field("conns_per_sec", close_rps)
        .f64_field("query_hit_ns_per_req", query_hit_ns)
        .f64_field("healthz_unpipelined_ns_per_req", healthz_unpipelined_ns)
        .f64_field("hit_over_healthz", query_hit_ns / healthz_unpipelined_ns.max(1.0))
        .usize_field("idle_conns", IDLE_CONNS)
        .f64_field("idle_rss_bytes_per_conn", idle_bytes_per_conn);
    let json = w.finish();

    handle.shutdown();
    thread.join().unwrap();

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_serve.json");
    std::fs::write(out, format!("{json}\n")).expect("writing results/BENCH_serve.json");
    println!("\nwrote {out}");
    println!("{json}");
}
