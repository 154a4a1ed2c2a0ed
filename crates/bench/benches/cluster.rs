//! Cluster-layer benchmark: what the exact count-merge protocol costs.
//!
//! Two questions, one JSON. First, the shard overhead in-process: the
//! same seeded entropy top-k unsharded vs split across 4 count-merge
//! shards (the merge is pure integer addition, so any gap is shard
//! bookkeeping, not estimation work). Second, the wire tax per
//! iteration: encoding and decoding a real `CountMerge` frame — the
//! dominant frame class, one per shard per doubling — its size per
//! histogram entry, and the CRC-32 kernel every frame passes through
//! twice. Medians are persisted to `results/BENCH_cluster.json`; the CI
//! cluster-smoke step runs this with `SWOPE_MICRO_MS=1`, asserts the
//! fields exist and gates the one machine-independent number, bytes per
//! entry.

use std::io::Cursor;

use swope_bench::micro::{black_box, Group};
use swope_cluster::frame::{read_frame, write_frame, CountMergeFrame, Frame};
use swope_columnar::{crc32, Dataset};
use swope_core::{
    entropy_top_k, run_sharded, Answer, CountRequest, Executor, LocalShardSource, NoopObserver,
    Rule, Shape, ShardTransport, SwopeConfig,
};
use swope_datagen::{corpus, generate};
use swope_obs::json::ObjectWriter;

const K: usize = 4;
const SHARDS: usize = 4;
const SEED: u64 = 0xC105;

/// Bytes the CRC kernel is timed over: one protocol-v1 `CountMerge`.
const CRC_BYTES: usize = 120_000;

fn dataset() -> Dataset {
    // ~29k rows x 100 columns of the cdc profile.
    generate(&corpus::cdc(1.0 / 128.0), 0x5170)
}

/// The `CountMerge` a peer sends for one doubling, as `swope-e2e` builds
/// it: one of two shards' counts for every attribute at a sample of 8192
/// rows. Returns the frame and the entries it carries.
fn count_merge_frame(ds: &Dataset, exec: &Executor) -> (Frame, u64) {
    let mut source = LocalShardSource::new(ds, 2, &SwopeConfig::default(), exec).unwrap();
    let request = CountRequest { target: None, live: (0..ds.num_attrs()).collect() };
    let mut counts = source.advance(8192, &request).unwrap().swap_remove(0);
    let frame = CountMergeFrame::from_counts(&mut counts);
    let entries = frame.entries();
    (Frame::CountMerge(frame), entries)
}

fn main() {
    let ds = dataset();
    let cfg = SwopeConfig::with_epsilon(0.1).with_seed(SEED);
    let exec = Executor::sequential();

    let mut g = Group::new("cluster_shard_overhead");
    let unsharded_ns =
        g.bench("entropy_topk_unsharded", || black_box(entropy_top_k(&ds, K, &cfg).unwrap()));
    let sharded = || -> Answer {
        let mut source = LocalShardSource::new(&ds, SHARDS, &cfg, &exec).unwrap();
        let shape = Shape::entropy(Rule::TopK { k: K });
        run_sharded(&mut source, &shape, &cfg, &mut NoopObserver, &exec).unwrap()
    };
    let sharded_ns = g.bench("entropy_topk_sharded_4", || black_box(sharded()));

    // Sanity: the shard path must agree bitwise before its numbers mean
    // anything.
    let a = entropy_top_k(&ds, K, &cfg).unwrap();
    assert_eq!(a.top, sharded().scores, "sharded run diverged from unsharded");
    let rows_scanned = a.stats.rows_scanned;

    let (frame, entries) = count_merge_frame(&ds, &exec);
    let mut encoded = Vec::new();
    write_frame(&mut encoded, &frame).unwrap();
    let frame_bytes = encoded.len();

    let mut g = Group::new("cluster_frame_codec");
    let encode_ns = g.bench("count_merge_encode", || {
        let mut buf = Vec::with_capacity(frame_bytes);
        write_frame(&mut buf, &frame).unwrap();
        black_box(buf)
    });
    let decode_ns = g
        .bench("count_merge_decode", || black_box(read_frame(&mut Cursor::new(&encoded)).unwrap()));

    let page = vec![0xA5u8; CRC_BYTES];
    let crc_ns = g.bench("crc32_120kb", || black_box(crc32(black_box(&page))));

    let mut w = ObjectWriter::new();
    w.str_field("bench", "cluster")
        .usize_field("rows", ds.num_rows())
        .usize_field("attrs", ds.num_attrs())
        .usize_field("shards", SHARDS)
        .f64_field("unsharded_ns", unsharded_ns)
        .f64_field("sharded_ns", sharded_ns)
        .f64_field("shard_overhead", sharded_ns / unsharded_ns.max(1.0))
        .u64_field("rows_scanned", rows_scanned)
        .f64_field("unsharded_rows_per_sec", rows_scanned as f64 / (unsharded_ns / 1e9))
        .f64_field("sharded_rows_per_sec", rows_scanned as f64 / (sharded_ns / 1e9))
        .usize_field("count_merge_frame_bytes", frame_bytes)
        .f64_field("count_merge_encode_ns", encode_ns)
        .f64_field("count_merge_decode_ns", decode_ns)
        .u64_field("count_merge_entries", entries)
        .f64_field("count_merge_bytes_per_entry", frame_bytes as f64 / entries as f64)
        .f64_field("crc32_ns_per_byte", crc_ns / CRC_BYTES as f64);
    let json = w.finish();

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_cluster.json");
    std::fs::write(out, format!("{json}\n")).expect("writing results/BENCH_cluster.json");
    println!("\nwrote {out}");
    println!("{json}");
}
