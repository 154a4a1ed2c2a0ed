//! Cluster-layer benchmark: what the exact count-merge protocol costs.
//!
//! Two questions, one JSON. First, the shard overhead in-process: the
//! same seeded entropy top-k unsharded vs split across 4 count-merge
//! shards (the merge is pure integer addition, so any gap is shard
//! bookkeeping, not estimation work). Second, the wire tax per
//! iteration: encoding and decoding a real `CountMerge` frame — the
//! dominant frame class, one per shard per doubling — its size per
//! histogram entry, the k-way merge that sums two peers' replies where
//! they were received and hands the sums to entropy counters
//! (`count_merge_merge_ns`), and the CRC-32 kernel every frame passes
//! through twice — with the carry-less-multiply fold timed against the
//! table kernel as the fastest of alternating rounds
//! (`crc32_folded_over_table`). Medians are persisted to
//! `results/BENCH_cluster.json`; the CI cluster-smoke step runs this with
//! `SWOPE_MICRO_MS=1`, asserts the fields exist, gates the one
//! machine-independent number, bytes per entry, and on x86_64 gates the
//! folded CRC at a quarter of the table kernel's time.

use std::io::Cursor;
use std::time::Instant;

use swope_bench::micro::{black_box, Group};
use swope_cluster::frame::{read_frame, write_frame, CountMergeFrame, Frame, FrameReader};
use swope_columnar::{crc32, Dataset};
use swope_core::shard::{merge_replies, CountSink};
use swope_core::{
    entropy_top_k, run_sharded, Answer, CountRequest, Executor, LocalShardSource, NoopObserver,
    Rule, Shape, ShardTransport, SwopeConfig,
};
use swope_datagen::{corpus, generate};
use swope_estimate::entropy::EntropyCounter;
use swope_obs::json::ObjectWriter;
use swope_store::crc32::Crc32;

const K: usize = 4;
const SHARDS: usize = 4;
const SEED: u64 = 0xC105;

/// Bytes the CRC kernel is timed over: one protocol-v1 `CountMerge`.
const CRC_BYTES: usize = 120_000;

/// Alternating rounds of the folded and the table CRC kernel.
const CRC_ROUNDS: usize = 200;

fn dataset() -> Dataset {
    // ~29k rows x 100 columns of the cdc profile.
    generate(&corpus::cdc(1.0 / 128.0), 0x5170)
}

/// The `CountMerge`s two peers send for one doubling, as `swope-e2e`
/// builds the first: each of two shards' counts for every attribute at a
/// sample of 8192 rows.
fn count_merge_frames(ds: &Dataset, exec: &Executor) -> Vec<CountMergeFrame> {
    let mut source = LocalShardSource::new(ds, 2, &SwopeConfig::default(), exec).unwrap();
    let request = CountRequest { target: None, live: (0..ds.num_attrs()).collect() };
    let shards = source.advance(8192, &request).unwrap();
    shards.into_iter().map(|mut counts| CountMergeFrame::from_counts(&mut counts)).collect()
}

/// Entropy counters, one per attribute, as the place a merge hands its
/// sums: what an entropy query's states count with.
struct Counters(Vec<EntropyCounter>);

impl CountSink for Counters {
    fn target(&mut self, _code: u32, _k: u64) {}

    fn marginal(&mut self, i: usize, code: u32, k: u64) {
        self.0[i].add_count(code, k);
    }

    fn joint(&mut self, _i: usize, _key: u64, _k: u64) {}
}

/// The fastest of [`CRC_ROUNDS`] alternating rounds of each kernel over
/// `bytes`, in ns: (folded where the CPU folds, table).
fn crc_kernels(bytes: &[u8]) -> (f64, f64) {
    let (mut folded, mut table) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..CRC_ROUNDS {
        let started = Instant::now();
        black_box(crc32(black_box(bytes)));
        folded = folded.min(started.elapsed().as_nanos() as f64);
        let started = Instant::now();
        let mut crc = Crc32::new();
        crc.update_table(black_box(bytes));
        black_box(crc.finish());
        table = table.min(started.elapsed().as_nanos() as f64);
    }
    (folded, table)
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

    let frames = count_merge_frames(&ds, &exec);
    let entries = frames[0].entries();
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|frame| {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &Frame::CountMerge(frame.clone())).unwrap();
            bytes
        })
        .collect();
    let mut readers: Vec<FrameReader> = encoded
        .iter()
        .map(|bytes| {
            let mut reader = FrameReader::new();
            reader.read_envelope(&mut bytes.as_slice()).unwrap();
            reader
        })
        .collect();
    let supports: Vec<u32> = (0..ds.num_attrs()).map(|a| ds.support(a)).collect();
    let frame = Frame::CountMerge(frames.into_iter().next().unwrap());
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

    let fresh = || Counters(supports.iter().map(|&u| EntropyCounter::new(u)).collect());
    let merge_ns = g.bench_with_setup("count_merge_merge_2_peers", fresh, |mut counters| {
        merge_replies(&mut readers, None, supports.iter().copied(), &mut counters).unwrap();
        counters
    });

    let page = vec![0xA5u8; CRC_BYTES];
    let crc_ns = g.bench("crc32_120kb", || black_box(crc32(black_box(&page))));
    let (folded_ns, table_ns) = crc_kernels(&page);
    println!(
        "cluster_frame_codec/crc32_120kb folded {:.1} µs  table {:.1} µs  (fastest of {CRC_ROUNDS})",
        folded_ns / 1e3,
        table_ns / 1e3
    );

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
        .f64_field("count_merge_merge_ns", merge_ns)
        .f64_field("crc32_ns_per_byte", crc_ns / CRC_BYTES as f64)
        .f64_field("crc32_folded_over_table", folded_ns / table_ns.max(1.0));
    let json = w.finish();

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_cluster.json");
    std::fs::write(out, format!("{json}\n")).expect("writing results/BENCH_cluster.json");
    println!("\nwrote {out}");
    println!("{json}");
}
