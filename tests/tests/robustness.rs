//! Robustness: malformed inputs must produce errors, never panics or
//! silent corruption. Fixed-seed randomized loops over the workspace RNG.

use swope_cluster::frame::{
    read_frame, write_frame, CountMergeFrame, Frame, GrowDelta, Hello, PROTOCOL_VERSION,
};
use swope_columnar::csv::{read_csv, write_csv, CsvOptions};
use swope_columnar::{snapshot, DatasetBuilder};
use swope_core::{AttrMeta, ShardCounts};
use swope_sampling::rng::Xoshiro256pp;
use swope_sampling::{PageLayout, PageMembers, PagePrefix};
use swope_store::crc32::crc32;
use swope_store::page::PAGE_ROWS;

const CASES: usize = 200;

fn rng(label: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from_u64(0xB0B ^ label)
}

fn sample_bytes() -> Vec<u8> {
    let mut b = DatasetBuilder::new(vec!["a".into(), "b".into()]);
    for i in 0..50 {
        b.push_row(&[format!("v{}", i % 7), format!("w{}", i % 3)]).unwrap();
    }
    snapshot::encode(&b.finish()).to_vec()
}

/// Decoding arbitrary bytes never panics.
#[test]
fn snapshot_decode_arbitrary_bytes_never_panics() {
    let mut r = rng(1);
    for _ in 0..CASES {
        let len = r.next_below(512) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| r.next_below(256) as u8).collect();
        let _ = snapshot::decode(&bytes);
    }
}

/// Truncating a valid snapshot anywhere yields an error (not a panic, not
/// a silently short dataset).
#[test]
fn snapshot_truncation_always_errors() {
    let bytes = sample_bytes();
    for cut in 0..bytes.len() {
        assert!(snapshot::decode(&bytes[..cut]).is_err(), "cut at {cut}");
    }
}

/// Flipping one byte of a valid snapshot either errors or yields a
/// dataset that still satisfies its own invariants (codes < support) — it
/// must never panic.
#[test]
fn snapshot_single_byte_corruption_is_contained() {
    let mut r = rng(2);
    let bytes = sample_bytes();
    for case in 0..CASES {
        let mut corrupted = bytes.clone();
        let pos = r.next_below(bytes.len() as u64) as usize;
        let xor = 1 + r.next_below(255) as u8;
        corrupted[pos] ^= xor;
        if let Ok(ds) = snapshot::decode(&corrupted) {
            for attr in 0..ds.num_attrs() {
                let col = ds.column(attr);
                let support = col.support();
                assert!(
                    col.to_codes().iter().all(|&c| c < support),
                    "case {case}: code out of support after corrupting byte {pos}"
                );
            }
        }
    }
}

/// Parsing arbitrary bytes (printable text, control characters, or
/// invalid UTF-8) as CSV never panics.
#[test]
fn csv_arbitrary_bytes_never_panics() {
    let mut r = rng(3);
    for _ in 0..CASES {
        let len = r.next_below(300) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| r.next_below(256) as u8).collect();
        let _ = read_csv(bytes.as_slice(), &CsvOptions::default());
    }
    // Structured-looking text too: quotes, commas, and newlines in
    // adversarial positions.
    for _ in 0..CASES {
        let len = r.next_below(120) as usize;
        let alphabet: &[u8] = b"a,\"\n\r;x 0\t";
        let bytes: Vec<u8> =
            (0..len).map(|_| alphabet[r.next_below(alphabet.len() as u64) as usize]).collect();
        let _ = read_csv(bytes.as_slice(), &CsvOptions::default());
    }
}

/// Well-formed CSV with any printable cell content round-trips through
/// write_csv -> read_csv.
#[test]
fn csv_round_trip_arbitrary_cells() {
    let mut r = rng(4);
    for case in 0..CASES {
        let rows = 1 + r.next_below(29) as usize;
        let cells: Vec<Vec<String>> = (0..rows)
            .map(|_| {
                (0..2)
                    .map(|_| {
                        let len = r.next_below(13) as usize;
                        (0..len)
                            .map(|_| (b' ' + r.next_below(95) as u8) as char)
                            .collect::<String>()
                    })
                    .collect()
            })
            .collect();
        let mut b = DatasetBuilder::new(vec!["x".into(), "y".into()]);
        for row in &cells {
            b.push_row(row).unwrap();
        }
        let ds = b.finish();
        let mut out = Vec::new();
        write_csv(&ds, &mut out).unwrap();
        let back = read_csv(out.as_slice(), &CsvOptions::default()).unwrap();
        assert_eq!(back.num_rows(), ds.num_rows(), "case {case}");
        for attr in 0..2 {
            assert_eq!(back.column(attr).to_codes(), ds.column(attr).to_codes(), "case {case}");
        }
    }
}

#[test]
fn snapshot_header_field_corruption_cases() {
    let bytes = sample_bytes();
    // Corrupt the attribute count to a huge value: must error on
    // truncation, not attempt a giant allocation then die.
    let mut huge_h = bytes.clone();
    huge_h[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(snapshot::decode(&huge_h).is_err());
    // Corrupt the row count similarly.
    let mut huge_n = bytes.clone();
    huge_n[12..20].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    assert!(snapshot::decode(&huge_n).is_err());
}

/// A v6 `GrowDelta` as a coordinator writes one: a doubling's new
/// positions of a page-prefix sample over a random range of a union of up
/// to two pages and a bit (or of a few thousand rows), on the union pages
/// a random peer slice overlaps. The frame it is drawn in travels in the
/// peer's `Hello`, not here.
fn grow_delta(r: &mut Xoshiro256pp) -> GrowDelta {
    let page_rows = PAGE_ROWS as u64;
    let union_rows = match r.next_below(2) {
        0 => 1 + r.next_below(5_000),
        _ => page_rows + r.next_below(page_rows + 5_000),
    };
    let a = r.next_below(union_rows);
    let b = a + 1 + r.next_below(union_rows - a);
    let layout = PageLayout::of(union_rows as usize);
    let mut sampler =
        PagePrefix::new(PageMembers::range(&layout, a as usize..b as usize), r.next_u64());
    let m = 1 + r.next_below(b - a) as usize;
    sampler.grow_to(m / 2);
    let delta = sampler.grow_to(m);
    let base = r.next_below(union_rows);
    let end = base + 1 + r.next_below(union_rows - base);
    let pages = base / page_rows..end.div_ceil(page_rows);
    let on_slice = |position: u32| pages.contains(&(u64::from(position) / page_rows));
    let runs = delta.runs.iter().filter(|run| on_slice(run.start)).cloned().collect();
    let list = delta.list.iter().copied().filter(|&p| on_slice(p)).collect();
    let target = (r.next_below(2) == 1).then(|| r.next_below(8) as u32);
    let live = (0..r.next_below(4)).map(|_| r.next_below(8) as u32).collect();
    GrowDelta { m_target: m as u64, target, live, runs, list }
}

/// A v6 `Hello`: a peer's, a slice of a random frame (a dataset of its
/// own names no rows before or after its own), or of no rows and so of
/// no frame, as a coordinator's request is; and up to three attributes.
fn hello(r: &mut Xoshiro256pp) -> Hello {
    let mut rows = || match r.next_below(3) {
        0 => 0,
        1 => r.next_below(1 << 20),
        _ => r.next_u64() >> r.next_below(64),
    };
    let (num_rows, before, after) = (rows(), rows(), rows());
    let (before, after) = if num_rows == 0 { (0, 0) } else { (before, after) };
    let attrs = (0..r.next_below(4))
        .map(|i| AttrMeta { name: format!("a{i}"), support: 1 + r.next_below(1_000) as u32 })
        .collect();
    Hello {
        version: PROTOCOL_VERSION,
        dataset: "t".repeat(r.next_below(3) as usize),
        num_rows,
        before,
        after,
        attrs,
    }
}

/// `payload` in an envelope of frame tag `tag` with a correct checksum:
/// what a payload parser sees when the sender itself is hostile.
fn envelope(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = b"SWPC".to_vec();
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn encode(frame: &Frame) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, frame).unwrap();
    bytes
}

/// `frame` reads back as the value written, and re-encodes byte for
/// byte.
fn assert_round_trips(frame: &Frame, case: &str) {
    let bytes = encode(frame);
    let (back, n) = read_frame(&mut bytes.as_slice()).unwrap();
    assert_eq!(n, bytes.len(), "{case}");
    assert_eq!(&back, frame, "{case}");
    assert_eq!(encode(&back), bytes, "{case}");
}

/// Whatever a hostile sender puts in `frame`'s payload — a cut, a flipped
/// bit, a random byte, or bytes where there should be none — under a
/// valid checksum, the parser answers an error or a frame that
/// re-encodes to exactly those bytes: never a panic, never a frame that
/// means something else.
fn assert_payload_corruption_is_contained(frame: &Frame, r: &mut Xoshiro256pp, case: &str) {
    let clean = encode(frame);
    let (tag, payload) = (clean[4], &clean[9..clean.len() - 4]);
    for cut in 0..payload.len() {
        let bytes = envelope(tag, &payload[..cut]);
        assert!(read_frame(&mut bytes.as_slice()).is_err(), "{case}: cut at {cut} parsed");
    }
    let contained = |bad: &[u8]| {
        let bytes = envelope(tag, bad);
        if let Ok((frame, _)) = read_frame(&mut bytes.as_slice()) {
            assert_eq!(encode(&frame), bytes, "{case}: {bad:?} misparsed");
        }
    };
    // An empty payload has no byte to flip.
    let flips = if payload.is_empty() { 0 } else { 64 };
    for _ in 0..flips {
        let mut bad = payload.to_vec();
        let at = r.next_below(bad.len() as u64) as usize;
        match r.next_below(2) {
            0 => bad[at] ^= 1 << r.next_below(8),
            _ => bad[at] = r.next_below(256) as u8,
        }
        contained(&bad);
    }
    // Appended bytes draw from a fork, so the flips and replacements
    // above see the stream they always did.
    let mut extra = r.fork(0xA99E_4D00);
    for _ in 0..16 {
        let mut bad = payload.to_vec();
        bad.extend((0..=extra.next_below(8)).map(|_| extra.next_below(256) as u8));
        contained(&bad);
    }
}

/// A coordinator's `GrowDelta`s read back as the value written, and
/// re-encode byte for byte.
#[test]
fn grow_delta_frames_round_trip() {
    let mut r = rng(5);
    for case in 0..CASES / 4 {
        assert_round_trips(&Frame::GrowDelta(grow_delta(&mut r)), &format!("case {case}"));
    }
}

/// [`assert_payload_corruption_is_contained`] on a coordinator's
/// `GrowDelta`s.
#[test]
fn grow_delta_payload_corruption_is_contained() {
    let mut r = rng(6);
    let started = std::time::Instant::now();
    for case in 0..CASES / 4 {
        let frame = Frame::GrowDelta(grow_delta(&mut r));
        assert_payload_corruption_is_contained(&frame, &mut r, &format!("case {case}"));
        if started.elapsed() > std::time::Duration::from_secs(2) {
            break;
        }
    }
}

/// A peer's `Hello`s, frame and all, read back as the value written,
/// re-encode byte for byte, and contain any corruption of their
/// payloads.
#[test]
fn hello_frames_round_trip_and_contain_payload_corruption() {
    let mut r = rng(8);
    for case in 0..CASES / 4 {
        let frame = Frame::Hello(hello(&mut r));
        assert_round_trips(&frame, &format!("case {case}"));
        assert_payload_corruption_is_contained(&frame, &mut r, &format!("case {case}"));
    }
}

/// The `Marginals` request and the `CountMerge` that declines it: counts
/// over no attribute.
fn marginals_frames() -> [(&'static str, Frame); 2] {
    let decline = CountMergeFrame::from_counts(&mut ShardCounts::empty(None, []));
    [("Marginals", Frame::Marginals), ("decline", Frame::CountMerge(decline))]
}

/// The `Marginals` exchange joins the seeded frame loops: both frames
/// round-trip, and no corruption of their payloads under a valid
/// checksum parses as anything but those exact bytes.
#[test]
fn marginals_frames_round_trip_and_contain_payload_corruption() {
    let mut r = rng(7);
    for (name, frame) in marginals_frames() {
        assert_round_trips(&frame, name);
        for case in 0..CASES / 4 {
            assert_payload_corruption_is_contained(&frame, &mut r, &format!("{name} {case}"));
        }
    }
}
