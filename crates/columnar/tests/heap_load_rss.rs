//! A heap load never holds the snapshot twice: from just before
//! `Dataset::open(.., Residency::Heap)` to after the support cap every
//! loader applies, this process's resident set peaks (`VmHWM` of
//! `/proc/self/status`) at little more than the decoded columns — not at
//! the file's bytes plus the columns, nor at the columns plus a capped
//! copy of them.
//!
//! One test, in a file (so a process) of its own: the high-water mark is
//! process-wide and any other test allocating would move it.
#![cfg(target_os = "linux")]

use swope_columnar::{stats, Column, Dataset, Field, PackedCodes, PackedColumn, Residency, Schema};

/// The `field` line of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let kb = status.lines().find_map(|l| l.strip_prefix(field)).unwrap();
    kb.trim().strip_suffix("kB").unwrap().trim().parse::<u64>().unwrap() * 1024
}

#[test]
fn a_heap_load_and_its_support_cap_peak_near_the_decoded_size() {
    // 1Mi rows of four u8 and six u16 columns, 16 MiB of codes, every
    // support within the cap. Built at their stored width and kept alive
    // to the end, so the allocator holds no freed staging memory that the
    // load could reuse without growing the resident set.
    const ROWS: u32 = 1 << 20;
    let supports = [200u32, 9, 250, 31, 1_000, 700, 300, 999, 512, 257];
    let fields = supports.iter().enumerate().map(|(i, &s)| Field::new(format!("c{i}"), s));
    // Few distinct codes spread over each support, so the sketch stays
    // small and the file is its pages.
    let columns = supports.iter().map(|&s| {
        let codes = (0..ROWS).map(|i| i.wrapping_mul(2654435761) % 7 * (s / 7));
        let packed = if s <= 256 {
            PackedCodes::U8(codes.map(|c| c as u8).collect())
        } else {
            PackedCodes::U16(codes.map(|c| c as u16).collect())
        };
        Column::from_packed(PackedColumn::from_packed(packed, s).unwrap())
    });
    let ds = Dataset::new(Schema::new(fields.collect()), columns.collect()).unwrap();
    let path =
        std::env::temp_dir().join(format!("swope-heap-load-rss-{}.swop", std::process::id()));
    swope_columnar::snapshot::write_file(&ds, &path).unwrap();
    assert!(std::fs::metadata(&path).unwrap().len() >= 16 << 20);

    // Reset the high-water mark to the current resident set; a kernel
    // that refuses leaves nothing to measure.
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        std::fs::remove_file(&path).ok();
        return;
    }
    let before = status_bytes("VmRSS:");
    let peak_since = || status_bytes("VmHWM:").saturating_sub(before);

    let (loaded, _) = Dataset::open(&path, Residency::Heap).unwrap();
    std::fs::remove_file(&path).ok();
    let decoded = stats::bytes_in_memory(&loaded) as u64;
    let after_open = peak_since();
    let (capped, kept) = loaded.cap_support(1000);
    let after_cap = peak_since();
    eprintln!("decoded {decoded} open {after_open} cap {after_cap}");
    assert_eq!(kept.len(), supports.len());
    assert!(capped == ds);
    for (when, peak) in [("open", after_open), ("cap_support", after_cap)] {
        assert!(
            peak <= decoded * 5 / 4,
            "after {when}: peaked {peak} bytes over {decoded} decoded"
        );
    }
}
