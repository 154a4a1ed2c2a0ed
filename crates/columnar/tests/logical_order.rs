//! Heap columns store their codes in a page layout; every logical
//! accessor still answers in row order. Checked on a multi-page dataset
//! against its paged copy, which keeps the file's row order, and against
//! the codes it was built from.

use std::sync::Arc;

use swope_columnar::{snapshot, Column, Dataset, Field, PageCache, Residency, Schema, PAGE_ROWS};
use swope_sampling::rng::Xoshiro256pp;

const ROWS: usize = 3 * PAGE_ROWS + 1_234;

/// Row-ordered codes of a `u8` and a `u16` column: runs and a ramp, so a
/// row moved within its page shows.
fn codes() -> Vec<(u32, Vec<u32>)> {
    let mut rng = Xoshiro256pp::seed_from_u64(0x10C);
    let runs = (0..ROWS).map(|r| (r / 97 % 200) as u32).collect();
    let ramp = (0..ROWS).map(|r| (r as u32 * 7 + rng.next_below(3) as u32) % 3_000).collect();
    vec![(200, runs), (3_000, ramp)]
}

fn dataset() -> Dataset {
    let codes = codes();
    let fields = codes.iter().enumerate().map(|(i, (u, _))| Field::new(format!("c{i}"), *u));
    let fields = Schema::new(fields.collect());
    let columns = codes.into_iter().map(|(u, c)| Column::new(c, u).unwrap());
    Dataset::new(fields, columns.collect()).unwrap()
}

fn temp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("swope-logical-{tag}-{}.swop", std::process::id()))
}

/// `ds` written out and opened paged, with the file's path.
fn paged_copy(ds: &Dataset, tag: &str) -> (std::path::PathBuf, Dataset) {
    let path = temp(tag);
    snapshot::write_file(ds, &path).unwrap();
    let cache = Arc::new(PageCache::new(None));
    let (paged, _) = snapshot::open(&path, Residency::Paged(&cache)).unwrap();
    (path, paged)
}

#[test]
fn heap_columns_are_stored_out_of_row_order() {
    let ds = dataset();
    let (_, runs) = &codes()[0];
    let stored = ds.column(0).packed().to_codes();
    assert_ne!(&stored, runs, "the heap keeps a page layout, not row order");
    // Only within pages: every page holds the same codes.
    for (page, (s, r)) in stored.chunks(PAGE_ROWS).zip(runs.chunks(PAGE_ROWS)).enumerate() {
        let (mut s, mut r) = (s.to_vec(), r.to_vec());
        s.sort_unstable();
        r.sort_unstable();
        assert_eq!(s, r, "page {page}");
    }
}

#[test]
fn every_logical_accessor_answers_in_row_order() {
    let ds = dataset();
    let (path, paged) = paged_copy(&ds, "accessors");
    assert!(paged.column(0).is_paged() && !ds.column(0).is_paged());
    for (attr, (_, codes)) in codes().iter().enumerate() {
        let (heap, paged) = (ds.column(attr), paged.column(attr));
        for (r, &c) in codes.iter().enumerate() {
            assert_eq!((heap.code(r), paged.code(r)), (c, c), "attr {attr} row {r}");
        }
        assert_eq!(&heap.to_codes(), codes);
        assert_eq!(&paged.to_codes(), codes);
        assert_eq!(heap.value_counts(), paged.value_counts());
        assert!(heap == paged);
    }
    // A row subset, in the order asked for.
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let rows: Vec<usize> = (0..5_000).map(|_| rng.next_below(ROWS as u64) as usize).collect();
    let (a, b) = (ds.take_rows(&rows), paged.take_rows(&rows));
    for (attr, (_, codes)) in codes().iter().enumerate() {
        let want: Vec<u32> = rows.iter().map(|&r| codes[r]).collect();
        assert_eq!(a.column(attr).to_codes(), want);
        assert_eq!(b.column(attr).to_codes(), want);
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn split_halves_hold_their_rows_in_order() {
    // `swope split` cuts with `take_rows`, off a page boundary here.
    let ds = dataset();
    let (path, paged) = paged_copy(&ds, "split");
    let at = PAGE_ROWS + 40_000;
    let (head, tail): (Vec<usize>, Vec<usize>) = ((0..at).collect(), (at..ROWS).collect());
    for source in [&ds, &paged] {
        let halves = [source.take_rows(&head), source.take_rows(&tail)];
        for (attr, (_, codes)) in codes().iter().enumerate() {
            assert_eq!(halves[0].column(attr).to_codes(), codes[..at]);
            assert_eq!(halves[1].column(attr).to_codes(), codes[at..]);
        }
        // Each half keeps the union's layout: a union page it holds
        // whole — page 2 of the tail — is that page shifted by its base.
        assert_eq!((halves[0].frame(), halves[1].frame()), ((ROWS, 0), (ROWS, at)));
        let (union, tail) = (source.layout(), halves[1].layout());
        for row in 2 * PAGE_ROWS..3 * PAGE_ROWS {
            let mine = tail.position_of((row - at) as u32) as usize;
            assert_eq!(mine + at, union.position_of(row as u32) as usize, "row {row}");
        }
        assert!(halves[1].column(0).code(0) == codes()[0].1[at]);
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn a_heap_load_writes_back_the_file_it_read() {
    let ds = dataset();
    let first = temp("first");
    snapshot::write_file(&ds, &first).unwrap();
    let (loaded, _) = Dataset::open(&first, Residency::Heap).unwrap();
    assert!(loaded == ds);
    let second = temp("second");
    snapshot::write_file(&loaded, &second).unwrap();
    let (a, b) = (std::fs::read(&first).unwrap(), std::fs::read(&second).unwrap());
    std::fs::remove_file(first).ok();
    std::fs::remove_file(second).ok();
    assert!(a == b, "a heap load wrote {} bytes that differ from the {} it read", b.len(), a.len());
}
