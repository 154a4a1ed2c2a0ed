//! Heap columns store their codes in a page layout; every logical
//! accessor still answers in row order. Checked on a multi-page dataset
//! against its paged copy, which keeps the file's row order, and against
//! the codes it was built from.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use swope_columnar::{for_buf, CodeBuf, CodeRepr};
use swope_columnar::{snapshot, Column, Dataset, Field, PageCache, Residency, Schema, PAGE_ROWS};
use swope_sampling::rng::Xoshiro256pp;

const ROWS: usize = 3 * PAGE_ROWS + 1_234;

/// Row-ordered codes of a `u8`, a `u16` and a `u32` column: runs and
/// ramps, so a row moved within its page shows.
fn codes() -> Vec<(u32, Vec<u32>)> {
    let mut rng = Xoshiro256pp::seed_from_u64(0x10C);
    let runs = (0..ROWS).map(|r| (r / 97 % 200) as u32).collect();
    let ramp = (0..ROWS).map(|r| (r as u32 * 7 + rng.next_below(3) as u32) % 3_000).collect();
    let wide = (0..ROWS).map(|r| (r as u32).wrapping_mul(2_654_435_761) % 70_000).collect();
    vec![(200, runs), (3_000, ramp), (70_000, wide)]
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
    paged_under(ds, tag, None)
}

/// [`paged_copy`] under a page cache of `budget` bytes.
fn paged_under(ds: &Dataset, tag: &str, budget: Option<u64>) -> (std::path::PathBuf, Dataset) {
    let path = temp(tag);
    snapshot::write_file(ds, &path).unwrap();
    let cache = Arc::new(PageCache::new(budget));
    let (paged, _) = snapshot::open(&path, Residency::Paged(&cache)).unwrap();
    (path, paged)
}

#[test]
fn heap_columns_are_stored_out_of_row_order() {
    let ds = dataset();
    let (_, runs) = &codes()[0];
    let stored = ds.column(0).stored_codes();
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

/// `codes`, each row's code put where `column`'s layout stores the row.
fn stored(column: &Column, codes: &[u32]) -> Vec<u32> {
    let mut stored = vec![0; codes.len()];
    for (row, &c) in codes.iter().enumerate() {
        stored[column.layout().position_of(row as u32) as usize] = c;
    }
    stored
}

/// What `f` panicked with.
fn panic_of(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("a corrupt page must panic");
    payload.downcast_ref::<String>().expect("a formatted panic").clone()
}

/// `Column::read`, `gather` and `gather_widen` hand over the codes the
/// layout stores at the positions asked for — runs across page
/// boundaries and past a block, lists that span pages — on the heap,
/// paged, paged under a one-page budget, and on a slice whose grid
/// leads; and a corrupt page is the same one-line panic from each.
#[test]
fn reads_and_gathers_match_the_codes_on_every_residency() {
    let ds = dataset();
    let at = PAGE_ROWS + 40_000;
    let tail = ds.take_rows(&(at..ROWS).collect::<Vec<_>>());
    assert_eq!(tail.layout().grid().lead(), at % PAGE_ROWS, "the slice's grid leads");
    let (p1, paged) = paged_copy(&ds, "read-paged");
    let (p2, tight) = paged_under(&ds, "read-tight", Some(PAGE_ROWS as u64));
    let (p3, tail_paged) = paged_under(&tail, "read-tail", Some(PAGE_ROWS as u64));
    let all = codes();
    let sources = [(&ds, "heap", 0), (&paged, "paged", 0), (&tight, "one-page budget", 0)];
    let slices = [(&tail, "slice", at), (&tail_paged, "paged slice", at)];
    let mut buf = CodeBuf::new();
    for (source, name, first) in sources.into_iter().chain(slices) {
        let n = source.num_rows() as u32;
        let page = PAGE_ROWS as u32;
        let runs: Vec<Range<u32>> = [0..1, 5..5, page - 3..page + 3, page + 100..page + 20_000]
            .into_iter()
            .chain([2 * page - 10..n, n - 1..n, 0..n])
            .map(|r| r.start.min(n)..r.end.min(n))
            .collect();
        let list: Vec<u32> = (0..n).step_by(997).chain((0..n).rev().step_by(4_099)).collect();
        for (attr, (_, codes)) in all.iter().enumerate() {
            let column = source.column(attr);
            let want = stored(column, &codes[first..]);
            let case = format!("{name}, column {attr}");
            let mut got = Vec::new();
            column.read(runs.iter().cloned(), &mut buf, &mut got);
            let runs_want: Vec<u32> =
                runs.iter().flat_map(|r| r.clone()).map(|p| want[p as usize]).collect();
            assert!(got == runs_want, "{case}: read");
            let list_want: Vec<u32> = list.iter().map(|&p| want[p as usize]).collect();
            column.gather(&list, &mut buf);
            let staged: Vec<u32> = for_buf!(&buf, |c| c.iter().map(|&c| c.widen()).collect());
            assert!(staged == list_want, "{case}: gather");
            let mut widened = vec![7];
            column.gather_widen(&list, &mut widened);
            assert!(widened[0] == 7 && widened[1..] == list_want, "{case}: gather_widen");
        }
    }
    for path in [p2, p3] {
        std::fs::remove_file(path).ok();
    }
    // A page that fails its checksum: every read names it as the store
    // does, in one line. Column 0's section is the second in the table;
    // its page 0 payload follows the width tag and two 8-byte headers.
    let mut bytes = std::fs::read(&p1).unwrap();
    let entry = 12 + 24;
    let section = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap()) as usize;
    bytes[section + 1 + 8 + 8 + 17] ^= 0xFF;
    std::fs::write(&p1, &bytes).unwrap();
    let cache = Arc::new(PageCache::new(None));
    let (corrupt, _) = snapshot::open(&p1, Residency::Paged(&cache)).unwrap();
    std::fs::remove_file(p1).ok();
    let column = corrupt.column(0);
    let want = column.paged().unwrap().try_code(0).unwrap_err().to_string();
    assert_eq!(want, "corrupt store data: page 0: checksum mismatch");
    let mut buf = CodeBuf::new();
    assert_eq!(panic_of(|| column.read(std::iter::once(3..9), &mut buf, &mut Vec::new())), want);
    assert_eq!(panic_of(|| column.gather(&[3, 9], &mut buf)), want);
    assert_eq!(panic_of(|| column.gather_widen(&[3, 9], &mut Vec::new())), want);
}
