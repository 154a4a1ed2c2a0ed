//! Page-prefix sampling: a fixed shuffle within every page, and a
//! sample that reads each page's next run of slots.
//!
//! `docs/THEORY.md` § "Page-prefix sampling" shows that the samples
//! [`PagePrefix`] draws over a [`PageLayout`] have the law of prefixes
//! of a uniform permutation (§2.2), level by level and jointly across
//! the doublings, so Lemma 2 and the §3.1 martingale argument hold
//! unchanged.
//!
//! Terms: the *layout* is one permutation of every page's rows. Slot `s`
//! of page `j` holds one of its rows. A *position* is `j·PAGE_ROWS + s`,
//! the index a heap column stores that row's code at. A *window* is a
//! run of consecutive positions in one page.

use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use swope_store::page::PAGE_ROWS;

use crate::hypergeometric;
use crate::rng::Xoshiro256pp;

/// Seed of every page's layout shuffle; page `j` draws from its
/// `fork(j)`. Compiled in, so every process lays a row count out alike.
const LAYOUT_SEED: u64 = 0x5EED_1A70_9A6E_0016;

/// The rows of `0..num_rows` in a fixed, seeded order within each
/// 65 536-row page.
///
/// Page `j` of `L_j` rows is a Fisher–Yates shuffle seeded from a
/// compiled-in constant and `j`, so it depends only on `(j, L_j)`:
/// every process, every column of a dataset and every query over it see
/// the same layout. Pages are shuffled independently, which the
/// uniformity argument needs. Each direction is a `u16` table, 2 bytes a
/// row, built on first use: row → position by whoever stores or reads
/// heap columns, position → row by whoever turns windows into rows (a
/// paged dataset, a cluster coordinator) or scans a heap column's pages
/// for the rows whose codes match.
///
/// A table holds, for each index, the XOR of its in-page offset and the
/// other side's: row `r` is at position `r ^ to_position[r]`, and
/// position `p` holds row `p ^ to_row[p]`. An XOR keeps the page bits and
/// swaps the offset in one operation. It is also the form x86 code
/// generation gets right: rustc 1.95 compiles `(r & !0xFFFF) | t[r]`, with
/// `t` a `u16` table indexed by `r`, to a lone zero-extending load that
/// drops the page bits in release builds.
pub struct PageLayout {
    num_rows: usize,
    to_position: OnceLock<Vec<u16>>,
    to_row: OnceLock<Vec<u16>>,
}

impl PageLayout {
    /// The layout of `num_rows` rows. While a layout of that count is
    /// alive, every call returns it, so the columns of a dataset share
    /// one set of tables. A layout lives as long as its holders: a
    /// caller that needs it across queries keeps its `Arc`, as a
    /// dataset and a cluster coordinator do.
    ///
    /// # Panics
    ///
    /// If `num_rows` exceeds `u32::MAX`.
    pub fn of(num_rows: usize) -> Arc<PageLayout> {
        assert!(num_rows <= u32::MAX as usize, "row count exceeds u32 index space");
        static LIVE: Mutex<Vec<Weak<PageLayout>>> = Mutex::new(Vec::new());
        let mut live = LIVE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        live.retain(|w| w.strong_count() > 0);
        if let Some(layout) =
            live.iter().find_map(|w| w.upgrade().filter(|l| l.num_rows == num_rows))
        {
            return layout;
        }
        let layout = Arc::new(PageLayout {
            num_rows,
            to_position: OnceLock::new(),
            to_row: OnceLock::new(),
        });
        live.push(Arc::downgrade(&layout));
        layout
    }

    /// A table of one XOR delta per row: `entry(slot, row)` gives the
    /// entry's index and value for in-page row `row` at in-page `slot`.
    fn table(&self, entry: impl Fn(u16, u16) -> (u16, u16)) -> Vec<u16> {
        let base = Xoshiro256pp::seed_from_u64(LAYOUT_SEED);
        let mut rows: Vec<u16> = Vec::with_capacity(self.num_rows.min(PAGE_ROWS));
        let mut table = vec![0u16; self.num_rows];
        for (page, table) in table.chunks_mut(PAGE_ROWS).enumerate() {
            let mut rng = base.fork(page as u64);
            rows.clear();
            rows.extend((0..table.len()).map(|r| r as u16));
            for i in (1..rows.len()).rev() {
                rows.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            // Slot `s` holds in-page row `rows[s]`.
            for (s, &r) in rows.iter().enumerate() {
                let (at, delta) = entry(s as u16, r);
                table[at as usize] = delta;
            }
        }
        table
    }

    fn to_position(&self) -> &[u16] {
        self.to_position.get_or_init(|| self.table(|s, r| (r, r ^ s)))
    }

    fn to_row(&self) -> &[u16] {
        self.to_row.get_or_init(|| self.table(|s, r| (s, s ^ r)))
    }

    /// Rows laid out, `N`.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// The position row `row` is stored at.
    #[inline]
    pub fn position_of(&self, row: u32) -> u32 {
        row ^ u32::from(self.to_position()[row as usize])
    }

    /// Appends the rows stored at `windows`' positions to `out`, in
    /// window order: how a sample drawn by [`PagePrefix`] names rows.
    pub fn rows_of(&self, windows: &[Range<u32>], out: &mut Vec<u32>) {
        let to_row = self.to_row();
        for window in windows {
            let deltas = &to_row[window.start as usize..window.end as usize];
            out.extend(window.clone().zip(deltas).map(|(p, &d)| p ^ u32::from(d)));
        }
    }

    /// The row → position table: row `r` is stored at `r ^ deltas[r]`,
    /// in its own page. How a writer reads a column back in row order.
    pub fn position_deltas(&self) -> &[u16] {
        self.to_position()
    }

    /// The position → row table: position `p` holds row `p ^ deltas[p]`,
    /// in its own page. How a scan of stored codes names their rows.
    pub fn row_deltas(&self) -> &[u16] {
        self.to_row()
    }

    /// Reorders `values`, one per row in row order, into position order
    /// in place, one page at a time.
    ///
    /// # Panics
    ///
    /// If `values` does not hold one value per row.
    pub fn store<T: Copy>(&self, values: &mut [T]) {
        self.each_page(values, |rows, stored, deltas| {
            for (r, (&v, &d)) in rows.iter().zip(deltas).enumerate() {
                stored[r ^ d as usize] = v;
            }
        });
    }

    /// Reorders `values`, one per position in position order, back into
    /// row order in place: the inverse of [`PageLayout::store`].
    ///
    /// # Panics
    ///
    /// If `values` does not hold one value per row.
    pub fn restore<T: Copy>(&self, values: &mut [T]) {
        self.each_page(values, |stored, rows, deltas| {
            for (r, (v, &d)) in rows.iter_mut().zip(deltas).enumerate() {
                *v = stored[r ^ d as usize];
            }
        });
    }

    /// Runs `f(copy, page, deltas)` on every page of `values`, with a copy
    /// of the page's values to read while `f` rewrites it in place, and
    /// the page's row → position deltas.
    fn each_page<T: Copy>(&self, values: &mut [T], f: impl Fn(&[T], &mut [T], &[u16])) {
        assert_eq!(values.len(), self.num_rows(), "one value per laid-out row");
        let mut copy = Vec::with_capacity(values.len().min(PAGE_ROWS));
        let deltas = self.to_position().chunks(PAGE_ROWS);
        for (page, deltas) in values.chunks_mut(PAGE_ROWS).zip(deltas) {
            copy.clear();
            copy.extend_from_slice(page);
            f(&copy, page, deltas);
        }
    }
}

/// Two layouts of one row count are the same layout.
impl PartialEq for PageLayout {
    fn eq(&self, other: &Self) -> bool {
        self.num_rows == other.num_rows
    }
}

impl Eq for PageLayout {}

impl std::fmt::Debug for PageLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageLayout").field("num_rows", &self.num_rows()).finish()
    }
}

/// The sampler of a whole population laid out by [`PageLayout`]: each
/// doubling splits its new draws over the pages with hypergeometric
/// variates, and takes each page's next slots from the query's offset in
/// that page, cyclically.
///
/// The query's seed draws one offset per page up front; growth then
/// draws only the splits. Growth is nested — every window extends its
/// page's earlier ones — and at `m = N` every position has been returned
/// exactly once. Memory: 12 bytes a page, plus the windows of one delta.
#[derive(Debug, Clone)]
pub struct PagePrefix {
    num_rows: usize,
    sampled: usize,
    pages: Vec<Cursor>,
    rng: Xoshiro256pp,
    windows: Vec<Range<u32>>,
}

/// One page's state: its rows, the query's offset into it, and how many
/// of its slots the sample holds.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    len: u32,
    offset: u32,
    taken: u32,
}

impl PagePrefix {
    /// A sampler over `num_rows` laid-out rows, drawing with `seed`.
    ///
    /// # Panics
    ///
    /// If `num_rows` exceeds `u32::MAX`.
    pub fn new(num_rows: usize, seed: u64) -> Self {
        assert!(num_rows <= u32::MAX as usize, "row count exceeds u32 index space");
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let pages = (0..num_rows)
            .step_by(PAGE_ROWS)
            .map(|start| {
                let len = (num_rows - start).min(PAGE_ROWS) as u32;
                Cursor { len, offset: rng.next_below(u64::from(len)) as u32, taken: 0 }
            })
            .collect();
        Self { num_rows, sampled: 0, pages, rng, windows: Vec::new() }
    }

    /// Total number of rows `N` in the population.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Current sample size `M`.
    pub fn sampled(&self) -> usize {
        self.sampled
    }

    /// The windows the last [`PagePrefix::grow_to`] returned.
    pub fn windows(&self) -> &[Range<u32>] {
        &self.windows
    }

    /// Grows the sample to `min(target, N)` rows, never past it; a target
    /// at or below the current size is a no-op.
    ///
    /// Returns the **new** positions as windows, in page order: one per
    /// page that drew rows, or two where a page's run wraps past its
    /// end.
    pub fn grow_to(&mut self, target: usize) -> &[Range<u32>] {
        self.windows.clear();
        let target = target.min(self.num_rows);
        let mut left = target.saturating_sub(self.sampled) as u64;
        let mut remaining = (self.num_rows - self.sampled) as u64;
        self.sampled = self.sampled.max(target);
        for (page, cursor) in self.pages.iter_mut().enumerate() {
            if left == 0 {
                break;
            }
            // The last page with rows left holds all that remain, and
            // takes the rest without a draw.
            let rest = u64::from(cursor.len - cursor.taken);
            let d = hypergeometric(&mut self.rng, remaining, rest, left) as u32;
            remaining -= rest;
            left -= u64::from(d);
            if d == 0 {
                continue;
            }
            let base = (page * PAGE_ROWS) as u32;
            let start = (cursor.offset + cursor.taken) % cursor.len;
            let end = start + d;
            if end <= cursor.len {
                self.windows.push(base + start..base + end);
            } else {
                self.windows.push(base + start..base + cursor.len);
                self.windows.push(base..base + end - cursor.len);
            }
            cursor.taken += d;
        }
        &self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: usize = PAGE_ROWS;

    fn positions(windows: &[Range<u32>]) -> Vec<u32> {
        windows.iter().flat_map(Clone::clone).collect()
    }

    /// The row stored at `position`.
    fn row_at(layout: &PageLayout, position: u32) -> u32 {
        let mut row = Vec::new();
        layout.rows_of(std::slice::from_ref(&(position..position + 1)), &mut row);
        row[0]
    }

    /// FNV-1a over a layout's row table, little-endian.
    fn digest(layout: &PageLayout) -> u64 {
        (0..layout.num_rows() as u32)
            .flat_map(|p| ((row_at(layout, p) as usize % P) as u16).to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn layout_digests_are_pinned() {
        // A single box, its paged copy and a cluster coordinator draw the
        // same sample only while these stay put.
        let pinned = [
            (1usize, 0x0832_8807_b4eb_6fed_u64),
            (P - 1, 0x0f54_e458_cd99_d5b3),
            (P, 0x43d8_519e_7a06_6909),
            (3 * P + 1_234, 0xe8cb_6e92_230b_0444),
        ];
        for (n, want) in pinned {
            assert_eq!(digest(&PageLayout::of(n)), want, "PageLayout::of({n})");
        }
    }

    #[test]
    fn layout_is_a_permutation_within_each_page() {
        let n = 2 * P + 777;
        let layout = PageLayout::of(n);
        let mut seen = vec![false; n];
        for p in 0..n as u32 {
            let r = row_at(&layout, p);
            assert_eq!(r / P as u32, p / P as u32, "position {p} left its page");
            assert!(!std::mem::replace(&mut seen[r as usize], true), "row {r} twice");
            assert_eq!(layout.position_of(r), p);
        }
        assert_ne!(row_at(&layout, 5), 5, "page 0 is shuffled");
    }

    #[test]
    fn a_page_depends_only_on_its_index_and_length() {
        let (a, b) = (PageLayout::of(2 * P + 100), PageLayout::of(P + 100));
        let d = |l: &PageLayout, pages: Range<usize>| l.position_deltas()[pages].to_vec();
        assert_eq!(d(&a, 0..P), d(&b, 0..P));
        let c = PageLayout::of(100);
        assert_ne!(d(&a, 2 * P..2 * P + 100), d(&c, 0..100), "page 2 is not page 0 of one length");
        // Pages are shuffled independently, not by one shared order.
        assert_ne!(d(&a, 0..P), d(&a, P..2 * P));
    }

    #[test]
    fn of_shares_one_layout_per_row_count() {
        let a = PageLayout::of(P + 3);
        assert!(Arc::ptr_eq(&a, &PageLayout::of(P + 3)));
        assert!(!Arc::ptr_eq(&a, &PageLayout::of(P + 4)));
    }

    #[test]
    fn store_then_restore_is_the_identity() {
        let n = P + 4_321;
        let layout = PageLayout::of(n);
        let rows: Vec<u32> = (0..n as u32).collect();
        let mut stored = rows.clone();
        layout.store(&mut stored);
        for (p, &r) in stored.iter().enumerate() {
            assert_eq!(r, row_at(&layout, p as u32));
        }
        layout.restore(&mut stored);
        assert_eq!(stored, rows);
    }

    #[test]
    fn growth_is_nested_and_returns_exactly_the_new_rows() {
        let n = 3 * P + 1_234;
        let mut s = PagePrefix::new(n, 9);
        let mut seen = vec![false; n];
        let mut total = 0;
        for target in [100, 250, 1_000, 1_000, 40_000, 150_000, n, n + 5] {
            let before = s.sampled();
            let delta = positions(s.grow_to(target));
            assert_eq!(delta.len(), target.min(n).max(before) - before, "target {target}");
            for p in delta {
                assert!(!std::mem::replace(&mut seen[p as usize], true), "position {p} twice");
            }
            total = s.sampled();
        }
        // Full growth returned every position exactly once.
        assert_eq!(total, n);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn page_draws_sum_to_the_delta_and_stay_in_their_page() {
        let n = 4 * P + 17;
        let mut s = PagePrefix::new(n, 3);
        let mut taken = vec![0usize; n.div_ceil(P)];
        for target in [64usize, 128, 256, 1 << 12, 1 << 15, 1 << 17, n] {
            let before = s.sampled();
            let windows = s.grow_to(target).to_vec();
            let mut per_page = vec![0usize; taken.len()];
            for w in &windows {
                let page = w.start as usize / P;
                assert!(w.start < w.end, "empty window {w:?}");
                assert_eq!((w.end as usize - 1) / P, page, "window {w:?} crosses a page");
                per_page[page] += w.len();
            }
            assert_eq!(per_page.iter().sum::<usize>(), target.min(n) - before);
            for (page, d) in per_page.into_iter().enumerate() {
                taken[page] += d;
                assert!(taken[page] <= (n - page * P).min(P), "page {page} overdrawn");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let n = 2 * P + 50;
        let run = |seed| {
            let mut s = PagePrefix::new(n, seed);
            [10usize, 1_000, 30_000].map(|m| positions(s.grow_to(m)))
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn every_row_is_included_at_rate_m_over_n() {
        // Over query seeds alone, with the layout fixed, a row's slot
        // lies in its page's window with probability c_j / L_j, whose
        // mean is m / N.
        let (n, m, seeds) = (P + 1_000, 4_000usize, 2_000u64);
        let mut hits = vec![0u32; n];
        for seed in 0..seeds {
            let mut s = PagePrefix::new(n, seed);
            for target in [m / 4, m] {
                for p in positions(s.grow_to(target)) {
                    hits[p as usize] += 1;
                }
            }
        }
        let rate = m as f64 / n as f64;
        let mean = seeds as f64 * rate;
        let sd = (mean * (1.0 - rate)).sqrt();
        for (p, &h) in hits.iter().enumerate() {
            assert!((f64::from(h) - mean).abs() <= 6.0 * sd, "position {p}: {h} hits, mean {mean}");
        }
    }

    #[test]
    fn empty_population() {
        let mut s = PagePrefix::new(0, 1);
        assert!(s.grow_to(10).is_empty());
        assert_eq!(s.sampled(), 0);
        assert_eq!(PageLayout::of(0).num_rows(), 0);
    }
}
