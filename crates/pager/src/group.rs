//! Page-grouping of sampled row lists.
//!
//! A shuffled sample of a paged column touches a handful of pages, but
//! in row order it switches page on almost every row — and every switch
//! costs a page lookup (directory arithmetic, a state check, a fresh
//! slice of the mapping) and lands somewhere cold. [`PagedColumn::gather`]
//! looks a page up once per *run* of adjacent same-page rows, so the fix
//! is to make the runs long: reorder the list so all rows of one page
//! sit together. Every column of a dataset shares one page geometry, so
//! an iteration's rows are grouped once, where they are drawn, and every
//! attribute's gather reuses the result.
//!
//! The reordering is safe only for a consumer whose result depends on
//! the *multiset* of rows, never their order — the adaptive loop's integer
//! delta histograms, with the MI target codes gathered from the same
//! reordered list the candidates read. A consumer that accumulated floats
//! row by row would have to gather in draw order instead.
//!
//! [`PagedColumn::gather`]: crate::PagedColumn::gather

use swope_store::page::PAGE_ROWS;

/// Reusable scratch that reorders row lists so rows of one page are
/// adjacent: pages ascending, draw order kept within a page (a stable
/// counting sort — two passes, no comparison).
#[derive(Debug)]
pub struct PageGrouper {
    /// `log2` of the page size; `None`: lists pass through as-is.
    page_shift: Option<u32>,
    /// Per lane and page: the write position during the placement pass.
    next: Vec<usize>,
    grouped: Vec<u32>,
}

impl PageGrouper {
    /// A grouper for a dataset whose columns are `paged` (snapshot pages
    /// are [`PAGE_ROWS`] rows, a power of two, so a row's page is one
    /// shift); `false` makes [`group`](Self::group) the identity, which
    /// is what a heap dataset wants.
    pub fn new(paged: bool) -> Self {
        Self::with_shift(paged.then_some(PAGE_ROWS.trailing_zeros()))
    }

    fn with_shift(page_shift: Option<u32>) -> Self {
        Self { page_shift, next: Vec::new(), grouped: Vec::new() }
    }

    /// `rows` reordered so that rows of one page are adjacent. Returns
    /// `rows` itself when there is nothing to do (heap dataset, or every
    /// row on one page). Buffers grow to the longest list seen and are
    /// then reused.
    pub fn group<'a>(&'a mut self, rows: &'a [u32]) -> &'a [u32] {
        let Some(shift) = self.page_shift else { return rows };
        // One fold, so both reductions vectorize (an empty list folds
        // to min > max and falls out with the one-page case).
        let (min, max) = rows.iter().fold((u32::MAX, 0), |(lo, hi), &r| (lo.min(r), hi.max(r)));
        let (first, last) = (min >> shift, max >> shift);
        if first >= last {
            return rows;
        }
        // A sample lands on a handful of pages, so one counter per page
        // is a chain of dependent increments (each waits on the store
        // before it: ≈ 5 cycles a row, twice). Lane `k` therefore owns
        // the k-th quarter of the list and its own counters,
        // `next[k * pages + page]`, and the four quarters are walked side
        // by side: four independent chains. Placing a page's lane-0 rows
        // first, then lane 1's, … keeps the draw order.
        let pages = (last - first) as usize + 1;
        let page_of = |r: u32| ((r >> shift) - first) as usize;
        let quarter = rows.len().div_ceil(LANES);
        let next = &mut self.next;
        next.clear();
        next.resize(LANES * pages, 0);
        for_each_by_lane(rows, quarter, |lane, r| next[lane * pages + page_of(r)] += 1);
        let mut start = 0usize;
        for slot in (0..pages).flat_map(|page| (0..LANES).map(move |lane| lane * pages + page)) {
            start += std::mem::replace(&mut next[slot], start);
        }
        let grouped = &mut self.grouped;
        grouped.clear();
        grouped.resize(rows.len(), 0);
        for_each_by_lane(rows, quarter, |lane, r| {
            let at = &mut next[lane * pages + page_of(r)];
            grouped[*at] = r;
            *at += 1;
        });
        grouped
    }
}

/// Independent slices of a list counted and placed side by side.
const LANES: usize = 4;

/// Calls `f(lane, row)` for every row of `rows`, lane `k` being its k-th
/// `quarter`-long slice, the lanes' i-th rows one after another.
fn for_each_by_lane(rows: &[u32], quarter: usize, mut f: impl FnMut(usize, u32)) {
    for i in 0..quarter {
        for lane in 0..LANES {
            if let Some(&r) = rows.get(lane * quarter + i) {
                f(lane, r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_pages_ascending_and_keeps_draw_order_within_a_page() {
        let mut g = PageGrouper::with_shift(Some(3));
        let rows = [25, 3, 14, 21, 7, 3, 19, 20];
        assert_eq!(g.group(&rows), &[3, 7, 3, 14, 21, 19, 20, 25]);
        // Reuse with a shorter list leaves no stale tail.
        assert_eq!(g.group(&[31, 2]), &[2, 31]);
    }

    #[test]
    fn grouping_is_the_stable_sort_by_page_at_every_list_length() {
        // Lengths around the lane split: shorter than the four lanes, not
        // a multiple of them, one over, long.
        let mut g = PageGrouper::with_shift(Some(4));
        for n in [2usize, 3, 4, 5, 7, 9, 64, 1_001] {
            let rows: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761) % 100).collect();
            let mut want = rows.clone();
            want.sort_by_key(|&r| r / 16); // stable
            assert_eq!(g.group(&rows), want, "{n} rows");
        }
    }

    #[test]
    fn passes_lists_through_when_there_is_nothing_to_group() {
        let rows = [25, 3, 14];
        assert!(std::ptr::eq(PageGrouper::new(false).group(&rows), &rows[..]));
        // One page: returned as-is, not copied.
        assert!(std::ptr::eq(PageGrouper::new(true).group(&rows), &rows[..]));
        assert!(PageGrouper::with_shift(Some(3)).group(&[]).is_empty());
    }

    #[test]
    fn grouping_is_a_permutation_at_the_top_of_the_row_range() {
        let mut g = PageGrouper::new(true);
        let rows = [u32::MAX, 0, u32::MAX - 1, 70_000, 1];
        let mut got = g.group(&rows).to_vec();
        assert_eq!(got, [0, 1, 70_000, u32::MAX, u32::MAX - 1]);
        got.sort_unstable();
        let mut want = rows.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
