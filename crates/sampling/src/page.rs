//! Page-prefix sampling: a fixed shuffle within every page, and a
//! sample that reads each page's next members in slot order.
//!
//! `docs/THEORY.md` § "Page-prefix sampling" shows that the samples
//! [`PagePrefix`] draws over a [`PageLayout`] have the law of prefixes
//! of a uniform permutation (§2.2), level by level and jointly across
//! the doublings, so Lemma 2 and the §3.1 martingale argument hold
//! unchanged.
//!
//! Terms: the *layout* is one permutation of every page's rows. Slot `s`
//! of page `j` holds one of its rows. A *position* is `j·PAGE_ROWS + s`,
//! the index a heap column stores that row's code at. A population's
//! *members* in page `j` are the slots of its rows there
//! ([`PageMembers`]): all of them for the whole dataset, the slots of a
//! range's or a predicate's rows for a scope.

use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use swope_store::page::PAGE_ROWS;

use crate::hypergeometric;
use crate::rng::Xoshiro256pp;

/// Seed of every page's layout shuffle; page `j` draws from its
/// `fork(j)`. Compiled in, so every process lays a row count out alike.
/// A snapshot records the seed its pages were ordered by, and a reader
/// refuses one written under another.
pub const LAYOUT_SEED: u64 = 0x5EED_1A70_9A6E_0016;

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
        let mut rows: Vec<u16> = Vec::with_capacity(self.num_rows.min(PAGE_ROWS));
        let mut table = vec![0u16; self.num_rows];
        for (page, table) in table.chunks_mut(PAGE_ROWS).enumerate() {
            Self::slot_rows(page, table.len(), &mut rows);
            for (s, &r) in rows.iter().enumerate() {
                let (at, delta) = entry(s as u16, r);
                table[at as usize] = delta;
            }
        }
        table
    }

    /// Writes to `out` the in-page row each slot of page `page`, of `len`
    /// rows, holds: slot `s` holds row `page·PAGE_ROWS + out[s]`. This is
    /// the shuffle the tables are built from, one page at a time, for a
    /// caller that needs a few pages of a layout it does not hold.
    pub fn slot_rows(page: usize, len: usize, out: &mut Vec<u16>) {
        debug_assert!(len <= PAGE_ROWS);
        let mut rng = Xoshiro256pp::seed_from_u64(LAYOUT_SEED).fork(page as u64);
        out.clear();
        out.extend((0..len).map(|r| r as u16));
        for i in (1..len).rev() {
            out.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
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

    /// Appends the rows stored at `positions` to `out`, runs first, in
    /// order: how a sample drawn by [`PagePrefix`] names rows.
    pub fn rows_of(&self, positions: Positions<'_>, out: &mut Vec<u32>) {
        let to_row = self.to_row();
        for run in positions.runs {
            let deltas = &to_row[run.start as usize..run.end as usize];
            out.extend(run.clone().zip(deltas).map(|(p, &d)| p ^ u32::from(d)));
        }
        out.extend(positions.list.iter().map(|&p| p ^ u32::from(to_row[p as usize])));
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

/// A delta's positions, as the count kernels read them: runs of
/// consecutive positions, each one slice of a heap column, and positions
/// one by one. [`PagePrefix`] draws whole pages as runs and member pages
/// as a list; on a paged dataset, whose positions are rows, the whole
/// delta is a list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Positions<'a> {
    /// Runs of consecutive positions.
    pub runs: &'a [Range<u32>],
    /// Positions one by one.
    pub list: &'a [u32],
}

impl Positions<'_> {
    /// Positions in the delta.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.len()).sum::<usize>() + self.list.len()
    }

    /// Whether the delta is empty.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty() && self.runs.iter().all(|r| r.is_empty())
    }
}

impl<'a> From<&'a [u32]> for Positions<'a> {
    fn from(list: &'a [u32]) -> Self {
        Positions { runs: &[], list }
    }
}

impl<'a> From<&'a Vec<u32>> for Positions<'a> {
    fn from(list: &'a Vec<u32>) -> Self {
        Positions { runs: &[], list }
    }
}

/// A population laid out by a [`PageLayout`]: per page, its *members*,
/// the slots of its rows that belong to the population, in slot order.
///
/// A *whole* page has every slot a member and stores nothing. A range's
/// *fringe* page keeps the bounds of its rows in the range, and its draws
/// walk its slots through the layout. Any other *member* page keeps a
/// bitmap of its member slots, one bit a slot. Which rows are members
/// depends only on the data and the scope; the layout only orders them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageMembers {
    pages: Vec<Cursor>,
    /// The member pages' bitmaps, `PAGE_ROWS / 64` words each.
    words: Vec<u64>,
    /// The layout a fringe page's draws walk.
    layout: Option<Arc<PageLayout>>,
    len: usize,
}

/// One page of a population, and the sample's progress through it: how
/// many of its members the sample holds, and the slot of the next one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cursor {
    page: u32,
    /// The page's members.
    len: u32,
    kind: Kind,
    taken: u32,
    next: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Whole,
    /// A fringe page: its rows in `lo..hi` (in-page) are the members.
    Rows(u32, u32),
    /// A member page, whose bitmap starts at this index of
    /// [`PageMembers::words`].
    Bits(u32),
}

impl PageMembers {
    /// The rows of `rows` as `layout` lays them out: a page the range
    /// holds whole is whole, any other a fringe page of the range's rows.
    ///
    /// # Panics
    ///
    /// If `rows` ends past the layout's rows.
    pub fn range(layout: &Arc<PageLayout>, rows: Range<usize>) -> Self {
        assert!(rows.end <= layout.num_rows(), "range {rows:?} past the layout's rows");
        let mut members = Self::default();
        let pages = rows.start / PAGE_ROWS..rows.end.div_ceil(PAGE_ROWS);
        for page in pages.filter(|_| !rows.is_empty()) {
            let first = page * PAGE_ROWS;
            let page_len = (layout.num_rows() - first).min(PAGE_ROWS);
            let (lo, hi) = (rows.start.max(first) - first, rows.end.min(first + page_len) - first);
            let kind =
                if hi - lo == page_len { Kind::Whole } else { Kind::Rows(lo as u32, hi as u32) };
            members.push(page, hi - lo, kind);
        }
        members.layout =
            members.pages.iter().any(|c| c.kind != Kind::Whole).then(|| layout.clone());
        members
    }

    /// Adds page `page`, of `page_len` rows, after every page added so
    /// far. `fill(slots, flags)` sets `flags[i]` iff slot `slots.start + i`
    /// is a member, for the page's slots 64 at a time. A page with no
    /// member is left out, one with every slot a member is whole.
    ///
    /// # Panics
    ///
    /// If `page` does not follow the last page added.
    pub fn push_page(
        &mut self,
        page: usize,
        page_len: usize,
        mut fill: impl FnMut(Range<usize>, &mut [bool]),
    ) {
        let from = self.words.len();
        let mut members = 0;
        for first in (0..PAGE_ROWS).step_by(64) {
            let mut flags = [false; 64];
            let n = page_len.saturating_sub(first).min(64);
            if n > 0 {
                fill(first..first + n, &mut flags[..n]);
            }
            let word = pack(flags.iter().copied());
            members += word.count_ones() as usize;
            self.words.push(word);
        }
        if members == 0 || members == page_len {
            self.words.truncate(from);
        }
        if members == page_len {
            self.push(page, page_len, Kind::Whole);
        } else if members > 0 {
            self.push(page, members, Kind::Bits(from as u32));
        }
    }

    fn push(&mut self, page: usize, len: usize, kind: Kind) {
        assert!(self.pages.last().map_or(true, |c| (c.page as usize) < page), "pages out of order");
        self.pages.push(Cursor { page: page as u32, len: len as u32, kind, taken: 0, next: 0 });
        self.len += len;
    }

    /// Members in the population, `n`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the population has no member.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The sampler of a population of [`PageMembers`]: each doubling splits
/// its new draws over the pages with hypergeometric variates, and takes
/// each page's next members in slot order, cyclically.
///
/// The query's seed draws, per page up front, the uniform member its
/// draws start at; growth then draws only the splits. Growth is nested —
/// every page's draws extend its earlier ones — and at `m = n` every
/// member has been drawn exactly once. A whole page's draws are one or
/// two runs of positions, a member page's a list of them.
#[derive(Debug, Clone)]
pub struct PagePrefix {
    members: PageMembers,
    sampled: usize,
    rng: Xoshiro256pp,
    runs: Vec<Range<u32>>,
    list: Vec<u32>,
}

impl PagePrefix {
    /// A sampler over `members`, drawing with `seed`.
    pub fn new(mut members: PageMembers, seed: u64) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let PageMembers { pages, words, layout, .. } = &mut members;
        for cursor in pages.iter_mut() {
            let (kind, deltas) = (cursor.kind, fringe_deltas(layout.as_deref(), cursor));
            let word = |w| member_word(words, deltas, kind, w);
            cursor.next = match kind {
                Kind::Whole => rng.next_below(u64::from(cursor.len)) as u32,
                // A uniform slot that holds a member is a uniform member.
                // Past as many misses as counting the page's members costs
                // words, the member of a uniform rank is, all the same.
                _ => (0..PAGE_ROWS / 64)
                    .map(|_| rng.next_below(PAGE_ROWS as u64) as usize)
                    .find(|&slot| word(slot / 64) >> (slot % 64) & 1 == 1)
                    .map_or_else(
                        || select(word, rng.next_below(u64::from(cursor.len)) as u32),
                        |slot| slot as u32,
                    ),
            };
        }
        Self { members, sampled: 0, rng, runs: Vec::new(), list: Vec::new() }
    }

    /// Members in the population, `n`.
    pub fn num_rows(&self) -> usize {
        self.members.len
    }

    /// Current sample size `M`.
    pub fn sampled(&self) -> usize {
        self.sampled
    }

    /// The positions the last [`PagePrefix::grow_to`] returned.
    pub fn positions(&self) -> Positions<'_> {
        Positions { runs: &self.runs, list: &self.list }
    }

    /// Grows the sample to `min(target, n)` members, never past it; a
    /// target at or below the current size is a no-op.
    ///
    /// Returns the **new** positions, in page order: per whole page that
    /// drew, one run, or two where its draws wrap past its end; per member
    /// page, its drawn members' positions.
    pub fn grow_to(&mut self, target: usize) -> Positions<'_> {
        self.runs.clear();
        self.list.clear();
        let target = target.min(self.members.len);
        let mut left = target.saturating_sub(self.sampled) as u64;
        let mut remaining = (self.members.len - self.sampled) as u64;
        self.sampled = self.sampled.max(target);
        let PageMembers { pages, words, layout, .. } = &mut self.members;
        for cursor in pages.iter_mut() {
            if left == 0 {
                break;
            }
            // The last page with members left holds all that remain, and
            // takes the rest without a draw.
            let rest = u64::from(cursor.len - cursor.taken);
            let d = hypergeometric(&mut self.rng, remaining, rest, left) as u32;
            remaining -= rest;
            left -= u64::from(d);
            if d == 0 {
                continue;
            }
            let (base, start) = (cursor.page * PAGE_ROWS as u32, cursor.next);
            cursor.next = match cursor.kind {
                Kind::Whole => {
                    // The draws are `start..end` and, past the page's
                    // end, `0..wrap`.
                    let end = (start + d).min(cursor.len);
                    self.runs.push(base + start..base + end);
                    let wrap = start + d - end;
                    if wrap > 0 {
                        self.runs.push(base..base + wrap);
                    }
                    (start + d) % cursor.len
                }
                kind => {
                    let deltas = fringe_deltas(layout.as_deref(), cursor);
                    take(|w| member_word(words, deltas, kind, w), start, d, base, &mut self.list)
                }
            };
            cursor.taken += d;
        }
        Positions { runs: &self.runs, list: &self.list }
    }
}

/// Flag `i` of `flags` (at most 64) as bit `i` of a word.
fn pack(flags: impl Iterator<Item = bool>) -> u64 {
    let mut bits = [false; 64];
    bits.iter_mut().zip(flags).for_each(|(bit, flag)| *bit = flag);
    bits.iter().enumerate().fold(0, |word, (i, &bit)| word | u64::from(bit) << i)
}

/// Which of slots `64·w .. 64·w + 64` of `cursor`'s page, a member or a
/// fringe page, are members, as bits of a word: read from its bitmap in
/// `words`, or worked out from the page's `deltas` (its slot → row
/// table) for the fringe's rows.
fn member_word(words: &[u64], deltas: &[u16], kind: Kind, w: usize) -> u64 {
    let Kind::Rows(lo, hi) = kind else {
        let Kind::Bits(from) = kind else { unreachable!("a whole page has no member words") };
        return words[from as usize + w];
    };
    // In-page rows and slots fit a `u16`, and so does the span of a page
    // the range does not hold whole: 16-bit lanes.
    let (lo, span, first) = (lo as u16, (hi - lo) as u16, w * 64);
    let member = |(s, &d): (usize, &u16)| (s as u16 ^ d).wrapping_sub(lo) < span;
    match deltas.get(first..first + 64) {
        Some(chunk) => {
            let chunk: &[u16; 64] = chunk.try_into().expect("64 slots");
            pack((first..).zip(chunk).map(member))
        }
        None => pack((first..).zip(deltas.get(first..).unwrap_or_default()).map(member)),
    }
}

/// The slot → row table of `cursor`'s page, if it is a fringe page.
fn fringe_deltas<'a>(layout: Option<&'a PageLayout>, cursor: &Cursor) -> &'a [u16] {
    match (layout, cursor.kind) {
        (Some(layout), Kind::Rows(..)) => {
            let first = cursor.page as usize * PAGE_ROWS;
            &layout.row_deltas()[first..(first + PAGE_ROWS).min(layout.num_rows())]
        }
        _ => &[],
    }
}

/// The slot of member `rank` (from 0) of a page whose membership words
/// `word(w)` gives.
fn select(word: impl Fn(usize) -> u64, mut rank: u32) -> u32 {
    for w in 0..PAGE_ROWS / 64 {
        let word = word(w);
        let ones = word.count_ones();
        if rank < ones {
            let word = (0..rank).fold(word, |word, _| word & (word - 1));
            return (w * 64) as u32 + word.trailing_zeros();
        }
        rank -= ones;
    }
    unreachable!("rank past the page's members")
}

/// Appends the positions of the `d ≥ 1` members of a page whose
/// membership words `word(w)` gives, and whose first position is `base`,
/// that follow slot `next` (itself included) cyclically; returns the
/// slot past the last.
fn take(word: impl Fn(usize) -> u64, next: u32, mut d: u32, base: u32, out: &mut Vec<u32>) -> u32 {
    let mut slot = next as usize % PAGE_ROWS;
    loop {
        let w = slot / 64;
        let mut word = word(w) & (!0 << (slot % 64));
        while word != 0 {
            let at = w * 64 + word.trailing_zeros() as usize;
            out.push(base + at as u32);
            word &= word - 1;
            d -= 1;
            if d == 0 {
                return at as u32 + 1;
            }
        }
        slot = (w + 1) * 64 % PAGE_ROWS;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: usize = PAGE_ROWS;

    fn positions(delta: Positions<'_>) -> Vec<u32> {
        delta.runs.iter().flat_map(Clone::clone).chain(delta.list.iter().copied()).collect()
    }

    /// The row stored at `position`.
    fn row_at(layout: &PageLayout, position: u32) -> u32 {
        let mut row = Vec::new();
        layout.rows_of(Positions::from(&[position][..]), &mut row);
        row[0]
    }

    /// The population of `layout`'s rows that satisfy `member`, built as
    /// a predicate scan builds one: each page's slots in slot order.
    fn of_rows(layout: &PageLayout, member: impl Fn(usize) -> bool) -> PageMembers {
        let mut members = PageMembers::default();
        for (page, deltas) in layout.row_deltas().chunks(P).enumerate() {
            members.push_page(page, deltas.len(), |slots, flags| {
                for ((flag, &d), s) in flags.iter_mut().zip(&deltas[slots.clone()]).zip(slots) {
                    *flag = member(page * P + (s ^ usize::from(d)));
                }
            });
        }
        members
    }

    /// Populations over `layout`, each with the membership of every
    /// position: the whole dataset; ranges whose fringe pages hold one
    /// member each, or many; and a predicate with pages of none, some and
    /// all of their rows as members.
    fn populations(layout: &Arc<PageLayout>) -> Vec<(PageMembers, Vec<bool>)> {
        let n = layout.num_rows();
        let member_rows: [&dyn Fn(usize) -> bool; 3] =
            [&|r| (P - 1..2 * P + 1).contains(&r), &|r| (1_000..P + 777).contains(&r), &|r| {
                r >= 2 * P || (r < P && r % 3 == 0)
            }];
        let mut out = vec![(PageMembers::range(layout, 0..n), vec![true; n])];
        for member in member_rows {
            let at: Vec<bool> = (0..n as u32).map(|p| member(row_at(layout, p) as usize)).collect();
            out.push((of_rows(layout, member), at));
        }
        // And the two ranges as a range scope builds them.
        for rows in [P - 1..2 * P + 1, 1_000..P + 777] {
            let at = (0..n as u32).map(|p| rows.contains(&(row_at(layout, p) as usize))).collect();
            out.push((PageMembers::range(layout, rows), at));
        }
        out
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
        let d = |l: &PageLayout, pages: Range<usize>| l.row_deltas()[pages].to_vec();
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
        let layout = PageLayout::of(n);
        for (members, member) in populations(&layout) {
            let size = members.len();
            let mut s = PagePrefix::new(members, 9);
            let mut seen = vec![false; n];
            for target in [100, 250, 1_000, 1_000, 40_000, 150_000, size, n + 5] {
                let before = s.sampled();
                let delta = positions(s.grow_to(target));
                assert_eq!(delta.len(), target.min(size).max(before) - before, "target {target}");
                for p in delta {
                    assert!(member[p as usize], "position {p} is no member");
                    assert!(!std::mem::replace(&mut seen[p as usize], true), "position {p} twice");
                }
            }
            // Full growth drew every member exactly once.
            assert_eq!(s.sampled(), size);
            assert_eq!(seen, member);
        }
    }

    #[test]
    fn page_draws_sum_to_the_delta_and_stay_in_their_page() {
        let n = 4 * P + 17;
        let layout = PageLayout::of(n);
        for (members, member) in populations(&layout) {
            let size = members.len();
            let mut s = PagePrefix::new(members, 3);
            let mut taken = vec![0usize; n.div_ceil(P)];
            for target in [64usize, 128, 256, 1 << 12, 1 << 15, 1 << 17, n] {
                let before = s.sampled();
                let delta = s.grow_to(target);
                let mut per_page = vec![0usize; taken.len()];
                for w in delta.runs {
                    let page = w.start as usize / P;
                    assert!(w.start < w.end, "empty window {w:?}");
                    assert_eq!((w.end as usize - 1) / P, page, "window {w:?} crosses a page");
                    per_page[page] += w.len();
                }
                for &p in delta.list {
                    per_page[p as usize / P] += 1;
                }
                assert_eq!(per_page.iter().sum::<usize>(), target.min(size) - before);
                for (page, d) in per_page.into_iter().enumerate() {
                    taken[page] += d;
                    let in_page = member[page * P..n.min((page + 1) * P)].iter();
                    assert!(
                        taken[page] <= in_page.filter(|&&m| m).count(),
                        "page {page} overdrawn"
                    );
                }
            }
        }
    }

    /// Windows a full population drew before populations had members:
    /// FNV-1a over every window's ends, seeds 1–4, `n = 3·P + 1 234`.
    #[test]
    fn whole_pages_draw_the_windows_they_always_did() {
        let n = 3 * P + 1_234;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for seed in 1..5u64 {
            let layout = PageLayout::of(n);
            let mut s = PagePrefix::new(PageMembers::range(&layout, 0..n), seed);
            // Pages whose scan finds every slot a member are whole too.
            let mut scanned = PagePrefix::new(of_rows(&layout, |_| true), seed);
            for target in [1usize, 100, 1_000, 5_000, 40_000, 150_000, n] {
                let delta = s.grow_to(target);
                assert!(delta.list.is_empty(), "a whole page lists no member");
                assert_eq!(scanned.grow_to(target), delta, "a scan of every row is the dataset");
                for w in delta.runs {
                    for b in [w.start, w.end].iter().flat_map(|x| x.to_le_bytes()) {
                        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
        }
        assert_eq!(h, 0x0b44_fb51_bdfd_47a5);
    }

    #[test]
    fn a_range_draws_the_members_a_scan_of_its_rows_finds() {
        let n = 3 * P + 1_234;
        let layout = PageLayout::of(n);
        for rows in [0..n, P - 1..2 * P + 1, 1_000..P + 777, 3 * P..n, 5..5, 2 * P + 9..2 * P + 10]
        {
            let all = |members| {
                let mut drawn = positions(PagePrefix::new(members, 7).grow_to(n));
                drawn.sort_unstable();
                drawn
            };
            let want = of_rows(&layout, |r| rows.contains(&r));
            assert_eq!(want.len(), rows.len());
            assert_eq!(all(PageMembers::range(&layout, rows.clone())), all(want), "{rows:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let n = 2 * P + 50;
        let run = |seed| {
            let mut s = PagePrefix::new(PageMembers::range(&PageLayout::of(n), 0..n), seed);
            [10usize, 1_000, 30_000].map(|m| positions(s.grow_to(m)))
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn every_row_is_included_at_rate_m_over_n() {
        // Over query seeds alone, with the layout fixed, a member's slot
        // lies among its page's draws with probability c_j / |M_j|, whose
        // mean is m / n; a non-member is never drawn. A whole population,
        // one with member pages of 40 % of their rows and a whole one, and
        // a range with a fringe page at either end.
        let (n, seeds) = (P + 1_000, 2_000u64);
        let layout = PageLayout::of(n);
        let sparse = |r: usize| r >= P || (r * 7_919) % 5 < 2;
        let range = |r: usize| (30_000..P + 500).contains(&r);
        let at = |member: &dyn Fn(usize) -> bool| -> Vec<bool> {
            (0..n as u32).map(|p| member(row_at(&layout, p) as usize)).collect()
        };
        let cases = [
            (PageMembers::range(&layout, 0..n), 4_000, vec![true; n]),
            (of_rows(&layout, sparse), 2_000, at(&sparse)),
            (PageMembers::range(&layout, 30_000..P + 500), 2_000, at(&range)),
        ];
        for (members, m, member) in cases {
            let size = members.len();
            let mut hits = vec![0u32; n];
            for seed in 0..seeds {
                let mut s = PagePrefix::new(members.clone(), seed);
                for target in [m / 4, m] {
                    for p in positions(s.grow_to(target)) {
                        hits[p as usize] += 1;
                    }
                }
            }
            let rate = m as f64 / size as f64;
            let mean = seeds as f64 * rate;
            let sd = (mean * (1.0 - rate)).sqrt();
            for (p, &h) in hits.iter().enumerate() {
                if !member[p] {
                    assert_eq!(h, 0, "non-member position {p} drawn");
                    continue;
                }
                let err = (f64::from(h) - mean).abs();
                assert!(err <= 6.0 * sd, "position {p}: {h} hits, mean {mean}");
            }
        }
    }

    #[test]
    fn empty_population() {
        let (none, empty) = (PageLayout::of(0), PageLayout::of(P + 5));
        for members in [PageMembers::range(&none, 0..0), PageMembers::range(&empty, 7..7)] {
            let mut s = PagePrefix::new(members, 1);
            assert!(s.grow_to(10).is_empty());
            assert_eq!((s.sampled(), s.num_rows()), (0, 0));
        }
        assert_eq!(PageLayout::of(0).num_rows(), 0);
    }
}
