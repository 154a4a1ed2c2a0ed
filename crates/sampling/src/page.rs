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
//! of page `j` holds one of its rows. A *position* is the index a heap
//! column stores that row's code at: `j·PAGE_ROWS + s` for a dataset of
//! its own. A slice of a larger table's rows keeps the table's pages, so
//! its positions and rows sit on a virtual origin its grid's lead before
//! 0 ([`PageGrid`]): page `j` is then the table's page `⌊base/P⌋ + j`,
//! and slot `s` of it is position `j·PAGE_ROWS + s − lead`. A
//! population's *members* in page `j` are the slots of its rows there
//! ([`PageMembers`]): all of them for the whole dataset, the slots of a
//! range's or a predicate's rows for a scope.

use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use swope_store::page::{PageGrid, PAGE_ROWS};

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
/// A layout has a *frame*: the rows `union_rows` of the table it was cut
/// from and the first of them, `base`, that it holds. A dataset of its
/// own is the frame `(N, 0)`. A slice ([`PageLayout::slice`]) lays its
/// rows out as its table does: its page `j` is the table's page
/// `⌊base/P⌋ + j` restricted to the slice's rows, in the table's slot
/// order, on a [`PageGrid`] that leads with `base mod P` slots. So a
/// table page the slice holds whole is that page, slot for slot, and any
/// window of the table's slots is one run of the slice's positions:
/// [`PageLayout::in_table`] and [`PageLayout::from_table`] move
/// positions between the two, runs as runs.
///
/// A table holds, for each index, the XOR of its in-page offset and the
/// other side's, both on the virtual origin: row `r` is at position
/// `((r + lead) ^ to_position[r]) − lead`, and position `p` holds row
/// `((p + lead) ^ to_row[p]) − lead`. An XOR keeps the page bits and
/// swaps the offset in one operation. It is also the form x86 code
/// generation gets right: rustc 1.95 compiles `(r & !0xFFFF) | t[r]`, with
/// `t` a `u16` table indexed by `r`, to a lone zero-extending load that
/// drops the page bits in release builds.
pub struct PageLayout {
    num_rows: usize,
    union_rows: usize,
    base: usize,
    /// `base mod PAGE_ROWS`: the grid's lead, as positions are typed.
    lead: u32,
    to_position: OnceLock<Vec<u16>>,
    to_row: OnceLock<Vec<u16>>,
    /// The pages whose table page holds rows outside the layout (at most
    /// the first and the last), each with every slot's rank there: how
    /// many of the layout's rows the slots before it hold, and one more.
    fringes: OnceLock<Vec<(usize, Vec<u16>)>>,
}

impl PageLayout {
    /// The layout of a dataset of `num_rows` rows of its own: the frame
    /// `(num_rows, 0)`. While a layout of that frame is alive, every call
    /// returns it, so the columns of a dataset share one set of tables. A
    /// layout lives as long as its holders: a caller that needs it across
    /// queries keeps its `Arc`, as a dataset and a cluster coordinator
    /// do.
    ///
    /// # Panics
    ///
    /// If `num_rows` exceeds `u32::MAX`.
    pub fn of(num_rows: usize) -> Arc<PageLayout> {
        Self::slice(num_rows, 0, num_rows)
    }

    /// The layout of rows `base .. base + num_rows` of a table of
    /// `union_rows` rows, as the table lays them out. An empty slice is
    /// the empty dataset's layout, and the whole table its own.
    ///
    /// # Panics
    ///
    /// If the slice ends past the table, or the table has more than
    /// `u32::MAX` rows.
    pub fn slice(union_rows: usize, base: usize, num_rows: usize) -> Arc<PageLayout> {
        assert!(union_rows <= u32::MAX as usize, "row count exceeds u32 index space");
        assert!(
            base.checked_add(num_rows).is_some_and(|end| end <= union_rows),
            "rows {base}..+{num_rows} run past a table of {union_rows}"
        );
        let (union_rows, base) = if num_rows == 0 { (0, 0) } else { (union_rows, base) };
        static LIVE: Mutex<Vec<Weak<PageLayout>>> = Mutex::new(Vec::new());
        let mut live = LIVE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        live.retain(|w| w.strong_count() > 0);
        let key = (num_rows, union_rows, base);
        if let Some(layout) = live
            .iter()
            .find_map(|w| w.upgrade().filter(|l| (l.num_rows, l.union_rows, l.base) == key))
        {
            return layout;
        }
        let layout = Arc::new(PageLayout {
            num_rows,
            union_rows,
            base,
            lead: (base % PAGE_ROWS) as u32,
            to_position: OnceLock::new(),
            to_row: OnceLock::new(),
            fringes: OnceLock::new(),
        });
        live.push(Arc::downgrade(&layout));
        layout
    }

    /// A table of one XOR delta per row: `entry(slot, row)` gives the
    /// entry's in-page index and value for in-page row `row` at in-page
    /// `slot`, both on the virtual origin. Each page is its table page's
    /// shuffle, restricted to the rows the layout holds.
    fn table(&self, entry: impl Fn(u16, u16) -> (u16, u16)) -> Vec<u16> {
        let grid = self.grid();
        let mut rows: Vec<u16> = Vec::with_capacity(self.union_rows.min(PAGE_ROWS));
        let mut table = vec![0u16; self.num_rows];
        for page in 0..grid.count() {
            let (span, lo) = (grid.span(page), grid.first_slot(page));
            let (table_page, len) = self.table_page(page);
            Self::slot_rows(table_page, len, &mut rows);
            let held = lo..lo + span.len();
            let table = &mut table[span];
            let mine = rows.iter().filter(|&&r| held.contains(&usize::from(r)));
            for (s, &r) in (lo..).zip(mine) {
                let (at, delta) = entry(s as u16, r);
                table[usize::from(at) - lo] = delta;
            }
        }
        table
    }

    /// Writes to `out` the in-page row each slot of page `page`, of `len`
    /// rows, holds: slot `s` holds row `page·PAGE_ROWS + out[s]`. This is
    /// the shuffle the tables are built from, one page at a time.
    fn slot_rows(page: usize, len: usize, out: &mut Vec<u16>) {
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

    /// The table page of page `page`, and its rows.
    fn table_page(&self, page: usize) -> (usize, usize) {
        let table_page = self.base / PAGE_ROWS + page;
        (table_page, (self.union_rows - table_page * PAGE_ROWS).min(PAGE_ROWS))
    }

    /// The slot ranks of page `page`, if its table page holds rows
    /// outside the layout.
    fn fringe(&self, page: usize) -> Option<&[u16]> {
        let fringes = self.fringes.get_or_init(|| {
            let (grid, held) = (self.grid(), self.base..self.base + self.num_rows);
            let (mut fringes, mut rows) = (Vec::new(), Vec::new());
            for page in (0..grid.count()).filter(|&page| page == 0 || page + 1 == grid.count()) {
                let (table_page, len) = self.table_page(page);
                if grid.span(page).len() == len {
                    continue;
                }
                Self::slot_rows(table_page, len, &mut rows);
                let mut rank = 0;
                let ranks = rows.iter().map(|&r| {
                    rank += u16::from(held.contains(&(table_page * PAGE_ROWS + usize::from(r))));
                    rank
                });
                fringes.push((page, std::iter::once(0).chain(ranks).collect()));
            }
            fringes
        });
        fringes.iter().find(|(fringe, _)| *fringe == page).map(|(_, ranks)| &ranks[..])
    }

    /// `positions` of this layout as positions of its table (written to
    /// `runs` and `list` unless the layout is its table's own): shifted by
    /// the base, and on a fringe page at its rows' slots there. A run stays
    /// a run, whose slots between its rows' hold rows outside the layout.
    pub fn in_table<'a>(
        &self,
        positions: Positions<'a>,
        runs: &'a mut Vec<Range<u32>>,
        list: &'a mut Vec<u32>,
    ) -> Positions<'a> {
        if (self.union_rows, self.base) == (self.num_rows, 0) {
            return positions;
        }
        let grid = self.grid();
        let at = |p: u32| {
            let page = grid.page_of(p as usize);
            let Some(ranks) = self.fringe(page) else { return p + self.base as u32 };
            let rank = p as usize - grid.span(page).start;
            let slot = ranks.partition_point(|&r| usize::from(r) <= rank) - 1;
            (self.table_page(page).0 * PAGE_ROWS + slot) as u32
        };
        runs.clear();
        runs.extend(positions.runs.iter().map(|run| at(run.start)..at(run.end - 1) + 1));
        list.clear();
        list.extend(positions.list.iter().map(|&p| at(p)));
        Positions { runs, list }
    }

    /// Writes to `runs` and `list` the positions of this layout's rows
    /// among `positions` of its table, a window as one run; or says in one
    /// line which position lies on no page of the layout, or past its
    /// table page's rows.
    pub fn from_table(
        &self,
        positions: Positions<'_>,
        runs: &mut Vec<Range<u32>>,
        list: &mut Vec<u32>,
    ) -> Result<(), String> {
        runs.clear();
        list.clear();
        let (grid, first_page) = (self.grid(), self.base / PAGE_ROWS);
        let pages = first_page..first_page + grid.count();
        // The layout's positions in `window`, slots of one table page;
        // windows come in page order, so each page is looked up once.
        let mut at = None;
        let (mut len, mut first, mut ranks): (usize, u32, Option<&[u16]>) = (0, 0, None);
        let mut mine = |window: Range<u32>, what: &dyn Fn() -> String| {
            let (table_page, slot) =
                (window.start as usize / PAGE_ROWS, window.start as usize % PAGE_ROWS);
            if at != Some(table_page) {
                let Some(page) = table_page.checked_sub(first_page).filter(|&j| j < grid.count())
                else {
                    return Err(format!(
                        "{} is on table page {table_page}, past this slice's pages {pages:?}",
                        what()
                    ));
                };
                (len, first, ranks) =
                    (self.table_page(page).1, grid.span(page).start as u32, self.fringe(page));
                at = Some(table_page);
            }
            let end = slot + window.len();
            if end > len {
                return Err(format!(
                    "{} goes past the {len} rows of table page {table_page}",
                    what()
                ));
            }
            Ok(match ranks {
                None => first + slot as u32..first + end as u32,
                Some(ranks) => first + u32::from(ranks[slot])..first + u32::from(ranks[end]),
            })
        };
        for run in positions.runs {
            let window = mine(run.clone(), &|| format!("window {run:?}"))?;
            runs.extend(Some(window).filter(|window| !window.is_empty()));
        }
        for &p in positions.list {
            list.extend(mine(p..p + 1, &|| format!("position {p}"))?);
        }
        Ok(())
    }

    /// Rows laid out, `N`.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// The frame: the rows of the table the layout was cut from, and the
    /// first of them it holds. `(N, 0)` for a dataset of its own.
    pub fn frame(&self) -> (usize, usize) {
        (self.union_rows, self.base)
    }

    /// Which positions each page holds.
    pub fn grid(&self) -> PageGrid {
        PageGrid::new(self.num_rows, self.lead as usize)
    }

    /// The position row `row` is stored at.
    #[inline]
    pub fn position_of(&self, row: u32) -> u32 {
        ((row + self.lead) ^ u32::from(self.to_position()[row as usize])) - self.lead
    }

    /// Appends the rows stored at `positions` to `out`, runs first, in
    /// order: how a sample drawn by [`PagePrefix`] names rows.
    pub fn rows_of(&self, positions: Positions<'_>, out: &mut Vec<u32>) {
        let (to_row, lead) = (self.to_row(), self.lead);
        let row = |p: u32, d: u16| ((p + lead) ^ u32::from(d)) - lead;
        for run in positions.runs {
            let deltas = &to_row[run.start as usize..run.end as usize];
            out.extend(run.clone().zip(deltas).map(|(p, &d)| row(p, d)));
        }
        out.extend(positions.list.iter().map(|&p| row(p, to_row[p as usize])));
    }

    /// The position → row table: position `p`, at slot `s` of its page,
    /// holds that page's row of in-page offset `s ^ deltas[p]`. How a scan
    /// of stored codes names their rows.
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
        self.each_page(values, |rows, stored, deltas, lo| {
            for (r, (&v, &d)) in (lo..).zip(rows.iter().zip(deltas)) {
                stored[(r ^ usize::from(d)) - lo] = v;
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
        self.each_page(values, |stored, rows, deltas, lo| {
            for (r, (v, &d)) in (lo..).zip(rows.iter_mut().zip(deltas)) {
                *v = stored[(r ^ usize::from(d)) - lo];
            }
        });
    }

    /// Runs `f(copy, page, deltas, lo)` on every page of `values`, with a
    /// copy of the page's values to read while `f` rewrites it in place,
    /// the page's row → position deltas, and its first slot.
    fn each_page<T: Copy>(&self, values: &mut [T], f: impl Fn(&[T], &mut [T], &[u16], usize)) {
        assert_eq!(values.len(), self.num_rows(), "one value per laid-out row");
        let (grid, deltas) = (self.grid(), self.to_position());
        let mut copy = Vec::with_capacity(values.len().min(PAGE_ROWS));
        for page in 0..grid.count() {
            let span = grid.span(page);
            copy.clear();
            copy.extend_from_slice(&values[span.clone()]);
            f(&copy, &mut values[span.clone()], &deltas[span], grid.first_slot(page));
        }
    }
}

/// Two layouts of one frame and row count are the same layout.
impl PartialEq for PageLayout {
    fn eq(&self, other: &Self) -> bool {
        (self.num_rows, self.frame()) == (other.num_rows, other.frame())
    }
}

impl Eq for PageLayout {}

impl std::fmt::Debug for PageLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageLayout")
            .field("num_rows", &self.num_rows())
            .field("frame", &self.frame())
            .finish()
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
    /// The layout's pages.
    grid: PageGrid,
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
    /// A fringe page: its rows in `lo..hi` (in-page, on the virtual
    /// origin) are the members.
    Rows(u32, u32),
    /// A member page, whose bitmap starts at this index of
    /// [`PageMembers::words`].
    Bits(u32),
}

impl PageMembers {
    /// A population with no page yet, over a layout of pages `grid`.
    pub fn new(grid: PageGrid) -> Self {
        Self { grid, ..Self::default() }
    }

    /// The rows of `rows` as `layout` lays them out: a page the range
    /// holds whole is whole, any other a fringe page of the range's rows.
    ///
    /// # Panics
    ///
    /// If `rows` ends past the layout's rows.
    pub fn range(layout: &Arc<PageLayout>, rows: Range<usize>) -> Self {
        assert!(rows.end <= layout.num_rows(), "range {rows:?} past the layout's rows");
        let grid = layout.grid();
        let mut members = Self::new(grid);
        for page in grid.pages_of(rows.clone()) {
            let (span, first) = (grid.span(page), grid.first_slot(page));
            let lo = rows.start.max(span.start) - span.start + first;
            let hi = rows.end.min(span.end) - span.start + first;
            let kind =
                if hi - lo == span.len() { Kind::Whole } else { Kind::Rows(lo as u32, hi as u32) };
            members.push(page, hi - lo, kind);
        }
        members.layout =
            members.pages.iter().any(|c| c.kind != Kind::Whole).then(|| layout.clone());
        members
    }

    /// Adds page `page` of the grid after every page added so far.
    /// `fill(slots, flags)` sets `flags[i]` iff slot `slots.start + i` is
    /// a member, for the page's slots at most 64 at a time. A page with no
    /// member is left out, one with every slot a member is whole.
    ///
    /// # Panics
    ///
    /// If `page` does not follow the last page added.
    pub fn push_page(&mut self, page: usize, mut fill: impl FnMut(Range<usize>, &mut [bool])) {
        let first_slot = self.grid.first_slot(page);
        let page_len = self.grid.span(page).len();
        let slots = first_slot..first_slot + page_len;
        let from = self.words.len();
        let mut members = 0;
        for first in (0..PAGE_ROWS).step_by(64) {
            let mut flags = [false; 64];
            let (lo, hi) = (slots.start.max(first), slots.end.min(first + 64));
            if lo < hi {
                fill(lo..hi, &mut flags[lo - first..hi - first]);
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
        let PageMembers { pages, words, layout, grid, .. } = &mut members;
        for cursor in pages.iter_mut() {
            let (kind, deltas) = (cursor.kind, fringe_deltas(layout.as_deref(), *grid, cursor));
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
        let PageMembers { pages, words, layout, grid, .. } = &mut self.members;
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
            // The page's first position, and the slot it is at.
            let page = cursor.page as usize;
            let (base, first_slot) = (grid.span(page).start as u32, grid.first_slot(page) as u32);
            let start = cursor.next;
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
                    let deltas = fringe_deltas(layout.as_deref(), *grid, cursor);
                    let word = |w| member_word(words, deltas, kind, w);
                    take(word, start, d, (base, first_slot), &mut self.list)
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

/// A fringe page's slot → row table, from its first slot on.
#[derive(Clone, Copy)]
struct Fringe<'a> {
    deltas: &'a [u16],
    first_slot: usize,
}

/// Which of slots `64·w .. 64·w + 64` of `cursor`'s page, a member or a
/// fringe page, are members, as bits of a word: read from its bitmap in
/// `words`, or worked out from the page's `fringe` table for the
/// fringe's rows.
fn member_word(words: &[u64], fringe: Fringe<'_>, kind: Kind, w: usize) -> u64 {
    let Kind::Rows(lo, hi) = kind else {
        let Kind::Bits(from) = kind else { unreachable!("a whole page has no member words") };
        return words[from as usize + w];
    };
    // In-page rows and slots fit a `u16`, and so does the span of a page
    // the range does not hold whole: 16-bit lanes.
    let (lo, span, first) = (lo as u16, (hi - lo) as u16, w * 64);
    let member = |(s, &d): (usize, &u16)| (s as u16 ^ d).wrapping_sub(lo) < span;
    let Fringe { deltas, first_slot } = fringe;
    if first_slot > 0 {
        // A page that leads: no slot below its first.
        let slot = |s: usize| s.checked_sub(first_slot).and_then(|i| deltas.get(i));
        return pack((first..first + 64).map(|s| slot(s).is_some_and(|d| member((s, d)))));
    }
    match deltas.get(first..first + 64) {
        Some(chunk) => {
            let chunk: &[u16; 64] = chunk.try_into().expect("64 slots");
            pack((first..).zip(chunk).map(member))
        }
        None => pack((first..).zip(deltas.get(first..).unwrap_or_default()).map(member)),
    }
}

/// The slot → row table of `cursor`'s page, if it is a fringe page.
fn fringe_deltas<'a>(
    layout: Option<&'a PageLayout>,
    grid: PageGrid,
    cursor: &Cursor,
) -> Fringe<'a> {
    let page = cursor.page as usize;
    match (layout, cursor.kind) {
        (Some(layout), Kind::Rows(..)) => Fringe {
            deltas: &layout.row_deltas()[grid.span(page)],
            first_slot: grid.first_slot(page),
        },
        _ => Fringe { deltas: &[], first_slot: 0 },
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
/// membership words `word(w)` gives, and whose first position `base` is
/// at slot `first_slot`, that follow slot `next` (itself included)
/// cyclically; returns the slot past the last.
fn take(
    word: impl Fn(usize) -> u64,
    next: u32,
    mut d: u32,
    (base, first_slot): (u32, u32),
    out: &mut Vec<u32>,
) -> u32 {
    let mut slot = next as usize % PAGE_ROWS;
    loop {
        let w = slot / 64;
        let mut word = word(w) & (!0 << (slot % 64));
        while word != 0 {
            let at = (w * 64) as u32 + word.trailing_zeros();
            out.push(base + (at - first_slot));
            word &= word - 1;
            d -= 1;
            if d == 0 {
                return at + 1;
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
        let grid = layout.grid();
        let mut members = PageMembers::new(grid);
        for page in 0..grid.count() {
            let (span, first) = (grid.span(page), grid.first_slot(page));
            let deltas = &layout.row_deltas()[span.clone()];
            members.push_page(page, |slots, flags| {
                for (flag, s) in flags.iter_mut().zip(slots) {
                    let row = s ^ usize::from(deltas[s - first]);
                    *flag = member(span.start + row - first);
                }
            });
        }
        members
    }

    /// A dataset's own layout of `n` rows, and a slice of as many rows
    /// cut from a larger table past its page 0, off a page boundary.
    fn layouts(n: usize) -> [Arc<PageLayout>; 2] {
        [PageLayout::of(n), PageLayout::slice(n + 2 * P, P + 40_000, n)]
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
        for layout in layouts(n) {
            let rows: Vec<u32> = (0..n as u32).collect();
            let mut stored = rows.clone();
            layout.store(&mut stored);
            for (p, &r) in stored.iter().enumerate() {
                assert_eq!(r, row_at(&layout, p as u32));
            }
            layout.restore(&mut stored);
            assert_eq!(stored, rows);
        }
    }

    /// A slice keeps its table's layout: each of its pages is a page of
    /// the table, in the table's slot order over the slice's rows, and a
    /// page the slice holds whole is the table's, shifted by the base.
    /// So a window of a table page's slots is one run of the slice's
    /// positions.
    #[test]
    fn a_slice_keeps_its_tables_layout() {
        let n = 3 * P + 1_234;
        let union = PageLayout::of(n);
        for (base, len) in [(0, P + 5), (40_000, 2 * P), (P + 9, n - P - 9), (5, 100), (2 * P, P)] {
            let slice = PageLayout::slice(n, base, len);
            let grid = slice.grid();
            assert_eq!((slice.frame(), grid.lead()), ((n, base), base % P));
            let mut seen = vec![false; len];
            let mut last: Option<(usize, u32)> = None;
            for p in 0..len as u32 {
                let r = row_at(&slice, p);
                assert_eq!(slice.position_of(r), p);
                assert!(!std::mem::replace(&mut seen[r as usize], true), "row {r} twice");
                let at = union.position_of(r + base as u32);
                let page = grid.page_of(p as usize);
                assert_eq!(page + base / P, at as usize / P, "position {p} left its table page");
                if let Some((_, before)) = last.filter(|&(last, _)| last == page) {
                    assert!(before < at, "position {p} out of the table's slot order");
                }
                last = Some((page, at));
                let table_page = (at as usize / P * P)..(at as usize / P * P + P).min(n);
                if grid.span(page).len() == table_page.len() {
                    assert_eq!(at, p + base as u32, "a whole page shifts by the base");
                }
            }
        }
        // The whole table and an empty slice are datasets of their own.
        assert!(Arc::ptr_eq(&PageLayout::slice(n, 0, n), &union));
        assert_eq!(PageLayout::slice(n, 77, 0).frame(), (0, 0));
    }

    /// A slice's positions and its table's name the same rows:
    /// `in_table` moves a position to its row's table slot, `from_table`
    /// moves it back, and a page's run on either side is one run on the
    /// other. A table slot of no row of the slice is no position of it.
    #[test]
    fn in_table_and_from_table_move_positions_between_a_slice_and_its_table() {
        let n = 3 * P + 1_234;
        let table = PageLayout::of(n);
        for (base, len) in [(0, n), (0, P + 5), (40_000, 2 * P), (P + 9, n - P - 9), (5, 100)] {
            let slice = PageLayout::slice(n, base, len);
            let (mut runs, mut list, mut back, mut back_list) = Default::default();
            let all: Vec<u32> = (0..len as u32).collect();
            let at = slice.in_table(Positions::from(&all), &mut runs, &mut list).list.to_vec();
            for (p, &q) in at.iter().enumerate() {
                assert_eq!(row_at(&table, q), base as u32 + row_at(&slice, p as u32), "{p}");
            }
            slice.from_table(Positions::from(&at), &mut back, &mut back_list).unwrap();
            assert_eq!((back.is_empty(), &back_list), (true, &all), "base {base}");
            let grid = slice.grid();
            for page in 0..grid.count() {
                let span = grid.span(page);
                let run = span.start as u32..span.end as u32;
                let positions = Positions { runs: std::slice::from_ref(&run), list: &[] };
                let window = slice.in_table(positions, &mut runs, &mut list).runs.to_vec();
                assert_eq!(window.len(), 1);
                let rows = base as u32..(base + len) as u32;
                let stray: Vec<u32> =
                    window[0].clone().filter(|&q| !rows.contains(&row_at(&table, q))).collect();
                let window = Positions { runs: &window, list: &stray };
                slice.from_table(window, &mut back, &mut back_list).unwrap();
                assert_eq!((&back[..], &back_list[..]), (&[run][..], &[][..]), "page {page}");
            }
        }
    }

    #[test]
    fn growth_is_nested_and_returns_exactly_the_new_rows() {
        let n = 3 * P + 1_234;
        for (members, member) in layouts(n).iter().flat_map(populations) {
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
        for layout in layouts(n) {
            let grid = layout.grid();
            let page = |p: u32| grid.page_of(p as usize);
            for (members, member) in populations(&layout) {
                let size = members.len();
                let mut s = PagePrefix::new(members, 3);
                let mut taken = vec![0usize; grid.count()];
                for target in [64usize, 128, 256, 1 << 12, 1 << 15, 1 << 17, n] {
                    let before = s.sampled();
                    let delta = s.grow_to(target);
                    let mut per_page = vec![0usize; taken.len()];
                    for w in delta.runs {
                        assert!(w.start < w.end, "empty window {w:?}");
                        assert_eq!(page(w.end - 1), page(w.start), "window {w:?} crosses a page");
                        per_page[page(w.start)] += w.len();
                    }
                    for &p in delta.list {
                        per_page[page(p)] += 1;
                    }
                    assert_eq!(per_page.iter().sum::<usize>(), target.min(size) - before);
                    for (page, d) in per_page.into_iter().enumerate() {
                        taken[page] += d;
                        let in_page = member[grid.span(page)].iter();
                        assert!(
                            taken[page] <= in_page.filter(|&&m| m).count(),
                            "page {page} overdrawn"
                        );
                    }
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
        let ranges =
            [0..n, P - 1..2 * P + 1, 1_000..P + 777, 3 * P..n, 5..5, 2 * P + 9..2 * P + 10];
        for (layout, rows) in layouts(n).iter().flat_map(|l| ranges.clone().map(|r| (l, r))) {
            let all = |members| {
                let mut drawn = positions(PagePrefix::new(members, 7).grow_to(n));
                drawn.sort_unstable();
                drawn
            };
            let want = of_rows(layout, |r| rows.contains(&r));
            assert_eq!(want.len(), rows.len());
            assert_eq!(all(PageMembers::range(layout, rows.clone())), all(want), "{rows:?}");
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
