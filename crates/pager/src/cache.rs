//! The byte-budget page cache: which pages of the mapped snapshots count
//! as resident, and least-recently-touched eviction over them.
//!
//! The mapping is the only copy of a page's codes — a paged column
//! reads them in place — so this cache holds no bytes. It holds the
//! *accounting*: one [`PageCache`] is shared by every paged column
//! opened against it (the server owns a single process-wide instance),
//! a column *admits* a page the first time a query touches it while it
//! is cold, and each page is one of
//!
//! ```text
//! Cold ──admit (CRC + support check on first touch only)──▶ Resident
//!   ▲                                                          │
//!   └──────── evict: uncharge, Mapping::release(page) ─────────┘
//! ```
//!
//! When admitting would push the resident byte total past the budget,
//! the cache evicts the resident page touched longest ago until the
//! newcomer fits. Evicting a page *releases* it: its byte range is
//! handed back to the OS (`madvise(MADV_DONTNEED)` on an mmap'd
//! snapshot), so the budget bounds the snapshots' share of the
//! process's resident set, not a counter beside it. A single page larger
//! than the whole budget is allowed to overshoot — the cache bounds
//! steady-state memory, it does not deadlock on pathological budgets.
//! An unbounded cache (`None`, the default) keeps no stamps, takes no
//! lock and never releases anything.
//!
//! Why recency, and exactly: an adaptive loop re-reads every live
//! column's sampled pages at every doubling, so a query under a budget
//! is a cyclic scan over the same pages. The counter reverses its
//! column order on every other doubling, so each scan starts on the
//! pages the last one ended on — the pages touched last, which only a
//! least-recently-touched policy is sure to have kept.
//!
//! Each touch of a resident page stores the cache's next tick in the
//! page's stamp: one `fetch_add` and one store, no lock. Eviction keeps
//! a lazy min-heap of resident pages keyed by the stamp seen when each
//! was filed: a popped entry whose page was touched since is re-filed
//! under its new stamp, and the first one that was not is the least
//! recently touched page (every other entry's stamp is at least its
//! filed one). Re-filing is paid for by the touches that caused it, so
//! a victim costs `O(log n)` in the pages resident, never a walk over
//! every page ever admitted.
//!
//! Concurrency: a page's state is two bits in one atomic byte. On a
//! budgeted cache every change of the resident bit — admission and
//! eviction alike — happens under the eviction lock, so the byte total
//! is always the sum over resident pages, and a resident page has
//! exactly one heap entry. Readers take no lock and hold no pin: the
//! bytes are immutable and a released page refaults the same bytes, so
//! a gather that loses a race with an eviction still reads the right
//! codes (the page is then resident in the OS's eyes and cold in the
//! cache's until its next admission — a transient the budget tolerates
//! rather than serialising every read to prevent).

use std::cmp::Ordering as Order;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Weak};
use std::time::{Duration, Instant};

use crate::column::PagedColumn;

/// Page state bit: CRC and `max code < support` verified; survives
/// eviction, so a refault skips the re-check.
pub(crate) const VALIDATED: u8 = 1;
/// Page state bit: counted in the cache's resident bytes.
pub(crate) const RESIDENT: u8 = 1 << 1;

// Every flag and stamp access is `Relaxed`: they publish no other memory
// (the codes they describe are immutable bytes of the mapping), and the
// one invariant that spans two locations — resident bit ↔ byte total —
// is kept under the eviction mutex.

/// A resident page on the eviction heap, filed under the stamp its page
/// carried when it was pushed. Ordered so that `BinaryHeap` pops the
/// smallest stamp first; stamps are unique, so no two entries tie.
struct Filed {
    stamp: u64,
    column: Weak<PagedColumn>,
    page: u32,
}

impl PartialEq for Filed {
    fn eq(&self, other: &Self) -> bool {
        self.stamp == other.stamp
    }
}

impl Eq for Filed {}

impl PartialOrd for Filed {
    fn partial_cmp(&self, other: &Self) -> Option<Order> {
        Some(self.cmp(other))
    }
}

impl Ord for Filed {
    fn cmp(&self, other: &Self) -> Order {
        other.stamp.cmp(&self.stamp)
    }
}

/// Process-wide residency accounting for paged columns, with a byte
/// budget.
pub struct PageCache {
    /// `None` = unbounded (heap-equivalent residency).
    budget: Option<u64>,
    /// The next touch's stamp; only a budgeted cache advances it.
    tick: AtomicU64,
    resident: AtomicU64,
    peak_resident: AtomicU64,
    faults: AtomicU64,
    fault_nanos: AtomicU64,
    evictions: AtomicU64,
    evict_nanos: AtomicU64,
    crc_validations: AtomicU64,
    /// One entry per resident page, plus those of dropped columns until
    /// an eviction pops them.
    filed: Mutex<BinaryHeap<Filed>>,
}

/// A point-in-time copy of the cache's counters and gauges, for
/// metrics rendering and trace spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerSnapshot {
    /// Cold → resident admissions (first touch, or refetch after an
    /// eviction).
    pub faults: u64,
    /// Total nanoseconds spent admitting faulted pages: the first-touch
    /// CRC and support check, and the bookkeeping. Any eviction the
    /// admission forces is excluded — see `evict_nanos`.
    pub fault_nanos: u64,
    /// Frozen at 0. The compressed tier this counted refetches from is
    /// gone; the field stays because `benchmark/` reads it (like the two
    /// `*_scoped_exec` entry points, see `server/tests/frozen_contract.rs`).
    pub decompressions: u64,
    /// Pages evicted to make room (or by [`PageCache::trim`]).
    pub evictions: u64,
    /// Total nanoseconds spent finding and releasing victims.
    pub evict_nanos: u64,
    /// First-touch CRC verifications performed.
    pub crc_validations: u64,
    /// Bytes of mapped pages currently counted resident. Gauge.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`. Gauge.
    pub peak_resident_bytes: u64,
    /// Configured budget; `None` when unbounded.
    pub budget_bytes: Option<u64>,
}

impl PagerSnapshot {
    /// Counter deltas since `before`; gauges keep their current values.
    pub fn since(&self, before: &PagerSnapshot) -> PagerSnapshot {
        PagerSnapshot {
            faults: self.faults - before.faults,
            fault_nanos: self.fault_nanos - before.fault_nanos,
            evictions: self.evictions - before.evictions,
            evict_nanos: self.evict_nanos - before.evict_nanos,
            crc_validations: self.crc_validations - before.crc_validations,
            ..*self
        }
    }
}

impl PageCache {
    /// A cache evicting past `budget` bytes; `None` never evicts.
    pub fn new(budget: Option<u64>) -> Self {
        Self {
            budget,
            tick: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            fault_nanos: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evict_nanos: AtomicU64::new(0),
            crc_validations: AtomicU64::new(0),
            filed: Mutex::new(BinaryHeap::new()),
        }
    }

    /// A cache that never evicts.
    pub fn unbounded() -> Self {
        Self::new(None)
    }

    /// The configured byte budget, if any.
    pub fn budget_bytes(&self) -> Option<u64> {
        self.budget
    }

    /// Bytes currently resident across every column on this cache.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Copies all counters and gauges.
    pub fn snapshot(&self) -> PagerSnapshot {
        PagerSnapshot {
            faults: self.faults.load(Ordering::Relaxed),
            fault_nanos: self.fault_nanos.load(Ordering::Relaxed),
            decompressions: 0,
            evictions: self.evictions.load(Ordering::Relaxed),
            evict_nanos: self.evict_nanos.load(Ordering::Relaxed),
            crc_validations: self.crc_validations.load(Ordering::Relaxed),
            resident_bytes: self.resident.load(Ordering::Relaxed),
            peak_resident_bytes: self.peak_resident.load(Ordering::Relaxed),
            budget_bytes: self.budget,
        }
    }

    /// Stamps a touch: `stamp` takes the next tick, so its page ranks
    /// as the most recently touched. Returns the tick.
    pub(crate) fn touch(&self, stamp: &AtomicU64) -> u64 {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        stamp.store(tick, Ordering::Relaxed);
        tick
    }

    pub(crate) fn note_crc_validation(&self) {
        self.crc_validations.fetch_add(1, Ordering::Relaxed);
    }

    fn note_fault(&self, took: Duration) {
        self.faults.fetch_add(1, Ordering::Relaxed);
        self.fault_nanos.fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
    }

    fn charge(&self, bytes: u64) {
        let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_resident.fetch_max(now, Ordering::Relaxed);
    }

    /// Uncharges bytes of pages that stopped being resident: evicted
    /// here, or dropped with their column.
    pub(crate) fn uncharge(&self, bytes: u64) {
        self.resident.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Counts `page` of `column` resident, evicting first if the budget
    /// requires it. The caller has validated the page and found it cold;
    /// `started` is when it began, so the fault is booked with its
    /// first-touch checks but without the eviction it may force. Losing
    /// a race to admit the same page is a no-op.
    pub(crate) fn admit(&self, column: &PagedColumn, page: usize, started: Instant) {
        let flags = column.flags(page);
        let bytes = column.payload_range(page).len() as u64;
        let Some(budget) = self.budget else {
            // Nothing ever leaves an unbounded cache: no stamps, no lock.
            if flags.fetch_or(RESIDENT, Ordering::Relaxed) & RESIDENT == 0 {
                self.note_fault(started.elapsed());
                self.charge(bytes);
            }
            return;
        };
        let mut filed = self.filed.lock().expect("a thread panicked holding the eviction lock");
        if flags.load(Ordering::Relaxed) & RESIDENT != 0 {
            return;
        }
        self.note_fault(started.elapsed());
        self.evict_down_to(&mut filed, budget.saturating_sub(bytes));
        let stamp = self.touch(column.stamp(page));
        flags.fetch_or(RESIDENT, Ordering::Relaxed);
        filed.push(Filed { stamp, column: column.weak(), page: page as u32 });
        self.charge(bytes);
    }

    /// Runs the eviction with nothing to admit: releases pages until
    /// resident bytes are back at or under the budget. Admission
    /// already keeps them there (one over-budget page excepted), so this
    /// is for a caller that wants that page gone too. No-op when
    /// unbounded or already within budget.
    pub fn trim(&self) {
        if let Some(budget) = self.budget {
            let mut filed = self.filed.lock().expect("a thread panicked holding the eviction lock");
            self.evict_down_to(&mut filed, budget);
        }
    }

    /// Evicts the least recently touched resident page until at most
    /// `target` bytes are resident or no page is left. A call re-files at
    /// most as many entries as the heap held when it began, so readers
    /// that keep touching pages cannot keep the search from ending.
    fn evict_down_to(&self, filed: &mut BinaryHeap<Filed>, target: u64) {
        let over = || self.resident.load(Ordering::Relaxed) > target;
        if !over() {
            return;
        }
        let started = Instant::now();
        let mut refiles = filed.len();
        while over() {
            let Some(mut entry) = filed.pop() else { break };
            // A dropped column uncharged its own pages.
            let Some(column) = entry.column.upgrade() else { continue };
            let page = entry.page as usize;
            let stamp = column.stamp(page).load(Ordering::Relaxed);
            if stamp != entry.stamp && refiles > 0 {
                refiles -= 1;
                entry.stamp = stamp;
                filed.push(entry);
                continue;
            }
            column.flags(page).fetch_and(!RESIDENT, Ordering::Relaxed);
            self.uncharge(column.payload_range(page).len() as u64);
            column.release(page);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.evict_nanos.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::tests::{column_bytes, open_on, CountingMapping};
    use std::sync::Arc;
    use swope_store::page::PAGE_ROWS;

    const PAGE: u64 = PAGE_ROWS as u64; // a full u8 page's payload bytes

    /// A four-page u8 column on `cache`, plus its mapping's release log
    /// (emptied of the whole-column release a budgeted open makes).
    fn four_pages(cache: &Arc<PageCache>) -> (Arc<PagedColumn>, Arc<CountingMapping>) {
        let rows = 4 * PAGE_ROWS;
        let opened = open_on(column_bytes(rows, 200).0, rows, 200, Arc::clone(cache)).unwrap();
        opened.1.released();
        opened
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = Arc::new(PageCache::unbounded());
        let (col, mapping) = four_pages(&cache);
        for _ in 0..3 {
            for page in 0..4 {
                col.code(page * PAGE_ROWS);
            }
        }
        cache.trim();
        let snap = cache.snapshot();
        assert_eq!((snap.faults, snap.evictions), (4, 0));
        assert_eq!(snap.resident_bytes, 4 * PAGE);
        assert!(cache.filed.lock().unwrap().is_empty(), "an unbounded cache files no page");
        assert_eq!(mapping.released(), [], "an unbounded cache releases nothing");
    }

    #[test]
    fn over_budget_admission_releases_the_coldest_page() {
        let cache = Arc::new(PageCache::new(Some(2 * PAGE)));
        let (col, mapping) = four_pages(&cache);
        col.code(0);
        col.code(PAGE_ROWS);
        assert_eq!(cache.snapshot().evictions, 0, "two pages fit");
        // Page 2 does not: page 0, touched longest ago, is released —
        // exactly its payload range.
        col.code(2 * PAGE_ROWS);
        let snap = cache.snapshot();
        assert_eq!((snap.faults, snap.evictions), (3, 1));
        assert_eq!(snap.resident_bytes, 2 * PAGE);
        assert_eq!(snap.peak_resident_bytes, 2 * PAGE);
        assert_eq!(mapping.released(), [col.payload_range(0)]);
        assert_eq!(col.resident_bytes(), 2 * PAGE);
        // A page touched since page 1 was survives the next eviction;
        // page 1 goes.
        col.code(2 * PAGE_ROWS + 1);
        col.code(3 * PAGE_ROWS);
        assert_eq!(cache.snapshot().evictions, 2);
        let before = cache.snapshot().faults;
        col.code(2 * PAGE_ROWS + 2);
        assert_eq!(cache.snapshot().faults, before, "page 2 was touched later, so page 1 went");
    }

    #[test]
    fn a_page_larger_than_the_budget_overshoots_and_trim_releases_it() {
        let cache = Arc::new(PageCache::new(Some(100)));
        let (col, mapping) = four_pages(&cache);
        col.code(0);
        assert_eq!(cache.snapshot().resident_bytes, PAGE, "overshoots rather than failing");
        // The next admission evicts it first: never two pages at once.
        col.code(PAGE_ROWS);
        let snap = cache.snapshot();
        assert_eq!((snap.evictions, snap.peak_resident_bytes), (1, PAGE));
        cache.trim();
        assert_eq!(cache.snapshot().resident_bytes, 0);
        assert_eq!(mapping.released().len(), 2);
        assert_eq!(col.code(5), col.code(5), "released pages read on");
    }

    #[test]
    fn dropping_a_column_uncharges_its_resident_pages() {
        let cache = Arc::new(PageCache::new(Some(3 * PAGE)));
        let (first, _) = four_pages(&cache);
        let (second, _) = four_pages(&cache);
        first.code(0);
        first.code(PAGE_ROWS);
        second.code(0);
        assert_eq!(cache.snapshot().resident_bytes, 3 * PAGE);
        drop(first);
        assert_eq!(cache.snapshot().resident_bytes, PAGE);
        // The dead column's entries are dropped by the next eviction,
        // and its bytes are not uncharged a second time.
        for page in 1..4 {
            second.code(page * PAGE_ROWS);
        }
        second.code(0);
        assert_eq!(cache.snapshot().resident_bytes, 3 * PAGE);
        assert_eq!(cache.filed.lock().unwrap().len(), 3, "one entry per resident page");
    }

    #[test]
    fn least_recently_touched_page_goes_first() {
        let cache = Arc::new(PageCache::new(Some(3 * PAGE)));
        let (col, mapping) = four_pages(&cache);
        for page in [0, 1, 2, 0] {
            col.code(page * PAGE_ROWS);
        }
        // Page 0 was touched again, so page 1 is the oldest.
        col.code(3 * PAGE_ROWS);
        assert_eq!(mapping.released(), [col.payload_range(1)]);
        // Page 3's admission and a touch of page 2 come after page 0's
        // last touch: page 1's return evicts page 0, page 0's page 3.
        col.code(2 * PAGE_ROWS);
        col.code(PAGE_ROWS);
        col.code(0);
        let want = [col.payload_range(0), col.payload_range(3)];
        assert_eq!(mapping.released(), want);
        assert_eq!(cache.snapshot().evictions, 3);
    }

    /// Faults an exact LRU of `capacity` pages takes on `touches`.
    fn lru_faults(capacity: usize, touches: &[usize]) -> u64 {
        let mut resident: Vec<usize> = Vec::new(); // oldest first
        let mut faults = 0;
        for &page in touches {
            match resident.iter().position(|&p| p == page) {
                Some(at) => {
                    resident.remove(at);
                }
                None => {
                    faults += 1;
                    if resident.len() == capacity {
                        resident.remove(0);
                    }
                }
            }
            resident.push(page);
        }
        faults
    }

    #[test]
    fn an_alternating_scan_faults_as_exact_lru_does() {
        // The doubling loop's access: the same pages over and over, each
        // scan in the other direction from the last.
        let rows = 8 * PAGE_ROWS;
        let cache = Arc::new(PageCache::new(Some(6 * PAGE)));
        let (col, _) = open_on(column_bytes(rows, 200).0, rows, 200, Arc::clone(&cache)).unwrap();
        let touches: Vec<usize> = (0..6)
            .flat_map(|scan| (0..8).map(move |i| if scan % 2 == 0 { i } else { 7 - i }))
            .collect();
        for &page in &touches {
            col.code(page * PAGE_ROWS);
        }
        // Eight cold faults, then two a scan: each starts on the six
        // pages the last one ended on. (A CLOCK cache takes 26 here;
        // under a 4-page budget it takes LRU's 28, so that size cannot
        // tell the two apart.)
        assert_eq!(lru_faults(6, &touches), 8 + 5 * 2);
        assert_eq!(cache.snapshot().faults, lru_faults(6, &touches));
        assert_eq!(cache.snapshot().peak_resident_bytes, 6 * PAGE);
    }

    #[test]
    fn snapshot_since_deltas_counters_and_keeps_gauges() {
        let cache = PageCache::new(Some(1));
        cache.note_fault(Duration::from_nanos(500));
        let before = cache.snapshot();
        cache.note_fault(Duration::from_nanos(200));
        cache.note_crc_validation();
        let delta = cache.snapshot().since(&before);
        assert_eq!(delta.faults, 1);
        assert_eq!(delta.fault_nanos, 200);
        assert_eq!(delta.crc_validations, 1);
        assert_eq!(delta.decompressions, 0);
        assert_eq!(delta.budget_bytes, Some(1));
    }
}
