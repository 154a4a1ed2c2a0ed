//! The byte-budget page cache: which pages of the mapped snapshots count
//! as resident, and CLOCK second-chance eviction over them.
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
//! the clock hand walks the ring of admitted pages and evicts until the
//! newcomer fits. Evicting a page *releases* it: its byte range is
//! handed back to the OS (`madvise(MADV_DONTNEED)` on an mmap'd
//! snapshot), so the budget bounds the snapshots' share of the
//! process's resident set, not a counter beside it. A single page larger
//! than the whole budget is allowed to overshoot — the cache bounds
//! steady-state memory, it does not deadlock on pathological budgets.
//! An unbounded cache (`None`, the default) keeps no ring, takes no lock
//! and never releases anything.
//!
//! Concurrency: a page's state is three bits in one atomic byte. On a
//! budgeted cache every change of the resident bit — admission and
//! eviction alike — happens under the clock lock, so the byte total is
//! always the sum over resident pages. Readers take no lock and hold no
//! pin: the bytes are immutable and a released page refaults the same
//! bytes, so a gather that loses a race with an eviction still reads
//! the right codes (the page is then resident in the OS's eyes and cold
//! in the cache's until its next admission — a transient the budget
//! tolerates rather than serialising every read to prevent).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Weak};
use std::time::{Duration, Instant};

use crate::column::PagedColumn;

/// Page state bit: CRC and `max code < support` verified; survives
/// eviction, so a refault skips the re-check.
pub(crate) const VALIDATED: u8 = 1;
/// Page state bit: counted in the cache's resident bytes.
pub(crate) const RESIDENT: u8 = 1 << 1;
/// Page state bit: the CLOCK reference bit — set on touch, cleared by
/// the hand for a second chance.
pub(crate) const REFERENCED: u8 = 1 << 2;
/// Page state bit: the page has an entry on the clock ring.
const ON_RING: u8 = 1 << 3;

// Every flag access is `Relaxed`: the bits publish no other memory (the
// codes they describe are immutable bytes of the mapping), and the one
// invariant that spans two locations — resident bit ↔ byte total — is
// kept under the clock mutex.

struct Clock {
    /// Every page ever admitted, as (its column, its index).
    ring: Vec<(Weak<PagedColumn>, u32)>,
    hand: usize,
}

/// Process-wide residency accounting for paged columns, with a byte
/// budget.
pub struct PageCache {
    /// `None` = unbounded (heap-equivalent residency).
    budget: Option<u64>,
    resident: AtomicU64,
    peak_resident: AtomicU64,
    faults: AtomicU64,
    fault_nanos: AtomicU64,
    evictions: AtomicU64,
    evict_nanos: AtomicU64,
    crc_validations: AtomicU64,
    clock: Mutex<Clock>,
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
    /// Pages released by the clock hand.
    pub evictions: u64,
    /// Total nanoseconds the clock hand spent walking and releasing.
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
            resident: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            fault_nanos: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evict_nanos: AtomicU64::new(0),
            crc_validations: AtomicU64::new(0),
            clock: Mutex::new(Clock { ring: Vec::new(), hand: 0 }),
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
            // Nothing ever leaves an unbounded cache: no ring, no lock,
            // and the reference bit is set for good.
            if flags.fetch_or(RESIDENT | REFERENCED, Ordering::Relaxed) & RESIDENT == 0 {
                self.note_fault(started.elapsed());
                self.charge(bytes);
            }
            return;
        };
        let mut clock = self.clock.lock().expect("a thread panicked holding the clock lock");
        if flags.load(Ordering::Relaxed) & RESIDENT != 0 {
            return;
        }
        self.note_fault(started.elapsed());
        self.evict_down_to(&mut clock, budget.saturating_sub(bytes));
        let before = flags.fetch_or(RESIDENT | REFERENCED | ON_RING, Ordering::Relaxed);
        if before & ON_RING == 0 {
            clock.ring.push((column.weak(), page as u32));
        }
        self.charge(bytes);
    }

    /// Runs the eviction sweep with nothing to admit: releases pages
    /// until resident bytes are back at or under the budget. Admission
    /// already keeps them there (one over-budget page excepted), so this
    /// is for a caller that wants that page gone too. No-op when
    /// unbounded or already within budget.
    pub fn trim(&self) {
        if let Some(budget) = self.budget {
            let mut clock = self.clock.lock().expect("a thread panicked holding the clock lock");
            self.evict_down_to(&mut clock, budget);
        }
    }

    /// Evicts pages until at most `target` bytes are resident, or the
    /// hand has been round twice (once to spend every second chance,
    /// once to evict) and there is nothing left to take.
    fn evict_down_to(&self, clock: &mut Clock, target: u64) {
        let over = || self.resident.load(Ordering::Relaxed) > target;
        if !over() {
            return;
        }
        let started = Instant::now();
        for _ in 0..2 * clock.ring.len() {
            if !over() || clock.ring.is_empty() {
                break;
            }
            if clock.hand >= clock.ring.len() {
                clock.hand = 0;
            }
            let (column, page) = &clock.ring[clock.hand];
            let (Some(column), page) = (column.upgrade(), *page as usize) else {
                // Column dropped (it uncharged its own pages); compact
                // the ring in place. The element swapped into the hand's
                // position is inspected on the next step.
                clock.ring.swap_remove(clock.hand);
                continue;
            };
            clock.hand += 1;
            let flags = column.flags(page);
            let seen = flags.load(Ordering::Relaxed);
            if seen & RESIDENT == 0 {
                continue;
            }
            if seen & REFERENCED != 0 {
                flags.fetch_and(!REFERENCED, Ordering::Relaxed); // second chance
                continue;
            }
            flags.fetch_and(!RESIDENT, Ordering::Relaxed);
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
        assert!(cache.clock.lock().unwrap().ring.is_empty(), "an unbounded cache keeps no ring");
        assert_eq!(mapping.released(), [], "an unbounded cache releases nothing");
    }

    #[test]
    fn over_budget_admission_releases_the_coldest_page() {
        let cache = Arc::new(PageCache::new(Some(2 * PAGE)));
        let (col, mapping) = four_pages(&cache);
        col.code(0);
        col.code(PAGE_ROWS);
        assert_eq!(cache.snapshot().evictions, 0, "two pages fit");
        // Page 2 does not: the hand spends both second chances, comes
        // round again and releases page 0 — exactly its payload range.
        col.code(2 * PAGE_ROWS);
        let snap = cache.snapshot();
        assert_eq!((snap.faults, snap.evictions), (3, 1));
        assert_eq!(snap.resident_bytes, 2 * PAGE);
        assert_eq!(snap.peak_resident_bytes, 2 * PAGE);
        assert_eq!(mapping.released(), [PAGE_ROWS]);
        assert_eq!(col.resident_bytes(), 2 * PAGE);
        // A page touched since the hand last passed survives the next
        // sweep; the untouched one goes.
        col.code(2 * PAGE_ROWS + 1);
        col.code(3 * PAGE_ROWS);
        assert_eq!(cache.snapshot().evictions, 2);
        let before = cache.snapshot().faults;
        col.code(2 * PAGE_ROWS + 2);
        assert_eq!(cache.snapshot().faults, before, "page 2 was referenced, so page 1 went");
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
        // The dead column's ring entries are compacted away by the next
        // sweeps, and its bytes are not uncharged a second time.
        for page in 1..4 {
            second.code(page * PAGE_ROWS);
        }
        second.code(0);
        assert_eq!(cache.snapshot().resident_bytes, 3 * PAGE);
        assert!(cache.clock.lock().unwrap().ring.len() <= 6);
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
