//! The byte-budget page cache: CLOCK second-chance eviction over every
//! decoded page, with compressed cold pages as the middle tier.
//!
//! One [`PageCache`] is shared by every paged column opened against it
//! (the server owns a single process-wide instance). Columns decode
//! pages on demand and *admit* them here; when admitting would push the
//! resident byte total past the budget, the clock hand walks the ring
//! of known pages and evicts until the new page fits. Eviction demotes a
//! page one tier at a time:
//!
//! ```text
//! Cold ──fault (CRC once)──▶ Hot ──evict──▶ Compressed ──evict──▶ Cold
//!   ▲                         ▲ └─refetch = decode only─┘
//!   └────────── refetch = re-decode from mapping (no disk copy) ──┘
//! ```
//!
//! A `Hot → Compressed` demotion happens only when the page's encoding
//! pick (from the sketch histogram, or a run-count fallback) actually
//! reaches half the plain bytes; otherwise the page drops straight to
//! `Cold` — and, pages being immutable, that verdict is remembered on
//! the slot, so a page is examined at most once however often it is
//! evicted. Pages currently borrowed by a gather (their `Arc` is cloned)
//! are never evicted, and a single page larger than the whole budget is
//! allowed to overshoot — the cache bounds steady-state memory, it does
//! not deadlock on pathological budgets.
//!
//! Locking: the fault path holds exactly one slot lock and may take the
//! clock lock inside it; the clock walk only ever *try-locks* other
//! slots, so no cycle exists.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use swope_store::rle::{self, CompressedPage, PageEncoding};
use swope_store::PackedCodes;

/// Where one page's codes currently live.
pub(crate) enum SlotState {
    /// Only in the mapping; next touch decodes (and CRC-checks once).
    Cold,
    /// Decoded and resident; gathers clone the `Arc`.
    Hot {
        /// The decoded page.
        page: Arc<PackedCodes>,
        /// Resident bytes charged for it.
        bytes: u64,
    },
    /// Evicted but kept re-encoded; refetch is a decode, not a re-read.
    Compressed {
        /// The re-encoded page.
        page: CompressedPage,
    },
}

/// One page's cache entry. Owned by its column, registered (weakly)
/// with the cache's clock ring on first decode.
pub(crate) struct PageSlot {
    /// CLOCK reference bit: set on touch, cleared for a second chance.
    pub(crate) refbit: AtomicBool,
    /// CRC verified on first decode; refaults skip the re-check.
    pub(crate) validated: AtomicBool,
    /// Set once the slot has been pushed onto the clock ring.
    pub(crate) registered: AtomicBool,
    /// Eviction-time encoding pick for this page.
    pub(crate) pick: PageEncoding,
    /// Examined at an eviction and found not to reach half its plain
    /// bytes: later evictions drop it cold without looking again.
    pub(crate) incompressible: AtomicBool,
    pub(crate) state: Mutex<SlotState>,
}

impl PageSlot {
    pub(crate) fn new(pick: PageEncoding) -> Self {
        Self {
            refbit: AtomicBool::new(false),
            validated: AtomicBool::new(false),
            registered: AtomicBool::new(false),
            pick,
            incompressible: AtomicBool::new(false),
            state: Mutex::new(SlotState::Cold),
        }
    }
}

struct Clock {
    ring: Vec<Weak<PageSlot>>,
    hand: usize,
}

/// Process-wide decoded-page cache with a byte budget.
pub struct PageCache {
    /// `None` = unbounded (heap-equivalent residency).
    budget: Option<u64>,
    resident: AtomicU64,
    peak_resident: AtomicU64,
    faults: AtomicU64,
    fault_nanos: AtomicU64,
    decompressions: AtomicU64,
    decompress_nanos: AtomicU64,
    evictions: AtomicU64,
    evict_nanos: AtomicU64,
    compressions: AtomicU64,
    crc_validations: AtomicU64,
    compressed_pages: AtomicU64,
    compressed_bytes: AtomicU64,
    clock: Mutex<Clock>,
}

/// A point-in-time copy of the cache's counters and gauges, for
/// metrics rendering and trace spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerSnapshot {
    /// Pages decoded from the mapping (first touch or cold refetch).
    pub faults: u64,
    /// Total nanoseconds spent decoding faulted pages (admission, and
    /// any eviction it forces, excluded — see `evict_nanos`).
    pub fault_nanos: u64,
    /// Refetches served from the compressed tier.
    pub decompressions: u64,
    /// Total nanoseconds spent decoding `Compressed → Hot` promotions.
    pub decompress_nanos: u64,
    /// Pages demoted by the clock hand (either tier).
    pub evictions: u64,
    /// Total nanoseconds the clock hand spent walking and demoting,
    /// re-encoding included.
    pub evict_nanos: u64,
    /// Hot pages examined for the compressed tier at eviction (run
    /// count and/or re-encode), whether or not the result was kept. A
    /// page found incompressible is never examined again.
    pub compressions: u64,
    /// First-touch CRC verifications performed.
    pub crc_validations: u64,
    /// Bytes currently resident (hot + compressed). Gauge.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`. Gauge.
    pub peak_resident_bytes: u64,
    /// Pages currently held compressed. Gauge.
    pub compressed_pages: u64,
    /// Bytes of the compressed tier. Gauge.
    pub compressed_bytes: u64,
    /// Configured budget; `None` when unbounded.
    pub budget_bytes: Option<u64>,
}

impl PagerSnapshot {
    /// Counter deltas since `before`; gauges keep their current values.
    pub fn since(&self, before: &PagerSnapshot) -> PagerSnapshot {
        PagerSnapshot {
            faults: self.faults - before.faults,
            fault_nanos: self.fault_nanos - before.fault_nanos,
            decompressions: self.decompressions - before.decompressions,
            decompress_nanos: self.decompress_nanos - before.decompress_nanos,
            evictions: self.evictions - before.evictions,
            evict_nanos: self.evict_nanos - before.evict_nanos,
            compressions: self.compressions - before.compressions,
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
            decompressions: AtomicU64::new(0),
            decompress_nanos: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evict_nanos: AtomicU64::new(0),
            compressions: AtomicU64::new(0),
            crc_validations: AtomicU64::new(0),
            compressed_pages: AtomicU64::new(0),
            compressed_bytes: AtomicU64::new(0),
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
            decompressions: self.decompressions.load(Ordering::Relaxed),
            decompress_nanos: self.decompress_nanos.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            evict_nanos: self.evict_nanos.load(Ordering::Relaxed),
            compressions: self.compressions.load(Ordering::Relaxed),
            crc_validations: self.crc_validations.load(Ordering::Relaxed),
            resident_bytes: self.resident.load(Ordering::Relaxed),
            peak_resident_bytes: self.peak_resident.load(Ordering::Relaxed),
            compressed_pages: self.compressed_pages.load(Ordering::Relaxed),
            compressed_bytes: self.compressed_bytes.load(Ordering::Relaxed),
            budget_bytes: self.budget,
        }
    }

    pub(crate) fn note_fault(&self, took: Duration) {
        self.faults.fetch_add(1, Ordering::Relaxed);
        self.fault_nanos.fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn note_crc_validation(&self) {
        self.crc_validations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_decompression(&self, took: Duration) {
        self.decompressions.fetch_add(1, Ordering::Relaxed);
        self.decompress_nanos.fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Pushes a slot onto the clock ring exactly once (idempotent via
    /// the slot's `registered` bit).
    pub(crate) fn register(&self, slot: &Arc<PageSlot>) {
        if slot.registered.swap(true, Ordering::Relaxed) {
            return;
        }
        self.clock.lock().expect("clock lock").ring.push(Arc::downgrade(slot));
    }

    /// Charges `bytes` of newly decoded page, evicting first if the
    /// budget requires it. `skip` is the slot being faulted (its state
    /// lock is held by the caller, so the walk must not try it).
    pub(crate) fn admit(&self, skip: &PageSlot, bytes: u64) {
        self.reserve(bytes, skip);
        let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_resident.fetch_max(now, Ordering::Relaxed);
    }

    /// Uncharges bytes of a demoted/released page.
    pub(crate) fn release(&self, bytes: u64) {
        self.resident.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Swaps accounting when a compressed page is promoted back to hot.
    pub(crate) fn promote_compressed(&self, skip: &PageSlot, compressed_len: u64, hot_bytes: u64) {
        self.compressed_pages.fetch_sub(1, Ordering::Relaxed);
        self.compressed_bytes.fetch_sub(compressed_len, Ordering::Relaxed);
        self.release(compressed_len);
        self.admit(skip, hot_bytes);
    }

    /// Runs the eviction sweep with nothing to admit: demotes unpinned
    /// pages until resident bytes are back at or under the budget.
    /// Concurrent gathers pin pages past the budget while they run
    /// (admission never blocks on a pinned page), and only admissions
    /// trigger eviction — so after a burst of parallel queries the
    /// overshoot lingers until the next fault. Callers that want the
    /// steady-state bound *now* call this. No-op when unbounded or
    /// already within budget.
    pub fn trim(&self) {
        self.reserve(0, &PageSlot::new(PageEncoding::Plain));
    }

    /// Evicts pages until `need` more bytes fit under the budget, or the
    /// clock has swept the ring enough times to conclude nothing else is
    /// evictable (pages in use by a live gather are pinned). A single
    /// page bigger than the budget overshoots rather than failing.
    fn reserve(&self, need: u64, skip: &PageSlot) {
        let Some(budget) = self.budget else { return };
        let over = || self.resident.load(Ordering::Relaxed).saturating_add(need) > budget;
        if !over() {
            return;
        }
        let mut clock = self.clock.lock().expect("clock lock");
        let started = Instant::now();
        let mut steps = 0usize;
        while over() {
            if clock.ring.is_empty() || steps >= 3 * clock.ring.len() {
                break;
            }
            steps += 1;
            if clock.hand >= clock.ring.len() {
                clock.hand = 0;
            }
            let i = clock.hand;
            let Some(slot) = clock.ring[i].upgrade() else {
                // Column dropped; compact the ring in place. The element
                // swapped into `i` is inspected on the next iteration.
                clock.ring.swap_remove(i);
                continue;
            };
            clock.hand += 1;
            if std::ptr::eq(&*slot, skip) {
                continue;
            }
            if slot.refbit.swap(false, Ordering::Relaxed) {
                continue; // second chance
            }
            let Ok(mut st) = slot.state.try_lock() else { continue };
            match std::mem::replace(&mut *st, SlotState::Cold) {
                SlotState::Cold => {}
                SlotState::Hot { page, bytes } => {
                    if Arc::strong_count(&page) > 1 {
                        // A gather holds this page right now: pinned.
                        *st = SlotState::Hot { page, bytes };
                        continue;
                    }
                    self.release(bytes);
                    if let Some(c) = self.compress_once(&slot, &page) {
                        let clen = c.bytes_len() as u64;
                        self.compressed_pages.fetch_add(1, Ordering::Relaxed);
                        self.compressed_bytes.fetch_add(clen, Ordering::Relaxed);
                        self.resident.fetch_add(clen, Ordering::Relaxed);
                        // Fresh second chance for the compressed form.
                        slot.refbit.store(true, Ordering::Relaxed);
                        *st = SlotState::Compressed { page: c };
                    }
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                SlotState::Compressed { page } => {
                    let clen = page.bytes_len() as u64;
                    self.compressed_pages.fetch_sub(1, Ordering::Relaxed);
                    self.compressed_bytes.fetch_sub(clen, Ordering::Relaxed);
                    self.release(clen);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.evict_nanos.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// The compressed form of a page being evicted, or `None` when it
    /// does not reach half its plain bytes. Pages are immutable, so the
    /// `None` verdict is recorded on the slot and the page is never
    /// examined again.
    fn compress_once(&self, slot: &PageSlot, page: &PackedCodes) -> Option<CompressedPage> {
        if slot.incompressible.load(Ordering::Relaxed) {
            return None;
        }
        self.compressions.fetch_add(1, Ordering::Relaxed);
        let pick = match slot.pick {
            // No sketch pick for this page: one cheap pass decides
            // whether RLE pays for itself.
            PageEncoding::Plain if (4 + rle::count_runs(page) * 8) * 2 <= page.bytes() => {
                PageEncoding::Rle
            }
            pick => pick,
        };
        let compressed = rle::compress(page, pick);
        if compressed.is_none() {
            slot.incompressible.store(true, Ordering::Relaxed);
        }
        compressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_slot(rows: usize, pick: PageEncoding) -> (Arc<PageSlot>, u64) {
        let slot = Arc::new(PageSlot::new(pick));
        let page = Arc::new(PackedCodes::U16(vec![7; rows]));
        let bytes = page.bytes() as u64;
        *slot.state.lock().unwrap() = SlotState::Hot { page, bytes };
        (slot, bytes)
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = PageCache::unbounded();
        let (slot, bytes) = hot_slot(1 << 16, PageEncoding::Plain);
        cache.register(&slot);
        cache.admit(&slot, bytes);
        cache.admit(&PageSlot::new(PageEncoding::Plain), 1 << 30);
        assert_eq!(cache.snapshot().evictions, 0);
        assert!(matches!(&*slot.state.lock().unwrap(), SlotState::Hot { .. }));
    }

    #[test]
    fn over_budget_admission_demotes_constant_page_to_compressed() {
        let cache = PageCache::new(Some(200_000));
        let (slot, bytes) = hot_slot(1 << 16, PageEncoding::Rle);
        cache.register(&slot);
        cache.admit(&slot, bytes);
        // Second chance first: one admit clears the refbit...
        slot.refbit.store(true, Ordering::Relaxed);
        let newcomer = PageSlot::new(PageEncoding::Plain);
        cache.admit(&newcomer, 150_000);
        let snap = cache.snapshot();
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.compressed_pages, 1);
        assert!(matches!(&*slot.state.lock().unwrap(), SlotState::Compressed { .. }));
        // ...and the resident total now counts the tiny compressed form
        // plus the newcomer, not the old hot bytes.
        assert!(snap.resident_bytes < 160_000, "{}", snap.resident_bytes);
    }

    #[test]
    fn compressed_tier_is_dropped_cold_under_continued_pressure() {
        let cache = PageCache::new(Some(100));
        let (slot, bytes) = hot_slot(1 << 16, PageEncoding::Rle);
        cache.register(&slot);
        // Overshoots: nothing else to evict.
        cache.admit(&slot, bytes);
        // One pressured admit demotes Hot → Compressed, burns the
        // compressed form's second chance, then drops it Cold — all
        // within the same clock sweep because the budget stays exceeded.
        cache.admit(&PageSlot::new(PageEncoding::Plain), 90);
        assert!(matches!(&*slot.state.lock().unwrap(), SlotState::Cold));
        assert_eq!(cache.snapshot().compressed_pages, 0);
        assert_eq!(cache.snapshot().evictions, 2);
    }

    #[test]
    fn pages_borrowed_by_a_gather_are_pinned() {
        let cache = PageCache::new(Some(10));
        let (slot, bytes) = hot_slot(1 << 16, PageEncoding::Plain);
        let borrowed = match &*slot.state.lock().unwrap() {
            SlotState::Hot { page, .. } => page.clone(),
            _ => unreachable!(),
        };
        cache.register(&slot);
        cache.admit(&slot, bytes);
        cache.admit(&PageSlot::new(PageEncoding::Plain), 50);
        assert!(matches!(&*slot.state.lock().unwrap(), SlotState::Hot { .. }));
        assert_eq!(cache.snapshot().evictions, 0);
        drop(borrowed);
        slot.refbit.store(false, Ordering::Relaxed);
        cache.admit(&PageSlot::new(PageEncoding::Plain), 50);
        assert!(cache.snapshot().evictions >= 1);
        assert!(!matches!(&*slot.state.lock().unwrap(), SlotState::Hot { .. }));
    }

    #[test]
    fn trim_reclaims_overshoot_once_pins_drop() {
        let cache = PageCache::new(Some(10));
        let (slot, bytes) = hot_slot(1 << 16, PageEncoding::Plain);
        let pin = match &*slot.state.lock().unwrap() {
            SlotState::Hot { page, .. } => page.clone(),
            _ => unreachable!(),
        };
        cache.register(&slot);
        cache.admit(&slot, bytes); // pinned: overshoots the budget
        slot.refbit.store(false, Ordering::Relaxed);
        cache.trim(); // still pinned: nothing to reclaim
        assert!(cache.snapshot().resident_bytes > 10);
        drop(pin);
        cache.trim();
        assert!(cache.snapshot().resident_bytes <= 10);
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
        assert_eq!(delta.budget_bytes, Some(1));
    }
}
