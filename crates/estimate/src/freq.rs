//! Frequency counters.
//!
//! Two counting regimes appear in SWOPE:
//!
//! * **Single attribute** — support is capped (the paper removes columns
//!   with support > 1000), so a dense `Vec<u64>` indexed by code is optimal.
//! * **Attribute pairs** (joint entropy for MI) — the key space is
//!   `u_t · u_α`, potentially ~10^6. [`PairCounter`] picks a dense array
//!   when that product is small and an open-addressing Fx-hashed map
//!   ([`FxPairMap`]) otherwise, because a mostly-empty multi-megabyte array
//!   costs more to allocate and walk than a compact hash table.

/// Dense per-code counter for one attribute.
///
/// `counts()[c]` is `m_c` in the paper's notation (occurrences of code `c`
/// among sampled records).
#[derive(Debug, Clone)]
pub struct DenseCounter {
    counts: Vec<u64>,
    total: u64,
}

impl DenseCounter {
    /// Creates a counter for codes `0..support`.
    pub fn new(support: u32) -> Self {
        Self { counts: vec![0; support as usize], total: 0 }
    }

    /// Increments the count of `code`, returning the **new** count.
    #[inline]
    pub fn add(&mut self, code: u32) -> u64 {
        let slot = &mut self.counts[code as usize];
        *slot += 1;
        self.total += 1;
        *slot
    }

    /// Adds `k` occurrences of `code` in one step, returning the new
    /// count. Scoped queries drain covered-page histograms through this.
    #[inline]
    pub fn add_n(&mut self, code: u32, k: u64) -> u64 {
        let slot = &mut self.counts[code as usize];
        *slot += k;
        self.total += k;
        *slot
    }

    /// Current count of `code`.
    #[inline]
    pub fn count(&self, code: u32) -> u64 {
        self.counts[code as usize]
    }

    /// Sum of all counts (`M` once every sampled record is ingested).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// All per-code counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of codes with nonzero count.
    pub fn observed_distinct(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Resets all counts to zero.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }
}

/// Fx-style hash (Firefox/rustc): one multiply + rotate per word.
///
/// SipHash (std's default) is needlessly slow for trusted integer keys; the
/// perf-book recommends an Fx/FNV-class hash here. Keys are pair codes
/// packed into a `u64`, already well mixed by the multiply.
#[inline]
fn fx_hash_u64(key: u64) -> u64 {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    (key.rotate_left(5) ^ (key >> 32)).wrapping_mul(K)
}

/// An open-addressing hash map from packed pair keys (`u64`) to counts.
///
/// Linear probing, power-of-two capacity, max load factor 7/8. The empty
/// slot marker is `u64::MAX`, which cannot occur as a packed pair key
/// (both halves would need to be `u32::MAX`, and codes are `< support ≤
/// u32::MAX`).
#[derive(Debug, Clone)]
pub struct FxPairMap {
    keys: Vec<u64>,
    values: Vec<u64>,
    len: usize,
    mask: usize,
}

const EMPTY: u64 = u64::MAX;

impl FxPairMap {
    /// Creates a map with capacity for roughly `expected` entries without
    /// rehashing.
    pub fn with_expected(expected: usize) -> Self {
        let cap = (expected.max(8) * 8 / 7).next_power_of_two();
        Self { keys: vec![EMPTY; cap], values: vec![0; cap], len: 0, mask: cap - 1 }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Increments `key`'s count, returning the new count.
    #[inline]
    pub fn add(&mut self, key: u64) -> u64 {
        debug_assert_ne!(key, EMPTY, "u64::MAX is the empty-slot sentinel");
        if (self.len + 1) * 8 > self.keys.len() * 7 {
            self.grow();
        }
        let mut i = fx_hash_u64(key) as usize & self.mask;
        loop {
            let k = self.keys[i];
            if k == key {
                self.values[i] += 1;
                return self.values[i];
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.values[i] = 1;
                self.len += 1;
                return 1;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Adds `k` occurrences of `key` in one step, returning the new
    /// count. Shard-merged pair histograms drain through this.
    #[inline]
    pub fn add_n(&mut self, key: u64, k: u64) -> u64 {
        debug_assert_ne!(key, EMPTY, "u64::MAX is the empty-slot sentinel");
        if (self.len + 1) * 8 > self.keys.len() * 7 {
            self.grow();
        }
        let mut i = fx_hash_u64(key) as usize & self.mask;
        loop {
            let slot = self.keys[i];
            if slot == key {
                self.values[i] += k;
                return self.values[i];
            }
            if slot == EMPTY {
                self.keys[i] = key;
                self.values[i] = k;
                self.len += 1;
                return k;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Current count of `key` (0 if absent).
    pub fn count(&self, key: u64) -> u64 {
        let mut i = fx_hash_u64(key) as usize & self.mask;
        loop {
            let k = self.keys[i];
            if k == key {
                return self.values[i];
            }
            if k == EMPTY {
                return 0;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Iterates `(key, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.keys.iter().zip(&self.values).filter(|(&k, _)| k != EMPTY).map(|(&k, &v)| (k, v))
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_values = std::mem::replace(&mut self.values, vec![0; new_cap]);
        self.mask = new_cap - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_values) {
            if k != EMPTY {
                self.insert_count(k, v);
            }
        }
    }

    fn insert_count(&mut self, key: u64, value: u64) {
        let mut i = fx_hash_u64(key) as usize & self.mask;
        loop {
            if self.keys[i] == EMPTY {
                self.keys[i] = key;
                self.values[i] = value;
                self.len += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }
}

/// Packs a `(code_t, code_a)` pair into a map key.
#[inline]
pub fn pack_pair(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Unpacks a map key into its `(code_t, code_a)` pair.
#[inline]
pub fn unpack_pair(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Key-space size above which [`PairCounter`] switches from a dense array
/// to a hash map. 1 Mi entries ≈ 8 MiB dense, the measured break-even
/// point for typical sample sizes.
const DENSE_PAIR_LIMIT: u64 = 1 << 20;

/// Adaptive counter over attribute-value pairs.
///
/// Dense when `u_t · u_α ≤ DENSE_PAIR_LIMIT`, sparse otherwise.
#[derive(Debug, Clone)]
pub enum PairCounter {
    /// Dense array of `u_t · u_α` counts, indexed `code_t · u_α + code_a`.
    Dense {
        /// The counts, length `u_t · u_α`.
        counts: Vec<u64>,
        /// Support of the second attribute (`u_α`), the row stride.
        stride: u32,
        /// Total of all counts.
        total: u64,
        /// Number of nonzero cells.
        distinct: usize,
    },
    /// Sparse Fx-hashed map keyed by [`pack_pair`].
    Sparse {
        /// The map.
        map: FxPairMap,
        /// Total of all counts.
        total: u64,
    },
}

impl PairCounter {
    /// Creates a counter for codes `(0..u_t, 0..u_a)`.
    pub fn new(u_t: u32, u_a: u32) -> Self {
        let key_space = u_t as u64 * u_a as u64;
        if key_space <= DENSE_PAIR_LIMIT {
            Self::Dense { counts: vec![0; key_space as usize], stride: u_a, total: 0, distinct: 0 }
        } else {
            Self::Sparse { map: FxPairMap::with_expected(1024), total: 0 }
        }
    }

    /// Forces the sparse representation regardless of key-space size, to
    /// reach the sparse arm with small supports.
    #[cfg(test)]
    fn new_sparse() -> Self {
        Self::Sparse { map: FxPairMap::with_expected(1024), total: 0 }
    }

    /// Increments the `(a, b)` pair count, returning the new count.
    #[inline]
    pub fn add(&mut self, a: u32, b: u32) -> u64 {
        match self {
            Self::Dense { counts, stride, total, distinct } => {
                let idx = a as usize * *stride as usize + b as usize;
                let slot = &mut counts[idx];
                if *slot == 0 {
                    *distinct += 1;
                }
                *slot += 1;
                *total += 1;
                *slot
            }
            Self::Sparse { map, total } => {
                *total += 1;
                map.add(pack_pair(a, b))
            }
        }
    }

    /// Adds `k` occurrences of the `(a, b)` pair in one step, returning
    /// the new count. Equivalent to `k` unit [`PairCounter::add`] calls
    /// as far as the stored counts are concerned.
    #[inline]
    pub fn add_n(&mut self, a: u32, b: u32, k: u64) -> u64 {
        if k == 0 {
            return self.count(a, b);
        }
        match self {
            Self::Dense { counts, stride, total, distinct } => {
                let idx = a as usize * *stride as usize + b as usize;
                let slot = &mut counts[idx];
                if *slot == 0 {
                    *distinct += 1;
                }
                *slot += k;
                *total += k;
                *slot
            }
            Self::Sparse { map, total } => {
                *total += k;
                map.add_n(pack_pair(a, b), k)
            }
        }
    }

    /// Current count of the `(a, b)` pair.
    pub fn count(&self, a: u32, b: u32) -> u64 {
        match self {
            Self::Dense { counts, stride, .. } => {
                counts[a as usize * *stride as usize + b as usize]
            }
            Self::Sparse { map, .. } => map.count(pack_pair(a, b)),
        }
    }

    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        match self {
            Self::Dense { total, .. } | Self::Sparse { total, .. } => *total,
        }
    }

    /// Number of distinct pairs observed.
    pub fn observed_distinct(&self) -> usize {
        match self {
            Self::Dense { distinct, .. } => *distinct,
            Self::Sparse { map, .. } => map.len(),
        }
    }

    /// Iterates nonzero `(pair_key, count)` entries.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (u64, u64)> + '_> {
        match self {
            Self::Dense { counts, stride, .. } => {
                let stride = *stride as u64;
                Box::new(counts.iter().enumerate().filter(|(_, &c)| c > 0).map(move |(i, &c)| {
                    let a = i as u64 / stride;
                    let b = i as u64 % stride;
                    (pack_pair(a as u32, b as u32), c)
                }))
            }
            Self::Sparse { map, .. } => Box::new(map.iter()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_counter_tracks_counts_and_total() {
        let mut c = DenseCounter::new(4);
        assert_eq!(c.add(1), 1);
        assert_eq!(c.add(1), 2);
        assert_eq!(c.add(3), 1);
        assert_eq!(c.count(1), 2);
        assert_eq!(c.count(0), 0);
        assert_eq!(c.total(), 3);
        assert_eq!(c.observed_distinct(), 2);
        c.clear();
        assert_eq!(c.total(), 0);
        assert_eq!(c.count(1), 0);
    }

    #[test]
    fn fx_map_add_and_count() {
        let mut m = FxPairMap::with_expected(4);
        assert_eq!(m.add(42), 1);
        assert_eq!(m.add(42), 2);
        assert_eq!(m.add(7), 1);
        assert_eq!(m.count(42), 2);
        assert_eq!(m.count(7), 1);
        assert_eq!(m.count(99), 0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn fx_map_grows_correctly() {
        let mut m = FxPairMap::with_expected(2);
        for k in 0..1000u64 {
            m.add(k);
            m.add(k);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(m.count(k), 2, "key {k}");
        }
    }

    #[test]
    fn fx_map_iter_yields_all_entries() {
        let mut m = FxPairMap::with_expected(8);
        for k in [3u64, 5, 9] {
            m.add(k);
        }
        m.add(5);
        let mut entries: Vec<_> = m.iter().collect();
        entries.sort_unstable();
        assert_eq!(entries, vec![(3, 1), (5, 2), (9, 1)]);
    }

    #[test]
    fn fx_map_add_n_matches_repeated_add() {
        let mut unit = FxPairMap::with_expected(2);
        let mut bulk = FxPairMap::with_expected(2);
        for k in 0..300u64 {
            for _ in 0..(k % 5 + 1) {
                unit.add(k);
            }
            bulk.add_n(k, k % 5 + 1);
        }
        assert_eq!(unit.len(), bulk.len());
        for k in 0..300u64 {
            assert_eq!(unit.count(k), bulk.count(k), "key {k}");
        }
    }

    #[test]
    fn pair_counter_add_n_matches_repeated_add() {
        for mut counters in [
            (PairCounter::new(8, 8), PairCounter::new(8, 8)),
            (PairCounter::new_sparse(), PairCounter::new_sparse()),
        ] {
            let (unit, bulk) = (&mut counters.0, &mut counters.1);
            for (a, b, k) in [(0, 0, 3u64), (1, 2, 1), (7, 7, 10), (1, 2, 0)] {
                for _ in 0..k {
                    unit.add(a, b);
                }
                bulk.add_n(a, b, k);
            }
            assert_eq!(unit.total(), bulk.total());
            assert_eq!(unit.observed_distinct(), bulk.observed_distinct());
            for a in 0..8 {
                for b in 0..8 {
                    assert_eq!(unit.count(a, b), bulk.count(a, b), "pair ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn pack_unpack_round_trip() {
        for (a, b) in [(0, 0), (1, 2), (u32::MAX - 1, 7), (1000, 999)] {
            assert_eq!(unpack_pair(pack_pair(a, b)), (a, b));
        }
    }

    #[test]
    fn pair_counter_picks_dense_for_small_spaces() {
        assert!(matches!(PairCounter::new(100, 100), PairCounter::Dense { .. }));
        assert!(matches!(PairCounter::new(1 << 12, 1 << 12), PairCounter::Sparse { .. }));
    }

    #[test]
    fn dense_and_sparse_pair_counters_agree() {
        let mut dense = PairCounter::new(10, 10);
        let mut sparse = PairCounter::new_sparse();
        let pairs = [(0, 0), (1, 2), (0, 0), (9, 9), (1, 2), (1, 2)];
        for &(a, b) in &pairs {
            dense.add(a, b);
            sparse.add(a, b);
        }
        assert_eq!(dense.total(), sparse.total());
        assert_eq!(dense.observed_distinct(), sparse.observed_distinct());
        for a in 0..10 {
            for b in 0..10 {
                assert_eq!(dense.count(a, b), sparse.count(a, b), "pair ({a},{b})");
            }
        }
        let mut d: Vec<_> = dense.iter().collect();
        let mut s: Vec<_> = sparse.iter().collect();
        d.sort_unstable();
        s.sort_unstable();
        assert_eq!(d, s);
    }

    #[test]
    fn pair_counter_iter_dense_reconstructs_pairs() {
        let mut c = PairCounter::new(3, 5);
        c.add(2, 4);
        c.add(0, 1);
        c.add(2, 4);
        let mut entries: Vec<_> = c.iter().map(|(k, v)| (unpack_pair(k), v)).collect();
        entries.sort_unstable();
        assert_eq!(entries, vec![((0, 1), 1), ((2, 4), 2)]);
    }
}
