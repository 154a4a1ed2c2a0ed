//! Width-packed code vectors and validated columns.

use crate::{for_packed, Code, CodeRepr, StoreError, Width};

/// A code vector stored at one of the three widths.
///
/// This is the physical form every hot loop reads: one `match` per call
/// site (via [`for_packed!`](crate::for_packed)) selects the
/// monomorphized body, then the inner loop streams the narrow codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackedCodes {
    /// One byte per code.
    U8(Vec<u8>),
    /// Two bytes per code.
    U16(Vec<u16>),
    /// Four bytes per code.
    U32(Vec<u32>),
}

impl PackedCodes {
    /// Packs `codes` at `width`. Every code must fit the width
    /// (debug-asserted; use [`PackedColumn`] for validated construction).
    pub fn pack(codes: &[Code], width: Width) -> PackedCodes {
        match width {
            Width::U8 => PackedCodes::U8(codes.iter().map(|&c| u8::narrow(c)).collect()),
            Width::U16 => PackedCodes::U16(codes.iter().map(|&c| u16::narrow(c)).collect()),
            Width::U32 => PackedCodes::U32(codes.to_vec()),
        }
    }

    /// The storage width.
    pub fn width(&self) -> Width {
        match self {
            PackedCodes::U8(_) => Width::U8,
            PackedCodes::U16(_) => Width::U16,
            PackedCodes::U32(_) => Width::U32,
        }
    }

    /// Number of codes.
    pub fn len(&self) -> usize {
        for_packed!(self, |codes| codes.len())
    }

    /// Whether there are no codes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the codes occupy in memory (exact payload, ignoring the
    /// `Vec`'s spare capacity).
    pub fn bytes(&self) -> usize {
        self.len() * self.width().bytes()
    }

    /// The widened code at `row`. Panics if out of range.
    #[inline]
    pub fn code(&self, row: usize) -> Code {
        for_packed!(self, |codes| codes[row].widen())
    }

    /// The largest code present, or `None` for an empty vector.
    pub fn max_code(&self) -> Option<Code> {
        for_packed!(self, |codes| codes.iter().copied().max().map(CodeRepr::widen))
    }

    /// Widens every code into a fresh `Vec<u32>` (cold paths: exact
    /// baselines, concatenation).
    pub fn to_codes(&self) -> Vec<Code> {
        let mut out = Vec::with_capacity(self.len());
        for_packed!(self, |codes| out.extend(codes.iter().map(|&c| c.widen())));
        out
    }
}

/// Gathers `codes[r]` for each row in `rows` into `buf` (cleared first),
/// staying at the slice's width, and counts and times that in
/// [`crate::gather_stats`] when it is on.
///
/// This is the cache-miss-heavy half of a staged ingest; keeping it
/// width-generic means a `u8` column's gather touches a quarter of the
/// bytes the old `u32` path did.
#[inline]
pub fn gather<R: CodeRepr>(codes: &[R], rows: &[u32], buf: &mut Vec<R>) {
    buf.clear();
    // One relaxed load when tracing is off; clock reads only when on.
    let start = crate::gather_stats::enabled().then(std::time::Instant::now);
    buf.extend(rows.iter().map(|&r| codes[r as usize]));
    if let Some(start) = start {
        crate::gather_stats::record(rows.len(), start.elapsed().as_nanos() as u64);
    }
}

/// A width-tagged scratch vector for gather staging.
///
/// Adaptive-loop scratch slots hold gathered blocks of one column at a
/// time; tagging the buffer with its width keeps staged blocks as narrow
/// as the column itself. The variant switches lazily (in
/// [`CodeRepr::buf`]) when a slot is reused for a column of a different
/// width — at most one reallocation per switch, which queries hit at
/// most a handful of times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeBuf {
    /// Scratch for a `u8` column.
    U8(Vec<u8>),
    /// Scratch for a `u16` column.
    U16(Vec<u16>),
    /// Scratch for a `u32` column.
    U32(Vec<u32>),
}

impl Default for CodeBuf {
    fn default() -> Self {
        CodeBuf::U32(Vec::new())
    }
}

impl CodeBuf {
    /// An empty scratch buffer (width decided on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current element capacity (whatever the width).
    pub fn capacity(&self) -> usize {
        match self {
            CodeBuf::U8(v) => v.capacity(),
            CodeBuf::U16(v) => v.capacity(),
            CodeBuf::U32(v) => v.capacity(),
        }
    }

    /// Current element count.
    pub fn len(&self) -> usize {
        match self {
            CodeBuf::U8(v) => v.len(),
            CodeBuf::U16(v) => v.len(),
            CodeBuf::U32(v) => v.len(),
        }
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A validated, width-packed column: every code is `< support`.
///
/// The storage width defaults to the narrowest that holds the support
/// ([`Width::for_support`]); [`PackedColumn::with_width`] forces a wider
/// one (used by width-invariance tests and benches that compare the same
/// logical column at all three widths).
#[derive(Debug, Clone)]
pub struct PackedColumn {
    codes: PackedCodes,
    support: u32,
}

impl PackedColumn {
    /// Packs `codes` at the narrowest width for `support`, validating
    /// `code < support` for all.
    pub fn new(codes: Vec<Code>, support: u32) -> Result<Self, StoreError> {
        Self::with_width(codes, support, Width::for_support(support))
    }

    /// Packs `codes` at an explicit `width` (which must hold `support`),
    /// validating `code < support` for all.
    pub fn with_width(codes: Vec<Code>, support: u32, width: Width) -> Result<Self, StoreError> {
        if !width.holds(support) {
            return Err(StoreError::WidthTooNarrow { width, support });
        }
        if let Some(&bad) = codes.iter().find(|&&c| c >= support) {
            return Err(StoreError::CodeOutOfRange { code: bad, support });
        }
        Ok(Self { codes: PackedCodes::pack(&codes, width), support })
    }

    /// Packs without validating codes (caller guarantees `code < support`;
    /// debug builds still assert).
    pub fn new_unchecked(codes: Vec<Code>, support: u32) -> Self {
        debug_assert!(codes.iter().all(|&c| c < support));
        Self { codes: PackedCodes::pack(&codes, Width::for_support(support)), support }
    }

    /// Adopts already-packed codes (the snapshot reader's path),
    /// validating the width holds the support and every code is in
    /// range — a width-generic max scan, not a per-code branch.
    pub fn from_packed(codes: PackedCodes, support: u32) -> Result<Self, StoreError> {
        if !codes.width().holds(support) {
            return Err(StoreError::WidthTooNarrow { width: codes.width(), support });
        }
        if let Some(max) = codes.max_code() {
            if max >= support {
                return Err(StoreError::CodeOutOfRange { code: max, support });
            }
        }
        Ok(Self { codes, support })
    }

    /// The same logical column re-packed at `width` (must hold the
    /// support). Used to measure/verify width effects on identical data.
    pub fn repacked(&self, width: Width) -> Result<Self, StoreError> {
        if !width.holds(self.support) {
            return Err(StoreError::WidthTooNarrow { width, support: self.support });
        }
        Ok(Self { codes: PackedCodes::pack(&self.to_codes(), width), support: self.support })
    }

    /// The width-tagged code storage.
    #[inline]
    pub fn codes(&self) -> &PackedCodes {
        &self.codes
    }

    /// Hands the codes to `reorder` to permute in place: how a column
    /// takes on a storage order. `reorder` may move codes, never change
    /// one, so the column stays validated.
    ///
    /// # Panics
    ///
    /// If `reorder` changed the number of codes.
    pub fn reorder(&mut self, reorder: impl FnOnce(&mut PackedCodes)) {
        let len = self.codes.len();
        reorder(&mut self.codes);
        assert_eq!(self.codes.len(), len, "a reorder moves codes, it does not add or drop any");
    }

    /// The support size `u_alpha`.
    #[inline]
    pub fn support(&self) -> u32 {
        self.support
    }

    /// The storage width.
    #[inline]
    pub fn width(&self) -> Width {
        self.codes.width()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Bytes the codes occupy in memory.
    #[inline]
    pub fn bytes_in_memory(&self) -> usize {
        self.codes.bytes()
    }

    /// The widened code at `row`. Panics if out of range.
    #[inline]
    pub fn code(&self, row: usize) -> Code {
        self.codes.code(row)
    }

    /// Widens every code into a fresh `Vec<u32>`.
    pub fn to_codes(&self) -> Vec<Code> {
        self.codes.to_codes()
    }

    /// Counts occurrences of each code over all rows; the result has
    /// length `support`.
    pub fn value_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.support as usize];
        for_packed!(&self.codes, |codes| {
            for &c in codes {
                counts[c.widen() as usize] += 1;
            }
        });
        counts
    }
}

/// Equality is *logical* — same support, same widened code sequence —
/// so the same column packed at another width still compares equal.
impl PartialEq for PackedColumn {
    fn eq(&self, other: &Self) -> bool {
        if self.support != other.support || self.len() != other.len() {
            return false;
        }
        match (&self.codes, &other.codes) {
            (PackedCodes::U8(a), PackedCodes::U8(b)) => a == b,
            (PackedCodes::U16(a), PackedCodes::U16(b)) => a == b,
            (PackedCodes::U32(a), PackedCodes::U32(b)) => a == b,
            _ => (0..self.len()).all(|i| self.code(i) == other.code(i)),
        }
    }
}

impl Eq for PackedColumn {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The boundary supports the format cares about: first/last support
    /// per width class.
    const BOUNDARY_SUPPORTS: [u32; 7] = [1, 255, 256, 257, 65535, 65536, 65537];

    fn boundary_codes(support: u32) -> Vec<Code> {
        // Exercise both ends of the code range plus a spread in between.
        (0..64u32).map(|i| (i * 97 + 13) % support).chain([0, support - 1]).collect()
    }

    #[test]
    fn pack_unpack_round_trips_at_boundary_supports() {
        for support in BOUNDARY_SUPPORTS {
            let codes = boundary_codes(support);
            let col = PackedColumn::new(codes.clone(), support).unwrap();
            assert_eq!(col.width(), Width::for_support(support), "support {support}");
            assert_eq!(col.to_codes(), codes, "support {support}");
            assert_eq!(col.len(), codes.len());
            assert_eq!(col.bytes_in_memory(), codes.len() * col.width().bytes());
            for (i, &c) in codes.iter().enumerate() {
                assert_eq!(col.code(i), c);
            }
        }
    }

    #[test]
    fn width_selection_matches_issue_boundaries() {
        let w = |s| PackedColumn::new(vec![0], s).unwrap().width();
        assert_eq!(w(1), Width::U8);
        assert_eq!(w(255), Width::U8);
        assert_eq!(w(256), Width::U8);
        assert_eq!(w(65535), Width::U16);
        assert_eq!(w(65536), Width::U16);
        assert_eq!(w(65537), Width::U32);
    }

    #[test]
    fn new_validates_codes() {
        assert!(PackedColumn::new(vec![0, 1, 2], 3).is_ok());
        assert_eq!(
            PackedColumn::new(vec![0, 3], 3),
            Err(StoreError::CodeOutOfRange { code: 3, support: 3 })
        );
    }

    #[test]
    fn with_width_rejects_narrower_than_support() {
        assert_eq!(
            PackedColumn::with_width(vec![0], 257, Width::U8),
            Err(StoreError::WidthTooNarrow { width: Width::U8, support: 257 })
        );
        let wide = PackedColumn::with_width(vec![0, 5], 6, Width::U32).unwrap();
        assert_eq!(wide.width(), Width::U32);
        assert_eq!(wide.to_codes(), vec![0, 5]);
    }

    #[test]
    fn repacked_preserves_logical_content() {
        let col = PackedColumn::new(boundary_codes(200), 200).unwrap();
        for width in [Width::U8, Width::U16, Width::U32] {
            let re = col.repacked(width).unwrap();
            assert_eq!(re.width(), width);
            assert_eq!(re, col, "logical equality across widths");
            assert_eq!(re.to_codes(), col.to_codes());
        }
        let wide = PackedColumn::new(vec![0, 300], 301).unwrap();
        assert!(wide.repacked(Width::U8).is_err());
    }

    #[test]
    fn from_packed_validates_range_and_width() {
        let ok = PackedColumn::from_packed(PackedCodes::U8(vec![0, 4]), 5).unwrap();
        assert_eq!(ok.to_codes(), vec![0, 4]);
        assert_eq!(
            PackedColumn::from_packed(PackedCodes::U8(vec![0, 5]), 5),
            Err(StoreError::CodeOutOfRange { code: 5, support: 5 })
        );
        assert_eq!(
            PackedColumn::from_packed(PackedCodes::U8(vec![]), 300),
            Err(StoreError::WidthTooNarrow { width: Width::U8, support: 300 })
        );
    }

    #[test]
    fn value_counts_are_width_independent() {
        let col = PackedColumn::new(vec![0, 1, 1, 2, 1], 3).unwrap();
        assert_eq!(col.value_counts(), vec![1, 3, 1]);
        for width in [Width::U16, Width::U32] {
            assert_eq!(col.repacked(width).unwrap().value_counts(), vec![1, 3, 1]);
        }
    }

    #[test]
    fn empty_column_works_at_every_width() {
        for support in [1, 300, 70000] {
            let col = PackedColumn::new(vec![], support).unwrap();
            assert!(col.is_empty());
            assert_eq!(col.bytes_in_memory(), 0);
            assert_eq!(col.value_counts().len(), support as usize);
        }
    }

    /// splitmix64 — the tiny seeded generator the workspace's property
    /// tests hand-roll instead of pulling in a rand crate.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn property_packed_gather_matches_u32_gather_on_permutation_prefixes() {
        let mut seed = 0x5170_57A6u64;
        for support in [2u32, 255, 256, 300, 65536, 70000] {
            let n = 2048usize;
            let codes: Vec<Code> =
                (0..n).map(|_| (splitmix(&mut seed) % support as u64) as u32).collect();
            let col = PackedColumn::new(codes.clone(), support).unwrap();

            // A random permutation of row indices (Fisher–Yates).
            let mut perm: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                let j = (splitmix(&mut seed) % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }

            for prefix in [0usize, 1, 7, 100, 1000, n] {
                let want: Vec<Code> = perm[..prefix].iter().map(|&r| codes[r as usize]).collect();
                // The narrow generic gather agrees after widening.
                for_packed!(col.codes(), |codes| {
                    let mut narrow = Vec::new();
                    gather(codes, &perm[..prefix], &mut narrow);
                    let widened: Vec<Code> = narrow.iter().map(|&c| c.widen()).collect();
                    assert_eq!(widened, want, "support {support}, prefix {prefix}");
                });
            }
        }
    }

    #[test]
    fn logical_equality_across_widths() {
        let a = PackedColumn::new(vec![0, 1, 2], 3).unwrap();
        let b = a.repacked(Width::U32).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, PackedColumn::new(vec![0, 1, 2], 4).unwrap());
        assert_ne!(a, PackedColumn::new(vec![0, 1], 3).unwrap());
        assert_ne!(a, PackedColumn::new(vec![0, 1, 1], 3).unwrap());
    }
}
