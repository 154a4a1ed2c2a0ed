//! IEEE CRC32 (the zlib/gzip polynomial): a carry-less-multiply fold
//! where the CPU has one, const tables everywhere.
//!
//! Every page of a `SWOP` column section, the sketch section and
//! every `SWPC` cluster frame carry this checksum. Pages are validated
//! at heap load and on a pager's first touch, frames once by each side
//! of every exchange, so the kernel sits on the serving path: a
//! clustered query checksums about half a megabyte, a snapshot load the
//! whole file.
//!
//! Two kernels compute the same value:
//!
//! * **Folded** (x86_64 with PCLMULQDQ and SSE4.1, detected once at run
//!   time). Spans of at least 128 bytes are folded four
//!   128-bit lanes at a time with carry-less multiplies, the lanes folded
//!   into one, that one folded to 64 bits and reduced to 32 by a Barrett
//!   reduction (Gopal et al., "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ Instruction", Intel, 2009; the
//!   bit-reflected variant, with the constants zlib and the Linux kernel
//!   use). What is left under 16 bytes goes to the table kernel. ≈ 0.03
//!   ns/byte against ≈ 0.5.
//! * **Table**: slicing-by-8 — eight 256-entry tables built at compile
//!   time, two little-endian `u32` loads and eight independent lookups
//!   per 8-byte step — which breaks the byte-at-a-time loop's
//!   load-to-load dependency (≈ 0.7 ns/byte against ≈ 2.9). It is the
//!   path for short spans and other CPUs, and it is public
//!   ([`Crc32::update_table`]) so tests and benches check and time it on
//!   any CPU.
//!
//! The `unsafe` this takes — calling `#[target_feature]` functions, all
//! of them `unsafe fn` (a safe one needs Rust 1.86, past this
//! workspace's 1.75), and unaligned 16-byte loads — stays inside this
//! module, each block with the reason it holds.

/// Spans shorter than this go to the table kernel: the fold's setup and
/// reduction cost more than it saves on fewer than four lanes' worth.
const FOLD_MIN: usize = 128;

/// Reflected polynomial of CRC-32/ISO-HDLC (zlib, gzip, PNG, ...).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC state after byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[inline]
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
}

/// A running CRC32 over bytes fed in pieces: `update` over any split of
/// a buffer finishes to the same value as [`crc32`] over the whole, so a
/// frame's header and payload are checksummed where they lie.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A checksum over no bytes yet (init `!0`).
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Folds `bytes` into the running checksum, with the fastest kernel
    /// this CPU runs.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= FOLD_MIN && fold::available() {
            // SAFETY: `available` has just confirmed the CPU runs the
            // PCLMULQDQ and SSE4.1 instructions `fold::update` is compiled
            // for, and the span holds at least `FOLD_MIN` bytes.
            self.state = unsafe { fold::update(self.state, bytes) };
            return;
        }
        self.update_table(bytes);
    }

    /// [`Crc32::update`] through the table kernel alone, whatever the
    /// CPU: the portable path, public so it is tested and timed on CPUs
    /// that would fold.
    pub fn update_table(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = step(crc, b);
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far (final xor `!0`).
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// The carry-less-multiply kernel (see the module docs).
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold constants of the reflected polynomial: `x^(4·128+32)` and
    /// `x^(4·128−32)` mod P (four lanes ahead), `x^(128+32)` and
    /// `x^(128−32)` mod P (one lane ahead), `x^64` mod P (128 → 64 bits),
    /// each bit-reflected and shifted left by one; `P_X` is P itself and
    /// `U_PRIME` the Barrett constant `⌊x^64 / P⌋`, both reflected.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// Whether this CPU runs the fold, probed on first use.
    #[inline]
    pub(super) fn available() -> bool {
        static FOLDS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *FOLDS.get_or_init(|| {
            std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1")
        })
    }

    /// The running state after `bytes`, from running state `state`.
    ///
    /// # Safety
    ///
    /// The CPU must run PCLMULQDQ and SSE4.1 ([`available`]), and
    /// `bytes` must hold at least 64 bytes.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) unsafe fn update(state: u32, mut bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= 64);
        let k1k2 = _mm_set_epi64x(K2, K1);
        let k3k4 = _mm_set_epi64x(K4, K3);
        // SAFETY: `load` and `fold` need the features this function is
        // compiled for, which its caller has checked the CPU runs.
        let mut x = unsafe {
            let mut x3 = load(&mut bytes);
            let mut x2 = load(&mut bytes);
            let mut x1 = load(&mut bytes);
            let mut x0 = load(&mut bytes);
            // The running state enters as the first 32 bits' xor.
            x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(state as i32));

            while bytes.len() >= 64 {
                x3 = fold(x3, load(&mut bytes), k1k2);
                x2 = fold(x2, load(&mut bytes), k1k2);
                x1 = fold(x1, load(&mut bytes), k1k2);
                x0 = fold(x0, load(&mut bytes), k1k2);
            }
            let mut x = fold(x3, x2, k3k4);
            x = fold(x, x1, k3k4);
            x = fold(x, x0, k3k4);
            while bytes.len() >= 16 {
                x = fold(x, load(&mut bytes), k3k4);
            }
            x
        };

        // 128 bits to 64: the low half times x^(128-32), then the low
        // 32 bits times x^64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P; the CRC is
        // the upper half of R ^ T2 (reflected).
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;

        let mut tail = super::Crc32 { state: crc };
        tail.update_table(bytes);
        tail.state
    }

    /// `a` carried 128 (or 512) bits ahead by `keys`, onto `b`.
    ///
    /// # Safety
    ///
    /// The CPU must run PCLMULQDQ and SSE4.1 ([`available`]).
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    unsafe fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(a, keys);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// The next 16 bytes of `bytes`, which it moves past.
    ///
    /// # Safety
    ///
    /// The CPU must run SSE4.1 ([`available`]).
    #[inline]
    #[target_feature(enable = "sse4.1")]
    unsafe fn load(bytes: &mut &[u8]) -> __m128i {
        let (head, rest) = bytes.split_at(16);
        *bytes = rest;
        // SAFETY: `head` is 16 readable bytes, and `_mm_loadu_si128`
        // takes any alignment.
        unsafe { _mm_loadu_si128(head.as_ptr().cast::<__m128i>()) }
    }
}

/// CRC32 of `bytes` (init `!0`, final xor `!0` — the standard checksum
/// `cksum`/zlib would report).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time kernel the sliced one must equal.
    fn reference(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |crc, &b| step(crc, b))
    }

    /// Seeded filler. This crate has no dependencies, the workspace's
    /// xoshiro included; a 64-bit LCG's top byte is structure enough.
    fn fill(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The CRC catalog's check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sensitive_to_any_flip() {
        let data = b"swope store page payload".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), base, "flip at byte {i} bit {bit} undetected");
            }
        }
    }

    #[test]
    fn sliced_kernel_equals_the_bytewise_reference() {
        // Every length 0..=70 at every start offset 0..8: all alignments
        // of head, 8-byte body and tail.
        let pool = fill(0x5EED, 80);
        for offset in 0..8 {
            for len in 0..=70 {
                let bytes = &pool[offset..offset + len];
                assert_eq!(crc32(bytes), reference(bytes), "offset {offset} len {len}");
            }
        }
        for (seed, len) in [(1u64, 4_096usize), (2, 65_537), (3, 120_000)] {
            let bytes = fill(seed, len);
            assert_eq!(crc32(&bytes), reference(&bytes), "len {len}");
        }
    }

    /// The table kernel alone, whatever the CPU.
    fn table(bytes: &[u8]) -> u32 {
        let mut crc = Crc32::new();
        crc.update_table(bytes);
        crc.finish()
    }

    /// Both kernels against the bytewise reference: every length
    /// 0..=1024 at every start offset 0..16 — folded spans of every
    /// length past [`FOLD_MIN`], at every alignment, with every tail —
    /// and, where the CPU folds, the fold called directly from 64 bytes
    /// up, under the threshold `update` keeps.
    #[test]
    fn folded_and_table_kernels_equal_the_bytewise_reference() {
        let pool = fill(0xF01D, 1024 + 16);
        for offset in 0..16 {
            for len in 0..=1024 {
                let bytes = &pool[offset..offset + len];
                let want = reference(bytes);
                assert_eq!(crc32(bytes), want, "offset {offset} len {len}");
                assert_eq!(table(bytes), want, "table, offset {offset} len {len}");
                #[cfg(target_arch = "x86_64")]
                if len >= 64 && fold::available() {
                    // SAFETY: the CPU runs the fold, over at least 64 bytes.
                    let folded = !unsafe { fold::update(!0, bytes) };
                    assert_eq!(folded, want, "fold, offset {offset} len {len}");
                }
            }
        }
    }

    /// Every two-way split of a 300-byte buffer finishes to the one-shot
    /// value through either kernel, the running state carried across
    /// kernels too.
    #[test]
    fn both_kernels_carry_the_state_across_any_split() {
        let bytes = fill(0x5917, 300);
        let whole = reference(&bytes);
        for at in 0..=bytes.len() {
            let (a, b) = bytes.split_at(at);
            let (mut folded, mut tabled, mut mixed) = (Crc32::new(), Crc32::new(), Crc32::new());
            folded.update(a);
            folded.update(b);
            tabled.update_table(a);
            tabled.update_table(b);
            mixed.update_table(a);
            mixed.update(b);
            assert_eq!(folded.finish(), whole, "split at {at}");
            assert_eq!(tabled.finish(), whole, "table, split at {at}");
            assert_eq!(mixed.finish(), whole, "table then update, split at {at}");
        }
    }

    #[test]
    fn streaming_over_any_split_equals_one_shot() {
        let bytes = fill(0xC4C, 61);
        let whole = crc32(&bytes);
        for a in 0..=bytes.len() {
            let mut two = Crc32::new();
            two.update(&bytes[..a]);
            two.update(&bytes[a..]);
            assert_eq!(two.finish(), whole, "split at {a}");
            for b in a..=bytes.len() {
                let mut three = Crc32::new();
                three.update(&bytes[..a]);
                three.update(&bytes[a..b]);
                three.update(&bytes[b..]);
                assert_eq!(three.finish(), whole, "splits at {a}, {b}");
            }
        }
    }
}
