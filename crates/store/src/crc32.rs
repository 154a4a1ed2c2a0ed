//! IEEE CRC32 (the zlib/gzip polynomial), hand-rolled on const tables.
//!
//! Every page of a `SWOP` column section, the sketch section and
//! every `SWPC` cluster frame carry this checksum. Pages are validated
//! at heap load and on a pager's first touch, frames once by each side
//! of every exchange, so the kernel sits on the serving path: a
//! clustered query checksums about half a megabyte, a snapshot load the
//! whole file. The kernel is slicing-by-8 — eight 256-entry tables built
//! at compile time, two little-endian `u32` loads and eight independent
//! lookups per 8-byte step — which breaks the byte-at-a-time loop's
//! load-to-load dependency (≈ 0.7 ns/byte against ≈ 2.9). The byte loop
//! survives for the tail of a buffer only. Safe Rust throughout: carry-less-
//! multiply folding would need `unsafe`, a capability probe and this code
//! as its fallback.

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

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
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
