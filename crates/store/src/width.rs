//! Storage widths and the per-width element trait.

use crate::packed::{CodeBuf, PackedCodes};
use crate::Code;

/// The integer width a column's codes are stored at.
///
/// Selected from the dictionary support: codes are strictly `< support`,
/// so a support of 256 still fits `u8` (largest code 255) and a support
/// of 65536 still fits `u16` (largest code 65535).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Width {
    /// One byte per code; supports up to 256.
    U8,
    /// Two bytes per code; supports up to 65536.
    U16,
    /// Four bytes per code; any `u32` support.
    U32,
}

impl Width {
    /// The narrowest width that can hold every code of a column with the
    /// given support (codes are `0..support`).
    pub fn for_support(support: u32) -> Width {
        if support <= 1 << 8 {
            Width::U8
        } else if support <= 1 << 16 {
            Width::U16
        } else {
            Width::U32
        }
    }

    /// Bytes per code at this width.
    pub const fn bytes(self) -> usize {
        match self {
            Width::U8 => 1,
            Width::U16 => 2,
            Width::U32 => 4,
        }
    }

    /// Bits per code at this width (what `GET /datasets` reports).
    pub const fn bits(self) -> u32 {
        self.bytes() as u32 * 8
    }

    /// Whether every code of a column with `support` fits this width.
    pub const fn holds(self, support: u32) -> bool {
        match self {
            Width::U8 => support <= 1 << 8,
            Width::U16 => support <= 1 << 16,
            Width::U32 => true,
        }
    }

    /// The on-disk width tag (its byte count — self-describing).
    pub const fn tag(self) -> u8 {
        self.bytes() as u8
    }

    /// Parses an on-disk width tag.
    pub const fn from_tag(tag: u8) -> Option<Width> {
        match tag {
            1 => Some(Width::U8),
            2 => Some(Width::U16),
            4 => Some(Width::U32),
            _ => None,
        }
    }

    /// Short lowercase name (`"u8"`, `"u16"`, `"u32"`).
    pub const fn name(self) -> &'static str {
        match self {
            Width::U8 => "u8",
            Width::U16 => "u16",
            Width::U32 => "u32",
        }
    }
}

impl std::fmt::Display for Width {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete storage element (`u8`, `u16`, or `u32`).
///
/// Hot paths take `&[R]` for `R: CodeRepr` and are monomorphized per
/// width: the enum `match` happens once per call (see
/// [`for_packed!`](crate::for_packed)), the inner loop runs on the
/// narrow type, and [`CodeRepr::widen`] is a register zero-extension at
/// the point a code indexes a counter.
pub trait CodeRepr: Copy + Default + Ord + Send + Sync + std::fmt::Debug + 'static {
    /// The width this element type stores.
    const WIDTH: Width;

    /// Zero-extends to the arithmetic code type.
    fn widen(self) -> Code;

    /// Truncates a code known to fit this width (debug-asserted).
    fn narrow(code: Code) -> Self;

    /// Converts a code that may not fit this width (untrusted bytes).
    fn try_narrow(code: Code) -> Option<Self>;

    /// The matching scratch vector inside `buf`, switching the buffer's
    /// variant (and dropping its old allocation) if it last served a
    /// different width. A scratch slot serves one column per query, so
    /// the switch happens at most once per slot per width change.
    fn buf(buf: &mut CodeBuf) -> &mut Vec<Self>;

    /// Appends `codes` to `out` in little-endian byte order.
    fn extend_le_bytes(codes: &[Self], out: &mut Vec<u8>);

    /// Appends codes parsed from little-endian `bytes` (whose length
    /// must be a multiple of the width) to `out`.
    fn extend_from_le_bytes(bytes: &[u8], out: &mut Vec<Self>);

    /// Wraps an owned vector in the width-tagged enum.
    fn into_packed(codes: Vec<Self>) -> PackedCodes;

    /// The typed code slice of `packed`, if it is stored at this width.
    fn unpack(packed: &PackedCodes) -> Option<&[Self]>;
}

macro_rules! impl_code_repr {
    ($ty:ty, $width:expr, $variant:ident) => {
        impl CodeRepr for $ty {
            const WIDTH: Width = $width;

            #[inline(always)]
            fn widen(self) -> Code {
                self as Code
            }

            #[inline(always)]
            fn narrow(code: Code) -> Self {
                debug_assert!(code <= <$ty>::MAX as Code, "code {code} exceeds {}", Self::WIDTH);
                code as $ty
            }

            #[inline]
            fn try_narrow(code: Code) -> Option<Self> {
                <$ty>::try_from(code).ok()
            }

            #[inline]
            fn buf(buf: &mut CodeBuf) -> &mut Vec<Self> {
                if !matches!(buf, CodeBuf::$variant(_)) {
                    *buf = CodeBuf::$variant(Vec::new());
                }
                match buf {
                    CodeBuf::$variant(v) => v,
                    _ => unreachable!("variant set above"),
                }
            }

            fn extend_le_bytes(codes: &[Self], out: &mut Vec<u8>) {
                for &c in codes {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }

            // modulo_one: W expands to 1 for the u8 instantiation.
            #[allow(clippy::modulo_one)]
            fn extend_from_le_bytes(bytes: &[u8], out: &mut Vec<Self>) {
                const W: usize = std::mem::size_of::<$ty>();
                debug_assert_eq!(bytes.len() % W, 0);
                out.extend(bytes.chunks_exact(W).map(|b| {
                    <$ty>::from_le_bytes(b.try_into().expect("chunk is exactly W bytes"))
                }));
            }

            fn into_packed(codes: Vec<Self>) -> PackedCodes {
                PackedCodes::$variant(codes)
            }

            #[inline]
            fn unpack(packed: &PackedCodes) -> Option<&[Self]> {
                match packed {
                    PackedCodes::$variant(codes) => Some(codes),
                    _ => None,
                }
            }
        }
    };
}

impl_code_repr!(u8, Width::U8, U8);
impl_code_repr!(u16, Width::U16, U16);
impl_code_repr!(u32, Width::U32, U32);

/// What a column read hands its codes to, a slice at a time at the
/// column's width, in stored order — never where they live.
pub trait CodeVisitor {
    /// Visits the next `codes.len()` codes of the read.
    fn codes<R: CodeRepr>(&mut self, codes: &[R]);
}

/// Widening append: a read into a `Vec<Code>` collects its codes.
impl CodeVisitor for Vec<Code> {
    fn codes<R: CodeRepr>(&mut self, codes: &[R]) {
        self.extend(codes.iter().map(|&c| c.widen()));
    }
}

/// The most codes a staged or decoded block holds (32 KiB at `u32`).
pub const BLOCK_ROWS: usize = 8192;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_selection_at_boundaries() {
        // Codes are < support, so 256 and 65536 are the last supports
        // that fit u8/u16 respectively.
        assert_eq!(Width::for_support(0), Width::U8);
        assert_eq!(Width::for_support(1), Width::U8);
        assert_eq!(Width::for_support(255), Width::U8);
        assert_eq!(Width::for_support(256), Width::U8);
        assert_eq!(Width::for_support(257), Width::U16);
        assert_eq!(Width::for_support(65535), Width::U16);
        assert_eq!(Width::for_support(65536), Width::U16);
        assert_eq!(Width::for_support(65537), Width::U32);
        assert_eq!(Width::for_support(u32::MAX), Width::U32);
    }

    #[test]
    fn holds_is_consistent_with_selection() {
        for support in [1, 255, 256, 257, 65535, 65536, 65537, u32::MAX] {
            let w = Width::for_support(support);
            assert!(w.holds(support), "{w} must hold its own support {support}");
            for wider in [Width::U8, Width::U16, Width::U32] {
                if wider >= w {
                    assert!(wider.holds(support));
                }
            }
        }
        assert!(!Width::U8.holds(257));
        assert!(!Width::U16.holds(65537));
    }

    #[test]
    fn tags_round_trip() {
        for w in [Width::U8, Width::U16, Width::U32] {
            assert_eq!(Width::from_tag(w.tag()), Some(w));
            assert_eq!(w.bytes() * 8, w.bits() as usize);
        }
        assert_eq!(Width::from_tag(0), None);
        assert_eq!(Width::from_tag(3), None);
        assert_eq!(Width::from_tag(8), None);
    }

    #[test]
    fn le_bytes_round_trip() {
        let codes: Vec<u16> = vec![0, 1, 0x1234, u16::MAX];
        let mut bytes = Vec::new();
        CodeRepr::extend_le_bytes(&codes, &mut bytes);
        assert_eq!(bytes.len(), codes.len() * 2);
        let mut back: Vec<u16> = Vec::new();
        CodeRepr::extend_from_le_bytes(&bytes, &mut back);
        assert_eq!(back, codes);
    }

    #[test]
    fn buf_switches_variant_once() {
        let mut buf = CodeBuf::default();
        <u8 as CodeRepr>::buf(&mut buf).extend_from_slice(&[1, 2, 3]);
        assert!(matches!(buf, CodeBuf::U8(_)));
        // Same width again: contents survive.
        assert_eq!(<u8 as CodeRepr>::buf(&mut buf).len(), 3);
        // Different width: variant swapped, buffer fresh.
        assert!(<u16 as CodeRepr>::buf(&mut buf).is_empty());
        assert!(matches!(buf, CodeBuf::U16(_)));
    }
}
