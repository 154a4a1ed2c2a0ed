//! Snapshot byte sources: `mmap(2)` on Linux with a buffered-read
//! fallback, behind one trait — the same facility-behind-a-trait shape
//! as the server's `Poller`.
//!
//! A [`Mapping`] is an immutable byte view of one snapshot file. The
//! pager never writes through it and never reads past the length
//! captured at open, and paged columns read their codes *in place*, so
//! the liveness assumption is the usual mmap one: the inode must keep
//! its bytes while mapped. `swope_columnar::snapshot::write_file` holds
//! up its end — it writes a sibling temp file and renames it over the
//! target, so replacing a served snapshot leaves the old inode backing
//! every live mapping. The residual is an *outside* writer that
//! truncates or rewrites the mapped inode itself (`cp new.swop
//! served.swop`, a shell `>`): a read past the new end is a SIGBUS, and
//! rewritten bytes are served without a second CRC pass once a released
//! page refaults. Replace snapshots by rename.
//!
//! [`Mapping::release`] is how the page cache's byte budget becomes
//! real: evicting a page hands its byte range back to the OS, and the
//! next read of it refaults the same bytes from the kernel's page cache.
//!
//! Selection ([`open_mapping`]): Linux maps the file `PROT_READ` /
//! `MAP_PRIVATE` and advises `MADV_RANDOM` (page faults follow the
//! sampler's permuted row order, not file order); every other platform
//! reads the whole file into a heap buffer instead. A failed `mmap` also
//! falls back to the heap read rather than erroring: the fallback is
//! always correct, just not out-of-core.

use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// An immutable byte view of a snapshot file.
pub trait Mapping: Send + Sync {
    /// The file's bytes, complete and in order.
    fn bytes(&self) -> &[u8];

    /// `"mmap"` or `"read"` — surfaced by `swope inspect` and
    /// `/datasets` so operators can tell which facility is live.
    fn kind(&self) -> &'static str;

    /// Tells the OS that `range` of [`bytes`](Self::bytes) need not stay
    /// resident. Purely advisory: the bytes stay readable and read the
    /// same afterwards, at the price of a refault. The default does
    /// nothing, which is what a source that owns its bytes on the heap
    /// (the read fallback) must do — such a source cannot be budgeted.
    fn release(&self, _range: Range<usize>) {}

    /// Tells the OS that `range` is about to be read front to back, so
    /// it can read ahead — the mapping is otherwise advised for random
    /// access, which turns a cold sequential read into one small read
    /// per OS page. Purely advisory, like [`release`](Self::release); the
    /// default does nothing (the read fallback already holds its bytes).
    fn will_need(&self, _range: Range<usize>) {}
}

/// Fallback source: the whole file read into an anonymous heap buffer.
pub struct HeapMapping {
    bytes: Vec<u8>,
}

impl HeapMapping {
    /// Reads `path` in full.
    pub fn open(path: &Path) -> io::Result<Self> {
        Ok(Self { bytes: std::fs::read(path)? })
    }
}

/// Bytes already in memory, served as they are.
impl From<Vec<u8>> for HeapMapping {
    fn from(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }
}

impl Mapping for HeapMapping {
    fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    fn kind(&self) -> &'static str {
        "read"
    }
}

/// Raw-syscall bindings, gated exactly like the server's event layer.
#[cfg(target_os = "linux")]
mod sys {
    use core::ffi::c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MADV_RANDOM: i32 = 1;
    pub const MADV_WILLNEED: i32 = 3;
    pub const MADV_DONTNEED: i32 = 4;
}

/// The granule [`MmapMapping::release`] rounds to. `mmap` returns a
/// page-aligned base, so 4 KiB multiples of it are page-aligned on every
/// kernel with 4 KiB pages; on a larger-page kernel `madvise` refuses an
/// unaligned start with `EINVAL` and the release degrades to a no-op.
#[cfg(target_os = "linux")]
const OS_PAGE: usize = 4096;

/// A read-only private memory map of the file.
#[cfg(target_os = "linux")]
pub struct MmapMapping {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is PROT_READ and owned exclusively by this struct;
// concurrent readers of an immutable byte range are safe.
#[cfg(target_os = "linux")]
unsafe impl Send for MmapMapping {}
// SAFETY: `&self` methods only read the mapped bytes (never written
// through `ptr`) or `madvise` a range of it, which the kernel serialises;
// the map is unmapped only in `Drop`, when no `&self` can be live.
#[cfg(target_os = "linux")]
unsafe impl Sync for MmapMapping {}

#[cfg(target_os = "linux")]
impl MmapMapping {
    /// Maps `path` read-only. Errors if the map itself fails; the caller
    /// decides whether to fall back.
    pub fn open(path: &Path) -> io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            // mmap rejects zero-length maps; an empty file has nothing
            // to page anyway.
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "empty file"));
        }
        // SAFETY: fd is a valid open file descriptor for `len` bytes;
        // NULL addr lets the kernel place the map.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        // Advisory only: the fault pattern follows sampled row order.
        // SAFETY: ptr/len describe the mapping just created.
        unsafe {
            let _ = sys::madvise(ptr, len, sys::MADV_RANDOM);
        }
        Ok(Self { ptr: ptr as *const u8, len })
    }
}

#[cfg(target_os = "linux")]
impl Mapping for MmapMapping {
    fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by
        // self; unmapped only in Drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    fn kind(&self) -> &'static str {
        "mmap"
    }

    /// `madvise(MADV_DONTNEED)` over the OS pages that lie wholly inside
    /// `range` (clamped to the mapping). The partial pages at either
    /// edge are shared with the neighbouring ranges and stay; an empty,
    /// sub-page or past-the-end range is a no-op.
    fn release(&self, range: Range<usize>) {
        let Some(start) = range.start.checked_next_multiple_of(OS_PAGE) else { return };
        let end = range.end.min(self.len) / OS_PAGE * OS_PAGE;
        if start >= end {
            return;
        }
        // SAFETY: `start..end` is non-empty and inside `ptr..ptr + len`,
        // a live mapping this struct owns until Drop, and `ptr + start`
        // is a multiple of OS_PAGE (mmap bases are page-aligned). The
        // mapping is PROT_READ + MAP_PRIVATE over a file and is never
        // written, so it holds no private dirty pages: MADV_DONTNEED
        // only drops page-table entries, the addresses stay mapped, and
        // the next load refaults the same file bytes. A `&[u8]` another
        // thread borrowed from `bytes()` therefore stays valid and keeps
        // reading the values it read before.
        unsafe {
            let _ = sys::madvise(
                self.ptr.wrapping_add(start) as *mut core::ffi::c_void,
                end - start,
                sys::MADV_DONTNEED,
            );
        }
    }

    /// `madvise(MADV_WILLNEED)` over the OS pages `range` touches
    /// (clamped to the mapping).
    fn will_need(&self, range: Range<usize>) {
        let start = range.start / OS_PAGE * OS_PAGE;
        let end = range.end.min(self.len);
        if start >= end {
            return;
        }
        // SAFETY: as for `release` — a non-empty, page-aligned range of
        // a live mapping. MADV_WILLNEED only schedules reads into the
        // kernel's page cache; no mapping and no byte changes.
        unsafe {
            let _ = sys::madvise(
                self.ptr.wrapping_add(start) as *mut core::ffi::c_void,
                end - start,
                sys::MADV_WILLNEED,
            );
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for MmapMapping {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from a successful mmap and are unmapped
        // exactly once.
        unsafe {
            let _ = sys::munmap(self.ptr as *mut core::ffi::c_void, self.len);
        }
    }
}

/// Opens the best available [`Mapping`] for `path`: mmap on Linux
/// (unless the map fails), buffered read everywhere else.
pub fn open_mapping(path: &Path) -> io::Result<Arc<dyn Mapping>> {
    #[cfg(target_os = "linux")]
    if let Ok(m) = MmapMapping::open(path) {
        return Ok(Arc::new(m));
    }
    Ok(Arc::new(HeapMapping::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("swope-pager-map-{}-{name}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn heap_mapping_reads_whole_file() {
        let path = tmp("heap", b"0123456789");
        let m = HeapMapping::open(&path).unwrap();
        assert_eq!(m.bytes(), b"0123456789");
        assert_eq!(m.kind(), "read");
        std::fs::remove_file(&path).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mmap_mapping_matches_file_bytes() {
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let path = tmp("mmap", &payload);
        let m = MmapMapping::open(&path).unwrap();
        assert_eq!(m.bytes(), &payload[..]);
        assert_eq!(m.kind(), "mmap");
        drop(m);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mmap_rejects_empty_file() {
        let path = tmp("empty", b"");
        assert!(MmapMapping::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn release_is_a_no_op_at_the_boundaries_and_never_changes_bytes() {
        let payload: Vec<u8> = (0..40 * OS_PAGE as u32 + 123).map(|i| (i % 253) as u8).collect();
        let path = tmp("release", &payload);
        let m = MmapMapping::open(&path).unwrap();
        let len = payload.len();
        assert_eq!(m.bytes(), &payload[..]);
        // Nothing to release: empty, reversed, sub-page, unaligned with
        // no whole page inside, wholly or partly past the end, and a
        // start so large that rounding it up overflows.
        let no_ops = [
            0..0,
            OS_PAGE..OS_PAGE,
            Range { start: 8 * OS_PAGE, end: OS_PAGE },
            10..OS_PAGE - 1,
            1..2 * OS_PAGE - 1,
            len..len + 10 * OS_PAGE,
            2 * len..3 * len,
            usize::MAX - 5..usize::MAX,
            40 * OS_PAGE..usize::MAX,
        ];
        for range in no_ops {
            m.release(range.clone());
            m.will_need(range);
        }
        assert_eq!(m.bytes(), &payload[..]);
        // Real releases: aligned, unaligned (interior only), and one
        // that runs past the end (clamped). Bytes read the same after.
        for range in [0..4 * OS_PAGE, OS_PAGE + 7..9 * OS_PAGE - 7, 30 * OS_PAGE..len + 999] {
            m.will_need(range.clone());
            m.release(range);
            assert_eq!(m.bytes(), &payload[..]);
        }
        // The heap fallback accepts the same calls and ignores them.
        let heap = HeapMapping::open(&path).unwrap();
        heap.release(0..len);
        heap.release(len..usize::MAX);
        assert_eq!(heap.bytes(), &payload[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_mapping_always_succeeds_on_real_files() {
        let path = tmp("auto", b"swop bytes");
        let m = open_mapping(&path).unwrap();
        assert_eq!(m.bytes(), b"swop bytes");
        std::fs::remove_file(&path).ok();
    }
}
