//! SIGINT/SIGTERM → atomic-flag shutdown signalling, with no
//! dependencies beyond the libc the process is already linked against.
//!
//! The handler does the only thing that is async-signal-safe here: store
//! into a static `AtomicBool`. The event loop polls [`signalled`] each
//! wakeup, so a signal turns into a graceful drain within one poll
//! interval: stop accepting, finish requests already parsed or in
//! flight (their responses are sent with `Connection: close`), close
//! idle keep-alive connections, then exit once the slab is empty.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::Release);
}

/// Installs the SIGINT (ctrl-c) and SIGTERM handlers. Idempotent; on
/// non-Unix targets this is a no-op and only [`request_shutdown`] can
/// trip the flag.
pub fn install() {
    // SAFETY: `signal(2)` only records a handler address. `on_signal` is
    // an `extern "C" fn(i32)`, the ABI the kernel calls, and it is
    // async-signal-safe: one lock-free atomic store into a static, with no
    // allocation, locking or I/O.
    #[cfg(unix)]
    unsafe {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

/// Whether a shutdown signal has been received (or requested in-process).
pub fn signalled() -> bool {
    SHUTDOWN.load(Ordering::Acquire)
}

/// Trips the shutdown flag from ordinary code — used by tests and by any
/// embedder that wants the same drain path a signal takes.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::Release);
}
