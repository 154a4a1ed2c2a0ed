//! Readiness polling over raw syscalls: the dependency-free substrate of
//! the event-driven connection layer.
//!
//! The workspace builds without crates.io access, so this module binds
//! the two readiness facilities directly (the same way `signal.rs` binds
//! `signal(2)`): **epoll** on Linux — O(ready) wakeups, the production
//! path — and **`poll(2)`** everywhere else Unix, behind the same
//! [`Poller`] trait. The fallback is selected automatically off Linux
//! (and on it, should `epoll_create1` fail); both implementations are driven by the same event loop and must be
//! behaviorally identical (level-triggered readiness, one [`Event`] per
//! ready fd per wait).
//!
//! The module also owns the [`WakePipe`]: a nonblocking self-pipe the
//! worker pool writes one byte into when a completed response is ready
//! for the event thread. Registering its read end with the poller turns
//! "a worker finished" into an ordinary readiness event, so the event
//! thread never polls a mutex on a timer.

use std::io;
use std::sync::Arc;
use std::time::Duration;

/// A file descriptor, as the syscalls see it.
pub type Fd = i32;

/// Which readiness directions a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Write-only interest.
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    /// No readiness interest (the fd stays registered; errors/hangups are
    /// still reported, which is how a dispatched connection's death is
    /// noticed without reading from it).
    pub const NONE: Interest = Interest { readable: false, writable: false };
}

/// One ready registration out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: usize,
    /// The fd has bytes to read (or EOF to observe).
    pub readable: bool,
    /// The fd can accept writes.
    pub writable: bool,
    /// The peer hung up or the fd errored; the connection is dead either
    /// way and should be torn down after a final read attempt.
    pub hangup: bool,
}

/// Level-triggered readiness polling. Implementations report an [`Event`]
/// for every registered fd that is ready at wait time; unconsumed
/// readiness is reported again on the next wait.
pub trait Poller: Send {
    /// Registers `fd` under `token` with the given interest.
    fn add(&mut self, fd: Fd, token: usize, interest: Interest) -> io::Result<()>;
    /// Replaces the interest (and token) of an already registered fd.
    fn modify(&mut self, fd: Fd, token: usize, interest: Interest) -> io::Result<()>;
    /// Removes a registration. Must be called before the fd is closed.
    fn remove(&mut self, fd: Fd) -> io::Result<()>;
    /// Blocks until at least one registration is ready or `timeout`
    /// elapses, appending ready registrations into `events` (cleared
    /// first).
    fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()>;
    /// The facility's name, for logs and docs (`"epoll"` / `"poll"`).
    fn name(&self) -> &'static str;
}

/// Builds the best poller for this platform: epoll on Linux (unless the
/// kernel refuses one), `poll(2)` on other Unixes.
pub fn new_poller() -> io::Result<Box<dyn Poller>> {
    #[cfg(target_os = "linux")]
    if let Ok(epoll) = linux::Epoll::new() {
        return Ok(Box::new(epoll));
    }
    #[cfg(unix)]
    {
        Ok(Box::new(unix::PollFallback::new()))
    }
    #[cfg(not(unix))]
    {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the event-driven server requires a unix poll/epoll facility",
        ))
    }
}

#[cfg(unix)]
mod sys {
    //! The raw syscall surface shared by both pollers and the wake pipe.
    use super::Fd;

    extern "C" {
        pub fn close(fd: Fd) -> i32;
        pub fn read(fd: Fd, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: Fd, buf: *const u8, count: usize) -> isize;
        pub fn pipe(fds: *mut Fd) -> i32;
        pub fn fcntl(fd: Fd, cmd: i32, arg: i32) -> i32;
    }

    pub const F_GETFL: i32 = 3;
    pub const F_SETFL: i32 = 4;
    #[cfg(target_os = "linux")]
    pub const O_NONBLOCK: i32 = 0o4000;
    #[cfg(not(target_os = "linux"))]
    pub const O_NONBLOCK: i32 = 0x0004;

    /// Marks an fd nonblocking via `fcntl`.
    pub fn set_nonblocking(fd: Fd) -> std::io::Result<()> {
        // SAFETY: F_GETFL/F_SETFL read and write the kernel's status flags
        // of `fd`, an fd the caller owns, and pass no pointers; a stale fd
        // fails with EBADF, which is returned as an error.
        unsafe {
            let flags = fcntl(fd, F_GETFL, 0);
            if flags < 0 {
                return Err(std::io::Error::last_os_error());
            }
            if fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 {
                return Err(std::io::Error::last_os_error());
            }
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
mod linux {
    use super::{Event, Fd, Interest, Poller};
    use std::io;
    use std::time::Duration;

    // x86-64 is the one Linux ABI where epoll_event is packed.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> Fd;
        fn epoll_ctl(epfd: Fd, op: i32, fd: Fd, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: Fd, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// The Linux implementation: one epoll instance, fds carried in
    /// `epoll_event.data` as their registration token.
    pub struct Epoll {
        epfd: Fd,
        buf: Vec<EpollEvent>,
    }

    impl Epoll {
        pub fn new() -> io::Result<Self> {
            // SAFETY: no pointers cross; the returned fd is owned by this
            // `Epoll` alone and closed exactly once, in its `Drop`.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd, buf: vec![EpollEvent { events: 0, data: 0 }; 1024] })
        }

        fn ctl(&self, op: i32, fd: Fd, token: usize, interest: Interest) -> io::Result<()> {
            let mut flags = EPOLLRDHUP;
            if interest.readable {
                flags |= EPOLLIN;
            }
            if interest.writable {
                flags |= EPOLLOUT;
            }
            let mut ev = EpollEvent { events: flags, data: token as u64 };
            let ptr = if op == EPOLL_CTL_DEL { std::ptr::null_mut() } else { &mut ev };
            // SAFETY: `ptr` is null only for EPOLL_CTL_DEL, which ignores
            // it; otherwise it points at `ev`, a live `epoll_event` in the
            // kernel's layout that is only read during the call.
            if unsafe { epoll_ctl(self.epfd, op, fd, ptr) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl Poller for Epoll {
        fn add(&mut self, fd: Fd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        fn modify(&mut self, fd: Fd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        fn remove(&mut self, fd: Fd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            events.clear();
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            // SAFETY: `buf` holds `buf.len()` initialised `epoll_event`s
            // and that length is `maxevents`, so the kernel writes at most
            // `n ≤ buf.len()` entries, all inside the allocation.
            let n =
                unsafe { epoll_wait(self.epfd, self.buf.as_mut_ptr(), self.buf.len() as i32, ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                // A signal (SIGINT/SIGTERM during drain) interrupts the
                // wait; the loop re-checks its flags and waits again.
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in &self.buf[..n as usize] {
                let bits = ev.events;
                events.push(Event {
                    token: ev.data as usize,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            // A full buffer means more fds may be ready; grow so the next
            // wait drains them in one call.
            if n as usize == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }

        fn name(&self) -> &'static str {
            "epoll"
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `epfd` came from `epoll_create1`, belongs to this
            // value only and is closed nowhere else.
            unsafe {
                super::sys::close(self.epfd);
            }
        }
    }
}

#[cfg(unix)]
mod unix {
    use super::{Event, Fd, Interest, Poller};
    use std::io;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: Fd,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: usize, timeout_ms: i32) -> i32;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    /// The portable fallback: registrations kept in a dense vec, the
    /// whole set handed to `poll(2)` per wait. O(n) per wait instead of
    /// O(ready) — correct everywhere Unix, fine into the thousands of
    /// connections.
    pub struct PollFallback {
        fds: Vec<PollFd>,
        tokens: Vec<usize>,
    }

    impl PollFallback {
        pub fn new() -> Self {
            Self { fds: Vec::new(), tokens: Vec::new() }
        }

        fn index_of(&self, fd: Fd) -> Option<usize> {
            self.fds.iter().position(|p| p.fd == fd)
        }

        fn events_for(interest: Interest) -> i16 {
            let mut ev = 0;
            if interest.readable {
                ev |= POLLIN;
            }
            if interest.writable {
                ev |= POLLOUT;
            }
            ev
        }
    }

    impl Poller for PollFallback {
        fn add(&mut self, fd: Fd, token: usize, interest: Interest) -> io::Result<()> {
            if self.index_of(fd).is_some() {
                return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd registered twice"));
            }
            self.fds.push(PollFd { fd, events: Self::events_for(interest), revents: 0 });
            self.tokens.push(token);
            Ok(())
        }

        fn modify(&mut self, fd: Fd, token: usize, interest: Interest) -> io::Result<()> {
            let i = self
                .index_of(fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds[i].events = Self::events_for(interest);
            self.tokens[i] = token;
            Ok(())
        }

        fn remove(&mut self, fd: Fd) -> io::Result<()> {
            let i = self
                .index_of(fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            Ok(())
        }

        fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            events.clear();
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            // SAFETY: `fds` is a vec of `#[repr(C)]` pollfds and its length
            // is `nfds`, so the kernel reads and writes `revents` only
            // inside the allocation.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len(), ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (p, &token) in self.fds.iter().zip(&self.tokens) {
                if p.revents == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: p.revents & POLLIN != 0,
                    writable: p.revents & POLLOUT != 0,
                    hangup: p.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }

        fn name(&self) -> &'static str {
            "poll"
        }
    }
}

/// Shared write end of the wake pipe; closes the fd when the last clone
/// (worker-held notifier or the event loop's pipe) drops.
#[cfg(unix)]
#[derive(Debug)]
struct WriteEnd(Fd);

#[cfg(unix)]
impl Drop for WriteEnd {
    fn drop(&mut self) {
        // SAFETY: the write end is owned by this value, shared only through
        // one `Arc`, so it is closed once, when the last clone drops.
        unsafe {
            sys::close(self.0);
        }
    }
}

/// The event thread's half of the self-pipe: the read end registers with
/// the poller, [`WakePipe::drain`] consumes pending wake bytes.
#[cfg(unix)]
#[derive(Debug)]
pub struct WakePipe {
    read_fd: Fd,
    write: Arc<WriteEnd>,
}

/// A cheap, cloneable "kick the event thread" handle handed to workers.
#[cfg(unix)]
#[derive(Debug, Clone)]
pub struct WakeNotifier {
    write: Arc<WriteEnd>,
}

#[cfg(unix)]
impl WakePipe {
    /// Opens the pipe with both ends nonblocking.
    pub fn new() -> io::Result<Self> {
        let mut fds = [0 as Fd; 2];
        // SAFETY: `fds` is the two-int array `pipe(2)` writes; both fds it
        // returns are handed to owners that close them once.
        if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        sys::set_nonblocking(fds[0])?;
        sys::set_nonblocking(fds[1])?;
        Ok(Self { read_fd: fds[0], write: Arc::new(WriteEnd(fds[1])) })
    }

    /// The fd to register with the poller under the wake token.
    pub fn read_fd(&self) -> Fd {
        self.read_fd
    }

    /// A handle workers use to signal "a completion is queued".
    pub fn notifier(&self) -> WakeNotifier {
        WakeNotifier { write: Arc::clone(&self.write) }
    }

    /// Consumes every pending wake byte (one readiness event can stand
    /// for many completions; the completion queue is drained separately).
    pub fn drain(&self) {
        let mut scratch = [0u8; 64];
        loop {
            // SAFETY: `read` writes at most `scratch.len()` bytes into
            // `scratch`; `read_fd` stays open until this value drops.
            let n = unsafe { sys::read(self.read_fd, scratch.as_mut_ptr(), scratch.len()) };
            if n <= 0 || (n as usize) < scratch.len() {
                return;
            }
        }
    }
}

#[cfg(unix)]
impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: the read end is owned by this value only; `Drop` runs
        // once, so it is closed once.
        unsafe {
            sys::close(self.read_fd);
        }
    }
}

#[cfg(unix)]
impl WakeNotifier {
    /// Writes one wake byte; a full pipe already guarantees a pending
    /// wakeup, so `EAGAIN` is success.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: the buffer is one live byte and the count is 1; the fd
        // stays open while `self.write` holds its `Arc`.
        unsafe {
            sys::write(self.write.0, &byte, 1);
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    fn pollers() -> Vec<Box<dyn Poller>> {
        let mut out: Vec<Box<dyn Poller>> = vec![Box::new(unix::PollFallback::new())];
        #[cfg(target_os = "linux")]
        out.push(Box::new(linux::Epoll::new().unwrap()));
        out
    }

    #[test]
    fn readiness_round_trip_on_both_pollers() {
        for mut poller in pollers() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            poller.add(server.as_raw_fd(), 7, Interest::READ).unwrap();

            let mut events = Vec::new();
            // Nothing pending: the wait times out empty.
            poller.wait(&mut events, Duration::from_millis(10)).unwrap();
            assert!(events.is_empty(), "{}: spurious event", poller.name());

            client.write_all(b"ping").unwrap();
            poller.wait(&mut events, Duration::from_millis(1000)).unwrap();
            assert_eq!(events.len(), 1, "{}", poller.name());
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);

            // Level-triggered: unread bytes surface again on the next wait.
            poller.wait(&mut events, Duration::from_millis(100)).unwrap();
            assert_eq!(events.len(), 1, "{}: not level-triggered", poller.name());

            let mut buf = [0u8; 16];
            let n = (&server).read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"ping");
            poller.wait(&mut events, Duration::from_millis(10)).unwrap();
            assert!(events.is_empty(), "{}: stale readiness", poller.name());

            // Write interest on an idle socket is immediately ready.
            poller.modify(server.as_raw_fd(), 9, Interest::WRITE).unwrap();
            poller.wait(&mut events, Duration::from_millis(1000)).unwrap();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].token, 9);
            assert!(events[0].writable);

            poller.remove(server.as_raw_fd()).unwrap();
            poller.wait(&mut events, Duration::from_millis(10)).unwrap();
            assert!(events.is_empty(), "{}: events after remove", poller.name());
        }
    }

    #[test]
    fn hangup_is_reported() {
        for mut poller in pollers() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (server, _) = listener.accept().unwrap();
            poller.add(server.as_raw_fd(), 1, Interest::READ).unwrap();
            drop(client);
            let mut events = Vec::new();
            poller.wait(&mut events, Duration::from_millis(1000)).unwrap();
            assert_eq!(events.len(), 1, "{}", poller.name());
            // A clean FIN surfaces as readable (read returns 0) and/or
            // hangup, depending on the facility; either drives teardown.
            assert!(events[0].readable || events[0].hangup, "{}", poller.name());
            poller.remove(server.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn wake_pipe_turns_worker_signals_into_events() {
        for mut poller in pollers() {
            let pipe = WakePipe::new().unwrap();
            poller.add(pipe.read_fd(), 42, Interest::READ).unwrap();
            let notifier = pipe.notifier();
            let mut events = Vec::new();
            poller.wait(&mut events, Duration::from_millis(10)).unwrap();
            assert!(events.is_empty());

            let t = std::thread::spawn(move || notifier.wake());
            let start = Instant::now();
            poller.wait(&mut events, Duration::from_millis(2000)).unwrap();
            t.join().unwrap();
            assert_eq!(events.len(), 1, "{}", poller.name());
            assert_eq!(events[0].token, 42);
            assert!(start.elapsed() < Duration::from_millis(1900));

            pipe.drain();
            poller.wait(&mut events, Duration::from_millis(10)).unwrap();
            assert!(events.is_empty(), "{}: wake byte not drained", poller.name());
            poller.remove(pipe.read_fd()).unwrap();
        }
    }

    #[test]
    fn wake_is_safe_when_pipe_is_full() {
        let pipe = WakePipe::new().unwrap();
        let notifier = pipe.notifier();
        // Far past any pipe buffer: every wake past the first 64k is
        // EAGAIN and must not error or block.
        for _ in 0..100_000 {
            notifier.wake();
        }
        pipe.drain();
    }
}
