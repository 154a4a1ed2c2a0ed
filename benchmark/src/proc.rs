//! Server child processes: this binary re-exec'd with `--serve`, each a
//! plain `Server::bind(cfg).run()` on a free port.
//!
//! Servers are separate processes so that their CPU time and peak RSS can
//! be read from `/proc` without the load generator's own share, and so a
//! cold start really is cold (fresh address space, first-touch faults).

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use swope_server::{Server, ServerConfig};

/// What one server child serves, rendered to and parsed from its argv.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeSpec {
    /// Snapshot to register under its file stem; a coordinator has none.
    pub data: Option<String>,
    /// Result-cache entries.
    pub cache_capacity: usize,
    /// `Some` opens the snapshot out-of-core under this page-cache budget.
    pub budget_bytes: Option<u64>,
    /// Peer addresses; non-empty makes this server a coordinator.
    pub peers: Vec<String>,
}

impl ServeSpec {
    fn to_args(&self) -> Vec<String> {
        let mut args =
            vec!["--serve".to_owned(), "--cache".into(), self.cache_capacity.to_string()];
        if let Some(data) = &self.data {
            args.extend(["--data".into(), data.clone()]);
        }
        if let Some(budget) = self.budget_bytes {
            args.extend(["--budget".into(), budget.to_string()]);
        }
        for peer in &self.peers {
            args.extend(["--peer".into(), peer.clone()]);
        }
        args
    }

    /// Parses the arguments after `--serve`.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut spec = ServeSpec::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--data" => spec.data = Some(value()?.clone()),
                "--cache" => {
                    spec.cache_capacity = value()?.parse().map_err(|_| "bad --cache".to_owned())?
                }
                "--budget" => {
                    spec.budget_bytes =
                        Some(value()?.parse().map_err(|_| "bad --budget".to_owned())?)
                }
                "--peer" => spec.peers.push(value()?.clone()),
                other => return Err(format!("unknown serve flag {other:?}")),
            }
        }
        Ok(spec)
    }
}

/// The server configuration every measured child runs: one HTTP worker,
/// no exec pool, tracing off — with the single closed-loop client that is
/// never more than two runnable threads on the two vCPUs this runs on.
pub fn server_config(spec: &ServeSpec) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        exec_threads: 1,
        trace: false,
        cache_capacity: spec.cache_capacity,
        peers: spec.peers.clone(),
        mmap: spec.budget_bytes.is_some(),
        store_budget_bytes: spec.budget_bytes,
        keep_alive: Duration::from_secs(600),
        ..ServerConfig::default()
    }
}

/// Child-process entry point: serve until the parent goes away.
pub fn serve_main(spec: &ServeSpec) -> Result<(), String> {
    // The parent holds the write end of our stdin and never writes to it:
    // EOF means the parent exited — cleanly, by panic, or by SIGKILL —
    // and no orphan server may outlive it.
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(0);
    });
    let server = Server::bind(server_config(spec)).map_err(|e| format!("binding: {e}"))?;
    if let Some(path) = &spec.data {
        if spec.budget_bytes.is_some() {
            server.registry().load_path_paged(path, server.pager())?;
        } else {
            server.registry().load_path(path)?;
        }
    }
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("ready {}", addr.port());
    server.run();
    Ok(())
}

/// Owns a child process: killed and reaped when dropped, so neither an
/// early return nor an unwinding panic leaves one running.
pub struct ChildGuard(Child);

impl ChildGuard {
    pub fn new(child: Child) -> Self {
        Self(child)
    }

    pub fn pid(&self) -> u32 {
        self.0.id()
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A running server child.
pub struct ServerProc {
    guard: ChildGuard,
    pub addr: SocketAddr,
    /// Held so the child's stdout stays open for its lifetime.
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Spawns a server child and blocks until it reports its port (the
    /// dataset is loaded and the socket bound by then).
    pub fn spawn(spec: &ServeSpec) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
        let mut child = Command::new(exe)
            .args(spec.to_args())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning server child: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut guard = ChildGuard::new(child);
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        stdout.read_line(&mut line).map_err(|e| format!("reading child stdout: {e}"))?;
        let port = line.strip_prefix("ready ").and_then(|p| p.trim().parse::<u16>().ok());
        let Some(port) = port else {
            let status = guard.0.wait().map(|s| s.to_string()).unwrap_or_default();
            return Err(format!("server child failed before ready ({status}): {line:?}"));
        };
        Ok(Self { guard, addr: SocketAddr::from(([127, 0, 0, 1], port)), _stdout: stdout })
    }

    pub fn pid(&self) -> u32 {
        self.guard.pid()
    }
}

/// Nanoseconds the process's threads have spent on a CPU so far: the
/// first field of every `/proc/<pid>/task/*/schedstat`. Same quantity as
/// `utime + stime` in `/proc/<pid>/stat`, at nanosecond instead of 10 ms
/// resolution. Threads here live as long as their process, so the sum
/// never loses an exited thread's share.
pub fn cpu_nanos(pid: u32) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let mut total = 0u64;
    for task in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
        let path = task.map_err(|e| format!("{dir}: {e}"))?.path().join("schedstat");
        // A thread may exit between readdir and read; it ran ~nothing.
        let Ok(text) = std::fs::read_to_string(&path) else { continue };
        total += text
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("{}: unparseable {text:?}", path.display()))?;
    }
    Ok(total)
}

/// Peak resident set size (`VmHWM`) of a process in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// The guest-wide CPU tick counters of `/proc/stat`'s first line.
pub struct CpuTicks {
    /// user + nice + system + irq + softirq + steal.
    busy: u64,
    steal: u64,
}

impl CpuTicks {
    /// Percent of the busy ticks since `earlier` that were steal: time a
    /// vCPU was runnable but the hypervisor ran something else.
    pub fn steal_pct_since(&self, earlier: &CpuTicks) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy);
        if busy == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / busy as f64 * 100.0
    }
}

/// Reads the aggregate `cpu` line of `/proc/stat`.
pub fn cpu_ticks() -> Result<CpuTicks, String> {
    let text = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    parse_cpu_ticks(&text).ok_or_else(|| "/proc/stat: no parseable cpu line".to_owned())
}

fn parse_cpu_ticks(stat: &str) -> Option<CpuTicks> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let &[user, nice, system, _idle, _iowait, irq, softirq, steal, ..] = fields.as_slice() else {
        return None;
    };
    Some(CpuTicks { busy: user + nice + system + irq + softirq + steal, steal })
}

/// A server topology brought up for one workload: the server the client
/// talks to plus, for a cluster, the peers behind it.
pub struct Fleet {
    /// Drop order matters: the front (coordinator) goes first so its
    /// session teardown still finds the peers alive.
    pub front: ServerProc,
    pub peers: Vec<ServerProc>,
}

impl Fleet {
    /// Starts `peers` first, then the front server pointed at them.
    pub fn start(front: &ServeSpec, peers: &[ServeSpec]) -> Result<Self, String> {
        let peers = peers.iter().map(ServerProc::spawn).collect::<Result<Vec<_>, _>>()?;
        let mut front = front.clone();
        front.peers = peers.iter().map(|p| p.addr.to_string()).collect();
        Ok(Self { front: ServerProc::spawn(&front)?, peers })
    }

    pub fn pids(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::once(self.front.pid()).chain(self.peers.iter().map(ServerProc::pid))
    }

    /// Summed on-CPU nanoseconds of every server process.
    pub fn cpu_nanos(&self) -> Result<u64, String> {
        self.pids().map(cpu_nanos).sum()
    }

    /// Summed peak RSS of every server process, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.pids().map(peak_rss_mb).sum()
    }
}

/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;
type CpuSet = [u64; CPU_SET_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn get_affinity() -> Result<CpuSet, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(mask)
}

fn set_affinity(mask: &CpuSet) -> Result<(), String> {
    // SAFETY: `mask` is a live buffer of exactly the byte length passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// The CPUs the calling thread may run on, lowest first.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mask = get_affinity()?;
    Ok((0..CPU_SET_WORDS * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect())
}

/// The calling thread restricted to one CPU until this is dropped.
/// Threads and processes it starts meanwhile inherit the restriction.
pub struct Pinned {
    original: CpuSet,
}

impl Pinned {
    /// Pins to the highest CPU the thread may use: device interrupts
    /// land on CPU 0.
    pub fn to_highest() -> Result<Self, String> {
        let cpu = allowed_cpus()?.pop().ok_or("empty CPU affinity mask")?;
        Self::to(cpu)
    }

    pub fn to(cpu: usize) -> Result<Self, String> {
        let original = get_affinity()?;
        let mut only = [0u64; CPU_SET_WORDS];
        *only.get_mut(cpu / 64).ok_or_else(|| format!("no CPU {cpu}"))? = 1 << (cpu % 64);
        set_affinity(&only).map_err(|e| format!("pinning to CPU {cpu}: {e}"))?;
        Ok(Self { original })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        let _ = set_affinity(&self.original);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_spec_round_trips_through_argv() {
        let spec = ServeSpec {
            data: Some("out/data/cdc.swop".into()),
            cache_capacity: 32,
            budget_bytes: Some(50_000_000),
            peers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
        };
        let args = spec.to_args();
        assert_eq!(args[0], "--serve");
        assert_eq!(ServeSpec::from_args(&args[1..]).unwrap(), spec);
        let bare = ServeSpec { cache_capacity: 7, ..ServeSpec::default() };
        assert_eq!(ServeSpec::from_args(&bare.to_args()[1..]).unwrap(), bare);
        assert!(ServeSpec::from_args(&["--cache".into()]).is_err());
        assert!(ServeSpec::from_args(&["--bogus".into()]).is_err());
    }

    #[test]
    fn measured_servers_run_one_worker_untraced() {
        let cfg = server_config(&ServeSpec { cache_capacity: 32, ..ServeSpec::default() });
        assert_eq!((cfg.threads, cfg.exec_threads, cfg.trace), (1, 1, false));
        assert!(!cfg.mmap);
        let paged = server_config(&ServeSpec { budget_bytes: Some(1), ..ServeSpec::default() });
        assert!(paged.mmap);
        assert_eq!(paged.store_budget_bytes, Some(1));
    }

    #[test]
    fn pinning_holds_until_the_guard_drops() {
        // Affinity is per thread and a test runs on its own thread, so no
        // other test sees the change.
        let before = allowed_cpus().unwrap();
        let cpu = *before.last().unwrap();
        {
            let _pinned = Pinned::to(cpu).unwrap();
            assert_eq!(allowed_cpus().unwrap(), [cpu]);
            // A thread spawned while pinned inherits the one CPU.
            assert_eq!(std::thread::spawn(allowed_cpus).join().unwrap().unwrap(), [cpu]);
        }
        assert_eq!(allowed_cpus().unwrap(), before);
        assert!(Pinned::to(CPU_SET_WORDS * 64).is_err());
    }

    #[test]
    fn steal_share_comes_from_the_first_stat_line() {
        let before =
            parse_cpu_ticks("cpu  100 0 50 1000 5 0 10 40 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n")
                .unwrap();
        let after = parse_cpu_ticks("cpu  180 0 60 1500 5 0 10 50 0 0\n").unwrap();
        // 80 user + 10 system + 10 steal busy ticks, 10 of them steal.
        assert_eq!(after.steal_pct_since(&before), 10.0);
        assert_eq!(before.steal_pct_since(&before), 0.0);
        assert!(parse_cpu_ticks("cpu0 1 2 3 4 5 6 7 8").is_none());
        assert!(parse_cpu_ticks("cpu  1 2 3").is_none());
        assert!(cpu_ticks().is_ok());
    }

    fn alive(pid: u32) -> bool {
        std::path::Path::new(&format!("/proc/{pid}")).exists()
    }

    #[test]
    fn children_are_reaped_when_the_harness_panics() {
        let (tx, rx) = std::sync::mpsc::channel();
        let result = std::panic::catch_unwind(move || {
            let child = Command::new("sleep").arg("600").spawn().expect("spawning sleep");
            let guard = ChildGuard::new(child);
            tx.send(guard.pid()).unwrap();
            assert!(alive(guard.pid()));
            panic!("harness failure with a child running");
        });
        assert!(result.is_err());
        let pid = rx.recv().unwrap();
        // Drop killed *and waited*: the pid is gone, not a zombie.
        assert!(!alive(pid), "child {pid} outlived the panic");
    }

    #[test]
    fn proc_readers_see_this_process() {
        let pid = std::process::id();
        assert!(peak_rss_mb(pid).unwrap() > 0.5);
        let before = cpu_nanos(pid).unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_nanos(pid).unwrap() > before);
        assert!(cpu_nanos(u32::MAX).is_err());
    }
}
