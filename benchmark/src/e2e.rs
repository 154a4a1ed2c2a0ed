//! The measured run: cold starts, each followed by timed passes of the
//! fixed request list from one closed-loop client, every answer verified.
//!
//! The shape is the same for every workload, and it is fixed work, not
//! fixed time: `cold_starts` times a fleet is brought up from nothing
//! (spawn → ready → the whole list once as a verified warm-up) and then
//! serves the same number of timed passes of the same list. Every run of
//! every commit therefore takes its floors (see [`crate::stats`]) over
//! the same number of draws. `--seconds` only caps the timed passes.

use std::time::Instant;

use crate::client::{digest, CacheOutcome, Client};
use crate::proc::{self, Fleet};
use crate::stats;
use crate::workload::{Deployment, Workload};

/// A pass counts as disturbed when the hypervisor withheld more than this
/// share (percent) of the guest's busy time while it ran; the fleet then
/// serves one more. On the box this was built on steal comes in bursts of
/// seconds at 3 – 8 %, between stretches at 0.
const STEAL_CLEAN_PCT: f64 = 2.5;

/// What a fleet does after the passes it has served so far.
#[derive(Debug, PartialEq)]
enum Next {
    /// Serve another timed pass.
    Serve,
    /// It has served its undisturbed passes.
    Done,
    /// It has not, but the time cap says stop.
    Capped,
}

/// A fleet serves until `planned` of its passes ran `clean`, but starts
/// no pass once the run's timed passes have used up `budget_s` — except
/// its first: every fleet contributes at least one draw. Running out of
/// time for the repeats of disturbed passes is no shortfall; running out
/// before the planned passes themselves is.
fn next_pass(planned: usize, clean: usize, served: usize, timed_s: f64, budget_s: f64) -> Next {
    if clean >= planned {
        Next::Done
    } else if served > 0 && timed_s >= budget_s {
        if served < planned {
            Next::Capped
        } else {
            Next::Done
        }
    } else {
        Next::Serve
    }
}

/// How much a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Fleets brought up from nothing, one after the other.
    pub cold_starts: usize,
    /// Undisturbed timed passes each fleet serves.
    pub passes_per_fleet: usize,
    /// Upper bound on the summed wall of the timed passes, in seconds
    /// (`--seconds`). It is there for a commit so slow, or a host so
    /// busy, that the fixed work does not fit; a run that hits it says so.
    pub cap_s: f64,
}

/// Checks every response of a run and keeps the operation counts.
pub struct Verifier {
    /// Body digest per request index, learnt on first sight; `None`
    /// until then. Goldens pre-fill their indices, so for those requests
    /// even the first response is checked against the library's answer.
    expected: Vec<Option<u64>>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub errors: Vec<String>,
}

impl Verifier {
    pub fn new(len: usize, goldens: &[(usize, u64)]) -> Self {
        let mut expected = vec![None; len];
        for &(index, digest) in goldens {
            expected[index] = Some(digest);
        }
        Self { expected, attempted: 0, failed: 0, errors: Vec::new() }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// One answer to request `index`: must be a 200 whose body matches
    /// every earlier body (and the golden, if any) for that request.
    pub fn check(&mut self, index: usize, target: &str, status: u16, body: &[u8]) {
        self.attempted += 1;
        if status != 200 {
            self.fail(format!("{target}: status {status} {}", String::from_utf8_lossy(body)));
            return;
        }
        let got = digest(body);
        match self.expected[index] {
            None => self.expected[index] = Some(got),
            Some(want) if want == got => {}
            Some(_) => self.fail(format!("{target}: body differs from its earlier/golden answer")),
        }
    }
}

/// Stretches a pass is cut into for CPU accounting. The servers' CPU
/// clocks are read between two requests at each boundary (three small
/// `/proc` files per process, outside any timed request), so that CPU
/// time can be settled over passes stretch by stretch the way latency is
/// request by request: a whole pass is never undisturbed.
const CPU_STRETCHES: usize = 20;

/// Whether request `index` of a `len`-request list is the last of its
/// stretch: stretch `k` ends with request `(k + 1) · len / STRETCHES`.
fn ends_stretch(index: usize, len: usize) -> bool {
    (index + 1) * CPU_STRETCHES / len > index * CPU_STRETCHES / len
}

/// One pass of the list.
pub struct Pass {
    pub wall_s: f64,
    /// Per-request latency in ms, in list order.
    pub latency_ms: Vec<f64>,
    /// Server CPU time in ms per stretch of the list, in list order.
    pub cpu_ms: Vec<f64>,
    pub hits: u64,
    pub misses: u64,
}

/// Sends the whole list once, in order, one request in flight.
pub fn run_pass(
    client: &mut Client,
    fleet: &Fleet,
    workload: &Workload,
    verifier: &mut Verifier,
) -> Result<Pass, String> {
    let len = workload.requests.len();
    let mut latency_ms = Vec::with_capacity(len);
    let mut cpu_ms = Vec::with_capacity(CPU_STRETCHES);
    let mut cpu_before = fleet.cpu_nanos()?;
    let (mut hits, mut misses) = (0, 0);
    let started = Instant::now();
    for (index, request) in workload.requests.iter().enumerate() {
        let sent = Instant::now();
        let reply = client
            .round_trip(&request.wire)
            .map_err(|e| format!("{}: connection failed: {e}", request.target))?;
        latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        match reply.cache {
            CacheOutcome::Hit => hits += 1,
            CacheOutcome::Miss => misses += 1,
            CacheOutcome::Absent => {}
        }
        verifier.check(index, &request.target, reply.status, reply.body);
        if ends_stretch(index, len) {
            let now = fleet.cpu_nanos()?;
            cpu_ms.push((now - cpu_before) as f64 / 1e6);
            cpu_before = now;
        }
    }
    Ok(Pass { wall_s: started.elapsed().as_secs_f64(), latency_ms, cpu_ms, hits, misses })
}

/// A fleet that has answered the whole list once.
struct Warm {
    fleet: Fleet,
    client: Client,
    /// Spawn of the first process → the front server accepts a connection.
    ready_s: f64,
    /// The warm-up pass: every request's first, cold answer.
    cold: Pass,
}

fn cold_start(
    workload: &Workload,
    deployment: &Deployment,
    verifier: &mut Verifier,
) -> Result<Warm, String> {
    let started = Instant::now();
    let fleet = Fleet::start(&deployment.front, &deployment.peers)?;
    let mut client =
        Client::connect(fleet.front.addr).map_err(|e| format!("connecting to server: {e}"))?;
    let ready_s = started.elapsed().as_secs_f64();
    let cold = run_pass(&mut client, &fleet, workload, verifier)?;
    Ok(Warm { fleet, client, ready_s, cold })
}

/// Everything one run measured.
pub struct Measured {
    /// Requests per second of the one closed-loop client once every
    /// request runs at its settled latency: `1000 / mean settled ms`.
    /// Derived from the same settled latencies the percentiles come
    /// from — their mean where those are quantiles — and a floor: no
    /// single pass ran this fast. (List length over the fastest pass's
    /// wall spread 1.7× wider between runs: a whole pass is never
    /// undisturbed.)
    pub qps: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    pub cpu_ms_per_query: f64,
    pub rss_peak_mb: f64,
    /// Spawn of the first server process → last verified answer of the
    /// warm-up pass, settled over the cold starts like everything else:
    /// the fastest spawn-to-ready plus every request's fastest cold
    /// answer.
    pub setup_s: f64,
    /// Timed passes the floors were taken over.
    pub passes: usize,
    /// Of those, how many were disturbed by steal and so repeated.
    pub disturbed_passes: usize,
    /// Whether the time cap cut the planned passes short.
    pub capped: bool,
    /// Mean of the settled latencies, ms.
    pub settled_mean_ms: f64,
    /// Percentiles over every timed latency of every pass, unsettled.
    pub raw_p50_ms: f64,
    pub raw_p99_ms: f64,
    pub pass_spread_pct: f64,
    /// Share of this guest's busy CPU time the hypervisor withheld while
    /// the run lasted, in percent.
    pub steal_pct: f64,
    /// `X-Swope-Cache` outcomes over the timed passes.
    pub hits: u64,
    pub misses: u64,
}

/// Runs the plan's cold starts, each followed by its timed passes.
///
/// Every fleet serves timed passes, not only the last one: consecutive
/// runs of the same list — each a fresh fleet — have come out 1.4× apart,
/// and a floor over the passes of one fleet cannot see past whatever
/// that fleet was dealt.
///
/// A fleet serves passes until `passes_per_fleet` of them ran without
/// steal. Disturbed passes are kept — a floor loses nothing by one more
/// draw — so on a quiet host every run takes exactly the planned number
/// of draws, and on a busy one it takes more, not worse ones. Time spent
/// is bounded by the cap: fleet *i* of *S* starts no pass once the timed
/// passes so far add up to `(i + 1) / S` of it.
pub fn measure(
    workload: &Workload,
    deployment: &Deployment,
    verifier: &mut Verifier,
    plan: Plan,
) -> Result<Measured, String> {
    // The client and, by inheritance, every server it starts share one
    // CPU while the run is measured (README, *Pinning*): a closed loop
    // never has the client and a server runnable at once, one CPU keeps
    // every hand-off a context switch instead of a wake-up of a halted
    // vCPU, and it was the steadiest placement on every workload. Its
    // price: a cluster's peers are time-sliced, so `cluster_2peer`
    // measures their total work, not their parallel latency.
    let _pinned = proc::Pinned::to_highest()?;
    let len = workload.requests.len() as f64;
    let mut ready_s = Vec::with_capacity(plan.cold_starts);
    let mut cold: Vec<Pass> = Vec::with_capacity(plan.cold_starts);
    let mut passes: Vec<Pass> = Vec::new();
    let mut fleet_rss_mb = Vec::with_capacity(plan.cold_starts);
    let (mut timed_s, mut disturbed_passes, mut capped) = (0.0, 0, false);
    let ticks_before = proc::cpu_ticks()?;
    for fleet in 0..plan.cold_starts {
        // The previous fleet is gone by now: two at once would compete
        // for the CPU and for memory.
        let mut warm = cold_start(workload, deployment, verifier)?;
        ready_s.push(warm.ready_s);
        let budget_s = plan.cap_s * (fleet + 1) as f64 / plan.cold_starts as f64;
        let (mut clean, mut served) = (0, 0);
        loop {
            match next_pass(plan.passes_per_fleet, clean, served, timed_s, budget_s) {
                Next::Serve => {}
                Next::Done => break,
                Next::Capped => {
                    capped = true;
                    break;
                }
            }
            let ticks = proc::cpu_ticks()?;
            let pass = run_pass(&mut warm.client, &warm.fleet, workload, verifier)?;
            if proc::cpu_ticks()?.steal_pct_since(&ticks) <= STEAL_CLEAN_PCT {
                clean += 1;
            } else {
                disturbed_passes += 1;
            }
            timed_s += pass.wall_s;
            passes.push(pass);
            served += 1;
        }
        fleet_rss_mb.push(warm.fleet.peak_rss_mb()?);
        cold.push(warm.cold);
    }
    let steal_pct = proc::cpu_ticks()?.steal_pct_since(&ticks_before);

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let per_pass: Vec<&[f64]> = passes.iter().map(|p| p.latency_ms.as_slice()).collect();
    let settled = stats::settled(&per_pass);
    let settled_mean_ms = stats::mean(&settled);
    let pooled: Vec<f64> = per_pass.concat();
    let per_pass_cpu: Vec<&[f64]> = passes.iter().map(|p| p.cpu_ms.as_slice()).collect();
    let per_cold: Vec<&[f64]> = cold.iter().map(|p| p.latency_ms.as_slice()).collect();
    let setup_s = stats::floor(&ready_s) + stats::settled(&per_cold).iter().sum::<f64>() / 1e3;
    Ok(Measured {
        qps: 1e3 / settled_mean_ms,
        latency_p50_ms: stats::banded_percentile(&settled, 0.5),
        latency_p90_ms: stats::banded_percentile(&settled, 0.9),
        cpu_ms_per_query: stats::settled(&per_pass_cpu).iter().sum::<f64>() / len,
        rss_peak_mb: stats::percentile(&fleet_rss_mb, 0.5),
        setup_s,
        passes: passes.len(),
        disturbed_passes,
        capped,
        settled_mean_ms,
        raw_p50_ms: stats::percentile(&pooled, 0.5),
        raw_p99_ms: stats::percentile(&pooled, 0.99),
        pass_spread_pct: stats::pass_spread_pct(&walls),
        steal_pct,
        hits: passes.iter().map(|p| p.hits).sum(),
        misses: passes.iter().map(|p| p.misses).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_list_is_cut_into_equal_stretches_that_end_with_it() {
        for len in [1, 7, 20, 120, 240, 20_000] {
            let ends: Vec<usize> = (0..len).filter(|&i| ends_stretch(i, len)).collect();
            assert_eq!(ends.len(), len.min(CPU_STRETCHES), "{len}");
            assert_eq!(ends.last(), Some(&(len - 1)), "{len}: the last request ends a stretch");
            if len >= CPU_STRETCHES {
                let sizes: Vec<usize> = std::iter::once(ends[0] + 1)
                    .chain(ends.windows(2).map(|w| w[1] - w[0]))
                    .collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "{len}: stretches of {lo}..={hi} requests");
            }
        }
    }

    #[test]
    fn fleets_serve_fixed_work_until_the_cap() {
        // Two undisturbed passes planned, plenty of time: exactly two.
        assert_eq!(next_pass(2, 0, 0, 0.0, 6.0), Next::Serve);
        assert_eq!(next_pass(2, 1, 1, 1.0, 6.0), Next::Serve);
        assert_eq!(next_pass(2, 2, 2, 2.0, 6.0), Next::Done);
        // A disturbed pass does not count: one more is served.
        assert_eq!(next_pass(2, 1, 2, 2.0, 6.0), Next::Serve);
        assert_eq!(next_pass(2, 2, 3, 3.0, 6.0), Next::Done);
        // Out of time before the plan is met: stop, and say so.
        assert_eq!(next_pass(2, 1, 1, 6.5, 6.0), Next::Capped);
        // Out of time for a repeat only: the planned work was done.
        assert_eq!(next_pass(2, 1, 2, 6.5, 6.0), Next::Done);
        // Even then a fresh fleet serves its first pass.
        assert_eq!(next_pass(2, 0, 0, 6.5, 6.0), Next::Serve);
        assert_eq!(next_pass(2, 0, 1, 7.5, 6.0), Next::Capped);
    }

    #[test]
    fn verifier_counts_non_200_and_changed_bodies_as_failed() {
        let mut v = Verifier::new(3, &[(2, digest(b"golden"))]);
        v.check(0, "/a", 200, b"one");
        v.check(0, "/a", 200, b"one");
        assert_eq!((v.attempted, v.failed), (2, 0));
        // A body that changes between passes.
        v.check(0, "/a", 200, b"two");
        // A refused request.
        v.check(1, "/b", 503, b"{\"error\":\"busy\"}");
        // A first answer that contradicts the library's golden.
        v.check(2, "/c", 200, b"not golden");
        v.check(2, "/c", 200, b"golden");
        assert_eq!((v.attempted, v.failed), (6, 3));
        assert_eq!(v.errors.len(), 3);
        assert!(v.errors[1].contains("503"));
    }
}
