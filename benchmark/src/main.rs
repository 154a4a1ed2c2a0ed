//! `swope-e2e`: the end-to-end `/query/*` benchmark.
//!
//! ```text
//! swope-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--aa]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics over HTTP against server
//! child processes; `--trace 1` replays the same request list in-process
//! under spans and reports the per-layer metrics. The last line of
//! standard output is one JSON object with the result. See `README.md`.

mod client;
mod e2e;
mod golden;
mod metrics;
mod proc;
mod replay;
mod span;
mod stats;
mod workload;

use std::path::PathBuf;

use client::CacheOutcome;
use e2e::Plan;
use metrics::{Manifest, Values};
use replay::ExactCounts;
use workload::{Sizes, Topology};

/// Cold starts per end-to-end run.
const COLD_STARTS: usize = 4;
/// Undisturbed timed passes after each cold start: with four cold starts
/// every request's settled latency is a floor over eight draws.
const PASSES_PER_FLEET: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        aa: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed".to_owned())?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds".to_owned())?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required (one of {:?})", workload::NAMES));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

/// `benchmark/out`, next to this crate's manifest: `cargo run` exports
/// the manifest directory; a bare binary falls back to the repo-relative
/// path the benchmark command is documented to run from.
fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR").unwrap_or_else(|| "benchmark".into());
    PathBuf::from(manifest).join("out")
}

/// What one run (end-to-end or traced) established.
struct Outcome {
    values: Values,
    /// Timed end-to-end passes the run served.
    passes: usize,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Assumptions the workload's design rests on, each with whether it
    /// held. Reported, never counted as failures.
    premises: Vec<(String, bool)>,
    /// Only a traced run has them.
    counts: Option<ExactCounts>,
}

fn run_once(args: &Args, trace: bool, manifest: &Manifest) -> Result<Outcome, String> {
    let sizes = if args.quick { Sizes::QUICK } else { Sizes::FULL };
    let workload = workload::build(&args.workload, args.seed, &sizes)?;
    let out = out_dir();
    let deployment = workload::deploy(&workload, &sizes, &out)?;

    let goldens = golden::compute(&workload, &deployment.snapshot)?;
    let mut verifier = e2e::Verifier::new(workload.requests.len(), &goldens.digests);
    verifier.attempted += goldens.definitions_checked as u64;
    for violation in goldens.violations {
        verifier.fail(violation);
    }

    // The replay needs an end-to-end reference for transport cost; one
    // cold start and half the time cap are enough for that. A smoke run
    // makes do with two cold starts and a timed pass after each.
    let plan = Plan {
        cold_starts: match (trace, args.quick) {
            (true, _) => 1,
            (false, true) => 2,
            (false, false) => COLD_STARTS,
        },
        passes_per_fleet: if args.quick { 1 } else { PASSES_PER_FLEET },
        cap_s: if trace { args.seconds / 2.0 } else { args.seconds },
    };
    let m = e2e::measure(&workload, &deployment, &mut verifier, plan)?;
    eprintln!(
        "{} requests x {} timed passes ({} repeated for steal{}); raw p50 {:.3} ms, raw p99 \
         {:.3} ms, pass spread {:.1} %, host steal {:.1} %",
        workload.requests.len(),
        m.passes,
        m.disturbed_passes,
        if m.capped { ", CUT SHORT by --seconds" } else { "" },
        m.raw_p50_ms,
        m.raw_p99_ms,
        m.pass_spread_pct,
        m.steal_pct
    );
    let mut premises = Vec::new();
    let (values, counts) = if trace {
        let path = out.join(format!("trace-{}.jsonl", workload.name));
        let (values, counts) =
            replay::run(&workload, &deployment, &m, &mut verifier, &manifest.per_layer, &path)?;
        eprintln!("spans written to {}", path.display());
        let faults = values.get("pager.faults_per_query");
        premises.push((
            format!("pager.faults_per_query = {faults} is > 0 only on paged_hotcold"),
            (faults > 0.0) == (workload.topology == Topology::Paged),
        ));
        let scanned = values.get("core.rows_scanned_per_query");
        premises.push((
            format!("core.rows_scanned_per_query = {scanned} is 0 only on cached_hot"),
            (scanned == 0.0) == (workload.expect == CacheOutcome::Hit),
        ));
        if workload.name == "mi_heap" {
            let early = values.get("core.converged_early_ratio");
            premises.push((
                format!("{early:.2} of the MI list converges early (want >= 0.5)"),
                early >= 0.5,
            ));
        }
        (values, Some(counts))
    } else {
        let mut values = Values::new(&manifest.end_to_end);
        values.set("qps", m.qps);
        values.set("latency_p50_ms", m.latency_p50_ms);
        values.set("latency_p90_ms", m.latency_p90_ms);
        values.set("cpu_ms_per_query", m.cpu_ms_per_query);
        values.set("rss_peak_mb", m.rss_peak_mb);
        values.set("setup_s", m.setup_s);
        let (expected, unexpected) = match workload.expect {
            CacheOutcome::Hit => (m.hits, m.misses),
            _ => (m.misses, m.hits),
        };
        premises.push((
            format!(
                "X-Swope-Cache is {:?} on all timed responses ({expected} as expected, \
                 {unexpected} not)",
                workload.expect
            ),
            unexpected == 0 && expected > 0,
        ));
        premises.push((
            format!(
                "the planned {} timed passes fit --seconds ({} served)",
                plan.cold_starts * plan.passes_per_fleet,
                m.passes
            ),
            !m.capped,
        ));
        (values, None)
    };
    Ok(Outcome {
        values,
        passes: m.passes,
        attempted: verifier.attempted,
        failed: verifier.failed,
        errors: verifier.errors,
        premises,
        counts,
    })
}

fn report(workload: &str, outcome: &Outcome) {
    println!("workload {workload}");
    for (metric, value) in outcome.values.iter() {
        match value {
            Some(value) => println!("  {:<40} {value:>16.4} {}", metric.name, metric.unit),
            None => println!("  {:<40} {:>16}", metric.name, "n/a"),
        }
    }
    println!("  {:<40} {:>16}", "timed_passes", outcome.passes);
    println!("  {:<40} {:>16}", "ops_attempted", outcome.attempted);
    println!("  {:<40} {:>16}", "ops_failed", outcome.failed);
    for (premise, held) in &outcome.premises {
        println!("  premise {}: {premise}", if *held { "holds" } else { "BROKEN" });
    }
    for error in &outcome.errors {
        println!("  FAILED {error}");
    }
}

/// The contract's result line.
fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        outcome.values.to_json()
    )
}

/// `--aa`: the same workload and seed twice back to back, end-to-end and
/// traced. Prints how far the second run's end-to-end metrics moved
/// against each metric's bound, and requires the work counts to repeat
/// exactly.
fn run_aa(args: &Args, manifest: &Manifest) -> Result<bool, String> {
    let first = run_once(args, false, manifest)?;
    let second = run_once(args, false, manifest)?;
    println!("A/A {} seed {}", args.workload, args.seed);
    println!("  {:<20} {:>12} {:>12} {:>9} {:>7}", "metric", "run 1", "run 2", "worse by", "bound");
    for metric in &manifest.end_to_end {
        let (a, b) = (first.values.get(&metric.name), second.values.get(&metric.name));
        let worse = if metric.higher_is_better { (a - b) / a } else { (b - a) / a };
        let bound = metric.bound.expect("end-to-end metrics declare a bound");
        let verdict = if worse > bound { "OVER" } else { "" };
        println!(
            "  {:<20} {a:>12.4} {b:>12.4} {:>8.1}% {:>6.0}% {verdict}",
            metric.name,
            worse * 100.0,
            bound * 100.0
        );
    }
    let traced_first = run_once(args, true, manifest)?;
    let traced_second = run_once(args, true, manifest)?;
    let a = traced_first.counts.as_ref().expect("a traced run has counts");
    let b = traced_second.counts.as_ref().expect("a traced run has counts");
    let exact = a == b;
    println!("  counts, run 1: {a}");
    println!("  counts, run 2: {b}");
    println!("  counts repeat exactly: {exact}");
    let failed = first.failed + second.failed + traced_first.failed + traced_second.failed;
    println!("  ops_failed over the four runs: {failed}");
    Ok(exact && failed == 0)
}

fn run(args: &Args) -> Result<bool, String> {
    let manifest = Manifest::embedded();
    if !manifest.workloads.contains(&args.workload) {
        let declared = &manifest.workloads;
        return Err(format!("BENCHMARK.json declares {declared:?}, not {:?}", args.workload));
    }
    if args.aa {
        return run_aa(args, &manifest);
    }
    let outcome = run_once(args, args.trace, &manifest)?;
    report(&args.workload, &outcome);
    println!("{}", result_line(&outcome));
    Ok(outcome.failed == 0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--serve") {
        let result = proc::ServeSpec::from_args(&argv[1..]).and_then(|s| proc::serve_main(&s));
        if let Err(e) = result {
            eprintln!("swope-e2e --serve: {e}");
            std::process::exit(2);
        }
        return;
    }
    match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("swope-e2e: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_obs::json::Json;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload mi_heap --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("mi_heap", 42, 10.0, true));
        assert!(!a.quick && !a.aa);
        let a = parse_args(&argv("--workload cached_hot --quick --aa")).unwrap();
        assert!(a.quick && a.aa && !a.trace);
        assert!(parse_args(&argv("--seed 1")).is_err(), "workload is required");
        assert!(parse_args(&argv("--workload x --trace yes")).is_err());
        assert!(parse_args(&argv("--workload x --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload x --bogus")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::new(&Manifest::embedded().end_to_end);
        values.set("qps", 123.5);
        let outcome = Outcome {
            values,
            passes: 9,
            attempted: 10,
            failed: 1,
            errors: vec![],
            premises: vec![],
            counts: None,
        };
        let json = Json::parse(&result_line(&outcome)).unwrap();
        let Json::Obj(fields) = &json else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(json.get("attempted").unwrap().as_u64(), Some(10));
        assert_eq!(
            json.get("metrics").unwrap().get("qps").unwrap().get("value").unwrap().as_f64(),
            Some(123.5)
        );
    }
}
