//! Observer-layer integration: every adaptive loop emits a well-formed
//! event stream, the metrics registry agrees with the per-query
//! statistics, and attaching observers never changes query answers.

#[path = "../../crates/core/tests/common/mod.rs"]
mod common;

use common::{all_shapes, plain};
use swope_columnar::Dataset;
use swope_core::{
    run, run_sharded, Answer, Executor, JsonlSink, LocalShardSource, MetricsRegistry, Scope, Shape,
    SwopeConfig,
};
use swope_datagen::{corpus, generate};
use swope_obs::json::Json;
use swope_obs::{
    AttrBounds, Phase, PhaseAccumulator, Plan, QueryKind, QueryMeta, QueryObserver, RunStats,
};

fn dataset() -> swope_columnar::Dataset {
    generate(&corpus::tiny(20_000, 12), 0x0B5)
}

fn cfg(seed: u64) -> SwopeConfig {
    SwopeConfig::with_epsilon(0.2).with_seed(seed)
}

/// `shape` over the whole of `ds`, observed, on `cfg.threads` workers.
fn observed<O: QueryObserver>(
    ds: &Dataset,
    shape: &Shape,
    cfg: &SwopeConfig,
    obs: &mut O,
) -> Answer {
    run(ds, shape, &Scope::all(), None, cfg, obs, &Executor::new(cfg.threads)).unwrap()
}

/// Runs `f` against an in-memory JSONL sink and returns the parsed lines.
fn capture(f: impl FnOnce(&mut JsonlSink<Vec<u8>>)) -> Vec<Json> {
    let mut sink = JsonlSink::new(Vec::new());
    f(&mut sink);
    let bytes = sink.finish().unwrap();
    let text = String::from_utf8(bytes).unwrap();
    text.lines().map(|l| Json::parse(l).expect(l)).collect()
}

fn event(v: &Json) -> &str {
    v.get("event").and_then(Json::as_str).expect("line without event field")
}

/// Checks the lifecycle shape shared by every loop: one `query_start`
/// first, one `query_end` last, `iterations` iteration events, exactly
/// `candidates` retirements, and only known phase names.
fn assert_stream_shape(events: &[Json], kind: QueryKind, candidates: u64) {
    assert_eq!(event(&events[0]), "query_start");
    assert_eq!(
        events[0].get("kind").unwrap().as_str(),
        Some(kind.name()),
        "query_start kind mismatch"
    );
    let last = events.last().unwrap();
    assert_eq!(event(last), "query_end");
    assert_eq!(events.iter().filter(|e| event(e) == "query_start").count(), 1);
    assert_eq!(events.iter().filter(|e| event(e) == "query_end").count(), 1);

    let iterations = last.get("iterations").unwrap().as_u64().unwrap();
    let iter_events = events.iter().filter(|e| event(e) == "iteration").count() as u64;
    assert_eq!(iter_events, iterations, "one iteration event per doubling round");

    let retired = events.iter().filter(|e| event(e) == "attr_retired").count() as u64;
    assert_eq!(retired, candidates, "every candidate retires exactly once");

    let phase_names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
    for e in events.iter().filter(|e| event(e) == "phase") {
        let name = e.get("phase").unwrap().as_str().unwrap();
        assert!(phase_names.contains(&name), "unknown phase {name}");
    }
}

#[test]
fn jsonl_stream_is_parseable_for_all_six_loops() {
    let ds = dataset();
    let h = ds.num_attrs() as u64;

    for (i, shape) in all_shapes().iter().enumerate() {
        let events = capture(|s| {
            observed(&ds, shape, &cfg(i as u64 + 1), s);
        });
        let candidates = h - u64::from(shape.target.is_some());
        assert_stream_shape(&events, shape.kind(), candidates);
    }
}

#[test]
fn jsonl_query_end_matches_returned_stats() {
    let ds = dataset();
    let mut sink = JsonlSink::new(Vec::new());
    let res = observed(&ds, &all_shapes()[0], &cfg(11), &mut sink);
    let bytes = sink.finish().unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let end =
        text.lines().map(|l| Json::parse(l).unwrap()).find(|v| event(v) == "query_end").unwrap();
    assert_eq!(end.get("sample_size").unwrap().as_u64(), Some(res.stats.sample_size as u64));
    assert_eq!(end.get("iterations").unwrap().as_u64(), Some(res.stats.iterations as u64));
    assert_eq!(end.get("rows_scanned").unwrap().as_u64(), Some(res.stats.rows_scanned));
    assert_eq!(end.get("converged_early").unwrap().as_bool(), Some(res.stats.converged_early));
}

#[test]
fn metrics_registry_totals_match_query_stats() {
    let ds = dataset();
    let registry = MetricsRegistry::new();
    let h = ds.num_attrs() as u64;

    let [topk, filt, mi] =
        [0, 1, 2].map(|i| observed(&ds, &all_shapes()[i], &cfg(21 + i as u64), &mut &registry));

    assert_eq!(registry.queries_all_kinds(), 3);
    assert_eq!(registry.queries_total(QueryKind::EntropyTopK), 1);
    assert_eq!(registry.queries_total(QueryKind::EntropyFilter), 1);
    assert_eq!(registry.queries_total(QueryKind::MiTopK), 1);
    assert_eq!(registry.queries_total(QueryKind::MiFilter), 0);

    let stats = [&topk.stats, &filt.stats, &mi.stats];
    assert_eq!(registry.rows_scanned_total(), stats.iter().map(|s| s.rows_scanned).sum::<u64>());
    assert_eq!(registry.iterations_total(), stats.iter().map(|s| s.iterations as u64).sum::<u64>());
    assert_eq!(
        registry.sample_rows_total(),
        stats.iter().map(|s| s.sample_size as u64).sum::<u64>()
    );
    assert_eq!(
        registry.converged_early_total(),
        stats.iter().filter(|s| s.converged_early).count() as u64
    );
    // Two entropy queries retire h candidates each; the MI query h-1.
    assert_eq!(registry.attrs_retired_total(), 2 * h + (h - 1));
    assert_eq!(registry.retirement_iterations().count(), 2 * h + (h - 1));

    // Phase timing was recorded for a live registry (enabled() is true),
    // and both renderings include the counters.
    let total_phase: u64 = Phase::ALL.iter().map(|&p| registry.phase_nanos_total(p)).sum();
    assert!(total_phase > 0, "phase timers should have fired");
    let table = registry.render_table();
    assert!(table.contains("rows_scanned_total"), "{table}");
    let prom = registry.render_prometheus();
    assert!(prom.contains("swope_queries_total"), "{prom}");
}

#[test]
fn metrics_registry_totals_survive_concurrent_hammering() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const THREADS: u64 = 8;
    const ROUNDS: u64 = 400;

    let registry = Arc::new(MetricsRegistry::new());
    let stop = Arc::new(AtomicBool::new(false));

    // A reader renders both exposition formats for the whole run; a torn
    // read or panic here means rendering is not safe against live writers.
    let reader = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut renders = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let prom = registry.render_prometheus();
                assert!(prom.contains("swope_queries_total"), "{prom}");
                let table = registry.render_table();
                assert!(table.contains("rows_scanned_total"), "{table}");
                renders += 1;
            }
            renders
        })
    };

    // Writers drive every observer hook through the `&MetricsRegistry`
    // impl, each thread with magnitudes derived from its index so any
    // lost update shows up as a total mismatch below.
    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let mut obs = &*registry;
                    obs.query_start(&QueryMeta {
                        kind: QueryKind::EntropyTopK,
                        num_attrs: 4,
                        epsilon: 0.1,
                        threads: 1,
                        plan: Plan { n: 1000, ..Plan::default() },
                    });
                    for phase in Phase::ALL {
                        obs.phase(phase, round as usize, t + 1);
                    }
                    obs.attr_retired(
                        t as usize,
                        (round % 7 + 1) as usize,
                        AttrBounds { lower: 0.0, upper: 1.0 },
                    );
                    obs.query_end(&RunStats {
                        sample_size: (t + 1) as usize,
                        iterations: (round % 5 + 1) as usize,
                        rows_scanned: (t + 1) * 10,
                        converged_early: round % 2 == 0,
                    });
                }
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let renders = reader.join().unwrap();
    assert!(renders > 0, "reader never got a render in");

    // Every total equals the sum of the per-thread contributions.
    let thread_sum: u64 = (1..=THREADS).sum(); // Σ (t+1)
    assert_eq!(registry.queries_total(QueryKind::EntropyTopK), THREADS * ROUNDS);
    assert_eq!(registry.queries_all_kinds(), THREADS * ROUNDS);
    assert_eq!(registry.attrs_retired_total(), THREADS * ROUNDS);
    assert_eq!(registry.sample_rows_total(), ROUNDS * thread_sum);
    assert_eq!(registry.rows_scanned_total(), ROUNDS * thread_sum * 10);
    assert_eq!(registry.converged_early_total(), THREADS * ROUNDS / 2);
    let per_round_iterations: u64 = (0..ROUNDS).map(|r| r % 5 + 1).sum();
    assert_eq!(registry.iterations_total(), THREADS * per_round_iterations);
    for phase in Phase::ALL {
        assert_eq!(registry.phase_nanos_total(phase), ROUNDS * thread_sum);
    }
    assert_eq!(registry.retirement_iterations().count(), THREADS * ROUNDS);
    assert_eq!(registry.iterations_per_query().count(), THREADS * ROUNDS);
}

#[test]
fn observers_never_change_answers() {
    let ds = dataset();

    // Each pair runs the same seed with and without observation; results
    // must be bitwise identical (PartialEq covers every field, including
    // the full iteration trace).
    let registry = MetricsRegistry::new();
    let mut acc = PhaseAccumulator::new();

    for (i, shape) in all_shapes().iter().enumerate() {
        let config = cfg(31 + i as u64);
        let seen = if i == 1 {
            observed(&ds, shape, &config, &mut acc)
        } else {
            observed(&ds, shape, &config, &mut &registry)
        };
        assert_eq!(plain(&ds, shape, &config), seen, "{shape:?}");
    }

    // The filter pair ran through the accumulator: phases were timed.
    assert!(acc.nanos.iter().sum::<u64>() > 0);
}

#[test]
fn observers_never_change_answers_multithreaded() {
    let ds = dataset();
    let threaded = |seed: u64| SwopeConfig::with_epsilon(0.2).with_seed(seed).with_threads(4);

    let registry = MetricsRegistry::new();
    let shape = all_shapes()[0];
    let unobserved = plain(&ds, &shape, &threaded(41));
    assert_eq!(unobserved, observed(&ds, &shape, &threaded(41), &mut &registry));
    assert_eq!(unobserved, plain(&ds, &shape, &cfg(41)), "thread count must not change results");
}

#[test]
fn phase_accumulator_covers_every_phase() {
    let ds = dataset();
    let mut acc = PhaseAccumulator::new();
    let (shape, exec) = (all_shapes()[0], Executor::new(1));
    observed(&ds, &shape, &cfg(51), &mut acc);
    // The store_sketch phase (scope resolution) only fires on scoped
    // queries; a sub-range scope covers it.
    let scope = Scope::range(100, ds.num_rows() - 100);
    run(&ds, &shape, &scope, None, &cfg(51), &mut acc, &exec).unwrap();
    // The shard_merge phase only fires on sharded runs.
    let mut shards = LocalShardSource::new(&ds, 2, &cfg(51), &exec).unwrap();
    run_sharded(&mut shards, &shape, &cfg(51), &mut acc, &exec).unwrap();
    for p in Phase::ALL {
        assert!(acc.calls[p.index()] > 0, "phase {} never reported", p.name());
    }
}

/// One spelling per metric: every family name the server exports and
/// every query kind is documented under the name the code uses.
#[test]
fn every_metric_name_and_query_kind_is_documented() {
    let names = include_str!("../../crates/obs/src/names.rs");
    let docs = include_str!("../../docs/observability.md");
    let literals: Vec<&str> = names
        .split('"')
        .skip(1)
        .step_by(2)
        .filter(|s| s.starts_with("swope_"))
        .chain(QueryKind::ALL.iter().map(|k| k.name()))
        .collect();
    assert!(literals.len() > QueryKind::COUNT, "names.rs yielded no metric literals");
    // As a whole word: `mi_top_k` must not pass on the strength of a
    // longer name that contains it.
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let documented = |name: &str| {
        docs.match_indices(name).any(|(at, _)| {
            !docs[..at].ends_with(word) && !docs[at + name.len()..].starts_with(word)
        })
    };
    let undocumented: Vec<&str> = literals.into_iter().filter(|name| !documented(name)).collect();
    assert!(undocumented.is_empty(), "not in docs/observability.md: {undocumented:?}");
}
