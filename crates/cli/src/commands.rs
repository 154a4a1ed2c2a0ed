//! Command implementations.

use std::borrow::Cow;
use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;

use swope_baselines::exact_answer;
use swope_columnar::{
    csv, snapshot, stats, Dataset, DatasetSketch, PageCache, Residency, DEFAULT_MAX_SUPPORT,
};
use swope_core::{
    entropy_top_k, run, run_sharded, Answer, AttrScore, ComposedObserver, Executor, JsonlSink,
    LocalShardSource, MetricsRegistry, Rule, Scope, Shape, SwopeConfig, SwopeError,
};
use swope_server::query::{resolve, QueryParams, QueryShape, QuerySpec};
use swope_server::registry::open_capped;
use swope_server::{DatasetEntry, DatasetRegistry};

use crate::args::{parse_options, Algo, Options};

/// Why a command stopped short of success.
#[derive(Debug)]
pub enum Stop {
    /// An argv that names no command the CLI can run — no or an unknown
    /// command, a malformed flag or value, a missing argument: printed
    /// with the usage.
    Usage(String),
    /// A failure of what the arguments asked for (a file that does not
    /// open, a value a query refuses, an address that does not bind):
    /// printed as its one line.
    Failed(String),
    /// Whoever read stdout closed it (`swope inspect f | head -3`): the
    /// command has nothing left to say, which is no failure.
    StdoutClosed,
}

impl From<String> for Stop {
    fn from(e: String) -> Self {
        Stop::Failed(e)
    }
}

impl From<&str> for Stop {
    fn from(e: &str) -> Self {
        Stop::Failed(e.to_owned())
    }
}

/// A [`Stop::Usage`] saying `what`.
fn usage(what: &str) -> Stop {
    Stop::Usage(what.to_owned())
}

/// Writes one line to stdout: a closed stdout stops the command as
/// [`Stop::StdoutClosed`] where `println!` would panic.
fn write_out(line: std::fmt::Arguments<'_>) -> Result<(), Stop> {
    use std::io::Write as _;
    match writeln!(std::io::stdout().lock(), "{line}") {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Err(Stop::StdoutClosed),
        Err(e) => Err(Stop::Failed(format!("writing to stdout: {e}"))),
    }
}

/// `println!` through [`write_out`], returning from the command when
/// stdout is closed.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_out(format_args!($($arg)*))?
    };
}

/// Per-command observability wiring for `--events-out` / `--metrics`.
///
/// Both sinks are optional; with neither flag the composed observer
/// reports itself disabled and the query runs the zero-overhead path.
struct Observability {
    sink: Option<JsonlSink<BufWriter<File>>>,
    metrics: Option<MetricsRegistry>,
}

impl Observability {
    fn from_opts(opts: &Options) -> Result<Self, String> {
        let sink = match opts.events_out.as_deref() {
            Some(path) => {
                Some(JsonlSink::create(path).map_err(|e| format!("opening {path}: {e}"))?)
            }
            None => None,
        };
        let metrics = opts.metrics.then(MetricsRegistry::new);
        if (sink.is_some() || metrics.is_some()) && opts.algo == Algo::Exact {
            eprintln!("note: --events-out/--metrics do not instrument --algo exact");
        }
        Ok(Self { sink, metrics })
    }

    /// A composed observer borrowing both sinks. The JSONL half is taken
    /// by `&mut` (it buffers a writer); the metrics half is all-atomic
    /// and observes through a shared reference.
    fn observer(
        &mut self,
    ) -> ComposedObserver<&mut Option<JsonlSink<BufWriter<File>>>, Option<&MetricsRegistry>> {
        ComposedObserver::new(&mut self.sink, self.metrics.as_ref())
    }

    /// Flushes the event sink (surfacing any sticky I/O error) and prints
    /// the metrics table.
    fn finish(self) -> Result<(), Stop> {
        if let Some(sink) = self.sink {
            sink.finish().map_err(|e| format!("writing events: {e}"))?;
        }
        if let Some(metrics) = self.metrics {
            outln!(
                "
{}",
                metrics.render_table()
            );
        }
        Ok(())
    }
}

/// Dispatches a full argv (after the binary name).
pub fn dispatch(argv: &[String]) -> Result<(), Stop> {
    let (command, rest) = argv.split_first().ok_or_else(|| usage("no command given"))?;
    let opts = parse_options(rest).map_err(Stop::Usage)?;
    match command.as_str() {
        "stats" => cmd_stats(&opts),
        "inspect" => cmd_inspect(&opts),
        query @ ("entropy-topk" | "entropy-filter" | "entropy-profile" | "mi-topk"
        | "mi-filter" | "mi-profile") => cmd_query(query, &opts),
        "compare" => cmd_compare(&opts),
        "gen" => cmd_gen(&opts),
        "convert" => cmd_convert(&opts),
        "split" => cmd_split(&opts),
        "serve" => cmd_serve(&opts),
        "help" | "--help" | "-h" => {
            outln!("{}", crate::args::usage());
            Ok(())
        }
        other => Err(Stop::Usage(format!("unknown command {other:?}"))),
    }
}

/// The dataset file argument.
fn file(opts: &Options) -> Result<&str, String> {
    opts.positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| "expected a dataset file argument".into())
}

/// The support cap: `--max-support`, or the paper's.
fn max_support(opts: &Options) -> u32 {
    opts.max_support.unwrap_or(DEFAULT_MAX_SUPPORT)
}

/// Under `--mmap` / `--store-budget-bytes`, the command-scoped page cache
/// a snapshot's columns are read through, in place and on demand.
fn pager(opts: &Options) -> Option<Arc<PageCache>> {
    opts.paged().then(|| Arc::new(PageCache::new(opts.store_budget_bytes)))
}

fn note_dropped(dropped: usize, opts: &Options) {
    if dropped > 0 {
        eprintln!("note: dropped {dropped} column(s) with support > {}", max_support(opts));
    }
}

/// Loads the file argument the way `swope serve` registers it: capped,
/// with the sketch the file carries or else one built at load.
fn load(opts: &Options) -> Result<Arc<DatasetEntry>, String> {
    let registry = DatasetRegistry::new(max_support(opts));
    let entry = match pager(opts) {
        Some(cache) => registry.load_path_paged(file(opts)?, &cache)?,
        None => registry.load_path(file(opts)?)?,
    };
    note_dropped(entry.dropped_columns, opts);
    Ok(entry)
}

/// Opens the file argument capped as [`load`] caps it, with the sketch
/// the file itself carries (if the cap left it valid), building none.
fn open(opts: &Options) -> Result<(Dataset, Option<DatasetSketch>), String> {
    let cache = pager(opts);
    let residency = cache.as_ref().map_or(Residency::Heap, Residency::Paged);
    let (ds, sketch, dropped) = open_capped(file(opts)?, residency, max_support(opts))?;
    note_dropped(dropped, opts);
    Ok((ds, sketch))
}

/// The CLI's query flags under their HTTP parameter names — `-k` is `k`,
/// `--row-start` is `row_start` — and the file's registry name as
/// `dataset`: what the CLI asks the server's front door.
struct Flags<'a> {
    opts: &'a Options,
    dataset: &'a str,
}

impl QueryParams for Flags<'_> {
    fn param(&self, name: &str) -> Option<Cow<'_, str>> {
        fn text(value: Option<impl ToString>) -> Option<Cow<'static, str>> {
            value.map(|v| Cow::Owned(v.to_string()))
        }
        let o = self.opts;
        match name {
            "dataset" => Some(Cow::Borrowed(self.dataset)),
            "k" => text(o.k),
            "eta" => text(o.eta),
            "target" => o.target.as_deref().map(Cow::Borrowed),
            "epsilon" => text(o.epsilon),
            "pf" => text(o.pf),
            "seed" => text(o.seed),
            "threads" => text(o.threads),
            "row_start" => text(o.row_start),
            "row_end" => text(o.row_end),
            "where" => o.where_clause.as_deref().map(Cow::Borrowed),
            _ => None,
        }
    }

    fn missing(&self, name: &str) -> String {
        match name {
            "k" => "-k is required".into(),
            _ => format!("--{} is required", name.replace('_', "-")),
        }
    }
}

/// Validates `--shards`. The count-merge path answers whole-dataset
/// queries only (a scope would change which rows each shard may count),
/// and the exact baseline has no sharded scan.
fn shards_from_opts(opts: &Options, spec: &QuerySpec) -> Result<Option<usize>, String> {
    let Some(shards) = opts.shards else { return Ok(None) };
    if opts.algo == Algo::Exact {
        return Err("sharded queries (--shards) are not supported by --algo exact".into());
    }
    if spec.is_scoped() {
        return Err("--shards cannot be combined with --row-start/--row-end/--where".into());
    }
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(Some(shards))
}

/// Runs `shape` on the adaptive loop over `scope`, or across `shards`
/// in-process row shards, observed by the command's sinks.
fn adaptive(
    entry: &DatasetEntry,
    shape: Shape,
    scope: &Scope,
    shards: Option<usize>,
    cfg: &SwopeConfig,
    obs: &mut Observability,
) -> Result<Answer, SwopeError> {
    let exec = Executor::new(cfg.threads);
    let (ds, sketch) = (&*entry.dataset, Some(&*entry.sketch));
    match shards {
        Some(shards) => {
            // The sketch's marginals, as an unsharded run takes them.
            let mut source = LocalShardSource::new(ds, shards, cfg, &exec)?.with_sketch(sketch);
            run_sharded(&mut source, &shape, cfg, &mut obs.observer(), &exec)
        }
        None => run(ds, &shape, scope, sketch, cfg, &mut obs.observer(), &exec),
    }
}

fn cmd_stats(opts: &Options) -> Result<(), Stop> {
    let (ds, _) = open(opts)?;
    let summary = stats::summarize(&ds);
    outln!(
        "rows: {}   columns: {}   max support: {}",
        summary.rows,
        summary.columns,
        summary.max_support
    );
    outln!("{:<24} {:>8} {:>10} {:>10} {:>8}", "column", "support", "distinct", "mode", "mode%");
    for s in stats::dataset_stats(&ds) {
        outln!(
            "{:<24} {:>8} {:>10} {:>10} {:>7.1}%",
            truncate(&s.name, 24),
            s.support,
            s.observed_distinct,
            s.mode.map(|m| m.to_string()).unwrap_or_else(|| "-".into()),
            s.mode_fraction * 100.0
        );
    }
    Ok(())
}

/// `swope inspect <file>`: physical storage layout — a `.swop` file's
/// format version and the layout seed its pages are ordered by, which
/// code width each column packed to, how many bytes it occupies, what
/// the width packing saves over a uniform u32 representation, and the
/// partition sketch a snapshot carries (per-column histogram layout plus
/// the whole-sketch footprint). A dataset without a sketch (CSV input or
/// a pre-sketch snapshot) degrades to `sketch: none`.
fn cmd_inspect(opts: &Options) -> Result<(), Stop> {
    let (ds, sketch) = open(opts)?;
    let summary = stats::summarize(&ds);
    outln!(
        "rows: {}   columns: {}   max support: {}",
        summary.rows,
        summary.columns,
        summary.max_support
    );
    if let Ok(format) = snapshot::format(file(opts)?) {
        let order = match format.layout_seed {
            Some(seed) => format!("layout order (seed {seed:#x})"),
            None => format!("row order (`swope convert` rewrites it as v{})", snapshot::VERSION),
        };
        outln!("snapshot: v{}, pages in {order}", format.version);
        if let Some((union_rows, base)) = format.frame {
            let end = base + ds.num_rows();
            outln!("frame: rows {base}..{end} of a {union_rows}-row table, in its layout");
        }
    }
    outln!("{:<24} {:>8} {:>6} {:>12} {:>8}", "column", "support", "width", "bytes", "sketch");
    for (attr, s) in stats::dataset_stats(&ds).iter().enumerate() {
        let kind =
            sketch.as_ref().and_then(|sk| sk.column(attr)).map(|c| c.kind().name()).unwrap_or("-");
        outln!(
            "{:<24} {:>8} {:>5}b {:>12} {:>8}",
            truncate(&s.name, 24),
            s.support,
            s.code_width,
            s.bytes_in_memory,
            kind
        );
    }
    let packed = stats::bytes_in_memory(&ds);
    let unpacked = stats::bytes_unpacked(&ds);
    let saved = unpacked.saturating_sub(packed);
    let pct = if unpacked > 0 { saved as f64 / unpacked as f64 * 100.0 } else { 0.0 };
    outln!("total: {packed} bytes packed ({unpacked} at u32; saves {saved} bytes, {pct:.1}%)");
    // Residency: with --mmap the columns above were scanned through the
    // page cache, so "resident" is what survived eviction, not the file.
    let paged_cols: Vec<_> = (0..ds.num_attrs()).filter_map(|a| ds.column(a).paged()).collect();
    if let Some(first) = paged_cols.first() {
        let resident: u64 = paged_cols.iter().map(|p| p.resident_bytes()).sum();
        let plain: u64 = paged_cols.iter().map(|p| p.plain_bytes()).sum();
        let budget = match opts.store_budget_bytes {
            Some(b) => format!("{b} byte budget"),
            None => "unbounded".into(),
        };
        outln!(
            "paged: {} column(s) via {}, {resident} of {plain} bytes resident ({budget})",
            paged_cols.len(),
            first.mapping_kind()
        );
    }
    match &sketch {
        Some(sk) => outln!(
            "sketch: {} page(s) x {} column(s), {} bytes encoded",
            sk.num_pages(),
            sk.num_columns(),
            sk.encoded_len()
        ),
        None => outln!("sketch: none (CSV input or snapshot without a sketch section)"),
    }
    Ok(())
}

/// `swope <segment> <file>`: the query `GET /query/<segment>` names,
/// asked through the server's front door (the file loaded as a server
/// registers it, the flags read as its parameters, the spec resolved as
/// it resolves one). `--algo rank` swaps in the comparator's rule for
/// SWOPE's, `--algo exact` a full scan, and `--shards` counts across
/// in-process row shards.
fn cmd_query(segment: &str, opts: &Options) -> Result<(), Stop> {
    let entry = load(opts)?;
    let spec = QuerySpec::parse(segment, &Flags { opts, dataset: &entry.name })?;
    let profile = matches!(spec.shape, QueryShape::EntropyProfile | QueryShape::MiProfile { .. });
    if profile && opts.algo != Algo::Swope {
        let name = if opts.algo == Algo::Rank { "rank" } else { "exact" };
        return Err(format!(
            "profile queries (entropy-profile/mi-profile) are not supported by --algo {name}"
        )
        .into());
    }
    if opts.algo == Algo::Exact && spec.is_scoped() {
        return Err("scoped queries (--row-start/--row-end/--where) are not supported by \
                    --algo exact"
            .into());
    }
    let shards = shards_from_opts(opts, &spec)?;
    let (shape, scope, cfg) = resolve(&entry, &spec)?;
    let mut obs = Observability::from_opts(opts)?;
    let Shape { target, rule } = shape;
    let adaptive_rule = match (opts.algo, rule) {
        (Algo::Rank, Rule::TopK { k }) => Rule::Rank { k },
        (Algo::Rank, Rule::Filter { eta }) => Rule::FilterExact { eta },
        _ => rule,
    };
    let answer = match opts.algo {
        Algo::Exact => exact_answer(&entry.dataset, &shape),
        _ => {
            let shape = Shape { target, rule: adaptive_rule };
            adaptive(&entry, shape, &scope, shards, &cfg, &mut obs)
        }
    }
    .map_err(|e| e.to_string())?;
    // `mi-filter` has never printed its target.
    if let (Some(t), Rule::TopK { .. } | Rule::Profile { .. }) = (target, rule) {
        let name = entry.dataset.schema().field(t).map(|f| f.name()).unwrap_or("?");
        outln!("target: {name} ({t})");
    }
    let measure = if target.is_some() { "mutual information" } else { "entropy" };
    print_answer(measure, rule, &answer)?;
    obs.finish()
}

/// A header naming what `rule` returned, then one line per score.
fn print_answer(measure: &str, rule: Rule, answer: &Answer) -> Result<(), Stop> {
    let Answer { scores, stats } = answer;
    let sampled =
        format!("sampled {} rows in {} iteration(s)", stats.sample_size, stats.iterations);
    match rule {
        Rule::TopK { .. } | Rule::Rank { .. } => {
            outln!("top-{} by empirical {measure} ({sampled}):", scores.len());
        }
        Rule::Filter { eta } | Rule::FilterExact { eta } => {
            outln!("{} attribute(s) with empirical {measure} >= {eta} ({sampled}):", scores.len());
        }
        Rule::Profile { .. } => outln!("{measure} estimate per attribute ({sampled}):"),
    }
    outln!("{:<6} {:<24} {:>10} {:>10} {:>10}", "attr", "name", "estimate", "lower", "upper");
    for s in scores {
        print_score(s)?;
    }
    Ok(())
}

/// Runs SWOPE and the exact scan on the same top-k query and reports the
/// speed/agreement trade-off — a quick way to validate the approximation
/// on one's own data before trusting it in a pipeline.
fn cmd_compare(opts: &Options) -> Result<(), Stop> {
    let entry = load(opts)?;
    let ds = &*entry.dataset;
    let k = opts.k.unwrap_or(5).min(ds.num_attrs());
    let opts = Options { k: Some(k), ..opts.clone() };
    let spec = QuerySpec::parse("entropy-topk", &Flags { opts: &opts, dataset: &entry.name })?;
    let cfg = spec.config();

    let t0 = std::time::Instant::now();
    let swope = entropy_top_k(ds, k, &cfg).map_err(|e| e.to_string())?;
    let swope_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = std::time::Instant::now();
    let exact = exact_answer(ds, &Shape::entropy(Rule::TopK { k })).map_err(|e| e.to_string())?;
    let exact_ms = t0.elapsed().as_secs_f64() * 1e3;

    let exact_set: std::collections::HashSet<usize> = exact.scores.iter().map(|s| s.attr).collect();
    let hits = swope.attr_indices().iter().filter(|a| exact_set.contains(a)).count();

    outln!("entropy top-{k} comparison (epsilon = {}):", cfg.epsilon);
    outln!(
        "  SWOPE: {swope_ms:.2} ms, sampled {} of {} rows",
        swope.stats.sample_size,
        ds.num_rows()
    );
    outln!("  Exact: {exact_ms:.2} ms (full scan)");
    outln!("  speedup: {:.1}x   agreement: {hits}/{k} attributes", exact_ms / swope_ms.max(1e-9));
    outln!("\n{:<6} {:<24} {:>10} {:>10}", "attr", "name", "SWOPE est", "exact");
    for s in &swope.top {
        let exact_score = exact.scores.iter().find(|e| e.attr == s.attr).map(|e| e.estimate);
        outln!(
            "{:<6} {:<24} {:>10.4} {:>10}",
            s.attr,
            truncate(&s.name, 24),
            s.estimate,
            exact_score.map(|v| format!("{v:.4}")).unwrap_or_else(|| "-".into())
        );
    }
    Ok(())
}

fn cmd_gen(opts: &Options) -> Result<(), Stop> {
    let profile_name = opts
        .positional
        .first()
        .ok_or_else(|| usage("expected a profile name (cdc hus pus enem tiny)"))?;
    let scale = opts.scale.unwrap_or(0.01);
    let profile = match profile_name.as_str() {
        "cdc" => swope_datagen::corpus::cdc(scale),
        "hus" => swope_datagen::corpus::hus(scale),
        "pus" => swope_datagen::corpus::pus(scale),
        "enem" => swope_datagen::corpus::enem(scale),
        "tiny" => swope_datagen::corpus::tiny(opts.rows.unwrap_or(10_000), opts.cols.unwrap_or(20)),
        other => return Err(format!("unknown profile {other:?}").into()),
    };
    let out = opts.out.as_deref().ok_or_else(|| usage("--out is required"))?;
    let ds = swope_datagen::generate(&profile, opts.seed.unwrap_or(0x5170));
    write_dataset(&ds, out)?;
    outln!("wrote {} ({} rows x {} columns)", out, ds.num_rows(), ds.num_attrs());
    Ok(())
}

fn cmd_convert(opts: &Options) -> Result<(), Stop> {
    let [input, output] = opts.positional.as_slice() else {
        return Err(usage("convert expects <in> <out>"));
    };
    let (ds, _) = Dataset::open(input, Residency::Heap).map_err(|e| e.to_string())?;
    write_dataset(&ds, output)?;
    outln!("wrote {output}");
    Ok(())
}

/// `swope split <in> <out-a> <out-b> --at <n>`: cut a dataset row-wise
/// into `[0, n)` and `[n, end)`. Schema (dictionaries included) and
/// per-column supports carry over unchanged, so two shard servers
/// serving the halves form exactly the union a single box serving the
/// input would answer for — the property `serve --peer` relies on. Each
/// half keeps the input's layout and records its frame (a v4 snapshot),
/// so a peer counts every window a coordinator sends it in place.
fn cmd_split(opts: &Options) -> Result<(), Stop> {
    let [input, out_a, out_b] = opts.positional.as_slice() else {
        return Err(usage("split expects <in> <out-a> <out-b>"));
    };
    let at = opts.at.ok_or_else(|| usage("--at is required"))?;
    let (ds, _) =
        Dataset::open(input, Residency::Heap).map_err(|e| format!("loading {input}: {e}"))?;
    if at == 0 || at >= ds.num_rows() {
        return Err(format!("--at {at} must fall inside the {} rows", ds.num_rows()).into());
    }
    let head: Vec<usize> = (0..at).collect();
    let tail: Vec<usize> = (at..ds.num_rows()).collect();
    write_dataset(&ds.take_rows(&head), out_a)?;
    write_dataset(&ds.take_rows(&tail), out_b)?;
    outln!("wrote {out_a} ({at} rows) and {out_b} ({} rows)", ds.num_rows() - at);
    Ok(())
}

/// `swope serve [<file>...]`: load the given datasets, bind, and serve
/// until SIGINT/SIGTERM.
fn cmd_serve(opts: &Options) -> Result<(), Stop> {
    let config = swope_server::ServerConfig {
        addr: opts.addr.clone().unwrap_or_else(|| "127.0.0.1:7878".into()),
        threads: opts.threads.unwrap_or(4),
        queue_capacity: opts.queue_depth.unwrap_or(64),
        cache_capacity: opts.cache_capacity.unwrap_or(256),
        deadline: std::time::Duration::from_millis(opts.deadline_ms.unwrap_or(10_000)),
        max_support: max_support(opts),
        handle_signals: true,
        exec_threads: opts
            .exec_threads
            .unwrap_or_else(|| swope_server::ServerConfig::default().exec_threads),
        trace: opts.trace,
        slow_ms: opts.slow_ms.unwrap_or(250),
        access_log: opts.access_log.clone(),
        keep_alive: std::time::Duration::from_millis(opts.keep_alive_ms.unwrap_or(30_000)),
        max_conns: opts.max_conns.unwrap_or(4096),
        tenant_rps: opts.tenant_rps,
        tenant_burst: opts.tenant_burst,
        peers: opts.peers.clone(),
        peer_connect_timeout: opts
            .peer_timeout_ms
            .map(std::time::Duration::from_millis)
            .unwrap_or(swope_server::ServerConfig::default().peer_connect_timeout),
        peer_io_timeout: opts
            .peer_timeout_ms
            .map(std::time::Duration::from_millis)
            .unwrap_or(swope_server::ServerConfig::default().peer_io_timeout),
        mmap: opts.paged(),
        store_budget_bytes: opts.store_budget_bytes,
        ..swope_server::ServerConfig::default()
    };
    let server = swope_server::Server::bind(config).map_err(|e| format!("binding: {e}"))?;
    for path in &opts.positional {
        let entry = server.registry().load_path(path)?;
        outln!(
            "loaded {:?} as {:?} ({} rows x {} columns)",
            path,
            entry.name,
            entry.dataset.num_rows(),
            entry.dataset.num_attrs()
        );
    }
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    outln!("listening on http://{addr}");
    // Scripts (and the CI smoke test) wait for the line above before
    // sending requests; make sure it is visible before we block serving.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run();
    outln!("shut down cleanly");
    Ok(())
}

fn write_dataset(ds: &Dataset, path: &str) -> Result<(), String> {
    if path.ends_with(".swop") {
        snapshot::write_file(ds, path).map_err(|e| e.to_string())
    } else {
        let mut f =
            std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| e.to_string())?);
        csv::write_csv(ds, &mut f).map_err(|e| e.to_string())
    }
}

fn print_score(s: &AttrScore) -> Result<(), Stop> {
    outln!(
        "{:<6} {:<24} {:>10.4} {:>10.4} {:>10.4}",
        s.attr,
        truncate(&s.name, 24),
        s.estimate,
        s.lower,
        s.upper
    );
    Ok(())
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_owned()
    } else {
        format!("{}…", &s[..max.saturating_sub(1)])
    }
}
